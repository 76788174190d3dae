#include "sim/dst_transport.hpp"

#include <algorithm>
#include <stdexcept>

namespace vira::sim {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_step(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}
}  // namespace

VirtualTransport::VirtualTransport(std::shared_ptr<VirtualClock> clock, Config config)
    : clock_(std::move(clock)), config_(std::move(config)), schedule_(config_.faults) {
  if (!clock_) {
    throw std::invalid_argument("VirtualTransport: clock required");
  }
  if (config_.size < 1) {
    throw std::invalid_argument("VirtualTransport: size must be >= 1");
  }
  mailboxes_.resize(static_cast<std::size_t>(config_.size));
  arrived_ = std::make_unique<util::ClockCondition[]>(static_cast<std::size_t>(config_.size));
  auto lock = clock_->acquire();
  for (const auto& [when, rank] : config_.kills) {
    const int victim = rank;
    const auto due = std::chrono::duration_cast<std::chrono::nanoseconds>(when).count();
    clock_->add_timer_locked(due, [this, victim] {
      // Under the machine lock (timers fire inside schedule_next_locked).
      if (schedule_.kill(victim)) {
        util::ByteBuffer none;
        record_locked('K', victim, -1, 0, none);
      }
    });
  }
}

void VirtualTransport::record_locked(char kind, int a, int b, int tag,
                                     const util::ByteBuffer& payload) {
  ++events_;
  hash_ = fnv_step(hash_, static_cast<std::uint64_t>(kind));
  hash_ = fnv_step(hash_, static_cast<std::uint64_t>(clock_->now_ns()));
  hash_ = fnv_step(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(a)));
  hash_ = fnv_step(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(b)));
  hash_ = fnv_step(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
  hash_ = fnv_step(hash_, payload.size());
  const std::byte* bytes = payload.data();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    acc = (acc << 8) | std::to_integer<std::uint64_t>(bytes[i]);
    if ((i & 7u) == 7u) {
      hash_ = fnv_step(hash_, acc);
      acc = 0;
    }
  }
  if ((payload.size() & 7u) != 0) {
    hash_ = fnv_step(hash_, acc);
  }
}

void VirtualTransport::deliver_locked(int dest, comm::Message msg) {
  if (schedule_.suppress_if_dead(msg.source, dest) || down_) {
    return;  // a kill or shutdown landed while the message was in (virtual) flight
  }
  record_locked('d', msg.source, dest, msg.tag, msg.payload);
  mailboxes_[static_cast<std::size_t>(dest)].push_back(std::move(msg));
  clock_->notify_all_locked(arrived_[static_cast<std::size_t>(dest)]);
}

void VirtualTransport::send(int dest, comm::Message msg) {
  if (dest < 0 || dest >= config_.size) {
    throw std::out_of_range("VirtualTransport: bad destination");
  }
  auto lock = clock_->acquire();
  if (down_) {
    return;  // sends to a shut-down transport are dropped (Transport contract)
  }
  const comm::FaultDecision decision = schedule_.decide(msg.source, dest);
  if (decision.dropped) {
    record_locked('D', msg.source, dest, msg.tag, msg.payload);
  }
  for (int copy = 0; copy < decision.copies; ++copy) {
    comm::Message instance = (copy + 1 == decision.copies) ? std::move(msg) : msg;
    if (decision.delay.count() > 0) {
      const auto due = clock_->now_ns() +
                       std::chrono::duration_cast<std::chrono::nanoseconds>(decision.delay).count();
      // Capture by shared_ptr: std::function requires copyable callables.
      auto held = std::make_shared<comm::Message>(std::move(instance));
      clock_->add_timer_locked(due, [this, dest, held]() mutable {
        deliver_locked(dest, std::move(*held));
      });
    } else {
      deliver_locked(dest, std::move(instance));
    }
  }
}

bool VirtualTransport::park_locked(std::unique_lock<std::mutex>& lock, int self,
                                   util::TimePoint deadline) {
  const auto deadline_ns = VirtualClock::to_ns(deadline);
  if (down_ || clock_->now_ns() >= deadline_ns) {
    return false;  // shut down (Communicator throws) or timed out
  }
  clock_->wait_locked(lock, deadline_ns, &arrived_[static_cast<std::size_t>(self)]);
  return true;
}

std::optional<comm::Message> VirtualTransport::recv(int self, const comm::Match& match,
                                                    util::TimePoint deadline) {
  auto& mailbox = mailboxes_.at(static_cast<std::size_t>(self));
  auto lock = clock_->acquire();
  do {
    for (auto it = mailbox.begin(); it != mailbox.end();) {
      if (schedule_.suppress_if_dead(it->source, self)) {
        it = mailbox.erase(it);  // killed mid-queue; the message evaporates
      } else if (match(*it)) {
        comm::Message msg = std::move(*it);
        mailbox.erase(it);
        return msg;
      } else {
        ++it;
      }
    }
  } while (park_locked(lock, self, deadline));
  return std::nullopt;
}

std::optional<std::pair<int, int>> VirtualTransport::probe(int self, util::TimePoint deadline) {
  const auto& mailbox = mailboxes_.at(static_cast<std::size_t>(self));
  auto lock = clock_->acquire();
  while (mailbox.empty()) {
    if (!park_locked(lock, self, deadline)) {
      return std::nullopt;
    }
  }
  return std::make_pair(mailbox.front().source, mailbox.front().tag);
}

void VirtualTransport::shutdown() {
  auto lock = clock_->acquire();
  if (down_) {
    return;
  }
  down_ = true;
  util::ByteBuffer none;
  record_locked('X', -1, -1, 0, none);
  // Release every blocked receiver, rank-ascending then FIFO: determinism
  // even for teardown (the hash is already finalized by now, but a
  // deterministic teardown keeps post-mortem logs comparable).
  for (int rank = 0; rank < config_.size; ++rank) {
    clock_->notify_all_locked(arrived_[static_cast<std::size_t>(rank)]);
  }
}

bool VirtualTransport::is_shut_down() const {
  auto lock = clock_->acquire();
  return down_;
}

comm::FaultInjectionStats VirtualTransport::stats() const {
  auto lock = clock_->acquire();
  return schedule_.stats();
}

std::size_t VirtualTransport::dead_count() const {
  auto lock = clock_->acquire();
  return schedule_.dead_count();
}

std::uint64_t VirtualTransport::trajectory_hash() const {
  auto lock = clock_->acquire();
  return hash_;
}

std::uint64_t VirtualTransport::event_count() const {
  auto lock = clock_->acquire();
  return events_;
}

}  // namespace vira::sim
