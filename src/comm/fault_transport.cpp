#include "comm/fault_transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace vira::comm {

namespace {
/// Fault-injection instruments, mirrored into the shared registry so the
/// metrics dump shows injected chaos next to the recovery counters.
struct FaultMetrics {
  obs::Counter& dropped = obs::Registry::instance().counter("fault.dropped");
  obs::Counter& duplicated = obs::Registry::instance().counter("fault.duplicated");
  obs::Counter& delayed = obs::Registry::instance().counter("fault.delayed");
  obs::Counter& suppressed_dead = obs::Registry::instance().counter("fault.suppressed_dead");
  obs::Counter& killed = obs::Registry::instance().counter("fault.killed_ranks");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics* instruments = new FaultMetrics();
  return *instruments;
}
}  // namespace

FaultSchedule::FaultSchedule(const FaultInjectionConfig& config)
    : config_(config), rng_(config.seed) {
  for (const double rate : {config_.drop_rate, config_.duplicate_rate, config_.delay_rate}) {
    if (rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument("FaultSchedule: rates must be in [0, 1]");
    }
  }
}

FaultDecision FaultSchedule::decide(int source, int dest) {
  FaultDecision decision;
  if (suppress_if_dead(source, dest)) {
    decision.copies = 0;
    return decision;
  }
  if (draw(config_.drop_rate)) {
    ++stats_.dropped;
    fault_metrics().dropped.add();
    decision.copies = 0;
    decision.dropped = true;
    return decision;
  }
  if (draw(config_.duplicate_rate)) {
    ++stats_.duplicated;
    fault_metrics().duplicated.add();
    decision.copies = 2;
  }
  if (draw(config_.delay_rate)) {
    ++stats_.delayed;
    fault_metrics().delayed.add();
    const auto span = std::max<std::int64_t>(1, config_.max_delay.count());
    decision.delay = std::chrono::milliseconds(
        1 + static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(span))));
  }
  ++stats_.forwarded;
  return decision;
}

bool FaultSchedule::suppress_if_dead(int source, int dest) {
  if (!is_dead(source) && !is_dead(dest)) {
    return false;
  }
  ++stats_.suppressed_dead;
  fault_metrics().suppressed_dead.add();
  return true;
}

bool FaultSchedule::kill(int rank) {
  if (!dead_.insert(rank).second) {
    return false;
  }
  fault_metrics().killed.add();
  return true;
}

FaultInjectingTransport::FaultInjectingTransport(std::shared_ptr<Transport> inner,
                                                 FaultInjectionConfig config)
    : inner_(std::move(inner)), schedule_(config) {
  if (!inner_) {
    throw std::invalid_argument("FaultInjectingTransport: inner transport required");
  }
}

FaultInjectingTransport::~FaultInjectingTransport() {
  stop_delays();
  if (delay_thread_.joinable()) {
    delay_thread_.join();
  }
}

void FaultInjectingTransport::stop_delays() {
  {
    std::lock_guard<std::mutex> lock(delay_mutex_);
    stopping_ = true;
  }
  delay_cv_.notify_all();
}

void FaultInjectingTransport::send(int dest, Message msg) {
  FaultDecision decision;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    decision = schedule_.decide(msg.source, dest);
  }
  for (int copy = 0; copy < decision.copies; ++copy) {
    Message instance = (copy + 1 == decision.copies) ? std::move(msg) : msg;
    if (decision.delay.count() > 0) {
      deliver_later(dest, std::move(instance), decision.delay);
    } else {
      inner_->send(dest, std::move(instance));
    }
  }
}

std::optional<Message> FaultInjectingTransport::recv(int self, const Match& match,
                                                     util::TimePoint deadline) {
  while (auto msg = inner_->recv(self, match, deadline)) {
    std::lock_guard<std::mutex> lock(mutex_);
    // A crashed rank reads nothing; mail from a crashed rank (queued before
    // the crash) is discarded, like an undelivered socket buffer.
    if (!schedule_.suppress_if_dead(msg->source, self)) {
      return msg;
    }
  }
  return std::nullopt;
}

std::optional<std::pair<int, int>> FaultInjectingTransport::probe(int self,
                                                                  util::TimePoint deadline) {
  return inner_->probe(self, deadline);
}

void FaultInjectingTransport::shutdown() {
  stop_delays();
  inner_->shutdown();
}

void FaultInjectingTransport::kill_rank(int rank) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("FaultInjectingTransport::kill_rank: bad rank");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    schedule_.kill(rank);
  }
  VIRA_WARN("fault") << "rank " << rank << " killed (delivery suppressed)";
}

bool FaultInjectingTransport::is_dead(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_.is_dead(rank);
}

std::size_t FaultInjectingTransport::dead_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_.dead_count();
}

FaultInjectionStats FaultInjectingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_.stats();
}

void FaultInjectingTransport::deliver_later(int dest, Message msg,
                                            std::chrono::milliseconds delay) {
  {
    std::lock_guard<std::mutex> lock(delay_mutex_);
    delayed_.emplace(util::clock_now() + delay, std::make_pair(dest, std::move(msg)));
    if (!delay_thread_.joinable()) {
      delay_thread_ = std::thread([this] { delay_loop(); });
    }
  }
  delay_cv_.notify_all();
}

void FaultInjectingTransport::delay_loop() {
  std::unique_lock<std::mutex> lock(delay_mutex_);
  while (!stopping_) {
    // Sleep until the earliest held message falls due, unless a stop or an
    // even earlier message arrives first.
    const auto due = delayed_.empty() ? util::kNoDeadline : delayed_.begin()->first;
    if (delay_cv_.wait_until(lock, due, [&] {
          return stopping_ || (!delayed_.empty() && delayed_.begin()->first < due);
        })) {
      continue;
    }
    auto [dest, msg] = std::move(delayed_.extract(delayed_.begin()).mapped());
    lock.unlock();
    // Re-check the death list at delivery time: the destination (or sender)
    // may have been killed while the message was in flight.
    bool suppressed = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      suppressed = schedule_.suppress_if_dead(msg.source, dest);
    }
    if (!suppressed && !inner_->is_shut_down()) {
      inner_->send(dest, std::move(msg));
    }
    lock.lock();
  }
}

}  // namespace vira::comm
