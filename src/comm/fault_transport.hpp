#pragma once

/// \file fault_transport.hpp
/// Fault-injecting Transport decorator (failure-model test harness).
///
/// Wraps any Transport and, driven by a seeded util::Rng, perturbs the
/// message flow the way flaky interconnects and dying nodes do in the
/// remote/distributed visualization deployments that followed Viracocha:
///
///   * drop      — the message silently never arrives,
///   * duplicate — the message is delivered twice,
///   * delay     — the message is held back by a background thread and
///                 delivered late (breaking FIFO, as reordering networks do),
///   * kill_rank — a rank "crashes": nothing is delivered to or from it any
///                 more, mid-request, until global shutdown.
///
/// With all rates at zero and no killed ranks the decorator is a strict
/// pass-through — zero behavior change — so the same test suite can run
/// with and without faults. All methods are thread-safe (the wrapped
/// Transport already must be).
///
/// The decision itself lives in FaultSchedule, which sim::VirtualTransport
/// shares: a seed that reproduces a bug under virtual time draws the same
/// random stream, and so makes the same decisions, here.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "comm/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace vira::comm {

/// Probabilities are per message, evaluated independently in the order
/// drop → duplicate → delay.
struct FaultInjectionConfig {
  std::uint64_t seed = 0x5eedULL;
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  /// Delayed messages are held a uniform [1, max_delay] ms.
  std::chrono::milliseconds max_delay{5};
};

/// Counters of everything the injector did (for benches and assertions).
struct FaultInjectionStats {
  std::uint64_t forwarded = 0;   ///< messages passed through unharmed
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t suppressed_dead = 0;  ///< messages to/from killed ranks
};

/// The fate of one message.
struct FaultDecision {
  int copies = 1;        ///< 0 = not delivered; 2 = duplicated
  bool dropped = false;  ///< copies == 0 by the drop draw (else a dead endpoint)
  std::chrono::milliseconds delay{0};  ///< 0 = deliver now
};

/// The seeded fault decision, rank-death bookkeeping and counters that both
/// fault-injecting transports share. Takes no lock: each transport calls it
/// under the lock that already guards its delivery state.
class FaultSchedule {
 public:
  /// Throws std::invalid_argument unless every rate is in [0, 1].
  explicit FaultSchedule(const FaultInjectionConfig& config);

  /// Decides in the order dead-suppress → drop → duplicate → delay; a delay
  /// is uniform in [1, max_delay] ms. Draws only for nonzero rates.
  FaultDecision decide(int source, int dest);

  /// True (counted as suppressed_dead) when either rank is dead: the
  /// re-check at delivery and receive time.
  bool suppress_if_dead(int source, int dest);

  /// Marks `rank` crashed; false if it already was.
  bool kill(int rank);
  bool is_dead(int rank) const { return dead_.count(rank) > 0; }
  std::size_t dead_count() const { return dead_.size(); }
  const FaultInjectionStats& stats() const { return stats_; }

 private:
  bool draw(double rate) { return rate > 0.0 && rng_.next_double() < rate; }

  FaultInjectionConfig config_;
  util::Rng rng_;
  std::set<int> dead_;
  FaultInjectionStats stats_;
};

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::shared_ptr<Transport> inner, FaultInjectionConfig config);
  ~FaultInjectingTransport() override;

  int size() const override { return inner_->size(); }
  void send(int dest, Message msg) override;
  std::optional<Message> recv(int self, const Match& match, util::TimePoint deadline) override;
  std::optional<std::pair<int, int>> probe(int self, util::TimePoint deadline) override;
  void shutdown() override;
  bool is_shut_down() const override { return inner_->is_shut_down(); }

  /// Simulates a crash of `rank`: from now on nothing is delivered to or
  /// from it. Irreversible (a crashed process does not come back).
  void kill_rank(int rank);
  bool is_dead(int rank) const;
  std::size_t dead_count() const;

  FaultInjectionStats stats() const;

 private:
  void deliver_later(int dest, Message msg, std::chrono::milliseconds delay);
  void delay_loop();
  void stop_delays();

  std::shared_ptr<Transport> inner_;

  mutable std::mutex mutex_;  ///< guards schedule_
  FaultSchedule schedule_;

  /// Delayed delivery: held (dest, message) pairs by due time, sent by a
  /// thread started on the first delay. All guarded by delay_mutex_.
  std::mutex delay_mutex_;
  util::ClockCondition delay_cv_;
  std::multimap<util::TimePoint, std::pair<int, Message>> delayed_;
  std::thread delay_thread_;
  bool stopping_ = false;
};

}  // namespace vira::comm
