#pragma once

/// \file dst_clock.hpp
/// Cooperative virtual clock for deterministic simulation testing (DST).
///
/// The real scheduler / worker / DMS stack is multithreaded; what makes it
/// nondeterministic is the OS scheduler and the wall clock. VirtualClock
/// removes both: it implements util::Clock with a *token machine* — exactly
/// one participant thread holds the run token at any instant, every
/// blocking point in the product (clock_sleep, util::ClockCondition waits)
/// releases the token, and virtual time advances only when nothing is
/// runnable, by jumping to the earliest pending deadline or timer. The
/// schedule is a pure function of the participants' behavior, so a seeded
/// scenario replays bit-identically — and months of virtual
/// heartbeat/death-timeout time elapse in milliseconds of real time.
///
/// A lost notify would hang an untimed wait, so when nothing is runnable,
/// no timer or deadline is pending, nobody is outside in join_thread and a
/// participant is parked untimed, the clock dumps its state and aborts.
///
/// Thread model:
///   * The driver thread enters via register_driver() and initially holds
///     the token.
///   * Product threads are announced by their *spawning* thread
///     (Clock::announce_thread) before the std::thread exists, which
///     reserves their scheduling slot at a deterministic point; the spawned
///     body brackets itself with thread_begin()/thread_end().
///   * join_thread() lets a participant leave the machine (token released)
///     while it really blocks in std::thread::join, then re-enters. Only
///     teardown paths join, after the trajectory hash is finalized, so the
///     re-entry's racing with the OS does not affect measured determinism.
///
/// tsan note: every token hand-off goes through one mutex, so consecutive
/// token holders are linked by a release/acquire chain — the serialized
/// schedule is also a data-race-free schedule.

#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/clock.hpp"

namespace vira::sim {

static_assert(std::is_same_v<util::TimePoint::duration, std::chrono::nanoseconds>,
              "virtual time counts steady_clock ticks as nanoseconds");

class VirtualClock final : public util::Clock {
 public:
  using Nanos = std::int64_t;
  /// Deadline of an untimed wait (util::kNoDeadline on this timeline).
  static constexpr Nanos kForever = util::kNoDeadline.time_since_epoch().count();

  /// One cooperating thread. Owned by the clock; pointers stay valid until
  /// the clock is destroyed (threads are joined before that).
  struct Participant {
    explicit Participant(std::string participant_name) : name(std::move(participant_name)) {}
    std::string name;
    std::condition_variable cv;
    bool granted = false;   ///< token offered; predicate for cv waits
    bool waiting = false;   ///< parked in waiting_ (deadline may be kForever)
    bool finished = false;
    Nanos deadline = 0;
    const util::ClockCondition* condition = nullptr;  ///< parked on it, if any
    std::uint64_t wait_seq = 0;  ///< tie-break for equal deadlines (FIFO)
  };

  VirtualClock() = default;
  ~VirtualClock() override = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// --- util::Clock ---------------------------------------------------------
  std::chrono::steady_clock::time_point now() override {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(now_ns_.load(std::memory_order_relaxed)));
  }
  void sleep_for(std::chrono::nanoseconds duration) override;
  void wait_until(std::unique_lock<std::mutex>& lock, util::ClockCondition& condition,
                  util::TimePoint deadline) override;
  void notify_all(util::ClockCondition& condition) override;
  void announce_thread(const std::string& name) override;
  void thread_begin(const std::string& name) override;
  void thread_end() override;
  void join_thread(std::thread& thread) override;

  /// --- driver --------------------------------------------------------------
  /// Turns the calling thread into a participant that immediately holds the
  /// token. Call once, before any product thread is announced.
  void register_driver(const std::string& name = "driver");
  /// Ends the driver's participation (same as thread_end()).
  void unregister_driver();

  /// --- machine API for VirtualTransport ------------------------------------
  /// All _locked members require the lock returned by acquire().
  std::unique_lock<std::mutex> acquire() { return std::unique_lock<std::mutex>(mutex_); }
  Nanos now_ns() const { return now_ns_.load(std::memory_order_relaxed); }
  /// Runs `fn` (under the machine lock) when virtual time reaches `due`.
  /// Timers at the same instant fire in registration order, before any
  /// deadline-expired participant resumes.
  void add_timer_locked(Nanos due, std::function<void()> fn);
  /// Parks the calling participant until notify_all_locked(`condition`)
  /// (null: nothing wakes it early) or `deadline_ns` (kForever: untimed),
  /// releasing the token meanwhile; returns with the token re-held.
  void wait_locked(std::unique_lock<std::mutex>& lock, Nanos deadline_ns,
                   const util::ClockCondition* condition);
  /// Makes every participant parked on `condition` runnable at the current
  /// instant, in park order.
  void notify_all_locked(const util::ClockCondition& condition);

  /// Token hand-offs so far (diagnostic; deterministic per scenario).
  std::uint64_t switches() const { return switches_.load(std::memory_order_relaxed); }

  /// Dumps participant/timer state to `out` — the post-mortem for a machine
  /// that stopped making progress. Safe to call from a non-participant
  /// thread (takes the machine lock; the token holder is only ever blocked
  /// on product-level mutexes, never this one, while it runs).
  void dump_state(std::ostream& out);

  /// `t` on the virtual timeline.
  static Nanos to_ns(util::TimePoint t) { return t.time_since_epoch().count(); }

 private:
  struct Timer {
    Nanos due;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  void grant_locked(Participant* p);
  void release_token_locked();
  /// Picks the next runnable participant, advancing virtual time if needed.
  void schedule_next_locked();
  void dump_state_locked(std::ostream& out);

  static thread_local Participant* tls_self_;

  mutable std::mutex mutex_;
  std::atomic<Nanos> now_ns_{0};
  bool token_held_ = false;
  int outside_ = 0;  ///< participants really blocked in join_thread
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> switches_{0};

  /// Runnable participants, FIFO. The front is granted next.
  std::deque<Participant*> ready_;
  /// Parked participants in park order (scanned on advance and notify).
  std::vector<Participant*> waiting_;
  /// Min-heap by (due, seq) via heap algorithms on a vector.
  std::vector<Timer> timers_;

  /// Ordered by name so per-scenario iteration (if ever needed) is
  /// deterministic; owns the Participant storage.
  std::map<std::string, std::unique_ptr<Participant>> participants_;
};

}  // namespace vira::sim
