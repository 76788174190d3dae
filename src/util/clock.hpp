#pragma once

/// \file clock.hpp
/// The injectable time source of the runtime (DESIGN.md "Testing strategy").
///
/// Every component that reads the time, sleeps or blocks — scheduler
/// liveness deadlines, worker heartbeats, mailbox receives, DMS and
/// task-pool waits, wall/phase timers — does so through the process-global
/// Clock so deterministic simulation testing (sim::VirtualClock) can
/// replace real time wholesale. The default RealClock forwards to
/// steady_clock, this_thread::sleep_for and, for ClockCondition waits,
/// std::condition_variable. A cooperative clock must see every blocking
/// point, so product threads never wait on a bare condition variable.
///
/// The thread hooks exist for cooperative schedulers: a virtual clock must
/// know every participating thread to serialize them deterministically.
/// announce_thread() is called by the *spawning* thread before it creates a
/// std::thread (reserving a deterministic schedule slot under a unique
/// name); thread_begin()/thread_end() bracket the spawned thread's body;
/// join_thread() replaces a raw std::thread::join() so a cooperative clock
/// can release its scheduling token while really blocking. All four are
/// no-ops on RealClock.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

namespace vira::util {

using TimePoint = std::chrono::steady_clock::time_point;

/// Deadline of an untimed wait.
inline constexpr TimePoint kNoDeadline = TimePoint::max();

class ClockCondition;

class Clock {
 public:
  virtual ~Clock() = default;

  virtual TimePoint now() = 0;
  virtual void sleep_for(std::chrono::nanoseconds duration) = 0;

  /// Parks the caller, which holds `lock`, until notify_all(`condition`)
  /// or `deadline` (kNoDeadline: no limit). `lock` is released while parked
  /// and held again on return. May return early; callers re-check their
  /// predicate (ClockCondition::wait_until does).
  virtual void wait_until(std::unique_lock<std::mutex>& lock, ClockCondition& condition,
                          TimePoint deadline);
  /// Wakes every caller parked on `condition`.
  virtual void notify_all(ClockCondition& condition);

  /// --- cooperative-scheduling hooks (no-ops in real time) ------------------
  virtual void announce_thread(const std::string& /*name*/) {}
  virtual void thread_begin(const std::string& /*name*/) {}
  virtual void thread_end() {}
  virtual void join_thread(std::thread& thread) {
    if (thread.joinable()) {
      thread.join();
    }
  }
};

/// Real time: steady_clock, this_thread::sleep_for, condition_variable.
class RealClock final : public Clock {
 public:
  TimePoint now() override { return std::chrono::steady_clock::now(); }
  void sleep_for(std::chrono::nanoseconds duration) override {
    if (duration.count() > 0) {
      std::this_thread::sleep_for(duration);
    }
  }
};

/// The process-global clock (RealClock until overridden).
Clock& global_clock() noexcept;

/// Installs `clock` as the global time source; nullptr restores RealClock.
/// Not thread-safe against concurrent time reads — install before the
/// threads under test start (the DST harness does this around each
/// scenario, on an otherwise quiescent process).
void set_global_clock(Clock* clock) noexcept;

inline TimePoint clock_now() { return global_clock().now(); }

template <typename Rep, typename Period>
inline void clock_sleep(std::chrono::duration<Rep, Period> duration) {
  global_clock().sleep_for(std::chrono::duration_cast<std::chrono::nanoseconds>(duration));
}

/// A condition variable that blocks through the global clock. Use it like
/// std::condition_variable, with the caller's std::mutex guarding the
/// predicate's state; notify after changing that state.
class ClockCondition {
 public:
  /// Waits until `pred()` holds (true) or `deadline` passes (false).
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& lock, TimePoint deadline, Pred pred) {
    while (!pred()) {
      if (clock_now() >= deadline) {
        return false;
      }
      global_clock().wait_until(lock, *this, deadline);
    }
    return true;
  }

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    (void)wait_until(lock, kNoDeadline, pred);
  }

  void notify_all() { global_clock().notify_all(*this); }

 private:
  friend class Clock;
  std::condition_variable cv_;  ///< RealClock's waits and notifies
};

}  // namespace vira::util
