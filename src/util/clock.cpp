#include "util/clock.hpp"

#include <atomic>

namespace vira::util {

namespace {
RealClock& real_clock() noexcept {
  static RealClock instance;
  return instance;
}

std::atomic<Clock*>& global_slot() noexcept {
  static std::atomic<Clock*> slot{nullptr};
  return slot;
}
}  // namespace

void Clock::wait_until(std::unique_lock<std::mutex>& lock, ClockCondition& condition,
                       TimePoint deadline) {
  if (deadline == kNoDeadline) {
    condition.cv_.wait(lock);
  } else {
    condition.cv_.wait_until(lock, deadline);
  }
}

void Clock::notify_all(ClockCondition& condition) { condition.cv_.notify_all(); }

Clock& global_clock() noexcept {
  Clock* installed = global_slot().load(std::memory_order_acquire);
  return installed != nullptr ? *installed : real_clock();
}

void set_global_clock(Clock* clock) noexcept {
  global_slot().store(clock, std::memory_order_release);
}

}  // namespace vira::util
