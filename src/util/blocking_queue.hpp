#pragma once

/// \file blocking_queue.hpp
/// Unbounded MPMC blocking queue with close semantics and matched pops.
///
/// Used as the rank mailbox of the in-process transport (pop_until takes the
/// first message a receive's filter accepts), as the client-side stream of
/// partial results and as the DMS prefetch queue. Waits go through
/// util::ClockCondition. pop() blocks until an item is available or the
/// queue is closed; a closed, drained queue returns std::nullopt, which
/// consumers treat as end-of-stream.

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>

#include "util/clock.hpp"

namespace vira::util {

template <typename T>
class BlockingQueue {
 public:
  /// Returns false if the queue is already closed (item is dropped).
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_all();
    return true;
  }

  /// Removes and returns the first item `match` accepts, waiting until
  /// `deadline` (kNoDeadline: no limit) for one to arrive. nullopt on
  /// timeout, or once the queue is closed with no accepted item left.
  template <typename Match>
  std::optional<T> pop_until(Match match, TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto found = items_.end();
    (void)ready_.wait_until(lock, deadline, [&] {
      found = std::find_if(items_.begin(), items_.end(), match);
      return found != items_.end() || closed_;
    });
    if (found == items_.end()) {
      return std::nullopt;
    }
    T item = std::move(*found);
    items_.erase(found);
    return item;
  }

  /// A copy of the front item, left in place; waits until `deadline` for
  /// one. nullopt on timeout or closed-and-drained.
  std::optional<T> peek_until(TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait_until(lock, deadline, [&] { return !items_.empty() || closed_; });
    return items_.empty() ? std::nullopt : std::optional<T>(items_.front());
  }

  /// Blocks until an item arrives or the queue is closed and drained.
  std::optional<T> pop() { return pop_until(any, kNoDeadline); }

  /// Like pop() but gives up after `timeout`; returns nullopt on timeout
  /// or on closed-and-drained.
  std::optional<T> pop_for(std::chrono::milliseconds timeout) {
    return pop_until(any, clock_now() + timeout);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() { return pop_until(any, TimePoint::min()); }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  static bool any(const T&) { return true; }

  mutable std::mutex mutex_;
  ClockCondition ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vira::util
