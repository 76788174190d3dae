#pragma once

/// \file dst_transport.hpp
/// Virtual-time rank transport for deterministic simulation testing.
///
/// Implements comm::Transport on top of sim::VirtualClock: mailboxes and
/// blocked receivers live under the machine lock, receive timeouts are
/// virtual deadlines, and delayed deliveries are virtual timers — so the
/// *real* scheduler/worker/DMS code runs against it unmodified while the
/// whole message schedule is a deterministic function of the seed.
///
/// Faults are decided by the same comm::FaultSchedule that
/// comm::FaultInjectingTransport uses, so a fault schedule that reproduces
/// a bug here translates directly to the real-time fault harness; only the
/// delivery differs (virtual timers instead of a delay thread). Rank kills
/// are part of the scenario: scheduled at construction as virtual timers
/// instead of being invoked from outside.
///
/// Every delivery/drop/kill event folds into an FNV-1a trajectory hash
/// (virtual time, source, dest, tag, payload bytes). Two runs of the same
/// scenario must produce the same hash — the fuzzer's determinism check.

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "comm/fault_transport.hpp"
#include "comm/transport.hpp"
#include "sim/dst_clock.hpp"

namespace vira::sim {

class VirtualTransport final : public comm::Transport {
 public:
  struct Config {
    int size = 2;
    comm::FaultInjectionConfig faults;  ///< seed + drop/duplicate/delay rates
    /// (virtual time, rank) crash schedule; suppression is bidirectional
    /// and irreversible, as in FaultInjectingTransport::kill_rank.
    std::vector<std::pair<std::chrono::milliseconds, int>> kills;
  };

  VirtualTransport(std::shared_ptr<VirtualClock> clock, Config config);

  int size() const override { return config_.size; }
  void send(int dest, comm::Message msg) override;
  std::optional<comm::Message> recv(int self, const comm::Match& match,
                                    util::TimePoint deadline) override;
  std::optional<std::pair<int, int>> probe(int self, util::TimePoint deadline) override;
  void shutdown() override;
  bool is_shut_down() const override;

  comm::FaultInjectionStats stats() const;
  std::size_t dead_count() const;

  /// FNV-1a over all transport events so far. Read at a quiescent point
  /// (driver holding the token) for a stable per-scenario value.
  std::uint64_t trajectory_hash() const;
  std::uint64_t event_count() const;

 private:
  void deliver_locked(int dest, comm::Message msg);
  void record_locked(char kind, int a, int b, int tag, const util::ByteBuffer& payload);
  /// Parks the caller on `self`'s mailbox until a delivery, shutdown or
  /// `deadline`; false (without parking) once shut down or past `deadline`.
  bool park_locked(std::unique_lock<std::mutex>& lock, int self, util::TimePoint deadline);

  std::shared_ptr<VirtualClock> clock_;
  Config config_;

  /// All state below is guarded by the clock's machine lock.
  comm::FaultSchedule schedule_;
  std::vector<std::deque<comm::Message>> mailboxes_;
  /// Per rank: a delivery or the shutdown happened. Receivers of a rank
  /// park on it and re-check their filter when notified.
  std::unique_ptr<util::ClockCondition[]> arrived_;
  bool down_ = false;
  std::uint64_t hash_ = 14695981039346656037ull;  ///< FNV-1a offset basis
  std::uint64_t events_ = 0;
};

}  // namespace vira::sim
