#pragma once

/// \file communicator.hpp
/// Rank/tag message passing with MPI-style semantics (paper layer 1/2 glue).
///
/// One Communicator instance lives on each rank. On top of a Transport it
/// provides:
///   * tagged point-to-point send / blocking receive with ANY_SOURCE /
///     ANY_TAG wildcards and out-of-order matching (the transport's
///     mailbox holds unmatched messages, like MPI's unexpected-message
///     queue),
///   * probe / try_recv for non-blocking progress,
///   * the collectives the Viracocha runtime needs: barrier, broadcast,
///     gather, reduce-sum — implemented with reserved negative tags so they
///     never collide with user traffic.
///
/// Throws TransportClosed from blocking calls when the transport shuts
/// down — the worker loop uses that as its orderly exit path.
///
/// Thread-safety: every call may be made from several threads of the same
/// rank at once (worker loop, heartbeat, peer-transfer service). Matching
/// happens in the mailbox, so each message goes to exactly one receiver
/// whose filter accepts it, and that receiver wakes when it is delivered.

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "comm/message.hpp"
#include "comm/transport.hpp"
#include "util/clock.hpp"

namespace vira::comm {

class TransportClosed : public std::runtime_error {
 public:
  TransportClosed() : std::runtime_error("communicator: transport shut down") {}
};

class Communicator {
 public:
  Communicator(std::shared_ptr<Transport> transport, int rank);

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return transport_->size(); }

  /// --- point to point -----------------------------------------------------
  /// Asynchronous, reliable, FIFO per destination. `tag` must be >= 0
  /// (negative tags are reserved for collectives).
  void send(int dest, int tag, util::ByteBuffer payload);

  /// Blocks until a message matching (source, tag) arrives.
  /// Throws TransportClosed if the transport shuts down while waiting.
  Message recv(int source = kAnySource, int tag = kAnyTag) { return recv(Match{source, tag}); }
  Message recv(const Match& match) {
    return std::move(recv_until(match, util::kNoDeadline).value());
  }

  /// Waits up to `timeout` for a matching message; nullopt on timeout.
  std::optional<Message> try_recv(int source, int tag, std::chrono::milliseconds timeout) {
    return recv_until(Match{source, tag}, util::clock_now() + timeout);
  }
  /// Waits until `deadline` on the injectable clock (util::kNoDeadline: no
  /// limit) for a matching message; nullopt on timeout.
  std::optional<Message> recv_until(const Match& match, util::TimePoint deadline);

  /// Returns (source, tag) of the first queued message without consuming
  /// it, waiting up to `timeout` for one.
  std::optional<std::pair<int, int>> probe(std::chrono::milliseconds timeout =
                                               std::chrono::milliseconds(0));

  /// --- collectives ----------------------------------------------------------
  /// All ranks must call collectives in the same order (MPI rule).
  void barrier();
  /// Root's payload is delivered to every rank (including returned at root).
  util::ByteBuffer broadcast(util::ByteBuffer payload, int root);
  /// Returns size() payloads at root (indexed by rank), empty elsewhere.
  std::vector<util::ByteBuffer> gather(util::ByteBuffer payload, int root);
  /// Sum-reduction of a double at root (returns the partial value elsewhere).
  double reduce_sum(double value, int root);

 private:
  void send_internal(int dest, int tag, util::ByteBuffer payload);

  std::shared_ptr<Transport> transport_;
  int rank_;
};

/// Reserved (negative) tags used by the collectives.
inline constexpr int kTagBarrierArrive = -10;
inline constexpr int kTagBarrierRelease = -11;
inline constexpr int kTagBroadcast = -12;
inline constexpr int kTagGather = -13;
inline constexpr int kTagReduce = -14;

}  // namespace vira::comm
