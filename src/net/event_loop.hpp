#pragma once

/// \file event_loop.hpp
/// Epoll edge-triggered client frontend: the server's only TCP frontend.
///
/// One event-loop thread (optionally N, connections sharded round-robin)
/// owns every client socket: non-blocking accept, incremental frame
/// reassembly (comm::FrameParser), and a bounded per-link send queue drained
/// by `sendmsg` scatter/gather — frame headers and payload buffers go to
/// the kernel as separate iovecs straight from the buffers the scheduler
/// handed over, so streamed geometry is never coalesced or copied per send.
///
/// Accepted connections surface as `comm::ClientLink`s (the on_accept
/// callback hands them to `Scheduler::attach_client`), so the scheduler
/// serves TCP clients exactly like in-process ones, with no thread per
/// connection.
///
/// Backpressure policy (DESIGN.md §11): a link whose queued-but-unsent
/// bytes exceed `send_budget_bytes` is marked *slow* (net.slow_links
/// gauge). Past `send_cap_bytes` further frames are dropped outright
/// (net.backpressure_drops) — the kernel buffer plus our budget is all the
/// lag a reader may accumulate. A link that stays slow for
/// `reap_deadline` is closed; the scheduler's closed-link reaping (PR 5)
/// then aborts its in-flight work like any disconnected client. One stuck
/// reader can therefore never wedge the loop or grow memory without bound,
/// and never stalls other links' streams.
///
/// The hello/feature negotiation (comm::kTagHello, docs/PROTOCOL.md) is
/// answered here, per link, without scheduler involvement; a hello that
/// reaches the scheduler is a malformed message. Clients ask for no
/// features by default. A granted kFeatureWireCompression makes the
/// enqueue path LZ-compress frames above the configured threshold
/// (incompressible payloads ship raw).
///
/// Timekeeping: the net frontend always talks real sockets to real
/// clients, so it deliberately uses raw steady_clock instead of the
/// util::clock DST seam — deterministic simulation never instantiates it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "comm/client_link.hpp"

namespace vira::net {

struct NetConfig {
  /// Event-loop threads. 1 is the design point (thousands of links per
  /// thread); >1 shards accepted connections round-robin.
  int threads = 1;
  /// Queued-but-unsent bytes beyond which a link is marked slow.
  std::size_t send_budget_bytes = 4ull << 20;
  /// Hard queue cap; frames beyond it are dropped (0 = unbounded).
  std::size_t send_cap_bytes = 16ull << 20;
  /// A link continuously slow for this long is reaped (closed).
  std::chrono::milliseconds reap_deadline{5000};
  /// Grant wire compression to clients that request it.
  bool allow_compression = true;
  /// Payload bytes below which negotiated links still send raw frames.
  std::size_t compress_threshold = 4096;
};

class EventLoop {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<comm::ClientLink>)>;
  using ReadableHandler = std::function<void()>;

  /// Binds a localhost listener (port 0 = ephemeral; read back via
  /// port()). Throws std::runtime_error on bind failure. Threads start in
  /// start().
  explicit EventLoop(std::uint16_t port, NetConfig config = NetConfig{});
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  std::uint16_t port() const noexcept;

  /// Called from a loop thread with each newly accepted link. Set before
  /// start().
  void set_on_accept(AcceptHandler handler);
  /// Called from a loop thread whenever a link has new inbound messages
  /// (or closed) — the scheduler wakeup hook. Set before start().
  void set_on_readable(ReadableHandler handler);

  void start();
  /// Joins the loop threads and closes every connection. Idempotent.
  /// Existing links turn closed(); late send()s on them are dropped.
  void stop();

  /// --- diagnostics (any thread) -------------------------------------------
  std::size_t connections() const noexcept;
  std::size_t slow_links() const noexcept;
  std::uint64_t reaped() const noexcept;
  std::uint64_t dropped_frames() const noexcept;

  /// Opaque loop state; public only so the internal link type (anonymous
  /// namespace in the .cpp) can hold a pointer to it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace vira::net
