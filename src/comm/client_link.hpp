#pragma once

/// \file client_link.hpp
/// Bidirectional framed message stream between the visualization client and
/// the Viracocha scheduler (the TCP/IP edge of the paper's Figure 2).
///
/// Two implementations share one interface, so the runtime does not care
/// whether the client lives in the same process (tests, examples) or talks
/// real TCP over a socket (tcp_backend_demo): exactly the protocol
/// transparency the paper's layer-1 design prescribes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "comm/message.hpp"
#include "util/compression.hpp"

namespace vira::comm {

/// --- hello / feature negotiation (docs/PROTOCOL.md) -------------------------
///
/// A client that wants per-link features (today: wire compression for large
/// frames) sends kTagHello as its very first message and waits for
/// kTagHelloAck before submitting. Legacy clients skip the exchange and the
/// link speaks the original framing unchanged — negotiation is strictly
/// opt-in, so the wire stays backward compatible.

/// Client → scheduler: WireHello. Must be the first frame on the link.
inline constexpr int kTagHello = 17;
/// Scheduler/frontend → client: WireHello echo with the *granted* features.
inline constexpr int kTagHelloAck = 18;

/// "VIRA" little-endian — rejects accidental cross-protocol connects.
inline constexpr std::uint32_t kWireMagic = 0x41524956u;
inline constexpr std::uint32_t kWireVersion = 1;

/// Feature flag bits (request in hello, granted subset echoed in the ack).
inline constexpr std::uint32_t kFeatureWireCompression = 1u << 0;

/// Payload of kTagHello / kTagHelloAck.
struct WireHello {
  std::uint32_t magic = kWireMagic;
  std::uint32_t version = kWireVersion;
  std::uint32_t features = 0;
  /// Codec of compressed frames. LZ is the only one; the field stays on
  /// the wire and always carries kLz.
  util::Codec codec = util::Codec::kLz;

  void serialize(util::ByteBuffer& out) const;
  static WireHello deserialize(util::ByteBuffer& in);
};

/// Per-link wire options a client asks for when connecting.
struct WireOptions {
  /// Ask for LZ wire compression. Off by default, because it does not pay
  /// on the links we measure: LZ shrinks serialized Engine blocks only to
  /// 0.959 of raw (bench_compression), and on one 4-vCPU host the
  /// 256-client bench_swarm ran at 91-99 ms request p50 with LZ granted
  /// against 25-33 ms with raw frames (results/swarm_frontends/).
  bool compression = false;
  /// Frames below this many payload bytes are never compressed.
  std::size_t compress_threshold = 4096;
  /// How long to wait for the server's kTagHelloAck.
  std::chrono::milliseconds hello_timeout{5000};
};

class ClientLink {
 public:
  virtual ~ClientLink() = default;

  /// Sends one framed message. Thread-safe against itself. Sends on a
  /// closed link are dropped.
  virtual void send(Message msg) = 0;

  /// Receives the next message, blocking up to `timeout`. Returns nullopt
  /// on timeout or when the link is closed and drained. Single consumer.
  virtual std::optional<Message> recv(std::chrono::milliseconds timeout) = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;
};

/// Creates a connected pair of in-process links (A→B and B→A share queues).
std::pair<std::shared_ptr<ClientLink>, std::shared_ptr<ClientLink>> make_inproc_link_pair();

/// Listening TCP socket on localhost; hands out one ClientLink per accepted
/// connection. Port 0 binds an ephemeral port (read back via port()).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection; nullptr on timeout.
  std::unique_ptr<ClientLink> accept(std::chrono::milliseconds timeout);

  /// Wakes a thread blocked in accept() without releasing the descriptor
  /// (safe to call concurrently with accept). Subsequent accepts fail fast.
  void stop();

  /// Releases the descriptor. Only call once no thread is inside accept().
  void close();

 private:
  int fd_ = -1;
  std::atomic<bool> stopped_{false};
  std::uint16_t port_ = 0;
};

/// Connects to a TcpListener; throws std::runtime_error on failure. The
/// link speaks the legacy framing (no hello, no compression).
std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port);

/// Connects and performs the hello/feature negotiation before returning:
/// sends kTagHello, waits for kTagHelloAck and enables wire compression on
/// the link if (and only if) the server granted it. Throws on connect
/// failure or a missing/invalid ack.
std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port,
                                        const WireOptions& options);

}  // namespace vira::comm
