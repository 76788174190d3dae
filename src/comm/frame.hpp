#pragma once

/// \file frame.hpp
/// The TCP wire frame, shared by both endpoints: the blocking
/// `comm::TcpLink` and the `net::EventLoop` frontend.
///
/// Layout: `[i32 source][i32 tag][u64 payload_size][payload]`, native byte
/// order. This module is the single definition of:
///
///  * **The header.** `encode_frame_header` / `decode_frame_header`.
///
///  * **Compressed frames.** Bit 63 of the size field (`kCompressedFlag`)
///    marks a payload that is a `util::compress()` stream (self-describing:
///    codec id + raw size + data). `pack_payload` is the shrink-or-raw rule
///    a compressing sender applies; `unpack_frame` is the receiver's
///    expansion, capped so a small frame cannot claim gigabytes. Legacy
///    links never set the bit, and the 4 GiB payload cap means a legacy
///    receiver treats an unexpected compressed frame as a corrupt header
///    and drops the link — the safe failure mode. The flag is only used
///    after the hello/feature negotiation of docs/PROTOCOL.md.
///
///  * **Incremental parsing.** A `FrameParser` consumes whatever bytes the
///    socket produced — a header split mid-field, a megabyte of payload, ten
///    back-to-back small frames — and emits complete `comm::Message`s as
///    soon as they close. Payload storage is reserved only once the 16-byte
///    header is complete and validated, so a garbage prefix can never make
///    the parser allocate gigabytes.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "util/compression.hpp"

namespace vira::comm {

/// Bytes of the fixed frame prefix: i32 source + i32 tag + u64 size.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Size-field flag bit: the payload is a util::compress() stream.
inline constexpr std::uint64_t kCompressedFlag = 1ull << 63;

/// Largest accepted payload, before and after decompression.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 32;

/// The decoded frame prefix.
struct FrameHeader {
  std::int32_t source = 0;
  std::int32_t tag = 0;
  std::uint64_t payload_size = 0;  ///< flag bit stripped
  bool compressed = false;
};

/// Writes the 16-byte frame prefix for a payload of `payload_size` bytes.
void encode_frame_header(std::byte* out, std::int32_t source, std::int32_t tag,
                         std::uint64_t payload_size, bool compressed);

/// Reads the 16-byte frame prefix at `in`. The caller checks payload_size
/// against its cap before allocating.
FrameHeader decode_frame_header(const std::byte* in);

/// Whole frame (header + payload copy) in one buffer — test/bench helper;
/// the senders write header and payload as separate buffers.
std::vector<std::byte> encode_frame(const Message& msg, bool compressed = false);

/// Shrink-or-raw rule of a compressing sender: replaces `body` with its
/// LZ util::compress() stream only when that is strictly smaller, so an
/// incompressible payload ships raw. Returns true when `body` now holds the
/// stream (the frame must carry kCompressedFlag).
bool pack_payload(util::ByteBuffer& body);

/// The message a complete frame carries. A compressed payload is expanded,
/// refusing one that is undecodable or expands past `max_payload` (checked
/// before allocating); nullopt then, and the stream is unrecoverable.
std::optional<Message> unpack_frame(const FrameHeader& header, std::vector<std::byte> payload,
                                    std::uint64_t max_payload = kMaxFramePayload);

/// Streaming frame reassembler. Feed it raw socket bytes in any chunking;
/// complete messages append to the caller's vector. Once malformed input is
/// detected the parser poisons itself: every later feed() fails too, so a
/// desynchronized stream can never resynchronize onto garbage.
class FrameParser {
 public:
  explicit FrameParser(std::uint64_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Consumes `size` bytes. Returns false on malformed input (oversized or
  /// negative-looking length prefix, undecodable compressed payload, or one
  /// claiming to expand past the payload cap); the stream is then
  /// unrecoverable and the link should be dropped.
  bool feed(const std::byte* data, std::size_t size, std::vector<Message>& out);

  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

  /// True between frames (no partial header or payload buffered) — a clean
  /// EOF point. EOF mid-frame means the peer truncated a message.
  bool at_boundary() const noexcept {
    return !failed_ && header_fill_ == 0 && payload_.empty();
  }

  /// Bytes currently buffered for the in-progress frame (tests).
  std::size_t buffered() const noexcept { return header_fill_ + payload_fill_; }

 private:
  bool fail(std::string reason);
  bool finish_frame(std::vector<Message>& out);

  std::uint64_t max_payload_;
  std::byte header_bytes_[kFrameHeaderBytes];
  std::size_t header_fill_ = 0;
  FrameHeader header_;
  std::vector<std::byte> payload_;
  std::size_t payload_fill_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace vira::comm
