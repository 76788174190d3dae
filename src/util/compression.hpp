#pragma once

/// \file compression.hpp
/// Lightweight lossless compressor for block payloads and wire frames.
///
/// The paper evaluated compressing blocks before peer transfer and
/// rejected it: "Data compression has been considered, too, but has been
/// found ineffective due to long runtimes and low compression rates
/// compared to transmission time" (Sec. 4.3). To reproduce that *finding*
/// rather than assume it, this module provides a from-scratch greedy LZ77
/// codec, and `bench_compression` measures its ratio and throughput against
/// the modeled interconnects on real serialized CFD blocks.
///
/// The LZ77 encoder is a single-probe greedy matcher in the manner of LZ4:
/// a 2^14-entry u32 table holds, per hash of the 4 bytes at a position, the
/// last position probed with that hash; each probe checks that one
/// candidate, matches extend 8 bytes per compare, and the probe stride
/// grows by one after every 64 misses, so float data with almost no matches
/// is crossed quickly. Output goes into one buffer of header + input size:
/// the encoder gives up as soon as its payload would reach the input size,
/// and compress() then stores the input. The token format
/// ([lit count u8][literals][len u8 >= 4][offset u16], 64 KiB window) is
/// the one the earlier hash-chain encoder wrote, so streams decode either
/// way.
///
/// Format: [u8 codec id][u64 raw size][payload...]; the decoder dispatches
/// on the id, so streams are self-describing. kLz keeps id 2 so streams
/// already on the wire decode; id 1 is unused and rejected like any
/// unknown id.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/byte_buffer.hpp"

namespace vira::util {

enum class Codec : std::uint8_t {
  kStore = 0,  ///< no compression (fallback when expansion would occur)
  kLz = 2,
};

/// Compresses `input` with the requested codec. If the codec would expand
/// the data, the result silently falls back to kStore (the header says so).
std::vector<std::byte> compress(const std::byte* input, std::size_t size, Codec codec);
std::vector<std::byte> compress(const ByteBuffer& input, Codec codec);

/// Default raw-size cap of decompress().
inline constexpr std::uint64_t kMaxDecompressedSize = 1ull << 33;

/// Decompresses a buffer produced by compress(). Returns nullopt on
/// malformed input (never crashes on garbage). A header claiming more than
/// `max_raw_size` bytes, or more than its payload could expand to, is
/// rejected before anything is allocated for it.
std::optional<std::vector<std::byte>> decompress(const std::byte* input, std::size_t size,
                                                 std::uint64_t max_raw_size = kMaxDecompressedSize);

/// Achieved ratio: compressed size / raw size (1.0 = no gain).
double compression_ratio(std::size_t raw, std::size_t compressed);

}  // namespace vira::util
