#include "util/compression.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vira::util {

namespace {

constexpr std::size_t kHeaderSize = 1 + 8;

/// Largest raw/payload ratio an LZ stream can produce: a match with its
/// empty literal count (4 bytes) expands to at most 255 bytes.
constexpr std::uint64_t kMaxExpansion = 85;

void write_header(std::byte* out, Codec codec, std::uint64_t raw_size) {
  out[0] = static_cast<std::byte>(codec);
  std::memcpy(out + 1, &raw_size, sizeof(raw_size));
}

/// --- LZ77 ------------------------------------------------------------------
/// Token stream: [literal count u8][literals...] then optionally
/// [match length u8 >= 4][offset u16]; literal count 255 means "255
/// literals and more follow". Window 64 KiB.
///
/// Greedy single-probe matcher: a table maps the hash of the 4 bytes at a
/// position to the last position probed with that hash, and each position
/// checks that one candidate. Matches extend 8 bytes per compare. After
/// every 2^kSkipTrigger probes without a match the probe stride grows by
/// one (LZ4's skip acceleration), so float data, where almost nothing
/// matches, is crossed in a fraction of the probes.

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 255;
constexpr std::size_t kWindow = 65535;
constexpr int kHashLog = 14;
constexpr unsigned kSkipTrigger = 6;

std::uint32_t load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash4(std::uint32_t v) { return (v * 2654435761u) >> (32 - kHashLog); }

/// Length of the common prefix of `a` and `b`, at most `limit` bytes.
std::size_t common_prefix(const std::byte* a, const std::byte* b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                 : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

/// Encodes `input` into `out`, which holds `size` bytes. Returns the
/// payload length, or `size` as soon as the payload would not be smaller
/// than the input (the caller then stores the input raw).
std::size_t lz_compress(const std::byte* input, std::size_t size, std::byte* out) {
  std::byte* op = out;
  const std::byte* const out_end = out + size;
  std::size_t anchor = 0;  // first input byte not yet emitted

  // Emits input[anchor, end) as literal runs — [255][255 literals] while
  // more than 254 remain, then [n][n literals] — followed by a match of
  // `len` bytes at `offset` when len > 0. False if the output would fill.
  auto emit = [&](std::size_t end, std::size_t len, std::size_t offset) {
    std::size_t count = end - anchor;
    const std::size_t need = count + count / 255 + 1 + (len > 0 ? 3 : 0);
    if (need >= static_cast<std::size_t>(out_end - op)) {
      return false;
    }
    while (count >= 255) {
      *op++ = std::byte{255};
      std::memcpy(op, input + anchor, 255);
      op += 255;
      anchor += 255;
      count -= 255;
    }
    *op++ = static_cast<std::byte>(count);
    if (count > 0) {
      std::memcpy(op, input + anchor, count);
      op += count;
    }
    if (len > 0) {
      *op++ = static_cast<std::byte>(len);
      *op++ = static_cast<std::byte>(offset & 0xFF);
      *op++ = static_cast<std::byte>(offset >> 8);
    }
    anchor = end + len;
    return true;
  };

  if (size > kMinMatch) {
    std::vector<std::uint32_t> table(std::size_t{1} << kHashLog);
    const std::size_t last = size - kMinMatch;  // last position a probe may read
    std::size_t ip = 0;
    std::size_t probes = std::size_t{1} << kSkipTrigger;
    while (ip <= last) {
      const std::uint32_t sequence = load32(input + ip);
      std::uint32_t& slot = table[hash4(sequence)];
      const std::size_t candidate = slot;
      slot = static_cast<std::uint32_t>(ip);
      if (candidate < ip && ip - candidate <= kWindow && load32(input + candidate) == sequence) {
        const std::size_t limit = std::min(kMaxMatch, size - ip);
        const std::size_t len =
            kMinMatch + common_prefix(input + candidate + kMinMatch, input + ip + kMinMatch,
                                      limit - kMinMatch);
        if (!emit(ip, len, ip - candidate)) {
          return size;
        }
        ip += len;
        probes = std::size_t{1} << kSkipTrigger;
        // Index a position inside the match so runs chain onto it.
        if (ip - 2 <= last) {
          table[hash4(load32(input + ip - 2))] = static_cast<std::uint32_t>(ip - 2);
        }
        continue;
      }
      // Give up once the literals pending since `anchor` alone would fill
      // the output.
      if (ip - anchor >= static_cast<std::size_t>(out_end - op)) {
        return size;
      }
      ip += probes++ >> kSkipTrigger;
    }
  }
  if (!emit(size, 0, 0)) {
    return size;
  }
  return static_cast<std::size_t>(op - out);
}

bool lz_decompress(const std::byte* input, std::size_t size, std::vector<std::byte>& out,
                   std::size_t expected) {
  std::size_t i = 0;
  while (i < size) {
    // Literal run: chained [255][255 bytes] chunks, then [n][n bytes].
    while (true) {
      if (i >= size) {
        return out.size() == expected;
      }
      const std::size_t count = static_cast<unsigned>(input[i]);
      ++i;
      if (i + count > size || out.size() + count > expected) {
        return false;
      }
      out.insert(out.end(), input + i, input + i + count);
      i += count;
      if (count != 255) {
        break;
      }
    }
    if (i >= size) {
      break;
    }
    // Match.
    const std::size_t len = static_cast<unsigned>(input[i]);
    if (i + 3 > size || len < kMinMatch) {
      return false;
    }
    const std::size_t offset = static_cast<unsigned>(input[i + 1]) |
                               (static_cast<unsigned>(input[i + 2]) << 8);
    i += 3;
    if (offset == 0 || offset > out.size() || out.size() + len > expected) {
      return false;
    }
    const std::size_t start = out.size() - offset;
    for (std::size_t k = 0; k < len; ++k) {
      out.push_back(out[start + k]);  // overlapping copies are well-defined here
    }
  }
  return out.size() == expected;
}

}  // namespace

std::vector<std::byte> compress(const std::byte* input, std::size_t size, Codec codec) {
  std::vector<std::byte> out;
  if (codec == Codec::kLz) {
    // The one allocation: the encoder gives up before its payload reaches
    // `size`, so header + size bytes hold every outcome, the store too.
    out.resize(kHeaderSize + size);
    const std::size_t packed = lz_compress(input, size, out.data() + kHeaderSize);
    if (packed < size) {
      write_header(out.data(), codec, size);
      out.resize(kHeaderSize + packed);
      return out;
    }
  }
  // kStore, or the codec would not shrink the input: store it raw.
  out.resize(kHeaderSize + size);
  write_header(out.data(), Codec::kStore, size);
  if (size > 0) {
    std::memcpy(out.data() + kHeaderSize, input, size);
  }
  return out;
}

std::vector<std::byte> compress(const ByteBuffer& input, Codec codec) {
  return compress(input.data(), input.size(), codec);
}

std::optional<std::vector<std::byte>> decompress(const std::byte* input, std::size_t size,
                                                 std::uint64_t max_raw_size) {
  if (size < kHeaderSize) {
    return std::nullopt;
  }
  const auto codec = static_cast<Codec>(input[0]);
  std::uint64_t raw_size = 0;
  std::memcpy(&raw_size, input + 1, sizeof(raw_size));
  const std::byte* payload = input + kHeaderSize;
  const std::size_t payload_size = size - kHeaderSize;
  // Check the claimed size before allocating for it: a header may claim
  // neither more than the caller accepts nor more than its payload can
  // expand to.
  if (raw_size > max_raw_size || raw_size > payload_size * kMaxExpansion) {
    return std::nullopt;
  }
  std::vector<std::byte> out;
  out.reserve(raw_size);
  switch (codec) {
    case Codec::kStore:
      if (payload_size != raw_size) {
        return std::nullopt;
      }
      out.assign(payload, payload + payload_size);
      return out;
    case Codec::kLz:
      if (!lz_decompress(payload, payload_size, out, raw_size)) {
        return std::nullopt;
      }
      return out;
  }
  return std::nullopt;
}

double compression_ratio(std::size_t raw, std::size_t compressed) {
  return raw > 0 ? static_cast<double>(compressed) / static_cast<double>(raw) : 1.0;
}

}  // namespace vira::util
