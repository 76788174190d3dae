#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "grid/structured_block.hpp"
#include "grid/synthetic.hpp"
#include "util/compression.hpp"
#include "util/rng.hpp"

namespace vu = vira::util;

namespace {

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

void expect_roundtrip(const std::vector<std::byte>& raw, vu::Codec codec) {
  const auto compressed = vu::compress(raw.data(), raw.size(), codec);
  const auto restored = vu::decompress(compressed.data(), compressed.size());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, raw);
}

std::vector<std::byte> random_bytes(vira::util::Rng& rng, std::size_t size) {
  std::vector<std::byte> out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  }
  return out;
}

/// A serialized 12^3 block sampling a Lamb-Oseen vortex.
std::vector<std::byte> lamb_oseen_block() {
  vira::grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  vira::grid::StructuredBlock block(12, 12, 12);
  for (int k = 0; k < 12; ++k) {
    for (int j = 0; j < 12; ++j) {
      for (int i = 0; i < 12; ++i) {
        block.set_point(i, j, k, {i / 11.0, j / 11.0, k / 11.0});
      }
    }
  }
  vira::grid::sample_fields(block, vortex, 0.0);
  vu::ByteBuffer buffer;
  block.serialize(buffer);
  return {buffer.bytes().begin(), buffer.bytes().end()};
}

/// One step of a hand-assembled LZ stream: a literal run, then a match of
/// `match_len` bytes (none when 0) reaching `offset` bytes back.
struct LzStep {
  std::vector<std::byte> literals;
  std::size_t match_len = 0;
  std::size_t offset = 0;
};

/// Writes `steps` in the LZ token format by the format's own rules and
/// expands them naively into `expected`.
std::vector<std::byte> assemble_lz(const std::vector<LzStep>& steps,
                                   std::vector<std::byte>& expected) {
  std::vector<std::byte> payload;
  for (const auto& step : steps) {
    std::size_t done = 0;
    while (step.literals.size() - done >= 255) {
      payload.push_back(std::byte{255});
      payload.insert(payload.end(), step.literals.begin() + done,
                     step.literals.begin() + done + 255);
      done += 255;
    }
    payload.push_back(static_cast<std::byte>(step.literals.size() - done));
    payload.insert(payload.end(), step.literals.begin() + done, step.literals.end());
    expected.insert(expected.end(), step.literals.begin(), step.literals.end());
    if (step.match_len > 0) {
      payload.push_back(static_cast<std::byte>(step.match_len));
      payload.push_back(static_cast<std::byte>(step.offset & 0xFF));
      payload.push_back(static_cast<std::byte>(step.offset >> 8));
      for (std::size_t k = 0; k < step.match_len; ++k) {
        expected.push_back(expected[expected.size() - step.offset]);
      }
    }
  }
  std::vector<std::byte> stream(9);  // [u8 codec id][u64 raw size]
  stream[0] = static_cast<std::byte>(vu::Codec::kLz);
  const std::uint64_t raw_size = expected.size();
  std::memcpy(stream.data() + 1, &raw_size, sizeof(raw_size));
  stream.insert(stream.end(), payload.begin(), payload.end());
  return stream;
}

}  // namespace

class CompressionRoundTrip : public ::testing::TestWithParam<vu::Codec> {};

TEST_P(CompressionRoundTrip, EmptyInput) { expect_roundtrip({}, GetParam()); }

TEST_P(CompressionRoundTrip, ShortText) {
  expect_roundtrip(bytes_of("viracocha"), GetParam());
}

TEST_P(CompressionRoundTrip, HighlyRepetitive) {
  std::vector<std::byte> raw(10000, std::byte{0x42});
  expect_roundtrip(raw, GetParam());
  const auto compressed = vu::compress(raw.data(), raw.size(), GetParam());
  if (GetParam() != vu::Codec::kStore) {
    EXPECT_LT(compressed.size(), raw.size() / 10);
  }
}

TEST_P(CompressionRoundTrip, EscapeByteRuns) {
  // 0xFF runs of 1..6 bytes straddle LZ's 4-byte minimum match.
  std::vector<std::byte> raw;
  for (int run = 1; run <= 6; ++run) {
    raw.insert(raw.end(), static_cast<std::size_t>(run), std::byte{0xFF});
    raw.push_back(std::byte{0x00});
  }
  expect_roundtrip(raw, GetParam());
}

TEST_P(CompressionRoundTrip, RandomBytesDoNotExplode) {
  vira::util::Rng rng(7);
  std::vector<std::byte> raw(50000);
  for (auto& b : raw) {
    b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  }
  expect_roundtrip(raw, GetParam());
  // Incompressible input falls back to store: header overhead only.
  const auto compressed = vu::compress(raw.data(), raw.size(), GetParam());
  EXPECT_LE(compressed.size(), raw.size() + 16);
}

TEST_P(CompressionRoundTrip, PeriodicPattern) {
  std::vector<std::byte> raw;
  for (int n = 0; n < 5000; ++n) {
    raw.push_back(static_cast<std::byte>(n % 7));
  }
  expect_roundtrip(raw, GetParam());
}

TEST_P(CompressionRoundTrip, RealCfdBlockPayload) {
  expect_roundtrip(lamb_oseen_block(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressionRoundTrip,
                         ::testing::Values(vu::Codec::kStore, vu::Codec::kLz),
                         [](const auto& info) {
                           return info.param == vu::Codec::kStore ? "store" : "lz";
                         });

TEST(Compression, GarbageInputRejectedSafely) {
  vira::util::Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> garbage(rng.next_below(200));
    for (auto& b : garbage) {
      b = static_cast<std::byte>(rng.next_u64() & 0xFF);
    }
    // Must never crash; may legitimately decode if it looks like a store
    // frame, but usually returns nullopt.
    (void)vu::decompress(garbage.data(), garbage.size());
  }
  SUCCEED();
}

TEST(Compression, TruncatedStreamRejected) {
  std::vector<std::byte> raw(1000, std::byte{7});
  auto compressed = vu::compress(raw.data(), raw.size(), vu::Codec::kLz);
  ASSERT_EQ(static_cast<vu::Codec>(compressed[0]), vu::Codec::kLz);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(vu::decompress(compressed.data(), compressed.size()).has_value());
}

TEST(Compression, RetiredCodecIdRejected) {
  // Id 1 named an RLE codec that no longer exists; its streams must not
  // decode as anything else.
  std::vector<std::byte> raw(1000, std::byte{7});
  for (const auto codec : {vu::Codec::kStore, vu::Codec::kLz}) {
    auto stream = vu::compress(raw.data(), raw.size(), codec);
    ASSERT_TRUE(vu::decompress(stream.data(), stream.size()).has_value());
    stream[0] = std::byte{1};
    EXPECT_FALSE(vu::decompress(stream.data(), stream.size()).has_value());
  }
}

TEST(Compression, LzShrinksCfdBlockBelowRatioFloor) {
  // An encoder that stores everything (or finds almost nothing) fails here.
  const auto raw = lamb_oseen_block();
  const auto lz = vu::compress(raw.data(), raw.size(), vu::Codec::kLz);
  EXPECT_EQ(static_cast<vu::Codec>(lz[0]), vu::Codec::kLz);
  EXPECT_LE(vu::compression_ratio(raw.size(), lz.size()), 0.4);
}

TEST(Compression, GoldenStreamFromHashChainEncoderDecodes) {
  // Written by the earlier hash-chain LZ encoder (chain depth 32); peers
  // still running it send streams like this one.
  const std::string text =
      "vortex core, vortex core, vortex core; lambda2 < 0 inside the vortex core" +
      std::string(40, 'z');
  const std::vector<std::uint8_t> golden = {
      0x02, 0x71, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x76, 0x6f,
      0x72, 0x74, 0x65, 0x78, 0x20, 0x63, 0x6f, 0x72, 0x65, 0x2c, 0x20, 0x18,
      0x0d, 0x00, 0x18, 0x3b, 0x20, 0x6c, 0x61, 0x6d, 0x62, 0x64, 0x61, 0x32,
      0x20, 0x3c, 0x20, 0x30, 0x20, 0x69, 0x6e, 0x73, 0x69, 0x64, 0x65, 0x20,
      0x74, 0x68, 0x65, 0x0c, 0x24, 0x00, 0x01, 0x7a, 0x27, 0x01, 0x00, 0x00};
  std::vector<std::byte> stream(golden.size());
  std::memcpy(stream.data(), golden.data(), golden.size());
  const auto restored = vu::decompress(stream.data(), stream.size());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, bytes_of(text));
}

TEST(Compression, LzTokenBoundariesDecode) {
  // Literal runs around the 255 chunk size, the shortest and longest
  // matches, and the farthest offset, each assembled by hand.
  vira::util::Rng rng(11);
  for (const std::size_t run : {254u, 255u, 256u, 510u}) {
    std::vector<std::byte> expected;
    const auto stream =
        assemble_lz({{random_bytes(rng, run), 4, 1}, {random_bytes(rng, 3), 255, run}}, expected);
    const auto restored = vu::decompress(stream.data(), stream.size());
    ASSERT_TRUE(restored.has_value()) << "literal run " << run;
    EXPECT_EQ(*restored, expected);
  }
  std::vector<std::byte> expected;
  const auto stream = assemble_lz({{random_bytes(rng, 65535), 255, 65535}}, expected);
  const auto restored = vu::decompress(stream.data(), stream.size());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, expected);
}

TEST(Compression, LzSeededBoundaryRoundTrips) {
  vira::util::Rng rng(23);
  std::vector<std::vector<std::byte>> inputs;
  // Incompressible runs of these lengths ahead of a repeat of their first
  // bytes: the literal run before the first match ends near a 255-byte
  // chunk edge (where exactly depends on the probe stride).
  for (const std::size_t run : {254u, 255u, 256u, 510u}) {
    auto raw = random_bytes(rng, run);
    raw.insert(raw.end(), raw.begin(), raw.begin() + 64);
    inputs.push_back(raw);
  }
  // A match of exactly 4 bytes in a stream that compresses, and runs long
  // enough for 255-byte matches.
  inputs.push_back(bytes_of("abcdXabcdY" + std::string(300, 'z')));
  inputs.push_back(std::vector<std::byte>(1000, std::byte{0x42}));
  // A repeat exactly at the window edge (offset 65535) and one byte past it
  // (offset 65536, which the 16-bit offset field cannot carry).
  for (const std::size_t distance : {65535u, 65536u}) {
    auto raw = random_bytes(rng, distance);
    raw.insert(raw.end(), raw.begin(), raw.begin() + 1024);
    const auto packed = vu::compress(raw.data(), raw.size(), vu::Codec::kLz);
    // Only the repeat within the window can be matched.
    EXPECT_EQ(static_cast<vu::Codec>(packed[0]),
              distance == 65535u ? vu::Codec::kLz : vu::Codec::kStore);
    inputs.push_back(raw);
  }
  // Sizes from 0 to 300 KB, low-entropy bytes with sparse noise.
  for (const std::size_t size : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 4096u, 65536u, 65537u, 300000u}) {
    std::vector<std::byte> raw(size);
    for (std::size_t i = 0; i < size; ++i) {
      raw[i] = static_cast<std::byte>(rng.next_below(8) == 0 ? rng.next_u64() & 0xFF : i % 97 & 0xF);
    }
    inputs.push_back(raw);
  }
  for (const auto& raw : inputs) {
    SCOPED_TRACE(raw.size());
    expect_roundtrip(raw, vu::Codec::kLz);
  }
}

TEST(Compression, DecompressRejectsOversizedRawSizeBeforeAllocating) {
  std::vector<std::byte> raw(1 << 16, std::byte{0});
  const auto packed = vu::compress(raw.data(), raw.size(), vu::Codec::kLz);
  ASSERT_EQ(static_cast<vu::Codec>(packed[0]), vu::Codec::kLz);
  EXPECT_TRUE(vu::decompress(packed.data(), packed.size(), raw.size()).has_value());
  EXPECT_FALSE(vu::decompress(packed.data(), packed.size(), raw.size() - 1).has_value());

  // A header claiming more than 85x its payload cannot be honest.
  auto forged = vu::compress(raw.data(), 64, vu::Codec::kLz);
  const std::uint64_t claimed = 1ull << 32;
  std::memcpy(forged.data() + 1, &claimed, sizeof(claimed));
  EXPECT_FALSE(vu::decompress(forged.data(), forged.size()).has_value());
}

TEST(Compression, RatioHelper) {
  EXPECT_DOUBLE_EQ(vu::compression_ratio(100, 50), 0.5);
  EXPECT_DOUBLE_EQ(vu::compression_ratio(0, 50), 1.0);
}
