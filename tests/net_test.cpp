/// \file net_test.cpp
/// vira::net frontend tests: incremental frame parser (split / truncation /
/// fuzz properties), epoll event loop round trips, hello negotiation (raw
/// by default, opt-in wire compression), backpressure / slow-link reaping,
/// event-driven scheduler pickup, and the mid-stream disconnect
/// regression.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "comm/client_link.hpp"
#include "comm/frame.hpp"
#include "core/backend.hpp"
#include "core/command.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "test_util.hpp"
#include "util/compression.hpp"
#include "viz/session.hpp"

namespace {

using namespace vira;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// In-test commands
// ---------------------------------------------------------------------------

/// Finishes immediately — measures pure request turnaround.
class QuickCommand final : public core::Command {
 public:
  std::string name() const override { return "net.quick"; }
  void execute(core::CommandContext& context) override {
    if (context.is_master()) {
      context.send_final({});
    }
  }
};

/// Master streams `count` partials of `bytes` each, `ms` apart — a paced
/// fragment stream a client can walk away from mid-flight.
class StreamCommand final : public core::Command {
 public:
  std::string name() const override { return "net.stream"; }
  void execute(core::CommandContext& context) override {
    if (context.is_master()) {
      const auto count = context.params().get_int("count", 10);
      const auto bytes = context.params().get_int("bytes", 1024);
      const auto ms = context.params().get_int("ms", 5);
      for (std::int64_t n = 0; n < count; ++n) {
        util::ByteBuffer fragment;
        fragment.write_raw(std::vector<char>(static_cast<std::size_t>(bytes), 'x').data(),
                           static_cast<std::size_t>(bytes));
        context.stream_partial(std::move(fragment));
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      context.send_final({});
    }
  }
};

struct RegisterNetCommands {
  RegisterNetCommands() {
    core::CommandRegistry::global().register_command(
        "net.quick", [] { return std::make_unique<QuickCommand>(); });
    core::CommandRegistry::global().register_command(
        "net.stream", [] { return std::make_unique<StreamCommand>(); });
  }
};
RegisterNetCommands register_net_commands;  // NOLINT

// ---------------------------------------------------------------------------
// Frame parser helpers
// ---------------------------------------------------------------------------

comm::Message make_message(int source, int tag, std::size_t size, std::uint32_t seed) {
  comm::Message msg;
  msg.source = source;
  msg.tag = tag;
  std::mt19937 rng(seed);
  for (std::size_t n = 0; n < size; ++n) {
    msg.payload.write<std::uint8_t>(static_cast<std::uint8_t>(rng()));
  }
  return msg;
}

void expect_equal(const comm::Message& got, const comm::Message& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.tag, want.tag);
  ASSERT_EQ(got.payload.size(), want.payload.size());
  if (want.payload.size() > 0) {  // empty payloads may have null data()
    EXPECT_EQ(0, std::memcmp(got.payload.data(), want.payload.data(), want.payload.size()));
  }
}

TEST(FrameParserTest, SingleFrameRoundTrip) {
  const auto msg = make_message(3, 11, 257, 42);
  const auto wire = comm::encode_frame(msg);
  comm::FrameParser parser;
  std::vector<comm::Message> out;
  ASSERT_TRUE(parser.feed(wire.data(), wire.size(), out));
  ASSERT_EQ(out.size(), 1u);
  expect_equal(out[0], msg);
  EXPECT_TRUE(parser.at_boundary());
}

TEST(FrameParserTest, EveryByteBoundarySplit) {
  // Three frames — empty payload, small, mid-size — concatenated, then the
  // stream is split at every byte position. Reassembly must be exact at
  // every split (the satellite's property check).
  const std::vector<comm::Message> msgs = {
      make_message(0, 12, 0, 1), make_message(1, 10, 37, 2), make_message(2, 11, 300, 3)};
  std::vector<std::byte> wire;
  for (const auto& msg : msgs) {
    const auto frame = comm::encode_frame(msg);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    comm::FrameParser parser;
    std::vector<comm::Message> out;
    ASSERT_TRUE(parser.feed(wire.data(), split, out));
    ASSERT_TRUE(parser.feed(wire.data() + split, wire.size() - split, out));
    ASSERT_EQ(out.size(), msgs.size()) << "split at " << split;
    for (std::size_t n = 0; n < msgs.size(); ++n) {
      expect_equal(out[n], msgs[n]);
    }
    EXPECT_TRUE(parser.at_boundary());
  }
}

TEST(FrameParserTest, ByteAtATime) {
  const auto msg = make_message(7, 10, 129, 9);
  const auto wire = comm::encode_frame(msg);
  comm::FrameParser parser;
  std::vector<comm::Message> out;
  for (const std::byte b : wire) {
    ASSERT_TRUE(parser.feed(&b, 1, out));
  }
  ASSERT_EQ(out.size(), 1u);
  expect_equal(out[0], msg);
}

TEST(FrameParserTest, OversizedPrefixFailsCleanly) {
  // A length prefix past the cap must poison the parser without a huge
  // allocation — the malformed header alone is enough to fail.
  std::byte header[comm::kFrameHeaderBytes];
  comm::encode_frame_header(header, 0, 1, comm::kMaxFramePayload + 1, false);
  comm::FrameParser parser;
  std::vector<comm::Message> out;
  EXPECT_FALSE(parser.feed(header, sizeof(header), out));
  EXPECT_TRUE(parser.failed());
  EXPECT_FALSE(parser.error().empty());
  EXPECT_TRUE(out.empty());
  // Poisoned: valid frames no longer parse either.
  const auto wire = comm::encode_frame(make_message(0, 1, 8, 4));
  EXPECT_FALSE(parser.feed(wire.data(), wire.size(), out));
}

TEST(FrameParserTest, TruncatedFrameIsNotABoundary) {
  const auto wire = comm::encode_frame(make_message(0, 10, 64, 5));
  comm::FrameParser parser;
  std::vector<comm::Message> out;
  ASSERT_TRUE(parser.feed(wire.data(), wire.size() - 10, out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(parser.at_boundary());  // EOF here = peer truncated a frame
  EXPECT_GT(parser.buffered(), 0u);
}

TEST(FrameParserTest, GarbageCompressedPayloadFails) {
  // Compressed flag set, payload that is not a util::compress() stream.
  comm::Message msg = make_message(0, 10, 93, 6);
  const auto wire = comm::encode_frame(msg, /*compressed=*/true);
  comm::FrameParser parser;
  std::vector<comm::Message> out;
  EXPECT_FALSE(parser.feed(wire.data(), wire.size(), out));
  EXPECT_TRUE(parser.failed());
}

TEST(FrameParserTest, CompressedFrameRoundTrip) {
  // Highly compressible payload, flagged frame carrying the compressed
  // stream: the parser must hand back the raw bytes.
  comm::Message raw;
  raw.source = 0;
  raw.tag = 10;
  for (int n = 0; n < 5000; ++n) {
    raw.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 7));
  }
  const auto packed = util::compress(raw.payload.data(), raw.payload.size(), util::Codec::kLz);
  ASSERT_LT(packed.size(), raw.payload.size());
  comm::Message framed;
  framed.source = raw.source;
  framed.tag = raw.tag;
  framed.payload = util::ByteBuffer(packed);
  const auto wire = comm::encode_frame(framed, /*compressed=*/true);

  comm::FrameParser parser;
  std::vector<comm::Message> out;
  ASSERT_TRUE(parser.feed(wire.data(), wire.size(), out));
  ASSERT_EQ(out.size(), 1u);
  expect_equal(out[0], raw);
}

TEST(FrameParserTest, CompressedFrameExpandingPastCapFails) {
  // Decompression bomb: a ~132 KB LZ frame expanding to 8 MiB must not get
  // past a parser capped at 1 MiB, not even as an allocation.
  const std::vector<std::byte> zeros(8u << 20, std::byte{0});
  const auto packed = util::compress(zeros.data(), zeros.size(), util::Codec::kLz);
  // The packed frame itself is under the cap; only its expansion is not.
  ASSERT_LT(comm::kFrameHeaderBytes + packed.size(), 1u << 20);
  comm::Message framed;
  framed.tag = 10;
  framed.payload = util::ByteBuffer(packed);
  const auto wire = comm::encode_frame(framed, /*compressed=*/true);

  comm::FrameParser parser(1u << 20);
  std::vector<comm::Message> out;
  EXPECT_FALSE(parser.feed(wire.data(), wire.size(), out));
  EXPECT_TRUE(parser.failed());
  EXPECT_TRUE(out.empty());

  // The same frame under a cap that admits 8 MiB decodes.
  comm::FrameParser roomy(8u << 20);
  ASSERT_TRUE(roomy.feed(wire.data(), wire.size(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.size(), zeros.size());
}

TEST(FrameParserTest, RandomChunkFuzz) {
  // Seeded property fuzz: random message trains fed in random chunkings
  // reassemble byte-identically, for several seeds.
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    std::vector<comm::Message> msgs;
    std::vector<std::byte> wire;
    const int count = 1 + static_cast<int>(rng() % 12);
    for (int n = 0; n < count; ++n) {
      msgs.push_back(make_message(static_cast<int>(rng() % 5), 10 + static_cast<int>(rng() % 6),
                                  rng() % 4096, rng()));
      const auto frame = comm::encode_frame(msgs.back());
      wire.insert(wire.end(), frame.begin(), frame.end());
    }
    comm::FrameParser parser;
    std::vector<comm::Message> out;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng() % 1500, wire.size() - offset);
      ASSERT_TRUE(parser.feed(wire.data() + offset, chunk, out));
      offset += chunk;
    }
    ASSERT_EQ(out.size(), msgs.size()) << "seed " << seed;
    for (std::size_t n = 0; n < msgs.size(); ++n) {
      expect_equal(out[n], msgs[n]);
    }
    EXPECT_TRUE(parser.at_boundary());
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// Collects links the loop accepts and lets tests wait for the Nth one.
struct AcceptSink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::shared_ptr<comm::ClientLink>> links;

  void attach(net::EventLoop& loop) {
    loop.set_on_accept([this](std::shared_ptr<comm::ClientLink> link) {
      std::lock_guard<std::mutex> lock(mutex);
      links.push_back(std::move(link));
      cv.notify_all();
    });
  }

  std::shared_ptr<comm::ClientLink> wait_for(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, 5s, [&] { return links.size() > index; })) {
      return nullptr;
    }
    return links[index];
  }
};

TEST(EventLoopTest, LegacyClientRoundTrip) {
  net::EventLoop loop(0);
  AcceptSink sink;
  sink.attach(loop);
  loop.start();

  // Legacy client: no hello, plain framing — must work unchanged.
  auto client = comm::tcp_connect("127.0.0.1", loop.port());
  auto server = sink.wait_for(0);
  ASSERT_NE(server, nullptr);

  const auto request = make_message(-1, core::kTagSubmit, 150, 21);
  comm::Message copy = request;
  client->send(std::move(copy));
  auto got = server->recv(5000ms);
  ASSERT_TRUE(got.has_value());
  expect_equal(*got, request);

  const auto reply = make_message(0, core::kTagFinal, 3000, 22);
  comm::Message reply_copy = reply;
  server->send(std::move(reply_copy));
  auto back = client->recv(5000ms);
  ASSERT_TRUE(back.has_value());
  expect_equal(*back, reply);

  client->close();
  loop.stop();
  EXPECT_EQ(loop.connections(), 0u);
}

TEST(EventLoopTest, NegotiatedCompressionRoundTrip) {
  net::NetConfig config;
  config.compress_threshold = 64;
  net::EventLoop loop(0, config);
  AcceptSink sink;
  sink.attach(loop);
  loop.start();

  const auto compressed_before =
      obs::Registry::instance().counter("net.compressed_bytes").value();

  comm::WireOptions options;
  options.compression = true;
  options.compress_threshold = 64;
  auto client = comm::tcp_connect("127.0.0.1", loop.port(), options);
  auto server = sink.wait_for(0);
  ASSERT_NE(server, nullptr);

  // Server → client: a large compressible frame must arrive byte-identical
  // (compressed on the wire, transparently expanded by the client link).
  comm::Message big;
  big.source = 0;
  big.tag = core::kTagPartial;
  for (int n = 0; n < 100000; ++n) {
    big.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 13));
  }
  comm::Message big_copy = big;
  server->send(std::move(big_copy));
  auto got = client->recv(5000ms);
  ASSERT_TRUE(got.has_value());
  expect_equal(*got, big);
  EXPECT_GT(obs::Registry::instance().counter("net.compressed_bytes").value(),
            compressed_before);

  // Client → server: the negotiated TcpLink compresses too; the loop's
  // parser must expand it before delivery.
  comm::Message up = make_message(-1, core::kTagSubmit, 0, 0);
  for (int n = 0; n < 50000; ++n) {
    up.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 5));
  }
  comm::Message up_copy = up;
  client->send(std::move(up_copy));
  auto received = server->recv(5000ms);
  ASSERT_TRUE(received.has_value());
  expect_equal(*received, up);

  // Incompressible-data bypass: random bytes above the threshold still
  // round-trip (shipped raw behind the scenes).
  const auto noise = make_message(0, core::kTagPartial, 8192, 77);
  comm::Message noise_copy = noise;
  server->send(std::move(noise_copy));
  auto noise_back = client->recv(5000ms);
  ASSERT_TRUE(noise_back.has_value());
  expect_equal(*noise_back, noise);

  client->close();
  loop.stop();
}

TEST(EventLoopTest, CompressSpanNestsUnderSend) {
  // A traced fragment on a compressing link records net.compress, with its
  // byte counts, as a child of the frame's net.send span.
  net::NetConfig config;
  config.compress_threshold = 64;
  net::EventLoop loop(0, config);
  AcceptSink sink;
  sink.attach(loop);
  loop.start();
  comm::WireOptions options;
  options.compression = true;
  options.compress_threshold = 64;
  auto client = comm::tcp_connect("127.0.0.1", loop.port(), options);
  auto server = sink.wait_for(0);
  ASSERT_NE(server, nullptr);

  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  comm::Message traced;
  traced.tag = core::kTagPartial;
  for (int n = 0; n < 20000; ++n) {
    traced.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 11));
  }
  const std::size_t raw_size = traced.payload.size();
  traced.trace_request = 42;
  traced.trace_span = 7;
  server->send(std::move(traced));
  ASSERT_TRUE(client->recv(5000ms).has_value());

  auto find = [](const std::vector<obs::SpanRecord>& spans, const std::string& name) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const obs::SpanRecord& span) { return span.name == name; });
  };
  std::vector<obs::SpanRecord> spans;
  EXPECT_TRUE(vira::test::eventually([&] {
    spans = tracer.snapshot();
    return find(spans, "net.send") != spans.end();
  }));
  tracer.disable();
  tracer.clear();
  const auto send = find(spans, "net.send");
  const auto compress = find(spans, "net.compress");
  ASSERT_NE(send, spans.end());
  ASSERT_NE(compress, spans.end());
  EXPECT_EQ(send->parent_id, 7u);
  EXPECT_EQ(compress->parent_id, send->span_id);
  EXPECT_EQ(compress->request_id, 42u);
  std::map<std::string, std::int64_t> args(compress->args.begin(), compress->args.end());
  EXPECT_EQ(args["raw"], static_cast<std::int64_t>(raw_size));
  EXPECT_GT(args["packed"], 0);
  EXPECT_LT(args["packed"], args["raw"]);

  client->close();
  loop.stop();
}

TEST(EventLoopTest, SlowReaderIsReapedWithoutStallingOthers) {
  net::NetConfig config;
  config.send_budget_bytes = 128 << 10;
  config.send_cap_bytes = 512 << 10;
  config.reap_deadline = 300ms;
  net::EventLoop loop(0, config);
  AcceptSink sink;
  sink.attach(loop);
  loop.start();

  // Slow client: raw socket with a tiny receive window that never reads.
  const int slow_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow_fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(slow_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loop.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  auto slow_server = sink.wait_for(0);
  ASSERT_NE(slow_server, nullptr);

  auto healthy = comm::tcp_connect("127.0.0.1", loop.port());
  auto healthy_server = sink.wait_for(1);
  ASSERT_NE(healthy_server, nullptr);

  // Flood the slow link far past kernel buffers + cap, interleaved with
  // healthy-client round trips that must keep flowing throughout.
  comm::Message flood;
  flood.source = 0;
  flood.tag = core::kTagPartial;
  flood.payload.write_raw(std::vector<char>(128 << 10, '\0').data(), 128 << 10);
  for (int burst = 0; burst < 16; ++burst) {
    for (int n = 0; n < 16; ++n) {
      comm::Message copy = flood;
      slow_server->send(std::move(copy));
    }
    const auto ping = make_message(0, core::kTagProgress, 64, burst);
    comm::Message ping_copy = ping;
    healthy_server->send(std::move(ping_copy));
    auto pong = healthy->recv(5000ms);
    ASSERT_TRUE(pong.has_value()) << "healthy client stalled during burst " << burst;
    expect_equal(*pong, ping);
  }
  EXPECT_GT(loop.dropped_frames(), 0u) << "cap never engaged";

  // The slow link must be reaped within the deadline (plus sweep slack).
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (loop.reaped() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(loop.reaped(), 1u);
  EXPECT_TRUE(slow_server->closed());
  EXPECT_EQ(loop.slow_links(), 0u);

  // Other links keep working after the reap.
  const auto ping = make_message(0, core::kTagProgress, 64, 99);
  comm::Message ping_copy = ping;
  healthy_server->send(std::move(ping_copy));
  auto pong = healthy->recv(5000ms);
  ASSERT_TRUE(pong.has_value());
  expect_equal(*pong, ping);

  ::close(slow_fd);
  healthy->close();
  loop.stop();
}

TEST(EventLoopTest, EventDrivenPickupBeatsTickPolling) {
  // The scheduler's idle poll slice is cranked up to half a second; with
  // tick polling alone every submission would wait out the remainder of
  // that slice (the scheduler sits in its rank-transport try_recv, which a
  // client-link frame does not wake). The event loop's readability nudge
  // must make pickup latency independent of the slice.
  core::BackendConfig config;
  config.workers = 2;
  config.scheduler.idle_poll = 500ms;
  core::Backend backend(config);
  const auto port = backend.serve_tcp(0);
  ASSERT_NE(backend.event_loop(), nullptr);

  viz::ExtractionSession session(
      std::shared_ptr<comm::ClientLink>(comm::tcp_connect("127.0.0.1", port).release()));
  // Let attach settle so the scheduler is past its empty-client idle sleep.
  std::this_thread::sleep_for(100ms);

  util::ParamList params;
  params.set_int("workers", 1);
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    auto stream = session.submit("net.quick", params);
    const auto stats = stream->wait(nullptr, 10000ms);
    const auto elapsed = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    ASSERT_TRUE(stats.success) << stats.error;
    EXPECT_LT(elapsed, 250.0) << "request " << run
                              << " waited out the poll slice — nudge not working";
  }
  session.close();
  backend.shutdown();
}

TEST(EventLoopTest, MidStreamDisconnectDoesNotKillServer) {
  core::BackendConfig config;
  config.workers = 2;
  core::Backend backend(config);
  const auto port = backend.serve_tcp(0);
  ASSERT_NE(backend.event_loop(), nullptr);

  // Client 1 submits a paced stream over a raw link, reads a couple of
  // fragments, then vanishes. The loop must absorb the resulting EPIPE /
  // ECONNRESET on that link (MSG_NOSIGNAL + teardown) — not die.
  {
    auto link = comm::tcp_connect("127.0.0.1", port);
    core::CommandRequest request;
    request.request_id = 1;
    request.command = "net.stream";
    request.params.set_int("workers", 1);
    request.params.set_int("count", 100);
    request.params.set_int("bytes", 32 << 10);
    request.params.set_int("ms", 10);
    comm::Message submit;
    submit.tag = core::kTagSubmit;
    request.serialize(submit.payload);
    link->send(std::move(submit));
    for (int n = 0; n < 2; ++n) {
      auto packet = link->recv(5000ms);
      ASSERT_TRUE(packet.has_value()) << "stream never started";
    }
    link->close();  // abrupt, mid-stream
  }

  // The scheduler eventually reaps the orphaned in-flight request.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (backend.scheduler().total_reaped() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_GE(backend.scheduler().total_reaped(), 1u);

  // Client 2 gets full service from the surviving server.
  viz::ExtractionSession session(
      std::shared_ptr<comm::ClientLink>(comm::tcp_connect("127.0.0.1", port).release()));
  util::ParamList params;
  params.set_int("workers", 1);
  auto stream = session.submit("net.quick", params);
  const auto stats = stream->wait(nullptr, 30000ms);
  EXPECT_TRUE(stats.success) << stats.error;
  session.close();
  backend.shutdown();
}

TEST(EventLoopTest, HelloNegotiationGetsAckWithoutFeatures) {
  net::NetConfig config;
  config.compress_threshold = 64;  // would compress everything if granted
  net::EventLoop loop(0, config);
  AcceptSink sink;
  sink.attach(loop);
  loop.start();

  // The hello a default-WireOptions client sends is acked with no features
  // and the one codec id, kLz.
  {
    auto link = comm::tcp_connect("127.0.0.1", loop.port());
    comm::WireHello hello;
    hello.features = comm::WireOptions{}.compression ? comm::kFeatureWireCompression : 0u;
    comm::Message msg;
    msg.tag = comm::kTagHello;
    hello.serialize(msg.payload);
    link->send(std::move(msg));
    auto reply = link->recv(5000ms);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->tag, comm::kTagHelloAck);
    const auto ack = comm::WireHello::deserialize(reply->payload);
    EXPECT_EQ(ack.magic, comm::kWireMagic);
    EXPECT_EQ(ack.features, 0u);
    EXPECT_EQ(ack.codec, util::Codec::kLz);
    link->close();
  }

  // A default-WireOptions client round-trips compressible frames in both
  // directions, and every byte travels raw.
  comm::WireOptions options;
  options.compress_threshold = 64;
  auto client = comm::tcp_connect("127.0.0.1", loop.port(), options);
  auto server = sink.wait_for(1);
  ASSERT_NE(server, nullptr);
  auto& compressed = obs::Registry::instance().counter("net.compressed_bytes");
  auto& received = obs::Registry::instance().counter("net.bytes_received");
  const auto compressed_before = compressed.value();

  comm::Message down;
  down.tag = core::kTagPartial;
  for (int n = 0; n < 100000; ++n) {
    down.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 13));
  }
  comm::Message down_copy = down;
  server->send(std::move(down_copy));
  auto got = client->recv(5000ms);
  ASSERT_TRUE(got.has_value());
  expect_equal(*got, down);
  EXPECT_EQ(compressed.value(), compressed_before);

  const auto received_before = received.value();
  comm::Message up = make_message(-1, core::kTagSubmit, 0, 0);
  for (int n = 0; n < 50000; ++n) {
    up.payload.write<std::uint8_t>(static_cast<std::uint8_t>(n % 5));
  }
  comm::Message up_copy = up;
  client->send(std::move(up_copy));
  auto delivered = server->recv(5000ms);
  ASSERT_TRUE(delivered.has_value());
  expect_equal(*delivered, up);
  EXPECT_GE(received.value() - received_before, comm::kFrameHeaderBytes + up.payload.size());

  client->close();
  loop.stop();
}

}  // namespace
