/// \file bench_shard.cpp
/// Sharded-DMS ablation (DESIGN.md §12): N proxy ranks over one wire, a
/// Zipf(1.0) block mix per rank, three configurations:
///   * central  — the legacy path: every local miss asks the central server
///     for a strategy and pays the (contended) storage read,
///   * sharded  — consistent-hash ownership: a local miss peer-fetches the
///     block from its owner's memory instead of the disk,
///   * sharded+kill — R=2 replication, one owner killed mid-workload: its
///     blocks must re-serve from surviving replicas (dms.replica_promotions)
///     with zero disk respills after the kill.
///
/// The central/sharded comparison runs kRounds times, each round on fresh
/// stacks, and the gate takes the median of the per-round miss-p50 ratios:
/// a smoke round's ~100 misses give a p50 that one slow phase of the
/// peer-service thread can flip.
///
/// Emits BENCH_shard.json (with every round's ratio) and exits non-zero if
/// the shape check fails: the median round's peer-transfer miss p50 must be
/// >= 2x better than the central miss p50 under fan-in, the kill phase must
/// promote at least one replica, and it must not respill from disk.
///
/// `--smoke` shrinks the per-rank request count — the CI smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "dms/data_proxy.hpp"
#include "dms/data_server.hpp"
#include "dms/shard_map.hpp"
#include "perf/report.hpp"
#include "util/timer.hpp"

namespace {

using namespace vira;

constexpr int kRanks = 4;
constexpr int kBlocks = 64;
constexpr int kBlockBytes = 4096;
constexpr int kReadSleepUs = 1500;  ///< simulated storage latency per load
constexpr int kRounds = 11;         ///< central/sharded rounds, fresh stacks each

/// Deterministic in-memory blocks behind a simulated-latency "disk". The
/// sleep is what the sharded path avoids: a peer fetch is a memory copy
/// over the wire, a central miss always pays this.
class SyntheticSource final : public dms::DataSource {
 public:
  util::ByteBuffer load(const dms::DataItemName& name) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kReadSleepUs));
    const auto block = name.params.get_int("block", 0);
    util::ByteBuffer buf;
    for (int i = 0; i < kBlockBytes; ++i) {
      buf.write<std::uint8_t>(static_cast<std::uint8_t>((block * 131 + i) & 0xff));
    }
    return buf;
  }
  std::uint64_t item_bytes(const dms::DataItemName&) const override { return kBlockBytes; }
  std::uint64_t file_bytes(const dms::DataItemName&) const override { return kBlockBytes; }
  std::string file_key(const dms::DataItemName& name) const override { return name.canonical(); }
};

struct Stack {
  std::shared_ptr<dms::DataServer> server = std::make_shared<dms::DataServer>();
  std::shared_ptr<SyntheticSource> source = std::make_shared<SyntheticSource>();
  std::shared_ptr<comm::InProcTransport> transport;
  std::vector<std::unique_ptr<dms::DataProxy>> proxies;

  explicit Stack(bool sharded, int repl = 1) {
    if (sharded) {
      transport = std::make_shared<comm::InProcTransport>(kRanks + 1);
    }
    dms::ShardMap::Config shard_config;
    shard_config.members = kRanks;
    shard_config.replication = repl;
    for (int index = 0; index < kRanks; ++index) {
      dms::DataProxyConfig config;
      config.proxy_id = index;
      config.cache.l1_capacity_bytes = 8 * 1024 * 1024;
      config.cache.policy = "fbr";
      config.async_prefetch = false;
      auto proxy = std::make_unique<dms::DataProxy>(config, server, source);
      if (sharded) {
        proxy->configure_sharding(std::make_shared<dms::ShardMap>(shard_config),
                                  std::make_shared<comm::Communicator>(transport, index + 1),
                                  std::chrono::milliseconds(50));
      }
      proxies.push_back(std::move(proxy));
    }
  }
};

dms::DataItemName block_name(int block) { return dms::block_item("zipf", 0, block); }

/// Zipf(1.0) block sequence, fixed per (seed, count).
std::vector<int> zipf_mix(std::uint64_t seed, int count) {
  std::vector<double> cumulative(kBlocks);
  double mass = 0.0;
  for (int i = 0; i < kBlocks; ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cumulative[static_cast<std::size_t>(i)] = mass;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, mass);
  std::vector<int> mix;
  mix.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    mix.push_back(static_cast<int>(std::lower_bound(cumulative.begin(), cumulative.end(),
                                                    uniform(rng)) -
                                   cumulative.begin()));
  }
  return mix;
}

/// Runs one rank's mix, recording the latency of every measured miss: a
/// request for a block that is neither locally resident nor owned by this
/// rank in `routes`. The same subset in every mode makes the central and
/// sharded numbers directly comparable — these are exactly the requests the
/// sharded path answers with a peer transfer and the central path with a
/// strategy round-trip plus storage read.
std::vector<double> run_rank_mix(dms::DataProxy& proxy, const dms::ShardMap& routes, int rank,
                                 const std::vector<int>& mix) {
  std::vector<double> measured_ms;
  for (const int block : mix) {
    const auto name = block_name(block);
    const auto id = proxy.resolver().resolve(name);
    const bool measure = proxy.cache().peek(id) == nullptr && !routes.is_owner(id, rank);
    util::WallTimer timer;
    (void)proxy.request(name);
    if (measure) {
      measured_ms.push_back(timer.seconds() * 1e3);
    }
  }
  return measured_ms;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// All ranks run their mixes concurrently (the fan-in); returns the pooled
/// measured-miss latencies. Each rank first disk-loads the blocks it owns
/// (the steady state a long-running session converges to), so a measured
/// sharded miss compares a warm peer fetch against a central storage read —
/// not against the one-time cold fill both modes pay identically.
std::vector<double> run_all_ranks(Stack& stack, const dms::ShardMap& routes, int per_rank) {
  std::vector<std::vector<double>> latencies(kRanks);
  std::vector<std::thread> threads;
  std::latch warmed(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      auto& proxy = *stack.proxies[static_cast<std::size_t>(rank)];
      for (int block = 0; block < kBlocks; ++block) {
        const auto name = block_name(block);
        if (routes.is_owner(proxy.resolver().resolve(name), rank)) {
          (void)proxy.request(name);
        }
      }
      warmed.arrive_and_wait();
      const auto mix = zipf_mix(0x5eed0 + static_cast<std::uint64_t>(rank), per_rank);
      latencies[static_cast<std::size_t>(rank)] =
          run_rank_mix(proxy, routes, rank, mix);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<double> pooled;
  for (auto& per : latencies) {
    pooled.insert(pooled.end(), per.begin(), per.end());
  }
  return pooled;
}

struct KillOutcome {
  std::uint64_t replica_promotions = 0;
  std::uint64_t respills_after_kill = 0;
  std::uint64_t peer_fetch_timeouts = 0;
};

/// R=2 failover: the victim rank sweeps every block (seeding both owner
/// replicas via kTagPeerPush), is destroyed, and the survivors then sweep
/// every block themselves. Blocks whose primary died must be served by the
/// surviving replica — from memory, not disk.
KillOutcome run_kill_phase() {
  Stack stack(/*sharded=*/true, /*repl=*/2);
  const int victim = kRanks - 1;

  for (int block = 0; block < kBlocks; ++block) {
    (void)stack.proxies[static_cast<std::size_t>(victim)]->request(block_name(block));
  }
  // Let the one-way pushes drain into the owners' caches before the kill.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::uint64_t respills_before = 0;
  for (int rank = 0; rank < victim; ++rank) {
    respills_before +=
        stack.proxies[static_cast<std::size_t>(rank)]->stats().snapshot().peer_fallback_disk;
  }
  stack.proxies[static_cast<std::size_t>(victim)].reset();  // the kill

  std::vector<std::thread> threads;
  for (int rank = 0; rank < victim; ++rank) {
    threads.emplace_back([&, rank] {
      for (int block = 0; block < kBlocks; ++block) {
        (void)stack.proxies[static_cast<std::size_t>(rank)]->request(block_name(block));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  KillOutcome outcome;
  for (int rank = 0; rank < victim; ++rank) {
    const auto counters = stack.proxies[static_cast<std::size_t>(rank)]->stats().snapshot();
    outcome.replica_promotions += counters.replica_promotions;
    outcome.respills_after_kill += counters.peer_fallback_disk;
    outcome.peer_fetch_timeouts += counters.peer_fetch_timeouts;
  }
  outcome.respills_after_kill -= respills_before;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int per_rank = smoke ? 100 : 300;

  // The reference map mirrors every sharded proxy's own instance (same
  // default seed/vnodes), so "owned by rank r" means the same thing here
  // and inside the proxies.
  dms::ShardMap::Config route_config;
  route_config.members = kRanks;
  route_config.replication = 1;
  const dms::ShardMap routes(route_config);

  std::vector<double> central_ms;
  std::vector<double> sharded_ms;
  std::vector<double> round_speedups;
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_pushes = 0;
  for (int round = 0; round < kRounds; ++round) {
    Stack central(/*sharded=*/false);
    const auto central_round = run_all_ranks(central, routes, per_rank);
    Stack sharded(/*sharded=*/true, /*repl=*/1);
    const auto sharded_round = run_all_ranks(sharded, routes, per_rank);
    for (const auto& proxy : sharded.proxies) {
      peer_fetches += proxy->stats().snapshot().peer_fetches;
      peer_pushes += proxy->stats().snapshot().peer_pushes;
    }
    const double sharded_p50 = percentile(sharded_round, 0.50);
    round_speedups.push_back(sharded_p50 > 0.0 ? percentile(central_round, 0.50) / sharded_p50
                                               : 0.0);
    central_ms.insert(central_ms.end(), central_round.begin(), central_round.end());
    sharded_ms.insert(sharded_ms.end(), sharded_round.begin(), sharded_round.end());
  }

  const auto kill = run_kill_phase();

  const double central_p50 = percentile(central_ms, 0.50);
  const double sharded_p50 = percentile(sharded_ms, 0.50);
  const double speedup = percentile(round_speedups, 0.50);
  const auto rounds_under_2x =
      std::count_if(round_speedups.begin(), round_speedups.end(), [](double r) { return r < 2.0; });
  std::string rounds_json;
  for (const double ratio : round_speedups) {
    char item[32];
    std::snprintf(item, sizeof(item), "%s%.2f", rounds_json.empty() ? "" : ", ", ratio);
    rounds_json += item;
  }

  perf::print_banner("Sharded DMS & peer transfer",
                     "Zipf block mix: central strategy+disk vs consistent-hash peer fetch",
                     perf::Timing::kWallTime);
  std::printf("\n  %-14s %8s %12s %12s\n", "mode", "misses", "p50, ms", "p99, ms");
  std::printf("  %-14s %8zu %12.3f %12.3f\n", "central", central_ms.size(), central_p50,
              percentile(central_ms, 0.99));
  std::printf("  %-14s %8zu %12.3f %12.3f\n", "sharded", sharded_ms.size(), sharded_p50,
              percentile(sharded_ms, 0.99));
  std::printf("\n  miss p50 speedup, median of %d rounds: %.1fx   peer fetches: %llu   "
              "pushes: %llu\n",
              kRounds, speedup, static_cast<unsigned long long>(peer_fetches),
              static_cast<unsigned long long>(peer_pushes));
  std::printf("  per-round speedups: %s (%d under 2x)\n", rounds_json.c_str(),
              static_cast<int>(rounds_under_2x));
  std::printf("  kill phase (R=2): promotions=%llu respills=%llu timeouts=%llu\n",
              static_cast<unsigned long long>(kill.replica_promotions),
              static_cast<unsigned long long>(kill.respills_after_kill),
              static_cast<unsigned long long>(kill.peer_fetch_timeouts));

  std::ofstream out("BENCH_shard.json");
  char body[1024];
  std::snprintf(body, sizeof(body),
                "{\n  \"bench\": \"shard\",\n  \"ranks\": %d,\n  \"blocks\": %d,\n"
                "  \"requests_per_rank\": %d,\n  \"rounds\": %d,\n"
                "  \"central_miss_p50_ms\": %.3f,\n  \"sharded_miss_p50_ms\": %.3f,\n"
                "  \"round_miss_p50_speedups\": [%s],\n  \"rounds_under_2x\": %d,\n"
                "  \"miss_p50_speedup\": %.2f,\n"
                "  \"peer_fetches\": %llu,\n  \"peer_pushes\": %llu,\n"
                "  \"replica_promotions\": %llu,\n  \"respills_after_kill\": %llu\n}\n",
                kRanks, kBlocks, per_rank, kRounds, central_p50, sharded_p50,
                rounds_json.c_str(), static_cast<int>(rounds_under_2x), speedup,
                static_cast<unsigned long long>(peer_fetches),
                static_cast<unsigned long long>(peer_pushes),
                static_cast<unsigned long long>(kill.replica_promotions),
                static_cast<unsigned long long>(kill.respills_after_kill));
  out << body;
  std::printf("  wrote BENCH_shard.json\n");
  perf::print_expectation(
      "median round's peer-fetch miss p50 >= 2x better than central; kill promotes "
      "replicas, zero respills");

  bool ok = true;
  // The claim: a non-owned miss is a wire copy from the owner's memory,
  // not a strategy round-trip plus a storage read. 2x is conservative — the
  // central path sleeps kReadSleepUs under fan-in. Gated on the median
  // round, so one round disturbed by the host's scheduler does not decide
  // it; BENCH_shard.json records every round and how many fell under 2x.
  ok = ok && speedup >= 2.0;
  ok = ok && peer_fetches > 0;
  // Replica failover: a killed owner's blocks re-serve from the surviving
  // replica (dms.replica_promotions), never from disk.
  ok = ok && kill.replica_promotions > 0;
  ok = ok && kill.respills_after_kill == 0;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
