/// \file bench_cache_capacity.cpp
/// Ablation for the classification's *space requirement* axis (paper
/// Fig. 1: "Reducing Main Memory Consumption / Out of Core Schemes") and
/// the two-tier design of Sec. 4.2: how does the primary-cache budget
/// change the hit rate of an exploration session, and how much does the
/// secondary (disk) tier recover once main memory is too small?
///
/// Replays a realistic session (repeated parameter studies + time scrubs)
/// through the real TwoTierCache at several L1 budgets, with and without
/// the L2 tier.

#include <cstdio>
#include <filesystem>

#include "dms/two_tier_cache.hpp"
#include "perf/report.hpp"
#include "perf/testbed.hpp"
#include "util/rng.hpp"

namespace {

using vira::dms::ItemId;

/// Session trace over a 23-block × 8-step dataset (same structure as
/// bench_cache_policies but fixed policy, varying capacity).
std::vector<ItemId> make_trace(std::uint64_t seed) {
  vira::util::Rng rng(seed);
  std::vector<ItemId> trace;
  for (int round = 0; round < 120; ++round) {
    const double dice = rng.next_double();
    const int step = dice < 0.7 ? 0 : 1 + static_cast<int>(rng.next_below(7));
    for (int b = 0; b < 23; ++b) {
      trace.push_back(static_cast<ItemId>(step) * 1000 + static_cast<ItemId>(b));
    }
  }
  return trace;
}

struct Outcome {
  double hit_rate = 0.0;
  std::uint64_t l2_hits = 0;
};

Outcome run(double l1_step_fraction, bool with_l2, const std::string& tag) {
  const std::uint64_t block_bytes = 1000;
  vira::dms::TwoTierCache::Config config;
  config.l1_capacity_bytes =
      static_cast<std::uint64_t>(l1_step_fraction * 23.0 * block_bytes);
  config.policy = "fbr";
  if (with_l2) {
    config.l2_directory =
        (std::filesystem::temp_directory_path() / ("vira_capacity_" + tag)).string();
    config.l2_capacity_bytes = 23ull * 8ull * block_bytes;  // the whole dataset fits on disk
  }
  auto stats = std::make_shared<vira::dms::DmsStatistics>();
  vira::dms::TwoTierCache cache(config, stats);

  for (const auto item : make_trace(11)) {
    if (!cache.get(item)) {
      vira::util::ByteBuffer payload;
      std::string pad(block_bytes - 8, 'x');
      payload.write<std::uint64_t>(item);
      payload.write_raw(pad.data(), pad.size());
      cache.put(item, vira::dms::make_blob(std::move(payload)));
    }
  }
  const auto counters = stats->snapshot();
  return {counters.hit_rate(), counters.l2_hits};
}

}  // namespace

int main() {
  using namespace vira;

  perf::print_banner("Ablation (Fig. 1 / Sec. 4.2)",
                     "Primary-cache budget vs hit rate; secondary-tier recovery",
                     perf::Timing::kWallTime);

  std::printf("\n  %-22s %-16s %-16s %-12s\n", "L1 budget (steps)", "hit rate (L1)",
              "hit rate (L1+L2)", "L2 hits");
  bool ok = true;
  double previous_rate = -1.0;
  for (const double fraction : {0.25, 0.5, 1.0, 1.5, 3.0}) {
    const auto mem_only = run(fraction, false, "m" + std::to_string(int(fraction * 100)));
    const auto two_tier = run(fraction, true, "t" + std::to_string(int(fraction * 100)));
    std::printf("  %-22.2f %-16.3f %-16.3f %-12llu\n", fraction, mem_only.hit_rate,
                two_tier.hit_rate, static_cast<unsigned long long>(two_tier.l2_hits));
    ok &= two_tier.hit_rate >= mem_only.hit_rate - 1e-9;
    ok &= mem_only.hit_rate >= previous_rate - 0.02;  // monotone-ish in budget
    previous_rate = mem_only.hit_rate;
  }

  perf::print_expectation(
      "more main memory, fewer misses (the paper's speed/memory trade-off); the "
      "optional secondary cache on local drives recovers hits lost to small L1 budgets");
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
