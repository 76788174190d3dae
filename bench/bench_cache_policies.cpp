/// \file bench_cache_policies.cpp
/// Ablation for the paper's Sec. 4.2 claim: "strategies based on frequency,
/// foremost FBR, turned out to produce less cache misses" on CFD request
/// traces. Replays an exploratory-session block-request trace — repeated
/// parameter studies on the current time step, interleaved with occasional
/// time-step advances — through the real BlockCache under LRU / LFU / FBR.

#include <cstdio>

#include "dms/block_cache.hpp"
#include "perf/report.hpp"
#include "perf/testbed.hpp"
#include "util/rng.hpp"

namespace {

using vira::dms::ItemId;

/// Exploratory session over a 23-block dataset: the user re-runs commands
/// on the same step (temporal locality), revisits a favourite region
/// (frequency skew), and sometimes advances time (sequential sweeps of new
/// blocks).
std::vector<ItemId> make_session_trace(int blocks_per_step, int steps, std::uint64_t seed) {
  vira::util::Rng rng(seed);
  std::vector<ItemId> trace;
  const int home_step = 0;  // the step the parameter study focuses on
  auto item = [&](int s, int b) {
    return static_cast<ItemId>(s) * 1000ull + static_cast<ItemId>(b);
  };
  for (int round = 0; round < 160; ++round) {
    const double dice = rng.next_double();
    if (dice < 0.55) {
      // Parameter study: full sweep of the home step (the hot working set
      // "frequently reused as input to different extraction algorithms").
      for (int b = 0; b < blocks_per_step; ++b) {
        trace.push_back(item(home_step, b));
      }
    } else if (dice < 0.80) {
      // Region-of-interest probe on the home step.
      for (int b = 0; b < 6; ++b) {
        trace.push_back(item(home_step, (b * 3) % blocks_per_step));
      }
    } else {
      // Transient time-scrub through another level. Multi-pass commands
      // touch each block several times back to back (field pass, gradient
      // pass, triangulation) — re-references inside the burst are pure
      // short-term locality. LRU is flushed by the sweep; LFU mistakes the
      // burst for popularity; FBR's new-section factoring counts each
      // burst once.
      const int scrub = 1 + static_cast<int>(rng.next_below(steps - 1));
      for (int b = 0; b < blocks_per_step; ++b) {
        for (int touch = 0; touch < 3; ++touch) {
          trace.push_back(item(scrub, b));
        }
      }
    }
  }
  return trace;
}

}  // namespace

int main() {
  using namespace vira;

  perf::print_banner("Ablation (Sec. 4.2)",
                     "Cache replacement policies on a CFD exploration trace",
                     perf::Timing::kWallTime);

  const int blocks = 23;
  const int steps = 8;
  const std::uint64_t block_bytes = 1;  // uniform block size: capacity = block count
  const std::uint64_t capacity = 30;    // ~1.3 steps resident

  double miss_rate_fbr = 1.0;
  double miss_rate_lru = 0.0;
  double miss_rate_lfu = 0.0;

  std::printf("\n%-8s %-12s %-12s %-12s\n", "policy", "requests", "misses", "miss rate");
  for (const std::string policy : {"lru", "lfu", "fbr"}) {
    std::uint64_t misses = 0;
    std::uint64_t requests = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      dms::BlockCache cache(capacity * block_bytes, dms::make_policy(policy));
      for (const auto item : make_session_trace(blocks, steps, seed)) {
        ++requests;
        if (!cache.get(item)) {
          ++misses;
          vira::util::ByteBuffer payload;
          payload.write<std::uint8_t>(1);
          cache.put(item, dms::make_blob(std::move(payload)));
        }
      }
    }
    const double rate = static_cast<double>(misses) / static_cast<double>(requests);
    std::printf("%-8s %-12llu %-12llu %-12.4f\n", policy.c_str(),
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(misses), rate);
    if (policy == "lru") {
      miss_rate_lru = rate;
    } else if (policy == "lfu") {
      miss_rate_lfu = rate;
    } else {
      miss_rate_fbr = rate;
    }
  }

  perf::print_expectation("frequency-based policies, foremost FBR, produce fewer misses");
  const bool ok = miss_rate_fbr < miss_rate_lru && miss_rate_fbr <= miss_rate_lfu + 1e-9;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
