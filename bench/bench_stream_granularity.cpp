/// \file bench_stream_granularity.cpp
/// Ablation for the streaming design choice the paper leaves to the user:
/// "Whenever a user-specified number of triangles is computed, these
/// fragments ... are directly streamed" (Sec. 6.3) and "it is therefore
/// important to find a good compromise between low latency and
/// interactivity requirements" (Sec. 5.2).
///
/// Sweeps the fragment granularity (active cells per streamed fragment)
/// for the Engine ViewerIso command and reports first-result latency vs
/// total-runtime overhead: small fragments minimize latency but flood the
/// client link; large fragments approach the non-streamed behaviour.

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto iso = static_cast<float>(perf::density_iso_mid(reader));
  const auto cluster = calibrated_cluster();

  perf::print_banner("Ablation (Sec. 5.2 / 6.3)",
                     "Streaming fragment granularity: latency vs overhead (Engine, 4 workers)",
                     perf::Timing::kVirtualCluster);

  // Non-streamed reference.
  const auto reference_profile = perf::profile_iso(reader, 0, "density", iso, 0);
  perf::ReplayConfig reference_config;
  reference_config.workers = 4;
  const auto reference = perf::replay_extraction(reference_profile, cluster, reference_config);

  std::printf("\n  %-14s %-12s %-12s %-14s %-10s\n", "cells/frag", "latency[s]", "runtime[s]",
              "overhead[%]", "fragments");
  std::printf("  %-14s %-12.3f %-12.3f %-14s %-10s\n", "(no stream)", reference.latency,
              reference.total_runtime, "-", "1");

  // Profile ONCE (at the finest granularity) and derive the coarser
  // fragment counts from the measured active-cell counts — re-profiling per
  // sweep point would let host timing noise into the comparison.
  const int finest = 16;
  const auto base_profile = perf::profile_viewer_iso(reader, 0, "density", iso, finest);

  double latency_small = 0.0;
  double latency_large = 0.0;
  double overhead_small = 0.0;
  double overhead_large = 0.0;
  const int granularities[] = {16, 64, 256, 1024, 4096};
  for (const int cells : granularities) {
    auto profile = base_profile;
    for (auto& block : profile.blocks) {
      if (block.stream_fragments > 0) {
        const auto active_estimate =
            static_cast<std::int64_t>(block.stream_fragments) * finest;
        block.stream_fragments =
            static_cast<int>(std::max<std::int64_t>(1, active_estimate / cells));
      }
    }
    perf::ReplayConfig config;
    config.workers = 4;
    config.streaming = true;
    const auto result = perf::replay_extraction(profile, cluster, config);
    const double overhead =
        100.0 * (result.total_runtime - reference.total_runtime) / reference.total_runtime;
    std::printf("  %-14d %-12.3f %-12.3f %-14.1f %-10llu\n", cells, result.latency,
                result.total_runtime, overhead,
                static_cast<unsigned long long>(result.fragments));
    if (cells == granularities[0]) {
      latency_small = result.latency;
      overhead_small = overhead;
    }
    if (cells == granularities[4]) {
      latency_large = result.latency;
      overhead_large = overhead;
    }
  }

  perf::print_expectation(
      "finer fragments -> lower latency but higher total-runtime overhead; the "
      "compromise is workload-dependent, which is why it is a user parameter");

  const bool ok = latency_small <= latency_large + 1e-9 && overhead_small >= overhead_large;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
