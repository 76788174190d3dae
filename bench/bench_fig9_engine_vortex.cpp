/// \file bench_fig9_engine_vortex.cpp
/// Figure 9 — Engine, λ2 vortex extraction, total runtime for
/// SimpleVortex / StreamedVortex / VortexDataMan.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto threshold = static_cast<float>(perf::lambda2_threshold(reader));
  const auto cluster = calibrated_cluster();

  const auto profile = perf::profile_vortex(reader, 0, threshold, 256);

  perf::print_banner("Figure 9", "Engine, Lambda-2, total runtime [s]",
                     perf::Timing::kVirtualCluster);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("VortexDataMan", profile, cluster, dataman_config));
  series.push_back(sweep_extraction("StreamedVortex", profile, cluster, streaming_config));
  series.push_back(sweep_extraction("SimpleVortex", profile, cluster, simple_config));
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "runtimes significantly higher than isosurface extraction; absence of data "
      "management costs as much as in the iso case; streaming overhead is relatively "
      "small against the heavy λ2 computation");

  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[2].points[r].seconds > series[0].points[r].seconds;  // Simple > DataMan
    // Streamed ≈ DataMan for the λ2 command: "the additional time overhead
    // ... is relatively small compared to the overall computational cost".
    ok &= series[1].points[r].seconds >= series[0].points[r].seconds * 0.97;
  }
  // Streaming overhead (relative) smaller than in the iso case: streamed /
  // dataman at 1 worker close to 1, and visibly above it (it is a cost).
  const double overhead = series[1].points[0].seconds / series[0].points[0].seconds;
  ok &= overhead >= 1.0 && overhead < 1.3;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
