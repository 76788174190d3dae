/// \file bench_fig10_propfan_vortex.cpp
/// Figure 10 — Propfan, λ2 vortex extraction, total runtime for
/// SimpleVortex / StreamedVortex / VortexDataMan.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_propfan();
  grid::DatasetReader reader(perf::propfan_dir());
  const auto threshold = static_cast<float>(perf::lambda2_threshold(reader));
  const auto cluster = calibrated_cluster();

  const auto profile = perf::profile_vortex(reader, 0, threshold, 256);

  perf::print_banner("Figure 10", "Propfan, Lambda-2, total runtime [s]",
                     perf::Timing::kVirtualCluster);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("VortexDataMan", profile, cluster, dataman_config));
  series.push_back(sweep_extraction("StreamedVortex", profile, cluster, streaming_config));
  series.push_back(sweep_extraction("SimpleVortex", profile, cluster, simple_config));
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "longest runtimes of all commands (up to ~900 s at 1 worker in the paper); "
      "Simple >> streamed >= DataMan at every worker count");

  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[2].points[r].seconds > series[0].points[r].seconds;
    ok &= series[1].points[r].seconds >= series[0].points[r].seconds * 0.97;
  }
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
