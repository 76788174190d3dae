/// \file bench_fig6_engine_iso.cpp
/// Figure 6 — Engine, isosurface extraction, total runtime over
/// {1,2,4,8,16} workers for SimpleIso / ViewerIso / IsoDataMan.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto iso = static_cast<float>(perf::density_iso_mid(reader));
  const auto cluster = calibrated_cluster();

  const auto iso_profile = perf::profile_iso(reader, 0, "density", iso, 256);
  const auto viewer_profile = perf::profile_viewer_iso(reader, 0, "density", iso, 256);

  perf::print_banner("Figure 6", "Engine, Isosurface, total runtime [s]",
                     perf::Timing::kVirtualCluster);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("IsoDataMan", iso_profile, cluster, dataman_config));
  series.push_back(sweep_extraction("ViewerIso", viewer_profile, cluster, streaming_config));
  series.push_back(sweep_extraction("SimpleIso", iso_profile, cluster, simple_config));
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "SimpleIso slowest (no DMS); ViewerIso carries streaming+BSP overhead above "
      "IsoDataMan; runtime rises again at 16 workers (comm overhead exceeds profit)");

  // Shape assertions (exit code marks reproduction health).
  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[2].points[r].seconds > series[0].points[r].seconds;  // Simple > DataMan
    ok &= series[1].points[r].seconds >= series[0].points[r].seconds; // Viewer >= DataMan
  }
  // At 16 workers the parallel profit is gone (Fig. 6's up-tick/flattening):
  // SimpleIso sits on its serialized-read floor (16w within 10% of 8w), and
  // IsoDataMan's 8→16 gain is far below the 2x a doubling would ideally buy.
  ok &= series[2].points[4].seconds > series[2].points[3].seconds * 0.9;
  ok &= series[0].points[3].seconds / series[0].points[4].seconds < 1.7;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
