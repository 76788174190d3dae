/// \file bench_fig7_propfan_iso.cpp
/// Figure 7 — Propfan, isosurface extraction, total runtime over
/// {1,2,4,8,16} workers for SimpleIso / ViewerIso / IsoDataMan.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_propfan();
  grid::DatasetReader reader(perf::propfan_dir());
  const auto iso = static_cast<float>(perf::density_iso_mid(reader));
  const auto cluster = calibrated_cluster();  // same machine model as Fig. 6

  const auto iso_profile = perf::profile_iso(reader, 0, "density", iso, 256);
  const auto viewer_profile = perf::profile_viewer_iso(reader, 0, "density", iso, 256);

  perf::print_banner("Figure 7", "Propfan, Isosurface, total runtime [s]",
                     perf::Timing::kVirtualCluster);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("IsoDataMan", iso_profile, cluster, dataman_config));
  series.push_back(sweep_extraction("ViewerIso", viewer_profile, cluster, streaming_config));
  series.push_back(sweep_extraction("SimpleIso", iso_profile, cluster, simple_config));
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "same ordering as the Engine but an order of magnitude longer (144 blocks, "
      "bigger data): Simple >> streaming >= DataMan");

  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[2].points[r].seconds > series[0].points[r].seconds;
    ok &= series[1].points[r].seconds >= series[0].points[r].seconds;
  }
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
