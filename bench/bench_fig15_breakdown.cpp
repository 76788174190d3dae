/// \file bench_fig15_breakdown.cpp
/// Figure 15 — "Essential isosurface algorithm components applied to the
/// Engine data set, without (left) and with caching (right)": the
/// compute / read / send percentage split for SimpleIso vs IsoDataMan.
/// Paper: 50/49/1 without caching → 85/5/10 with caching.

#include <iostream>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace {

/// One obs::TimelineReport per replay — the uniform compute/read/send
/// breakdown that replaced this bench's hand-rolled percentage math.
vira::obs::TimelineReport timeline(const vira::perf::ReplayResult& result) {
  return vira::obs::TimelineReport::from_phases({{"compute", result.compute_seconds},
                                                 {"read", result.read_seconds},
                                                 {"send", result.send_seconds}},
                                                result.total_runtime);
}

}  // namespace

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto iso = static_cast<float>(perf::density_iso_mid(reader));
  const auto cluster = calibrated_cluster();
  const auto profile = perf::profile_iso(reader, 0, "density", iso);

  // profile_iso ran the real extraction kernels and published the kernel
  // gauge — carry it onto both breakdown rows.
  auto& registry = obs::Registry::instance();
  const auto cells_per_sec =
      static_cast<double>(registry.gauge("kernel.cells_per_sec").value());

  perf::ReplayConfig simple;
  simple.workers = 1;
  simple.use_dms = false;
  simple.warm_cache = false;
  auto simple_report = timeline(perf::replay_extraction(profile, cluster, simple));
  simple_report.set_kernel(cells_per_sec);

  perf::ReplayConfig dataman;
  dataman.workers = 1;
  dataman.use_dms = true;
  dataman.warm_cache = true;
  auto dataman_report = timeline(perf::replay_extraction(profile, cluster, dataman));
  dataman_report.set_kernel(cells_per_sec);

  perf::print_banner("Figure 15",
                     "Engine isosurface component breakdown, without / with caching",
                     perf::Timing::kVirtualCluster);
  simple_report.print(std::cout, "SimpleIso");
  dataman_report.print(std::cout, "IsoDataMan");
  perf::print_expectation("SimpleIso ≈ 50% compute / 49% read / 1% send; "
                          "IsoDataMan ≈ 85% compute / 5% read / 10% send");

  bool ok = true;
  // read ≈ compute without caching; read collapses with caching.
  ok &= simple_report.share("read") > 0.35 && simple_report.share("read") < 0.65;
  ok &= simple_report.share("compute") > 0.35 && simple_report.share("compute") < 0.65;
  ok &= dataman_report.share("read") < 0.12;
  ok &= dataman_report.share("compute") > 0.7;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
