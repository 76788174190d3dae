/// \file bench_loading_strategies.cpp
/// Ablation for Sec. 4.3: the fitness function's adaptive strategy
/// selection across environment regimes — fast/slow interconnect, peer
/// availability, concurrent readers, parallel vs plain file system.
/// Reproduces the paper's findings that peer transfer only pays on fast
/// networks and that collective I/O "is of limited use" without a parallel
/// file system.

#include <cstdio>

#include "dms/loading.hpp"
#include "perf/report.hpp"

int main() {
  using namespace vira;
  using dms::LoadEnvironment;
  using dms::LoadRequestInfo;
  using dms::StrategyKind;

  perf::print_banner("Ablation (Sec. 4.3)", "Adaptive loading-strategy selection",
                     perf::Timing::kWallTime);

  dms::FitnessSelector selector;

  struct Scenario {
    const char* name;
    LoadEnvironment env;
    LoadRequestInfo request;
    StrategyKind expected;
  };

  auto base_request = [] {
    LoadRequestInfo request;
    request.item_bytes = 2ull << 20;
    request.file_bytes = 46ull << 20;
    return request;
  };

  std::vector<Scenario> scenarios;
  {
    Scenario s{"cold start, nobody has the item", {}, base_request(),
               StrategyKind::kDirectDisk};
    scenarios.push_back(s);
  }
  {
    Scenario s{"peer holds item, fast interconnect", {}, base_request(),
               StrategyKind::kPeerTransfer};
    s.env.peer_bandwidth = 800e6;
    s.request.peer_has_item = true;
    scenarios.push_back(s);
  }
  {
    Scenario s{"peer holds item, ISDN-class network", {}, base_request(),
               StrategyKind::kDirectDisk};
    s.env.peer_bandwidth = 1e6;
    s.request.peer_has_item = true;
    scenarios.push_back(s);
  }
  {
    Scenario s{"8 readers on same file, plain FS", {}, base_request(),
               StrategyKind::kDirectDisk};
    s.request.concurrent_same_file = 8;
    scenarios.push_back(s);
  }
  {
    Scenario s{"8 readers on same file, parallel FS", {}, base_request(),
               StrategyKind::kCollectiveIo};
    s.env.parallel_fs = true;
    s.request.concurrent_same_file = 8;
    scenarios.push_back(s);
  }
  {
    Scenario s{"degraded file server (low bw, high lat)", {}, base_request(),
               StrategyKind::kPeerTransfer};
    s.env.disk_bandwidth = 5e6;
    s.env.disk_latency = 0.05;
    s.request.peer_has_item = true;
    scenarios.push_back(s);
  }

  std::printf("\n%-44s %-16s %-16s %s\n", "scenario", "chosen", "expected", "scores");
  bool ok = true;
  for (const auto& scenario : scenarios) {
    const auto chosen = selector.choose(scenario.env, scenario.request);
    const auto scored = selector.score(scenario.env, scenario.request);
    std::printf("%-44s %-16s %-16s ", scenario.name, dms::to_string(chosen).c_str(),
                dms::to_string(scenario.expected).c_str());
    for (const auto& s : scored) {
      std::printf("%s=%.2f ", s.name.c_str(), s.fitness);
    }
    std::printf("\n");
    ok &= chosen == scenario.expected;
  }

  perf::print_expectation(
      "adaptive selection reacts to environment changes; peer transfer needs a fast "
      "network; collective I/O needs a parallel file system to win");
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
