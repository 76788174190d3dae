// vira-dst: deterministic-simulation-test runner (DESIGN.md "Testing
// strategy"). Runs the real scheduler/worker/DMS stack under virtual time
// against seeded scenarios and checks the invariant oracles.
//
// Modes:
//   vira-dst --seeds A:B [--verify-every K]   fuzz a seed range
//   vira-dst --seed N                         run one generated scenario
//   vira-dst --scenario "STR"                 replay a scenario string
//   vira-dst --shrink-demo                    prove the shrinker works on a
//                                             deliberately broken config
//   vira-dst --seed N --trace-out FILE        export a Chrome trace of a run
//
// Exit status: 0 = every scenario passed all oracles, 1 = violations or
// nondeterminism, 2 = bad usage.

#include <cstdint>
#include <iostream>
#include <string>

#include "obs/tracer.hpp"
#include "sim/dst_fuzz.hpp"
#include "sim/dst_harness.hpp"
#include "util/log.hpp"

namespace {

void print_result(const vira::sim::Scenario& scenario, const vira::sim::ScenarioResult& result) {
  std::cout << "scenario: " << scenario.to_string() << "\n"
            << "  trajectory_hash=" << std::hex << result.trajectory_hash << std::dec
            << " transport_events=" << result.transport_events
            << " context_switches=" << result.context_switches
            << " virtual_ms=" << result.virtual_end_ns / 1000000 << "\n"
            << "  completed=" << result.completed << " succeeded=" << result.succeeded
            << " failed=" << result.failed << " degraded=" << result.degraded
            << " fragments=" << result.fragments << " killed=" << result.ranks_killed << "\n"
            << "  faults: forwarded=" << result.faults.forwarded
            << " dropped=" << result.faults.dropped << " duplicated=" << result.faults.duplicated
            << " delayed=" << result.faults.delayed
            << " suppressed_dead=" << result.faults.suppressed_dead << "\n";
  for (const auto& violation : result.violations) {
    std::cout << "  VIOLATION: " << violation << "\n";
  }
}

int run_one(const vira::sim::Scenario& scenario, const std::string& trace_out) {
  std::cout << "running: " << scenario.to_string() << std::endl;
  if (!trace_out.empty()) {
    vira::obs::Tracer::instance().enable();
  }
  const auto result = vira::sim::run_scenario(scenario);
  print_result(scenario, result);
  if (!trace_out.empty()) {
    vira::obs::Tracer::instance().disable();
    if (!vira::obs::write_chrome_trace_file(trace_out)) {
      std::cerr << "vira-dst: cannot write trace to " << trace_out << "\n";
      return 1;
    }
    std::cout << "  trace written to " << trace_out << "\n";
  }
  return result.ok() ? 0 : 1;
}

int run_range(std::uint64_t first, std::uint64_t last, int verify_every) {
  vira::sim::FuzzOptions options;
  options.first_seed = first;
  options.count = static_cast<int>(last - first + 1);
  options.verify_every = verify_every;
  const auto report = vira::sim::run_fuzz(options);
  std::cout << "vira-dst: " << report.scenarios_run << " scenarios (seeds " << first << ".."
            << last << "), " << report.determinism_checks << " determinism checks, "
            << report.total_transport_events << " transport events, "
            << report.total_context_switches << " context switches\n";
  for (const auto& failure : report.failures) {
    std::cout << "FAILURE seed=" << failure.seed << "\n  scenario: " << failure.scenario << "\n";
    for (const auto& violation : failure.violations) {
      std::cout << "  violation: " << violation << "\n";
    }
    if (!failure.shrunk.empty()) {
      std::cout << "  shrunk: " << failure.shrunk << "\n";
    }
    std::cout << "  replay: vira-dst --seed " << failure.seed << "\n";
  }
  for (const auto seed : report.nondeterministic_seeds) {
    std::cout << "NONDETERMINISTIC seed=" << seed << " (trajectory hash changed on replay)\n";
  }
  if (report.ok()) {
    std::cout << "all oracles passed\n";
  }
  return report.ok() ? 0 : 1;
}

// The acceptance demo for the shrinker: disable the scheduler's fragment
// dedup on a duplicating transport, let the exactly-once oracle fire, and
// shrink the failure to a minimal reproduction.
int run_shrink_demo() {
  vira::sim::Scenario scenario = vira::sim::generate_scenario(7);
  scenario.fragment_dedup = false;
  scenario.duplicate_rate = 0.35;
  scenario.drop_rate = 0.0;
  scenario.request_timeout_ms = 0;
  // A couple of chatty requests so duplicates have fragments to hit.
  scenario.requests.clear();
  for (int i = 0; i < 3; ++i) {
    vira::sim::DstRequest r;
    r.partials = 4;
    r.payload = 64;
    r.dms_items = 2;
    r.barrier = i == 1;
    r.submit_at_ms = i * 20;
    scenario.requests.push_back(r);
  }

  const auto first = vira::sim::run_scenario(scenario);
  std::cout << "shrink-demo: deliberate violation (fragment_dedup=0, duplicate_rate=0.35)\n";
  print_result(scenario, first);
  if (first.ok()) {
    std::cout << "shrink-demo: expected an exactly-once violation, got none\n";
    return 1;
  }

  const auto shrunk = vira::sim::shrink_scenario(scenario);
  std::cout << "shrink-demo: " << shrunk.attempts << " attempts, " << shrunk.accepted
            << " simplifications accepted\n"
            << "minimal scenario: " << shrunk.minimal.to_string() << "\n";
  for (const auto& violation : shrunk.failure.violations) {
    std::cout << "  still violates: " << violation << "\n";
  }
  std::cout << "replay: vira-dst --scenario '" << shrunk.minimal.to_string() << "'\n";

  // The demo passes when the shrinker (a) kept the violation, (b) actually
  // simplified, and (c) produced a replayable string.
  const auto reparsed = vira::sim::Scenario::parse(shrunk.minimal.to_string());
  if (shrunk.failure.ok() || shrunk.accepted == 0 || !reparsed) {
    std::cout << "shrink-demo: FAILED\n";
    return 1;
  }
  const auto replay = vira::sim::run_scenario(*reparsed);
  if (replay.ok() || replay.trajectory_hash != shrunk.failure.trajectory_hash) {
    std::cout << "shrink-demo: FAILED (replay of minimal scenario diverged)\n";
    return 1;
  }
  std::cout << "shrink-demo: OK (minimal scenario replays the violation bit-identically)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fault scenarios are *supposed* to log rivers of warnings; keep stdout
  // for the verdicts.
  vira::util::Logger::instance().set_level(vira::util::LogLevel::kError);

  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t first = 1;
  std::uint64_t last = 0;
  bool have_range = false;
  int verify_every = 0;
  std::string scenario_text;
  std::string trace_out;
  bool shrink_demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "vira-dst: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seeds") {
      const std::string range = value();
      const auto colon = range.find(':');
      if (colon == std::string::npos) {
        std::cerr << "vira-dst: --seeds wants A:B\n";
        return 2;
      }
      first = std::stoull(range.substr(0, colon));
      last = std::stoull(range.substr(colon + 1));
      have_range = true;
    } else if (arg == "--verify-every") {
      verify_every = std::stoi(value());
    } else if (arg == "--scenario") {
      scenario_text = value();
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--shrink-demo") {
      shrink_demo = true;
    } else if (arg == "--log") {
      // 0=trace .. 4=error; fault scenarios are loud below 4.
      vira::util::Logger::instance().set_level(
          static_cast<vira::util::LogLevel>(std::stoi(value())));
    } else {
      std::cerr << "vira-dst: unknown argument " << arg << "\n";
      return 2;
    }
  }

  if (shrink_demo) {
    return run_shrink_demo();
  }
  if (!scenario_text.empty()) {
    const auto scenario = vira::sim::Scenario::parse(scenario_text);
    if (!scenario) {
      std::cerr << "vira-dst: cannot parse scenario string\n";
      return 2;
    }
    return run_one(*scenario, trace_out);
  }
  if (have_seed) {
    return run_one(vira::sim::generate_scenario(seed), trace_out);
  }
  if (have_range && last >= first) {
    return run_range(first, last, verify_every);
  }
  std::cerr << "usage: vira-dst --seeds A:B [--verify-every K] | --seed N [--trace-out F] | "
               "--scenario STR | --shrink-demo\n";
  return 2;
}
