#pragma once

/// \file dst_fuzz.hpp
/// Scenario fuzzer for the DST harness: seed → Scenario generation, batch
/// execution with determinism cross-checks, and greedy shrinking of failing
/// scenarios to a minimal reproduction.
///
/// Every generated scenario is a pure function of its seed, and every
/// scenario run is deterministic (see dst_clock.hpp), so a failure report
/// is fully described by one integer — re-running the seed replays the
/// identical trajectory. The shrinker exploits the same property: each
/// candidate simplification is re-run and kept only if the violation
/// persists, converging on a scenario where every remaining element is
/// load-bearing.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/dst_harness.hpp"

namespace vira::sim {

/// Deterministic scenario generation: same seed, same scenario. Generated
/// scenarios are liveness-safe by construction (e.g. a lossy transport is
/// always paired with a whole-attempt request timeout), so every oracle
/// violation they produce is a real bug, not a configured-to-hang setup.
Scenario generate_scenario(std::uint64_t seed);

/// One shrink step's outcome.
struct ShrinkResult {
  Scenario minimal;        ///< smallest still-violating scenario found
  ScenarioResult failure;  ///< its run result (violations non-empty)
  int attempts = 0;        ///< candidate scenarios executed
  int accepted = 0;        ///< simplifications that kept the violation
};

/// Greedily minimizes a failing scenario: repeatedly tries dropping
/// requests and kills, zeroing fault rates, and simplifying workload /
/// stack knobs, accepting any change that still violates an oracle, until
/// a fixpoint (or `max_attempts` runs). The input must itself fail.
ShrinkResult shrink_scenario(const Scenario& scenario, int max_attempts = 160);

struct FuzzOptions {
  std::uint64_t first_seed = 1;
  int count = 200;
  /// Re-run every Nth scenario and require an identical trajectory hash
  /// (0 = no determinism cross-check).
  int verify_every = 0;
  bool shrink_failures = true;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::vector<std::string> violations;
  std::string scenario;  ///< original (replayable) scenario string
  std::string shrunk;    ///< minimal still-failing scenario (if shrunk)
};

struct FuzzReport {
  int scenarios_run = 0;
  int determinism_checks = 0;
  std::uint64_t total_transport_events = 0;
  std::uint64_t total_context_switches = 0;  ///< VirtualClock token hand-offs
  std::vector<FuzzFailure> failures;
  /// Seeds whose re-run produced a different trajectory hash — a bug in
  /// the DST machinery itself (or a nondeterministic product code path).
  std::vector<std::uint64_t> nondeterministic_seeds;

  bool ok() const { return failures.empty() && nondeterministic_seeds.empty(); }
};

/// Runs `count` generated scenarios starting at `first_seed`.
FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace vira::sim
