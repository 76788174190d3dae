#include "sim/dst_fuzz.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace vira::sim {

Scenario generate_scenario(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5ce9a6c0de7ull);
  Scenario s;
  s.seed = seed;
  s.requests.clear();
  s.workers = 1 + static_cast<int>(rng.next_below(4));

  // Stack configuration.
  static const char* kPolicies[] = {"lru", "lfu", "fbr"};
  s.policy = kPolicies[rng.next_below(3)];
  s.item_bytes = rng.next_below(2) == 0 ? 512 : 1024;
  s.item_count = 16 + static_cast<int>(rng.next_below(17));
  // Keep L1 at >= 4 items so the workload churns the cache without
  // degenerating into oversize-put edge cases.
  s.l1_bytes = static_cast<std::uint64_t>(s.item_bytes) * (4 + rng.next_below(13));
  s.l2 = rng.next_below(3) == 0;
  s.l2_bytes = s.l1_bytes * 4;
  s.prefetcher = rng.next_below(3) == 0 ? "null" : "obl";
  s.async_prefetch = rng.next_below(2) == 0;
  // Pipelined executor: roughly half the scenarios route their DMS loads
  // through the async task-pool window (exercising request_async, the
  // in-flight bound and cancellation-on-abort); the rest stay serial.
  if (rng.next_below(2) == 0) {
    s.pipeline_threads = 1 + static_cast<int>(rng.next_below(2));
    s.pipeline_window = 1 + static_cast<int>(rng.next_below(4));
  }

  // Fault schedule. Liveness rule: a lossy transport (drops) needs the
  // whole-attempt watchdog, because dropped group-internal collective
  // traffic is invisible to heartbeat-based detection.
  if (rng.next_below(2) == 0) {
    s.drop_rate = 0.01 + 0.14 * rng.next_double();
  }
  if (rng.next_below(2) == 0) {
    s.duplicate_rate = 0.01 + 0.14 * rng.next_double();
  }
  if (rng.next_below(2) == 0) {
    s.delay_rate = 0.05 + 0.25 * rng.next_double();
    s.max_delay_ms = 1 + static_cast<int>(rng.next_below(8));
  }
  if (s.drop_rate > 0.0) {
    s.request_timeout_ms = 300 + static_cast<int>(rng.next_below(301));
  }
  if (s.workers >= 2 && rng.next_below(3) == 0) {
    const int when = 50 + static_cast<int>(rng.next_below(351));
    const int victim = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.workers)));
    s.kills.emplace_back(when, victim);
  }

  // Scheduler / worker policy.
  s.heartbeat_ms = 15 + static_cast<int>(rng.next_below(16));
  s.death_ms = 100 + static_cast<int>(rng.next_below(101));
  s.idle_grace_ms = 30 + static_cast<int>(rng.next_below(31));
  s.max_retries = 2 + static_cast<int>(rng.next_below(3));
  s.backoff_ms = 2 + static_cast<int>(rng.next_below(9));

  // QoS: a third of the scenarios run two clients (molding + backfilling
  // light up), a quarter run the seed FIFO discipline, a quarter bound the
  // per-client queue so admission rejections happen under bursts.
  s.clients = rng.next_below(3) == 0 ? 2 : 1;
  s.qos_fair = rng.next_below(4) != 0;
  s.head_bypass = 2 + static_cast<int>(rng.next_below(7));
  if (rng.next_below(4) == 0) {
    s.max_queue = 1 + static_cast<int>(rng.next_below(4));
  }

  // Workload mix.
  const int request_count = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < request_count; ++i) {
    DstRequest r;
    r.width = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.workers) + 1));
    const int effective = r.width > 0 ? r.width : s.workers;
    r.partials = 1 + static_cast<int>(rng.next_below(4));
    r.payload = 16 + static_cast<int>(rng.next_below(113));
    r.dms_items = static_cast<int>(rng.next_below(7));
    r.first_item = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.item_count)));
    r.barrier = rng.next_below(3) == 0;
    if (rng.next_below(4) == 0) {
      r.fail_rank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(effective)));
    }
    r.submit_at_ms = static_cast<int>(rng.next_below(101));
    r.item_sleep_us = static_cast<int>(rng.next_below(2001));
    r.client = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.clients)));
    if (rng.next_below(5) == 0) {
      // Cancels land anywhere from "still queued" to "mid-flight"; the
      // terminal oracle requires an answer either way.
      r.cancel_at_ms = r.submit_at_ms + static_cast<int>(rng.next_below(120));
    }
    s.requests.push_back(r);
  }

  // Result cache: a third of the scenarios memoize. Duplicate an earlier
  // request at a later submit time so warm hits actually occur (the key is
  // content-addressed — only an identical workload can hit), and
  // occasionally bump the dataset version mid-run so invalidation and the
  // no-stale oracle light up. Drawn after everything above so the
  // pre-existing part of a seed's scenario is unchanged.
  if (rng.next_below(3) == 0) {
    s.result_cache_kb = 16 + static_cast<int>(rng.next_below(49));
    const int repeats = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < repeats; ++i) {
      DstRequest dup = s.requests[rng.next_below(s.requests.size())];
      // Only clean successes are memoized, so strip the failure/cancel
      // injections to make the duplicate actually hit-eligible.
      dup.fail_rank = -1;
      dup.cancel_at_ms = -1;
      dup.submit_at_ms = 150 + static_cast<int>(rng.next_below(251));
      s.requests.push_back(dup);
    }
    if (rng.next_below(3) == 0) {
      s.bumps.push_back(100 + static_cast<int>(rng.next_below(201)));
    }
  }

  // Sharded DMS: a third of the multi-worker scenarios route their DMS
  // traffic over the shard map (peer fetches, pushes, replica failover when
  // a kill lands on an owner). Drawn after everything above so every
  // pre-shard seed keeps its exact scenario.
  if (s.workers >= 2 && rng.next_below(3) == 0) {
    s.shards = s.workers;
    s.repl = 1 + static_cast<int>(rng.next_below(2));
  }
  return s;
}

namespace {

bool violates(const Scenario& s, ScenarioResult& out) {
  out = run_scenario(s);
  return !out.ok();
}

/// Applies one round of every simplification pass. Returns true if any
/// candidate was accepted (so the caller loops to a fixpoint).
bool shrink_round(Scenario& best, ScenarioResult& failure, int max_attempts, int& attempts,
                  int& accepted) {
  bool improved = false;
  auto consider = [&](const Scenario& candidate) {
    if (attempts >= max_attempts) {
      return;
    }
    ++attempts;
    ScenarioResult result;
    if (violates(candidate, result)) {
      best = candidate;
      failure = std::move(result);
      ++accepted;
      improved = true;
    }
  };

  // Structural passes first: dropping whole requests / kills removes the
  // most complexity per run.
  for (std::size_t i = 0; best.requests.size() > 1 && i < best.requests.size(); ++i) {
    Scenario candidate = best;
    candidate.requests.erase(candidate.requests.begin() + static_cast<std::ptrdiff_t>(i));
    consider(candidate);
  }
  for (std::size_t i = 0; i < best.kills.size(); ++i) {
    Scenario candidate = best;
    candidate.kills.erase(candidate.kills.begin() + static_cast<std::ptrdiff_t>(i));
    consider(candidate);
  }

  // Fault-rate passes.
  for (double Scenario::*rate :
       {&Scenario::drop_rate, &Scenario::duplicate_rate, &Scenario::delay_rate}) {
    if (best.*rate > 0.0) {
      Scenario candidate = best;
      candidate.*rate = 0.0;
      consider(candidate);
    }
  }

  // Per-request workload passes.
  for (std::size_t i = 0; i < best.requests.size(); ++i) {
    const DstRequest& r = best.requests[i];
    auto with = [&](auto mutate) {
      Scenario candidate = best;
      mutate(candidate.requests[i]);
      consider(candidate);
    };
    if (r.partials > 1) {
      with([](DstRequest& q) { q.partials = std::max(1, q.partials / 2); });
    }
    if (r.dms_items > 0) {
      with([](DstRequest& q) { q.dms_items = 0; });
    }
    if (r.payload > 16) {
      with([](DstRequest& q) { q.payload = 16; });
    }
    if (r.barrier) {
      with([](DstRequest& q) { q.barrier = false; });
    }
    if (r.fail_rank >= 0) {
      with([](DstRequest& q) { q.fail_rank = -1; });
    }
    if (r.submit_at_ms > 0) {
      with([](DstRequest& q) { q.submit_at_ms = 0; });
    }
    if (r.item_sleep_us > 0) {
      with([](DstRequest& q) { q.item_sleep_us = 0; });
    }
    if (r.width > 1) {
      with([](DstRequest& q) { q.width = 1; });
    }
    if (r.cancel_at_ms >= 0) {
      with([](DstRequest& q) { q.cancel_at_ms = -1; });
    }
    if (r.client > 0) {
      with([](DstRequest& q) { q.client = 0; });
    }
  }

  // Stack simplification passes.
  if (best.clients > 1) {
    Scenario candidate = best;
    candidate.clients = 1;
    for (auto& request : candidate.requests) {
      request.client = 0;
    }
    consider(candidate);
  }
  if (best.max_queue > 0) {
    Scenario candidate = best;
    candidate.max_queue = 0;
    consider(candidate);
  }
  if (!best.qos_fair) {
    // Move toward the default discipline; a failure specific to kFifo
    // survives this pass (the candidate passes and is not accepted).
    Scenario candidate = best;
    candidate.qos_fair = true;
    consider(candidate);
  }
  if (best.pipeline_window > 0 || best.pipeline_threads > 0) {
    Scenario candidate = best;
    candidate.pipeline_window = 0;
    candidate.pipeline_threads = 0;
    consider(candidate);
  }
  if (best.result_cache_kb > 0) {
    Scenario candidate = best;
    candidate.result_cache_kb = 0;
    candidate.bumps.clear();
    consider(candidate);
  }
  if (!best.bumps.empty()) {
    Scenario candidate = best;
    candidate.bumps.clear();
    consider(candidate);
  }
  if (best.shards > 1) {
    // Toward the legacy central path; a sharding-specific failure survives
    // this pass, a generic one sheds the whole peer-transfer machinery.
    Scenario candidate = best;
    candidate.shards = 1;
    candidate.repl = 1;
    consider(candidate);
  }
  if (best.repl > 1) {
    Scenario candidate = best;
    candidate.repl = 1;
    consider(candidate);
  }
  if (best.l2) {
    Scenario candidate = best;
    candidate.l2 = false;
    consider(candidate);
  }
  if (best.prefetcher != "null") {
    Scenario candidate = best;
    candidate.prefetcher = "null";
    consider(candidate);
  }
  if (best.workers > 1) {
    const int narrower = best.workers - 1;
    const bool widths_fit = std::all_of(
        best.requests.begin(), best.requests.end(),
        [narrower](const DstRequest& r) { return r.width <= narrower; });
    const bool kills_fit =
        std::all_of(best.kills.begin(), best.kills.end(),
                    [narrower](const std::pair<int, int>& k) { return k.second <= narrower; });
    if (widths_fit && kills_fit) {
      Scenario candidate = best;
      candidate.workers = narrower;
      consider(candidate);
    }
  }
  return improved;
}

}  // namespace

ShrinkResult shrink_scenario(const Scenario& scenario, int max_attempts) {
  ShrinkResult result;
  result.minimal = scenario;
  if (!violates(scenario, result.failure)) {
    // Nothing to shrink; report the passing run as-is.
    ++result.attempts;
    return result;
  }
  ++result.attempts;
  while (result.attempts < max_attempts &&
         shrink_round(result.minimal, result.failure, max_attempts, result.attempts,
                      result.accepted)) {
  }
  return result;
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  for (int i = 0; i < options.count; ++i) {
    const std::uint64_t seed = options.first_seed + static_cast<std::uint64_t>(i);
    const Scenario scenario = generate_scenario(seed);
    ScenarioResult result = run_scenario(scenario);
    ++report.scenarios_run;
    report.total_transport_events += result.transport_events;
    report.total_context_switches += result.context_switches;

    if (options.verify_every > 0 && i % options.verify_every == 0) {
      ++report.determinism_checks;
      const ScenarioResult replay = run_scenario(scenario);
      if (replay.trajectory_hash != result.trajectory_hash ||
          replay.transport_events != result.transport_events) {
        report.nondeterministic_seeds.push_back(seed);
      }
    }

    if (!result.ok()) {
      FuzzFailure failure;
      failure.seed = seed;
      failure.violations = result.violations;
      failure.scenario = scenario.to_string();
      if (options.shrink_failures) {
        failure.shrunk = shrink_scenario(scenario).minimal.to_string();
      }
      report.failures.push_back(std::move(failure));
    }
  }
  return report;
}

}  // namespace vira::sim
