#!/usr/bin/env python3
"""Tallies a directory of `bench_shard --smoke` runs.

Usage: tally.py DIR   (DIR holds BENCH_shard_NN.json and run_NN.log pairs)

Prints one line per run (exit status, median-round speedup, rounds under
2x) and a summary: runs passing the shape check, single rounds under 2x,
and the range of per-round ratios. Rounds under 2x are counted from
`round_miss_p50_speedups`, so runs written before BENCH_shard.json gained
`rounds_under_2x` tally the same way.
"""
import glob
import json
import os
import re
import statistics
import sys


def main(directory):
    runs = sorted(glob.glob(os.path.join(directory, "BENCH_shard_*.json")))
    passed = under = rounds = 0
    ratios = []
    medians = []
    for path in runs:
        tag = re.search(r"BENCH_shard_(\w+)\.json", path).group(1)
        with open(path) as f:
            bench = json.load(f)
        with open(os.path.join(directory, f"run_{tag}.log")) as f:
            ok = "exit=0" in f.read()
        speedups = bench["round_miss_p50_speedups"]
        low = sum(1 for r in speedups if r < 2.0)
        passed += ok
        under += low
        rounds += len(speedups)
        ratios += speedups
        medians.append(bench["miss_p50_speedup"])
        print(f"run {tag}: {'PASS' if ok else 'FAIL'} median {bench['miss_p50_speedup']:.2f}x "
              f"rounds under 2x {low}/{len(speedups)} sharded p50 "
              f"{bench['sharded_miss_p50_ms']:.3f} ms central p50 "
              f"{bench['central_miss_p50_ms']:.3f} ms")
    print(f"summary: {passed}/{len(runs)} runs pass; {under}/{rounds} single rounds under 2x; "
          f"per-round ratio {min(ratios):.2f}x..{max(ratios):.2f}x; median-of-rounds "
          f"{min(medians):.2f}x..{max(medians):.2f}x (median {statistics.median(medians):.2f}x)")


if __name__ == "__main__":
    main(sys.argv[1])
