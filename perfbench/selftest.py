#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes: every workload, untraced and traced.

1. Plays two games of every workload at m <= 4, untraced and traced, and
   requires fail_frac == 0 and every per-layer metric present.
2. Patches ``census`` (where both the benchmark and the CLI look it up) to
   report one equilibrium too many, and requires that census and classify
   report every game as a failure of kind ``wrong_count``.

Exits 0 when every check holds, 1 otherwise.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_M = {"census-m9": 4, "classify-m7": 4, "solve-m5": 3, "scan-m3": 3}
GAMES = 3
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _play(name, trace):
    result, _ = run.run_workload(
        name, seed=7, seconds=60, trace=trace, m=TINY_M[name], max_games=GAMES, probes=1
    )
    return result


def off_by_one(census):
    def wrong(*args, **kwargs):
        report = census(*args, **kwargs)
        report.equilibria_per_class[0] += 1
        return report

    return wrong


def main() -> int:
    run.prepare()
    import workloads
    from twoaction import candidate_engine, cli

    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    problems = []

    for name in workloads.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = _play(name, trace)
            fail_frac = result["failed"] / result["attempted"]
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"fail_frac {fail_frac}")
            if fail_frac != 0 or result["attempted"] < GAMES or not result["correct"]:
                problems.append(f"{name} trace={trace}: {result}")
            if set(result["metrics"]) != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")

    saved = candidate_engine.census, cli.census
    candidate_engine.census = off_by_one(saved[0])
    cli.census = off_by_one(saved[1])
    try:
        for name in ("census-m9", "classify-m7"):
            result, lines = run.run_workload(
                name, seed=7, seconds=60, trace=0, m=TINY_M[name], max_games=GAMES, probes=1
            )
            print(f"{name} with an off-by-one census: {result['failed']} of "
                  f"{result['attempted']} failed")
            caught = result["failed"] == result["attempted"] == GAMES
            if not caught or result["correct"] or f"'wrong_count': {GAMES}" not in "\n".join(lines):
                problems.append(f"{name}: injected wrong count not reported: {result}")
    finally:
        candidate_engine.census, cli.census = saved

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
