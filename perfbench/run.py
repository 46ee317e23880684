#!/usr/bin/env python3
"""The twoaction benchmark: one seeded workload as a closed loop, checked game by game.

One client in one process plays the workload's games one after another,
each only after the previous one finished, with ``SolverConfig.threads=1``
and BLAS/OpenMP limited to one thread.  Games run until their summed time
reaches ``--seconds``; every answer is checked, untimed, against a reference
that does not come from the code path under test.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
playing games untraced and half playing the same games again with every
public entry point wrapped (see tracing.py), and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
always one JSON object with the keys correct, attempted, failed and
metrics.  See README.md for every metric and workload.

Usage:
  python3 perfbench/run.py --workload census-m9 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

# Time from `import twoaction` to having the inputs, in a fresh interpreter.
PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[5])).generate(int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's sources first on the path.

    Must run before numpy is imported.  Raises FileNotFoundError outside a
    checkout that holds the library's sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "twoaction" / "__init__.py").is_file():
        raise FileNotFoundError(f"no twoaction sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)  # every play
    best: dict[int, float] = field(default_factory=dict)  # game -> its fastest play
    failed_games: set[int] = field(default_factory=set)  # games with a failed play
    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    timed_s: float = 0.0
    setup: list[float] = field(default_factory=list)

    @property
    def games_per_s(self) -> float:
        """Games without a failed play per second of their fastest plays."""
        return (len(self.best) - len(self.failed_games)) / sum(self.best.values())


def measure(
    workload, inputs, refs, seconds, max_games=None, tracer=None, probe=None, probes=0
) -> Measurement:
    """Play the inputs in passes until each was played and the summed time reaches ``seconds``.

    A game's latency is its fastest play.  The host's speed swings by tens of
    percent from one game to the next (see README.md); the fastest of plays
    spread over the run is steadier than any single play, and it also leaves
    out the first play's cold start.  The game in progress finishes.
    With ``probe``, ``probes`` untimed calls of it are spread evenly over the
    run, one each time another ``seconds / probes`` of games has been played,
    so that set-up is sampled under the same host load as the games.
    """
    from workloads import Outcome, failure_of

    result = Measurement()
    index = 0
    while (result.timed_s < seconds or index < len(inputs)) and (
        max_games is None or index < max_games
    ):
        slot = index % len(inputs)
        item = inputs[slot]
        if slot not in refs:
            refs[slot] = workload.reference(item)
        if tracer is not None:
            tracer.game = index
        elapsed = None
        start = time.perf_counter()
        try:
            output = workload.play(item)
            elapsed = time.perf_counter() - start
            outcome = workload.check(item, output, refs[slot])
        except Exception as exc:  # a failed game is counted, never fatal
            if elapsed is None:
                elapsed = time.perf_counter() - start
            print(f"game {index} failed: {exc!r}", file=sys.stderr)
            outcome = Outcome(1, [failure_of(exc)])
        result.latencies.append(elapsed)
        result.best[slot] = min(elapsed, result.best.get(slot, elapsed))
        if outcome.failures:
            result.failed_games.add(slot)
        result.timed_s += elapsed
        result.attempted += outcome.attempted
        result.failed += len(outcome.failures)
        result.kinds.update(outcome.failures)
        index += 1
        while probe is not None and len(result.setup) < probes * min(1.0, result.timed_s / seconds):
            result.setup.append(probe())
    while probe is not None and len(result.setup) < probes:
        result.setup.append(probe())
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond.

    With TAIL_BEYOND samples or fewer no percentile has ten beyond, and the
    maximum is reported, as p100 with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def setup_seconds(name: str, m: int, seed: int) -> float:
    """One set-up, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(HERE), name, str(seed), str(m)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, seed, seconds, inputs, trace) -> dict:
    import numpy
    import twoaction
    from workloads import SOLVER_CONFIG

    return {
        "workload": workload.name,
        "m": workload.m,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": len(inputs),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": twoaction.KERNEL,
        "commit": git_commit(),
        "solver_threads": SOLVER_CONFIG.threads,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "loop": "closed, 1 client",
    }


def run_workload(name, seed, seconds, trace, m=None, max_games=None, probes=SETUP_PROBES):
    """Run one workload; returns (result line dict, human-readable lines)."""
    import tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.make(name, m, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.generate(seed)
        refs: dict[int, object] = {}
        # a traced run splits its time: the same games untraced, then traced
        phase_s = seconds / 2 if trace else seconds
        probe = None if trace else lambda: setup_seconds(name, workload.m, seed)
        plain = measure(workload, inputs, refs, phase_s, max_games, probe=probe, probes=probes)
        lines = [json.dumps({"meta": metadata(workload, seed, seconds, inputs, trace)})]
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(workload, inputs, refs, phase_s, max_games, tracer)
            game = workload.solver_game(inputs[0])
            sweep = tracing.support_sweep(game, workloads.SOLVER_CONFIG)
            metrics = tracing.layer_metrics(tracer, len(traced.latencies), sweep)
            overhead = plain.games_per_s - traced.games_per_s
            metrics["trace.overhead_games_per_s"] = (overhead, "games/s")
            tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
            lines += _traced_lines(plain, traced)
            runs = (plain, traced)
        else:
            metrics = _end_to_end(plain)
            lines += _plain_lines(plain)
            runs = (plain,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    lines += [f"{k:<42} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _end_to_end(run: Measurement) -> dict[str, tuple[float, str]]:
    value, _, _ = tail(list(run.best.values()))
    return {
        "games_per_s": (run.games_per_s, "games/s"),
        "game_s_p50": (statistics.median(run.best.values()), "s"),
        "game_s_tail": (value, "s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _games_line(run: Measurement) -> str:
    games = len(run.best)
    return (
        f"{games} games, {games - len(run.failed_games)} without a failed play;"
        f" {len(run.latencies)} plays ({len(run.latencies) / games:.1f} passes)"
        f" in {run.timed_s:.3f} s timed"
    )


def _plain_lines(run: Measurement) -> list[str]:
    value, pct, beyond = tail(list(run.best.values()))
    fail_frac = run.failed / run.attempted
    return [
        _games_line(run),
        f"game_s_p50 over n={len(run.best)} games, each its fastest play",
        f"game_s_tail is p{pct:.1f} of n={len(run.best)} ({beyond} beyond)",
        f"setup_s is the median of {len(run.setup)} fresh interpreters: "
        + " ".join(f"{s:.4f}" for s in run.setup),
        f"fail_frac over {run.attempted} attempted, {run.failed} failed; by kind {dict(run.kinds)}",
        f"{'fail_frac':<42} {fail_frac:.6g} ratio",
    ]


def _traced_lines(plain: Measurement, traced: Measurement) -> list[str]:
    return [
        f"untraced: {_games_line(plain)} = {plain.games_per_s:.6g} games/s",
        f"traced:   {_games_line(traced)} = {traced.games_per_s:.6g} games/s",
        f"failures by kind: untraced {dict(plain.kinds)}, traced {dict(traced.kinds)}",
    ]


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in its own process, one after another."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="census-m9, classify-m7, solve-m5, scan-m3, or all"
                        " (the workloads listed in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a twoaction checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
