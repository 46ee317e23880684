"""Spans and counts around the library's public entry points, recorded from outside.

A traced run replaces each entry point on every module where a caller looks
it up (``candidate_engine.census`` for the benchmark and ``cli.census`` for
the CLI, for example) with a wrapper that records a span: name, game id,
parent span, start, end and the time covered by its children.  Self time is
the span's duration minus that child time.  The per-candidate classifiers
are called ~10^4 times per game, so they are aggregated into call counts and
seconds instead of spans, but still charged to their parent's child time.
The library source is not touched; every patch is undone on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import Counter, defaultdict

from twoaction import candidate_engine, cli, game_model, kernel, solver

# span fields
NAME, GAME, PARENT, START, END, CHILD_S = range(6)


class Tracer:
    """Spans, per-leaf call totals and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.counts: Counter = Counter()
        self.game: int | None = None
        self._open: list[int] = []

    def wrap(self, name, fn, after=None, leaf=False):
        """Wrap ``fn``; ``name`` may be a callable of the call's arguments."""
        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    totals = self.leaf[name]
                    totals[0] += 1
                    totals[1] += elapsed
                    if self._open:
                        self.spans[self._open[-1]][CHILD_S] += elapsed

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [label, self.game, parent, time.perf_counter(), None, 0.0]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent][CHILD_S] += span[END] - span[START]
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    def total_s(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def self_s(self, prefix: str) -> float:
        return sum(
            s[END] - s[START] - s[CHILD_S] for s in self.spans if s[NAME].startswith(prefix)
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def dump(self, path) -> None:
        fields = ("name", "game", "parent", "start", "end", "child_s")
        data = {
            "spans": [dict(zip(fields, s)) for s in self.spans],
            "aggregated": {k: {"calls": c, "s": t} for k, (c, t) in self.leaf.items()},
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(data) + "\n")


# -- what each wrapped call adds to the counts --------------------------------


def _after_kernel(counts, result, m, v, sigma):
    counts["kernel.permutations"] += math.factorial(m)
    counts["kernel.candidates"] += sum(result[0])


def _after_build(counts, game, *args, **kwargs):
    counts["game_model.tensor_entries"] += game.m * 2**game.m


def _after_census(counts, report, *args, **kwargs):
    counts["census.candidates"] += report.total_candidates


def _after_solve(counts, report, *args, **kwargs):
    for key in ("starts", "converged", "degenerate_supports"):
        counts["solver." + key] += report.stats[key]
    counts["solver.equilibria"] += report.total


def _after_scan(counts, report, *args, **kwargs):
    counts["solver.regenerations"] += report.regenerations


def _cli_name(argv):
    return "cli." + argv[0]


def _targets():
    """(module, attribute, span name, after-hook) for every patched lookup."""
    build = ("game_model.build_product_game", _after_build)
    census = ("candidate_engine.census", _after_census)
    solve_all = ("solver.solve_all", _after_solve)
    scan = ("solver.scan_inequalities", _after_scan)
    save = ("game_model.save_game", None)
    load = ("game_model.load_game", None)
    return [
        (kernel, "census_increment", "kernel.census_increment", _after_kernel),
        (game_model, "build_product_game", *build),
        (cli, "build_product_game", *build),
        (game_model, "save_game", *save),
        (cli, "save_game", *save),
        (game_model, "load_game", *load),
        (cli, "load_game", *load),
        (candidate_engine, "census", *census),
        (cli, "census", *census),
        (solver, "solve_all", *solve_all),
        (cli, "solve_all", *solve_all),
        (solver, "scan_inequalities", *scan),
        (cli, "scan_inequalities", *scan),
        (solver, "random_generic_game", "solver.random_generic_game", None),
        (solver, "check_inequalities", "solver.check_inequalities", None),
        (cli, "main", _cli_name, None),
    ]


# called once per candidate: aggregated, not recorded as spans
LEAVES = ("classify_by_increment", "classify_by_sign")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target with a wrapper recording into ``tracer``; undo on exit."""
    saved = []
    try:
        for module, attr, name, after in _targets():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, saved[-1][2], after=after))
        for attr in LEAVES:
            saved.append((candidate_engine, attr, getattr(candidate_engine, attr)))
            wrapper = tracer.wrap("candidate_engine." + attr, saved[-1][2], leaf=True)
            setattr(candidate_engine, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def support_sweep(game, config, max_free: int = 5) -> dict[int, float]:
    """Seconds spent in the public ``solve_support`` per number of free players.

    ``game`` is None for workloads that never reach the solver: all zeros.
    """
    seconds = {r: 0.0 for r in range(max_free + 1)}
    for support in solver.all_supports(game.m) if game is not None else ():
        start = time.perf_counter()
        solver.solve_support(game, support, config)
        seconds[len(support.free_players)] += time.perf_counter() - start
    return seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, games: int, sweep: dict[int, float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); zero where a layer never ran.

    Times and counts are per game played in the traced run; rates and ratios
    are over the whole run; ``sweep`` is one game's support sweep.
    """
    c = tracer.counts
    kernel_s = tracer.total_s("kernel.census_increment")
    census_s = tracer.total_s("candidate_engine.census")
    streamed = c["census.candidates"] - c["kernel.candidates"]
    inc = tracer.leaf["candidate_engine.classify_by_increment"]
    sign = tracer.leaf["candidate_engine.classify_by_sign"]
    metrics = {
        "kernel.census_increment.calls": (tracer.calls("kernel.census_increment"), "count"),
        "kernel.census_increment.s": (kernel_s, "s"),
        "kernel.permutations": (c["kernel.permutations"], "count"),
        "kernel.perms_per_s": (_ratio(c["kernel.permutations"], kernel_s), "1/s"),
        "game_model.build_product_game.s": (tracer.total_s("game_model.build_product_game"), "s"),
        "game_model.tensor_entries": (c["game_model.tensor_entries"], "count"),
        "game_model.save_game.s": (tracer.total_s("game_model.save_game"), "s"),
        "game_model.load_game.s": (tracer.total_s("game_model.load_game"), "s"),
        "candidate_engine.census.self_s": (tracer.self_s("candidate_engine.census"), "s"),
        "candidate_engine.candidates": (streamed, "count"),
        "candidate_engine.classify_by_increment.s": (inc[1], "s"),
        "candidate_engine.classify_by_sign.s": (sign[1], "s"),
        "candidate_engine.candidates_per_s": (_ratio(streamed, census_s - kernel_s), "1/s"),
        "solver.solve_all.s": (tracer.total_s("solver.solve_all"), "s"),
        "solver.solve_all.calls": (tracer.calls("solver.solve_all"), "count"),
        "solver.starts": (c["solver.starts"], "count"),
        "solver.converged": (c["solver.converged"], "count"),
        "solver.converged_ratio": (_ratio(c["solver.converged"], c["solver.starts"]), "ratio"),
        "solver.equilibria": (c["solver.equilibria"], "count"),
        "solver.degenerate_supports": (c["solver.degenerate_supports"], "count"),
    }
    metrics.update(
        {
            "solver.random_generic_game.s": (tracer.total_s("solver.random_generic_game"), "s"),
            "solver.check_inequalities.s": (tracer.total_s("solver.check_inequalities"), "s"),
            "solver.regenerations": (c["solver.regenerations"], "count"),
            "cli.construct.s": (tracer.total_s("cli.construct"), "s"),
            "cli.classify.s": (tracer.total_s("cli.classify"), "s"),
            "cli.self_s": (tracer.self_s("cli."), "s"),
        }
    )
    rates = {"kernel.perms_per_s", "candidate_engine.candidates_per_s", "solver.converged_ratio"}
    metrics = {
        k: (v if k in rates else v / games, unit) for k, (v, unit) in metrics.items()
    }
    for r, seconds in sweep.items():
        metrics[f"solver.support_r{r}.s"] = (seconds, "s")
    return metrics
