"""The benchmark's workloads: seeded inputs, one timed game, an untimed check.

Each workload turns a seed into a list of inputs (``generate``), produces the
reference answer for one input outside the timed region (``reference``),
runs one game through the public API (``play``) and judges the result
(``check``).  ``play`` looks every library entry point up on its module at
call time, so the tracer in ``tracing.py`` and the self-test can patch them.
The reference and check code uses the originals captured at import, so
neither a tracing wrapper nor an injected fault can reach the answer key.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twoaction import candidate_engine, cli, game_model, kernel, solver
from twoaction.candidate_engine import MethodDisagreement
from twoaction.combinatorics import (
    Permutation,
    block_swap_permutation,
    candidates_on_face_class,
    maximal_equilibrium_count,
    subfactorial,
)
from twoaction.game_model import CharacteristicTuple
from twoaction.solver import SolverConfig

# The originals, captured before any patch; the answer key uses only these.
_census = candidate_engine.census
_census_increment = kernel.census_increment
_equilibria = candidate_engine.equilibria
_check_inequalities = solver.check_inequalities
_build_product_game = game_model.build_product_game

# Same value as the acceptance suite's SOLVER_MATCH_TOL (tests/test_acceptance.py).
SOLVER_MATCH_TOL = 1e-8

SOLVER_CONFIG = SolverConfig(threads=1)

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# census-m9 draws its random tuples from a pool of POOL_SIZE tuples, tuple k
# being random_tuple(m, random.Random(POOL_SEED + k)).  Streaming references
# at m = 9 take about half a minute each, so the pool's references are stored
# in REFERENCE_DIR; a tuple without a stored reference gets one computed,
# untimed, before it is played.
POOL_SIZE = 32
POOL_SEED = 90_000


@dataclass
class Outcome:
    """What one game counted: solves attempted and one failure kind per failed solve."""

    attempted: int = 1
    failures: list[str] = field(default_factory=list)


def random_tuple(m: int, rng: random.Random) -> CharacteristicTuple:
    """Random sign vector, and for each j a random ordering of the players other than j."""
    v = tuple(rng.randint(0, 1) for _ in range(m))
    sigma = []
    for j in range(1, m + 1):
        images = [x for x in range(1, m + 1) if x != j]
        rng.shuffle(images)
        sigma.append(Permutation(images[: j - 1] + [j] + images[j - 1 :]))
    return CharacteristicTuple(v, tuple(sigma))


def maximal_tuple(m: int) -> CharacteristicTuple:
    return CharacteristicTuple(
        v=(0,) * m, sigma=tuple(block_swap_permutation(m, i) for i in range(1, m + 1))
    )


def tuple_key(ctuple: CharacteristicTuple) -> str:
    """Canonical text of a tuple: sign bits, then each ordering in one-line notation."""
    v = "".join(map(str, ctuple.v))
    return v + ":" + ";".join(",".join(map(str, s.images)) for s in ctuple.sigma)


def maximal_per_class(m: int) -> list[int]:
    """Equilibria per face class of the maximal game: !m, then C(m,l) 2^(l-1) !(m-l)."""
    return [subfactorial(m)] + [
        math.comb(m, l) * 2 ** (l - 1) * subfactorial(m - l) for l in range(1, m + 1)
    ]


def streaming_per_class(ctuple: CharacteristicTuple) -> list[int]:
    """Equilibria per face class by the streaming increment route, bypassing the kernel."""
    game = _build_product_game(ctuple)
    return _census(game, method="increment", use_kernel=False).equilibria_per_class


def kernel_per_class(ctuple: CharacteristicTuple) -> list[int]:
    m = ctuple.m
    sigma = [list(s.images) for s in ctuple.sigma]
    _, eq = _census_increment(m, list(ctuple.v), sigma)
    return [int(e) for e in eq]


def _count_failures(m: int, cand: list[int], eq: list[int], expected: list[int]) -> list[str]:
    cand_ok = cand == [candidates_on_face_class(m, l) for l in range(m + 1)]
    return [] if cand_ok and eq == expected else ["wrong_count"]


class Workload:
    """One workload: ``generate`` inputs, ``reference`` and ``check`` untimed, ``play`` timed."""

    name: str
    default_m: int  # the digit in the name
    # The distinct games of one run.  A run plays them in passes, so each is
    # played several times and its fastest play is its latency (see run.py).
    games_per_run: int

    def __init__(self, m: int | None = None, workdir: Path | None = None):
        self.m = self.default_m if m is None else m
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        """The run's ``games_per_run`` inputs."""
        raise NotImplementedError

    def reference(self, item):
        return None

    def play(self, item):
        raise NotImplementedError

    def check(self, item, result, ref) -> Outcome:
        raise NotImplementedError

    def solver_game(self, item):
        """The two-action game behind an input, for the traced support sweep; None if no solver."""
        return None


class CensusWorkload(Workload):
    """Exact census through the kernel: all m! permutations of each tuple."""

    name = "census-m9"
    default_m = 9
    games_per_run = 5  # about 1.5 s each: four passes in 30 s

    _stored: dict[str, list[int]] | None = None

    def generate(self, seed):
        pool = [random_tuple(self.m, random.Random(POOL_SEED + k)) for k in range(POOL_SIZE)]
        order = random.Random(seed).sample(range(POOL_SIZE), self.games_per_run - 1)
        return [("maximal", maximal_tuple(self.m))] + [(f"pool{k}", pool[k]) for k in order]

    def reference(self, item):
        label, ctuple = item
        if label == "maximal":
            return maximal_per_class(self.m)
        if self._stored is None:
            self._stored = _load_references(self.m)
        key = tuple_key(ctuple)
        if key not in self._stored:
            self._stored[key] = streaming_per_class(ctuple)
        return self._stored[key]

    def play(self, item):
        game = game_model.build_product_game(item[1])
        return candidate_engine.census(game, method="increment")

    def check(self, item, report, ref):
        failures = _count_failures(
            self.m, report.candidates_per_class, report.equilibria_per_class, ref
        )
        if item[0] == "maximal" and report.total_equilibria != maximal_equilibrium_count(self.m):
            failures = ["wrong_count"]
        return Outcome(1, failures)


def _load_references(m: int) -> dict[str, list[int]]:
    path = REFERENCE_DIR / f"census-m{m}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    return {entry["key"]: entry["equilibria_per_class"] for entry in data["tuples"]}


class ClassifyWorkload(Workload):
    """User-facing exact path: CLI construct then classify, both routes, no kernel."""

    name = "classify-m7"
    default_m = 7
    games_per_run = 8  # about 0.8 s each: four or five passes in 30 s

    def generate(self, seed):
        rng = random.Random(seed)
        tuples = [maximal_tuple(self.m)]
        tuples += [random_tuple(self.m, rng) for _ in range(self.games_per_run - 1)]
        return [
            (
                ctuple,
                "".join(map(str, ctuple.v)),
                ";".join(",".join(map(str, s.images)) for s in ctuple.sigma),
            )
            for ctuple in tuples
        ]

    def reference(self, item):
        return kernel_per_class(item[0])

    def play(self, item):
        _, v, sigma = item
        game_path = self.workdir / "game.json"
        out_path = self.workdir / "classify.json"
        out_path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(
                ["construct", "--m", str(self.m), "--v", v, "--sigma", sigma,
                 "--out", str(game_path)]
            )
            if rc == 0:
                rc = cli.main(
                    ["classify", str(game_path), "--format", "json", "--out", str(out_path)]
                )
        return rc, stderr.getvalue(), out_path

    def check(self, item, result, ref):
        rc, stderr, out_path = result
        if rc != 0:
            kind = "method_disagreement" if "method_disagreement" in stderr else "cli_exit"
            return Outcome(1, [kind])
        data = json.loads(out_path.read_text())
        cand = [row["candidates"] for row in data["per_l"]]
        eq = [row["equilibria"] for row in data["per_l"]]
        return Outcome(1, _count_failures(self.m, cand, eq, ref))


class SolveWorkload(Workload):
    """Numeric solver: multi-start Newton over all 3^m supports, exact engine as key."""

    name = "solve-m5"
    default_m = 5

    # Three rounds of (maximal, random product, random generic), 3-5 s a
    # game: about one pass in 30 s.  Random product games differ in cost
    # by up to 40%, so a run needs several of them.
    games_per_run = 9

    def generate(self, seed):
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        maximal = game_model.maximal_game(self.m)
        games = []
        for _ in range(self.games_per_run // 3):
            games.append(("product", maximal))
            games.append(("product", _build_product_game(random_tuple(self.m, rng))))
            games.append(("generic", solver.random_generic_game(self.m, nrng)))
        return games

    def reference(self, item):
        kind, game = item
        if kind == "generic":
            return None
        return [cand.gamma_floats() for cand in _equilibria(game, method="both")]

    def play(self, item):
        return solver.solve_all(item[1], SOLVER_CONFIG)

    def solver_game(self, item):
        return item[1]

    def check(self, item, report, exact):
        if exact is None:
            if report.total % 2 == 0:
                return Outcome(1, ["even_total"])
            ok = _check_inequalities(report.face_census, self.m).all_ok
            return Outcome(1, [] if ok else ["violation"])
        if report.total != len(exact):
            return Outcome(1, ["wrong_count"])
        remaining = list(exact)
        for eq in report.equilibria:
            dists = [max(abs(a - b) for a, b in zip(eq.gamma, p)) for p in remaining]
            k = min(range(len(dists)), key=dists.__getitem__)
            if dists[k] > SOLVER_MATCH_TOL:
                return Outcome(1, ["unmatched_equilibrium"])
            del remaining[k]
        return Outcome(1, [])


class ScanWorkload(Workload):
    """Many tiny supports: per-call solver overhead and game generation dominate."""

    name = "scan-m3"
    default_m = 3

    games_per_run = 100  # about 55 ms each: five passes in 30 s

    def generate(self, seed):
        rng = random.Random(seed)
        return [rng.getrandbits(63) for _ in range(self.games_per_run)]

    def play(self, trial_seed):
        return solver.scan_inequalities(self.m, 1, trial_seed, SOLVER_CONFIG)

    def solver_game(self, trial_seed):
        # the trial's first game: scan_inequalities draws it from this generator
        return solver.random_generic_game(self.m, np.random.default_rng(trial_seed))

    def check(self, trial_seed, report, ref):
        # Each regeneration follows a solve with an even total: a missed root
        # the scan replaced quietly.  Count every such solve as a failure.
        failed_last = report.even_count_failures > 0
        attempted = report.regenerations + (0 if failed_last else 1)
        failures = ["even_total"] * report.regenerations
        if report.violations and not failed_last:
            failures.append("violation")
        return Outcome(attempted, failures)


WORKLOADS = {
    w.name: w for w in (CensusWorkload, ClassifyWorkload, SolveWorkload, ScanWorkload)
}

def make(name: str, m: int | None = None, workdir: Path | None = None) -> Workload:
    return WORKLOADS[name](m, workdir)


def failure_of(exc: Exception) -> str:
    """Failure kind of an exception raised by a game."""
    if isinstance(exc, MethodDisagreement):
        return "method_disagreement"
    return "error:" + type(exc).__name__
