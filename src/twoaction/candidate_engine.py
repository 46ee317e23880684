"""Enumeration and classification of equilibrium candidates of product games.

Every candidate is indexed by a permutation pi of the players together with a
0/1 boundary assignment on the fixed points of pi: non-fixed coordinates sit
at the thresholds gamma_j = a[pi(j), j], fixed coordinates at the assigned
boundary value.  Classification runs by two independent routes:

* increment: integer arithmetic mod 2 over the characteristic tuple only,
  never touching the threshold values;
* sign: exact rational evaluation of the factored payoff differences,
  never touching the increment formula.

Agreement of the two routes on every candidate is the engine's standing
regression check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

from . import kernel
from .combinatorics import (
    Permutation,
    block_swap_permutation,
    candidates_on_face_class,
    chi,
    enumerate_permutations,
    maximal_equilibrium_count,
)
from .game_model import ProductTwoActionGame

Method = Literal["increment", "sign", "both"]

METHODS = ("increment", "sign", "both")


class MethodDisagreement(Exception):
    """The increment and sign classifications disagreed on a candidate."""

    def __init__(self, candidate: "EquilibriumCandidate", by_increment: bool, by_sign: bool):
        self.candidate = candidate
        self.by_increment = by_increment
        self.by_sign = by_sign
        super().__init__(
            f"classification mismatch at pi={list(candidate.pi.images)} "
            f"boundary={candidate.boundary}: increment says {by_increment}, "
            f"sign says {by_sign}"
        )


@dataclass(frozen=True)
class EquilibriumCandidate:
    """A candidate profile: permutation, boundary assignment, coordinates."""

    pi: Permutation
    boundary: tuple[tuple[int, int], ...]  # (player, 0/1) for fixed points of pi
    gamma: tuple[Fraction, ...]

    @property
    def face_class(self) -> int:
        return len(self.boundary)

    def boundary_value(self, i: int) -> int:
        for player, value in self.boundary:
            if player == i:
                return value
        raise KeyError(f"player {i} is not a fixed point of the permutation")

    def zero_count(self) -> int:
        return sum(1 for _, value in self.boundary if value == 0)

    def gamma_floats(self) -> tuple[float, ...]:
        return tuple(float(g) for g in self.gamma)


def candidate_for(
    game: ProductTwoActionGame, pi: Permutation, boundary_values: dict[int, int]
) -> EquilibriumCandidate:
    """Build the candidate for a permutation and a boundary assignment."""
    fixed = pi.fixed_points()
    if set(boundary_values) != set(fixed):
        raise ValueError("boundary assignment must cover exactly the fixed points")
    gamma = []
    for j in range(1, game.m + 1):
        if j in boundary_values:
            gamma.append(Fraction(boundary_values[j]))
        else:
            gamma.append(game.coeffs[(pi(j), j)])
    return EquilibriumCandidate(
        pi=pi,
        boundary=tuple((i, boundary_values[i]) for i in fixed),
        gamma=tuple(gamma),
    )


def enumerate_candidates(game: ProductTwoActionGame) -> Iterator[EquilibriumCandidate]:
    """All equilibrium candidates, grouped by permutation in lexicographic order."""
    for pi in enumerate_permutations(game.m):
        fixed = pi.fixed_points()
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            yield candidate_for(game, pi, dict(zip(fixed, bits)))


def increment(game: ProductTwoActionGame, cand: EquilibriumCandidate, i: int) -> int:
    """The mod-2 increment of a candidate at a fixed point of its permutation.

    Uses only the characteristic tuple and the boundary assignment; the
    threshold values never enter.
    """
    gamma_i = cand.boundary_value(i)  # raises if i is not a fixed point
    zeros_excl_self = cand.zero_count() - (1 if gamma_i == 0 else 0)
    sigma = game.ctuple.sigma
    total = 1 + gamma_i + game.ctuple.v[i - 1] + zeros_excl_self
    for j in range(1, game.m + 1):
        if cand.pi(j) != j:
            s = sigma[j - 1]
            total += chi(s(cand.pi(j)), s(i))
    return total % 2


def classify_by_increment(game: ProductTwoActionGame, cand: EquilibriumCandidate) -> bool:
    """True iff the candidate is an equilibrium, by the increment criterion."""
    if cand.face_class == 0:
        return True
    return all(increment(game, cand, i) == 0 for i, _ in cand.boundary)


def classify_by_sign(game: ProductTwoActionGame, cand: EquilibriumCandidate) -> bool:
    """True iff the candidate is an equilibrium, by exact sign evaluation.

    For every boundary player the factored payoff difference must point
    toward the chosen action: positive at value 1, negative at value 0.
    Interior players are indifferent by construction.
    """
    for i, value in cand.boundary:
        lam = game.lam_factored(i, cand.gamma)
        if value == 1 and lam <= 0:
            return False
        if value == 0 and lam >= 0:
            return False
    return True


def _classify(game, cand, method: Method) -> bool:
    if method == "increment":
        return classify_by_increment(game, cand)
    if method == "sign":
        return classify_by_sign(game, cand)
    if method == "both":
        by_inc = classify_by_increment(game, cand)
        by_sign = classify_by_sign(game, cand)
        if by_inc != by_sign:
            raise MethodDisagreement(cand, by_inc, by_sign)
        return by_inc
    raise ValueError(f"unknown method {method!r}")


@dataclass
class CensusReport:
    """Per-face-class candidate and equilibrium counts of one product game.

    ``counted_by`` is ``"kernel"`` when the census kernel counted, and
    ``"streaming"`` when every candidate was enumerated and classified.
    """

    m: int
    method: str
    candidates_per_class: list[int]
    equilibria_per_class: list[int]
    counted_by: str

    @property
    def total_candidates(self) -> int:
        return sum(self.candidates_per_class)

    @property
    def total_equilibria(self) -> int:
        return sum(self.equilibria_per_class)

    @property
    def expected_maximum(self) -> int:
        return maximal_equilibrium_count(self.m)

    @property
    def matches_expected(self) -> bool:
        return self.total_equilibria == self.expected_maximum

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "method": self.method,
            "counted_by": self.counted_by,
            "per_l": [
                {"l": l, "candidates": c, "equilibria": e}
                for l, (c, e) in enumerate(
                    zip(self.candidates_per_class, self.equilibria_per_class)
                )
            ],
            "total_candidates": self.total_candidates,
            "total_equilibria": self.total_equilibria,
            "expected_lower_bound": self.expected_maximum,
            "matches_expected": self.matches_expected,
        }


def census(
    game: ProductTwoActionGame, method: Method = "both", use_kernel: bool | None = None
) -> CensusReport:
    """Count candidates and equilibria per face class.

    With ``method="increment"`` the census kernel counts them from the
    characteristic tuple (set ``use_kernel=False`` to stream every candidate
    instead); the other methods always stream, since the sign route needs the
    exact coordinates.  Raises ``RuntimeError`` if the candidate counts per
    face class differ from ``candidates_on_face_class``.
    """
    m = game.m
    if use_kernel is None:
        use_kernel = method == "increment"
    counted_by = "kernel" if use_kernel and method == "increment" else "streaming"
    if counted_by == "kernel":
        v = list(game.ctuple.v)
        sigma = [list(s.images) for s in game.ctuple.sigma]
        cand, eq = kernel.census_increment(m, v, sigma)
    else:
        cand = [0] * (m + 1)
        eq = [0] * (m + 1)
        for candidate in enumerate_candidates(game):
            l = candidate.face_class
            cand[l] += 1
            if _classify(game, candidate, method):
                eq[l] += 1
    expected = [candidates_on_face_class(m, l) for l in range(m + 1)]
    if cand != expected:
        raise RuntimeError(f"candidate counts per face class are {cand}, expected {expected}")
    return CensusReport(m, method, cand, eq, counted_by)


def equilibria(
    game: ProductTwoActionGame, method: Method = "both"
) -> list[EquilibriumCandidate]:
    """All candidates classified as equilibria, in enumeration order."""
    return [c for c in enumerate_candidates(game) if _classify(game, c, method)]


# -- exhaustive verification of the block-swap comparison tables -------------


@dataclass
class TableCheckResult:
    ok: bool
    counterexample: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _four_case_expected(i: int, j: int, pj: int) -> int:
    if j < i:
        return 1 if (pj < j or pj > i) else 0
    return 1 if i < pj < j else 0


def _nine_case_expected(i1: int, i2: int, j: int, pj: int) -> tuple[int, int]:
    if j < i1:
        if pj < j or pj > i2:
            return (1, 1)
        if j < pj < i1:
            return (0, 0)
        return (1, 0)  # i1 < pj < i2
    if j > i2:
        if pj < i1 or pj > j:
            return (0, 0)
        if i2 < pj < j:
            return (1, 1)
        return (1, 0)  # i1 < pj < i2
    # i1 < j < i2
    if i1 < pj < j:
        return (1, 1)
    if j < pj < i2:
        return (0, 0)
    return (0, 1)  # pj < i1 or pj > i2


def verify_block_swap_tables(m: int) -> TableCheckResult:
    """Exhaustively check the case tables governing the block-swap orderings.

    For every permutation with fixed points, every fixed point i and every
    moved position j, the comparison of the block-swap images of pi(j) and i
    must match the four-case prediction; for pairs of fixed points the
    nine-case table must hold, and the cases contributing differently to the
    two increments must pair up evenly.
    """
    swaps = {j: block_swap_permutation(m, j) for j in range(1, m + 1)}
    for pi in enumerate_permutations(m):
        fixed = pi.fixed_points()
        if not fixed:
            continue
        moved = [j for j in range(1, m + 1) if pi(j) != j]
        for i in fixed:
            for j in moved:
                d = swaps[j]
                actual = chi(d(pi(j)), d(i))
                if actual != _four_case_expected(i, j, pi(j)):
                    return TableCheckResult(False, (pi, i, j, "four-case"))
        for i1, i2 in itertools.combinations(fixed, 2):
            unbalanced = 0
            for j in moved:
                d = swaps[j]
                actual = (chi(d(pi(j)), d(i1)), chi(d(pi(j)), d(i2)))
                expected = _nine_case_expected(i1, i2, j, pi(j))
                if actual != expected:
                    return TableCheckResult(False, (pi, i1, i2, j, "nine-case"))
                if actual[0] != actual[1]:
                    unbalanced += 1
            if unbalanced % 2 != 0:
                return TableCheckResult(False, (pi, i1, i2, "odd unbalanced count"))
    return TableCheckResult(True)
