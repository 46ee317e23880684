"""Enumeration and classification of equilibrium candidates of product games.

Every candidate is indexed by a permutation pi of the players together with a
0/1 boundary assignment on the fixed points of pi: non-fixed coordinates sit
at the thresholds gamma_j = a[pi(j), j], fixed coordinates at the assigned
boundary value.  Classification runs by two independent exact routes, each a
table lookup per (permutation, player), evaluated in NumPy for every
candidate of a block of permutations:

* increment: integer arithmetic mod 2 over the characteristic tuple only,
  through the table sigma_j(x); the threshold values never enter;
* sign: the sign of each factored payoff difference as the product of the
  signs of its factors, from a table built by comparing the integer
  numerators of the thresholds; the orderings sigma never enter.

Agreement of the two routes on every candidate is the engine's standing
regression check.  The per-candidate versions of both routes live in the
tests, as the reference the block routes are compared against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

import numpy as np

from . import kernel
from .combinatorics import (
    Permutation,
    candidates_on_face_class,
    enumerate_permutations,
    maximal_equilibrium_count,
)
from .game_model import ProductTwoActionGame

Method = Literal["increment", "sign", "both"]

METHODS = ("increment", "sign", "both")

# s! = 720 permutations per block.  Measured on census(maximal_game(7)):
# 5040 per block ran as fast but raised the peak memory by 2 MB more, and
# 120 per block took twice as long
BLOCK_LEN = 6


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


@dataclass(frozen=True)
class CandidateBlock:
    """The candidates of a block of permutations, in enumeration order.

    Players and values are 0-based, and every array has one row per player.
    ``perms[j, p]`` is the image of player j under the block's p-th
    permutation.  Candidate n belongs to permutation ``owner[n]``;
    ``fixed[i, n]`` says whether player i is a fixed point of it, and
    ``bits[i, n]`` is the boundary value there (0 at moved players).
    """

    perms: np.ndarray
    owner: np.ndarray
    fixed: np.ndarray
    bits: np.ndarray

    @classmethod
    def of(cls, perms: np.ndarray) -> "CandidateBlock":
        fixed = perms == np.arange(len(perms))[:, None]
        k = fixed.sum(axis=0)
        counts = np.int64(1) << k
        owner = np.repeat(np.arange(perms.shape[1]), counts)
        # the index of a candidate among its permutation's 2^k, whose bits are
        # the boundary values, the first fixed point most significant
        assignment = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        shift = (k - np.cumsum(fixed, axis=0))[:, owner]
        fixed = fixed[:, owner]
        bits = ((assignment >> shift) & fixed).astype(np.int8)
        return cls(perms, owner, fixed, bits)

    @property
    def face_class(self) -> np.ndarray:
        return self.fixed.sum(axis=0)

    def candidate(self, game: ProductTwoActionGame, n: int) -> EquilibriumCandidate:
        pi = Permutation((self.perms[:, self.owner[n]] + 1).tolist())
        values = {int(i) + 1: int(self.bits[i, n]) for i in np.flatnonzero(self.fixed[:, n])}
        return candidate_for(game, pi, values)


def permutation_blocks(m: int) -> Iterator[np.ndarray]:
    """All permutations of range(m) in lexicographic order, in blocks.

    A block is an (m, s!) array whose columns are permutations.  They share
    their first m - s images, s = min(m, BLOCK_LEN), and order the rest in
    all s! ways.
    """
    s = min(m, BLOCK_LEN)
    orders = kernel.suffix_orders(s)
    for prefix in itertools.permutations(range(m), m - s):
        rest = np.array(sorted(set(range(m)) - set(prefix)), dtype=np.int8)
        perms = np.empty((m, orders.shape[1]), dtype=np.int8)
        perms[: m - s] = np.array(prefix, dtype=np.int8)[:, None]
        perms[m - s :] = rest[orders]
        yield perms


def increment_table(game: ProductTwoActionGame) -> np.ndarray:
    """``S[j, x] = sigma_j(x)`` for 0-based j and x: the orderings as an int array."""
    return np.array([s.images for s in game.ctuple.sigma], dtype=np.int64)


def sign_table(game: ProductTwoActionGame) -> np.ndarray:
    """``T[j, i, x]``, the sign of the factor of player j in player i's payoff difference.

    The factor is ``gamma_j - a[i, j]``, where gamma_j is a[x, j] for a code
    x < m (j moved to x) and the boundary value 0 or 1 for x = m or m + 1.
    Its sign comes from comparing integer numerators over the common
    denominator D, so no Fraction is built and nothing can overflow.  The
    diagonal ``T[i, i, :]`` holds (-1)^v_i, so that the product over every j
    of ``T[j, i, code_j]`` is the sign of player i's payoff difference.
    """
    m = game.m
    numerators = game.coeffs.numerators
    table = np.zeros((m, m, m + 2), dtype=np.int8)
    for j in range(1, m + 1):
        values = [numerators[(x, j)] if x != j else None for x in range(1, m + 1)]
        values += [0, game.coeffs.denominator]
        for i in range(1, m + 1):
            if i == j:
                table[j - 1, i - 1] = -1 if game.ctuple.v[i - 1] else 1
                continue
            n = numerators[(i, j)]
            table[j - 1, i - 1] = [0 if g is None else (g > n) - (g < n) for g in values]
    return table


def classify_by_increment(table: np.ndarray, v: np.ndarray, block: CandidateBlock) -> np.ndarray:
    """Per candidate, True iff it is an equilibrium by the increment criterion.

    ``table`` is ``increment_table`` and ``v`` the sign vector; the threshold
    values never enter.  At every fixed point i the increment
    ``1 + b_i + v_i + zeros_excl_self + c_i`` must be even, where
    ``c_i = #{j moved: sigma_j(pi(j)) >= sigma_j(i)}``.
    """
    perms = block.perms
    c = np.zeros(perms.shape, dtype=np.int8)  # c[i, p]
    for j, (row, images) in enumerate(zip(table, perms)):
        c += (row[images] >= row[:, None]) & (images != j)
    zero = block.fixed & (block.bits == 0)
    zeros_excl_self = zero.sum(axis=0, dtype=np.int8) - zero
    odd = (1 + block.bits + v[:, None] + zeros_excl_self + c[:, block.owner]) & 1
    return ~(block.fixed & (odd == 1)).any(axis=0)


def classify_by_sign(table: np.ndarray, block: CandidateBlock) -> np.ndarray:
    """Per candidate, True iff it is an equilibrium by exact sign evaluation.

    ``table`` is ``sign_table``.  Every boundary player's payoff difference
    must point toward the chosen action: positive at value 1, negative at
    value 0.  Interior players are indifferent by construction.
    """
    m = len(table)
    codes = np.where(block.fixed, m + block.bits, block.perms[:, block.owner])
    signs = np.ones(codes.shape, dtype=np.int8)  # signs[i, n]
    for factor, code in zip(table, codes):
        signs *= factor[:, code]
    return ~(block.fixed & (signs != 2 * block.bits - 1)).any(axis=0)


def classified_blocks(
    game: ProductTwoActionGame, method: Method
) -> Iterator[tuple[CandidateBlock, np.ndarray]]:
    """Every candidate block with its equilibrium mask, in enumeration order.

    With ``method="both"`` both routes classify every candidate, and the
    first candidate on which they differ raises ``MethodDisagreement``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "sign":
        inc_table = increment_table(game)
        v = np.array(game.ctuple.v, dtype=np.int8)
    if method != "increment":
        sgn_table = sign_table(game)
    for perms in permutation_blocks(game.m):
        block = CandidateBlock.of(perms)
        if method == "sign":
            yield block, classify_by_sign(sgn_table, block)
            continue
        by_inc = classify_by_increment(inc_table, v, block)
        if method == "both":
            by_sign = classify_by_sign(sgn_table, block)
            mismatch = np.flatnonzero(by_inc != by_sign)
            if mismatch.size:
                n = mismatch[0]
                raise MethodDisagreement(
                    block.candidate(game, n), bool(by_inc[n]), bool(by_sign[n])
                )
        yield block, by_inc


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
    game: ProductTwoActionGame, method: Method = "both", use_kernel: bool = True
) -> CensusReport:
    """Count candidates and equilibria per face class.

    With ``method="increment"`` the census kernel counts them from the
    characteristic tuple (set ``use_kernel=False`` to classify every
    candidate instead).  ``use_kernel`` only matters for ``increment``: the
    other methods always classify every candidate, since the sign route
    reads the threshold values, which the kernel never sees.  Raises
    ``MethodDisagreement`` if the routes of ``method="both"`` differ on a
    candidate, and ``RuntimeError`` if the candidate counts per face class
    differ from ``candidates_on_face_class``.
    """
    m = game.m
    counted_by = "kernel" if use_kernel and method == "increment" else "streaming"
    if counted_by == "kernel":
        v = list(game.ctuple.v)
        sigma = [list(s.images) for s in game.ctuple.sigma]
        cand, eq = kernel.census_increment(m, v, sigma)
    else:
        cand_counts = np.zeros(m + 1, dtype=np.int64)
        eq_counts = np.zeros(m + 1, dtype=np.int64)
        for block, ok in classified_blocks(game, method):
            face_class = block.face_class
            cand_counts += np.bincount(face_class, minlength=m + 1)
            eq_counts += np.bincount(face_class[ok], minlength=m + 1)
        cand, eq = cand_counts.tolist(), eq_counts.tolist()
    expected = [candidates_on_face_class(m, l) for l in range(m + 1)]
    if cand != expected:
        raise RuntimeError(f"candidate counts per face class are {cand}, expected {expected}")
    return CensusReport(m, method, cand, eq, counted_by)


def equilibria(
    game: ProductTwoActionGame, method: Method = "both"
) -> list[EquilibriumCandidate]:
    """All candidates classified as equilibria, in enumeration order."""
    return [
        block.candidate(game, n)
        for block, ok in classified_blocks(game, method)
        for n in np.flatnonzero(ok)
    ]
