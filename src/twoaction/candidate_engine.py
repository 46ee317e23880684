"""Enumeration and classification of equilibrium candidates of product games.

Every candidate is indexed by a permutation pi of the players together with a
0/1 boundary assignment on the fixed points of pi: non-fixed coordinates sit
at the thresholds gamma_j = a[pi(j), j], fixed coordinates at the assigned
boundary value.  Classification runs by two independent exact routes,
evaluated in NumPy on m-bit player masks (bit i is player i) for every
candidate of a block: the permutations that share their first m - s images,
s = ``kernel.suffix_len(m)``, in the head/tail split of ``kernel.halves``.
The blocks depend on m alone (``candidate_blocks``): a permutation's
fixed-point mask F comes from the same split as the route masks below, and
the masks B of its boundary assignments from one table per m, so a
``Permutation`` is built only for reported candidates, once per reported
permutation (``CandidateBlock.candidates``).

* increment: integer arithmetic mod 2 over the characteristic tuple only,
  through the table sigma_j(x); the threshold values never enter;
* sign: the sign of each factored payoff difference as the product of the
  signs of its factors, from a table built by comparing the integer
  numerators of the thresholds; the orderings sigma never enter.

Each route turns its table into one mask per (position, image), split into
a head and a tail by ``kernel.split_reduce`` once per census, so a
permutation's ``X = XOR_j code[j, pi(j)]`` for increment, and ``X = XOR_j
NEG[j, pi(j)]`` for sign, take one operation each.  Per candidate a route
takes a few operations on its fixed-point mask F and the mask B of its
boundary players at value 1.  The increment route reads the census
kernel's packed table, ``kernel.increment_codes``, but not its
all-or-nothing shortcut: it evaluates the full parity at every fixed point
of every candidate.  The sign route, which never reads the orderings, and
the pure-Python census of the tests are the kernel's independent checks.

Agreement of the two routes on every candidate is the engine's standing
regression check.  The per-candidate versions of both routes, the scalar
enumeration of the candidates and ``candidate_for``, which builds one by
hand, live in the tests, as the reference the blocks are compared against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

import numpy as np

from . import kernel
from .combinatorics import (
    Permutation,
    candidates_on_face_class,
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

    def gamma_floats(self) -> tuple[float, ...]:
        return tuple(float(g) for g in self.gamma)


@functools.lru_cache(maxsize=2)  # a census reads one m; 3^m entries each
def _boundary_layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary masks of every fixed-point mask, in enumeration order.

    ``flat[start[F] : start[F] + 2^|F|]`` lists the masks B, subsets of F,
    of the boundary players at value 1, one per candidate of a permutation
    with fixed-point mask F.  The first fixed point is the most significant
    bit of the assignment, so the last one alternates fastest.
    """
    lists = [np.zeros(1, dtype=np.int64)]
    for f in range(1, 1 << m):
        top = 1 << (f.bit_length() - 1)
        lists.append((lists[f ^ top][:, None] | np.array([0, top])).ravel())
    counts = np.int64(1) << np.bitwise_count(np.arange(1 << m))
    tables = np.concatenate(lists), np.cumsum(counts) - counts
    for table in tables:  # cached: every block shares them
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class CandidateBlock:
    """The candidates of one head's permutations, in enumeration order.

    Players and values are 0-based, and bit i of a mask is player i.  With
    ``kernel.halves(m, kernel.suffix_len(m))``, the block's c-th permutation
    is the i-th ordering of ``head_sets[r]`` on the head followed by the c-th
    ordering of ``tail_sets[r]`` on the tail.  Candidate n belongs to
    permutation ``owner[n]``, whose fixed points are the mask ``F[n]``;
    ``B[n]`` holds the fixed points at boundary value 1.
    """

    r: int
    i: int
    owner: np.ndarray
    F: np.ndarray
    B: np.ndarray

    @property
    def face_class(self) -> np.ndarray:
        return np.bitwise_count(self.F)

    def candidates(self, game: ProductTwoActionGame, ns) -> list[EquilibriumCandidate]:
        """The block's candidates ``ns``, in that order, for the players 1..m.

        One ``Permutation`` is built per distinct ``owner[n]``.  gamma_j is
        the threshold a[pi(j), j] when j moves and the boundary value of j
        when it is fixed.
        """
        m = game.m
        s = kernel.suffix_len(m)
        head_sets, tail_sets = kernel.halves(m, s)
        head = head_sets[self.r][kernel.orderings(m - s)[:, self.i]].tolist()
        values, orders = tail_sets[self.r], kernel.orderings(s)
        thresholds, bounds = game.coeffs.values, (Fraction(0), Fraction(1))
        perms: dict[int, Permutation] = {}
        found = []
        for n in ns:
            c = int(self.owner[n])
            if c not in perms:
                perms[c] = Permutation([x + 1 for x in head + values[orders[:, c]].tolist()])
            pi, fixed, ones = perms[c], int(self.F[n]), int(self.B[n])
            boundary = tuple((j + 1, ones >> j & 1) for j in range(m) if fixed >> j & 1)
            gamma = tuple(
                bounds[ones >> j & 1] if fixed >> j & 1 else thresholds[(x, j + 1)]
                for j, x in enumerate(pi.images)
            )
            found.append(EquilibriumCandidate(pi, boundary, gamma))
        return found


def candidate_blocks(m: int) -> Iterator[CandidateBlock]:
    """The block of every head ordering: all candidates, in enumeration order.

    A permutation's fixed-point mask F is the OR of its cells of the table
    with bit j at (j, j), split by ``kernel.split_reduce`` as every other
    mask is.  The blocks go in the lexicographic order of their heads' images.
    """
    s = kernel.suffix_len(m)
    head, tail = kernel.split_reduce(np.diag(np.int64(1) << np.arange(m)), s, np.bitwise_or)
    head_sets = kernel.halves(m, s)[0]
    key = np.zeros(head.shape, dtype=np.int64)  # head images as a base-m number
    for order in kernel.orderings(m - s):
        key *= m
        key += head_sets.take(order, axis=1)
    flat, start = _boundary_layout(m)
    for k in np.argsort(key, axis=None).tolist():
        r, i = divmod(k, head.shape[1])
        fixed = head[r, i] | tail[r]
        counts = np.int64(1) << np.bitwise_count(fixed)
        owner = np.repeat(np.arange(len(fixed)), counts)
        # candidate n is the (n - first[owner[n]])-th of its permutation
        first = np.cumsum(counts) - counts
        boundary = flat[(start[fixed] - first)[owner] + np.arange(len(owner))]
        yield CandidateBlock(r, i, owner, fixed[owner], boundary)


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


def _player_masks(flags: np.ndarray) -> np.ndarray:
    """``flags[j, i, x]`` as masks over i: entry ``[j, x]`` has bit i iff the flag is set."""
    return np.moveaxis(flags, 1, -1) @ (np.int64(1) << np.arange(flags.shape[1]))


def sign_masks(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``NEG[j, a]`` and ``DT[B]`` of the sign route.

    ``table`` is ``sign_table``.  ``NEG[j, a]`` is the players i whose
    factor of j is negative when j moves to a; at a = j, where j is a fixed
    point, it takes the factor at boundary value 0.  ``DT[B]`` is the players
    whose sign flips when the fixed points in B move from value 0 to 1.
    """
    m = len(table)
    neg = _player_masks(table < 0)
    neg[np.arange(m), np.arange(m)] = neg[:, m]
    in_b = np.arange(1 << m)[:, None] >> np.arange(m) & 1
    dt = np.bitwise_xor.reduce(in_b * (neg[:, m] ^ neg[:, m + 1]), axis=1)
    return neg[:, :m], dt


def classify_by_increment(masks, block: CandidateBlock) -> np.ndarray:
    """Per candidate, True iff it is an equilibrium by the increment criterion.

    ``masks`` is ``kernel.split_reduce`` of ``kernel.increment_codes`` by
    XOR, the census kernel's packed table; the threshold values never enter.
    At every fixed point i the increment ``1 + b_i + v_i + zeros_excl_self +
    c_i`` must be even, where ``c_i = #{j moved: sigma_j(pi(j)) >=
    sigma_j(i)}``.  Bit i of ``X = XOR_j code[j, pi(j)]`` is the parity of
    ``1 + v_i + c_i``; ``& fixed`` drops X's fixed-point bits, above bit m.
    """
    head, tail = masks
    x = head[block.r, block.i] ^ tail[block.r]
    fixed, ones = block.F, block.B
    zeros = fixed & ~ones
    # zeros_excl_self mod 2 at fixed point i: the parity of all zeros, XOR i's own zero
    all_zeros = (np.bitwise_count(zeros) & 1) * fixed
    odd = ones ^ all_zeros ^ zeros ^ x[block.owner]
    return (odd & fixed) == 0


def classify_by_sign(masks, block: CandidateBlock) -> np.ndarray:
    """Per candidate, True iff it is an equilibrium by exact sign evaluation.

    ``masks`` is ``sign_masks`` with NEG split by ``kernel.split_reduce``
    by XOR.  Every boundary player's payoff difference must point toward the
    chosen action: positive at value 1, negative at value 0.  Interior
    players are indifferent by construction.  Bit i of
    ``X = XOR_j NEG[j, pi(j)] XOR DT[B]`` says that player i's payoff
    difference has an odd number of negative factors.  No fixed point has a
    zero factor: a column's thresholds are distinct, so j moved to a has a
    zero factor only in the difference of player a, who moves, and a
    boundary factor is never zero, as every threshold lies in (0, 1).
    """
    (neg_head, neg_tail), dt = masks
    x = neg_head[block.r, block.i] ^ neg_tail[block.r]
    fixed, ones = block.F, block.B
    negative = x[block.owner] ^ dt[ones]
    return (negative ^ ones) & fixed == fixed


def classified_blocks(
    game: ProductTwoActionGame, method: Method
) -> Iterator[tuple[CandidateBlock, np.ndarray]]:
    """Every candidate block with its equilibrium mask, in enumeration order.

    With ``method="both"`` both routes classify every candidate, and the
    first candidate on which they differ raises ``MethodDisagreement``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    s = kernel.suffix_len(game.m)
    if method != "sign":
        codes = kernel.increment_codes(game.ctuple.v, [s_j.images for s_j in game.ctuple.sigma])
        inc_masks = kernel.split_reduce(codes, s, np.bitwise_xor)
    if method != "increment":
        neg, dt = sign_masks(sign_table(game))
        sgn_masks = kernel.split_reduce(neg, s, np.bitwise_xor), dt
    for block in candidate_blocks(game.m):
        if method == "sign":
            yield block, classify_by_sign(sgn_masks, block)
            continue
        by_inc = classify_by_increment(inc_masks, block)
        if method == "both":
            by_sign = classify_by_sign(sgn_masks, block)
            mismatch = np.flatnonzero(by_inc != by_sign)
            if mismatch.size:
                n = mismatch[0]
                (cand,) = block.candidates(game, [n])
                raise MethodDisagreement(cand, bool(by_inc[n]), bool(by_sign[n]))
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


@functools.lru_cache(maxsize=4)
def _candidates_per_class(m: int) -> tuple[int, ...]:
    """The candidate count of every face class l = 0..m, which every census must match."""
    return tuple(candidates_on_face_class(m, l) for l in range(m + 1))


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
    if tuple(cand) != _candidates_per_class(m):
        expected = list(_candidates_per_class(m))
        raise RuntimeError(f"candidate counts per face class are {cand}, expected {expected}")
    return CensusReport(m, method, cand, eq, counted_by)


def equilibria(
    game: ProductTwoActionGame, method: Method = "both"
) -> list[EquilibriumCandidate]:
    """All candidates classified as equilibria, in enumeration order."""
    return [
        cand
        for block, ok in classified_blocks(game, method)
        for cand in block.candidates(game, np.flatnonzero(ok))
    ]
