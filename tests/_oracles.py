"""Cross-check oracles: independent routes to quantities the library computes.

Nothing in the library uses these; the tests compare the library against
them.  The counting routes use other formulas than ``combinatorics``, and
``materialize_per_entry`` builds a product game's payoff tensor one entry at
a time in Fraction arithmetic, where ``ProductTwoActionGame.tensor`` works in
integers over one common denominator.  ``file_with_tensor`` is a product
game's file in the older format that also stores the tensor, which loading
still checks.  ``increment``, ``classify_by_increment`` and
``classify_by_sign`` classify one candidate object at a time, the sign
route through the ``Fraction`` value of ``lam_factored``; the library
classifies whole blocks of candidates through integer masks.
``boundary_value`` and ``zero_count`` read a candidate's boundary assignment
for the scalar increment.  ``verify_block_swap_tables`` checks the case
tables behind the maximal game's orderings.

``payoff``, ``lam`` and ``lam_at_profile`` evaluate a game's multilinear
extension entry by entry, ``utility`` reads one pure profile through
``profile_index``, and ``chi``, ``fixed_points``, ``is_identity`` and
``is_derangement`` are the order indicator and the permutation helpers the
other oracles and the tests read.

``monomials`` evaluates every monomial of a face at a batch of points by one
``where``/``prod`` over a bit table; the library builds them by doubling.

``solve_all_tracking_every_face`` is ``solver.solve_all`` with every first
pass tracked, the faces with r = 2 and 3 included, which the library solves
in closed form.
``deformation_drift`` measures ``verify_deformation``'s drift and tracking
failures one baseline candidate and one found equilibrium at a time, reading
each candidate's support from its boundary assignment; the library takes one
distance matrix a trial and masks it by support.

``enumerate_permutations`` and ``enumerate_candidates`` walk the candidates
one at a time with ``itertools``, permutations in lexicographic order and a
permutation's boundary assignments with its first fixed point most
significant, each built by ``candidate_for`` from a permutation and a
boundary assignment; the library lists them by blocks of ``kernel.halves``,
one head ordering a block.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from twoaction import solver
from twoaction.candidate_engine import EquilibriumCandidate, MethodDisagreement
from twoaction.combinatorics import (
    Permutation,
    block_swap_permutation,
    candidates_on_face_class,
)
from twoaction.game_model import EXACT, ProductTwoActionGame, TwoActionGame


def chi(a, b) -> int:
    """Order indicator: 1 if a >= b, else 0."""
    return 1 if a >= b else 0


def fixed_points(p: Permutation) -> tuple[int, ...]:
    return tuple(i for i, img in enumerate(p.images, start=1) if img == i)


def is_derangement(p: Permutation) -> bool:
    return not fixed_points(p)


def is_identity(p: Permutation) -> bool:
    return all(img == i for i, img in enumerate(p.images, start=1))


def enumerate_permutations(m: int) -> Iterator[Permutation]:
    """All permutations of {1..m} in lexicographic order of image sequences."""
    if m < 0:
        raise ValueError("m must be non-negative")
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)


def candidate_for(
    game: ProductTwoActionGame, pi: Permutation, boundary_values: dict[int, int]
) -> EquilibriumCandidate:
    """Build the candidate for a permutation and a boundary assignment."""
    fixed = fixed_points(pi)
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
        fixed = fixed_points(pi)
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            yield candidate_for(game, pi, dict(zip(fixed, bits)))


def profile_index(bits: Sequence[int]) -> int:
    """Lexicographic index of a pure profile, player 1 most significant."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def profile_bits(idx: int, m: int) -> tuple[int, ...]:
    return tuple((idx >> (m - k)) & 1 for k in range(1, m + 1))


def utility(game: TwoActionGame, i: int, bits: Sequence[int]):
    """Utility of player i at the pure profile given by its action bits."""
    return game.utilities[i - 1][profile_index(bits)]


def payoff(game: TwoActionGame, i: int, gamma) -> "Fraction | float":
    """Expected utility of player i at a mixed profile (multilinear extension)."""
    gamma = tuple(gamma)
    if len(gamma) != game.m:
        raise ValueError(f"profile has {len(gamma)} coordinates, need {game.m}")
    table = game.utilities[i - 1]
    total = 0
    for idx, u in enumerate(table):
        weight = 1
        for k in range(1, game.m + 1):
            g = gamma[k - 1]
            weight *= g if (idx >> (game.m - k)) & 1 else 1 - g
            if weight == 0:
                break
        if weight != 0:
            total += weight * u
    return total


def lam(game: TwoActionGame, i: int, gamma_minus_i) -> "Fraction | float":
    """Payoff difference of player i between action 1 and action 0.

    ``gamma_minus_i`` holds the m-1 coordinates of the other players in
    increasing player order.
    """
    gamma_minus_i = tuple(gamma_minus_i)
    if len(gamma_minus_i) != game.m - 1:
        raise ValueError(
            f"opponent profile has {len(gamma_minus_i)} coordinates, need {game.m - 1}"
        )
    others = [k for k in range(1, game.m + 1) if k != i]
    table = game.utilities[i - 1]
    total = 0
    for sub in range(2 ** (game.m - 1)):
        weight = 1
        bits = [0] * game.m
        for pos, k in enumerate(others):
            b = (sub >> (game.m - 2 - pos)) & 1
            bits[k - 1] = b
            g = gamma_minus_i[pos]
            weight *= g if b else 1 - g
        if weight == 0:
            continue
        bits[i - 1] = 1
        hi = table[profile_index(bits)]
        bits[i - 1] = 0
        lo = table[profile_index(bits)]
        total += weight * (hi - lo)
    return total


def lam_at_profile(game: TwoActionGame, i: int, gamma) -> "Fraction | float":
    """lam with the full m-coordinate profile supplied (coordinate i ignored)."""
    return lam(game, i, tuple(g for k, g in enumerate(gamma, start=1) if k != i))


def lam_factored(game: ProductTwoActionGame, i: int, gamma) -> Fraction:
    """Exact payoff difference of player i from the factored form.

    Evaluated from the coefficient values (never from the orderings) in
    integers over the common denominator of gamma and a[i, .].
    """
    gamma = tuple(gamma)
    others = [j for j in range(1, game.m + 1) if j != i]
    coords = [gamma[j - 1] for j in others]
    coords = [g if type(g) is Fraction else Fraction(g) for g in coords]
    scale = game.coeffs.denominator
    common = math.lcm(scale, *(g.denominator for g in coords))
    value = -1 if game.ctuple.v[i - 1] else 1
    for j, g in zip(others, coords):
        value *= (
            g.numerator * (common // g.denominator)
            - game.coeffs.numerators[(i, j)] * (common // scale)
        )
    return Fraction(value, common ** len(others))


def monomials(x: np.ndarray) -> np.ndarray:
    """``solver._monomials`` by one ``where``/``prod`` over a table of which
    free players each bit mask holds, the first one most significant."""
    r = x.shape[1]
    bits = (np.arange(2**r) & (1 << np.arange(r - 1, -1, -1)[:, None])) > 0
    return np.where(bits[:, None, :], x.T[:, :, None], 1).prod(axis=0)


def solve_all_tracking_every_face(
    game, config: solver.SolverConfig = solver.SolverConfig()
) -> solver.SolverReport:
    """``solver.solve_all`` with no face solved in closed form: every path is tracked."""
    first_pass = solver._first_pass
    solver._first_pass = lambda target, x: solver._track_paths(target, x, 1)
    try:
        return solver.solve_all(game, config)
    finally:
        solver._first_pass = first_pass


def deformation_drift(baseline, trials) -> tuple[float, list[int], int]:
    """``verify_deformation``'s ``max_drift``, ``tracking_failures`` and
    ``stable_trials`` by a scalar loop over the exact candidates ``baseline``
    and the equilibria each trial found (``trials``, one list a trial).

    A candidate's support has its boundary players at their value and the
    rest free.  A trial fails when its supports, sorted, are not the
    baseline's.  A candidate's drift is its max-norm distance to the nearest
    found point on its support; one with no such point has no drift.
    """
    supports = []
    for cand in baseline:
        values = dict(cand.boundary)
        supports.append(
            tuple(
                (solver.ZERO, solver.ONE)[values[i]] if i in values else solver.FREE
                for i in range(1, len(cand.gamma) + 1)
            )
        )
    failures: list[int] = []
    stable = 0
    max_drift = 0.0
    for t, found in enumerate(trials):
        if len(found) == len(baseline):
            stable += 1
        if sorted(supports) != sorted(eq.support.kinds for eq in found):
            failures.append(t)
        for cand, kinds in zip(baseline, supports):
            drifts = [
                max(abs(float(a) - b) for a, b in zip(cand.gamma, eq.gamma))
                for eq in found
                if eq.support.kinds == kinds
            ]
            max_drift = max(max_drift, min(drifts, default=0.0))
    return max_drift, failures, stable


def subfactorial_pair_recursion(n: int) -> int:
    """Subfactorial via !n = (n-1)(!(n-1) + !(n-2)); cross-check route."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    prev2, prev1 = 1, 0
    for k in range(2, n + 1):
        prev2, prev1 = prev1, (k - 1) * (prev1 + prev2)
    return prev1


def subfactorial_alternating_sum(n: int) -> int:
    """Subfactorial via the inclusion-exclusion closed form sum (-1)^j n!/j!."""
    if n < 0:
        raise ValueError("n must be non-negative")
    fact_n = math.factorial(n)
    return sum((-1) ** j * fact_n // math.factorial(j) for j in range(n + 1))


def candidate_count_by_faces(m: int) -> int:
    """Candidate total summed face class by face class; cross-check route."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(candidates_on_face_class(m, l) for l in range(m + 1))


def block_swap_images_closed_form(m: int, i: int) -> Permutation:
    """Closed-form image sequence of block_swap_permutation; cross-check route."""
    if not 1 <= i <= m:
        raise ValueError(f"i must be in 1..{m}")
    images = []
    for j in range(1, m + 1):
        if j < i:
            images.append(m - i + j + chi(m - i + j, i))
        elif j == i:
            images.append(i)
        else:
            images.append(j - i + chi(j - i, i))
    return Permutation(images)


def materialize_per_entry(game) -> TwoActionGame:
    """Payoff tensor of a product game, entry by entry in Fractions."""
    # U^i is 0 when player i plays action 0, and the factored payoff
    # difference evaluated at the pure profile when they play action 1.
    m = game.m
    sign = [(-1) ** b for b in game.ctuple.v]
    tables = []
    for i in range(1, m + 1):
        table = []
        for idx in range(2**m):
            bits = profile_bits(idx, m)
            if bits[i - 1] == 0:
                table.append(Fraction(0))
                continue
            value = Fraction(sign[i - 1])
            for j in range(1, m + 1):
                if j != i:
                    value *= bits[j - 1] - game.coeffs[(i, j)]
            table.append(value)
        tables.append(table)
    return TwoActionGame(m, tables, mode=EXACT)


def file_with_tensor(game: ProductTwoActionGame) -> dict:
    """``game.to_dict()`` with the exact payoff tensor under ``utilities``,
    keys in the order the older files have them."""
    data = game.to_dict()
    product = data.pop("product")
    return {**data, "utilities": game.tensor.to_dict()["utilities"], "product": product}


def boundary_value(cand: EquilibriumCandidate, i: int) -> int:
    for player, value in cand.boundary:
        if player == i:
            return value
    raise KeyError(f"player {i} is not a fixed point of the permutation")


def zero_count(cand: EquilibriumCandidate) -> int:
    return sum(1 for _, value in cand.boundary if value == 0)


def increment(game: ProductTwoActionGame, cand: EquilibriumCandidate, i: int) -> int:
    """The mod-2 increment of a candidate at a fixed point of its permutation.

    Uses only the characteristic tuple and the boundary assignment; the
    threshold values never enter.
    """
    gamma_i = boundary_value(cand, i)  # raises if i is not a fixed point
    zeros_excl_self = zero_count(cand) - (1 if gamma_i == 0 else 0)
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
        lam = lam_factored(game, i, cand.gamma)
        if value == 1 and lam <= 0:
            return False
        if value == 0 and lam >= 0:
            return False
    return True


def classify(game, cand, method: str) -> bool:
    """One candidate by ``method``; raises ``MethodDisagreement`` when ``both`` differ."""
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
        fixed = fixed_points(pi)
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
