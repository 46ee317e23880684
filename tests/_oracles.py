"""Cross-check oracles: independent routes to quantities the library computes.

Nothing in the library uses these; the tests compare the library against
them.  The counting routes use other formulas than ``combinatorics``, and
``materialize_per_entry`` builds a product game's payoff tensor one entry at
a time in Fraction arithmetic, where ``ProductTwoActionGame.tensor`` works in
integers over one common denominator.
"""

import math
from fractions import Fraction

from twoaction.combinatorics import Permutation, candidates_on_face_class, chi
from twoaction.game_model import EXACT, TwoActionGame, profile_bits


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
