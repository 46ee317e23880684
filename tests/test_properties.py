"""Property-based checks on the algebraic building blocks."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fixed_points, lam_at_profile, payoff, profile_bits, profile_index
from twoaction.combinatorics import block_swap_permutation, candidate_count, subfactorial
from twoaction.game_model import TwoActionGame

@given(st.integers(2, 60))
def test_subfactorial_is_nearest_integer_to_factorial_over_e(n):
    # an independent characterization not used by any implementation
    getcontext().prec = 120
    e = Decimal(1).exp()
    assert subfactorial(n) == round(Decimal(math.factorial(n)) / e)


@given(st.integers(2, 40))
def test_candidate_count_recurrence(m):
    # V(m) = m * V(m-1) + 1, since every length-(m) arrangement either
    # extends one of the V(m-1) shorter ones or is the empty extension
    assert candidate_count(m) == m * candidate_count(m - 1) + 1


@given(st.integers(2, 9))
def test_block_swap_fixes_only_pivot_generically(m):
    for i in range(2, m):
        d = block_swap_permutation(m, i)
        assert fixed_points(d) == (i,)


@given(st.integers(1, 6), st.integers(0, 63))
def test_profile_index_roundtrip(m, idx):
    idx %= 2**m
    assert profile_index(profile_bits(idx, m)) == idx


@st.composite
def exact_games(draw):
    m = draw(st.integers(1, 3))
    entries = st.fractions(
        min_value=-10, max_value=10, max_denominator=20
    )
    tables = [
        [draw(entries) for _ in range(2**m)] for _ in range(m)
    ]
    return TwoActionGame(m, tables)


@settings(max_examples=40, deadline=None)
@given(exact_games(), st.data())
def test_payoff_affine_in_each_coordinate(game, data):
    gamma = [
        data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        for _ in range(game.m)
    ]
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    for i in range(1, game.m + 1):
        for axis in range(game.m):
            lo, hi, mid = list(gamma), list(gamma), list(gamma)
            lo[axis], hi[axis], mid[axis] = Fraction(0), Fraction(1), t
            interpolated = (1 - t) * payoff(game, i, lo) + t * payoff(game, i, hi)
            assert payoff(game, i, mid) == interpolated


@settings(max_examples=40, deadline=None)
@given(exact_games(), st.data())
def test_lam_consistency(game, data):
    gamma = [
        data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        for _ in range(game.m)
    ]
    for i in range(1, game.m + 1):
        hi, lo = list(gamma), list(gamma)
        hi[i - 1], lo[i - 1] = Fraction(1), Fraction(0)
        assert lam_at_profile(game, i, gamma) == payoff(game, i, hi) - payoff(game, i, lo)
