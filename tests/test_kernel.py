import importlib.util
import math
import random

import pytest

from _census_py import census_increment as census_py
from twoaction import kernel
from twoaction.candidate_engine import census
from twoaction.combinatorics import (
    block_swap_permutation,
    candidate_count,
    candidates_on_face_class,
    maximal_equilibrium_count,
    subfactorial,
)
from twoaction.game_model import maximal_game


def _as_kernel_args(ctuple):
    m = ctuple.m
    v = list(ctuple.v)
    sigma = [[s(i) for i in range(1, m + 1)] for s in ctuple.sigma]
    return m, v, sigma


def _maximal_args(m):
    sigma = [[block_swap_permutation(m, j)(i) for i in range(1, m + 1)] for j in range(1, m + 1)]
    return m, [0] * m, sigma


class TestKernelSelection:
    def test_a_kernel_is_selected(self):
        assert kernel.KERNEL == "numpy"
        assert callable(kernel.census_increment)

    def test_no_fallback_kernel(self):
        # exactly one kernel exists: no slower twin can be picked up at import
        for name in ("twoaction._census_py", "twoaction._census_cy"):
            assert importlib.util.find_spec(name) is None


class TestKernelAgreement:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_maximal_tuple(self, m):
        args = _as_kernel_args(maximal_game(m).ctuple)
        assert kernel.census_increment(*args) == census_py(*args)

    def test_random_tuples(self, random_characteristic_tuple):
        rng = random.Random(17)
        for _ in range(300):
            args = _as_kernel_args(random_characteristic_tuple(rng.randint(1, 7), rng))
            assert kernel.census_increment(*args) == census_py(*args)

    def test_prefix_walk_m8(self, random_characteristic_tuple):
        # m = 8 is the first m walked as prefixes times the suffix table
        rng = random.Random(29)
        for _ in range(2):
            args = _as_kernel_args(random_characteristic_tuple(8, rng))
            assert kernel.census_increment(*args) == census_py(*args)

    def test_candidate_counts_always_exact(self, random_characteristic_tuple):
        rng = random.Random(23)
        for _ in range(10):
            m = rng.randint(1, 5)
            args = _as_kernel_args(random_characteristic_tuple(m, rng))
            cand, _ = kernel.census_increment(*args)
            assert sum(cand) == candidate_count(m)
            assert list(cand) == [candidates_on_face_class(m, l) for l in range(m + 1)]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_maximal_closed_form(self, m):
        cand, eq = kernel.census_increment(*_maximal_args(m))
        assert cand == [candidates_on_face_class(m, l) for l in range(m + 1)]
        assert eq == [subfactorial(m)] + [
            math.comb(m, l) * 2 ** (l - 1) * subfactorial(m - l) for l in range(1, m + 1)
        ]
        assert sum(eq) == maximal_equilibrium_count(m)
        assert all(type(n) is int for n in cand + eq)


def test_census_rejects_wrong_candidate_counts(monkeypatch):
    real = kernel.census_increment

    def off_by_one(m, v, sigma):
        cand, eq = real(m, v, sigma)
        return [cand[0] + 1] + cand[1:], eq

    monkeypatch.setattr(kernel, "census_increment", off_by_one)
    with pytest.raises(RuntimeError, match="candidate counts"):
        census(maximal_game(3), "increment")
