import importlib.util
import itertools
import math
import random

import numpy as np
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
from twoaction.game_model import build_product_game, maximal_game


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
        # m = 8 walks 56 prefixes of two images, each with its value set's 720 orderings
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

    @pytest.mark.parametrize("m", range(1, 12))
    def test_maximal_closed_form(self, m):
        cand, eq = kernel.census_increment(*_maximal_args(m))
        assert cand == [candidates_on_face_class(m, l) for l in range(m + 1)]
        assert eq == [subfactorial(m)] + [
            math.comb(m, l) * 2 ** (l - 1) * subfactorial(m - l) for l in range(1, m + 1)
        ]
        assert sum(eq) == maximal_equilibrium_count(m)
        assert all(type(n) is int for n in cand + eq)


class TestWalk:
    @pytest.mark.parametrize(
        "m, s", [(m, s) for m in range(1, 8) for s in range(1, m + 1)] + [(9, 6)]
    )
    def test_walk_then_orderings_is_lexicographic(self, m, s):
        prefixes, rest, sets = kernel.walk(m, s)
        orders = kernel.suffix_orders(s)
        perms = [
            tuple(prefixes[:, k]) + tuple(sets[r][orders[:, c]])
            for k, r in enumerate(rest)
            for c in range(orders.shape[1])
        ]
        assert perms == list(itertools.permutations(range(m)))

    def test_cached_tables_are_read_only(self):
        for table in (*kernel.walk(5, 3), kernel.suffix_orders(3)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_cache_is_bounded(self):
        # one census reads walk(m, s) and walk(s, 0); a sweep over m keeps
        # no more than maxsize of them, and a repeated census hits
        maxsize = kernel.walk.cache_info().maxsize
        assert maxsize is not None and 2 <= maxsize <= 8
        for m in range(2, 10):
            kernel.census_increment(*_maximal_args(m))
        info = kernel.walk.cache_info()
        assert info.currsize <= maxsize
        kernel.census_increment(*_maximal_args(9))
        assert kernel.walk.cache_info().misses == info.misses
        for table in (*kernel.walk(9, 6), kernel.suffix_orders(6)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_split_reduce_matches_every_permutation(self, m):
        rng = np.random.default_rng(m)
        table = rng.integers(0, 1 << m, size=(m, m))
        _, rest, _ = kernel.walk(m, kernel.suffix_len(m))
        for op in (np.bitwise_xor, np.bitwise_or):
            head, tail = kernel.split_reduce(table, op)
            got = op(head[:, None], tail[rest]).ravel().tolist()
            expected = [
                int(op.reduce(table[np.arange(m), pi])) for pi in itertools.permutations(range(m))
            ]
            assert got == expected


class TestChunkBoundaries:
    # A chunk is CHUNK_ROWS // s! consecutive prefixes of the walk, and at
    # least one.  At m = 7, s = 3 the walk has 840 prefixes of 4 images,
    # in runs of 4 that share the first 3; at m = 8, s = 4, 1680 prefixes
    # in runs of 5.
    @pytest.mark.parametrize(
        "m, splits",
        [
            (
                7,
                [
                    (3, 66),  # 11 prefixes a chunk, splitting runs; the last chunk 4
                    (3, 5),  # below s! = 6: one prefix a chunk, the s! floor
                    (1, 1000),  # s = 1: 1000 prefixes of one ordering a chunk, the last 40
                    (7, 100),  # s = m: the one empty prefix, 5040 orderings past the cap
                ],
            ),
            (
                8,
                [
                    (4, 2000),  # 83 prefixes a chunk, splitting runs; the last chunk 20
                    (4, 20),  # below s! = 24: the s! floor
                    (1, 1 << 15),  # s = 1: two chunks, the last 7552 prefixes
                    (8, 1000),  # s = m: one chunk of all 40320 orderings
                ],
            ),
        ],
    )
    def test_split_walks_match_oracle(self, m, splits, monkeypatch, random_characteristic_tuple):
        rng = random.Random(m)
        cases = [_maximal_args(m), _as_kernel_args(random_characteristic_tuple(m, rng))]
        expected = [census_py(*args) for args in cases]
        for suffix_len, chunk_rows in splits:
            monkeypatch.setattr(kernel, "SUFFIX_LEN", suffix_len)
            monkeypatch.setattr(kernel, "CHUNK_ROWS", chunk_rows)
            assert [kernel.census_increment(*args) for args in cases] == expected

    def test_random_m9_matches_streaming_route(self, random_characteristic_tuple):
        ctuple = random_characteristic_tuple(9, random.Random(31))
        report = census(build_product_game(ctuple), "increment", use_kernel=False)
        cand, eq = kernel.census_increment(*_as_kernel_args(ctuple))
        assert cand == report.candidates_per_class
        assert eq == report.equilibria_per_class


def test_census_rejects_wrong_candidate_counts(monkeypatch):
    real = kernel.census_increment

    def off_by_one(m, v, sigma):
        cand, eq = real(m, v, sigma)
        return [cand[0] + 1] + cand[1:], eq

    monkeypatch.setattr(kernel, "census_increment", off_by_one)
    with pytest.raises(RuntimeError, match="candidate counts"):
        census(maximal_game(3), "increment")
