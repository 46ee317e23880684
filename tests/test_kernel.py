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
        # m = 8 pairs 70 value sets' 24 head orderings with their 24 tail orderings
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


def _sizes(m):
    """The two tail sizes a census of m reads: the kernel's and the streaming blocks'."""
    return sorted({(m + 1) // 2, kernel.suffix_len(m)})


def _pairs(m, s):
    """Every pair of ``halves(m, s)`` as (r, i, c, permutation), in the tables' order."""
    head_sets, tail_sets = kernel.halves(m, s)
    head_orders, tail_orders = kernel.orderings(m - s), kernel.orderings(s)
    for r in range(len(tail_sets)):
        for i in range(head_orders.shape[1]):
            head = head_sets[r][head_orders[:, i]].tolist()
            for c in range(tail_orders.shape[1]):
                yield r, i, c, tuple(head + tail_sets[r][tail_orders[:, c]].tolist())


class TestWalk:
    # The streaming blocks walk the permutations in lexicographic order: one
    # head ordering of halves(m, s) a block, the blocks sorted by their heads'
    # images, and each block's tail orderings as the tables list them.
    @pytest.mark.parametrize(
        "m, s", [(m, s) for m in range(1, 8) for s in range(1, m + 1)] + [(9, 6)]
    )
    def test_walk_then_orderings_is_lexicographic(self, m, s):
        perms = [pi for *_, pi in _pairs(m, s)]
        walked = sorted(perms, key=lambda pi: pi[: m - s])  # stable: a head's tails keep order
        assert walked == list(itertools.permutations(range(m)))

    def test_cached_tables_are_read_only(self):
        for n in range(7):
            orders = kernel.orderings(n)
            assert orders.T.tolist() == [list(o) for o in itertools.permutations(range(n))]
        for table in (*kernel.halves(5, 3), kernel.orderings(3)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_cache_is_bounded(self):
        # a census of m splits its tables over halves(m, s) and reads
        # orderings(m - s) and orderings(s), at the kernel's s or the
        # streaming blocks'; a sweep over m at both keeps no more than
        # maxsize of them, and a repeat hits
        caches = kernel.halves, kernel.orderings
        for cache in caches:
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and 2 <= maxsize <= 8
        for m in range(2, 11):
            for s in _sizes(m):
                kernel.split_reduce(np.eye(m, dtype=np.int64), s, np.bitwise_or)
        infos = [cache.cache_info() for cache in caches]
        assert all(info.currsize <= info.maxsize for info in infos)
        kernel.split_reduce(np.eye(10, dtype=np.int64), 6, np.bitwise_or)
        assert [cache.cache_info().misses for cache in caches] == [i.misses for i in infos]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_split_reduce_matches_every_permutation(self, m):
        rng = np.random.default_rng(m)
        table = rng.integers(0, 1 << m, size=(m, m))
        for s in _sizes(m):
            for op in (np.bitwise_xor, np.bitwise_or):
                head, tail = kernel.split_reduce(table, s, op)
                got = {pi: int(op(head[r, i], tail[r, c])) for r, i, c, pi in _pairs(m, s)}
                expected = {
                    pi: int(op.reduce(table[np.arange(m), pi]))
                    for pi in itertools.permutations(range(m))
                }
                assert got == expected


def _fixed_points(m, s):
    """The fixed points of every head and tail ordering of ``halves(m, s)``.

    ``head_fixed[r, i]`` counts the head positions q that the i-th ordering
    of ``head_sets[r]`` maps to q, and ``tail_fixed[r, c]`` likewise for the
    c-th ordering of ``tail_sets[r]`` on the tail positions.
    """
    head_sets, tail_sets = kernel.halves(m, s)
    p = m - s
    head = head_sets[:, kernel.orderings(p)] == np.arange(p)[:, None]  # [r, q, i]
    tail = tail_sets[:, kernel.orderings(s)] == np.arange(p, m)[:, None]
    return head.sum(axis=1), tail.sum(axis=1)


class TestHalves:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_pairs_list_every_permutation_once(self, m):
        for s in range(m + 1):
            head_fixed, tail_fixed = _fixed_points(m, s)
            perms = []
            for r, i, c, pi in _pairs(m, s):
                fixed = sum(a == j for j, a in enumerate(pi))
                assert fixed == head_fixed[r, i] + tail_fixed[r, c]
                perms.append(pi)
            assert sorted(perms) == list(itertools.permutations(range(m)))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_fixed_point_counts_follow_the_closed_form(self, m):
        # C(m, k) !(m - k) permutations have k fixed points, so as many pairs have h + t = k
        for s in _sizes(m):
            head_fixed, tail_fixed = _fixed_points(m, s)
            per_k = [0] * (m + 1)
            for head_row, tail_row in zip(head_fixed, tail_fixed):
                for h, heads in enumerate(np.bincount(head_row).tolist()):
                    for t, tails in enumerate(np.bincount(tail_row).tolist()):
                        per_k[h + t] += heads * tails
            assert per_k == [math.comb(m, k) * subfactorial(m - k) for k in range(m + 1)]

    def test_cache_is_bounded_read_only_and_small(self):
        # the cache keeps the int8 value sets per (m, s), never a float
        # one-hot or a per-ordering table: at m = 12 the 924 sets of 6 values
        # of each half, and the kernel reads orderings(6) for both halves
        maxsize = kernel.halves.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 4
        kernel.halves.cache_clear()
        kernel.orderings.cache_clear()
        report = census(maximal_game(12), "increment")
        assert report.equilibria_per_class == [subfactorial(12)] + [
            math.comb(12, l) * 2 ** (l - 1) * subfactorial(12 - l) for l in range(1, 13)
        ]
        assert report.total_equilibria == maximal_equilibrium_count(12)
        assert kernel.halves.cache_info().currsize == 1
        assert kernel.orderings.cache_info().currsize == 1
        cached = (*kernel.halves(12, 6), kernel.orderings(6))
        assert sum(table.nbytes for table in cached) == 2 * 924 * 6 + 6 * 720
        for table in cached:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_cell_cache_is_bounded_read_only_and_small(self):
        # the kernel's flat cell indices depend on m alone and live in its
        # plan: at m = 12, per half, 6 positions x 6 values x 924 sets (intp)
        maxsize = kernel.census_plan.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 4
        plan = kernel.census_plan(12)
        cached = [plan.head_cells, plan.tail_cells]
        assert all(table.dtype == np.intp for table in cached)
        assert [table.shape for table in cached] == [(6, 6, 924), (6, 6, 924)]
        assert sum(table.nbytes for table in cached) == 2 * 6 * 6 * 924 * 8
        for table in cached:
            assert 0 <= table.min() and table.max() < 12 * 12
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        # one m a census: a sweep keeps no more than maxsize tables, and a repeat hits
        kernel.census_plan.cache_clear()
        for m in range(2, 13):
            kernel.census_plan(m)
        info = kernel.census_plan.cache_info()
        assert info.currsize <= info.maxsize
        assert kernel.census_plan(12).head_cells is kernel.census_plan(12).head_cells
        assert kernel.census_plan.cache_info().misses == info.misses

    def test_plan_cache_is_bounded_read_only_and_small(self):
        # the kernel's one cache keeps integers only, never a float one-hot:
        # at m = 12 the cells above and, per group and half, the 720
        # orderings' sorted indices (intp), and the blocks as Python ints
        maxsize = kernel.census_plan.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 4
        plan = kernel.census_plan(12)
        cached = [plan.head_cells, plan.tail_cells]
        cached += [table for g in plan.groups for table in (g.head_order, g.tail_order)]
        assert all(table.dtype == np.intp for table in cached)
        assert sum(table.nbytes for table in cached) == 2 * 6 * 6 * 924 * 8 + 7 * 2 * 720 * 8
        for table in cached:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        numbers = list(plan.skipped)
        for g in plan.groups:
            for heads, first, runs in g.blocks:
                numbers += [heads.start, heads.stop, first, *itertools.chain(*runs)]
        assert all(type(n) is int for n in numbers)
        # one m a census: a sweep keeps no more than maxsize plans, and a repeat hits
        kernel.census_plan.cache_clear()
        for m in range(2, 13):
            kernel.census_plan(m)
        info = kernel.census_plan.cache_info()
        assert info.currsize <= info.maxsize
        kernel.census_plan(12)
        assert kernel.census_plan.cache_info().misses == info.misses

def _plan_pairs(m):
    """Every pair of ``census_plan(m)`` as (group, sorted head i, sorted tail c, permutation).

    A cell ``position * m + value`` puts ``value`` at ``position``.
    """
    s = (m + 1) // 2
    plan = kernel.census_plan(m)
    head_orders, tail_orders = kernel.orderings(m - s), kernel.orderings(s)
    for n, g in enumerate(plan.groups):
        for r in range(g.sets.start, g.sets.stop):
            # [q, ordering]: the cell of the set's q-th position under each ordering
            head = plan.head_cells[np.arange(m - s)[:, None], head_orders, r]
            tail = plan.tail_cells[np.arange(s)[:, None], tail_orders, r]
            for i, a in enumerate(g.head_order.tolist()):
                for c, b in enumerate(g.tail_order.tolist()):
                    cells = np.concatenate([head[:, a], tail[:, b]])
                    pi = np.full(m, -1)
                    pi[cells // m] = cells % m
                    yield n, i, c, tuple(pi.tolist())


def _group_fixed(m, plan, g):
    """The fixed points of a group's sorted head and tail orderings, read from its cells.

    The i-th sorted head ordering puts, at the position ``cell // m`` of a
    set's q-th head cell, the value ``cell % m``; it fixes that position when
    the two are equal.  Every set of the group must agree; likewise the tail.
    """
    fixed = []
    for cells, order in ((plan.head_cells, g.head_order), (plan.tail_cells, g.tail_order)):
        cells = cells[:, :, g.sets]  # [q, a, r]
        orders = kernel.orderings(len(cells))[:, order]
        chosen = cells[np.arange(len(cells))[:, None], orders]  # [q, sorted ordering, r]
        per_set = (chosen // m == chosen % m).sum(axis=0).T
        assert (per_set == per_set[0]).all()
        fixed.append(per_set[0])
    return fixed


class TestPlan:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_sorted_orderings_list_every_permutation_once(self, m):
        # relabelled, a group's c-th sorted ordering has the same fixed
        # points in every set, in increasing order, and the runs of the
        # blocks name the fixed points k of their pairs
        plan = kernel.census_plan(m)
        fixed = [_group_fixed(m, plan, g) for g in plan.groups]
        named = {}
        for n, g in enumerate(plan.groups):
            for heads, first, runs in g.blocks:
                for k, a, b in runs:
                    for i in range(heads.start, heads.stop):
                        named.update({(n, i, c): k for c in range(first + a, first + b)})
        perms = []
        for n, i, c, pi in _plan_pairs(m):
            h, t = fixed[n]
            assert (np.diff(h) >= 0).all() and (np.diff(t) >= 0).all()
            k = sum(a == j for j, a in enumerate(pi))
            assert k == h[i] + t[c]
            if k >= 2:
                assert named[n, i, c] == k
            else:
                assert (n, i, c) not in named
            perms.append(pi)
        assert sorted(perms) == list(itertools.permutations(range(m)))


class TestWork:
    """The pairs the kernel tests, read from its plan.

    The counts are exact, so a change in kernel work shows here even when
    wall time is too noisy to show it.
    """

    @pytest.mark.parametrize("m", range(1, 13))
    def test_blocks_cover_the_pairs_with_two_or_more_fixed_points_once(self, m):
        plan = kernel.census_plan(m)
        tested = 0
        for g in plan.groups:
            h, t = _group_fixed(m, plan, g)
            cover = np.zeros((len(h), len(t)), dtype=np.int64)
            for heads, first, runs in g.blocks:
                # the runs tile the block's tail columns, each with one k = h + t
                assert [a for _, a, _ in runs] == [0] + [b for *_, b in runs[:-1]]
                assert first + runs[-1][2] == len(t)
                for k, a, b in runs:
                    assert (h[heads, None] + t[first + a : first + b] == k).all()
                    cover[heads, first + a : first + b] += 1
            assert (cover == (h[:, None] + t >= 2)).all()
            tested += (g.sets.stop - g.sets.start) * int(cover.sum())
        # of the m! permutations, !m have no fixed point and m * !(m - 1) one
        assert tested == math.factorial(m) - subfactorial(m) - m * subfactorial(m - 1)
        assert plan.skipped == (subfactorial(m), m * subfactorial(m - 1))
        if m == 9:
            assert tested == 95_887


class TestChunkBoundaries:
    # The kernel tests blocks: in one group of value sets, the head orderings
    # with h fixed points against the tail orderings with t >= 2 - h.  A
    # chunk holds CHUNK_ROWS // (heads * tails) whole sets of a block if one
    # set fits, and otherwise max(1, CHUNK_ROWS // tails) of one set's head
    # orderings.  The splits below name the block (g, h) whose boundary they
    # hit, g its group's index in census_plan(m).groups, with its sets x
    # heads x tails.
    @pytest.mark.parametrize(
        "m, splits",
        [
            (
                7,
                [
                    100,  # (1, 1), 18 x 2 x 10: 5 sets a chunk; the last chunk 3 sets
                    9,  # (2, 0), 12 x 3 x 4: 2 head orderings a chunk, then a short slice of 1
                    10,  # (2, 1), 12 x 2 x 13: below its 13 tails, one head ordering a chunk
                    1 << 15,  # the default: every block's sets in one chunk
                ],
            ),
            (
                8,
                [
                    1100,  # (2, 1), 36 x 8 x 10: 13 sets a chunk; the last chunk 10 sets
                    20,  # (2, 0), 36 x 14 x 2: 10 head orderings a chunk, then a short slice of 4
                    12,  # (3, 2), 16 x 3 x 24: below its 24 tails, one head ordering a chunk
                ],
            ),
        ],
    )
    def test_split_walks_match_oracle(self, m, splits, monkeypatch, random_characteristic_tuple):
        rng = random.Random(m)
        cases = [_maximal_args(m), _as_kernel_args(random_characteristic_tuple(m, rng))]
        expected = [census_py(*args) for args in cases]
        for chunk_rows in splits:
            monkeypatch.setattr(kernel, "CHUNK_ROWS", chunk_rows)
            assert [kernel.census_increment(*args) for args in cases] == expected

    @pytest.mark.parametrize("m, seed", [(8, 37), (9, 31), (10, 41)])
    def test_random_tuple_matches_streaming_route(self, m, seed, random_characteristic_tuple):
        ctuple = random_characteristic_tuple(m, random.Random(seed))
        report = census(build_product_game(ctuple), "increment", use_kernel=False)
        assert kernel.census_increment(*_as_kernel_args(ctuple)) == (
            report.candidates_per_class,
            report.equilibria_per_class,
        )


def test_census_rejects_wrong_candidate_counts(monkeypatch):
    real = kernel.census_increment

    def off_by_one(m, v, sigma):
        cand, eq = real(m, v, sigma)
        return [cand[0] + 1] + cand[1:], eq

    monkeypatch.setattr(kernel, "census_increment", off_by_one)
    with pytest.raises(RuntimeError, match="candidate counts"):
        census(maximal_game(3), "increment")


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_census_rejects_a_plan_that_misses_or_repeats_a_block(monkeypatch, change):
    # the per-k counts checked against C(m, k) !(m - k) are those of the
    # blocks tested plus the pairs passed untested, so each block counts
    plan = kernel.census_plan(6)
    tried = 0
    for n, g in enumerate(plan.groups):
        for b in range(len(g.blocks)):
            if change == "drop":
                blocks = g.blocks[:b] + g.blocks[b + 1 :]
            else:
                blocks = g.blocks[: b + 1] + g.blocks[b:]
            groups = plan.groups[:n] + (g._replace(blocks=blocks),) + plan.groups[n + 1 :]
            monkeypatch.setattr(kernel, "census_plan", lambda m: plan._replace(groups=groups))
            with pytest.raises(RuntimeError, match="candidate counts"):
                census(maximal_game(6), "increment")
            tried += 1
    assert tried == sum(len(g.blocks) for g in plan.groups) > 0
