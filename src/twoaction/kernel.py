"""Census kernel and the head/tail split of every census, in NumPy.

The kernel counts the equilibrium candidates and the equilibria of a
product game from its characteristic tuple alone, by the increment
criterion.  Two facts keep its pass over all m! permutations short.

* All or nothing.  At a fixed point t of pi the increment is
  ``base_t + zeros + 1`` mod 2, whatever the boundary value of t, where
  ``base_t = 1 + v_t + #{j moved: sigma_j(pi(j)) >= sigma_j(t)}``.  So a
  permutation with k >= 1 fixed points yields 2^(k-1) equilibria (the
  assignments with the right parity of zeros) if all its base_t agree, and
  none otherwise.  A derangement yields its one candidate as an equilibrium,
  and with k = 1 there is one base_t, so it agrees: the !m + m !(m-1)
  permutations with k <= 1, about 1 - 2/e of all m!, are counted untested,
  and only those with k >= 2 are tested, block by block (below).
* One bitmask.  With ``M[j, a]`` the set of players i with
  ``sigma_j(a) >= sigma_j(i)`` (and ``M[j, j]`` empty), bit t of
  ``X = (1 + v) XOR M[0, pi(0)] XOR ... XOR M[m-1, pi(m-1)]`` is base_t.
  A permutation with fixed-point mask F passes iff ``X & F`` is 0 or F.

Packed codes.  ``code[j, a]`` holds ``M[j, a]`` in its low m bits and, when
``a == j``, bit ``m + j``; ``1 + v`` is folded into position 0
(``increment_codes``).  The XOR of a permutation's codes is then X in the
low m bits and F above them, since the fixed-point bits of different
positions never overlap.  X and F take 2m bits, so with a sign bit int32
holds them up to m = 15 and int64 above.  The streaming increment route of
``candidate_engine`` splits the same table.

The halves.  Both censuses split the positions into a head, the first
p = m - s, and a tail, the last s, and pair, for each s-set R of values,
every ordering of the other values on the head with every ordering of R on
the tail (``halves(m, s)``).  A table's XOR or OR over a permutation's cells
is that of its head's and its tail's (``split_reduce``), and its k fixed
points are the h of its head and the t of its tail.  A half is reduced from
its cells ``[position, value, set]``, one position at a time
(``reduce_orderings``).  The kernel's plan holds its cells as flat indices
``position * m + value`` (below), so each half of a census is one ``take``
of its codes before that reduction.  The streaming blocks of
``candidate_engine`` take
s = ``suffix_len(m)``, one head ordering a block, and visit the heads in
lexicographic order, so every block lists its s! permutations, and all
blocks the m!, in lexicographic order.

The kernel only counts, so it needs no order.  It takes s = ceil(m/2) and
groups the value sets by their number j of own values, those that are
positions of their own half.  It relabels each set's positions: where the
set's q-th value is an own value, that value is its q-th position, and the
other positions follow in order.  Then an ordering c fixes exactly the own
slots q with ``orders[q, c] == q``, which depends on the group and c alone,
and one column order per group and half sorts the orderings by their number
of fixed points.  A block is a group's head orderings with h fixed points
against its tail orderings with t >= 2 - h, a rectangle of the sorted
tables; the blocks hold every pair with h + t >= 2 once.  One plan per m
(``census_plan``) holds all a census reads besides its codes: the relabelled
cells of both halves, in group order, and per group the two column orders
and the blocks, each as its head slice, its first tail column and its runs
of equal t.  A chunk holds whole value sets of a block, or one set's head
orderings in slices, at most CHUNK_ROWS pairs and at least one head
ordering; it counts the passing pairs of each run with one
``count_nonzero``.  The per-k counts of the permutations, which the census
checks, are those of the chunks tested plus those counted untested.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

KERNEL = "numpy"

SUFFIX_LEN = 6  # streaming blocks: s = min(m, SUFFIX_LEN), 720 orderings per block
CHUNK_ROWS = 1 << 15  # kernel: (head ordering, tail ordering) pairs per vector operation


def suffix_len(m: int) -> int:
    return min(m, SUFFIX_LEN)


@functools.lru_cache(maxsize=4)  # a census reads orderings(m - s) and orderings(s), at both s
def orderings(n: int) -> np.ndarray:
    """All n! orderings of range(n), in lexicographic order: ``[q, c]`` is position q's value."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    orders = np.fromiter(flat, dtype=np.int8, count=n * math.factorial(n))
    orders = orders.reshape(math.factorial(n), n).T.copy()
    orders.flags.writeable = False  # cached: every caller shares it
    return orders


def reduce_orderings(cells: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``op`` over the cells of every ordering of every value set on n positions.

    ``cells[q, a, r]`` is the cell of the r-th set's q-th position taking
    the set's a-th value.  ``out[r, c]`` reduces ``cells[q, orders[q, c], r]``
    over q, with ``orders = orderings(n)``.
    """
    orders = orderings(len(cells))
    out = np.zeros((orders.shape[1], cells.shape[2]), dtype=cells.dtype)
    for q, order in enumerate(orders):  # [ordering, set]: whole rows gather fastest
        op(out, cells[q].take(order, axis=0), out=out)
    return np.ascontiguousarray(out.T)


@functools.lru_cache(maxsize=2)  # one m a census, s = ceil(m/2) or suffix_len(m); 11 kB at m = 12
def halves(m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The value sets of a head, the first p = m - s positions, and a tail, the last s.

    ``tail_sets[r]`` is the r-th s-set of values and ``head_sets[r]`` the
    other p values, both increasing.
    """
    chosen = list(itertools.combinations(range(m), s))
    tail_sets = np.array(chosen, dtype=np.int8).reshape(len(chosen), s)
    head_sets = np.array(
        [[a for a in range(m) if a not in values] for values in chosen], dtype=np.int8
    ).reshape(len(chosen), m - s)
    for table in (head_sets, tail_sets):  # cached: every census of this m shares them
        table.flags.writeable = False
    return head_sets, tail_sets


def split_reduce(table: np.ndarray, s: int, op: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (a ufunc, identity 0) over every permutation's cells, as a head and a tail.

    The cells are ``table[j, pi(j)]``.  With ``halves(m, s)``, ``head[r, i]``
    reduces those of the first m - s positions under the i-th ordering of
    ``head_sets[r]``, and ``tail[r, c]`` those of the last s under the c-th
    ordering of ``tail_sets[r]``, so that pair reduces to
    ``op(head[r, i], tail[r, c])``.
    """
    head_sets, tail_sets = halves(len(table), s)
    p = head_sets.shape[1]
    return (
        reduce_orderings(table[np.arange(p)[:, None, None], head_sets.T], op),
        reduce_orderings(table[np.arange(p, len(table))[:, None, None], tail_sets.T], op),
    )


def increment_codes(v, sigma) -> np.ndarray:
    """The packed codes of the increment criterion, ``code[j, a]`` (see the module docstring).

    ``v`` is the 0/1 sign vector and ``sigma[j][i]`` is ``sigma_j(i)``.  The
    low m bits of ``code[j, a]`` are ``M[j, a]``, the players i with
    ``sigma_j(a) >= sigma_j(i)``, with ``1 + v`` folded into position 0;
    ``code[j, j]`` is bit ``m + j`` alone, as j is then fixed.
    """
    m = len(v)
    dtype = np.int32 if 2 * m + 1 <= 32 else np.int64
    images = np.asarray(sigma).reshape(m, m)
    bits = np.left_shift(1, np.arange(m, dtype=dtype))
    codes = (images[:, :, None] >= images[:, None, :]) @ bits
    codes[np.arange(m), np.arange(m)] = bits << m
    codes[0] ^= sum(1 << i for i in range(m) if not v[i])
    return codes


class Group(NamedTuple):
    """The value sets of a census plan with the same number of own values.

    ``sets`` is the group's slice of the plan's sets, the last axis of its
    cells.  Relabelled, the i-th
    head ordering has the same number h of fixed points in every set of the
    group, and ``head_order`` lists the orderings by h; likewise the tail's
    by t.  A block ``(heads, first, runs)`` is the sorted head orderings
    ``heads``, all with one h, against the sorted tail orderings from
    ``first`` on, those with t >= 2 - h; ``runs`` lists (k, a, b) for the
    block's tail columns ``a:b``, whose pairs have k = h + t fixed points.
    """

    sets: slice
    head_order: np.ndarray
    tail_order: np.ndarray
    blocks: tuple[tuple[slice, int, tuple[tuple[int, int, int], ...]], ...]


class Plan(NamedTuple):
    """The kernel's cells and blocks, and the number of pairs it counts untested.

    ``head_cells[q, a, r]`` is the flat cell ``position * m + value`` of the
    r-th set, in group order, whose q-th head position takes the set's a-th
    head value, so ``codes.ravel().take(head_cells)`` is what
    ``reduce_orderings`` reduces.  Where that value is a head position (an
    own value), it is the q-th position, so an ordering c fixes exactly the
    own slots q with ``orders[q, c] == q``.  Likewise for the tail.  The
    groups' blocks hold every pair with h + t >= 2 once, and ``skipped[k]``
    is the number of pairs with h + t = k, for k = 0 and 1.
    """

    head_cells: np.ndarray
    tail_cells: np.ndarray
    groups: tuple[Group, ...]
    skipped: tuple[int, int]


def _own_cells(sets: np.ndarray, first: int, m: int) -> np.ndarray:
    """The flat cells ``[q, a, r]`` of the sets ``sets[r]`` of n values on positions ``first..``.

    The r-th set's q-th position takes its a-th value in cell ``[q, a, r]``.
    Each set's own values are the positions of their own slots, and the
    other positions follow in order.
    """
    positions = np.arange(first, first + sets.shape[1], dtype=sets.dtype)
    own = (sets >= first) & (sets < first + len(positions))
    free = ~(positions[:, None] == sets[:, None, :]).any(axis=2)
    relabelled = sets.copy()
    relabelled[~own] = np.broadcast_to(positions, free.shape)[free]
    return relabelled.T.astype(np.intp)[:, None, :] * m + sets.T


def _sorted_orderings(own: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The orderings of ``len(own)`` slots by their fixed points among the ``own`` slots.

    Returns the orderings' indices in that order, and how many of them have
    f fixed points, for f = 0, 1 and up to the most.
    """
    orders = orderings(len(own))
    slots = np.flatnonzero(own)
    fixed = (orders[slots] == slots[:, None]).sum(axis=0)
    return np.argsort(fixed, kind="stable"), np.bincount(fixed, minlength=2).tolist()


@functools.lru_cache(maxsize=2)  # one m a census; 613 kB at m = 12
def census_plan(m: int) -> Plan:
    """The kernel's cells, groups and blocks, with s = ceil(m/2) and p = m - s.

    A set's own values are those that are positions of its half.  A group
    holds the sets with j own tail values, and so j - s + p own head values.
    """
    s = (m + 1) // 2
    p = m - s
    head_sets, tail_sets = halves(m, s)
    own_tail = (tail_sets >= p).sum(axis=1)
    sets = np.argsort(own_tail, kind="stable")
    groups, skipped = [], [0, 0]
    bounds = np.cumsum(np.bincount(own_tail)).tolist()
    for first, stop in zip([0, *bounds], bounds):
        if first == stop:
            continue
        head_order, heads = _sorted_orderings(head_sets[sets[first]] < p)
        tail_order, tails = _sorted_orderings(tail_sets[sets[first]] >= p)
        # the sorted orderings with f fixed points are starts[f] : starts[f + 1]
        head_starts = [0, *itertools.accumulate(heads)]
        tail_starts = [0, *itertools.accumulate(tails)]
        blocks = []
        for h, n in enumerate(heads):
            t0 = max(0, 2 - h)
            tail0 = tail_starts[t0]
            runs = tuple(  # the tail orderings with t fixed points, and k = h + t
                (h + t, tail_starts[t] - tail0, tail_starts[t + 1] - tail0)
                for t in range(t0, len(tails))
                if tails[t]
            )
            if n and runs:
                blocks.append((slice(head_starts[h], head_starts[h + 1]), tail0, runs))
        skipped[0] += (stop - first) * heads[0] * tails[0]
        skipped[1] += (stop - first) * (heads[0] * tails[1] + heads[1] * tails[0])
        groups.append(Group(slice(first, stop), head_order, tail_order, tuple(blocks)))
    plan = Plan(
        _own_cells(head_sets[sets], 0, m),
        _own_cells(tail_sets[sets], p, m),
        tuple(groups),
        tuple(skipped),
    )
    tables = [plan.head_cells, plan.tail_cells]
    tables += [table for g in groups for table in (g.head_order, g.tail_order)]
    for table in tables:
        table.flags.writeable = False  # cached: every census of this m shares them
    return plan


def _tally_block(head, tail, runs, m: int, perms: list[int], passing: list[int]) -> None:
    """Test every pair of a head and a tail ordering of each set, a chunk at a time.

    ``head[r, i]`` and ``tail[r, c]`` are the codes of the block's r-th set;
    ``runs`` lists (k, a, b) for the columns ``a:b`` of ``tail`` whose pairs
    have k fixed points.  Adds each chunk's pairs and passing pairs per k.
    """
    (sets, heads), tails = head.shape, tail.shape[1]
    if heads * tails <= CHUNK_ROWS:  # whole value sets a chunk
        sets_per, heads_per = CHUNK_ROWS // (heads * tails), heads
    else:  # one value set a chunk, its head orderings in slices
        sets_per, heads_per = 1, max(1, CHUNK_ROWS // tails)
    tails_inner = tails >= heads_per  # the longer axis innermost
    for r in range(0, sets, sets_per):
        for i in range(0, heads, heads_per):
            chunk_head = head[r : r + sets_per, i : i + heads_per]
            chunk_tail = tail[r : r + sets_per]
            if tails_inner:  # [set, head ordering, tail ordering]
                pair = chunk_head[:, :, None] ^ chunk_tail[:, None, :]
            else:  # [set, tail ordering, head ordering]
                pair = chunk_tail[:, :, None] ^ chunk_head[:, None, :]
            fixed = pair >> m
            hit = np.bitwise_and(pair, fixed, out=pair)
            ok = hit == 0
            ok |= hit == fixed
            for k, a, b in runs:
                run = ok[..., a:b] if tails_inner else ok[:, a:b]
                perms[k] += run.size
                passing[k] += int(np.count_nonzero(run))


def census_increment(m: int, v, sigma) -> tuple[list[int], list[int]]:
    """Candidate and equilibrium counts per face class.

    ``v`` is the 0/1 sign vector, ``sigma[j][i]`` the image of player i+1
    under the (j+1)-th associated permutation (0-based storage of 1-based
    values).  Returns (candidates, equilibria) as lists of Python ints, both
    indexed by the face class l = number of boundary coordinates.
    """
    plan = census_plan(m)
    codes = increment_codes(v, sigma).ravel()
    head = reduce_orderings(codes.take(plan.head_cells), np.bitwise_xor)
    tail = reduce_orderings(codes.take(plan.tail_cells), np.bitwise_xor)

    # per k = h + t: pairs tested, and those that pass; every pair with k <= 1 passes
    perms, passing = [0] * (m + 1), [0] * (m + 1)
    perms[:2] = passing[:2] = plan.skipped
    for g in plan.groups:
        if not g.blocks:
            continue
        group_head = group_tail = None  # the last group's tables go before these are built
        group_head = head[g.sets].take(g.head_order, axis=1)  # [set, sorted ordering]
        group_tail = tail[g.sets].take(g.tail_order, axis=1)
        for heads, first, runs in g.blocks:
            _tally_block(group_head[:, heads], group_tail[:, first:], runs, m, perms, passing)

    cand = [n << k for k, n in enumerate(perms)]
    eq = [perms[0]] + [n << (k - 1) for k, n in enumerate(passing) if k]
    return cand, eq
