"""Census kernel and the head/tail split of every census, in NumPy.

The kernel counts the equilibrium candidates and the equilibria of a
product game from its characteristic tuple alone, by the increment
criterion.  Two facts keep its pass over all m! permutations short.

* All or nothing.  At a fixed point t of pi the increment is
  ``base_t + zeros + 1`` mod 2, whatever the boundary value of t, where
  ``base_t = 1 + v_t + #{j moved: sigma_j(pi(j)) >= sigma_j(t)}``.  So a
  permutation with k >= 1 fixed points yields 2^(k-1) equilibria (the
  assignments with the right parity of zeros) if all its base_t agree, and
  none otherwise.  A derangement yields its one candidate as an equilibrium.
* One bitmask.  With ``M[j, a]`` the set of players i with
  ``sigma_j(a) >= sigma_j(i)`` (and ``M[j, j]`` empty), bit t of
  ``X = (1 + v) XOR M[0, pi(0)] XOR ... XOR M[m-1, pi(m-1)]`` is base_t.
  A permutation with fixed-point mask F passes iff ``X & F`` is 0 or F.

Packed codes.  ``code[j, a]`` holds ``M[j, a]`` in its low m bits and, when
``a == j``, bit ``m + j``; ``1 + v`` is folded into position 0.  The XOR of
a permutation's codes is then X in the low m bits and F above them, since the
fixed-point bits of different positions never overlap.  X and F take 2m bits,
so with a sign bit int32 holds them up to m = 15 and int64 above.

The halves.  Both censuses split the positions into a head, the first
p = m - s, and a tail, the last s, and pair, for each s-set R of values,
every ordering of the other values on the head with every ordering of R on
the tail (``halves(m, s)``).  A table's XOR or OR over a permutation's cells
is that of its head's and its tail's (``split_reduce``), and its k fixed
points are the h of its head and the t of its tail.  The streaming blocks
of ``candidate_engine`` take s = ``suffix_len(m)``, one head ordering a
block, and visit the heads in lexicographic order, so every block lists its
s! permutations, and all blocks the m!, in lexicographic order.

The kernel only counts, so it needs no order.  It takes s = ceil(m/2) and
tallies passing pairs per (h, t): a float32 matmul of the pass mask against
a one-hot of the tail orderings' t, folded by the head orderings' h into
int64.  A chunk holds whole value sets, or one set's head orderings in
slices, at most CHUNK_ROWS pairs and at least one head ordering.
"""

from __future__ import annotations

import functools
import itertools
import math

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


def reduce_orderings(rows: np.ndarray, sets: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``op`` over the cells of every ordering of every value set, one row a position.

    ``rows[q]`` is the table row of the q-th of n positions and ``sets[r]``
    holds n values; ``out[r, c]`` reduces ``rows[q, sets[r, orders[q, c]]]``
    over q, with ``orders = orderings(n)``.
    """
    orders = orderings(sets.shape[1])
    out = np.zeros((len(sets), orders.shape[1]), dtype=rows.dtype)
    for row, order in zip(rows, orders):
        op(out, np.take(row[sets], order, axis=1), out=out)
    return out


@functools.lru_cache(maxsize=2)  # one m a census, s = ceil(m/2) or suffix_len(m); 1.3 MB at m = 12
def halves(m: int, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The value sets of a head, the first p = m - s positions, and a tail, the last s.

    ``tail_sets[r]`` is the r-th s-set of values and ``head_sets[r]`` the
    other p values, both increasing.  ``head_fixed[r, i]`` is the number of
    fixed points of the i-th ordering of ``head_sets[r]`` on the head, and
    ``tail_fixed[r, c]`` that of the c-th ordering of ``tail_sets[r]`` on the
    tail, in the order of ``reduce_orderings``.
    """
    chosen = list(itertools.combinations(range(m), s))
    tail_sets = np.array(chosen, dtype=np.int8).reshape(len(chosen), s)
    head_sets = np.array(
        [[a for a in range(m) if a not in values] for values in chosen], dtype=np.int8
    ).reshape(len(chosen), m - s)
    eye = np.eye(m, dtype=np.int8)
    head_fixed = reduce_orderings(eye[: m - s], head_sets, np.add)
    tail_fixed = reduce_orderings(eye[m - s :], tail_sets, np.add)
    tables = head_sets, tail_sets, head_fixed, tail_fixed
    for table in tables:  # cached: every census of this m shares them
        table.flags.writeable = False
    return tables


def split_reduce(table: np.ndarray, s: int, op: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (a ufunc, identity 0) over every permutation's cells, as a head and a tail.

    The cells are ``table[j, pi(j)]``.  With ``halves(m, s)``, ``head[r, i]``
    reduces those of the first m - s positions under the i-th ordering of
    ``head_sets[r]``, and ``tail[r, c]`` those of the last s under the c-th
    ordering of ``tail_sets[r]``, so that pair reduces to
    ``op(head[r, i], tail[r, c])``.
    """
    head_sets, tail_sets, _, _ = halves(len(table), s)
    p = head_sets.shape[1]
    return reduce_orderings(table[:p], head_sets, op), reduce_orderings(table[p:], tail_sets, op)


def order_masks(sigma) -> np.ndarray:
    """``M[j, a]``, the players i with ``sigma_j(a) >= sigma_j(i)``, as bit masks.

    ``sigma[j][i]`` is ``sigma_j(i)``; ``M[j, j]`` is empty, as j is then fixed.
    """
    images = np.asarray(sigma, dtype=np.int64)
    masks = (images[:, :, None] >= images[:, None, :]) @ (np.int64(1) << np.arange(len(images)))
    np.fill_diagonal(masks, 0)
    return masks


def census_increment(m: int, v, sigma) -> tuple[list[int], list[int]]:
    """Candidate and equilibrium counts per face class.

    ``v`` is the 0/1 sign vector, ``sigma[j][i]`` the image of player i+1
    under the (j+1)-th associated permutation (0-based storage of 1-based
    values).  Returns (candidates, equilibria) as lists of Python ints, both
    indexed by the face class l = number of boundary coordinates.
    """
    dtype = np.int32 if 2 * m + 1 <= 32 else np.int64
    codes = order_masks(np.reshape(sigma, (m, m)))
    codes[np.arange(m), np.arange(m)] = np.int64(1) << np.arange(m, 2 * m)
    codes[0] ^= sum(1 << i for i in range(m) if not v[i])
    codes = codes.astype(dtype)
    s = (m + 1) // 2
    p = m - s
    _, _, head_fixed, tail_fixed = halves(m, s)
    head, tail = split_reduce(codes, s, np.bitwise_xor)

    heads, tails = head.shape[1], tail.shape[1]
    if heads * tails <= CHUNK_ROWS:  # whole value sets a chunk
        sets_per, rows = CHUNK_ROWS // (heads * tails), heads
    else:  # one value set a chunk, its head orderings in slices
        sets_per, rows = 1, max(1, CHUNK_ROWS // tails)
    h_eye, t_eye = np.eye(p + 1), np.eye(s + 1, dtype=np.float32)
    # tally[0, h, t]: pairs visited whose head has h fixed points and tail t; tally[1]: passing
    tally = np.zeros((2, p + 1, s + 1), dtype=np.int64)
    for r in range(0, len(head), sets_per):
        by_t = t_eye.take(tail_fixed[r : r + sets_per], axis=0)  # one-hot, (sets, tails, s + 1)
        t_count = np.ones(tails, dtype=np.float32) @ by_t
        for i in range(0, heads, rows):
            pair = head[r : r + sets_per, i : i + rows, None] ^ tail[r : r + sets_per, None, :]
            fixed = pair >> m
            hit = np.bitwise_and(pair, fixed, out=pair)
            ok = hit == 0
            ok |= hit == fixed
            passed = ok.astype(np.float32) @ by_t  # per (head ordering, t), each at most s!
            by_h = h_eye.take(head_fixed[r : r + sets_per, i : i + rows], axis=0)
            h_count = np.ones(by_h.shape[1]) @ by_h
            # one chunk's sums, in float64: exact, as a chunk has far fewer than 2^53 pairs
            tally[0] += (h_count.T @ t_count).astype(np.int64)
            tally[1] += (by_h.reshape(-1, p + 1).T @ passed.reshape(-1, s + 1)).astype(np.int64)

    # fold (h, t) into the pair's fixed-point count k = h + t
    by_k = np.zeros((2, m + 1), dtype=np.int64)
    for h in range(p + 1):
        by_k[:, h : h + s + 1] += tally[:, h]
    perms, passing = by_k
    cand = [int(n) << k for k, n in enumerate(perms)]
    eq = [int(perms[0])] + [int(n) << (k - 1) for k, n in enumerate(passing) if k]
    return cand, eq
