"""Census kernel and the permutation walk that every census shares, in NumPy.

The kernel counts the equilibrium candidates and the equilibria of a
product game from its characteristic tuple alone, by the increment
criterion.  Two facts keep the walk over all m! permutations short.

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

The walk.  Every census visits the m! permutations in lexicographic order,
as each prefix of m - s images then the s! orderings of the values it leaves
(``walk``), and reads a permutation's XOR or OR of table cells from a head
per prefix and a tail per (value set, ordering) (``split_reduce``).  The
kernel tallies chunks of consecutive prefixes, at most CHUNK_ROWS pairs and at
least one prefix a chunk; ``candidate_engine`` classifies one prefix a block.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

KERNEL = "numpy"

SUFFIX_LEN = 6  # s = min(m, SUFFIX_LEN): 720 orderings per prefix
CHUNK_ROWS = 1 << 15  # (prefix, ordering) pairs per vector operation


def suffix_orders(s: int) -> np.ndarray:
    """All s! orderings of range(s): row c holds the value at position c."""
    return walk(s, 0)[0]


def suffix_len(m: int) -> int:
    return min(m, SUFFIX_LEN)


@functools.lru_cache(maxsize=4)  # a census reads walk(m, s) and walk(s, 0); 4 serve two m
def walk(m: int, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefixes of the first m - s images, in lexicographic order, and what each leaves.

    ``prefixes[j, k]`` is position j's image under prefix k, and ``sets[rest[k]]``
    the values it leaves; prefix k, then ``sets[rest[k]]`` in each ordering
    of ``suffix_orders(s)``, lists the permutations of range(m) in order.
    """
    p = m - s
    n = math.perm(m, p)
    flat = itertools.chain.from_iterable(itertools.permutations(range(m), p))
    prefixes = np.fromiter(flat, dtype=np.int8, count=p * n).reshape(n, p).T.copy()
    sets = np.array(list(itertools.combinations(range(m), s)), dtype=np.int8)
    bits = np.int32(1) << np.arange(m, dtype=np.int32)
    index = np.zeros(1 << m, dtype=np.int32)
    index[bits[sets].sum(axis=1)] = np.arange(len(sets), dtype=np.int32)
    used = np.zeros(n, dtype=np.int32)  # one row at a time: no (m - s, n) temporary
    for images in prefixes:
        used |= bits[images]
    tables = prefixes, index[used ^ ((1 << m) - 1)], sets
    for table in tables:  # cached: every caller shares them
        table.flags.writeable = False
    return tables


def split_reduce(table: np.ndarray, op: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (a bitwise ufunc, identity 0) over every permutation's cells, in two parts.

    With ``walk(m, s)``, s = ``suffix_len(m)``, ``head[k]`` reduces prefix
    k's cells ``table[j, prefixes[j, k]]``, and ``tail[r, c]`` the cells of
    the last s positions under the c-th ordering of ``sets[r]``, so prefix k
    then ordering c reduces to ``op(head[k], tail[rest[k], c])``.
    """
    m = len(table)
    s = suffix_len(m)
    prefixes, _, sets = walk(m, s)
    head = np.zeros(prefixes.shape[1], dtype=table.dtype)
    for row, images in zip(table, prefixes):
        op(head, row[images], out=head)
    orders = suffix_orders(s)
    tail = np.zeros((len(sets), orders.shape[1]), dtype=table.dtype)
    for row, order in zip(table[m - s :], orders):
        op(tail, np.take(row[sets], order, axis=1), out=tail)
    return head, tail


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
    head, tail = split_reduce(codes.astype(dtype), np.bitwise_xor)
    _, rest, _ = walk(m, suffix_len(m))

    rows = max(1, CHUNK_ROWS // tail.shape[1])
    # tally[2F + ok]: permutations with fixed-point mask F that fail (ok = 0) or pass
    tally = np.zeros(2 << m, dtype=np.int64)
    for lo in range(0, len(head), rows):
        pair = tail[rest[lo : lo + rows]]
        pair ^= head[lo : lo + rows, None]
        fixed = pair >> m
        hit = np.bitwise_and(pair, fixed, out=pair)
        ok = hit == 0
        ok |= hit == fixed
        fixed <<= 1
        fixed |= ok
        tally += np.bincount(fixed.ravel(), minlength=2 << m)

    # fold the masks F into their fixed-point counts k
    by_k = np.zeros((m + 1, 2), dtype=np.int64)
    np.add.at(by_k, np.bitwise_count(np.arange(1 << m)), tally.reshape(-1, 2))
    perms, passing = by_k.sum(axis=1), by_k[:, 1]
    cand = [int(n) << k for k, n in enumerate(perms)]
    eq = [int(perms[0])] + [int(n) << (k - 1) for k, n in enumerate(passing) if k]
    return cand, eq


__all__ = ["census_increment", "KERNEL"]
