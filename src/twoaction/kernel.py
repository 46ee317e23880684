"""Census kernel: per-face-class candidate and equilibrium counts, in NumPy.

Counts the equilibrium candidates and the equilibria of a product game from
its characteristic tuple alone, by the increment criterion.  Two facts keep
the walk over all m! permutations short.

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

Permutations are walked as a prefix of the first m - s positions times a
suffix of the last s = min(m, SUFFIX_LEN), split by the set of values the
suffix takes.  For a chunk of such value sets the codes of every suffix
ordering and of every prefix ordering are built once, and every (prefix,
suffix) pair of the chunk is tested and tallied in one pass.  A chunk holds
at most CHUNK_ROWS pairs: whole value sets while they fit, else one value
set with its prefixes split, and never less than one prefix's s! orderings.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

KERNEL = "numpy"

SUFFIX_LEN = 7  # s! = 5040 suffix orderings per value set
CHUNK_ROWS = 1 << 15  # (prefix, suffix) pairs per vector operation


@functools.cache
def suffix_orders(s: int) -> np.ndarray:
    """All s! orderings of range(s): row c holds the value at position c."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(s)))
    n = math.factorial(s)
    return np.fromiter(flat, dtype=np.int8, count=s * n).reshape(n, s).T.copy()


def _ordering_codes(codes: np.ndarray, sets: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Code of every ordering of each value set over the positions of ``codes``.

    Row i, column c is the XOR over positions j of
    ``codes[j, sets[i, orders[j, c]]]``.
    """
    out = np.zeros((len(sets), orders.shape[1]), dtype=codes.dtype)
    for row, order in zip(codes, orders):
        out ^= np.take(row[sets], order, axis=1)
    return out


def census_increment(m: int, v, sigma) -> tuple[list[int], list[int]]:
    """Candidate and equilibrium counts per face class.

    ``v`` is the 0/1 sign vector, ``sigma[j][i]`` the image of player i+1
    under the (j+1)-th associated permutation (0-based storage of 1-based
    values).  Returns (candidates, equilibria) as lists of Python ints, both
    indexed by the face class l = number of boundary coordinates.
    """
    s = min(m, SUFFIX_LEN)
    p = m - s
    dtype = np.int32 if 2 * m + 1 <= 32 else np.int64
    images = np.asarray(sigma, dtype=np.int64).reshape(m, m)
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    # code[j, a]: M[j, a], the players i with sigma_j(a) >= sigma_j(i), and bit m + j if a == j
    codes = ((images[:, :, None] >= images[:, None, :]) * bits).sum(axis=2)
    codes[np.arange(m), np.arange(m)] = bits << m
    codes[0] ^= sum(1 << i for i in range(m) if not v[i])
    codes = codes.astype(dtype)

    # value sets of the suffix, and the values each leaves to the prefix
    tails = list(itertools.combinations(range(m), s))
    heads = np.array([[a for a in range(m) if a not in t] for t in tails], dtype=np.intp)
    tails = np.array(tails, dtype=np.intp)

    head_orders, tail_orders = suffix_orders(p), suffix_orders(s)
    n_head, n_tail = head_orders.shape[1], tail_orders.shape[1]
    sets_per_chunk = max(1, CHUNK_ROWS // (n_head * n_tail))
    heads_per_chunk = max(1, CHUNK_ROWS // n_tail)
    # tally[2F + ok]: permutations with fixed-point mask F that fail (ok = 0) or pass
    tally = np.zeros(2 << m, dtype=np.int64)
    for lo in range(0, len(tails), sets_per_chunk):
        chunk = slice(lo, lo + sets_per_chunk)
        head = _ordering_codes(codes[:p], heads[chunk], head_orders)
        tail = _ordering_codes(codes[p:], tails[chunk], tail_orders)[:, None, :]
        for a in range(0, n_head, heads_per_chunk):
            pair = head[:, a : a + heads_per_chunk, None] ^ tail
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
