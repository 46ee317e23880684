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

Permutations are walked as an ``itertools`` prefix of length m - s times one
table of the s! orderings of the remaining values, s = min(m, SUFFIX_LEN);
the suffix XOR and fixed-point masks depend only on which values remain, so
they are computed once per value set and reused for every ordering of the
prefix.  No array has more than s! rows.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

KERNEL = "numpy"

SUFFIX_LEN = 7  # s! = 5040 rows per vector operation


@functools.cache
def suffix_orders(s: int) -> np.ndarray:
    """All s! orderings of range(s): row c holds the value at position c."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(s)))
    return np.fromiter(flat, dtype=np.int8, count=s * math.factorial(s)).reshape(-1, s).T.copy()


def census_increment(m: int, v, sigma) -> tuple[list[int], list[int]]:
    """Candidate and equilibrium counts per face class.

    ``v`` is the 0/1 sign vector, ``sigma[j][i]`` the image of player i+1
    under the (j+1)-th associated permutation (0-based storage of 1-based
    values).  Returns (candidates, equilibria) as lists of Python ints, both
    indexed by the face class l = number of boundary coordinates.
    """
    s = min(m, SUFFIX_LEN)
    p = m - s
    images = np.asarray(sigma, dtype=np.int64).reshape(m, m)
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    # table[j, a] = M[j, a], the bitmask of players i with sigma_j(a) >= sigma_j(i)
    table = ((images[:, :, None] >= images[:, None, :]) * bits).sum(axis=2)
    table[np.arange(m), np.arange(m)] = 0
    rows = table.tolist()
    x0 = sum(1 << i for i in range(m) if not v[i])

    orders = suffix_orders(s)
    perms = np.zeros(m + 1, dtype=np.int64)  # permutations per fixed-point count
    passing = np.zeros(m + 1, dtype=np.int64)
    for rest in itertools.combinations(range(m), s):
        remaining = np.asarray(rest, dtype=np.int64)
        suffix_x = np.zeros(orders.shape[1], dtype=np.int64)
        suffix_f = np.zeros_like(suffix_x)
        ks = np.zeros_like(suffix_x)
        for j, order in enumerate(orders, start=p):
            values = remaining[order]  # the value at position j, per ordering
            suffix_x ^= table[j, values]
            fixed = values == j
            suffix_f |= fixed * bits[j]
            ks += fixed
        suffix_k = np.bincount(ks, minlength=s + 1)
        head = [a for a in range(m) if a not in rest]
        for prefix in itertools.permutations(head):
            x, f = x0, 0
            for j, a in enumerate(prefix):
                x ^= rows[j][a]
                if a == j:
                    f |= 1 << j
            k0 = f.bit_count()
            mask = suffix_f | f
            hit = (suffix_x ^ x) & mask
            ok = (hit == 0) | (hit == mask)
            perms[k0 : k0 + s + 1] += suffix_k
            passing[k0 : k0 + s + 1] += np.bincount(ks[ok], minlength=s + 1)

    cand = [int(n) << k for k, n in enumerate(perms)]
    eq = [int(perms[0])] + [int(n) << (k - 1) for k, n in enumerate(passing) if k]
    return cand, eq


__all__ = ["census_increment", "KERNEL"]
