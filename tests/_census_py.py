"""Pure-Python census oracle for the kernel tests.

Counts, per face class l, the equilibrium candidates and the equilibria of a
product game given only its characteristic tuple.  The classification is the
increment computation: a candidate is an equilibrium iff every increment at a
fixed point of its permutation vanishes.  No threshold values enter; the
arithmetic is integers mod 2 throughout.

It walks every permutation and every boundary assignment literally, with none
of the shortcuts of ``twoaction.kernel``, so it is the reference the NumPy
kernel is tested against.  It lives in ``tests/`` because nothing in the
library may fall back to it.
"""

from __future__ import annotations

import itertools


def census_increment(m: int, v: list[int], sigma: list[list[int]]) -> tuple[list[int], list[int]]:
    """Candidate and equilibrium counts per face class.

    ``v`` is the 0/1 sign vector, ``sigma[j][i]`` the image of player i+1
    under the (j+1)-th associated permutation (0-based storage of 1-based
    values).  Returns (candidates, equilibria), both indexed by the face
    class l = number of boundary coordinates.
    """
    cand = [0] * (m + 1)
    eq = [0] * (m + 1)
    for perm in itertools.permutations(range(m)):
        fixed = [i for i in range(m) if perm[i] == i]
        k = len(fixed)
        cand[k] += 1 << k
        if k == 0:
            eq[0] += 1
            continue
        # 1 + v_i plus the chi sum over non-fixed positions, mod 2
        base = []
        for i in fixed:
            s = 1 + v[i]
            si = [sigma[j][i] for j in range(m)]
            for j in range(m):
                if perm[j] != j and sigma[j][perm[j]] >= si[j]:
                    s += 1
            base.append(s & 1)
        for boundary in range(1 << k):
            n_zero = k - boundary.bit_count()
            for t in range(k):
                g = (boundary >> t) & 1
                zeros_excl_self = n_zero - (1 - g)
                if (base[t] + g + zeros_excl_self) & 1:
                    break
            else:
                eq[k] += 1
    return cand, eq
