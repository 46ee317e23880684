"""Permutation, derangement and counting primitives.

Player indices are 1-based everywhere in this module; a permutation of the
player set {1..m} is stored as a dense image sequence.  All counts are exact
arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence


class Permutation:
    """A permutation of {1..m} stored as its image sequence.

    ``images[k]`` is the image of ``k + 1``; the call operator uses 1-based
    arguments, so ``p(i) == p.images[i - 1]``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        m = len(images)
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection of {{1..{m}}}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(1, m + 1))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise IndexError(f"index {i} outside 1..{len(self.images)}")
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def subfactorial(n: int) -> int:
    """Number of derangements of an n-element set, via !n = n*!(n-1) + (-1)^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    value = 1
    for k in range(1, n + 1):
        value = k * value + (-1) ** k
    return value


def candidate_count(m: int) -> int:
    """Total number of equilibrium candidates of a product game: sum of m!/l!."""
    if m < 1:
        raise ValueError("m must be positive")
    fact_m = math.factorial(m)
    return sum(fact_m // math.factorial(l) for l in range(m + 1))


def candidates_on_face_class(m: int, l: int) -> int:
    """Number of candidates with exactly l boundary coordinates: C(m,l)*2^l*!(m-l)."""
    if not 0 <= l <= m:
        raise ValueError(f"l must be in 0..{m}")
    return math.comb(m, l) * 2**l * subfactorial(m - l)


def maximal_equilibrium_count(m: int) -> int:
    """Equilibrium count of a maximal product game: (candidate_count(m) + !m) / 2."""
    total = candidate_count(m) + subfactorial(m)
    if total % 2:
        raise ArithmeticError(f"V({m}) + !{m} = {total} is odd")
    return total // 2


def enumerate_derangements(m: int) -> Iterator[Permutation]:
    """All fixed-point-free permutations of {1..m}, lexicographic order."""
    for images in itertools.permutations(range(1, m + 1)):
        if all(img != i for i, img in enumerate(images, start=1)):
            yield Permutation(images)


def block_swap_permutation(m: int, i: int) -> Permutation:
    """The permutation fixing i that swaps the blocks below and above i.

    It is order-preserving on {1..i-1} and on {i+1..m} separately and maps the
    upper block below the lower block: players i+1..m take the m - i lowest
    values other than i, in order, and players 1..i-1 the rest, in order.  So
    for j1 < j2 both different from i, the images are out of order exactly
    when j1 < i < j2.  These permutations make up the characteristic tuple of
    the maximal product game.
    """
    if not 1 <= i <= m:
        raise ValueError(f"i must be in 1..{m}")
    others = [v for v in range(1, m + 1) if v != i]
    return Permutation(others[m - i :] + [i] + others[: m - i])
