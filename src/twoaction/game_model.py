"""Two-action games as payoff tensors, and the product-game construction.

A game with m players and two actions per player stores, for each player, a
table of 2^m utilities in lexicographic order of the pure profiles
(j_1, ..., j_m), player 1 most significant.  Mixed profiles are points of
[0,1]^m: coordinate i is the probability that player i plays action 1.

Games come in two arithmetic modes.  "exact" games carry Fractions and feed
the combinatorial classification, whose sign decisions must be exact; "float"
games feed the numeric solver and perturbation experiments.

An exact product game holds its thresholds as integer numerators over one
common denominator, and its orderings are checked against them in integers.
Fractions are made only when read: the thresholds by ``CoefficientMatrix.values``
and the payoff tensor by ``ProductTwoActionGame.tensor``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import Permutation, block_swap_permutation

EXACT = "exact"
FLOAT = "float"


class TwoActionGame:
    """m players, two actions each, one utility table of 2^m entries per player."""

    def __init__(self, m: int, utilities: Sequence[Sequence], mode: str = EXACT):
        if m < 1:
            raise ValueError("m must be positive")
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        cast = Fraction if mode == EXACT else float
        # re-casting an entry that already has the mode's type costs about as
        # much as creating it, so such entries are kept as they are
        utilities = [[u if type(u) is cast else cast(u) for u in t] for t in utilities]
        if len(utilities) != m or any(len(t) != 2**m for t in utilities):
            raise ValueError(f"need {m} tables of {2 ** m} entries each")
        self.m = m
        self.mode = mode
        self.utilities = utilities

    def as_float(self) -> "TwoActionGame":
        if self.mode == FLOAT:
            return self
        return TwoActionGame(self.m, self.utilities, mode=FLOAT)

    def tensor(self, i: int) -> np.ndarray:
        """Utility table of player i as a float array of shape (2,)*m."""
        return np.asarray(self.utilities[i - 1], dtype=float).reshape((2,) * self.m)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.mode == EXACT:
            tables = [[_fraction_str(u) for u in t] for t in self.utilities]
        else:
            tables = [list(t) for t in self.utilities]
        return {"m": self.m, "mode": self.mode, "utilities": tables}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TwoActionGame":
        m = _json_field(data, "m", int)
        if m < 1:
            raise ValueError(f"key 'm' must be positive, not {m}")
        mode = _json_field(data, "mode", str)
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"key 'mode' must be {EXACT!r} or {FLOAT!r}, not {mode!r}")
        cast = Fraction if mode == EXACT else float
        stored = _json_field(data, "utilities", list)
        # the shape is checked before any entry is parsed
        if len(stored) != m or any(type(t) is not list or len(t) != 2**m for t in stored):
            raise ValueError(f"key 'utilities': must hold {m} lists of {2**m} entries")
        tables = []
        for i, texts in enumerate(stored):
            table = []
            for k, text in enumerate(texts):
                try:
                    # bool is an int subtype: a JSON true would read as 1
                    if type(text) is bool:
                        raise TypeError("must be a number or a string, not a boolean")
                    value = cast(text)
                    if mode == FLOAT and not math.isfinite(value):
                        raise ValueError(f"{value} is not a finite number")
                except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise ValueError(f"key 'utilities[{i}][{k}]': {exc}") from None
                table.append(value)
            tables.append(table)
        return cls(m, tables, mode=mode)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


_JSON_TYPES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
    type(None): "null",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _json_field(data: Mapping, key: str, kind: type, name: str | None = None):
    """``data[key]`` of a game file, checked to be of JSON type ``kind``.

    A missing key or a value of another type is a ValueError naming the key
    (``name``, when it sits in a nested object).
    """
    name = key if name is None else name
    try:
        value = data[key]
    except KeyError:
        raise ValueError(f"missing key {name!r}") from None
    if type(value) is not kind:
        raise ValueError(f"key {name!r} must be {_JSON_TYPES[kind]}, not {_json_type(value)}")
    return value


def _json_integers(values, name: str) -> list:
    """``values``, checked to be a list of JSON integers: a boolean or 1.0 is not one.

    A value of another type is a ValueError naming the key ``name``.
    """
    if type(values) is not list:
        raise ValueError(f"key {name!r}: must hold lists of integers, not {_json_type(values)}")
    for value in values:
        if type(value) is not int:
            raise ValueError(f"key {name!r}: must hold integers, not {_json_type(value)}")
    return values


def _off_diagonal(m: int) -> list[tuple[int, int]]:
    """The ordered pairs (i, j) of players 1..m with i != j, i most significant."""
    return [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]


@dataclass(frozen=True)
class CharacteristicTuple:
    """Sign vector and per-coordinate threshold orderings of a product game."""

    v: tuple[int, ...]
    sigma: tuple[Permutation, ...]

    def __post_init__(self):
        m = len(self.v)
        if len(self.sigma) != m:
            raise ValueError("v and sigma must have the same length")
        if any(b not in (0, 1) for b in self.v):
            raise ValueError("v must be a 0/1 vector")
        for j, s in enumerate(self.sigma, start=1):
            if len(s) != m:
                raise ValueError(f"sigma[{j}] acts on the wrong set")
            if s(j) != j:
                raise ValueError(f"sigma[{j}] must fix {j}, got image {s(j)}")

    @property
    def m(self) -> int:
        return len(self.v)


class CoefficientMatrix:
    """Thresholds a[i, j] in (0,1) for all ordered pairs i != j of players.

    For each j, the values a[i, j] over i != j are pairwise distinct; sorting
    them in descending order recovers the j-th associated permutation.  The
    matrix holds them exactly as integers over one common denominator:
    ``denominator`` is D and ``numerators[(i, j)]`` the integer a[i, j] * D.
    ``values``, the thresholds as Fractions, is made on first read.
    """

    def __init__(self, m: int, values: Mapping[tuple[int, int], Fraction]):
        fractions = {}
        for i, j in _off_diagonal(m):
            try:
                a = values[(i, j)]
            except KeyError:
                raise ValueError(f"missing coefficient for pair ({i},{j})") from None
            fractions[(i, j)] = a if type(a) is Fraction else Fraction(a)
        denominator = math.lcm(*(a.denominator for a in fractions.values()))
        numerators = {
            key: a.numerator * (denominator // a.denominator) for key, a in fractions.items()
        }
        self._store(m, numerators, denominator)

    @classmethod
    def _from_numerators(
        cls, m: int, numerators: dict[tuple[int, int], int], denominator: int
    ) -> "CoefficientMatrix":
        """The matrix a[i, j] = ``numerators[(i, j)]`` / ``denominator``, D >= 1."""
        matrix = cls.__new__(cls)
        matrix._store(m, numerators, denominator)
        return matrix

    def _store(self, m: int, numerators: dict[tuple[int, int], int], denominator: int):
        """Keep the integers, once 0 < a[i, j] < 1 and each column's values are distinct.

        ``numerators`` holds one entry for every off-diagonal pair, and is kept.
        """
        entries = numerators.values()
        if entries and not (min(entries) > 0 and max(entries) < denominator):
            for i, j in _off_diagonal(m):
                if not 0 < numerators[(i, j)] < denominator:
                    a = Fraction(numerators[(i, j)], denominator)
                    raise ValueError(f"coefficient a[{i},{j}] = {a} outside (0,1)")
        if len({(j, n) for (_, j), n in numerators.items()}) < len(numerators):
            for j in range(1, m + 1):
                column = [numerators[(i, j)] for i in range(1, m + 1) if i != j]
                if len(set(column)) != len(column):
                    raise ValueError(f"coefficients a[.,{j}] are not pairwise distinct")
        self.m = m
        self.numerators = numerators
        self.denominator = denominator

    @cached_property
    def values(self) -> dict[tuple[int, int], Fraction]:
        return {key: Fraction(n, self.denominator) for key, n in self.numerators.items()}

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.values[key]

    def column_permutation(self, j: int) -> Permutation:
        """Recover the j-th associated permutation by descending sort of a[.,j],
        read from the integer numerators over the common denominator."""
        others = sorted(
            (i for i in range(1, self.m + 1) if i != j),
            key=lambda i: self.numerators[(i, j)],
            reverse=True,
        )
        positions = [p for p in range(1, self.m + 1) if p != j]
        images = [0] * self.m
        images[j - 1] = j
        for i, p in zip(others, positions):
            images[i - 1] = p
        return Permutation(images)

    def to_dict(self) -> dict:
        return {f"{i},{j}": _fraction_str(a) for (i, j), a in sorted(self.values.items())}

    @classmethod
    def from_dict(cls, m: int, data: Mapping[str, str]) -> "CoefficientMatrix":
        """The matrix of a product block: one key "i,j" per off-diagonal pair."""
        values = {}
        for key, text in data.items():
            try:
                i, j = (int(part) for part in key.split(","))
                a = Fraction(text)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"coefficient key {key!r}: {exc}") from None
            if not (1 <= i <= m and 1 <= j <= m and i != j) or (i, j) in values:
                raise ValueError(
                    f"coefficient key {key!r}: not an off-diagonal pair of 1..{m}, or repeated"
                )
            values[(i, j)] = a
        return cls(m, values)


def default_coefficients(ctuple: CharacteristicTuple) -> CoefficientMatrix:
    """Equally spaced thresholds a[i,j] = (m+1 - sigma^j(i)) / (m+1).

    Any choice realizing the orderings would do; this one keeps every
    denominator at m+1, so the numerators are m+1 - sigma^j(i) over D = m+1.
    """
    m = ctuple.m
    numerators = {
        (i, j): m + 1 - x
        for j, s in enumerate(ctuple.sigma, start=1)
        for i, x in enumerate(s.images, start=1)
        if i != j
    }
    # at m = 1 there is no threshold, and D is 1, the lcm of no denominators
    return CoefficientMatrix._from_numerators(m, numerators, m + 1 if numerators else 1)


class ProductTwoActionGame:
    """A two-action game whose payoff differences factor into linear terms.

    For player i the payoff difference is
    (-1)^v_i * prod over j != i of (gamma_j - a[i,j]).
    The payoff tensor is built on first read of ``tensor``; the increment
    census reads only the characteristic tuple and never builds it.
    """

    def __init__(self, ctuple: CharacteristicTuple, coeffs: CoefficientMatrix):
        if coeffs.m != ctuple.m:
            raise ValueError("coefficient matrix size does not match tuple")
        numerators = coeffs.numerators
        for j, s in enumerate(ctuple.sigma, start=1):
            # a[., j]'s numerators, listed by their player's image under
            # sigma_j, must fall strictly; sigma_j fixes j
            column = [0] * ctuple.m
            for i, x in enumerate(s.images, start=1):
                if i != j:
                    column[x - 1] = numerators[(i, j)]
            del column[j - 1]
            if any(map(operator.le, column, column[1:])):
                raise ValueError(
                    f"coefficients a[.,{j}] realize {coeffs.column_permutation(j)!r}, "
                    f"not the requested {s!r}"
                )
        self.ctuple = ctuple
        self.coeffs = coeffs

    @property
    def m(self) -> int:
        return self.ctuple.m

    def _utility_numerators(self) -> tuple[list[list[int]], int]:
        """The payoff tensor as integer numerators over one common denominator.

        U^i is 0 when player i plays action 0, and the factored payoff
        difference at the pure profile when they play action 1.  With
        n[i,j] = a[i,j] * D, that value is
        (-1)^v_i * prod_{j != i} (b_j * D - n[i,j]) / D^(m-1).
        """
        m = self.m
        scale = self.coeffs.denominator
        tables = []
        for i in range(1, m + 1):
            # running outer product over players 1..m, player 1 most
            # significant; the factor of player i carries the sign
            products = [1]
            for j in range(1, m + 1):
                if j == i:
                    factors = (0, -1 if self.ctuple.v[i - 1] else 1)
                else:
                    n = self.coeffs.numerators[(i, j)]
                    factors = (-n, scale - n)
                products = [x * f for x in products for f in factors]
            tables.append(products)
        return tables, scale ** (m - 1)

    @cached_property
    def tensor(self) -> TwoActionGame:
        """The exact payoff tensor, built from ``_utility_numerators``."""
        numerators, denominator = self._utility_numerators()
        zero = Fraction(0)
        tables = [[Fraction(x, denominator) if x else zero for x in t] for t in numerators]
        return TwoActionGame(self.m, tables, mode=EXACT)

    def to_dict(self) -> dict:
        """The product block: the tensor follows from it, so it is not stored."""
        return {
            "m": self.m,
            "mode": EXACT,
            "product": {
                "v": list(self.ctuple.v),
                "sigma": [list(s.images) for s in self.ctuple.sigma],
                "a": self.coeffs.to_dict(),
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProductTwoActionGame":
        m = _json_field(data, "m", int)
        if m < 1:
            raise ValueError(f"key 'm' must be positive, not {m}")
        mode = _json_field(data, "mode", str)
        if mode != EXACT:
            raise ValueError(f"key 'mode' of a product game must be {EXACT!r}, not {mode!r}")
        product = _json_field(data, "product", dict)
        v = _json_integers(_json_field(product, "v", list, "product.v"), "product.v")
        sigma = [
            _json_integers(images, "product.sigma")
            for images in _json_field(product, "sigma", list, "product.sigma")
        ]
        try:
            sigma = tuple(Permutation(images) for images in sigma)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"key 'product.sigma': {exc}") from None
        ctuple = CharacteristicTuple(v=tuple(v), sigma=sigma)
        coeffs = CoefficientMatrix.from_dict(m, _json_field(product, "a", dict, "product.a"))
        game = cls(ctuple, coeffs)
        # a file written before product files dropped the tensor still holds
        # one: it must be the tensor that the product block gives
        if "utilities" in data and (
            TwoActionGame.from_dict(data).utilities != game.tensor.utilities
        ):
            raise ValueError("stored tensor disagrees with the product block")
        return game


def build_product_game(
    ctuple: CharacteristicTuple, coeffs: CoefficientMatrix | None = None
) -> ProductTwoActionGame:
    """Materialize the product game for a characteristic tuple."""
    if coeffs is None:
        coeffs = default_coefficients(ctuple)
    return ProductTwoActionGame(ctuple, coeffs)


def maximal_game(m: int) -> ProductTwoActionGame:
    """The product game achieving the maximal equilibrium count.

    Characteristic tuple: all-zero sign vector, with the block-swap
    permutations as the associated orderings.
    """
    ctuple = CharacteristicTuple(
        v=(0,) * m,
        sigma=tuple(block_swap_permutation(m, i) for i in range(1, m + 1)),
    )
    return build_product_game(ctuple)


def perturb(game: TwoActionGame | ProductTwoActionGame, epsilon: float, seed: int) -> TwoActionGame:
    """Add independent uniform [-epsilon, epsilon] noise to every utility entry.

    Deterministic for a given seed; the result is a float-mode game.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if isinstance(game, ProductTwoActionGame):
        game = game.tensor
    base = game.as_float()
    rng = np.random.default_rng(seed)
    tables = [
        [u + d for u, d in zip(table, rng.uniform(-epsilon, epsilon, size=len(table)))]
        for table in base.utilities
    ]
    return TwoActionGame(base.m, tables, mode=FLOAT)


def save_game(game: TwoActionGame | ProductTwoActionGame, path) -> None:
    text = json.dumps(game.to_dict(), indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_game(path) -> TwoActionGame | ProductTwoActionGame:
    """Load a game file; returns a product game when the product block is present."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"the game file must hold a JSON object, not {_json_type(data)}")
    if "product" in data and data.get("mode") == EXACT:
        return ProductTwoActionGame.from_dict(data)
    return TwoActionGame.from_dict(data)
