"""Independent numeric Nash solver for two-action games.

Enumerates all 3^m support profiles (each player: action 0, action 1, or
fully mixed).  On a profile with r free players the equilibrium conditions
are the r equations "payoff difference of free player i = 0".  Equation i is
multilinear in the other free players' coordinates and does not contain
x_i, so the system has at most !r isolated roots (McKelvey & McLennan,
J. Econ. Theory 1997).  For r >= 4 the solver tracks exactly !r paths of the
linear-product homotopy (Morgan & Sommese 1987)

    H(x, t) = (1 - t) * gamma * G(x) + t * F(x),   G_i = prod_{j != i} (x_j - a_ij),

from the roots of G, one per derangement of the free players, to t = 1, and
keeps the real roots strictly inside the open face that satisfy the
boundary sign conditions with positive margin.  The start roots lie around
the centre of the face, 1/2 in every coordinate, where the roots that can
be equilibria lie, so the paths are shorter than from around 0 and take
fewer steps.  Every payoff difference is written in the monomial basis of
the face, so F, its Jacobian and the boundary conditions are matrix
products, and the supports with the same r are tracked as one NumPy batch.

Faces with r = 2 and 3 are solved in closed form, one root per path
(``stats["closed_form"]``): at r = 2 both equations are linear, and at
r = 3 two of them give x0 and x1 as Moebius functions of x2, which leaves
a quadratic in x2.  Their roots are polished and given states as tracked
endpoints are, and the homotopy is their fallback: a root that fails or
meets another is tracked from its start root like any path.

A tracking round is Heun's predictor and a chord corrector: both Newton
corrections reuse the inverse Jacobian at the Heun point, and an accepted
step carries it to the next round's tangent, so a round builds and inverts
two Jacobians instead of four.  The Jacobians it stands in for differ from
it by at most the accepted first correction.  The next step aims that
correction at 0.3 of its bound, from Heun's O(h^3) error; a step rejected
for it shrinks by the same estimate, not by a fixed half.

Every path ends in one of PATH_STATES.  Two paths of one support that end at
the same point are a path jump.  A failed path and both paths of a jump are
tracked once more on the same homotopy with smaller steps; every other
endpoint is kept.  Of two paths that still end at the same point the later
one fails, and a path that fails is counted in ``stats["failed"]``, never
dropped.  The a_ij and gamma come from a fixed seed, so a solve is
deterministic; randomness enters only through game generation and
perturbation, always behind an explicit seed.

This solver never looks at the combinatorial structure of product games, so
its censuses are an independent check on the exact candidate engine.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .combinatorics import candidates_on_face_class, enumerate_derangements, subfactorial
from .game_model import FLOAT, ProductTwoActionGame, TwoActionGame, perturb

ZERO, ONE, FREE = "zero", "one", "free"

# Where a path ends.  Only real-interior roots can be equilibria.
# Inside the solver a state is its index in PATH_STATES.
PATH_STATES = ("real_interior", "real_exterior", "complex", "diverged", "failed")
_INTERIOR, _EXTERIOR, _COMPLEX, _DIVERGED, _FAILED = range(len(PATH_STATES))

# The a_ij and gamma are drawn from this seed.  A random complex gamma
# misses, with probability one, the finitely many values for which a path
# meets a singular point before t = 1.
_HOMOTOPY_SEED = 20240817
# Heun's predictor with two Newton corrector steps.  A step spans at most
# _MAX_STEP in t, so even a straight path is corrected four times, and is
# accepted when the first correction is at most _CORRECTOR_TOL * (1 + |x|)
# and the second at most a tenth of it.  On maximal_game(6) looser bounds
# hold too: at 2e-3 no path is re-tracked and at 1e-2 twelve are, no path
# fails, and every equilibrium agrees with these bounds' within 4e-14.  A
# re-track divides both bounds by _RETRACK_SHRINK.  The step size control
# in _track only picks the next step within these bounds: it aims the first
# correction at 0.3 * _CORRECTOR_TOL, so few steps are rejected, and it
# never loosens the acceptance test.
_MAX_STEP = 0.25
_CORRECTOR_TOL = 1e-3
_RETRACK_SHRINK = 8
# A path not at t = 1 after this many predictor-corrector rounds has failed.
_MAX_ROUNDS = 2000
# A path with a coordinate beyond this heads to a root at infinity.
_INFINITY = 1e8
# Relative to 1 + |x|: the last of three Newton steps at t = 1 must be
# below it, an endpoint is real when its imaginary parts are below it, and
# two endpoints closer than it are the same point.  Relative to the size of
# its terms, a Moebius denominator of _face_roots below it has vanished.
_ENDPOINT_TOL = 1e-8
# An equilibrium's free players are indifferent within _RESIDUAL_TOL, and its
# boundary players prefer their action by at least _MARGIN_TOL (near-degenerate
# below _NEAR_DEGENERATE_TOL), all in units of the largest payoff difference.
_RESIDUAL_TOL = 1e-10
_MARGIN_TOL = 1e-12
_NEAR_DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class SupportProfile:
    """Per-player support choice: pure action 0, pure action 1, or mixed."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in (ZERO, ONE, FREE):
                raise ValueError(f"unknown support kind {kind!r}")

    @property
    def m(self) -> int:
        return len(self.kinds)

    @functools.cached_property
    def free_players(self) -> tuple[int, ...]:
        """1-based indices of the fully mixed players."""
        return tuple(i for i, k in enumerate(self.kinds, start=1) if k == FREE)

    @property
    def face_class(self) -> int:
        return self.m - len(self.free_players)


def all_supports(m: int):
    for kinds in itertools.product((ZERO, ONE, FREE), repeat=m):
        yield SupportProfile(kinds)


@dataclass(frozen=True)
class SolverConfig:
    threads: int = 1


@dataclass(frozen=True)
class SolverEquilibrium:
    gamma: tuple[float, ...]
    support: SupportProfile
    residual: float
    margin: float
    near_degenerate: bool = False

    @property
    def face_class(self) -> int:
        return self.support.face_class


def _vertex_differences(game: TwoActionGame | ProductTwoActionGame) -> np.ndarray:
    """Each player's payoff difference at each pure profile, shape (m, 2, ..., 2).

    Entry [i, b] does not depend on player i's own action b_i.
    """
    base = (game.tensor if isinstance(game, ProductTwoActionGame) else game).as_float()
    diffs = [np.diff(base.tensor(i + 1), axis=i) for i in range(base.m)]
    return np.stack([np.broadcast_to(d, (2,) * base.m) for d in diffs])


@dataclass(frozen=True, eq=False)
class _Batch:
    """What the solver reads of the kinds of supports with the same r."""

    supports: tuple[SupportProfile, ...]
    free: np.ndarray  # (n, r): each support's free players, 0-based
    corners: np.ndarray  # (n, 2^r): the pure profile at each vertex of its face
    sign: np.ndarray  # (n, m): -1 at action 0, +1 at action 1, 0 when free


def _batch(supports: Sequence[SupportProfile]) -> _Batch:
    """The layout of supports with the same r; its arrays are read-only.

    Vertex S of a face is a bit mask over its free players, the first one
    most significant, and the pure profile there is an index into the
    flattened (2, ..., 2) axes of _vertex_differences.
    """
    m, r = supports[0].m, len(supports[0].free_players)
    free = np.array([sp.free_players for sp in supports], dtype=int).reshape(len(supports), r) - 1
    sign = np.array([[(k == ONE) - (k == ZERO) for k in sp.kinds] for sp in supports])
    weight = 1 << np.arange(m - 1, -1, -1)
    corners = ((sign > 0) @ weight)[:, None]
    for j in free.T:  # each free player doubles the vertices, as the next bit
        corners = np.stack([corners, corners + weight[j, None]], axis=2).reshape(len(supports), -1)
    for table in (free, corners, sign):
        table.flags.writeable = False
    return _Batch(tuple(supports), free, corners, sign)


@functools.lru_cache(maxsize=8)
def _batches(m: int) -> tuple[_Batch, ...]:
    """The supports of m players, one batch per number of free players."""
    supports = sorted(all_supports(m), key=lambda sp: sp.face_class)
    groups = itertools.groupby(supports, key=lambda sp: sp.face_class)
    return tuple(_batch(list(group)) for _, group in groups)


def _face_values(vertex: np.ndarray, batch: _Batch) -> np.ndarray:
    """Every player's payoff difference at each vertex of each face, (n, m, 2^r)."""
    return vertex.reshape(len(vertex), -1)[:, batch.corners].transpose(1, 0, 2)


def _moebius(values: np.ndarray) -> np.ndarray:
    """The payoff differences of _face_values in the monomial basis of each face.

    Entry [s, i, S] multiplies prod_{j in S} x_j for player i, with S a bit
    mask over the free players in the order of the vertices.
    """
    n, m, size = values.shape
    coeffs = values.reshape((n, m) + (2,) * (size.bit_length() - 1))
    for axis in range(2, coeffs.ndim):
        low, high = np.split(coeffs, 2, axis=axis)
        coeffs = np.concatenate([low, high - low], axis=axis)
    return coeffs.reshape(n, m, size)


@functools.cache
def _gradient_columns(r: int) -> np.ndarray:
    """Where the gradients of the monomials of r free players come from.

    For k < r, ``columns[S, k]`` is the bit mask S without k when k is in S,
    the first one most significant, and otherwise 2^r, the index of a zero
    column appended to the monomials; ``columns[S, r]`` is S itself.
    """
    masks = np.arange(2**r)
    bit = 1 << np.arange(r - 1, -1, -1)[:, None]
    columns = np.vstack([np.where(masks & bit, masks ^ bit, 2**r), masks]).T
    columns.flags.writeable = False  # cached: every caller shares it
    return columns


def _monomials(x: np.ndarray) -> np.ndarray:
    """All monomials prod_{j in S} x_j of a batch of points, shape (P, 2^r).

    Column S is in the bit-mask order of _moebius; each x_j doubles the columns.
    """
    P, r = x.shape
    M = np.ones((P, 2**r), dtype=x.dtype)
    for j in range(r):  # the odd columns of M[:, ::2^(r-j-1)] are the even ones times x_j
        M[:, 2 ** (r - j - 1) :: 2 ** (r - j)] = M[:, :: 2 ** (r - j)] * x[:, j, None]
    return M


def _linearized(C: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian C . dM^T, by x, and the values C . M, as a column, in one matmul.

    d/dx_k of the monomial S is the monomial S without k if k is in S, else
    0, so dM^T and M are one gather from M with a zero column appended.
    """
    padded = np.concatenate((M, np.zeros((len(M), 1), dtype=M.dtype)), axis=1)
    both = C @ padded[:, _gradient_columns(M.shape[1].bit_length() - 1)]
    return both[..., :-1], both[..., -1:]


def _inverse(J: np.ndarray) -> np.ndarray:
    """Batched inverse of the Jacobians J; NaN where J is singular."""
    try:
        return np.linalg.inv(J)
    except np.linalg.LinAlgError:  # one singular J fails the whole batch
        singular = np.linalg.det(J) == 0
        out = np.linalg.inv(np.where(singular[:, None, None], np.eye(J.shape[1]), J))
    out[singular] = np.nan
    return out


def _step(inverse: np.ndarray, rhs: np.ndarray, M: np.ndarray) -> np.ndarray:
    """-J^-1 (rhs . M): a Newton step with rhs = C, dx/dt with rhs = dC/dt."""
    return -(inverse @ (rhs @ M[..., None]))[..., 0]


@functools.lru_cache(maxsize=16)
def _start_system(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of gamma G, with G_i = prod_{j != i} (x_j - a_ij), and its !r roots.

    G vanishes when every equation i picks one factor j = pi(i) with
    x_j = a_ij and every x_j is picked once: pi is a derangement.  The a_ij
    are complex normals with deviation 1/4 around the centre of the face,
    where the roots that can be equilibria lie; gamma is one draw for every
    r.  Cached, so both arrays are read-only.
    """
    rng = np.random.default_rng([_HOMOTOPY_SEED, 0, r])
    a = 0.5 + (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))) / 4
    coeffs = np.ones((r, 1), dtype=complex)
    for j in range(r):
        factor = np.stack([-a[:, j], np.ones(r)], axis=1)
        factor[j] = (1, 0)
        coeffs = (coeffs[:, :, None] * factor[:, None, :]).reshape(r, -1)
    coeffs *= np.exp(2j * np.pi * np.random.default_rng([_HOMOTOPY_SEED, 1, 0]).random())
    pis = np.array([[img - 1 for img in pi.images] for pi in enumerate_derangements(r)])
    roots = np.empty(pis.shape, dtype=complex)
    roots[np.arange(len(pis))[:, None], pis] = a[np.arange(r), pis]
    for table in (coeffs, roots):
        table.flags.writeable = False
    return coeffs, roots


def _track(target: np.ndarray, start: np.ndarray, x: np.ndarray, shrink: int):
    """Follow each path of H(x, t) = (1 - t) G(x) + t F(x) from t = 0 to 1.

    ``target`` holds F's coefficients per path, ``start`` G's with gamma.
    ``shrink`` divides the step bounds.  Returns the points reached, the
    mask of paths that reached t = 1, the mask of those that diverged, and
    the accepted and rejected rounds, summed over the paths.

    A round builds and inverts two Jacobians, not four.  The corrector is a
    chord method: both Newton corrections at t1 use the inverse at the Heun
    point, whose Jacobian differs from the one at the first corrected point
    by O(|d1|), at most _CORRECTOR_TOL relative on an accepted step.  An
    accepted step carries that inverse to the next round, whose tangent k1
    at the accepted point it gives; only k2, at the Euler point, needs a
    fresh one.  The first inverse per path is taken once, at t = 0.
    """
    max_step, tol = _MAX_STEP / shrink, _CORRECTOR_TOL / shrink
    n = len(x)
    end, reached, diverged = x.copy(), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    accepted = rounds = 0
    # the paths still moving and their state, compacted when one stops
    paths, dC, x, t = np.arange(n), target - start, x.copy(), np.zeros(n)
    inverse = _inverse(_linearized(start, _monomials(x))[0])
    step = np.full(n, max_step)
    for _ in range(_MAX_ROUNDS):
        if not len(paths):
            break
        h = np.minimum(step, 1 - t)
        t1 = np.where(h >= 1 - t, 1.0, t + h)
        C1 = start + t1[:, None, None] * dC
        k1 = _step(inverse, dC, _monomials(x))
        M = _monomials(x + h[:, None] * k1)
        k2 = _step(_inverse(_linearized(C1, M)[0]), dC, M)
        xp = x + (h / 2)[:, None] * (k1 + k2)
        J, values = _linearized(C1, _monomials(xp))
        chord = _inverse(J)
        d1 = -(chord @ values)[..., 0]
        d2 = _step(chord, C1, _monomials(xp + d1))
        xp += d1 + d2
        size = 1 + np.abs(xp).max(axis=1)
        n1 = np.abs(d1).max(axis=1)
        ok = (n1 <= tol * size) & (np.abs(d2).max(axis=1) <= 0.1 * n1 + 1e-14 * size)
        # Heun's error is O(h^3): aim the next first correction at 0.3 tol,
        # inside the acceptance bound.  A step rejected for its first
        # correction shrinks by the same estimate, at least to 0.9 h; a step
        # rejected for any other reason, the estimate says nothing of, halves.
        factor = np.minimum(np.maximum(np.cbrt(0.3 * tol * size / n1), 0.25), 2)
        factor = np.where(ok, factor, np.where(n1 > tol * size, np.minimum(factor, 0.9), 0.5))
        step = np.minimum(h * factor, max_step)
        accepted += int(ok.sum())
        rounds += len(ok)
        np.copyto(x, xp, where=ok[:, None])
        np.copyto(t, t1, where=ok)
        np.copyto(inverse, chord, where=ok[:, None, None])
        stop = ok & ((t1 == 1) | (size > _INFINITY))
        if stop.any():
            done = paths[stop]
            reached[done], diverged[done] = t1[stop] == 1, t1[stop] < 1
            end[done] = x[stop]
            keep = ~stop
            paths, dC, x, t, inverse, step = (a[keep] for a in (paths, dC, x, t, inverse, step))
    end[paths] = x
    return end, reached, diverged, accepted, rounds - accepted


def _track_paths(target: np.ndarray, x: np.ndarray, shrink: int):
    """Endpoints (P, r) and states (P,) of P paths, and their work: the
    accepted and rejected rounds, and 0 paths solved in closed form.

    ``target`` holds the (P, r, 2^r) coefficients of each path's system,
    ``x`` its start root and ``shrink`` divides the step bounds.  Each
    endpoint is polished by three Newton steps at t = 1.  States are
    indices into PATH_STATES.
    """
    start, _ = _start_system(x.shape[1])
    x, reached, diverged, accepted, rejected = _track(target, start, x, shrink)
    return (*_endpoints(target, x, reached, diverged), np.array([accepted, rejected, 0]))


def _endpoints(target: np.ndarray, x: np.ndarray, reached: np.ndarray, diverged: np.ndarray):
    """The points x (P, r), polished in place by three Newton steps at t = 1,
    and their states, indices into PATH_STATES.

    ``reached`` marks the paths that got to t = 1 and ``diverged`` those
    that head to a root at infinity; a path that is neither, or whose last
    Newton step is not below _ENDPOINT_TOL, fails.
    """
    for _ in range(3):
        J, values = _linearized(target, _monomials(x))
        dx = -(_inverse(J) @ values)[..., 0]
        x += dx
    size = 1 + np.abs(x).max(axis=1)
    polished = np.abs(dx).max(axis=1) <= _ENDPOINT_TOL * size
    state = np.select(
        [diverged, ~(reached & polished), np.abs(x.imag).max(axis=1) > _ENDPOINT_TOL * size],
        [_DIVERGED, _FAILED, _COMPLEX],
        np.where(((x.real > 0) & (x.real < 1)).all(axis=1), _INTERIOR, _EXTERIOR),
    )
    return x, state


def _face_roots(C: np.ndarray) -> np.ndarray:
    """The !r roots (n, !r, r) of each face with r = 2 or 3 free players.

    ``C`` holds the (n, r, 2^r) coefficients of the faces' equations in the
    monomial basis of _moebius.  A root at infinity has an infinite or huge
    coordinate; a root the formulas cannot give is NaN in x0 and x1.

    At r = 2 equation 0 is c + d x1 and equation 1 is c' + d' x0.  At r = 3
    equations 0 and 1 give x1 = -N1(x2) / D1(x2) and x0 = -N0(x2) / D0(x2),
    with N and D linear; equation 2 times D0 D1 is then a quadratic in x2,
    whose roots the stable formula gives.  A reducible equation, as on every
    face of a product game, makes its D vanish at a root: that coordinate
    comes from equation 2, which is linear in it.
    """
    if C.shape[1] == 2:
        return (-C[:, [1, 0], [0, 0]] / C[:, [1, 0], [2, 1]])[:, None].astype(complex)
    # each linear polynomial (constant, x2) is a (2, n) pair, as are the two roots
    N1, D1, N0, D0 = C[:, 0, 0:2].T, C[:, 0, 2:4].T, C[:, 1, 0:2].T, C[:, 1, 4:6].T
    e0, e1, e2, e3 = C[:, 2, [0, 2, 4, 6]].T  # equation 2: 1, x1, x0 and x0 x1

    def times(p, q):  # the product of two linear polynomials, constant first
        return np.stack([p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]])

    c0, c1, c2 = e0 * times(D0, D1) - e1 * times(N1, D0) - e2 * times(N0, D1) + e3 * times(N0, N1)
    s = np.sqrt((c1 * c1 - 4 * c2 * c0).astype(complex))
    q = -(c1 + np.where(c1 < 0, -s, s)) / 2
    x2 = np.stack([q / c2, c0 / q])  # c2 = 0 puts the first root at infinity

    def at(p):  # a linear polynomial at the roots x2
        return p[0] + p[1] * x2

    def lost(D):  # the denominator vanishes, relative to the size of its terms
        return np.abs(at(D)) <= _ENDPOINT_TOL * (np.abs(D[0]) + np.abs(D[1] * x2))

    x0, x1, lost0, lost1 = -at(N0) / at(D0), -at(N1) / at(D1), lost(D0), lost(D1)
    x0, x1 = (
        np.where(lost0, -(e0 + e1 * x1) / (e2 + e3 * x1), x0),
        np.where(lost1, -(e0 + e2 * x0) / (e1 + e3 * x0), x1),
    )
    both = lost0 & lost1
    x0[both] = x1[both] = np.nan
    return np.stack([x0, x1, x2], axis=2).transpose(1, 0, 2)


def _first_pass(target: np.ndarray, x: np.ndarray):
    """``_track_paths(target, x, 1)``, except that faces with r = 2 or 3 are
    solved in closed form, and their start roots ``x`` are not read.

    The !r paths of a face are consecutive rows of ``target``.  The third
    count of the work is the number of paths solved in closed form.  A
    closed-form root goes through the same polishing and state rules as a
    tracked endpoint.
    """
    P, r = x.shape
    if r > 3:
        return _track_paths(target, x, 1)
    roots = _face_roots(target[:: subfactorial(r)]).reshape(P, r)
    diverged = (np.abs(roots) > _INFINITY).any(axis=1)
    return (*_endpoints(target, roots, ~diverged, diverged), np.array([0, 0, P]))


def _same_endpoints(x: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Pairs of paths of one support that end at the same finite point.

    ``x`` holds the (n, d, r) endpoints of the d paths of n supports and
    ``state`` their states.  Entry [s, p, q] of the (n, d, d) result is True
    when p < q and paths p and q of support s end within _ENDPOINT_TOL of
    each other, compared one coordinate at a time so no (d, d, r) temporary
    is built.
    """
    n, d, r = x.shape
    size = 1 + np.abs(x).max(axis=2)
    finite = state < _DIVERGED
    close = np.triu(np.ones((d, d), dtype=bool), k=1) & finite[:, :, None] & finite[:, None, :]
    for k in range(r):
        close &= np.abs(x[:, :, None, k] - x[:, None, :, k]) <= _ENDPOINT_TOL * size[:, None, :]
    return close


def _solve_batch(vertex: np.ndarray, batch: _Batch) -> tuple[list[SolverEquilibrium], dict]:
    """Equilibria and statistics (``solve_all``'s keys) of supports with the same r."""
    supports, free, sign = batch.supports, batch.free, batch.sign
    (n, r), unit = free.shape, np.abs(vertex).max() or 1.0
    coeffs = _moebius(_face_values(vertex, batch))
    own = np.take_along_axis(coeffs, free[..., None], axis=1)
    # r = 0: the vertex is the one candidate; r = 1: there is none
    x, state = np.zeros((n, int(r == 0), r)), np.zeros((n, int(r == 0)), dtype=int)
    work = np.zeros(3, dtype=int)
    degenerate, redo = np.zeros(n, dtype=bool), np.zeros(0, dtype=bool)
    if r == 1:
        # The single equation does not involve the free coordinate: it either
        # fails (generic) or degenerates to a continuum, reported but never
        # counted.
        degenerate = np.abs(own[:, 0, 0]) <= _RESIDUAL_TOL * unit
    elif r >= 2:
        scale = np.abs(own).max(axis=2)
        degenerate = (scale == 0).any(axis=1)
        target = own / np.where(scale == 0, 1.0, scale)[..., None]
        # a free player indifferent on the whole face leaves no isolated root:
        # each path would meet a singular Jacobian at t = 1, so all fail untracked
        live, d = ~degenerate, subfactorial(r)
        x, state = np.zeros((n, d, r), dtype=complex), np.full((n, d), _FAILED)
        per_path = np.repeat(target[live], d, axis=0)
        starts = np.tile(_start_system(r)[1], (int(live.sum()), 1))
        with np.errstate(all="ignore"):
            ends, ends_state, work = _first_pass(per_path, starts)
            ends, ends_state = ends.reshape(-1, d, r), ends_state.reshape(-1, d)
            # a failed path and both paths of a jump take smaller steps on the
            # same homotopy; of a pair that meets again, the later path fails
            same = _same_endpoints(ends, ends_state)
            redo = (ends_state == _FAILED) | same.any(axis=1) | same.any(axis=2)
            if redo.any():
                flat = redo.ravel()
                more = _track_paths(per_path[flat], starts[flat], _RETRACK_SHRINK)
                ends[redo], ends_state[redo] = more[:2]
                work += more[2]
                same = _same_endpoints(ends, ends_state)
        ends_state[same.any(axis=1)] = _FAILED
        x[live], state[live] = ends, ends_state

    # residuals of the free players and signed margins of the boundary ones
    sup, path = np.nonzero(state == _INTERIOR)
    points = x[sup, path].real
    values = np.einsum("qis,qs->qi", coeffs[sup], _monomials(points))
    residual = np.abs(np.take_along_axis(values, free[sup], axis=1)).max(axis=1, initial=0)
    margin = np.where(sign[sup] != 0, sign[sup] * values, np.inf).min(axis=1, initial=np.inf)
    unproven = residual > _RESIDUAL_TOL * unit
    state[sup[unproven], path[unproven]] = _FAILED

    keep = (residual <= _RESIDUAL_TOL * unit) & (margin >= _MARGIN_TOL * unit)
    # each point: its support's vertex, 1 at action 1, with the free coordinates filled in
    gammas = (sign[sup] > 0).astype(float)
    np.put_along_axis(gammas, free[sup], points, axis=1)
    solutions = [
        SolverEquilibrium(tuple(g), supports[s], res, mar, bool(mar < _NEAR_DEGENERATE_TOL * unit))
        for s, g, res, mar in zip(*(a[keep].tolist() for a in (sup, gammas, residual, margin)))
    ]
    # r = 0 tracks no path: its one state is the vertex candidate's
    paths = state if r >= 2 else state[:, :0]
    counts = np.bincount(paths.ravel(), minlength=len(PATH_STATES))
    stats = {
        "starts": paths.size,
        "converged": int(counts[:_DIVERGED].sum()),
        "retracked": int(redo.sum()),
        "closed_form": int(work[2]),
        "steps": int(work[0]),
        "rejected": int(work[1]),
    }
    stats.update(zip(PATH_STATES, counts.tolist()))
    stats["degenerate_supports"] = int(degenerate.sum())
    return solutions, stats


def _report_order(eq: SolverEquilibrium) -> tuple:
    """Equilibria are listed by face class, support, then coordinates rounded
    to 9 decimals, so rounding noise in the solve cannot reorder them."""
    return eq.face_class, eq.support.kinds, tuple(round(g, 9) for g in eq.gamma)


def solve_support(
    game: TwoActionGame | ProductTwoActionGame,
    support: SupportProfile,
    config: SolverConfig = SolverConfig(),
) -> tuple[list[SolverEquilibrium], dict]:
    """Equilibria whose support is exactly the given profile, plus its
    statistics, with the keys of ``solve_all``'s.  ``config`` is not read:
    one support is one batch, solved on the calling thread."""
    solutions, stats = _solve_batch(_vertex_differences(game), _batch([support]))
    return sorted(solutions, key=_report_order), stats


@dataclass
class SolverReport:
    m: int
    config: SolverConfig
    equilibria: list[SolverEquilibrium]
    face_census: list[int]
    stats: dict

    @property
    def total(self) -> int:
        return len(self.equilibria)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "config": dataclasses.asdict(self.config),
            "equilibria": [
                dict(
                    dataclasses.asdict(eq),
                    gamma=list(eq.gamma),
                    # no boundary player: the margin is inf, which JSON lacks
                    margin=eq.margin if np.isfinite(eq.margin) else None,
                    support=list(eq.support.kinds),
                    face_class=eq.face_class,
                )
                for eq in self.equilibria
            ],
            "face_census": self.face_census,
            "total": self.total,
            "stats": self.stats,
        }


def solve_all(
    game: TwoActionGame | ProductTwoActionGame,
    config: SolverConfig = SolverConfig(),
) -> SolverReport:
    """All equilibria of the game, by support enumeration.

    ``stats`` counts the paths: every support's, !r on a face with r >= 2
    free players (``starts``, the sum over r >= 2 of C(m, r) 2^(m-r) !r,
    which is V(m) - 2^m), solved unless their face is degenerate, those of
    faces with r = 2 and 3 solved in closed form rather than tracked
    (``closed_form``), those ending at a finite point (``converged``), those
    tracked a second time, with smaller steps, because they failed or ended
    at the same point as another path of their support (``retracked``,
    closed-form paths included), and those ending in each of PATH_STATES.
    It also counts the tracking rounds summed over the paths, accepted
    (``steps``) and rejected (``rejected``), and the degenerate supports,
    over every support.
    """
    vertex = _vertex_differences(game)
    m = len(vertex)
    # one batch per number of free players, the batches spread over the
    # threads; the pool starts no thread unless it is handed work
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        mapper = pool.map if config.threads > 1 else map
        batches = list(mapper(lambda batch: _solve_batch(vertex, batch), _batches(m)))

    equilibria = sorted((eq for solutions, _ in batches for eq in solutions), key=_report_order)
    totals = {key: sum(stats[key] for _, stats in batches) for key in batches[0][1]}
    census = [sum(eq.face_class == l for eq in equilibria) for l in range(m + 1)]
    return SolverReport(m, config, equilibria, census, totals)


# -- deformation stability ---------------------------------------------------

@dataclass
class DeformationReport:
    m: int
    epsilon: float
    trials: int
    baseline_total: int
    trial_totals: list[int]
    stable_trials: int
    max_drift: float
    tracking_failures: list[int]
    failed_paths: int
    config: SolverConfig

    @property
    def all_stable(self) -> bool:
        return (
            self.stable_trials == self.trials
            and not self.tracking_failures
            and not self.failed_paths
        )

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), all_stable=self.all_stable)


def verify_deformation(
    game: ProductTwoActionGame,
    epsilon: float,
    trials: int,
    seed: int,
    config: SolverConfig = SolverConfig(),
) -> DeformationReport:
    """Perturb the game repeatedly and check the equilibrium count is stable.

    Each trial solves the perturbed game from scratch (the homotopy tracks
    every root, so no start points are carried over).  Each exact equilibrium
    of the game is regular and strict on its boundary players, so it persists
    on its own support: a trial whose supports, as a multiset, are not the
    exact equilibria's is a tracking failure, and an exact equilibrium's drift
    is its max-norm distance to the nearest point found on its support.
    """
    from .candidate_engine import equilibria as exact_equilibria

    exact = exact_equilibria(game, method="both")
    baseline = np.array([cand.gamma_floats() for cand in exact]).reshape(-1, game.m)
    # each baseline point's support: its boundary players at 0 or 1, the rest free
    kinds = np.full(baseline.shape, FREE)
    for row, cand in zip(kinds, exact):
        for player, value in cand.boundary:
            row[player - 1] = ONE if value else ZERO
    supports = sorted(map(tuple, kinds.tolist()))
    rng = np.random.default_rng(seed)
    trial_seeds = rng.integers(0, 2**63 - 1, size=trials)

    totals: list[int] = []
    failures: list[int] = []
    stable = failed_paths = 0
    max_drift = 0.0
    for t in range(trials):
        perturbed = perturb(game, epsilon, int(trial_seeds[t]))
        report = solve_all(perturbed, config)
        failed_paths += report.stats["failed"]
        totals.append(report.total)
        if report.total == len(baseline):
            stable += 1
        found_kinds = [eq.support.kinds for eq in report.equilibria]
        if sorted(found_kinds) != supports:
            failures.append(t)
        # each baseline point's max-norm distance to its nearest found point on its support
        found = np.array([eq.gamma for eq in report.equilibria]).reshape(-1, game.m)
        same = (kinds[:, None] == np.array(found_kinds, dtype=str).reshape(-1, game.m)).all(axis=2)
        dist = np.abs(baseline[:, None] - found).max(axis=2)
        drift = np.where(same, dist, np.inf).min(axis=1, initial=np.inf)
        max_drift = max(max_drift, float(drift[np.isfinite(drift)].max(initial=0.0)))
    return DeformationReport(
        m=game.m,
        epsilon=epsilon,
        trials=trials,
        baseline_total=len(baseline),
        trial_totals=totals,
        stable_trials=stable,
        max_drift=max_drift,
        tracking_failures=failures,
        failed_paths=failed_paths,
        config=config,
    )


# -- face-class inequality checks --------------------------------------------


@dataclass
class InequalityCheck:
    m: int
    census: list[int]
    rows: list[dict]

    @property
    def all_ok(self) -> bool:
        return all(row["ok"] for row in self.rows)

    @property
    def paired_excess(self) -> list[int]:
        """The classes l whose count is above the product-game bound."""
        return [row["l"] for row in self.rows if row["count"] > row["paired"]]

    def to_dict(self) -> dict:
        return dict(
            dataclasses.asdict(self), all_ok=self.all_ok, paired_excess=self.paired_excess
        )


def check_inequalities(census: Sequence[int], m: int) -> InequalityCheck:
    """Check each face class of the equilibrium census of a generic game.

    Row l holds the number of equilibria with l boundary coordinates, its
    ``bound`` and ``ok = count <= bound``; ``all_ok`` holds when every row
    is ok.  The bound is the McKelvey-McLennan bound (J. Econ. Theory 1997)
    on each face: a face with r = m - l free players holds at most !r
    isolated equilibria, so class l holds at most
    candidates_on_face_class(m, l) = C(m, l) 2^l !(m - l).  That is !m at
    l = 0, and 0 at l = m - 1 because !1 = 0: the one free player's equation
    does not contain its own variable.  At l = m the bound is 2^(m-1): two
    pure equilibria that differ only in player i's action would leave i
    indifferent, which a generic game excludes, so the pure equilibria are
    an independent set of the m-cube.

    ``paired`` is the product-game bound, reported but not checked.  In a
    product game the faces {gamma_i = 0} and {gamma_i = 1} share one
    threshold, whose sign selects one of them, so at most half of the
    candidates of each class l >= 1 are equilibria; with !m at l = 0 it sums
    to maximal_equilibrium_count(m) = (V(m) + !m) / 2.  A generic game can
    exceed it: census [2, 4, 0, 1] at m = 3 is above it at l = 1.
    """
    census = list(census)
    if len(census) != m + 1:
        raise ValueError(f"census must have {m + 1} entries")
    rows = []
    for l, count in enumerate(census):
        candidates = candidates_on_face_class(m, l)
        bound = candidates if l < m else 2 ** (m - 1)
        paired = candidates if l == 0 else candidates // 2
        rows.append(
            {"l": l, "count": count, "bound": bound, "paired": paired, "ok": count <= bound}
        )
    return InequalityCheck(m=m, census=census, rows=rows)


# -- randomized scans --------------------------------------------------------

# A random game is drawn again while a payoff difference at a vertex is
# within _DEGENERACY_TOL of zero, at most _MAX_REGEN times.
_DEGENERACY_TOL = 1e-8
_MAX_REGEN = 100
# A scan trial with an even equilibrium total is drawn again at most
# _MAX_RETRIES times.
_MAX_RETRIES = 4


def random_generic_game(m: int, rng: np.random.Generator) -> TwoActionGame:
    """A float game with i.i.d. uniform [-1,1] utilities, degeneracy-guarded.

    Regenerates while any payoff difference at a vertex is within
    _DEGENERACY_TOL of zero.
    """
    for _ in range(_MAX_REGEN):
        tables = rng.uniform(-1.0, 1.0, size=(m, 2**m))
        game = TwoActionGame(m, tables.tolist(), mode=FLOAT)
        if np.abs(_vertex_differences(game)).min() > _DEGENERACY_TOL:
            return game
    raise RuntimeError("could not draw a non-degenerate game")


@dataclass
class ScanReport:
    m: int
    trials: int
    violations: list[dict]
    paired_excess: list[dict]
    even_count_failures: int
    regenerations: int
    totals_histogram: dict[int, int]
    failed_paths: int
    config: SolverConfig
    seed: int

    @property
    def all_ok(self) -> bool:
        return not self.violations and not self.even_count_failures and not self.failed_paths

    def to_dict(self) -> dict:
        histogram = {str(k): v for k, v in sorted(self.totals_histogram.items())}
        return dict(dataclasses.asdict(self), totals_histogram=histogram, all_ok=self.all_ok)


def scan_inequalities(
    m: int,
    trials: int,
    seed: int,
    config: SolverConfig = SolverConfig(),
) -> ScanReport:
    """Solve many random generic games and check the face-class inequalities.

    An even equilibrium total indicates a missed root or a degenerate draw;
    the game is regenerated up to _MAX_RETRIES times before the trial is
    recorded as a failure.  Inequality violations are always recorded, never
    dropped, and so is every game above the product-game bound
    (``paired_excess``), which a generic game may be.  The games are drawn
    one after another from one generator, so (seed, trial) replays a trial:
    it is the last game of ``scan_inequalities(m, trial + 1, seed)``.
    """
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    paired_excess: list[dict] = []
    even_failures = regenerations = failed_paths = 0
    histogram: dict[int, int] = {}
    for trial in range(trials):
        for attempt in range(_MAX_RETRIES + 1):
            game = random_generic_game(m, rng)
            report = solve_all(game, config)
            failed_paths += report.stats["failed"]
            if report.total % 2 == 1:
                break
            regenerations += 1
        if report.total % 2 == 0:
            even_failures += 1
        histogram[report.total] = histogram.get(report.total, 0) + 1
        check = check_inequalities(report.face_census, m)
        if not check.all_ok:
            violations.append({"trial": trial, "check": check.to_dict()})
        if check.paired_excess:
            paired_excess.append({"trial": trial, "census": report.face_census})
    return ScanReport(
        m=m,
        trials=trials,
        violations=violations,
        paired_excess=paired_excess,
        even_count_failures=even_failures,
        regenerations=regenerations,
        totals_histogram=histogram,
        failed_paths=failed_paths,
        config=config,
        seed=seed,
    )
