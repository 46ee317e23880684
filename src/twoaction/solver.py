"""Independent numeric Nash solver for two-action games.

Enumerates all 3^m support profiles (each player: action 0, action 1, or
fully mixed).  On a profile with r free players the equilibrium conditions
are the r equations "payoff difference of free player i = 0".  Equation i is
multilinear in the other free players' coordinates and does not contain
x_i, so the system has at most !r isolated roots (McKelvey & McLennan,
J. Econ. Theory 1997).  For r >= 2 the solver tracks exactly !r paths of the
linear-product homotopy (Morgan & Sommese 1987)

    H(x, t) = (1 - t) * gamma * G(x) + t * F(x),   G_i = prod_{j != i} (x_j - a_ij),

from the roots of G, one per derangement of the free players, to t = 1, and
keeps the real roots strictly inside the open face that satisfy the
boundary sign conditions with positive margin.  Every payoff difference is
written in the monomial basis of the face, so F, its Jacobian and the
boundary conditions are matrix products, and the supports with the same r
are tracked as one NumPy batch.

A tracking round is Heun's predictor and a chord corrector: both Newton
corrections reuse the inverse Jacobian at the Heun point, and an accepted
step carries it to the next round's tangent, so a round builds and inverts
two Jacobians instead of four.  The Jacobians it stands in for differ from
it by at most the accepted first correction.

Every path ends in one of PATH_STATES.  Two paths of one support that end at
the same point are a path jump; a support with a jumped or failed path is
tracked once more with a smaller step and a new gamma, and a path that still
fails is counted in ``stats["failed"]``, never dropped.  The a_ij and gamma
come from a fixed seed, so a solve is deterministic; randomness enters only
through game generation and perturbation, always behind an explicit seed.

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

# Where a tracked path ends.  Only real-interior roots can be equilibria.
# Inside the solver a state is its index in PATH_STATES.
PATH_STATES = ("real_interior", "real_exterior", "complex", "diverged", "failed")
_INTERIOR, _EXTERIOR, _COMPLEX, _DIVERGED, _FAILED = range(len(PATH_STATES))

# The a_ij and each tracking attempt's gamma are drawn from this seed.  A
# random complex gamma misses, with probability one, the finitely many
# values for which a path meets a singular point before t = 1.
_HOMOTOPY_SEED = 20240817
# Heun's predictor with two Newton corrector steps.  A step spans at most
# _MAX_STEP in t, so even a straight path is corrected four times, and is
# accepted when the first correction is at most _CORRECTOR_TOL * (1 + |x|)
# and the second at most a tenth of it.  At 2e-3 paths of maximal_game(6)
# jumped (the re-track caught them), at 1e-2 one failed even after it.  A
# re-track divides both bounds by _RETRACK_SHRINK.
_MAX_STEP = 0.25
_CORRECTOR_TOL = 1e-3
_RETRACK_SHRINK = 8
# A path not at t = 1 after this many predictor-corrector rounds has failed.
_MAX_ROUNDS = 2000
# A path with a coordinate beyond this heads to a root at infinity.
_INFINITY = 1e8
# Relative to 1 + |x|: the last of three Newton steps at t = 1 must be
# below it, an endpoint is real when its imaginary parts are below it, and
# two endpoints closer than it are the same point.
_ENDPOINT_TOL = 1e-8


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

    @property
    def free_players(self) -> tuple[int, ...]:
        """1-based indices of the fully mixed players."""
        return tuple(i for i, k in enumerate(self.kinds, start=1) if k == FREE)

    @property
    def face_class(self) -> int:
        return self.m - len(self.free_players)

    def fixed_gamma(self) -> np.ndarray:
        """Coordinate vector with boundary values filled in and 0.5 placeholders."""
        return np.array(
            [0.0 if k == ZERO else 1.0 if k == ONE else 0.5 for k in self.kinds]
        )


def all_supports(m: int):
    for kinds in itertools.product((ZERO, ONE, FREE), repeat=m):
        yield SupportProfile(kinds)


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10
    margin_tol: float = 1e-12
    near_degenerate_tol: float = 1e-8
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


def _face_coefficients(vertex: np.ndarray, supports: Sequence[SupportProfile]) -> np.ndarray:
    """Every player's payoff difference on each face, in the monomial basis.

    Entry [s, i, S] multiplies prod_{j in S} x_j for player i on the face of
    ``supports[s]``, with S a bit mask over its free players, the first one
    most significant: the Moebius transform of the values at the vertices.
    """
    faces = [tuple(slice(None) if k == FREE else int(k == ONE) for k in sp.kinds) for sp in supports]
    coeffs = np.stack([vertex[(slice(None),) + face] for face in faces])
    for axis in range(2, coeffs.ndim):
        low, high = np.split(coeffs, 2, axis=axis)
        coeffs = np.concatenate([low, high - low], axis=axis)
    return coeffs.reshape(coeffs.shape[:2] + (-1,))


@functools.cache
def _bit_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Which free players each monomial holds, and where its gradients come from.

    ``bits[j, 0, S]`` says whether player j is in the bit mask S, the first
    one most significant.  ``drop[S, k]`` is S without k when k is in S, and
    otherwise 2^r, the index of a zero column appended to the monomials.
    """
    masks = np.arange(2**r)
    bit = 1 << np.arange(r - 1, -1, -1)[:, None]
    bits = (masks & bit) > 0
    tables = bits[:, None, :], np.where(bits, masks ^ bit, 2**r).T
    for table in tables:  # cached: every caller shares them
        table.flags.writeable = False
    return tables


def _monomials(x: np.ndarray) -> np.ndarray:
    """All monomials prod_{j in S} x_j of a batch of points, shape (P, 2^r).

    Column S is in the bit-mask order of _face_coefficients.
    """
    return np.where(_bit_tables(x.shape[1])[0], x.T[:, :, None], 1).prod(axis=0)


def _gradients(M: np.ndarray) -> np.ndarray:
    """dM of shape (P, r, 2^r): dM[:, k] holds the monomials' derivatives by x_k.

    d/dx_k of the monomial S is the monomial S without k if k is in S, else
    0, so dM is one gather from M; its transpose is contiguous.
    """
    P, r = len(M), M.shape[1].bit_length() - 1
    padded = np.concatenate((M, np.zeros((P, 1), dtype=M.dtype)), axis=1)
    return padded[:, _bit_tables(r)[1]].transpose(0, 2, 1)


def _jacobian(C: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Jacobian C . dM^T, by x, of the systems with coefficients C at monomials M."""
    return C @ _gradients(M).transpose(0, 2, 1)


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


def _start_system(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of G_i = prod_{j != i} (x_j - a_ij), and its !r roots.

    G vanishes when every equation i picks one factor j = pi(i) with
    x_j = a_ij and every x_j is picked once: pi is a derangement.
    """
    rng = np.random.default_rng([_HOMOTOPY_SEED, 0, r])
    a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    coeffs = np.ones((r, 1), dtype=complex)
    for j in range(r):
        factor = np.stack([-a[:, j], np.ones(r)], axis=1)
        factor[j] = (1, 0)
        coeffs = (coeffs[:, :, None] * factor[:, None, :]).reshape(r, -1)
    pis = np.array([[img - 1 for img in pi.images] for pi in enumerate_derangements(r)])
    roots = np.empty(pis.shape, dtype=complex)
    roots[np.arange(len(pis))[:, None], pis] = a[np.arange(r), pis]
    return coeffs, roots


def _track(target: np.ndarray, start: np.ndarray, x: np.ndarray, shrink: int):
    """Follow each path of H(x, t) = (1 - t) G(x) + t F(x) from t = 0 to 1.

    ``target`` holds F's coefficients per path, ``start`` G's with gamma.
    ``shrink`` divides the step bounds.  Returns the points reached, the
    mask of paths that reached t = 1 and the mask of those that diverged.

    A round builds and inverts two Jacobians, not four.  The corrector is a
    chord method: both Newton corrections at t1 use the inverse at the Heun
    point, whose Jacobian differs from the one at the first corrected point
    by O(|d1|), at most _CORRECTOR_TOL relative on an accepted step.  An
    accepted step carries that inverse to the next round, whose tangent k1
    at the accepted point it gives; only k2, at the Euler point, needs a
    fresh one.  The first inverse per path is taken once, at t = 0.
    """
    max_step, tol = _MAX_STEP / shrink, _CORRECTOR_TOL / shrink
    dC = target - start
    x, t = x.copy(), np.zeros(len(x))
    inverse = _inverse(_jacobian(start, _monomials(x)))
    step = np.full(len(x), max_step)
    reached, diverged = np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for _ in range(_MAX_ROUNDS):
        if not len(active):
            break
        dCa, xa, ta = dC[active], x[active], t[active]
        h = np.minimum(step[active], 1 - ta)
        t1 = np.where(h >= 1 - ta, 1.0, ta + h)
        C1 = start + t1[:, None, None] * dCa
        k1 = _step(inverse[active], dCa, _monomials(xa))
        M = _monomials(xa + h[:, None] * k1)
        k2 = _step(_inverse(_jacobian(C1, M)), dCa, M)
        xp = xa + (h / 2)[:, None] * (k1 + k2)
        M = _monomials(xp)
        chord = _inverse(_jacobian(C1, M))
        d1 = _step(chord, C1, M)
        d2 = _step(chord, C1, _monomials(xp + d1))
        xp += d1 + d2
        size = 1 + np.abs(xp).max(axis=1)
        n1 = np.abs(d1).max(axis=1)
        ok = (n1 <= tol * size) & (np.abs(d2).max(axis=1) <= 0.1 * n1 + 1e-14 * size)
        # Heun's error is O(h^3): aim the next first correction at tol / 2,
        # halving the step where that is undefined
        factor = np.cbrt(0.5 * tol * size / n1)
        factor = np.where(np.isnan(factor), 0.5, np.minimum(np.maximum(factor, 0.25), 2))
        step[active] = np.where(ok, np.minimum(h * factor, max_step), h * np.minimum(factor, 0.5))
        x[active[ok]], t[active[ok]], inverse[active[ok]] = xp[ok], t1[ok], chord[ok]
        reached[active[ok & (t1 == 1)]] = True
        diverged[active[ok & (t1 < 1) & (size > _INFINITY)]] = True
        active = active[~(reached[active] | diverged[active])]
    return x, reached, diverged


def _track_supports(target: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (n, !r, r) and states (n, !r) of the paths of n supports.

    ``target`` holds the (n, r, 2^r) coefficients of their systems.  States
    are indices into PATH_STATES.
    """
    n, r, _ = target.shape
    start, roots = _start_system(r)
    d = len(roots)
    per_path = np.repeat(target, d, axis=0)
    gamma = np.exp(2j * np.pi * np.random.default_rng([_HOMOTOPY_SEED, 1, attempt]).random())
    x, reached, diverged = _track(
        per_path, gamma * start, np.tile(roots, (n, 1)), _RETRACK_SHRINK**attempt
    )
    for _ in range(3):
        M = _monomials(x)
        dx = _step(_inverse(_jacobian(per_path, M)), per_path, M)
        x += dx
    size = 1 + np.abs(x).max(axis=1)
    polished = np.abs(dx).max(axis=1) <= _ENDPOINT_TOL * size
    state = np.select(
        [diverged, ~(reached & polished), np.abs(x.imag).max(axis=1) > _ENDPOINT_TOL * size],
        [_DIVERGED, _FAILED, _COMPLEX],
        np.where(((x.real > 0) & (x.real < 1)).all(axis=1), _INTERIOR, _EXTERIOR),
    ).reshape(n, d)
    x, size = x.reshape(n, d, r), size.reshape(n, d)
    for s in range(n if d > 1 else 0):
        # a finite endpoint that an earlier path of the support also reached
        rows = np.flatnonzero(state[s] < _DIVERGED)
        dist = np.zeros((len(rows), len(rows)))
        for col in x[s, rows].T:
            dist = np.maximum(dist, np.abs(col[:, None] - col[None, :]))
        close = np.triu(dist <= _ENDPOINT_TOL * size[s, rows], k=1)
        state[s, rows[close.any(axis=0)]] = _FAILED
    return x, state


def _solve_batch(
    vertex: np.ndarray, supports: Sequence[SupportProfile], config: SolverConfig
) -> list[tuple[list[SolverEquilibrium], dict]]:
    """Equilibria and statistics of supports that all have the same r."""
    n, r = len(supports), len(supports[0].free_players)
    coeffs = _face_coefficients(vertex, supports)
    free = np.array([sp.free_players for sp in supports], dtype=int).reshape(n, r) - 1
    own = np.take_along_axis(coeffs, free[..., None], axis=1)
    # r = 0: the vertex is the one candidate; r = 1: there is none
    x, state = np.zeros((n, int(r == 0), r)), np.zeros((n, int(r == 0)), dtype=int)
    degenerate, redo = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    if r == 1:
        # The single equation does not involve the free coordinate: it either
        # fails (generic) or degenerates to a continuum, reported but never
        # counted.
        degenerate = np.abs(own[:, 0, 0]) <= config.residual_tol
    elif r >= 2:
        scale = np.abs(own).max(axis=2)
        degenerate = (scale == 0).any(axis=1)
        target = own / np.where(scale == 0, 1.0, scale)[..., None]
        with np.errstate(all="ignore"):
            x, state = _track_supports(target, 0)
            redo = (state == _FAILED).any(axis=1)
            if redo.any():
                x[redo], state[redo] = _track_supports(target[redo], 1)

    # residuals of the free players and signed margins of the boundary ones
    sup, path = np.nonzero(state == _INTERIOR)
    points = x[sup, path].real
    values = np.einsum("qis,qs->qi", coeffs[sup], _monomials(points))
    sign = np.array([[-1.0 if k == ZERO else 1.0 for k in sp.kinds] for sp in supports])
    residual = np.abs(np.take_along_axis(values, free[sup], axis=1)).max(axis=1, initial=0)
    np.put_along_axis(values, free[sup], np.inf, axis=1)
    margin = (sign[sup] * values).min(axis=1, initial=np.inf)
    unproven = residual > config.residual_tol
    state[sup[unproven], path[unproven]] = _FAILED

    solutions: list[list[SolverEquilibrium]] = [[] for _ in supports]
    for s, point, res, mar in zip(sup, points, residual, margin):
        if res <= config.residual_tol and mar >= config.margin_tol:
            gamma = supports[s].fixed_gamma()
            gamma[free[s]] = point
            solutions[s].append(
                SolverEquilibrium(
                    gamma=tuple(float(g) for g in gamma),
                    support=supports[s],
                    residual=float(res),
                    margin=float(mar),
                    near_degenerate=bool(mar < config.near_degenerate_tol),
                )
            )
    paths = state if r >= 2 else state[:, :0]
    results = []
    for s in range(n):
        counts = np.bincount(paths[s], minlength=len(PATH_STATES))
        stats = {"starts": paths.shape[1], "converged": int(counts[:_DIVERGED].sum())}
        stats["retracked"] = paths.shape[1] * int(redo[s])
        stats.update(zip(PATH_STATES, counts.tolist()))
        stats["degenerate"] = bool(degenerate[s])
        results.append((sorted(solutions[s], key=lambda eq: eq.gamma), stats))
    return results


def solve_support(
    game: TwoActionGame | ProductTwoActionGame,
    support: SupportProfile,
    config: SolverConfig = SolverConfig(),
) -> tuple[list[SolverEquilibrium], dict]:
    """Equilibria whose support is exactly the given profile, plus statistics."""
    return _solve_batch(_vertex_differences(game), [support], config)[0]


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

    ``stats`` counts the paths tracked (``starts``: sum over r >= 2 of
    C(m, r) 2^(m-r) !r), the paths ending at a finite point (``converged``),
    the paths re-tracked after a jump or failure, the paths ending in each
    of PATH_STATES, and the degenerate supports.
    """
    vertex = _vertex_differences(game)
    m = len(vertex)
    # one batch per number of free players, the batches spread over the
    # threads; the pool starts no thread unless it is handed work
    supports = sorted(all_supports(m), key=lambda sp: sp.face_class)
    groups = [list(g) for _, g in itertools.groupby(supports, key=lambda sp: sp.face_class)]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        mapper = pool.map if config.threads > 1 else map
        batches = list(mapper(lambda group: _solve_batch(vertex, group, config), groups))

    equilibria: list[SolverEquilibrium] = []
    totals = dict.fromkeys(("starts", "converged", "retracked", *PATH_STATES), 0)
    totals["degenerate_supports"] = 0
    for solutions, stats in itertools.chain.from_iterable(batches):
        stats = dict(stats, degenerate_supports=int(stats["degenerate"]))
        for key in totals:
            totals[key] += stats[key]
        equilibria.extend(solutions)

    equilibria.sort(key=lambda eq: eq.gamma)
    census = [0] * (m + 1)
    for eq in equilibria:
        census[eq.face_class] += 1
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
    track_tol: float = 0.05,
) -> DeformationReport:
    """Perturb the game repeatedly and check the equilibrium count is stable.

    Each trial solves the perturbed game from scratch (the homotopy tracks
    every root, so no start points are carried over), compares its total
    with the exact equilibria of the unperturbed game and records how far
    each of them moved.  A baseline equilibrium with no perturbed
    equilibrium within ``track_tol`` counts as a tracking failure.
    """
    from .candidate_engine import equilibria as exact_equilibria

    baseline = [cand.gamma_floats() for cand in exact_equilibria(game, method="both")]
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
        tracked = True
        for point in baseline:
            drift = min(
                (
                    max(abs(a - b) for a, b in zip(point, eq.gamma))
                    for eq in report.equilibria
                ),
                default=np.inf,
            )
            if drift > track_tol:
                tracked = False
            else:
                max_drift = max(max_drift, drift)
        if not tracked:
            failures.append(t)
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
    vertex_bound_ok: bool
    interior_bound_ok: bool
    near_vertex_empty: bool

    @property
    def all_ok(self) -> bool:
        return (
            all(row["ok"] for row in self.rows)
            and self.vertex_bound_ok
            and self.interior_bound_ok
            and self.near_vertex_empty
        )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["cumulative"] = data.pop("rows")
        return dict(data, all_ok=self.all_ok)


def check_inequalities(census: Sequence[int], m: int) -> InequalityCheck:
    """Cumulative face-class bounds on an equilibrium census.

    For each d, the number of equilibria with at most d boundary coordinates
    may not exceed !m plus the half-candidate counts of the face classes
    1..d.  Also checks the individual bounds: at most !m interior equilibria,
    none with exactly m-1 boundary coordinates, at most 2^(m-1) vertices.
    """
    census = list(census)
    if len(census) != m + 1:
        raise ValueError(f"census must have {m + 1} entries")
    rows = []
    bound = subfactorial(m)
    lhs = 0
    for d in range(m + 1):
        lhs += census[d]
        if d >= 1:
            bound += candidates_on_face_class(m, d) // 2
        rows.append({"d": d, "count": lhs, "bound": bound, "ok": lhs <= bound})
    return InequalityCheck(
        m=m,
        census=census,
        rows=rows,
        vertex_bound_ok=census[m] <= 2 ** (m - 1),
        interior_bound_ok=census[0] <= subfactorial(m),
        near_vertex_empty=(m < 2 or census[m - 1] == 0),
    )


# -- randomized scans --------------------------------------------------------


def random_generic_game(
    m: int,
    rng: np.random.Generator,
    degeneracy_tol: float = 1e-8,
    max_regen: int = 100,
) -> TwoActionGame:
    """A float game with i.i.d. uniform [-1,1] utilities, degeneracy-guarded.

    Regenerates while any payoff difference at a vertex is within
    ``degeneracy_tol`` of zero.
    """
    for _ in range(max_regen):
        tables = rng.uniform(-1.0, 1.0, size=(m, 2**m))
        game = TwoActionGame(m, tables.tolist(), mode=FLOAT)
        if np.abs(_vertex_differences(game)).min() > degeneracy_tol:
            return game
    raise RuntimeError("could not draw a non-degenerate game")


@dataclass
class ScanReport:
    m: int
    trials: int
    violations: list[dict]
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
    max_retries: int = 4,
) -> ScanReport:
    """Solve many random generic games and check the face-class inequalities.

    An even equilibrium total indicates a missed root or a degenerate draw;
    the game is regenerated up to ``max_retries`` times before the trial is
    recorded as a failure.  Inequality violations are always recorded, never
    dropped.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    even_failures = regenerations = failed_paths = 0
    histogram: dict[int, int] = {}
    for trial in range(trials):
        for attempt in range(max_retries + 1):
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
    return ScanReport(
        m=m,
        trials=trials,
        violations=violations,
        even_count_failures=even_failures,
        regenerations=regenerations,
        totals_histogram=histogram,
        failed_paths=failed_paths,
        config=config,
        seed=seed,
    )
