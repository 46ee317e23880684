"""Independent numeric Nash solver for two-action games.

Enumerates all 3^m support profiles (each player: action 0, action 1, or
fully mixed) and, per profile, runs damped multi-start Newton on the square
multilinear system "payoff difference = 0 for every mixed player", then keeps
the roots that sit strictly inside the open face and satisfy the boundary
sign conditions with positive margin.  Start points come from a deterministic
low-discrepancy lattice; randomness enters only through game generation and
perturbation, always behind an explicit seed.

This solver never looks at the combinatorial structure of product games, so
its censuses are an independent check on the exact candidate engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import candidates_on_face_class, subfactorial
from .game_model import FLOAT, ProductTwoActionGame, TwoActionGame, perturb

ZERO, ONE, FREE = "zero", "one", "free"


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

    @classmethod
    def from_gamma(cls, gamma: Sequence[float]) -> "SupportProfile":
        return cls(
            tuple(ZERO if g == 0 else ONE if g == 1 else FREE for g in gamma)
        )


def all_supports(m: int):
    for kinds in itertools.product((ZERO, ONE, FREE), repeat=m):
        yield SupportProfile(kinds)


@dataclass(frozen=True)
class SolverConfig:
    starts_scale: int = 50  # starts per support = starts_scale * 2^{#free}
    residual_tol: float = 1e-10
    dedup_tol: float = 1e-6
    margin_tol: float = 1e-12
    near_degenerate_tol: float = 1e-8
    max_iter: int = 50
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


class _FloatGame:
    """Per-player difference tensors of a float game, ready for contraction."""

    def __init__(self, game: TwoActionGame):
        base = game.as_float()
        self.m = base.m
        self.diff = []
        for i in range(self.m):
            tensor = base.tensor(i + 1)
            self.diff.append(np.take(tensor, 1, axis=i) - np.take(tensor, 0, axis=i))

    def lam_batch(self, player0: int, gammas: np.ndarray) -> np.ndarray:
        """Payoff differences of a player (0-based) at a batch of profiles."""
        pts = np.delete(gammas, player0, axis=1)
        return _contract(self.diff[player0], pts)

    def lam_deriv_batch(self, player0: int, gammas: np.ndarray, var0: int) -> np.ndarray:
        """d lam / d gamma_var0 for var0 != player0, batched."""
        pts = np.delete(gammas, player0, axis=1)
        col = var0 if var0 < player0 else var0 - 1
        return _contract(self.diff[player0], pts, deriv_col=col)


def _contract(diff: np.ndarray, pts: np.ndarray, deriv_col: int | None = None) -> np.ndarray:
    """Multilinear contraction of a (2,)*k tensor against batched weights.

    Column ``a`` of ``pts`` carries the probability of index 1 on axis ``a``;
    ``deriv_col`` switches that axis to the derivative weights (-1, +1).
    """
    batch = pts.shape[0]
    val = np.broadcast_to(diff, (batch,) + diff.shape)
    for a in range(diff.ndim - 1, -1, -1):
        if a == deriv_col:
            val = val[..., 1] - val[..., 0]
        else:
            w = pts[:, a].reshape((batch,) + (1,) * (val.ndim - 2))
            val = val[..., 0] * (1 - w) + val[..., 1] * w
    return val


def _lattice_starts(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points in (0,1)^dim (Kronecker sequence)."""
    # root of x^(dim+1) = x + 1, the standard generalized golden ratio
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(k + 1) for k in range(dim)])
    points = np.mod(0.5 + np.arange(1, count + 1)[:, None] * alpha, 1.0)
    return 0.02 + 0.96 * points


def _boundary_margin(
    fg: _FloatGame, support: SupportProfile, gamma: np.ndarray
) -> float:
    """Min over boundary players of the correctly-signed payoff difference.

    Positive when all sign conditions hold strictly; the most violated or
    most fragile player determines the value.
    """
    margin = np.inf
    row = gamma[None, :]
    for i0, kind in enumerate(support.kinds):
        if kind == FREE:
            continue
        lam = float(fg.lam_batch(i0, row)[0])
        signed = -lam if kind == ZERO else lam
        margin = min(margin, signed)
    return margin


def _newton(
    fg: _FloatGame,
    support: SupportProfile,
    starts: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from each start; returns (points, residuals)."""
    free0 = [i - 1 for i in support.free_players]
    r = len(free0)
    batch = starts.shape[0]
    others = {i: [k for k in range(fg.m) if k != i] for i in free0}

    X = starts.copy()
    gammas = np.tile(support.fixed_gamma(), (batch, 1))
    residual = np.full(batch, np.inf)
    active = np.arange(batch)
    for _ in range(config.max_iter):
        gammas[active[:, None], free0] = X[active]
        sub = gammas[active]
        F = np.stack([fg.lam_batch(i, sub) for i in free0], axis=1)
        res = np.abs(F).max(axis=1)
        residual[active] = res
        still = res > 0.01 * config.residual_tol
        if not still.any():
            break
        active = active[still]
        sub = sub[still]
        F = F[still]
        J = np.zeros((len(active), r, r))
        for eq, i in enumerate(free0):
            for var, k in enumerate(free0):
                if k != i:
                    J[:, eq, var] = fg.lam_deriv_batch(i, sub, k)
        step = _solve_steps(J, F)
        norm = np.abs(step).max(axis=1)
        scale = np.minimum(1.0, 0.5 / np.maximum(norm, 1e-300))
        X[active] = np.clip(X[active] + scale[:, None] * step, -3.0, 4.0)
        stalled = norm * scale < 1e-15
        bad = ~np.isfinite(X[active]).all(axis=1)
        if bad.any():
            X[active[bad]] = 0.5
            residual[active[bad]] = np.inf
        drop = stalled | bad
        if drop.any():
            active = active[~drop]
        if len(active) == 0:
            break
    gammas[:, free0] = X
    return gammas, residual


def _solve_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.zeros_like(F)
        for b in range(J.shape[0]):
            try:
                step[b] = np.linalg.solve(J[b], -F[b])
            except np.linalg.LinAlgError:
                step[b] = 0.0
        return step


def solve_support(
    game: TwoActionGame | ProductTwoActionGame,
    support: SupportProfile,
    config: SolverConfig = SolverConfig(),
    extra_starts: Sequence[Sequence[float]] = (),
) -> tuple[list[SolverEquilibrium], dict]:
    """Equilibria whose support is exactly the given profile, plus statistics."""
    fg = game if isinstance(game, _FloatGame) else _FloatGame(_as_tensor(game))
    return _solve_support(fg, support, config, extra_starts)


def _as_tensor(game) -> TwoActionGame:
    return game.tensor if isinstance(game, ProductTwoActionGame) else game


def _solve_support(
    fg: _FloatGame,
    support: SupportProfile,
    config: SolverConfig,
    extra_starts: Sequence[Sequence[float]] = (),
) -> tuple[list[SolverEquilibrium], dict]:
    free0 = [i - 1 for i in support.free_players]
    r = len(free0)
    stats = {"starts": 0, "converged": 0, "degenerate": False}

    if r == 0:
        gamma = support.fixed_gamma()
        margin = _boundary_margin(fg, support, gamma)
        if margin >= config.margin_tol:
            eq = SolverEquilibrium(
                gamma=tuple(float(g) for g in gamma),
                support=support,
                residual=0.0,
                margin=margin,
                near_degenerate=margin < config.near_degenerate_tol,
            )
            return [eq], stats
        return [], stats

    if r == 1:
        # The single equation does not involve the free coordinate: it either
        # fails (generic) or degenerates to a continuum, which we report but
        # never count.
        gamma = support.fixed_gamma()
        lam = float(fg.lam_batch(free0[0], gamma[None, :])[0])
        if abs(lam) <= config.residual_tol:
            stats["degenerate"] = True
        return [], stats

    starts = _lattice_starts(config.starts_scale * 2**r, r)
    if len(extra_starts):
        starts = np.vstack([np.asarray(extra_starts, dtype=float), starts])
    stats["starts"] = len(starts)

    gammas, residual = _newton(fg, support, starts, config)
    converged = residual <= config.residual_tol
    stats["converged"] = int(converged.sum())

    interior = np.ones(len(gammas), dtype=bool)
    for i0 in free0:
        col = gammas[:, i0]
        interior &= (col > config.dedup_tol) & (col < 1 - config.dedup_tol)
    keep = converged & interior

    solutions: list[SolverEquilibrium] = []
    order = np.lexsort(gammas[keep].T[::-1])
    rows = np.flatnonzero(keep)[order]
    for b in rows:
        gamma = gammas[b]
        if any(
            np.abs(np.array(sol.gamma) - gamma).max() < config.dedup_tol
            for sol in solutions
        ):
            continue
        margin = _boundary_margin(fg, support, gamma)
        if margin < config.margin_tol:
            continue
        solutions.append(
            SolverEquilibrium(
                gamma=tuple(float(g) for g in gamma),
                support=support,
                residual=float(residual[b]),
                margin=margin,
                near_degenerate=margin < config.near_degenerate_tol,
            )
        )
    return solutions, stats


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
            "config": _config_dict(self.config),
            "equilibria": [
                {
                    "gamma": list(eq.gamma),
                    "support": list(eq.support.kinds),
                    "face_class": eq.face_class,
                    "residual": eq.residual,
                    "margin": eq.margin,
                    "near_degenerate": eq.near_degenerate,
                }
                for eq in self.equilibria
            ],
            "face_census": self.face_census,
            "total": self.total,
            "stats": self.stats,
        }


def _config_dict(config: SolverConfig) -> dict:
    return {
        "starts_scale": config.starts_scale,
        "residual_tol": config.residual_tol,
        "dedup_tol": config.dedup_tol,
        "margin_tol": config.margin_tol,
        "near_degenerate_tol": config.near_degenerate_tol,
        "max_iter": config.max_iter,
        "threads": config.threads,
    }


def solve_all(
    game: TwoActionGame | ProductTwoActionGame,
    config: SolverConfig = SolverConfig(),
    seed_points: Iterable[Sequence[float]] = (),
) -> SolverReport:
    """All equilibria of the game, by support enumeration.

    ``seed_points`` are full profiles used as additional Newton starts for
    the support they belong to (used to track equilibria under deformation).
    """
    tensor = _as_tensor(game)
    fg = _FloatGame(tensor)
    m = tensor.m

    seeds_by_support: dict[tuple, list] = {}
    for point in seed_points:
        sp = SupportProfile.from_gamma(tuple(point))
        free0 = [i - 1 for i in sp.free_players]
        seeds_by_support.setdefault(sp.kinds, []).append([point[i] for i in free0])

    supports = list(all_supports(m))

    def run(sp):
        return _solve_support(fg, sp, config, seeds_by_support.get(sp.kinds, ()))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, supports))
    else:
        results = [run(sp) for sp in supports]

    equilibria: list[SolverEquilibrium] = []
    totals = {"starts": 0, "converged": 0, "degenerate_supports": 0}
    for solutions, stats in results:
        totals["starts"] += stats["starts"]
        totals["converged"] += stats["converged"]
        totals["degenerate_supports"] += int(stats["degenerate"])
        for sol in solutions:
            if any(
                max(abs(a - b) for a, b in zip(sol.gamma, other.gamma))
                < config.dedup_tol
                for other in equilibria
            ):
                continue
            equilibria.append(sol)

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
    config: SolverConfig

    @property
    def all_stable(self) -> bool:
        return self.stable_trials == self.trials and not self.tracking_failures

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "epsilon": self.epsilon,
            "trials": self.trials,
            "baseline_total": self.baseline_total,
            "trial_totals": self.trial_totals,
            "stable_trials": self.stable_trials,
            "max_drift": self.max_drift,
            "tracking_failures": self.tracking_failures,
            "all_stable": self.all_stable,
            "config": _config_dict(self.config),
        }


def verify_deformation(
    game: ProductTwoActionGame,
    epsilon: float,
    trials: int,
    seed: int,
    config: SolverConfig = SolverConfig(),
    track_tol: float = 0.05,
) -> DeformationReport:
    """Perturb the game repeatedly and check the equilibrium count is stable.

    Each trial re-solves the perturbed game with Newton seeded at the exact
    equilibria of the unperturbed game plus the usual lattice starts, then
    compares totals and records how far each equilibrium moved.  A baseline
    equilibrium with no perturbed equilibrium within ``track_tol`` counts as
    a tracking failure.
    """
    from .candidate_engine import equilibria as exact_equilibria

    baseline = [cand.gamma_floats() for cand in exact_equilibria(game, method="both")]
    rng = np.random.default_rng(seed)
    trial_seeds = rng.integers(0, 2**63 - 1, size=trials)

    totals: list[int] = []
    failures: list[int] = []
    stable = 0
    max_drift = 0.0
    for t in range(trials):
        perturbed = perturb(game, epsilon, int(trial_seeds[t]))
        report = solve_all(perturbed, config, seed_points=baseline)
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
        return {
            "m": self.m,
            "census": self.census,
            "cumulative": self.rows,
            "interior_bound_ok": self.interior_bound_ok,
            "near_vertex_empty": self.near_vertex_empty,
            "vertex_bound_ok": self.vertex_bound_ok,
            "all_ok": self.all_ok,
        }


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
        fg = _FloatGame(game)
        vertices = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
        ok = True
        for i0 in range(m):
            if np.abs(fg.lam_batch(i0, vertices)).min() <= degeneracy_tol:
                ok = False
                break
        if ok:
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
    config: SolverConfig
    seed: int

    @property
    def all_ok(self) -> bool:
        return not self.violations and self.even_count_failures == 0

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "trials": self.trials,
            "violations": self.violations,
            "even_count_failures": self.even_count_failures,
            "regenerations": self.regenerations,
            "totals_histogram": {str(k): v for k, v in sorted(self.totals_histogram.items())},
            "all_ok": self.all_ok,
            "seed": self.seed,
            "config": _config_dict(self.config),
        }


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
    even_failures = 0
    regenerations = 0
    histogram: dict[int, int] = {}
    for trial in range(trials):
        for attempt in range(max_retries + 1):
            game = random_generic_game(m, rng)
            report = solve_all(game, config)
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
        config=config,
        seed=seed,
    )
