import math
import random

import numpy as np
import pytest

from twoaction.candidate_engine import equilibria
from twoaction.game_model import FLOAT, TwoActionGame, maximal_game, perturb
from twoaction import solver
from twoaction.combinatorics import subfactorial
from twoaction.solver import (
    PATH_STATES,
    SolverConfig,
    SupportProfile,
    all_supports,
    check_inequalities,
    random_generic_game,
    scan_inequalities,
    solve_all,
    solve_support,
    verify_deformation,
)

def matching_pennies() -> TwoActionGame:
    return TwoActionGame(2, [[1, -1, -1, 1], [-1, 1, 1, -1]], mode=FLOAT)


def match_sets(found, expected, tol):
    """Greedy nearest-neighbour matching of two equal-size point sets."""
    assert len(found) == len(expected)
    remaining = [np.asarray(p, dtype=float) for p in expected]
    worst = 0.0
    for point in found:
        point = np.asarray(point, dtype=float)
        dists = [np.abs(point - q).max() for q in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        del remaining[k]
    assert worst <= tol, f"worst match distance {worst}"
    return worst


class TestSupportProfile:
    def test_counts(self):
        assert sum(1 for _ in all_supports(3)) == 27

    def test_fields(self):
        sp = SupportProfile(("zero", "free", "one"))
        assert sp.free_players == (2,)
        assert sp.face_class == 2
        assert list(sp.fixed_gamma()) == [0.0, 0.5, 1.0]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SupportProfile(("zero", "maybe"))


class TestSolveSupport:
    def test_interior_matching_pennies(self):
        sols, stats = solve_support(
            matching_pennies(), SupportProfile(("free", "free"))
        )
        assert len(sols) == 1
        assert np.abs(np.array(sols[0].gamma) - 0.5).max() < 1e-10
        assert stats["starts"] == stats["converged"] == 1

    def test_vertex_rejected_when_sign_fails(self):
        # matching pennies has no pure equilibrium
        for kinds in [("zero", "zero"), ("zero", "one"), ("one", "zero"), ("one", "one")]:
            sols, _ = solve_support(matching_pennies(), SupportProfile(kinds))
            assert sols == []

    def test_single_free_player_degenerate_flag(self):
        # with all-zero utilities the one equation is identically zero:
        # a continuum, reported as degenerate and never counted
        flat = TwoActionGame(2, [[0.0] * 4] * 2, mode=FLOAT)
        sols, stats = solve_support(flat, SupportProfile(("free", "zero")))
        assert sols == []
        assert stats["degenerate"] is True

    def test_single_free_player_generic_empty(self):
        sols, stats = solve_support(
            matching_pennies(), SupportProfile(("free", "zero"))
        )
        assert sols == []
        assert stats["degenerate"] is False


class TestSolveAll:
    def test_matching_pennies(self):
        report = solve_all(matching_pennies())
        assert report.total == 1
        assert report.face_census == [1, 0, 0]

    @pytest.mark.parametrize("m,total", [(1, 1), (2, 3), (3, 9)])
    def test_maximal_counts(self, m, total):
        report = solve_all(maximal_game(m))
        assert report.total == total

    def test_matches_exact_engine_m3(self):
        game = maximal_game(3)
        report = solve_all(game)
        exact = [e.gamma_floats() for e in equilibria(game, method="both")]
        match_sets([e.gamma for e in report.equilibria], exact, 1e-9)
        assert report.stats["failed"] == 0

    @pytest.mark.parametrize("m, seed", [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1)])
    def test_matches_exact_engine_on_product_games(self, random_product_game, m, seed):
        # product games that are not maximal
        game = random_product_game(m, random.Random(seed))
        report = solve_all(game)
        exact = [e.gamma_floats() for e in equilibria(game, method="both")]
        match_sets([e.gamma for e in report.equilibria], exact, 1e-9)
        assert report.stats["failed"] == 0

    def test_threads_give_same_answer(self):
        game = maximal_game(3)
        one = solve_all(game)
        two = solve_all(game, SolverConfig(threads=4))
        assert [e.gamma for e in one.equilibria] == [e.gamma for e in two.equilibria]

    def test_report_serializes(self):
        import json

        data = solve_all(matching_pennies(), SolverConfig(residual_tol=1e-9)).to_dict()
        json.dumps(data, allow_nan=False)
        assert data["total"] == 1
        # fully mixed: no boundary player, so no margin
        assert data["equilibria"][0]["margin"] is None
        assert data["config"] == {
            "residual_tol": 1e-9,
            "margin_tol": 1e-12,
            "near_degenerate_tol": 1e-8,
            "threads": 1,
        }


class TestHomotopy:
    def test_face_coefficients_evaluate_the_payoff_differences(self):
        game = random_generic_game(4, np.random.default_rng(3))
        vertex = solver._vertex_differences(game)
        rng = np.random.default_rng(4)
        for sp in all_supports(4):
            free0 = [i - 1 for i in sp.free_players]
            coeffs = solver._face_coefficients(vertex, [sp])[0]
            x = rng.uniform(-1, 2, size=(3, len(free0)))
            M = solver._monomials(x)
            for point, values in zip(x, M @ coeffs.T):
                gamma = sp.fixed_gamma()
                gamma[free0] = point
                lams = [game.lam_at_profile(i, gamma) for i in range(1, 5)]
                assert np.allclose(values, lams)
            # the own coordinate never enters the own equation
            for e, i in enumerate(free0):
                bit = 1 << (len(free0) - 1 - e)
                assert not coeffs[i, [s for s in range(M.shape[1]) if s & bit]].any()

    def test_monomial_gradients_match_finite_differences(self):
        # the gather S -> S without k, checked at every bit position k
        rng = np.random.default_rng(0)
        h = 1e-7
        for r in range(1, 7):
            x = rng.uniform(-2, 2, size=(4, r)) + 1j * rng.uniform(-1, 1, size=(4, r))
            M = solver._monomials(x)
            dM = solver._gradients(M)
            assert dM.shape == (4, r, 2**r)
            # bit masks with the first player most significant
            members = [[j for j in range(r) if S >> (r - 1 - j) & 1] for S in range(2**r)]
            assert np.allclose(M, [[np.prod(p[js]) for js in members] for p in x])
            for k in range(r):
                shifted = x.copy()
                shifted[:, k] += h
                assert np.allclose((solver._monomials(shifted) - M) / h, dM[:, k], atol=1e-6)

    def test_singular_jacobian_gives_nan_for_its_path_only(self):
        # F = (x2 - 1, x1 - 2) has an invertible Jacobian; F = (x2, 0) does not
        C = np.array([[[-1.0, 1, 0, 0], [-2, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 0]]])
        M = solver._monomials(np.zeros((2, 2)))
        inverse = solver._inverse(solver._jacobian(C, M))
        step = solver._step(inverse, C, M)
        assert np.allclose(step[0], [2, 1])
        assert np.isnan(inverse[1]).all() and np.isnan(step[1]).all()

    def test_two_factorizations_per_round(self, monkeypatch):
        # the chord corrector and the carried tangent leave one inverse for
        # k2 and one for both corrections; the first is taken once, at t = 0
        calls = []
        inverse = solver._inverse
        monkeypatch.setattr(solver, "_inverse", lambda J: calls.append(len(J)) or inverse(J))
        # a step spans at most 1/4, so no path ends within three rounds
        monkeypatch.setattr(solver, "_MAX_ROUNDS", 3)
        vertex = solver._vertex_differences(maximal_game(4))
        supports = [sp for sp in all_supports(4) if len(sp.free_players) == 4]
        target = solver._face_coefficients(vertex, supports)
        start, roots = solver._start_system(4)
        per_path = np.repeat(target, len(roots), axis=0)
        _, reached, _ = solver._track(per_path, start, roots, 1)
        assert not reached.any()
        assert calls == [len(roots)] * (1 + 2 * 3)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_start_roots_are_the_derangements(self, r):
        coeffs, roots = solver._start_system(r)
        assert len(roots) == subfactorial(r)
        M = solver._monomials(roots)
        dM = solver._gradients(M)
        assert np.abs(M @ coeffs.T).max() < 1e-12
        # every start root is regular, so every path starts well defined
        jac = np.einsum("is,pks->pik", coeffs, dM)
        assert (np.abs(np.linalg.det(jac)) > 1e-6).all()
        assert len({tuple(np.round(p, 12)) for p in roots}) == len(roots)


class TestPathAccounting:
    def test_counterexample_census(self):
        # the generic m = 3 game that breaks the halved bound at d = 1;
        # this pins that the solver finds all seven of its equilibria
        game = random_generic_game(3, np.random.default_rng(6153263537864010520))
        report = solve_all(game)
        assert report.face_census == [2, 4, 0, 1]
        assert report.stats["failed"] == 0

    def test_one_path_per_derangement(self):
        report = solve_all(maximal_game(5))
        expected = sum(
            math.comb(5, r) * 2 ** (5 - r) * subfactorial(r) for r in range(2, 6)
        )
        assert expected == 294
        assert report.stats["starts"] == 294
        assert report.stats["converged"] == 294
        assert report.stats["failed"] == 0
        assert report.total == 185

    def test_every_path_ends_in_a_named_state(self):
        for seed in range(3):
            stats = solve_all(random_generic_game(4, np.random.default_rng(seed))).stats
            assert sum(stats[state] for state in PATH_STATES) == stats["starts"] == 49
            assert stats["converged"] == stats["starts"] - stats["diverged"] - stats["failed"]

    def test_root_at_infinity_is_diverged(self):
        # lam_1 = 1 everywhere: the (free, free) system has no finite root
        game = TwoActionGame(2, [[0, 0, 1, 1], [0, 1, 0, -1]], mode=FLOAT)
        stats = solve_all(game).stats
        assert stats["diverged"] == 1
        assert stats["converged"] == stats["failed"] == 0

    @pytest.mark.parametrize("corrector_tol, shrink", [(0.1, 8), (10.0, 1)])
    def test_path_jumps_are_retracked_or_reported(self, monkeypatch, corrector_tol, shrink):
        # a loose step control makes paths jump on maximal_game(4); the
        # census is then exact after re-tracking or the failure is counted
        monkeypatch.setattr(solver, "_MAX_STEP", 1.0)
        monkeypatch.setattr(solver, "_CORRECTOR_TOL", corrector_tol)
        monkeypatch.setattr(solver, "_RETRACK_SHRINK", shrink)
        report = solve_all(maximal_game(4))
        assert report.stats["retracked"] > 0
        assert report.total == 37 or report.stats["failed"] > 0

    def test_batches_match_single_supports(self):
        game = maximal_game(3)
        report = solve_all(game)
        single = []
        for sp in all_supports(3):
            single += solve_support(game, sp)[0]
        assert sorted(eq.gamma for eq in single) == [eq.gamma for eq in report.equilibria]


class TestDeformation:
    def test_maximal_m2_stable(self):
        report = verify_deformation(maximal_game(2), 1e-3, trials=5, seed=0)
        assert report.all_stable
        assert report.baseline_total == 3
        assert report.trial_totals == [3] * 5
        assert report.max_drift < 0.05

    def test_reports_tracking_failure_for_huge_epsilon(self):
        # epsilon far beyond the stability radius must not silently pass
        report = verify_deformation(maximal_game(2), 5.0, trials=4, seed=1)
        assert not report.all_stable

    def test_serializes(self):
        import json

        report = verify_deformation(maximal_game(2), 1e-3, trials=2, seed=0)
        json.dumps(report.to_dict())


class TestInequalities:
    def test_maximal_census_is_tight(self):
        # the maximal game meets every cumulative bound with equality
        for m in (2, 3, 4):
            from twoaction.candidate_engine import census

            report = census(maximal_game(m), method="increment")
            check = check_inequalities(report.equilibria_per_class, m)
            assert check.all_ok
            assert all(row["count"] == row["bound"] for row in check.rows)

    def test_m3_bounds(self):
        check = check_inequalities([2, 3, 0, 4], 3)
        assert [row["bound"] for row in check.rows] == [2, 5, 5, 9]

    def test_violations_detected(self):
        assert not check_inequalities([3, 0, 0, 0], 3).all_ok  # interior > !3
        assert not check_inequalities([0, 0, 1, 0], 3).all_ok  # near-vertex class
        assert not check_inequalities([0, 0, 0, 5], 3).all_ok  # > 2^(m-1) vertices

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_inequalities([1, 2], 3)


class TestRandomScan:
    def test_random_game_is_deterministic_and_generic(self):
        a = random_generic_game(3, np.random.default_rng(0))
        b = random_generic_game(3, np.random.default_rng(0))
        assert a.utilities == b.utilities
        assert all(abs(u) <= 1.0 for t in a.utilities for u in t)

    def test_scan_small(self):
        report = scan_inequalities(2, trials=10, seed=3)
        assert report.all_ok
        assert report.even_count_failures == 0
        assert sum(report.totals_histogram.values()) == 10
        assert all(total % 2 == 1 for total in report.totals_histogram)

    def test_scan_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            scan_inequalities(2, trials=1, seed=0, max_retries=-1)

    def test_config_has_no_seed(self):
        # nothing in the solver is random, so the config carries no seed
        assert "seed" not in solve_all(matching_pennies()).to_dict()["config"]

    def test_perturbed_game_count_is_odd(self):
        report = solve_all(perturb(maximal_game(3), 1e-4, seed=5))
        assert report.total % 2 == 1
