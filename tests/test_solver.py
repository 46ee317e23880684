import numpy as np
import pytest

from twoaction.candidate_engine import equilibria
from twoaction.game_model import FLOAT, TwoActionGame, maximal_game, perturb
from twoaction.solver import (
    SolverConfig,
    SupportProfile,
    _lattice_starts,
    all_supports,
    check_inequalities,
    random_generic_game,
    scan_inequalities,
    solve_all,
    solve_support,
    verify_deformation,
)

FAST = SolverConfig(starts_scale=12, max_iter=40)


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

    def test_from_gamma(self):
        sp = SupportProfile.from_gamma((0.0, 0.3, 1.0))
        assert sp.kinds == ("zero", "free", "one")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SupportProfile(("zero", "maybe"))


class TestLatticeStarts:
    def test_shape_range_determinism(self):
        a = _lattice_starts(100, 3)
        b = _lattice_starts(100, 3)
        assert a.shape == (100, 3)
        assert (a > 0).all() and (a < 1).all()
        assert np.array_equal(a, b)

    def test_low_discrepancy_in_1d(self):
        pts = np.sort(_lattice_starts(200, 1)[:, 0])
        assert np.diff(pts).max() < 0.05  # no large gaps


class TestSolveSupport:
    def test_interior_matching_pennies(self):
        sols, stats = solve_support(
            matching_pennies(), SupportProfile(("free", "free")), FAST
        )
        assert len(sols) == 1
        assert np.abs(np.array(sols[0].gamma) - 0.5).max() < 1e-10
        assert stats["converged"] > 0

    def test_vertex_rejected_when_sign_fails(self):
        # matching pennies has no pure equilibrium
        for kinds in [("zero", "zero"), ("zero", "one"), ("one", "zero"), ("one", "one")]:
            sols, _ = solve_support(matching_pennies(), SupportProfile(kinds), FAST)
            assert sols == []

    def test_single_free_player_degenerate_flag(self):
        # with all-zero utilities the one equation is identically zero:
        # a continuum, reported as degenerate and never counted
        flat = TwoActionGame(2, [[0.0] * 4] * 2, mode=FLOAT)
        sols, stats = solve_support(flat, SupportProfile(("free", "zero")), FAST)
        assert sols == []
        assert stats["degenerate"] is True

    def test_single_free_player_generic_empty(self):
        sols, stats = solve_support(
            matching_pennies(), SupportProfile(("free", "zero")), FAST
        )
        assert sols == []
        assert stats["degenerate"] is False


class TestSolveAll:
    def test_matching_pennies(self):
        report = solve_all(matching_pennies(), FAST)
        assert report.total == 1
        assert report.face_census == [1, 0, 0]

    @pytest.mark.parametrize("m,total", [(1, 1), (2, 3), (3, 9)])
    def test_maximal_counts(self, m, total):
        report = solve_all(maximal_game(m), FAST)
        assert report.total == total

    def test_matches_exact_engine_m3(self):
        game = maximal_game(3)
        report = solve_all(game, FAST)
        exact = [e.gamma_floats() for e in equilibria(game, method="both")]
        match_sets([e.gamma for e in report.equilibria], exact, 1e-9)

    def test_threads_give_same_answer(self):
        game = maximal_game(3)
        one = solve_all(game, FAST)
        two = solve_all(game, SolverConfig(starts_scale=12, max_iter=40, threads=4))
        assert [e.gamma for e in one.equilibria] == [e.gamma for e in two.equilibria]

    def test_report_serializes(self):
        import json

        data = solve_all(matching_pennies(), FAST).to_dict()
        json.dumps(data)
        assert data["total"] == 1
        assert data["config"]["starts_scale"] == 12

    def test_seed_points_are_used(self):
        # a seed point at the known root must be picked up by its support
        game = maximal_game(2)
        report = solve_all(game, FAST, seed_points=[(0.5, 2 / 3)])
        assert report.total == 3


class TestDeformation:
    def test_maximal_m2_stable(self):
        report = verify_deformation(maximal_game(2), 1e-3, trials=5, seed=0, config=FAST)
        assert report.all_stable
        assert report.baseline_total == 3
        assert report.trial_totals == [3] * 5
        assert report.max_drift < 0.05

    def test_reports_tracking_failure_for_huge_epsilon(self):
        # epsilon far beyond the stability radius must not silently pass
        report = verify_deformation(maximal_game(2), 5.0, trials=4, seed=1, config=FAST)
        assert not report.all_stable

    def test_serializes(self):
        import json

        report = verify_deformation(maximal_game(2), 1e-3, trials=2, seed=0, config=FAST)
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
        report = scan_inequalities(2, trials=10, seed=3, config=FAST)
        assert report.all_ok
        assert report.even_count_failures == 0
        assert sum(report.totals_histogram.values()) == 10
        assert all(total % 2 == 1 for total in report.totals_histogram)

    def test_scan_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            scan_inequalities(2, trials=1, seed=0, config=FAST, max_retries=-1)

    def test_config_has_no_seed(self):
        # nothing in the solver is random, so the config carries no seed
        assert "seed" not in solve_all(matching_pennies(), FAST).to_dict()["config"]

    def test_perturbed_game_count_is_odd(self):
        report = solve_all(perturb(maximal_game(3), 1e-4, seed=5), FAST)
        assert report.total % 2 == 1
