import importlib
import itertools
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    deformation_drift,
    lam_at_profile,
    monomials,
    solve_all_tracking_every_face,
)
from twoaction.candidate_engine import census, equilibria
from twoaction.game_model import FLOAT, TwoActionGame, build_product_game, maximal_game, perturb
from twoaction import solver
from twoaction.cli import main
from twoaction.combinatorics import candidate_count, maximal_equilibrium_count, subfactorial
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
        # the solver reads the kinds as signs, and fills a point into the vertex sign > 0
        sign = solver._batch([sp]).sign[0]
        assert list(sign) == [-1, 0, 1]
        assert list((sign > 0).astype(float)) == [0.0, 0.0, 1.0]

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
        assert stats["degenerate_supports"] == 1

    def test_single_free_player_generic_empty(self):
        sols, stats = solve_support(
            matching_pennies(), SupportProfile(("free", "zero"))
        )
        assert sols == []
        assert stats["degenerate_supports"] == 0


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

    @pytest.mark.parametrize("prefers", [0, 1])
    def test_dominant_player_leaves_matching_pennies(self, prefers):
        # players 1 and 2 play matching pennies; player 3 strictly prefers
        # one action, so the one equilibrium mixes 1 and 2 evenly
        profiles = list(itertools.product((0, 1), repeat=3))
        tables = [
            [1.0 if b[0] == b[1] else -1.0 for b in profiles],
            [1.0 if b[0] != b[1] else -1.0 for b in profiles],
            [1.0 if b[2] == prefers else 0.0 for b in profiles],
        ]
        report = solve_all(TwoActionGame(3, tables, mode=FLOAT))
        assert [eq.gamma for eq in report.equilibria] == [pytest.approx((0.5, 0.5, prefers))]
        assert report.stats["failed"] == 0

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_utility_scale_changes_no_answer(self, c):
        # c * G has the equilibria of G: residuals and margins are measured
        # against the game's own scale, not in absolute units
        rng = np.random.default_rng(3)
        games = [maximal_game(4).tensor.as_float()]
        games += [random_generic_game(m, rng) for m in (3, 3, 3, 3, 4, 4, 4)]
        for game in games:
            utilities = [[c * u for u in table] for table in game.utilities]
            base = solve_all(game)
            scaled = solve_all(TwoActionGame(game.m, utilities, mode=FLOAT))
            assert scaled.face_census == base.face_census
            assert scaled.stats["failed"] == base.stats["failed"] == 0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_order_is_a_property_of_the_game(self, m, monkeypatch):
        # a tighter tracking tolerance moves the points by rounding noise,
        # which must not reorder the equilibria
        games = [maximal_game(m), random_generic_game(m, np.random.default_rng(m))]
        for game in games:
            default = solve_all(game).equilibria
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_CORRECTOR_TOL", 5e-4)
                tighter = solve_all(game).equilibria
            assert [e.support for e in tighter] == [e.support for e in default]
            gammas = [e.gamma for e in tighter], [e.gamma for e in default]
            assert np.abs(np.subtract(*gammas)).max() < 1e-12

    def test_threads_give_same_answer(self):
        game = maximal_game(3)
        one = solve_all(game)
        two = solve_all(game, SolverConfig(threads=4))
        assert [e.gamma for e in one.equilibria] == [e.gamma for e in two.equilibria]

    def test_report_serializes(self):
        import json

        data = solve_all(matching_pennies()).to_dict()
        json.dumps(data, allow_nan=False)
        assert data["total"] == 1
        # fully mixed: no boundary player, so no margin
        assert data["equilibria"][0]["margin"] is None
        assert data["config"] == {"threads": 1}


class TestHomotopy:
    def test_face_coefficients_evaluate_the_payoff_differences(self):
        game = random_generic_game(4, np.random.default_rng(3))
        vertex = solver._vertex_differences(game)
        rng = np.random.default_rng(4)
        for sp in all_supports(4):
            free0 = [i - 1 for i in sp.free_players]
            batch = solver._batch([sp])
            at_vertices = solver._face_values(vertex, batch)
            coeffs = solver._moebius(at_vertices)[0]
            # the vertices of the face, then points off it
            corners = np.array(list(itertools.product((0.0, 1.0), repeat=len(free0))))
            assert np.allclose(solver._monomials(corners) @ coeffs.T, at_vertices[0].T)
            x = rng.uniform(-1, 2, size=(3, len(free0)))
            M = solver._monomials(x)
            for point, values in zip(x, M @ coeffs.T):
                gamma = (batch.sign[0] > 0).astype(float)
                gamma[free0] = point
                lams = [lam_at_profile(game, i, gamma) for i in range(1, 5)]
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
            dM = solver._linearized(np.eye(2**r), M)[0].transpose(0, 2, 1)
            assert dM.shape == (4, r, 2**r)
            # bit masks with the first player most significant
            members = [[j for j in range(r) if S >> (r - 1 - j) & 1] for S in range(2**r)]
            assert np.allclose(M, [[np.prod(p[js]) for js in members] for p in x])
            for k in range(r):
                shifted = x.copy()
                shifted[:, k] += h
                assert np.allclose((solver._monomials(shifted) - M) / h, dM[:, k], atol=1e-6)

    @pytest.mark.parametrize("r", range(8))
    def test_monomials_are_the_products(self, r):
        # doubling multiplies each monomial's factors in the oracle's order,
        # so the two agree bit for bit, zeros and complex points included
        rng = np.random.default_rng(r)
        real = rng.uniform(-2, 2, size=(20, r))
        points = real + 1j * rng.uniform(-2, 2, size=(20, r))
        zeros = np.where(rng.random((20, r)) < 0.3, 0.0, points)
        for x in (points, real, zeros):
            assert np.array_equal(solver._monomials(x), monomials(x))

    def test_singular_jacobian_gives_nan_for_its_path_only(self):
        # F = (x2 - 1, x1 - 2) has an invertible Jacobian; F = (x2, 0) does not
        C = np.array([[[-1.0, 1, 0, 0], [-2, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 0]]])
        M = solver._monomials(np.zeros((2, 2)))
        inverse = solver._inverse(solver._linearized(C, M)[0])
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
        own = solver._moebius(solver._face_values(vertex, solver._batch(supports)))
        start, roots = solver._start_system(4)
        per_path = np.repeat(own, len(roots), axis=0)
        _, reached, accepted, rejected = solver._track(per_path, start, roots, 1)
        assert not reached.any()
        assert accepted + rejected == 3 * len(per_path)
        assert calls == [len(roots)] * (1 + 2 * 3)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_start_roots_are_the_derangements(self, r):
        coeffs, roots = solver._start_system(r)
        assert len(roots) == subfactorial(r)
        M = solver._monomials(roots)
        dM = solver._linearized(np.eye(2**r), M)[0].transpose(0, 2, 1)
        assert np.abs(M @ coeffs.T).max() < 1e-12
        # every start root is regular, so every path starts well defined; the
        # condition number does not depend on where the roots are placed, as
        # a determinant does (at r = 5 the least |det| is about 6e-11)
        jac = np.einsum("is,pks->pik", coeffs, dM)
        assert np.linalg.cond(jac).max() < 1e3
        assert len({tuple(np.round(p, 12)) for p in roots}) == len(roots)


class TestPathAccounting:
    def test_counterexample_census(self):
        # the generic m = 3 game above the product-game bound at l = 1;
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
        # the paths of the 80 faces with r = 2 (one each) and the 40 with
        # r = 3 (two each) are solved in closed form
        assert report.stats["closed_form"] == 80 * 1 + 40 * 2
        # the rounds of the other 134 paths: exact, so a change in work shows
        # here.  They were (10470, 1228) with start roots around 0, and
        # (6899, 776) from the centre of the face while the faces with r <= 3
        # were tracked too.
        assert (report.stats["steps"], report.stats["rejected"]) == (4725, 558)

    def test_every_path_ends_in_a_named_state(self):
        # every support is solved: !r paths on each face with r >= 2 free
        # players, V(m) - 2^m in all (49 at m = 4) whatever the payoffs;
        # criterion 5 checks the maximal games
        games = [random_generic_game(4, np.random.default_rng(seed)) for seed in range(3)]
        games += [random_generic_game(m, np.random.default_rng(m)) for m in (3, 5)]
        for game in games:
            stats = solve_all(game).stats
            assert sum(stats[state] for state in PATH_STATES) == stats["starts"]
            assert stats["starts"] == candidate_count(game.m) - 2**game.m
            assert stats["converged"] == stats["starts"] - stats["diverged"] - stats["failed"]

    def test_root_at_infinity_is_diverged(self, monkeypatch):
        # lam_1 = 1 everywhere: the (free, free) system has no finite root,
        # so its one path diverges, tracked or in closed form
        game = TwoActionGame(2, [[0, 0, 1, 1], [0, 1, 0, -1]], mode=FLOAT)
        stats = solve_all(game).stats
        assert stats["starts"] == stats["diverged"] == 1
        assert stats["converged"] == stats["failed"] == 0
        batch = solver._batch([SupportProfile(("free", "free"))])
        target = solver._moebius(solver._face_values(solver._vertex_differences(game), batch))
        every = np.ones((1, 1), dtype=bool)
        with np.errstate(all="ignore"):
            # in closed form the root is -c / d with d = 0
            _, closed, work = solver._solve_paths(target, every, 1)
            monkeypatch.setattr(solver, "_CLOSED_FORM_R", 1)
            _, state, _ = solver._solve_paths(target, every, 1)
        assert state.tolist() == closed.tolist() == [PATH_STATES.index("diverged")]
        assert work.tolist() == [0, 0, 1]

    def test_only_the_later_of_two_equal_endpoints_fails(self, monkeypatch):
        # maximal_game(4)'s fully mixed support has !4 = 9 real interior
        # roots, and r = 4 is the least r whose paths are tracked.  Its paths
        # 3 and 5 both ending at the root of path 3 is a path jump in that
        # support; the same roots reached in another support are none.
        batch = solver._batch([SupportProfile(("free",) * 4)])
        vertex = solver._vertex_differences(maximal_game(4))
        target = solver._moebius(solver._face_values(vertex, batch))
        roots, state, _ = solver._solve_paths(target, np.ones((1, 9), dtype=bool), 1)
        interior, failed = PATH_STATES.index("real_interior"), PATH_STATES.index("failed")
        assert state.tolist() == [interior] * 9
        jumped = np.concatenate([roots, roots])
        jumped[5] = jumped[3]
        monkeypatch.setattr(solver, "_track", lambda *args: (jumped, np.ones(18, bool), 0, 0))
        two = np.concatenate([target, target])
        ends, state, _ = solver._solve_paths(two, np.ones((2, 9), dtype=bool), 1)
        state = state.reshape(2, 9)
        state[solver._same_endpoints(ends.reshape(2, 9, 4), state).any(axis=1)] = solver._FAILED
        assert state.tolist() == [[interior] * 5 + [failed] + [interior] * 3, [interior] * 9]

    def test_only_the_paths_of_a_jump_are_retracked(self, monkeypatch):
        # Two paths of maximal_game(4)'s fully mixed support are made to end
        # at one point.  Those two alone are tracked again, from their own
        # start roots on the first pass's homotopy with smaller steps, and
        # every other endpoint is kept as the first pass left it.
        calls, track = [], solver._track

        def jump_once(target, start, x, shrink):
            end, *rest = track(target, start, x, shrink)
            calls.append((start, x, shrink))
            if len(calls) == 1:
                end[5] = end[3]
            return (end, *rest)

        game = maximal_game(4)
        baseline = solve_all(game)
        supports = [sp for sp in all_supports(4) if len(sp.free_players) == 4]
        monkeypatch.setattr(solver, "_track", jump_once)
        solutions, stats = solver._solve_batch(
            solver._vertex_differences(game), solver._batch(supports)
        )
        assert stats["retracked"] == 2 and stats["failed"] == 0
        (first, roots, one), (again, redone, shrink) = calls
        assert again is first and (one, shrink) == (1, solver._RETRACK_SHRINK)
        assert np.array_equal(redone, roots[[3, 5]])
        # the fully mixed support holds !4 = 9 equilibria, one per path
        kept = [eq.gamma for eq in baseline.equilibria if eq.support == supports[0]]
        found = [eq.gamma for eq in sorted(solutions, key=solver._report_order)]
        assert len(found) == len(kept) == 9
        assert sum(a == b for a, b in zip(found, kept)) >= 7
        assert np.abs(np.subtract(found, kept)).max() < 1e-12

    @pytest.mark.parametrize("noise", [0.0, 1e-17, 1e-12])
    def test_degenerate_face_fails_untracked(self, noise):
        # player 1 is indifferent everywhere, within rounding of the largest
        # payoff difference, so every face where it is free is degenerate, at
        # every r: no isolated root, and its paths fail without a round.
        # Those are 6 of the 8 paths: the 4 faces with player 1 and one other
        # player free hold one path each, and the fully mixed face two.
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, size=(3, 8))
        t[0] = noise * rng.uniform(-1, 1, size=8)
        report = solve_all(TwoActionGame(3, t.tolist(), mode=FLOAT))
        stats = report.stats
        assert (stats["failed"], stats["starts"]) == (6, 8)
        assert stats["steps"] == stats["rejected"] == stats["retracked"] == 0
        assert stats["degenerate_supports"] == 9
        # no equilibrium lies on a degenerate face.  At a vertex, player 1's
        # margin is a sum of noise entries: below _MARGIN_TOL with no noise
        # or 1e-17 of it, so no profile is an equilibrium; at 1e-12 it can
        # clear _MARGIN_TOL, and one vertex is.
        assert all(eq.support.kinds[0] != "free" for eq in report.equilibria)
        assert report.total == 0 or noise >= solver._MARGIN_TOL

    @pytest.mark.parametrize("corrector_tol, shrink", [(0.5, 8), (10.0, 1)])
    def test_path_jumps_are_retracked_or_reported(self, monkeypatch, corrector_tol, shrink):
        # a loose step control makes paths of maximal_game(5)'s fully mixed
        # support jump (faces with r <= 3 are solved in closed form, and at
        # 0.5 no path of maximal_game(4) jumps); its !5 = 44 roots are then
        # found after re-tracking or the failure is counted
        monkeypatch.setattr(solver, "_MAX_STEP", 1.0)
        monkeypatch.setattr(solver, "_CORRECTOR_TOL", corrector_tol)
        monkeypatch.setattr(solver, "_RETRACK_SHRINK", shrink)
        solutions, stats = solve_support(maximal_game(5), SupportProfile(("free",) * 5))
        assert stats["retracked"] > 0
        assert len(solutions) == 44 or stats["failed"] > 0

    def test_batches_match_single_supports(self):
        game = maximal_game(3)
        report = solve_all(game)
        single = []
        for sp in all_supports(3):
            single += solve_support(game, sp)[0]
        assert sorted(eq.gamma for eq in single) == sorted(eq.gamma for eq in report.equilibria)

    def test_support_stats_add_up_to_solve_all(self):
        game = random_generic_game(4, np.random.default_rng(0))
        totals = solve_all(game).stats
        summed = dict.fromkeys(totals, 0)
        for sp in all_supports(4):
            stats = solve_support(game, sp)[1]
            assert stats.keys() == totals.keys()
            for key in summed:
                summed[key] += stats[key]
        assert summed == totals


def game_with_differences(*differences) -> TwoActionGame:
    """The float game in which player i's payoff difference is
    ``differences[i]``, a function of the pure profile that does not read
    player i's own action: u_i is b_i times it."""
    profiles = list(itertools.product((0, 1), repeat=len(differences)))
    tables = [[b[i] * f(*b) for b in profiles] for i, f in enumerate(differences)]
    return TwoActionGame(len(differences), tables, mode=FLOAT)


FULLY_MIXED_3 = SupportProfile(("free",) * 3)


def assert_states_as_tracked(game):
    """The paths of every support end in the states they end in when tracked."""
    found, tracked = solve_all(game).stats, solve_all_tracking_every_face(game).stats
    assert [found[k] for k in PATH_STATES] == [tracked[k] for k in PATH_STATES]


class TestClosedForm:
    """Faces with r = 2 and 3 are solved in closed form, not tracked."""

    def test_matches_tracking_every_face(self, random_product_game):
        rng, py_rng = np.random.default_rng(23), random.Random(23)
        games = [random_generic_game(m, rng) for m in [3] * 12 + [4] * 6]
        games += [random_product_game(m, py_rng) for m in (3, 3, 4, 4, 5)]
        games.append(maximal_game(3))
        closed = 0
        for game in games:
            report, reference = solve_all(game), solve_all_tracking_every_face(game)
            assert reference.stats["closed_form"] == 0
            if game.m == 3:  # no face with r >= 4: no path is tracked
                assert report.stats["closed_form"] == report.stats["starts"]
                assert report.stats["steps"] == 0
            closed += report.stats["closed_form"]
            for key in PATH_STATES + ("starts", "converged"):
                assert report.stats[key] == reference.stats[key], key
            found, expected = report.equilibria, reference.equilibria
            assert [e.support for e in found] == [e.support for e in expected]
            gap = np.subtract([e.gamma for e in found], [e.gamma for e in expected])
            assert np.abs(gap).max(initial=0) <= 1e-12
        assert closed > 0

    def test_quadratic_without_leading_term_diverges(self):
        # equations 0 and 1 are linear, x1 = 1 - x2 and x0 = (1 - x2) / 2, and
        # equation 2 has no x0 x1 term, so the quadratic in x2 is linear: one
        # root is (1/4, 1/2, 1/2), the other is at infinity, as tracked
        game = game_with_differences(
            lambda x0, x1, x2: x1 + x2 - 1,
            lambda x0, x1, x2: 2 * x0 + x2 - 1,
            lambda x0, x1, x2: x0 - x1 + 0.25,
        )
        solutions, stats = solve_support(game, FULLY_MIXED_3)
        assert [eq.gamma for eq in solutions] == [pytest.approx((0.25, 0.5, 0.5), abs=1e-15)]
        assert (stats["real_interior"], stats["diverged"], stats["closed_form"]) == (1, 1, 2)
        assert stats["retracked"] == stats["steps"] == 0
        assert_states_as_tracked(game)

    def test_both_denominators_vanishing_is_retracked(self):
        # equations 0 and 1 are (x1 - 1/2)(x2 - 1/2) and (x0 - 1/4)(x2 - 1/2):
        # both denominators vanish at x2 = 1/2, so the closed form gives no
        # x0 and x1.  Both paths fail there, are re-tracked by the homotopy,
        # and end in a state as the tracked ones do; none is dropped.
        game = game_with_differences(
            lambda x0, x1, x2: (x1 - 0.5) * (x2 - 0.5),
            lambda x0, x1, x2: (x0 - 0.25) * (x2 - 0.5),
            lambda x0, x1, x2: x0 + x1 - 1,
        )
        batch = solver._batch([FULLY_MIXED_3])
        coeffs = solver._moebius(solver._face_values(solver._vertex_differences(game), batch))
        with np.errstate(all="ignore"):
            roots = solver._face_roots(coeffs)
        assert np.isnan(roots[..., :2]).all() and np.allclose(roots[..., 2], 0.5)
        _, stats = solve_support(game, FULLY_MIXED_3)
        assert stats["retracked"] == stats["closed_form"] == stats["starts"] == 2
        assert sum(stats[state] for state in PATH_STATES) == 2
        assert stats["steps"] > 0
        assert_states_as_tracked(game)

    def test_reducible_faces_recover_through_equation_2(self):
        # every face of a product game is reducible: equation 0 of a face
        # with r = 3 is d (x1 - a)(x2 - b), so at x2 = b its denominator
        # vanishes and x1 comes from equation 2.  Without that, x1 is 0 / 0
        # in rounding noise there: two roots of maximal_game(3) fail and are
        # re-tracked, and of maximal_game(4) one ends diverged and one fails.
        report = solve_all(maximal_game(3))
        assert report.face_census == [2, 3, 0, 4]
        stats = report.stats
        assert stats["closed_form"] == stats["starts"] == stats["real_interior"] == 8
        assert stats["retracked"] == stats["steps"] == stats["failed"] == 0
        report = solve_all(maximal_game(4))
        assert report.face_census == [9, 8, 12, 0, 8]
        assert report.stats["closed_form"] == 40 and report.stats["retracked"] == 0


WORK_KEYS = ("starts", "steps", "rejected")


class TestWork:
    """Accepted and rejected tracking rounds, summed over the paths.

    The counts are exact, so a change in solver work shows here even when
    wall time is too noisy to show it.
    """

    @pytest.fixture
    def solve_m5_games(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workload = importlib.import_module("workloads").SolveWorkload()
        return [game for _, game in workload.generate(1)]

    def test_counts_on_the_benchmark_games(self, solve_m5_games):
        # perfbench's solve-m5 games at seed 1: maximal_game(5), a random
        # product game and a random generic game, three times over
        solved = {}
        for game in solve_m5_games:
            if id(game) not in solved:
                stats = solve_all(game).stats
                solved[id(game)] = tuple(stats[k] for k in WORK_KEYS)
        work = [solved[id(game)] for game in solve_m5_games]
        # Only faces with r >= 4 are tracked: those with r = 2 and 3 are
        # solved in closed form, the reducible faces of the product games
        # included, so every row's rounds fell.  Tracking them too, these
        # games took 67,256 accepted rounds, and from start roots around 0
        # rather than the centre of the face, 93,374.
        assert work == [
            (294, 4725, 558),
            (294, 4741, 588),
            (294, 6848, 681),
            (294, 4725, 558),
            (294, 4783, 678),
            (294, 6493, 597),
            (294, 4725, 558),
            (294, 5122, 765),
            (294, 7319, 664),
        ]
        # Tracking every support, and with a step controller that aimed the
        # first correction at tol / 2 and at least halved a rejected step,
        # these games took 121,795 rounds, 27,907 of them rejected.
        rounds, rejected = sum(w[1] + w[2] for w in work), sum(w[2] for w in work)
        assert rounds <= 0.9 * 121_795
        assert rejected <= 27_907 / 2
        assert sum(w[1] for w in work) <= 0.8 * 93_374


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

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("epsilon", [1e-3, 2e-3, 5.0])
    def test_drift_matches_the_scalar_oracle(self, m, epsilon, monkeypatch):
        # the trials' reports, as verify_deformation reads them
        reports = []
        solve = solver.solve_all
        monkeypatch.setattr(
            solver, "solve_all", lambda game, config: reports.append(solve(game, config)) or reports[-1]
        )
        report = verify_deformation(maximal_game(m), epsilon, trials=4, seed=1)
        baseline = equilibria(maximal_game(m), method="both")
        expected = deformation_drift(baseline, [r.equilibria for r in reports])
        assert (report.max_drift, report.tracking_failures, report.stable_trials) == expected
        # every equilibrium persists on its support below the stability radius
        assert bool(report.tracking_failures) == (epsilon > 1)

    def test_serializes(self):
        import json

        report = verify_deformation(maximal_game(2), 1e-3, trials=2, seed=0)
        json.dumps(report.to_dict())


class TestInequalities:
    def test_maximal_census_is_tight(self):
        # the maximal game meets the product-game bound in every class
        for m in range(2, 7):
            report = census(maximal_game(m), method="increment")
            check = check_inequalities(report.equilibria_per_class, m)
            assert check.all_ok
            assert all(row["count"] == row["paired"] for row in check.rows)
            assert check.paired_excess == []

    def test_m3_bounds(self):
        check = check_inequalities([2, 3, 0, 4], 3)
        assert [row["bound"] for row in check.rows] == [2, 6, 0, 4]
        assert [row["paired"] for row in check.rows] == [2, 3, 0, 4]

    def test_violations_detected(self):
        assert not check_inequalities([3, 0, 0, 0], 3).all_ok  # interior > !3
        assert not check_inequalities([0, 0, 1, 0], 3).all_ok  # near-vertex class
        assert not check_inequalities([0, 0, 0, 5], 3).all_ok  # > 2^(m-1) vertices
        assert not check_inequalities([0, 7, 0, 0], 3).all_ok  # > 3 * 2 * !2 on l = 1

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_inequalities([1, 2], 3)

    def test_counterexample_is_within_the_bound_and_above_the_pairing(self):
        check = check_inequalities([2, 4, 0, 1], 3)
        assert check.all_ok
        assert check.paired_excess == [1]
        data = check.to_dict()
        assert data["all_ok"] is True and data["paired_excess"] == [1]
        assert [row["l"] for row in data["rows"]] == [0, 1, 2, 3]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_paired_sums_to_the_maximal_count(self, m):
        check = check_inequalities([0] * (m + 1), m)
        assert sum(row["paired"] for row in check.rows) == maximal_equilibrium_count(m)

    def test_product_games_stay_within_the_pairing(self, random_characteristic_tuple):
        rng = random.Random(2024)
        for _ in range(30):
            m = rng.randint(1, 6)
            game = build_product_game(random_characteristic_tuple(m, rng))
            report = census(game, method="increment")
            assert report.counted_by == "kernel"
            assert check_inequalities(report.equilibria_per_class, m).paired_excess == []


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

    @pytest.mark.parametrize("seed", [6153263537864010520, 2079473014072234896])
    def test_scan_passes_the_generic_counterexample(self, seed):
        # census [2, 4, 0, 1]: within every per-face bound, above the pairing
        report = scan_inequalities(3, 1, seed)
        assert report.all_ok
        assert report.violations == []
        assert report.paired_excess == [{"trial": 0, "census": [2, 4, 0, 1]}]

    def test_violation_is_recorded(self, monkeypatch):
        # census [1, 0, 2, 0] has an odd total but two equilibria in class 2,
        # whose bound is 2^2 !1 = 0: the scan records the trial and fails
        report = SimpleNamespace(total=3, face_census=[1, 0, 2, 0], stats={"failed": 0})
        monkeypatch.setattr(solver, "solve_all", lambda game, config: report)
        scan = scan_inequalities(3, trials=1, seed=0)
        assert scan.violations[0]["trial"] == 0
        assert scan.violations[0]["check"]["census"] == [1, 0, 2, 0]
        assert not scan.all_ok
        assert main(["scan", "--m", "3", "--trials", "1"]) == 1

    def test_even_totals_are_redrawn_then_recorded(self, monkeypatch):
        # every draw solves to an even total: each trial draws its game
        # _MAX_RETRIES + 1 = 5 times, then records a parity failure
        report = SimpleNamespace(total=2, face_census=[1, 1, 0, 0], stats={"failed": 0})
        monkeypatch.setattr(solver, "solve_all", lambda game, config: report)
        scan = scan_inequalities(3, trials=2, seed=0)
        assert (scan.regenerations, scan.even_count_failures) == (10, 2)
        assert scan.violations == []
        assert not scan.all_ok
        assert main(["scan", "--m", "3", "--trials", "2"]) == 1

    def test_an_odd_redraw_ends_the_trial(self, monkeypatch):
        reports = iter(
            [
                SimpleNamespace(total=2, face_census=[1, 1, 0, 0], stats={"failed": 0}),
                SimpleNamespace(total=1, face_census=[1, 0, 0, 0], stats={"failed": 0}),
            ]
        )
        monkeypatch.setattr(solver, "solve_all", lambda game, config: next(reports))
        scan = scan_inequalities(3, trials=1, seed=0)
        assert (scan.regenerations, scan.even_count_failures) == (1, 0)
        assert scan.totals_histogram == {1: 1}
        assert scan.all_ok

    def test_degenerate_draws_give_up(self, monkeypatch):
        # every payoff difference lies within 10 of zero, so every draw is
        # rejected and the generator gives up after _MAX_REGEN of them
        monkeypatch.setattr(solver, "_DEGENERACY_TOL", 10)
        with pytest.raises(RuntimeError, match="non-degenerate"):
            random_generic_game(3, np.random.default_rng(0))

    def test_config_has_no_seed(self):
        # nothing in the solver is random, so the config carries no seed
        assert "seed" not in solve_all(matching_pennies()).to_dict()["config"]

    def test_perturbed_game_count_is_odd(self):
        report = solve_all(perturb(maximal_game(3), 1e-4, seed=5))
        assert report.total % 2 == 1
