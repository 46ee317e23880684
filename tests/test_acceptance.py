"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is verified against independent oracles (closed-form counts,
hand-checked coordinates, the exact engine vs. the numeric solver) with the
tolerances pinned below.  The printed lines bypass pytest's capture so a
plain ``pytest tests/test_acceptance.py`` run always shows the scoreboard.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from _oracles import (
    candidate_count_by_faces,
    classify,
    enumerate_candidates,
    fixed_points,
    lam_at_profile,
    subfactorial_alternating_sum,
    subfactorial_pair_recursion,
    verify_block_swap_tables,
)
from twoaction.candidate_engine import (
    census,
    equilibria,
)
from twoaction.combinatorics import (
    Permutation,
    candidate_count,
    candidates_on_face_class,
    maximal_equilibrium_count,
    subfactorial,
)
from twoaction.game_model import (
    CharacteristicTuple,
    build_product_game,
    maximal_game,
)
from twoaction.solver import (
    SolverConfig,
    check_inequalities,
    scan_inequalities,
    solve_all,
    verify_deformation,
)

# pinned tolerances
SOLVER_MATCH_TOL = 1e-8  # exact-vs-numeric coordinate matching (max norm)
CENSUS_M6_BUDGET = 10.0  # seconds for the full m=6 exact census
SOLVER_M4_BUDGET = 60.0  # seconds for each full numeric solve, m=2..6
DEFORM_EPS_M3, DEFORM_TRIALS_M3 = 1e-3, 100
DEFORM_EPS_M4, DEFORM_TRIALS_M4 = 1e-4, 25
SCAN_TRIALS = 1000


_pending_lines: list[str] = []


def _report(number: int, name: str, ok: bool) -> None:
    _pending_lines.append(f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(autouse=True)
def _scoreboard(capfd):
    """Print each criterion's verdict on the real terminal, capture or not."""
    yield
    with capfd.disabled():
        while _pending_lines:
            print(_pending_lines.pop(0), file=sys.stdout, flush=True)


def _random_tuple(m: int, rng: random.Random) -> CharacteristicTuple:
    v = tuple(rng.randint(0, 1) for _ in range(m))
    sigma = []
    for j in range(1, m + 1):
        others = [x for x in range(1, m + 1) if x != j]
        shuffled = others[:]
        rng.shuffle(shuffled)
        images = [0] * m
        images[j - 1] = j
        for pos, x in zip(others, shuffled):
            images[pos - 1] = x
        sigma.append(Permutation(images))
    return CharacteristicTuple(v, tuple(sigma))


def test_criterion_1_counting_identities():
    ok = True
    try:
        for n in range(0, 11):
            assert (
                subfactorial(n)
                == subfactorial_pair_recursion(n)
                == subfactorial_alternating_sum(n)
            )
        for m in range(1, 11):
            assert candidate_count(m) == candidate_count_by_faces(m)
            assert (candidate_count(m) + subfactorial(m)) % 2 == 0
            assert maximal_equilibrium_count(m) == (
                candidate_count(m) + subfactorial(m)
            ) // 2
        table = {
            m: (subfactorial(m), candidate_count(m), maximal_equilibrium_count(m))
            for m in range(1, 6)
        }
        assert table[1] == (0, 2, 1)
        assert table[2] == (1, 5, 3)
        assert table[3] == (2, 16, 9)
        assert table[4] == (9, 65, 37)
        # the m=5 row follows from the formulas: (326 + 44) / 2
        assert table[5] == (44, 326, 185)
    except AssertionError:
        ok = False
        raise
    finally:
        _report(1, "counting identities", ok)


def test_criterion_2_maximal_census():
    ok = True
    elapsed = None
    try:
        for m in range(1, 7):
            start = time.perf_counter()
            report = census(maximal_game(m), method="increment")
            elapsed = time.perf_counter() - start
            assert report.total_equilibria == maximal_equilibrium_count(m)
            assert report.equilibria_per_class[0] == subfactorial(m)
            for l in range(1, m + 1):
                expected = math.comb(m, l) * 2 ** (l - 1) * subfactorial(m - l)
                assert report.equilibria_per_class[l] == expected
                assert report.candidates_per_class[l] == candidates_on_face_class(m, l)
        assert elapsed is not None and elapsed < CENSUS_M6_BUDGET
    except AssertionError:
        ok = False
        raise
    finally:
        _report(2, "maximal census m<=6", ok)


def test_criterion_3_method_agreement():
    ok = True
    try:
        # exhaustive on the maximal tuples; census(method="both") raises
        # MethodDisagreement on the first mismatch
        for m in range(1, 7):
            census(maximal_game(m), method="both")
        # and on 200 random characteristic tuples with m <= 5
        rng = random.Random(20260824)
        for trial in range(200):
            m = 1 + trial % 5
            game = build_product_game(_random_tuple(m, rng))
            census(game, method="both")
    except Exception:
        ok = False
        raise
    finally:
        _report(3, "increment vs sign agreement", ok)


def test_criterion_4_three_player_equilibria():
    F = Fraction
    expected = {
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
        (F(1), F(1), F(1)),
        (F(0), F(3, 4), F(1, 2)),
        (F(1, 2), F(1, 4), F(0)),
        (F(1, 4), F(0), F(3, 4)),
        (F(1, 2), F(3, 4), F(3, 4)),
        (F(1, 4), F(1, 4), F(1, 2)),
    }
    ok = True
    try:
        game = maximal_game(3)
        found = {e.gamma for e in equilibria(game, method="both")}
        assert found == expected
        # every claimed point satisfies exact best-response conditions on the
        # materialized tensor (independent of both classification routes)
        for gamma in expected:
            for i in (1, 2, 3):
                lam = lam_at_profile(game.tensor, i, gamma)
                if gamma[i - 1] == 0:
                    assert lam < 0
                elif gamma[i - 1] == 1:
                    assert lam > 0
                else:
                    assert lam == 0
    except AssertionError:
        ok = False
        raise
    finally:
        _report(4, "nine exact m=3 equilibria", ok)


def test_criterion_5_numeric_solver_agreement():
    ok = True
    try:
        for m, total in ((2, 3), (3, 9), (4, 37), (5, 185), (6, 1111)):
            game = maximal_game(m)
            start = time.perf_counter()
            report = solve_all(game, SolverConfig())
            elapsed = time.perf_counter() - start
            assert report.total == total
            assert report.stats["failed"] == 0
            # every support is solved: !r paths on each face with r >= 2
            assert report.stats["starts"] == candidate_count(m) - 2**m
            exact = [e.gamma_floats() for e in equilibria(game, method="both")]
            assert len(exact) == total
            # one-to-one nearest-neighbour matching within the pinned tolerance
            remaining = list(exact)
            for eq in report.equilibria:
                dists = [
                    max(abs(a - b) for a, b in zip(eq.gamma, point))
                    for point in remaining
                ]
                k = min(range(len(dists)), key=dists.__getitem__)
                assert dists[k] <= SOLVER_MATCH_TOL
                del remaining[k]
            assert elapsed < SOLVER_M4_BUDGET
    except AssertionError:
        ok = False
        raise
    finally:
        _report(5, "numeric solver head-to-head", ok)


def test_criterion_6_structural_invariants():
    ok = True
    try:
        rng = random.Random(6)
        for m in range(1, 6):
            games = [maximal_game(m)]
            games += [build_product_game(_random_tuple(m, rng)) for _ in range(3)]
            for game in games:
                by_pi: dict[tuple, list[int]] = {}
                for cand in enumerate_candidates(game):
                    entry = by_pi.setdefault(cand.pi.images, [0, 0])
                    entry[0] += 1
                    if classify(game, cand, "both"):
                        entry[1] += 1
                for images, (total, eq) in by_pi.items():
                    l = len(fixed_points(Permutation(images)))
                    assert total == 2**l
                    if l == 0:
                        assert eq == 1  # derangement candidates always count
                    else:
                        assert eq in (0, 2 ** (l - 1))  # all-or-nothing dichotomy
                    if l == 1:
                        assert eq == 1  # one fixed point: exactly one survives
                # identity permutation: equilibria iff the sign vector is constant
                ident = by_pi[tuple(range(1, m + 1))]
                constant = len(set(game.ctuple.v)) == 1
                assert ident[1] == (2 ** (m - 1) if constant else 0)
                # census parity and the empty face class next to the vertices
                report = census(game, method="both")
                assert report.total_equilibria % 2 == 1
                if m >= 2:
                    assert report.equilibria_per_class[m - 1] == 0
        for m in range(1, 7):
            assert bool(verify_block_swap_tables(m))
    except AssertionError:
        ok = False
        raise
    finally:
        _report(6, "structural invariants", ok)


def test_criterion_7_deformation_stability():
    ok = True
    try:
        for m, eps, trials, total in (
            (3, DEFORM_EPS_M3, DEFORM_TRIALS_M3, 9),
            (4, DEFORM_EPS_M4, DEFORM_TRIALS_M4, 37),
        ):
            report = verify_deformation(
                maximal_game(m), eps, trials=trials, seed=7
            )
            assert report.baseline_total == total
            assert report.stable_trials == trials
            assert report.tracking_failures == []
            assert report.all_stable
    except AssertionError:
        ok = False
        raise
    finally:
        _report(7, "deformation stability", ok)


def test_criterion_8_inequality_scan():
    ok = True
    try:
        # per face class at m = 3: the McKelvey-McLennan bound on each face
        # (2^(m-1) pure equilibria), and the product-game pairing it reports
        rows = check_inequalities([0, 0, 0, 0], 3).rows
        assert [row["bound"] for row in rows] == [2, 6, 0, 4]
        assert [row["paired"] for row in rows] == [2, 3, 0, 4]
        report = scan_inequalities(3, trials=SCAN_TRIALS, seed=8)
        assert report.violations == []
        assert report.even_count_failures == 0
        assert sum(report.totals_histogram.values()) == SCAN_TRIALS
        assert all(total % 2 == 1 for total in report.totals_histogram)
        # 9 = (V(3) + !3) / 2, the count of the paper's maximal m = 3 game.
        # No theorem cited in this repository bounds a generic 2x2x2 game by
        # 9: the per-face bounds checked above sum to 12.  So 9 is an
        # observed bound on these seeded games, not a proven one.
        assert all(total <= 9 for total in report.totals_histogram)
    except AssertionError:
        ok = False
        raise
    finally:
        _report(8, "random-game inequality scan", ok)
