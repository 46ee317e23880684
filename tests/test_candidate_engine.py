import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    boundary_value,
    candidate_for,
    classify,
    classify_by_increment,
    classify_by_sign,
    enumerate_candidates,
    fixed_points,
    increment,
    lam_at_profile,
    lam_factored,
    verify_block_swap_tables,
    zero_count,
)
from twoaction import candidate_engine, kernel
from twoaction.candidate_engine import (
    MethodDisagreement,
    candidate_blocks,
    census,
    classified_blocks,
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
    CoefficientMatrix,
    ProductTwoActionGame,
    build_product_game,
    maximal_game,
)

F = Fraction

# The nine exact equilibria of the maximal three-player game: four vertices,
# three one-boundary-coordinate points, two interior points.
MAXIMAL_M3_EQUILIBRIA = {
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


class TestEnumeration:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_total_and_per_class_counts(self, m):
        game = maximal_game(m)
        per_class = [0] * (m + 1)
        total = 0
        for cand in enumerate_candidates(game):
            per_class[cand.face_class] += 1
            total += 1
        assert total == candidate_count(m)
        assert per_class == [candidates_on_face_class(m, l) for l in range(m + 1)]

    def test_interior_coordinates_are_thresholds(self):
        game = maximal_game(3)
        pi = Permutation([2, 1, 3])  # fixes 3, swaps 1 and 2
        cand = candidate_for(game, pi, {3: 0})
        assert cand.gamma == (game.coeffs[(2, 1)], game.coeffs[(1, 2)], F(0))
        assert cand.face_class == 1
        assert boundary_value(cand, 3) == 0
        with pytest.raises(KeyError):
            boundary_value(cand, 1)

    def test_boundary_must_cover_fixed_points(self):
        game = maximal_game(3)
        with pytest.raises(ValueError):
            candidate_for(game, Permutation.identity(3), {1: 0})

    def test_derangement_candidate_has_no_boundary(self):
        game = maximal_game(3)
        cand = candidate_for(game, Permutation([2, 3, 1]), {})
        assert cand.boundary == ()
        assert zero_count(cand) == 0


class TestIncrement:
    def test_m1_by_hand(self):
        # lam is the empty product times (-1)^v: player 1 strictly prefers
        # action 1 when v=0 and action 0 when v=1.
        for v, winner in ((0, 1), (1, 0)):
            game = build_product_game(
                CharacteristicTuple((v,), (Permutation.identity(1),))
            )
            good = candidate_for(game, Permutation.identity(1), {1: winner})
            bad = candidate_for(game, Permutation.identity(1), {1: 1 - winner})
            assert increment(game, good, 1) == 0
            assert increment(game, bad, 1) == 1
            assert classify_by_sign(game, good) and not classify_by_sign(game, bad)

    def test_rejects_moved_player(self):
        game = maximal_game(3)
        cand = candidate_for(game, Permutation([2, 1, 3]), {3: 0})
        with pytest.raises(KeyError):
            increment(game, cand, 1)

    def test_flipping_sign_bit_flips_increment(self):
        base = maximal_game(3)
        flipped = build_product_game(
            CharacteristicTuple((1, 0, 0), base.ctuple.sigma)
        )
        pi = Permutation([1, 3, 2])  # fixes 1
        for val in (0, 1):
            c0 = candidate_for(base, pi, {1: val})
            c1 = candidate_for(flipped, pi, {1: val})
            assert increment(base, c0, 1) != increment(flipped, c1, 1)

    def test_flipping_boundary_value_flips_increment(self):
        game = maximal_game(4)
        pi = Permutation([1, 3, 2, 4])  # fixes 1 and 4
        for other in (0, 1):
            a = candidate_for(game, pi, {1: 0, 4: other})
            b = candidate_for(game, pi, {1: 1, 4: other})
            assert increment(game, a, 1) != increment(game, b, 1)


class TestClassification:
    def test_methods_agree_on_maximal_games(self):
        for m in range(1, 6):
            game = maximal_game(m)
            for cand in enumerate_candidates(game):
                assert classify_by_increment(game, cand) == classify_by_sign(
                    game, cand
                )

    def test_methods_agree_on_random_tuples(self, random_product_game):
        rng = random.Random(2024)
        for _ in range(25):
            game = random_product_game(rng.randint(1, 4), rng)
            _ = census(game, method="both")  # raises MethodDisagreement on mismatch

    def test_disagreement_is_raised(self, monkeypatch):
        game = maximal_game(2)
        cand = next(enumerate_candidates(game))
        with pytest.raises(MethodDisagreement):
            raise MethodDisagreement(cand, True, False)
        with pytest.raises(ValueError):
            classify(game, cand, "majority-vote")
        with pytest.raises(ValueError):
            census(game, "majority-vote")
        # flip one entry of the sign table: the factor of player 1 in player
        # 3's payoff difference when pi(1) = 2.  Only pi = [2, 1, 3] reads it,
        # so its two candidates flip; the first, {3: 0}, is an equilibrium.
        monkeypatch.setattr(candidate_engine, "sign_table", _flipped_sign_table)
        game = maximal_game(3)
        with pytest.raises(MethodDisagreement) as info:
            census(game, "both")
        exc = info.value
        assert exc.candidate == candidate_for(game, Permutation([2, 1, 3]), {3: 0})
        assert (exc.by_increment, exc.by_sign) == (True, False)
        assert "pi=[2, 1, 3] boundary=((3, 0),)" in str(exc)
        with pytest.raises(MethodDisagreement):
            equilibria(game)
        assert census(game, "increment", use_kernel=False).total_equilibria == 9
        assert census(game, "sign").total_equilibria == 9  # the two trade places

    def test_sign_route_from_first_principles(self):
        # classify_by_sign must match a direct best-response check against the
        # materialized tensor, which shares no code with the factored form.
        game = maximal_game(3)
        for cand in enumerate_candidates(game):
            ok = True
            for i, value in cand.boundary:
                lam = lam_at_profile(game.tensor, i, cand.gamma)
                ok &= lam > 0 if value == 1 else lam < 0
            assert classify_by_sign(game, cand) == ok


_real_sign_table = candidate_engine.sign_table


def _flipped_sign_table(game):
    table = _real_sign_table(game)
    table[0, 2, 1] *= -1
    return table


def _block_masks(game):
    """Keys and both routes' masks of the block classifier, in enumeration order."""
    keys, by_inc, by_sign = [], [], []
    blocks = zip(classified_blocks(game, "increment"), classified_blocks(game, "sign"))
    for (block, inc), (_, sign) in blocks:
        cands = block.candidates(game, range(len(block.owner)))
        for n, cand in enumerate(cands):
            fixed, ones = int(block.F[n]), int(block.B[n])
            assert ones & ~fixed == 0
            boundary = tuple(
                (i + 1, ones >> i & 1) for i in range(game.m) if fixed >> i & 1
            )
            keys.append((cand.pi.images, boundary))
        by_inc += inc.tolist()
        by_sign += sign.tolist()
    return keys, by_inc, by_sign


def _assert_routes_match_oracles(game):
    keys, by_inc, by_sign = _block_masks(game)
    cands = list(enumerate_candidates(game))
    assert keys == [(c.pi.images, c.boundary) for c in cands]
    assert by_inc == [classify_by_increment(game, c) for c in cands]
    assert by_sign == [classify_by_sign(game, c) for c in cands]


def _huge_denominator_game():
    # thresholds a few units apart around 1/2 over distinct large primes, so
    # the common denominator exceeds 2^64 and every comparison is close
    primes = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**31 - 1, 1_000_000_007]
    m = 4
    rng = random.Random(64)
    values = {}
    for j in range(1, m + 1):
        for i in range(1, m + 1):
            if i != j:
                p = rng.choice(primes)
                values[(i, j)] = F(p // 2 + rng.randint(-3, 3), p)
    coeffs = CoefficientMatrix(m, values)
    sigma = tuple(coeffs.column_permutation(j) for j in range(1, m + 1))
    return ProductTwoActionGame(CharacteristicTuple((0, 1, 1, 0), sigma), coeffs)


class TestBlockClassifier:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_routes_match_oracles_on_maximal_games(self, m):
        _assert_routes_match_oracles(maximal_game(m))

    def test_routes_match_oracles_on_random_tuples(self, random_product_game):
        rng = random.Random(606)
        for _ in range(120):
            _assert_routes_match_oracles(random_product_game(rng.randint(1, 6), rng))

    def test_routes_match_oracles_beyond_64_bits(self):
        game = _huge_denominator_game()
        assert game.coeffs.denominator > 2**64
        _assert_routes_match_oracles(game)
        assert census(game, "both").total_equilibria % 2 == 1

    def test_sign_zero_masks_are_the_moved_images(self, random_product_game):
        # The only zero factor of player j, moved to a, is in player a's own
        # difference (a column's thresholds are distinct), and a fixed
        # position's boundary factor is never zero.  So the zero factors of a
        # permutation lie in the differences of its moved players, never of a
        # fixed point: the reason the sign route has no zero test.
        rng = random.Random(50)
        for _ in range(50):
            m = rng.randint(2, 7)
            table = candidate_engine.sign_table(random_product_game(m, rng))
            # column a = j is unread: a fixed point j reads its boundary columns m, m + 1
            zeros = [(j, i, a) for j, i, a in np.argwhere(table == 0).tolist() if a != j]
            assert zeros == [(j, a, a) for j in range(m) for a in range(m) if a != j]

    def test_boundary_layout_cache_is_bounded(self):
        layout = candidate_engine._boundary_layout
        maxsize = layout.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 8
        for m in range(2, 10):
            next(candidate_blocks(m))
        assert layout.cache_info().currsize <= maxsize
        for table in layout(9):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_blocks_walk_permutations_in_order(self):
        for m in (1, 3, 7, 8, 9):
            blocks = [block for block, _ in classified_blocks(maximal_game(m), "increment")]
            # every permutation owns a candidate, so owner ends at the block's last one
            sizes = [int(b.owner[-1]) + 1 for b in blocks]
            assert sizes == [math.factorial(kernel.suffix_len(m))] * len(blocks)
            game = maximal_game(m)
            # owner is sorted, so each permutation's first candidate is found by bisection
            perms = [
                tuple(x - 1 for x in cand.pi.images)
                for b, size in zip(blocks, sizes)
                for cand in b.candidates(game, np.searchsorted(b.owner, np.arange(size)))
            ]
            assert perms == list(itertools.permutations(range(m)))

    def test_one_permutation_built_per_reported_permutation(self, monkeypatch):
        # listing all V(5) = 326 candidates of maximal_game(5) builds each of
        # its 5! = 120 permutations once, not once per candidate
        game = maximal_game(5)
        built = []
        init = Permutation.__init__

        def counting_init(self, images):
            built.append(1)
            init(self, images)

        monkeypatch.setattr(Permutation, "__init__", counting_init)
        cands = [
            cand
            for block in candidate_blocks(5)
            for cand in block.candidates(game, range(len(block.owner)))
        ]
        assert len(cands) == candidate_count(5) == 326
        assert len(built) == 120
        assert len({cand.pi for cand in cands}) == 120

    @pytest.mark.parametrize("method", ["increment", "sign", "both"])
    def test_equilibria_match_oracle_filter(self, method, random_product_game):
        rng = random.Random(31)
        games = [maximal_game(m) for m in range(1, 7)]
        games += [random_product_game(rng.randint(1, 5), rng) for _ in range(10)]
        games.append(_huge_denominator_game())
        for game in games:
            expected = [c for c in enumerate_candidates(game) if classify(game, c, method)]
            assert equilibria(game, method) == expected


class TestCensus:
    def test_maximal_m3(self):
        report = census(maximal_game(3))
        assert report.candidates_per_class == [2, 6, 0, 8]
        assert report.equilibria_per_class == [2, 3, 0, 4]
        assert report.total_equilibria == 9 == report.expected_maximum
        assert report.matches_expected

    def test_maximal_m4(self):
        report = census(maximal_game(4))
        assert report.equilibria_per_class == [9, 8, 12, 0, 8]
        assert report.total_equilibria == 37

    def test_kernel_and_streaming_paths_agree(self, random_product_game):
        rng = random.Random(7)
        for _ in range(10):
            game = random_product_game(rng.randint(1, 4), rng)
            fast = census(game, method="increment")
            slow = census(game, method="increment", use_kernel=False)
            both = census(game, method="both")
            assert fast.candidates_per_class == slow.candidates_per_class
            assert fast.equilibria_per_class == slow.equilibria_per_class
            assert both.equilibria_per_class == fast.equilibria_per_class

    def test_maximal_m8_every_candidate(self):
        m = 8
        report = census(maximal_game(m), "both")
        assert report.total_candidates == candidate_count(m) == 109_601
        assert report.equilibria_per_class == [subfactorial(m)] + [
            candidates_on_face_class(m, l) // 2 for l in range(1, m + 1)
        ]
        assert report.counted_by == "streaming"

    def test_streaming_increment_equals_kernel_m8(self, random_characteristic_tuple):
        rng = random.Random(88)
        for _ in range(3):
            ctuple = random_characteristic_tuple(8, rng)
            game = build_product_game(ctuple)
            streamed = census(game, "increment", use_kernel=False)
            sigma = [list(s.images) for s in ctuple.sigma]
            assert kernel.census_increment(8, list(ctuple.v), sigma) == (
                streamed.candidates_per_class,
                streamed.equilibria_per_class,
            )

    @pytest.mark.parametrize("method", ["sign", "both"])
    def test_streaming_routes_equal_kernel_m7(self, method, random_characteristic_tuple):
        rng = random.Random(77)
        for _ in range(3):
            ctuple = random_characteristic_tuple(7, rng)
            report = census(build_product_game(ctuple), method)
            sigma = [list(s.images) for s in ctuple.sigma]
            assert kernel.census_increment(7, list(ctuple.v), sigma) == (
                report.candidates_per_class,
                report.equilibria_per_class,
            )

    def test_counted_by(self):
        game = maximal_game(3)
        assert census(game, method="increment").counted_by == "kernel"
        assert census(game, method="increment", use_kernel=False).counted_by == "streaming"
        for method in ("sign", "both"):
            assert census(game, method=method).counted_by == "streaming"

    def test_to_dict_shape(self):
        data = census(maximal_game(2)).to_dict()
        assert data["total_equilibria"] == 3
        assert data["matches_expected"] is True
        assert data["counted_by"] == "streaming"
        assert [row["l"] for row in data["per_l"]] == [0, 1, 2]

    def test_identity_orderings_all_zero_signs(self):
        # with identity orderings and v = 0 every player always prefers
        # action 1 near the top vertex; the all-ones vertex must be among the
        # equilibria and the count must still be odd
        m = 3
        game = build_product_game(
            CharacteristicTuple((0,) * m, (Permutation.identity(m),) * m)
        )
        eqs = equilibria(game)
        assert (F(1),) * m in {e.gamma for e in eqs}
        assert len(eqs) % 2 == 1


class TestMaximalM3Coordinates:
    def test_exact_reproduction(self):
        eqs = equilibria(maximal_game(3), method="both")
        assert {e.gamma for e in eqs} == MAXIMAL_M3_EQUILIBRIA

    def test_each_is_a_best_response_profile(self):
        # independent oracle: exact best-response conditions on the tensor
        game = maximal_game(3)
        for gamma in MAXIMAL_M3_EQUILIBRIA:
            for i in (1, 2, 3):
                lam = lam_at_profile(game.tensor, i, gamma)
                if gamma[i - 1] == 0:
                    assert lam < 0
                elif gamma[i - 1] == 1:
                    assert lam > 0
                else:
                    assert lam == 0

    def test_rejected_sibling_candidate(self):
        # the one-boundary candidate at (1/2, 1/4, 1) fails: player 3's payoff
        # difference is negative there, so only the value-0 sibling survives
        game = maximal_game(3)
        cand = candidate_for(game, Permutation([2, 1, 3]), {3: 1})
        assert lam_factored(game, 3, cand.gamma) < 0
        assert increment(game, cand, 3) == 1
        assert not classify_by_sign(game, cand)


class TestStructuralInvariants:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_per_permutation_dichotomy(self, m, random_product_game):
        # per permutation the equilibrium count is 0 or 2^(l-1) (l fixed points)
        rng = random.Random(m)
        for game in (maximal_game(m), random_product_game(m, rng)):
            by_pi = {}
            for cand in enumerate_candidates(game):
                key = cand.pi.images
                by_pi.setdefault(key, [0, 0])
                by_pi[key][0] += 1
                if classify(game, cand, "both"):
                    by_pi[key][1] += 1
            for key, (total, eq) in by_pi.items():
                l = total.bit_length() - 1  # total = 2^l
                if l == 0:
                    assert eq == 1  # derangements always count
                else:
                    assert eq in (0, 2 ** (l - 1))

    def test_single_fixed_point_always_one(self):
        # permutations with exactly one fixed point contribute exactly one
        # equilibrium each: one of the two boundary values must win
        game = maximal_game(4)
        for pi, count in _per_permutation_counts(game).items():
            if len(fixed_points(Permutation(pi))) == 1:
                assert count == 1

    def test_identity_permutation_needs_constant_signs(self, random_product_game):
        rng = random.Random(99)
        for _ in range(10):
            game = random_product_game(3, rng)
            count = _per_permutation_counts(game)[(1, 2, 3)]
            v = game.ctuple.v
            expected = 2 ** (game.m - 1) if len(set(v)) == 1 else 0
            assert count == expected


def _per_permutation_counts(game):
    counts = {}
    for cand in enumerate_candidates(game):
        counts.setdefault(cand.pi.images, 0)
        if classify(game, cand, "both"):
            counts[cand.pi.images] += 1
    return counts


class TestBlockSwapTables:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_tables_hold(self, m):
        result = verify_block_swap_tables(m)
        assert bool(result)
        assert result.counterexample is None

    def test_tables_imply_maximality(self):
        # consequence check: the all-zero tuple with block-swap orderings is
        # maximal for every small m
        for m in range(1, 6):
            report = census(maximal_game(m), method="increment")
            assert report.total_equilibria == maximal_equilibrium_count(m)
            assert report.equilibria_per_class[0] == subfactorial(m)
            for l in range(1, m + 1):
                assert (
                    report.equilibria_per_class[l]
                    == candidates_on_face_class(m, l) // 2
                )
