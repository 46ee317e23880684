import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from _oracles import (
    file_with_tensor,
    lam,
    lam_at_profile,
    lam_factored,
    materialize_per_entry,
    payoff,
    profile_bits,
    profile_index,
    utility,
)
from twoaction.candidate_engine import census
from twoaction.combinatorics import (
    Permutation,
    block_swap_permutation,
    maximal_equilibrium_count,
)
from twoaction.game_model import (
    EXACT,
    FLOAT,
    CharacteristicTuple,
    CoefficientMatrix,
    ProductTwoActionGame,
    TwoActionGame,
    build_product_game,
    default_coefficients,
    load_game,
    maximal_game,
    perturb,
    save_game,
)
from twoaction.cli import main

F = Fraction


class TestProfiles:
    def test_index_is_lexicographic_player1_most_significant(self):
        assert profile_index([0, 0, 0]) == 0
        assert profile_index([0, 0, 1]) == 1
        assert profile_index([1, 0, 0]) == 4
        assert profile_bits(5, 3) == (1, 0, 1)

    def test_index_bits_roundtrip(self):
        for idx in range(16):
            assert profile_index(profile_bits(idx, 4)) == idx


class TestTwoActionGame:
    def _matching_pennies(self):
        # player 1 wants to match, player 2 wants to mismatch
        return TwoActionGame(2, [[1, -1, -1, 1], [-1, 1, 1, -1]])

    def test_utility_lookup(self):
        g = self._matching_pennies()
        assert utility(g, 1, [0, 0]) == 1
        assert utility(g, 1, [0, 1]) == -1
        assert utility(g, 2, [1, 0]) == 1

    def test_payoff_at_vertex_equals_utility(self):
        g = self._matching_pennies()
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for i in (1, 2):
                assert payoff(g, i, [F(b) for b in bits]) == utility(g, i, bits)

    def test_payoff_is_multilinear(self):
        # affine in each coordinate: value at midpoint = mean of endpoints
        rng = random.Random(5)
        g = TwoActionGame(
            3, [[F(rng.randint(-9, 9)) for _ in range(8)] for _ in range(3)]
        )
        base = [F(1, 3), F(2, 5), F(1, 7)]
        for i in (1, 2, 3):
            for axis in range(3):
                lo = list(base)
                hi = list(base)
                lo[axis] = F(0)
                hi[axis] = F(1)
                mid = list(base)
                mid[axis] = F(1, 2)
                assert payoff(g, i, mid) == (payoff(g, i, lo) + payoff(g, i, hi)) / 2

    def test_lam_is_payoff_difference(self):
        rng = random.Random(11)
        g = TwoActionGame(
            3, [[F(rng.randint(-9, 9)) for _ in range(8)] for _ in range(3)]
        )
        gamma = [F(2, 7), F(3, 4), F(1, 5)]
        for i in (1, 2, 3):
            hi = list(gamma)
            lo = list(gamma)
            hi[i - 1] = F(1)
            lo[i - 1] = F(0)
            assert lam_at_profile(g, i, gamma) == payoff(g, i, hi) - payoff(g, i, lo)
            others = [g_ for k, g_ in enumerate(gamma, 1) if k != i]
            assert lam(g, i, others) == lam_at_profile(g, i, gamma)

    def test_matching_pennies_lam(self):
        g = self._matching_pennies()
        assert lam(g, 1, [F(1, 2)]) == 0  # indifferent at the mixed equilibrium
        assert lam(g, 1, [F(1)]) == 2  # match: prefer action 1
        assert lam(g, 2, [F(1)]) == -2  # mismatch: prefer action 0

    def test_tensor_shape_and_values(self):
        g = self._matching_pennies()
        t = g.tensor(1)
        assert t.shape == (2, 2)
        assert t[1, 0] == -1.0 and t[1, 1] == 1.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            TwoActionGame(2, [[0] * 4, [0] * 4], mode="complex")
        with pytest.raises(ValueError):
            TwoActionGame(2, [[0] * 3, [0] * 4])

    def test_as_float(self):
        g = self._matching_pennies().as_float()
        assert g.mode == FLOAT
        assert isinstance(g.utilities[0][0], float)


class TestCharacteristicTuple:
    def test_requires_self_fixed(self):
        with pytest.raises(ValueError):
            CharacteristicTuple(v=(0, 0), sigma=(Permutation([2, 1]),) * 2)

    def test_rejects_non_bits(self):
        sigma = (Permutation.identity(2),) * 2
        with pytest.raises(ValueError):
            CharacteristicTuple(v=(0, 2), sigma=sigma)

    def test_valid(self):
        sigma = tuple(block_swap_permutation(3, i) for i in (1, 2, 3))
        t = CharacteristicTuple(v=(0, 1, 0), sigma=sigma)
        assert t.m == 3


class TestCoefficients:
    def test_column_permutation_recovered_by_descending_sort(self):
        # column 1: a[2,1]=1/2 > a[3,1]=1/4, so 2 maps to the first free
        # position and 3 to the second
        values = {
            (2, 1): F(1, 2),
            (3, 1): F(1, 4),
            (1, 2): F(1, 4),
            (3, 2): F(3, 4),
            (1, 3): F(3, 4),
            (2, 3): F(1, 2),
        }
        c = CoefficientMatrix(3, values)
        assert c.column_permutation(1) == Permutation([1, 2, 3])
        assert c.column_permutation(2) == Permutation([3, 2, 1])
        assert c.column_permutation(3) == Permutation([1, 2, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CoefficientMatrix(2, {(1, 2): F(1), (2, 1): F(1, 2)})

    def test_rejects_repeated_column_values(self):
        values = {
            (2, 1): F(1, 2),
            (3, 1): F(1, 2),
            (1, 2): F(1, 4),
            (3, 2): F(3, 4),
            (1, 3): F(3, 4),
            (2, 3): F(1, 2),
        }
        with pytest.raises(ValueError):
            CoefficientMatrix(3, values)

    def test_default_coefficients_realize_sigma(self):
        sigma = tuple(block_swap_permutation(4, i) for i in range(1, 5))
        t = CharacteristicTuple(v=(0,) * 4, sigma=sigma)
        c = default_coefficients(t)
        for j in range(1, 5):
            assert c.column_permutation(j) == sigma[j - 1]
        # equally spaced with denominator m+1
        assert all(a.denominator in (1, 5) for a in c.values.values())

    def test_maximal_m3_coefficients(self):
        g = maximal_game(3)
        c = g.coeffs
        assert (c[(2, 1)], c[(3, 1)]) == (F(1, 2), F(1, 4))
        assert (c[(1, 2)], c[(3, 2)]) == (F(1, 4), F(3, 4))
        assert (c[(1, 3)], c[(2, 3)]) == (F(3, 4), F(1, 2))


class TestProductGame:
    def test_factored_equals_tensor_lam(self, random_product_game):
        rng = random.Random(3)
        for _ in range(5):
            m = rng.randint(1, 4)
            game = random_product_game(m, rng)
            gamma = [F(rng.randint(1, 9), 10) for _ in range(m)]
            for i in range(1, m + 1):
                assert lam_factored(game, i, gamma) == lam_at_profile(
                    game.tensor, i, gamma
                )

    def test_sign_vector_flips_lam(self):
        sigma = tuple(block_swap_permutation(3, i) for i in (1, 2, 3))
        flipped = build_product_game(CharacteristicTuple((1, 0, 0), sigma))
        plain = build_product_game(CharacteristicTuple((0, 0, 0), sigma))
        gamma = [F(1, 3)] * 3
        assert lam_factored(flipped, 1, gamma) == -lam_factored(plain, 1, gamma)

    def test_action0_payoff_is_zero(self):
        game = maximal_game(3)
        for i in (1, 2, 3):
            for idx in range(8):
                bits = profile_bits(idx, 3)
                if bits[i - 1] == 0:
                    assert utility(game.tensor, i, bits) == 0

    def test_vertex_lam_matches_factored_form(self):
        game = maximal_game(3)
        for idx in range(8):
            bits = profile_bits(idx, 3)
            gamma = [F(b) for b in bits]
            for i in (1, 2, 3):
                expected = F(1)
                for j in (1, 2, 3):
                    if j != i:
                        expected *= bits[j - 1] - game.coeffs[(i, j)]
                assert lam_at_profile(game.tensor, i, gamma) == expected

    def test_tensor_equals_per_entry_oracle(self, random_product_game):
        rng = random.Random(13)
        for _ in range(60):
            game = random_product_game(rng.randint(1, 6), rng)
            assert game.tensor.utilities == materialize_per_entry(game).utilities

    def _mixed_denominator_game(self):
        # D = lcm(3, 7, 11, 4, 5, 9) = 13860; columns pairwise distinct
        values = {
            (2, 1): F(1, 3),
            (3, 1): F(2, 7),
            (1, 2): F(5, 11),
            (3, 2): F(3, 4),
            (1, 3): F(1, 5),
            (2, 3): F(7, 9),
        }
        coeffs = CoefficientMatrix(3, values)
        sigma = tuple(coeffs.column_permutation(j) for j in (1, 2, 3))
        return ProductTwoActionGame(CharacteristicTuple((1, 0, 1), sigma), coeffs)

    def test_mixed_denominators_tensor(self):
        game = self._mixed_denominator_game()
        assert game.coeffs.denominator == 13860
        assert game.tensor.utilities == materialize_per_entry(game).utilities
        # player 1 at (1, 0, 1), v_1 = 1: -(0 - 5/11)(1 - 1/5) = 4/11
        assert utility(game.tensor, 1, (1, 0, 1)) == F(4, 11)

    def test_lam_factored_off_the_common_denominator(self):
        # profile denominators (13, 17) do not divide D = 13860
        game = self._mixed_denominator_game()
        rng = random.Random(17)
        for _ in range(20):
            gamma = [
                F(rng.randint(1, 12), 13),
                F(rng.randint(0, 17), 17),
                F(rng.randint(1, 12), 13),
            ]
            for i in (1, 2, 3):
                assert lam_factored(game, i, gamma) == lam_at_profile(game.tensor, i, gamma)

    def test_increment_census_never_builds_the_tensor(self):
        game = maximal_game(12)
        assert "tensor" not in vars(game)
        report = census(game, "increment")
        assert report.total_equilibria == maximal_equilibrium_count(12)
        assert "tensor" not in vars(game)

    def test_tensor_is_built_once_on_first_read(self):
        game = maximal_game(3)
        assert "tensor" not in vars(game)
        first = game.tensor
        assert vars(game)["tensor"] is first
        assert game.tensor is first

    def test_rejects_mismatched_coefficients(self):
        sigma = tuple(block_swap_permutation(3, i) for i in (1, 2, 3))
        t = CharacteristicTuple((0, 0, 0), sigma)
        # identity orderings instead of the requested block-swap ones
        wrong = default_coefficients(
            CharacteristicTuple((0, 0, 0), (Permutation.identity(3),) * 3)
        )
        with pytest.raises(ValueError):
            ProductTwoActionGame(t, wrong)


def _pinned_games(random_characteristic_tuple):
    """maximal_game(1..9) and 30 seeded random product games with m = 1..9."""
    rng = random.Random(26)
    games = [maximal_game(m) for m in range(1, 10)]
    for _ in range(30):
        games.append(build_product_game(random_characteristic_tuple(rng.randint(1, 9), rng)))
    return games


# Edits of maximal_game(4)'s thresholds, and the error each must raise.  The
# texts are those of the Fraction-based checks the integer checks replaced.
REFUSED_EDITS = [
    (
        {"2,1": "1/5", "4,1": "3/5"},
        "coefficients a[.,1] realize Permutation([1, 4, 3, 2]), "
        "not the requested Permutation([1, 2, 3, 4])",
    ),
    (
        {"3,2": "2/5", "4,2": "4/5"},
        "coefficients a[.,2] realize Permutation([4, 2, 3, 1]), "
        "not the requested Permutation([4, 2, 1, 3])",
    ),
    ({"3,2": "6/5"}, "coefficient a[3,2] = 6/5 outside (0,1)"),
    ({"3,2": "0/5"}, "coefficient a[3,2] = 0 outside (0,1)"),
    ({"4,3": "3/5"}, "coefficients a[.,3] are not pairwise distinct"),
]


class TestIntegerThresholds:
    def test_kernel_census_makes_no_fraction(self, random_characteristic_tuple):
        rng = random.Random(5)
        tuples = [maximal_game(9).ctuple]
        tuples += [random_characteristic_tuple(rng.randint(1, 9), rng) for _ in range(5)]
        for ctuple in tuples:
            game = build_product_game(ctuple)
            census(game, "increment")
            assert "values" not in vars(game.coeffs)
            assert "tensor" not in vars(game)

    def test_values_are_made_once_on_read(self, random_characteristic_tuple):
        for game in _pinned_games(random_characteristic_tuple):
            m, sigma = game.m, game.ctuple.sigma
            assert "values" not in vars(game.coeffs)
            assert game.coeffs.denominator == (m + 1 if m > 1 else 1)
            values = game.coeffs.values
            assert values == {
                (i, j): F(m + 1 - sigma[j - 1](i), m + 1)
                for i in range(1, m + 1)
                for j in range(1, m + 1)
                if i != j
            }
            assert all(type(a) is Fraction for a in values.values())
            assert vars(game.coeffs)["values"] is values
            assert game.coeffs.values is values

    def test_product_files_are_unchanged(self, random_characteristic_tuple):
        # the text of every file, as the Fraction-based matrix wrote it
        games = _pinned_games(random_characteristic_tuple)
        text = "".join(json.dumps(game.to_dict(), indent=1) + "\n" for game in games)
        digest = "65b780c86ed058654d108884f4b7ddd963515b7204da3b686010d614731f2634"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("edit, message", REFUSED_EDITS)
    def test_refused_thresholds_raise_the_same_error(self, edit, message, tmp_path, capsys):
        game = maximal_game(4)
        data = game.to_dict()
        data["product"]["a"].update(edit)
        values = {
            tuple(int(x) for x in key.split(",")): F(text)
            for key, text in data["product"]["a"].items()
        }
        with pytest.raises(ValueError) as exc:
            ProductTwoActionGame(game.ctuple, CoefficientMatrix(4, values))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            build_product_game(game.ctuple, CoefficientMatrix(4, values))
        assert str(exc.value) == message
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as exc:
            load_game(path)
        assert str(exc.value) == message
        capsys.readouterr()
        assert main(["classify", str(path), "--method", "increment"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestPerturbAndSerialization:
    def test_perturb_deterministic_and_bounded(self):
        game = maximal_game(3)
        a = perturb(game, 1e-3, seed=42)
        b = perturb(game, 1e-3, seed=42)
        c = perturb(game, 1e-3, seed=43)
        assert a.utilities == b.utilities
        assert a.utilities != c.utilities
        base = game.tensor.as_float()
        for t_new, t_old in zip(a.utilities, base.utilities):
            assert all(abs(x - y) <= 1e-3 for x, y in zip(t_new, t_old))

    def test_perturb_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            perturb(maximal_game(2), 0.0, seed=0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_perturb_rejects_nonfinite_epsilon(self, epsilon):
        # the CLI's positive_float rule: NumPy's uniform would overflow
        with pytest.raises(ValueError, match="epsilon"):
            perturb(maximal_game(2), epsilon, seed=0)

    def test_roundtrip_product_game(self, tmp_path):
        game = maximal_game(3)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        assert isinstance(loaded, ProductTwoActionGame)
        assert loaded.ctuple == game.ctuple
        assert loaded.tensor.utilities == game.tensor.utilities

    def test_roundtrip_float_game(self, tmp_path):
        game = perturb(maximal_game(2), 1e-2, seed=1)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        assert isinstance(loaded, TwoActionGame)
        assert loaded.mode == FLOAT
        assert loaded.utilities == game.utilities

    def test_exact_fractions_survive_json(self, tmp_path):
        game = maximal_game(3).tensor
        path = tmp_path / "game.json"
        save_game(game, path)
        data = json.loads(path.read_text())
        assert data["mode"] == EXACT
        # exact rationals are stored as strings, never floats
        assert all(
            isinstance(u, str) for table in data["utilities"] for u in table
        )

    def test_tampered_tensor_rejected(self, tmp_path):
        data = file_with_tensor(maximal_game(2))
        data["utilities"][0][-1] = "9/1"
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_game(path)

    @pytest.mark.parametrize("text", ["1/3", "2/6", "-5/7", "0.5", "abc"])
    def test_one_altered_entry_rejected(self, tmp_path, text):
        # an altered value must fail in either spelling, and garbage must too
        data = file_with_tensor(maximal_game(3))
        assert data["utilities"][2][5] == "-9/16"
        data["utilities"][2][5] = text
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_game(path)

    def test_saved_file_is_the_indented_json(self, tmp_path, random_product_game):
        # pins the game file byte for byte: one-space indented JSON of to_dict
        # and a newline
        rng = random.Random(77)
        games = [maximal_game(m) for m in range(1, 8)]
        games += [random_product_game(rng.randint(1, 7), rng) for _ in range(6)]
        path = tmp_path / "game.json"
        for game in games:
            save_game(game, path)
            assert path.read_text() == json.dumps(game.to_dict(), indent=1) + "\n"

    def test_product_file_round_trips(self, tmp_path, random_product_game):
        # the file holds the product block alone and loads to an equal game,
        # as does a file in the older format that also stores the tensor
        rng = random.Random(79)
        games = [maximal_game(m) for m in range(1, 8)]
        games += [random_product_game(rng.randint(1, 7), rng) for _ in range(6)]
        path, older = tmp_path / "game.json", tmp_path / "older.json"
        for game in games:
            save_game(game, path)
            assert set(json.loads(path.read_text())) == {"m", "mode", "product"}
            assert "tensor" not in vars(load_game(path))
            older.write_text(json.dumps(file_with_tensor(game)))
            for loaded in (load_game(path), load_game(older)):
                assert loaded.ctuple == game.ctuple
                assert loaded.coeffs.values == game.coeffs.values
                assert loaded.tensor.utilities == game.tensor.utilities

    def test_saved_float_file_is_the_indented_json(self, tmp_path):
        # float games go through the same writer: shortest round-trip reprs,
        # signed zeros and exponents, byte for byte
        rng = random.Random(78)
        tables = [[[rng.uniform(-1, 1) for _ in range(2**m)] for _ in range(m)] for m in range(1, 8)]
        tables.append([[-0.0, 1e-300, 2.5e17, -3.0], [0.1, 7e-8, 1.0, 0.0]])
        games = [TwoActionGame(len(t), t, mode=FLOAT) for t in tables]
        path = tmp_path / "game.json"
        for game in games:
            save_game(game, path)
            assert path.read_text() == json.dumps(game.to_dict(), indent=1) + "\n"
            assert load_game(path).utilities == game.utilities

    def test_noncanonical_spelling_loads(self, tmp_path):
        game = maximal_game(3)
        data = file_with_tensor(game)
        for table in data["utilities"]:
            for k, text in enumerate(table):
                value = Fraction(text)
                table[k] = "0" if not value else f"{2 * value.numerator}/{2 * value.denominator}"
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        loaded = load_game(path)
        assert loaded.tensor.utilities == game.tensor.utilities

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("m",), "3", "key 'm' must be an integer, not a string"),
            (("m",), True, "key 'm' must be an integer, not a boolean"),
            (("product",), 5, "key 'product' must be an object, not an integer"),
            (("product", "v"), "000", "key 'product.v' must be a list, not a string"),
            (("product", "sigma"), 3, "key 'product.sigma' must be a list, not an integer"),
            (("product", "sigma", 0), [1, "2", 3], "key 'product.sigma': "),
            (("product", "a"), [], "key 'product.a' must be an object, not a list"),
            (("product", "a", "1,2"), None, "coefficient key '1,2': "),
            (("utilities", 0), 5, "key 'utilities': "),
            (("utilities", 0, 0), None, "key 'utilities[0][0]': "),
        ],
    )
    def test_wrong_json_type_names_the_key(self, tmp_path, keys, value, message):
        data = file_with_tensor(maximal_game(3))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as exc:
            load_game(path)
        assert str(exc.value).startswith(message)

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match="missing key 'utilities'"):
            TwoActionGame.from_dict({"m": 1, "mode": FLOAT})

    def test_product_game_needs_exact_mode(self):
        # a float tensor is never checked against the product block, so a
        # product game is read from exact-mode data only
        data = maximal_game(2).to_dict()
        data["mode"] = FLOAT
        data["utilities"] = [[0.0] * 4] * 2
        with pytest.raises(ValueError, match="key 'mode'"):
            ProductTwoActionGame.from_dict(data)
        del data["mode"]
        with pytest.raises(ValueError, match="missing key 'mode'"):
            ProductTwoActionGame.from_dict(data)

    def test_wrong_table_size_rejected(self, tmp_path):
        data = file_with_tensor(maximal_game(2))
        data["utilities"][1].append("0/1")
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_game(path)
