import argparse
import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import enumerate_candidates, file_with_tensor
from twoaction import candidate_engine, solver
from twoaction.cli import build_parser, main, parse_permutation
from twoaction.combinatorics import Permutation
from twoaction.game_model import load_game, maximal_game, save_game


def _maximal_m3_file(utility=None, coefficients=None, **product) -> str:
    """The text of maximal_game(3)'s file, with ``coefficients`` added to the
    product block and its other keys replaced by ``product``; given
    ``utility``, the file stores the tensor, utilities[0][0] spelled as the
    JSON text ``utility``."""
    game = maximal_game(3)
    data = game.to_dict() if utility is None else file_with_tensor(game)
    data["product"]["a"].update(coefficients or {})
    data["product"].update(product)
    if utility is None:
        return json.dumps(data)
    data["utilities"][0][0] = "@"
    return json.dumps(data).replace('"@"', utility)


# Game files with a value of the wrong type, a utility that is not a finite
# number, or a coefficient key that is not an off-diagonal pair.  A str value
# is the file's text, so that a number JSON cannot hold (1e400) can be written.
BAD_GAME_FILES = {
    "utilities-number.json": {"m": 2, "mode": "float", "utilities": 5},
    "list.json": [1, 2],
    "number.json": 5,
    "string-m.json": {"m": "2", "mode": "float", "utilities": [[0, 1, 2, 3], [3, 2, 1, 0]]},
    "null-utility.json": {"m": 2, "mode": "float", "utilities": [[None, 0, 0, 0], [0] * 4]},
    "nan-utility.json": {"m": 2, "mode": "float", "utilities": [[0, 1, 2, "nan"], [0, 1, 2, 3]]},
    "huge-utility.json": '{"m": 2, "mode": "float", "utilities": [[0, 1, 2, 1e400], [0, 1, 2, 3]]}',
    "bool-utility.json": {"m": 2, "mode": "float", "utilities": [[0, 1, 2, True], [0, 1, 2, 3]]},
    "huge-exact-utility.json": '{"m": 1, "mode": "exact", "utilities": [[0, 1e400]]}',
    "huge-product-utility.json": _maximal_m3_file(utility="1e400"),
    "bool-product-utility.json": _maximal_m3_file(utility="false"),
    "stray-coefficient.json": _maximal_m3_file(coefficients={"1,9": "1/2", "2,2": "1/3"}),
    # the product block is maximal_game(3)'s, so only the types are wrong
    "bool-v.json": _maximal_m3_file(v=[False, False, False]),
    "float-v.json": _maximal_m3_file(v=[0.0, 0, 0]),
    "float-sigma.json": _maximal_m3_file(sigma=[[1.0, 2.0, 3.0], [3, 2, 1], [1, 2, 3]]),
    "zero-m-product.json": {
        "m": 0,
        "mode": "exact",
        "utilities": [],
        "product": {"v": [], "sigma": [], "a": {}},
    },
    # a valid m = 16 product block: the stored tensor's shape is checked
    # before the tensor is built
    "empty-tensor-m16.json": {**maximal_game(16).to_dict(), "utilities": []},
    # a valid float game, where a product game is needed
    "float-game.json": {"m": 2, "mode": "float", "utilities": [[0, 1, 2, 3], [3, 2, 1, 0]]},
    "zero-m-float.json": {"m": 0, "mode": "float", "utilities": []},
    "fuzzy-mode.json": {"m": 2, "mode": "fuzzy", "utilities": [[0, 1, 2, 3], [3, 2, 1, 0]]},
    "integer-sigma.json": _maximal_m3_file(sigma=[1, 2]),
    "short-v.json": _maximal_m3_file(v=[0, 0]),
    "short-sigma-row.json": _maximal_m3_file(sigma=[[1, 2, 3], [3, 2, 1], [1, 2]]),
    "repeated-sigma-image.json": _maximal_m3_file(sigma=[[1, 2, 3], [3, 2, 1], [1, 1, 3]]),
    "missing-coefficient.json": _maximal_m3_file(
        a={k: a for k, a in maximal_game(3).coeffs.to_dict().items() if k != "2,1"}
    ),
    # m = 2 coefficients for a product block of three players
    "m-not-len-v.json": {
        **json.loads(_maximal_m3_file(a={"1,2": "1/4", "2,1": "1/2"})),
        "m": 2,
    },
}

SUBCOMMANDS = ["table", "construct", "candidates", "classify", "solve", "deform", "scan"]
ALL_COMMANDS = "{" + ",".join(SUBCOMMANDS) + "}"
SRC = Path(__file__).resolve().parent.parent / "src"


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParsePermutation:
    def test_id(self):
        assert parse_permutation("id", 3) == Permutation.identity(3)

    def test_one_line(self):
        assert parse_permutation("3,2,1", 3) == Permutation([3, 2, 1])
        assert parse_permutation("3 2 1", 3) == Permutation([3, 2, 1])

    def test_cycles(self):
        assert parse_permutation("(1 3)", 3) == Permutation([3, 2, 1])
        assert parse_permutation("(1 2)(3 4)", 4) == Permutation([2, 1, 4, 3])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 9)", 3)
        with pytest.raises(ValueError):
            parse_permutation("1,1,2", 3)


class TestTable:
    def test_text(self, capsys):
        assert main(["table", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "37" in out and "9" in out

    def test_json(self, capsys):
        assert main(["table", "--m", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][2] == {
            "m": 3,
            "subfactorial": 2,
            "candidates": 16,
            "max_equilibria": 9,
        }

    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--m", "2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,subfactorial,candidates,max_equilibria"
        assert lines[2] == "2,1,5,3"

    def test_csv_rows_match_the_header(self, tmp_path, capsys):
        game = tmp_path / "g4.json"
        assert main(["construct", "--m", "4", "--out", str(game)]) == 0
        capsys.readouterr()
        # one row per m = 1..4, and one per face class l = 0..4
        for argv, count in ((["table", "--m", "4"], 4), (["classify", str(game)], 5)):
            assert main(argv + ["--format", "csv"]) == 0
            header, *rows = csv.reader(capsys.readouterr().out.splitlines())
            assert len(rows) == count
            assert all(len(row) == len(header) for row in rows)


class TestConstructClassifySolve:
    def test_pipeline(self, tmp_path, capsys):
        game = tmp_path / "g3.json"
        assert main(["construct", "--m", "3", "--out", str(game)]) == 0
        capsys.readouterr()

        assert (
            main(["classify", str(game), "--expect-maximal", "--format", "json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["total_equilibria"] == 9
        assert [row["equilibria"] for row in data["per_l"]] == [2, 3, 0, 4]

        assert (
            main(
                [
                    "solve",
                    str(game),
                    "--expect-total",
                    "9",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 9

    def test_construct_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--m", "3"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_construct_rejects_bad_v(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["construct", "--m", "3", "--v", "01", "--out", str(out)]) == 2
        assert main(["construct", "--m", "3", "--v", "012", "--out", str(out)]) == 2

    def test_construct_custom_sigma(self, tmp_path, capsys):
        game = tmp_path / "g.json"
        rc = main(
            ["construct", "--m", "3", "--v", "010", "--sigma", "id;(1 3);id", "--out", str(game)]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["classify", str(game), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_equilibria"] % 2 == 1
        # "id" is the identity for every player
        assert main(["construct", "--m", "3", "--sigma", "id", "--out", str(game)]) == 0
        assert [list(s.images) for s in load_game(game).ctuple.sigma] == [[1, 2, 3]] * 3

    def test_construct_m16_writes_no_tensor(self, tmp_path, capsys):
        # the tensor, 16 tables of 65536 entries, is neither written nor built
        game = tmp_path / "g16.json"
        assert main(["construct", "--m", "16", "--out", str(game)]) == 0
        assert game.stat().st_size < 16 * 1024
        assert "tensor" not in vars(load_game(game))

    def test_candidates_listing(self, tmp_path, capsys):
        game = tmp_path / "g2.json"
        assert main(["construct", "--m", "2", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["candidates", str(game), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5
        assert sorted(c["face_class"] for c in data["candidates"]) == [0, 2, 2, 2, 2]

    def test_candidates_match_oracle(self, tmp_path, capsys, random_product_game):
        # pins both formats byte for byte against the scalar enumeration
        rng = random.Random(515)
        games = [maximal_game(m) for m in range(1, 6)]
        games += [random_product_game(rng.randint(1, 5), rng) for _ in range(12)]
        path = tmp_path / "game.json"
        for game in games:
            save_game(game, path)
            cands = list(enumerate_candidates(game))
            entries = [
                {
                    "pi": list(c.pi.images),
                    "boundary": {str(i): val for i, val in c.boundary},
                    "gamma": [f"{g.numerator}/{g.denominator}" for g in c.gamma],
                    "face_class": c.face_class,
                }
                for c in cands
            ]
            data = {"m": game.m, "count": len(cands), "candidates": entries}
            assert main(["candidates", str(path), "--format", "json"]) == 0
            assert capsys.readouterr().out == json.dumps(data, indent=1) + "\n"
            lines = [
                f"pi={list(c.pi.images)} l={c.face_class} gamma=({' '.join(map(str, c.gamma))})"
                for c in cands
            ]
            assert main(["candidates", str(path)]) == 0
            text = "\n".join(lines) + f"\ntotal {len(cands)} candidates\n"
            assert capsys.readouterr().out == text

    def test_expect_maximal_failure_exit_code(self, tmp_path, capsys):
        game = tmp_path / "g.json"
        # mixed sign vector: strictly fewer equilibria than the maximum
        assert (
            main(["construct", "--m", "3", "--v", "010", "--out", str(game)]) == 0
        )
        capsys.readouterr()
        assert main(["classify", str(game), "--expect-maximal"]) == 1
        assert "not_maximal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, counted_by",
        [("increment", "kernel"), ("sign", "streaming"), ("both", "streaming")],
    )
    def test_classify_reports_what_counted(self, method, counted_by, tmp_path, capsys):
        game = tmp_path / "g3.json"
        assert main(["construct", "--m", "3", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["classify", str(game), "--method", method]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith(f"m=3 method={method} counted_by={counted_by}")
        assert ("kernel=numpy" in header) == (counted_by == "kernel")
        assert main(["classify", str(game), "--method", method, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counted_by"] == counted_by
        assert [row["equilibria"] for row in data["per_l"]] == [2, 3, 0, 4]

    def test_classify_reports_method_disagreement(self, tmp_path, capsys, monkeypatch):
        game = tmp_path / "g3.json"
        assert main(["construct", "--m", "3", "--out", str(game)]) == 0
        capsys.readouterr()
        real = candidate_engine.sign_table

        def flipped(game):
            # the factor of player 1 in player 3's payoff difference at
            # pi(1) = 2: only the candidates of pi = [2, 1, 3] read it
            table = real(game)
            table[0, 2, 1] *= -1
            return table

        monkeypatch.setattr(candidate_engine, "sign_table", flipped)
        assert main(["classify", str(game), "--method", "both"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "method_disagreement",
            "pi": [2, 1, 3],
            "boundary": {"3": 0},
            "by_increment": True,
            "by_sign": False,
        }

    def test_solve_expect_total_failure(self, tmp_path, capsys):
        game = tmp_path / "g2.json"
        assert main(["construct", "--m", "2", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["solve", str(game), "--expect-total", "4"]) == 1

    def test_solve_json_is_strict(self, tmp_path, capsys):
        # the fully mixed equilibrium of construct --m 2 has no boundary
        # player; its margin must not come out as the non-JSON Infinity
        game = tmp_path / "g2.json"
        assert main(["construct", "--m", "2", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["solve", str(game), "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert None in [eq["margin"] for eq in data["equilibria"]]

    def test_solve_reports_failed_paths(self, tmp_path, capsys, monkeypatch):
        # one predictor-corrector round is too few for any path to reach t = 1.
        # Faces with r <= 3 are solved in closed form, untracked, so at m = 4
        # the 9 paths of the fully mixed support fail and the other 40 do not
        monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
        game = tmp_path / "g4.json"
        assert main(["construct", "--m", "4", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["solve", str(game), "--format", "json"]) == 1
        captured = capsys.readouterr()
        stats = json.loads(captured.out)["stats"]
        assert (stats["failed"], stats["closed_form"]) == (9, 40)
        assert json.loads(captured.err) == {
            "error": "failed_paths",
            "failed": 9,
            "starts": 49,
            "total": 28,
        }

    def test_solve_fails_on_a_face_indifferent_within_rounding(self, tmp_path, capsys):
        # player 1's payoff difference is 0.3 - (0.1 + 0.2), rounding noise,
        # and player 2 is indifferent at x1 = 1/2: every point (1/2, x2) is
        # an equilibrium.  Each face with player 1 free is degenerate, so
        # the fully mixed path fails and the total is unproven.
        game = tmp_path / "noise.json"
        utilities = [[0.3, 0.3, 0.1 + 0.2, 0.1 + 0.2], [0, -0.5, 0, 0.5]]
        game.write_text(json.dumps({"m": 2, "mode": "float", "utilities": utilities}))
        assert main(["solve", str(game)]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and json.loads(errors[0])["error"] == "failed_paths"

    def test_solve_fails_on_a_degenerate_face_with_one_free_player(self, tmp_path, capsys):
        # every (x1, 0) is an equilibrium: player 1 is indifferent when
        # player 2 plays 0, which player 2 strictly prefers.  The r = 1 face
        # holding them is degenerate and has no path to fail, so the total
        # is unproven all the same.
        game = tmp_path / "degenerate.json"
        utilities = [[0, 0, 0, 1], [0, -1, 0, -1]]
        game.write_text(json.dumps({"m": 2, "mode": "float", "utilities": utilities}))
        assert main(["solve", str(game)]) == 1
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert errors == [{"error": "degenerate_supports", "total": 0, "degenerate_supports": 1}]

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["classify", "/nonexistent/game.json"]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


class TestDeformScan:
    def test_deform(self, tmp_path, capsys):
        game = tmp_path / "g2.json"
        assert main(["construct", "--m", "2", "--out", str(game)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "deform",
                str(game),
                "--epsilon",
                "1e-3",
                "--trials",
                "3",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_stable"] is True
        assert data["baseline_total"] == 3

    def test_scan(self, capsys):
        rc = main(
            ["scan", "--m", "2", "--trials", "5", "--seed", "3", "--format", "json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violations"] == []
        assert data["paired_excess"] == []
        assert data["even_count_failures"] == 0


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--m", "0"],
            ["table", "--m", "-2"],
            ["scan", "--m", "0"],
            ["scan", "--m", "2", "--trials", "0"],
            ["deform", "game.json", "--trials", "0"],
            ["scan", "--m", "2", "--threads", "0"],
            ["solve", "game.json", "--threads", "0"],
            ["deform", "game.json", "--threads", "-1"],
        ],
    )
    def test_bad_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--m", "3", "--v", "0a1", "--out", "g.json"], "--v must be a bit"),
            (["deform", "game.json", "--epsilon", "-1"], "--epsilon: must be a finite number > 0"),
            (["deform", "game.json", "--epsilon", "0"], "--epsilon: must be a finite number > 0"),
            (["deform", "game.json", "--epsilon", "nan"], "--epsilon: must be a finite number > 0"),
            (["scan", "--m", "2", "--seed", "-1"], "--seed: must be >= 0"),
            (["deform", "game.json", "--seed", "x"], "--seed: invalid non_negative_int value"),
            (["classify", "missing-game.json"], "No such file"),
            (["table", "--m", "2", "--out", "missing-dir/t.txt"], "No such file"),
            (["construct", "--m", "2", "--out", "missing-dir/g.json"], "No such file"),
            (["solve", "utilities-number.json"], "key 'utilities' must be a list, not an integer"),
            (["solve", "list.json"], "the game file must hold a JSON object, not a list"),
            (["solve", "string-m.json"], "key 'm' must be an integer, not a string"),
            (["solve", "null-utility.json"], "float() argument must be"),
            (["solve", "number.json"], "the game file must hold a JSON object, not an integer"),
            (
                ["construct", "--m", "3", "--sigma", "(2 3;id;id", "--out", "g.json"],
                "malformed cycle notation '(2 3'",
            ),
            (
                ["construct", "--m", "3", "--sigma", "(2 3)junk;id;id", "--out", "g.json"],
                "malformed cycle notation '(2 3)junk'",
            ),
            (
                ["construct", "--m", "3", "--sigma", "(2 2);id;id", "--out", "g.json"],
                "cycle entry outside 1..3 or repeated in '(2 2)'",
            ),
            (["solve", "nan-utility.json"], "key 'utilities[0][3]': nan is not a finite number"),
            (["solve", "huge-utility.json"], "key 'utilities[0][3]': inf is not a finite number"),
            (["solve", "bool-utility.json"], "key 'utilities[0][3]': must be a number or a string"),
            (["solve", "huge-exact-utility.json"], "key 'utilities[0][1]': cannot convert"),
            (["classify", "huge-product-utility.json"], "key 'utilities[0][0]': cannot convert"),
            (["classify", "bool-product-utility.json"], "key 'utilities[0][0]': must be a number"),
            (["classify", "stray-coefficient.json"], "coefficient key '1,9': not an off-diagonal"),
            (["classify", "bool-v.json"], "key 'product.v': must hold integers, not a boolean"),
            (["classify", "float-v.json"], "key 'product.v': must hold integers, not a number"),
            (
                ["classify", "float-sigma.json"],
                "key 'product.sigma': must hold integers, not a number",
            ),
            (
                ["construct", "--m", "4", "--sigma", "id;id;id;(1 2 3)(3 2 1)", "--out", "g.json"],
                "cycles must be disjoint in '(1 2 3)(3 2 1)'",
            ),
            (
                ["construct", "--m", "4", "--sigma", "id;id;id;(1 2)(2 3)", "--out", "g.json"],
                "cycles must be disjoint in '(1 2)(2 3)'",
            ),
            (["classify", "zero-m-product.json"], "key 'm' must be positive, not 0"),
            (
                ["classify", "zero-m-product.json", "--method", "increment"],
                "key 'm' must be positive, not 0",
            ),
            (
                ["classify", "zero-m-product.json", "--method", "sign"],
                "key 'm' must be positive, not 0",
            ),
            (["candidates", "zero-m-product.json"], "key 'm' must be positive, not 0"),
            (["solve", "zero-m-product.json"], "key 'm' must be positive, not 0"),
            (["deform", "zero-m-product.json"], "key 'm' must be positive, not 0"),
            (["classify", "empty-tensor-m16.json"], "key 'utilities': must hold 16 lists of 65536"),
            (
                ["construct", "--m", "3", "--v", "", "--out", "g.json"],
                "--v must be a bit string of length 3",
            ),
            (
                ["construct", "--m", "3", "--sigma", "id;id", "--out", "g.json"],
                "need 3 permutations separated by ';', got 2",
            ),
            (["classify", "float-game.json"], "file does not hold an exact-mode product game"),
            (["deform", "float-game.json"], "file does not hold an exact-mode product game"),
            (["candidates", "float-game.json"], "file does not hold an exact-mode product game"),
            (["solve", "zero-m-float.json"], "key 'm' must be positive, not 0"),
            (["solve", "fuzzy-mode.json"], "key 'mode' must be 'exact' or 'float'"),
            (["classify", "integer-sigma.json"], "must hold lists of integers"),
            (["classify", "short-v.json"], "v and sigma must have the same length"),
            (["classify", "short-sigma-row.json"], "sigma[3] acts on the wrong set"),
            (["classify", "missing-coefficient.json"], "missing coefficient for pair (2,1)"),
            (["classify", "m-not-len-v.json"], "coefficient matrix size does not match tuple"),
            (["classify", "repeated-sigma-image.json"], "not a bijection"),
        ],
    )
    def test_bad_input_exits_2_with_one_error_line(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        # relative paths resolve in an empty directory holding the bad game files
        monkeypatch.chdir(tmp_path)
        for name, data in BAD_GAME_FILES.items():
            (tmp_path / name).write_text(data if isinstance(data, str) else json.dumps(data))
        # argparse exits through SystemExit, the subcommands return the code
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_deeply_nested_file_exits_2(self, command, capsys, tmp_path):
        # json.load recurses once per level of nesting and gives up long
        # before 200,000 levels
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "recursion" in errors[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--m", "3", "--seed", "1"],
            ["table", "--m", "3", "--threads", "2"],
            ["classify", "game.json", "--seed", "1"],
            ["candidates", "game.json", "--threads", "2"],
            ["solve", "game.json", "--seed", "1"],
            ["solve", "game.json", "--starts", "12"],
            ["solve", "game.json", "--dedup-tol", "1e-6"],
            ["deform", "game.json", "--starts", "12"],
            ["scan", "--m", "2", "--dedup-tol", "1e-6"],
            ["construct", "--m", "2", "--out", "g.json", "--format", "json"],
            ["solve", "game.json", "--residual-tol", "1e-9"],
            ["deform", "game.json", "--residual-tol", "1e-9"],
            ["scan", "--m", "2", "--residual-tol", "1e-9"],
        ],
    )
    def test_unused_knobs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["candidates", "game.json"],
            ["solve", "game.json"],
            ["deform", "game.json"],
            ["scan", "--m", "2"],
        ],
    )
    def test_csv_only_where_there_is_a_table(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestParser:
    """A named subcommand gets its subparser alone; the output reads the same."""

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_one_subparser_has_the_full_parsers_help(self, name):
        alone, full = build_parser(name), build_parser()
        assert list(_subparsers(alone)) == [name]
        assert list(_subparsers(full)) == SUBCOMMANDS
        assert _subparsers(alone)[name].format_help() == _subparsers(full)[name].format_help()
        assert alone.format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", [[], ["bogus"]])
    def test_no_or_unknown_subcommand_lists_all(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        usage = capsys.readouterr().err.splitlines()[:2]
        assert ALL_COMMANDS in " ".join(line.strip() for line in usage)

    def test_help_lists_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert ALL_COMMANDS in out
        assert all(f"    {name} " in out for name in SUBCOMMANDS)

    def test_console_script_in_a_real_process(self, tmp_path):
        # main() with no argv reads sys.argv, as the twoaction console script calls it
        env = {**os.environ, "PYTHONPATH": str(SRC)}

        def run(*argv):
            command = [sys.executable, "-m", "twoaction.cli", *argv]
            return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)

        construct = run("construct", "--m", "3", "--out", "g.json")
        assert construct.returncode == 0, construct.stderr
        classify = run("classify", "g.json", "--expect-maximal")
        assert classify.returncode == 0, classify.stderr
        assert "9 equilibria" in classify.stdout
        bare = run()
        assert bare.returncode == 2
        assert "the following arguments are required: command" in bare.stderr


class TestImportGraph:
    def test_counting_and_solving_load_apart(self):
        # the exact engine and the numeric solver check each other, so a
        # fresh process that counts loads no solver, and one that solves
        # loads no candidate engine
        env = {**os.environ, "PYTHONPATH": str(SRC)}

        def loaded_after(code):
            code += "\nimport sys; print(*sys.modules, sep='\\n')"
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            return run.stdout.splitlines()

        counting = loaded_after(
            "from twoaction.candidate_engine import census\n"
            "from twoaction.game_model import maximal_game\n"
            "census(maximal_game(5), 'both'); census(maximal_game(5), 'increment')"
        )
        assert "twoaction.candidate_engine" in counting
        assert "twoaction.solver" not in counting
        solving = loaded_after(
            "from twoaction.solver import solve_all\n"
            "from twoaction.game_model import TwoActionGame\n"
            "game = TwoActionGame(2, [[0, 1, 2, 3], [3, 2, 1, 0]], mode='float')\n"
            "assert solve_all(game).total % 2 == 1"
        )
        assert "twoaction.solver" in solving
        assert "twoaction.candidate_engine" not in solving
