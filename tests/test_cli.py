import json

import pytest

from twoaction import candidate_engine, solver
from twoaction.cli import main, parse_permutation
from twoaction.combinatorics import Permutation


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
        assert main(["construct", "--m", "3"]) == 2

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

    def test_candidates_listing(self, tmp_path, capsys):
        game = tmp_path / "g2.json"
        assert main(["construct", "--m", "2", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["candidates", str(game), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5
        assert sorted(c["face_class"] for c in data["candidates"]) == [0, 2, 2, 2, 2]

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
        # one predictor-corrector round is too few for any path to reach t = 1
        monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
        game = tmp_path / "g3.json"
        assert main(["construct", "--m", "3", "--out", str(game)]) == 0
        capsys.readouterr()
        assert main(["solve", str(game), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["stats"]["failed"] == 8
        assert json.loads(captured.err) == {
            "error": "failed_paths",
            "failed": 8,
            "starts": 8,
            "total": 4,
        }

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["classify", "/nonexistent/game.json"]) in (1, 2)


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
            ["scan", "--m", "2", "--trials", "5", "--format", "json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violations"] == []
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
        ],
    )
    def test_unused_knobs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
