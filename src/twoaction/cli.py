"""Command-line driver: construct, enumerate, classify, solve, deform, scan.

Exit codes: 0 when all requested checks pass, 1 when a check fails, 2 for
usage or parse errors.  Every report echoes the configuration that produced
it, so any run can be reproduced from its own output.

``SUBCOMMANDS`` lists each subcommand once.  A call builds the subparser of
the subcommand it names alone, and all of them when it names none, so help,
usage and error lines read as if every subcommand were built.  Game files
are written and checked through ``game_model``: a product game's file holds
its product block alone, and a payoff tensor that an older file still holds
must equal the one that block gives.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import kernel
from .candidate_engine import (
    METHODS,
    MethodDisagreement,
    candidate_blocks,
    census,
)
from .combinatorics import (
    Permutation,
    block_swap_permutation,
    candidate_count,
    maximal_equilibrium_count,
    subfactorial,
)
from .game_model import (
    CharacteristicTuple,
    ProductTwoActionGame,
    build_product_game,
    load_game,
    save_game,
)
from .solver import (
    SolverConfig,
    scan_inequalities,
    solve_all,
    verify_deformation,
)

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    """Bad input that argparse cannot see: ``main`` prints it and exits 2."""


def parse_permutation(text: str, m: int) -> Permutation:
    """Parse 'id', cycle notation like '(1 3)(2 4)', or one-line '3,2,1'."""
    text = text.strip()
    if text == "id":
        return Permutation.identity(m)
    if text.startswith("("):
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation {text!r}")
        images, seen = list(range(1, m + 1)), set()
        for cycle in re.findall(r"\(([^)]*)\)", text):
            entries = [int(tok) for tok in cycle.replace(",", " ").split()]
            if any(not 1 <= e <= m for e in entries) or len(set(entries)) < len(entries):
                raise ValueError(f"cycle entry outside 1..{m} or repeated in {text!r}")
            if seen.intersection(entries):
                raise ValueError(f"cycles must be disjoint in {text!r}")
            seen.update(entries)
            for a, b in zip(entries, entries[1:] + entries[:1]):
                images[a - 1] = b
        return Permutation(images)
    return Permutation(int(tok) for tok in text.replace(",", " ").split())


def _parse_sigma(spec: str, m: int) -> tuple[Permutation, ...]:
    spec = spec.strip()
    if spec == "delta":
        return tuple(block_swap_permutation(m, i) for i in range(1, m + 1))
    if spec == "id":
        return (Permutation.identity(m),) * m
    parts = spec.split(";")
    if len(parts) != m:
        raise ValueError(f"need {m} permutations separated by ';', got {len(parts)}")
    return tuple(parse_permutation(part, m) for part in parts)


def _emit(args, text: str, data: dict, csv_rows: list[list] | None = None) -> None:
    if args.format == "json":
        payload = json.dumps(data, indent=1, allow_nan=False) + "\n"
    elif args.format == "csv":
        payload = "\n".join(",".join(str(cell) for cell in row) for row in csv_rows) + "\n"
    else:
        payload = text
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(exc) from exc
    else:
        sys.stdout.write(payload)


def cmd_table(args) -> int:
    rows = [["m", "subfactorial", "candidates", "max_equilibria"]]
    lines = [f"{'m':>3} {'!m':>12} {'V(m)':>14} {'max equil':>14}"]
    data = []
    for m in range(1, args.m + 1):
        row = (m, subfactorial(m), candidate_count(m), maximal_equilibrium_count(m))
        rows.append(list(row))
        lines.append(f"{row[0]:>3} {row[1]:>12} {row[2]:>14} {row[3]:>14}")
        data.append(dict(zip(rows[0], row)))
    _emit(args, "\n".join(lines) + "\n", {"rows": data}, rows)
    return PASS


def cmd_construct(args) -> int:
    m = args.m
    bits = "0" * m if args.v is None else args.v
    if not re.fullmatch(f"[01]{{{m}}}", bits):
        raise UsageError(f"--v must be a bit string of length {m}")
    v = tuple(int(b) for b in bits)
    try:
        sigma = _parse_sigma(args.sigma, m)
        ctuple = CharacteristicTuple(v=v, sigma=sigma)
        game = build_product_game(ctuple)
    except ValueError as exc:
        raise UsageError(exc) from exc
    try:
        save_game(game, args.out)
    except OSError as exc:
        raise UsageError(exc) from exc
    print(f"wrote {args.out}: m={m} v={''.join(map(str, v))} sigma={args.sigma}")
    return PASS


def _read_game(path, product: bool = True):
    """The game in a file; an unreadable file, one nested too deeply for
    the JSON parser, or a float game where a product game is needed, is a
    UsageError."""
    try:
        game = load_game(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(exc) from exc
    if product and not isinstance(game, ProductTwoActionGame):
        raise UsageError("file does not hold an exact-mode product game")
    return game


def cmd_candidates(args) -> int:
    game = _read_game(args.game)
    entries = []
    lines = []
    cands = (
        cand
        for block in candidate_blocks(game.m)
        for cand in block.candidates(game, range(len(block.owner)))
    )
    for cand in cands:
        entries.append(
            {
                "pi": list(cand.pi.images),
                "boundary": {str(i): val for i, val in cand.boundary},
                "gamma": [f"{g.numerator}/{g.denominator}" for g in cand.gamma],
                "face_class": cand.face_class,
            }
        )
        gamma = " ".join(str(g) for g in cand.gamma)
        lines.append(f"pi={list(cand.pi.images)} l={cand.face_class} gamma=({gamma})")
    text = "\n".join(lines) + f"\ntotal {len(entries)} candidates\n"
    _emit(args, text, {"m": game.m, "count": len(entries), "candidates": entries})
    return PASS


def cmd_classify(args) -> int:
    game = _read_game(args.game)
    try:
        report = census(game, method=args.method)
    except MethodDisagreement as exc:
        diff = {
            "error": "method_disagreement",
            "pi": list(exc.candidate.pi.images),
            "boundary": {str(i): v for i, v in exc.candidate.boundary},
            "by_increment": exc.by_increment,
            "by_sign": exc.by_sign,
        }
        print(json.dumps(diff), file=sys.stderr)
        return FAIL
    data = report.to_dict()
    header = f"m={report.m} method={report.method} counted_by={report.counted_by}"
    if report.counted_by == "kernel":
        header += f" kernel={kernel.KERNEL}"
    lines = [header]
    for row in data["per_l"]:
        lines.append(
            f"  l={row['l']}: candidates={row['candidates']} equilibria={row['equilibria']}"
        )
    lines.append(
        f"total: {report.total_candidates} candidates, {report.total_equilibria} equilibria"
        f" (maximal would be {report.expected_maximum})"
    )
    csv_rows = [["l", "candidates", "equilibria"]] + [
        [row["l"], row["candidates"], row["equilibria"]] for row in data["per_l"]
    ]
    _emit(args, "\n".join(lines) + "\n", data, csv_rows)
    if args.expect_maximal and not report.matches_expected:
        print(
            json.dumps(
                {
                    "error": "not_maximal",
                    "total": report.total_equilibria,
                    "expected": report.expected_maximum,
                }
            ),
            file=sys.stderr,
        )
        return FAIL
    return PASS


def _solver_config(args) -> SolverConfig:
    return SolverConfig(threads=args.threads)


def cmd_solve(args) -> int:
    game = _read_game(args.game, product=False)
    report = solve_all(game, _solver_config(args))
    data = report.to_dict()
    lines = [f"m={report.m} equilibria={report.total} census={report.face_census}"]
    for eq in report.equilibria:
        gamma = " ".join(f"{g:.12g}" for g in eq.gamma)
        lines.append(
            f"  l={eq.face_class} gamma=({gamma}) residual={eq.residual:.2e} "
            f"margin={eq.margin:.2e}"
        )
    _emit(args, "\n".join(lines) + "\n", data)
    if report.stats["failed"]:
        # a path that failed may have been an equilibrium: the total is unproven
        failed, starts = report.stats["failed"], report.stats["starts"]
        error = {"error": "failed_paths", "total": report.total, "failed": failed, "starts": starts}
        print(json.dumps(error), file=sys.stderr)
        return FAIL
    if args.expect_total is not None and report.total != args.expect_total:
        print(
            json.dumps({"error": "unexpected_total", "total": report.total}),
            file=sys.stderr,
        )
        return FAIL
    return PASS


def cmd_deform(args) -> int:
    game = _read_game(args.game)
    report = verify_deformation(
        game, args.epsilon, args.trials, args.seed, _solver_config(args)
    )
    data = report.to_dict()
    text = (
        f"m={report.m} epsilon={report.epsilon} trials={report.trials}: "
        f"{report.stable_trials}/{report.trials} stable at {report.baseline_total} "
        f"equilibria, max drift {report.max_drift:.3e}\n"
    )
    _emit(args, text, data)
    return PASS if report.all_stable else FAIL


def cmd_scan(args) -> int:
    report = scan_inequalities(args.m, args.trials, args.seed, _solver_config(args))
    data = report.to_dict()
    text = (
        f"m={report.m} trials={report.trials}: {len(report.violations)} violations, "
        f"{len(report.paired_excess)} above the product-game bound, "
        f"{report.even_count_failures} parity failures, "
        f"{report.regenerations} regenerations, totals {data['totals_histogram']}\n"
    )
    _emit(args, text, data)
    return PASS if report.all_ok else FAIL


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


# One argument of a subcommand: the add_argument name and keywords.
_M = ("--m", {"type": positive_int, "required": True, "help": "number of players"})
_GAME = ("game", {})
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_FORMAT_CSV = ("--format", {"choices": ("text", "json", "csv"), "default": "text"})
_OUT = ("--out", {"default": None, "help": "output path (default stdout)"})
_SOLVER = (("--threads", {"type": positive_int, "default": 1}),)


def _trial_flags(default_trials: int) -> tuple:
    return (
        ("--trials", {"type": positive_int, "default": default_trials}),
        ("--seed", {"type": non_negative_int, "default": 0}),
    )


_CONSTRUCT = (
    _M,
    ("--out", {"required": True, "help": "output path"}),
    ("--v", {"default": None, "help": "sign bit string, e.g. 010 (default all 0)"}),
    (
        "--sigma",
        {
            "default": "delta",
            "help": "'delta', 'id', or per-player permutations separated by ';' "
            "(cycle notation '(1 3)' or one-line '3,2,1')",
        },
    ),
)
_CLASSIFY = (
    _GAME,
    _FORMAT_CSV,
    _OUT,
    ("--method", {"choices": METHODS, "default": "both"}),
    ("--expect-maximal", {"action": "store_true"}),
)
_EXPECT_TOTAL = ("--expect-total", {"type": int, "default": None})
_EPSILON = ("--epsilon", {"type": positive_float, "default": 1e-3})

# Every subcommand, in the order the help lists them: name, help, handler,
# and its arguments in the order they are added.
SUBCOMMANDS = (
    ("table", "print !m, candidate totals and maximal counts", cmd_table, (_M, _FORMAT_CSV, _OUT)),
    ("construct", "write a product game file", cmd_construct, _CONSTRUCT),
    (
        "candidates",
        "list the equilibrium candidates of a game file",
        cmd_candidates,
        (_GAME, _FORMAT, _OUT),
    ),
    ("classify", "exact census of a product game file", cmd_classify, _CLASSIFY),
    (
        "solve",
        "numeric support-enumeration solve of a game file",
        cmd_solve,
        (_GAME, _FORMAT, _OUT, *_SOLVER, _EXPECT_TOTAL),
    ),
    (
        "deform",
        "perturbation stability of a product game file",
        cmd_deform,
        (_GAME, _FORMAT, _OUT, *_SOLVER, _EPSILON, *_trial_flags(20)),
    ),
    (
        "scan",
        "inequality scan over random generic games",
        cmd_scan,
        (_M, _FORMAT, _OUT, *_SOLVER, *_trial_flags(100)),
    ),
)
_ALL_COMMANDS = "{" + ",".join(name for name, *_ in SUBCOMMANDS) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser alone when it names a
    subcommand, and with all of them otherwise.

    Usage lines list every subcommand either way, so a parse reads the same
    whichever parser made it.
    """
    parser = argparse.ArgumentParser(
        prog="twoaction",
        description="Equilibrium counting for m-player games with two actions per player",
    )
    chosen = [entry for entry in SUBCOMMANDS if entry[0] == command]
    # without a subcommand the parser names the missing argument "command";
    # with one, the explicit metavar keeps the full list in the usage line
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=_ALL_COMMANDS if chosen else None
    )
    for name, help_text, handler, arguments in chosen or SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
