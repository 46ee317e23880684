"""Command-line driver: construct, enumerate, classify, solve, deform, scan.

Exit codes: 0 when all requested checks pass, 1 when a check fails, 2 for
usage or parse errors.  Every report echoes the configuration that produced
it, so any run can be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import kernel
from .candidate_engine import (
    MethodDisagreement,
    census,
    enumerate_candidates,
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


def parse_permutation(text: str, m: int) -> Permutation:
    """Parse 'id', cycle notation like '(1 3)(2 4)', or one-line '3,2,1'."""
    text = text.strip()
    if text == "id":
        return Permutation.identity(m)
    if text.startswith("("):
        images = list(range(1, m + 1))
        for cycle in re.findall(r"\(([^)]*)\)", text):
            entries = [int(tok) for tok in cycle.replace(",", " ").split()]
            if any(not 1 <= e <= m for e in entries):
                raise ValueError(f"cycle entry outside 1..{m} in {text!r}")
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
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = json.dumps(data, indent=1, allow_nan=False) + "\n"
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else [[k, v] for k, v in data.items()]
        payload = "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"
    else:
        payload = text
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload)
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
        data.append(
            {
                "m": m,
                "subfactorial": row[1],
                "candidates": row[2],
                "max_equilibria": row[3],
            }
        )
    _emit(args, "\n".join(lines) + "\n", {"rows": data}, rows)
    return PASS


def cmd_construct(args) -> int:
    m = args.m
    v = tuple(int(b) for b in args.v) if args.v else (0,) * m
    if len(v) != m or any(b not in (0, 1) for b in v):
        print(f"error: --v must be a bit string of length {m}", file=sys.stderr)
        return USAGE
    try:
        sigma = _parse_sigma(args.sigma, m)
        ctuple = CharacteristicTuple(v=v, sigma=sigma)
        game = build_product_game(ctuple)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    save_game(game, args.out)
    print(f"wrote {args.out}: m={m} v={''.join(map(str, v))} sigma={args.sigma}")
    return PASS


def _load_product(path) -> ProductTwoActionGame:
    game = load_game(path)
    if not isinstance(game, ProductTwoActionGame):
        raise ValueError("file does not hold an exact-mode product game")
    return game


def cmd_candidates(args) -> int:
    try:
        game = _load_product(args.game)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    entries = []
    lines = []
    for cand in enumerate_candidates(game):
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
    try:
        game = _load_product(args.game)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
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
    return SolverConfig(residual_tol=args.residual_tol, threads=args.threads)


def cmd_solve(args) -> int:
    try:
        game = load_game(args.game)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
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
    try:
        game = _load_product(args.game)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoaction",
        description="Equilibrium counting for m-player games with two actions per player",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_m=False):
        if needs_m:
            p.add_argument("--m", type=positive_int, required=True, help="number of players")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def solver_flags(p):
        p.add_argument("--residual-tol", type=float, default=1e-10)
        p.add_argument("--threads", type=positive_int, default=1)

    def trial_flags(p, default_trials):
        p.add_argument("--trials", type=positive_int, default=default_trials)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", help="print !m, candidate totals and maximal counts")
    common(p, needs_m=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="write a product game file")
    common(p, needs_m=True)
    p.add_argument("--v", default=None, help="sign bit string, e.g. 010 (default all 0)")
    p.add_argument(
        "--sigma",
        default="delta",
        help="'delta', 'id', or per-player permutations separated by ';' "
        "(cycle notation '(1 3)' or one-line '3,2,1')",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("candidates", help="list the equilibrium candidates of a game file")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("classify", help="exact census of a product game file")
    p.add_argument("game")
    common(p)
    p.add_argument("--method", choices=("increment", "sign", "both"), default="both")
    p.add_argument("--expect-maximal", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="numeric support-enumeration solve of a game file")
    p.add_argument("game")
    common(p)
    solver_flags(p)
    p.add_argument("--expect-total", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("deform", help="perturbation stability of a product game file")
    p.add_argument("game")
    common(p)
    solver_flags(p)
    p.add_argument("--epsilon", type=float, default=1e-3)
    trial_flags(p, 20)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("scan", help="inequality scan over random generic games")
    common(p, needs_m=True)
    solver_flags(p)
    trial_flags(p, 100)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "construct" and not args.out:
        print("error: construct requires --out", file=sys.stderr)
        return USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
