"""The library names the benchmark in perfbench/ patches and reads still exist.

The benchmark wraps entry points on several modules and reads report
fields; a library change that drops one breaks every benchmark run, so it
is caught here first.  Nothing under perfbench/ is changed or run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from twoaction import candidate_engine, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # workloads builds its SolverConfig(threads=1) at import
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_patched_entry_points_exist(perfbench):
    _, tracing = perfbench
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing._targets()
        if not hasattr(module, attr)
    ]
    missing += [name for name in tracing.LEAVES if not hasattr(candidate_engine, name)]
    assert missing == []


def test_report_fields_the_benchmark_reads(perfbench):
    workloads, _ = perfbench
    assert workloads.SOLVER_CONFIG.threads == 1
    assert solver.scan_inequalities(2, 1, 0, workloads.SOLVER_CONFIG).regenerations == 0
    game = solver.random_generic_game(3, np.random.default_rng(0))
    stats = solver.solve_all(game, workloads.SOLVER_CONFIG).stats
    assert {"starts", "converged", "degenerate_supports"} <= stats.keys()
