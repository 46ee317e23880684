"""The library names the benchmark in perfbench/ patches and reads still exist.

The benchmark wraps entry points on several modules and reads report
fields; a library change that drops one breaks every benchmark run, so it
is caught here first.  Nothing under perfbench/ is changed or run.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from twoaction import candidate_engine, kernel, solver
from twoaction.game_model import maximal_game

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


def test_call_shapes_the_benchmark_binds(monkeypatch):
    # tracing._after_kernel and workloads.kernel_per_class bind the kernel's
    # arguments as (m, v, sigma) by position; workloads.streaming_per_class
    # bypasses the kernel through census(..., use_kernel=False)
    params = list(inspect.signature(kernel.census_increment).parameters.values())
    assert [p.name for p in params] == ["m", "v", "sigma"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert "use_kernel" in inspect.signature(candidate_engine.census).parameters

    calls = []
    real = kernel.census_increment

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "census_increment", spy)
    candidate_engine.census(maximal_game(3), "increment")
    candidate_engine.census(maximal_game(3), "increment", use_kernel=False)
    assert calls == [(3, {})]


def test_classifier_leaves_run_once_per_block(monkeypatch):
    # tracing.LEAVES wraps the two routes as module attributes, and counts
    # on census reaching them through the module once per candidate block
    calls = {}
    for name in ("classify_by_increment", "classify_by_sign"):
        real = getattr(candidate_engine, name)

        def counted(masks, block, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(masks, block)

        monkeypatch.setattr(candidate_engine, name, counted)
    m = 7
    candidate_engine.census(maximal_game(m), "both")
    blocks = sum(1 for _ in candidate_engine.candidate_blocks(m))
    assert blocks > 1
    assert calls == {"classify_by_increment": blocks, "classify_by_sign": blocks}


def test_equilibria_items_give_float_coordinates():
    # solve-m5's answer key is [cand.gamma_floats() for cand in equilibria(game, "both")]
    game = maximal_game(3)
    points = [cand.gamma_floats() for cand in candidate_engine.equilibria(game, "both")]
    assert len(points) == 9
    assert all(len(p) == 3 and all(type(x) is float for x in p) for p in points)
