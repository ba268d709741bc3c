"""The benchmark's traced mode still finds every call it wraps.

``perfbench/tracing.py`` replaces the public nbmf functions named in its
``TRACED`` table with recording wrappers, and ``perfbench/run.py --trace 1``
fails when a layer metric has no span.  These tests read that table (the
benchmark files are not changed here) and check that every target still
exists, that ``completion_report`` still calls the two traced functions
its layer metrics come from, and that a grid search with its restarts still
calls ``fit``, ``perplexity`` and ``to_dense`` through the traced names.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nbmf
from nbmf import SplitSpec, random_binary_matrix, split_observations

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TRACED))
def test_traced_target_resolves(name):
    module_name, path = tracing.TRACED[name]
    target = importlib.import_module(module_name)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_completion_report_reaches_traced_calls():
    Y = random_binary_matrix(6, 7, 0.4, seed=0)
    _, val, test = split_observations(Y, SplitSpec(seed=1))
    pred = np.full(Y.shape, 0.3)
    with tracing.Tracer() as tracer:
        # looked up inside the block, where the tracer has wrapped it
        nbmf.completion_report(Y, val, test, pred)
    (report,) = [s for s in tracer.spans if s.name == "evaluate.completion_report"]
    below = {s.name for s in tracer.spans if s.parent == report.id}
    assert "evaluate.perplexity" in below
    reached = {s.name for s in tracer.spans if s.id != report.id}
    assert "binmat.ObservationMask.indices" in reached


def test_tune_reaches_traced_calls():
    # the traced tune-grid workload feeds its solver and evaluate metrics
    # from these spans, and binmat.to_dense from the preparation of the
    # train cells in each fit
    Y, _, _ = nbmf.planted_dataset(24, 18, 2, seed=1)
    train, val, test = split_observations(Y, SplitSpec(seed=5))
    grid = nbmf.GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                         beta_values=(1.0,), n_restarts=3, max_iter=20)
    with tracing.Tracer() as tracer:
        results, best = nbmf.grid_search(Y, train, val, grid, n_jobs=2)
        evaluation = nbmf.test_evaluation(
            Y, train, test, grid.fit_config(best.rank, best.alpha, best.beta, 0),
            n_restarts=grid.n_restarts, n_jobs=2,
        )
    n_fits = len(results) + len(evaluation.rows)
    names = [span.name for span in tracer.spans]
    assert names.count("solver.fit") == n_fits == 7
    assert names.count("evaluate.perplexity") == n_fits
    assert any(name.endswith(".to_dense") for name in names)
