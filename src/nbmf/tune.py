"""Hyperparameter grid search and multi-restart test evaluation.

The protocol: fit once per grid point on the training cells (seed =
``base_seed``), score each fit's perplexity on the validation cells, pick
the argmin, then refit the winner from ``n_restarts`` fresh seeds
(``base_seed + i``) and report the spread of test perplexity as box-plot
statistics.  Grid points are independent jobs and may run on a thread pool;
the result table is always assembled in grid order, and reruns with the same
worker count are identical.  Across worker counts the last bits can differ
on matrices large enough for multi-threaded BLAS, because the pool changes
how many threads numpy's OpenBLAS uses per product (see ``_run_jobs``).
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, SearchError
from .evaluate import perplexity
from .solver import BetaPrior, FitConfig, fit, reconstruct

__all__ = [
    "GridSpec",
    "GridRow",
    "GridResult",
    "BoxStats",
    "TestEvaluation",
    "best_row",
    "grid_search",
    "test_evaluation",
    "export_heatmap",
    "append_csv_row",
]

# Ties in validation perplexity closer than this are broken toward the
# cheaper model: smaller rank, then smaller alpha + beta, then smaller alpha.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """The search grid plus the fit settings shared by every candidate."""

    rank_values: tuple = (2, 4, 8, 16)
    alpha_values: tuple = (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
    beta_values: tuple = (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
    n_restarts: int = 10
    base_seed: int = 0
    tol: float = 1e-5
    max_iter: int = 2000
    epsilon: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "rank_values", tuple(int(k) for k in self.rank_values))
        object.__setattr__(
            self, "alpha_values", tuple(float(a) for a in self.alpha_values)
        )
        object.__setattr__(
            self, "beta_values", tuple(float(b) for b in self.beta_values)
        )
        if not self.rank_values or not self.alpha_values or not self.beta_values:
            raise ConfigError("grid axes must be nonempty")
        if min(self.rank_values) < 1:
            raise ConfigError("ranks must be >= 1")
        if min(self.alpha_values) < 1.0 or min(self.beta_values) < 1.0:
            raise ConfigError("alpha and beta grid values must be >= 1")
        if self.n_restarts < 1:
            raise ConfigError("n_restarts must be >= 1")

    def points(self):
        """Grid points in deterministic (rank, alpha, beta) order."""
        return [
            (k, a, b)
            for k in self.rank_values
            for a in self.alpha_values
            for b in self.beta_values
        ]

    def fit_config(self, rank, alpha, beta, seed):
        return FitConfig(
            rank=rank,
            prior=BetaPrior(alpha, beta),
            tol=self.tol,
            max_iter=self.max_iter,
            epsilon=self.epsilon,
            seed=seed,
        )


@dataclass(frozen=True)
class GridRow:
    """One fitted candidate.  ``val_perplexity`` is None if the fit failed."""

    rank: int
    alpha: float
    beta: float
    restart_seed: int
    val_perplexity: float | None
    test_perplexity: float | None
    n_iter: int
    converged: bool
    wall_time: float

    @property
    def key(self):
        return (self.rank, self.alpha, self.beta, self.restart_seed)

    @property
    def failed(self):
        return self.val_perplexity is None and self.test_perplexity is None


_CSV_COLUMNS = (
    "rank", "alpha", "beta", "restart_seed",
    "val_perplexity", "test_perplexity", "n_iter", "converged",
)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_columns(include_wall_time):
    return _CSV_COLUMNS + (("wall_time",) if include_wall_time else ())


def _csv_line(values):
    return ",".join(values) + "\n"


def _row_line(row, columns):
    return _csv_line(_format_cell(getattr(row, column)) for column in columns)


def append_csv_row(path, row):
    """Append one row, with wall time, to a checkpoint CSV.

    A missing file is created with its header first.  The bytes equal those
    :meth:`GridResult.to_csv` writes with ``include_wall_time=True``.
    """
    columns = _csv_columns(include_wall_time=True)
    path = Path(path)
    fresh = not path.is_file()
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        if fresh:
            handle.write(_csv_line(columns))
        handle.write(_row_line(row, columns))


@dataclass(frozen=True)
class GridResult:
    """An ordered table of :class:`GridRow` entries."""

    rows: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_csv(self, path, include_wall_time=False):
        """Write one row per fit.

        Wall time is excluded by default so that re-running the same search
        produces a byte-identical file; pass ``include_wall_time=True`` for
        working files (for example resume checkpoints).
        """
        columns = _csv_columns(include_wall_time)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(_csv_line(columns))
            for row in self.rows:
                handle.write(_row_line(row, columns))

    @classmethod
    def from_csv(cls, path):
        path = Path(path)
        rows = []
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                values = dict(zip(header, line.split(",")))
                rows.append(
                    GridRow(
                        rank=int(values["rank"]),
                        alpha=float(values["alpha"]),
                        beta=float(values["beta"]),
                        restart_seed=int(values["restart_seed"]),
                        val_perplexity=(
                            float(values["val_perplexity"])
                            if values["val_perplexity"] else None
                        ),
                        test_perplexity=(
                            float(values["test_perplexity"])
                            if values["test_perplexity"] else None
                        ),
                        n_iter=int(values["n_iter"]),
                        converged=values["converged"] == "true",
                        wall_time=float(values.get("wall_time") or 0.0),
                    )
                )
        return cls(tuple(rows))


def best_row(rows):
    """Argmin of validation perplexity over the non-failed rows.

    Rows within :data:`TIE_TOLERANCE` of the minimum count as tied and the
    tie goes to the smallest rank, then smallest alpha + beta, then smallest
    alpha.  Raises :class:`SearchError` when no row has a finite score.
    """
    scored = [
        row for row in rows
        if row.val_perplexity is not None and np.isfinite(row.val_perplexity)
    ]
    if not scored:
        raise SearchError("every grid point failed")
    minimum = min(row.val_perplexity for row in scored)
    tied = [row for row in scored if row.val_perplexity <= minimum + TIE_TOLERANCE]
    return min(tied, key=lambda row: (row.rank, row.alpha + row.beta, row.alpha))


def _fit_and_score(Y, train_mask, eval_mask, config):
    """Fit one candidate and score it on ``eval_mask``; None marks failure."""
    try:
        factors, report = fit(Y, train_mask, config)
        score = perplexity(Y, eval_mask, reconstruct(factors)).value
    except NumericalError:
        return None, 0, False, 0.0
    return score, report.n_iter, report.converged, report.wall_time


@functools.cache
def _openblas_thread_calls():
    """``(get, set)`` thread-count calls of numpy's bundled OpenBLAS, or None.

    Only a library the process has already loaded is opened, so a numpy
    built against another BLAS loads nothing here.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _blas_threads_at_most(limit):
    """Hold numpy's OpenBLAS to at most ``limit`` threads inside the block.

    The thread count is process-wide; it is restored on exit.  Without the
    bundled OpenBLAS this does nothing.
    """
    calls = _openblas_thread_calls()
    before = calls[0]() if calls else limit
    if before > limit:
        calls[1](limit)
    try:
        yield
    finally:
        if before > limit:
            calls[1](before)


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs, n_jobs):
    """Evaluate thunks, preserving submission order in the results.

    While more than one worker thread runs, numpy's OpenBLAS is held to
    about cpus / workers threads, so the workers' matrix products share the
    cores instead of each spreading over all of them.  Callers exhaust the
    generator (``zip(..., strict=True)``), which shuts the pool and lifts
    the bound before they go on.
    """
    workers = min(n_jobs, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield job()
        return
    with _blas_threads_at_most(max(1, _cpu_count() // workers)), \
            ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        for future in futures:
            yield future.result()


def grid_search(Y, train_mask, val_mask, grid, n_jobs=1, resume_rows=None,
                on_row=None):
    """Fit every grid point once and pick the validation-perplexity argmin.

    ``resume_rows`` may carry rows from an earlier interrupted run; matching
    grid points are reused instead of refit.  ``on_row(row)`` is called, in
    grid order, for each newly computed row (not for reused ones).

    Returns ``(GridResult, GridRow)`` with the table in grid order and the
    winning row.
    """
    overlap = train_mask.shared_cells(val_mask)
    if overlap:
        raise ConfigError(f"train and validation masks overlap on {overlap} cells")
    done = {row.key: row for row in (resume_rows or [])}

    points = grid.points()
    pending = []
    for (rank, alpha, beta) in points:
        key = (rank, alpha, beta, grid.base_seed)
        if key not in done:
            config = grid.fit_config(rank, alpha, beta, grid.base_seed)
            pending.append(
                (key, lambda cfg=config: _fit_and_score(Y, train_mask, val_mask, cfg))
            )

    fresh = {}
    outcomes = _run_jobs([job for _, job in pending], n_jobs)
    for (key, _), (score, n_iter, converged, wall) in zip(
        pending, outcomes, strict=True
    ):
        row = GridRow(
            rank=key[0], alpha=key[1], beta=key[2], restart_seed=key[3],
            val_perplexity=score, test_perplexity=None,
            n_iter=n_iter, converged=converged, wall_time=wall,
        )
        fresh[key] = row
        if on_row is not None:
            on_row(row)

    rows = []
    for (rank, alpha, beta) in points:
        key = (rank, alpha, beta, grid.base_seed)
        rows.append(done.get(key) or fresh[key])
    result = GridResult(tuple(rows))
    return result, best_row(result.rows)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary of per-restart test perplexity."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        return cls(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
        )

    def to_dict(self):
        return {
            "min": self.minimum, "q1": self.q1, "median": self.median,
            "q3": self.q3, "max": self.maximum,
        }


@dataclass(frozen=True)
class TestEvaluation:
    """Per-restart test rows for one configuration plus their box stats."""

    rows: tuple
    stats: BoxStats

    def to_dict(self):
        first = self.rows[0]
        return {
            "rank": first.rank,
            "alpha": first.alpha,
            "beta": first.beta,
            "restart_seeds": [row.restart_seed for row in self.rows],
            "test_perplexities": [row.test_perplexity for row in self.rows],
            "stats": self.stats.to_dict(),
            "total_wall_time": sum(row.wall_time for row in self.rows),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def test_evaluation(Y, train_mask, test_mask, config, n_restarts=10, base_seed=0,
                    n_jobs=1):
    """Refit one configuration from ``n_restarts`` seeds; score on test cells.

    ``config`` supplies rank, prior, and stopping settings; its seed is
    ignored and replaced by ``base_seed + i`` for restart i.  Quartiles use
    numpy's default linear interpolation.
    """
    if n_restarts < 1:
        raise ConfigError("n_restarts must be >= 1")
    seeds = [base_seed + i for i in range(n_restarts)]
    jobs = [
        (
            seed,
            lambda s=seed: _fit_and_score(
                Y, train_mask, test_mask, replace(config, seed=s)
            ),
        )
        for seed in seeds
    ]
    rows = []
    outcomes = _run_jobs([job for _, job in jobs], n_jobs)
    for (seed, _), (score, n_iter, converged, wall) in zip(
        jobs, outcomes, strict=True
    ):
        rows.append(
            GridRow(
                rank=config.rank, alpha=config.prior.alpha, beta=config.prior.beta,
                restart_seed=seed, val_perplexity=None, test_perplexity=score,
                n_iter=n_iter, converged=converged, wall_time=wall,
            )
        )
    values = [row.test_perplexity for row in rows if row.test_perplexity is not None]
    if not values:
        raise SearchError("every restart failed")
    return TestEvaluation(rows=tuple(rows), stats=BoxStats.from_values(values))


def export_heatmap(results, rank, path, aggregate="mean"):
    """Write validation perplexity as a CSV matrix for one rank.

    Alpha values index the rows and beta values the columns; each cell
    aggregates the non-failed restarts at that grid point (mean by default,
    median via ``aggregate="median"``).  Combinations absent from the
    results stay empty.  Raises :class:`KeyError` for a rank that never
    appears in the results.
    """
    if aggregate not in ("mean", "median"):
        raise ConfigError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    matching = [row for row in results if row.rank == rank]
    if not matching:
        raise KeyError(f"rank {rank} does not appear in the results")
    alphas = sorted({row.alpha for row in matching})
    betas = sorted({row.beta for row in matching})
    combine = np.mean if aggregate == "mean" else np.median

    lines = ["alpha\\beta," + ",".join(repr(b) for b in betas)]
    for alpha in alphas:
        cells = [repr(alpha)]
        for beta in betas:
            values = [
                row.val_perplexity
                for row in matching
                if row.alpha == alpha and row.beta == beta
                and row.val_perplexity is not None
            ]
            cells.append(repr(float(combine(values))) if values else "")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
