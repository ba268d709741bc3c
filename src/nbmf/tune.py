"""Hyperparameter grid search and multi-restart test evaluation.

The protocol: fit once per grid point on the training cells (seed =
``base_seed``), score each fit's perplexity on the validation cells, pick
the argmin, then refit the winner from ``n_restarts`` fresh seeds
(``base_seed + i``) and report the spread of test perplexity as box-plot
statistics.  The fits run one at a time, in grid order, on the calling
thread, each on at most ``n_jobs`` processes (see ``solver.fit``; None is
no cap) and with numpy's OpenBLAS held to one thread, so the table is the
same for any ``n_jobs`` on one machine.

``_scored_rows`` hands each fit the plain train mask through the public
``fit(Y, mask, config)``, inside ``_workers.capping_fit_processes(n_jobs)``,
and calls ``on_row`` with each row as it is made; any error but a fit's
``NumericalError`` (a failed row) ends the search before the next fit.
Each fit prepares its own read-only ``A`` and ``B`` (16 bytes a matrix
cell) and frees them before its score builds the full ``W @ H`` (8 bytes a
cell): a search holds one of the two at a time.  Besides ``A`` and ``B`` a
fit holds its two scratch arrays of one row block: at most 2**17 cells
between them (1 MB) on a matrix up to 2**16 columns wide, however many
rows it has.

:class:`GridSpec` checks the restart count and base seed under their own
names, and its other fit settings by building the
:class:`~nbmf.solver.FitConfig` of every candidate.  This module owns the
columns of the tune tables and the heatmap layout; ``io`` owns the text of
their cells, the JSON of ``boxstats.json`` and the writing of every file.
:meth:`GridResult.to_csv` writes ``grid_result.csv``; a tune checkpoint holds
the same text and a last ``#`` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._workers import _one_blas_thread, capping_fit_processes
from .binmat import _float_setting, _integer_setting
from .errors import ConfigError, NumericalError, SearchError
from .evaluate import _require_disjoint, perplexity
from .io import (_cell_text, _json_text, _meta_bool, _meta_float, _meta_int,
                 _write_text)
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
]

# Ties in validation perplexity closer than this are broken toward the
# cheaper model: smaller rank, then smaller alpha + beta, then smaller alpha.
TIE_TOLERANCE = 1e-12


def _check_restarts(n_restarts, base_seed):
    """The restart count and the base seed as ints, checked under their own names."""
    return (_integer_setting("n_restarts", n_restarts, 1),
            _integer_setting("base_seed", base_seed, 0))


@dataclass(frozen=True)
class GridSpec:
    """The search grid plus the fit settings shared by every candidate.

    An empty axis, a value listed twice on one axis or a setting that no
    :class:`FitConfig` accepts raises :class:`ConfigError` here.
    """

    rank_values: tuple = (2, 4, 8, 16)
    alpha_values: tuple = (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
    beta_values: tuple = (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
    n_restarts: int = 10
    base_seed: int = 0
    tol: float = FitConfig.tol
    max_iter: int = FitConfig.max_iter
    epsilon: float = FitConfig.epsilon

    def __post_init__(self):
        for axis in ("rank_values", "alpha_values", "beta_values"):
            kind = _integer_setting if axis == "rank_values" else _float_setting
            values = tuple(kind(axis, value) for value in getattr(self, axis))
            if not values:
                raise ConfigError(f"{axis} must be nonempty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{axis} lists {value} twice")
            object.__setattr__(self, axis, values)
        n_restarts, base_seed = _check_restarts(self.n_restarts, self.base_seed)
        object.__setattr__(self, "n_restarts", n_restarts)
        object.__setattr__(self, "base_seed", base_seed)
        for point in self.points():
            config = self.fit_config(*point, self.base_seed)
        for name in ("tol", "max_iter", "epsilon"):  # as FitConfig keeps them
            object.__setattr__(self, name, getattr(config, name))

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
    """One fitted candidate.  ``val_perplexity`` is None if the fit failed.
    ``processes`` is the fit's process count: 0 if it failed or was read back."""

    rank: int
    alpha: float
    beta: float
    restart_seed: int
    val_perplexity: float | None
    test_perplexity: float | None
    n_iter: int
    converged: bool
    wall_time: float
    processes: int = 0

    @property
    def key(self):
        return (self.rank, self.alpha, self.beta, self.restart_seed)

    @property
    def failed(self):
        return self.val_perplexity is None and self.test_perplexity is None


def _optional_float(cell):
    return _meta_float(cell) if cell else None


# The columns of grid_result.csv and of its checkpoint, in order, each with
# the parser of its cells: the config grammar, which every cell that
# _cell_text writes matches.  Wall time is left out, so re-running the same
# search writes the same bytes; readers skip columns outside the table, such
# as the wall_time of older checkpoints.
_CSV_COLUMNS = {
    "rank": _meta_int, "alpha": _meta_float, "beta": _meta_float,
    "restart_seed": _meta_int, "val_perplexity": _optional_float,
    "test_perplexity": _optional_float, "n_iter": _meta_int,
    "converged": _meta_bool,
}


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

    def _csv_text(self):
        """The header and one line per fit."""
        rows = [[_cell_text(getattr(row, name)) for name in _CSV_COLUMNS]
                for row in self.rows]
        return "".join(",".join(cells) + "\n" for cells in [_CSV_COLUMNS, *rows])

    def to_csv(self, path):
        """Write the header and one row per fit."""
        _write_text(path, self._csv_text())

    @classmethod
    def from_csv(cls, path):
        """Read a table that :meth:`to_csv` wrote.

        Rows that start with ``#``, as a checkpoint's last line does, are
        skipped.  Raises :class:`ValueError` naming what does not parse: an
        empty header, the columns the header lacks, or the line of a bad row.
        """
        rows = []
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            if header == [""]:
                raise ValueError("the header is empty")
            missing = [name for name in _CSV_COLUMNS if name not in header]
            if missing:
                raise ValueError(f"the header lacks column(s) {', '.join(missing)}")
            fields = [(name, parse, header.index(name))
                      for name, parse in _CSV_COLUMNS.items()]
            for line_no, raw in enumerate(handle, start=2):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"line {line_no}: malformed row, "
                                     f"{len(cells)} fields, not {len(header)}")
                try:
                    values = {name: parse(cells[i]) for name, parse, i in fields}
                except ValueError:
                    raise ValueError(f"line {line_no}: malformed row {line!r}") from None
                rows.append(GridRow(**values, wall_time=0.0))
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
        return None, 0, False, 0.0, 0
    return score, report.n_iter, report.converged, report.wall_time, report.processes


def _scored_rows(Y, train_mask, eval_mask, configs, column, n_jobs, on_row=None):
    """Fit each config and score it on ``eval_mask``; return the rows in
    config order.

    The score goes into the perplexity column named by ``column``, every
    fit runs on at most ``n_jobs`` processes, and ``on_row(row)``, when
    given, is called as each row is made.
    """
    rows = []
    with _one_blas_thread(), capping_fit_processes(n_jobs):
        for config in configs:
            score, n_iter, converged, wall, processes = _fit_and_score(
                Y, train_mask, eval_mask, config)
            scores = {"val_perplexity": None, "test_perplexity": None, column: score}
            rows.append(GridRow(
                rank=config.rank, alpha=config.prior.alpha, beta=config.prior.beta,
                restart_seed=config.seed, **scores, n_iter=n_iter,
                converged=converged, wall_time=wall, processes=processes,
            ))
            if on_row is not None:
                on_row(rows[-1])
    return rows


def grid_search(Y, train_mask, val_mask, grid, n_jobs=None, resume_rows=None,
                on_row=None):
    """Fit every grid point once and pick the validation-perplexity argmin.

    ``n_jobs`` caps the processes of each fit; None is no cap.
    ``resume_rows`` may carry rows from an earlier interrupted run; matching
    grid points are reused instead of refit.  ``on_row(row)`` is called, in
    grid order, for each newly computed row (not for reused ones).

    Returns ``(GridResult, GridRow)`` with the table in grid order and the
    winning row.
    """
    n_jobs = None if n_jobs is None else _integer_setting("n_jobs", n_jobs, 1)
    _require_disjoint(train_mask, val_mask, "train and validation")
    done = {row.key: row for row in (resume_rows or [])}
    keys = [(*point, grid.base_seed) for point in grid.points()]
    pending = [grid.fit_config(*key) for key in keys if key not in done]
    fresh = _scored_rows(Y, train_mask, val_mask, pending, "val_perplexity", n_jobs,
                         on_row)
    done.update((row.key, row) for row in fresh)
    result = GridResult(tuple(done[key] for key in keys))
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
        return _json_text(self.to_dict())


def test_evaluation(Y, train_mask, test_mask, config, n_restarts=10, base_seed=0,
                    n_jobs=None):
    """Refit one configuration from ``n_restarts`` seeds; score on test cells.

    ``config`` supplies rank, prior, and stopping settings; its seed is
    ignored and replaced by ``base_seed + i`` for restart i.  ``n_jobs`` is
    as in :func:`grid_search`.  Quartiles use numpy's linear interpolation.
    """
    n_restarts, base_seed = _check_restarts(n_restarts, base_seed)
    n_jobs = None if n_jobs is None else _integer_setting("n_jobs", n_jobs, 1)
    _require_disjoint(train_mask, test_mask, "train and test")
    restarts = [replace(config, seed=base_seed + i) for i in range(n_restarts)]
    rows = tuple(
        _scored_rows(Y, train_mask, test_mask, restarts, "test_perplexity", n_jobs)
    )
    values = [row.test_perplexity for row in rows if row.test_perplexity is not None]
    if not values:
        raise SearchError("every restart failed")
    return TestEvaluation(rows=rows, stats=BoxStats.from_values(values))


def export_heatmap(results, rank, path):
    """Write validation perplexity as a CSV matrix for one rank.

    Alpha values index the rows and beta values the columns; each cell holds
    the mean over the non-failed restarts at that grid point.  Combinations
    absent from the results stay empty.  Raises :class:`KeyError` for a rank
    that never appears in the results.
    """
    matching = [row for row in results if row.rank == rank]
    if not matching:
        raise KeyError(f"rank {rank} does not appear in the results")
    alphas = sorted({row.alpha for row in matching})
    betas = sorted({row.beta for row in matching})

    lines = ["alpha\\beta," + ",".join(map(_cell_text, betas))]
    for alpha in alphas:
        cells = [alpha]
        for beta in betas:
            values = [
                row.val_perplexity
                for row in matching
                if row.alpha == alpha and row.beta == beta
                and row.val_perplexity is not None
            ]
            cells.append(float(np.mean(values)) if values else None)
        lines.append(",".join(map(_cell_text, cells)))
    _write_text(path, "\n".join(lines) + "\n")
