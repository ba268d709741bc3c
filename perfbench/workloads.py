"""The benchmark's workloads: inputs, one operation, output checks, traced replay.

Each workload builds its inputs from the benchmark seed with
``nbmf.planted_dataset`` and hands the program under test only the generated
coordinate file and INI config (CLI workloads) or the in-memory matrix and
masks (library workload).  One operation is the unit the closed-loop client
repeats; every repetition does the same work on the same inputs, so its
outputs must match the first repetition's byte for byte.

``op`` runs the operation as a user would and returns its end-to-end values.
``replay`` performs the same steps through the public library calls inside a
:class:`tracing.Tracer` and returns the work counts that spans cannot see.
Both raise :class:`CheckFailed` when an output check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import nbmf
from nbmf.cli import COMPLETION_CSV, COMPLETION_JSON, GRID_CSV, HEATMAP_CSV, \
    MASK_FILES, REPORT_JSON
from nbmf.io import H_FILE, META_FILE, W_FILE

DATA_FILE = "data.txt"
CONFIG_FILE = "run.ini"
WORKER_RESULT = "result.json"
PROCESS_TIMEOUT_S = 150
# A sweep may raise the objective by rounding only: at most this share of it.
MONOTONE_RTOL = 1e-12


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def check_descent(report, what):
    trace = report.objective_trace
    for sweep, (before, after) in enumerate(zip(trace, trace[1:]), start=1):
        if after - before > MONOTONE_RTOL * abs(before):
            raise CheckFailed(
                f"{what}: objective rose at sweep {sweep}: {before!r} -> {after!r}"
            )


def check_factors(factors, epsilon, what):
    try:
        factors.validate(epsilon)
    except ValueError as exc:
        raise CheckFailed(f"{what}: {exc}") from None


def file_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def check_same(reference, actual, what):
    for name, expected in reference.items():
        if actual.get(name) != expected:
            raise CheckFailed(f"{what}: {name} differs from the first operation")


def total_bytes(files):
    return sum(len(data) for data in files.values())


class Workload:
    """Shared plumbing; subclasses define the inputs and the operation."""

    name = ""
    # Files the program promises to rewrite byte-identically at one seed.
    identical_files = ()

    def __init__(self, seed, work_dir, src_dir):
        self.seed = seed
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(src_dir) + (os.pathsep + path if path else ""),
        )
        self.reference = None

    def cli(self, *args):
        """Run one ``nbmf`` command; see :meth:`spawn`."""
        return self.spawn([sys.executable, "-m", "nbmf.cli", *args])

    def spawn(self, argv):
        """Run one process to completion.

        Returns its wall time and its peak RSS in MB, which ``os.wait4``
        reports for that process alone (Linux counts in KiB).
        """
        with open(self.work / "process.log", "w+", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=log,
                stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                log.seek(0)
                raise CheckFailed(
                    f"{' '.join(argv[1:4])} exited {proc.returncode}: "
                    f"{log.read()[-400:]}"
                )
        return elapsed, usage.ru_maxrss / 1024.0

    def write_inputs(self, matrix, config_text):
        nbmf.save_coordinate_file(matrix, self.work / DATA_FILE)
        (self.work / CONFIG_FILE).write_text(config_text, encoding="utf-8")

    def keep_or_compare(self, files, what):
        """The first operation's files become the reference for the rest."""
        if self.reference is None:
            self.reference = files
        else:
            check_same(self.reference, files, what)

    def replayed(self, Y, train, **counts):
        """Keep a replay's inputs for :meth:`probe`; return its work counts."""
        self.probe_inputs = (Y, train)
        return {"binmat.ones": len(Y.ones), "binmat.train_cells": train.n_cells,
                **counts}

    def probe(self, tracer):
        """Time the public sweep wrappers once each on the replayed inputs.

        ``fit`` does not call them, so they get a call of their own, from
        fresh factors of the workload's rank and prior.
        """
        Y, train = self.probe_inputs
        prior = nbmf.BetaPrior(*self.fit_prior)
        factors = nbmf.init_factors(Y.n_rows, Y.n_cols, self.rank, seed=self.seed)
        with tracer.span("bench.probe"):
            nbmf.update_h(Y, train, factors, prior)
            nbmf.update_w(Y, train, factors)
            nbmf.objective(Y, train, factors, prior)


class CliFitEval(Workload):
    """``nbmf fit`` for a fixed 40 sweeps, then ``nbmf eval``, on sparse data."""

    name = "cli-fit-eval"
    shape = (1000, 1000)
    rank = 8
    h_prior = (1.0, 9.0)          # density about 0.1
    fit_prior = (3.0, 3.0)
    sweeps = 40
    identical_files = (
        W_FILE, H_FILE, META_FILE,
        *MASK_FILES.values(), COMPLETION_JSON, COMPLETION_CSV,
    )

    def setup(self):
        self.Y, _, _ = nbmf.planted_dataset(
            *self.shape, self.rank, *self.h_prior, seed=self.seed
        )
        alpha, beta = self.fit_prior
        # tol is below any relative change a sweep can make, so every fit
        # runs to the sweep cap.
        self.write_inputs(self.Y, (
            f"[run]\ndataset = {DATA_FILE}\n"
            f"[split]\nseed = {self.seed}\n"
            f"[fit]\nrank = {self.rank}\nalpha = {alpha}\nbeta = {beta}\n"
            f"tol = 1e-15\nmax_iter = {self.sweeps}\nseed = {self.seed}\n"
        ))

    def fit_config(self):
        return nbmf.FitConfig(
            rank=self.rank, prior=nbmf.BetaPrior(*self.fit_prior), tol=1e-15,
            max_iter=self.sweeps, seed=self.seed,
        )

    def check_outputs(self, out, report, what):
        """Checks shared by the CLI run and the replay.

        Returns eval's validation score and the bytes of the checked files.
        """
        check_descent(report, what)
        if report.n_iter != self.sweeps or report.converged:
            raise CheckFailed(f"{what}: ran {report.n_iter} sweeps, not {self.sweeps}")
        files = file_bytes(out, self.identical_files)
        if self.reference is None:
            factors, meta = nbmf.read_factors(out)
            check_factors(factors, meta["epsilon"], what)
            val_mask = nbmf.load_mask(out / MASK_FILES["val"])
            expected = nbmf.perplexity(
                self.Y, val_mask, nbmf.reconstruct(factors)
            ).value
            reported = json.loads(files[COMPLETION_JSON])["validation"]["perplexity"]
            if reported != expected:
                raise CheckFailed(
                    f"{what}: eval reports {reported!r}, perplexity gives {expected!r}"
                )
        self.keep_or_compare(files, what)
        return (
            json.loads(files[COMPLETION_JSON])["validation"]["perplexity"],
            total_bytes(files),
        )

    def op(self, index):
        out = f"out{index}"
        args = ("--config", CONFIG_FILE, "--out", out)
        fit_s, fit_rss = self.cli("fit", *args)
        eval_s, eval_rss = self.cli("eval", *args)
        report = nbmf.read_report(self.work / out / REPORT_JSON)
        val, _ = self.check_outputs(self.work / out, report, f"operation {index}")
        shutil.rmtree(self.work / out)
        return {
            "wall_s": fit_s + eval_s, "fit_cli_s": fit_s, "eval_cli_s": eval_s,
            "val_perplexity": val, "peak_rss_mb": max(fit_rss, eval_rss),
        }

    def replay(self, index, tracer):
        out = self.work / f"trace{index}"
        config = self.fit_config()
        data = self.work / DATA_FILE
        with tracer.span("bench.op"):
            # nbmf fit
            Y = nbmf.load_coordinate_file(data)
            train, val, test = nbmf.split_observations(
                Y, nbmf.SplitSpec(seed=self.seed)
            )
            factors, report = nbmf.fit(Y, train, config)
            nbmf.write_factors(
                out, factors, alpha=config.prior.alpha, beta=config.prior.beta,
                epsilon=config.epsilon, seed=config.seed, converged=report.converged,
            )
            nbmf.write_report(out / REPORT_JSON, report)
            for name, mask in (("train", train), ("val", val), ("test", test)):
                nbmf.save_mask(mask, out / MASK_FILES[name])
            # nbmf eval
            Y = nbmf.load_coordinate_file(data)
            factors, _ = nbmf.read_factors(out)
            _, val, test = (
                nbmf.load_mask(out / MASK_FILES[name])
                for name in ("train", "val", "test")
            )
            completion = nbmf.completion_report(
                Y, val, test, nbmf.predict_from_factors(factors)
            )
            (out / COMPLETION_JSON).write_text(
                completion.to_json() + "\n", encoding="utf-8"
            )
            (out / COMPLETION_CSV).write_text(
                completion.CSV_HEADER + "\n" + completion.to_csv_row() + "\n",
                encoding="utf-8",
            )
        _, written = self.check_outputs(out, report, f"replay {index}")
        shutil.rmtree(out)
        return self.replayed(Y, train, **{"io.bytes_written": written})


class FitConverge(Workload):
    """``nbmf.fit`` to the paper tolerance, then validation perplexity.

    Each untraced operation runs in a fresh process (:func:`fit_worker`),
    which builds the same inputs untimed and then times the two calls.  The
    speed of pure-Python code differs by up to a fifth from one process to
    the next on the same machine, so one process per operation lets the
    median average that out, as it does for the CLI workloads.
    """

    name = "fit-converge"
    shape = (600, 900)
    rank = 8
    h_prior = (0.5, 0.5)          # density about 0.5
    fit_prior = (3.0, 3.0)

    @classmethod
    def inputs(cls, seed):
        Y, _, _ = nbmf.planted_dataset(*cls.shape, cls.rank, *cls.h_prior, seed=seed)
        train, val, _ = nbmf.split_observations(Y, nbmf.SplitSpec(seed=seed))
        return Y, train, val

    @classmethod
    def fit_config(cls, seed):
        return nbmf.FitConfig(
            rank=cls.rank, prior=nbmf.BetaPrior(*cls.fit_prior), tol=1e-5,
            max_iter=2000, seed=seed,
        )

    @staticmethod
    def fit_and_score(Y, train, val, config):
        """Returns factors, report, score, time to tol and wall time."""
        start = time.perf_counter()
        factors, report = nbmf.fit(Y, train, config)
        fitted = time.perf_counter()
        score = nbmf.perplexity(Y, val, nbmf.reconstruct(factors)).value
        end = time.perf_counter()
        return factors, report, score, fitted - start, end - start

    def setup(self):
        self.Y, self.train, self.val = self.inputs(self.seed)

    def check(self, factors, report, score, what):
        if not report.converged:
            raise CheckFailed(f"{what}: no convergence in {report.n_iter} sweeps")
        check_descent(report, what)
        check_factors(factors, self.fit_config(self.seed).epsilon, what)
        self.keep_or_compare({
            "W": factors.W.tobytes(), "H": factors.H.tobytes(),
            "score": repr(score).encode(), "sweeps": str(report.n_iter).encode(),
        }, what)

    def op(self, index):
        out = self.work / f"fit{index}"
        _, rss = self.spawn([sys.executable, __file__, str(self.seed), str(out)])
        result = json.loads((out / WORKER_RESULT).read_text(encoding="utf-8"))
        factors = nbmf.FactorPair(np.load(out / "W.npy"), np.load(out / "H.npy"))
        report = nbmf.FitReport.from_dict(result["report"])
        self.check(factors, report, result["score"], f"operation {index}")
        shutil.rmtree(out)
        return {
            "wall_s": result["wall_s"], "time_to_tol_s": result["time_to_tol_s"],
            "val_perplexity": result["score"], "sweeps_to_tol": report.n_iter,
            "peak_rss_mb": rss,
        }

    def replay(self, index, tracer):
        with tracer.span("bench.op"):
            factors, report, score, _, _ = self.fit_and_score(
                self.Y, self.train, self.val, self.fit_config(self.seed)
            )
        self.check(factors, report, score, f"replay {index}")
        return self.replayed(self.Y, self.train)


def fit_worker(seed, out):
    """One untraced fit-converge operation; writes its results under ``out``."""
    Y, train, val = FitConverge.inputs(seed)
    factors, report, score, to_tol, wall = FitConverge.fit_and_score(
        Y, train, val, FitConverge.fit_config(seed)
    )
    out.mkdir(parents=True)
    np.save(out / "W.npy", factors.W)
    np.save(out / "H.npy", factors.H)
    (out / WORKER_RESULT).write_text(json.dumps({
        "report": report.to_dict(), "score": score,
        "time_to_tol_s": to_tol, "wall_s": wall,
    }), encoding="utf-8")


class TuneGrid(Workload):
    """``nbmf tune --jobs 2`` over a 2x2x2 grid with 4 restarts.

    Every fit runs a fixed number of sweeps.  At the paper tolerance the
    total sweep count of the search varies by about a tenth between seeds,
    which would hide pool and densify effects of that size; fit-converge
    measures the time to the tolerance.
    """

    name = "tune-grid"
    shape = (250, 400)
    rank = 8
    h_prior = (0.5, 0.5)
    fit_prior = (3.0, 3.0)      # the probe's prior; the grid sets the fits'
    sweeps = 150
    ranks = (4, 8)
    alphas = (1.0, 3.0)
    betas = (1.0, 3.0)
    restarts = 4
    jobs = 2
    identical_files = (GRID_CSV, HEATMAP_CSV)

    def setup(self):
        self.Y, _, _ = nbmf.planted_dataset(
            *self.shape, self.rank, *self.h_prior, seed=self.seed
        )
        self.write_inputs(self.Y, (
            f"[run]\ndataset = {DATA_FILE}\n"
            f"[split]\nseed = {self.seed}\n"
            f"[tune]\nrank_values = {' '.join(map(str, self.ranks))}\n"
            f"alpha_values = {' '.join(map(str, self.alphas))}\n"
            f"beta_values = {' '.join(map(str, self.betas))}\n"
            f"n_restarts = {self.restarts}\nbase_seed = {self.seed}\n"
            f"tol = 1e-15\nmax_iter = {self.sweeps}\n"
        ))

    def grid(self):
        return nbmf.GridSpec(
            rank_values=self.ranks, alpha_values=self.alphas,
            beta_values=self.betas, n_restarts=self.restarts,
            base_seed=self.seed, tol=1e-15, max_iter=self.sweeps,
        )

    def check_outputs(self, out, test_perplexities, what):
        """Returns the winner's validation score and the bytes checked."""
        rows = nbmf.GridResult.from_csv(out / GRID_CSV).rows
        n_points = len(self.grid().points())
        if len(rows) != n_points or any(row.failed for row in rows):
            raise CheckFailed(f"{what}: grid has failed or missing points")
        if any(row.n_iter != self.sweeps for row in rows):
            raise CheckFailed(f"{what}: a grid fit did not run {self.sweeps} sweeps")
        if len(test_perplexities) != self.restarts or None in test_perplexities:
            raise CheckFailed(f"{what}: a test restart failed")
        files = file_bytes(out, self.identical_files)
        written = total_bytes(files)
        files["test_perplexities"] = repr(test_perplexities).encode()
        self.keep_or_compare(files, what)
        return nbmf.best_row(rows).val_perplexity, written

    def op(self, index):
        out = self.work / f"out{index}"
        wall, rss = self.cli(
            "tune", "--jobs", str(self.jobs), "--config", CONFIG_FILE,
            "--out", out.name,
        )
        stats = json.loads((out / "boxstats.json").read_text(encoding="utf-8"))
        score, _ = self.check_outputs(
            out, stats["test_perplexities"], f"operation {index}"
        )
        shutil.rmtree(out)
        return {
            "wall_s": wall, "tune_cli_s": wall, "val_perplexity": score,
            "peak_rss_mb": rss,
        }

    def replay(self, index, tracer):
        out = self.work / f"trace{index}"
        out.mkdir()
        grid = self.grid()
        with tracer.span("bench.op"):
            Y = nbmf.load_coordinate_file(self.work / DATA_FILE)
            train, val, test = nbmf.split_observations(
                Y, nbmf.SplitSpec(seed=self.seed)
            )
            pool_start = time.perf_counter()
            results, best = nbmf.grid_search(Y, train, val, grid, n_jobs=self.jobs)
            evaluation = nbmf.test_evaluation(
                Y, train, test, grid.fit_config(best.rank, best.alpha, best.beta, 0),
                n_restarts=grid.n_restarts, base_seed=grid.base_seed,
                n_jobs=self.jobs,
            )
            pool_s = time.perf_counter() - pool_start
            results.to_csv(out / GRID_CSV)
            nbmf.export_heatmap(results, best.rank, out / HEATMAP_CSV)
            (out / "boxstats.json").write_text(
                evaluation.to_json() + "\n", encoding="utf-8"
            )
        _, written = self.check_outputs(
            out, [row.test_perplexity for row in evaluation.rows], f"replay {index}"
        )
        shutil.rmtree(out)
        fits = results.rows + evaluation.rows
        busy = sum(row.wall_time for row in fits)
        return self.replayed(Y, train, **{
            "io.bytes_written": written,
            "tune.fits": len(fits),
            "tune.failed_fits": sum(row.failed for row in fits),
            "tune.fit_busy_s": busy,
            "tune.pool_efficiency": busy / (pool_s * self.jobs),
        })


WORKLOADS = {cls.name: cls for cls in (CliFitEval, FitConverge, TuneGrid)}


if __name__ == "__main__":
    fit_worker(int(sys.argv[1]), Path(sys.argv[2]))
