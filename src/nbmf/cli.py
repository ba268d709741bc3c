"""Command-line entry point: config-driven fit / eval / tune / report runs.

Runs are described by a flat INI config (sections ``[run]``, ``[split]``,
``[fit]``, ``[tune]``); the subcommand picks the action.  Every run writes a
manifest with the config hash, seeds, and artifact list into the output
directory, and takes a lock file there so concurrent runs cannot trample
each other.  Exit codes are stable: 0 success, 1 runtime or numerical
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .binmat import SplitSpec, load_coordinate_file, load_mask, save_mask, \
    split_observations
from .errors import ConfigError, DimensionError, NbmfError
from .evaluate import completion_report, predict_from_factors
from .io import H_FILE, META_FILE, W_FILE, read_factors, write_factors, write_report
from .solver import BetaPrior, FitConfig, fit
from .tune import GridResult, GridSpec, append_csv_row, export_heatmap, grid_search, \
    test_evaluation

__all__ = ["main", "RunConfig", "load_run_config"]

JOBS_ENV_VAR = "NBMF_JOBS"
LOCK_FILE = ".nbmf.lock"

REPORT_JSON = "report.json"
COMPLETION_JSON = "completion_report.json"
COMPLETION_CSV = "completion_report.csv"
GRID_CSV = "grid_result.csv"
GRID_PARTIAL_CSV = "grid_partial.csv"
HEATMAP_CSV = "heatmap.csv"
BOXSTATS_JSON = "boxstats.json"
MASK_FILES = {
    "train": "train_mask.txt",
    "val": "val_mask.txt",
    "test": "test_mask.txt",
}


@dataclass(frozen=True)
class RunConfig:
    """One validated run: where the data is, how to split, what to do."""

    mode: str
    dataset: Path
    out_dir: Path
    split: SplitSpec
    fit_config: FitConfig | None = None
    grid: GridSpec | None = None
    log_every: int = 100
    config_sha256: str = ""


def _get(parser, section, key, fallback=None):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return fallback


def _floats(text):
    return tuple(float(tok) for tok in text.split())


def _ints(text):
    return tuple(int(tok) for tok in text.split())


def load_run_config(config_path, mode, seed=None, out=None):
    """Parse and validate a config file for the given subcommand."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    raw = config_path.read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {config_path}: {exc}") from None

    declared = _get(parser, "run", "mode")
    if declared is not None and declared != mode:
        raise ConfigError(
            f"config declares mode {declared!r} but the {mode!r} command was invoked"
        )

    dataset = _get(parser, "run", "dataset")
    if dataset is None:
        raise ConfigError("config is missing [run] dataset")
    dataset = (config_path.parent / dataset).resolve()
    if not dataset.is_file():
        raise ConfigError(f"missing dataset path: {dataset}")

    out_dir = out or _get(parser, "run", "out")
    if out_dir is None:
        raise ConfigError("no output directory: set [run] out or pass --out")
    out_dir = (config_path.parent / out_dir).resolve() if out is None \
        else Path(out).resolve()

    try:
        split = SplitSpec(
            train_frac=float(_get(parser, "split", "train", "0.7")),
            val_frac=float(_get(parser, "split", "val", "0.15")),
            test_frac=float(_get(parser, "split", "test", "0.15")),
            seed=int(_get(parser, "split", "seed", "0")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [split] value: {exc}") from None

    fit_config = None
    grid = None
    try:
        if mode in ("fit", "eval"):
            fit_config = FitConfig(
                rank=int(_get(parser, "fit", "rank", "4")),
                prior=BetaPrior(
                    alpha=float(_get(parser, "fit", "alpha", "1.0")),
                    beta=float(_get(parser, "fit", "beta", "1.0")),
                ),
                tol=float(_get(parser, "fit", "tol", "1e-5")),
                max_iter=int(_get(parser, "fit", "max_iter", "2000")),
                epsilon=float(_get(parser, "fit", "epsilon", "1e-12")),
                seed=seed if seed is not None else int(_get(parser, "fit", "seed", "0")),
            )
        elif mode == "tune":
            defaults = GridSpec()
            grid = GridSpec(
                rank_values=_ints(_get(parser, "tune", "rank_values", "2 4 8 16")),
                alpha_values=_floats(
                    _get(parser, "tune", "alpha_values", "1 1.5 2 3 5 9")
                ),
                beta_values=_floats(
                    _get(parser, "tune", "beta_values", "1 1.5 2 3 5 9")
                ),
                n_restarts=int(_get(parser, "tune", "n_restarts", "10")),
                base_seed=seed if seed is not None
                else int(_get(parser, "tune", "base_seed", "0")),
                tol=float(_get(parser, "tune", "tol", repr(defaults.tol))),
                max_iter=int(_get(parser, "tune", "max_iter", str(defaults.max_iter))),
                epsilon=float(
                    _get(parser, "tune", "epsilon", repr(defaults.epsilon))
                ),
            )
    except ValueError as exc:
        raise ConfigError(f"bad [{mode}] value: {exc}") from None

    try:
        log_every = int(_get(parser, "fit", "log_every", "100"))
    except ValueError as exc:
        raise ConfigError(f"bad [fit] value: {exc}") from None
    return RunConfig(
        mode=mode,
        dataset=dataset,
        out_dir=out_dir,
        split=split,
        fit_config=fit_config,
        grid=grid,
        log_every=log_every,
        config_sha256=hashlib.sha256(raw).hexdigest(),
    )


@contextmanager
def _output_lock(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise NbmfError(
            f"output directory {out_dir} is locked by another run "
            f"(remove {lock_path} if that run is dead)"
        ) from None
    try:
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass


def _write_manifest(config, artifacts, seeds):
    path = config.out_dir / f"manifest_{config.mode}.json"
    payload = {
        "mode": config.mode,
        "config_sha256": config.config_sha256,
        "seeds": seeds,
        "artifacts": sorted(artifacts),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _split_dataset(config):
    Y = load_coordinate_file(config.dataset)
    train, val, test = split_observations(Y, config.split)
    return Y, train, val, test


def cmd_fit(config):
    Y, train, val, test = _split_dataset(config)
    with _output_lock(config.out_dir):
        log_every = config.log_every

        def on_sweep(iteration, value, _factors):
            if log_every > 0 and iteration % log_every == 0:
                print(f"iter {iteration} objective {value:.6f}")

        factors, report = fit(Y, train, config.fit_config, on_sweep=on_sweep)
        artifacts = write_factors(
            config.out_dir, factors,
            alpha=config.fit_config.prior.alpha,
            beta=config.fit_config.prior.beta,
            epsilon=config.fit_config.epsilon,
            seed=config.fit_config.seed,
            converged=report.converged,
        )
        report_path = config.out_dir / REPORT_JSON
        write_report(report_path, report)
        artifacts.append(report_path)
        for name, mask in (("train", train), ("val", val), ("test", test)):
            mask_path = config.out_dir / MASK_FILES[name]
            save_mask(mask, mask_path)
            artifacts.append(mask_path)
        _write_manifest(
            config, [p.name for p in artifacts],
            {"split": config.split.seed, "fit": config.fit_config.seed},
        )
        print(
            f"fit finished: n_iter={report.n_iter} converged={report.converged} "
            f"objective={report.final_objective:.6f}"
        )
    return 0


def _load_or_rebuild_masks(config, Y):
    paths = [config.out_dir / MASK_FILES[name] for name in ("train", "val", "test")]
    if all(path.is_file() for path in paths):
        return tuple(load_mask(path) for path in paths)
    _, train, val, test = _split_dataset(config)
    return train, val, test


def cmd_eval(config):
    for name in (W_FILE, H_FILE, META_FILE):
        if not (config.out_dir / name).is_file():
            raise ConfigError(
                f"missing factor file: {config.out_dir / name} (run fit first)"
            )
    Y = load_coordinate_file(config.dataset)
    factors, meta = read_factors(config.out_dir)
    if (meta["n_rows"], meta["n_cols"]) != Y.shape:
        raise DimensionError(
            f"factors describe a {meta['n_rows']}x{meta['n_cols']} matrix "
            f"but the dataset is {Y.shape[0]}x{Y.shape[1]}"
        )
    _, val, test = _load_or_rebuild_masks(config, Y)
    with _output_lock(config.out_dir):
        pred = predict_from_factors(factors)
        report = completion_report(Y, val, test, pred)
        json_path = config.out_dir / COMPLETION_JSON
        with open(json_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(report.to_json() + "\n")
        csv_path = config.out_dir / COMPLETION_CSV
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(report.CSV_HEADER + "\n")
            handle.write(report.to_csv_row() + "\n")
        _write_manifest(
            config, [json_path.name, csv_path.name], {"split": config.split.seed}
        )
        print(
            f"validation perplexity {report.validation.perplexity:.6f} "
            f"test perplexity {report.test.perplexity:.6f}"
        )
    return 0


def _read_partial_rows(path):
    """Rows checkpointed by an interrupted tune, or () when there are none.

    Rows are appended one line at a time, so an interrupted append leaves a
    last line without its newline.  That line is cut from the file, and its
    grid point is fitted again.
    """
    if not path.is_file():
        return ()
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        print(f"dropping the torn last line of {path.name}")
        if complete == 0:
            path.unlink()
            return ()
        os.truncate(path, complete)
    try:
        rows = GridResult.from_csv(path).rows
    except (KeyError, ValueError) as exc:
        raise ConfigError(
            f"cannot resume from {path}: malformed row ({exc}); remove the file "
            "to start the search over"
        ) from None
    print(f"resuming: {len(rows)} grid rows found in {path.name}")
    return rows


def cmd_tune(config, n_jobs):
    Y, train, val, test = _split_dataset(config)
    with _output_lock(config.out_dir):
        partial_path = config.out_dir / GRID_PARTIAL_CSV
        resume_rows = _read_partial_rows(partial_path)
        total = len(config.grid.points())

        def on_row(row):
            append_csv_row(partial_path, row)
            shown = "failed" if row.val_perplexity is None \
                else f"{row.val_perplexity:.6f}"
            print(
                f"grid rank={row.rank} alpha={row.alpha} beta={row.beta} "
                f"val_perplexity={shown}"
            )

        results, best = grid_search(
            Y, train, val, config.grid, n_jobs=n_jobs,
            resume_rows=resume_rows, on_row=on_row,
        )
        evaluation = test_evaluation(
            Y, train, test,
            config.grid.fit_config(best.rank, best.alpha, best.beta, 0),
            n_restarts=config.grid.n_restarts,
            base_seed=config.grid.base_seed,
            n_jobs=n_jobs,
        )

        grid_path = config.out_dir / GRID_CSV
        results.to_csv(grid_path)
        heatmap_path = config.out_dir / HEATMAP_CSV
        export_heatmap(results, best.rank, heatmap_path)
        stats_path = config.out_dir / BOXSTATS_JSON
        with open(stats_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(evaluation.to_json() + "\n")
        _write_manifest(
            config,
            [grid_path.name, heatmap_path.name, stats_path.name],
            {"split": config.split.seed, "base": config.grid.base_seed},
        )
        partial_path.unlink(missing_ok=True)
        print(
            f"best rank={best.rank} alpha={best.alpha} beta={best.beta} "
            f"median_test_perplexity={evaluation.stats.median:.6f}"
        )
        print(f"total grid points: {total}")
    return 0


@contextmanager
def _summarizing(path):
    """Turn a JSON artifact that does not parse, or lacks a field, into an error."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise NbmfError(f"cannot summarize {path}: {exc!r}") from None


def cmd_report(out_dir):
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"output directory not found: {out_dir}")
    found = False
    for manifest in sorted(out_dir.glob("manifest_*.json")):
        found = True
        with _summarizing(manifest):
            payload = json.loads(manifest.read_text(encoding="utf-8"))
            print(
                f"{payload['mode']}: config {payload['config_sha256'][:12]} "
                f"seeds {payload['seeds']} artifacts {', '.join(payload['artifacts'])}"
            )
    report_path = out_dir / REPORT_JSON
    if report_path.is_file():
        with _summarizing(report_path):
            payload = json.loads(report_path.read_text(encoding="utf-8"))
            print(
                f"fit report: n_iter={payload['n_iter']} converged={payload['converged']} "
                f"final_objective={payload['objective_trace'][-1]:.6f}"
            )
    completion_path = out_dir / COMPLETION_JSON
    if completion_path.is_file():
        with _summarizing(completion_path):
            payload = json.loads(completion_path.read_text(encoding="utf-8"))
            print(
                f"completion: val_perplexity={payload['validation']['perplexity']:.6f} "
                f"test_perplexity={payload['test']['perplexity']:.6f}"
            )
    stats_path = out_dir / BOXSTATS_JSON
    if stats_path.is_file():
        with _summarizing(stats_path):
            payload = json.loads(stats_path.read_text(encoding="utf-8"))
            stats = payload["stats"]
            print(
                f"tune: rank={payload['rank']} alpha={payload['alpha']} "
                f"beta={payload['beta']} median_test_perplexity={stats['median']:.6f}"
            )
    if not found:
        print(f"no manifests in {out_dir}")
    return 0


def _job_count(flag):
    """Worker threads from ``--jobs``, else ``$NBMF_JOBS``, else 1."""
    if flag is not None:
        source, text = "--jobs", flag
    elif JOBS_ENV_VAR in os.environ:
        source, text = f"${JOBS_ENV_VAR}", os.environ[JOBS_ENV_VAR]
    else:
        return 1
    try:
        n_jobs = int(text)
    except ValueError:
        n_jobs = 0
    if n_jobs < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {text!r}")
    return n_jobs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nbmf",
        description="Binary matrix factorization runs driven by a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("fit", True), ("eval", True), ("tune", True), ("report", False),
    ):
        cmd = sub.add_parser(name)
        if needs_config:
            cmd.add_argument("--config", required=True, help="path to the run config")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the configured seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        if name == "tune":
            cmd.add_argument(
                "--jobs", default=None,
                help=f"worker threads (default ${JOBS_ENV_VAR} or 1); while "
                     "they run, numpy's OpenBLAS is held to about cpus / jobs "
                     "threads",
            )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            if args.out is None:
                raise ConfigError("report needs --out <dir>")
            return cmd_report(args.out)
        config = load_run_config(args.config, args.command, seed=args.seed,
                                 out=args.out)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "eval":
            return cmd_eval(config)
        return cmd_tune(config, _job_count(args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NbmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
