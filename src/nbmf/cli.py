"""Command-line entry point: config-driven fit / eval / tune / report runs.

Runs are described by a flat INI config (sections ``[run]``, ``[split]``,
``[fit]``, ``[tune]``); the subcommand picks the action.  Every run writes a
manifest with the config hash, seeds, and artifact list into the output
directory (fit's also records the ``[split]`` settings and the SHA-256 of
the dataset and of each factor file, which eval checks before scoring),
and takes a lock file there so concurrent runs cannot trample each other.
``io`` and ``binmat`` write every file but the lock, whole or not at all.
Exit codes are stable: 0 success, 1 runtime or numerical failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from ._workers import _openblas_thread_calls
from .binmat import _GAP, SplitSpec, _integer_setting, _replaced, _write_coords, \
    load_coordinate_file, split_observations
from .errors import ConfigError, DimensionError, NbmfError
from .evaluate import completion_report
from .io import H_FILE, META_FILE, W_FILE, _meta_float, _meta_int, _write_json, \
    _write_text, read_factors, write_factors, write_report
from .solver import BetaPrior, FitConfig, _check_fit, _fit_cells, reconstruct
from .tune import GridResult, GridSpec, export_heatmap, grid_search, test_evaluation

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

    def __post_init__(self):
        log_every = _integer_setting("log_every", self.log_every, 0)
        object.__setattr__(self, "log_every", log_every)


def _words(parse):
    return lambda text: tuple(parse(word) for word in _GAP.split(text))


# Every config key, by section, with the parser of its value.  Numbers take
# the grammar of meta.txt: an integer is an optional sign and ASCII digits,
# a float a finite ASCII decimal, and a list's values are separated by ASCII
# spaces or tabs.  Parsed values go straight into SplitSpec,
# FitConfig/BetaPrior and GridSpec, so a key left out takes the default of
# the dataclass field it fills, and those classes check every value before
# the dataset is read.
_CONFIG_KEYS = {
    "run": {"mode": str, "dataset": str, "out": str},
    "split": {"train": _meta_float, "val": _meta_float, "test": _meta_float,
              "seed": _meta_int},
    "fit": {
        "rank": _meta_int, "alpha": _meta_float, "beta": _meta_float,
        "tol": _meta_float, "max_iter": _meta_int, "epsilon": _meta_float,
        "seed": _meta_int, "log_every": _meta_int,
    },
    "tune": {
        "rank_values": _words(_meta_int), "alpha_values": _words(_meta_float),
        "beta_values": _words(_meta_float), "n_restarts": _meta_int,
        "base_seed": _meta_int, "tol": _meta_float, "max_iter": _meta_int,
        "epsilon": _meta_float,
    },
}


def _read_sections(parser):
    """``{section: {key: parsed value}}`` for every section of the table."""
    if parser.defaults():  # its keys would otherwise be read into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    sections = {name: {} for name in _CONFIG_KEYS}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
            try:
                sections[section][key] = _CONFIG_KEYS[section][key](text)
            except ValueError:
                raise ConfigError(f"bad [{section}] value: {key} = {text!r}") from None
    return sections


def _pop_fields(cls, values):
    """Remove and return the entries of ``values`` named after fields of ``cls``."""
    return {f.name: values.pop(f.name) for f in fields(cls) if f.name in values}


def load_run_config(config_path, mode, seed=None, out=None):
    """Parse and validate a config file for the given subcommand."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    raw = config_path.read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {config_path}: {exc}") from None
    sections = _read_sections(parser)
    run, fit_keys = sections["run"], sections["fit"]

    declared = run.get("mode")
    if declared is not None and declared != mode:
        raise ConfigError(
            f"config declares mode {declared!r} but the {mode!r} command was invoked"
        )

    dataset = run.get("dataset")
    if dataset is None:
        raise ConfigError("config is missing [run] dataset")
    dataset = (config_path.parent / dataset).resolve()
    if not dataset.is_file():
        raise ConfigError(f"missing dataset path: {dataset}")

    out_dir = out or run.get("out")
    if out_dir is None:
        raise ConfigError("no output directory: set [run] out or pass --out")
    out_dir = (config_path.parent / out_dir).resolve() if out is None \
        else Path(out).resolve()

    split = SplitSpec(**{
        key if key == "seed" else f"{key}_frac": value
        for key, value in sections["split"].items()
    })
    run_fields = _pop_fields(RunConfig, fit_keys)  # [fit] log_every
    fit_config = grid = None
    if mode in ("fit", "eval"):
        if seed is not None:
            fit_keys["seed"] = seed
        prior = BetaPrior(**_pop_fields(BetaPrior, fit_keys))
        fit_config = FitConfig(**{"rank": 4, **fit_keys}, prior=prior)
    elif mode == "tune":
        if seed is not None:
            sections["tune"]["base_seed"] = seed
        grid = GridSpec(**sections["tune"])
    return RunConfig(
        mode=mode,
        dataset=dataset,
        out_dir=out_dir,
        split=split,
        fit_config=fit_config,
        grid=grid,
        config_sha256=hashlib.sha256(raw).hexdigest(),
        **run_fields,
    )


def _lock_holder(lock_path):
    """Name the run that a lock file records, and say whether it is alive."""
    try:
        pid = int(lock_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # an empty lock, or one from an older run
        return "another run"
    if pid <= 0:
        return "another run"
    if os.name == "nt":  # signal 0 is CTRL_C_EVENT there, not a probe
        return f"process {pid}"
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return f"process {pid}, which is no longer running"
    except PermissionError:  # alive, under another user
        pass
    return f"process {pid}, which is still running"


@contextmanager
def _output_lock(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise NbmfError(
            f"output directory {out_dir} is locked by {_lock_holder(lock_path)} "
            f"(remove {lock_path} if that run is dead)"
        ) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        yield
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass


def _environment():
    """What produced a run: versions, BLAS and thread counts.

    The live OpenBLAS count is recorded beside the settings that choose it;
    every fit runs its products at one thread, whatever that count is.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError, ValueError):  # numpy < 1.26
        blas = {}
    calls = _openblas_thread_calls()
    return {
        "nbmf": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": calls[0]() if calls else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _peak_rss_mb():
    """The run's peak resident memory in MB (2**20 bytes): the larger of this
    process's ``VmHWM``, which ``exec`` resets, and the peak of the fit
    workers it has reaped (``RUSAGE_CHILDREN``).  None off Linux."""
    if not sys.platform.startswith("linux"):
        return None
    import resource

    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024  # both in KiB


def _write_manifest(config, artifacts, seeds, fit_processes=None, **recorded):
    """``fit_processes``: the process counts from the reports of the run's
    fits, if it ran any; ``recorded``: further fields of the manifest."""
    path = config.out_dir / f"manifest_{config.mode}.json"
    environment = _environment()
    if fit_processes is not None:
        environment["fit_processes"] = sorted(fit_processes)
    _write_json(path, {
        "mode": config.mode,
        "config_sha256": config.config_sha256,
        "seeds": seeds,
        "artifacts": sorted(artifacts),
        "environment": environment,
        "peak_rss_mb": _peak_rss_mb(),
        **recorded,
    })


def _file_sha256(path):
    """The SHA-256 of the file at ``path``, read a chunk at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _run_inputs(config):
    """The dataset digest and ``[split]`` settings that every fit, eval and
    tune manifest records, under the config's key names."""
    split = config.split
    return {
        "dataset_sha256": _file_sha256(config.dataset),
        "split": {"train": split.train_frac, "val": split.val_frac,
                  "test": split.test_frac, "seed": split.seed},
    }


def _check_fit_inputs(path, inputs):
    """Raise unless the fit manifest at ``path`` records ``inputs``, and the
    factor files beside it are the ones the fit wrote.

    A missing manifest, or a field that it does not record (one written
    before it recorded them), is not checked.
    """
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
        checked = [("dataset_sha256", recorded.get("dataset_sha256"),
                    inputs["dataset_sha256"])]
        checked += [(f"[split] {key}", recorded.get("split", {}).get(key), value)
                    for key, value in inputs["split"].items()]
        written = [(name, recorded.get("factor_sha256", {}).get(name))
                   for name in (W_FILE, H_FILE, META_FILE)]
    except FileNotFoundError:
        return
    except (ValueError, AttributeError) as exc:
        raise NbmfError(f"cannot read {path}: {exc}") from None
    differ = [f"{name} {new!r} (fit: {old!r})"
              for name, old, new in checked if old is not None and old != new]
    if differ:
        raise NbmfError(f"{path}: the factors were fit on another dataset or "
                        f"split; this run has {', '.join(differ)}")
    edited = [name for name, digest in written
              if digest is not None and digest != _file_sha256(path.parent / name)]
    if edited:
        raise NbmfError(f"{path}: {', '.join(edited)} changed after the fit "
                        "wrote them")


def _split_dataset(config):
    Y = load_coordinate_file(config.dataset)
    train, val, test = split_observations(Y, config.split)
    return Y, train, val, test


def cmd_fit(config):
    """Fit on the train cells of ``[split]``'s split; write the factors, the
    fit report, the three masks and the manifest.

    No input outlives its last use: the masks are written to their
    temporary files (``binmat._replaced``) before the fit, and the fit is
    handed the only references to the dataset and the train mask, which it
    frees while it prepares, so its sweeps hold ``A`` and ``B`` alone.  The
    masks are renamed into place after the factors and the report are
    written; a fit that raises removes them.
    """
    Y, train, val, test = _split_dataset(config)
    inputs = _run_inputs(config)
    with _output_lock(config.out_dir), ExitStack() as pending_masks:
        _check_fit(Y, train)  # before any file is written
        log_every = config.log_every

        def on_sweep(iteration, value, _factors):
            if log_every > 0 and iteration % log_every == 0:
                print(f"iter {iteration} objective {value:.6f}")

        mask_paths = [config.out_dir / name for name in MASK_FILES.values()]
        for path, mask in zip(mask_paths, (train, val, test)):
            _write_coords(pending_masks.enter_context(_replaced(path)), mask)
        del mask, val, test
        cells = [Y, train]
        del Y, train
        factors, report = _fit_cells(cells, config.fit_config, on_sweep=on_sweep)
        artifacts = write_factors(
            config.out_dir, factors,
            alpha=config.fit_config.prior.alpha,
            beta=config.fit_config.prior.beta,
            epsilon=config.fit_config.epsilon,
            seed=config.fit_config.seed,
            converged=report.converged,
        )
        factor_sha256 = {path.name: _file_sha256(path) for path in artifacts}
        report_path = config.out_dir / REPORT_JSON
        write_report(report_path, report)
        artifacts.append(report_path)
        pending_masks.close()  # renames the masks into place
        artifacts += mask_paths
        _write_manifest(
            config, [p.name for p in artifacts],
            {"split": config.split.seed, "fit": config.fit_config.seed},
            {report.processes}, factor_sha256=factor_sha256, **inputs,
        )
        print(
            f"fit finished: n_iter={report.n_iter} converged={report.converged} "
            f"objective={report.final_objective:.6f}"
        )
    return 0


def cmd_eval(config):
    """Score the saved factors on the held-out cells of ``[split]``'s split,
    made again as fit made it: fit's mask files are never read back.

    A dataset or ``[split]`` other than the one ``manifest_fit.json``
    records, or a factor file whose digest differs from the one it records,
    is refused before scoring.
    """
    for name in (W_FILE, H_FILE, META_FILE):
        if not (config.out_dir / name).is_file():
            raise ConfigError(
                f"missing factor file: {config.out_dir / name} (run fit first)"
            )
    Y = load_coordinate_file(config.dataset)
    inputs = _run_inputs(config)
    with _output_lock(config.out_dir):
        _check_fit_inputs(config.out_dir / "manifest_fit.json", inputs)
        factors, meta = read_factors(config.out_dir)
        if (meta["n_rows"], meta["n_cols"]) != Y.shape:
            raise DimensionError(
                f"factors describe a {meta['n_rows']}x{meta['n_cols']} matrix "
                f"but the dataset is {Y.shape[0]}x{Y.shape[1]}"
            )
        val, test = split_observations(Y, config.split)[1:]
        pred = reconstruct(factors)
        report = completion_report(Y, val, test, pred)
        json_path = config.out_dir / COMPLETION_JSON
        _write_json(json_path, report.to_dict())
        csv_path = config.out_dir / COMPLETION_CSV
        _write_text(csv_path, report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
        _write_manifest(
            config, [json_path.name, csv_path.name], {"split": config.split.seed},
            **inputs,
        )
        print(
            f"validation perplexity {report.validation.perplexity:.6f} "
            f"test perplexity {report.test.perplexity:.6f}"
        )
    return 0


def _text_sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _checkpoint_text(table, stamp):
    """A checkpoint of ``table``: its CSV text, then ``stamp`` and the
    digest of that text, ``rows_sha256``, on a last line of their own."""
    text = table._csv_text()
    return f"{text}{stamp} rows_sha256={_text_sha256(text)}\n"


def _read_partial_rows(path, stamp):
    """Rows checkpointed by an interrupted tune, or () when there are none.

    Tune only ever replaces the checkpoint whole, so one that does not parse,
    whose last line does not hold every word of ``stamp`` and a
    ``rows_sha256``, or whose lines above it differ from that digest, stops
    the resume and is left as is.
    """
    if not path.is_file():
        return ()
    advice = "; remove the file to start the search over"
    malformed = f"cannot resume from {path}: malformed checkpoint"
    try:
        table = GridResult.from_csv(path)
    except ValueError as exc:
        raise ConfigError(f"{malformed} ({exc}){advice}") from None
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    recorded = lines[-1].split()
    differ = [word.partition("=")[0] for word in stamp.split()[1:]
              if word not in recorded]
    if differ:
        raise ConfigError(f"cannot resume from {path}: its last line does not "
                          f"record this run's {' and '.join(differ)}{advice}")
    if not any(word.startswith("rows_sha256=") for word in recorded):  # older
        raise ConfigError(f"cannot resume from {path}: its last line does not "
                          f"record rows_sha256{advice}")
    if f"rows_sha256={_text_sha256(''.join(lines[:-1]))}" not in recorded:
        raise ConfigError(f"{malformed} (the lines above its last differ from "
                          f"its rows_sha256){advice}")
    print(f"resuming: {len(table)} grid rows found in {path.name}")
    return table.rows


def cmd_tune(config, n_jobs):
    Y, train, val, test = _split_dataset(config)
    inputs = _run_inputs(config)
    stamp = (f"# config_sha256={config.config_sha256} "
             f"dataset_sha256={inputs['dataset_sha256']}")
    with _output_lock(config.out_dir):
        partial_path = config.out_dir / GRID_PARTIAL_CSV
        checkpoint = list(_read_partial_rows(partial_path, stamp))

        def on_row(row):
            checkpoint.append(row)
            _write_text(partial_path, _checkpoint_text(GridResult(checkpoint), stamp))
            shown = "failed" if row.val_perplexity is None \
                else f"{row.val_perplexity:.6f}"
            print(
                f"grid rank={row.rank} alpha={row.alpha} beta={row.beta} "
                f"val_perplexity={shown}"
            )

        results, best = grid_search(
            Y, train, val, config.grid, n_jobs=n_jobs,
            resume_rows=tuple(checkpoint), on_row=on_row,
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
        _write_json(stats_path, evaluation.to_dict())
        _write_manifest(
            config,
            [grid_path.name, heatmap_path.name, stats_path.name],
            {"split": config.split.seed, "base": config.grid.base_seed},
            # resumed and failed rows carry 0: no fit of this run ran them
            {row.processes for row in (*results, *evaluation.rows)} - {0},
            **inputs,
        )
        partial_path.unlink(missing_ok=True)
        print(
            f"best rank={best.rank} alpha={best.alpha} beta={best.beta} "
            f"median_test_perplexity={evaluation.stats.median:.6f}"
        )
        print(f"total grid points: {len(config.grid.points())}")
    return 0


def _manifest_summary(payload):
    summary = (
        f"{payload['mode']}: config {payload['config_sha256'][:12]} "
        f"seeds {payload['seeds']} artifacts {', '.join(payload['artifacts'])}"
    )
    if "peak_rss_mb" in payload:  # written before manifests recorded it
        summary += f" peak_rss_mb={json.dumps(payload['peak_rss_mb'])}"
    if "environment" not in payload:  # written before manifests recorded it
        return summary
    env = payload["environment"]
    summary += (
        f"\n  environment: nbmf {env['nbmf']} python {env['python']} "
        f"numpy {env['numpy']} blas {env['blas']} {env['blas_version']} "
        f"blas_threads={env['blas_threads']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']} cpu_count={env['cpu_count']}"
    )
    if "fit_processes" in env:  # written before manifests recorded it, or eval
        summary += f" fit_processes={','.join(map(str, env['fit_processes']))}"
    return summary


# The line ``nbmf report`` prints for each JSON artifact, after the manifests'.
_SUMMARIES = (
    (REPORT_JSON, lambda payload: (
        f"fit report: n_iter={payload['n_iter']} converged={payload['converged']} "
        f"final_objective={payload['objective_trace'][-1]:.6f}"
    )),
    (COMPLETION_JSON, lambda payload: (
        f"completion: val_perplexity={payload['validation']['perplexity']:.6f} "
        f"test_perplexity={payload['test']['perplexity']:.6f}"
    )),
    (BOXSTATS_JSON, lambda payload: (
        f"tune: rank={payload['rank']} alpha={payload['alpha']} "
        f"beta={payload['beta']} "
        f"median_test_perplexity={payload['stats']['median']:.6f}"
    )),
)


def cmd_report(out_dir):
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"output directory not found: {out_dir}")
    manifests = sorted(out_dir.glob("manifest_*.json"))
    summaries = [(path, _manifest_summary) for path in manifests] + [
        (out_dir / name, summary) for name, summary in _SUMMARIES
        if (out_dir / name).is_file()
    ]
    for path, summary in summaries:
        try:
            print(summary(json.loads(path.read_text(encoding="utf-8"))))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise NbmfError(f"cannot summarize {path}: {exc!r}") from None
    if not manifests:
        print(f"no manifests in {out_dir}")
    return 0


def _flag_int(source, text, minimum=None):
    """``text`` as an integer in the grammar of the config values, at least
    ``minimum``; a :class:`ConfigError` naming ``source`` otherwise."""
    try:
        number = _meta_int(text)
    except ValueError:
        number = None
    if number is None or (minimum is not None and number < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{source} must be an integer{at_least}, got {text!r}")
    return number


def _job_count(flag):
    """The cap on each fit's processes: ``--jobs``, else ``$NBMF_JOBS``, else None."""
    if flag is not None:
        return _flag_int("--jobs", flag, 1)
    if JOBS_ENV_VAR in os.environ:
        return _flag_int(f"${JOBS_ENV_VAR}", os.environ[JOBS_ENV_VAR], 1)
    return None


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
            cmd.add_argument("--seed", default=None,
                             help="override the configured seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        if name == "tune":
            cmd.add_argument(
                "--jobs", default=None,
                help=f"the most processes each fit runs on (default "
                     f"${JOBS_ENV_VAR}, else every CPU); any value writes the "
                     "same tables",
            )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            if args.out is None:
                raise ConfigError("report needs --out <dir>")
            return cmd_report(args.out)
        seed = None if args.seed is None else _flag_int("--seed", args.seed)
        config = load_run_config(args.config, args.command, seed=seed, out=args.out)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "eval":
            return cmd_eval(config)
        return cmd_tune(config, _job_count(args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NbmfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
