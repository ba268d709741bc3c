"""Benchmark for nbmf: one closed-loop client runs a workload for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload cli-fit-eval --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn, each in a process of its own.

The client starts each operation after the previous one has completed and
keeps going until ``--seconds`` have passed and at least three operations
have run, so that the median rests on three samples and every run checks
that a rerun rewrites identical outputs.  With ``--trace 0`` it reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced operation, then
replays the operation through the public library calls with a span around
each call, and reports the per-layer metrics and the tracing overhead.  The
workloads are defined in ``workloads.py`` and described, with every metric,
in ``README.md``.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` names.  The full record, with the environment, goes to
``.perfbench/results/`` (and, when traced, the spans beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up repeats at least this often and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
# Operations per untraced run, and traced replays per traced run, at least.
MIN_OPS = 3
MIN_REPLAYS = 2
MIN_BEYOND = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Units of the metrics whose unit the name does not show.
UNITS = {
    "val_perplexity": "nats/cell",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "sweeps_to_tol": "count",
    "solver.cells_per_s": "cells/s",
    "tune.pool_efficiency": "ratio",
    "io.bytes_written": "bytes",
}

# Spans whose durations are reported under another name.
ALIASES = {
    "binmat.BinaryMatrix.to_dense": "binmat.to_dense",
    "binmat.ObservationMask.to_dense": "binmat.to_dense",
    "binmat.ObservationMask.indices": "binmat.indices",
    "tune.GridResult.to_csv": "tune.to_csv",
}
PROBED = ("solver.update_h", "solver.update_w", "solver.objective")


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def percentile(values, q):
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values):
    """Median, sample count, and the highest percentile with ten samples beyond."""
    summary = {"value": statistics.median(values), "n": len(values), "samples": values}
    for q in PERCENTILES:
        if len(values) * (100.0 - q) / 100.0 >= MIN_BEYOND:
            summary["tail"] = [q, percentile(values, q)]
            break
    return summary


def measure(op, seconds, min_ops):
    """Closed loop: run ``op(index)`` until ``seconds`` pass and ``min_ops`` ran."""
    # Imported here: the module needs nbmf on the path, which main() sets up.
    from workloads import CheckFailed

    results, failures = [], []
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        try:
            results.append(op(index))
        except CheckFailed as exc:
            failures.append(str(exc))
        except Exception:  # one broken operation must not end the run
            failures.append(traceback.format_exc(limit=4))
        index += 1
    return results, failures, index


def median_by_name(records):
    names = {name for record in records for name in record}
    return {
        name: summarize([record[name] for record in records if name in record])
        for name in sorted(names)
    }


def op_layers(spans, counts):
    """Per-layer values of one traced operation, from its spans."""
    values = {}
    for span in spans:
        if span.name.startswith("bench."):
            continue
        key = ALIASES.get(span.name, span.name) + ".s"
        values[key] = values.get(key, 0.0) + span.duration
    fits = [span for span in spans if span.name == "solver.fit"]
    if fits:
        loop = sum(span.attrs["loop_s"] for span in fits)
        sweeps = sum(span.attrs["sweeps"] for span in fits)
        sweep_ms = [s * 1e3 for span in fits for s in span.attrs["sweep_s"]]
        values.update({
            "solver.fit.loop_s": loop,
            "solver.fit.prepare_s": values["solver.fit.s"] - loop,
            "solver.sweeps": sweeps,
            "solver.cells_per_s":
                sum(span.attrs["cells"] * span.attrs["sweeps"] for span in fits) / loop,
            "solver.sweep.p50_ms": percentile(sweep_ms, 50.0),
            "solver.sweep.p90_ms": percentile(sweep_ms, 90.0),
        })
    for layer, seconds in self_times(spans).items():
        values[f"{layer}.self_s"] = seconds
    values["trace.op_s"] = next(s.duration for s in spans if s.name == "bench.op")
    values.update(counts)
    return values


def run_plain(workload, seconds):
    records, failures, attempted = measure(workload.op, seconds, MIN_OPS)
    return median_by_name(records), failures, attempted, []


def run_traced(workload, seconds):
    start = time.perf_counter()
    plain, failures, attempted = measure(workload.op, 0, 1)
    tracer = Tracer()
    counts = {}

    def replay(index):
        tracer.run = f"{workload.name}:{workload.seed}:replay{index}"
        counts[tracer.run] = workload.replay(index, tracer)

    with tracer:
        remaining = seconds - (time.perf_counter() - start)
        _, traced_failures, traced_attempted = measure(replay, remaining, MIN_REPLAYS)
        if counts:
            tracer.run = f"{workload.name}:{workload.seed}:probe"
            workload.probe(tracer)
    failures += traced_failures
    attempted += traced_attempted

    by_run = {}
    for span in tracer.spans:
        by_run.setdefault(span.run, []).append(span)
    records = [op_layers(by_run[run], extra) for run, extra in counts.items()]
    metrics = median_by_name(records)
    for span in by_run.get(tracer.run, ()):
        if span.name in PROBED:
            metrics[span.name + ".s"] = summarize([span.duration])
    if plain and records:
        overhead = metrics["trace.op_s"]["value"] - plain[0]["wall_s"]
        metrics["trace.overhead_s"] = summarize([overhead])
    return metrics, failures, attempted, tracer.spans


def blas_info(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return None, None
    return blas.get("name"), blas.get("version")


def git_commit():
    """The commit of this checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed):
    import numpy

    import nbmf

    blas, blas_version = blas_info(numpy)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_version": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nbmf_version": nbmf.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def describe(name, summary):
    line = f"  {name:<32} {summary['value']:>14.6g} {unit(name):<9} n={summary['n']}"
    if "tail" in summary:
        q, value = summary["tail"]
        return line + f"  p{q:g}={value:.6g}"
    return line + f"  (no percentile has {MIN_BEYOND} samples beyond it)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nbmf" / "__init__.py").is_file():
        print(f"perfbench: no nbmf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import nbmf
    from workloads import WORKLOADS

    if Path(nbmf.__file__).resolve().parent != (SRC / "nbmf").resolve():
        print(f"perfbench: imported nbmf from {nbmf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One child per workload, so that no workload's memory or warm state
        # reaches another's figures.
        codes = [
            subprocess.call([
                sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace",
                str(args.trace),
            ])
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, SRC)
    try:
        setup_s = []
        while len(setup_s) < SETUP_MAX_REPEATS and (
            len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS
        ):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        run = run_traced if args.trace else run_plain
        metrics, failures, attempted, spans = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["setup_s"] = summarize(setup_s)
    metrics["failed_frac"] = summarize([len(failures) / attempted])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": {
            name: dict(summary, unit=unit(name)) for name, summary in metrics.items()
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if spans:
        with open(results / f"{tag}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    print(f"perfbench {tag}: {attempted} operations, {len(failures)} failed")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, summary in metrics.items():
        print(describe(name, summary))
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
