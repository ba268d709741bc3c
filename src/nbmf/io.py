"""On-disk formats for factors and fit reports.

Factors are written as two dense text matrices (one row per line,
space-separated ``%.17g`` decimals, which round-trip float64 exactly) plus a
small ``meta.txt`` of "key value" lines recording the shapes, prior, clamp,
seed, and convergence outcome.  Reports are JSON.  All files are UTF-8 with
LF line endings and deterministic formatting, so rewriting the same run
yields byte-identical factor files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError
from .solver import FactorPair, FitReport

__all__ = [
    "write_factors",
    "read_factors",
    "write_report",
    "read_report",
    "W_FILE",
    "H_FILE",
    "META_FILE",
]

W_FILE = "W.txt"
H_FILE = "H.txt"
META_FILE = "meta.txt"

_FLOAT_KEYS = ("alpha", "beta", "epsilon")
_INT_KEYS = ("n_rows", "n_cols", "rank", "seed")


def _write_matrix(path, array):
    np.savetxt(path, np.atleast_2d(array), fmt="%.17g", newline="\n")


def write_factors(out_dir, factors, *, alpha, beta, epsilon, seed, converged):
    """Write W.txt, H.txt, and meta.txt into ``out_dir``; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w_path, h_path, meta_path = (
        out_dir / W_FILE,
        out_dir / H_FILE,
        out_dir / META_FILE,
    )
    _write_matrix(w_path, factors.W)
    _write_matrix(h_path, factors.H)
    meta = {
        "n_rows": factors.n_rows,
        "n_cols": factors.n_cols,
        "rank": factors.rank,
        "alpha": repr(float(alpha)),
        "beta": repr(float(beta)),
        "epsilon": repr(float(epsilon)),
        "seed": int(seed),
        "converged": "true" if converged else "false",
    }
    with open(meta_path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in meta.items():
            handle.write(f"{key} {value}\n")
    return [w_path, h_path, meta_path]


def _read_matrix(path):
    try:
        matrix = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: unreadable matrix ({exc})") from None
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: non-finite entry")
    return matrix


def read_factors(in_dir):
    """Read factors written by :func:`write_factors`.

    Returns ``(FactorPair, meta)`` where meta holds the parsed header
    values.  A matrix file that does not parse or holds a non-finite entry
    raises :class:`ParseError` naming the file; shape disagreements between
    the header and the matrices raise :class:`DimensionError`.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / META_FILE
    meta = {}
    with open(meta_path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise ParseError(f"malformed meta line {line!r}", line=line_no)
            meta[parts[0]] = parts[1]
    try:
        parsed = {key: int(meta[key]) for key in _INT_KEYS}
        parsed.update({key: float(meta[key]) for key in _FLOAT_KEYS})
        parsed["converged"] = meta["converged"] == "true"
    except (KeyError, ValueError) as exc:
        raise ParseError(f"incomplete factor header: {exc}") from None

    W = _read_matrix(in_dir / W_FILE)
    H = _read_matrix(in_dir / H_FILE)
    expected_w = (parsed["n_rows"], parsed["rank"])
    expected_h = (parsed["rank"], parsed["n_cols"])
    if W.shape != expected_w or H.shape != expected_h:
        raise DimensionError(
            f"factor files have shapes {W.shape} and {H.shape}, "
            f"header says {expected_w} and {expected_h}"
        )
    return FactorPair(W, H), parsed


def write_report(path, report):
    """Write a :class:`FitReport` as JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_report(path):
    with open(path, encoding="utf-8") as handle:
        return FitReport.from_dict(json.load(handle))
