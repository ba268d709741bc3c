"""On-disk formats for factors and fit reports, and the text of every artifact.

Factors are written as two dense text matrices (one row per line,
space-separated ``%.17g`` decimals, which round-trip float64 exactly) plus a
small ``meta.txt`` of "key value" lines recording the shapes, prior, clamp,
seed, and convergence outcome.  Reports are JSON.  All files are UTF-8 with
LF line endings and deterministic formatting, so rewriting the same run
yields byte-identical factor files.

The text of every other artifact is made here too: ``evaluate``, ``tune``
and ``cli`` write theirs with :func:`_write_text`, :func:`_json_text` and
:func:`_cell_text`.  Only the coordinate files are written by ``binmat``;
both modules write through its ``_replaced``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .binmat import _GAP, _TOKEN, _float_setting, _replaced
from .errors import DimensionError, ParseError
from .solver import FactorPair, FitReport

__all__ = [
    "write_factors",
    "read_factors",
    "write_report",
    "read_report",
]

W_FILE = "W.txt"
H_FILE = "H.txt"
META_FILE = "meta.txt"


def _meta_int(value):
    # the grammar of coordinate tokens; int() would also take "1_0" and "２"
    if not _TOKEN.fullmatch(value):
        raise ValueError
    return int(value)


# An ASCII decimal; float() would also take "nan", "inf", "1_0" and other digits.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _meta_float(value):
    if not _DECIMAL.fullmatch(value):
        raise ValueError
    return _float_setting("value", float(value))  # a ValueError on "1e999"


def _meta_epsilon(value):
    return _float_setting("epsilon", _meta_float(value), 0.0, 0.5)


def _meta_bool(value):
    if value not in ("true", "false"):
        raise ValueError
    return value == "true"


# meta.txt key -> parser of its value
_META_KEYS = {
    "n_rows": _meta_int, "n_cols": _meta_int, "rank": _meta_int,
    "seed": _meta_int, "alpha": _meta_float, "beta": _meta_float,
    "epsilon": _meta_epsilon,
    "converged": _meta_bool,
}


def _write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 with LF line endings."""
    with _replaced(path) as handle:
        handle.write(text.encode("utf-8"))


def _json_text(payload):
    """``payload`` as indented JSON with sorted keys, without a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_json(path, payload):
    """Write :func:`_json_text` of ``payload`` and a final newline."""
    _write_text(path, _json_text(payload) + "\n")


def _cell_text(value):
    """The text of a CSV cell or ``meta.txt`` value; a float's ``str`` is the
    shortest text that reads back exactly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_matrix(path, array):
    with _replaced(path) as handle:
        np.savetxt(handle, np.atleast_2d(array), fmt="%.17g", newline="\n")


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
        "alpha": float(alpha),
        "beta": float(beta),
        "epsilon": float(epsilon),
        "seed": int(seed),
        "converged": bool(converged),
    }
    _write_text(meta_path, "".join(
        f"{key} {_cell_text(value)}\n" for key, value in meta.items()
    ))
    return [w_path, h_path, meta_path]


def _read_matrix(path):
    # Bytes that are not UTF-8 become U+FFFD, which loadtxt rejects below.
    lines = path.read_bytes().decode(errors="replace").splitlines()
    # loadtxt skips '#' comments and blank lines, and only warns when that
    # leaves no data.
    if not any(line.partition("#")[0].strip() for line in lines):
        raise ParseError(f"{path}: empty matrix file")
    try:
        matrix = np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: unreadable matrix ({exc})") from None
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: non-finite entry")
    return matrix


def _read_meta(path):
    """The values of a ``meta.txt``; every error names the file."""
    meta = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip(" \t\n")
                if not line:
                    continue
                parts = _GAP.split(line, maxsplit=1)
                if len(parts) != 2:
                    raise ParseError(f"malformed meta line {line!r}", line=line_no)
                if parts[0] in meta:
                    raise ParseError(f"{parts[0]!r} given twice", line=line_no)
                meta[parts[0]] = parts[1]
        parsed = {}
        for key, parse in _META_KEYS.items():
            if key not in meta:
                raise ParseError(f"incomplete factor header: no {key!r}")
            try:
                parsed[key] = parse(meta[key])
            except ValueError:
                raise ParseError(f"bad {key} value {meta[key]!r}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except ParseError as exc:  # ParseError.line stays
        exc.args = (f"{path}: {exc}",)
        raise
    return parsed


def read_factors(in_dir):
    """Read factors written by :func:`write_factors`.

    Returns ``(FactorPair, meta)`` where meta holds the parsed header
    values.  A ``meta.txt`` line that is not ``key value``, a key given
    twice, a missing key or a value outside its key's grammar (keys and values separated by ASCII
    spaces or tabs, integers as an optional sign and ASCII digits, floats as
    finite ASCII decimals, ``epsilon`` inside (0, 0.5), ``converged`` as
    ``true`` or ``false``) raises :class:`ParseError` naming ``meta.txt``.
    A matrix file that is empty, does not parse or holds a non-finite entry
    raises :class:`ParseError` naming the file; shape disagreements between
    the header and the matrices raise :class:`DimensionError`; factors that
    break the invariants of :meth:`FactorPair.validate` at the header's
    ``epsilon`` raise :class:`ParseError` naming both matrix files.
    """
    in_dir = Path(in_dir)
    parsed = _read_meta(in_dir / META_FILE)
    w_path, h_path = in_dir / W_FILE, in_dir / H_FILE
    W = _read_matrix(w_path)
    H = _read_matrix(h_path)
    expected_w = (parsed["n_rows"], parsed["rank"])
    expected_h = (parsed["rank"], parsed["n_cols"])
    if W.shape != expected_w or H.shape != expected_h:
        raise DimensionError(
            f"factor files have shapes {W.shape} and {H.shape}, "
            f"header says {expected_w} and {expected_h}"
        )
    factors = FactorPair(W, H)
    try:
        factors.validate(parsed["epsilon"])
    except ValueError as exc:
        raise ParseError(f"{w_path} and {h_path} are not valid factors: {exc}") from None
    return factors, parsed


def write_report(path, report):
    """Write a :class:`FitReport` as JSON."""
    _write_json(path, report.to_dict())


def read_report(path):
    with open(path, encoding="utf-8") as handle:
        return FitReport.from_dict(json.load(handle))
