"""Binary matrix storage, coordinate-file I/O, and seeded observation splits.

A dataset is an M-by-N grid of {0,1} values stored sparsely by the cells
holding a 1; every cell not listed is an observed 0, not a missing value.
Missingness is expressed separately through :class:`ObservationMask`
objects, so the same matrix can be trained and scored on disjoint subsets of
its cells (matrix completion).

Both types store their cells as one sorted, duplicate-free, read-only
``int64`` array of linear indices ``row * n_cols + col`` (the ``linear``
attribute).  Parsing, writing, splitting, densifying and scoring all work on
that array; the ``ones`` and ``cells`` frozensets of ``(row, col)`` tuples
are views built on demand for callers that want Python sets.

All types here are immutable after construction and safe to share across
threads; the operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    DuplicateError,
    ParseError,
)

__all__ = [
    "BinaryMatrix",
    "ObservationMask",
    "SplitSpec",
    "load_coordinate_file",
    "save_coordinate_file",
    "load_mask",
    "save_mask",
    "split_observations",
    "density",
]

_INT64_MAX = np.iinfo(np.int64).max


def _linear_from_pairs(pairs, n_rows, n_cols, what):
    """Sorted unique linear indices of an iterable of (row, col) pairs."""
    coords = np.asarray(list(pairs))
    if coords.size == 0:
        return np.empty(0, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"each {what} must be a (row, col) pair")
    if coords.dtype.kind not in "iu":
        raise ValueError(f"{what} indices must be integers")
    rows, cols = coords[:, 0], coords[:, 1]
    outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if outside.any():
        r, c = coords[np.argmax(outside)].tolist()
        raise BoundsError(f"{what} ({r}, {c}) outside a {n_rows}x{n_cols} grid")
    return np.unique(rows.astype(np.int64) * n_cols + cols.astype(np.int64))


class _CellGrid:
    """An M-by-N shape plus the sorted linear indices of the cells it holds."""

    __slots__ = ("n_rows", "n_cols", "linear")

    def __init__(self, n_rows, n_cols, cells):
        n_rows, n_cols = operator.index(n_rows), operator.index(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise DimensionError(f"{self._kind} shape must be nonnegative")
        if n_rows * n_cols > _INT64_MAX:
            raise DimensionError(f"a {n_rows}x{n_cols} grid has too many cells")
        self._set(n_rows, n_cols, _linear_from_pairs(cells, n_rows, n_cols, self._what))

    @classmethod
    def _from_linear(cls, n_rows, n_cols, linear):
        """Wrap indices already known to be sorted, unique and in bounds."""
        self = object.__new__(cls)
        self._set(n_rows, n_cols, np.asarray(linear, dtype=np.int64))
        return self

    def _set(self, n_rows, n_cols, linear):
        linear.flags.writeable = False
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "linear", linear)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self)._from_linear, (self.n_rows, self.n_cols, self.linear))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.linear, other.linear)

    def __hash__(self):
        return hash((type(self), self.shape, self.linear.tobytes()))

    def __repr__(self):
        return (f"{type(self).__name__}(n_rows={self.n_rows}, "
                f"n_cols={self.n_cols}, n_cells={self.linear.size})")

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def _pairs(self):
        return np.divmod(self.linear, self.n_cols)

    def _pair_set(self):
        rows, cols = self._pairs()
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def _dense(self, dtype, fill):
        dense = np.zeros(self.n_rows * self.n_cols, dtype=dtype)
        dense[self.linear] = fill
        return dense.reshape(self.shape)


class BinaryMatrix(_CellGrid):
    """An M-by-N matrix over {0,1}, stored as the linear indices of its ones.

    ``BinaryMatrix(n_rows, n_cols, ones)`` takes an iterable of ``(row, col)``
    pairs; repeated pairs collapse into one cell.
    """

    __slots__ = ()
    _kind = "matrix"
    _what = "coordinate"

    def __init__(self, n_rows, n_cols, ones):
        super().__init__(n_rows, n_cols, ones)

    @property
    def ones(self):
        """The 1-cells as a frozenset of ``(row, col)`` tuples (built per call)."""
        return self._pair_set()

    def ones_at(self, mask):
        """Boolean array: whether each cell of ``mask``, in sorted order, is a 1."""
        return np.isin(mask.linear, self.linear, assume_unique=True)

    def to_dense(self):
        """Return a fresh float64 array of 0.0/1.0 values."""
        return self._dense(float, 1.0)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array)
        if array.ndim != 2:
            raise DimensionError("expected a 2-d array")
        values = array.astype(float)
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("entries must be 0 or 1")
        return cls._from_linear(array.shape[0], array.shape[1], np.flatnonzero(values))


class ObservationMask(_CellGrid):
    """The cells visible to one phase (train/val/test), as linear indices.

    ``ObservationMask(n_rows, n_cols, cells)`` takes an iterable of
    ``(row, col)`` pairs; repeated pairs collapse into one cell.
    """

    __slots__ = ()
    _kind = "mask"
    _what = "mask cell"

    def __init__(self, n_rows, n_cols, cells):
        super().__init__(n_rows, n_cols, cells)

    @property
    def cells(self):
        """The member cells as a frozenset of ``(row, col)`` tuples (built per call)."""
        return self._pair_set()

    @property
    def n_cells(self):
        return self.linear.size

    def indices(self):
        """Row and column index arrays in sorted cell order.

        The fixed order makes every reduction over the mask deterministic.
        """
        return self._pairs()

    def shared_cells(self, other):
        """How many cells this mask and ``other`` both hold."""
        if other.shape != self.shape:
            raise DimensionError(f"mask shapes differ: {self.shape} and {other.shape}")
        return np.intersect1d(self.linear, other.linear, assume_unique=True).size

    def to_dense(self):
        """Return a fresh boolean membership array."""
        return self._dense(bool, True)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions and seed for a train/validation/test split over cells."""

    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name in ("train_frac", "val_frac", "test_frac"):
            frac = getattr(self, name)
            if not (0.0 < frac < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {frac}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"fractions must sum to 1, got {total}")


# SplitMix64 output function.  A fixed, documented 64-bit generator is used
# for the shuffle (rather than a library RNG) so a split is reproducible from
# its seed by any implementation of the same arithmetic.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_keys(seed, count):
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``."""
    state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = state + steps * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def split_observations(matrix, spec):
    """Partition all M*N cells into train/validation/test masks.

    Cells are shuffled by sorting on per-cell SplitMix64 keys derived from
    ``spec.seed``, then cut by the fractions: train takes
    floor(train_frac * M * N) cells, validation floor(val_frac * M * N),
    and test the remainder.  The same spec always yields identical masks.
    """
    if not isinstance(spec, SplitSpec):
        raise ConfigError("spec must be a SplitSpec")
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    total = n_rows * n_cols
    keys = _splitmix64_keys(spec.seed, total)
    order = np.argsort(keys, kind="stable")

    n_train = math.floor(spec.train_frac * total)
    n_val = math.floor(spec.val_frac * total)

    # Label every cell by the slice of the shuffle it falls in; reading the
    # labels back in cell order gives each mask already sorted.
    phase = np.empty(total, dtype=np.int8)
    phase[order[:n_train]] = 0
    phase[order[n_train:n_train + n_val]] = 1
    phase[order[n_train + n_val:]] = 2
    return tuple(
        ObservationMask._from_linear(n_rows, n_cols, np.flatnonzero(phase == k))
        for k in range(3)
    )


def density(matrix):
    """Fraction of cells equal to 1."""
    total = matrix.n_rows * matrix.n_cols
    if total == 0:
        raise DimensionError("density of an empty matrix is undefined")
    return matrix.linear.size / total


# ---------------------------------------------------------------------------
# Coordinate text format
#
# UTF-8 text, LF or CRLF.  Lines whose first non-blank character is '#' and
# blank lines are ignored.  The first data line is "M N"; each further data
# line is "row col" (0-based) naming a cell that holds a 1 (for a matrix) or
# belongs to the mask (for a mask).
#
# Files are parsed by a vectorised reader that accepts only the plain form
# (ASCII digits, spaces, LF or CRLF, comment lines starting at the line's
# first non-space byte) and only when every check passes.  Anything else goes
# to the line-by-line scanner, which defines the format: it either reads the
# file or raises an error naming the offending line.
# ---------------------------------------------------------------------------

_DIGIT0, _SPACE, _NEWLINE = ord("0"), ord(" "), ord("\n")


def _scan_coords(path):
    shape = None
    coords = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected two integers, got {line!r}", line=line_no)
            try:
                first, second = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"expected two integers, got {line!r}", line=line_no)
            if shape is None:
                if first < 0 or second < 0:
                    raise ParseError(f"negative shape {line!r}", line=line_no)
                shape = (first, second)
                continue
            if not (0 <= first < shape[0] and 0 <= second < shape[1]):
                raise BoundsError(
                    f"line {line_no}: coordinate ({first}, {second}) outside a "
                    f"{shape[0]}x{shape[1]} grid"
                )
            if (first, second) in seen:
                raise DuplicateError(
                    f"line {line_no}: coordinate ({first}, {second}) listed twice"
                )
            seen.add((first, second))
            coords.append((first, second))
    if shape is None:
        raise ParseError("missing 'M N' header line")
    return shape, coords


def _parse_plain(raw):
    """``(shape, linear)`` of a plain, valid file; None if the scanner must read it."""
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
        if b"\r" in raw:
            return None
    if b"#" in raw:
        raw = b"\n".join(
            b"" if line.lstrip(b" ").startswith(b"#") else line
            for line in raw.split(b"\n")
        )
    # Newline padding puts a non-digit before the first and after the last
    # token; it adds no line that holds a token.
    buf = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    is_digit = (buf >= _DIGIT0) & (buf <= _DIGIT0 + 9)
    is_newline = buf == _NEWLINE
    if not (is_digit | is_newline | (buf == _SPACE)).all():
        return None

    starts = np.flatnonzero(is_digit[1:] > is_digit[:-1]) + 1
    widths = np.flatnonzero(is_digit[:-1] > is_digit[1:]) + 1 - starts
    if starts.size < 2 or widths.max() > 18:
        return None
    # Every line holds zero or two tokens: no newline between the tokens of
    # a pair, at least one between a pair and the next.  (An odd count fails
    # too: its last token opens a pair, and the padding newline follows it.)
    newlines_to_next = np.add.reduceat(is_newline, starts, dtype=np.intp)
    if newlines_to_next[0::2].any() or not newlines_to_next[1:-1:2].all():
        return None

    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(widths.max())):
        live = widths > k
        values[live] = values[live] * 10 + (buf[starts[live] + k] - _DIGIT0)
    n_rows, n_cols = values[:2].tolist()
    if n_rows * n_cols > _INT64_MAX:
        return None
    rows, cols = values[2::2], values[3::2]
    if (rows >= n_rows).any() or (cols >= n_cols).any():
        return None
    linear = np.sort(rows * n_cols + cols)
    if (linear[1:] == linear[:-1]).any():
        return None
    return (n_rows, n_cols), linear


def _read_coords(path, cls):
    with open(path, "rb") as handle:
        parsed = _parse_plain(handle.read())
    if parsed is None:
        shape, coords = _scan_coords(path)
        return cls(shape[0], shape[1], coords)
    return cls._from_linear(*parsed[0], parsed[1])


def _decimal_width(values):
    width = np.ones(values.shape, dtype=np.int64)
    power = 10
    while power <= values.max(initial=0):
        width += values >= power
        power *= 10
    return width


def _put_digits(out, values, width, last):
    """Write each value's decimal digits into ``out``, ending at ``last``."""
    rest = values.copy()
    for k in range(int(width.max(initial=0))):
        live = width > k
        out[last[live] - k] = _DIGIT0 + rest[live] % 10
        rest //= 10


def _write_coords(path, grid):
    """Write the header and one "row col" line per cell, in sorted order."""
    rows, cols = grid._pairs()
    row_width, col_width = _decimal_width(rows), _decimal_width(cols)
    line_end = np.cumsum(row_width + col_width + 2)
    body = np.empty(line_end[-1] if line_end.size else 0, dtype=np.uint8)
    col_last = line_end - 2
    row_last = col_last - col_width - 1
    body[row_last + 1] = _SPACE
    body[line_end - 1] = _NEWLINE
    _put_digits(body, rows, row_width, row_last)
    _put_digits(body, cols, col_width, col_last)
    with open(path, "wb") as handle:
        handle.write(f"{grid.n_rows} {grid.n_cols}\n".encode("ascii"))
        handle.write(body.tobytes())


def load_coordinate_file(path):
    """Read a :class:`BinaryMatrix` from the coordinate text format."""
    return _read_coords(path, BinaryMatrix)


def save_coordinate_file(matrix, path):
    """Write a :class:`BinaryMatrix` in the coordinate text format."""
    _write_coords(path, matrix)


def load_mask(path):
    """Read an :class:`ObservationMask` from the coordinate text format."""
    return _read_coords(path, ObservationMask)


def save_mask(mask, path):
    """Write an :class:`ObservationMask` in the coordinate text format."""
    _write_coords(path, mask)
