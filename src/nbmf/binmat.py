"""Binary matrix storage, coordinate-file I/O, and seeded observation splits.

A dataset is an M-by-N grid of {0,1} values stored sparsely by the cells
holding a 1; every cell not listed is an observed 0, not a missing value.
Missingness is expressed separately through :class:`ObservationMask`
objects, so the same matrix can be trained and scored on disjoint subsets of
its cells (matrix completion).

Both types store their cells as one sorted, duplicate-free, read-only
array of linear indices ``row * n_cols + col`` (the ``linear``
attribute): ``int32`` while the grid has at most 2**31 - 1 cells, so that
every index fits, and ``int64`` beyond (:func:`_index_dtype`).  Parsing,
writing, splitting, densifying and scoring all work on that array;
``BinaryMatrix.ones``, a frozenset of ``(row, col)`` tuples, is a view
built on demand for callers that want a Python set.  Nothing in the package
uses it.

All types here are immutable after construction and safe to share across
threads.  Datasets and masks are written here, and every file of the
package through :func:`_replaced`, whole or not at all.
"""

from __future__ import annotations

import io
import math
import numbers
import operator
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    DuplicateError,
    NbmfError,
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

_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max
# Index arrays are built and read this many cells at a time, so their int64
# and intp temporaries stay cache-sized.
_CELL_CHUNK = 1 << 16


def _index_dtype(n_rows, n_cols):
    """The dtype of an ``n_rows`` by ``n_cols`` grid's linear indices:
    ``int32`` when every cell's index fits in it, else ``int64``."""
    return np.dtype(np.int32 if n_rows * n_cols <= _INT32_MAX else np.int64)


def _intp_chunks(linear):
    """``(start, chunk)`` pairs that cover ``linear`` in ``_CELL_CHUNK``
    pieces, each chunk copied into one reused ``intp`` buffer.

    numpy indexes with ``intp`` arrays on its fast path and casts any other
    index through a slower buffered one, so consumers convert a chunk at a
    time and never the whole array.  A chunk is overwritten by the next.
    """
    buffer = np.empty(min(linear.size, _CELL_CHUNK), dtype=np.intp)
    for start in range(0, linear.size, _CELL_CHUNK):
        chunk = buffer[:min(_CELL_CHUNK, linear.size - start)]
        chunk[...] = linear[start:start + _CELL_CHUNK]
        yield start, chunk


def _flatnonzero(flags, dtype):
    """``np.flatnonzero(flags)`` as ``dtype``, found ``_CELL_CHUNK`` cells at
    a time, so no ``intp`` array of every index is made."""
    flags = np.ravel(flags)
    found = np.empty(np.count_nonzero(flags), dtype=dtype)
    n_found = 0
    for start in range(0, flags.size, _CELL_CHUNK):
        part = flags[start:start + _CELL_CHUNK].nonzero()[0]
        # Every index is below flags.size, which dtype holds.
        np.add(part, start, out=found[n_found:n_found + part.size], casting="unsafe")
        n_found += part.size
    return found


def _integer_setting(name, value, minimum=None):
    """``operator.index(value)``, a plain ``int`` even for a bool or a numpy
    integer; a :class:`ConfigError` naming ``name`` if it is not an integer
    or is below ``minimum``.  The package's one check of an integer setting."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return number


def _float_setting(name, value, low=-math.inf, high=math.inf, ends="()"):
    """``float(value)`` if it is a finite real number in the interval ``low``
    to ``high``, open or closed as ``ends`` shows, else a :class:`ConfigError`
    naming ``name``: the package's one check of a real-valued setting."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond every float
        number = math.inf if value > 0 else -math.inf
    inside = low <= number <= high if ends == "[]" else low < number < high
    if not (inside and math.isfinite(number)):
        raise ConfigError(f"{name} must be a finite number in {ends[0]}{low:g}, "
                          f"{high:g}{ends[1]}, got {number}")
    return number


@contextmanager
def _replaced(path):
    """A binary handle on ``.<name>.tmp`` beside ``path``, renamed over
    ``path`` when the block ends and removed if it raises."""
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.tmp")
    try:
        with open(temporary, "wb") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temporary)
        raise


def _linear_from_pairs(pairs, n_rows, n_cols, what):
    """Sorted unique linear indices of an iterable of (row, col) pairs."""
    coords = np.asarray(list(pairs))
    dtype = _index_dtype(n_rows, n_cols)
    if coords.size == 0:
        return np.empty(0, dtype=dtype)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"each {what} must be a (row, col) pair")
    if coords.dtype.kind not in "iu":
        raise ValueError(f"{what} indices must be integers")
    rows, cols = coords[:, 0], coords[:, 1]
    outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if outside.any():
        r, c = coords[np.argmax(outside)].tolist()
        raise BoundsError(f"{what} ({r}, {c}) outside a {n_rows}x{n_cols} grid")
    linear = np.empty(len(coords), dtype=dtype)
    for start in range(0, linear.size, _CELL_CHUNK):
        part = coords[start:start + _CELL_CHUNK].astype(np.int64)
        linear[start:start + len(part)] = part[:, 0] * n_cols + part[:, 1]
    return np.unique(linear)


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
        """Wrap indices already known to be sorted, unique and in bounds.

        The package's producers pass the grid's index dtype already; the
        cast is for other callers and for pickles of other dtypes.
        """
        self = object.__new__(cls)
        self._set(n_rows, n_cols, np.asarray(linear, dtype=_index_dtype(n_rows, n_cols)))
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

    def _dense(self, dtype, fill):
        dense = np.zeros(self.n_rows * self.n_cols, dtype=dtype)
        for _, cells in _intp_chunks(self.linear):
            dense[cells] = fill
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
        rows, cols = self._pairs()
        return frozenset(zip(rows.tolist(), cols.tolist()))

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
        # A boolean array is its own ones, read without a copy; nonzero on
        # a boolean array is several times faster than on floats.
        if array.dtype == bool:
            ones = array
        else:
            values = array.astype(float, copy=False)
            ones = values == 1.0
            if not (ones | (values == 0.0)).all():
                raise ValueError("entries must be 0 or 1")
        return cls._from_linear(array.shape[0], array.shape[1],
                                _flatnonzero(ones, _index_dtype(*array.shape)))


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
        object.__setattr__(self, "seed", _integer_setting("seed", self.seed))
        for name in ("train_frac", "val_frac", "test_frac"):
            frac = _float_setting(name, getattr(self, name), 0.0, 1.0)
            object.__setattr__(self, name, frac)
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"fractions must sum to 1, got {total}")


# SplitMix64 output function.  A fixed, documented 64-bit generator is used
# for the shuffle (rather than a library RNG) so a split is reproducible from
# its seed by any implementation of the same arithmetic.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_at(seed, steps):
    """SplitMix64 outputs number ``steps`` (1-based, ``uint64``) for ``seed``.

    ``steps`` is overwritten with the outputs, which are returned.
    """
    z = steps
    with np.errstate(over="ignore"):
        z *= _GOLDEN
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _splitmix64_keys(seed, count):
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``."""
    return _splitmix64_at(seed, np.arange(1, count + 1, dtype=np.uint64))


# The split ranks cells by the top _BUCKET_BITS bits of their keys first, so
# it holds 2 bytes per cell instead of every 8-byte key; _CELL_CHUNK keys at
# a time stay cache-sized while they are made.
_BUCKET_BITS = 12


def split_observations(matrix, spec):
    """Partition all M*N cells into train/validation/test masks.

    Cells are ranked by per-cell SplitMix64 keys derived from
    ``spec.seed``, then cut by the fractions: train takes the
    floor(train_frac * M * N) lowest keys, validation the next
    floor(val_frac * M * N), and test the remainder.  The same spec always
    yields identical masks.
    """
    if not isinstance(spec, SplitSpec):
        raise ConfigError("spec must be a SplitSpec")
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    total = n_rows * n_cols
    # numpy refuses an array of more bytes than an intp holds with a
    # ValueError; the 2-byte buckets of so many cells are out of memory.
    if total > np.iinfo(np.intp).max // 2:
        raise MemoryError(f"the split of a {n_rows}x{n_cols} matrix exceeds "
                          "the largest possible array")

    # Bucket select: each cell's bucket is its key's top bits, so every key
    # in bucket b is below every key in bucket b + 1.
    shift = np.uint64(64 - _BUCKET_BITS)
    bucket = np.empty(total, dtype=np.uint16)
    counts = np.zeros(1 << _BUCKET_BITS, dtype=np.intp)
    for start in range(0, total, _CELL_CHUNK):
        stop = min(start + _CELL_CHUNK, total)
        keys = _splitmix64_at(spec.seed, np.arange(start + 1, stop + 1, dtype=np.uint64))
        bucket[start:stop] = keys >> shift
        counts += np.bincount(bucket[start:stop], minlength=counts.size)
    below = np.cumsum(counts)  # below[b]: cells in buckets 0..b

    n_train = math.floor(spec.train_frac * total)
    n_val = math.floor(spec.val_frac * total)

    # The keys are distinct (SplitMix64 maps distinct states to distinct
    # outputs), so selecting the keys of rank n_train and n_train + n_val
    # is enough: a cell's label is the number of those keys it reaches.
    # Each cut's key is selected among the keys of its bucket alone,
    # regenerated from their cells' indices.  Rounding can put a cut at
    # ``total`` (no test cell); it is skipped.
    phase = np.zeros(total, dtype=np.int8)
    for n in (n_train, n_train + n_val):
        if n >= total:
            continue
        b = int(np.searchsorted(below, n, side="right"))
        cells = np.flatnonzero(bucket == b)
        keys = _splitmix64_at(spec.seed, cells.astype(np.uint64) + np.uint64(1))
        rank = n - int(below[b] - counts[b])
        cut = np.partition(keys, rank)[rank]
        phase += bucket > b
        phase[cells] += keys >= cut
    del bucket  # 2 bytes per cell that the masks need not wait beside
    dtype = _index_dtype(n_rows, n_cols)
    return tuple(ObservationMask._from_linear(n_rows, n_cols, _flatnonzero(phase == k, dtype))
                 for k in range(3))


def density(matrix):
    """Fraction of cells equal to 1."""
    total = matrix.n_rows * matrix.n_cols
    if total == 0:
        raise DimensionError("density of an empty matrix is undefined")
    return matrix.linear.size / total


# ---------------------------------------------------------------------------
# Coordinate text format
#
# UTF-8 text; LF, CRLF and a lone CR each end a line.  Lines whose first
# character other than a space or tab is '#' and lines of only spaces and
# tabs are ignored.  The first data line is "M N"; each further data line is
# "row col" (0-based) naming a cell that holds a 1 (for a matrix) or belongs
# to the mask (for a mask).  Tokens are ASCII digits after an optional sign,
# separated by spaces and tabs; a data line holds nothing else.
#
# Both directions work through chunks of whole lines of about _CHUNK_BYTES
# bytes, so their temporaries stay cache-sized whatever the file's length.
# The writer builds each chunk's lines right-aligned in a fixed-width byte
# matrix whose leading-zero cells hold 0 and drops those cells in one pass.
# The reader finds the chunks and their first lines' numbers in one pass,
# whose line count also sizes the index array, and reads them in a second,
# so the text is never held whole; the array takes the grid's dtype once the
# header is read.  A chunk ends after the last line end of any kind in the
# block read from its start (a longer line runs on to its own end), so no
# chunk holds more than one block and the rest of one line.  A vectorised
# parser reads every chunk it can decide: it finds the token ends and
# newlines as int32 positions and reads the digits of the tokens by gathers
# back from the ends.  Any other chunk (an error, a '-' sign, a token of
# over _MAX_DIGITS digits, or a byte other than a digit, '+', space, tab or
# line end outside a comment) goes to the line-by-line scanner, which
# defines the format: it reads the chunk's lines up to the first error and
# names that error's line.  Repeated cells show once the array is sorted; a
# second pass then names the first line that repeats one, unless an error
# comes first.
# ---------------------------------------------------------------------------

_DIGIT0, _SPACE, _NEWLINE = ord("0"), ord(" "), ord("\n")
# A sign and ASCII digits; int() alone would also take "1_0" and other digits.
_TOKEN = re.compile(r"[+-]?[0-9]+")
# str.split() would also split at control characters and non-ASCII spaces.
_GAP = re.compile(r"[ \t]+")
# A line end, as universal newlines read it.
_LINE_END = re.compile(rb"\r\n?|\n")
# A comment line up to its newline, and a '+' that does not start a token:
# no digit follows it, or one precedes it.
_COMMENT = re.compile(rb"^[ \t]*#[^\n]*", re.MULTILINE)
_MISPLACED_SIGN = re.compile(rb"\+(?:(?![0-9])|(?<=[0-9]\+))")
# Chosen by timing the reader and the writer on 700k- and 4.2M-line files.
_CHUNK_BYTES = 1 << 17
# The vectorised parser reads tokens of up to this many digits, which an
# int64 always holds; the scanner reads a longer one, such as
# "0000000000000000002" for 2.
_MAX_DIGITS = 18


def _scan_lines(chunk, line_no, shape, duplicate=-1):
    """Read the whole lines ``chunk``, numbered from ``line_no``, one at a
    time after a header of ``shape`` (None if none was read yet).

    Returns the shape, the ``int64`` row and column pairs of the data lines
    before the first error, and that error, or None.  The chunk's cell number
    ``duplicate``, counted from 0, is a :class:`DuplicateError`.
    """
    # A line break ends each line but the last.
    pairs = np.empty((chunk.count(b"\n") + chunk.count(b"\r") + 1, 2), dtype=np.int64)
    n_pairs, error = 0, None
    # Universal newlines, as the line numbers count.  Bytes that are not
    # UTF-8 decode to lone surrogates from U+DC80 to U+DCFF, which no UTF-8
    # text holds, so the line that carries one can be named.
    text = io.StringIO(chunk.decode("utf-8", "surrogateescape"), newline=None)
    try:
        for line_no, raw in enumerate(text, start=line_no):
            if not raw.isascii() and any("\udc80" <= c <= "\udcff" for c in raw):
                raise ParseError("not UTF-8 text", line=line_no)
            line = raw.strip(" \t\n")
            if not line or line.startswith("#"):
                continue
            parts = _GAP.split(line)
            if len(parts) != 2 or not all(map(_TOKEN.fullmatch, parts)):
                raise ParseError(f"expected two integers, got {line!r}", line=line_no)
            first, second = int(parts[0]), int(parts[1])
            if shape is None:
                if first < 0 or second < 0:
                    raise ParseError(f"negative shape {line!r}", line=line_no)
                if first * second > _INT64_MAX:
                    raise DimensionError(f"line {line_no}: a {first}x{second} "
                                         "grid has too many cells")
                shape = (first, second)
                continue
            if not (0 <= first < shape[0] and 0 <= second < shape[1]):
                raise BoundsError(
                    f"line {line_no}: coordinate ({first}, {second}) outside a "
                    f"{shape[0]}x{shape[1]} grid"
                )
            if n_pairs == duplicate:
                raise DuplicateError(
                    f"line {line_no}: coordinate ({first}, {second}) listed twice"
                )
            pairs[n_pairs] = first, second
            n_pairs += 1
    except NbmfError as exc:
        error = exc
    return shape, pairs[:n_pairs].ravel(), error


def _chunk_values(chunk):
    """The integer tokens of the whole lines ``chunk``, as ``int64``.

    None unless the chunk is UTF-8 and every line but a comment holds zero
    or two tokens of at most _MAX_DIGITS digits, each after an optional '+',
    with spaces and tabs between them; LF, CRLF and a lone CR each end a
    line.  Byte positions are ``int32``, and each temporary is dropped once
    read.
    """
    if not chunk.isascii():
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if b"\r" in chunk:
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in chunk:
        chunk = _COMMENT.sub(b"", chunk)
    if b"+" in chunk:
        if _MISPLACED_SIGN.search(chunk):
            return None
        chunk = chunk.replace(b"+", b" ")
    buf = np.frombuffer(chunk.replace(b"\t", b" "), dtype=np.uint8)
    if buf.size >= _INT32_MAX:
        return None
    # Each byte's digit value (above 9 for a separator), after _MAX_DIGITS
    # values of 10, so that reading that many bytes before a token stays
    # inside and finds no digit.
    digit = np.full(_MAX_DIGITS + buf.size, 10, dtype=np.uint8)
    np.subtract(buf, np.uint8(_DIGIT0), out=digit[_MAX_DIGITS:])
    is_digit = digit[_MAX_DIGITS:] <= 9
    is_newline = buf == _NEWLINE
    if not (is_digit | is_newline | (buf == _SPACE)).all():
        return None
    # Mark each token's last digit and each newline; between the marks of
    # two consecutive tokens lie the newlines of the gap between them.
    marked = is_digit  # reused in place
    marked[:-1] &= ~is_digit[1:]
    marked |= is_newline
    marks = _flatnonzero(marked, np.int32)
    del marked, is_digit
    tokens = np.flatnonzero(~is_newline[marks])
    del is_newline
    if tokens.size % 2:
        return None
    # No newline between the tokens of a pair, at least one between a pair
    # and the next.
    gaps = np.diff(tokens)
    if (gaps[0::2] != 1).any() or (gaps[1::2] == 1).any():
        return None
    del gaps
    ends = marks[tokens]
    del marks, tokens
    # numpy gathers by intp indices several times faster than by int32.
    ends = ends.astype(np.intp)
    # Digit k of each token counted from its last byte, until a token's
    # byte k places back is no digit.
    values = digit[_MAX_DIGITS:][ends].astype(np.int64)
    alive = np.ones(ends.size, dtype=bool)
    for k in range(1, _MAX_DIGITS + 1):
        place = digit[_MAX_DIGITS - k:][ends]
        alive &= place <= 9
        if not alive.any():
            return values
        if k == _MAX_DIGITS:
            return None  # a longer token
        place *= alive
        # Widen before scaling: a uint8 product may wrap under value-based
        # casting (NumPy < 2).
        values += np.multiply(place, 10**k, dtype=np.int64)


def _parse(handle, repeated=None):
    """``(n_rows, n_cols, linear)`` of the file read from the binary ``handle``.

    Raises the error of the first line that breaks the format or repeats a
    cell.  Repeated cells show in the sorted array; a second pass, given
    their sorted indices as ``repeated``, names the first line to repeat one.
    """
    # The byte offset and the first line's number of each chunk of whole
    # lines, and of the end.
    starts, long_line = [(0, 1)], False
    handle.seek(0)
    while block := handle.read(_CHUNK_BYTES):
        if block.endswith(b"\r") and handle.read(1) == b"\n":
            block += b"\n"  # a CR that ends the block takes the LF of its CRLF
        if long_line:  # the last entry is where the line has reached
            end, line_no = starts.pop()
            cut = found.end() if (found := _LINE_END.search(block)) else 0
        else:
            end, line_no = starts[-1]
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        long_line = not cut
        line_no += block.count(b"\n", 0, cut)
        if b"\r" in block:
            line_no += block.count(b"\r", 0, cut) - block.count(b"\r\n", 0, cut)
        starts.append((end + (cut or len(block)), line_no))
        handle.seek(starts[-1][0])
    handle.seek(0)
    shape, linear, n_cells, ordered, error = None, None, 0, True, None
    seen = None if repeated is None else np.zeros(repeated.size, dtype=bool)
    for (start, line_no), (end, _) in zip(starts, starts[1:]):
        chunk, known = handle.read(end - start), shape
        values = _chunk_values(chunk)
        if values is not None and values.size and shape is None:
            shape = tuple(values[:2].tolist())
            values = values[2:] if shape[0] * shape[1] <= _INT64_MAX else None
        if values is None or values.size and (
                (values[0::2] >= shape[0]).any() or (values[1::2] >= shape[1]).any()):
            shape, values, error = _scan_lines(chunk, line_no, known)
        if linear is None and shape is not None:
            # A pair takes a line of its own after the header's, so the line
            # breaks bound the number of pairs.  The header fixes the dtype;
            # the cells are written straight into it.
            linear = np.empty(starts[-1][1] - 1, dtype=_index_dtype(*shape))
        if values.size:
            cells = linear[n_cells:n_cells + values.size // 2]
            np.multiply(values[0::2], shape[1], out=cells)
            cells += values[1::2]
            # Files written by this module list their cells in increasing order.
            run = linear[max(n_cells - 1, 0):n_cells + cells.size]
            ordered = ordered and bool((run[1:] > run[:-1]).all())
            n_cells += cells.size
            if repeated is not None:
                for index in np.flatnonzero(np.isin(cells, repeated)):
                    slot = np.searchsorted(repeated, cells[index])
                    if seen[slot]:
                        raise _scan_lines(chunk, line_no, known, index)[2]
                    seen[slot] = True
        if error is not None:
            break
    if shape is None:
        raise error or ParseError("missing 'M N' header line")
    linear = linear[:n_cells]
    if not ordered:
        linear.sort()
        repeated = linear[1:][linear[1:] == linear[:-1]]
        if repeated.size:
            del linear, cells  # and with them this pass's array
            _parse(handle, repeated)  # raises the DuplicateError
    if error is not None:
        raise error
    return *shape, linear


def _read_coords(path, cls):
    try:
        with open(path, "rb") as handle:
            return cls._from_linear(*_parse(handle))
    except NbmfError as exc:  # every error names the file; ParseError.line stays
        exc.args = (f"{path}: {exc}",)
        raise


def _put_digits(block, values):
    """Right-align each value's decimal digits in its row of ``block``.

    Leading-zero cells are set to 0 for the writer to drop.
    """
    rest = values
    for j in reversed(range(block.shape[1])):
        quotient = rest // 10
        digit = rest - quotient * 10
        digit += _DIGIT0
        if j < block.shape[1] - 1:
            digit *= rest != 0
        block[:, j] = digit
        rest = quotient


def _write_coords(handle, grid):
    """Write the header and one "row col" line per cell, in sorted order, to
    the binary ``handle``."""
    n_rows, n_cols = grid.shape
    handle.write(f"{n_rows} {n_cols}\n".encode("ascii"))
    row_width, col_width = len(str(n_rows - 1)), len(str(n_cols - 1))
    width = row_width + col_width + 2
    step = max(1, _CHUNK_BYTES // width)
    for start in range(0, grid.linear.size, step):
        rows, cols = np.divmod(grid.linear[start:start + step], n_cols)
        lines = np.empty((rows.size, width), dtype=np.uint8)
        _put_digits(lines[:, :row_width], rows)
        lines[:, row_width] = _SPACE
        _put_digits(lines[:, row_width + 1:-1], cols)
        lines[:, -1] = _NEWLINE
        handle.write(lines[lines != 0])


def load_coordinate_file(path):
    """Read a :class:`BinaryMatrix` from the coordinate text format."""
    return _read_coords(path, BinaryMatrix)


def save_coordinate_file(matrix, path):
    """Write a :class:`BinaryMatrix` in the coordinate text format."""
    with _replaced(path) as handle:
        _write_coords(handle, matrix)


def load_mask(path):
    """Read an :class:`ObservationMask` from the coordinate text format."""
    return _read_coords(path, ObservationMask)


def save_mask(mask, path):
    """Write an :class:`ObservationMask` in the coordinate text format."""
    with _replaced(path) as handle:
        _write_coords(handle, mask)
