import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import nbmf.binmat
from nbmf import (
    BinaryMatrix,
    BoundsError,
    ConfigError,
    DimensionError,
    DuplicateError,
    ObservationMask,
    ParseError,
    SplitSpec,
    density,
    load_coordinate_file,
    load_mask,
    random_binary_matrix,
    save_coordinate_file,
    save_mask,
    split_observations,
)


class TestBinaryMatrix:
    def test_basic_construction(self):
        m = BinaryMatrix(2, 2, frozenset([(0, 0), (1, 1)]))
        assert m.shape == (2, 2)
        np.testing.assert_array_equal(m.to_dense(), np.eye(2))

    def test_out_of_bounds_coordinate_rejected(self):
        with pytest.raises(BoundsError):
            BinaryMatrix(2, 2, frozenset([(0, 5)]))
        with pytest.raises(BoundsError):
            BinaryMatrix(2, 2, frozenset([(-1, 0)]))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((7, 5)) < 0.4).astype(float)
        m = BinaryMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_from_dense_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_dense(np.array([[0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0, -1.0, np.inf])
    def test_from_dense_rejects_each_non_binary_value(self, bad):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BinaryMatrix.from_dense(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_from_dense_takes_booleans_and_negative_zero(self):
        dense = np.array([[True, False, True], [False, False, True]])
        expected = [0, 2, 5]
        assert BinaryMatrix.from_dense(dense).linear.tolist() == expected
        signed = np.where(dense, 1.0, -0.0)
        assert BinaryMatrix.from_dense(signed).linear.tolist() == expected

    def test_absent_cell_is_zero(self):
        m = BinaryMatrix(3, 3, frozenset([(1, 2)]))
        dense = m.to_dense()
        assert dense[1, 2] == 1.0
        assert dense.sum() == 1.0


class TestObservationMask:
    def test_indices_sorted(self):
        mask = ObservationMask(3, 3, frozenset([(2, 1), (0, 2), (0, 0)]))
        rows, cols = mask.indices()
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 2), (2, 1)]

    def test_bounds_checked(self):
        with pytest.raises(BoundsError):
            ObservationMask(2, 2, frozenset([(2, 0)]))

    def test_dense_membership(self):
        mask = ObservationMask(2, 3, frozenset([(0, 1), (1, 2)]))
        dense = mask.to_dense()
        assert dense.dtype == bool
        assert dense.sum() == 2
        assert dense[0, 1] and dense[1, 2]


class TestSplitSpec:
    def test_defaults_are_valid(self):
        spec = SplitSpec()
        assert spec.train_frac == 0.7 and spec.seed == 0

    @pytest.mark.parametrize(
        "fracs",
        [(0.5, 0.25, 0.3), (0.7, 0.2, 0.2), (1.0, 0.0, 0.0), (-0.1, 0.6, 0.5)],
    )
    def test_bad_fractions_rejected(self, fracs):
        with pytest.raises(ConfigError):
            SplitSpec(*fracs, seed=0)

    def test_fractional_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SplitSpec(seed=1.5)


class TestSplitObservations:
    def test_exact_fraction_sizes(self):
        Y = random_binary_matrix(10, 10, 0.5, seed=0)
        train, val, test = split_observations(Y, SplitSpec(0.7, 0.15, 0.15, seed=0))
        assert (train.n_cells, val.n_cells, test.n_cells) == (70, 15, 15)

    def test_remainder_rule_on_animals_shape(self):
        # floor(0.7 * 4250) = 2975, floor(0.15 * 4250) = 637, rest = 638
        Y = BinaryMatrix(50, 85, frozenset())
        train, val, test = split_observations(Y, SplitSpec(seed=123))
        assert (train.n_cells, val.n_cells, test.n_cells) == (2975, 637, 638)

    def test_partition_exhaustive(self):
        Y = random_binary_matrix(6, 7, 0.3, seed=1)
        train, val, test = split_observations(Y, SplitSpec(seed=9))
        assert train.shared_cells(val) == 0
        assert train.shared_cells(test) == 0
        assert val.shared_cells(test) == 0
        union = np.concatenate([train.linear, val.linear, test.linear])
        assert sorted(union.tolist()) == list(range(6 * 7))

    def test_deterministic_in_seed(self):
        Y = random_binary_matrix(12, 9, 0.5, seed=2)
        spec = SplitSpec(seed=77)
        first = split_observations(Y, spec)
        second = split_observations(Y, spec)
        for a, b in zip(first, second):
            assert a == b

    def test_different_seeds_differ(self):
        Y = random_binary_matrix(10, 10, 0.5, seed=3)
        a = split_observations(Y, SplitSpec(seed=0))[0]
        b = split_observations(Y, SplitSpec(seed=1))[0]
        assert a != b

    def test_split_depends_only_on_shape(self):
        spec = SplitSpec(seed=5)
        a = split_observations(random_binary_matrix(8, 8, 0.2, seed=0), spec)
        b = split_observations(random_binary_matrix(8, 8, 0.9, seed=1), spec)
        for left, right in zip(a, b):
            assert left == right

    def test_shuffle_keys_match_reference_splitmix64(self):
        # known-answer test against a scalar transcription of the published
        # algorithm; keeps splits reproducible by other implementations
        from nbmf.binmat import _splitmix64_keys

        def reference(seed, count):
            out, state = [], seed & (2**64 - 1)
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) % 2**64
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
                out.append(z ^ (z >> 31))
            return out

        for seed in (0, 1, -1, 2**70 + 5):
            assert [int(v) for v in _splitmix64_keys(seed, 4)] == \
                reference(seed, 4)
        assert int(_splitmix64_keys(0, 1)[0]) == 0xE220A8397B1DCDAF


class TestDensity:
    def test_all_zero(self):
        assert density(BinaryMatrix(3, 3, frozenset())) == 0.0

    def test_identity_pattern(self):
        assert density(BinaryMatrix(2, 2, frozenset([(0, 0), (1, 1)]))) == 0.5

    def test_seven_of_twenty(self):
        ones = frozenset([(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (3, 0), (2, 1)])
        assert density(BinaryMatrix(4, 5, ones)) == pytest.approx(0.35)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            density(BinaryMatrix(0, 5, frozenset()))


class TestCoordinateFile:
    def test_identity_pattern(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("2 2\n0 0\n1 1\n")
        m = load_coordinate_file(path)
        np.testing.assert_array_equal(m.to_dense(), np.eye(2))

    def test_header_only_gives_all_zero(self, tmp_path):
        path = tmp_path / "animals_shape.txt"
        path.write_text("50 85\n")
        m = load_coordinate_file(path)
        assert m.shape == (50, 85)
        assert density(m) == 0.0

    def test_out_of_bounds_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 5\n")
        with pytest.raises(BoundsError, match="line 2"):
            load_coordinate_file(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0\nnot numbers\n")
        with pytest.raises(ParseError, match="line 3"):
            load_coordinate_file(path)
        path.write_text("2 2\n0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_coordinate_file(path)

    @pytest.mark.parametrize("data, line", [
        (b"3 3\n0 1\n\xff 2\n", 3),
        (b"3 3\r# caf\xe9\n0 1\n", 2),  # in a comment, after a bare CR
        (b"3 3\n0 1\n2 2 \xe2\x82\n", 3),  # a sequence cut short
    ])
    def test_non_utf8_byte_names_line(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"line {line}: not UTF-8 text"):
            load_coordinate_file(path)

    @pytest.mark.parametrize("pair", ["1_0 3", "2 \u0661", "\uff12 3", "2 1\u0663"],
                             ids=["underscore", "arabic-indic", "fullwidth", "mixed"])
    def test_token_is_a_sign_and_ascii_digits(self, tmp_path, pair):
        path = tmp_path / "bad.txt"
        path.write_text(f"20 20\n+2 -0\n{pair}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: expected two integers"):
            load_coordinate_file(path)

    def test_oversized_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("# 2**64 cells\n4294967296 4294967296\n0 0\n")
        with pytest.raises(DimensionError, match="too many cells") as info:
            load_mask(path)
        assert str(info.value).startswith(f"{path}: line 2: ")

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 3\n1 1\n1 1\n")
        with pytest.raises(DuplicateError, match="line 3"):
            load_coordinate_file(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError):
            load_coordinate_file(path)

    def test_comments_blanks_and_crlf_tolerated(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_bytes(b"# header comment\r\n2 3\r\n\r\n0 1\r\n# mid\r\n1 2\r\n")
        m = load_coordinate_file(path)
        assert m.linear.tolist() == [0 * 3 + 1, 1 * 3 + 2]

    def test_round_trip(self, tmp_path):
        for seed in range(5):
            m = random_binary_matrix(9, 4, 0.35, seed=seed)
            path = tmp_path / f"m{seed}.txt"
            save_coordinate_file(m, path)
            assert load_coordinate_file(path) == m

    def test_mask_round_trip(self, tmp_path):
        Y = random_binary_matrix(8, 6, 0.5, seed=0)
        train, val, test = split_observations(Y, SplitSpec(seed=4))
        for i, mask in enumerate((train, val, test)):
            path = tmp_path / f"mask{i}.txt"
            save_mask(mask, path)
            assert load_mask(path) == mask

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "mask.txt"
        save_mask(ObservationMask(2, 2, [(0, 1)]), path)
        before = path.read_bytes()
        calls = []
        real_put_digits = nbmf.binmat._put_digits

        def failing_put_digits(block, values):
            calls.append(values.size)
            if len(calls) == 4:  # the column digits of the second chunk
                raise OSError("no space left on device")
            real_put_digits(block, values)

        monkeypatch.setattr(nbmf.binmat, "_CHUNK_BYTES", 64)
        monkeypatch.setattr(nbmf.binmat, "_put_digits", failing_put_digits)
        mask = ObservationMask(50, 50, [(r, c) for r in range(50) for c in (0, 25)])
        with pytest.raises(OSError, match="no space left"):
            save_mask(mask, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["mask.txt"]


class TestIndexStorage:
    def test_linear_indices_sorted_unique_read_only(self):
        m = BinaryMatrix(3, 4, [(2, 1), (0, 3), (2, 1), (1, 0)])
        assert m.linear.dtype == np.int32
        assert m.linear.tolist() == [3, 4, 9]
        with pytest.raises(ValueError):
            m.linear[0] = 0

    def test_views_match_pairs(self):
        pairs = frozenset([(0, 0), (1, 2), (2, 1)])
        assert BinaryMatrix(3, 3, pairs).ones == pairs
        rows, cols = ObservationMask(3, 3, iter(pairs)).indices()
        assert frozenset(zip(rows.tolist(), cols.tolist())) == pairs

    def test_equality_and_hash_follow_content(self):
        a = ObservationMask(2, 3, [(0, 1), (1, 2)])
        b = ObservationMask(2, 3, [(1, 2), (0, 1), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != ObservationMask(3, 2, [(0, 1), (1, 1)])
        assert a != BinaryMatrix(2, 3, [(0, 1), (1, 2)])
        assert len({a, b}) == 1

    def test_immutable_and_picklable(self):
        mask = ObservationMask(2, 2, [(1, 0)])
        with pytest.raises(AttributeError):
            mask.n_rows = 5
        assert pickle.loads(pickle.dumps(mask)) == mask

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError):
            BinaryMatrix(2, 2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            BinaryMatrix(2, 2, [(0.0, 1.0)])

    def test_ones_at(self):
        m = BinaryMatrix(2, 3, [(0, 1), (1, 2)])
        mask = ObservationMask(2, 3, [(1, 2), (0, 0), (1, 1), (0, 1)])
        assert m.ones_at(mask).tolist() == [False, True, False, True]
        assert BinaryMatrix(2, 3, []).ones_at(mask).tolist() == [False] * 4
        wide = BinaryMatrix(2, 10**9, [(1, 10**9 - 1), (0, 7)])
        far = ObservationMask(2, 10**9, [(0, 7), (1, 0), (1, 10**9 - 1)])
        assert wide.ones_at(far).tolist() == [True, False, True]

    def test_shared_cells(self):
        a = ObservationMask(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert a.shared_cells(ObservationMask(3, 3, [(1, 1), (2, 2), (0, 1)])) == 2
        assert a.shared_cells(ObservationMask(3, 3, [])) == 0
        with pytest.raises(DimensionError):
            a.shared_cells(ObservationMask(9, 1, [(0, 0)]))

    def test_split_membership_matches_shuffle_slices(self):
        # the documented contract: masks are consecutive slices of the
        # stable argsort of the SplitMix64 keys
        from nbmf.binmat import _splitmix64_keys

        for (n_rows, n_cols), seed in (((6, 7), 9), ((13, 5), 0), ((1, 50), 2**40)):
            spec = SplitSpec(seed=seed)
            total = n_rows * n_cols
            order = np.argsort(_splitmix64_keys(seed, total), kind="stable")
            n_train = math.floor(spec.train_frac * total)
            n_val = math.floor(spec.val_frac * total)
            slices = (order[:n_train], order[n_train:n_train + n_val],
                      order[n_train + n_val:])
            masks = split_observations(BinaryMatrix(n_rows, n_cols, []), spec)
            for mask, expected in zip(masks, slices):
                assert mask.linear.tolist() == sorted(expected.tolist())


class TestIndexDtype:
    """``.linear`` is int32 while the grid has at most 2**31 - 1 cells and
    int64 beyond.  The edge grids hold their first and last cell and are
    never densified."""

    @pytest.mark.parametrize("shape, dtype", [
        ((46340, 46340), np.int32),
        ((46341, 46341), np.int64),
        ((1, 2**31 - 1), np.int32),
        ((2**31, 1), np.int64),
    ])
    def test_edge_grids_round_trip(self, tmp_path, shape, dtype):
        n_rows, n_cols = shape
        corners = [(0, 0), (n_rows - 1, n_cols - 1)]
        matrix = BinaryMatrix(n_rows, n_cols, corners)
        mask = ObservationMask(n_rows, n_cols, corners)
        save_coordinate_file(matrix, tmp_path / "data.txt")
        save_mask(mask, tmp_path / "mask.txt")
        assert (tmp_path / "mask.txt").read_text() == (
            f"{n_rows} {n_cols}\n0 0\n{n_rows - 1} {n_cols - 1}\n"
        )
        copies = [
            (matrix, load_coordinate_file(tmp_path / "data.txt")),
            (mask, load_mask(tmp_path / "mask.txt")),
            (matrix, pickle.loads(pickle.dumps(matrix))),
            (mask, pickle.loads(pickle.dumps(mask))),
        ]
        for original, copy in copies:
            assert copy == original
            assert copy.linear.dtype == original.linear.dtype == dtype
            assert copy.linear.tolist() == [0, n_rows * n_cols - 1]
        rows, cols = mask.indices()
        assert rows.tolist() == [0, n_rows - 1] and cols.tolist() == [0, n_cols - 1]
        first = BinaryMatrix(n_rows, n_cols, [(0, 0)])
        last = ObservationMask(n_rows, n_cols, [(n_rows - 1, n_cols - 1)])
        assert matrix.ones_at(mask).tolist() == [True, True]
        assert first.ones_at(mask).tolist() == [True, False]
        assert mask.shared_cells(last) == last.shared_cells(mask) == 1

    def test_every_producer_writes_the_grid_dtype(self, tmp_path):
        Y = BinaryMatrix.from_dense(np.eye(4, dtype=bool))
        plain, scanned = tmp_path / "plain.txt", tmp_path / "scanned.txt"
        save_coordinate_file(Y, plain)
        # The vectorised parser reads a tab as a gap.
        scanned.write_bytes(b"4 4\n0\t0\n1 1\n2 2\n3 3\n")
        grids = [Y, BinaryMatrix.from_dense(np.eye(4)), BinaryMatrix(4, 4, [(1, 1)]),
                 *split_observations(Y, SplitSpec(seed=1)),
                 load_coordinate_file(plain), load_coordinate_file(scanned),
                 BinaryMatrix._from_linear(4, 4, np.array([0, 5], dtype=np.int64))]
        for grid in grids:
            assert grid.linear.dtype == np.int32
        assert load_coordinate_file(scanned) == load_coordinate_file(plain) == Y
        # A lone CR ends a line for the vectorised parser too.
        scanned.write_bytes(b"4 4\r0 0\n1 1\n2 2\n3 3\n")
        assert load_coordinate_file(scanned) == Y
        assert load_coordinate_file(scanned).linear.dtype == np.int32


def _argsort_split(n_rows, n_cols, spec):
    """Masks as consecutive slices of the stable argsort of the keys."""
    from nbmf.binmat import _splitmix64_keys

    total = n_rows * n_cols
    order = np.argsort(_splitmix64_keys(spec.seed, total), kind="stable")
    n_train = math.floor(spec.train_frac * total)
    n_val = math.floor(spec.val_frac * total)
    cuts = (order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])
    return [np.sort(cut) for cut in cuts]


@pytest.mark.parametrize("shape, fractions, seed", [
    ((1, 1), (0.7, 0.15, 0.15), 0),
    ((1, 2), (0.3, 0.35, 0.35), 1),           # too small to hold a train cell
    ((10, 1), (0.7, 0.3, 1e-17), 4),          # rounding leaves no test cell
    ((37, 41), (0.5, 0.25, 0.25), 2**40),
    ((64, 3), (0.1, 0.8, 0.1), -7),
    ((300, 200), (0.7, 0.15, 0.15), 12345),
    # Shapes of more than one 2^16-cell chunk of keys.
    ((256, 256), (0.7, 0.15, 0.15), 3),       # exactly one chunk
    ((256, 257), (0.7, 0.15, 0.15), 5),       # 256 cells past one chunk
    ((1, 70000), (0.7, 0.15, 0.15), 6),
    ((70000, 1), (0.2, 0.5, 0.3), -1),
    ((600, 900), (0.5, 1e-5, 0.5 - 1e-5), 7),  # both cuts in one bucket
    ((1000, 1000), (0.7, 0.15, 0.15), 1),
])
def test_split_by_selection_matches_argsort(shape, fractions, seed):
    spec = SplitSpec(*fractions, seed=seed)
    masks = split_observations(BinaryMatrix(*shape, []), spec)
    for mask, expected in zip(masks, _argsort_split(*shape, spec), strict=True):
        np.testing.assert_array_equal(mask.linear, expected)


def test_split_peak_memory():
    """The split holds 2-byte buckets and 1-byte labels beside its masks, not
    a sorted copy of every 8-byte key (tracemalloc peak per cell)."""
    matrix = BinaryMatrix(1000, 1000, [])
    split_observations(matrix, SplitSpec(seed=1))
    tracemalloc.start()
    try:
        masks = split_observations(matrix, SplitSpec(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mask.n_cells for mask in masks) == 1_000_000
    assert peak <= 14 * 1_000_000


def test_load_and_split_peak_memory(tmp_path):
    """Reading a dataset and splitting it make 4-byte indices directly and
    hold chunk-sized temporaries beside them (tracemalloc peak per cell of a
    600x900 planted file: 8.1 bytes, 14.1 with 8-byte indices)."""
    path = tmp_path / "planted.txt"
    save_coordinate_file(nbmf.planted_dataset(600, 900, 8, seed=1)[0], path)
    tracemalloc.start()
    try:
        masks = split_observations(load_coordinate_file(path), SplitSpec(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mask.n_cells for mask in masks) == 600 * 900
    assert peak <= 10 * 600 * 900


def test_to_dense_converts_one_chunk_at_a_time():
    """An int32 mask densifies with one chunk of intp indices beside the
    dense array, never an intp copy of every index."""
    mask = split_observations(BinaryMatrix(600, 900, []), SplitSpec(seed=1))[0]
    assert mask.linear.dtype == np.int32 and mask.n_cells * 8 > 2**20
    tracemalloc.start()
    try:
        dense = mask.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.sum() == mask.n_cells
    assert peak <= dense.nbytes + 8 * nbmf.binmat._CELL_CHUNK + 4096


def _scanned(path):
    """What the line-by-line scanner makes of the whole file as one chunk,
    with a set of the cells read so far to find the first repeated one."""
    from nbmf.binmat import _scan_lines

    text = path.read_bytes()
    shape, pairs, error = _scan_lines(text, 1, None)
    seen = set()
    for index, cell in enumerate(zip(pairs[0::2].tolist(), pairs[1::2].tolist())):
        if cell in seen:
            error = _scan_lines(text, 1, None, duplicate=index)[2]
            break
        seen.add(cell)
    if error is None and shape is None:
        error = ParseError("missing 'M N' header line")
    if error is not None:
        return type(error), f"{path}: {error}"
    return shape, sorted(r * shape[1] + c for r, c in seen)


def _read_vectorised(load, path):
    """``load(path)`` with the scanner switched off, so the vectorised
    parser must decide every chunk of the file."""
    with mock.patch.object(nbmf.binmat, "_scan_lines",
                           side_effect=AssertionError("a chunk went to the scanner")):
        return load(path)


def _loaded(path):
    try:
        m = load_coordinate_file(path)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    return m.shape, m.linear.tolist()


class TestParserParity:
    """The vectorised reader accepts exactly what the scanner accepts."""

    @pytest.mark.parametrize("text, error, line", [
        ("2 2\n0 1 # x\n", ParseError, 2),
        ("2 2\n1.0 1\n", ParseError, 2),
        ("2.0 2\n0 1\n", ParseError, 1),
        ("2 2\n0 1 1\n", ParseError, 2),
        ("2 2\n0 1 1\n1\n", ParseError, 2),
        ("3 3\n0 0\n1 1\n# again\n0 0\n", DuplicateError, 5),
        ("3 3\r\n0 0\r\n\r\n2 7\r\n", BoundsError, 4),
        ("3 3\n0 0\n-1 1\n", BoundsError, 3),
    ])
    def test_rejected_with_line(self, tmp_path, text, error, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        with pytest.raises(error, match=f"line {line}:"):
            load_coordinate_file(path)

    @pytest.mark.parametrize("text", ["4 5\n", "4 5", "# c\n\n  4 5  \n\n"])
    def test_header_only(self, tmp_path, text):
        path = tmp_path / "header.txt"
        path.write_bytes(text.encode())
        m = load_coordinate_file(path)
        assert m.shape == (4, 5) and m.linear.size == 0

    def test_comments_crlf_and_no_final_newline(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_bytes(b"# c\r\n  # indented\r\n2 3\r\n 0  1 \r\n1 2")
        assert load_coordinate_file(path).linear.tolist() == [0 * 3 + 1, 1 * 3 + 2]

    @pytest.mark.parametrize("text, line", [
        ("3 3\n0\u30001\n2\u00a02\n", 2),  # ideographic and no-break spaces
        ("3 3\n0\x1c1\n2\x0b2\n", 2),  # ASCII control characters
        ("3 3\n0 1\u3000\n", 2),
        ("3 3\n0 1\n\x0c\n", 3),
    ])
    def test_only_spaces_and_tabs_separate_tokens(self, tmp_path, text, line):
        path = tmp_path / "spaces.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}:"):
            load_coordinate_file(path)
        # a comment line may hold any text
        path.write_bytes("# \u00e9\u3000\x0b\n3 3\n\t0 \t1\t\n".encode())
        assert load_coordinate_file(path).linear.tolist() == [0 * 3 + 1]

    def test_lone_carriage_return_ends_a_comment(self, tmp_path):
        # universal newlines: a lone CR ends a line, so "1 1" is a data line
        path = tmp_path / "cr.txt"
        path.write_bytes(b"2 2\n# note\r1 1\n")
        assert load_coordinate_file(path).linear.tolist() == [1 * 2 + 1]

    def test_token_widths_at_the_int64_limit(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_bytes(b"999999999999999999 1\n999999999999999998 0\n")
        assert _read_vectorised(load_coordinate_file, path).linear.tolist() == [
            (10**18 - 2) * 1 + 0]
        # wider tokens can overflow int64, so the scanner reads their chunk
        path.write_bytes(b"3 3\n" + b"0" * 19 + b"2 1\n")
        assert load_coordinate_file(path).linear.tolist() == [2 * 3 + 1]
        path.write_bytes(b"3 3\n" + b"9" * 20 + b" 1\n")
        with pytest.raises(BoundsError, match="line 2:"):
            load_coordinate_file(path)

    def test_random_files_agree_with_scanner(self, tmp_path):
        pieces = ["0", "1", "2", "3", "10", "007", "-1", "+1", "1_0", "1.0",
                  "x", "#", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0c",
                  "١", "\xa0"]
        rng = np.random.default_rng(7)
        path = tmp_path / "fuzz.txt"
        for case in range(400):
            lines = ["3 4"] if case % 2 else []
            for _ in range(rng.integers(0, 6)):
                if rng.random() < 0.6:
                    r, c = rng.integers(0, 5, size=2)
                    lines.append(f"{r} {c}")
                else:
                    lines.append("".join(rng.choice(pieces, rng.integers(1, 6))))
            sep = "\r\n" if rng.random() < 0.3 else "\n"
            path.write_bytes(sep.join(lines).encode())
            assert _loaded(path) == _scanned(path), path.read_bytes()

    def test_writer_matches_reference_format(self, tmp_path):
        ones = [(0, 0), (0, 9), (0, 10), (7, 123456789012), (7, 99)]
        m = BinaryMatrix(8, 123456789013, ones)
        path = tmp_path / "wide.txt"
        save_coordinate_file(m, path)
        expected = "8 123456789013\n" + "".join(f"{r} {c}\n" for r, c in sorted(ones))
        assert path.read_bytes() == expected.encode()
        assert load_coordinate_file(path) == m
        save_coordinate_file(BinaryMatrix(3, 0, []), path)
        assert path.read_bytes() == b"3 0\n"


def _reference_text(grid):
    """The coordinate format written one Python line at a time."""
    lines = [f"{grid.n_rows} {grid.n_cols}\n"]
    for cell in grid.linear.tolist():
        r, c = divmod(cell, grid.n_cols)
        lines.append(f"{r} {c}\n")
    return "".join(lines).encode()


def _edge_values(width, rng):
    """Values of 1 to ``width`` digits: 0, each 10**k - 1 and 10**k, random."""
    values = {0, 10**width - 1}
    for k in range(1, width):
        values |= {10**k - 1, 10**k}
    values |= set(rng.integers(0, 10**width, size=5).tolist())
    return sorted(values)


@pytest.fixture(params=[1, 5, 16, 1 << 17], ids=lambda n: f"chunk{n}")
def chunk_bytes(request, monkeypatch):
    """Small text chunks, so that tests cross many chunk edges."""
    monkeypatch.setattr(nbmf.binmat, "_CHUNK_BYTES", request.param)
    return request.param


class TestChunkedText:
    """The chunked reader and writer equal the line-at-a-time format."""

    def check_writer(self, grid, tmp_path):
        path = tmp_path / "grid.txt"
        save_mask(grid, path)
        assert path.read_bytes() == _reference_text(grid)
        # the vectorised parser decides every chunk and reads it back unchanged
        assert _read_vectorised(load_mask, path) == grid

    @pytest.mark.parametrize("row_width", range(1, 14))
    def test_writer_widths(self, tmp_path, chunk_bytes, row_width):
        rng = np.random.default_rng(row_width)
        col_width = 14 - row_width
        rows = _edge_values(row_width, rng)
        cols = _edge_values(col_width, rng)
        cells = [(r, c) for r in rows for c in cols[::3]] + [(rows[-1], cols[-1])]
        self.check_writer(
            ObservationMask(10**row_width, 10**col_width, cells), tmp_path
        )

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (9, 1),
                                       (1, 10), (10, 10), (10, 100), (100, 10), (37, 41)])
    def test_writer_shapes(self, tmp_path, chunk_bytes, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for density in (0.0, 0.3, 1.0):
            keep = rng.random(shape) < density
            cells = list(zip(*(idx.tolist() for idx in np.nonzero(keep))))
            self.check_writer(ObservationMask(*shape, cells), tmp_path)

    def test_random_files_agree_with_scanner(self, tmp_path, chunk_bytes):
        pieces = ["# c", "  # indented", "#", "", " ", "0  1", " 2 3 ", "1\t2",
                  "3", "4 5 6", "1 2 3 0", "x", "1.0 2", "\xa0", "# é"]
        rng = np.random.default_rng(chunk_bytes)
        path = tmp_path / "fuzz.txt"
        for case in range(150):
            lines = [] if case % 5 == 0 else ["4 6"]
            for _ in range(rng.integers(0, 10)):
                if rng.random() < 0.6:
                    r, c = rng.integers(0, 5), rng.integers(0, 7)
                    gap = " " * int(rng.integers(1, 3))
                    lines.append(f"{r}{gap}{c}")
                else:
                    lines.append(str(rng.choice(pieces)))
            sep = "\r\n" if rng.random() < 0.3 else "\n"
            end = sep if rng.random() < 0.7 else ""
            path.write_bytes((sep.join(lines) + end).encode())
            assert _loaded(path) == _scanned(path), path.read_bytes()

    @pytest.mark.parametrize("lines, error, line", [
        (["4 4", "0 0", "0 1", "1 0", "1 1", "1 1"], DuplicateError, 6),
        (["4 4", "2 2", "0 1", "3 3", "# c", "", "0 1"], DuplicateError, 7),
        (["4 4", "3 3", "2 2", "1 1", "3 3"], DuplicateError, 5),
        (["2 2", "0 0", "1 1", "0 1", "1 2"], BoundsError, 5),
        (["4 4", "0 0", "1 1", "2 2 3 3"], ParseError, 4),
        (["4 4 0 0", "1 1"], ParseError, 1),
        (["4 4", "", "0", "1"], ParseError, 3),
        (["4 4", "0 0", "1  ", " 1"], ParseError, 3),
    ])
    def test_rejected_across_chunks_with_line(self, tmp_path, chunk_bytes, lines,
                                              error, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(error, match=f"line {line}:"):
            load_coordinate_file(path)

    def test_hand_edited_files_agree_with_scanner(self, tmp_path, chunk_bytes):
        """Forms that the vectorised parser reads or hands to the scanner,
        with repeated and bad cells on either side of a chunk edge."""
        pieces = ["1\t2", "\t3 \t4\t", "+1 2", "1 +2", "+1\t+2", "++1 2", "1+ 2",
                  "1 2+", "+ 1", "\t# tab-indented comment", " \t #", "# c\r1 3",
                  "2 3\r", "\r", "0" * 18 + "3 1", "0" * 19 + "3 1", "+" + "0" * 19 + "1 0",
                  "9" * 19 + " 1", "-0 2", "-1 2", "1 400", "300 1", "1 2 3", "# é", "x"]
        rng = np.random.default_rng(chunk_bytes + 1)
        path = tmp_path / "edited.txt"
        for case in range(40):
            # Lines of 8 bytes, so that the special lines start near the
            # first chunk edge.
            n_filler = max(0, chunk_bytes // 8 - 1 + int(rng.integers(-3, 3)))
            cells = np.sort(rng.choice(200 * 300, size=n_filler, replace=False))
            lines = ["300 400"] + [f"{100 + c // 300} {100 + c % 300}" for c in cells]
            specials = [str(rng.choice(pieces)) for _ in range(rng.integers(0, 6))]
            repeats = rng.integers(0, min(n_filler, 2) + 1)
            for line in rng.choice(lines[1:], size=repeats, replace=False):
                gap = str(rng.choice([" ", "\t", " +", "\t\t"]))
                specials.append(str(line).replace(" ", gap))  # a repeated cell
            specials = [specials[i] for i in rng.permutation(len(specials))]
            at = len(lines) - int(rng.integers(0, min(3, n_filler) + 1))
            lines[at:at] = specials
            sep = "\r\n" if rng.random() < 0.3 else "\n"
            path.write_bytes((sep.join(lines) + sep).encode())
            assert _loaded(path) == _scanned(path), (case, specials)

    def test_out_of_order_cells_are_sorted(self, tmp_path, chunk_bytes):
        path = tmp_path / "shuffled.txt"
        path.write_bytes(b"5 5\n4 4\n0 3\n2 1\n0 0\n3 2\n")
        mask = load_mask(path)
        assert mask.linear.tolist() == [0, 3, 11, 17, 24]


class TestHandEditedText:
    """Hand-edited forms of a 1000x1000 planted file (about 100k lines) go
    through the vectorised parser, as the plain file does, and hold only
    its chunk temporaries beside the index array."""

    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        Y = nbmf.planted_dataset(1000, 1000, 8, 1.0, 9.0, seed=1)[0]
        path = tmp_path_factory.mktemp("edited") / "plain.txt"
        save_coordinate_file(Y, path)
        return Y, path

    @staticmethod
    def edited(path, form):
        """The file at ``path`` in ``form``, written beside it."""
        header, *lines = path.read_bytes().splitlines()
        if form == "tab":
            lines = [line.replace(b" ", b"\t") for line in lines]
        elif form == "plus":
            lines = [b"+" + line for line in lines]
        elif form == "comment":
            lines = ["\t# noté\n".encode() + line if i % 5000 == 0 else line
                     for i, line in enumerate(lines)]
        elif form == "repeated last line":
            lines.append(lines[-1])
        sep = {"crlf": b"\r\n", "cr": b"\r"}.get(form, b"\n")
        edited = path.with_name(f"{form}.txt")
        edited.write_bytes(sep.join([header, *lines]) + sep)
        return edited

    @pytest.mark.parametrize("form", ["tab", "plus", "comment", "crlf", "cr"])
    def test_loads_equal_to_the_plain_file(self, plain, form):
        Y, path = plain
        loaded = _read_vectorised(load_coordinate_file, self.edited(path, form))
        assert loaded == Y and loaded.linear.dtype == Y.linear.dtype == np.int32

    def test_tab_form_peak(self, plain):
        # The plain file peaks at 18.9 B/cell and this form at 20.2; read
        # whole by the line-by-line scanner, it took 203.
        Y, path = plain
        assert Y.linear.size > 90_000
        tabbed = self.edited(path, "tab")
        load_coordinate_file(tabbed)
        peak = TestTextMemory.traced_peak(load_coordinate_file, tabbed)
        assert peak <= 24 * Y.linear.size
        assert peak <= 1.2 * TestTextMemory.traced_peak(load_coordinate_file, path)

    def test_cr_form_peak(self, plain):
        # Cut into chunks at its lone CRs, this form peaks at 20.2 B/cell;
        # read as one whole-file chunk by the line-by-line scanner, it took 70.5.
        Y, path = plain
        cr = self.edited(path, "cr")
        load_coordinate_file(cr)
        peak = TestTextMemory.traced_peak(load_coordinate_file, cr)
        assert peak <= 1.2 * TestTextMemory.traced_peak(load_coordinate_file, path)

    def test_repeated_last_line_peak(self, plain):
        # 22.6 B/cell with the second pass that names the line; read whole by
        # the line-by-line scanner, it took 203.
        Y, path = plain
        repeated = self.edited(path, "repeated last line")

        def refused():
            with pytest.raises(DuplicateError, match=f"line {Y.linear.size + 2}: "):
                load_coordinate_file(repeated)

        assert TestTextMemory.traced_peak(refused) <= 28 * Y.linear.size


class TestTextMemory:
    """Coordinate I/O holds only chunk-sized temporaries beside its input
    and output (tracemalloc peaks on a 700k-cell mask)."""

    @pytest.fixture(scope="class")
    def mask(self):
        return split_observations(BinaryMatrix(1000, 1000, []), SplitSpec(seed=1))[0]

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_mask_peak(self, mask, tmp_path):
        assert mask.n_cells >= 500_000
        peak = self.traced_peak(save_mask, mask, tmp_path / "mask.txt")
        assert peak <= 45 * mask.n_cells

    def test_load_mask_peak(self, mask, tmp_path):
        path = tmp_path / "mask.txt"
        save_mask(mask, path)
        peak = self.traced_peak(load_mask, path)
        assert peak <= 70 * mask.n_cells

    def test_load_makes_the_index_array_in_its_dtype(self, mask, tmp_path):
        # The 4-byte array and the chunk temporaries read 6.4 B/cell; an
        # int64 array cast to int32 once read peaks at 12.
        path = tmp_path / "mask.txt"
        save_mask(mask, path)
        assert load_mask(path).linear.dtype == np.int32
        peak = self.traced_peak(load_mask, path)
        assert peak <= 9 * mask.n_cells

    @pytest.mark.parametrize("save, load", [
        (save_mask, load_mask), (save_coordinate_file, load_coordinate_file),
    ])
    def test_load_holds_no_file_text(self, mask, tmp_path, save, load):
        # The index array is 8 B/cell and the file's text about 8 more, so
        # a reader that held the text whole would peak near 21 B/cell.
        grid = mask if load is load_mask else BinaryMatrix._from_linear(
            *mask.shape, mask.linear)
        path = tmp_path / "cells.txt"
        save(grid, path)
        assert path.stat().st_size > 32 * nbmf.binmat._CHUNK_BYTES
        peak = self.traced_peak(load, path)
        assert peak <= 16 * mask.n_cells
