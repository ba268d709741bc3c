import numpy as np
import pytest

from nbmf import (
    DimensionError,
    FactorPair,
    ParseError,
    FitConfig,
    FitReport,
    fit,
    init_factors,
    planted_dataset,
    random_binary_matrix,
    read_factors,
    read_report,
    write_factors,
    write_report,
)
from nbmf.io import _write_text
from conftest import full_mask


class TestFactorFiles:
    def test_round_trip_exact(self, tmp_path):
        factors = init_factors(6, 9, 3, seed=21)
        write_factors(tmp_path, factors, alpha=2.5, beta=1.0, epsilon=1e-12,
                      seed=21, converged=True)
        loaded, meta = read_factors(tmp_path)
        np.testing.assert_array_equal(loaded.W, factors.W)
        np.testing.assert_array_equal(loaded.H, factors.H)
        assert meta == {
            "n_rows": 6, "n_cols": 9, "rank": 3,
            "alpha": 2.5, "beta": 1.0, "epsilon": 1e-12,
            "seed": 21, "converged": True,
        }

    def test_round_trip_fitted(self, tmp_path):
        Y = random_binary_matrix(8, 5, 0.5, seed=0)
        cfg = FitConfig(rank=2, seed=4)
        factors, report = fit(Y, full_mask(8, 5), cfg)
        write_factors(tmp_path, factors, alpha=1.0, beta=1.0,
                      epsilon=cfg.epsilon, seed=cfg.seed,
                      converged=report.converged)
        loaded, meta = read_factors(tmp_path)
        np.testing.assert_array_equal(loaded.W, factors.W)
        np.testing.assert_array_equal(loaded.H, factors.H)
        assert meta["converged"] == report.converged

    @pytest.mark.parametrize("shape", [(5, 3, 1), (1, 4, 2), (2, 1, 2)])
    def test_degenerate_shapes_round_trip(self, tmp_path, shape):
        M, N, K = shape
        factors = init_factors(M, N, K, seed=1)
        write_factors(tmp_path, factors, alpha=1.0, beta=2.0, epsilon=1e-12,
                      seed=1, converged=True)
        loaded, meta = read_factors(tmp_path)
        np.testing.assert_array_equal(loaded.W, factors.W)
        np.testing.assert_array_equal(loaded.H, factors.H)
        assert (meta["n_rows"], meta["n_cols"], meta["rank"]) == shape

    def test_rewrite_is_byte_identical(self, tmp_path):
        factors = init_factors(4, 7, 2, seed=3)
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            write_factors(out, factors, alpha=1.5, beta=3.0, epsilon=1e-12,
                          seed=3, converged=False)
        for name in ("W.txt", "H.txt", "meta.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_header_shape_mismatch_detected(self, tmp_path):
        factors = init_factors(4, 4, 2, seed=0)
        write_factors(tmp_path, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        w_path = tmp_path / "W.txt"
        lines = w_path.read_text().splitlines()
        w_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DimensionError):
            read_factors(tmp_path)


    @pytest.mark.parametrize("alpha, beta, epsilon", [
        (1.0, 1.0, 1e-12),
        (2.5, 1e16, 5e-324),
        (1.0000000000000002, 123456789.125, 0.49999999999999994),
    ])
    def test_written_floats_read_back(self, tmp_path, alpha, beta, epsilon):
        write_factors(tmp_path, FactorPair(np.full((2, 1), 1.0), np.full((1, 3), 0.5)),
                      alpha=alpha, beta=beta, epsilon=epsilon, seed=-3,
                      converged=False)
        text = (tmp_path / "meta.txt").read_text(encoding="utf-8")
        (tmp_path / "meta.txt").write_text(
            text.replace("alpha ", "alpha\t \t"), encoding="utf-8")
        _, meta = read_factors(tmp_path)
        assert (meta["alpha"], meta["beta"], meta["epsilon"]) == (alpha, beta, epsilon)
        assert meta["seed"] == -3

    @pytest.mark.parametrize("name", ["W.txt", "H.txt"])
    @pytest.mark.parametrize("damage", ["torn_row", "nan", "inf", "word"])
    def test_damaged_matrix_names_file(self, tmp_path, name, damage):
        factors = init_factors(4, 5, 3, seed=0)
        write_factors(tmp_path, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        path = tmp_path / name
        text = path.read_text()
        if damage == "torn_row":
            text = text[: text.index("\n") + 10]
        else:
            head, _, rest = text.partition(" ")
            text = f"{damage} {rest}"
        path.write_text(text)
        with pytest.raises(ParseError, match=name):
            read_factors(tmp_path)

    @pytest.mark.parametrize("name", ["W.txt", "H.txt"])
    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_matrix_file(self, tmp_path, name, text):
        write_factors(tmp_path, init_factors(4, 5, 3, seed=0), alpha=1.0, beta=1.0,
                      epsilon=1e-12, seed=0, converged=True)
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError, match=f"{name}: empty matrix file"):
            read_factors(tmp_path)

    @pytest.mark.parametrize("name", ["W.txt", "H.txt"])
    @pytest.mark.parametrize("text", ["# nothing\n", "\n# a\n  # b\n\n"])
    def test_comment_only_matrix_file(self, tmp_path, name, text):
        write_factors(tmp_path, init_factors(4, 5, 3, seed=0), alpha=1.0, beta=1.0,
                      epsilon=1e-12, seed=0, converged=True)
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError, match=f"{name}: empty matrix file"):
            read_factors(tmp_path)

    def test_comments_around_rows_are_skipped(self, tmp_path):
        factors = init_factors(4, 5, 3, seed=0)
        write_factors(tmp_path, factors, alpha=1.0, beta=1.0,
                      epsilon=1e-12, seed=0, converged=True)
        path = tmp_path / "W.txt"
        path.write_text("# header\n" + path.read_text() + "# trailer\n")
        read, _ = read_factors(tmp_path)
        np.testing.assert_array_equal(read.W, factors.W)

    @pytest.mark.parametrize("damage, message", [
        ("scaled_w_rows", "W rows do not sum to 1"),
        ("negative_w", "W has negative entries"),
        ("h_at_one", "H entries leave the clamped interval"),
        ("h_below_epsilon", "H entries leave the clamped interval"),
    ])
    def test_invalid_factors_name_files(self, tmp_path, damage, message):
        factors = init_factors(4, 5, 3, seed=0)
        W, H = factors.W.copy(), factors.H.copy()
        if damage == "scaled_w_rows":
            W *= 0.8
        elif damage == "negative_w":
            W[0] = [0.5, 1.0, -0.5]
        elif damage == "h_at_one":
            H[1, 2] = 1.0
        else:
            H[1, 2] = 1e-13
        write_factors(tmp_path, FactorPair(W, H), alpha=1.0, beta=1.0,
                      epsilon=1e-12, seed=0, converged=True)
        with pytest.raises(ParseError, match=message) as info:
            read_factors(tmp_path)
        assert "W.txt" in str(info.value) and "H.txt" in str(info.value)

    @pytest.mark.parametrize("old, new, message, line", [
        ("seed 0", "seed", "line 7: malformed meta line 'seed'", 7),
        ("rank 2\n", "", "incomplete factor header: no 'rank'", None),
        ("converged true", "converged maybe", "bad converged value 'maybe'", None),
        ("converged true", "converged True", "bad converged value 'True'", None),
        ("rank 2", "rank ２", "bad rank value '２'", None),
        ("seed 0", "seed 1_0", "bad seed value '1_0'", None),
        ("rank 2", "rank\u00a02", "line 3: malformed meta line 'rank\\xa02'", 3),
        ("seed 0", "seed\x0b0", "line 7: malformed meta line 'seed\\x0b0'", 7),
        ("seed 0", "seed 0\u3000", "bad seed value '0\\u3000'", None),
        ("seed 0", "rank 3", "line 7: 'rank' given twice", 7),
        ("epsilon 1e-12", "epsilon nan", "bad epsilon value 'nan'", None),
        ("epsilon 1e-12", "epsilon 0.5", "bad epsilon value '0.5'", None),
        ("epsilon 1e-12", "epsilon 0", "bad epsilon value '0'", None),
        ("alpha 1.0", "alpha 1_0", "bad alpha value '1_0'", None),
        ("alpha 1.0", "alpha -inf", "bad alpha value '-inf'", None),
        ("alpha 1.0", "alpha １.0", "bad alpha value '１.0'", None),
        ("beta 1.0", "beta 1e999", "bad beta value '1e999'", None),
    ])
    def test_bad_meta_names_file(self, tmp_path, old, new, message, line):
        write_factors(tmp_path, init_factors(4, 5, 2, seed=0), alpha=1.0, beta=1.0,
                      epsilon=1e-12, seed=0, converged=True)
        path = tmp_path / "meta.txt"
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_factors(tmp_path)
        assert str(info.value) == f"{path}: {message}"
        assert info.value.line == line


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        report = FitReport((10.0, 4.0, 3.5), 2, False, 1.25, 13)
        path = tmp_path / "report.json"
        write_report(path, report)
        assert read_report(path) == report

    def test_numpy_integer_settings_reach_the_json(self, tmp_path):
        Y, _, _ = planted_dataset(20, 15, 2, seed=1)
        config = FitConfig(rank=np.int64(2), max_iter=np.int64(3), seed=np.int64(3))
        _, report = fit(Y, full_mask(20, 15), config)
        path = tmp_path / "report.json"
        write_report(path, report)
        assert read_report(path) == report
        assert '"seed": 3' in path.read_text(encoding="utf-8")

    def test_failed_encoding_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        _write_text(path, "before\n")
        with pytest.raises(UnicodeEncodeError):
            _write_text(path, "after \udc80\n")  # a lone surrogate
        assert path.read_bytes() == b"before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
