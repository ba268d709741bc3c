import numpy as np
import pytest

from nbmf import (
    DimensionError,
    ParseError,
    FitConfig,
    FitReport,
    fit,
    init_factors,
    random_binary_matrix,
    read_factors,
    read_report,
    write_factors,
    write_report,
)
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


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        report = FitReport((10.0, 4.0, 3.5), 2, False, 1.25, 13)
        path = tmp_path / "report.json"
        write_report(path, report)
        assert read_report(path) == report
