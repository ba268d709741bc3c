import math

import numpy as np
import pytest

from nbmf import (
    BinaryMatrix,
    CompletionReport,
    ConfigError,
    EmptyMaskError,
    FactorPair,
    NumericalError,
    ObservationMask,
    completion_report,
    perplexity,
    predict_from_factors,
    random_binary_matrix,
    reconstruct,
    split_observations,
    SplitSpec,
)
from conftest import full_mask, subsample_mask

LOG2 = math.log(2)


class TestPerplexity:
    def test_coin_prediction_scores_log_two(self):
        Y = random_binary_matrix(6, 7, 0.3, seed=0)
        pred = np.full((6, 7), 0.5)
        for mask in (full_mask(6, 7), subsample_mask(6, 7, 0.5, seed=1)):
            score = perplexity(Y, mask, pred)
            assert score.value == pytest.approx(LOG2, abs=1e-12)
            assert score.n_cells == mask.n_cells

    def test_near_perfect_prediction_near_zero(self):
        eps = 1e-12
        Y = random_binary_matrix(5, 5, 0.5, seed=2)
        dense = Y.to_dense()
        pred = np.where(dense == 1.0, 1.0 - eps, eps)
        score = perplexity(Y, full_mask(5, 5), pred)
        assert score.value == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        Y = BinaryMatrix(1, 2, frozenset([(0, 0)]))
        pred = np.array([[0.8, 0.4]])
        score = perplexity(Y, full_mask(1, 2), pred)
        expected = -(math.log(0.8) + math.log(0.6)) / 2
        assert score.value == pytest.approx(expected, abs=1e-12)

    def test_empty_mask_rejected(self):
        Y = random_binary_matrix(3, 3, 0.5, seed=0)
        with pytest.raises(EmptyMaskError):
            perplexity(Y, ObservationMask(3, 3, frozenset()), np.full((3, 3), 0.5))

    def test_contradicted_hard_prediction_rejected(self):
        Y = BinaryMatrix(1, 2, frozenset([(0, 0)]))
        pred = np.array([[0.0, 0.5]])  # predicts 0 where the value is 1
        with pytest.raises(NumericalError):
            perplexity(Y, full_mask(1, 2), pred)

    def test_agreeing_hard_prediction_allowed(self):
        Y = BinaryMatrix(1, 2, frozenset([(0, 0)]))
        pred = np.array([[1.0, 0.0]])
        assert perplexity(Y, full_mask(1, 2), pred).value == 0.0

    def test_out_of_range_prediction_rejected(self):
        Y = random_binary_matrix(2, 2, 0.5, seed=0)
        with pytest.raises(NumericalError):
            perplexity(Y, full_mask(2, 2), np.full((2, 2), 1.5))

    def test_nan_prediction_is_out_of_range(self):
        Y = BinaryMatrix(1, 2, frozenset([(0, 0)]))
        with pytest.raises(NumericalError, match=r"must lie in \[0, 1\]"):
            perplexity(Y, full_mask(1, 2), np.array([[0.5, np.nan]]))

    def test_value_independent_of_cell_insertion_order(self):
        Y = random_binary_matrix(6, 6, 0.5, seed=3)
        pred = np.random.default_rng(0).uniform(0.1, 0.9, (6, 6))
        cells = [(m, n) for m in range(6) for n in range(6) if (m + n) % 2]
        forward = ObservationMask(6, 6, frozenset(cells))
        backward = ObservationMask(6, 6, frozenset(reversed(cells)))
        assert perplexity(Y, forward, pred).value == \
            perplexity(Y, backward, pred).value

    def test_decomposes_as_weighted_mean(self):
        Y = random_binary_matrix(8, 8, 0.4, seed=4)
        pred = np.random.default_rng(1).uniform(0.05, 0.95, (8, 8))
        _, left, right = split_observations(Y, SplitSpec(0.5, 0.2, 0.3, seed=2))
        rows, cols = np.concatenate([left.indices(), right.indices()], axis=1)
        union = ObservationMask(8, 8, zip(rows.tolist(), cols.tolist()))
        a = perplexity(Y, left, pred)
        b = perplexity(Y, right, pred)
        combined = perplexity(Y, union, pred)
        weighted = (a.value * a.n_cells + b.value * b.n_cells) / union.n_cells
        assert combined.value == pytest.approx(weighted, abs=1e-12)

    def test_constant_prediction_minimized_at_base_rate(self):
        Y = random_binary_matrix(10, 10, 0.35, seed=5)
        mask = subsample_mask(10, 10, 0.6, seed=6)
        rows, cols = mask.indices()
        rate = Y.to_dense()[rows, cols].mean()
        grid = np.arange(0.01, 1.0, 0.01)
        scores = [perplexity(Y, mask, np.full((10, 10), c)).value for c in grid]
        best = grid[int(np.argmin(scores))]
        assert abs(best - rate) <= 0.01
        at_rate = perplexity(Y, mask, np.full((10, 10), rate)).value
        assert at_rate <= min(scores) + 1e-12


class TestPredictFromFactors:
    def test_delegates_to_reconstruction(self):
        factors = FactorPair(np.array([[0.3, 0.7]]), np.array([[0.2], [0.9]]))
        np.testing.assert_array_equal(
            predict_from_factors(factors), reconstruct(factors)
        )


class TestCompletionReport:
    def _split(self, Y):
        _, val, test = split_observations(Y, SplitSpec(seed=3))
        return val, test

    def test_perfect_predictions(self):
        eps = 1e-12
        Y = random_binary_matrix(8, 6, 0.5, seed=7)
        val, test = self._split(Y)
        dense = Y.to_dense()
        pred = np.where(dense == 1.0, 1.0 - eps, eps)
        report = completion_report(Y, val, test, pred)
        for block in (report.validation, report.test):
            assert block.perplexity == pytest.approx(0.0, abs=1e-9)
            assert block.fp == 0 and block.fn == 0
            assert block.tp + block.tn == block.n_cells

    def test_coin_grid(self):
        Y = random_binary_matrix(8, 6, 0.5, seed=8)
        val, test = self._split(Y)
        report = completion_report(Y, val, test, np.full((8, 6), 0.5))
        assert report.validation.perplexity == pytest.approx(LOG2, abs=1e-12)
        assert report.test.perplexity == pytest.approx(LOG2, abs=1e-12)

    def test_json_round_trip(self):
        Y = random_binary_matrix(8, 6, 0.4, seed=9)
        val, test = self._split(Y)
        pred = np.random.default_rng(2).uniform(0.1, 0.9, (8, 6))
        report = completion_report(Y, val, test, pred)
        assert CompletionReport.from_json(report.to_json()) == report

    def test_csv_row_matches_header(self):
        Y = random_binary_matrix(8, 6, 0.4, seed=10)
        val, test = self._split(Y)
        report = completion_report(Y, val, test, np.full((8, 6), 0.5))
        header = report.CSV_HEADER.split(",")
        row = report.to_csv_row().split(",")
        assert len(header) == len(row)
        assert float(row[header.index("val_perplexity")]) == \
            report.validation.perplexity

    def test_overlapping_masks_rejected(self):
        Y = random_binary_matrix(4, 4, 0.5, seed=11)
        mask = full_mask(4, 4)
        with pytest.raises(ValueError):
            completion_report(Y, mask, mask, np.full((4, 4), 0.5))

    def test_overlapping_masks_are_a_config_error(self):
        Y = random_binary_matrix(4, 4, 0.5, seed=11)
        val, test = self._split(Y)
        with pytest.raises(ConfigError, match="validation and test masks overlap"):
            completion_report(Y, val, val, np.full((4, 4), 0.5))
