import itertools
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nbmf._workers
import nbmf.solver
from nbmf import (
    BetaPrior,
    BinaryMatrix,
    ConfigError,
    DimensionError,
    EmptyMaskError,
    FactorPair,
    FitConfig,
    FitReport,
    NbmfError,
    NumericalError,
    ObservationMask,
    SplitSpec,
    fit,
    fit_em,
    init_factors,
    objective,
    planted_dataset,
    random_binary_matrix,
    reconstruct,
    split_observations,
    update_h,
    update_w,
)
from conftest import child_pids, full_mask, subsample_mask

EPS = 1e-12
# A pass walks the matrix in row blocks of at most 2 ** 16 cells: three here.
BLOCKED = (400, 400)


def naive_objective(Yd, Od, W, H, alpha, beta):
    """Straight per-cell evaluation of the MAP objective, loops only."""
    M, N = Yd.shape
    K = W.shape[1]
    value = 0.0
    for m in range(M):
        for n in range(N):
            if not Od[m, n]:
                continue
            p = sum(W[m, k] * H[k, n] for k in range(K))
            value -= Yd[m, n] * math.log(p) + (1 - Yd[m, n]) * math.log(1 - p)
    for k in range(K):
        for n in range(N):
            value -= (alpha - 1) * math.log(H[k, n])
            value -= (beta - 1) * math.log(1 - H[k, n])
    return value


def naive_update_h(Yd, Od, W, H, alpha, beta):
    """Entrywise c/(c+d) update computed with explicit loops."""
    M, N = Yd.shape
    K = W.shape[1]
    out = H.copy()
    for k in range(K):
        for n in range(N):
            c = alpha - 1.0
            d = beta - 1.0
            for m in range(M):
                if not Od[m, n]:
                    continue
                p = sum(W[m, l] * H[l, n] for l in range(K))
                c += H[k, n] * Yd[m, n] * W[m, k] / p
                d += (1 - H[k, n]) * (1 - Yd[m, n]) * W[m, k] / (1 - p)
            if c + d > 0:
                out[k, n] = c / (c + d)
    return out


def naive_update_w(Yd, Od, W, H):
    """Row-rescaling update computed with explicit loops."""
    M, N = Yd.shape
    K = W.shape[1]
    out = W.copy()
    for m in range(M):
        observed = [n for n in range(N) if Od[m, n]]
        if not observed:
            continue
        for k in range(K):
            total = 0.0
            for n in observed:
                p = sum(W[m, l] * H[l, n] for l in range(K))
                total += Yd[m, n] * H[k, n] / p
                total += (1 - Yd[m, n]) * (1 - H[k, n]) / (1 - p)
            out[m, k] = W[m, k] * total / len(observed)
    return out


class TestBetaPrior:
    def test_flat_prior(self):
        prior = BetaPrior()
        assert prior.is_flat

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 0.99), (0.0, 0.0),
                                            (float("nan"), 1.0)])
    def test_rejects_below_one(self, alpha, beta):
        with pytest.raises(ConfigError):
            BetaPrior(alpha, beta)

    def test_boundary_accepted(self):
        assert BetaPrior(1.0, 1.0).alpha == 1.0


class TestFitConfig:
    def test_defaults_match_protocol(self):
        cfg = FitConfig(rank=4)
        assert cfg.tol == 1e-5
        assert cfg.max_iter == 2000
        assert cfg.epsilon == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"rank": 2, "tol": 0.0},
            {"rank": 2, "max_iter": 0},
            {"rank": 2, "epsilon": 0.0},
            {"rank": 2, "epsilon": 1e-2},
            {"rank": 1, "seed": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"rank": 2.5}, "rank"),
        ({"rank": 2, "max_iter": 2.5}, "max_iter"),
        ({"rank": 2, "seed": 1.5}, "seed"),
    ])
    def test_integer_settings_must_be_integers(self, kwargs, name):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            FitConfig(**kwargs)


class TestFitReport:
    def test_iteration_count_must_match_trace(self):
        with pytest.raises(ValueError):
            FitReport(objective_trace=(1.0, 0.5), n_iter=5, converged=True,
                      wall_time=0.0, seed=0)

    def test_round_trip_dict(self):
        report = FitReport((3.0, 2.0, 1.5), 2, True, 0.25, 7)
        assert FitReport.from_dict(report.to_dict()) == report

    def test_processes_round_trip_and_default_to_one(self):
        report = FitReport((3.0, 2.0, 1.5), 2, True, 0.25, 7, processes=3)
        data = report.to_dict()
        assert data["processes"] == 3
        assert FitReport.from_dict(data) == report
        del data["processes"]  # a report written before it recorded them
        assert FitReport.from_dict(data) == replace(report, processes=1)


class TestInitFactors:
    def test_rank_one_w_is_all_ones(self):
        for seed in (0, 1, 99):
            factors = init_factors(3, 4, 1, seed=seed)
            np.testing.assert_array_equal(factors.W, np.ones((3, 1)))

    def test_invariants(self):
        factors = init_factors(2, 2, 2, epsilon=EPS, seed=7)
        np.testing.assert_allclose(factors.W.sum(axis=1), 1.0, atol=1e-12)
        assert factors.H.min() > EPS / 2 and factors.H.max() < 1 - EPS / 2
        factors.validate(epsilon=EPS)

    def test_deterministic(self):
        a = init_factors(5, 6, 3, seed=11)
        b = init_factors(5, 6, 3, seed=11)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.H, b.H)

    def test_seed_changes_output(self):
        a = init_factors(5, 6, 3, seed=0)
        b = init_factors(5, 6, 3, seed=1)
        assert not np.array_equal(a.H, b.H)

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20), (1, 1)])
    def test_rank_beyond_any_array_is_out_of_memory(self, shape):
        # numpy's own error for such a size is a ValueError
        with pytest.raises(MemoryError, match="^rank-4611686018427387904 "):
            init_factors(*shape, 2**62)


class TestReconstruct:
    def test_rank_one_scalar(self):
        factors = FactorPair(np.ones((2, 1)), np.array([[0.5]]))
        np.testing.assert_array_equal(reconstruct(factors), np.full((2, 1), 0.5))

    def test_symmetric_average_is_half(self):
        factors = FactorPair(
            np.array([[0.5, 0.5]]),
            np.array([[1 - EPS, 1 - EPS], [EPS, EPS]]),
        )
        np.testing.assert_allclose(reconstruct(factors), 0.5, rtol=0, atol=1e-15)

    def test_hand_value(self):
        factors = FactorPair(np.array([[0.3, 0.7]]), np.array([[0.2], [0.9]]))
        assert reconstruct(factors)[0, 0] == pytest.approx(0.69, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            FactorPair(np.ones((2, 2)), np.ones((3, 2)))

    def test_validate_rejects_nan_factors(self):
        factors = FactorPair(np.full((2, 2), np.nan), np.full((2, 3), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            factors.validate()

    def test_validate_rejects_reconstruction_at_one_in_a_later_block(self):
        # every other check passes: the last row sums to 1 + 5e-10 (within
        # atol) and H sits at 1 - 1e-12, so only that row's products reach 1
        M, N = BLOCKED
        W = np.full((M, 2), 0.5)
        W[-1] *= 1 + 5e-10
        factors = FactorPair(W, np.full((2, N), 1 - EPS))
        assert len(nbmf.solver._blocks(M, N)) > 1
        with pytest.raises(ValueError, match=re.escape("reconstruction leaves (0, 1)")):
            factors.validate(epsilon=EPS)

    def test_validate_holds_one_block_of_the_product(self):
        # 20 row blocks; the whole 400 x 3000 product would be 9.6 MB
        factors = init_factors(400, 3000, 4, seed=3)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            factors.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 2 * 2 ** 20


IDENTITY2 = BinaryMatrix(2, 2, frozenset([(0, 0), (1, 1)]))
HALF_FACTORS = FactorPair(np.ones((2, 1)), np.array([[0.5, 0.5]]))


class TestObjective:
    def test_identity_half_grid(self):
        value = objective(IDENTITY2, full_mask(2, 2), HALF_FACTORS, BetaPrior())
        assert value == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_empty_mask_is_zero(self):
        empty = ObservationMask(2, 2, frozenset())
        assert objective(IDENTITY2, empty, HALF_FACTORS, BetaPrior()) == 0.0

    def test_prior_term(self):
        value = objective(IDENTITY2, full_mask(2, 2), HALF_FACTORS, BetaPrior(2, 1))
        assert value == pytest.approx(6 * math.log(2), abs=1e-12)

    def test_prior_sums_over_all_h_not_just_mask(self):
        half = ObservationMask(2, 2, frozenset([(0, 0), (1, 0)]))
        full_value = objective(IDENTITY2, full_mask(2, 2), HALF_FACTORS, BetaPrior(2, 1))
        half_value = objective(IDENTITY2, half, HALF_FACTORS, BetaPrior(2, 1))
        # likelihood shrinks with the mask; the 2 log 2 prior term stays
        assert half_value == pytest.approx(2 * math.log(2) + 2 * math.log(2), abs=1e-12)
        assert full_value - half_value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_out_of_domain_reconstruction_raises(self):
        bad = FactorPair(np.ones((2, 1)), np.array([[1.5, 0.5]]))
        with pytest.raises(NumericalError):
            objective(IDENTITY2, full_mask(2, 2), bad, BetaPrior())

    @pytest.mark.parametrize("call", [
        lambda f: objective(IDENTITY2, full_mask(2, 2), f, BetaPrior()),
        lambda f: update_h(IDENTITY2, full_mask(2, 2), f, BetaPrior()),
        lambda f: update_w(IDENTITY2, full_mask(2, 2), f),
    ], ids=["objective", "update_h", "update_w"])
    def test_nan_reconstruction_raises(self, call):
        nan_w = FactorPair(np.array([[np.nan], [1.0]]), np.array([[0.5, 0.5]]))
        with pytest.raises(NumericalError):
            call(nan_w)

    @pytest.mark.parametrize("h00", [0.0, 1.0])
    def test_out_of_domain_unobserved_cell_raises(self, h00):
        # W @ H leaves (0, 1) only in column 0, which the mask leaves out
        bad = FactorPair(np.ones((2, 1)), np.array([[h00, 0.5]]))
        column_1 = ObservationMask(2, 2, frozenset([(0, 1), (1, 1)]))
        with pytest.raises(NumericalError):
            objective(IDENTITY2, column_1, bad, BetaPrior())

    def test_matches_naive_oracle(self, rng):
        for trial, (M, N, K) in enumerate([(6, 5, 2)] * 5 + [(*BLOCKED, 2)]):
            Y = random_binary_matrix(M, N, 0.4, seed=trial)
            mask = subsample_mask(M, N, 0.7, seed=trial)
            factors = init_factors(M, N, K, seed=trial)
            prior = BetaPrior(1.5, 2.0)
            expected = naive_objective(
                Y.to_dense(), mask.to_dense(), factors.W, factors.H,
                prior.alpha, prior.beta,
            )
            got = objective(Y, mask, factors, prior)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_log_likelihood_equals_the_log_with_unobserved_cells_added(self):
        import nbmf.solver as solver_mod

        # columns: P one ulp above 0, inside (0, 1), one ulp below 1; rows:
        # observed one, observed zero, unobserved one, unobserved zero
        tiny, below_one = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        P = np.tile([tiny, 1e-300, 0.3, 0.5, 0.9, 1 - 2 ** -52, below_one], (4, 1))
        observed = np.broadcast_to([[True], [True], [False], [False]], P.shape)
        A = np.array([[1.0], [0.0], [0.0], [0.0]]) * observed
        B = observed - A
        with np.errstate(over="ignore"):  # 1 / tiny is inf
            R, S = A / P, B / (1.0 - P)
        expected = np.log(R + S + ~observed)
        for m, n in np.ndindex(P.shape):
            got = solver_mod._log_likelihood(R[m:m + 1, n:n + 1].copy(),
                                             S[m:m + 1, n:n + 1].copy())
            assert np.float64(got).tobytes() == expected[m, n].tobytes()
        # without the column whose 1 / P overflows, the block sums agree too
        got = solver_mod._log_likelihood(R[:, 1:].copy(), S[:, 1:].copy())
        assert np.float64(got).tobytes() == expected[:, 1:].copy().sum().tobytes()


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
@pytest.mark.parametrize("call", [
    lambda Y, mask, f: objective(Y, mask, f, BetaPrior()),
    lambda Y, mask, f: update_h(Y, mask, f, BetaPrior()),
    lambda Y, mask, f: update_w(Y, mask, f),
], ids=["objective", "update_h", "update_w"])
def test_zero_dimension_matrix_is_a_dimension_error(shape, call):
    M, N = shape
    Y, mask = BinaryMatrix(M, N, []), ObservationMask(M, N, [])
    factors = FactorPair(np.full((M, 2), 0.5), np.full((2, N), 0.5))
    with pytest.raises(DimensionError, match=re.escape(f"shape {shape}")):
        call(Y, mask, factors)
    with pytest.raises(EmptyMaskError):
        fit(Y, mask, FitConfig(rank=2))


class TestUpdateH:
    def setup_method(self):
        self.mask = full_mask(2, 1)
        self.factors = FactorPair(np.ones((2, 1)), np.array([[0.5]]))

    def test_all_ones_pushes_to_one(self):
        Y = BinaryMatrix(2, 1, frozenset([(0, 0), (1, 0)]))
        raw = update_h(Y, self.mask, self.factors, BetaPrior(), clamp=False)
        assert raw[0, 0] == pytest.approx(1.0, abs=1e-12)
        clamped = update_h(Y, self.mask, self.factors, BetaPrior())
        assert clamped[0, 0] == 1.0 - EPS

    def test_all_zeros_pushes_to_zero(self):
        Y = BinaryMatrix(2, 1, frozenset())
        raw = update_h(Y, self.mask, self.factors, BetaPrior(), clamp=False)
        assert raw[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert update_h(Y, self.mask, self.factors, BetaPrior())[0, 0] == EPS

    def test_prior_pulls_off_boundary(self):
        Y = BinaryMatrix(2, 1, frozenset([(0, 0), (1, 0)]))
        raw = update_h(Y, self.mask, self.factors, BetaPrior(2, 2), clamp=False)
        assert raw[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_unobserved_column_flat_prior_keeps_value(self):
        Y = random_binary_matrix(3, 2, 0.5, seed=0)
        mask = ObservationMask(3, 2, frozenset([(0, 0), (1, 0), (2, 0)]))
        factors = init_factors(3, 2, 2, seed=5)
        new_H = update_h(Y, mask, factors, BetaPrior())
        np.testing.assert_array_equal(new_H[:, 1], factors.H[:, 1])

    def test_unobserved_column_moves_to_prior_mode(self):
        Y = random_binary_matrix(3, 2, 0.5, seed=0)
        mask = ObservationMask(3, 2, frozenset([(0, 0), (1, 0), (2, 0)]))
        factors = init_factors(3, 2, 2, seed=5)
        new_H = update_h(Y, mask, factors, BetaPrior(2, 2))
        np.testing.assert_allclose(new_H[:, 1], 0.5, atol=1e-15)
        new_H = update_h(Y, mask, factors, BetaPrior(3, 2))
        np.testing.assert_allclose(new_H[:, 1], 2.0 / 3.0, atol=1e-15)

    def test_result_clamped(self, rng):
        Y = random_binary_matrix(6, 8, 0.5, seed=1)
        factors = init_factors(6, 8, 3, seed=2)
        new_H = update_h(Y, full_mask(6, 8), factors, BetaPrior())
        assert new_H.min() >= EPS and new_H.max() <= 1 - EPS

    def test_matches_naive_oracle_full_and_masked(self):
        for trial, (M, N, K) in enumerate([(5, 6, 3)] * 4 + [(*BLOCKED, 2)]):
            Y = random_binary_matrix(M, N, 0.45, seed=10 + trial)
            factors = init_factors(M, N, K, seed=trial)
            prior = BetaPrior(1.0 if trial % 2 else 2.5, 1.5)
            for mask in (full_mask(M, N), subsample_mask(M, N, 0.6, seed=trial)):
                expected = naive_update_h(
                    Y.to_dense(), mask.to_dense(), factors.W, factors.H,
                    prior.alpha, prior.beta,
                )
                got = update_h(Y, mask, factors, prior, clamp=False)
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("h00", [0.0, 1.0])
    def test_out_of_domain_reconstruction_raises(self, h00):
        # column 0 of W @ H is h00, on the boundary of (0, 1)
        bad = FactorPair(np.ones((2, 1)), np.array([[h00, 0.5]]))
        with pytest.raises(NumericalError):
            update_h(IDENTITY2, full_mask(2, 2), bad, BetaPrior())


class TestUpdateW:
    def test_rank_one_fixed_point(self):
        Y = random_binary_matrix(4, 5, 0.4, seed=0)
        factors = FactorPair(np.ones((4, 1)), np.full((1, 5), 0.37))
        new_W = update_w(Y, full_mask(4, 5), factors, clamp=False)
        np.testing.assert_allclose(new_W, 1.0, rtol=0, atol=1e-12)

    def test_hand_value_complementary_patterns(self):
        Y = BinaryMatrix(1, 2, frozenset([(0, 0), (0, 1)]))
        factors = FactorPair(
            np.array([[0.4, 0.6]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        new_W = update_w(Y, full_mask(1, 2), factors, clamp=False)
        np.testing.assert_allclose(new_W, [[0.5, 0.5]], rtol=0, atol=1e-12)

    def test_row_sums_after_update(self):
        for trial in range(6):
            M, N, K = 7, 6, 3
            Y = random_binary_matrix(M, N, 0.5, seed=trial)
            factors = init_factors(M, N, K, seed=trial + 50)
            for mask in (full_mask(M, N), subsample_mask(M, N, 0.7, seed=trial)):
                new_W = update_w(Y, mask, factors)
                np.testing.assert_allclose(new_W.sum(axis=1), 1.0, atol=1e-9)

    def test_unobserved_row_kept_bit_identical(self):
        Y = random_binary_matrix(4, 3, 0.5, seed=2)
        mask = ObservationMask(
            4, 3, frozenset((m, n) for m in (0, 1, 3) for n in range(3))
        )
        factors = init_factors(4, 3, 2, seed=9)
        new_W = update_w(Y, mask, factors)
        np.testing.assert_array_equal(new_W[2], factors.W[2])
        assert not np.array_equal(new_W[0], factors.W[0])

    def test_matches_naive_oracle_full_and_masked(self):
        for trial, (M, N, K) in enumerate([(6, 5, 2)] * 4 + [(*BLOCKED, 2)]):
            Y = random_binary_matrix(M, N, 0.5, seed=20 + trial)
            factors = init_factors(M, N, K, seed=trial)
            for mask in (full_mask(M, N), subsample_mask(M, N, 0.65, seed=trial)):
                expected = naive_update_w(
                    Y.to_dense(), mask.to_dense(), factors.W, factors.H
                )
                got = update_w(Y, mask, factors, clamp=False)
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("h00", [0.0, 1.0])
    def test_out_of_domain_reconstruction_raises(self, h00):
        # column 0 of W @ H is h00, on the boundary of (0, 1)
        bad = FactorPair(np.ones((2, 1)), np.array([[h00, 0.5]]))
        with pytest.raises(NumericalError):
            update_w(IDENTITY2, full_mask(2, 2), bad)


class TestSingleUpdateDescent:
    """Each half-update alone must not increase the objective."""

    def test_h_step_descends(self):
        for trial in range(8):
            M, N, K = 8, 7, 3
            Y = random_binary_matrix(M, N, 0.45, seed=trial)
            mask = subsample_mask(M, N, 0.8, seed=trial) if trial % 2 \
                else full_mask(M, N)
            factors = init_factors(M, N, K, seed=trial + 7)
            prior = BetaPrior(1.0 + 0.5 * (trial % 3), 1.0 + (trial % 2))
            before = objective(Y, mask, factors, prior)
            new_H = update_h(Y, mask, factors, prior)
            after = objective(Y, mask, FactorPair(factors.W, new_H), prior)
            assert after <= before + 1e-10

    def test_w_step_descends(self):
        for trial in range(8):
            M, N, K = 7, 8, 2
            Y = random_binary_matrix(M, N, 0.55, seed=trial)
            mask = subsample_mask(M, N, 0.75, seed=trial) if trial % 2 \
                else full_mask(M, N)
            factors = init_factors(M, N, K, seed=trial + 3)
            prior = BetaPrior(1.5, 1.5)
            before = objective(Y, mask, factors, prior)
            new_W = update_w(Y, mask, factors)
            after = objective(Y, mask, FactorPair(new_W, factors.H), prior)
            assert after <= before + 1e-10


class TestPermutationEquivariance:
    def test_row_permutation_permutes_w_only(self):
        M, N, K = 6, 5, 2
        Y = random_binary_matrix(M, N, 0.5, seed=4)
        mask = subsample_mask(M, N, 0.8, seed=4)
        factors = init_factors(M, N, K, seed=1)
        perm = np.array([3, 0, 5, 1, 4, 2])

        Yp = BinaryMatrix.from_dense(Y.to_dense()[perm])
        rows, cols = mask.indices()
        maskp = ObservationMask(
            M, N, frozenset((int(np.argwhere(perm == m)[0][0]), n)
                            for m, n in zip(rows.tolist(), cols.tolist()))
        )
        factors_p = FactorPair(factors.W[perm], factors.H)

        prior = BetaPrior(1.5, 2.0)
        H1 = update_h(Y, mask, factors, prior)
        H2 = update_h(Yp, maskp, factors_p, prior)
        np.testing.assert_allclose(H1, H2, rtol=1e-12, atol=1e-14)

        W1 = update_w(Y, mask, FactorPair(factors.W, H1))
        W2 = update_w(Yp, maskp, FactorPair(factors_p.W, H2))
        np.testing.assert_allclose(W1[perm], W2, rtol=1e-12, atol=1e-14)


class TestFit:
    def test_monotone_and_constrained(self):
        Y = random_binary_matrix(10, 8, 0.5, seed=0)
        seen = []

        def on_sweep(iteration, value, factors):
            factors.validate(epsilon=EPS)
            seen.append(value)

        factors, report = fit(
            Y, full_mask(10, 8), FitConfig(rank=2, seed=0), on_sweep=on_sweep
        )
        assert report.converged
        trace = np.array(report.objective_trace)
        assert (np.diff(trace) <= 1e-9).all()
        assert seen == list(report.objective_trace[1:])
        factors.validate(epsilon=EPS)

    def test_single_sweep_trace(self):
        Y = random_binary_matrix(6, 6, 0.4, seed=2)
        _, report = fit(Y, full_mask(6, 6), FitConfig(rank=2, max_iter=1, seed=0))
        assert len(report.objective_trace) == 2
        assert report.n_iter == 1
        assert not report.converged

    def test_all_ones_closed_form(self):
        M, N = 5, 4
        Y = BinaryMatrix.from_dense(np.ones((M, N)))
        factors, report = fit(Y, full_mask(M, N), FitConfig(rank=1, seed=0))
        np.testing.assert_allclose(factors.H, 1.0 - EPS, rtol=0, atol=1e-15)
        expected = M * N * math.log(1.0 / (1.0 - EPS))
        assert report.final_objective == pytest.approx(expected, abs=1e-6)

    def test_stopping_rule_uses_relative_change(self):
        Y = random_binary_matrix(9, 7, 0.5, seed=3)
        _, report = fit(Y, full_mask(9, 7), FitConfig(rank=2, seed=1))
        trace = report.objective_trace
        assert report.converged
        rel = [abs(trace[i - 1] - trace[i]) / abs(trace[i - 1])
               for i in range(1, len(trace))]
        assert rel[-1] < 1e-5
        assert all(value >= 1e-5 for value in rel[:-1])

    def test_empty_mask_rejected(self):
        Y = random_binary_matrix(3, 3, 0.5, seed=0)
        with pytest.raises(EmptyMaskError):
            fit(Y, ObservationMask(3, 3, frozenset()), FitConfig(rank=1))

    def test_mask_shape_mismatch_rejected(self):
        Y = random_binary_matrix(3, 3, 0.5, seed=0)
        with pytest.raises(DimensionError):
            fit(Y, full_mask(3, 4), FitConfig(rank=1))

    def test_numerical_failure_carries_sweep_index(self, monkeypatch):
        import nbmf.solver as solver_mod

        real = solver_mod._log_likelihood
        calls = {"count": 0}

        def flaky(R, S):
            calls["count"] += 1
            # 5 by 5 is one row block: the evaluation after the second sweep
            if calls["count"] == 3:
                return float("nan")
            return real(R, S)

        monkeypatch.setattr(solver_mod, "_log_likelihood", flaky)
        Y = random_binary_matrix(5, 5, 0.5, seed=0)
        with pytest.raises(NumericalError) as excinfo:
            fit(Y, full_mask(5, 5), FitConfig(rank=2, seed=0))
        assert excinfo.value.iteration == 2

    def test_reconstruction_leaving_unit_interval_carries_sweep_index(
            self, monkeypatch):
        import nbmf.solver as solver_mod

        real = solver_mod._w_step
        calls = {"count": 0}

        def collapsing(R, S, n_obs, W, H, epsilon, clamp):
            calls["count"] += 1
            new_W = real(R, S, n_obs, W, H, epsilon, clamp)
            # a zero W makes every cell of W @ H zero after the second sweep
            return np.zeros_like(new_W) if calls["count"] == 2 else new_W

        monkeypatch.setattr(solver_mod, "_w_step", collapsing)
        Y = random_binary_matrix(5, 5, 0.5, seed=0)
        with pytest.raises(NumericalError, match="open interval") as excinfo:
            fit(Y, full_mask(5, 5), FitConfig(rank=2, tol=1e-15, seed=0))
        assert excinfo.value.iteration == 2
        assert str(excinfo.value).startswith("iteration 2: ")

    @pytest.mark.parametrize("prior", [BetaPrior(), BetaPrior(2.0, 1.5)])
    def test_sweeps_equal_replayed_public_updates(self, monkeypatch, prior):
        # row 2 and column 4 have no observed cells, and on the blocked
        # shape neither has row 300, which lies in a later row block; with
        # 2 CPUs a worker runs that block
        shapes = [(7, 6, 3), (*BLOCKED, 3)]
        for cpus, (M, N, K) in itertools.product([1, 2], shapes):
            monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", cpus)
            Y = random_binary_matrix(M, N, 0.45, seed=12)
            rows, cols = subsample_mask(M, N, 0.7, seed=12).indices()
            mask = ObservationMask(M, N, frozenset(
                (m, n) for m, n in zip(rows.tolist(), cols.tolist())
                if m not in (2, 300) and n != 4
            ))
            config = FitConfig(rank=K, prior=prior, max_iter=25, tol=1e-12, seed=6)
            seen = []
            _, report = fit(
                Y, mask, config,
                on_sweep=lambda it, value, factors: seen.append((value, factors)),
            )
            assert len(seen) == report.n_iter >= 10

            start = init_factors(M, N, K, config.epsilon, config.seed)
            assert objective(Y, mask, start, prior) == report.objective_trace[0]
            factors = start
            for value, got in seen:
                H = update_h(Y, mask, factors, prior, epsilon=config.epsilon)
                W = update_w(Y, mask, FactorPair(factors.W, H),
                             epsilon=config.epsilon)
                factors = FactorPair(W, H)
                np.testing.assert_array_equal(got.H, H)
                np.testing.assert_array_equal(got.W, W)
                assert value == objective(Y, mask, factors, prior)
            unobserved_rows = [m for m in (2, 300) if m < M]
            np.testing.assert_array_equal(factors.W[unobserved_rows],
                                          start.W[unobserved_rows])

    def test_blocked_shape_walks_several_row_blocks(self):
        import nbmf.solver as solver_mod

        assert len(solver_mod._blocks(*BLOCKED)) == 3
        for M, N in [(250, 400), (300, 400), BLOCKED, (3, 70000)]:
            blocks = solver_mod._blocks(M, N)
            # as few blocks as the bound of 2 ** 16 cells allows
            assert len(blocks) == -(-M // max(1, 2 ** 16 // N)) > 1
            covered = [np.arange(M)[rows] for rows, _, _ in blocks]
            np.testing.assert_array_equal(np.concatenate(covered), np.arange(M))
            heights = {len(block_rows) for block_rows in covered}
            assert max(heights) - min(heights) <= 1
            for block_rows, (_, P, R) in zip(covered, blocks):
                assert P.shape == R.shape == (len(block_rows), N)
                assert P.size <= max(2 ** 16, N)
        assert solver_mod._blocks(0, 400) == []
        for M, N in [(24, 17), (256, 256)]:
            [(rows, P, R)] = solver_mod._blocks(M, N)
            assert P.shape == R.shape == (M, N)
            np.testing.assert_array_equal(np.arange(M)[rows], np.arange(M))

    def test_concurrent_fits_equal_sequential_fits(self):
        # scratch buffers kept per module or per mask would be shared here
        Y = random_binary_matrix(80, 120, 0.4, seed=3)
        mask = subsample_mask(80, 120, 0.8, seed=3)
        configs = [FitConfig(rank=3, max_iter=100, tol=1e-12, seed=s)
                   for s in range(8)]
        expected = [fit(Y, mask, config) for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(configs)) as pool:
                futures = [pool.submit(fit, Y, mask, c) for c in configs]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (f1, r1), (f2, r2) in zip(expected, got, strict=True):
            assert r1.objective_trace == r2.objective_trace
            np.testing.assert_array_equal(f1.W, f2.W)
            np.testing.assert_array_equal(f1.H, f2.H)

    def test_sweeps_allocate_no_full_size_array(self):
        M, N = 150, 200
        Y = random_binary_matrix(M, N, 0.5, seed=4)
        memory = []

        def on_sweep(iteration, value, factors):
            memory.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            fit(Y, subsample_mask(M, N, 0.7, seed=4),
                FitConfig(rank=2, max_iter=5, tol=1e-12), on_sweep=on_sweep)
        finally:
            tracemalloc.stop()
        # peak during a sweep over the memory held when the sweep before ended
        growth = [peak - held for (held, _), (_, peak) in zip(memory, memory[1:])]
        assert len(growth) == 4
        assert max(growth) < M * N * 8

    def test_fit_holds_four_full_size_float_arrays(self, monkeypatch):
        # at most four full-size float arrays (32 bytes a cell): A and B (8
        # bytes a cell each) plus two scratch arrays of at most 2 ** 16 cells
        # each, 8.7 bytes a cell here (measured: 26.0 in all), in one process
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 1)
        M, N = 300, 400
        Y = random_binary_matrix(M, N, 0.5, seed=8)
        mask = subsample_mask(M, N, 0.7, seed=8)
        config = FitConfig(rank=4, max_iter=5, tol=1e-12)
        fit(Y, mask, config)  # warm: first-call allocations are not the fit's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fit(Y, mask, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / (M * N) < 32

    def test_blocked_fit_holds_no_full_size_working_array(self, monkeypatch):
        # A and B (8 bytes a cell each), plus two scratch arrays of at most
        # 2 ** 16 cells each (4.4 bytes a cell here; measured: 21.1 in all);
        # a full-size working array adds 8 more; in one process
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 1)
        M, N = 600, 400
        Y = random_binary_matrix(M, N, 0.5, seed=8)
        mask = subsample_mask(M, N, 0.7, seed=8)
        config = FitConfig(rank=4, max_iter=5, tol=1e-12)
        fit(Y, mask, config)  # warm: first-call allocations are not the fit's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fit(Y, mask, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / (M * N) < 24

    def test_masked_trace_matches_naive_objective(self):
        # row 2 and column 4 have no observed cells
        M, N, K = 7, 6, 3
        Y = random_binary_matrix(M, N, 0.45, seed=21)
        rows, cols = subsample_mask(M, N, 0.7, seed=21).indices()
        mask = ObservationMask(M, N, frozenset(
            (m, n) for m, n in zip(rows.tolist(), cols.tolist()) if m != 2 and n != 4
        ))
        prior = BetaPrior(2.0, 1.5)
        config = FitConfig(rank=K, prior=prior, max_iter=25, tol=1e-12, seed=3)
        Yd, Od = Y.to_dense(), mask.to_dense()

        def naive(factors):
            return naive_objective(Yd, Od, factors.W, factors.H,
                                   prior.alpha, prior.beta)

        seen = []
        _, report = fit(Y, mask, config,
                        on_sweep=lambda it, value, factors: seen.append(
                            (value, naive(factors))))
        assert len(seen) == report.n_iter >= 10
        start = init_factors(M, N, K, config.epsilon, config.seed)
        assert report.objective_trace[0] == pytest.approx(naive(start), rel=1e-12)
        for value, expected in seen:
            assert value == pytest.approx(expected, rel=1e-12)

    def test_never_takes_log1p_of_a_full_size_array(self, monkeypatch):
        import nbmf.solver as solver_mod

        sizes = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log1p(x, *args, **kwargs):
                sizes.append(np.size(x))
                return np.log1p(x, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "np", CountingNumpy())
        M, N, K = 30, 40, 3
        Y = random_binary_matrix(M, N, 0.5, seed=6)
        fit(Y, subsample_mask(M, N, 0.8, seed=6),
            FitConfig(rank=K, prior=BetaPrior(2.0, 1.5), max_iter=5, tol=1e-12))
        # the prior term takes log1p of H only, once per evaluation
        assert sizes == [K * N] * 6

    def test_masked_training_ignores_heldout_cells(self):
        # flipping held-out cells must not change the fit
        Y = random_binary_matrix(8, 6, 0.5, seed=5)
        mask = subsample_mask(8, 6, 0.6, seed=5)
        dense = Y.to_dense()
        flipped = dense.copy()
        held_out = ~mask.to_dense()
        flipped[held_out] = 1.0 - flipped[held_out]
        cfg = FitConfig(rank=2, seed=8)
        f1, r1 = fit(Y, mask, cfg)
        f2, r2 = fit(BinaryMatrix.from_dense(flipped), mask, cfg)
        assert r1.objective_trace == r2.objective_trace
        np.testing.assert_array_equal(f1.W, f2.W)
        np.testing.assert_array_equal(f1.H, f2.H)

    def test_fit_bits_do_not_depend_on_the_blas_thread_count(self):
        # Every fit runs its products at one OpenBLAS thread.  Before it did,
        # rank 8 gave the same bits at 1 and 2 threads in row blocks of at
        # most 2 ** 16 cells, but not in one block of all of 250 x 400, and
        # rank 16 differed at 600 x 900.
        if nbmf._workers._openblas_thread_calls() is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from nbmf import (BetaPrior, FitConfig, SplitSpec, fit,\n"
            "                  planted_dataset, split_observations)\n"
            "for M, N, K in [(250, 400, 8), (600, 900, 8), (600, 900, 16)]:\n"
            "    Y, _, _ = planted_dataset(M, N, 8, seed=1)\n"
            "    train, _, _ = split_observations(Y, SplitSpec(seed=1))\n"
            "    config = FitConfig(rank=K, prior=BetaPrior(3.0, 3.0),\n"
            "                       max_iter=50, tol=1e-300, seed=1)\n"
            "    factors, report = fit(Y, train, config)\n"
            "    trace = np.array(report.objective_trace)\n"
            "    print(M, N, K, *(hashlib.sha256(a.tobytes()).hexdigest()\n"
            "                     for a in (factors.W, factors.H, trace)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=str(src),
                         OPENBLAS_NUM_THREADS=str(threads)),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout.splitlines()
            for threads in (1, 2)
        ]
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]


def planted_fit_inputs(M, N, seed=1):
    Y, _, _ = planted_dataset(M, N, 3, seed=seed)
    train, _, _ = split_observations(Y, SplitSpec(seed=seed))
    return Y, train


def unpicklable_error():
    """An error that pickle refuses: one of its attributes is a lambda."""
    error = RuntimeError("block failed")
    error.retry = lambda: None
    return error


class TwoArgumentError(Exception):
    """An error that pickles but cannot be remade: its ``args`` hold the one
    message, and its constructor takes two arguments."""

    def __init__(self, block, sweep):
        super().__init__(f"block {block} failed at sweep {sweep}")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fits fork workers on Linux only")
class TestForkedFit:
    """A fit of several row blocks forks one worker per CPU it may use, up to
    one per block; ``_FORCED_CPUS`` sets that CPU count here."""

    def fit_on(self, monkeypatch, processes, Y, mask, config, on_sweep=None):
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", processes)
        factors, report = fit(Y, mask, config, on_sweep=on_sweep)
        n_blocks = len(nbmf.solver._blocks(*Y.shape))
        assert report.processes == min(processes, n_blocks)
        return factors, report

    @pytest.mark.parametrize("shape", [(400, 400), (600, 900), (1000, 400),
                                       (3, 70000)])
    @pytest.mark.parametrize("rank", [3, 8])
    def test_bits_do_not_depend_on_the_process_count(self, monkeypatch, shape,
                                                     rank):
        # 400 x 400 is 3 uneven blocks; 3 x 70000 is one row per block
        Y, train = planted_fit_inputs(*shape)
        config = FitConfig(rank=rank, prior=BetaPrior(3.0, 3.0), max_iter=8,
                           tol=1e-300, seed=2)
        runs = [self.fit_on(monkeypatch, p, Y, train, config) for p in (1, 2, 3)]
        (f1, r1), *others = runs
        for factors, report in others:
            assert report.objective_trace == r1.objective_trace
            assert factors.W.tobytes() == f1.W.tobytes()
            assert factors.H.tobytes() == f1.H.tobytes()

    def test_on_sweep_arrays_are_not_overwritten(self, monkeypatch):
        Y, train = planted_fit_inputs(600, 900)
        config = FitConfig(rank=4, max_iter=6, tol=1e-300, seed=2)
        seen = {1: [], 2: []}
        for p, factors in seen.items():
            self.fit_on(monkeypatch, p, Y, train, config,
                        on_sweep=lambda it, value, f: factors.append(f))
        assert len(seen[2]) == 6
        assert not np.array_equal(seen[2][0].W, seen[2][1].W)
        for f1, f2 in zip(seen[1], seen[2], strict=True):
            np.testing.assert_array_equal(f1.W, f2.W)
            np.testing.assert_array_equal(f1.H, f2.H)

    def test_worker_numerical_error_matches_one_process(self, monkeypatch):
        real = nbmf.solver._block_ratios

        def flaky(A, B, W, H, P, R, sweep=None, check=True):
            # the third block of 400 x 400, from row 266 on, leaves (0, 1) at
            # sweep 3; with 2 or 3 processes a worker runs it.  A is a view
            # of the fit's whole A, its base.
            offset = A.ctypes.data - A.base.ctypes.data
            if check and sweep == 3 and offset == 266 * A.strides[0]:
                H = H + 1.0
            return real(A, B, W, H, P, R, sweep, check)

        monkeypatch.setattr(nbmf.solver, "_block_ratios", flaky)
        Y, train = planted_fit_inputs(400, 400)
        config = FitConfig(rank=3, max_iter=10, tol=1e-300)
        before = child_pids()
        errors = []
        for p in (1, 2, 3):
            with pytest.raises(NumericalError) as excinfo:
                self.fit_on(monkeypatch, p, Y, train, config)
            errors.append((excinfo.value.iteration, str(excinfo.value)))
            assert child_pids() == before
        assert errors == [(3, "iteration 3: reconstruction left the open "
                              "interval (0, 1)")] * 3

    @pytest.mark.parametrize("error, named", [
        (unpicklable_error(), "RuntimeError: block failed"),
        (TwoArgumentError(2, 3), "TwoArgumentError: block 2 failed at sweep 3"),
    ], ids=["holds-a-lambda", "cannot-be-remade"])
    def test_worker_error_that_cannot_be_pickled_is_named(self, monkeypatch,
                                                          error, named):
        real = nbmf.solver._block_ratios

        def failing(A, B, W, H, P, R, sweep=None, check=True):
            # the third block of 400 x 400, as above, run by a worker at p > 1
            offset = A.ctypes.data - A.base.ctypes.data
            if check and sweep == 3 and offset == 266 * A.strides[0]:
                raise error
            return real(A, B, W, H, P, R, sweep, check)

        monkeypatch.setattr(nbmf.solver, "_block_ratios", failing)
        Y, train = planted_fit_inputs(400, 400)
        config = FitConfig(rank=3, max_iter=10, tol=1e-300)
        before = child_pids()
        with pytest.raises(type(error)) as excinfo:
            self.fit_on(monkeypatch, 1, Y, train, config)
        assert excinfo.value is error
        for p in (2, 3):
            with pytest.raises(NbmfError) as excinfo:
                self.fit_on(monkeypatch, p, Y, train, config)
            assert str(excinfo.value) == f"fit worker: {named}"
            assert child_pids() == before

    def test_no_pipe_outlives_the_fit(self, monkeypatch):
        Y, train = planted_fit_inputs(600, 900)
        config = FitConfig(rank=3, max_iter=4, tol=1e-300)
        before = sorted(os.listdir("/proc/self/fd"))
        self.fit_on(monkeypatch, 3, Y, train, config)
        assert sorted(os.listdir("/proc/self/fd")) == before

        def stop(iteration, value, factors):
            raise RuntimeError("on_sweep failed")

        with pytest.raises(RuntimeError, match="on_sweep failed"):
            self.fit_on(monkeypatch, 3, Y, train, config, on_sweep=stop)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_no_worker_outlives_the_fit(self, monkeypatch):
        Y, train = planted_fit_inputs(600, 900)
        config = FitConfig(rank=3, max_iter=4, tol=1e-300)
        before = child_pids()
        during = []

        def look(iteration, value, factors):
            during.append(child_pids() - before)

        self.fit_on(monkeypatch, 3, Y, train, config, on_sweep=look)
        assert [len(workers) for workers in during] == [2] * 4
        assert child_pids() == before

        def stop(iteration, value, factors):
            raise RuntimeError("on_sweep failed")

        with pytest.raises(RuntimeError, match="on_sweep failed"):
            self.fit_on(monkeypatch, 3, Y, train, config, on_sweep=stop)
        assert child_pids() == before

    def test_killed_worker_ends_the_fit(self, monkeypatch):
        Y, train = planted_fit_inputs(600, 900)
        config = FitConfig(rank=3, max_iter=50, tol=1e-300)
        before = child_pids()

        def kill_workers(iteration, value, factors):
            if iteration == 2:
                for pid in child_pids() - before:
                    os.kill(pid, signal.SIGKILL)

        with pytest.raises(NbmfError, match="fit worker process .* died"):
            self.fit_on(monkeypatch, 2, Y, train, config, on_sweep=kill_workers)
        assert child_pids() == before


class TestFitEm:
    def test_identical_to_flat_prior_fit(self):
        for seed in range(3):
            Y = random_binary_matrix(10, 8, 0.5, seed=seed)
            mask = subsample_mask(10, 8, 0.7, seed=seed)
            cfg = FitConfig(rank=2, prior=BetaPrior(3.0, 2.0), seed=seed)
            em_factors, em_report = fit_em(Y, mask, cfg)
            flat = FitConfig(rank=2, prior=BetaPrior(1.0, 1.0), seed=seed)
            ref_factors, ref_report = fit(Y, mask, flat)
            assert em_report.objective_trace == ref_report.objective_trace
            np.testing.assert_array_equal(em_factors.W, ref_factors.W)
            np.testing.assert_array_equal(em_factors.H, ref_factors.H)

    def test_flat_prior_objective_is_pure_likelihood(self):
        Y = random_binary_matrix(5, 5, 0.5, seed=1)
        factors = init_factors(5, 5, 2, seed=1)
        mask = full_mask(5, 5)
        flat = objective(Y, mask, factors, BetaPrior(1.0, 1.0))
        expected = naive_objective(
            Y.to_dense(), mask.to_dense(), factors.W, factors.H, 1.0, 1.0
        )
        assert flat == pytest.approx(expected, rel=1e-12)
