import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nbmf import (
    BetaPrior,
    BinaryMatrix,
    ConfigError,
    DimensionError,
    EmptyMaskError,
    FactorPair,
    FitConfig,
    FitReport,
    NumericalError,
    ObservationMask,
    fit,
    fit_em,
    init_factors,
    objective,
    random_binary_matrix,
    reconstruct,
    update_h,
    update_w,
)
from conftest import full_mask, subsample_mask

EPS = 1e-12


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
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)


class TestFitReport:
    def test_iteration_count_must_match_trace(self):
        with pytest.raises(ValueError):
            FitReport(objective_trace=(1.0, 0.5), n_iter=5, converged=True,
                      wall_time=0.0, seed=0)

    def test_round_trip_dict(self):
        report = FitReport((3.0, 2.0, 1.5), 2, True, 0.25, 7)
        assert FitReport.from_dict(report.to_dict()) == report


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

    def test_matches_naive_oracle(self, rng):
        for trial in range(5):
            M, N, K = 6, 5, 2
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
        for trial in range(4):
            M, N, K = 5, 6, 3
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
        for trial in range(4):
            M, N, K = 6, 5, 2
            Y = random_binary_matrix(M, N, 0.5, seed=20 + trial)
            factors = init_factors(M, N, K, seed=trial)
            for mask in (full_mask(M, N), subsample_mask(M, N, 0.65, seed=trial)):
                expected = naive_update_w(
                    Y.to_dense(), mask.to_dense(), factors.W, factors.H
                )
                got = update_w(Y, mask, factors, clamp=False)
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


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
        maskp = ObservationMask(
            M, N, frozenset((int(np.argwhere(perm == m)[0][0]), n)
                            for (m, n) in mask.cells)
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

        real = solver_mod._objective_arrays
        calls = {"count": 0}

        def flaky(Yd, Od, W, H, alpha, beta):
            calls["count"] += 1
            if calls["count"] == 3:  # evaluation after the second sweep
                return float("nan")
            return real(Yd, Od, W, H, alpha, beta)

        monkeypatch.setattr(solver_mod, "_objective_arrays", flaky)
        Y = random_binary_matrix(5, 5, 0.5, seed=0)
        with pytest.raises(NumericalError) as excinfo:
            fit(Y, full_mask(5, 5), FitConfig(rank=2, seed=0))
        assert excinfo.value.iteration == 2

    @pytest.mark.parametrize("prior", [BetaPrior(), BetaPrior(2.0, 1.5)])
    def test_sweeps_equal_replayed_public_updates(self, prior):
        # row 2 and column 4 have no observed cells
        M, N, K = 7, 6, 3
        Y = random_binary_matrix(M, N, 0.45, seed=12)
        cells = subsample_mask(M, N, 0.7, seed=12).cells
        mask = ObservationMask(
            M, N, frozenset((m, n) for m, n in cells if m != 2 and n != 4)
        )
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
            W = update_w(Y, mask, FactorPair(factors.W, H), epsilon=config.epsilon)
            factors = FactorPair(W, H)
            np.testing.assert_array_equal(got.H, H)
            np.testing.assert_array_equal(got.W, W)
            assert value == objective(Y, mask, factors, prior)
        np.testing.assert_array_equal(factors.W[2], start.W[2])

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
