"""The acceptance gate: ten checks, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

import math

import numpy as np
import pytest

import nbmf
from nbmf import (
    BetaPrior,
    BinaryMatrix,
    FactorPair,
    FitConfig,
    GridSpec,
    ObservationMask,
    SplitSpec,
    fit,
    fit_em,
    grid_search,
    objective,
    perplexity,
    planted_dataset,
    random_binary_matrix,
    reconstruct,
    split_observations,
    update_h,
    update_w,
)
from nbmf import test_evaluation as run_test_evaluation
from nbmf.cli import main as cli_main
from conftest import full_mask, subsample_mask

LOG2 = math.log(2)
EPS = 1e-12


def announce(number, name):
    print(f"[criterion {number:2d}] PASS  {name}")


def random_instances(count):
    """Deterministic stream of small instances with mixed masks and priors."""
    rng = np.random.default_rng(777)
    priors = [1.0, 1.5, 3.0]
    for index in range(count):
        M = int(rng.integers(2, 31))
        N = int(rng.integers(2, 31))
        K = int(rng.integers(1, 6))
        alpha = priors[index % 3]
        beta = priors[(index // 3) % 3]
        density = float(rng.uniform(0.2, 0.8))
        Y = random_binary_matrix(M, N, density, seed=1000 + index)
        if index % 2:
            mask = subsample_mask(M, N, 0.7, seed=2000 + index)
            if mask.n_cells == 0:
                mask = full_mask(M, N)
        else:
            mask = full_mask(M, N)
        yield index, Y, mask, FitConfig(
            rank=K, prior=BetaPrior(alpha, beta), tol=1e-9, max_iter=40,
            seed=3000 + index,
        )


def blocked_instances():
    """Two 400 x 400 instances, above the 2 ** 16 cells that a fit walks as
    one row block: full mask and flat prior, then a subsampled mask with a
    Beta(3, 1.5) prior."""
    for index, (mask_seed, alpha, beta) in enumerate([(None, 1.0, 1.0),
                                                      (2400, 3.0, 1.5)]):
        M = N = 400
        Y = random_binary_matrix(M, N, 0.4, seed=1200 + index)
        mask = full_mask(M, N) if mask_seed is None \
            else subsample_mask(M, N, 0.7, seed=mask_seed)
        yield f"blocked-{index}", Y, mask, FitConfig(
            rank=4, prior=BetaPrior(alpha, beta), tol=1e-9, max_iter=40,
            seed=3200 + index,
        )


def test_criterion_01_and_02_monotone_descent_with_constraints():
    """1: traces non-increasing within 1e-9 per step on 200 random instances
       and two multi-block ones.
    2: after every sweep W rows sum to 1 +- 1e-9, H in [eps, 1-eps],
       and W @ H stays inside (0, 1)."""
    checked_sweeps = 0
    for index, Y, mask, config in [*random_instances(200), *blocked_instances()]:

        def check_constraints(iteration, value, factors):
            nonlocal checked_sweeps
            checked_sweeps += 1
            assert np.abs(factors.W.sum(axis=1) - 1.0).max() <= 1e-9
            assert factors.W.min() >= 0.0
            assert factors.H.min() >= EPS and factors.H.max() <= 1.0 - EPS
            product = factors.W @ factors.H
            assert product.min() > 0.0 and product.max() < 1.0

        _, report = fit(Y, mask, config, on_sweep=check_constraints)
        steps = np.diff(report.objective_trace)
        assert steps.max() <= 1e-9, f"objective rose on instance {index}"
    assert checked_sweeps > 0
    announce(1, "monotone descent on 202 instances, 2 multi-block (<= 1e-9 per step)")
    announce(2, f"constraints preserved across {checked_sweeps} sweeps")


def test_criterion_03_em_equivalence():
    """fit_em matches fit with a flat prior element for element."""
    for seed in range(20):
        M = 6 + (seed % 5)
        N = 5 + (seed % 7)
        Y = random_binary_matrix(M, N, 0.5, seed=seed)
        mask = subsample_mask(M, N, 0.75, seed=seed) if seed % 2 \
            else full_mask(M, N)
        config = FitConfig(rank=1 + seed % 3, prior=BetaPrior(2.0, 3.0),
                           max_iter=60, seed=seed)
        em_factors, em_report = fit_em(Y, mask, config)
        flat = FitConfig(rank=config.rank, prior=BetaPrior(1.0, 1.0),
                         max_iter=60, seed=seed)
        ref_factors, ref_report = fit(Y, mask, flat)
        assert em_report.objective_trace == ref_report.objective_trace
        np.testing.assert_array_equal(em_factors.W, ref_factors.W)
        np.testing.assert_array_equal(em_factors.H, ref_factors.H)
    announce(3, "flat-prior fit and named EM entry point agree on 20 instances")


def test_criterion_04_stationarity_at_convergence():
    """Central finite differences of the objective w.r.t. interior H entries
    vanish within 1e-4 after a tightly converged full-mask fit."""
    instances = [
        (8, 6, 2, 1.5, 2.0), (10, 7, 3, 3.0, 3.0), (6, 9, 2, 2.0, 1.5),
        (12, 5, 2, 1.0, 1.0), (7, 7, 1, 2.5, 2.5), (9, 8, 3, 1.5, 1.5),
        (5, 10, 2, 3.0, 1.5), (11, 6, 2, 1.0, 2.0), (8, 8, 4, 2.0, 2.0),
        (10, 10, 3, 1.0, 1.0),
    ]
    step = 1e-6
    for i, (M, N, K, alpha, beta) in enumerate(instances):
        Y = random_binary_matrix(M, N, 0.45, seed=100 + i)
        mask = full_mask(M, N)
        prior = BetaPrior(alpha, beta)
        config = FitConfig(rank=K, prior=prior, tol=1e-12, max_iter=20000, seed=i)
        factors, report = fit(Y, mask, config)
        assert report.converged
        interior = (factors.H > 1e-4) & (factors.H < 1.0 - 1e-4)
        assert interior.any()
        for k in range(K):
            for n in range(N):
                if not interior[k, n]:
                    continue
                up, down = factors.H.copy(), factors.H.copy()
                up[k, n] += step
                down[k, n] -= step
                grad = (
                    objective(Y, mask, FactorPair(factors.W, up), prior)
                    - objective(Y, mask, FactorPair(factors.W, down), prior)
                ) / (2 * step)
                assert abs(grad) <= 1e-4, f"instance {i}, entry ({k}, {n})"
    announce(4, "finite-difference gradients vanish (<= 1e-4) on 10 instances")


def test_criterion_05_brute_force_oracle():
    """On a 2x2 instance with rank 1, the fitted objective matches a dense
    grid search over both H entries to 1e-3."""
    Y = BinaryMatrix(2, 2, frozenset([(0, 0), (1, 1)]))
    mask = full_mask(2, 2)
    factors, report = fit(
        Y, mask, FitConfig(rank=1, prior=BetaPrior(1.0, 1.0), tol=1e-8, seed=0)
    )
    np.testing.assert_array_equal(factors.W, np.ones((2, 1)))

    # independent oracle: evaluate the likelihood on the full 2-d grid
    dense = Y.to_dense()
    grid = np.arange(1, 1000) / 1000.0
    h0, h1 = np.meshgrid(grid, grid, indexing="ij")
    total = np.zeros_like(h0)
    for m in range(2):
        total -= dense[m, 0] * np.log(h0) + (1 - dense[m, 0]) * np.log(1 - h0)
        total -= dense[m, 1] * np.log(h1) + (1 - dense[m, 1]) * np.log(1 - h1)
    brute_min = total.min()
    assert abs(report.final_objective - brute_min) <= 1e-3
    announce(5, f"fit reaches the brute-force optimum ({brute_min:.6f}) within 1e-3")


def test_criterion_06_hand_derived_update_oracle():
    """The hand-evaluated closed-form examples reproduce to 1e-12, pre-clamp."""
    tol = 1e-12
    mask21 = full_mask(2, 1)
    half = FactorPair(np.ones((2, 1)), np.array([[0.5]]))
    ones21 = BinaryMatrix(2, 1, frozenset([(0, 0), (1, 0)]))
    zeros21 = BinaryMatrix(2, 1, frozenset())
    # H update: evidence 2 vs 0, 0 vs 2, and 3 vs 1 with the (2, 2) prior
    assert update_h(ones21, mask21, half, BetaPrior(), clamp=False)[0, 0] == \
        pytest.approx(1.0, abs=tol)
    assert update_h(zeros21, mask21, half, BetaPrior(), clamp=False)[0, 0] == \
        pytest.approx(0.0, abs=tol)
    assert update_h(ones21, mask21, half, BetaPrior(2, 2), clamp=False)[0, 0] == \
        pytest.approx(0.75, abs=tol)
    # W update: complementary patterns split the row weight evenly
    wide = BinaryMatrix(1, 2, frozenset([(0, 0), (0, 1)]))
    factors = FactorPair(np.array([[0.4, 0.6]]),
                         np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(
        update_w(wide, full_mask(1, 2), factors, clamp=False),
        [[0.5, 0.5]], rtol=0, atol=tol,
    )
    # objective: identity data at the coin prediction, with and without prior
    identity = BinaryMatrix(2, 2, frozenset([(0, 0), (1, 1)]))
    coin = FactorPair(np.ones((2, 1)), np.array([[0.5, 0.5]]))
    assert objective(identity, full_mask(2, 2), coin, BetaPrior()) == \
        pytest.approx(4 * LOG2, abs=tol)
    assert objective(identity, full_mask(2, 2), coin, BetaPrior(2, 1)) == \
        pytest.approx(6 * LOG2, abs=tol)
    # reconstruction: plain mixture arithmetic
    mix = FactorPair(np.array([[0.3, 0.7]]), np.array([[0.2], [0.9]]))
    assert reconstruct(mix)[0, 0] == pytest.approx(0.69, abs=tol)
    announce(6, "hand-derived update, objective, and reconstruction oracles (1e-12)")


def test_criterion_07_prior_benefit_on_planted_data():
    """Grid-tuned prior vs. the flat-prior baseline, each at its own
    validation-selected rank, on model-generated data: the tuned
    configuration's 10-restart median test perplexity must not exceed the
    baseline's, and both must beat the constant-0.5 score log 2."""
    Y, _, _ = planted_dataset(60, 40, 3, h_alpha=3.0, h_beta=3.0, seed=6,
                              w_concentration=0.3)
    train, val, test = split_observations(Y, SplitSpec(0.7, 0.15, 0.15, seed=7))
    grid = GridSpec(
        rank_values=(1, 2, 3),
        alpha_values=(1.0, 2.0, 3.0, 5.0, 9.0),
        beta_values=(1.0, 2.0, 3.0, 5.0, 9.0),
        n_restarts=10, base_seed=0,
    )
    results, best = grid_search(Y, train, val, grid)
    flat_rows = [row for row in results
                 if row.alpha == 1.0 and row.beta == 1.0
                 and row.val_perplexity is not None]
    flat_best = min(flat_rows, key=lambda row: row.val_perplexity)

    tuned = run_test_evaluation(
        Y, train, test, grid.fit_config(best.rank, best.alpha, best.beta, 0),
        n_restarts=10, base_seed=0,
    )
    flat = run_test_evaluation(
        Y, train, test, grid.fit_config(flat_best.rank, 1.0, 1.0, 0),
        n_restarts=10, base_seed=0,
    )
    assert tuned.stats.median <= flat.stats.median, (
        f"tuned {tuned.stats.median:.4f} vs flat {flat.stats.median:.4f}"
    )
    assert tuned.stats.median < LOG2
    assert flat.stats.median < LOG2
    announce(7, (
        f"tuned median {tuned.stats.median:.4f} <= flat median "
        f"{flat.stats.median:.4f}, both < log 2 ({LOG2:.4f})"
    ))


def test_criterion_08_protocol_fidelity():
    """With the default settings the loop stops at a relative objective
    change below 1e-5, or after exactly 2000 sweeps, whichever comes first."""
    defaults = FitConfig(rank=2)
    assert defaults.tol == 1e-5 and defaults.max_iter == 2000

    # fast-converging: the tolerance rule fires well before the cap
    Y = random_binary_matrix(9, 7, 0.5, seed=3)
    _, fast = fit(Y, full_mask(9, 7), FitConfig(rank=2, seed=1))
    assert fast.converged and fast.n_iter < 2000
    trace = fast.objective_trace
    rel = [abs(trace[i - 1] - trace[i]) / abs(trace[i - 1])
           for i in range(1, len(trace))]
    assert rel[-1] < 1e-5
    assert all(value >= 1e-5 for value in rel[:-1])

    # slow-converging: two nearly parallel row patterns keep the relative
    # change above the tolerance, so the sweep cap fires
    M, N = 16, 160
    dense = np.ones((M, N))
    dense[: M // 2, 0] = 0.0
    dense[M // 2:, N - 1] = 0.0
    slow_data = BinaryMatrix.from_dense(dense)
    _, slow = fit(slow_data, full_mask(M, N), FitConfig(rank=2, seed=0))
    assert not slow.converged
    assert slow.n_iter == 2000
    assert len(slow.objective_trace) == 2001
    announce(8, (
        f"tolerance rule fired at sweep {fast.n_iter}; cap held the slow "
        f"instance at 2000 sweeps"
    ))


def test_criterion_09_perplexity_hand_examples():
    """The three hand-evaluated perplexity values reproduce to 1e-4."""
    Y = random_binary_matrix(4, 4, 0.5, seed=0)
    mask = full_mask(4, 4)
    assert perplexity(Y, mask, np.full((4, 4), 0.5)).value == \
        pytest.approx(0.6931, abs=1e-4)

    Yp = BinaryMatrix(1, 2, frozenset([(0, 0)]))
    assert perplexity(Yp, full_mask(1, 2), np.array([[0.8, 0.4]])).value == \
        pytest.approx(0.3670, abs=1e-4)

    dense = Y.to_dense()
    sharp = np.where(dense == 1.0, 1.0 - EPS, EPS)
    assert perplexity(Y, mask, sharp).value == pytest.approx(0.0, abs=1e-9)
    announce(9, "perplexity oracle values 0.6931, 0.3670, ~0 reproduced")


def test_criterion_10_cli_reproducibility(tmp_path):
    """Re-running any CLI mode with the same config and seed yields
    byte-identical factor files and result CSVs."""
    Y, _, _ = planted_dataset(15, 10, 2, seed=4)
    nbmf.save_coordinate_file(Y, tmp_path / "data.txt")
    (tmp_path / "run.ini").write_text(
        "[run]\ndataset = data.txt\n\n[split]\nseed = 2\n\n"
        "[fit]\nrank = 2\nalpha = 2\nbeta = 2\nseed = 5\nlog_every = 0\n\n"
        "[tune]\nrank_values = 1 2\nalpha_values = 1 2\nbeta_values = 1\n"
        "n_restarts = 2\nbase_seed = 3\n"
    )
    config = str(tmp_path / "run.ini")

    for out in ("fit_a", "fit_b"):
        assert cli_main(["fit", "--config", config,
                         "--out", str(tmp_path / out)]) == 0
        assert cli_main(["eval", "--config", config,
                         "--out", str(tmp_path / out)]) == 0
    for name in ("W.txt", "H.txt", "meta.txt", "completion_report.csv",
                 "train_mask.txt", "val_mask.txt", "test_mask.txt"):
        assert (tmp_path / "fit_a" / name).read_bytes() == \
            (tmp_path / "fit_b" / name).read_bytes(), name

    for out in ("tune_a", "tune_b"):
        assert cli_main(["tune", "--config", config,
                         "--out", str(tmp_path / out)]) == 0
    for name in ("grid_result.csv", "heatmap.csv"):
        assert (tmp_path / "tune_a" / name).read_bytes() == \
            (tmp_path / "tune_b" / name).read_bytes(), name
    announce(10, "repeated CLI runs are byte-identical (factors and CSVs)")
