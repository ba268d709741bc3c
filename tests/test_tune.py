import functools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nbmf._workers
import nbmf.solver
import nbmf.tune
from nbmf import (
    BetaPrior,
    BinaryMatrix,
    ConfigError,
    FitConfig,
    GridResult,
    GridRow,
    GridSpec,
    NumericalError,
    SearchError,
    SplitSpec,
    best_row,
    export_heatmap,
    fit,
    grid_search,
    planted_dataset,
    random_binary_matrix,
    split_observations,
)
from nbmf import test_evaluation as run_test_evaluation
from nbmf.io import _write_json

LOG2 = math.log(2)


def make_row(rank, alpha, beta, val, seed=0):
    return GridRow(rank=rank, alpha=alpha, beta=beta, restart_seed=seed,
                   val_perplexity=val, test_perplexity=None, n_iter=10,
                   converged=True, wall_time=0.0)


@pytest.fixture(scope="module")
def small_problem():
    Y, _, _ = planted_dataset(24, 18, 2, seed=1)
    train, val, test = split_observations(Y, SplitSpec(seed=5))
    return Y, train, val, test


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.rank_values == (2, 4, 8, 16)
        assert grid.alpha_values == (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
        assert grid.n_restarts == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank_values": ()},
            {"alpha_values": (0.5,)},
            {"beta_values": (1.0, 0.9)},
            {"n_restarts": 0},
            {"rank_values": (0,)},
            {"tol": 0},
            {"max_iter": 0},
            {"epsilon": 0.5},
            {"alpha_values": (float("nan"),)},
            {"beta_values": (float("inf"),)},
            {"base_seed": -1},
            {"rank_values": (2, 2)},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"rank_values": (4, 2, 4)}, "rank_values lists 4 twice"),
        ({"alpha_values": (1, 2, 1.0)}, "alpha_values lists 1.0 twice"),
        ({"beta_values": (3.0, 3)}, "beta_values lists 3.0 twice"),
    ])
    def test_duplicate_value_names_axis_and_value(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"rank_values": (2.5,)}, "rank_values"),
        ({"n_restarts": 2.5}, "n_restarts"),
    ])
    def test_integer_settings_must_be_integers(self, kwargs, name):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("base_seed, message", [
        (1.5, "base_seed must be an integer, got 1.5"),
        (-2, "base_seed must be >= 0, got -2"),
    ], ids=["fractional", "negative"])
    def test_base_seed_checked_under_its_own_name(self, base_seed, message):
        with pytest.raises(ConfigError, match=message):
            GridSpec(base_seed=base_seed)

    def test_points_order(self):
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0,), beta_values=(1.0, 2.0))
        assert grid.points() == [(1, 1.0, 1.0), (1, 1.0, 2.0),
                                 (2, 1.0, 1.0), (2, 1.0, 2.0)]


class TestBestRow:
    def test_single_row(self):
        row = make_row(2, 1.0, 1.0, 0.5)
        assert best_row([row]) is row

    def test_ties_break_to_smaller_rank(self):
        rows = [make_row(4, 1.0, 1.0, 0.5), make_row(2, 3.0, 3.0, 0.5 + 5e-13)]
        assert best_row(rows).rank == 2

    def test_ties_break_to_smaller_prior_sum_then_alpha(self):
        rows = [make_row(2, 1.0, 3.0, 0.4), make_row(2, 2.0, 1.0, 0.4)]
        assert best_row(rows).alpha == 2.0  # alpha + beta = 3 < 4
        rows = [make_row(2, 3.0, 1.0, 0.4), make_row(2, 1.0, 3.0, 0.4)]
        assert best_row(rows).alpha == 1.0

    def test_clear_winner_beats_tie_rules(self):
        rows = [make_row(1, 1.0, 1.0, 0.6), make_row(8, 9.0, 9.0, 0.3)]
        assert best_row(rows).rank == 8

    def test_failed_rows_excluded(self):
        rows = [make_row(2, 1.0, 1.0, None), make_row(4, 1.0, 1.0, 0.7)]
        assert best_row(rows).rank == 4

    def test_all_failed_raises(self):
        with pytest.raises(SearchError):
            best_row([make_row(2, 1.0, 1.0, None)])


class TestGridSearch:
    def test_single_point_grid(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(2,), alpha_values=(1.5,), beta_values=(2.0,),
                        base_seed=3)
        results, best = grid_search(Y, train, val, grid)
        assert len(results) == 1
        assert best == results.rows[0]
        assert best.val_perplexity is not None and np.isfinite(best.val_perplexity)

    def test_overlapping_masks_rejected(self, small_problem):
        Y, train, _, _ = small_problem
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0,), beta_values=(1.0,))
        with pytest.raises(ConfigError):
            grid_search(Y, train, train, grid)

    def test_all_ones_prior_matching_data(self):
        # On all-ones data both alpha=1 and alpha=2 drive H to the top of
        # its range, so the informative prior can never score worse.
        Y = BinaryMatrix.from_dense(np.ones((8, 8)))
        train, val, _ = split_observations(Y, SplitSpec(seed=2))
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0, 2.0),
                        beta_values=(1.0,), base_seed=0)
        results, best = grid_search(Y, train, val, grid)
        by_alpha = {row.alpha: row.val_perplexity for row in results}
        assert by_alpha[2.0] <= by_alpha[1.0] + 1e-12

    def test_argmin_consistency(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                        beta_values=(1.0, 2.0), base_seed=1)
        results, best = grid_search(Y, train, val, grid)
        finite = [row.val_perplexity for row in results
                  if row.val_perplexity is not None]
        assert best.val_perplexity == min(finite)

    def test_em_baseline_never_beats_best(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0, 3.0),
                        beta_values=(1.0, 2.0), base_seed=2)
        results, best = grid_search(Y, train, val, grid)
        em_rows = [row.val_perplexity for row in results
                   if row.alpha == 1.0 and row.beta == 1.0]
        assert best.val_perplexity <= min(em_rows)

    def test_reproducible_and_parallel_identical(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                        beta_values=(1.0,), base_seed=7)
        strip = lambda rows: [
            (r.rank, r.alpha, r.beta, r.restart_seed, r.val_perplexity,
             r.n_iter, r.converged) for r in rows
        ]
        r1, b1 = grid_search(Y, train, val, grid)
        r2, b2 = grid_search(Y, train, val, grid)
        r3, b3 = grid_search(Y, train, val, grid, n_jobs=3)
        assert strip(r1) == strip(r2) == strip(r3)
        assert b1.key == b2.key == b3.key

    def test_csv_round_trip_and_byte_identical(self, small_problem, tmp_path):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                        beta_values=(1.0,), base_seed=7)
        results, _ = grid_search(Y, train, val, grid)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        results.to_csv(first)
        grid_search(Y, train, val, grid)[0].to_csv(second)
        assert first.read_bytes() == second.read_bytes()
        loaded = GridResult.from_csv(first)
        assert [r.val_perplexity for r in loaded] == \
            [r.val_perplexity for r in results]

    def test_bool_base_seed_survives_the_csv(self, small_problem, tmp_path):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0,), beta_values=(1.0,),
                        base_seed=True, max_iter=3)
        results, _ = grid_search(Y, train, val, grid)
        results.to_csv(tmp_path / "grid.csv")
        loaded = GridResult.from_csv(tmp_path / "grid.csv")
        assert [row.restart_seed for row in loaded] == [1]

    def test_resume_skips_completed_points(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                        beta_values=(1.0,), base_seed=4)
        full, best_full = grid_search(Y, train, val, grid)
        partial = full.rows[:2]
        fresh = []
        resumed, best_resumed = grid_search(
            Y, train, val, grid, resume_rows=partial, on_row=fresh.append
        )
        assert len(fresh) == 2  # only the two missing points were fit
        assert {row.key for row in fresh} == {row.key for row in full.rows[2:]}
        assert [r.val_perplexity for r in resumed] == \
            [r.val_perplexity for r in full]
        assert best_resumed.key == best_full.key

    def test_resume_of_interleaved_rows_matches_full_search(self, small_problem):
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                        beta_values=(1.0, 3.0), base_seed=4)
        full, best_full = grid_search(Y, train, val, grid)
        fresh = []
        resumed, best_resumed = grid_search(
            Y, train, val, grid, n_jobs=2, resume_rows=full.rows[1::2],
            on_row=fresh.append,
        )
        timeless = lambda rows: [replace(row, wall_time=0.0) for row in rows]
        assert timeless(resumed) == timeless(full)
        assert timeless(fresh) == timeless(full.rows[0::2])
        assert best_resumed.key == best_full.key

    def test_failed_fit_marks_row_and_is_excluded(self, small_problem, monkeypatch):
        Y, train, val, _ = small_problem
        real_fit = nbmf.tune.fit

        def flaky_fit(Y, mask, config, on_sweep=None):
            if config.rank == 2:
                raise NumericalError("boom", iteration=1)
            return real_fit(Y, mask, config, on_sweep=on_sweep)

        monkeypatch.setattr(nbmf.tune, "fit", flaky_fit)
        grid = GridSpec(rank_values=(1, 2), alpha_values=(1.0,), beta_values=(1.0,))
        results, best = grid_search(Y, train, val, grid)
        failed = [row for row in results if row.rank == 2]
        assert len(failed) == 1 and failed[0].val_perplexity is None
        assert best.rank == 1

    def test_all_failed_raises_search_error(self, small_problem, monkeypatch):
        Y, train, val, _ = small_problem

        def broken_fit(*args, **kwargs):
            raise NumericalError("boom", iteration=0)

        monkeypatch.setattr(nbmf.tune, "fit", broken_fit)
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0,), beta_values=(1.0,))
        with pytest.raises(SearchError):
            grid_search(Y, train, val, grid)


class TestTestEvaluation:
    def test_single_restart_collapses_stats(self, small_problem):
        Y, train, _, test = small_problem
        grid = GridSpec(rank_values=(2,), alpha_values=(2.0,), beta_values=(2.0,))
        config = grid.fit_config(2, 2.0, 2.0, 0)
        ev = run_test_evaluation(Y, train, test, config, n_restarts=1, base_seed=6)
        stats = ev.stats
        assert stats.minimum == stats.q1 == stats.median == stats.q3 == stats.maximum
        assert stats.median == ev.rows[0].test_perplexity

    def test_deterministic_rerun(self, small_problem):
        Y, train, _, test = small_problem
        grid = GridSpec(rank_values=(2,), alpha_values=(2.0,), beta_values=(2.0,))
        config = grid.fit_config(2, 2.0, 2.0, 0)
        a = run_test_evaluation(Y, train, test, config, n_restarts=4, base_seed=9)
        b = run_test_evaluation(Y, train, test, config, n_restarts=4, base_seed=9)
        assert [r.test_perplexity for r in a.rows] == \
            [r.test_perplexity for r in b.rows]

    def test_numpy_float_prior_reaches_the_json(self, small_problem):
        Y, train, _, test = small_problem
        prior = BetaPrior(np.float32(3), np.float32(2))
        config = FitConfig(rank=1, prior=prior, max_iter=3)
        text = run_test_evaluation(Y, train, test, config, n_restarts=1).to_json()
        assert '"alpha": 3.0' in text and '"beta": 2.0' in text

    def test_restart_seeds_are_base_plus_index(self, small_problem):
        Y, train, _, test = small_problem
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0,), beta_values=(1.0,))
        ev = run_test_evaluation(Y, train, test, grid.fit_config(1, 1.0, 1.0, 0),
                             n_restarts=3, base_seed=40)
        assert [r.restart_seed for r in ev.rows] == [40, 41, 42]

    def test_overlapping_masks_rejected(self, small_problem):
        Y, train, _, _ = small_problem
        grid = GridSpec(rank_values=(1,), alpha_values=(1.0,), beta_values=(1.0,))
        with pytest.raises(ConfigError, match="train and test masks overlap"):
            run_test_evaluation(Y, train, train, grid.fit_config(1, 1.0, 1.0, 0),
                                n_restarts=1)

    def test_fractional_restart_count_rejected(self, small_problem):
        Y, train, _, test = small_problem
        config = GridSpec().fit_config(1, 1.0, 1.0, 0)
        with pytest.raises(ConfigError, match="n_restarts must be an integer"):
            run_test_evaluation(Y, train, test, config, n_restarts=2.5)

    # n_jobs, which grid_search takes too, is checked under its own name
    @pytest.mark.parametrize("setting, value, message", [
        ("base_seed", 1.5, "base_seed must be an integer, got 1.5"),
        ("base_seed", -2, "base_seed must be >= 0, got -2"),
        ("n_jobs", 0, "n_jobs must be >= 1, got 0"),
        ("n_jobs", -3, "n_jobs must be >= 1, got -3"),
        ("n_jobs", 2.5, "n_jobs must be an integer, got 2.5"),
        ("n_jobs", "2", "n_jobs must be an integer, got '2'"),
    ], ids=["fractional", "negative", "jobs-zero", "jobs-negative",
            "jobs-fractional", "jobs-text"])
    def test_base_seed_checked_under_its_own_name(self, small_problem, setting,
                                                  value, message):
        Y, train, val, test = small_problem
        config = GridSpec().fit_config(1, 1.0, 1.0, 0)
        with pytest.raises(ConfigError, match=message):
            run_test_evaluation(Y, train, test, config, n_restarts=2,
                                **{setting: value})
        if setting == "n_jobs":
            with pytest.raises(ConfigError, match=message):
                grid_search(Y, train, val, SMALL_GRID, n_jobs=value)

    def test_all_restarts_failed_raises_search_error(self, small_problem,
                                                      monkeypatch):
        def broken_fit(*args, **kwargs):
            raise NumericalError("boom", iteration=0)

        monkeypatch.setattr(nbmf.tune, "fit", broken_fit)
        Y, train, _, test = small_problem
        config = GridSpec().fit_config(1, 1.0, 1.0, 0)
        with pytest.raises(SearchError, match="every restart failed"):
            run_test_evaluation(Y, train, test, config, n_restarts=2)

    def test_to_json_is_the_written_json(self, small_problem, tmp_path):
        Y, train, _, test = small_problem
        config = GridSpec().fit_config(1, 2.0, 1.5, 0)
        ev = run_test_evaluation(Y, train, test, config, n_restarts=2)
        _write_json(tmp_path / "boxstats.json", ev.to_dict())
        assert (tmp_path / "boxstats.json").read_bytes() == \
            (ev.to_json() + "\n").encode("utf-8")

    def test_planted_model_beats_coin(self):
        Y, _, _ = planted_dataset(60, 40, 3, h_alpha=3.0, h_beta=3.0, seed=6,
                                  w_concentration=0.3)
        train, val, test = split_observations(Y, SplitSpec(seed=7))
        grid = GridSpec(rank_values=(1, 2, 3), alpha_values=(1.0, 3.0, 9.0),
                        beta_values=(1.0, 3.0, 9.0), base_seed=0)
        _, best = grid_search(Y, train, val, grid)
        ev = run_test_evaluation(Y, train, test,
                             grid.fit_config(best.rank, best.alpha, best.beta, 0),
                             n_restarts=10, base_seed=0)
        assert ev.stats.median < LOG2


class TestExportHeatmap:
    def _rows(self):
        return GridResult((
            make_row(2, 1.0, 1.0, 0.5), make_row(2, 1.0, 2.0, 0.41),
            make_row(2, 3.0, 1.0, 0.47), make_row(2, 3.0, 2.0, 0.44),
            make_row(4, 1.0, 1.0, 0.6),
        ))

    def test_two_by_two_layout(self, tmp_path):
        path = tmp_path / "heat.csv"
        export_heatmap(self._rows(), 2, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha\\beta,1.0,2.0"
        assert lines[1].startswith("1.0,")
        assert lines[2].startswith("3.0,")
        assert len(lines) == 3

    def test_single_cell(self, tmp_path):
        path = tmp_path / "heat.csv"
        export_heatmap(GridResult((make_row(1, 2.0, 3.0, 0.9),)), 1, path)
        assert path.read_text() == "alpha\\beta,3.0\n2.0,0.9\n"

    def test_values_round_trip_at_full_precision(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "heat.csv"
        export_heatmap(GridResult((make_row(2, 1.0, 1.0, value),)), 2, path)
        cell = path.read_text().splitlines()[1].split(",")[1]
        assert float(cell) == value

    def test_mean_over_restarts(self, tmp_path):
        rows = GridResult((
            make_row(2, 1.0, 1.0, 0.4, seed=0), make_row(2, 1.0, 1.0, 0.6, seed=1),
        ))
        path = tmp_path / "heat.csv"
        export_heatmap(rows, 2, path)
        assert float(path.read_text().splitlines()[1].split(",")[1]) == \
            pytest.approx(0.5)

    def test_missing_combination_left_empty(self, tmp_path):
        rows = GridResult((
            make_row(2, 1.0, 1.0, 0.4), make_row(2, 2.0, 2.0, 0.5),
        ))
        path = tmp_path / "heat.csv"
        export_heatmap(rows, 2, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "1.0,0.4,"
        assert lines[2] == "2.0,,0.5"

    def test_unknown_rank_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            export_heatmap(self._rows(), 16, tmp_path / "heat.csv")


class TestCheckpointRows:
    def test_appended_rows_equal_to_csv_with_wall_time(self, tmp_path):
        rows = [
            make_row(2, 1.5, 3.0, 0.61803398875, seed=4),
            GridRow(rank=8, alpha=9.0, beta=1.0, restart_seed=4,
                    val_perplexity=None, test_perplexity=None, n_iter=0,
                    converged=False, wall_time=0.0),
            GridRow(rank=4, alpha=1.0, beta=2.0, restart_seed=4,
                    val_perplexity=0.5, test_perplexity=0.25, n_iter=17,
                    converged=True, wall_time=1.0 / 3.0),
            make_row(16, 9.0, 1.5, 1e-300, seed=2**40),
            GridRow(rank=1, alpha=1.0, beta=1.0, restart_seed=0,
                    val_perplexity=None, test_perplexity=0.1 + 0.2, n_iter=2000,
                    converged=False, wall_time=12.5),
        ]
        written = tmp_path / "partial.csv"
        GridResult(rows).to_csv(written)
        assert written.read_bytes() == (
            b"rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
            b"n_iter,converged\n"
            b"2,1.5,3.0,4,0.61803398875,,10,true\n"
            b"8,9.0,1.0,4,,,0,false\n"
            b"4,1.0,2.0,4,0.5,0.25,17,true\n"
            b"16,9.0,1.5,1099511627776,1e-300,,10,true\n"
            b"1,1.0,1.0,0,,0.30000000000000004,2000,false\n"
        )
        assert GridResult.from_csv(written).rows == \
            tuple(replace(row, wall_time=0.0) for row in rows)


class TestBlasThreadBound:
    def test_search_bounds_and_restores_blas_threads(self, monkeypatch,
                                                     small_problem):
        calls = nbmf._workers._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        get_threads = calls[0]
        before = get_threads()
        monkeypatch.setattr(nbmf.tune, "_fit_and_score",
                            lambda *args: (get_threads(), 1, True, 0.0, 1))
        Y, train, val, _ = small_problem
        for n_jobs in (1, 2):
            rows = grid_search(Y, train, val, SMALL_GRID, n_jobs=n_jobs)[0]
            assert [row.val_perplexity for row in rows] == [1] * 4
            assert get_threads() == before

    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch):
        # two row blocks, so each fit runs on as many processes as n_jobs
        # allows.  Without the OpenBLAS bound, with all of 250 x 400 in one
        # block, a serial search differed from one on a 2-thread pool in 1
        # of these 8 rows on 2 CPUs.
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)
        Y, _, _ = planted_dataset(250, 400, 8, 0.5, 0.5, seed=1)
        train, val, _ = split_observations(Y, SplitSpec(seed=1))
        grid = GridSpec(rank_values=(4, 8), alpha_values=(1.0, 3.0),
                        beta_values=(1.0, 3.0), n_restarts=1, max_iter=150,
                        tol=1e-15, base_seed=1)
        tables, processes = [], []
        for n_jobs in (1, 2):
            rows = grid_search(Y, train, val, grid, n_jobs=n_jobs)[0]
            tables.append([replace(row, wall_time=0.0, processes=0) for row in rows])
            processes.append({row.processes for row in rows})
        assert tables[0] == tables[1]
        assert processes == [{1}, {2}]

    def test_fits_run_on_the_calling_thread(self, monkeypatch):
        # two row blocks on 2 CPUs: n_jobs caps each fit's processes, None
        # leaves them uncapped, and no other thread is alive while it runs
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)
        Y, _, _ = planted_dataset(250, 400, 3, seed=2)
        train, val, _ = split_observations(Y, SplitSpec(seed=2))
        grid = GridSpec(rank_values=(2, 3), alpha_values=(1.0,),
                        beta_values=(1.0,), n_restarts=1, max_iter=5)
        threads, tables = [], {}
        for n_jobs, expected in [(1, {1}), (2, {2}), (None, {2})]:
            rows = grid_search(
                Y, train, val, grid, n_jobs=n_jobs,
                on_row=lambda row: threads.append(threading.active_count()),
            )[0]
            assert {row.processes for row in rows} == expected
            tables[n_jobs] = [replace(row, wall_time=0.0, processes=0)
                              for row in rows]
        assert threads == [1] * 6
        assert tables[1] == tables[2] == tables[None]

    def test_bound_holds_until_the_last_holder_exits(self):
        calls = nbmf._workers._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        get_threads, set_threads = calls
        before = get_threads()
        try:
            set_threads(2)
            if get_threads() != 2:
                pytest.skip("OpenBLAS runs at most one thread here")
            first = nbmf._workers._one_blas_thread()
            second = nbmf._workers._one_blas_thread()
            first.__enter__()
            second.__enter__()
            # the first holder leaves while the second, on another thread of
            # a library caller, would still be running
            first.__exit__(None, None, None)
            assert get_threads() == 1
            second.__exit__(None, None, None)
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_bound_never_raises_thread_count(self):
        calls = nbmf._workers._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        get_threads, set_threads = calls
        before = get_threads()
        try:
            set_threads(1)
            with nbmf._workers._one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 1
        finally:
            set_threads(before)

    def test_restored_when_a_job_raises(self, monkeypatch, small_problem):
        calls = nbmf._workers._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        before = calls[0]()

        def boom(*args):
            raise RuntimeError("job failed")

        monkeypatch.setattr(nbmf.tune, "_fit_and_score", boom)
        Y, train, val, _ = small_problem
        with pytest.raises(RuntimeError):
            grid_search(Y, train, val, SMALL_GRID, n_jobs=2)
        assert calls[0]() == before


class TestProcessCap:
    """``n_jobs`` caps the fits of one search only: the cap is restored
    however the search ends."""

    @staticmethod
    def plain_fit_processes():
        # two row blocks on 2 CPUs, so an uncapped fit runs on 2 processes
        Y, _, _ = planted_dataset(250, 400, 2, seed=3)
        train = split_observations(Y, SplitSpec(seed=3))[0]
        return fit(Y, train, FitConfig(rank=2, max_iter=2))[1].processes

    def test_restored_when_a_fit_raises(self, monkeypatch, small_problem):
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)

        def failing_fit(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(nbmf.tune, "fit", failing_fit)
        Y, train, val, _ = small_problem
        with pytest.raises(RuntimeError, match="fit failed"):
            grid_search(Y, train, val, SMALL_GRID, n_jobs=1)
        assert self.plain_fit_processes() == 2

    def test_restored_when_on_row_raises(self, monkeypatch, small_problem):
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)

        def failing_row(row):
            raise OSError("disk full")

        Y, train, val, _ = small_problem
        with pytest.raises(OSError, match="disk full"):
            grid_search(Y, train, val, SMALL_GRID, n_jobs=1, on_row=failing_row)
        assert self.plain_fit_processes() == 2

    def test_nested_scopes_restore_the_outer_cap(self, monkeypatch, small_problem):
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)
        Y, train, val, _ = small_problem
        with nbmf._workers.capping_fit_processes(1):
            grid_search(Y, train, val, SMALL_GRID, n_jobs=2)
            assert self.plain_fit_processes() == 1
            with nbmf._workers.capping_fit_processes(None):
                assert self.plain_fit_processes() == 2
            assert self.plain_fit_processes() == 1
        assert self.plain_fit_processes() == 2


class TestStopAtFirstFailure:
    """The fits run one at a time in grid order, so the first failure stops
    the search before any later fit starts."""

    def test_failing_fit_stops_the_search(self, monkeypatch, small_problem):
        started = []

        def fit_and_score(Y, train_mask, eval_mask, config):
            started.append(config.rank)
            if config.rank == 3:
                raise RuntimeError("fit failed")
            return 1.0, 1, True, 0.0, 1

        monkeypatch.setattr(nbmf.tune, "_fit_and_score", fit_and_score)
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=tuple(range(1, 22)), alpha_values=(1.0,),
                        beta_values=(1.0,), n_restarts=1, max_iter=5)
        with pytest.raises(RuntimeError, match="fit failed"):
            grid_search(Y, train, val, grid, n_jobs=2)
        assert started == [1, 2, 3]

    def test_failing_restart_stops_the_restarts(self, monkeypatch, small_problem):
        started = []

        def fit_and_score(Y, train_mask, eval_mask, config):
            started.append(config.seed)
            if config.seed == 2:
                raise RuntimeError("restart failed")
            return 1.0, 1, True, 0.0, 1

        monkeypatch.setattr(nbmf.tune, "_fit_and_score", fit_and_score)
        Y, train, _, test = small_problem
        config = GridSpec().fit_config(1, 1.0, 1.0, 0)
        with pytest.raises(RuntimeError, match="restart failed"):
            run_test_evaluation(Y, train, test, config, n_restarts=20, n_jobs=2)
        assert started == [0, 1, 2]

    def test_failing_row_callback_stops_the_search(self, monkeypatch,
                                                   small_problem):
        # grid_search's caller fails on a row (say, the partial CSV cannot be
        # written): each row reaches it as soon as its fit is scored, in grid
        # order, and no fit starts after the failing row
        started, seen = [], []

        def fit_and_score(Y, train_mask, eval_mask, config):
            started.append((config.rank, config.prior.alpha, config.prior.beta))
            return 1.0, 1, True, 0.0, 1

        def failing_row(row):
            seen.append(row.key)
            if len(seen) == 3:
                raise OSError("disk full")

        monkeypatch.setattr(nbmf.tune, "_fit_and_score", fit_and_score)
        Y, train, val, _ = small_problem
        grid = GridSpec(rank_values=(1, 2, 3, 4), alpha_values=(1.0, 2.0),
                        beta_values=(1.0, 2.0), n_restarts=1, max_iter=5)
        with pytest.raises(OSError, match="disk full"):
            grid_search(Y, train, val, grid, n_jobs=2, on_row=failing_row)
        assert started == grid.points()[:3]
        assert seen == [(*point, grid.base_seed) for point in grid.points()[:3]]


@pytest.fixture
def prepared(monkeypatch):
    """Each ``(mask, problem)`` that ``solver._prepare`` builds, in order."""
    real_prepare = nbmf.solver._prepare
    calls = []

    def recording_prepare(cells):
        mask = cells[1]
        problem = real_prepare(cells)
        calls.append((mask, problem))
        return problem

    monkeypatch.setattr(nbmf.solver, "_prepare", recording_prepare)
    return calls


SMALL_GRID = GridSpec(rank_values=(1, 2), alpha_values=(1.0, 2.0),
                      beta_values=(1.0,), n_restarts=3, max_iter=30)


class TestSharedProblem:
    """No problem is shared between fits: each prepares and frees its own."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_prepared_once_per_call_and_read_only(self, small_problem, prepared,
                                                  n_jobs):
        # each fit that runs prepares one problem of its own from the plain
        # train mask
        Y, train, val, test = small_problem
        _, best = grid_search(Y, train, val, SMALL_GRID, n_jobs=n_jobs)
        assert len(prepared) == len(SMALL_GRID.points())
        config = SMALL_GRID.fit_config(best.rank, best.alpha, best.beta, 0)
        run_test_evaluation(Y, train, test, config, n_restarts=3, n_jobs=n_jobs)
        assert len(prepared) == len(SMALL_GRID.points()) + 3
        # a sweep that wrote to A, B or n_obs would have raised, and
        # would leave other bytes than a fresh preparation
        fresh = nbmf.solver._prepare([Y, train])
        for mask, problem in prepared:
            assert mask is train
            for array, expected in zip(problem, fresh, strict=True):
                assert not array.flags.writeable
                assert array.tobytes() == expected.tobytes()

    def test_complete_resume_prepares_nothing(self, small_problem, prepared):
        Y, train, val, _ = small_problem
        done, _ = grid_search(Y, train, val, SMALL_GRID)
        prepared.clear()
        resumed, _ = grid_search(Y, train, val, SMALL_GRID, resume_rows=done.rows)
        assert resumed == done and prepared == []

    def test_dense_data_is_a_config_error(self, small_problem):
        Y, train, val, _ = small_problem
        with pytest.raises(ConfigError, match="BinaryMatrix"):
            grid_search(Y.to_dense(), train, val, SMALL_GRID)

    def test_rows_equal_plain_fits(self, small_problem):
        Y, train, val, _ = small_problem
        results, _ = grid_search(Y, train, val, SMALL_GRID, n_jobs=2)
        for row in results:
            config = SMALL_GRID.fit_config(row.rank, row.alpha, row.beta,
                                            row.restart_seed)
            score, n_iter, converged, _, processes = nbmf.tune._fit_and_score(
                Y, train, val, config)
            assert (score, n_iter, converged, processes) == (
                row.val_perplexity, row.n_iter, row.converged, row.processes)

    @staticmethod
    def _held_bytes_per_cell(run):
        """Traced bytes per cell that ``run()`` allocates and still holds
        when it returns, with what ``run`` returns kept alive."""
        Y = random_binary_matrix(300, 400, 0.5, seed=8)
        train, val, _ = split_observations(Y, SplitSpec(seed=8))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            kept = run(Y, train, val)  # noqa: F841
            now = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (now - held) / (300 * 400)

    def test_no_problem_held_after_a_fit_raises(self, monkeypatch):
        # the fit's error, held as by a caller reporting it, keeps the
        # search's frames alive through its traceback
        real_fit = nbmf.tune.fit

        def failing_fit(Y, mask, config, on_sweep=None):
            if config.rank == 2:
                raise RuntimeError("fit failed")
            return real_fit(Y, mask, config, on_sweep=on_sweep)

        def search(Y, train, val, n_jobs):
            with pytest.raises(RuntimeError, match="fit failed") as caught:
                grid_search(Y, train, val, SMALL_GRID, n_jobs=n_jobs)
            return caught

        monkeypatch.setattr(nbmf.tune, "fit", failing_fit)
        for n_jobs in (1, 2):
            assert self._held_bytes_per_cell(
                functools.partial(search, n_jobs=n_jobs)) < 1

    def test_no_problem_held_after_on_row_raises(self):
        # as above, for an error that the row callback raises after the
        # first fit is scored
        def failing_row(row):
            raise OSError("disk full")

        def search(Y, train, val, n_jobs):
            with pytest.raises(OSError, match="disk full") as caught:
                grid_search(Y, train, val, SMALL_GRID, n_jobs=n_jobs,
                            on_row=failing_row)
            return caught

        for n_jobs in (1, 2):
            assert self._held_bytes_per_cell(
                functools.partial(search, n_jobs=n_jobs)) < 1

    def test_search_holds_one_fit_or_one_score(self):
        # the fit that runs, with its own A and B (16 bytes a cell) and P
        # and R of at most 2 ** 16 cells each, or the one score, with a
        # full-size W @ H (8 bytes a cell) and about 6 bytes a cell over the
        # validation cells.  Measured: 25.4 at 300 x 400, where P and R are
        # 8.7 bytes a cell, and 19.1 at 500 x 800.  With one A and B held
        # across the search: 30.6 and 30.5.
        for (M, N), bound in [((500, 800), 24), ((300, 400), 28)]:
            Y = random_binary_matrix(M, N, 0.5, seed=8)
            train, val, _ = split_observations(Y, SplitSpec(seed=8))
            grid = GridSpec(rank_values=(4,), alpha_values=(1.0, 2.0),
                            beta_values=(1.0,), n_restarts=1, max_iter=3,
                            tol=1e-12)
            grid_search(Y, train, val, grid, n_jobs=2)  # warm
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                grid_search(Y, train, val, grid, n_jobs=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (peak - held) / (M * N) < bound, (M, N)
