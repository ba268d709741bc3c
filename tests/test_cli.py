import json
import math

import numpy as np
import pytest

import nbmf.cli
from nbmf import (
    FactorPair,
    GridResult,
    NbmfError,
    planted_dataset,
    save_coordinate_file,
    write_factors,
)
from nbmf.cli import main

BASE_CONFIG = """\
[run]
dataset = data.txt
out = out

[split]
train = 0.7
val = 0.15
test = 0.15
seed = 3

[fit]
rank = 2
alpha = 1.5
beta = 1.5
seed = 11
log_every = 0

[tune]
rank_values = 1 2
alpha_values = 1 2
beta_values = 1
n_restarts = 3
base_seed = 5
"""


@pytest.fixture
def workspace(tmp_path):
    Y, _, _ = planted_dataset(18, 12, 2, seed=9)
    save_coordinate_file(Y, tmp_path / "data.txt")
    (tmp_path / "run.ini").write_text(BASE_CONFIG)
    return tmp_path


def run(workspace, *args):
    return main([arg.replace("@", str(workspace)) for arg in args])


class TestFit:
    def test_writes_core_artifacts(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        out = workspace / "out"
        for name in ("W.txt", "H.txt", "meta.txt", "report.json"):
            assert (out / name).is_file()
        for name in ("train_mask.txt", "val_mask.txt", "test_mask.txt"):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest_fit.json").read_text())
        assert manifest["mode"] == "fit"
        assert manifest["seeds"] == {"split": 3, "fit": 11}
        assert "W.txt" in manifest["artifacts"]
        assert not (out / ".nbmf.lock").exists()

    def test_missing_dataset_exits_2_naming_path(self, workspace, capsys):
        (workspace / "run.ini").write_text(
            BASE_CONFIG.replace("dataset = data.txt", "dataset = nowhere.txt")
        )
        assert run(workspace, "fit", "--config", "@/run.ini") == 2
        assert "nowhere.txt" in capsys.readouterr().err

    def test_mode_mismatch_exits_2(self, workspace):
        (workspace / "run.ini").write_text("[run]\nmode = tune\n" + BASE_CONFIG[6:])
        assert run(workspace, "fit", "--config", "@/run.ini") == 2

    def test_rerun_byte_identical(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini", "--out", "@/a") == 0
        assert run(workspace, "fit", "--config", "@/run.ini", "--out", "@/b") == 0
        for name in ("W.txt", "H.txt", "meta.txt", "train_mask.txt"):
            assert (workspace / "a" / name).read_bytes() == \
                (workspace / "b" / name).read_bytes()

    def test_seed_override_changes_factors(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini", "--out", "@/a") == 0
        assert run(workspace, "fit", "--config", "@/run.ini", "--out", "@/b",
                   "--seed", "99") == 0
        meta = (workspace / "b" / "meta.txt").read_text()
        assert "seed 99" in meta
        assert (workspace / "a" / "W.txt").read_bytes() != \
            (workspace / "b" / "W.txt").read_bytes()

    def test_locked_output_dir_exits_1(self, workspace):
        out = workspace / "out"
        out.mkdir()
        (out / ".nbmf.lock").touch()
        assert run(workspace, "fit", "--config", "@/run.ini") == 1


class TestEval:
    def test_after_fit(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        payload = json.loads((workspace / "out" / "completion_report.json").read_text())
        for block in ("validation", "test"):
            assert math.isfinite(payload[block]["perplexity"])
        csv_lines = (workspace / "out" / "completion_report.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_missing_factors_exit_2(self, workspace, capsys):
        assert run(workspace, "eval", "--config", "@/run.ini") == 2
        assert "factor" in capsys.readouterr().err

    def test_wrong_shape_factors_exit_1(self, workspace):
        out = workspace / "out"
        factors = FactorPair(np.ones((18, 1)), np.full((1, 7), 0.5))
        write_factors(out, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        assert run(workspace, "eval", "--config", "@/run.ini") == 1

    def test_coin_factors_score_log_two(self, workspace):
        out = workspace / "out"
        factors = FactorPair(np.ones((18, 1)), np.full((1, 12), 0.5))
        write_factors(out, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        payload = json.loads((workspace / "out" / "completion_report.json").read_text())
        assert payload["validation"]["perplexity"] == pytest.approx(math.log(2))
        assert payload["test"]["perplexity"] == pytest.approx(math.log(2))

    def test_eval_rerun_csv_byte_identical(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        first = (workspace / "out" / "completion_report.csv").read_bytes()
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert (workspace / "out" / "completion_report.csv").read_bytes() == first


class TestTune:
    def test_writes_artifacts_and_prints_best(self, workspace, capsys):
        assert run(workspace, "tune", "--config", "@/run.ini") == 0
        out = workspace / "out"
        for name in ("grid_result.csv", "heatmap.csv", "boxstats.json"):
            assert (out / name).is_file()
        assert not (out / "grid_partial.csv").exists()
        console = capsys.readouterr().out
        assert "best rank=" in console and "median_test_perplexity=" in console
        stats = json.loads((out / "boxstats.json").read_text())
        assert set(stats["stats"]) == {"min", "q1", "median", "q3", "max"}
        assert len(stats["test_perplexities"]) == 3

    def test_single_point_grid(self, workspace):
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(
            "rank_values = 1 2", "rank_values = 2"
        ).replace("alpha_values = 1 2", "alpha_values = 2"))
        assert run(workspace, "tune", "--config", "@/run.ini") == 0
        lines = (workspace / "out" / "grid_result.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_rerun_byte_identical_csvs(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/a") == 0
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/b") == 0
        for name in ("grid_result.csv", "heatmap.csv"):
            assert (workspace / "a" / name).read_bytes() == \
                (workspace / "b" / name).read_bytes()

    def test_resume_from_partial_file(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/full") == 0
        reference = (workspace / "full" / "grid_result.csv").read_text()

        # simulate an interrupted run: the partial file holds the first rows
        resumed_dir = workspace / "resumed"
        resumed_dir.mkdir()
        header = ("rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
                  "n_iter,converged,wall_time")
        body = reference.splitlines()[1:3]
        (resumed_dir / "grid_partial.csv").write_text(
            header + "\n" + "\n".join(line + ",0.0" for line in body) + "\n"
        )
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 0
        assert (resumed_dir / "grid_result.csv").read_text() == reference
        assert not (resumed_dir / "grid_partial.csv").exists()

    def test_jobs_flag(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--jobs", "3") == 0

    def test_jobs_env_var_default(self, workspace, monkeypatch):
        monkeypatch.setenv("NBMF_JOBS", "2")
        assert run(workspace, "tune", "--config", "@/run.ini") == 0
        assert (workspace / "out" / "grid_result.csv").is_file()

    @pytest.mark.parametrize("flag", ["0", "-2", "abc", "1.5", ""])
    def test_bad_jobs_flag_exits_2(self, workspace, capsys, flag):
        assert run(workspace, "tune", "--config", "@/run.ini", "--jobs", flag) == 2
        assert "--jobs must be an integer >= 1" in capsys.readouterr().err
        assert not (workspace / "out" / "grid_result.csv").exists()

    @pytest.mark.parametrize("value", ["abc", "0", ""])
    def test_bad_jobs_env_var_exits_2(self, workspace, monkeypatch, capsys, value):
        monkeypatch.setenv("NBMF_JOBS", value)
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        assert "$NBMF_JOBS must be an integer >= 1" in capsys.readouterr().err

    def test_torn_partial_line_is_refit(self, workspace, capsys):
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/full") == 0
        reference = (workspace / "full" / "grid_result.csv").read_text()

        # an interrupted append leaves the last row without its newline
        resumed_dir = workspace / "resumed"
        resumed_dir.mkdir()
        header = ("rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
                  "n_iter,converged,wall_time")
        body = [line + ",0.0" for line in reference.splitlines()[1:3]]
        (resumed_dir / "grid_partial.csv").write_text(
            header + "\n" + body[0] + "\n" + body[1][:9]
        )
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 0
        assert "torn" in capsys.readouterr().out
        assert (resumed_dir / "grid_result.csv").read_text() == reference

    def test_torn_partial_header_starts_over(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/full") == 0
        (workspace / "resumed").mkdir()
        (workspace / "resumed" / "grid_partial.csv").write_text("rank,alp")
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 0
        assert (workspace / "resumed" / "grid_result.csv").read_bytes() == \
            (workspace / "full" / "grid_result.csv").read_bytes()

    def test_malformed_partial_row_exits_2(self, workspace, capsys):
        (workspace / "out").mkdir()
        (workspace / "out" / "grid_partial.csv").write_text(
            "rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
            "n_iter,converged,wall_time\n1,x\n"
        )
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        assert "grid_partial.csv" in capsys.readouterr().err

    def test_partial_rows_written_like_grid_result(self, workspace, monkeypatch):
        # stop the run after the grid so its checkpoint file stays behind
        def interrupted(*args, **kwargs):
            raise NbmfError("interrupted")

        monkeypatch.setattr(nbmf.cli, "test_evaluation", interrupted)
        assert run(workspace, "tune", "--config", "@/run.ini") == 1
        partial = workspace / "out" / "grid_partial.csv"
        rows = GridResult.from_csv(partial).rows
        assert len(rows) == 4
        rewritten = workspace / "rewritten.csv"
        GridResult(rows).to_csv(rewritten, include_wall_time=True)
        assert partial.read_bytes() == rewritten.read_bytes()

    def test_seed_override_sets_base_seed(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--seed", "70") == 0
        stats = json.loads((workspace / "out" / "boxstats.json").read_text())
        assert stats["restart_seeds"] == [70, 71, 72]


class TestReport:
    def test_summarizes_run(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert run(workspace, "report", "--out", "@/out") == 0
        console = capsys.readouterr().out
        assert "fit report:" in console
        assert "completion:" in console

    def test_missing_dir_exits_2(self, workspace):
        assert run(workspace, "report", "--out", "@/missing") == 2
