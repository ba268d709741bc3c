import hashlib
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nbmf._workers
import nbmf.cli
import nbmf.solver
import nbmf.tune
from nbmf import (
    BetaPrior,
    CompletionReport,
    FactorPair,
    FitConfig,
    GridResult,
    GridSpec,
    NbmfError,
    NumericalError,
    SplitSpec,
    completion_report,
    load_coordinate_file,
    load_mask,
    planted_dataset,
    read_factors,
    reconstruct,
    save_coordinate_file,
    write_factors,
)
from nbmf.cli import RunConfig, load_run_config, main
from conftest import child_pids

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


def with_search_stamp(workspace, rows):
    """``rows`` with the last line that a tune of ``run.ini`` writes below
    them in its checkpoint."""
    digest = lambda data: hashlib.sha256(data).hexdigest()
    return (f"{rows}# config_sha256={digest((workspace / 'run.ini').read_bytes())} "
            f"dataset_sha256={digest((workspace / 'data.txt').read_bytes())} "
            f"rows_sha256={digest(rows.encode())}\n")


def temporary_files(directory):
    return [path.name for path in directory.iterdir() if path.name.endswith(".tmp")]


def fit_without_factor_digests(workspace):
    """Run fit, then drop the factor digests from its manifest, as from one
    written before it recorded them, so that eval reads edited factors."""
    assert run(workspace, "fit", "--config", "@/run.ini") == 0
    path = workspace / "out" / "manifest_fit.json"
    payload = json.loads(path.read_text())
    del payload["factor_sha256"]
    path.write_text(json.dumps(payload))


EVERY_KEY_CONFIG = """\
[run]
mode = {mode}
dataset = data.txt
out = elsewhere

[split]
train = 0.5
val = 0.2
test = 0.3
seed = 8

[fit]
rank = 3
alpha = 2.5
beta = 4
tol = 1e-6
max_iter = 77
epsilon = 1e-9
seed = 12
log_every = 5

[tune]
rank_values = 3 5
alpha_values = 1.25
beta_values = 2 7
n_restarts = 2
base_seed = 21
tol = 1e-4
max_iter = 33
epsilon = 1e-8
"""


def differs_in_every_field(value, default):
    return all(
        getattr(value, f.name) != getattr(default, f.name) for f in fields(value)
    )


class TestConfig:
    @pytest.mark.parametrize("mode", ["fit", "eval", "tune"])
    def test_every_key_lands_in_its_field(self, workspace, mode):
        path = workspace / "every.ini"
        path.write_text(EVERY_KEY_CONFIG.format(mode=mode))
        config = load_run_config(path, mode)
        split = SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.3, seed=8)
        fit_config = FitConfig(rank=3, prior=BetaPrior(alpha=2.5, beta=4.0), tol=1e-6,
                               max_iter=77, epsilon=1e-9, seed=12)
        grid = GridSpec(rank_values=(3, 5), alpha_values=(1.25,),
                        beta_values=(2.0, 7.0), n_restarts=2, base_seed=21,
                        tol=1e-4, max_iter=33, epsilon=1e-8)
        assert differs_in_every_field(split, SplitSpec())
        assert differs_in_every_field(fit_config, FitConfig(rank=4))
        assert differs_in_every_field(fit_config.prior, BetaPrior())
        assert differs_in_every_field(grid, GridSpec())
        assert config == RunConfig(
            mode=mode,
            dataset=workspace / "data.txt",
            out_dir=workspace / "elsewhere",
            split=split,
            fit_config=None if mode == "tune" else fit_config,
            grid=grid if mode == "tune" else None,
            log_every=5,
            config_sha256=config.config_sha256,
        )

    @pytest.mark.parametrize("mode", ["fit", "eval", "tune"])
    def test_run_section_alone_gives_dataclass_defaults(self, workspace, mode):
        path = workspace / "bare.ini"
        path.write_text("[run]\ndataset = data.txt\nout = out\n")
        config = load_run_config(path, mode)
        assert config == RunConfig(
            mode=mode,
            dataset=workspace / "data.txt",
            out_dir=workspace / "out",
            split=SplitSpec(),
            fit_config=None if mode == "tune" else FitConfig(rank=4),
            grid=GridSpec() if mode == "tune" else None,
            config_sha256=config.config_sha256,
        )

    @pytest.mark.parametrize("old, new, named", [
        ("alpha = 1.5", "alpah = 3", "alpah"),
        ("[fit]", "[Fit]", "[Fit]"),
        ("[split]", "[DEFAULT]\nseed = 3\n\n[split]", "[DEFAULT]"),
        ("n_restarts = 3", "n_restarts = 3\nmax_iters = 5", "max_iters"),
    ])
    @pytest.mark.parametrize("mode", ["fit", "tune"])
    def test_unknown_key_or_section_exits_2_naming_it(self, workspace, capsys,
                                                      mode, old, new, named):
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new))
        assert run(workspace, mode, "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("mode, old, new, flags", [
        ("fit", "seed = 11", "seed = -1", ()),
        ("fit", None, None, ("--seed", "-1")),
        ("tune", None, None, ("--seed", "-1")),
        ("tune", "base_seed = 5", "base_seed = 5\ntol = 0", ()),
    ])
    def test_bad_fit_setting_exits_2_before_any_output(self, workspace, capsys,
                                                        mode, old, new, flags):
        if old is not None:
            (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new))
        assert run(workspace, mode, "--config", "@/run.ini", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (workspace / "out").exists()

    # the grammar of meta.txt: int() and float() would take each of these
    @pytest.mark.parametrize("mode, old, new, named", [
        ("fit", "rank = 2", "rank = 1_0", "[fit] value: rank = '1_0'"),
        ("fit", "beta = 1.5", "beta = 1.5\ntol = inf", "[fit] value: tol = 'inf'"),
        ("tune", "rank_values = 1 2", "rank_values = 1 \u0662",
         "[tune] value: rank_values = '1 \u0662'"),
    ], ids=["underscore", "infinity", "arabic-indic-digit"])
    def test_number_outside_the_grammar_exits_2_naming_it(self, workspace, capsys,
                                                           mode, old, new, named):
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new),
                                           encoding="utf-8")
        assert run(workspace, mode, "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad ") and named in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("mode, flags, jobs_env, named", [
        ("fit", ("--seed", "1_0"), None, "--seed must be an integer, got '1_0'"),
        ("tune", ("--seed", "\u0661"), None,
         "--seed must be an integer, got '\u0661'"),
        ("tune", ("--jobs", "\u0662"), None,
         "--jobs must be an integer >= 1, got '\u0662'"),
        ("tune", (), "1_0", "$NBMF_JOBS must be an integer >= 1, got '1_0'"),
    ], ids=["seed-underscore", "seed-digit", "jobs-digit", "env-underscore"])
    def test_integer_flag_outside_the_grammar_exits_2(self, workspace, capsys,
                                                      monkeypatch, mode, flags,
                                                      jobs_env, named):
        if jobs_env is not None:
            monkeypatch.setenv("NBMF_JOBS", jobs_env)
        assert run(workspace, mode, "--config", "@/run.ini", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (workspace / "out" / "grid_result.csv").exists()

    def test_seed_flag_replaces_a_bad_configured_seed(self, workspace):
        (workspace / "run.ini").write_text(
            BASE_CONFIG.replace("seed = 11", "seed = -1")
        )
        config = load_run_config(workspace / "run.ini", "fit", seed=4)
        assert config.fit_config.seed == 4

    def test_percent_sign_is_literal(self, workspace):
        (workspace / "run.ini").write_text(
            BASE_CONFIG.replace("out = out", "out = out%x")
        )
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert (workspace / "out%x" / "W.txt").is_file()


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

    @pytest.mark.parametrize("command, name", [
        ("fit", "data.txt"), ("eval", "data.txt"),
    ])
    def test_non_utf8_coordinate_file_exits_1(self, workspace, capsys, command, name):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        (workspace / name).write_bytes(b"18 12\n0 1\n\xff 2\n")
        capsys.readouterr()
        assert run(workspace, command, "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3: not UTF-8 text" in err
        assert f"{workspace / name}: line 3" in err

    def test_mode_mismatch_exits_2(self, workspace):
        (workspace / "run.ini").write_text("[run]\nmode = tune\n" + BASE_CONFIG[6:])
        assert run(workspace, "fit", "--config", "@/run.ini") == 2

    @pytest.mark.parametrize("mode, value, message", [
        pytest.param("fit", "abc", "bad [fit] value", id="fit"),
        pytest.param("tune", "abc", "bad [fit] value", id="tune"),
        *(pytest.param(mode, "-5", "log_every must be >= 0, got -5",
                       id=f"{mode}-negative") for mode in ("fit", "eval", "tune")),
    ])
    def test_bad_log_every_exits_2(self, workspace, capsys, mode, value, message):
        (workspace / "run.ini").write_text(
            BASE_CONFIG.replace("log_every = 0", f"log_every = {value}")
        )
        assert run(workspace, mode, "--config", "@/run.ini") == 2
        assert message in capsys.readouterr().err
        assert not (workspace / "out").exists()

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

    def test_lock_names_the_running_process(self, workspace, monkeypatch):
        lock = workspace / "out" / ".nbmf.lock"
        real_fit, seen = nbmf.cli._fit_cells, []

        def fit_reading_lock(*args, **kwargs):
            seen.append(lock.read_text())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(nbmf.cli, "_fit_cells", fit_reading_lock)
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert seen == [f"{os.getpid()}\n"]
        assert not lock.exists()

    def test_lock_of_dead_process_is_reported_not_taken(self, workspace, capsys):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        out = workspace / "out"
        out.mkdir()
        (out / ".nbmf.lock").write_text(f"{dead.pid}\n")
        assert run(workspace, "fit", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert f"process {dead.pid}, which is no longer running" in err
        assert (out / ".nbmf.lock").read_text() == f"{dead.pid}\n"
        assert not (out / "W.txt").exists()

    def test_lock_of_live_process_is_reported(self, workspace, capsys):
        out = workspace / "out"
        out.mkdir()
        (out / ".nbmf.lock").write_text(f"{os.getpid()}\n")
        assert run(workspace, "fit", "--config", "@/run.ini") == 1
        assert f"process {os.getpid()}, which is still running" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"\xff\n", b"not a pid\n", b"0\n"])
    def test_lock_naming_no_process_is_reported(self, workspace, capsys, content):
        out = workspace / "out"
        out.mkdir()
        (out / ".nbmf.lock").write_bytes(content)
        assert run(workspace, "fit", "--config", "@/run.ini") == 1
        assert "is locked by another run" in capsys.readouterr().err


    def test_fit_holds_only_what_the_sweeps_read(self, tmp_path):
        # A and B (16 bytes a cell) and the boolean train mask while B is
        # made (1); the dataset and the split's masks are gone by then.
        # Measured: 19.5 bytes a cell, and 31.5 when the fit held them too.
        M, N = 600, 900  # nine row blocks
        Y, _, _ = planted_dataset(M, N, 8, 0.5, 0.5, seed=1)
        save_coordinate_file(Y, tmp_path / "data.txt")
        del Y
        (tmp_path / "run.ini").write_text(BASE_CONFIG.replace(
            "rank = 2", "rank = 8\nmax_iter = 3"))
        tracemalloc.start()
        try:
            assert run(tmp_path, "fit", "--config", "@/run.ini") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (M * N) <= 22


class TestEval:
    def test_after_fit(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        payload = json.loads((workspace / "out" / "completion_report.json").read_text())
        for block in ("validation", "test"):
            assert math.isfinite(payload[block]["perplexity"])
        csv_lines = (workspace / "out" / "completion_report.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_written_reports_are_to_json_and_to_csv_row(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        out = workspace / "out"
        factors, _ = read_factors(out)
        val, test = (load_mask(out / f"{name}_mask.txt") for name in ("val", "test"))
        report = completion_report(load_coordinate_file(workspace / "data.txt"),
                                   val, test, reconstruct(factors))
        assert (out / "completion_report.json").read_bytes() == \
            (report.to_json() + "\n").encode("utf-8")
        assert (out / "completion_report.csv").read_bytes() == (
            CompletionReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n"
        ).encode("utf-8")

    def test_missing_factors_exit_2(self, workspace, capsys):
        assert run(workspace, "eval", "--config", "@/run.ini") == 2
        assert "factor" in capsys.readouterr().err

    def test_wrong_shape_factors_exit_1(self, workspace):
        out = workspace / "out"
        factors = FactorPair(np.ones((18, 1)), np.full((1, 7), 0.5))
        write_factors(out, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        assert run(workspace, "eval", "--config", "@/run.ini") == 1

    @pytest.mark.parametrize("damage", ["torn_row", "nan"])
    def test_damaged_factor_file_exits_1_naming_it(self, workspace, capsys, damage):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        w_path = workspace / "out" / "W.txt"
        text = w_path.read_text()
        if damage == "torn_row":
            text = text[: text.index("\n", len(text) // 2) + 5]
        else:
            text = "nan" + text[text.index(" "):]
        w_path.write_text(text)
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "W.txt" in err
        assert "Traceback" not in err

    def test_invalid_factors_exit_1_naming_them(self, workspace, capsys):
        fit_without_factor_digests(workspace)
        w_path = workspace / "out" / "W.txt"
        np.savetxt(w_path, 0.8 * np.loadtxt(w_path, ndmin=2), fmt="%.17g")
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "W.txt" in err
        assert "W rows do not sum to 1" in err

    def test_comment_only_factor_file_exits_1(self, workspace, capsys):
        fit_without_factor_digests(workspace)
        (workspace / "out" / "W.txt").write_text("# nothing\n")
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "W.txt: empty matrix file" in err

    def test_non_utf8_meta_exits_1_naming_it(self, workspace, capsys):
        fit_without_factor_digests(workspace)
        meta = workspace / "out" / "meta.txt"
        meta.write_bytes(meta.read_bytes().replace(b"converged", b"conv\xe9rged"))
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "meta.txt: not UTF-8 text" in err

    def test_loose_meta_value_exits_1_naming_it(self, workspace, capsys):
        fit_without_factor_digests(workspace)
        meta = workspace / "out" / "meta.txt"
        meta.write_text(re.sub(r"converged \w+", "converged maybe", meta.read_text()))
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "meta.txt: bad converged value 'maybe'" in err

    def test_no_mask_file_is_read(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        out = workspace / "out"
        csv_path = out / "completion_report.csv"
        expected = csv_path.read_bytes()
        mask_paths = [out / f"{name}_mask.txt" for name in ("train", "val", "test")]
        for path in mask_paths:
            path.write_text("not a mask\n")
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert csv_path.read_bytes() == expected
        for path in mask_paths:
            path.unlink()
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert csv_path.read_bytes() == expected

    def test_coin_factors_score_log_two(self, workspace):
        out = workspace / "out"
        factors = FactorPair(np.ones((18, 1)), np.full((1, 12), 0.5))
        write_factors(out, factors, alpha=1.0, beta=1.0, epsilon=1e-12,
                      seed=0, converged=True)
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        payload = json.loads((workspace / "out" / "completion_report.json").read_text())
        assert payload["validation"]["perplexity"] == pytest.approx(math.log(2))
        assert payload["test"]["perplexity"] == pytest.approx(math.log(2))

    def test_fit_manifest_records_split_and_dataset(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        manifest = json.loads((workspace / "out" / "manifest_fit.json").read_text())
        assert manifest["split"] == {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 3}
        assert manifest["dataset_sha256"] == \
            hashlib.sha256((workspace / "data.txt").read_bytes()).hexdigest()

    @pytest.mark.parametrize("old, new, named", [
        ("train = 0.7\nval = 0.15\ntest = 0.15", "train = 0.5\nval = 0.3\ntest = 0.2",
         ["[split] train 0.5 (fit: 0.7)", "[split] val 0.3 (fit: 0.15)",
          "[split] test 0.2 (fit: 0.15)"]),
        ("seed = 3", "seed = 4", ["[split] seed 4 (fit: 3)"]),
    ], ids=["fractions", "seed"])
    def test_edited_split_exits_1_naming_it(self, workspace, capsys, old, new, named):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new))
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workspace / 'out' / 'manifest_fit.json'}: ")
        assert err.count("\n") == 1 and "dataset_sha256" not in err
        for field in named:
            assert field in err
        assert not (workspace / "out" / "completion_report.csv").exists()

    def test_replaced_dataset_exits_1_naming_it(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        Y, _, _ = planted_dataset(18, 12, 2, seed=10)
        save_coordinate_file(Y, workspace / "data.txt")
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dataset_sha256" in err
        assert "[split]" not in err
        assert not (workspace / "out" / "completion_report.csv").exists()

    @pytest.mark.parametrize("drop", ["fields", "manifest"])
    def test_without_recorded_inputs_scores_as_before(self, workspace, drop):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        path = workspace / "out" / "manifest_fit.json"
        if drop == "manifest":
            path.unlink()
        else:  # a manifest written before it recorded them
            payload = json.loads(path.read_text())
            del payload["split"], payload["dataset_sha256"]
            path.write_text(json.dumps(payload))
        (workspace / "run.ini").write_text(BASE_CONFIG.replace("seed = 3", "seed = 4"))
        assert run(workspace, "eval", "--config", "@/run.ini") == 0

    def test_fit_manifest_records_factor_digests(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        out = workspace / "out"
        manifest = json.loads((out / "manifest_fit.json").read_text())
        assert manifest["factor_sha256"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("W.txt", "H.txt", "meta.txt")
        }

    @pytest.mark.parametrize("edited", [["W.txt"], ["meta.txt"], ["W.txt", "H.txt"]],
                             ids=["W", "meta", "W-and-H"])
    def test_edited_factor_file_exits_1_naming_it(self, workspace, capsys, edited):
        # each edit leaves valid factors of the right shape, which eval
        # would otherwise score
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        out = workspace / "out"
        coin = {"W.txt": np.full((18, 2), 0.5), "H.txt": np.full((2, 12), 0.5)}
        for name in edited:
            if name == "meta.txt":
                (out / name).write_text((out / name).read_text()
                                        .replace("seed 11", "seed 12"))
            else:
                np.savetxt(out / name, coin[name], fmt="%.17g")
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err == (f"error: {out / 'manifest_fit.json'}: {', '.join(edited)} "
                       "changed after the fit wrote them\n")
        assert not (out / "completion_report.csv").exists()

    def test_edited_factors_without_digests_are_scored(self, workspace):
        # a manifest written before it recorded the digests: eval scores
        # as it always did
        fit_without_factor_digests(workspace)
        np.savetxt(workspace / "out" / "W.txt", np.full((18, 2), 0.5), fmt="%.17g")
        assert run(workspace, "eval", "--config", "@/run.ini") == 0

    def test_unreadable_fit_manifest_exits_1_naming_it(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        (workspace / "out" / "manifest_fit.json").write_text("[1, 2")
        capsys.readouterr()
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        assert "manifest_fit.json" in capsys.readouterr().err

    def test_eval_rerun_csv_byte_identical(self, workspace):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        first = (workspace / "out" / "completion_report.csv").read_bytes()
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert (workspace / "out" / "completion_report.csv").read_bytes() == first

    def test_reads_the_run_directory_only_under_the_lock(self, workspace, capsys,
                                                         monkeypatch):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        (workspace / "out" / ".nbmf.lock").write_text(f"{os.getpid()}\n")
        reads = []
        real_read_factors = nbmf.cli.read_factors

        def recording_read_factors(path):
            reads.append(path)
            return real_read_factors(path)

        monkeypatch.setattr(nbmf.cli, "read_factors", recording_read_factors)
        assert run(workspace, "eval", "--config", "@/run.ini") == 1
        assert "is locked by" in capsys.readouterr().err
        assert reads == []


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

    def test_dataset_digest_is_read_in_chunks_and_equals_sha256(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(3 * (1 << 20) + 7))
        assert nbmf.cli._file_sha256(path) == \
            hashlib.sha256(path.read_bytes()).hexdigest()

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
        (resumed_dir / "grid_partial.csv").write_text(with_search_stamp(
            workspace, header + "\n" + "\n".join(line + ",0.0" for line in body) + "\n"
        ))
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

    # tune replaces its checkpoint whole, so none of these was written by it
    @pytest.mark.parametrize("content", [
        b"rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,n_iter,"
        b"converged\n1,1.0,1.0,5,0.7,,12,false\n2,1.0,1",
        b"rank,alp",
        b"",
    ], ids=["torn-row", "torn-header", "empty"])
    def test_unparsable_checkpoint_exits_2_and_is_kept(self, workspace, capsys,
                                                       content):
        out = workspace / "out"
        out.mkdir()
        partial = out / "grid_partial.csv"
        partial.write_bytes(content)
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        assert "grid_partial.csv" in capsys.readouterr().err
        assert partial.read_bytes() == content
        assert not (out / "grid_result.csv").exists()

    @pytest.mark.parametrize("content, fault", [
        (b"", "the header is empty"),
        (b"rank,alp", "the header lacks column(s) alpha, beta, restart_seed, "
                      "val_perplexity, test_perplexity, n_iter, converged"),
        (b"rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,n_iter\n",
         "the header lacks column(s) converged"),
    ], ids=["empty", "torn-header", "no-converged"])
    def test_unparsable_header_names_the_fault(self, workspace, capsys, content,
                                               fault):
        (workspace / "out").mkdir()
        (workspace / "out" / "grid_partial.csv").write_bytes(content)
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert f"grid_partial.csv: malformed checkpoint ({fault})" in err
        assert "malformed row" not in err

    def test_malformed_partial_row_exits_2(self, workspace, capsys):
        (workspace / "out").mkdir()
        (workspace / "out" / "grid_partial.csv").write_text(
            "rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
            "n_iter,converged,wall_time\n1,x\n"
        )
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        assert "grid_partial.csv" in capsys.readouterr().err

    def test_checkpoint_with_wall_time_column_resumes_without_refits(
            self, workspace, capsys, monkeypatch):
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/full") == 0
        reference = (workspace / "full" / "grid_result.csv").read_text()

        # a checkpoint of an older version: one more column, wall_time
        resumed_dir = workspace / "resumed"
        resumed_dir.mkdir()
        lines = reference.splitlines()
        partial = resumed_dir / "grid_partial.csv"
        partial.write_text(with_search_stamp(
            workspace,
            lines[0] + ",wall_time\n" + "".join(line + ",0.25\n" for line in lines[1:3])
        ))

        def interrupted(*args, **kwargs):
            raise NbmfError("interrupted")

        # stop after the grid, so that the checkpoint stays behind
        monkeypatch.setattr(nbmf.cli, "test_evaluation", interrupted)
        capsys.readouterr()
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 1
        console = capsys.readouterr().out
        assert "resuming: 2 grid rows" in console
        assert console.count("grid rank=") == 2  # only the two missing points
        assert partial.read_text() == with_search_stamp(workspace, reference)
        monkeypatch.undo()
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 0
        assert (resumed_dir / "grid_result.csv").read_text() == reference

    @pytest.mark.parametrize("row", [
        "1,1.0,1.0,5,0.6,,10,true,0.0",  # one field too many
        "1,1.0,1.0,5,0.6,,10",  # one field too few
        "1,1.0,1.0,5,0.6,,10,maybe",
    ])
    def test_partial_row_off_the_schema_exits_2(self, workspace, capsys, row):
        (workspace / "out").mkdir()
        (workspace / "out" / "grid_partial.csv").write_text(
            "rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
            "n_iter,converged\n1,1.0,1.0,5,0.7,,12,false\n" + row + "\n"
        )
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert "grid_partial.csv" in err and "malformed row" in err

    @pytest.mark.parametrize("row", [
        "1,1.0,1.0,0,nan,,5,false",
        "1,1.0,1.0,0,inf,,5,false",
        "1,1.0,1.0,0, 0.5,,5,false",
        "1,1.0,1.0,0,0.5,,1_0,false",
        "1,1e999,1.0,0,0.5,,5,false",
    ], ids=["nan", "inf", "space", "underscore", "overflow"])
    def test_checkpoint_cell_off_the_config_grammar_exits_2_and_is_kept(
            self, workspace, capsys, row):
        # the checkpoint records this search, so only the cell stops the resume
        out = workspace / "out"
        out.mkdir()
        partial = out / "grid_partial.csv"
        content = with_search_stamp(workspace, (
            "rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
            "n_iter,converged\n" + row + "\n"))
        partial.write_text(content)
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert f"malformed checkpoint (line 2: malformed row {row!r})" in err
        assert partial.read_text() == content
        assert not (out / "grid_result.csv").exists()

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
        GridResult(rows).to_csv(rewritten)
        assert partial.read_text() == \
            with_search_stamp(workspace, rewritten.read_text())

    @pytest.mark.parametrize("edit, named", [
        ("config", "does not record this run's config_sha256;"),
        ("dataset", "does not record this run's dataset_sha256;"),
        ("stamp", "this run's config_sha256 and dataset_sha256;"),
    ], ids=["config", "dataset", "stamp"])
    def test_checkpoint_of_another_search_exits_2_and_is_kept(
            self, workspace, capsys, monkeypatch, edit, named):
        # a checkpoint of 5-sweep fits
        config = BASE_CONFIG + "max_iter = 5\n"
        (workspace / "run.ini").write_text(config)

        def interrupted(*args, **kwargs):
            raise NbmfError("interrupted")

        monkeypatch.setattr(nbmf.cli, "test_evaluation", interrupted)
        assert run(workspace, "tune", "--config", "@/run.ini") == 1
        monkeypatch.undo()
        partial = workspace / "out" / "grid_partial.csv"
        if edit == "config":  # resuming would keep the 5-sweep rows
            (workspace / "run.ini").write_text(config.replace("= 5", "= 40"))
        elif edit == "dataset":
            Y, _, _ = planted_dataset(18, 12, 2, seed=10)
            save_coordinate_file(Y, workspace / "data.txt")
        else:
            partial.write_text(partial.read_text().rsplit("# ", 1)[0])
        content = partial.read_bytes()
        capsys.readouterr()
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert "grid_partial.csv" in err and named in err
        assert partial.read_bytes() == content
        assert not (workspace / "out" / "grid_result.csv").exists()

    def test_edited_checkpoint_score_exits_2_and_is_kept(self, workspace, capsys,
                                                        monkeypatch):
        def interrupted(*args, **kwargs):
            raise NbmfError("interrupted")

        monkeypatch.setattr(nbmf.cli, "test_evaluation", interrupted)
        assert run(workspace, "tune", "--config", "@/run.ini") == 1
        monkeypatch.undo()
        partial = workspace / "out" / "grid_partial.csv"
        # a score inside the grammar that no fit reaches, and that would win
        lines = [("2,2.0,1.0,5,-1.0,,5,false\n" if line.startswith("2,2.0,1.0,")
                  else line) for line in partial.read_text().splitlines(keepends=True)]
        content = "".join(lines)
        assert content != partial.read_text()
        partial.write_text(content)
        capsys.readouterr()
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert ("grid_partial.csv: malformed checkpoint (the lines above its last "
                "differ from its rows_sha256); remove the file") in err
        assert partial.read_text() == content
        assert not (workspace / "out" / "grid_result.csv").exists()

    def test_checkpoint_without_rows_digest_exits_2_and_is_kept(self, workspace,
                                                                 capsys):
        # the last line of a checkpoint written before it recorded rows_sha256
        rows = ("rank,alpha,beta,restart_seed,val_perplexity,test_perplexity,"
                "n_iter,converged\n1,1.0,1.0,5,0.7,,12,false\n")
        content = with_search_stamp(workspace, rows).rsplit(" rows_sha256=", 1)[0] + "\n"
        (workspace / "out").mkdir()
        partial = workspace / "out" / "grid_partial.csv"
        partial.write_text(content)
        assert run(workspace, "tune", "--config", "@/run.ini") == 2
        err = capsys.readouterr().err
        assert "grid_partial.csv: its last line does not record rows_sha256;" in err
        assert partial.read_text() == content
        assert not (workspace / "out" / "grid_result.csv").exists()

    def test_seed_override_sets_base_seed(self, workspace):
        assert run(workspace, "tune", "--config", "@/run.ini", "--seed", "70") == 0
        stats = json.loads((workspace / "out" / "boxstats.json").read_text())
        assert stats["restart_seeds"] == [70, 71, 72]


# Each fit of this grid runs all 400 sweeps (about 0.1 s on one core), so a
# tune run spends about a second in its grid.
SLOW_TUNE_CONFIG = """\
[run]
dataset = data.txt

[split]
seed = 3

[tune]
rank_values = 2 3
alpha_values = 1 2
beta_values = 1 2
n_restarts = 2
base_seed = 5
tol = 1e-12
max_iter = 400
"""


class TestInterruptedWrites:
    def test_runs_leave_no_temporary_files(self, workspace):
        for mode in ("fit", "eval", "tune"):
            assert run(workspace, mode, "--config", "@/run.ini") == 0
        assert temporary_files(workspace / "out") == []

    @pytest.mark.parametrize("error", [NumericalError("boom", iteration=1),
                                       KeyboardInterrupt],
                             ids=["raises", "interrupted"])
    def test_failed_fit_writes_no_mask(self, workspace, monkeypatch, error):
        # the masks are written before the fit, under temporary names
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        out = workspace / "out"
        masks = {name: (out / name).read_bytes()
                 for name in nbmf.cli.MASK_FILES.values()}
        (workspace / "run.ini").write_text(BASE_CONFIG.replace("seed = 3", "seed = 4"))
        real, calls = nbmf.solver._block_ratios, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:  # in the W step of the first sweep
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(nbmf.solver, "_block_ratios", failing)
        for target in ("out", "fresh"):
            calls.clear()
            assert run(workspace, "fit", "--config", "@/run.ini",
                       "--out", f"@/{target}") == 1
            assert len(calls) == 3
        assert {name: (out / name).read_bytes() for name in masks} == masks
        assert temporary_files(out) == []
        assert list((workspace / "fresh").iterdir()) == []

    def test_fit_on_an_empty_train_mask_writes_nothing(self, workspace, capsys):
        (workspace / "data.txt").write_text("1 1\n0 0\n")  # no train cell
        assert run(workspace, "fit", "--config", "@/run.ini") == 1
        assert "empty mask" in capsys.readouterr().err
        assert list((workspace / "out").iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
    def test_killed_tune_resumes_to_the_same_bytes(self, tmp_path, capsys):
        Y, _, _ = planted_dataset(120, 160, 3, seed=4)
        save_coordinate_file(Y, tmp_path / "data.txt")
        (tmp_path / "run.ini").write_text(SLOW_TUNE_CONFIG)
        assert run(tmp_path, "tune", "--config", "@/run.ini", "--out", "@/full") == 0

        out = tmp_path / "out"
        partial = out / "grid_partial.csv"
        src = Path(nbmf.cli.__file__).resolve().parents[1]
        process = subprocess.Popen(
            [sys.executable, "-m", "nbmf.cli", "tune", "--config",
             str(tmp_path / "run.ini"), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            # the checkpoint is replaced whole, so a line count is never torn
            while not (partial.is_file() and partial.read_text().count("\n") >= 2):
                assert process.poll() is None, "tune ended before it was killed"
                assert time.monotonic() < deadline, "no checkpoint row within 60 s"
                time.sleep(0.005)
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

        (out / ".nbmf.lock").unlink()  # a stale lock is never taken over
        capsys.readouterr()
        assert run(tmp_path, "tune", "--config", "@/run.ini", "--out", "@/out") == 0
        assert "resuming:" in capsys.readouterr().out
        for name in ("grid_result.csv", "heatmap.csv"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        assert temporary_files(out) == []


LONG_FIT_CONFIG = """\
[run]
dataset = data.txt
out = out

[fit]
rank = 3
tol = 1e-300
max_iter = 1000000
log_every = 1
"""


class TestCtrlC:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_interrupted_fit_exits_1_and_leaves_no_worker(self, tmp_path):
        Y, _, _ = planted_dataset(400, 400, 3, seed=4)  # three row blocks
        save_coordinate_file(Y, tmp_path / "data.txt")
        (tmp_path / "run.ini").write_text(LONG_FIT_CONFIG)
        src = Path(nbmf.cli.__file__).resolve().parents[1]
        console = tmp_path / "stdout.txt"
        with open(console, "wb") as stdout:
            process = subprocess.Popen(
                [sys.executable, "-m", "nbmf.cli", "fit", "--config",
                 str(tmp_path / "run.ini")],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1"),
                stdout=stdout, stderr=subprocess.PIPE, text=True,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 60
            while b"iter " not in console.read_bytes():
                assert process.poll() is None, "fit ended before it was interrupted"
                assert time.monotonic() < deadline, "no sweep within 60 s"
                time.sleep(0.005)
            workers = child_pids(process.pid)
            # Ctrl-C signals every process of the terminal's foreground group
            os.killpg(process.pid, signal.SIGINT)
            _, err = process.communicate(timeout=60)
        finally:
            process.kill()
            process.wait(timeout=30)
        assert process.returncode == 1
        assert "Traceback" not in err
        assert err.endswith("error: interrupted\n")
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        assert not (tmp_path / "out" / ".nbmf.lock").exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("mode", ["fit", "tune"])
    def test_exits_1_with_one_line(self, workspace, capsys, monkeypatch, mode):
        # as numpy's allocation fails for a [fit] rank of 1e10 on a 20 x 30
        # matrix; raised here, so the test does not depend on overcommit
        message = ("Unable to allocate 1.46 TiB for an array with shape "
                   "(20, 10000000000) and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(nbmf.cli, "_fit_cells", out_of_memory)
        monkeypatch.setattr(nbmf.tune, "fit", out_of_memory)
        assert run(workspace, mode, "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: out of memory: {message}\n"
        assert not (workspace / "out" / ".nbmf.lock").exists()

    @pytest.mark.parametrize("mode, old, new", [
        ("fit", "rank = 2", "rank = 1000000000000000000"),
        ("tune", "rank_values = 1 2", "rank_values = 1000000000000000000"),
    ], ids=["fit", "tune"])
    def test_rank_beyond_any_array_exits_1_with_one_line(self, workspace, capsys,
                                                          mode, old, new):
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new))
        assert run(workspace, mode, "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: rank-1000000000000000000 ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (workspace / "out" / ".nbmf.lock").exists()

    @pytest.mark.parametrize("mode", ["fit", "tune"])
    def test_split_beyond_any_array_exits_1_with_one_line(self, workspace,
                                                          capsys, mode):
        # 2**62 cells: the split's 2-byte buckets exceed what numpy can size
        (workspace / "data.txt").write_text("2147483648 2147483648\n")
        assert run(workspace, mode, "--config", "@/run.ini") == 1
        err = capsys.readouterr().err
        assert err == ("error: out of memory: the split of a 2147483648x2147483648 "
                       "matrix exceeds the largest possible array\n")
        assert not (workspace / "out" / ".nbmf.lock").exists()


class TestReport:
    def test_summarizes_run(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        assert run(workspace, "report", "--out", "@/out") == 0
        console = capsys.readouterr().out
        assert "fit report:" in console
        assert "completion:" in console

    def test_manifest_records_environment(self, workspace, capsys, monkeypatch):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert run(workspace, "fit", "--config", "@/run.ini", "--out", "@/again") == 0
        environments = [
            json.loads((workspace / out / "manifest_fit.json").read_text())["environment"]
            for out in ("out", "again")
        ]
        assert set(environments[0]) == {
            "nbmf", "python", "numpy", "blas", "blas_version", "blas_threads",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count",
            "fit_processes",
        }
        assert environments[0]["fit_processes"] == [1]  # one row block
        assert environments[0]["nbmf"] == nbmf.__version__
        assert environments[0]["numpy"] == np.__version__
        assert environments[1]["OMP_NUM_THREADS"] == "3"
        # The record stays out of the files promised to be byte-identical.
        for name in ("W.txt", "H.txt", "meta.txt", "train_mask.txt",
                     "val_mask.txt", "test_mask.txt"):
            assert (workspace / "again" / name).read_bytes() == \
                (workspace / "out" / name).read_bytes()
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/again") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            f"  environment: nbmf {nbmf.__version__} python {platform.python_version()} "
            f"numpy {np.__version__} blas {environments[1]['blas']} "
            f"{environments[1]['blas_version']} "
            f"blas_threads={environments[1]['blas_threads']} "
            f"OPENBLAS_NUM_THREADS={environments[1]['OPENBLAS_NUM_THREADS']} "
            f"OMP_NUM_THREADS=3 cpu_count={os.cpu_count()} fit_processes=1"
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="fits fork workers on Linux only")
    def test_manifests_record_the_fit_process_counts(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(nbmf._workers, "_FORCED_CPUS", 2)
        Y, _, _ = planted_dataset(300, 400, 2, seed=9)  # two row blocks
        save_coordinate_file(Y, tmp_path / "data.txt")
        # three sweeps a fit: max_iter closes [tune] and is added to [fit]
        (tmp_path / "run.ini").write_text(BASE_CONFIG.replace(
            "log_every = 0\n", "log_every = 0\nmax_iter = 3\n") + "max_iter = 3\n")
        recorded = {}
        for out, args in [("fit", ["fit"]), ("tune1", ["tune", "--jobs", "1"]),
                          ("tune2", ["tune", "--jobs", "2"])]:
            assert run(tmp_path, *args, "--config", "@/run.ini",
                       "--out", f"@/{out}") == 0
            manifest = json.loads(
                (tmp_path / out / f"manifest_{args[0]}.json").read_text())
            recorded[out] = manifest["environment"]["fit_processes"]
        # the fit forks a worker, and so does each tune fit unless --jobs 1
        assert recorded == {"fit": [2], "tune1": [1], "tune2": [2]}
        for name in ("grid_result.csv", "heatmap.csv"):
            assert (tmp_path / "tune1" / name).read_bytes() == \
                (tmp_path / "tune2" / name).read_bytes()
        capsys.readouterr()
        assert run(tmp_path, "report", "--out", "@/fit") == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(" fit_processes=2")

    def test_every_manifest_records_the_run_inputs(self, workspace):
        for mode in ("fit", "eval", "tune"):
            assert run(workspace, mode, "--config", "@/run.ini") == 0
        manifests = {
            mode: json.loads((workspace / "out" / f"manifest_{mode}.json").read_text())
            for mode in ("fit", "eval", "tune")
        }
        fit = manifests.pop("fit")
        assert fit["split"] == {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 3}
        for manifest in manifests.values():
            assert manifest["dataset_sha256"] == fit["dataset_sha256"]
            assert manifest["split"] == fit["split"]

    def test_resumed_and_failed_fits_record_no_process_count(self, workspace,
                                                            monkeypatch):
        # both rows carry 0 processes, which no manifest lists
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/full") == 0
        lines = (workspace / "full" / "grid_result.csv").read_text().splitlines()
        (workspace / "resumed").mkdir()
        (workspace / "resumed" / "grid_partial.csv").write_text(
            with_search_stamp(workspace, "\n".join(lines[:3]) + "\n"))
        real_fit = nbmf.tune.fit

        def flaky_fit(Y, mask, config, on_sweep=None):
            if config.seed == 6:  # the second restart
                raise NumericalError("boom", iteration=1)
            return real_fit(Y, mask, config, on_sweep=on_sweep)

        monkeypatch.setattr(nbmf.tune, "fit", flaky_fit)
        assert run(workspace, "tune", "--config", "@/run.ini", "--out", "@/resumed") == 0
        manifest = json.loads((workspace / "resumed" / "manifest_tune.json").read_text())
        assert manifest["environment"]["fit_processes"] == [1]  # one row block
        stats = json.loads((workspace / "resumed" / "boxstats.json").read_text())
        assert stats["test_perplexities"][1] is None

    def test_manifest_without_fit_processes_is_summarized(self, workspace,
                                                          capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        path = workspace / "out" / "manifest_fit.json"
        payload = json.loads(path.read_text())
        del payload["environment"]["fit_processes"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/out") == 0
        lines = capsys.readouterr().out.splitlines()
        # eval runs no fit and records no process count
        assert lines[0].startswith("eval: config ")
        assert lines[1].endswith(f"cpu_count={os.cpu_count()}")
        assert lines[2].startswith("fit: config ")
        assert lines[3].endswith(f"cpu_count={os.cpu_count()}")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_manifests_record_the_peak_rss(self, workspace, capsys):
        for mode in ("fit", "eval", "tune"):
            assert run(workspace, mode, "--config", "@/run.ini") == 0
        peaks = {
            mode: json.loads((workspace / "out" / f"manifest_{mode}.json")
                             .read_text())["peak_rss_mb"]
            for mode in ("fit", "eval", "tune")
        }
        for peak in peaks.values():
            assert isinstance(peak, float) and peak > 0
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/out") == 0
        lines = capsys.readouterr().out.splitlines()
        for mode, peak in peaks.items():
            [line] = [line for line in lines if line.startswith(f"{mode}: config ")]
            assert line.endswith(f" peak_rss_mb={peak!r}")

    def test_peak_rss_is_null_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert nbmf.cli._peak_rss_mb() is None

    def test_manifest_without_peak_rss_is_summarized(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        path = workspace / "out" / "manifest_fit.json"
        payload = json.loads(path.read_text())
        del payload["peak_rss_mb"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/out") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fit: config ")
        assert lines[0].endswith("train_mask.txt, val_mask.txt")

    def test_manifest_without_environment_is_summarized(self, workspace, capsys):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        path = workspace / "out" / "manifest_fit.json"
        payload = json.loads(path.read_text())
        del payload["environment"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/out") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fit: config ")
        assert lines[1].startswith("fit report:")

    def test_directory_without_manifests_says_so(self, workspace, capsys):
        (workspace / "empty").mkdir()
        assert run(workspace, "report", "--out", "@/empty") == 0
        assert capsys.readouterr().out == f"no manifests in {workspace / 'empty'}\n"

    def test_missing_dir_exits_2(self, workspace):
        assert run(workspace, "report", "--out", "@/missing") == 2

    @pytest.mark.parametrize("name, text", [
        ("report.json", "{bad"),
        ("report.json", '{"n_iter": 3}'),
        ("report.json", '{"n_iter": 3, "converged": true, "objective_trace": []}'),
        ("completion_report.json", "[]"),
        ("manifest_fit.json", '{"mode": "fit"}'),
        ("manifest_fit.json", "\udcff"),
    ])
    def test_corrupt_artifact_exits_1_naming_it(self, workspace, capsys, name, text):
        assert run(workspace, "fit", "--config", "@/run.ini") == 0
        assert run(workspace, "eval", "--config", "@/run.ini") == 0
        (workspace / "out" / name).write_text(text, errors="surrogateescape")
        capsys.readouterr()
        assert run(workspace, "report", "--out", "@/out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
