import builtins
import errno
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lobsad import cli, data, evalx, harness, nnet, objectives
from lobsad.errors import DataError, DivergenceError

from conftest import read_json, read_rows


def write_config(path, train=None, synth=None, features=None):
    doc = {"version": 1,
           "train": train or {},
           "synth": synth or {}}
    if features is not None:
        doc["features"] = features
    path.write_text(json.dumps(doc))
    return str(path)


TINY_TRAIN = {"pretrain_epochs": 2, "main_epochs": 3, "batch_size": 32,
              "layer_dims": [20, 12, 20], "seed": 0}
TINY_SYNTH = {"n_rows": 400, "anomaly_rate": 0.03, "n_labeled": 6, "seed": 0}
TEN_COLUMNS = [f"bid_{side}_{i}" for side in ("px", "sz") for i in range(1, 6)]
ASK_SIDE = [f"ask_{side}_{i}" for side in ("px", "sz") for i in range(1, 11)]


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """Every command, whether it succeeds or fails, leaves each of its outputs
    whole or absent, and no temporary file."""
    yield
    assert sorted(tmp_path.rglob("*.tmp")) == []


@pytest.fixture
def tiny_config(tmp_path):
    return write_config(tmp_path / "cfg.json", TINY_TRAIN, TINY_SYNTH)


@pytest.fixture
def generated(tmp_path, tiny_config):
    out = tmp_path / "gen"
    assert cli.main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_three_files_with_matching_counts(self, generated):
        rows = read_rows(generated / "lob.csv")
        assert len(rows) == 401
        labels = [l for l in (generated / "labels.txt").read_text().split() if l]
        assert len(labels) == 6
        gt = read_rows(generated / "ground_truth.csv")
        assert gt[0] == ["row_index", "archetype", "labeled"]
        assert sum(int(r[2]) for r in gt[1:]) == 6

    def test_config_seed_deterministic(self, tmp_path, generated):
        # the data is a function of the config's synth.seed alone
        cfg = write_config(tmp_path / "c.json", TINY_TRAIN, dict(TINY_SYNTH, seed=1))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "lob.csv").read_bytes())
        assert outs[0] == outs[1] != (generated / "lob.csv").read_bytes()  # seed 0's

    @pytest.mark.parametrize("command, flag", [
        ("generate", "--config"), ("report", "--results"), ("score", "--checkpoint")])
    def test_malformed_json_exit_2(self, tmp_path, capsys, command, flag):
        # every JSON input is read by one reader, with one message
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1,\n  "train": {,}\n}')
        data_flag = ["--data", str(tmp_path / "lob.csv")] if command == "score" else []
        code = cli.main([command, flag, str(bad), *data_flag, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: malformed JSON at line 2")
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"bogus_knob": 1}, {})
        assert cli.main(["generate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        # data that `run` could not train on at this config's layer_dims
        ("features", TEN_COLUMNS, "10 feature columns do not fit layer_dims[0] = 20"),
        # spoof and layering rows that no feature column could see
        ("features", [c for c in data.BOOK_COLUMNS if "_px_" in c],
         "features has no size column to carry spoof and layering rows"),
        ("n_labeled", 400, "n_labeled=400 exceeds injected anomaly rows"),
    ])
    def test_bad_synth_setting_exit_2_before_any_file(self, tmp_path, capsys,
                                                      key, value, message):
        # refused as the config is read or by the generator, each naming the config
        if key == "features":  # a top-level key, beside the synth section
            cfg = write_config(tmp_path / "c.json", TINY_TRAIN, TINY_SYNTH, value)
        else:
            cfg = write_config(tmp_path / "c.json", TINY_TRAIN,
                               dict(TINY_SYNTH, **{key: value}))
        out = tmp_path / "o"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith(f"error: {cfg}: ")
        assert not (out / "lob.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    @pytest.mark.parametrize("key, value", [
        ("tick_size", 0.25), ("start_price", 135.0), ("mid_vol_ticks", 0.2),
        ("flash_jump_ticks", [150, 400]), ("size_log_mean", 3.9), ("size_log_sigma", 0.6),
        ("archetype_mix", [0.4, 0.3, 0.3]), ("spoof_side", "bid")])
    def test_fixed_market_key_exit_2_before_any_file(self, tmp_path, generated, capsys,
                                                     key, value, command):
        # the market is fixed in the generator, and the spoofed side follows
        # `features`: `synth` sets only what an experiment varies
        cfg = write_config(tmp_path / "c.json", TINY_TRAIN, dict(TINY_SYNTH, **{key: value}))
        if command == "generate":
            out = tmp_path / "o"
            code = cli.main(["generate", "--config", cfg, "--out", str(out)])
        else:
            code, out = run_experiment_cli(tmp_path, cfg, generated)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: unknown keys in 'synth' section: ['{key}']\n")
        assert not out.exists()


def run_experiment_cli(tmp_path, tiny_config, generated, extra=()):
    out = tmp_path / "run"
    code = cli.main(["run", "--config", tiny_config,
                     "--data", str(generated / "lob.csv"),
                     "--labels", str(generated / "labels.txt"),
                     "--out", str(out), *extra])
    return code, out


class TestRun:
    def test_full_run_six_trials(self, tmp_path, tiny_config, generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 0
        rows = read_rows(out / "results.csv")[1:]
        assert {int(r[0]) for r in rows} == {1, 2, 3, 4, 5, 6}
        assert len(rows) == 6 * 8
        assert (out / "run_manifest.json").exists()
        assert (out / "trial1_fold0_svdd.ckpt").exists()
        assert (out / "trial1_fold0_sad.ckpt").exists()
        assert (out / "trial1_scatter_sad_train.csv").exists()
        docs = read_json(out / "results.json")
        assert len(docs) == 6

    def test_svdd_only_mode(self, tmp_path, tiny_config, generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--mode", "svdd-only"))
        assert code == 0
        rows = read_rows(out / "results.csv")[1:]
        assert {r[2] for r in rows} == {"svdd"}

    def test_sad_only_mode(self, tmp_path, tiny_config, generated, capsys):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--mode", "sad-only"))
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert not [name for name in names if "svdd" in name]
        for t in range(1, 7):
            assert f"trial{t}_fold{(t - 1) % 3}_sad.ckpt" in names
            assert {f"trial{t}_scatter_sad_{split}.csv"
                    for split in ("train", "test")} <= names
        assert [set(d["metrics"]) for d in read_json(out / "results.json")] \
            == [{"sad"}] * 6
        assert {r[2] for r in read_rows(out / "results.csv")[1:]} == {"sad"}
        capsys.readouterr()
        assert cli.main(["report", "--results", str(out / "results.json"),
                         "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_labels_exit_2(self, tmp_path, tiny_config, generated, capsys):
        code = cli.main(["run", "--config", tiny_config,
                         "--data", str(generated / "lob.csv"),
                         "--labels", str(generated / "nope.txt"),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, tiny_config, generated):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli.main(["run", "--config", tiny_config,
                             "--data", str(generated / "lob.csv"),
                             "--labels", str(generated / "labels.txt"),
                             "--out", str(out), "--jobs", "1"])
            assert code == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_parallel_divergence_fails_fast(self, tmp_path, tiny_config, generated,
                                            capsys, monkeypatch):
        # six trials on two processes. This process runs trial 1 whole while
        # the worker runs trial 2's pretrain, SAD and SVDD, which is slow;
        # trial 1 ends once that SVDD has started. This process then takes
        # trial 3's pretrain and SAD, which diverges. The worker is forked
        # after the patches, so it runs the patched task functions too.
        marks = tmp_path / "marks"
        marks.mkdir()
        real_run_pretrain, real_run_mode = harness.run_pretrain, harness.run_mode

        def mark(phase, trial):
            (marks / f"{phase}{trial}.start").write_text(str(os.getpid()))
            return trial

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            mark("pretrain", repeat * cfg.k_folds + fold + 1)
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)

        def run_mode(dataset, cfg, pre, mode, *rest):
            trial = mark(mode, pre.report.trial)
            if (trial, mode) == (1, "sad"):
                deadline = time.monotonic() + 60
                while not (marks / "svdd2.start").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            elif (trial, mode) == (2, "svdd"):
                time.sleep(2.0)  # still running when trial 3's SAD diverges
            elif (trial, mode) == (3, "sad"):
                raise DivergenceError("trial 3 diverged")
            return real_run_mode(dataset, cfg, pre, mode, *rest)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--jobs", "2"))
        assert code == 1
        assert "trial 3 diverged" in capsys.readouterr().err
        # no task started after the failure
        started = {p.stem: p.read_text() for p in marks.glob("*.start")}
        assert sorted(started) == sorted(["pretrain1", "svdd1", "sad1", "pretrain2", "sad2",
                                          "svdd2", "pretrain3", "sad3"])
        assert started["sad3"] == started["pretrain3"] == started["sad1"] == str(os.getpid())
        assert started["svdd2"] == started["pretrain2"] != str(os.getpid())
        # trial 2's SVDD was running when trial 3 failed: it finishes and the
        # trial is kept
        assert [d["trial"] for d in read_json(out / "results.json")] == [1, 2]
        assert (out / "trial1_fold0_sad.ckpt").exists()
        assert (out / "trial2_fold1_svdd.ckpt").exists()
        assert not list(out.glob("trial3_*"))

    def test_info_log_has_one_line_per_task(self, tmp_path, tiny_config, generated):
        # the run's schedule, read from its log: every task, in every process
        out = tmp_path / "run"
        env = dict(os.environ, SAD_LOG="INFO", PYTHONPATH=os.path.dirname(
            os.path.dirname(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lobsad.cli", "run", "--config", tiny_config,
             "--data", str(generated / "lob.csv"), "--labels", str(generated / "labels.txt"),
             "--out", str(out), "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ends = re.findall(r"^INFO lobsad\.harness: trial (\d) (\w+) ended in process "
                          r"(\d+) after \d+\.\d\ds$", proc.stderr, re.MULTILINE)
        assert sorted((int(t), phase) for t, phase, _ in ends) == sorted(
            (t, phase) for t in range(1, 7) for phase in ("pretrain", "svdd", "sad"))
        assert len({pid for _, _, pid in ends}) == 2

    def test_failed_trial_flushes_finished_trials(self, tmp_path, tiny_config,
                                                  generated, capsys, monkeypatch):
        # any error, not only divergence, leaves the results of the trials before it
        real_run_pretrain = harness.run_pretrain

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            if repeat * cfg.k_folds + fold + 1 == 2:
                raise DataError("trial 2 failed")
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 2
        assert "error: trial 2 failed" in capsys.readouterr().err
        assert [d["trial"] for d in read_json(out / "results.json")] == [1]
        rows = read_rows(out / "results.csv")[1:]
        assert len(rows) == 8 and {r[0] for r in rows} == {"1"}
        assert (out / "trial1_fold0_sad.ckpt").exists()

    def test_trial_files_on_disk_before_next_trial(self, tmp_path, tiny_config,
                                                   generated, monkeypatch):
        # a trial's files, and the tables that list it, are written as it
        # ends: a run killed in trial 2, which starts with its pretrain task,
        # keeps all of trial 1
        out = tmp_path / "run"
        seen = {}
        real_run_pretrain = harness.run_pretrain

        def run_pretrain(dataset, cfg, repeat, fold, *rest):
            if repeat * cfg.k_folds + fold + 1 == 2:
                seen["files"] = sorted(p.name for p in out.glob("trial1_*"))
                seen["json"] = [d["trial"] for d in read_json(out / "results.json")]
                seen["csv"] = {r[0] for r in read_rows(out / "results.csv")[1:]}
            return real_run_pretrain(dataset, cfg, repeat, fold, *rest)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        code, _ = run_experiment_cli(tmp_path, tiny_config, generated,
                                     ("--jobs", "1", "--svg"))
        assert code == 0
        splits = [(mode, split) for mode in ("svdd", "sad") for split in ("train", "test")]
        assert seen["files"] == sorted(
            ["trial1_fold0_svdd.ckpt", "trial1_fold0_sad.ckpt"]
            + [f"trial1_scores_{mode}_{split}.csv" for mode, split in splits]
            + [f"trial1_scatter_{mode}_{split}.{ext}" for mode, split in splits
               for ext in ("csv", "svg")])
        assert seen["json"] == [1] and seen["csv"] == {"1"}

    def test_sad_trial_without_unlabeled_rows_exit_2(self, tmp_path, capsys):
        # every row labeled: trial 1's train split leaves SAD no unlabeled row
        result = data.generate_synthetic(data.SynthConfig(
            n_rows=30, anomaly_rate=0.0, n_labeled=0, seed=0))
        lob, labels = tmp_path / "lob.csv", tmp_path / "labels.txt"
        data.write_lob_csv(lob, result.dataset.timestamps, result.book)
        labels.write_text("".join(f"{row}\n" for row in range(30)))
        code = cli.main(["run", "--config", write_config(tmp_path / "c.json", TINY_TRAIN),
                         "--data", str(lob), "--labels", str(labels),
                         "--out", str(tmp_path / "run"), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: main[sad]: no rows to train on\n"

    @pytest.mark.parametrize("features", [None, ASK_SIDE])
    def test_manifest_config_reads_back(self, tmp_path, generated, monkeypatch, features):
        # the manifest's config is itself a config: read back, it gives the
        # train, synth and schema of the --config file, which the run trains with
        paper = dict(TINY_TRAIN, seed=3, pretrain_epochs=1000, main_epochs=10_000)
        cfg = write_config(tmp_path / "c.json", paper, TINY_SYNTH, features)
        train, synth, schema = cli.load_run_config(cfg)
        assert (train.seed, train.pretrain_epochs, train.main_epochs) == (3, 1000, 10_000)
        assert schema.feature_columns == tuple(features or data.DEFAULT_FEATURES)
        runs = []
        monkeypatch.setattr(harness, "run_experiment",
                            lambda dataset, cfg, **kwargs: runs.append(cfg))
        code, out = run_experiment_cli(tmp_path, cfg, generated)
        assert code == 0
        assert runs == [train]
        assert not (out / "results.json").exists()  # no trial ended: no tables
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps(read_json(out / "run_manifest.json")["config"]))
        assert cli.load_run_config(snapshot) == (train, synth, schema)

    def test_dead_worker_exit_1(self, tmp_path, tiny_config, generated, capsys,
                                monkeypatch):
        # the worker's second task, trial 2's SAD, kills it without a word:
        # the run says so in one line, as `score` does, and leaves no process
        caller, real_run_mode = os.getpid(), harness.run_mode

        def run_mode(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real_run_mode(*args)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        code, _ = run_experiment_cli(tmp_path, tiny_config, generated, ("--jobs", "2"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: A process in the process pool was terminated abruptly")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_manifest_records_environment(self, tmp_path, tiny_config, generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 0
        manifest = read_json(out / "run_manifest.json")
        assert manifest["usable_cpus"] == harness.usable_cpus()
        # at most this process and both mode tasks of the five other trials
        assert manifest["jobs"] == min(harness.usable_cpus(), 11)
        assert manifest["blas_threads"] == (None if nnet.blas_threads() is None else 1)
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--jobs", "64"))
        assert read_json(out / "run_manifest.json")["jobs"] == 11
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--jobs", "64", "--mode", "svdd-only"))
        assert read_json(out / "run_manifest.json")["jobs"] == 6

    def test_manifest_blas_threads_null_when_unset(self, tmp_path, tiny_config,
                                                   generated, monkeypatch):
        # no loaded library exports the thread-count calls: the run goes on
        # at the threads it has, and says so
        monkeypatch.setattr(nnet, "_openblas", lambda: None)
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--jobs", "2"))
        assert code == 0
        manifest = read_json(out / "run_manifest.json")
        assert manifest["blas_threads"] is None and manifest["jobs"] == 2
        assert len(read_json(out / "results.json")) == 6

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2_before_any_work(self, tmp_path, tiny_config,
                                                   generated, capsys, jobs):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--jobs", jobs))
        assert code == 2
        # refused by harness.resolve_jobs, which cmd_run calls before writing
        assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_archetype_metrics_match_brute_force(self, tmp_path, tiny_config,
                                                 generated):
        sidecar = generated / "ground_truth.csv"
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--ground-truth", str(sidecar)))
        assert code == 0
        gt = read_rows(sidecar)[1:]
        checked, absent = 0, 0
        for doc in read_json(out / "results.json"):
            for mode in ("svdd", "sad"):
                path = out / f"trial{doc['trial']}_scores_{mode}_test.csv"
                scores = {int(r[0]): float(r[1]) for r in read_rows(path)[1:]}
                for name in data.ARCHETYPES:
                    rank = doc["metrics"][mode][f"gt_{name}_rank_test"]
                    ratio = doc["metrics"][mode][f"gt_{name}_ratio_test"]
                    rows = [int(r[0]) for r in gt if r[1] == name and int(r[0]) in scores]
                    if not rows:
                        assert rank is None and ratio is None
                        absent += 1
                        continue
                    # pairwise rank: 1 + #greater + half of the other rows tied with it
                    pair_ranks = [1 + sum(v > scores[r] for v in scores.values())
                                  + 0.5 * (sum(v == scores[r] for v in scores.values()) - 1)
                                  for r in rows]
                    assert rank == sum(pair_ranks) / len(rows)
                    others = [v for r, v in scores.items() if r not in rows]
                    assert ratio == pytest.approx(
                        np.mean([scores[r] for r in rows]) / np.mean(others), rel=1e-12)
                    checked += 1
        assert checked and absent

    @pytest.mark.parametrize("sidecar, message", [
        ("row_index,archetype,labeled\n7,spoof,1\nx,spoof,1\n", "row 2"),
        ("row_index,archetype,labeled\n7,spoof\n", "row 1"),
        ("row_index,archetype,labeled\n7,spoof,yes\n", "row 1"),
        ("row_index,archetype,labeled\n-3,flash,0\n", "row 1"),
        ("row_index,archetype,labeled\n7,spoofing,1\n", "row 1"),
        ("", "empty ground-truth file"),
        ("row_index,archetype,labeled\n7,spoof,1\n400,flash,0\n",
         "row 2: row index 400 >= 400 data rows"),
        # the first bad row is named, whichever rule it breaks
        ("row_index,archetype,labeled\n400,flash,0\nx,spoof,1\n",
         "row 1: row index 400 >= 400 data rows"),
    ])
    def test_bad_ground_truth_exit_2(self, tmp_path, tiny_config, generated,
                                     capsys, sidecar, message):
        gt = tmp_path / "gt.csv"
        gt.write_text(sidecar)
        code, _ = run_experiment_cli(tmp_path, tiny_config, generated,
                                     ("--ground-truth", str(gt)))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("eta", 0, "eta must be > 0"),
        ("dist_eps", 1e-2, "eps must be in (0, 1e-3]"),
        ("weight_decay", -1, "weight_decay must be >= 0"),
        ("n_repeats", 0, "n_repeats >= 1, got 3 and 0"),
        ("k_folds", 1, "k_folds must be >= 2 and n_repeats >= 1, got 1 and 2"),
        ("lr", 0, "lr must be finite and > 0"),
        ("lr", float("nan"), "lr must be finite and > 0"),
        ("lr", float("inf"), "lr must be finite and > 0"),
        ("layer_dims", [20], "layer_dims needs >= 2 entries"),
        ("layer_dims", [20, 0, 20], "layer dims must be integers >= 1"),
        ("layer_dims", [20.7, 12, 20], "layer dims must be integers >= 1"),
        ("layer_dims", ["a", 20], "layer dims must be integers >= 1"),
        ("batch_size", "64", "'train' section: batch_size must be an integer, got '64'"),
        ("batch_size", 64.5, "batch_size must be an integer, got 64.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("lr", None, "'train' section: lr must be a number, got None"),
        ("layer_dims", 5, "layer_dims must be a list, got 5"),
        ("synth.n_rows", "100", "'synth' section: n_rows must be an integer, got '100'"),
        ("train", 5, "'train' section must be an object, got 5"),
        ("synth", [], "'synth' section must be an object, got []"),
        ("train", "ab", "'train' section must be an object, got 'ab'"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("synth.seed", -1, "seed must be >= 0, got -1"),
        ("version", True, "expected version 1, got True"),
        ("eta", float("inf"), "eta must be > 0 and finite, got inf"),
        ("weight_decay", float("inf"), "weight_decay must be >= 0 and finite, got inf"),
        ("layer_dims", [20, True, 20], "layer dims must be integers >= 1"),
        ("min_labeled_per_batch", 1, "unknown keys in 'train' section"),
        # configs that cannot train on the 400 rows of 20 feature columns
        ("features", TEN_COLUMNS, "10 feature columns do not fit layer_dims[0] = 20"),
        ("layer_dims", [20, 16, 10], "autoencoder needs input dim == output dim, got 20 vs 10"),
        ("k_folds", 500, "n_rows=400 < k=500"),
        # the feature view is the top-level `features`, for real data as for synthetic
        ("synth.schema", TEN_COLUMNS, "synth.schema is now the top-level 'features' list"),
        ("features", "bid_px_1", "features must be a list, got 'bid_px_1'"),
        ("features", ["mid_px"] + ASK_SIDE[1:], "unknown feature columns: ['mid_px']"),
        # one input twice: bid_px_1 in place of bid_px_2
        ("features", ["bid_px_1", *data.DEFAULT_FEATURES[:1], *data.DEFAULT_FEATURES[2:]],
         "repeated feature columns: ['bid_px_1']"),
    ])
    def test_bad_sad_setting_exit_2_before_any_work(self, tmp_path, generated,
                                                    capsys, key, value, message):
        doc = {"version": 1, "train": dict(TINY_TRAIN), "synth": dict(TINY_SYNTH)}
        section, _, key = key.rpartition(".")  # "synth.<key>", a train key or a top-level one
        if key in {*doc, "features"}:
            doc[key] = value
        else:
            doc[section or "train"][key] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out = run_experiment_cli(tmp_path, str(cfg), generated)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith(f"error: {cfg}: ")
        assert not out.exists()


def score_inputs(tmp_path, n_rows, bad_last_row=False, **fields):
    """(CSV, checkpoint): `n_rows` synthetic rows, optionally with a crossed
    book in the last one, and a trial checkpoint of a random default-view
    model whose normalizer was fitted on them; `fields` override the
    checkpoint's."""
    result = data.generate_synthetic(data.SynthConfig(
        n_rows=n_rows, anomaly_rate=0.0, n_labeled=0, seed=n_rows))
    if bad_last_row:
        result.book[-1, 0] = result.book[-1, 20]
    lob = tmp_path / "lob.csv"
    data.write_lob_csv(lob, result.dataset.timestamps, result.book)
    norm = data.fit_normalizer(result.dataset.features, np.arange(n_rows))
    ckpt = tmp_path / "score.ckpt"
    fields = {"center": np.linspace(-0.5, 0.5, 20), "norm_mean": norm.mean,
              "norm_std": norm.std, "feature_columns": data.DEFAULT_FEATURES} | fields
    nnet.save_checkpoint(nnet.mlp_init(1, (20, 12, 20)), ckpt, **fields)
    return lob, ckpt


def score_argv(ckpt, lob, out):
    return ["score", "--checkpoint", str(ckpt), "--data", str(lob), "--out", str(out)]


def _without(field):
    return lambda doc: json.dumps({k: v for k, v in doc.items() if k != field})


def _params(edit):
    """An edit of the saved document's flat `params` vector."""
    return lambda doc: json.dumps(
        doc | {"params": nnet._encode(edit(nnet._decode(doc["params"])))})


# (checkpoint fields passed to save_checkpoint, edit of the saved document)
BAD_CHECKPOINTS = [
    pytest.param({}, lambda doc: "{not json", id="not-json"),
    *(pytest.param({}, _without(field), id=f"no-{field}") for field in
      ("params", "center", "norm_mean", "norm_std", "feature_columns")),
    pytest.param({"center": np.zeros(5)}, None, id="center-5-wide"),
    pytest.param({"norm_mean": np.zeros(7)}, None, id="mean-7-wide"),
    pytest.param({"norm_std": np.zeros(20)}, None, id="std-zero"),
    pytest.param({"center": np.r_[np.nan, np.zeros(19)]}, None, id="center-nan"),
    pytest.param({"feature_columns": ("mid_px",) + data.DEFAULT_FEATURES[1:]}, None,
                 id="unknown-column"),
    pytest.param({"feature_columns": data.DEFAULT_FEATURES[:19]}, None,
                 id="19-names"),
    pytest.param({}, _params(lambda p: p[:-1]), id="params-1-short"),
    pytest.param({}, _params(lambda p: p.reshape(2, -1)), id="params-2d"),
]


class TestScore:
    def test_self_consistency_with_stored_scores(self, tmp_path, tiny_config,
                                                 generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 0
        score_path = tmp_path / "scores.csv"
        code = cli.main(["score",
                         "--checkpoint", str(out / "trial1_fold0_sad.ckpt"),
                         "--data", str(generated / "lob.csv"),
                         "--out", str(score_path)])
        assert code == 0
        scored = {int(r[0]): float(r[1])
                  for r in read_rows(score_path)[1:]}
        stored = {int(r[0]): float(r[1]) for r in
                  read_rows(out / "trial1_scores_sad_train.csv")[1:]}
        assert stored
        for row, s in stored.items():
            assert scored[row] == pytest.approx(s, abs=1e-12)

    def test_empty_data_header_only(self, tmp_path, tiny_config, generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--mode", "svdd-only"))
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(data.CSV_COLUMNS) + "\n")
        score_path = tmp_path / "s.csv"
        code = cli.main(["score",
                         "--checkpoint", str(out / "trial1_fold0_svdd.ckpt"),
                         "--data", str(empty), "--out", str(score_path)])
        assert code == 0
        assert score_path.read_text().strip() == "row,score"

    def test_dim_mismatch_exit_2(self, tmp_path, generated, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("a data row was parsed")
        monkeypatch.setattr(np, "loadtxt", no_parse)  # refused before any row is read
        model = nnet.mlp_init(0, (10, 5, 10))
        ckpt = tmp_path / "bad.ckpt"
        nnet.save_checkpoint(model, ckpt, center=np.zeros(10), norm_mean=np.zeros(10),
                             norm_std=np.ones(10), feature_columns=data.DEFAULT_FEATURES)
        code = cli.main(["score", "--checkpoint", str(ckpt),
                         "--data", str(generated / "lob.csv"),
                         "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "10" in err and "20" in err


    def test_stored_schema_rescores_bit_for_bit(self, tmp_path, monkeypatch):
        # data generated with the ask side spoofed, then run, as real data
        # would be, with a config of only version, train and the features
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", write_config(
            tmp_path / "gen.json", TINY_TRAIN, TINY_SYNTH, ASK_SIDE),
            "--out", str(gen)]) == 0
        cfg = tmp_path / "ask.json"
        cfg.write_text(json.dumps({"version": 1, "train": TINY_TRAIN, "features": ASK_SIDE}))
        code, out = run_experiment_cli(tmp_path, str(cfg), gen)
        assert code == 0
        ckpts = sorted(out.glob("*.ckpt"))
        assert len(ckpts) == 12
        for ckpt in ckpts:
            assert nnet.load_checkpoint(ckpt)[1]["feature_columns"] == tuple(ASK_SIDE)
        score_path = tmp_path / "scores.csv"
        assert cli.main(["score", "--checkpoint", str(out / "trial1_fold0_sad.ckpt"),
                         "--data", str(gen / "lob.csv"),
                         "--out", str(score_path)]) == 0
        scored = dict(read_rows(score_path)[1:])
        stored = {}
        for split in ("train", "test"):
            path = out / f"trial1_scores_sad_{split}.csv"
            stored.update(read_rows(path)[1:])
        assert len(stored) == len(scored) == 400
        assert scored == stored
        # and at 2 processes, in parts of whole blocks of 128 rows
        monkeypatch.setattr(data, "_BLOCK_ROWS", 128)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        assert len(data.csv_parts(gen / "lob.csv", 2)) == 2
        assert cli.main(score_argv(out / "trial1_fold0_sad.ckpt", gen / "lob.csv",
                                   tmp_path / "parts.csv")) == 0
        assert dict(read_rows(tmp_path / "parts.csv")[1:]) == stored

    @pytest.mark.parametrize("fields, edit", BAD_CHECKPOINTS)
    def test_malformed_checkpoint_exit_2(self, tmp_path, capsys, monkeypatch,
                                         fields, edit):
        lob, ckpt = score_inputs(tmp_path, 50, **fields)
        if edit is not None:
            ckpt.write_text(edit(json.loads(ckpt.read_text())))
        before = sorted(os.listdir(tmp_path))

        def no_parse(*args, **kwargs):
            raise AssertionError("a data row was parsed")
        monkeypatch.setattr(np, "loadtxt", no_parse)  # refused before any row is read
        assert cli.main(score_argv(ckpt, lob, tmp_path / "s.csv")) == 2
        assert f"error: {ckpt}: " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before  # no --out, no temporary file

    def test_timestamp_outside_int64_exit_2(self, tmp_path, generated, capsys):
        code, out = run_experiment_cli(tmp_path, write_config(
            tmp_path / "c.json", TINY_TRAIN, TINY_SYNTH), generated,
            ("--mode", "svdd-only"))
        lines = (generated / "lob.csv").read_text().splitlines()
        lines[5] = "99999999999999999999" + lines[5][lines[5].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["score", "--checkpoint", str(out / "trial1_fold0_svdd.ckpt"),
                         "--data", str(bad), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "row 5: timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("n_rows, blocks", [
        (3 * data._BLOCK_ROWS + 7, [data._BLOCK_ROWS] * 2 + [data._BLOCK_ROWS + 7]),
        (500, [500])])
    def test_streams_blocks_same_bytes(self, tmp_path, monkeypatch, n_rows, blocks):
        # the scores CSV equals anomaly_score over the whole file's features;
        # the short last block is merged into the one before it. One process,
        # so that the spy sees every block
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        lob, ckpt = score_inputs(tmp_path, n_rows)
        model, meta = nnet.load_checkpoint(ckpt)
        feats = data.apply_normalizer(
            data.Normalizer(meta["norm_mean"], meta["norm_std"]),
            data.load_lob_csv(lob).features)
        scores = objectives.anomaly_score(model, feats,
                                          objectives.Hypersphere(meta["center"]))
        want = tmp_path / "want.csv"
        data.write_csv(want, ("row", "score"), cli._score_line, [(np.arange(n_rows), scores)])
        seen, anomaly_score = [], objectives.anomaly_score

        def spy(model, points, sphere):
            seen.append(points.shape[0])
            return anomaly_score(model, points, sphere)
        monkeypatch.setattr(objectives, "anomaly_score", spy)
        assert cli.main(score_argv(ckpt, lob, tmp_path / "s.csv")) == 0
        assert seen == blocks
        assert (tmp_path / "s.csv").read_bytes() == want.read_bytes()

    def test_bad_row_in_last_block_leaves_no_scores(self, tmp_path, capsys):
        n_rows = 3 * data._BLOCK_ROWS + 7
        lob, ckpt = score_inputs(tmp_path, n_rows, bad_last_row=True)
        out = tmp_path / "s.csv"
        before = sorted(os.listdir(tmp_path))
        assert cli.main(score_argv(ckpt, lob, out)) == 2
        assert f"row {n_rows}: crossed book" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before  # no --out, no temporary file
        out.write_text("earlier scores\n")
        assert cli.main(score_argv(ckpt, lob, out)) == 2
        assert out.read_text() == "earlier scores\n"
        assert sorted(os.listdir(tmp_path)) == sorted(before + ["s.csv"])

    def test_scores_at_one_blas_thread(self, tmp_path, monkeypatch):
        # at the thread count the run scored at, whatever the caller's; the
        # caller's count comes back, after a refused row too
        if nnet.blas_threads() is None:
            pytest.skip("no settable OpenBLAS in this process")
        seen, anomaly_score = [], objectives.anomaly_score

        def recording_score(*args):
            seen.append(nnet.blas_threads())
            return anomaly_score(*args)
        monkeypatch.setattr(objectives, "anomaly_score", recording_score)
        before = nnet.blas_threads()
        _, set_threads = nnet._openblas()
        set_threads(2)
        try:
            lob, ckpt = score_inputs(tmp_path, 300)
            assert cli.main(score_argv(ckpt, lob, tmp_path / "s.csv")) == 0
            assert seen == [1] and nnet.blas_threads() == 2
            lob, ckpt = score_inputs(tmp_path, 300, bad_last_row=True)
            assert cli.main(score_argv(ckpt, lob, tmp_path / "s.csv")) == 2
            assert nnet.blas_threads() == 2
        finally:
            set_threads(before)

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 256)
        # one process: tracemalloc sees this one, and `csv_parts` reads up to
        # _SCAN_BYTES at a time, more than a 256-row block
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        peaks = {}
        for n_blocks in (2, 8, 2, 8):  # the first run warms caches up
            lob, ckpt = score_inputs(tmp_path, n_blocks * 256)
            tracemalloc.start()
            try:
                assert cli.main(score_argv(ckpt, lob, tmp_path / "s.csv")) == 0
                peaks[n_blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # scoring every row at once would peak about 4x higher at 8 blocks
        assert peaks[8] < 1.1 * peaks[2]


# lines per block in the tests of parts: a few hundred rows make several blocks
PART_BLOCK = 64


def fault_at(lob, row, fault):
    """Rewrite data row `row` (1-based) of `lob` with a fault."""
    lines = lob.read_bytes().splitlines(keepends=True)
    cells = lines[row].split(b",")
    if fault == "crossed":
        cells[1] = cells[21]  # best bid = best ask
    elif fault == "size":
        cells[11] = b"0.0"
    elif fault == "ts_order":  # one below the row before's
        cells[0] = b"%d" % (int(lines[row - 1].split(b",")[0]) - 1)
    elif fault == "blank":
        cells = [b"\r\n"]
    elif fault == "utf8":
        cells[5] = b"\xff" + cells[5]
    lines[row] = b",".join(cells)
    lob.write_bytes(b"".join(lines))


def score_at_each_count(monkeypatch, capsys, argv, counts=(1, 2, 3)):
    """{usable CPUs: (exit code, stderr)} of `lobsad score` at each count,
    each leaving no worker process behind."""
    outcomes = {}
    for cpus in counts:
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        outcomes[cpus] = cli.main(argv), capsys.readouterr().err
        assert multiprocessing.active_children() == []
    return outcomes


class TestScoreParts:
    @pytest.mark.parametrize("n_rows", [PART_BLOCK, 2 * PART_BLOCK, 3 * PART_BLOCK + 7,
                                        4 * PART_BLOCK])
    def test_same_bytes_at_every_process_count(self, tmp_path, monkeypatch, capsys,
                                               n_rows):
        monkeypatch.setattr(data, "_BLOCK_ROWS", PART_BLOCK)
        lob, ckpt = score_inputs(tmp_path, n_rows)
        assert len(data.csv_parts(lob, 3)) == min(3, n_rows // PART_BLOCK)
        outs = []
        for cpus in (1, 2, 3):
            outs.append(tmp_path / f"s{cpus}.csv")
            assert score_at_each_count(monkeypatch, capsys, score_argv(ckpt, lob, outs[-1]),
                                       (cpus,)) == {cpus: (0, "")}
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert sorted(os.listdir(tmp_path)) == sorted(["lob.csv", "score.ckpt", "s1.csv",
                                                       "s2.csv", "s3.csv"])

    @pytest.mark.parametrize("faults, want", [
        ([(128, "crossed")], "row 128: crossed book"),
        ([(129, "ts_order")], "row 129: timestamp"),
        ([(128, "blank")], "row 128: blank line before the last data row"),
        ([(100, "crossed"), (150, "size")], "row 100: crossed book"),
        ([(150, "utf8")], "'utf-8' codec can't decode byte 0xff in position"),
    ], ids=["crossed-end-of-part-1", "stamp-start-of-part-2", "blank-end-of-part-1",
            "both-parts", "utf8-in-part-2"])
    def test_fault_by_a_part_boundary_same_error(self, tmp_path, monkeypatch, capsys,
                                                 faults, want):
        # rows 128 and 129 sit on each side of a part boundary at 2 and at 3
        # processes: every count exits 2 with the first fault's error
        monkeypatch.setattr(data, "_BLOCK_ROWS", PART_BLOCK)
        lob, ckpt = score_inputs(tmp_path, 3 * PART_BLOCK + 7)
        for n in (2, 3):
            assert 2 * PART_BLOCK in [part.first for part in data.csv_parts(lob, n)]
        for row, fault in faults:
            fault_at(lob, row, fault)
        before = sorted(os.listdir(tmp_path))
        outcomes = score_at_each_count(monkeypatch, capsys,
                                       score_argv(ckpt, lob, tmp_path / "s.csv"))
        assert outcomes[1][0] == 2 and outcomes[1][1].startswith(f"error: {lob}: ")
        assert want in outcomes[1][1] and outcomes[1][1].count("\n") == 1
        assert outcomes[1] == outcomes[2] == outcomes[3]
        assert sorted(os.listdir(tmp_path)) == before  # no --out, no part file

    def test_dead_worker_fails_fast(self, tmp_path, monkeypatch, capsys):
        # a worker killed in the middle of its part: one error line, exit 1,
        # no --out, no part file and no process left
        monkeypatch.setattr(data, "_BLOCK_ROWS", PART_BLOCK)
        lob, ckpt = score_inputs(tmp_path, 4 * PART_BLOCK)
        caller, anomaly_score = os.getpid(), objectives.anomaly_score

        def dies_in_worker(*args):
            if os.getpid() != caller:
                os._exit(3)
            return anomaly_score(*args)
        monkeypatch.setattr(objectives, "anomaly_score", dies_in_worker)
        before = sorted(os.listdir(tmp_path))
        t0 = time.monotonic()
        (code, err), = score_at_each_count(monkeypatch, capsys,
                                           score_argv(ckpt, lob, tmp_path / "s.csv"),
                                           (2,)).values()
        assert time.monotonic() - t0 < 60
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_fifo_scored_in_one_process(self, tmp_path, monkeypatch, capsys):
        # a --data that is not a regular file is read once, start to end
        monkeypatch.setattr(data, "_BLOCK_ROWS", PART_BLOCK)
        lob, ckpt = score_inputs(tmp_path, 4 * PART_BLOCK)
        assert score_at_each_count(monkeypatch, capsys,
                                   score_argv(ckpt, lob, tmp_path / "want.csv"),
                                   (1,)) == {1: (0, "")}
        fifo = tmp_path / "lob.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(lob.read_bytes())
        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert score_at_each_count(monkeypatch, capsys,
                                       score_argv(ckpt, fifo, tmp_path / "s.csv"),
                                       (3,)) == {3: (0, "")}
        finally:
            writer.join()
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_each_process_logs_its_part(self, tmp_path):
        lob, ckpt = score_inputs(tmp_path, 4 * PART_BLOCK + 5)
        script = ("import sys; from lobsad import cli, data, harness; "
                  f"data._BLOCK_ROWS = {PART_BLOCK}; harness.usable_cpus = lambda: 3; "
                  "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, *score_argv(ckpt, lob, tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=120,
            env=os.environ | {"SAD_LOG": "INFO", "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        ended = re.findall(r"INFO lobsad\.cli: part (\d) of 3: (\d+) rows ended in "
                           r"process (\d+) after \d+\.\d\ds", proc.stderr)
        assert sorted(part for part, _, _ in ended) == ["1", "2", "3"]
        assert sum(int(rows) for _, rows, _ in ended) == 4 * PART_BLOCK + 5
        assert len({pid for _, _, pid in ended}) == 3


class TestReport:
    def test_regenerates_identical_csv(self, tmp_path, tiny_config, generated):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 0
        rep_out = tmp_path / "rep"
        code = cli.main(["report", "--results", str(out / "results.json"),
                         "--out", str(rep_out)])
        assert code == 0
        assert (rep_out / "results.csv").read_bytes() == \
            (out / "results.csv").read_bytes()

    def test_prints_svdd_vs_sad(self, tmp_path, tiny_config, generated, capsys):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated)
        assert code == 0
        capsys.readouterr()
        assert cli.main(["report", "--results", str(out / "results.json"),
                         "--out", str(tmp_path / "rep")]) == 0
        lines = capsys.readouterr().out.splitlines()
        test = [(d["metrics"]["svdd"]["ratio_test"], d["metrics"]["svdd"]["rank_test"],
                 d["metrics"]["sad"]["ratio_test"], d["metrics"]["sad"]["rank_test"])
                for d in read_json(out / "results.json")]
        # a fold without labeled test rows has no metrics; it is no SAD win
        assert any(None in t for t in test) and any(None not in t for t in test)
        wins = sum(None not in t and t[2] >= t[0] and t[3] <= t[1] for t in test)
        mean_sad_rank = np.mean([t[3] for t in test if t[3] is not None])
        assert [l.split()[:2] for l in lines[:6]] == [["trial", str(t)] for t in range(1, 7)]
        assert lines[6].startswith("means") and lines[6].endswith(f"rank={mean_sad_rank:7.1f}")
        assert lines[7] == f"sad wins {wins}/6 trials"

    def test_prints_archetype_means_with_ground_truth(self, tmp_path, tiny_config,
                                                      generated, capsys):
        printed = {}
        for name, extra in (("gt", ("--ground-truth", str(generated / "ground_truth.csv"))),
                            ("plain", ())):
            code, out = run_experiment_cli(tmp_path / name, tiny_config, generated, extra)
            assert code == 0
            capsys.readouterr()
            assert cli.main(["report", "--results", str(out / "results.json"),
                             "--out", str(tmp_path / name / "rep")]) == 0
            printed[name] = capsys.readouterr().out.splitlines()
        assert printed["plain"] == printed["gt"][:8]
        assert printed["plain"][-1].startswith("sad wins")
        docs = read_json(tmp_path / "gt" / "run" / "results.json")
        archetype_lines = printed["gt"][8:]
        assert len(archetype_lines) == len(data.ARCHETYPES)
        for name, line in zip(data.ARCHETYPES, archetype_lines):
            want = []
            for mode in ("svdd", "sad"):
                known = [d["metrics"][mode][f"gt_{name}_rank_test"] for d in docs]
                known = [v for v in known if v is not None]
                want.append(f"{np.mean(known):.1f}" if known else "NA")
            assert line.split()[0] == name
            assert re.findall(r"rank=\s*(\S+)", line) == want

    @pytest.mark.parametrize("doc", [
        '{"a": 1}', '[{"trial": 1, "bogus": 2}]',
        '[{"trial": 1, "fold": 0, "repeat": 0, "metrics": 5}]',
        '[{"trial": 1, "fold": 0, "repeat": 0, "metrics": {"svdd": 3}}]',
        '[{"trial": 1, "fold": 0, "repeat": 0, "metrics": {'
        '"svdd": {"ratio_test": "x", "rank_test": 1}, '
        '"sad": {"ratio_test": 1, "rank_test": 2}}}]',
        *('[{"trial": 1, "fold": 0, "repeat": 0, "runtime_s": %s, "metrics": {'
          '"svdd": {"ratio_test": 1, "rank_test": 1}, '
          '"sad": {"ratio_test": 1, "rank_test": 2}}}]' % runtime
          for runtime in ('"x"', "null")),
        '[{"trial": "1,2", "fold": 0, "repeat": 0}]',
        '[{"trial": 1, "fold": 0, "repeat": 0, "metrics": {"a,b": {}}}]',
        # JSON booleans, which Python takes for integers, and a string
        *('[{"trial": %s, "fold": %s, "repeat": %s, "runtime_s": %s, "metrics": {'
          '"svdd": {"ratio_test": 1, "rank_test": 1}, '
          '"sad": {"ratio_test": 1, "rank_test": %s}}}]' % fields
          for fields in (("true", 0, 0, 1, 2), (1, "false", 0, 1, 2), (1, 0, 0, "true", 2),
                         (1, 0, 0, 1, "false"), (1, 0, '"0"', 1, 2))),
        # one trial listed twice: by its number, or by its repeat and fold
        *('[%s]' % ", ".join('{"trial": %d, "fold": %d, "repeat": 0, "metrics": {'
                             '"svdd": {"ratio_test": 1, "rank_test": 1}, '
                             '"sad": {"ratio_test": 1, "rank_test": 2}}}' % trial_fold
                             for trial_fold in pairs)
          for pairs in (((1, 0), (1, 1)), ((1, 0), (2, 0))))])
    def test_malformed_results_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "results.json"
        path.write_text(doc)
        assert cli.main(["report", "--results", str(path),
                         "--out", str(tmp_path / "rep")]) == 2
        assert f"{path}: not a list of trial reports" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_one_model_prints_nothing(self, tmp_path, tiny_config, generated, capsys):
        code, out = run_experiment_cli(tmp_path, tiny_config, generated,
                                       ("--mode", "svdd-only"))
        assert code == 0
        capsys.readouterr()
        assert cli.main(["report", "--results", str(out / "results.json"),
                         "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().out == ""


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert cli.main([]) == 2

    @pytest.mark.parametrize("command, message", [
        ("generate", "[Errno 17] File exists"), ("run", "[Errno 21] Is a directory"),
        ("score", "[Errno 21] Is a directory"), ("report", "[Errno 21] Is a directory"),
        ("generate", "[Errno 2] No such file or directory"),
        ("score --out", "[Errno 21] Is a directory")])
    def test_os_error_exit_2(self, tmp_path, tiny_config, capsys, command, message):
        # a directory where a file is read or replaced, a file where a
        # directory is made, a config that does not exist; the error names
        # the path once
        a_dir, a_file = tmp_path / "dir", tmp_path / "file"
        a_dir.mkdir()
        a_file.write_text("")
        config = str(tmp_path / "none.json") if "Errno 2]" in message else tiny_config
        lob, ckpt = score_inputs(tmp_path, 50)
        argv = {"generate": ["--config", config, "--out", str(a_file)],
                "run": ["--config", tiny_config, "--data", str(a_dir),
                        "--labels", str(a_file), "--out", str(tmp_path / "run")],
                "score": ["--checkpoint", str(a_dir), "--data", str(a_file),
                          "--out", str(tmp_path / "s.csv")],
                "score --out": ["--checkpoint", str(ckpt), "--data", str(lob),
                                "--out", str(a_dir)],
                "report": ["--results", str(a_dir), "--out", str(tmp_path / "rep")]}
        assert cli.main([command.split()[0], *argv[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count(str(tmp_path)) == 1

    @pytest.mark.parametrize("command, flag", [
        ("report", "--results"), ("run", "--config"), ("run", "--data"),
        ("run", "--labels"), ("run", "--ground-truth"), ("score", "--checkpoint")])
    def test_non_utf8_input_exit_2_before_any_file(self, tmp_path, tiny_config,
                                                   generated, capsys, command, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff" + (generated / "labels.txt").read_bytes())
        out = tmp_path / "out"
        argv = {"report": {}, "score": {"--data": str(generated / "lob.csv")},
                "run": {"--config": tiny_config, "--data": str(generated / "lob.csv"),
                        "--labels": str(generated / "labels.txt"),
                        "--ground-truth": str(generated / "ground_truth.csv")}}[command]
        argv |= {flag: str(bad), "--out": str(out)}
        assert cli.main([command, *(part for item in argv.items() for part in item)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
        assert not out.exists() or list(out.iterdir()) == []

    def test_missing_out_directory_named_exit_2(self, tmp_path, capsys):
        # the error names the file asked for, not the temporary file beside it
        lob, ckpt = score_inputs(tmp_path, 40)
        out = tmp_path / "missing" / "s.csv"
        assert cli.main(score_argv(ckpt, lob, out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert ".tmp" not in err

    @pytest.mark.parametrize("command, flags", [
        ("generate", "--frobnicate"),
        # a run's settings come from its config file alone
        ("generate", "--seed 1"), ("run", "--seed 1"), ("run", "--paper-scale")])
    def test_unknown_flag_exit_2(self, tmp_path, tiny_config, generated, capsys,
                                 command, flags):
        out = tmp_path / "o"
        argv = [command, "--config", tiny_config, "--out", str(out), *flags.split()]
        if command == "run":
            argv += ["--data", str(generated / "lob.csv"),
                     "--labels", str(generated / "labels.txt")]
        assert cli.main(argv) == 2
        assert f"error: unrecognized arguments: {flags}\n" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("level, code", [("bogus", 2), ("", 0), ("info", 0)])
    def test_sad_log_level_checked_before_any_file(self, tmp_path, tiny_config,
                                                   level, code):
        # an empty SAD_LOG means WARNING; a name logging does not know is a
        # usage error, refused before the command starts
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "lobsad.cli", "generate", "--config", tiny_config,
             "--out", str(out)], capture_output=True, text=True, timeout=120,
            env=os.environ | {"SAD_LOG": level, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr == ("error: SAD_LOG must be a logging level such as INFO "
                                   f"or DEBUG, got '{level}'\n")
            assert not out.exists()
        else:
            assert (out / "lob.csv").exists()
            assert ("INFO lobsad.cli: wrote" in proc.stderr) == (level == "info")


class _FullDisk:
    """A text file that takes `room` more characters, then fails as a full
    disk does."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, text):
        if len(text) > self._room:
            self._fh.write(text[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _run_until_manifest(path, generated):
    args = cli.build_parser().parse_args([
        "run", "--config", write_config(generated / "run.json", TINY_TRAIN, TINY_SYNTH),
        "--data", str(generated / "lob.csv"), "--labels", str(generated / "labels.txt"),
        "--out", str(path.parent)])
    cli.cmd_run(args)


# writer -> (the file it fails to write, a call that writes it)
WRITERS = {
    "write_csv": ("t.csv", lambda path, _: data.write_csv(
        path, ("n",), str, [(np.arange(100),)])),
    "write_labels": ("labels.txt", lambda path, _: data.write_labels(
        path, np.arange(100))),
    "write_ground_truth": ("gt.csv", lambda path, _: data.write_ground_truth(
        path, data.GroundTruth(np.arange(30), ["spoof"] * 30, np.ones(30, bool)))),
    "save_checkpoint": ("m.ckpt", lambda path, _: nnet.save_checkpoint(
        nnet.mlp_init(0, (20, 12, 20)), path, center=np.zeros(20),
        norm_mean=np.zeros(20), norm_std=np.ones(20),
        feature_columns=data.DEFAULT_FEATURES)),
    "write_scatter": ("s.svg", lambda path, _: evalx.write_scatter(
        path.with_suffix(""), np.arange(60.0).reshape(30, 2), np.arange(30) % 7 == 0,
        svg=True)),
    "manifest": ("run/run_manifest.json", _run_until_manifest),
}


class TestWholeOrAbsent:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_earlier_file(self, tmp_path, generated, monkeypatch,
                                             writer):
        # the disk fills up 10 characters into the file
        name, write = WRITERS[writer]
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"earlier\r\n")
        real_open = builtins.open

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh, 10) if "w" in mode and str(file).startswith(
                str(path)) else fh
        monkeypatch.setattr(builtins, "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            write(path, generated)
        monkeypatch.undo()
        assert path.read_bytes() == b"earlier\r\n"
        assert sorted(tmp_path.rglob("*.tmp")) == []
