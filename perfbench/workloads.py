"""The benchmark's workloads: their inputs, the command each measures, and the
checks on that command's outputs.

Every workload uses desk-scale synthetic data from `lobsad generate`: 60,000
rows, 0.2% injected anomalies, 30 labeled rows, the default bid-side schema.

- desk-run: `lobsad run`, batch 64, both models, 1 repeat x 3 contiguous
  folds. Small steps, so per-step overhead is a large part of training.
- wide-batch-run: the same command and data at batch 1024, where a training
  step is mostly BLAS work. A per-call overhead cut shows on desk-run and
  barely here; extra flops or other BLAS threading show here first.
- desk-score: `lobsad score` with a trial checkpoint over the whole CSV. No
  training: ingest, forward passes and the scores CSV.

Epoch counts are cut far below the defaults (20 + 90) so that a run of every
workload fits the benchmark's time budget; the data are desk-scale.

Each workload also runs the other command outside its timed loop: desk-score
gets its checkpoint from a short `lobsad run` in set-up, and the run workloads
check their own checkpoint with `lobsad score`. So one traced run reaches
every layer of the package.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    n_rows: int
    anomaly_rate: float
    n_labeled: int


DESK = Scale(n_rows=60_000, anomaly_rate=0.002, n_labeled=30)
# the self-test's scale: every code path, a few hundred rows
TINY = Scale(n_rows=600, anomaly_rate=0.1, n_labeled=15)
SCALES = {"desk": DESK, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "score": the command the timed loop measures
    train: dict  # "train" section of the config of its `lobsad run`


WORKLOADS = {w.name: w for w in (
    Workload("desk-run", "run",
             {"pretrain_epochs": 1, "main_epochs": 3, "batch_size": 64,
              "n_repeats": 1, "k_folds": 3}),
    Workload("wide-batch-run", "run",
             {"pretrain_epochs": 2, "main_epochs": 6, "batch_size": 1024,
              "n_repeats": 1, "k_folds": 3}),
    # the short run in set-up that writes the checkpoint and reference scores
    Workload("desk-score", "score",
             {"pretrain_epochs": 1, "main_epochs": 1, "batch_size": 64,
              "n_repeats": 1, "k_folds": 2}),
)}

CHECKPOINT = "trial1_fold0_sad.ckpt"


class CheckFailed(Exception):
    pass


def write_config(path: str, workload: Workload, seed: int, scale: Scale) -> None:
    doc = {"version": 1,
           "train": dict(workload.train, seed=seed),
           "synth": {"n_rows": scale.n_rows, "anomaly_rate": scale.anomaly_rate,
                     "n_labeled": scale.n_labeled, "seed": seed}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def call(argv: list[str]) -> None:
    from lobsad import cli
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"lobsad {argv[0]} exited {rc}")


def run_argv(inputs: str, out: str) -> list[str]:
    return ["run", "--config", os.path.join(inputs, "cfg.json"),
            "--data", os.path.join(inputs, "lob.csv"),
            "--labels", os.path.join(inputs, "labels.txt"),
            "--ground-truth", os.path.join(inputs, "ground_truth.csv"),
            "--out", out]


def score_argv(inputs: str, run_dir: str, out: str) -> list[str]:
    return ["score", "--checkpoint", os.path.join(run_dir, CHECKPOINT),
            "--data", os.path.join(inputs, "lob.csv"), "--out", out]


def make_inputs(workload: Workload, seed: int, scale: Scale, inputs: str) -> None:
    """Write the config, the CSV, labels and ground truth into the empty
    directory `inputs`."""
    write_config(os.path.join(inputs, "cfg.json"), workload, seed, scale)
    call(["generate", "--config", os.path.join(inputs, "cfg.json"), "--out", inputs])


def make_reference(inputs: str) -> None:
    """desk-score's short run: the checkpoint it scores and the scores it must
    reproduce, in `inputs/ref`."""
    call(run_argv(inputs, os.path.join(inputs, "ref")))


def command_argv(workload: Workload, inputs: str, out: str) -> list[str]:
    if workload.command == "run":
        return run_argv(inputs, out)
    return score_argv(inputs, os.path.join(inputs, "ref"), os.path.join(out, "scores.csv"))


def read_scores(path: str):
    """(row, score) columns of a score CSV, as numpy arrays so that their
    memory goes back to the OS and does not raise later peaks."""
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "row,score":
            raise CheckFailed(f"{path}: unexpected header")
        table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    return table[:, 0].astype(np.int64), table[:, 1]


def check_scores(scores_csv: str, run_dir: str, n_rows: int) -> None:
    """`lobsad score` output must equal the run's stored trial-1 SAD scores on
    every row, bit for bit."""
    import numpy as np

    rows, got = read_scores(scores_csv)
    parts = [read_scores(os.path.join(run_dir, f"trial1_scores_sad_{split}.csv"))
             for split in ("train", "test")]
    ref_rows = np.concatenate([p[0] for p in parts])
    ref = np.empty(n_rows)
    ref[ref_rows] = np.concatenate([p[1] for p in parts])
    every_row = np.arange(n_rows)
    if not (np.array_equal(rows, every_row)
            and np.array_equal(np.sort(ref_rows), every_row)):
        raise CheckFailed(f"score covers {rows.size} rows, the run {ref_rows.size}, "
                          f"the data {n_rows}")
    differ = int(np.count_nonzero(got != ref))
    if differ:
        raise CheckFailed(f"{differ} of {n_rows} rescored rows differ from the run")


def rescore(inputs: str, run_dir: str, n_rows: int) -> None:
    """Score the data with the run's trial-1 SAD checkpoint and compare."""
    scores = os.path.join(run_dir, "rescored.csv")
    call(score_argv(inputs, run_dir, scores))
    check_scores(scores, run_dir, n_rows)


def check_same_results(results: list[dict], first: list[dict]) -> None:
    """Single-job runs are deterministic: every run of a seed gives the same
    results.json apart from runtime_s."""
    if results != first:
        raise CheckFailed("results.json differs from the first run's")


def read_results(run_dir: str, workload: Workload) -> list[dict]:
    """results.json of a run, checked for k x repeats trials, both models and
    finite ratio/rank on both splits; runtime_s is dropped."""
    with open(os.path.join(run_dir, "results.json"), encoding="utf-8") as fh:
        docs = json.load(fh)
    n_trials = workload.train["k_folds"] * workload.train["n_repeats"]
    if [d["trial"] for d in docs] != list(range(1, n_trials + 1)):
        raise CheckFailed(f"expected trials 1..{n_trials}, got "
                          f"{[d['trial'] for d in docs]}")
    for d in docs:
        if sorted(d["metrics"]) != ["sad", "svdd"]:
            raise CheckFailed(f"trial {d['trial']}: models {sorted(d['metrics'])}")
        for model, metrics in d["metrics"].items():
            for key in ("ratio_train", "rank_train", "ratio_test", "rank_test"):
                value = metrics.get(key)
                if value is None or not math.isfinite(value):
                    raise CheckFailed(f"trial {d['trial']} {model}: {key}={value}")
        d.pop("runtime_s")
    return docs


def mean_test_ranks(results: list[dict]) -> dict[str, float]:
    """Mean over trials of each model's mean test-split rank of labeled anomalies."""
    return {model: sum(d["metrics"][model]["rank_test"] for d in results) / len(results)
            for model in ("sad", "svdd")}


def reset_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
