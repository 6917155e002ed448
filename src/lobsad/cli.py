"""Command-line entry point.

Subcommands:

    lobsad generate --config cfg.json --out DIR
        Write a synthetic LOB CSV, a label file and a ground-truth sidecar.
    lobsad run --config cfg.json --data lob.csv --labels labels.txt --out DIR
        Full experiment: repeats x contiguous folds, both models, a run
        manifest; as each model ends, its checkpoint, score dumps and
        scatters, and as each trial ends, results.csv/results.json
        rewritten for every trial ended so far.
    lobsad score --checkpoint ckpt --data lob.csv --out scores.csv
        Anomaly score for every row of a CSV using a trial checkpoint, the
        CSV cut into one part per usable CPU.
    lobsad report --results results.json --out DIR
        Regenerate results.csv; for a run of both models, print SVDD vs SAD on
        the test split, per trial and, after a --ground-truth run, per archetype.

Every file is written whole or not at all, through `data.replacing`: a
command that fails or is killed leaves each output complete or as it was.
Exit codes: 0 success, 1 runtime/divergence failure, 2 usage, config or data
error, or a file that cannot be read (or is not UTF-8) or written.
Config files are versioned JSON; unknown keys are rejected. The resolved
config, the file with its defaults filled in, is recorded in the run manifest.
Set SAD_LOG=DEBUG|INFO|... to control logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import logging
import multiprocessing
import os
import shutil
import sys
import time
import typing
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import data as data_mod
from . import evalx, harness, nnet, objectives
from .errors import ConfigError, DivergenceError, LobSadError, WorkerError

log = logging.getLogger("lobsad.cli")

CONFIG_VERSION = 1
_PART_ENDED = "part %d of %d: %d rows ended in process %d after %.2fs"  # one INFO line per part

# field type -> the JSON types of a value for it (never a bool), and their name
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               tuple: ((list,), "a list"), dict: ((dict,), "an object")}


def _dataclass_from_dict(cls, section: dict, name: str):
    """`cls` from a config section or a results.json trial whose values' JSON
    types fit its fields; every list becomes a tuple, whose elements `cls` checks."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be an object, got {section!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(section) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' section: {sorted(unknown)}")
    for key, value in section.items():
        types, noun = _JSON_TYPES[typing.get_origin(hints[key]) or hints[key]]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"'{name}' section: {key} must be {noun}, got {value!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()})


def load_run_config(path):
    """(train, synth, schema): `features` is the view of any data, synthetic or
    real. Every refusal of the config's content names `path` once."""
    doc = data_mod.read_json(path)
    try:
        if not isinstance(doc, dict):
            raise ConfigError("top level must be an object")
        version = doc.get("version")
        if type(version) is not int or version != CONFIG_VERSION:  # not True, not 1.0
            raise ConfigError(f"expected version {CONFIG_VERSION}, got {version!r}")
        unknown = set(doc) - {"version", "train", "synth", "features"}
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        if isinstance(doc.get("synth"), dict) and "schema" in doc["synth"]:
            raise ConfigError("synth.schema is now the top-level 'features' list")
        train = _dataclass_from_dict(harness.TrainConfig, doc.get("train", {}), "train")
        synth = _dataclass_from_dict(data_mod.SynthConfig, doc.get("synth", {}), "synth")
        features = doc.get("features", [*data_mod.DEFAULT_FEATURES])
        if not isinstance(features, list):
            raise ConfigError(f"features must be a list, got {features!r}")
        schema = data_mod.SchemaConfig(tuple(features))
        if len(features) != train.layer_dims[0]:  # the network's input
            raise ConfigError(f"{len(features)} feature columns "
                              f"do not fit layer_dims[0] = {train.layer_dims[0]}")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return train, synth, schema


def _config_snapshot(train, synth, schema) -> dict:
    return {"version": CONFIG_VERSION,
            "train": dataclasses.asdict(train),
            "synth": dataclasses.asdict(synth),
            "features": list(schema.feature_columns)}


def cmd_generate(args) -> int:
    train, synth, schema = load_run_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    try:  # the generator's own refusals: no size column in view, too many labels
        result = data_mod.generate_synthetic(synth, schema)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    data_mod.write_lob_csv(os.path.join(args.out, "lob.csv"),
                           result.dataset.timestamps, result.book)
    data_mod.write_labels(os.path.join(args.out, "labels.txt"),
                          result.dataset.labeled_idx)
    data_mod.write_ground_truth(os.path.join(args.out, "ground_truth.csv"),
                                result.ground_truth)
    log.info("wrote %d rows, %d labeled, %d injected anomalies to %s",
             result.dataset.n_rows, result.dataset.n_labeled,
             result.ground_truth.rows.size, args.out)
    return 0


def _score_line(row: int, score: float) -> str:
    return f"{row},{score!r}"


def _save_trial(res: harness.TrialResult, out_dir: str,
                schema: data_mod.SchemaConfig, svg: bool) -> None:
    """Write every file of a trial's modes in `res`: their checkpoints and,
    per (mode, split), its score dump and its scatter."""
    t = res.report.trial
    for mode, model in res.models.items():
        nnet.save_checkpoint(
            model, os.path.join(out_dir, f"trial{t}_fold{res.report.fold}_{mode}.ckpt"),
            center=res.sphere.center, norm_mean=res.normalizer.mean,
            norm_std=res.normalizer.std, feature_columns=schema.feature_columns)
    for (mode, split), scores in res.scores.items():
        rows = res.train_rows if split == "train" else res.test_rows
        data_mod.write_csv(os.path.join(out_dir, f"trial{t}_scores_{mode}_{split}.csv"),
                           ("row", "score"), _score_line, [(rows, scores)])
        evalx.write_scatter(os.path.join(out_dir, f"trial{t}_scatter_{mode}_{split}"),
                            *res.projections[(mode, split)], svg=svg)


def cmd_run(args) -> int:
    train, synth, schema = load_run_config(args.config)
    modes = {"both": ("svdd", "sad"), "svdd-only": ("svdd",),
             "sad-only": ("sad",)}[args.mode]
    jobs = harness.resolve_jobs(args.jobs, train, modes)

    dataset = data_mod.load_lob_csv(args.data, schema)
    dataset = data_mod.load_labels(args.labels, dataset)
    try:  # refused before any file
        harness.contiguous_kfold(dataset.n_rows, train.k_folds)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: k_folds above the rows of {args.data}: "
                          f"{exc}") from None
    gt = (data_mod.load_ground_truth(args.ground_truth, dataset.n_rows)
          if args.ground_truth else None)

    reports: list[evalx.TrialReport] = []

    def on_trial(res):
        """Rewrite the tables for every trial ended so far."""
        reports.append(res.report)
        reports.sort(key=lambda r: r.trial)  # trials end out of order when jobs > 1
        evalx.export_report(reports, args.out)
        log.info("trial %d done in %.1fs", res.report.trial, res.report.runtime_s)

    os.makedirs(args.out, exist_ok=True)
    with nnet.one_blas_thread() as blas_threads:  # as run_experiment trains
        manifest = {"config": _config_snapshot(train, synth, schema),
                    "data": os.path.abspath(args.data),
                    "labels": os.path.abspath(args.labels),
                    "mode": args.mode, "jobs": jobs, "blas_threads": blas_threads,
                    "usable_cpus": harness.usable_cpus(),
                    "n_rows": dataset.n_rows, "n_labeled": dataset.n_labeled}
        with data_mod.replacing(os.path.join(args.out, "run_manifest.json")) as fh:
            json.dump(manifest, fh, indent=2)
        harness.run_experiment(
            dataset, train, modes=modes, jobs=jobs, ground_truth=gt, on_trial=on_trial,
            save=lambda res: _save_trial(res, args.out, schema, args.svg))
    return 0


def _score_part(data_path, schema, model, norm, sphere, parts, i, path) -> None:
    """Score part `i` of `parts` of the CSV `data_path` block by block, so
    memory does not grow with its length, and write its lines to `path`, the
    first part's after the header."""
    t0, part = time.perf_counter(), parts[i]
    first = part.first

    def scored():  # (row numbers, scores) of each block
        nonlocal first
        for _, features in data_mod.iter_lob_csv(data_path, schema, part):
            scores = objectives.anomaly_score(
                model, data_mod.apply_normalizer(norm, features), sphere)
            yield range(first, first + scores.size), scores
            first += scores.size
            del features, scores  # freed before the next block is parsed
    data_mod.write_csv(path, None if i else ("row", "score"), _score_line, scored())
    log.info(_PART_ENDED, i + 1, len(parts), first - part.first, os.getpid(),
             time.perf_counter() - t0)


def _part_error(task) -> Exception | None:
    """Score a part; the error it raised, or None."""
    try:
        _score_part(*task)
    except Exception as exc:
        return exc
    return None


def _part_worker(send, cpu, task) -> None:
    """A forked worker: its part, scored off the caller's CPU `cpu` (see
    `harness.leave_cpu`), and then the part's error or None sent back."""
    harness.leave_cpu(cpu)
    send.send(_part_error(task))


def _worker_ended(worker, recv) -> Exception | None:
    """The error a worker sent back, None, or a WorkerError if it died first."""
    try:
        return recv.recv()
    except EOFError:
        worker.join()
        return WorkerError(f"a scoring process exited with code {worker.exitcode}")


def cmd_score(args) -> int:
    """Score the CSV in parts, one per usable CPU: `data.csv_parts` cuts it on
    block boundaries, so every part reads the blocks a whole-file read would,
    and the scores do not depend on the number of parts. A forked worker
    scores each part but the last, which this process scores; each part's
    lines go to a file of its own, and then all of them, in order, to --out.
    --out is written whole or not at all: a bad row or a failed part leaves
    it as it was, and the error is that of the first part that failed."""
    model, meta = nnet.load_checkpoint(args.checkpoint)
    schema = data_mod.SchemaConfig(meta["feature_columns"])
    norm = data_mod.Normalizer(mean=meta["norm_mean"], std=meta["norm_std"])
    sphere = objectives.Hypersphere(center=meta["center"])
    parts = data_mod.csv_parts(args.data, harness.usable_cpus())
    stem = f"{args.out}.{os.getpid()}.part"
    work = [(args.data, schema, model, norm, sphere, parts, i, f"{stem}{i}.tmp")
            for i in range(len(parts))]
    fork, cpu, workers = multiprocessing.get_context("fork"), harness.this_cpu(), []
    # at the one BLAS thread a run trains and scores at, so the scores equal
    # the run's stored ones at any thread count set outside; the workers are
    # forked inside it and inherit it. --out is opened first, so that a path
    # it cannot take is named before any row is read
    with nnet.one_blas_thread(), data_mod.replacing(args.out) as out:
        try:
            for task in work[:-1]:
                recv, send = fork.Pipe(duplex=False)
                worker = fork.Process(target=_part_worker, args=(send, cpu, task))
                with send:  # the worker's end of the pipe
                    worker.start()
                workers.append((worker, recv))
            mine = _part_error(work[-1])  # the last part, here
            for error in [_worker_ended(*worker) for worker in workers] + [mine]:
                if error is not None:
                    raise error  # the first part's, in file order
            for task in work:
                with data_mod.reading(task[-1], newline="") as fh:
                    shutil.copyfileobj(fh, out)
        finally:
            for worker, recv in workers:
                worker.join()
                recv.close()
            # the parts, and what a worker killed mid-write left of one
            for leftover in glob.glob(glob.escape(stem) + "*"):
                os.remove(leftover)
    return 0


def cmd_report(args) -> int:
    docs = data_mod.read_json(args.results)
    try:
        if not isinstance(docs, list):
            raise TypeError("top level must be a list of trials")
        reports = [_dataclass_from_dict(evalx.TrialReport, d, f"entry {i}")
                   for i, d in enumerate(docs, 1)]
        seen = set()  # each trial's number and its (repeat, fold)
        for rep in reports:
            if {rep.trial, (rep.repeat, rep.fold)} & seen:
                raise TypeError(f"trial {rep.trial} (repeat {rep.repeat}, fold {rep.fold}) "
                                "is listed twice")
            seen |= {rep.trial, (rep.repeat, rep.fold)}
            if not (set(rep.metrics) <= {"svdd", "sad"} and all(  # unquoted in results.csv
                    isinstance(m, dict) and all(v is None or type(v) in (int, float)
                                                for v in m.values())
                    for m in rep.metrics.values())):
                raise TypeError(f"trial {rep.trial}: metrics must map svdd or sad to an "
                                "object of numbers")
    except (TypeError, ConfigError) as exc:  # not an object, a bad key or value
        raise ConfigError(f"{args.results}: not a list of trial reports: {exc}") from None
    evalx.export_report(reports, args.out)
    if reports and all({"svdd", "sad"} <= set(r.metrics) for r in reports):
        _print_comparison(reports)
    return 0


def _print_comparison(reports: list[evalx.TrialReport]) -> None:
    """SVDD vs SAD on the test split: ratio and mean rank per trial, their
    means, and the trials SAD wins (ratio >= SVDD's and rank <= SVDD's); then,
    when the run had a ground-truth sidecar, the means per archetype."""
    def test(metrics: dict, prefix: str = "") -> tuple:
        return metrics.get(f"{prefix}ratio_test"), metrics.get(f"{prefix}rank_test")

    def mean(values) -> float | None:  # over the trials that have the metric
        known = [v for v in values if v is not None]
        return float(np.mean(known)) if known else None

    def side(mode: str, ratio, rank) -> str:
        ratio = "NA" if ratio is None else f"{ratio:6.2f}"
        rank = "NA" if rank is None else f"{rank:7.1f}"
        return f"{mode}: ratio={ratio} rank={rank}"

    wins = 0
    for rep in reports:
        svdd, sad = test(rep.metrics["svdd"]), test(rep.metrics["sad"])
        win = None not in svdd + sad and sad[0] >= svdd[0] and sad[1] <= svdd[1]
        wins += win
        print(f"trial {rep.trial} ({rep.runtime_s:5.0f}s)  {side('svdd', *svdd)}   "
              f"{side('sad', *sad)}   sad_wins={win}")
    def means(prefix: str = "") -> str:
        return "   ".join(side(mode, *map(mean, zip(*(test(r.metrics[mode], prefix)
                                                    for r in reports))))
                          for mode in ("svdd", "sad"))

    print(f"means  {means()}")
    print(f"sad wins {wins}/{len(reports)} trials")
    for name in data_mod.ARCHETYPES:
        if any(f"gt_{name}_rank_test" in r.metrics["svdd"] for r in reports):
            print(f"{name:<8} {means(f'gt_{name}_')}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobsad",
        description="Hypersphere anomaly detection on limit-order-book data")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic LOB data")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the full cross-validated experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--data", required=True)
    run.add_argument("--labels", required=True)
    run.add_argument("--ground-truth", default=None,
                     help="optional sidecar; adds gt_* metrics to results.json")
    run.add_argument("--out", required=True)
    run.add_argument("--jobs", type=int, default=None,
                     help="processes that train, this one included, each at one "
                          "BLAS thread (default: the usable CPUs; never more than "
                          "can all have a task); results do not depend on it")
    run.add_argument("--mode", choices=("both", "svdd-only", "sad-only"),
                     default="both")
    run.add_argument("--svg", action="store_true", help="also write SVG scatters")
    run.set_defaults(func=cmd_run)

    score = sub.add_parser("score", help="score a CSV with a trial checkpoint")
    score.add_argument("--checkpoint", required=True)
    score.add_argument("--data", required=True)
    score.add_argument("--out", required=True)
    score.set_defaults(func=cmd_score)

    rep = sub.add_parser("report", help="regenerate results.csv from results.json "
                         "and compare SVDD with SAD")
    rep.add_argument("--results", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SAD_LOG", "").upper() or "WARNING"
    if not isinstance(logging.getLevelName(level), int):  # a name logging knows
        print(f"error: SAD_LOG must be a logging level such as INFO or DEBUG, "
              f"got {os.environ['SAD_LOG']!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DivergenceError, WorkerError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LobSadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
