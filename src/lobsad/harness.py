"""Experiment orchestration: contiguous k-fold CV, autoencoder pretraining,
center initialization, one-class and semi-supervised main training, scoring,
metrics and repeated trials.

Within a trial the two models share the pretrained weights, the center and the
minibatch order; the objective is the only thing that differs, so each mode's
task may run in any process once the trial's pretrain task has. Everything is
seeded, and `run_experiment` trains at one BLAS thread in every process, so a
fixed seed gives bit-identical results whatever the number of processes, the
CPU count or `OPENBLAS_NUM_THREADS`; only the BLAS build moves them.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import heapq
import logging
import math
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import evalx, nnet, objectives
from .data import Dataset
from .errors import ConfigError, DataError, DivergenceError
from .nnet import MlpModel
from .objectives import Hypersphere, LabeledBatch, SadHyper

log = logging.getLogger("lobsad.harness")
_TASK_ENDED = "trial %d %s ended in process %d after %.2fs"  # one INFO line per task

MODES = ("svdd", "sad")

_DIVERGENCE_WINDOW = 100
_DIVERGENCE_FACTOR = 1e3


def contiguous_kfold(n_rows: int, k: int) -> tuple[tuple[int, int], ...]:
    """Split [0, n_rows) into k near-equal contiguous [start, stop) ranges
    (sizes differ by <= 1)."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if n_rows < k:
        raise ConfigError(f"n_rows={n_rows} < k={k}")
    base, extra = divmod(n_rows, k)  # the first `extra` ranges take one more row
    stops = [(i + 1) * base + min(i + 1, extra) for i in range(k)]
    return tuple(zip([0] + stops[:-1], stops))


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    pretrain_epochs: int = 20
    main_epochs: int = 90
    batch_size: int = 64
    lr: float = 1e-4
    weight_decay: float = 1e-6
    eta: float = 1.0
    dist_eps: float = 1e-6
    layer_dims: tuple[int, ...] = nnet.DEFAULT_DIMS
    k_folds: int = 3
    n_repeats: int = 2

    def __post_init__(self):
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.pretrain_epochs < 0 or self.main_epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.k_folds < 2 or self.n_repeats < 1:
            raise ConfigError(f"k_folds must be >= 2 and n_repeats >= 1, got "
                              f"{self.k_folds} and {self.n_repeats}")
        nnet.check_layer_dims(self.layer_dims)  # fail before any work starts
        if self.pretrain_epochs:
            objectives.check_autoencoder(self.layer_dims)
        self.sad_hyper()

    def sad_hyper(self) -> SadHyper:
        return SadHyper(eta=self.eta, eps=self.dist_eps)


def paper_scale(cfg: TrainConfig) -> TrainConfig:
    """Epoch counts at full scale: 1,000 pretrain, 10,000 main."""
    return replace(cfg, pretrain_epochs=1000, main_epochs=10_000)


def _check_divergence(losses: list[float], phase: str) -> None:
    cur = losses[-1]
    if not math.isfinite(cur):
        raise DivergenceError(f"{phase}: non-finite loss at epoch {len(losses)}")
    if len(losses) > _DIVERGENCE_WINDOW:
        ref = losses[-1 - _DIVERGENCE_WINDOW]
        if ref > 0 and cur > _DIVERGENCE_FACTOR * ref:
            raise DivergenceError(
                f"{phase}: loss grew {cur / ref:.1f}x over "
                f"{_DIVERGENCE_WINDOW} epochs (epoch {len(losses)})")


def _train(model: MlpModel, n: int, epochs: int, cfg: TrainConfig,
           rng: np.random.Generator, phase: str, step) -> tuple[MlpModel, list[float]]:
    """Shuffled minibatch epochs over n rows, each step an Adam update in place
    on a copy of the model's parameters. `step(model, rows)` returns the loss
    of the batch `rows` at `model` and its flat gradient vector."""
    if n == 0:
        raise DataError(f"{phase}: no rows to train on")
    model.validate()
    model = nnet.set_flat_params(model, model.params)
    state = nnet.adam_init(model)
    losses: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            loss, grads = step(model, perm[lo:lo + cfg.batch_size])
            nnet._adam_update(model.params, grads, state, cfg.lr, cfg.weight_decay,
                              model.layer_dims)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
        _check_divergence(losses, phase)
    return model, losses


def pretrain(model: MlpModel, train_features: np.ndarray, cfg: TrainConfig,
             rng: np.random.Generator) -> tuple[MlpModel, list[float]]:
    """Autoencoder phase: minimize mean squared reconstruction error."""
    if cfg.pretrain_epochs == 0:
        return model, []
    objectives.check_autoencoder(model.layer_dims)

    def step(model, rows):
        batch = train_features[rows]
        return objectives.loss_and_grads(model, batch, batch)
    return _train(model, train_features.shape[0], cfg.pretrain_epochs, cfg, rng,
                  "pretrain", step)


def train_main(model: MlpModel, sphere: Hypersphere, unlabeled: np.ndarray,
               labeled: LabeledBatch, cfg: TrainConfig, mode: str,
               rng: np.random.Generator) -> tuple[MlpModel, list[float]]:
    """Hypersphere phase. mode="svdd" ignores labels entirely; mode="sad"
    appends oversampled labeled rows to every batch (when any exist), so one
    forward and one backward cover both terms of the loss. With an empty
    labeled batch the two modes consume identical randomness and produce
    identical trajectories."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    n = unlabeled.shape[0]
    m = len(labeled) if mode == "sad" else 0
    m_b = max(1, math.ceil(cfg.batch_size * m / (n + m))) if m else 0
    if cfg.main_epochs == 0:
        return model, []
    hyper = cfg.sad_hyper()

    def step(model, rows):
        batch, y = unlabeled[rows], None
        if m:  # gathered per batch, so the rows are never copied whole
            pick = rng.integers(0, m, size=m_b)
            batch = np.concatenate([batch, labeled.features[pick]])
            y = labeled.labels[pick]
        return objectives.loss_and_grads(model, batch, sphere.center, y, hyper)
    return _train(model, n, cfg.main_epochs, cfg, rng, f"main[{mode}]", step)


@dataclass
class TrialResult:
    """A trial's result, or one task's part of it: the pretrain task's part
    leaves the mode fields (models to main_losses) empty, a mode task's part
    the pretrain's (sphere to pretrained) None or empty; `_join` merges them."""
    report: evalx.TrialReport
    models: dict = field(default_factory=dict)  # mode -> MlpModel
    scores: dict = field(default_factory=dict)  # (mode, split) -> np.ndarray, by split rows
    projections: dict = field(default_factory=dict)  # (mode, split) -> (proj, is_labeled)
    main_losses: dict = field(default_factory=dict)  # mode -> list[float]
    sphere: Hypersphere | None = None
    normalizer: data_mod.Normalizer | None = None
    train_rows: np.ndarray | None = None  # global row indices
    test_rows: np.ndarray | None = None
    pretrain_losses: list[float] = field(default_factory=list)
    pretrained: MlpModel | None = None  # the autoencoder every mode starts from


def run_pretrain(dataset: Dataset, cfg: TrainConfig, repeat: int, fold: int,
                 folds: tuple[tuple[int, int], ...]) -> TrialResult:
    """A trial's pretrain task: fit the normalizer on the train rows, pretrain
    the autoencoder on them and set the center."""
    t0 = time.perf_counter()
    train_rows = np.concatenate(
        [np.arange(a, b) for i, (a, b) in enumerate(folds) if i != fold])
    norm = data_mod.fit_normalizer(dataset.features, train_rows)
    train = data_mod.apply_normalizer(norm, dataset.features[train_rows])
    model0 = nnet.mlp_init([cfg.seed, repeat, fold, 0], cfg.layer_dims)
    rng_pre = np.random.default_rng([cfg.seed, repeat, fold, 1])
    pre_model, pre_losses = pretrain(model0, train, cfg, rng_pre)
    sphere = objectives.init_center(pre_model, train)
    report = evalx.TrialReport(
        trial=repeat * len(folds) + fold + 1, fold=fold, repeat=repeat,
        runtime_s=time.perf_counter() - t0, config=dataclasses.asdict(cfg))
    log.info(_TASK_ENDED, report.trial, "pretrain", os.getpid(), report.runtime_s)
    return TrialResult(report=report, sphere=sphere, normalizer=norm, train_rows=train_rows,
                       test_rows=np.arange(*folds[fold]), pretrain_losses=pre_losses,
                       pretrained=pre_model)


def run_mode(dataset: Dataset, cfg: TrainConfig, pre: TrialResult, mode: str,
             ground_truth: data_mod.GroundTruth | None = None) -> TrialResult:
    """A trial's task for one mode: train it from the pretrain task's result
    `pre`, then score, rank and project both splits; its part holds only them."""
    t0 = time.perf_counter()

    def normalized(rows):  # only the rows a use needs, never all of them
        return data_mod.apply_normalizer(pre.normalizer, dataset.features[rows])
    # same rng sub-seed for both modes: identical batch order, objective is
    # the only variable
    rng = np.random.default_rng([cfg.seed, pre.report.repeat, pre.report.fold, 2])
    if mode == "svdd":
        unlab = normalized(pre.train_rows)
        labeled = LabeledBatch.empty(dataset.features.shape[1])
    else:
        lab = np.isin(pre.train_rows, dataset.labeled_idx)  # both ascending: one row order
        unlab = normalized(pre.train_rows[~lab])
        labeled = LabeledBatch(normalized(pre.train_rows[lab]), -np.ones(np.count_nonzero(lab)))
    model, losses = train_main(pre.pretrained, pre.sphere, unlab, labeled, cfg, mode, rng)
    del unlab, labeled  # freed first: the train split's embedding below sets the peak

    # metric key prefix -> ground-truth rows: all of them, then each archetype's
    gt_subsets = {} if ground_truth is None else {"gt_": ground_truth.rows} | {
        f"gt_{name}_": ground_truth.rows[[a == name for a in ground_truth.archetypes]]
        for name in data_mod.ARCHETYPES}

    # one embedding per split: scores, metrics and the PCA scatter all come
    # from it, and the PCA basis is fitted on the train split only
    scores, projections, metrics = {}, {}, {}
    for split, rows in (("train", pre.train_rows), ("test", pre.test_rows)):
        out = objectives.embed(model, normalized(rows))  # freed as embed returns
        s = objectives.distance(out, pre.sphere)
        scores[(mode, split)] = s
        ranks = evalx.fractional_ranks_desc(s)  # one sort for every row subset
        is_labeled = np.isin(rows, dataset.labeled_idx)
        ss = evalx.ScoreSet(s, np.nonzero(is_labeled)[0], split=split)
        metrics.update(evalx.metrics_for(ss, ranks))
        for prefix, subset in gt_subsets.items():
            gt_pos = np.nonzero(np.isin(rows, subset))[0]
            gt_ss = evalx.ScoreSet(s, gt_pos, split=split)
            metrics.update(
                {prefix + k: v for k, v in evalx.metrics_for(gt_ss, ranks).items()})
        if split == "train":
            basis = evalx.pca_fit(out, k=2)
        projections[(mode, split)] = (evalx.pca_project(basis, out), is_labeled)
        del out  # the next split's forward passes set peak memory: free these first

    report = replace(pre.report, metrics={mode: metrics}, runtime_s=time.perf_counter() - t0)
    log.info(_TASK_ENDED, report.trial, mode, os.getpid(), report.runtime_s)
    return TrialResult(report=report, models={mode: model}, scores=scores,
                       projections=projections, main_losses={mode: losses})


def _join(parts: list[TrialResult]) -> TrialResult:
    """One trial's task results merged in order, its pretrain's first: the
    pretrain fields (sphere, normalizer, rows, losses and autoencoder) come
    from that first part, each mode's fields from its own. The runtime is the
    sum of the tasks' times, and the config's "modes" lists the modes merged."""
    merged = {name: {k: v for part in parts for k, v in getattr(part, name).items()}
              for name in ("models", "scores", "projections", "main_losses")}
    first = parts[0].report
    report = replace(first, runtime_s=sum(part.report.runtime_s for part in parts),
                     metrics={k: v for part in parts for k, v in part.report.metrics.items()},
                     config=first.config | {"modes": list(merged["models"])})
    return replace(parts[0], report=report, **merged)


def run_trial(dataset: Dataset, cfg: TrainConfig, repeat: int, fold: int,
              folds: tuple[tuple[int, int], ...], modes=MODES,
              ground_truth: data_mod.GroundTruth | None = None) -> TrialResult:
    """One trial in this process: its pretrain, then its `modes` in order."""
    pre = run_pretrain(dataset, cfg, repeat, fold, folds)
    return _join([pre] + [run_mode(dataset, cfg, pre, mode, ground_truth) for mode in modes])


def usable_cpus() -> int:
    """The CPUs this process may run on: the processes `lobsad run` trains on
    and the parts `lobsad score` cuts its CSV into, at most."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def this_cpu() -> int | None:
    """The CPU this thread runs on, or None where no loaded library exports
    `sched_getcpu`."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
    cpu = sched_getcpu()
    return cpu if cpu >= 0 else None


def leave_cpu(cpu: int | None) -> None:
    """Keep this process off `cpu` when it may run on another CPU; a no-op
    where affinity cannot be set. A forked worker of a parent that goes on
    computing calls it with the parent's CPU: on a 2-vCPU machine the kernel
    often left both on one CPU through all of `lobsad score`'s ~0.2 s parts,
    which then took as long as one process scoring the whole file."""
    with contextlib.suppress(AttributeError, OSError):
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)


def resolve_jobs(jobs: int | None, cfg: TrainConfig, modes=MODES) -> int:
    """The processes a run of `cfg` trains on: `jobs`, by default the usable
    CPUs, and never more than this one plus every other trial's mode tasks."""
    if jobs is None:
        jobs = usable_cpus()
    elif jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, 1 + (cfg.n_repeats * cfg.k_folds - 1) * len(modes))


def _one_malloc_arena() -> None:
    """Have glibc's malloc serve every thread of this process from one arena,
    by `mallopt(M_ARENA_MAX, 1)`; a no-op where no loaded library exports
    `mallopt`. The pool's threads pickle and unpickle the tasks' arrays: in
    arenas of their own, the memory those free is never reused by this
    thread. The setting is process-wide, and glibc fixes the arena limit
    once: a thread that already has an arena keeps it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no loaded library exports it
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX, from <malloc.h>


# a worker's dataset, config, folds, ground truth and `save`, set once by
# `_init_worker`: fork hands them over without pickling
_WORKER_DATA: tuple = ()


def _init_worker(*state) -> None:
    global _WORKER_DATA
    _WORKER_DATA = state


def _run_task(repeat: int, fold: int, pre: TrialResult | None, mode, state=None):
    """A trial's pretrain task, or with `pre` its `mode` task, saved here joined
    to `pre`; the caller holds `pre`, so only the mode's own part goes back."""
    dataset, cfg, folds, ground_truth, save = state or _WORKER_DATA
    if pre is None:
        return run_pretrain(dataset, cfg, repeat, fold, folds)
    part = run_mode(dataset, cfg, pre, mode, ground_truth)
    save(_join([pre, part]))
    return part


def run_experiment(dataset: Dataset, cfg: TrainConfig, modes=MODES,
                   jobs: int | None = None, ground_truth: data_mod.GroundTruth | None = None,
                   save=lambda result: None, on_trial=None) -> None:
    """All repeats x folds at one BLAS thread, on `resolve_jobs(jobs, cfg,
    modes)` processes: this one, which runs trial 1 whole through `run_trial`,
    beside jobs - 1 forked workers. Each later trial is a pretrain task and a
    task per mode, SAD taken first, each run by whichever process takes it;
    the results do not depend on `jobs`. `save(result)` runs in the process
    that ran a task, as it ends. Every task's result goes through one handler,
    `ended`, whichever process ran it; a trial, its modes merged in `modes`
    order, then reaches `on_trial(result)`, called at one site, on the calling
    thread. That is the only way out for a result: none is kept after it
    returns, and the run returns None. With workers, this process first keeps
    to one malloc arena (`_one_malloc_arena`). No task starts after the first
    failure; the running ones finish, the trials they complete reach
    `on_trial`, then the first error is raised."""
    jobs, on_trial = resolve_jobs(jobs, cfg, modes), on_trial or (lambda result: None)
    folds = contiguous_kfold(dataset.n_rows, cfg.k_folds)
    state = (dataset, cfg, folds, ground_truth, save)
    # a free process takes the ready task of the lowest trial, so that a trial's
    # modes run side by side and none is left alone at the end: its pretrain,
    # then its modes, SAD first as its batches also carry the labeled rows
    ready = [((r, f, 0), (r, f, None, None))  # (key, (repeat, fold, pretrain's result, mode))
             for r in range(cfg.n_repeats) for f in range(cfg.k_folds)]
    parts = {}  # (repeat, fold) -> {mode: its ended task's part}
    lock, error, idle = threading.RLock(), None, jobs - 1
    done = queue.SimpleQueue()  # the ended trials, and a None as each worker task ends
    # fork: the workers get the dataset without a pickle and inherit the one
    # BLAS thread. The pool forks them all at the first submit, from this
    # thread, so `resolve_jobs` caps them: a worker with no task only costs memory
    if jobs > 1:  # before the pool's threads first allocate
        _one_malloc_arena()
    pool = contextlib.nullcontext() if jobs == 1 else ProcessPoolExecutor(
        max_workers=jobs - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=state)

    def feed() -> None:  # give each free worker the first ready task
        nonlocal error, idle
        with lock:  # held across submit: a task taken is a future submitted
            while idle and error is None and ready:
                task = heapq.heappop(ready)[1]
                try:
                    fut = pool.submit(_run_task, *task)
                except Exception as exc:  # a worker died, or an error shuts the pool
                    error = exc
                    return
                idle -= 1
                fut.add_done_callback(functools.partial(worker_ended, task))

    def ended(task, result: TrialResult) -> None:  # all that a task ending means
        with lock:
            if task[2] is None:  # a pretrain: its modes are ready
                for mode in modes:
                    heapq.heappush(ready, ((*task[:2], mode != "sad"), (*task[:2], result, mode)))
            else:  # a mode: the trial's last puts the trial on `done`
                got = parts.setdefault(task[:2], {})
                got[task[3]] = result
                if len(got) == len(modes):
                    del parts[task[:2]]
                    done.put(_join([task[2]] + [got[mode] for mode in modes]))
            feed()

    def worker_ended(task, fut) -> None:  # on the pool's thread
        nonlocal error, idle
        with lock:
            idle += 1
            error = error or fut.exception()
            if fut.exception() is None:
                ended(task, fut.result())
            done.put(None)  # wakes a `deliver` that waits

    def take():  # (this process's next task or None, whether a worker or trial is pending)
        with lock:
            task = heapq.heappop(ready)[1] if error is None and ready else None
            return task, idle < jobs - 1 or not done.empty()

    def deliver(wait: bool) -> None:  # the ended trials; `wait` for one entry first
        while wait or not done.empty():
            wait, trial = False, done.get()
            if trial is not None:
                on_trial(trial)

    with nnet.one_blas_thread(), pool:  # the pool's shutdown waits for running tasks
        task, busy = take()  # trial 1, run whole here
        feed()
        while task is not None or busy:
            try:
                # whole here: perfbench's traced run times run_trial in this process
                if task is not None and task[:2] == (0, 0):
                    trial = run_trial(dataset, cfg, *task[:2], folds, modes, ground_truth)
                    save(trial)
                    done.put(trial)
                    del trial  # not held while the next task runs
                elif task is not None:
                    ended(task, _run_task(*task, state))
                deliver(wait=task is None)
            except Exception as exc:  # start no more; the running tasks finish
                with lock:
                    error = error or exc
            task, busy = take()
    if error is not None:
        raise error
