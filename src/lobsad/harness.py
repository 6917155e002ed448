"""Experiment orchestration: contiguous k-fold CV, autoencoder pretraining,
center initialization, one-class and semi-supervised main training, scoring,
metrics and repeated trials.

Within a trial the two models share the pretrained weights, the center and the
minibatch order; the objective is the only thing that differs. Everything is
seeded: a fixed seed gives bit-identical single-job results per BLAS thread count.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import evalx, nnet, objectives
from .data import Dataset
from .errors import ConfigError, DivergenceError
from .nnet import MlpModel
from .objectives import Hypersphere, LabeledBatch, SadHyper

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
    base, extra = divmod(n_rows, k)
    ranges, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


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
    min_labeled_per_batch: int = 1  # labeled oversampling floor for SAD batches
    k_folds: int = 3
    n_repeats: int = 2

    def __post_init__(self):
        if self.pretrain_epochs < 0 or self.main_epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.k_folds < 2 or self.n_repeats < 1:
            raise ConfigError(f"k_folds must be >= 2 and n_repeats >= 1, got "
                              f"{self.k_folds} and {self.n_repeats}")
        nnet.check_layer_dims(self.layer_dims)  # fail before any work starts
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
    """Shuffled minibatch epochs over n rows. `step(model, rows)` returns the
    loss of the batch `rows` at `model` and its gradients."""
    trainer = nnet._FusedTrainer(model, cfg.weight_decay)
    losses: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            loss, grads = step(trainer.model, perm[lo:lo + cfg.batch_size])
            trainer.adam_apply(grads, cfg.lr)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
        _check_divergence(losses, phase)
    return trainer.snapshot(), losses


def pretrain(model: MlpModel, train_features: np.ndarray, cfg: TrainConfig,
             rng: np.random.Generator) -> tuple[MlpModel, list[float]]:
    """Autoencoder phase: minimize mean squared reconstruction error."""
    if cfg.pretrain_epochs == 0:
        return model, []
    objectives.check_autoencoder(model)

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
    m_b = max(cfg.min_labeled_per_batch,
              math.ceil(cfg.batch_size * m / (n + m))) if m else 0
    if cfg.main_epochs == 0:
        return model, []
    pool = np.concatenate([unlabeled, labeled.features]) if m else unlabeled
    hyper = cfg.sad_hyper()

    def step(model, rows):
        y = None
        if m:
            pick = rng.integers(0, m, size=m_b)
            rows = np.concatenate([rows, n + pick])
            y = labeled.labels[pick]
        return objectives.loss_and_grads(model, pool[rows], sphere.center, y, hyper)
    return _train(model, n, cfg.main_epochs, cfg, rng, f"main[{mode}]", step)


@dataclass
class TrialResult:
    report: evalx.TrialReport
    models: dict  # mode -> MlpModel
    sphere: Hypersphere
    normalizer: data_mod.Normalizer
    train_rows: np.ndarray  # global row indices
    test_rows: np.ndarray
    scores: dict  # (mode, split) -> np.ndarray aligned with train_rows/test_rows
    projections: dict  # (mode, split) -> (proj (N,2), is_labeled (N,) bool)
    pretrain_losses: list[float] = field(default_factory=list)
    main_losses: dict = field(default_factory=dict)  # mode -> list[float]


def run_trial(dataset: Dataset, cfg: TrainConfig, repeat: int, fold: int,
              folds: tuple[tuple[int, int], ...], modes=MODES,
              ground_truth: data_mod.GroundTruth | None = None) -> TrialResult:
    t0 = time.perf_counter()
    lo, hi = folds[fold]
    test_rows = np.arange(lo, hi)
    train_rows = np.concatenate(
        [np.arange(a, b) for i, (a, b) in enumerate(folds) if i != fold])

    norm = data_mod.fit_normalizer(dataset.features, train_rows)
    feats = data_mod.apply_normalizer(norm, dataset.features)

    labeled_global = dataset.labeled_idx
    labeled_train = labeled_global[np.isin(labeled_global, train_rows)]

    model0 = nnet.mlp_init([cfg.seed, repeat, fold, 0], cfg.layer_dims)
    rng_pre = np.random.default_rng([cfg.seed, repeat, fold, 1])
    pre_model, pre_losses = pretrain(model0, feats[train_rows], cfg, rng_pre)
    sphere = objectives.init_center(pre_model, feats[train_rows])

    sad_unlab_rows = train_rows[~np.isin(train_rows, labeled_train)]
    lb = LabeledBatch(feats[labeled_train], -np.ones(labeled_train.size))

    # metric key prefix -> ground-truth rows: all of them, then each archetype's
    gt_subsets = {} if ground_truth is None else {"gt_": ground_truth.rows} | {
        f"gt_{name}_": ground_truth.rows[[a == name for a in ground_truth.archetypes]]
        for name in data_mod.ARCHETYPES}

    trial_no = repeat * len(folds) + fold + 1
    models, scores, projections, main_losses, metrics = {}, {}, {}, {}, {}
    for mode in modes:
        # same rng sub-seed for both modes: identical batch order, objective is
        # the only variable
        rng = np.random.default_rng([cfg.seed, repeat, fold, 2])
        unlab = feats[train_rows] if mode == "svdd" else feats[sad_unlab_rows]
        labeled = LabeledBatch.empty(feats.shape[1]) if mode == "svdd" else lb
        model, losses = train_main(pre_model, sphere, unlab, labeled, cfg,
                                   mode, rng)
        models[mode] = model
        main_losses[mode] = losses

        # one embedding per split: scores, metrics and the PCA scatter all
        # come from it, and the PCA basis is fitted on the train split only
        mode_metrics = {}
        for split, rows in (("train", train_rows), ("test", test_rows)):
            out = objectives.embed(model, feats[rows])
            s = objectives.distance(out, sphere)
            scores[(mode, split)] = s
            ranks = evalx.fractional_ranks_desc(s)  # one sort for every row subset
            is_labeled = np.isin(rows, labeled_global)
            ss = evalx.ScoreSet(s, np.nonzero(is_labeled)[0], split=split)
            mode_metrics.update(evalx.metrics_for(ss, ranks))
            for prefix, subset in gt_subsets.items():
                gt_pos = np.nonzero(np.isin(rows, subset))[0]
                gt_ss = evalx.ScoreSet(s, gt_pos, split=split)
                mode_metrics.update(
                    {prefix + k: v for k, v in evalx.metrics_for(gt_ss, ranks).items()})
            if split == "train":
                basis = evalx.pca_fit(out, k=2)
            projections[(mode, split)] = (evalx.pca_project(basis, out), is_labeled)
            del out  # the next split's forward passes set peak memory: free these first
        metrics[mode] = mode_metrics

    report = evalx.TrialReport(
        trial=trial_no, fold=fold, repeat=repeat, metrics=metrics,
        runtime_s=time.perf_counter() - t0,
        config=dataclasses.asdict(cfg) | {"modes": list(modes)},
    )
    return TrialResult(report=report, models=models, sphere=sphere,
                       normalizer=norm, train_rows=train_rows,
                       test_rows=test_rows, scores=scores,
                       projections=projections, pretrain_losses=pre_losses,
                       main_losses=main_losses)


def run_experiment(dataset: Dataset, cfg: TrainConfig, modes=MODES, jobs: int = 1,
                   ground_truth: data_mod.GroundTruth | None = None,
                   on_trial=None) -> list[TrialResult]:
    """All repeats x folds. `on_trial(result)` fires as each trial completes,
    in completion order, so callers can flush partial results before a later
    trial aborts. `jobs` > 1 runs the trials on min(jobs, trials) worker
    processes. There, no trial starts after the first failure; the trials
    already running finish and reach `on_trial`, then the first error is
    raised."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    folds = contiguous_kfold(dataset.n_rows, cfg.k_folds)
    tasks = [(dataset, cfg, r, f, folds, tuple(modes), ground_truth)
             for r in range(cfg.n_repeats) for f in range(cfg.k_folds)]
    # a fork-context pool starts all its workers at the first submit, so a
    # worker with no trial to run would only copy the process
    jobs = min(jobs, len(tasks))
    results: list[TrialResult] = []
    if jobs == 1:
        for task in tasks:
            results.append(run_trial(*task))
            if on_trial is not None:
                on_trial(results[-1])
    else:
        # one trial per free worker, in trial order (popped from the end): a
        # pool runs every trial it has queued, even after a failure
        queued, error = tasks[::-1], None
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            running = set()
            while queued or running:
                while queued and len(running) < jobs:
                    running.add(ex.submit(run_trial, *queued.pop()))
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    if fut.exception() is not None:  # start no more; drain the rest
                        error, queued = error or fut.exception(), []
                        continue
                    results.append(fut.result())
                    if on_trial is not None:
                        on_trial(results[-1])
        if error is not None:
            raise error
    results.sort(key=lambda r: r.report.trial)
    return results
