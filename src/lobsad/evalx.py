"""Ratio test, rank test, PCA projection and report serialization.

The ratio test is the mean anomaly score over the labeled anomalies divided by
the mean over everything else (above 1 means the detector is doing anything at
all). The rank test sorts all rows by descending score (rank 1 = highest) and
averages the labeled anomalies' ranks; ties get fractional average ranks.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import replacing, write_csv
from .errors import DataError, ShapeError

# Metrics emitted to results.csv; normalized rank lives in results.json only.
CSV_METRICS = ("ratio", "rank")
# width and height of a scatter SVG, in pixels
_SVG_SIZE = 480


@dataclass(frozen=True)
class ScoreSet:
    scores: np.ndarray  # (N,) anomaly scores, >= 0
    labeled_idx: np.ndarray  # indices into scores of the true anomalies
    split: str = "train"  # "train" | "test"

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64).ravel()
        li = np.asarray(self.labeled_idx, dtype=np.int64).ravel()
        if li.size and (li.min() < 0 or li.max() >= s.size):
            raise DataError("labeled index out of range")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labeled_idx", li)


def ratio_test(ss: ScoreSet) -> float:
    """mean(labeled scores) / mean(unlabeled scores)."""
    n = ss.scores.size
    m = ss.labeled_idx.size
    if m == 0 or m == n:
        raise DataError("ratio test needs at least one labeled and one unlabeled row")
    mask = np.zeros(n, dtype=bool)
    mask[ss.labeled_idx] = True
    unlabeled_mean = ss.scores[~mask].mean()
    if unlabeled_mean == 0:
        raise DataError("ratio test is undefined: every unlabeled score is 0")
    return float(ss.scores[mask].mean() / unlabeled_mean)


def fractional_ranks_desc(scores: np.ndarray) -> np.ndarray:
    """1-based descending ranks with average ranks on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # tie runs are [starts[k], ends[k]) in sorted order; each row of a run gets
    # the mean of the 1-based positions starts[k] + 1 .. ends[k]
    cuts = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [scores.size]))
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def rank_test(ss: ScoreSet, ranks: np.ndarray | None = None) -> tuple[float, float]:
    """(mean rank of the labeled anomalies, mean rank / N). `ranks`, when
    given, are `fractional_ranks_desc(ss.scores)`, so that every subset of
    one split's rows can share one sort."""
    if ss.labeled_idx.size == 0:
        raise DataError("rank test needs at least one labeled row")
    if ranks is None:
        ranks = fractional_ranks_desc(ss.scores)
    mean_rank = float(ranks[ss.labeled_idx].mean())
    return mean_rank, mean_rank / ss.scores.size


@dataclass(frozen=True)
class PcaBasis:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), rows orthonormal
    explained_variance: np.ndarray  # (k,), nonincreasing


def pca_fit(outputs: np.ndarray, k: int) -> PcaBasis:
    """Top-k eigenvectors of the covariance of mean-centered rows."""
    x = np.asarray(outputs, dtype=np.float64)
    n, d = x.shape
    if not (1 <= k <= d):
        raise ShapeError(f"need 1 <= k <= d, got k={k}, d={d}")
    if n <= k:
        raise DataError(f"need more rows than components, got n={n}, k={k}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    variances = np.maximum(evals[order], 0.0)
    components = evecs[:, order].T
    # sign convention: largest-magnitude coordinate of each component positive
    for row in components:
        j = np.argmax(np.abs(row))
        if row[j] < 0:
            row *= -1.0
    return PcaBasis(mean=mean, components=components, explained_variance=variances)


def pca_project(basis: PcaBasis, outputs: np.ndarray) -> np.ndarray:
    x = np.asarray(outputs, dtype=np.float64)
    if x.shape[1] != basis.mean.shape[0]:
        raise ShapeError(f"dim {x.shape[1]} != basis dim {basis.mean.shape[0]}")
    return (x - basis.mean) @ basis.components.T


@dataclass
class TrialReport:
    trial: int  # 1-based trial number (repeat x fold)
    fold: int
    repeat: int
    # model -> metric name -> value; None marks not-applicable (no labeled rows)
    metrics: dict = field(default_factory=dict)
    runtime_s: float = 0.0  # the sum of its tasks' times: the pretrain and each mode's
    config: dict = field(default_factory=dict)


def metrics_for(ss: ScoreSet, ranks: np.ndarray | None = None) -> dict:
    """ratio/rank/normalized rank for one score set; None when not applicable.
    `ranks` is passed on to `rank_test`."""
    out = {}
    try:
        out[f"ratio_{ss.split}"] = ratio_test(ss)
    except DataError:
        out[f"ratio_{ss.split}"] = None
    try:
        mean_rank, norm = rank_test(ss, ranks)
        out[f"rank_{ss.split}"] = mean_rank
        out[f"normalized_rank_{ss.split}"] = norm
    except DataError:
        out[f"rank_{ss.split}"] = None
        out[f"normalized_rank_{ss.split}"] = None
    return out


def _fmt(value) -> str:
    return "NA" if value is None else repr(float(value))


def export_report(reports: list[TrialReport], out_dir) -> list[str]:
    """Write results.json, then results.csv, which `lobsad report` rebuilds
    from it; returns their paths (the CSV's first)."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "results.json")
    with replacing(json_path) as fh:
        json.dump([dataclasses.asdict(r) for r in reports], fh, indent=2)
    csv_path = os.path.join(out_dir, "results.csv")
    write_csv(csv_path, ("trial", "fold", "model", "split", "metric", "value"), str,
              [([f"{rep.trial},{rep.fold},{model},{split},{metric},"
                 f"{_fmt(rep.metrics[model].get(f'{metric}_{split}'))}"
                 for rep in reports for model in sorted(rep.metrics)
                 for split in ("train", "test") for metric in CSV_METRICS],)])
    return [csv_path, json_path]


def write_scatter(stem, proj: np.ndarray, is_labeled: np.ndarray,
                  svg: bool = False) -> None:
    """Write `stem`.csv, one `pc1,pc2,is_labeled` row per point, and with
    `svg` also the same scatter as `stem`.svg."""
    proj = np.asarray(proj, dtype=np.float64)
    write_csv(f"{stem}.csv", ("pc1", "pc2", "is_labeled"), "{!r},{!r},{:d}".format,
              [(proj[:, 0], proj[:, 1], is_labeled)])
    if svg:
        _write_scatter_svg(f"{stem}.svg", proj, is_labeled)


def _write_scatter_svg(path, proj: np.ndarray, is_labeled: np.ndarray) -> None:
    """Presentation-only scatter, _SVG_SIZE pixels square: unlabeled points
    blue, labeled anomalies orange."""
    proj = np.asarray(proj, dtype=np.float64)
    if proj.size == 0:
        lo, span = np.zeros(2), np.ones(2)
    else:
        lo, hi = proj.min(axis=0), proj.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
    pad, inner = 20, _SVG_SIZE - 40

    def pix(p):
        q = (p - lo) / span
        return pad + q[0] * inner, _SVG_SIZE - pad - q[1] * inner

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}">',
             f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>']
    labeled_pts = []
    for p, lab in zip(proj, is_labeled):
        x, y = pix(p)
        if lab:
            labeled_pts.append((x, y))
        else:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="1.5" fill="#1f77b4" fill-opacity="0.4"/>')
    for x, y in labeled_pts:  # drawn on top, there are far fewer of them
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="#ff7f0e"/>')
    parts.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(parts))
