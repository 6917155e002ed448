"""Loss functions for hypersphere training and the anomaly score.

Three ingredients: the one-class hypersphere loss (mean squared distance of
network outputs to a fixed center), its semi-supervised extension that adds an
inverted-distance term for labeled anomalies, and the Euclidean distance score
used at inference. Plus the autoencoder pretraining loss and the center
initializer. The center is always a fixed constant with respect to gradients.

All three losses are one loss head (`loss_head`) between one forward and one
backward pass (`loss_and_grads`); the training loops run the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet
from .errors import ConfigError, DataError, ShapeError
from .nnet import MlpModel

# rows per forward pass in `embed`, picked by measurement: one layer's
# activations at the default dims (1,024 x 100 float64, 0.8 MB) stay in cache
_CHUNK = 1024
# rows per partial sum in `init_center`, the summation order of every center
_CENTER_CHUNK = 8192
# `init_center` pushes center coordinates nearer zero than this out to +-_NUDGE
_NUDGE = 1e-3


@dataclass(frozen=True)
class Hypersphere:
    center: np.ndarray  # (d_out,), never updated by gradient steps

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if not np.isfinite(c).all():
            raise DataError("non-finite hypersphere center")
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class SadHyper:
    eta: float = 1.0  # weight of the labeled term
    eps: float = 1e-6  # guard inside the inverted distance

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ConfigError(f"eta must be > 0 and finite, got {self.eta}")
        if not (0 < self.eps <= 1e-3):
            raise ConfigError(f"eps must be in (0, 1e-3], got {self.eps}")


@dataclass(frozen=True)
class LabeledBatch:
    features: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,), values in {-1, +1}; -1 = anomaly

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        y = np.asarray(self.labels, dtype=np.float64).ravel()
        if f.shape[0] != y.shape[0]:
            raise ShapeError(f"{f.shape[0]} feature rows vs {y.shape[0]} labels")
        if y.size and not np.isin(y, (-1.0, 1.0)).all():
            raise DataError(f"labels must be in {{-1, +1}}, got {np.unique(y)}")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.features.shape[0]

    @staticmethod
    def empty(dim: int) -> "LabeledBatch":
        return LabeledBatch(np.zeros((0, dim)), np.zeros(0))


def check_autoencoder(model: MlpModel) -> None:
    """Reject a model that cannot reconstruct its own input."""
    if model.input_dim != model.output_dim:
        raise ConfigError(
            f"autoencoder needs input dim == output dim, got "
            f"{model.input_dim} vs {model.output_dim}"
        )


def loss_head(out: np.ndarray, target: np.ndarray, y: np.ndarray | None = None,
              hyper: SadHyper | None = None) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. the outputs of a batch [unlabeled; labeled].

    `target` is the center c for the hypersphere losses and the input x for
    the autoencoder. The last len(y) rows are labeled. Over n + m rows,

        (1/(n+m)) sum_i d_i^2 + (eta/(n+m)) sum_j (d_j^2 + eps)^(y_j),

    with d = ||phi(x) - t||, and row i's gradient is 2 w_i (phi(x_i) - t_i)
    with w_i = 1/(n+m) unlabeled and (eta/(n+m)) y (d^2 + eps)^(y-1) labeled.
    """
    total = out.shape[0]
    m = 0 if y is None else y.size
    if target.shape[-1] != out.shape[1]:
        raise ShapeError(f"output dim {out.shape[1]} != target dim {target.shape[-1]}")
    diff = out - target
    sq = diff * diff
    loss = float(np.sum(sq[:total - m]) / total)
    w = np.full(total, 1.0 / total)
    if m:
        d2 = np.sum(sq[total - m:], axis=1) + hyper.eps
        loss += float(hyper.eta / total * np.sum(d2 ** y))
        w[total - m:] = (hyper.eta / total) * y * d2 ** (y - 1.0)
    return loss, (2.0 * w)[:, None] * diff


def loss_and_grads(model: MlpModel, batch: np.ndarray, target: np.ndarray,
                   y: np.ndarray | None = None,
                   hyper: SadHyper | None = None) -> tuple[float, np.ndarray]:
    """forward -> loss head -> backward: the one sequence behind every loss
    and every training step. `batch` is not validated here."""
    out, tape = nnet._forward(model, batch)
    loss, grad_out = loss_head(out, target, y, hyper)
    return loss, nnet._backward(model, tape, grad_out)


def ae_loss(model: MlpModel, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared reconstruction error, (1/B) sum ||phi(x) - x||^2."""
    check_autoencoder(model)
    batch = nnet._as_batch(model, np.atleast_2d(batch))
    return loss_and_grads(model, batch, batch)


def svdd_loss(model: MlpModel, batch: np.ndarray,
              sphere: Hypersphere) -> tuple[float, np.ndarray]:
    """One-class loss: (1/n) sum ||phi(x_i) - c||^2 over the batch."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise DataError("svdd_loss needs a nonempty batch")
    return loss_and_grads(model, nnet._as_batch(model, batch), sphere.center)


def sad_loss(model: MlpModel, unlabeled: np.ndarray, labeled: LabeledBatch,
             sphere: Hypersphere, hyper: SadHyper) -> tuple[float, np.ndarray]:
    """Semi-supervised loss.

    (1/(n+m)) sum_i ||phi(x_i)-c||^2
      + (eta/(n+m)) sum_j (||phi(x~_j)-c||^2 + eps)^(y_j)

    y_j = +1 replicates the unlabeled pull toward c; y_j = -1 inverts the
    distance and pushes the representation away from c. With m = 0 this is
    bit-for-bit the one-class loss on the same batch.
    """
    unlabeled = nnet._as_batch(model, np.atleast_2d(unlabeled))
    if unlabeled.shape[0] + len(labeled) == 0:
        raise DataError("sad_loss needs at least one sample")
    batch = np.concatenate([unlabeled, nnet._as_batch(model, labeled.features)])
    return loss_and_grads(model, batch, sphere.center, labeled.labels, hyper)


def embed(model: MlpModel, points: np.ndarray) -> np.ndarray:
    """Network outputs of every row, forwarded in near-equal chunks of at most
    _CHUNK rows into one output array. No chunk is short: BLAS sums a product
    of a few rows in another order (with OpenBLAS, <= 100 rows at the default
    dims), so a row would otherwise score differently in a split than in the
    whole file."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.empty((points.shape[0], model.output_dim))
    # an empty input still makes one (empty) chunk, so its width is checked
    n_chunks = max(1, -(-points.shape[0] // _CHUNK))
    for rows, dest in zip(np.array_split(points, n_chunks), np.array_split(out, n_chunks)):
        dest[...] = nnet.forward(model, rows)[0]
    return out


def init_center(model: MlpModel, features: np.ndarray) -> Hypersphere:
    """Center = mean network output over all rows, summed _CENTER_CHUNK rows
    at a time.

    Coordinates within _NUDGE of zero are pushed out to +-_NUDGE so the sphere
    cannot trivially collapse onto the origin of a dead-ReLU output.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = features.shape[0]
    if n == 0:
        raise DataError("cannot initialize center from an empty dataset")
    out = embed(model, features)
    # a sum of per-chunk sums, not one sum over all rows: this summation order
    # reproduces the centers (and so the trained models) of earlier versions
    sums = np.stack([out[lo:lo + _CENTER_CHUNK].sum(axis=0)
                     for lo in range(0, n, _CENTER_CHUNK)])
    c = sums.sum(axis=0) / n
    small = np.abs(c) < _NUDGE
    c[small] = np.where(c[small] >= 0, _NUDGE, -_NUDGE)
    return Hypersphere(center=c)


def distance(out: np.ndarray, sphere: Hypersphere) -> np.ndarray:
    """||out - c|| per row of network outputs: the Euclidean (not squared)
    distance to the center."""
    diff = out - sphere.center
    diff *= diff
    return np.sqrt(np.sum(diff, axis=1))


def anomaly_score(model: MlpModel, points: np.ndarray,
                  sphere: Hypersphere) -> np.ndarray:
    """s(x) = ||phi(x) - c||, the distance of each row's output to the center."""
    return distance(embed(model, points), sphere)
