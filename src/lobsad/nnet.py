"""Minimal dense feed-forward network with exact reverse-mode gradients and Adam.

Everything is float64. There is one forward pass (`_forward`), one backward
pass (`_backward`) and one Adam update (`_adam_update`), which the training
loops also run, on `_FusedTrainer`'s flat parameter vector. The public
`forward`, `backward` and `adam_step` never mutate their inputs. The tape is
the tuple of each layer's input, one array per layer. Activations follow from
position: hidden layers are ReLU and the last is linear, so hidden layer i's
mask is `tape[i + 1] > 0`, which is z > 0.

Adam (Kingma & Ba, ICLR 2015, section 2) keeps m = b1 m + g and v = b2 v + g^2,
the textbook moments over 1 - b1 and 1 - b2, and folds both bias corrections
into p -= a_t m / (sqrt(v) + eps_t), with k_t = sqrt((1 - b2^t) / (1 - b2)),
a_t = lr (1 - b1) / (1 - b1^t) k_t and eps_t = eps k_t. L2 decay adds
weight_decay * p to g on weights only. Training is bit-reproducible for a
fixed seed at a fixed BLAS thread count.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, LobSadError, ShapeError

DEFAULT_DIMS = (20, 100, 100, 100, 20)

CHECKPOINT_VERSION = 2

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass(frozen=True)
class MlpModel:
    layers: tuple[LayerParams, ...]
    layer_dims: tuple[int, ...]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def n_params(self) -> int:
        return sum(lp.weights.size + lp.bias.size for lp in self.layers)

    def validate(self) -> None:
        check_layer_dims(self.layer_dims)
        if len(self.layer_dims) != len(self.layers) + 1:
            raise ShapeError(f"layer_dims {self.layer_dims} does not fit "
                             f"{len(self.layers)} layers: it needs "
                             f"{len(self.layers) + 1} entries")
        for i, lp in enumerate(self.layers):
            d_out, d_in = self.layer_dims[i + 1], self.layer_dims[i]
            if lp.weights.shape != (d_out, d_in):
                raise ShapeError(
                    f"layer {i}: weights {lp.weights.shape} != ({d_out}, {d_in})"
                )
            if lp.bias.shape != (d_out,):
                raise ShapeError(f"layer {i}: bias {lp.bias.shape} != ({d_out},)")
            if not (np.isfinite(lp.weights).all() and np.isfinite(lp.bias).all()):
                raise DataError(f"layer {i}: non-finite parameters")


def _activation(i: int, n_layers: int) -> str:
    """ReLU on every layer except the last, which is linear: the checkpoint's
    name for what `_forward` does at position i."""
    return "linear" if i == n_layers - 1 else "relu"


@dataclass(frozen=True)
class Gradients:
    """Per-layer (dW, db) pairs, shape-congruent with the model."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass
class AdamState:
    """Moment accumulators over the flattened parameter vector.

    `decay_mask` is 1 on weight-matrix entries and 0 on biases so L2 decay
    never touches biases.
    """

    m: np.ndarray  # first moment / (1 - beta1), flat
    v: np.ndarray  # second moment / (1 - beta2), flat
    decay_mask: np.ndarray
    t: int = 0


def adam_init(model: MlpModel) -> AdamState:
    mask = _flatten((np.ones(lp.weights.size), np.zeros(lp.bias.size))
                    for lp in model.layers)
    return AdamState(m=np.zeros(mask.size), v=np.zeros(mask.size), decay_mask=mask)


def check_layer_dims(layer_dims) -> tuple[int, ...]:
    """`layer_dims` as ints, refused unless it has >= 2 entries, each an integer >= 1."""
    dims = tuple(layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"layer_dims needs >= 2 entries, got {dims}")
    if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in dims):
        raise ConfigError(f"layer dims must be integers >= 1, got {dims}")
    return tuple(int(d) for d in dims)


def mlp_init(seed: int, layer_dims=DEFAULT_DIMS) -> MlpModel:
    """Seeded uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)); zero biases.

    ReLU on every layer except the last, which is linear.
    """
    dims = check_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_out, fan_in))
        layers.append(LayerParams(weights=w, bias=np.zeros(fan_out)))
    return MlpModel(layers=tuple(layers), layer_dims=dims)


def _as_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """`batch` as float64 after checking its shape and finiteness."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with input dim {model.input_dim}"
        )
    if not np.isfinite(batch).all():
        raise DataError("non-finite values in forward input")
    return batch


def _forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The forward pass and its tape; bias and ReLU go in place on each fresh
    `np.dot`, and every layer but the last is ReLU."""
    inputs = []
    h = x
    for lp in model.layers:
        if inputs:  # h is a hidden layer's output
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
        h = np.dot(h, lp.weights.T)
        h += lp.bias
    return h, tuple(inputs)


def _backward(model: MlpModel, tape: tuple[np.ndarray, ...],
              grad_outputs: np.ndarray) -> Gradients:
    """The backward pass; each mask goes in place on a fresh `np.dot`."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)
    dz = grad_outputs
    for i in range(len(model.layers) - 1, -1, -1):
        grads[i] = (np.dot(dz.T, tape[i]), np.sum(dz, axis=0))
        if i > 0:  # layer i's input is the output of a ReLU layer
            dz = np.dot(dz, model.layers[i].weights)
            dz *= tape[i] > 0.0
    return Gradients(layers=tuple(grads))


def forward(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    return _forward(model, _as_batch(model, batch))


def backward(model: MlpModel, tape: tuple[np.ndarray, ...],
             grad_outputs: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of sum_b <grad_outputs_b, outputs_b> w.r.t. params."""
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    want = (tape[0].shape[0], model.output_dim)
    if grad_outputs.shape != want:
        raise ShapeError(f"grad_outputs {grad_outputs.shape} != outputs {want}")
    return _backward(model, tape, grad_outputs)


def _adam_update(p: np.ndarray, g: np.ndarray, st: AdamState, lr: float,
                 decay: np.ndarray | None) -> None:
    """One Adam update of the flat parameters `p`, in place on `p` and `st`.
    `decay` is `weight_decay * st.decay_mask`, or None; `g` is used as scratch."""
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradients in adam_step")
    st.t += 1
    if decay is not None:
        g += decay * p
    st.m *= ADAM_BETA1
    st.m += g
    st.v *= ADAM_BETA2
    np.multiply(g, g, out=g)
    st.v += g
    k = math.sqrt((1.0 - ADAM_BETA2 ** st.t) / (1.0 - ADAM_BETA2))
    np.sqrt(st.v, out=g)
    g += ADAM_EPS * k
    np.divide(st.m, g, out=g)
    g *= lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1 ** st.t) * k
    p -= g


def adam_step(model: MlpModel, grads: Gradients, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> tuple[MlpModel, AdamState]:
    """One `_adam_update` on copies of the parameters and the moments."""
    p = get_flat_params(model)
    new_state = replace(state, m=state.m.copy(), v=state.v.copy())
    decay = weight_decay * state.decay_mask if weight_decay else None
    _adam_update(p, flatten_grads(grads), new_state, lr, decay)
    return _view(model, p), new_state


# --- flat parameter vectors and views ----------------------------------------

def _flatten(pairs) -> np.ndarray:
    """Per-layer (weights, bias)-shaped pairs as one vector in parameter order."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


def get_flat_params(model: MlpModel) -> np.ndarray:
    return _flatten((lp.weights, lp.bias) for lp in model.layers)


def _view(model: MlpModel, flat: np.ndarray) -> MlpModel:
    """A model shaped like `model` whose arrays are views into `flat`."""
    layers, off = [], 0
    for lp in model.layers:
        nw, nb = lp.weights.size, lp.bias.size
        w = flat[off:off + nw].reshape(lp.weights.shape)
        off += nw
        layers.append(LayerParams(weights=w, bias=flat[off:off + nb]))
        off += nb
    return MlpModel(layers=tuple(layers), layer_dims=model.layer_dims)


def set_flat_params(model: MlpModel, flat: np.ndarray) -> MlpModel:
    flat = np.array(flat, dtype=np.float64)  # a copy: the model owns its data
    if flat.size != model.n_params():
        raise ShapeError(f"flat size {flat.size} != n_params {model.n_params()}")
    return _view(model, flat)


def flatten_grads(grads: Gradients) -> np.ndarray:
    return _flatten(grads.layers)


class _FusedTrainer:
    """State of a training loop: the flat parameter vector with a model whose
    arrays view it, the Adam moments, and the weight-decay vector.

    A step runs the same `_forward` and `_backward` as the public functions on
    `self.model`, then `adam_apply`, which updates the flat vector in place, so
    no step rebuilds a model. Not part of the public API.
    """

    def __init__(self, model: MlpModel, weight_decay: float):
        model.validate()
        self.p = get_flat_params(model)
        self.model = _view(model, self.p)
        self.state = adam_init(model)
        self.decay = weight_decay * self.state.decay_mask if weight_decay else None

    def snapshot(self) -> MlpModel:
        """Detached copy of the current parameters."""
        return set_flat_params(self.model, self.p)

    def adam_apply(self, grads: Gradients, lr: float) -> None:
        """One Adam update from the gradients of the current parameters."""
        _adam_update(self.p, flatten_grads(grads), self.state, lr, self.decay)


# --- checkpoints -------------------------------------------------------------

def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def save_checkpoint(model: MlpModel, path, *, center, norm_mean, norm_std,
                    feature_columns) -> None:
    """Write a trial checkpoint: one version-2 JSON document with the model's
    `layer_dims` and `layers`, the hypersphere `center`, the normalizer's
    `norm_mean` and `norm_std`, and the `feature_columns` by name. Arrays are
    base64 little-endian float64, so a round trip is bit-exact. Nothing is
    checked here; `load_checkpoint` checks every field."""
    doc = {"version": CHECKPOINT_VERSION, "layer_dims": list(model.layer_dims),
           "layers": [{"weights": _encode(lp.weights), "bias": _encode(lp.bias),
                       "activation": _activation(i, len(model.layers))}
                      for i, lp in enumerate(model.layers)],
           "center": _encode(center), "norm_mean": _encode(norm_mean),
           "norm_std": _encode(norm_std), "feature_columns": list(feature_columns)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_checkpoint(doc) -> tuple[MlpModel, dict]:
    """`load_checkpoint` of a parsed document; raises at the first defect."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version!r} is not read" + (
            "; re-run `lobsad run` to write version 2" if version == 1 else ""))
    layers = doc["layers"]
    for i, l in enumerate(layers):  # `_forward` knows only ReLU, then a linear last layer
        want = _activation(i, len(layers))
        if l["activation"] != want:
            raise ConfigError(f"layer {i}: activation {l['activation']!r}, expected {want!r}")
    model = MlpModel(layers=tuple(LayerParams(_decode(l["weights"]), _decode(l["bias"]))
                                  for l in layers), layer_dims=tuple(doc["layer_dims"]))
    model.validate()
    meta = {}
    for key, width in (("center", model.output_dim), ("norm_mean", model.input_dim),
                       ("norm_std", model.input_dim)):
        meta[key] = a = _decode(doc[key])
        if a.shape != (width,):
            raise ValueError(f"{key} has shape {a.shape}, the model needs ({width},)")
        if not np.isfinite(a).all():
            raise ValueError(f"{key} has non-finite values")
    if not (meta["norm_std"] > 0).all():
        raise ValueError("norm_std has values <= 0")
    cols = doc["feature_columns"]
    if not (isinstance(cols, list) and all(isinstance(c, str) for c in cols)):
        raise TypeError("feature_columns is not a list of column names")
    if len(cols) != model.input_dim:
        raise ValueError(f"feature_columns names {len(cols)} columns for "
                         f"{model.input_dim} model inputs")
    return model, meta | {"feature_columns": tuple(cols)}


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a trial checkpoint written by `save_checkpoint`.

    Returns (model, meta); meta holds exactly `center`, `norm_mean` and
    `norm_std` as float64 arrays and `feature_columns` as a tuple of names.
    Every field is checked against the model first: a file that is not JSON,
    a missing or mistyped field, a shape that does not fit the model, a
    non-finite value, `norm_std` <= 0, a column count other than the input
    width, or a version other than 2 raises ConfigError naming `path`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_checkpoint(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint lacks field {exc}") from None
    except (TypeError, ValueError, LobSadError) as exc:  # incl. UnicodeDecodeError
        raise ConfigError(f"{path}: {exc}") from None
