"""Minimal dense feed-forward network with exact reverse-mode gradients and Adam.

Everything is float64. There is one forward pass (`_forward`), one backward
pass (`_backward`) and one Adam update (`_adam_update`). The passes always
allocate fresh arrays; the public `forward`, `backward` and `adam_step`
never mutate their inputs. The training loops run the same passes, and
`_FusedTrainer` keeps their parameters and Adam moments in flat vectors that
`_adam_update` changes in place. Training is bit-reproducible for a fixed
seed in single-threaded mode.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, ShapeError

DEFAULT_DIMS = (20, 100, 100, 100, 20)

CHECKPOINT_VERSION = 1

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "relu" | "linear"


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
        if len(self.layer_dims) < 2:
            raise ConfigError("need at least 2 layer dims")
        for i, lp in enumerate(self.layers):
            d_out, d_in = self.layer_dims[i + 1], self.layer_dims[i]
            if lp.weights.shape != (d_out, d_in):
                raise ShapeError(
                    f"layer {i}: weights {lp.weights.shape} != ({d_out}, {d_in})"
                )
            if lp.bias.shape != (d_out,):
                raise ShapeError(f"layer {i}: bias {lp.bias.shape} != ({d_out},)")
            want = _activation(i, len(self.layers))
            if lp.activation != want:
                raise ConfigError(f"layer {i}: activation {lp.activation!r}, "
                                  f"expected {want!r}")
            if not (np.isfinite(lp.weights).all() and np.isfinite(lp.bias).all()):
                raise DataError(f"layer {i}: non-finite parameters")


def _activation(i: int, n_layers: int) -> str:
    """ReLU on every layer except the last, which is linear."""
    return "linear" if i == n_layers - 1 else "relu"


@dataclass(frozen=True)
class Gradients:
    """Per-layer (dW, db) pairs, shape-congruent with the model."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class ForwardTape:
    """Per-layer inputs and pre-activations recorded by `forward`."""

    inputs: tuple[np.ndarray, ...]  # input to each layer, (B, d_in_layer)
    preacts: tuple[np.ndarray, ...]  # z = x W^T + b per layer, (B, d_out_layer)


@dataclass
class AdamState:
    """Moment accumulators over the flattened parameter vector.

    `decay_mask` is 1 on weight-matrix entries and 0 on biases so L2 decay
    never touches biases.
    """

    m: np.ndarray  # first moments, flat
    v: np.ndarray  # second moments, flat
    decay_mask: np.ndarray
    t: int = 0


def adam_init(model: MlpModel) -> AdamState:
    n = model.n_params()
    mask_parts = []
    for lp in model.layers:
        mask_parts.append(np.ones(lp.weights.size))
        mask_parts.append(np.zeros(lp.bias.size))
    return AdamState(m=np.zeros(n), v=np.zeros(n),
                     decay_mask=np.concatenate(mask_parts), t=0)


def mlp_init(seed: int, layer_dims=DEFAULT_DIMS) -> MlpModel:
    """Seeded uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)); zero biases.

    ReLU on every layer except the last, which is linear.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"layer_dims needs >= 2 entries, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    n_layers = len(dims) - 1
    for i in range(n_layers):
        fan_in, fan_out = dims[i], dims[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_out, fan_in))
        layers.append(LayerParams(weights=w, bias=np.zeros(fan_out),
                                  activation=_activation(i, n_layers)))
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


def _forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """The forward pass, on fresh arrays."""
    inputs, preacts = [], []
    h = x
    for lp in model.layers:
        inputs.append(h)
        z = np.dot(h, lp.weights.T)
        z += lp.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if lp.activation == "relu" else z
    return h, ForwardTape(inputs=tuple(inputs), preacts=tuple(preacts))


def _backward(model: MlpModel, tape: ForwardTape, grad_outputs: np.ndarray) -> Gradients:
    """The backward pass, on fresh arrays."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)
    delta = grad_outputs
    for i in range(len(model.layers) - 1, -1, -1):
        lp = model.layers[i]
        dz = delta * (tape.preacts[i] > 0.0) if lp.activation == "relu" else delta
        grads[i] = (np.dot(dz.T, tape.inputs[i]), np.sum(dz, axis=0))
        if i > 0:
            delta = np.dot(dz, lp.weights)
    return Gradients(layers=tuple(grads))


def forward(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    return _forward(model, _as_batch(model, batch))


def backward(model: MlpModel, tape: ForwardTape, grad_outputs: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of sum_b <grad_outputs_b, outputs_b> w.r.t. params."""
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != tape.preacts[-1].shape:
        raise ShapeError(
            f"grad_outputs {grad_outputs.shape} != outputs {tape.preacts[-1].shape}"
        )
    return _backward(model, tape, grad_outputs)


def _adam_update(p: np.ndarray, g: np.ndarray, st: AdamState, lr: float,
                 weight_decay: float = 0.0, scratch=None) -> None:
    """One Adam update of the flat parameters `p`, in place on `p` and `st`.

    L2 decay is added to `g` (in place) on weights only, not biases.
    `scratch` is a pair of arrays shaped like `p`, allocated when omitted.
    """
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradients in adam_step")
    s1, s2 = scratch if scratch is not None else (np.empty_like(p), np.empty_like(p))
    st.t += 1
    if weight_decay:
        np.multiply(st.decay_mask, p, out=s1)
        s1 *= weight_decay
        g += s1
    np.multiply(st.m, ADAM_BETA1, out=st.m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
    st.m += s1
    np.multiply(st.v, ADAM_BETA2, out=st.v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
    s1 *= g
    st.v += s1
    np.divide(st.m, 1.0 - ADAM_BETA1 ** st.t, out=s1)
    np.divide(st.v, 1.0 - ADAM_BETA2 ** st.t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    s1 *= lr
    p -= s1


def adam_step(model: MlpModel, grads: Gradients, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> tuple[MlpModel, AdamState]:
    """One `_adam_update` on copies of the parameters and the moments."""
    p = get_flat_params(model)
    new_state = replace(state, m=state.m.copy(), v=state.v.copy())
    _adam_update(p, flatten_grads(grads), new_state, lr, weight_decay)
    return _view(model, p), new_state


# --- flat parameter vectors and views ----------------------------------------

def get_flat_params(model: MlpModel) -> np.ndarray:
    parts = []
    for lp in model.layers:
        parts.append(lp.weights.ravel())
        parts.append(lp.bias.ravel())
    return np.concatenate(parts)


def _view(model: MlpModel, flat: np.ndarray) -> MlpModel:
    """A model shaped like `model` whose arrays are views into `flat`."""
    layers, off = [], 0
    for lp in model.layers:
        nw, nb = lp.weights.size, lp.bias.size
        w = flat[off:off + nw].reshape(lp.weights.shape)
        off += nw
        layers.append(LayerParams(weights=w, bias=flat[off:off + nb],
                                  activation=lp.activation))
        off += nb
    return MlpModel(layers=tuple(layers), layer_dims=model.layer_dims)


def set_flat_params(model: MlpModel, flat: np.ndarray) -> MlpModel:
    flat = np.array(flat, dtype=np.float64)  # a copy: the model owns its data
    if flat.size != model.n_params():
        raise ShapeError(f"flat size {flat.size} != n_params {model.n_params()}")
    return _view(model, flat)


def flatten_grads(grads: Gradients) -> np.ndarray:
    parts = []
    for gw, gb in grads.layers:
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


class _FusedTrainer:
    """State of a training loop: the flat parameter vector with a model whose
    arrays view it, the Adam moments, and the update's scratch pair.

    A step runs the same `_forward` and `_backward` as the public functions on
    `self.model`, then `adam_apply`, which updates the flat vector in place, so
    no step rebuilds a model. Not part of the public API.
    """

    def __init__(self, model: MlpModel):
        model.validate()
        self.p = get_flat_params(model)
        self.model = _view(model, self.p)
        self.state = adam_init(model)
        self._scratch = (np.empty(self.p.size), np.empty(self.p.size))

    def snapshot(self) -> MlpModel:
        """Detached copy of the current parameters."""
        return set_flat_params(self.model, self.p)

    def adam_apply(self, grads: Gradients, lr: float, weight_decay: float = 0.0) -> None:
        """One Adam update from the gradients of the current parameters."""
        _adam_update(self.p, flatten_grads(grads), self.state, lr, weight_decay,
                     self._scratch)


# --- checkpoints -------------------------------------------------------------

def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def save_checkpoint(model: MlpModel, path, seed: int | None = None,
                    extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; f64 round-trips are bit-exact.

    `extra` may hold additional named arrays (e.g. hypersphere center,
    normalizer statistics) alongside the model parameters.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_dims": list(model.layer_dims),
        "bias_enabled": True,  # read back only to refuse bias-free checkpoints
        "seed": seed,
        "layers": [
            {"weights": _encode(lp.weights), "bias": _encode(lp.bias),
             "activation": lp.activation}
            for lp in model.layers
        ],
        "extra": {k: _encode(np.asarray(v)) for k, v in (extra or {}).items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a checkpoint; returns (model, meta) where meta has seed and extras."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("bias_enabled") is not True:
        raise ConfigError(f"{path}: only checkpoints with biases are supported, "
                          f"got bias_enabled={doc.get('bias_enabled')!r}")
    layers = tuple(
        LayerParams(weights=_decode(l["weights"]), bias=_decode(l["bias"]),
                    activation=l["activation"])
        for l in doc["layers"]
    )
    model = MlpModel(layers=layers, layer_dims=tuple(doc["layer_dims"]))
    model.validate()
    meta = {"seed": doc.get("seed"),
            "extra": {k: _decode(v) for k, v in doc.get("extra", {}).items()}}
    return model, meta
