"""Minimal dense feed-forward network with exact reverse-mode gradients and Adam.

Everything is float64. A model's parameters are one flat vector, `params`,
in the order W0, b0, W1, b1, ...; its `layers` are (weights, bias) views into
that vector; a gradient, and a checkpoint's `params`, are flat vectors in the
same order. Only `_layout` knows the offsets, computed once per `layer_dims`.
There is one forward pass (`_forward`), one backward pass (`_backward`) and
one Adam update (`_adam_update`), which the training loops also run, in place
on their own copy of `params`. The public `forward`, `backward` and
`adam_step` never mutate their inputs. The tape is the tuple of each layer's
input, one array per layer. Activations follow from position, and no file
names them: hidden layers are ReLU and the last is linear, so hidden layer
i's mask is `tape[i + 1] > 0`, which is z > 0.

Adam (Kingma & Ba, ICLR 2015, section 2) keeps m = b1 m + g and v = b2 v + g^2,
the textbook moments over 1 - b1 and 1 - b2, and folds both bias corrections
into p -= a_t m / (sqrt(v) + eps_t), with k_t = sqrt((1 - b2^t) / (1 - b2)),
a_t = lr (1 - b1) / (1 - b1^t) k_t and eps_t = eps k_t. L2 decay adds
weight_decay * p to g on weights only. Training is bit-reproducible for a
fixed seed at a fixed BLAS thread count; `one_blas_thread` fixes it at one
where the process's OpenBLAS exposes it, so that only the BLAS build moves
the bits.
"""

from __future__ import annotations

import base64
import contextlib
import ctypes
import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SchemaConfig, read_json, replacing
from .errors import ConfigError, DataError, DivergenceError, LobSadError, ShapeError

DEFAULT_DIMS = (20, 100, 100, 100, 20)

CHECKPOINT_VERSION = 3

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass(frozen=True)
class MlpModel:
    params: np.ndarray  # (n_params,) float64, W0, b0, W1, b1, ...
    layer_dims: tuple[int, ...]
    layers: tuple[LayerParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size, slots = _layout(self.layer_dims)
        if self.params.shape != (size,):
            raise ShapeError(f"parameters of shape {self.params.shape} do not fit "
                             f"layer_dims {self.layer_dims}, which need ({size},)")
        object.__setattr__(self, "layers", tuple(
            LayerParams(weights=self.params[w].reshape(shape), bias=self.params[b])
            for w, b, shape in slots))

    def __reduce__(self):
        # pickle the vector alone: stored views would come back as detached copies
        return MlpModel, (self.params, self.layer_dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def n_params(self) -> int:
        return self.params.size

    def validate(self) -> None:
        """Refuse bad dims or non-finite parameters; the size of `params` was
        checked when the model was built."""
        check_layer_dims(self.layer_dims)
        if not np.isfinite(self.params).all():
            raise DataError("non-finite parameters")


@functools.cache
def _layout(dims: tuple[int, ...]) -> tuple[int, tuple[tuple[slice, slice, tuple], ...]]:
    """The size of a flat vector laid out W0, b0, W1, b1, ... and each layer's
    (weight slice, bias slice, weight shape): the one place that knows the offsets."""
    slots, off = [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        end = off + d_out * d_in
        slots.append((slice(off, end), slice(end, end + d_out), (d_out, d_in)))
        off = end + d_out
    return off, tuple(slots)


@dataclass
class AdamState:
    """Moment accumulators over the flat parameter vector. They hold no layout:
    `_adam_update` takes the layer dims to decay weights only."""

    m: np.ndarray  # first moment / (1 - beta1), flat
    v: np.ndarray  # second moment / (1 - beta2), flat
    t: int = 0


def adam_init(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros(model.n_params()), v=np.zeros(model.n_params()))


def check_layer_dims(layer_dims) -> tuple[int, ...]:
    """`layer_dims` as ints, refused unless it has >= 2 entries, each an integer
    >= 1 and not a bool."""
    dims = tuple(layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"layer_dims needs >= 2 entries, got {dims}")
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
               for d in dims):
        raise ConfigError(f"layer dims must be integers >= 1, got {dims}")
    return tuple(int(d) for d in dims)


def mlp_init(seed: int, layer_dims=DEFAULT_DIMS) -> MlpModel:
    """Seeded uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)); zero biases.

    ReLU on every layer except the last, which is linear.
    """
    dims = check_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    arrays = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        arrays += [rng.uniform(-a, a, size=fan_out * fan_in), np.zeros(fan_out)]
    return MlpModel(params=np.concatenate(arrays), layer_dims=dims)


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
              grad_outputs: np.ndarray) -> np.ndarray:
    """The backward pass into one fresh vector laid out like `model.params`;
    each mask goes in place on a fresh `np.dot`."""
    grads = np.empty(model.n_params())
    slots, dz = _layout(model.layer_dims)[1], grad_outputs
    for i in range(len(slots) - 1, -1, -1):
        w, b, shape = slots[i]
        np.dot(dz.T, tape[i], out=grads[w].reshape(shape))
        np.add.reduce(dz, axis=0, out=grads[b])
        if i > 0:  # layer i's input is the output of a ReLU layer
            dz = np.dot(dz, model.layers[i].weights)
            dz *= tape[i] > 0.0
    return grads


def forward(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    return _forward(model, _as_batch(model, batch))


def backward(model: MlpModel, tape: tuple[np.ndarray, ...],
             grad_outputs: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradients of sum_b <grad_outputs_b, outputs_b> w.r.t.
    `model.params`, as one vector in the same layout."""
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    want = (tape[0].shape[0], model.output_dim)
    if grad_outputs.shape != want:
        raise ShapeError(f"grad_outputs {grad_outputs.shape} != outputs {want}")
    return _backward(model, tape, grad_outputs)


def _adam_update(p: np.ndarray, g: np.ndarray, st: AdamState, lr: float,
                 weight_decay: float, dims: tuple[int, ...]) -> None:
    """One Adam update of the flat parameters `p`, laid out for layer dims
    `dims`, in place on `p` and `st`. L2 decay adds `weight_decay * p` to `g`
    on the weight slices only; `g` is used as scratch."""
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradients in adam_step")
    st.t += 1
    if weight_decay:
        for w, _, _ in _layout(dims)[1]:
            g[w] += weight_decay * p[w]
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


def adam_step(model: MlpModel, grads: np.ndarray, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> tuple[MlpModel, AdamState]:
    """One `_adam_update` on copies of the parameters, the moments and `grads`."""
    p = model.params.copy()
    g = np.array(grads, dtype=np.float64)  # a copy: the update uses it as scratch
    if g.shape != p.shape:
        raise ShapeError(f"gradients of shape {g.shape} != parameters {p.shape}")
    new_state = replace(state, m=state.m.copy(), v=state.v.copy())
    _adam_update(p, g, new_state, lr, weight_decay, model.layer_dims)
    return MlpModel(params=p, layer_dims=model.layer_dims), new_state


def set_flat_params(model: MlpModel, flat: np.ndarray) -> MlpModel:
    """A model shaped like `model` with a copy of `flat` as its parameters."""
    return MlpModel(params=np.array(flat, dtype=np.float64), layer_dims=model.layer_dims)


# --- BLAS threads ------------------------------------------------------------

def _openblas() -> tuple | None:
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles, from the process's loaded libraries; None when no loaded
    library exports them (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                get, set_ = (lib.scipy_openblas_get_num_threads64_,
                             lib.scipy_openblas_set_num_threads64_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """The process's OpenBLAS thread count; None when it cannot be read."""
    fns = _openblas()
    return None if fns is None else fns[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread and restore the previous count on
    exit. Yields 1, or None when the count cannot be set; then it does nothing.
    The thread count decides how a matrix product is summed, so results under
    it depend on the BLAS build alone. Forked workers inherit the count."""
    fns = _openblas()
    if fns is None:
        yield None
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)


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
    """Write a trial checkpoint: one version-3 JSON document with the model's
    `layer_dims` and flat `params`, the hypersphere `center`, the normalizer's
    `norm_mean` and `norm_std`, and the `feature_columns` by name. Arrays are
    base64 little-endian float64, so a round trip is bit-exact. Nothing is
    checked here; `load_checkpoint` checks every field."""
    doc = {"version": CHECKPOINT_VERSION, "layer_dims": list(model.layer_dims),
           "params": _encode(model.params), "center": _encode(center),
           "norm_mean": _encode(norm_mean), "norm_std": _encode(norm_std),
           "feature_columns": list(feature_columns)}
    with replacing(path) as fh:
        json.dump(doc, fh)


def _read_checkpoint(doc) -> tuple[MlpModel, dict]:
    """`load_checkpoint` of a parsed document; raises at the first defect."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version!r} is not read" + (
            "; re-run `lobsad run` to write version 3" if version in (1, 2) else ""))
    model = MlpModel(params=_decode(doc["params"]),
                     layer_dims=check_layer_dims(doc["layer_dims"]))
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
    if not isinstance(doc["feature_columns"], list):
        raise TypeError("feature_columns is not a list of column names")
    cols = SchemaConfig(tuple(doc["feature_columns"])).feature_columns  # known names
    if len(cols) != model.input_dim:
        raise ValueError(f"feature_columns names {len(cols)} columns for "
                         f"{model.input_dim} model inputs")
    return model, meta | {"feature_columns": cols}


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a trial checkpoint written by `save_checkpoint`.

    Returns (model, meta); meta holds exactly `center`, `norm_mean` and
    `norm_std` as float64 arrays and `feature_columns` as a tuple of names.
    Every field is checked against the model first: a file that is not JSON,
    a missing or mistyped field, a shape that does not fit the model, a
    non-finite value, `norm_std` <= 0, columns other than one known name per
    input, or a version other than 3 raises ConfigError naming `path`.
    """
    doc = read_json(path)  # its errors name `path` already
    try:
        return _read_checkpoint(doc)
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint lacks field {exc}") from None
    except (TypeError, ValueError, LobSadError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
