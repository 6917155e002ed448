import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    finite_difference_grad,
    identity_model,
    relative_error,
    sample_safe_model_batch,
)
from lobsad import data, nnet
from lobsad.errors import ConfigError, DataError, DivergenceError, ShapeError

# Output of the seed-7 default net on cos(0..19), recomputed once with a
# straight-line python-loop re-implementation of the same arithmetic.
PINNED_FORWARD_SEED7 = np.array([
    0.11481385875712485, -0.31906117048016946, 0.00526726145648056,
    -0.14249119597324383, 0.07367814174618834, -0.3050236265867032,
    0.34535193450775803, 0.01702252381581279, 0.4093873284963494,
    0.37490481426460687, 0.1446047334448251, 0.1605043011426679,
    0.09571933044709133, 0.02095662371247733, -0.12891335760024036,
    -0.20151641900103032, -0.16665578224184624, 0.11883508506365552,
    0.1356265472494722, -0.00664119302548855,
])


class TestInit:
    def test_default_architecture_shapes(self):
        model = nnet.mlp_init(7, (20, 100, 100, 100, 20))
        shapes = [lp.weights.shape for lp in model.layers]
        assert shapes == [(100, 20), (100, 100), (100, 100), (20, 100)]
        assert model.input_dim == 20 and model.output_dim == 20

    def test_deterministic(self):
        a, b = nnet.mlp_init(7), nnet.mlp_init(7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_seed_changes_weights(self):
        a, b = nnet.mlp_init(7), nnet.mlp_init(8)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_init_scale(self):
        model = nnet.mlp_init(0, (20, 100))
        a = np.sqrt(6.0 / 120)
        w = model.layers[0].weights
        assert np.abs(w).max() <= a
        assert np.all(model.layers[0].bias == 0)

    def test_identity_single_layer(self):
        model = identity_model(3)
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = nnet.forward(model, x)
        assert np.array_equal(out, x)

    def test_pickle_keeps_layers_viewing_params(self):
        # worker processes send models back by pickle
        model = nnet.mlp_init(5, (4, 6, 3))
        copy = pickle.loads(pickle.dumps(model))
        assert np.array_equal(copy.params, model.params)
        for lp in copy.layers:
            assert np.shares_memory(lp.weights, copy.params)
            assert np.shares_memory(lp.bias, copy.params)
        copy.params[:] = 0.0
        assert all(not lp.weights.any() and not lp.bias.any() for lp in copy.layers)

    @pytest.mark.parametrize("dims", [(), (5,), (3, 0, 2), (3, -1), (3, True, 2)])
    def test_bad_dims(self, dims):
        with pytest.raises(ConfigError):
            nnet.mlp_init(0, dims)

    @pytest.mark.parametrize("dims", [(20, 12, 20, 5), (20, 12)])
    def test_layer_dims_must_match_layer_count(self, dims):
        # the parameters of a (20, 12, 20) net fit no other dims
        with pytest.raises(ShapeError, match=r"do not fit layer_dims .*need"):
            dataclasses.replace(nnet.mlp_init(1, (20, 12, 20)), layer_dims=dims)


class TestForward:
    def test_zero_params_zero_output(self, rng):
        model = nnet.mlp_init(0, (4, 6, 3))
        model = nnet.set_flat_params(model, np.zeros(model.n_params()))
        out, _ = nnet.forward(model, rng.normal(size=(5, 4)))
        assert np.all(out == 0)

    def test_single_linear_layer_doubling(self):
        model = nnet.mlp_init(0, (2, 2))
        flat = np.concatenate([(2.0 * np.eye(2)).ravel(), np.zeros(2)])
        model = nnet.set_flat_params(model, flat)
        out, _ = nnet.forward(model, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[2.0, 4.0]])

    def test_pinned_value_against_reimplementation(self):
        model = nnet.mlp_init(7)
        x = np.cos(np.arange(20.0))
        out, _ = nnet.forward(model, x[None, :])
        # live oracle: same arithmetic, straight-line per-row loops
        h = x.copy()
        for i, lp in enumerate(model.layers):
            z = np.array([lp.weights[r] @ h + lp.bias[r]
                          for r in range(lp.weights.shape[0])])
            h = np.maximum(z, 0.0) if i < len(model.layers) - 1 else z
        assert np.allclose(out[0], h, rtol=0, atol=1e-12)
        assert np.allclose(out[0], PINNED_FORWARD_SEED7, rtol=0, atol=1e-12)

    def test_pure_and_deterministic(self, rng):
        model = nnet.mlp_init(3, (6, 8, 2))
        x = rng.normal(size=(7, 6))
        o1, _ = nnet.forward(model, x)
        o2, _ = nnet.forward(model, x)
        assert np.array_equal(o1, o2)

    def test_shape_error(self):
        model = nnet.mlp_init(0, (4, 3))
        with pytest.raises(ShapeError):
            nnet.forward(model, np.zeros((2, 5)))

    def test_nonfinite_input(self):
        model = nnet.mlp_init(0, (2, 2))
        with pytest.raises(DataError):
            nnet.forward(model, np.array([[1.0, np.nan]]))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hidden_activations_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        model = nnet.mlp_init(seed, (5, 7, 7, 3))
        _, tape = nnet.forward(model, r.normal(size=(6, 5)))
        # post-activation inputs of layers 1.. are the hidden activations
        for h in tape[1:]:
            assert np.all(h >= 0)


class TestBackward:
    def test_zero_grad_outputs(self, rng):
        model = nnet.mlp_init(1, (4, 5, 3))
        x = rng.normal(size=(6, 4))
        out, tape = nnet.forward(model, x)
        grads = nnet.backward(model, tape, np.zeros_like(out))
        assert np.all(grads == 0)

    def test_linear_layer_outer_product(self):
        # L = sum of outputs of a single linear layer: dL/dW[r, c] = sum_b x[b, c]
        model = nnet.mlp_init(0, (3, 2))
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out, tape = nnet.forward(model, x)
        grads = nnet.backward(model, tape, np.ones_like(out))
        expected = np.tile(x.sum(axis=0), (2, 1))
        (layer,) = nnet.set_flat_params(model, grads).layers
        assert np.allclose(layer.weights, expected)
        assert np.allclose(layer.bias, [2.0, 2.0])

    def test_finite_difference_4_5_3(self, rng):
        model, x = sample_safe_model_batch(rng, (4, 5, 3))
        target = rng.normal(size=(x.shape[0], 3))

        def loss(m):
            out, _ = nnet.forward(m, x)
            return float(np.sum((out - target) ** 2))

        out, tape = nnet.forward(model, x)
        analytic = nnet.backward(model, tape, 2 * (out - target))
        fd = finite_difference_grad(loss, model)
        assert relative_error(analytic, fd) < 1e-5

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_gradient_check_random_models(self, seed):
        r = np.random.default_rng(seed)
        dims = tuple(int(d) for d in r.integers(2, 9, size=int(r.integers(2, 5))))
        model, x = sample_safe_model_batch(r, dims, batch_rows=3)
        w = r.normal(size=(x.shape[0], dims[-1]))  # fixed linear readout weights

        def loss(m):
            out, _ = nnet.forward(m, x)
            return float(np.sum(w * out))

        _, tape = nnet.forward(model, x)
        analytic = nnet.backward(model, tape, w)
        fd = finite_difference_grad(loss, model)
        assert relative_error(analytic, fd) < 1e-5

    def test_shape_mismatch(self, rng):
        model = nnet.mlp_init(1, (4, 3))
        _, tape = nnet.forward(model, rng.normal(size=(2, 4)))
        with pytest.raises(ShapeError):
            nnet.backward(model, tape, np.zeros((2, 5)))


def reference_forward_backward(model, x, grad_out):
    """Reference passes that keep every pre-activation z and take each ReLU
    mask from z > 0 rather than from the next layer's input."""
    inputs, preacts, h = [], [], x
    last = len(model.layers) - 1  # hidden layers are ReLU, the last is linear
    for i, lp in enumerate(model.layers):
        inputs.append(h)
        z = np.dot(h, lp.weights.T)
        z += lp.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < last else z
    grads, delta = [None] * len(model.layers), grad_out
    for i in range(last, -1, -1):
        lp = model.layers[i]
        dz = delta * (preacts[i] > 0.0) if i < last else delta
        grads[i] = (np.dot(dz.T, inputs[i]), np.sum(dz, axis=0))
        if i > 0:
            delta = np.dot(dz, lp.weights)
    return h, grads


class TestTapeOracle:
    @pytest.mark.parametrize("dims", [(5, 7, 7, 3), nnet.DEFAULT_DIMS],
                             ids=["5-7-7-3", "default"])
    @pytest.mark.parametrize("rows", [1, 64, 1024])
    def test_passes_equal_preactivation_reference(self, rng, dims, rows):
        model = nnet.mlp_init(int(rng.integers(2**31)), dims)
        x = rng.normal(size=(rows, dims[0]))
        grad_out = rng.normal(size=(rows, dims[-1]))
        ref_out, ref_grads = reference_forward_backward(model, x, grad_out)
        out, tape = nnet.forward(model, x)
        grads = nnet.backward(model, tape, grad_out)
        assert np.array_equal(out, ref_out)
        for g, (rw, rb) in zip(nnet.set_flat_params(model, grads).layers, ref_grads,
                               strict=True):
            assert np.array_equal(g.weights, rw) and np.array_equal(g.bias, rb)
        assert len(tape) == len(model.layers)


class TestAdam:
    def _grads_like(self, model, fill=0.0):
        return np.full(model.n_params(), fill)

    def test_zero_grad_no_decay_unchanged(self):
        model = nnet.mlp_init(2, (3, 4, 2))
        state = nnet.adam_init(model)
        new, state2 = nnet.adam_step(model, self._grads_like(model), state,
                                     lr=0.1, weight_decay=0.0)
        assert np.array_equal(new.params, model.params)
        assert state2.t == 1

    def test_first_step_closed_form(self, rng):
        # from zero moments: update = -lr * g / (|g| + eps') with the bias
        # corrections folded in; eps enters through sqrt(v_hat) + eps
        model = nnet.mlp_init(2, (3, 4, 2))
        state = nnet.adam_init(model)
        g = rng.normal(size=model.n_params())
        lr, eps = 0.01, nnet.ADAM_EPS
        new, _ = nnet.adam_step(model, g, state, lr=lr, weight_decay=0.0)
        expected = model.params - lr * g / (np.abs(g) + eps)
        assert np.allclose(new.params, expected, atol=1e-12)

    def test_decay_only_shrinks_weights_not_biases(self):
        model = nnet.mlp_init(2, (3, 3))
        flat = np.concatenate([np.full(9, 2.0), np.full(3, 5.0)])
        model = nnet.set_flat_params(model, flat)
        state = nnet.adam_init(model)
        new, _ = nnet.adam_step(model, self._grads_like(model), state,
                                lr=0.01, weight_decay=0.1)
        assert np.all(new.layers[0].weights < 2.0)
        assert np.all(new.layers[0].weights > 0.0)
        assert np.array_equal(new.layers[0].bias, model.layers[0].bias)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lr_zero_is_identity(self, seed):
        r = np.random.default_rng(seed)
        model = nnet.mlp_init(seed, (3, 4, 2))
        state = nnet.adam_init(model)
        g = r.normal(size=model.n_params())
        new, st2 = nnet.adam_step(model, g, state, lr=0.0, weight_decay=0.5)
        assert np.array_equal(new.params, model.params)
        assert st2.t == state.t + 1

    def test_matches_textbook_adam(self, rng):
        # Kingma & Ba, Algorithm 1, with bias-corrected moments and L2 decay
        # on weights only; the folded update may differ by rounding alone
        model = nnet.mlp_init(2, (3, 4, 2))
        is_weight = np.concatenate([np.full(a.size, i % 2 == 0) for lp in model.layers
                                    for i, a in enumerate((lp.weights, lp.bias))])
        lr, wd, b1, b2, eps = 1e-2, 0.1, 0.9, 0.999, 1e-8
        p = model.params
        m, v = np.zeros(p.size), np.zeros(p.size)
        state = nnet.adam_init(model)
        for t in range(1, 201):
            g = rng.normal(size=p.size)
            model, state = nnet.adam_step(model, g, state, lr=lr, weight_decay=wd)
            g = g + wd * p * is_weight
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m / (1 - b1 ** t), v / (1 - b2 ** t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(model.params, p, rtol=1e-12, atol=0)
        assert state.t == 200

    @pytest.mark.parametrize("dims", [(3, 4, 2), (5, 7, 7, 3)])
    def test_decay_bitwise_equal_to_mask_reference(self, rng, dims):
        # the update with decay as `g + (wd * mask) * p`, mask 1 on weights and
        # 0 on biases; elementwise numpy only, so the bits hold on every build.
        # Some bias gradients are exactly +0.0 and some -0.0: a masked bias
        # term, 0.0 * p, may flip such a zero's sign, and that sign must never
        # reach the parameters
        model = nnet.mlp_init(3, dims)
        mask = np.concatenate([np.full(n, float(i % 2 == 0)) for lp in model.layers
                               for i, n in enumerate((lp.weights.size, lp.bias.size))])
        bias = np.flatnonzero(mask == 0.0)
        lr, wd, b1, b2, eps = 1e-2, 0.3, nnet.ADAM_BETA1, nnet.ADAM_BETA2, nnet.ADAM_EPS
        p = model.params.copy()
        m, v = np.zeros(p.size), np.zeros(p.size)
        state = nnet.adam_init(model)
        for t in range(1, 251):
            g = rng.normal(size=p.size)
            pick = rng.permutation(bias)[:bias.size // 2]
            g[pick] = np.where(rng.random(pick.size) < 0.5, 0.0, -0.0)
            model, state = nnet.adam_step(model, g, state, lr=lr, weight_decay=wd)
            g = g + (wd * mask) * p
            m = b1 * m + g
            v = b2 * v + g * g
            k = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
            p = p - (m / (np.sqrt(v) + eps * k)) * (lr * (1.0 - b1) / (1.0 - b1 ** t) * k)
            assert model.params.tobytes() == p.tobytes(), f"step {t}"
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert (p[bias] < 0).any() and (p[bias] > 0).any()  # 0.0 * p took both signs

    def test_inputs_unchanged(self, rng):
        # `_adam_update` uses the gradient vector as scratch space
        model = nnet.mlp_init(2, (3, 4, 2))
        _, state = nnet.adam_step(model, rng.normal(size=model.n_params()),
                                  nnet.adam_init(model), lr=0.1)
        g = rng.normal(size=model.n_params())
        before = [a.copy() for a in (model.params, state.m, state.v, g)]
        nnet.adam_step(model, g, state, lr=0.1, weight_decay=0.5)
        after = (model.params, state.m, state.v, g)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert state.t == 1

    @pytest.mark.parametrize("size", [0, 1, 25])
    def test_gradient_size_checked(self, size):
        # a gradient vector of another size must not broadcast into the update
        model = nnet.mlp_init(2, (3, 4, 2))  # 26 parameters
        with pytest.raises(ShapeError, match="gradients of shape"):
            nnet.adam_step(model, np.ones(size), nnet.adam_init(model), lr=0.1)

    def test_nonfinite_grads_raise(self):
        model = nnet.mlp_init(2, (3, 3))
        grads = self._grads_like(model, fill=np.nan)
        with pytest.raises(DivergenceError):
            nnet.adam_step(model, grads, nnet.adam_init(model), lr=0.1)


def save_trial_checkpoint(model, path, rng, **fields):
    """A trial checkpoint of `model` with random fields; `fields` override them."""
    fields = {"center": rng.normal(size=model.output_dim),
              "norm_mean": rng.normal(size=model.input_dim),
              "norm_std": rng.uniform(0.5, 2.0, size=model.input_dim),
              "feature_columns": list(data.BOOK_COLUMNS[:model.input_dim])} | fields
    nnet.save_checkpoint(model, path, **fields)
    return fields


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = nnet.mlp_init(11, (6, 9, 4))
        model = nnet.set_flat_params(
            model, rng.normal(size=model.n_params()) * np.pi)
        path = tmp_path / "m.ckpt"
        fields = save_trial_checkpoint(model, path, rng)
        loaded, meta = nnet.load_checkpoint(path)
        assert np.array_equal(loaded.params, model.params)
        assert loaded.layer_dims == model.layer_dims
        assert set(meta) == set(fields)
        for key in ("center", "norm_mean", "norm_std"):
            assert meta[key].dtype == np.float64
            assert meta[key].tobytes() == fields[key].tobytes()
        assert meta["feature_columns"] == tuple(fields["feature_columns"])

    @pytest.mark.parametrize("columns, message", [
        (["bid_px_1", "mid_px"], "unknown feature columns: ['mid_px']"),
        (["bid_px_1", 2], "unknown feature columns: [2]"),
        ("bid_px_1", "feature_columns is not a list of column names"),
        (["bid_px_1"], "feature_columns names 1 columns for 2 model inputs")])
    def test_feature_columns_checked(self, tmp_path, rng, columns, message):
        # the checkpoint's own reader refuses a view that no CSV column fits
        path = tmp_path / "m.ckpt"
        save_trial_checkpoint(nnet.mlp_init(0, (2, 2)), path, rng)
        path.write_text(json.dumps(json.loads(path.read_text()) | {"feature_columns": columns}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            nnet.load_checkpoint(path)

    def test_file_bytes_pinned(self, tmp_path):
        # the version-3 file of a fixed model, byte for byte
        path = tmp_path / "m.ckpt"
        nnet.save_checkpoint(nnet.mlp_init(7, (4, 3, 2)), path,
                             center=np.array([0.5, -0.25]),
                             norm_mean=np.array([1.0, 2.0, 3.0, 4.0]),
                             norm_std=np.array([0.5, 1.0, 2.0, 4.0]),
                             feature_columns=["a", "b", "c", "d"])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "23a18d3dd709800fd63ffd94c80e67975a59667f5821fdc23e0465b5d0edb329")

    def test_version_check(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_trial_checkpoint(nnet.mlp_init(0, (2, 2)), path, rng)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="checkpoint version 99 is not read"):
            nnet.load_checkpoint(path)

    def test_version_1_refused_with_rerun_message(self, tmp_path, rng):
        # version 2 spelt each layer out; version 1 also kept the trial's
        # arrays in a generic "extra" dict. Both are refused, not read.
        path = tmp_path / "old.ckpt"
        model = nnet.mlp_init(0, (2, 3, 2))
        save_trial_checkpoint(model, path, rng)
        v3 = json.loads(path.read_text())
        layers = [{"weights": nnet._encode(lp.weights), "bias": nnet._encode(lp.bias),
                   "activation": act} for lp, act in zip(model.layers, ("relu", "linear"))]
        meta = {k: v3[k] for k in ("center", "norm_mean", "norm_std")}
        v1 = {"version": 1, "layer_dims": v3["layer_dims"], "bias_enabled": True,
              "seed": 0, "layers": layers, "extra": meta}
        v2 = {"version": 2, "layer_dims": v3["layer_dims"], "layers": layers, **meta,
              "feature_columns": v3["feature_columns"]}
        for doc in (v1, v2):
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=(
                    f"checkpoint version {doc['version']} is not read; "
                    "re-run `lobsad run` to write version 3")) as err:
                nnet.load_checkpoint(path)
            assert str(path) in str(err.value)
