import tracemalloc

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
from lobsad import data, harness, nnet, objectives
from lobsad.errors import ConfigError, DataError, ShapeError
from lobsad.objectives import Hypersphere, LabeledBatch, SadHyper


def nudged(c):
    """`init_center`'s push of coordinates nearer zero than 1e-3 out to +-1e-3."""
    return np.where(np.abs(c) < 1e-3, np.where(c >= 0, 1e-3, -1e-3), c)


def zero_model(dims):
    model = nnet.mlp_init(0, dims)
    return nnet.set_flat_params(model, np.zeros(model.n_params()))


class TestAeLoss:
    def test_identity_model_zero_loss(self, rng):
        model = identity_model(4)
        loss, grads = objectives.ae_loss(model, rng.normal(size=(5, 4)))
        assert loss == 0.0
        assert np.all(grads == 0)

    def test_zero_model_unit_vector(self):
        model = zero_model((4, 4))
        x = np.zeros((1, 4))
        x[0, 0] = 1.0
        loss, _ = objectives.ae_loss(model, x)
        assert loss == 1.0

    def test_dim_mismatch(self):
        model = nnet.mlp_init(0, (4, 6))
        with pytest.raises(ConfigError):
            objectives.ae_loss(model, np.zeros((2, 4)))

    def test_gradient_vs_finite_differences(self, rng):
        model, x = sample_safe_model_batch(rng, (3, 5, 3))
        _, grads = objectives.ae_loss(model, x)
        fd = finite_difference_grad(
            lambda m: objectives.ae_loss(m, x)[0], model)
        assert relative_error(grads, fd) < 1e-5


class TestInitCenter:
    def test_mean_of_two_points(self):
        model = identity_model(3)
        data = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        sphere = objectives.init_center(model, data)
        assert np.allclose(sphere.center, [2.0, 2.0, 2.0])

    def test_identity_model_gives_feature_mean(self, rng):
        model = identity_model(4)
        data = rng.normal(loc=5.0, size=(50, 4))  # mean far from the nudge zone
        sphere = objectives.init_center(model, data)
        assert np.allclose(sphere.center, data.mean(axis=0))

    def test_matches_two_pass_oracle(self, rng):
        model = nnet.mlp_init(9, (6, 10, 4))
        data = rng.normal(size=(10_000, 6))  # spans multiple streaming chunks
        sphere = objectives.init_center(model, data)
        out, _ = nnet.forward(model, data)
        assert np.allclose(sphere.center, nudged(out.mean(axis=0)), atol=1e-12)

    def test_sums_8192_row_partial_sums(self, rng):
        # this summation order fixes every center, and so every trained model
        model = nnet.mlp_init(9, (6, 10, 4))
        data = rng.normal(size=(2 * 8192 + 123, 6))
        sphere = objectives.init_center(model, data)
        out = objectives.embed(model, data)
        sums = [out[lo:lo + 8192].sum(axis=0) for lo in (0, 8192, 2 * 8192)]
        hand = nudged((sums[0] + sums[1] + sums[2]) / data.shape[0])
        assert np.array_equal(sphere.center.view(np.int64), hand.view(np.int64))

    def test_empty_dataset(self):
        model = identity_model(2)
        with pytest.raises(DataError):
            objectives.init_center(model, np.zeros((0, 2)))

    def test_near_zero_coordinates_nudged(self):
        model = identity_model(2)
        data = np.array([[1e-5, -1e-5], [-1e-5, 1e-5]])
        sphere = objectives.init_center(model, data)
        assert np.all(np.abs(sphere.center) == 1e-3)


class TestSvddLoss:
    def test_output_at_center_zero_loss(self):
        model = identity_model(3)
        x = np.array([[1.0, 2.0, 3.0]])
        sphere = Hypersphere(center=x[0])
        loss, grads = objectives.svdd_loss(model, x, sphere)
        assert loss == 0.0
        assert np.all(grads == 0)

    def test_unit_offset(self):
        model = identity_model(3)
        x = np.array([[2.0, 5.0, 5.0]])
        sphere = Hypersphere(center=np.array([1.0, 5.0, 5.0]))
        loss, _ = objectives.svdd_loss(model, x, sphere)
        assert loss == 1.0

    def test_gradient_vs_finite_differences(self, rng):
        model, x = sample_safe_model_batch(rng, (4, 6, 3))
        sphere = Hypersphere(center=rng.normal(size=3))
        _, grads = objectives.svdd_loss(model, x, sphere)
        fd = finite_difference_grad(
            lambda m: objectives.svdd_loss(m, x, sphere)[0], model)
        assert relative_error(grads, fd) < 1e-5

    def test_empty_batch(self):
        model = identity_model(2)
        with pytest.raises(DataError):
            objectives.svdd_loss(model, np.zeros((0, 2)), Hypersphere(np.zeros(2)))


class TestSadLoss:
    def test_m_zero_equals_svdd_bitwise(self, rng):
        model = nnet.mlp_init(5, (4, 7, 3))
        x = rng.normal(size=(9, 4))
        sphere = Hypersphere(center=rng.normal(size=3))
        hyper = SadHyper()
        l_svdd, g_svdd = objectives.svdd_loss(model, x, sphere)
        l_sad, g_sad = objectives.sad_loss(model, x, LabeledBatch.empty(4),
                                           sphere, hyper)
        assert l_sad == l_svdd
        assert np.array_equal(g_sad, g_svdd)

    def test_anomalous_label_arithmetic(self):
        # one unlabeled point at dist^2=4, one labeled anomaly at dist^2=4:
        # loss = (1/2)*4 + (1/2)*(1/4) = 2.125 when eta=1 and eps ~ 0
        model = identity_model(2)
        sphere = Hypersphere(center=np.zeros(2))
        hyper = SadHyper(eta=1.0, eps=1e-12)
        unlabeled = np.array([[2.0, 0.0]])
        labeled = LabeledBatch(np.array([[0.0, 2.0]]), np.array([-1.0]))
        loss, _ = objectives.sad_loss(model, unlabeled, labeled, sphere, hyper)
        assert loss == pytest.approx(2.125, rel=1e-9)

    def test_normal_label_replicates_unlabeled_term(self):
        model = identity_model(2)
        sphere = Hypersphere(center=np.zeros(2))
        hyper = SadHyper(eta=1.0, eps=1e-12)
        unlabeled = np.array([[2.0, 0.0]])
        labeled = LabeledBatch(np.array([[0.0, 2.0]]), np.array([1.0]))
        loss, _ = objectives.sad_loss(model, unlabeled, labeled, sphere, hyper)
        assert loss == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("label", [-1.0, 1.0])
    def test_gradient_vs_finite_differences(self, rng, label):
        model, x = sample_safe_model_batch(rng, (3, 6, 2), batch_rows=5)
        sphere = Hypersphere(center=rng.normal(size=2))
        hyper = SadHyper(eta=1.7, eps=1e-6)
        labeled = LabeledBatch(x[3:], np.full(2, label))
        unlabeled = x[:3]
        _, grads = objectives.sad_loss(model, unlabeled, labeled, sphere, hyper)
        fd = finite_difference_grad(
            lambda m: objectives.sad_loss(m, unlabeled, labeled, sphere, hyper)[0],
            model)
        assert relative_error(grads, fd) < 1e-5

    def test_shape_mismatch_rejected(self):
        model = nnet.mlp_init(0, (3, 4, 2))
        sphere, hyper = Hypersphere(np.zeros(2)), SadHyper()
        labeled = LabeledBatch(np.ones((2, 3)), -np.ones(2))
        with pytest.raises(ShapeError):
            objectives.sad_loss(model, np.zeros(0), labeled, sphere, hyper)
        with pytest.raises(ShapeError):
            objectives.sad_loss(model, np.ones((2, 3)),
                                LabeledBatch(np.ones((2, 4)), -np.ones(2)),
                                sphere, hyper)

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            LabeledBatch(np.zeros((1, 2)), np.array([0.5]))

    def test_inverted_distance_monotone(self):
        # shrinking the labeled anomaly's distance strictly raises its term
        model = identity_model(2)
        sphere = Hypersphere(center=np.zeros(2))
        hyper = SadHyper()
        losses = []
        for d in (2.0, 1.0, 0.5, 0.1):
            lb = LabeledBatch(np.array([[d, 0.0]]), np.array([-1.0]))
            loss, _ = objectives.sad_loss(model, np.array([[1.0, 1.0]]), lb,
                                          sphere, hyper)
            losses.append(loss)
        assert all(a < b for a, b in zip(losses, losses[1:]))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative_with_normal_labels(self, seed):
        r = np.random.default_rng(seed)
        model = nnet.mlp_init(seed, (3, 5, 2))
        sphere = Hypersphere(center=r.normal(size=2))
        labeled = LabeledBatch(r.normal(size=(2, 3)), np.ones(2))
        loss, _ = objectives.sad_loss(model, r.normal(size=(4, 3)), labeled,
                                      sphere, SadHyper())
        assert loss >= 0.0

    def test_hyper_validation(self):
        with pytest.raises(ConfigError):
            SadHyper(eta=0.0)
        with pytest.raises(ConfigError):
            SadHyper(eps=0.0)
        with pytest.raises(ConfigError):
            SadHyper(eps=1e-2)


class TestAnomalyScore:
    def test_zero_at_center(self):
        model = identity_model(2)
        x = np.array([[3.0, 4.0]])
        assert objectives.anomaly_score(model, x, Hypersphere(x[0]))[0] == 0.0

    def test_three_four_five(self):
        model = identity_model(4)
        x = np.array([[3.0, 4.0, 0.0, 0.0]])
        sphere = Hypersphere(np.zeros(4))
        assert objectives.anomaly_score(model, x, sphere)[0] == 5.0

    def test_batch_equals_per_point(self, rng):
        model = nnet.mlp_init(4, (5, 8, 3))
        x = rng.normal(size=(20, 5))
        sphere = Hypersphere(rng.normal(size=3))
        batched = objectives.anomaly_score(model, x, sphere)
        single = np.array([objectives.anomaly_score(model, x[i:i + 1], sphere)[0]
                           for i in range(20)])
        # BLAS reduction order may differ between batch sizes; low-order bits only
        assert np.allclose(batched, single, rtol=1e-12, atol=0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_reorder_invariance(self, seed):
        r = np.random.default_rng(seed)
        model = nnet.mlp_init(seed, (4, 6, 2))
        x = r.normal(size=(12, 4))
        sphere = Hypersphere(r.normal(size=2))
        perm = r.permutation(12)
        s = objectives.anomaly_score(model, x, sphere)
        s_perm = objectives.anomaly_score(model, x[perm], sphere)
        assert np.array_equal(s[perm], s_perm)

    def test_nonnegative(self, rng):
        model = nnet.mlp_init(2, (3, 4, 2))
        s = objectives.anomaly_score(model, rng.normal(size=(30, 3)),
                                     Hypersphere(rng.normal(size=2)))
        assert np.all(s >= 0)


def integer_model(rng, dims):
    """A ReLU net with small integer weights and biases: on integer inputs
    every sum is exact, so its outputs cannot depend on summation order."""
    model = nnet.mlp_init(0, dims)
    return nnet.set_flat_params(
        model, rng.integers(-3, 4, size=model.n_params()).astype(np.float64))


class TestEmbedChunks:
    # BLAS may sum a product of a few rows in another order than a large one,
    # so exact arithmetic isolates the chunking from the kernel choice
    @pytest.mark.parametrize("chunk", [1, 7, 51])  # 7 does not divide 50; 51 > 50
    def test_same_bits_for_any_chunk_size(self, rng, monkeypatch, chunk):
        model = integer_model(rng, (5, 7, 7, 3))
        points = rng.integers(-9, 10, size=(50, 5)).astype(np.float64)
        want = points
        for i, lp in enumerate(model.layers):
            want = want @ lp.weights.T + lp.bias
            if i < len(model.layers) - 1:
                want = np.maximum(want, 0.0)
        monkeypatch.setattr(objectives, "_CHUNK", chunk)
        out = objectives.embed(model, points)
        assert out.shape == (50, 3)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        assert objectives.embed(model, points[:0]).shape == (0, 3)

    @pytest.mark.parametrize("rows", [1, objectives._CHUNK, objectives._CHUNK + 1,
                                      3 * objectives._CHUNK + 5])
    def test_chunks_near_equal(self, rng, monkeypatch, rows):
        model = nnet.mlp_init(0, (4, 6, 2))
        sizes, forward = [], nnet.forward

        def counting_forward(model, batch):
            sizes.append(batch.shape[0])
            return forward(model, batch)
        monkeypatch.setattr(nnet, "forward", counting_forward)
        objectives.embed(model, rng.normal(size=(rows, 4)))
        assert sum(sizes) == rows
        assert len(sizes) == -(-rows // objectives._CHUNK)
        assert max(sizes) - min(sizes) <= 1


class TestEmbedMemory:
    def test_peak_is_one_chunk_of_activations(self, rng):
        # the forward tape holds each layer's input once, so embedding one
        # full chunk peaks at about that chunk's hidden and output arrays
        model = nnet.mlp_init(0)
        rows = objectives._CHUNK
        points = rng.normal(size=(rows, model.input_dim))
        activations = rows * sum(model.layer_dims[1:]) * 8
        tracemalloc.start()
        try:
            out = objectives.embed(model, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, model.output_dim)
        assert peak < 1.25 * activations, peak / activations

    def test_peak_over_many_chunks(self, rng):
        # the output array, written chunk by chunk, plus one chunk in flight
        model = nnet.mlp_init(0)
        rows = 6 * objectives._CHUNK + 17
        points = rng.normal(size=(rows, model.input_dim))
        output = rows * model.output_dim * 8
        activations = objectives._CHUNK * sum(model.layer_dims[1:]) * 8
        tracemalloc.start()
        try:
            out = objectives.embed(model, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, model.output_dim)
        assert peak < output + 1.25 * activations, (peak - output) / activations


def traced_peak(fn, *args):
    """`fn(*args)` and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestRunModeMemory:
    @pytest.mark.parametrize("mode", harness.MODES)
    def test_peak_is_two_train_splits_and_one_chunk(self, rng, mode):
        # a mode task normalizes only the rows it uses: its peak is the
        # train split's normalized rows and their embedding, plus one chunk
        # of activations; a copy of all rows, normalized, would add one
        # feature matrix more. 30k rows outweigh a chunk's activations
        n, dims = 30_000, nnet.DEFAULT_DIMS
        dataset = data.Dataset(rng.normal(size=(n, dims[0])), np.arange(n),
                               np.arange(0, n, 1000))
        cfg = harness.TrainConfig(pretrain_epochs=0, main_epochs=1)
        folds = harness.contiguous_kfold(n, cfg.k_folds)
        with nnet.one_blas_thread():
            pre = harness.run_pretrain(dataset, cfg, 0, 0, folds)
            part, peak = traced_peak(harness.run_mode, dataset, cfg, pre, mode)
        assert part.scores[(mode, "train")].size == pre.train_rows.size
        train = pre.train_rows.size * dims[0] * 8
        activations = objectives._CHUNK * sum(dims[1:]) * 8
        assert peak < 2 * train + 1.5 * activations, peak / dataset.features.nbytes


class TestApplyNormalizerMemory:
    def test_bits_input_and_one_output_array(self, rng):
        x = rng.normal(loc=3.0, scale=2.5, size=(20_000, 20))
        norm = data.fit_normalizer(x, np.arange(5_000))
        before = x.copy()
        z, peak = traced_peak(data.apply_normalizer, norm, x)
        assert z.tobytes() == ((x - norm.mean) / norm.std).tobytes()
        assert x.tobytes() == before.tobytes()
        assert peak < 1.1 * x.nbytes, peak / x.nbytes
