import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_leaks, record_fits
from lobsad import data, evalx, harness, nnet, objectives
from lobsad.errors import ConfigError
from lobsad.harness import TrainConfig, contiguous_kfold
from lobsad.objectives import Hypersphere, LabeledBatch


def tiny_cfg(**kw):
    base = dict(seed=0, pretrain_epochs=3, main_epochs=5, batch_size=32,
                layer_dims=(20, 16, 20), k_folds=3, n_repeats=2)
    base.update(kw)
    return TrainConfig(**base)


# one hidden layer, and the default three, whose backward chains ReLU masks
HAND_LOOP_DIMS = [(20, 16, 20), nnet.DEFAULT_DIMS]


def dims_id(dims):
    return "-".join(map(str, dims))


@pytest.fixture(scope="module")
def tiny_synth():
    cfg = data.SynthConfig(n_rows=600, anomaly_rate=0.03, n_labeled=9, seed=7)
    return data.generate_synthetic(cfg)


class TestKfold:
    def test_nine_by_three(self):
        assert contiguous_kfold(9, 3) == ((0, 3), (3, 6), (6, 9))

    def test_ten_by_three(self):
        folds = contiguous_kfold(10, 3)
        sizes = sorted(hi - lo for lo, hi in folds)
        assert sizes == [3, 3, 4]
        assert folds[0][0] == 0 and folds[-1][1] == 10

    @given(n=st.integers(2, 5000), k=st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, k):
        if n < k:
            with pytest.raises(ConfigError):
                contiguous_kfold(n, k)
            return
        folds = contiguous_kfold(n, k)
        covered = np.concatenate([np.arange(lo, hi) for lo, hi in folds])
        assert np.array_equal(covered, np.arange(n))  # union, disjoint, contiguous
        sizes = [hi - lo for lo, hi in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_n_below_k(self):
        with pytest.raises(ConfigError):
            contiguous_kfold(2, 3)


class TestPretrain:
    def test_zero_epochs_unchanged(self, rng):
        model = nnet.mlp_init(0, (20, 16, 20))
        x = rng.normal(size=(100, 20))
        cfg = tiny_cfg(pretrain_epochs=0)
        out, losses = harness.pretrain(model, x, cfg, np.random.default_rng(0))
        assert np.array_equal(nnet.get_flat_params(out),
                              nnet.get_flat_params(model))
        assert losses == []

    def test_loss_decreases_on_learnable_data(self, rng):
        # identity-learnable 2-d toy; epoch-mean loss falls over 50 epochs
        model = nnet.mlp_init(1, (2, 8, 2))
        x = rng.normal(size=(200, 2))
        cfg = TrainConfig(seed=1, pretrain_epochs=50, main_epochs=1,
                          batch_size=32, lr=1e-3, layer_dims=(2, 8, 2))
        _, losses = harness.pretrain(model, x, cfg, np.random.default_rng(1))
        assert losses[-1] < losses[0]
        assert losses[-1] <= min(losses[:5])

    def test_deterministic(self, rng):
        model = nnet.mlp_init(2, (20, 16, 20))
        x = rng.normal(size=(100, 20))
        cfg = tiny_cfg()
        a, _ = harness.pretrain(model, x, cfg, np.random.default_rng(9))
        b, _ = harness.pretrain(model, x, cfg, np.random.default_rng(9))
        assert np.array_equal(nnet.get_flat_params(a), nnet.get_flat_params(b))


    @pytest.mark.parametrize("dims", HAND_LOOP_DIMS, ids=dims_id)
    def test_epochs_match_hand_loop(self, rng, dims):
        # 2 epochs x 3 batches (32, 32, 6 rows)
        model = nnet.mlp_init(6, dims)
        x = rng.normal(size=(70, 20))
        cfg = tiny_cfg(pretrain_epochs=2, batch_size=32, lr=1e-2, layer_dims=dims)
        trained, losses = harness.pretrain(model, x, cfg, np.random.default_rng(4))

        hand_rng = np.random.default_rng(4)
        expected, state, hand_losses = model, nnet.adam_init(model), []
        for _ in range(cfg.pretrain_epochs):
            perm = hand_rng.permutation(70)
            batch_losses = []
            for lo in range(0, 70, cfg.batch_size):
                loss, grads = objectives.ae_loss(expected, x[perm[lo:lo + 32]])
                expected, state = nnet.adam_step(expected, grads, state, cfg.lr,
                                                 cfg.weight_decay)
                batch_losses.append(loss)
            hand_losses.append(sum(batch_losses) / len(batch_losses))
        assert state.t == 6
        assert losses == hand_losses
        assert np.array_equal(nnet.get_flat_params(trained),
                              nnet.get_flat_params(expected))


class TestTrainMain:
    def test_sad_without_labels_equals_svdd(self, rng):
        model = nnet.mlp_init(3, (20, 16, 20))
        x = rng.normal(size=(150, 20))
        sphere = Hypersphere(rng.normal(size=20))
        cfg = tiny_cfg()
        svdd, _ = harness.train_main(model, sphere, x, LabeledBatch.empty(20),
                                     cfg, "svdd", np.random.default_rng(5))
        sad, _ = harness.train_main(model, sphere, x, LabeledBatch.empty(20),
                                    cfg, "sad", np.random.default_rng(5))
        assert np.array_equal(nnet.get_flat_params(svdd), nnet.get_flat_params(sad))

    def test_single_batch_epoch_matches_hand_step(self, rng):
        model = nnet.mlp_init(4, (20, 16, 20))
        x = rng.normal(size=(10, 20))
        sphere = Hypersphere(rng.normal(size=20))
        cfg = tiny_cfg(main_epochs=1, batch_size=10)
        trained, _ = harness.train_main(model, sphere, x, LabeledBatch.empty(20),
                                        cfg, "svdd", np.random.default_rng(3))
        perm = np.random.default_rng(3).permutation(10)
        _, grads = objectives.svdd_loss(model, x[perm], sphere)
        expected, _ = nnet.adam_step(model, grads, nnet.adam_init(model),
                                     cfg.lr, cfg.weight_decay)
        assert np.array_equal(nnet.get_flat_params(trained),
                              nnet.get_flat_params(expected))

    @pytest.mark.parametrize("dims", HAND_LOOP_DIMS, ids=dims_id)
    def test_sad_epochs_match_hand_loop(self, rng, dims):
        # 2 epochs x 3 batches (32, 32, 6 unlabeled rows + 2 labeled each)
        model = nnet.mlp_init(5, dims)
        x = rng.normal(size=(70, 20))
        sphere = Hypersphere(rng.normal(size=20))
        labeled = LabeledBatch(rng.normal(loc=2.0, size=(4, 20)),
                               np.array([-1.0, 1.0, -1.0, -1.0]))
        cfg = tiny_cfg(main_epochs=2, batch_size=32, lr=1e-2, layer_dims=dims)
        trained, losses = harness.train_main(model, sphere, x, labeled, cfg,
                                             "sad", np.random.default_rng(8))

        hand_rng, m_b = np.random.default_rng(8), 2  # m_b = ceil(32 * 4 / 74)
        expected, state, hand_losses = model, nnet.adam_init(model), []
        for _ in range(cfg.main_epochs):
            perm = hand_rng.permutation(70)
            batch_losses = []
            for lo in range(0, 70, cfg.batch_size):
                pick = hand_rng.integers(0, 4, size=m_b)
                lb = LabeledBatch(labeled.features[pick], labeled.labels[pick])
                loss, grads = objectives.sad_loss(expected, x[perm[lo:lo + 32]], lb,
                                                  sphere, cfg.sad_hyper())
                expected, state = nnet.adam_step(expected, grads, state, cfg.lr,
                                                 cfg.weight_decay)
                batch_losses.append(loss)
            hand_losses.append(sum(batch_losses) / len(batch_losses))
        assert state.t == 6
        assert losses == hand_losses
        assert np.array_equal(nnet.get_flat_params(trained),
                              nnet.get_flat_params(expected))

    def test_labeled_cluster_pushed_out(self, rng):
        # 2-cluster toy: training on labels must raise the labeled cluster's
        # score ratio relative to before training
        normal = rng.normal(size=(300, 4))
        anom = rng.normal(loc=2.5, size=(12, 4))
        model = nnet.mlp_init(0, (4, 16, 4))
        cfg = TrainConfig(seed=0, pretrain_epochs=0, main_epochs=60,
                          batch_size=64, lr=1e-3, eta=2.0, layer_dims=(4, 16, 4))
        sphere = objectives.init_center(model, normal)

        def ratio(m):
            s_norm = objectives.anomaly_score(m, normal, sphere).mean()
            s_anom = objectives.anomaly_score(m, anom, sphere).mean()
            return s_anom / s_norm

        before = ratio(model)
        labeled = LabeledBatch(anom, -np.ones(len(anom)))
        trained, _ = harness.train_main(model, sphere, normal, labeled, cfg,
                                        "sad", np.random.default_rng(1))
        assert ratio(trained) > before

    def test_bad_mode(self, rng):
        model = nnet.mlp_init(0, (20, 16, 20))
        with pytest.raises(ConfigError):
            harness.train_main(model, Hypersphere(np.zeros(20)),
                               rng.normal(size=(10, 20)), LabeledBatch.empty(20),
                               tiny_cfg(), "oops", np.random.default_rng(0))


class TestRunExperiment:
    def test_six_trials_and_shape(self, tiny_synth):
        results = harness.run_experiment(tiny_synth.dataset, tiny_cfg())
        assert len(results) == 6
        assert [r.report.trial for r in results] == [1, 2, 3, 4, 5, 6]
        for r in results:
            assert set(r.models) == {"svdd", "sad"}
            for mode in ("svdd", "sad"):
                for split in ("train", "test"):
                    rows = r.train_rows if split == "train" else r.test_rows
                    assert r.scores[(mode, split)].shape == rows.shape
                    proj, lab = r.projections[(mode, split)]
                    assert proj.shape == (rows.size, 2)
                    assert lab.shape == rows.shape

    def test_deterministic_reports(self, tiny_synth):
        cfg = tiny_cfg(n_repeats=1)
        a = harness.run_experiment(tiny_synth.dataset, cfg)
        b = harness.run_experiment(tiny_synth.dataset, cfg)
        assert [r.report.metrics for r in a] == [r.report.metrics for r in b]

    def test_no_leakage_into_fitting(self, tiny_synth, monkeypatch):
        fits = record_fits(monkeypatch)
        results = harness.run_experiment(tiny_synth.dataset,
                                         tiny_cfg(n_repeats=1))
        # one normalizer per trial, one PCA basis per trial and model
        assert [len(fits["normalizer"]), len(fits["pca"])] == [3, 6]
        assert fit_leaks(fits, results, tiny_synth.dataset.features) == 0

    def test_fold_without_labels_marked_na(self):
        # all labels in the first third: folds 1 and 2 have no labeled test rows
        cfg = data.SynthConfig(n_rows=300, anomaly_rate=0.0, n_labeled=0, seed=1)
        result = data.generate_synthetic(cfg)
        ds = result.dataset
        ds = data.Dataset(ds.features, ds.timestamps,
                          labeled_idx=np.array([5, 20, 40]))
        results = harness.run_experiment(ds, tiny_cfg(main_epochs=2,
                                                      pretrain_epochs=1,
                                                      n_repeats=1))
        by_fold = {r.report.fold: r.report.metrics for r in results}
        assert by_fold[0]["svdd"]["ratio_test"] is not None
        assert by_fold[1]["svdd"]["ratio_test"] is None
        assert by_fold[1]["svdd"]["rank_test"] is None
        assert by_fold[1]["svdd"]["ratio_train"] is not None

    def test_parallel_matches_sequential(self, tiny_synth):
        cfg = tiny_cfg(main_epochs=2, pretrain_epochs=1, n_repeats=1)
        seq = harness.run_experiment(tiny_synth.dataset, cfg)
        par = harness.run_experiment(tiny_synth.dataset, cfg, jobs=2)
        assert [r.report.metrics for r in seq] == [r.report.metrics for r in par]

    def test_trial_embeds_each_split_once(self, tiny_synth, monkeypatch):
        # train rows once for the center, then each split once per model:
        # 400 + 2 x (400 + 200) rows through the network
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, layer_dims=(20, 8, 20))
        folds = contiguous_kfold(tiny_synth.dataset.n_rows, cfg.k_folds)
        rows, forward = [], nnet.forward

        def counting_forward(model, batch):
            rows.append(batch.shape[0])
            return forward(model, batch)
        monkeypatch.setattr(nnet, "forward", counting_forward)
        res = harness.run_trial(tiny_synth.dataset, cfg, 0, 0, folds)
        assert sum(rows) == 1600
        monkeypatch.undo()
        # `lobsad score` relies on the stored scores being anomaly_score's
        feats = data.apply_normalizer(res.normalizer, tiny_synth.dataset.features)
        for (mode, split), scores in res.scores.items():
            split_rows = res.train_rows if split == "train" else res.test_rows
            expected = objectives.anomaly_score(res.models[mode], feats[split_rows],
                                                res.sphere)
            assert np.array_equal(scores, expected)
        assert len(res.scores) == 4

    def test_ground_truth_metrics_added(self, tiny_synth):
        cfg = tiny_cfg(main_epochs=2, pretrain_epochs=1, n_repeats=1)
        results = harness.run_experiment(
            tiny_synth.dataset, cfg, ground_truth=tiny_synth.ground_truth)
        metrics = results[0].report.metrics["svdd"]
        assert "gt_ratio_test" in metrics and "gt_rank_train" in metrics
        for name in data.ARCHETYPES:
            for split in ("train", "test"):
                for metric in ("ratio", "rank", "normalized_rank"):
                    assert f"gt_{name}_{metric}_{split}" in metrics

    def test_trial_ranks_each_split_once(self, tiny_synth, monkeypatch):
        # one sort per (model, split) serves the labeled rows, all ground-truth
        # rows and each archetype's; the values equal one sort per subset
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        folds = contiguous_kfold(tiny_synth.dataset.n_rows, cfg.k_folds)
        # every subset has rows in both splits, so each would need a sort
        ds = tiny_synth.dataset
        ds = data.Dataset(ds.features, ds.timestamps, np.array([3, 100, 300, 500]))
        rows = np.arange(5, ds.n_rows, 37)
        gt = data.GroundTruth(rows, [data.ARCHETYPES[i % 3] for i in range(rows.size)],
                              np.zeros(rows.size, dtype=bool))
        calls = {"fractional_ranks_desc": 0, "rank_test": 0}
        for name in calls:
            def counted(*args, _real=getattr(evalx, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(evalx, name, counted)
        res = harness.run_trial(ds, cfg, 0, 0, folds, ground_truth=gt)
        monkeypatch.undo()
        assert calls["fractional_ranks_desc"] == 4  # 2 models x 2 splits
        assert calls["rank_test"] == 20  # 5 subsets, still through evalx.rank_test
        subsets = {"": ds.labeled_idx, "gt_": gt.rows} | {
            f"gt_{name}_": gt.rows[[a == name for a in gt.archetypes]]
            for name in data.ARCHETYPES}
        for (mode, split), scores in res.scores.items():
            rows = res.train_rows if split == "train" else res.test_rows
            for prefix, subset in subsets.items():
                ss = evalx.ScoreSet(scores, np.nonzero(np.isin(rows, subset))[0],
                                    split=split)
                assert ss.labeled_idx.size
                for key, value in evalx.metrics_for(ss).items():
                    assert res.report.metrics[mode][prefix + key] == value

    def test_pool_capped_at_trial_count(self, tiny_synth, monkeypatch):
        # a fork-context pool starts every worker it is given at the first submit
        made, pool = [], harness.ProcessPoolExecutor

        def recording_pool(max_workers):
            made.append(max_workers)
            return pool(max_workers=max_workers)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1, k_folds=2)
        results = harness.run_experiment(tiny_synth.dataset, cfg, jobs=64)
        assert made == [2]
        assert [r.report.trial for r in results] == [1, 2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, tiny_synth, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            harness.run_experiment(tiny_synth.dataset, tiny_cfg(), jobs=jobs)
