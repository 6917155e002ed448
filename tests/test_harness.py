import ctypes
import os
import pickle
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_leaks, record_fits, run_trials
from lobsad import data, evalx, harness, nnet, objectives
from lobsad.errors import ConfigError, DataError
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
        assert np.array_equal(out.params, model.params)
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
        assert np.array_equal(a.params, b.params)


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
        assert np.array_equal(trained.params, expected.params)


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
        assert np.array_equal(svdd.params, sad.params)

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
        assert np.array_equal(trained.params, expected.params)

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
        assert np.array_equal(trained.params, expected.params)

    def test_sad_keeps_no_copy_of_its_rows(self, rng):
        # SAD gathers each batch's labeled rows, so its traced peak is SVDD's
        # plus at most a few batches, not a second copy of the rows
        dims = (20, 16, 20)
        x = rng.normal(size=(20_000, 20))
        labeled = LabeledBatch(rng.normal(size=(30, 20)), -np.ones(30))
        cfg = tiny_cfg(main_epochs=1, batch_size=64, layer_dims=dims)
        model, sphere = nnet.mlp_init(0, dims), Hypersphere(rng.normal(size=20))
        peaks = {}
        for mode in ("svdd", "sad"):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                harness.train_main(model, sphere, x, labeled, cfg, mode,
                                   np.random.default_rng(1))
                peaks[mode] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        batch_bytes = cfg.batch_size * x.shape[1] * x.itemsize
        assert peaks["sad"] <= peaks["svdd"] + 4 * batch_bytes, (peaks, x.nbytes)

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

    def test_no_unlabeled_rows_refused(self, rng):
        # every train row is labeled: an epoch has no batch to average over
        model = nnet.mlp_init(0, (20, 16, 20))
        labeled = LabeledBatch(rng.normal(size=(6, 20)), -np.ones(6))
        with pytest.raises(DataError, match=r"main\[sad\]: no rows to train on"):
            harness.train_main(model, Hypersphere(np.zeros(20)), np.empty((0, 20)),
                               labeled, tiny_cfg(), "sad", np.random.default_rng(0))

    def test_bad_mode(self, rng):
        model = nnet.mlp_init(0, (20, 16, 20))
        with pytest.raises(ConfigError):
            harness.train_main(model, Hypersphere(np.zeros(20)),
                               rng.normal(size=(10, 20)), LabeledBatch.empty(20),
                               tiny_cfg(), "oops", np.random.default_rng(0))


class TestRunExperiment:
    def test_six_trials_and_shape(self, tiny_synth):
        results = run_trials(tiny_synth.dataset, tiny_cfg())
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
        a = run_trials(tiny_synth.dataset, cfg)
        b = run_trials(tiny_synth.dataset, cfg)
        assert [r.report.metrics for r in a] == [r.report.metrics for r in b]

    def test_no_leakage_into_fitting(self, tiny_synth, monkeypatch):
        fits = record_fits(monkeypatch)
        # the spies see only this process's calls, so no trial runs in a worker
        results = run_trials(tiny_synth.dataset, tiny_cfg(n_repeats=1), jobs=1)
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
        results = run_trials(ds, tiny_cfg(main_epochs=2, pretrain_epochs=1, n_repeats=1))
        by_fold = {r.report.fold: r.report.metrics for r in results}
        assert by_fold[0]["svdd"]["ratio_test"] is not None
        assert by_fold[1]["svdd"]["ratio_test"] is None
        assert by_fold[1]["svdd"]["rank_test"] is None
        assert by_fold[1]["svdd"]["ratio_train"] is not None

    def test_parallel_matches_sequential(self, tiny_synth):
        # every trial's scores and metrics, bit for bit, wherever its tasks
        # ran; 64 is capped at 11 processes, one per task that can run at once.
        # The tasks themselves are held to `run_trial` by the test below
        cfg = tiny_cfg(main_epochs=2, pretrain_epochs=1)
        seq = run_trials(tiny_synth.dataset, cfg, jobs=1)
        for jobs in (2, 3, 64):
            par = run_trials(tiny_synth.dataset, cfg, jobs=jobs)
            assert [r.report.trial for r in par] == [1, 2, 3, 4, 5, 6]
            for a, b in zip(seq, par, strict=True):
                assert a.report.metrics == b.report.metrics
                assert list(b.report.metrics) == ["svdd", "sad"]  # in `modes` order
                assert a.report.config == b.report.config
                assert a.scores.keys() == b.scores.keys()
                for key, scores in a.scores.items():
                    assert scores.tobytes() == b.scores[key].tobytes()
                for mode, model in a.models.items():
                    assert model.params.tobytes() == b.models[mode].params.tobytes()
                assert a.pretrain_losses == b.pretrain_losses
                assert a.main_losses == b.main_losses
                # `_join` takes the rows and the autoencoder from the pretrain
                assert a.train_rows.tobytes() == b.train_rows.tobytes()
                assert a.pretrained.params.tobytes() == b.pretrained.params.tobytes()

    def test_task_path_matches_run_trial(self, tiny_synth):
        # trials after the first run as tasks at every `jobs`: each must equal
        # `run_trial` of its (repeat, fold), bit for bit, whatever ran first
        cfg = tiny_cfg(main_epochs=2, pretrain_epochs=2, k_folds=2)
        folds = contiguous_kfold(tiny_synth.dataset.n_rows, cfg.k_folds)
        ground_truth = tiny_synth.ground_truth

        def arrays(r):
            yield from (r.train_rows, r.test_rows, r.pretrained.params,
                        r.sphere.center, r.normalizer.mean, r.normalizer.std)
            yield from (model.params for model in r.models.values())
            yield from r.scores.values()
            for proj, is_labeled in r.projections.values():
                yield from (proj, is_labeled)
        got = run_trials(tiny_synth.dataset, cfg, jobs=1, ground_truth=ground_truth)
        assert len(got) == 4
        for a in got:
            b = harness.run_trial(tiny_synth.dataset, cfg, a.report.repeat, a.report.fold,
                                  folds, ground_truth=ground_truth)
            assert a.report.trial == b.report.trial
            assert a.report.metrics == b.report.metrics
            assert list(a.report.metrics) == list(a.models) == ["svdd", "sad"]
            assert a.report.config == b.report.config
            assert a.report.config["modes"] == ["svdd", "sad"]
            assert a.scores.keys() == b.scores.keys()
            assert a.projections.keys() == b.projections.keys()
            assert a.pretrain_losses == b.pretrain_losses and len(a.pretrain_losses) == 2
            assert a.main_losses == b.main_losses
            assert [len(v) for v in a.main_losses.values()] == [2, 2]
            pairs = list(zip(arrays(a), arrays(b), strict=True))
            assert len(pairs) == 6 + 2 + 4 + 8
            for x, y in pairs:
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2, 64])
    def test_trial_one_whole_in_calling_process(self, tiny_synth, monkeypatch,
                                                tmp_path, jobs):
        # perfbench's traced run reads `run_trial` and both `train_main`
        # modes from the calling process: trial 1 runs whole there, at any
        # `jobs`, and every later trial runs as tasks
        real_run_trial, real_train_main = harness.run_trial, harness.train_main

        def mark(name):  # from whichever process made the call
            (tmp_path / f"{name}.{os.getpid()}.{time.monotonic_ns()}").touch()

        def run_trial(dataset, cfg, repeat, fold, *rest):
            mark(f"run_trial{repeat * cfg.k_folds + fold + 1}")
            return real_run_trial(dataset, cfg, repeat, fold, *rest)

        def train_main(*args):
            mark(f"train_main_{args[5]}")
            return real_train_main(*args)
        monkeypatch.setattr(harness, "run_trial", run_trial)
        monkeypatch.setattr(harness, "train_main", train_main)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1)
        assert len(run_trials(tiny_synth.dataset, cfg, jobs=jobs)) == 3
        calls = [p.name.split(".")[:2] for p in tmp_path.iterdir()]
        here = {name for name, pid in calls if pid == str(os.getpid())}
        assert [(name, pid) for name, pid in calls if name.startswith("run_trial")] == [
            ("run_trial1", str(os.getpid()))]
        assert {"train_main_svdd", "train_main_sad"} <= here
        assert sorted(name for name, _ in calls if name.startswith("train_main")) == (
            ["train_main_sad"] * 3 + ["train_main_svdd"] * 3)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_finished_trial_kept(self, tiny_synth, jobs):
        # a trial's scores and projections die once `on_trial` drops them,
        # before the next trial reaches it, and the run returns nothing
        refs, live_before = [], []

        def on_trial(result):
            live_before.append(sum(ref() is not None for ref in refs))
            arrays = [*result.scores.values()]
            for proj, is_labeled in result.projections.values():
                arrays += [proj, is_labeled]
            refs.extend(weakref.ref(a) for a in arrays)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        assert harness.run_experiment(tiny_synth.dataset, cfg, jobs=jobs,
                                      on_trial=on_trial) is None
        assert live_before == [0] * 6
        assert len(refs) == 6 * 12 and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("missing", [OSError, AttributeError])
    def test_without_mallopt_same_results(self, tiny_synth, monkeypatch, missing):
        # where no library exports mallopt, the arena setting is skipped
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1)
        want = run_trials(tiny_synth.dataset, cfg, jobs=2)
        real_cdll, looked_up = ctypes.CDLL, []

        def no_mallopt(name, *args, **kwargs):  # the BLAS's libraries still load
            if name is not None:
                return real_cdll(name, *args, **kwargs)
            looked_up.append(missing)
            if missing is OSError:
                raise OSError("cannot load")
            return object()  # a library without the symbol
        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        got = run_trials(tiny_synth.dataset, cfg, jobs=2)
        assert looked_up == [missing]
        assert [r.report.metrics for r in got] == [r.report.metrics for r in want]
        for a, b in zip(want, got, strict=True):
            for key, scores in a.scores.items():
                assert scores.tobytes() == b.scores[key].tobytes()

    @pytest.mark.parametrize("mode", harness.MODES)
    def test_mode_task_sends_back_only_its_mode(self, tiny_synth, mode):
        # what a worker pickles back: no row index and no autoencoder, which
        # the calling process holds in the pretrain's part; `save` still gets
        # them, for the files it writes
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        saved, dataset = [], tiny_synth.dataset
        state = (dataset, cfg, contiguous_kfold(dataset.n_rows, cfg.k_folds), None,
                 saved.append)
        pre = harness._run_task(0, 1, None, None, state)
        blob = pickle.dumps(harness._run_task(0, 1, pre, mode, state))
        for array in (pre.train_rows, pre.test_rows, pre.pretrained.params):
            assert array.tobytes() not in blob
        part = pickle.loads(blob)
        for name in ("train_rows", "test_rows", "pretrained", "sphere", "normalizer"):
            assert getattr(part, name) is None, name
        assert part.pretrain_losses == []
        assert part.models.keys() == part.main_losses.keys() == {mode}
        assert part.scores.keys() == part.projections.keys() == {
            (mode, "train"), (mode, "test")}
        assert saved[0].train_rows is pre.train_rows and saved[0].normalizer is pre.normalizer

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_pretrain_runs_once_per_trial(self, tiny_synth, monkeypatch, tmp_path, jobs):
        # a marker file per pretrain call, from whichever process made it
        real_run_pretrain = harness.run_pretrain

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            trial = repeat * cfg.k_folds + fold + 1
            (tmp_path / f"{trial}.{os.getpid()}.{time.monotonic_ns()}").touch()
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        results = run_trials(tiny_synth.dataset, cfg, jobs=jobs)
        markers = [p.name.split(".") for p in tmp_path.iterdir()]
        assert sorted(int(trial) for trial, _, _ in markers) == [1, 2, 3, 4, 5, 6]
        # with workers, they take trial 2's pretrain at least
        assert ({pid for _, pid, _ in markers} == {str(os.getpid())}) == (jobs == 1)
        assert len(results) == 6

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
        results = run_trials(tiny_synth.dataset, cfg, ground_truth=tiny_synth.ground_truth)
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
        # a fork-context pool starts every worker it is given at the first
        # submit; this process runs trial 1, so 2 trials need a worker per
        # mode task of trial 2: 2 for both modes, 1 for one
        made, pool = [], harness.ProcessPoolExecutor

        def recording_pool(max_workers, **kwargs):
            made.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1, k_folds=2)
        results = run_trials(tiny_synth.dataset, cfg, jobs=64)
        assert made == [2]
        assert [r.report.trial for r in results] == [1, 2]
        results = run_trials(tiny_synth.dataset, cfg, modes=("svdd",), jobs=64)
        assert made == [2, 1]
        assert [list(r.models) for r in results] == [["svdd"]] * 2
        harness.run_experiment(tiny_synth.dataset, cfg, jobs=1)
        assert made == [2, 1]  # one process needs no pool

    def test_default_jobs(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 4)
        assert harness.resolve_jobs(None, tiny_cfg()) == 4
        # 2 trials: this process on trial 1, and trial 2's two mode tasks
        assert harness.resolve_jobs(None, tiny_cfg(n_repeats=1, k_folds=2)) == 3
        assert harness.resolve_jobs(None, tiny_cfg(n_repeats=1, k_folds=2),
                                    ("svdd",)) == 2
        assert harness.resolve_jobs(3, tiny_cfg()) == 3
        assert harness.resolve_jobs(64, tiny_cfg()) == 11
        assert harness.resolve_jobs(64, tiny_cfg(), ("sad",)) == 6
        monkeypatch.undo()
        assert harness.usable_cpus() >= 1

    def test_own_trial_failure_drains_workers(self, tiny_synth, monkeypatch,
                                              tmp_path):
        # two processes, four trials: this process runs trial 1 while the
        # worker runs trial 2's pretrain, SAD and SVDD. Trial 1's SAD fails
        # once trial 2's SVDD has started; that task was running, so it
        # finishes and trial 2 is delivered, and no later task starts
        real_run_pretrain, real_run_mode = harness.run_pretrain, harness.run_mode

        def mark(phase, trial):
            (tmp_path / f"{phase}{trial}").write_text(str(os.getpid()))
            return trial

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            mark("pretrain", repeat * cfg.k_folds + fold + 1)
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)

        def run_mode(dataset, cfg, pre, mode, *rest):
            trial = mark(mode, pre.report.trial)
            if (trial, mode) == (1, "sad"):
                deadline = time.monotonic() + 60
                while not (tmp_path / "svdd2").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise DataError("trial 1 failed")
            if (trial, mode) == (2, "svdd"):
                time.sleep(1.0)  # still running when trial 1 fails
            return real_run_mode(dataset, cfg, pre, mode, *rest)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        delivered = []
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, k_folds=2)
        with pytest.raises(DataError, match="trial 1 failed"):
            harness.run_experiment(tiny_synth.dataset, cfg, jobs=2,
                                   on_trial=lambda r: delivered.append(r.report.trial))
        assert delivered == [2]
        started = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert sorted(started) == ["pretrain1", "pretrain2", "sad1", "sad2", "svdd1",
                                   "svdd2"]
        assert started["sad1"] == str(os.getpid()) != started["svdd2"]
        assert started["svdd2"] == started["pretrain2"]

    def test_modes_handed_off_both_ways(self, tiny_synth, monkeypatch, tmp_path):
        # two processes, four trials. This process runs trial 1 while the
        # worker runs trial 2's pretrain and SAD; then it runs trial 2's SVDD,
        # whose pretrain ran in the worker, and trial 3's pretrain, one of
        # whose modes the worker runs. Every trial equals a one-process run's
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1, k_folds=4)
        want = run_trials(tiny_synth.dataset, cfg, jobs=1)
        real_run_pretrain, real_run_mode = harness.run_pretrain, harness.run_mode
        here = str(os.getpid())

        def mark(phase, trial):
            (tmp_path / f"{phase}{trial}").write_text(str(os.getpid()))

        def wait_for(*names):
            deadline = time.monotonic() + 60
            while (not all((tmp_path / name).exists() for name in names)
                   and time.monotonic() < deadline):
                time.sleep(0.01)

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            trial = repeat * cfg.k_folds + fold + 1
            mark("pretrain", trial)
            if trial == 1:  # until the worker holds trial 2's SAD
                wait_for("sad2")
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)

        def run_mode(dataset, cfg, pre, mode, *rest):
            trial = pre.report.trial
            mark(mode, trial)
            if (trial, mode) == (2, "sad"):  # until this process holds the rest
                wait_for("svdd2", "pretrain3")
            if trial == 3 and str(os.getpid()) == here:  # the worker takes the other
                wait_for({"sad": "svdd3", "svdd": "sad3"}[mode])
            return real_run_mode(dataset, cfg, pre, mode, *rest)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        got = run_trials(tiny_synth.dataset, cfg, jobs=2)
        started = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert len(started) == 12
        worker = started["pretrain2"]
        assert worker != here == started["svdd2"]
        assert started["pretrain3"] == here and worker in (started["sad3"], started["svdd3"])
        assert [r.report.trial for r in got] == [1, 2, 3, 4]
        for a, b in zip(want, got, strict=True):
            assert a.report.metrics == b.report.metrics
            assert a.scores.keys() == b.scores.keys() and a.models.keys() == b.models.keys()
            for key, scores in a.scores.items():
                assert scores.tobytes() == b.scores[key].tobytes()
            for mode, model in a.models.items():
                assert model.params.tobytes() == b.models[mode].params.tobytes()

    def test_save_runs_in_the_trials_process(self, tiny_synth, monkeypatch, tmp_path):
        # each mode is saved by the process that ran it, before its trial
        # reaches on_trial; a failed save is the run's error and keeps its
        # trial from on_trial
        real_run_mode = harness.run_mode

        def run_mode(dataset, cfg, pre, mode, *rest):
            trial = pre.report.trial
            (tmp_path / f"{trial}_{mode}.ran").write_text(str(os.getpid()))
            return real_run_mode(dataset, cfg, pre, mode, *rest)

        def save(res):
            trial = res.report.trial
            if trial == 6:  # the last trial, once the other process has saved too
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and all(
                        p.read_text() == str(os.getpid()) for p in tmp_path.glob("*.saved")):
                    time.sleep(0.01)
                raise OSError("disk full")
            for mode in res.models:
                (tmp_path / f"{trial}_{mode}.saved").write_text(str(os.getpid()))
        monkeypatch.setattr(harness, "run_mode", run_mode)
        delivered = []

        def on_trial(res):
            t = res.report.trial
            delivered.append((t, all((tmp_path / f"{t}_{mode}.saved").exists()
                                     for mode in ("svdd", "sad"))))
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        with pytest.raises(OSError, match="disk full"):
            harness.run_experiment(tiny_synth.dataset, cfg, jobs=2, save=save,
                                   on_trial=on_trial)
        saved = {p.stem: p.read_text() for p in tmp_path.glob("*.saved")}
        ran = {p.stem: p.read_text() for p in tmp_path.glob("*.ran")}
        assert saved and all(ran[key] == pid for key, pid in saved.items())
        assert len(set(saved.values())) == 2  # this process and the worker
        complete = [t for t in range(1, 7) if {f"{t}_svdd", f"{t}_sad"} <= saved.keys()]
        assert 6 not in complete and sorted(delivered) == [(t, True) for t in complete]

    def test_on_trial_runs_on_calling_thread(self, tiny_synth, monkeypatch, tmp_path):
        # also for the trials whose mode tasks ended in a worker
        threads, real_run_mode = [], harness.run_mode

        def run_mode(*args):
            (tmp_path / f"{os.getpid()}.{time.monotonic_ns()}").touch()
            return real_run_mode(*args)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1)
        harness.run_experiment(tiny_synth.dataset, cfg, jobs=3,
                               on_trial=lambda r: threads.append(threading.get_ident()))
        assert threads == [threading.get_ident()] * 6
        pids = {p.name.split(".")[0] for p in tmp_path.iterdir()}
        assert str(os.getpid()) in pids and len(pids) > 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_blas_thread_while_training(self, tiny_synth, monkeypatch, jobs):
        # every task trains at one thread, in every process; the caller's
        # count comes back, after an error too
        if nnet.blas_threads() is None:
            pytest.skip("no settable OpenBLAS in this process")
        real_run_pretrain, real_run_mode = harness.run_pretrain, harness.run_mode

        def at_one_thread():
            if nnet.blas_threads() != 1:
                raise AssertionError(f"a task ran at {nnet.blas_threads()} threads")

        def run_pretrain(dataset, cfg, repeat, fold, folds):
            at_one_thread()
            if repeat * cfg.k_folds + fold + 1 == 3:
                raise DataError("trial 3 failed")
            return real_run_pretrain(dataset, cfg, repeat, fold, folds)

        def run_mode(*args):
            at_one_thread()
            return real_run_mode(*args)
        monkeypatch.setattr(harness, "run_pretrain", run_pretrain)
        monkeypatch.setattr(harness, "run_mode", run_mode)
        before = nnet.blas_threads()
        _, set_threads = nnet._openblas()
        set_threads(2)
        try:
            cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1)
            with pytest.raises(DataError, match="trial 3 failed"):
                harness.run_experiment(tiny_synth.dataset, cfg, jobs=jobs)
            assert nnet.blas_threads() == 2
            cfg = tiny_cfg(main_epochs=1, pretrain_epochs=1, n_repeats=1, k_folds=2)
            assert len(run_trials(tiny_synth.dataset, cfg, jobs=jobs)) == 2
            assert nnet.blas_threads() == 2
        finally:
            set_threads(before)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, tiny_synth, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            harness.run_experiment(tiny_synth.dataset, tiny_cfg(), jobs=jobs)
