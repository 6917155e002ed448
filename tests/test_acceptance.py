"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The desk-scale directional tests (3, 4,
and the embedding part of 7) share one real experiment run and take several
minutes; everything else is fast.
"""

import csv
import json
import resource
import time

import numpy as np
import pytest

from lobsad import cli, data, evalx, harness, nnet, objectives
from lobsad.objectives import Hypersphere, LabeledBatch, SadHyper

import conftest
from conftest import finite_difference_grad, relative_error, sample_safe_model_batch
from test_evalx import brute_force_ranks, power_iteration_eigs


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip()
    conftest.ACCEPTANCE_RESULTS.append(line)
    print("\n" + line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- criterion 3/4/7 share one desk-scale experiment --------------------------

@pytest.fixture(scope="module")
def desk_run():
    t0 = time.perf_counter()
    scfg = data.SynthConfig()  # 60,000 rows, 0.2% anomalies, 30 labeled
    synth = data.generate_synthetic(scfg)
    cfg, threads = harness.TrainConfig(), set()
    results = conftest.run_trials(synth.dataset, cfg,
                                  on_trial=lambda r: threads.add(nnet.blas_threads()))
    elapsed = time.perf_counter() - t0
    # the pool's workers are reaped when the run returns; ru_maxrss is in KiB
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    conftest.DESK_RUN.append(f"jobs={harness.resolve_jobs(None, cfg)}, blas_threads="
                             f"{','.join(map(str, threads))}, {elapsed:.1f}s, max RSS "
                             f"of this process so far {self_kib / 1024:.1f} MiB and of "
                             f"the children reaped so far in this session "
                             f"{workers_kib / 1024:.1f} MiB")
    return results, elapsed


class TestCriterion1Gradients:
    def test_gradient_correctness(self, rng):
        t0 = time.perf_counter()
        hyper = SadHyper()
        worst, n_checks = 0.0, 0
        for _ in range(36):  # 36 x 3 objectives = 108 triples
            dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
            ae_dims = (dims[0], dims[1], dims[0])
            model, batch = sample_safe_model_batch(rng, ae_dims)
            center = rng.normal(size=ae_dims[-1])
            sphere = Hypersphere(center)
            y = np.where(rng.random(batch.shape[0]) < 0.5, -1.0, 1.0)
            labeled = LabeledBatch(batch[::2], y[::2])
            unlabeled = batch[1::2]

            cases = [
                (lambda m: objectives.ae_loss(m, batch),),
                (lambda m: objectives.svdd_loss(m, batch, sphere),),
                (lambda m: objectives.sad_loss(m, unlabeled, labeled, sphere,
                                               hyper),),
            ]
            for (loss_fn,) in cases:
                _, grads = loss_fn(model)
                fd = finite_difference_grad(lambda m: loss_fn(m)[0], model)
                worst = max(worst, relative_error(grads, fd))
                n_checks += 1
        elapsed = time.perf_counter() - t0
        _report(1, "gradient correctness",
                n_checks >= 100 and worst < 1e-5 and elapsed < 60,
                f"({n_checks} triples, worst rel err {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2Degeneration:
    def test_sad_degenerates_to_svdd(self, rng, tmp_path):
        model = nnet.mlp_init(3, (20, 16, 20))
        batch = rng.normal(size=(40, 20))
        sphere = Hypersphere(rng.normal(size=20))
        loss_svdd, g_svdd = objectives.svdd_loss(model, batch, sphere)
        loss_sad, g_sad = objectives.sad_loss(model, batch, LabeledBatch.empty(20),
                                              sphere, SadHyper())
        loss_bitwise = loss_sad == loss_svdd
        grads_bitwise = np.array_equal(g_sad, g_svdd)

        cfg = harness.TrainConfig(pretrain_epochs=0, main_epochs=5,
                                  batch_size=16, layer_dims=(20, 16, 20))
        x = rng.normal(size=(100, 20))
        paths = {}
        for mode in ("svdd", "sad"):
            trained, _ = harness.train_main(model, sphere, x,
                                            LabeledBatch.empty(20), cfg, mode,
                                            np.random.default_rng(7))
            paths[mode] = tmp_path / f"{mode}.ckpt"
            nnet.save_checkpoint(trained, paths[mode], center=sphere.center,
                                 norm_mean=np.zeros(20), norm_std=np.ones(20),
                                 feature_columns=data.DEFAULT_FEATURES)
        ckpt_identical = paths["svdd"].read_bytes() == paths["sad"].read_bytes()
        _report(2, "SAD(m=0) degenerates to SVDD",
                loss_bitwise and grads_bitwise and ckpt_identical,
                f"(loss=={loss_bitwise}, grads=={grads_bitwise}, "
                f"checkpoints=={ckpt_identical})")


class TestCriterion3Directional:
    @pytest.mark.slow
    def test_sad_beats_svdd_on_test(self, desk_run):
        results, elapsed = desk_run
        wins = 0
        for r in results:
            m = r.report.metrics
            if (m["sad"]["ratio_test"] >= m["svdd"]["ratio_test"]
                    and m["sad"]["rank_test"] <= m["svdd"]["rank_test"]):
                wins += 1

        def mean(mode, key):
            return float(np.mean([r.report.metrics[mode][key] for r in results]))

        means_better = (mean("sad", "ratio_test") > mean("svdd", "ratio_test")
                        and mean("sad", "rank_test") < mean("svdd", "rank_test"))
        _report(3, "directional reproduction (SAD >= SVDD on test)",
                len(results) == 6 and wins >= 5 and means_better and elapsed < 900,
                f"({wins}/6 trials, mean ratio {mean('sad', 'ratio_test'):.2f} vs "
                f"{mean('svdd', 'ratio_test'):.2f}, mean rank "
                f"{mean('sad', 'rank_test'):.1f} vs {mean('svdd', 'rank_test'):.1f}, "
                f"{elapsed:.0f}s)")


class TestCriterion4SanityFloor:
    @pytest.mark.slow
    def test_ratio_above_one_everywhere(self, desk_run):
        results, _ = desk_run
        worst = min(r.report.metrics[mode][f"ratio_{split}"]
                    for r in results for mode in ("svdd", "sad")
                    for split in ("train", "test"))
        _report(4, "ratio test > 1 for both models on all trials/splits",
                worst > 1.0, f"(worst ratio {worst:.3f})")


class TestCriterion5MetricOracles:
    def test_thousand_random_score_sets(self):
        rng = np.random.default_rng(99)
        ratio_exact = rank_exact = True
        for _ in range(1000):
            n = int(rng.integers(3, 120))
            scores = np.round(rng.random(n), 2)  # quantized to force ties
            m = int(rng.integers(1, n))
            labeled = rng.choice(n, size=m, replace=False)
            ss = evalx.ScoreSet(scores, labeled)
            mask = np.zeros(n, dtype=bool)
            mask[labeled] = True
            ratio_exact &= (evalx.ratio_test(ss)
                            == scores[mask].mean() / scores[~mask].mean())
            mean_rank, norm = evalx.rank_test(ss)
            oracle_ranks = brute_force_ranks(scores)
            rank_exact &= (mean_rank == oracle_ranks[labeled].mean()
                           and norm == mean_rank / n)
        _report(5, "ratio/rank match brute-force oracles on 1000 score sets",
                ratio_exact and rank_exact,
                f"(ratio exact={ratio_exact}, rank exact={rank_exact})")


class TestCriterion6FoldProperties:
    def test_partitions_and_no_leakage(self, monkeypatch):
        rng = np.random.default_rng(4)
        partition_ok = True
        for _ in range(100):
            k = int(rng.integers(2, 12))
            n = int(rng.integers(k, 5000))
            folds = harness.contiguous_kfold(n, k)
            covered = np.concatenate(
                [np.arange(lo, hi) for lo, hi in folds])
            sizes = [hi - lo for lo, hi in folds]
            partition_ok &= (np.array_equal(covered, np.arange(n))
                             and max(sizes) - min(sizes) <= 1)

        scfg = data.SynthConfig(n_rows=600, anomaly_rate=0.03, n_labeled=9, seed=7)
        synth = data.generate_synthetic(scfg)
        fits = conftest.record_fits(monkeypatch)
        # the spies see only this process's calls, so no trial runs in a worker
        results = conftest.run_trials(
            synth.dataset,
            harness.TrainConfig(pretrain_epochs=1, main_epochs=2,
                                batch_size=32, layer_dims=(20, 8, 20),
                                n_repeats=1), jobs=1)
        leakage = conftest.fit_leaks(fits, results, synth.dataset.features)
        n_fits = len(fits["normalizer"]) + len(fits["pca"])
        _report(6, "contiguous folds partition + zero fit-time leakage",
                partition_ok and n_fits and leakage == 0,
                f"(100 partitions ok={partition_ok}, {n_fits} fits, "
                f"{leakage} leaks)")


class TestCriterion7Pca:
    @pytest.mark.slow
    def test_pca_properties_and_scatter(self, desk_run, tmp_path):
        rng = np.random.default_rng(21)
        ortho_ok = var_ok = True
        for _ in range(20):
            x = rng.normal(size=(200, 20)) @ rng.normal(size=(20, 20))
            basis = evalx.pca_fit(x, k=5)
            gram = basis.components @ basis.components.T
            ortho_ok &= np.max(np.abs(gram - np.eye(5))) < 1e-10
            centered = x - x.mean(axis=0)
            cov = centered.T @ centered / (x.shape[0] - 1)
            oracle = power_iteration_eigs(cov, 5)
            var_ok &= np.allclose(basis.explained_variance, oracle, atol=1e-8)

        results, _ = desk_run
        scatter_ok = sep_ok = True
        r0 = results[0]
        proj, is_labeled = r0.projections[("sad", "train")]
        evalx.write_scatter(tmp_path / "trial1_scatter_sad_train", proj, is_labeled)
        rows = list(csv.reader(open(tmp_path / "trial1_scatter_sad_train.csv")))[1:]
        scatter_ok &= (len(rows) == r0.train_rows.size
                       and sum(int(r[2]) for r in rows) == int(is_labeled.sum()))
        for r in results:
            proj, lab = r.projections[("sad", "train")]
            dist = np.linalg.norm(proj, axis=1)
            sep_ok &= dist[lab].mean() > dist[~lab].mean()
        _report(7, "PCA orthonormal/oracle variances + scatter + SAD separation",
                ortho_ok and var_ok and scatter_ok and sep_ok,
                f"(ortho={ortho_ok}, variances={var_ok}, scatter={scatter_ok}, "
                f"labeled-further={sep_ok})")


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "train": {"pretrain_epochs": 2, "main_epochs": 3, "batch_size": 32,
                      "layer_dims": [20, 12, 20], "seed": 0},
            "synth": {"n_rows": 400, "anomaly_rate": 0.03, "n_labeled": 6,
                      "seed": 0},
        }))
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", str(cfg_path),
                         "--out", str(gen)]) == 0
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli.main(["run", "--config", str(cfg_path),
                             "--data", str(gen / "lob.csv"),
                             "--labels", str(gen / "labels.txt"),
                             "--out", str(out), "--jobs", "1"])
            assert code == 0
            blobs.append((out / "results.csv").read_bytes())
        _report(8, "two identical runs give byte-identical results.csv",
                blobs[0] == blobs[1])
