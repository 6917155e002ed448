import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsad import evalx
from lobsad.errors import DataError
from lobsad.evalx import PcaBasis, ScoreSet, TrialReport


def brute_force_ranks(scores):
    """Pairwise-count oracle: rank(i) = 1 + #{j: s_j > s_i} + (ties excl. self)/2."""
    scores = np.asarray(scores, dtype=float)
    ranks = np.empty(scores.size)
    for i, s in enumerate(scores):
        higher = np.sum(scores > s)
        ties = np.sum(scores == s) - 1
        ranks[i] = 1 + higher + ties / 2.0
    return ranks


def loop_ranks(scores):
    """Reference for fractional_ranks_desc: a Python loop over the tie runs."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


class TestRatioTest:
    def test_direct_arithmetic(self):
        ss = ScoreSet(np.array([1.0, 2.0, 3.0, 2.0, 4.0]), np.array([3, 4]))
        assert evalx.ratio_test(ss) == pytest.approx(1.5)

    def test_identical_multiset_gives_one(self):
        ss = ScoreSet(np.array([5.0, 5.0, 5.0, 5.0]), np.array([1, 2]))
        assert evalx.ratio_test(ss) == pytest.approx(1.0)

    def test_matches_two_mean_oracle(self, rng):
        scores = rng.random(500)
        labeled = rng.choice(500, size=20, replace=False)
        ss = ScoreSet(scores, labeled)
        mask = np.zeros(500, dtype=bool)
        mask[labeled] = True
        oracle = np.mean(scores[mask]) / np.mean(scores[~mask])
        assert evalx.ratio_test(ss) == pytest.approx(oracle, rel=1e-14)

    def test_empty_labeled_not_applicable(self):
        with pytest.raises(DataError):
            evalx.ratio_test(ScoreSet(np.array([1.0, 2.0]), np.array([], dtype=int)))
        with pytest.raises(DataError):
            evalx.ratio_test(ScoreSet(np.array([1.0, 2.0]), np.array([0, 1])))

    def test_zero_unlabeled_scores_not_applicable(self):
        ss = ScoreSet(np.array([1.0, 0.0, 0.0]), np.array([0]))
        with pytest.raises(DataError, match="every unlabeled score is 0"):
            evalx.ratio_test(ss)
        assert evalx.metrics_for(ss)["ratio_train"] is None

    @given(alpha=st.floats(min_value=1e-6, max_value=1e6),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, alpha, seed):
        r = np.random.default_rng(seed)
        scores = r.random(40) + 0.1
        labeled = r.choice(40, size=5, replace=False)
        base = evalx.ratio_test(ScoreSet(scores, labeled))
        scaled = evalx.ratio_test(ScoreSet(alpha * scores, labeled))
        assert scaled == pytest.approx(base, rel=1e-9)


class TestRankTest:
    def test_top_score_rank_one(self):
        ss = ScoreSet(np.array([0.9, 0.5, 0.7, 0.1]), np.array([0]))
        mean_rank, norm = evalx.rank_test(ss)
        assert mean_rank == 1.0
        assert norm == 0.25

    def test_fractional_tie_at_top(self):
        ss = ScoreSet(np.array([0.9, 0.9, 0.5, 0.1]), np.array([0]))
        mean_rank, _ = evalx.rank_test(ss)
        assert mean_rank == 1.5

    def test_matches_pairwise_oracle(self, rng):
        # quantized scores force ties
        scores = np.round(rng.random(1000), 2)
        labeled = rng.choice(1000, size=10, replace=False)
        mean_rank, norm = evalx.rank_test(ScoreSet(scores, labeled))
        oracle = brute_force_ranks(scores)[labeled].mean()
        assert mean_rank == pytest.approx(oracle, abs=1e-12)
        assert norm == pytest.approx(oracle / 1000, abs=1e-12)

    @given(scores=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.inf]),
                           max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_ranks_bit_identical_under_heavy_ties(self, scores):
        ranks = evalx.fractional_ranks_desc(np.array(scores))
        assert ranks.tobytes() == loop_ranks(scores).tobytes()
        assert ranks.tobytes() == brute_force_ranks(scores).tobytes()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        r = np.random.default_rng(seed)
        scores = r.random(60)
        labeled = r.choice(60, size=6, replace=False)
        base, _ = evalx.rank_test(ScoreSet(scores, labeled))
        warped, _ = evalx.rank_test(ScoreSet(np.exp(3 * scores) + 1, labeled))
        assert warped == base

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 50))
        scores = np.round(r.random(n), 1)
        labeled = r.choice(n, size=int(r.integers(1, n)), replace=False)
        mean_rank, norm = evalx.rank_test(ScoreSet(scores, labeled))
        assert 1.0 <= mean_rank <= n
        assert 0.0 < norm <= 1.0


def power_iteration_eigs(cov, k, iters=20_000, seed=0):
    """Independent eigen-solver: power iteration with deflation."""
    rng = np.random.default_rng(seed)
    cov = cov.copy()
    eigs = []
    for _ in range(k):
        v = rng.normal(size=cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = cov @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        lam = float(v @ cov @ v)
        eigs.append(lam)
        cov = cov - lam * np.outer(v, v)
    return np.array(eigs)


class TestPca:
    def test_line_in_2d(self, rng):
        t = rng.normal(size=200)
        direction = np.array([3.0, 4.0]) / 5.0
        x = np.outer(t, direction) + np.array([1.0, 2.0])
        basis = evalx.pca_fit(x, k=2)
        assert abs(abs(basis.components[0] @ direction) - 1.0) < 1e-10
        assert basis.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_cloud(self, rng):
        x = rng.standard_normal((20_000, 3))
        basis = evalx.pca_fit(x, k=3)
        v = basis.explained_variance
        assert v[0] / v[2] < 1.1

    def test_orthonormal_components(self, rng):
        x = rng.normal(size=(200, 20)) @ rng.normal(size=(20, 20))
        basis = evalx.pca_fit(x, k=5)
        gram = basis.components @ basis.components.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_variances_match_power_iteration(self, rng):
        x = rng.normal(size=(50, 5))
        basis = evalx.pca_fit(x, k=3)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
        oracle = power_iteration_eigs(cov, 3)
        assert np.allclose(basis.explained_variance, oracle, atol=1e-8)

    def test_variances_nonincreasing(self, rng):
        basis = evalx.pca_fit(rng.normal(size=(100, 8)), k=8)
        assert np.all(np.diff(basis.explained_variance) <= 1e-12)

    def test_projection_matches_variances(self, rng):
        x = rng.normal(size=(500, 6)) * np.arange(1, 7)
        basis = evalx.pca_fit(x, k=2)
        proj = evalx.pca_project(basis, x)
        proj_var = proj.var(axis=0, ddof=1)
        assert np.allclose(proj_var, basis.explained_variance, rtol=1e-10)

    def test_projection_preserves_subspace_inner_products(self, rng):
        x = rng.normal(size=(40, 5))
        basis = evalx.pca_fit(x, k=5)  # full basis
        centered = x - basis.mean
        proj = evalx.pca_project(basis, x)
        assert np.allclose(proj @ proj.T, centered @ centered.T, atol=1e-10)


def _make_report(trial=1):
    return TrialReport(
        trial=trial, fold=trial - 1, repeat=0,
        metrics={
            "svdd": {"ratio_train": 2.0, "ratio_test": 1.5, "rank_train": 10.0,
                     "rank_test": 12.0, "normalized_rank_train": 0.1,
                     "normalized_rank_test": 0.12},
            "sad": {"ratio_train": 3.0, "ratio_test": 2.5, "rank_train": 4.0,
                    "rank_test": 6.0, "normalized_rank_train": 0.04,
                    "normalized_rank_test": 0.06},
        },
        runtime_s=1.0, config={"seed": 0})


class TestExport:
    def test_empty_reports(self, tmp_path):
        evalx.export_report([], tmp_path)
        rows = list(csv.reader(open(tmp_path / "results.csv")))
        assert rows == [["trial", "fold", "model", "split", "metric", "value"]]
        assert json.load(open(tmp_path / "results.json")) == []

    def test_one_trial_eight_metric_rows(self, tmp_path):
        evalx.export_report([_make_report()], tmp_path)
        rows = list(csv.reader(open(tmp_path / "results.csv")))[1:]
        assert len(rows) == 8  # 2 models x 2 splits x 2 tests

    def test_json_csv_cross_check(self, tmp_path):
        reports = [_make_report(1), _make_report(2)]
        evalx.export_report(reports, tmp_path)
        docs = json.load(open(tmp_path / "results.json"))
        csv_rows = list(csv.reader(open(tmp_path / "results.csv")))[1:]
        for trial, fold, model, split, metric, value in csv_rows:
            doc = next(d for d in docs if d["trial"] == int(trial))
            assert float(value) == doc["metrics"][model][f"{metric}_{split}"]

    def test_not_applicable_written_as_na(self, tmp_path):
        rep = _make_report()
        rep.metrics["svdd"]["ratio_test"] = None
        evalx.export_report([rep], tmp_path)
        rows = list(csv.reader(open(tmp_path / "results.csv")))[1:]
        na = [r for r in rows if r[2] == "svdd" and r[3] == "test" and r[4] == "ratio"]
        assert na[0][5] == "NA"

    def test_failed_rewrite_keeps_earlier_tables(self, tmp_path):
        evalx.export_report([_make_report(1)], tmp_path)
        bad = _make_report(2)
        bad.config["unencodable"] = object()
        with pytest.raises(TypeError):
            evalx.export_report([_make_report(1), bad], tmp_path)
        assert [d["trial"] for d in json.load(open(tmp_path / "results.json"))] == [1]
        rows = list(csv.reader(open(tmp_path / "results.csv")))[1:]
        assert {r[0] for r in rows} == {"1"}
        assert sorted(tmp_path.glob("*.tmp")) == []

    def test_scatter_csv_bytes_match_row_formatting(self, tmp_path, rng):
        # the reference formats each row of the 2-D projection on its own;
        # more rows than one write block, and floats whose repr has a sign, an
        # exponent or neither
        proj = rng.normal(size=(5000, 2)) * 10.0 ** rng.integers(-20, 20, size=(5000, 1))
        proj[:3] = [[-0.0, 1e-05], [1e+16, 0.0], [-1e+16, -1e-05]]
        is_labeled = rng.random(5000) < 0.1
        evalx.write_scatter(tmp_path / "s", proj, is_labeled)
        want = "pc1,pc2,is_labeled\r\n" + "".join(
            f"{p[0]!r},{p[1]!r},{int(lab)}\r\n" for p, lab in zip(proj.tolist(), is_labeled))
        assert (tmp_path / "s.csv").read_bytes() == want.encode()
        assert (tmp_path / "s.csv").read_bytes().startswith(
            b"pc1,pc2,is_labeled\r\n-0.0,1e-05,0\r\n1e+16,0.0,")

    def test_scatter_export(self, tmp_path, rng):
        proj = rng.normal(size=(30, 2))
        is_labeled = np.zeros(30, dtype=bool)
        is_labeled[[3, 7]] = True
        evalx.write_scatter(tmp_path / "trial1_scatter_sad_train", proj, is_labeled,
                            svg=True)
        rows = list(csv.reader(open(tmp_path / "trial1_scatter_sad_train.csv")))
        assert rows[0] == ["pc1", "pc2", "is_labeled"]
        assert len(rows) == 31
        assert sum(int(r[2]) for r in rows[1:]) == 2
        assert (tmp_path / "trial1_scatter_sad_train.svg").exists()
