import collections
import csv
import json

import numpy as np
import pytest

from lobsad import data, evalx, harness, nnet, objectives

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_RESULTS: list[str] = []
# the desk-scale experiment's processes, BLAS threads, wall time and peak RSS, likewise
DESK_RUN: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
    for line in DESK_RUN:
        terminalreporter.write_line(f"desk experiment: {line}")


def read_rows(path) -> list[list[str]]:
    """Every row of a CSV file, its header first; the file is closed."""
    with open(path) as fh:
        return list(csv.reader(fh))


def read_json(path):
    """The JSON document in a file; the file is closed."""
    with open(path) as fh:
        return json.load(fh)


def finite_difference_grad(loss_fn, model, h=1e-5):
    """Central finite differences over every parameter; independent oracle."""
    flat = model.params
    grad = np.empty(flat.size)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss_fn(nnet.set_flat_params(model, up))
                   - loss_fn(nnet.set_flat_params(model, down))) / (2 * h)
    return grad


def relative_error(a, b, floor=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / denom


def identity_model(dim: int) -> nnet.MlpModel:
    """Single linear layer acting as the identity map."""
    model = nnet.mlp_init(0, layer_dims=(dim, dim))
    return nnet.set_flat_params(
        model, np.concatenate([np.eye(dim).ravel(), np.zeros(dim)]))


def sample_safe_model_batch(rng, dims, batch_rows=4, min_preact=1e-4):
    """Random model + batch whose pre-activations sit away from the ReLU kink,
    so central differences at h=1e-5 stay on one side of every hinge."""
    for _ in range(200):
        seed = int(rng.integers(0, 2**31))
        model = nnet.mlp_init(seed, layer_dims=dims)
        flat = model.params + 0.1 * rng.standard_normal(model.n_params())
        model = nnet.set_flat_params(model, flat)
        batch = rng.normal(size=(batch_rows, dims[0]))
        _, tape = nnet.forward(model, batch)
        # the tape keeps layer inputs only: recompute each pre-activation
        # with the forward pass's own arithmetic
        preacts = [np.dot(h, lp.weights.T) + lp.bias
                   for h, lp in zip(tape, model.layers)]
        if min(np.abs(z).min() for z in preacts) > min_preact:
            return model, batch
    raise AssertionError("could not sample a kink-safe model/batch")


def run_trials(dataset, cfg, on_trial=None, **kwargs) -> list:
    """`harness.run_experiment`'s trials, collected as they reach its
    `on_trial` (then passed on to `on_trial`, when given) and sorted by trial."""
    results = []

    def collect(result):
        results.append(result)
        if on_trial is not None:
            on_trial(result)
    harness.run_experiment(dataset, cfg, on_trial=collect, **kwargs)
    return sorted(results, key=lambda r: r.report.trial)


def record_fits(monkeypatch) -> dict:
    """Record every statistics fit of a run made in this process: the row sets
    given to `data.fit_normalizer` and the arrays given to `evalx.pca_fit`,
    which `harness` looks up through their modules at call time."""
    fits = {"normalizer": [], "pca": []}
    fit_normalizer, pca_fit = data.fit_normalizer, evalx.pca_fit

    def normalizer_spy(features, rows):
        fits["normalizer"].append(np.array(rows))
        return fit_normalizer(features, rows)

    def pca_spy(outputs, k):
        fits["pca"].append(np.array(outputs))
        return pca_fit(outputs, k)
    monkeypatch.setattr(data, "fit_normalizer", normalizer_spy)
    monkeypatch.setattr(evalx, "pca_fit", pca_spy)
    return fits


def fit_leaks(fits: dict, results, features: np.ndarray) -> int:
    """The number of missing, extra or leaking fits in `record_fits`'s record
    of a run made in this process. Fit k of the normalizer must be trial k's
    train rows, disjoint from its test rows. The PCA fits must be, trial by
    trial, bit-equal to the embeddings of the trial's normalized train rows,
    `objectives.embed(model, apply_normalizer(norm, features)[train_rows])`,
    one per model in any order: a trial run as tasks fits SAD's first."""
    with nnet.one_blas_thread():  # the thread count the run embedded at
        want_pca = [[objectives.embed(model, data.apply_normalizer(r.normalizer, features)
                                      [r.train_rows]) for model in r.models.values()]
                    for r in results]
    leaks = (abs(len(fits["normalizer"]) - len(results))
             + abs(len(fits["pca"]) - sum(map(len, want_pca))))
    for rows, r in zip(fits["normalizer"], results):
        leaks += not (np.array_equal(rows, r.train_rows)
                      and not np.isin(rows, r.test_rows).any())
    got_pca = iter(fits["pca"])
    for want in want_pca:
        got = collections.Counter((a.shape, a.tobytes()) for _, a in zip(want, got_pca))
        leaks += sum((collections.Counter((a.shape, a.tobytes()) for a in want)
                      - got).values())
    return leaks


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
