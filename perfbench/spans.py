"""Span tracing around the public functions of each lobsad module.

`Tracer.install()` replaces module attributes such as `lobsad.nnet.forward`
with wrappers that record a span (name, start, end, parent) and the work the
call did (rows, steps, bytes). Every lobsad call site looks these functions up
on their module at call time, so the wrappers see every call; nothing in the
package itself changes. `uninstall()` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    counts: dict = field(default_factory=dict)


def _rows_of(arg):
    return lambda a, result: {"rows": int(a[arg].shape[0])}


def _epochs_steps(epochs_field, rows_arg):
    def count(a, result):
        cfg = a["cfg"]
        epochs = getattr(cfg, epochs_field)
        per_epoch = math.ceil(a[rows_arg].shape[0] / cfg.batch_size)
        return {"epochs": epochs, "steps": epochs * per_epoch}
    return count


# module -> {function: counter(bound arguments, result) -> counts, or None}.
# The public functions the `run`, `score` and `generate` commands reach. Some
# feed no metric of their own; they are wrapped so that their time is not
# counted as the self time of their caller.
LAYERS = {
    "data": {
        "generate_synthetic": None,
        "write_lob_csv": None,
        "write_labels": None,
        "write_ground_truth": None,
        "load_lob_csv": lambda a, result: {"rows": result.n_rows},
        "load_labels": None,
        "load_ground_truth": None,
        "fit_normalizer": None,
        "apply_normalizer": None,
    },
    "nnet": {
        "mlp_init": None,
        "forward": _rows_of("batch"),
        "save_checkpoint": None,
        "load_checkpoint": None,
    },
    "objectives": {
        "init_center": None,
        "anomaly_score": _rows_of("points"),
    },
    "harness": {
        "run_experiment": None,
        "run_trial": None,
        "pretrain": _epochs_steps("pretrain_epochs", "train_features"),
        "train_main": _epochs_steps("main_epochs", "unlabeled"),
    },
    "evalx": {
        "metrics_for": None,
        "ratio_test": None,
        "rank_test": None,
        "fractional_ranks_desc": None,
        "pca_fit": None,
        "pca_project": None,
        "export_report": lambda a, result: {
            "bytes": sum(os.path.getsize(p) for p in result)},
    },
    "cli": {
        "load_run_config": None,
        "cmd_generate": None,
        "cmd_run": None,
        "cmd_score": None,
    },
}


class Tracer:
    """Keeps spans in memory; one tracer per process, installed at most once."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._open[-1] if self._open else None))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, qualname: str, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            name = qualname
            if qualname == "harness.train_main":
                name = f"{qualname}.{bound.arguments['mode']}"
            elif qualname == "harness.run_experiment" and \
                    bound.arguments.get("on_trial") is not None:
                # the callback is `lobsad run`'s per-trial checkpoint and score
                # dump: cli work, so it gets a span of its own
                on_trial = bound.arguments["on_trial"]

                def traced_on_trial(res):
                    with self.span("cli.cmd_run.on_trial"):
                        return on_trial(res)
                bound.arguments["on_trial"] = traced_on_trial
            with self.span(name) as sp:
                result = fn(*bound.args, **bound.kwargs)
            if counter is not None:
                sp.counts = counter(bound.arguments, result)
            return result
        return traced

    def install(self) -> None:
        for mod_name, funcs in LAYERS.items():
            module = importlib.import_module(f"lobsad.{mod_name}")
            for fn_name, counter in funcs.items():
                fn = getattr(module, fn_name)
                self._originals.append((module, fn_name, fn))
                setattr(module, fn_name,
                        self._wrap(f"{mod_name}.{fn_name}", fn, counter))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals.clear()

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]


def load_spans(rows: list) -> list[Span]:
    return [Span(*row) for row in rows]


def merge(*span_lists: list[Span]) -> list[Span]:
    """Concatenate span lists from different processes, re-basing parents."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        out.extend(Span(s.name, s.start, s.end,
                        None if s.parent is None else s.parent + base, s.counts)
                   for s in spans)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time of the child spans it covers. Calls are
    sequential in one thread, so children never overlap each other."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of `root` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics over every span of a traced run, as name -> (value, unit)."""
    total, own = defaultdict(float), defaultdict(float)
    calls, counts = Counter(), defaultdict(Counter)
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        counts[s.name].update(s.counts)

    def need(name):
        if not calls[name]:
            raise RuntimeError(f"traced run made no call to {name}")
        return name

    train = [need("harness.pretrain"), need("harness.train_main.svdd"),
             need("harness.train_main.sad")]
    steps = sum(counts[n]["steps"] for n in train)
    m = {
        "data.load_lob_csv.s": (total[need("data.load_lob_csv")], "s"),
        "data.load_lob_csv.rows_per_s": (
            counts["data.load_lob_csv"]["rows"] / total["data.load_lob_csv"], "rows/s"),
        "data.generate_synthetic.s": (total[need("data.generate_synthetic")], "s"),
        "data.write_lob_csv.s": (total[need("data.write_lob_csv")], "s"),
    }
    for name in train:
        m[f"{name}.epoch_s"] = (total[name] / counts[name]["epochs"], "s")
    m["harness.steps"] = (steps, "count")
    m["harness.steps_per_s"] = (steps / sum(total[n] for n in train), "steps/s")
    m["harness.run_trial.self_s"] = (own[need("harness.run_trial")], "s")
    m["objectives.init_center.s"] = (total[need("objectives.init_center")], "s")
    score = need("objectives.anomaly_score")
    m["objectives.anomaly_score.s"] = (total[score], "s")
    m["objectives.anomaly_score.rows_per_s"] = (
        counts[score]["rows"] / total[score], "rows/s")
    fwd = need("nnet.forward")
    m["nnet.forward.calls"] = (calls[fwd], "count")
    m["nnet.forward.rows"] = (counts[fwd]["rows"], "count")
    m["nnet.forward.s"] = (total[fwd], "s")
    for name in ("nnet.save_checkpoint", "nnet.load_checkpoint", "evalx.rank_test",
                 "evalx.fractional_ranks_desc", "evalx.pca_fit",
                 "evalx.pca_project", "evalx.export_report"):
        m[f"{name}.s"] = (total[need(name)], "s")
    m["evalx.export_report.bytes"] = (counts["evalx.export_report"]["bytes"], "bytes")
    m["cli.cmd_run.self_s"] = (
        own[need("cli.cmd_run")] + own["cli.cmd_run.on_trial"], "s")
    m["cli.cmd_score.self_s"] = (own[need("cli.cmd_score")], "s")
    return m
