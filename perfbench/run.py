"""Benchmark of the two commands lobsad users run: `lobsad run` and `lobsad score`.

    python3 perfbench/run.py --workload desk-run --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a lobsad source tree; it imports the package from
`src/` next to this directory and writes only under `.perfbench_work/`.

One process calls the workload's command in process, one at a time, in a
closed loop with one client. It starts another command only while that one
is expected to end within `--seconds` (so there is at least one command).
Inputs come from `--seed` and are made first, in a child process, so their
memory does not count towards the command's peak RSS.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` one
untraced and one traced command run, and the metrics are per-layer times and
counts from the traced one (see spans.py) plus the tracing overhead. The line
before it is a record with the environment stamp, every sample and the
metrics that BENCHMARK.json does not bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# BLAS threads are pinned, and recorded, so that every commit is measured with
# the same threading. One thread: at batch 64 two threads were slower and less
# steady than one on a 2-core machine.
BLAS_THREADS = 1
SETUP_REPEATS = 3  # inputs are made this many times per run; the median counts


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="desk", help="desk, or tiny for the self-test")
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_child(args, workload, scale) -> int:
    """Child process: make the inputs, and desk-score's reference run.

    The inputs are made SETUP_REPEATS times and the median counts; the
    reference run, about six times dearer, runs once."""
    from spans import Tracer
    from workloads import make_inputs, make_reference, reset_dir

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        inputs_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            inputs = reset_dir(args.setup_into)
            t0 = time.perf_counter()
            make_inputs(workload, args.seed, scale, inputs)
            inputs_s.append(time.perf_counter() - t0)
        reference_s = 0.0
        if workload.command == "score":
            t0 = time.perf_counter()
            make_reference(inputs)
            reference_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    print(json.dumps({"inputs_s": inputs_s, "reference_s": reference_s,
                      "spans": tracer.dump() if tracer else []}))
    return 0


def run_setup(args, inputs: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
           "--scale", args.scale, "--setup-into", str(inputs)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_command(workload, scale, inputs: Path, out: str, command: str, rc, last: bool,
                  first_results, checks: Counter) -> tuple[list[str], list | None]:
    """Output checks of one command, each run on its own. Returns the problems
    found and the command's results.json (None for score or on failure);
    `checks` counts the checks that passed."""
    import workloads as wl

    problems = []

    def attempt(kind, check, *check_args):
        try:
            value = check(*check_args)
        except (wl.CheckFailed, OSError, ValueError, KeyError) as exc:
            problems.append(f"{kind}: {exc}")
            return None
        checks[kind] += 1
        return value

    if rc != 0:
        problems.append(f"lobsad {command} " + ("raised" if rc is None else f"exited {rc}"))
        return problems, None
    checks["exit_0"] += 1
    if workload.command == "score":
        attempt("rescore_equal", wl.check_scores, os.path.join(out, "scores.csv"),
                str(inputs / "ref"), scale.n_rows)
        return problems, None
    results = attempt("results_complete", wl.read_results, out, workload)
    if results is not None and first_results is not None:
        attempt("results_repeat", wl.check_same_results, results, first_results)
    if last:  # the run's checkpoint must rescore to its stored scores
        attempt("rescore_equal", wl.rescore, str(inputs), out, scale.n_rows)
    return problems, results


def measure(args, workload, scale, work: Path) -> tuple[dict, dict]:
    from lobsad import cli
    from spans import Tracer, layer_metrics, load_spans, merge, self_times, subtree
    import workloads as wl

    inputs = work / "inputs"
    setup = run_setup(args, inputs)

    tracer = Tracer()
    walls, failures, ranks = [], [], None
    checks = Counter()  # output checks passed, by kind
    first_results = None
    t_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(walls) == 1
        out = wl.reset_dir(str(work / "out"))
        argv = wl.command_argv(workload, str(inputs), out)
        if traced:
            tracer.install()
        try:
            with tracer.span("bench.command") if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is a failed operation, not a dead benchmark
                    traceback.print_exc()
                    rc = None
                walls.append(time.perf_counter() - t0)
            if len(walls) == 1:
                # the first command's peak, as a user running it once sees it;
                # later commands can only add allocator fragmentation
                first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                last = len(walls) == 2
            else:  # stop unless another command would also end within --seconds
                last = time.perf_counter() - t_start + walls[-1] > args.seconds
            problems, results = check_command(workload, scale, inputs, out, argv[0], rc,
                                              last, first_results, checks)
            if first_results is None:
                first_results = results
            if problems:
                failures.append(f"command {len(walls)}: {'; '.join(problems)}")
        finally:
            if traced:
                tracer.uninstall()
        if last:
            break

    if workload.command == "score":  # the ranks of the run that wrote the checkpoint
        ranks = wl.mean_test_ranks(wl.read_results(str(inputs / "ref"), workload))
    elif first_results is not None:
        ranks = wl.mean_test_ranks(first_results)

    outcome = {"attempted": len(walls), "failed": len(failures), "failures": failures,
               "checks": dict(checks),
               "walls_s": walls, "ranks": ranks,
               "setup_s": statistics.median(setup["inputs_s"]) + setup["reference_s"],
               "setup_samples": {k: setup[k] for k in ("inputs_s", "reference_s")}}
    if args.trace == 0:
        outcome["peak_rss_mb"] = first_rss_mb
        return outcome, {}

    spans = merge(load_spans(setup["spans"]), tracer.spans)
    own = self_times(spans)
    if min(own) < -1e-6:
        raise RuntimeError("traced spans overlap: a child outlasts its parent")
    root = next(i for i, s in enumerate(spans) if s.name == "bench.command")
    cmd_spans = subtree(spans, root)
    try:
        layers = layer_metrics(spans)
    except RuntimeError:
        if not failures:
            raise
        layers = {}  # a failed command can skip layers; the result is incorrect anyway
    layers["trace.overhead_s"] = (walls[1] - walls[0], "s")
    # time of the traced command that no layer span covers
    layers["trace.untraced_s"] = (own[root], "s")
    outcome["trace_balance"] = {
        "traced_wall_s": walls[1],
        "layer_self_sum_s": sum(own[i] for i in cmd_spans if i != root),
        "untraced_s": own[root]}
    return outcome, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    if not (ROOT / "src" / "lobsad" / "__init__.py").is_file():
        print(f"error: no lobsad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from envstamp import stamp

    if args.workload not in wl.WORKLOADS or args.scale not in wl.SCALES:
        print(f"error: unknown workload {args.workload!r} or scale {args.scale!r}",
              file=sys.stderr)
        return 2
    workload, scale = wl.WORKLOADS[args.workload], wl.SCALES[args.scale]
    if args.setup_into:
        return setup_child(args, workload, scale)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome, layers = measure(args, workload, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med_wall = statistics.median(outcome["walls_s"])
    if args.trace == 0:
        metrics = {
            "setup_s": (outcome["setup_s"], "s"),
            "cmd_s": (med_wall, "s"),
            "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
        }
    else:
        metrics = layers
    # per-command names and unbounded metrics, for the record line
    extra = {"failed_frac": (outcome["failed"] / outcome["attempted"], "ratio")}
    if workload.command == "run":
        extra["run_s"] = (med_wall, "s")
    else:
        extra["score_rows_per_s"] = (scale.n_rows / med_wall, "rows/s")
    if outcome["ranks"] is not None:
        extra["sad_test_rank"] = (outcome["ranks"]["sad"], "rank")
        extra["svdd_test_rank"] = (outcome["ranks"]["svdd"], "rank")

    def fmt(ms):
        return {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "env": stamp(ROOT, BLAS_THREADS),
              "samples": dict(outcome["setup_samples"], command_s=outcome["walls_s"]),
              "checks": outcome["checks"], "failures": outcome["failures"],
              "extra": fmt(extra)}
    if "trace_balance" in outcome:
        record["trace_balance"] = outcome["trace_balance"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": fmt(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
