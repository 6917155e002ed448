"""Self-test of the benchmark at tiny scale (600 rows, 1 epoch per phase).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py, the same code as a
desk-scale run, with --trace 0 and --trace 1. Checks that each prints every
metric BENCHMARK.json names, with its unit, that every output check ran and
passed, and that the record line carries the environment stamp and the
unbounded metrics. Last, it checks that run.py fails without printing a result
in a tree that holds only BENCHMARK.json and perfbench/. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_work" / "selftest-bare"

EXPECTED_CHECKS = {
    "run": {"exit_0", "results_complete", "results_repeat", "rescore_equal"},
    "score": {"exit_0", "rescore_equal"},
}
ENV_KEYS = {"git_sha", "src_sha256", "python", "numpy", "blas", "blas_threads",
            "nproc", "cpu_count", "cpu_model"}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: not correct: {result} {record['failures']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {got} != {want}")
    bad = [k for k, v in result["metrics"].items() if not is_number(v.get("value"))]
    if bad:
        problems.append(f"{where}: non-numeric metrics {bad}")
    command = "score" if workload.endswith("score") else "run"
    missing = EXPECTED_CHECKS[command] - set(record["checks"])
    if missing:
        problems.append(f"{where}: output checks that did not run: {sorted(missing)}")
    if set(record["env"]) != ENV_KEYS:
        problems.append(f"{where}: env stamp keys {sorted(record['env'])}")
    extra = {"failed_frac", "sad_test_rank", "svdd_test_rank",
             "run_s" if command == "run" else "score_rows_per_s"}
    if set(record["extra"]) != extra or not all(
            is_number(v["value"]) and v["unit"] for v in record["extra"].values()):
        problems.append(f"{where}: record metrics {record['extra']}")
    return problems


def check_bare() -> list[str]:
    """run.py must fail, and print no result, without the package sources."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(ROOT / "perfbench", BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(BARE, "desk-run", 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            problems += found
            print(f"{w['name']} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
    found = check_bare()
    problems += found
    print(f"bare tree: {'FAIL' if found else 'ok'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
