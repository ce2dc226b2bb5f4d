"""Self-test of the benchmark itself (not of quadlie).

    python3 bench/selftest.py        # from the root of a quadlie checkout, about a minute

- Positive control: one job is given a wrong expected answer and another a
  wrong pinned digest; the checker must count both as failed.
- Every workload runs at the tiny size, untraced and traced, and must be
  correct and report every metric; the spans of a traced run must nest
  (the worker counts those that do not).
- BENCHMARK.json must name the same workloads, metrics and units as run.py.
- Outside a checkout (no ``src/quadlie``) run.py must fail without a result.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def positive_control(root):
    jobs = workloads.build_jobs("small_jobs", run.DEFAULT_SEED, "tiny")
    wrong = copy.deepcopy(jobs)
    cls = next(j for j in wrong if j["check"]["cmd"] == "classify")
    cls["check"]["row"] = cls["check"]["row"] % 8 + 1
    ver = next(j for j in wrong if j["check"]["cmd"] == "verify")
    ver["digest"] = "0" * 64
    result, notes, res = run.measure(root, "small_jobs", run.DEFAULT_SEED, 0, 0, "tiny", jobs=wrong)
    check(result["failed"] == 2 and not result["correct"], f"positive control: 2 injected failures counted ({notes['fail_ratio']})")
    check({f["job"] for f in res["failures"]} == {cls["id"], ver["id"]}, "positive control: the failures name the injected jobs")


def tiny_runs(root):
    e2e = {name for name, _ in run.END_TO_END}
    layers = {name for name, _ in run.PER_LAYER}
    for workload in workloads.WORKLOADS:
        result, notes, res = run.measure(root, workload, 1, 0, 0, "tiny")
        names = set(result["metrics"])
        n = res["attempted"]
        expected = e2e if n >= 2 * run.TAIL_BEYOND else e2e - {"job_tail_ms"}
        check(result["correct"] and names == expected, f"{workload} tiny untraced: correct, {len(names)} metrics, {n} jobs")
        result, notes, res = run.measure(root, workload, 1, 0, 1, "tiny")
        check(result["correct"] and set(result["metrics"]) == layers, f"{workload} tiny traced: correct and byte-identical, {len(layers)} metrics")
        check(res["spans"] > 0 and res["misnested"] == 0, f"{workload} tiny traced: {res['spans']} spans, each inside its parent's interval and job")


def benchmark_json(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END), "BENCHMARK.json lists the end-to-end metrics")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER), "BENCHMARK.json lists the per-layer metrics")


def outside_checkout():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "small_jobs", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "outside a checkout: non-zero exit and no result")


def main():
    root = run.find_root()
    benchmark_json(root)
    outside_checkout()
    positive_control(root)
    tiny_runs(root)
    print("selftest passed")


if __name__ == "__main__":
    main()
