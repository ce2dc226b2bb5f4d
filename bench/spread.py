"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs run.py once per seed on each workload, for the run_seconds of
BENCHMARK.json, then prints, per metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.

    python3 bench/spread.py --workloads nichols_q --seeds 5
    python3 bench/spread.py --seeds 10 --baseline bench/baseline.json

With ``--baseline`` it also makes one traced run per workload and writes
the medians, quartiles and the per-layer table, with the Python version,
commit, CPU count and seeds, to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def invoke(workload, seed, seconds, trace):
    """The result object run.py prints for one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--baseline", help="write the baseline to this file")
    args = ap.parse_args()
    with open(os.path.join(run.find_root(), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    table = {}
    for workload in args.workloads.split(","):
        runs = [invoke(workload, seed, seconds, 0) for seed in seeds]
        table[workload] = {}
        for name, unit in run.END_TO_END:
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(vals) < 2:
                continue
            s = summarize(vals)
            s["unit"] = unit
            s["values"] = vals
            table[workload][name] = s
            print(f"{workload:12s} {name:12s} median {s['median']:10.4f} {unit:3s} q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f}", flush=True)
    if args.baseline:
        traced = {}
        for workload in table:
            result = invoke(workload, seeds[0], seconds, 1)
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        doc = {
            "python": platform.python_version(),
            "commit": commit(),
            "nproc": os.cpu_count(),
            "seeds": seeds,
            "seconds": seconds,
            "end_to_end": table,
            "per_layer_seed": seeds[0],
            "per_layer": traced,
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
