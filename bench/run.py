"""The quadlie benchmark.

Run from the root of a quadlie checkout (the directory holding ``src/``):

    python3 bench/run.py --workload envelope_q --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload, with
``--trace 1`` the per-layer metrics of a separate traced run.  Each metric is
printed on its own line as ``name value unit``; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload both ways and prints every metric.

Every measurement runs in a fresh Python process (worker.py) that imports
``quadlie.cli`` from ``src/`` and calls ``quadlie.cli.main(argv)`` in process,
one job after the other.  Inputs come from workloads.py and depend only on
``--seed``.  Stdlib only; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

import speed  # noqa: E402  (bench/speed.py, next to this script)
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 8  # pairs of fresh processes timed for setup_s, before and again after the measured one
DEADLINE_S = 170  # the whole run, set-up included
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("fields.scalar_ops", "count"),
    ("linalg.sparse_insert.calls", "count"),
    ("linalg.sparse_insert.self_s", "s"),
    ("linalg.sparse_insert.useful_ratio", "ratio"),
    ("linalg.sparse_reduce.calls", "count"),
    ("linalg.sparse_reduce.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.minimal_polynomial.self_s", "s"),
    ("braided.braiding_at.calls", "count"),
    ("braided.lift_to_slot.self_s", "s"),
    ("braided.split_minpoly.self_s", "s"),
    ("tensoralg.block_braiding.calls", "count"),
    ("tensoralg.block_braiding.self_s", "s"),
    ("tensoralg.coproduct.self_s", "s"),
    ("tensoralg.braided_mul_split.calls", "count"),
    ("tensoralg.braided_mul_split.self_s", "s"),
    ("envelope.ideal_truncation.calls", "count"),
    ("envelope.ideal_truncation.self_s", "s"),
    ("envelope.ideal_truncation.rank", "count"),
    ("envelope.nf_split.self_s", "s"),
    ("envelope.sq_graded_dims.self_s", "s"),
    ("envelope.bg_conditions.self_s", "s"),
    ("envelope.coproduct_descends.self_s", "s"),
    ("nichols.quantum_symmetrizer.self_s", "s"),
    ("nichols.braid_lift.calls", "count"),
    ("nichols.primitives_of_quotient.self_s", "s"),
    ("brackets.verify_lifted.calls", "count"),
    ("brackets.verify_lifted.self_s", "s"),
    ("brackets.solve_linear_bracket_space.self_s", "s"),
    ("classify.canonical_form.calls", "count"),
    ("classify.canonical_form.self_s", "s"),
    ("appendix.rank2_case_families.self_s", "s"),
    ("appendix.rank1_eliminated_branches.self_s", "s"),
    ("appendix.random_survey.self_s", "s"),
    ("appendix.case_families.candidates", "count"),
    ("appendix.case_families.yb_survivor_ratio", "ratio"),
    ("appendix.random_survey.verified_ratio", "ratio"),
    ("jsonio.load_input.self_s", "s"),
    ("jsonio.validate_input.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.count_overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, a crash or a timeout."""


def find_root():
    """The checkout root (the working directory), which must hold the program."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quadlie", "cli.py")):
        raise BenchError(f"no quadlie source under {root}/src; run from the root of a quadlie checkout")
    return root


def pinned_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def build_jobs(workload, seed, size):
    """The job list, with the pinned stdout digest of each job at the default seed."""
    jobs = workloads.build_jobs(workload, seed, size)
    if seed == DEFAULT_SEED and size == "full":
        pins = pinned_digests().get(workload, {})
        for job in jobs:
            job["digest"] = pins.get(job["id"])
    return jobs


def run_worker(root, spec, deadline):
    """Start worker.py fresh, send it the spec; returns its result, with
    setup_s the raw seconds from the start to its first job being ready."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        cwd=root,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['mode']} process did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} process exited with {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - start
    return res


def timed_probe(root, probe, deadline):
    """(set-up seconds at the reference speed, raw set-up seconds) of one
    fresh worker, scaled by the start of a reference process just before it."""
    ref = speed.reference_start()
    raw = run_worker(root, probe, deadline)["setup_s"]
    return raw * speed.REF_START_S / ref, raw


def tail(latencies):
    """(value, percentile) of the highest percentile leaving TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(res, setups):
    """End-to-end values at the reference speed, and notes with the raw ones.

    A job's latency is its median over the rounds of the run; job_p50_ms and
    job_tail_ms are taken over these, so they do not depend on the number of
    rounds the machine's speed allowed."""
    rounds = res["rounds"]
    lat = [statistics.median(x) for x in zip(*(r["scaled"] for r in rounds))]
    raw_lat = [statistics.median(x) for x in zip(*(r["raw"] for r in rounds))]
    walls = [sum(r["scaled"]) for r in rounds]
    raw_walls = [sum(r["raw"]) for r in rounds]
    counts = f"n={len(lat)} jobs x {len(rounds)} rounds"
    values = {
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000 * statistics.median(lat),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    notes = {
        "wall_s": f"raw {statistics.median(raw_walls):.4g} s; median of {len(rounds)} rounds of {len(lat)} jobs",
        "job_p50_ms": f"raw {1000 * statistics.median(raw_lat):.4g} ms; {counts}",
        "setup_s": f"raw {statistics.median(r for _, r in setups):.4g} s; median of {len(setups)} fresh processes, each after a reference process",
        "peak_rss_mb": "worker process",
    }
    if len(lat) >= 2 * TAIL_BEYOND:
        value, pct = tail(lat)
        values["job_tail_ms"] = 1000 * value
        notes["job_tail_ms"] = f"raw {1000 * tail(raw_lat)[0]:.4g} ms; p{pct:.1f}, {counts}"
    return values, notes


def _ratio(num, den):
    return num / den if den else 0.0


def _span(name):
    """The span a per-layer metric is read from."""
    return name.rpartition(".")[0]


def layer_values(layer, res):
    """Every per-layer metric of one traced round."""
    calls, self_s, counts, reports = layer["calls"], layer["self_s"], layer["counts"], res["reports"]
    special = {
        "fields.scalar_ops": res["scalar_ops"],
        "linalg.sparse_insert.useful_ratio": _ratio(counts.get("linalg.sparse_insert.useful", 0), calls.get("linalg.sparse_insert", 0)),
        "envelope.ideal_truncation.rank": counts.get("envelope.ideal_truncation.rank", 0),
        "appendix.case_families.candidates": reports.get("case_families.candidates", 0),
        "appendix.case_families.yb_survivor_ratio": _ratio(
            counts.get("appendix.case_families.yb_survivors", 0), counts.get("appendix.case_families.shapes", 0)
        ),
        "appendix.random_survey.verified_ratio": _ratio(
            reports.get("random_survey.verified", 0), reports.get("random_survey.brackets_checked", 0)
        ),
        "trace.overhead_s": layer["wall"] - statistics.median(res["untraced_walls"]),
        "trace.count_overhead_s": res["count_wall"] - statistics.median(res["untraced_walls"]),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span = _span(name)
        out[name] = calls.get(span, 0) if name.endswith(".calls") else self_s.get(span, 0.0)
    return out


def per_layer(res):
    """Per-layer values, the median over the traced rounds.  A layer the
    workload does not reach reads 0, and its note says so."""
    rounds = [layer_values(layer, res) for layer in res["layers"]]
    values = {name: statistics.median(r[name] for r in rounds) for name, _ in PER_LAYER}
    walls = [layer["wall"] for layer in res["layers"]]
    untraced = statistics.median(res["untraced_walls"])
    pairs = f"median of {len(walls)} traced and {len(res['untraced_walls'])} untraced warm rounds"
    notes = {
        "trace.overhead_s": f"traced {statistics.median(walls):.3f} s - untraced {untraced:.3f} s; {pairs}",
        "trace.count_overhead_s": f"counting {res['count_wall']:.3f} s - untraced {untraced:.3f} s",
    }
    reached = set(res["layers"][0]["calls"])
    for name, _ in PER_LAYER:
        if name.endswith((".calls", ".self_s")) and _span(name) not in reached:
            notes[name] = "not reached by this workload"
    return values, notes


def measure(root, workload, seed, seconds, trace, size="full", jobs=None):
    """One benchmark run: the result object and a note per metric."""
    deadline = time.monotonic() + DEADLINE_S
    if jobs is None:
        jobs = build_jobs(workload, seed, size)
    if trace:
        warmup = workloads.build_jobs(workload, seed, "tiny")
        res = run_worker(root, {"mode": "trace", "jobs": jobs, "warmup": warmup, "seconds": seconds}, deadline)
        if res["misnested"]:
            raise BenchError(f"{res['misnested']} of {res['spans']} traced spans lie outside their parent span")
        values, notes = per_layer(res)
        units = PER_LAYER
    else:
        probe = {"mode": "probe", "jobs": jobs}
        run_worker(root, probe, deadline)  # warm-up: byte-code caches, file cache
        speed.reference_start()
        setups = [timed_probe(root, probe, deadline) for _ in range(SETUP_PROBES)]
        res = run_worker(root, {"mode": "bench", "jobs": jobs, "seconds": seconds}, deadline)
        setups += [timed_probe(root, probe, deadline) for _ in range(SETUP_PROBES)]
        values, notes = end_to_end(res, setups)
        units = END_TO_END
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units if name in values},
    }
    notes["fail_ratio"] = f"{res['failed']}/{res['attempted']} = {_ratio(res['failed'], res['attempted']):.4g}"
    return result, notes, res


def print_metrics(workload, result, notes):
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:12s} {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{workload:12s} {'fail_ratio':44s} {notes['fail_ratio']}")


def pin(root):
    """Write the stdout digest of every job at the default seed to digests.json."""
    pins = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.build_jobs(workload, DEFAULT_SEED, "full")
        res = run_worker(root, {"mode": "bench", "jobs": jobs, "seconds": 0}, time.monotonic() + DEADLINE_S)
        if res["failed"]:
            raise BenchError(f"{workload}: {res['failures']}")
        pins[workload] = res["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true", help="rewrite digests.json from the default seed and exit")
    args = ap.parse_args(argv)
    try:
        root = find_root()
        if args.pin_digests:
            pin(root)
            return 0
        if args.workload != "all":
            result, notes, res = measure(root, args.workload, args.seed, args.seconds, args.trace)
            for f in res["failures"]:
                print(f"FAILED {f['job']}: {f['reason']} {f['stderr']}".rstrip(), file=sys.stderr)
            print_metrics(args.workload, result, notes)
            print(json.dumps(result))
            return 0
        combined = {}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result, notes, _ = measure(root, workload, args.seed, args.seconds, trace)
                print_metrics(workload, result, notes)
                combined.setdefault(workload, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
                acc = combined[workload]
                acc["correct"] &= result["correct"]
                acc["attempted"] += result["attempted"]
                acc["failed"] += result["failed"]
                acc["metrics"].update(result["metrics"])
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
