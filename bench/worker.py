"""One benchmark process: runs a job list through ``quadlie.cli.main``.

run.py starts this script as a fresh single-threaded Python process from
the root of a quadlie checkout, writes a JSON spec to its stdin and reads
one JSON result line from its stdout.  Each job's stdout and stderr are
captured in memory; the job's input document is served as its stdin.

Spec keys: ``mode`` (probe, bench or trace), ``jobs`` (see workloads.py,
optionally with a pinned ``digest``), ``seconds`` and, for trace,
``warmup`` (jobs run once, unchecked, before the rest).

- probe: import quadlie.cli, read the spec, report when the first job is
  ready, exit.  run.py times this from process start as the set-up time.
- bench: run the job list in a closed loop, round after round, until the
  next round would end after ``seconds``.
- trace: the warm-up jobs, then traced and untraced rounds in turn for
  ``seconds`` (at least one of each), then one round that counts scalar
  operations.  It reports the number of spans and of misnested spans.

Times are reported both as measured and scaled to a reference speed with
the calibration loop of speed.py, run around and during every job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import quadlie.cli  # noqa: E402

import speed  # noqa: E402  (bench/speed.py, next to this script)
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5


def run_job(job):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(job["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = quadlie.cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code
    except Exception as exc:  # a crash is this job's failure, not the run's
        rc = f"uncaught {type(exc).__name__}: {exc}"
    sys.stdin = sys.__stdin__
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs rounds of the job list and checks every job's output."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.digests = [None] * len(jobs)  # stdout digest seen in the first round
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reports = {}
        self.speed = speed.Speed()

    def round(self, tracer=None):
        """Run every job once; returns the job latencies, measured and
        scaled to the reference speed (see speed.py)."""
        results, raw, scaled = [], [], []
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.start_job(i)
            result, secs, factor = self.speed.run(run_job, job)
            results.append(result)
            raw.append(secs)
            scaled.append(secs * factor)
            if tracer is not None:
                tracer.end_job(factor)
        first = self.digests[0] is None
        for i, (job, (rc, out, err)) in enumerate(zip(self.jobs, results)):
            self._check(i, job, rc, out, err, first)
        return raw, scaled

    def _check(self, i, job, rc, out, err, first):
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        reason = workloads.check_output(job["check"], rc, out)
        if reason is None and job.get("digest") not in (None, digest):
            reason = "stdout differs from the pinned digest"
        if first:
            self.digests[i] = digest
            if reason is None:
                for k, v in workloads.report_counts(job["check"], out).items():
                    self.reports[k] = self.reports.get(k, 0) + v
        elif reason is None and digest != self.digests[i]:
            reason = "stdout differs from the first round"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append({"job": job["id"], "reason": reason, "stderr": err[-300:]})

    def result(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "digests": {job["id"]: d for job, d in zip(self.jobs, self.digests)},
        }


def bench(runner, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        raw, scaled = runner.round()
        rounds.append({"raw": raw, "scaled": scaled})
        if time.perf_counter() - start + sum(raw) > seconds:
            return {"rounds": rounds}


def traced(runner, warmup, seconds):
    # The warm-up jobs (the workload's tiny job list, unchecked) pay for the
    # schema load and the first calls.  Then traced and untraced rounds
    # alternate, so that the overheads compare warm rounds with warm rounds;
    # the first traced round pins the stdout every later round must repeat.
    for job in warmup:
        run_job(job)
    layers, untraced = [], []
    spans = misnested = 0
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, scaled = runner.round(tracer)
        finally:
            tracer.uninstall()
        layers.append(
            {
                "wall": sum(scaled),
                "calls": dict(tracer.calls),
                "self_s": dict(tracer.self_s),
                "counts": dict(tracer.counts),
            }
        )
        spans += len(tracer.span_start)
        misnested += tracer.misnested()
        del tracer
        raw, scaled = runner.round()
        untraced.append(sum(scaled))
        if time.perf_counter() - start + 2 * sum(raw) > seconds:
            break
    counter = tracing.ScalarCounter()
    counter.install()
    try:
        counting = sum(runner.round()[1])
    finally:
        counter.uninstall()
    return {
        "untraced_walls": untraced,
        "layers": layers,
        "count_wall": counting,
        "scalar_ops": counter.ops,
        "reports": runner.reports,
        "spans": spans,
        "misnested": misnested,
    }


def main():
    spec = json.load(sys.stdin)
    jobs = spec["jobs"]
    ready = time.monotonic()
    loaded_from = os.path.dirname(os.path.abspath(quadlie.cli.__file__))
    expected = os.path.join(ROOT, "src", "quadlie")
    if os.path.realpath(loaded_from) != os.path.realpath(expected):
        print(f"quadlie was imported from {loaded_from}, not {expected}", file=sys.stderr)
        return 2
    out = {"ready": ready}
    if spec["mode"] != "probe":
        runner = Runner(jobs)
        if spec["mode"] == "bench":
            out.update(bench(runner, spec["seconds"]))
        else:
            out.update(traced(runner, spec["warmup"], spec["seconds"]))
        out.update(runner.result())
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
