"""Time-to-verdict benchmark for relext.

    python3 bench/run.py --workload verify-chain --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each pass over a workload runs in a fresh worker process (worker.py), one at
a time.  Passes repeat until the next one would overrun `--seconds`; every
metric is the median over the passes.  Every operation's output is checked
(check.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, from traced passes alternating with plain ones, plus one counting
pass for the Field call counts.  An untraced run also launches workers
that stop before the first operation, so that `setup_s` is a median over
at least SETUP_SAMPLES set-ups.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170  # a whole run must end within this, whatever --seconds says
SETUP_PER_ROUND = 2  # set-up-only workers launched before each round of passes
SETUP_SAMPLES = 12  # set-ups behind the setup_s median, at least
# setup_s is in seconds on a host where a bare interpreter starts and stops
# in this time, about the fast state of the host the benchmark was written on
REF_START_S = 0.04
# relext iterates over sets of names; a fixed hash seed makes the order, and
# with it the amount of work, repeat exactly
ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {}
for _layer in tracer.LAYER_ORDER:
    PER_LAYER[_layer + ".calls"] = "count"
    PER_LAYER[_layer + ".self_s"] = "s"
PER_LAYER.update({
    "exactla.rref.calls": "count",
    "exactla.rref.self_s": "s",
    "exactla.rref.cells": "count",
    "exactla.rref.rank_frac": "ratio",
    "exactla.field_ops": "count",
    "exactla.field.useful_frac": "ratio",
    "bimod.hom.unknowns": "count",
    "extensions.lift.self_s": "s",
    "bimod.construct.calls": "count",
    "bimod.construct.self_s": "s",
    "extensions.split.calls": "count",
    "algebra.build.calls": "count",
    "algebra.build.dim_sum": "count",
    "hochschild.bar.self_s": "s",
    "hochschild.bar.c1_dim": "count",
    "hochschild.derivation.self_s": "s",
    "trace.overhead_ratio": "ratio",
})


class BenchError(Exception):
    pass


def _bare_start():
    """Wall seconds to start and stop an interpreter that does nothing."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True)
    return time.monotonic() - t0


def run_pass(workload, seed, mode, deadline):
    """Launch one worker and return its report, with setup_s added.

    setup_s is the worker's set-up time as a multiple of a bare
    interpreter's start just before it, times REF_START_S.  Starting a
    process drifts with the host like set-up does, and unlike the
    arithmetic that HostSpeed samples."""
    workdir = os.path.join(WORKDIR, "%d-%s" % (os.getpid(), mode))
    bare = _bare_start()
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, workdir],
            capture_output=True, text=True, cwd=ROOT, env=ENV,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass of %s overran the time limit" % (mode, workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = (report["first_op"] - launched) / bare * REF_START_S
    return report


class Checker:
    """Checks every operation of every pass and keeps the tallies."""

    def __init__(self, workload, seed, expected):
        self.seed = seed
        _, self.ops, self.back = workloads.inputs(workload, seed, ROOT)
        self.expected = expected[workload]
        if len(self.expected) != len(self.ops):
            raise BenchError("expected.json does not match the operations of %s" % workload)
        self.attempted = 0
        self.failures = []

    def add(self, report):
        for argv, res, exp in zip(self.ops, report["results"], self.expected):
            self.attempted += 1
            why = check.check_op(res, exp, self.seed, self.back[argv[1]])
            if why is not None:
                self.failures.append("%s: %s" % (" ".join(argv), why))


def _passes(seconds, modes, run, before_round=lambda: None):
    """Run rounds of passes (one per mode), each after `before_round()`,
    until the next round would end after `seconds`; at least one round."""
    start = time.monotonic()
    rounds = []
    longest = 0.0
    while not rounds or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        before_round()
        rounds.append([run(mode) for mode in modes])
        longest = max(longest, time.monotonic() - t0)
    return rounds


def _pass_seconds(passes, key="seconds"):
    """Seconds of one pass: the sum over operations of each operation's
    median time across passes."""
    per_op = zip(*(p["results"] for p in passes))
    return sum(statistics.median(r[key] for r in op) for op in per_op)


def measure(workload, seed, seconds, trace, expected):
    """(checker, metrics, summary) for one run of one workload."""
    checker = Checker(workload, seed, expected)
    deadline = time.monotonic() + RUN_LIMIT_S

    def run(mode):
        report = run_pass(workload, seed, mode, deadline)
        checker.add(report)
        return report

    if trace:
        rounds = _passes(seconds, ["plain", "trace"], run)
    else:
        setups = []

        def setup_only(n):
            for _ in range(n):
                setups.append(run_pass(workload, seed, "setup", deadline)["setup_s"])

        rounds = _passes(seconds, ["plain"], run, lambda: setup_only(SETUP_PER_ROUND))
        setups += [r[0]["setup_s"] for r in rounds]
        setup_only(SETUP_SAMPLES - len(setups))
    plain = [r[0] for r in rounds]
    summary = "%d passes; unscaled wall seconds of a pass %.6g" % (
        len(plain), _pass_seconds(plain, "wall_s"))
    if not trace:
        return checker, {
            "run_s": _pass_seconds(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }, summary
    metrics = tracer.median_metrics([
        tracer.layer_metrics(r[1]["spans"], [x["seconds"] / x["wall_s"] for x in r[1]["results"]])
        for r in rounds])
    metrics.update(tracer.field_metrics(run("count")["field_counts"]))
    plain_s = _pass_seconds(plain)
    metrics["trace.overhead_ratio"] = _pass_seconds([r[1] for r in rounds]) / plain_s
    return checker, {m: metrics[m] for m in PER_LAYER}, summary


def _report(workload, seed, checker, metrics, summary, units):
    print("%s (seed %d): %d operations, %d failed; %s"
          % (workload, seed, checker.attempted, len(checker.failures), summary))
    for name, value in metrics.items():
        print("  %-28s %.6g %s" % (name, value, units[name]))
    print("  %-28s %.6g (%d of %d)" % ("error_rate", len(checker.failures) / checker.attempted,
                                        len(checker.failures), checker.attempted))
    for line in checker.failures[:10]:
        sys.stderr.write("failed: %s\n" % line)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "relext", "cli.py")):
        sys.stderr.write("error: no relext sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    try:
        expected = check.load_expected()
        units = PER_LAYER if args.trace else END_TO_END
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        out = {}
        for workload in chosen:
            checker, metrics, summary = measure(
                workload, args.seed, args.seconds, args.trace, expected)
            _report(workload, args.seed, checker, metrics, summary, units)
            attempted += checker.attempted
            failed += len(checker.failures)
            prefix = "" if len(chosen) == 1 else workload + "."
            out.update((prefix + m, {"value": v, "unit": units[m]}) for m, v in metrics.items())
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
