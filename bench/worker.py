"""One pass over a workload in a fresh process.

Run by run.py, never imported by it: each pass gets its own interpreter so
that module-level caches inside relext (which never evict) cannot carry one
pass's memory or warm state into the next.  Usage:

    python3 bench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is `plain` (no instrumentation), `trace` (spans at the public
boundaries of every relext module), `count` (Field method calls) or
`setup` (stop before the first operation, to sample set-up time).  The
worker writes the seeded input files into WORKDIR, runs each operation
through `relext.cli.main(argv + ["--format", "json"])`, and prints one
JSON object with the timings, the captured outputs and, when traced, the
spans or counts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class HostSpeed:
    """Samples how fast the host runs this process.

    On a shared host the speed of a vCPU drifts by a factor of two over
    spells of milliseconds to minutes, and process CPU time drifts with it.
    So a fixed piece of rational arithmetic, the kind of work relext does,
    is timed every INTERVAL_S of wall time (on SIGALRM, between bytecodes of
    the running operation) and before each operation.  An operation's time
    is its wall time minus the time spent sampling, scaled by the mean speed
    sampled while it ran to a host on which the sample takes REF_S.
    """

    INTERVAL_S = 0.025
    REF_S = 0.0005

    def __init__(self):
        # running totals, not a list of samples: with a list that grew on
        # SIGALRM, verify-chain's peak RSS rose by 3.3 MB in 5 passes of 13
        # (0 of 13 with totals), most likely because the list's reallocations
        # on the C heap landed among relext's large blocks
        self.count = 0  # samples taken
        self.rate_sum = 0.0  # sum over samples of REF_S / seconds
        self.spent = 0.0  # wall seconds spent sampling
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # collecting relext's garbage is not host speed
        try:
            t0 = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 200):
                acc += Fraction(i % 7, i % 11 + 1)
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.count += 1
        self.rate_sum += self.REF_S / took
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return self.count, self.rate_sum

    def factor(self, since) -> float:
        """Mean speed over the samples taken after mark() returned `since`."""
        return (self.rate_sum - since[1]) / (self.count - since[0])


def _import_relext():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from relext import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError("relext was not imported from %s" % src)
    return cli


def _run_op(cli, argv, speed):
    out, err = io.StringIO(), io.StringIO()
    first = speed.mark()
    speed.sample()
    spent = speed.spent
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--format", "json"])
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an operation that crashes counts as failed
            code = "%s: %s" % (type(e).__name__, e)
    wall = time.perf_counter() - t0 - (speed.spent - spent)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": wall, "seconds": wall * speed.factor(first)}


def main(argv):
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    cli = _import_relext()
    import workloads

    files, ops, _ = workloads.inputs(workload, seed, ROOT)
    os.makedirs(workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    os.chdir(workdir)
    first_op = time.clock_gettime(time.CLOCK_MONOTONIC)

    speed = HostSpeed()
    if mode == "setup":
        ops = []
    probe = None
    if mode in ("trace", "count"):
        import tracer  # only instrumented passes pay for importing it

        probe = tracer.Tracer() if mode == "trace" else tracer.FieldCounter()
        probe.install()
    speed.start()
    results = []
    for i, op in enumerate(ops):
        if mode == "trace":
            probe.op = i
        results.append(_run_op(cli, op, speed))
    speed.stop()
    if probe is not None:
        probe.uninstall()

    report = {
        "first_op": first_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
    }
    if mode == "trace":
        report["spans"] = probe.spans
    elif mode == "count":
        report["field_counts"] = probe.counts()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
