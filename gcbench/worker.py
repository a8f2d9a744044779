"""One benchmark pass in a fresh process, so no gibbscode cache survives
from an earlier pass, as for a user's CLI invocation.

    python3 gcbench/worker.py --workload NAME --seed N --trace 0|1

Prints one JSON line: the clock reading when set-up ended (imports and
configs written), the pass's wall time, the reference kernel's times,
peak memory, and what failed.  A traced pass also reports its per-layer
metrics and writes its spans to .gcbench/spans-<workload>.json in the
checkout.

The host's speed drifts by up to 1.8x within seconds (a shared machine),
so a small fixed reference kernel runs at the start and end of the pass
and every PERIOD_S seconds from a timer signal; the caller rescales the
pass time by the kernel's time.  The kernel's runs are not part of the
pass's wall time, nor of any traced layer's self time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy
import scipy.integrate  # noqa: F401  (set-up covers the numpy and scipy imports)

import gibbscode
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: seconds between reference-kernel samples in an untraced pass
PERIOD_S = 0.5


def reference_kernel(reps=2000):
    """Fixed work in gibbscode's own mix (small numpy calls and
    interpreter work), about 20 ms on a quiet core."""
    rng = numpy.random.default_rng(0)
    x = rng.standard_normal(256)
    groups = rng.integers(0, 64, 256)
    acc = 0.0
    for i in range(reps):
        t = numpy.tanh(x)
        acc += float(numpy.bincount(groups, weights=t, minlength=64).sum())
        acc += float(numpy.log1p(0.5 * t) @ t)
        acc += sum({k: k + i for k in range(16)}.values()) * 1e-9
    return acc


class HostSpeed:
    """Times the reference kernel at the start and end of a block and
    every period seconds inside it (run from a SIGALRM handler, so it
    also samples long calls)."""

    def __init__(self, period):
        self.period = period
        self.marks = []  # (start, duration) of each kernel run

    def sample(self):
        start = time.perf_counter()
        reference_kernel()
        self.marks.append((start, time.perf_counter() - start))

    def _tick(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def overhead_s(self):
        return sum(r for _, r in self.marks)

    def reference_s(self):
        """The kernel's time over the block: the mean of its times at the
        two ends of each stretch between runs, weighted by the stretch's
        length."""
        total = weighted = 0.0
        for (t0, r0), (t1, r1) in zip(self.marks, self.marks[1:]):
            stretch = t1 - (t0 + r0)
            total += stretch
            weighted += stretch * (r0 + r1) / 2
        return weighted / total


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".gcbench"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        calls = workloads.build(args.workload, args.seed, outdir)
        ready = time.perf_counter()
        tracer = None
        if args.trace:
            import layers
            import tracing
            tracer = tracing.Tracer()
            layers.install(tracer)
        start = time.perf_counter()
        if tracer is None:
            with HostSpeed(PERIOD_S) as speed:
                failures, counts = workloads.run_pass(calls, outdir)
        else:
            with HostSpeed(PERIOD_S) as speed, tracer.span("bench.pass"):
                failures, counts = workloads.run_pass(calls, outdir, tracer.span)
            tracing.add_leaves(tracer.spans, "bench.reference",
                               [(t, t + r) for t, r in speed.marks])
        wall = time.perf_counter() - start - speed.overhead_s()
        result = {"ready": ready, "wall_s": wall, "ref_pass_s": speed.reference_s(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "attempted": len(calls), "failures": failures,
                  "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "gibbscode": gibbscode.__version__,
                          "blas_threads": {k: os.environ.get(k) for k in (
                              "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}}
        if tracer is not None:
            tracer.restore()
            for key, value in counts.items():
                tracer.add(key, value)
            result["layers"] = layers.metrics(tracer)
            with open(scratch / f"spans-{args.workload}.json", "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
