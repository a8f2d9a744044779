"""gibbscode benchmark entry point.

    python3 gcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gibbscode checkout (the package is imported from
its src/).  Repeats fresh-process passes of the workload (gcbench/worker.py)
until S seconds are used, at least MIN_ROUNDS times, and prints as its
last line one JSON object: whether every output check held, the calls
attempted and failed, and the metrics BENCHMARK.json lists: the
end-to-end ones (medians over the passes) with --trace 0, the per-layer
ones (medians over traced passes, alternated with untraced passes to
measure the tracing overhead) with --trace 1.  The line before it
records the versions, nproc, BLAS thread setting and raw pass times.

wall_norm_s is a pass's wall time rescaled by the reference kernel timed
during it (see worker.py) to a host on which that kernel takes REF_S;
setup_s is rescaled by the same factor.  On the shared 2-vCPU
development host raw pass times vary by 12% (CV) from pass to pass and
drift by 1.6x over minutes; the rescaled ones vary by 4%.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: passes (or traced/untraced pairs of passes) made whatever --seconds says
MIN_ROUNDS = 2

#: the reference kernel's time that wall_norm_s rescales to (about its
#: time on a quiet core of the development host)
REF_S = 0.020

#: a pass that takes longer than this has hung
PASS_TIMEOUT_S = 150

#: single-threaded BLAS: with spare threads spinning, one 481-node
#: Gauss-Legendre grid takes 2.4 s instead of 25 ms on a loaded 2-core box
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class PassFailed(RuntimeError):
    """A worker crashed, so the benchmark has no result to print."""


def worker_env():
    env = dict(os.environ, **BLAS_THREADS)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_pass(workload, seed, trace, env):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared by both processes
    result["setup_raw_s"] = result["ready"] - spawned
    speed = REF_S / result["ref_pass_s"]
    result["setup_s"] = result["setup_raw_s"] * speed
    result["wall_norm_s"] = result["wall_s"] * speed
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "gibbscode").is_dir():
        print("run.py: no src/gibbscode in this checkout", file=sys.stderr)
        return 2

    env = worker_env()
    modes = (0, 1) if args.trace else (0,)
    passes = {mode: [] for mode in modes}
    start = time.perf_counter()
    try:
        while True:
            for mode in modes:
                passes[mode].append(run_pass(args.workload, args.seed, mode, env))
            rounds = len(passes[0])
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    everything = [p for mode in modes for p in passes[mode]]
    attempted = sum(p["attempted"] for p in everything)
    failed = 0
    for p in everything:
        for call, messages in p["failures"].items():
            failed += 1
            print(f"run.py: {args.workload} call {call} failed: {messages}", file=sys.stderr)

    median = lambda mode, key: statistics.median(p[key] for p in passes[mode])
    if args.trace:
        values = {key: statistics.median(p["layers"][key] for p in passes[1])
                  for key in passes[1][0]["layers"]}
        values["trace.overhead_frac"] = \
            median(1, "wall_norm_s") / median(0, "wall_norm_s") - 1.0
        listed = spec["per_layer"]
    else:
        values = {"wall_norm_s": median(0, "wall_norm_s"), "setup_s": median(0, "setup_s"),
                  "peak_rss_mb": median(0, "peak_rss_mb")}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    raw = {key: [p[key] for p in everything] for key in ("wall_s", "setup_raw_s", "ref_pass_s")}
    print("# env " + json.dumps(dict(everything[0]["env"], failed_frac=failed / attempted,
                                     **raw)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
