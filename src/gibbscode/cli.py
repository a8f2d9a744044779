"""Command-line experiment runner.

    gibbscode <experiment> --config cfg.json --out outdir

where <experiment> is one of corr-decay, gexit-curve, de-curve, bounds,
duality-check, berretti-check, limits.  The config file is a single JSON
document (the experiment field may be omitted; the command line's
experiment wins).  Outputs <experiment>.csv and <experiment>.json in the
output directory.
Exit codes: 0 on success, 1 when a check-type experiment prints FAIL,
and 2 for bad arguments or a config that cannot be read or fails
validation (one line on stderr, "gibbscode: invalid config: <message>";
nothing is run), or for a run that hits a cap (an exact table, a
computational tree or an enumeration grows past it: one line on stderr,
"gibbscode: cap exceeded: <message>"; no output is written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact import BruteForceCapExceeded
from .experiments import EXPERIMENTS, ExperimentConfig, emit, run_experiment
from .graphs import EnumerationCapExceeded, NodeCapExceeded


def build_parser():
    parser = argparse.ArgumentParser(prog="gibbscode",
                                     description="sparse-graph decoding lab")
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh), args.experiment)
    except (OSError, KeyError, ValueError) as err:  # ValueError: also malformed JSON
        reason = (f"cannot read config file {args.config!r}: {err.strerror}"
                  if isinstance(err, OSError) else
                  f"missing key {err}" if isinstance(err, KeyError) else err)
        print(f"gibbscode: invalid config: {reason}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
    except (BruteForceCapExceeded, EnumerationCapExceeded, NodeCapExceeded) as err:
        print(f"gibbscode: cap exceeded: {err}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    emit(result, "csv", os.path.join(args.out, f"{args.experiment}.csv"))
    emit(result, "json", os.path.join(args.out, f"{args.experiment}.json"))
    if result.passed is not None:
        print(f"{args.experiment}: {'PASS' if result.passed else 'FAIL'}")
        return 0 if result.passed else 1
    print(f"{args.experiment}: wrote {len(result.rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
