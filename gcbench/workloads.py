"""The benchmark's workloads: each is a fixed list of calls, made from the
workload seed, plus the checks on every call's output.

A call is either one `gibbscode` CLI experiment (its config is written
during set-up and `gibbscode.cli.main` runs it in-process) or a library
pass for what the CLI cannot reach.  Every check uses public API and the
tolerances pinned in the acceptance suite; none compares floats bit for
bit or against stored values.

  fixed-gexit   many cheap samples on the five fixed corpus codes: the
                per-sample posterior, BP floods and the BIAWGNC kernel.
  ensemble-map  a fresh graph and 2^n table per sample on ensembles,
                correlation decay and DE: the table build dominates.
  bp-checks     long BP floods on one graph, the tree identities, and
                the duality / cluster-expansion / walk checks.

The workload seed makes every input, except where a check's rule holds
only at some seeds: a 3-SE rule between two Monte Carlo routes breaks on
0.1% to 1% of seeds by chance, limits compares sample means, and
berretti-check and duality-check print FAIL at about 3% of seeds, from
absolute thresholds on sums that cancel (see _bp_checks).  Those
calls keep seeds from the acceptance suite, and its sizes where it pins
them through the same route.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gibbscode import bp, cli, exact, gexit, graphs
from gibbscode.channels import ChannelModel, t2p_sup
from gibbscode.experiments import CORR_FLOOR, MIN_BIN_SAMPLES
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution

#: the five fixed codes of the GEXIT oracle suite: (n_var, n_chk, edges, family)
CORPUS = {
    "ldpc-rep3": (3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC),
    "ldpc-5": (5, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2),
                      (0, 2)], LDPC),
    "ldpc-6": (6, 4, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
                      (5, 2), (0, 2), (1, 3), (3, 3), (5, 3)], LDPC),
    "ldgm-chain": (3, 5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
                          (0, 4), (2, 4)], LDGM),
    "ldgm-loop": (4, 7, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3),
                         (0, 3), (0, 4), (2, 4), (1, 5), (3, 6)], LDGM),
}

#: acceptance criterion 12's fixed LDGM: a ring of degree-2 checks plus
#: three single-bit observation checks
LIMITS_EDGES = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3], [4, 3],
                [4, 4], [5, 4], [5, 5], [6, 5], [6, 6], [0, 6],
                [0, 7], [3, 8], [5, 9]]

#: BP against an exact oracle (criterion 1 and the tree-cover identity)
IDENTITY_TOL = 1e-9

#: criteria 7 and 8: agreement within this many combined standard errors
SE_MULTIPLE = 3.0

#: criterion 10: DE within this distance of the MAP functional
DE_MAP_TOL = 0.05

BSC_GRID = [0.2, 0.3, 0.4]


@dataclass
class Output:
    """What one CLI call left behind."""

    exit_code: int
    stdout: str
    rows: list
    doc: dict


@dataclass
class Call:
    """One unit of a pass.  A CLI call has an experiment and a config
    document (written to the config path at set-up); a library call has
    run, which returns its failure messages.  check(output, outputs,
    counts) returns a list of failure messages."""

    name: str
    experiment: str | None = None
    doc: dict | None = None
    run: Callable | None = None
    checks: list = field(default_factory=list)
    config: Path | None = None


# ---------------------------------------------------------------------------
# running a pass
# ---------------------------------------------------------------------------

def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def run_cli(call, outdir):
    """Run one experiment through gibbscode.cli.main and read back its
    CSV and JSON output."""
    out = outdir / call.name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main([call.experiment, "--config", str(call.config),
                             "--out", str(out)])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    with open(out / f"{call.experiment}.csv", newline="") as fh:
        rows = [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    with open(out / f"{call.experiment}.json") as fh:
        doc = json.load(fh)
    return Output(code, buf.getvalue(), rows, doc)


def run_pass(calls, outdir, span=contextlib.nullcontext):
    """Run every call once.  Returns (failures, counts): failures maps a
    failed call's name to its messages; counts holds the events the
    checks observed.  span(name) wraps each call and each check."""
    outputs, failures = {}, {}
    counts = {"experiments.corr_decay.bins_dropped": 0}
    for call in calls:
        try:
            with span(f"call {call.name}"):
                out = run_cli(call, outdir) if call.run is None else call.run()
            outputs[call.name] = out
            with span("bench.check"):
                errors = []
                for check in call.checks:
                    errors += check(out, outputs, counts)
        except Exception as exc:  # a raising call is a failed call, not a crash
            errors = [f"raised {type(exc).__name__}: {exc}"]
        if errors:
            failures[call.name] = errors
    return failures, counts


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def exits_zero(out, outputs, counts):
    return [] if out.exit_code == 0 else [f"exit code {out.exit_code}"]


def prints_pass(out, outputs, counts):
    ok = out.doc["passed"] is True and "PASS" in out.stdout
    return [] if ok else [f"check experiment did not pass: {out.stdout.strip()!r}"]


def rows_match(out, outputs, counts):
    if not out.rows:
        return ["no rows"]
    if len(out.rows) != len(out.doc["rows"]):
        return [f"{len(out.rows)} CSV rows but {len(out.doc['rows'])} JSON rows"]
    return []


def all_finite(out, outputs, counts):
    bad = [(i, k) for i, row in enumerate(out.rows) for k, v in row.items()
           if isinstance(v, float) and not math.isfinite(v)]
    return [f"non-finite values at (row, column) {bad[:5]}"] if bad else []


def _by_point(rows):
    return {(row["eps"], row["method"]): row for row in rows}


def _within_se(a, b, allowance=0.0):
    return abs(a["value"] - b["value"]) < \
        SE_MULTIPLE * math.hypot(a["std_err"], b["std_err"]) + allowance


def series_tail(kind, eps, p_max):
    """The series route's truncation-tail bound (map_gexit_series docs):
    sup_p |t2p| times the tail of sum 1/(2p(2p-1))."""
    partial = sum(1.0 / (2 * p * (2 * p - 1)) for p in range(1, p_max + 1))
    return t2p_sup(ChannelModel(kind, eps)) * (math.log(2.0) - partial)


def series_rule(prefactor, p_max=20):
    """Criterion 8: functional and series within 3 combined SE plus the
    prefactor times the tail bound."""
    def check(out, outputs, counts):
        pts = _by_point(out.rows)
        kind = out.doc["config"]["channel"].split(":")[0]
        errors = []
        for (eps, method), s in pts.items():
            if method != "series":
                continue
            f = pts[(eps, "functional")]
            if not _within_se(f, s, prefactor * series_tail(kind, eps, p_max)):
                errors.append(f"series {s['value']} vs functional {f['value']} "
                              f"at eps {eps}")
        return errors
    return check


def magnetization_rule(out, outputs, counts):
    """BIAWGNC functional and magnetization within 3 combined SE (both
    routes read the same noise, so they are strongly correlated)."""
    pts = _by_point(out.rows)
    return [f"magnetization {m['value']} vs functional {pts[(eps, 'functional')]['value']}"
            f" at eps {eps}"
            for (eps, method), m in pts.items()
            if method == "awgn-magnetization" and not _within_se(pts[(eps, "functional")], m)]


def bp_equals_functional(out, outputs, counts):
    """On a tree code BP is exact, so the two routes agree per sample."""
    pts = _by_point(out.rows)
    return [f"bp {b['value']} vs functional {pts[(eps, 'functional')]['value']} at eps {eps}"
            for (eps, method), b in pts.items()
            if method == "bp" and
            not abs(b["value"] - pts[(eps, "functional")]["value"]) <= IDENTITY_TOL]


def de_near_map(map_call):
    """Criterion 10's tolerance: each DE value within 0.05 of the MAP
    functional of the same ensemble at the same eps."""
    def check(out, outputs, counts):
        pts = _by_point(outputs[map_call].rows)
        return [f"DE {row['value']} vs MAP {pts[(row['eps'], 'functional')]['value']} "
                f"at eps {row['eps']}"
                for row in out.rows
                if not abs(row["value"] - pts[(row["eps"], "functional")]["value"]) <= DE_MAP_TOL]
    return check


def decay_signature(out, outputs, counts):
    """Criterion 11: r <= -0.9 over at least 4 bins at the middle eps, and
    1/xi rising from the lowest to the highest eps."""
    counts["experiments.corr_decay.bins_dropped"] += sum(
        1 for row in out.rows
        if row["n_samples"] < MIN_BIN_SAMPLES or row["mean_abs_corr"] <= CORR_FLOOR)
    grid = out.doc["config"]["eps_grid"]
    fits = {float(k): v for k, v in out.doc["summary"]["fits"].items()}
    lo, mid, hi = fits[grid[0]], fits[grid[len(grid) // 2]], fits[grid[-1]]
    if any("error" in f for f in (lo, mid, hi)):
        return [f"fit failed: {lo, mid, hi}"]
    ok = mid["r"] <= -0.9 and mid["n_points"] >= 4 and 1.0 / hi["xi"] > 1.0 / lo["xi"]
    return [] if ok else [f"no decay signature: {fits}"]


def library_errors(out, outputs, counts):
    return out


# ---------------------------------------------------------------------------
# library passes
# ---------------------------------------------------------------------------

def corpus_graph(name):
    n_var, n_chk, edges, kind = CORPUS[name]
    return graphs.build_graph(n_var, n_chk, edges, kind)


def random_tree_graph(rng, kind, max_code_bits=15):
    """A random bipartite tree: each new node hangs off a random placed
    node of the other type (check 0 first, on variable 0)."""
    if kind == LDPC:
        n_var = int(rng.integers(2, max_code_bits + 1))
        n_chk = int(rng.integers(1, n_var))
    else:
        n_chk = int(rng.integers(2, max_code_bits + 1))
        n_var = int(rng.integers(1, n_chk + 1))
    order = ["var"] * (n_var - 1) + ["chk"] * (n_chk - 1)
    rng.shuffle(order)
    placed = {"var": [0], "chk": []}
    edges = []
    for typ in ["chk"] + order:
        other = "var" if typ == "chk" else "chk"
        new = len(placed[typ])
        anchor = int(rng.choice(placed[other]))
        edges.append((new, anchor) if typ == "var" else (anchor, new))
        placed[typ].append(new)
    return graphs.build_graph(n_var, n_chk, edges, kind)


def criterion7_pair(name, eps, samples=10 ** 4, seed=107):
    """One pair of acceptance criterion 7 exactly as the suite runs it:
    the functional against the entropy finite difference at 3 combined
    SE.  The rule is statistical (over workload seeds 0.3% to 1% of the
    comparisons break 3 SE), so it runs on the suite's pinned seed and
    size; gibbscode's CLI derives its own per-point seeds and cannot
    reach this pair."""
    def run():
        g, ch = corpus_graph(name), ChannelModel("bsc", eps)
        f = gexit.map_gexit(g, ch, samples, seed)
        e = gexit.entropy_fd(g, ch, 1e-3, samples, seed)
        if abs(f.value - e.value) < SE_MULTIPLE * math.hypot(f.std_error, e.std_error):
            return []
        return [f"functional {f.value} vs entropy-fd {e.value} on {name} at eps {eps}"]
    return run


def tree_cover_identity(rng, depths):
    """d BP iterations equal the exact root marginal of the depth-2d
    computational tree, on the loopy corpus codes."""
    def run():
        errors = []
        for name in ("ldpc-5", "ldpc-6", "ldgm-chain", "ldgm-loop"):
            g = corpus_graph(name)
            inst = exact.make_instance(g, rng.normal(0.0, 1.0, g.code_bit_count))
            for d in depths:
                marg = bp.bp_run(inst, d)
                for i in range(g.code_bit_count):
                    root, _ = bp.tree_decode(graphs.computational_tree(g, i, 2 * d), inst)
                    if not abs(root - marg[i]) <= IDENTITY_TOL:
                        errors.append(f"{name} bit {i} d={d}: tree {root} vs bp {marg[i]}")
        return errors
    return run


def tree_exactness(rng, n_graphs, draws):
    """Criterion 1: BP equals the exact marginals on random tree codes."""
    def run():
        errors = []
        for kind in (LDPC, LDGM):
            for _ in range(n_graphs):
                g = random_tree_graph(rng, kind)
                for _ in range(draws):
                    inst = exact.make_instance(g, rng.normal(1.0, 1.0, g.code_bit_count))
                    diff = float(np.max(np.abs(bp.bp_run(inst, g.n_var + g.n_chk)
                                               - exact.all_marginals(inst))))
                    if not diff <= IDENTITY_TOL:
                        errors.append(f"{kind} tree: max|bp - exact| = {diff:.3e}")
        return errors
    return run


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _edges_code(name):
    n_var, n_chk, edges, kind = CORPUS[name]
    return {"type": "edges", "family": kind, "n_var": n_var, "n_chk": n_chk,
            "edges": [list(e) for e in edges]}


def _prefactor(code):
    """Lambda'(1)/P'(1) for LDGM, 1 for LDPC, as gibbscode.gexit defines it."""
    if code["family"] != LDGM:
        return 1.0
    if code["type"] == "edges":
        return code["n_chk"] / code["n_var"]
    dd = DegreeDistribution.regular(code["var_degree"], code["chk_degree"])
    return dd.lambda_prime / dd.p_prime


def _fixed_gexit(seeds):
    calls = []
    for name in CORPUS:
        code = _edges_code(name)
        tree = [bp_equals_functional] if name == "ldpc-rep3" else []
        calls.append(Call(f"bsc-{name}", "gexit-curve", {
            "code": code, "channel": "bsc:0.3", "eps_grid": BSC_GRID,
            "samples": 150, "seed": next(seeds),
            "params": {"methods": ["functional", "series", "entropy-fd", "bp"], "d": 20}},
            checks=[all_finite, series_rule(_prefactor(code))] + tree))
        # The magnetization rule is statistical: over workload seeds about
        # 6e-4 of its comparisons break 3 SE at 20 samples, so this point
        # keeps criterion 9's BIAWGNC seed.
        calls.append(Call(f"biawgnc-{name}", "gexit-curve", {
            "code": code, "channel": "biawgnc:0.8", "samples": 20, "seed": 109,
            "params": {"methods": ["functional", "awgn-magnetization", "bp"]}},
            checks=[all_finite, magnetization_rule] + tree))
    calls.append(Call("criterion-07-ldgm-loop", run=criterion7_pair("ldgm-loop", 0.3)))
    return calls


def _ensemble_map(seeds):
    ldpc = {"type": "ensemble", "family": LDPC, "var_degree": 4, "chk_degree": 4,
            "n": 16}
    ldgm = {"type": "ensemble", "family": LDGM, "var_degree": 3, "chk_degree": 2,
            "n": 18}
    ldpc_grid = [0.02, 0.03, 0.04]
    return [
        Call("map-ldpc", "gexit-curve", {
            "code": ldpc, "channel": "bsc:0.02", "eps_grid": ldpc_grid,
            "samples": 400, "seed": next(seeds), "params": {"methods": ["functional"]}},
            checks=[all_finite]),
        Call("map-ldgm", "gexit-curve", {
            "code": ldgm, "channel": "bsc:0.45", "samples": 150, "seed": next(seeds),
            "params": {"methods": ["functional", "series"]}},
            checks=[all_finite, series_rule(_prefactor(ldgm))]),
        Call("corr-decay", "corr-decay", {
            "code": {"type": "ensemble", "family": LDGM,
                     "var_coeffs": {"2": 2 / 3, "3": 1 / 3}, "chk_coeffs": {"2": 1.0},
                     "n": 14},
            "channel": "bsc:0.45", "eps_grid": [0.40, 0.45, 0.47],
            "samples": 3000, "seed": next(seeds), "params": {"graphs": 6}},
            checks=[all_finite, decay_signature]),
        Call("de-ldpc", "de-curve", {
            "code": ldpc, "channel": "bsc:0.02", "eps_grid": ldpc_grid,
            "samples": 1, "seed": next(seeds), "params": {"n_pop": 20000, "d": 20}},
            checks=[all_finite, de_near_map("map-ldpc")]),
        Call("de-ldgm", "de-curve", {
            "code": ldgm, "channel": "bsc:0.45", "samples": 1, "seed": next(seeds),
            "params": {"n_pop": 20000, "d": 20}},
            checks=[all_finite, de_near_map("map-ldgm")]),
    ]


def _bp_checks(seeds, rng):
    return [
        # Criterion 12's own run: its pass rule (gaps to d=200 falling with
        # d') compares sample means, so it keeps the suite's seed and size.
        Call("limits", "limits", {
            "code": {"type": "edges", "family": LDGM, "n_var": 7, "n_chk": 10,
                     "edges": LIMITS_EDGES},
            "channel": "bsc:0.45", "samples": 500, "seed": 112,
            "params": {"d_primes": [2, 4, 6], "d_refs": [100, 200]}},
            checks=[prints_pass]),
        # Criteria 2 and 3's own 200 instances (duality-check draws them
        # exactly as the suite does).  At other seeds about 2.5% of configs
        # hold an instance whose dual sum cancels, leaving a MacWilliams
        # residual of 2e-10 to 2e-9 against the 1e-10 threshold, so the
        # experiment prints FAIL.
        Call("duality-check", "duality-check", {
            "code": {}, "channel": "bsc:0.3", "samples": 200, "seed": 102},
            checks=[prints_pass]),
        # Criterion 5's own 24 instances (berretti-check draws them exactly
        # as the suite does).  At other seeds about 0.3% of instances leave
        # an absolute residual of 2e-8 to 3e-8 against the 1e-8 threshold,
        # with dual brackets of size 10 to 50, so the experiment prints FAIL.
        Call("berretti-check", "berretti-check", {
            "code": {}, "channel": "bsc:0.3", "samples": 24, "seed": 105},
            checks=[prints_pass]),
        Call("bounds", "bounds", {
            "code": {"type": "ensemble", "family": LDGM, "var_degree": 3,
                     "chk_degree": 2, "n": 9},
            "channel": "bsc:0.45", "samples": 4000, "seed": next(seeds),
            "params": {"graphs": 8, "H": 0.1}},
            checks=[prints_pass]),
        Call("tree-cover", run=tree_cover_identity(rng, depths=(2, 4, 6))),
        Call("tree-exact", run=tree_exactness(rng, n_graphs=10, draws=10)),
    ]


WORKLOADS = ("fixed-gexit", "ensemble-map", "bp-checks")


def build(workload, seed, outdir):
    """The workload's calls for this seed, with every CLI config written
    under outdir.  gibbscode sees only those configs."""
    config_ss, library_ss = np.random.SeedSequence(seed).spawn(2)
    seeds = iter(int(s) for s in
                 np.random.default_rng(config_ss).integers(0, 2 ** 31, size=64))
    if workload == "fixed-gexit":
        calls = _fixed_gexit(seeds)
    elif workload == "ensemble-map":
        calls = _ensemble_map(seeds)
    elif workload == "bp-checks":
        calls = _bp_checks(seeds, np.random.default_rng(library_ss))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for call in calls:
        if call.run is None:
            call.config = outdir / f"{call.name}.config.json"
            call.config.write_text(json.dumps(call.doc))
            call.checks = [exits_zero, rows_match] + call.checks
        else:
            call.checks = [library_errors] + call.checks
    return calls
