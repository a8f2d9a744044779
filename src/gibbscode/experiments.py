"""Reproducible experiment orchestration: config in, CSV/JSON out.

Experiments (see the CLI for the subcommand names):

  corr-decay      sample codes and noise, bin E|<x_i x_j> - <x_i><x_j>|
                  by graph distance, fit an exponential decay profile
  gexit-curve     MAP / BP / series / DE estimates across an eps grid
  de-curve        DE-limit GEXIT values across an eps grid (gexit-curve's
                  de route alone)
  bounds          walk-expansion bound vs exact correlations (LDGM)
  duality-check   MacWilliams and correlation-duality residual suite
  berretti-check  dual cluster-expansion identity residual suite
  limits          iteration count vs block length on a fixed LDGM code

A config is parsed once, by ExperimentConfig's validation: PARAMS lists
the params each experiment reads and their defaults, and the runners read
only what validation built (the params with their defaults, the code
source and the channel of each eps point).  Every experiment is
deterministic given its seed: points draw their randomness from spawned
child seeds in a fixed order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import clusters, de, duality, exact, gexit
from .channels import BIAWGNC, ChannelModel, channel_noise, llrs_from_noise, sample_llr
from .exact import correlations_with_root, make_instance, spin_product_correlation
# sample_ensemble is not called here, but gcbench/layers.py wraps
# experiments.sample_ensemble by name, so it stays bound
from .graphs import (LDGM, LDPC, DegreeDistribution, build_graph, code_bit_distances,
                     ensemble_sizes, graph_distance, load_graph, sample_ensemble,
                     sample_ensembles)

#: the params each experiment reads, and their defaults; a given value must
#: have its default's JSON type
PARAMS = {
    "corr-decay": {"graphs": 8},
    "gexit-curve": {"methods": ["functional"], "d": 10, "n_pop": 10 ** 5, "p_max": 20,
                    "eps_step": 1e-3},
    "de-curve": {"d": 20, "n_pop": 10 ** 5},
    "bounds": {"graphs": 10, "H": 1.0},
    "duality-check": {"n_max": 12},
    "berretti-check": {},
    "limits": {"d_primes": [2, 4, 6], "d_refs": [100, 200]},
}

EXPERIMENTS = tuple(PARAMS)

#: bins below this mean are double-precision noise and excluded from fits
CORR_FLOOR = 1e-12

#: bins with fewer samples than this are excluded from fits
MIN_BIN_SAMPLES = 30


def _fits(value, default):
    """Whether value has default's JSON type: an integer (a float would be
    truncated, and a bool is an int to python), a number, a string, or a
    list of what default's first item is."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(x, default[0]) for x in value)
    kind = (int, float) if isinstance(default, float) else type(default)
    return not isinstance(value, bool) and isinstance(value, kind)


def _integer(value, name):
    if not _fits(value, 0):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _json_type(default):
    """The name a type error gives default's JSON type."""
    if isinstance(default, list):
        return "a list of " + {int: "integers", str: "method names"}[type(default[0])]
    return {int: "an integer", float: "a number"}[type(default)]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    code: dict
    channel: str
    samples: int
    seed: int
    eps_grid: tuple = ()
    params: dict = field(default_factory=dict)
    # what validation built, all the runners read: the params with their
    # defaults, the code source (a TannerGraph or an EnsembleSpec; None in
    # the check suites, which draw their own) and each eps point's channel
    settings: dict = field(init=False, compare=False, repr=False)
    source: object = field(init=False, compare=False, repr=False)
    points: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key, value in (("code", self.code), ("params", self.params)):
            if not isinstance(value, dict):
                raise ValueError(f"{key} must be a JSON object, not {type(value).__name__}")
        if _integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if _integer(self.samples, "samples") < 1:
            raise ValueError("samples must be >= 1")
        if not isinstance(self.channel, str):
            raise ValueError(f"channel must be a spec such as 'bsc:0.25', not {self.channel!r}")
        if not _fits(list(self.eps_grid), [0.0]):
            raise ValueError(f"eps_grid must hold numbers, not {list(self.eps_grid)!r}")
        ch0 = ChannelModel.from_spec(self.channel)  # validates the kind and every eps
        points = tuple(ChannelModel(ch0.kind, e) for e in self.eps_grid) or (ch0,)
        if self.eps_grid and self.experiment in ("duality-check", "berretti-check"):
            raise ValueError(f"{self.experiment} draws its codes and LLRs from the seed, "
                             f"not from the channel or eps_grid")
        if self.eps_grid and self.experiment not in ("corr-decay", "gexit-curve", "de-curve"):
            raise ValueError(f"{self.experiment} reads the channel alone, not eps_grid")
        defaults = PARAMS[self.experiment]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown {self.experiment} param(s) {unknown}; "
                             f"known: {sorted(defaults)}")
        p = {**defaults, **self.params}
        if "eps_step" in p and not (_fits(p["eps_step"], defaults["eps_step"])
                                    and p["eps_step"] > 0):
            raise ValueError(f"eps_step must be a number > 0, not {p['eps_step']!r}")
        for key, value in p.items():
            if not _fits(value, defaults[key]):
                raise ValueError(f"{key} must be {_json_type(defaults[key])}, not {value!r}")
        methods = p.get("methods", [])
        if self.experiment == "gexit-curve" and not methods:
            raise ValueError("gexit-curve needs at least one method in methods")
        known = (*gexit.MAP_METHODS, *_GEXIT_METHODS)
        unknown = [m for m in methods if m not in known]
        if unknown:
            raise ValueError(f"unknown gexit-curve method(s) {unknown}; "
                             f"known: {sorted(known)}")
        if "series" in methods and p["p_max"] < 1:
            raise ValueError("the series method needs p_max >= 1")
        if "awgn-magnetization" in methods and ch0.kind != BIAWGNC:
            raise ValueError("the awgn-magnetization method needs a biawgnc channel")
        if "entropy-fd" in methods:
            step = p["eps_step"]
            outside = [ch.eps for ch in points
                       if not (0.0 < ch.eps - step and ch.eps + step < ch.eps_max)]
            if outside:
                raise ValueError(f"entropy-fd needs eps +- eps_step inside "
                                 f"(0, {ch0.eps_max}); eps_step {step} leaves it "
                                 f"at eps {outside}")
        uses_de = self.experiment == "de-curve" or "de" in methods
        if uses_de and self.code.get("type", "ensemble") != "ensemble":
            raise ValueError(
                f"{self.experiment} with density evolution needs an ensemble code "
                f"(a degree distribution); code type {self.code.get('type')!r} has none")
        depths = [d for key in ("d", "d_primes", "d_refs") if key in p
                  for d in np.atleast_1d(p[key])]
        if any(d < 0 for d in depths):
            raise ValueError("BP depths (d, d_primes, d_refs) must be >= 0")
        for key in ("d", "n_pop") if uses_de else ():
            if p[key] < 1:
                raise ValueError(f"density evolution needs {key} >= 1")
        if self.experiment == "limits":
            d_primes, d_refs = p["d_primes"], p["d_refs"]
            if not d_refs:
                raise ValueError("limits needs at least one reference depth in d_refs")
            if len(d_primes) < 2:
                raise ValueError("limits needs at least two depths in d_primes to compare")
            ref = max(d_refs)
            if max(d_primes) >= ref or (len(d_refs) > 1 and min(d_refs) == ref):
                raise ValueError(
                    f"limits compares d_primes {d_primes} and the smallest of d_refs "
                    f"with the largest reference depth {ref}; each must be smaller")
            if self.samples < 2:
                raise ValueError("limits estimates standard errors over the samples; "
                                 "needs samples >= 2")
        if "graphs" in p and p["graphs"] < 1:
            raise ValueError(f"{self.experiment} needs params.graphs >= 1")
        if self.experiment == "duality-check":
            n_max = p["n_max"]
            if n_max < 3:
                raise ValueError("duality-check draws codes of 3 to n_max bits; needs n_max >= 3")
            # the worst draw: n_max bits under one rank-1 check
            try:
                exact._check_cap(LDPC, n_max - 1)
            except exact.BruteForceCapExceeded as err:
                raise ValueError(f"duality-check draws LDPC codes of up to n_max = {n_max} "
                                 f"bits and as few as one check: {err}") from None
        src = None
        if self.experiment not in ("duality-check", "berretti-check"):
            family = self.code.get("family", LDGM)
            if family not in (LDGM, LDPC):
                raise ValueError(f"unknown code family {family!r}; known: {[LDGM, LDPC]}")
            # de-curve reads the degree distribution alone, not n
            src = (gexit.EnsembleSpec(_degree_distribution(self.code), None, family)
                   if self.experiment == "de-curve" else _code_source(self.code))
        if self.experiment == "bounds":
            if src.kind != LDGM:
                raise ValueError(
                    "bounds checks the walk bound, which applies to LDGM codes only")
            if (src.n if isinstance(src, gexit.EnsembleSpec) else src.n_chk) < 2:
                raise ValueError("bounds draws two distinct checks; the code needs >= 2")
            if not p["H"] > 0.0:
                raise ValueError("bounds needs a threshold H > 0")
        if isinstance(src, gexit.EnsembleSpec) and src.n is not None:
            n_chk = ensemble_sizes(src.dd, src.n, src.kind)[1]  # raises unless they balance
        # where exact tables are built, a fixed code's must fit the cap (the
        # table its posterior pass reads, or the primal one that bounds'
        # spin products read), and so must an LDPC ensemble's, each draw
        # having n - rank H >= n - n_chk (an LDGM draw's rank G is known
        # only once drawn, at run time)
        if self.experiment in ("corr-decay", "bounds") or set(methods) & set(gexit.MAP_METHODS):
            if not isinstance(src, gexit.EnsembleSpec):
                exact._check_cap(src.kind, *((src.free_spin_count, False)
                                             if self.experiment == "bounds"
                                             else exact.table_source(src)))
            elif src.kind == LDPC:
                exact._check_cap(LDPC, src.n - n_chk)
        sampled = [m for m in methods if m != "de"]
        if sampled and self.samples < 2:
            raise ValueError(f"gexit-curve methods {sampled} estimate a standard error over "
                             f"the samples; need samples >= 2")
        for name, value in (("settings", p), ("source", src), ("points", points)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_json(cls, doc, experiment=None):
        """A config from a JSON document (text or parsed); experiment, when
        given, overrides the document's own field."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, not {type(doc).__name__}")
        grid = doc.get("eps_grid", ())
        if not isinstance(grid, (list, tuple)):
            raise ValueError(f"eps_grid must be a list, not {type(grid).__name__}")
        return cls(experiment=experiment or doc["experiment"], code=doc.get("code", {}),
                   channel=doc["channel"], samples=doc.get("samples", 1),
                   seed=doc["seed"], eps_grid=tuple(grid), params=doc.get("params", {}))

    def as_dict(self):
        return {"experiment": self.experiment, "code": self.code,
                "channel": self.channel, "samples": self.samples,
                "seed": self.seed, "eps_grid": list(self.eps_grid),
                "params": self.params}


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit of mean |correlation| against distance."""

    xi: float      # decay length: mean ~ c1 * exp(-distance / xi)
    c1: float
    r: float       # Pearson correlation of (distance, ln mean)
    slope: float
    n_points: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list
    summary: dict
    passed: bool | None = None  # None: not a pass/fail experiment


def _degree_distribution(code):
    """An ensemble code's degree distribution: integer var_degree and
    chk_degree, or var_coeffs and chk_coeffs maps of degree: probability."""
    if "var_degree" in code:
        return DegreeDistribution.regular(_integer(code["var_degree"], "var_degree"),
                                          _integer(code["chk_degree"], "chk_degree"))
    return DegreeDistribution.from_dicts(_coeffs(code, "var_coeffs"),
                                         _coeffs(code, "chk_coeffs"))


def _coeffs(code, key):
    """The {degree: probability} map of code[key], whose degrees are the
    JSON object's keys, so decimal strings."""
    coeffs = code[key]
    if not isinstance(coeffs, dict):
        raise ValueError(f"{key} must map degrees to probabilities, not {coeffs!r}")
    out = {}
    for deg, prob in coeffs.items():
        deg = int(deg) if isinstance(deg, str) and deg.isdecimal() else deg
        _integer(deg, f"a {key} degree")
        if not _fits(prob, 0.0) or not math.isfinite(prob):
            raise ValueError(f"{key} probabilities must be finite numbers, not {prob!r}")
        out[deg] = float(prob)
    return out


def _code_source(code):
    """A fixed TannerGraph or an EnsembleSpec, from the config dict."""
    kind = code.get("family", LDGM)
    if code.get("type", "ensemble") == "file":
        path = code["path"]
        if not isinstance(path, str):
            raise ValueError(f"path must be a file name, not {path!r}")
        try:
            return load_graph(path)
        except OSError as err:
            raise ValueError(f"cannot read code file {path!r}: {err.strerror}") from None
    if code.get("type") == "edges":
        edges = code["edges"]
        if not _fits(edges, [[0]]) or any(len(e) != 2 for e in edges):
            raise ValueError(f"edges must be a list of [variable, check] integer pairs, "
                             f"not {edges!r}")
        return build_graph(_integer(code["n_var"], "n_var"), _integer(code["n_chk"], "n_chk"),
                           [tuple(e) for e in edges], kind)
    n = _integer(code["n"], "n")
    if n < 1:
        raise ValueError(f"an ensemble needs n >= 1 code bits, not {n}")
    return gexit.EnsembleSpec(_degree_distribution(code), n, kind)


def _point_seeds(cfg, ch):
    """The seed sequence of one eps point: the config seed and eps in
    units of 1e-9, truncated (eps 0.29 gives 289999999)."""
    return np.random.SeedSequence([cfg.seed, int(ch.eps * 10 ** 9)])


def fit_exponential(points):
    """Weighted least squares of ln(mean) on distance for (distance,
    mean, se) triples; needs >= 3 usable bins above the noise floor."""
    usable = [(d, m, s) for d, m, s in points if m > CORR_FLOOR]
    if len(usable) < 3:
        raise ValueError(f"only {len(usable)} bins above the floor; need >= 3")
    dist = np.array([p[0] for p in usable], float)
    lm = np.log(np.array([p[1] for p in usable]))
    w = np.array([(p[1] / p[2]) ** 2 if p[2] > 0 else 1.0 for p in usable])
    W = w.sum()
    xb = (w * dist).sum() / W
    yb = (w * lm).sum() / W
    sxx = (w * (dist - xb) ** 2).sum()
    slope = (w * (dist - xb) * (lm - yb)).sum() / sxx
    c1 = math.exp(yb - slope * xb)
    if np.ptp(lm) == 0.0:  # perfectly flat data has no defined correlation
        r = 0.0
    else:
        r = float(np.corrcoef(dist, lm)[0, 1])
    xi = math.inf if slope >= 0 else -1.0 / slope
    return DecayFit(xi, c1, r, float(slope), len(usable))


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def _corr_decay(cfg):
    src, n_graphs = cfg.source, cfg.settings["graphs"]
    fixed = not isinstance(src, gexit.EnsembleSpec)
    rows, fits = [], {}
    for ch in cfg.points:
        # each graph reads its own spawned generator: an ensemble code's
        # seed first, then its noise and roots
        rngs = [np.random.default_rng(s) for s in _point_seeds(cfg, ch).spawn(n_graphs)]
        codes = [src] * n_graphs if fixed else sample_ensembles(
            src.dd, src.n, src.kind, [int(rng.integers(2 ** 63)) for rng in rngs])
        per_graph = max(1, cfg.samples // n_graphs)
        sums = sumsq = counts = 0  # per distance bin, summed over graphs
        for rng, g in zip(rngs, codes):
            nb = g.code_bit_count
            dists = np.array([code_bit_distances(g, i) for i in range(nb)], float)
            # noise and root draws interleave: fill the block in draw order
            noise = np.empty((per_graph, nb))
            roots = np.empty(per_graph, np.intp)
            for s in range(per_graph):
                noise[s] = channel_noise(ch, nb, rng)
                roots[s] = rng.integers(nb)
            corr = correlations_with_root(
                make_instance(g, llrs_from_noise(ch, noise, out=noise)), roots)
            dsel = dists[roots]
            keep = np.isfinite(dsel)
            keep[np.arange(per_graph), roots] = False
            bins, v = dsel[keep].astype(np.intp), np.abs(corr[keep])
            sums = sums + np.bincount(bins, weights=v, minlength=nb)
            sumsq = sumsq + np.bincount(bins, weights=v * v, minlength=nb)
            counts = counts + np.bincount(bins, minlength=nb)
        pts = []
        for dij in np.flatnonzero(counts):
            nct = int(counts[dij])
            mean = sums[dij] / nct
            var = max(sumsq[dij] / nct - mean * mean, 0.0)
            se = math.sqrt(var / nct)
            rows.append({"eps": ch.eps, "distance": int(dij), "mean_abs_corr": float(mean),
                         "std_err": se, "n_samples": nct})
            if nct >= MIN_BIN_SAMPLES:
                pts.append((int(dij), float(mean), se))
        try:
            fit = fit_exponential(pts)
            fits[ch.eps] = {"xi": fit.xi, "c1": fit.c1, "r": fit.r,
                            "slope": fit.slope, "n_points": fit.n_points}
        except ValueError as err:
            fits[ch.eps] = {"error": str(err)}
    return ExperimentResult(cfg, rows, {"fits": fits})


#: gexit-curve's routes besides gexit.MAP_METHODS (which share one pass):
#: method name -> estimate(cfg, channel, seed)
_GEXIT_METHODS = {
    "bp": lambda cfg, ch, seed: gexit.bp_gexit(
        cfg.source, ch, cfg.settings["d"], cfg.samples, seed),
    "de": lambda cfg, ch, seed: gexit.GexitEstimate(
        de.de_gexit(cfg.source.kind, cfg.source.dd, ch, cfg.settings["d"],
                    cfg.settings["n_pop"], seed),
        0.0, "de", {"d": cfg.settings["d"], "samples": cfg.settings["n_pop"]}),
}


def _gexit_curve(cfg):
    """gexit-curve, and de-curve as its de route alone."""
    p = cfg.settings
    methods = p.get("methods", ["de"])
    map_methods = [m for m in methods if m in gexit.MAP_METHODS]
    rows = []
    for ch in cfg.points:
        seed = int(_point_seeds(cfg, ch).generate_state(1)[0])
        ests = gexit.map_gexit_routes(
            cfg.source, ch, cfg.samples, seed, map_methods, p["p_max"],
            eps_step=float(p["eps_step"])) if map_methods else {}
        for method in methods:
            est = ests[method] if method in ests else _GEXIT_METHODS[method](cfg, ch, seed)
            rows.append({"eps": ch.eps, "method": method, "value": est.value,
                         "std_err": est.std_error, "n": est.meta.get("n", 0),
                         "d": est.meta.get("d", 0), "samples": est.meta["samples"],
                         "seed": seed})
    return ExperimentResult(cfg, rows, {})


def _bounds(cfg):
    """Walk-expansion bound against exact correlations on LDGM corpora."""
    src, (ch,) = cfg.source, cfg.points
    n_graphs, H = cfg.settings["graphs"], float(cfg.settings["H"])
    fixed = not isinstance(src, gexit.EnsembleSpec)
    n_chk = src.n_chk if fixed else ensemble_sizes(src.dd, src.n, src.kind)[1]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    violations = 0
    per_graph = max(1, cfg.samples // n_graphs)
    # each graph's seed, check pair and LLR block in draw order, then one
    # sampler call for all the graphs
    seeds, draws = [], []
    for _ in range(n_graphs):
        if not fixed:
            seeds.append(int(rng.integers(2 ** 63)))
        draws.append((rng.choice(n_chk, 2, replace=False),
                      sample_llr(ch, (per_graph, n_chk), rng)))
    codes = [src] * n_graphs if fixed else sample_ensembles(src.dd, src.n, src.kind, seeds)
    for gi, (g, ((i, j), llrs)) in enumerate(zip(codes, draws)):
        A, B = set(g.adj_chk[int(i)]), set(g.adj_chk[int(j)])
        inst = make_instance(g, llrs)
        corrs = np.abs(spin_product_correlation(inst, A, B))
        bounds, _ = clusters.dkp_pointwise_bound(inst, A, B, H)
        violations += int(np.count_nonzero(corrs > bounds + 1e-12))
        avg_b, diverged = clusters.dkp_avg_bound(g, ch, A, B, H)
        rows.append({"graph": gi, "i": int(i), "j": int(j),
                     "dist": graph_distance(g, int(i), int(j)),
                     "mc_mean_abs_corr": float(np.mean(corrs)),
                     "mc_se": float(np.std(corrs) / math.sqrt(len(corrs))),
                     "mean_pointwise_bound": float(np.mean(bounds)),
                     "avg_bound": avg_b, "diverged": int(diverged)})
    return ExperimentResult(cfg, rows, {"violations": violations},
                            passed=bool(violations == 0))


def _ldpc_case(rng, n, m, deg_lo, deg_hi, l_max, cover=False):
    """One check-suite case (g, l, i, j), drawn from rng in this order: an
    LDPC graph of n bits and m checks, each check on deg_lo to deg_hi
    distinct bits; with cover, one more edge to a random check for each
    bit left in none (the Berretti cover); LLRs uniform in (-l_max,
    l_max); two distinct bits i, j."""
    edges = set()
    for c in range(m):
        deg = int(rng.integers(deg_lo, deg_hi + 1))
        for v in rng.choice(n, deg, replace=False):
            edges.add((int(v), c))
    for v in range(n) if cover else ():
        if not any(e[0] == v for e in edges):
            edges.add((v, int(rng.integers(m))))
    g = build_graph(n, m, sorted(edges), LDPC)
    l = rng.uniform(-l_max, l_max, n)
    i, j = (int(x) for x in rng.choice(n, 2, replace=False))
    return g, l, i, j


def _duality_check(cfg):
    rng = np.random.default_rng(cfg.seed)
    n_max = cfg.settings["n_max"]
    rows = []
    worst_mw = worst_r = 0.0
    for t in range(cfg.samples):
        n = int(rng.integers(3, n_max + 1))
        m = int(rng.integers(1, min(n, 9)))
        g, l, i, j = _ldpc_case(rng, n, m, 2, 3, 3)
        # rooted at i: the MacWilliams residual and both maps read one primal pass
        dinst = duality.DualInstance(make_instance(g, l), i)
        mw = duality.macwilliams_log_residual(dinst)
        r1, r2 = duality.duality_residuals(dinst, i, j)
        rows.append({"case": t, "n": n, "m": m, "macwilliams": mw,
                     "r1": r1, "r2": r2})
        worst_mw = max(worst_mw, mw)
        for r in (r1, r2):
            if not math.isnan(r):
                worst_r = max(worst_r, r)
    summary = {"worst_macwilliams": worst_mw, "worst_residual": worst_r}
    return ExperimentResult(cfg, rows, summary,
                            passed=bool(worst_mw < 1e-10 and worst_r < 1e-8))


def _berretti_check(cfg):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for t in range(cfg.samples):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        g, l, i, j = _ldpc_case(rng, n, m, 1, min(n, 3), 2, cover=True)
        resid = clusters.berretti_identity_residual(make_instance(g, l), i, j)
        rows.append({"case": t, "n": n, "m": m, "i": i, "j": j, "residual": resid})
        worst = max(worst, resid)
    return ExperimentResult(cfg, rows, {"worst_residual": worst},
                            passed=bool(worst < 1e-8))


def _limits(cfg):
    """Fixed-code LDGM: BP-GEXIT at small depths against large-depth
    references, with common noise across depths.  Passes when the gaps to
    the deepest reference fall strictly with d' or, once BP has
    converged, are exactly 0 from some d' on, and the references agree
    within 1e-6."""
    (ch,), d_primes, d_refs = cfg.points, cfg.settings["d_primes"], cfg.settings["d_refs"]
    depths = sorted(set(d_primes + d_refs))
    ests, diffs = gexit.bp_gexit_multi_depth(cfg.source, ch, depths, cfg.samples, cfg.seed)
    rows = [{"d": d, "value": ests[d].value, "std_err": ests[d].std_error}
            for d in depths]
    ref = max(d_refs)
    gaps = [abs(diffs[(dp, ref)][0]) for dp in d_primes]
    ref_gap = abs(diffs[(min(d_refs), ref)][0]) if len(d_refs) > 1 else 0.0
    # each gap below the one before, or BP converged: gaps exactly 0 from some d' on
    monotone = all(a > b or a == b == 0.0 for a, b in zip(gaps, gaps[1:]))
    summary = {"gaps_to_ref": dict(zip(map(str, d_primes), gaps)),
               "ref_gap": ref_gap, "monotone": monotone}
    return ExperimentResult(cfg, rows, summary,
                            passed=bool(monotone and ref_gap < 1e-6))


_RUNNERS = {"corr-decay": _corr_decay, "gexit-curve": _gexit_curve,
            "de-curve": _gexit_curve, "bounds": _bounds,
            "duality-check": _duality_check, "berretti-check": _berretti_check,
            "limits": _limits}

_CURVE_HEADER = ["eps", "method", "value", "std_err", "n", "d", "samples", "seed"]

_HEADERS = {
    "corr-decay": ["eps", "distance", "mean_abs_corr", "std_err", "n_samples"],
    "gexit-curve": _CURVE_HEADER,
    "de-curve": _CURVE_HEADER,
    "bounds": ["graph", "i", "j", "dist", "mc_mean_abs_corr", "mc_se",
               "mean_pointwise_bound", "avg_bound", "diverged"],
    "duality-check": ["case", "n", "m", "macwilliams", "r1", "r2"],
    "berretti-check": ["case", "n", "m", "i", "j", "residual"],
    "limits": ["d", "value", "std_err"],
}


def run_experiment(cfg):
    """Run one experiment; deterministic given the config seed."""
    return _RUNNERS[cfg.experiment](cfg)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _jsonable(x):
    """Convert numpy scalars so the JSON document carries real numbers."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def emit(result, fmt, path):
    """Write rows as CSV with the experiment's fixed header, or a JSON
    summary embedding the full config and a content hash of it."""
    if fmt == "csv":
        header = _HEADERS[result.config.experiment]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in result.rows:
                writer.writerow([_fmt(row[k]) for k in header])
    elif fmt == "json":
        cfg_doc = result.config.as_dict()
        blob = json.dumps(cfg_doc, sort_keys=True).encode()
        doc = {"config": cfg_doc,
               "content_hash": hashlib.sha256(blob).hexdigest(),
               "summary": result.summary,
               "passed": result.passed,
               "rows": result.rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, default=_jsonable)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
