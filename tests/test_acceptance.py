"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity (run with `pytest -s` to see the lines
as they appear; `pytest -v` shows one result per criterion).

Every tolerance is pinned here.  Corpora are fixed by explicit seeds, so
each criterion is a deterministic check.
"""

import math

import numpy as np
import pytest

from conftest import LIMITS_EDGES, fixed_code_corpus, random_ldgm_graph, random_tree_graph, \
    series_zero_moment_value, tiny_ldpc_no_isolated
from gibbscode.bp import bp_run
from gibbscode.channels import ChannelModel, default_H, sample_llr
from gibbscode.clusters import (berretti_identity_residual, dkp_pointwise_bound,
                                replica_g_sums)
from gibbscode.de import de_gexit
from gibbscode.duality import DualInstance, duality_residuals, \
    macwilliams_log_residual
from gibbscode.exact import (all_marginals, make_instance,
                             spin_product_correlation)
from gibbscode.experiments import ExperimentConfig, run_experiment
from gibbscode.gexit import (EnsembleSpec, entropy_fd, map_gexit,
                             map_gexit_series, nishimori_residual)
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution, build_graph


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
def test_criterion_01_tree_exactness():
    """BP equals the exact marginals on tree codes to 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    graphs = 0
    for kind in (LDPC, LDGM):
        for ch in (ChannelModel("bsc", 0.3), ChannelModel("biawgnc", 0.5)):
            for _ in range(25):
                g = random_tree_graph(rng, kind, max_code_bits=15)
                graphs += 1
                d = g.n_var + g.n_chk
                for _ in range(100):
                    inst = make_instance(g, sample_llr(ch, g.code_bit_count, rng))
                    diff = np.max(np.abs(bp_run(inst, d) - all_marginals(inst)))
                    worst = max(worst, float(diff))
    report(1, "tree-exactness", worst < 1e-9,
           f"{graphs} trees x 100 draws, max|bp-exact| = {worst:.3e}")


# --------------------------------------------------------------------------
def _duality_corpus():
    rng = np.random.default_rng(102)
    corpus = []
    for _ in range(200):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, min(n, 9)))
        edges = set()
        for c in range(m):
            deg = int(rng.integers(2, 4))
            for v in rng.choice(n, deg, replace=False):
                edges.add((int(v), c))
        g = build_graph(n, m, sorted(edges), LDPC)
        l = rng.uniform(-3, 3, n)
        i, j = (int(x) for x in rng.choice(n, 2, replace=False))
        corpus.append((DualInstance(make_instance(g, l)), i, j))
    return corpus


def test_criterion_02_macwilliams_identity():
    worst = max(macwilliams_log_residual(d) for d, _, _ in _duality_corpus())
    report(2, "macwilliams-identity", worst < 1e-10,
           f"200 instances, worst relative residual = {worst:.3e}")


def test_criterion_03_correlation_duality():
    worst = 0.0
    checked = 0
    for dinst, i, j in _duality_corpus():
        r1, r2 = duality_residuals(dinst, i, j)
        for r in (r1, r2):
            if not math.isnan(r):
                worst = max(worst, r)
                checked += 1
    report(3, "correlation-duality", worst < 1e-8,
           f"{checked} residuals above the sinh floor, worst = {worst:.3e}")


# --------------------------------------------------------------------------
def test_criterion_04_dkp_pointwise_dominance():
    rng = np.random.default_rng(104)
    violations = 0
    cases = 0
    margin = 0.0
    for ch in (ChannelModel("bsc", 0.45), ChannelModel("biawgnc", 4.0)):
        H = default_H(ch)
        for _ in range(25):
            g = random_ldgm_graph(rng, m_max=8, n_max=8)
            i, j = (int(x) for x in rng.choice(g.n_chk, 2, replace=False))
            A, B = set(g.adj_chk[i]), set(g.adj_chk[j])
            # 1000 draws as one block: the same numbers as 1000 single draws
            inst = make_instance(g, sample_llr(ch, (1000, g.n_chk), rng))
            corr = np.abs(spin_product_correlation(inst, A, B))
            bound, _ = dkp_pointwise_bound(inst, A, B, H)
            cases += len(corr)
            violations += int(np.count_nonzero(corr > bound + 1e-12))
            margin = max(margin, float(np.max(corr - bound)))
    report(4, "dkp-pointwise-dominance", violations == 0,
           f"{cases} cases, violations = {violations}, max(corr-bound) = {margin:.3e}")


# --------------------------------------------------------------------------
def test_criterion_05_berretti_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(24):
        g = tiny_ldpc_no_isolated(rng)
        l = rng.uniform(-2, 2, g.n_var)
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        worst = max(worst, berretti_identity_residual(make_instance(g, l), i, j))
    report(5, "berretti-identity", worst < 1e-8,
           f"24 tiny instances, worst residual = {worst:.3e}")


# --------------------------------------------------------------------------
def test_criterion_06_nonconnecting_sum_vanishes():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        g = random_ldgm_graph(rng, m_max=6, n_max=8)
        inst = make_instance(g, rng.normal(0, 1.0, g.n_chk))
        i, j = (int(x) for x in rng.choice(g.n_chk, 2, replace=False))
        A, B = set(g.adj_chk[i]), set(g.adj_chk[j])
        H = float(rng.uniform(0.5, 1.5))
        _, noncon = replica_g_sums(inst, A, B, H)
        worst = max(worst, abs(noncon))
    report(6, "replica-nonconnecting-vanishing", worst < 1e-12,
           f"20 tiny instances, worst |partial sum| = {worst:.3e}")


# --------------------------------------------------------------------------
def test_criterion_07_gexit_definitional_oracle():
    worst_z = 0.0
    cases = []
    for name, g in fixed_code_corpus():
        for eps in (0.2, 0.3, 0.4):
            ch = ChannelModel("bsc", eps)
            f = map_gexit(g, ch, 10 ** 4, 107)
            e = entropy_fd(g, ch, 1e-3, 10 ** 4, 107)
            comb = math.hypot(f.std_error, e.std_error)
            z = abs(f.value - e.value) / comb
            worst_z = max(worst_z, z)
            cases.append(z < 3.0)
    report(7, "gexit-definitional-oracle", all(cases),
           f"15 code/eps pairs, worst |diff|/SE = {worst_z:.2f} (< 3)")


# --------------------------------------------------------------------------
def test_criterion_08_series_consistency():
    worst_ratio = 0.0
    ok = True
    for name, g in fixed_code_corpus():
        pref = g.n_chk / g.n_var if g.kind == LDGM else 1.0
        for eps in (0.2, 0.3, 0.4):
            ch = ChannelModel("bsc", eps)
            f = map_gexit(g, ch, 10 ** 4, 108)
            s = map_gexit_series(g, ch, 10 ** 4, 108, p_max=20)
            allowance = 3 * math.hypot(f.std_error, s.std_error) + \
                pref * s.meta["tail_bound"]
            ratio = abs(f.value - s.value) / allowance
            worst_ratio = max(worst_ratio, ratio)
            ok = ok and ratio < 1.0
            # zero-moment closed form: prefactor * ln((1-eps)/eps)
            closed = pref * math.log((1 - eps) / eps)
            zm = series_zero_moment_value(pref, ch, p_max=20)
            ok = ok and abs(zm - closed) < 1e-9
    report(8, "series-consistency", ok,
           f"worst |functional-series|/(3SE+tail) = {worst_ratio:.2f}; "
           f"zero-moment closed form within 1e-9")


# --------------------------------------------------------------------------
def test_criterion_09_nishimori_identities():
    rep3 = fixed_code_corpus()[0][1]
    ldgm = fixed_code_corpus()[3][1]
    worst = 0.0
    ok = True
    for g in (rep3, ldgm):
        for ch in (ChannelModel("bsc", 0.25), ChannelModel("biawgnc", 0.8)):
            for p in (1, 2, 3):
                r, se = nishimori_residual(g, ch, p, 10 ** 4, 109)
                worst = max(worst, r / (4 * se))
                ok = ok and r < 4 * se
    report(9, "nishimori-identities", ok,
           f"12 cases (2 codes x 2 channels x p in 1..3), worst resid/4SE = {worst:.2f}")


# --------------------------------------------------------------------------
def _extrapolate(ns, vals, ses):
    x = 1.0 / np.asarray(ns, float)
    w = 1.0 / np.maximum(np.asarray(ses), 1e-9) ** 2
    xb = (w * x).sum() / w.sum()
    yb = (w * np.asarray(vals)).sum() / w.sum()
    slope = (w * (x - xb) * (np.asarray(vals) - yb)).sum() / \
        (w * (x - xb) ** 2).sum()
    return yb - slope * xb


def test_criterion_10_de_computes_map():
    # LDGM side: regular degrees (3, 2) at high noise
    ch = ChannelModel("bsc", 0.45)
    dd = DegreeDistribution.regular(3, 2)
    ns = (12, 15, 18)
    vals, ses = [], []
    for n in ns:
        est = map_gexit(EnsembleSpec(dd, n, LDGM), ch, 4000, 110 + n,
                        noise_per_graph=10)
        vals.append(est.value)
        ses.append(est.std_error)
    ext_g = _extrapolate(ns, vals, ses)
    de_g = de_gexit(LDGM, dd, ch, 20, 10 ** 5, 110)
    gap_g = abs(ext_g - de_g)
    # LDPC side: regular degrees (4, 4) at low noise
    ch2 = ChannelModel("bsc", 0.02)
    dd2 = DegreeDistribution.regular(4, 4)
    ns2 = (12, 14, 16, 18)
    vals2, ses2 = [], []
    for n in ns2:
        est = map_gexit(EnsembleSpec(dd2, n, LDPC), ch2, 12000, 210 + n,
                        noise_per_graph=20)
        vals2.append(est.value)
        ses2.append(est.std_error)
    ext_p = _extrapolate(ns2, vals2, ses2)
    de_p = de_gexit(LDPC, dd2, ch2, 20, 10 ** 5, 210)
    gap_p = abs(ext_p - de_p)
    report(10, "de-computes-map", gap_g <= 0.05 and gap_p <= 0.05,
           f"LDGM |extrap-de| = {gap_g:.4f}, LDPC |extrap-de| = {gap_p:.4f} (<= 0.05)")


# --------------------------------------------------------------------------
def test_criterion_11_correlation_decay_signature():
    cfg = ExperimentConfig.from_json({
        "experiment": "corr-decay",
        "code": {"type": "ensemble", "family": "ldgm",
                 "var_coeffs": {"2": 2 / 3, "3": 1 / 3},
                 "chk_coeffs": {"2": 1.0}, "n": 14},
        "channel": "bsc:0.45",
        "eps_grid": [0.40, 0.45, 0.47],
        "samples": 6000, "seed": 111, "params": {"graphs": 6}})
    res = run_experiment(cfg)
    fits = res.summary["fits"]
    mid = fits[0.45]
    ok = mid["r"] <= -0.9 and mid["n_points"] >= 4 and \
        1.0 / fits[0.47]["xi"] > 1.0 / fits[0.40]["xi"]
    report(11, "correlation-decay-signature", ok,
           f"r(0.45) = {mid['r']:.3f} over {mid['n_points']} bins; "
           f"1/xi: {1/fits[0.40]['xi']:.2f} (eps=0.40) -> "
           f"{1/fits[0.47]['xi']:.2f} (eps=0.47)")


# --------------------------------------------------------------------------
def test_criterion_12_limits_exchange_mechanism():
    cfg = ExperimentConfig.from_json({
        "experiment": "limits",
        "code": {"type": "edges", "family": "ldgm", "n_var": 7, "n_chk": 10,
                 "edges": LIMITS_EDGES},
        "channel": "bsc:0.45", "samples": 500, "seed": 112,
        "params": {"d_primes": [2, 4, 6], "d_refs": [100, 200]}})
    res = run_experiment(cfg)
    s = res.summary
    report(12, "limits-exchange-mechanism",
           bool(s["monotone"] and s["ref_gap"] < 1e-6),
           f"gaps to d=200: {s['gaps_to_ref']}; |g(100)-g(200)| = {s['ref_gap']:.2e}")


# --------------------------------------------------------------------------
def test_criterion_13_de_reproducibility():
    dd = DegreeDistribution.from_dicts({2: 1.0}, {1: 0.5, 2: 0.5})
    ch = ChannelModel("bsc", 0.4)
    two = abs(de_gexit(LDGM, dd, ch, 10, 10 ** 5, 0) -
              de_gexit(LDGM, dd, ch, 10, 10 ** 5, 1))
    v1 = [de_gexit(LDGM, dd, ch, 10, 10 ** 5, s) for s in range(24)]
    v2 = [de_gexit(LDGM, dd, ch, 10, 2 * 10 ** 5, 500 + s) for s in range(24)]
    s1 = float(np.std(v1, ddof=1))
    s2 = float(np.std(v2, ddof=1))
    ok = two < 2e-3 and s2 <= 0.75 * s1
    report(13, "de-reproducibility", ok,
           f"two-seed |diff| = {two:.2e} (< 2e-3); spread ratio 2N/N = "
           f"{s2/s1:.3f} (<= 0.75)")
