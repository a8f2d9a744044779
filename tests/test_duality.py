import math

import numpy as np
import pytest

from conftest import random_ldpc_graph
from gibbscode import duality, exact, gf2, graphs
from gibbscode.duality import (DualDegenerate, DualInstance, dual_bracket,
                               dual_bracket_via_primal, dual_partition,
                               duality_residuals, macwilliams_log_residual)
from gibbscode.exact import BruteForceCapExceeded, make_instance, partition_function
from gibbscode.graphs import LDGM, LDPC, build_graph


def single_check_instance(l0, l1):
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDPC)
    return DualInstance(make_instance(g, [l0, l1]))


def test_gf2_rank():
    assert gf2.rank((0b001, 0b010, 0b100)) == 3
    assert gf2.rank((0b011, 0b110)) == 2
    assert gf2.rank((0b011, 0b011, 0b110)) == 2  # duplicate row
    assert gf2.rank(()) == 0


def test_code_cardinalities():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_ldpc_graph(rng)
        rank = gf2.rank(gf2.mask(c) for c in g.adj_chk)
        c = 2 ** (g.n_var - rank)
        c_dual = 2 ** rank
        assert c * c_dual == 2 ** g.n_var


def test_dual_partition_example():
    dinst = single_check_instance(0.5, 0.0)
    s, lz = dual_partition(dinst)
    assert s == 1.0
    assert s * math.exp(lz) == pytest.approx(2 * (1 + math.exp(-1)))


def test_dual_partition_large_l_limit():
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    dinst = DualInstance(make_instance(g, [30.0, 30.0, 30.0]))
    s, lz = dual_partition(dinst)
    assert s * math.exp(lz) == pytest.approx(2 ** 2, rel=1e-9)


def test_dual_bracket_examples():
    dinst = single_check_instance(0.5, 0.0)
    assert dual_bracket(dinst, ()) == pytest.approx(1.0)
    assert dual_bracket(dinst, (0,)) == pytest.approx(1.0)
    # l_i = 0: all bracket weight sits on tau_i = +1
    assert dual_bracket(dinst, (1,)) == pytest.approx(1.0)


def test_dual_bracket_via_primal_matches():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_ldpc_graph(rng)
        l = rng.uniform(-2, 2, g.n_var)
        dinst = DualInstance(make_instance(g, l))
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        assert dual_bracket_via_primal(dinst, (i,)) == \
            pytest.approx(dual_bracket(dinst, (i,)), abs=1e-9)
        assert dual_bracket_via_primal(dinst, (i, j)) == \
            pytest.approx(dual_bracket(dinst, (i, j)), abs=1e-9)


def test_macwilliams_hand_identity():
    # Z = 2^{-m} e^{sum l} Z_dual on the single-check code
    dinst = single_check_instance(0.5, 0.0)
    z = math.exp(partition_function(dinst.base))
    _, lz = dual_partition(dinst)
    assert z == pytest.approx(0.5 * math.exp(0.5) * math.exp(lz))
    assert macwilliams_log_residual(dinst) < 1e-14


def test_duality_residual_examples():
    dinst = single_check_instance(0.5, 0.3)
    r1, r2 = duality_residuals(dinst, 0, 1)
    assert r1 < 1e-10 and r2 < 1e-10
    # saturation limit: both sides of the first identity approach 1
    dinst2 = single_check_instance(30.0, 0.5)
    r1, _ = duality_residuals(dinst2, 0, 1)
    assert r1 < 1e-9
    # sinh floor: residuals are skipped (nan), not asserted
    dinst3 = single_check_instance(1e-5, 0.5)
    r1, r2 = duality_residuals(dinst3, 0, 1)
    assert math.isnan(r1) and math.isnan(r2)


def test_dual_instance_requires_ldpc():
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDGM)
    with pytest.raises(ValueError):
        DualInstance(make_instance(g, [0.1]))


def test_random_corpus_residuals():
    rng = np.random.default_rng(2)
    worst_mw = worst_r = 0.0
    for _ in range(60):
        g = random_ldpc_graph(rng)
        l = rng.uniform(-3, 3, g.n_var)
        dinst = DualInstance(make_instance(g, l))
        worst_mw = max(worst_mw, macwilliams_log_residual(dinst))
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        r1, r2 = duality_residuals(dinst, i, j)
        for r in (r1, r2):
            if not math.isnan(r):
                worst_r = max(worst_r, r)
    assert worst_mw < 1e-10
    assert worst_r < 1e-8


def test_dual_partition_respects_lower_bound():
    # Z_dual = 2^m e^{-sum l} Z >= 2^m: the all-plus codeword alone gives
    # Z >= e^{sum l}
    rng = np.random.default_rng(4)
    for _ in range(300):
        g = random_ldpc_graph(rng)
        dinst = DualInstance(make_instance(g, rng.uniform(-3, 3, g.n_var)))
        s, lz = dual_partition(dinst)
        assert s == 1.0
        assert lz >= g.n_chk * math.log(2.0) + math.log1p(-1e-12)


def test_degenerate_dual_sum_skips_residuals():
    # the signed sum cancels to exactly 0.0 here, far under its bound 2^m
    g = build_graph(3, 2, [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)], LDPC)
    l = [-25.712696788634965, 6.218191005684915, -29.472283152862474]
    dinst = DualInstance(make_instance(g, l))
    assert dual_partition(dinst) == (0.0, -math.inf)
    with pytest.raises(DualDegenerate):
        dual_bracket(dinst, (2,))
    r1, r2 = duality_residuals(dinst, 2, 0)
    assert math.isnan(r1) and math.isnan(r2)


def test_dual_weights_built_once_per_instance(monkeypatch):
    builds = []
    real = duality.dual_weights
    monkeypatch.setattr(duality, "dual_weights", lambda *a: builds.append(1) or real(*a))
    rng = np.random.default_rng(3)
    g = random_ldpc_graph(rng)
    dinst = DualInstance(make_instance(g, rng.uniform(-2, 2, g.n_var)))
    macwilliams_log_residual(dinst)
    duality_residuals(dinst, 0, 1)
    assert len(builds) == 1
    # the dual table is capped where the weights are built, by exact's rule
    # for an LDGM table: on its rank, which is rank H
    rank = len(g.reduced_checks)
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", rank - 1)
    with pytest.raises(BruteForceCapExceeded,
                       match=rf"support dimension {rank} \(rank G\) exceeds cap {rank - 1}"):
        dual_bracket(DualInstance(make_instance(g, rng.uniform(-2, 2, g.n_var))), (0,))
    assert len(builds) == 1


def full_cube_dual(g, l):
    """tau over all 2^m dual configurations u (rows) and the signed weight
    of each: the brute force the dual codeword table stands in for."""
    T = gf2.parity_signs(gf2.cube(g.n_chk), [gf2.mask(a) for a in g.adj_var])
    a = np.exp(-2.0 * np.asarray(l, dtype=np.longdouble))
    return T, np.prod(1 + a * T, axis=1)


def test_dual_sums_over_codewords_on_redundant_checks():
    """With a redundant check (m > rank H) the dual table holds 2^rank H
    codewords, each weighted by the 2^(m - rank H) configurations u that
    give it; Z_dual and the brackets equal the full 2^m-cube sums."""
    rng = np.random.default_rng(5)
    # check 2 is the sum of checks 0 and 1
    triangle = build_graph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2), (2, 3),
                                  (3, 3)], LDPC)
    graphs = [triangle] + [g for g in (random_ldpc_graph(rng) for _ in range(300))
                           if len(g.reduced_checks) < g.n_chk][:20]
    assert len(graphs) == 21
    for g in graphs:
        rank = len(g.reduced_checks)
        l = rng.uniform(-1.5, 1.5, g.n_var)
        dinst = DualInstance(make_instance(g, l))
        T, W, z = dinst.weights
        assert T.shape == (2 ** rank, g.n_var)
        assert len(np.unique(T, axis=0)) == 2 ** rank  # each dual codeword once
        Tc, Wc = full_cube_dual(g, l)
        s, lz = dual_partition(dinst)
        assert s * math.exp(lz) == pytest.approx(float(Wc.sum()), rel=1e-12)
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        for S in ((i,), (i, j)):
            want = float(Wc @ np.prod(Tc[:, list(S)], axis=1) / Wc.sum())
            assert dual_bracket(dinst, S) == pytest.approx(want, rel=1e-12)
        assert macwilliams_log_residual(dinst) < 1e-12


def test_one_primal_pass_per_duality_case(monkeypatch):
    """A duality case rooted at i reads log Z, <x_i> and the (i, j)
    correlation from one exact posterior pass, and each equals the
    separate pass (partition_function, all_marginals, pair_correlation)
    bit for bit; duality-check makes one primal pass per case."""
    from gibbscode.experiments import ExperimentConfig, run_experiment

    passes = []
    real = exact._posterior
    monkeypatch.setattr(exact, "_posterior", lambda *a: passes.append(1) or real(*a))
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_ldpc_graph(rng)
        l = rng.uniform(-3, 3, g.n_var)
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        dinst = DualInstance(make_instance(g, l), i)
        del passes[:]
        mw = macwilliams_log_residual(dinst)
        r1, r2 = duality_residuals(dinst, i, j)
        assert len(passes) == 1
        # the same residuals from the three separate passes
        logz, marg = partition_function(dinst.base), exact.all_marginals(dinst.base)
        corr = exact.pair_correlation(dinst.base, i, j)
        zs, zl = dual_partition(dinst)
        want_mw = abs(math.expm1(zl + float(np.sum(l)) - g.n_chk * math.log(2.0) - logz))
        assert mw == want_mw
        si, sj = math.sinh(2 * l[i]), math.sinh(2 * l[j])
        if abs(si) > duality.SINH_FLOOR:
            ti = dual_bracket(dinst, (i,))
            assert r1 == abs(marg[i] - (1.0 / math.tanh(2 * l[i]) - ti / si))
            if abs(sj) > duality.SINH_FLOOR:
                tij, tj = dual_bracket(dinst, (i, j)), dual_bracket(dinst, (j,))
                assert r2 == abs(corr - (tij - ti * tj) / (si * sj))
        # rooted elsewhere: one more pass, rooted at i, with the same residuals
        del passes[:]
        assert duality_residuals(DualInstance(dinst.base, j), i, j) == pytest.approx(
            (r1, r2), nan_ok=True, rel=0, abs=0)
        assert len(passes) == 1
    del passes[:]
    cfg = ExperimentConfig.from_json({"experiment": "duality-check", "code": {},
                                      "channel": "bsc:0.3", "samples": 30, "seed": 102})
    assert len(run_experiment(cfg).rows) == 30
    assert len(passes) == 30


def test_dual_weights_multiply_in_column_order():
    """W is the column-by-column product of the longdouble factors
    1 + e^{-2 l_i} tau_i, started from 2^coset_bits, bit for bit (the
    power of two moves no bit wherever it enters); on graphs with
    redundant checks too, and at LLRs where the factors span many
    orders of magnitude."""
    rng = np.random.default_rng(23)
    redundant = 0
    for k in range(40):
        g = random_ldpc_graph(rng)
        redundant += len(g.reduced_checks) < g.n_chk
        dual = graphs.dual_graph(g, range(g.n_var), range(g.n_chk))
        l = rng.uniform(-3, 3, g.n_var) if k % 2 else rng.uniform(-12, 12, g.n_var)
        T, W = duality.dual_weights(dual, l)
        want = np.full(len(T), np.longdouble(2.0 ** dual.coset_bits))
        for i in range(T.shape[1]):
            want *= np.longdouble(1.0) + np.exp(np.longdouble(-2.0) * np.longdouble(l[i])) \
                * T[:, i].astype(np.longdouble)
        assert W.dtype == np.longdouble and np.array_equal(W, want)
        assert np.array_equal(np.signbit(W), np.signbit(want))
    assert redundant >= 3
