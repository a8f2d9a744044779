import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_ldgm_graph, tiny_ldpc_no_isolated
from gibbscode import clusters, exact, gf2
from gibbscode.channels import ChannelModel, default_H, sample_llr
from gibbscode.clusters import (BadSet, ClusterTerm, berretti_avg_bound,
                                berretti_identity_residual, berretti_term,
                                dkp_avg_bound, dkp_pointwise_bound,
                                enumerate_clusters, replica_g_sums)
from gibbscode.exact import make_instance, spin_product_correlation
from gibbscode.experiments import ExperimentConfig, run_experiment
from gibbscode.graphs import LDGM, LDPC, EnumerationCapExceeded, build_graph, dual_graph


def test_bad_set():
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)], LDGM)
    inst = make_instance(g, [0.5, -2.0, 0.1])
    assert BadSet.from_instance(inst, 1.0).members == {1}
    assert BadSet.from_instance(inst, 3.0).members == set()


def test_dkp_pointwise_examples():
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDGM)
    inst = make_instance(g, [0.1])
    b, truncated = dkp_pointwise_bound(inst, {0}, {1}, 1.0)
    assert not truncated
    assert b == pytest.approx(2 * (math.exp(0.4) - 1))
    assert abs(spin_product_correlation(inst, {0}, {1})) <= b
    # trivial walk: A = B
    b0, _ = dkp_pointwise_bound(inst, {0}, {0}, 1.0)
    assert b0 == pytest.approx(2.0)
    # everything bad: rho = 1 on every walk
    bb, _ = dkp_pointwise_bound(make_instance(g, [5.0]), {0}, {1}, 1.0)
    assert bb == pytest.approx(2.0)
    # truncation flag
    _, tr = dkp_pointwise_bound(inst, {0}, {1}, 1.0, max_len=0)
    assert tr


def test_dkp_pointwise_bound_skips_the_bad_checks_expm1():
    """rho = expm1(4|l|) is evaluated on the kept checks alone: the bad
    ones (|l| > H) take 1 without it, so LLRs far above H, as BIAWGNC at
    eps 1e-3 draws them, raise no overflow warning; and the bounds stage
    of such a config runs under RuntimeWarning as an error."""
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)], LDGM)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b, _ = dkp_pointwise_bound(make_instance(g, [[1000.0, 0.1, 900.0], [0.2, 1e4, 0.3]]),
                                   {0}, {1}, 2.0)
        assert b.tolist() == [2.0 * math.expm1(0.4), 2.0]  # the one walk, via check 1
        cfg = ExperimentConfig.from_json({
            "experiment": "bounds", "channel": "biawgnc:0.001", "samples": 10, "seed": 3,
            "code": {"type": "ensemble", "family": "ldgm", "var_degree": 3, "chk_degree": 2,
                     "n": 9}})
        assert run_experiment(cfg).passed is not None


def test_dkp_pointwise_dominance_random():
    rng = np.random.default_rng(0)
    for _ in range(150):
        g = random_ldgm_graph(rng)
        inst = make_instance(g, rng.normal(0, 1.2, g.n_chk))
        i, j = rng.choice(g.n_chk, 2, replace=False)
        A, B = set(g.adj_chk[int(i)]), set(g.adj_chk[int(j)])
        H = float(rng.uniform(0.3, 2.0))
        corr = abs(spin_product_correlation(inst, A, B))
        bound, _ = dkp_pointwise_bound(inst, A, B, H)
        assert corr <= bound + 1e-12


def test_block_walk_bound_matches_single_draws():
    """Each row of a block bound equals the one-draw bound bit for bit, on
    random LDGM graphs with intersecting endpoint sets, all-bad rows and
    a truncated walk length."""
    rng = np.random.default_rng(61)
    for t in range(40):
        g = random_ldgm_graph(rng, m_max=7, n_max=8)
        i, j = (int(x) for x in rng.choice(g.n_chk, 2, replace=False))
        A, B = set(g.adj_chk[i]), set(g.adj_chk[j])
        if t % 4 == 0:  # A and B share a variable: one trivial walk each
            B = B | {min(A)}
        L = rng.normal(0, 1.0, (9, g.n_chk))
        L[0] = 3.0 * np.sign(L[0]) + L[0]  # every check bad (|l| > H)
        H = float(rng.uniform(0.2, 1.5))
        for max_len in (None, 1):
            block, truncated = dkp_pointwise_bound(make_instance(g, L), A, B, H, max_len)
            assert block.shape == (len(L),)
            for l, row in zip(L, block):
                single, tr = dkp_pointwise_bound(make_instance(g, l), A, B, H, max_len)
                assert type(single) is float and tr == truncated
                assert row == single
    # the truncation flag and intersecting sets on a fixed example
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDGM)
    L = np.array([[0.1], [5.0]])
    b, tr = dkp_pointwise_bound(make_instance(g, L), {0}, {0, 1}, 1.0)
    assert not tr and b.tolist() == [2.0 + 2.0 * math.expm1(0.4), 4.0]
    _, tr = dkp_pointwise_bound(make_instance(g, L), {0}, {1}, 1.0, max_len=0)
    assert tr


def test_dkp_avg_bound():
    ch = ChannelModel("bsc", 0.49)
    # ring of degree-2 checks: K = l_max k_max = 4
    m = 6
    edges = [(v, v) for v in range(m)] + [((v + 1) % m, v) for v in range(m)]
    g = build_graph(m, m, edges, LDGM)
    H = 0.5 * math.log((1 - 0.49) / 0.49)
    b, diverged = dkp_avg_bound(g, ch, {0}, {3}, H)
    assert not diverged
    # mean of the pointwise bound is below the averaged closed form
    rng = np.random.default_rng(1)
    vals = []
    for s in range(1500):
        inst = make_instance(g, sample_llr(ch, m, rng))
        vals.append(dkp_pointwise_bound(inst, {0}, {3}, H)[0])
    assert np.mean(vals) <= b * (1 + 1e-6)
    # diverged flag when K delta >= 1
    b2, diverged2 = dkp_avg_bound(g, ch, {0}, {3}, 2.0)
    assert diverged2 and math.isinf(b2)
    # zero-distance closed form
    b3, _ = dkp_avg_bound(g, ch, {0}, {0}, H)
    from gibbscode.channels import delta_high
    kd = 4 * delta_high(ch, H)
    assert b3 == pytest.approx(2.0 / (1 - kd))
    # disconnected sets
    g2 = build_graph(2, 2, [(0, 0), (1, 1)], LDGM)
    assert dkp_avg_bound(g2, ch, {0}, {1}, H)[0] == 0.0


def test_enumerate_clusters_shared_check():
    # i, j adjacent through one shared check
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDPC)
    terms = enumerate_clusters(g, 0, 1)
    assert len(terms) == 1
    term = terms[0]
    assert term.xhat == frozenset({0})
    # Y = {0,1} generates Gamma = {0,1}, {0}, {1}, {}
    assert sorted(map(sorted, term.gammas)) == [[], [0], [0, 1], [1]]


def test_enumerate_clusters_disconnected():
    g = build_graph(2, 2, [(0, 0), (1, 1)], LDPC)
    assert enumerate_clusters(g, 0, 1) == []


def test_enumerate_clusters_chain_witness():
    # i - c0 - v - c1 - j: only Y = {i, v, j} connects i and j
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    terms = enumerate_clusters(g, 0, 2)
    assert len(terms) == 1
    term = terms[0]
    assert term.xhat == frozenset({0, 1})
    # every compatible Gamma must contain the connecting interior node
    assert all(1 in gset for gset in term.gammas)
    # compatibility conditions hold for each stored Gamma
    for gset in term.gammas:
        boundary = set()
        for v in gset:
            boundary.update(g.adj_var[v])
        assert boundary | set(g.adj_var[0]) | set(g.adj_var[2]) == set(term.xhat)


def test_cluster_caps_reject_oversized_enumerations(monkeypatch):
    chain = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    inst = make_instance(chain, [0.3, -0.2, 0.5])
    monkeypatch.setattr(clusters, "CLUSTER_ENUM_CAP", 2)
    (term,) = enumerate_clusters(chain, 0, 2)  # candidates {0, 2} and {0, 1, 2}
    monkeypatch.setattr(clusters, "CLUSTER_ENUM_CAP", 1)
    with pytest.raises(EnumerationCapExceeded, match="2 candidate sets exceed cap 1"):
        enumerate_clusters(chain, 0, 2)
    berretti_term(inst, term, 0, 2)
    monkeypatch.setattr(clusters, "REPLICA_CAP", 1)
    with pytest.raises(EnumerationCapExceeded, match="cluster of size 2 exceeds replica cap 1"):
        berretti_term(inst, term, 0, 2)
    # every check is good under H = 10, so all three are enumerated
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)], LDGM)
    ldgm = make_instance(g, [0.3, -0.2, 0.5])
    replica_g_sums(ldgm, {0}, {1}, 10.0)
    monkeypatch.setattr(clusters, "REPLICA_GOOD_CAP", 2)
    with pytest.raises(EnumerationCapExceeded, match="3 good checks exceed cap 2"):
        replica_g_sums(ldgm, {0}, {1}, 10.0)


def test_berretti_term_vanishing_cases():
    # non-adjacent bits with all l large: every compatible Gamma is
    # nonempty, so each E_k factor kills the term
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    inst = make_instance(g, [30.0, 30.0, 30.0])
    for term in enumerate_clusters(g, 0, 2):
        K, _, _ = berretti_term(inst, term, 0, 2)
        assert abs(K) < 1e-20


def test_berretti_identity_tiny_corpus():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(30):
        g = tiny_ldpc_no_isolated(rng)
        l = rng.uniform(-2, 2, g.n_var)
        i, j = (int(x) for x in rng.choice(g.n_var, 2, replace=False))
        worst = max(worst, berretti_identity_residual(make_instance(g, l), i, j))
    assert worst < 1e-8


def test_berretti_identity_double_evaluation():
    # two-variable single-check toy: K assembled from the term evaluator
    # must close the identity computed from the dual brackets
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDPC)
    inst = make_instance(g, [0.5, 0.3])
    assert berretti_identity_residual(inst, 0, 1) < 1e-12


def test_berretti_avg_bound():
    cha = ChannelModel("biawgnc", 0.01)
    chain = build_graph(6, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                               (3, 3), (4, 3), (4, 4), (5, 4)], LDPC)
    bounds = []
    for j in (1, 3, 5):
        b, diverged = berretti_avg_bound(chain, cha, 0, j, 0.1)
        assert not diverged
        bounds.append(b)
    assert bounds[0] > bounds[1] > bounds[2]  # geometric decay in distance
    # the assembled 2^{(2+k_max)|X|} K^{|X|} constants force the diverged
    # flag on the BSC even at low noise (Delta ~ eps^{2s} decays too
    # slowly), so the dominance property is testable only on the BIAWGNC
    for eps in (0.3, 0.05):
        _, diverged = berretti_avg_bound(chain, ChannelModel("bsc", eps), 0, 5, 0.1)
        assert diverged
    with pytest.raises(ValueError):
        berretti_avg_bound(chain, cha, 0, 5, 0.7)


def test_berretti_avg_bound_dominates_truth():
    """Averaged truth <= bound whenever the bound converges (BIAWGNC at
    low noise on a small chain code)."""
    cha = ChannelModel("biawgnc", 0.01)
    chain = build_graph(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                               (3, 3), (4, 3)], LDPC)
    b, diverged = berretti_avg_bound(chain, cha, 0, 2, 0.1)
    assert not diverged
    rng = np.random.default_rng(3)
    vals = []
    from gibbscode.exact import pair_correlation
    for s in range(2000):
        inst = make_instance(chain, sample_llr(cha, 5, rng))
        vals.append(abs(pair_correlation(inst, 0, 2)))
    assert np.mean(vals) <= b


def replica_decomposition_residual(inst, A, B, H):
    """|full G-sum - exact correlation|: the decomposition identity."""
    con, noncon = replica_g_sums(inst, A, B, H)
    return abs((con + noncon) - spin_product_correlation(inst, A, B))


def test_replica_decomposition_and_vanishing():
    rng = np.random.default_rng(4)
    worst_nc = worst_id = 0.0
    for _ in range(25):
        g = random_ldgm_graph(rng)
        inst = make_instance(g, rng.normal(0, 1.0, g.n_chk))
        i, j = rng.choice(g.n_chk, 2, replace=False)
        A, B = set(g.adj_chk[int(i)]), set(g.adj_chk[int(j)])
        H = float(rng.uniform(0.5, 1.5))
        con, noncon = replica_g_sums(inst, A, B, H)
        worst_nc = max(worst_nc, abs(noncon))
        worst_id = max(worst_id, replica_decomposition_residual(inst, A, B, H))
    assert worst_nc < 1e-12   # non-connecting terms vanish identically
    assert worst_id < 1e-10   # the full G-sum reproduces the correlation


def test_replica_sums_class_cutting_subsets_as_nonconnecting(monkeypatch):
    """replica_g_sums puts a subset G of good checks in the connecting sum
    iff the bad checks and G join A to B.  The terms of the other subsets
    vanish identically, so the sums alone cannot tell the split: here
    f_A f_B is replaced by 1, every term is nonzero, and both sums must
    equal the terms of the subsets that a union-find over bad | G
    classes.  A path 0 -c0- 1 -c1- 2 -c2- 3 with single-bit checks c3 on
    0 and c4 on 3, A = {0}, B = {3}: with every check good, {c0, c2} cuts
    A from B; with c1 bad, {c0, c2} connects and {c0} does not."""
    g = build_graph(4, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3), (3, 4)],
                    LDGM)
    real = clusters._replica_tables

    def flat(inst, A, B):
        FAB, Ms = real(inst, A, B)
        return np.ones_like(FAB), Ms

    monkeypatch.setattr(clusters, "_replica_tables", flat)

    def joined(checks):
        comp = list(range(g.n_var))
        find = lambda v: v if comp[v] == v else find(comp[v])
        for c in checks:
            for v in g.adj_chk[c][1:]:
                comp[find(v)] = find(g.adj_chk[c][0])
        return find(0) == find(3)

    for l, cut, joins in (([0.3, -0.2, 0.4, 0.1, -0.5], (0, 2), (0, 1, 2)),
                          ([0.3, -2.0, 0.4, 0.1, -0.5], (0,), (0, 2))):
        inst = make_instance(g, l)
        bad = [c for c in range(g.n_chk) if abs(l[c]) > 1.0]
        good = [c for c in range(g.n_chk) if c not in bad]
        assert not joined(bad + list(cut)) and joined(bad + list(joins))
        _, Ms = real(inst, {0}, {3})
        base = np.prod([Ms[c] for c in bad], axis=0) if bad else np.ones_like(Ms[0])
        scale = math.exp(-2.0 * (exact.partition_function(inst) + np.abs(l).sum())) / 2.0
        want = [0.0, 0.0]
        for r in range(len(good) + 1):
            for G in itertools.combinations(good, r):
                prod = base * np.prod([Ms[c] - 1.0 for c in G], axis=0) if G else base
                want[not joined(bad + list(G))] += scale * float(prod.sum())
        con, noncon = replica_g_sums(inst, {0}, {3}, 1.0)
        assert abs(noncon) > 1e-3 * abs(con) > 0
        assert con == pytest.approx(want[0], rel=1e-12)
        assert noncon == pytest.approx(want[1], rel=1e-12)


def test_replica_decomposition_on_rank_deficient_graph():
    """The replica sums run over all 2^n_var configurations while the
    exact correlation comes from the table of one configuration per coset
    of the kernel of G: a 4-cycle of degree-2 checks and a variable in no
    check give rank G = 3 of 5.  Products inside and outside the row
    space of G."""
    g = build_graph(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3), (3, 3)],
                    LDGM)
    assert g.free_spin_count == 3
    inst = make_instance(g, [0.4, -0.7, 1.1, 0.3])
    for A, B in (({0}, {2}), ({0, 1}, {2, 3}), ({0}, {4})):
        con, noncon = replica_g_sums(inst, A, B, 0.5)
        assert abs(noncon) < 1e-12
        assert replica_decomposition_residual(inst, A, B, 0.5) < 1e-10
    assert abs(spin_product_correlation(inst, {0}, {2})) > 1e-3


def test_replica_tables_match_the_popcount():
    """The replica tables doubled from the variables' incidence rows equal
    those read off the popcounted parity signs of all 2^n_var
    configurations against the check masks and the masks of A and B, bit
    for bit; on random LDGM graphs, a variable in no check among them."""
    rng = np.random.default_rng(31)
    graphs = [random_ldgm_graph(rng) for _ in range(30)]
    graphs.append(build_graph(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3),
                                     (3, 3)], LDGM))
    for g in graphs:
        A = {v for v in range(g.n_var) if rng.random() < 0.5}
        B = {v for v in range(g.n_var) if rng.random() < 0.5}
        inst = make_instance(g, rng.normal(0.3, 1.0, g.n_chk))
        masks = [gf2.mask(c) for c in g.adj_chk] + [gf2.mask(A), gf2.mask(B)]
        signs = gf2.parity_signs(gf2.cube(g.n_var), masks).astype(float)
        X, uA, uB = signs[:, :g.n_chk], signs[:, -2], signs[:, -1]
        l = inst.values
        FAB, Ms = clusters._replica_tables(inst, A, B)
        assert np.array_equal(FAB, (uA[:, None] - uA[None, :]) * (uB[:, None] - uB[None, :]))
        for c in range(g.n_chk):
            want = np.exp(l[c] * (X[:, c][:, None] + X[:, c][None, :]) + 2.0 * abs(l[c]))
            assert np.array_equal(Ms[c], want), (g, c)


def full_cube_K(inst, term, i, j):
    """(K_ij(Xhat), sum of its terms' magnitudes) over both replicas' 2^|Xhat|
    dual configurations in exact arithmetic: the brute force that
    berretti_term's codeword table stands in for."""
    g, l = inst.graph, inst.values
    pos = {c: b for b, c in enumerate(sorted(term.xhat))}
    needed = sorted({i, j}.union(*term.gammas))
    signs = gf2.parity_signs(gf2.cube(len(pos)),
                             [gf2.mask(pos[c] for c in g.adj_var[v]) for v in needed])
    tau = [dict(zip(needed, map(int, row))) for row in signs]
    a = {k: Fraction(math.exp(-2.0 * l[k])) for k in needed}
    total = scale = Fraction(0)
    for t1, t2 in itertools.product(tau, repeat=2):
        for gamma in term.gammas:
            term_value = (t1[i] - t2[i]) * (t1[j] - t2[j])
            for k in gamma:
                term_value *= a[k] * (t1[k] + t2[k]) + a[k] ** 2 * t1[k] * t2[k]
            total += term_value
            scale += abs(term_value)
    return float(total), float(scale)


def test_berretti_term_on_rank_deficient_clusters():
    """A cluster whose checks are dependent on the variables the term
    reads (rank < |Xhat|) runs its replicas over 2^rank dual codewords,
    each pair standing for 4^(|Xhat| - rank) configuration pairs; K equals
    the full-cube sum, and the identity still closes."""
    graphs = [build_graph(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], LDPC),  # a double check
              build_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)], LDPC),
              build_graph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2), (2, 3),
                                 (3, 3), (0, 3)], LDPC)]
    rng = np.random.default_rng(8)
    deficient = 0
    for g in graphs:
        inst = make_instance(g, rng.uniform(-1.5, 1.5, g.n_var))
        i, j = 0, g.n_var - 1
        for term in enumerate_clusters(g, i, j):
            needed = list({i, j}.union(*term.gammas))
            dual = dual_graph(g, needed, sorted(term.xhat))
            rank = len(dual.reduced_checks)
            assert exact.codebit_table(dual).shape == (2 ** rank, len(needed))
            K, _, _ = berretti_term(inst, term, i, j)
            want, scale = full_cube_K(inst, term, i, j)
            # relative 1e-12, or rounding of its terms where K vanishes
            assert abs(K - want) <= 1e-12 * abs(want) + 1e-15 * scale
            deficient += rank < len(term.xhat) and want != 0.0
        assert berretti_identity_residual(inst, i, j) < 1e-12
    assert deficient == 2
