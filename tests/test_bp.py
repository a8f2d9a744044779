import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (LIMITS_EDGES, fixed_code_corpus, on_digest_platform, random_ldgm_graph,
                      random_ldpc_graph, random_tree_graph)
from gibbscode import bp, channels
from gibbscode.bp import (_check_outputs, _check_sums, _codebit_estimates, _psi_terms,
                          _sample_groups, bp_all_extrinsics, bp_checkpoint_extrinsics,
                          bp_run, tree_decode)
from gibbscode.channels import L_SAT, ChannelModel, block_slices, sample_llr
from gibbscode.cli import main as cli_main
from gibbscode.exact import all_extrinsics, all_marginals, make_instance
from gibbscode.experiments import fit_exponential
from gibbscode.graphs import LDGM, LDPC, build_graph, computational_tree


def four_cycle(kind):
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], kind)


def assert_bitwise(got, want):
    """Equal bit patterns: -0.0 differs from 0.0, and NaN equals itself."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from([LDPC, LDGM]), seed=st.integers(0, 2 ** 32 - 1),
       mean=st.floats(-2.0, 2.0), scale=st.floats(0.1, 3.0))
@example(kind=LDPC, seed=0, mean=0.0, scale=1.5)
@example(kind=LDGM, seed=0, mean=0.0, scale=1.5)
def test_tree_exactness_random_trees(kind, seed, mean, scale):
    """Property: n_var + n_chk flooding iterations give the exact
    marginals and extrinsics on any tree code of either family
    (criterion 1's tolerance), for a block of LLR draws."""
    rng = np.random.default_rng(seed)
    g = random_tree_graph(rng, kind)
    inst = make_instance(g, rng.normal(mean, scale, (3, g.code_bit_count)))
    d = g.n_var + g.n_chk
    assert float(np.max(np.abs(bp_run(inst, d) - all_marginals(inst)))) < 1e-9
    assert float(np.max(np.abs(bp_all_extrinsics(inst, d) - all_extrinsics(inst)))) < 1e-9


def test_d0_marginals():
    for kind in (LDPC, LDGM):
        g = four_cycle(kind)
        inst = make_instance(g, [0.4, -0.8])
        assert np.allclose(bp_run(inst, 0), np.tanh(inst.values))


def test_isolated_bit_extrinsic_zero():
    g = build_graph(2, 1, [(0, 0)], LDPC)
    inst = make_instance(g, [0.5, 0.9])
    assert bp_all_extrinsics(inst, 5)[1] == 0.0


def test_extrinsic_combine_identity_for_bp():
    rng = np.random.default_rng(1)
    for kind in (LDPC, LDGM):
        g = four_cycle(kind)
        inst = make_instance(g, rng.normal(0, 1, 2))
        for d in (1, 3, 7):
            marg = bp_run(inst, d)
            ext = bp_all_extrinsics(inst, d)
            t = np.tanh(inst.values)
            assert np.allclose(marg, (ext + t) / (1 + ext * t), atol=1e-12)


def test_bp_run_equals_tree_decode_on_cover():
    """d flooding iterations reproduce the exact Gibbs marginal of the
    depth-2d computational tree at the root."""
    rng = np.random.default_rng(2)
    loopy = build_graph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                               (3, 3), (0, 3)], LDPC)
    loopy_g = build_graph(4, 6, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                                 (3, 3), (0, 3), (0, 4), (2, 5)], LDGM)
    for g in (four_cycle(LDPC), four_cycle(LDGM), loopy, loopy_g):
        inst = make_instance(g, rng.normal(0, 1, g.code_bit_count))
        for i in range(g.code_bit_count):
            for d in (1, 2, 5):
                ct = computational_tree(g, i, 2 * d)
                root, _ = tree_decode(ct, inst)
                assert abs(root - bp_run(inst, d)[i]) < 1e-9


def test_tree_decode_on_tree_graph_matches_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        kind = LDPC if rng.random() < 0.5 else LDGM
        g = random_tree_graph(rng, kind, max_code_bits=10)
        inst = make_instance(g, rng.normal(0, 1, g.code_bit_count))
        d = 2 * (g.n_var + g.n_chk)
        root_bit = 0
        ct = computational_tree(g, root_bit, 2 * ((d + 1) // 2))
        root, _ = tree_decode(ct, inst)
        assert root == pytest.approx(all_marginals(inst)[root_bit], abs=1e-10)


def test_tree_pair_correlations_match_exact_on_tree_graph():
    # on a cycle-free graph the tree equals the graph: covariances match
    g = build_graph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)], LDGM)
    rng = np.random.default_rng(4)
    inst = make_instance(g, rng.normal(0, 1, 4))
    ct = computational_tree(g, 0, 6)
    code_nodes = [k for k in range(ct.n_nodes) if ct.node_type[k] == "chk"
                  and k != 0]
    root, corrs = tree_decode(ct, inst, pair_nodes=tuple(code_nodes))
    from gibbscode.exact import pair_correlation
    assert root == pytest.approx(all_marginals(inst)[0], abs=1e-12)
    for k, val in corrs.items():
        assert val == pytest.approx(pair_correlation(inst, 0, ct.proj[k]),
                                    abs=1e-10)


def two_sweep_tree_eval(ct, inst, inserts):
    """The tree sum as one sweep per insert set, the root among the
    inserts when inserted: (logscale, value) with the sum equal to
    value * exp(logscale), each node's message normalised by its largest
    component, deepest nodes first."""
    g, l = inst.graph, inst.values
    msg, logscale = {}, 0.0
    for k in sorted(range(ct.n_nodes), key=lambda k: -ct.node_depth[k]):
        img, ch, ins, top = ct.proj[k], ct.children[k], k in inserts, ct.parent[k] == -1
        if ct.node_type[k] == "var":
            up, down = ((1.0, 1.0) if inst.kind == LDGM
                        else (math.exp(min(l[img], L_SAT)), math.exp(max(-l[img], -L_SAT))))
            for c in ch:
                up, down = up * msg[c][0], down * msg[c][1]
            vec = (up, -down if ins else down)
        else:
            qp, qm = 1.0, 0.0
            for c in ch:
                qp, qm = qp * msg[c][0] + qm * msg[c][1], qp * msg[c][1] + qm * msg[c][0]
            if inst.kind == LDGM:
                phantom = len(g.adj_chk[img]) > len(ch) + (0 if top else 1)
                vec = tuple(bp._ldgm_check_total(qp, qm, u, l[img], phantom, ins)
                            for u in ((1.0,) if top else (1.0, -1.0)))
                vec = vec + (0.0,) * (2 - len(vec))
            else:
                vec = (qp, qm)
        m = max(abs(vec[0]), abs(vec[1]))
        if m == 0.0:
            return logscale, 0.0
        logscale += math.log(m)
        msg[k] = (vec[0] / m, vec[1] / m)
    return logscale, msg[0][0] if inst.kind == LDGM else msg[0][0] + msg[0][1]


def two_sweep_tree_decode(ct, inst, pair_nodes):
    """tree_decode from two sweeps per insert set, without and with the
    root inserted."""
    logZ0, val0 = two_sweep_tree_eval(ct, inst, frozenset())
    logZr, valr = two_sweep_tree_eval(ct, inst, frozenset([0]))
    root_mean = valr / val0 * math.exp(logZr - logZ0)
    corrs = {}
    for k in pair_nodes:
        logZk, valk = two_sweep_tree_eval(ct, inst, frozenset([k]))
        logZrk, valrk = two_sweep_tree_eval(ct, inst, frozenset([0, k]))
        corrs[k] = (valrk / val0 * math.exp(logZrk - logZ0)
                    - root_mean * (valk / val0 * math.exp(logZk - logZ0)))
    return root_mean, corrs


def test_tree_decode_matches_two_sweeps_bitwise(monkeypatch):
    """One sweep per insert set gives the root marginal and every pair
    covariance bit for bit as two sweeps (without and with the root
    inserted) do, on computational trees of the loopy corpus codes of
    both families with every code-bit node as a pair node, and at
    saturated LLRs; tree_decode makes 1 + |pair_nodes| sweeps."""
    sweeps = []
    real = bp._tree_eval
    monkeypatch.setattr(bp, "_tree_eval", lambda *a: sweeps.append(1) or real(*a))
    rng = np.random.default_rng(22)
    for name, g in fixed_code_corpus():
        code_type = "chk" if g.kind == LDGM else "var"
        for scale in (1.0, 25.0):
            inst = make_instance(g, rng.normal(0.3, scale, g.code_bit_count))
            for i in range(g.code_bit_count):
                for d in (1, 2, 3):
                    ct = computational_tree(g, i, 2 * d)
                    pairs = tuple(k for k in range(1, ct.n_nodes) if ct.node_type[k] == code_type)
                    del sweeps[:]
                    root, corrs = tree_decode(ct, inst, pairs)
                    assert len(sweeps) == 1 + len(pairs)
                    want_root, want_corrs = two_sweep_tree_decode(ct, inst, pairs)
                    assert_bitwise(root, want_root)
                    assert list(corrs) == list(want_corrs)
                    assert_bitwise(list(corrs.values()), list(want_corrs.values()))


def test_tree_correlation_decay_fixed_noise():
    """On a fixed LDGM ring with single-bit observations at high noise,
    root-to-node covariances on the computational tree decay log-linearly
    in tree distance for every noise realization (negative slope, monotone
    trend).  The ring alone would not do: with pair couplings only, the
    bond observables are exactly independent."""
    m = 8
    edges = [(v, v) for v in range(m)] + [((v + 1) % m, v) for v in range(m)]
    edges += [(v, m + v) for v in range(m)]  # degree-1 field checks
    g = build_graph(m, 2 * m, edges, LDGM)
    ch = ChannelModel("bsc", 0.45)
    ct = computational_tree(g, 0, 16)
    # walk down the ring branch collecting degree-2 checks by depth
    chain = []
    node = 0
    while True:
        kids = [k for k in ct.children[node]
                if ct.node_type[k] == "var" or len(g.adj_chk[ct.proj[k]]) == 2]
        if not kids:
            break
        node = kids[0]
        if ct.node_type[node] == "chk":
            chain.append(node)
    assert len(chain) >= 6
    rng = np.random.default_rng(5)
    for trial in range(5):
        inst = make_instance(g, sample_llr(ch, 2 * m, rng))
        _, corrs = tree_decode(ct, inst, pair_nodes=tuple(chain))
        mags = [abs(corrs[k]) for k in chain]
        pts = [(t + 1, mag, 1e-9) for t, mag in enumerate(mags) if mag > 1e-12]
        assert len(pts) >= 4
        fit = fit_exponential(pts)
        assert fit.slope < 0 and fit.r <= -0.9
        assert mags[-1] < mags[0]


def _flooded(inst, iters, v2c=None):
    """(v2c, c2v) of bp._flood after iters iterations on the instance's
    block, from zero messages or from the given v2c (and zero c2v)."""
    l = np.atleast_2d(inst.values)
    v2c = np.zeros((len(l), inst.graph.n_edges)) if v2c is None else np.array(v2c, float)
    c2v = np.zeros_like(v2c)
    bp._flood(inst.graph, l, v2c, c2v, iters)
    return v2c, c2v


def test_messages_stay_finite_and_saturated():
    g = four_cycle(LDPC)
    inst = make_instance(g, [30.0, 30.0])
    est, (v2c, c2v) = bp_run(inst, 50), _flooded(inst, 50)
    assert np.all(np.isfinite(v2c)) and np.all(np.isfinite(c2v))
    assert np.max(np.abs(v2c)) <= 30.0 + 1e-12
    assert np.all(np.isfinite(est))


def test_saturating_check_messages_keep_their_value():
    """One iteration on a degree-3 LDPC check with leaf LLRs of +-[19, 30]
    nats: each c2v equals atanh(tanh a tanh b) of the other two, formed
    without tanh as (1/2)[logaddexp(2(a + b), 0) - logaddexp(2a, 2b)] on
    the magnitudes, with the parity sign, within 1e-6 nats (the
    cancellation bound of the excluded psi sum is under 2e-7 here)."""
    g = build_graph(3, 1, [(0, 0), (1, 0), (2, 0)], LDPC)
    grid = np.linspace(19.0, 30.0, 12)
    mags = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    signs = np.random.default_rng(9).choice([-1.0, 1.0], mags.shape)
    _, c2v = _flooded(make_instance(g, signs * mags), 1)
    for v in range(3):
        a, b = np.delete(mags, v, axis=1).T
        want = 0.5 * (np.logaddexp(2 * (a + b), 0.0) - np.logaddexp(2 * a, 2 * b))
        want *= np.prod(np.delete(signs, v, axis=1), axis=1)
        assert float(np.max(np.abs(c2v[:, v] - want))) < 1e-6


def _two_message_rule(a, b):
    """atanh(tanh a tanh b) for magnitudes a, b >= 0, without tanh:
    (1/2)[logaddexp(2(a + b), 0) - logaddexp(2a, 2b)]."""
    return 0.5 * (np.logaddexp(2 * (a + b), 0.0) - np.logaddexp(2 * a, 2 * b))


def test_dominated_excluded_sums_keep_their_value():
    """A check that sees one moderate message among saturated ones
    answers the moderate one with atanh(tanh a tanh b) of the saturated
    pair, within 1e-6 nats: (1, 25, 25) on a degree-3 LDPC check gives
    25 - ln(2)/2 = 24.65 (total minus own gave L_SAT), and 300 random
    triples of one message in [0.05, 3] nats and two in [3, 30] match the
    two-message rule too, dominated or not.
    An LDGM check counts its observation among the others: LLR 25 and
    incoming v2c (1, 25) answer the 1-nat edge with 24.65 too."""
    g = build_graph(3, 1, [(0, 0), (1, 0), (2, 0)], LDPC)
    rng = np.random.default_rng(12)
    mags = np.column_stack([rng.uniform(0.05, 3.0, 300), rng.uniform(3.0, 30.0, (300, 2))])
    mags[0] = (1.0, 25.0, 25.0)
    signs = rng.choice([-1.0, 1.0], mags.shape)
    signs[0] = 1.0
    _, c2v = _flooded(make_instance(g, signs * mags), 1)
    assert abs(c2v[0, 0] - (25.0 - 0.5 * math.log(2.0))) < 1e-6
    for v in range(3):
        a, b = np.delete(mags, v, axis=1).T
        want = _two_message_rule(a, b) * np.prod(np.delete(signs, v, axis=1), axis=1)
        assert float(np.max(np.abs(c2v[:, v] - want))) < 1e-6
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDGM)
    _, c2v = _flooded(make_instance(g, [[25.0]]), 1, v2c=[[1.0, 25.0]])
    assert abs(c2v[0, 0] - (25.0 - 0.5 * math.log(2.0))) < 1e-6
    assert abs(c2v[0, 1] - _two_message_rule(25.0, 1.0)) < 1e-6


def test_contradicting_saturated_ldgm_evidence():
    """One information bit seen by two checks with LLRs (20, -20): the
    exact marginals are [0, 0], and BP gives them, alone and in a block."""
    g = build_graph(1, 2, [(0, 0), (0, 1)], LDGM)
    inst = make_instance(g, [20.0, -20.0])
    assert np.array_equal(bp_run(inst, 5), [0.0, 0.0])
    assert np.array_equal(bp_run(inst, 5), all_marginals(inst))
    block = make_instance(g, [[20.0, -20.0], [0.4, -1.3], [-20.0, 20.0]])
    out = bp_run(block, 5)
    assert np.array_equal(out[[0, 2]], np.zeros((2, 2)))
    assert np.allclose(out, all_marginals(block), atol=1e-12)


def test_huge_llrs_give_finite_estimates():
    """LLRs of +-1e3 on the corpus codes give finite estimates in [-1, 1]."""
    rng = np.random.default_rng(10)
    for name, g in fixed_code_corpus():
        L = 1e3 * rng.choice([-1.0, 1.0], (6, g.code_bit_count))
        inst = make_instance(g, L)
        for est in (bp_run(inst, 20), bp_all_extrinsics(inst, 20)):
            assert np.all(np.isfinite(est)) and np.max(np.abs(est)) <= 1.0, name


def test_checkpoint_extrinsics_consistent():
    g = four_cycle(LDPC)
    inst = make_instance(g, [0.3, -0.2])
    out = bp_checkpoint_extrinsics(inst, [0, 2, 5])
    assert np.allclose(out[2], bp_all_extrinsics(inst, 2))
    assert np.allclose(out[5], bp_all_extrinsics(inst, 5))


def test_edgeless_codes_flood(tmp_path, capsys):
    """A code with no edges floods without error: numpy's bincount over
    the empty edge index returns int64 zeros, and the floods added float
    messages into them.  LDPC bits keep their own observations (marginal
    tanh l, extrinsic 0); an LDGM check on no variable is the empty
    product, +1, like its exact posterior.  The repro of a limits config
    on such a code passes: BP has converged, so every gap to the
    reference depth is exactly 0."""
    l = np.array([[0.4, -0.8, 1.1, 0.0], [-0.3, 0.2, 0.0, 2.0]])
    ldpc = make_instance(build_graph(4, 1, [], LDPC), l)
    assert_bitwise(bp_run(ldpc, 7), np.tanh(l))
    assert_bitwise(bp_all_extrinsics(ldpc, 7), np.zeros_like(l))
    ldgm = make_instance(build_graph(2, 4, [], LDGM), l)
    for run in (bp_run, bp_all_extrinsics):
        assert_bitwise(run(ldgm, 7), np.ones_like(l))
    assert np.array_equal(all_marginals(ldgm), np.ones_like(l))
    config = tmp_path / "limits.json"
    config.write_text(json.dumps({
        "code": {"type": "edges", "family": "ldpc", "n_var": 4, "n_chk": 1, "edges": []},
        "channel": "bsc:0.3", "samples": 2, "seed": 750065,
        "params": {"d_primes": [7, 11], "d_refs": [19]}}))
    assert cli_main(["limits", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "limits: PASS\n"
    summary = json.loads((tmp_path / "limits.json").read_text())["summary"]
    assert summary["gaps_to_ref"] == {"7": 0.0, "11": 0.0} and summary["monotone"]


def test_negative_depths_raise():
    inst = make_instance(four_cycle(LDPC), [0.3, -0.2])
    for run in (lambda: bp_run(inst, -1), lambda: bp_all_extrinsics(inst, -4),
                lambda: bp_checkpoint_extrinsics(inst, [-2, 3])):
        with pytest.raises(ValueError, match="must be >= 0"):
            run()


@pytest.mark.parametrize("budget", [channels.BLOCK_ELEMENTS, 30], ids=["default", "chunked"])
def test_block_flood_matches_single_floods(monkeypatch, budget):
    """An (S, n_edges) flood equals S separate one-sample floods bit for
    bit on the loopy corpus codes at d = 20, also when split into sample
    chunks."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(22)
    for name, g in fixed_code_corpus()[1:]:
        L = rng.normal(0.5, 1.5, (11, g.code_bit_count))
        block = make_instance(g, L)
        singles = [make_instance(g, l) for l in L]
        assert_bitwise(bp_all_extrinsics(block, 20), [bp_all_extrinsics(s, 20) for s in singles])
        assert_bitwise(bp_run(block, 20), [bp_run(s, 20) for s in singles])
        ckpt = bp_checkpoint_extrinsics(block, [3, 20])
        assert_bitwise(ckpt[20], [bp_all_extrinsics(s, 20) for s in singles])


def test_flood_runs_each_distinct_row_once_bitwise(monkeypatch):
    """The flood runs each distinct LLR row of a block once and gathers
    the estimates back: on blocks with repeated rows, and rows that
    differ only in the sign of a zero, bp_all_extrinsics and
    bp_checkpoint_extrinsics equal one flood per row bit for bit.  Rows
    are told apart by their bytes, so -0.0 and 0.0 rows are flooded
    separately."""
    flooded = []

    def counted(g, l, *args):
        flooded.append(len(l))
        return flood(g, l, *args)

    flood = bp._flood
    monkeypatch.setattr(bp, "_flood", counted)
    rng = np.random.default_rng(31)
    floods = (lambda inst: bp_all_extrinsics(inst, 20),
              lambda inst: np.stack(list(bp_checkpoint_extrinsics(inst, [2, 20]).values()),
                                    axis=1))
    for name, g in fixed_code_corpus()[1:]:
        distinct = rng.normal(0.3, 1.5, (4, g.code_bit_count))
        distinct[1, 0] = 0.0
        distinct[2] = distinct[1]
        distinct[2, 0] = -0.0
        block = distinct[[0, 1, 0, 2, 3, 1, 1, 2, 0]]
        for depths, run in zip((1, 2), floods):
            flooded.clear()
            got = run(make_instance(g, block))
            assert flooded == [4] * depths, name
            want = np.concatenate([run(make_instance(g, row[None])) for row in block])
            assert_bitwise(got, want)


#: sha256 of the float64 bit patterns of bp_all_extrinsics(d = 20),
#: bp_run(d = 20) and bp_checkpoint_extrinsics at depths 3, 10 and 20, in
#: that order, for 150 draws per point (seed 100 k + j for code k and
#: channel j): the bits any rewrite of the flood must keep
FLOOD_DIGESTS = {
    ('ldpc-rep3', 'bsc:0.2'): "ec134451b8d1f339243b3ee191ce13fe5a1b9a7ba17ed4196297fe3a958a22ce",
    ('ldpc-rep3', 'bsc:0.3'): "ee35947777e207f216765b5f27882f85b3cdce158244d4fb0444ae2b92de68a1",
    ('ldpc-rep3', 'bsc:0.4'): "143bfd3047dbc318a65ccd0cccf41e57533b360967c77d3070c93dd9cf110966",
    ('ldpc-rep3', 'biawgnc:0.8'): "b5f2532bcd790d628d0ad80dcc3ce08161301b637e03bf117cd889080e6ada78",
    ('ldpc-5', 'bsc:0.2'): "1b0558f7ac2e5a113b36b49113e44f7b4821af32ac11a7067a29311c7e029c42",
    ('ldpc-5', 'bsc:0.3'): "dcf3b2a65d1f2719a9a6d3fb1d297d611a12c6f9362cf1ef33347cf7eb4f12d7",
    ('ldpc-5', 'bsc:0.4'): "d215067ae294d36f0232b128b0045e53babc45d4dd9ad538ce27c6af91e39077",
    ('ldpc-5', 'biawgnc:0.8'): "c8d20cd5118b239817df7fd5e59b7ce64d324944c4d2ccf3393184a4056ae699",
    ('ldpc-6', 'bsc:0.2'): "fc57b17c8a962bd48eef21c4663aa8c414c155ebac6813f8361d3c19a75b6212",
    ('ldpc-6', 'bsc:0.3'): "f590692dd7652693b87cbb3f3cebdd2b47ddecdb393860bc16e4f8a70ea00b5a",
    ('ldpc-6', 'bsc:0.4'): "44a866df58bd80afe02d4a22b69488c0ef0640f9af5913930c2a56ce1e40db6f",
    ('ldpc-6', 'biawgnc:0.8'): "39fa895170e4f72b230d900aef06d769e43c5105ee62de9bf05dcf558023a4ae",
    ('ldgm-chain', 'bsc:0.2'): "12a666b1ed1907edf2b0fd2e357962014e7e305aa59e1e0af9e4f7926d2be7fd",
    ('ldgm-chain', 'bsc:0.3'): "537c04860c0686db188808ade858086f5e216059aa0214ac1ea36e704f4ef4e9",
    ('ldgm-chain', 'bsc:0.4'): "550a9afa23c17ed622900ef0b4e84815c4110429ed3a468dd06e0a6faab81d03",
    ('ldgm-chain', 'biawgnc:0.8'): "a31f09e361a42fa3ab36a6746c80781df8cfeb3801854dd44f0ae8e3ed1a7f3c",
    ('ldgm-loop', 'bsc:0.2'): "c400c027380e86b67b5c5a8398b419d8623c203a579cd504dfbb06d943206af5",
    ('ldgm-loop', 'bsc:0.3'): "f8a5eb67255316b207ab6462ece8ae6a9c7fb4fda6231203c9aaaedc6cb1d18c",
    ('ldgm-loop', 'bsc:0.4'): "90974aae97bf7e58a05391f444ce09b70afe506624ddc5293c3b792568ff4a95",
    ('ldgm-loop', 'biawgnc:0.8'): "af704e4c1958b71a23dc5a74cfb5ac764a4fbeb500273554c4918c6937477027",
}


@on_digest_platform
def test_flood_outputs_keep_their_recorded_bits():
    """The three BP entry points on the five corpus codes at BSC 0.2, 0.3
    and 0.4 and BIAWGNC 0.8 give the recorded bit patterns: a rewrite of
    the flood must change no output bit, not even a sign of zero."""
    specs = ("bsc:0.2", "bsc:0.3", "bsc:0.4", "biawgnc:0.8")
    for k, (name, g) in enumerate(fixed_code_corpus()):
        for j, spec in enumerate(specs):
            L = sample_llr(ChannelModel.from_spec(spec), (150, g.code_bit_count), 100 * k + j)
            inst = make_instance(g, L)
            ckpt = bp_checkpoint_extrinsics(inst, [3, 10, 20])
            digest = hashlib.sha256()
            for out in (bp_all_extrinsics(inst, 20), bp_run(inst, 20), ckpt[3], ckpt[10],
                        ckpt[20]):
                digest.update(np.asarray(out, "<f8").tobytes())
            assert digest.hexdigest() == FLOOD_DIGESTS[(name, spec)], (name, spec)


# ---------------------------------------------------------------------------
# the fixed-point exit against a flood that always runs d iterations
# ---------------------------------------------------------------------------

def _fixed_depth_run_from(inst, state, extra_iters):
    """Reference: the flood as it was before the fixed-point exit, which
    runs every sample for all extra_iters iterations from the (v2c, c2v)
    state; returns the new (v2c, c2v)."""
    if extra_iters < 0:
        raise ValueError("iteration count must be >= 0")
    g = inst.graph
    l = np.atleast_2d(inst.values)
    v2c, c2v = (np.atleast_2d(m).copy() for m in state)
    for samples in block_slices(len(l), g.n_edges):
        v2c[samples], c2v[samples] = _fixed_depth_flood(g, l[samples], v2c[samples],
                                                        c2v[samples], extra_iters)
    return v2c, c2v


def _fixed_depth_flood(g, l, v2c, c2v, iters):
    """iters flooding iterations on an (S, n_edges) message block with
    (S, code bits) LLRs; returns the new (v2c, c2v).  It holds the
    errstate the library's flood holds: the psi helpers leave it to their
    caller."""
    evar, echk = np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    S = len(l)
    var_groups = _sample_groups(evar, g.n_var, S)
    chk_groups = _sample_groups(echk, g.n_chk, S)
    v2c, c2v = v2c.ravel(), c2v.ravel()
    with np.errstate(divide="ignore", over="ignore"):
        if g.kind == LDPC:
            l_edge, obs = l[:, evar].ravel(), None
        else:
            obs = _psi_terms(l.ravel())
        for _ in range(iters):
            if g.kind == LDPC:
                tot = np.bincount(var_groups, weights=c2v, minlength=S * g.n_var)
                v2c = l_edge + tot[var_groups] - c2v
                np.clip(v2c, -L_SAT, L_SAT, out=v2c)
            c2v = _check_outputs(v2c, chk_groups, S * g.n_chk, obs)
            if g.kind == LDGM:
                tot = np.bincount(var_groups, weights=c2v, minlength=S * g.n_var)
                v2c = tot[var_groups] - c2v
                np.clip(v2c, -L_SAT, L_SAT, out=v2c)
    return v2c.reshape(S, -1), c2v.reshape(S, -1)


def _fixed_depth_states(inst, depths):
    """The reference (v2c, c2v) states at each of the sorted depths."""
    shape = inst.values.shape[:-1] + (inst.graph.n_edges,)
    state, last, out = (np.zeros(shape), np.zeros(shape)), 0, {}
    for d in depths:
        state, last = _fixed_depth_run_from(inst, state, d - last), d
        out[d] = state
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from([LDPC, LDGM]), loopy=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(1, 12),
       p_sat=st.sampled_from([0.0, 0.3, 1.0]), p_zero=st.sampled_from([0.0, 0.2, 1.0]),
       depths=st.lists(st.integers(0, 80), min_size=1, max_size=4))
@example(kind=LDPC, loopy=False, seed=0, samples=4, p_sat=0.3, p_zero=0.2, depths=[3, 200])
@example(kind=LDGM, loopy=True, seed=1, samples=12, p_sat=1.0, p_zero=0.0, depths=[40])
@example(kind=LDPC, loopy=False, seed=3, samples=2, p_sat=0.0, p_zero=1.0, depths=[1, 2, 9])
@example(kind=LDGM, loopy=True, seed=14, samples=12, p_sat=0.0, p_zero=0.0, depths=[7, 30, 57])
@example(kind=LDPC, loopy=True, seed=0, samples=12, p_sat=0.0, p_zero=0.0, depths=[7, 30, 57])
def test_fixed_point_exit_matches_fixed_depth_flood_bitwise(kind, loopy, seed, samples,
                                                            p_sat, p_zero, depths):
    """bp_run, bp_all_extrinsics and bp_checkpoint_extrinsics equal the
    d-iteration flood bit for bit, sign bits included, on trees and
    loopy graphs of both families: blocks whose samples settle at
    different iterations (or not at all), or repeat bitwise (the loopy
    examples at depths 7, 30 and 57, where samples leave through the
    cycle exit with iterations left to run while others settle), LLRs
    saturated up to +-50, and exact zeros of both signs, down to
    all-zero draws (whose v2c stay 0 for one iteration while their c2v
    move)."""
    rng = np.random.default_rng(seed)
    if not loopy:
        g = random_tree_graph(rng, kind)
    else:
        g = random_ldpc_graph(rng) if kind == LDPC else random_ldgm_graph(rng)
    shape = (samples, g.code_bit_count)
    L = rng.normal(0.3, 1.5, shape)
    sat = rng.random(shape) < p_sat
    L[sat] = rng.choice([-50.0, -31.0, 30.0, 50.0], shape)[sat]
    zero = rng.random(shape) < p_zero
    L[zero] = rng.choice([0.0, -0.0], shape)[zero]
    inst = make_instance(g, L)
    depths = sorted(set(depths))
    ref = _fixed_depth_states(inst, depths)
    for d in depths:
        assert_bitwise(bp_run(inst, d), _codebit_estimates(g, L, *ref[d], extrinsic=False))
        assert_bitwise(bp_all_extrinsics(inst, d),
                       _codebit_estimates(g, L, *ref[d], extrinsic=True))
    ckpt = bp_checkpoint_extrinsics(inst, depths)
    for d in depths:
        assert_bitwise(ckpt[d], _codebit_estimates(g, L, *ref[d], extrinsic=True))


def _count_iterations(monkeypatch):
    """Record the sample count of every flooding iteration: each one makes
    a single _check_sums call on its (samples x edges) block (LDPC
    code-bit estimates make none)."""
    sizes = []

    def counted(msgs, *args):
        sizes.append(msgs.size)
        return _check_sums(msgs, *args)

    monkeypatch.setattr(bp, "_check_sums", counted)
    return sizes


def test_flood_stops_at_the_fixed_point(monkeypatch):
    """A pinned tree instance reaches its fixed point after K iterations:
    a 1000-iteration run makes at most K + 1 and returns the same array
    as a (K + 1)-iteration one.  Samples of a block leave it as they
    settle, and one that never settles floods on alone to d."""
    K = 4
    rng = np.random.default_rng(2)
    g = random_tree_graph(rng, LDPC)
    inst = make_instance(g, rng.normal(0.5, 1.5, g.code_bit_count))
    ref = _fixed_depth_states(inst, [K - 1, K, K + 1])
    assert not (np.array_equal(ref[K - 1][0], ref[K][0])
                and np.array_equal(ref[K - 1][1], ref[K][1]))
    for a, b in zip(ref[K], ref[K + 1]):
        assert_bitwise(a, b)
    sizes = _count_iterations(monkeypatch)
    far = bp_run(inst, 1000)
    assert len(sizes) <= K + 1
    assert_bitwise(far, bp_run(inst, K + 1))
    # five draws on the same tree reach their fixed points after 4, 5, 3,
    # 4 and 3 iterations and leave the block one or two iterations later
    block = make_instance(g, np.random.default_rng(7).normal(0.5, 1.5, (5, g.code_bit_count)))
    sizes.clear()
    out = bp_run(block, 60)
    assert [n // g.n_edges for n in sizes] == [5, 5, 5, 5, 3, 1]
    assert_bitwise(out, _codebit_estimates(
        g, block.values, *_fixed_depth_states(block, [60])[60], extrinsic=False))
    # of the next draw seed's five, four settle after 3 iterations; the
    # fourth never does (its messages keep moving at the rounding level)
    # and floods on alone to d
    block = make_instance(g, np.random.default_rng(8).normal(0.5, 1.5, (5, g.code_bit_count)))
    sizes.clear()
    out = bp_run(block, 60)
    assert [n // g.n_edges for n in sizes[:5]] == [5, 5, 5, 5, 1]
    assert sizes[5:] == [g.n_edges] * 55
    assert_bitwise(out, _codebit_estimates(
        g, block.values, *_fixed_depth_states(block, [60])[60], extrinsic=False))


def _limits_instance():
    """Criterion 12's flood: its fixed LDGM and the 500 BSC 0.45 draws of
    seed 112 that the limits experiment reads (one noise chunk)."""
    g = build_graph(7, 10, [tuple(e) for e in LIMITS_EDGES], LDGM)
    return make_instance(g, sample_llr(ChannelModel.from_spec("bsc:0.45"), (500, 10), 112))


def test_cycle_exit_matches_fixed_depth_flood_bitwise():
    """On criterion 12's flood, where 148 of the 386 distinct draws end in
    period-4 cycles, bp_run, bp_all_extrinsics and bp_checkpoint_extrinsics
    equal the d-iteration flood bit for bit at depths of every phase mod 4,
    also when a cycle found in one checkpoint segment is re-entered in the
    next (99 -> 100 -> 101 -> 103 -> 200)."""
    inst = _limits_instance()
    g, L = inst.graph, inst.values
    depths = [2, 4, 6, 99, 100, 101, 103, 200]
    ref = _fixed_depth_states(inst, depths)
    ckpt = bp_checkpoint_extrinsics(inst, depths)
    for d in depths:
        assert_bitwise(ckpt[d], _codebit_estimates(g, L, *ref[d], extrinsic=True))
        assert_bitwise(bp_run(inst, d), _codebit_estimates(g, L, *ref[d], extrinsic=False))
        assert_bitwise(bp_all_extrinsics(inst, d),
                       _codebit_estimates(g, L, *ref[d], extrinsic=True))


def test_flood_stops_in_bitwise_cycles(monkeypatch):
    """Criterion 12's flood to depths 2, 4, 6, 100 and 200 runs at most
    12,000 row-iterations, its five estimates included: its period-4 rows
    leave at most 3 iterations after the cycle check that finds them
    repeating, instead of flooding on to d = 200 (36,432 row-iterations
    with the fixed-point exit alone)."""
    inst = _limits_instance()
    sizes = _count_iterations(monkeypatch)
    bp_checkpoint_extrinsics(inst, [2, 4, 6, 100, 200])
    assert sum(sizes) // inst.graph.n_edges <= 12000
