import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixed_code_corpus, random_ldgm_graph, random_ldpc_graph, random_tree_graph
from gibbscode import bp, channels
from gibbscode.bp import (MessageState, _check_message, _check_sums, _codebit_estimates,
                          _edge_index, _psi_terms, _run_messages, _sample_groups,
                          bp_all_extrinsics, bp_checkpoint_extrinsics, bp_run, tree_decode)
from gibbscode.channels import L_SAT, ChannelModel, block_slices, sample_llr
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
        inst = make_instance(g, sample_llr(ch, 2 * m, rng).values)
        _, corrs = tree_decode(ct, inst, pair_nodes=tuple(chain))
        mags = [abs(corrs[k]) for k in chain]
        pts = [(t + 1, mag, 1e-9) for t, mag in enumerate(mags) if mag > 1e-12]
        assert len(pts) >= 4
        fit = fit_exponential(pts)
        assert fit.slope < 0 and fit.r <= -0.9
        assert mags[-1] < mags[0]


def test_messages_stay_finite_and_saturated():
    g = four_cycle(LDPC)
    inst = make_instance(g, [30.0, 30.0])
    est, state = bp_run(inst, 50), _run_messages(inst, 50)
    assert np.all(np.isfinite(state.v2c)) and np.all(np.isfinite(state.c2v))
    assert np.max(np.abs(state.v2c)) <= 30.0 + 1e-12
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
    c2v = _run_messages(make_instance(g, signs * mags), 1).c2v
    for v in range(3):
        a, b = np.delete(mags, v, axis=1).T
        want = 0.5 * (np.logaddexp(2 * (a + b), 0.0) - np.logaddexp(2 * a, 2 * b))
        want *= np.prod(np.delete(signs, v, axis=1), axis=1)
        assert float(np.max(np.abs(c2v[:, v] - want))) < 1e-6


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


# ---------------------------------------------------------------------------
# the fixed-point exit against a flood that always runs d iterations
# ---------------------------------------------------------------------------

def _fixed_depth_run_from(inst, state, extra_iters):
    """Reference: the flood as it was before the fixed-point exit, which
    runs every sample for all extra_iters iterations."""
    if extra_iters < 0:
        raise ValueError("iteration count must be >= 0")
    g = inst.graph
    l = np.atleast_2d(inst.values)
    v2c = np.atleast_2d(state.v2c).copy()
    c2v = np.atleast_2d(state.c2v).copy()
    for samples in block_slices(len(l), g.n_edges):
        v2c[samples], c2v[samples] = _fixed_depth_flood(g, l[samples], v2c[samples],
                                                        c2v[samples], extra_iters)
    shape = state.v2c.shape
    return MessageState(v2c.reshape(shape), c2v.reshape(shape))


def _fixed_depth_flood(g, l, v2c, c2v, iters):
    """iters flooding iterations on an (S, n_edges) message block with
    (S, code bits) LLRs; returns the new (v2c, c2v)."""
    evar, echk = _edge_index(g)
    S = len(l)
    var_groups = _sample_groups(evar, g.n_var, S)
    chk_groups = _sample_groups(echk, g.n_chk, S)
    v2c, c2v = v2c.ravel(), c2v.ravel()
    if g.kind == LDPC:
        l_edge, obs = l[:, evar].ravel(), None
    else:
        obs = _psi_terms(l.ravel())
    for _ in range(iters):
        if g.kind == LDPC:
            tot = np.bincount(var_groups, weights=c2v, minlength=S * g.n_var)
            v2c = l_edge + tot[var_groups] - c2v
            np.clip(v2c, -L_SAT, L_SAT, out=v2c)
        own, sums = _check_sums(v2c, chk_groups, S * g.n_chk, obs)
        c2v = _check_message(*(s[chk_groups] - o for s, o in zip(sums, own)))
        if g.kind == LDGM:
            tot = np.bincount(var_groups, weights=c2v, minlength=S * g.n_var)
            v2c = tot[var_groups] - c2v
            np.clip(v2c, -L_SAT, L_SAT, out=v2c)
    return v2c.reshape(S, -1), c2v.reshape(S, -1)


def _fixed_depth_states(inst, depths):
    """The reference message states at each of the sorted depths."""
    shape = inst.values.shape[:-1] + (inst.graph.n_edges,)
    state, last, out = MessageState(np.zeros(shape), np.zeros(shape)), 0, {}
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
def test_fixed_point_exit_matches_fixed_depth_flood_bitwise(kind, loopy, seed, samples,
                                                            p_sat, p_zero, depths):
    """bp_run, bp_all_extrinsics and bp_checkpoint_extrinsics equal the
    d-iteration flood bit for bit, sign bits included, on trees and
    loopy graphs of both families: blocks whose samples settle at
    different iterations (or not at all), LLRs saturated up to +-50, and
    exact zeros of both signs, down to all-zero draws (whose v2c stay 0
    for one iteration while their c2v move)."""
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
        assert_bitwise(bp_run(inst, d), _codebit_estimates(inst, ref[d], extrinsic=False))
        assert_bitwise(bp_all_extrinsics(inst, d),
                       _codebit_estimates(inst, ref[d], extrinsic=True))
    ckpt = bp_checkpoint_extrinsics(inst, depths)
    for d in depths:
        assert_bitwise(ckpt[d], _codebit_estimates(inst, ref[d], extrinsic=True))


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
    assert not (np.array_equal(ref[K - 1].v2c, ref[K].v2c)
                and np.array_equal(ref[K - 1].c2v, ref[K].c2v))
    for a, b in ((ref[K].v2c, ref[K + 1].v2c), (ref[K].c2v, ref[K + 1].c2v)):
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
    assert_bitwise(out, _codebit_estimates(block, _fixed_depth_states(block, [60])[60],
                                           extrinsic=False))
    # of the next draw seed's five, four settle after 3 iterations; the
    # fourth never does (its messages keep moving at the rounding level)
    # and floods on alone to d
    block = make_instance(g, np.random.default_rng(8).normal(0.5, 1.5, (5, g.code_bit_count)))
    sizes.clear()
    out = bp_run(block, 60)
    assert [n // g.n_edges for n in sizes[:5]] == [5, 5, 5, 5, 1]
    assert sizes[5:] == [g.n_edges] * 55
    assert_bitwise(out, _codebit_estimates(block, _fixed_depth_states(block, [60])[60],
                                           extrinsic=False))
