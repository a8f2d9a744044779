import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixed_code_corpus, random_tree_graph
from gibbscode import channels
from gibbscode.bp import (_run_messages, bp_all_extrinsics, bp_checkpoint_extrinsics,
                          bp_run, tree_decode)
from gibbscode.channels import ChannelModel, sample_llr
from gibbscode.exact import all_extrinsics, all_marginals, make_instance
from gibbscode.experiments import fit_exponential
from gibbscode.graphs import LDGM, LDPC, build_graph, computational_tree


def four_cycle(kind):
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], kind)


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
    """An (S, n_edges) flood equals S separate one-sample floods on the
    loopy corpus codes at d = 20, also when split into sample chunks."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(22)
    for name, g in fixed_code_corpus()[1:]:
        L = rng.normal(0.5, 1.5, (11, g.code_bit_count))
        block = make_instance(g, L)
        singles = [make_instance(g, l) for l in L]
        assert np.max(np.abs(bp_all_extrinsics(block, 20) -
                             [bp_all_extrinsics(s, 20) for s in singles])) <= 1e-15, name
        assert np.max(np.abs(bp_run(block, 20) -
                             [bp_run(s, 20) for s in singles])) <= 1e-15, name
        ckpt = bp_checkpoint_extrinsics(block, [3, 20])
        assert np.max(np.abs(ckpt[20] - [bp_all_extrinsics(s, 20) for s in singles])) \
            <= 1e-15, name
