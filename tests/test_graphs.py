import hashlib
import json
import math

import numpy as np
import pytest

from conftest import random_tree_graph
from gibbscode import channels, exact, gf2, graphs
from gibbscode.graphs import (LDGM, LDPC, DegreeDistribution, EnumerationCapExceeded,
                              NodeCapExceeded, build_graph, code_bit_distances,
                              computational_tree, draw_degrees, enumerate_saws,
                              graph_distance, hop_distances, load_graph,
                              same_type_distance, sample_ensemble, sample_ensembles,
                              save_graph)


def path_graph():
    return build_graph(2, 1, [(0, 0), (1, 0)], LDGM)


def four_cycle(kind):
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], kind)


def repetition3():
    return build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)


def test_build_graph_examples():
    g = path_graph()
    assert [len(a) for a in g.adj_var] == [1, 1]
    assert [len(a) for a in g.adj_chk] == [2]
    g3 = repetition3()
    assert g3.kind == LDPC and g3.n_edges == 4
    assert g3.l_max == 2 and g3.k_max == 2


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(2, 1, [(0, 0), (0, 0)], LDGM)  # duplicate edge
    with pytest.raises(ValueError):
        build_graph(2, 1, [(2, 0)], LDGM)  # out of range
    with pytest.raises(ValueError):
        build_graph(1, 1, [(0, 0)], "turbo")


def test_adjacency_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_tree_graph(rng, LDPC)
        for v in range(g.n_var):
            for c in g.adj_var[v]:
                assert v in g.adj_chk[c]
        for c in range(g.n_chk):
            for v in g.adj_chk[c]:
                assert c in g.adj_var[v]


def test_sample_ensemble_regular_degrees():
    dd = DegreeDistribution.regular(2, 3)
    g = sample_ensemble(dd, 12, LDPC, 7)
    assert g.n_var == 12 and g.n_chk == 8 and g.n_edges == 24
    assert all(len(a) == 2 for a in g.adj_var)
    assert all(len(a) == 3 for a in g.adj_chk)
    # LDGM orientation: n counts checks
    gg = sample_ensemble(dd, 12, LDGM, 7)
    assert gg.n_chk == 12 and gg.n_var == 18


def test_sample_ensemble_deterministic():
    dd = DegreeDistribution.regular(3, 6)
    g1 = sample_ensemble(dd, 12, LDPC, 41)
    g2 = sample_ensemble(dd, 12, LDPC, 41)
    assert g1.edges() == g2.edges()
    assert sample_ensemble(dd, 12, LDPC, 42).edges() != g1.edges()


def test_sample_ensemble_socket_arithmetic():
    # independent socket count: edges = n_var * var_degree = n_chk * chk_degree
    dd = DegreeDistribution.regular(3, 4)
    g = sample_ensemble(dd, 16, LDPC, 3)
    assert g.n_edges == 16 * 3 == g.n_chk * 4


def test_sample_ensemble_unbalanced():
    dd = DegreeDistribution.regular(2, 3)
    with pytest.raises(ValueError):
        sample_ensemble(dd, 10, LDPC, 0)  # 20 sockets not divisible by 3


def test_sample_ensemble_degree_histogram_mixed():
    dd = DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0})
    g = sample_ensemble(dd, 14, LDGM, 5)
    assert g.n_chk == 14 and all(len(a) == 2 for a in g.adj_chk)
    assert sorted(set(len(a) for a in g.adj_var)) in ([2], [3], [2, 3])
    assert sum(len(a) for a in g.adj_var) == 28


#: the node-perspective law of each case: {degree: probability}
DRAW_LAWS = {"one-point": {3: 1.0}, "two-point": {2: 2 / 3, 3: 1 / 3},
             "four-point": {1: 0.1, 2: 0.2, 5: 0.3, 9: 0.4},
             "zero-weights": {1: 0.0, 2: 0.5, 7: 0.0, 9: 0.5}}


@pytest.mark.parametrize("n", [1, 7, 20000])
@pytest.mark.parametrize("coeffs", DRAW_LAWS.values(), ids=DRAW_LAWS)
def test_draw_degrees_is_numpy_choice(coeffs, n):
    """draw_degrees repeats what numpy's Generator.choice(degs, size=n,
    p=probs) does (n uniforms, cdf = cumsum(p) / cumsum(p)[-1], a
    right-sided search), so the ensemble sampler and DE keep choice's
    stream, also where a degree has probability zero.  If numpy changes
    choice, this fails and both streams move."""
    dd = DegreeDistribution.from_dicts(coeffs, coeffs)
    degs = np.array(sorted(coeffs))
    node = np.array([coeffs[d] for d in sorted(coeffs)])
    edge = np.array([d * coeffs[d] for d in sorted(coeffs)])
    for perspective, probs in (("node", node), ("edge", edge / edge.sum())):
        for side in ("var", "chk"):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            got = draw_degrees(rng, dd.degree_laws[perspective, side], n)
            want = ref.choice(degs, size=n, p=probs)
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                "numpy's Generator.choice no longer draws as draw_degrees assumes"
            assert rng.bit_generator.state == ref.bit_generator.state, \
                "numpy's Generator.choice no longer consumes n uniforms"


#: sha256 of the JSON edge lists of sample_ensemble(dd, n, kind, seed) over
#: seeds 0..199, recorded from the sampler that drew degrees with
#: rng.choice and scanned every repair round in Python
GOLDEN_ENSEMBLES = {
    "ldpc-4-4-n16": (DegreeDistribution.regular(4, 4), 16, LDPC,
                     "e9cc38404cf9518867301a976fa1d1730c5f49edad7a92a823e5d359f57ded62"),
    "ldgm-3-2-n18": (DegreeDistribution.regular(3, 2), 18, LDGM,
                     "55592e359e1b1f19114962cd788bbf776ffbba9af929713ab2df37b9a9dbf83c"),
    "ldgm-mixed-n14": (DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0}), 14,
                       LDGM, "f89e1c478e7cabd58fbb6f509cb11c6ab3e9c6cf4931875d6bf8cf6ff5c518cc"),
    "ldpc-3-6-n24": (DegreeDistribution.regular(3, 6), 24, LDPC,
                     "dc459c9ee1d54e738badf2a8c92d016365823f7ef5bb0e9b71555944937ae156"),
}


@pytest.mark.parametrize("dd, n, kind, digest", GOLDEN_ENSEMBLES.values(),
                         ids=GOLDEN_ENSEMBLES)
def test_sample_ensemble_golden_graphs(dd, n, kind, digest):
    """The degree draws, the socket permutation and the repair's swaps in
    socket order are the sampler's RNG stream: any change to them moves
    these digests."""
    edges = [sample_ensemble(dd, n, kind, seed).edges() for seed in range(200)]
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == digest


#: BLOCK_ELEMENTS values that make sample_ensembles draw one graph per
#: window, its own windows, and every seed of a call in one window
WINDOW_BLOCKS = {"one-graph": 1, "default": channels.BLOCK_ELEMENTS, "one-window": 1 << 24}


@pytest.mark.parametrize("block", WINDOW_BLOCKS.values(), ids=WINDOW_BLOCKS)
@pytest.mark.parametrize("dd, n, kind, digest", GOLDEN_ENSEMBLES.values(),
                         ids=GOLDEN_ENSEMBLES)
def test_sample_ensembles_golden_graphs_in_windows(monkeypatch, dd, n, kind, digest, block):
    """One sample_ensembles call over the 200 seeds, repaired a window at
    a time, draws the graphs each seed draws alone."""
    monkeypatch.setattr(graphs, "BLOCK_ELEMENTS", block)
    edges = [g.edges() for g in sample_ensembles(dd, n, kind, range(200))]
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == digest


#: sha256 of the JSON [adj_var, adj_chk] pairs of sample_ensemble(dd, n,
#: kind, seed) over seeds 0..count-1 (edges() does not pin the order of
#: adj_chk), recorded from the sampler that scanned every repair round in
#: Python; the irregular LDPC draws graphs of 44 to 54 edges
GOLDEN_ADJACENCY = {
    "ldpc-4-4-n16": (DegreeDistribution.regular(4, 4), 16, LDPC, 200,
                     "079ad7c10bbd9b874953c58c93cefa89e2d1dc007c34fa3920f505faa9f1000e"),
    "ldgm-3-2-n18": (DegreeDistribution.regular(3, 2), 18, LDGM, 200,
                     "432f68739a00a37ecebcbffb538b171762f87c4a45083b25e9229cf879e64ea3"),
    "ldgm-mixed-n14": (DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0}), 14,
                       LDGM, 200,
                       "c12ae56dbd88e13dbfc8cd1741b27c8dda5d0523ca7d9e86b8003db5cc5ac663"),
    "ldpc-3-6-n24": (DegreeDistribution.regular(3, 6), 24, LDPC, 200,
                     "52b8b4ee09e58b39595b460cf363d7b7dc66abb3399a15d28cde805624b31573"),
    "ldpc-irregular-n20": (DegreeDistribution.from_dicts({2: 0.5, 3: 0.5}, {4: 0.5, 6: 0.5}),
                           20, LDPC, 200,
                           "30d1d3e28f953b8ed285ef804c826d321140b3d537d8a1b1413bc49f845d8834"),
    "ldpc-3-6-n1000": (DegreeDistribution.regular(3, 6), 1000, LDPC, 20,
                       "3901e46e136a6baac9195b3a7eb5da921f071393f48e56d35fa5fdcfb85f4e2d"),
}


@pytest.mark.parametrize("block", [None, *WINDOW_BLOCKS.values()],
                         ids=["per-seed", *WINDOW_BLOCKS])
@pytest.mark.parametrize("dd, n, kind, count, digest", GOLDEN_ADJACENCY.values(),
                         ids=GOLDEN_ADJACENCY)
def test_sample_ensembles_golden_adjacency(monkeypatch, dd, n, kind, count, digest, block):
    """Both adjacency tuples, each variable's checks and each check's
    variables, are the recorded ones, per seed and in windows, also
    where one window holds draws of different edge counts."""
    if block is None:
        drawn = [sample_ensemble(dd, n, kind, seed) for seed in range(count)]
    else:
        monkeypatch.setattr(graphs, "BLOCK_ELEMENTS", block)
        drawn = sample_ensembles(dd, n, kind, range(count))
    if kind == LDPC and n == 20:
        assert len({g.n_edges for g in drawn}) > 1
    adjacency = [[g.adj_var, g.adj_chk] for g in drawn]
    assert hashlib.sha256(json.dumps(adjacency).encode()).hexdigest() == digest


def test_impossible_ensembles_are_rejected():
    """A degree drawn with positive probability above the node count of
    the other side has no simple graph: ensemble_sizes, and so the
    sampler, reject it before any draw; a zero-probability degree does
    not count."""
    with pytest.raises(ValueError, match="variable degree 4 exceeds the 3 checks "
                                         "of an ensemble graph at n=3"):
        sample_ensemble(DegreeDistribution.regular(4, 4), 3, LDPC, 0)
    with pytest.raises(ValueError, match="check degree 4 exceeds the 3 variables "
                                         "of an ensemble graph at n=3"):
        sample_ensembles(DegreeDistribution.from_dicts({3: 1.0}, {2: 0.5, 4: 0.5}), 3,
                         LDGM, [0, 1])
    dd = DegreeDistribution.from_dicts({3: 1.0, 9: 0.0}, {3: 1.0})
    assert graphs.ensemble_sizes(dd, 4, LDPC) == (4, 4)
    assert all(len(a) == 3 for a in sample_ensemble(dd, 4, LDPC, 0).adj_var)
    # 45 odd variable degrees always sum to an odd count, the check degrees
    # to an even one: the sampler would redraw until its retry cap
    with pytest.raises(ValueError, match=r"socket counts never balance at n=18: the 45 "
                                         r"variables' sockets number 45\.\.135 in steps of 2, "
                                         r"the 18 checks' 72\.\.108 in steps of 2"):
        sample_ensembles(DegreeDistribution.from_dicts({3: 0.5, 1: 0.5}, {6: 0.5, 4: 0.5}),
                         18, LDGM, [438096, 1])
    # odd and even variable degrees reach every count; a regular side has one
    dd = DegreeDistribution.from_dicts({2: 0.5, 3: 0.5}, {5: 1.0})
    assert graphs.ensemble_sizes(dd, 10, LDPC) == (10, 5)
    assert len(sample_ensemble(dd, 10, LDPC, 0).edges()) == 25
    with pytest.raises(ValueError, match="the 5 variables' sockets number 5..15 in steps "
                                         "of 2, the 5 checks' 10$"):
        graphs.ensemble_sizes(DegreeDistribution.from_dicts({1: 0.5, 3: 0.5}, {2: 1.0}), 5,
                              LDPC)


#: ensembles whose sampled windows row-reduce in one batched elimination:
#: every (4,4) LDPC graph at n = 16 has dependent checks (each variable
#: sits in an even number of them), (3,6) LDPC at n = 24 mostly none,
#: and an LDGM graph has more checks than variables, so rank G < n_chk
WINDOWED_ENSEMBLES = {
    "ldpc-4-4-n16": (DegreeDistribution.regular(4, 4), 16, LDPC),
    "ldpc-3-6-n24": (DegreeDistribution.regular(3, 6), 24, LDPC),
    "ldgm-3-2-n18": (DegreeDistribution.regular(3, 2), 18, LDGM),
    "ldgm-mixed-n14": (DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0}), 14,
                       LDGM),
}


@pytest.mark.parametrize("dd, n, kind", WINDOWED_ENSEMBLES.values(), ids=WINDOWED_ENSEMBLES)
def test_sampled_windows_row_reduce_as_row_reduce(monkeypatch, dd, n, kind):
    """Each sampled graph's reduced_checks are gf2.row_reduce's pairs for
    its checks, sorted by pivot.  They come from one gf2.row_reduce_stack
    call per window (here of 32 graphs), made by the first read on any
    graph of the window and none before; a graph sampled alone runs
    gf2.row_reduce."""
    stacks, row_reduce_stack = [], gf2.row_reduce_stack

    def counted(masks, width):
        stacks.append(len(masks))
        return row_reduce_stack(masks, width)

    monkeypatch.setattr(gf2, "row_reduce_stack", counted)
    monkeypatch.setattr(graphs, "BLOCK_ELEMENTS", 32 * n)
    window = graphs.window_size(n)
    assert window == 32
    drawn = sample_ensembles(dd, n, kind, range(100))
    assert stacks == []
    deficient = 0
    for k, g in enumerate(drawn):
        want = gf2.row_reduce(gf2.mask(c) for c in g.adj_chk)
        assert g.reduced_checks == sorted(want)
        assert len(stacks) == k // window + 1
        deficient += len(want) < g.n_chk
    assert stacks == [len(range(100)[w:w + window]) for w in range(0, 100, window)]
    assert deficient > 0 or (dd, n, kind) == WINDOWED_ENSEMBLES["ldpc-3-6-n24"]
    alone = sample_ensemble(dd, n, kind, 7)
    assert alone.reduced_checks == gf2.row_reduce(gf2.mask(c) for c in alone.adj_chk)
    assert len(stacks) == len(range(0, 100, window))


def span_of(supports, width):
    """The +-1 table spanned by the words with the given supports."""
    return gf2.span_signs(gf2.sign_rows(supports, width))


@pytest.mark.parametrize("block", WINDOW_BLOCKS.values(), ids=WINDOW_BLOCKS)
@pytest.mark.parametrize("dd, n, kind", WINDOWED_ENSEMBLES.values(), ids=WINDOWED_ENSEMBLES)
def test_sampled_windows_give_each_graph_its_reference_tables(monkeypatch, dd, n, kind,
                                                              block):
    """Each graph drawn in a window (of one graph, of the default size, or
    of every seed) has the reduced_checks, free_spin_count and
    exact.codebit_table, and an LDGM graph the dual_code table, that
    gf2.row_reduce and gf2.nullspace_basis give the graph alone: on
    rank-deficient draws of every law, corr-decay's irregular LDGM law
    {2: 2/3, 3: 1/3} among them."""
    monkeypatch.setattr(graphs, "BLOCK_ELEMENTS", block)
    exact.codebit_table.cache_clear()
    deficient = 0
    for g in sample_ensembles(dd, n, kind, range(100)):
        reduced = gf2.row_reduce(gf2.mask(c) for c in g.adj_chk)
        rank = len(reduced)
        assert sorted(g.reduced_checks) == sorted(reduced)
        assert g.free_spin_count == (rank if kind == LDGM else g.n_var - rank)
        if kind == LDGM:
            pivots = sorted(p.bit_length() - 1 for p, _ in reduced)
            want = span_of([g.adj_var[p] for p in pivots], g.n_chk)
            dual = gf2.row_reduce(gf2.mask(c) for c in g.adj_var)
            assert g.dual_code.free_spin_count == g.n_chk - rank
            assert np.array_equal(exact.codebit_table(g.dual_code),
                                  span_of(gf2.nullspace_basis(dual, g.n_chk), g.n_chk))
        else:
            want = span_of(gf2.nullspace_basis(reduced, g.n_var), g.n_var)
        assert np.array_equal(exact.codebit_table(g), want)
        deficient += rank < min(g.n_var, g.n_chk)
    assert deficient > 0 or (dd, n, kind) == WINDOWED_ENSEMBLES["ldpc-3-6-n24"]
    exact.codebit_table.cache_clear()


def test_wide_windows_row_reduce_graph_by_graph(monkeypatch):
    """Graphs on more variables than a uint64 word holds form no mask
    stack: each runs gf2.row_reduce."""
    monkeypatch.setattr(gf2, "row_reduce_stack", None)
    drawn = sample_ensembles(DegreeDistribution.regular(3, 6), 64, LDPC, range(3))
    assert all(g._window is None for g in drawn)
    assert [len(g.reduced_checks) for g in drawn] == [
        gf2.rank(gf2.mask(c) for c in g.adj_chk) for g in drawn]


def same_side_adjacency(g, side, through=None):
    """Boolean adjacency of the nodes of side that share a neighbor on the
    other side (one in through, when given)."""
    adj_self, adj_other = (g.adj_var, g.adj_chk) if side == "var" else (g.adj_chk, g.adj_var)
    A = np.zeros((len(adj_self), len(adj_self)), bool)
    for x, nbrs in enumerate(adj_self):
        for m in nbrs:
            if through is None or m in through:
                A[x, list(adj_other[m])] = True
    return A


def reference_distances(g, side, sources, within=None, through=None):
    """Hop counts from the nearest source by scipy's unweighted shortest
    paths on the same-side adjacency, restricted to the subgraph induced
    by within and the sources."""
    from scipy.sparse.csgraph import shortest_path

    A = same_side_adjacency(g, side, through)
    keep = np.arange(len(A)) if within is None else np.array(sorted(set(within) | set(sources)))
    D = shortest_path(A[np.ix_(keep, keep)], directed=False, unweighted=True,
                      indices=np.searchsorted(keep, sorted(sources)))
    out = np.full(len(A), np.inf)
    out[keep] = D.min(axis=0)
    return out


def test_graph_distance():
    g = repetition3()
    assert graph_distance(g, 0, 0) == 0
    assert graph_distance(g, 0, 2) == 2
    g2 = build_graph(2, 2, [(0, 0), (1, 1)], LDPC)
    assert math.isinf(graph_distance(g2, 0, 1))
    # every view of the search against scipy's shortest paths, from every
    # node of each side, and searches restricted to random node sets
    rng = np.random.default_rng(0)
    mixed = DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0})
    for g in (g2, sample_ensemble(mixed, 14, LDGM, 5), sample_ensemble(mixed, 14, LDGM, 9),
              sample_ensemble(DegreeDistribution.regular(3, 6), 24, LDPC, 2)):
        code_side = "chk" if g.kind == LDGM else "var"
        for side, n, n_other in (("var", g.n_var, g.n_chk), ("chk", g.n_chk, g.n_var)):
            for i in range(n):
                want = reference_distances(g, side, [i])
                assert np.array_equal(hop_distances(g, side, [i]), want)
                if side == code_side:
                    assert np.array_equal(code_bit_distances(g, i), want)
                    j = int(rng.integers(n))
                    assert graph_distance(g, i, j) == want[j]
                targets = rng.choice(n, 3)
                assert same_type_distance(g, side, [i, 0], targets) == min(
                    reference_distances(g, side, [i, 0])[targets])
            for _ in range(20):
                sources = rng.choice(n, int(rng.integers(1, 3)), replace=False).tolist()
                within = set(sources) | set(np.flatnonzero(rng.random(n) < 0.7).tolist())
                through = set(np.flatnonzero(rng.random(n_other) < 0.7).tolist())
                for kw in ({"within": within}, {"through": through},
                           {"within": within, "through": through}):
                    assert np.array_equal(hop_distances(g, side, sources, **kw),
                                          reference_distances(g, side, sources, **kw))


def neighborhood(g, node, d):
    """Ball of edge-radius d (even) around node = (type, index), the tree
    oracle for computational_tree.

    Returns (subgraph, is_tree, boundary, var_map, chk_map) where the maps
    send original node ids to subgraph ids and boundary lists the
    subgraph's nodes at edge distance exactly d, as (type, original id).
    """
    if d % 2 != 0 or d < 0:
        raise ValueError("depth must be even and >= 0")
    dist = {node: 0}
    frontier = [node]
    while frontier:
        nxt = []
        for x in frontier:
            if dist[x] == d:
                continue
            typ, idx = x
            for y in ([("chk", c) for c in g.adj_var[idx]] if typ == "var"
                      else [("var", v) for v in g.adj_chk[idx]]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    vars_in = sorted(i for (t, i) in dist if t == "var")
    chks_in = sorted(i for (t, i) in dist if t == "chk")
    var_map = {v: k for k, v in enumerate(vars_in)}
    chk_map = {c: k for k, c in enumerate(chks_in)}
    edges = [(var_map[v], chk_map[c])
             for v in vars_in for c in g.adj_var[v] if ("chk", c) in dist]
    sub = build_graph(len(vars_in), len(chks_in), edges, g.kind)
    # the induced ball is connected, so tree-ness is an edge count check
    is_tree = sub.n_edges == sub.n_var + sub.n_chk - 1
    boundary = [x for x, dd_ in dist.items() if dd_ == d]
    return sub, is_tree, boundary, var_map, chk_map


def test_neighborhood():
    g = repetition3()
    sub, is_tree, boundary, vm, cm = neighborhood(g, ("var", 0), 0)
    assert sub.n_var == 1 and sub.n_chk == 0 and is_tree
    g4 = four_cycle(LDPC)
    sub, is_tree, boundary, vm, cm = neighborhood(g4, ("var", 0), 2)
    assert sub.n_var == 2 and sub.n_chk == 2 and not is_tree
    sub, is_tree, *_ = neighborhood(g, ("var", 1), 4)
    assert is_tree
    with pytest.raises(ValueError):
        neighborhood(g, ("var", 0), 3)


def test_computational_tree_on_tree_matches_neighborhood():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_tree_graph(rng, LDPC)
        d = 4
        ct = computational_tree(g, 0, d)
        sub, is_tree, *_ = neighborhood(g, ("var", 0), d)
        assert is_tree
        assert ct.n_nodes == sub.n_var + sub.n_chk


def test_computational_tree_unrolls_cycles():
    g4 = four_cycle(LDPC)
    ct = computational_tree(g4, 0, 4)
    # the projection is 2-to-1 beyond the cycle length
    assert ct.n_nodes > 4
    counts = {}
    for typ, img in zip(ct.node_type, ct.proj):
        counts[(typ, img)] = counts.get((typ, img), 0) + 1
    assert max(counts.values()) >= 2
    # every tree edge projects to a graph edge
    for k in range(1, ct.n_nodes):
        pk = ct.parent[k]
        v, c = (ct.proj[k], ct.proj[pk]) if ct.node_type[k] == "var" else \
            (ct.proj[pk], ct.proj[k])
        assert c in g4.adj_var[v]
    assert computational_tree(g4, 0, 0).n_nodes == 1


def test_computational_tree_node_cap(monkeypatch):
    g4 = four_cycle(LDPC)
    monkeypatch.setattr(graphs, "TREE_NODE_CAP", 10)
    assert computational_tree(g4, 0, 4).n_nodes == 9
    with pytest.raises(NodeCapExceeded):
        computational_tree(g4, 0, 100)


def test_saw_examples():
    g = path_graph()
    walks = enumerate_saws(g, {0}, {1}, 5)
    assert len(walks) == 1 and walks[0].length == 1
    g4 = four_cycle(LDGM)
    walks = enumerate_saws(g4, {0}, {1}, 5)
    assert len(walks) == 2 and all(w.length == 1 for w in walks)
    trivial = enumerate_saws(g, {0}, {0}, 5)
    assert len(trivial) == 1 and trivial[0].length == 0


def test_saw_enumeration_cap(monkeypatch):
    # four variables joined pairwise by six checks: 5 walks from 0 to 3
    g = build_graph(4, 6, [(v, c) for c, pair in enumerate(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]) for v in pair], LDGM)
    assert len(enumerate_saws(g, {0}, {3}, 3)) == 5
    monkeypatch.setattr(graphs, "SAW_ENUM_CAP", 1)
    with pytest.raises(EnumerationCapExceeded, match="more than 1 walks"):
        enumerate_saws(g, {0}, {3}, 3)


def test_ensemble_retry_cap(monkeypatch):
    # (2,3)-irregular variables against degree-5 checks: seed 0's first
    # degree draw has 27 variable sockets against 25; seed 1's balances,
    # but its first pairing has a parallel edge
    dd = DegreeDistribution.from_dicts({2: 0.5, 3: 0.5}, {5: 1.0})
    for seed in (0, 1):
        g = sample_ensemble(dd, 10, LDPC, seed)
        assert (g.n_var, g.n_chk, g.n_edges) == (10, 5, 25)
    # a (5,6) LDGM ensemble at n = 5, whose only simple graph is complete:
    # seed 171's repair swaps do not reach it in 1000 rounds
    complete = DegreeDistribution.from_dicts({5: 1.0}, {6: 1.0})
    with pytest.raises(EnumerationCapExceeded, match="could not avoid parallel edges in 1000 "
                       "repair rounds of a graph of 6 variables and 5 checks"):
        sample_ensemble(complete, 5, LDGM, 171)
    monkeypatch.setattr(graphs, "ENSEMBLE_RETRY_CAP", 1)
    with pytest.raises(EnumerationCapExceeded, match="could not balance socket counts in 1 "
                       "degree draws of a graph of 10 variables and 5 checks"):
        sample_ensemble(dd, 10, LDPC, 0)
    with pytest.raises(EnumerationCapExceeded, match="could not avoid parallel edges in 1 "
                       "repair rounds of a graph of 10 variables and 5 checks"):
        sample_ensemble(dd, 10, LDPC, 1)


def test_saw_invariants():
    rng = np.random.default_rng(2)
    from conftest import random_ldgm_graph
    for _ in range(25):
        g = random_ldgm_graph(rng)
        A = set(int(x) for x in rng.choice(g.n_var, rng.integers(1, 3), replace=False))
        B = set(int(x) for x in rng.choice(g.n_var, rng.integers(1, 3), replace=False))
        K = g.l_max * g.k_max
        prev = 0
        for max_len in range(0, g.n_chk + 1):
            walks = enumerate_saws(g, A, B, max_len)
            assert len(walks) >= prev  # monotone in max_len
            prev = len(walks)
        by_len = {}
        for w in walks:
            by_len[w.length] = by_len.get(w.length, 0) + 1
            # replay the walk against adjacency; verify self-avoidance
            assert len(set(w.vars)) == len(w.vars)
            assert len(set(w.chks)) == len(w.chks)
            assert w.vars[0] in A and w.vars[-1] in B
            assert w.n_vars == w.length + 1
            for m in range(w.length):
                assert w.chks[m] in g.adj_var[w.vars[m]]
                assert w.vars[m + 1] in g.adj_chk[w.chks[m]]
        for L, cnt in by_len.items():
            assert cnt <= len(A) * max(K, 1) ** L


def test_serialization_roundtrip(tmp_path):
    g = repetition3()
    path = tmp_path / "code.txt"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.kind == g.kind and g2.edges() == g.edges()
    assert path.read_text().splitlines()[0] == "ldpc 3 2"
