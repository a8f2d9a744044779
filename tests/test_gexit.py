import hashlib
import json
import math

import numpy as np
import pytest

from conftest import (bsc_noise_patterns, fixed_code_corpus, on_digest_platform,
                      series_zero_moment_value)
from gibbscode import channels, exact, gexit, gf2
from gibbscode.bp import bp_all_extrinsics
from gibbscode.channels import (ChannelModel, channel_noise, gexit_kernel_batch,
                                llrs_from_noise, sample_llr, t2p)
from gibbscode.exact import all_extrinsics, all_marginals, conditional_entropy, make_instance
from gibbscode.gexit import (EnsembleSpec, awgn_gexit, bp_gexit,
                             bp_gexit_multi_depth, entropy_fd, map_gexit,
                             map_gexit_routes, map_gexit_series, moment_series,
                             nishimori_residual, series_coefficients)
from gibbscode.graphs import (LDGM, LDPC, DegreeDistribution, TannerGraph, build_graph,
                              sample_ensemble)


def rep3():
    return build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)


def uncoded_bit():
    return build_graph(1, 0, [], LDPC)


def test_uncoded_bit_closed_form():
    """n = 1, no checks: h(eps) is the binary entropy of eps on the BSC,
    whose derivative is ln((1-eps)/eps); all estimator routes agree."""
    g = uncoded_bit()
    for eps in (0.2, 0.35):
        ch = ChannelModel("bsc", eps)
        analytic = math.log((1 - eps) / eps)
        f = map_gexit(g, ch, 200, 0)
        assert f.value == pytest.approx(analytic, abs=1e-6)
        assert f.std_error < 1e-12  # extrinsic is identically zero
        e = entropy_fd(g, ch, 1e-4, 400, 0)
        assert e.value == pytest.approx(analytic, abs=3 * e.std_error + 1e-4)
        s = map_gexit_series(g, ch, 100, 0, p_max=40)
        assert s.value == pytest.approx(analytic, abs=1e-8)


def test_zero_moment_closed_form():
    """With all extrinsic moments zero the series closes to
    prefactor * 2 atanh(1-2 eps) = prefactor * ln((1-eps)/eps)."""
    for eps in (0.2, 0.3, 0.4):
        ch = ChannelModel("bsc", eps)
        val = series_zero_moment_value(1.0, ch, p_max=200)
        assert val == pytest.approx(2 * math.atanh(1 - 2 * eps), abs=1e-12)
        # p_max = 20 is already within 1e-9 for eps >= 0.2
        assert series_zero_moment_value(1.0, ch, p_max=20) == \
            pytest.approx(val, abs=1e-9)


def test_perfect_knowledge_gives_zero():
    # extrinsic identically 1 makes the kernel vanish
    from gibbscode.channels import gexit_kernel_batch
    for ch in (ChannelModel("bsc", 0.3), ChannelModel("biawgnc", 0.7)):
        assert abs(gexit_kernel_batch(ch, np.array([1.0]))[0]) < 1e-9


def test_functional_matches_entropy_fd():
    ch = ChannelModel("bsc", 0.3)
    for name, g in fixed_code_corpus()[:2]:
        f = map_gexit(g, ch, 3000, 1)
        e = entropy_fd(g, ch, 1e-3, 3000, 1)
        comb = math.hypot(f.std_error, e.std_error)
        assert abs(f.value - e.value) < 3 * comb, name


def test_series_matches_functional():
    ch = ChannelModel("bsc", 0.25)
    for name, g in fixed_code_corpus()[:2]:
        f = map_gexit(g, ch, 2500, 2)
        s = map_gexit_series(g, ch, 2500, 2, p_max=20)
        comb = math.hypot(f.std_error, s.std_error)
        assert abs(f.value - s.value) < 3 * comb + s.meta["tail_bound"], name


def test_series_tail_bound_valid():
    ch = ChannelModel("bsc", 0.25)
    g = fixed_code_corpus()[1][1]
    s20 = map_gexit_series(g, ch, 800, 3, p_max=20)
    s40 = map_gexit_series(g, ch, 800, 3, p_max=40)
    # identical samples; the p_max difference is bounded by the p=20 tail
    assert abs(s20.value - s40.value) <= s20.meta["tail_bound"] + 1e-12
    assert s40.meta["tail_bound"] < s20.meta["tail_bound"]


def test_awgn_magnetization_route():
    ch = ChannelModel("biawgnc", 0.8)
    g = fixed_code_corpus()[3][1]  # small LDGM
    f = map_gexit(g, ch, 2500, 4)
    m = awgn_gexit(g, ch, 2500, 4)
    e = entropy_fd(g, ch, 1e-3, 2500, 4)
    assert abs(f.value - m.value) < 3 * math.hypot(f.std_error, m.std_error)
    assert abs(m.value - e.value) < 3 * math.hypot(m.std_error, e.std_error)
    with pytest.raises(ValueError):
        awgn_gexit(g, ChannelModel("bsc", 0.3), 10, 0)


def test_bp_gexit_tree_equals_map():
    ch = ChannelModel("bsc", 0.3)
    g = rep3()
    b = bp_gexit(g, ch, 8, 1500, 5)
    f = map_gexit(g, ch, 1500, 5)
    assert b.value == pytest.approx(f.value, abs=1e-10)
    # d = 0: no extrinsic knowledge, the zero-moment value ln((1-eps)/eps)
    # (the kernel at M = 0 and the series at p_max 20 agree to rounding)
    b0 = bp_gexit(g, ch, 0, 400, 5)
    assert b0.value == pytest.approx(series_zero_moment_value(1.0, ch), abs=1e-14)
    assert b0.std_error < 1e-12


def test_bp_gexit_multi_depth_stabilizes():
    edges = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3], [0, 3],
             [0, 4], [2, 5]]
    g = build_graph(4, 6, [tuple(e) for e in edges], LDGM)
    ch = ChannelModel("bsc", 0.4)
    ests, diffs = bp_gexit_multi_depth(g, ch, [2, 4, 6, 40], 400, 6)
    gaps = [abs(diffs[(d, 40)][0]) for d in (2, 4, 6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_entropy_fd_step_insensitive():
    ch = ChannelModel("bsc", 0.3)
    g = rep3()
    e1 = entropy_fd(g, ch, 1e-3, 4000, 7)
    e2 = entropy_fd(g, ch, 5e-4, 4000, 7)
    assert abs(e1.value - e2.value) < 1.0 * math.hypot(e1.std_error, e2.std_error)
    with pytest.raises(ValueError):
        entropy_fd(g, ChannelModel("bsc", 0.499), 1e-2, 10, 0)


def test_entropy_fd_ldgm_normalization():
    """For LDGM the finite-difference oracle rescales to the entropy per
    information bit, matching the functional's n/m prefactor."""
    ch = ChannelModel("bsc", 0.25)
    g = fixed_code_corpus()[4][1]
    f = map_gexit(g, ch, 4000, 8)
    e = entropy_fd(g, ch, 1e-3, 4000, 8)
    assert abs(f.value - e.value) < 3 * math.hypot(f.std_error, e.std_error)


def test_nishimori_residuals():
    ch = ChannelModel("bsc", 0.25)
    g = rep3()
    for p in (1, 2, 3):
        r, se = nishimori_residual(g, ch, p, 4000, 9)
        assert r < 4 * se
    with pytest.raises(ValueError):
        nishimori_residual(g, ch, 0, 10, 0)


def test_ensemble_source_and_blocks():
    ch = ChannelModel("bsc", 0.45)
    dd = DegreeDistribution.regular(3, 2)
    src = EnsembleSpec(dd, 12, LDGM)
    est = map_gexit(src, ch, 300, 10, noise_per_graph=10)
    assert est.meta["n"] == 12 and est.std_error > 0
    # prefactor for the ensemble equals Lambda'(1)/P'(1)
    assert est.meta["family"] == LDGM


def test_block_routes_match_per_draw_loop():
    """The block routes read the rng exactly as a loop that draws one
    graph seed (every noise_per_graph samples) and one LLR vector at a
    time, and keep the per-graph-block standard error."""
    ch = ChannelModel("bsc", 0.4)
    src = EnsembleSpec(DegreeDistribution.regular(3, 2), 9, LDGM)
    samples, per_graph, seed = 11, 3, 12
    rng = np.random.default_rng(seed)
    vals, blocks = [], []
    for s in range(samples):
        if s % per_graph == 0:
            g = sample_ensemble(src.dd, src.n, src.kind, int(rng.integers(2 ** 63)))
        inst = make_instance(g, sample_llr(ch, g.code_bit_count, rng))
        vals.append(np.mean(gexit_kernel_batch(ch, all_extrinsics(inst))))
        blocks.append(s // per_graph)
    means = [np.mean(vals[b * per_graph:(b + 1) * per_graph]) for b in range(4)]
    pref = src.dd.lambda_prime / src.dd.p_prime
    est = map_gexit(src, ch, samples, seed, noise_per_graph=per_graph)
    assert est.value == pytest.approx(pref * np.mean(vals), rel=0, abs=1e-12)
    assert est.std_error == pytest.approx(pref * np.std(means, ddof=1) / 2, rel=1e-9)

    # entropy-fd: one fresh graph and one shared uniform draw per sample
    rng = np.random.default_rng(seed)
    slopes = []
    for _ in range(samples):
        g = sample_ensemble(src.dd, src.n, src.kind, int(rng.integers(2 ** 63)))
        u = rng.random(g.code_bit_count)
        h = [conditional_entropy(make_instance(
            g, np.where(u < e, -1.0, 1.0) * 0.5 * math.log((1 - e) / e))) for e in (0.401, 0.399)]
        slopes.append(g.n_chk / g.n_var * (h[0] - h[1]) / 0.002)
    est = entropy_fd(src, ch, 1e-3, samples, seed)
    assert est.value == pytest.approx(np.mean(slopes), rel=0, abs=1e-9)


def test_map_routes_alone_keep_their_values():
    """map_gexit and map_gexit_series are the two halves of the shared
    pass, and return what they returned as separate passes (values and
    standard errors pinned from that implementation; the BIAWGNC series
    pin re-derived when t2p became the integral of dc/deps instead of a
    central difference, which moved it by 2.65e-9 relative, and the BSC
    functional pin when the BSC kernel became the closed-form
    eps-derivative instead of a central difference, which moved it by
    2.3e-9 relative)."""
    ens = EnsembleSpec(DegreeDistribution.regular(3, 2), 9, LDGM)
    ldpc5 = dict(fixed_code_corpus())["ldpc-5"]
    pinned = [
        (ens, ChannelModel("bsc", 0.4), (0.6059359505083393, 0.003032286534291737),
         (0.6020810676545346, 0.003154122164907145)),
        (ldpc5, ChannelModel("biawgnc", 0.8), (0.04457629872039826, 0.015666488534244433),
         (0.06782041808696124, 0.02024197598822544)),
    ]
    for src, ch, functional, series in pinned:
        f = map_gexit(src, ch, 12, 12, noise_per_graph=3)
        s = map_gexit_series(src, ch, 12, 12, 6, noise_per_graph=3)
        both = map_gexit_routes(src, ch, 12, 12, ("series", "functional"), 6,
                                noise_per_graph=3)
        assert both == {"functional": f, "series": s}
        assert (f.value, f.std_error) == pytest.approx(functional, rel=1e-12, abs=0)
        assert (s.value, s.std_error) == pytest.approx(series, rel=1e-12, abs=0)


def test_moment_series_matches_powers():
    """The running-power series equals sum_p c_p (M^{2p} - 1) with each
    power taken by pow, to 1e-15 of sum_p |c_p|, for M across [-1, 1],
    near +-1 and at +-0 and +-1 exactly, on both channels at p_max 20."""
    rng = np.random.default_rng(3)
    Ms = np.concatenate([rng.uniform(-1, 1, 5000), 1 - np.logspace(-16, -1, 200),
                         -1 + np.logspace(-16, -1, 200), [0.0, -0.0, 1.0, -1.0]])
    for ch in (ChannelModel("bsc", 0.1), ChannelModel("biawgnc", 0.8)):
        coeffs = series_coefficients(ch, 20)
        assert np.array_equal(coeffs, [t2p(ch, p) / (2 * p * (2 * p - 1)) for p in range(1, 21)])
        want = sum(c * (Ms ** (2 * p) - 1.0) for p, c in enumerate(coeffs, 1))
        got = moment_series(Ms.reshape(4, -1), coeffs)
        assert got.shape == (4, len(Ms) // 4)
        assert np.max(np.abs(got.ravel() - want)) <= 1e-15 * np.abs(coeffs).sum()
        assert np.array_equal(moment_series(np.array([1.0, -1.0]), coeffs), [0.0, 0.0])


# ---------------------------------------------------------------------------
# ensemble graphs grouped by table shape against a loop over graphs
# ---------------------------------------------------------------------------

GROUPED_SOURCES = [EnsembleSpec(DegreeDistribution.regular(4, 4), 16, LDPC),
                   EnsembleSpec(DegreeDistribution.regular(3, 2), 9, LDGM)]


def _graph_loop(src, ch, samples, seed, per_graph, value):
    """Reference: one graph seed, then that graph's (S, n) channel noise
    block, graph after graph; value(g, noise) gives the graph's
    per-sample values.  Returns the values and each sample's graph."""
    rng = np.random.default_rng(seed)
    vals, index = [], []
    for k, start in enumerate(range(0, samples, per_graph)):
        g = sample_ensemble(src.dd, src.n, src.kind, int(rng.integers(2 ** 63)))
        S = min(per_graph, samples - start)
        vals.append(value(g, channel_noise(ch, (S, g.code_bit_count), rng)))
        index += [k] * S
    return np.concatenate(vals), np.array(index)


def _table_shapes(monkeypatch):
    """Record the (G, R) of every all_extrinsics / all_marginals /
    conditional_entropy call gexit makes."""
    shapes = []

    def recorded(reduce):
        def call(batch):
            shapes.append((len(batch.graphs), 1 << batch.graphs[0].free_spin_count))
            return reduce(batch)
        return call

    for name in ("all_extrinsics", "all_marginals", "conditional_entropy"):
        monkeypatch.setattr(gexit, name, recorded(getattr(exact, name)))
    return shapes


@pytest.mark.parametrize("src", GROUPED_SOURCES, ids=["ldpc44-16", "ldgm32-9"])
@pytest.mark.parametrize("per_graph", [1, 3])
def test_grouped_routes_equal_graph_loop(monkeypatch, src, per_graph):
    """Functional, series, BIAWGNC magnetization and entropy-fd on an
    ensemble, whose consecutive graphs are grouped by table shape (mixed
    2- to 16-row tables for (4,4) LDPC), give every per-sample value and
    graph index, and so every estimate and SE, of a loop that runs one
    graph at a time, bit for bit; groups of more than one graph and
    several table shapes occur, and a short last graph at 3 samples per
    graph forms its own group."""
    samples, seed, p_max = 61, 14, 8
    shapes = _table_shapes(monkeypatch)
    pref = gexit._prefactor(src)
    bsc = ChannelModel("bsc", 0.04 if src.kind == LDPC else 0.4)
    coeffs = series_coefficients(bsc, p_max)

    def map_values(g, noise):
        Ms = all_extrinsics(make_instance(g, llrs_from_noise(bsc, noise)))
        series = moment_series(Ms, coeffs)
        return np.stack([gexit_kernel_batch(bsc, Ms).mean(axis=1), series.mean(axis=1)], 1)

    want, index = _graph_loop(src, bsc, samples, seed, per_graph, map_values)
    got, got_index = gexit._per_sample(
        gexit._batches(gexit._draws(src, bsc, samples, seed, per_graph)), samples,
        lambda graphs, noise: np.stack([gexit_kernel_batch(bsc, all_extrinsics(
            exact.make_instance(graphs, llrs_from_noise(bsc, noise)))).mean(axis=-1)], -1))
    assert got[:, 0].tobytes() == want[:, 0].tobytes()
    assert np.array_equal(got_index, index)
    ests = map_gexit_routes(src, bsc, samples, seed, ("functional", "series"), p_max, per_graph)
    for k, method in enumerate(("functional", "series")):
        ref = gexit._estimate(want[:, k], pref, method, {}, index)
        assert (ests[method].value, ests[method].std_error) == (ref.value, ref.std_error)
    assert max(G for G, _ in shapes) > 1
    if src.kind == LDPC:
        assert len({R for _, R in shapes}) >= 3

    awgn = ChannelModel("biawgnc", 0.8)
    want, index = _graph_loop(src, awgn, samples, seed, per_graph, lambda g, noise: (
        1.0 - all_marginals(make_instance(g, llrs_from_noise(awgn, noise))).mean(axis=1))
        / (2.0 * awgn.eps ** 2))
    est = awgn_gexit(src, awgn, samples, seed, per_graph)
    ref = gexit._estimate(want, pref, "awgn-magnetization", {}, index)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)

    if per_graph == 1:  # entropy-fd draws one graph per sample
        step = 1e-3
        sides = [ChannelModel("bsc", bsc.eps + step), ChannelModel("bsc", bsc.eps - step)]

        def slope(g, noise):
            h = [conditional_entropy(make_instance(g, llrs_from_noise(c, noise))) for c in sides]
            scale = g.n_chk / g.n_var if g.kind == LDGM else 1.0
            return scale * (h[0] - h[1]) / (2.0 * step)

        want, _ = _graph_loop(src, bsc, samples, seed, 1, slope)
        est = entropy_fd(src, bsc, step, samples, seed)
        ref = gexit._estimate(want, 1.0, "entropy-fd", {})
        assert (est.value, est.std_error) == (ref.value, ref.std_error)


@pytest.mark.parametrize("dd,n,kind", [((3, 6), 120, LDPC), ((3, 2), 60, LDGM)],
                         ids=["ldpc36-120", "ldgm32-60"])
def test_bp_routes_build_no_table(monkeypatch, dd, n, kind):
    """The BP routes read an ensemble's draws one graph at a time and
    never row-reduce a graph, whose exact table no BP route builds (at
    n = 1000 the rank cost most of a bp_gexit pass): neither the one-graph
    reduction nor a sampled window's batched one runs.  bp_gexit's values
    and standard error are those of a loop that floods one graph at a
    time."""
    reduced = []
    for name in ("row_reduce", "row_reduce_stack"):
        def counted(*args, reduce=getattr(gf2, name), name=name):
            reduced.append(name)
            return reduce(*args)

        monkeypatch.setattr(gf2, name, counted)
    src, ch = EnsembleSpec(DegreeDistribution.regular(*dd), n, kind), ChannelModel("bsc", 0.05)
    est = bp_gexit(src, ch, 5, 7, 1, noise_per_graph=2)
    bp_gexit_multi_depth(src, ch, [2, 5], 4, 1)
    assert reduced == []
    want, index = _graph_loop(src, ch, 7, 1, 2, lambda g, noise: gexit_kernel_batch(
        ch, bp_all_extrinsics(make_instance(g, llrs_from_noise(ch, noise)), 5)).mean(axis=1))
    ref = gexit._estimate(want, gexit._prefactor(src), "bp", {}, index)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def test_batches_keep_the_chunks_of_a_fixed_graph_apart():
    """A fixed graph's noise chunks never share a batch window, so each
    of its groups holds one chunk, in sample order, and the walk covers
    every sample once."""
    g = dict(fixed_code_corpus())["ldpc-5"]
    step = channels.BLOCK_ELEMENTS // g.code_bit_count
    groups = list(gexit._batches(gexit._draws(g, ChannelModel("bsc", 0.3), 2 * step + 5, 3)))
    assert [(list(starts), len(graphs), noise.shape) for starts, _, graphs, noise in groups] == \
        [([0], 1, (1, step, 5)), ([step], 1, (1, step, 5)), ([2 * step], 1, (1, 5, 5))]


#: sha256 of each draw's (start, graph index, adjacency, noise shape) and
#: noise bytes over gexit._draws on a (4,4) LDPC ensemble at n = 16 (BSC
#: 0.03, seed 5) and on an irregular LDGM ensemble at n = 14 (BIAWGNC
#: 0.5, seed 7), 1,300 samples at 1, 3 and 600 samples per graph (the
#: first two span several draw windows, the last draws each graph's noise
#: in two chunks), recorded from the walk that drew one graph at a time
DRAW_DIGESTS = {
    "ldpc44-16 1": "24ac1eeb31fae84027f1ef77d16c2182cfde5aa6169b4410b64b9705ecdd9c6f",
    "ldpc44-16 3": "b481a6e60cfdabe05a05a86f5f74fa920e63d1549b7ced9fef31a149a5f71a62",
    "ldpc44-16 600": "f935b16b900a16fe70c1b3b9204127d63631df8d763470c9255486764ea21ae1",
    "ldgm-mixed-14 1": "f58e427818d82b4988420f7327eed0f44157603e401bf07924e0ed7d1557ae1e",
    "ldgm-mixed-14 3": "55e2286bc6b242286584c90d3755cee65caad49a064ea2571ccbd4f430ff8558",
    "ldgm-mixed-14 600": "b2d6eedbc91aa0040300b617cbfa8e12ffda033fd68bdf5a7f63144185513f0d",
}


@pytest.mark.parametrize("key", DRAW_DIGESTS)
def test_draws_keep_their_recorded_sequence(key):
    """Drawing ensemble graphs a window at a time keeps the (graph, noise)
    sequence: each graph's seed and then its noise from the walk's rng,
    in sample order."""
    name, per_graph = key.split()
    src, ch, seed = {
        "ldpc44-16": (EnsembleSpec(DegreeDistribution.regular(4, 4), 16, LDPC),
                      ChannelModel("bsc", 0.03), 5),
        "ldgm-mixed-14": (EnsembleSpec(DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3},
                                                                     {2: 1.0}), 14, LDGM),
                          ChannelModel("biawgnc", 0.5), 7)}[name]
    digest = hashlib.sha256()
    for start, index, g, noise in gexit._draws(src, ch, 1300, seed, int(per_graph)):
        digest.update(json.dumps([start, index, g.adj_var, g.adj_chk, noise.shape]).encode())
        digest.update(noise.tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[key]


#: sha256 of the repr of each route's result on two ensembles whose
#: batch windows span several table shapes (noise_per_graph 1 and 3) and
#: on two corpus codes, on the BSC and the BIAWGNC (61 samples, seed 14;
#: series at p_max 8, bp at d = 5, multi-depth at 1, 3 and 20, Nishimori
#: at p = 2), recorded before the walk was split into draws and batches
ROUTE_DIGESTS = {
    "ldpc44-16 bsc 1 map": "4c7915169bdd9f379c41f3cc99785068c85b4a78c953ee01e9b05478bbd097f9",
    "ldpc44-16 bsc 1 bp": "5166421ae6af9cafd48a089c9e689d978302f9b90789749733f34014ff5d4d53",
    "ldpc44-16 bsc 1 multi": "2c6ad9f6b7d306c85589c2b01218a1dd1d0e4f3249f2d021a6cfc84657314cfa",
    "ldpc44-16 bsc 1 nishimori": "9906bd0d307753127d34247fccad3510019195d14ff44a42d2a7e59977a564e2",
    "ldpc44-16 bsc 3 map": "be886ebffa3c6f712d8765257e531f8a134539b94af2ed0502660f2ddbc055b9",
    "ldpc44-16 bsc 3 bp": "790ea6536258229b16bedd57184f2c9f31ada7bbb1530bd120330b7ce20ff035",
    "ldpc44-16 biawgnc 1 map": "d681d2d1602d0b2312d9a9af4f367b527d8c8026d4868021f56c36ebb97e016f",
    "ldpc44-16 biawgnc 1 bp": "f67d3e5099d7d55a963c599d372670b8b78f43f99e24bbf56e9875a21dcbe296",
    "ldpc44-16 biawgnc 1 multi": "df1391ef658e6dcbe0af76b435f78829442993216c677b8610f84a1cb58d848c",
    "ldpc44-16 biawgnc 1 nishimori": "4a0ab631973cd422942010dae933f882429c92a48d6aa08946bf99f97868b69f",
    "ldpc44-16 biawgnc 3 map": "b74711d2270f38b8c3a5dfbf721b36283f0a9f2b1c75bc00ae62e82d39f7f2ac",
    "ldpc44-16 biawgnc 3 bp": "df8d38d1e2de54bc296aa75d9e817a986ddcf4413e81f85527b5ebf93c544945",
    "ldgm32-9 bsc 1 map": "d7edc1e50c8009c0fa0c4c66f8f945b4bc2ea382f3ae49c7525f9ecd725e85e8",
    "ldgm32-9 bsc 1 bp": "843b94666b2f7573728f6a44f6b6f6fec57dfa614344cdcd4a2869ab97d712cf",
    "ldgm32-9 bsc 1 multi": "b9ebbe9bf18c8b20992330d50515a86dbbe01b2e40a897b6076bcfcaea40fcaf",
    "ldgm32-9 bsc 1 nishimori": "e24309977a5fd4ff0195fdc80bd3826d7d8139cd7eedd0adbf6d939e1fe6034f",
    "ldgm32-9 bsc 3 map": "1a1a9b66ae93e9c3e0294c99426a0860c18044212db9e53865ed9b7e50e75464",
    "ldgm32-9 bsc 3 bp": "c8b3afe8cfa8edfd472aeda590bd2ec7dc67520ea5779f2bf1621e53476b7e89",
    "ldgm32-9 biawgnc 1 map": "c331c61ccf8cd3641b657dd25351aec76c4745e75f801550ed04f262f6db3810",
    "ldgm32-9 biawgnc 1 bp": "f6675ee83be62ed19e99021a82b7176372c8c9e18109c99db55741629ddc41e8",
    "ldgm32-9 biawgnc 1 multi": "0537c339791c69b38910da7bcb05ba5445cec903d40118bb8468f2cb7ff29a16",
    "ldgm32-9 biawgnc 1 nishimori": "3022077e88343d739c5015d088196cc1d1cedcd86db2e7edd117fdd32063da09",
    "ldgm32-9 biawgnc 3 map": "b41b84adf5df97d2eb148f3e058b743b9fea06789ceec96a5b72c15434f140bc",
    "ldgm32-9 biawgnc 3 bp": "af3da6b69cc6a7f81dae4ba659ef545069e448ab52d4fa118fa505ee91b75925",
    "ldpc-5 bsc 1 map": "cdd9bad95a3373de095b89ca4661f7168e94ad15dafca900914952ef933a9919",
    "ldpc-5 bsc 1 bp": "0f1ae8ab979769104a2df508ceed4ecca276044c4e1430c99f76902b1e4fe0fb",
    "ldpc-5 bsc 1 multi": "9a8f0ea259debc2eb2b79b5e3506b1ef597ac15097de1d0725f228b394c081c4",
    "ldpc-5 bsc 1 nishimori": "13cd20b7bc028af6dd664459375604596ce9e91b80beda77aa8374f801851e25",
    "ldpc-5 biawgnc 1 map": "93893558150554e806ce356da21470bc9c560cf176fa92d5149ef3ce7aacfc81",
    "ldpc-5 biawgnc 1 bp": "dabc40db28495bc909785cd82946840abdb87ef2ca45afa63a4cf8188d17091a",
    "ldpc-5 biawgnc 1 multi": "83e4d6d526855dd23369757a3ea63ba1fd86cde9c9222e32f51d8f321c851344",
    "ldpc-5 biawgnc 1 nishimori": "c5db16e4c70e726a1488c032f3ab6d30d6abb19b27c19a480670c0e11cbda6bd",
    "ldgm-loop bsc 1 map": "b6be5ca16abefb6f9deeeb4c55ea21e6cf6c0afdc099dbfd85c1e3702fada508",
    "ldgm-loop bsc 1 bp": "d5b6b89605c18c265b6584126d2c254afc4ed6a40c500fc473065ca91ccc9395",
    "ldgm-loop bsc 1 multi": "40bf18ee5e9d2a25fbc85d9cc559d4a7be9bb952c597537834e12cfdafe01264",
    "ldgm-loop bsc 1 nishimori": "5fd1e77b14f00bfdcb9b9180d0aed9de39a79cfba2e7c6c5af35ab1f9f2950b5",
    "ldgm-loop biawgnc 1 map": "7b7b38cbbcd663671ecc7d6181fffb0cd2641fc474acaaa28f3df5984e46c813",
    "ldgm-loop biawgnc 1 bp": "7e6fda9cdc3f6dc82e86ed59ce33d3a907dcbe6a556b451cfb10275b80f1617c",
    "ldgm-loop biawgnc 1 multi": "0b9e63da6645c263fd599725b8b6a86c55647776d79e1459d5fb51742971b005",
    "ldgm-loop biawgnc 1 nishimori": "fcdc9f49a7926513c078bb0959be98ca9da08bd75102b6a3137acc11f8fda381",
}


@on_digest_platform
def test_routes_keep_their_recorded_bits():
    """map_gexit_routes, bp_gexit, bp_gexit_multi_depth and
    nishimori_residual give the recorded values and standard errors bit
    for bit."""
    corpus = dict(fixed_code_corpus())
    sources = {"ldpc44-16": GROUPED_SOURCES[0], "ldgm32-9": GROUPED_SOURCES[1],
               "ldpc-5": corpus["ldpc-5"], "ldgm-loop": corpus["ldgm-loop"]}
    got = {}
    for name, src in sources.items():
        for kind in ("bsc", "biawgnc"):
            ch = ChannelModel(kind, 0.8 if kind == "biawgnc" else
                              0.04 if name.startswith("ldpc") else 0.3)
            methods = ("functional", "series", "entropy-fd") + (
                ("awgn-magnetization",) if kind == "biawgnc" else ())
            for npg in (1,) if isinstance(src, TannerGraph) else (1, 3):
                out = {"map": map_gexit_routes(src, ch, 61, 14, methods, 8, npg),
                       "bp": bp_gexit(src, ch, 5, 61, 14, npg)}
                if npg == 1:
                    out["multi"] = bp_gexit_multi_depth(src, ch, [1, 3, 20], 61, 14)
                    out["nishimori"] = nishimori_residual(src, ch, 2, 61, 14)
                for key, val in out.items():
                    digest = hashlib.sha256(repr(val).encode()).hexdigest()
                    got[f"{name} {kind} {npg} {key}"] = digest
    assert got == ROUTE_DIGESTS


# ---------------------------------------------------------------------------
# exact noise averages: every BSC noise pattern of a code, weighted by its
# probability
# ---------------------------------------------------------------------------

EXACT_CODES = [(DegreeDistribution.regular(3, 6), 12, LDPC),
               (DegreeDistribution.regular(3, 2), 9, LDGM)]


def _exact_gexit(g, eps):
    """prefactor * E[mean_i G(<x_i>_0)] over all noise patterns."""
    batch, weights = bsc_noise_patterns(g, eps)
    kernels = gexit_kernel_batch(ChannelModel("bsc", eps), all_extrinsics(batch)[0])
    return gexit._prefactor(g) * (weights @ kernels.mean(axis=1))


def _exact_entropy(g, eps):
    """E[H(X | Y = y)] per code bit (per information bit for LDGM, like
    entropy_fd) over all noise patterns."""
    batch, weights = bsc_noise_patterns(g, eps)
    return gexit._prefactor(g) * (weights @ conditional_entropy(batch)[0])


@pytest.mark.parametrize("dd,n,kind", EXACT_CODES, ids=["ldpc36-12", "ldgm32-9"])
def test_area_theorem_on_exact_noise_averages(dd, n, kind):
    """The area theorem (Measson, Montanari, Richardson and Urbanke,
    arXiv cs/0511039): the integral of the exact MAP GEXIT over
    [lo, hi] equals H(hi) - H(lo), with no sampling error on either side;
    40-point Gauss-Legendre in eps."""
    g = sample_ensemble(dd, n, kind, 3)
    assert g.code_bit_count == n
    x, w = np.polynomial.legendre.leggauss(40)
    for lo, hi in ((0.02, 0.1), (0.1, 0.3), (0.3, 0.45)):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        area = half * sum(wk * _exact_gexit(g, half * xk + mid) for xk, wk in zip(x, w))
        want = _exact_entropy(g, hi) - _exact_entropy(g, lo)
        assert area == pytest.approx(want, rel=1e-12, abs=0), (lo, hi)


@pytest.mark.parametrize("dd,n,kind", EXACT_CODES, ids=["ldpc36-12", "ldgm32-9"])
def test_nishimori_identity_on_exact_noise_averages(dd, n, kind):
    """E<x_i>^{2p-1} = E<x_i>^{2p} for every code bit, as exact noise
    averages."""
    g = sample_ensemble(dd, n, kind, 3)
    for eps in (0.03, 0.2, 0.45):
        batch, weights = bsc_noise_patterns(g, eps)
        m = all_marginals(batch)[0]
        for p in (1, 2, 3, 5):
            gap = weights @ (m ** (2 * p - 1) - m ** (2 * p))
            assert np.max(np.abs(gap)) <= 1e-12, (eps, p)
