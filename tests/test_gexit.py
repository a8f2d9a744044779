import math

import numpy as np
import pytest

from conftest import bsc_noise_patterns, fixed_code_corpus
from gibbscode import exact, gexit
from gibbscode.bp import bp_all_extrinsics, bp_checkpoint_extrinsics
from gibbscode.channels import (ChannelModel, channel_noise, gexit_kernel_batch,
                                llrs_from_noise, sample_llr, t2p)
from gibbscode.exact import all_extrinsics, all_marginals, conditional_entropy, make_instance
from gibbscode.gexit import (EnsembleSpec, awgn_gexit, bp_gexit,
                             bp_gexit_multi_depth, entropy_fd, map_gexit,
                             map_gexit_routes, map_gexit_series, moment_series,
                             nishimori_residual, series_coefficients,
                             series_zero_moment_value)
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution, build_graph, sample_ensemble


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


def test_floods_run_each_distinct_row_once_bitwise():
    """gexit._floods floods each distinct LLR row of a graph's block once
    and gathers the outputs back: on blocks with repeated rows, and rows
    that differ only in the sign of a zero, both entry points it serves
    equal one flood per row bit for bit.  Rows are told apart by their
    bytes, so -0.0 and 0.0 rows are flooded separately."""
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
        for flood in floods:
            flooded = []

            def counted(inst):
                flooded.append(len(inst.values))
                return flood(inst)

            got, = gexit._floods([g], block[None], counted)
            assert flooded == [4], name
            want = np.concatenate([flood(make_instance(g, row[None])) for row in block])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


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
        inst = make_instance(g, sample_llr(ch, g.code_bit_count, rng).values)
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
        src, bsc, samples, seed,
        lambda graphs, noise: np.stack([gexit_kernel_batch(bsc, all_extrinsics(
            exact.PosteriorBatch(graphs, llrs_from_noise(bsc, noise)))).mean(axis=-1)], -1),
        per_graph)
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
