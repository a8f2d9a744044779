import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gibbscode import channels
from gibbscode.channels import (BIAWGNC, BSC, ChannelModel, default_H, delta_dual, delta_high,
                                exp_abs_moment, exp_neg_moment,
                                gexit_kernel_batch, gexit_kernel_integral,
                                sample_llr, sinh_neg_moment, t2p, t2p_sup, t2p_terms)

#: BIAWGNC noise levels from deep in the waterfall to far past capacity
EXTREME_EPS = (0.001, 0.01, 0.1, 0.5, 0.8, 1.0, 4.0, 20.0, 100.0)


def test_spec_parsing_and_validation():
    ch = ChannelModel.from_spec("bsc:0.25")
    assert ch.kind == BSC and ch.eps == 0.25
    assert ChannelModel.from_spec("biawgnc:0.5").eps_max == math.inf
    with pytest.raises(ValueError):
        ChannelModel("bsc", 0.6)
    with pytest.raises(ValueError):
        ChannelModel("bec", 0.3)
    with pytest.raises(ValueError):
        ChannelModel.from_spec("bsc")


def test_bsc_llr_atoms():
    ch = ChannelModel(BSC, 0.25)
    v = sample_llr(ch, 2000, 1)
    a = 0.5 * math.log(3.0)
    assert set(np.round(np.abs(v), 12)) == {round(a, 12)}
    # probability of the negative atom ~ eps
    assert abs(np.mean(v < 0) - 0.25) < 0.03
    # determinism
    assert np.array_equal(v, sample_llr(ch, 2000, 1))


def test_awgn_llr_moments():
    ch = ChannelModel(BIAWGNC, 0.5)
    v = sample_llr(ch, 200000, 2)
    assert abs(np.mean(v) - 2.0) < 0.02   # mean 1/eps
    assert abs(np.var(v) - 2.0) < 0.05    # variance 1/eps


def test_t2p_bsc_closed_form():
    # d/deps E[tanh^{2p} l] = -4p (1-2eps)^{2p-1}
    ch = ChannelModel(BSC, 0.25)
    assert t2p(ch, 1) == pytest.approx(-2.0)
    assert t2p(ch, 2) == pytest.approx(-1.0)
    assert t2p(ChannelModel(BSC, 0.499999), 1) == pytest.approx(0.0, abs=1e-5)


def test_exp_abs_moment():
    assert exp_abs_moment(ChannelModel(BSC, 0.2), 2.0) == pytest.approx(4.0)
    assert exp_abs_moment(ChannelModel(BSC, 0.3), 0.0) == pytest.approx(1.0)
    assert exp_abs_moment(ChannelModel(BIAWGNC, 0.7), 0.0) == pytest.approx(1.0, abs=1e-9)


def test_exp_neg_moment_closed_forms():
    assert exp_neg_moment(ChannelModel(BIAWGNC, 0.5), 1.0) == pytest.approx(math.exp(-1))
    assert exp_neg_moment(ChannelModel(BSC, 0.1), 1.0) == pytest.approx(0.6)
    assert exp_neg_moment(ChannelModel(BSC, 0.3), 0.0) == pytest.approx(1.0)


def test_exp_neg_moment_monotone_in_eps():
    for kind, grid in ((BSC, np.linspace(0.05, 0.45, 9)),
                       (BIAWGNC, np.linspace(0.1, 5.0, 9))):
        vals = [exp_neg_moment(ChannelModel(kind, e), 0.2) for e in grid]
        assert all(vals[k] < vals[k + 1] for k in range(len(vals) - 1))


def test_monte_carlo_matches_closed_forms():
    n = 10 ** 6
    ch = ChannelModel(BIAWGNC, 0.8)
    v = sample_llr(ch, n, 3)
    for stat, exact in ((np.exp(-0.5 * v), exp_neg_moment(ch, 0.5)),
                        (np.exp(1.0 * np.abs(v)), exp_abs_moment(ch, 1.0))):
        se = stat.std(ddof=1) / math.sqrt(n)
        assert abs(stat.mean() - exact) < 4 * se


def test_delta_high_examples():
    ch = ChannelModel(BSC, 0.4)
    H = 0.5 * math.log(1.5)
    assert delta_high(ch, H) == pytest.approx(1.25)  # |l| = H exactly: no tail
    ch2 = ChannelModel(BSC, 0.499)
    d = delta_high(ch2, default_H(ch2))
    assert d == pytest.approx((0.501 / 0.499) ** 4 - 1, rel=1e-12)
    # continuous channel, H -> 0+: tail -> P(|l| > 0) ~ 1
    cha = ChannelModel(BIAWGNC, 1.0)
    assert delta_high(cha, 1e-9) == pytest.approx(cha.tail_prob(1e-9), abs=1e-6)


def test_gaussian_tail_matches_scipy_norm():
    """The BIAWGNC tail P(|l| > H) by erfc equals scipy.stats.norm's
    sf + cdf at relative 1e-13, at eps from 0.01 to 4 and H from 1e-9 to
    ten standard deviations of l."""
    from scipy.stats import norm

    for eps in (0.01, 0.5, 1.0, 4.0):
        ch = ChannelModel(BIAWGNC, eps)
        mu, var = ch.gauss_params()
        sd = math.sqrt(var)
        for H in np.concatenate([[1e-9, 1e-6, 1e-3], np.linspace(0.05, 10.0, 60) * sd]):
            want = norm.sf(H, mu, sd) + norm.cdf(-H, mu, sd)
            assert ch.tail_prob(H) == pytest.approx(want, rel=1e-13, abs=0), (eps, H)


def test_delta_high_monte_carlo_tail():
    ch = ChannelModel(BSC, 0.499)
    H = default_H(ch)
    v = np.abs(sample_llr(ch, 10 ** 5, 5))
    assert np.mean(v > H) == 0.0


def test_delta_dual():
    val = delta_dual(ChannelModel(BIAWGNC, 0.01), 0.1)
    expect = 2 ** 0.2 * math.exp(-0.4 * 100 * 0.8) + math.exp(-0.8 * 100 * 0.6)
    assert val == pytest.approx(expect, rel=1e-12)
    assert delta_dual(ChannelModel(BSC, 0.3), 1e-9) == pytest.approx(2.0, abs=1e-6)
    # BSC: vanishes as eps -> 0 (like eps^{2s})
    assert delta_dual(ChannelModel(BSC, 1e-8), 0.1) < \
        delta_dual(ChannelModel(BSC, 1e-4), 0.1) < \
        delta_dual(ChannelModel(BSC, 1e-2), 0.1)
    assert delta_dual(ChannelModel(BSC, 1e-12), 0.1) < 5e-3
    with pytest.raises(ValueError):
        delta_dual(ChannelModel(BSC, 0.3), 0.7)


def test_channel_symmetry():
    # c(-l) = e^{-2l} c(l): exact on BSC atoms, 1e-12 on the Gaussian
    ch = ChannelModel(BSC, 0.3)
    vals, probs = ch.bsc_atoms()
    assert probs[1] == pytest.approx(math.exp(-2 * vals[0]) * probs[0])
    cha = ChannelModel(BIAWGNC, 0.7)
    ls = np.linspace(-3, 6, 25)
    assert np.allclose(cha.density(-ls), np.exp(-2 * ls) * cha.density(ls),
                       rtol=1e-12, atol=1e-300)


def bsc_kernel_integral(eps, f, h=1e-30):
    """Reference for the BSC: the eps-derivative of the atom sum
    F(e) = (1 - e) f(a) + e f(-a), a = (1/2) ln((1 - e)/e), by the complex
    step Im F(eps + ih) / h (Squire and Trapp, SIAM Review 1998).  For an
    analytic f it has no difference to cancel, so it is exact to rounding
    up to an O(h^2) term."""
    e = complex(eps, h)
    a = 0.5 * np.log((1.0 - e) / e)
    return ((1.0 - e) * f(a) + e * f(-a)).imag / h


def test_kernel_integral_examples():
    assert abs(gexit_kernel_integral(ChannelModel(BIAWGNC, 0.6), lambda l: 1.0)) < 1e-8
    assert abs(bsc_kernel_integral(0.25, lambda l: 1.0)) < 1e-8
    assert bsc_kernel_integral(0.25, lambda l: np.tanh(l) ** 2) == \
        pytest.approx(t2p(ChannelModel(BSC, 0.25), 1), rel=1e-12, abs=0)
    assert bsc_kernel_integral(0.25, lambda l: np.tanh(l) ** 4) == \
        pytest.approx(t2p(ChannelModel(BSC, 0.25), 2), rel=1e-12, abs=0)
    with pytest.raises(ValueError, match="gexit_kernel_batch or t2p"):
        gexit_kernel_integral(ChannelModel(BSC, 0.25), lambda l: np.tanh(l) ** 2)


def test_t2p_biawgnc_pinned_to_mpmath():
    """t2p against 40-digit mpmath values of the integral of
    (dc/deps)(tanh^{2p} l - 1) over the real line (computed once,
    offline; mpmath is not a dependency), down to eps 0.01, where t2p is
    about 1e-19; at eps 0.001 (truth -1.4e-213) it underflows to 0."""
    pinned = {
        0.8: (-0.40255299022012475, -0.483694569617438, -0.5026513528963165),
        0.1: (-0.13053376108106154, -0.18956058924113098, -0.396413334861734),
        0.03: (-6.9197641121246575e-06, -1.0277277238516342e-05, -2.3301441774797102e-05),
        0.01: (-1.2058525549874636e-19, -1.8027775673348579e-19, -4.18511912837445e-19),
    }
    for eps, values in pinned.items():
        ch = ChannelModel(BIAWGNC, eps)
        for p, want in zip((1, 2, 10), values):
            assert t2p(ch, p) == pytest.approx(want, rel=1e-13, abs=0), (eps, p)
    assert [t2p(ChannelModel(BIAWGNC, 0.001), p) for p in (1, 20)] == [0.0, 0.0]


def test_t2p_terms_equal_one_integral_per_p_bitwise():
    """t2p_terms evaluates the nodes once for every p, yet each term is,
    bit for bit, the integral of its own power sum against dc/deps
    (gexit_kernel_integral of -sech^2 l sum_{k<p} tanh^{2k} l, the
    running sum taken p - 1 times), and t2p(ch, p) is its last term; the
    BSC terms are the closed forms, from eps 0.001 to far past capacity
    and for p_max 1 to 40."""
    def per_p(ch, p):
        def f(l):
            t2 = np.tanh(l) ** 2
            power, total = np.ones_like(l), np.ones_like(l)
            for _ in range(p - 1):
                power *= t2
                total += power
            e = np.exp(-2.0 * np.abs(l))
            return -4.0 * e / (1.0 + e) ** 2 * total
        if ch.kind == BSC:
            return -4.0 * p * (1.0 - 2.0 * ch.eps) ** (2 * p - 1)
        return gexit_kernel_integral(ch, f)

    for ch in [ChannelModel(BIAWGNC, eps) for eps in (0.001, 0.05, 0.3, 0.8, 4.0, 100.0)] + \
            [ChannelModel(BSC, eps) for eps in (0.001, 0.1, 0.45)]:
        for p_max in (1, 3, 20, 40):
            terms = t2p_terms(ch, p_max)
            assert [x.hex() for x in terms] == [per_p(ch, p).hex()
                                                for p in range(1, p_max + 1)], (ch, p_max)
            assert t2p(ch, p_max) == terms[-1]
    with pytest.raises(ValueError, match="p must be >= 1"):
        t2p_terms(ChannelModel(BIAWGNC, 0.8), 0)


def test_kernel_integral_matches_t2p_all_p():
    bsc, awgn = ChannelModel(BSC, 0.35), ChannelModel(BIAWGNC, 0.9)
    for p in range(1, 6):
        def f(l, p=p):
            return np.tanh(l) ** (2 * p)
        assert bsc_kernel_integral(bsc.eps, f) == pytest.approx(t2p(bsc, p), rel=1e-12, abs=0)
        assert gexit_kernel_integral(awgn, f) == pytest.approx(t2p(awgn, p), rel=1e-4, abs=1e-6)


def test_kernel_batch_matches_scalar():
    Ms = np.array([-0.9, -0.3, 0.0, 0.4, 0.99])
    for ch in (ChannelModel(BSC, 0.3), ChannelModel(BIAWGNC, 0.8)):
        integral = gexit_kernel_integral if ch.kind == BIAWGNC else \
            lambda ch, f: bsc_kernel_integral(ch.eps, f)
        batch = gexit_kernel_batch(ch, Ms)
        scalar = [integral(ch, lambda l, M=M: np.log((1 + M * np.tanh(l)) / (1 + np.tanh(l))))
                  for M in Ms]
        assert np.allclose(batch, scalar, atol=1e-9)


def test_bsc_kernel_pinned_to_mpmath():
    """The BSC kernel against 50-digit mpmath derivatives of the atom sum
    (1 - e) ln[(1 + M t)/(2 - 2e)] + e ln[(1 - M t)/(2e)], t = 1 - 2e, at
    e = eps (computed once, offline; mpmath is not a dependency).  The
    kernel is O((1 - M)^2) as M -> 1: at M = 0.999 it is 1e-6 to 3e-4 of
    its M = 0 value, and 0 at M = 1."""
    Ms = (-1.0, -0.9, 0.0, 0.5, 0.999)
    pinned = {
        0.01: (108.18013869016816, 22.456656167763494, 4.59511985013459, 2.878177489849369,
               0.0011732597143467906),
        0.1: (13.283338043561328, 9.693577666898056, 2.197224577336219, 0.8737362407585395,
              1.228740633665185e-05),
        0.3: (3.5993576255363124, 3.172760839234172, 0.8472978603872037, 0.23349941894570592,
              1.1332114188128185e-06),
        0.49: (0.1600426820325205, 0.14443139215238704, 0.0400053346136992,
               0.010003667807019645, 4.003197650839522e-08),
    }
    for eps, values in pinned.items():
        got = gexit_kernel_batch(ChannelModel(BSC, eps), np.array(Ms))
        for M, g, want in zip(Ms, got, values):
            assert g == pytest.approx(want, rel=1e-13, abs=0), (eps, M)
        assert gexit_kernel_batch(ChannelModel(BSC, eps), np.array([1.0]))[0] == 0.0


def test_bsc_kernel_finite_at_tiny_eps():
    """At eps 1e-9 and 1e-10, x = t u / (1 - M t^2) rounds to 1 for M at
    and near -1, where arctanh would give inf or NaN; the kernel takes
    2 atanh x from logarithms there and matches 50-digit mpmath
    derivatives of the atom sum (computed once, offline) with no warning.
    The log form also covers M = -0.5, where 1 - x = 2 eps (1 + M t) / a
    is below 1e-6, so x's rounding (3.7e-9 and 3.2e-9 relative through
    arctanh) does not reach the value."""
    Ms = (-1.0, -1.0 + 1e-9, -0.5)
    pinned = {
        1e-9: (1000000040.4465317, 666666713.103718, 23.821878115281187),
        1e-10: (10000000045.0517, 1666666748.6515148, 26.124463217575233),
    }
    for eps, values in pinned.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gexit_kernel_batch(ChannelModel(BSC, eps), np.array(Ms))
        for M, g, want, rel in zip(Ms, got, values, (1e-13, 1e-13, 1e-13)):
            assert g == pytest.approx(want, rel=rel, abs=0), (eps, M)


def test_bsc_t2p_sup_equals_the_full_search():
    """The BSC t2p_sup, a maximum over four terms around the peak
    p* = -1/(2 ln(1 - 2 eps)), equals the maximum over all T2P_SUP_TERMS
    terms bit for bit: on 2,000 eps spread evenly over (1e-6, 0.5) and
    2,000 spread geometrically from 1e-12 to 0.4999999, among them eps
    below 1.25e-3, where p* passes T2P_SUP_TERMS and the search ends on
    its last term."""
    grid = np.concatenate([np.linspace(1e-6, 0.5, 2002)[1:-1],
                           np.geomspace(1e-12, 0.4999999, 2000)])
    assert np.count_nonzero(-0.5 / np.log1p(-2.0 * grid) > channels.T2P_SUP_TERMS) > 500
    for eps in grid:
        ch = ChannelModel(BSC, float(eps))
        full = max(abs(t2p(ch, p)) for p in range(1, channels.T2P_SUP_TERMS + 1))
        assert t2p_sup(ch) == full, eps


def test_bsc_kernel_is_position_free():
    """The BSC kernel is elementwise: one call on a (40, 3, 9) stack gives
    every entry the bits a call on that entry alone gives."""
    Ms = np.random.default_rng(6).uniform(-1, 1, (40, 3, 9))
    for eps in (0.03, 0.2, 0.4):
        ch = ChannelModel(BSC, eps)
        alone = np.array([gexit_kernel_batch(ch, M) for M in Ms.ravel()]).reshape(Ms.shape)
        assert gexit_kernel_batch(ch, Ms).tobytes() == alone.tobytes()


def test_block_draws_reproduce_per_draw_streams():
    for ch in (ChannelModel(BSC, 0.3), ChannelModel(BIAWGNC, 0.8)):
        block = sample_llr(ch, (6, 5), np.random.default_rng(4))
        rng = np.random.default_rng(4)
        rows = [sample_llr(ch, 5, rng) for _ in range(6)]
        assert block.shape == (6, 5) and np.array_equal(block, rows)
    with pytest.raises(ValueError):
        sample_llr(ChannelModel(BSC, 0.3), (0, 5), 1)


def test_kernel_batch_any_shape():
    Ms = np.random.default_rng(5).uniform(-1, 1, (40, 7))
    for ch in (ChannelModel(BSC, 0.3), ChannelModel(BIAWGNC, 0.8)):
        batch = gexit_kernel_batch(ch, Ms)
        assert batch.shape == Ms.shape
        assert np.allclose(batch.ravel(), gexit_kernel_batch(ch, Ms.ravel()),
                           rtol=0, atol=1e-15)
    # the cached unit grid scales to the same nodes as a fresh one
    ch = ChannelModel(BIAWGNC, 0.8)
    x, w = np.polynomial.legendre.leggauss(481)
    half = 12.0 * math.sqrt(1 / 0.8)
    nodes, weights = ch.gl_grid()
    assert np.allclose(nodes, 1 / 0.8 + half * x, rtol=0, atol=1e-13)
    assert np.allclose(weights, half * w, rtol=0, atol=1e-15)


def _kernel(M):
    """ln[(1 + M tanh l)/(1 + tanh l)] in its cancellation-free form."""
    return lambda l: np.log1p(0.5 * (1.0 - M) * np.expm1(-2.0 * l))


def _gl_integrals():
    """(name, value, scale) of every Gauss-Legendre-backed integral at the
    extreme noise levels; scale is the integral of |integrand|."""
    out = []
    Ms = np.array([-0.9, 0.0, 0.99])
    for eps in EXTREME_EPS:
        ch = ChannelModel(BIAWGNC, eps)
        for name, f in (("E tanh^2", lambda l: np.tanh(l) ** 2),
                        ("E tanh^10", lambda l: np.tanh(l) ** 10),
                        ("E e^{|l|/4}", lambda l: np.exp(0.25 * np.abs(l)))):
            value = ch.expectation(f)
            out.append((f"{name} at {eps}", value, value))
        value = exp_abs_moment(ch, 0.25)
        out.append((f"exp_abs_moment at {eps}", value, value))
        value = t2p_sup(ch)
        out.append((f"t2p_sup at {eps}", value, value))
        for p in (1, 5):
            out.append((f"t2p({p}) at {eps}", t2p(ch, p), value))
        for s in (0.1, 0.25, 0.4, 0.499):
            value = sinh_neg_moment(ch, s)
            out.append((f"sinh_neg_moment({s}) at {eps}", value, value))
        batch = gexit_kernel_batch(ch, Ms)
        for M, b in zip(Ms, batch):
            f = _kernel(M)
            scale = channels._gl_integral(lambda l: np.abs(ch.density_deps(l) * f(l)),
                                          *ch._window(), (0.0,))
            out.append((f"kernel integral M={M} at {eps}", gexit_kernel_integral(ch, f), scale))
            out.append((f"kernel batch M={M} at {eps}", b, scale))
    return out


def test_gauss_legendre_integrals_converged(monkeypatch):
    """Each Gauss-Legendre-backed BIAWGNC integral equals the same rule
    with twice the nodes per panel, to 1e-12 of the integral of
    |integrand|, from eps 0.001 to 100.  (Near eps 0.001 the kernel
    cancels to about 1e-12 of that, so a relative bound says nothing
    there.)"""
    base = _gl_integrals()
    doubled = np.polynomial.legendre.leggauss(2 * channels._GL_NODES)
    monkeypatch.setattr(channels, "_unit_gauss_legendre", lambda: doubled)
    for (name, value, scale), (_, fine, _) in zip(base, _gl_integrals()):
        assert math.isfinite(value) and scale > 0, name
        assert abs(value - fine) <= 1e-12 * scale, (name, value, fine, scale)


def test_tabulated_rule_is_leggauss():
    """The tabulated rule is exactly antisymmetric in its nodes and
    symmetric in its weights, with a +0.0 middle node, its weights sum to
    2, and it is numpy's leggauss(481) to within a few ulp (the eigen-solve's
    last bits vary with the LAPACK build; the table, not leggauss, is the
    reference)."""
    x, w = channels._unit_gauss_legendre()
    assert len(x) == len(w) == channels._GL_NODES
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert x[channels._GL_NODES // 2] == 0.0 and not np.signbit(x[channels._GL_NODES // 2])
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.sum(w) == pytest.approx(2.0, rel=1e-15)
    assert not (x.flags.writeable or w.flags.writeable)
    want_x, want_w = np.polynomial.legendre.leggauss(channels._GL_NODES)
    assert np.all(np.abs(x - want_x) <= 4 * np.spacing(1.0))
    assert np.all(np.abs(w - want_w) <= 4 * np.spacing(want_w))


def test_rule_needs_no_eigen_solve(monkeypatch):
    """No runtime path computes the rule: with leggauss and eigvalsh made
    to raise and the cached rule dropped, the BIAWGNC kernel and t2p still
    give their values."""
    ch = ChannelModel(BIAWGNC, 0.8)
    Ms = np.array([-0.5, 0.0, 0.9])
    want = gexit_kernel_batch(ch, Ms), t2p(ch, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the Gauss-Legendre rule was computed at run time")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    channels._unit_gauss_legendre.cache_clear()
    try:
        assert gexit_kernel_batch(ch, Ms).tobytes() == want[0].tobytes()
        assert t2p(ch, 3) == want[1]
    finally:
        channels._unit_gauss_legendre.cache_clear()


def test_sinh_neg_moment_pinned_to_mpmath():
    """E|sinh 2l|^{-2s} on the BIAWGNC against 40-digit mpmath values
    (computed once, offline; mpmath is not a dependency), and the BSC
    atom value.  At s = 1/4 the integrand peaks at its singularity,
    l = 0."""
    for eps, s, want in ((0.01, 0.1, 1.454730612724356e-14),
                         (0.01, 0.25, 1.486863242792098e-22),
                         (0.1, 0.25, 0.006109811990263433)):
        got = sinh_neg_moment(ChannelModel(BIAWGNC, eps), s)
        assert got == pytest.approx(want, rel=1e-12, abs=0), (eps, s)
    ch = ChannelModel(BSC, 0.1)
    vals, _ = ch.bsc_atoms()
    assert sinh_neg_moment(ch, 0.3) == pytest.approx(abs(math.sinh(2 * vals[0])) ** -0.6,
                                                     rel=1e-14)
    assert sinh_neg_moment(ChannelModel(BIAWGNC, 0.7), 0.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        sinh_neg_moment(ch, 0.5)


def test_t2p_sup_matches_quad_split_at_the_kinks():
    """The integral of |dc/deps| against scipy's adaptive quadrature (a
    test-only oracle) told about the two zeros of dc/deps."""
    from scipy.integrate import quad

    for eps in EXTREME_EPS:
        ch = ChannelModel(BIAWGNC, eps)
        lo, hi = ch._window()
        root = math.sqrt(1.0 / eps ** 2 + 1.0 / eps)
        kinks = [k for k in (-root, root) if lo < k < hi]
        want, _ = quad(lambda l: abs(ch.density_deps(l)), lo, hi, points=kinks,
                       limit=200, epsabs=0.0, epsrel=1e-13)
        assert t2p_sup(ch) == pytest.approx(want, rel=1e-12), eps


def test_kernel_batch_finite_where_tanh_saturates():
    """At BIAWGNC eps 0.01 to 0.25 the window reaches below l = -19.06,
    where tanh l rounds to -1; the kernel stays finite for M in (-1, 1]
    and agrees with the pointwise integral."""
    Ms = np.array([-0.999, -0.5, 0.0, 0.5, 1.0])
    for eps in (0.01, 0.1, 0.25):
        ch = ChannelModel(BIAWGNC, eps)
        assert ch._window()[0] < -19.1
        batch = gexit_kernel_batch(ch, Ms)
        assert np.all(np.isfinite(batch))
        scalar = [gexit_kernel_integral(ch, _kernel(M)) for M in Ms]
        assert np.allclose(batch, scalar, rtol=0, atol=1e-12)


def test_library_imports_no_scipy():
    """numpy is the only runtime dependency: importing the package and
    its CLI loads no scipy module; nor does it load the tabulated
    quadrature rule, which the first BIAWGNC integral imports."""
    code = ("import sys, gibbscode, gibbscode.cli; "
            "print([m for m in sys.modules "
            "if m.startswith('scipy') or m == 'gibbscode._gauss_legendre'])")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
