import math

import numpy as np
import pytest

from gibbscode.channels import (BIAWGNC, BSC, ChannelModel, LLRVector,
                                default_H, delta_dual, delta_high,
                                exp_abs_moment, exp_neg_moment,
                                gexit_kernel_batch, gexit_kernel_integral,
                                sample_llr, t2p)


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
    v = sample_llr(ch, 2000, 1).values
    a = 0.5 * math.log(3.0)
    assert set(np.round(np.abs(v), 12)) == {round(a, 12)}
    # probability of the negative atom ~ eps
    assert abs(np.mean(v < 0) - 0.25) < 0.03
    # determinism
    assert np.array_equal(v, sample_llr(ch, 2000, 1).values)


def test_awgn_llr_moments():
    ch = ChannelModel(BIAWGNC, 0.5)
    v = sample_llr(ch, 200000, 2).values
    assert abs(np.mean(v) - 2.0) < 0.02   # mean 1/eps
    assert abs(np.var(v) - 2.0) < 0.05    # variance 1/eps


def test_llr_vector_finite():
    with pytest.raises(ValueError):
        LLRVector(np.array([1.0, math.inf]))


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
    v = sample_llr(ch, n, 3).values
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
    v = np.abs(sample_llr(ch, 10 ** 5, 5).values)
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


def test_kernel_integral_examples():
    for ch in (ChannelModel(BSC, 0.25), ChannelModel(BIAWGNC, 0.6)):
        assert abs(gexit_kernel_integral(ch, lambda l: 1.0)) < 1e-8
    ch = ChannelModel(BSC, 0.25)
    assert gexit_kernel_integral(ch, lambda l: np.tanh(l) ** 2) == \
        pytest.approx(t2p(ch, 1), abs=1e-7)
    assert gexit_kernel_integral(ch, lambda l: np.tanh(l) ** 4) == \
        pytest.approx(t2p(ch, 2), abs=1e-7)


def test_kernel_integral_matches_t2p_all_p():
    for ch in (ChannelModel(BSC, 0.35), ChannelModel(BIAWGNC, 0.9)):
        for p in range(1, 6):
            ki = gexit_kernel_integral(ch, lambda l, p=p: np.tanh(l) ** (2 * p))
            assert ki == pytest.approx(t2p(ch, p), rel=1e-4, abs=1e-6)


def test_kernel_batch_matches_scalar():
    Ms = np.array([-0.9, -0.3, 0.0, 0.4, 0.99])
    for ch in (ChannelModel(BSC, 0.3), ChannelModel(BIAWGNC, 0.8)):
        batch = gexit_kernel_batch(ch, Ms)
        scalar = [gexit_kernel_integral(
            ch, lambda l, M=M: np.log((1 + M * np.tanh(l)) / (1 + np.tanh(l))))
            for M in Ms]
        assert np.allclose(batch, scalar, atol=1e-9)


def test_block_draws_reproduce_per_draw_streams():
    for ch in (ChannelModel(BSC, 0.3), ChannelModel(BIAWGNC, 0.8)):
        block = sample_llr(ch, (6, 5), np.random.default_rng(4)).values
        rng = np.random.default_rng(4)
        rows = [sample_llr(ch, 5, rng).values for _ in range(6)]
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
