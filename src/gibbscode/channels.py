"""Binary-input memoryless symmetric channels (BSC, BIAWGNC) in the
half-loglikelihood domain.

All-one codeword convention throughout: the channel is summarized by the
density c(l) of the half-loglikelihood l = (1/2) ln[p(y|+1)/p(y|-1)] given
that +1 was sent.  Channel symmetry means c(-l) = exp(-2l) c(l).

Supported channels:

  * BSC(eps):      l is a two-atom variable, +-(1/2) ln((1-eps)/eps) with
                   probabilities (1-eps, eps); eps in (0, 1/2).
  * BIAWGNC(eps):  y = x + noise with noise variance eps, so l = y/eps is
                   Gaussian with mean 1/eps and variance 1/eps; eps > 0.

Sampling (sample_llr, or channel_noise mapped by llrs_from_noise) gives
plain float arrays of half-LLRs, (n,) for one realization or (S, n) for
a block; exact.PosteriorInstance pairs them with a graph.  Besides
sampling, the module provides the moment functionals used by the
correlation-decay bounds (exp_abs_moment, exp_neg_moment, sinh_neg_moment,
delta_high, delta_dual), the tanh-moment derivatives t2p, and the GEXIT
kernel.  On the BSC the eps-derivatives are closed forms of the two-atom
sum.  Every BIAWGNC integral uses one quadrature: the _GL_NODES-point
Gauss-Legendre rule (tabulated in _gauss_legendre) on the window mean
+- 12 standard deviations of l, composite when split at the integrand's
kinks (l = 0 for |l| terms, the two zeros of dc/deps inside |dc/deps|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

BSC = "bsc"
BIAWGNC = "biawgnc"

#: saturation bound shared with the BP decoder and density evolution (nats)
L_SAT = 30.0

#: half width of the BIAWGNC quadrature window, in standard deviations of l
_QUAD_SIGMAS = 12.0

#: Gauss-Legendre nodes per panel of every BIAWGNC integral
_GL_NODES = 481

#: series terms t2p searched for the BSC's sup_p |t2p| (t2p_sup)
T2P_SUP_TERMS = 200

#: float entries one block of noise samples may hold in a batched layer
#: (samples times the per-sample width: table rows, message edges or
#: quadrature nodes); bounds the temporaries whatever the sample count
BLOCK_ELEMENTS = 1 << 13


def block_slices(samples, width):
    """Consecutive slices of a sample axis, each holding at most
    BLOCK_ELEMENTS entries of the given per-sample width (and at least one
    sample)."""
    step = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(s, s + step) for s in range(0, samples, step)]


@cache
def _unit_gauss_legendre():
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only by
    every channel: the tabulated non-negative half, imported on first use,
    mirrored as numpy's leggauss mirrors its rule (x[i] = -x[-1 - i],
    w[i] = w[-1 - i], +0.0 in the middle), so the rule is bit for bit
    leggauss(_GL_NODES) without its eigen-solve."""
    from ._gauss_legendre import NODES, WEIGHTS

    half_x, half_w = np.array(NODES), np.array(WEIGHTS)
    x = np.concatenate((-half_x[:0:-1], half_x))
    w = np.concatenate((half_w[:0:-1], half_w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_integrals(g, lo, hi, breaks=()):
    """Integrals over [lo, hi] of the integrands a vectorized g yields,
    by the composite Gauss-Legendre rule: the unit rule on each panel
    between consecutive breakpoints that fall strictly inside (lo, hi),
    each panel's sum (a dot product of its own) scaled by its half width."""
    x, w = _unit_gauss_legendre()
    ends = [lo, *sorted(b for b in breaks if lo < b < hi), hi]
    panels = [[0.5 * (b - a) * (w @ y) for y in g(0.5 * (b - a) * x + 0.5 * (b + a))]
              for a, b in zip(ends, ends[1:])]
    return [float(sum(sums)) for sums in zip(*panels)]


def _gl_integral(g, lo, hi, breaks=()):
    """The integral of one vectorized g over [lo, hi] (_gl_integrals)."""
    return _gl_integrals(lambda l: [g(l)], lo, hi, breaks)[0]


@dataclass(frozen=True)
class ChannelModel:
    """A BMS channel with noise parameter eps.

    kind is "bsc" or "biawgnc".  eps_max is 1/2 for the BSC and +inf for
    the BIAWGNC; eps must lie strictly inside (0, eps_max).
    """

    kind: str
    eps: float

    def __post_init__(self):
        if self.kind not in (BSC, BIAWGNC):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 < self.eps < self.eps_max:
            raise ValueError(f"eps={self.eps} outside (0, {self.eps_max})")

    @property
    def eps_max(self):
        return 0.5 if self.kind == BSC else math.inf

    @classmethod
    def from_spec(cls, spec):
        """Parse a channel spec string such as 'bsc:0.25' or 'biawgnc:0.5'."""
        kind, _, val = spec.partition(":")
        if not val:
            raise ValueError(f"channel spec {spec!r} must look like 'bsc:0.25'")
        return cls(kind.strip().lower(), float(val))

    def spec(self):
        return f"{self.kind}:{self.eps:g}"

    # ----- BSC atoms / Gaussian parameters -------------------------------

    def bsc_atoms(self):
        """(values, probabilities) of the two-atom BSC half-LLR."""
        if self.kind != BSC:
            raise ValueError("atoms only defined for the BSC")
        e = self.eps
        a = 0.5 * math.log((1.0 - e) / e)
        return np.array([a, -a]), np.array([1.0 - e, e])

    def gauss_params(self):
        """(mean, variance) of the BIAWGNC half-LLR."""
        if self.kind != BIAWGNC:
            raise ValueError("gauss_params only defined for the BIAWGNC")
        return 1.0 / self.eps, 1.0 / self.eps

    def density(self, l):
        """BIAWGNC half-LLR density c(l) (vectorized)."""
        mu, var = self.gauss_params()
        l = np.asarray(l, dtype=float)
        return np.exp(-((l - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    def density_deps(self, l):
        """Analytic d c(l)/d eps for the BIAWGNC.

        With mu = var = 1/eps both shift at rate -1/eps^2, giving
        dc/deps = c(l) * [1/(2 eps) - (l-mu)^2/2 - (l-mu)/eps].
        """
        mu, _ = self.gauss_params()
        l = np.asarray(l, dtype=float)
        dl = l - mu
        return self.density(l) * (0.5 / self.eps - 0.5 * dl * dl - dl / self.eps)

    # ----- expectations ---------------------------------------------------

    def expectation(self, f):
        """E[f(l)] for a vectorized f: exact atom sum for the BSC; for the
        BIAWGNC the Gauss-Legendre rule on mean +- 12 standard deviations,
        split at l = 0 (where terms in |l| kink)."""
        if self.kind == BSC:
            vals, probs = self.bsc_atoms()
            return float(probs[0] * f(vals[0]) + probs[1] * f(vals[1]))
        return _gl_integral(lambda l: self.density(l) * f(l), *self._window(), (0.0,))

    def tail_prob(self, H):
        """P(|l| > H) (strict inequality)."""
        if self.kind == BSC:
            vals, probs = self.bsc_atoms()
            return float(probs[np.abs(vals) > H].sum())
        mu, var = self.gauss_params()
        scale = math.sqrt(2.0 * var)
        # P(l > H) + P(l < -H) for l ~ N(mu, var)
        return 0.5 * math.erfc((H - mu) / scale) + 0.5 * math.erfc((H + mu) / scale)

    def _window(self):
        """(lo, hi): the BIAWGNC quadrature window, mean +- 12 standard
        deviations of l."""
        mu, var = self.gauss_params()
        sd = math.sqrt(var)
        return mu - _QUAD_SIGMAS * sd, mu + _QUAD_SIGMAS * sd

    def gl_grid(self):
        """Gauss-Legendre nodes and weights on the BIAWGNC window, one
        panel; used by the batched kernel integrals."""
        lo, hi = self._window()
        x, w = _unit_gauss_legendre()
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def channel_noise(ch, shape, rng):
    """The raw randomness behind LLR draws of the given shape: uniforms
    (BSC) or standard normals (BIAWGNC).  Drawing an (S, n) block gives
    the same numbers as S successive draws of n."""
    return rng.random(shape) if ch.kind == BSC else rng.standard_normal(shape)


def llrs_from_noise(ch, noise, out=None):
    """Half-LLRs under the all-one codeword from channel_noise draws; the
    same draws under nearby eps give coupled (common random number) LLRs.
    out=noise overwrites the draws instead of allocating."""
    if ch.kind == BSC:
        a = 0.5 * math.log((1.0 - ch.eps) / ch.eps)
        # -a where the uniform fell below eps (a flip), +a elsewhere
        return np.copysign(a, np.subtract(noise, ch.eps, out=out), out=out)
    mu, var = ch.gauss_params()
    out = np.multiply(noise, math.sqrt(var), out=out)
    out += mu
    return out


def sample_llr(ch, n, seed):
    """i.i.d. half-LLR draws under the all-one codeword, an array of shape
    (n,), or (S, n) for a block of S realizations drawn one after another
    when n is that shape.  Deterministic given seed (an int or a numpy
    Generator)."""
    shape = (n,) if isinstance(n, (int, np.integer)) else tuple(n)
    if len(shape) not in (1, 2) or min(shape) < 1:
        raise ValueError("n must be >= 1 (or a shape (S, n) with S, n >= 1)")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    noise = channel_noise(ch, shape, rng)
    return llrs_from_noise(ch, noise, out=noise)


def t2p(ch, p):
    """d/deps of E[(tanh l)^{2p}], the last of t2p_terms(ch, p): on the
    BSC its closed form alone, which t2p_terms evaluates for each p."""
    if ch.kind == BSC and p >= 1:
        return -4.0 * p * (1.0 - 2.0 * ch.eps) ** (2 * p - 1)
    return t2p_terms(ch, p)[-1]


def t2p_terms(ch, p_max):
    """[t2p(ch, p) for p = 1..p_max].

    BSC closed form: E[tanh^{2p} l] = (1-2 eps)^{2p}, so the derivative is
    -4 p (1-2 eps)^{2p-1}.  BIAWGNC: gexit_kernel_integral of
    tanh^{2p} l - 1 (dc/deps integrates to 0), written as
    -sech^2 l sum_{k<p} tanh^{2k} l with sech^2 l = 4 e^{-2|l|} /
    (1 + e^{-2|l|})^2: no term cancels, so the value keeps its relative
    accuracy where it is tiny (small eps), and underflows to 0 below that.
    One set of node evaluations serves every p: the power sums of
    p = 1..p_max are the prefixes of one running sum.
    """
    if p_max < 1:
        raise ValueError("p must be >= 1")
    if ch.kind == BSC:
        return [t2p(ch, p) for p in range(1, p_max + 1)]

    def integrands(l):
        t2, e, dc = np.tanh(l) ** 2, np.exp(-2.0 * np.abs(l)), ch.density_deps(l)
        sech2 = -4.0 * e / (1.0 + e) ** 2
        power, total = np.ones_like(l), np.ones_like(l)
        yield dc * (sech2 * total)
        for _ in range(p_max - 1):
            power *= t2
            total += power
            yield dc * (sech2 * total)

    return _gl_integrals(integrands, *ch._window(), (0.0,))


def t2p_sup(ch):
    """A practical bound on sup_{p>=1} |t2p|: the BSC maximum over
    p <= T2P_SUP_TERMS; for the BIAWGNC |t2p| <= integral of |dc/deps|
    which bounds all p.

    On the BSC |t2p| = 4 p t^{2p-1}, t = 1 - 2 eps, is unimodal in p with
    its peak at p* = -1/(2 ln t), so the maximum is taken over the integers
    floor(p*) - 1 .. floor(p*) + 2 within [1, T2P_SUP_TERMS]: the value of
    the full search, bit for bit, from at most floor(p*) + 2 closed forms."""
    if ch.kind == BSC:
        log_t = math.log(1.0 - 2.0 * ch.eps)
        # p* > T2P_SUP_TERMS: |t2p| still rises at the last searched term
        peak = T2P_SUP_TERMS if log_t > -0.5 / T2P_SUP_TERMS else math.floor(-0.5 / log_t)
        terms = t2p_terms(ch, min(T2P_SUP_TERMS, peak + 2))
        return max(map(abs, terms[max(0, peak - 2):]))
    # |dc/deps| kinks where (l-mu)^2 + 2(l-mu)/eps = 1/eps, that is at
    # l = mu - 1/eps +- sqrt(1/eps^2 + 1/eps) = +-sqrt(1/eps^2 + 1/eps)
    root = math.sqrt(1.0 / ch.eps ** 2 + 1.0 / ch.eps)
    return _gl_integral(lambda l: np.abs(ch.density_deps(l)), *ch._window(), (-root, root))


def exp_abs_moment(ch, m):
    """E[e^{m|l|}].  BSC closed form ((1-eps)/eps)^{m/2}; BIAWGNC by
    expectation."""
    if ch.kind == BSC:
        return ((1.0 - ch.eps) / ch.eps) ** (m / 2.0)
    return ch.expectation(lambda l: np.exp(m * np.abs(l)))


def exp_neg_moment(ch, s):
    """E[e^{-s l}] for s >= 0.

    BSC: eps^{s/2}(1-eps)^{1-s/2} + (1-eps)^{s/2} eps^{1-s/2}.
    BIAWGNC: e^{-s(1-s/2)/eps} (Gaussian moment generating function).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    e = ch.eps
    if ch.kind == BSC:
        return e ** (s / 2.0) * (1.0 - e) ** (1.0 - s / 2.0) + (1.0 - e) ** (s / 2.0) * e ** (1.0 - s / 2.0)
    return math.exp(-s * (1.0 - s / 2.0) / e)


def sinh_neg_moment(ch, s):
    """E[|sinh 2l|^{-2s}] for 0 <= s < 1/2, the noise average in the dual
    cluster bound's prefactor.

    BSC: both atoms give |sinh 2l| = (1-2 eps) / (2 eps (1-eps)).
    BIAWGNC: by channel symmetry c(l) + c(-l) = (1 + e^{-2l}) c(l), so the
    moment is an integral over l > 0, up to the window's top.  The
    substitution l = t^q, q = 1/(1-2s), cancels the |2l|^{-2s}
    singularity at 0: t^{q-1} |sinh 2l|^{-2s} = 2^{-2s} e^{-4sl} r^{-2s}
    with r = (1 - e^{-4l}) / (4l), which is 1 at l = 0 and never
    overflows.  The rule splits at the window's bottom when that is
    above 0.
    """
    if not 0.0 <= s < 0.5:
        raise ValueError("s must lie in [0, 1/2)")
    if ch.kind == BSC:
        e = ch.eps
        return (2.0 * e * (1.0 - e) / (1.0 - 2.0 * e)) ** (2 * s)
    q = 1.0 / (1.0 - 2.0 * s)
    lo, hi = ch._window()

    def g(t):
        l = t ** q
        r = np.divide(-np.expm1(-4.0 * l), 4.0 * l, out=np.ones_like(l), where=l > 0.0)
        return q * 2.0 ** (-2 * s) * (1.0 + np.exp(-2.0 * l)) * ch.density(l) \
            * np.exp(-4.0 * s * l) * r ** (-2.0 * s)

    return _gl_integral(g, 0.0, hi ** (1.0 / q), (lo ** (1.0 / q),) if lo > 0.0 else ())


def default_H(ch):
    """Threshold H(eps) for which delta_high -> 0 in the high-noise limit:
    ln((1-eps)/eps) for the BSC and 2 eps^{-1/4} for the BIAWGNC."""
    if ch.kind == BSC:
        return math.log((1.0 - ch.eps) / ch.eps)
    return 2.0 * ch.eps ** -0.25


def delta_high(ch, H):
    """delta(eps, H) = e^{4H} - 1 + P(|l| > H), the per-check weight of the
    self-avoiding-walk bound."""
    if H <= 0:
        raise ValueError("H must be > 0")
    return math.exp(4.0 * H) - 1.0 + ch.tail_prob(H)


def delta_dual(ch, s):
    """Delta(eps) = 2^{2s} E[e^{-4sl}] + E[e^{-8sl}], the per-variable weight
    of the dual cluster bound; requires 0 < s < 1/2."""
    if not 0.0 < s < 0.5:
        raise ValueError("s must lie in (0, 1/2)")
    return 2.0 ** (2 * s) * exp_neg_moment(ch, 4.0 * s) + exp_neg_moment(ch, 8.0 * s)


def gexit_kernel_integral(ch, f):
    """Integral of (dc(l)/deps) f(l) over l, for a vectorized f, by the
    Gauss-Legendre rule against the analytic BIAWGNC dc/deps, split at
    l = 0.  The BSC needs no integral: gexit_kernel_batch and t2p give
    its kernel and moment derivatives in closed form."""
    if ch.kind == BSC:
        raise ValueError("gexit_kernel_integral integrates against the BIAWGNC dc/deps; "
                         "for the BSC use gexit_kernel_batch or t2p (closed forms)")
    return _gl_integral(lambda l: ch.density_deps(l) * f(l), *ch._window(), (0.0,))


def gexit_kernel_batch(ch, extrinsics):
    """Vectorized GEXIT kernel: for each extrinsic estimate M in [-1, 1]
    (an array of any shape) return integral of
    (dc/deps)(l) ln[(1 + M tanh l)/(1 + tanh l)], with the shape of M.

    BSC: the exact eps-derivative of the two-atom sum
    (1 - eps) ln[(1 + M t)/(2 - 2 eps)] + eps ln[(1 - M t)/(2 eps)],
    t = 1 - 2 eps.  With u = 1 - M and x = t u / (1 - M t^2) it is
    2 atanh(x) - 2 M t u / (1 - M^2 t^2), whose terms cancel to O(u^2)
    as M -> 1, so it is evaluated as
    2 (atanh(x) - x) + 2 t u^2 / ((1 - M t^2)(1 - M t)(1 + M t)), with
    1 - M t^2 = 4 eps (1 - eps) + u t^2 and 1 -+ M t = 2 eps + (1 -+ M) t
    as sums of terms >= 0.  At eps 0.01-0.49 it is within 5e-15 of
    50-digit mpmath for M <= 0.9 and 7e-14 at M = 0.999.  Where
    1 - x = 2 eps (1 + M t) / a is below 1e-6 (M near -1 at eps below
    about 7e-4, and more of [-1, 1) the smaller eps is), atanh(x) comes
    from logarithms of the same cancellation-free sums instead, so x's
    rounding, about 1e-16 / (1 - x) relative, never exceeds about 1e-10
    and the kernel stays finite where x rounds to 1.  It is elementwise:
    an entry's value does not depend on the entries evaluated with it.

    BIAWGNC: agrees with gexit_kernel_integral applied pointwise; the
    rule is one gemv per chunk of M.  A stack of (S, n) blocks, shape
    (G, S, n), is evaluated block by block, so each block gets the values
    a call on that block alone gives: BLAS rounds an entry by where it
    sits in its call, and a graph's values must not depend on the graphs
    stacked with it.
    """
    M = np.asarray(extrinsics, dtype=float)
    if ch.kind == BSC:
        e, t = ch.eps, 1.0 - 2.0 * ch.eps
        u = 1.0 - M
        a = 4.0 * e * (1.0 - e) + u * (t * t)
        x = t * u / a
        # a function, not an array held through the return expression:
        # one more live array there made a 2e5-entry DE call 20% slower
        atanh = np.arctanh
        if np.max(x, initial=0.0) > 1.0 - 2e-6:
            # where 1 - x = 2 eps (1 + M t) / a is below 1e-6 (M near -1,
            # eps below about 7e-4), 2 atanh x is
            # ln[(1 - eps)(1 - M t)] - ln[eps (1 + M t)], with no 1 - x to lose
            def atanh(x):
                near = 2.0 * e * (2.0 * e + (1.0 + M) * t) < 1e-6 * a
                return np.where(near, 0.5 * (np.log((1.0 - e) * (2.0 * e + u * t))
                                             - np.log(e * (2.0 * e + (1.0 + M) * t))),
                                np.arctanh(np.where(near, 0.0, x)))
        denominator = a * (2.0 * e + u * t) * (2.0 * e + (1.0 + M) * t)
        return 2.0 * (atanh(x) - x) + 2.0 * t * u * u / denominator
    blocks = M.reshape(-1, math.prod(M.shape[-2:])) if M.ndim > 2 else M.reshape(1, -1)
    nodes, weights = ch.gl_grid()
    dc = ch.density_deps(nodes) * weights
    # (1 + M tanh l)/(1 + tanh l) = 1 + B (e^{-2l} - 1) with B = (1 - M)/2:
    # finite for M in (-1, 1] where tanh l rounds to -1
    em = np.expm1(-2.0 * nodes)
    out = np.empty(blocks.shape)
    for flat, values in zip(blocks, out):
        for rows in block_slices(len(flat), len(nodes)):
            values[rows] = np.log1p((0.5 - 0.5 * flat[rows])[:, None] * em) @ dc
    return out.reshape(M.shape)
