"""GEXIT curve estimation: the eps-derivative of the conditional entropy
per bit, expressed as a functional of the extrinsic soft-bit estimate.

For one code bit i with extrinsic estimate M = <x_i>_0, the per-bit
kernel is

    G(M) = integral over l of (dc/deps)(l) ln[(1 + M tanh l)/(1 + tanh l)]

The MAP-GEXIT estimate Monte-Carlos G over noise (and codes, for an
ensemble), averaging the kernel over the instance's code bits.  LDGM
carries the prefactor Lambda'(1)/P'(1) = n/m, matching the derivative of
the entropy per INFORMATION bit (the entropy_fd oracle applies the same
normalization, so the two methods estimate the same number); LDPC has no
prefactor and uses the per-code-bit entropy.

Routes provided, all cross-checkable on the same corpus:

  * map_gexit          the kernel functional with exact extrinsics
  * map_gexit_series   the Nishimori moment series
                       prefactor * sum_p t2p/(2p(2p-1)) (E[M^{2p}] - 1)
                       with an explicit truncation-tail bound
  * awgn_gexit         BIAWGNC magnetization shortcut
                       prefactor * (1 - E<x_i>) / (2 eps^2)
  * entropy_fd         central finite difference of the sampled
                       conditional entropy (the definitional oracle)
  * bp_gexit           the kernel functional with BP extrinsics

The first four read exact posteriors and are views of map_gexit_routes,
which serves any subset of them from one pass over the samples.  Every
route, nishimori_residual included, walks the samples through
_per_sample, which draws the graphs and the channel noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels
from .bp import bp_all_extrinsics
# sample_llr is not called here, but gcbench/layers.py wraps gexit.sample_llr
# by name, so the name stays bound
from .channels import (BIAWGNC, block_slices, channel_noise, gexit_kernel_batch,
                       llrs_from_noise, sample_llr, t2p, t2p_sup)
from .exact import (PosteriorBatch, all_extrinsics, all_marginals, conditional_entropy,
                    make_instance)
from .graphs import LDGM, TannerGraph, sample_ensemble


@dataclass(frozen=True)
class EnsembleSpec:
    """A code ensemble as a GEXIT source: degree distribution + block
    length (code bits) + family."""

    dd: object
    n: int
    kind: str


@dataclass(frozen=True)
class GexitEstimate:
    value: float
    std_error: float
    method: str
    meta: dict = field(default_factory=dict)


def _prefactor(source):
    if isinstance(source, TannerGraph):
        return source.n_chk / source.n_var if source.kind == LDGM else 1.0
    return source.dd.lambda_prime / source.dd.p_prime if source.kind == LDGM else 1.0


def _blocks(source, ch, samples, seed, noise_per_graph=1):
    """Yield (starts, graph indices, graphs, noise) groups covering every
    sample once, reading default_rng(seed): a fixed graph carries all
    samples; an ensemble source draws a fresh code for each
    noise_per_graph samples (reuse amortizes table construction;
    variances are then computed over per-graph blocks).  Each graph's
    channel noise is drawn as (S, n) chunks of at most BLOCK_ELEMENTS
    entries; a fixed graph's chunks are groups of one.  Consecutive
    ensemble chunks are collected while their costs sum to at most
    BLOCK_ELEMENTS floats, a chunk on an (R, n) table costing
    max(R n, S max(R, n)), and each such window is yielded as one
    (G, S, n) group per shape (R, n, S), graphs in draw order; the
    posterior pass then runs a group as one row chunk and one sample
    block, each graph as a call on it alone would.  A window's groups
    interleave in sample order, so starts (G,) holds the sample index of
    each graph's first draw.  Graph seeds and noise are read in the order
    of one sample at a time."""
    rng = np.random.default_rng(seed)
    fixed = isinstance(source, TannerGraph)
    per_graph = samples if fixed else noise_per_graph
    groups, used = {}, 0
    for index, start in enumerate(range(0, samples, per_graph)):
        g = source if fixed else sample_ensemble(source.dd, source.n, source.kind,
                                                 int(rng.integers(2 ** 63)))
        n, count = g.code_bit_count, range(start, min(start + per_graph, samples))
        for chunk in block_slices(len(count), n):
            S = len(count[chunk])
            if fixed:
                key, cost = None, math.inf
            else:
                R = 1 << g.free_spin_count
                key, cost = (R, n, S), max(R * n, S * max(R, n))
            if groups and used + cost > channels.BLOCK_ELEMENTS:
                yield from map(_stack, groups.values())
                groups, used = {}, 0
            groups.setdefault(key, []).append(
                (count[chunk].start, index, g, channel_noise(ch, (S, n), rng)))
            used += cost
    yield from map(_stack, groups.values())


def _stack(group):
    starts, indices, graphs, noise = zip(*group)
    stacked = noise[0][None] if len(noise) == 1 else np.stack(noise)  # one graph: no copy
    return np.array(starts), np.array(indices), graphs, stacked


def _per_sample(source, ch, samples, seed, reduce, noise_per_graph=1):
    """reduce(graphs, noise) over the groups of _blocks, each returning one
    value (or one row of values) per graph and sample, shape (G, S, ...);
    returns the values in sample order and each sample's graph index."""
    vals = blocks = None
    for starts, indices, graphs, noise in _blocks(source, ch, samples, seed, noise_per_graph):
        out = reduce(graphs, noise)
        if vals is None:
            vals, blocks = np.empty((samples,) + out.shape[2:]), np.empty(samples, np.intp)
        positions = starts[:, None] + np.arange(out.shape[1])
        vals[positions] = out
        blocks[positions] = indices[:, None]
    return vals, blocks


def _floods(graphs, llrs, flood):
    """flood(instance) for each graph of a group, whose output holds one
    entry per LLR row: BP runs one graph at a time, and each distinct row
    of a graph's (S, n) block once.  A flood is a pure map of each row (no
    two samples share a bincount group, and each leaves at its own fixed
    point), so the distinct rows' outputs, gathered back, are bit for bit
    those of the whole block.  Rows are told apart by their bytes, so
    -0.0 and 0.0 stay distinct; a dict of the bytes does that without
    np.unique on a void view of the rows, which raised the peak RSS of a
    corpus GEXIT pass by 0.15 MiB."""
    out = []
    for g, l in zip(graphs, llrs):
        first = inverse = slice(None)
        if len(l) > 1:
            keys = [row.tobytes() for row in l]
            firsts = {}  # each distinct row's bytes -> the index of its first row
            for i, key in enumerate(keys):
                firsts.setdefault(key, i)
            slot = {key: j for j, key in enumerate(firsts)}
            first, inverse = list(firsts.values()), [slot[key] for key in keys]
        out.append(flood(make_instance(g, l[first]))[inverse])
    return out


def _estimate(values, prefactor, method, meta, blocks=None):
    """Mean and standard error of prefactor * values; when blocks groups
    the samples (shared codes), the SE comes from per-block means."""
    values = np.asarray(values, float)
    if blocks is not None and len(set(blocks)) > 1 and \
            len(set(blocks)) < len(values):
        blocks = np.asarray(blocks)
        means = [values[blocks == b].mean() for b in np.unique(blocks)]
        se = prefactor * float(np.std(means, ddof=1) / math.sqrt(len(means)))
    else:
        se = prefactor * float(values.std(ddof=1) / math.sqrt(len(values)))
    return GexitEstimate(prefactor * float(values.mean()), se, method, meta)


def _meta(source, ch, samples, seed, **extra):
    meta = {"channel": ch.spec(), "samples": samples, "seed": seed}
    if isinstance(source, TannerGraph):
        meta["n"] = source.code_bit_count
        meta["family"] = source.kind
    else:
        meta["n"] = source.n
        meta["family"] = source.kind
    meta.update(extra)
    return meta


def moment_series(Ms, coeffs):
    """sum_p coeffs[p - 1] (M^{2p} - 1) over p = 1..len(coeffs), elementwise
    in M, summed in p order; M^{2p} is a running power, multiplied by M^2
    once per term."""
    square = Ms * Ms
    power, out = np.ones_like(square), np.zeros_like(square)
    for c in coeffs:
        power *= square
        out += c * (power - 1.0)
    return out


def series_coefficients(ch, p_max):
    """The Nishimori series coefficients t2p(ch, p) / (2p(2p-1)) for
    p = 1..p_max, as an array."""
    return np.array([t2p(ch, p) / (2 * p * (2 * p - 1)) for p in range(1, p_max + 1)])


#: the routes that reduce exact posteriors, served by one map_gexit_routes pass
MAP_METHODS = ("functional", "series", "awgn-magnetization", "entropy-fd")


def map_gexit_routes(source, ch, samples, seed, methods, p_max=20, noise_per_graph=1,
                     eps_step=1e-3):
    """{method: GexitEstimate} for each route in methods (a subset of
    MAP_METHODS) from one pass: each group's channel noise is mapped to
    LLRs at eps (and at eps +- eps_step for entropy-fd), and each exact
    reduction (extrinsics, marginals, the two entropies) runs once for
    every route that reads it, so the routes read the same graphs and
    noise as separate calls with this seed would."""
    methods = [m for m in MAP_METHODS if m in methods]
    if "awgn-magnetization" in methods and ch.kind != BIAWGNC:
        raise ValueError("magnetization shortcut needs the BIAWGNC")
    if "entropy-fd" in methods and not (0.0 < ch.eps - eps_step
                                        and ch.eps + eps_step < ch.eps_max):
        raise ValueError("eps +- eps_step must stay inside (0, eps_max)")
    meta = {m: _meta(source, ch, samples, seed) for m in methods}
    if "series" in methods:
        coeffs = series_coefficients(ch, p_max)
        tail = t2p_sup(ch) * (math.log(2.0) -
                              sum(1.0 / (2 * p * (2 * p - 1)) for p in range(1, p_max + 1)))
        meta["series"].update(p_max=p_max, tail_bound=tail)
    if "entropy-fd" in methods:
        meta["entropy-fd"]["eps_step"] = eps_step
        sides = [type(ch)(ch.kind, ch.eps + eps_step), type(ch)(ch.kind, ch.eps - eps_step)]

    def reduce(graphs, noise):
        out = {}
        if "entropy-fd" in methods:  # first: the LLRs at eps overwrite the noise
            scale = np.array([[g.n_chk / g.n_var if g.kind == LDGM else 1.0] for g in graphs])
            h = [conditional_entropy(PosteriorBatch(graphs, llrs_from_noise(c, noise)))
                 for c in sides]
            out["entropy-fd"] = scale * (h[0] - h[1]) / (2.0 * eps_step)
        if methods != ["entropy-fd"]:
            batch = PosteriorBatch(graphs, llrs_from_noise(ch, noise, out=noise))
        if "functional" in methods or "series" in methods:
            Ms = all_extrinsics(batch)
            if "functional" in methods:
                out["functional"] = gexit_kernel_batch(ch, Ms).mean(axis=-1)
            if "series" in methods:
                out["series"] = moment_series(Ms, coeffs).mean(axis=-1)
        if "awgn-magnetization" in methods:
            out["awgn-magnetization"] = (1.0 - all_marginals(batch).mean(axis=-1)) \
                / (2.0 * ch.eps ** 2)
        return np.stack([out[m] for m in methods], axis=-1)

    vals, blocks = _per_sample(source, ch, samples, seed, reduce, noise_per_graph)
    pref = _prefactor(source)  # entropy-fd scales each graph by its own n/m above
    return {m: _estimate(vals[:, k], 1.0 if m == "entropy-fd" else pref, m, meta[m], blocks)
            for k, m in enumerate(methods)}


def map_gexit(source, ch, samples, seed, noise_per_graph=1):
    """MAP-GEXIT by the extrinsic kernel functional; each sample averages
    the kernel over all code bits of the instance."""
    return map_gexit_routes(source, ch, samples, seed, ("functional",),
                            noise_per_graph=noise_per_graph)["functional"]


def map_gexit_series(source, ch, samples, seed, p_max=20, noise_per_graph=1):
    """MAP-GEXIT by the moment series, truncated at p_max; the meta dict
    carries a rigorous truncation-tail bound (sup_p |t2p| times the tail
    of sum 1/(2p(2p-1)), since |E[M^{2p}] - 1| <= 1)."""
    return map_gexit_routes(source, ch, samples, seed, ("series",), p_max,
                            noise_per_graph)["series"]


def awgn_gexit(source, ch, samples, seed, noise_per_graph=1):
    """Magnetization form for the BIAWGNC:
    prefactor * (1 - E[<x_i>]) / (2 eps^2), with <x_i> the full marginal
    (equivalently tanh(l_i + atanh <x_i>_0))."""
    return map_gexit_routes(source, ch, samples, seed, ("awgn-magnetization",),
                            noise_per_graph=noise_per_graph)["awgn-magnetization"]


def entropy_fd(source, ch, eps_step, samples, seed):
    """The definitional oracle: central finite difference in eps of the
    sampled conditional entropy, with common random numbers coupling the
    two sides (shared uniforms for the BSC, shared normals for the
    BIAWGNC).  LDGM rescales to the per-information-bit entropy (times
    n/m) so the estimate matches the functional's normalization."""
    return map_gexit_routes(source, ch, samples, seed, ("entropy-fd",),
                            eps_step=eps_step)["entropy-fd"]


def series_zero_moment_value(source_kind_prefactor, ch, p_max=20):
    """The series value when every extrinsic moment vanishes:
    -prefactor * sum_p t2p/(2p(2p-1)); for the BSC this closes to
    prefactor * ln((1-eps)/eps) = 2 prefactor atanh(1-2 eps)."""
    return -source_kind_prefactor * float(sum(series_coefficients(ch, p_max)))


def bp_gexit(source, ch, d, samples, seed, noise_per_graph=1):
    """BP-GEXIT: the same kernel with the depth-d BP extrinsics."""
    vals, blocks = _per_sample(
        source, ch, samples, seed,
        lambda graphs, noise: gexit_kernel_batch(ch, np.stack(_floods(
            graphs, llrs_from_noise(ch, noise, out=noise),
            lambda inst: bp_all_extrinsics(inst, d)))).mean(axis=-1),
        noise_per_graph)
    return _estimate(vals, _prefactor(source), "bp",
                     _meta(source, ch, samples, seed, d=d), blocks)


def bp_gexit_multi_depth(source, ch, depths, samples, seed):
    """BP-GEXIT at several depths with common noise per sample; returns
    {d: GexitEstimate} plus pairwise-difference standard errors in meta.
    Shared randomness makes the depth differences far more precise than
    the individual values."""
    from .bp import bp_checkpoint_extrinsics

    depths = sorted(set(depths))

    def reduce(graphs, noise):
        exts = _floods(graphs, llrs_from_noise(ch, noise, out=noise),
                       lambda inst: np.stack(  # (S, depths, n) each
                           list(bp_checkpoint_extrinsics(inst, depths).values()), axis=1))
        return np.stack([gexit_kernel_batch(ch, np.stack([e[:, k] for e in exts])).mean(axis=-1)
                         for k in range(len(depths))], axis=-1)

    vals, _ = _per_sample(source, ch, samples, seed, reduce)
    pref = _prefactor(source)
    kernels = {d: vals[:, k] for k, d in enumerate(depths)}
    out = {}
    for d in depths:
        out[d] = _estimate(kernels[d], pref, "bp",
                           _meta(source, ch, samples, seed, d=d))
    diffs = {}
    for a in depths:
        for b in depths:
            if a < b:
                delta = pref * (kernels[b] - kernels[a])
                diffs[(a, b)] = (float(np.mean(delta)),
                                 float(np.std(delta, ddof=1) / math.sqrt(len(delta))))
    return out, diffs


def nishimori_residual(source, ch, p, samples, seed):
    """(residual, se): |E<x_i>^{2p-1} - E<x_i>^{2p}| with the standard
    error of the paired per-sample difference (averaged over code bits);
    zero in expectation on symmetric channels at the channel's own
    parameter."""
    if p < 1:
        raise ValueError("p must be >= 1")

    def reduce(graphs, noise):
        m = all_marginals(PosteriorBatch(graphs, llrs_from_noise(ch, noise, out=noise)))
        return (m ** (2 * p - 1) - m ** (2 * p)).mean(axis=-1)

    diffs, _ = _per_sample(source, ch, samples, seed, reduce)
    return (abs(float(diffs.mean())),
            float(diffs.std(ddof=1) / math.sqrt(len(diffs))))
