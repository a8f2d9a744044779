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

The first four read exact posteriors and are one-point views of
map_gexit_routes, which serves any subset of them over a whole eps grid
(a list of (channel, seed) points) with one posterior pass per
reduction and group of draws, not per point.  Every route,
nishimori_residual included, reduces the graphs and channel noise of
_draws walks through _per_sample; a walk samples an ensemble's graphs a
window at a time (graphs.sample_ensembles), in the RNG order of one
sample at a time.  The exact-posterior routes put _batches on the walk
(for a grid, the points' walks one after another), which groups the
draws by table shape, so a fixed code's points stack as one group; the
BP routes (one walk per point, _bp_kernels) read it one graph at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bp, channels
# bp_all_extrinsics, sample_llr and sample_ensemble are not called here, but
# gcbench/layers.py wraps gexit.bp_all_extrinsics, gexit.sample_llr and
# gexit.sample_ensemble by name, so they stay bound
from .bp import bp_all_extrinsics
from .channels import (BIAWGNC, block_slices, channel_noise, gexit_kernel_batch,
                       llrs_from_noise, sample_llr, t2p_sup, t2p_terms)
from .exact import (all_extrinsics, all_marginals, conditional_entropy, make_instance,
                    table_source)
from .graphs import LDGM, TannerGraph, sample_ensemble, sample_ensembles, window_size


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


def _draws(source, ch, samples, seed, noise_per_graph=1):
    """Yield (start, graph index, graph, (S, n) noise) draws covering
    every sample once, reading default_rng(seed) in the order of one
    sample at a time: a fixed graph carries all samples; an ensemble
    draws a fresh code for each noise_per_graph samples, its seed and
    then its noise.  A graph's noise comes in chunks of at most
    BLOCK_ELEMENTS entries, start being the sample index of a chunk's
    first row.  Ensemble codes are drawn a window at a time: the seeds
    and noise of graphs.window_size(n, noise_per_graph) graphs, whose
    noise fits BLOCK_ELEMENTS floats together, then one sample_ensembles
    call for the window's seeds, which it samples as one window.  A
    window of one graph, like a fixed graph, draws each chunk as it is
    read."""
    rng = np.random.default_rng(seed)
    if isinstance(source, TannerGraph):
        for start, noise in _noise_chunks(ch, range(samples), source.code_bit_count, rng):
            yield start, 0, source, noise
        return
    n, per_graph = source.n, noise_per_graph
    starts = range(0, samples, per_graph)
    window = window_size(n, per_graph)
    for first in range(0, len(starts), window):
        seeds, noise = [], []
        for start in starts[first:first + window]:
            seeds.append(int(rng.integers(2 ** 63)))
            chunks = _noise_chunks(ch, range(start, min(start + per_graph, samples)), n, rng)
            noise.append(chunks if window == 1 else list(chunks))
        codes = sample_ensembles(source.dd, n, source.kind, seeds)
        for index, g, chunks in zip(itertools.count(first), codes, noise):
            for start, z in chunks:
                yield start, index, g, z


def _noise_chunks(ch, count, n, rng):
    """(start, (S, n) noise) for the samples in the range count, in
    chunks of at most BLOCK_ELEMENTS entries, each drawn as it is read."""
    for chunk in block_slices(len(count), n):
        yield count[chunk].start, channel_noise(ch, (len(count[chunk]), n), rng)


def _batches(draws):
    """The exact routes' batching of the draws: consecutive draws are
    collected while their costs sum to at most BLOCK_ELEMENTS floats, S
    samples on an (R, n) table costing max(R n, S max(R, n)), R the rows
    of the table exact.table_source dispatches the graph to, and each
    such window is yielded as one (starts, graph indices, graphs,
    (G, S, n) noise) group per source and shape (R, n, S), graphs in
    draw order; the posterior pass then runs a group as one row chunk
    and one sample block, each graph as a call on it alone would.  A
    window's groups interleave in sample order.  A window with no room
    left for n floats (a chunk's least cost) goes before the next chunk
    is read, so a graph's chunks (all but its last cost over
    BLOCK_ELEMENTS - n) never share one: a fixed graph's groups hold one
    chunk each."""
    groups, used = {}, 0
    for start, index, g, noise in draws:
        (S, n), (dim, dual) = noise.shape, table_source(g)
        R = 1 << dim
        cost = max(R * n, S * max(R, n))
        if groups and used + cost > channels.BLOCK_ELEMENTS:
            yield from map(_stack, groups.values())
            groups, used = {}, 0
        groups.setdefault((dual, R, n, S), []).append((start, index, g, noise))
        used += cost
        if used + n > channels.BLOCK_ELEMENTS:
            yield from map(_stack, groups.values())
            groups, used = {}, 0
    yield from map(_stack, groups.values())


def _stack(group):
    starts, indices, graphs, noise = zip(*group)
    stacked = noise[0][None] if len(noise) == 1 else np.stack(noise)  # one graph: no copy
    return np.array(starts), np.array(indices), graphs, stacked


def _per_sample(walk, samples, reduce):
    """reduce(start, graph, noise) over a walk's draws, or
    reduce(starts, graphs, noise) over its _batches groups, giving a
    value (or row) per graph and sample: the values in sample order and
    each sample's graph index, filled in place (lists of the groups'
    arrays cost an ensemble pass 0.25 MiB RSS)."""
    vals, blocks = None, np.empty(samples, np.intp)
    for start, index, graphs, noise in walk:
        out = reduce(start, graphs, noise)
        if vals is None:
            vals = np.empty((samples,) + out.shape[np.ndim(start) + 1:])
        positions = np.add.outer(start, np.arange(noise.shape[-2]))  # (S,) or (G, S)
        vals[positions] = out
        blocks[positions] = np.expand_dims(index, -1)
    return vals, blocks


def _estimate(values, prefactor, method, meta, blocks=None):
    """Mean and standard error of prefactor * values; when blocks groups
    the samples (shared codes), the SE comes from per-block means.  The
    block ids are sorted from a set, not np.unique, which imports numpy.ma
    (0.5 MiB RSS) on its first call."""
    values = np.asarray(values, float)
    ids = () if blocks is None else sorted(set(np.asarray(blocks).tolist()))
    mean, std = _mean_std(values)
    if 1 < len(ids) < len(values):
        blocks = np.asarray(blocks)
        means = np.array([values[blocks == b].mean() for b in ids])
        se = prefactor * float(_mean_std(means)[1] / math.sqrt(len(means)))
    else:
        se = prefactor * float(std / math.sqrt(len(values)))
    return GexitEstimate(prefactor * float(mean), se, method, meta)


def _mean_std(values):
    """numpy's mean() and std(ddof=1) of a 1-D array, bit for bit: the
    same pairwise sums, deviations and divisions, without the Python
    layers of np.mean and np.std (3 against 11 us on 150 samples)."""
    n = len(values)
    mean = np.add.reduce(values) / n
    dev = values - mean
    dev *= dev
    return mean, math.sqrt(np.add.reduce(dev) / (n - 1))


def _meta(source, ch, samples, seed, **extra):
    n = source.code_bit_count if isinstance(source, TannerGraph) else source.n
    return {"channel": ch.spec(), "samples": samples, "seed": seed, "n": n,
            "family": source.kind, **extra}


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
    return np.array([t / (2 * p * (2 * p - 1)) for p, t in enumerate(t2p_terms(ch, p_max), 1)])


#: the routes that reduce exact posteriors, served by one map_gexit_routes pass
MAP_METHODS = ("functional", "series", "awgn-magnetization", "entropy-fd")


def map_gexit_routes(source, points, samples, methods, p_max=20, noise_per_graph=1,
                     eps_step=1e-3):
    """[{method: GexitEstimate}], one dict per point of an eps grid, for
    each route in methods (a subset of MAP_METHODS), from one pass per
    exact reduction for the whole grid.  points are (channel, seed)
    pairs; each point draws its graphs and noise from its own seed, as a
    grid of that point alone would, and all points' draws then pass
    through one _batches walk, so a fixed code's points stack as the
    graph slices of one group.  Each group's noise is mapped to LLRs per
    point, at the point's eps (and at eps +- eps_step for entropy-fd),
    each reduction (extrinsics, marginals, the two entropies) runs once
    per group for every route that reads it, and the kernel, the moment
    series and the estimates are taken per point on its own slices, so
    every point gets what a call on it alone gives, bit for bit."""
    methods = [m for m in MAP_METHODS if m in methods]
    chs = [ch for ch, _ in points]
    for ch in chs:
        if "awgn-magnetization" in methods and ch.kind != BIAWGNC:
            raise ValueError("magnetization shortcut needs the BIAWGNC")
        if "entropy-fd" in methods and not (0.0 < ch.eps - eps_step
                                            and ch.eps + eps_step < ch.eps_max):
            raise ValueError("eps +- eps_step must stay inside (0, eps_max)")
    metas = [{m: _meta(source, ch, samples, seed) for m in methods} for ch, seed in points]
    coeffs = []
    tail = math.log(2.0) - sum(1.0 / (2 * p * (2 * p - 1)) for p in range(1, p_max + 1))
    for ch, meta in zip(chs, metas):
        if "series" in methods:
            coeffs.append(series_coefficients(ch, p_max))
            meta["series"].update(p_max=p_max, tail_bound=t2p_sup(ch) * tail)
        if "entropy-fd" in methods:
            meta["entropy-fd"]["eps_step"] = eps_step
    # entropy-fd's sides: each point's channel at eps + eps_step, then at eps - eps_step
    sides = [[type(ch)(ch.kind, ch.eps + step) for ch in chs]
             for step in ((eps_step, -eps_step) if "entropy-fd" in methods else ())]

    def reduce(starts, graphs, noise):
        # each point's slices of the group, a run of them in draw order
        at = starts // samples
        if at[0] == at[-1]:  # one point's (every group of a one-point grid)
            runs = [(int(at[0]), slice(None))]
        else:
            cuts = [0, *(np.flatnonzero(np.diff(at)) + 1).tolist(), len(at)]
            runs = [(int(at[a]), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
        per_point = lambda f: (f(*runs[0]) if len(runs) == 1 else
                               np.concatenate([f(k, run) for k, run in runs]))

        def llrs(channels, out=None):  # each point's slices at its own channel
            L = np.empty_like(noise) if out is None else out
            for k, run in runs:
                llrs_from_noise(channels[k], noise[run], out=L[run])
            return L

        out = {}
        if "entropy-fd" in methods:  # first: the LLRs at eps overwrite the noise
            scale = np.array([[g.n_chk / g.n_var if g.kind == LDGM else 1.0] for g in graphs])
            h = [conditional_entropy(make_instance(graphs, llrs(side))) for side in sides]
            out["entropy-fd"] = scale * (h[0] - h[1]) / (2.0 * eps_step)
        if methods != ["entropy-fd"]:
            batch = make_instance(graphs, llrs(chs, out=noise))
        if "functional" in methods or "series" in methods:
            Ms = all_extrinsics(batch)
            if "functional" in methods:
                out["functional"] = per_point(
                    lambda k, run: gexit_kernel_batch(chs[k], Ms[run]).mean(axis=-1))
            if "series" in methods:
                out["series"] = per_point(
                    lambda k, run: moment_series(Ms[run], coeffs[k]).mean(axis=-1))
        if "awgn-magnetization" in methods:
            marginals = all_marginals(batch)
            out["awgn-magnetization"] = per_point(
                lambda k, run: (1.0 - marginals[run].mean(axis=-1)) / (2.0 * chs[k].eps ** 2))
        return np.stack([out[m] for m in methods], axis=-1)

    def draws():  # sample j of point k at position k * samples + j
        for k, (ch, seed) in enumerate(points):
            for start, index, g, noise in _draws(source, ch, samples, seed, noise_per_graph):
                yield k * samples + start, index, g, noise

    vals, blocks = _per_sample(_batches(draws()), len(points) * samples, reduce)
    vals, blocks = vals.reshape(len(points), samples, -1), blocks.reshape(len(points), samples)
    pref = _prefactor(source)  # entropy-fd scales each graph by its own n/m above
    return [{m: _estimate(v[:, j], 1.0 if m == "entropy-fd" else pref, m, meta[m], b)
             for j, m in enumerate(methods)} for v, b, meta in zip(vals, blocks, metas)]


def map_gexit(source, ch, samples, seed, noise_per_graph=1):
    """MAP-GEXIT by the extrinsic kernel functional; each sample averages
    the kernel over all code bits of the instance."""
    return map_gexit_routes(source, [(ch, seed)], samples, ("functional",),
                            noise_per_graph=noise_per_graph)[0]["functional"]


def map_gexit_series(source, ch, samples, seed, p_max=20, noise_per_graph=1):
    """MAP-GEXIT by the moment series, truncated at p_max; the meta dict
    carries a rigorous truncation-tail bound (sup_p |t2p| times the tail
    of sum 1/(2p(2p-1)), since |E[M^{2p}] - 1| <= 1)."""
    return map_gexit_routes(source, [(ch, seed)], samples, ("series",), p_max,
                            noise_per_graph)[0]["series"]


def awgn_gexit(source, ch, samples, seed, noise_per_graph=1):
    """Magnetization form for the BIAWGNC:
    prefactor * (1 - E[<x_i>]) / (2 eps^2), with <x_i> the full marginal
    (equivalently tanh(l_i + atanh <x_i>_0))."""
    return map_gexit_routes(source, [(ch, seed)], samples, ("awgn-magnetization",),
                            noise_per_graph=noise_per_graph)[0]["awgn-magnetization"]


def entropy_fd(source, ch, eps_step, samples, seed):
    """The definitional oracle: central finite difference in eps of the
    sampled conditional entropy, with common random numbers coupling the
    two sides (shared uniforms for the BSC, shared normals for the
    BIAWGNC).  LDGM rescales to the per-information-bit entropy (times
    n/m) so the estimate matches the functional's normalization."""
    return map_gexit_routes(source, [(ch, seed)], samples, ("entropy-fd",),
                            eps_step=eps_step)[0]["entropy-fd"]


def _bp_kernels(source, ch, depths, samples, seed, noise_per_graph=1):
    """Both BP routes' walk: per sample, the code-bit mean of the kernel at
    the depth-d BP extrinsics for each sorted depth d, (samples, depths),
    and each sample's graph index; BP reads one graph at a time."""
    def reduce(start, g, noise):
        inst = make_instance(g, llrs_from_noise(ch, noise, out=noise))
        return np.stack([gexit_kernel_batch(ch, M).mean(axis=-1)
                         for M in bp.bp_checkpoint_extrinsics(inst, depths).values()], axis=-1)

    return _per_sample(_draws(source, ch, samples, seed, noise_per_graph), samples, reduce)


def bp_gexit(source, ch, d, samples, seed, noise_per_graph=1):
    """BP-GEXIT: the same kernel with the depth-d BP extrinsics."""
    vals, blocks = _bp_kernels(source, ch, [d], samples, seed, noise_per_graph)
    return _estimate(vals[:, 0], _prefactor(source), "bp",
                     _meta(source, ch, samples, seed, d=d), blocks)


def bp_gexit_multi_depth(source, ch, depths, samples, seed):
    """BP-GEXIT at several depths with common noise per sample; returns
    {d: GexitEstimate} plus pairwise-difference standard errors in meta.
    Shared randomness makes the depth differences far more precise than
    the individual values."""
    depths = sorted(set(depths))
    vals, _ = _bp_kernels(source, ch, depths, samples, seed)
    pref = _prefactor(source)
    kernels = {d: vals[:, k] for k, d in enumerate(depths)}
    out = {d: _estimate(kernels[d], pref, "bp", _meta(source, ch, samples, seed, d=d))
           for d in depths}
    diffs = {}
    for a, b in itertools.combinations(depths, 2):
        est = _estimate(pref * (kernels[b] - kernels[a]), 1.0, "bp", {})
        diffs[(a, b)] = (est.value, est.std_error)
    return out, diffs


def nishimori_residual(source, ch, p, samples, seed):
    """(residual, se): |E<x_i>^{2p-1} - E<x_i>^{2p}| with the standard
    error of the paired per-sample difference (averaged over code bits);
    zero in expectation on symmetric channels at the channel's own
    parameter."""
    if p < 1:
        raise ValueError("p must be >= 1")

    def reduce(starts, graphs, noise):
        m = all_marginals(make_instance(graphs, llrs_from_noise(ch, noise, out=noise)))
        return (m ** (2 * p - 1) - m ** (2 * p)).mean(axis=-1)

    diffs, _ = _per_sample(_batches(_draws(source, ch, samples, seed)), samples, reduce)
    est = _estimate(diffs, 1.0, "nishimori", {})
    return abs(est.value), est.std_error
