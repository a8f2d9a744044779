"""Sample-based (population dynamics) density evolution for both code
families, and the DE-limit GEXIT values.

A message density is a plain array of n_pop samples in the
half-loglikelihood domain, saturated at L_SAT; run_de keeps one such
array alive from half-step to half-step.  DE has two node kernels, one
per node type, each serving a half-step and an aggregate: _check_outputs
(the product of tanh values) and _variable_outputs (the sum of
messages).  A kernel draws a degree for every output and resamples that
many inputs, less drop = 1 for an edge-perspective half-step (the
outgoing edge, prob proportional to degree) and drop = 0 for the
node-perspective code-bit aggregate (aggregate_extrinsic).  One full
iteration is a check half-step followed by a variable half-step.

  LDGM   start:      v = 0 for every sample.
         check step: u = atanh(tanh l * prod_{r-1} tanh v), fresh l ~ c.
         var step:   v = sum_{dv-1} u.
         aggregate:  tanh(Delta_d) = prod over a node-perspective check
                     degree of tanh v  (the extrinsic code-bit estimate).

  LDPC   start:      lam = channel samples c(l).
         check step: w = atanh(prod_{r-1} tanh lam).
         var step:   lam = l + sum_{dv-1} w, fresh l ~ c; skipped after
                     the d-th check step, so run_de returns w.
         aggregate:  Lambda_d = sum over a node-perspective variable
                     degree of w  (again extrinsic: own l excluded).

After d iterations the aggregate matches the root extrinsic estimate of
the depth-2d tree ensemble, hence of d BP iterations at large block
length.
"""

from __future__ import annotations

import warnings

import numpy as np

from .channels import BIAWGNC, L_SAT, gexit_kernel_batch, sample_llr
from .graphs import LDGM, LDPC, draw_degrees


def _resampled(reduce, rng, samples, rows, cols):
    """reduce (np.multiply or np.add) over cols resampled values for each
    of rows outputs, in column order from the identity: ((id op a0) op a1)
    op ...  The (rows, cols) index draw is numpy's, so the generator moves
    as a row reduction of that block would move it; the draws are gathered
    column by column, so no short axis is reduced.  The output is
    allocated after the draws: DE's time hangs on glibc's heap trimming,
    and an output kept inside the draws' block costs (4,4) LDPC twenty
    times the page faults."""
    columns = samples[rng.integers(0, len(samples), size=(rows, cols)).T]
    out = np.full(rows, float(reduce.identity))
    for column in columns:
        reduce(out, column, out=out)
    return out


def _degree_groups(rng, law, n):
    """Draw a degree for each of n samples from law (an entry of
    DegreeDistribution.degree_laws) and group the samples by it:
    (degree, sample indices) for every degree of the law that was drawn,
    in ascending degree order."""
    deg = draw_degrees(rng, law, n)
    degs = law[0]
    if len(degs) == 1:
        return [(degs[0], np.arange(n))]
    groups = [(dv, np.flatnonzero(deg == dv)) for dv in np.unique(degs)]
    return [(dv, idx) for dv, idx in groups if len(idx)]


def _check_outputs(rng, t, law, n, drop, ch=None):
    """n check outputs atanh(prod of tanh values): each draws a degree dv
    from law and multiplies dv - drop resampled values of t (drop = 1
    leaves out the outgoing edge), times the tanh of a fresh channel LLR
    when ch is given.  Clipped at L_SAT; a product of magnitude one
    saturates.  A degree-1 check resamples nothing: the empty product is
    1, and the generator does not move."""
    out = np.empty(n)
    for dv, idx in _degree_groups(rng, law, n):
        prod = _resampled(np.multiply, rng, t, len(idx), dv - drop)
        if ch is not None:
            prod = prod * np.tanh(sample_llr(ch, len(idx), rng))
        with np.errstate(divide="ignore"):
            out[idx] = np.arctanh(prod)
    return np.clip(out, -L_SAT, L_SAT)


def _variable_outputs(rng, msgs, law, n, drop, ch=None):
    """n variable outputs: each draws a degree dv from law and sums dv -
    drop resampled values of msgs (drop = 1 leaves out the outgoing edge),
    plus a fresh channel LLR when ch is given.  Clipped at L_SAT.  A
    degree that leaves nothing to resample draws nothing: the empty sum
    is 0, and the generator does not move."""
    out = np.empty(n)
    for dv, idx in _degree_groups(rng, law, n):
        out[idx] = _resampled(np.add, rng, msgs, len(idx), dv - drop)
    if ch is not None:
        out = out + sample_llr(ch, n, rng)
    return np.clip(out, -L_SAT, L_SAT)


def run_de(family, dd, ch, d, n_pop, seed):
    """d full iterations from zero (LDGM) or clipped channel samples
    (LDPC); returns the aggregation-ready message array: v after the d-th
    variable step (LDGM), w after the d-th check step (LDPC)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if family == LDGM:
        msgs = np.zeros(n_pop)
    else:
        msgs = np.clip(sample_llr(ch, n_pop, rng), -L_SAT, L_SAT)
    for t in range(d):
        msgs = _check_outputs(rng, np.tanh(msgs), dd.degree_laws["edge", "chk"], n_pop, 1,
                              ch if family == LDGM else None)
        if family == LDGM or t < d - 1:
            msgs = _variable_outputs(rng, msgs, dd.degree_laws["edge", "var"], n_pop, 1,
                                     ch if family == LDPC else None)
    return msgs


def aggregate_extrinsic(family, msgs, dd, rng):
    """Node-perspective code-bit aggregation of run_de's messages:
    Delta_d (LDGM) or Lambda_d (LDPC), one value per message."""
    if family == LDGM:
        return _check_outputs(rng, np.tanh(msgs), dd.degree_laws["node", "chk"], len(msgs), 0)
    return _variable_outputs(rng, msgs, dd.degree_laws["node", "var"], len(msgs), 0)


def _aggregates(family, dd, ch, d, n_pop, seed):
    rng = np.random.default_rng(seed)
    agg = aggregate_extrinsic(family, run_de(family, dd, ch, d, n_pop, rng), dd, rng)
    if np.mean(np.abs(agg) >= L_SAT - 1e-9) > 0.99:
        warnings.warn("population degeneracy: >99% of aggregates saturate")
    return agg, rng


def de_gexit(family, dd, ch, d, n_pop, seed):
    """DE-limit GEXIT value after d iterations: the kernel integral of
    ln[(1 + tanh(Delta) tanh l)/(1 + tanh l)] averaged over the aggregate
    population, with the Lambda'(1)/P'(1) prefactor for LDGM and no
    prefactor for LDPC.  The BIAWGNC uses the magnetization fast path
    (1/(2 eps^2)) (1 - E[tanh(l + Delta)]).  Deterministic given
    (seed, n_pop, d)."""
    agg, rng = _aggregates(family, dd, ch, d, n_pop, seed)
    prefactor = dd.lambda_prime / dd.p_prime if family == LDGM else 1.0
    if ch.kind == BIAWGNC:
        l = sample_llr(ch, len(agg), rng)
        return prefactor * (1.0 - float(np.mean(np.tanh(l + agg)))) / (2.0 * ch.eps ** 2)
    kernels = gexit_kernel_batch(ch, np.tanh(agg))
    return prefactor * float(np.mean(kernels))


def de_moment(family, dd, ch, d, n_pop, p, seed):
    """Empirical 2p-th moment of the extrinsic aggregate tanh(Delta_d)
    (LDGM) or tanh(Lambda_d) (LDPC)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    agg, _ = _aggregates(family, dd, ch, d, n_pop, seed)
    return float(np.mean(np.tanh(agg) ** (2 * p)))
