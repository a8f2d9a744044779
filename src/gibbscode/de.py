"""Sample-based (population dynamics) density evolution for both code
families, and the DE-limit GEXIT values.

Message populations live in the half-loglikelihood domain and are
saturated at L_SAT.  One full iteration is a check half-step followed by
a variable half-step; degrees inside the recursion are edge-perspective
(prob proportional to degree), the final code-bit aggregation is
node-perspective.

  LDGM   initial var-to-chk population: point mass at 0.
         check step: u = atanh(tanh l * prod_{r-1} tanh v), fresh l ~ c.
         var step:   v = sum_{dv-1} u.
         aggregate:  tanh(Delta_d) = prod over a node-perspective check
                     degree of tanh v  (the extrinsic code-bit estimate).

  LDPC   initial var-to-chk population: channel samples c(l).
         check step: w = atanh(prod_{r-1} tanh lam).
         var step:   lam = l + sum_{dv-1} w, fresh l ~ c.
         aggregate:  Lambda_d = sum over a node-perspective variable
                     degree of w  (again extrinsic: own l excluded).

After d iterations the aggregate matches the root extrinsic estimate of
the depth-2d tree ensemble, hence of d BP iterations at large block
length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import BIAWGNC, L_SAT, gexit_kernel_batch, sample_llr
from .graphs import LDGM, LDPC, draw_degrees

VAR_TO_CHK = "var-to-chk"
CHK_TO_VAR = "chk-to-var"


@dataclass(frozen=True)
class Population:
    """A sample-based message density: N_pop half-LLR values plus which
    half-recursion produced them."""

    samples: np.ndarray
    generation: int
    family: str
    side: str

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("population samples must be finite")


def ldgm_initial_population(n_pop):
    """Point mass at zero on the variable-to-check side."""
    return Population(np.zeros(n_pop), 0, LDGM, VAR_TO_CHK)


def ldpc_initial_population(ch, n_pop, seed):
    """Channel samples on the variable-to-check side."""
    vals = sample_llr(ch, n_pop, seed).values
    return Population(np.clip(vals, -L_SAT, L_SAT), 0, LDPC, VAR_TO_CHK)


def _resample(rng, samples, rows, cols):
    return samples[rng.integers(0, len(samples), size=(rows, cols))]


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
        prod = _resample(rng, t, len(idx), dv - drop).prod(axis=1)
        if ch is not None:
            prod = prod * np.tanh(sample_llr(ch, len(idx), rng).values)
        with np.errstate(divide="ignore"):
            out[idx] = np.arctanh(prod)
    return np.clip(out, -L_SAT, L_SAT)


def _check_step(samples, dd, ch, rng, family):
    """Edge-perspective check half-step; consumes var-to-chk samples."""
    return _check_outputs(rng, np.tanh(samples), dd.degree_laws["edge", "chk"], len(samples), 1,
                          ch if family == LDGM else None)


def _var_step(samples, dd, ch, rng, family):
    """Edge-perspective variable half-step; consumes chk-to-var samples."""
    n = len(samples)
    out = np.zeros(n)
    for dv, idx in _degree_groups(rng, dd.degree_laws["edge", "var"], n):
        if dv >= 2:
            out[idx] = _resample(rng, samples, len(idx), dv - 1).sum(axis=1)
    if family == LDPC:
        out = out + sample_llr(ch, n, rng).values
    return np.clip(out, -L_SAT, L_SAT)


def de_step(pop, dd, ch, seed):
    """One half-iteration: a var-to-chk population goes through the check
    recursion, a chk-to-var population through the variable recursion."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if pop.side == VAR_TO_CHK:
        vals = _check_step(pop.samples, dd, ch, rng, pop.family)
        return Population(vals, pop.generation + 1, pop.family, CHK_TO_VAR)
    vals = _var_step(pop.samples, dd, ch, rng, pop.family)
    return Population(vals, pop.generation, pop.family, VAR_TO_CHK)


def run_de(family, dd, ch, d, n_pop, seed):
    """d full iterations; returns the aggregation-ready population:
    the var-to-chk side for LDGM (v after the d-th variable step), the
    chk-to-var side for LDPC (w after the d-th check step)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if family == LDGM:
        pop = ldgm_initial_population(n_pop)
        for _ in range(d):
            pop = de_step(pop, dd, ch, rng)   # check
            pop = de_step(pop, dd, ch, rng)   # variable
        return pop
    pop = ldpc_initial_population(ch, n_pop, rng)
    for t in range(d):
        pop = de_step(pop, dd, ch, rng)       # check
        if t < d - 1:
            pop = de_step(pop, dd, ch, rng)   # variable
    return pop


def aggregate_extrinsic(family, pop, dd, rng):
    """Node-perspective code-bit aggregation, in the message domain:
    Delta_d (LDGM) or Lambda_d (LDPC), one value per population sample."""
    n = len(pop.samples)
    if family == LDGM:
        return _check_outputs(rng, np.tanh(pop.samples), dd.degree_laws["node", "chk"], n, 0)
    out = np.empty(n)
    for dv, idx in _degree_groups(rng, dd.degree_laws["node", "var"], n):
        out[idx] = _resample(rng, pop.samples, len(idx), dv).sum(axis=1)
    return np.clip(out, -L_SAT, L_SAT)


def _aggregates(family, dd, ch, d, n_pop, seed):
    rng = np.random.default_rng(seed)
    pop = run_de(family, dd, ch, d, n_pop, rng)
    agg = aggregate_extrinsic(family, pop, dd, rng)
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
        l = sample_llr(ch, len(agg), rng).values
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


def de_full_marginal_moments(family, dd, ch, d, n_pop, powers, seed):
    """Moments E[m^k] of the full-marginal population m = tanh(Delta + l)
    with a fresh own-observation l, for each power k in powers; used for
    the Nishimori moment identities at the DE level."""
    agg, rng = _aggregates(family, dd, ch, d, n_pop, seed)
    l = sample_llr(ch, len(agg), rng).values
    m = np.tanh(agg + l)
    return {k: float(np.mean(m ** k)) for k in powers}
