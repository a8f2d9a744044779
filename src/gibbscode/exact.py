"""Brute-force-exact evaluation of the posterior Gibbs measures.

LDGM posterior over information bits u in {-1,+1}^m:

    p(u) = (1/Z) prod_i exp(l_i x_i(u)),   x_i(u) = prod_{a in d(i)} u_a

LDPC posterior over code bits x in {-1,+1}^n:

    p(x) = (1/Z) prod_c (1/2)(1 + prod_{i in d(c)} x_i) prod_i exp(l_i x_i)

Everything here enumerates the support of the measure directly (LDGM:
all 2^m information-bit configurations; LDPC: the 2^(n - rank H)
codewords, spanned from a GF(2) nullspace basis of the parity checks),
works in the log domain, and relies on numpy's pairwise summation for
reproducible reductions.  Every quantity is a reduction over one
posterior pass, which takes a whole block of noise realizations at once:
logw = L @ X.T for an (S, n) LLR block L and the int8 table X, then a
row-wise log-sum-exp.  This module is the MAP-side oracle for the BP
decoder, the duality layer and the GEXIT estimators.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import partial, update_wrapper

import numpy as np
from scipy.special import logsumexp

from . import gf2
from .channels import LLRVector, block_slices
from .graphs import LDGM, LDPC, TannerGraph

#: cap on the support dimension, information bits (LDGM) or n - rank H
#: (LDPC), and on duality's dual spins; 2^24 ~ 1.7e7 configurations
BRUTE_FORCE_CAP = 24

#: bytes of tables each table cache may keep (one 2^24 x 16 int8 table)
TABLE_CACHE_BYTES = 256 << 20


class BruteForceCapExceeded(ValueError):
    """The instance's support has a larger dimension than the brute-force
    cap allows."""


@dataclass(frozen=True)
class PosteriorInstance:
    """A Tanner graph plus half-loglikelihoods (one entry per code bit):
    the Gibbs measure being decoded.  The LLRs may hold one noise
    realization, shape (n,), or a block of S realizations, shape (S, n);
    the functions below then return per-sample results with a leading
    sample axis."""

    graph: TannerGraph
    llrs: LLRVector

    def __post_init__(self):
        if self.llrs.values.shape[-1] != self.graph.code_bit_count:
            raise ValueError(f"llr length {self.llrs.values.shape[-1]} != "
                             f"code bit count {self.graph.code_bit_count}")

    @property
    def kind(self):
        return self.graph.kind

    @property
    def values(self):
        return self.llrs.values


def make_instance(graph, values):
    return PosteriorInstance(graph, LLRVector(values))


def _check_cap(graph):
    if graph.kind == LDPC and graph.n_var > gf2.MAX_WORD_BITS:
        raise BruteForceCapExceeded(
            f"{graph.n_var} code bits exceed the {gf2.MAX_WORD_BITS} a codeword word holds")
    if graph.free_spin_count > BRUTE_FORCE_CAP:
        what = "information bits" if graph.kind == LDGM else "codeword dimension n - rank H"
        raise BruteForceCapExceeded(f"support dimension {graph.free_spin_count} ({what}) "
                                    f"exceeds cap {BRUTE_FORCE_CAP}")


TableCacheInfo = namedtuple("TableCacheInfo", "hits misses maxsize currsize max_bytes nbytes")


class TableCache:
    """Memoizes a one-argument table build, least recently used out
    first, keeping at most maxsize tables and at most max_bytes of them:
    a table larger than max_bytes is returned but not kept.  Tables are
    shared by every caller, so they are returned read-only.  cache_info()
    and cache_clear() follow functools.lru_cache (misses count builds)."""

    def __init__(self, build, maxsize):
        update_wrapper(self, build)
        self.maxsize = maxsize
        self.max_bytes = TABLE_CACHE_BYTES
        self.cache_clear()

    def __call__(self, key):
        table = self._tables.get(key)
        if table is not None:
            self._hits += 1
            self._tables.move_to_end(key)
            return table
        self._misses += 1
        table = self.__wrapped__(key)
        table.flags.writeable = False
        if table.nbytes <= self.max_bytes:
            self._tables[key] = table
            self._nbytes += table.nbytes
            while len(self._tables) > self.maxsize or self._nbytes > self.max_bytes:
                _, old = self._tables.popitem(last=False)
                self._nbytes -= old.nbytes
        return table

    def cache_info(self):
        return TableCacheInfo(self._hits, self._misses, self.maxsize, len(self._tables),
                              self.max_bytes, self._nbytes)

    def cache_clear(self):
        self._tables = OrderedDict()
        self._hits = self._misses = self._nbytes = 0


@partial(TableCache, maxsize=8)
def codebit_table(graph):
    """Code-bit value matrix X over the enumerated support.

    LDGM: X has shape (2^m, n_chk); row u gives x_i(u) for every check.
    LDPC: rows are the codewords, spanned from a nullspace basis of the
    parity checks in ascending order of their bitmasks (the order of a
    2^n enumeration filtered by the parity indicators); X[r, i] is spin
    i of codeword r.
    """
    checks = [gf2.mask(c) for c in graph.adj_chk]
    if graph.kind == LDGM:
        return gf2.parity_signs(gf2.cube(graph.n_var), checks)
    return gf2.parity_signs(gf2.codewords(checks, graph.n_var),
                            [1 << i for i in range(graph.n_var)])


#: a half's posterior probability below this is recomputed from the
#: half's own maximum log-weight: its terms may be subnormal or have
#: underflowed to zero
_TINY_PROBABILITY = 1e-290


def _float_rows(X):
    """The int8 table in float row chunks of at most BLOCK_ELEMENTS
    entries, so the table is never converted whole."""
    for rows in block_slices(X.shape[0], X.shape[1]):
        yield rows, X[rows].astype(float)


def _table_product(A, X):
    """A @ X for a float (S, rows) block A and the int8 table X."""
    out = np.zeros((A.shape[0], X.shape[1]))
    for rows, F in _float_rows(X):
        out += A[:, rows] @ F
    return out


@dataclass(frozen=True)
class _Pass:
    """One block of the posterior pass: the table X, the block's LLRs L
    (S, n), log-weights logw = L @ X.T (S, rows), the posterior
    probabilities p of the rows, and log Z (S,)."""

    X: np.ndarray
    L: np.ndarray
    logw: np.ndarray
    p: np.ndarray
    logz: np.ndarray


def _posterior(inst, reduce):
    """The posterior pass: log-weights of every enumerated configuration
    and a row-wise log-sum-exp, over blocks of at most BLOCK_ELEMENTS
    (samples x table rows).  reduce(block, samples) maps each _Pass to
    per-sample results (samples is the block's slice of the sample axis);
    they are stacked, without the sample axis for a single realization."""
    _check_cap(inst.graph)
    X = codebit_table(inst.graph)
    L_all = np.atleast_2d(inst.values)
    parts = []
    for samples in block_slices(len(L_all), X.shape[0]):
        L = L_all[samples]
        logw = np.empty((len(L), X.shape[0]))
        for rows, F in _float_rows(X):
            logw[:, rows] = L @ F.T
        m = logw.max(axis=1)
        p = np.subtract(logw, m[:, None])
        np.exp(p, out=p)
        wsum = p.sum(axis=1)
        p /= wsum[:, None]
        parts.append(reduce(_Pass(X, L, logw, p, m + np.log(wsum)), samples))
    out = np.concatenate(parts)
    return out if inst.values.ndim == 2 else out[0]


def partition_function(inst):
    """log Z, computed with a streaming-safe log-sum-exp (Z is a positive
    sum of exponential weights for both code families)."""
    return _posterior(inst, lambda b, _: b.logz)


def all_marginals(inst):
    """<x_i> for every code bit i, as one array."""
    return _posterior(inst, lambda b, _: _table_product(b.p, b.X))


def _extrinsics(b, _):
    """<x_i>_0 = tanh(ln(Z_i+ / Z_i-) / 2 - l_i), with Z_i+- the weight of
    the configurations with x_i = +-1: the log-domain form of reweighting
    by exp(-l_i x_i), finite for any LLR magnitude."""
    pplus, pminus = np.zeros(b.L.shape), np.zeros(b.L.shape)
    nplus = np.zeros(b.X.shape[1])
    for rows in block_slices(*b.X.shape):
        P = (b.X[rows] > 0).astype(float)  # indicator of x_i = +1
        pplus += b.p[:, rows] @ P
        pminus += b.p[:, rows] @ (1.0 - P)
        nplus += np.ones(len(P)) @ P  # a BLAS column sum (axis-0 reductions are slow)
    with np.errstate(divide="ignore"):
        out = np.tanh(0.5 * (np.log(pplus) - np.log(pminus)) - b.L)
    # halves whose probability underflowed (empty halves are exactly 0 and right)
    bad = ((pplus < _TINY_PROBABILITY) & (nplus > 0)) | \
        ((pminus < _TINY_PROBABILITY) & (nplus < len(b.X)))
    for i in np.flatnonzero(bad.any(axis=0)):
        s = bad[:, i]
        logw = b.logw[s]
        pos = b.X[:, i] > 0
        out[s, i] = np.tanh(0.5 * (logsumexp(logw[:, pos], axis=1) -
                                   logsumexp(logw[:, ~pos], axis=1)) - b.L[s, i])
    return out


def all_extrinsics(inst):
    """<x_i>_0, the marginal recomputed with l_i = 0, for every code bit at once."""
    return _posterior(inst, _extrinsics)


def pair_correlation(inst, i, j):
    """<x_i x_j> - <x_i><x_j> of a single realization."""
    if i == j:
        raise ValueError("pair correlation needs distinct code bits")
    return float(correlations_with_root(inst, i)[j])


def correlations_with_root(inst, i):
    """<x_i x_j> - <x_i><x_j> for all j at once (j = i slot holds the
    variance 1 - <x_i>^2); used by the correlation-decay experiments.  For
    a block, i may also give one root per sample."""
    roots = np.broadcast_to(np.asarray(i), np.atleast_2d(inst.values).shape[:1])

    def reduce(b, samples):
        means = _table_product(b.p, b.X)
        r = roots[samples]
        joint = _table_product(b.p * b.X[:, r].T, b.X)
        return joint - means[np.arange(len(r)), r][:, None] * means

    return _posterior(inst, reduce)


def spin_product_columns(graph, A, B):
    """The spin products u_A and u_B as float columns over the 2^n_var
    configurations of an LDGM graph (the rows of its codebit_table)."""
    signs = gf2.parity_signs(gf2.cube(graph.n_var), [gf2.mask(A), gf2.mask(B)])
    return np.ascontiguousarray(signs.T, dtype=float)


def spin_product_correlation(inst, A, B):
    """<u_A u_B> - <u_A><u_B> for variable sets A, B of an LDGM instance,
    where u_S is the product of the spins in S; the quantity bounded by
    the self-avoiding-walk expansion."""
    if inst.kind != LDGM:
        raise ValueError("spin products are an LDGM notion")
    _check_cap(inst.graph)  # before the 2^m columns are built
    uA, uB = spin_product_columns(inst.graph, A, B)

    def reduce(b, _):
        return b.p @ (uA * uB) - (b.p @ uA) * (b.p @ uB)

    return _posterior(inst, reduce)


def conditional_entropy(inst):
    """Gibbs entropy of the posterior in nats per CODE BIT:
    -(1/n) sum_config p ln p, evaluated in the log domain."""
    def reduce(b, _):
        # S = -sum p ln p = ln Z - sum_config p * logw
        return (b.logz - np.einsum("sr,sr->s", b.p, b.logw)) / inst.graph.code_bit_count

    return _posterior(inst, reduce)
