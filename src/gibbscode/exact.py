"""Brute-force-exact evaluation of the posterior Gibbs measures.

LDGM posterior over information bits u in {-1,+1}^m:

    p(u) = (1/Z) prod_i exp(l_i x_i(u)),   x_i(u) = prod_{a in d(i)} u_a

LDPC posterior over code bits x in {-1,+1}^n:

    p(x) = (1/Z) prod_c (1/2)(1 + prod_{i in d(c)} x_i) prod_i exp(l_i x_i)

Everything here enumerates a table directly, each row of it once, from
the GF(2) row reduction of the checks cached on the graph.  The primal
table is the support of the measure.  LDGM: the weight depends on u
only through the codeword x(u), so u and u + k weigh the same for every
k in the kernel of the generator G; the table holds the 2^(rank G)
configurations of the pivot information bits, one per coset of the
kernel, and each row stands for 2^(m - rank G) configurations, a factor
log Z carries.  LDPC: the 2^(n - rank H) codewords, spanned from a
nullspace basis of the parity checks.  Both tables are the +-1 span of a
basis of the code, doubled up by gf2.span_signs from its sign rows,
TannerGraph.code_basis (LDGM: the generator rows of the pivot
information bits, read from adjacency; LDPC: the nullspace basis
words): one graph's table alone and cached (codebit_table), the tables
of a group of graphs that share one shape as one (G, R, n) stack
(codebit_tables).

An LDGM graph may read a second table, its dual code's (table_source):
the codebit_table of TannerGraph.dual_code read as 0/1 words, over
which every posterior sum is a signed MacWilliams sum (_posterior).  A
sample whose cancellation kappa = sum|W| / |sum W| puts its rounding
past _DUAL_ROUNDING, or that holds a t_i = 0, is recomputed on the
primal table; the spin products always read the primal table.

It works in the log domain, and relies on numpy's pairwise summation
for reproducible reductions.  Every quantity is a weighted sum over one
posterior pass (an extrinsic <x_i>_0 whose half
underflows is a marginal of the same pass, under LLRs with l_i = 0),
which takes a whole block of noise
realizations at once and streams over the int8 table X: each row chunk
of X is converted to float once per call and run against every block of
the (S, n) LLR block L, and each sample keeps a running maximum
log-weight, rescaling its sums when the maximum grows (the online
log-sum-exp of Milakov and Gimelshein, arXiv:1805.02867).  The pass
also takes a leading graph axis: a PosteriorInstance of G graphs whose
tables share one shape runs as a (G, R, n) table stack against (G, S, n)
LLRs, every matmul, maximum and sum batched over the graphs, so a group
of small ensemble graphs costs one call's overhead; one graph is the
G = 1 case of the same pass.  Temporaries stay within
channels.BLOCK_ELEMENTS apart from the (G, S, n) accumulators, and no
float copy of a whole table is made.  This module is the MAP-side oracle for
the BP decoder, the duality layer and the GEXIT estimators.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cache, partial, update_wrapper

import numpy as np

from . import gf2
from .channels import block_slices
from .graphs import LDGM

#: cap on the support dimension, rank G (LDGM) or n - rank H (LDPC); the
#: dual of an LDPC code is an LDGM code, so its cap is on rank H;
#: 2^24 ~ 1.7e7 table rows
BRUTE_FORCE_CAP = 24

#: bytes of tables the table cache may keep (one 2^24 x 16 int8 table)
TABLE_CACHE_BYTES = 256 << 20


class BruteForceCapExceeded(ValueError):
    """The instance's support has a larger dimension than the brute-force
    cap allows."""


@dataclass(frozen=True)
class PosteriorInstance:
    """Tanner graphs plus half-loglikelihoods (one entry per code bit):
    the Gibbs measures being decoded, the one input of every posterior
    reduction and BP flood.  graph is one TannerGraph, whose values hold
    one noise realization, shape (n,), or a block of S of them, shape
    (S, n); or a tuple of G graphs whose tables share one shape (the same
    code-bit count and table_source), each with its own block:
    values of shape (G, S, n).  The posterior reductions below return
    per-sample results with the leading axes of values, (), (S,) or
    (G, S), each graph's equal to what the graph's own instance gives;
    the graphs of a tuple share one family, which kind reads.  The spin
    products, the BP floods and the bounds take one graph (one_graph),
    the duality layer and tree_decode one graph and one realization.
    Only a tuple of two or more graphs has its table sources compared,
    so a one-graph instance (a BP flood's) does not row-reduce its
    checks."""

    graph: object
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        graphs = self.graphs
        ndims = (3,) if isinstance(self.graph, tuple) else (1, 2)
        if not graphs:
            raise ValueError("a graph tuple needs at least one graph")
        if values.ndim not in ndims or values.ndim == 3 and len(values) != len(graphs):
            raise ValueError(f"values of shape {values.shape} do not give {len(graphs)} "
                             f"graph(s) an (n,), (S, n) or (G, S, n) block each")
        for g in graphs:
            if g.code_bit_count != values.shape[-1]:
                raise ValueError(f"graph and llrs disagree on the code bit count: "
                                 f"{g.code_bit_count} != {values.shape[-1]}")
        if len(graphs) > 1 and len({table_source(g) for g in graphs}) > 1:
            raise ValueError(f"graphs of a batch must share a table shape; their (support "
                             f"dimension, dual) pairs {sorted({table_source(g) for g in graphs})} "
                             f"differ")
        if not np.isfinite(values).all():
            raise ValueError("LLR values must be finite")
        if len({g.kind for g in graphs}) > 1:
            raise ValueError("graphs of a batch must share a family, ldgm or ldpc")

    @property
    def graphs(self):
        return self.graph if isinstance(self.graph, tuple) else (self.graph,)

    @property
    def kind(self):
        return self.graphs[0].kind

    def one_graph(self, reader, realizations=True):
        """The graph, for a reader that takes one graph and, unless
        realizations, one noise realization (values of shape (n,))."""
        if isinstance(self.graph, tuple):
            raise ValueError(f"{reader} takes one graph, not a tuple of {len(self.graph)}")
        if not realizations and self.values.ndim != 1:
            raise ValueError(f"{reader} takes one noise realization (n,), not {self.values.shape}")
        return self.graph


make_instance = PosteriorInstance


#: table rows that the dual pass's own work per code bit and sample
#: weighs: four transcendentals of each LLR (tanh, ln, ln1p, sinh), where
#: the primal pass spends one exp per table row
_DUAL_BIT_ROWS = 4


def table_source(g):
    """(support dimension, dual) of the table g's posterior pass reads:
    an LDGM graph reads its dual code's table, of dimension n_chk - rank G,
    whenever that table plus the dual pass's per-bit work is the smaller,
    2^(n_chk - rank G) + _DUAL_BIT_ROWS n_chk < 2^rank G; every other
    graph reads its own codebit_table, of dimension free_spin_count.  (A
    primal table of 16 rows or fewer is always read as it is.)"""
    dim = g.free_spin_count
    if g.kind == LDGM and (1 << g.n_chk - dim) + _DUAL_BIT_ROWS * g.n_chk < 1 << dim:
        return g.n_chk - dim, True
    return dim, False


def _check_cap(kind, dim, dual=False):
    """Raise BruteForceCapExceeded unless a table of this family with
    support dimension dim (table_source's, or free_spin_count's for a
    primal table) is within the cap; no word width applies, since every
    table is doubled from the supports of basis words."""
    if dim > BRUTE_FORCE_CAP:
        what = ("dual code dimension n - rank G" if dual else
                "rank G" if kind == LDGM else "codeword dimension n - rank H")
        raise BruteForceCapExceeded(f"support dimension {dim} ({what}) "
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
    """Code-bit value matrix X over the enumerated support: the one-graph
    case of codebit_tables, cached.

    LDGM: X has shape (2^rank G, n_chk); row k gives x_i(u) for every
    check, with u the configuration whose pivot information bits are the
    bits of k (in ascending pivot order) and whose other bits are +1, one
    per coset of the kernel of G.  A full-rank G has every variable as a
    pivot, so row k is then configuration u = k of the 2^m cube.
    LDPC: rows are the codewords, spanned from a nullspace basis of the
    parity checks in ascending order of their bitmasks (the order of a
    2^n enumeration filtered by the parity indicators); X[r, i] is spin
    i of codeword r.

    Both are the +-1 span of a basis of the code: gf2.span_signs doubles
    the graph's code_basis rows into the table, row k the product of
    the rows picked by the bits of k, which is the sign row of the XOR of
    those basis words.
    """
    return gf2.span_signs(graph.code_basis)


def codebit_tables(graphs):
    """The codebit_tables of graphs whose tables share one shape, as a
    (G, R, n) int8 stack doubled by one gf2.span_signs call over the
    graph axis from the stacked TannerGraph.code_basis rows; each slice
    is bit for bit the graph's codebit_table.  Uncached: the posterior
    pass builds the stack of a group of two or more graphs, which
    _batches bounds to one block."""
    return gf2.span_signs(np.stack([g.code_basis for g in graphs]))


#: a half's posterior probability below this is recomputed by a
#: posterior pass with that bit's LLR set to 0: its terms may be
#: subnormal or have underflowed to zero
_TINY_PROBABILITY = 1e-290

#: the rounding error a dual sum may carry: a sample whose bound n u kappa
#: passes it (u = 2^-53, kappa = sum|W| / |sum W| its cancellation), or
#: whose log-weights' bound n u |ln|t_i|| does (infinite at t_i = 0), is
#: recomputed on the primal table; the dual route is tested to equal the
#: primal table to this target
_DUAL_ROUNDING = 1e-13


#: what a posterior pass hands its finish: the graphs, the (G, R, n)
#: table stack, the (G, S, n) LLRs, the samples' positions (slice(None)
#: for all of them) and, on the dual table, t = tanh L
_Pass = namedtuple("_Pass", "graphs X L index t")


def _float_chunk(X, rows):
    """Rows of the int8 table, or of each table of a (G, R, n) stack, as
    float: the pass's one conversion, made once per row chunk and call."""
    return X[..., rows, :].astype(float)


def _row_products(A, F):
    """A @ F^T for each graph, shape (G, samples, rows), laid out so that
    numpy's row maxima and row sums run along the longer axis."""
    if F.shape[1] >= A.shape[1]:
        return A @ F.swapaxes(1, 2)
    return (F @ A.swapaxes(1, 2)).swapaxes(1, 2)


def _posterior(inst, terms, finish, dual=None, index=None):
    """The posterior pass, streamed over the table stack X of shape
    (G, R, n), one table per graph of the instance (one graph's cached
    table, or the stack built for two or more), against its values
    reshaped to LLRs L of shape (G, S, n): row chunks of at most
    BLOCK_ELEMENTS entries over all G tables on the outside, each
    converted to float once, and every block of samples against that
    chunk on the inside.  A block holds BLOCK_ELEMENTS //
    (G max(chunk rows, n)) samples, so its weights and every other
    temporary stay within the budget; no float copy of a whole table is
    made.  Every matmul, maximum and sum runs batched over the graph
    axis, each graph's slice exactly as a call on that graph alone
    would run it when the stack fits one chunk and one block.

    Each sample keeps a running maximum log-weight m and sums weighted by
    w = exp(A @ F.T - m), an online log-sum-exp: the sums are rescaled by
    exp(m_old - m_new) when m grows.  terms(F, rows) is called once per
    chunk, F of shape (G, rows, n), and returns a function mapping a
    block's w, shape (G, samples, rows), and its samples' positions to
    the chunk's share of each weighted sum, a tuple of (G, samples, ...)
    arrays.  finish(p, logz, wsum, *sums) maps log Z, the weight sum and
    those sums, all against the final maxima, to per-graph, per-sample
    results, an array or a tuple of arrays, each returned with the
    leading axes of the instance's values; p is the _Pass, and index
    the samples' positions among the caller's, an index array (default:
    all S in order, handed to terms as the block's slice).

    The table is the source table_source dispatches to when the
    reduction gives dual, its (terms, finish) on the dual table, and
    the graph's codebit_table otherwise.  On the primal table A = L and
    F is +-1; log Z counts every configuration, an LDGM row's weight
    multiplied by the size of its coset, 2^(m - rank G).  On the dual
    table, the codebit_table of the graph's dual_code read as 0/1
    (each chunk's F = (1 - F) / 2, exact), A = ln|t|, t = tanh L: the weight
    of dual word y is W(y) = prod_{i in y} t_i, its log-magnitude A @ y
    (at most 0, the empty word's, so no running maximum is kept) and its
    sign the parity of the negative t_i in y, and
    Z = 2^m_var prod_i cosh l_i sum_y W(y) (MacWilliams).  The pass then
    also sums |W| (kept from finish), so that each sample's cancellation
    kappa is known, and a sample past _DUAL_ROUNDING is recomputed by the
    primal (terms, finish) on its graph alone, which raises
    BruteForceCapExceeded if the primal table is over the cap."""
    graphs, values = inst.graphs, inst.values
    L = values.reshape(len(graphs), -1, values.shape[-1])
    pos = slice(None) if index is None else index  # the samples' positions, for finish
    # the graphs of a batch share one table_source (PosteriorInstance), and
    # the primal-only readers (the spin products, a redo) take one graph
    source = table_source(graphs[0]) if dual else (graphs[0].free_spin_count, False)
    _check_cap(inst.kind, *source)
    on_dual = source[1]
    if on_dual:
        primal, (terms, finish) = (terms, finish), dual
        X = (codebit_table(graphs[0].dual_code)[None] if len(graphs) == 1 else
             codebit_tables(tuple(g.dual_code for g in graphs)))
        limit = _DUAL_ROUNDING / (X.shape[2] * 2.0 ** -53)  # on kappa and on |ln|t_i||
        T = np.tanh(L)
        with np.errstate(divide="ignore"):
            A = np.log(np.abs(T))  # -inf at t = 0
        cosh = np.abs(L) - np.log1p(np.abs(T))  # ln cosh l, ln Z's terms
        far = False
        if A.min() < -limit:
            far = (A < -limit).any(axis=2)
            np.maximum(A, -700.0, out=A)  # no inf * 0; these samples are redone
        negative = (L < 0).astype(float)
    else:
        X = codebit_table(graphs[0])[None] if len(graphs) == 1 else codebit_tables(graphs)
        A = L
    G, R, n = X.shape
    S = L.shape[1]
    m = np.empty((G, S))
    wsum = np.zeros((G, S))
    sums = None
    for rows in block_slices(R, G * n):
        F = _float_chunk(X, rows)
        if on_dual:  # dual word y as 0/1, y_i = (1 - (-1)^y_i) / 2
            F *= -0.5
            F += 0.5
        chunk_terms = terms(F, rows)
        for samples in block_slices(S, G * max(F.shape[1:])):
            logw = _row_products(A[:, samples], F)
            if not on_dual:  # the dual's log-weights are at most 0, the empty word's
                top = logw.max(axis=2)
                if rows.start:  # carry the earlier chunks' sums over to the new maxima
                    top = np.maximum(m[:, samples], top)
                    scale = np.exp(m[:, samples] - top)  # may underflow to 0
                    for total in (wsum, *sums):
                        total[:, samples] *= scale.reshape(scale.shape + (1,) * (total.ndim - 2))
                m[:, samples] = top
                logw -= top[:, :, None]
            w = np.exp(logw, out=logw)
            parts = ()
            if on_dual:  # sum |W|, then sign each weight by its count of negative t_i
                parts = (w.sum(axis=2),)
                odd = _row_products(negative[:, samples], F) % 2.0  # exact on counts
                np.copysign(w, 0.5 - odd, out=w)
            parts += chunk_terms(w, samples if index is None else index[samples])
            if sums is None:
                sums = [np.zeros((G, S) + part.shape[2:]) for part in parts]
            for total, part in zip((wsum, *sums), (w.sum(axis=2), *parts)):
                total[:, samples] += part
    if not on_dual:
        logz = m + np.log(wsum)
        for k, g in enumerate(graphs):
            if g.coset_bits:
                logz[k] += g.coset_bits * math.log(2)
        out = finish(_Pass(graphs, X, L, pos, None), logz, wsum, *sums)
    else:
        zabs, *sums = sums
        with np.errstate(all="ignore"):  # a flagged sample's z may be <= 0
            # ln Z = ln z + sum_i ln cosh l_i + m_var ln 2
            logz = np.log(wsum) + cosh.sum(axis=2)
            logz += np.array([g.n_var for g in graphs])[:, None] * math.log(2)
            out = finish(_Pass(graphs, X, L, pos, T), logz, wsum, *sums)
        redo = (zabs > limit * wsum) | far
        outs = out if isinstance(out, tuple) else (out,)
        for k in np.flatnonzero(redo.any(axis=1)) if redo.any() else ():
            s = np.flatnonzero(redo[k])
            try:
                again = _posterior(PosteriorInstance(graphs[k], L[k, s]), *primal, None,
                                   s if index is None else index[s])
            except BruteForceCapExceeded as err:
                raise BruteForceCapExceeded(
                    f"{len(s)} sample(s) need the primal table (their dual sums cancel, or a "
                    f"t_i is near 0, past {_DUAL_ROUNDING:g}), whose {err}") from None
            for o, a in zip(outs, again if isinstance(again, tuple) else (again,)):
                o[k, s] = a
    unstack = lambda a: a.reshape(values.shape[:-1] + a.shape[2:])[()]  # () gives a scalar
    return tuple(map(unstack, out)) if isinstance(out, tuple) else unstack(out)


def _expectation(total, wsum):
    """Posterior means of +-1 functions from their weighted sums, kept
    inside [-1, 1]: the quotient of two rounded sums can miss by an ulp,
    and arctanh of such a value is NaN."""
    mean = total / wsum[..., None]
    return np.minimum(np.maximum(mean, -1.0, out=mean), 1.0, out=mean)


def _first_moments(F, rows):
    """A chunk's weighted column sums: sum w x on the primal table, and
    on the dual's a_i, the signed weight of the dual words through i."""
    return lambda w, samples: (w @ F,)


def _dual_slopes(L):
    """g_i = 1/t_i - t_i = 2 / sinh(2 l_i): flipping bit i of every dual
    word multiplies the weight of a word without i by t_i and divides that
    of a word with i by t_i, which turns z into <x_i> z = t_i z + g_i a_i."""
    return 2.0 / np.sinh(2.0 * L)


def _dual_means(p, z, a):
    """<x_i> = t_i + g_i a_i / z from the dual sums, kept inside [-1, 1]."""
    return np.clip(p.t + _dual_slopes(p.L) * a / z[..., None], -1.0, 1.0)


def partition_function(inst):
    """log Z, computed with a streaming-safe log-sum-exp (Z is a positive
    sum of exponential weights for both code families)."""
    terms = lambda F, rows: lambda w, samples: ()
    finish = lambda p, logz, wsum: logz
    return _posterior(inst, terms, finish, (terms, finish))


def all_marginals(inst):
    """<x_i> for every code bit i, as one array."""
    return _posterior(inst, _first_moments,
                      lambda p, logz, wsum, wx: _expectation(wx, wsum),
                      (_first_moments, lambda p, logz, z, a: _dual_means(p, z, a)))


def all_extrinsics(inst):
    """<x_i>_0, the marginal recomputed with l_i = 0, for every code bit at
    once: tanh(ln(Z_i+ / Z_i-) / 2 - l_i), with Z_i+- the weight of the
    configurations with x_i = +-1, the log-domain form of reweighting by
    exp(-l_i x_i), finite for any LLR magnitude.  An entry whose half
    underflows is that definition itself: bit i's marginal under its
    sample's LLRs with l_i set to 0, one row of an all_marginals pass
    per entry, graph by graph.  On the dual table, t_i = 0 keeps only the
    dual words without i: <x_i>_0 = (a_i / t_i) / (z - a_i)."""

    def chunk(F, rows):
        P, Q = np.maximum(F, 0.0), np.maximum(-F, 0.0)  # indicators of x_i = +1, -1
        return lambda w, samples: (w @ P, w @ Q)

    def finish(p, logz, wsum, zplus, zminus):
        L = p.L
        pplus, pminus = zplus / wsum[..., None], zminus / wsum[..., None]
        with np.errstate(divide="ignore"):
            out = np.tanh(0.5 * (np.log(pplus) - np.log(pminus)) - L)
        # halves whose probability underflowed; row 0 of every table is all
        # +1, and an empty -1 half (a constant column) is exactly 0 and right
        tiny_minus = pminus < _TINY_PROBABILITY
        if tiny_minus.any():
            tiny_minus &= (p.X.min(axis=1) < 0)[:, None, :]
        bad = (pplus < _TINY_PROBABILITY) | tiny_minus
        for k in np.flatnonzero(bad.any(axis=(1, 2))) if bad.any() else ():
            s, i = np.nonzero(bad[k])
            rows, entries = L[k, s], (np.arange(len(s)), i)  # one row per entry
            rows[entries] = 0.0
            out[k, s, i] = all_marginals(PosteriorInstance(p.graphs[k], rows))[entries]
        return out

    def dual_finish(p, logz, z, a):
        z = z[..., None]
        return np.clip(a / (p.t * (z - a)), -1.0, 1.0)

    return _posterior(inst, chunk, finish, (_first_moments, dual_finish))


def pair_correlation(inst, i, j):
    """<x_i x_j> - <x_i><x_j> of a single realization."""
    if i == j:
        raise ValueError("pair correlation needs distinct code bits")
    return float(correlations_with_root(inst, i)[j])


def correlations_with_root(inst, i):
    """<x_i x_j> - <x_i><x_j> for all j at once (j = i slot holds the
    variance 1 - <x_i>^2); used by the correlation-decay experiments.  For
    a block, i may also give one root per sample."""
    return moments_with_root(inst, i)[2]


def moments_with_root(inst, i):
    """(log Z, <x>, correlations_with_root(inst, i)) from one posterior
    pass: the three share its weights, and log Z and the marginals are
    bit for bit those of partition_function and all_marginals.  On the
    dual table the root's sums d_j (the signed weight of the dual words
    through both r and j) give <x_r x_j> - <x_r><x_j> =
    g_r g_j (d_j z - a_r a_j) / z^2."""
    roots = np.broadcast_to(np.asarray(i), np.atleast_2d(inst.values).shape[-2:-1])

    def chunk(F, rows):
        FT = F.swapaxes(1, 2).copy()  # root columns gathered as contiguous rows
        return lambda w, samples: (w @ F, (w * FT[:, roots[samples]]) @ F)

    def finish(p, logz, wsum, wx, wxx):
        means, joint = _expectation(wx, wsum), _expectation(wxx, wsum)
        at = (slice(None), np.arange(p.L.shape[1]), roots[p.index])  # each sample's root
        return logz, means, joint - means[at][:, :, None] * means

    def dual_finish(p, logz, z, a, d):
        means, g, z = _dual_means(p, z, a), _dual_slopes(p.L), z[..., None]
        at = (slice(None), np.arange(p.L.shape[1]), roots[p.index])
        corr = g[at][:, :, None] * g * (d * z - a[at][:, :, None] * a) / (z * z)
        corr[at] = 1.0 - means[at] ** 2
        return logz, means, corr

    return _posterior(inst, chunk, finish, (chunk, dual_finish))


def _spin_products(graph, A, B):
    """u_A u_B, u_A and u_B as the int8 columns of a table over the rows
    of an LDGM graph's codebit_table, doubled from the pivots'
    membership in A + B (symmetric difference), A and B.  u_S is
    constant on each coset of the kernel of G when S lies in the row
    space of G, and is then read off the row's pivot bits; otherwise it
    is +1 and -1 on equal halves of every coset, so its posterior mean is
    0, and its column is 0."""
    reduced = graph.reduced_checks
    masks = [gf2.mask(A) ^ gf2.mask(B), gf2.mask(A), gf2.mask(B)]
    U = gf2.span_signs(gf2.sign_rows(
        [[k for k, s in enumerate(masks) if s & p] for p in sorted(p for p, _ in reduced)], 3))
    U[:, [gf2.reduce(s, reduced) != 0 for s in masks]] = 0
    return U


def spin_product_correlation(inst, A, B):
    """<u_A u_B> - <u_A><u_B> for variable sets A, B of an LDGM instance,
    where u_S is the product of the spins in S; the quantity bounded by
    the self-avoiding-walk expansion.  It reads the pivot bits of the
    primal table's rows, so it runs on the primal table whatever
    table_source says.  The spin-product table is built once, after the
    cap check, and converted to float per row chunk."""
    g = inst.one_graph("spin_product_correlation")
    if inst.kind != LDGM:
        raise ValueError("spin products are an LDGM notion")
    products = cache(lambda: _spin_products(g, A, B))

    def chunk(F, rows):
        U = products()[rows].astype(float)
        return lambda w, samples: (w @ U,)

    def finish(p, logz, wsum, wu):
        uAB, uA, uB = np.moveaxis(_expectation(wu, wsum), -1, 0)
        return uAB - uA * uB

    return _posterior(inst, chunk, finish)


def conditional_entropy(inst):
    """Gibbs entropy of the posterior in nats per CODE BIT:
    -(1/n) sum_config p ln p, evaluated in the log domain."""

    def finish(p, logz, wsum, wx):
        # S = -sum p ln p = ln Z - sum_config p * logw, and logw = L @ x is
        # linear in the row, so sum_config p * logw = L . <x>
        return (logz - np.einsum("gsn,gsn->gs", p.L, wx) / wsum) / p.L.shape[2]

    def dual_finish(p, logz, z, a):
        return (logz - np.einsum("gsn,gsn->gs", p.L, _dual_means(p, z, a))) / p.L.shape[2]

    return _posterior(inst, _first_moments, finish, (_first_moments, dual_finish))
