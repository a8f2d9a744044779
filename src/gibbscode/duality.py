"""MacWilliams/Poisson duality for LDPC instances.

The dual view rereads the same Tanner graph as an LDGM system: dual
information bits u_a sit on the former check nodes and dual code bits
tau_i = prod_{a in d(i)} u_a on the former variable nodes.  The signed
dual partition function is

    Z_dual = sum_{u in {-1,+1}^m} prod_i (1 + e^{-2 l_i} tau_i)

and satisfies the extended MacWilliams identity

    Z = 2^{-m} e^{sum_j l_j} Z_dual.

The u-sum visits each dual codeword 2^{m-rank(H)} times, so the 2^{-m}
normalization equals |C_dual|^{-1} = 2^{-rank(H)} exactly when the parity
matrix has full row rank (no redundant checks) and is the exact
normalization in general.  The sums here run over the dual codewords
once each: graphs.dual_graph reads the dual as an LDGM graph, whose
exact.codebit_table has one row per dual codeword (2^rank(H) rows), and
each row's weight carries the factor 2^{m-rank(H)}.

Differentiating the log of the identity in the l's gives the correlation
maps checked by duality_residuals:

    <x_i>              = 1/tanh(2 l_i) - <tau_i>_dual / sinh(2 l_i)
    <x_i x_j> - <x_i><x_j> = (<tau_i tau_j>_dual - <tau_i>_dual <tau_j>_dual)
                             / (sinh(2 l_i) sinh(2 l_j))

The dual bracket is signed (weights are negative for l_i < 0 and
tau_i = -1), so everything is evaluated in sign/log-magnitude form.
The signed weights are built once per DualInstance, as one
extended-precision product over the columns of the dual table; the
partition function, the brackets and the residuals are reductions over
them.  The primal side is one posterior pass per DualInstance as well
(exact.moments_with_root): log Z, every marginal <x_i> and the
correlation row of the instance's root code bit come from the same
weights, so the MacWilliams residual and both correlation maps at a
pair (root, j) cost one pass.

In exact arithmetic Z_dual = 2^m e^{-sum l} Z >= 2^m, because the
all-plus codeword alone gives Z >= e^{sum l}.  A computed Z_dual under
2^m (1 - Z_DUAL_FLOOR) has cancelled away (large negative l's): its
brackets raise DualDegenerate, and duality_residuals reports the
residuals as nan (skipped), as it does under the sinh floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact
from .channels import block_slices
from .exact import all_marginals, moments_with_root, pair_correlation
from .graphs import LDPC, dual_graph

#: relative margin of the lower bound Z_dual >= 2^m: a computed Z_dual
#: under 2^m (1 - Z_DUAL_FLOOR) has cancelled away and raises DualDegenerate
Z_DUAL_FLOOR = 1e-12

#: |sinh 2l| floor under which the residual identities are skipped
SINH_FLOOR = 1e-3


class DualDegenerate(ArithmeticError):
    """The computed Z_dual broke its lower bound 2^m (the all-plus codeword
    alone gives Z >= e^{sum l}): the signed sum cancelled below working
    precision and its brackets carry no information."""


@dataclass(frozen=True)
class DualInstance:
    """An LDPC posterior together with its dual-LDGM reading.  root is
    the code bit whose correlation row the cached primal pass carries:
    duality_residuals at (root, j) reads that pass."""

    base: object  # PosteriorInstance of one LDPC graph and one realization
    root: int = 0

    def __post_init__(self):
        self.base.one_graph("DualInstance", realizations=False)
        if self.base.kind != LDPC:
            raise ValueError("duality is defined for LDPC instances")

    @property
    def graph(self):
        return self.base.graph

    @property
    def values(self):
        return self.base.values

    @cached_property
    def weights(self):
        """(T, W, Z_dual): the dual codewords, each one's signed weight
        (dual_weights) and their sum, built once per instance; the dual
        table is capped as exact caps an LDGM table, on its rank, rank H."""
        g = self.graph
        dual = dual_graph(g, range(g.n_var), range(g.n_chk))
        exact._check_cap(dual.kind, dual.free_spin_count)
        T, W = dual_weights(dual, self.values)
        return T, W, W.sum()

    @cached_property
    def primal(self):
        """(log Z, <x>, <x_root x_j> - <x_root><x_j> for all j): the
        primal side, one exact posterior pass per instance."""
        return moments_with_root(self.base, self.root)


def dual_weights(dual, l):
    """(T, W) for a dual graph (graphs.dual_graph) and LLRs l of its code
    bits: T = exact.codebit_table(dual), whose rows are the dual codewords
    tau, and W, the signed weight prod_i (1 + e^{-2 l_i} tau_i) of each
    codeword times the 2^coset_bits dual configurations u that give it,
    in extended precision (the signed sum cancels heavily on some draws).
    Each block of rows forms its (rows, n) factor block and multiplies it
    out along the columns in column order, one reduce; 2^coset_bits is
    an exact power of two, so where it enters does not move a bit."""
    T = exact.codebit_table(dual)
    a = np.exp(np.longdouble(-2.0) * np.asarray(l, dtype=np.longdouble))
    W = np.empty(len(T), np.longdouble)
    for rows in block_slices(*T.shape):
        W[rows] = np.multiply.reduce(1.0 + a * T[rows], axis=1)
    W *= 2.0 ** dual.coset_bits
    return T, W


def signed_log(total):
    """(sign, log|total|) of a signed sum; (0.0, -inf) when it is zero."""
    if total == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, float(total)), float(np.log(np.abs(total)))


def dual_partition(dinst):
    """(sign, log|Z_dual|) by exact enumeration over the dual spins."""
    return signed_log(dinst.weights[2])


def dual_bracket(dinst, S):
    """<prod_{i in S} tau_i>_dual, a signed ratio (not a probability);
    raises DualDegenerate when Z_dual breaks its lower bound."""
    T, W, z = dinst.weights
    if z < 2.0 ** dinst.graph.n_chk * (1.0 - Z_DUAL_FLOOR):
        raise DualDegenerate("dual partition function below its bound 2^m")
    extra = np.ones(T.shape[0], dtype=np.longdouble)
    for i in S:
        extra *= T[:, i]
    return float((W @ extra) / z)


def dual_bracket_via_primal(dinst, S):
    """Invert the correlation maps to express dual brackets through the
    (always well-conditioned) primal marginals; |S| in {1, 2} only.  The
    reference dual_bracket is tested against."""
    S = tuple(S)
    l = dinst.values
    marg = all_marginals(dinst.base)
    if len(S) == 1:
        i = S[0]
        return math.cosh(2 * l[i]) - math.sinh(2 * l[i]) * marg[i]
    if len(S) == 2:
        i, j = S
        ti = math.cosh(2 * l[i]) - math.sinh(2 * l[i]) * marg[i]
        tj = math.cosh(2 * l[j]) - math.sinh(2 * l[j]) * marg[j]
        corr = pair_correlation(dinst.base, i, j)
        return corr * math.sinh(2 * l[i]) * math.sinh(2 * l[j]) + ti * tj
    raise ValueError("primal fallback covers singletons and pairs only")


def macwilliams_log_residual(dinst):
    """Relative residual |Z - 2^{-m} e^{sum l} Z_dual| / Z computed in the
    log domain; the acceptance identity.  The 2^{-m} normalization equals
    |C_dual|^{-1} whenever the parity matrix has full row rank."""
    logz = dinst.primal[0]
    zs, zl = dual_partition(dinst)
    log_rhs_mag = zl + float(np.sum(dinst.values)) - dinst.graph.n_chk * math.log(2.0)
    if zs <= 0.0:
        return math.inf  # Z is positive; a nonpositive dual side is maximal error
    return abs(math.expm1(log_rhs_mag - logz))


def duality_residuals(dinst, i, j):
    """(r1, r2): absolute residuals of the first- and second-derivative
    correlation maps at code bits i and j, primal side from the exact
    Gibbs module: the instance's cached pass when i is its root, one
    pass rooted at i otherwise.  A residual is returned as nan (skipped)
    when its |sinh 2l| is at most SINH_FLOOR (the identity has a
    removable singularity at l = 0) or when Z_dual is degenerate
    (DualDegenerate)."""
    l = dinst.values
    _, marg, corr = dinst.primal if i == dinst.root else moments_with_root(dinst.base, i)
    si, sj = math.sinh(2 * l[i]), math.sinh(2 * l[j])
    r1 = r2 = math.nan
    if abs(si) <= SINH_FLOOR:
        return r1, r2
    try:
        ti = dual_bracket(dinst, (i,))
    except DualDegenerate:
        return r1, r2
    r1 = abs(marg[i] - (1.0 / math.tanh(2 * l[i]) - ti / si))
    if abs(sj) > SINH_FLOOR:
        tj = dual_bracket(dinst, (j,))
        tij = dual_bracket(dinst, (i, j))
        r2 = abs(float(corr[j]) - (tij - ti * tj) / (si * sj))
    return r1, r2
