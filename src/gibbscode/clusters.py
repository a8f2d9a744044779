"""Executable cluster expansions: the self-avoiding-walk (DKP) bound for
LDGM correlations and the Berretti expansion for the LDPC dual bracket.

DKP side (LDGM, high noise).  For variable sets A, B and a threshold H,

    |<u_A u_B> - <u_A><u_B>|  <=  2 sum_{w in W_AB} prod_{c in w} rho_c

where W_AB are the self-avoiding walks from A to B, the product runs over
the CHECK nodes of the walk, rho_c = 1 when |l_c| > H ("bad" checks) and
rho_c = e^{4|l_c|} - 1 otherwise.  Averaging over the noise replaces
rho_c by delta(eps, H) and counting walks by K^len (K = l_max k_max)
gives the closed geometric form of dkp_avg_bound.

Berretti side (LDPC dual, low noise).  With two spin replicas on the
dual system,

    <tau_i tau_j>_dual - <tau_i>_dual <tau_j>_dual
        = (1/2) sum_{Xhat} K_ij(Xhat) (Z_dual(Xhat^c) / Z_dual)^2

where Xhat ranges over check clusters of the form boundary(Y) for
hyperedge-connected variable sets Y containing i and j, and K_ij sums
(tau_i^1 - tau_i^2)(tau_j^1 - tau_j^2) prod_{k in Gamma} E_k over the
replica pair restricted to Xhat and over the compatible Gamma, with
E_k = e^{-2 l_k}(tau_k^1 + tau_k^2) + e^{-4 l_k} tau_k^1 tau_k^2.

Compatibility is implemented in the exact form required for the identity
to close: Gamma is compatible with Xhat iff Gamma | {i, j} is
hyperedge-connected and its boundary together with d(i), d(j) equals
Xhat exactly.  (Gamma may contain i or j; Gamma = empty is compatible
precisely when i and j share a check.)  This subsumes the walk condition:
a connected Y holds a walk from d(i) to d(j).

The graph searches are graphs.hop_distances: one search inside each
candidate Y tests its connectivity.  The replica sums and the reduced
dual partition functions run over the dual codewords of exact's table
on graphs.dual_graph, each standing for the 2^coset_bits dual
configurations that give it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exact, gf2
from .channels import delta_dual, delta_high, sinh_neg_moment
from .duality import DualInstance, dual_bracket, dual_partition, dual_weights, signed_log
# spin_product_correlation is not called here, but gcbench/layers.py wraps
# clusters.spin_product_correlation by name, so it stays bound
from .exact import partition_function, spin_product_correlation
from .graphs import (LDGM, LDPC, EnumerationCapExceeded, dual_graph, enumerate_saws,
                     graph_distance, hop_distances, same_type_distance)

#: cluster enumeration refuses more candidate sets (2^(n_var - 2)) than this
CLUSTER_ENUM_CAP = 10 ** 6

#: replica_g_sums refuses more good checks than this (2^good subsets)
REPLICA_GOOD_CAP = 12

#: replica enumeration refuses above this cluster size (4^size pairs)
REPLICA_CAP = 10


@dataclass(frozen=True)
class BadSet:
    """Code-bit nodes whose |l| exceeds the threshold H."""

    threshold: float
    members: frozenset

    @classmethod
    def from_instance(cls, inst, H):
        l = inst.values
        return cls(H, frozenset(int(i) for i in np.flatnonzero(np.abs(l) > H)))


# ---------------------------------------------------------------------------
# self-avoiding-walk bound
# ---------------------------------------------------------------------------

def dkp_pointwise_bound(inst, A, B, H, max_len=None):
    """(bound, truncated): 2 sum over walks of prod rho_c, a float for one
    noise realization or one value per sample of a block (each row equals
    its one-realization bound bit for bit).  truncated is True when max_len
    may not exhaust W_AB, in which case the value is a lower bound OF the bound."""
    g = inst.one_graph("dkp_pointwise_bound")
    if inst.kind != LDGM:
        raise ValueError("the walk bound applies to LDGM instances")
    exhaustive_len = min(g.n_chk, max(g.n_var - 1, 0))
    if max_len is None:
        max_len = exhaustive_len
    walks = enumerate_saws(g, A, B, max_len)
    l = np.abs(np.atleast_2d(inst.values))
    rho, kept = np.ones_like(l), l <= H
    rho[kept] = np.expm1(4.0 * l[kept])  # only there: it overflows at large |l|
    total = np.zeros(len(l))
    for w in walks:
        prod = np.ones(len(l))
        for c in w.chks:
            prod *= rho[:, c]
        total += prod
    bound = 2.0 * total
    return (bound if inst.values.ndim == 2 else float(bound[0])), max_len < exhaustive_len


def dkp_avg_bound(g, ch, A, B, H):
    """(bound, diverged): the noise-averaged closed form
    2 |A| |B| (K delta)^dist / (1 - K delta) with K = l_max k_max,
    delta = delta_high(ch, H) and dist the minimal walk length between
    A and B.  diverged is True when K delta >= 1."""
    if g.kind != LDGM:
        raise ValueError("the walk bound applies to LDGM graphs")
    K = g.l_max * g.k_max
    delta = delta_high(ch, H)
    if K * delta >= 1.0:
        return math.inf, True
    dist = same_type_distance(g, "var", list(A), list(B))
    if math.isinf(dist):
        return 0.0, False
    return 2.0 * len(A) * len(B) * (K * delta) ** dist / (1.0 - K * delta), False


# ---------------------------------------------------------------------------
# cluster enumeration for the dual expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterTerm:
    """A check cluster Xhat with its compatible Gamma sets."""

    xhat: frozenset
    gammas: tuple  # of frozensets of variable ids


def enumerate_clusters(g, i, j):
    """All cluster terms for the pair (i, j): every hyperedge-connected
    variable set Y containing i and j, grouped into check clusters
    Xhat = boundary(Y); each Y contributes the compatible sets Gamma = Y
    minus any subset of {i, j}.  Returns [] when i and j lie in different
    components."""
    if g.kind != LDPC:
        raise ValueError("the dual expansion applies to LDPC graphs")
    if i == j:
        raise ValueError("cluster terms need distinct code bits")
    others = [v for v in range(g.n_var) if v not in (i, j)]
    if 2 ** len(others) > CLUSTER_ENUM_CAP:
        raise EnumerationCapExceeded(
            f"{2 ** len(others)} candidate sets exceed cap {CLUSTER_ENUM_CAP}")
    by_xhat = {}
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            Y = frozenset(extra) | {i, j}
            dist = hop_distances(g, "var", (j,), within=Y)
            if any(math.isinf(dist[v]) for v in Y):
                continue
            xhat = frozenset(c for v in Y for c in g.adj_var[v])
            by_xhat.setdefault(xhat, []).append(Y)
    return [ClusterTerm(xhat, tuple(Y - frozenset(drop) for Y in by_xhat[xhat]
                                    for drop in ((), (i,), (j,), (i, j))))
            for xhat in sorted(by_xhat, key=lambda x: (len(x), sorted(x)))]


def reduced_dual_partition(inst, xhat):
    """(sign, log|Z_dual(Xhat^c)|): dual spins on the checks outside Xhat,
    weights over the variables with no neighbor in Xhat."""
    g = inst.graph
    comp = [c for c in range(g.n_chk) if c not in xhat]
    keep = [v for v in range(g.n_var) if not (set(g.adj_var[v]) & xhat)]
    _, W = dual_weights(dual_graph(g, keep, comp), inst.values[keep])
    return signed_log(W.sum())


def berretti_term(inst, term, i, j):
    """(K_ij(Xhat), sign, log|Z_dual(Xhat^c)|) for one cluster term, by
    exact enumeration of the two replicas restricted to Xhat: each replica
    runs over the dual codewords of the checks in Xhat, each standing for
    2^coset_bits of their configurations, so a pair stands for 4^coset_bits."""
    g = inst.graph
    if len(term.xhat) > REPLICA_CAP:
        raise EnumerationCapExceeded(
            f"cluster of size {len(term.xhat)} exceeds replica cap {REPLICA_CAP}")
    vars_needed = list({i, j}.union(*term.gammas))
    dual = dual_graph(g, vars_needed, sorted(term.xhat))
    signs = exact.codebit_table(dual)
    cols = dict(zip(vars_needed, np.ascontiguousarray(signs.T, dtype=float)))
    l = inst.values
    ti, tj = cols[i], cols[j]
    Fi = ti[:, None] - ti[None, :]
    Fj = tj[:, None] - tj[None, :]
    gamma_sum = np.zeros_like(Fi)
    for gamma in term.gammas:
        prod = np.ones_like(Fi)
        for k in gamma:
            e2 = math.exp(-2.0 * l[k])
            tk = cols[k]
            prod *= e2 * (tk[:, None] + tk[None, :]) + e2 * e2 * tk[:, None] * tk[None, :]
        gamma_sum += prod
    K = float((Fi * Fj * gamma_sum).sum()) * 4.0 ** dual.coset_bits
    zs, zl = reduced_dual_partition(inst, term.xhat)
    return K, zs, zl


def berretti_identity_residual(inst, i, j):
    """|dual pair bracket - (1/2) sum_Xhat K_ij (Z_dual(Xhat^c)/Z_dual)^2|
    with the left side from the duality module and the right side from
    exhaustive cluster enumeration; an exact identity on small graphs."""
    dinst = DualInstance(inst)
    lhs = dual_bracket(dinst, (i, j)) - dual_bracket(dinst, (i,)) * dual_bracket(dinst, (j,))
    _, zlog = dual_partition(dinst)
    rhs = 0.0
    for term in enumerate_clusters(inst.graph, i, j):
        K, zs, zl = berretti_term(inst, term, i, j)
        if zs != 0.0:
            rhs += 0.5 * K * math.exp(2.0 * (zl - zlog))
    return abs(lhs - rhs)


def berretti_avg_bound(g, ch, i, j, s):
    """(bound, diverged): the assembled noise-averaged bound on
    E|<x_i x_j> - <x_i><x_j>| for an LDPC graph at low noise:

        2^{1-s} E[|sinh 2l|^{-2s}]
            * sqrt( 2^{-2s} sum_{h >= dist(i,j)/2}
                    K^h 2^{(2+k_max) h} Delta^{(h - 2 l_max) * rate} )

    with Delta = delta_dual(ch, s), K = l_max k_max, and rate the weaker
    (larger-valued) of 1/l_max and 1/(2 l_max) exponent conventions.
    diverged is True when the geometric ratio reaches 1."""
    if g.kind != LDPC:
        raise ValueError("the dual bound applies to LDPC graphs")
    if not 0.0 < s < 0.5:
        raise ValueError("s must lie in (0, 1/2)")
    prefactor = 2.0 ** (1 - s) * sinh_neg_moment(ch, s)
    Delta = delta_dual(ch, s)
    K = g.l_max * g.k_max
    rate = 1.0 / (2.0 * g.l_max) if Delta < 1.0 else 1.0 / g.l_max
    ratio = K * 2.0 ** (2 + g.k_max) * Delta ** rate
    if ratio >= 1.0:
        return math.inf, True
    dist = graph_distance(g, i, j)
    if math.isinf(dist):
        return 0.0, False
    h0 = max(1, math.ceil(dist / 2))
    first = K ** h0 * 2.0 ** ((2 + g.k_max) * h0) * Delta ** ((h0 - 2 * g.l_max) * rate)
    inner = 2.0 ** (-2 * s) * first / (1.0 - ratio)
    return prefactor * math.sqrt(inner), False


# ---------------------------------------------------------------------------
# exhaustive evaluator for the replicated-weight decomposition (test aid)
# ---------------------------------------------------------------------------

def _replica_tables(inst, A, B):
    """Config-pair matrices for the replicated LDGM measure: per-check
    weight factors M_c and the product f_A f_B of replica differences,
    over all 2^n_var configurations u of each replica (the posterior
    pass's table keeps one per coset of the kernel of G instead), in
    ascending order: the span doubled from each variable's incidence
    row, -1 on its checks and on u_A, u_B if it lies in A, B."""
    g = inst.graph
    signs = gf2.span_signs(gf2.sign_rows(
        [[*g.adj_var[v], *(g.n_chk + k for k, S in enumerate((A, B)) if v in S)]
         for v in range(g.n_var)], g.n_chk + 2)).astype(float)
    X, uA, uB = signs[:, :g.n_chk], signs[:, -2], signs[:, -1]  # (configs, n_chk), u_A, u_B
    l = inst.values
    FAB = (uA[:, None] - uA[None, :]) * (uB[:, None] - uB[None, :])
    Ms = [np.exp(l[c] * (X[:, c][:, None] + X[:, c][None, :]) + 2.0 * abs(l[c]))
          for c in range(g.n_chk)]
    return FAB, Ms


def replica_g_sums(inst, A, B, H):
    """(connecting_sum, nonconnecting_sum) of the replicated-measure
    decomposition over subsets G of the good checks:

        term(G) = (1/(2 Z'^2)) sum_{u^1, u^2} f_A f_B
                  prod_{c bad} M_c prod_{c in G} (M_c - 1)

    The two sums partition the full expansion, whose total equals the
    exact correlation <u_A u_B> - <u_A><u_B>; terms with G not connecting
    A and B vanish identically.  Exhaustive and test-only (2^good terms)."""
    if inst.kind != LDGM:
        raise ValueError("the replicated decomposition applies to LDGM")
    g = inst.graph
    bad = sorted(BadSet.from_instance(inst, H).members)
    good = [c for c in range(g.n_chk) if c not in bad]
    if len(good) > REPLICA_GOOD_CAP:
        raise EnumerationCapExceeded(f"{len(good)} good checks exceed cap {REPLICA_GOOD_CAP}")
    FAB, Ms = _replica_tables(inst, A, B)
    base = np.ones_like(FAB)
    for c in bad:
        base *= Ms[c]
    logzp = partition_function(inst) + float(np.sum(np.abs(inst.values)))
    scale = math.exp(-2.0 * logzp) / 2.0
    con = noncon = 0.0
    bad_set = set(bad)
    for r in range(len(good) + 1):
        for G in itertools.combinations(good, r):
            prod = base.copy()
            for c in G:
                prod *= Ms[c] - 1.0
            val = scale * float((FAB * prod).sum())
            reach = hop_distances(g, "var", A, through=bad_set.union(G))
            if any(reach[v] < math.inf for v in B):
                con += val
            else:
                noncon += val
    return con, noncon
