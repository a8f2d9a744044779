"""Sum-product message passing for both code families, on the original
graph and on computational trees.

Flooding schedule, zero message initialization.  One full iteration moves
information two edge hops, so d iterations on the graph reproduce the
exact Gibbs marginal on the depth-2d computational tree with the natural
boundary conditions: LDPC leaves keep their channel observations, LDGM
leaf checks (whose variable children were truncated) marginalize to
constants and drop out.

Message rules (messages are half-loglikelihoods of +1 vs -1):

  LDPC:  v2c = l_i + sum of other c2v;   c2v = atanh(prod other tanh v2c)
  LDGM:  v2c = sum of other c2v;         c2v = atanh(tanh l_c * prod other tanh v2c)

Check updates run in Gallager's log domain: with psi(x) = -ln tanh|x|,
a check sends psi^-1(sum of the others' psi), where psi^-1(s) =
atanh(e^-s) = psi(s/2)/2, with the parity of the others' signs; an LDGM
check counts its observation l_c as one more message.  A zero message
(infinite psi, also below about 1e-308) is counted, not summed, and
zeroes the others' outputs.  One bincount per term sums each check, and
a message takes the total minus its own term, which loses about
u * total when the own psi dominates: a check that sees one moderate
message among saturated ones answers the moderate one with L_SAT.
Messages otherwise keep their value up to the saturation bound
L_SAT = 30 nats.

Fixed-point exit: an iteration is a deterministic map of the messages it
reads (c2v for LDPC, whose v2c follow from them and the LLRs; v2c for
LDGM).  Once an iteration leaves those bitwise unchanged for a sample,
every later one would too, so that sample stops flooding and leaves the
active block; its state, and every estimate read from it, equal the
d-iteration result bit for bit.  The comparison is of bit patterns, not
values within a tolerance.  A sample whose messages keep moving at the
rounding level (many loopy floods and some trees) runs all d iterations.

Code-bit outputs: LDPC marginal tanh(l_i + sum c2v); LDGM check i reads
the same check sums over all its incoming v2c as a field c_i and returns
tanh(l_i + c_i).  Extrinsic estimates drop the own-l term: tanh(sum c2v)
(LDPC) or tanh(c_i) (LDGM); messages elsewhere keep their l's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import L_SAT, block_slices
from .graphs import LDGM, LDPC


@dataclass
class MessageState:
    """Per-edge messages after some number of flooding iterations, shape
    (n_edges,) for one realization or (S, n_edges) for a block."""

    v2c: np.ndarray
    c2v: np.ndarray


@lru_cache(maxsize=32)
def _edge_index(graph):
    evar, echk = [], []
    for v in range(graph.n_var):
        for c in graph.adj_var[v]:
            evar.append(v)
            echk.append(c)
    return np.array(evar, dtype=np.intp), np.array(echk, dtype=np.intp)


def _psi_terms(msgs):
    """A message's three check terms: psi(msg) = -ln tanh|msg| (0 where
    it is infinite), whether msg is negative, and whether psi is
    infinite (a zero message)."""
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.log1p(2.0 / np.expm1(2.0 * np.abs(msgs)))
    zero = ~np.isfinite(psi)
    psi[zero] = 0.0
    return psi, msgs < 0, zero


def _check_sums(msgs, groups, n_groups, obs=None):
    """The check reduction: the (psi, negative, zero) terms of messages
    msgs[e] and, per check groups[e], their sums, plus the terms obs of
    each check's own observation when given (LDGM)."""
    terms = _psi_terms(msgs)
    sums = [np.bincount(groups, weights=t, minlength=n_groups) for t in terms]
    if obs is not None:
        sums = [s + o for s, o in zip(sums, obs)]
    return terms, sums


def _check_message(psi, neg, zero):
    """The check output for summed terms: psi^-1(psi) clipped at L_SAT,
    negative for an odd count of negative terms, and 0 when a term is
    zero.  The counts are whole floats; the parity reads them as integers,
    since numpy's float % 2 takes longer than the rest of the kernel."""
    with np.errstate(divide="ignore", over="ignore"):
        mag = np.minimum(0.5 * np.log1p(2.0 / np.expm1(psi)), L_SAT)
    return np.where(zero > 0, 0.0, np.where(neg.astype(np.intp) & 1, -mag, mag))


def _sample_groups(index, n_nodes, samples):
    """Flat group ids of the (samples, n_edges) message block for an
    edge-to-node index: sample s's nodes are offset by s * n_nodes, so one
    bincount over the flattened block sums every sample at once."""
    return (index + n_nodes * np.arange(samples)[:, None]).ravel()


def _run_messages(inst, d):
    """d flooding iterations from zero messages; returns MessageState."""
    shape = inst.values.shape[:-1] + (inst.graph.n_edges,)
    return _run_messages_from(inst, MessageState(np.zeros(shape), np.zeros(shape)), d)


def _codebit_estimates(inst, state, extrinsic):
    g = inst.graph
    evar, echk = _edge_index(g)
    l = np.atleast_2d(inst.values)
    S = len(l)
    if g.kind == LDPC:
        tot = np.bincount(_sample_groups(evar, g.n_var, S), weights=state.c2v.ravel(),
                          minlength=S * g.n_var).reshape(S, g.n_var)
        field = tot if extrinsic else l + tot
        est = np.tanh(np.clip(field, -L_SAT, L_SAT))
    else:
        _, sums = _check_sums(state.v2c.ravel(), _sample_groups(echk, g.n_chk, S), S * g.n_chk)
        c = _check_message(*sums).reshape(S, g.n_chk)
        est = np.tanh(c if extrinsic else l + c)
    return est.reshape(inst.values.shape)


def bp_run(inst, d):
    """Flooding sum-product for d full iterations from zero messages;
    returns the per-code-bit marginal estimates (per sample, for an
    instance holding a block of LLR draws)."""
    return _codebit_estimates(inst, _run_messages(inst, d), extrinsic=False)


def bp_all_extrinsics(inst, d):
    """Extrinsic BP estimates <x_i>_{0,d} for every code bit: own observation
    removed at the root only (cycles still carry l_i into the messages)."""
    return _codebit_estimates(inst, _run_messages(inst, d), extrinsic=True)


def bp_checkpoint_extrinsics(inst, depths):
    """Extrinsic estimates at several iteration depths from one message
    run (shared noise; used by the iteration-vs-blocklength experiment)."""
    depths = sorted(set(depths))
    out = {}
    state = _run_messages(inst, 0)
    last = 0
    for d in depths:
        state, last = _run_messages_from(inst, state, d - last), d
        out[d] = _codebit_estimates(inst, state, extrinsic=True)
    return out


def _run_messages_from(inst, state, extra_iters):
    """Continue flooding from an existing MessageState, over blocks of at
    most BLOCK_ELEMENTS messages (samples x edges)."""
    if extra_iters < 0:
        raise ValueError("iteration count must be >= 0")
    g = inst.graph
    l = np.atleast_2d(inst.values)
    v2c = np.atleast_2d(state.v2c).copy()
    c2v = np.atleast_2d(state.c2v).copy()
    for samples in block_slices(len(l), g.n_edges):
        _flood(g, l[samples], v2c[samples], c2v[samples], extra_iters)
    shape = state.v2c.shape
    return MessageState(v2c.reshape(shape), c2v.reshape(shape))


def _flood(g, l, v2c, c2v, iters):
    """iters flooding iterations, in place, on an (S, n_edges) message
    block with (S, code bits) LLRs; a sample leaves the block at its
    fixed point (the module docstring's exit).  Dropping rows keeps the
    other samples' values bit for bit: no two samples share a bincount
    group, and bincount adds a group's edges in edge order whatever the
    block holds."""
    evar, echk = _edge_index(g)
    E = g.n_edges
    rows = np.arange(len(l))  # block rows still flooding
    var_groups = _sample_groups(evar, g.n_var, len(l))
    chk_groups = _sample_groups(echk, g.n_chk, len(l))
    if g.kind == LDPC:
        per_row = dict(l_edge=l[:, evar].ravel())
    else:
        per_row = dict(zip(("psi", "neg", "zero"), _psi_terms(l.ravel())))
    bv2c, bc2v = v2c.ravel(), c2v.ravel()
    for _ in range(iters):
        S = len(rows)
        if S == 0:
            break
        read = bc2v if g.kind == LDPC else bv2c  # what this iteration maps
        if g.kind == LDPC:
            tot = np.bincount(var_groups, weights=bc2v, minlength=S * g.n_var)
            bv2c = per_row["l_edge"] + tot[var_groups] - bc2v
            np.clip(bv2c, -L_SAT, L_SAT, out=bv2c)
        obs = None if g.kind == LDPC else tuple(per_row.values())
        own, sums = _check_sums(bv2c, chk_groups, S * g.n_chk, obs)
        bc2v = _check_message(*(s[chk_groups] - o for s, o in zip(sums, own)))
        if g.kind == LDGM:
            tot = np.bincount(var_groups, weights=bc2v, minlength=S * g.n_var)
            bv2c = tot[var_groups] - bc2v
            np.clip(bv2c, -L_SAT, L_SAT, out=bv2c)
        # bit patterns, not ==: -0.0 == 0.0, and the CSV prints them apart
        now = bc2v if g.kind == LDPC else bv2c
        settled = (now.view(np.int64) == read.view(np.int64)).reshape(S, E).all(axis=1)
        if settled.any():
            keep = ~settled
            bv2c, bc2v = bv2c.reshape(S, E), bc2v.reshape(S, E)
            v2c[rows[settled]], c2v[rows[settled]] = bv2c[settled], bc2v[settled]
            rows, bv2c, bc2v = rows[keep], bv2c[keep].ravel(), bc2v[keep].ravel()
            per_row = {k: a.reshape(S, -1)[keep].ravel() for k, a in per_row.items()}
            var_groups, chk_groups = var_groups[:len(rows) * E], chk_groups[:len(rows) * E]
    v2c[rows], c2v[rows] = bv2c.reshape(len(rows), E), bc2v.reshape(len(rows), E)


# ---------------------------------------------------------------------------
# exact Gibbs computation on computational trees
# ---------------------------------------------------------------------------

def tree_decode(ct, inst, pair_nodes=()):
    """Exact Gibbs marginal at the root of a computational tree, with
    likelihoods pulled back through the projection (hence correlated
    across tree nodes), plus optional root-to-node covariances.

    pair_nodes are TREE node ids of code-bit type; the return value is
    (root_marginal, {k: <x_root x_k> - <x_root><x_k>}).
    """
    code_type = "chk" if inst.kind == LDGM else "var"
    for k in pair_nodes:
        if k == 0 or ct.node_type[k] != code_type:
            raise ValueError(f"pair node {k} must be a non-root code-bit node")
    logZ0, val0 = _tree_eval(ct, inst, frozenset())
    logZr, valr = _tree_eval(ct, inst, frozenset([0]))
    root_mean = valr / val0 * math.exp(logZr - logZ0)
    corrs = {}
    for k in pair_nodes:
        logZk, valk = _tree_eval(ct, inst, frozenset([k]))
        logZrk, valrk = _tree_eval(ct, inst, frozenset([0, k]))
        mk = valk / val0 * math.exp(logZk - logZ0)
        mrk = valrk / val0 * math.exp(logZrk - logZ0)
        corrs[k] = mrk - root_mean * mk
    return root_mean, corrs


def _tree_eval(ct, inst, inserts):
    """Sum over tree spin configurations of the Gibbs weight times the
    product of inserted code-bit observables.  Returns (logscale, value)
    with |value| <= 1: the sum equals value * exp(logscale).

    Messages are pairs over the node's spin (LDGM: info-bit spin at var
    nodes; check factors carry observations).  Checks whose variable
    children were truncated get one aggregate phantom spin summed
    uniformly, which reproduces the zero-initialized BP boundary."""
    g, l = inst.graph, inst.values
    kind = inst.kind
    order = sorted(range(ct.n_nodes), key=lambda k: -ct.node_depth[k])
    msg = {}
    logscale = 0.0
    for k in order:
        typ, img = ct.node_type[k], ct.proj[k]
        ch = ct.children[k]
        if kind == LDGM:
            if typ == "var":
                up, down = 1.0, 1.0  # components for u = +1 / -1
                for c in ch:
                    up *= msg[c][0]
                    down *= msg[c][1]
                vec = (up, down)
            else:
                # combine var children into distribution of their product
                qp, qm = 1.0, 0.0
                for c in ch:
                    qp, qm = qp * msg[c][0] + qm * msg[c][1], qp * msg[c][1] + qm * msg[c][0]
                deg = len(g.adj_chk[img])
                present = len(ch) + (0 if ct.parent[k] == -1 else 1)
                phantom = deg > present
                lc = l[img]
                ins = k in inserts
                if ct.parent[k] == -1:
                    vec = (_ldgm_check_total(qp, qm, 1.0, lc, phantom, ins), 0.0)
                else:
                    vec = (_ldgm_check_total(qp, qm, 1.0, lc, phantom, ins),
                           _ldgm_check_total(qp, qm, -1.0, lc, phantom, ins))
        else:
            if typ == "var":
                lv = l[img]
                up, down = math.exp(min(lv, L_SAT)), math.exp(max(-lv, -L_SAT))
                for c in ch:
                    up *= msg[c][0]
                    down *= msg[c][1]
                if k in inserts:
                    down = -down
                vec = (up, down)
            else:
                qp, qm = 1.0, 0.0
                for c in ch:
                    qp, qm = qp * msg[c][0] + qm * msg[c][1], qp * msg[c][1] + qm * msg[c][0]
                if ct.parent[k] == -1:
                    vec = (qp, 0.0)  # unreachable: LDPC roots are variables
                else:
                    vec = (qp, qm)  # parity: parent +1 needs product +1
        m = max(abs(vec[0]), abs(vec[1]))
        if m == 0.0:
            return logscale, 0.0
        logscale += math.log(m)
        msg[k] = (vec[0] / m, vec[1] / m)

    root = msg[0]
    if kind == LDGM:
        return logscale, root[0]
    return logscale, root[0] + root[1]


def _ldgm_check_total(qp, qm, u_par, lc, phantom, insert):
    """Sum over the product spin (and the phantom spin when truncated) of
    e^{lc * sigma} [* sigma if inserted], where sigma = u_par * pi * s."""
    tot = 0.0
    for pi, q in ((1.0, qp), (-1.0, qm)):
        if q == 0.0:
            continue
        ss = (1.0, -1.0) if phantom else (1.0,)
        for s in ss:
            sigma = u_par * pi * s
            w = math.exp(lc * sigma)
            if insert:
                w *= sigma
            tot += q * w
    return tot
