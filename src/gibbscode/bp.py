"""Sum-product message passing for both code families, on the original
graph and on computational trees.

Flooding schedule, zero message initialization.  One full iteration moves
information two edge hops, so d iterations on the graph reproduce the
exact Gibbs marginal on the depth-2d computational tree with the natural
boundary conditions: LDPC leaves keep their channel observations, LDGM
leaf checks (whose variable children were truncated) marginalize to
constants and drop out.

The messages are two plain (samples, n_edges) arrays, v2c and c2v, with
edges in TannerGraph.edges() order.  One flood (_flood_depths) runs from
zero messages over sample blocks of at most BLOCK_ELEMENTS messages and
reads the code-bit estimates at each requested depth on the way;
bp_run, bp_all_extrinsics and bp_checkpoint_extrinsics are its views.
It floods each distinct LLR row once, so callers pass their draws as
they come (the BP-GEXIT routes: one graph's noise chunk at a time).

Message rules (messages are half-loglikelihoods of +1 vs -1):

  LDPC:  v2c = l_i + sum of other c2v;   c2v = atanh(prod other tanh v2c)
  LDGM:  v2c = sum of other c2v;         c2v = atanh(tanh l_c * prod other tanh v2c)

Check updates run in Gallager's log domain: with psi(x) = -ln tanh|x|,
a check sends psi^-1(sum of the others' psi), where psi^-1(s) =
atanh(e^-s) = psi(s/2)/2, with the parity of the others' signs; an LDGM
check counts its observation l_c as one more message.  A zero message
(infinite psi, also below about 1e-308) is counted, not summed, and
zeroes the others' outputs.  Each message has two terms: its psi (0 for
a zero message) and one count, neg + 2^20 zero, so a check's total
count carries the parity of its negative terms in its low bit and marks
a zero term by reaching 2^20 (an even weight above any degree).  One
bincount per term sums each check, and a message takes the totals minus
its own terms, except where its own psi exceeds the rest 2^20 times over
(at most one message per check): there the subtraction would lose the
rest to the rounding of the total, about u * total, so a check that
sees one moderate message among saturated ones would answer it with
L_SAT; a second bincount without the dominating terms gives the rest
instead.  Messages keep their value up to the saturation bound L_SAT =
30 nats.

psi(0) = inf and the overflow of psi or psi^-1 to 0 at large arguments
are intended values, not errors.  The check helpers do not silence them
themselves: each flood (_flood) and each LDGM code-bit estimate enters
np.errstate once, around all its iterations, and a caller of the
helpers outside those holds the same errstate.

Fixed-point and cycle exits: an iteration is a deterministic map of the
messages it reads (c2v for LDPC, whose v2c follow from them and the
LLRs; v2c for LDGM).  Once an iteration leaves those bitwise unchanged
for a sample, every later one would too, so that sample stops flooding
and leaves the active block.  Every _CYCLE-th iteration of a flood also
compares each sample's read messages with their bits _CYCLE iterations
before: a sample that matches repeats with a period dividing _CYCLE, so
it runs the (iters - t) % _CYCLE iterations that bring it to the phase
of iteration iters, and leaves.  Either way its state, and every
estimate read from it, equal the d-iteration result bit for bit.  The
comparisons are of bit patterns, not values within a tolerance.  A
sample whose messages keep moving at the rounding level, or repeat with
a period that _CYCLE is not a multiple of (some trees repeat with period
3, 5 or 6), runs all d iterations.

Code-bit outputs: LDPC marginal tanh(l_i + sum c2v); LDGM check i reads
the same check sums over all its incoming v2c as a field c_i and returns
tanh(l_i + c_i).  Extrinsic estimates drop the own-l term: tanh(sum c2v)
(LDPC) or tanh(c_i) (LDGM); messages elsewhere keep their l's.

Computational trees (tree_decode) are summed exactly rather than
flooded: one bottom-up sweep per set of inserted code-bit observables
(none, then each pair node) returns the tree sum both without and with
the root's observable inserted, since the two differ only in the root's
factor; each of the two root sums is normalised on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import L_SAT, block_slices
from .graphs import LDGM, LDPC


#: a zero message's weight in its check's count term: even, so a
#: count's low bit stays the parity of the negative terms, and larger
#: than any check degree, so a count of at least _ZERO marks a zero term
_ZERO = 2.0 ** 20

#: the np.errstate of the psi maps (module docstring): psi(0) = inf
#: divides by 0, and psi or psi^-1 of a large argument overflows to 0
_PSI_ERRORS = dict(divide="ignore", over="ignore")


def _group_sums(groups, weights, n_groups):
    """Per-group sums of float weights, np.bincount's; as floats also over
    an edgeless graph's empty index, for which bincount returns int64."""
    return np.bincount(groups, weights=weights, minlength=n_groups).astype(float, copy=False)


def _psi_terms(msgs):
    """A message's two check terms: psi(msg) = -ln tanh|msg| (0 where it
    is infinite) and its count, 1 for a negative message plus _ZERO for a
    zero one (infinite psi).  Call it under _PSI_ERRORS."""
    psi = np.abs(msgs)
    psi *= 2.0
    np.expm1(psi, out=psi)
    np.divide(2.0, psi, out=psi)
    np.log1p(psi, out=psi)
    zero = psi == np.inf
    psi[zero] = 0.0
    count = zero * _ZERO
    count += msgs < 0
    return psi, count


def _check_sums(msgs, groups, n_groups, obs=None):
    """The check reduction: the (psi, count) terms of messages msgs[e]
    and, per check groups[e], their sums, plus the terms obs of each
    check's own observation when given (LDGM).  The counts are whole
    floats below 2^53, so they add exactly in any order."""
    terms = _psi_terms(msgs)
    sums = [_group_sums(groups, t, n_groups) for t in terms]
    if obs is not None:
        for s, o in zip(sums, obs):
            s += o
    return terms, sums


#: the own psi term dominates its check's rest when it exceeds it this
#: many times over.  total - own keeps the rest to within about
#: deg * u * total, so below the threshold an output is off by at most
#: about deg * 6e-11 nats (|d psi^-1(s) / d ln s| <= 1/2); above it the
#: rest is recomputed.  A lower threshold flags most iterations of
#: moderate BIAWGNC floods (81 of 100 at 64 on the corpus codes, eps
#: 0.8) and slows them.
_DOMINANCE = 2.0 ** 20


def _check_outputs(msgs, groups, n_groups, obs=None):
    """Every message's check output: _check_message of the terms of the
    other messages of its check groups[e], and of the check's own
    observation when obs is given (LDGM).  Each excluded sum is the
    check's total minus the message's own term; where the own psi
    dominates (_DOMINANCE), at most one edge per check, a second
    bincount with the dominating terms zeroed gives the rest without the
    subtraction.  Most iterations flag no edge and pay one product and
    one comparison per edge.  Call it under _PSI_ERRORS."""
    (own_psi, own_count), (psi_sums, count_sums) = _check_sums(msgs, groups, n_groups, obs)
    psi, count = psi_sums[groups], count_sums[groups]
    psi -= own_psi
    count -= own_count
    dominant = own_psi > _DOMINANCE * psi
    if np.count_nonzero(dominant):
        others = _group_sums(groups, np.where(dominant, 0.0, own_psi), n_groups)
        if obs is not None:
            others += obs[0]
        psi[dominant] = others[groups[dominant]]
    return _check_message(psi, count)


def _check_message(psi, count):
    """The check output for summed terms, computed in place of psi:
    psi^-1(psi) clipped at L_SAT, negative for an odd count, and 0 for a
    count of at least _ZERO.  The magnitude is +0 or more, so negating it
    sets its sign bit: the count, read as an integer (numpy's float % 2
    takes longer than the rest of the kernel) and shifted left by 63,
    keeps just its low bit, in the sign bit's place.  Call it under
    _PSI_ERRORS."""
    np.expm1(psi, out=psi)
    np.divide(2.0, psi, out=psi)
    np.log1p(psi, out=psi)
    psi *= 0.5
    np.minimum(psi, L_SAT, out=psi)
    sign = count.astype(np.uint64)
    sign <<= 63
    bits = psi.view(np.uint64)
    bits |= sign
    np.copyto(psi, 0.0, where=count >= _ZERO)
    return psi


def _sample_groups(index, n_nodes, samples):
    """Flat group ids of the (samples, n_edges) message block for an
    edge-to-node index: sample s's nodes are offset by s * n_nodes, so one
    bincount over the flattened block sums every sample at once."""
    return (index + n_nodes * np.arange(samples)[:, None]).ravel()


def _codebit_estimates(g, l, v2c, c2v, extrinsic):
    """(S, code bits) estimates from (S, n_edges) messages and LLRs l."""
    evar, echk = g.edge_ends
    S = len(l)
    if g.kind == LDPC:
        tot = _group_sums(_sample_groups(evar, g.n_var, S), c2v.ravel(),
                          S * g.n_var).reshape(S, g.n_var)
        field = tot if extrinsic else l + tot
        np.minimum(field, L_SAT, out=field)
        np.maximum(field, -L_SAT, out=field)
        return np.tanh(field, out=field)
    with np.errstate(**_PSI_ERRORS):
        _, sums = _check_sums(v2c.ravel(), _sample_groups(echk, g.n_chk, S), S * g.n_chk)
        c = _check_message(*sums).reshape(S, g.n_chk)
    return np.tanh(c if extrinsic else l + c)


def _flood_depths(inst, depths, extrinsic):
    """{d: estimates} in ascending d: flood each distinct LLR row once from
    zero messages, over blocks of at most BLOCK_ELEMENTS messages (samples
    x edges), reading the estimates at each depth, gathered back to every
    row: bit for bit a flood of every row, as no two rows share a bincount
    group.  A dict tells rows apart by their bytes (-0.0 is not 0.0);
    np.unique on a void view raised a GEXIT pass's peak RSS 0.15 MiB."""
    g, l = inst.one_graph("a BP flood"), np.atleast_2d(inst.values)
    slot, first, inverse = {}, [], []  # slot: a distinct row's bytes -> its place
    for i, row in enumerate(l):
        inverse.append(slot.setdefault(row.tobytes(), len(first)))
        if inverse[-1] == len(first):
            first.append(i)
    l = l[first]
    v2c, c2v = np.zeros((len(l), g.n_edges)), np.zeros((len(l), g.n_edges))
    out, last = {}, 0
    for d in sorted(set(depths)):
        if d < 0:
            raise ValueError("iteration count must be >= 0")
        for samples in block_slices(len(l), g.n_edges):
            _flood(g, l[samples], v2c[samples], c2v[samples], d - last)
        out[d] = _codebit_estimates(g, l, v2c, c2v, extrinsic)[inverse].reshape(inst.values.shape)
        last = d
    return out


def bp_run(inst, d):
    """Flooding sum-product for d full iterations from zero messages;
    returns the per-code-bit marginal estimates (per sample, for an
    instance holding a block of LLR draws)."""
    return _flood_depths(inst, [d], extrinsic=False)[d]


def bp_all_extrinsics(inst, d):
    """Extrinsic BP estimates <x_i>_{0,d} for every code bit: own observation
    removed at the root only (cycles still carry l_i into the messages)."""
    return _flood_depths(inst, [d], extrinsic=True)[d]


def bp_checkpoint_extrinsics(inst, depths):
    """Extrinsic estimates at several iteration depths from one message
    run (shared noise; used by the iteration-vs-blocklength experiment)."""
    return _flood_depths(inst, depths, extrinsic=True)


def _variable_outputs(c2v, groups, n_groups, l_edge=None):
    """Every edge's variable output: the total of the c2v into its
    variable groups[e] minus its own, plus the variable's observation
    l_edge[e] when given (LDPC), clipped at L_SAT."""
    v2c = _group_sums(groups, c2v, n_groups)[groups]
    if l_edge is not None:
        v2c += l_edge
    v2c -= c2v
    np.minimum(v2c, L_SAT, out=v2c)
    np.maximum(v2c, -L_SAT, out=v2c)
    return v2c


#: the cycle exit's lag: every _CYCLE-th iteration of a flood compares
#: each sample's read messages with their bits _CYCLE iterations before,
#: which catches the periods dividing it (1, 2 and 4).  Period-4 cycles
#: are common: 148 of the 386 distinct draws of criterion 12's LDGM at
#: BSC 0.45 end in one.  Its flood to depths 2, 4, 6, 100 and 200 runs
#: 10,976 row-iterations at lag 4, 36,432 at lag 2 (which leaves those
#: draws flooding to d) and 15,120 at lag 12 (which catches them later).
_CYCLE = 4


def _flood(g, l, v2c, c2v, iters):
    """iters flooding iterations, in place, on an (S, n_edges) message
    block with (S, code bits) LLRs; a sample leaves the block at its
    fixed point, or in the phase of iteration iters once its read
    messages repeat those of _CYCLE iterations before (the module
    docstring's exits).  The snapshot of those messages and the mask of
    repeating rows follow the rows that stay.  Dropping rows keeps the
    other samples' values bit for bit: no two samples share a bincount
    group, and bincount adds a group's edges in edge order whatever the
    block holds."""
    evar, echk = g.edge_ends
    E = g.n_edges
    rows = np.arange(len(l))  # block rows still flooding
    # rows found repeating at the last cycle check, and the iteration they leave after
    repeats, leave = np.zeros(len(l), dtype=bool), 0
    var_groups = _sample_groups(evar, g.n_var, len(l))
    chk_groups = _sample_groups(echk, g.n_chk, len(l))
    bv2c, bc2v = v2c.ravel(), c2v.ravel()
    # the read messages _CYCLE iterations back, as bit patterns
    snap = (bc2v if g.kind == LDPC else bv2c).view(np.int64).reshape(len(l), E)
    with np.errstate(**_PSI_ERRORS):
        # per-row inputs: each LDPC edge's LLR, or each LDGM check's terms
        per_row = (l[:, evar].ravel(),) if g.kind == LDPC else _psi_terms(l.ravel())
        for t in range(1, iters + 1):
            S = len(rows)
            if S == 0:
                break
            if g.kind == LDPC:  # maps c2v
                read = bc2v
                bv2c = _variable_outputs(bc2v, var_groups, S * g.n_var, per_row[0])
                bc2v = now = _check_outputs(bv2c, chk_groups, S * g.n_chk)
            else:  # maps v2c
                read = bv2c
                bc2v = _check_outputs(bv2c, chk_groups, S * g.n_chk, per_row)
                bv2c = now = _variable_outputs(bc2v, var_groups, S * g.n_var)
            # bit patterns, not ==: -0.0 == 0.0, and the CSV prints them apart
            now = now.view(np.int64).reshape(S, E)
            done = (now == read.view(np.int64).reshape(S, E)).all(axis=1)
            if t % _CYCLE == 0:
                repeats, leave, snap = (now == snap).all(axis=1), t + (iters - t) % _CYCLE, now
            if t == leave:
                done |= repeats
            if done.any():
                keep = ~done
                bv2c, bc2v = bv2c.reshape(S, E), bc2v.reshape(S, E)
                v2c[rows[done]], c2v[rows[done]] = bv2c[done], bc2v[done]
                rows, bv2c, bc2v = rows[keep], bv2c[keep].ravel(), bc2v[keep].ravel()
                snap, repeats = snap[keep], repeats[keep]
                per_row = tuple(a.reshape(S, -1)[keep].ravel() for a in per_row)
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
    (root_marginal, {k: <x_root x_k> - <x_root><x_k>}).  One sweep per
    insert set (none, then each pair node) gives the sums with and
    without the root inserted.
    """
    if inst.one_graph("tree_decode", realizations=False) != ct.graph:
        raise ValueError("tree_decode needs an instance on the tree's graph, ct.graph")
    code_type = "chk" if inst.kind == LDGM else "var"
    for k in pair_nodes:
        if k == 0 or ct.node_type[k] != code_type:
            raise ValueError(f"pair node {k} must be a non-root code-bit node")
    (logZ0, val0), (logZr, valr) = _tree_eval(ct, inst, frozenset())
    root_mean = valr / val0 * math.exp(logZr - logZ0)
    corrs = {}
    for k in pair_nodes:
        (logZk, valk), (logZrk, valrk) = _tree_eval(ct, inst, frozenset([k]))
        mk = valk / val0 * math.exp(logZk - logZ0)
        mrk = valrk / val0 * math.exp(logZrk - logZ0)
        corrs[k] = mrk - root_mean * mk
    return root_mean, corrs


def _tree_eval(ct, inst, inserts):
    """Sums over tree spin configurations of the Gibbs weight times the
    product of the inserted code-bit observables (non-root nodes), from
    one bottom-up sweep: ((logscale, value) without the root inserted,
    (logscale, value) with it), each sum equal to value * exp(logscale)
    with |value| <= 1.  The two differ only in the root's factor, so
    every other message is computed once, and each root is normalised
    on its own.

    Messages are pairs over the node's spin (LDGM: info-bit spin at var
    nodes; check factors carry observations).  Checks whose variable
    children were truncated get one aggregate phantom spin summed
    uniformly, which reproduces the zero-initialized BP boundary."""
    g, l = inst.graph, inst.values
    kind = inst.kind
    msg = {}

    def message(k, ins):
        typ, img = ct.node_type[k], ct.proj[k]
        ch = ct.children[k]
        if typ == "var":
            if kind == LDGM:
                up, down = 1.0, 1.0  # components for u = +1 / -1
                for c in ch:
                    up *= msg[c][0]
                    down *= msg[c][1]
                return up, down
            lv = l[img]
            up, down = math.exp(min(lv, L_SAT)), math.exp(max(-lv, -L_SAT))
            for c in ch:
                up *= msg[c][0]
                down *= msg[c][1]
            return (up, -down) if ins else (up, down)
        # combine var children into distribution of their product
        qp, qm = 1.0, 0.0
        for c in ch:
            qp, qm = qp * msg[c][0] + qm * msg[c][1], qp * msg[c][1] + qm * msg[c][0]
        if kind == LDPC:
            return qp, qm  # parity: parent +1 needs product +1
        deg = len(g.adj_chk[img])
        present = len(ch) + (0 if ct.parent[k] == -1 else 1)
        phantom = deg > present
        lc = l[img]
        if ct.parent[k] == -1:
            return _ldgm_check_total(qp, qm, 1.0, lc, phantom, ins), 0.0
        return (_ldgm_check_total(qp, qm, 1.0, lc, phantom, ins),
                _ldgm_check_total(qp, qm, -1.0, lc, phantom, ins))

    logscale = 0.0
    # deepest first; the root, node 0 and the only node at depth 0, last
    for k in sorted(range(1, ct.n_nodes), key=lambda k: -ct.node_depth[k]):
        vec = message(k, k in inserts)
        m = max(abs(vec[0]), abs(vec[1]))
        if m == 0.0:
            return (logscale, 0.0), (logscale, 0.0)
        logscale += math.log(m)
        msg[k] = (vec[0] / m, vec[1] / m)

    def root_sum(ins):
        vec = message(0, ins)
        m = max(abs(vec[0]), abs(vec[1]))
        if m == 0.0:
            return logscale, 0.0
        up, down = vec[0] / m, vec[1] / m
        return logscale + math.log(m), up if kind == LDGM else up + down

    return root_sum(False), root_sum(True)


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
