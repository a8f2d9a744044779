"""Bipartite Tanner graphs for LDGM and LDPC codes.

Conventions:

  * LDGM: code bits sit on the CHECK nodes (x_i = product of the adjacent
    information-bit spins); variables are information bits and carry no
    channel observation.
  * LDPC: code bits sit on the VARIABLE nodes, subject to one parity
    constraint per check.
  * Depth arguments for computational trees count EDGE hops and must be
    even (so the boundary has the same node type as the root).
    Distances count same-type hops, i.e. edge distance divided by two;
    hop_distances is the one breadth-first search, and graph_distance,
    code_bit_distances and same_type_distance read from it.
  * The MacWilliams dual of an LDPC graph is an LDGM graph with the sides
    swapped (dual_graph), and that of an LDGM graph the LDPC graph with
    the sides swapped (TannerGraph.dual_code): either's brute-force table
    (exact.codebit_table) holds the dual codewords.
  * Ensemble graphs come from the configuration model through one
    sampler, sample_ensembles (sample_ensemble is its one-seed view).
    Each graph's draws are fixed by its seed, and all other work runs a
    window of window_size(n) graphs at a time, the rule gexit._draws
    reads too: one stable argsort per parallel-edge repair round, one
    decode of the window's adjacency after the last round, and one
    gf2.row_reduce_stack call per mask stack on the first read of any
    graph's reduction.  That call gives every graph of the window its
    rank, reduced_checks and code_basis (for LDGM also its dual code's)
    as slices of arrays; any other graph runs gf2.row_reduce.

Graphs are immutable after construction (tuple adjacency) and hashable,
so derived tables can be cached on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .channels import BLOCK_ELEMENTS

LDGM = "ldgm"
LDPC = "ldpc"

#: cap on computational-tree nodes
TREE_NODE_CAP = 10 ** 6

#: cap on enumerated self-avoiding walks
SAW_ENUM_CAP = 10 ** 6

#: cap on sample_ensembles' degree redraws and on its parallel-edge repair rounds
ENSEMBLE_RETRY_CAP = 1000


class NodeCapExceeded(ValueError):
    """Computational-tree unrolling exceeded the configured node cap."""


class EnumerationCapExceeded(ValueError):
    """A combinatorial enumeration grew past its configured cap."""


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite variable/check adjacency with a code-kind tag."""

    kind: str
    n_var: int
    n_chk: int
    adj_var: tuple  # adj_var[v] = tuple of incident check ids
    adj_chk: tuple  # adj_chk[c] = tuple of incident variable ids

    #: (window, row) of a graph that sample_ensembles drew in a window of
    #: two or more graphs, window its _Window (for the dual code of such
    #: an LDGM graph, the window's dual); not a field, so equality and
    #: hashing ignore it; None on every other graph
    _window = None

    def __post_init__(self):
        if self.kind not in (LDGM, LDPC):
            raise ValueError(f"unknown code kind {self.kind!r}")

    @property
    def l_max(self):
        """Largest variable-node degree (0 on a graph with no variables)."""
        return max((len(a) for a in self.adj_var), default=0)

    @property
    def k_max(self):
        return max((len(a) for a in self.adj_chk), default=0)

    @property
    def n_edges(self):
        return sum(len(a) for a in self.adj_var)

    # ----- code-bit view --------------------------------------------------

    @property
    def code_bit_count(self):
        """Number of code bits: checks for LDGM, variables for LDPC."""
        return self.n_chk if self.kind == LDGM else self.n_var

    @cached_property
    def reduced_checks(self):
        """The checks as bitmasks over the variables, row-reduced over
        GF(2) once per graph: the (pivot, row) pairs of gf2.row_reduce, in
        some order; they number rank G (LDGM) or rank H (LDPC).  A graph
        drawn in a window of sampled graphs reads its share of the
        window's reduction, in ascending pivot; any other graph runs
        gf2.row_reduce."""
        if self._window is None:
            return gf2.row_reduce(gf2.mask(c) for c in self.adj_chk)
        window, row = self._window
        rows, pivots, _ = window.reduction
        cols = np.flatnonzero(pivots[row])
        return [(1 << j, q) for j, q in zip(cols.tolist(), rows[row, cols].tolist())]

    @cached_property
    def dual_code(self):
        """LDGM: the MacWilliams dual code, the words y over the checks
        with G^T y = 0, as the LDPC graph with the sides swapped (each
        variable a parity check on its checks); its free_spin_count is
        n_chk - rank G.  The dual of a graph drawn in a window reads the
        window's reduction of the variables."""
        if self.kind != LDGM:
            raise ValueError("dual_code reads an LDGM graph")
        dual = TannerGraph(LDPC, self.n_chk, self.n_var, self.adj_chk, self.adj_var)
        if self._window is not None:
            window, row = self._window
            object.__setattr__(dual, "_window", (window.dual, row))
        return dual

    @property
    def free_spin_count(self):
        """Spins enumerated by brute force, the dimension of the support:
        rank G for LDGM (one configuration of the pivot information bits
        per coset of the kernel of G, each standing for 2^(n_var - rank G)
        configurations), n - rank H for LDPC (the free columns that span
        the codewords).  A graph drawn in a window reads its rank from the
        window's reduction."""
        if self._window is None:
            rank = len(self.reduced_checks)
        else:
            window, row = self._window
            rank = window.reduction[2][row]
        return rank if self.kind == LDGM else self.n_var - rank

    @property
    def code_basis(self):
        """The int8 sign rows of the basis that the brute-force table
        (exact.codebit_table) is the span of, shape (free_spin_count,
        code_bit_count): LDGM, the generator rows of the pivot information
        bits in ascending order, row j -1 on the checks of the j-th lowest
        pivot, read from adjacency; LDPC, the nullspace basis words of
        gf2.nullspace_basis.  An LDPC graph drawn in a window (or the dual
        code of an LDGM graph drawn in one) reads its rows, read-only,
        from the window's one gf2.nullspace_signs array."""
        if self.kind == LDGM:
            pivots = sorted(p for p, _ in self.reduced_checks)
            return gf2.sign_rows([self.adj_var[p.bit_length() - 1] for p in pivots], self.n_chk)
        if self._window is None:
            return gf2.sign_rows(gf2.nullspace_basis(self.reduced_checks, self.n_var), self.n_var)
        window, row = self._window
        return window.nullspaces[row]

    @property
    def coset_bits(self):
        """log2 of the configurations each row of the brute-force table
        stands for: n_var - rank G for LDGM (a coset of the kernel of G),
        0 for LDPC (a codeword)."""
        return self.n_var - self.free_spin_count if self.kind == LDGM else 0

    def edges(self):
        return [(v, c) for v in range(self.n_var) for c in self.adj_var[v]]

    @cached_property
    def edge_ends(self):
        """The variable and the check of every edge, in edges() order: a
        read-only (2, n_edges) index array, built once per graph (the BP
        flood's edge index)."""
        ends = np.array(self.edges(), dtype=np.intp).reshape(-1, 2).T
        ends.flags.writeable = False
        return ends


def build_graph(n_var, n_chk, edges, kind):
    """Construct a TannerGraph from an explicit (var, chk) edge list.

    Rejects out-of-range indices and duplicate edges (a parallel edge
    would cancel mod 2 and silently change the code).
    """
    seen = set()
    for v, c in edges:
        if not (0 <= v < n_var and 0 <= c < n_chk):
            raise ValueError(f"edge ({v},{c}) out of range")
        if (v, c) in seen:
            raise ValueError(f"duplicate edge ({v},{c})")
        seen.add((v, c))
    return _from_simple_edges(n_var, n_chk, edges, kind)


def _from_simple_edges(n_var, n_chk, edges, kind):
    """The TannerGraph of an in-range edge list with no duplicate; each
    node lists its neighbors in edge-list order."""
    adj_var = [[] for _ in range(n_var)]
    adj_chk = [[] for _ in range(n_chk)]
    for v, c in edges:
        adj_var[v].append(c)
        adj_chk[c].append(v)
    return TannerGraph(kind, n_var, n_chk,
                       tuple(map(tuple, adj_var)), tuple(map(tuple, adj_chk)))


@dataclass(frozen=True)
class DegreeDistribution:
    """Node-perspective degree distributions Lambda (variables) and P
    (checks), stored as {degree: probability} maps."""

    var_coeffs: tuple  # ((degree, prob), ...)
    chk_coeffs: tuple

    def __post_init__(self):
        for coeffs, name in ((self.var_coeffs, "var"), (self.chk_coeffs, "chk")):
            probs = [p for _, p in coeffs]
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"{name} coefficients must be a probability vector")
            if any(d < 1 for d, _ in coeffs):
                raise ValueError("degrees start at 1")

    @classmethod
    def regular(cls, var_degree, chk_degree):
        return cls(((var_degree, 1.0),), ((chk_degree, 1.0),))

    @classmethod
    def from_dicts(cls, var_coeffs, chk_coeffs):
        return cls(tuple(sorted(var_coeffs.items())), tuple(sorted(chk_coeffs.items())))

    @property
    def lambda_prime(self):
        """Lambda'(1) = mean variable degree."""
        return sum(d * p for d, p in self.var_coeffs)

    @property
    def p_prime(self):
        """P'(1) = mean check degree."""
        return sum(d * p for d, p in self.chk_coeffs)

    @cached_property
    def degree_laws(self):
        """{(perspective, side): (degrees, cdf)} for the node and edge
        perspectives (edge: probability proportional to degree times node
        probability) of the "var" and "chk" sides.  Each cdf is formed as
        numpy's Generator.choice forms it from the probabilities (cumsum,
        then divided by its last entry), so draw_degrees(rng, law, n)
        draws what rng.choice(degrees, size=n, p=probs) draws."""
        laws = {}
        for side, coeffs in (("var", self.var_coeffs), ("chk", self.chk_coeffs)):
            degs = np.array([d for d, _ in coeffs])
            node = np.array([p for _, p in coeffs])
            edge = degs * node
            for perspective, probs in (("node", node), ("edge", edge / edge.sum())):
                cdf = probs.cumsum()
                cdf /= cdf[-1]
                laws[perspective, side] = degs, cdf
        return laws


def draw_degrees(rng, law, n):
    """n degrees drawn from law = (degrees, cdf), an entry of
    DegreeDistribution.degree_laws, with the values and RNG stream of
    rng.choice(degrees, size=n, p=probs).  numpy inverts the cdf at n
    uniforms by a right-sided search, which counts the cdf entries <= u;
    counting them by one comparison per entry gives the same indices
    without the search (the last entry, 1.0, lies above every uniform).
    A one-point law consumes its n uniforms and compares nothing."""
    degs, cdf = law
    u = rng.random(n)
    if len(degs) == 1:
        return np.full(n, degs[0])
    idx = np.zeros(n, np.intp)
    for threshold in cdf[:-1]:
        idx += u >= threshold
    return degs[idx]


def ensemble_sizes(dd, n, kind):
    """(n_var, n_chk) of an ensemble graph with n code bits: the other
    side's node count follows from the mean degrees, so that the socket
    counts balance.  Raises ValueError when it is not an integer, when a
    degree drawn with positive probability exceeds the node count of the
    other side (no simple graph has such a node), or when the two socket
    sums can never be equal (the sampler would redraw degrees until its
    retry cap): a side of N nodes whose degrees d_1 < ... < d_k have
    positive probability sums to between N d_1 and N d_k, always to
    N d_1 modulo g, the gcd of the gaps d_j - d_1, so the two sides can
    meet only if their residues agree modulo the gcd of their two g.
    (Their ranges always overlap once the mean degrees balance: both hold
    the mean socket count.)"""
    if kind == LDGM:
        n_chk = n
        n_var = dd.p_prime * n / dd.lambda_prime
    else:
        n_var = n
        n_chk = dd.lambda_prime * n / dd.p_prime
    if abs(n_var - round(n_var)) > 1e-9 or abs(n_chk - round(n_chk)) > 1e-9:
        raise ValueError(
            f"mean degrees ({dd.lambda_prime:g}, {dd.p_prime:g}) do not balance at n={n}")
    n_var, n_chk = int(round(n_var)), int(round(n_chk))
    for side, coeffs, other, count in (("variable", dd.var_coeffs, "checks", n_chk),
                                       ("check", dd.chk_coeffs, "variables", n_var)):
        degree = max(d for d, p in coeffs if p > 0)
        if degree > count:
            raise ValueError(f"{side} degree {degree} exceeds the {count} {other} "
                             f"of an ensemble graph at n={n}")
    (vlo, vhi, vgap), (clo, chi, cgap) = (
        (count * min(degs), count * max(degs), math.gcd(*(d - min(degs) for d in degs)))
        for count, degs in ((n_var, [d for d, p in dd.var_coeffs if p > 0]),
                            (n_chk, [d for d, p in dd.chk_coeffs if p > 0])))
    gap = math.gcd(vgap, cgap)
    if gap and (vlo - clo) % gap:
        sums = lambda lo, hi, g: f"{lo}..{hi} in steps of {g}" if g else str(lo)
        raise ValueError(f"socket counts never balance at n={n}: the {n_var} variables' "
                         f"sockets number {sums(vlo, vhi, vgap)}, the {n_chk} checks' "
                         f"{sums(clo, chi, cgap)}")
    return n_var, n_chk


def sample_ensemble(dd, n, kind, seed):
    """One graph of sample_ensembles, drawn from seed."""
    return sample_ensembles(dd, n, kind, (seed,))[0]


def sample_ensembles(dd, n, kind, seeds):
    """One simple bipartite graph from the configuration model per seed,
    in seed order; each graph is what its seed alone draws.

    n is the number of CODE BITS (checks for LDGM, variables for LDPC);
    the other side's node count is inferred from the mean degrees so that
    socket counts balance (ensemble_sizes).  Each graph reads
    default_rng(seed): its node degrees, redrawn until the two socket
    sums match, then a uniform permutation of the check sockets against
    the variable sockets, then one uniform socket per repair swap: every
    later copy of an edge in socket order is swapped with a uniform
    socket, round after round until the pairing is simple (each loop up
    to ENSEMBLE_RETRY_CAP rounds, past which EnumerationCapExceeded names
    the rounds and the graph's sizes).

    Only those draws run graph by graph.  The rest runs a window of
    window_size(n) graphs at a time: a pairing is a row of integer edge
    codes v * n_chk + c (padding sockets get distinct codes above every
    edge, so draws of different edge counts share the rows), and one
    stable argsort of the window's rows per round finds every later
    copy.  A graph leaves the rounds once it is simple; after the last
    round the window's sorted codes are decoded into adjacency at once.
    A window of two or more graphs whose masks fit a word (at most
    gf2.MAX_WORD_BITS variables, and checks for LDGM) also stacks its
    check masks, and for LDGM its variable masks (the dual codes'
    checks), as (graphs, rows) uint64 arrays: the first read of any of
    its graphs' ranks, reduced_checks or code_basis reduces a whole stack
    in one gf2.row_reduce_stack call (a _Window).  Nothing row-reduces a
    graph whose reduction no one reads (the BP routes').
    """
    n_var, n_chk = ensemble_sizes(dd, n, kind)
    window = window_size(n)
    seeds = list(seeds)
    out = []
    for w in range(0, len(seeds), window):
        out += _sample_window(dd, n_var, n_chk, kind, seeds[w:w + window])
    return out


def window_size(n, per_graph=1):
    """Graphs per sampled window, the one rule of sample_ensembles and of
    gexit._draws (whose graphs carry per_graph noise realizations each):
    as many as hold BLOCK_ELEMENTS code bits together, counting each
    graph per_graph times, and at least one.  So a window's noise is at
    most one block of floats, and each of its (graphs, sockets) integer
    arrays holds at most BLOCK_ELEMENTS d entries of 8 bytes, d the
    largest degree of a code bit (256 KiB for a (4,4) LDPC window at
    n = 16, 512 graphs); each graph still in its repair rounds also
    holds a Generator of about 0.9 KB."""
    return max(1, BLOCK_ELEMENTS // (per_graph * n))


class _Window:
    """The GF(2) reduction of a sampled window's graphs: masks, a
    (graphs, rows) uint64 stack of each graph's parity rows over width
    bits (its checks over its variables), reduced by one
    gf2.row_reduce_stack call on the first read on any graph of the
    window; dual, for an LDGM window, the _Window of its graphs' dual
    codes (each variable's checks), None for LDPC."""

    def __init__(self, masks, width, dual=None):
        self.masks, self.width, self.dual = masks, width, dual

    @cached_property
    def reduction(self):
        """gf2.row_reduce_stack's (rows, pivots), and each graph's rank
        as a list."""
        rows, pivots = gf2.row_reduce_stack(self.masks, self.width)
        return rows, pivots, pivots.sum(axis=1).tolist()

    @cached_property
    def nullspaces(self):
        """Each graph's nullspace basis sign rows, read-only views of one
        gf2.nullspace_signs array."""
        rows, pivots, ranks = self.reduction
        signs = gf2.nullspace_signs(rows, pivots)
        signs.flags.writeable = False
        return np.split(signs, np.cumsum([self.width - r for r in ranks])[:-1])


def _sample_window(dd, n_var, n_chk, kind, seeds):
    """sample_ensembles on one window of seeds."""
    vlaw, claw = dd.degree_laws["node", "var"], dd.degree_laws["node", "chk"]
    rngs, vdegs, cdegs, perms = [], [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(ENSEMBLE_RETRY_CAP):
            vd = draw_degrees(rng, vlaw, n_var)
            cd = draw_degrees(rng, claw, n_chk)
            sockets = int(cd.sum())
            if vd.sum() == sockets:
                break
        else:
            raise EnumerationCapExceeded(
                f"could not balance socket counts in {ENSEMBLE_RETRY_CAP} degree draws of a "
                f"graph of {n_var} variables and {n_chk} checks")
        rngs.append(rng)
        vdegs.append(vd)
        cdegs.append(cd)
        perms.append(rng.permutation(sockets))
    vdegs, cdegs = np.array(vdegs), np.array(cdegs)
    n_edges = vdegs.sum(axis=1)
    # (graphs, sockets) rows: socket j of a graph joins variable var[j]
    # (stored as var[j] * n_chk) to check pairing[j]; padding sockets past
    # a graph's edges get distinct codes above every edge
    width = int(n_edges.max())
    real = np.arange(width) < n_edges[:, None]
    var = np.empty(real.shape, np.intp)
    var[:] = n_var * n_chk + np.arange(width)
    var[real] = (np.arange(vdegs.size) % n_var * n_chk).repeat(vdegs.ravel())
    pairing = np.zeros(real.shape, np.intp)
    first = (n_edges.cumsum() - n_edges).repeat(n_edges)  # each socket's graph offset
    pairing[real] = (np.arange(cdegs.size) % n_chk).repeat(cdegs.ravel())[
        np.concatenate(perms) + first]
    simple_codes = np.empty(real.shape, np.intp)  # each graph's sorted codes, once simple
    live, n_edges = np.arange(len(seeds)), n_edges.tolist()
    for _ in range(ENSEMBLE_RETRY_CAP):
        codes = var + pairing
        order = codes.argsort(axis=1, kind="stable")
        codes = np.take_along_axis(codes, order, axis=1)
        dup = codes[:, 1:] == codes[:, :-1]  # a later copy of the edge before it
        simple = ~dup.any(axis=1)
        done = live[simple]
        simple_codes[done] = codes[simple]
        for gi in done.tolist():
            rngs[gi] = None
        if len(done) == len(live):
            return _window_graphs(simple_codes, vdegs, cdegs, n_var, n_chk, kind)
        # the later copies in socket order, the positions a scan of the
        # pairing socket by socket finds already seen, swapped in that order
        later = np.zeros(codes.shape, bool)
        rows, cols = np.nonzero(dup)
        later[rows, order[rows, cols + 1]] = True
        keep = ~simple
        live, var, pairing = live[keep], var[keep], pairing[keep]
        flat, base = pairing.reshape(-1), live.tolist()
        rows, cols = np.nonzero(later[keep])
        for row, pos in zip(rows.tolist(), cols.tolist()):
            gi = base[row]
            pos += row * width
            q = row * width + int(rngs[gi].integers(n_edges[gi]))
            flat[pos], flat[q] = flat[q], flat[pos]
    raise EnumerationCapExceeded(
        f"could not avoid parallel edges in {ENSEMBLE_RETRY_CAP} repair rounds of a graph "
        f"of {n_var} variables and {n_chk} checks")


def _window_graphs(codes, vdegs, cdegs, n_var, n_chk, kind):
    """The TannerGraphs of a window's simple pairings, given as rows of
    sorted edge codes (padding last) with their degree rows, and, for a
    window of two or more graphs whose masks fit a word, the _Window of
    their stacked masks."""
    out = list(_decode(codes, vdegs, cdegs, n_var, n_chk, kind))
    if len(out) > 1 and max(n_var, n_chk if kind == LDGM else 0) <= gf2.MAX_WORD_BITS:
        checks, *variables = _masks(codes, n_var, n_chk, kind)
        window = _Window(checks, n_var, *(_Window(v, n_chk) for v in variables))
        for row, g in enumerate(out):
            object.__setattr__(g, "_window", (window, row))
    return out


def _decode(codes, vdegs, cdegs, n_var, n_chk, kind):
    """The TannerGraphs of simple pairings given as rows of sorted edge
    codes (padding last) with their degree rows: adjacency as
    _from_simple_edges gives it for the sorted edge list, each
    variable's checks and each check's variables ascending."""
    width = codes.shape[1]
    chk, var = codes % n_chk, codes // n_chk
    # each check's variables, ascending: a stable sort of the
    # variable-major edges by check, padding sockets last
    padded = np.where(np.arange(width) < vdegs.sum(axis=1)[:, None], chk, n_chk)
    order = padded.argsort(axis=1, kind="stable") + np.arange(0, codes.size, width)[:, None]
    by_chk = var.ravel()[order]
    for c, v, vd, cd in zip(chk.tolist(), by_chk.tolist(), vdegs.tolist(), cdegs.tolist()):
        yield TannerGraph(kind, n_var, n_chk, _split(c, vd), _split(v, cd))


def _masks(codes, n_var, n_chk, kind):
    """Each check's variables as uint64 bitmasks, (graphs, n_chk), and for
    LDGM each variable's checks, (graphs, n_var), from rows of distinct
    edge codes v * n_chk + c (padding codes, past every edge, are
    skipped); each mask's bits fit gf2.MAX_WORD_BITS."""
    var, chk = np.divmod(codes, n_chk)
    graph, col = np.nonzero(var < n_var)
    var, chk = var[graph, col], chk[graph, col]
    stacks = []
    for rows, bits, count in ((chk, var, n_chk), (var, chk, n_var))[:1 + (kind == LDGM)]:
        masks = np.zeros((len(codes), count), np.uint64)
        # an edge's bit is set once, so adding the bits ORs them
        np.add.at(masks, (graph, rows), np.uint64(1) << bits.astype(np.uint64))
        stacks.append(masks)
    return stacks


def _split(flat, lengths):
    """The leading entries of flat cut into consecutive tuples of the
    given lengths."""
    ends = list(itertools.accumulate(lengths))
    return tuple([tuple(flat[i:j]) for i, j in zip([0] + ends, ends)])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def hop_distances(g, side, sources, within=None, through=None):
    """Same-side hop counts (edge distance / 2) from the nearest source to
    every node of side ("var" or "chk"), by one breadth-first search: a
    list indexed by node, 0 at the sources and math.inf where a node is
    not reached.  within, when given, holds the nodes of side the search
    may enter; through, the nodes of the other side a hop may pass."""
    adj_self, adj_other = (g.adj_var, g.adj_chk) if side == "var" else (g.adj_chk, g.adj_var)
    dist = [math.inf] * len(adj_self)
    frontier = list(set(sources))
    for x in frontier:
        dist[x] = 0
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for x in frontier:
            for m in adj_self[x]:
                if through is None or m in through:
                    for y in adj_other[m]:
                        if dist[y] == math.inf and (within is None or y in within):
                            dist[y] = hops
                            nxt.append(y)
        frontier = nxt
    return dist


def graph_distance(g, i, j):
    """Same-type hop count between code bits i and j (edge distance / 2);
    math.inf when disconnected."""
    return code_bit_distances(g, i)[j]


def code_bit_distances(g, i):
    """Same-type hop counts from code bit i to every code bit: a list
    indexed by code bit, math.inf where disconnected."""
    return hop_distances(g, "chk" if g.kind == LDGM else "var", (i,))


def same_type_distance(g, typ, sources, targets):
    """Distance in same-type hops from a source set to a target set (both
    of node type typ); 0 when the sets intersect, inf if unreachable."""
    dist = hop_distances(g, typ, sources)
    return min((dist[t] for t in targets), default=math.inf)


def dual_graph(g, code_bits, spins):
    """The MacWilliams dual of the LDPC graph g read as an LDGM graph, its
    sides swapped: the dual's information bits are the checks in spins
    and its checks (code bits) the variables in code_bits, dual check k
    (variable code_bits[k]) joined to dual spin b (check spins[b]) where
    g joins them.  Every check of a listed variable must be among the
    spins.  The rows of the dual's codebit_table are the dual codewords
    tau, tau_i = prod_{a in d(i)} u_a."""
    pos = {c: b for b, c in enumerate(spins)}
    edges = [(pos[c], k) for k, v in enumerate(code_bits) for c in g.adj_var[v]]
    return _from_simple_edges(len(pos), len(code_bits), edges, LDGM)


# ---------------------------------------------------------------------------
# computational trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComputationalTree:
    """Depth-d truncation of the universal cover rooted at a code bit.

    Flat arrays indexed by tree-node id (root = 0): parent (-1 at the
    root), depth in edge hops, proj = original graph index, node_type
    ("var"/"chk"), children tuples.
    """

    graph: TannerGraph
    root_graph_node: int
    depth: int
    parent: tuple
    children: tuple
    node_depth: tuple
    proj: tuple
    node_type: tuple

    @property
    def n_nodes(self):
        return len(self.parent)


def computational_tree(g, i, d):
    """Unroll the universal covering tree of depth d (edge hops, even)
    rooted at code bit i.  Fails with NodeCapExceeded when the tree grows
    past TREE_NODE_CAP."""
    if d % 2 != 0 or d < 0:
        raise ValueError("depth must be even and >= 0")
    root_type = "chk" if g.kind == LDGM else "var"
    parent = [-1]
    children = [[]]
    node_depth = [0]
    proj = [i]
    node_type = [root_type]
    frontier = [0]
    while frontier:
        nxt = []
        for k in frontier:
            if node_depth[k] == d:
                continue
            typ, idx = node_type[k], proj[k]
            nbrs = g.adj_chk[idx] if typ == "chk" else g.adj_var[idx]
            par_img = proj[parent[k]] if parent[k] != -1 else None
            skipped_parent = False
            for nb in nbrs:
                if not skipped_parent and par_img is not None and nb == par_img:
                    skipped_parent = True  # one copy of the parent edge only
                    continue
                kid = len(parent)
                if kid >= TREE_NODE_CAP:
                    raise NodeCapExceeded(f"tree exceeds {TREE_NODE_CAP} nodes")
                parent.append(k)
                children.append([])
                node_depth.append(node_depth[k] + 1)
                proj.append(nb)
                node_type.append("var" if typ == "chk" else "chk")
                children[k].append(kid)
                nxt.append(kid)
        frontier = nxt
    return ComputationalTree(g, i, d, tuple(parent),
                             tuple(tuple(c) for c in children),
                             tuple(node_depth), tuple(proj), tuple(node_type))


# ---------------------------------------------------------------------------
# self-avoiding walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfAvoidingWalk:
    """Alternating variable/check walk v_1 c_1 v_2 ... c_L v_{L+1} with no
    repeated node.  length counts the check nodes traversed; the trivial
    walk (single variable, no checks) has length 0."""

    vars: tuple
    chks: tuple

    @property
    def length(self):
        return len(self.chks)

    @property
    def n_vars(self):
        return len(self.vars)


def enumerate_saws(g, A, B, max_len):
    """All self-avoiding walks from the variable set A to the variable set
    B with at most max_len check nodes; more than SAW_ENUM_CAP walks raise
    EnumerationCapExceeded.

    Interior variables avoid A and B entirely (strict endpoint-set
    self-avoidance): a walk ends the moment it reaches B, and may not pass
    through another A node.  When A and B intersect, each shared variable
    contributes one trivial length-0 walk.
    """
    A, B = set(A), set(B)
    for v in A | B:
        if not 0 <= v < g.n_var:
            raise ValueError(f"variable {v} out of range")
    walks = []
    for a in sorted(A & B):
        walks.append(SelfAvoidingWalk((a,), ()))

    def extend(vpath, cpath):
        if len(walks) > SAW_ENUM_CAP:
            raise EnumerationCapExceeded(f"more than {SAW_ENUM_CAP} walks")
        if len(cpath) == max_len:
            return
        v = vpath[-1]
        for c in g.adj_var[v]:
            if c in cpath:
                continue
            for w in g.adj_chk[c]:
                if w in vpath or (w in A and w not in B):
                    continue
                if w in B:
                    walks.append(SelfAvoidingWalk(vpath + (w,), cpath + (c,)))
                else:
                    extend(vpath + (w,), cpath + (c,))

    for a in sorted(A):
        extend((a,), ())
    return walks


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_graph(g, path):
    """Line-oriented text format: header 'kind n_var n_chk', one 'v c'
    edge per line."""
    with open(path, "w") as fh:
        fh.write(f"{g.kind} {g.n_var} {g.n_chk}\n")
        for v, c in g.edges():
            fh.write(f"{v} {c}\n")


def load_graph(path):
    """Read save_graph's format.  A malformed line raises ValueError naming
    the file, the line number and the form that line must have."""
    with open(path) as fh:
        lines = [(k, line) for k, line in enumerate(fh, 1) if k == 1 or line.strip()]
    rows = []
    for k, line in lines or [(1, "")]:
        form, fields = "kind n_var n_chk" if k == 1 else "v c", line.split()
        try:
            if len(fields) != len(form.split()):
                raise ValueError
            rows.append(fields[:k == 1] + [int(f) for f in fields[k == 1:]])
        except ValueError:
            raise ValueError(f"code file {path!r} line {k}: expected '{form}', "
                             f"not {line.strip()!r}") from None
    (kind, n_var, n_chk), edges = rows[0], rows[1:]
    return build_graph(n_var, n_chk, [tuple(e) for e in edges], kind)
