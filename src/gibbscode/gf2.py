"""Linear algebra over GF(2) on python-int bitmasks, and the parity-sign
tables built from it.

An index set, a parity-check row, a codeword and a spin configuration
are all bitmasks here (bit i set iff index i is in the set, or spin i is
-1).  This module owns the four operations the enumeration layers share:
the mask of an index set, the parity signs (-1)^{popcount(word & mask)}
of a batch of words, the row reduction (rank, row-space membership, pivot
coordinates and nullspace basis) and the sign table of a whole span,
doubled up from the signs of its basis words.  The functions after
row_reduce take its output, so a caller that needs several of them
reduces its rows once.

row_reduce is the one-matrix reduction and the reference;
row_reduce_stack reduces a (G, m) uint64 stack of G matrices at once,
column by column for all G (the word-parallel elimination of M4RI,
Albrecht and Bard, ACM TOMS 2010), and gives each the same pairs.
parity_signs and span_signs take a leading graph axis, so the sign
tables of G spans of one shape are built as one stack.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import block_slices

#: most code bits a codeword may have: parity signs are taken of uint64
#: words, kept clear of the top bit
MAX_WORD_BITS = 63


def mask(indices):
    """Bitmask of an index set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def cube(n_spins):
    """The 2^n_spins configurations of n_spins spins as uint64 words, in
    ascending order."""
    return np.arange(1 << n_spins, dtype=np.uint64)


def parity_signs(words, masks):
    """(-1)^{popcount(word & mask)} for every word (rows) and mask
    (columns), as an int8 table; words of shape (..., W) and masks of
    shape (..., M) with the same leading axes give a (..., W, M) stack,
    one table per leading index (per graph).  The uint64 temporaries are
    bounded by the block budget."""
    words, masks = np.asarray(words, np.uint64), np.array(masks, dtype=np.uint64)
    lead = words.shape[:-1]
    out = np.empty(lead + (words.shape[-1], masks.shape[-1]), np.int8)
    for rows in block_slices(words.shape[-1], math.prod(lead) * masks.shape[-1]):
        block = out[..., rows, :]
        block[...] = np.bitwise_count(words[..., rows, None] & masks[..., None, :]) \
            & np.uint8(1)
        block *= -2
        block += 1
    return out


def reduce(word, reduced):
    """word minus the reduced rows whose pivots it holds: zero iff word
    lies in their row space.  One pass suffices, since each pivot is set
    in its own row only."""
    for p, q in reduced:
        if word & p:
            word ^= q
    return word


def row_reduce(rows):
    """Reduced row-echelon form of GF(2) rows: (pivot, row) pairs, where
    the pivot is the lowest set bit of its row and is set in no other
    row; zero and dependent rows are dropped."""
    reduced = []
    for r in rows:
        r = reduce(r, reduced)
        if r:
            p = r & -r
            reduced = [(pq, q ^ r if q & p else q) for pq, q in reduced]
            reduced.append((p, r))
    return reduced


def row_reduce_stack(masks):
    """row_reduce of each row of a (G, m) stack of uint64 bitmasks: a list
    of G lists of (pivot, row) pairs, each sorted by pivot, the same set
    as row_reduce gives (the reduced row-echelon form is unique).

    Gauss-Jordan elimination column by column for all G matrices at once:
    at column j, the first row of each matrix that holds bit j and is no
    pivot row yet becomes the pivot row of j (one argmax), and one masked
    XOR clears bit j from every other row holding it.  Rows that are no
    pivot row hold no bit of a column already passed, so each pivot row's
    lowest bit is its pivot, set in no other row, and the rows left over
    end as zero."""
    rows = np.array(masks, dtype=np.uint64)
    G, m = rows.shape
    graph = np.arange(G)
    free = np.ones((G, m), bool)  # no pivot row yet
    firsts, founds = [], []
    for j in range(int(rows.max(initial=0)).bit_length()):
        holds = (rows & np.uint64(1 << j)).astype(bool)
        candidates = holds & free
        first = candidates.argmax(axis=1)
        found = candidates[graph, first]
        holds[graph, first] = False  # the pivot row keeps its bit
        pivot_rows = rows[graph, first] * found  # 0 where no row holds bit j
        rows ^= holds * pivot_rows[:, None]
        free[graph, first] &= ~found
        firsts.append(first)
        founds.append(found)
    # each column's pivot row, per matrix: (G, columns)
    shape = (len(firsts), G)
    rows = rows[graph[:, None], np.array(firsts, np.intp).reshape(shape).T]
    found = np.array(founds, bool).reshape(shape).T
    bits = [1 << j for j in range(found.shape[1])]
    return [[(p, q) for p, q, f in zip(bits, r, k) if f]
            for r, k in zip(rows.tolist(), found.tolist())]


def rank(rows):
    """Rank over GF(2) of bitmask rows."""
    return len(row_reduce(rows))


def compress(words, reduced):
    """Each word's bits at the pivots of the reduced rows, packed in
    ascending pivot order: bit k of the result is the word's bit at the
    k-th lowest pivot.  Words supported on the pivots are one per coset
    of the rows' nullspace, and popcount(compress(w) & k) is the parity
    of w against the word whose pivot bits are those of k."""
    pivots = sorted(p for p, _ in reduced)
    return [sum(1 << k for k, p in enumerate(pivots) if w & p) for w in words]


def nullspace_basis(reduced, n_cols):
    """One word per free column f of the reduced rows, in ascending f:
    bit f plus the pivots of the rows that hold f.  Pivots are the rows'
    lowest bits, so f is the word's highest bit."""
    pivots = sum(p for p, _ in reduced)  # distinct single bits
    basis = []
    for f in range(n_cols):
        bit = 1 << f
        if not pivots & bit:
            basis.append(bit + sum(p for p, q in reduced if q & bit))
    return basis


def span_signs(signs):
    """The parity-sign table of a span from the sign rows of its basis
    words: row k is the product of the rows picked by the bits of k, the
    signs of the XOR of those words, so row 0 is all +1.  Built by
    doubling: each basis row multiplies the rows so far into the next
    half of the int8 table, with no wider temporaries.  signs of shape
    (..., b, M) give a (..., 2^b, M) stack, one table per leading index,
    each doubled as it would be alone."""
    *lead, b, width = signs.shape
    out = np.empty((*lead, 1 << b, width), np.int8)
    out[..., 0, :] = 1
    for k in range(b):
        np.multiply(out[..., :1 << k, :], signs[..., k, None, :],
                    out=out[..., 1 << k:2 << k, :])
    return out
