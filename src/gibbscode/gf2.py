"""Linear algebra over GF(2) on python-int bitmasks, and the sign tables
of its spans.

An index set, a parity-check row, a codeword and a spin configuration
are all bitmasks here (bit i set iff index i is in the set, or spin i is
-1); only the basis words that tables are built from are given by their
supports, index lists, so no word width limits them.  This module owns
what the enumeration layers share: the mask of an index set, the row
reduction (rank, row-space membership, pivot coordinates and the
supports of a nullspace basis) and the one enumeration, span_signs: the
+-1 table of a whole span, doubled up from the sign rows of a basis of
it, which sign_rows builds from the supports.  Every table of the
library is such a span: the codewords, the pivot configurations of an
LDGM generator, the spin products and the replica configurations.  The
functions after row_reduce take its output, so a caller that needs
several of them reduces its rows once.

row_reduce is the one-matrix reduction and the reference;
row_reduce_stack reduces a (G, m) uint64 stack of G matrices at once,
column by column for all G (the word-parallel elimination of M4RI,
Albrecht and Bard, ACM TOMS 2010), and gives each the same pairs as
arrays, from which nullspace_signs builds the sign rows of every
matrix's nullspace basis in one array.
span_signs takes a leading graph axis, so the tables of G spans of one
shape are built as one stack.  cube and parity_signs, the popcount of
explicit words against masks, are the brute force the tables are
checked against.
"""

from __future__ import annotations

import numpy as np

from .channels import block_slices

#: most bits a uint64 word holds with its top bit clear: the most bits
#: of the masks a sampled window stacks as words (its variables, and an
#: LDGM window's checks), its only use (tables are doubled from
#: supports, so no code's length is limited by it)
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
    (columns), as an int8 table: the popcount brute force that the
    doubled span tables are checked against.  The uint64 temporaries are
    bounded by the block budget."""
    masks = np.array(masks, dtype=np.uint64)
    out = np.empty((len(words), len(masks)), np.int8)
    for rows in block_slices(len(words), len(masks)):
        block = out[rows]
        block[...] = np.bitwise_count(words[rows, None] & masks) & np.uint8(1)
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


def row_reduce_stack(masks, width):
    """row_reduce of each row of a (G, m) stack of uint64 bitmasks over
    width bits, as two (G, width) arrays: pivots, bool, marks the pivot
    columns of each matrix, and rows, uint64, holds in pivot column j the
    reduced row whose pivot is bit j (0 in any other column).  The pairs
    (1 << j, rows[g, j]) over the pivot columns j of matrix g, in
    ascending j, are the set row_reduce gives (the reduced row-echelon
    form is unique).

    Gauss-Jordan elimination column by column for all G matrices at once:
    at column j, the first row of each matrix that holds bit j and is no
    pivot row yet becomes the pivot row of j (one argmax), and one masked
    XOR clears bit j from every other row holding it.  Rows that are no
    pivot row hold no bit of a column already passed, so each pivot row's
    lowest bit is its pivot, set in no other row, and the rows left over
    end as zero."""
    rows = np.array(masks, dtype=np.uint64)
    G, m = rows.shape
    pivots = np.zeros((G, width), bool)
    if not m:
        return np.zeros((G, width), np.uint64), pivots
    graph = np.arange(G)
    free = np.ones((G, m), bool)  # no pivot row yet
    firsts = np.zeros((G, width), np.intp)
    for j in range(width):
        holds = (rows & np.uint64(1 << j)).astype(bool)
        candidates = holds & free
        first = candidates.argmax(axis=1)
        found = candidates[graph, first]
        holds[graph, first] = False  # the pivot row keeps its bit
        pivot_rows = rows[graph, first] * found  # 0 where no row holds bit j
        rows ^= holds * pivot_rows[:, None]
        free[graph, first] &= ~found
        firsts[:, j] = first
        pivots[:, j] = found
    return rows[graph[:, None], firsts] * pivots, pivots


def nullspace_signs(rows, pivots):
    """The sign rows of the nullspace basis words of each matrix that
    row_reduce_stack reduced, from its (rows, pivots): one
    (sum of the nullities, width) int8 array, the matrices in order, each
    one's words in ascending free column f, row f -1 on f and on the
    pivots of the rows that hold f; each matrix's rows are
    sign_rows(nullspace_basis(...)) of its pairs, bit for bit."""
    G, width = pivots.shape
    # holds[g, j, f]: reduced row j of matrix g holds bit f
    octets = np.ascontiguousarray(rows, "<u8").view(np.uint8).reshape(G, width, 8)
    holds = np.unpackbits(octets, axis=2, count=width, bitorder="little").view(bool)
    words = holds.swapaxes(1, 2) & pivots[:, None, :]  # (G, f, j): word f holds pivot j
    words |= np.eye(width, dtype=bool)
    return np.where(words[~pivots], np.int8(-1), np.int8(1))


def rank(rows):
    """Rank over GF(2) of bitmask rows."""
    return len(row_reduce(rows))


def nullspace_basis(reduced, n_cols):
    """The supports of a basis of the nullspace of the reduced rows, one
    word per free column f, in ascending f: f plus the pivots of the rows
    that hold f, as an index list.  Pivots are the rows' lowest bits, so
    f is the word's highest index."""
    pivots = sum(p for p, _ in reduced)  # distinct single bits
    return [[*(p.bit_length() - 1 for p, q in reduced if q >> f & 1), f]
            for f in range(n_cols) if not pivots >> f & 1]


def sign_rows(supports, width):
    """The int8 sign rows of words given by their supports: row k is -1 on
    the indices in supports[k] and +1 elsewhere, width entries; no word
    width applies."""
    out = np.ones((len(supports), width), np.int8)
    np.put(out, [k * width + i for k, s in enumerate(supports) for i in s], -1)
    return out


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
