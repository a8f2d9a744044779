"""Linear algebra over GF(2) on python-int bitmasks, and the parity-sign
tables built from it.

An index set, a parity-check row, a codeword and a spin configuration
are all bitmasks here (bit i set iff index i is in the set, or spin i is
-1).  This module owns the four operations the enumeration layers share:
the mask of an index set, the parity signs (-1)^{popcount(word & mask)}
of a batch of words, the row reduction (rank and nullspace basis) and
the codeword enumeration.
"""

from __future__ import annotations

import numpy as np

from .channels import block_slices

#: most code bits a codeword may have: codewords are enumerated as uint64
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
    (columns), as an int8 table; the uint64 temporaries are bounded by
    the block budget."""
    masks = np.array(masks, dtype=np.uint64)
    out = np.empty((len(words), len(masks)), np.int8)
    for rows in block_slices(len(words), len(masks)):
        block = out[rows]
        block[...] = np.bitwise_count(words[rows, None] & masks) & np.uint8(1)
        block *= -2
        block += 1
    return out


def row_reduce(rows):
    """Reduced row-echelon form of GF(2) rows: (pivot, row) pairs, where
    the pivot is the lowest set bit of its row and is set in no other
    row; zero and dependent rows are dropped."""
    reduced = []
    for r in rows:
        for p, q in reduced:
            if r & p:
                r ^= q
        if r:
            p = r & -r
            reduced = [(pq, q ^ r if q & p else q) for pq, q in reduced]
            reduced.append((p, r))
    return reduced


def rank(rows):
    """Rank over GF(2) of bitmask rows."""
    return len(row_reduce(rows))


def nullspace_basis(rows, n_cols):
    """One word per free column f of the reduced rows, in ascending f:
    bit f plus the pivots of the rows that hold f.  Pivots are the rows'
    lowest bits, so f is the word's highest bit."""
    reduced = row_reduce(rows)
    pivots = sum(p for p, _ in reduced)  # distinct single bits
    basis = []
    for f in range(n_cols):
        bit = 1 << f
        if not pivots & bit:
            basis.append(bit + sum(p for p, q in reduced if q & bit))
    return basis


def codewords(rows, n_cols):
    """Every word x of the nullspace (each row & x of even popcount), as
    ascending uint64 words; n_cols is at most MAX_WORD_BITS.  Doubling
    over the basis in ascending free column keeps the words sorted: the
    word at index k XORs the basis words picked by the bits of k, and its
    highest bit is the highest free column picked, so comparing two words
    compares their indices."""
    words = np.zeros(1, np.uint64)
    for b in nullspace_basis(rows, n_cols):
        words = np.concatenate([words, words ^ np.uint64(b)])
    return words
