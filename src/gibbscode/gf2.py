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
"""

from __future__ import annotations

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
    half of the int8 table, with no wider temporaries."""
    out = np.empty((1 << len(signs), signs.shape[1]), np.int8)
    out[0] = 1
    for b, row in enumerate(signs):
        np.multiply(out[:1 << b], row, out=out[1 << b:2 << b])
    return out
