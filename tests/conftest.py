"""Shared corpora and generators for the test suite."""

import math
import platform

import numpy as np
import pytest

from gibbscode.exact import make_instance
from gibbscode.gexit import series_coefficients
from gibbscode.graphs import LDGM, LDPC, build_graph

#: where the golden sha256 digests (test_bp's flood, test_de's density
#: evolution) were recorded: the bits of expm1, log1p, tanh and arctanh
#: depend on numpy's build and on which SIMD loops it dispatches to
DIGEST_PLATFORM = ("2.4.6", "x86_64", True)


def _numpy_platform():
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return np.__version__, platform.machine(), bool(features.get("AVX512_SKX"))


#: skips a golden-digest test away from DIGEST_PLATFORM
on_digest_platform = pytest.mark.skipif(
    _numpy_platform() != DIGEST_PLATFORM,
    reason="golden digests were recorded with numpy 2.4.6 on x86_64 with AVX512_SKX loops")


#: acceptance criterion 12's fixed LDGM, 10 code bits on 7 information
#: bits: a ring of degree-2 checks plus three single-bit observation
#: checks that seed BP
LIMITS_EDGES = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3], [4, 3],
                [4, 4], [5, 4], [5, 5], [6, 5], [6, 6], [0, 6],
                [0, 7], [3, 8], [5, 9]]


def random_tree_graph(rng, kind, max_code_bits=15):
    """A uniformly grown bipartite tree Tanner graph: each new node
    attaches to a random existing node of the opposite type."""
    if kind == LDPC:
        n_var = int(rng.integers(2, max_code_bits + 1))
        n_chk = int(rng.integers(1, n_var))
    else:
        n_chk = int(rng.integers(2, max_code_bits + 1))
        n_var = int(rng.integers(1, n_chk + 1))
    order = ["var"] * (n_var - 1) + ["chk"] * (n_chk - 1)
    rng.shuffle(order)
    order = ["chk"] + order  # a check goes first so variables can attach
    # node 0 is variable 0; checks attach to variables and vice versa
    placed_vars, placed_chks = [0], []
    edges = []
    vnext, cnext = 1, 0
    for typ in order:
        if typ == "chk":
            c = cnext
            cnext += 1
            v = int(rng.choice(placed_vars))
            edges.append((v, c))
            placed_chks.append(c)
        else:
            v = vnext
            vnext += 1
            c = int(rng.choice(placed_chks))
            edges.append((v, c))
            placed_vars.append(v)
    return build_graph(n_var, n_chk, edges, kind)


def random_ldpc_graph(rng, n_max=12, m_max=8, deg_lo=2, deg_hi=3):
    """Small random LDPC graph with per-check degrees in [deg_lo, deg_hi]."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, min(n, m_max) + 1))
    edges = set()
    for c in range(m):
        deg = int(rng.integers(deg_lo, deg_hi + 1))
        for v in rng.choice(n, deg, replace=False):
            edges.add((int(v), c))
    return build_graph(n, m, sorted(edges), LDPC)


def random_ldgm_graph(rng, m_max=6, n_max=8, deg_hi=3):
    """Small random LDGM graph; every check keeps at least one variable."""
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(2, n_max + 1))
    edges = set()
    for c in range(n):
        deg = int(rng.integers(1, min(m, deg_hi) + 1))
        for v in rng.choice(m, deg, replace=False):
            edges.add((int(v), c))
    return build_graph(m, n, sorted(edges), LDGM)


def tiny_ldpc_no_isolated(rng, n_hi=6, m_hi=6):
    """Tiny LDPC instance generator for the dual identity corpus; every
    variable touches at least one check."""
    n = int(rng.integers(2, n_hi + 1))
    m = int(rng.integers(1, m_hi + 1))
    edges = set()
    for c in range(m):
        deg = int(rng.integers(1, min(n, 3) + 1))
        for v in rng.choice(n, deg, replace=False):
            edges.add((int(v), c))
    for v in range(n):
        if not any(e[0] == v for e in edges):
            edges.add((v, int(rng.integers(m))))
    return build_graph(n, m, sorted(edges), LDPC)


# ----- fixed small codes used by the GEXIT oracle suite --------------------

def fixed_code_corpus():
    """Five fixed small codes mixing the two families."""
    rep3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    ldpc5 = build_graph(5, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1),
                               (3, 2), (4, 2), (0, 2)], LDPC)
    ldpc6 = build_graph(6, 4, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1),
                               (4, 2), (5, 2), (0, 2), (1, 3), (3, 3), (5, 3)], LDPC)
    ldgm_chain = build_graph(3, 5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2),
                                    (2, 3), (0, 4), (2, 4)], LDGM)
    ldgm_loop = build_graph(4, 7, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                                   (3, 3), (0, 3), (0, 4), (2, 4), (1, 5), (3, 6)],
                            LDGM)
    return [("ldpc-rep3", rep3), ("ldpc-5", ldpc5), ("ldpc-6", ldpc6),
            ("ldgm-chain", ldgm_chain), ("ldgm-loop", ldgm_loop)]


@pytest.fixture(scope="session")
def small_codes():
    return fixed_code_corpus()


def series_zero_moment_value(source_kind_prefactor, ch, p_max=20):
    """The series value when every extrinsic moment vanishes:
    -prefactor * sum_p t2p/(2p(2p-1)); for the BSC this closes to
    prefactor * ln((1-eps)/eps) = 2 prefactor atanh(1-2 eps)."""
    return -source_kind_prefactor * float(sum(series_coefficients(ch, p_max)))


# ----- exact BSC noise averages ------------------------------------------

def bsc_noise_patterns(graph, eps):
    """Every BSC noise pattern of a code's n code bits, as one (1, 2^n, n)
    one-graph instance of half-LLRs, and each pattern's probability
    eps^k (1 - eps)^(n - k), k its number of flips: the probability-
    weighted sum of any per-pattern value is its exact noise average, with
    no Monte Carlo error.  Meant for n <= 12."""
    n = graph.code_bit_count
    flips = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    a = 0.5 * math.log((1.0 - eps) / eps)
    k = flips.sum(axis=1)
    return (make_instance((graph,), np.where(flips == 1, -a, a)[None]),
            eps ** k * (1.0 - eps) ** (n - k))
