import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixed_code_corpus, random_ldgm_graph, random_ldpc_graph
from gibbscode import channels, exact, gf2
from gibbscode.bp import bp_all_extrinsics, bp_checkpoint_extrinsics, bp_run, tree_decode
from gibbscode.clusters import berretti_identity_residual, dkp_pointwise_bound
from gibbscode.duality import DualInstance
from gibbscode.exact import (BruteForceCapExceeded, all_extrinsics,
                             all_marginals, codebit_table, codebit_tables,
                             conditional_entropy,
                             correlations_with_root, make_instance,
                             pair_correlation,
                             partition_function, spin_product_correlation)
from gibbscode.graphs import (LDGM, LDPC, DegreeDistribution, build_graph,
                              computational_tree, sample_ensembles)


def single_check(l0, l1):
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDPC)
    return make_instance(g, [l0, l1])


def test_partition_function_examples():
    inst = single_check(0.5, 0.0)
    assert math.exp(partition_function(inst)) == pytest.approx(2 * math.cosh(0.5))
    gg = build_graph(1, 1, [(0, 0)], LDGM)
    gi = make_instance(gg, [0.7])
    assert math.exp(partition_function(gi)) == pytest.approx(2 * math.cosh(0.7))
    # all-zero llrs: Z = |C| (uniform over the codebook)
    g3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    assert math.exp(partition_function(make_instance(g3, [0, 0, 0]))) == \
        pytest.approx(2.0)


def test_marginal_examples():
    assert all_marginals(single_check(0.5, 0.0))[0] == pytest.approx(math.tanh(0.5))
    gg = build_graph(1, 1, [(0, 0)], LDGM)
    assert all_marginals(make_instance(gg, [0.3]))[0] == pytest.approx(math.tanh(0.3))
    # all l = 0 with a negation-closed codebook: marginals vanish
    g3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    assert np.allclose(all_marginals(make_instance(g3, [0, 0, 0])), 0.0)


def test_extrinsic_examples():
    inst = single_check(0.5, 0.7)
    assert all_extrinsics(inst)[0] == pytest.approx(math.tanh(0.7))
    assert all_extrinsics(inst)[1] == pytest.approx(math.tanh(0.5))
    # isolated code bit: no extrinsic information
    g = build_graph(2, 1, [(0, 0)], LDPC)
    inst2 = make_instance(g, [0.4, 0.9])
    assert all_extrinsics(inst2)[1] == pytest.approx(0.0)


#: LLRs for the property tests: moderate values and saturated ones (|l| >= 30)
llr_values = st.one_of(st.floats(-4.0, 4.0),
                       st.sampled_from([-50.0, -40.0, -30.0, 30.0, 40.0, 50.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ldpc=st.booleans(), data=st.data())
def test_marginal_extrinsic_combine_identity(seed, ldpc, data):
    """Property: <x_i> = (M_i + tanh l_i) / (1 + M_i tanh l_i) for every
    code bit, with M = all_extrinsics, moderate and saturated LLRs.  Where
    1 + M_i tanh l_i vanishes (M_i = -tanh l_i = +-1 in floating point)
    the quotient is 0/0, so the product form is checked everywhere and
    the quotient form where the denominator is at least 1e-3.  At
    tanh l_i = +-1 the identity cannot see M_i, so M_i is also checked
    against its definition: the marginal of bit i with l_i set to 0."""
    rng = np.random.default_rng(seed)
    g = random_ldpc_graph(rng) if ldpc else random_ldgm_graph(rng)
    n = g.code_bit_count
    l = np.array(data.draw(st.lists(llr_values, min_size=n, max_size=n)))
    inst = make_instance(g, l)
    M, marg, t = all_extrinsics(inst), all_marginals(inst), np.tanh(l)
    assert np.all(np.abs(M) <= 1.0) and np.all(np.abs(marg) <= 1.0)
    den = 1 + M * t
    assert np.allclose(marg * den, M + t, rtol=0, atol=1e-12)
    ok = den >= 1e-3
    assert np.allclose(marg[ok], (M + t)[ok] / den[ok], rtol=0, atol=1e-12)
    L0 = np.tile(l, (n, 1))
    np.fill_diagonal(L0, 0.0)  # row i: the instance with l_i = 0
    assert np.allclose(np.diag(all_marginals(make_instance(g, L0))), M, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed, l", [(0, [0.0, 0.0, 0.0, 0.0, 2.0, -50.0]),
                                     (19, [1.0, -1.0, -40.0, -50.0])])
def test_marginals_inside_unit_interval_at_saturated_llrs(seed, l):
    """On these instances some marginals are -1 to double precision, and
    a quotient of rounded weight sums gave -1.0000000000000002 (the first
    in a pass over the whole table, the second in the streamed pass),
    whose arctanh is NaN.  Means are kept inside [-1, 1], also inside the
    correlations."""
    g = random_ldgm_graph(np.random.default_rng(seed))
    inst = make_instance(g, l)
    marg = all_marginals(inst)
    assert np.all(np.abs(marg) <= 1.0)
    with np.errstate(divide="ignore"):  # arctanh(+-1) is +-inf, not NaN
        assert not np.any(np.isnan(np.arctanh(marg)))
    for root in range(g.code_bit_count):
        corr = correlations_with_root(inst, root)
        assert np.all(np.isfinite(corr)) and np.all(np.abs(corr) <= 2.0)


def test_pair_correlation_examples():
    inst = single_check(0.5, 0.0)
    assert pair_correlation(inst, 0, 1) == pytest.approx(1 - math.tanh(0.5) ** 2)
    g = build_graph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)], LDPC)
    inst2 = make_instance(g, [0.3, 0.4, 0.2, 0.9])
    assert pair_correlation(inst2, 0, 2) == pytest.approx(0.0, abs=1e-15)
    # LDGM: two checks sharing one info bit: x1 = x2 = u -> 1 - tanh^2(l1+l2)
    gg = build_graph(1, 2, [(0, 0), (0, 1)], LDGM)
    gi = make_instance(gg, [0.4, 0.7])
    assert pair_correlation(gi, 0, 1) == pytest.approx(1 - math.tanh(1.1) ** 2)
    with pytest.raises(ValueError):
        pair_correlation(inst, 0, 0)


def test_correlations_with_root_consistency():
    rng = np.random.default_rng(4)
    g = random_ldgm_graph(rng)
    inst = make_instance(g, rng.normal(0, 1, g.n_chk))
    row = correlations_with_root(inst, 0)
    for j in range(1, g.n_chk):
        assert row[j] == pytest.approx(pair_correlation(inst, 0, j), abs=1e-13)


def test_bounds_on_marginals_and_correlations():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_ldpc_graph(rng)
        inst = make_instance(g, rng.uniform(-30, 30, g.n_var))
        m = all_marginals(inst)
        assert np.all(np.abs(m) <= 1 + 1e-12)
        i, j = rng.choice(g.n_var, 2, replace=False)
        assert abs(pair_correlation(inst, int(i), int(j))) <= 1 + 1e-12


def test_conditional_entropy_examples():
    g3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    assert conditional_entropy(make_instance(g3, [0, 0, 0])) == \
        pytest.approx(math.log(2) / 3)
    # measure concentrates at large |l|
    assert conditional_entropy(make_instance(g3, [30, 30, 30])) < 1e-8
    # two-atom distribution for the single-check code
    inst = single_check(0.5, 0.0)
    p = math.exp(0.5) / (2 * math.cosh(0.5))
    expect = -(p * math.log(p) + (1 - p) * math.log(1 - p)) / 2
    assert conditional_entropy(inst) == pytest.approx(expect)


def test_entropy_sign_flip_invariance():
    # negation-closed codebook: flipping every l leaves the entropy fixed
    g3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    rng = np.random.default_rng(6)
    l = rng.normal(0, 2, 3)
    assert conditional_entropy(make_instance(g3, l)) == \
        pytest.approx(conditional_entropy(make_instance(g3, -l)), rel=1e-12)


def test_cap_enforced(monkeypatch):
    # one check on 26 code bits: the codewords span dimension 25
    g = build_graph(26, 1, [(v, 0) for v in range(26)], LDPC)
    inst = make_instance(g, np.zeros(26))
    with pytest.raises(BruteForceCapExceeded, match="dimension 25"):
        partition_function(inst)
    # a 64-bit chain code has dimension 1 and no word width limit: its
    # table is the two rows all +1 and all -1, so log Z = log 2cosh(sum l)
    chain = build_graph(64, 63, [(c + d, c) for c in range(63) for d in (0, 1)], LDPC)
    l = np.random.default_rng(9).normal(0.0, 0.05, 64)
    inst = make_instance(chain, l)
    assert codebit_table(chain).tolist() == [[1] * 64, [-1] * 64]
    assert partition_function(inst) == pytest.approx(math.log(2 * math.cosh(l.sum())), rel=1e-14)
    assert np.allclose(all_marginals(inst), math.tanh(l.sum()), rtol=0, atol=1e-14)
    assert np.allclose(all_extrinsics(inst), np.tanh(l.sum() - l), rtol=0, atol=1e-14)
    # the single check's codewords span dimension 1
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 1)
    partition_function(single_check(0.1, 0.2))
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 0)
    with pytest.raises(BruteForceCapExceeded, match="exceeds cap 0"):
        partition_function(single_check(0.1, 0.2))


def test_cap_applies_to_codeword_dimension(monkeypatch):
    """n = 10 code bits, rank 4: the cap counts n - rank = 6, not n."""
    g = build_graph(10, 4, [(c, c) for c in range(4)] +
                    [(v, c) for c in range(4) for v in (4 + c, 9 - c)], LDPC)
    assert g.free_spin_count == 6
    l = np.random.default_rng(8).normal(0.4, 1.0, (3, 10))
    inst = make_instance(g, l)
    marg, logz = all_marginals(inst), partition_function(inst)
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 6)
    assert np.array_equal(all_marginals(inst), marg)
    assert np.array_equal(partition_function(inst), logz)
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 5)
    with pytest.raises(BruteForceCapExceeded):
        all_marginals(inst)


def test_spin_products_checked_before_columns_are_built(monkeypatch):
    """An LDGM instance over the cap is rejected before its 2^rank G sign
    columns are built; the cap counts rank G = 2, not the 3 information
    bits."""
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDGM)
    inst = make_instance(g, [0.3, -0.4])
    expect = spin_product_correlation(inst, {0}, {2})
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 2)
    assert spin_product_correlation(inst, {0}, {2}) == expect
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 1)
    monkeypatch.setattr(exact, "_spin_products", lambda *a: pytest.fail("built"))
    with pytest.raises(BruteForceCapExceeded, match="2 \\(rank G\\)"):
        spin_product_correlation(inst, {0}, {2})


@st.composite
def ldpc_graphs(draw):
    """Small LDPC graphs, duplicate and empty checks allowed."""
    n = draw(st.integers(0, 14))
    var = st.integers(0, n - 1) if n else st.nothing()
    checks = draw(st.lists(st.sets(var, max_size=n), max_size=12))
    return build_graph(n, len(checks), [(v, c) for c, chk in enumerate(checks) for v in chk],
                       LDPC)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ldpc_graphs())
@example(build_graph(4, 3, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2)], LDPC))
@example(build_graph(5, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)], LDPC))
@example(build_graph(6, 0, [], LDPC))
@example(build_graph(7, 2, [(0, 0), (2, 0), (4, 0), (2, 1), (4, 1)], LDPC))
def test_codeword_table_matches_cube_filter(g):
    """The table spanned from the nullspace basis equals the 2^n spin
    configurations filtered by every parity check: same rows, same
    order, same dtype (duplicate checks, rank-deficient H, no checks and
    variables in no check among the examples)."""
    configs = np.arange(1 << g.n_var, dtype=np.uint64)
    valid = np.ones(len(configs), dtype=bool)
    for chk in g.adj_chk:
        mask = np.uint64(sum(1 << v for v in chk))
        valid &= np.bitwise_count(configs & mask) % 2 == 0
    bits = (configs[valid, None] >> np.arange(g.n_var, dtype=np.uint64)) & np.uint64(1)
    expect = (1 - 2 * bits.astype(np.int64)).astype(np.int8)
    X = codebit_table(g)
    assert X.dtype == np.int8
    assert np.array_equal(X, expect)
    assert len(X) == 2 ** g.free_spin_count


def test_table_cache_bounded_by_bytes(monkeypatch):
    """The table cache keeps at most max_bytes and at most maxsize
    tables, least recently used out first, and never keeps a table
    larger than its byte budget."""
    codebit_table.cache_clear()
    monkeypatch.setattr(codebit_table, "max_bytes", 600)

    def ldgm(m):  # rank m: a 2^m x 12 int8 table
        return build_graph(m, 12, [(c % m, c) for c in range(12)], LDGM)

    for m in (3, 4, 5):  # 96 + 192 + 384 bytes
        codebit_table(ldgm(m))
    info = codebit_table.cache_info()
    assert info.misses == 3 and info.hits == 0
    assert info.nbytes == 384 + 192 <= 600
    X = codebit_table(ldgm(5))
    assert codebit_table.cache_info().hits == 1
    assert not X.flags.writeable
    assert codebit_table(ldgm(6)).nbytes == 768  # over budget: returned, not kept
    codebit_table(ldgm(6))
    info = codebit_table.cache_info()
    assert info.misses == 5 and info.nbytes == 576 and info.currsize == 2
    # the entry bound still holds under the byte budget
    monkeypatch.setattr(codebit_table, "max_bytes", 10 ** 6)
    for m in range(1, codebit_table.maxsize + 2):
        codebit_table(ldgm(m))
    assert codebit_table.cache_info().currsize == codebit_table.maxsize
    codebit_table.cache_clear()


def codewords(reduced, n_cols):
    """Every codeword of the reduced parity checks as an ascending uint64
    word, doubled over the nullspace basis in ascending free column: the
    word at index k XORs the basis words picked by the bits of k."""
    words = np.zeros(1, np.uint64)
    for b in gf2.nullspace_basis(reduced, n_cols):
        words = np.concatenate([words, words ^ np.uint64(gf2.mask(b))])
    return words


def pivot_configurations(g):
    """The 2^rank G configurations of an LDGM graph's pivot information
    bits as uint64 words in variable coordinates, all other bits 0: bit
    j of the index k set at the j-th lowest pivot, in ascending k."""
    index = gf2.cube(len(g.reduced_checks))
    configs = np.zeros_like(index)
    for j, pivot in enumerate(sorted(p for p, _ in g.reduced_checks)):
        configs |= (index >> np.uint64(j) & np.uint64(1)) * np.uint64(pivot)
    return configs


def parity_sign_table(g):
    """The table as popcounted parity signs of every enumerated word: the
    2^rank G pivot configurations against the check masks (LDGM), or the
    codewords against the unit masks (LDPC)."""
    if g.kind == LDGM:
        return gf2.parity_signs(pivot_configurations(g), [gf2.mask(c) for c in g.adj_chk])
    return gf2.parity_signs(codewords(g.reduced_checks, g.n_var),
                            [1 << i for i in range(g.n_var)])


def test_codebit_table_doubles_the_parity_signs():
    """The doubled table equals gf2.parity_signs over the pivot
    configurations (LDGM) or the codewords (LDPC) bit for bit: same int8
    values, same row order; on random graphs of both families,
    rank-deficient generators, redundant parity checks, and tables that
    span several parity_signs blocks of BLOCK_ELEMENTS entries."""
    rng = np.random.default_rng(19)
    graphs = [g for _, g in fixed_code_corpus()]
    for _ in range(40):
        graphs += [random_ldgm_graph(rng), random_ldpc_graph(rng)]
    # rank G 3 of 5: a 4-cycle of degree-2 checks and a variable in no check
    graphs.append(build_graph(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3),
                                     (3, 3)], LDGM))
    # check 2 is the sum of checks 0 and 1
    graphs.append(build_graph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2), (2, 3),
                                     (3, 3)], LDPC))
    # 2^13 x 16 and 2^14 x 20 tables: 16 and 40 blocks of parity signs
    graphs.append(build_graph(13, 16, [(c % 13, c) for c in range(16)]
                              + [((c + 5) % 13, c) for c in range(16)], LDGM))
    graphs.append(build_graph(20, 6, [(v, v % 6) for v in range(20)], LDPC))
    deficient = redundant = big = 0
    for g in graphs:
        want = parity_sign_table(g)
        codebit_table.cache_clear()
        X = codebit_table(g)
        assert X.dtype == np.int8 and X.shape == want.shape
        assert np.array_equal(X, want), g
        rank = len(g.reduced_checks)
        deficient += g.kind == LDGM and rank < g.n_var
        redundant += g.kind == LDPC and rank < g.n_chk
        big += X.size > 4 * channels.BLOCK_ELEMENTS
    assert deficient >= 5 and redundant >= 2 and big == 2


def test_row_reduce_stack_is_row_reduce_per_matrix():
    """gf2.row_reduce_stack gives each matrix of the stack the pairs
    gf2.row_reduce gives it, sorted by pivot, and gf2.nullspace_signs the
    sign rows of gf2.nullspace_basis's words: on sparse random masks of up
    to 63 bits, with zero rows, repeated rows and a row that is the sum of
    two others, on columns no row holds, and on empty stacks."""
    rng = np.random.default_rng(23)
    for G, m, bits in [(40, 16, 16), (9, 7, 5), (1, 5, 4), (6, 12, 63), (2, 5, 1), (3, 4, 6)]:
        masks = rng.integers(0, 1 << bits, (G, m), dtype=np.uint64) \
            & rng.integers(0, 1 << bits, (G, m), dtype=np.uint64)
        masks[:, 0] = 0
        masks[:, 1] = masks[:, 2]
        masks[:, -1] = masks[:, 2] ^ masks[:, 3]
        width = bits + 2 if bits < 62 else bits
        rows, pivots = gf2.row_reduce_stack(masks, width)
        assert rows.shape == pivots.shape == (G, width)
        assert not rows[~pivots].any()
        want = [sorted(gf2.row_reduce(row)) for row in masks.tolist()]
        assert [[(1 << j, int(rows[g, j])) for j in np.flatnonzero(pivots[g])]
                for g in range(G)] == want
        assert np.array_equal(gf2.nullspace_signs(rows, pivots), np.concatenate(
            [gf2.sign_rows(gf2.nullspace_basis(pairs, width), width) for pairs in want]))
    for G, m in [(3, 0), (0, 4)]:
        rows, pivots = gf2.row_reduce_stack(np.zeros((G, m), np.uint64), 5)
        assert rows.shape == (G, 5) and not pivots.any()
        assert np.array_equal(gf2.nullspace_signs(rows, pivots),
                              np.tile(gf2.sign_rows([[f] for f in range(5)], 5), (G, 1)))


def test_codebit_tables_stack_each_graphs_table():
    """codebit_tables stacks the codebit_table of each graph bit for bit,
    and each slice is the graph's popcounted parity_sign_table, on groups
    of one table shape drawn from LDPC and LDGM ensembles (windowed,
    rank-deficient checks among them) and on fixed graphs."""
    ensembles = [(DegreeDistribution.regular(4, 4), 16, LDPC),
                 (DegreeDistribution.regular(3, 6), 12, LDPC),
                 (DegreeDistribution.regular(3, 2), 9, LDGM),
                 (DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0}), 14, LDGM)]
    groups = []
    for dd, n, kind in ensembles:
        shapes = {}
        for g in sample_ensembles(dd, n, kind, range(60)):
            shapes.setdefault(g.free_spin_count, []).append(g)
        groups += shapes.values()
    groups.append([g for _, g in fixed_code_corpus() if g.kind == LDPC and g.n_var == 5] * 2)
    for group in groups:
        X = codebit_tables(tuple(group))
        codebit_table.cache_clear()
        assert X.dtype == np.int8
        assert np.array_equal(X, np.stack([codebit_table(g) for g in group]))
        assert np.array_equal(X, np.stack([parity_sign_table(g) for g in group]))
    assert sum(len(group) > 1 for group in groups) >= 8


@pytest.mark.parametrize("budget", [channels.BLOCK_ELEMENTS, 24], ids=["default", "chunked"])
def test_moments_with_root_is_each_pass_bitwise(monkeypatch, budget):
    """log Z, the marginals and the root's correlation row from the one
    pass equal partition_function, all_marginals and
    correlations_with_root bit for bit, for a single realization and for
    a block with one root per sample, in one chunk or many."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(20)
    bits = lambda a: np.asarray(a, float).view(np.int64)
    for name, g in fixed_code_corpus():
        L = rng.normal(0.5, 2.0, (5, g.code_bit_count))
        for inst, root in ((make_instance(g, L[0]), 1),
                           (make_instance(g, L), rng.integers(g.code_bit_count, size=5))):
            logz, marg, corr = exact.moments_with_root(inst, root)
            assert np.array_equal(bits(logz), bits(partition_function(inst))), name
            assert np.array_equal(bits(marg), bits(all_marginals(inst))), name
            assert np.array_equal(bits(corr), bits(correlations_with_root(inst, root))), name


def test_matches_high_precision_oracle():
    """Log-domain results match a 256-bit mpmath oracle to 1e-9 with
    |l| up to 30 on small instances."""
    import mpmath
    mpmath.mp.prec = 256
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_ldpc_graph(rng, n_max=8, m_max=4)
        l = rng.uniform(-30, 30, g.n_var)
        inst = make_instance(g, l)
        X = codebit_table(g)
        Z = mpmath.mpf(0)
        mi = mpmath.mpf(0)
        for row in X:
            w = mpmath.exp(mpmath.fsum(mpmath.mpf(float(l[j])) * int(row[j])
                                       for j in range(g.n_var)))
            Z += w
            mi += int(row[0]) * w
        assert partition_function(inst) == pytest.approx(float(mpmath.log(Z)),
                                                         abs=1e-9)
        assert all_marginals(inst)[0] == pytest.approx(float(mi / Z), abs=1e-9)


def test_spin_product_correlation():
    # path a-c-b: <u_a u_b> - <u_a><u_b> = tanh(l) (single-spin means are 0)
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDGM)
    inst = make_instance(g, [0.1])
    assert spin_product_correlation(inst, {0}, {1}) == pytest.approx(math.tanh(0.1))
    with pytest.raises(ValueError):
        spin_product_correlation(make_instance(
            build_graph(2, 1, [(0, 0), (1, 0)], LDPC), [0.1, 0.2]), {0}, {1})


def test_extrinsics_finite_at_saturated_llrs():
    """rep3 has codewords +++ and ---, so ext_0 = tanh(l_1 + l_2) and so
    on; |l| beyond the exp overflow point (~709) must not give NaN, and
    l = (1000, 0, 0) puts the weight of --- below double underflow."""
    _check_rep3_saturated_extrinsics()


def test_extrinsics_finite_at_saturated_llrs_in_row_chunks(monkeypatch):
    """The same cases with one table row per chunk: +++ and --- stream
    through separate chunks, and the underflow fallback's marginal pass
    over the flagged entries streams chunk by chunk too."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", 3)
    _check_rep3_saturated_extrinsics()


def _check_rep3_saturated_extrinsics():
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    cases = [[800.0, -750.0, 5.0], [1000.0, 0.0, 0.0], [1000.0, -999.0, 0.5], [0.3, -0.2, 0.9]]
    expect = [[math.tanh(l[1] + l[2]), math.tanh(l[0] + l[2]), math.tanh(l[0] + l[1])]
              for l in cases]
    for l, ext in zip(cases, expect):
        inst = make_instance(g, l)
        assert np.allclose(all_extrinsics(inst), ext, rtol=0, atol=1e-12), l
        assert all_extrinsics(inst)[1] == pytest.approx(ext[1], abs=1e-12)
    # the cases as one block: the fallback recomputes only the flagged entries
    assert np.allclose(all_extrinsics(make_instance(g, cases)), expect, rtol=0, atol=1e-12)


def _enumerated_rows(g):
    """The code-bit values of every configuration (all 2^n_var spins of
    an LDGM graph, the parity-satisfying ones of an LDPC graph), by
    direct enumeration."""
    rows = []
    for spins in itertools.product((1, -1), repeat=g.n_var):
        if g.kind == LDGM:
            rows.append([math.prod(spins[a] for a in g.adj_chk[i]) for i in range(g.n_chk)])
        elif all(math.prod(spins[v] for v in g.adj_chk[c]) == 1 for c in range(g.n_chk)):
            rows.append(list(spins))
    return rows


def _per_row_reference(g, L, roots=None):
    """Marginals, extrinsics, entropy per code bit, correlations with
    root roots[s] (default 0) and log Z for each row s of L, by direct
    enumeration of the spins (all 2^n_var of an LDGM graph); weights are
    shifted by their maximum, so saturated rows stay finite."""
    X = np.array(_enumerated_rows(g), float)
    out = []
    for l, root in zip(L, np.zeros(len(L), int) if roots is None else roots):
        logw = X @ l
        p = np.exp(logw - logw.max())
        logz = logw.max() + np.log(p.sum())
        p /= p.sum()
        marg = p @ X
        ext = []
        for i in range(X.shape[1]):
            logw0 = logw - l[i] * X[:, i]
            w0 = np.exp(logw0 - logw0.max())
            ext.append((w0 @ X[:, i]) / w0.sum())
        entropy = (logz - p @ logw) / g.code_bit_count
        corr = (p * X[:, root]) @ X - marg[root] * marg
        out.append((marg, np.array(ext), entropy, corr, logz))
    return [np.array(x) for x in zip(*out)]


def _spin_product_reference(g, L, A, B):
    """<u_A u_B> - <u_A><u_B> for each row of L on an LDGM graph, by
    direct enumeration of the information bits."""
    U = np.array(list(itertools.product((1, -1), repeat=g.n_var)), float)
    X = np.stack([U[:, list(chk)].prod(axis=1) for chk in g.adj_chk], axis=1)
    uA, uB = U[:, sorted(A)].prod(axis=1), U[:, sorted(B)].prod(axis=1)
    out = []
    for l in L:
        logw = X @ l
        p = np.exp(logw - logw.max())
        p /= p.sum()
        out.append(p @ (uA * uB) - (p @ uA) * (p @ uB))
    return np.array(out)


@pytest.mark.parametrize("budget", [channels.BLOCK_ELEMENTS, 24], ids=["default", "chunked"])
def test_block_pass_matches_per_row_enumeration(monkeypatch, budget):
    """One posterior pass over an (S, n) block gives every row's exact
    quantities, also when the block and the table are split into chunks."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(21)
    for name, g in fixed_code_corpus():
        L = rng.normal(0.5, 1.5, (9, g.code_bit_count))
        inst = make_instance(g, L)
        marg, ext, entropy, corr, _ = _per_row_reference(g, L)
        assert np.max(np.abs(all_marginals(inst) - marg)) <= 1e-12, name
        assert np.max(np.abs(all_extrinsics(inst) - ext)) <= 1e-12, name
        assert np.max(np.abs(conditional_entropy(inst) - entropy)) <= 1e-12, name
        assert np.max(np.abs(correlations_with_root(inst, 0) - corr)) <= 1e-12, name
        # per-sample roots: row s of the block against its own S = 1 pass
        roots = rng.integers(g.code_bit_count, size=len(L))
        block = correlations_with_root(inst, roots)
        for s, r in enumerate(roots):
            single = correlations_with_root(make_instance(g, L[s]), r)
            assert np.max(np.abs(block[s] - single)) <= 1e-12, name


def _chunks(g):
    """The row slices the posterior pass converts, at the current budget."""
    return channels.block_slices(*codebit_table(g).shape)


@pytest.mark.parametrize("chunk_rows", [1, 2])
def test_streamed_pass_over_row_chunks(monkeypatch, chunk_rows):
    """Under a budget of chunk_rows table rows per chunk (and as many
    samples per block), every table of three or more chunk_rows rows
    splits into at least 3 chunks, and every reduction matches direct
    enumeration, including a sample whose maximum log-weight grows by more
    than 745 in the last chunk (the rescale factor underflows to 0, and
    the extrinsics' underflow fallback runs), per-sample roots and the
    LDGM spin products."""
    rng = np.random.default_rng(22)
    for name, g in fixed_code_corpus():
        monkeypatch.setattr(channels, "BLOCK_ELEMENTS", chunk_rows * g.code_bit_count)
        X = codebit_table(g).astype(float)
        chunks = _chunks(g)
        assert len(chunks) == -(-len(X) // chunk_rows), name
        late = len(X) - 1  # in the last chunk
        jump = 400.0 * X[late]
        logw = X @ jump
        assert len(chunks) == 1 or logw[:chunks[-1].start].max() < logw[late] - 745, name
        L = np.vstack([rng.normal(0.5, 1.5, (5, g.code_bit_count)), jump, -jump])
        inst = make_instance(g, L)
        roots = rng.integers(g.code_bit_count, size=len(L))
        marg, ext, entropy, corr, _ = _per_row_reference(g, L, roots)
        assert np.max(np.abs(all_marginals(inst) - marg)) <= 1e-12, name
        assert np.max(np.abs(all_extrinsics(inst) - ext)) <= 1e-12, name
        assert np.max(np.abs(conditional_entropy(inst) - entropy)) <= 1e-12, name
        assert np.max(np.abs(correlations_with_root(inst, roots) - corr)) <= 1e-12, name
        if g.kind == LDGM:
            A, B = g.adj_chk[0], g.adj_chk[-1]
            assert np.max(np.abs(spin_product_correlation(inst, A, B) -
                                 _spin_product_reference(g, L, A, B))) <= 1e-12, name


def test_each_row_chunk_converted_once_per_call(monkeypatch):
    """A 500-sample call converts each row chunk of the table to float
    exactly once, whatever the reduction (a 2^7 x 12 table, rank 7 of 10
    information bits, in chunks of 12 rows).  The spin products read that
    table; the other reductions read the dual code's 2^5 x 12 table, and
    then the primal table once more for the samples whose dual sums
    cancel past the rounding target, one pass over the flagged samples."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", 144)
    rng = np.random.default_rng(23)
    g = build_graph(10, 12, [(v, c) for c in range(12) for v in {c % 10, (3 * c + 1) % 10}],
                    LDGM)
    chunks = _chunks(g)
    assert len(chunks) >= 10
    converted = []
    convert = exact._float_chunk

    def counted(X, rows):
        converted.append((rows.start, rows.stop))
        return convert(X, rows)

    monkeypatch.setattr(exact, "_float_chunk", counted)
    inst = make_instance(g, rng.normal(1.0, 1.0, (500, g.n_chk)))
    roots = rng.integers(g.n_chk, size=500)
    primal = [(rows.start, rows.stop) for rows in chunks]
    dual = [(rows.start, rows.stop) for rows in _chunks(g.dual_code)]
    assert exact.table_source(g) == (5, True)
    for reduce in (partition_function, all_marginals, all_extrinsics, conditional_entropy,
                   lambda inst: correlations_with_root(inst, roots)):
        converted.clear()
        reduce(inst)
        assert converted == dual + primal
    converted.clear()
    spin_product_correlation(inst, {0}, {5})
    assert converted == primal


@st.composite
def rank_deficient_ldgm_graphs(draw):
    """Small LDGM graphs whose generator G has rank below n_var: checks
    of any degree (empty ones too), duplicate checks and variables in no
    check allowed."""
    n_var = draw(st.integers(1, 9))
    checks = draw(st.lists(st.sets(st.integers(0, n_var - 1)), min_size=1, max_size=10))
    assume(gf2.rank(gf2.mask(c) for c in checks) < n_var)
    return build_graph(n_var, len(checks), [(v, c) for c, chk in enumerate(checks) for v in chk],
                       LDGM)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rank_deficient_ldgm_graphs(), st.integers(0, 2 ** 32 - 1))
# a 4-cycle of degree-2 checks (u -> -u keeps every x) and a variable in no check
@example(build_graph(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3), (3, 3)],
                     LDGM), 0)
# a duplicate check
@example(build_graph(3, 3, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)], LDGM), 1)
# a chain of even checks
@example(build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDGM), 2)
def test_rank_deficient_ldgm_matches_cube_enumeration(g, seed):
    """The table keeps one configuration per coset of the kernel of G,
    2^rank G rows, and every quantity matches direct enumeration of all
    2^n_var configurations: log Z, marginals, extrinsics, entropy,
    correlations with per-sample roots and spin products, also of sets
    outside the row space of G, whose means vanish."""
    rank = gf2.rank(gf2.mask(c) for c in g.adj_chk)
    assert len(codebit_table(g)) == 2 ** rank
    rng = np.random.default_rng(seed)
    L = rng.normal(0.3, 1.5, (4, g.n_chk))
    saturated = rng.random(L.shape) < 0.15
    L[saturated] = rng.choice([-40.0, 40.0], saturated.sum())
    inst = make_instance(g, L)
    roots = rng.integers(g.n_chk, size=len(L))
    marg, ext, entropy, corr, logz = _per_row_reference(g, L, roots)
    assert np.max(np.abs(partition_function(inst) - logz)) <= 1e-12 * max(1, np.abs(logz).max())
    assert np.max(np.abs(all_marginals(inst) - marg)) <= 1e-12
    assert np.max(np.abs(all_extrinsics(inst) - ext)) <= 1e-12
    assert np.max(np.abs(conditional_entropy(inst) - entropy)) <= 1e-12
    assert np.max(np.abs(correlations_with_root(inst, roots) - corr)) <= 1e-12
    subset = lambda: {v for v in range(g.n_var) if rng.random() < 0.5}
    for A, B in ((g.adj_chk[0], g.adj_chk[-1]), ({0}, {g.n_var - 1}), (subset(), subset())):
        assert np.max(np.abs(spin_product_correlation(inst, A, B) -
                             _spin_product_reference(g, L, A, B))) <= 1e-12, (A, B)


def test_spin_products_match_the_popcount():
    """The doubled spin-product table equals the parity signs of the
    pivot configurations against the masks of A + B, A and B bit for
    bit, with the columns of sets outside the row space of G zeroed; on
    random LDGM graphs, rank-deficient ones among them, and sets inside
    and outside the row space."""
    rng = np.random.default_rng(23)
    outside = deficient = 0
    for _ in range(60):
        g = random_ldgm_graph(rng)
        deficient += len(g.reduced_checks) < g.n_var
        subset = lambda: {v for v in range(g.n_var) if rng.random() < 0.5}
        for A, B in ((g.adj_chk[0], g.adj_chk[-1]), (subset(), subset())):
            masks = [gf2.mask(A) ^ gf2.mask(B), gf2.mask(A), gf2.mask(B)]
            want = gf2.parity_signs(pivot_configurations(g), masks)
            zero = [gf2.reduce(s, g.reduced_checks) != 0 for s in masks]
            want[:, zero] = 0
            U = exact._spin_products(g, A, B)
            assert U.dtype == np.int8 and np.array_equal(U, want), (g, A, B)
            outside += any(zero)
    assert outside >= 10 and deficient >= 5


def test_ldgm_beyond_word_width_has_closed_forms():
    """LDGM codes of more information bits than a uint64 word holds: 6
    checks on disjoint sets of 11 variables, 66 in all, and the same
    checks moved past 14 variables in no check, so that pivots lie past
    bit 63.  The table is the 2^6 sign cube of the checks, log Z = n_var
    ln 2 + sum_c ln cosh l_c, <x_c> = tanh l_c, and distinct checks are
    uncorrelated."""
    bits = np.arange(64)[:, None] >> np.arange(6) & 1
    l = np.random.default_rng(29).normal(0.3, 1.0, (5, 6))
    for skip in (0, 14):
        g = build_graph(66 + skip, 6, [(skip + v, v // 11) for v in range(66)], LDGM)
        assert np.array_equal(codebit_table(g), (1 - 2 * bits).astype(np.int8))
        inst = make_instance(g, l)
        logz = g.n_var * math.log(2) + np.log(np.cosh(l)).sum(axis=1)
        assert np.max(np.abs(partition_function(inst) - logz)) <= 1e-12 * np.abs(logz).max()
        assert np.max(np.abs(all_marginals(inst) - np.tanh(l))) <= 1e-12
        assert np.max(np.abs(spin_product_correlation(inst, g.adj_chk[0], g.adj_chk[5]))) <= 1e-12
        assert np.max(np.abs(spin_product_correlation(inst, g.adj_chk[2], g.adj_chk[2])
                             - (1 - np.tanh(l[:, 2]) ** 2))) <= 1e-12


# ---------------------------------------------------------------------------
# the graph axis: an instance of several graphs that share a table shape
# ---------------------------------------------------------------------------

#: the reductions that take a batch
BATCHED = (partition_function, all_marginals, all_extrinsics, conditional_entropy,
           lambda inst: correlations_with_root(inst, 1))


def _same_shape_graphs():
    """LDGM graphs on 3 code bits with 2-row tables (a batch shares one
    family): two information bits in every check (rank 1 of 2), a bit
    repeated on 3 checks, and one with a second information bit in no
    check (rank 1 of 2, a coset factor of 2)."""
    return [build_graph(2, 3, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)], LDGM),
            build_graph(1, 3, [(0, 0), (0, 1), (0, 2)], LDGM),
            build_graph(2, 3, [(0, 0), (0, 1), (0, 2)], LDGM)]


def test_batch_equals_each_graph_alone(monkeypatch):
    """Every batched reduction gives each graph, bit for bit, what a call
    on that graph alone gives, on an LDGM batch of differing coset factors,
    on (4,4) LDPC ensemble graphs of 16 code bits sharing a 4-row table,
    and on (3,2) LDGM ensemble graphs of 18 code bits that read their
    dual codes' 128-row tables, some samples of which cancel past the
    rounding target and are redone on the primal table, graph by graph."""
    from gibbscode.graphs import DegreeDistribution, sample_ensemble

    rng = np.random.default_rng(31)
    ldpc = [sample_ensemble(DegreeDistribution.regular(4, 4), 16, LDPC, s) for s in range(40)]
    ldpc = [g for g in ldpc if g.free_spin_count == 2]
    assert len(ldpc) >= 3
    dual = [g for g in sample_ensembles(DegreeDistribution.regular(3, 2), 18, LDGM, range(12))
            if exact.table_source(g) == (7, True)][:3]  # one chunk: 3 x 128 x 18 entries
    assert len(dual) == 3
    redone = _count_redone(monkeypatch)
    for graphs in (_same_shape_graphs(), ldpc, dual):
        for S in (1, 5):
            L = rng.normal(0.5, 1.5, (len(graphs), S, graphs[0].code_bit_count))
            batch = make_instance(tuple(graphs), L)
            for reduce in BATCHED:
                out = reduce(batch)
                assert out.shape[:2] == (len(graphs), S)
                for k, g in enumerate(graphs):
                    alone = reduce(make_instance(g, L[k]))
                    assert out[k].tobytes() == np.asarray(alone).tobytes(), (reduce, k)
    assert redone[0] > 0


# ---------------------------------------------------------------------------
# the dual code's table
# ---------------------------------------------------------------------------

def _count_redone(monkeypatch):
    """A one-entry list counting the samples that dual passes redo on the
    primal table (the passes that _posterior gives sample positions)."""
    redone, posterior = [0], exact._posterior

    def counted(inst, terms, finish, dual=None, index=None):
        redone[0] += 0 if index is None else len(index)
        return posterior(inst, terms, finish, dual, index)

    monkeypatch.setattr(exact, "_posterior", counted)
    return redone


def _dual_test_graphs():
    """The corpus LDGM codes and LDGM ensemble draws of 9 to 24 code bits,
    rank-deficient generators among them."""
    graphs = [g for _, g in fixed_code_corpus() if g.kind == LDGM]
    for dd, n, seeds in ((DegreeDistribution.regular(3, 2), 9, range(3)),
                         (DegreeDistribution.regular(3, 2), 18, range(3)),
                         (DegreeDistribution.regular(3, 2), 24, range(2)),
                         (DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0}), 14,
                          range(3))):
        graphs += sample_ensembles(dd, n, LDGM, seeds)
    return graphs


def test_dual_tables_are_the_dual_codes():
    """Each graph's dual_code is its dual code: the rows of its
    codebit_table are, as 0/1 words, every y in {0,1}^n_chk with an even
    number of checks of y at every variable, each once, found by popcount
    over all 2^n_chk words; and codebit_tables stacks the one-graph
    dual tables."""
    graphs = _dual_test_graphs()[:-5]  # n_chk <= 18
    for g in graphs:
        Y = (exact.codebit_table(g.dual_code) < 0).view(np.int8)
        words = np.arange(1 << g.n_chk, dtype=np.uint64)
        var_masks = [gf2.mask(a) for a in g.adj_var]
        even = (gf2.parity_signs(words, var_masks) == 1).all(axis=1)
        want = {tuple(int(w) >> i & 1 for i in range(g.n_chk)) for w in words[even]}
        assert len(Y) == len(want) == 2 ** (g.n_chk - g.free_spin_count)
        assert {tuple(row) for row in Y.tolist()} == want
    same = [g.dual_code for g in graphs
            if g.n_chk == 18 and g.free_spin_count == graphs[-1].free_spin_count]
    assert np.array_equal(exact.codebit_tables(tuple(same)),
                          np.stack([exact.codebit_table(d) for d in same]))


def test_dispatch_reads_the_smaller_table():
    """LDGM graphs read the dual code's table when it and the dual pass's
    per-bit work come to fewer rows than the primal table; small tables
    and LDPC graphs read their own."""
    law = DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0})
    for g in sample_ensembles(law, 56, LDGM, range(4)):
        rank = g.free_spin_count
        assert rank > exact.BRUTE_FORCE_CAP and exact.table_source(g) == (56 - rank, True)
    for _, g in fixed_code_corpus():  # tables of 2 to 16 rows
        assert exact.table_source(g) == (g.free_spin_count, False)
    g = sample_ensembles(DegreeDistribution.regular(3, 6), 24, LDPC, [0])[0]
    assert exact.table_source(g) == (g.free_spin_count, False)


def test_dual_redo_past_the_cap_raises():
    """A sample that needs the primal table (here one holding t = 0) on a
    graph whose rank G is past the cap raises BruteForceCapExceeded, and
    the message says why the primal table was needed."""
    law = DegreeDistribution.from_dicts({2: 2 / 3, 3: 1 / 3}, {2: 1.0})
    g = sample_ensembles(law, 56, LDGM, [0])[0]
    L = np.full((3, 56), 0.1)
    assert np.all(np.isfinite(all_marginals(make_instance(g, L))))
    L[1, 7] = 0.0
    with pytest.raises(BruteForceCapExceeded, match=r"^1 sample\(s\) need the primal table .*"
                                                    r"whose support dimension 4\d \(rank G\)"):
        all_marginals(make_instance(g, L))


def test_dual_route_equals_the_primal_table(monkeypatch):
    """The oracle for the dual route: log Z, marginals, extrinsics,
    conditional entropy and root correlations read from the dual code's
    table equal the primal table's to 1e-13 (log Z relative to max(1,
    |log Z|)), on every corpus LDGM code and on ensemble draws of up to 24
    code bits, at BSC eps 0.03 to 0.47 and BIAWGNC eps 0.5 to 2, with
    saturated LLRs (|l| = 40, so t = +-1) and exact zeros (t = 0) mixed
    in.  Samples whose dual sums cancel past the target, and those with
    t = 0, are redone on the primal table, and both kinds occur."""
    rng = np.random.default_rng(41)
    redone = _count_redone(monkeypatch)
    channels_ = [channels.ChannelModel("bsc", e) for e in (0.03, 0.1, 0.2, 0.3, 0.4, 0.47)] + \
        [channels.ChannelModel("biawgnc", e) for e in (0.5, 1.0, 2.0)]
    reductions = (partition_function, all_marginals, all_extrinsics, conditional_entropy)
    cases = zero_cases = 0
    for g in _dual_test_graphs():
        dual, primal = (g.n_chk - g.free_spin_count, True), (g.free_spin_count, False)
        for ch in channels_:
            L = channels.sample_llr(ch, (30, g.n_chk), rng)
            saturated = rng.random(L.shape) < 0.03
            L[saturated] = rng.choice([-40.0, 40.0], saturated.sum())
            L[-1, rng.integers(g.n_chk)] = 0.0
            inst = make_instance(g, L)
            roots = rng.integers(g.n_chk, size=len(L))
            got = {}
            for source in (dual, primal):
                monkeypatch.setattr(exact, "table_source", lambda g, source=source: source)
                before = redone[0]
                got[source] = [f(inst) for f in reductions] + [
                    correlations_with_root(inst, roots)]
                if source == dual:
                    cases += 1
                    zero_cases += redone[0] - before >= len(reductions) + 1
            for k, (a, b) in enumerate(zip(got[dual], got[primal])):
                scale = np.maximum(1.0, np.abs(b)) if k == 0 else 1.0
                assert np.all(np.isfinite(a)), (g, ch, k)
                assert np.max(np.abs(a - b) / scale) <= 1e-13, (g, ch, k)
    assert zero_cases == cases  # the sample holding t = 0 is redone in every call
    assert redone[0] > 2 * cases * (len(reductions) + 1)  # and others, past kappa


def test_batch_recomputes_tiny_halves_per_graph(monkeypatch):
    """One graph of a batch with saturated LLRs (its -1 half underflows)
    takes the recompute, one all_marginals pass on that graph alone with
    a row per flagged entry; every graph's extrinsics equal its own
    call's bit for bit."""
    graphs = _same_shape_graphs()
    L = np.random.default_rng(32).normal(0.3, 1.0, (3, 2, 3))
    L[1, 1] = [1000.0, 0.0, 0.5]
    redone = []
    marginals = exact.all_marginals

    def counted(inst):
        redone.append((inst.graph, inst.values.shape))
        return marginals(inst)

    monkeypatch.setattr(exact, "all_marginals", counted)
    out = all_extrinsics(make_instance(tuple(graphs), L))
    assert redone == [(graphs[1], (3, 3))]  # the three bits of sample 1
    for k, g in enumerate(graphs):
        assert out[k].tobytes() == all_extrinsics(make_instance(g, L[k])).tobytes(), k
    assert np.all(np.isfinite(out))


def test_recomputed_extrinsics_match_a_50_digit_enumeration(monkeypatch):
    """Saturated draws on the corpus codes (|l| up to 2400) whose halves
    underflow: the recomputed extrinsics, and every other, are within
    1e-12 of <x_i> with l_i = 0 summed in 50-digit decimal arithmetic
    over the enumerated configurations."""
    redone = []
    marginals = exact.all_marginals

    def counted(inst):
        redone.append(len(inst.values))
        return marginals(inst)

    monkeypatch.setattr(exact, "all_marginals", counted)
    rng = np.random.default_rng(34)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for _, g in fixed_code_corpus():
            n = g.code_bit_count
            L = rng.normal(0.0, 1.0, (3, n))
            big = rng.random(L.shape) < 0.5
            L[big] = rng.choice([-1.0, 1.0], big.sum()) * rng.uniform(300.0, 2400.0, big.sum())
            out = all_extrinsics(make_instance(g, L))
            rows = _enumerated_rows(g)
            for l, ext in zip(L, out):
                for i in range(n):
                    w = [(sum(decimal.Decimal(l[j]) * x[j] for j in range(n) if j != i).exp(),
                          x[i]) for x in rows]
                    ref = sum(wk * xi for wk, xi in w) / sum(wk for wk, _ in w)
                    assert abs(ext[i] - float(ref)) <= 1e-12, (g, l, i)
    assert sum(redone) >= 30, redone


@pytest.mark.parametrize("budget", [3, 7])
def test_batch_over_row_chunks(monkeypatch, budget):
    """Under a budget too small for one chunk, a batch streams over row
    chunks and sample blocks of the whole stack and still matches direct
    enumeration of each graph at 1e-12."""
    monkeypatch.setattr(channels, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(33)
    g = fixed_code_corpus()[2][1]  # ldpc-6: a 4-row table
    graphs = (g, build_graph(6, 4, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
                                    (5, 2), (0, 2), (1, 3), (3, 3), (5, 3)], LDPC))
    L = rng.normal(0.5, 1.5, (2, 4, 6))
    L[1, 2] = 400.0 * codebit_table(g)[-1]  # the maximum grows in the last chunk
    batch = make_instance(graphs, L)
    for k, gk in enumerate(graphs):
        marg, ext, entropy, _, logz = _per_row_reference(gk, L[k])
        assert np.max(np.abs(partition_function(batch)[k] - logz)) <= 1e-12 * np.abs(logz).max()
        assert np.max(np.abs(all_marginals(batch)[k] - marg)) <= 1e-12
        assert np.max(np.abs(all_extrinsics(batch)[k] - ext)) <= 1e-12
        assert np.max(np.abs(conditional_entropy(batch)[k] - entropy)) <= 1e-12


def test_batch_validation():
    """One instance type: a graph with (n,) or (S, n) values, or a
    nonempty tuple of G graphs with (G, S, n) values sharing a table shape
    and a family, which kind reads.  Support dimensions are compared only
    across two or more graphs, so neither a one-graph instance nor its BP
    flood row-reduces the checks."""
    graphs = _same_shape_graphs()
    with pytest.raises(ValueError, match="code bit count"):
        make_instance(tuple(graphs), np.zeros((3, 1, 4)))
    with pytest.raises(ValueError, match="code bit count"):
        make_instance(graphs[0], np.zeros((2, 4)))
    with pytest.raises(ValueError, match="block each"):
        make_instance(tuple(graphs), np.zeros((2, 1, 3)))
    with pytest.raises(ValueError, match="block each"):
        make_instance(tuple(graphs), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="block each"):
        make_instance(graphs[0], np.zeros((3, 1, 3)))
    with pytest.raises(ValueError, match="table shape"):
        make_instance((graphs[0], build_graph(3, 1, [(0, 0), (1, 0)], LDPC)), np.zeros((2, 1, 3)))
    with pytest.raises(ValueError, match="finite"):
        make_instance(tuple(graphs), np.full((3, 1, 3), np.inf))
    rep3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)  # a 2-row table
    with pytest.raises(ValueError, match="share a family"):
        make_instance((graphs[0], rep3), np.zeros((2, 1, 3)))
    assert make_instance(tuple(graphs), np.zeros((3, 1, 3))).kind == LDGM
    with pytest.raises(ValueError, match="at least one graph"):
        make_instance((), np.zeros((0, 1, 3)))
    assert make_instance((graphs[0],), np.zeros((1, 2, 3))).values.shape == (1, 2, 3)
    g = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
    bp_all_extrinsics(make_instance(g, np.ones((2, 3))), 3)
    assert "reduced_checks" not in vars(g)


_LDGM_3 = build_graph(2, 3, [(0, 0), (1, 0), (1, 1), (0, 2)], LDGM)
_LDPC_3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)


def _pair(g):
    """A tuple of two copies of g, one noise realization each."""
    return make_instance((g, g), np.zeros((2, 1, g.code_bit_count)))


def _block(g):
    """g under a block of two noise realizations."""
    return make_instance(g, np.zeros((2, g.code_bit_count)))


def _tree(inst):
    return tree_decode(computational_tree(_LDGM_3, 0, 2), inst)


#: reader -> (a call on a shape it does not take, the error's match)
ONE_GRAPH_READERS = {
    "bp_run": (lambda: bp_run(_pair(_LDPC_3), 2), "one graph"),
    "bp_all_extrinsics": (lambda: bp_all_extrinsics(_pair(_LDGM_3), 2), "one graph"),
    "bp_checkpoint_extrinsics": (
        lambda: bp_checkpoint_extrinsics(_pair(_LDGM_3), [1, 2]), "one graph"),
    "spin_product_correlation": (
        lambda: spin_product_correlation(_pair(_LDGM_3), {0}, {1}), "one graph"),
    "dkp_pointwise_bound": (
        lambda: dkp_pointwise_bound(_pair(_LDGM_3), {0}, {1}, 1.0), "one graph"),
    "DualInstance-tuple": (lambda: DualInstance(_pair(_LDPC_3)), "one graph"),
    "DualInstance-block": (lambda: DualInstance(_block(_LDPC_3)), "one noise realization"),
    "berretti_identity_residual-block": (
        lambda: berretti_identity_residual(_block(_LDPC_3), 0, 2), "one noise realization"),
    "tree_decode-tuple": (lambda: _tree(_pair(_LDGM_3)), "one graph"),
    "tree_decode-block": (lambda: _tree(_block(_LDGM_3)), "one noise realization"),
    "tree_decode-other-graph": (
        lambda: _tree(make_instance(build_graph(2, 3, [(0, 0), (1, 1), (1, 2)], LDGM),
                                    np.zeros(3))), "ct.graph"),
}


@pytest.mark.parametrize("reader", sorted(ONE_GRAPH_READERS))
def test_one_graph_readers_reject_other_shapes(reader):
    """A reader of one graph rejects a graph tuple, and a reader of one
    realization an (S, n) block, with a ValueError that names what it
    takes; tree_decode also rejects an instance off its tree's graph."""
    call, match = ONE_GRAPH_READERS[reader]
    with pytest.raises(ValueError, match=match):
        call()


def test_instance_values_finite():
    g = build_graph(2, 1, [(0, 0), (1, 0)], LDPC)
    with pytest.raises(ValueError, match="finite"):
        make_instance(g, np.array([1.0, math.inf]))
    with pytest.raises(ValueError, match="finite"):
        make_instance(g, np.array([[0.5, math.nan]]))
