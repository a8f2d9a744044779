import math
import warnings

import numpy as np
import pytest

from gibbscode.channels import L_SAT, ChannelModel, sample_llr
from gibbscode.de import (CHK_TO_VAR, VAR_TO_CHK, Population, _degree_groups, _resampled,
                          de_full_marginal_moments, de_gexit, de_moment, de_step,
                          ldgm_initial_population, ldpc_initial_population, run_de)
from gibbscode.exact import all_extrinsics, make_instance
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution, build_graph

DD23 = DegreeDistribution.regular(2, 3)


def test_degree_groups_follow_the_drawn_degrees():
    """The degrees rng.choice would draw, grouped in ascending degree
    order; a degree that was not drawn gives no group, and a one-point law
    gives one group of every sample and consumes the same uniforms."""
    degs, probs = np.array([2, 3, 9]), np.array([0.5, 0.5 - 1e-12, 1e-12])
    dd = DegreeDistribution.from_dicts(dict(zip(degs.tolist(), probs)), {2: 1.0})
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    groups = _degree_groups(rng, dd.degree_laws["node", "var"], 1000)
    deg = ref.choice(degs, size=1000, p=probs)
    assert [int(dv) for dv, _ in groups] == np.unique(deg).tolist() == [2, 3]
    for dv, idx in groups:
        assert np.array_equal(idx, np.flatnonzero(deg == dv))
    assert rng.random() == ref.random()
    [(dv, idx)] = _degree_groups(rng, dd.degree_laws["node", "chk"], 1000)
    assert dv == 2 and np.array_equal(idx, np.arange(1000))
    ref.choice(np.array([2]), size=1000, p=np.array([1.0]))
    assert rng.random() == ref.random()


def test_resampled_columns_reduce_in_order():
    """The resampled product and sum are, bit for bit and signed zeros
    included, the in-order reduction from the identity over the columns of
    numpy's (rows, cols) index draw, for 0 to 12 columns, on populations
    holding +-0.0, +-L_SAT and their tanh +-1; they agree with np.prod and
    np.sum over that block to within rounding (products also in the sign
    of their zeros, which no order changes); the generator ends where
    that block's draw leaves it."""
    rng = np.random.default_rng(8)
    atoms = np.array([0.0, -0.0, L_SAT, -L_SAT, 0.3, -1.7, 1e-300, -12.5])
    llrs = np.concatenate([rng.choice(atoms, 300), rng.standard_normal(300) * 9])
    for samples in (llrs, np.tanh(llrs)):
        for cols in range(13):
            for reduce, numpy_reduce in ((np.multiply, np.prod), (np.add, np.sum)):
                got_rng, want_rng = np.random.default_rng(cols), np.random.default_rng(cols)
                got = _resampled(reduce, got_rng, samples, 4000, cols)
                block = samples[want_rng.integers(0, len(samples), size=(4000, cols))]
                want = np.full(4000, float(reduce.identity))
                for j in range(cols):
                    want = reduce(want, block[:, j])
                assert got.tobytes() == want.tobytes(), (reduce, cols)
                assert got_rng.random() == want_rng.random()
                scale = numpy_reduce(np.abs(block), axis=1)
                bound = 1e-15 * cols * scale + np.finfo(float).tiny
                assert np.all(np.abs(got - numpy_reduce(block, axis=1)) <= bound)
                if reduce is np.multiply:
                    assert np.array_equal(np.signbit(got), np.signbit(np.prod(block, axis=1)))


def test_initial_populations():
    pop = ldgm_initial_population(100)
    assert np.all(pop.samples == 0.0) and pop.side == VAR_TO_CHK
    ch = ChannelModel("bsc", 0.25)
    pop2 = ldpc_initial_population(ch, 1000, 3)
    a = 0.5 * math.log(3.0)
    assert set(np.round(np.abs(pop2.samples), 12)) == {round(a, 12)}


def test_ldgm_zero_start_stays_zero():
    """With every check degree >= 2 the all-zero population is exact after
    each half-step (the zero product kills the check message)."""
    ch = ChannelModel("bsc", 0.3)
    pop = ldgm_initial_population(500)
    for _ in range(4):
        pop = de_step(pop, DD23, ch, 0)
        assert np.all(pop.samples == 0.0)


def test_ldgm_degree_one_checks_seed_the_recursion():
    dd = DegreeDistribution.from_dicts({2: 1.0}, {1: 0.5, 2: 0.5})
    ch = ChannelModel("bsc", 0.3)
    pop = de_step(ldgm_initial_population(2000), dd, ch, 0)
    assert pop.side == CHK_TO_VAR
    assert np.any(pop.samples != 0.0)


def test_sides_alternate_and_generation_counts():
    ch = ChannelModel("bsc", 0.2)
    pop = ldpc_initial_population(ch, 100, 0)
    pop = de_step(pop, DD23, ch, 1)
    assert pop.side == CHK_TO_VAR and pop.generation == 1
    pop = de_step(pop, DD23, ch, 2)
    assert pop.side == VAR_TO_CHK and pop.generation == 1


def test_run_de_sides():
    ch = ChannelModel("bsc", 0.1)
    assert run_de(LDGM, DD23, ch, 2, 100, 0).side == VAR_TO_CHK
    assert run_de(LDPC, DD23, ch, 2, 100, 0).side == CHK_TO_VAR
    with pytest.raises(ValueError):
        run_de(LDPC, DD23, ch, 0, 100, 0)


def test_regular_check_step_matches_formula():
    """For the (2,3)-regular LDPC, one check step from the channel
    population is w = atanh(tanh(l1) tanh(l2)) with resampled inputs."""
    ch = ChannelModel("bsc", 0.2)
    pop = ldpc_initial_population(ch, 5000, 7)
    out = de_step(pop, DD23, ch, 8)
    a = math.tanh(0.5 * math.log(0.8 / 0.2))
    allowed = {round(math.atanh(s1 * a * s2 * a), 10) for s1 in (-1, 1)
               for s2 in (-1, 1)}
    assert set(np.round(out.samples, 10)).issubset(allowed)


def test_de_gexit_deterministic():
    ch = ChannelModel("bsc", 0.3)
    a = de_gexit(LDGM, DD23, ch, 3, 20000, 42)
    b = de_gexit(LDGM, DD23, ch, 3, 20000, 42)
    assert a == b
    # a family with genuine randomness (the all-degree->=2 LDGM population
    # is pinned at zero, so every seed gives the same number there)
    dd = DegreeDistribution.from_dicts({2: 1.0}, {1: 0.5, 2: 0.5})
    x = de_gexit(LDGM, dd, ch, 3, 20000, 42)
    assert x == de_gexit(LDGM, dd, ch, 3, 20000, 42)
    assert x != de_gexit(LDGM, dd, ch, 3, 20000, 43)


def test_de_gexit_zero_moment_value():
    """Stuck-at-zero LDGM populations reduce the kernel to its
    no-knowledge value: prefactor * ln((1-eps)/eps) on the BSC."""
    ch = ChannelModel("bsc", 0.3)
    val = de_gexit(LDGM, DD23, ch, 1, 5000, 0)
    expect = (DD23.lambda_prime / DD23.p_prime) * math.log(0.7 / 0.3)
    assert val == pytest.approx(expect, abs=1e-6)
    assert de_moment(LDGM, DD23, ch, 1, 5000, 1, 0) == 0.0
    # eps at eps_max: every t2p vanishes, so does the kernel
    assert de_gexit(LDGM, DD23, ChannelModel("bsc", 0.499999), 1, 2000, 0) == \
        pytest.approx(0.0, abs=1e-3)


def test_de_moment_saturation():
    ch = ChannelModel("bsc", 0.001)
    dd = DegreeDistribution.regular(3, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = de_moment(LDPC, dd, ch, 12, 20000, 3, 1)
    assert m > 0.99


def test_degeneracy_warning():
    ch = ChannelModel("bsc", 0.001)
    dd = DegreeDistribution.regular(3, 6)
    with pytest.warns(UserWarning, match="degeneracy"):
        de_gexit(LDPC, dd, ch, 12, 5000, 1)


def test_de_moment_matches_tree_ensemble():
    """E[tanh(Lambda_d)^2] from population dynamics matches the extrinsic
    second moment of the root of depth-2d random tree instances."""
    ch = ChannelModel("bsc", 0.1)
    rng = np.random.default_rng(9)
    vals = []
    for _ in range(3000):
        # depth-4 (2,3)-regular tree: root var of degree 2; each check has
        # 2 more vars; each of those has one further check, and so on
        edges = []
        vid, cid = [0], [0]
        root = 0
        vid[0] = 1
        for _ in range(2):
            c = cid[0]; cid[0] += 1
            edges.append((root, c))
            for _ in range(2):
                v = vid[0]; vid[0] += 1
                edges.append((v, c))
                c2 = cid[0]; cid[0] += 1
                edges.append((v, c2))
                for _ in range(2):
                    v2 = vid[0]; vid[0] += 1
                    edges.append((v2, c2))
        g = build_graph(vid[0], cid[0], edges, LDPC)
        inst = make_instance(g, sample_llr(ch, vid[0], rng).values)
        vals.append(all_extrinsics(inst)[root])
    vals = np.array(vals)
    for p in (1, 2, 3):
        tree_mean = float(np.mean(vals ** (2 * p)))
        tree_se = float(np.std(vals ** (2 * p), ddof=1) / math.sqrt(len(vals)))
        de_mean = de_moment(LDPC, DD23, ch, 2, 200000, p, 5)
        assert abs(tree_mean - de_mean) < 4 * max(tree_se, 1e-4)


def test_de_level_nishimori():
    ch = ChannelModel("bsc", 0.1)
    mm = de_full_marginal_moments(LDPC, DD23, ch, 3, 200000, (1, 2, 3, 4, 5, 6), 6)
    for p in (1, 2, 3):
        # E[m^{2p-1}] = E[m^{2p}] within Monte Carlo resolution
        assert abs(mm[2 * p - 1] - mm[2 * p]) < 4.5e-3


def test_monotone_stabilization_ldpc_low_noise():
    ch = ChannelModel("bsc", 0.05)
    dd = DegreeDistribution.regular(3, 6)
    vals = [de_gexit(LDPC, dd, ch, d, 100000, 7) for d in range(1, 7)]
    diffs = [abs(vals[k + 1] - vals[k]) for k in range(len(vals) - 1)]
    assert all(diffs[k + 1] < diffs[k] for k in range(len(diffs) - 1))


def test_population_validation():
    with pytest.raises(ValueError):
        Population(np.array([1.0, math.nan]), 0, LDPC, VAR_TO_CHK)
