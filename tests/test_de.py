import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import on_digest_platform
from gibbscode.channels import L_SAT, ChannelModel, sample_llr
from gibbscode.de import _aggregates, _degree_groups, _resampled, de_gexit, de_moment, run_de
from gibbscode.exact import all_extrinsics, make_instance
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution, build_graph

DD23 = DegreeDistribution.regular(2, 3)


def de_full_marginal_moments(family, dd, ch, d, n_pop, powers, seed):
    """Moments E[m^k] of the full-marginal population m = tanh(Delta + l)
    with a fresh own-observation l, for each power k in powers; the
    oracle of the Nishimori moment identities at the DE level."""
    agg, rng = _aggregates(family, dd, ch, d, n_pop, seed)
    l = sample_llr(ch, len(agg), rng)
    m = np.tanh(agg + l)
    return {k: float(np.mean(m ** k)) for k in powers}


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
    """LDGM starts from zero messages, LDPC from the clipped channel
    samples: a degree-2 check passes its one other message through, so
    after one check step every LDPC message is +-a on the BSC."""
    ch = ChannelModel("bsc", 0.25)
    assert np.all(run_de(LDGM, DD23, ch, 1, 100, 3) == 0.0)
    dd = DegreeDistribution.from_dicts({2: 1.0}, {2: 1.0})
    a = 0.5 * math.log(3.0)
    assert set(np.round(np.abs(run_de(LDPC, dd, ch, 1, 1000, 3)), 12)) == {round(a, 12)}


def test_ldgm_zero_start_stays_zero():
    """With every check degree >= 2 the all-zero population is exact after
    each iteration (the zero product kills the check message)."""
    ch = ChannelModel("bsc", 0.3)
    for d in range(1, 5):
        assert np.all(run_de(LDGM, DD23, ch, d, 500, 0) == 0.0)


def test_ldgm_degree_one_checks_seed_the_recursion():
    dd = DegreeDistribution.from_dicts({2: 1.0}, {1: 0.5, 2: 0.5})
    ch = ChannelModel("bsc", 0.3)
    assert np.any(run_de(LDGM, dd, ch, 1, 2000, 0) != 0.0)


def test_run_de_sides():
    """run_de returns the LDGM variable-to-check messages (v after the
    d-th variable step) and the LDPC check-to-variable ones (w after the
    d-th check step); d < 1 is rejected.  With degree-1 checks every
    LDGM u is a channel LLR +-a and a degree-3 variable sends the sum of
    two, so v is in {0, +-2a}; a (2,3) LDPC check sends +-atanh(tanh^2 a)
    at d = 1."""
    ch = ChannelModel("bsc", 0.1)
    a = 0.5 * math.log(0.9 / 0.1)
    dd = DegreeDistribution.from_dicts({3: 1.0}, {1: 1.0})
    assert set(np.round(run_de(LDGM, dd, ch, 2, 100, 0), 10)) <= {0.0, round(2 * a, 10),
                                                                   round(-2 * a, 10)}
    w = math.atanh(math.tanh(a) ** 2)
    assert set(np.round(np.abs(run_de(LDPC, DD23, ch, 1, 100, 0)), 10)) == {round(w, 10)}
    for family in (LDGM, LDPC):
        with pytest.raises(ValueError):
            run_de(family, DD23, ch, 0, 100, 0)


def test_regular_check_step_matches_formula():
    """For the (2,3)-regular LDPC, one check step from the channel
    population is w = atanh(tanh(l1) tanh(l2)) with resampled inputs."""
    ch = ChannelModel("bsc", 0.2)
    out = run_de(LDPC, DD23, ch, 1, 5000, 7)
    a = math.tanh(0.5 * math.log(0.8 / 0.2))
    allowed = {round(math.atanh(s1 * a * s2 * a), 10) for s1 in (-1, 1)
               for s2 in (-1, 1)}
    assert set(np.round(out, 10)).issubset(allowed)


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
        inst = make_instance(g, sample_llr(ch, vid[0], rng))
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


#: the density-evolution cases of DE_DIGESTS: family, (var law, check
#: law) as regular degrees or {degree: probability} maps, channel, depth
DE_CASES = {
    "ldpc-36-bsc": (LDPC, ((3,), (6,)), "bsc:0.06", 4),
    "ldpc-36-biawgnc": (LDPC, ((3,), (6,)), "biawgnc:0.8", 3),
    "ldpc-irregular-bsc": (LDPC, ({2: 0.4, 3: 0.6}, {4: 0.5, 6: 0.5}), "bsc:0.08", 3),
    "ldpc-36-saturated": (LDPC, ((3,), (6,)), "bsc:0.001", 12),
    "ldgm-23-bsc": (LDGM, ((2,), (3,)), "bsc:0.3", 3),
    "ldgm-obs-bsc": (LDGM, ({2: 1.0}, {1: 0.5, 2: 0.5}), "bsc:0.4", 4),
    "ldgm-obs-biawgnc": (LDGM, ({2: 1.0, 3: 0.0}, {1: 0.3, 2: 0.3, 3: 0.4}), "biawgnc:0.9", 3),
}

#: sha256 of the float64 bit patterns of run_de's message array, then of
#: de_gexit, de_moment (p = 2) and de_full_marginal_moments (powers 1 to
#: 4), for each DE_CASES case k at n_pop 3000 and seed 300 + k: the bits
#: any rewrite of the recursion must keep
DE_DIGESTS = {
    "ldpc-36-bsc": "748a9f326285faa17d839a5f4183a496fa95dc42145c4c6a4938f094f855229e",
    "ldpc-36-biawgnc": "6b93c20ddeffa880a18b92eedd198ac26e7f4969b12878d618a1911b1e23c33f",
    "ldpc-irregular-bsc": "931394cd188abcc7924dac37ded38994b9de8502e6f74169ff59e9cb24793517",
    "ldpc-36-saturated": "29812241fe15656d18b456d10d0e6c62f9476e3a3d4b430747dc20f43d843d3b",
    "ldgm-23-bsc": "d1051e751ac2c820a42a5727c6a1c4e992eb68de65fb1e8636d096b18f620824",
    "ldgm-obs-bsc": "6baee4c4d9d4444bef1ccda21ce50f81f5c97b9274280f5111289ffd7d323e32",
    "ldgm-obs-biawgnc": "968000eeedc282ad6f3fcce609410269bfea34326ebc986193b948580a3c2cde",
}


@on_digest_platform
def test_de_outputs_keep_their_recorded_bits():
    """run_de and the three DE estimates give the recorded bit patterns
    on LDPC and LDGM laws, regular and irregular, over the BSC and the
    BIAWGNC, with saturated populations, degree-1 checks and a never
    drawn variable degree: a rewrite of the recursion must change no output bit."""
    n_pop = 3000
    for k, (name, (family, (var, chk), spec, d)) in enumerate(DE_CASES.items()):
        dd = (DegreeDistribution.regular(var[0], chk[0]) if isinstance(var, tuple)
              else DegreeDistribution.from_dicts(var, chk))
        ch, seed = ChannelModel.from_spec(spec), 300 + k
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the saturated case's degeneracy warning
            digest.update(np.asarray(run_de(family, dd, ch, d, n_pop, seed), "<f8").tobytes())
            values = [de_gexit(family, dd, ch, d, n_pop, seed),
                      de_moment(family, dd, ch, d, n_pop, 2, seed),
                      *de_full_marginal_moments(family, dd, ch, d, n_pop, (1, 2, 3, 4),
                                                seed).values()]
        digest.update(np.asarray(values, "<f8").tobytes())
        assert digest.hexdigest() == DE_DIGESTS[name], name
