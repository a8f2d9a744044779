"""Tanner graphs, exact (MAP) decoding, and sum-product BP.

Builds both code families on small graphs, decodes one noise
realization exactly and with BP, and demonstrates that BP on the graph
equals the exact computation on the unrolled computational tree.
"""

import numpy as np

from gibbscode.bp import bp_all_extrinsics, bp_run, tree_decode
from gibbscode.channels import ChannelModel, sample_llr
from gibbscode.exact import (all_extrinsics, all_marginals, conditional_entropy,
                             make_instance, pair_correlation)
from gibbscode.graphs import (LDGM, LDPC, DegreeDistribution, build_graph,
                              computational_tree, graph_distance,
                              sample_ensemble)

# ---------------------------------------------------------------------------
# A 3-bit repetition LDPC code: variables are the code bits, two parity
# checks force them equal.
rep3 = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], LDPC)
ch = ChannelModel("bsc", 0.2)
inst = make_instance(rep3, sample_llr(ch, 3, seed=5))
print("repetition code, one realization")
print("  llrs          ", np.round(inst.values, 3))
print("  exact marginals", np.round(all_marginals(inst), 4))
print("  BP marginals   ", np.round(bp_run(inst, 8), 4), "(tree code: identical)")
print("  extrinsics     ", np.round(all_extrinsics(inst), 4))
print("  entropy/bit    ", round(conditional_entropy(inst), 4), "nats")

# ---------------------------------------------------------------------------
# An LDGM code: code bits on the checks, x_i = product of adjacent
# information bits.  Correlations between code bits decay with distance.
dd = DegreeDistribution.regular(3, 2)
g = sample_ensemble(dd, 15, LDGM, seed=9)
li = make_instance(g, sample_llr(ChannelModel("bsc", 0.45), 15, seed=10))
print("\nLDGM(3,2) sample, n=15 code bits on", g.n_var, "information bits")
for j in (1, 5, 9):
    d = graph_distance(g, 0, j)
    print(f"  corr(x_0, x_{j}) = {pair_correlation(li, 0, j):+.2e}"
          f"   (graph distance {d})")

# ---------------------------------------------------------------------------
# BP on a loopy graph is the exact Gibbs computation on the depth-2d
# computational tree with likelihoods pulled back through the cover.
cyc = build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], LDPC)
ci = make_instance(cyc, [0.4, -0.7])
for d in (1, 2, 4):
    ct = computational_tree(cyc, 0, 2 * d)
    root, _ = tree_decode(ct, ci)
    print(f"4-cycle: d={d} BP {bp_run(ci, d)[0]:+.10f}   "
          f"depth-{2*d} tree {root:+.10f}")
print("exact marginal    ", f"{all_marginals(ci)[0]:+.10f}",
      " (BP's fixed point differs: the graph has a cycle)")
