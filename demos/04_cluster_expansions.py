"""The two cluster expansions, run as checks on small instances.

High noise / LDGM: the self-avoiding-walk bound.  For one realization,
  |<u_A u_B> - <u_A><u_B>| <= 2 sum_{walks A->B} prod_checks rho_c,
with rho_c = e^{4|l_c|}-1 on quiet checks and 1 on loud ones; averaging
gives a geometric bound in the A-B distance.

Low noise / LDPC dual: the replica cluster expansion expresses the dual
covariance as a sum over hyperedge-connected check clusters, an exact
identity at desk scale, and assembles into a distance-decaying averaged
bound.
"""

import numpy as np

from gibbscode.channels import ChannelModel, default_H, sample_llr
from gibbscode.clusters import (berretti_avg_bound, berretti_identity_residual,
                                dkp_avg_bound, dkp_pointwise_bound,
                                enumerate_clusters, replica_g_sums)
from gibbscode.exact import make_instance, spin_product_correlation
from gibbscode.graphs import LDGM, LDPC, build_graph

# ---------------------------------------------------------------------------
# walk bound, one LDGM realization
g = build_graph(4, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                       (0, 3), (2, 3), (1, 4), (3, 4)], LDGM)
ch = ChannelModel("bsc", 0.45)
inst = make_instance(g, sample_llr(ch, 5, seed=4))
A, B = set(g.adj_chk[0]), set(g.adj_chk[2])
H = default_H(ch)
truth = abs(spin_product_correlation(inst, A, B))
bound, _ = dkp_pointwise_bound(inst, A, B, H)
print(f"LDGM walk bound, one draw: |corr| = {truth:.4f} <= bound = {bound:.4f}")
avg, diverged = dkp_avg_bound(g, ch, A, B, 0.5 * H)
print(f"averaged closed form (H/2): {avg:.4f}  diverged={diverged}")

# the replicated-measure decomposition behind the bound: subsets of
# quiet checks that fail to connect A and B contribute exactly nothing
con, noncon = replica_g_sums(inst, A, B, H)
print(f"replica decomposition: connecting sum {con:+.6f} "
      f"(= the correlation), non-connecting sum {noncon:.1e}")

# ---------------------------------------------------------------------------
# dual cluster expansion: an exact identity on tiny LDPC instances
gl = build_graph(4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)], LDPC)
rng = np.random.default_rng(8)
li = make_instance(gl, rng.uniform(-2, 2, 4))
terms = enumerate_clusters(gl, 0, 3)
print(f"\nLDPC chain, pair (0,3): {len(terms)} check clusters, "
      f"{sum(len(t.gammas) for t in terms)} compatible variable sets")
print("identity residual:", berretti_identity_residual(li, 0, 3))

# the assembled averaged bound needs genuinely low noise to converge
cha = ChannelModel("biawgnc", 0.01)
chain = build_graph(6, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                           (3, 3), (4, 3), (4, 4), (5, 4)], LDPC)
for j in (1, 3, 5):
    b, div = berretti_avg_bound(chain, cha, 0, j, s=0.1)
    print(f"averaged dual bound, dist(0,{j}) = {j}: {b:.3e}  diverged={div}")
