"""MacWilliams duality as executable identities.

The LDPC partition function Z maps to a signed dual partition function
Z_dual on the same graph read as an LDGM system (dual information bits
on the former checks, dual code bits tau_i on the former variables):

    Z = 2^{-m} e^{sum l} Z_dual

Differentiating in the l's maps primal marginals and covariances to
dual brackets.  All of it checked to near machine precision.
"""

import math

import numpy as np

from gibbscode import gf2
from gibbscode.duality import (DualInstance, dual_bracket, dual_partition,
                               duality_residuals, macwilliams_log_residual)
from gibbscode.exact import make_instance, partition_function
from gibbscode.graphs import LDPC, build_graph

g = build_graph(5, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1),
                       (3, 2), (4, 2), (0, 2)], LDPC)
rng = np.random.default_rng(3)
l = rng.uniform(-2, 2, 5)
dinst = DualInstance(make_instance(g, l))

rank = gf2.rank(gf2.mask(c) for c in g.adj_chk)
print(f"code: n=5, m=3, rank(H)={rank}, |C|=2^{5-rank}, |C_dual|=2^{rank}")

logz = partition_function(dinst.base)
zs, lzd = dual_partition(dinst)
print(f"ln Z            = {logz:.10f}")
print(f"ln(2^-m e^Sl Zd)= {lzd + l.sum() - 3*math.log(2):.10f}")
print(f"relative residual {macwilliams_log_residual(dinst):.2e}")

# dual brackets are signed ratios, not expectations; at l_i = 0 all the
# bracket weight sits on tau_i = +1
dinst0 = DualInstance(make_instance(g, np.where(np.arange(5) == 2, 0.0, l)))
print("\n<tau_2>_dual at l_2 = 0:", dual_bracket(dinst0, (2,)), "(exactly 1)")

# the correlation maps
r1, r2 = duality_residuals(dinst, 0, 3)
print(f"first-derivative identity residual  {r1:.2e}")
print(f"second-derivative identity residual {r2:.2e}")
