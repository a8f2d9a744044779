"""Population-dynamics density evolution and its GEXIT limit.

Tracks sample populations of BP messages, plain arrays, through the
check/variable half-recursions, aggregates them into extrinsic code-bit
estimates, and evaluates the DE-limit GEXIT value.  Shows the LDPC decoding transition
and the LDGM peculiarity that all-degree->=2 ensembles stay pinned at
the zero population (their DE-GEXIT is the no-knowledge value).
"""

import numpy as np

from gibbscode.channels import ChannelModel
from gibbscode.de import de_gexit, de_moment, run_de
from gibbscode.graphs import LDGM, LDPC, DegreeDistribution

# ---------------------------------------------------------------------------
# LDPC(3,6) over the BSC: below threshold the population saturates
# (decoding succeeds) and the GEXIT value collapses to zero
dd = DegreeDistribution.regular(3, 6)
print("LDPC(3,6) DE:   eps   E[tanh^2 Lambda_d]   de_gexit(d=12)")
import warnings
for eps in (0.03, 0.06, 0.09, 0.12):
    ch = ChannelModel("bsc", eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m2 = de_moment(LDPC, dd, ch, 12, 50000, 1, seed=1)
        gx = de_gexit(LDPC, dd, ch, 12, 50000, seed=1)
    print(f"              {eps:5.2f}   {m2:16.4f}   {gx:12.4f}")

# the populations themselves: run_de returns the w array after the d-th
# check step
ch = ChannelModel("bsc", 0.06)
print()
for d in (1, 2):
    print(f"w population, d = {d}:", np.round(run_de(LDPC, dd, ch, d, 6, seed=2), 3))

# ---------------------------------------------------------------------------
# LDGM: with every check degree >= 2 the zero population is a fixed
# point of the recursion, so the DE-GEXIT sits at the no-knowledge value
# prefactor * ln((1-eps)/eps); degree-1 checks (direct observations)
# seed nontrivial dynamics.
import math

ch = ChannelModel("bsc", 0.4)
dd_reg = DegreeDistribution.regular(2, 3)
dd_obs = DegreeDistribution.from_dicts({2: 1.0}, {1: 0.5, 2: 0.5})
print("\nLDGM(2,3) regular:  de_gexit(d=8) =",
      round(de_gexit(LDGM, dd_reg, ch, 8, 50000, seed=4), 6),
      " no-knowledge value =",
      round(dd_reg.lambda_prime / dd_reg.p_prime * math.log(0.6 / 0.4), 6))
print("LDGM with P_1 = 1/2: de_gexit(d=8) =",
      round(de_gexit(LDGM, dd_obs, ch, 8, 50000, seed=4), 6),
      "(observation checks move the fixed point)")
print("final v-population sample:",
      np.round(run_de(LDGM, dd_obs, ch, 8, 8, seed=5), 3))
