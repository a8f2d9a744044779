"""Channel models in the half-loglikelihood domain.

Walks through the two supported BMS channels: sampling, the closed-form
moment functionals used by the decay bounds, and the GEXIT kernel
(the eps-derivative of channel expectations).
"""

import math

import numpy as np

from gibbscode.channels import (ChannelModel, default_H, delta_dual, delta_high,
                                exp_abs_moment, exp_neg_moment,
                                gexit_kernel_batch, gexit_kernel_integral, sample_llr,
                                t2p_terms)

# ---------------------------------------------------------------------------
# The BSC(eps): half-LLRs are +-(1/2) ln((1-eps)/eps) under the all-one
# codeword, the minus sign with probability eps.
bsc = ChannelModel.from_spec("bsc:0.25")
llr = sample_llr(bsc, 8, seed=1)
print("BSC(0.25) half-LLR draws:", np.round(llr, 4))
print("  atom magnitude 0.5*ln(3) =", round(0.5 * math.log(3), 4))

# The BIAWGNC(eps): y = x + noise of variance eps, so l = y/eps is
# Gaussian with mean and variance 1/eps.
awgn = ChannelModel.from_spec("biawgnc:0.5")
v = sample_llr(awgn, 100000, seed=2)
print(f"BIAWGNC(0.5): sample mean {v.mean():.3f} (expect 2.0), "
      f"variance {v.var():.3f} (expect 2.0)")

# ---------------------------------------------------------------------------
# Moment functionals.  These feed the high-noise walk bound
# (delta_high) and the low-noise dual cluster bound (delta_dual).
print("\nE[e^{2|l|}] on BSC(0.2):", exp_abs_moment(ChannelModel("bsc", 0.2), 2.0),
      "(closed form ((1-eps)/eps)^{m/2} = 4)")
print("E[e^{-l}] on BIAWGNC(0.5):", round(exp_neg_moment(awgn, 1.0), 6),
      "(closed form e^{-1})")

ch = ChannelModel("bsc", 0.45)
H = default_H(ch)
print(f"high-noise weight delta(0.45, H={H:.3f}) =", round(delta_high(ch, H), 4),
      " -> vanishes as eps -> 1/2")
cha = ChannelModel("biawgnc", 0.01)
print("low-noise dual weight Delta(0.01, s=0.1) =", delta_dual(cha, 0.1),
      " -> vanishes as eps -> 0")

# ---------------------------------------------------------------------------
# The GEXIT kernel integral: d/deps of E[f(l)], against the BIAWGNC
# density's eps-derivative.  For f = tanh^{2p} it reproduces the
# tanh-moment derivatives t2p, all three read from one t2p_terms call.
for p, t in enumerate(t2p_terms(awgn, 3), 1):
    ki = gexit_kernel_integral(awgn, lambda l, p=p: np.tanh(l) ** (2 * p))
    print(f"p={p}: kernel integral {ki:+.6f}   t2p {t:+.6f}")

# On the BSC the GEXIT kernel is a closed form: at M = 0 (no extrinsic
# knowledge) it is the derivative of the binary entropy, ln((1-eps)/eps).
print("BSC(0.25) GEXIT kernel at M = 0:", gexit_kernel_batch(bsc, np.array([0.0]))[0],
      " ln 3 =", math.log(3))
