"""Desk-scale laboratory for MAP and BP decoding of sparse-graph codes
over binary-input memoryless symmetric channels.

Submodules:

  channels     BSC / BIAWGNC half-loglikelihood models and moment functionals
  gf2          GF(2) bitmask elimination and the +-1 tables of spans
  graphs       Tanner graphs, ensembles, computational trees, walks
  exact        brute-force-exact posterior marginals, correlations, entropy
  bp           sum-product decoding on graphs and computational trees
  de           population-dynamics density evolution and DE-limit GEXIT
  duality      MacWilliams transform, dual brackets, correlation duality
  clusters     walk-expansion and dual cluster-expansion bounds/identities
  gexit        GEXIT estimators (functional, series, magnetization, BP, FD)
  experiments  reproducible experiment runner (CSV/JSON emission)
"""

from . import bp, channels, clusters, de, duality, exact, experiments, gexit, gf2, graphs

__all__ = ["bp", "channels", "clusters", "de", "duality", "exact",
           "experiments", "gexit", "gf2", "graphs"]
__version__ = "0.1.0"
