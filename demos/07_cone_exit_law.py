"""
Brownian exit from planar cones and vanishing orders
====================================================

The probability that a Brownian path started at (1, 0) reaches radius r
inside the cone W(alpha) has a closed form; its large-r decay r^(-pi/alpha)
turns, after diffusive rescaling, into a survival exponent pi/(2 alpha)
near the apex.  On the harmonic sector model of degree k (angle pi/k) that
exponent is k/2, half the vanishing order.
"""

import numpy as np

from nodalheat.bounds import cone_condition_decay
from nodalheat.stochastic import (ConeSpec, PathEnsembleConfig, cone_exit_exact,
                                  cone_exit_mc)

cfg = PathEnsembleConfig(n_paths=50_000, dt=1e-3, seed=9)
print("exit law, exact vs walk-on-spheres:")
for alpha, r in ((np.pi / 2, 2.0), (np.pi, 2.0), (np.pi / 3, 4.0)):
    spec = ConeSpec(alpha=alpha, r=r)
    exact = cone_exit_exact(spec)
    mc = cone_exit_mc(spec, cfg)
    print(f"  alpha = {alpha:.4f}, r = {r}: exact {exact:.5f}, "
          f"mc {mc.mean:.5f} +- {mc.std_error:.5f}")

print("\nlarge-r decay exponent pi/alpha (alpha = pi/2):")
for r in (10.0, 20.0, 40.0):
    p = cone_exit_exact(ConeSpec(alpha=np.pi / 2, r=r))
    print(f"  r = {r:4.0f}: P = {p:.3e},  P * r^2 = {p * r * r:.4f}")

print("\nsurvival exponents on sector models (reference = k/2):")
cfg_small = PathEnsembleConfig(n_paths=10_000, dt=1e-3, seed=9)
for k in (1, 2, 4, 8):
    rep = cone_condition_decay(k, cfg_small, s_values=(0.1,))
    got = rep.constants["survival_exponent_measured"]
    print(f"  k = {k}: measured {got:.4f}, reference {k / 2:.1f}, "
          f"vanishing order {k}")
