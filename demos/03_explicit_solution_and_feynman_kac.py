"""
The killed heat flow of an eigenfunction
========================================

With eigenfunction data on a nodal domain, the Dirichlet heat evolution is
exactly exp(-lambda t) u.  Both backends reproduce it: the deterministic
finite-difference solver to O(h^2) (the torus sign cell is a square, which
the solver takes exactly in time), the Feynman-Kac path estimator to Monte
Carlo accuracy.
"""

import numpy as np

import nodalheat as nh
from nodalheat.heat import dirichlet_semigroup_field
from nodalheat.stochastic import PathEnsembleConfig, feynman_kac_dirichlet

model = nh.make_torus_eigenfunction(1, 1)
lam = model.eigenvalue
t = 1 / lam
print(f"lambda = {lam:.4f}, evolving to t = 1/lambda = {t:.5f}")

field = nh.sample_field(model, nh.grid_for_model(model, 256))
mask = nh.label_nodal_domains(field)

# deterministic: the whole field at once
sg = dirichlet_semigroup_field(model, mask, 1, t, n_steps=200)
sel = mask.cells(1)
ratio = sg.values[sel] / field.values[sel]
print(f"finite differences: field ratio = {ratio.mean():.6f} +- {ratio.std():.2e}")
print(f"exp(-1)            = {np.exp(-1):.6f}")

# stochastic: one point, many paths
x = (0.25, 0.25)
cfg = PathEnsembleConfig(n_paths=50_000, dt=t / 500, seed=7)
est = feynman_kac_dirichlet(model, mask, 1, x, t, cfg)
print(f"\nFeynman-Kac at the domain center: {est.mean:.5f} +- {est.std_error:.5f}")
print(f"exp(-1) u(x)                    : {np.exp(-1) * model.evaluate(*x):.5f}")

# at t = 0 the estimator returns the data exactly
print(f"t = 0 returns u(x) exactly: "
      f"{feynman_kac_dirichlet(model, mask, 1, x, 0.0, cfg).mean:.6f}")
