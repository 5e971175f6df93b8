"""
Nodal geometry of product eigenfunctions
========================================

Sample an analytic eigenfunction on a grid, extract its zero set as
polylines, label the sign domains and measure their geometry.
"""

import numpy as np

import nodalheat as nh

# sin(2 pi m x) sin(2 pi n y) on the unit torus
model = nh.make_torus_eigenfunction(2, 3)
print(f"eigenvalue lambda = {model.eigenvalue:.4f}  (= 52 pi^2 = {52 * np.pi ** 2:.4f})")

grid = nh.grid_for_model(model, 512)
field = nh.sample_field(model, grid)

nodal_set = nh.extract_nodal_set(field)
print(f"nodal set: {len(nodal_set.polylines)} chains, "
      f"total length {nodal_set.total_length:.6f}  (closed form: 10)")

mask = nh.label_nodal_domains(field)
print(f"nodal domains: {mask.n_labels}  (closed form: 24)")

# every sign cell of the (2,3) product is a 1/4 x 1/6 rectangle
for label in (1, 2):
    area = mask.area(label)
    rho = nh.domain_inradius(mask, label)
    perim = nh.boundary_length(mask, label)
    print(f"  domain {label}: sign {mask.sign(label):+d}, area {area:.5f} "
          f"(1/24 = {1 / 24:.5f}), inradius {rho:.5f} (1/12 = {1 / 12:.5f}), "
          f"boundary {perim:.5f} (5/6 = {5 / 6:.5f})")

# the per-domain boundaries count every interior arc twice
total_boundary = sum(nh.boundary_length(mask, k)
                     for k in range(1, mask.n_labels + 1))
print(f"sum of domain boundaries {total_boundary:.4f} "
      f"~ 2 x nodal length = {2 * nodal_set.total_length:.4f}")
