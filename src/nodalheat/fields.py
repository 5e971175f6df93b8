"""Closed-form eigenfunction and harmonic models on flat 2-D geometries.

Every model is analytic: evaluation, gradients and eigenvalues come from
closed formulas, never from a numerical eigensolver.  This keeps a whole
error source out of the downstream grid and Monte Carlo experiments.

Conventions: the operator is -Laplace, so -Delta u = lambda * u with
lambda > 0 for eigenfunctions and lambda = 0 for the harmonic cone model
u = Re((x + i y)^k).

Per-domain norms (|u|_L1, |u|_inf and |grad u|_inf of each nodal domain)
have one source, domain_norms, which evaluates the model once for every
domain of a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import EmptyDomainError, InvalidParameterError

__all__ = [
    "EigenfunctionModel",
    "NormBundle",
    "make_torus_eigenfunction",
    "make_rectangle_eigenfunction",
    "make_disk_eigenfunction",
    "make_cone_model",
    "domain_norms",
]

TORUS = "torus_product"
RECTANGLE = "rectangle_dirichlet"
DISK = "disk_bessel"
CONE = "cone_harmonic"


@lru_cache(maxsize=None)
def _bessel_zero(m: int, k: int):
    """j_{m,k}, the k-th positive zero of J_m, computed once per (m, k)."""
    return special.jn_zeros(m, k)[-1]


@dataclass(frozen=True)
class EigenfunctionModel:
    """Analytic scalar field u with evaluation and gradient oracles.

    kind       : one of torus_product, rectangle_dirichlet, disk_bessel,
                 cone_harmonic
    mode       : integer mode indices ((m, n), (m, k) angular/radial, or (k,))
    geometry   : side lengths (a, b), disk radius (R,), or () for torus/cone
    eigenvalue : lambda in -Delta u = lambda u (0 for the harmonic cone model)
    """

    kind: str
    mode: tuple
    geometry: tuple
    eigenvalue: float

    # ---- evaluation oracles -------------------------------------------------

    def evaluate(self, x, y):
        """u at (x, y); numpy broadcasting applies."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == TORUS:
            m, n = self.mode
            return np.sin(2 * np.pi * m * x) * np.sin(2 * np.pi * n * y)
        if self.kind == RECTANGLE:
            m, n = self.mode
            a, b = self.geometry
            return np.sin(m * np.pi * x / a) * np.sin(n * np.pi * y / b)
        if self.kind == DISK:
            m, k = self.mode
            (radius,) = self.geometry
            j_mk = _bessel_zero(m, k)
            r = np.hypot(x, y)
            theta = np.arctan2(y, x)
            return special.jv(m, j_mk * r / radius) * np.cos(m * theta)
        if self.kind == CONE:
            (k,) = self.mode
            z = x + 1j * y
            return (z ** k).real
        raise InvalidParameterError(f"unknown model kind {self.kind!r}")

    def gradient(self, x, y):
        """(du/dx, du/dy) at (x, y), exact closed forms."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == TORUS:
            m, n = self.mode
            cx = 2 * np.pi * m * np.cos(2 * np.pi * m * x) * np.sin(2 * np.pi * n * y)
            cy = 2 * np.pi * n * np.sin(2 * np.pi * m * x) * np.cos(2 * np.pi * n * y)
            return cx, cy
        if self.kind == RECTANGLE:
            m, n = self.mode
            a, b = self.geometry
            cx = (m * np.pi / a) * np.cos(m * np.pi * x / a) * np.sin(n * np.pi * y / b)
            cy = (n * np.pi / b) * np.sin(m * np.pi * x / a) * np.cos(n * np.pi * y / b)
            return cx, cy
        if self.kind == DISK:
            m, k = self.mode
            (radius,) = self.geometry
            j_mk = _bessel_zero(m, k)
            r = np.hypot(x, y)
            theta = np.arctan2(y, x)
            s = j_mk / radius
            # avoid 0/0 at the origin; the true gradient there is finite
            r_safe = np.where(r == 0, 1.0, r)
            du_dr = s * special.jvp(m, s * r) * np.cos(m * theta)
            du_dt = -m * special.jv(m, s * r) * np.sin(m * theta)
            gx = du_dr * x / r_safe - du_dt * y / r_safe ** 2
            gy = du_dr * y / r_safe + du_dt * x / r_safe ** 2
            if m == 1:
                # J_1(s r) cos(theta) has gradient (s/2, 0) at r = 0
                at0 = r == 0
                gx = np.where(at0, 0.5 * s, gx)
                gy = np.where(at0, 0.0, gy)
            else:
                gx = np.where(r == 0, 0.0, gx)
                gy = np.where(r == 0, 0.0, gy)
            return gx, gy
        if self.kind == CONE:
            (k,) = self.mode
            z = x + 1j * y
            dz = k * z ** (k - 1)
            return dz.real, -dz.imag
        raise InvalidParameterError(f"unknown model kind {self.kind!r}")

    # ---- geometry helpers ---------------------------------------------------

    @property
    def periodic(self):
        """(periodic_x, periodic_y) of the natural sampling frame."""
        return (True, True) if self.kind == TORUS else (False, False)

    @property
    def frame(self):
        """(x0, y0, extent_x, extent_y) of the natural sampling frame."""
        if self.kind == TORUS:
            return (0.0, 0.0, 1.0, 1.0)
        if self.kind == RECTANGLE:
            a, b = self.geometry
            return (0.0, 0.0, a, b)
        if self.kind == DISK:
            (radius,) = self.geometry
            return (-radius, -radius, 2 * radius, 2 * radius)
        if self.kind == CONE:
            return (-1.0, -1.0, 2.0, 2.0)
        raise InvalidParameterError(f"unknown model kind {self.kind!r}")


@dataclass(frozen=True)
class NormBundle:
    """Area-weighted L1 norm, grid supremum and gradient supremum on a mask."""

    l1: float
    linf: float
    grad_linf: float

    def __post_init__(self):
        if self.l1 < 0 or self.linf < 0 or self.grad_linf < 0:
            raise InvalidParameterError("norms must be nonnegative")


def _check_mode(name, value):
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")


def make_torus_eigenfunction(m: int, n: int) -> EigenfunctionModel:
    """sin(2 pi m x) sin(2 pi n y) on the unit torus, lambda = 4 pi^2 (m^2 + n^2)."""
    _check_mode("m", m)
    _check_mode("n", n)
    lam = 4 * np.pi ** 2 * (m * m + n * n)
    return EigenfunctionModel(TORUS, (int(m), int(n)), (), float(lam))


def make_rectangle_eigenfunction(m: int, n: int, a: float, b: float) -> EigenfunctionModel:
    """Dirichlet box mode sin(m pi x / a) sin(n pi y / b) on [0,a] x [0,b]."""
    _check_mode("m", m)
    _check_mode("n", n)
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InvalidParameterError(
            f"side lengths must be positive and finite, got a={a}, b={b}")
    lam = np.pi ** 2 * (m * m / a ** 2 + n * n / b ** 2)
    return EigenfunctionModel(RECTANGLE, (int(m), int(n)), (float(a), float(b)), float(lam))


def make_disk_eigenfunction(m: int, k: int, radius: float = 1.0) -> EigenfunctionModel:
    """Disk mode J_m(j_{m,k} r / R) cos(m theta), lambda = (j_{m,k}/R)^2."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"angular index m must be a nonnegative integer, got {m!r}")
    _check_mode("k", k)
    if not 0 < radius < math.inf:
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    j_mk = _bessel_zero(m, k)
    lam = (j_mk / radius) ** 2
    return EigenfunctionModel(DISK, (int(m), int(k)), (float(radius),), float(lam))


def make_cone_model(k: int) -> EigenfunctionModel:
    """Harmonic Re((x+iy)^k): k nodal lines through the origin, sectors W(pi/k)."""
    _check_mode("k", k)
    return EigenfunctionModel(CONE, (int(k),), (), 0.0)


def domain_norms(model: EigenfunctionModel, mask) -> list:
    """Midpoint-rule L1 and grid suprema of |u| and |grad u| over each nodal
    domain, as a list whose item k - 1 is label k's NormBundle.

    |u| and |grad u| are evaluated once on the grid's axes
    (GridSpec.cell_center_axes), not a mesh, which the model broadcasts, as
    every model here does.  Each label is reduced over its box (mask.box)
    in raster order, so every norm is, to the last bit, what the model on a
    full mesh selected by labels == k gives.  A label without cells raises
    EmptyDomainError.
    """
    grid = mask.grid
    x, y = grid.cell_center_axes()
    abs_u, abs_grad = np.abs(model.evaluate(x, y)), np.hypot(*model.gradient(x, y))
    cell_area = grid.h ** 2
    out = []
    for label in range(1, mask.n_labels + 1):
        box = mask.box(label)
        sel = mask.labels[box] == label
        if not sel.any():
            raise EmptyDomainError(f"label {label} has no cells")
        u = abs_u[box][sel]
        out.append(NormBundle(l1=float(np.sum(u) * cell_area), linf=float(np.max(u)),
                              grad_linf=float(np.max(abs_grad[box][sel]))))
    return out
