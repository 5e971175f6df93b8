"""The benchmark's workloads: operations on the public nodalheat API, each
gated by the closed-form oracle and tolerance the repository already uses.

A workload is a setup function (inputs from the seed) plus a list of
operations run back to back in one thread (closed loop, one client).  The
seed sets only the Monte Carlo ensembles and the interior-point picks; the
finite-difference inputs are fixed.  Each operation returns its result and a
gate turns that result into (passed, detail).  A miss is counted, never
hidden: no operation is re-seeded or resized after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import nodalheat as nh
import nodalheat.bounds  # binds nh.bounds; the package does not import it

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]
    gate: Callable[[Any], tuple]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    ops: tuple


def _within(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


def _verdict(rep):
    failed = [c.name for c in rep.checks if c.passed is False]
    return not failed, f"verdict {rep.verdict}" + (f" ({', '.join(failed)})" if failed else "")


# ---------------------------------------------------------------------------
# fd: two large single domains through both ADI code paths
# ---------------------------------------------------------------------------

FD_TIMES = np.logspace(-5, -4, 8)       # acceptance #1 times
FD_STEPS = 64


def _fd_setup(seed: int) -> dict:
    square = nh.GridSpec(nx=1024, ny=1024)
    ell = nh.GridSpec(nx=512, ny=512)
    return {
        "square": nh.indicator_field(square, lambda x, y: np.ones_like(x, dtype=bool)),
        "ell": nh.indicator_field(ell, lambda x, y: (x < 0.5) | (y < 0.5)),
    }


def _fd_square(inp):
    mask = nh.label_nodal_domains(inp["square"])
    return nh.heat_content_curve(mask, 1, FD_TIMES, n_steps=FD_STEPS)


def _gate_square(curve):
    ref = 2 / SQRT_PI * 4
    ok = _within(curve.slope, ref, 0.03) and curve.r_squared >= 0.999
    return ok, f"slope {curve.slope:.5f} vs {ref:.5f} (3%), r2 {curve.r_squared:.6f}"


def _fd_ell(inp):
    mask = nh.label_nodal_domains(inp["ell"])
    label = nh.nodal.principal_label(mask, 1)
    length = nh.boundary_length(mask, label)
    return length, nh.heat_content_curve(mask, label, FD_TIMES, n_steps=FD_STEPS)


def _gate_ell(res):
    length, curve = res
    ref = 2 / SQRT_PI * length
    return (_within(curve.slope, ref, 0.05),
            f"slope {curve.slope:.5f} vs (2/sqrt(pi)) * {length:.4f} = {ref:.5f} (5%)")


# ---------------------------------------------------------------------------
# geometry: length certificates over the diagonal torus sweep
# ---------------------------------------------------------------------------

GEOMETRY_MODES = (1, 2, 3, 4)
GEOMETRY_GRID = 256


def _geometry_setup(seed: int) -> dict:
    out = {}
    for m in GEOMETRY_MODES:
        model = nh.make_torus_eigenfunction(m, m)
        out[m] = (model, nh.grid_for_model(model, GEOMETRY_GRID))
    return out


def _theorem1(m):
    def run(inp):
        model, grid = inp[m]
        return nh.bounds.theorem1_certificate(model, grid)
    return run


def _gate_theorem1(m):
    def gate(rep):
        c = rep.constants
        cert_ref = 8 * math.sqrt(2) * m / math.pi
        ok_v, detail = _verdict(rep)
        ok = (ok_v
              and _within(c["sum_boundary_lengths"], 8.0 * m, 0.02)
              and _within(c["nodal_length"], 4.0 * m, 0.02)
              and _within(c["certificate_sup_form"], cert_ref, 0.02)
              and c["certificate_sup_form"] <= c["nodal_length"]
              and c["certificate_sup_form"] <= c["sum_boundary_lengths"])
        return ok, (f"{detail}; boundary {c['sum_boundary_lengths']:.4f} vs {8 * m}, "
                    f"nodal {c['nodal_length']:.4f} vs {4 * m}, "
                    f"certificate {c['certificate_sup_form']:.4f} vs {cert_ref:.4f} (2%)")
    return gate


# ---------------------------------------------------------------------------
# mc: every path engine against its oracle
# ---------------------------------------------------------------------------

CMP_GRID, CMP_PATHS, CMP_STEPS = 128, 4000, 200
HIT_GRID, HIT_PATHS, HIT_STEPS = 256, 20000, 500
CONE_PATHS, CONE_DT = 20000, 1e-3
CORRIDOR_PATHS, CORRIDOR_SQUARES = 20000, 8


def _mc_setup(seed: int) -> dict:
    torus = nh.make_torus_eigenfunction(1, 1)
    tmask = nh.label_nodal_domains(nh.sample_field(torus, nh.grid_for_model(torus, CMP_GRID)))
    t_cmp = 1 / torus.eigenvalue

    rect = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
    rmask = nh.label_nodal_domains(nh.sample_field(rect, nh.grid_for_model(rect, HIT_GRID)))
    vals = np.where(rmask.cells(1), rmask.field_values, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(vals)), vals.shape)
    g = rmask.grid
    x_star = (g.x0 + (ix + 0.5) * g.h, g.y0 + (iy + 0.5) * g.h)
    t_hit = 1 / rect.eigenvalue

    PEC = nh.PathEnsembleConfig
    return {
        "cmp": (torus, tmask, t_cmp, PEC(n_paths=CMP_PATHS, dt=t_cmp / CMP_STEPS, seed=seed)),
        "hit": (rmask, x_star, t_hit, PEC(n_paths=HIT_PATHS, dt=t_hit / HIT_STEPS, seed=seed)),
        "cone": PEC(n_paths=CONE_PATHS, dt=CONE_DT, seed=seed),
        "corridor": (nh.bounds.CorridorSpec(lam_geom=100.0, n_covered=CORRIDOR_SQUARES),
                     PEC(n_paths=CORRIDOR_PATHS, seed=seed)),
    }


def _comparison(inp):
    model, mask, t, cfg = inp["cmp"]
    return nh.bounds.check_comparison_lemma(model, mask, 1, None, t, cfg)


def _gate_comparison(rep):
    ok_v, detail = _verdict(rep)
    resid = rep.constants["identity_residual_max"]
    return ok_v and resid <= 1e-13, f"{detail}; identity residual {resid:.2e} <= 1e-13"


def _hitting(inp):
    mask, x_star, t, cfg = inp["hit"]
    return nh.estimate_hitting_probability(mask, 1, x_star, t, cfg)


def _gate_hitting(est):
    bound = 1 - math.exp(-1.0)
    return (est.mean <= bound + 3 * est.std_error,
            f"p {est.mean:.4f} <= 1 - 1/e + 3se = {bound + 3 * est.std_error:.4f}")


def _cone(inp):
    return nh.bounds.cone_condition_decay(2, inp["cone"])


# Acceptance #6 gates the cone on its exit law.  The report's martingale
# checks at three apex distances are plain 3-sigma tests; they are printed
# with the verdict but not gated (at seed 2, s = 0.2 lands at z = -3.7).
CONE_GATED = ("survival-exponent-matches", "exponent-below-vanishing-order", "exit-law-mc")


def _gate_cone(rep):
    gated = [c for c in rep.checks if c.name in CONE_GATED]
    ok = len(gated) == len(CONE_GATED) and all(c.passed for c in gated)
    return ok, ("gated: " + "; ".join(f"{c.name} {c.detail}" for c in gated)
                + "; " + _verdict(rep)[1])


def _corridor(inp):
    spec, cfg = inp["corridor"]
    return nh.bounds.avoided_crossing_scan(spec, 0.75, cfg)


def _gate_corridor(rep):
    ok_v, detail = _verdict(rep)
    c = rep.constants
    per = rep.curves["per_square"]
    lhs, rhs, se = per[1:-1, 4], per[1:-1, 5], per[1:-1, 6]
    ok = (ok_v and c["bookkeeping_worst"] <= 1e-9 and c["r2_gaussian"] >= 0.95
          and bool(np.all(lhs <= rhs + 3 * se)))
    return ok, (f"{detail}; bookkeeping {c['bookkeeping_worst']:.1e} <= 1e-9, "
                f"gaussian r2 {c['r2_gaussian']:.4f} >= 0.95")


WORKLOADS = {
    "fd": Workload(
        _fd_setup,
        (Op("square_1024", _fd_square, _gate_square),
         Op("ell_512", _fd_ell, _gate_ell))),
    "geometry": Workload(
        _geometry_setup,
        tuple(Op(f"theorem1_m{m}", _theorem1(m), _gate_theorem1(m))
              for m in GEOMETRY_MODES)),
    "mc": Workload(
        _mc_setup,
        (Op("comparison", _comparison, _gate_comparison),
         Op("hitting_rect", _hitting, _gate_hitting),
         Op("cone_k2", _cone, _gate_cone),
         Op("corridor", _corridor, _gate_corridor))),
}
