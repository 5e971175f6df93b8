"""Acceptance criteria, one test per criterion.

Every reference value is recomputed at run time from its closed form; each
test prints a single PASS line with its headline numbers and elapsed time
(visible with pytest -s) and enforces the stated runtime budget.
"""

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import nodalheat as nh
from nodalheat import bounds
from nodalheat.bounds import CorridorSpec
from nodalheat.heat import dirichlet_semigroup_field, heat_content_curve
from nodalheat.stochastic import (
    ConeSpec,
    PathEnsembleConfig,
    cone_exit_exact,
    cone_exit_mc,
    escape_interval_mc,
    estimate_hitting_probability,
    feynman_kac_dirichlet,
    xi_evolution,
)

LAM11 = 8 * np.pi ** 2
SEED = 20260808


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, *a):
        self.elapsed = time.time() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS [{self.elapsed:.1f}s "
                  f"of {self.seconds}s budget]")
            assert self.elapsed <= self.seconds
        return False


def torus_quarter(n):
    model = nh.make_torus_eigenfunction(1, 1)
    field = nh.sample_field(model, nh.grid_for_model(model, n))
    return model, field, nh.label_nodal_domains(field)


def test_01_heat_content_sqrt_law():
    with _Budget("1 heat-content sqrt(t) law", 60):
        grid = nh.GridSpec(nx=1024, ny=1024)
        mask = nh.label_nodal_domains(
            nh.indicator_field(grid, lambda x, y: np.ones_like(x, dtype=bool)))
        curve = heat_content_curve(mask, 1, np.logspace(-5, -4, 8), n_steps=64)
        ref = (2 / math.sqrt(math.pi)) * 4
        assert abs(curve.slope - ref) <= 0.03 * ref, (curve.slope, ref)
        assert curve.r_squared >= 0.999
        print(f"  slope {curve.slope:.5f} vs {ref:.5f} "
              f"({(curve.slope / ref - 1) * 100:+.2f}%), r2 {curve.r_squared:.6f}",
              end="")


def test_02_explicit_solution_oracle():
    with _Budget("2 explicit-solution oracle", 30):
        model, field, mask = torus_quarter(256)
        t = 1 / LAM11
        sg = dirichlet_semigroup_field(model, mask, 1, t, n_steps=200)
        sel = mask.cells(1)
        target = math.exp(-1.0) * field.values[sel]
        rel = np.abs(sg.values[sel] - target) / np.abs(target)
        assert rel.max() <= 0.01, rel.max()

        cfg = PathEnsembleConfig(n_paths=100000, dt=t / 1000, seed=SEED)
        fk = feynman_kac_dirichlet(model, mask, 1, (0.25, 0.25), t, cfg)
        expect = math.exp(-1.0)
        tol = 3 * fk.std_error + math.sqrt(cfg.dt)
        assert abs(fk.mean - expect) <= tol
        print(f"  fd max rel {rel.max() * 100:.3f}%, "
              f"mc {fk.mean:.5f} vs {expect:.5f} (tol {tol:.4f})", end="")


def test_03_xi_identity_and_conservation():
    with _Budget("3 xi identity and conservation", 60):
        model, field, mask = torus_quarter(128)
        t = 1 / LAM11
        grid = mask.grid
        cfg = PathEnsembleConfig(n_paths=20000, dt=t / 200, seed=SEED)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(10):
            x = (0.06 + 0.38 * rng.random(), 0.06 + 0.38 * rng.random())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fk = feynman_kac_dirichlet(model, mask, 1, x, t, cfg)
                hit = estimate_hitting_probability(mask, 1, x, t, cfg)
                xi = xi_evolution(model, mask, 1, x, t, cfg)
            u0 = float(model.evaluate(*x))
            worst = max(worst, abs(xi.mean - fk.mean - hit.mean * u0))
        assert worst <= 1e-13, worst

        # conservation: area-weighted xi sum equals the same sum of u
        cfg_q = PathEnsembleConfig(n_paths=1000, dt=t / 100, seed=SEED)
        sel = mask.cells(1)
        iys, ixs = np.nonzero(sel)
        pick = (iys % 2 == 1) & (ixs % 2 == 1)
        w = (2 * grid.h) ** 2
        total = 0.0
        total_u = 0.0
        var = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for iy, ix in zip(iys[pick], ixs[pick]):
                x = (grid.x0 + (ix + 0.5) * grid.h, grid.y0 + (iy + 0.5) * grid.h)
                est = xi_evolution(model, mask, 1, x, t, cfg_q)
                total += w * est.mean
                var += (w * est.std_error) ** 2
                total_u += w * float(model.evaluate(*x))
        sigma = math.sqrt(var)
        assert abs(total - total_u) <= 3 * sigma, (total, total_u, sigma)
        print(f"  identity residual {worst:.2e}; conservation "
              f"{total:.6f} vs {total_u:.6f} (3sig {3 * sigma:.6f})", end="")


def test_04_max_point_survival_bound():
    with _Budget("4 max-point survival bound", 30):
        bound = 1 - math.exp(-1.0)
        for spec in ("torus", "rect"):
            if spec == "torus":
                model, _, mask = torus_quarter(256)
            else:
                model = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
                mask = nh.label_nodal_domains(
                    nh.sample_field(model, nh.grid_for_model(model, 256)))
            t = 1 / model.eigenvalue
            cfg = PathEnsembleConfig(n_paths=100000, dt=t / 500, seed=SEED)
            rep = bounds.max_point_survival(model, mask, 1, t, cfg)
            assert rep.verdict == "pass"
            p_mc = rep.constants["p_mc"]
            se = rep.constants["p_mc_std_error"]
            assert p_mc <= bound + 3 * se
            assert rep.constants["p_fd"] <= bound + 5e-3
            print(f"  {spec}: mc {p_mc:.4f}, fd {rep.constants['p_fd']:.4f} "
                  f"<= {bound:.4f}", end="")


def test_05_thin_domain_constants():
    with _Budget("5 thin-domain constants", 30):
        c_star = math.sqrt(math.pi) / (math.sqrt(2) * math.e)
        # the closed form evaluates to 0.4610685...; asserted at 1e-5 against
        # its correctly rounded decimal
        assert abs(c_star - 0.46107) <= 1e-5
        assert abs(c_star - 0.46105) <= 2e-5

        t = 1 / LAM11
        c = 0.4
        a = c * math.sqrt(t)
        cfg = PathEnsembleConfig(n_paths=100000, dt=t / 1000, seed=SEED)
        est = escape_interval_mc(a, t, cfg)
        floor = 1 - math.exp(-1.0)
        assert est.mean - floor >= 3 * max(est.std_error, 1e-12)
        print(f"  c* = {c_star:.6f}; escape {est.mean:.5f} clears "
              f"{floor:.4f} by >= 3 sigma", end="")


def test_06_cone_formula():
    with _Budget("6 cone exit law", 60):
        cases = [(math.pi / 2, 2.0, 1e-3), (math.pi, 2.0, 1e-3),
                 (math.pi / 3, 4.0, 5e-4)]
        msgs = []
        for alpha, r, dt in cases:
            spec = ConeSpec(alpha=alpha, r=r)
            exact = cone_exit_exact(spec)
            cfg = PathEnsembleConfig(n_paths=200000, dt=dt, seed=SEED)
            mc = cone_exit_mc(spec, cfg)
            allow = bounds.cone_bias_allowance(dt, cfg)
            assert abs(mc.mean - exact) <= 3 * mc.std_error + allow, (alpha, r)
            msgs.append(f"{exact:.4f}/{mc.mean:.4f}")
        ref1 = (2 / math.pi) * math.atan(8 / 15)
        ref2 = (2 / math.pi) * math.atan(4 / 3)
        assert abs(ref1 - 0.3119) <= 1e-4 and abs(ref2 - 0.5903) <= 1e-4
        print("  exact/mc: " + ", ".join(msgs), end="")


def test_07_theorem1_pipeline():
    with _Budget("7 length-certificate pipeline", 120):
        ratios = []
        for m in (1, 2, 3, 4):
            model = nh.make_torus_eigenfunction(m, m)
            rep = bounds.theorem1_certificate(model, nh.grid_for_model(model, 256))
            c = rep.constants
            ref_sum = 8.0 * m
            assert abs(c["sum_boundary_lengths"] - ref_sum) <= 0.02 * ref_sum
            assert abs(c["nodal_length"] - 4.0 * m) <= 0.02 * 4.0 * m
            cert_ref = 8 * math.sqrt(2) * m / math.pi
            assert abs(c["certificate_sup_form"] - cert_ref) <= 0.02 * cert_ref
            assert c["certificate_sup_form"] <= c["nodal_length"]
            assert c["certificate_sup_form"] <= c["sum_boundary_lengths"]
            ratios.extend([c["ratio_min"], c["ratio_max"]])
        assert max(ratios) <= 2 * min(ratios), ratios
        print(f"  per-domain ratios within [{min(ratios):.3f}, {max(ratios):.3f}]",
              end="")


def test_08_avoided_crossing_bookkeeping():
    with _Budget("8 avoided-crossing bookkeeping", 120):
        cfg = PathEnsembleConfig(n_paths=100000, seed=SEED)
        rep = bounds.avoided_crossing_scan(CorridorSpec(lam_geom=100.0),
                                           0.75, cfg)
        assert rep.verdict == "pass"
        assert rep.constants["bookkeeping_worst"] <= 1e-9
        assert rep.constants["r2_gaussian"] >= 0.95
        per = rep.curves["per_square"]
        lhs, rhs, se = per[1:-1, 4], per[1:-1, 5], per[1:-1, 6]
        assert np.all(lhs <= rhs + 3 * se)
        print(f"  bookkeeping {rep.constants['bookkeeping_worst']:.1e}, "
              f"gaussian r2 {rep.constants['r2_gaussian']:.4f}", end="")


def test_09_conjecture_sweeps():
    with _Budget("9 conjecture sweeps", 180):
        iso = bounds.isoperimetry_sweep()
        assert iso.verdict == "pass"
        ref = 2 / math.sqrt(math.pi)
        assert iso.constants["max_ratio"] <= 1.2 * ref

        model = nh.make_torus_eigenfunction(1, 1)
        glob = bounds.global_survival_field(model, nh.grid_for_model(model, 256))
        assert glob.constants["inf_p"] > 0
        assert glob.constants["minima_spread"] <= 1e-10

        # three geometric ball oracles
        grid = nh.GridSpec(nx=256, ny=256)
        sq = nh.label_nodal_domains(
            nh.indicator_field(grid, lambda x, y: np.ones_like(x, dtype=bool)))
        r1 = bounds.ball_intersection_search(sq, 1, 0.0625, c1=0.5)
        assert abs(r1.constants["max_overlap_ratio"] - 1.0) <= 0.05

        h = 0.0125
        gs = nh.GridSpec(nx=256, ny=176, x0=-1.1, y0=-1.1,
                         extent_x=256 * h, extent_y=176 * h)
        fs = nh.indicator_field(gs, lambda x, y: (x > 0) & (x < 1)
                                & (np.abs(y) < 0.025))
        ms = nh.label_nodal_domains(fs)
        lab = nh.nodal.principal_label(ms, 1)
        r2 = bounds.ball_intersection_search(ms, lab, 1.0, c1=0.5)
        ys = np.linspace(-0.025, 0.025, 2001)
        oracle = float(np.trapezoid(np.minimum(2 * np.sqrt(1 - ys ** 2), 1.0), ys)
                       / math.pi)
        assert abs(r2.constants["max_overlap_ratio"] - oracle) <= 0.05 * oracle

        _, _, mt = torus_quarter(256)
        r3 = bounds.ball_intersection_search(mt, 1, 1 / LAM11, c1=0.5)
        assert abs(r3.constants["max_overlap_ratio"] - 1.0) <= 0.05
        print(f"  iso max R {iso.constants['max_ratio']:.4f} <= {1.2 * ref:.4f}; "
              f"inf p {glob.constants['inf_p']:.4f}; ball ratios "
              f"{r1.constants['max_overlap_ratio']:.3f}, "
              f"{r2.constants['max_overlap_ratio']:.4f}, "
              f"{r3.constants['max_overlap_ratio']:.3f}", end="")


def test_10_determinism(tmp_path):
    with _Budget("10 determinism", 300):
        # run from the source tree, as an uninstalled checkout is tested
        env = dict(os.environ, PYTHONPATH=str(Path(nh.__file__).parents[1]))

        def run(out, threads):
            cmd = [sys.executable, "-m", "nodalheat.cli", "suite", "--quick",
                   "--threads", str(threads), "--out", str(out)]
            res = subprocess.run(cmd, env=env, capture_output=True, text=True)
            assert res.returncode == 0, res.stdout + res.stderr

        def snapshot(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        run(tmp_path / "a", 1)
        run(tmp_path / "b", 1)
        run(tmp_path / "c", 2)
        a, b, c = (snapshot(tmp_path / k) for k in "abc")
        assert a.keys() == b.keys() == c.keys()
        for name in a:
            assert a[name] == b[name], f"rerun differs: {name}"
            assert a[name] == c[name], f"thread count differs: {name}"
        print(f"  {len(a)} artifacts byte-identical across reruns and threads",
              end="")
