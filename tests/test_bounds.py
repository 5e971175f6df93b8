import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc

import nodalheat as nh
from nodalheat import bounds
from nodalheat.bounds import (
    CorridorSpec,
    TubeSpec,
    avoided_crossing_scan,
    ball_intersection_search,
    check_comparison_lemma,
    cone_condition_decay,
    global_survival_field,
    isoperimetry_sweep,
    max_point_survival,
    theorem1_certificate,
    thin_domain_check,
)
from nodalheat.stochastic import PathEnsembleConfig, sup_hitting_check


LAM11 = 8 * np.pi ** 2


def square_content_series(t, side, terms=200):
    k = 2 * np.arange(terms) + 1
    survive = np.sum((8 * side / (k ** 2 * np.pi ** 2))
                     * np.exp(-(k * np.pi / side) ** 2 * t))
    return side ** 2 - survive ** 2


class TestComparisonLemma:
    def test_identities_and_constant(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1 / LAM11
        cfg = PathEnsembleConfig(n_paths=4000, dt=t / 150, seed=3)
        rep = check_comparison_lemma(torus11, mask, 1, None, t, cfg)
        assert rep.verdict == "pass"
        assert rep.constants["identity_residual_max"] <= 1e-13
        # C >= u(x)/(sqrt(t) |grad u|) at the sampled points, and is at most
        # the max-point value 1/(sqrt(t) 2 pi)
        assert 0 < rep.constants["C_measured"] <= 1 / (math.sqrt(t) * 2 * np.pi) + 1e-9

    def test_near_boundary_gap_bound(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        grid = mask.grid
        t = 1 / LAM11
        cfg = PathEnsembleConfig(n_paths=3000, dt=t / 150, seed=5)
        x = (0.25, 2.5 * grid.h)      # two-ish cells from the wall
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_comparison_lemma(torus11, mask, 1, [x], t, cfg)
        assert rep.verdict == "pass"
        u0 = float(torus11.evaluate(*x))
        gap = rep.curves["points"][0, 4]
        assert gap <= 3 * grid.h * 2 * np.pi     # mean-value bound with slack


class TestTheorem1:
    def test_torus11_numbers(self, torus11):
        grid = nh.grid_for_model(torus11, 128)
        rep = theorem1_certificate(torus11, grid)
        assert rep.verdict == "pass"
        c = rep.constants
        assert c["nodal_length"] == pytest.approx(4.0, abs=0.01)
        assert c["sum_boundary_lengths"] == pytest.approx(8.0, abs=0.08)
        assert c["certificate_sup_form"] == pytest.approx(8 * math.sqrt(2) / np.pi,
                                                          rel=0.01)
        # per-domain ratio against the exact series content
        t = 1 / LAM11
        lhs = square_content_series(t, 0.5)
        rhs = (1 - np.exp(-1)) / math.sqrt(t) * (1 / np.pi ** 2) / (2 * np.pi)
        assert rhs == pytest.approx(0.0906, abs=0.0005)
        assert c["ratio_min"] == pytest.approx(lhs / rhs, rel=0.02)
        assert c["ratio_max"] == pytest.approx(c["ratio_min"], rel=1e-9)

    def test_certificate_below_length_across_modes(self):
        for m in (1, 2):
            model = nh.make_torus_eigenfunction(m, m)
            rep = theorem1_certificate(model, nh.grid_for_model(model, 128))
            c = rep.constants
            assert c["certificate_sup_form"] <= c["nodal_length"]
            assert c["certificate_sup_form"] == pytest.approx(
                8 * math.sqrt(2) * m / np.pi, rel=0.01)


class TestMaxPoint:
    def test_torus_bound(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1 / LAM11
        cfg = PathEnsembleConfig(n_paths=20000, dt=t / 200, seed=7)
        rep = max_point_survival(torus11, mask, 1, t, cfg)
        assert rep.verdict == "pass"
        assert rep.constants["p_fd"] <= 1 - np.exp(-1)
        assert rep.references["bound"] == pytest.approx(1 - np.exp(-1), rel=1e-12)

    def test_rectangle_bound(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 128)))
        t = 1 / m.eigenvalue
        cfg = PathEnsembleConfig(n_paths=20000, dt=t / 200, seed=11)
        rep = max_point_survival(m, mask, 1, t, cfg)
        assert rep.verdict == "pass"
        assert rep.inputs["x_star"] == (pytest.approx(0.5, abs=mask.grid.h),
                                        pytest.approx(0.5, abs=mask.grid.h))

    def test_short_time_trivial(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1e-6
        cfg = PathEnsembleConfig(n_paths=1000, dt=t / 100, seed=13)
        rep = max_point_survival(torus11, mask, 1, t, cfg, n_steps=16)
        assert rep.verdict == "pass"
        assert rep.constants["p_mc"] == 0.0


class TestThinDomain:
    def test_threshold_constants(self, torus11):
        tube = TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)),
                        half_width=0.4 / math.sqrt(LAM11))
        cfg = PathEnsembleConfig(n_paths=20000, dt=(1 / LAM11) / 200, seed=17)
        rep = thin_domain_check(torus11, tube, cfg=cfg, grid_n=128)
        assert rep.verdict == "pass"
        lit = rep.references["critical_c_literal"]
        assert lit == pytest.approx(math.sqrt(math.pi) / (math.sqrt(2) * math.e),
                                    rel=1e-14)
        assert lit == pytest.approx(0.46107, abs=1e-5)
        assert rep.references["critical_c_adjusted"] == pytest.approx(
            math.sqrt(math.pi) / math.e, rel=1e-14)
        assert rep.references["escape_lower_bound"] == pytest.approx(
            1 - 0.4 / math.sqrt(math.pi), rel=1e-12)
        # c = 0.4 < sqrt(pi)/e activates the exclusion branch
        assert rep.constants["exclusion_active"] == 1.0
        assert rep.constants["escape_mc"] > 1 - np.exp(-1)

    def test_containment_geometry(self, torus11):
        # the quarter-square domain fits a tube exactly at half width 1/4
        cfg = PathEnsembleConfig(n_paths=1000, dt=(1 / LAM11) / 150, seed=19)
        wide = TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)), half_width=0.26)
        rep = thin_domain_check(torus11, wide, cfg=cfg, grid_n=128)
        assert rep.constants["n_domains_inside_tube"] >= 1
        h = 1 / 128
        assert rep.constants["containment_halfwidth"] == pytest.approx(0.25, abs=2 * h)
        assert rep.constants["containment_c"] == pytest.approx(
            0.25 * math.sqrt(LAM11), rel=0.02)
        narrow = TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)),
                          half_width=0.5 / math.sqrt(LAM11))
        rep2 = thin_domain_check(torus11, narrow, cfg=cfg, grid_n=128)
        assert rep2.constants["n_domains_inside_tube"] == 0

    def test_escape_bound_over_width_sweep(self):
        # MC escape clears the closed-form lower bound 1 - c/sqrt(pi) minus
        # noise for every tube width in the sweep
        t = 1 / LAM11
        for c in (0.2, 0.4, 0.6, 1.0, 1.5):
            a = c * math.sqrt(t)
            cfg = PathEnsembleConfig(n_paths=20000, dt=t / 300, seed=43)
            from nodalheat.stochastic import escape_interval_mc
            est = escape_interval_mc(a, t, cfg)
            lower = 1 - c / math.sqrt(math.pi)
            assert est.mean >= lower - 3 * max(est.std_error, 1e-12), (c, est.mean)

    def test_degenerate_width_escapes_certainly(self, torus11):
        tube = TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)), half_width=1e-4)
        cfg = PathEnsembleConfig(n_paths=500, dt=(1 / LAM11) / 150, seed=23)
        rep = thin_domain_check(torus11, tube, cfg=cfg, grid_n=64)
        assert rep.constants["escape_mc"] == 1.0


@pytest.fixture(scope="module")
def crossing_report():
    cfg = PathEnsembleConfig(n_paths=30000, seed=29)
    return avoided_crossing_scan(CorridorSpec(lam_geom=100.0, n_covered=10,
                                              n_margin=3), 0.75, cfg)


@pytest.fixture(scope="module")
def iso_report():
    return isoperimetry_sweep(bounds.default_isoperimetry_family(256), n_steps=48)


class TestAvoidedCrossing:
    def test_verdict_and_bookkeeping(self, crossing_report):
        assert crossing_report.verdict == "pass"
        assert crossing_report.constants["bookkeeping_worst"] <= 1e-9

    def test_boundary_mass_translation_invariant(self, crossing_report):
        per = crossing_report.curves["per_square"]
        pb = per[1:-1, 1]
        assert np.ptp(pb) <= 5e-4

    def test_gaussian_decay(self, crossing_report):
        assert crossing_report.constants["r2_gaussian"] >= 0.95
        assert 0.1 <= crossing_report.constants["gamma_gaussian"] <= 0.5

    def test_decay_inequality_rows(self, crossing_report):
        per = crossing_report.curves["per_square"]
        lhs, rhs, se = per[:, 4], per[:, 5], per[:, 6]
        interior = slice(1, -1)
        assert np.all(lhs[interior] <= rhs[interior] + 3 * se[interior] + 1e-12)

    def test_horizon_and_decay_factors(self, crossing_report):
        # t = width^2 by construction; the model's own decay factor applies
        w = crossing_report.inputs["width"]
        assert crossing_report.inputs["t"] == pytest.approx(w ** 2, rel=1e-12)
        lam_model = crossing_report.constants["lam_model"]
        assert crossing_report.references["decay_factor_model"] == pytest.approx(
            math.exp(-lam_model * w ** 2), rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(Exception):
            avoided_crossing_scan(CorridorSpec(lam_geom=100.0), 0.4,
                                  PathEnsembleConfig(n_paths=100, seed=1))


class TestCorridorWalk:
    def test_transitions_match_product_form(self):
        # the killed walk on (0, L) x (0, w) factorizes: p_ij = Y X_ij, with Y the
        # mean cross-channel survival and X_ij the 1-D killed kernel on [0, L]
        # from a uniform start in square i into square j (sine series integrated
        # over both squares, divided by w)
        w, n_tot, i, n = 0.1, 8, 3, 40000
        box_l, t = n_tot * w, w * w
        rng = np.random.default_rng(11)
        starts = np.column_stack([w * (i + rng.random(n)), w * rng.random(n)])
        wgt, end = bounds._corridor_walk(starts, box_l, w, t,
                                         PathEnsembleConfig(n_paths=n, seed=5), salt=0)

        odd = 2 * np.arange(50) + 1
        y_mean = np.sum(8 / (odd * np.pi) ** 2 * np.exp(-(odd * np.pi / w) ** 2 * t))
        m = np.arange(1, 401)
        cosines = np.cos(np.multiply.outer(m * np.pi / box_l, w * np.arange(n_tot + 1)))
        sine_int = box_l / (m * np.pi)[:, None] * (cosines[:, :-1] - cosines[:, 1:])
        decay = np.exp(-(m * np.pi / box_l) ** 2 * t)
        x_ij = 2 / (box_l * w) * (decay * sine_int[:, i]) @ sine_int

        jbin = np.floor(end[:, 0] / w).astype(np.int64)
        z = {}
        for j in range(i - 2, i + 3):
            samples = wgt * (jbin == j)
            z[j] = (samples.mean() - y_mean * x_ij[j]) / (samples.std(ddof=1) / math.sqrt(n))
        p_b_exact = 1 - y_mean * x_ij.sum()
        z["p_b"] = (1 - wgt.mean() - p_b_exact) / (wgt.std(ddof=1) / math.sqrt(n))
        assert all(abs(v) <= 4 for v in z.values()), z


class TestConeCondition:
    def test_k2_exponent(self):
        cfg = PathEnsembleConfig(n_paths=20000, dt=1e-3, seed=31)
        rep = cone_condition_decay(2, cfg)
        assert rep.verdict == "pass"
        assert rep.constants["survival_exponent_measured"] == pytest.approx(
            1.0, rel=0.1)

    def test_k1_halfplane(self):
        cfg = PathEnsembleConfig(n_paths=20000, dt=1e-3, seed=37)
        rep = cone_condition_decay(1, cfg, s_values=(0.05, 0.1))
        assert rep.verdict == "pass"
        assert rep.constants["survival_exponent_measured"] == pytest.approx(
            0.5, rel=0.1)
        # erf oracle agrees with the exit-law exponent at k=1
        s = 0.09
        assert math.erf(math.sqrt(s) / 2) == pytest.approx(
            math.sqrt(s / math.pi), rel=0.03)

    def test_exponent_grows_linearly(self):
        cfg = PathEnsembleConfig(n_paths=5000, dt=1e-3, seed=41)
        exps = []
        for k in (2, 4, 8):
            rep = cone_condition_decay(k, cfg, s_values=(0.1,))
            exps.append(rep.constants["survival_exponent_measured"])
        assert exps[0] < exps[1] < exps[2]
        assert exps[1] / exps[0] == pytest.approx(2.0, rel=0.15)
        assert exps[2] / exps[1] == pytest.approx(2.0, rel=0.15)


class TestIsoperimetry:
    def test_report_passes(self, iso_report):
        assert iso_report.verdict == "pass"
        ref = 2 / math.sqrt(math.pi)
        assert iso_report.constants["max_ratio"] <= 1.2 * ref
        assert iso_report.constants["square_ratio_small_t"] == pytest.approx(ref,
                                                                         rel=0.03)

    def test_torus_wavelength_stability(self, iso_report):
        assert iso_report.constants["torus_wavelength_ratio_spread"] <= 2.0


class TestGlobalSurvival:
    def test_torus_symmetric_minima(self, torus11):
        grid = nh.grid_for_model(torus11, 128)
        rep = global_survival_field(torus11, grid)
        assert rep.verdict == "pass"
        assert rep.constants["inf_p"] > 0
        # the four quarter domains are congruent; the solves must agree exactly
        assert rep.constants["minima_spread"] <= 1e-12

    def test_inf_location_at_domain_center(self, torus11):
        grid = nh.grid_for_model(torus11, 128)
        rep = global_survival_field(torus11, grid)
        h = grid.h
        x = rep.constants["inf_location_x"] % 0.5
        y = rep.constants["inf_location_y"] % 0.5
        assert abs(x - 0.25) <= 1.5 * h and abs(y - 0.25) <= 1.5 * h

    def test_mode_sweep_stability(self):
        infs = []
        for m in (1, 2, 3):
            model = nh.make_torus_eigenfunction(m, m)
            rep = global_survival_field(model, nh.grid_for_model(model, 96 * m))
            infs.append(rep.constants["inf_p"])
        assert max(infs) <= 2 * min(infs)


class TestBallSearch:
    def test_square_contains_ball(self, unit_square_mask_256):
        _, mask = unit_square_mask_256
        rep = ball_intersection_search(mask, 1, 0.0625, c1=0.5)
        assert rep.constants["max_overlap_ratio"] == pytest.approx(1.0, rel=0.05)

    def test_thin_strip_ratio(self):
        h = 0.0125
        grid = nh.GridSpec(nx=256, ny=176, x0=-1.1, y0=-1.1,
                           extent_x=256 * h, extent_y=176 * h)
        f = nh.indicator_field(grid, lambda x, y: (x > 0) & (x < 1)
                               & (np.abs(y) < 0.025))
        mask = nh.label_nodal_domains(f)
        lab = nh.nodal.principal_label(mask, 1)
        rep = ball_intersection_search(mask, lab, 1.0, c1=0.5)
        w = 0.05
        # area-integral oracle for the best center (strip midpoint): the
        # chord 2 sqrt(1 - y^2) exceeds the strip length 1 and is clipped
        ys = np.linspace(-w / 2, w / 2, 2001)
        chord = 2 * np.sqrt(1 - ys ** 2)
        covered = np.minimum(chord, 1.0)
        oracle = np.trapezoid(covered, ys) / math.pi
        assert oracle == pytest.approx(w / math.pi, rel=1e-4)
        assert rep.constants["max_overlap_ratio"] == pytest.approx(oracle, rel=0.05)
        assert rep.constants["max_overlap_ratio"] < 1.0

    def test_torus_wavelength_ball(self, torus11, torus11_mask_256):
        _, mask = torus11_mask_256
        rep = ball_intersection_search(mask, 1, 1 / LAM11, c1=0.5)
        assert rep.constants["max_overlap_ratio"] >= 0.9
        assert rep.constants["max_overlap_ratio"] == pytest.approx(1.0, rel=0.05)

    def test_radius_resolution_error(self, torus11_mask_128):
        _, mask = torus11_mask_128
        with pytest.raises(Exception):
            ball_intersection_search(mask, 1, (mask.grid.h / 2) ** 2, c1=0.5)


class TestVerdictStability:
    def test_no_flips_when_quadrupling_paths(self):
        # a 3-sigma criterion that passes at n paths must keep passing at 4n
        # for (almost) every seed; with these 20 fixed seeds: no flips at all
        t = 0.01
        a = 2 * math.sqrt(t)
        exact = erfc(1.0)
        flips = 0
        for seed in range(20):
            verdicts = []
            for n in (2000, 8000):
                cfg = PathEnsembleConfig(n_paths=n, dt=t / 150, seed=seed)
                est = sup_hitting_check(a, t, cfg).mc
                tol = 3 * est.std_error + bounds.mc_probability_allowance(t, cfg)
                verdicts.append(abs(est.mean - exact) <= tol)
            if verdicts[0] and not verdicts[1]:
                flips += 1
        assert flips <= 1
