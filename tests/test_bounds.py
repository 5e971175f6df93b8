import hashlib
import math

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
from nodalheat.errors import InvalidParameterError, ResolutionWarning
from nodalheat.stochastic import ConeSpec, McEstimate, PathEnsembleConfig, sup_hitting_check


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
        rep = check_comparison_lemma(torus11, mask, 1, [x], t, cfg)
        assert rep.verdict == "pass"
        u0 = float(torus11.evaluate(*x))
        gap = rep.curves["points"][0, 4]
        assert gap <= 3 * grid.h * 2 * np.pi     # mean-value bound with slack
        # from within one cell of the wall, the walks' caveat reaches the caller
        with pytest.warns(ResolutionWarning, match="within one cell"):
            check_comparison_lemma(torus11, mask, 1, [(0.25, 0.5 * grid.h)], t, cfg)

    def test_start_across_periodic_seam(self, torus11):
        # a start one period away lies in the same cell: the walks accept it
        # and the comparison reads its boundary distance from that cell
        field = nh.sample_field(torus11, nh.grid_for_model(torus11, 64))
        mask = nh.label_nodal_domains(field)
        t = 1 / LAM11
        cfg = PathEnsembleConfig(n_paths=200, dt=t / 150, seed=1)
        assert nh.nodal.label_at(mask, 1.25, 0.25) == 1
        nh.estimate_hitting_probability(mask, 1, (1.25, 0.25), t, cfg)
        rows = check_comparison_lemma(torus11, mask, 1, [(0.25, 0.25), (1.25, 0.25)], t,
                                      cfg).curves["points"]
        assert rows[1, 6] == rows[0, 6] > 0


class TestComparisonBytes:
    """float.hex of the constants and of grad_linf, and sha256 of the point
    table, of check_comparison_lemma at the default seed, recorded when the
    domain's norms came from an evaluation on its own box; the whole-grid
    domain_norms must reproduce them."""

    PINNED = {
        "torus:1,1": (
            {"C_measured": "0x1.333ebc88f2d2ap+0",
             "identity_residual_max": "0x1.0000000000000p-55"},
            "0x1.91e1ba05e01c2p+2",
            "0525a85b4505346c709aff81b985e7589547731da270391daa327d2e7c8875af"),
        "rect:2,3,1,1.5": (
            {"C_measured": "0x1.67048cf619ca9p+0",
             "identity_residual_max": "0x1.0000000000000p-54"},
            "0x1.920e216741dafp+2",
            "a305d6a3cf6a659fdb5160e4d860c338bd68ab1ff9e2f89b8843739aceb1c2ce"),
    }
    MODELS = {
        "torus:1,1": nh.make_torus_eigenfunction(1, 1),
        "rect:2,3,1,1.5": nh.make_rectangle_eigenfunction(2, 3, 1.0, 1.5),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_report_pinned(self, name):
        model = self.MODELS[name]
        mask = nh.label_nodal_domains(nh.sample_field(model, nh.grid_for_model(model, 128)))
        t = 1 / model.eigenvalue
        rep = check_comparison_lemma(model, mask, 1, None, t,
                                     PathEnsembleConfig(n_paths=400, dt=t / 150))
        constants, grad_linf, points_sha = self.PINNED[name]
        assert {k: v.hex() for k, v in rep.constants.items()} == constants
        assert rep.references["grad_linf"].hex() == grad_linf
        table = np.ascontiguousarray(rep.curves["points"], dtype="<f8")
        assert table.shape == (10, 8)
        assert hashlib.sha256(table.tobytes()).hexdigest() == points_sha


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


class TestTheorem1Bytes:
    """float.hex of every constant and sha256 of the per-domain table of
    theorem1_certificate, recorded when each domain's norms still came from
    its own model evaluation; one whole-field evaluation must reproduce
    them."""

    PINNED = {
        "torus:1,1": (
            {"nodal_length": "0x1.0000000000000p+2",
             "sum_boundary_lengths": "0x1.0000000000000p+3",
             "certificate_sup_form": "0x1.cd0df55b26209p+1",
             "certificate_grad_form": "0x1.4603c875197afp+2",
             "ratio_min": "0x1.0b7c142190924p+1",
             "ratio_max": "0x1.0b7c142190925p+1",
             "n_domains": 4},
            "60ae37e1afb24a365db50b535109db4c861911c5098ae1de58d1116af89a6917"),
        "torus:2,2": (
            {"nodal_length": "0x1.0000000000000p+3",
             "sum_boundary_lengths": "0x1.0000000000000p+4",
             "certificate_sup_form": "0x1.cd55165f105c7p+2",
             "certificate_grad_form": "0x1.4636108932c63p+3",
             "ratio_min": "0x1.0b4849cd7bafbp+1",
             "ratio_max": "0x1.0b4849cd7bafbp+1",
             "n_domains": 16},
            "e29456921b40b0b1b84c706e42bed5810ce1ac3197d66bb623caed14ad671c90"),
        "torus:3,3": (
            {"nodal_length": "0x1.7f662a5a3a980p+3",
             "sum_boundary_lengths": "0x1.82cc54b4752fep+4",
             "certificate_sup_form": "0x1.59ee09e59ed3fp+3",
             "certificate_grad_form": "0x1.e948bcb561fa2p+3",
             "ratio_min": "0x1.052975222323ap+1",
             "ratio_max": "0x1.0e29e574f14e4p+1",
             "n_domains": 36},
            "fd60d472fe56e5b85c6cc9c3b4c6dd91b6742189b8efb989db08faa5a6535090"),
        "torus:4,4": (
            {"nodal_length": "0x1.0000000000000p+4",
             "sum_boundary_lengths": "0x1.0000000000000p+5",
             "certificate_sup_form": "0x1.ce721e3edb256p+3",
             "certificate_grad_form": "0x1.46ff62159a88bp+4",
             "ratio_min": "0x1.0a79807b463cdp+1",
             "ratio_max": "0x1.0a79807b463d1p+1",
             "n_domains": 64},
            "9d0dbb3b5882521eb77ea13c79ddaa7252ec87d2d1ad6ea4a8ae5d4584319d0f"),
        "rect:2,3,1,1.5": (
            {"nodal_length": "0x1.c0c0c0c0c0c0cp+1",
             "sum_boundary_lengths": "0x1.8000000000000p+3",
             "certificate_sup_form": "0x1.59c2c5581ea12p+2",
             "certificate_grad_form": "0x1.e8f3aa795dfe3p+2",
             "ratio_min": "0x1.0704d92248dc2p+1",
             "ratio_max": "0x1.0faf24122a687p+1",
             "n_domains": 6},
            "98a291e77a5e6f376fffb6b4923b6e52348a20b10329fcc5e9e949f9a3e05123"),
        "disk:2,1": (
            {"nodal_length": "0x1.50ff49c63ae06p+3",
             "sum_boundary_lengths": "0x1.ce2b35f96af88p+4",
             "certificate_sup_form": "0x1.dcf358407ffc9p+2",
             "certificate_grad_form": "0x1.26ced22f8ddd6p+3",
             "ratio_min": "0x1.188f95d499659p+1",
             "ratio_max": "0x1.97d0f0bdafa75p+3",
             "n_domains": 7},
            "0ef989f02a511fe939091007e53d0ae26da02c8508e1890a31cac5d39ef3680f"),
    }
    CASES = {
        "torus:1,1": (nh.make_torus_eigenfunction(1, 1), 256),
        "torus:2,2": (nh.make_torus_eigenfunction(2, 2), 256),
        "torus:3,3": (nh.make_torus_eigenfunction(3, 3), 256),
        "torus:4,4": (nh.make_torus_eigenfunction(4, 4), 256),
        "rect:2,3,1,1.5": (nh.make_rectangle_eigenfunction(2, 3, 1.0, 1.5), 128),
        "disk:2,1": (nh.make_disk_eigenfunction(2, 1), 64),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_report_pinned(self, name):
        model, n = self.CASES[name]
        rep = theorem1_certificate(model, nh.grid_for_model(model, n), n_steps=96)
        constants, domains_sha = self.PINNED[name]
        got = {k: v.hex() if isinstance(v, float) else v for k, v in rep.constants.items()}
        assert got == constants
        table = np.ascontiguousarray(rep.curves["domains"])
        assert hashlib.sha256(table.tobytes()).hexdigest() == domains_sha


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

    def test_containment_wraps_only_periodic_axes(self, torus11):
        # on the walled 2 x 1 rectangle no point has a copy one period away:
        # the half width is the plain distance, and (1.9, 0.25) is 0.9 off
        # the segment's end (1, 0.25), not on its copy shifted by -1
        seg = ((0.0, 0.25), (1.0, 0.25))
        tube = TubeSpec(segment=seg, half_width=0.05)
        cfg = PathEnsembleConfig(n_paths=500, seed=23)
        model = nh.make_rectangle_eigenfunction(1, 1, 2.0, 1.0)
        grid = nh.grid_for_model(model, 64)
        assert bounds._segment_distance(np.array([1.9]), np.array([0.25]), seg,
                                        grid)[0] == pytest.approx(0.9, rel=1e-12)
        mask = nh.label_nodal_domains(nh.sample_field(model, grid))
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        qx = xs - 0.0
        qy = ys - 0.25
        s = np.clip(qx, 0.0, 1.0)
        unwrapped = np.hypot(qx - s, qy)
        expected = min(float(unwrapped[mask.labels == k].max())
                       for k in range(1, mask.n_labels + 1))
        rep = thin_domain_check(model, tube, cfg=cfg, grid_n=64)
        assert rep.constants["containment_halfwidth"] == expected
        assert expected == pytest.approx(1.2281, abs=1e-4)
        # on the unit torus both axes wrap by 1, as before
        for m, pinned in ((torus11, "0x1.f000000000000p-3"),
                          (nh.make_torus_eigenfunction(2, 3), "0x1.2000000000000p-4")):
            rep = thin_domain_check(m, tube, cfg=cfg, grid_n=64)
            assert rep.constants["containment_halfwidth"].hex() == pinned

    @pytest.mark.parametrize("spec, pinned", [
        ("torus:1,1", {"n_domains_inside_tube": "0x0.0p+0",
                       "containment_halfwidth": "0x1.f800000000000p-3",
                       "containment_c": "0x1.17e6d0e71ed58p+1"}),
        ("rect:1,1,2,1", {"n_domains_inside_tube": "0x0.0p+0",
                          "containment_halfwidth": "0x1.7c00000000000p-1",
                          "containment_c": "0x1.4dadbf43e0402p+1"}),
        ("disk:1,1", {"n_domains_inside_tube": "0x0.0p+0",
                      "containment_halfwidth": "0x1.f800000000000p-2",
                      "containment_c": "0x1.e2cb81fd8b14dp+0"}),
    ])
    def test_constants_pinned(self, spec, pinned):
        # the command line's tube (across the frame at a quarter of its
        # height, c = 0.4) at grid 128; the containment constants come from
        # each domain's cell centres on its box
        from nodalheat.cli import parse_model
        model = parse_model(spec)
        lam = model.eigenvalue
        x0, y0, ex, ey = model.frame
        tube = TubeSpec(segment=((x0, y0 + ey / 4), (x0 + ex, y0 + ey / 4)),
                        half_width=0.4 / math.sqrt(lam))
        cfg = PathEnsembleConfig(n_paths=400, dt=1 / lam / 100)
        rep = thin_domain_check(model, tube, 1 / lam, cfg, grid_n=128)
        # every path escapes the narrow tube, as on every model here
        escape = {"escape_mc": "0x1.0000000000000p+0", "escape_mc_std_error": "0x0.0p+0",
                  "kappa_variance_convention": "0x1.6a09e667f3bccp-1",
                  "exclusion_active": "0x1.0000000000000p+0"}
        assert {k: float(v).hex() for k, v in rep.constants.items()} == {**escape, **pinned}

    def test_segment_longer_than_one_on_walled_axes(self, torus11):
        # no axis of the 2 x 1 rectangle wraps, so a segment may span its
        # whole width; every cell centre then projects onto the segment and
        # the one domain's half width is its farthest row from y = 1/4
        seg = ((0.0, 0.25), (2.0, 0.25))
        cfg = PathEnsembleConfig(n_paths=500, seed=23)
        model = nh.make_rectangle_eigenfunction(1, 1, 2.0, 1.0)
        rep = thin_domain_check(model, TubeSpec(segment=seg, half_width=0.05),
                                cfg=cfg, grid_n=64)
        h = nh.grid_for_model(model, 64).h
        assert rep.constants["containment_halfwidth"] == pytest.approx(0.75 - h / 2,
                                                                        rel=1e-12)
        # along a periodic axis the extent may not pass the period
        for seg in (((0.0, 0.25), (1.5, 0.25)), ((0.25, 0.0), (0.25, -1.01))):
            with pytest.raises(InvalidParameterError, match="period"):
                thin_domain_check(torus11, TubeSpec(segment=seg, half_width=0.05),
                                  cfg=cfg, grid_n=64)

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

    @pytest.mark.parametrize("build", [
        lambda: CorridorSpec(lam_geom=math.nan),
        lambda: avoided_crossing_scan(CorridorSpec(lam_geom=100.0), math.nan,
                                      PathEnsembleConfig(n_paths=100, seed=1)),
        lambda: TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)), half_width=math.nan),
        lambda: TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)), half_width=math.inf),
    ])
    def test_nan_rejected(self, build):
        with pytest.raises(InvalidParameterError):
            build()


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


class TestConeExitLaw:
    def test_decay_checks_the_exit_law_through_the_shared_check(self):
        cfg = PathEnsembleConfig(n_paths=2000, dt=1e-3, seed=31)
        rep = cone_condition_decay(2, cfg, s_values=(0.1,))
        exact, mc, _, passed, detail = bounds._exit_law_check(
            ConeSpec(alpha=math.pi / 2, r=bounds.CONE_RADII[0]), cfg)
        (law,) = [c for c in rep.checks if c.name == "exit-law-mc"]
        assert (law.passed, law.detail) == (passed, detail)
        assert rep.constants["cone_exit_mc"] == mc.mean
        assert rep.references["cone_exit_exact"] == exact

    def test_report(self):
        cfg = PathEnsembleConfig(n_paths=2000, dt=2e-3, seed=5)
        rep = bounds.cone_exit_law(ConeSpec(alpha=math.pi / 2, r=2.0), cfg)
        assert rep.verdict == "pass"
        assert rep.inputs == {"alpha": math.pi / 2, "r": 2.0, "paths": 2000, "dt": 2e-3,
                              "seed": 5}
        assert rep.references["exact"] == pytest.approx(0.3119165215094773, rel=1e-15)

    def test_failed_exit_law_fails_the_decay_verdict(self, monkeypatch):
        # the check's numpy bool used to leave the verdict at pass
        monkeypatch.setattr(bounds, "cone_exit_mc",
                            lambda spec, cfg: McEstimate(mean=1.0, std_error=0.0, n_paths=200))
        rep = cone_condition_decay(1, PathEnsembleConfig(n_paths=200, dt=0.05, seed=3),
                                   s_values=(0.1,))
        assert [c.passed for c in rep.checks if c.name == "exit-law-mc"] == [False]
        assert rep.verdict == "fail"


class TestVerdict:
    @pytest.mark.parametrize("states,verdict", [
        ([], "report-only"), ([None], "report-only"), ([True, None], "pass"),
        ([np.True_], "pass"), ([True, np.False_], "fail"), ([np.False_, None], "fail"),
        ([False, True], "fail"),
    ])
    def test_numpy_bools_count(self, states, verdict):
        rep = bounds.ExperimentReport(name="x", claim="x")
        for i, state in enumerate(states):
            rep.check(f"c{i}", state)
        assert rep.verdict == verdict


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

    def test_centre_is_first_cell_within_rounding(self, unit_square_mask_256):
        # every centre 1/4 or more from the walls covers the whole ball, so
        # the ratio is 1 on a plateau, up to FFT rounding; the reported
        # centre is the plateau's first cell in raster order, (64, 64), the
        # first whose kernel support lies inside the square
        _, mask = unit_square_mask_256
        rep = ball_intersection_search(mask, 1, 0.0625, c1=0.5)
        centre = (rep.constants["argmax_x"], rep.constants["argmax_y"])
        assert centre == mask.grid.cell_center(64, 64) == (0.251953125, 0.251953125)
        assert rep.constants["max_overlap_ratio"] == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_strip_across_periodic_seam(self, axis):
        # on a grid periodic along one axis only, a strip across that axis's
        # seam is the centred strip moved by half a period, so the largest
        # ball fraction is the same: the whole ball fits in either
        along_x = axis == "x"
        grid = nh.GridSpec(nx=128, ny=128, periodic_x=along_x, periodic_y=not along_x)

        def max_ratio(inside):
            f = nh.indicator_field(grid, lambda x, y: inside(x if along_x else y))
            mask = nh.label_nodal_domains(f)
            assert mask.n_labels == 2
            lab = nh.nodal.principal_label(mask, 1)
            assert mask.area(lab) == pytest.approx(20 / 128, abs=1e-12)
            return ball_intersection_search(mask, lab, 0.0049).constants["max_overlap_ratio"]

        centred = max_ratio(lambda s: np.abs(s - 0.5) < 0.08)
        assert centred == pytest.approx(1.0, abs=1e-9)
        assert max_ratio(lambda s: (s < 0.08) | (s > 0.92)) == pytest.approx(centred, abs=1e-9)

    def test_torus_wavelength_ball(self, torus11, torus11_mask_256):
        _, mask = torus11_mask_256
        rep = ball_intersection_search(mask, 1, 1 / LAM11, c1=0.5)
        assert rep.constants["max_overlap_ratio"] >= 0.9
        assert rep.constants["max_overlap_ratio"] == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0, 0.0])
    def test_t_not_positive_and_finite(self, torus11_mask_128, t):
        # inf raised OverflowError in the disk kernel, nan ValueError, -1 a math domain error
        _, mask = torus11_mask_128
        with pytest.raises(InvalidParameterError, match="finite"):
            ball_intersection_search(mask, 1, t)

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
