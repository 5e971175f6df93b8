import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc, ndtr

import nodalheat as nh
from nodalheat.bounds import _wedge_fk_survival
from nodalheat.errors import InvalidParameterError, ResolutionWarning, UnknownLabelError
from nodalheat.heat import solve_hitting_field
from nodalheat.nodal import _ghost_table
from nodalheat.stochastic import (
    _MAX_DIST,
    _STREAMS,
    ConeSpec,
    PathEnsembleConfig,
    _channel_survival,
    _field_table,
    _keyed_stream,
    _level_set_distance,
    _line_walk,
    _step_rng,
    _walk_in_domain,
    _wedge_walk,
    cone_exit_exact,
    cone_exit_mc,
    escape_interval_mc,
    estimate_hitting_probability,
    feynman_kac_dirichlet,
    halfplane_hitting_exact,
    interval_escape_exact,
    sup_hitting_check,
    xi_evolution,
)
from conftest import ConstantModel

T = 0.01


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PathEnsembleConfig(n_paths=10)
        with pytest.raises(InvalidParameterError):
            PathEnsembleConfig(dt=-1.0)

    @pytest.mark.parametrize("build", [
        lambda: PathEnsembleConfig(dt=math.nan),
        lambda: ConeSpec(alpha=math.pi / 2, r=math.nan),
        lambda: interval_escape_exact(math.nan, 1.0),
        lambda: interval_escape_exact(0.2, math.nan),
        lambda: escape_interval_mc(0.2, math.nan, PathEnsembleConfig(n_paths=100)),
        lambda: escape_interval_mc(math.nan, 0.01, PathEnsembleConfig(n_paths=100)),
        lambda: sup_hitting_check(math.nan, 0.01, PathEnsembleConfig(n_paths=100)),
        lambda: sup_hitting_check(0.1, math.nan, PathEnsembleConfig(n_paths=100)),
        lambda: nh.stochastic._steps_for(math.nan, PathEnsembleConfig(n_paths=100)),
    ])
    def test_nan_rejected(self, build):
        # each range check fails on NaN; a NaN cone radius made
        # walk-on-spheres run forever
        with pytest.raises(InvalidParameterError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: PathEnsembleConfig(dt=math.inf),
        lambda: nh.stochastic._steps_for(math.inf, PathEnsembleConfig(n_paths=100)),
        lambda: nh.stochastic._steps_for(math.inf, PathEnsembleConfig(n_paths=100, dt=1.0)),
    ])
    def test_infinity_rejected(self, build):
        # an infinite horizon raised ValueError or OverflowError from the step
        # count, and an infinite dt passed as an infinite cone allowance
        with pytest.raises(InvalidParameterError, match="finite"):
            build()

    def test_dt_horizon_invariant(self):
        cfg = PathEnsembleConfig(n_paths=1000, dt=T / 10, seed=0)
        with pytest.raises(InvalidParameterError):
            sup_hitting_check(0.1, T, cfg)


class TestReflectionPrinciple:
    def test_sup_hitting_matches_erfc(self):
        cfg = PathEnsembleConfig(n_paths=60000, dt=T / 400, seed=11)
        res = sup_hitting_check(2 * np.sqrt(T), T, cfg)
        assert res.exact == pytest.approx(erfc(1.0), rel=1e-12)
        assert abs(res.mc.mean - res.exact) <= 3 * res.mc.std_error + 0.004

    def test_small_barrier_certain(self):
        cfg = PathEnsembleConfig(n_paths=2000, dt=T / 200, seed=1)
        res = sup_hitting_check(1e-9, T, cfg)
        assert res.mc.mean >= 0.999

    def test_infinite_barrier_never_hit(self):
        # an infinite wall has no distance, so the bridge has nothing to cross
        for bridge in (True, False):
            cfg = PathEnsembleConfig(n_paths=200, dt=T / 100, seed=1,
                                     bridge_correction=bridge)
            assert sup_hitting_check(np.inf, T, cfg).mc.mean == 0.0

    def test_tail_bound_threshold(self):
        # 1 - 0.4/sqrt(pi) lower bound; the hit probability clears 1 - 1/e
        cfg = PathEnsembleConfig(n_paths=50000, dt=T / 200, seed=2)
        res = sup_hitting_check(0.4 * np.sqrt(T), T, cfg)
        assert res.exact == pytest.approx(erfc(0.2), rel=1e-12)
        assert res.exact >= 1 - 0.4 / np.sqrt(np.pi)
        assert res.mc.mean > 1 - np.exp(-1.0)

    def test_bias_order_with_and_without_bridge(self):
        a = 2 * np.sqrt(T)
        exact = halfplane_hitting_exact(a, T)
        errs = {}
        for bridge in (False, True):
            for dt in (T / 100, T / 800):
                est = sup_hitting_check(
                    a, T, PathEnsembleConfig(n_paths=400000, dt=dt, seed=5,
                                             bridge_correction=bridge)).mc
                errs[(bridge, dt)] = est.mean - exact
        # without the bridge the bias is Theta(sqrt(dt)) and visible
        assert errs[(False, T / 100)] < -0.004
        ratio = errs[(False, T / 100)] / errs[(False, T / 800)]
        assert 1.8 <= ratio <= 5.0        # sqrt(8) ~ 2.8 expected
        # with the bridge both biases collapse below the coarse-step bias
        assert abs(errs[(True, T / 100)]) < abs(errs[(False, T / 100)]) / 3
        assert abs(errs[(True, T / 800)]) < 0.002


class TestIntervalEscape:
    def test_exact_series_cross_check(self):
        # image series against the Dirichlet eigenfunction series of (-a, a):
        # survival from the center is sum 4(-1)^n/((2n+1)pi) e^{-((2n+1)pi/2a)^2 t}
        for c in (0.4, 1.0, 2.0):
            a = c * np.sqrt(T)
            img = interval_escape_exact(a, T)
            k = 2 * np.arange(300) + 1
            surv = np.sum((4 / (k * np.pi)) * np.sin(k * np.pi / 2)
                          * np.exp(-(k * np.pi / (2 * a)) ** 2 * T))
            assert img == pytest.approx(1 - surv, abs=1e-9)

    def test_channel_survival_series(self):
        # the sine series against image series: interval_escape_exact from the
        # middle, and the killed kernel's images integrated over (0, w) off it
        w = 0.37
        k = np.arange(-20, 21)[:, None]
        for r in (0.01, 0.1, 1.0):
            t = r * w * w
            assert _channel_survival(w / 2, w, t) == pytest.approx(
                1 - interval_escape_exact(w / 2, t), rel=1e-10)
            y0 = np.array([w / 8, w / 3, 0.9 * w])
            def cdf(a):
                return ndtr((a + 2 * k * w) / np.sqrt(2 * t))

            images = (cdf(w - y0) - cdf(-y0) - cdf(w + y0) + cdf(y0)).sum(axis=0)
            np.testing.assert_allclose(_channel_survival(y0, w, t), images, rtol=1e-10)
            y = np.concatenate([[1e-12 * w, w - 1e-12 * w], np.linspace(0, w, 1001)])
            s = _channel_survival(y, w, t)
            assert np.all((s >= 0) & (s <= 1))

    def test_mc_matches_exact(self):
        a = 1.2 * np.sqrt(T)
        cfg = PathEnsembleConfig(n_paths=60000, dt=T / 300, seed=7)
        est = escape_interval_mc(a, T, cfg)
        assert abs(est.mean - interval_escape_exact(a, T)) \
            <= 3 * est.std_error + 0.004


@pytest.fixture(scope="module")
def setup(torus11, torus11_mask_128):
    field, mask = torus11_mask_128
    t = 1 / torus11.eigenvalue
    cfg = PathEnsembleConfig(n_paths=20000, dt=t / 200, seed=9)
    return torus11, mask, t, cfg


class TestDomainWalks:
    def test_feynman_kac_explicit_solution(self, setup):
        model, mask, t, cfg = setup
        est = feynman_kac_dirichlet(model, mask, 1, (0.25, 0.25), t, cfg)
        target = np.exp(-1.0) * float(model.evaluate(0.25, 0.25))
        assert abs(est.mean - target) <= 3 * est.std_error + 0.01

    def test_feynman_kac_zero_time(self, setup):
        model, mask, t, cfg = setup
        est = feynman_kac_dirichlet(model, mask, 1, (0.3, 0.2), 0.0, cfg)
        assert est.mean == float(model.evaluate(0.3, 0.2))
        assert est.std_error == 0.0

    def test_rectangle_mode_center(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 128)))
        t = 1 / m.eigenvalue
        cfg = PathEnsembleConfig(n_paths=20000, dt=t / 300, seed=13)
        est = feynman_kac_dirichlet(m, mask, 1, (0.5, 0.5), t, cfg)
        assert abs(est.mean - np.exp(-1.0)) <= 3 * est.std_error + 0.01

    def test_hitting_monotone_in_time(self, setup):
        model, mask, t, cfg = setup
        means = []
        for tt in (t / 2, t, 2 * t):
            cfg_t = PathEnsembleConfig(n_paths=20000, dt=tt / 200, seed=21)
            means.append(estimate_hitting_probability(mask, 1, (0.25, 0.25),
                                                      tt, cfg_t))
        assert means[0].mean <= means[1].mean + 3 * (means[0].std_error
                                                     + means[1].std_error)
        assert means[1].mean <= means[2].mean + 3 * (means[1].std_error
                                                     + means[2].std_error)

    def test_domain_monotonicity(self, setup):
        model, mask, t, cfg = setup
        grid = mask.grid
        sub_field = nh.indicator_field(
            grid, lambda x, y: (x > 0.05) & (x < 0.45) & (y > 0.05) & (y < 0.45))
        sub_mask = nh.label_nodal_domains(sub_field)
        sub_label = nh.nodal.principal_label(sub_mask, 1)
        p_full = estimate_hitting_probability(mask, 1, (0.25, 0.25), t, cfg)
        p_sub = estimate_hitting_probability(sub_mask, sub_label, (0.25, 0.25),
                                             t, cfg)
        assert p_sub.mean >= p_full.mean - 3 * (p_sub.std_error + p_full.std_error)

    def test_short_time_vanishes(self, setup):
        model, mask, t, cfg = setup
        cfg_small = PathEnsembleConfig(n_paths=1000, dt=None, seed=3)
        est = estimate_hitting_probability(mask, 1, (0.25, 0.25), 1e-7, cfg_small)
        assert est.mean == 0.0

    def test_start_validation(self, setup):
        model, mask, t, cfg = setup
        with pytest.raises(InvalidParameterError):
            estimate_hitting_probability(mask, 1, (0.75, 0.25), t, cfg)
        with pytest.warns(ResolutionWarning):
            estimate_hitting_probability(
                mask, 1, (0.25, mask.grid.h / 2), t,
                PathEnsembleConfig(n_paths=100, dt=t / 100, seed=0))

    def test_ghost_table_kept_on_mask(self):
        # the start check and the walks share one table per mask; an unknown
        # label is still rejected before any interpolation
        m = nh.make_torus_eigenfunction(1, 1)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 64)))
        table = _field_table(mask)
        assert _field_table(mask) is table
        assert np.array_equal(table, nh.nodal._ghost_table(mask.field_values, mask.grid))
        cfg = PathEnsembleConfig(n_paths=100, dt=1e-5, seed=0)
        estimate_hitting_probability(mask, 1, (0.25, 0.25), 1e-3, cfg)
        assert _field_table(mask) is table
        with pytest.raises(UnknownLabelError):
            estimate_hitting_probability(mask, 99, (0.25, 0.25), 1e-3, cfg)

    def test_determinism(self, setup):
        model, mask, t, cfg = setup
        a = estimate_hitting_probability(mask, 1, (0.25, 0.25), t, cfg)
        b = estimate_hitting_probability(mask, 1, (0.25, 0.25), t, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_mc_fd_cross_validation(self, setup):
        model, mask, t, cfg = setup
        fd = solve_hitting_field(mask, 1, t, n_steps=200)
        grid = mask.grid
        rng = np.random.default_rng(12)
        sel = mask.cells(1)
        iys, ixs = np.nonzero(sel)
        inner = ((ixs > 6) & (ixs < grid.nx // 2 - 7)
                 & (iys > 6) & (iys < grid.ny // 2 - 7))
        pick = rng.choice(np.flatnonzero(inner), 10, replace=False)
        for j in pick:
            x = (grid.x0 + (ixs[j] + 0.5) * grid.h,
                 grid.y0 + (iys[j] + 0.5) * grid.h)
            est = estimate_hitting_probability(mask, 1, x, t, cfg)
            combined = 3 * est.std_error + 0.3 * np.sqrt(cfg.dt / t) + 2 * grid.h
            assert abs(est.mean - fd.values[iys[j], ixs[j]]) <= combined


class TestXiEvolution:
    def test_gap_identity_shared_paths(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1 / torus11.eigenvalue
        cfg = PathEnsembleConfig(n_paths=5000, dt=t / 150, seed=17)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = (0.1 + 0.3 * rng.random(), 0.1 + 0.3 * rng.random())
            fk = feynman_kac_dirichlet(torus11, mask, 1, x, t, cfg)
            hit = estimate_hitting_probability(mask, 1, x, t, cfg)
            xi = xi_evolution(torus11, mask, 1, x, t, cfg)
            u0 = float(torus11.evaluate(*x))
            assert abs(xi.mean - fk.mean - hit.mean * u0) <= 1e-13 * max(1, abs(u0))
            assert xi.mean - fk.mean >= -1e-13

    def test_long_time_returns_to_data(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 50 / torus11.eigenvalue
        cfg = PathEnsembleConfig(n_paths=2000, dt=t / 150, seed=19)
        x = (0.25, 0.25)
        xi = xi_evolution(torus11, mask, 1, x, t, cfg)
        u0 = float(torus11.evaluate(*x))
        assert abs(xi.mean - u0) <= 3 * xi.std_error + 1e-6

    def test_constant_function_conserved(self, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1 / (8 * np.pi ** 2)
        cfg = PathEnsembleConfig(n_paths=500, dt=t / 100, seed=23)
        xi = xi_evolution(ConstantModel(1.0), mask, 1, (0.25, 0.25), t, cfg)
        assert xi.mean == pytest.approx(1.0, abs=1e-15)
        xi0 = xi_evolution(ConstantModel(1.0), mask, 1, (0.25, 0.25), 0.0, cfg)
        assert xi0.mean == 1.0


class TestConeExit:
    def test_exact_values(self):
        got = cone_exit_exact(ConeSpec(alpha=np.pi / 2, r=2.0))
        assert got == pytest.approx((2 / np.pi) * np.arctan(8 / 15), rel=1e-12)
        got = cone_exit_exact(ConeSpec(alpha=np.pi, r=2.0))
        assert got == pytest.approx((2 / np.pi) * np.arctan(4 / 3), rel=1e-12)

    def test_short_radius_limit(self):
        assert cone_exit_exact(ConeSpec(alpha=1.0, r=1 + 1e-9)) > 0.999

    def test_large_radius_asymptotic(self):
        alpha = np.pi / 2
        vals = [cone_exit_exact(ConeSpec(alpha=alpha, r=r)) * r ** (np.pi / alpha)
                for r in (10.0, 20.0, 40.0)]
        assert max(vals) / min(vals) <= 1.05

    def test_invalid_specs(self):
        with pytest.raises(InvalidParameterError):
            ConeSpec(alpha=0.0, r=2.0)
        with pytest.raises(InvalidParameterError):
            ConeSpec(alpha=1.0, r=0.9)

    def test_mc_matches_exact(self):
        spec = ConeSpec(alpha=np.pi / 2, r=2.0)
        cfg = PathEnsembleConfig(n_paths=40000, dt=1e-3, seed=31)
        est = cone_exit_mc(spec, cfg)
        exact = cone_exit_exact(spec)
        assert abs(est.mean - exact) <= 3 * est.std_error + 5 * 1e-3

    def test_full_plane_slit(self):
        spec = ConeSpec(alpha=2 * np.pi, r=1.5)
        exact = cone_exit_exact(spec)
        assert 0 < exact < 1
        cfg = PathEnsembleConfig(n_paths=20000, dt=1e-3, seed=37)
        est = cone_exit_mc(spec, cfg)
        assert est.mean <= 1.0

    def test_determinism(self):
        spec = ConeSpec(alpha=np.pi / 3, r=2.0)
        cfg = PathEnsembleConfig(n_paths=5000, dt=1e-3, seed=41)
        assert cone_exit_mc(spec, cfg).mean == cone_exit_mc(spec, cfg).mean

    @pytest.mark.parametrize("alpha", [np.pi / 3, np.pi / 2, np.pi, 1.5 * np.pi, 2 * np.pi],
                             ids=["pi_3", "pi_2", "pi", "3pi_2", "2pi"])
    def test_walk_on_spheres_unbiased(self, alpha):
        # walk-on-spheres has no time step, so no discretization allowance:
        # the estimate must sit within 4 standard errors of the exit law
        spec = ConeSpec(alpha=alpha, r=2.0)
        est = cone_exit_mc(spec, PathEnsembleConfig(n_paths=100000))
        bias = est.mean - cone_exit_exact(spec)
        assert abs(bias) <= 4 * est.std_error
        print(f"  measured bias {bias:+.5f} (se {est.std_error:.5f})", end="")

    def test_ignores_dt_and_bridge(self):
        spec = ConeSpec(alpha=np.pi / 2, r=2.0)
        results = {cone_exit_mc(spec, PathEnsembleConfig(n_paths=3000, dt=dt, seed=43,
                                                         bridge_correction=bridge))
                   for dt in (1e-3, 5e-4) for bridge in (True, False)}
        assert len(results) == 1


class TestStreams:
    def test_stream_table_disjoint(self):
        streams = sorted(_STREAMS.values())
        for tag, base, span in streams:
            assert 0 <= tag < 256 and span >= 1 and base + span <= 1 << 56
        for (tag0, base0, span0), (tag1, base1, _) in zip(streams, streams[1:]):
            assert tag0 < tag1 or base0 + span0 <= base1

    # Integer stop counts of every walk.  The cone exit walk is a
    # walk-on-spheres that reads neither dt nor the bridge flag, so its count
    # depends only on the path count.  A deliberate change of RNG keying or
    # draw order must update these numbers.
    PINNED = {
        (2000, True): {"grid": 821, "line": 562, "interval": 642, "cone": 653, "wedge": 1847},
        (2000, False): {"grid": 753, "line": 527, "interval": 554, "cone": 653, "wedge": 1842},
        (3000, True): {"grid": 1184, "line": 843, "interval": 934, "cone": 959, "wedge": 2769},
        (3000, False): {"grid": 1122, "line": 795, "interval": 835, "cone": 959, "wedge": 2736},
    }

    @pytest.mark.parametrize("n_paths,bridge", sorted(PINNED))
    def test_stop_counts_pinned(self, n_paths, bridge):
        rect = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        mask = nh.label_nodal_domains(nh.sample_field(rect, nh.grid_for_model(rect, 64)))

        def cfg(dt=None):
            return PathEnsembleConfig(n_paths=n_paths, dt=dt, seed=3, bridge_correction=bridge)

        means = {
            "grid": estimate_hitting_probability(mask, 1, (0.2, 0.3), 0.02, cfg(2e-4)).mean,
            "line": sup_hitting_check(0.15, 0.01, cfg(1e-4)).mc.mean,
            "interval": escape_interval_mc(0.2, 0.01, cfg(1e-4)).mean,
            "cone": cone_exit_mc(ConeSpec(np.pi / 2, 2.0), cfg(1e-3)).mean,
            "wedge": 1 - _wedge_fk_survival(2, 0.1, 0.02, cfg())[1].mean,
        }
        counts = {name: round(mean * n_paths) for name, mean in means.items()}
        assert counts == self.PINNED[(n_paths, bridge)]


    @pytest.mark.parametrize("name", sorted(_STREAMS))
    @pytest.mark.parametrize("seed", [3, 1 << 63, (1 << 64) - 1])
    def test_rekeyed_generator_draws_as_fresh(self, name, seed):
        # one generator re-keyed per counter must draw what a Philox built
        # for that key draws, including after the buffer and counter moved
        stream = _STREAMS[name]
        tag, base, span = stream
        rng_at = _keyed_stream(seed, stream)
        for k in (0, span - 1, 0):
            key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (tag << 56) | (base + k)],
                           dtype=np.uint64)
            rng, fresh = rng_at(k), np.random.Generator(np.random.Philox(key=key))
            for draw in (lambda g: g.standard_normal((7, 2)), lambda g: g.random(5),
                         lambda g: g.integers(0, 1 << 40, 3)):
                assert np.array_equal(draw(rng), draw(fresh))
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(_step_rng(seed, stream, k).random(9), fresh.random(9))

    @pytest.mark.parametrize("name", sorted(_STREAMS))
    def test_counter_outside_span_raises(self, name):
        stream = _STREAMS[name]
        rng_at = _keyed_stream(5, stream)
        for k in (-1, stream[2]):
            with pytest.raises(ValueError):
                rng_at(k)
            with pytest.raises(ValueError):
                _step_rng(5, stream, k)


def _walk_cases():
    """(ghost table, grid, sign, starts, horizon) of each pinned grid walk."""
    cases = {}
    for name, model, n, starts, sign in (
        ("torus11", nh.make_torus_eigenfunction(1, 1), 128,
         [(0.75, 0.25), (0.98, 0.02), (0.52, 0.45)], -1),
        ("rect11", nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0), 64,
         [(0.5, 0.5), (0.03, 0.6), (0.9, 0.97)], 1),
        ("torus23", nh.make_torus_eigenfunction(2, 3), 128,
         [(0.125, 1 / 12), (0.01, 0.16), (0.24, 0.005)], 1),
    ):
        grid = nh.grid_for_model(model, n)
        mask = nh.label_nodal_domains(nh.sample_field(model, grid))
        t = 0.004 if name == "torus23" else 0.02
        cases[name] = (_field_table(mask), grid, sign, starts, t)
    # an x-periodic strip whose domain crosses the seam and meets the y walls
    grid = nh.GridSpec(nx=64, ny=64, periodic_x=True)
    xc = (np.arange(64) + 0.5) / 64
    xx, yy = np.meshgrid(xc, xc)
    vals = np.sin(2 * np.pi * yy) + 0.3 * np.cos(2 * np.pi * xx)
    cases["strip"] = (_ghost_table(vals, grid), grid, 1,
                      [(0.5, 0.25), (0.99, 0.2), (0.02, 0.05)], 0.02)
    return cases


class TestWalkBytes:
    """sha256 of the float.hex of _walk_in_domain's (absorbed, end), recorded
    with one Philox built per step, np.hypot gradient norms and a mod on every
    periodic cell index; a faster walk must reproduce them bit for bit."""

    PINNED = {
        ("torus11", 1000, True): "0a463ed88d6bd8dd",
        ("torus11", 1000, False): "0c3ae00d3c6f3942",
        ("torus11", 4000, True): "a719dde91b6b5541",
        ("torus11", 4000, False): "b2ba09caa652dcda",
        ("rect11", 1000, True): "3458978e62575018",
        ("rect11", 1000, False): "20eb33755b7974c8",
        ("rect11", 4000, True): "7880f6a8ee0ef676",
        ("rect11", 4000, False): "10eb1f9c59cedbcf",
        ("torus23", 1000, True): "e62bd3f4a5c5c9ca",
        ("torus23", 1000, False): "65556c6277919f7b",
        ("torus23", 4000, True): "53c80c3d73c74302",
        ("torus23", 4000, False): "67221185ea0d817a",
        ("strip", 1000, True): "09b18d5b2a675292",
        ("strip", 1000, False): "e7ba3242cbb84121",
        ("strip", 4000, True): "95f117fea8ecb814",
        ("strip", 4000, False): "d3ae9ff739d2c3f8",
    }

    @pytest.fixture(scope="class")
    def cases(self):
        return _walk_cases()

    @pytest.mark.parametrize("name,n_paths,bridge", sorted(PINNED))
    def test_walk_pinned(self, cases, name, n_paths, bridge):
        table, grid, sign, starts, t = cases[name]
        cfg = PathEnsembleConfig(n_paths=n_paths, dt=t / 100, seed=11,
                                 bridge_correction=bridge)
        reps = -(-n_paths // len(starts))
        absorbed, end = _walk_in_domain(table, grid, sign,
                                        np.repeat(np.array(starts), reps, axis=0)[:n_paths],
                                        t, cfg)
        h = hashlib.sha256()
        for a, (x, y) in zip(absorbed.tolist(), end.tolist()):
            h.update(f"{int(a)} {x.hex()} {y.hex()}\n".encode())
        assert h.hexdigest()[:16] == self.PINNED[(name, n_paths, bridge)]

    @pytest.mark.parametrize("bridge", [True, False])
    @pytest.mark.parametrize("name,dead", [
        # torus11 walks its sign -1 domain; (0.25, 0.25) and its copy one
        # period right lie in the + domain
        ("torus11", [(0.25, 0.25), (1.25, 0.25)]),
        # off rect11's walled grid
        ("rect11", [(1.5, 0.5), (0.5, -0.25)]),
    ])
    def test_dead_starts(self, cases, name, dead, bridge):
        # a start the walls kill ends where it was given, and the live rows
        # walk bit for bit as they would alone
        table, grid, sign, starts, t = cases[name]
        cfg = PathEnsembleConfig(n_paths=300, dt=t / 100, seed=11, bridge_correction=bridge)
        mixed = np.concatenate([np.repeat(np.array(starts), 100, axis=0), dead * 20])
        order = np.random.default_rng(4).permutation(len(mixed))
        mixed = mixed[order]
        is_dead = order >= 300
        absorbed, end = _walk_in_domain(table, grid, sign, mixed, t, cfg)
        alone = _walk_in_domain(table, grid, sign, mixed[~is_dead], t, cfg)
        assert absorbed[is_dead].all()
        assert np.array_equal(end[is_dead], mixed[is_dead])
        assert np.array_equal(absorbed[~is_dead], alone[0])
        assert np.array_equal(end[~is_dead], alone[1])
        assert not alone[0].all()

    def test_level_set_distance_degenerate(self):
        f = np.array([1.0, 0.0, -2.0, 0.0, 3.0])
        gx = np.array([0.0, 0.0, 0.0, 1.0, 3.0])
        gy = np.array([0.0, 0.0, -0.0, 2.0, 4.0])
        d = _level_set_distance(f, gx, gy)
        # a zero gradient caps at _MAX_DIST; f = 0 is on the zero set
        assert d.tolist() == [_MAX_DIST, 0.0, _MAX_DIST, 0.0, 0.6]


ENGINE_WALKS = {
    # one wall, two walls, and the wedge's two walls with its apex
    "line": (0.01, lambda t, cfg: (_line_walk(-np.inf, 0.15, t, cfg, _STREAMS["line"]),)),
    "interval": (0.01, lambda t, cfg: (_line_walk(-0.2, 0.2, t, cfg, _STREAMS["interval"]),)),
    "wedge": (0.02, lambda t, cfg: _wedge_walk(0.1, math.pi / 4, t, cfg)),
}


class TestEngineWalkBytes:
    """sha256 of the float.hex of the other engine walks' results: the stop
    flags of the line and interval walks (their only output) and the wedge
    walk's (killed, end), recorded with a crossing test written per walk;
    the shared engine must reproduce them bit for bit."""

    PINNED = {
        ("interval", 1000, True): "f62888f49b70f551",
        ("interval", 1000, False): "f1b97c2f5fd4bd9f",
        ("interval", 4000, True): "e500bfefec2dfed4",
        ("interval", 4000, False): "dba7f5837b3a0715",
        ("line", 1000, True): "4f5c666f4a40e062",
        ("line", 1000, False): "b9a4c996e016265c",
        ("line", 4000, True): "a09e300956f839a1",
        ("line", 4000, False): "19bc8dbc8d891d9a",
        ("wedge", 1000, True): "3fcf62b36dc41d1e",
        ("wedge", 1000, False): "90b6bf87fff868c9",
        ("wedge", 4000, True): "83542247d1b23d15",
        ("wedge", 4000, False): "9d6ddb6cc6b70d48",
    }

    @pytest.mark.parametrize("name,n_paths,bridge", sorted(PINNED))
    def test_walk_pinned(self, name, n_paths, bridge):
        t, walk = ENGINE_WALKS[name]
        cfg = PathEnsembleConfig(n_paths=n_paths, dt=t / 100, seed=11,
                                 bridge_correction=bridge)
        h = hashlib.sha256()
        for arr in walk(t, cfg):
            for v in arr.reshape(arr.shape[0], -1).tolist():
                h.update((" ".join(x.hex() if isinstance(x, float) else str(int(x))
                                   for x in v) + "\n").encode())
        assert h.hexdigest()[:16] == self.PINNED[(name, n_paths, bridge)]


class TestDistancesOnlyForTheBridge:
    """The engine asks a walk for wall distances only when the bridge test
    reads them, at the start points as after every step."""

    @pytest.mark.parametrize("bridge", [True, False])
    def test_engine_asks_only_with_the_bridge(self, bridge):
        asked = []

        def walls(new, with_dist):
            asked.append(with_dist)
            x = new[:, 0]
            return x >= 0.1, ((0.1 - x),) if with_dist else ()

        cfg = PathEnsembleConfig(n_paths=500, dt=1e-4, seed=3, bridge_correction=bridge)
        nh.stochastic._absorbing_walk(walls, np.zeros((500, 1)), 0.01, cfg, _STREAMS["line"])
        # the first query is the start points'
        assert len(asked) > 1 and asked[0] is bridge and set(asked) == {bridge}

    @pytest.mark.parametrize("bridge", [True, False])
    def test_grid_and_wedge_walks(self, monkeypatch, bridge):
        calls = {}
        for name in ("_level_set_distance", "_wedge_distances"):
            inner = getattr(nh.stochastic, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args)

            monkeypatch.setattr(nh.stochastic, name, counted)
        m = nh.make_torus_eigenfunction(1, 1)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 32)))
        cfg = PathEnsembleConfig(n_paths=200, dt=1e-4, seed=5, bridge_correction=bridge)
        _walk_in_domain(_field_table(mask), mask.grid, 1, np.full((200, 2), 0.25), 0.01, cfg)
        _wedge_walk(0.1, math.pi / 4, 0.01, cfg)
        if bridge:
            assert calls["_level_set_distance"] > 1 and calls["_wedge_distances"] > 1
        else:
            assert calls == {}


def _estimate_cases():
    """(model, mask, label, start) of each pinned estimate."""
    torus = nh.make_torus_eigenfunction(1, 1)
    rect = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
    masks = {m: nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 64)))
             for m in (torus, rect)}
    return {name: (model, masks[model], 1, x) for name, model, x in (
        ("torus", torus, (0.25, 0.25)),
        ("seam", torus, (1.25, 0.25)),      # one period right of "torus"
        ("rect", rect, (0.5, 0.5)),
        ("wall", rect, (0.01, 0.6)),        # in a wall cell: warns
    )}


class TestEstimateBytes:
    """sha256 of the float.hex of mean and standard error of the three grid
    estimators at t = 0.02 and of both evolutions at t = 0, with the count of
    start warnings; the arithmetic on top of the walk must reproduce them."""

    PINNED = {
        ("rect", 100, True): "d18ebd69c8b977bd",
        ("rect", 100, False): "ac07d0dec89b4159",
        ("rect", 3001, True): "b44943453b7c45cd",
        ("rect", 3001, False): "c84ae38ea8fa3801",
        ("seam", 100, True): "2fc0563842164cc8",
        ("seam", 100, False): "02cd84ccb5d6bb3c",
        ("seam", 3001, True): "a60060229157e6e0",
        ("seam", 3001, False): "c9f7c9b1e1a91295",
        ("torus", 100, True): "30a853fda1a77ef7",
        ("torus", 100, False): "02cd84ccb5d6bb3c",
        ("torus", 3001, True): "a1524781e5eb59f5",
        ("torus", 3001, False): "c9f7c9b1e1a91295",
        ("wall", 100, True): "d97deaaf405777db",
        ("wall", 100, False): "d0523350001efb7b",
        ("wall", 3001, True): "e9ccafa50bb32705",
        ("wall", 3001, False): "0b0be7be09f6a7f1",
    }

    @pytest.fixture(scope="class")
    def cases(self):
        return _estimate_cases()

    @pytest.mark.parametrize("name,n_paths,bridge", sorted(PINNED))
    def test_estimates_pinned(self, cases, name, n_paths, bridge):
        model, mask, label, x = cases[name]
        h = hashlib.sha256()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for t in (0.02, 0.0):
                cfg = PathEnsembleConfig(n_paths=n_paths, dt=0.02 / 100, seed=11,
                                         bridge_correction=bridge)
                ests = [feynman_kac_dirichlet(model, mask, label, x, t, cfg),
                        xi_evolution(model, mask, label, x, t, cfg)]
                if t > 0:
                    ests.append(estimate_hitting_probability(mask, label, x, t, cfg))
                else:
                    with pytest.raises(InvalidParameterError):
                        estimate_hitting_probability(mask, label, x, t, cfg)
                for e in ests:
                    assert e.n_paths == n_paths
                    h.update(f"{e.mean.hex()} {e.std_error.hex()}\n".encode())
        n_warned = sum(issubclass(w.category, ResolutionWarning) for w in caught)
        h.update(f"{n_warned}\n".encode())
        assert h.hexdigest()[:16] == self.PINNED[(name, n_paths, bridge)]
