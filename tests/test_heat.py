import dataclasses
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import nodalheat as nh
import nodalheat.bounds  # binds nh.bounds; the package does not import it
from nodalheat.errors import InvalidParameterError, UnknownLabelError
from nodalheat.heat import (
    _evolve,
    _get_plan,
    dirichlet_semigroup_field,
    heat_content,
    heat_content_curve,
    solve_hitting_field,
)
from conftest import ConstantModel


def one_wall_hit(x, t):
    """erfc law for a single absorbing wall at 0 (diffusivity 1)."""
    return erfc(x / (2 * np.sqrt(t)))


def two_wall_hit(x, t, width, terms=200):
    """Hitting probability on [0, width] with both walls absorbing (series)."""
    q = 1.0
    for n in range(terms):
        k = 2 * n + 1
        q -= (4 / (k * np.pi)) * np.sin(k * np.pi * x / width) * np.exp(
            -(k * np.pi / width) ** 2 * t)
    return q


def square_content(t, side, terms=200):
    """Exact heat content of a side x side square (separable series)."""
    k = 2 * np.arange(terms) + 1
    survive_1d = np.sum((8 * side / (k ** 2 * np.pi ** 2))
                        * np.exp(-(k * np.pi / side) ** 2 * t))
    return side ** 2 - survive_1d ** 2


def unit_square_mask(n):
    grid = nh.GridSpec(nx=n, ny=n)
    f = nh.indicator_field(grid, lambda x, y: np.ones_like(x, dtype=bool))
    return nh.label_nodal_domains(f)


class TestHittingField:
    def test_strip_matches_erfc(self):
        mask = unit_square_mask(256)
        # tall strip: contamination from the far walls is negligible at this t
        d_target = 0.125
        t = (d_target / 2) ** 2
        fld = solve_hitting_field(mask, 1, t, n_steps=128)
        h = mask.grid.h
        i = int(d_target / h)
        d = (i + 0.5) * h
        got = fld.values[128, i]
        assert got == pytest.approx(one_wall_hit(d, t), abs=h + t)

    def test_certain_absorption_large_t(self):
        mask = unit_square_mask(64)
        fld = solve_hitting_field(mask, 1, 10.0, n_steps=64)
        assert fld.values[mask.cells(1)].min() >= 0.99

    def test_square_center_product_form(self):
        mask = unit_square_mask(256)
        t = 0.01
        fld = solve_hitting_field(mask, 1, t, n_steps=128)
        got = fld.values[128, 128]
        x = (128 + 0.5) * mask.grid.h
        q = two_wall_hit(x, t, 1.0)
        expect = 1 - (1 - q) ** 2
        assert got == pytest.approx(expect, rel=0.01)

    def test_zero_time(self):
        mask = unit_square_mask(32)
        fld = solve_hitting_field(mask, 1, 0.0, n_steps=16)
        assert np.all(fld.values[mask.cells(1)] == 0.0)

    def test_maximum_principle_and_clip(self):
        mask = unit_square_mask(128)
        fld = solve_hitting_field(mask, 1, 3e-4, n_steps=64)
        assert fld.values.min() >= 0.0 and fld.values.max() <= 1.0
        assert fld.clip_low <= 1e-8 and fld.clip_high <= 1e-8

    @pytest.mark.parametrize("shape", ["square", "ell"])
    def test_complement_identity(self, shape):
        # p_t = 1 - (killed evolution of the constant 1), same engine: the
        # exact rectangle propagator on the square, ADI on the ell
        if shape == "square":
            mask, label = unit_square_mask(96), 1
        else:
            grid = nh.GridSpec(nx=512, ny=512)
            mask = nh.label_nodal_domains(
                nh.indicator_field(grid, lambda x, y: (x < 0.5) | (y < 0.5)))
            label = nh.nodal.principal_label(mask, 1)
        t = 2e-3
        p = solve_hitting_field(mask, label, t, n_steps=48)
        w = dirichlet_semigroup_field(ConstantModel(1.0), mask, label, t, n_steps=48)
        sel = mask.cells(label)
        assert np.abs(p.values[sel] - (1 - w.values[sel])).max() < 1e-12

    def test_cylinder_strip_matches_two_walls(self):
        # a full-width strip on an x-periodic grid is a cylinder: its x runs
        # wrap around (cyclic solves) and the hitting field is the 1-D
        # two-wall law in y, independent of x, up to the O(h^2) stair error
        t = 4e-3
        errs = []
        for n in (64, 128):
            grid = nh.GridSpec(nx=n, ny=n, periodic_x=True)
            mask = nh.label_nodal_domains(
                nh.indicator_field(grid, lambda x, y: (y > 0.25) & (y < 0.75)))
            label = nh.nodal.principal_label(mask, 1)
            assert mask.area(label) == pytest.approx(0.5, rel=1e-12)
            fld = solve_hitting_field(mask, label, t, n_steps=64)
            rows = fld.values[n // 4:3 * n // 4]
            assert np.ptp(rows, axis=1).max() <= 1e-12
            y = grid.ys[n // 4:3 * n // 4] - 0.25
            errs.append(np.abs(rows[:, 0] - two_wall_hit(y, t, 0.5)).max())
        assert errs[1] <= 0.3 * errs[0]
        assert errs[1] <= 1e-3

    def test_bad_steps(self):
        mask = unit_square_mask(32)
        with pytest.raises(InvalidParameterError):
            solve_hitting_field(mask, 1, 1e-3, n_steps=4)


class TestHeatContent:
    def test_square_small_time(self):
        mask = unit_square_mask(256)
        got = heat_content(mask, 1, 1e-4, n_steps=64)
        approx = (8 / np.sqrt(np.pi)) * 1e-2       # four walls, no corner term
        assert got == pytest.approx(approx, rel=0.03)
        assert got == pytest.approx(square_content(1e-4, 1.0), rel=0.02)

    def test_square_series_convergence(self):
        # halving h must pull the content toward the separable series value
        t = 1e-4
        exact = square_content(t, 1.0)
        errs = [abs(heat_content(unit_square_mask(n), 1, t, n_steps=64) - exact)
                for n in (256, 512)]
        assert errs[1] < 0.5 * errs[0]
        assert errs[1] < 0.005 * exact

    def test_zero_time(self):
        mask = unit_square_mask(64)
        assert heat_content(mask, 1, 0.0, n_steps=16) == 0.0

    def test_torus_domain_series_value(self, torus11_mask_256):
        # the separable series is the exact value; at t = 1/lambda the
        # half-plane estimate overshoots the cell area and is 25% high
        _, mask = torus11_mask_256
        t = 1 / (8 * np.pi ** 2)
        got = heat_content(mask, 1, t, n_steps=128)
        assert got == pytest.approx(square_content(t, 0.5), rel=0.01)

    def test_mesh_convergence(self):
        t = 2e-4
        vals = [heat_content(unit_square_mask(n), 1, t, n_steps=64)
                for n in (64, 128, 256)]
        change_1 = abs(vals[1] - vals[0])
        change_2 = abs(vals[2] - vals[1])
        assert change_2 <= 2 * change_1


class TestContentCurve:
    def test_square_slope(self):
        mask = unit_square_mask(512)
        curve = heat_content_curve(mask, 1, np.logspace(-5, -4, 8), n_steps=64)
        ref = (2 / np.sqrt(np.pi)) * 4
        assert curve.slope == pytest.approx(ref, rel=0.03)
        assert curve.r_squared >= 0.999
        assert np.all(np.diff(curve.contents) > 0)
        assert curve.contents.max() <= 1.0

    def test_diffusive_scaling(self):
        # dilate space by 2 and time by 4 on a scale-similar lattice: the
        # content quadruples exactly, so the sqrt(t)-slope doubles (length
        # scaling of the sqrt(t) law)
        small = unit_square_mask(128)
        grid = nh.GridSpec(nx=128, ny=128, extent_x=2.0, extent_y=2.0)
        big = nh.label_nodal_domains(
            nh.indicator_field(grid, lambda x, y: np.ones_like(x, dtype=bool)))
        t = 1e-4
        c_small = heat_content(small, 1, t, n_steps=64)
        c_big = heat_content(big, 1, 4 * t, n_steps=64)
        assert c_big == pytest.approx(4 * c_small, rel=1e-12)
        slope_small = c_small / np.sqrt(t)
        slope_big = c_big / np.sqrt(4 * t)
        assert slope_big == pytest.approx(2 * slope_small, rel=1e-12)

    def test_torus_23_domain_slope(self):
        # a (2,3) sign cell is a 1/4 x 1/6 rectangle with perimeter 5/6; its
        # sqrt(t)-law constant is the half-plane constant times the perimeter
        def cell_content(t, terms=200):
            k = 2 * np.arange(terms) + 1

            def survive(side):
                return np.sum((8 * side / (k ** 2 * np.pi ** 2))
                              * np.exp(-(k * np.pi / side) ** 2 * t))

            return 0.25 * (1 / 6) - survive(0.25) * survive(1 / 6)

        times = np.logspace(-6, -5, 6)
        series_slope = (sum(cell_content(t) for t in times)
                        / np.sqrt(times).sum())
        ref = (2 / np.sqrt(np.pi)) * (5 / 6)
        assert series_slope == pytest.approx(ref, rel=0.05)
        # and the solver reproduces the series where the grid resolves sqrt(t)
        m = nh.make_torus_eigenfunction(2, 3)
        f = nh.sample_field(m, nh.grid_for_model(m, 512))
        mask = nh.label_nodal_domains(f)
        got = heat_content(mask, 1, 1e-4, n_steps=64)
        assert got == pytest.approx(cell_content(1e-4), rel=0.01)

    def test_curve_validation(self):
        mask = unit_square_mask(64)
        with pytest.raises(InvalidParameterError):
            heat_content_curve(mask, 1, [1e-4, 2e-4, 3e-4], n_steps=32)
        with pytest.raises(InvalidParameterError):
            heat_content_curve(mask, 1, [1e-4, 2e-4, 3e-4, 5e-4], n_steps=32)
        with pytest.raises(InvalidParameterError):
            heat_content_curve(mask, 1, [0.1, 0.2, 0.5, 1.1], n_steps=32)

    @pytest.mark.parametrize("n_steps", [0, -3, 9])
    def test_rejects_too_few_steps(self, n_steps):
        # with no first leg the content at t0 would read 0 and bend the slope
        grid = nh.GridSpec(nx=64, ny=64)
        mask = nh.label_nodal_domains(
            nh.indicator_field(grid, lambda x, y: (x < 0.5) | (y < 0.5)))
        label = nh.nodal.principal_label(mask, 1)
        with pytest.raises(InvalidParameterError, match="n_steps"):
            heat_content_curve(mask, label, np.logspace(-4, -3, 6), n_steps=n_steps)


def _rect_cases():
    """(name, mask, label) of solid rectangles, each served by the factors."""
    def full(nx, ny, ex, ey):
        grid = nh.GridSpec(nx=nx, ny=ny, extent_x=ex, extent_y=ey)
        return nh.label_nodal_domains(nh.indicator_field(grid, np.ones((ny, nx), dtype=bool)))

    m23 = nh.make_torus_eigenfunction(2, 3)
    torus = nh.label_nodal_domains(nh.sample_field(m23, nh.grid_for_model(m23, 512)))
    # off the edges of an x-periodic grid
    grid = nh.GridSpec(nx=64, ny=64, periodic_x=True)
    inside = np.zeros((64, 64), dtype=bool)
    inside[10:41, 7:50] = True
    off = nh.label_nodal_domains(nh.indicator_field(grid, inside))
    return [("square", unit_square_mask(96), 1),
            ("48x80", full(48, 80, 0.6, 1.0), 1),
            ("torus23_first", torus, 1),
            ("torus23_last", torus, torus.n_labels),
            ("off_edge", off, nh.nodal.principal_label(off, 1))]


class TestRectangleFactors:
    """On a rectangle the heat content is taken from the two 1-D factors of
    the hitting problem, and the field from the exact 2-D DST.  Both must
    agree with 1 minus the exact killed evolution of the constant 1
    (dirichlet_semigroup_field)."""

    TIMES = np.logspace(-4, -3, 6)

    @pytest.fixture(scope="class")
    def cases(self):
        return _rect_cases()

    @staticmethod
    def _two_d(mask, label, t):
        w = dirichlet_semigroup_field(ConstantModel(1.0), mask, label, t, n_steps=10)
        return 1 - w.values[mask.cells(label)]

    def test_contents_match_2d_route(self, cases):
        for name, mask, label in cases:
            assert _get_plan(mask, label).rect is not None, name
            h2 = mask.grid.h ** 2
            ref = np.array([self._two_d(mask, label, t).sum() * h2 for t in self.TIMES])
            curve = heat_content_curve(mask, label, self.TIMES, n_steps=32)
            single = np.array([heat_content(mask, label, t, n_steps=32) for t in self.TIMES])
            assert np.abs(curve.contents / ref - 1).max() <= 1e-12, name
            assert np.abs(single / ref - 1).max() <= 1e-12, name

    def test_field_matches_2d_route(self, cases):
        for name, mask, label in cases:
            sel = mask.cells(label)
            for t in (1e-4, 1e-3, 5e-2):
                fld = solve_hitting_field(mask, label, t, n_steps=32)
                assert np.abs(fld.values[sel] - self._two_d(mask, label, t)).max() <= 1e-12, name
                assert np.all(fld.values[~sel] == 1.0)
                assert fld.clip_low <= 1e-12 and fld.clip_high <= 1e-12, name

    def test_exact_in_time(self, cases):
        for name, mask, label in cases:
            coarse = heat_content_curve(mask, label, self.TIMES, n_steps=10)
            fine = heat_content_curve(mask, label, self.TIMES, n_steps=400)
            assert np.array_equal(coarse.contents, fine.contents), name

    def test_validation_errors_and_order(self, cases):
        # rectangles raise what every other mask raises, in the same order
        _, mask, label = cases[1]
        for solve in (solve_hitting_field, heat_content):
            with pytest.raises(InvalidParameterError, match="^t must be nonnegative$"):
                solve(mask, label, -1e-3, n_steps=4)
            with pytest.raises(InvalidParameterError, match="^n_steps must be at least 10$"):
                solve(mask, 2, 1e-3, n_steps=9)
            with pytest.raises(UnknownLabelError, match="label 2 not in 1..1"):
                solve(mask, 2, 1e-3)
        with pytest.raises(InvalidParameterError, match="^n_steps must be at least 10$"):
            heat_content_curve(mask, 2, [1e-4, 1e-3], n_steps=9)
        with pytest.raises(UnknownLabelError, match="label 2 not in 1..1"):
            heat_content_curve(mask, 2, self.TIMES)
        with pytest.raises(InvalidParameterError,
                           match=r"^largest time 0.1 exceeds inradius\^2 = 0.0863$"):
            heat_content_curve(mask, label, np.logspace(-3, -1, 5))


def _inradius_rects():
    """(mask, label) of every rectangle label of a spread of masks."""
    masks = []
    for n in (2, 3, 4, 7, 16, 33):
        masks.append(unit_square_mask(n))
    for k, l in ((1, 1), (2, 2), (3, 3), (2, 3)):
        m = nh.make_torus_eigenfunction(k, l)
        masks.append(nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 96))))
    boxes = [(0, 20, 0, 24), (3, 9, 5, 17), (0, 2, 4, 11), (7, 20, 0, 13),
             (1, 19, 1, 23), (5, 8, 0, 24), (0, 20, 10, 12), (12, 20, 15, 24)]
    for px, py in ((False, False), (True, False), (False, True), (True, True)):
        grid = nh.GridSpec(nx=24, ny=20, extent_x=1.2, extent_y=1.0,
                           periodic_x=px, periodic_y=py)
        for y0, y1, x0, x1 in boxes:
            inside = np.zeros((20, 24), dtype=bool)
            inside[y0:y1, x0:x1] = True
            masks.append(nh.label_nodal_domains(nh.indicator_field(grid, inside)))
    return [(mask, label) for mask in masks for label in range(1, mask.n_labels + 1)
            if _get_plan(mask, label).rect is not None]


def test_rectangle_inradius_from_extents():
    # a rectangle's inradius comes from its extents, without the EDT, and
    # must be the EDT's value to the last bit
    rects = _inradius_rects()
    assert len(rects) >= 100
    for mask, label in rects:
        edt = float(nh.nodal.distance_to_boundary_map(mask, label).max())
        assert nh.domain_inradius(mask, label).hex() == edt.hex()


def _full_grid_rectangle(inmask, grid):
    """The rectangle rule from a full-grid boolean mask: its bounding box
    from whole-grid row and column scans, then _solid_rectangle."""
    ys = np.flatnonzero(inmask.any(axis=1))
    xs = np.flatnonzero(inmask.any(axis=0))
    if not ys.size:
        return None
    box = (slice(int(ys[0]), int(ys[-1]) + 1), slice(int(xs[0]), int(xs[-1]) + 1))
    return nh.nodal._solid_rectangle(box, int(np.count_nonzero(inmask)), grid)


def test_plan_rectangle_rule_matches_full_grid_detection():
    # _get_plan decides from a domain's box and cell count; a detection
    # from the full-grid cells must give the same answer on every label
    masks = [mask for mask, _ in _block_cases().values()]    # ell, disk, seam, cylinder, ...
    model = nh.make_torus_eigenfunction(2, 3)
    masks.append(nh.label_nodal_domains(nh.sample_field(model, nh.grid_for_model(model, 64))))
    strips = [(slice(None), slice(5, 6)), (slice(7, 8), slice(None)), (slice(3, 4), slice(2, 19)),
              (slice(None), slice(0, 2)), (slice(None), slice(22, 24))]
    for px, py in ((False, False), (True, False), (False, True), (True, True)):
        grid = nh.GridSpec(nx=24, ny=20, extent_x=1.2, extent_y=1.0, periodic_x=px, periodic_y=py)
        for box in strips:
            inside = np.zeros((20, 24), dtype=bool)
            inside[box] = True
            masks.append(nh.label_nodal_domains(nh.indicator_field(grid, inside)))
        # a solid block cut by the x seam: one domain on a periodic grid
        inside = np.zeros((20, 24), dtype=bool)
        inside[4:12, :3] = inside[4:12, 21:] = True
        masks.append(nh.label_nodal_domains(nh.indicator_field(grid, inside)))
    answers = []
    for mask in masks:
        for label in range(1, mask.n_labels + 1):
            rect = _get_plan(mask, label).rect
            assert rect == _full_grid_rectangle(mask.cells(label), mask.grid)
            answers.append(rect is not None)
    assert any(answers) and not all(answers)


def test_mask_freed_by_reference_counting():
    # plans hold the mask's labels array, not the mask that caches them: a
    # mask whose boxes, norms and plans (rectangle and run-vector ones, with
    # and without their inmask) were built must die on del with the cyclic
    # collector off
    model = nh.make_torus_eigenfunction(1, 1)
    grid = nh.grid_for_model(model, 64)
    ell_grid = nh.GridSpec(nx=48, ny=48)
    gc.disable()
    try:
        refs = []
        for mask in (nh.label_nodal_domains(nh.sample_field(model, grid)),
                     nh.label_nodal_domains(nh.indicator_field(
                         ell_grid, lambda x, y: (x < 0.5) | (y < 0.5)))):
            nh.domain_norms(model, mask)
            for label in range(1, mask.n_labels + 1):
                heat_content(mask, label, 1e-3, n_steps=16)
            solve_hitting_field(mask, 1, 1e-3, n_steps=16)
            heat_content_curve(mask, 1, np.logspace(-4, -3, 4), n_steps=16)
            assert mask._boxes and mask._adi_plans and mask._inradii
            refs.append(weakref.ref(mask))
            del mask
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_mask_keeps_only_declared_state():
    # what the modules keep on a mask is DomainMask's declared fields and
    # nothing else, after every consumer of them has run
    model = nh.make_torus_eigenfunction(1, 1)
    cfg = nh.PathEnsembleConfig(n_paths=100, dt=1e-5, seed=0)
    ell_grid = nh.GridSpec(nx=48, ny=48)
    declared = {f.name for f in dataclasses.fields(nh.DomainMask)}
    for mask in (nh.label_nodal_domains(nh.sample_field(model, nh.grid_for_model(model, 64))),
                 nh.label_nodal_domains(nh.indicator_field(
                     ell_grid, lambda x, y: (x < 0.5) | (y < 0.5)))):
        for label in range(1, mask.n_labels + 1):
            heat_content_curve(mask, label, np.logspace(-4, -3, 4), n_steps=16)
            heat_content(mask, label, 1e-3, n_steps=16)
            nh.boundary_length(mask, label)
            nh.domain_inradius(mask, label)
        nh.domain_norms(model, mask)
        solve_hitting_field(mask, 1, 1e-3, n_steps=16)
        dirichlet_semigroup_field(model, mask, 1, 1e-3, n_steps=16)
        nh.estimate_hitting_probability(mask, 1, (0.25, 0.25), 1e-3, cfg)
        assert mask._boxes and mask._adi_plans and mask._inradii
        assert mask._boundary_table is not None and mask._interp_table is not None
        assert set(vars(mask)) <= declared


class DstMode:
    """Product of sines that is an exact DST-II mode of the cell-centered grid."""

    def __init__(self, kx, ky, width, height):
        self.kx, self.ky, self.width, self.height = kx, ky, width, height

    def evaluate(self, x, y):
        return (np.sin(self.kx * np.pi * np.asarray(x) / self.width)
                * np.sin(self.ky * np.pi * np.asarray(y) / self.height))


class TestSemigroup:
    def test_rectangle_exact_in_time(self):
        # on a solid rectangle the solver applies exp(t L_h) exactly: a
        # discrete DST-II mode decays by exp(-lambda_h t) whatever n_steps is
        nx, ny = 48, 80
        grid = nh.GridSpec(nx=nx, ny=ny, extent_x=0.6, extent_y=1.0)
        mask = nh.label_nodal_domains(
            nh.indicator_field(grid, lambda x, y: np.ones_like(x, dtype=bool)))
        kx, ky = 3, 5
        mode = DstMode(kx, ky, 0.6, 1.0)
        h = grid.h
        lam_h = (4 / h ** 2) * (np.sin(np.pi * kx / (2 * nx)) ** 2
                                + np.sin(np.pi * ky / (2 * ny)) ** 2)
        t = 1e-3
        coarse = dirichlet_semigroup_field(mode, mask, 1, t, n_steps=10)
        fine = dirichlet_semigroup_field(mode, mask, 1, t, n_steps=400)
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        target = np.exp(-lam_h * t) * mode.evaluate(xs, ys)
        assert np.abs(coarse.values - target).max() <= 1e-12 * np.abs(target).max()
        assert np.array_equal(coarse.values, fine.values)

    def test_explicit_solution(self, torus11, torus11_mask_256):
        field, mask = torus11_mask_256
        lam = torus11.eigenvalue
        t = 1 / lam
        sg = dirichlet_semigroup_field(torus11, mask, 1, t, n_steps=200)
        sel = mask.cells(1)
        target = np.exp(-1.0) * field.values[sel]
        rel = np.abs(sg.values[sel] - target) / np.abs(target)
        assert rel.max() <= 0.01

    def test_identity_at_zero_time(self, torus11, torus11_mask_128):
        field, mask = torus11_mask_128
        sg = dirichlet_semigroup_field(torus11, mask, 1, 0.0)
        sel = mask.cells(1)
        assert np.array_equal(sg.values[sel], field.values[sel])

    def test_semigroup_property(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        t = 1 / torus11.eigenvalue
        once = dirichlet_semigroup_field(torus11, mask, 1, t, n_steps=128)
        # evolve the half-time result once more through the same operator
        half = dirichlet_semigroup_field(torus11, mask, 1, t / 2, n_steps=64)

        class Resampled:
            eigenvalue = torus11.eigenvalue

            def evaluate(self, x, y):
                from nodalheat.nodal import interpolate_with_gradient
                pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
                f, _, _, _ = interpolate_with_gradient(half.values, mask.grid, pts)
                return f

        twice = dirichlet_semigroup_field(Resampled(), mask, 1, t / 2, n_steps=64)
        sel = mask.cells(1)
        scale = np.abs(once.values[sel]).max()
        assert np.abs(twice.values[sel] - once.values[sel]).max() <= 1e-3 * scale

    def test_nonnegativity(self, torus11, torus11_mask_128):
        _, mask = torus11_mask_128
        sg = dirichlet_semigroup_field(torus11, mask, 1,
                                       0.5 / torus11.eigenvalue, n_steps=64)
        sel = mask.cells(1)
        assert sg.values[sel].min() >= -1e-8 * np.abs(sg.values[sel]).max()

    def test_cross_backend_content(self, torus11, torus11_mask_128):
        # area-weighted MC hitting probabilities over a cell subsample must
        # reproduce the FD heat content of the same subsample
        import warnings
        from nodalheat.stochastic import PathEnsembleConfig, estimate_hitting_probability

        _, mask = torus11_mask_128
        t = 1 / torus11.eigenvalue
        grid = mask.grid
        fld = solve_hitting_field(mask, 1, t, n_steps=128)
        sel = mask.cells(1)
        iys, ixs = np.nonzero(sel)
        pick = (iys % 8 == 3) & (ixs % 8 == 3)     # 8x8 block midpoints
        w = (8 * grid.h) ** 2
        cfg = PathEnsembleConfig(n_paths=2000, dt=t / 100, seed=33)
        total_mc = 0.0
        total_fd = 0.0
        var = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for iy, ix in zip(iys[pick], ixs[pick]):
                x = (grid.x0 + (ix + 0.5) * grid.h, grid.y0 + (iy + 0.5) * grid.h)
                est = estimate_hitting_probability(mask, 1, x, t, cfg)
                total_mc += w * est.mean
                var += (w * est.std_error) ** 2
                total_fd += w * fld.values[iy, ix]
        bias = 0.3 * np.sqrt(cfg.dt / t) * total_fd
        assert abs(total_mc - total_fd) <= 3 * np.sqrt(var) + bias

    def test_integrated_exchange_identity(self, torus11, torus11_mask_128):
        # area sum of p_t * u equals area sum of (u - killed evolution of u)
        field, mask = torus11_mask_128
        t = 1 / torus11.eigenvalue
        sel = mask.cells(1)
        h2 = mask.grid.h ** 2
        p = solve_hitting_field(mask, 1, t, n_steps=128)
        sg = dirichlet_semigroup_field(torus11, mask, 1, t, n_steps=128)
        lhs = float((p.values[sel] * field.values[sel]).sum() * h2)
        rhs = float(((field.values[sel]) - sg.values[sel]).sum() * h2)
        assert lhs == pytest.approx(rhs, rel=2e-3)


def _digest(values):
    return hashlib.sha256(" ".join(map(float.hex, np.ravel(values))).encode()).hexdigest()[:16]


def _assert_outside_kept(mask, label):
    """_evolve changes the domain's cells of random data and leaves every
    other cell bit-identical."""
    plan = _get_plan(mask, label)
    u = np.random.default_rng(7).random(plan.inmask.shape)
    before = u.copy()
    _evolve(plan, u, 1.0, 1e-3, 12)
    _evolve(plan, u, 1.0, 4e-4, 10, startup=False)
    out = ~plan.inmask
    assert out.any() and not np.array_equal(u[~out], before[~out])
    assert np.array_equal(u[out].view(np.uint64), before[out].view(np.uint64))


@pytest.mark.parametrize("periodic_x", [False, True])
def test_rectangle_evolve_writes_only_the_domain(periodic_x):
    grid = nh.GridSpec(nx=40, ny=32, extent_x=1.25, periodic_x=periodic_x)
    inside = np.zeros((32, 40), dtype=bool)
    inside[5:20, 3:30] = True
    mask = nh.label_nodal_domains(nh.indicator_field(grid, inside))
    label = nh.nodal.principal_label(mask, 1)
    assert _get_plan(mask, label).rect is not None
    _assert_outside_kept(mask, label)


def _block_cases():
    n = 96
    h = 1.0 / n
    family = {name: (mask, label)
              for name, mask, label in nh.bounds.default_isoperimetry_family(n)}
    cases = {name: family[name] for name in ("ell", "slit", "comb", "disk")}

    def add(name, grid, predicate):
        mask = nh.label_nodal_domains(nh.indicator_field(grid, predicate))
        cases[name] = (mask, nh.nodal.principal_label(mask, 1))

    # a disk centred on the corner of a torus: its runs cross both seams
    add("seam", nh.GridSpec(nx=n, ny=n, periodic_x=True, periodic_y=True),
        lambda x, y: (np.minimum(x, 1 - x) ** 2 + np.minimum(y, 1 - y) ** 2) < 0.12)
    # a one-cell-wide channel 57 rows tall above a slab
    add("channel", nh.GridSpec(nx=n, ny=n),
        lambda x, y: (y < 0.3) | ((np.abs(x - 0.5 - h / 2) < h / 2) & (y < 0.9)))
    # the cylinder strip: every x run is a full periodic row
    add("cylinder", nh.GridSpec(nx=n, ny=n, periodic_x=True),
        lambda x, y: (y > 0.25) & (y < 0.75))
    # one cell, and a one-cell-wide column (one-cell x runs, one y run); at
    # 8^2, where a one-cell inradius^2 still covers t = 1e-3
    coarse = nh.GridSpec(nx=8, ny=8)
    add("cell", coarse, lambda x, y: (np.abs(x - 0.5625) < 0.0625) & (np.abs(y - 0.5625) < 0.0625))
    add("column", coarse, lambda x, y: np.abs(x - 0.5625) < 0.0625)
    return cases


class TestBlockPlan:
    """Every non-rectangle mask is solved on one run vector per axis, and
    must give the bytes recorded before it, when runs were solved on slices
    of the working array or through fancy-index gathers.  The digests hash
    the float.hex strings of heat_content_curve contents (t in [1e-4,
    1e-3], n_steps 32) and of solve_hitting_field values (t = 1e-3,
    n_steps 24) at 96^2 (the cell and the column at 8^2).  The class keeps
    its name so that the pinned tests keep theirs."""

    PINNED = {
        "ell": ("4bfe3b6df22c311d", "7c9856d902731bf9"),
        "slit": ("561ef19688ec3d0c", "37c8ac5c47f3f163"),
        "comb": ("9927ecf01c9c1520", "b46f78fd942a1afb"),
        "disk": ("31e690371174dcf3", "bd80076a083f9b9c"),
        "seam": ("768b8ccec927c82b", "51554d801363d130"),
        "channel": ("38ac213c99a6b075", "d08122ed8c44e474"),
        "cylinder": ("f12931a9ad6cf4e0", "5c8f01cabd9661c9"),
        "cell": ("90009af0fbda2edd", "1e8b73d156a9a7ab"),
        "column": ("65a3505d46d03fb5", "97b5dea23b23ac3f"),
    }

    @pytest.fixture(scope="class")
    def cases(self):
        return _block_cases()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_outputs_pinned(self, cases, name):
        mask, label = cases[name]
        curve = heat_content_curve(mask, label, np.logspace(-4, -3, 6), n_steps=32)
        field = solve_hitting_field(mask, label, 1e-3, n_steps=24)
        assert (_digest(curve.contents), _digest(field.values)) == self.PINNED[name]

    def test_run_vectors(self, cases):
        plans = {name: _get_plan(*cases[name]) for name in cases}
        for plan in plans.values():
            # each axis orders exactly the in-domain cells, and x_to_y and
            # y_to_x are inverse permutations: no other cell is touched
            cells = np.flatnonzero(plan.inmask)
            order = np.arange(cells.size)
            for runs in plan.runs.values():
                assert np.array_equal(np.sort(runs.index), cells)
            assert np.array_equal(plan.runs["x"].index[plan.x_to_y], plan.runs["y"].index)
            assert np.array_equal(plan.x_to_y[plan.y_to_x], order)
            assert np.array_equal(plan.y_to_x[plan.x_to_y], order)
            # every run steps one cell along one line, modulo the period,
            # and is maximal: the cells just before and after it are outside
            grid = plan.grid
            for axis, lines, periodic in (("x", plan.inmask, grid.periodic_x),
                                          ("y", plan.inmask.T, grid.periodic_y)):
                period = lines.shape[1]
                for run in _runs(plan.runs[axis]):
                    line, cell = np.divmod(run, grid.nx)
                    if axis == "y":
                        line, cell = cell, line
                    assert np.all(line == line[0])
                    assert np.all(np.diff(cell) % period == 1)
                    for c in (cell[0] - 1, cell[-1] + 1):
                        c = c % period if periodic else c
                        assert not (0 <= c < period and lines[line[0], c])
        # the cylinder's x rows are its full periodic lines, solved as rings
        cyl = plans["cylinder"].runs["x"]
        assert cyl.k == np.count_nonzero(plans["cylinder"].inmask.all(axis=1)) > 0
        assert cyl.index.size == cyl.k * cyl.n == cyl.k * plans["cylinder"].grid.nx
        # runs across a periodic seam wrap, on both axes
        seam = plans["seam"]
        for axis, cell in (("x", lambda r: r % 96), ("y", lambda r: r // 96)):
            assert any(np.any(np.diff(cell(r)) < 0) for r in _runs(seam.runs[axis]))
        # the channel's x runs include one-cell runs; the column's x runs are
        # all one cell and its y axis is a single run
        assert plans["channel"].runs["x"].single.size >= 57
        col = plans["column"].runs
        assert col["x"].single.size == 8 and col["x"].first.size == 0
        assert col["y"].first.size == col["y"].last.size == 1 and col["y"].single.size == 0
        cell = plans["cell"].runs
        assert all(r.single.size == r.index.size == 1 for r in cell.values())

    @staticmethod
    def _two_legs(plan, chunks):
        """float.hex of a startup leg then a Peaceman-Rachford leg."""
        u = np.ones(plan.inmask.shape)
        u[plan.inmask] = 0.0
        _evolve(plan, u, 1.0, 1e-3, 12, chunks=chunks)
        _evolve(plan, u, 1.0, 4e-4, 10, startup=False, chunks=chunks)
        return " ".join(map(float.hex, u.ravel()))

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_chunk_count_invariance(self, cases, name):
        # a stage's chunks run on different threads, but couplings between
        # runs are zero, so the bytes must not depend on how many there are
        plan = _get_plan(*cases[name])
        assert max(len(r.split(5)) for r in plan.runs.values()) > 1 or plan.runs["x"].size == 1
        assert len({self._two_legs(plan, chunks) for chunks in (1, 2, 3, 5)}) == 1

    def test_concurrent_evolutions(self, cases):
        # suite jobs evolve on several threads at once through one stage
        # pool; with the interpreter switching threads every microsecond, no
        # chunk may read or write cells of another evolution or stage
        plan = _get_plan(*cases["comb"])
        ref = self._two_legs(plan, 1)
        results = []
        threads = [threading.Thread(target=lambda: results.append(self._two_legs(plan, 3)))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [ref] * len(threads)

    @pytest.mark.parametrize("name", ["ell", "cylinder", "seam"])
    def test_evolve_writes_only_the_domain(self, cases, name):
        # the walled ell, the cylinder's full periodic rows solved as rings,
        # and runs across both seams of a torus
        _assert_outside_kept(*cases[name])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_evolves(self, cases):
        # a forked child inherits the stage pool without its worker thread;
        # it must still run every chunk, not wait forever
        plan = _get_plan(*cases["comb"])
        ref = self._two_legs(plan, 3)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:    # pragma: no cover - the child reports through the pipe
            try:
                os.write(write, hashlib.sha256(self._two_legs(plan, 3).encode()).digest())
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's evolution did not finish in 60 s")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as fh:
            assert fh.read() == hashlib.sha256(ref.encode()).digest()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_chunks_cut_at_run_starts(self, cases, name):
        plan = _get_plan(*cases[name])
        for runs in plan.runs.values():
            kn = runs.k * runs.n
            starts = set(range(0, kn, runs.n))
            starts.update(kn + int(r) for r in np.cumsum([0] + [r.size for r in _runs(runs)]))
            for parts in (1, 2, 3, 5):
                chunks = runs.split(parts)
                bounds = [a for a, _, _ in chunks] + [chunks[-1][1]]
                assert bounds[0] == 0 and bounds[-1] == runs.size
                assert all(b > a for a, b in zip(bounds[:-1], bounds[1:]))     # none empty
                assert set(bounds[:-1]) <= starts
                assert len(chunks) <= parts
                # the chunks' runs, shifted back, are the whole vector's
                assert sum(piece.k for _, _, piece in chunks) == runs.k
                for attr in ("first", "last", "single"):
                    shifted = [getattr(piece, attr) + max(a - kn, 0) for a, _, piece in chunks]
                    assert np.array_equal(np.concatenate(shifted), getattr(runs, attr))


def _runs(runs):
    """The flat cell indices of each run after a run vector's rings."""
    tail = runs.index[runs.k * runs.n:]
    if not tail.size:
        return []
    ends = np.sort(np.concatenate([runs.last, runs.single]))
    return np.split(tail, ends[:-1] + 1)


class TestAdiTimeStepping:
    """ADI against the exact DST on the unit square, with rectangle detection
    forced off: the gap is ADI's time-stepping error, and Crank-Nicolson
    makes it fall fourfold per doubling of the step count.  At 64^2 the
    semigroup field's relative max gap was 1.53e-4, 3.82e-5, 9.56e-6 and
    2.39e-6 at 10-80 steps; the curve's largest relative content gap
    5.93e-4, 1.48e-4, 3.70e-5 and 9.25e-6 at 16-128 steps."""

    @pytest.fixture(scope="class")
    def square(self):
        model = nh.fields.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        grid = nh.nodal.grid_for_model(model, 64)

        def mask():
            return nh.label_nodal_domains(nh.nodal.sample_field(model, grid))

        exact = mask()
        label = nh.nodal.principal_label(exact, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nh.DomainMask, "rect", lambda self, label: None)
            stepped = mask()
            assert _get_plan(stepped, label).rect is None
        assert _get_plan(exact, label).rect is not None
        return model, exact, stepped, label

    @staticmethod
    def _assert_second_order(gaps):
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (gaps, ratios)

    def test_semigroup_field(self, square):
        model, exact, stepped, label = square
        t = 1 / (4 * model.eigenvalue)
        sel = exact.cells(label)
        ref = dirichlet_semigroup_field(model, exact, label, t).values[sel]
        gaps = [np.abs(dirichlet_semigroup_field(model, stepped, label, t, n_steps=n).values[sel]
                       - ref).max() / np.abs(ref).max()
                for n in (10, 20, 40, 80)]
        assert gaps[0] < 1e-3
        self._assert_second_order(gaps)

    def test_content_curve(self, square):
        _, exact, stepped, label = square
        times = np.logspace(-4, -3, 6)
        ref = heat_content_curve(exact, label, times).contents
        gaps = [(np.abs(heat_content_curve(stepped, label, times, n_steps=n).contents - ref)
                 / ref).max()
                for n in (16, 32, 64, 128)]
        assert gaps[0] < 1e-3
        self._assert_second_order(gaps)


# Run in a fresh interpreter: this one has loaded both backends already.
_FOOTPRINT = r"""
import json, sys, threading
import nodalheat as nh
import nodalheat.bounds

def loaded():
    return sorted(m for m in ("scipy.fft", "scipy.linalg") if m in sys.modules)

out = {"import": loaded()}
torus = nh.make_torus_eigenfunction(1, 1)
grid = nh.grid_for_model(torus, 32)
cells = nh.label_nodal_domains(nh.sample_field(torus, grid))
nh.estimate_hitting_probability(cells, nh.nodal.principal_label(cells, 1), (0.25, 0.25),
                                1e-3, nh.PathEnsembleConfig(n_paths=200))
nh.bounds.theorem1_certificate(torus, grid)
out["walk_and_certificate"] = loaded()

def ell_content():
    grid = nh.GridSpec(nx=64, ny=64)
    mask = nh.label_nodal_domains(
        nh.indicator_field(grid, lambda x, y: (x < 0.5) | (y < 0.5)))
    return nh.heat_content(mask, nh.nodal.principal_label(mask, 1), 2e-3, n_steps=24).hex()

start = threading.Barrier(4)
threaded = []
def first_solve():
    start.wait()
    threaded.append(ell_content())
threads = [threading.Thread(target=first_solve) for _ in range(4)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
out["threaded"] = threaded
out["single"] = ell_content()
out["after_solve"] = loaded()
print(json.dumps(out))
"""


def test_backends_load_on_first_solve():
    # LAPACK and the DST are loaded by the first solve that needs them: not
    # by the import, nor by a grid walk or a torus certificate (rectangles,
    # exact in time); and four threads racing to the first solve, and so to
    # binding LAPACK, each get the bytes of a one-thread solve
    env = dict(os.environ, PYTHONPATH=str(Path(nh.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["import"] == []
    assert "scipy.linalg" not in out["walk_and_certificate"]
    assert "scipy.linalg" in out["after_solve"]
    assert out["threaded"] == [out["single"]] * 4
