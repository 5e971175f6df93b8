import hashlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nodalheat as nh
from nodalheat.bounds import theorem1_certificate
from nodalheat.errors import InvalidParameterError, ResolutionWarning, UnknownLabelError
from conftest import ConstantModel


def linear_field(grid, a=1.0, b=0.0, c=-0.3):
    xs, ys = np.meshgrid(grid.xs, grid.ys)
    return nh.ScalarField(grid=grid, values=a * xs + b * ys + c)


PERIODICITIES = [(False, False), (True, False), (True, True), (False, True)]


def _assert_flood_fill_labels(v, periodic):
    """Label v and check labels, signs and areas against a plain flood fill
    that numbers the domains in raster order of their first cell."""
    ny, nx = v.shape
    grid = nh.GridSpec(nx=nx, ny=ny, extent_x=nx / ny, periodic_x=periodic[0],
                       periodic_y=periodic[1])
    mask = nh.label_nodal_domains(nh.ScalarField(grid=grid, values=v))

    ref = np.zeros((ny, nx), dtype=np.int32)
    signs, counts = [0], [0]
    for iy in range(ny):
        for ix in range(nx):
            if v[iy, ix] == 0 or ref[iy, ix]:
                continue
            sgn = 1 if v[iy, ix] > 0 else -1
            signs.append(sgn)
            counts.append(0)
            ref[iy, ix] = len(signs) - 1
            stack = [(iy, ix)]
            while stack:
                cy, cx = stack.pop()
                counts[-1] += 1
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    qy, qx = cy + dy, cx + dx
                    if periodic[0]:
                        qx %= nx
                    if periodic[1]:
                        qy %= ny
                    if (0 <= qy < ny and 0 <= qx < nx and not ref[qy, qx]
                            and v[qy, qx] * sgn > 0):
                        ref[qy, qx] = len(signs) - 1
                        stack.append((qy, qx))
    assert np.array_equal(mask.labels, ref)
    assert mask.labels.dtype == np.int32
    assert mask.signs.tolist() == signs
    assert mask.areas.tolist() == [c * grid.h ** 2 for c in counts]
    return mask


class TestSampling:
    def test_torus_values(self, torus11):
        grid = nh.grid_for_model(torus11, 64)
        f = nh.sample_field(torus11, grid)
        assert f.values.min() >= -1.0 and f.values.max() <= 1.0
        assert f.values.max() >= 0.99

    def test_constant_zero_model(self):
        grid = nh.GridSpec(nx=16, ny=16)
        f = nh.sample_field(ConstantModel(0.0), grid)
        assert np.all(f.values == 0.0)
        ns = nh.extract_nodal_set(f)
        assert ns.total_length == 0.0 and ns.polylines == []

    def test_rectangle_grid_point_on_peak(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        grid = nh.GridSpec(nx=33, ny=33)
        f = nh.sample_field(m, grid)
        assert f.values.max() == pytest.approx(1.0, abs=1e-15)

    def test_under_resolved_warning(self):
        m = nh.make_torus_eigenfunction(8, 8)
        with pytest.warns(ResolutionWarning):
            nh.sample_field(m, nh.GridSpec(nx=32, ny=32, periodic_x=True,
                                           periodic_y=True))

    def test_grid_requires_square_cells(self):
        with pytest.raises(InvalidParameterError):
            nh.GridSpec(nx=10, ny=10, extent_x=1.0, extent_y=2.0)

    def test_indicator_predicates_on_axes_match_mesh(self, monkeypatch):
        # a predicate gets the grid's axes, and its +-1 field equals, bit for
        # bit, the predicate on a full mesh: every predicate of the
        # isoperimetry family and of the benchmark's fd workload
        seen = []
        inner = nh.indicator_field

        def record(grid, inside):
            seen.append((grid, inside))
            return inner(grid, inside)

        monkeypatch.setattr(nh.bounds, "indicator_field", record)
        monkeypatch.setattr(nh, "indicator_field", record)
        nh.bounds.default_isoperimetry_family(192)
        path = Path(__file__).resolve().parents[1] / "nhbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("nhbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)     # dataclasses look it up
        spec.loader.exec_module(workloads)
        workloads._fd_setup(0)
        assert len(seen) == 7
        for grid, predicate in seen:
            mesh = np.where(predicate(*np.meshgrid(grid.xs, grid.ys)), 1.0, -1.0)
            assert inner(grid, predicate).values.tobytes() == mesh.tobytes()

    @pytest.mark.parametrize("predicate", [
        lambda x, y: (x < 0.5)[:, :-1],
        lambda x, y: np.ones((3, 1), dtype=bool),
        lambda x, y: np.stack([x < 0.5, x < 0.25]),
    ], ids=["short-row", "short-column", "three-axes"])
    def test_indicator_predicate_must_broadcast(self, predicate):
        with pytest.raises(InvalidParameterError, match="shape"):
            nh.indicator_field(nh.GridSpec(nx=16, ny=12, extent_y=0.75), predicate)


class TestSharedSamples:
    """A field's samples are one read-only array, which the mask shares."""

    def test_mask_shares_read_only_samples(self, torus11):
        field = nh.sample_field(torus11, nh.grid_for_model(torus11, 32))
        mask = nh.label_nodal_domains(field)
        assert mask.field_values is field.values
        for values in (field.values, mask.field_values):
            with pytest.raises(ValueError):
                values[0, 0] = 1.0

    def test_writeable_input_is_copied(self):
        grid = nh.GridSpec(nx=8, ny=8)
        v = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
        field = nh.ScalarField(grid=grid, values=v)
        before = field.values.copy()
        v[:] = 7.0
        assert np.array_equal(field.values, before)
        assert v.flags.writeable

    def test_built_fields_are_kept_as_given(self, torus11):
        grid = nh.grid_for_model(torus11, 32)
        mask = nh.label_nodal_domains(nh.sample_field(torus11, grid))
        disk = {name: m for name, m, _ in nh.bounds.default_isoperimetry_family(32)}["disk"]
        fields = [nh.sample_field(torus11, grid),
                  nh.indicator_field(grid, lambda x, y: x < 0.5),
                  nh.dirichlet_semigroup_field(torus11, mask, 1, 1e-3, n_steps=10),
                  nh.ScalarField(grid=disk.grid, values=disk.field_values)]
        for field in fields:
            assert not field.values.flags.writeable
            assert nh.ScalarField(grid=field.grid, values=field.values).values is field.values

    def test_perturb_zeros_copies_only_to_shift(self, torus11):
        field = nh.sample_field(torus11, nh.grid_for_model(torus11, 32))
        v, count = nh.nodal._perturb_zeros(field.values)
        assert v is field.values and count == 0
        zero = nh.ScalarField(grid=field.grid, values=np.where(field.values > 0.5, 0.0, 1.0))
        v, count = nh.nodal._perturb_zeros(zero.values)
        assert count > 0 and v is not zero.values and not np.any(v == 0.0)

    def test_label_retains_no_sample_copy(self):
        # what labeling keeps past its return is the mask's int32 labels
        # and per-label arrays, not a second copy of the samples
        model = nh.make_torus_eigenfunction(4, 4)
        field = nh.sample_field(model, nh.grid_for_model(model, 512))
        tracemalloc.start()
        try:
            mask = nh.label_nodal_domains(field)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.field_values is field.values
        assert retained <= 0.6 * field.values.nbytes, retained / field.values.nbytes


class TestExtraction:
    def test_linear_field_exact(self):
        ns = nh.extract_nodal_set(linear_field(nh.GridSpec(nx=64, ny=64)))
        assert len(ns.polylines) == 1
        assert ns.total_length == pytest.approx(1.0, abs=1e-12)
        xs = ns.polylines[0][:, 0]
        assert np.allclose(xs, 0.3, atol=1e-12)
        ys = ns.polylines[0][:, 1]
        assert min(ys) == pytest.approx(0.0, abs=1e-12)
        assert max(ys) == pytest.approx(1.0, abs=1e-12)

    def test_torus_11_length(self, torus11):
        f = nh.sample_field(torus11, nh.grid_for_model(torus11, 256))
        ns = nh.extract_nodal_set(f)
        assert ns.total_length == pytest.approx(4.0, abs=0.01)

    def test_torus_23_length(self):
        m = nh.make_torus_eigenfunction(2, 3)
        f = nh.sample_field(m, nh.grid_for_model(m, 512))
        ns = nh.extract_nodal_set(f)
        assert ns.total_length == pytest.approx(10.0, abs=0.02)

    def test_interior_line_of_dirichlet_mode(self):
        m = nh.make_rectangle_eigenfunction(2, 1, 1.0, 1.0)
        f = nh.sample_field(m, nh.grid_for_model(m, 128))
        ns = nh.extract_nodal_set(f)
        assert ns.total_length == pytest.approx(1.0, abs=0.01)

    def test_negation_and_scaling_invariance(self, torus11):
        grid = nh.grid_for_model(torus11, 96)
        f = nh.sample_field(torus11, grid)
        base = nh.extract_nodal_set(f).total_length
        neg = nh.extract_nodal_set(nh.ScalarField(grid=grid, values=-f.values))
        scl = nh.extract_nodal_set(nh.ScalarField(grid=grid, values=7.3 * f.values))
        assert neg.total_length == pytest.approx(base, rel=1e-12)
        assert scl.total_length == pytest.approx(base, rel=1e-12)

    def test_refinement_convergence(self):
        m = nh.make_torus_eigenfunction(2, 3)
        exact = 10.0
        devs = []
        for n in (128, 256, 512):
            f = nh.sample_field(m, nh.grid_for_model(m, n))
            devs.append(abs(nh.extract_nodal_set(f).total_length - exact))
        assert abs(devs[2] - devs[1]) <= 2 * devs[1] + 1e-12
        assert devs[2] <= devs[0] + 1e-12

    def test_exact_zero_perturbation_recorded(self):
        cone = nh.make_cone_model(1)
        grid = nh.GridSpec(nx=33, ny=33, x0=-1.0, y0=-1.0, extent_x=2.0,
                           extent_y=2.0)
        f = nh.sample_field(cone, grid)
        assert np.any(f.values == 0.0)
        ns = nh.extract_nodal_set(f)
        assert ns.perturbed_zeros > 0
        assert ns.total_length == pytest.approx(2.0, abs=0.01)


class TestLabeling:
    def test_torus_11_four_quarters(self, torus11_mask_128):
        _, mask = torus11_mask_128
        assert mask.n_labels == 4
        h = mask.grid.h
        for lab in range(1, 5):
            assert mask.area(lab) == pytest.approx(0.25, abs=h)
        assert sorted(mask.signs[1:]) == [-1, -1, 1, 1]

    def test_rectangle_single_domain(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 64)))
        assert mask.n_labels == 1
        assert mask.sign(1) == 1

    def test_array_holders_compare_by_identity(self, torus11):
        # an array field has no single truth value, so == answers by identity
        field = nh.sample_field(torus11, nh.grid_for_model(torus11, 16))
        a, b = nh.label_nodal_domains(field), nh.label_nodal_domains(field)
        assert a == a and not a != a
        assert a != b and not a == b
        copy = nh.nodal.ScalarField(field.grid, field.values.copy())
        assert field == field and field != copy
        survival = nh.solve_hitting_field(a, 1, 1e-3, n_steps=10)
        assert survival == survival
        assert survival != nh.solve_hitting_field(a, 1, 1e-3, n_steps=10)
        # a report keeps its arrays in curves
        rep = theorem1_certificate(torus11, field.grid, n_steps=10)
        assert rep == rep and rep != theorem1_certificate(torus11, field.grid, n_steps=10)

    def test_torus_23_domain_count(self):
        m = nh.make_torus_eigenfunction(2, 3)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 256)))
        assert mask.n_labels == 24

    def test_area_partition_exact(self, torus11_mask_128):
        _, mask = torus11_mask_128
        grid = mask.grid
        total = sum(mask.area(k) for k in range(1, mask.n_labels + 1))
        total += mask.zero_cells * grid.h ** 2
        assert total == pytest.approx(grid.extent_x * grid.extent_y, rel=1e-12)

    def test_periodic_wrap_merges(self):
        # one band of positive cells crossing the seam must be one domain
        grid = nh.GridSpec(nx=32, ny=32, periodic_x=True, periodic_y=True)
        f = nh.indicator_field(grid, lambda x, y: (x < 0.2) | (x > 0.8))
        mask = nh.label_nodal_domains(f)
        pos_labels = {int(l) for l in
                      mask.labels[f.values > 0]}
        assert len(pos_labels) == 1

    @pytest.mark.parametrize("periodic", PERIODICITIES)
    def test_matches_flood_fill_reference(self, periodic):
        # labels, signs and areas equal a plain flood fill that numbers the
        # domains in raster order of their first cell, seams included
        ny, nx = 24, 36
        rng = np.random.default_rng(11)
        v = rng.standard_normal((ny, nx))
        v[rng.random((ny, nx)) < 0.05] = 0.0
        _assert_flood_fill_labels(v, periodic)

    @pytest.mark.parametrize("periodic", PERIODICITIES)
    def test_many_domains_match_flood_fill_reference(self, periodic):
        # several hundred domains: first-cell ordering across many roots,
        # and seam merges on every periodic axis
        ny, nx = 60, 80
        rng = np.random.default_rng(2026)
        v = rng.standard_normal((ny, nx))
        v[rng.random((ny, nx)) < 0.02] = 0.0
        mask = _assert_flood_fill_labels(v, periodic)
        assert mask.n_labels >= 300
        open_labels = nh.label_nodal_domains(nh.ScalarField(
            grid=nh.GridSpec(nx=nx, ny=ny, extent_x=nx / ny), values=v)).labels
        for axis, wraps in ((1, periodic[0]), (0, periodic[1])):
            if wraps:
                # some same-sign pair across this seam is one domain that
                # the open grid splits in two
                same_sign = np.take(v, 0, axis) * np.take(v, -1, axis) > 0
                joined = np.take(mask.labels, 0, axis) == np.take(mask.labels, -1, axis)
                split = np.take(open_labels, 0, axis) != np.take(open_labels, -1, axis)
                assert np.any(same_sign & joined & split)

    def test_label_peak_memory(self):
        # whole-field int32 passes: the peak allocation stays near 2x the
        # field's float64 bytes, the mask's labels included
        model = nh.make_torus_eigenfunction(4, 4)
        field = nh.sample_field(model, nh.grid_for_model(model, 512))
        tracemalloc.start()
        try:
            nh.label_nodal_domains(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * field.values.nbytes, peak / field.values.nbytes

    def test_unknown_label(self, torus11_mask_128):
        _, mask = torus11_mask_128
        with pytest.raises(UnknownLabelError):
            mask.area(9)


class TestGeometry:
    def test_torus_inradius(self, torus11_mask_128):
        _, mask = torus11_mask_128
        h = mask.grid.h
        assert nh.domain_inradius(mask, 1) == pytest.approx(0.25, abs=h)

    def test_single_cell_inradius(self):
        grid = nh.GridSpec(nx=16, ny=16)
        pick = np.zeros((16, 16), dtype=bool)
        pick[7, 8] = True
        mask = nh.label_nodal_domains(nh.indicator_field(grid, pick))
        lab = nh.nodal.principal_label(mask, 1)
        assert nh.domain_inradius(mask, lab) == pytest.approx(grid.h / 2, rel=1e-12)

    def test_rectangle_inradius(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        mask = nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 128)))
        assert nh.domain_inradius(mask, 1) == pytest.approx(0.5, abs=mask.grid.h)

    def test_inradius_edt_once_per_non_rectangle(self, monkeypatch):
        # a rectangle's inradius takes no EDT; any other domain's takes one,
        # however often it is asked for
        calls = []
        edt = nh.nodal.distance_to_boundary_map
        monkeypatch.setattr(nh.nodal, "distance_to_boundary_map",
                            lambda mask, label: calls.append((id(mask), label))
                            or edt(mask, label))
        m = nh.make_torus_eigenfunction(1, 1)
        grid = nh.GridSpec(nx=48, ny=48)
        # four sign squares; an ell (label 1) and the square it leaves; the
        # outside (label 1) and the inside of a disk
        torus, ell, disk = masks = [
            nh.label_nodal_domains(nh.sample_field(m, nh.grid_for_model(m, 64))),
            nh.label_nodal_domains(nh.indicator_field(grid, lambda x, y: (x < 0.5) | (y < 0.5))),
            nh.label_nodal_domains(nh.indicator_field(
                grid, lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1))]
        assert [mask.n_labels for mask in masks] == [4, 2, 2]
        labels = [(mask, k) for mask in masks for k in range(1, mask.n_labels + 1)]
        first = [nh.domain_inradius(mask, k) for mask, k in labels]
        again = [nh.domain_inradius(mask, k) for mask, k in labels]
        assert first == again
        assert calls == [(id(ell), 1), (id(disk), 1), (id(disk), 2)]

    def test_boundary_lengths(self, torus11_mask_256):
        _, mask = torus11_mask_256
        assert nh.boundary_length(mask, 1) == pytest.approx(2.0, abs=0.02)

    def test_rectangle_boundary(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        f = nh.sample_field(m, nh.grid_for_model(m, 128))
        mask = nh.label_nodal_domains(f)
        assert nh.boundary_length(mask, 1) == pytest.approx(4.0, abs=0.02)

    def test_torus_23_cell_boundary(self):
        m = nh.make_torus_eigenfunction(2, 3)
        f = nh.sample_field(m, nh.grid_for_model(m, 256))
        mask = nh.label_nodal_domains(f)
        assert nh.boundary_length(mask, 1) == pytest.approx(5 / 6, abs=0.02)

    def test_boundary_sum_double_counts_nodal_set(self, torus11_mask_256):
        field, mask = torus11_mask_256
        total = sum(nh.boundary_length(mask, k)
                    for k in range(1, mask.n_labels + 1))
        z = nh.extract_nodal_set(field).total_length
        assert total == pytest.approx(2 * z, abs=8 * mask.grid.h)

    def test_label_helpers(self, torus11_mask_128):
        _, mask = torus11_mask_128
        lab = nh.nodal.label_at(mask, 0.25, 0.25)
        assert lab >= 1 and mask.sign(lab) == 1
        assert nh.nodal.label_at(mask, 0.75, 0.25) != lab


def _random_field(seed, periodic_x, periodic_y):
    # 60 x 50 square cells with about 2% exact zeros, so the zero shift is exercised
    rng = np.random.default_rng(seed)
    grid = nh.GridSpec(nx=60, ny=50, extent_x=1.2, extent_y=1.0,
                       periodic_x=periodic_x, periodic_y=periodic_y)
    v = rng.standard_normal((50, 60))
    v[rng.random((50, 60)) < 0.02] = 0.0
    return nh.ScalarField(grid=grid, values=v)


def _pinned_geometry(field):
    """(n_labels, per-label lengths as float.hex, nodal length hex, polyline hash)."""
    mask = nh.label_nodal_domains(field)
    lengths = [nh.boundary_length(mask, k).hex()
               for k in range(1, mask.n_labels + 1)]
    ns = nh.extract_nodal_set(field)
    poly = hashlib.sha256()
    for p in ns.polylines:
        poly.update(np.ascontiguousarray(p, dtype="<f8").tobytes() + b"|")
    return mask.n_labels, lengths, ns.total_length.hex(), poly.hexdigest()[:16]


def _digest(hexes):
    return hashlib.sha256(",".join(hexes).encode()).hexdigest()[:16]


class TestContourPinning:
    """Contour lengths and polylines pinned bit for bit.

    Every boundary length is a sum of segment lengths in contour order, so
    these values change if the segments are produced in another order or
    their endpoints are computed with different arithmetic.
    """

    @pytest.mark.parametrize("seed, periodic, n_labels, lengths, total, poly", [
        (20260808, (False, False), 491, "477b3a1043ceb09b",
         "0x1.72cd2ff925fe3p+5", "8a2bb00f4265c435"),
        (20260809, (True, False), 450, "966c89a866d15e8f",
         "0x1.707f61e75daa6p+5", "6fb9b1a33706da6c"),
        (20260810, (False, True), 421, "29470ae5f8579f25",
         "0x1.73b8ca218e49ap+5", "8b4575b64f94786d"),
        (20260811, (True, True), 404, "402b8444199fcc8c",
         "0x1.6f4669cd50b3ap+5", "63984e9f2127beaf"),
    ])
    def test_random_fields(self, seed, periodic, n_labels, lengths, total, poly):
        got = _pinned_geometry(_random_field(seed, *periodic))
        assert (got[0], _digest(got[1]), got[2], got[3]) == (n_labels, lengths, total, poly)

    def test_torus_23(self):
        m = nh.make_torus_eigenfunction(2, 3)
        n, lengths, total, poly = _pinned_geometry(
            nh.sample_field(m, nh.grid_for_model(m, 256)))
        assert n == 24
        assert set(lengths) == {"0x1.aaaa7ec987500p-1", "0x1.aaaac09b3c580p-1"}
        assert _digest(lengths) == "dd3134bc587f83fc"
        assert total == "0x1.4000000000000p+3"
        assert poly == "dfe2e4add031e154"

    # one dual square on a 2 x 2 grid; values[iy, ix], so corner 10 is values[0, 1]
    @pytest.mark.parametrize("values, length, total, n_chains, poly", [
        # X junction: the center value vanishes, four arms meet at the center
        ([[1, -1], [-1, 1]], "0x1.8000000000000p+0", "0x1.0000000000000p+2", 4,
         "ef40a3a48751d68e"),
        ([[-1, 1], [1, -1]], "0x1.8000000000000p+0", "0x1.0000000000000p+2", 4,
         "ef40a3a48751d68e"),
        # corners 00 and 11 joined through the center: arcs cut off 10 and 01
        ([[1, -0.5], [-0.5, 1]], "0x1.78adf777fbe9ap+0", "0x1.e2b7dddfefa66p+0", 2,
         "7750bbd2f190c7fa"),
        ([[-1, 0.5], [0.5, -1]], "0x1.78adf777fbe9ap+0", "0x1.e2b7dddfefa66p+0", 2,
         "7750bbd2f190c7fa"),
        # corners 10 and 01 joined through the center: arcs cut off 00 and 11
        ([[0.5, -1], [-1, 0.5]], "0x1.78adf777fbe9ap+0", "0x1.e2b7dddfefa66p+0", 2,
         "3f2b42b554fcb773"),
        ([[-0.5, 1], [1, -0.5]], "0x1.78adf777fbe9ap+0", "0x1.e2b7dddfefa66p+0", 2,
         "3f2b42b554fcb773"),
    ])
    def test_saddle_outcomes(self, values, length, total, n_chains, poly):
        field = nh.ScalarField(grid=nh.GridSpec(nx=2, ny=2),
                               values=np.array(values, dtype=float))
        got = _pinned_geometry(field)
        assert got == (4, [length] * 4, total, poly)
        assert len(nh.extract_nodal_set(field).polylines) == n_chains


class TestNodalLength:
    """_nodal_length of a mask is extract_nodal_set's total_length of its
    samples bit for bit, and stitches no polylines on a fully periodic grid."""

    @pytest.mark.parametrize("seed, periodic", [
        (20260808, (False, False)), (20260809, (True, False)),
        (20260810, (False, True)), (20260811, (True, True))])
    def test_matches_extracted_total(self, seed, periodic):
        field = _random_field(seed, *periodic)
        mask = nh.label_nodal_domains(field)
        assert nh.nodal._nodal_length(mask).hex() == nh.extract_nodal_set(field).total_length.hex()

    def test_torus_stitches_nothing(self, monkeypatch):
        model = nh.make_torus_eigenfunction(2, 3)
        field = nh.sample_field(model, nh.grid_for_model(model, 64))
        zero = nh.ScalarField(grid=field.grid, values=np.zeros_like(field.values))
        expected = [nh.extract_nodal_set(f).total_length for f in (field, zero)]

        def refuse(*args):
            raise AssertionError("polylines stitched")

        monkeypatch.setattr(nh.nodal, "_stitch_polylines", refuse)
        assert [nh.nodal._nodal_length(nh.label_nodal_domains(f))
                for f in (field, zero)] == expected
        rep = theorem1_certificate(model, field.grid, n_steps=24)
        assert rep.constants["nodal_length"] == expected[0]

    @pytest.mark.parametrize("model", [nh.make_torus_eigenfunction(m, m) for m in (1, 2, 3, 4)]
                             + [nh.make_rectangle_eigenfunction(3, 2, 1.0, 0.7)],
                             ids=["torus1", "torus2", "torus3", "torus4", "rect"])
    def test_certificate_length_is_extracted_total(self, model):
        # theorem1_certificate takes the length from the contour that builds
        # the boundary table on a torus, and stitches it on a walled grid
        grid = nh.grid_for_model(model, 64)
        rep = theorem1_certificate(model, grid, n_steps=24)
        total = nh.extract_nodal_set(nh.sample_field(model, grid)).total_length
        assert rep.constants["nodal_length"].hex() == total.hex()


def _whole_grid_edt(mask, label):
    """distance_to_boundary_map as a transform of the whole grid, tiled 3 x 3
    on periodic axes and padded by an outside cell on walled ones."""
    sel = mask.cells(label)
    grid = mask.grid
    inside = (np.tile(sel, (3, 1)) if grid.periodic_y
              else np.pad(sel, ((1, 1), (0, 0)), constant_values=False))
    inside = (np.tile(inside, (1, 3)) if grid.periodic_x
              else np.pad(inside, ((0, 0), (1, 1)), constant_values=False))
    dist = nh.nodal.ndimage.distance_transform_edt(inside)
    y_off = grid.ny if grid.periodic_y else 1
    x_off = grid.nx if grid.periodic_x else 1
    core = dist[y_off:y_off + grid.ny, x_off:x_off + grid.nx]
    return np.where(sel, np.maximum(core - 0.5, 0.5) * grid.h, 0.0)


def _edt_masks():
    """Masks whose domains touch walls, cross a periodic seam on one axis or
    both, or span a periodic axis whole."""
    def sampled(model, n):
        return nh.label_nodal_domains(nh.sample_field(model, nh.grid_for_model(model, n)))

    torus = nh.GridSpec(nx=64, ny=64, periodic_x=True, periodic_y=True)
    strip = nh.GridSpec(nx=40, ny=56, extent_x=40 / 56, periodic_y=True)
    return {
        "torus": sampled(nh.make_torus_eigenfunction(2, 3), 64),
        "rectangle": sampled(nh.make_rectangle_eigenfunction(3, 2, 1.0, 0.7), 61),
        "disk": sampled(nh.make_disk_eigenfunction(2, 1), 64),
        # a band across the x seam whose box is the whole width
        "band": nh.label_nodal_domains(nh.indicator_field(
            torus, lambda x, y: (x < 0.2) | (x > 0.85))),
        # a blob across both seams at the corner, and the rest of the torus
        "corner": nh.label_nodal_domains(nh.indicator_field(
            torus, lambda x, y: np.minimum(x, 1 - x) ** 2 + np.minimum(y, 1 - y) ** 2 < 0.1)),
        # pieces across the y seam between walls on x
        "strip": nh.label_nodal_domains(nh.indicator_field(
            strip, lambda x, y: np.sin(9 * x) * np.cos(2 * np.pi * y) > 0.2)),
    }


class TestBoxEdt:
    """distance_to_boundary_map transforms the domain's box, and equals the
    whole-grid transform bit for bit."""

    @pytest.mark.parametrize("name", sorted(_edt_masks()))
    def test_matches_whole_grid(self, name):
        mask = _edt_masks()[name]
        assert mask.n_labels >= 2
        for k in range(1, mask.n_labels + 1):
            got = nh.nodal.distance_to_boundary_map(mask, k)
            assert got.tobytes() == _whole_grid_edt(mask, k).tobytes(), (name, k)

    def test_seam_domains_present(self):
        # the cases above hold domains whose boxes span a periodic axis
        masks = _edt_masks()
        for name, axis in (("band", 1), ("corner", 0), ("corner", 1), ("strip", 0)):
            mask = masks[name]
            n = (mask.grid.ny, mask.grid.nx)[axis]
            assert any(mask.box(k)[axis] == slice(0, n)
                       for k in range(1, mask.n_labels + 1)), (name, axis)


@pytest.fixture
def contour_calls(monkeypatch):
    """Counts the calls of the marching-squares pass, by whoever makes them."""
    calls = []
    inner = nh.nodal._contour_segments

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(nh.nodal, "_contour_segments", counted)
    return calls


class TestBoundaryTable:
    """Every label's boundary length comes from one contour, kept on the mask."""

    def _torus(self, m, n=64):
        model = nh.make_torus_eigenfunction(m, m)
        field = nh.sample_field(model, nh.grid_for_model(model, n))
        return model, field, nh.label_nodal_domains(field)

    def test_theorem1_cost_independent_of_label_count(self, contour_calls):
        per_field = []
        for m in (1, 4):
            model, _, _ = self._torus(m)
            contour_calls.clear()
            rep = theorem1_certificate(model, nh.grid_for_model(model, 64), n_steps=24)
            assert rep.constants["n_domains"] == 4 * m * m
            per_field.append(len(contour_calls))
        # one contour gives the nodal length and every boundary length
        assert per_field == [1, 1]

    def test_repeated_calls_contour_once(self, contour_calls):
        _, _, mask = self._torus(2)
        first = [nh.boundary_length(mask, k) for k in range(1, mask.n_labels + 1)]
        again = [nh.boundary_length(mask, k) for k in range(1, mask.n_labels + 1)]
        assert len(contour_calls) == 1
        assert first == again

    @pytest.mark.parametrize("periodic", [(False, False), (True, False), (False, True),
                                          (True, True)])
    def test_matches_one_contour_per_label(self, periodic):
        # reference: select the segments bordering one label, then sum them in order
        field = _random_field(31, *periodic)
        mask = nh.label_nodal_domains(field)
        grid = mask.grid
        v, _ = nh.nodal._perturb_zeros(field.values)
        pa, pb, _, _, cell, adjacent = nh.nodal._contour_segments(
            v, grid.periodic_x, grid.periodic_y)
        for k in range(1, mask.n_labels + 1):
            sel = nh.nodal._wrap_pad(mask.cells(k), grid.periodic_x, grid.periodic_y)
            corner_in = sel[cell[:, :1] + nh.nodal._CORNER_DY, cell[:, 1:] + nh.nodal._CORNER_DX]
            ours = (corner_in & adjacent).any(axis=1)
            ref = nh.nodal._chained_length(pa[ours], pb[ours]) * grid.h
            walls = mask.cells(k)
            if not grid.periodic_y:
                ref += walls[0, :].sum() * grid.h + walls[-1, :].sum() * grid.h
            if not grid.periodic_x:
                ref += walls[:, 0].sum() * grid.h + walls[:, -1].sum() * grid.h
            assert nh.boundary_length(mask, k).hex() == float(ref).hex(), k

    def test_errors(self):
        _, _, mask = self._torus(1)
        for label in (0, mask.n_labels + 1):
            with pytest.raises(UnknownLabelError):
                nh.boundary_length(mask, label)


def _reference_interpolant(values, grid, pts):
    """Corner reads with explicit index clips and reflection signs per point."""
    h = grid.h
    out = []
    for f, n, periodic in (((pts[:, 0] - grid.x0) / h - 0.5, grid.nx, grid.periodic_x),
                           ((pts[:, 1] - grid.y0) / h - 0.5, grid.ny, grid.periodic_y)):
        i0 = np.floor(f).astype(np.int64)
        if periodic:
            out.append((i0 % n, (i0 + 1) % n, f - i0, 1.0, 1.0, True))
            continue
        i0c = np.clip(i0, -1, n - 1)
        out.append((np.clip(i0c, 0, n - 1), np.clip(i0c + 1, 0, n - 1), f - i0,
                    np.where(i0c < 0, -1.0, 1.0), np.where(i0c + 1 > n - 1, -1.0, 1.0),
                    (f >= -0.5 - 1e-12) & (f <= n - 0.5 + 1e-12)))
    (ix0, ix1, tx, sx0, sx1, okx), (iy0, iy1, ty, sy0, sy1, oky) = out
    v00 = values[iy0, ix0] * sx0 * sy0
    v10 = values[iy0, ix1] * sx1 * sy0
    v01 = values[iy1, ix0] * sx0 * sy1
    v11 = values[iy1, ix1] * sx1 * sy1
    f = (v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty)
         + v01 * (1 - tx) * ty + v11 * tx * ty)
    gx = ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / h
    gy = ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / h
    return f, gx, gy, np.broadcast_to(okx & oky, f.shape)


class TestInterpolation:
    @pytest.mark.parametrize("periodic_x,periodic_y",
                             [(False, False), (True, False), (False, True), (True, True)])
    def test_ghost_table_matches_plain_array(self, periodic_x, periodic_y):
        grid = nh.GridSpec(nx=37, ny=23, x0=-0.3, y0=0.2, extent_x=1.85, extent_y=1.15,
                           periodic_x=periodic_x, periodic_y=periodic_y)
        rng = np.random.default_rng(17)
        values = rng.standard_normal((23, 37))
        values[rng.random(values.shape) < 0.05] = 0.0
        # points well outside the frame, plus points on cell centers and cell edges
        pts = np.column_stack([rng.uniform(-1.0, 2.5, 4000), rng.uniform(-0.8, 2.2, 4000)])
        pts[:200, 0] = grid.x0 + rng.integers(-4, 78, 200) * grid.h / 2
        pts[:200, 1] = grid.y0 + rng.integers(-4, 50, 200) * grid.h / 2
        plain = nh.nodal.interpolate_with_gradient(values, grid, pts)
        table = nh.nodal.interpolate_with_gradient(nh.nodal._ghost_table(values, grid),
                                                   grid, pts)
        reference = _reference_interpolant(values, grid, pts)
        for a, b, c in zip(plain, table, reference):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        assert not plain[3].all() or (periodic_x and periodic_y)
        # inside the frame and half a cell below it no periodic index takes the
        # mod: ghost index 0 must read what the mod would have read
        frame = np.column_stack([
            rng.uniform(grid.x0 - grid.h / 2, grid.x0 + grid.extent_x, 4000),
            rng.uniform(grid.y0 - grid.h / 2, grid.y0 + grid.extent_y, 4000)])
        frame[:300] = grid.x0 - grid.h / 2 + rng.random((300, 2)) * grid.h
        for a, c in zip(nh.nodal.interpolate_with_gradient(values, grid, frame),
                        _reference_interpolant(values, grid, frame)):
            assert np.array_equal(a, c)

    def test_point_shapes(self):
        grid = nh.GridSpec(nx=12, ny=8, extent_y=8 / 12, periodic_x=True)
        values = np.random.default_rng(3).standard_normal((8, 12))
        pts = np.random.default_rng(4).uniform(-0.5, 1.5, (3, 5, 2))
        flat = nh.nodal.interpolate_with_gradient(values, grid, pts.reshape(-1, 2))
        for a, b in zip(nh.nodal.interpolate_with_gradient(values, grid, pts), flat):
            assert b.shape == (15,) and np.array_equal(a, b.reshape(3, 5))
        for a, b in zip(nh.nodal.interpolate_with_gradient(values, grid, pts[0, 0]), flat):
            assert np.shape(a) == () and a == b[0]

    def test_rejects_values_off_the_grid(self):
        grid = nh.GridSpec(nx=8, ny=6, extent_y=0.75)
        with pytest.raises(InvalidParameterError, match="ghost table"):
            nh.nodal.interpolate_with_gradient(np.zeros((6, 9)), grid, np.zeros((1, 2)))
