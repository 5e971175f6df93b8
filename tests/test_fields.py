import numpy as np
import pytest

import nodalheat as nh
from nodalheat.errors import EmptyDomainError, InvalidParameterError


def five_point_residual(model, n):
    """max |Lap_h u + lambda u| over interior cells of the model frame."""
    grid = nh.grid_for_model(model, n)
    f = nh.sample_field(model, grid)
    v = f.values
    h = grid.h
    lap = (v[1:-1, 2:] + v[1:-1, :-2] + v[2:, 1:-1] + v[:-2, 1:-1]
           - 4 * v[1:-1, 1:-1]) / h ** 2
    res = np.abs(lap + model.eigenvalue * v[1:-1, 1:-1])
    return float(res.max()), float(np.abs(v).max())


class TestConstructors:
    def test_torus_eigenvalue(self):
        m = nh.make_torus_eigenfunction(1, 1)
        assert m.eigenvalue == pytest.approx(8 * np.pi ** 2, rel=1e-14)
        m = nh.make_torus_eigenfunction(2, 3)
        assert m.eigenvalue == pytest.approx(52 * np.pi ** 2, rel=1e-14)

    def test_torus_peak_value(self):
        m = nh.make_torus_eigenfunction(1, 1)
        assert float(m.evaluate(0.25, 0.25)) == pytest.approx(1.0, abs=1e-15)

    def test_torus_periodicity(self):
        m = nh.make_torus_eigenfunction(2, 3)
        x = np.linspace(0, 1, 7)
        assert np.allclose(m.evaluate(x, 0.3), m.evaluate(x + 1, 0.3), atol=1e-12)
        assert np.allclose(m.evaluate(0.2, x), m.evaluate(0.2, x + 1), atol=1e-12)

    def test_rectangle(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        assert m.eigenvalue == pytest.approx(2 * np.pi ** 2, rel=1e-14)
        assert float(m.evaluate(0.5, 0.5)) == pytest.approx(1.0)
        m = nh.make_rectangle_eigenfunction(2, 1, 1.0, 1.0)
        assert float(m.evaluate(0.5, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_disk_eigenvalue(self):
        from scipy.special import jn_zeros
        m = nh.make_disk_eigenfunction(0, 1, 1.0)
        assert m.eigenvalue == pytest.approx(jn_zeros(0, 1)[0] ** 2, rel=1e-13)
        m2 = nh.make_disk_eigenfunction(1, 2, 2.0)
        assert m2.eigenvalue == pytest.approx((jn_zeros(1, 2)[1] / 2) ** 2, rel=1e-13)

    def test_cone_models(self):
        c1 = nh.make_cone_model(1)
        assert float(c1.evaluate(0.3, 0.9)) == pytest.approx(0.3)
        c2 = nh.make_cone_model(2)
        assert float(c2.evaluate(0.4, 0.1)) == pytest.approx(0.4 ** 2 - 0.1 ** 2)
        c8 = nh.make_cone_model(8)
        r = 0.83
        assert float(c8.evaluate(r, 0.0)) == pytest.approx(r ** 8, rel=1e-12)
        assert c8.mode == (8,)
        assert c8.eigenvalue == 0.0

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_invalid_modes(self, bad):
        with pytest.raises(InvalidParameterError):
            nh.make_torus_eigenfunction(bad, 1)
        with pytest.raises(InvalidParameterError):
            nh.make_cone_model(bad)

    @pytest.mark.parametrize("build", [
        lambda: nh.make_rectangle_eigenfunction(1, 1, float("nan"), 1.0),
        lambda: nh.make_rectangle_eigenfunction(1, 1, 1.0, float("nan")),
        lambda: nh.make_rectangle_eigenfunction(1, 1, float("inf"), 1.0),
        lambda: nh.make_disk_eigenfunction(0, 1, float("nan")),
        lambda: nh.make_disk_eigenfunction(0, 1, float("inf")),
    ])
    def test_non_finite_size_rejected(self, build):
        # a NaN size made grid_for_model raise ValueError; an infinite one
        # built a model with no frame
        with pytest.raises(InvalidParameterError, match="finite"):
            build()

    def test_invalid_rectangle_sides(self):
        with pytest.raises(InvalidParameterError):
            nh.make_rectangle_eigenfunction(1, 1, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            nh.make_rectangle_eigenfunction(1, 1, 1.0, -2.0)


class TestEigenEquation:
    @pytest.mark.parametrize("model", [
        nh.make_torus_eigenfunction(1, 1),
        nh.make_torus_eigenfunction(2, 3),
        nh.make_rectangle_eigenfunction(2, 1, 1.0, 1.0),
        nh.make_disk_eigenfunction(1, 1, 1.0),
    ], ids=["torus11", "torus23", "rect21", "disk11"])
    def test_residual_and_order(self, model):
        res_n, sup = five_point_residual(model, 128)
        lam = model.eigenvalue
        h = nh.grid_for_model(model, 128).h
        assert res_n <= 0.5 * h ** 2 * lam ** 2 * sup
        res_2n, _ = five_point_residual(model, 256)
        assert 3.0 <= res_n / res_2n <= 5.0     # second-order stencil

    @pytest.mark.parametrize("model", [
        nh.make_torus_eigenfunction(2, 3),
        nh.make_rectangle_eigenfunction(1, 2, 1.5, 1.0),
        nh.make_disk_eigenfunction(2, 1, 1.0),
        nh.make_cone_model(3),
    ], ids=["torus", "rect", "disk", "cone"])
    def test_gradient_matches_central_difference(self, model):
        grid = nh.grid_for_model(model, 256)
        h = grid.h
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        # keep two cells away from the frame edge
        sl = (slice(2, -2), slice(2, -2))
        x, y = xs[sl], ys[sl]
        gx, gy = model.gradient(x, y)
        fdx = (model.evaluate(x + h, y) - model.evaluate(x - h, y)) / (2 * h)
        fdy = (model.evaluate(x, y + h) - model.evaluate(x, y - h)) / (2 * h)
        scale = np.abs(gx).max() + np.abs(gy).max()
        assert np.abs(gx - fdx).max() / scale < 5e-3
        assert np.abs(gy - fdy).max() / scale < 5e-3
        # second-order: quartering h cuts the error by ~16
        grid4 = nh.grid_for_model(model, 1024)
        h4 = grid4.h
        x4, y4 = (a[sl] for a in np.meshgrid(grid4.xs, grid4.ys))
        gx4, _ = model.gradient(x4, y4)
        fdx4 = (model.evaluate(x4 + h4, y4) - model.evaluate(x4 - h4, y4)) / (2 * h4)
        assert np.abs(gx4 - fdx4).max() <= np.abs(gx - fdx).max() / 8


class TestNorms:
    def test_quarter_domain_norms(self):
        m = nh.make_torus_eigenfunction(1, 1)
        grid = nh.grid_for_model(m, 256)
        field = nh.sample_field(m, grid)
        mask = nh.label_nodal_domains(field)
        norms = nh.domain_norms(m, mask)[0]
        assert norms.l1 == pytest.approx(1 / np.pi ** 2, rel=2e-4)
        assert norms.linf == pytest.approx(1.0, rel=2e-3)
        assert norms.grad_linf == pytest.approx(2 * np.pi, rel=2e-3)

    def test_rectangle_full_domain(self):
        m = nh.make_rectangle_eigenfunction(1, 1, 1.0, 1.0)
        grid = nh.grid_for_model(m, 256)
        field = nh.sample_field(m, grid)
        mask = nh.label_nodal_domains(field)
        assert mask.n_labels == 1
        (norms,) = nh.domain_norms(m, mask)
        assert norms.l1 == pytest.approx(4 / np.pi ** 2, rel=2e-4)
        assert norms.grad_linf == pytest.approx(np.pi, rel=2e-3)

    def test_single_zero_cell(self):
        # cone u = x sampled on an odd grid puts a cell center exactly on x = 0
        cone = nh.make_cone_model(1)
        grid = nh.GridSpec(nx=33, ny=33, x0=-1.0, y0=-1.0, extent_x=2.0, extent_y=2.0)
        xs, _ = np.meshgrid(grid.xs, grid.ys)
        assert np.any(xs == 0.0)
        pick = np.zeros((33, 33), dtype=bool)
        pick[16, 16] = True
        assert xs[16, 16] == 0.0
        mask = nh.label_nodal_domains(nh.indicator_field(grid, pick))
        lab = nh.nodal.principal_label(mask, 1)
        norms = nh.domain_norms(cone, mask)[lab - 1]
        assert norms.l1 == 0.0

    def test_l1_bounded_by_linf_area(self):
        m = nh.make_torus_eigenfunction(2, 3)
        grid = nh.grid_for_model(m, 128)
        field = nh.sample_field(m, grid)
        mask = nh.label_nodal_domains(field)
        for lab, norms in enumerate(nh.domain_norms(m, mask), start=1):
            assert norms.l1 <= norms.linf * mask.area(lab) * (1 + 1e-12)

    def test_mode_swap_symmetry(self):
        a = nh.make_torus_eigenfunction(2, 3)
        b = nh.make_torus_eigenfunction(3, 2)
        grid = nh.grid_for_model(a, 128)
        mask_a = nh.label_nodal_domains(nh.sample_field(a, grid))
        mask_b = nh.label_nodal_domains(nh.sample_field(b, grid))
        # the (3, 2) domains are the (2, 3) ones transposed: the same norms
        # over all domains, each up to rounding
        na = nh.domain_norms(a, mask_a)
        nb = nh.domain_norms(b, mask_b)
        assert len(na) == len(nb) == 24
        for attr in ("l1", "linf", "grad_linf"):
            va = sorted(getattr(n, attr) for n in na)
            vb = sorted(getattr(n, attr) for n in nb)
            assert va == pytest.approx(vb, rel=1e-12), attr

    def test_domain_norms_match_full_grid_selection(self):
        # domain_norms evaluates the model on the grid's axes and reduces
        # each domain over its box only; every norm must be, to the last
        # bit, what the model on a full mesh selected by labels == k gives
        for model, mask in _norm_masks():
            grid = mask.grid
            xs, ys = np.meshgrid(grid.xs, grid.ys)
            every = nh.domain_norms(model, mask)
            for lab in range(1, mask.n_labels + 1):
                sel = mask.cells(lab)
                u = model.evaluate(xs[sel], ys[sel])
                gx, gy = model.gradient(xs[sel], ys[sel])
                ref = (float(np.sum(np.abs(u)) * grid.h ** 2), float(np.max(np.abs(u))),
                       float(np.max(np.hypot(gx, gy))))
                norms = every[lab - 1]
                got = (norms.l1, norms.linf, norms.grad_linf)
                assert list(map(float.hex, got)) == list(map(float.hex, ref)), (model, lab)

    def test_label_without_cells_errors(self):
        # a mask that declares one more label than it has cells for
        m = nh.make_torus_eigenfunction(1, 1)
        grid = nh.grid_for_model(m, 32)
        mask = nh.label_nodal_domains(nh.sample_field(m, grid))
        k = mask.n_labels + 1
        padded = nh.DomainMask(grid=grid, labels=mask.labels,
                               signs=np.append(mask.signs, 1),
                               areas=np.append(mask.areas, 0.0),
                               field_values=mask.field_values, n_labels=k)
        with pytest.raises(EmptyDomainError):
            nh.domain_norms(m, padded)


AXES_MODELS = {
    "torus": nh.make_torus_eigenfunction(2, 3),
    "rectangle": nh.make_rectangle_eigenfunction(3, 2, 1.0, 0.7),
    "disk-m0": nh.make_disk_eigenfunction(0, 2),
    "disk-m1": nh.make_disk_eigenfunction(1, 2),
    "disk-m2": nh.make_disk_eigenfunction(2, 1),
    "cone": nh.make_cone_model(3),
}


class TestAxesEvaluation:
    """Models are evaluated on the grid's axes, not on meshes; every result
    equals the mesh evaluation bit for bit, on odd and even grids."""

    @pytest.fixture(params=[(name, n) for name in AXES_MODELS for n in (47, 48)],
                    ids=lambda p: f"{p[0]}-{p[1]}")
    def case(self, request):
        name, n = request.param
        model = AXES_MODELS[name]
        grid = nh.grid_for_model(model, n)
        field = nh.sample_field(model, grid)
        return model, grid, field, nh.label_nodal_domains(field)

    def test_sample_field(self, case):
        model, grid, field, _ = case
        assert field.values.tobytes() == model.evaluate(*np.meshgrid(grid.xs, grid.ys)).tobytes()

    def test_compute_norms(self, case):
        model, grid, _, mask = case
        xs, ys = np.meshgrid(grid.xs, grid.ys)

        def ref(sel):
            u = model.evaluate(xs[sel], ys[sel])
            gx, gy = model.gradient(xs[sel], ys[sel])
            return [float(np.sum(np.abs(u)) * grid.h ** 2).hex(), float(np.max(np.abs(u))).hex(),
                    float(np.max(np.hypot(gx, gy))).hex()]

        def hexes(norms):
            return [norms.l1.hex(), norms.linf.hex(), norms.grad_linf.hex()]

        # domain_norms evaluates the model once and gives every label's bundle
        every = nh.domain_norms(model, mask)
        assert len(every) == mask.n_labels
        for lab in range(1, mask.n_labels + 1):
            assert hexes(every[lab - 1]) == ref(mask.cells(lab)), lab

    def test_dirichlet_semigroup_field(self, case):
        # at t = 0 the field is the model on the domain and zero elsewhere
        model, grid, _, mask = case
        mesh = model.evaluate(*np.meshgrid(grid.xs, grid.ys))
        for lab in range(1, mask.n_labels + 1):
            sel = mask.cells(lab)
            got = nh.dirichlet_semigroup_field(model, mask, lab, 0.0).values
            assert got.tobytes() == np.where(sel, mesh, 0.0).tobytes(), lab

    def test_axes_broadcast_to_the_mesh(self):
        grid = nh.GridSpec(nx=5, ny=3, x0=-1.0, extent_x=5 / 3)
        box = (slice(1, 3), slice(2, 5))
        for b in (None, box):
            x, y = grid.cell_center_axes(b)
            xs, ys = (np.meshgrid(grid.xs, grid.ys) if b is None
                      else np.meshgrid(grid.xs[b[1]], grid.ys[b[0]]))
            assert x.ndim == y.ndim == 2 and x.shape[0] == 1 and y.shape[1] == 1
            assert np.array_equal(np.broadcast_to(x, xs.shape), xs)
            assert np.array_equal(np.broadcast_to(y, ys.shape), ys)

    def test_bessel_zero_computed_once(self, monkeypatch):
        from nodalheat import fields
        calls = []
        inner = fields.special.jn_zeros
        monkeypatch.setattr(fields.special, "jn_zeros",
                            lambda m, k: calls.append((m, k)) or inner(m, k))
        fields._bessel_zero.cache_clear()
        model = nh.make_disk_eigenfunction(3, 2)
        grid = nh.grid_for_model(model, 16)
        x, y = grid.cell_center_axes()
        for _ in range(3):
            model.evaluate(x, y)
            model.gradient(x, y)
        assert calls == [(3, 2)]
        assert model.eigenvalue == float(inner(3, 2)[-1] ** 2)


def _norm_masks():
    """(model, mask) pairs whose domains sit anywhere in the grid: torus
    cells, Dirichlet and disk modes (the disk's labels include the corner
    pieces outside it), a cone, and an indicator band across a periodic
    seam, whose box is the whole width."""
    def sampled(model, n):
        return model, nh.label_nodal_domains(nh.sample_field(model, nh.grid_for_model(model, n)))

    cases = [sampled(nh.make_torus_eigenfunction(m, n), 256) for m, n in ((1, 1), (2, 3), (4, 4))]
    cases.append(sampled(nh.make_rectangle_eigenfunction(3, 2, 1.0, 0.7), 160))
    disk = sampled(nh.make_disk_eigenfunction(2, 1), 96)
    assert disk[1].n_labels == 7     # three pieces of the disk, four corners outside it
    cases.append(disk)
    cases.append(sampled(nh.make_cone_model(3), 97))
    grid = nh.GridSpec(nx=128, ny=128, periodic_x=True, periodic_y=True)
    band = nh.label_nodal_domains(nh.indicator_field(grid, lambda x, y: (x < 0.2) | (x > 0.85)))
    assert band.n_labels == 2 and band.box(1)[1] == slice(0, 128)
    cases.append((nh.make_torus_eigenfunction(1, 2), band))
    return cases
