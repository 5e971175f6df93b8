"""Grid sampling, nodal-set extraction and nodal-domain geometry.

One consistent sub-cell model is used everywhere: fields are sampled at
cell centers and interpolated bilinearly between them.  The zero contour
of that interpolant is the nodal set, strict-sign 4-connected components
of the samples are the nodal domains, and the same interpolant later
decides Brownian-path absorption in the stochastic module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    InvalidParameterError,
    ResolutionWarning,
    UnknownLabelError,
)

__all__ = [
    "GridSpec",
    "ScalarField",
    "NodalSet",
    "DomainMask",
    "grid_for_model",
    "sample_field",
    "indicator_field",
    "extract_nodal_set",
    "label_nodal_domains",
    "domain_inradius",
    "distance_to_boundary_map",
    "boundary_length",
    "principal_label",
    "label_at",
    "interpolate_with_gradient",
]

ZERO_SHIFT_EPS = 1e-12      # relative shift applied to exact grid zeros
SADDLE_DEGENERATE = 0.05    # |corner sum| below this fraction of corner scale
                            # marks a true crossing, resolved as an X junction

WAVELENGTH_SAMPLES = 10     # required samples per wavelength 2 pi / sqrt(lambda)


@dataclass(frozen=True)
class GridSpec:
    """Regular cell-centered grid with square cells.

    Cell (iy, ix) has center (x0 + (ix + 1/2) h, y0 + (iy + 1/2) h).
    """

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    extent_x: float = 1.0
    extent_y: float = 1.0
    periodic_x: bool = False
    periodic_y: bool = False

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidParameterError("grid needs at least 2 cells per axis")
        hx = self.extent_x / self.nx
        hy = self.extent_y / self.ny
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise InvalidParameterError(
                f"cells must be square: hx={hx!r} != hy={hy!r}")

    @property
    def h(self) -> float:
        return self.extent_x / self.nx

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.h

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.h

    def cell_center_mesh(self):
        """(X, Y) arrays of cell centers, shape (ny, nx)."""
        return np.meshgrid(self.xs, self.ys)

    def resolves_wavelength(self, lam: float) -> bool:
        if lam <= 0:
            return True
        return self.h <= (2 * np.pi / np.sqrt(lam)) / WAVELENGTH_SAMPLES


def grid_for_model(model, n: int) -> GridSpec:
    """Square n x n (or aspect-matched) grid covering the model's natural frame."""
    x0, y0, ex, ey = model.frame
    per_x, per_y = model.periodic
    if abs(ex - ey) < 1e-15:
        nx = ny = n
    elif ex > ey:
        nx = n
        ny = max(2, round(n * ey / ex))
    else:
        ny = n
        nx = max(2, round(n * ex / ey))
    # force exactly square cells by trimming the longer extent if needed
    h = ex / nx
    ey = h * ny
    return GridSpec(nx=nx, ny=ny, x0=x0, y0=y0, extent_x=ex, extent_y=ey,
                    periodic_x=per_x, periodic_y=per_y)


@dataclass(frozen=True)
class ScalarField:
    """Cell-center samples of a scalar field on a grid; values has shape (ny, nx)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise InvalidParameterError(
                f"values shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass
class NodalSet:
    """Zero contour as point chains plus total H^1 length.

    Every chain vertex lies on a lattice edge where the bilinear
    interpolant changes sign (or at a resolved crossing junction).
    """

    polylines: list
    total_length: float
    perturbed_zeros: int = 0


@dataclass
class DomainMask:
    """Strict-sign 4-connected components of a sampled field.

    labels[iy, ix] is 0 outside every domain, else a 1-based label assigned
    in raster order of each domain's first cell.  signs[k] is the sign of
    domain k, areas[k] its cell-count area.  field_values keeps the samples
    the mask was derived from so downstream consumers share one geometry.
    """

    grid: GridSpec
    labels: np.ndarray
    signs: np.ndarray
    areas: np.ndarray
    field_values: np.ndarray
    n_labels: int
    zero_cells: int = 0

    def _check(self, label):
        if not (isinstance(label, (int, np.integer)) and 1 <= label <= self.n_labels):
            raise UnknownLabelError(f"label {label!r} not in 1..{self.n_labels}")

    def cells(self, label) -> np.ndarray:
        self._check(label)
        return self.labels == label

    def sign(self, label) -> int:
        self._check(label)
        return int(self.signs[label])

    def area(self, label) -> float:
        self._check(label)
        return float(self.areas[label])


def sample_field(model, grid: GridSpec) -> ScalarField:
    """Sample u at every cell center; warns when the grid under-resolves lambda."""
    lam = getattr(model, "eigenvalue", 0.0)
    if lam and not grid.resolves_wavelength(lam):
        warnings.warn(
            f"grid h={grid.h:.4g} under-resolves wavelength "
            f"{2 * np.pi / np.sqrt(lam):.4g} (need >= {WAVELENGTH_SAMPLES} samples)",
            ResolutionWarning,
        )
    xs, ys = grid.cell_center_mesh()
    return ScalarField(grid=grid, values=np.asarray(model.evaluate(xs, ys), dtype=float))


def indicator_field(grid: GridSpec, inside) -> ScalarField:
    """+1/-1 field from a boolean mask or a predicate inside(x, y).

    Handy for synthetic domains (rectangles, ells, slits, combs): the
    bilinear zero contour then runs along the cell faces between inside
    and outside cells, matching the stair-step solver geometry.
    """
    if callable(inside):
        xs, ys = grid.cell_center_mesh()
        m = np.asarray(inside(xs, ys), dtype=bool)
    else:
        m = np.asarray(inside, dtype=bool)
    if m.shape != (grid.ny, grid.nx):
        raise InvalidParameterError("indicator shape does not match grid")
    return ScalarField(grid=grid, values=np.where(m, 1.0, -1.0))


# ---------------------------------------------------------------------------
# marching squares on the cell-center lattice
# ---------------------------------------------------------------------------

# case -> list of (edge_a, edge_b) with edges 0=B, 1=R, 2=T, 3=L
# corner bit order: 1=(0,0) 2=(1,0) 4=(1,1) 8=(0,1) in (x, y) offsets
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(2, 1)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(3, 2)], 9: [(0, 2)],
    11: [(2, 1)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}
# saddles 5 (corners 00,11 positive) and 10 (corners 10,01 positive) are
# resolved by the sign of the interpolant at the square center; a nearly
# vanishing center value means a genuine crossing and is resolved as an X.

# adjacent corner ids per edge, used for boundary attribution
_EDGE_CORNERS = {0: (0, 1), 1: (1, 2), 2: (3, 2), 3: (0, 3)}
_CORNER_OFFSETS = [(0, 0), (1, 0), (1, 1), (0, 1)]  # (dx, dy)


def _perturb_zeros(values: np.ndarray):
    v = values.copy()
    scale = np.max(np.abs(v))
    zeros = v == 0.0
    count = int(zeros.sum())
    if count and scale > 0:
        v[zeros] = ZERO_SHIFT_EPS * scale
    return v, count


class _Segment:
    __slots__ = ("pa", "pb", "ia", "ib", "cell", "corners")

    def __init__(self, pa, pb, ia, ib, cell, corners):
        self.pa = pa            # (cx, cy) in continuous cell-index space
        self.pb = pb
        self.ia = ia            # integer node ids for stitching
        self.ib = ib
        self.cell = cell        # (iy, ix) of the dual square
        self.corners = corners  # corner ids (0..3) this segment is adjacent to


def _contour_segments(values: np.ndarray, periodic_x: bool, periodic_y: bool):
    """All zero-contour segments of the bilinear interpolant.

    Coordinates are continuous cell indices: cell center (iy, ix) sits at
    (ix, iy).  Segments never wrap; points may exceed nx-1 on periodic axes.
    """
    ny, nx = values.shape
    ncx = nx if periodic_x else nx - 1
    ncy = ny if periodic_y else ny - 1

    ix = np.arange(ncx)
    iy = np.arange(ncy)
    ix1 = (ix + 1) % nx
    iy1 = (iy + 1) % ny

    v00 = values[np.ix_(iy, ix)]
    v10 = values[np.ix_(iy, ix1)]
    v01 = values[np.ix_(iy1, ix)]
    v11 = values[np.ix_(iy1, ix1)]

    b00 = v00 > 0
    b10 = v10 > 0
    b11 = v11 > 0
    b01 = v01 > 0
    case = (b00.astype(np.int8) + 2 * b10.astype(np.int8)
            + 4 * b11.astype(np.int8) + 8 * b01.astype(np.int8))

    # node ids: horizontal edges, then vertical edges, then cell junctions
    n_h = ny * nx
    n_v = ny * nx

    def h_id(jy, jx):
        return jy * nx + jx

    def v_id(jy, jx):
        return n_h + jy * nx + jx

    def c_id(jy, jx):
        return n_h + n_v + jy * nx + jx

    segments = []
    cy_grid, cx_grid = np.meshgrid(iy, ix, indexing="ij")

    def edge_point(edge, jy, jx, a00, a10, a01, a11):
        # returns (node_id, (cx, cy)) for the crossing on the given edge
        if edge == 0:    # bottom: between (jy, jx) and (jy, jx+1)
            f = a00 / (a00 - a10)
            return h_id(jy % ny, jx % nx), (jx + f, float(jy))
        if edge == 2:    # top
            f = a01 / (a01 - a11)
            return h_id((jy + 1) % ny, jx % nx), (jx + f, float(jy + 1))
        if edge == 3:    # left
            f = a00 / (a00 - a01)
            return v_id(jy % ny, jx % nx), (float(jx), jy + f)
        # right
        f = a10 / (a10 - a11)
        return v_id(jy % ny, (jx + 1) % nx), (float(jx + 1), jy + f)

    for c, pairs in _CASES.items():
        sel = case == c
        if not sel.any():
            continue
        for jy, jx in zip(cy_grid[sel], cx_grid[sel]):
            a00 = values[jy % ny, jx % nx]
            a10 = values[jy % ny, (jx + 1) % nx]
            a01 = values[(jy + 1) % ny, jx % nx]
            a11 = values[(jy + 1) % ny, (jx + 1) % nx]
            for ea, eb in pairs:
                na, pa = edge_point(ea, jy, jx, a00, a10, a01, a11)
                nb, pb = edge_point(eb, jy, jx, a00, a10, a01, a11)
                segments.append(_Segment(pa, pb, na, nb, (jy, jx), (0, 1, 2, 3)))

    # saddle squares
    for c in (5, 10):
        sel = case == c
        if not sel.any():
            continue
        for jy, jx in zip(cy_grid[sel], cx_grid[sel]):
            a00 = values[jy % ny, jx % nx]
            a10 = values[jy % ny, (jx + 1) % nx]
            a01 = values[(jy + 1) % ny, jx % nx]
            a11 = values[(jy + 1) % ny, (jx + 1) % nx]
            total = a00 + a10 + a01 + a11
            scale = abs(a00) + abs(a10) + abs(a01) + abs(a11)
            nb_, pb_ = edge_point(0, jy, jx, a00, a10, a01, a11)
            nr_, pr_ = edge_point(1, jy, jx, a00, a10, a01, a11)
            nt_, pt_ = edge_point(2, jy, jx, a00, a10, a01, a11)
            nl_, pl_ = edge_point(3, jy, jx, a00, a10, a01, a11)
            if abs(total) <= SADDLE_DEGENERATE * scale:
                # genuine crossing: join the four arms at the X point
                px = (pb_[0], pl_[1])
                nxid = c_id(jy % ny, jx % nx)
                segments.append(_Segment(pb_, px, nb_, nxid, (jy, jx), (0, 1)))
                segments.append(_Segment(pt_, px, nt_, nxid, (jy, jx), (3, 2)))
                segments.append(_Segment(pl_, px, nl_, nxid, (jy, jx), (0, 3)))
                segments.append(_Segment(pr_, px, nr_, nxid, (jy, jx), (1, 2)))
                continue
            center_positive = total > 0
            diag_00_11 = c == 5
            if diag_00_11 == center_positive:
                # positive diagonal connects: arcs hug the negative corners
                segments.append(_Segment(pb_, pr_, nb_, nr_, (jy, jx), (0, 1, 2, 3)))
                segments.append(_Segment(pl_, pt_, nl_, nt_, (jy, jx), (0, 1, 2, 3)))
            else:
                segments.append(_Segment(pl_, pb_, nl_, nb_, (jy, jx), (0, 1, 2, 3)))
                segments.append(_Segment(pt_, pr_, nt_, nr_, (jy, jx), (0, 1, 2, 3)))

    return segments


def _stitch_polylines(segments, grid: GridSpec):
    """Chain segments into polylines; returns (polylines, extra_boundary_length).

    Open chains on non-periodic grids are extended from their terminal
    vertex along the last segment direction until the physical boundary,
    so straight contours reach the true domain edge.
    """
    adjacency = {}
    for idx, seg in enumerate(segments):
        adjacency.setdefault(seg.ia, []).append((idx, seg.ib))
        adjacency.setdefault(seg.ib, []).append((idx, seg.ia))

    point_of = {}
    for seg in segments:
        point_of[seg.ia] = seg.pa
        point_of[seg.ib] = seg.pb

    visited = [False] * len(segments)
    polylines_idx = []

    def walk(start_node):
        chain = [start_node]
        node = start_node
        while True:
            nxt = None
            for idx, other in adjacency[node]:
                if not visited[idx]:
                    nxt = (idx, other)
                    break
            if nxt is None:
                break
            visited[nxt[0]] = True
            node = nxt[1]
            chain.append(node)
            if len(adjacency[node]) != 2:
                break
        return chain

    # open chains first (endpoints of odd degree), in deterministic order
    endpoints = sorted(n for n, adj in adjacency.items() if len(adj) != 2)
    for n in endpoints:
        while any(not visited[idx] for idx, _ in adjacency[n]):
            polylines_idx.append(walk(n))
    remaining = sorted(
        n for n, adj in adjacency.items() if any(not visited[i] for i, _ in adj))
    for n in remaining:
        while any(not visited[idx] for idx, _ in adjacency[n]):
            chain = walk(n)
            if chain[-1] != n and len(adjacency[chain[-1]]) == 2:
                # closed loop: close it explicitly
                chain.append(n)
            polylines_idx.append(chain)

    h = grid.h
    extra = 0.0
    polylines = []
    for chain in polylines_idx:
        pts = np.array([point_of[n] for n in chain], dtype=float)
        if len(pts) >= 2 and not (grid.periodic_x and grid.periodic_y):
            for end, prev in ((0, 1), (-1, -2)):
                ext = _boundary_extension(pts[end], pts[prev], grid)
                if ext is not None:
                    pts = np.vstack([ext[None], pts]) if end == 0 else np.vstack([pts, ext[None]])
                    extra += float(np.linalg.norm(ext - (pts[1] if end == 0 else pts[-2])))
        phys = np.empty_like(pts)
        phys[:, 0] = grid.x0 + (pts[:, 0] + 0.5) * h
        phys[:, 1] = grid.y0 + (pts[:, 1] + 0.5) * h
        polylines.append(phys)
    return polylines, extra


def _boundary_extension(p_end, p_prev, grid: GridSpec):
    """Extension of a terminal vertex to the physical wall, in index coords."""
    d = p_end - p_prev
    norm = np.linalg.norm(d)
    if norm == 0:
        return None
    d = d / norm
    # physical rectangle in index coordinates: [-0.5, n - 0.5]
    best = None
    for axis, periodic, n in ((0, grid.periodic_x, grid.nx), (1, grid.periodic_y, grid.ny)):
        if periodic or d[axis] == 0:
            continue
        wall = n - 0.5 if d[axis] > 0 else -0.5
        s = (wall - p_end[axis]) / d[axis]
        if 0 < s <= 1.0 and (best is None or s < best):
            best = s
    if best is None:
        return None
    return p_end + best * d


def extract_nodal_set(field: ScalarField) -> NodalSet:
    """Zero contour of the bilinear interpolant, as polylines with total length.

    Exact grid zeros are shifted by +1e-12 * max|values| before contouring.
    Saddle squares follow the sign of the center value; a center value
    close to zero is treated as a genuine crossing (X junction).
    """
    values, n_pert = _perturb_zeros(field.values)
    if np.max(np.abs(values)) == 0.0:
        return NodalSet(polylines=[], total_length=0.0, perturbed_zeros=n_pert)
    segments = _contour_segments(values, field.grid.periodic_x, field.grid.periodic_y)
    if not segments:
        return NodalSet(polylines=[], total_length=0.0, perturbed_zeros=n_pert)
    h = field.grid.h
    total = 0.0
    for seg in segments:
        total += np.hypot(seg.pb[0] - seg.pa[0], seg.pb[1] - seg.pa[1])
    polylines, extra = _stitch_polylines(segments, field.grid)
    total = total * h + extra * h
    return NodalSet(polylines=polylines, total_length=float(total), perturbed_zeros=n_pert)


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------

def label_nodal_domains(field: ScalarField) -> DomainMask:
    """4-connected strict-sign components; labels in raster order of first cell.

    Exact-zero cells join no domain.  On periodic axes components merge
    across the seam.
    """
    grid = field.grid
    v = field.values
    pos = v > 0
    neg = v < 0
    zero_cells = int((~pos & ~neg).sum())

    lab_pos, n_pos = ndimage.label(pos)
    lab_neg, n_neg = ndimage.label(neg)
    combined = lab_pos.astype(np.int64)
    combined[neg] = lab_neg[neg] + n_pos
    n_raw = n_pos + n_neg

    parent = np.arange(n_raw + 1)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    def merge_seam(a, b):
        both = (a > 0) & (b > 0)
        for i, j in zip(a[both], b[both]):
            union(i, j)

    if grid.periodic_x and grid.nx > 1:
        same_sign = (pos[:, 0] & pos[:, -1]) | (neg[:, 0] & neg[:, -1])
        merge_seam(np.where(same_sign, combined[:, 0], 0),
                   np.where(same_sign, combined[:, -1], 0))
    if grid.periodic_y and grid.ny > 1:
        same_sign = (pos[0, :] & pos[-1, :]) | (neg[0, :] & neg[-1, :])
        merge_seam(np.where(same_sign, combined[0, :], 0),
                   np.where(same_sign, combined[-1, :], 0))

    roots = np.array([find(i) for i in range(n_raw + 1)])
    merged = roots[combined].ravel()

    # canonical relabel: order by first raster occurrence
    found, first = np.unique(merged, return_index=True)
    in_domain = found > 0
    order = np.argsort(first[in_domain])
    first_idx = first[in_domain][order]
    n_labels = int(first_idx.size)
    relabel = np.zeros(n_raw + 1, dtype=np.int32)
    relabel[found[in_domain][order]] = np.arange(1, n_labels + 1, dtype=np.int32)
    labels = relabel[merged].reshape(v.shape)

    signs = np.zeros(n_labels + 1, dtype=np.int8)
    signs[1:] = np.where(v.ravel()[first_idx] > 0, 1, -1)
    areas = np.bincount(labels.ravel(), minlength=n_labels + 1) * grid.h ** 2
    areas[0] = 0.0

    return DomainMask(grid=grid, labels=labels, signs=signs, areas=areas,
                      field_values=v.copy(), n_labels=n_labels, zero_cells=zero_cells)


def distance_to_boundary_map(mask: DomainMask, label: int) -> np.ndarray:
    """Per-cell distance to the domain complement (exact Euclidean EDT).

    Distances are measured between cell centers and corrected by half a
    cell so a boundary cell reports h/2; zero outside the domain.
    """
    sel = mask.cells(label)
    grid = mask.grid
    inside = sel
    if grid.periodic_y:
        inside = np.tile(inside, (3, 1))
    else:
        inside = np.pad(inside, ((1, 1), (0, 0)), constant_values=False)
    if grid.periodic_x:
        inside = np.tile(inside, (1, 3))
    else:
        inside = np.pad(inside, ((0, 0), (1, 1)), constant_values=False)
    dist = ndimage.distance_transform_edt(inside)
    y_off = grid.ny if grid.periodic_y else 1
    x_off = grid.nx if grid.periodic_x else 1
    core = dist[y_off:y_off + grid.ny, x_off:x_off + grid.nx]
    out = np.where(sel, np.maximum(core - 0.5, 0.5) * grid.h, 0.0)
    return out


def domain_inradius(mask: DomainMask, label: int) -> float:
    """Largest inscribed-disk radius of a domain, accurate to +- h."""
    dist = distance_to_boundary_map(mask, label)
    return float(dist.max())


def principal_label(mask: DomainMask, sign: int = 1) -> int:
    """First label with the given sign; handy for indicator-built domains."""
    for k in range(1, mask.n_labels + 1):
        if mask.signs[k] == sign:
            return k
    raise UnknownLabelError(f"no domain of sign {sign}")


def label_at(mask: DomainMask, x: float, y: float) -> int:
    """Label of the cell containing (x, y); 0 if outside every domain."""
    grid = mask.grid
    ix = int(np.floor((x - grid.x0) / grid.h))
    iy = int(np.floor((y - grid.y0) / grid.h))
    if grid.periodic_x:
        ix %= grid.nx
    if grid.periodic_y:
        iy %= grid.ny
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny):
        return 0
    return int(mask.labels[iy, ix])


def boundary_length(mask: DomainMask, label: int, field: ScalarField | None = None) -> float:
    """H^1 length of a domain boundary, accurate to O(h).

    Counts the zero-contour segments adjacent to the domain plus, on
    non-periodic axes, the outer grid walls backing its cells (absorption
    happens there for Dirichlet models).
    """
    sel = mask.cells(label)
    grid = mask.grid
    values = field.values if field is not None else mask.field_values
    if values.shape != sel.shape:
        raise InvalidParameterError("field does not match the mask grid")
    v, _ = _perturb_zeros(values)
    total = 0.0
    if np.max(np.abs(v)) > 0:
        segments = _contour_segments(v, grid.periodic_x, grid.periodic_y)
        ny, nx = sel.shape
        for seg in segments:
            jy, jx = seg.cell
            for c in seg.corners:
                dx, dy = _CORNER_OFFSETS[c]
                if sel[(jy + dy) % ny, (jx + dx) % nx]:
                    total += np.hypot(seg.pb[0] - seg.pa[0], seg.pb[1] - seg.pa[1])
                    break
    total *= grid.h
    # outer walls
    h = grid.h
    if not grid.periodic_y:
        total += sel[0, :].sum() * h + sel[-1, :].sum() * h
    if not grid.periodic_x:
        total += sel[:, 0].sum() * h + sel[:, -1].sum() * h
    return float(total)


# ---------------------------------------------------------------------------
# bilinear interpolation shared with the stochastic module
# ---------------------------------------------------------------------------

def interpolate_with_gradient(values: np.ndarray, grid: GridSpec, pts: np.ndarray):
    """Bilinear interpolant and its gradient at arbitrary points.

    Periodic axes wrap; non-periodic axes use odd-reflection ghosts so the
    interpolant changes sign exactly at the physical wall.  Points beyond
    the physical rectangle are flagged outside (inside=False) and get the
    reflected value.

    Returns (f, gx, gy, inside).
    """
    pts = np.asarray(pts, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    h = grid.h
    ny, nx = values.shape

    fx = (x - grid.x0) / h - 0.5
    fy = (y - grid.y0) / h - 0.5
    inside = np.ones(x.shape, dtype=bool)

    def axis_indices(f, n, periodic):
        i0 = np.floor(f).astype(np.int64)
        t = f - i0
        if periodic:
            return i0 % n, (i0 + 1) % n, t, np.ones(f.shape), np.ones(f.shape), None
        ok = (f >= -0.5 - 1e-12) & (f <= n - 0.5 + 1e-12)
        i0c = np.clip(i0, -1, n - 1)
        i1c = i0c + 1
        s0 = np.where(i0c < 0, -1.0, 1.0)
        s1 = np.where(i1c > n - 1, -1.0, 1.0)
        return np.clip(i0c, 0, n - 1), np.clip(i1c, 0, n - 1), t, s0, s1, ok

    ix0, ix1, tx, sx0, sx1, okx = axis_indices(fx, nx, grid.periodic_x)
    iy0, iy1, ty, sy0, sy1, oky = axis_indices(fy, ny, grid.periodic_y)
    if okx is not None:
        inside &= okx
    if oky is not None:
        inside &= oky

    v00 = values[iy0, ix0] * sx0 * sy0
    v10 = values[iy0, ix1] * sx1 * sy0
    v01 = values[iy1, ix0] * sx0 * sy1
    v11 = values[iy1, ix1] * sx1 * sy1

    f = (v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty)
         + v01 * (1 - tx) * ty + v11 * tx * ty)
    gx = ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / h
    gy = ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / h
    return f, gx, gy, inside
