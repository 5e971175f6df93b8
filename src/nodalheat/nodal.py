"""Grid sampling, nodal-set extraction and nodal-domain geometry.

One consistent sub-cell model is used everywhere: fields are sampled at
cell centers and interpolated bilinearly between them.  The zero contour
of that interpolant is the nodal set, strict-sign 4-connected components
of the samples are the nodal domains, and the same interpolant later
decides Brownian-path absorption in the stochastic module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

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

    Cell (iy, ix) has center (x0 + (ix + 1/2) h, y0 + (iy + 1/2) h); the
    grid gives its centers as axes (cell_center_axes), never as a mesh.
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

    def cell_center(self, iy, ix):
        """(x, y) of the center of cell (iy, ix); the indices may be arrays,
        of any shapes, and fractional, as a contour's index coordinates are."""
        return self.x0 + (ix + 0.5) * self.h, self.y0 + (iy + 0.5) * self.h

    @property
    def xs(self) -> np.ndarray:
        return self.cell_center(0, np.arange(self.nx))[0]

    @property
    def ys(self) -> np.ndarray:
        return self.cell_center(np.arange(self.ny), 0)[1]

    def cell_center_axes(self, box=None):
        """The grid's axes, cell-center x as a (1, nx) row and y as an (ny, 1)
        column; with box, a (rows, columns) pair of slices, those of its
        cells only.  A model or predicate evaluated on them runs its
        functions of one coordinate on nx + ny values instead of nx * ny,
        and broadcasting combines them into the floats a mesh gives."""
        xs, ys = self.xs, self.ys
        if box is not None:
            rows, cols = box
            xs, ys = xs[cols], ys[rows]
        return xs[None, :], ys[:, None]

    def resolves_wavelength(self, lam: float) -> bool:
        if lam <= 0:
            return True
        return self.h <= (2 * np.pi / np.sqrt(lam)) / WAVELENGTH_SAMPLES


def grid_for_model(model, n: int) -> GridSpec:
    """Square n x n (or aspect-matched) grid covering the model's natural frame."""
    if n < 2:
        raise InvalidParameterError(f"grid needs at least 2 cells per axis, got {n}")
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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a with its writeable flag cleared, the form ScalarField keeps as given."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Cell-center samples of a scalar field on a grid; values has shape (ny, nx).

    values is read-only float64: a read-only float64 input is kept as
    given, and any other input is copied once."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and not v.flags.writeable):
            v = _read_only(np.array(v, dtype=float))
        if v.shape != (self.grid.ny, self.grid.nx):
            raise InvalidParameterError(
                f"values shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(eq=False)
class NodalSet:
    """Zero contour as point chains plus total H^1 length.

    Every chain vertex lies on a lattice edge where the bilinear
    interpolant changes sign (or at a resolved crossing junction).
    """

    polylines: list
    total_length: float
    perturbed_zeros: int = 0


@dataclass(eq=False)
class DomainMask:
    """Strict-sign 4-connected components of a sampled field.

    labels[iy, ix] is 0 outside every domain, else a 1-based label assigned
    in raster order of each domain's first cell.  signs[k] is the sign of
    domain k, areas[k] its cell-count area.  field_values is the values
    array of the field the mask was derived from, shared, not copied.

    The private fields are what the modules derive from the mask, each
    built on first use and kept for the mask's life.  The mask decides a
    domain's shape (box, rect), which the solver and the inradius read.
    """

    grid: GridSpec
    labels: np.ndarray
    signs: np.ndarray
    areas: np.ndarray
    field_values: np.ndarray
    n_labels: int
    zero_cells: int = 0
    # every label's box, from the row runs of labels (None if it has no cells)
    _boxes: list = field(default=None, init=False, repr=False)
    # boundary_length of every label for the mask's own samples
    _boundary_table: np.ndarray = field(default=None, init=False, repr=False)
    # chained segment length of the contour that built _boundary_table
    _contour_length: float = field(default=None, init=False, repr=False)
    # _ghost_table of field_values, shared by every walk and start check
    _interp_table: np.ndarray = field(default=None, init=False, repr=False)
    # label -> domain_inradius
    _inradii: dict = field(default_factory=dict, init=False, repr=False)
    # label -> heat._AdiPlan, the domain's solver plan
    _adi_plans: dict = field(default_factory=dict, init=False, repr=False)

    def _check(self, label):
        if not (isinstance(label, (int, np.integer)) and 1 <= label <= self.n_labels):
            raise UnknownLabelError(f"label {label!r} not in 1..{self.n_labels}")

    def cells(self, label) -> np.ndarray:
        self._check(label)
        return self.labels == label

    def box(self, label):
        """(rows, columns) slices of the smallest box holding the domain's
        cells, empty for a label without cells.  labels[box] == label is
        the domain in the box, in the raster order of the full grid.  One
        row-run pass finds every label's box.  A domain across a periodic
        seam gets the box of its pieces in the unwrapped grid."""
        self._check(label)
        if self._boxes is None:
            start, length = _row_runs(self.labels)
            lab = self.labels.ravel()[start]
            row, col = np.divmod(start, self.labels.shape[1])
            y0, y1, x0, x1 = ends = np.zeros((4, self.n_labels + 1), dtype=np.intp)
            y0[:] = x0[:] = self.labels.size
            np.minimum.at(y0, lab, row)
            np.maximum.at(y1, lab, row + 1)
            np.minimum.at(x0, lab, col)
            np.maximum.at(x1, lab, col + length)
            self._boxes = [(slice(a, b), slice(c, d)) if b else None
                           for a, b, c, d in ends.T[1:].tolist()]
        return self._boxes[label - 1] or (slice(0, 0), slice(0, 0))

    def rect(self, label):
        """(y0, y1, x0, x1) when the domain is a solid axis-aligned rectangle
        of cells (see _solid_rectangle), else None; from its box and cell count."""
        box = self.box(label)
        cells = int(round(float(self.areas[label]) / self.grid.h ** 2))
        return _solid_rectangle(box, cells, self.grid)

    def sign(self, label) -> int:
        self._check(label)
        return int(self.signs[label])

    def area(self, label) -> float:
        self._check(label)
        return float(self.areas[label])


def _solid_rectangle(box, cells: int, grid: GridSpec):
    """(y0, y1, x0, x1) when a domain of this many cells fills its bounding
    box, a (rows, columns) pair of slices, as a solid rectangle at least two
    cells wide on each axis that does not wrap round a periodic axis into a
    cylinder (that needs cyclic solves); else None.  Every cell lies in the
    box, so a count equal to the box's area means the box is full."""
    rows, cols = box
    y0, y1, x0, x1 = rows.start, rows.stop, cols.start, cols.stop
    if y1 - y0 < 2 or x1 - x0 < 2 or cells != (y1 - y0) * (x1 - x0):
        return None
    if (grid.periodic_x and x1 - x0 == grid.nx) or (grid.periodic_y and y1 - y0 == grid.ny):
        return None
    return (y0, y1, x0, x1)


def sample_field(model, grid: GridSpec) -> ScalarField:
    """Sample u at every cell center; warns when the grid under-resolves lambda.

    model.evaluate(x, y) gets the grid's axes (GridSpec.cell_center_axes),
    not a mesh, so it must broadcast them as numpy does and return their
    (ny, nx) broadcast shape.
    """
    lam = getattr(model, "eigenvalue", 0.0)
    if lam and not grid.resolves_wavelength(lam):
        warnings.warn(
            f"grid h={grid.h:.4g} under-resolves wavelength "
            f"{2 * np.pi / np.sqrt(lam):.4g} (need >= {WAVELENGTH_SAMPLES} samples)",
            ResolutionWarning,
        )
    u = model.evaluate(*grid.cell_center_axes())
    return ScalarField(grid=grid, values=_read_only(np.asarray(u, dtype=float)))


def indicator_field(grid: GridSpec, inside) -> ScalarField:
    """+1/-1 field from a boolean mask, or a predicate inside(x, y) called on
    the grid's axes (GridSpec.cell_center_axes), broadcast to (ny, nx); one
    that does not broadcast raises InvalidParameterError.

    Handy for synthetic domains (rectangles, ells, slits, combs): the
    bilinear zero contour then runs along the cell faces between inside
    and outside cells, matching the stair-step solver geometry.
    """
    m = inside(*grid.cell_center_axes()) if callable(inside) else inside
    try:
        m = np.broadcast_to(np.asarray(m, dtype=bool), (grid.ny, grid.nx))
    except ValueError:
        raise InvalidParameterError("indicator shape does not match grid") from None
    return ScalarField(grid=grid, values=_read_only(np.where(m, 1.0, -1.0)))


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

# corner ids (p, q) at the ends of each edge
_EDGE_CORNERS = {0: (0, 1), 1: (1, 2), 2: (3, 2), 3: (0, 3)}
_CORNER_OFFSETS = [(0, 0), (1, 0), (1, 1), (0, 1)]  # (dx, dy)

_CORNER_DX, _CORNER_DY = np.array(_CORNER_OFFSETS).T
# an edge's crossing lies at a_p / (a_p - a_q) of the way from corner p to q
_EDGE_P, _EDGE_Q = np.array(list(_EDGE_CORNERS.values())).T

_X = 4                  # segment end code of the X point at a square's center
_ALL = (0, 1, 2, 3)
# saddle resolutions as (end_a, end_b, adjacent corners) per segment
_SADDLE_X = ((0, _X, (0, 1)), (2, _X, (3, 2)), (3, _X, (0, 3)), (1, _X, (1, 2)))
_SADDLE_00_11 = ((0, 1, _ALL), (3, 2, _ALL))    # 00 and 11 joined, arcs cut off 10, 01
_SADDLE_10_01 = ((3, 0, _ALL), (2, 1, _ALL))    # 10 and 01 joined, arcs cut off 00, 11


def _segment_templates():
    """Segment slots per template: cases 0..15, then the three saddle resolutions."""
    templates = [[(a, b, _ALL) for a, b in _CASES.get(c, ())] for c in range(16)]
    templates += [_SADDLE_X, _SADDLE_00_11, _SADDLE_10_01]
    count = np.array([len(t) for t in templates])
    end_a = np.zeros((len(templates), 4), dtype=np.intp)
    end_b = np.zeros_like(end_a)
    adjacent = np.zeros((len(templates), 4, 4), dtype=bool)
    for i, t in enumerate(templates):
        for s, (a, b, corners) in enumerate(t):
            end_a[i, s], end_b[i, s] = a, b
            adjacent[i, s, list(corners)] = True
    # rows i * 4 + s: slot s of template i
    return count, end_a.ravel(), end_b.ravel(), adjacent.reshape(-1, 4)


_T_COUNT, _T_END_A, _T_END_B, _T_ADJACENT = _segment_templates()
_T_X, _T_00_11, _T_10_01 = 16, 17, 18
# segments come out case by case in _CASES order, then saddles 5 and 10
_CASE_RANK = np.zeros(16, dtype=np.uint8)    # small ints: stable argsort is a radix sort
_CASE_RANK[list(_CASES) + [5, 10]] = np.arange(len(_CASES) + 2)


def _perturb_zeros(values: np.ndarray):
    scale = np.max(np.abs(values))
    zeros = values == 0.0
    count = int(np.count_nonzero(zeros))
    if count and scale > 0:
        values = values.copy()      # the samples themselves are read-only
        values[zeros] = ZERO_SHIFT_EPS * scale
    return values, count


def _wrap_pad(a: np.ndarray, periodic_x: bool, periodic_y: bool) -> np.ndarray:
    """a with its first column / row repeated at the end on periodic axes.

    Dual square (jy, jx) then has its corners at a[jy:jy+2, jx:jx+2].
    """
    if periodic_x:
        a = np.concatenate([a, a[:, :1]], axis=1)
    if periodic_y:
        a = np.concatenate([a, a[:1]], axis=0)
    return a


def _contour_segments(values: np.ndarray, periodic_x: bool, periodic_y: bool):
    """All zero-contour segments of the bilinear interpolant, as arrays.

    Coordinates are continuous cell indices: cell center (iy, ix) sits at
    (ix, iy).  Segments never wrap; points may exceed nx-1 on periodic axes.
    Returns (pa, pb, ia, ib, cell, adjacent) for n segments:

    - pa, pb: (n, 2) end points (x, y);
    - ia, ib: (n,) integer node ids of the ends, for stitching;
    - cell: (n, 2) (iy, ix) of the dual square holding the segment;
    - adjacent: (n, 4) bool, the square's corners (ids 0..3, offsets in
      _CORNER_OFFSETS) the segment borders, for boundary attribution.

    Ordering invariant: segments come case by case in _CASES order, then
    the saddles 5 and 10; squares of one case in raster order; inside a
    saddle square the four X arms B, T, L, R or the two arcs in the order
    of their template.  Lengths are summed one by one in this order, so it
    fixes every reported length to the last bit.
    """
    ny, nx = values.shape
    pos = _wrap_pad((values > 0).view(np.uint8), periodic_x, periodic_y)
    ncx = pos.shape[1] - 1
    case = (pos[:-1, :-1] | pos[:-1, 1:] * 2 | pos[1:, 1:] * 4
            | pos[1:, :-1] * 8).ravel()       # uint8 multiplies vectorize, shifts do not
    sq = np.flatnonzero((case != 0) & (case != 15))
    sq = sq[np.argsort(_CASE_RANK[case[sq]], kind="stable")]
    template = case[sq].astype(np.intp)
    flat = values.ravel()

    def at(jy, jx, c):
        # flat index into values of corner c of squares (jy, jx)
        return (jy + _CORNER_DY[c]) % ny * nx + (jx + _CORNER_DX[c]) % nx

    sad = np.flatnonzero((template == 5) | (template == 10))
    if sad.size:
        jy, jx = np.divmod(sq[sad], ncx)
        a00, a10, a11, a01 = (flat[at(jy, jx, c)] for c in range(4))
        total = a00 + a10 + a01 + a11
        scale = np.abs(a00) + np.abs(a10) + np.abs(a01) + np.abs(a11)
        template[sad] = np.where(
            np.abs(total) <= SADDLE_DEGENERATE * scale, _T_X,
            np.where((template[sad] == 5) == (total > 0), _T_00_11, _T_10_01))

    count = _T_COUNT[template]
    slot = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    t = np.repeat(template, count) * 4 + slot     # row of the flattened templates
    jy, jx = np.divmod(np.repeat(sq, count), ncx)

    def ends(end):
        # node ids and points of segment ends: the zero crossing on edge
        # 0..3, or for _X the center junction, x of the bottom crossing and
        # y of the left one
        edge = np.where(end == _X, 0, end)
        p = _EDGE_P[edge]
        ip = at(jy, jx, p)
        ap = flat[ip]
        f = ap / (ap - flat[at(jy, jx, _EDGE_Q[edge])])
        along_x = edge % 2 == 0
        x = (jx + _CORNER_DX[p]) + np.where(along_x, f, 0.0)
        y = (jy + _CORNER_DY[p]) + np.where(along_x, 0.0, f)
        # node ids: horizontal edges, then vertical edges, then cell junctions
        node = np.where(along_x, ip, ny * nx + ip)
        xj = np.flatnonzero(end == _X)
        if xj.size:
            a00, a01 = flat[at(jy[xj], jx[xj], 0)], flat[at(jy[xj], jx[xj], 3)]
            y[xj] = jy[xj] + a00 / (a00 - a01)
            node[xj] = 2 * ny * nx + jy[xj] * nx + jx[xj]
        return node, np.column_stack([x, y])

    ia, pa = ends(_T_END_A[t])
    ib, pb = ends(_T_END_B[t])
    return pa, pb, ia, ib, np.column_stack([jy, jx]), np.take(_T_ADJACENT, t, axis=0)


def _chained_length(pa, pb):
    """Sum of segment lengths, added one at a time in segment order."""
    if not len(pa):
        return 0.0
    d = pb - pa
    return np.cumsum(np.hypot(d[:, 0], d[:, 1]))[-1]


def _stitch_polylines(pa, pb, ia, ib, grid: GridSpec):
    """Chain segments into polylines; returns (polylines, extra_boundary_length).

    Open chains on non-periodic grids are extended from their terminal
    vertex along the last segment direction until the physical boundary,
    so straight contours reach the true domain edge.
    """
    adjacency = {}
    for idx, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
        adjacency.setdefault(a, []).append((idx, b))
        adjacency.setdefault(b, []).append((idx, a))

    # a node's point is the one its last segment gives it: across a periodic
    # seam the two squares sharing an edge place its crossing a period apart
    nodes = np.column_stack([ia, ib]).ravel()
    ends = np.stack([pa, pb], axis=1).reshape(-1, 2)
    node_ids, last_rev = np.unique(nodes[::-1], return_index=True)
    node_point = ends[nodes.size - 1 - last_rev]

    visited = [False] * len(ia)
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

    extra = 0.0
    polylines = []
    for chain in polylines_idx:
        pts = node_point[np.searchsorted(node_ids, chain)]
        if len(pts) >= 2 and not (grid.periodic_x and grid.periodic_y):
            for end, prev in ((0, 1), (-1, -2)):
                ext = _boundary_extension(pts[end], pts[prev], grid)
                if ext is not None:
                    pts = np.vstack([ext[None], pts]) if end == 0 else np.vstack([pts, ext[None]])
                    extra += float(np.linalg.norm(ext - (pts[1] if end == 0 else pts[-2])))
        polylines.append(np.column_stack(grid.cell_center(pts[:, 1], pts[:, 0])))
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
    if not values.any():
        return NodalSet(polylines=[], total_length=0.0, perturbed_zeros=n_pert)
    pa, pb, ia, ib, _, _ = _contour_segments(
        values, field.grid.periodic_x, field.grid.periodic_y)
    if not len(ia):
        return NodalSet(polylines=[], total_length=0.0, perturbed_zeros=n_pert)
    h = field.grid.h
    polylines, extra = _stitch_polylines(pa, pb, ia, ib, field.grid)
    total = _chained_length(pa, pb) * h + extra * h
    return NodalSet(polylines=polylines, total_length=float(total), perturbed_zeros=n_pert)


def _nodal_length(mask: DomainMask) -> float:
    """extract_nodal_set's total_length for the mask's own samples.  On a
    fully periodic grid stitching adds no wall extension, so the chained
    segment lengths are the whole total, and the contour that builds the
    boundary table gives them; a walled grid stitches the polylines."""
    grid = mask.grid
    if not (grid.periodic_x and grid.periodic_y):
        return extract_nodal_set(ScalarField(grid=grid, values=mask.field_values)).total_length
    _own_boundary_table(mask)
    return float(mask._contour_length)


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------

def _row_runs(a: np.ndarray):
    """(start, length) of every maximal run of equal entries along the rows
    of the 2-D array a, in raster order: start is the run's flat index."""
    flat = a.ravel()
    new = np.empty(flat.size, dtype=bool)
    new[0] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[::a.shape[1]] = True
    start = np.flatnonzero(new)
    return start, np.diff(start, append=flat.size)


def label_nodal_domains(field: ScalarField) -> DomainMask:
    """4-connected strict-sign components; labels in raster order of first cell.

    Exact-zero cells join no domain.  On periodic axes components merge
    across the seam.

    The graph's nodes are the same-sign runs along each row (_row_runs).
    Runs in adjacent rows overlap where the start of one meets the other,
    so the cells below and above each start give every vertical edge; a
    periodic x joins each row's first and last run, and a periodic y wraps
    rows 0 and ny - 1.  A component's smallest run index holds its first
    raster cell.  Only the int8 signs, a run-start flag and the labels span
    the field, so the peak allocation of a resolved field is under the
    field's bytes (0.76x for a 512^2 torus mode (4, 4)); a checkerboard,
    every cell a run, takes about 12x.  The mask shares the samples.
    """
    grid = field.grid
    v = field.values
    nx = v.shape[1]
    sgn = (v > 0).view(np.int8) - (v < 0).view(np.int8)
    start, length = _row_runs(sgn)
    run_sign = sgn.ravel()[start]
    del sgn

    # edges: each run's start to the runs holding the cells below and above
    # it, then the x seams, kept where the two runs share a sign
    runs = np.arange(start.size)
    pairs = []
    for cells in (start + nx, start - nx):
        a = runs if grid.periodic_y else runs[(cells >= 0) & (cells < v.size)]
        pairs.append((a, np.searchsorted(start, cells[a] % v.size, side="right") - 1))
    if grid.periodic_x:
        first = np.flatnonzero(start % nx == 0)
        pairs.append((first, np.append(first[1:], start.size) - 1))
    a, b = (np.concatenate(p) for p in zip(*pairs))
    same = (run_sign[a] == run_sign[b]) & (run_sign[a] != 0)
    a, b = a[same], b[same]

    # components: hook each root to the smallest root it meets, then
    # compress to roots, until every edge joins one root; pointers only
    # ever decrease, and zero runs are on no edge
    root = runs.astype(np.int32)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while not np.array_equal(root[root], root):
            root = root[root]

    roots = np.flatnonzero((root == runs) & (run_sign != 0))
    n_labels = int(roots.size)
    relabel = np.zeros(start.size, dtype=np.int32)
    relabel[roots] = np.arange(1, n_labels + 1, dtype=np.int32)
    run_label = relabel[root]
    labels = np.repeat(run_label, length).reshape(v.shape)

    signs = np.zeros(n_labels + 1, dtype=np.int8)
    signs[1:] = run_sign[roots]
    # float sums of integer run lengths: exact, as the cell counts are
    areas = np.bincount(run_label, weights=length, minlength=n_labels + 1) * grid.h ** 2
    areas[0] = 0.0
    zero_cells = int(length[run_sign == 0].sum())

    return DomainMask(grid=grid, labels=labels, signs=signs, areas=areas,
                      field_values=v, n_labels=n_labels, zero_cells=zero_cells)


def _edt(inside: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance, in cells, from every cell of the 2-D bool
    array inside to the nearest False cell; inf everywhere if there is none.

    The transform is separable (Felzenszwalb & Huttenlocher, "Distance
    Transforms of Sampled Functions", Theory of Computing 8, 2012).  A
    column pass gives g, each cell's distance along its column to the
    nearest outside cell.  A row pass takes min over q of g[q]^2 + (x - q)^2,
    the lower envelope of one parabola per column, on every row in
    lockstep; a column without an outside cell (a box tiled along a
    periodic axis) has infinite g and never enters it.  Squared distances
    are integers, exact in float64.  The envelope compares quotients of
    integers, and for boxes under 6000 cells a side their rounded values
    keep the exact order, so every distance is the correctly rounded root
    of an exact integer.
    """
    t = np.ascontiguousarray(inside.T)      # row q of t is column q of inside
    nq, ny = t.shape
    # column pass: g[q, y], from the last outside cell above and the next below
    far = np.int32(1 << 30)
    iy = np.arange(ny, dtype=np.int32)
    g = np.where(t, -far, iy)
    np.maximum.accumulate(g, axis=1, out=g)
    np.subtract(iy, g, out=g)
    below = np.where(t[:, ::-1], -far, iy)
    np.maximum.accumulate(below, axis=1, out=below)
    np.subtract(iy, below, out=below)
    np.minimum(g, below[:, ::-1], out=g)
    del below
    cols = np.flatnonzero(~t.all(axis=1))
    if not cols.size:
        return np.full(inside.shape, np.inf)

    # row pass over the parabolas a[q] + x (x - 2 q), a[q] = g[q]^2 + q^2, of
    # the columns q with an outside cell; parabola i is column cols[i]
    a = np.square(g, dtype=float)
    del g
    a += np.square(np.arange(nq), dtype=float)[:, None]
    ac = a if cols.size == nq else a[cols]
    n = cols.size
    # s[i] = 2x where parabola i crosses the one below it on the row's
    # stack, exact quotients; parabola 0 is the bottom of every stack
    s = np.empty_like(ac)
    s[0] = -np.inf
    np.subtract(ac[1:], ac[:-1], out=s[1:])
    if n < nq:
        s[1:] /= np.diff(cols).astype(float)[:, None]
    # parabola i goes on top of every row's stack, after popping each top
    # it crosses at or left of that top's own crossing; only rows that pop
    # are touched, and an untouched top below i is parabola i - 1
    sf, af = s.ravel(), ac.ravel()
    # from the first pop: prev[i * ny + y], the flat index of the parabola
    # below parabola i on row y's stack, and dead, the parabolas popped
    prev = dead = None
    # a row pops at i only where s[i] <= s[i - 1] as first computed, or
    # where a pop at i - 1 moved s[i - 1]; other iterations are skipped
    maybe = (s[2:] <= s[1:-1]).any(axis=1).tolist()
    popped = False
    for i in range(2, n):
        if not (popped or maybe[i - 2]):
            continue
        fi = np.flatnonzero(s[i] <= s[i - 1])
        popped = fi.size > 0
        if not popped:
            continue
        if prev is None:
            prev = np.arange(-ny, (n - 1) * ny)
            dead = np.zeros(n * ny, dtype=bool)
        q = cols[i]
        fi += i * ny
        top = fi - ny
        ai = af[fi]
        while fi.size:
            dead[top] = True
            top = prev[top]
            st = (ai - af[top]) / (q - cols[top // ny])
            sf[fi] = st
            prev[fi] = top
            more = st <= sf[top]
            fi, top, ai = fi[more], top[more], ai[more]
    del prev

    # a kept parabola is lowest from its start, the first x past s / 2, to
    # the next kept one's start; a popped one starts at nq, past every x.
    # A running minimum from the top makes the starts non-decreasing, so
    # the parabola lowest at x is the last to start at or before x: the
    # count of starts up to x, from one bincount over row-offset keys
    s *= 0.5
    np.floor(s, out=s)
    s += 1
    np.clip(s, 0, nq, out=s)
    start = s.astype(np.intp)
    del s, sf
    if dead is not None:
        start.ravel()[dead] = nq
    np.minimum.accumulate(start[::-1], axis=0, out=start[::-1])
    start *= ny
    start += np.arange(ny)
    low = np.bincount(start.ravel(), minlength=(nq + 1) * ny)[:nq * ny].reshape(nq, ny)
    del start
    np.cumsum(low, axis=0, out=low)
    low -= 1
    if n < nq:
        low = cols[low]
    d = np.take_along_axis(a, low, axis=0)
    del a, ac, af
    x = np.arange(nq)[:, None]
    low *= -2
    low += x
    low *= x
    d += low
    np.sqrt(d, out=d)
    return d.T


def distance_to_boundary_map(mask: DomainMask, label: int) -> np.ndarray:
    """Per-cell distance to the domain complement (exact Euclidean EDT, _edt,
    in numpy).

    Distances are measured between cell centers and corrected by half a
    cell so a boundary cell reports h/2; zero outside the domain, and inf
    on a domain with no outside cell at all (one filling a torus).

    The transform runs on the domain's box with a ring of outside cells
    around it: every cell past the box is outside the domain, and clamping
    one into the ringed box gives a ring cell no farther from any domain
    cell, so the box gives each distance of a whole-grid transform.  A box
    that spans a periodic axis, where the domain may wrap, is tiled three
    times along it instead, as a whole periodic grid is.
    """
    grid = mask.grid
    box = mask.box(label)
    sel = mask.labels[box] == label
    inside = sel
    wrap_y = grid.periodic_y and sel.shape[0] == grid.ny
    wrap_x = grid.periodic_x and sel.shape[1] == grid.nx
    if wrap_y:
        inside = np.tile(inside, (3, 1))
    else:
        inside = np.pad(inside, ((1, 1), (0, 0)), constant_values=False)
    if wrap_x:
        inside = np.tile(inside, (1, 3))
    else:
        inside = np.pad(inside, ((0, 0), (1, 1)), constant_values=False)
    dist = _edt(inside)
    ny, nx = sel.shape
    y_off = ny if wrap_y else 1
    x_off = nx if wrap_x else 1
    core = dist[y_off:y_off + ny, x_off:x_off + nx]
    out = np.zeros((grid.ny, grid.nx))
    out[box] = np.where(sel, np.maximum(core - 0.5, 0.5) * grid.h, 0.0)
    return out


def domain_inradius(mask: DomainMask, label: int) -> float:
    """Largest inscribed-disk radius of a domain, accurate to +- h: the
    maximum of distance_to_boundary_map, kept on the mask.  A rectangle's
    deepest cell lies (min(ny, nx) + 1) // 2 cells from the nearest outside
    cell, and at two cells wide or more the EDT's half-cell floor never
    binds, so its extents give the EDT's value with no EDT."""
    radius = mask._inradii.get(label)
    if radius is None:
        rect = mask.rect(label)
        if rect is None:
            radius = float(distance_to_boundary_map(mask, label).max())
        else:
            y0, y1, x0, x1 = rect
            radius = ((min(y1 - y0, x1 - x0) + 1) // 2 - 0.5) * mask.grid.h
        mask._inradii[label] = radius
    return radius


def principal_label(mask: DomainMask, sign: int = 1) -> int:
    """First label with the given sign; handy for indicator-built domains."""
    for k in range(1, mask.n_labels + 1):
        if mask.signs[k] == sign:
            return k
    raise UnknownLabelError(f"no domain of sign {sign}")


def _cell_index(grid: GridSpec, x: float, y: float):
    """(iy, ix) of the cell holding (x, y): the floor of its cell
    coordinates, wrapped on a periodic axis and clipped to the grid on a
    walled one."""
    ix, iy = int(np.floor((x - grid.x0) / grid.h)), int(np.floor((y - grid.y0) / grid.h))
    return (iy % grid.ny if grid.periodic_y else min(max(iy, 0), grid.ny - 1),
            ix % grid.nx if grid.periodic_x else min(max(ix, 0), grid.nx - 1))


def label_at(mask: DomainMask, x: float, y: float) -> int:
    """Label of the cell containing (x, y), periodic axes wrapped; 0 if
    outside every domain, as is a point beyond a wall."""
    grid = mask.grid
    if not ((grid.periodic_x or 0 <= x - grid.x0 < grid.extent_x)
            and (grid.periodic_y or 0 <= y - grid.y0 < grid.extent_y)):
        return 0
    return int(mask.labels[_cell_index(grid, x, y)])


def _boundary_lengths(mask: DomainMask):
    """Boundary length of every label of the mask from one contour of its own
    samples, and that contour's chained length, _chained_length times h.

    The lengths are an (n_labels + 1,) array; entry 0 is unused.  A segment
    bounds each distinct label among the corners it borders, and counts
    once per label.  Each label's segment lengths are added one at a time in
    segment order, as _chained_length adds them, so every length is the one
    a contour per label would give, to the last bit.
    """
    grid = mask.grid
    h = grid.h
    n = mask.n_labels + 1
    lengths = np.zeros(n)
    chained = 0.0
    v, _ = _perturb_zeros(mask.field_values)
    if v.any():
        pa, pb, _, _, cell, adjacent = _contour_segments(v, grid.periodic_x, grid.periodic_y)
        chained = _chained_length(pa, pb) * h
        lab_sq = _wrap_pad(mask.labels, grid.periodic_x, grid.periodic_y)
        w = lab_sq.shape[1]
        corner = lab_sq.ravel()[cell[:, :1] * w + cell[:, 1:] + (_CORNER_DY * w + _CORNER_DX)]
        corner[~adjacent] = 0
        # sorted rows: a label repeated at a segment's corners counts once
        corner.sort(axis=1)
        keep = corner != 0
        keep[:, 1:] &= corner[:, 1:] != corner[:, :-1]
        seg = np.flatnonzero(keep) // 4
        lab = corner[keep]
        order = np.argsort(lab, kind="stable")    # segment order within a label
        d = pb - pa
        seg_len = np.hypot(d[:, 0], d[:, 1])[seg[order]]
        present, first, count = np.unique(lab[order], return_index=True, return_counts=True)
        for k, i, c in zip(present.tolist(), first.tolist(), count.tolist()):
            lengths[k] = np.cumsum(seg_len[i:i + c])[-1]
    lengths *= h
    # outer walls
    if not grid.periodic_y:
        lengths += (np.bincount(mask.labels[0, :], minlength=n) * h
                    + np.bincount(mask.labels[-1, :], minlength=n) * h)
    if not grid.periodic_x:
        lengths += (np.bincount(mask.labels[:, 0], minlength=n) * h
                    + np.bincount(mask.labels[:, -1], minlength=n) * h)
    return lengths, chained


def _own_boundary_table(mask: DomainMask) -> np.ndarray:
    """_boundary_lengths of the mask's own samples, built once and kept on
    the mask with its contour's chained length."""
    if mask._boundary_table is None:
        mask._boundary_table, mask._contour_length = _boundary_lengths(mask)
    return mask._boundary_table


def boundary_length(mask: DomainMask, label: int) -> float:
    """H^1 length of a domain boundary, accurate to O(h).

    Counts the zero-contour segments adjacent to the domain plus, on
    non-periodic axes, the outer grid walls backing its cells (absorption
    happens there for Dirichlet models).  One contour of the mask's own
    samples gives the length of every label; the table is built once and
    kept on the mask.
    """
    mask._check(label)
    return float(_own_boundary_table(mask)[label])


# ---------------------------------------------------------------------------
# bilinear interpolation shared with the stochastic module
# ---------------------------------------------------------------------------

def _ghost_table(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The samples padded to (ny + 2, nx + 2) with a ring of ghost cells.

    The ring holds the periodic wrap on periodic axes and the odd
    reflection -v on the others, so the interpolant changes sign exactly at
    a physical wall.  Built once, it serves every interpolation on the grid.
    """
    v = np.asarray(values, dtype=float)
    ny, nx = v.shape
    table = np.empty((ny + 2, nx + 2))
    table[1:-1, 1:-1] = v
    if grid.periodic_x:
        table[1:-1, 0], table[1:-1, -1] = v[:, -1], v[:, 0]
    else:
        table[1:-1, 0], table[1:-1, -1] = -v[:, 0], -v[:, -1]
    # the rows include the corner ghosts, so corners get both axes' rule
    if grid.periodic_y:
        table[0], table[-1] = table[-2], table[1]
    else:
        table[0], table[-1] = -table[1], -table[-2]
    return table


def interpolate_with_gradient(values: np.ndarray, grid: GridSpec, pts: np.ndarray):
    """Bilinear interpolant and its gradient at arbitrary points.

    Periodic axes wrap; non-periodic axes use odd-reflection ghosts so the
    interpolant changes sign exactly at the physical wall.  Points beyond
    the physical rectangle are flagged outside (inside=False) and get the
    reflected value.  values is the (ny, nx) samples or their ghost table
    (ny + 2, nx + 2) from _ghost_table, which a walk builds once.

    Returns (f, gx, gy, inside).
    """
    table = np.asarray(values, dtype=float)
    ny, nx = grid.ny, grid.nx
    if table.shape == (ny, nx):
        table = _ghost_table(table, grid)
    elif table.shape != (ny + 2, nx + 2):
        raise InvalidParameterError(
            f"values shape {table.shape} matches neither the grid ({ny}, {nx}) "
            "nor its ghost table")
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape[:-1]
    if len(shape) != 1:     # the work below runs in place on 1-d arrays
        pts = pts.reshape(-1, 2)
    x = pts[:, 0]
    y = pts[:, 1]
    h = grid.h

    fx = x - grid.x0
    fx /= h
    fx -= 0.5
    fy = y - grid.y0
    fy /= h
    fy -= 0.5
    inside = np.ones(x.shape, dtype=bool)

    def axis_index(f, n, periodic):
        # (table index of the lower corner, the fraction f - floor(f) in
        # place of f, in-range flag or None); the upper corner is the next entry
        fl = np.floor(f)
        i0 = fl.astype(np.intp)
        ok = None
        if periodic:
            # ghost index 0 holds index n's value, so only indices outside
            # [-1, n) need the mod
            if i0.size and (i0.min() < -1 or i0.max() >= n):
                i0 %= n
        else:
            ok = (f >= -0.5 - 1e-12) & (f <= n - 0.5 + 1e-12)
            np.clip(i0, -1, n - 1, out=i0)
        i0 += 1
        f -= fl
        return i0, f, ok

    ix, tx, okx = axis_index(fx, nx, grid.periodic_x)
    iy, ty, oky = axis_index(fy, ny, grid.periodic_y)
    if okx is not None:
        inside &= okx
    if oky is not None:
        inside &= oky

    w = nx + 2
    base = iy
    base *= w
    base += ix
    v00 = table.take(base)
    base += 1
    v10 = table.take(base)
    base += w
    v11 = table.take(base)
    base -= 1
    v01 = table.take(base)

    # the products and sums run in the order of
    # f = v00 sx sy + v10 tx sy + v01 sx ty + v11 tx ty, one buffer each
    sx = 1 - tx
    sy = 1 - ty
    f = v00 * sx
    f *= sy
    tmp = v10 * tx
    tmp *= sy
    f += tmp
    np.multiply(v01, sx, out=tmp)
    tmp *= ty
    f += tmp
    np.multiply(v11, tx, out=tmp)
    tmp *= ty
    f += tmp
    # gx = ((v10 - v00) sy + (v11 - v01) ty) / h and its transpose for gy
    gx = v10 - v00
    gx *= sy
    np.subtract(v11, v01, out=tmp)
    tmp *= ty
    gx += tmp
    gx /= h
    gy = v01 - v00
    gy *= sx
    np.subtract(v11, v10, out=tmp)
    tmp *= tx
    gy += tmp
    gy /= h
    if len(shape) != 1:
        return f.reshape(shape), gx.reshape(shape), gy.reshape(shape), inside.reshape(shape)
    return f, gx, gy, inside
