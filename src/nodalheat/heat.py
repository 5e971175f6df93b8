"""Deterministic finite-difference solvers for killed heat flow on masked grids.

The PDE is u_t = Laplace(u) (diffusivity 1, matching Brownian increments of
variance 2 dt per coordinate), discretized by the five-point Laplacian on
the cell centers.  Each domain shape has one solver:

- Solid axis-aligned rectangles of cells (unit squares, torus sign cells,
  corridor strips) are exact in time.  The DST-II diagonalizes the
  face-anchored Dirichlet operator, so exp(t L) is one forward transform, a
  diagonal decay exp(-t lambda_y) x exp(-t lambda_x) and one inverse
  transform, whatever t is; n_steps plays no part.
- Every other mask is stepped with Crank-Nicolson realized as a
  Peaceman-Rachford directional split, the first two steps done as split
  implicit-Euler half-steps to damp the discontinuous start data.  Each
  directional solve is a direct SPD tridiagonal solve (LAPACK pttrs),
  factored once per run length and step size, so the cost per step is
  O(cells) with no iteration tolerances anywhere.  Tall stacks of lines
  holding the same run are solved as blocks on slices of the working
  array; the remaining runs are batched per run length through fancy-index
  gathers.

Dirichlet data is anchored at cell faces via ghost extrapolation
(ghost = 2 g - u), so the absorbing wall sits exactly on the boundary of the
stair-step cell region rather than half a cell outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import EmptyDomainError, InvalidParameterError, SolverError
from .nodal import DomainMask, GridSpec, ScalarField

__all__ = [
    "SurvivalField",
    "HeatContentCurve",
    "solve_hitting_field",
    "heat_content",
    "heat_content_curve",
    "dirichlet_semigroup_field",
]


@dataclass
class SurvivalField:
    """Boundary-hitting probabilities p_t on a domain.

    values has the full grid shape; cells outside the domain are clamped to
    the boundary value 1.  clip_low/clip_high record how far the raw solution
    left [0, 1] before clipping.
    """

    grid: GridSpec
    t: float
    values: np.ndarray
    label: int
    clip_low: float = 0.0
    clip_high: float = 0.0


@dataclass
class HeatContentCurve:
    """Heat content over a list of times with the c * sqrt(t) slope fit."""

    times: np.ndarray
    contents: np.ndarray
    slope: float
    r_squared: float
    running_slopes: np.ndarray


# ---------------------------------------------------------------------------
# directional run plan
# ---------------------------------------------------------------------------

def _runs_1d(row: np.ndarray, periodic: bool):
    """Maximal True runs of a boolean row as (start, length, cyclic)."""
    n = row.size
    if not row.any():
        return []
    if row.all():
        return [(0, n, periodic)]
    if periodic and row[0] and row[-1]:
        shift = int(np.argmin(row))     # first False
        rolled = np.roll(row, -shift)
        return [((s + shift) % n, ln, False) for s, ln, _ in _runs_1d(rolled, False)]
    padded = np.concatenate(([False], row, [False])).astype(np.int8)
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return [(int(s), int(e - s), False) for s, e in zip(starts, ends)]


def _dirichlet_decay(n: int, h: float, duration: float) -> np.ndarray:
    """exp(-duration lambda_k) for the DST-II modes k = 1..n of one axis.

    lambda_k = 4/h^2 sin^2(pi k / 2n) are the eigenvalues of minus the
    face-anchored Dirichlet second difference on n cell centers.
    """
    k = np.arange(1, n + 1)
    return np.exp(-duration * (4 / h ** 2) * np.sin(np.pi * k / (2 * n)) ** 2)


def _pt_factor(ln: int, theta: float, cyclic: bool):
    """LDL^T factors of the SPD tridiagonal (I - theta L) on one run of ln cells.

    Dirichlet runs have the face-anchored 1 + 3 theta end rows; cyclic runs
    get the Sherman-Morrison corrected corners used by _solve_cyclic.
    """
    diag = 1 + 2 * theta
    d = np.full(ln, diag)
    if cyclic:
        d[0] = 2 * diag                        # diag - gamma, gamma = -diag
        d[-1] = diag + theta * theta / diag    # diag - off^2 / gamma
    else:
        d[0] = d[-1] = 1 + 3 * theta
    d, e, info = dpttrf(d, np.full(ln - 1, -theta))
    if info != 0:   # pragma: no cover - the matrix is diagonally dominant
        raise SolverError(f"tridiagonal factorization failed for run length {ln}: info {info}")
    return d, e


def _pt_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system for every row of rhs (consumed).

    When rhs.T is Fortran-contiguous (rhs holds whole rows of a C array)
    the solve runs in place and the result is a view of rhs's memory;
    otherwise dpttrs solves a Fortran copy and the result is new.
    """
    d, e = factor
    sol, info = dpttrs(d, e, rhs.T, overwrite_b=True)
    if info != 0:   # pragma: no cover
        raise SolverError(f"tridiagonal solve failed: info {info}")
    return sol.T


def _explicit_rows(rows: np.ndarray, theta: float, g: float, cyclic: bool):
    """(I + theta L) along every row of rows (one run per row), in place."""
    if cyclic:
        lap = np.roll(rows, 1, axis=1)
        lap += np.roll(rows, -1, axis=1)
        lap -= 2 * rows
        lap *= theta
        rows += lap
        return
    if rows.shape[1] == 1:
        rows *= 1 - 4 * theta
        rows += 4 * theta * g
        return
    mid = rows[:, 1:-1]
    lap = np.multiply(mid, 2)
    np.subtract(rows[:, 2:], lap, out=lap)
    lap += rows[:, :-2]
    lap *= theta
    first = rows[:, 0] + theta * (rows[:, 1] - 3 * rows[:, 0] + 2 * g)
    last = rows[:, -1] + theta * (rows[:, -2] - 3 * rows[:, -1] + 2 * g)
    mid += lap
    rows[:, 0] = first
    rows[:, -1] = last


# A stack of at least this many consecutive lines holding the same run is a
# block, solved on a slice of the working array; shorter stacks stay in the
# gather groups, where one fancy index serves every run of a length.
# Measured on one ADI step at 384^2 (2 vCPU, numpy 2.4.6): with every run a
# block (a minimum of 1, 175 blocks per axis) the disk, whose chords change
# every few rows, went from 137 to 194 ns per cell-step; at 32 it has no
# block and holds 127-129 ns, while the ell, slit and comb are all blocks
# and drop from 53-70 to 30-33 ns (the comb stays all blocks up to 32, not
# at 64).
_BLOCK_MIN_LINES = 32


class _AdiPlan:
    """Solver plan for one domain.

    A solid axis-aligned rectangle of cells is served by the exact DST
    propagator on its bounding slice.  Any other mask is cut, per axis,
    into runs of consecutive in-domain cells along each line (row for x,
    column for y).  A stack of at least _BLOCK_MIN_LINES consecutive lines
    holding an identical run (same start, length and cyclic flag, not
    crossing a periodic seam) is a block (l0, l1, start, length, cyclic),
    reached through the basic slice u2[l0:l1, s:s+ln] (x) or
    u2[s:s+ln, l0:l1] (y).  The remaining runs are gathered and scattered
    by fancy index in groups keyed by (length, cyclic).  Every run sees
    the same arithmetic on either path; the tridiagonal factors of the
    current step size are cached per run length.  All operators mutate the
    working array in place; cells outside the domain are never touched
    and keep the boundary value.
    """

    def __init__(self, inmask: np.ndarray, grid: GridSpec):
        self.grid = grid
        self.inmask = inmask
        self.rect = self._detect_rectangle(inmask, grid)
        self.blocks = {"x": [], "y": []}
        self.groups = {"x": {}, "y": {}}
        self._factors = {}
        if self.rect is not None:
            return
        nx = inmask.shape[1]
        for axis, lines, periodic in (("x", inmask, grid.periodic_x),
                                      ("y", inmask.T, grid.periodic_y)):
            n = lines.shape[1]
            runs = [_runs_1d(line, periodic) for line in lines]
            for l0, l1, run in list(_stacks(runs)):
                s, ln, _ = run
                if l1 - l0 >= _BLOCK_MIN_LINES and s + ln <= n:
                    self.blocks[axis].append((l0, l1, *run))
                    for i in range(l0, l1):
                        runs[i].remove(run)
            groups = self.groups[axis]
            for i, line_runs in enumerate(runs):
                for s, ln, cyc in line_runs:
                    cells = (s + np.arange(ln)) % n
                    idx = i * nx + cells if axis == "x" else cells * nx + i
                    groups.setdefault((ln, cyc), []).append(idx)
            self.groups[axis] = {key: np.stack(rows) for key, rows in groups.items()}

    @staticmethod
    def _detect_rectangle(inmask: np.ndarray, grid: GridSpec):
        ys = np.flatnonzero(inmask.any(axis=1))
        xs = np.flatnonzero(inmask.any(axis=0))
        if ys.size < 2 or xs.size < 2:
            return None
        y0, y1 = int(ys[0]), int(ys[-1]) + 1
        x0, x1 = int(xs[0]), int(xs[-1]) + 1
        if int(inmask.sum()) != (y1 - y0) * (x1 - x0) or not inmask[y0:y1, x0:x1].all():
            return None
        if grid.periodic_x and x1 - x0 == inmask.shape[1]:
            return None     # wraps into a cylinder; needs cyclic solves
        if grid.periodic_y and y1 - y0 == inmask.shape[0]:
            return None
        return (y0, y1, x0, x1)

    # -- exact exp(duration L) on a rectangle, Dirichlet value g --------------

    def apply_exact(self, u2: np.ndarray, g: float, duration: float):
        y0, y1, x0, x1 = self.rect
        blk = u2[y0:y1, x0:x1]
        h = self.grid.h
        coef = dstn(blk - g, type=2, norm="ortho", overwrite_x=True)
        coef *= _dirichlet_decay(y1 - y0, h, duration)[:, None]
        coef *= _dirichlet_decay(x1 - x0, h, duration)
        blk[:] = idstn(coef, type=2, norm="ortho", overwrite_x=True)
        blk += g

    # -- tridiagonal factors, one step size at a time -------------------------

    def _factor(self, ln: int, theta: float, cyclic: bool):
        per = self._factors.get(theta)
        if per is None:
            # keep only the current step size: each leg of a curve has its own
            per = {}
            self._factors = {theta: per}
        key = (ln, cyclic)
        if key not in per:
            per[key] = _pt_factor(ln, theta, cyclic)
        return per[key]

    @staticmethod
    def _block_rows(u2: np.ndarray, block, axis: str) -> np.ndarray:
        """The runs of one block as a (lines, length) view of u2."""
        l0, l1, s, ln, _ = block
        return u2[l0:l1, s:s + ln] if axis == "x" else u2[s:s + ln, l0:l1].T

    # -- explicit (I + theta L) with face-anchored Dirichlet value g ---------

    def apply_explicit(self, u2: np.ndarray, theta: float, g: float, axis: str):
        for block in self.blocks[axis]:
            _explicit_rows(self._block_rows(u2, block, axis), theta, g, block[4])
        u = u2.reshape(-1)
        for (_, cyc), idx in self.groups[axis].items():
            rows = u[idx]
            _explicit_rows(rows, theta, g, cyc)
            u[idx] = rows

    # -- implicit (I - theta L) x = b, solved in place ------------------------

    def _solve_rows(self, rows: np.ndarray, theta: float, g: float, cyclic: bool):
        """Solve on every row of rows (consumed); the result may be rows,
        solved in place."""
        ln = rows.shape[1]
        if cyclic:
            return _solve_cyclic(rows, theta, self._factor(ln, theta, True) if ln > 2 else None)
        if ln == 1:
            return (rows + 4 * theta * g) / (1 + 4 * theta)
        rows[:, 0] += 2 * theta * g
        rows[:, -1] += 2 * theta * g
        return _pt_solve(self._factor(ln, theta, False), rows)

    def solve_implicit(self, u2: np.ndarray, theta: float, g: float, axis: str):
        for block in self.blocks[axis]:
            rows = self._block_rows(u2, block, axis)
            sol = self._solve_rows(rows, theta, g, block[4])
            if not np.may_share_memory(sol, rows):    # in place when Fortran-ready
                rows[...] = sol
        u = u2.reshape(-1)
        for (_, cyc), idx in self.groups[axis].items():
            u[idx] = self._solve_rows(u[idx], theta, g, cyc)


def _stacks(runs):
    """Maximal stacks of consecutive lines holding an identical run.

    runs[i] is the run list of line i; yields (l0, l1, run) with run in
    every line l0 <= i < l1.
    """
    open_ = {}
    for i, line_runs in enumerate(runs):
        here = set(line_runs)
        for run in [r for r in open_ if r not in here]:
            yield open_.pop(run), i, run
        for run in line_runs:
            open_.setdefault(run, i)
    for run, l0 in open_.items():
        yield l0, len(runs), run


def _solve_cyclic(rhs: np.ndarray, theta: float, factor):
    """Batched cyclic tridiagonal solve via Sherman-Morrison.

    factor is _pt_factor(n, theta, cyclic=True); rings of one or two cells
    are solved directly and take None.
    """
    n = rhs.shape[1]
    if n == 1:
        return rhs.copy()
    if n == 2:
        # ring of two cells: both off-diagonal couplings add up
        a = 1 + 2 * theta
        b = -2 * theta
        det = a * a - b * b
        x0 = (a * rhs[:, 0] - b * rhs[:, 1]) / det
        x1 = (a * rhs[:, 1] - b * rhs[:, 0]) / det
        return np.stack([x0, x1], axis=1)
    diag = 1 + 2 * theta
    off = -theta
    gamma = -diag
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = off
    sol = _pt_solve(factor, np.concatenate([rhs, u[None, :]], axis=0))
    y = sol[:-1]
    z = sol[-1]
    vy = y[:, 0] + (off / gamma) * y[:, -1]
    vz = z[0] + (off / gamma) * z[-1]
    return y - np.outer(vy / (1 + vz), z)


def _evolve(plan: _AdiPlan, u2: np.ndarray, g: float, duration: float,
            n_steps: int, startup: bool = True):
    """Advance the masked heat equation by duration, mutating u2 in place.

    Rectangles take the exact propagator; n_steps and startup only shape
    the ADI stepping of other masks.
    """
    if duration == 0 or n_steps == 0:
        return
    if plan.rect is not None:
        plan.apply_exact(u2, g, duration)
        return
    dt = duration / n_steps
    h = plan.grid.h
    n_startup = min(2, n_steps) if startup else 0
    theta_be = (dt / 2) / h ** 2
    for _ in range(n_startup):
        for _ in range(2):      # two implicit-Euler half-steps per step
            plan.solve_implicit(u2, theta_be, g, "x")
            plan.solve_implicit(u2, theta_be, g, "y")
    theta = dt / (2 * h ** 2)
    for _ in range(n_steps - n_startup):
        plan.apply_explicit(u2, theta, g, "y")
        plan.solve_implicit(u2, theta, g, "x")
        plan.apply_explicit(u2, theta, g, "x")
        plan.solve_implicit(u2, theta, g, "y")


def _get_plan(mask: DomainMask, label: int) -> _AdiPlan:
    cache = getattr(mask, "_adi_plans", None)
    if cache is None:
        cache = {}
        mask._adi_plans = cache
    plan = cache.get(label)
    if plan is None:
        sel = mask.cells(label)
        if not sel.any():
            raise EmptyDomainError(f"label {label} has no cells")
        plan = _AdiPlan(sel, mask.grid)
        cache[label] = plan
    return plan


def solve_hitting_field(mask: DomainMask, label: int, t: float, n_steps: int = 128) -> SurvivalField:
    """Field of boundary-hitting probabilities p_t on one nodal domain.

    Solves u_t = Laplace(u), u = 1 on the absorbing cells, u(0) = 0, and
    clips the result to [0, 1], recording the clip magnitudes.  n_steps
    (at least 10) is the number of ADI steps on general masks; rectangles
    are solved exactly in time and only validate it.
    """
    if t < 0:
        raise InvalidParameterError("t must be nonnegative")
    if n_steps < 10:
        raise InvalidParameterError("n_steps must be at least 10")
    plan = _get_plan(mask, label)
    grid = mask.grid
    sel = plan.inmask
    vals = np.ones((grid.ny, grid.nx))
    vals[sel] = 0.0
    _evolve(plan, vals, 1.0, t, n_steps)
    inner = vals[sel]
    clip_low = max(0.0, float(-inner.min(initial=0.0)))
    clip_high = max(0.0, float(inner.max(initial=0.0) - 1.0))
    np.clip(vals, 0.0, 1.0, out=vals)
    vals[~sel] = 1.0
    return SurvivalField(grid=grid, t=t, values=vals, label=label,
                         clip_low=clip_low, clip_high=clip_high)


def heat_content(mask: DomainMask, label: int, t: float, n_steps: int = 128) -> float:
    """Area-weighted integral of p_t over the domain (n_steps as in solve_hitting_field)."""
    fld = solve_hitting_field(mask, label, t, n_steps)
    sel = mask.cells(label)
    return float(fld.values[sel].sum() * mask.grid.h ** 2)


def heat_content_curve(mask: DomainMask, label: int, t_list, n_steps: int = 128) -> HeatContentCurve:
    """Heat content at each time plus the c * sqrt(t) least-squares slope.

    One evolution visits the ascending times (the flow is autonomous, so
    continuing from a snapshot is exact).  Rectangles take each leg exactly
    in time; on other masks the first leg gets n_steps (at least 10) ADI
    steps and each later leg max(10, n_steps/4) Peaceman-Rachford steps.
    The fit is constrained through the origin with weights 1/sqrt(t), i.e.
    equal relative weight across the decade; r^2 is reported against the
    fit.
    """
    if n_steps < 10:
        raise InvalidParameterError("n_steps must be at least 10")
    times = np.asarray(sorted(t_list), dtype=float)
    if times.size < 4:
        raise InvalidParameterError("need at least 4 times for a slope fit")
    if times[0] <= 0:
        raise InvalidParameterError("times must be positive")
    if times[-1] / times[0] < 10 * (1 - 1e-9):
        raise InvalidParameterError("time list must span at least one decade")
    rho = domain_inradius_cached(mask, label)
    if times[-1] > rho ** 2 * (1 + 1e-9):
        raise InvalidParameterError(
            f"largest time {times[-1]:.3g} exceeds inradius^2 = {rho ** 2:.3g}")

    plan = _get_plan(mask, label)
    grid = mask.grid
    sel = plan.inmask
    cell_area = grid.h ** 2
    n_leg = max(10, n_steps // 4)

    vals = np.ones((grid.ny, grid.nx))
    vals[sel] = 0.0
    contents = np.empty(times.size)
    t_prev = 0.0
    for i, t in enumerate(times):
        _evolve(plan, vals, 1.0, t - t_prev,
                n_steps if i == 0 else n_leg, startup=(i == 0))
        contents[i] = np.clip(vals[sel], 0.0, 1.0).sum() * cell_area
        t_prev = t

    sqrt_t = np.sqrt(times)
    slope = float(contents.sum() / sqrt_t.sum())    # weighted LS, w = 1/sqrt(t)
    resid = contents - slope * sqrt_t
    ss_tot = float(((contents - contents.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return HeatContentCurve(times=times, contents=contents, slope=slope,
                            r_squared=r2, running_slopes=contents / sqrt_t)


def domain_inradius_cached(mask: DomainMask, label: int) -> float:
    cache = getattr(mask, "_inradii", None)
    if cache is None:
        cache = {}
        mask._inradii = cache
    if label not in cache:
        from .nodal import domain_inradius
        cache[label] = domain_inradius(mask, label)
    return cache[label]


def dirichlet_semigroup_field(model, mask: DomainMask, label: int, t: float,
                              n_steps: int = 128) -> ScalarField:
    """Killed heat evolution of the eigenfunction data on one nodal domain.

    For eigenfunction data this must reproduce exp(-lambda t) u up to
    O(h^2) on rectangles, which are exact in time, and O(h^2 + dt^2) on
    other masks, which take n_steps ADI steps (at least 10).  Cells outside
    the domain are zero.
    """
    if t < 0:
        raise InvalidParameterError("t must be nonnegative")
    plan = _get_plan(mask, label)
    grid = mask.grid
    sel = plan.inmask
    xs, ys = grid.cell_center_mesh()
    vals = np.zeros((grid.ny, grid.nx))
    vals[sel] = np.asarray(model.evaluate(xs, ys), dtype=float)[sel]
    if t > 0:
        if n_steps < 10:
            raise InvalidParameterError("n_steps must be at least 10")
        _evolve(plan, vals, 0.0, t, n_steps)
    vals[~sel] = 0.0
    return ScalarField(grid=grid, values=vals)
