"""Deterministic finite-difference solvers for killed heat flow on masked grids.

The PDE is u_t = Laplace(u) (diffusivity 1, matching Brownian increments of
variance 2 dt per coordinate), discretized by the five-point Laplacian on
the cell centers.  Each domain shape has one solver:

- Solid axis-aligned rectangles of cells (unit squares, torus sign cells,
  corridor strips) are exact in time, and n_steps plays no part.  The
  hitting problem factorizes: the killed walk is two interval walks, so
  p_t = 1 - S_y (x) S_x, and the heat content is a product of the two
  axes' lost masses (van den Berg & Srisatkunarajah, PTRF 86, 1990),
  which needs no transform at all.  Fields, of the hitting problem and of
  eigenfunction data (dirichlet_semigroup_field), keep the 2-D DST: one
  forward transform, a diagonal decay exp(-t lambda_y) x exp(-t lambda_x)
  and one inverse transform.
- Every other mask is stepped with Crank-Nicolson realized as a
  Peaceman-Rachford directional split, the first two steps done as split
  implicit-Euler half-steps to damp the discontinuous start data.  Each
  axis keeps the domain's cells as one vector of runs, full periodic lines
  first; each directional solve is one direct SPD tridiagonal solve (LAPACK
  pttrs) over that vector, factored once per step size with zero
  couplings between runs, so the cost per step is O(cells) with no
  iteration tolerances anywhere.  The cells are gathered once per
  evolution and permuted between the x and y orders at each change of
  axis.  A large vector is cut at run starts into one chunk per usable
  CPU; each stage of half-steps on one axis runs its chunks on threads,
  and LAPACK is called through scipy's Cython API by ctypes, which
  releases the GIL.  A zero coupling makes a chunk's arithmetic that of
  the whole vector, so the bytes do not depend on the CPU count.

Dirichlet data is anchored at cell faces via ghost extrapolation
(ghost = 2 g - u), so the absorbing wall sits exactly on the boundary of the
stair-step cell region rather than half a cell outside it.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, dstn, idstn
from scipy.linalg import cython_lapack

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

def _dirichlet_exponent(n: int, h: float, duration: float) -> np.ndarray:
    """-duration lambda_k for the DST-II modes k = 1..n of one axis.

    lambda_k = 4/h^2 sin^2(pi k / 2n) are the eigenvalues of minus the
    face-anchored Dirichlet second difference on n cell centers.
    """
    k = np.arange(1, n + 1)
    return -duration * (4 / h ** 2) * np.sin(np.pi * k / (2 * n)) ** 2


def _lapack(name: str, n_args: int):
    """A LAPACK routine of scipy's Cython API as a ctypes function.

    ctypes releases the GIL around a foreign call, so the chunks of a stage
    solve on all cores at once; f2py's wrappers hold it.  Every argument is
    passed by address.  The capsule functions get prototypes of their own
    rather than argtypes set on the process-wide ctypes.pythonapi.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


_dpttrf = _lapack("dpttrf", 4)     # (n, d, e, info)
_dpttrs = _lapack("dpttrs", 7)     # (n, nrhs, d, e, b, ldb, info)


def _check_lapack_args(d, e, *rhs):
    """LAPACK reads these through raw pointers: d, e and every right-hand
    side must be C-contiguous float64, e one shorter than d, and each rhs
    whole rows of d.size cells."""
    arrays = (d, e) + rhs
    if (any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays)
            or e.size != d.size - 1 or any(b.size % d.size for b in rhs)):
        raise ValueError("tridiagonal arguments must be C-contiguous float64 "
                         "with len(e) == len(d) - 1 and whole rows of len(d)")


def _pt_factor(d: np.ndarray, e: np.ndarray):
    """LDL^T factors of the SPD tridiagonal with diagonal d and off-diagonal
    e, both overwritten."""
    _check_lapack_args(d, e)
    n, info = ctypes.c_int(d.size), ctypes.c_int(0)
    _dpttrf(ctypes.byref(n), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    if info.value != 0:   # pragma: no cover - the matrix is diagonally dominant
        raise SolverError(f"tridiagonal factorization failed for {d.size} cells: "
                          f"info {info.value}")
    return d, e


def _cyclic_factor(n: int, theta: float):
    """Factors of (I - theta L) on a ring of n > 2 cells, with the
    Sherman-Morrison corrected corners used by _solve_cyclic."""
    diag = 1 + 2 * theta
    d = np.full(n, diag)
    d[0] = 2 * diag                        # diag - gamma, gamma = -diag
    d[-1] = diag + theta * theta / diag    # diag - off^2 / gamma
    return _pt_factor(d, np.full(n - 1, -theta))


def _pt_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system in place for rhs, a C-contiguous vector or
    stack of rows (each row one right-hand side), and return rhs."""
    d, e = factor
    if d.size == 1:
        rhs /= d    # dpttrs would scale by the reciprocal
        return rhs
    _check_lapack_args(d, e, rhs)
    n, info = ctypes.c_int(d.size), ctypes.c_int(0)
    nrhs = ctypes.c_int(rhs.size // d.size)
    _dpttrs(ctypes.byref(n), ctypes.byref(nrhs), d.ctypes.data, e.ctypes.data,
            rhs.ctypes.data, ctypes.byref(n), ctypes.byref(info))
    if info.value != 0:   # pragma: no cover
        raise SolverError(f"tridiagonal solve failed: info {info.value}")
    return rhs


def _explicit_cyclic(rows: np.ndarray, theta: float, out: np.ndarray):
    """(I + theta L) along every row of rows (one ring per row), into out."""
    lap = np.roll(rows, 1, axis=1)
    lap += np.roll(rows, -1, axis=1)
    lap -= 2 * rows
    lap *= theta
    np.add(rows, lap, out=out)


def _solve_cyclic(rhs: np.ndarray, theta: float, factor):
    """Batched cyclic tridiagonal solve via Sherman-Morrison.

    factor is _cyclic_factor(n, theta); rings of one or two cells are
    solved directly and take None.
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


class _Runs:
    """k rings of n cells, then size - k * n cells in runs coupled to nothing
    outside themselves.  first, last and single are the positions, in the
    tail after the ring cells, of each longer run's end cells and of the
    one-cell runs.  The methods act on this many cells of a vector.
    """

    def __init__(self, k: int, n: int, size: int, first, last, single):
        self.k, self.n, self.size = k, n, size
        self.first, self.last, self.single = first, last, single

    def factor(self, theta: float):
        """(ring factor, tail factor) of (I - theta L) at one step size.

        The tail is factored whole: a zero coupling leaves the next pivot
        exact (d - 0 * 0), so every run gets its own factors bit for bit.
        Rings of one or two cells, and an empty tail, take None.
        """
        ring = _cyclic_factor(self.n, theta) if self.k and self.n > 2 else None
        m = self.size - self.k * self.n
        if not m:
            return ring, None
        d = np.full(m, 1 + 2 * theta)
        d[self.first] = d[self.last] = 1 + 3 * theta      # face-anchored ends
        d[self.single] = 1 + 4 * theta
        e = np.full(m, -theta)
        e[self.last] = e[self.single] = 0.0                # no coupling past a run
        return ring, _pt_factor(d, e[:-1])

    # -- explicit (I + theta L) with face-anchored Dirichlet value g ---------

    def explicit(self, w: np.ndarray, theta: float, g: float, out: np.ndarray):
        """Apply to w, writing out.  The operation order is part of the
        result's bytes: w + theta ((w[i+1] - 2 w[i]) + w[i-1]) inside a
        run, w + theta ((w[i+-1] - 3 w) + 2 g) at its end cells and
        w (1 - 4 theta) + 4 theta g on a one-cell run."""
        kn = self.k * self.n
        if self.k:
            _explicit_cyclic(w[:kn].reshape(self.k, self.n), theta,
                             out[:kn].reshape(self.k, self.n))
        v, o = w[kn:], out[kn:]
        # every cell as an interior one, then the run ends overwritten
        lap = np.multiply(v[1:-1], 2, out=o[1:-1])
        np.subtract(v[2:], lap, out=lap)
        lap += v[:-2]
        lap *= theta
        lap += v[1:-1]
        f, l, s = self.first, self.last, self.single
        o[f] = v[f] + theta * (v[f + 1] - 3 * v[f] + 2 * g)
        o[l] = v[l] + theta * (v[l - 1] - 3 * v[l] + 2 * g)
        o[s] = v[s] * (1 - 4 * theta) + 4 * theta * g

    # -- implicit (I - theta L) x = w, solved in place ------------------------

    def solve(self, w: np.ndarray, theta: float, g: float, factor):
        """Solve with the ends' Dirichlet data g; factor is factor(theta)."""
        ring, tail = factor
        kn = self.k * self.n
        if self.k:
            rows = w[:kn].reshape(self.k, self.n)
            rows[...] = _solve_cyclic(rows, theta, ring)
        v = w[kn:]
        if v.size:
            v[self.first] += 2 * theta * g
            v[self.last] += 2 * theta * g
            v[self.single] += 4 * theta * g
            _pt_solve(tail, v)


class _RunVector(_Runs):
    """The in-domain cells of one axis as one vector of runs.

    lines holds the rows (x) or columns (y) of the mask, n cells each.  The
    k full lines of a periodic axis come first, as k rings of n cells; then
    every other maximal run of consecutive in-domain cells.  A line of a
    periodic axis is read from its first out-of-domain cell, so a run
    across the seam stays one run.  index is the flat index into the grid
    of each cell in this order.
    """

    def __init__(self, lines: np.ndarray, periodic: bool, line_stride: int, cell_stride: int):
        m, n = lines.shape
        ring = lines.all(axis=1) if periodic else np.zeros(m, dtype=bool)
        shift = np.argmin(lines, axis=1) if periodic else np.zeros(m, dtype=np.intp)
        cells = (shift[:, None] + np.arange(n)) % n
        li, j = np.nonzero(np.take_along_axis(lines, cells, axis=1) & ~ring[:, None])
        rings = np.flatnonzero(ring)
        self.index = np.concatenate([
            np.repeat(rings, n) * line_stride + np.tile(np.arange(n), rings.size) * cell_stride,
            li * line_stride + cells[li, j] * cell_stride])
        # a run starts at a new line or after a skipped cell
        new = np.ones(li.size + 1, dtype=bool)
        new[1:-1] = (li[1:] != li[:-1]) | (j[1:] != j[:-1] + 1)
        start, end = new[:-1], new[1:]
        super().__init__(rings.size, n, self.index.size, np.flatnonzero(start & ~end),
                         np.flatnonzero(end & ~start), np.flatnonzero(start & end))

    def split(self, parts: int):
        """The vector cut into about `parts` equal chunks (a, b, runs), each
        cut at the start of a ring or run nearest its share; a vector with
        fewer starts gets fewer chunks, and none is empty.  Couplings between
        runs are zero, so each chunk's factors, solves and explicit passes
        are those of the whole vector on its cells, bit for bit."""
        kn = self.k * self.n
        starts = np.concatenate([np.arange(0, kn, self.n),
                                 kn + np.union1d(self.first, self.single)])
        share = np.arange(1, parts) * self.size / parts
        right = np.minimum(np.searchsorted(starts, share), starts.size - 1)
        left = np.maximum(right - 1, 0)
        near = np.where(share - starts[left] <= starts[right] - share,
                        starts[left], starts[right])
        bounds = np.unique(np.concatenate([[0], near, [self.size]]))
        return [self._chunk(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def _chunk(self, a: int, b: int):
        kn = self.k * self.n
        t0, t1 = max(a - kn, 0), max(b - kn, 0)

        def within(pos):
            return pos[np.searchsorted(pos, t0):np.searchsorted(pos, t1)] - t0

        k = (min(b, kn) - min(a, kn)) // self.n
        return a, b, _Runs(k, self.n, b - a, within(self.first), within(self.last),
                           within(self.single))


class _AdiPlan:
    """Solver plan for one domain.

    A solid axis-aligned rectangle of cells (rect = (y0, y1, x0, x1)) is
    served exactly in time on its bounding slice: heat contents through
    the two 1-D factors of the hitting problem, fields through the 2-D
    DST.  ones_dst holds s = DST-II (ortho) of ones on the y and on the x
    axis's cells.  Any other mask is held, per axis, as one _RunVector of
    its in-domain cells (rows for x, columns for y); x_to_y and y_to_x are
    the permutations between the two orders (w_y = w_x[x_to_y]).  _evolve
    gathers the cells once, steps on the vectors and scatters them back
    once, so cells outside the domain are never touched and keep the
    boundary value.
    """

    def __init__(self, inmask: np.ndarray, grid: GridSpec):
        self.grid = grid
        self.inmask = inmask
        self.rect = self._detect_rectangle(inmask, grid)
        if self.rect is not None:
            y0, y1, x0, x1 = self.rect
            self.ones_dst = [dst(np.ones(n), type=2, norm="ortho") for n in (y1 - y0, x1 - x0)]
            return
        nx = inmask.shape[1]
        self.runs = {"x": _RunVector(inmask, grid.periodic_x, nx, 1),
                     "y": _RunVector(inmask.T, grid.periodic_y, 1, nx)}
        order = np.arange(self.runs["x"].index.size)
        pos = np.empty(inmask.size, dtype=np.intp)
        pos[self.runs["x"].index] = order
        self.x_to_y = pos[self.runs["y"].index]
        self.y_to_x = np.empty_like(self.x_to_y)
        self.y_to_x[self.x_to_y] = order

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

    # -- the hitting problem on a rectangle: two interval walks ---------------

    def hitting_content(self, duration: float) -> float:
        """Heat content of the hitting field at time duration.

        The killed walk on a rectangle is two independent interval walks,
        so p = 1 - S_y (x) S_x.  Each axis loses the mass
        A = sum_k -expm1(-duration lambda_k) s_k^2 (the sum of its 1 - S),
        and the content is h^2 (n_x A_y + n_y A_x - A_x A_y).  Every term
        of A is nonnegative, so nothing cancels.
        """
        h = self.grid.h
        (ny, a_y), (nx, a_x) = [
            (s.size, float(np.dot(-np.expm1(_dirichlet_exponent(s.size, h, duration)), s * s)))
            for s in self.ones_dst]
        return h ** 2 * (nx * a_y + ny * a_x - a_x * a_y)

    # -- exact exp(duration L) on a rectangle, Dirichlet value g --------------

    def apply_exact(self, u2: np.ndarray, g: float, duration: float):
        y0, y1, x0, x1 = self.rect
        blk = u2[y0:y1, x0:x1]
        h = self.grid.h
        coef = dstn(blk - g, type=2, norm="ortho", overwrite_x=True)
        coef *= np.exp(_dirichlet_exponent(y1 - y0, h, duration))[:, None]
        coef *= np.exp(_dirichlet_exponent(x1 - x0, h, duration))
        blk[:] = idstn(coef, type=2, norm="ortho", overwrite_x=True)
        blk += g


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool():
    """The pool on which ADI stages run all chunks but the first.  A forked
    child gets a new one: it inherits the parent's pool without its worker
    threads, and a task submitted there would never run."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(1, _CPUS - 1), thread_name_prefix="nodalheat-adi")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)

# The smallest chunk worth a thread.  Ten Peaceman-Rachford steps on disks
# of 16000-96000 cells, 2 vCPUs, median of 15: two chunks took 1.5x the
# time of one at 16000 cells, broke even at 40000-48000 and won 1.2-1.3x
# at 64000 and 1.35x at 96000.  Below that a stage's numpy calls are too
# short to release the GIL for long, and the two threads queue for it.
_MIN_CHUNK_CELLS = 1 << 15


def _chunk_count(cells: int) -> int:
    return max(1, min(_CPUS, cells // _MIN_CHUNK_CELLS))


def _stages(startup_steps: int, steps: int, theta_be: float, theta: float):
    """The half-steps of an evolution as stages: (axis, [(explicit, theta)])
    for each run of consecutive half-steps on one axis.  Each startup step
    is two implicit-Euler half-steps per axis at theta_be; then come the
    Peaceman-Rachford steps at theta."""
    half_steps = ([("x", False, theta_be), ("y", False, theta_be)] * (2 * startup_steps)
                  + [("y", True, theta), ("x", False, theta),
                     ("x", True, theta), ("y", False, theta)] * steps)
    stages = []
    for ax, explicit, th in half_steps:
        if not stages or stages[-1][0] != ax:
            stages.append((ax, []))
        stages[-1][1].append((explicit, th))
    return stages


def _evolve(plan: _AdiPlan, u2: np.ndarray, g: float, duration: float,
            n_steps: int, startup: bool = True, chunks: int | None = None):
    """Advance the masked heat equation by duration, mutating u2 in place.

    Rectangles take the exact propagator; n_steps and startup only shape
    the ADI stepping of other masks, which runs on the plan's run vectors
    in stages, one per run of half-steps on one axis.  Each stage gathers
    its axis's order from the previous stage's buffer (the first from u2),
    then solves and applies the explicit passes; the last also scatters
    back into u2.  A stage runs as run-aligned chunks of its vector, the
    first on the calling thread and the others on _POOL, and waiting for
    them all is the barrier before the next gather.  The bytes do not
    depend on the chunk count: _chunk_count(cells) unless chunks is given.
    """
    if duration == 0 or n_steps == 0:
        return
    if plan.rect is not None:
        plan.apply_exact(u2, g, duration)
        return
    dt = duration / n_steps
    h = plan.grid.h
    n_startup = min(2, n_steps) if startup else 0
    stages = _stages(n_startup, n_steps - n_startup, (dt / 2) / h ** 2, dt / (2 * h ** 2))
    u = u2.reshape(-1)
    parts = chunks or _chunk_count(plan.runs["x"].size)
    # three buffers: a stage gathers from one while its chunks write the
    # other two, so no chunk overwrites cells another is still reading
    bufs = [np.empty(plan.runs["x"].size) for _ in range(3)]
    to = {"x": plan.y_to_x, "y": plan.x_to_y}
    splits = {ax: runs.split(parts) for ax, runs in plan.runs.items()}
    # Every chunk is factored here, on the calling thread.  Blocks that a
    # worker thread allocates stay resident in its malloc arena once freed:
    # factoring inside the chunks' tasks raised the peak RSS of a 1024^2
    # rectangle solve after a 512^2 ell curve by 3 MB, and did not change
    # the ell curve's time (0.87-0.95 s either way, 2 vCPUs).
    thetas = {th for _, ops in stages for _, th in ops}
    factors = {ax: {(a, th): piece.factor(th) for a, _, piece in pieces for th in thetas}
               for ax, pieces in splits.items()}
    src = 2
    for i, (ax, ops) in enumerate(stages):
        runs = plan.runs[ax]
        w, spare = (j for j in range(3) if j != src)
        task = functools.partial(
            _stage_chunk, ops, g, factors[ax], (u, runs.index) if i == 0 else (bufs[src], to[ax]),
            bufs[w], bufs[spare], (u, runs.index) if i == len(stages) - 1 else None)
        _run_chunks(task, splits[ax])
        src = spare if sum(explicit for explicit, _ in ops) % 2 else w


def _stage_chunk(ops, g, factors, gather, w, spare, scatter, chunk):
    """One stage on the cells [a, b) of one chunk: gather them from
    source[order], step them through ops in w (an explicit pass moves them
    to spare and the two trade places) and, on the last stage, scatter them
    to target[order].  factors maps (a, theta) to the chunk's factors."""
    a, b, piece = chunk
    source, order = gather
    # mode "raise", the default, would take into a temporary and copy
    np.take(source, order[a:b], out=w[a:b], mode="clip")
    for explicit, th in ops:
        if explicit:
            piece.explicit(w[a:b], th, g, spare[a:b])
            w, spare = spare, w
        else:
            piece.solve(w[a:b], th, g, factors[a, th])
    if scatter is not None:
        target, order = scatter
        target[order[a:b]] = w[a:b]


def _run_chunks(task, chunks):
    """task on every chunk: the first on this thread, the rest on _POOL."""
    futures = [_POOL.submit(task, chunk) for chunk in chunks[1:]]
    try:
        task(chunks[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


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


def _hitting_plan(mask: DomainMask, label: int, t: float, n_steps: int) -> _AdiPlan:
    if t < 0:
        raise InvalidParameterError("t must be nonnegative")
    if n_steps < 10:
        raise InvalidParameterError("n_steps must be at least 10")
    return _get_plan(mask, label)


def solve_hitting_field(mask: DomainMask, label: int, t: float, n_steps: int = 128) -> SurvivalField:
    """Field of boundary-hitting probabilities p_t on one nodal domain.

    Solves u_t = Laplace(u), u = 1 on the absorbing cells, u(0) = 0, and
    clips the result to [0, 1], recording the clip magnitudes.  n_steps
    (at least 10) is the number of ADI steps on general masks.  A rectangle
    is solved exactly in time by the 2-D DST, and n_steps is only
    validated.  There exp(t L_1) is entrywise nonnegative and
    substochastic, so the exact field lies in [0, 1] and the clip takes
    rounding only.
    """
    return _hitting_field(_hitting_plan(mask, label, t, n_steps), label, t, n_steps)


def _hitting_field(plan: _AdiPlan, label: int, t: float, n_steps: int) -> SurvivalField:
    grid = plan.grid
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
    """Area-weighted integral of p_t over the domain (n_steps as in
    solve_hitting_field).  On a rectangle it is the product form of the
    two axes' lost masses, exact in time, with no field and no clip."""
    plan = _hitting_plan(mask, label, t, n_steps)
    if plan.rect is not None:
        return plan.hitting_content(t)
    fld = _hitting_field(plan, label, t, n_steps)
    return float(fld.values[plan.inmask].sum() * mask.grid.h ** 2)


def heat_content_curve(mask: DomainMask, label: int, t_list, n_steps: int = 128) -> HeatContentCurve:
    """Heat content at each time plus the c * sqrt(t) least-squares slope.

    On a rectangle each content is heat_content's product form at that
    time: exact in time, with no field, and so with nothing to clip.
    Other masks take one evolution over the ascending times (the flow is
    autonomous, so continuing from a snapshot is exact): the first leg gets
    n_steps (at least 10) ADI steps and each later leg max(10, n_steps/4)
    Peaceman-Rachford steps, and each content sums the field clipped to
    [0, 1].  The fit is constrained through the origin with weights
    1/sqrt(t), i.e. equal relative weight across the decade; r^2 is
    reported against the fit.
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
    if plan.rect is not None:
        contents = np.array([plan.hitting_content(t) for t in times])
    else:
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
    """nodal.domain_inradius, kept on the mask.  A rectangle's comes from
    its extents, the value the EDT gives: its deepest cell lies
    (min(ny, nx) + 1) // 2 cells from the nearest outside cell, and a
    rectangle is at least two cells wide, so the EDT's floor of half a
    cell never binds."""
    cache = getattr(mask, "_inradii", None)
    if cache is None:
        cache = {}
        mask._inradii = cache
    if label not in cache:
        rect = _get_plan(mask, label).rect
        if rect is None:
            from .nodal import domain_inradius
            cache[label] = domain_inradius(mask, label)
        else:
            y0, y1, x0, x1 = rect
            cache[label] = ((min(y1 - y0, x1 - x0) + 1) // 2 - 0.5) * mask.grid.h
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
