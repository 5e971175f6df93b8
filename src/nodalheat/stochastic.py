"""Brownian path ensembles with absorbing boundaries and their estimators.

Generator convention: the diffusion generator is the full Laplacian, so a
path increment over a step dt is Normal(0, 2 dt) per coordinate.  Every
closed form here (erfc hitting laws, interval escape series, cone exit law)
is written in that convention; the finite-difference module solves the
matching equation u_t = Laplace(u).

Reproducibility: increments for step k of an ensemble come from a
counter-based generator keyed by (seed, stream, k), so results are pure
functions of (inputs, config) regardless of how the ensemble is scheduled.
Two estimators called with the same config see bitwise identical paths,
which makes shared-path identities exact.  A walk owns one Philox generator
and re-keys it for each step (`_keyed_stream`); the draws equal those of a
generator built for the step's key.  The time-stepped walks (grid domain,
line, interval, wedge) share one engine, `_absorbing_walk`: it owns the
time grid, the stream and the Brownian-bridge crossing correction, draws
one step per re-keying, and asks the walk only for its walls (kills and
distances to each wall), at the start points and after every step.  The
cone exit law is a harmonic measure with no time horizon, so
`cone_exit_mc` samples it by walk-on-spheres instead: no time step, and
every path runs until it is within `CONE_SHELL` of the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import InvalidParameterError, ResolutionWarning
from .nodal import DomainMask, _cell_index, _ghost_table, interpolate_with_gradient

__all__ = [
    "PathEnsembleConfig",
    "McEstimate",
    "ConeSpec",
    "SupHittingResult",
    "estimate_hitting_probability",
    "feynman_kac_dirichlet",
    "xi_evolution",
    "sup_hitting_check",
    "halfplane_hitting_exact",
    "interval_escape_exact",
    "escape_interval_mc",
    "cone_exit_exact",
    "cone_exit_mc",
]

CONE_SHELL = 1e-6           # walk-on-spheres stops a path this close to the boundary
_TINY_GRAD = 1e-300
_MAX_DIST = 1e100


def _level_set_distance(f, gx, gy):
    """First-order distance to the zero set of the interpolant, capped."""
    # sqrt(gx^2 + gy^2) is within an ulp of np.hypot and far cheaper
    g = gx * gx
    g += gy * gy
    np.sqrt(g, out=g)
    np.maximum(g, _TINY_GRAD, out=g)
    d = np.abs(f)
    d /= g
    return np.minimum(d, _MAX_DIST, out=d)


@dataclass(frozen=True)
class PathEnsembleConfig:
    """Ensemble size, step, seed and bridge flag; dt=None means t/1000."""

    n_paths: int = 100_000
    dt: float | None = None
    seed: int = 20260808
    bridge_correction: bool = True

    def __post_init__(self):
        if self.n_paths < 100:
            raise InvalidParameterError("n_paths must be at least 100")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise InvalidParameterError("dt must be positive and finite")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_paths: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        n = samples.size
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=float(samples.mean()), std_error=se, n_paths=n)


@dataclass(frozen=True)
class ConeSpec:
    """Planar cone W(alpha) around the positive x-axis with stop radius r."""

    alpha: float
    r: float

    def __post_init__(self):
        if not (0 < self.alpha <= 2 * np.pi):
            raise InvalidParameterError("opening angle must be in (0, 2 pi]")
        if not self.r > 1:
            raise InvalidParameterError("stopping radius must exceed the start radius 1")


@dataclass(frozen=True)
class SupHittingResult:
    mc: McEstimate
    exact: float


# RNG streams as (tag, base, span), one owner each: counter k in [0, span)
# keys Philox with (seed, tag << 56 | base + k).  Streams must not overlap,
# and changing a number here changes the bytes of its owner.
_STREAMS = {
    "grid": (1, 0, 1 << 56),                    # _walk_in_domain
    "line": (2, 0, 1 << 56),                    # sup_hitting_check
    "interval": (3, 0, 1 << 56),                # escape_interval_mc
    "cone": (4, 0, 1 << 56),                    # cone_exit_mc
    "corridor": (6, 0, 1 << 54),                # bounds._corridor_walk, one key per walk
    "wedge": (6, 1 << 54, 1 << 54),             # _wedge_walk
    "corridor_starts": (6, 1 << 55, 1 << 55),   # bounds.avoided_crossing_scan
    "points": (7, 0, 1),                        # bounds._interior_points
}


def _keyed_stream(seed: int, stream):
    """rng(k) for the counters k of one stream, all served by one generator.

    rng(k) re-keys one Philox with (seed, tag << 56 | base + k) at counter 0
    and an empty buffer, the state Philox(key=...) starts in, so it draws
    what a generator built for that key draws.  Building a Philox reads OS
    entropy and costs several re-keyings.  Each call makes its own
    generator, so walks on different threads share none.
    """
    tag, base, span = stream
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (tag << 56) | base], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["key"] = key

    def rng(k: int) -> np.random.Generator:
        if not 0 <= k < span:
            raise ValueError(f"counter {k} outside RNG stream {stream}")
        key[1] = (tag << 56) | (base + k)
        bitgen.state = state
        return gen

    return rng


def _step_rng(seed: int, stream, k: int) -> np.random.Generator:
    """A generator for counter k of the stream, for a single draw."""
    return _keyed_stream(seed, stream)(k)


def _steps_for(t: float, cfg: PathEnsembleConfig):
    if not 0 < t < math.inf:
        raise InvalidParameterError("horizon t must be positive and finite")
    dt_req = cfg.dt if cfg.dt is not None else t / 1000.0
    if not dt_req <= t / 100.0 * (1 + 1e-9):
        raise InvalidParameterError(
            f"dt={dt_req:.3g} violates dt <= t/100 for horizon t={t:.3g}")
    n_steps = max(1, math.ceil(t / dt_req - 1e-9))
    return n_steps, t / n_steps


def _bridge_crossing(d0, d1, dt: float):
    """P(a step's Brownian bridge crosses a wall), from each wall's distances
    d0 and d1 at the step's ends: exp(-d0 d1 / dt) for one wall (Gobet, SPA
    87, 2000), p + q - p q for two."""
    crossed = None
    for a, b in zip(d0, d1):
        # exp(-min(a b / dt, 700)), in place: np.exp is slow below about -708,
        # and exp(-700) = 1e-304 kills only on a uniform of exactly 0.0
        p = a * b
        p /= dt
        np.minimum(p, 700.0, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        crossed = p if crossed is None else crossed + p - crossed * p
    return crossed


def _absorbing_walk(walls, pos, t: float, cfg: PathEnsembleConfig, stream,
                    n_uniform: int = 1):
    """Killed walk of one path per row of pos (n, d) over t; returns (killed, end).

    walls(points, with_dist) maps points (m, d) to (dead, dist): their
    kills and a tuple of their distances to each wall, empty unless
    with_dist.  It may wrap the points in place; the walk goes on from
    them.  The engine asks it about a copy of pos, with with_dist =
    cfg.bridge_correction, then after every step.  A path dead at its start
    is killed and ends at its row of pos as given.  The steps are those of
    _steps_for(t, cfg).  Only live paths are held, compacted in order.
    Step k draws Normal(0, 2 dt) increments (m, d) for the m live paths,
    then, with the bridge on, uniforms (m, n_uniform), from counter k of
    the stream keyed by cfg.seed (_keyed_stream).  The bridge is on when
    the start query returned distances (cfg.bridge_correction and some
    wall); a step then also kills on its first uniform with the
    _bridge_crossing probability.  A path is killed at its first dead step
    and ends there; end is the last point of paths live after the steps.
    """
    n_steps, dt = _steps_for(t, cfg)
    killed, dist = walls(pos.copy(), cfg.bridge_correction)
    bridge = len(dist) > 0
    end = pos.copy()
    live = np.flatnonzero(~killed)
    pos = pos[live]
    dist = tuple(x[live] for x in dist)
    sigma = math.sqrt(2 * dt)
    rng_at = _keyed_stream(cfg.seed, stream)
    for k in range(n_steps):
        if not live.size:
            break
        rng = rng_at(k)
        new = rng.standard_normal(pos.shape)
        new *= sigma
        new += pos
        dead, dist_new = walls(new, bridge)
        if bridge:
            u = rng.random((live.size, n_uniform))
            dead |= u[:, 0] < _bridge_crossing(dist, dist_new, dt)
        dist = dist_new
        sel = np.flatnonzero(dead)
        if sel.size:
            idx = live[sel]
            killed[idx] = True
            end[idx] = new[sel]
            keep = ~dead
            live = live[keep]
            new = np.compress(keep, new, axis=0)
            dist = tuple(x[keep] for x in dist)
        pos = new
    end[live] = pos
    return killed, end


# ---------------------------------------------------------------------------
# grid-domain walks
# ---------------------------------------------------------------------------

def _wrap(pos: np.ndarray, grid):
    # np.mod(a, L) == a exactly for 0 <= a < L, so only the rows that left
    # the period take the mod and every row keeps lo + a, byte for byte
    for c, periodic, lo, period in ((0, grid.periodic_x, grid.x0, grid.extent_x),
                                    (1, grid.periodic_y, grid.y0, grid.extent_y)):
        if periodic:
            a = pos[:, c] - lo
            out = a < 0
            out |= a >= period
            if out.any():
                a[out] = np.mod(a[out], period)
            np.add(a, lo, out=pos[:, c])


def _field_table(mask: DomainMask) -> np.ndarray:
    """Ghost table of the mask's field samples, built once and kept on the
    mask for every walk and start check."""
    if mask._interp_table is None:
        mask._interp_table = _ghost_table(mask.field_values, mask.grid)
    return mask._interp_table


def _walk_in_domain(table: np.ndarray, grid, sign: int, starts: np.ndarray,
                    t: float, cfg: PathEnsembleConfig):
    """Absorbing walk of one path per start row; returns (absorbed, end).

    table is the field's ghost table (nodal._ghost_table; _field_table for
    a mask).  The one wall is the zero set: absorption tests the sign of the
    bilinear interpolant at the start points and at each step endpoint, and
    the engine's bridge test reads the distance to the local linearization
    of the zero set.
    """
    # Each step's interpolant stays referenced until the next one is built.
    # Freed at once, it leaves the heap top free, glibc trims it, and every
    # step faults the pages back in (5x the page faults at 100000 paths).
    held = []
    walled = not (grid.periodic_x and grid.periodic_y)    # else inside is all True

    def walls(new, with_dist):
        _wrap(new, grid)
        f, gx, gy, inside = held[:] = interpolate_with_gradient(table, grid, new)
        dist = (_level_set_distance(f, gx, gy),) if with_dist else ()
        f *= sign       # exact for sign = +-1
        dead = f <= 0
        if walled:
            dead |= np.logical_not(inside, out=inside)
        return dead, dist

    return _absorbing_walk(walls, np.asarray(starts, dtype=float), t, cfg, _STREAMS["grid"])


def _validate_start(mask: DomainMask, label: int, x):
    sgn = mask.sign(label)      # rejects an unknown label
    grid = mask.grid
    pt = np.asarray(x, dtype=float).reshape(1, 2)
    f, _, _, inside = interpolate_with_gradient(_field_table(mask), grid, pt)
    if not inside[0] or sgn * f[0] <= 0:
        raise InvalidParameterError(f"start point {tuple(pt[0])} is not inside the domain")
    iy, ix = _cell_index(grid, *pt[0])
    # five label reads: a whole-grid mask.cells(label) took 0.3 ms at 1024^2
    labels = mask.labels
    if labels[iy, ix] != label:
        raise InvalidParameterError(
            f"start point {tuple(pt[0])} lies in a cell outside domain label {label}")
    # the four neighbours, wrapped on a periodic axis; past a wall is outside
    ny, nx = labels.shape
    jy, jx = iy + np.array([0, 0, 1, -1]), ix + np.array([1, -1, 0, 0])
    if grid.periodic_y:
        jy %= ny
    if grid.periodic_x:
        jx %= nx
    if not (np.all((jy >= 0) & (jy < ny) & (jx >= 0) & (jx < nx))
            and np.all(labels[jy, jx] == label)):
        warnings.warn(
            "start point within one cell of the boundary; the estimate is "
            "discretization dominated", ResolutionWarning)
    return pt[0]


def _start_and_walk(mask: DomainMask, label: int, x, t: float, cfg: PathEnsembleConfig):
    """(x, absorbed, end): the start x checked, then cfg.n_paths walks from it."""
    pt = _validate_start(mask, label, x)
    return (pt, *_walk_in_domain(_field_table(mask), mask.grid, mask.sign(label),
                                 np.tile(pt, (cfg.n_paths, 1)), t, cfg))


def _estimates(model, mask: DomainMask, label: int, x, t: float, cfg: PathEnsembleConfig):
    """(p_t, killed, mass-conserving) at x from one walk; (None, u(x), u(x)) at t = 0.

    A path's killed value is u(end) if it survives, else 0.  The
    mass-conserving mean is killed + p_t * u(x), so the gap identity holds
    exactly; its standard error is that of u(end) psi + (1 - psi) u(x).
    """
    if t == 0:      # nothing walks: both evolutions are u(x) with error 0
        at_x = McEstimate(float(model.evaluate(*_validate_start(mask, label, x))), 0.0,
                          cfg.n_paths)
        return None, at_x, at_x
    pt, absorbed, end = _start_and_walk(mask, label, x, t, cfg)
    u0 = float(model.evaluate(*pt))
    vals = np.where(absorbed, 0.0, np.asarray(model.evaluate(end[:, 0], end[:, 1])))
    p = McEstimate.from_samples(absorbed.astype(float))
    fk = McEstimate.from_samples(vals)
    xi = McEstimate.from_samples(np.where(absorbed, u0, vals))
    return p, fk, replace(xi, mean=fk.mean + p.mean * u0)


def estimate_hitting_probability(mask: DomainMask, label: int, x, t: float,
                                 cfg: PathEnsembleConfig) -> McEstimate:
    """p_t(x): probability of hitting the domain boundary within time t."""
    _, absorbed, _ = _start_and_walk(mask, label, x, t, cfg)
    return McEstimate.from_samples(absorbed.astype(float))


def feynman_kac_dirichlet(model, mask: DomainMask, label: int, x, t: float,
                          cfg: PathEnsembleConfig) -> McEstimate:
    """E_x[u(path(t)) * survival]; equals exp(-lambda t) u(x) for eigenmodes.
    The killed element of _estimates."""
    return _estimates(model, mask, label, x, t, cfg)[1]


def xi_evolution(model, mask: DomainMask, label: int, x, t: float,
                 cfg: PathEnsembleConfig) -> McEstimate:
    """Mass-conserving evolution: killed flow plus absorbed mass frozen at x.
    The element of _estimates whose mean is killed + p_t * u(x) on the same
    paths, so (xi - dirichlet) = p_t * u(x) holds exactly for equal configs."""
    return _estimates(model, mask, label, x, t, cfg)[2]


# ---------------------------------------------------------------------------
# one-dimensional closed-form checks
# ---------------------------------------------------------------------------

def halfplane_hitting_exact(d: float, t: float) -> float:
    """P(hit a wall at distance d within t) = erfc(d / (2 sqrt(t)))."""
    return float(special.erfc(d / (2 * math.sqrt(t))))


def _line_walk(lo: float, hi: float, t: float, cfg: PathEnsembleConfig, stream):
    """Stopped flags of walks from 0 absorbed at lo < 0 < hi; a wall may be
    infinite, and an infinite wall has no distance."""
    finite = [w for w in (hi, lo) if math.isfinite(w)]

    def walls(new, with_dist):
        x = new[:, 0]
        dist = tuple(np.abs(w - x) for w in finite) if with_dist else ()
        return (x >= hi) | (x <= lo), dist

    stopped, _ = _absorbing_walk(walls, np.zeros((cfg.n_paths, 1)), t, cfg, stream)
    return stopped


def sup_hitting_check(a: float, t: float, cfg: PathEnsembleConfig) -> SupHittingResult:
    """Reflection-principle check: P(sup_{s<=t} B(s) > a) = erfc(a / (2 sqrt(t)))."""
    if not (a > 0 and t > 0):
        raise InvalidParameterError("need a > 0 and t > 0")
    hit = _line_walk(-np.inf, a, t, cfg, _STREAMS["line"])
    return SupHittingResult(mc=McEstimate.from_samples(hit.astype(float)),
                            exact=halfplane_hitting_exact(a, t))


def interval_escape_exact(a: float, t: float) -> float:
    """P(sup_{s<=t} |B(s)| > a), image-series closed form (variance 2t)."""
    if not (a > 0 and t > 0):
        raise InvalidParameterError("need a > 0 and t > 0")
    sigma = math.sqrt(2 * t)
    k_max = int(np.ceil((10 * sigma / a + 1) / 2)) + 2
    k = np.arange(-k_max, k_max + 1)
    upper = (2 * k + 1) * a / sigma
    lower = (2 * k - 1) * a / sigma
    survive = np.sum((-1.0) ** k * (special.ndtr(upper) - special.ndtr(lower)))
    return float(np.clip(1.0 - survive, 0.0, 1.0))


def _channel_survival(y0, w: float, t: float) -> np.ndarray:
    """P(the variance-2t walk from y0 stays in (0, w) up to t), sine series.

    Sum over odd n of 4/(n pi) sin(n pi y0/w) exp(-n^2 pi^2 t/w^2) for
    n <= ceil(sqrt(1 + ln(1e17) w^2/(pi^2 t))); past that the terms are below
    1e-17 of the first (at t = w^2 only n = 1, 3 remain).  Clipped to [0, 1].
    """
    n_max = math.ceil(math.sqrt(1 + math.log(1e17) * w * w / (math.pi ** 2 * t)))
    y0 = np.asarray(y0, dtype=float)
    s = np.zeros(y0.shape)
    for n in range(1, n_max + 1, 2):
        s += 4 / (n * math.pi) * math.exp(-(n * math.pi / w) ** 2 * t) \
            * np.sin(n * math.pi / w * y0)
    return np.clip(s, 0.0, 1.0)


def escape_interval_mc(a: float, t: float, cfg: PathEnsembleConfig) -> McEstimate:
    """Monte Carlo P(sup_{s<=t} |B(s)| > a) from 0, absorbing at both walls."""
    if not (a > 0 and t > 0):
        raise InvalidParameterError("need a > 0 and t > 0")
    out = _line_walk(-a, a, t, cfg, _STREAMS["interval"])
    return McEstimate.from_samples(out.astype(float))


# ---------------------------------------------------------------------------
# cone exit
# ---------------------------------------------------------------------------

def cone_exit_exact(spec: ConeSpec) -> float:
    """P(B[0, T(r)] stays in W(alpha)) = (2/pi) arctan(2 r^p / (r^{2p} - 1)), p = pi/alpha."""
    p = np.pi / spec.alpha
    log_x = p * math.log(spec.r)
    if log_x > 300:
        return float((2 / np.pi) * 2 * math.exp(-log_x))
    x = math.exp(log_x)
    return float((2 / np.pi) * math.atan2(2 * x, x * x - 1))


def _wedge_distances(x, y_abs, rad, ux, uy):
    """Distances to the two wall half-lines of the folded wedge (y >= 0 side).

    Inside the wedge the point-to-line distance |cross(p, u)| applies when
    the projection onto the wall direction is positive; otherwise the
    nearest wall point is the apex.
    """
    d_near = np.where(x * ux + y_abs * uy > 0, np.abs(y_abs * ux - x * uy), rad)
    d_far = np.where(x * ux - y_abs * uy > 0, np.abs(y_abs * ux + x * uy), rad)
    return d_near, d_far


def _wedge_walk(start: float, beta: float, t: float, cfg: PathEnsembleConfig):
    """cfg.n_paths walks from (start, 0) over t, killed on the walls |theta| =
    beta, drawing from the wedge stream; returns (killed, end).

    The sign test y_abs*ux - x*uy > 0 is sin(theta - beta) > 0, i.e. the
    folded angle exceeds the half opening.  The wall distances are those of
    _wedge_distances.  With the bridge on, a step draws two uniforms and the
    crossing test reads the first.
    """
    ux, uy = math.cos(beta), math.sin(beta)

    def walls(new, with_dist):
        ax = new[:, 0]
        ay = np.abs(new[:, 1])
        dead = ay * ux - ax * uy > 0
        dist = (_wedge_distances(ax, ay, np.sqrt(ax * ax + ay * ay), ux, uy)
                if with_dist else ())
        return dead, dist

    pos = np.zeros((cfg.n_paths, 2))
    pos[:, 0] = start
    # the second uniform is never read, but dropping it would move every
    # bridge-on wedge byte
    return _absorbing_walk(walls, pos, t, cfg, _STREAMS["wedge"], n_uniform=2)


def cone_exit_mc(spec: ConeSpec, cfg: PathEnsembleConfig) -> McEstimate:
    """Simulated cone exit law from (1, 0): absorb on the walls, stop at |B| = r.

    Walk-on-spheres (Muller, Ann. Math. Stat. 27, 1956): each step jumps to
    a uniform point on the largest circle about the path's position that
    meets neither the walls nor the circle |x| = r.  A path stops once that
    radius is below CONE_SHELL, and it reached r iff the arc is nearer than
    the walls.  The exit law is a harmonic measure with no time horizon, so
    there is no time step and no step cap: cfg.dt and cfg.bridge_correction
    are not read.  Step k draws the live paths' angles from counter k of
    the cone stream.
    """
    ux, uy = math.cos(spec.alpha / 2), math.sin(spec.alpha / 2)
    reached = np.zeros(cfg.n_paths, dtype=bool)
    live = np.arange(cfg.n_paths)
    x = np.ones(cfg.n_paths)
    y = np.zeros(cfg.n_paths)
    rng_at = _keyed_stream(cfg.seed, _STREAMS["cone"])
    k = 0
    while True:
        y_abs = np.abs(y)
        rad = np.sqrt(x * x + y_abs * y_abs)
        d_wall = np.minimum(*_wedge_distances(x, y_abs, rad, ux, uy))
        d_arc = spec.r - rad
        rho = np.minimum(d_wall, d_arc)
        stop = rho < CONE_SHELL
        if stop.any():
            reached[live[stop]] = d_arc[stop] < d_wall[stop]
            keep = ~stop
            live, x, y, rho = live[keep], x[keep], y[keep], rho[keep]
            if not live.size:
                break
        theta = (2 * np.pi) * rng_at(k).random(live.size)
        x = x + rho * np.cos(theta)
        y = y + rho * np.sin(theta)
        k += 1
    return McEstimate.from_samples(reached.astype(float))
