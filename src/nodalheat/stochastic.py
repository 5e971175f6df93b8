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
which makes shared-path identities exact.  The walks here share one engine,
`_absorbing_walk`; in the cone exit walk, once at most 2048 paths remain,
one generator call covers a block of up to 256 steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParameterError, ResolutionWarning
from .nodal import DomainMask, interpolate_with_gradient

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

CONE_DEFAULT_DT = 2e-4
_TINY_GRAD = 1e-300
_MAX_DIST = 1e100


def _level_set_distance(f, gx, gy):
    """First-order distance to the zero set of the interpolant, capped."""
    return np.minimum(np.abs(f) / np.maximum(np.hypot(gx, gy), _TINY_GRAD), _MAX_DIST)


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
        if self.dt is not None and self.dt <= 0:
            raise InvalidParameterError("dt must be positive")


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
        if self.r <= 1:
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
    "wedge": (6, 1 << 54, 1 << 54),             # bounds._wedge_fk_survival
    "corridor_starts": (6, 1 << 55, 1 << 55),   # bounds.avoided_crossing_scan
    "points": (7, 0, 1),                        # bounds._interior_points
}


def _step_rng(seed: int, stream, k: int) -> np.random.Generator:
    tag, base, span = stream
    if not 0 <= k < span:
        raise ValueError(f"counter {k} outside RNG stream {stream}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64((tag << 56) | (base + k))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _steps_for(t: float, cfg: PathEnsembleConfig):
    if t <= 0:
        raise InvalidParameterError("horizon t must be positive")
    dt_req = cfg.dt if cfg.dt is not None else t / 1000.0
    if dt_req > t / 100.0 * (1 + 1e-9):
        raise InvalidParameterError(
            f"dt={dt_req:.3g} violates dt <= t/100 for horizon t={t:.3g}")
    n_steps = max(1, math.ceil(t / dt_req - 1e-9))
    return n_steps, t / n_steps


def _absorbing_walk(events, pos, aux, n_steps: int, dt: float, seed: int,
                    stream, n_uniform: int, block: int):
    """Killed walk of one path per row of pos (n, d); returns (stopped, reached, end).

    Only live paths are held, compacted in order.  Step k draws Normal(0, 2 dt)
    increments (m, kb, d) for the m live paths, then uniforms (m, kb, n_uniform),
    from _step_rng(seed, stream, k); kb is 1 while over 2048 paths live, else
    up to `block` steps.  events(prev, traj, aux, u) maps the steps' start and
    end points (m, kb, d) to (dead, reached, aux at the block's end, traj); the
    traj it returns may be remapped.  A path stops at its first dead or reached
    step and ends there; end is the last point of paths live after n_steps.
    """
    n, d = pos.shape
    sigma = math.sqrt(2 * dt)
    stopped = np.zeros(n, dtype=bool)
    reached = np.zeros(n, dtype=bool)
    end = pos.copy()
    live = np.arange(n)
    k = 0
    while k < n_steps and live.size:
        m = live.size
        kb = 1 if m > 2048 else min(block, n_steps - k)
        rng = _step_rng(seed, stream, k)
        inc = rng.standard_normal((m, kb, d)) * sigma
        u = rng.random((m, kb, n_uniform)) if n_uniform else None
        prev = pos[:, None, :]
        traj = prev + (inc if kb == 1 else np.cumsum(inc, axis=1))
        if kb > 1:
            prev = np.concatenate([prev, traj[:, :-1]], axis=1)
        dead, hit, aux, traj = events(prev, traj, aux, u)
        event = dead | hit
        stop = event.any(axis=1)
        sel = np.flatnonzero(stop)
        if sel.size:
            first = event[sel].argmax(axis=1)
            idx = live[sel]
            stopped[idx] = True
            reached[idx] = hit[sel, first]
            end[idx] = traj[sel, first]
            keep = ~stop
            live = live[keep]
            traj = np.compress(keep, traj, axis=0)   # faster than traj[keep] on 3-D arrays
            if aux is not None:
                aux = aux[keep]
        pos = traj[:, -1]
        k += kb
    end[live] = pos
    return stopped, reached, end


# ---------------------------------------------------------------------------
# grid-domain walks
# ---------------------------------------------------------------------------

def _wrap(pos: np.ndarray, grid):
    if grid.periodic_x:
        pos[:, 0] = grid.x0 + np.mod(pos[:, 0] - grid.x0, grid.extent_x)
    if grid.periodic_y:
        pos[:, 1] = grid.y0 + np.mod(pos[:, 1] - grid.y0, grid.extent_y)


def _walk_in_domain(values: np.ndarray, grid, sign: int, starts: np.ndarray,
                    t: float, cfg: PathEnsembleConfig):
    """Absorbing walk of one path per start row; returns (absorbed, end).

    Absorption tests the sign of the bilinear interpolant at each step
    endpoint; with bridge_correction on, a Brownian-bridge crossing draw
    against the local linearization of the zero set is added per step.
    """
    n_steps, dt = _steps_for(t, cfg)
    pos = np.array(starts, dtype=float)
    f, gx, gy, inside = interpolate_with_gradient(values, grid, pos)
    absorbed = (~inside) | (sign * f <= 0)
    live = np.flatnonzero(~absorbed)

    # Each step's interpolant stays referenced until the next one is built.
    # Freed at once, it leaves the heap top free, glibc trims it, and every
    # step faults the pages back in (5x the page faults at 100000 paths).
    held = []

    def events(prev, traj, dist, u):
        new = traj[:, 0]
        _wrap(new, grid)
        f, gx, gy, inside = held[:] = interpolate_with_gradient(values, grid, new)
        dead = (~inside) | (sign * f <= 0)
        d1 = _level_set_distance(f, gx, gy)
        if u is not None:
            dead |= u[:, 0, 0] < np.exp(-np.minimum(dist * d1 / dt, 700.0))
        return dead[:, None], np.zeros((dead.size, 1), dtype=bool), d1, traj

    absorbed[live], _, pos[live] = _absorbing_walk(
        events, pos[live], _level_set_distance(f, gx, gy)[live], n_steps, dt,
        cfg.seed, _STREAMS["grid"], int(cfg.bridge_correction), 1)
    return absorbed, pos


def _validate_start(mask: DomainMask, label: int, x):
    sel = mask.cells(label)
    grid = mask.grid
    pt = np.asarray(x, dtype=float).reshape(1, 2)
    f, _, _, inside = interpolate_with_gradient(mask.field_values, grid, pt)
    sgn = mask.sign(label)
    if not inside[0] or sgn * f[0] <= 0:
        raise InvalidParameterError(f"start point {tuple(pt[0])} is not inside the domain")
    ix = int(np.clip(np.floor((pt[0, 0] - grid.x0) / grid.h), 0, grid.nx - 1))
    iy = int(np.clip(np.floor((pt[0, 1] - grid.y0) / grid.h), 0, grid.ny - 1))
    if not sel[iy, ix]:
        raise InvalidParameterError(
            f"start point {tuple(pt[0])} lies in a cell outside domain label {label}")
    ny, nx = sel.shape
    neighbors = []
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        jy, jx = iy + dy, ix + dx
        if grid.periodic_y:
            jy %= ny
        if grid.periodic_x:
            jx %= nx
        if 0 <= jy < ny and 0 <= jx < nx:
            neighbors.append(sel[jy, jx])
        else:
            neighbors.append(False)
    if not all(neighbors):
        warnings.warn(
            "start point within one cell of the boundary; the estimate is "
            "discretization dominated", ResolutionWarning)
    return pt[0]


def estimate_hitting_probability(mask: DomainMask, label: int, x, t: float,
                                 cfg: PathEnsembleConfig) -> McEstimate:
    """p_t(x): probability of hitting the domain boundary within time t."""
    pt = _validate_start(mask, label, x)
    starts = np.tile(pt, (cfg.n_paths, 1))
    absorbed, _ = _walk_in_domain(mask.field_values, mask.grid, mask.sign(label),
                                  starts, t, cfg)
    return McEstimate.from_samples(absorbed.astype(float))


def feynman_kac_dirichlet(model, mask: DomainMask, label: int, x, t: float,
                          cfg: PathEnsembleConfig) -> McEstimate:
    """E_x[u(path(t)) * survival]; equals exp(-lambda t) u(x) for eigenmodes."""
    pt = _validate_start(mask, label, x)
    if t == 0:
        return McEstimate(mean=float(model.evaluate(pt[0], pt[1])), std_error=0.0,
                          n_paths=cfg.n_paths)
    starts = np.tile(pt, (cfg.n_paths, 1))
    absorbed, end = _walk_in_domain(mask.field_values, mask.grid, mask.sign(label),
                                    starts, t, cfg)
    vals = np.where(absorbed, 0.0, np.asarray(model.evaluate(end[:, 0], end[:, 1])))
    return McEstimate.from_samples(vals)


def xi_evolution(model, mask: DomainMask, label: int, x, t: float,
                 cfg: PathEnsembleConfig) -> McEstimate:
    """Mass-conserving evolution: killed flow plus absorbed mass frozen at x.

    The mean is assembled as fk_mean + p_hat * u(x) from one shared path
    ensemble, so the gap identity (xi - dirichlet) = p_t * u(x) holds
    exactly for equal configs.  The standard error comes from the per-path
    values u(end) * psi + (1 - psi) * u(x).
    """
    pt = _validate_start(mask, label, x)
    u0 = float(model.evaluate(pt[0], pt[1]))
    if t == 0:
        return McEstimate(mean=u0, std_error=0.0, n_paths=cfg.n_paths)
    starts = np.tile(pt, (cfg.n_paths, 1))
    absorbed, end = _walk_in_domain(mask.field_values, mask.grid, mask.sign(label),
                                    starts, t, cfg)
    fk_vals = np.where(absorbed, 0.0, np.asarray(model.evaluate(end[:, 0], end[:, 1])))
    fk_mean = float(fk_vals.mean())
    p_hat = float(absorbed.astype(float).mean())
    xi_vals = np.where(absorbed, u0, fk_vals)
    se = float(xi_vals.std(ddof=1) / math.sqrt(xi_vals.size)) if xi_vals.size > 1 else 0.0
    return McEstimate(mean=fk_mean + p_hat * u0, std_error=se, n_paths=cfg.n_paths)


# ---------------------------------------------------------------------------
# one-dimensional closed-form checks
# ---------------------------------------------------------------------------

def halfplane_hitting_exact(d: float, t: float) -> float:
    """P(hit a wall at distance d within t) = erfc(d / (2 sqrt(t)))."""
    return float(special.erfc(d / (2 * math.sqrt(t))))


def _line_walk(lo: float, hi: float, t: float, cfg: PathEnsembleConfig, stream):
    """Stopped flags of walks from 0 absorbed at lo < 0 < hi; a wall may be infinite."""
    n_steps, dt = _steps_for(t, cfg)

    def events(prev, traj, aux, u):
        x0, x1 = prev[..., 0], traj[..., 0]
        dead = (x1 >= hi) | (x1 <= lo)
        if u is not None:
            p = np.exp(-np.maximum(hi - x0, 0.0) * np.maximum(hi - x1, 0.0) / dt)
            if lo > -np.inf:
                p_dn = np.exp(-np.maximum(x0 - lo, 0.0) * np.maximum(x1 - lo, 0.0) / dt)
                p = p + p_dn - p * p_dn
            dead |= u[..., 0] < p
        return dead, np.zeros_like(dead), None, traj

    stopped, _, _ = _absorbing_walk(events, np.zeros((cfg.n_paths, 1)), None, n_steps, dt,
                                    cfg.seed, stream, int(cfg.bridge_correction), 1)
    return stopped


def sup_hitting_check(a: float, t: float, cfg: PathEnsembleConfig) -> SupHittingResult:
    """Reflection-principle check: P(sup_{s<=t} B(s) > a) = erfc(a / (2 sqrt(t)))."""
    if a <= 0 or t <= 0:
        raise InvalidParameterError("need a > 0 and t > 0")
    hit = _line_walk(-np.inf, a, t, cfg, _STREAMS["line"])
    return SupHittingResult(mc=McEstimate.from_samples(hit.astype(float)),
                            exact=halfplane_hitting_exact(a, t))


def interval_escape_exact(a: float, t: float) -> float:
    """P(sup_{s<=t} |B(s)| > a), image-series closed form (variance 2t)."""
    if a <= 0 or t <= 0:
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
    if a <= 0 or t <= 0:
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


def _cone_events(prev, traj, rad, u, ux, uy, r: float, dt: float, bridge: bool):
    """Wall-death and radius-success flags per step; wall events take precedence.

    The events callback of _absorbing_walk, with rad the radius at the
    block's start.  The sign test y_abs*ux - x*uy > 0 is sin(theta - beta)
    > 0, i.e. the folded angle exceeds the half opening.
    """
    ax = traj[..., 0]
    ay = np.abs(traj[..., 1])
    rad_new = np.sqrt(ax * ax + ay * ay)
    dead = ay * ux - ax * uy > 0
    if bridge:
        # a block's later steps take the radius from hypot (the pinned bytes do)
        rad_prev = np.concatenate(
            [rad[:, None], np.hypot(traj[:, :-1, 0], traj[:, :-1, 1])], axis=1)
        px = prev[..., 0]
        py = np.abs(prev[..., 1])
        d0n, d0f = _wedge_distances(px, py, rad_prev, ux, uy)
        d1n, d1f = _wedge_distances(ax, ay, rad_new, ux, uy)
        p_n = np.exp(-d0n * d1n / dt)
        p_f = np.exp(-d0f * d1f / dt)
        dead |= u[..., 0] < (p_n + p_f - p_n * p_f)
        p_reach = np.exp(-np.maximum(r - rad_prev, 0) * np.maximum(r - rad_new, 0) / dt)
        reached = (~dead) & ((rad_new >= r) | (u[..., 1] < p_reach))
    else:
        reached = (~dead) & (rad_new >= r)
    return dead, reached, rad_new[:, -1], traj


def _cone_walk(start: float, n_paths: int, r: float, beta: float, n_steps: int,
               dt: float, seed: int, stream, bridge: bool, block: int):
    """Walk from (start, 0) killed on the walls |theta| = beta, stopped at radius r."""
    ux, uy = math.cos(beta), math.sin(beta)
    pos = np.zeros((n_paths, 2))
    pos[:, 0] = start
    return _absorbing_walk(
        lambda prev, traj, rad, u: _cone_events(prev, traj, rad, u, ux, uy, r, dt, bridge),
        pos, np.full(n_paths, start), n_steps, dt, seed, stream, 2 if bridge else 0, block)


def cone_exit_mc(spec: ConeSpec, cfg: PathEnsembleConfig) -> McEstimate:
    """Simulated cone exit law from (1, 0): absorb on the walls, stop at |B| = r.

    Scale invariance of the event makes the variance convention irrelevant
    here; dt only controls the discretization bias, which the wall and
    radius bridge corrections reduce from O(sqrt(dt)) to O(dt).  Straggler
    paths are finished in vectorized blocks of 256 steps.
    """
    dt = cfg.dt if cfg.dt is not None else CONE_DEFAULT_DT
    max_steps = int(math.ceil(60 * spec.r ** 2 / dt))
    _, success, _ = _cone_walk(1.0, cfg.n_paths, spec.r, spec.alpha / 2, max_steps, dt,
                               cfg.seed, _STREAMS["cone"], cfg.bridge_correction, 256)
    return McEstimate.from_samples(success.astype(float))
