"""Named experiments: each turns one inequality, identity or conjecture about
nodal-domain heat flow into a quantitative check with measured constants.

Implicit constants are outputs here, never inputs: each report recomputes its
closed-form references at run time, states measured values with error bars,
and derives a verdict.  Conjecture sweeps emit report-only verdicts; a
numerical counterexample flag is their deliverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dfield, replace

import numpy as np

from .errors import EmptyDomainError, InvalidParameterError
from .fields import (
    EigenfunctionModel,
    domain_norms,
    make_rectangle_eigenfunction,
)
from .heat import heat_content, heat_content_curve, solve_hitting_field
from .nodal import (
    DomainMask,
    GridSpec,
    ScalarField,
    _cell_index,
    _nodal_length,
    _read_only,
    boundary_length,
    distance_to_boundary_map,
    grid_for_model,
    indicator_field,
    label_nodal_domains,
    principal_label,
    sample_field,
)
from .stochastic import (
    ConeSpec,
    McEstimate,
    PathEnsembleConfig,
    _STREAMS,
    _channel_survival,
    _steps_for,
    _step_rng,
    _wedge_walk,
    cone_exit_exact,
    cone_exit_mc,
    escape_interval_mc,
    estimate_hitting_probability,
    feynman_kac_dirichlet,
    interval_escape_exact,
    xi_evolution,
)

__all__ = [
    "TubeSpec",
    "CorridorSpec",
    "CheckResult",
    "ExperimentReport",
    "check_comparison_lemma",
    "theorem1_certificate",
    "max_point_survival",
    "thin_domain_check",
    "avoided_crossing_scan",
    "cone_condition_decay",
    "cone_exit_law",
    "isoperimetry_sweep",
    "global_survival_field",
    "ball_intersection_search",
    "default_isoperimetry_family",
    "mc_probability_allowance",
]

HALFPLANE_CONSTANT = 2 / math.sqrt(math.pi)     # heat content slope per unit wall
INTERIOR_MIN_CELLS = 3.0        # comparison points lie this many cells from the boundary
CONE_RADII = (4.0, 8.0, 16.0)   # stop radii of the cone exit-law exponent fit
ENVELOPE_C1, ENVELOPE_C2 = 0.9, 1.0     # report-only cone envelope c1 s^(c2 k)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool | None                  # None marks a report-only observation
    detail: str


@dataclass(eq=False)
class ExperimentReport:
    """Measured constants, recomputed references and tolerance verdicts."""

    name: str
    claim: str
    inputs: dict = _dfield(default_factory=dict)
    constants: dict = _dfield(default_factory=dict)
    references: dict = _dfield(default_factory=dict)
    checks: list = _dfield(default_factory=list)
    curves: dict = _dfield(default_factory=dict)
    notes: list = _dfield(default_factory=list)

    def check(self, name: str, passed: bool | None, detail: str = ""):
        self.checks.append(CheckResult(name=name, passed=passed, detail=detail))

    @property
    def verdict(self) -> str:
        states = [bool(c.passed) for c in self.checks if c.passed is not None]
        if not all(states):
            return "fail"
        return "pass" if states else "report-only"


def mc_probability_allowance(t: float, cfg: PathEnsembleConfig) -> float:
    """Pinned time-discretization allowance for hitting-type probabilities.

    The discrete-observation bias of an absorbing walk is Theta(sqrt(dt))
    without the bridge correction and O(dt) with it; both are covered by
    the relative-step scale sqrt(dt/t) with a smaller constant when the
    bridge is on.
    """
    _, dt = _steps_for(t, cfg)
    scale = math.sqrt(dt / t)
    return (0.3 if cfg.bridge_correction else 1.0) * scale


def cone_bias_allowance(dt: float, cfg: PathEnsembleConfig) -> float:
    """Pinned wall-crossing bias allowance for the cone exit estimator."""
    return 5.0 * dt if cfg.bridge_correction else math.sqrt(dt)


# ---------------------------------------------------------------------------
# experiment input types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeSpec:
    """Straight segment with a tube of the given half width; distances to it
    wrap around the periodic axes of the model's grid (a torus geodesic)."""

    segment: tuple                        # ((x0, y0), (x1, y1)) in model coordinates
    half_width: float

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise InvalidParameterError("half_width must be positive and finite")


@dataclass(frozen=True)
class CorridorSpec:
    """Synthetic avoided-crossing corridor: one elongated Dirichlet sign cell.

    The corridor is the box [0, L] x [0, w] carrying the fundamental mode
    (equivalently, one stretched sign cell of a higher product mode).  The
    width is w = lam_geom^(-alpha) and the middle n_covered squares of side
    w are the covering; n_margin squares at each end stay uncovered so exits
    past the covered range are observable.
    """

    lam_geom: float
    n_covered: int = 12
    n_margin: int = 3

    def __post_init__(self):
        if not 1 < self.lam_geom < math.inf:
            raise InvalidParameterError(
                f"lam_geom must exceed 1 and be finite, got {self.lam_geom}")
        if self.n_covered < 4 or self.n_margin < 1:
            raise InvalidParameterError("need at least 4 covered and 1 margin squares")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _interior_points(dist: np.ndarray, grid: GridSpec, count: int, seed: int):
    """Deterministic sample of cell centers whose dist is INTERIOR_MIN_CELLS
    cells or more."""
    ok = dist >= INTERIOR_MIN_CELLS * grid.h
    iy, ix = np.nonzero(ok)
    if iy.size == 0:
        raise EmptyDomainError("domain has no cells away from its boundary")
    rng = _step_rng(seed, _STREAMS["points"], 0)
    pick = rng.choice(iy.size, size=min(count, iy.size), replace=False)
    xs, ys = grid.cell_center(iy[pick], ix[pick])
    return [(float(x), float(y)) for x, y in zip(xs, ys)]


def _segment_distance(px, py, seg, grid: GridSpec):
    """Distance from points to a segment, the minimum over the points'
    copies one period away along each periodic axis of the grid."""
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    best = np.full(np.shape(px), np.inf)
    shifts_x, shifts_y = ((-e, 0.0, e) if periodic else (0.0,) for periodic, e in
                          ((grid.periodic_x, grid.extent_x), (grid.periodic_y, grid.extent_y)))
    for sx in shifts_x:
        for sy in shifts_y:
            qx = px + sx - ax
            qy = py + sy - ay
            if seg_len2 > 0:
                t = np.clip((qx * dx + qy * dy) / seg_len2, 0.0, 1.0)
            else:
                t = 0.0
            d = np.hypot(qx - t * dx, qy - t * dy)
            best = np.minimum(best, d)
    return best


def _field_argmax(mask: DomainMask, label: int):
    sel = mask.cells(label)
    vals = np.where(sel, mask.sign(label) * mask.field_values, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(vals)), vals.shape)
    grid = mask.grid
    return grid.cell_center(iy, ix), (iy, ix)


# ---------------------------------------------------------------------------
# comparison identity and gap bound
# ---------------------------------------------------------------------------

def check_comparison_lemma(model: EigenfunctionModel, mask: DomainMask, label: int,
                           points, t: float, cfg: PathEnsembleConfig) -> ExperimentReport:
    """Shared-path check of the mass-conserving vs killed evolution gap.

    Verifies per point: the exact gap identity (xi - dirichlet) = p_t * u,
    gap nonnegativity, and the mean-value bound u(x) <= d(x, boundary) *
    sup |grad u|; reports the measured gap constant
    C = max u(x) / (sqrt(t) sup|grad u|).
    """
    grid = mask.grid
    dist_map = distance_to_boundary_map(mask, label)
    if points is None:
        points = _interior_points(dist_map, grid, 10, cfg.seed)
    norms = domain_norms(model, mask)[label - 1]

    rep = ExperimentReport(
        name="comparison-lemma",
        claim=("the mass-conserving evolution exceeds the killed evolution by "
               "exactly p_t(x) u(x), which is at most C sqrt(t) p_t(x) sup|grad u|"),
        inputs={"label": label, "t": t, "n_points": len(points),
                "n_paths": cfg.n_paths, "seed": cfg.seed},
    )
    rows = []
    c_measured = 0.0
    ident_worst = 0.0
    h = grid.h
    for x in points:
        fk = feynman_kac_dirichlet(model, mask, label, x, t, cfg)
        hit = estimate_hitting_probability(mask, label, x, t, cfg)
        xi = xi_evolution(model, mask, label, x, t, cfg)
        u0 = float(model.evaluate(x[0], x[1])) * mask.sign(label)
        # orient u positive on the domain (replace u by -u on negative domains)
        gap = (xi.mean - fk.mean) * mask.sign(label)
        resid = abs(gap - hit.mean * u0)
        ident_worst = max(ident_worst, resid)
        d_edt = float(dist_map[_cell_index(grid, x[0], x[1])])
        c_here = u0 / (math.sqrt(t) * norms.grad_linf)
        c_measured = max(c_measured, c_here)
        rows.append((x[0], x[1], u0, hit.mean, gap, resid, d_edt, c_here))
        rep.check(f"identity({x[0]:.3f},{x[1]:.3f})",
                  resid <= 1e-12 * max(1.0, abs(u0)),
                  f"|gap - p*u| = {resid:.3e}")
        rep.check(f"gap-nonnegative({x[0]:.3f},{x[1]:.3f})",
                  gap >= -1e-12, f"gap = {gap:.3e}")
        rep.check(f"mean-value({x[0]:.3f},{x[1]:.3f})",
                  u0 <= (d_edt + h) * norms.grad_linf * (1 + 1e-9),
                  f"u = {u0:.4g} vs (d+h)|grad| = {(d_edt + h) * norms.grad_linf:.4g}")
    rep.constants["C_measured"] = c_measured
    rep.constants["identity_residual_max"] = ident_worst
    rep.references["grad_linf"] = norms.grad_linf
    rep.curves["points"] = np.array(rows)
    rep.notes.append("columns: x, y, u, p_t, gap, identity_residual, d_boundary, C_point")
    return rep


# ---------------------------------------------------------------------------
# nodal length certificates
# ---------------------------------------------------------------------------

def theorem1_certificate(model: EigenfunctionModel, grid: GridSpec,
                         n_steps: int = 96) -> ExperimentReport:
    """Per-domain heat-content lower bounds aggregated into length certificates.

    For every nodal domain D computes the heat content at t = 1/lambda
    and the ratio against (1 - e^(-lambda t)) t^(-1/2) |u|_L1(D) / |grad u|_inf(D);
    aggregates the constant-free certificate sqrt(lambda) Sum_D |u|_L1 / |u|_inf,
    which must stay below the measured boundary measure.
    """
    lam = model.eigenvalue
    if lam <= 0:
        raise InvalidParameterError("model must be an eigenfunction (lambda > 0)")
    t = 1.0 / lam
    field = sample_field(model, grid)
    mask = label_nodal_domains(field)

    rows = []
    sum_l1_grad = 0.0
    sum_l1_sup = 0.0
    sum_boundary = 0.0
    ratios = []
    for label, norms in enumerate(domain_norms(model, mask), start=1):
        lhs = heat_content(mask, label, t, n_steps)
        rhs = (1 - math.exp(-lam * t)) / math.sqrt(t) * norms.l1 / norms.grad_linf
        blen = boundary_length(mask, label)
        ratio = lhs / rhs if rhs > 0 else np.inf
        ratios.append(ratio)
        sum_l1_grad += norms.l1 / norms.grad_linf
        sum_l1_sup += norms.l1 / norms.linf
        sum_boundary += blen
        rows.append((label, mask.area(label), norms.l1, norms.linf,
                     norms.grad_linf, blen, lhs, rhs, ratio))
    # on a torus, from the contour that built the boundary lengths
    z_len = _nodal_length(mask)

    cert_sup = math.sqrt(lam) * sum_l1_sup
    cert_grad = lam * sum_l1_grad
    ratios = np.array(ratios)

    rep = ExperimentReport(
        name="length-certificate",
        claim=("per-domain heat content dominates the decay-normalized L1/grad "
               "ratio, and the aggregated sqrt(lambda) Sum |u|_1/|u|_inf "
               "certificate stays below the measured boundary measure"),
        inputs={"model": model.kind, "mode": model.mode, "lambda": lam,
                "t": t, "grid": (grid.nx, grid.ny)},
    )
    rep.constants.update({
        "nodal_length": z_len,
        "sum_boundary_lengths": sum_boundary,
        "certificate_sup_form": cert_sup,
        "certificate_grad_form": cert_grad,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "n_domains": mask.n_labels,
    })
    rep.references["lambda_quarter_power"] = lam ** 0.25
    rep.references["lambda_half_power"] = lam ** 0.5
    rep.check("certificate-below-boundary-measure", cert_sup <= sum_boundary,
              f"{cert_sup:.4f} <= {sum_boundary:.4f}")
    if model.kind == "torus_product":
        rep.check("certificate-below-nodal-length", cert_sup <= z_len,
                  f"{cert_sup:.4f} <= {z_len:.4f}")
    rep.check("per-domain-ratio-spread", ratios.max() <= 2 * ratios.min(),
              f"ratios in [{ratios.min():.3f}, {ratios.max():.3f}]")
    rep.check("certificate-exceeds-quarter-power-scale",
              cert_sup >= lam ** 0.25 * 0.1, "certificate carries the lambda trend")
    rep.curves["domains"] = np.array(rows)
    rep.notes.append("columns: label, area, l1, linf, grad_linf, boundary_len, "
                     "heat_content, rhs, ratio")
    rep.notes.append(f"grad-form aggregate lambda*Sum l1/grad = {cert_grad:.4f} "
                     f"vs nodal length {z_len:.4f} (reported, constant not 1)")
    return rep


# ---------------------------------------------------------------------------
# max-point survival bound
# ---------------------------------------------------------------------------

def max_point_survival(model: EigenfunctionModel, mask: DomainMask, label: int,
                       t: float, cfg: PathEnsembleConfig,
                       n_steps: int = 200) -> ExperimentReport:
    """p_t at the domain's max point must stay below 1 - exp(-lambda t)."""
    lam = model.eigenvalue
    bound = 1 - math.exp(-lam * t)
    x_star, (iy, ix) = _field_argmax(mask, label)
    fld = solve_hitting_field(mask, label, t, n_steps)
    p_fd = float(fld.values[iy, ix])
    est = estimate_hitting_probability(mask, label, x_star, t, cfg)
    allow = mc_probability_allowance(t, cfg)

    rep = ExperimentReport(
        name="max-point-survival",
        claim="at the point where u attains its domain maximum, "
              "p_t(x) <= 1 - exp(-lambda t)",
        inputs={"label": label, "t": t, "lambda": lam, "x_star": x_star,
                "n_paths": cfg.n_paths, "seed": cfg.seed},
    )
    rep.constants.update({"p_mc": est.mean, "p_mc_std_error": est.std_error,
                          "p_fd": p_fd, "margin_fd": bound - p_fd})
    rep.references["bound"] = bound
    rep.check("mc-below-bound", est.mean <= bound + 3 * est.std_error + allow,
              f"{est.mean:.4f} <= {bound:.4f} + 3se + {allow:.4f}")
    rep.check("fd-below-bound", p_fd <= bound + 5e-3,
              f"{p_fd:.4f} <= {bound:.4f} + 0.005")
    return rep


# ---------------------------------------------------------------------------
# thin-tube exclusion
# ---------------------------------------------------------------------------

def thin_domain_check(model: EigenfunctionModel, tube: TubeSpec,
                      t: float | None = None,
                      cfg: PathEnsembleConfig = PathEnsembleConfig(),
                      grid_n: int = 256) -> ExperimentReport:
    """Escape law from a thin tube around a flat curve, and the exclusion bound.

    A particle started on the curve leaves the half-width-a tube within t
    with probability at least 1 - c/sqrt(pi) where a = c sqrt(t) (the
    one-sided reflection bound with the variance-convention factor
    kappa = 1/sqrt(2) folded in).  When that lower bound exceeds
    1 - exp(-lambda t), no nodal domain fits inside the tube.  The report
    also measures which nodal domains of the model actually fit.  Along a
    periodic axis of the model the segment may span at most one period,
    and the tube must be narrower than the frame: a half-width of half the
    frame's extent across the segment or more spans it, and is refused.
    """
    (x0, y0), (x1, y1) = tube.segment
    ex, ey = model.frame[2:]
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    # the frame's extent along the segment's normal; any direction for a point
    across = (dy * ex + dx * ey) / math.hypot(dx, dy) if dx or dy else min(ex, ey)
    if tube.half_width >= across / 2:
        raise InvalidParameterError(
            f"half_width {tube.half_width:.4g} must be below half the frame's "
            f"extent across the segment, {across / 2:.4g}; a tube that wide spans the frame")
    for periodic, extent, period in zip(model.periodic, (dx, dy), (ex, ey)):
        if periodic and extent > period * (1 + 1e-12):
            raise InvalidParameterError(
                "segment extent must be at most the period along a periodic axis")
    lam = model.eigenvalue
    if t is None:
        t = 1.0 / lam if lam > 0 else 1.0
    a = tube.half_width
    c = a / math.sqrt(t)
    kappa = 1 / math.sqrt(2)

    literal_threshold = math.sqrt(math.pi) / (math.sqrt(2) * math.e)
    adjusted_threshold = math.sqrt(math.pi) / math.e
    escape_lower = 1 - math.sqrt(2 / math.pi) * c * kappa     # = 1 - c/sqrt(pi)
    from scipy.special import erfc
    one_sided = float(erfc(c / 2))
    two_sided = interval_escape_exact(a, t)
    mc = escape_interval_mc(a, t, cfg)
    allow = mc_probability_allowance(t, cfg)
    survival_bound = 1 - math.exp(-lam * t) if lam > 0 else None

    rep = ExperimentReport(
        name="thin-tube-exclusion",
        claim=("Brownian escape from a c*sqrt(t)-tube happens with probability "
               ">= 1 - c/sqrt(pi); below the critical c this contradicts the "
               "max-point survival bound, so no nodal domain fits in the tube"),
        inputs={"half_width": a, "t": t, "c": c, "lambda": lam,
                "n_paths": cfg.n_paths, "seed": cfg.seed,
                "segment": tube.segment},
    )
    rep.constants.update({
        "escape_mc": mc.mean, "escape_mc_std_error": mc.std_error,
        "kappa_variance_convention": kappa,
    })
    rep.references.update({
        "critical_c_literal": literal_threshold,
        "critical_c_adjusted": adjusted_threshold,
        "escape_lower_bound": escape_lower,
        "escape_one_sided_exact": one_sided,
        "escape_two_sided_exact": two_sided,
    })
    rep.check("mc-above-lower-bound", mc.mean >= escape_lower - 3 * mc.std_error,
              f"{mc.mean:.4f} >= {escape_lower:.4f} - 3se")
    rep.check("mc-matches-two-sided-law",
              abs(mc.mean - two_sided) <= 3 * mc.std_error + allow,
              f"|{mc.mean:.4f} - {two_sided:.4f}| <= 3se + {allow:.4f}")
    rep.check("one-sided-below-two-sided", one_sided <= two_sided + 1e-12,
              "sup B > a implies sup |B| > a")
    if survival_bound is not None:
        contradiction = escape_lower > survival_bound
        rep.constants["exclusion_active"] = float(contradiction)
        rep.check("exclusion-branch", None,
                  f"escape lower bound {escape_lower:.4f} vs max-point bound "
                  f"{survival_bound:.4f}: "
                  + ("tube cannot contain a nodal domain" if contradiction
                     else "no contradiction at this width"))

    # containment geometry of the actual model domains
    if lam > 0:
        grid = grid_for_model(model, grid_n)
        field = sample_field(model, grid)
        mask = label_nodal_domains(field)
        contained = []
        min_halfwidth = np.inf
        for label in range(1, mask.n_labels + 1):
            # the domain's cells from its box, not from a full-grid pass
            box = mask.box(label)
            xs, ys = np.broadcast_arrays(*grid.cell_center_axes(box))
            sel = mask.labels[box] == label
            dmax = float(_segment_distance(xs[sel], ys[sel], tube.segment, grid).max())
            min_halfwidth = min(min_halfwidth, dmax)
            if dmax <= a:
                contained.append(label)
        rep.constants["n_domains_inside_tube"] = float(len(contained))
        rep.constants["containment_halfwidth"] = min_halfwidth
        rep.constants["containment_c"] = min_halfwidth * math.sqrt(lam)
        if contained and survival_bound is not None and escape_lower > survival_bound:
            rep.check("no-contained-domain-under-exclusion", False,
                      f"domains {contained} fit inside an excluded tube")
        else:
            rep.check("containment-consistent", True,
                      f"{len(contained)} domain(s) inside the tube; smallest "
                      f"containing half-width {min_halfwidth:.4f}")
    return rep


# ---------------------------------------------------------------------------
# avoided crossings
# ---------------------------------------------------------------------------

def _corridor_walk(starts: np.ndarray, box_l: float, box_w: float, t: float,
                   cfg: PathEnsembleConfig, salt: int):
    """Weights and along-channel end points of the corridor walk, in one exact step.

    On the box (0, L) x (0, w) the killed walk is two independent 1-D walks.
    No functional reads the cross-channel end point, so that walk enters only
    through its exact survival S_w(t, y0) (a Rao-Blackwellization).  The
    along-channel end point is x1 = x0 + sqrt(2t) Z, weighted by the two
    single-wall bridge factors (1 - exp(-x0 x1/t)) (1 - exp(-(L-x0)(L-x1)/t)),
    which vanish unless 0 < x1 < L.  Against the exact image series on
    [0, L] this omits two-wall terms of order exp(-L (L - |x1 - x0|)/t)
    relative to the free kernel; with t = w^2 and L = n_tot w,
    L^2/t = n_tot^2 >= 36 for every CorridorSpec, and at n_tot = 6 the
    surviving mass from an interior square is off by under 3e-7 relative.
    The paths are independent, so standard errors are plain i.i.d. errors.
    cfg.dt is validated as for the other walks but sets no steps.  Returns
    (weight, end) with end of shape (n, 1) holding x1.
    """
    _steps_for(t, cfg)      # validates cfg.dt and t only
    x0 = starts[:, 0]
    z = _step_rng(cfg.seed, _STREAMS["corridor"], salt << 32).standard_normal(x0.size)
    x1 = x0 + math.sqrt(2 * t) * z
    keep_lo = -np.expm1(-np.maximum(x0 * x1, 0.0) / t)
    keep_hi = -np.expm1(-np.maximum((box_l - x0) * (box_l - x1), 0.0) / t)
    wgt = _channel_survival(starts[:, 1], box_w, t) * keep_lo * keep_hi
    return wgt, x1[:, None]


def _sup_sin_on(a: float, b: float, length: float) -> float:
    """sup |sin(pi x / L)| over [a, b]."""
    if a <= length / 2 <= b:
        return 1.0
    return max(abs(math.sin(math.pi * a / length)), abs(math.sin(math.pi * b / length)))


def avoided_crossing_scan(corridor: CorridorSpec, alpha: float,
                          cfg: PathEnsembleConfig) -> ExperimentReport:
    """Transition bookkeeping and the growth inequality on a thin corridor.

    Covers the middle of a width-w corridor (w = lam_geom^(-alpha)) with
    squares of side w, estimates per square the boundary-absorption mass,
    the square-to-square transitions and the exit mass over the horizon
    t = lam_geom^(-2 alpha), fits the Gaussian decay of transitions, checks
    the decay inequality at every interior square from its sup point, and
    iterates the growth chain from the middle square.  Every estimate comes
    from independent weighted paths (_corridor_walk), so its standard error
    is a plain i.i.d. error.
    """
    if not alpha > 0.5:
        raise InvalidParameterError("alpha must exceed 1/2")
    lam_geom = corridor.lam_geom
    w = lam_geom ** (-alpha)
    n_cov = corridor.n_covered
    n_tot = n_cov + 2 * corridor.n_margin
    box_l = n_tot * w
    t = lam_geom ** (-2 * alpha)
    model = make_rectangle_eigenfunction(1, 1, box_l, w)
    lam_model = model.eigenvalue
    decay_honest = math.exp(-lam_model * t)
    decay_idealized = math.exp(-lam_geom ** (1 - 2 * alpha))
    x_cov0 = corridor.n_margin * w
    edges = x_cov0 + w * np.arange(n_cov + 1)
    sups = np.array([_sup_sin_on(edges[i], edges[i + 1], box_l) for i in range(n_cov)])
    sup_global = 1.0

    n = cfg.n_paths
    p_b = np.zeros(n_cov)
    p_ij = np.zeros((n_cov, n_cov))
    p_ie = np.zeros(n_cov)
    book_err = np.zeros(n_cov)
    pooled_disp = {}
    diamond_rows = []

    for i in range(n_cov):
        rng = _step_rng(cfg.seed, _STREAMS["corridor_starts"], i)
        starts = np.column_stack([
            edges[i] + w * rng.random(n),
            w * rng.random(n),
        ])
        wgt, end = _corridor_walk(starts, box_l, w, t, cfg, salt=2 * i)
        jbin = np.floor((end[:, 0] - x_cov0) / w).astype(np.int64)
        in_cov = (jbin >= 0) & (jbin < n_cov) & (wgt > 0)
        p_b[i] = 1.0 - wgt.mean()
        for j in range(n_cov):
            p_ij[i, j] = wgt[in_cov & (jbin == j)].sum() / n
        p_ie[i] = wgt[~in_cov].sum() / n
        book_err[i] = abs(p_b[i] + p_ij[i].sum() + p_ie[i] - 1.0)
        if 2 <= i < n_cov - 2:
            for j in range(n_cov):
                if abs(j - i) <= 3:
                    pooled_disp.setdefault(j - i, []).append(p_ij[i, j])

        # decay inequality from the sup point of the square
        x_sup = min(max(box_l / 2, edges[i]), edges[i + 1])
        starts_sup = np.tile([x_sup, w / 2], (n, 1))
        wgt_s, end_s = _corridor_walk(starts_sup, box_l, w, t, cfg, salt=2 * i + 1)
        jb = np.floor((end_s[:, 0] - x_cov0) / w).astype(np.int64)
        val = np.where((jb >= 0) & (jb < n_cov), sups[np.clip(jb, 0, n_cov - 1)],
                       sup_global)
        rhs = McEstimate.from_samples(wgt_s * val)
        diamond_rows.append((i, decay_honest * sups[i], rhs.mean, rhs.std_error))

    # Gaussian fit of pooled transitions
    deltas = np.array(sorted(d for d in pooled_disp if abs(d) <= 3))
    pvals = np.array([np.mean(pooled_disp[d]) for d in deltas])
    keep = pvals > 0
    gamma = r2_gauss = float("nan")
    if keep.sum() >= 3:
        xq = deltas[keep] ** 2
        yq = np.log(pvals[keep])
        coef = np.polyfit(xq, yq, 1)
        gamma = -float(coef[0])
        fitted = np.polyval(coef, xq)
        ss = float(((yq - fitted) ** 2).sum())
        tot = float(((yq - yq.mean()) ** 2).sum())
        r2_gauss = 1.0 - ss / tot if tot > 0 else 1.0

    # growth iteration from the middle square
    visited = set()
    i_cur = n_cov // 2
    growth_factors = []
    lo, hi = n_cov // 3, 2 * n_cov // 3
    while lo <= i_cur <= hi and i_cur not in visited and len(growth_factors) < 100:
        visited.add(i_cur)
        weights = p_ij[i_cur] * sups
        weights[i_cur] = -np.inf
        j_next = int(np.argmax(weights))
        growth_factors.append(sups[j_next] / sups[i_cur])
        i_cur = j_next
    growth = float(np.exp(np.mean(np.log(growth_factors)))) if growth_factors else 1.0
    sup_mid = sups[n_cov // 2]
    if growth > 1 + 1e-12:
        implied_n = 6 * math.log(sup_global / sup_mid) / math.log(growth) \
            if sup_global > sup_mid else 0.0
    else:
        implied_n = float("inf")

    rep = ExperimentReport(
        name="avoided-crossing",
        claim=("on a wavelength-thin corridor the per-square absorbed, "
               "transition and exit masses account for all paths, transitions "
               "decay like a Gaussian in square distance, and the killed-flow "
               "decay inequality holds at every interior square"),
        inputs={"alpha": alpha, "lam_geom": lam_geom, "width": w,
                "n_covered": n_cov, "n_margin": corridor.n_margin,
                "t": t, "n_paths": n, "seed": cfg.seed},
    )
    rep.constants.update({
        "lam_model": lam_model,
        "p_boundary_mean": float(p_b[1:-1].mean()),
        "gamma_gaussian": gamma,
        "r2_gaussian": r2_gauss,
        "growth_factor": growth,
        "implied_max_squares": implied_n,
        "bookkeeping_worst": float(book_err.max()),
    })
    rep.references.update({
        "decay_factor_model": decay_honest,
        "decay_factor_idealized": decay_idealized,
    })
    rep.check("bookkeeping-sums-to-one", bool(book_err.max() <= 1e-9),
              f"worst |p_b + sum p_ij + p_ie - 1| = {book_err.max():.2e}")
    interior = slice(1, n_cov - 1)
    pb_int = p_b[interior]
    pb_se = pb_int.std(ddof=1) / math.sqrt(pb_int.size)
    rep.check("p-boundary-constant",
              bool(np.abs(pb_int - pb_int.mean()).max() <= max(3 * pb_se, 3e-4)),
              f"interior p_b spread {np.ptp(pb_int):.2e}")
    rep.check("gaussian-fit", bool(r2_gauss >= 0.95), f"r^2 = {r2_gauss:.4f}")
    for i, lhs, rhs_mean, rhs_se in diamond_rows:
        if 1 <= i < n_cov - 1:
            rep.check(f"decay-inequality-square-{i}",
                      bool(lhs <= rhs_mean + 3 * rhs_se + 1e-12),
                      f"{lhs:.3e} <= {rhs_mean:.3e} + 3*{rhs_se:.1e}")
    rep.curves["transition_matrix"] = p_ij
    rep.curves["per_square"] = np.column_stack(
        [np.arange(n_cov), p_b, p_ie, sups,
         np.array([r[1] for r in diamond_rows]),
         np.array([r[2] for r in diamond_rows]),
         np.array([r[3] for r in diamond_rows])])
    rep.notes.append("per_square columns: index, p_boundary, p_exit, sup_u, "
                     "decay_lhs, decay_rhs, decay_rhs_se")
    rep.notes.append("the decay inequality uses the corridor model's own "
                     "eigenvalue; the idealized width-derived factor is reported "
                     "alongside")
    rep.notes.append("horizon convention: t = width^2 (the diffusive square "
                     "scale); an exponentially small alternative horizon is "
                     "sometimes quoted for this construction and is not used")
    return rep


# ---------------------------------------------------------------------------
# cone condition
# ---------------------------------------------------------------------------

def _wedge_fk_survival(k_order: int, s: float, t: float, cfg: PathEnsembleConfig):
    """Killed-evolution value and survival from (s, 0) in the sector W(pi/k)."""
    # the horizon scales with the apex distance, so the step must too;
    # cfg.dt only sizes the bias allowance of the cone checks
    killed, end = _wedge_walk(s, math.pi / (2 * k_order), t, replace(cfg, dt=t / 500))
    z = end[:, 0] + 1j * end[:, 1]
    vals = np.where(killed, 0.0, (z ** k_order).real)
    return McEstimate.from_samples(vals), McEstimate.from_samples((~killed).astype(float))


def _exit_law_check(spec: ConeSpec, cfg: PathEnsembleConfig):
    """(exact, mc, allowance, passed, detail) of the cone exit law from (1, 0):
    it passes when |mc - exact| <= 3 se + cone_bias_allowance(cfg.dt or 2e-4)."""
    exact = cone_exit_exact(spec)
    mc = cone_exit_mc(spec, cfg)
    allow = cone_bias_allowance(2e-4 if cfg.dt is None else cfg.dt, cfg)
    return (exact, mc, allow, abs(mc.mean - exact) <= 3 * mc.std_error + allow,
            f"|{mc.mean:.5f} - {exact:.5f}| <= 3se + {allow:.4f}")


def cone_exit_law(spec: ConeSpec, cfg: PathEnsembleConfig) -> ExperimentReport:
    """The closed-form exit law of the cone W(alpha) with stop radius r against
    its simulation; cfg.dt (None: 2e-4) only sizes the bias allowance."""
    exact, mc, _, passed, detail = _exit_law_check(spec, cfg)
    rep = ExperimentReport(
        name="cone", claim="the closed-form cone exit law matches simulation",
        inputs={"alpha": spec.alpha, "r": spec.r, "paths": cfg.n_paths, "dt": cfg.dt,
                "seed": cfg.seed},
        constants={"mc": mc.mean, "mc_std_error": mc.std_error},
        references={"exact": exact})
    rep.check("exit-law", passed, detail)
    return rep


def cone_condition_decay(k: int, cfg: PathEnsembleConfig,
                         s_values=(0.05, 0.1, 0.2)) -> ExperimentReport:
    """Survival decay near a cone apex versus the model's vanishing order.

    On the harmonic sector model of degree k (opening angle pi/k) the exact
    exit law gives survival ~ r^(-pi/alpha); rescaling time t = s turns
    that into a survival exponent pi/(2 alpha) = k/2 in the apex distance,
    which must not exceed the vanishing order k.  The killed evolution of
    the harmonic data itself is a martingale, so its Monte Carlo value must
    reproduce u(x) at every apex distance.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    alpha = math.pi / k

    radii = np.asarray(CONE_RADII, dtype=float)
    exact = np.array([cone_exit_exact(ConeSpec(alpha=alpha, r=r)) for r in radii])
    slope = float(np.polyfit(np.log(radii), np.log(exact), 1)[0])
    survival_exp = -slope / 2
    reference_exp = k / 2

    exact0, mc, allow, law_passed, law_detail = _exit_law_check(
        ConeSpec(alpha=alpha, r=float(radii[0])), cfg)

    rep = ExperimentReport(
        name="cone-condition",
        claim=("survival probability near the apex of an opening-angle pi/k "
               "sector decays with exponent k/2 in the apex distance, which "
               "stays below the vanishing order k; the killed evolution of the "
               "harmonic sector data is a martingale"),
        inputs={"k": k, "alpha": alpha, "radii": tuple(radii),
                "s_values": tuple(s_values), "n_paths": cfg.n_paths,
                "seed": cfg.seed, "c1": ENVELOPE_C1, "c2": ENVELOPE_C2},
    )
    rep.constants.update({
        "survival_exponent_measured": survival_exp,
        "exit_exponent_measured": -slope,
        "cone_exit_mc": mc.mean,
        "cone_exit_mc_std_error": mc.std_error,
    })
    rep.references.update({
        "survival_exponent": reference_exp,
        "exit_exponent": math.pi / alpha,
        "cone_exit_exact": exact0,
    })
    rep.check("survival-exponent-matches",
              abs(survival_exp - reference_exp) <= 0.10 * reference_exp,
              f"{survival_exp:.4f} vs {reference_exp:.4f} (10%)")
    rep.check("exponent-below-vanishing-order", survival_exp <= k + 0.1,
              f"{survival_exp:.4f} <= {k}")
    rep.check("exit-law-mc", law_passed, law_detail)

    # killed-evolution martingale at apex distances, time t = s
    fk_rows = []
    for s in s_values:
        fk, surv = _wedge_fk_survival(k, s, s, cfg)
        u_exact = s ** k
        tol = 3 * fk.std_error + allow * u_exact + 1e-12
        rep.check(f"martingale-s={s:g}", bool(abs(fk.mean - u_exact) <= tol),
                  f"|{fk.mean:.4e} - {u_exact:.4e}| <= {tol:.2e}")
        envelope_lo = ENVELOPE_C1 * s ** (ENVELOPE_C2 * k)
        envelope_hi = 2 * s ** reference_exp
        rep.check(f"envelope-s={s:g}", None,
                  f"{envelope_lo:.3e} <= v = {fk.mean:.3e} <= {envelope_hi:.3e} "
                  "(order-of-vanishing envelope, report only)")
        fk_rows.append((s, fk.mean, fk.std_error, u_exact, surv.mean))
    if k == 1:
        erf_surv = [math.erf(math.sqrt(s) / 2) for s in s_values]
        rep.notes.append("half-plane oracle: survival over t=s from distance s "
                         f"is erf(sqrt(s)/2) = {[f'{v:.4f}' for v in erf_surv]}")
    rep.curves["fk_axis"] = np.array(fk_rows)
    rep.notes.append("fk_axis columns: s, v_mc, v_se, u_exact, survival")
    rep.curves["exit_law"] = np.column_stack([radii, exact])
    return rep


# ---------------------------------------------------------------------------
# heat content isoperimetry sweep
# ---------------------------------------------------------------------------

def default_isoperimetry_family(n: int = 384):
    """Built-in masks: rectangles, an ell, a slit, a comb, a smooth disk and
    a torus nodal domain."""
    family = []

    def add(name, grid, predicate):
        f = indicator_field(grid, predicate)
        m = label_nodal_domains(f)
        family.append((name, m, principal_label(m, 1)))

    add("square", GridSpec(nx=n, ny=n),
        lambda x, y: np.ones_like(x, dtype=bool))
    add("rectangle-1x0.5", GridSpec(nx=n, ny=n // 2, extent_x=1.0, extent_y=0.5),
        lambda x, y: np.ones_like(x, dtype=bool))
    add("ell", GridSpec(nx=n, ny=n),
        lambda x, y: (x < 0.5) | (y < 0.5))
    h = 1.0 / n
    add("slit", GridSpec(nx=n, ny=n),
        lambda x, y: ~((np.abs(x - 0.5) < h) & (y > 0.5)))
    add("comb", GridSpec(nx=n, ny=n),
        lambda x, y: ~((y > 0.5) & ((np.abs(x - 0.25) < 0.05)
                                    | (np.abs(x - 0.5) < 0.05)
                                    | (np.abs(x - 0.75) < 0.05))))

    # smooth curved member: the bilinear contour of a radial field tracks the
    # circle to O(h^2), unlike a +-1 indicator
    gd = GridSpec(nx=n, ny=n, x0=-0.65, y0=-0.65, extent_x=1.3, extent_y=1.3)
    x, y = gd.cell_center_axes()
    fdisk = ScalarField(grid=gd, values=_read_only(0.25 - (x ** 2 + y ** 2)))
    md = label_nodal_domains(fdisk)
    family.append(("disk", md, principal_label(md, 1)))

    from .fields import make_torus_eigenfunction
    torus = make_torus_eigenfunction(1, 1)
    gt = grid_for_model(torus, n)
    ft = sample_field(torus, gt)
    mt = label_nodal_domains(ft)
    family.append(("torus-1-1-domain", mt, principal_label(mt, 1)))
    return family


def isoperimetry_sweep(domain_family=None, t_list=None,
                       n_steps: int = 64) -> ExperimentReport:
    """Ratio R = content / (boundary length * sqrt(t)) over a domain family.

    Report-only conjecture sweep: R should stay below the half-plane
    constant 2/sqrt(pi) up to discretization, flatten as t -> 0, and stay
    comparable across the wavelength range on a nodal domain.
    """
    if domain_family is None:
        domain_family = default_isoperimetry_family()
    if t_list is None:
        t_list = np.logspace(-4, -3, 6)
    t_list = np.asarray(sorted(t_list), dtype=float)

    rep = ExperimentReport(
        name="isoperimetry",
        claim=("heat content stays below a constant times boundary length "
               "times sqrt(t); the ratio approaches the half-plane constant "
               "2/sqrt(pi) on flat walls and never exceeds it by more than "
               "discretization"),
        inputs={"n_domains": len(domain_family), "times": tuple(t_list),
                "n_steps": n_steps},
    )
    rows = []
    max_r = 0.0
    running_max = 0.0
    flagged = []
    drifts = {}
    square_r_small = None
    for name, mask, label in domain_family:
        perim = boundary_length(mask, label)
        curve = heat_content_curve(mask, label, t_list, n_steps)
        r_vals = curve.contents / (perim * np.sqrt(t_list))
        for t, content, r in zip(t_list, curve.contents, r_vals):
            rows.append((name, t, content, perim, r))
            if running_max > 0 and r > 1.05 * running_max:
                flagged.append((name, float(t), float(r)))
            running_max = max(running_max, r)
        max_r = max(max_r, float(r_vals.max()))
        drifts[name] = abs(r_vals[0] - r_vals[-1]) / r_vals[-1]
        if name == "square":
            square_r_small = float(r_vals[0])
        if name == "torus-1-1-domain":
            # stability up to the wavelength time 1/lambda
            lam = 8 * math.pi ** 2
            wl_times = np.logspace(math.log10(t_list[0]), math.log10(1 / lam), 5)
            wl_curve = heat_content_curve(mask, label, wl_times, n_steps)
            wl_r = wl_curve.contents / (perim * np.sqrt(wl_times))
            rep.constants["torus_wavelength_ratio_spread"] = float(wl_r.max() / wl_r.min())
            rep.check("torus-comparable-up-to-wavelength",
                      bool(wl_r.max() <= 2 * wl_r.min()),
                      f"R range [{wl_r.min():.4f}, {wl_r.max():.4f}] over "
                      f"t in [{wl_times[0]:.2e}, {wl_times[-1]:.2e}]")

    rep.constants["max_ratio"] = max_r
    rep.references["halfplane_constant"] = HALFPLANE_CONSTANT
    rep.check("max-ratio-bounded", max_r <= 1.2 * HALFPLANE_CONSTANT,
              f"max R = {max_r:.4f} <= 1.2 * {HALFPLANE_CONSTANT:.4f}")
    if square_r_small is not None:
        rep.constants["square_ratio_small_t"] = square_r_small
        rep.check("square-matches-halfplane",
                  abs(square_r_small - HALFPLANE_CONSTANT) <= 0.03 * HALFPLANE_CONSTANT,
                  f"{square_r_small:.4f} vs {HALFPLANE_CONSTANT:.4f} (3%)")
    for name, drift in drifts.items():
        rep.check(f"flat-limit-{name}", bool(drift <= 0.05),
                  f"decade drift {drift * 100:.2f}%")
    rep.check("ratio-jumps", None,
              f"{len(flagged)} ratio(s) exceeded the running max by more than 5%"
              + (f": {flagged}" if flagged else ""))
    names = [nm for nm, _, _ in domain_family]
    rep.curves["sweep"] = np.array([(names.index(nm), t, c, p, r)
                                    for nm, t, c, p, r in rows])
    rep.notes.append("sweep columns: domain_index, t, content, perimeter, R; "
                     "domains: " + ", ".join(f"{i}={nm}" for i, nm in enumerate(names)))
    return rep


# ---------------------------------------------------------------------------
# global survival field
# ---------------------------------------------------------------------------

def global_survival_field(model: EigenfunctionModel, grid: GridSpec,
                          cfg: PathEnsembleConfig | None = None,
                          n_steps: int = 128) -> ExperimentReport:
    """Global p_{1/lambda} stitched from per-domain solves; its infimum.

    Report-only conjecture sweep: the infimum over the whole manifold of the
    wavelength-time hitting probability should stay bounded away from zero.
    """
    lam = model.eigenvalue
    if lam <= 0:
        raise InvalidParameterError("model must be an eigenfunction")
    t = 1.0 / lam
    field = sample_field(model, grid)
    mask = label_nodal_domains(field)
    values = np.ones((grid.ny, grid.nx))
    minima = []
    for label in range(1, mask.n_labels + 1):
        sel = mask.cells(label)
        sol = solve_hitting_field(mask, label, t, n_steps)
        values[sel] = sol.values[sel]
        minima.append(float(sol.values[sel].min()))
    labeled = mask.labels > 0
    inf_val = float(values[labeled].min())
    iy, ix = np.unravel_index(int(np.argmin(np.where(labeled, values, np.inf))),
                              values.shape)
    loc = grid.cell_center(iy, ix)

    rep = ExperimentReport(
        name="global-survival",
        claim="the globally stitched wavelength-time hitting probability "
              "p_{1/lambda} is bounded away from zero over the whole surface",
        inputs={"model": model.kind, "mode": model.mode, "lambda": lam,
                "grid": (grid.nx, grid.ny), "t": t},
    )
    rep.constants.update({
        "inf_p": inf_val,
        "inf_location_x": loc[0],
        "inf_location_y": loc[1],
        "minima_spread": float(np.ptp(minima)) if minima else 0.0,
    })
    rep.check("infimum-positive", inf_val > 0, f"inf p = {inf_val:.5f}")
    rep.check("per-domain-minima", None,
              "domain minima: " + ", ".join(f"{v:.6f}" for v in minima))
    if cfg is not None:
        est = estimate_hitting_probability(mask, int(mask.labels[iy, ix]),
                                           loc, t, cfg)
        allow = mc_probability_allowance(t, cfg)
        rep.constants["inf_p_mc"] = est.mean
        rep.check("mc-agrees-at-infimum",
                  abs(est.mean - inf_val) <= 3 * est.std_error + allow + 0.01,
                  f"|{est.mean:.4f} - {inf_val:.4f}| <= 3se + {allow + 0.01:.4f}")
    rep.curves["field"] = values
    rep.curves["minima"] = np.column_stack([np.arange(1, mask.n_labels + 1), minima])
    return rep


# ---------------------------------------------------------------------------
# ball intersection search
# ---------------------------------------------------------------------------

def _disk_kernel(radius_cells: float):
    m = int(math.ceil(radius_cells + 1))
    yy, xx = np.mgrid[-m:m + 1, -m:m + 1]
    d = np.hypot(xx, yy)
    return np.clip(radius_cells - d + 0.5, 0.0, 1.0)


def ball_intersection_search(mask: DomainMask, label: int, t: float,
                             c1: float = 0.5, n_steps: int = 64) -> ExperimentReport:
    """Largest relative overlap of a radius-sqrt(t) ball with the domain.

    Report-only: when the heat content at t clears c1 * boundary * sqrt(t),
    some ball of radius sqrt(t) should cover a dimension-dependent fraction
    of the domain; the maximal measured fraction is the implied constant.
    """
    if not 0 < t < math.inf:
        raise InvalidParameterError(f"t must be positive and finite, got {t}")
    grid = mask.grid
    radius = math.sqrt(t)
    if radius < grid.h:
        raise InvalidParameterError("sqrt(t) must be at least one cell")
    kern = _disk_kernel(radius / grid.h)
    ky, kx = kern.shape
    oy, ox = ky // 2, kx // 2
    # a circular convolution wraps the periodic axes; each walled axis is
    # zero-padded by the kernel's half-width first, so nothing wraps there
    py = 0 if grid.periodic_y else oy
    px = 0 if grid.periodic_x else ox
    sel = np.pad(mask.cells(label).astype(float), ((py, py), (px, px)))
    wrapped = np.zeros_like(sel)
    ys = (np.arange(ky) - oy) % sel.shape[0]
    xs = (np.arange(kx) - ox) % sel.shape[1]
    wrapped[np.ix_(ys, xs)] += kern
    overlap = np.real(np.fft.ifft2(np.fft.fft2(sel) * np.fft.fft2(wrapped)))
    overlap = overlap[py:py + grid.ny, px:px + grid.nx] * grid.h ** 2
    ball_area = float(kern.sum()) * grid.h ** 2     # discrete |B|, ~ pi t
    ratio = overlap / ball_area
    best = float(ratio.max())
    # the first cell within 1e-12 (relative) of the maximum: FFT noise is
    # about 1e-15, and a ball poking out loses at least its smallest kernel weight
    iy, ix = np.unravel_index(int(np.argmax(ratio >= best * (1 - 1e-12))), ratio.shape)
    argmax_x, argmax_y = grid.cell_center(iy, ix)

    content = heat_content(mask, label, t, n_steps)
    perim = boundary_length(mask, label)
    premise = content >= c1 * perim * radius

    rep = ExperimentReport(
        name="ball-search",
        claim=("a domain whose heat content at t clears a constant times "
               "boundary length times sqrt(t) contains most of some ball of "
               "radius sqrt(t)"),
        inputs={"label": label, "t": t, "radius": radius, "c1": c1},
    )
    rep.constants.update({
        "max_overlap_ratio": best,
        "implied_c2": best,
        "argmax_x": argmax_x,
        "argmax_y": argmax_y,
        "heat_content": content,
        "boundary_length": perim,
    })
    rep.references["premise_threshold"] = c1 * perim * radius
    rep.check("content-premise", None,
              f"content {content:.5f} {'>=' if premise else '<'} "
              f"c1 * boundary * sqrt(t) = {c1 * perim * radius:.5f}")
    rep.check("ratio-in-range", 0.0 < best <= 1.0 + 1e-9, f"max ratio {best:.4f}")
    return rep
