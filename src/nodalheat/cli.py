"""Config-driven experiment runner.

One subcommand per experiment; flags override an optional flat key=value
config file.  All randomness comes from the --seed flag (fixed default, never
wall clock), and report/CSV emission is byte-stable so identical configs give
identical artifacts regardless of thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bounds
from .errors import EmptyDomainError, InvalidParameterError
from .fields import (
    make_cone_model,
    make_disk_eigenfunction,
    make_rectangle_eigenfunction,
    make_torus_eigenfunction,
)
from .heat import heat_content_curve, solve_hitting_field
from .nodal import (
    boundary_length,
    extract_nodal_set,
    grid_for_model,
    label_nodal_domains,
    sample_field,
)
from .stochastic import PathEnsembleConfig, cone_exit_exact, cone_exit_mc, ConeSpec

EXPERIMENTS = [
    "heat-content", "comparison", "theorem1", "max-point", "thin-domain",
    "avoided-crossing", "cone", "isoperimetry", "global-survival",
    "ball-search", "suite",
]

DEFAULT_SEED = 20260808


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (np.floating,)):
        return f"{float(x):.17g}"
    return str(x)


def parse_model(spec: str):
    """kind:params, e.g. torus:1,1 | rect:2,1,1.0,1.0 | disk:0,1[,R] | cone:3."""
    try:
        kind, _, rest = spec.partition(":")
        parts = [p for p in rest.split(",") if p]
        if kind == "torus":
            return make_torus_eigenfunction(int(parts[0]), int(parts[1]))
        if kind == "rect":
            a = float(parts[2]) if len(parts) > 2 else 1.0
            b = float(parts[3]) if len(parts) > 3 else 1.0
            return make_rectangle_eigenfunction(int(parts[0]), int(parts[1]), a, b)
        if kind == "disk":
            radius = float(parts[2]) if len(parts) > 2 else 1.0
            return make_disk_eigenfunction(int(parts[0]), int(parts[1]), radius)
        if kind == "cone":
            return make_cone_model(int(parts[0]))
    except (IndexError, ValueError) as exc:
        raise InvalidParameterError(f"bad model spec {spec!r}: {exc}")
    raise InvalidParameterError(
        f"unknown model kind {kind!r} (use torus|rect|disk|cone)")


def parse_times(spec: str) -> np.ndarray:
    """a:b:n -> n log-spaced times in [a, b]."""
    try:
        a, b, n = spec.split(":")
        return np.logspace(math.log10(float(a)), math.log10(float(b)), int(n))
    except ValueError as exc:
        raise InvalidParameterError(f"bad times spec {spec!r}: {exc}")


def load_config_file(path: str) -> dict:
    """Flat key=value text; keys mirror the long flags with '-' as '_'."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(report, out_dir: str, emit_fields: bool = False) -> list:
    """One structured-text report plus CSV tables; byte-stable across reruns."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rp = os.path.join(out_dir, f"{report.name}.report.txt")
    lines = [f"experiment = {report.name}",
             f"claim = {report.claim}",
             f"verdict = {report.verdict}",
             "[inputs]"]
    for k in sorted(report.inputs):
        lines.append(f"{k} = {_fmt(report.inputs[k])}")
    lines.append("[constants]")
    for k in sorted(report.constants):
        lines.append(f"{k} = {_fmt(report.constants[k])}")
    lines.append("[references]")
    for k in sorted(report.references):
        lines.append(f"{k} = {_fmt(report.references[k])}")
    lines.append("[checks]")
    for c in report.checks:
        state = {True: "pass", False: "FAIL", None: "info"}[c.passed]
        lines.append(f"{c.name} = {state}; {c.detail}")
    if report.notes:
        lines.append("[notes]")
        lines.extend(report.notes)
    with open(rp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    paths.append(rp)

    for cname, arr in sorted(report.curves.items()):
        if cname == "field" and not emit_fields:
            continue
        arr = np.asarray(arr)
        cp = os.path.join(out_dir, f"{report.name}.{cname}.csv")
        with open(cp, "w") as fh:
            if arr.ndim == 1:
                arr = arr[:, None]
            fh.write(",".join(f"c{i}" for i in range(arr.shape[1])) + "\n")
            for row in arr:
                fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
        paths.append(cp)
    return paths


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _mask_label(model, n, domain_index):
    grid = grid_for_model(model, n)
    field = sample_field(model, grid)
    mask = label_nodal_domains(field)
    if not 0 <= domain_index < mask.n_labels:
        raise InvalidParameterError(
            f"--domain {domain_index} is not in 0..{mask.n_labels - 1}")
    return grid, field, mask, domain_index + 1


def _eigen_time(ns, model) -> float:
    """--t if given, else 1/lambda; a harmonic model (lambda = 0) needs --t."""
    if ns.t:
        return ns.t
    if model.eigenvalue <= 0:
        raise InvalidParameterError(
            f"model {ns.model} has lambda = 0, so there is no default "
            "t = 1/lambda; pass --t")
    return 1.0 / model.eigenvalue


def run_heat_content(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    grid, field, mask, label = _mask_label(model, ns.grid, ns.domain)
    times = parse_times(ns.times)
    curve = heat_content_curve(mask, label, times, n_steps=ns.steps)
    perim = boundary_length(mask, label, field)
    ref = bounds.HALFPLANE_CONSTANT * perim
    rep = bounds.ExperimentReport(
        name="heat-content",
        claim="heat content of a nodal domain grows like c sqrt(t) with "
              "c equal to the half-plane constant times the boundary length",
        inputs={"model": ns.model, "grid": ns.grid, "domain": ns.domain,
                "times": ns.times, "steps": ns.steps},
    )
    rep.constants.update({"slope": curve.slope, "r_squared": curve.r_squared,
                          "boundary_length": perim})
    rep.references["slope_halfplane"] = ref
    rep.check("slope-matches-boundary-law",
              abs(curve.slope - ref) <= 0.05 * ref,
              f"{curve.slope:.5f} vs {ref:.5f} (5%)")
    rep.check("fit-quality", curve.r_squared >= 0.995,
              f"r^2 = {curve.r_squared:.6f}")
    rep.curves["curve"] = np.column_stack([curve.times, curve.contents,
                                           curve.running_slopes])
    rep.notes.append("curve columns: t, content, slope_running")
    if ns.emit_fields:
        fld = solve_hitting_field(mask, label, float(times[-1]), ns.steps)
        rep.curves["field"] = fld.values
        rep.curves["u_matrix"] = field.values
        rep.curves["labels_matrix"] = mask.labels.astype(float)
        chains = extract_nodal_set(field).polylines
        if chains:
            rows = [np.column_stack([np.full(len(c), i), c])
                    for i, c in enumerate(chains)]
            rep.curves["polylines"] = np.vstack(rows)
            rep.notes.append("polylines columns: chain_id, x, y")
    return rep


def run_comparison(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    _, _, mask, label = _mask_label(model, ns.grid, ns.domain)
    t = _eigen_time(ns, model)
    cfg = _path_cfg(ns, t, 200)
    return bounds.check_comparison_lemma(model, mask, label, None, t, cfg)


def run_theorem1(ns) -> bounds.ExperimentReport:
    modes = [int(m) for m in ns.modes.split(",")]
    rep = bounds.ExperimentReport(
        name="theorem1",
        claim="heat-content certificates track the nodal length across the "
              "diagonal eigenvalue sweep",
        inputs={"modes": ns.modes, "grid": ns.grid},
    )
    rows = []
    ratio_mins, ratio_maxs = [], []
    for m in modes:
        model = make_torus_eigenfunction(m, m)
        grid = grid_for_model(model, ns.grid)
        sub = bounds.theorem1_certificate(model, grid, n_steps=ns.steps)
        c = sub.constants
        rows.append((m, model.eigenvalue, c["nodal_length"],
                     c["sum_boundary_lengths"], c["certificate_sup_form"],
                     c["ratio_min"], c["ratio_max"]))
        ratio_mins.append(c["ratio_min"])
        ratio_maxs.append(c["ratio_max"])
        ref_len = 4.0 * m
        ref_sum = 8.0 * m
        ref_cert = 8 * math.sqrt(2) * m / math.pi
        rep.check(f"nodal-length-m{m}",
                  abs(c["nodal_length"] - ref_len) <= 0.02 * ref_len,
                  f"{c['nodal_length']:.4f} vs {ref_len} (2%)")
        rep.check(f"boundary-sum-m{m}",
                  abs(c["sum_boundary_lengths"] - ref_sum) <= 0.02 * ref_sum,
                  f"{c['sum_boundary_lengths']:.4f} vs {ref_sum} (2%)")
        rep.check(f"certificate-m{m}",
                  abs(c["certificate_sup_form"] - ref_cert) <= 0.02 * ref_cert
                  and c["certificate_sup_form"] <= c["nodal_length"],
                  f"{c['certificate_sup_form']:.4f} vs {ref_cert:.4f}, "
                  f"<= length {c['nodal_length']:.4f}")
        for chk in sub.checks:
            if chk.passed is False:
                rep.check(f"m{m}:{chk.name}", False, chk.detail)
    spread = max(ratio_maxs) / min(ratio_mins)
    rep.constants["ratio_spread_across_modes"] = spread
    rep.check("ratio-stable-across-modes", spread <= 2.0,
              f"max/min per-domain ratio across modes = {spread:.3f}")
    if len(modes) >= 2:
        # growth exponents in lambda: diagonal torus lengths and certificates
        # both scale like sqrt(lambda), comfortably above the quarter-power
        # certificate floor
        arr = np.array(rows)
        log_lam = np.log(arr[:, 1])
        slope_len = float(np.polyfit(log_lam, np.log(arr[:, 2]), 1)[0])
        slope_cert = float(np.polyfit(log_lam, np.log(arr[:, 4]), 1)[0])
        rep.constants["length_exponent"] = slope_len
        rep.constants["certificate_exponent"] = slope_cert
        rep.check("certificate-trend-above-quarter-power",
                  slope_cert >= 0.25 - 0.02,
                  f"certificate grows like lambda^{slope_cert:.3f} "
                  f"(floor 1/4); length like lambda^{slope_len:.3f}")
    rep.curves["sweep"] = np.array(rows)
    rep.notes.append("sweep columns: m, lambda, nodal_length, boundary_sum, "
                     "certificate, ratio_min, ratio_max")
    return rep


def run_max_point(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    _, _, mask, label = _mask_label(model, ns.grid, ns.domain)
    t = _eigen_time(ns, model)
    cfg = _path_cfg(ns, t, 200)
    return bounds.max_point_survival(model, mask, label, t, cfg, n_steps=ns.steps)


def run_thin_domain(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    lam = model.eigenvalue
    if lam <= 0:
        raise InvalidParameterError(
            f"model {ns.model} has lambda = 0; thin-domain sizes its tube "
            "as c/sqrt(lambda)")
    tube = bounds.TubeSpec(segment=((0.0, 0.25), (1.0, 0.25)),
                           half_width=ns.c / math.sqrt(lam))
    t = ns.t if ns.t else 1.0 / lam
    cfg = _path_cfg(ns, t, 500)
    return bounds.thin_domain_check(model, tube, t, cfg, grid_n=ns.grid)


def run_avoided_crossing(ns) -> bounds.ExperimentReport:
    cor = bounds.CorridorSpec(lam_geom=ns.lam_geom, n_covered=ns.squares,
                              n_margin=ns.margin)
    cfg = PathEnsembleConfig(n_paths=ns.paths, dt=ns.dt, seed=ns.seed,
                             bridge_correction=ns.bridge)
    return bounds.avoided_crossing_scan(cor, ns.alpha, cfg)


def run_cone(ns) -> bounds.ExperimentReport:
    cfg = PathEnsembleConfig(n_paths=ns.paths, dt=ns.dt if ns.dt else 1e-3,
                             seed=ns.seed, bridge_correction=ns.bridge)
    if ns.alpha is not None:
        spec = ConeSpec(alpha=ns.alpha, r=ns.r)
        exact = cone_exit_exact(spec)
        mc = cone_exit_mc(spec, cfg)
        allow = bounds.cone_bias_allowance(cfg.dt, cfg)
        rep = bounds.ExperimentReport(
            name="cone",
            claim="the closed-form cone exit law matches simulation",
            inputs={"alpha": ns.alpha, "r": ns.r, "paths": ns.paths,
                    "dt": cfg.dt, "seed": ns.seed},
        )
        rep.constants.update({"mc": mc.mean, "mc_std_error": mc.std_error})
        rep.references["exact"] = exact
        rep.check("exit-law", abs(mc.mean - exact) <= 3 * mc.std_error + allow,
                  f"|{mc.mean:.5f} - {exact:.5f}| <= 3se + {allow:.4f}")
        return rep
    return bounds.cone_condition_decay(ns.k, cfg)


def run_isoperimetry(ns) -> bounds.ExperimentReport:
    family = bounds.default_isoperimetry_family(ns.grid)
    times = parse_times(ns.times) if ns.times else None
    return bounds.isoperimetry_sweep(family, times, n_steps=ns.steps)


def run_global_survival(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    grid = grid_for_model(model, ns.grid)
    cfg = None
    if ns.paths:
        cfg = PathEnsembleConfig(n_paths=ns.paths, dt=ns.dt, seed=ns.seed,
                                 bridge_correction=ns.bridge)
    rep = bounds.global_survival_field(model, grid, cfg, n_steps=ns.steps)
    if not ns.emit_fields:
        rep.curves.pop("field", None)
    return rep


def run_ball_search(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    _, _, mask, label = _mask_label(model, ns.grid, ns.domain)
    t = _eigen_time(ns, model)
    return bounds.ball_intersection_search(mask, label, t, c1=ns.c1,
                                           n_steps=ns.steps)


def _path_cfg(ns, t, default_steps) -> PathEnsembleConfig:
    dt = ns.dt if ns.dt else t / default_steps
    return PathEnsembleConfig(n_paths=ns.paths, dt=dt, seed=ns.seed,
                              bridge_correction=ns.bridge)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _suite_jobs(ns):
    """(name, argv) pairs for every acceptance experiment at suite scale."""
    q = ns.quick
    seed = ns.seed
    jobs = [
        ("heat-content", ["heat-content", "--grid", "256" if q else "1024",
                          "--times", "4e-5:4e-4:6" if q else "1e-5:1e-4:8",
                          "--steps", "32" if q else "64"]),
        ("comparison", ["comparison", "--paths", "2000" if q else "20000",
                        "--grid", "128" if q else "256"]),
        ("theorem1", ["theorem1", "--modes", "1,2" if q else "1,2,3,4",
                      "--grid", "128" if q else "256",
                      "--steps", "48" if q else "96"]),
        ("max-point", ["max-point", "--paths", "5000" if q else "100000",
                       "--grid", "128" if q else "256"]),
        ("thin-domain", ["thin-domain", "--c", "0.4",
                         "--paths", "20000" if q else "100000",
                         "--grid", "128" if q else "256"]),
        ("avoided-crossing", ["avoided-crossing",
                              "--paths", "20000" if q else "100000",
                              "--squares", "8" if q else "12"]),
        ("cone", ["cone", "--k", "2", "--paths", "20000" if q else "100000",
                  "--dt", "1e-3" if q else "5e-4"]),
        ("isoperimetry", ["isoperimetry", "--grid", "192" if q else "384",
                          "--steps", "32" if q else "64"]),
        ("global-survival", ["global-survival",
                             "--grid", "128" if q else "256"]),
        ("ball-search", ["ball-search", "--grid", "128" if q else "256"]),
    ]
    out = []
    for name, argv in jobs:
        out.append((name, argv + ["--seed", str(seed)]))
    return out


def run_suite(ns) -> int:
    parser = build_parser()
    jobs = _suite_jobs(ns)

    def run_one(item):
        name, argv = item
        sub_ns = parser.parse_args(argv + ["--out", ns.out])
        try:
            rep = _run_recording_warnings(name, sub_ns)
        except Exception as exc:   # a crashed job must not kill the suite
            rep = bounds.ExperimentReport(name=name, claim="(crashed)")
            rep.check("completed", False, f"{type(exc).__name__}: {exc}")
        return name, rep, sub_ns

    if ns.threads > 1:
        with ThreadPoolExecutor(max_workers=ns.threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(j) for j in jobs]

    lines = []
    worst = 0
    for name, rep, sub_ns in results:
        emit_report(rep, ns.out, emit_fields=sub_ns.emit_fields)
        lines.append(f"{name} = {rep.verdict}")
        print(f"[{rep.verdict.upper():11s}] {name}")
        if rep.verdict == "fail":
            worst = 1
    summary = os.path.join(ns.out, "suite_summary.txt")
    os.makedirs(ns.out, exist_ok=True)
    with open(summary, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return worst


def _run_recording_warnings(name, ns) -> bounds.ExperimentReport:
    """Run one experiment; sampling warnings land in the report notes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = DISPATCH[name](ns)
    seen = []
    for w in caught:
        msg = f"warning: {w.message}"
        if msg not in seen:
            seen.append(msg)
    rep.notes.extend(seen)
    return rep


DISPATCH = {
    "heat-content": run_heat_content,
    "comparison": run_comparison,
    "theorem1": run_theorem1,
    "max-point": run_max_point,
    "thin-domain": run_thin_domain,
    "avoided-crossing": run_avoided_crossing,
    "cone": run_cone,
    "isoperimetry": run_isoperimetry,
    "global-survival": run_global_survival,
    "ball-search": run_ball_search,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nodalheat",
        description="heat-flow and Brownian-motion experiments on nodal domains")
    sub = p.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")

    def common(sp):
        sp.add_argument("--config", default=None, help="flat key=value file")
        sp.add_argument("--model", default="torus:1,1")
        sp.add_argument("--grid", type=int, default=256)
        sp.add_argument("--domain", type=int, default=0,
                        help="0-based nodal domain index")
        sp.add_argument("--times", default=None, help="a:b:n log-spaced")
        sp.add_argument("--paths", type=int, default=100000)
        sp.add_argument("--dt", type=float, default=None,
                        help="Monte Carlo time step; the avoided-crossing "
                             "walk is exact in time and only validates it "
                             "(at most t/100)")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--bridge", action=argparse.BooleanOptionalAction,
                        default=True)
        sp.add_argument("--out", default="out")
        sp.add_argument("--emit-fields", action="store_true")
        sp.add_argument("--steps", type=int, default=96,
                        help="ADI time steps (at least 10); rectangle domains "
                             "are solved exactly in time and ignore it")
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--quick", action="store_true")
        sp.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("heat-content"); common(sp)
    sp.set_defaults(times="1e-5:1e-4:8", grid=1024, steps=64)
    sp = sub.add_parser("comparison"); common(sp)
    sp = sub.add_parser("theorem1"); common(sp)
    sp.add_argument("--modes", default="1,2,3,4")
    sp = sub.add_parser("max-point"); common(sp)
    sp = sub.add_parser("thin-domain"); common(sp)
    sp.add_argument("--c", type=float, default=0.4)
    sp = sub.add_parser("avoided-crossing"); common(sp)
    sp.add_argument("--alpha", type=float, default=0.75)
    sp.add_argument("--lam-geom", type=float, default=100.0)
    sp.add_argument("--squares", type=int, default=12)
    sp.add_argument("--margin", type=int, default=3)
    sp = sub.add_parser("cone"); common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--r", type=float, default=2.0)
    sp.add_argument("--k", type=int, default=2)
    sp = sub.add_parser("isoperimetry"); common(sp)
    sp.set_defaults(grid=384, steps=64)
    sp = sub.add_parser("global-survival"); common(sp)
    sp.set_defaults(paths=0)
    sp = sub.add_parser("ball-search"); common(sp)
    sp.add_argument("--c1", type=float, default=0.5)
    sp = sub.add_parser("suite"); common(sp)
    return p


def apply_config_file(ns, argv=None):
    if getattr(ns, "config", None):
        file_vals = load_config_file(ns.config)
        raw = sys.argv[1:] if argv is None else argv
        argv_keys = {a.lstrip("-").replace("-", "_") for a in raw}
        for key, val in file_vals.items():
            if not hasattr(ns, key) or key in argv_keys:
                continue
            cur = getattr(ns, key)
            if isinstance(cur, bool):
                setattr(ns, key, val.lower() in ("1", "true", "yes"))
            elif isinstance(cur, int):
                setattr(ns, key, int(val))
            elif isinstance(cur, float) or cur is None and key in ("dt", "t"):
                setattr(ns, key, float(val))
            else:
                setattr(ns, key, val)
    return ns


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            print("valid experiments: " + ", ".join(EXPERIMENTS), file=sys.stderr)
            return 2
        return 0
    try:
        ns = apply_config_file(ns, argv)
        if ns.experiment == "suite":
            return run_suite(ns)
        rep = _run_recording_warnings(ns.experiment, ns)
        paths = emit_report(rep, ns.out, emit_fields=ns.emit_fields)
        print(f"[{rep.verdict.upper()}] {rep.name}: " + ", ".join(paths))
        return 0 if rep.verdict in ("pass", "report-only") else 1
    except (InvalidParameterError, EmptyDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
