"""Config-driven experiment runner.

One subcommand per experiment; flags override an optional flat key=value
config file.  One table, EXPERIMENTS, declares each experiment (its driver,
flags, defaults and suite scale) and one, MODEL_KINDS, each model kind.  All
randomness comes from the --seed flag (fixed default, never wall clock), and
report/CSV emission is byte-stable so identical configs give identical
artifacts regardless of thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

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
from .stochastic import ConeSpec, PathEnsembleConfig

DEFAULT_SEED = 20260808


def _positive(cast):
    """argparse type: the text cast by `cast`, rejected unless positive and finite."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}")
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    return parse


def parse_times(spec: str) -> np.ndarray:
    """a:b:n -> n log-spaced times in [a, b]; needs 0 < a < b."""
    try:
        a, b, n = spec.split(":")
        lo, hi = float(a), float(b)
        if not hi > lo:
            raise ValueError(f"the end {b} must exceed the start {a}")
        return np.logspace(math.log10(lo), math.log10(hi), int(n))
    except ValueError as exc:
        raise InvalidParameterError(f"bad times spec {spec!r}: {exc}")


def _times_flag(text: str) -> str:
    """argparse type of --times: the spec as given, once parse_times accepts it."""
    try:
        parse_times(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


# Every flag: name -> argparse spec.  A flag's validation is its type=.
FLAGS = {
    "model": dict(default="torus:1,1",
                  help="torus:m,n | rect:m,n,a,b | disk:m,k[,R] | cone:k"),
    "grid": dict(type=int, default=256),
    "domain": dict(type=int, default=0, help="0-based nodal domain index"),
    "times": dict(type=_times_flag, default=None,
                  help="a:b:n, n log-spaced times from a to b > a"),
    "steps": dict(type=int, default=96,
                  help="ADI time steps (at least 10); rectangle domains are "
                       "solved exactly in time and ignore it"),
    "t": dict(type=_positive(float), default=None),
    "paths": dict(type=int, default=100000),
    "dt": dict(type=_positive(float), default=None, help="Monte Carlo time step"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "bridge": dict(action=argparse.BooleanOptionalAction, default=True,
                   help="Brownian-bridge crossing correction"),
    "emit-fields": dict(action="store_true"),
    "modes": dict(default="1,2,3,4"),
    "c": dict(type=float, default=0.4),
    "alpha": dict(type=float, default=None),
    "lam-geom": dict(type=float, default=100.0),
    "squares": dict(type=int, default=12),
    "margin": dict(type=int, default=3),
    "r": dict(type=float, default=None, help="stopping radius, with --alpha (default 2)"),
    "k": dict(type=int, default=None, help="vanishing order, without --alpha (default 2)"),
    "c1": dict(type=_positive(float), default=0.5),
    "quick": dict(action="store_true"),
    "threads": dict(type=_positive(int), default=1),
    "out": dict(default="out"),
    "config": dict(default=None, help="flat key=value file; explicit flags win"),
}

_WALK = ("paths", "dt", "seed", "bridge")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


# Model kind -> (factory, integer parameters, defaults of the floats that may follow)
MODEL_KINDS = {
    "torus": (make_torus_eigenfunction, 2, ()),
    "rect": (make_rectangle_eigenfunction, 2, (1.0, 1.0)),
    "disk": (make_disk_eigenfunction, 2, (1.0,)),
    "cone": (make_cone_model, 1, ()),
}


def parse_model(spec: str):
    """kind:params, e.g. torus:1,1 | rect:2,1,1.0,1.0 | disk:0,1[,R] | cone:3."""
    kind, _, rest = spec.partition(":")
    if kind not in MODEL_KINDS:
        raise InvalidParameterError(
            f"unknown model kind {kind!r} (use {'|'.join(MODEL_KINDS)})")
    make, n_int, floats = MODEL_KINDS[kind]
    parts = rest.split(",")
    try:
        if "" in parts or not n_int <= len(parts) <= n_int + len(floats):
            count = f"{n_int} to {n_int + len(floats)}" if floats else n_int
            raise ValueError(f"{kind} takes {count} parameter(s), none empty")
        args = [int(p) for p in parts[:n_int]] + [float(p) for p in parts[n_int:]]
    except ValueError as exc:
        raise InvalidParameterError(f"bad model spec {spec!r}: {exc}")
    return make(*args, *floats[len(args) - n_int:])


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

def emit_report(report, out_dir: str) -> list:
    """One structured-text report plus CSV tables; byte-stable across reruns."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rp = os.path.join(out_dir, f"{report.name}.report.txt")
    lines = [f"experiment = {report.name}", f"claim = {report.claim}",
             f"verdict = {report.verdict}"]
    for section in ("inputs", "constants", "references"):
        values = getattr(report, section)
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {_fmt(values[k])}" for k in sorted(values))
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
    if ns.t is not None:
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
    perim = boundary_length(mask, label)
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
    cfg = _path_cfg(ns, t / 200)
    return bounds.check_comparison_lemma(model, mask, label, None, t, cfg)


def _parse_modes(spec: str) -> list:
    """Comma-separated diagonal torus modes, e.g. 1,2,3,4."""
    try:
        return [int(m) for m in spec.split(",")]
    except ValueError:
        raise InvalidParameterError(
            f"bad --modes {spec!r}: expected comma-separated integers, e.g. 1,2,3,4")


def run_theorem1(ns) -> bounds.ExperimentReport:
    modes = _parse_modes(ns.modes)
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
            if chk.passed is not None and not chk.passed:
                rep.check(f"m{m}:{chk.name}", False, chk.detail)
    # a domain whose heat content reads 0 at a coarse grid has no finite spread
    lo = min(ratio_mins)
    spread = max(ratio_maxs) / lo if lo > 0 else math.inf
    rep.constants["ratio_spread_across_modes"] = spread
    rep.check("ratio-stable-across-modes", spread <= 2.0,
              f"max/min per-domain ratio across modes = {spread:.3f}")
    arr = np.array(rows)
    # a coarse grid can sample a mode on its zeros, leaving no length to fit
    has_length = arr[:, 2] > 0
    if not has_length.all():
        rep.check("modes-with-nodal-length", False,
                  "zero nodal length, left out of the exponent fits: "
                  + ", ".join(f"m = {m}" for m, ok in zip(modes, has_length) if not ok))
        arr = arr[has_length]
    if len(arr) >= 2:
        # growth exponents in lambda: diagonal torus lengths and certificates
        # both scale like sqrt(lambda), comfortably above the quarter-power
        # certificate floor
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
    cfg = _path_cfg(ns, t / 200)
    return bounds.max_point_survival(model, mask, label, t, cfg, n_steps=ns.steps)


def run_thin_domain(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    lam = model.eigenvalue
    if lam <= 0:
        raise InvalidParameterError(
            f"model {ns.model} has lambda = 0; thin-domain sizes its tube "
            "as c/sqrt(lambda)")
    # across the model's frame at a quarter of its height
    x0, y0, ex, ey = model.frame
    tube = bounds.TubeSpec(segment=((x0, y0 + ey / 4), (x0 + ex, y0 + ey / 4)),
                           half_width=ns.c / math.sqrt(lam))
    t = ns.t if ns.t is not None else 1.0 / lam
    cfg = _path_cfg(ns, t / 500)
    return bounds.thin_domain_check(model, tube, t, cfg, grid_n=ns.grid)


def run_avoided_crossing(ns) -> bounds.ExperimentReport:
    cor = bounds.CorridorSpec(lam_geom=ns.lam_geom, n_covered=ns.squares,
                              n_margin=ns.margin)
    # the corridor walk is one exact step in time: it has no --dt or --bridge
    cfg = PathEnsembleConfig(n_paths=ns.paths, seed=ns.seed)
    return bounds.avoided_crossing_scan(cor, ns.alpha, cfg)


def run_cone(ns) -> bounds.ExperimentReport:
    cfg = _path_cfg(ns, 1e-3)
    if ns.alpha is not None:
        spec = ConeSpec(alpha=ns.alpha, r=2.0 if ns.r is None else ns.r)
        return bounds.cone_exit_law(spec, cfg)
    return bounds.cone_condition_decay(2 if ns.k is None else ns.k, cfg)


def run_isoperimetry(ns) -> bounds.ExperimentReport:
    family = bounds.default_isoperimetry_family(ns.grid)
    times = parse_times(ns.times) if ns.times else None
    return bounds.isoperimetry_sweep(family, times, n_steps=ns.steps)


def run_global_survival(ns) -> bounds.ExperimentReport:
    model = parse_model(ns.model)
    grid = grid_for_model(model, ns.grid)
    cfg = _path_cfg(ns) if ns.paths else None
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


def _path_cfg(ns, default_dt=None) -> PathEnsembleConfig:
    """The walk flags --paths, --dt, --seed and --bridge as an ensemble config."""
    return PathEnsembleConfig(n_paths=ns.paths, dt=default_dt if ns.dt is None else ns.dt,
                              seed=ns.seed, bridge_correction=ns.bridge)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def run_suite(ns) -> int:
    parser = build_parser()

    def run_one(argv):
        sub_ns = parser.parse_args(argv + ["--out", ns.out])
        try:
            rep = _run_recording_warnings(sub_ns)
        except Exception as exc:   # a crashed job must not kill the suite
            rep = bounds.ExperimentReport(name=sub_ns.experiment, claim="(crashed)")
            rep.check("completed", False, f"{type(exc).__name__}: {exc}")
        return sub_ns.experiment, rep

    with ThreadPoolExecutor(max_workers=ns.threads) as pool:
        results = list(pool.map(run_one, _suite_jobs(ns)))

    lines = []
    worst = 0
    for name, rep in results:
        emit_report(rep, ns.out)
        lines.append(f"{name} = {rep.verdict}")
        print(f"[{rep.verdict.upper():11s}] {name}")
        if rep.verdict == "fail":
            worst = 1
    with open(os.path.join(ns.out, "suite_summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return worst


def _suite_jobs(ns) -> list:
    """The suite's command lines; --seed goes to the experiments that read it."""
    jobs = [[name, *(exp.quick if ns.quick else exp.full).split()]
            for name, exp in EXPERIMENTS.items() if exp.quick is not None]
    return [argv + ["--seed", str(ns.seed)] if "seed" in EXPERIMENTS[argv[0]].flags
            else argv for argv in jobs]


class Experiment(NamedTuple):
    """An experiment's driver, the flags it reads besides --out and --config
    (any other is a usage error), its defaults that differ from FLAGS', and
    its flags at quick and at full suite scale (None: not a suite job)."""

    driver: Callable
    flags: tuple
    defaults: dict
    quick: str | None
    full: str | None


EXPERIMENTS = {
    "heat-content": Experiment(
        run_heat_content, ("model", "grid", "domain", "times", "steps", "emit-fields"),
        dict(times="1e-5:1e-4:8", grid=1024, steps=64),
        "--grid 256 --times 4e-5:4e-4:6 --steps 32",
        "--grid 1024 --times 1e-5:1e-4:8 --steps 64"),
    "comparison": Experiment(run_comparison, ("model", "grid", "domain", "t") + _WALK, {},
                             "--paths 2000 --grid 128", "--paths 20000 --grid 256"),
    "theorem1": Experiment(run_theorem1, ("modes", "grid", "steps"), {},
                           "--modes 1,2 --grid 128 --steps 48",
                           "--modes 1,2,3,4 --grid 256 --steps 96"),
    "max-point": Experiment(run_max_point, ("model", "grid", "domain", "t", "steps") + _WALK,
                            {}, "--paths 5000 --grid 128", "--paths 100000 --grid 256"),
    "thin-domain": Experiment(run_thin_domain, ("model", "grid", "c", "t") + _WALK, {},
                              "--c 0.4 --paths 20000 --grid 128",
                              "--c 0.4 --paths 100000 --grid 256"),
    "avoided-crossing": Experiment(
        run_avoided_crossing, ("alpha", "lam-geom", "squares", "margin", "paths", "seed"),
        dict(alpha=0.75), "--paths 20000 --squares 8", "--paths 100000 --squares 12"),
    "cone": Experiment(run_cone, ("alpha", "r", "k") + _WALK, {},
                       "--k 2 --paths 20000 --dt 1e-3", "--k 2 --paths 100000 --dt 5e-4"),
    "isoperimetry": Experiment(run_isoperimetry, ("grid", "times", "steps"),
                               dict(grid=384, steps=64),
                               "--grid 192 --steps 32", "--grid 384 --steps 64"),
    "global-survival": Experiment(
        run_global_survival, ("model", "grid", "steps", "emit-fields") + _WALK,
        dict(paths=0), "--grid 128", "--grid 256"),
    "ball-search": Experiment(run_ball_search, ("model", "grid", "domain", "t", "c1", "steps"),
                              {}, "--grid 128", "--grid 256"),
    "suite": Experiment(run_suite, ("quick", "seed", "threads"), {}, None, None),
}


# The warnings raised on each thread since its job started.  `main` installs
# _file_warning as warnings.showwarning for the whole command; a thread runs
# one job at a time, so each list holds the warnings of exactly one job.
_raised = threading.local()


def _file_warning(message, *_):
    _raised.messages.append(f"warning: {message}")


def _run_recording_warnings(ns) -> bounds.ExperimentReport:
    """Run one experiment; the warnings it raises land in the report notes."""
    _raised.messages = []
    rep = EXPERIMENTS[ns.experiment].driver(ns)
    rep.notes.extend(dict.fromkeys(_raised.messages))
    return rep


class _Parser(argparse.ArgumentParser):
    """Every parse error is one `error:` line on stderr and exit status 2."""

    def error(self, message):
        if message.startswith("argument EXPERIMENT") or message.endswith("EXPERIMENT"):
            message = (message.split(" (choose from")[0]
                       + "; valid experiments: " + ", ".join(EXPERIMENTS))
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nodalheat",
                description="heat-flow and Brownian-motion experiments on nodal domains")
    sub = p.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for name, exp in EXPERIMENTS.items():
        sp = sub.add_parser(name)
        for flag in exp.flags + ("out", "config"):
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(**exp.defaults)
    return p


def _config_args(parser, path: str, experiment: str) -> list:
    """A config file as flag tokens: `key = value` becomes `--key=value`."""
    try:
        values = load_config_file(path)
    except OSError as exc:
        parser.error(f"--config: {exc}")
    args = []
    for key, val in values.items():
        flag = key.replace("_", "-")
        if flag not in EXPERIMENTS[experiment].flags + ("out",):
            parser.error(f"config key {key!r} is not a flag of {experiment}")
        action = FLAGS[flag].get("action")
        if action is None:
            args.append(f"--{flag}={val}")
            continue
        if val.lower() in ("1", "true", "yes"):
            args.append(f"--{flag}")
        elif action is argparse.BooleanOptionalAction:
            args.append(f"--no-{flag}")
    return args


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line.  A --config file's lines go in as flags ahead
    of the command line's own, so an explicit flag wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        at = argv.index(ns.experiment) + 1
        ns = parser.parse_args(argv[:at] + _config_args(parser, ns.config, ns.experiment)
                               + argv[at:])
    if ns.experiment == "cone":
        # --alpha selects the exit-law check, which reads --r; without it
        # cone runs the decay scan, which reads --k
        unread, mode = ("k", "with") if ns.alpha is not None else ("r", "without")
        if getattr(ns, unread) is not None:
            parser.error(f"argument --{unread}: cone {mode} --alpha does not read it")
    return ns


def main(argv=None) -> int:
    try:
        ns = parse_args(argv)
    except SystemExit as exc:       # --help, or a usage error already printed
        return exc.code
    # The warnings state is process-wide and not thread-safe, so it is set
    # here once, on the main thread, around every experiment of the command.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _file_warning
            if ns.experiment == "suite":
                return run_suite(ns)
            rep = _run_recording_warnings(ns)
        paths = emit_report(rep, ns.out)
        print(f"[{rep.verdict.upper()}] {rep.name}: " + ", ".join(paths))
        return 0 if rep.verdict in ("pass", "report-only") else 1
    except (InvalidParameterError, EmptyDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
