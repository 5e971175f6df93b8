"""Outside-in tracer: spans around nodalheat's module functions, no source edits.

Installing the tracer replaces every function in each layer module's
``__all__`` (plus the private loops that carry a layer's work, and
``EigenfunctionModel.evaluate``) with a wrapper, in every ``nodalheat``
namespace that binds it, so calls made inside the package are seen too.
Uninstalling puts the originals back.  Spans live in memory as
``[name, layer, start, end, parent, op, info, probe_s]`` rows; ``info``
holds the work count a probe computed from the call's arguments after the
span closed, and ``probe_s`` how long that took.  Self time is a span's
duration less its children's durations and their probe time, so a pass's
wall time splits exactly into layer self times plus harness time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("fields", "nodal", "heat", "stochastic", "bounds")

# private functions that carry a layer's main loop
PRIVATE = {
    "stochastic": ("_walk_in_domain",),
    "bounds": ("_corridor_walk", "_wedge_fk_survival"),
}

# a solid-rectangle solve at or above this many cells streams arrays that no
# longer fit in a core's L2 (2^18 doubles = 2 MiB)
LARGE_RECT_CELLS = 1 << 18


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _n_steps(t, dt):
    # mirrors stochastic._steps_for: ceil(t / dt) steps of equal length
    return max(1, math.ceil(t / dt - 1e-9))


def _domain(mask, label):
    """(cells, is_rectangle) of one domain, read after the solve ran."""
    cells = int(round(float(mask.areas[label]) / mask.grid.h ** 2))
    plan = getattr(mask, "_adi_plans", {}).get(label)
    if plan is None:
        from nodalheat.heat import _AdiPlan
        rect = _AdiPlan._detect_rectangle(mask.cells(label), mask.grid) is not None
    else:
        rect = plan.rect is not None
    return cells, rect


def _heat_info(cells, rect, steps):
    if rect:
        kind = "large_rect" if cells >= LARGE_RECT_CELLS else "small_rect"
    else:
        kind = "mask"
    return {"kind": kind, "cell_steps": cells * steps}


# --- probes: (bound arguments, result) -> info dict ----------------------------

def _probe_solve(a, res):
    cells, rect = _domain(a["mask"], a["label"])
    steps = a["n_steps"] if a["t"] > 0 else 0
    return _heat_info(cells, rect, steps)


def _probe_curve(a, res):
    cells, rect = _domain(a["mask"], a["label"])
    n_leg = max(10, a["n_steps"] // 4)
    steps = a["n_steps"] + (len(res.times) - 1) * n_leg
    return _heat_info(cells, rect, steps)


def _probe_label(a, res):
    return {"cells": int(a["field"].values.size)}


def _probe_grid_walk(a, res):
    cfg = a["cfg"]
    t = a["t"]
    dt = cfg.dt if cfg.dt is not None else t / 1000.0
    n = int(a["starts"].shape[0])
    return {"paths": n, "nominal": n * _n_steps(t, dt)}


def _probe_paths(a, res):
    return {"paths": int(a["cfg"].n_paths)}


def _probe_corridor(a, res):
    cfg = a["cfg"]
    t = a["t"]
    dt = cfg.dt if cfg.dt is not None else t / 250
    n = int(a["starts"].shape[0])
    return {"paths": n, "nominal": n * _n_steps(t, dt)}


def _probe_comparison(a, res):
    return {"points": int(res.inputs["n_points"])}


PROBES = {
    "heat.solve_hitting_field": _probe_solve,
    "heat.dirichlet_semigroup_field": _probe_solve,
    "heat.heat_content_curve": _probe_curve,
    "nodal.label_nodal_domains": _probe_label,
    "stochastic._walk_in_domain": _probe_grid_walk,
    "stochastic.cone_exit_mc": _probe_paths,
    "bounds._wedge_fk_survival": _probe_paths,
    "bounds._corridor_walk": _probe_corridor,
    "bounds.check_comparison_lemma": _probe_comparison,
}
INTERP = "nodal.interpolate_with_gradient"

# bounds functions whose self time is reported one by one
BOUNDS_EXPERIMENTS = ("check_comparison_lemma", "theorem1_certificate",
                      "cone_condition_decay", "avoided_crossing_scan",
                      "_corridor_walk", "_wedge_fk_survival")


class Tracer:
    """Span recorder; use as a context manager around the traced passes."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if name == INTERP:
                rec[6] = {"points": len(args[2]) if len(args) > 2 else len(kwargs["pts"])}
            elif probe is not None:
                rec[6] = probe(_bound(sig, args, kwargs), result)
            rec[7] = clock() - rec[3]
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nodalheat.{layer}")
            for attr in tuple(mod.__all__) + PRIVATE.get(layer, ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "nodalheat" and not modname.startswith("nodalheat."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._restore.append((mod, attr, val))
        from nodalheat.fields import EigenfunctionModel
        orig = EigenfunctionModel.evaluate
        EigenfunctionModel.evaluate = self._wrap(orig, "fields.EigenfunctionModel.evaluate",
                                                 "fields")
        self._restore.append((EigenfunctionModel, "evaluate", orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()
        return False

    def dump(self, path):
        """Write the spans as one JSON row per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "layer", "start", "end", "parent", "op", "info",
                                 "probe_s"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# derived per-layer figures
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration less the children's durations and probes."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2] + s[7]
    return out


def _rate(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, n_passes, wall_s):
    """Per-layer figures per traced pass, from the spans of n_passes passes.

    wall_s is the summed wall time of those passes; whatever of it no
    layer's self time covers is harness time (gates, glue and probes).
    """
    selfs = self_times(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    fn_self = defaultdict(float)
    for s, st in zip(spans, selfs):
        incl[s[0]] += s[3] - s[2]
        calls[s[0]] += 1
        layer_self[s[1]] += st
        fn_self[s[0]] += st

    heat_t = defaultdict(float)
    heat_cs = defaultdict(int)
    label_cells = interp_points = 0
    walk_self = walk_alive = walk_nominal = 0
    first_interp = set()
    walks_in_cmp = cmp_points = 0
    cone_paths = wedge_paths = corridor_steps = 0
    comparison = {i for i, s in enumerate(spans) if s[0] == "bounds.check_comparison_lemma"}
    for i, (s, st) in enumerate(zip(spans, selfs)):
        name, info = s[0], s[6]
        if info is None:
            continue        # no work count: not probed, or the call raised
        if name.startswith("heat."):
            heat_t[info["kind"]] += st
            heat_cs[info["kind"]] += info["cell_steps"]
        elif name == "nodal.label_nodal_domains":
            label_cells += info["cells"]
        elif name == INTERP:
            interp_points += info["points"]
            parent = s[4]
            if parent >= 0 and spans[parent][0] == "stochastic._walk_in_domain":
                if parent in first_interp:
                    walk_alive += info["points"]
                else:
                    first_interp.add(parent)    # the start points, not a step
        elif name == "stochastic._walk_in_domain":
            walk_self += st
            walk_nominal += info["nominal"]
            if _ancestor_in(spans, i, comparison):
                walks_in_cmp += 1
        elif name == "stochastic.cone_exit_mc":
            cone_paths += info["paths"]
        elif name == "bounds._wedge_fk_survival":
            wedge_paths += info["paths"]
        elif name == "bounds._corridor_walk":
            corridor_steps += info["nominal"]
        elif name == "bounds.check_comparison_lemma":
            cmp_points += info["points"]

    per = 1.0 / n_passes
    m = {
        "nodal.boundary_length_s": incl["nodal.boundary_length"] * per,
        "nodal.boundary_length_calls": calls["nodal.boundary_length"] * per,
        "nodal.label_ns_per_cell": _rate(incl["nodal.label_nodal_domains"], label_cells, 1e9),
        "nodal.contour_s": incl["nodal.extract_nodal_set"] * per,
        "nodal.edt_s": incl["nodal.distance_to_boundary_map"] * per,
        "nodal.sample_s": incl["nodal.sample_field"] * per,
        "nodal.interp_ns_per_point": _rate(incl[INTERP], interp_points, 1e9),
        "nodal.interp_points": interp_points * per,
    }
    for kind in ("large_rect", "mask", "small_rect"):
        m[f"heat.ns_per_cell_step.{kind}"] = _rate(heat_t[kind], heat_cs[kind], 1e9)
    m["heat.cell_steps"] = sum(heat_cs.values()) * per
    m["heat.calls"] = sum(calls[k] for k in ("heat.solve_hitting_field",
                                             "heat.dirichlet_semigroup_field",
                                             "heat.heat_content_curve")) * per
    m["stochastic.ns_per_path_step.grid"] = _rate(walk_self, walk_alive, 1e9)
    m["stochastic.grid_path_steps"] = walk_alive * per
    m["stochastic.alive_frac"] = _rate(walk_alive, walk_nominal)
    m["stochastic.walks_per_point"] = _rate(walks_in_cmp, cmp_points)
    m["stochastic.us_per_path.cone"] = _rate(incl["stochastic.cone_exit_mc"], cone_paths, 1e6)
    m["bounds.us_per_path.wedge"] = _rate(incl["bounds._wedge_fk_survival"], wedge_paths, 1e6)
    m["bounds.ns_per_path_step.corridor"] = _rate(incl["bounds._corridor_walk"],
                                                  corridor_steps, 1e9)
    m["bounds.corridor_path_steps"] = corridor_steps * per
    for exp in BOUNDS_EXPERIMENTS:
        m[f"bounds.self_s.{exp.lstrip('_')}"] = fn_self[f"bounds.{exp}"] * per
    m["fields.compute_norms_s"] = incl["fields.compute_norms"] * per
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * per
    m["process.harness_s"] = (wall_s - sum(layer_self.values())) * per
    return m


def _ancestor_in(spans, i, targets):
    p = spans[i][4]
    while p >= 0:
        if p in targets:
            return True
        p = spans[p][4]
    return False
