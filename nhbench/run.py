"""nodalheat benchmark: one workload per process, its operations back to back.

Run from the root of a checkout:

    python3 nhbench/run.py --workload {fd,geometry,mc} [--seed N] [--seconds S] [--trace 0|1]

Each workload (see workloads.py) is a closed loop with one client: the next
operation starts when the previous verdict is in.  A pass runs every
operation once; passes repeat while another one still fits in --seconds, and
at least one runs.

--trace 0 reports the end-to-end metrics from untraced passes:
  wall_s       median pass time, i.e. time to all verdicts
  setup_s      median over several set-ups (this process plus fresh child
               interpreters) of import plus input generation
  peak_rss_mb  peak resident set of this process and of its children
--trace 1 alternates an untraced pass with a traced one and reports the
per-layer metrics of tracer.py, plus CPU time, tracing overhead and
whether every operation's result is bit-identical between the two.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A failed oracle or an exception
counts in failed and the run goes on.  Span rows of the traced passes go to
.nhbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".nhbench_out"
DEFAULT_SEED = 20260808
SETUP_SAMPLES = 5           # this process plus four child interpreters

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "nodal.boundary_length_s": "s",
    "nodal.boundary_length_calls": "count",
    "nodal.label_ns_per_cell": "ns/cell",
    "nodal.contour_s": "s",
    "nodal.edt_s": "s",
    "nodal.sample_s": "s",
    "nodal.interp_ns_per_point": "ns/point",
    "nodal.interp_points": "count",
    "heat.ns_per_cell_step.large_rect": "ns/cell-step",
    "heat.ns_per_cell_step.mask": "ns/cell-step",
    "heat.ns_per_cell_step.small_rect": "ns/cell-step",
    "heat.cell_steps": "count",
    "heat.calls": "count",
    "stochastic.ns_per_path_step.grid": "ns/path-step",
    "stochastic.grid_path_steps": "count",
    "stochastic.alive_frac": "frac",
    "stochastic.walks_per_point": "count",
    "stochastic.us_per_path.cone": "us/path",
    "bounds.us_per_path.wedge": "us/path",
    "bounds.ns_per_path_step.corridor": "ns/path-step",
    "bounds.corridor_path_steps": "count",
    "bounds.self_s.check_comparison_lemma": "s",
    "bounds.self_s.theorem1_certificate": "s",
    "bounds.self_s.cone_condition_decay": "s",
    "bounds.self_s.avoided_crossing_scan": "s",
    "bounds.self_s.corridor_walk": "s",
    "bounds.self_s.wedge_fk_survival": "s",
    "fields.compute_norms_s": "s",
    "fields.self_s": "s",
    "nodal.self_s": "s",
    "heat.self_s": "s",
    "stochastic.self_s": "s",
    "bounds.self_s": "s",
    "process.harness_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "process.trace_overhead_frac": "frac",
}

# how each work count is obtained: from sizes and schedules (nominal) or
# from what the program was handed at run time (computed)
WORK_COUNTS = {
    "heat.cell_steps": "nominal: domain cells x scheduled steps",
    "stochastic.grid_path_steps": "computed: points passed to interpolation by the grid walk",
    "bounds.corridor_path_steps": "nominal = actual: paths x steps (no path is killed)",
    "nodal.interp_points": "computed: points passed to interpolation",
}


# ---------------------------------------------------------------------------
# result fingerprints
# ---------------------------------------------------------------------------

def _feed(h, obj):
    import numpy as np

    if obj is None or isinstance(obj, (bool, np.bool_, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def digest(obj) -> str:
    """SHA-256 over every number of a result, bit for bit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    op_times: list
    ok: list
    details: list
    digests: list


def run_pass(workload, inputs, tracer=None) -> Pass:
    times, oks, details, results = [], [], [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = op.run(inputs)
            ok, detail = op.gate(res)
        except Exception as exc:     # a crashed operation fails; the run goes on
            res, ok, detail = None, False, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        oks.append(bool(ok))
        details.append(detail)
        results.append(res)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return Pass(traced=tracer is not None, wall=wall, cpu=cpu, op_times=times, ok=oks,
                details=details, digests=[digest(r) for r in results])


def _setup_samples(workload_name, seed, count):
    """Set-up times of fresh interpreters, each importing and building inputs."""
    out = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0        # ru_maxrss is in KiB on Linux


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, inputs, seconds, trace):
    """Run passes for about `seconds`; returns (passes, tracer or None)."""
    from tracer import Tracer

    passes = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    rounds = 0
    while True:
        passes.append(run_pass(workload, inputs))
        if tracer is not None:
            with tracer:
                passes.append(run_pass(workload, inputs, tracer))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return passes, tracer


def metrics_for(passes, tracer, setup_times):
    plain = [p for p in passes if not p.traced]
    if tracer is None:
        vals = {
            "wall_s": statistics.median(p.wall for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        from tracer import layer_metrics

        traced = [p for p in passes if p.traced]
        vals = layer_metrics(tracer.spans, len(traced), sum(p.wall for p in traced))
        plain_wall = statistics.median(p.wall for p in plain)
        plain_cpu = statistics.median(p.cpu for p in plain)
        vals["process.cpu_s"] = plain_cpu
        vals["process.cpu_util"] = plain_cpu / plain_wall
        vals["process.trace_overhead_frac"] = (
            statistics.median(p.wall for p in traced) / plain_wall - 1.0)
        units = PER_LAYER_UNITS
    return {k: {"value": float(vals[k]), "unit": units[k]} for k in units}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None, registry=None, setup_samples=SETUP_SAMPLES) -> int:
    args = _parse(argv)
    if not (SRC / "nodalheat" / "__init__.py").is_file():
        print(f"error: no nodalheat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for p in (str(BENCH), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)

    t0 = time.perf_counter()
    import workloads
    registry = registry or workloads.WORKLOADS
    if args.workload not in registry:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(registry)}", file=sys.stderr)
        return 2
    wl = registry[args.workload]
    inputs = wl.setup(args.seed)
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(own_setup)
        return 0

    import nodalheat
    if Path(nodalheat.__file__).resolve().parent != (SRC / "nodalheat").resolve():
        print(f"error: nodalheat imported from {nodalheat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = _declared()
    declared = layer_units if args.trace else e2e_units
    produced = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if declared != produced:
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(produced.items()))}", file=sys.stderr)
        return 3

    from envinfo import environment
    print("# env " + json.dumps(environment(args.seed)), flush=True)
    setup_times = [own_setup] + _setup_samples(args.workload, args.seed, setup_samples - 1)

    passes, tracer = measure(wl, inputs, args.seconds, args.trace)

    identical = all(len({p.digests[i] for p in passes}) == 1 for i in range(len(wl.ops)))
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(p.ok.count(False) for p in passes)
    print("# pass walls " + json.dumps([[round(p.wall, 4), "traced" if p.traced else "plain"]
                                         for p in passes]))
    for i, op in enumerate(wl.ops):
        times = [p.op_times[i] for p in passes if not p.traced]
        missed = [p for p in passes if not p.ok[i]]
        shown = (missed or passes)[-1].details[i]
        print(f"# op {op.name}: median {statistics.median(times):.3f} s over {len(times)} "
              f"untraced pass(es); {len(missed)} miss(es); {shown}")
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"# spans {len(tracer.spans)} -> {span_file.relative_to(ROOT)}")
        print("# work counts " + json.dumps(WORK_COUNTS))
        print(f"# traced results bit-identical to untraced: {identical}")
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_for(passes, tracer, setup_times),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
