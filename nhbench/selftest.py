"""Fast self-test of the benchmark harness (well under a minute).

    python3 nhbench/selftest.py

Runs the harness on a tiny workload that calls the same public API at toy
sizes, and checks that:
  * BENCHMARK.json is well formed and names exactly the workloads of
    workloads.py;
  * every metric printed with --trace 0 and --trace 1 matches BENCHMARK.json
    by name and unit, and the traced results are bit-identical;
  * a forced oracle miss and a raising operation each count in `failed`
    while the other operations still run;
  * in a directory holding only BENCHMARK.json and the benchmark's files the
    benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from workloads import Op, Workload, nh  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_setup(seed):
    torus = nh.make_torus_eigenfunction(1, 1)
    tmask = nh.label_nodal_domains(nh.sample_field(torus, nh.grid_for_model(torus, 32)))
    t = 1 / torus.eigenvalue
    pec = nh.PathEnsembleConfig
    return {
        "square": nh.indicator_field(nh.GridSpec(nx=64, ny=64),
                                     lambda x, y: np.ones_like(x, dtype=bool)),
        "torus": torus,
        "cmp": (torus, tmask, t, pec(n_paths=100, dt=t / 100, seed=seed)),
        "cone": pec(n_paths=200, dt=0.05, seed=seed),
        "corridor": (nh.bounds.CorridorSpec(lam_geom=4.0, n_covered=4, n_margin=1),
                     pec(n_paths=100, seed=seed)),
    }


def _tiny_curve(inp):
    mask = nh.label_nodal_domains(inp["square"])
    return nh.heat_content_curve(mask, 1, np.logspace(-3, -2, 4), n_steps=16)


def _gate_curve(curve):
    return curve.r_squared >= 0.99, f"r2 {curve.r_squared:.4f}"


def _report_made(rep):
    return bool(rep.checks), f"{len(rep.checks)} checks"


TINY_OPS = (
    Op("curve", _tiny_curve, _gate_curve),
    Op("theorem1", lambda inp: nh.bounds.theorem1_certificate(
        inp["torus"], nh.grid_for_model(inp["torus"], 32), n_steps=16), _report_made),
    Op("comparison", lambda inp: nh.bounds.check_comparison_lemma(
        *inp["cmp"][:2], 1, None, *inp["cmp"][2:]), _report_made),
    Op("cone", lambda inp: nh.bounds.cone_condition_decay(1, inp["cone"]), _report_made),
    Op("corridor", lambda inp: nh.bounds.avoided_crossing_scan(
        inp["corridor"][0], 0.75, inp["corridor"][1]), _report_made),
)


def _boom(inp):
    raise RuntimeError("forced exception")


REGISTRY = {
    "tiny": Workload(_tiny_setup, TINY_OPS),
    "miss": Workload(_tiny_setup, (     # one forced oracle miss and one exception
        Op("curve", _tiny_curve, _gate_curve),
        Op("forced_miss", _tiny_curve,
           lambda c: (W._within(c.slope, 2 * c.slope + 1, 0.0), "forced miss")),
        Op("raises", _boom, _gate_curve),
        Op("curve_after", _tiny_curve, _gate_curve),
    )),
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, registry=REGISTRY, setup_samples=1)
    assert code == 0, f"benchmark exited {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_metrics():
    e2e, layer = run._declared()
    for trace, declared in ((0, e2e), (1, layer)):
        res = _run(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)])
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        assert printed == declared, set(printed.items()) ^ set(declared.items())
        assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
                   for v in res["metrics"].values())
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= len(TINY_OPS), res
    m = res["metrics"]
    for key in ("heat.cell_steps", "stochastic.grid_path_steps", "bounds.corridor_path_steps",
                "stochastic.us_per_path.cone", "bounds.us_per_path.wedge",
                "nodal.boundary_length_calls", "heat.ns_per_cell_step.small_rect"):
        assert m[key]["value"] > 0, key
    assert m["stochastic.walks_per_point"]["value"] == 3.0


def check_failures():
    res = _run(["--workload", "miss", "--seconds", "0", "--trace", "0"])
    assert res["attempted"] == 4 and res["failed"] == 2 and not res["correct"], res


def check_bare_directory():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        res = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "fd",
                              "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0 and not res.stdout.strip(), (res.returncode, res.stdout)


def main():
    for check in (check_spec, check_metrics, check_failures, check_bare_directory):
        check()
        print(f"ok {check.__name__}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
