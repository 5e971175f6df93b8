import argparse
import inspect
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import nodalheat
from nodalheat import bounds, cli
from nodalheat.errors import InvalidParameterError


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParsing:
    def test_model_specs(self):
        m = cli.parse_model("torus:2,3")
        assert m.mode == (2, 3)
        m = cli.parse_model("rect:1,1,2.0,0.5")
        assert m.geometry == (2.0, 0.5)
        m = cli.parse_model("cone:4")
        assert m.vanishing_order == 4
        m = cli.parse_model("disk:0,1")
        assert m.kind == "disk_bessel"

    def test_bad_model(self):
        with pytest.raises(InvalidParameterError):
            cli.parse_model("sphere:1")
        with pytest.raises(InvalidParameterError):
            cli.parse_model("torus:1")

    def test_times(self):
        t = cli.parse_times("1e-5:1e-4:8")
        assert len(t) == 8
        assert t[0] == pytest.approx(1e-5) and t[-1] == pytest.approx(1e-4)
        steps = np.diff(np.log(t))
        assert np.allclose(steps, steps[0])
        for spec in ("1e-4:1e-5:8", "1e-4:1e-4:8"):
            with pytest.raises(InvalidParameterError, match="must exceed"):
                cli.parse_times(spec)

    def test_config_file(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("grid = 64\nseed = 7\nbridge = false\n# comment\n")
        vals = cli.load_config_file(str(cfgf))
        assert vals == {"grid": "64", "seed": "7", "bridge": "false"}

    def test_config_bool_keys(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("bridge = false\n")
        assert cli.parse_args(["cone", "--config", str(cfgf)]).bridge is False
        # an explicit flag still wins over the file
        assert cli.parse_args(["cone", "--config", str(cfgf), "--bridge"]).bridge is True


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _dests(subparser):
    return {a.dest for a in subparser._actions if a.dest != "help"}


def _reads(fn):
    """The ns attributes a driver reads, through the cli helpers it hands ns to."""
    src = inspect.getsource(fn)
    names = set(re.findall(r"\bns\.(\w+)", src))
    for helper in set(re.findall(r"\b(_\w+)\(ns\b", src)) - {fn.__name__}:
        names |= _reads(getattr(cli, helper))
    return names


class TestFlagTable:
    def test_each_experiment_takes_what_its_driver_reads(self):
        subparsers = _subparsers()
        assert list(subparsers) == cli.EXPERIMENTS
        for name, sp in subparsers.items():
            driver = cli.run_suite if name == "suite" else cli.DISPATCH[name]
            assert _dests(sp) == _reads(driver) | {"out", "config"}, name

    def test_settable_value_count(self):
        # 15 shared flags on all 11 subcommands plus 10 own flags made 175;
        # avoided-crossing lost --dt and --bridge, which its walk never read
        assert sum(len(_dests(sp)) for sp in _subparsers().values()) == 89

    @pytest.mark.parametrize("quick", [True, False])
    def test_suite_jobs_parse(self, quick):
        parser = cli.build_parser()
        jobs = cli._suite_jobs(argparse.Namespace(quick=quick, seed=7))
        assert [argv[0] for argv in jobs] == cli.EXPERIMENTS[:-1]
        for argv in jobs:
            ns = parser.parse_args(argv + ["--out", "unused"])
            assert getattr(ns, "seed", 7) == 7


class TestExitCodes:
    def test_unknown_experiment(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "valid experiments" in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_pass_run(self, tmp_path):
        rc = cli.main(["cone", "--alpha", "1.5707963267948966", "--r", "2",
                       "--paths", "5000", "--dt", "2e-3",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "cone.report.txt").exists()

    def test_fail_verdict_exit_one(self, tmp_path, monkeypatch):
        rep = bounds.ExperimentReport(name="stub", claim="x")
        rep.check("impossible", False, "forced failure")
        monkeypatch.setitem(cli.DISPATCH, "cone", lambda ns: rep)
        rc = cli.main(["cone", "--out", str(tmp_path)])
        assert rc == 1
        text = read(tmp_path / "stub.report.txt").decode()
        assert "verdict = fail" in text
        assert "impossible = FAIL" in text

    def _usage_error(self, capsys, argv, tmp_path):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_unknown_domain(self, capsys, tmp_path):
        err = self._usage_error(capsys, ["heat-content", "--grid", "64",
                                         "--times", "1e-4:1e-3:4", "--steps", "24",
                                         "--domain", "99"], tmp_path)
        assert "--domain 99" in err

    def test_empty_domain(self, capsys, tmp_path):
        # at grid 8 a torus sign cell is 4 x 4 cells, none 3 cells from its boundary
        self._usage_error(capsys, ["comparison", "--grid", "8", "--paths", "100"],
                          tmp_path)

    def test_harmonic_model_needs_t(self, capsys, tmp_path):
        err = self._usage_error(capsys, ["max-point", "--model", "cone:2",
                                         "--grid", "64", "--paths", "100"], tmp_path)
        assert "--t" in err

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--model", "disk:0,1"],
        ["suite", "--grid", "64"],
        ["cone", "--grid", "64"],
        ["heat-content", "--paths", "5"],
        ["isoperimetry", "--seed", "3"],
        ["comparison", "--quick"],
        ["heat-content", "--frobnicate", "1"],
        ["heat-content", "--grid", "x"],
        ["avoided-crossing", "--dt", "1e-5"],
        ["avoided-crossing", "--no-bridge"],
        # cone reads --r only with --alpha, and --k only without it
        ["cone", "--r", "0.5"],
        ["cone", "--k", "3", "--alpha", "1.5708"],
    ])
    def test_flag_not_read_or_malformed(self, capsys, tmp_path, argv):
        err = self._usage_error(capsys, argv, tmp_path)
        assert argv[1] in err

    @pytest.mark.parametrize("experiment", ["comparison", "cone"])
    @pytest.mark.parametrize("dt", ["0", "-1"])
    def test_nonpositive_dt(self, capsys, tmp_path, experiment, dt):
        # --dt 0 used to fall back to the default step
        err = self._usage_error(capsys, [experiment, "--paths", "100", "--dt", dt],
                                tmp_path)
        assert "--dt" in err

    def test_config_key_not_read(self, capsys, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("model = disk:0,1\n")
        err = self._usage_error(capsys, ["theorem1", "--config", str(cfgf)], tmp_path)
        assert "'model'" in err

    @pytest.mark.parametrize("experiment", ["theorem1", "heat-content"])
    def test_grid_below_two_cells(self, capsys, tmp_path, experiment):
        err = self._usage_error(capsys, [experiment, "--grid", "0"], tmp_path)
        assert "grid" in err

    @pytest.mark.parametrize("modes", ["abc", "1,,2", ""])
    def test_theorem1_bad_modes(self, capsys, tmp_path, modes):
        err = self._usage_error(capsys, ["theorem1", "--grid", "16", "--modes", modes],
                                tmp_path)
        assert "--modes" in err

    @pytest.mark.parametrize("experiment", ["comparison", "thin-domain"])
    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_nonpositive_t(self, capsys, tmp_path, experiment, t):
        # --t 0 used to fall back to 1/lambda and --t -1 to blame dt
        err = self._usage_error(capsys, [experiment, "--grid", "32", "--paths", "100",
                                         "--t", t], tmp_path)
        assert "--t" in err

    @pytest.mark.parametrize("c1", ["0", "-1"])
    def test_nonpositive_c1(self, capsys, tmp_path, c1):
        # --c1 -1 used to make the heat-content premise vacuous and report PASS
        err = self._usage_error(capsys, ["ball-search", "--grid", "32", "--c1", c1],
                                tmp_path)
        assert "--c1" in err

    @pytest.mark.parametrize("experiment", ["heat-content", "isoperimetry"])
    @pytest.mark.parametrize("times", ["1e-3:1e-4:4", "1e-4:1e-4:4"])
    def test_times_not_increasing(self, capsys, tmp_path, experiment, times):
        # a descending range used to run the curve and exit 1 with FAIL
        err = self._usage_error(capsys, [experiment, "--grid", "32", "--steps", "24",
                                         "--times", times], tmp_path)
        assert "--times" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, capsys, tmp_path, threads):
        err = self._usage_error(capsys, ["suite", "--quick", "--threads", threads],
                                tmp_path)
        assert "--threads" in err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_isoperimetry_rejects_too_few_steps(self, capsys, tmp_path, steps):
        err = self._usage_error(capsys, ["isoperimetry", "--grid", "32",
                                         "--steps", steps], tmp_path)
        assert "n_steps" in err

    def test_theorem1_zero_ratio_reports_infinite_spread(self, tmp_path):
        # at grid 4 some domain's heat-content ratio is 0, so the spread has no finite value
        assert cli.main(["theorem1", "--grid", "4", "--out", str(tmp_path)]) == 1
        text = read(tmp_path / "theorem1.report.txt").decode()
        assert "ratio_spread_across_modes = inf" in text
        assert "ratio-stable-across-modes = FAIL" in text

    def test_theorem1_fits_only_modes_with_length(self, tmp_path):
        # at grid 4 the m = 4 mode is sampled on its zeros: nodal length 0
        assert cli.main(["theorem1", "--grid", "4", "--out", str(tmp_path)]) == 1
        text = read(tmp_path / "theorem1.report.txt").decode()
        assert "nan" not in text and "divide by zero" not in text
        assert "length_exponent = " in text
        assert "modes-with-nodal-length = FAIL; " in text
        assert text.count("m = 4") == 1 and "m = 3" not in text

    def test_python_dash_m(self, tmp_path):
        # run from the source tree, as `python -m nodalheat` is run without an install
        env = dict(os.environ, PYTHONPATH=str(Path(nodalheat.__file__).parents[1]))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "nodalheat", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        help_run = run("--help")
        assert help_run.returncode == 0 and "usage: nodalheat" in help_run.stdout
        bad = run("heat-content", "--grid", "64", "--times", "1e-4:1e-3:4", "--steps", "24",
                  "--domain", "99", "--out", str(tmp_path))
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, bad.stderr

    def test_unwritable_out(self, monkeypatch):
        rc = cli.main(["cone", "--alpha", "1.5", "--r", "2", "--paths", "200",
                       "--dt", "2e-3", "--out", "/proc/nope/dir"])
        assert rc == 2


class TestArtifacts:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = cli.main(["heat-content", "--grid", "256",
                           "--times", "4e-5:4e-4:4", "--steps", "24",
                           "--out", str(out)])
            assert rc == 0
        assert read(a / "heat-content.report.txt") == read(b / "heat-content.report.txt")
        assert read(a / "heat-content.curve.csv") == read(b / "heat-content.curve.csv")

    def test_csv_format(self, tmp_path):
        cli.main(["heat-content", "--grid", "256", "--times", "4e-5:4e-4:4",
                  "--steps", "24", "--out", str(tmp_path)])
        lines = read(tmp_path / "heat-content.curve.csv").decode().splitlines()
        assert lines[0] == "c0,c1,c2"
        first = lines[1].split(",")
        # %.17g strings round-trip float64 exactly
        for tok in first:
            assert f"{float(tok):.17g}" == tok
        assert float(first[0]) == pytest.approx(4e-5, rel=1e-15)

    def test_emit_fields(self, tmp_path):
        cli.main(["heat-content", "--grid", "64", "--times", "1e-4:1e-3:4",
                  "--steps", "24", "--emit-fields", "--out", str(tmp_path)])
        assert (tmp_path / "heat-content.field.csv").exists()
        no_fields = tmp_path / "n"
        cli.main(["heat-content", "--grid", "64", "--times", "1e-4:1e-3:4",
                  "--steps", "24", "--out", str(no_fields)])
        assert not (no_fields / "heat-content.field.csv").exists()

    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("grid = 64\nsteps = 24\ntimes = 4e-4:4e-3:4\n")
        out1 = tmp_path / "one"
        rc = cli.main(["heat-content", "--config", str(cfgf), "--out", str(out1)])
        assert rc in (0, 1)     # config plumbing under test, not the verdict
        text = read(out1 / "heat-content.report.txt").decode()
        assert "grid = 64" in text
        out2 = tmp_path / "two"
        rc = cli.main(["heat-content", "--config", str(cfgf), "--grid", "96",
                       "--out", str(out2)])
        assert rc in (0, 1)
        text = read(out2 / "heat-content.report.txt").decode()
        assert "grid = 96" in text

    def test_config_file_values_get_flag_types(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("alpha = 1.5\nr = 2\npaths = 2000\n")
        assert cli.main(["cone", "--config", str(cfgf), "--out", str(tmp_path)]) == 0
        text = read(tmp_path / "cone.report.txt").decode()
        assert "alpha = 1.5\n" in text and "r = 2\n" in text

    def test_report_names_tolerances(self, tmp_path):
        cli.main(["cone", "--alpha", "1.5707963267948966", "--r", "2",
                  "--paths", "2000", "--dt", "2e-3", "--out", str(tmp_path)])
        text = read(tmp_path / "cone.report.txt").decode()
        assert "[references]" in text and "[checks]" in text
        assert "exact = 0.31191652" in text


def _notes(path):
    text = read(path).decode()
    return text.split("[notes]\n")[1].splitlines() if "[notes]\n" in text else []


class TestWarningNotes:
    def test_each_suite_job_keeps_its_own_warnings(self, tmp_path, monkeypatch):
        # jobs on two threads warn in turns; no job may lose a warning or
        # take another's, and the command leaves the warnings state as it found it
        names, n = ["cone", "isoperimetry", "ball-search"], 50

        def stub(name):
            def run(ns):
                for i in range(n):
                    warnings.warn(f"{name} {i}")
                    time.sleep(1e-4)
                return bounds.ExperimentReport(name=name, claim="stub")
            return run

        for name in names:
            monkeypatch.setitem(cli.DISPATCH, name, stub(name))
        monkeypatch.setattr(cli, "_SUITE_JOBS", [(name, name) for name in names])
        filters, show = list(warnings.filters), warnings.showwarning
        assert cli.main(["suite", "--quick", "--threads", "2", "--out", str(tmp_path)]) == 0
        for name in names:
            assert _notes(tmp_path / f"{name}.report.txt") == \
                [f"warning: {name} {i}" for i in range(n)], name
        assert warnings.filters == filters
        assert warnings.showwarning is show

    @pytest.mark.parametrize("argv, note", [
        (["global-survival", "--model", "torus:3,3", "--grid", "16", "--steps", "16"],
         "warning: grid h=0.0625 under-resolves wavelength 0.2357 (need >= 10 samples)"),
        (["max-point", "--grid", "4", "--paths", "200", "--steps", "10"],
         "warning: start point within one cell of the boundary; "
         "the estimate is discretization dominated"),
    ], ids=["global-survival", "max-point"])
    def test_library_warning_in_report(self, tmp_path, argv, note):
        cli.main(argv + ["--out", str(tmp_path)])
        (report,) = tmp_path.glob("*.report.txt")
        assert note in _notes(report)
