import os
import subprocess
import sys
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

    def test_config_file(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("grid = 64\nseed = 7\nbridge = false\n# comment\n")
        vals = cli.load_config_file(str(cfgf))
        assert vals == {"grid": "64", "seed": "7", "bridge": "false"}


class TestExitCodes:
    def test_unknown_experiment(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert "valid experiments" in capsys.readouterr().err

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

    def test_avoided_crossing_dt_validated(self, capsys, tmp_path):
        # the corridor walk is exact in time, but --dt is still checked against t/100
        err = self._usage_error(capsys, ["avoided-crossing", "--dt", "1",
                                         "--paths", "100"], tmp_path)
        assert "dt" in err

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

    def test_report_names_tolerances(self, tmp_path):
        cli.main(["cone", "--alpha", "1.5707963267948966", "--r", "2",
                  "--paths", "2000", "--dt", "2e-3", "--out", str(tmp_path)])
        text = read(tmp_path / "cone.report.txt").decode()
        assert "[references]" in text and "[checks]" in text
        assert "exact = 0.31191652" in text
