import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigof import cli
from trigof import families as F
from trigof.errors import TrigofError


def _data_file(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("# one value per line\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


class TestExitCodes:
    def test_test_on_a_file_is_0(self, tmp_path, capsys):
        path = _data_file(tmp_path, F.sample("gamma", (2.3, 1.4), 80, 5))
        assert cli.main(["test", path, "--family", "gamma"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["family"] == "gamma" and out["n"] == 80
        assert out["p_chi2"] == pytest.approx(np.exp(-0.5 * out["t_n"]), rel=1e-15)

    def test_data_outside_the_support_is_2(self, tmp_path, capsys):
        path = _data_file(tmp_path, [1.0, -2.0, 3.0, 4.0, 0.5])
        assert cli.main(["test", path, "--family", "gamma"]) == cli.DATA_EXIT == 2
        assert "support" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert cli.main(["test", str(tmp_path / "absent.txt"), "--family", "normal"]) == 2

    def test_unknown_family_is_64(self, tmp_path, capsys):
        path = _data_file(tmp_path, [1.0, 2.0, 3.5])
        assert cli.main(["test", path, "--family", "cauchy"]) == cli.USAGE_EXIT == 64
        assert "usage error" in capsys.readouterr().err

    def test_wrong_theta_arity_is_64(self):
        assert cli.main(["matrices", "--family", "normal", "--theta", "1.0"]) == 64
        assert cli.main(["matrices", "--family", "normal", "--theta", "0,1,2"]) == 64


class TestMatricesVerify:
    def _dump(self, tmp_path, capsys, *extra):
        path = tmp_path / "m.json"
        assert cli.main(["matrices", "--output", str(path), *extra]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("args", [
        ("--family", "gamma", "--theta", "2.3,1.4"),
        ("--family", "epd", "--theta", "1.5,0.3,2.0", "--estimator", "mm",
         "--known", "lambda=1.5"),
        ("--family", "log-normal", "--theta", "0.1,0.7"),
        ("--family", "frechet", "--theta", "1.2,2.2", "--known", "rho=2.2"),
        ("--family", "half-normal", "--theta", "1.2"),
    ])
    def test_dump_round_trips(self, tmp_path, capsys, args):
        path = self._dump(tmp_path, capsys, *args)
        assert cli.main(["matrices", "--verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["matches_stored"] is True

    def test_tampered_sigma_is_2(self, tmp_path, capsys):
        path = self._dump(tmp_path, capsys, "--family", "gamma", "--theta", "2.3,1.4")
        stored = json.loads(path.read_text())
        stored["sigma"][0][0] += 1e-9
        path.write_text(json.dumps(stored))
        assert cli.main(["matrices", "--verify", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["matches_stored"] is False


def test_importing_the_cli_leaves_scipy_optimize_out():
    # every fit runs on the package's own root solver over rows
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", "import sys, trigof.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_seed_default_is_read_at_each_call(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; TRIGOF_SEED still counts per call
    path = _data_file(tmp_path, F.sample("gamma", (2.3, 1.4), 40, 5))
    seeds = []
    run_test = cli.gof.run_test

    def recording(*args, mc=None, **kw):
        seeds.append(mc["seed"])
        return run_test(*args, mc=mc, **kw)

    monkeypatch.setattr(cli.gof, "run_test", recording)
    for seed in ("3", "7"):
        monkeypatch.setenv("TRIGOF_SEED", seed)
        assert cli.main(["test", path, "--family", "gamma", "--mc-reps", "5"]) == 0
    assert cli.main(["test", path, "--family", "gamma", "--mc-reps", "5", "--seed", "11"]) == 0
    monkeypatch.delenv("TRIGOF_SEED")
    assert cli.main(["test", path, "--family", "gamma", "--mc-reps", "5"]) == 0
    assert seeds == [3, 7, 11, 0]
    assert cli._parser() is cli._parser()
    monkeypatch.setenv("TRIGOF_SEED", "abc")
    capsys.readouterr()
    assert cli.main(["test", path, "--family", "gamma"]) == cli.USAGE_EXIT
    assert "TRIGOF_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ellipse", "--family", "normal"],
    ["ellipse", "--family", "normal", "--theta", "0,1", "--known", "mu"],
    ["ellipse", "--family", "normal", "--theta", "0,1", "--known", "mu=abc"],
    ["ellipse", "--family", "normal", "--theta", "0,1", "--known", "nu=1"],
    ["matrices", "--family", "gamma", "--theta", "2,1", "--known", "shape=2"],
    ["power", "--case", "gamma", "--delta", "0:1:0"],
    ["power", "--case", "gamma", "--delta", "0:1:-1"],
    ["power", "--case", "gamma", "--delta", ","],
    ["power", "--case", "epd", "--delta2", "0:x:1"],
    ["power", "--case", "weibull", "--delta", "0,5", "--empirical", "50"],
    ["power", "--case", "weibull", "--delta", "0,5", "--empirical", "50,many"],
    ["matrices", "--family", "normal", "--theta", "a,b"],
    ["ellipse", "--family", "normal", "--theta", "0,b"],
    ["power", "--case", "gamma", "--delta2", "0,1"],
    ["matrices", "--family", "gg", "--theta", "1,-1,1"],
    ["ellipse", "--family", "uniform", "--theta", "2,1"],
    ["test", "data.txt", "--family", "normal", "--known", "sigma=-1"],
], ids=["ellipse-no-theta-or-input", "known-without-value", "known-not-a-number",
        "known-unknown-name", "matrices-known-unknown-name", "grid-zero-step",
        "grid-empty-range", "grid-empty-list", "grid-malformed", "empirical-one-value",
        "empirical-not-a-number", "matrices-theta-not-a-number", "ellipse-theta-not-a-number",
        "delta2-on-a-scalar-drift", "matrices-theta-outside-the-space",
        "ellipse-theta-outside-the-space", "test-known-outside-the-space"])
def test_usage_mistakes_are_64(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text("0.5\n1.5\n2.5\n")
    assert cli.main(argv) == cli.USAGE_EXIT
    assert "usage error" in capsys.readouterr().err


# the CSV of `trigof power` as the hand-coded cases wrote it, frozen bit for bit
POWER_CSV = [
    (["--case", "gamma", "--lambda0", "2", "--delta", "0,5,10"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "5.0,0.8567896337027988,0.12005880637755369",
      "10.0,3.4271585348111953,0.3621331691395224"]),
    (["--case", "weibull", "--delta", "0,12"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "12.0,2.9794409186247703,0.319556731193408"]),
    *[(["--case", "epd", "--lambda0", "2", "--delta", "0,1.5", "--estimator", kind],
       ["delta1,delta2,ncp,power",
        "0.0,0.0,0.0,0.05000000000000002",
        "1.5,0.0,2.88248192938341,0.3102672344886932"]) for kind in ("ml", "mm")],
    (["--case", "epd", "--lambda0", "2", "--delta2", "0,2", "--estimator", "ml"],
     ["delta1,delta2,ncp,power",
      "0.0,0.0,0.0,0.05000000000000002",
      "0.0,2.0,0.17593746523934328,0.06345663397386764"]),
    (["--case", "epd", "--lambda0", "2", "--delta2", "0,2", "--estimator", "mm"],
     ["delta1,delta2,ncp,power",
      "0.0,0.0,0.0,0.05000000000000002",
      "0.0,2.0,0.17593746523934367,0.06345663397386767"]),
    (["--case", "epd", "--lambda0", "2", "--delta", "1.5", "--empirical", "50,20"],
     ["delta1,delta2,ncp,power,empirical,asymptotic,failed",
      "1.5,0.0,2.88248192938341,0.3102672344886932,0.35,0.3102672344886932,0"]),
    (["--case", "exponential-in-weibull", "--delta", "0,2,4"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "2.0,3.7343091460781643,0.3909094876004695",
      "4.0,14.937236584312657,0.9431131158307211"]),
    (["--case", "exponential-in-weibull", "--delta", "3", "--empirical", "50,20"],
     ["delta,ncp,power,empirical,asymptotic,failed",
      "3.0,8.402195578675869,0.7399822358684385,0.6,0.7399822358684385,0"]),
    (["--case", "exponential-in-gamma", "--delta", "0,3,6"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "3.0,3.150530940013964,0.33589749311362554",
      "6.0,12.602123760055855,0.8987491108234263"]),
    (["--case", "normal-in-epd", "--delta", "0,10,20"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "10.0,4.398436630982747,0.4514143144992836",
      "20.0,17.59374652393099,0.9715265855527475"]),
]


@pytest.mark.parametrize("argv,lines", POWER_CSV, ids=[
    "gamma", "weibull", "epd-ml", "epd-mm", "epd-delta2-ml", "epd-delta2-mm", "epd-empirical",
    "exponential-in-weibull", "exponential-in-weibull-empirical", "exponential-in-gamma",
    "normal-in-epd"])
def test_power_csv_is_frozen(argv, lines, capsys):
    assert cli.main(["power", *argv, "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("argv,option", [
    (["test", "DATA", "--family", "normal", "--alpha", "1.5"], "--alpha"),
    (["test", "DATA", "--family", "normal", "--alpha", "-0.1"], "--alpha"),
    (["test", "DATA", "--family", "normal", "--alpha", "nan"], "--alpha"),
    (["test", "DATA", "--family", "normal", "--mc-reps", "-3"], "--mc-reps"),
    (["test", "DATA", "--family", "normal", "--digits", "-1"], "--digits"),
    (["power", "--case", "gamma", "--delta", "0,1", "--alpha", "0"], "--alpha"),
    (["ellipse", "--family", "normal", "--theta", "0,1", "--level", "1.5"], "--level"),
    (["ellipse", "--family", "normal", "--theta", "0,1", "--level", "x"], "--level"),
], ids=["alpha-above-1", "alpha-negative", "alpha-nan", "mc-reps-negative", "digits-negative",
        "power-alpha-0", "level-above-1", "level-not-a-number"])
def test_option_values_out_of_range_are_64(tmp_path, capsys, argv, option):
    path = _data_file(tmp_path, F.sample("normal", (0.0, 1.0), 40, 5))
    assert cli.main([path if a == "DATA" else a for a in argv]) == cli.USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {option}" in captured.err


def test_test_with_an_unknown_known_name_is_64(tmp_path, capsys):
    path = _data_file(tmp_path, F.sample("gamma", (2.3, 1.4), 40, 5))
    assert cli.main(["test", path, "--family", "gamma", "--known", "alpha=2"]) == 64
    assert "has no parameter 'alpha'" in capsys.readouterr().err


def test_study_config_with_a_misspelled_family_is_2(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nreps = 100\n\n[cell:c]\nfamily = gamm\ntheta = 2.0, 1.0\n")
    assert cli.main(["study", "--config", str(path), "--output-prefix",
                     str(tmp_path / "out")]) == cli.DATA_EXIT
    assert "section [cell:c]" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


class TestReadData:
    def test_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        values = F.sample("gamma", (2.3, 1.4), 30, 5)
        lines = [repr(float(v)) for v in values]
        lines[15] = f"  {lines[15]}  # trailing note"
        lines[16:16] = ["   ", "#", ""]
        path.write_text("\n".join(["# header", ""] + lines) + "\n")
        assert np.array_equal(cli.read_data(path), values)
        assert cli.main(["test", str(path), "--family", "gamma"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 30

    def test_a_bad_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("# values\n1.5\n\n2.5 # ok\nthree\n4.0\n")
        with pytest.raises(TrigofError, match=rf"^{re.escape(str(path))}:5: not a number: 'three'$"):
            cli.read_data(path)
        assert cli.main(["test", str(path), "--family", "gamma"]) == cli.DATA_EXIT
        assert f"{path}:5: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
    def test_a_file_without_values_is_an_error(self, tmp_path, capsys, body):
        path = tmp_path / "data.txt"
        path.write_text(body)
        with pytest.raises(TrigofError, match="no data values found"):
            cli.read_data(path)
        assert cli.main(["test", str(path), "--family", "gamma"]) == cli.DATA_EXIT
        assert "no data values found" in capsys.readouterr().err
