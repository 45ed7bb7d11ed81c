import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigof import cli, scaling, simharness
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

    @pytest.mark.parametrize("argv", [
        ["matrices"], ["matrices", "--family", "gamma"],
        ["power", "--case", "gamma", "--empirical", "0,20"]],
        ids=["matrices-alone", "matrices-without-theta", "empirical-n-0"])
    def test_a_missing_or_out_of_range_option_is_64(self, argv, capsys):
        assert cli.main(argv) == cli.USAGE_EXIT
        assert capsys.readouterr().err.startswith("usage error: ")


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

    @pytest.mark.parametrize("field", ["theta", "G", "matrix_params"])
    def test_every_field_is_recomputed(self, tmp_path, capsys, field):
        path = self._dump(tmp_path, capsys, "--family", "gamma", "--theta", "2.3,1.4")
        stored = json.loads(path.read_text())
        stored[field] = {"theta": [2.3, 1.5], "G": [[0.0, 0.0], [0.0, 0.0]],
                         "matrix_params": ["beta", "lambda"]}[field]
        path.write_text(json.dumps(stored))
        assert cli.main(["matrices", "--verify", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["matches_stored"] is False

    @pytest.mark.parametrize("key", ["family", "estimator", "theta", "known"])
    def test_a_dump_without_a_key_is_2(self, tmp_path, capsys, key):
        path = self._dump(tmp_path, capsys, "--family", "gamma", "--theta", "2.3,1.4")
        stored = json.loads(path.read_text())
        del stored[key]
        path.write_text(json.dumps(stored))
        assert cli.main(["matrices", "--verify", str(path)]) == cli.DATA_EXIT
        assert "is not a matrices dump" in capsys.readouterr().err

    @pytest.mark.parametrize("fam,theta", [
        ("gamma", "2.3,1e-7"), ("weibull", "1e-7,1.5"), ("lomax", "2.5,1e-7"),
        ("gompertz", "1e7,0.4"), ("log-logistic", "1e-7,2.5"), ("inverse-gamma", "2.5,1e-7")])
    def test_sigma_at_extreme_units_is_sigma_froms(self, tmp_path, capsys, fam, theta):
        # R at this theta reads singular, but Sigma is taken at its shapes alone
        path = self._dump(tmp_path, capsys, "--family", fam, "--theta", theta)
        want = scaling.sigma_from(fam, "ml", [float(v) for v in theta.split(",")])
        np.testing.assert_array_equal(json.loads(path.read_text())["sigma"], want)
        assert cli.main(["matrices", "--verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["matches_stored"] is True


def test_importing_the_cli_leaves_scipy_optimize_out():
    # every fit runs on the package's own root solver over rows, and a power
    # curve reads its tail from scipy.special alone: scipy.stats would double
    # the peak memory of a run
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", "import sys, trigof.cli; "
                          "trigof.cli.power.power_curve('gamma', (2.0, 1.0), [0.0, 5.0]); "
                          "print(sorted(m for m in sys.modules if m.startswith("
                          "('scipy.optimize', 'scipy.stats', 'scipy.integrate'))))"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_seed_default_is_read_at_each_call(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; TRIGOF_SEED still counts per call
    path = _data_file(tmp_path, F.sample("gamma", (2.3, 1.4), 40, 5))
    seeds = []
    run_test = cli.gof.run_test

    def recording(*args, mc=None, **kw):
        if mc:
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
    # a bad TRIGOF_SEED fails only a call that draws: a bootstrap or empirical power
    monkeypatch.setenv("TRIGOF_SEED", "abc")
    power = ["power", "--case", "weibull", "--delta", "0,5"]
    for argv, draws in ((["test", path, "--family", "gamma"], False),
                        (["test", path, "--family", "gamma", "--mc-reps", "5"], True),
                        (power, False), ([*power, "--empirical", "20,5"], True)):
        capsys.readouterr()
        assert cli.main(argv) == (cli.USAGE_EXIT if draws else 0)
        assert ("TRIGOF_SEED" in capsys.readouterr().err) == draws


@pytest.mark.parametrize("argv", [
    ["matrices", "--family", "normal", "--theta", "0,1"],
    ["ellipse", "--family", "normal", "--theta", "0,1"],
], ids=["matrices", "ellipse"])
def test_commands_that_draw_nothing_take_no_seed(argv, monkeypatch, capsys):
    monkeypatch.setenv("TRIGOF_SEED", "abc")
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--seed", "3"]) == cli.USAGE_EXIT
    assert "--seed" in capsys.readouterr().err


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
# (gamma's lines since its Sigma comes from a table; every power at ncp > 0
# since noncentral_chi2_sf sums its mixture at once, each within 3e-16 of mpmath)
POWER_CSV = [
    (["--case", "gamma", "--lambda0", "2", "--delta", "0,5,10"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "5.0,0.8567896337028051,0.12005880637760792",
      "10.0,3.4271585348112206,0.3621331691395698"]),
    (["--case", "weibull", "--delta", "0,12"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "12.0,2.9794409186247703,0.31955673119345784"]),
    *[(["--case", "epd", "--lambda0", "2", "--delta", "0,1.5", "--estimator", kind],
       ["delta1,delta2,ncp,power",
        "0.0,0.0,0.0,0.05000000000000002",
        "1.5,0.0,2.88248192938341,0.31026723448872184"]) for kind in ("ml", "mm")],
    (["--case", "epd", "--lambda0", "2", "--delta2", "0,2", "--estimator", "ml"],
     ["delta1,delta2,ncp,power",
      "0.0,0.0,0.0,0.05000000000000002",
      "0.0,2.0,0.17593746523934328,0.06345663397386841"]),
    (["--case", "epd", "--lambda0", "2", "--delta2", "0,2", "--estimator", "mm"],
     ["delta1,delta2,ncp,power",
      "0.0,0.0,0.0,0.05000000000000002",
      "0.0,2.0,0.17593746523934367,0.06345663397386844"]),
    (["--case", "epd", "--lambda0", "2", "--delta", "1.5", "--empirical", "50,20"],
     ["delta1,delta2,ncp,power,empirical,asymptotic,failed",
      "1.5,0.0,2.88248192938341,0.31026723448872184,0.35,0.31026723448872184,0"]),
    (["--case", "exponential-in-weibull", "--delta", "0,2,4"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "2.0,3.7343091460781643,0.3909094876006684",
      "4.0,14.937236584312657,0.9431131158309768"]),
    (["--case", "exponential-in-weibull", "--delta", "3", "--empirical", "50,20"],
     ["delta,ncp,power,empirical,asymptotic,failed",
      "3.0,8.402195578675869,0.7399822358685476,0.6,0.7399822358685476,0"]),
    (["--case", "exponential-in-gamma", "--delta", "0,3,6"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "3.0,3.150530940013964,0.3358974931137513",
      "6.0,12.602123760055855,0.8987491108237544"]),
    (["--case", "normal-in-epd", "--delta", "0,10,20"],
     ["delta,ncp,power",
      "0.0,0.0,0.05000000000000002",
      "10.0,4.398436630982747,0.45141431449964",
      "20.0,17.59374652393099,0.9715265855530315"]),
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


def test_study_config_with_a_malformed_study_number_is_2(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nreps = abc\n\n[cell:c]\nfamily = gamma\ntheta = 2.0, 1.0\n")
    assert cli.main(["study", "--config", str(path), "--output-prefix",
                     str(tmp_path / "out")]) == cli.DATA_EXIT
    assert "section [study]: " in capsys.readouterr().err


def test_study_writes_its_report_with_the_seed_given(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nreps = 100\nseed = 4\n\n"
                    "[cell:null]\nfamily = gamma\ntheta = 2.0, 1.0\nn = 40\n\n"
                    "[cell:alt]\nfamily = normal\ntheta = 0, 1\nn = 40\n"
                    "data_family = logistic\ndata_theta = 0, 1\n")
    prefix = str(tmp_path / "out")
    assert cli.main(["study", "--config", str(path), "--output-prefix", prefix,
                     "--seed", "9"]) == 0
    cfg = simharness.load_config(str(path))
    want = simharness.run_study(dataclasses.replace(cfg, seed=9)).cells
    assert capsys.readouterr().out.splitlines() == [
        f"{c.name}: rate={c.rate:.4f} se={c.se:.4f} failed={c.failed} "
        f"[{'ok' if c.ok else 'FLAGGED'}]" for c in want]
    rows = [{k: v for k, v in dataclasses.asdict(c).items() if k != "wall_time"} for c in want]
    with open(prefix + ".csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    assert [{k: v for k, v in r.items() if k != "wall_time"} for r in got] == \
        [{k: str(v) for k, v in r.items()} for r in rows]
    with open(prefix + ".json") as fh:
        report = json.load(fh)
    assert (report["reps"], report["alpha"], report["seed"]) == (100, 0.05, 9)
    assert [{k: v for k, v in r.items() if k != "wall_time"} for r in report["cells"]] == rows
    assert [c.rejections for c in want] != \
        [c.rejections for c in simharness.run_study(cfg).cells]


def test_ellipse_input_marks_the_observed_point_of_the_test(tmp_path, capsys):
    path = _data_file(tmp_path, F.sample("gamma", (2.3, 1.4), 60, 5))
    assert cli.main(["ellipse", "--family", "gamma", "--input", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    observed = [line for line in lines if line.startswith("observed,")]
    res = cli.gof.run_test("gamma", "ml", None, cli.read_data(path))
    root_n = math.sqrt(res.moments.n)
    assert observed == [f"observed,{root_n * res.moments.cn!r},{root_n * res.moments.sn!r}"]
    assert lines[0] == "kind,x,y" and lines[1].startswith("boundary,")


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

    @pytest.mark.parametrize("body", ["1.5\n2.5\nnan\n4.0\n", "# values\n1.5\nnan\n4.0\n",
                                      "1.5\n2.5\n -inf \n4.0", "1.5\n\ninf\n"],
                             ids=["nan", "nan-after-a-comment", "inf", "inf-after-a-blank"])
    def test_a_non_finite_value_names_its_line(self, tmp_path, capsys, body):
        path = tmp_path / "data.txt"
        path.write_text(body)
        value = "nan" if "nan" in body else "-inf" if "-inf" in body else "inf"
        expect = f"{path}:3: not a finite number: {value!r}"
        with pytest.raises(TrigofError, match=f"^{re.escape(expect)}$"):
            cli.read_data(path)
        assert cli.main(["test", str(path), "--family", "normal"]) == cli.DATA_EXIT
        assert expect in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["1.5\n2.5\n3.0\n", "# values\n1.5\n2.5\n3.0\n"],
                             ids=["one-pass", "with-a-comment"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, capsys, body):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert cli.read_data(path).tolist() == [1.5, 2.5, 3.0]
        assert cli.main(["test", str(path), "--family", "normal"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    @pytest.mark.parametrize("body", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
    def test_a_file_without_values_is_an_error(self, tmp_path, capsys, body):
        path = tmp_path / "data.txt"
        path.write_text(body)
        with pytest.raises(TrigofError, match="no data values found"):
            cli.read_data(path)
        assert cli.main(["test", str(path), "--family", "gamma"]) == cli.DATA_EXIT
        assert "no data values found" in capsys.readouterr().err


def _both_reads(path, monkeypatch, one_pass: bool):
    """read_data's result (or error text) and _read_lines's on the same text;
    ``one_pass`` asserts whether read_data settles the file in its one pass."""
    text = open(path).read()
    outs = []
    for read in (cli.read_data, lambda p: cli._read_lines(p, text)):
        if one_pass and read is cli.read_data:
            with monkeypatch.context() as m:
                m.setattr(cli, "_read_lines", lambda *a: pytest.fail("the one pass fell back"))
                outs.append(read(path))
            continue
        try:
            outs.append(read(path))
        except TrigofError as exc:
            outs.append(str(exc))
    return outs


class TestOnePassRead:
    """``read_data``'s one-pass parse and its line loop agree: the same
    values, bit for bit, and the same error texts."""

    @pytest.mark.parametrize("raw", [
        b"1.5\r\n-2.25\r\n3e-3\r\n",
        b"1.5\n-2.25\n3e-3",
        b" 1.5\t\n\t-2.25  \n  3e-3\n",
        b"1_000\n1e-320\n2.2250738585072011e-308\n",
        b"\x0c1.5\n2.5\x0c\n\x0c3e-3\x0c",
    ], ids=["crlf", "no-final-newline", "spaces-and-tabs", "underscore-subnormal-hard",
            "form-feed-at-the-ends"])
    def test_same_bits(self, tmp_path, monkeypatch, raw):
        path = tmp_path / "data.txt"
        path.write_bytes(raw)
        fast, loop = _both_reads(path, monkeypatch, one_pass=True)
        assert fast.dtype == loop.dtype == np.float64
        assert fast.tobytes() == loop.tobytes() and len(fast) == 3
        if raw.startswith(b"1_000"):
            assert fast.tolist() == [1000.0, 1e-320, 2.2250738585072011e-308]
            assert fast[2].hex() == "0x0.fffffffffffffp-1022"

    @pytest.mark.parametrize("raw,expect", [
        (b"1.5\n2\x0c5\n3.5\n", ":2: not a number: '2\\x0c5'"),
        (b"1.5\n2.5\n3.5 4.5\n", ":3: not a number: '3.5 4.5'"),
        (b"1.5\n\n2.5\n", None),
        (b"1.5\n2.5\n\n", None),
    ], ids=["form-feed-inside", "two-values", "blank-in-the-middle", "two-final-newlines"])
    def test_the_loop_settles_what_the_pass_refuses(self, tmp_path, monkeypatch, raw, expect):
        path = tmp_path / "data.txt"
        path.write_bytes(raw)
        fast, loop = _both_reads(path, monkeypatch, one_pass=False)
        if expect is None:
            assert fast.tobytes() == loop.tobytes() and fast.tolist() == [1.5, 2.5]
        else:
            assert fast == loop == f"{path}{expect}"
