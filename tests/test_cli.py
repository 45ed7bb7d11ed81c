import json

import numpy as np
import pytest

from trigof import cli
from trigof import families as F


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
