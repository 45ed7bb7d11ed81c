"""The test, its bootstrap and a study against the golden outputs of
``make_golden.py``: ``run_test`` on every supported (family, estimator,
mask) row, the bootstrap p-values of six families and a five-cell study
report.  Theta-hat, T_n, Sigma, p-values, replication T_n and rates within
1e-12 relative, and every count, flag and error type exactly.  A change
that moves them regenerates the files and says what moved."""

import json

import pytest

import make_golden as golden

GOLDEN = {name: json.loads((golden.DIR / name).read_text()) for name in golden.LAYERS}
ROWS = list(golden.supported_rows())


def _moved(want, got):
    assert sorted(got) == sorted(want)
    return {key: v for key in want if (v := golden.compare(want[key], got[key]))}


def test_every_supported_row_is_pinned():
    assert len(ROWS) == 137
    assert sorted(GOLDEN["run_test.json"]["rows"]) == sorted(golden.row_id(*r) for r in ROWS)


@pytest.mark.parametrize("name,kind,known", ROWS, ids=[golden.row_id(*r) for r in ROWS])
def test_run_test_keeps_its_outputs(name, kind, known):
    want = GOLDEN["run_test.json"]["rows"][golden.row_id(name, kind, known)]
    moved = _moved(want, golden.outcomes(name, kind, known))
    assert not moved, (moved, GOLDEN["run_test.json"]["versions"])


@pytest.mark.parametrize("name", golden.BOOTSTRAP)
def test_the_bootstrap_keeps_its_p_value_and_replications(name):
    want = GOLDEN["bootstrap.json"]["rows"][name]
    moved = _moved(want, golden.bootstrap_outcome(name))
    assert not moved, (moved, GOLDEN["bootstrap.json"]["versions"])


def test_the_study_keeps_its_report():
    (rid, want), = GOLDEN["study.json"]["rows"].items()
    (rid_now, got), = golden.LAYERS["study.json"]().items()
    assert rid_now == rid and len(want) == len(golden.STUDY.cells)
    moved = _moved(want, got)
    assert not moved, (moved, GOLDEN["study.json"]["versions"])


def test_check_mode_reports_what_moved_and_leaves_the_file(tmp_path, monkeypatch, capsys):
    one = ("gamma", "ml", ())
    rid = golden.row_id(*one)
    path = tmp_path / "run_test.json"
    monkeypatch.setattr(golden, "DIR", tmp_path)
    monkeypatch.setattr(golden, "LAYERS", {"run_test.json": golden.LAYERS["run_test.json"]})
    monkeypatch.setattr(golden, "supported_rows", lambda: iter([one]))
    rows = {rid: GOLDEN["run_test.json"]["rows"][rid]}
    versions = GOLDEN["run_test.json"]["versions"]
    path.write_text(json.dumps({"versions": versions, "rows": rows}))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "1 rows, 4 entries (0 errors) checked against " \
                                      "run_test.json: 0 moved\nrun_test.json: no family moved\n"
    entry = rows[rid]["n=30,seed=1"]
    entry["tn"] = (float.fromhex(entry["tn"]) * (1 + 1e-9)).hex()
    text = json.dumps({"versions": versions, "rows": rows})
    path.write_text(text)
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{rid} n=30,seed=1: tn by 1e-09 relative")
    assert out[-3].endswith(": 1 moved") and path.read_text() == text
    # the file's summary: the family that moved, by how much, and the rest
    assert out[-2:] == ["run_test.json gamma: 1 of 4 entries moved, theta by at most 0 and "
                        "T_n by at most 1e-09 relative", "run_test.json: no other family moved"]


def test_a_replication_that_turns_nan_is_a_move():
    want = GOLDEN["bootstrap.json"]["rows"]["gamma"]["n=200,seed=3"]
    got = dict(want, replications=["nan"] + want["replications"][1:])
    assert golden.compare(want, got) == ["replications by inf relative"]
    assert golden.compare(got, got) == []
