"""``run_test`` on every supported (family, estimator, mask) row against the
golden outputs of ``make_golden.py``: theta-hat, T_n and Sigma within 1e-12
relative, the iterations, the converged flag and the error type exactly.  A
change that moves them regenerates the file and says what moved."""

import json

import pytest

import make_golden as golden

GOLDEN = json.loads(golden.PATH.read_text())
ROWS = list(golden.supported_rows())


def test_every_supported_row_is_pinned():
    assert len(ROWS) == 137
    assert sorted(GOLDEN["rows"]) == sorted(golden.row_id(*r) for r in ROWS)


@pytest.mark.parametrize("name,kind,known", ROWS, ids=[golden.row_id(*r) for r in ROWS])
def test_run_test_keeps_its_outputs(name, kind, known):
    want = GOLDEN["rows"][golden.row_id(name, kind, known)]
    got = golden.outcomes(name, kind, known)
    assert sorted(got) == sorted(want)
    moved = {key: golden.compare(want[key], got[key]) for key in want}
    assert not any(moved.values()), ({k: v for k, v in moved.items() if v}, GOLDEN["versions"])


def test_check_mode_reports_what_moved_and_leaves_the_file(tmp_path, monkeypatch, capsys):
    one = ("gamma", "ml", ())
    rid = golden.row_id(*one)
    path = tmp_path / "run_test.json"
    monkeypatch.setattr(golden, "PATH", path)
    monkeypatch.setattr(golden, "supported_rows", lambda: iter([one]))
    rows = {rid: GOLDEN["rows"][rid]}
    path.write_text(json.dumps({"versions": GOLDEN["versions"], "rows": rows}))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "1 rows, 4 entries (0 errors) checked against " \
                                      "run_test.json: 0 moved\n"
    entry = rows[rid]["n=30,seed=1"]
    entry["tn"] = (float.fromhex(entry["tn"]) * (1 + 1e-9)).hex()
    text = json.dumps({"versions": GOLDEN["versions"], "rows": rows})
    path.write_text(text)
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{rid} n=30,seed=1: tn by 1e-09 relative")
    assert out[-1].endswith(": 1 moved") and path.read_text() == text
