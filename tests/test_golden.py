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
