"""The (family, estimator, mask) row, ``estimate.row``: resolved once and kept,
one error type and text per cause at every entry point, and the constant
Sigma a row keeps where its mask knows every shape."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigof import _batch, cli, estimate, quadrature, scaling
from trigof import families as F
from trigof.errors import ConfigurationError, DomainError
from trigof.estimate import KnownMask, fit, row
from trigof.gof import replicate, run_test
from trigof.simharness import load_config
from conftest import FAMILY_THETAS

NAN = math.nan

# cause: (family, estimator, mask, its ``known`` in a study file (None: a
# file cannot state it), error type, text)
CAUSES = {
    "arity": ("gamma", "ml", KnownMask((False,) * 3, (NAN,) * 3), None,
              DomainError, "mask arity 3 != 2"),
    "no-mm-gamma": ("gamma", "mm", None, "", ConfigurationError,
                    "family 'gamma' has no MM estimator"),
    "no-mm-uniform": ("uniform", "mm", None, "", ConfigurationError,
                      "family 'uniform' has no MM estimator"),
    "known-value": ("gamma", "ml", KnownMask((False, True), (NAN, -2.0)), "beta=-2.0",
                    DomainError, "gamma needs beta > 0, got -2.0"),
    "mm-shape-free": ("epd", "mm", None, "", ConfigurationError,
                      "epd MM requires lambda to be known"),
}


def _block(fam):
    return F._draws(F._quantile_of(fam, FAMILY_THETAS[fam]), 30,
                    [np.random.SeedSequence([81, r]) for r in range(3)])


ENTRIES = {
    "fit": lambda fam, kind, mask, X: fit(fam, kind, mask, X[0]),
    "run_test": lambda fam, kind, mask, X: run_test(fam, kind, mask, X[0]),
    "batch_fit": lambda fam, kind, mask, X: _batch.batch_fit(fam, kind, mask, X),
    "replicate": lambda fam, kind, mask, X: replicate(fam, kind, mask, 30, lambda rs: X[rs],
                                                      range(3)),
    "sigma_from": lambda fam, kind, mask, X: scaling.sigma_from(fam, kind, FAMILY_THETAS[fam],
                                                                mask),
    "sigma": lambda fam, kind, mask, X: scaling.sigma(
        scaling.matrices(fam, "ml", FAMILY_THETAS[fam]), mask, kind, fam),
    "matrices": lambda fam, kind, mask, X: scaling.matrices(fam, kind, FAMILY_THETAS[fam]),
    "drift": lambda fam, kind, mask, X: scaling.drift(fam, kind, FAMILY_THETAS[fam], mask,
                                                      lambda t, x: [np.ones_like(x)]),
}
FITTING = ["fit", "run_test", "batch_fit", "replicate"]
# ``matrices`` takes no mask; Sigma, its matrices and the drift of an MM row
# whose required shape is free are taken at theta's shape
REFUSED = {
    "arity": FITTING + ["sigma_from", "sigma", "drift"],
    "no-mm-gamma": list(ENTRIES),
    "no-mm-uniform": list(ENTRIES),
    "known-value": FITTING + ["sigma_from", "sigma", "drift"],
    "mm-shape-free": FITTING,
}
CASES = [(cause, entry) for cause in CAUSES for entry in REFUSED[cause]]


@pytest.mark.parametrize("cause,entry", CASES, ids=[f"{c}-{e}" for c, e in CASES])
def test_each_cause_has_one_type_and_text_at_every_entry_point(cause, entry):
    fam, kind, mask, _, error, text = CAUSES[cause]
    with pytest.raises(error) as err:
        ENTRIES[entry](fam, kind, mask, _block(fam))
    assert type(err.value) is error and str(err.value) == text


@pytest.mark.parametrize("cause", [c for c in CAUSES if CAUSES[c][3] is not None])
def test_a_study_file_names_the_section_of_each_cause(tmp_path, cause):
    # load_config raises the cause's own type, naming the section
    fam, kind, _, known, error, text = CAUSES[cause]
    path = tmp_path / "study.ini"
    path.write_text(f"[study]\nreps = 100\n\n[cell:c]\nfamily = {fam}\nestimator = {kind}\n"
                    f"theta = {', '.join(map(str, FAMILY_THETAS[fam]))}\nn = 30\n"
                    f"known = {known}\n")
    with pytest.raises(error) as err:
        load_config(str(path))
    assert type(err.value) is error and str(err.value) == f"section [cell:c]: {text}"
    out = str(tmp_path / "out")
    assert cli.main(["study", "--config", str(path), "--output-prefix", out]) == cli.DATA_EXIT


@pytest.mark.parametrize("cause", ["no-mm-gamma", "no-mm-uniform"])
def test_the_cli_refuses_a_row_without_an_mm_estimator_with_its_text(cause, capsys, tmp_path):
    fam, kind, _, _, _, text = CAUSES[cause]
    theta = ",".join(map(str, FAMILY_THETAS[fam]))
    data = tmp_path / "data.txt"
    data.write_text("\n".join(map(repr, _block(fam)[0].tolist())) + "\n")
    for argv in (["matrices", f"--theta={theta}"], ["test", str(data)]):
        assert cli.main([*argv, "--estimator", kind, "--family", fam]) == cli.DATA_EXIT
        assert capsys.readouterr().err == f"error: {text}\n"


def test_a_known_value_is_checked_on_the_row():
    # a mask built directly, not through KnownMask.from_names
    x = F.sample("gamma", (2.3, 1.4), 50, 3)
    for mask, text in [(KnownMask((False, True), (NAN, -2.0)), "gamma needs beta > 0, got -2.0"),
                       (KnownMask((True, False), (0.0, NAN)), "gamma needs lambda > 0, got 0.0")]:
        with pytest.raises(DomainError) as err:
            fit("gamma", "ml", mask, x)
        assert str(err.value) == text
    with pytest.raises(DomainError, match=r"^gamma needs lambda > 0, got -1\.0$"):
        scaling.sigma_from("gamma", "ml", (2.0, 1.0), KnownMask((True, False), (-1.0, NAN)))


def test_an_mm_row_with_its_shape_free_has_sigma_at_thetas_shape(capsys):
    theta = (1.5, 0.0, 1.0)
    known = scaling.sigma_from("epd", "mm", theta, KnownMask.from_names("epd", {"lambda": 1.5}))
    np.testing.assert_array_equal(scaling.sigma_from("epd", "mm", theta, None), known)
    assert not np.array_equal(scaling.sigma_from("epd", "mm", (2.5, 0.0, 1.0), None), known)
    assert cli.main(["matrices", "--estimator", "mm", "--family", "epd", "--theta", "1.5,0,1"]) == 0
    np.testing.assert_array_equal(json.loads(capsys.readouterr().out)["sigma"], known)
    assert cli.main(["ellipse", "--estimator", "mm", "--family", "epd", "--theta", "1.5,0,1"]) == 0
    assert capsys.readouterr().out.startswith("kind,x,y\n")


def test_equal_masks_share_one_row():
    a = row("gamma", "ml", KnownMask((False, True), (NAN, 1.0)))
    assert a is row("gamma", "ml", KnownMask((False, True), (NAN, 1.0)))
    assert a is row(F.get_family("gamma"), "ml", KnownMask.from_names("gamma", {"beta": 1.0}))
    assert a is row("gamma", "ml", KnownMask((False, True), (7.0, 1.0)))  # a free value is ignored
    assert a is not row("gamma", "ml", KnownMask((False, True), (NAN, 2.0)))
    assert row(a) is a and math.isnan(a.mask.fixed_values[0])
    zero, negative = (row("normal", "ml", KnownMask.from_names("normal", {"mu": v}))
                      for v in (0.0, -0.0))
    assert zero is not negative and math.copysign(1.0, negative.mask.fixed_values[0]) == -1.0


def test_a_replaced_family_is_fitted_and_tested_as_itself():
    # the row is kept on the family object, not on its name
    normal = F.get_family("normal")
    x = F.sample("normal", (0.0, 1.0), 200, 5)
    want = run_test("normal", "ml", None, x).tn
    calls = []
    counted = dataclasses.replace(normal, cdf_fn=lambda t, y: calls.append(1) or normal.cdf_fn(t, y))
    assert row(counted).fam is counted and row("normal").fam is normal
    assert run_test(counted, "ml", None, x).tn == want and calls
    half = dataclasses.replace(normal, cdf_fn=lambda t, y: 0.5 * normal.cdf_fn(t, y))
    assert run_test(half, "ml", None, x).tn != want
    with pytest.raises(DomainError, match="outside the support of normal"):
        fit(dataclasses.replace(normal, ends=(0.0, math.inf)), "ml", None, x)


def test_the_row_cache_is_bounded_and_nothing_is_built_at_import():
    assert estimate._row.cache_info().maxsize == estimate._ROW_CACHE
    env = dict(os.environ, PYTHONPATH=str(Path(estimate.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import trigof.cli, trigof.estimate as E; "
                               "print(E._row.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


def _gram_calls(monkeypatch):
    calls, gram = [], quadrature.gram
    monkeypatch.setattr(quadrature, "gram", lambda f: calls.append(1) or gram(f))
    return calls


@pytest.mark.parametrize("fam", ["normal", "logistic", "weibull"])
def test_a_second_run_test_of_a_shape_free_row_does_no_sigma_quadrature(fam, monkeypatch):
    estimate._row.cache_clear()
    calls = _gram_calls(monkeypatch)
    x, y = (F.sample(fam, FAMILY_THETAS[fam], 200, s) for s in (5, 6))
    first = run_test(fam, "ml", None, x)
    assert len(calls) == 1
    second = run_test(fam, "ml", None, y)
    assert len(calls) == 1
    np.testing.assert_array_equal(second.sigma, first.sigma)


def test_a_second_replicate_block_whose_mask_knows_the_shapes_does_no_sigma_quadrature(
        monkeypatch):
    # 300 replications at n = 50: blocks of 256 and 44 rows
    mask = KnownMask.from_names("gamma", {"lambda": 2.3})
    sample = lambda rs: F._draws(F._quantile_of("gamma", (2.3, 1.4)), 50,  # noqa: E731
                                 [np.random.SeedSequence([82, r]) for r in rs])
    want = replicate("gamma", "ml", mask, 50, sample, range(300))
    estimate._row.cache_clear()
    calls = _gram_calls(monkeypatch)
    np.testing.assert_array_equal(replicate("gamma", "ml", mask, 50, sample, range(300)), want)
    assert len(calls) == 1


def test_sigma_is_handed_out_as_a_copy():
    x = F.sample("normal", (-0.2, 1.7), 100, 7)
    first = run_test("normal", "ml", None, x)
    want = first.sigma.copy()
    first.sigma[:] = 0.0
    np.testing.assert_array_equal(run_test("normal", "ml", None, x).sigma, want)
    point = scaling.sigma_from("normal", "ml", (0.0, 1.0))
    point[:] = 0.0
    rows = scaling.sigma_from("normal", "ml", np.array([[0.0, 1.0], [1.0, 2.0]]))
    rows[:] = 0.0
    np.testing.assert_array_equal(scaling.sigma_from("normal", "ml", (3.0, 4.0)), want)


def test_a_theta_whose_known_shape_differs_from_the_mask_gets_sigma_at_theta():
    mask = KnownMask.from_names("gamma", {"lambda": 2.3})
    at_mask = scaling.sigma_from("gamma", "ml", (2.3, 1.4), mask)
    want = scaling.sigma(scaling.matrices("gamma", "ml", (3.1, 1.0)), mask, "ml", "gamma")
    assert not np.array_equal(want, at_mask)
    np.testing.assert_array_equal(scaling.sigma_from("gamma", "ml", (3.1, 1.4), mask), want)
    rows = scaling.sigma_from("gamma", "ml", np.array([[3.1, 1.4], [3.1, 2.0]]), mask)
    np.testing.assert_array_equal(rows, [want, want])
    np.testing.assert_array_equal(scaling.sigma_from("gamma", "ml", (2.3, 5.0), mask), at_mask)
