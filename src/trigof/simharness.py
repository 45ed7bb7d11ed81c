"""Seeded Monte-Carlo studies: null-level calibration and power snapshots.

A study is a list of cells, each naming a null family/estimator/mask, a
sample size and (for power snapshots) the family actually generating the
data.  Every replication draws its own generator from the key
(seed, cell index, replication index), so results are bit-identical across
reruns.  A cell's replications run through ``gof.replicate``, in one call
or, with ``workers > 1``, in runs of at least 256 spread over a pool of at
most one process per run; either way ``gof.replicate`` draws each of its
blocks of samples with one call of ``_draw``.  In a single process a block's
draws, PIT and Sigma rows run on one thread per core (``families._in_parts``);
the pool's forked workers run theirs serially, so ``workers`` processes keep
``workers`` cores busy.  The report has the same bits either way.  A failed
replication counts toward ``failed``, and a cell with more than 1% failures,
or whose run raised, is not ``ok`` (one whose run raised has no rate:
``rate`` and ``se`` are NaN).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import families
from .errors import DomainError, TrigofError
from .estimate import KnownMask, check_size, row
from .gof import rejection_rate, replicate

__all__ = ["CellConfig", "StudyConfig", "CellReport", "StudyReport",
           "run_study", "load_config",
           "report_rows", "write_report"]


@dataclass(frozen=True)
class CellConfig:
    name: str
    family: str
    kind: str = "ml"
    theta: tuple = ()
    n: int = 100
    known: tuple = ()            # ((param, value), ...)
    data_family: Optional[str] = None
    data_theta: tuple = ()

    def mask(self) -> Optional[KnownMask]:
        if not self.known:
            return None
        return KnownMask.from_names(self.family, dict(self.known))

    @property
    def is_alternative(self) -> bool:
        return self.data_family is not None


@dataclass(frozen=True)
class StudyConfig:
    cells: tuple[CellConfig, ...]
    reps: int = 1000
    alpha: float = 0.05
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.reps < 100:
            raise DomainError("a study needs reps >= 100")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class CellReport:
    name: str
    family: str
    kind: str
    n: int
    reps: int
    rejections: int
    failed: int
    rate: float
    se: float
    ok: bool
    wall_time: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class StudyReport:
    cells: tuple[CellReport, ...]
    reps: int
    alpha: float
    seed: int


def _draw(cell: CellConfig, seed: int, cell_index: int, reps) -> np.ndarray:
    """The (len(reps), n) block of the cell's samples of replications ``reps``."""
    fam = cell.data_family if cell.is_alternative else cell.family
    theta = cell.data_theta if cell.is_alternative else cell.theta
    return families._draws(families._quantile_of(fam, theta), cell.n,
                           [np.random.SeedSequence([seed, cell_index, r]) for r in reps])


def _run_cell(cell: CellConfig, cfg: StudyConfig, cell_index: int) -> CellReport:
    t0 = time.perf_counter()
    q = -2.0 * math.log(cfg.alpha)
    # picklable, so that a process pool can run blocks of replications
    run = partial(replicate, cell.family, cell.kind, cell.mask(), cell.n,
                  partial(_draw, cell, cfg.seed, cell_index))
    rejections = failed = 0
    ok = True
    try:
        blocks = [range(lo, hi) for lo, hi in _split(cfg.reps, cfg.workers)]
        if len(blocks) > 1:
            with ProcessPoolExecutor(max_workers=min(cfg.workers, len(blocks))) as pool:
                tn = np.concatenate(list(pool.map(run, blocks)))
        else:
            tn = run(blocks[0])
        failed = int(np.count_nonzero(np.isnan(tn)))
        rejections = int(np.count_nonzero(tn > q))
        done = cfg.reps - failed
    except TrigofError:  # no rate to report: NaN, not "never rejects"
        ok = False
        done = 0
    rate, se = rejection_rate(rejections, done)
    if failed > 0.01 * cfg.reps:
        ok = False
    return CellReport(cell.name, cell.family, cell.kind, cell.n, cfg.reps,
                      rejections, failed, rate, se, ok,
                      time.perf_counter() - t0)


def _split(reps: int, workers: int) -> list[tuple[int, int]]:
    if workers <= 1:
        return [(0, reps)]
    size = max(256, math.ceil(reps / (4 * workers)))
    return [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def run_study(cfg: StudyConfig) -> StudyReport:
    reports = tuple(_run_cell(cell, cfg, i) for i, cell in enumerate(cfg.cells))
    return StudyReport(reports, cfg.reps, cfg.alpha, cfg.seed)


# ---------------------------------------------------------------------------
# declarative config files (INI sections: [study], [cell:<name>])
# ---------------------------------------------------------------------------

def _parse_theta(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(" ", "").split(",") if v)


def _parse_known(text: str) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        out.append((name.strip(), float(value)))
    return tuple(out)


def _checked(cell: CellConfig) -> CellConfig:
    """A cell read from a file, checked before it runs: its row
    (``estimate.row``, and the names in ``known``), the arity and parameter
    space of theta (which an alternative cell may leave out) and data_theta,
    that the row has an estimator (``Row.estimator``) and that n exceeds the
    number of free parameters (``estimate.check_size``)."""
    r = row(cell.family, cell.kind, cell.mask())
    if cell.theta or not cell.is_alternative:
        families._theta(r.fam, cell.theta)
    r.estimator  # refuses an MM row whose required shapes are free or give no constant
    if cell.is_alternative:
        families._theta(families.get_family(cell.data_family), cell.data_theta)
    check_size(r, cell.n)
    return cell


def _in_section(section: str, build):
    """build(), any refusal it raises prefixed with the section: a TrigofError
    keeps its type, and a malformed number (ValueError) is a DomainError."""
    try:
        return build()
    except (TrigofError, ValueError) as exc:
        cause = type(exc) if isinstance(exc, TrigofError) else DomainError
        raise cause(f"section [{section}]: {exc}") from None


def load_config(path) -> StudyConfig:
    """The study an INI file declares.  A cell that ``_checked`` refuses, or a
    malformed number in any section, raises its cause's own error (DomainError
    for the number), its text prefixed with the section."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DomainError(f"could not read study config {path!r}")
    study = parser["study"] if parser.has_section("study") else {}
    cells = []
    for section in parser.sections():
        if not section.startswith("cell:"):
            continue
        raw = parser[section]
        if "family" not in raw:
            raise DomainError(f"section [{section}] needs a family")
        cells.append(_in_section(section, lambda: _checked(CellConfig(
            name=section.split(":", 1)[1],
            family=raw["family"].strip(),
            kind=raw.get("estimator", "ml").strip().lower(),
            theta=_parse_theta(raw.get("theta", "")),
            n=int(raw.get("n", 100)),
            known=_parse_known(raw.get("known", "")),
            data_family=(raw.get("data_family") or None),
            data_theta=_parse_theta(raw.get("data_theta", "")),
        ))))
    if not cells:
        raise DomainError("study config defines no cells")
    return _in_section("study", lambda: StudyConfig(
        cells=tuple(cells),
        reps=int(study.get("reps", 1000)),
        alpha=float(study.get("alpha", 0.05)),
        seed=int(study.get("seed", 0)),
        workers=int(study.get("workers", 1)),
    ))


def report_rows(report: StudyReport) -> list[dict]:
    return [asdict(cell) for cell in report.cells]


def write_report(report: StudyReport, csv_path=None, json_path=None) -> None:
    rows = report_rows(report)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    if json_path:
        summary = {
            "reps": report.reps,
            "alpha": report.alpha,
            "seed": report.seed,
            "cells": rows,
        }
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2)
