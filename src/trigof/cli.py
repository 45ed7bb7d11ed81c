"""Command-line interface.

Subcommands: ``test`` (test a data file against a null family),
``matrices`` (dump G/R/J and the scaling covariance as JSON; every entry is
an expectation over the PIT u summed by the tanh-sinh rule of
``quadrature``, with R = C^T B^-1 C and J = K B^-1 C for the row's
estimating function psi, see ``scaling``), ``power`` (asymptotic power
curves of an embedding in ``power.EMBEDDINGS``, whose cases, default grids
and drift dimensions it reads, with optional finite-n validation),
``ellipse`` (confidence-ellipse boundary points as CSV) and ``study`` (run a
declarative Monte-Carlo study).

Exit codes: 0 success, 2 data or numeric failure, 64 usage error (an
unknown option, family or parameter, or an option value out of its range).  The
environment variable TRIGOF_SEED supplies the default seed of ``test --mc-reps``
and ``power --empirical``, and is read only there.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import families, gof, power, scaling, simharness
from .errors import TrigofError
from .estimate import EstimatorKind, KnownMask

USAGE_EXIT = 64
DATA_EXIT = 2


class _UsageError(Exception):
    pass


def _resolve_family(name, theta_text=None):
    """The family and the theta of ``theta_text`` (comma-separated; None
    without it).  An unknown family, or a theta of the wrong arity, that is
    not a number or that is outside the family's space, is a usage error,
    not a data error."""
    try:
        fam = families.get_family(name)
    except TrigofError as exc:
        raise _UsageError(str(exc))
    if theta_text is None:
        return fam, None
    try:
        theta = [float(v) for v in theta_text.split(",") if v.strip()]
        families._theta(fam, theta)
    except TrigofError as exc:
        raise _UsageError(f"--theta: {exc}")
    except ValueError:
        raise _UsageError(f"--theta expects numbers, got {theta_text!r}")
    return fam, theta


def _ranged(convert, ok, expects):
    """An argparse ``type=``: the option value as ``convert`` reads it, where ``ok`` holds."""
    def parse(text):
        try:
            if ok(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}")
    return parse


_fraction = _ranged(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_count = _ranged(int, lambda v: v >= 0, "an integer >= 0")


def _default_seed() -> int:
    text = os.environ.get("TRIGOF_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"TRIGOF_SEED must be an integer, got {text!r}")


def _fmt(value, digits):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    return value


def _round_obj(obj, digits):
    if isinstance(obj, float):
        return _fmt(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_obj(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_obj(v, digits) for v in obj]
    return obj


def read_data(path) -> np.ndarray:
    """One numeric value per line; '#' starts a comment; no header; a UTF-8
    byte-order mark is dropped.  A value that is not a finite number is an
    error that names its line.  A file without '#' is parsed in one pass, its
    lines read by ``np.array`` (which parses each as ``float`` does); one
    that pass refuses, and a file with comments, goes through ``_read_lines``."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if "#" not in text:
        try:
            values = np.array(text.removesuffix("\n").split("\n"), dtype=float)
        except ValueError:  # a blank line or a bad value
            pass
        else:
            if np.isfinite(values).all():
                return values
    return _read_lines(path, text)


def _read_lines(path, text) -> np.ndarray:
    """``read_data`` line by line: blank lines and comments skipped, and an
    error that names the first line whose value is not a finite number."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            value = float(body)
        except ValueError:
            raise TrigofError(f"{path}:{lineno}: not a number: {body!r}")
        if not math.isfinite(value):
            raise TrigofError(f"{path}:{lineno}: not a finite number: {body!r}")
        values.append(value)
    if not values:
        raise TrigofError(f"{path}: no data values found")
    return np.asarray(values)


def _parse_known(fam, pairs):
    """The --known bindings and their mask (None without any); a malformed
    pair, a name the family does not have or a value outside its space is a
    usage error."""
    out = {}
    for chunk in pairs or []:
        name, _, value = chunk.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise _UsageError(f"--known expects name=value, got {chunk!r}")
    try:
        return out, KnownMask.from_names(fam, out) if out else None
    except TrigofError as exc:
        raise _UsageError(str(exc))


def _parse_grid(text, option):
    """'lo:hi:step' or a comma list, of one value at least."""
    try:
        if ":" in text:
            lo, hi, step = (float(v) for v in text.split(":"))
            grid = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
        else:
            grid = [float(v) for v in text.split(",") if v.strip()]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _UsageError(f"{option} expects 'lo:hi:step' or a comma list, got {text!r}")
    if not grid:
        raise _UsageError(f"{option} {text!r} holds no grid point")
    return grid


def _emit(text, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    fam, _ = _resolve_family(args.family)
    bindings, mask = _parse_known(fam, args.known)
    x = read_data(args.data)
    mc = {"reps": args.mc_reps, "seed": args.seed} if args.mc_reps else None
    res = gof.run_test(fam, args.estimator, mask, x, mc=mc)
    payload = {
        "family": res.family,
        "estimator": res.kind,
        "n": res.moments.n,
        "param_names": list(fam.param_names),
        "theta": [float(v) for v in res.fit.theta],
        "known": bindings,
        "n_estimated": fam.n_params - len(bindings),
        "converged": res.fit.converged,
        "iterations": res.fit.iterations,
        "residual": res.fit.residual,
        "c_n": res.moments.cn,
        "s_n": res.moments.sn,
        "sigma": [[float(v) for v in row] for row in res.sigma],
        "t_n": res.tn,
        "p_chi2": res.p_chi2,
        "z_c": res.zc,
        "z_s": res.zs,
        "alpha": args.alpha,
        "rejected": bool(res.p_chi2 < args.alpha),
    }
    if res.p_mc is not None:
        payload.update({"p_mc": res.p_mc, "mc_reps": res.mc_reps,
                        "mc_exceed": res.mc_exceed, "mc_failed": res.mc_failed})
    _emit(json.dumps(_round_obj(payload, args.digits), indent=2), args.output)
    return 0


def _matrix_payload(fam, kind, theta, bindings, digits):
    """The ``matrices`` dump: G, R and J at theta, and Sigma from ``scaling.sigma_from``."""
    ms = scaling.matrices(fam, kind, theta)
    mask = KnownMask.from_names(fam, bindings) if bindings else None
    sig = scaling.sigma_from(fam, kind, theta, mask)
    return {
        "family": families.get_family(fam).name,
        "estimator": EstimatorKind(kind).value,
        "theta": [float(v) for v in theta],
        "known": bindings,
        "matrix_params": list(ms.param_names),
        "G": _round_obj(ms.G.tolist(), digits),
        "R": _round_obj(ms.R.tolist(), digits),
        "J": _round_obj(ms.J.tolist(), digits),
        "sigma": _round_obj(sig.tolist(), digits),
    }


def cmd_matrices(args) -> int:
    if args.verify:
        with open(args.verify) as fh:
            stored = json.load(fh)
        keys = ("family", "estimator", "theta", "known")
        if not (isinstance(stored, dict) and all(k in stored for k in keys)):
            raise ValueError(f"{args.verify} is not a matrices dump: it needs {', '.join(keys)}")
        payload = _matrix_payload(*(stored[k] for k in keys), args.digits)
        same = payload == stored
        _emit(json.dumps({"sigma": payload["sigma"], "matches_stored": same}, indent=2),
              args.output)
        return 0 if same else DATA_EXIT
    if not args.family or not args.theta:
        raise _UsageError("matrices needs --family and --theta")
    fam, theta = _resolve_family(args.family, args.theta)
    bindings = _parse_known(fam, args.known)[0]
    payload = _matrix_payload(fam, args.estimator, theta, bindings, args.digits)
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_power(args) -> int:
    emb = power.EMBEDDINGS[args.case]
    kind = EstimatorKind(args.estimator)
    if args.empirical:
        try:
            n, reps = (int(v) for v in args.empirical.split(","))
            if n < 1 or reps < 1:
                raise ValueError
        except ValueError:
            raise _UsageError(f"--empirical expects N,REPS, two positive integers, "
                              f"got {args.empirical!r}")
    theta0 = power.at_shapes(args.case, [args.lambda0] * len(emb.theta0))  # shapes at lambda0
    if args.delta2 is not None:
        if emb.dim != 2:
            raise _UsageError(f"--delta2 needs a two-dimensional drift; {args.case} has one")
        grid = [(0.0, d) for d in _parse_grid(args.delta2, "--delta2")]
    else:
        grid = [(d,) + (0.0,) * (emb.dim - 1)
                for d in _parse_grid(args.delta or emb.grid, "--delta")]
    names = ["delta"] if emb.dim == 1 else [f"delta{i + 1}" for i in range(emb.dim)]
    rows = []
    for pt in power.power_curve(args.case, theta0, grid, args.alpha, kind):
        row = {**dict(zip(names, pt.delta)), "ncp": pt.ncp, "power": pt.power}
        if args.empirical:
            alt = power.LocalAlternative(args.case, theta0, pt.delta, kind, args.alpha)
            emp = power.empirical_power(alt, n, reps, args.seed)
            row.update({"empirical": emp["rate"], "asymptotic": pt.power,
                        "failed": emp["failed"]})
        rows.append(row)
    out = []
    fields = list(rows[0])
    out.append(",".join(fields))
    for row in rows:
        out.append(",".join(f"{_fmt(row[k], args.digits)}" for k in fields))
    _emit("\n".join(out), args.output)
    return 0


def cmd_ellipse(args) -> int:
    fam, theta = _resolve_family(args.family, args.theta or None)
    mask = _parse_known(fam, args.known)[1]
    if not (args.theta or args.input):
        raise _UsageError("ellipse needs --theta or --input")
    point = None
    if args.input:
        x = read_data(args.input)
        res = gof.run_test(fam, args.estimator, mask, x)
        sig = res.sigma
        point = (math.sqrt(res.moments.n) * res.moments.cn,
                 math.sqrt(res.moments.n) * res.moments.sn)
    else:
        sig = scaling.sigma_from(fam, args.estimator, theta, mask)
    geom = gof.ellipse(sig, args.level)
    lines = ["kind,x,y"]
    d = args.digits
    for bx, by in geom.boundary:
        lines.append(f"boundary,{_fmt(float(bx), d)},{_fmt(float(by), d)}")
    for s in (1.0, -1.0):
        lines.append(f"x_threshold,{_fmt(s * geom.x_threshold, d)},")
        lines.append(f"y_threshold,,{_fmt(s * geom.y_threshold, d)}")
    if point is not None:
        lines.append(f"observed,{_fmt(point[0], d)},{_fmt(point[1], d)}")
    _emit("\n".join(lines), args.output)
    return 0


def cmd_study(args) -> int:
    cfg = simharness.load_config(args.config)
    if args.seed is not None:
        cfg = simharness.StudyConfig(cfg.cells, cfg.reps, cfg.alpha, args.seed,
                                     cfg.workers)
    report = simharness.run_study(cfg)
    prefix = args.output_prefix or "study"
    simharness.write_report(report, csv_path=prefix + ".csv",
                            json_path=prefix + ".json")
    for cell in report.cells:
        status = "ok" if cell.ok else "FLAGGED"
        print(f"{cell.name}: rate={cell.rate:.4f} se={cell.se:.4f} "
              f"failed={cell.failed} [{status}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigof",
        description="Omnibus goodness-of-fit tests from trigonometric moments "
                    "of probability-integral-transformed data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--digits", type=_count, default=17,
                       help="significant digits in numeric output (default 17)")
        p.add_argument("--output", help="write output to this file instead of stdout")

    def add_seed(p):
        p.add_argument("--seed", type=int,
                       help="RNG seed (default: TRIGOF_SEED or 0)")

    p = sub.add_parser("test", help="test a data file against a null family")
    p.add_argument("data", help="text file, one numeric value per line ('#' comments)")
    p.add_argument("--family", required=True)
    p.add_argument("--estimator", choices=["ml", "mm"], default="ml")
    p.add_argument("--known", action="append", metavar="NAME=VALUE",
                   help="fix a parameter at a known value (repeatable)")
    p.add_argument("--alpha", type=_fraction, default=0.05)
    p.add_argument("--mc-reps", type=_count, default=0,
                   help="bootstrap replications for the Monte-Carlo p-value "
                        "(0 = asymptotic only; 10000 is a desk-scale choice)")
    add_common(p)
    add_seed(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("matrices", help="dump G/R/J and the scaling covariance")
    p.add_argument("--family")
    p.add_argument("--theta", help="comma-separated parameter values")
    p.add_argument("--estimator", choices=["ml", "mm"], default="ml")
    p.add_argument("--known", action="append", metavar="NAME=VALUE")
    p.add_argument("--verify", metavar="JSON",
                   help="recompute a matrices JSON dump from its family, estimator, "
                        "theta and known values at --digits, and compare every field")
    add_common(p)
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("power", help="asymptotic power under local alternatives")
    p.add_argument("--case", choices=list(power.EMBEDDINGS), required=True)
    shaped = [k for k, e in power.EMBEDDINGS.items() if families.get_family(e.null).shapes]
    p.add_argument("--lambda0", type=float, default=1.0,
                   help=f"null shape ({' and '.join(shaped)} cases)")
    p.add_argument("--estimator", choices=["ml", "mm"], default="ml")
    p.add_argument("--delta", help="drift grid 'lo:hi:step' or comma list")
    p.add_argument("--delta2", help="a two-dimensional drift: grid over its second "
                                    "coordinate with the first fixed at 0")
    p.add_argument("--alpha", type=_fraction, default=0.05)
    p.add_argument("--empirical", metavar="N,REPS",
                   help="append finite-n empirical power at each grid point")
    add_common(p)
    add_seed(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("ellipse", help="confidence-ellipse boundary as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", help="parameters at which to evaluate the covariance")
    p.add_argument("--input", help="data file: fit first, also emit the observed point")
    p.add_argument("--estimator", choices=["ml", "mm"], default="ml")
    p.add_argument("--known", action="append", metavar="NAME=VALUE")
    p.add_argument("--level", type=_fraction, default=0.95)
    add_common(p)
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("study", help="run a declarative Monte-Carlo study")
    p.add_argument("--config", required=True, help="INI study configuration")
    p.add_argument("--output-prefix", help="prefix for the CSV/JSON report files")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_study)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        # a seed is read only where one is drawn from; a study keeps its config's seed
        draws = (args.command == "test" and args.mc_reps
                 or args.command == "power" and args.empirical)
        if draws and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (TrigofError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
