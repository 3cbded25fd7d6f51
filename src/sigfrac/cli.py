"""Command-line front end.

Subcommands compute exact curves, approximations, simulations,
path-loss-process statistics, the arcsine-comparison report, and unit
conversions, serialized as CSV (header ``arg_unit,arg,value[,flag]``)
or JSON (schemas shipped in ``schemas/``).  Floats are emitted with 12
significant digits; any command taking ``--seed`` is reproducible
byte-for-byte, independent of ``SIGFRAC_THREADS``.

Exit codes: 0 success, 2 usage or domain error, 3 numeric failure; a
command that fails writes nothing to stdout and no file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import approx, montecarlo, plp, rayleigh, transforms
from .montecarlo import (AssociationRule, FadingModel, SimConfig,
                         SimulationError, empirical_ccdf)
from .rayleigh import NetworkParams
from .specfun import NumericError
from .transforms import AxisUnit

_CONJ_MOMENT_TOL = 3e-4          # 0.03 percent
_CONJ_KS_TOL = 1.0 / 3000.0
_CONJ_GATE_SAMPLES = 20_000_000


class UsageError(ValueError):
    pass


_APPROX_METHODS = (f"rational:s (s = 1..{approx._RATIONAL_MAX_ORDER}) | "
                   "poly:1 | poly:2 | tail:1 | tail:2 | best | gb-fit | "
                   "markov | nba-m:2")
_PLP_STATS = "gn:n | sfirat:i | loggap:i | sf1-bound | rba-curve | sstar"
_ASSOCS = "nba | isba | rba | kth:n"


def _fmt(x) -> str:
    """The one output rounding: 12 significant digits."""
    return f"{x:.12g}"


def _rounded(doc):
    """Round every float in doc, a JSON-able dict or list, to 12
    significant digits in place, tuples becoming lists, and return doc;
    a JSON value then reads back as float() of the CSV text."""
    for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(v, float):
            doc[k] = float(_fmt(v))
        elif isinstance(v, (dict, list, tuple)):
            doc[k] = _rounded(list(v) if isinstance(v, tuple) else v)
    return doc


def _dumps(doc) -> str:
    """The JSON serializer every document goes through, apart from the
    points curve_doc writes itself: floats rounded in place by
    _rounded, NaN and inf refused."""
    return json.dumps(_rounded(doc), indent=2, allow_nan=False) + "\n"


def _finite(flag: str, x: float) -> float:
    if not math.isfinite(x):
        raise UsageError(f"{flag} must be finite, got {x}")
    return x


def _number(flag: str, spec: str, text: str, convert):
    """convert(text), int or float, for text a part of spec, the value
    given for flag: the one place user text becomes a number, so a bad
    one is a UsageError that names the flag and the whole spec."""
    try:
        return convert(text)
    except ValueError:
        raise UsageError(f"{flag} {spec!r}: {text!r} is not a valid "
                         f"{convert.__name__}") from None


def parse_params(args) -> NetworkParams:
    """NetworkParams from args.alpha or args.delta, of which argparse
    lets exactly one through; the constructors check the range."""
    if args.alpha is None:
        return NetworkParams.from_delta(args.delta)
    return NetworkParams.from_alpha(args.alpha)


def parse_grid(spec: str) -> np.ndarray:
    """Grid syntax: 'min:max:count' (inclusive endpoints) or 'a,b,c,...'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be min:max:count, got {spec!r}")
        lo, hi = (_finite("--grid", _number("--grid", spec, x, float))
                  for x in parts[:2])
        n = _number("--grid", spec, parts[2], int)
        if n < 2:
            raise UsageError(f"grid needs at least 2 points, got {n}")
        if not lo < hi:
            raise UsageError(f"grid needs min < max, got {spec!r}")
        return np.linspace(lo, hi, n)
    vals = np.array([_finite("--grid", _number("--grid", spec, v, float))
                     for v in spec.split(",")])
    if vals.size < 1 or np.any(np.diff(vals) <= 0):
        raise UsageError("explicit grid values must be strictly increasing")
    return vals


def _sf_grid(spec: str) -> np.ndarray:
    """A grid on the signal-fraction axis, which must lie within [0, 1]."""
    grid = parse_grid(spec)
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise UsageError("SF grids must lie within [0, 1]")
    return grid


def _write(path, text: str, sides=None):
    """Write text to stdout for path '-', else to the file at path, and
    each name -> text of sides to '<path>.<name>.json', or to stderr
    when path is '-'.  Files are created or truncated only here, once
    every text is whole, and all are opened before any is truncated: a
    file that cannot be opened is a UsageError that removes the files
    this call created, and an existing file keeps its contents."""
    sides = sides or {}
    if path == "-":
        sys.stdout.write(text)
        for side in sides.values():
            sys.stderr.write(side)
        return
    targets = {path: text} | {f"{path}.{name}.json": side
                              for name, side in sides.items()}
    with contextlib.ExitStack() as stack:
        files, created = [], []
        for target in targets:
            try:
                try:
                    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                 0o666)
                    created.append(target)
                except FileExistsError:
                    fd = os.open(target, os.O_WRONLY)
            except OSError as exc:
                stack.close()
                for name in created:
                    os.remove(name)
                raise UsageError(
                    f"cannot write {target}: {exc.strerror}") from exc
            files.append(stack.enter_context(
                open(fd, "w", encoding="utf-8", newline="\n")))
        for fh, (target, out) in zip(files, targets.items()):
            if os.path.isfile(target):   # as O_TRUNC: not a pipe or device
                fh.truncate()
            fh.write(out)


_POINT = '    {\n      "arg": %s,\n      "value": %s\n    }'


def curve_doc(variable, kind, unit, pts, values, flags=None, **extra) -> str:
    """The JSON text of a curve: _dumps of the document whose "points"
    list holds {"arg", "value"} per point, plus "flag" where flags has a
    non-empty string.  The points, most of the text, are written
    directly at their fixed indentation and spliced into the _dumps
    text of the rest; pts must not be empty."""
    xy = np.column_stack((pts, values)).ravel()   # in document order
    bad = xy[~np.isfinite(xy)]
    if bad.size:
        raise ValueError("Out of range float values are not JSON "
                         f"compliant: {float(bad[0])!r}")
    # json.dumps writes a float as its repr, here of _fmt's rounding
    nums = list(map(repr, map(float, (
        "%.12g " * xy.size % tuple(xy.tolist())).split())))
    for i, f in enumerate(flags or ()):
        if f:
            nums[2 * i + 1] += f',\n      "flag": {json.dumps(f)}'
    points = ",\n".join([_POINT] * len(pts)) % tuple(nums)
    # the keys before "points" hold strings, which escape every quote,
    # so the first '"points": []' of the text is its own
    return _dumps({"schema": "curve", "variable": variable, "kind": kind,
                   "arg_unit": unit, "points": [], **extra}).replace(
        '"points": []', f'"points": [\n{points}\n  ]', 1)


def emit_curve(args, variable, kind, pts, values, flags=None, sidecars=None):
    """Write the curve values at the grid points pts, two arrays, as CSV
    or JSON; flags, when given, holds one string per point.

    sidecars is a dict name -> json-able payload; in JSON format they
    are embedded, in CSV format they go to '<out>.<name>.json' (or to
    stderr when writing CSV to stdout).  Every text is built before the
    first is written, so a curve with no point left in its domain (a
    usage error) or a value JSON cannot hold writes nothing.
    """
    if len(pts) == 0:
        raise UsageError("no --grid point lies in the curve's domain")
    unit = getattr(args, "unit", "linear")
    sidecars = sidecars or {}
    if args.format == "json":
        _write(args.out, curve_doc(variable, kind, unit, pts, values, flags,
                                   **sidecars))
        return
    sides = {name: _dumps(payload) for name, payload in sidecars.items()}
    tails = [""] * len(pts) if flags is None else [f",{f}" for f in flags]
    _write(args.out, "".join(
        ["arg_unit,arg,value" + ("" if flags is None else ",flag") + "\n"]
        + [f"{unit},{_fmt(arg)},{_fmt(val)}{tail}\n"
           for arg, val, tail in zip(pts.tolist(), values.tolist(), tails)]),
        sides)


def emit_json(args, doc):
    _write(args.out, _dumps(doc))


def cmd_exact(args):
    params = parse_params(args)
    if args.var == "SF":
        if args.unit != "linear":
            raise UsageError("SF curves use the linear unit (t in [0, 1])")
        grid = _sf_grid(args.grid)
        values = rayleigh.sf_ccdf_exact(params, grid)
    else:
        grid = parse_grid(args.grid)
        theta = transforms.TO_LINEAR[AxisUnit(args.unit)](grid)
        values = rayleigh.sir_ccdf_exact(params, theta)
    emit_curve(args, args.var, "ccdf", grid, values)
    return 0


def _parse_spec(flag: str, spec: str, convert, bare=()):
    """spec 'name[:arg]', the value given for flag, as (name, number),
    number being convert(arg) (see _number), or None when spec has no
    colon; a name in bare takes no colon, and 'name:' is a bad number."""
    name, colon, arg = spec.partition(":")
    if not colon:
        return name, None
    if name in bare:
        raise UsageError(f"{name!r} takes no parameter, got {spec!r}")
    return name, _number(flag, spec, arg, convert)


def cmd_approx(args):
    params = parse_params(args)
    grid = _sf_grid(args.grid)
    name, n = _parse_spec("--method", args.method, int,
                          ("best", "markov", "gb-fit"))
    n = {"poly": 1}.get(name, 2) if n is None else n
    pts, sidecars = grid, None
    if name == "rational":
        pts = grid[grid < 1.0]
        values = approx.rational_ccdf(params, n, pts)
    elif name == "poly":
        values = approx.poly_ccdf(params, n, grid)
    elif name == "tail":
        pts = grid[grid > 0.0]
        values = approx.tail_ccdf(params, n, pts)
    elif name == "best":
        values = approx.best_sf_ccdf(params, grid)
    elif name == "markov":
        pts = grid[grid < 1.0 - params.delta]
        values = approx.markov_lower_bound(params, pts)
    elif name == "nba-m":
        values = approx.nba_m_cdf_asymptote(params, n, grid)
    elif name == "gb-fit":
        fit = approx.gb_fit(params)
        gbp = fit.params
        values = 1.0 - approx.gb_cdf(gbp, grid)
        sidecars = {"fit": {
            "schema": "fit", "alpha": params.alpha, "delta": params.delta,
            "a": gbp.a, "b": gbp.b, "p": gbp.p, "q": gbp.q,
            "target_moments": fit.target_moments,
            "achieved_moments": fit.achieved_moments,
            "residual": fit.residual,
        }}
    else:
        raise UsageError(
            f"unknown method {args.method!r}; available: {_APPROX_METHODS}")
    emit_curve(args, "SF", "ccdf", pts, values, sidecars=sidecars)
    return 0


def cmd_simulate(args):
    # 'none' is the m = inf limit of 'nakagami:m', and FadingModel checks m
    fading, m = _parse_spec("--fading", args.fading, float, ("none",))
    if fading != ("none" if m is None else "nakagami"):
        raise UsageError(
            f"--fading must be none | nakagami:m, got {args.fading!r}")
    bare = ("nba", "isba", "rba")
    name, k = _parse_spec("--assoc", args.assoc, int, bare)
    if name not in bare and (name != "kth" or k is None):
        raise UsageError(f"--assoc {args.assoc!r}: must be {_ASSOCS}")
    config = SimConfig(params=parse_params(args),
                       fading=FadingModel(math.inf if m is None else m),
                       assoc=(getattr(AssociationRule, name)() if k is None
                              else AssociationRule.kth_strongest(k)),
                       samples=args.samples,
                       point_budget=args.point_budget,
                       tail_eps=args.tail_eps,
                       seed=args.seed)
    grid = _sf_grid(args.grid)
    res = montecarlo.sample_sf(config)
    x = res.dist.samples
    summary = {
        "schema": "summary",
        "mean": float(x.mean()),
        "variance": float(x.var()),
        "count": int(x.size),
        **res.counters(),
        "tail_eps": config.tail_eps,
        "seed": int(args.seed),
    }
    emit_curve(args, "SF", "ccdf", grid, empirical_ccdf(res.dist, grid),
               sidecars={"summary": summary})
    return 0


def cmd_plp(args):
    params = parse_params(args)
    name, i = _parse_spec("--stat", args.stat, int,
                          ("sf1-bound", "sstar", "rba-curve"))
    i = 1 if i is None else i
    if name in ("gn", "rba-curve"):
        grid = parse_grid(args.grid)
        pts = grid[(grid > 0.0) & (grid < 1.0)]
        if name == "rba-curve":
            curve = plp.rba_pdf if args.kind == "pdf" else plp.rba_cdf
            emit_curve(args, "SF", args.kind, pts, curve(params, pts))
            return 0
        exact = plp.g_n_is_exact(pts)
        flags = None if exact.all() else np.where(exact, "", "ub-only").tolist()
        emit_curve(args, "SF", "ccdf" if flags is None else "bound", pts,
                   plp.g_n(params, i, pts), flags=flags)
        return 0
    if name in ("sfirat", "loggap"):
        stat = f"{name}:{i}"
        value = (plp.mean_sf_ratio if name == "sfirat" else plp.log_sf_gap)(
            params, i)
    elif name == "sf1-bound":
        stat, value = name, plp.mean_sf1_upper_bound(params)
    elif name == "sstar":
        stat, value = name, plp.flatness_rate(params)
    else:
        raise UsageError(
            f"unknown stat {args.stat!r}; available: {_PLP_STATS}")
    emit_json(args, {"stat": stat, "delta": params.delta, "value": value})
    return 0


def cmd_conjecture(args):
    if args.samples < 10_000:
        raise UsageError(f"conjecture report needs >= 10000 samples, got {args.samples}")
    doc = {"schema": "conjecture",
           **montecarlo.conjecture_report(args.samples, args.seed,
                                          point_budget=args.point_budget,
                                          tail_eps=args.tail_eps),
           "moment_threshold": _CONJ_MOMENT_TOL, "ks_threshold": _CONJ_KS_TOL}
    if args.samples >= _CONJ_GATE_SAMPLES:
        doc["thresholds_evaluated"] = True
        doc["moments_pass"] = bool(
            max(m["rel_diff"] for m in doc["moments"]) < _CONJ_MOMENT_TOL)
        doc["ks_pass"] = bool(doc["ks_distance"] < _CONJ_KS_TOL)
    else:
        doc["thresholds_evaluated"] = False
        doc["note"] = "not evaluated (insufficient samples)"
    emit_json(args, doc)
    return 0


def cmd_convert(args):
    lin = transforms.TO_LINEAR[AxisUnit(args.src)](_finite("--value", args.value))
    out = transforms.FROM_LINEAR[AxisUnit(args.dst)](lin)
    emit_json(args, {"value": args.value, "from": args.src, "to": args.dst,
                     "result": out})
    return 0


def _add_common(p, grid_default=None, unit=False):
    exp = p.add_mutually_exclusive_group(required=True)
    exp.add_argument("--alpha", type=float, help="path loss exponent (> 2)")
    exp.add_argument("--delta", type=float,
                     help="2/alpha, in (0, 1); give either this or --alpha")
    if grid_default is not None:
        p.add_argument("--grid", default=grid_default,
                       help="output grid, min:max:count or comma list")
    if unit:
        p.add_argument("--unit", choices=[u.value for u in AxisUnit],
                       default="linear", help="argument axis unit")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")


def _add_engine(p):
    """The Monte Carlo run flags, defaulting as SimConfig does."""
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--point-budget", type=int, default=SimConfig.point_budget)
    p.add_argument("--tail-eps", type=float, default=SimConfig.tail_eps,
                   help="truncation tolerance in (0, 1): a realization stops "
                        "once the un-generated tail's fourth cumulant is at "
                        "most tail_eps^2 * total^4, and the tail is added as "
                        "a translated-gamma draw matching its first three "
                        "cumulants; default 1e-3")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call of main; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="sigfrac",
        description="Signal-fraction and SIR distributions for Poisson "
                    "cellular networks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact ccdf under Rayleigh fading")
    _add_common(p, grid_default="0:1:101", unit=True)
    p.add_argument("--var", choices=["SF", "SIR"], default="SF")

    p = sub.add_parser("approx", help="closed-form approximations and bounds")
    _add_common(p, grid_default="0:1:101")
    p.add_argument("--method", required=True, help=_APPROX_METHODS)

    p = sub.add_parser("simulate", help="Monte Carlo signal fractions")
    _add_common(p, grid_default="0:1:101")
    p.add_argument("--fading", default="none", help="none | nakagami:m")
    p.add_argument("--assoc", default="nba", help=_ASSOCS)
    _add_engine(p)

    p = sub.add_parser("plp", help="no-fading path-loss-process statistics")
    _add_common(p, grid_default="0.01:0.99:99")
    p.add_argument("--stat", required=True, help=_PLP_STATS)
    p.add_argument("--kind", choices=["cdf", "pdf"], default="cdf",
                   help="curve kind for rba-curve")

    p = sub.add_parser("conjecture",
                       help="arcsine comparison for Nakagami-1/2, alpha = 4")
    _add_engine(p)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--out", default="-")

    p = sub.add_parser("convert", help="convert between linear, dB, and MH units")
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--from", dest="src", choices=[u.value for u in AxisUnit],
                   required=True)
    p.add_argument("--to", dest="dst", choices=[u.value for u in AxisUnit],
                   required=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--out", default="-")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # grids like "-20:20:81" read as options to argparse; fold them in
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--grid":
            argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
        i += 1
    args = build_parser().parse_args(argv)
    try:
        # looked up per call: the parser is shared, cmd_* may be rebound
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:   # UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, SimulationError, approx.FitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
