"""Command-line front end.

Subcommands:
  coeffs    expansion coefficients (rho, a, b, c, ln C) for given parameters
  kernel    one kernel value K(x, y)
  det       one gap determinant det(1 - K|[0,s])
  converge  the compensated-convergence experiment, written as CSV
  verify    built-in consistency checks (fast/full)

Flags override config-file values, which override defaults.  The config file
is a flat ``key = value`` text format whose keys mirror the long flag names.
Data goes to stdout or the ``--out`` file; progress and warnings go to
stderr, keeping the CSV machine-consumable.  Exit codes: 0 success,
1 verification failure, 2 usage or invariant error, 3 converge run with
fewer than half its rows usable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import compute_coeffs, truncated_log_expansion
from .errors import MeijerGapError
from .fredholm import gauss_legendre_grid, kappa_for_nu_min, log_gap_determinant
from .kernel import MeijerKernel, ProcessParams, build_contours, kernel_eval
from .verify import run_checks

_FMT = "{:.15g}"


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


def _parse_float_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """Apply config-file values for every flag the command line left unset.

    A key is the long flag name of some subcommand of ``parser``; the
    current subcommand's own action for that flag converts the value and
    checks its choices, exactly as on the command line.  Keys of other
    subcommands' flags are ignored.
    """
    if getattr(args, "config", None) is None:
        return args
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    own = {}
    known = set()
    for name, sub in commands.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag not in ("--help", "--config"):
                    known.add(flag[2:])
                    if name == args.command:
                        own[flag[2:]] = action
    for key, raw in _read_config(args.config).items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        action = own.get(key)
        if action is None or getattr(args, action.dest) is not None:
            continue
        value = action.type(raw) if action.type else raw
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ValueError(f"config value {key} = {raw!r} is not one of {choices}")
        setattr(args, action.dest, value)
    return args


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ValueError(f"missing required option --{name}")


def _params_from(args) -> ProcessParams:
    _require(args, ["r", "q", "nu"])
    return ProcessParams(args.r, args.q, args.nu, args.mu if args.mu is not None else ())


def _add_param_flags(sub):
    sub.add_argument("--r", type=int, default=None, help="number of nu parameters")
    sub.add_argument("--q", type=int, default=None, help="number of mu parameters")
    sub.add_argument("--nu", type=_parse_float_list, default=None, help="comma-separated nu values")
    sub.add_argument("--mu", type=_parse_float_list, default=None, help="comma-separated mu values")
    sub.add_argument("--config", default=None, help="flat key=value config file; flags take precedence")


def cmd_coeffs(args) -> int:
    params = _params_from(args)
    cc = compute_coeffs(params)
    fmt = args.format or "text"
    if fmt == "json":
        payload = {
            "r": params.r,
            "q": params.q,
            "nu": list(params.nu),
            "mu": list(params.mu),
            "rho": cc.rho,
            "a": cc.a,
            "b": cc.b,
            "c": cc.c,
            "lnC": cc.ln_c,
            "C": math.exp(cc.ln_c),
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, val in (("rho", cc.rho), ("a", cc.a), ("b", cc.b), ("c", cc.c), ("lnC", cc.ln_c), ("C", math.exp(cc.ln_c))):
            print(f"{name:>4} = {_fmt(val)}")
    return 0


def _emit_scalar(args, name: str, value: float) -> None:
    if (args.format or "text") == "json":
        print(json.dumps({name: value}))
    else:
        print(_fmt(value))


def cmd_kernel(args) -> int:
    params = _params_from(args)
    _require(args, ["x", "y"])
    x, y = float(args.x), float(args.y)
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    tol = args.tol if args.tol is not None else 1e-12
    cq = build_contours(params, (0.9 * min(x, y), 1.1 * max(x, y)), tol)
    _emit_scalar(args, "K", kernel_eval(x, y, cq))
    return 0


def _grid_and_handle(params: ProcessParams, s_lo: float, s_hi: float, m: int, tol: float):
    """The grading exponent kappa, the m-point graded grid on (0, s_lo), and a
    kernel handle whose x_range covers the nodes of every such grid on
    (0, s) for s_lo <= s <= s_hi."""
    kappa = kappa_for_nu_min(params.nu_min)
    grid = gauss_legendre_grid(s_lo, m, kappa=kappa)
    handle = MeijerKernel(params, (0.999 * float(grid.nodes[0]), s_hi), tol=tol)
    return kappa, grid, handle


def cmd_det(args) -> int:
    params = _params_from(args)
    _require(args, ["s"])
    s = float(args.s)
    m = args.nodes if args.nodes is not None else 80
    tol = args.tol if args.tol is not None else 1e-12
    _, grid, handle = _grid_and_handle(params, s, s, int(m), tol)
    _emit_scalar(args, "det", math.exp(log_gap_determinant(s, grid, handle)))
    return 0


def cmd_converge(args) -> int:
    params = _params_from(args)
    _require(args, ["s-min", "s-max", "out"])
    s_min, s_max = float(args.s_min), float(args.s_max)
    n_points = args.points if args.points is not None else 9
    m = args.nodes if args.nodes is not None else 100
    if not 0 < s_min < s_max:
        raise ValueError("requires 0 < s-min < s-max")
    if n_points < 2:
        raise ValueError("requires points >= 2")

    cc = compute_coeffs(params)
    svals = np.geomspace(s_min, s_max, int(n_points))
    kappa, _, handle = _grid_and_handle(params, s_min, s_max, int(m), 1e-12)

    rows = []
    n_ok = 0
    for s in svals:
        s = float(s)
        asym = truncated_log_expansion(s, cc)
        try:
            grid = gauss_legendre_grid(s, int(m), kappa=kappa)
            log_det = log_gap_determinant(s, grid, handle)
        except MeijerGapError as exc:
            print(f"warning: s={_fmt(s)}: {exc}", file=sys.stderr)
            rows.append((_fmt(s), "", _fmt(asym), ""))
            continue
        f_of_s = s**cc.rho * (log_det - asym)
        rows.append((_fmt(s), _fmt(log_det), _fmt(asym), _fmt(f_of_s)))
        n_ok += 1

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,log_det,asymptotic,f\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {len(rows)} rows ({n_ok} usable) to {args.out}", file=sys.stderr)
    return 0 if 2 * n_ok >= len(rows) else 3


def cmd_verify(args) -> int:
    level = args.level or "fast"
    results = run_checks(level)
    for res in results:
        print(res.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meijergap",
        description="Hard-edge Meijer-G kernel determinants and large-gap asymptotics",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="expansion coefficients for given parameters")
    _add_param_flags(p)
    p.add_argument("--format", choices=("json", "text"), default=None)
    p.set_defaults(func=cmd_coeffs)

    p = subs.add_parser("kernel", help="evaluate K(x, y)")
    _add_param_flags(p)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="contour truncation tolerance")
    p.add_argument("--format", choices=("json", "text"), default=None)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("det", help="gap determinant det(1 - K|[0,s])")
    _add_param_flags(p)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--nodes", type=int, default=None, help="Nystrom node count (default 80)")
    p.add_argument("--tol", type=float, default=None, help="contour truncation tolerance")
    p.add_argument("--format", choices=("json", "text"), default=None)
    p.set_defaults(func=cmd_det)

    p = subs.add_parser("converge", help="compensated-convergence experiment (CSV)")
    _add_param_flags(p)
    p.add_argument("--s-min", dest="s_min", type=float, default=None)
    p.add_argument("--s-max", dest="s_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None, help="number of geometric s values (default 9)")
    p.add_argument("--nodes", type=int, default=None, help="Nystrom node count (default 100)")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("verify", help="run the consistency-check suites")
    p.add_argument("--level", choices=("fast", "full"), default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, args)
        code = args.func(args)
    except (MeijerGapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
