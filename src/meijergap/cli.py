"""Command-line front end.

Subcommands:
  coeffs    expansion coefficients (rho, a, b, c, ln C) for given parameters
  kernel    one kernel value K(x, y)
  det       one gap determinant det(1 - K|[0,s])
  converge  the compensated-convergence experiment, written as CSV
  verify    built-in consistency checks (fast/full)

Flags override config-file values, which override defaults.  The config file
is a flat ``key = value`` text format whose keys mirror the long flag names;
its entries are parsed as ``--key=value`` flags placed before the typed ones.
Data goes to stdout or the ``--out`` file; progress and warnings go to
stderr, keeping the CSV machine-consumable.  Exit codes: 0 success,
1 verification failure, 2 usage or invariant error, 3 converge run with
fewer than half its rows usable, 141 (128 + SIGPIPE) stdout closed by its
reader, with nothing printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import compute_coeffs, truncated_log_expansion
from .errors import MeijerGapError
from .fredholm import gauss_legendre_grid, kappa_for_nu_min, log_gap_determinant
from .kernel import CONTOUR_TOL, MeijerKernel, ProcessParams, build_contours, kernel_eval
from .verify import run_checks

_FMT = "{:.15g}"


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


def _parse_float_list(text: str):
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


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags take precedence")


def _config_argv(parser: argparse.ArgumentParser, argv: list) -> list:
    """``argv`` with the ``--config`` file's entries inserted right after the
    subcommand, each as one ``--key=value`` token.

    argparse then converts, choice-checks and requires config values exactly
    as it does flags, and a flag on the command line, coming later, wins.
    The ``=`` form keeps a value that begins with ``-`` in one piece.  A key
    is the long flag name of some subcommand of ``parser``; keys of other
    subcommands' flags are dropped.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing path is left for ``parser`` to report
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    keys = {
        name: {f[2:] for f in sub._option_string_actions if f[:2] == "--"} - {"help", "config"}
        for name, sub in commands.items()
    }
    own = keys.get(argv[0], set())
    entries = []
    for key, value in _read_config(path).items():
        if not any(key in k for k in keys.values()):
            raise ValueError(f"unknown config key {key!r}")
        if key in own:
            entries.append(f"--{key}={value}")
    return [argv[0], *entries, *argv[1:]]


def _params_from(args) -> ProcessParams:
    return ProcessParams(args.r, args.q, args.nu, args.mu)


def _add_param_flags(sub):
    list_help = "comma-separated {0} values; give a list that begins with '-' as --{0}=-0.5,0.7"
    sub.add_argument("--r", type=int, required=True, help="number of nu parameters")
    sub.add_argument("--q", type=int, required=True, help="number of mu parameters")
    sub.add_argument("--nu", type=_parse_float_list, required=True, help=list_help.format("nu"))
    sub.add_argument("--mu", type=_parse_float_list, default=(), help=list_help.format("mu"))
    _add_config_flag(sub)


def _add_tol_flag(sub):
    sub.add_argument("--tol", type=float, default=CONTOUR_TOL, help="contour truncation tolerance (default %(default)s)")


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("json", "text"), default="text", help="output format (default %(default)s)")


def cmd_coeffs(args) -> int:
    params = _params_from(args)
    cc = compute_coeffs(params)
    try:
        c_value = math.exp(cc.ln_c)
    except OverflowError:  # ln C above ln(DBL_MAX) = 709.78
        c_value = math.inf
    values = {"rho": cc.rho, "a": cc.a, "b": cc.b, "c": cc.c, "lnC": cc.ln_c, "C": c_value}
    if args.format == "json":
        # JSON has no infinity: a value that overflows is written as null
        payload = {"r": params.r, "q": params.q, "nu": list(params.nu), "mu": list(params.mu)}
        payload.update((name, val if math.isfinite(val) else None) for name, val in values.items())
        print(json.dumps(payload, indent=2))
    else:
        for name, val in values.items():
            print(f"{name:>4} = {_fmt(val)}")
    return 0


def _emit_scalar(args, name: str, value: float) -> None:
    if args.format == "json":
        print(json.dumps({name: value}))
    else:
        print(_fmt(value))


def cmd_kernel(args) -> int:
    params = _params_from(args)
    x, y = args.x, args.y
    if not (0 < x < math.inf and 0 < y < math.inf):  # NaN fails too
        raise ValueError("x and y must be positive and finite")
    cq = build_contours(params, (0.9 * min(x, y), 1.1 * max(x, y)), args.tol)
    _emit_scalar(args, "K", kernel_eval(x, y, cq))
    return 0


def _grid_and_handle(params: ProcessParams, s_lo: float, s_hi: float, m: int, tol: float = CONTOUR_TOL):
    """The grading exponent kappa, the m-point graded grid on (0, s_lo), and a
    kernel handle whose x_range covers the nodes of every such grid on
    (0, s) for s_lo <= s <= s_hi."""
    kappa = kappa_for_nu_min(params.nu_min)
    grid = gauss_legendre_grid(s_lo, m, kappa=kappa)
    handle = MeijerKernel(params, (0.999 * float(grid.nodes[0]), s_hi), tol=tol)
    return kappa, grid, handle


def cmd_det(args) -> int:
    params = _params_from(args)
    _, grid, handle = _grid_and_handle(params, args.s, args.s, args.nodes, args.tol)
    _emit_scalar(args, "det", math.exp(log_gap_determinant(args.s, grid, handle)))
    return 0


def cmd_converge(args) -> int:
    params = _params_from(args)
    s_min, s_max, m = args.s_min, args.s_max, args.nodes
    if not 0 < s_min < s_max < math.inf:
        raise ValueError("requires 0 < s-min < s-max < inf")
    if args.points < 2:
        raise ValueError("requires points >= 2")

    cc = compute_coeffs(params)
    svals = np.geomspace(s_min, s_max, args.points)
    kappa, _, handle = _grid_and_handle(params, s_min, s_max, m)

    rows = []
    n_ok = 0
    for s in svals:
        s = float(s)
        asym = truncated_log_expansion(s, cc)
        try:
            grid = gauss_legendre_grid(s, m, kappa=kappa)
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
    results = run_checks(args.level)
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
    _add_format_flag(p)
    p.set_defaults(func=cmd_coeffs)

    p = subs.add_parser("kernel", help="evaluate K(x, y)")
    _add_param_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    _add_tol_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("det", help="gap determinant det(1 - K|[0,s])")
    _add_param_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--nodes", type=int, default=80, help="Nystrom node count (default %(default)s)")
    _add_tol_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_det)

    p = subs.add_parser("converge", help="compensated-convergence experiment (CSV)")
    _add_param_flags(p)
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--points", type=int, default=9, help="number of geometric s values (default %(default)s)")
    p.add_argument("--nodes", type=int, default=100, help="Nystrom node count (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("verify", help="run the consistency-check suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast", help="check suite (default %(default)s)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_config_argv(parser, argv))
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return status
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        return exc.code
    except BrokenPipeError:
        # the reader of stdout is gone: stop as a tool killed by SIGPIPE
        # would, and point stdout at devnull so the flush at shutdown is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (MeijerGapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
