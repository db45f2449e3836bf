"""Command-line front end.

Commands::

    wirtcalc diff     EXPR --at C [--order {1,2}]
    wirtcalc hessian  EXPR --at C                   (diff --order 2)
    wirtcalc check    EXPR --at C [--step S] [--tol T]
    wirtcalc classify EXPR --at C [--step S] [--tol T]
    wirtcalc minimize EXPR --from C [--mu ...] | --data FILE [--widely-linear]

Complex literals use the expression grammar itself (``1+2i``, ``-3i``).
A token that starts with one '-', other than ``-h``, is a value, so
``--at -3i`` and ``diff "-z^2"`` need no ``=`` or ``--``.
Output is a JSON record on stdout (schema version 1); numbers are emitted
as [re, im] pairs.  Exit codes: 0 success, 1 residual above tolerance,
iteration budget exhausted or an error without a code of its own (such
as StepTooSmall, an option value out of range or a missing data file),
2 malformed option value, expression or data file, 3 domain/pole error,
also a non-finite sample or target or a cost or gradient that is not
finite at the start, 4 diverged or non-real cost, 5 line search stalled.
Set WIRT_LOG=debug for diagnostics.

Only ``minimize --data`` loads numpy; the other commands run on ``cmath``.
Start-up loads ``errors`` and ``fdcheck``: the parser defaults read the
latter, and ``check`` and ``classify`` take their finite differences and
verdict from its ``classify``.  Each command that reads expression text
loads ``expr`` and its rules, ``forward``.  ``diff``, ``check`` and
``classify`` load nothing more, ``hessian`` adds ``second``, ``minimize``
adds ``optimize`` (and ``logging``), and ``minimize --data`` loads numpy,
``optimize``, ``logging``, ``hilbert`` and ``forward``, but no ``expr``.
``logging`` is otherwise loaded only when WIRT_LOG is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (DimensionMismatch, DomainError, EmptyData,
                     ExprSyntaxError, NonRealCost, PoleError, WirtcalcError,
                     _require_finite, _require_tol)
from .fdcheck import DEFAULT_STEP, DEFAULT_TOL, classify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_DOMAIN = 3
EXIT_DIVERGED = 4
EXIT_STALLED = 5

#: exit code of each error ``main`` reports, first match; any other
#: WirtcalcError, OSError or ValueError exits EXIT_FAIL
ERROR_EXIT = (
    ((ExprSyntaxError, EmptyData, DimensionMismatch), EXIT_MALFORMED),
    ((DomainError, PoleError), EXIT_DOMAIN),
    (NonRealCost, EXIT_DIVERGED),
)
#: exit code of each ``Termination`` value
TERMINATION_EXIT = {"Converged": EXIT_OK, "MaxIter": EXIT_FAIL,
                    "Stalled": EXIT_STALLED, "Diverged": EXIT_DIVERGED}

CHECK_DEFAULT_TOL = 1e-6


def _pair(w: complex) -> list[float]:
    w = _require_finite(w, "value to emit")
    return [w.real, w.imag]


def _emit(report: dict) -> None:
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (``| head -1``): not a failure of the command;
        # stdout goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(command: str, e, at: complex, **fields) -> dict:
    from .expr import format_expr
    return {"schema": 1, "command": command, "expr": format_expr(e),
            "at": _pair(at), **fields}


def cmd_diff(args) -> int:
    from .expr import compile_expr, eval_jet, parse_complex
    at = parse_complex(args.at)
    e = compile_expr(args.expr)
    j = eval_jet(e, at, order=args.order)
    report = _report("diff", e, at, order=args.order, value=_pair(j.value),
                     dz=_pair(j.dz), dzc=_pair(j.dzc))
    if args.order == 2:
        report["hessian"] = {
            "dzz": _pair(j.dzz),
            "dzzc": _pair(j.dzzc),
            "dzcz": _pair(j.dzcz),
            "dzczc": _pair(j.dzczc),
        }
    _emit(report)
    return EXIT_OK


def cmd_check(args) -> int:
    from .expr import compile_expr, eval_jet, parse_complex
    _require_tol(args.tol)
    at = parse_complex(args.at)
    e = compile_expr(args.expr)
    j = eval_jet(e, at, order=1)
    # a callable: ``classify`` skips the order-1 check that ``j`` made
    rep = classify(lambda c: eval_jet(e, c, order=0), at, args.step)
    res_dz = abs(j.dz - rep.w) / (1.0 + abs(j.dz))
    res_dzc = abs(j.dzc - rep.cw) / (1.0 + abs(j.dzc))
    ok = res_dz < args.tol and res_dzc < args.tol
    _emit(_report("check", e, at, step=args.step, tol=args.tol,
                  dz=_pair(j.dz), dzc=_pair(j.dzc), fd_w=_pair(rep.w),
                  fd_cw=_pair(rep.cw), residual_dz=res_dz,
                  residual_dzc=res_dzc, classification=rep.verdict.value,
                  ok=ok))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_classify(args) -> int:
    from .expr import compile_expr, parse_complex
    at = parse_complex(args.at)
    e = compile_expr(args.expr)
    rep = classify(e, at, step=args.step, tol=args.tol)
    _emit(_report("classify", e, at, step=args.step, tol=args.tol,
                  classification=rep.verdict.value, fd_w=_pair(rep.w),
                  fd_cw=_pair(rep.cw), cr_residual=rep.cr_residual,
                  conj_cr_residual=rep.conj_cr_residual))
    return EXIT_OK


def _complex_list(entries, key: str) -> list[complex]:
    if not isinstance(entries, list):
        raise DimensionMismatch(
            f"data file: {key!r} entry {entries!r} is not a list of "
            f"[re, im] pairs")
    out = []
    for w in entries:
        if not (isinstance(w, list) and len(w) == 2     # no JSON true/false
                and all(type(x) in (int, float) for x in w)):
            raise DimensionMismatch(
                f"data file: {key!r} entry {w!r} is not an [re, im] pair")
        try:
            out.append(complex(w[0], w[1]))
        except OverflowError:       # an int beyond float range, as 1e999
            raise DomainError(f"data file: a {key!r} entry is beyond float "
                              f"range: not finite") from None
    return out


def _load_data_file(path: str):
    """``{"X": [[[re, im], ...], ...], "d": [[re, im], ...]}`` as the sample
    rows and targets; raises ExprSyntaxError for a file that is not UTF-8
    JSON, EmptyData for a missing or empty key and DimensionMismatch for an
    entry that is not an [re, im] pair."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ExprSyntaxError(f"data file {path!r} is not UTF-8: {exc.reason}",
                              exc.start) from None
    except json.JSONDecodeError as exc:
        raise ExprSyntaxError(f"data file {path!r} is not valid JSON: "
                              f"{exc.msg} at line {exc.lineno} column "
                              f"{exc.colno}", exc.pos) from None
    except (RecursionError, ValueError) as exc:  # too deep; too many digits
        raise ExprSyntaxError(f"data file {path!r} is not readable JSON: "
                              f"{exc}", 0) from None
    for key in ("X", "d"):
        if not (isinstance(payload, dict) and isinstance(payload.get(key), list)
                and payload[key]):
            raise EmptyData(f"data file needs a non-empty {key!r} list")
    X = [_complex_list(row, "X") for row in payload["X"]]
    return X, _complex_list(payload["d"], "d")


def cmd_minimize(args) -> int:
    from .optimize import (DescentConfig, build_least_squares,
                           steepest_descent_hilbert, steepest_descent_scalar)
    cfg = DescentConfig(
        mu=args.mu,
        tol=args.tol,
        max_iter=args.max_iter,
        step_mode="backtracking" if args.backtrack else "fixed",
    )
    report = {"schema": 1, "command": "minimize", "mu": args.mu,
              "tol": args.tol, "max_iter": args.max_iter,
              "backtracking": bool(args.backtrack)}
    if args.data:
        X, d = _load_data_file(args.data)
        program = build_least_squares(X, d, widely_linear=args.widely_linear)
        trace = steepest_descent_hilbert(program, [0j] * program.n_params,
                                         cfg)
        report["data"] = args.data
        report["widely_linear"] = bool(args.widely_linear)
        report["final"] = [_pair(complex(w)) for w in trace.final]
    else:
        if args.expr is None:
            raise ExprSyntaxError("minimize needs an expression or --data", 0)
        from .expr import compile_expr, format_expr, parse_complex
        z0 = parse_complex(getattr(args, "from"))
        e = compile_expr(args.expr)
        trace = steepest_descent_scalar(e, z0, cfg)
        report["expr"] = format_expr(e)
        report["from"] = _pair(z0)
        report["final"] = _pair(trace.final)
    report["termination"] = trace.termination.value
    report["iterations"] = trace.iterations
    report["final_cost"] = trace.costs[-1]
    report["final_grad_norm"] = trace.grad_norms[-1]
    _emit(report)
    return TERMINATION_EXIT[trace.termination.value]


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a single '-' (``-1i``, ``-z^2``) as a
    value, not as an option; ``-h`` stays the help option."""

    def _parse_optional(self, arg):
        if arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            return None
        return super()._parse_optional(arg)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="wirtcalc",
        description="Derivatives with respect to z and z*, holomorphy "
                    "checks, and steepest descent for complex arguments.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("expr")
    point.add_argument("--at", required=True,
                       help="evaluation point, e.g. 1+2i")

    p_diff = sub.add_parser("diff", parents=[point],
                            help="first or second derivatives")
    p_diff.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_diff.set_defaults(func=cmd_diff)
    p_hess = sub.add_parser("hessian", parents=[point],
                            help="alias of diff --order 2")
    p_hess.set_defaults(func=cmd_diff, order=2)
    for name, func, tol, text in (
            ("check", cmd_check, CHECK_DEFAULT_TOL,
             "compare the rule derivatives against finite differences"),
            ("classify", cmd_classify, DEFAULT_TOL,
             "holomorphy classification")):
        p = sub.add_parser(name, parents=[point], help=text)
        p.add_argument("--step", type=float, default=DEFAULT_STEP)
        p.add_argument("--tol", type=float, default=tol)
        p.set_defaults(func=func)

    p_min = sub.add_parser("minimize", help="steepest descent")
    p_min.add_argument("expr", nargs="?", default=None)
    p_min.add_argument("--from", default="0", help="starting point")
    p_min.add_argument("--mu", type=float, default=0.1)
    p_min.add_argument("--tol", type=float, default=1e-8)
    p_min.add_argument("--max-iter", type=int, default=1000)
    p_min.add_argument("--backtrack", action="store_true")
    p_min.add_argument("--data", default=None,
                       help="least-squares JSON data file")
    p_min.add_argument("--widely-linear", action="store_true")
    p_min.set_defaults(func=cmd_minimize)
    return top


def main(argv=None) -> int:
    level = os.environ.get("WIRT_LOG", "").upper()
    if level:
        import logging
        logging.basicConfig(level=getattr(logging, level, logging.INFO))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WirtcalcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in ERROR_EXIT
                     if isinstance(exc, kinds)), EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
