"""Finite-difference oracle: independent z/z* derivatives and holomorphy
classification via the Cauchy-Riemann conditions.

All derivative values here come from central differences of plain function
evaluations, never from the jet rules, so this module can arbitrate every
rule in the forward-mode engine.  Default step 1e-5 balances truncation
against rounding for double precision; classification threshold 1e-4.
Every point ``c`` keeps the scalar contract of ``errors``; what loads
when is stated in the package docstring.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from .errors import StepTooSmall
from .forward import _require_finite

if TYPE_CHECKING:
    from .expr import Expr, Tape

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
MIN_STEP = 1e-12

Evaluable = Union["Expr", str, "Tape", Callable[[complex], complex]]


class Verdict(enum.Enum):
    HOLOMORPHIC = "Holomorphic"
    CONJUGATE_HOLOMORPHIC = "ConjugateHolomorphic"
    BOTH = "Both"
    NEITHER = "Neither"


@dataclass(frozen=True)
class HolomorphyReport:
    """Classification verdict plus the residuals of both condition systems.

    ``w``/``cw`` are the finite-difference W/CW derivatives (scalars, or
    gradient vectors for functionals on C^n).  ``cr_residual`` is the size
    of CW (the Cauchy-Riemann system reduces to a vanishing z*-derivative)
    and ``conj_cr_residual`` the size of W: the modulus for scalars, the
    2-norm for vectors.
    """

    verdict: Verdict
    w: complex
    cw: complex
    cr_residual: float
    conj_cr_residual: float


def _require_tol(tol: float) -> None:
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")


def holomorphy_report(w, cw, w_size: float, cw_size: float,
                      tol: float) -> HolomorphyReport:
    """Threshold the sizes of W and CW at ``tol``, a number >= 0 and not
    NaN (ValueError): the one verdict ladder behind ``classify`` and
    ``hilbert.classify_functional``."""
    _require_tol(tol)
    cr_ok = cw_size < tol
    conj_cr_ok = w_size < tol
    if cr_ok and conj_cr_ok:
        verdict = Verdict.BOTH
    elif cr_ok:
        verdict = Verdict.HOLOMORPHIC
    elif conj_cr_ok:
        verdict = Verdict.CONJUGATE_HOLOMORPHIC
    else:
        verdict = Verdict.NEITHER
    return HolomorphyReport(verdict, w, cw, cw_size, w_size)


def wirtinger_pair(fx, fy):
    """(W, CW) = ((fx - i fy) / 2, (fx + i fy) / 2) from the partials in x
    and y (scalars or coordinate-wise vectors)."""
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _as_callable(f: Evaluable) -> Callable[[complex], complex]:
    if callable(f):     # an AST node or a tape is not
        return f
    from . import expr
    tape = expr.compile_expr(f)
    return lambda c: expr.eval_jet(tape, c, order=0)


def _checked_step(step: float) -> float:
    if not MIN_STEP <= step < math.inf:     # NaN and inf too
        raise StepTooSmall(f"step {step:g} " + (
            "is not a number" if math.isnan(step) else "is not finite"
            if step == math.inf else f"below {MIN_STEP:g}"))
    return float(step)


def fd_partials(f: Evaluable, c: complex,
                step: float = DEFAULT_STEP) -> tuple[complex, complex]:
    """Central-difference partials (df/dx, df/dy) at ``c``."""
    s = _checked_step(step)
    g = _as_callable(f)
    c = _require_finite(c, "evaluation point")
    fx = (g(c + s) - g(c - s)) / (2.0 * s)
    fy = (g(c + 1j * s) - g(c - 1j * s)) / (2.0 * s)
    return fx, fy


def fd_wirtinger(f: Evaluable, c: complex,
                 step: float = DEFAULT_STEP) -> tuple[complex, complex]:
    """Central-difference (d/dz, d/dz*) pair at ``c``, as ``fd_partials``."""
    return wirtinger_pair(*fd_partials(f, c, step))


def classify(f: Evaluable, c: complex, step: float = DEFAULT_STEP,
             tol: float = DEFAULT_TOL) -> HolomorphyReport:
    """Threshold the finite-difference W/CW magnitudes at ``c``.

    For expressions (text, AST or tape; compiled once), an order-1
    evaluation runs first, so that non-differentiable points (abs or arg at
    0) raise instead of giving a spurious verdict; callables get no check.
    A ``tol`` that is NaN or below 0 raises ValueError.
    """
    if not callable(f):
        from . import expr
        f = expr.compile_expr(f)
        expr.eval_jet(f, c, order=1)
    w, cw = fd_wirtinger(f, c, step)
    return holomorphy_report(w, cw, abs(w), abs(cw), tol)
