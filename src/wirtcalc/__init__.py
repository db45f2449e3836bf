"""Derivatives with respect to z and z* for complex-valued functions,
holomorphy classification, Hilbert-space gradients, and steepest descent
on complex domains.

The scalar calculus (jets, the order-2 block, holomorphy verdicts, scalar
descent and Newton steps) is pure ``cmath``: ``import wirtcalc`` does not
load numpy.  The Hilbert-space names (``FunctionalJet``, ``hvec``,
``inner``, ...) are resolved on first access, which
imports ``wirtcalc.hilbert`` and numpy; so does the first call of
``build_least_squares`` or ``steepest_descent_hilbert``.
"""

__version__ = "0.1.0"

from .errors import (ArityError, DimensionMismatch, DomainError, EmptyData,
                     ExprSyntaxError, NonRealCost, PoleError, SingularHessian,
                     StepTooSmall, UnknownIdentifier, WirtcalcError)
from .expr import (Expr, compile_expr, eval_jet, format_expr, parse,
                   parse_complex)
from .fdcheck import (HolomorphyReport, Verdict, classify, fd_partials,
                      fd_wirtinger)
from .forward import (PRIMITIVES, WirtingerJet, add, apply_primitive, conj,
                      constant, div, linear_combine, mul, power_int,
                      seed_variable, sub)
from .optimize import (DescentConfig, DescentTrace, Termination,
                       build_least_squares, newton_step_scalar,
                       steepest_descent_hilbert, steepest_descent_scalar)
from .second import (SecondOrderJet, hessian_is_real_consistent,
                     second_order_taylor)

__all__ = [
    "ArityError", "DimensionMismatch", "DomainError", "EmptyData",
    "ExprSyntaxError", "NonRealCost", "PoleError", "SingularHessian",
    "StepTooSmall", "UnknownIdentifier", "WirtcalcError", "Expr",
    "compile_expr", "eval_jet", "format_expr", "parse", "parse_complex",
    "HolomorphyReport", "Verdict", "classify", "fd_partials", "fd_wirtinger",
    "PRIMITIVES", "WirtingerJet", "add", "apply_primitive", "conj", "constant",
    "div", "linear_combine", "mul", "power_int", "seed_variable", "sub",
    "FunctionalJet", "classify_functional", "fd_gradients",
    "fd_wirtinger_gradients", "functional_constant", "hvec", "inner",
    "ip_functional", "outer_chain", "squared_distance",
    "stack_vector_operator", "DescentConfig", "DescentTrace", "Termination",
    "build_least_squares", "newton_step_scalar", "steepest_descent_hilbert",
    "steepest_descent_scalar", "SecondOrderJet", "hessian_is_real_consistent",
    "second_order_taylor",
]

#: names of ``hilbert`` (which needs numpy), bound on first access
_HILBERT_NAMES = frozenset({
    "FunctionalJet", "classify_functional", "fd_gradients",
    "fd_wirtinger_gradients", "functional_constant", "hvec", "inner",
    "ip_functional", "outer_chain", "squared_distance",
    "stack_vector_operator",
})


def __getattr__(name):
    # not cached in the package namespace: each access reads the current
    # attribute of ``hilbert``
    if name in _HILBERT_NAMES:
        from . import hilbert
        return getattr(hilbert, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HILBERT_NAMES)
