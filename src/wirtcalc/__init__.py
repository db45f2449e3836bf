"""Derivatives with respect to z and z* for complex-valued functions,
holomorphy classification, Hilbert-space gradients, and steepest descent
on complex domains.

``import wirtcalc`` loads ``wirtcalc.errors`` and nothing else of the
package.  Every other public name is resolved on first access, which
imports its module and binds the name here, so later reads are plain
attribute reads.  The scalar calculus (jets, the order-2 block, holomorphy
verdicts, scalar descent and Newton steps) is pure ``cmath``; the
Hilbert-space names (``FunctionalJet``, ``hvec``, ``inner``, ...) import
``wirtcalc.hilbert`` and numpy.  ``build_least_squares`` loads numpy and
``optimize`` only; ``hilbert`` follows on a program's first call or
``steepest_descent_hilbert``'s.  The expression engine ``wirtcalc.expr``
loads only where an expression is read: no Hilbert-space program,
descent or FD check loads it.
"""

__version__ = "0.1.0"

from .errors import (ArityError, DimensionMismatch, DomainError, EmptyData,
                     ExprSyntaxError, NonRealCost, PoleError, SingularHessian,
                     StepTooSmall, UnknownIdentifier, WirtcalcError)

#: module of each public name that is not an error class, in ``__all__`` order
_LAZY = {name: module for module, names in (
    ("expr", "Expr compile_expr eval_jet format_expr parse parse_complex"),
    ("fdcheck", "HolomorphyReport Verdict classify fd_partials fd_wirtinger"),
    ("forward", "PRIMITIVES WirtingerJet add apply_primitive conj constant "
                "div linear_combine mul power_int seed_variable sub"),
    ("hilbert", "FunctionalJet classify_functional fd_gradients "
                "fd_wirtinger_gradients functional_constant hvec inner "
                "ip_functional outer_chain squared_distance "
                "stack_vector_operator"),
    ("optimize", "DescentConfig DescentTrace Termination build_least_squares "
                 "newton_step_scalar steepest_descent_hilbert "
                 "steepest_descent_scalar"),
    ("second", "SecondOrderJet hessian_is_real_consistent "
               "second_order_taylor"),
) for name in names.split()}

__all__ = [
    "ArityError", "DimensionMismatch", "DomainError", "EmptyData",
    "ExprSyntaxError", "NonRealCost", "PoleError", "SingularHessian",
    "StepTooSmall", "UnknownIdentifier", "WirtcalcError", *_LAZY,
]


def __getattr__(name):
    # called only while ``name`` is unbound: bind it, so that the next
    # access does not come here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
