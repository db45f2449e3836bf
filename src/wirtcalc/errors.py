"""Exceptions and the input contracts of all wirtcalc modules, in one place.

The scalar contract: a complex scalar a caller passes to a public entry (a
point, a constant, a coefficient, a displacement) that is not finite, or
is an integer beyond float range, raises DomainError.  A bool raises
TypeError, a str (even "1+2j") ValueError, and any other value that is not
a number the TypeError or ValueError of ``complex``; a hand-built tree's
constant, exponent and function name are checked in ``expr.compile_expr``.

The vector contract: a coordinate vector passed to ``hvec``, ``inner`` or a
Hilbert-space program that is not 1-D numbers of the needed dimension raises
DimensionMismatch, a non-finite one DomainError.  Any array that a
Hilbert-space entry or a least-squares build reads raises TypeError if it
holds a bool at any depth.

The parameter rule: a step, tol, mu, order, dimension or iteration budget
that is a bool, or an integer one that is not an integer, raises TypeError
naming it; a verdict tol that is NaN or below 0 raises ValueError.
"""

import cmath


def _holds_bool(x) -> bool:
    """Whether ``x``, which numpy has read as numbers (so its depth is
    bounded), is a bool or holds one: the one bool test of the package."""
    kind = getattr(getattr(x, "dtype", None), "kind", None)
    if kind is None:    # not numpy's
        return isinstance(x, bool) or (isinstance(x, (list, tuple))
                                       and any(map(_holds_bool, x)))
    return kind == "b" or kind == "O" and any(map(_holds_bool, x.flat))


def _require_finite(w: complex, what: str = "value") -> complex:
    if w.__class__ is not complex:
        if isinstance(w, str) or _holds_bool(w):  # complex() takes "1j", True
            raise (ValueError if isinstance(w, str) else TypeError)(
                f"{what} must be a number, got {w!r}")
        try:
            w = complex(w)
        except OverflowError:                   # an int beyond float range
            raise DomainError(
                f"non-finite {what}: beyond float range") from None
    if not cmath.isfinite(w):
        raise DomainError(f"non-finite {what}: {w!r}")
    return w


def _array(x):
    """``x`` as complex128: itself if it is, else a copy holding no bool."""
    import numpy as np      # here: ``errors`` loads no numpy
    try:
        a = np.asarray(x, dtype=np.complex128)
    except (TypeError, ValueError) as exc:      # ragged, or not numbers
        raise DimensionMismatch(f"not an array of numbers: {exc}") from None
    except OverflowError as exc:                # an int beyond float range
        raise DomainError(f"not a finite array: {exc}") from None
    if a is not x and _holds_bool(x):
        raise TypeError(f"a bool is not a number: {x!r}")
    return a


def _parameter(x, name: str, integer: bool = False):
    """``x`` once it keeps the parameter rule (``integer``: has __index__)."""
    if x.__class__ is int or x.__class__ is float and not integer:
        return x
    if _holds_bool(x) or integer and not hasattr(x, "__index__"):
        kind = "an integer" if integer else "a number"
        raise TypeError(f"{name} must be {kind}, got {x!r}")
    return x


def _require_tol(tol: float) -> None:
    if not _parameter(tol, "tol") >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")


class WirtcalcError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WirtcalcError):
    """A primitive was evaluated or differentiated outside its domain
    (log/sqrt/arg at 0, abs differentiated at 0, branch-point issues)."""


class PoleError(WirtcalcError):
    """A reciprocal or quotient was evaluated at (or too close to) a pole."""


class ExprSyntaxError(WirtcalcError):
    """Malformed expression text, or a data file that is not UTF-8 JSON.
    ``offset`` is the offset of the first character (for a file that is
    not UTF-8, the first byte) that could not be consumed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier is not ``z``, ``zc``, ``i`` or a known function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class ArityError(ExprSyntaxError):
    """A function was referenced without exactly one parenthesized argument."""


class DimensionMismatch(WirtcalcError):
    """Vector operands live in spaces of different dimension."""


class StepTooSmall(WirtcalcError):
    """Finite-difference step below the supported floor (1e-12)."""


class NonRealCost(WirtcalcError):
    """A minimization target produced a value with non-negligible
    imaginary part."""


class SingularHessian(WirtcalcError):
    """The 2x2 second-order coefficient block cannot be inverted reliably;
    callers should fall back to a gradient step."""


class EmptyData(WirtcalcError):
    """A data-driven builder received no samples."""
