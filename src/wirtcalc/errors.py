"""Exception hierarchy shared by all wirtcalc modules.

The scalar contract: a complex scalar a caller passes to a public entry (a
point, a constant, a coefficient, a displacement) that is not finite, or
is an integer beyond float range, raises DomainError.  A bool raises
TypeError, a str (even "1+2j") ValueError, and any other value that is not
a number the TypeError or ValueError of ``complex``.

The vector contract: a coordinate vector passed to ``hvec``, ``inner`` or a
Hilbert-space program that is not 1-D numbers of the needed dimension raises
DimensionMismatch, a non-finite one DomainError.  Any array that a
Hilbert-space entry or a least-squares build reads raises TypeError if it
holds a bool at any depth.
"""


def _holds_bool(x) -> bool:
    """Whether ``x``, which numpy has read as numbers (so its depth is
    bounded), is a bool or holds one: numpy read each as 0 or 1."""
    kind = getattr(getattr(x, "dtype", None), "kind", None)
    if kind is None:    # not numpy's
        return isinstance(x, bool) or (isinstance(x, (list, tuple))
                                       and any(map(_holds_bool, x)))
    return kind == "b" or kind == "O" and any(map(_holds_bool, x.flat))


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
