"""Forward-mode first-order jets for derivatives with respect to z and z*.

A jet carries ``(value, dz, dzc)`` where ``dz`` is the derivative taken with
z* held formally constant and ``dzc`` the derivative with z held constant:

    dz  = (df/dx - i*df/dy) / 2
    dzc = (df/dx + i*df/dy) / 2

The derivative slots may also hold arrays: ``hilbert.FunctionalJet`` is a
``WirtingerJet`` whose slots are the gradient vectors of a functional on
C^n, or, stacked, of m of them in (m,) and (n, m) slots that the rules
broadcast over, and every rule here builds its result with its operand's
``_fresh`` hook, so one rule set serves scalar and functional jets.  The
hook is a slot filler: it makes the instance with ``object.__new__`` and
stores each slot through the slot descriptor, skipping the dataclass
``__init__``; for an array jet it also freezes the arrays the rule has
just computed in place of copying them.  A result equals, prints and
pickles like the publicly constructed jet with the same slots, and is
frozen like it; the public constructors are unchanged:
``FunctionalJet(...)`` keeps its conversion, shape checks and copies for
arrays a caller passes in.  ``hilbert.squared_distance`` runs no rule.

The binary rules raise DimensionMismatch unless both operands are jets of
one kind and slot shape; ``div``, ``apply_primitive`` and scalar partials
in ``chain`` take no stack, whose m values they would read as one.

Everything here is a pure function of its inputs; jets are immutable and can
be shared freely between threads.  Jets do not remember their base point:
combining jets seeded at different points is a caller error that is not
detected.

``div`` and ``power_int`` raise PoleError when what they divide by is 0
(numpy slots would turn it into inf silently; a reciprocal is ``div`` with
a unit numerator), ``power_int`` raises DomainError when a nonzero value's
power underflows to 0 (the true power overflows), and
``apply_primitive`` raises DomainError where a primitive or its partials
fail; overflow and inf/nan slots are left to ``expr.eval_jet``.

The non-holomorphic entries of the primitive table (conj, re, im, abs, abs2,
arg) are the single source of conjugate mass in the whole engine; they are
cross-checked against the finite-difference oracle in the test suite before
anything else trusts them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

from .errors import DimensionMismatch, DomainError, PoleError, _require_finite


@dataclass(frozen=True, slots=True)
class WirtingerJet:
    """Value plus the (d/dz, d/dz*) pair at one point."""

    value: complex
    dz: complex
    dzc: complex


# Rule results skip the dataclass __init__ (which sets each field through
# object.__setattr__): a filler makes the instance and stores each slot with
# its descriptor's __set__.  Unrolled, because a loop over the setters costs
# as much as the __init__ it replaces.
_new = object.__new__
_set_value = WirtingerJet.value.__set__
_set_dz = WirtingerJet.dz.__set__
_set_dzc = WirtingerJet.dzc.__set__


def _fill(value, dz, dzc) -> WirtingerJet:
    j = _new(WirtingerJet)
    _set_value(j, value)
    _set_dz(j, dz)
    _set_dzc(j, dzc)
    return j


# result constructor of the rules; hilbert.FunctionalJet has its own
WirtingerJet._fresh = staticmethod(_fill)


def _same_kind(a: WirtingerJet, b: WirtingerJet, stack: bool = True) -> None:
    """DimensionMismatch unless a and b are jets of one class and slot shape
    (numpy would broadcast n=1 against n=3), single jets if not ``stack``."""
    if (a.__class__ is not b.__class__ or a.dz.shape != b.dz.shape
            or not (stack or a.dz.ndim == 1)):
        a_dim, b_dim = (f"{j.__class__.__name__}{getattr(j.dz, 'shape', ())}"
                        for j in (a, b))
        raise DimensionMismatch(f"dimension mismatch: {a_dim} vs {b_dim}")


def seed_variable(c: complex) -> WirtingerJet:
    """Jet of the identity function at ``c``: (c, 1, 0).  The scalars here
    and of ``constant`` and ``linear_combine`` keep ``errors``' contract."""
    return _fill(_require_finite(c, "seed point"), 1.0 + 0.0j, 0.0 + 0.0j)


def constant(k: complex) -> WirtingerJet:
    """Jet of the constant function ``k``: (k, 0, 0)."""
    return _fill(_require_finite(k, "constant"), 0.0 + 0.0j, 0.0 + 0.0j)


def linear_combine(alpha: complex, a: WirtingerJet,
                   beta: complex, b: WirtingerJet) -> WirtingerJet:
    """Jet of ``alpha*a + beta*b`` (operands at the same base point)."""
    if a.__class__ is not WirtingerJet or b.__class__ is not WirtingerJet:
        _same_kind(a, b)
    alpha = _require_finite(alpha, "coefficient")
    beta = _require_finite(beta, "coefficient")
    return a._fresh(
        alpha * a.value + beta * b.value,
        alpha * a.dz + beta * b.dz,
        alpha * a.dzc + beta * b.dzc,
    )


def add(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    if a.__class__ is not WirtingerJet or b.__class__ is not WirtingerJet:
        _same_kind(a, b)
    return a._fresh(a.value + b.value, a.dz + b.dz, a.dzc + b.dzc)


def sub(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    if a.__class__ is not WirtingerJet or b.__class__ is not WirtingerJet:
        _same_kind(a, b)
    return a._fresh(a.value - b.value, a.dz - b.dz, a.dzc - b.dzc)


def neg(a: WirtingerJet) -> WirtingerJet:
    return a._fresh(-a.value, -a.dz, -a.dzc)


def mul(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Product rule, applied independently in the dz and dzc slots."""
    if a.__class__ is not WirtingerJet or b.__class__ is not WirtingerJet:
        _same_kind(a, b)
    return a._fresh(
        a.value * b.value,
        a.dz * b.value + a.value * b.dz,
        a.dzc * b.value + a.value * b.dzc,
    )


def conj(a: WirtingerJet) -> WirtingerJet:
    """Jet of the conjugated function: swaps and conjugates the two slots."""
    return a._fresh(
        a.value.conjugate(),
        a.dzc.conjugate(),
        a.dz.conjugate(),
    )


def div(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Quotient rule in both derivative slots, ``(a' - q b') / b`` with
    ``q = a / b``, divided step by step so that no ``b**2`` can underflow;
    raises PoleError when ``b.value`` is 0."""
    if a.__class__ is not WirtingerJet or b.__class__ is not WirtingerJet:
        _same_kind(a, b, stack=False)   # the pole test takes one value
    v = b.value
    if v == 0:
        raise PoleError(f"division by a value at a pole: value = {v!r}")
    q = a.value / v
    return a._fresh(q, (a.dz - q * b.dz) / v, (a.dzc - q * b.dzc) / v)


def power_int(a: WirtingerJet, k: int) -> WirtingerJet:
    """Integer power ``a**k`` (holomorphic; k may be negative away from 0)."""
    v = a.value
    if k == 0:
        # a**0 is 1 identically: exact zero slots, whatever a's slots hold
        if a.__class__ is WirtingerJet:
            return _fill(v ** 0, 0.0 + 0.0j, 0.0 + 0.0j)
        zero = a.dz.copy()
        zero.fill(0)
        return a._fresh(v ** 0, zero, zero.copy())
    if (k < 0 and a.__class__ is not WirtingerJet and a.dz.ndim != 1
            and not v.all()):
        # a stack with a zero column: numpy would warn and fill in inf
        raise PoleError(f"negative power at a pole: value = {v!r}")
    try:
        g = k * v ** (k - 1)
    except ZeroDivisionError:
        raise _pow_error(v, k) from None
    return a._fresh(v ** k, g * a.dz, g * a.dzc)


def _pow_error(v: complex, k: int) -> DomainError | PoleError:
    """The error for ``v**k`` (k < 0) that raised ZeroDivisionError: a pole
    at v == 0; otherwise ``v**-k`` underflowed to 0, so the true power
    overflows."""
    if v == 0:
        return PoleError(f"negative power at a pole: value = {v!r}")
    return DomainError(f"negative power overflows: value = {v!r}, k = {k}")


def chain(value: complex, gz: complex, gzc: complex,
          a: WirtingerJet) -> WirtingerJet:
    """Jet of S(A) from S's value and partials (gz, gzc) at A's value.

    The conjugate cross terms use (dA*/dz) = (dA/dz*)* and its mirror, so a
    single (gz, gzc) pair of the outer function suffices.
    """
    return a._fresh(
        value,
        gz * a.dz + gzc * a.dzc.conjugate(),
        gz * a.dzc + gzc * a.dz.conjugate(),
    )


# --------------------------------------------------------------------------
# primitive table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Primitive:
    """One entry of the primitive table.

    ``partials(v)`` returns the pair (g_z, g_zc) at the point ``v`` and
    ``second_partials(v)`` the triple (g_zz, g_zzc, g_zczc): the mixed
    partials commute, so g_zzc also stands for g_zcz.  ``_holomorphic``
    builds an entry from f, f' and f'': g_zc = 0 (the Cauchy-Riemann
    conditions in Wirtinger form), so g_zz = f'' is its one nonzero second
    partial.  ``v`` is outside the domain where one of them raises: sqrt,
    abs and arg, whose partials divide by zero at 0, are not
    differentiable there.
    """

    value: Callable[[complex], complex]
    partials: Callable[[complex], tuple[complex, complex]]
    second_partials: Callable[[complex], tuple[complex, complex, complex]]


def _holomorphic(f, df, d2f) -> Primitive:
    return Primitive(f, lambda v: (df(v), 0.0j),
                     lambda v: (d2f(v), 0.0j, 0.0j))


def _flat(v: complex) -> tuple[complex, complex, complex]:
    # second partials of the real-linear entries conj, re and im
    return 0.0j, 0.0j, 0.0j


def _abs_partials(v: complex) -> tuple[complex, complex]:
    # conj(v)/(2|v|), v/(2|v|) from the phase u = v/|v|: 2|v| overflows
    # for |v| above about 9e307
    u = v / abs(v)
    return u.conjugate() / 2, u / 2


def _abs_second(v: complex) -> tuple[complex, complex, complex]:
    # -conj(v)^2/(4|v|^3), 1/(4|v|), -v^2/(4|v|^3), written with the phase
    # u = v/|v| so that no power of v overflows
    m = abs(v)
    u = v / m
    uc = u.conjugate()
    q = 0.25 / m
    return -q * uc * uc, complex(q), -q * u * u


def _arg_value(v: complex) -> complex:
    if v == 0:  # cmath.phase(0) is 0, but arg has no value at 0
        raise DomainError("arg not defined at 0")
    return complex(cmath.phase(v), 0.0)


def _arg_partials(v: complex) -> tuple[complex, complex]:
    return -0.5j / v, 0.5j / v.conjugate()


def _arg_second(v: complex) -> tuple[complex, complex, complex]:
    vc = v.conjugate()
    return 0.5j / (v * v), 0.0j, -0.5j / (vc * vc)


def _sqrt_d2(v: complex) -> complex:
    s = cmath.sqrt(v)
    return -0.25 / (s * s * s)


PRIMITIVES: dict[str, Primitive] = {
    "exp": _holomorphic(cmath.exp, cmath.exp, cmath.exp),
    "log": _holomorphic(cmath.log, lambda v: 1.0 / v,
                        lambda v: -1.0 / (v * v)),
    "sin": _holomorphic(cmath.sin, cmath.cos, lambda v: -cmath.sin(v)),
    "cos": _holomorphic(cmath.cos, lambda v: -cmath.sin(v),
                        lambda v: -cmath.cos(v)),
    "sqrt": _holomorphic(cmath.sqrt, lambda v: 0.5 / cmath.sqrt(v), _sqrt_d2),
    "conj": Primitive(lambda v: v.conjugate(),
                      lambda v: (0.0j, 1.0 + 0.0j), _flat),
    "re": Primitive(lambda v: complex(v.real, 0.0),
                    lambda v: (0.5 + 0.0j, 0.5 + 0.0j), _flat),
    "im": Primitive(lambda v: complex(v.imag, 0.0),
                    lambda v: (-0.5j, 0.5j), _flat),
    "abs": Primitive(lambda v: complex(abs(v), 0.0),
                     _abs_partials, _abs_second),
    "abs2": Primitive(
        lambda v: complex(v.real * v.real + v.imag * v.imag, 0.0),
        lambda v: (v.conjugate(), v),
        lambda v: (0.0j, 1.0 + 0.0j, 0.0j),
    ),
    "arg": Primitive(_arg_value, _arg_partials, _arg_second),
}


def apply_primitive(name: str, a: WirtingerJet) -> WirtingerJet:
    """Chain rule for one primitive applied on top of a jet."""
    p = PRIMITIVES[name]
    v = a.value
    try:
        value = p.value(v)
        gz, gzc = p.partials(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        # a stack's m values: a TypeError, or a ValueError from arg's v == 0
        if exc.__class__ is TypeError or getattr(v, "ndim", 0):
            raise DimensionMismatch(f"{name} takes one value, got a "
                                    f"{v.__class__.__name__}") from None
        raise DomainError(
            f"{name} outside its domain at {v!r}: {exc}") from None
    return chain(value, gz, gzc, a)
