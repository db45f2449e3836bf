"""Second-order jets: the four second partials in z and z* on top of a jet.

A ``SecondOrderJet`` stores the six derivative slots

    dz, dzc, dzz (d2/dz2), dzzc (d2/dz dz*), dzcz (d2/dz* dz), dzczc (d2/dz*2)

as a flat record; the last four are the 2x2 block, row by row.  Both mixed
slots are kept, each from its own mirrored formula: they agree to rounding,
and the mirror keeps exact zeros and a real-valued function's block
structure.  ``expr.eval_jet(e, c, order=2)`` builds one.
The rules build their results with a slot filler (``object.__new__`` plus
the seven slot descriptors) instead of the dataclass ``__init__``; the
result equals, prints and pickles like ``SecondOrderJet(...)`` of the same
slots and is frozen like it; that public constructor is unchanged.

The rules below are the first-order rules differentiated once more, with
no pole checks: ``expr.eval_jet`` reports their ZeroDivisionError at a pole
as PoleError.  Every primitive of ``forward.PRIMITIVES`` has its second
partials, so every expression the parser accepts has an order-2 jet away
from poles and domain boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, _require_finite, _require_tol
from .forward import PRIMITIVES, _new, _pow_error


@dataclass(frozen=True, slots=True)
class SecondOrderJet:
    value: complex
    dz: complex
    dzc: complex
    dzz: complex
    dzzc: complex
    dzcz: complex
    dzczc: complex

    @property
    def mixed_symmetry_gap(self) -> float:
        """|dzzc - dzcz|: rounding, not a smoothness test."""
        return abs(self.dzzc - self.dzcz)


_ZERO = 0.0 + 0.0j

# The rules build their results with a slot filler instead of the dataclass
# __init__, which sets the 7 fields through object.__setattr__; see
# forward._fill.  Unrolled, like it.
_set_value = SecondOrderJet.value.__set__
_set_dz = SecondOrderJet.dz.__set__
_set_dzc = SecondOrderJet.dzc.__set__
_set_dzz = SecondOrderJet.dzz.__set__
_set_dzzc = SecondOrderJet.dzzc.__set__
_set_dzcz = SecondOrderJet.dzcz.__set__
_set_dzczc = SecondOrderJet.dzczc.__set__


def _fill(value, dz, dzc, dzz, dzzc, dzcz, dzczc) -> SecondOrderJet:
    j = _new(SecondOrderJet)
    _set_value(j, value)
    _set_dz(j, dz)
    _set_dzc(j, dzc)
    _set_dzz(j, dzz)
    _set_dzzc(j, dzzc)
    _set_dzcz(j, dzcz)
    _set_dzczc(j, dzczc)
    return j


def seed_variable2(c: complex) -> SecondOrderJet:
    return _fill(_require_finite(c, "seed point"), 1.0 + 0.0j,
                 _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)


def constant2(k: complex) -> SecondOrderJet:
    return _fill(_require_finite(k, "constant"), _ZERO,
                 _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)


def add2(a: SecondOrderJet, b: SecondOrderJet) -> SecondOrderJet:
    return _fill(a.value + b.value, a.dz + b.dz, a.dzc + b.dzc,
                 a.dzz + b.dzz, a.dzzc + b.dzzc,
                 a.dzcz + b.dzcz, a.dzczc + b.dzczc)


def sub2(a: SecondOrderJet, b: SecondOrderJet) -> SecondOrderJet:
    return _fill(a.value - b.value, a.dz - b.dz, a.dzc - b.dzc,
                 a.dzz - b.dzz, a.dzzc - b.dzzc,
                 a.dzcz - b.dzcz, a.dzczc - b.dzczc)


def neg2(a: SecondOrderJet) -> SecondOrderJet:
    return _fill(-a.value, -a.dz, -a.dzc,
                 -a.dzz, -a.dzzc, -a.dzcz, -a.dzczc)


def mul2(a: SecondOrderJet, b: SecondOrderJet) -> SecondOrderJet:
    av, bv = a.value, b.value
    return _fill(
        av * bv,
        a.dz * bv + av * b.dz,
        a.dzc * bv + av * b.dzc,
        a.dzz * bv + 2.0 * a.dz * b.dz + av * b.dzz,
        a.dzzc * bv + a.dz * b.dzc + a.dzc * b.dz + av * b.dzzc,
        a.dzcz * bv + a.dzc * b.dz + a.dz * b.dzc + av * b.dzcz,
        a.dzczc * bv + 2.0 * a.dzc * b.dzc + av * b.dzczc,
    )


def div2(a: SecondOrderJet, b: SecondOrderJet) -> SecondOrderJet:
    # q = a / b differentiated from q b = a, one division by b per slot
    # (no b**2 or b**3 to underflow): q_x = (a_x - q b_x) / b and
    # q_xy = (a_xy - q b_xy - q_x b_y - q_y b_x) / b
    v = b.value
    q = a.value / v
    qz = (a.dz - q * b.dz) / v
    qzc = (a.dzc - q * b.dzc) / v
    return _fill(
        q,
        qz,
        qzc,
        (a.dzz - q * b.dzz - 2.0 * qz * b.dz) / v,
        (a.dzzc - q * b.dzzc - qz * b.dzc - qzc * b.dz) / v,
        (a.dzcz - q * b.dzcz - qzc * b.dz - qz * b.dzc) / v,
        (a.dzczc - q * b.dzczc - 2.0 * qzc * b.dzc) / v,
    )


def power_int2(a: SecondOrderJet, k: int) -> SecondOrderJet:
    v = a.value
    if k == 0:
        return _fill(v ** 0, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)
    try:
        g = k * v ** (k - 1)
        gg = _ZERO if k == 1 else k * (k - 1) * v ** (k - 2)
    except ZeroDivisionError:
        raise _pow_error(v, k) from None
    return _fill(
        v ** k,
        g * a.dz,
        g * a.dzc,
        gg * a.dz * a.dz + g * a.dzz,
        gg * a.dz * a.dzc + g * a.dzzc,
        gg * a.dzc * a.dz + g * a.dzcz,
        gg * a.dzc * a.dzc + g * a.dzczc,
    )


def apply_primitive2(name: str, a: SecondOrderJet) -> SecondOrderJet:
    """Chain rule carried to second order for one primitive."""
    p = PRIMITIVES[name]
    v = a.value
    try:
        value = p.value(v)
        gz, gzc = p.partials(v)
        gzz, gzzc, gzczc = p.second_partials(v)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(
            f"{name} outside its domain at {v!r}: {exc}") from None

    A, B = a.dz, a.dzc
    Ac, Bc = A.conjugate(), B.conjugate()

    # z / z* derivatives of g_z(f) and g_zc(f) along the inner function;
    # g_zzc is both mixed partials of g
    p_z = gzz * A + gzzc * Bc
    p_zc = gzz * B + gzzc * Ac
    q_z = gzzc * A + gzczc * Bc
    q_zc = gzzc * B + gzczc * Ac

    return _fill(
        value,
        gz * A + gzc * Bc,
        gz * B + gzc * Ac,
        p_z * A + gz * a.dzz + q_z * Bc + gzc * a.dzczc.conjugate(),
        p_zc * A + gz * a.dzzc + q_zc * Bc + gzc * a.dzcz.conjugate(),
        p_z * B + gz * a.dzcz + q_z * Ac + gzc * a.dzzc.conjugate(),
        p_zc * B + gz * a.dzczc + q_zc * Ac + gzc * a.dzz.conjugate(),
    )


def second_order_taylor(jet: SecondOrderJet, h: complex) -> complex:
    """Quadratic model value, finite or DomainError, at displacement ``h``
    (scalar contract: ``errors``) from the jet's base point:

        f(c) + dz*h + dzc*h* + (dzz*h^2 + (dzzc+dzcz)*h*h* + dzczc*h*^2) / 2
    """
    h = _require_finite(h, "displacement")
    hc = h.conjugate()
    quad = (jet.dzz * h * h + (jet.dzzc + jet.dzcz) * h * hc
            + jet.dzczc * hc * hc)
    return _require_finite(jet.value + jet.dz * h + jet.dzc * hc + 0.5 * quad)


def hessian_is_real_consistent(jet: SecondOrderJet,
                               tol: float = 1e-10) -> bool:
    """Checks the structure a real-valued function must produce: dzzc real,
    dzz the conjugate of dzczc, and (dz)* = dzc; ``tol`` as ``classify``'s."""
    _require_tol(tol)
    scale = 1.0 + max(abs(jet.dzz), abs(jet.dzzc), abs(jet.dzcz),
                      abs(jet.dzczc))
    return (abs(jet.dzzc.imag) <= tol * scale
            and abs(jet.dzz - jet.dzczc.conjugate()) <= tol * scale
            and abs(jet.dz.conjugate() - jet.dzc) <= tol * (1.0 + abs(jet.dz)))
