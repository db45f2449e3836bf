"""Finite-dimensional complex Hilbert space: functionals on C^n carrying a
scalar value plus a pair of gradient vectors.

Vectors are 1-D ``complex128`` numpy arrays, frozen so every value handed
around is immutable.  One check, ``_checked``, reads every vector argument
in place; only what is kept is copied (``hvec``, ``FunctionalJet(...)``),
and the new arrays of a ``forward`` rule are frozen once, by ``_fresh``.
The inner product is linear in the FIRST argument and conjugate-linear in
the second,

    inner(f, g) = sum_k f_k * conj(g_k),

which is the convention under which the gradient of f -> inner(f, w) is
conj(w) with vanishing conjugate gradient.  A ``FunctionalJet`` is a
``WirtingerJet`` whose derivative slots hold frozen gradient vectors:

    value          : T(c)
    dz  (grad_f)   : gradient with f* held formally constant
    dzc (grad_fc)  : gradient with f held formally constant (the
                     steepest-ascent direction when T is real valued)

so the scalar rules of ``forward`` (``add``, ``mul``, ``div``, ``conj``,
``apply_primitive``, ...) combine functional jets unchanged; the scalar
calculus is the case n = 1.  A stacked ``FunctionalJet`` holds m jets in
(m,) and (n, m) slots: the jet of an operator C^n -> C^m, one component
per column, so the assembled least-squares cost applies each rule once to
its m terms; ``squared_distance`` gives their jet in closed form.
``fd_gradients`` is the independent oracle: coordinate-wise central
differences along the real and imaginary unit directions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import forward as fw
from .errors import (DimensionMismatch, DomainError, _array, _parameter,
                     _require_finite)
from .fdcheck import (DEFAULT_STEP, DEFAULT_TOL, HolomorphyReport,
                      _checked_step, holomorphy_report, wirtinger_pair)
from .forward import _new, _set_dz, _set_dzc, _set_value

HVec = np.ndarray

Functional = Callable[[HVec], "FunctionalJet"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked(coords, n: int = 0) -> np.ndarray:
    """``coords`` as a complex128 array, read in place, once it is found a
    1-D vector of dimension ``n`` (any dimension >= 1 when ``n`` is 0),
    then all finite.  A complex128 ndarray skips ``errors._array``."""
    a = (coords if coords.__class__ is np.ndarray
         and coords.dtype == np.complex128 else _array(coords))
    if a.ndim != 1 or a.size < 1 or (n and a.size != n):
        raise DimensionMismatch(f"expected a 1-D vector of dimension "
                                f"{n or '>= 1'}, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise DomainError("vector has non-finite coordinates")
    return a


def hvec(coords) -> HVec:
    """Validate and freeze a coordinate vector (length >= 1, all finite)."""
    return _freeze(_checked(coords).copy())


def inner(f: HVec, g: HVec) -> complex:
    """sum_k f_k * conj(g_k); linear in f, conjugate-linear in g.  Takes
    two ``hvec``-valid vectors of one dimension; DomainError on overflow."""
    f = _checked(f)
    g = _checked(g, f.size)
    return _require_finite(complex(np.vdot(g, f)), "inner product")


@dataclass(frozen=True, slots=True, eq=False)
class FunctionalJet(fw.WirtingerJet):
    """Jet of one functional on C^n, or of a stack of m functionals at one
    point, in frozen complex128 slots: a complex ``value`` and (n,)
    gradients ``dz``/``dzc``, or for a stack an (m,) ``value`` and (n, m)
    gradients, column k for jet k, n and m >= 1.  ``forward``'s rules
    broadcast over a stack's last axis; those that need one value (div,
    apply_primitive, chain with scalar partials) raise DimensionMismatch on
    it, as does mixing a single jet with a stack.  S(T(f)) for a scalar S
    is ``chain`` of S's jet at ``T.value``: this module reads no expression.
    The constructor refuses a non-finite slot with DomainError.  Equality
    compares all three slots; like their arrays, jets are unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.value, other.value)
                and np.array_equal(self.dz, other.dz)
                and np.array_equal(self.dzc, other.dzc))

    def __post_init__(self):
        value, gf, gfc = (_array(a).copy()
                          for a in (self.value, self.dz, self.dzc))
        if (value.ndim > 1 or not gf.size or gf.ndim != value.ndim + 1
                or gf.shape[1:] != value.shape or gfc.shape != gf.shape):
            raise DimensionMismatch(
                f"slot shapes {value.shape}, {gf.shape} and {gfc.shape} do "
                "not make a FunctionalJet")
        if not all(np.isfinite(a).all() for a in (value, gf, gfc)):
            raise DomainError("a FunctionalJet slot is not finite")
        _set_value(self, _freeze(value) if value.ndim else complex(value))
        _set_dz(self, _freeze(gf))
        _set_dzc(self, _freeze(gfc))

    def __reduce__(self):  # as a rule result, whose gradient may be inf
        return _unpickle, (self.value, self.dz, self.dzc)

    @staticmethod
    def _fresh(value, dz, dzc) -> FunctionalJet:
        """Jet from slot arrays nothing else holds: complex128 gradients of
        shape (n,) or (n, m), such as a ``forward`` rule computes from
        frozen slots.  They are frozen in place, not copied; the
        constructor's copy and checks are for arrays a caller passes in.
        The value must be finite (DomainError), a stack's an (m,) array
        (DimensionMismatch); gradients go unchecked."""
        if dz.ndim == 1:
            value = complex(value)
            if not cmath.isfinite(value):
                raise DomainError(f"a jet's value {value!r} is not finite")
        elif value.__class__ is not np.ndarray or value.shape != dz.shape[1:]:
            raise DimensionMismatch(
                f"a stack of {dz.shape[-1]} jets got the value {value!r}")
        elif np.count_nonzero(np.isfinite(value)) != value.size:
            raise DomainError("a stacked jet's value is not finite")
        else:
            value.setflags(write=False)
        dz.setflags(write=False)
        dzc.setflags(write=False)
        j = _new(FunctionalJet)
        _set_value(j, value)
        _set_dz(j, dz)
        _set_dzc(j, dzc)
        return j

    @property
    def grad_f(self) -> np.ndarray:
        return self.dz

    @property
    def grad_fc(self) -> np.ndarray:
        return self.dzc

    def total(self) -> FunctionalJet:
        """The jet of the sum of a stack's jets; a single jet is its own."""
        if self.dz.ndim == 1:
            return self
        # the ufunc reductions that .sum() wraps, without the wrapper
        return FunctionalJet._fresh(np.add.reduce(self.value),
                                    np.add.reduce(self.dz, 1),
                                    np.add.reduce(self.dzc, 1))


def _unpickle(value, dz, dzc) -> FunctionalJet:
    # copies: an array unpickled from an out-of-band buffer shares it
    return FunctionalJet._fresh(np.copy(value) if np.ndim(value) else value,
                                dz.copy(), dzc.copy())


def functional_constant(k, n: int) -> FunctionalJet:
    """Jet of the constant functional ``k`` on C^n; a vector of m >= 1
    constants gives their stack.  ``n`` keeps the parameter rule."""
    k = _array(k).copy()
    if k.ndim > 1 or not k.size or _parameter(n, "n", integer=True) < 1:
        raise DimensionMismatch(f"need a constant or m >= 1 of them and "
                                f"n >= 1, got shape {k.shape} and n = {n}")
    zero = np.zeros((n,) + k.shape, dtype=np.complex128)  # _fresh freezes it
    return FunctionalJet._fresh(k, zero, zero)


def ip_functional(kind: str, w, c: HVec) -> FunctionalJet:
    """Jet of one of the four inner-product functionals evaluated at ``c``.

    kind 'fw'  : f -> inner(f, w)   gradients (conj(w), 0)
    kind 'wf'  : f -> inner(w, f)   gradients (0, w)
    kind 'fcw' : f -> inner(f*, w)  gradients (0, conj(w))
    kind 'wfc' : f -> inner(w, f*)  gradients (w, 0)

    A row stack ``w`` of shape (m, n), m >= 1, gives the stack of the m
    functionals, one per row.
    """
    w = _array(w)
    c = _checked(c)
    if w.ndim not in (1, 2) or not w.size or w.shape[-1:] != c.shape:
        raise DimensionMismatch(f"expected a vector or a row stack of "
                                f"dimension {c.size}, got shape {w.shape}")
    # every slot array is made here: w itself may be the caller's array;
    # each value is the inner(...) of the docstring, one per row of w, and
    # a non-finite one is _fresh's DomainError, with no numpy warning first
    wt = w.T
    zero = np.zeros(wt.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "fw":
            return FunctionalJet._fresh(np.conj(w) @ c, np.conj(wt), zero)
        if kind == "wf":
            return FunctionalJet._fresh(w @ np.conj(c), zero, wt.copy())
        if kind == "fcw":
            return FunctionalJet._fresh(np.conj(w) @ np.conj(c), zero,
                                        np.conj(wt))
        if kind == "wfc":
            return FunctionalJet._fresh(w @ c, wt.copy(), zero)
    raise ValueError(f"unknown inner-product kind {kind!r}")


def squared_distance(w: HVec) -> Functional:
    """Program for f -> ||f - w||^2 in the paper's closed form: with
    u = c - w, the value sum_j u_j conj(u_j) and gradients (conj(u), u),
    by one ``_checked`` and no copy per call.  ``test_squared_distance_is_*``
    pin it to the rule stack: bitwise, but for the sign of a zero."""
    w = hvec(w)

    def program(c: HVec) -> FunctionalJet:
        c = _checked(c, w.size)     # before c - w can broadcast
        # overflow warns nothing: a non-finite value is _fresh's DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            u = c - w
            uc = u.conj()
            return FunctionalJet._fresh(np.add.reduce(u * uc), uc, u)

    return program


# --------------------------------------------------------------------------
# finite-difference oracle and classification
# --------------------------------------------------------------------------


def fd_gradients(T: Callable[[HVec], complex], c: HVec,
                 step: float = DEFAULT_STEP) -> tuple[HVec, HVec]:
    """``fd_partials`` of T along each coordinate's real and imaginary unit
    directions; returns the pair (grad1, grad2), finite as ``fd_partials``."""
    c = _checked(c)
    s = _checked_step(step)
    t = np.array([0j + s, 0j - s, 0j + 1j * s, 0j - 1j * s])  # fd_partials' t
    base = c + t[:, None] * np.zeros_like(c)    # row k: c + t_k 0, made once
    g1, g2 = np.empty_like(c), np.empty_like(c)
    for j, cj in enumerate(c):
        p = base.copy()     # row k: c + t_k e_j to the bit, T's to keep
        p[:, j] = cj + t
        fp, fm, fpi, fmi = (complex(T(point)) for point in p)
        g1[j], g2[j] = (fp - fm) / (2.0 * s), (fpi - fmi) / (2.0 * s)
    if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise DomainError(f"non-finite difference quotient at step {s:g}")
    return _freeze(g1), _freeze(g2)


def fd_wirtinger_gradients(T: Callable[[HVec], complex], c: HVec,
                           step: float = DEFAULT_STEP) -> tuple[HVec, HVec]:
    """(W-gradient, CW-gradient) reconstructed from the directional pair."""
    gw, gcw = wirtinger_pair(*fd_gradients(T, c, step))
    return _freeze(gw), _freeze(gcw)


def classify_functional(T: Callable[[HVec], complex], c: HVec,
                        step: float = DEFAULT_STEP,
                        tol: float = DEFAULT_TOL) -> HolomorphyReport:
    """Threshold the finite-difference W/CW gradient norms at ``c``.  A
    ``tol`` that is NaN or below 0 raises ValueError."""
    gw, gcw = fd_wirtinger_gradients(T, c, step)
    return holomorphy_report(gw, gcw, float(np.linalg.norm(gw)),
                             float(np.linalg.norm(gcw)), tol)


# --------------------------------------------------------------------------
# vector-valued operators
# --------------------------------------------------------------------------


def stack_vector_operator(
        components: Sequence[FunctionalJet]) -> FunctionalJet:
    """The stacked jet of an operator C^n -> C^m from the single jets of its
    m components, component k in value k and gradient column k."""
    comps = list(components)
    if not comps:
        raise DimensionMismatch("cannot stack zero components")
    shape = comps[0].dz.shape
    for j in comps:
        if j.dz.ndim != 1 or j.dz.shape != shape:
            raise DimensionMismatch(
                f"components must be single jets of one dimension: gradient "
                f"shapes {j.dz.shape} and {shape}")
    return FunctionalJet._fresh(
        np.array([j.value for j in comps], dtype=np.complex128),
        np.column_stack([j.dz for j in comps]),
        np.column_stack([j.dzc for j in comps]))
