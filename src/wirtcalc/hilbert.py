"""Finite-dimensional complex Hilbert space: functionals on C^n carrying a
scalar value plus a pair of gradient vectors.

Vectors are 1-D ``complex128`` numpy arrays, frozen so every value handed
around is immutable.  An array a caller passes in is copied where it enters
(``hvec``, the ``FunctionalJet`` constructor, ``ip_functional``) and never
frozen or shared; the arrays a rule of ``forward`` computes for its result
are new, so they are frozen in place instead of copied.  Rule results
(``forward``'s rules, ``ip_functional``, ``functional_constant``) come from
``FunctionalJet._fresh``, the slot filler of ``forward`` plus that freeze;
the public ``FunctionalJet(value, dz, dzc)`` keeps its conversion, shape
checks and copies.  The inner product is
linear in the FIRST argument and conjugate-linear in the second,

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
calculus is the case n = 1.  ``fd_gradients`` is the independent oracle:
coordinate-wise central differences along the real and imaginary unit
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import forward as fw
from .errors import DimensionMismatch, DomainError, StepTooSmall
from .fdcheck import (DEFAULT_STEP, DEFAULT_TOL, MIN_STEP, HolomorphyReport,
                      fd_partials, holomorphy_report, wirtinger_pair)
from .forward import _new, _set_dz, _set_dzc, _set_value

HVec = np.ndarray

Functional = Callable[[HVec], "FunctionalJet"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def hvec(coords) -> HVec:
    """Validate and freeze a coordinate vector (length >= 1, all finite)."""
    a = np.array(coords, dtype=np.complex128, copy=True)
    if a.ndim != 1 or a.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("vector has non-finite coordinates")
    return _freeze(a)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


def inner(f: HVec, g: HVec) -> complex:
    """sum_k f_k * conj(g_k); linear in f, conjugate-linear in g."""
    f = np.asarray(f)
    g = np.asarray(g)
    _check_same_dim(f, g)
    return complex(np.vdot(g, f))


@dataclass(frozen=True, slots=True, eq=False)
class FunctionalJet(fw.WirtingerJet):
    """Scalar value of a functional plus its two gradient vectors, held in
    the ``dz``/``dzc`` slots as frozen 1-D complex128 arrays.  Equality
    compares all three slots; like their arrays, jets are unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value == other.value
                and np.array_equal(self.dz, other.dz)
                and np.array_equal(self.dzc, other.dzc))

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        gf = np.array(self.dz, dtype=np.complex128, copy=True)
        gfc = np.array(self.dzc, dtype=np.complex128, copy=True)
        if gf.ndim != 1 or gfc.shape != gf.shape:
            raise DimensionMismatch(
                f"gradient shapes differ: {gf.shape} vs {gfc.shape}")
        object.__setattr__(self, "dz", _freeze(gf))
        object.__setattr__(self, "dzc", _freeze(gfc))

    def __reduce__(self):  # numpy unpickles writeable arrays: re-freeze
        return FunctionalJet, (self.value, self.dz, self.dzc)

    @staticmethod
    def _fresh(value, dz, dzc) -> FunctionalJet:
        """Jet from slot arrays nothing else holds: 1-D complex128 of one
        shape, such as a ``forward`` rule computes from frozen slots.  They
        are frozen in place and stored by the slot filler of ``forward``;
        the constructor's copy and checks are for arrays a caller passes
        in."""
        j = _new(FunctionalJet)
        _set_value(j, complex(value))
        dz.setflags(write=False)
        _set_dz(j, dz)
        dzc.setflags(write=False)
        _set_dzc(j, dzc)
        return j

    @property
    def grad_f(self) -> np.ndarray:
        return self.dz

    @property
    def grad_fc(self) -> np.ndarray:
        return self.dzc

    @property
    def dim(self) -> int:
        return self.dz.shape[0]


def functional_constant(k: complex, n: int) -> FunctionalJet:
    return FunctionalJet._fresh(k, np.zeros(n, dtype=np.complex128),
                                np.zeros(n, dtype=np.complex128))


def ip_functional(kind: str, w: HVec, c: HVec) -> FunctionalJet:
    """Jet of one of the four inner-product functionals evaluated at ``c``.

    kind 'fw'  : f -> inner(f, w)   gradients (conj(w), 0)
    kind 'wf'  : f -> inner(w, f)   gradients (0, w)
    kind 'fcw' : f -> inner(f*, w)  gradients (0, conj(w))
    kind 'wfc' : f -> inner(w, f*)  gradients (w, 0)
    """
    w = np.asarray(w, dtype=np.complex128)
    c = np.asarray(c)
    if w.ndim != 1 or c.shape != w.shape:
        raise DimensionMismatch(
            f"expected two 1-D vectors of one dimension, got shapes "
            f"{w.shape} and {c.shape}")
    # every slot array is made here: w itself may be the caller's array;
    # each value is the inner(...) of the docstring, vdot(g, f) for
    # inner(f, g)
    zero = np.zeros(w.shape[0], dtype=np.complex128)
    if kind == "fw":
        return FunctionalJet._fresh(np.vdot(w, c), np.conj(w), zero)
    if kind == "wf":
        return FunctionalJet._fresh(np.vdot(c, w), zero, w.copy())
    if kind == "fcw":
        return FunctionalJet._fresh(np.vdot(w, np.conj(c)), zero, np.conj(w))
    if kind == "wfc":
        return FunctionalJet._fresh(np.vdot(np.conj(c), w), w.copy(), zero)
    raise ValueError(f"unknown inner-product kind {kind!r}")


def outer_chain(s, a: FunctionalJet) -> FunctionalJet:
    """Jet of S(T(f)) for a scalar outer function S given as an expression
    in z (and conj(z)); its scalar jet is evaluated at the value slot."""
    sj = ex.eval_jet(s, a.value, order=1)
    return fw.chain(sj.value, sj.dz, sj.dzc, a)


def squared_distance(w: HVec) -> Functional:
    """Program for f -> ||f - w||^2, assembled from coordinate projections
    inner(f, e_j) and the product-with-conjugate rule."""
    w = hvec(w)
    n = w.shape[0]
    basis = np.eye(n, dtype=np.complex128)

    def program(c: HVec) -> FunctionalJet:
        total = functional_constant(0.0, n)
        for j in range(n):
            r = fw.sub(ip_functional("fw", basis[j], c),
                       functional_constant(w[j], n))
            total = fw.add(total, fw.mul(r, fw.conj(r)))
        return total

    return program


# --------------------------------------------------------------------------
# finite-difference oracle and classification
# --------------------------------------------------------------------------


def fd_gradients(T: Callable[[HVec], complex], c: HVec,
                 step: float = DEFAULT_STEP) -> tuple[HVec, HVec]:
    """``fd_partials`` of T along each coordinate's real and imaginary unit
    directions; returns the complex-valued pair (grad1, grad2)."""
    if step < MIN_STEP:
        raise StepTooSmall(f"step {step:g} below {MIN_STEP:g}")
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[0]
    g1 = np.empty(n, dtype=np.complex128)
    g2 = np.empty(n, dtype=np.complex128)
    for j, e_j in enumerate(np.eye(n, dtype=np.complex128)):
        g1[j], g2[j] = fd_partials(lambda t: complex(T(c + t * e_j)), 0j, step)
    return _freeze(g1), _freeze(g2)


def fd_wirtinger_gradients(T: Callable[[HVec], complex], c: HVec,
                           step: float = DEFAULT_STEP) -> tuple[HVec, HVec]:
    """(W-gradient, CW-gradient) reconstructed from the directional pair."""
    gw, gcw = wirtinger_pair(*fd_gradients(T, c, step))
    return _freeze(gw), _freeze(gcw)


def classify_functional(T: Callable[[HVec], complex], c: HVec,
                        step: float = DEFAULT_STEP,
                        tol: float = DEFAULT_TOL) -> HolomorphyReport:
    """Threshold the finite-difference W/CW gradient norms at ``c``."""
    gw, gcw = fd_wirtinger_gradients(T, c, step)
    return holomorphy_report(gw, gcw, float(np.linalg.norm(gw)),
                             float(np.linalg.norm(gcw)), tol)


# --------------------------------------------------------------------------
# vector-valued operators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientStack:
    """Row-stacked gradients of a C^nu-valued operator: one (grad_f,
    grad_fc) pair per component."""

    values: np.ndarray     # shape (nu,)
    grads_f: np.ndarray    # shape (nu, n)
    grads_fc: np.ndarray   # shape (nu, n)

    def __len__(self) -> int:
        return self.values.shape[0]


def stack_vector_operator(components: Sequence[FunctionalJet]) -> GradientStack:
    comps = list(components)
    if not comps:
        raise DimensionMismatch("cannot stack zero components")
    n = comps[0].dim
    for j in comps[1:]:
        if j.dim != n:
            raise DimensionMismatch(
                f"components live in different spaces: {j.dim} vs {n}")
    values = np.array([j.value for j in comps], dtype=np.complex128)
    grads_f = np.vstack([j.grad_f for j in comps])
    grads_fc = np.vstack([j.grad_fc for j in comps])
    return GradientStack(_freeze(values), _freeze(grads_f), _freeze(grads_fc))
