"""Gradient-based minimization of real-valued costs of complex arguments.

The steepest-descent update moves against the conjugate-derivative slot,

    z_next = z - mu * (df/dz*)          (scalar)
    f_next = f - mu * grad_fc           (Hilbert space)

because for real-valued costs that slot is the direction of maximal
increase.  Stationarity of real costs is symmetric: the two derivative
slots are conjugates of each other, so driving one below the threshold
drives both.

What each entry loads, and when, is stated in the package docstring.
"""

from __future__ import annotations

import cmath
import enum
import functools
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (DimensionMismatch, DomainError, EmptyData, NonRealCost,
                     PoleError, SingularHessian, _holds_bool)

if TYPE_CHECKING:
    import numpy as np

    from . import expr as ex
    from . import hilbert as hb

log = logging.getLogger("wirtcalc.optimize")


@functools.cache
def _lib():
    """numpy and ``hilbert``, cached: the least-squares hot path reads them."""
    import numpy as np

    from . import hilbert as hb
    return np, hb


#: tolerated |imag(cost)| at the starting point / along the run
IMAG_TOL_START = 1e-10
IMAG_TOL_DRIFT = 1e-8
#: a run whose cost exceeds this multiple of the initial cost has diverged
DIVERGENCE_FACTOR = 10.0
#: backtracking: step shrink factor and Armijo sufficient-decrease constant
SHRINK = 0.5
ARMIJO_C = 1e-4


class Termination(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    DIVERGED = "Diverged"
    STALLED = "Stalled"         # the line search found no decrease


@dataclass
class DescentConfig:
    """Step size, stop tolerance, iteration budget and step rule of a run.
    A bad value raises ValueError, and a ``max_iter`` that is not an
    integer (``1.5``, ``nan``) TypeError."""

    mu: float = 0.1
    tol: float = 1e-8
    max_iter: int = 1000
    step_mode: str = "fixed"          # "fixed" | "backtracking"

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.step_mode not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step_mode {self.step_mode!r}")
        if operator.index(self.max_iter) < 0:
            raise ValueError("max_iter must be non-negative")


@dataclass
class DescentTrace:
    """Iterate / cost / gradient-norm history of one minimization run."""

    iterates: list = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    termination: Termination = Termination.MAX_ITER

    @property
    def final(self):
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    def json_lines(self):
        """One JSON record per recorded iterate:
        {"iter": k, "z" or "f": ..., "cost": ..., "grad_norm": ...}."""
        for k, (x, cost, gn) in enumerate(
                zip(self.iterates, self.costs, self.grad_norms)):
            if isinstance(x, complex):
                point = {"z": [x.real, x.imag]}
            else:
                point = {"f": [[w.real, w.imag] for w in x]}
            yield json.dumps({"iter": k, **point, "cost": cost,
                              "grad_norm": gn})


def _check_real(value: complex, tol: float) -> float:
    if not (abs(value.imag) <= tol):
        raise NonRealCost(
            f"cost has imaginary part {value.imag:.3e} beyond {tol:g}")
    return value.real


def _descend(value_of: Callable, jet_of: Callable, grad_norm_of: Callable,
             x0, cfg: DescentConfig) -> DescentTrace:
    """Shared loop: scalar and Hilbert descent differ only in the callbacks.
    ``jet_of(x)`` returns a jet whose ``dzc`` slot is the gradient to step
    against; ``value_of(x)`` the bare cost, for the line search.

    The trace records finite costs and gradient norms only.  A cost or
    gradient that is out of its domain or not finite raises DomainError
    at the start and ends the run as DIVERGED later, without recording
    the iterate."""
    trace = DescentTrace()
    x = x0
    initial_cost = None
    debug = log.isEnabledFor(logging.DEBUG)     # read once per run
    for k in range(cfg.max_iter + 1):
        try:
            jet = jet_of(x)
            grad = jet.dzc
            gn = grad_norm_of(grad)
            if not (cmath.isfinite(jet.value) and math.isfinite(gn)):
                raise DomainError(f"cost {jet.value!r} or gradient norm "
                                  f"{gn!r} is not finite")
        except (DomainError, PoleError):
            if k == 0:
                raise
            # the step left the cost's domain or overflowed it
            trace.termination = Termination.DIVERGED
            return trace
        tol_imag = IMAG_TOL_START if k == 0 else IMAG_TOL_DRIFT
        cost = _check_real(jet.value, tol_imag)
        trace.iterates.append(x)
        trace.costs.append(cost)
        trace.grad_norms.append(gn)
        if debug:
            log.debug("iter %d: cost=%.6e grad_norm=%.6e", k, cost, gn)
        if initial_cost is None:
            initial_cost = cost
        if cost > DIVERGENCE_FACTOR * abs(initial_cost) + 1e-30:
            trace.termination = Termination.DIVERGED
            return trace
        if gn < cfg.tol:
            trace.termination = Termination.CONVERGED
            return trace
        if k == cfg.max_iter:
            break
        if cfg.step_mode == "fixed":
            x = x - cfg.mu * grad
        else:
            t = cfg.mu
            accepted = False
            for _ in range(60):
                candidate = x - t * grad
                try:
                    c_new = _check_real(value_of(candidate), IMAG_TOL_DRIFT)
                except (DomainError, PoleError):
                    c_new = math.inf    # no cost there: shrink the step
                if c_new <= cost - ARMIJO_C * t * gn * gn:
                    x = candidate
                    accepted = True
                    break
                t *= SHRINK
            if not accepted:
                trace.termination = Termination.STALLED
                return trace
    trace.termination = Termination.MAX_ITER
    return trace


def steepest_descent_scalar(cost: str | ex.Expr | ex.Tape, z0: complex,
                            cfg: DescentConfig) -> DescentTrace:
    """Minimize a real-valued expression in z, z* (text, AST or tape) from
    the point ``z0`` (scalar contract: ``errors``), compiling it once."""
    from . import expr, forward
    tape = expr.compile_expr(cost)
    return _descend(
        value_of=lambda z: expr.eval_jet(tape, z, order=0),
        jet_of=lambda z: expr.eval_jet(tape, z, order=1),
        grad_norm_of=abs,
        x0=forward._require_finite(z0, "starting point"),
        cfg=cfg,
    )


def steepest_descent_hilbert(cost: hb.Functional, f0: hb.HVec,
                             cfg: DescentConfig) -> DescentTrace:
    """Minimize a real-valued functional program from the vector ``f0``."""
    np, hb = _lib()
    f0 = hb.hvec(f0)
    # the loop checks every cost and gradient norm it records, so numpy's
    # overflow and invalid-value warnings would only repeat that check
    with np.errstate(all="ignore"):
        return _descend(
            value_of=lambda f: cost(f).value,
            jet_of=cost,
            # ||g|| overflows to inf as np.linalg.norm does, in fewer calls
            grad_norm_of=lambda g: math.sqrt(np.vdot(g, g).real),
            x0=f0,
            cfg=cfg,
        )


# --------------------------------------------------------------------------
# least squares
# --------------------------------------------------------------------------


class LeastSquaresProgram:
    """Residual-sum-of-squares functional over C^n (or C^2n when widely
    linear): T(f) = sum_k |d_k - inner(w_k, f)|^2 with w_k the sample vector
    (widely linear pairs the sample with its conjugate, ``w_k = [x_k; x_k*]``,
    so the parameter holds both filter halves).

    The program keeps the N x n samples ``X`` (one C-ordered complex128
    copy) and the targets, never the augmented ``W = [X, X*]``, whose
    conjugate half holds no new data.  Its residual is
    ``r = d - W conj(c)`` (strict, ``W = X``).  The first call factors
    ``[X | d] = Q [R_X | r_d]`` and keeps only the small triangle: a complex
    QR when strict; widely linear, a real QR of the real view of
    ``[X | d]``, whose ``R`` read as complex (each Re, Im column pair one
    column) is ``[R_X | r_d]``.  That ``Q`` is real, so ``X* = Q conj(R_X)``
    and ``[W | d] = Q [R_W | r_d]`` with ``R_W = [R_X, conj(R_X)]``.  As ``Q``
    has orthonormal columns, ``e = r_d - R_W conj(c)`` gives the value
    ``||r||^2 = ||e||^2`` and ``grad_f = -W^H r = -R_W^H e``, and
    ``grad_fc`` is its conjugate.  Cached in conjugate space, as
    ``conj(R_W)``, ``-R_W^T`` and ``conj(r_d)``, the triangle gives
    ``grad_fc = -R_W^T e*``, ``e* = conj(r_d) - conj(R_W) c``, with no
    conjugate of ``c`` and no negation: a call runs one path in both modes and
    makes no pass over the N samples.  ``e`` carries a rounding of order
    eps ||[X | d]||, also at an exact fit, so for ||[X | d]|| above about
    1e160 the value or gradient overflows there (DomainError); so does
    every call when a column norm of ``[X | d]`` overflows.
    ``eval_assembled`` builds the same jet from the inner-product rules and
    the product-with-conjugate rule, each applied once to the stacked
    ``FunctionalJet`` of all N samples' terms, and the test suite pins the
    two paths together.  Data that are not a finite array of rows and one
    target per row raise ``EmptyData``, ``DimensionMismatch``,
    ``DomainError`` or, for a bool, TypeError, and so does a parameter that is not a finite vector of
    dimension ``n_params``.  What a build and a call load: see the package
    docstring.
    """

    def __init__(self, X: Sequence, d: Sequence[complex],
                 widely_linear: bool = False):
        import numpy as np

        try:
            # C order: [X | d] is then C-ordered too, as its real view needs
            self._X = np.array(X, dtype=np.complex128, order="C")
            self._d = np.array(d, dtype=np.complex128)
        except (TypeError, ValueError) as exc:  # ragged rows, not numbers
            raise DimensionMismatch(
                f"samples and targets do not make arrays: {exc}") from None
        except OverflowError:       # an int beyond float range
            raise DomainError("a least-squares sample or target is beyond "
                              "float range: not finite") from None
        if _holds_bool(X) or _holds_bool(d):     # numpy read it as 0 or 1
            raise TypeError("a least-squares sample or target is a bool")
        X, d = self._X, self._d
        if X.ndim and not X.shape[0]:
            raise EmptyData("least squares needs at least one sample")
        if X.ndim != 2 or not X.shape[1] or d.shape != X.shape[:1]:
            raise DimensionMismatch(
                f"need sample rows of one dimension >= 1 and a target each, "
                f"got shapes {X.shape} and {d.shape}")
        if not (np.isfinite(X).all() and np.isfinite(d).all()):
            raise DomainError("a least-squares sample or target is not finite")
        self.widely_linear = bool(widely_linear)

    @property
    def n_params(self) -> int:
        return self._X.shape[1] * (2 if self.widely_linear else 1)

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``conj(R_W)``, ``-R_W^T`` and ``conj(r_d)`` of
        ``[W | d] = Q [R_W | r_d]``, each a contiguous array."""
        np = _lib()[0]
        Z = np.hstack([self._X, self._d[:, None]])
        if self.widely_linear:
            R = np.linalg.qr(Z.view(np.float64), mode="r")
            R = np.ascontiguousarray(R).view(np.complex128)
        else:
            R = np.linalg.qr(Z, mode="r")
        if not np.isfinite(R).all():
            raise DomainError("the samples and targets are too large to "
                              "factor: a column norm overflows")
        n = self._X.shape[1]
        RX = R[:, :n]
        RW = np.hstack([RX, RX.conj()]) if self.widely_linear else RX
        return (np.ascontiguousarray(RW.conj()),
                np.ascontiguousarray(-RW.T), R[:, n].conj())

    def __call__(self, c: hb.HVec) -> hb.FunctionalJet:
        np, hb = _lib()
        c = hb._checked(c, self.n_params)
        RWc, mRWT, rdc = self._factor
        ec = rdc - RWc @ c                      # conj(e)
        # ||e||^2 over the real view: an overflow reads inf, never nan
        value = complex(np.vdot(ec.view(np.float64), ec.view(np.float64)))
        grad_fc = mRWT @ ec
        # both slot arrays are new: frozen in place, not copied
        return hb.FunctionalJet._fresh(value, grad_fc.conj(), grad_fc)

    def eval_assembled(self, c: hb.HVec) -> hb.FunctionalJet:
        np, hb = _lib()
        # the augmented rows live for this call only
        W = (np.hstack([self._X, np.conj(self._X)]) if self.widely_linear
             else self._X)
        fw = hb.fw
        r = fw.sub(hb.functional_constant(self._d, self.n_params),
                   hb.ip_functional("wf", W, c))
        return fw.mul(r, fw.conj(r)).total()


def build_least_squares(X: Sequence, d: Sequence[complex],
                        widely_linear: bool = False) -> LeastSquaresProgram:
    """Least-squares cost program for ``steepest_descent_hilbert``."""
    return LeastSquaresProgram(X, d, widely_linear)


# --------------------------------------------------------------------------
# Newton step
# --------------------------------------------------------------------------

DET_TOL = 1e-12
NEWTON_CONJ_TOL = 1e-8


def newton_step_scalar(cost: str | ex.Expr | ex.Tape, z: complex) -> complex:
    """One Newton displacement for a real-valued cost: solve the 2x2 system

        [dzz  dzzc ] [dz_step ]     [dz ]
        [dzcz dzczc] [dzc_step] = - [dzc]

    from the quadratic model and return dz_step.  For a genuinely real cost
    the second row is the conjugate of the first, so the solved pair must be
    conjugate; a violation (like a singular or non-real block) raises
    SingularHessian and callers should fall back to a gradient step.  A
    caller that steps repeatedly compiles ``cost`` (text, AST or tape) once.
    ``z`` keeps the scalar contract of ``errors``."""
    from . import expr
    j = expr.eval_jet(cost, z, order=2)
    _check_real(j.value, IMAG_TOL_DRIFT)
    scale = max(abs(j.dzz), abs(j.dzzc), abs(j.dzcz), abs(j.dzczc))
    if scale == 0.0:
        raise SingularHessian("second-order block is identically zero")
    det = j.dzz * j.dzczc - j.dzzc * j.dzcz
    if abs(det) <= DET_TOL * scale * scale:
        raise SingularHessian(f"determinant {abs(det):.3e} below threshold")
    step = (-j.dz * j.dzczc + j.dzzc * j.dzc) / det
    step_c = (j.dzcz * j.dz - j.dzz * j.dzc) / det
    if abs(step_c - step.conjugate()) > NEWTON_CONJ_TOL * (1.0 + abs(step)):
        raise SingularHessian(
            "solved displacement pair is not a conjugate pair")
    return step
