"""Shared corpus, point samplers, and independent oracles for the tests."""

import random

import numpy as np
import pytest

from wirtcalc import expr as ex
from wirtcalc.expr import eval_jet

# Expressions mixing holomorphic, conjugate-holomorphic and mixed structure.
# All are evaluable (and smooth) on the sampling region used below.
CORPUS = [
    "z^2",
    "conj(z)",
    "z^3 - i*z + conj(z)^2",
    "1/z",
    "(z^2 + conj(z))^3",
    "z*conj(z)",
    "exp(z)",
    "log(z)",
    "sqrt(z)",
    "sin(z)*conj(z)",
    "cos(z^2)",
    "abs2(z)",
    "abs(z)",
    "arg(z)",
    "re(z)*im(z)",
    "exp(z*conj(z))",
    "(z + conj(z))/(2 + z*conj(z))",
    "i*z^3 - conj(z)/z",
    "sin(conj(z))",
    "exp(i*z) + conj(z)^3",
]

CONJUGATION_FREE = [
    "z^2",
    "1/z",
    "exp(z)",
    "z^3 - i*z",
    "cos(z^2)",
    "sqrt(z)",
    "log(z)",
    "sin(z)",
]

CONJUGATED_POLYNOMIALS = [
    "conj(z^3 - i*z)",
    "conj(exp(z))",
    "conj(z^2 + z)",
    "conj(z^2)*conj(z)",
]

# real-valued by construction, all with second-order support
REAL_COSTS = [
    "z*conj(z)",
    "(z-(1+2i))*conj(z-(1+2i))",
    "abs2(z^2 - 1)",
    "re(z)^2",
    "im(z)^2 + re(z)*im(z)",
    "exp(z*conj(z))",
    "abs2(exp(z))",
    "z*conj(z) + re(z^3)",
    "abs2(z)/(1 + abs2(z))",
    "log(1 + z*conj(z))",
]


def sample_point(rng: random.Random) -> complex:
    """Point in an annulus kept away from the origin and the negative real
    axis, so every corpus entry is smooth and FD never straddles the cut."""
    while True:
        re = rng.uniform(0.15, 1.6)
        im = rng.uniform(-1.4, 1.4)
        z = complex(re, im)
        if 0.35 <= abs(z) <= 1.8:
            return z


def sample_points(seed: int, count: int) -> list[complex]:
    rng = random.Random(seed)
    return [sample_point(rng) for _ in range(count)]


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / (1.0 + abs(want))


def fd_second_partials(e, c: complex, step: float = 5e-4):
    """Second-difference oracle for (d2/dz2, d2/dz dz*, d2/dz*2), built only
    from plain evaluations on a 3x3 stencil."""
    g = lambda z: eval_jet(e, z, order=0)
    s = step
    f0 = g(c)
    fxx = (g(c + s) - 2.0 * f0 + g(c - s)) / (s * s)
    fyy = (g(c + 1j * s) - 2.0 * f0 + g(c - 1j * s)) / (s * s)
    fxy = (g(c + s + 1j * s) - g(c + s - 1j * s)
           - g(c - s + 1j * s) + g(c - s - 1j * s)) / (4.0 * s * s)
    dzz = 0.25 * (fxx - fyy - 2j * fxy)
    dzzc = 0.25 * (fxx + fyy)
    dzczc = 0.25 * (fxx - fyy + 2j * fxy)
    return dzz, dzzc, dzczc


# --------------------------------------------------------------------------
# random canonical ASTs for the round-trip property
# --------------------------------------------------------------------------

_CONST_POOL = [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, -2.0, -0.25]


def _random_const(rng: random.Random) -> ex.Const:
    kind = rng.randrange(4)
    if kind == 0:
        return ex.Const(complex(rng.choice(_CONST_POOL), 0.0))
    if kind == 1:
        return ex.Const(complex(0.0, rng.choice(_CONST_POOL[1:])))
    if kind == 2:
        return ex.Const(complex(rng.uniform(-4, 4), 0.0))
    return ex.Const(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))


def random_ast(rng: random.Random, depth: int) -> ex.Expr:
    """Random tree in the parser's canonical form: no negated or
    exponentiated constant nodes, no constant-only additive pairs."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice([ex.Var(), _random_const(rng), ex.Var()])
    kind = rng.randrange(7)
    if kind in (0, 1):  # additive
        left = random_ast(rng, depth - 1)
        right = random_ast(rng, depth - 1)
        if isinstance(left, ex.Const) and isinstance(right, ex.Const):
            right = ex.Var()
        return ex.Add(left, right) if kind == 0 else ex.Sub(left, right)
    if kind == 2:
        return ex.Mul(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 3:
        return ex.Div(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 4:
        inner = random_ast(rng, depth - 1)
        if isinstance(inner, ex.Const):
            inner = ex.Var()
        return ex.Neg(inner)
    if kind == 5:
        base = random_ast(rng, depth - 1)
        if isinstance(base, ex.Const):
            base = ex.Var()
        return ex.Pow(base, rng.randint(-64, 64))
    fn = rng.choice(sorted(ex.PRIMITIVES))
    return ex.Call(fn, random_ast(rng, depth - 1))


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)
