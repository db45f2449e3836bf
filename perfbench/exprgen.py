"""Seeded expression trees, rendered twice: as wirtcalc text and as a plain
cmath closure, plus the central-difference reference built on the closure.

Trees are tuples:

    ("z",) ("zc",) ("c", complex)
    ("neg", a) ("pow", a, k) ("call", name, a)
    ("+", a, b) ("-", a, b) ("*", a, b) ("/", a, b)
    ("sum", [terms])                       chain: t1 + t2 + ... + tn

The generator never builds a shape the wirtcalc parser folds (a negated or
powered literal, or two literals joined by '+'/'-'), so ``nodes(tree)`` is
also the node count of ``wirtcalc.parse(text(tree))``.

Nothing here imports wirtcalc: the reference must stay independent of the
code under test.
"""

from __future__ import annotations

import cmath
import math
import random

PREC_ADD, PREC_MUL, PREC_UNARY, PREC_POW, PREC_ATOM = 1, 2, 3, 4, 5

FUNCS = ("exp", "log", "sin", "cos", "sqrt", "conj", "re", "im", "abs",
         "abs2", "arg")
#: ``abs`` has no second-order rule in wirtcalc
FUNCS2 = tuple(f for f in FUNCS if f != "abs")


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _num(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _const_text(w: complex) -> tuple[str, int]:
    if w.imag == 0.0:
        s = _num(w.real)
    elif w.real == 0.0:
        s = _num(w.imag) + "i"
    else:
        sign = "+" if w.imag > 0 else "-"
        return f"({_num(w.real)}{sign}{_num(abs(w.imag))}i)", PREC_ATOM
    return s, (PREC_UNARY if s.startswith("-") else PREC_ATOM)


def _prec(t) -> int:
    op = t[0]
    if op in ("+", "-", "sum"):
        return PREC_ADD
    if op in ("*", "/"):
        return PREC_MUL
    if op == "neg":
        return PREC_UNARY
    if op == "pow":
        return PREC_POW
    if op == "c":
        return _const_text(t[1])[1]
    return PREC_ATOM


def text(t) -> str:
    """wirtcalc expression text with minimal parentheses."""
    op = t[0]
    if op == "z":
        return "z"
    if op == "zc":
        return "zc"
    if op == "c":
        return _const_text(t[1])[0]
    if op == "neg":
        inner = text(t[1])
        return f"-({inner})" if _prec(t[1]) < PREC_UNARY else f"-{inner}"
    if op == "pow":
        base = text(t[1])
        if _prec(t[1]) < PREC_ATOM:
            base = f"({base})"
        return f"{base}^{t[2]}"
    if op == "call":
        return f"{t[1]}({text(t[2])})"
    if op == "sum":
        parts = [text(s) if _prec(s) > PREC_ADD else f"({text(s)})"
                 for s in t[1]]
        return "+".join(parts)
    prec = PREC_ADD if op in "+-" else PREC_MUL
    left, right = text(t[1]), text(t[2])
    if _prec(t[1]) < prec:
        left = f"({left})"
    if _prec(t[2]) <= prec:
        right = f"({right})"
    return f"{left}{op}{right}"


def cli_text(t) -> str:
    """Like ``text`` but never starting with '-', which argparse would take
    for an option."""
    s = text(t)
    return f"({s})" if s.startswith("-") else s


def nodes(t) -> int:
    op = t[0]
    if op in ("z", "c"):
        return 1
    if op == "zc":
        return 2
    if op in ("neg", "pow"):
        return 1 + nodes(t[1])
    if op == "call":
        return 1 + nodes(t[2])
    if op == "sum":
        return sum(nodes(s) for s in t[1]) + len(t[1]) - 1
    return 1 + nodes(t[1]) + nodes(t[2])


# --------------------------------------------------------------------------
# closures
# --------------------------------------------------------------------------

class Edge(Exception):
    """The point sits on or next to a domain edge of some primitive, or an
    intermediate value is huge."""


#: |argument| below which a primitive with a domain edge at 0 is refused
EDGE = 1e-6


def _guard(f):
    """``f`` refusing arguments near 0 or on the branch cut along the
    negative real axis, where the side taken hangs on rounding."""
    def g(v):
        if abs(v) < EDGE or (v.real < 0 and abs(v.imag) <= EDGE * -v.real):
            raise Edge
        return f(v)
    return g


#: |intermediate| above which a primitive, power, product or quotient is
#: refused: a huge intermediate under a tiny result leaves no usable
#: reference
BIG = 1e8


def _bounded(w: complex) -> complex:
    if abs(w) > BIG:
        raise Edge
    return w


_PRIM = {
    "exp": cmath.exp,
    "log": _guard(cmath.log),
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sqrt": _guard(cmath.sqrt),
    "conj": lambda v: v.conjugate(),
    "re": lambda v: complex(v.real, 0.0),
    "im": lambda v: complex(v.imag, 0.0),
    "abs": _guard(lambda v: complex(abs(v), 0.0)),
    "abs2": lambda v: complex(v.real * v.real + v.imag * v.imag, 0.0),
    "arg": _guard(lambda v: complex(cmath.phase(v), 0.0)),
}


def literal_value(w: complex) -> complex:
    """The value the text of a literal denotes.  A leading minus negates the
    unsigned literal, which also flips the sign of its zero part; that sign
    picks the side of a branch cut."""
    if w.imag == 0.0 and w.real < 0:
        return -complex(-w.real, 0.0)
    if w.real == 0.0 and w.imag < 0:
        return -complex(0.0, -w.imag)
    return complex(w)


def closure(t):
    """Plain cmath function of one complex argument computing the tree."""
    op = t[0]
    if op == "z":
        return lambda z: z
    if op == "zc":
        return lambda z: z.conjugate()
    if op == "c":
        w = literal_value(t[1])
        return lambda z: w
    if op == "neg":
        a = closure(t[1])
        return lambda z: -a(z)
    if op == "pow":
        a, k = closure(t[1]), t[2]
        return lambda z: _bounded(a(z) ** k)
    if op == "call":
        f, a = _PRIM[t[1]], closure(t[2])
        return lambda z: _bounded(f(a(z)))
    if op == "sum":
        parts = [closure(s) for s in t[1]]
        return lambda z: sum((p(z) for p in parts), 0j)
    a, b = closure(t[1]), closure(t[2])
    if op == "+":
        return lambda z: a(z) + b(z)
    if op == "-":
        return lambda z: a(z) - b(z)
    if op == "*":
        return lambda z: _bounded(a(z) * b(z))
    return lambda z: _bounded(a(z) / b(z))


# --------------------------------------------------------------------------
# central-difference reference
# --------------------------------------------------------------------------

H1 = 1e-5      # first-order step
H2 = 1e-3      # second-order step
#: largest |value| a reference point may have
VMAX = 1e6


def _d1(f, c, h):
    fx = (f(c + h) - f(c - h)) / (2 * h)
    fy = (f(c + 1j * h) - f(c - 1j * h)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _d2(f, c, h, f0):
    ih = 1j * h
    fxx = (f(c + h) - 2 * f0 + f(c - h)) / (h * h)
    fyy = (f(c + ih) - 2 * f0 + f(c - ih)) / (h * h)
    fxy = (f(c + h + ih) - f(c + h - ih) - f(c - h + ih)
           + f(c - h - ih)) / (4 * h * h)
    return ((fxx - fyy - 2j * fxy) / 4, (fxx + fyy) / 4,
            (fxx + fyy) / 4, (fxx - fyy + 2j * fxy) / 4)


def _close(a, b, tol, scale):
    return abs(a - b) <= tol * (scale + abs(b))


def _extrapolated(est, f, c, h, tol, scale):
    """Richardson-extrapolate the central differences ``est`` from steps h
    and 2h, and accept the result only if the same from 2h and 4h agrees
    within ``tol``: the error left after extrapolation falls as h^4."""
    a, b, e = est(f, c, h), est(f, c, 2 * h), est(f, c, 4 * h)
    out = []
    for x, y, w in zip(a, b, e):
        r1 = (4 * x - y) / 3
        r2 = (4 * y - w) / 3
        if not (cmath.isfinite(r1) and _close(r1, r2, tol, scale)):
            return None
        out.append(r1)
    return out


def reference(f, c: complex, order: int):
    """Reference jet at ``c`` as a tuple (value, dz, dzc[, dzz, dzzc, dzcz,
    dzczc]), or None when the point is unusable: a domain edge, a huge
    value, or step estimates that disagree (a pole, a branch cut or a
    rough function nearby)."""
    try:
        v = f(c)
        if not (cmath.isfinite(v) and abs(v) <= VMAX):
            return None
        scale = 1 + abs(v)
        d1 = _extrapolated(_d1, f, c, H1, 1e-7, scale)
        if d1 is None:
            return None
        if order < 2:
            return (v, *d1)
        d2 = _extrapolated(lambda f, c, h: _d2(f, c, h, v), f, c, H2,
                           1e-6, scale)
        return None if d2 is None else (v, *d1, *d2)
    except (Edge, ZeroDivisionError, OverflowError, ValueError):
        return None


def jet_matches(got, ref, order: int) -> bool:
    """Compare a wirtcalc jet (as a tuple of slots) with ``reference``."""
    v = ref[0]
    if not all(cmath.isfinite(g) for g in got):
        return False
    if not _close(got[0], v, 1e-9, 1e-12):
        return False
    for g, r in zip(got[1:3], ref[1:3]):
        if not _close(g, r, 1e-6, 1 + abs(v)):
            return False
    if order == 2:
        for g, r in zip(got[3:7], ref[3:7]):
            if not _close(g, r, 1e-5, 1 + abs(v)):
                return False
    return True


def verdict(f, c: complex, ref) -> str | None:
    """The holomorphy verdict wirtcalc's classify defines: the central
    differences (step 1e-5) of both Wirtinger slots thresholded at 1e-4.
    None when a slot sits within a factor 3 of the threshold, or when the
    differences and the reference ``ref`` fall on different sides of it."""
    sides = []
    for pair in (_d1(f, c, H1), ref[1:3]):
        side = []
        for x in pair[::-1]:            # (dzc, dz): Cauchy-Riemann first
            m = abs(x)
            if 1e-4 / 3 < m < 3e-4:
                return None
            side.append(m < 1e-4)
        sides.append(tuple(side))
    if sides[0] != sides[1]:
        return None
    return {(True, True): "Both", (True, False): "Holomorphic",
            (False, True): "ConjugateHolomorphic",
            (False, False): "Neither"}[sides[0]]


def newton_step(ref):
    """Newton displacement of a real-valued cost from its order-2
    reference jet, solved in x and y, or None when the Hessian is near
    singular."""
    _, dz, _, dzz, dzzc, _, _ = ref
    fx, fy = 2 * dz.real, -2 * dz.imag
    fxx = 2 * (dzzc.real + dzz.real)
    fyy = 2 * (dzzc.real - dzz.real)
    fxy = -2 * dzz.imag
    det = fxx * fyy - fxy * fxy
    if abs(det) < 1e-6 * (fxx * fxx + fyy * fyy):
        return None
    return complex(-(fyy * fx - fxy * fy) / det, -(fxx * fy - fxy * fx) / det)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def rng_for(seed: int, purpose: str) -> random.Random:
    """Independent deterministic stream per seed and purpose."""
    return random.Random(f"wirtcalc-perfbench:{seed}:{purpose}")


def _const(rng: random.Random) -> complex:
    mag = rng.uniform(0.2, 1.5)
    kind = rng.random()
    if kind < 0.6:
        return complex(round(rng.choice((-1, 1)) * mag, 3), 0.0)
    if kind < 0.75:
        return complex(0.0, round(rng.choice((-1, 1)) * mag, 3))
    return complex(round(rng.uniform(-1.2, 1.2), 3),
                   round(rng.uniform(-1.2, 1.2), 3) or 0.5)


def _leaf(rng):
    r = rng.random()
    if r < 0.5:
        return ("z",)
    if r < 0.65:
        return ("zc",)
    return ("c", _const(rng))


def _is_const(t) -> bool:
    return t[0] == "c"


def random_tree(rng: random.Random, n: int, funcs=FUNCS, depth: int = 0):
    """Random tree of about ``n`` nodes (exactly n unless a leaf ``zc``
    overshoots by one).  Depth stays far below the parser's nesting cap."""
    if n <= 1:
        return _leaf(rng)
    if n == 2:
        r = rng.random()
        if r < 0.3:
            return ("zc",)
        if r < 0.6:
            return ("call", rng.choice(funcs), _leaf(rng))
        if r < 0.8:
            return ("pow", ("z",), rng.choice((2, 3, -1)))
        return ("neg", ("z",))
    unary = rng.random() < (0.35 if depth < 10 else 0.05)
    if unary:
        r = rng.random()
        sub = random_tree(rng, n - 1, funcs, depth + 1)
        if r < 0.7:
            return ("call", rng.choice(funcs), sub)
        if r < 0.85 and not _is_const(sub):
            return ("pow", sub, rng.choice((2, 3, -1, -2)))
        if _is_const(sub):
            return ("call", rng.choice(funcs), sub)
        return ("neg", sub)
    lo = max(1, (n - 1) // 4) if depth > 6 else 1
    k = rng.randint(lo, n - 1 - lo)
    a = random_tree(rng, k, funcs, depth + 1)
    b = random_tree(rng, n - 1 - k, funcs, depth + 1)
    if _is_const(a) and _is_const(b):
        b = ("z",)  # the parser would fold two literals into one
    op = rng.choice("++--**/")
    return (op, a, b)


#: probe points used to reject subtrees that are wild over the whole disk
_PROBES = [1.2 * cmath.rect(math.sqrt((k + 0.5) / 12), 2.399963 * k)
           for k in range(12)]


def tame(t) -> bool:
    f = closure(t)
    good = 0
    for p in _PROBES:
        try:
            v = f(p)
        except (Edge, ZeroDivisionError, OverflowError, ValueError):
            continue
        if cmath.isfinite(v) and abs(v) < 1e4:
            good += 1
    return good >= 9


def tame_tree(rng: random.Random, n: int, funcs=FUNCS):
    """Random tree of about ``n`` nodes whose values stay moderate over the
    sampling disk; trees above 40 nodes are sums and differences of tame
    parts, so that large trees stay tame too."""
    if n > 40:
        k = rng.randint(n // 3, n - 1 - n // 3)
        a = tame_tree(rng, k, funcs)
        b = tame_tree(rng, n - 1 - k, funcs)
        return (rng.choice("++-"), a, b)
    while True:
        t = random_tree(rng, n, funcs)
        if tame(t):
            return t


def chain(rng: random.Random, terms: int):
    """A flat sum of ``terms`` short terms; its nesting depth in wirtcalc's
    tree equals the term count."""
    out = []
    for _ in range(terms):
        r = rng.random()
        if r < 0.3:
            out.append(("z",))
        elif r < 0.5:
            out.append(("zc",))
        elif r < 0.75:
            out.append(("*", ("c", _const(rng)), ("z",)))
        else:
            out.append(("pow", ("z",), 2))
    return ("sum", out)


def point(rng: random.Random) -> complex:
    """Uniform point in the disk |z| <= 1.5, rounded so that it prints
    exactly."""
    r = 1.5 * math.sqrt(rng.random())
    th = rng.uniform(-math.pi, math.pi)
    return complex(round(r * math.cos(th), 4), round(r * math.sin(th), 4))


def complex_text(w: complex) -> str:
    """A point as text the wirtcalc grammar reads back exactly."""
    sign = "+" if w.imag >= 0 else "-"
    return f"{_num(w.real)}{sign}{_num(abs(w.imag))}i"


def good_points(rng, t, f, order: int, count: int, tries: int = 400):
    """``count`` points with a usable reference at ``order``, each paired
    with that reference; fewer when the tree is rough almost everywhere."""
    out = []
    for _ in range(tries):
        if len(out) == count:
            break
        c = point(rng)
        ref = reference(f, c, order)
        if ref is not None:
            out.append((c, ref))
    return out
