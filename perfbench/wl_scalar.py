"""The scalar workload: one request is a bundle of the three phases
``sweep``, ``oneshot`` and ``descent`` (``Scalar``).

Each workload object owns its generated inputs and their references, and
offers ``setup`` (build the program-side inputs through wirtcalc),
``request(i)`` (the i-th request, generated outside the timed region, as
``(args, expect)``: what the program receives and what the check needs),
``run(req)`` (the timed part: public wirtcalc calls only) and
``check(req, out)`` (compare with the reference; returns an outcome).

``build(wc, payload)`` and ``execute(wc, state, args)`` are static, so the
set-up probe can rebuild the inputs and run requests in a fresh process
that holds nothing else (``probe.py``).
"""

from __future__ import annotations

import cmath
import math
import time

import exprgen as g

OK, DEFECT, FAILED = "ok", "defect", "failed"

#: chain lengths: below and above the depth at which wirtcalc's recursive
#: evaluator stops (~990 terms), kept well away from that edge
SWEEP_CHAIN_TERMS = (350, 650, 1120, 1200)
#: oneshot chains: the printer already stops from ~490 terms
ONESHOT_CHAIN_TERMS = (350, 600, 800, 1100)


def run_steps(steps):
    """Run ``steps`` (callables taking the previous result) until one raises;
    returns (results, exception or None)."""
    results, prev = [], None
    for step in steps:
        try:
            prev = step(prev)
        except Exception as exc:  # any raw exception is an observed outcome
            return results, exc
        results.append(prev)
    return results, None


def same_tree(a, b) -> bool:
    """Structural equality of two wirtcalc trees, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        vx, vy = vars(x), vars(y)
        if vx.keys() != vy.keys():
            return False
        for k, u in vx.items():
            w = vy[k]
            if hasattr(u, "__dict__") and hasattr(w, "__dict__"):
                stack.append((u, w))
            elif u != w:
                return False
    return True


def jet_slots(j, order: int):
    if order == 0:
        return (j,)
    if order == 1:
        return (j.value, j.dz, j.dzc)
    return (j.value, j.dz, j.dzc, j.dzz, j.dzzc, j.dzcz, j.dzczc)


def stratified(rng, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi], jittered within their
    stratum, so that the total work barely depends on the seed."""
    width = (hi - lo) / count
    return [int(lo + width * (k + rng.random())) for k in range(count)]


class Workload:
    """What the scalar and Hilbert workloads share."""

    #: request indices the set-up probe runs to measure peak RSS
    RSS_REQUESTS = range(0)

    def payload(self) -> dict:
        return {}

    @staticmethod
    def build(wc, payload):
        return None

    def setup(self):
        self.state = self.build(self.wc, self.payload())

    def run(self, req):
        return self.execute(self.wc, self.state, req[0])

    def rss_requests(self) -> list:
        return [self.request(i)[0] for i in self.RSS_REQUESTS]


def _chain_terms(rng, base: int) -> int:
    return base + rng.randint(-5, 5)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

class Sweep(Workload):
    """Each tree of a seeded corpus is parsed once and evaluated at many
    points at orders 0, 1 and 2.  One request is one tree at one point, all
    three orders."""

    name = "sweep"
    POINTS = 16          # reference points per tree
    VISIT = 4            # consecutive points per visit of a tree

    def __init__(self, wc, seed: int):
        self.wc = wc
        rng = g.rng_for(seed, "sweep")
        sizes = (stratified(rng, 5, 30, 24) + stratified(rng, 30, 150, 20)
                 + stratified(rng, 150, 400, 12))
        self.trees = []          # (tree, text, [(point, reference)], chain)
        for n, chain in ([(n, False) for n in sizes]
                         + [(n, True) for n in SWEEP_CHAIN_TERMS]):
            while True:
                t = (g.chain(rng, _chain_terms(rng, n)) if chain
                     else g.tame_tree(rng, n, g.FUNCS2))
                pts = g.good_points(rng, t, g.closure(t), 2, self.POINTS)
                if len(pts) == self.POINTS:
                    break
            self.trees.append((t, g.text(t), pts, chain))
        self.visits = [(k, v) for k in range(len(self.trees))
                       for v in range(self.VISIT)]

    def payload(self):
        return {"texts": [t[1] for t in self.trees]}

    @staticmethod
    def build(wc, payload):
        return [wc.parse(s) for s in payload["texts"]]

    def request(self, i: int):
        k, v = self.visits[i % len(self.visits)]
        lap = i // len(self.visits)
        c, ref = self.trees[k][2][(v + self.VISIT * lap) % self.POINTS]
        return (k, c), ref

    @staticmethod
    def execute(wc, exprs, args):
        e, c = exprs[args[0]], args[1]
        out = []
        for order in (0, 1, 2):
            try:
                out.append(wc.eval_jet(e, c, order))
            except Exception as exc:
                out.append(exc)
        return out

    def check(self, req, out) -> str:
        (k, _), ref = req
        chain = self.trees[k][3]
        verdict = OK
        for order, r in enumerate(out):
            if isinstance(r, RecursionError) and chain:
                verdict = DEFECT
            elif isinstance(r, Exception):
                return FAILED
            elif not g.jet_matches(jet_slots(r, order), ref, order):
                return FAILED
        values = [jet_slots(r, o)[0] for o, r in enumerate(out)
                  if not isinstance(r, Exception)]
        if any(v != values[0] for v in values):
            return FAILED    # the value slot must agree bitwise across orders
        return verdict


# --------------------------------------------------------------------------
# oneshot
# --------------------------------------------------------------------------

class Oneshot(Workload):
    """Every request is expression text never seen before:
    parse -> format_expr -> parse -> order-1 eval_jet -> classify.

    A fixed share of requests are known-defect probes (ROADMAP item 4) and
    long chains (item 2); they are counted as defects, not as failures,
    while wirtcalc still shows the defect.  The shares, one request in 50
    and one in 100, are assumed, not taken from observed traffic."""

    name = "oneshot"
    PROBE_EVERY, PROBE_AT = 50, 17
    CHAIN_EVERY, CHAIN_AT = 100, 42

    def __init__(self, wc, seed: int):
        self.wc = wc
        self.rng = g.rng_for(seed, "oneshot")
        self.sizes = sorted(stratified(self.rng, 5, 150, 32),
                            key=lambda _: self.rng.random())

    def _probe(self, kind: int):
        rng = self.rng
        if kind == 0:       # |z|^k overflows inside the integer power
            k = rng.randint(60, 64)
            a = round(rng.uniform(0.1, 0.9), 3)
            c = complex(1e10 * rng.uniform(1, 2), 1e9 * rng.uniform(-1, 1))
            return f"(z-{a})^{k}", c
        if kind == 1:       # v*v underflows to 0 though |v| > POLE_FLOOR
            a = round(rng.uniform(0.5, 3), 3)
            c = cmath.rect(10 ** rng.uniform(-240, -170),
                           rng.uniform(-3, 3))
            return f"{a}/z", c
        a = round(rng.uniform(355, 400), 3)   # the product overflows
        b = round(rng.uniform(355, 400), 3)
        return f"exp({a})*exp({b})", g.point(rng)

    def request(self, i: int):
        rng = self.rng
        if i % self.PROBE_EVERY == self.PROBE_AT:
            text, c = self._probe((i // self.PROBE_EVERY) % 3)
            return (text, c), ("probe", None)
        if i % self.CHAIN_EVERY == self.CHAIN_AT:
            base = ONESHOT_CHAIN_TERMS[(i // self.CHAIN_EVERY)
                                       % len(ONESHOT_CHAIN_TERMS)]
            kind, n = "chain", None
        else:
            kind, n = "tree", self.sizes[i % len(self.sizes)]
        while True:
            t = (g.tame_tree(rng, n, g.FUNCS) if n
                 else g.chain(rng, _chain_terms(rng, base)))
            f = g.closure(t)
            for c, ref in g.good_points(rng, t, f, 1, 8):
                v = g.verdict(f, c, ref)
                if v is not None:
                    return (g.text(t), c), (kind, (ref, v))

    @staticmethod
    def execute(wc, _, args):
        text, c = args
        return run_steps((
            lambda _: wc.parse(text),
            lambda e: (e, wc.format_expr(e)),
            lambda p: (p[0], wc.parse(p[1])),
            lambda p: (p[0], p[1], wc.eval_jet(p[1], c, 1)),
            lambda p: (*p, wc.classify(p[1], c)),
        ))

    def check(self, req, out) -> str:
        kind, expect = req[1]
        results, exc = out
        if kind == "probe":
            if isinstance(exc, self.wc.WirtcalcError) and len(results) == 3:
                return OK
            if exc is not None and not isinstance(exc, self.wc.WirtcalcError):
                return DEFECT
            if len(results) >= 4 and not cmath.isfinite(results[3][2].value):
                return DEFECT
            return FAILED
        if kind == "chain" and isinstance(exc, RecursionError):
            return DEFECT
        if exc is not None:
            return FAILED
        e, e2, j, rep = results[4]
        ref, verdict = expect
        if not same_tree(e, e2):
            return FAILED
        if not g.jet_matches(jet_slots(j, 1), ref, 1):
            return FAILED
        return OK if rep.verdict.value == verdict else FAILED


# --------------------------------------------------------------------------
# descent
# --------------------------------------------------------------------------

def _u(a: complex):
    return ("-", ("z",), ("c", a))


def _real(x: float):
    return ("c", complex(round(x, 3), 0.0))


def descent_cost(rng, k: int):
    """Real-valued cost number ``k`` with its minimizer ``a`` built in.
    Every term is a nonnegative function of u = z - a that vanishes only at
    u = 0, and the isotropic term keeps the cost strongly convex near a.
    The terms and their weights follow ``k``; the seed moves ``a`` and
    jitters the weights by 3%, so the iteration counts barely depend on it.
    Returns (tree, a, curvature bound) for the update z -= mu * df/dz*."""
    def weight(x):
        return x * rng.uniform(0.97, 1.03)

    a = complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(0.1, 1), 3)
                * rng.choice((-1, 1)))
    u = _u(a)
    p = weight(0.5 + 0.5 * (k % 4) / 3)
    terms = [("*", _real(p), ("call", "abs2", u))]
    hi = p
    kinds = ("re", "im", "quart", "prod", "expt", "sin")
    for j in range(1 + k % 5):
        kind = kinds[(k + j) % len(kinds)]
        w = weight(0.1 + 0.3 * ((k + 3 * j) % 7) / 6)
        if kind in ("re", "im"):
            terms.append(("*", _real(w), ("pow", ("call", kind, u), 2)))
            hi += w
        elif kind == "quart":
            terms.append(("*", _real(w), ("pow", ("call", "abs2", u), 2)))
            hi += 8.64 * w
        elif kind == "prod":
            terms.append(("*", _real(w), ("*", u, ("call", "conj", u))))
            hi += w
        elif kind == "expt":
            om = 0.3 + 0.1 * ((k + j) % 5)
            inner = ("call", "abs2", ("*", _real(om), u))
            terms.append(("*", _real(w), ("-", ("call", "exp", inner),
                                         _real(1.0))))
            hi += w * math.exp(1.44 * om * om) * (om * om + 2.88 * om ** 4)
        else:
            w /= 4
            terms.append(("*", _real(w), ("call", "abs2", ("call", "sin", u))))
            hi += 5.6 * w
    tree = terms[0]
    for t in terms[1:]:
        tree = ("+", tree, t)
    return tree, a, hi


class Descent(Workload):
    """Steepest descent (fixed step and backtracking) plus one Newton step
    on seeded real costs whose minimizer is known by construction.  One
    request is one cost from one start: both minimizations to tol, then a
    Newton step at the start."""

    name = "descent"
    COSTS = 15      # odd, so the latency median falls inside one cost
    STARTS = 8
    TOL = 1e-8

    def __init__(self, wc, seed: int):
        self.wc = wc
        rng = g.rng_for(seed, "descent")
        self.costs = []   # (text, a, mu, [(z0, newton reference)])
        for k in range(self.COSTS):
            while True:
                t, a, hi = descent_cost(rng, k)
                f = g.closure(t)
                starts = []
                for s in range(self.STARTS):
                    angle = 2 * math.pi * (s + rng.uniform(0, 0.1)) / self.STARTS
                    z0 = a + cmath.rect(0.8, angle)
                    z0 = complex(round(z0.real, 4), round(z0.imag, 4))
                    ref = g.reference(f, z0, 2)
                    step = None if ref is None else g.newton_step(ref)
                    if step is not None:
                        starts.append((z0, step))
                if len(starts) == self.STARTS:
                    break
            self.costs.append((g.text(t), a, 0.9 / hi, starts))

    def payload(self):
        return {"texts": [c[0] for c in self.costs],
                "mus": [c[2] for c in self.costs]}

    @staticmethod
    def build(wc, payload):
        tol = Descent.TOL
        return [(wc.parse(s),
                 wc.DescentConfig(mu=mu, tol=tol, max_iter=5000),
                 wc.DescentConfig(mu=2.5 * mu, tol=tol, max_iter=5000,
                                  step_mode="backtracking"))
                for s, mu in zip(payload["texts"], payload["mus"])]

    def request(self, i: int):
        k = i % self.COSTS
        z0, step = self.costs[k][3][(i // self.COSTS) % self.STARTS]
        return (k, z0), step

    @staticmethod
    def execute(wc, costs, args):
        k, z0 = args
        e, fixed, back = costs[k]
        return run_steps((
            lambda _: wc.steepest_descent_scalar(e, z0, fixed),
            lambda r: (r, wc.steepest_descent_scalar(e, z0, back)),
            lambda r: (*r, wc.newton_step_scalar(e, z0)),
        ))

    def check(self, req, out) -> str:
        results, exc = out
        if exc is not None:
            return FAILED
        (k, _), ref_step = req
        a = self.costs[k][1]
        fixed, back, step = results[2]
        for tr in (fixed, back):
            if tr.termination.value != "Converged" or abs(tr.final - a) > 1e-6:
                return FAILED
        if abs(step - ref_step) > 1e-5 * (1 + abs(ref_step)):
            return FAILED
        return OK


# --------------------------------------------------------------------------
# scalar: the three phases in one request
# --------------------------------------------------------------------------

class Scalar(Workload):
    """One request is a bundle: six sweep tree-points (all three orders),
    four oneshot texts and one descent run.  Each phase then takes roughly
    a third of the request time, and the request times of a run have one
    mode, so their median does not jump between phases.  The equal shares
    are assumed, not taken from observed traffic."""

    name = "scalar"
    SWEEP, ONESHOT = 6, 4
    #: one visit of every sweep tree, oneshot requests 0-159 (three item 4
    #: probes and two chains), and every descent cost
    RSS_REQUESTS = range(40)
    PHASES = ("sweep", "oneshot", "descent")

    def __init__(self, wc, seed: int):
        self.wc = wc
        self.sweep = Sweep(wc, seed)
        self.oneshot = Oneshot(wc, seed)
        self.descent = Descent(wc, seed)

    def payload(self):
        return {"sweep": self.sweep.payload(),
                "descent": self.descent.payload()}

    @staticmethod
    def build(wc, payload):
        return (Sweep.build(wc, payload["sweep"]),
                Descent.build(wc, payload["descent"]))

    def request(self, i: int):
        parts = ([self.sweep.request(self.SWEEP * i + j)
                  for j in range(self.SWEEP)],
                 [self.oneshot.request(self.ONESHOT * i + j)
                  for j in range(self.ONESHOT)],
                 [self.descent.request(i)])
        return (tuple([a for a, _ in p] for p in parts),
                tuple([e for _, e in p] for p in parts))

    @staticmethod
    def execute(wc, state, args):
        """(outputs per phase, seconds per phase)."""
        exprs, costs = state
        sweep, oneshot, descent = args
        t0 = time.perf_counter()
        outs = ([Sweep.execute(wc, exprs, a) for a in sweep],)
        t1 = time.perf_counter()
        outs += ([Oneshot.execute(wc, None, a) for a in oneshot],)
        t2 = time.perf_counter()
        outs += ([Descent.execute(wc, costs, a) for a in descent],)
        t3 = time.perf_counter()
        return outs, (t1 - t0, t2 - t1, t3 - t2)

    def check(self, req, out) -> list:
        """One outcome per operation of the bundle."""
        args, expects = req
        verdicts = []
        for wl, a, e, o in zip((self.sweep, self.oneshot, self.descent),
                               args, expects, out[0]):
            verdicts += [wl.check(r, x) for r, x in zip(zip(a, e), o)]
        return verdicts
