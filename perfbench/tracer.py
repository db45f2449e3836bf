"""Spans around wirtcalc's public functions, recorded from outside the
package.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``fdcheck`` and ``cli`` bind ``eval_jet`` and friends with
``from .expr import``; the package re-exports everything), plus two methods
of ``LeastSquaresProgram``; ``uninstall`` restores the originals.  A span
has a name, start, end, parent span and request id.  Spans stay in memory
(up to ``cap``; aggregates keep counting past it) and are written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import collections
import functools
import json
import time
from array import array

FORWARD_RULES = ("add", "sub", "neg", "mul", "div", "power_int",
                 "apply_primitive", "seed_variable", "constant")
SECOND_RULES = ("add2", "sub2", "neg2", "mul2", "div2", "power_int2",
                "apply_primitive2", "seed_variable2", "constant2")
HILBERT_JET_OPS = ("jet_add", "jet_sub", "jet_mul", "jet_conj", "jet_div",
                   "jet_recip", "jet_linear_combine", "outer_chain",
                   "ip_functional", "functional_constant")

#: span name -> [(module, attribute)] whose function it covers
TARGETS = {
    "expr.parse": [("expr", "parse")],
    "expr.format": [("expr", "format_expr")],
    "forward.rules": [("forward", f) for f in FORWARD_RULES],
    "second.rules": [("second", f) for f in SECOND_RULES],
    "fdcheck.fd_wirtinger": [("fdcheck", "fd_wirtinger")],
    "fdcheck.classify": [("fdcheck", "classify")],
    "hilbert.jet_ops": [("hilbert", f) for f in HILBERT_JET_OPS],
    "hilbert.fd_gradients": [("hilbert", "fd_gradients")],
    "hilbert.hvec": [("hilbert", "hvec")],
    "optimize.newton": [("optimize", "newton_step_scalar")],
    "optimize.build_least_squares": [("optimize", "build_least_squares")],
    "cli.main": [("cli", "main")],
}
DESCENT = ("steepest_descent_scalar", "steepest_descent_hilbert")
MODULES = ("expr", "forward", "second", "fdcheck", "hilbert", "optimize",
           "cli")


def count_nodes(root) -> int:
    """Node count of a wirtcalc tree, walked without recursion."""
    n, stack = 0, [root]
    while stack:
        e = stack.pop()
        n += 1
        stack.extend(v for v in vars(e).values() if hasattr(v, "__dict__"))
    return n


class Tracer:
    def __init__(self, wc, cap: int = 400_000):
        self.wc = wc
        self.cap = cap
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.open: list[int] = []
        self.child = collections.Counter()     # (parent id, child id) -> n
        self.count = collections.Counter()     # named tallies
        self.stack: list[list] = []
        self.spans = {k: array("q") for k in
                      ("name", "start", "end", "parent", "request")}
        self.dropped = 0
        self.request = -1
        self.nodes: dict[int, tuple] = {}      # id(tree) -> (tree, count)
        self.shapes: dict[int, tuple] = {}     # id(program) -> (N, params)
        self.patches: list[tuple] = []
        for name in ("expr.eval.o0", "expr.eval.o1", "expr.eval.o2",
                     "optimize.descent", "optimize.lsq_program",
                     "optimize.eval_assembled", "hilbert.program"):
            self.nid(name)

    def nid(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.open.append(0)
        return self.ids[name]

    def begin_request(self, i: int) -> None:
        self.request = i
        self.nodes.clear()

    def tree_nodes(self, e) -> int:
        hit = self.nodes.get(id(e))
        if hit is None or hit[0] is not e:
            try:
                hit = (e, count_nodes(e))
            except TypeError:          # not a tree, e.g. expression text
                hit = (e, 0)
            self.nodes[id(e)] = hit
        return hit[1]

    # ------------------------------------------------------------------
    # spans

    def wrap(self, fn, name, post=None):
        """``fn`` inside a span; ``name`` is a span name or a function of
        the call's arguments; ``post(args, kwargs, result)`` runs after the
        span closes (result None if the call raised)."""
        tr, clock = self, time.perf_counter_ns
        fixed = None if callable(name) else self.nid(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else name(args, kwargs)
            parent = stack[-1] if stack else None
            idx = len(spans["name"])
            if idx < tr.cap:
                spans["name"].append(nid)
                spans["parent"].append(parent[3] if parent else -1)
                spans["request"].append(tr.request)
                spans["end"].append(0)
            else:
                idx = -1
                tr.dropped += 1
            frame = [nid, 0, 0, idx]
            stack.append(frame)
            tr.open[nid] += 1
            result = None
            frame[1] = start = clock()
            if idx >= 0:
                spans["start"].append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tr.open[nid] -= 1
                dur = end - start
                tr.calls[nid] += 1
                tr.self_ns[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    tr.child[parent[0], nid] += 1
                if idx >= 0:
                    spans["end"][idx] = end
                if post is not None:
                    post(args, kwargs, result)
        return traced

    def _eval_name(self, args, kwargs):
        order = kwargs.get("order", args[2] if len(args) > 2 else 1)
        return self.ids[f"expr.eval.o{order}"]

    def _post_eval(self, args, kwargs, result):
        order = kwargs.get("order", args[2] if len(args) > 2 else 1)
        self.count[f"nodes.o{order}"] += self.tree_nodes(args[0])
        if self.open[self.ids["fdcheck.classify"]]:
            self.count["evals_in_classify"] += 1

    def _post_parse(self, args, kwargs, result):
        if result is not None:
            self.count["nodes.parse"] += self.tree_nodes(result)

    def _post_descent(self, args, kwargs, result):
        if result is None:
            return
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        self.count["descent.iterations"] += result.iterations
        self.count["descent.jets"] += result.iterations + 1
        if cfg.step_mode == "backtracking":
            self.count["descent.accepted_trials"] += result.iterations

    def _post_lsq(self, args, kwargs, result):
        rows, params = self.shapes.get(id(args[0]), (0, 0))
        # r = d - W conj(c), W^H r and W^T conj(r): three complex
        # matrix-vector products, each reading W once
        self.count["lsq.flops"] += 3 * 8 * rows * params
        self.count["lsq.bytes"] += 3 * 16 * rows * params

    # ------------------------------------------------------------------
    # install / uninstall

    def _replace(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists.  A target a later refactor
        removes is skipped; if its workload needs it, the zero-call check
        in ``run.py`` reports it."""
        import importlib
        wc = self.wc
        mods = [wc] + [importlib.import_module(f"wirtcalc.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}

        def patch(mod, attr, span, post=None, wrap=None):
            fn = getattr(by_name[mod], attr, None)
            if fn is not None:
                wrapper = wrap(fn) if wrap else self.wrap(fn, span, post)
                self._replace(fn, wrapper, mods)

        for span, places in TARGETS.items():
            for mod, attr in places:
                patch(mod, attr, span,
                      self._post_parse if span == "expr.parse" else None)
        patch("expr", "eval_jet", self._eval_name, self._post_eval)
        for attr in DESCENT:
            patch("optimize", attr, "optimize.descent", self._post_descent)

        def traced_programs(sq):
            @functools.wraps(sq)
            def squared_distance(*args, **kwargs):
                return self.wrap(sq(*args, **kwargs), "hilbert.program")
            return squared_distance
        patch("hilbert", "squared_distance", None, wrap=traced_programs)
        cls = getattr(by_name["optimize"], "LeastSquaresProgram", None)
        for attr, span, post in (("__call__", "optimize.lsq_program",
                                  self._post_lsq),
                                 ("eval_assembled", "optimize.eval_assembled",
                                  None)):
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is not None:
                self.patches.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(fn, span, post))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, value = self.patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def total(self, span: str, what: str = "calls"):
        i = self.ids.get(span)
        if i is None:
            return 0
        return self.calls[i] if what == "calls" else self.self_ns[i] / 1e9

    def children(self, parents, kids) -> int:
        p = {self.ids[n] for n in parents}
        k = {self.ids[n] for n in kids}
        return sum(v for (a, b), v in self.child.items() if a in p and b in k)

    def write(self, path) -> None:
        """Spans as one binary file of int64 columns plus a JSON header."""
        n = len(self.spans["start"])
        header = {"names": self.names, "spans": n, "dropped": self.dropped,
                  "columns": list(self.spans), "dtype": "int64",
                  "clock": "perf_counter_ns"}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".spans"), "wb") as fh:
            for col in self.spans.values():
                col[:n].tofile(fh)
