"""Expression language over z and z*: AST, parser, printer, jet evaluation.

Grammar (ASCII only; whitespace, which is space, tab, LF, CR, FF or VT and
nothing else, is insignificant)::

    expr    := term (('+' | '-') term)*           left associative
    term    := unary (('*' | '/') unary)*         left associative
    unary   := '-' unary | power
    power   := atom ('^' unary)?                  right associative
    atom    := NUMBER | NUMBER 'i' | 'i' | 'z' | 'zc'
             | NAME '(' expr ')' | '(' expr ')'

so unary minus binds looser than '^' (``-z^2`` is ``-(z^2)``) and tighter
than '*' and '/'.  Exponents must reduce to plain integers with |k| <= 64.
``zc`` is shorthand for ``conj(z)``; ``i`` is a reserved literal.  Function
names: exp log sin cos sqrt conj re im abs abs2 arg.

The parser folds constants in exactly three places so that the printer's
canonical output re-parses to a structurally identical tree: a unary minus
in front of a literal, the two-token complex literal ``a+bi``, and a power
with constant base (folded only to a finite value, so that evaluation
reports an overflow, a nan or a division by zero).  Build ``Const(-5)``
rather than ``Neg(Const(5))`` when constructing trees by hand, for the
same reason.  Number literals that overflow to inf are syntax errors.

ASTs are immutable; parsing, printing and evaluation are pure functions.
``compile_expr`` walks a tree once, without recursion, into flat
instructions, stored on the tree, that printing, evaluation and a tree's
``==``, ``hash`` and ``repr`` replay in one loop.  So the nesting cap (a
depth of 200 grammar steps: 39 nested parentheses or calls, or 196 stacked
unary minus signs) and |k| <= 64 are the only size limits: a chain such as
``z+z+...+z`` of any length prints, compares and evaluates.  A tree is
compiled once while it lives (text on every call), and a replay runs each
distinct subtree once: ``abs2(z-1) + (z-1)^2`` computes ``z-1`` once.
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass, fields
from math import copysign

from . import forward as fw
from .errors import (ArityError, DomainError, ExprSyntaxError, PoleError,
                     UnknownIdentifier, _parameter, _require_finite)
from .forward import PRIMITIVES

MAX_POW = 64
_MAX_DEPTH = 200


class Expr:
    """Base class for AST nodes.  ``==``, ``hash`` and ``repr`` read the
    node's compiled instructions, so they work on trees of any depth;
    ``repr`` prints what the dataclass ``repr`` would."""

    __slots__ = ("_compiled",)

    def __eq__(self, other):
        return (isinstance(other, Expr) and compile_expr(self)._compiled[0]
                == compile_expr(other)._compiled[0])

    def __hash__(self):
        return hash(compile_expr(self)._compiled[0])

    def __repr__(self):
        return _run(compile_expr(self)._compiled[1], None, _REPR_RULES)

    def __getstate__(self):
        # fields only (a frozen node refuses the slot); a copy compiles anew
        return self.__dict__


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: complex


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    func: str
    arg: Expr


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------

_SPACE = " \t\n\r\f\v"
_OPS = "+-*/^(),"
# a trailing 'i' makes a number imaginary unless it opens a name
_NUMBER = re.compile(r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(i(?!\w))?",
                     re.ASCII)
_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Returns (kind, payload, offset) triples; kinds are
    'num', 'imag', 'ident', 'op', 'end'."""
    tokens, i, n = [], 0, len(text)
    append, number, name = tokens.append, _NUMBER.match, _NAME.match
    while i < n:
        ch = text[i]
        if ch in _OPS:
            append(("op", ch, i))
            i += 1
        elif ch in _SPACE:
            i += 1
        elif m := name(text, i):
            append(("ident", m[0], i))
            i = m.end()
        elif m := number(text, i):
            val = float(m[1])
            if val == float("inf"):
                raise ExprSyntaxError("number out of range", i)
            append(("imag" if m[2] else "num", val, i))
            i = m.end()
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    append(("end", None, n))
    return tokens


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_INFIX = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_RESERVED = {"z": Var(), "zc": Call("conj", Var()), "i": Const(1j)}
_new, _set = object.__new__, object.__setattr__


def _node(cls, x, a, y=None, b=None):
    """``cls(a)`` or ``cls(a, b)``, the fields ``x`` and ``y`` stored as
    the frozen dataclass ``__init__`` stores them, minus its call."""
    n = _new(cls)
    _set(n, x, a)
    if y:
        _set(n, y, b)
    return n


class _Parser:
    """Recursive descent: ``expr``, ``term`` and ``atom`` serve their
    rules, and ``unary`` serves unary and power.  ``depth`` counts grammar
    steps as if power had its own method: under a unary at d, power is at
    d + 1, its atom and its exponent's unary at d + 2.  ``expr``, ``unary``
    and ``atom`` enforce the cap.  Only an operator's payload is a str."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def check_depth(self) -> None:
        """Raises the nesting error; called once a depth exceeds the cap."""
        raise ExprSyntaxError("expression nested too deeply",
                              self.tokens[self.pos][2])

    def expr(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            self.check_depth()
        left, tokens = self.term(depth + 1), self.tokens
        while (op := tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            right = self.term(depth + 1)
            # fold the two-token complex literal `a+bi` / `a-bi`
            if (isinstance(left, Const) and isinstance(right, Const)
                    and left.value.imag == 0.0 and right.value.real == 0.0
                    and right.value.imag != 0.0):
                left = _node(Const, "value", left.value + right.value
                             if op == "+" else left.value - right.value)
            else:
                left = _node(_INFIX[op], "left", left, "right", right)
        return left

    def term(self, depth: int) -> Expr:
        left, tokens = self.unary(depth + 1), self.tokens
        while (op := tokens[self.pos][1]) == "*" or op == "/":
            self.pos += 1
            left = _node(_INFIX[op], "left", left, "right",
                         self.unary(depth + 1))
        return left

    def unary(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            self.check_depth()
        if self.tokens[self.pos][1] == "-":
            self.pos += 1
            e = self.unary(depth + 1)
            return (_node(Const, "value", -e.value) if isinstance(e, Const)
                    else _node(Neg, "operand", e))
        base = self.atom(depth + 2)
        _, op, off = self.tokens[self.pos]
        if op != "^":
            return base
        self.pos += 1
        e = self.unary(depth + 2)  # right associative, allows -k
        if not isinstance(e, Const):
            raise ExprSyntaxError("exponent must be an integer literal", off)
        if e.value.imag != 0.0 or e.value.real != int(e.value.real):
            raise ExprSyntaxError("exponent must be an integer", off)
        k = int(e.value.real)
        if abs(k) > MAX_POW:
            raise ExprSyntaxError(f"exponent magnitude exceeds {MAX_POW}", off)
        if isinstance(base, Const):
            try:
                value = base.value ** k
            except ArithmeticError:  # 0^-1, 1e200^2
                value = cmath.nan
            if cmath.isfinite(value):  # 1e10^64 is nan, not an error
                return _node(Const, "value", value)
        return _node(Pow, "base", base, "exponent", k)

    def atom(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            self.check_depth()
        kind, payload, off = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return _node(Const, "value", complex(payload, 0.0))
        if kind == "imag":
            return _node(Const, "value", complex(0.0, payload))
        if kind == "ident":
            if payload in _RESERVED:
                return _RESERVED[payload]
            if payload not in PRIMITIVES:
                raise UnknownIdentifier(payload, off)
            _, op, off = self.tokens[self.pos]
            if op != "(":
                raise ArityError(f"{payload} expects exactly one "
                                 "parenthesized argument", off)
            self.pos += 1
        elif payload != "(":
            raise ExprSyntaxError("unexpected end of input" if kind == "end"
                                  else f"unexpected token {payload!r}", off)
        # NAME '(' expr ')' or '(' expr ')'
        e = self.expr(depth + 1)
        _, op, off = self.tokens[self.pos]
        if kind == "ident" and op == ",":
            raise ArityError(f"{payload} takes exactly one argument", off)
        if op != ")":
            raise ExprSyntaxError("expected ')'", off)
        self.pos += 1
        return _node(Call, "func", payload, "arg", e) if kind == "ident" else e


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError (with the
    byte offset of the problem), UnknownIdentifier or ArityError."""
    if not text.isascii():
        # all before the first non-ASCII character is ASCII: index == offset
        i = next(i for i, ch in enumerate(text) if ord(ch) >= 128)
        raise ExprSyntaxError(f"non-ASCII character {text[i]!r}", i)
    if not text.strip(_SPACE):
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text)
    e = p.expr(0)
    kind, payload, off = p.tokens[p.pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {payload!r}", off)
    return e


# --------------------------------------------------------------------------
# compiled trees
# --------------------------------------------------------------------------

# An instruction's code indexes a rule tuple (variable, constant, add, sub,
# mul, div, neg, power, call); the payload is a constant's value, a power's
# exponent or a call's name.  Instructions without payload are shared.
_BINARY = {Add: (2, None), Sub: (3, None), Mul: (4, None), Div: (5, None)}


def compile_expr(e) -> Expr:
    """``e`` (text is parsed first), compiled once while it lives by one
    walk without recursion: the only code that knows which fields hold
    children, and the check of a hand-built tree.  The post-order
    instructions and their ``_value_number`` plan are stored on the tree
    and go with it.  A constant keeps the scalar contract of ``errors`` and
    an exponent the integer parameter rule and the parser's bound
    (ValueError); any other child or function name raises TypeError."""
    if isinstance(e, str):
        e = parse(e)
    if hasattr(e, "_compiled"):
        return e
    ops, stack = [], [e]
    emit, push, pop = ops.append, stack.append, stack.pop
    while stack:
        n = pop()
        t = type(n)
        if t in _BINARY:
            emit(_BINARY[t])
            push(n.left)
            push(n.right)
        elif t is Var:
            emit((0, None))
        elif t is Const:
            _require_finite(n.value, "constant")
            emit((1, n.value))
        elif t is Call:
            if n.func not in PRIMITIVES:
                raise TypeError(f"not a function name: {n.func!r}")
            emit((8, n.func))
            push(n.arg)
        elif t is Neg:
            emit((6, None))
            push(n.operand)
        elif t is Pow:
            k = _parameter(n.exponent, "exponent", integer=True)
            if abs(k) > MAX_POW:
                raise ValueError(f"exponent magnitude exceeds {MAX_POW}")
            emit((7, k))
            push(n.base)
        else:
            raise TypeError(f"not an Expr node: {n!r}")
    ops = tuple(ops[::-1])
    object.__setattr__(e, "_compiled", (ops, _value_number(ops)))
    return e


def _value_number(ops) -> tuple:
    """``ops`` with each distinct subtree once, at its first occurrence, as
    ``(code, payload, i, j, d)``: the rule reads registers ``i`` and ``j``
    and writes ``d``, the root register 0.  A complex payload is keyed with
    the signs of its parts (``sqrt(-4-0i)`` is ``-2i``, ``sqrt(-4+0i)``
    ``2i``), an int or a name by value, any other payload by identity."""
    plan, seen, stack = [], {}, []
    pop, push = stack.pop, stack.append
    for code, p in ops:
        if 1 < code < 6:        # two operands and no payload
            j, i = pop(), pop()
            key = (code, i, j)
        else:                   # a payload, and one operand or none
            i, j, t = pop() if code > 1 else -1, -1, p.__class__
            key = (code, i, (p, copysign(1.0, p.real), copysign(1.0, p.imag))
                   if t is complex else p if p is None or t in (int, str)
                   else (id(p),))
        v = seen.setdefault(key, len(plan))
        if v == len(plan):
            plan.append((code, p, i, j))
        push(v)
    # Registers, handed out backwards: a result takes one at its last reader
    # and frees it where it is written, so a replay holds no more results
    # than a stack would.  A missing operand (-1) reads the root's entry, 0.
    reg = [-1] * (len(plan) - 1) + [0]
    free = list(range(len(plan) - 1, 0, -1))
    for k in range(len(plan) - 1, -1, -1):
        code, p, i, j = plan[k]
        free.append(reg[k])
        if reg[i] < 0:
            reg[i] = free.pop()
        if reg[j] < 0:
            reg[j] = free.pop()
        plan[k] = (code, p, reg[i], reg[j], reg[k])
    return tuple(plan)


def _run(plan: tuple, c, rules):
    """Replay ``plan`` with ``rules``, each distinct subtree once, at its
    first occurrence in the post-order: the first rule to fail is the one a
    replay of every node would meet first, and a rule with side effects (a
    test double) sees one call per distinct subtree."""
    variable, constant, _, _, _, _, neg, power, call = rules
    regs = [None] * len(plan)
    for code, p, i, j, d in plan:
        if code == 0:
            regs[d] = variable(c)
        elif code == 1:
            regs[d] = constant(p)
        elif code < 6:
            regs[d] = rules[code](regs[i], regs[j])
        elif code == 6:
            regs[d] = neg(regs[i])
        elif code == 7:
            regs[d] = power(regs[i], p)
        else:
            regs[d] = call(p, regs[i])
    return regs[0]


# --------------------------------------------------------------------------
# printer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC_PARENS = 6    # an atom already in parentheses: a complex constant


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) <= 2 ** 53:
        return str(int(x))
    return repr(x)


def _fmt_const(w: complex) -> tuple[str, int]:
    """Rendering plus the effective precedence of the rendered atom."""
    re_, im_ = w.real, w.imag
    s = (_fmt_float(re_) if im_ == 0.0 else "i" if im_ == 1.0
         else "-i" if im_ == -1.0 else _fmt_float(im_) + "i")
    if im_ != 0.0 and re_ != 0.0:   # the imaginary part carries its sign
        return f"({_fmt_float(re_)}{'+' if im_ > 0 else ''}{s})", _PREC_PARENS
    return s, (_PREC_UNARY if s.startswith("-") else _PREC_ATOM)


def _paren(p: tuple[str, int], prec: int) -> str:
    """Text of a (text, precedence) pair, in parentheses if below ``prec``."""
    return p[0] if p[1] >= prec else f"({p[0]})"


def _infix(op: str, prec: int):
    # left associative: an equal-precedence right operand gets parentheses
    return lambda a, b: (f"{_paren(a, prec)}{op}{_paren(b, prec + 1)}", prec)


_PRINT_RULES = (
    lambda _: ("z", _PREC_ATOM),
    _fmt_const,
    _infix("+", _PREC_ADD), _infix("-", _PREC_ADD),
    _infix("*", _PREC_MUL), _infix("/", _PREC_MUL),
    lambda a: ("-" + _paren(a, _PREC_UNARY), _PREC_UNARY),
    lambda a, k: (f"{_paren(a, _PREC_ATOM)}^{k}", _PREC_POW),
    lambda name, a: (name + _paren(a, _PREC_PARENS), _PREC_ATOM),
)


def _repr_rule(cls):
    """Rule that prints a ``cls`` node as the dataclass ``repr`` would, from
    its children's reprs and its payload."""
    node_fields = fields(cls)
    return lambda *args: "{}({})".format(cls.__name__, ", ".join(
        f"{f.name}={a if f.type == 'Expr' else repr(a)}"
        for f, a in zip(node_fields, args)))


_REPR_RULES = tuple(map(_repr_rule, (Var, Const, Add, Sub, Mul, Div, Neg,
                                     Pow, Call)))


def format_expr(e) -> str:
    """Canonical minimal-parentheses rendering of an AST (or text);
    ``parse(format_expr(e))`` is structurally equal to ``e`` for
    parser-producible trees."""
    return _run(compile_expr(e)._compiled[1], None, _PRINT_RULES)[0]


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _pow0(v: complex, k: int) -> complex:
    try:
        return v ** k
    except ZeroDivisionError:
        raise fw._pow_error(v, k) from None


_ORDER0 = (lambda c: c, lambda k: _require_finite(k, "constant"),
           operator.add, operator.sub, operator.mul, operator.truediv,
           operator.neg, _pow0, lambda name, v: PRIMITIVES[name].value(v))


def _order2_rules():
    from . import second as so      # on the first order-2 evaluation
    return (so.seed_variable2, so.constant2, so.add2, so.sub2, so.mul2,
            so.div2, so.neg2, so.power_int2, so.apply_primitive2)


# The jet rules are looked up on their modules at every evaluation, so a
# caller that rebinds them (a profiler, a test double) is honoured.
_RULES = {
    0: lambda: _ORDER0,
    1: lambda: (fw.seed_variable, fw.constant, fw.add, fw.sub, fw.mul,
                fw.div, fw.neg, fw.power_int, fw.apply_primitive),
    2: _order2_rules,
}


def eval_jet(e, c: complex, order: int = 1):
    """Evaluate expression ``e`` (text or AST) at the point ``c``.

    order 0 returns the plain complex value, order 1 a WirtingerJet and
    order 2 a SecondOrderJet; the value slot is bitwise identical across
    orders.  Every slot of the result is finite: this is the one place
    where evaluation failures become library errors.  A division by zero
    anywhere in the tree raises PoleError; an overflow (also a negative
    power of a nonzero value whose true result overflows), a cmath domain
    failure or an inf/nan slot in the result raises DomainError.  The
    point ``c`` keeps the scalar contract of ``errors``, and a hand-built
    tree is checked where it is compiled (``compile_expr``).
    """
    plan = (getattr(e, "_compiled", None) or compile_expr(e)._compiled)[1]
    c = _require_finite(c, "evaluation point")
    if _parameter(order, "order", integer=True) not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    try:
        r = _run(plan, c, _RULES[order]())
    except ZeroDivisionError as exc:
        raise PoleError(f"division at a pole: {exc}") from None
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{type(exc).__name__}: {exc}") from None
    slots = (r,) if order == 0 else [getattr(r, f) for f in r.__slots__]
    if not all(map(cmath.isfinite, slots)):
        raise DomainError(f"non-finite result at {c!r}")
    return r


def parse_complex(text: str) -> complex:
    """Parse a variable-free expression (``1+2i``, ``-3i``, ``0.5``) into a
    complex number.  Shares the expression grammar and ``eval_jet``'s
    errors."""
    tree = compile_expr(text)
    if any(code == 0 for code, _ in tree._compiled[0]):
        off = next(off for kind, name, off in _tokenize(text)
                   if kind == "ident" and name in ("z", "zc"))
        raise ExprSyntaxError("expected a constant, found the variable z", off)
    return eval_jet(tree, 0j, order=0)



