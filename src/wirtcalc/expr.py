"""Expression language over z and z*: AST, parser, printer, jet evaluation.

Grammar (whitespace insignificant, ASCII only)::

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
with constant base (left unfolded when it overflows or divides by zero, so
that evaluation reports it).  Build ``Const(-5)`` rather than
``Neg(Const(5))`` when constructing trees by hand, for the same reason.
Number literals that overflow to inf are syntax errors.

ASTs are immutable; parsing, printing and evaluation are pure functions.
``compile_expr`` walks a tree once, without recursion, into a ``Tape`` of
flat instructions that printing and evaluation replay in one loop.  So the
nesting cap (a depth of 200 grammar steps: 39 nested parentheses or calls,
or 196 stacked unary minus signs) and |k| <= 64 are the only size limits:
a chain such as ``z+z+...+z`` of any length prints and evaluates.  A
caller that evaluates one expression at many points compiles it once and
passes the tape.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

from . import forward as fw
from . import second as so
from .errors import (ArityError, DomainError, ExprSyntaxError, PoleError,
                     UnknownIdentifier)
from .forward import PRIMITIVES

MAX_POW = 64
_MAX_DEPTH = 200


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------

_OPS = "+-*/^(),"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Returns (kind, payload, offset) triples; kinds are
    'num', 'imag', 'ident', 'op', 'end'."""
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            val = float(text[start:i])
            if val == float("inf"):
                raise ExprSyntaxError("number out of range", start)
            # trailing 'i' marks an imaginary literal unless it opens a name
            if (i < n and text[i] == "i"
                    and not (i + 1 < n and (text[i + 1].isalnum()
                                            or text[i + 1] == "_"))):
                i += 1
                tokens.append(("imag", val, start))
            else:
                tokens.append(("num", val, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, payload, off = self.peek()
        if kind == "op" and payload == op:
            self.next()
            return
        raise ExprSyntaxError(f"expected {op!r}", off)

    def parse(self) -> Expr:
        e = self.expr(0)
        kind, payload, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {payload!r}", off)
        return e

    def expr(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply",
                                  self.peek()[2])
        left = self.term(depth + 1)
        while True:
            kind, payload, off = self.peek()
            if kind == "op" and payload in "+-":
                self.next()
                right = self.term(depth + 1)
                left = self._make_additive(payload, left, right)
            else:
                return left

    @staticmethod
    def _make_additive(op: str, left: Expr, right: Expr) -> Expr:
        # fold the two-token complex literal `a+bi` / `a-bi`
        if (isinstance(left, Const) and isinstance(right, Const)
                and left.value.imag == 0.0 and right.value.real == 0.0
                and right.value.imag != 0.0):
            return Const(left.value + right.value if op == "+"
                         else left.value - right.value)
        return Add(left, right) if op == "+" else Sub(left, right)

    def term(self, depth: int) -> Expr:
        left = self.unary(depth + 1)
        while True:
            kind, payload, off = self.peek()
            if kind == "op" and payload in "*/":
                self.next()
                right = self.unary(depth + 1)
                left = Mul(left, right) if payload == "*" else Div(left, right)
            else:
                return left

    def unary(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply",
                                  self.peek()[2])
        kind, payload, off = self.peek()
        if kind == "op" and payload == "-":
            self.next()
            inner = self.unary(depth + 1)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.power(depth + 1)

    def power(self, depth: int) -> Expr:
        base = self.atom(depth + 1)
        kind, payload, off = self.peek()
        if kind == "op" and payload == "^":
            self.next()
            exp_expr = self.unary(depth + 1)  # right assoc, allows -k
            k = self._as_int_exponent(exp_expr, off)
            if isinstance(base, Const):
                try:
                    return Const(base.value ** k)
                except ArithmeticError:  # 0^-1, 1e200^2
                    pass
            return Pow(base, k)
        return base

    @staticmethod
    def _as_int_exponent(e: Expr, off: int) -> int:
        if not isinstance(e, Const):
            raise ExprSyntaxError("exponent must be an integer literal", off)
        w = e.value
        if w.imag != 0.0 or w.real != int(w.real):
            raise ExprSyntaxError("exponent must be an integer", off)
        k = int(w.real)
        if abs(k) > MAX_POW:
            raise ExprSyntaxError(f"exponent magnitude exceeds {MAX_POW}", off)
        return k

    def atom(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply",
                                  self.peek()[2])
        kind, payload, off = self.next()
        if kind == "num":
            return Const(complex(payload, 0.0))
        if kind == "imag":
            return Const(complex(0.0, payload))
        if kind == "ident":
            name = payload
            if name == "z":
                return Var()
            if name == "zc":
                return Call("conj", Var())
            if name == "i":
                return Const(1j)
            if name in PRIMITIVES:
                nkind, npayload, noff = self.peek()
                if not (nkind == "op" and npayload == "("):
                    raise ArityError(
                        f"{name} expects exactly one parenthesized argument",
                        noff)
                self.next()
                arg = self.expr(depth + 1)
                ckind, cpayload, coff = self.peek()
                if ckind == "op" and cpayload == ",":
                    raise ArityError(f"{name} takes exactly one argument",
                                     coff)
                self.expect_op(")")
                return Call(name, arg)
            raise UnknownIdentifier(name, off)
        if kind == "op" and payload == "(":
            inner = self.expr(depth + 1)
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected token {payload!r}", off)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError (with the
    byte offset of the problem), UnknownIdentifier or ArityError."""
    if not text.isascii():
        # all before the first non-ASCII character is ASCII: index == offset
        i = next(i for i, ch in enumerate(text) if ord(ch) >= 128)
        raise ExprSyntaxError(f"non-ASCII character {text[i]!r}", i)
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# tape
# --------------------------------------------------------------------------

# An instruction's code indexes a rule tuple (variable, constant, add, sub,
# mul, div, neg, power, call).  Instructions without payload are shared.
_BINARY = {Add: (2, None), Sub: (3, None), Mul: (4, None), Div: (5, None)}


@dataclass(frozen=True, eq=False)
class Tape:
    """``tree`` compiled for repeated evaluation: its post-order as
    ``(code, payload)`` instructions, the payload being a constant's value,
    a power's exponent or a call's name.  ``==`` is identity."""

    tree: Expr
    ops: tuple


def compile_expr(e) -> Tape:
    """Tape of ``e`` (text, AST or tape, returned as is), built in one walk
    without recursion; the only code that knows which fields hold children."""
    if isinstance(e, Tape):
        return e
    if isinstance(e, str):
        e = parse(e)
    ops, stack = [], [e]
    emit, push = ops.append, stack.append
    while stack:
        n = stack.pop()
        t = type(n)
        if t is Var:
            emit((0, None))
        elif t is Const:
            emit((1, n.value))
        elif t in _BINARY:
            emit(_BINARY[t])
            push(n.left)
            push(n.right)
        elif t is Call:
            emit((8, n.func))
            push(n.arg)
        elif t is Neg:
            emit((6, None))
            push(n.operand)
        elif t is Pow:
            emit((7, n.exponent))
            push(n.base)
        else:
            raise TypeError(f"not an Expr node: {n!r}")
    ops.reverse()
    return Tape(e, tuple(ops))


def _run(tape: Tape, c, rules):
    """Replay ``tape`` with ``rules``; ``variable(c)`` is made once and
    shared by every occurrence of z."""
    variable, constant, _, _, _, _, neg, power, call = rules
    x = variable(c)
    stack = []
    push, pop = stack.append, stack.pop
    for code, p in tape.ops:
        if code == 0:
            push(x)
        elif code == 1:
            push(constant(p))
        elif code < 6:
            b = pop()
            stack[-1] = rules[code](stack[-1], b)
        elif code == 6:
            stack[-1] = neg(stack[-1])
        elif code == 7:
            stack[-1] = power(stack[-1], p)
        else:
            stack[-1] = call(p, stack[-1])
    return stack[0]


# --------------------------------------------------------------------------
# printer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("cannot format a non-finite constant")
    if x == int(x) and abs(x) <= 2 ** 53:
        return str(int(x))
    return repr(x)


def _fmt_const(w: complex) -> tuple[str, int]:
    """Rendering plus the effective precedence of the rendered atom."""
    re_, im_ = w.real, w.imag
    if im_ == 0.0:
        s = _fmt_float(re_)
        return s, (_PREC_UNARY if s.startswith("-") else _PREC_ATOM)
    if re_ == 0.0:
        if im_ == 1.0:
            return "i", _PREC_ATOM
        if im_ == -1.0:
            return "-i", _PREC_UNARY
        s = _fmt_float(im_) + "i"
        return s, (_PREC_UNARY if s.startswith("-") else _PREC_ATOM)
    sign = "+" if im_ > 0 else "-"
    mag = abs(im_)
    imag_part = "i" if mag == 1.0 else _fmt_float(mag) + "i"
    return f"({_fmt_float(re_)}{sign}{imag_part})", _PREC_ATOM


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
    lambda name, a: (f"{name}({a[0]})", _PREC_ATOM),
)


def format_expr(e) -> str:
    """Canonical minimal-parentheses rendering of an AST (or tape);
    ``parse(format_expr(e))`` is structurally equal to ``e`` for
    parser-producible trees."""
    return _run(compile_expr(e), None, _PRINT_RULES)[0]


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _pow0(v: complex, k: int) -> complex:
    try:
        return v ** k
    except ZeroDivisionError:
        raise fw._pow_error(v, k) from None


_ORDER0 = (lambda c: c, lambda k: k, operator.add, operator.sub,
           operator.mul, operator.truediv, operator.neg, _pow0,
           lambda name, v: PRIMITIVES[name].value(v))

# The jet rules are looked up on their modules at every evaluation, so a
# caller that rebinds them (a profiler, a test double) is honoured.
_RULES = {
    0: lambda: _ORDER0,
    1: lambda: (fw.seed_variable, fw.constant, fw.add, fw.sub, fw.mul,
                fw.div, fw.neg, fw.power_int, fw.apply_primitive),
    2: lambda: (so.seed_variable2, so.constant2, so.add2, so.sub2, so.mul2,
                so.div2, so.neg2, so.power_int2, so.apply_primitive2),
}


def eval_jet(e, c: complex, order: int = 1):
    """Evaluate expression ``e`` (text, AST or tape) at the point ``c``.

    order 0 returns the plain complex value, order 1 a WirtingerJet and
    order 2 a SecondOrderJet; the value slot is bitwise identical across
    orders.  Every slot of the result is finite: this is the one place
    where evaluation failures become library errors.  A division by zero
    anywhere in the tree raises PoleError; an overflow (also a negative
    power of a nonzero value whose true result overflows), a cmath domain
    failure or an inf/nan slot in the result raises DomainError.
    """
    tape = compile_expr(e)
    c = complex(c)
    if not cmath.isfinite(c):
        raise DomainError(f"non-finite evaluation point: {c!r}")
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    try:
        r = _run(tape, c, _RULES[order]())
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
    tape = compile_expr(text)
    if any(code == 0 for code, _ in tape.ops):
        off = next(off for kind, name, off in _tokenize(text)
                   if kind == "ident" and name in ("z", "zc"))
        raise ExprSyntaxError("expected a constant, found the variable z", off)
    return eval_jet(tape, 0j, order=0)



