import cmath
import copy
import dataclasses
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, random_ast, sample_points
from wirtcalc import expr as ex
from wirtcalc import forward as fw
from wirtcalc import second as so
from wirtcalc.errors import (ArityError, DomainError, ExprSyntaxError,
                             PoleError, UnknownIdentifier, WirtcalcError)
from wirtcalc.expr import (Add, Call, Const, Div, Expr, Mul, Neg, Pow, Sub,
                           Var, compile_expr, eval_jet, format_expr, parse,
                           parse_complex)
from wirtcalc.fdcheck import classify
from wirtcalc.optimize import (DescentConfig, newton_step_scalar,
                               steepest_descent_scalar)


def test_parse_power():
    assert parse("z^2") == Pow(Var(), 2)


def test_parse_worked_polynomial():
    want = Add(Sub(Pow(Var(), 3), Mul(Const(1j), Var())),
               Pow(Call("conj", Var()), 2))
    assert parse("z^3 - i*z + conj(z)^2") == want


def test_parse_complex_literal_folds():
    assert parse("1+2i") == Const(1 + 2j)
    assert parse("(1.5-2i)") == Const(1.5 - 2j)
    assert parse("-3i") == Const(-3j)
    assert parse("-i") == Const(-1j)


def test_parse_zc_shorthand():
    assert parse("zc") == Call("conj", Var())
    assert parse("zc") == parse("conj(z)")


def test_parse_negative_and_chained_exponents():
    assert parse("z^-2") == Pow(Var(), -2)
    assert parse("z^2^3") == Pow(Var(), 8)  # right associative
    assert parse("-z^2") == Neg(Pow(Var(), 2))


def test_parse_precedence():
    assert parse("1/z*z") == Mul(Div(Const(1 + 0j), Var()), Var())
    assert parse("z+z*z") == Add(Var(), Mul(Var(), Var()))


def test_parse_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("z +")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError) as err:
        parse("z ) z")
    assert err.value.offset == 2


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("w + 1")
    with pytest.raises(UnknownIdentifier):
        parse("sinh(z)")


def test_parse_arity_errors():
    with pytest.raises(ArityError):
        parse("exp + 1")
    with pytest.raises(ArityError):
        parse("exp(z, z)")


def test_parse_exponent_errors():
    with pytest.raises(ExprSyntaxError):
        parse("z^z")
    with pytest.raises(ExprSyntaxError):
        parse("z^65")
    with pytest.raises(ExprSyntaxError):
        parse("z^1.5")
    parse("z^64")  # boundary is inclusive


def test_parse_rejects_infinite_literal():
    for text, offset in (("1e400*z", 0), ("z+1e999i", 2)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset


def test_parse_keeps_a_failing_constant_power_unfolded():
    # folding would raise or give nan; the tree keeps the power and
    # evaluation reports it
    for text, error in (("0^-1", PoleError), ("1e200^2", DomainError),
                        ("1e10^64", DomainError), ("1e200^20", DomainError),
                        ("(1e200+1i)^20", DomainError)):
        e = parse(text)
        assert isinstance(e, Pow) and isinstance(e.base, Const)
        assert parse(format_expr(e)) == e
        with pytest.raises(error):
            eval_jet(e, 1, order=0)
        with pytest.raises(error):
            parse_complex(text)


def test_parse_accepts_exactly_six_whitespace_characters():
    for space in " \t\n\r\f\v":
        assert parse(f"{space}z{space}+{space}1{space}") == Add(Var(),
                                                                Const(1))
    # str.isspace accepts these ASCII separators; the grammar does not
    for sep in "\x1c\x1d\x1e\x1f":
        with pytest.raises(ExprSyntaxError,
                           match="unexpected character") as err:
            parse(f"z{sep}+1")
        assert err.value.offset == 1


def test_parse_rejects_non_ascii():
    with pytest.raises(ExprSyntaxError):
        parse("z + α")
    # a non-ASCII digit, digit in an exponent, space and letter
    for text, offset in (("1\u0663", 1), ("1e\u0663", 2), ("1\u00a02", 1),
                         ("z\u00e9", 1)):
        with pytest.raises(ExprSyntaxError, match="non-ASCII") as err:
            parse(text)
        assert err.value.offset == offset


def test_format_goldens():
    assert format_expr(Pow(Var(), 2)) == "z^2"
    assert format_expr(Mul(Const(1j), Var())) == "i*z"
    assert format_expr(Call("conj", Var())) == "conj(z)"
    assert format_expr(Const(1.5 - 2j)) == "(1.5-2i)"
    assert format_expr(Const(-1j)) == "-i"
    assert parse("-i") == Const(-1j)
    with pytest.raises(DomainError):
        format_expr(Const(complex("inf")))


def test_format_parenthesizes_only_when_needed():
    e = parse("(z+1)*z")
    assert format_expr(e) == "(z+1)*z"
    e = parse("z-(z+1)")
    assert format_expr(e) == "z-(z+1)"
    e = parse("-(z*z)")
    assert format_expr(e) == "-(z*z)"


def test_round_trip_seeded_generator():
    rng = random.Random(101)
    for _ in range(1000):
        e = random_ast(rng, 8)
        assert parse(format_expr(e)) == e


@settings(max_examples=300)
@given(st.integers(0, 2 ** 62))
def test_round_trip_hypothesis(seed):
    e = random_ast(random.Random(seed), 6)
    assert parse(format_expr(e)) == e


@pytest.mark.parametrize("expr", CORPUS)
def test_corpus_round_trips(expr):
    e = parse(expr)
    assert parse(format_expr(e)) == e


def test_eval_conj_golden():
    j = eval_jet("conj(z)", 2 + 1j, order=1)
    assert (j.value, j.dz, j.dzc) == (2 - 1j, 0j, 1 + 0j)


def test_eval_chain_golden():
    j = eval_jet("(z^2+conj(z))^3", 1, order=1)
    assert (j.value, j.dz, j.dzc) == (8 + 0j, 24 + 0j, 12 + 0j)


def test_eval_pole():
    with pytest.raises(PoleError):
        eval_jet("1/z", 0, order=1)
    with pytest.raises(PoleError):
        eval_jet("1/z", 0, order=0)
    with pytest.raises(PoleError):
        eval_jet("z^-3", 0, order=1)


# zeros, values whose square underflows or overflows, and ordinary points
CONTRACT_POINTS = [0j, -0j, 1e-200, -1e-200, 1e200, 1e200j, 1e10 + 1e9j,
                   1e-320, 1e-301, 0.7 + 0.3j, -1.2 + 0.8j]


def _slots(r, order):
    return ([r] if order == 0 else
            [getattr(r, f.name) for f in dataclasses.fields(r)])


@settings(max_examples=200)
@given(st.integers(0, 2 ** 62))
def test_eval_is_finite_or_a_library_error(seed):
    e = random_ast(random.Random(seed), 6)
    twin = copy.deepcopy(e)     # an equal tree, compiled on its own
    for c in CONTRACT_POINTS:
        values = []
        for order in (0, 1, 2):
            try:
                r = eval_jet(e, c, order)
            except WirtcalcError as exc:
                with pytest.raises(type(exc)):
                    eval_jet(twin, c, order)
                continue
            slots = _slots(r, order)
            assert all(map(cmath.isfinite, slots)), (format_expr(e), c, order)
            assert repr(_slots(eval_jet(twin, c, order), order)) == repr(slots)
            values.append(slots[0])
        assert all(v == values[0] for v in values), (format_expr(e), c)


@pytest.mark.parametrize("expr,at,order,error", [
    ("z^64", 1e10, 1, DomainError),             # the power overflows
    ("1/z", 1e-200, 1, DomainError),            # dz = -1/z^2 overflows
    ("1/z", 1e-200, 2, DomainError),
    ("z^-3", 1e-120, 0, DomainError),           # z^3 underflows: no pole
    ("z^-3", 1e-120, 1, DomainError),
    ("z^-3", 1e-120, 2, DomainError),
    ("exp(700)*exp(700)", 1, 0, DomainError),   # inf value
    ("z*z", 1e200, 1, DomainError),             # inf value, finite dz
    ("abs2(z)", 1e200, 2, DomainError),
])
def test_eval_reports_arithmetic_failure(expr, at, order, error):
    with pytest.raises(error):
        eval_jet(expr, at, order)


def test_eval_needs_no_pole_floor():
    assert eval_jet("1/z", 1e-200, order=0) == 1e200
    assert eval_jet("z/z", 1e-301, order=0) == 1
    j = eval_jet("z/z", 1e-150, order=1)
    assert (j.value, j.dz, j.dzc) == (1, 0, 0)


@pytest.mark.parametrize("order", [1, 2])
def test_division_by_a_value_whose_square_underflows(order):
    # |1e-170 z|^2 underflows to 0, but 1e-170 z is no pole
    z = 1 + 1j
    scale = 1e170
    want = {"z/(z*1e-170)": (scale, 0, 0, 0, 0, 0, 0),
            "1/(z*1e-170)": (scale / z, -scale / z ** 2, 0,
                             2 * scale / z ** 3, 0, 0, 0)}
    for text, slots in want.items():
        j = eval_jet(text, z, order)
        got = _slots(j, order)
        for g, w in zip(got, slots):
            assert abs(g - w) <= 1e-14 * scale, (text, got)
        assert all(g == 0 for g, w in zip(got, slots) if w == 0), (text, got)


def test_eval_rejects_bad_order():
    with pytest.raises(ValueError):
        eval_jet("z", 0, order=3)


def test_eval_rejects_a_non_finite_point():
    with pytest.raises(DomainError, match="non-finite evaluation point"):
        eval_jet("z", complex("inf"))


# the parser caps nesting, not length: trees far deeper than the
# interpreter's recursion limit must evaluate and print
CHAIN_TERMS = 3000


def test_long_chain_evaluates_at_every_order():
    tree = parse("+".join(["z"] * CHAIN_TERMS))
    c = 0.25 + 0.5j
    for e in (tree, compile_expr(tree)):
        assert eval_jet(e, c, order=0) == CHAIN_TERMS * c
        j1 = eval_jet(e, c, order=1)
        assert (j1.value, j1.dz, j1.dzc) == (CHAIN_TERMS * c, CHAIN_TERMS, 0)
        j2 = eval_jet(e, c, order=2)
        assert (j2.value, j2.dz, j2.dzc) == (j1.value, j1.dz, j1.dzc)
        assert (j2.dzz, j2.dzzc, j2.dzcz, j2.dzczc) == (0, 0, 0, 0)


def test_long_chain_round_trips_as_text():
    # ==, hash and repr replay the compiled ops: no recursion either
    text = "+".join(["z"] * CHAIN_TERMS)
    mixed = "-".join(f"{k}*z^2" for k in range(1, CHAIN_TERMS))
    for t in (text, mixed):
        tree = parse(t)
        assert format_expr(tree) == t
        again = parse(format_expr(tree))
        assert again == tree and hash(again) == hash(tree)
        assert repr(again) == repr(tree)
    assert parse(text) != parse(text + "+z")
    assert repr(parse(text)).count("Add(left=") == CHAIN_TERMS - 1


def _dataclass_repr(e) -> str:
    """What the dataclass-generated repr prints, recursively."""
    if not dataclasses.is_dataclass(e):
        return repr(e)
    return f"{type(e).__name__}(" + ", ".join(
        f"{f.name}={_dataclass_repr(getattr(e, f.name))}"
        for f in dataclasses.fields(e)) + ")"


def test_repr_eq_and_hash_agree_with_the_node_fields():
    rng = random.Random(303)
    for _ in range(500):
        e = random_ast(rng, 6)
        assert repr(e) == _dataclass_repr(e)
        twin = parse(format_expr(e))
        assert twin == e and hash(twin) == hash(e) and twin is not e
    assert Const(1) == Const(1 + 0j) and Var() != Const(0)
    assert Add(Var(), Const(1)) != Sub(Var(), Const(1))
    assert Pow(Var(), 2) != Pow(Var(), 3) and Var() != "z"
    assert len({parse("z+1"), parse("z + 1"), parse("1+z")}) == 2


def test_parse_complex_long_constant_chain():
    assert parse_complex("+".join(["1"] * 1500)) == 1500


def test_deep_hand_built_nest_evaluates():
    e = Var()
    for k in range(5000):
        e = Neg(e) if k % 2 else Call("conj", e)
    c = 1.5 - 0.5j
    assert eval_jet(e, c, order=0) == c
    j1 = eval_jet(e, c, order=1)
    assert (j1.value, j1.dz, j1.dzc) == (c, 1, 0)
    assert eval_jet(e, c, order=2).value == c
    assert format_expr(e) == "-conj(" * 2500 + "z" + ")" * 2500


def test_unknown_node_raises_type_error():
    for bad, match in ((object(), "not an Expr node"),
                       (Add(Var(), object()), "not an Expr node"),
                       (Neg("z"), "not an Expr node"),
                       (Call("foo", Var()), "not a function name"),
                       (Pow(Var(), 2.5), "exponent must be an integer"),
                       (Pow(Var(), True), "exponent must be an integer"),
                       (Pow(Var(), "2"), "exponent must be an integer")):
        for order in (0, 1, 2):
            with pytest.raises(TypeError, match=match):
                eval_jet(bad, 1j, order=order)
        with pytest.raises(TypeError, match=match):
            format_expr(bad)
        if isinstance(bad, Expr):
            # ==, hash and repr replay the compiled tree too, so they refuse
            for op in (lambda e: e == e, hash, repr):
                with pytest.raises(TypeError, match=match):
                    op(bad)


@pytest.mark.parametrize("expr", CORPUS)
def test_value_slot_identical_across_orders(expr):
    for c in sample_points(37, 10):
        v0 = eval_jet(expr, c, order=0)
        assert eval_jet(expr, c, order=1).value == v0
        assert eval_jet(expr, c, order=2).value == v0


def test_parse_complex():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-3i") == -3j
    assert parse_complex("0.5") == 0.5
    assert parse_complex("2*3") == 6
    with pytest.raises(ExprSyntaxError):
        parse_complex("")
    # the offset of the first z or zc
    for text, offset in (("z+1", 0), ("1+2*z", 4), ("2*zc", 2),
                         ("exp(z)", 4)):
        with pytest.raises(ExprSyntaxError, match="variable z") as err:
            parse_complex(text)
        assert err.value.offset == offset


def _fuzz_inputs(rng, count):
    printable = "zi+-*/^()., 0123456789abcdefghijklmnopqrstuvwxyz"
    tokens = ["z", "zc", "i", "exp", "log", "conj", "(", ")", "^", "+",
              "-", "*", "/", "2", "0.5", "3i", ","]
    for _ in range(count):
        mode = rng.randrange(3)
        if mode == 0:
            n = rng.randrange(0, 40)
            yield bytes(rng.randrange(256) for _ in range(n)).decode(
                "latin-1")
        elif mode == 1:
            n = rng.randrange(0, 40)
            yield "".join(rng.choice(printable) for _ in range(n))
        else:
            n = rng.randrange(0, 24)
            yield "".join(rng.choice(tokens) for _ in range(n))


#: wall-time bound on parsing one fuzz input
PARSE_BOUND_S = 0.01


def _parse_seconds(text: str) -> float:
    """Wall time to parse ``text`` (a syntax error counts as a parse).  A
    time over PARSE_BOUND_S is measured up to twice more and the fastest
    kept: a descheduled process or a GC pause slows one call, while a
    parser that is slow on the input is slow on every call."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        try:
            parse(text)
        except ExprSyntaxError:
            pass
        best = min(best, time.perf_counter() - start)
        if best < PARSE_BOUND_S:
            break
    return best


def test_fuzz_parser_smoke():
    rng = random.Random(404)
    for text in _fuzz_inputs(rng, 10_000):
        assert _parse_seconds(text) < PARSE_BOUND_S


def _token_soup(rng, count):
    """Texts that alternate operand-like and operator-like tokens, with
    whitespace and stray tokens (the ASCII separator \\x1c among them)
    slipped in, so that brackets and commas are often unbalanced."""
    operands = ["z", "zc", "i", "2", "0.5", "3i", "1e200", "1e10", "exp(",
                "log(", "conj(", "abs(", "(", "-"]
    joins = ["+", "-", "*", "/", "^64", "^2", "^-1", "^20", ")", ","]
    noise = ["^", ".", "1e", "\x1c", "(", ")", ",", "q", *" \t\n\r\f\v"]
    for _ in range(count):
        parts = []
        for k in range(rng.randrange(1, 16)):
            parts.append(rng.choice(joins if k % 2 else operands))
            if rng.random() < 0.15:
                parts.append(rng.choice(noise))
        yield "".join(parts)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_token_soup_parses_to_a_round_trip_tree_or_a_syntax_error(seed):
    rng = random.Random(seed)
    trees = 0
    for text in _token_soup(rng, 4000):
        try:
            e = parse(text)
        except ExprSyntaxError:  # ArityError, UnknownIdentifier too
            continue
        trees += 1
        assert parse(format_expr(e)) == e, text
    assert trees > 100


def test_deep_nesting_is_rejected_not_crashing():
    with pytest.raises(ExprSyntaxError):
        parse("(" * 5000 + "z" + ")" * 5000)


@pytest.mark.parametrize("opener, count", [("(", 39), ("exp(", 39),
                                           ("-", 196)])
def test_nesting_cap_is_as_documented(opener, count):
    # the module docstring's numbers: the cap admits `count` and no more
    closer = ")" if opener != "-" else ""
    parse(opener * count + "z" + closer * count)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse(opener * (count + 1) + "z" + closer * (count + 1))


@pytest.mark.parametrize("text", ["exp(1+2i)", "sin(-1-2i)",
                                  "exp(" * 39 + "1+2i" + ")" * 39])
def test_complex_constant_call_text_round_trips_at_the_cap(text):
    # a call's complex-constant argument gets one pair of parentheses, not
    # two, so a canonical text nests no deeper than the text it came from
    assert format_expr(parse(text)) == text
    assert parse(format_expr(parse(text))) == parse(text)


@pytest.mark.parametrize("text, offset, site", [
    ("-" * 196 + "(z)", 197, "expr"),
    ("-" * 195 + "(z)", 196, "unary"),
    ("-" * 197 + "z", 197, "atom"),
])
def test_each_nesting_check_reports_its_offset(text, offset, site):
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as info:
        parse(text)
    assert info.value.offset == offset
    # the grammar rule that called the one depth check
    assert info.traceback[-2].name == site


# --------------------------------------------------------------------------
# compiled trees
# --------------------------------------------------------------------------

def test_compile_returns_a_parsed_text_or_the_tree_itself():
    text = "z^3 - i*z + conj(z)^2"
    tree = parse(text)
    assert compile_expr(text) == tree and compile_expr(tree) is tree
    # post-order: children before parents, left before right
    tree = compile_expr("z*2+conj(z)")
    assert ex._TAPES[id(tree)][1] == (
        (0, None), (1, 2 + 0j), (4, None), (0, None), (8, "conj"), (2, None))
    assert format_expr(compile_expr(text)) == format_expr(text)


def test_tape_run_looks_up_rebound_rules(monkeypatch):
    tree = compile_expr("z*z + 1")
    calls = []

    def counting_mul(a, b):
        calls.append((a, b))
        return fw.WirtingerJet(a.value * b.value, 0j, 0j)

    monkeypatch.setattr(fw, "mul", counting_mul)
    j = eval_jet(tree, 3, order=1)
    assert len(calls) == 1 and (j.value, j.dz) == (10, 0)


def test_each_distinct_subtree_runs_once_per_evaluation(monkeypatch):
    calls = []
    mul, mul2 = fw.mul, so.mul2
    monkeypatch.setattr(fw, "mul", lambda a, b: calls.append(1) or mul(a, b))
    monkeypatch.setattr(so, "mul2",
                        lambda a, b: calls.append(2) or mul2(a, b))
    j = eval_jet("z*z + z*z", 2, 1)
    assert calls == [1] and (j.value, j.dz, j.dzc) == (8, 8, 0)
    j2 = eval_jet("z*z + z*z", 2, 2)
    assert calls == [1, 2] and (j2.value, j2.dzz) == (8, 4)


def test_constants_with_signed_zeros_are_not_shared():
    # sqrt(-4-0i) is -2i and sqrt(-4+0i) is 2i; one shared result gives +-4i
    e = Add(Call("sqrt", Const(complex(-4, -0.0))),
            Call("sqrt", Const(complex(-4, 0.0))))
    assert eval_jet(e, 1, order=0) == 0j


def test_a_tree_is_compiled_once_and_the_cache_keeps_no_tree_alive():
    tree = parse("abs2(z-1) + (z-1)^2")
    entry = ex._TAPES[id(compile_expr(tree))]
    assert ex._TAPES[id(compile_expr(tree))] is entry
    ref, key = weakref.ref(tree), id(tree)
    assert key in ex._TAPES
    del tree
    assert ref() is None and key not in ex._TAPES


def _replay_every_node(tree, c, rules):
    """The replay before value numbering: every node of the post-order, on
    a stack, with one shared result for z."""
    variable, constant, _, _, _, _, neg, power, call = rules
    x = variable(c)
    stack = []
    for code, p in ex._TAPES[id(tree)][1]:
        if code == 0:
            stack.append(x)
        elif code == 1:
            stack.append(constant(p))
        elif code < 6:
            b = stack.pop()
            stack[-1] = rules[code](stack[-1], b)
        elif code == 6:
            stack[-1] = neg(stack[-1])
        elif code == 7:
            stack[-1] = power(stack[-1], p)
        else:
            stack[-1] = call(p, stack[-1])
    return stack[0]


def _outcome(replay, arg, c, rules, order):
    try:
        r = replay(arg, c, rules)
    except Exception as exc:
        return type(exc), str(exc)
    return r if order is None else [repr(w) for w in _slots(r, order)]


def test_shared_replay_matches_a_replay_of_every_node():
    rng = random.Random(2028)
    for _ in range(150):
        tree = compile_expr(random_ast(rng, 6))
        ops, plan = ex._TAPES[id(tree)][1:]
        runs = [(ex._PRINT_RULES, None, None), (ex._REPR_RULES, None, None)]
        runs += [(ex._RULES[order](), order, c)
                 for order in (0, 1, 2) for c in CONTRACT_POINTS]
        for rules, order, c in runs:
            assert (_outcome(ex._run, plan, c, rules, order)
                    == _outcome(_replay_every_node, tree, c, rules, order)
                    ), (ops, c, order)


DESCENT_COST = "abs2(z - (0.5-0.25i)) + 0.1*abs2(z)^2"
NONHOLOMORPHIC = "z^2*conj(z) + exp(z)"


@pytest.mark.parametrize("make", [str, parse, compile_expr],
                         ids=["text", "ast", "compiled"])
def test_callers_agree_on_text_ast_and_tape(make):
    cfg = DescentConfig(mu=0.2, max_iter=50)
    trace = steepest_descent_scalar(make(DESCENT_COST), 1 + 1j, cfg)
    want = steepest_descent_scalar(DESCENT_COST, 1 + 1j, cfg)
    assert trace.iterations > 5
    assert (trace.iterates, trace.costs, trace.grad_norms,
            trace.termination) == (want.iterates, want.costs,
                                   want.grad_norms, want.termination)
    assert (newton_step_scalar(make(DESCENT_COST), 0.3j)
            == newton_step_scalar(DESCENT_COST, 0.3j))
    assert (classify(make(NONHOLOMORPHIC), 0.4 - 0.2j)
            == classify(NONHOLOMORPHIC, 0.4 - 0.2j))
