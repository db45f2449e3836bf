import pytest

from conftest import CORPUS, sample_points
from wirtcalc.errors import DomainError, StepTooSmall
from wirtcalc.expr import parse
from wirtcalc.fdcheck import (Verdict, classify, fd_partials, fd_wirtinger)
from wirtcalc.optimize import (DescentConfig, newton_step_scalar,
                               steepest_descent_scalar)


def test_partials_of_identity():
    for c in sample_points(3, 5):
        fx, fy = fd_partials("z", c)
        assert abs(fx - 1) < 1e-9
        assert abs(fy - 1j) < 1e-9


def test_partials_of_conjugate():
    for c in sample_points(5, 5):
        fx, fy = fd_partials("conj(z)", c)
        assert abs(fx - 1) < 1e-9
        assert abs(fy + 1j) < 1e-9


def test_partials_of_square():
    fx, fy = fd_partials("z^2", 1 + 1j, step=1e-5)
    assert abs(fx - (2 + 2j)) < 1e-8


def test_wirtinger_of_square():
    w, cw = fd_wirtinger("z^2", 1 + 1j)
    assert abs(w - (2 + 2j)) < 1e-8
    assert abs(cw) < 1e-8


def test_wirtinger_of_modulus_squared():
    for c in sample_points(7, 5):
        w, cw = fd_wirtinger("z*conj(z)", c)
        assert abs(w - c.conjugate()) < 1e-8
        assert abs(cw - c) < 1e-8


def test_wirtinger_of_constant():
    w, cw = fd_wirtinger("2+3i", 0.4 - 0.2j)
    assert abs(w) < 1e-10 and abs(cw) < 1e-10


def test_callable_input():
    w, cw = fd_wirtinger(lambda z: z * z.conjugate(), 1 + 2j)
    assert abs(w - (1 - 2j)) < 1e-8
    assert abs(cw - (1 + 2j)) < 1e-8


def test_step_floor():
    # an infinite step too, which would give a callable zero partials
    for step in (1e-13, float("nan"), float("inf")):
        for f in ("z", lambda c: 1 + 0j):
            with pytest.raises(StepTooSmall, match=f"step {step:g} "):
                fd_partials(f, 1, step=step)


def test_classify_goldens():
    assert classify("z^2", 1 + 1j).verdict is Verdict.HOLOMORPHIC
    assert classify("conj(z)", 0.2 - 0.7j).verdict is Verdict.CONJUGATE_HOLOMORPHIC
    assert classify("z*conj(z)", 1).verdict is Verdict.NEITHER
    assert classify("z*conj(z)", 0).verdict is Verdict.BOTH


def test_classify_reports_residuals():
    rep = classify("z*conj(z)", 1)
    assert rep.cr_residual == abs(rep.cw)
    assert rep.conj_cr_residual == abs(rep.w)
    assert rep.cr_residual > 0.5  # |CW| ~ 1 at z=1


def test_both_implies_small_derivatives():
    rep = classify("z*conj(z)", 0, tol=1e-4)
    assert rep.verdict is Verdict.BOTH
    assert abs(rep.w) < 1e-3 and abs(rep.cw) < 1e-3


def test_classify_surfaces_nondifferentiable_points():
    with pytest.raises(DomainError):
        classify("abs(z)", 0)
    with pytest.raises(DomainError):
        classify("arg(z)", 0)


@pytest.mark.parametrize("expr,point,want", [
    ("z^2", 0.9 + 0.4j, Verdict.HOLOMORPHIC),
    ("conj(z)^3", 0.7 - 0.3j, Verdict.CONJUGATE_HOLOMORPHIC),
    ("z + conj(z)", 1.1 + 0.2j, Verdict.NEITHER),
    ("5", 0.3 + 0.3j, Verdict.BOTH),
])
def test_classification_stable_across_steps(expr, point, want):
    for step in (1e-4, 1e-5, 1e-6):
        assert classify(expr, point, step=step).verdict is want


def test_corpus_classification_stable_across_steps():
    for expr in CORPUS:
        for c in sample_points(43, 2):
            verdicts = {classify(expr, c, step=s).verdict
                        for s in (1e-4, 1e-5, 1e-6)}
            assert len(verdicts) == 1, expr


def test_classification_consistent_with_jets():
    # FD verdict agrees with the structure of the exact derivative pair
    for expr in CORPUS:
        e = parse(expr)
        for c in sample_points(41, 3):
            from wirtcalc.expr import eval_jet
            j = eval_jet(e, c)
            rep = classify(e, c)
            if rep.verdict is Verdict.HOLOMORPHIC:
                assert abs(j.dzc) < 1e-3
            elif rep.verdict is Verdict.CONJUGATE_HOLOMORPHIC:
                assert abs(j.dz) < 1e-3


def test_expressions_reach_a_rebound_eval_jet(monkeypatch):
    # eval_jet is looked up on expr at each call, so a profiler or a test
    # double that rebinds it sees every evaluation of an expression
    import wirtcalc.expr as ex
    calls = []
    original = ex.eval_jet

    def counting(*args, **kwargs):
        calls.append(kwargs.get("order", args[2] if len(args) > 2 else 1))
        return original(*args, **kwargs)

    monkeypatch.setattr(ex, "eval_jet", counting)
    classify("z*conj(z)", 1)
    assert calls[0] == 1 and len(calls) == 5    # the order-1 check, 4 evals
    calls.clear()
    fd_partials("z^2", 1)
    assert calls == [0] * 4
    # so do the scalar descent and Newton
    calls.clear()
    steepest_descent_scalar("z*conj(z)", 1, DescentConfig(
        mu=0.5, max_iter=1, step_mode="backtracking"))
    assert calls == [1, 0, 1]   # start, the accepted line-search step, end
    calls.clear()
    newton_step_scalar("z*conj(z)", 1)
    assert calls == [2]
