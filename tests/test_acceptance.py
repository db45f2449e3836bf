"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
on a green run)."""

import cmath
import random
import time

import numpy as np

from conftest import (CONJUGATED_POLYNOMIALS, CONJUGATION_FREE, CORPUS,
                      random_ast, sample_points)
from test_expr import PARSE_BOUND_S, _fuzz_inputs, _parse_seconds
from test_optimize import REAL_TWINS
from wirtcalc import hilbert as hb
from wirtcalc.expr import eval_jet, format_expr, parse
from wirtcalc.fdcheck import fd_wirtinger
from wirtcalc.optimize import (DescentConfig, Termination,
                               build_least_squares, newton_step_scalar,
                               steepest_descent_hilbert,
                               steepest_descent_scalar)
from wirtcalc.second import second_order_taylor


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


GOLDEN = [
    ("z^2", lambda z: 2 * z, lambda z: 0j),
    ("conj(z)", lambda z: 0j, lambda z: 1 + 0j),
    ("z^3 - i*z + conj(z)^2",
     lambda z: 3 * z * z - 1j,        # sign fixed by the FD oracle
     lambda z: 2 * z.conjugate()),
    ("1/z", lambda z: -1 / (z * z), lambda z: 0j),
    ("(z^2 + conj(z))^3",
     lambda z: 6 * z * (z * z + z.conjugate()) ** 2,
     lambda z: 3 * (z * z + z.conjugate()) ** 2),
    ("z*conj(z)", lambda z: z.conjugate(), lambda z: z),
]


def test_criterion_1_golden_examples():
    start = time.perf_counter()
    worst = 0.0
    for idx, (expr, want_dz, want_dzc) in enumerate(GOLDEN):
        e = parse(expr)
        for c in sample_points(200 + idx, 100):
            j = eval_jet(e, c)
            worst = max(worst,
                        abs(j.dz - want_dz(c)) / (1 + abs(want_dz(c))),
                        abs(j.dzc - want_dzc(c)) / (1 + abs(want_dzc(c))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"6 closed forms x 100 points, worst rel err "
                  f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    assert len(CORPUS) == 20
    for expr in CORPUS:
        e = parse(expr)
        for c in sample_points(97, 20):
            j = eval_jet(e, c)
            w, cw = fd_wirtinger(e, c, step=1e-5)
            worst = max(worst,
                        abs(j.dz - w) / (1 + abs(j.dz)),
                        abs(j.dzc - cw) / (1 + abs(j.dzc)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, ok, f"20 expressions x 20 points vs central differences, "
                  f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_vanishing_slots_are_bitwise_zero():
    ok = True
    for expr in CONJUGATION_FREE:
        for c in sample_points(131, 25):
            ok = ok and eval_jet(expr, c).dzc == 0
    for expr in CONJUGATED_POLYNOMIALS:
        for c in sample_points(137, 25):
            ok = ok and eval_jet(expr, c).dz == 0
    report(3, ok, "conjugation-free dzc and conjugated dz are exactly zero")


def test_criterion_4_taylor_remainders():
    rng = random.Random(139)
    failures = trials = 0
    steps = (1e-2, 1e-3, 1e-4)
    for expr in CORPUS:
        e = parse(expr)
        for c in sample_points(149, 10):
            j = eval_jet(e, c)
            f0 = eval_jet(e, c, order=0)
            direction = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))

            def q(t):
                h = t * direction
                return abs(eval_jet(e, c + h, order=0) - f0
                           - j.dz * h - j.dzc * h.conjugate()) / t

            qs = [q(t) for t in steps]
            trials += 1
            # noise floor: an eps-level evaluation error contributes
            # eps*(1+|f0|)/t to q, which dominates for linear entries
            if not all(qs[k + 1] <= 0.125 * qs[k]
                       + 2e-15 * (1 + abs(f0)) / steps[k + 1]
                       for k in range(len(steps) - 1)):
                failures += 1
    first_ok = failures <= 0.05 * trials

    quadratics = ["z^2", "conj(z)^2", "z*conj(z)",
                  "(2-1i)*z^2 + z*conj(z) - 3*conj(z)^2 + (1+1i)*z + 2"]
    worst = 0.0
    rng2 = random.Random(151)
    for expr in quadratics:
        e = parse(expr)
        for _ in range(25):
            c = complex(rng2.uniform(-2, 2), rng2.uniform(-2, 2))
            h = complex(rng2.uniform(-1, 1), rng2.uniform(-1, 1))
            j2 = eval_jet(e, c, order=2)
            exact = eval_jet(e, c + h, order=0)
            worst = max(worst, abs(second_order_taylor(j2, h) - exact)
                        / (1 + abs(exact)))
    second_ok = worst <= 1e-12
    report(4, first_ok and second_ok,
           f"first-order decade failures {failures}/{trials}, "
           f"quadratic model worst rel err {worst:.2e}")


def test_criterion_5_real_valued_structure():
    from conftest import REAL_COSTS
    worst_pair = worst_hess = 0.0
    for expr in REAL_COSTS:
        e = parse(expr)
        for c in sample_points(157, 10):
            j = eval_jet(e, c, order=2)
            worst_pair = max(worst_pair,
                             abs(j.dz.conjugate() - j.dzc) / (1 + abs(j.dz)))
            scale = 1 + max(abs(j.dzz), abs(j.dzczc))
            worst_hess = max(worst_hess,
                             abs(j.dzzc.imag) / scale,
                             abs(j.dzz - j.dzczc.conjugate()) / scale)
    ok = worst_pair <= 1e-12 and worst_hess <= 1e-10
    report(5, ok, f"10 real costs: conjugate-pair err {worst_pair:.2e}, "
                  f"second-order structure err {worst_hess:.2e}")


def test_criterion_6_hilbert_rules_and_oracle():
    from test_hilbert import functional_corpus
    rng = np.random.default_rng(163)
    rules_ok = True
    worst = 0.0
    for n in (1, 3, 8):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        j = hb.ip_functional("fw", w, c)
        rules_ok &= (np.array_equal(j.grad_f, np.conj(w))
                     and not j.grad_fc.any())
        j = hb.ip_functional("wf", w, c)
        rules_ok &= not j.grad_f.any() and np.array_equal(j.grad_fc, w)
        j = hb.ip_functional("fcw", w, c)
        rules_ok &= (not j.grad_f.any()
                     and np.array_equal(j.grad_fc, np.conj(w)))
        j = hb.ip_functional("wfc", w, c)
        rules_ok &= np.array_equal(j.grad_f, w) and not j.grad_fc.any()

        for name, program in functional_corpus(hb.hvec(w), hb.hvec(v)):
            jet = program(c)
            gw, gcw = hb.fd_wirtinger_gradients(lambda f: program(f).value, c)
            worst = max(
                worst,
                np.linalg.norm(jet.grad_f - gw)
                / (1 + np.linalg.norm(jet.grad_f)),
                np.linalg.norm(jet.grad_fc - gcw)
                / (1 + np.linalg.norm(jet.grad_fc)))
    ok = bool(rules_ok) and worst <= 1e-6
    report(6, ok, f"four gradient rules exact; composed jets vs FD at "
                  f"n in {{1,3,8}}, worst rel err {worst:.2e}")


def test_criterion_7_descent():
    start = time.perf_counter()
    a = 2 + 1j
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    trace = steepest_descent_scalar("(z-(2+1i))*conj(z-(2+1i))", a - 3, cfg)
    errs = [abs(z - a) for z in trace.iterates]
    scalar_ok = (trace.termination is Termination.CONVERGED
                 and trace.iterations <= 30
                 and abs(trace.final - a) < 1e-8
                 and all(abs(errs[k + 1] / errs[k] - 0.5) <= 1e-10
                         for k in range(len(errs) - 2)))

    w = hb.hvec([1 + 1j, -0.5 + 2j, 0.25j, -1 - 1j])
    offset = np.array([2, 2j, 1, 0], dtype=complex)  # norm 3
    htrace = steepest_descent_hilbert(hb.squared_distance(w), w - offset, cfg)
    herrs = [np.linalg.norm(f - w) for f in htrace.iterates]
    hilbert_ok = (htrace.termination is Termination.CONVERGED
                  and htrace.iterations <= 30
                  and np.linalg.norm(htrace.final - w) < 1e-8
                  and all(abs(herrs[k + 1] / herrs[k] - 0.5) <= 1e-10
                          for k in range(len(herrs) - 2)))

    rng = np.random.default_rng(167)
    n, m = 4, 50
    X = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    a0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = [hb.inner(x, a0) + hb.inner(np.conj(x), b0) for x in X]
    prog = build_least_squares(list(X), d, widely_linear=True)
    W = np.hstack([X, np.conj(X)])
    gram = np.conj(W).T @ W
    mu = 0.9 / float(np.max(np.linalg.eigvalsh(gram)))
    wl_cfg = DescentConfig(mu=mu, tol=1e-10, max_iter=5000)
    wl_trace = steepest_descent_hilbert(prog, np.zeros(2 * n, complex), wl_cfg)
    recovery = float(np.linalg.norm(wl_trace.final - np.concatenate([a0, b0])))
    wl_ok = wl_trace.iterations <= 5000 and recovery < 1e-6

    elapsed = time.perf_counter() - start
    ok = scalar_ok and hilbert_ok and wl_ok and elapsed < 5.0
    report(7, ok, f"scalar {trace.iterations} iters, hilbert "
                  f"{htrace.iterations} iters, widely-linear recovery "
                  f"{recovery:.2e} in {wl_trace.iterations} iters, "
                  f"{elapsed:.2f}s")


def test_criterion_8_newton_single_step():
    rng = random.Random(173)
    a = 2 + 1j
    worst = 0.0
    starts = [complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
              for _ in range(25)] + [10 + 10j, -10 - 10j, 0j, a]
    for z in starts:
        step = newton_step_scalar("(z-(2+1i))*conj(z-(2+1i))", z)
        worst = max(worst, abs(z + step - a))
    ok = worst <= 1e-12
    report(8, ok, f"one Newton step from 29 starts, worst landing error "
                  f"{worst:.2e}")


def test_criterion_9_real_coordinate_equivalence():
    mu = 0.1
    cfg = DescentConfig(mu=mu, tol=1e-30, max_iter=10)
    worst = 0.0
    assert len(REAL_TWINS) == 5
    for expr, _cost, grad in REAL_TWINS:
        z0 = 0.3 + 0.7j
        trace = steepest_descent_scalar(expr, z0, cfg)
        x, y = z0.real, z0.imag
        for z in trace.iterates:
            worst = max(worst, abs(z - complex(x, y)))
            gx, gy = grad(x, y)
            x -= mu * 0.5 * gx
            y -= mu * 0.5 * gy
    ok = worst <= 1e-10
    report(9, ok, f"5 costs x 10 steps vs real-coordinate descent, worst "
                  f"iterate gap {worst:.2e}")


def test_criterion_10_parser():
    rng = random.Random(179)
    round_trip_ok = True
    for _ in range(1000):
        e = random_ast(rng, 8)
        round_trip_ok &= parse(format_expr(e)) == e

    worst_time = 0.0
    crashes = 0
    for text in _fuzz_inputs(rng, 100_000):
        try:
            worst_time = max(worst_time, _parse_seconds(text))
        except Exception:
            crashes += 1
    ok = round_trip_ok and crashes == 0 and worst_time < PARSE_BOUND_S
    report(10, ok, f"1000 round trips; 100000 fuzz inputs, 0 crashes "
                   f"expected (got {crashes}), slowest parse "
                   f"{worst_time * 1e3:.2f}ms")
