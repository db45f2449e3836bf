import json
import logging
import math
import warnings

import numpy as np
import pytest

from test_hilbert import assert_frozen_slots, rand_rows, rand_vec
from wirtcalc import hilbert as hb
from wirtcalc.errors import (DimensionMismatch, DomainError, EmptyData,
                             NonRealCost, SingularHessian)
from wirtcalc.optimize import (DescentConfig, DescentTrace, Termination,
                               build_least_squares, newton_step_scalar,
                               steepest_descent_hilbert,
                               steepest_descent_scalar)

A = 2 + 1j
QUAD = "(z-(2+1i))*conj(z-(2+1i))"


# Real-coordinate twins of five costs: (expression, cost(x, y),
# (dg/dx, dg/dy)); used to pin the complex-step iterates against plain
# gradient descent on R^2 with half-gradient steps.
REAL_TWINS = [
    (QUAD,
     lambda x, y: (x - 2) ** 2 + (y - 1) ** 2,
     lambda x, y: (2 * (x - 2), 2 * (y - 1))),
    ("(z*conj(z))^2",
     lambda x, y: (x * x + y * y) ** 2,
     lambda x, y: (4 * x * (x * x + y * y), 4 * y * (x * x + y * y))),
    ("re(z^2) + z*conj(z)",
     lambda x, y: 2 * x * x,
     lambda x, y: (4 * x, 0.0)),
    ("exp(z*conj(z))",
     lambda x, y: math.exp(x * x + y * y),
     lambda x, y: (2 * x * math.exp(x * x + y * y),
                   2 * y * math.exp(x * x + y * y))),
    ("(z^2-(1+1i))*conj(z^2-(1+1i))",
     lambda x, y: (x * x - y * y - 1) ** 2 + (2 * x * y - 1) ** 2,
     lambda x, y: (4 * x * (x * x - y * y - 1) + 4 * y * (2 * x * y - 1),
                   -4 * y * (x * x - y * y - 1) + 4 * x * (2 * x * y - 1))),
]


def test_config_validation():
    for bad in ({"mu": 0}, {"mu": math.nan}, {"mu": math.inf},
                {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-8}):
        with pytest.raises(ValueError):
            DescentConfig(**bad)
    with pytest.raises(ValueError):
        DescentConfig(step_mode="bisect")
    with pytest.raises(ValueError):
        DescentConfig(max_iter=-1)
    for bad in (math.nan, 1.5):         # not an integer
        with pytest.raises(TypeError):
            DescentConfig(max_iter=bad)


def test_scalar_descent_geometric_decay():
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    z0 = A - 3  # |z0 - A| = 3
    trace = steepest_descent_scalar(QUAD, z0, cfg)
    assert trace.termination is Termination.CONVERGED
    assert trace.iterations <= 30
    assert abs(trace.final - A) < 1e-8
    errs = [abs(z - A) for z in trace.iterates]
    for k in range(len(errs) - 2):
        assert abs(errs[k + 1] / errs[k] - 0.5) <= 1e-10


def test_scalar_descent_costs_non_increasing():
    cfg = DescentConfig(mu=0.4, tol=1e-10, max_iter=200)
    trace = steepest_descent_scalar(QUAD, -1 + 4j, cfg)
    assert all(b <= a + 1e-15 for a, b in zip(trace.costs, trace.costs[1:]))


def test_scalar_descent_stationary_start():
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    trace = steepest_descent_scalar(QUAD, A, cfg)
    assert trace.termination is Termination.CONVERGED
    assert trace.iterations == 0
    assert trace.final == A


def test_scalar_descent_diverges_with_large_step():
    cfg = DescentConfig(mu=2.5, tol=1e-8, max_iter=100)
    trace = steepest_descent_scalar(QUAD, 0, cfg)
    assert trace.termination is Termination.DIVERGED


def test_scalar_descent_max_iter():
    cfg = DescentConfig(mu=1e-4, tol=1e-12, max_iter=10)
    trace = steepest_descent_scalar(QUAD, 0, cfg)
    assert trace.termination is Termination.MAX_ITER
    assert trace.iterations == 10


def test_scalar_descent_reports_a_stalled_line_search():
    # |z-1| has a kink at its minimum: near it no step length decreases
    # the cost enough, so the line search gives up before max_iter
    cfg = DescentConfig(mu=0.5, tol=1e-12, max_iter=200,
                        step_mode="backtracking")
    trace = steepest_descent_scalar("abs(z-1)", 0.3j, cfg)
    assert trace.termination is Termination.STALLED
    assert trace.iterations < cfg.max_iter
    assert abs(trace.final - 1) < 1e-12


def test_scalar_descent_step_into_overflow():
    # the first step lands at -1e200, where the cost overflows
    fixed = DescentConfig(mu=1e200, tol=1e-8, max_iter=100)
    trace = steepest_descent_scalar("z*conj(z)", 1, fixed)
    assert trace.termination is Termination.DIVERGED
    # every trial step overflows, so backtracking rejects them all
    backtracking = DescentConfig(mu=1e300, tol=1e-8, max_iter=100,
                                 step_mode="backtracking")
    trace = steepest_descent_scalar("z*conj(z)", 1, backtracking)
    assert trace.termination is Termination.STALLED
    assert trace.final == 1


def test_scalar_descent_rejects_non_real_cost():
    cfg = DescentConfig(mu=0.1, tol=1e-8, max_iter=10)
    with pytest.raises(NonRealCost):
        steepest_descent_scalar("i*z", 1, cfg)


def test_stationarity_is_a_conjugate_pair():
    from wirtcalc.expr import eval_jet
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    trace = steepest_descent_scalar(QUAD, 1 - 2j, cfg)
    j = eval_jet(QUAD, trace.final)
    assert abs(j.dzc) < cfg.tol
    assert abs(j.dz) < cfg.tol


def test_backtracking_descends_on_every_cost():
    cfg = DescentConfig(mu=2.0, tol=1e-6, max_iter=500,
                        step_mode="backtracking")
    for expr, _, _ in REAL_TWINS:
        trace = steepest_descent_scalar(expr, 0.4 + 0.3j, cfg)
        assert all(b <= a + 1e-15 for a, b in zip(trace.costs,
                                                  trace.costs[1:])), expr


def test_wirtinger_iterates_match_real_coordinate_descent():
    mu = 0.1
    cfg = DescentConfig(mu=mu, tol=0.0 + 1e-30, max_iter=10)
    for expr, cost, grad in REAL_TWINS:
        z0 = 0.3 + 0.7j
        trace = steepest_descent_scalar(expr, z0, cfg)
        x, y = z0.real, z0.imag
        for step, z in enumerate(trace.iterates):
            assert abs(z - complex(x, y)) <= 1e-10, (expr, step)
            gx, gy = grad(x, y)
            x -= mu * 0.5 * gx
            y -= mu * 0.5 * gy


def test_trace_json_lines_scalar():
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=50)
    trace = steepest_descent_scalar(QUAD, 0, cfg)
    lines = list(trace.json_lines())
    assert len(lines) == len(trace.iterates)
    rec = json.loads(lines[0])
    assert rec["iter"] == 0
    assert rec["z"] == [0.0, 0.0]
    assert math.isfinite(rec["cost"]) and math.isfinite(rec["grad_norm"])


def test_trace_json_lines_vector(np_rng):
    w = hb.hvec([1 + 1j, -2j])
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=50)
    trace = steepest_descent_hilbert(hb.squared_distance(w),
                                     np.zeros(2, dtype=complex), cfg)
    rec = json.loads(list(trace.json_lines())[-1])
    assert len(rec["f"]) == 2


# --------------------------------------------------------------------------
# Hilbert descent
# --------------------------------------------------------------------------


def test_hilbert_descent_halves_distance(np_rng):
    # dyadic coordinates keep every iterate exactly representable, so the
    # per-step contraction is exactly one half
    w = hb.hvec([1 + 1j, -0.5 + 2j, 0.25j, -1 - 1j, 2 + 0j])
    offset = np.array([2, 2j, 1, 0, 0], dtype=complex)  # norm 3
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    f0 = w - offset
    trace = steepest_descent_hilbert(hb.squared_distance(w), f0, cfg)
    assert trace.termination is Termination.CONVERGED
    errs = [np.linalg.norm(f - w) for f in trace.iterates]
    for k in range(len(errs) - 2):
        assert abs(errs[k + 1] / errs[k] - 0.5) <= 1e-10


def test_hilbert_descent_stationary_start(np_rng):
    w = hb.hvec([0.5 - 1j, 2 + 0.25j])
    cfg = DescentConfig(mu=0.5, tol=1e-8, max_iter=100)
    trace = steepest_descent_hilbert(hb.squared_distance(w), w, cfg)
    assert trace.termination is Termination.CONVERGED
    assert trace.iterations == 0


# --------------------------------------------------------------------------
# least squares
# --------------------------------------------------------------------------


def wl_problem(np_rng, n=4, m=50):
    X = (np_rng.standard_normal((m, n))
         + 1j * np_rng.standard_normal((m, n))) / np.sqrt(2)
    a0 = np_rng.standard_normal(n) + 1j * np_rng.standard_normal(n)
    b0 = np_rng.standard_normal(n) + 1j * np_rng.standard_normal(n)
    d = np.array([hb.inner(x, a0) + hb.inner(np.conj(x), b0) for x in X])
    return X, a0, b0, d


def test_single_sample_strict():
    prog = build_least_squares([[1 + 0j]], [1 + 0j])
    jet = prog(np.array([1 + 0j]))
    assert abs(jet.value) < 1e-14
    cfg = DescentConfig(mu=0.5, tol=1e-10, max_iter=200)
    trace = steepest_descent_hilbert(prog, np.zeros(1, dtype=complex), cfg)
    assert trace.termination is Termination.CONVERGED
    assert abs(trace.final[0] - 1) < 1e-8


def test_least_squares_validation():
    with pytest.raises(EmptyData):
        build_least_squares([], [])
    with pytest.raises(DimensionMismatch):
        build_least_squares([[1 + 0j], [1 + 0j, 2 + 0j]], [0j, 0j])
    with pytest.raises(DimensionMismatch):
        build_least_squares([[1 + 0j]], [0j, 0j])
    with pytest.raises(DimensionMismatch):
        build_least_squares([[], []], [0j, 0j])
    with pytest.raises(DimensionMismatch):
        build_least_squares([[{}]], [0j])           # not a number
    prog = build_least_squares([[1 + 0j, 0j]], [0j])
    # the dimension is checked before the values
    for bad in (np.zeros(3, dtype=complex), [math.nan, 0, 0]):
        with pytest.raises(DimensionMismatch):
            prog(bad)
    for bad in (math.nan, complex(0, math.inf), -math.inf, 10 ** 400):
        with pytest.raises(DomainError):
            build_least_squares([[1 + 0j], [1j]], [1 + 0j, bad])
        with pytest.raises(DomainError):
            build_least_squares([[1 + 0j], [bad]], [1 + 0j, 0j])


def test_hilbert_descent_rejects_an_overflowing_start():
    # |d|^2 overflows, so the cost at the start is inf
    prog = build_least_squares([[1 + 0j], [1j]], [1e200 + 0j, 3e200 + 1j])
    cfg = DescentConfig(mu=0.1, tol=1e-8, max_iter=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no numpy overflow warning
        with pytest.raises(DomainError):
            steepest_descent_hilbert(prog, np.zeros(1, dtype=complex), cfg)


def test_least_squares_call_refuses_a_non_finite_cost():
    # inf - inf in the residual: the cost is nan, not a silent jet
    prog = build_least_squares([[1e200, 1], [2, 3]], [1, 2])
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            prog([1e200, 0])
        with pytest.raises(DomainError, match="not finite"):
            prog.eval_assembled([1e200, 0])


def test_hilbert_descent_step_into_overflow():
    # the first step lands at 1e200, where the cost overflows: the run
    # diverges and keeps only the finite start
    prog = build_least_squares([[1 + 0j]], [1 + 0j])
    cfg = DescentConfig(mu=1e200, tol=1e-8, max_iter=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = steepest_descent_hilbert(prog, np.zeros(1, dtype=complex),
                                         cfg)
    assert trace.termination is Termination.DIVERGED
    assert trace.iterations == 0
    assert trace.costs == [1.0] and trace.grad_norms == [1.0]


def test_hilbert_descent_checks_the_gradient_norm():
    # a finite gradient whose norm overflows: DomainError at the start,
    # DIVERGED once the run reaches it
    huge = np.full(2, 1e200 + 0j)
    with pytest.raises(DomainError, match="gradient norm"):
        steepest_descent_hilbert(lambda f: hb.FunctionalJet(0.0, huge, huge),
                                 np.zeros(2), DescentConfig())

    def cost(f):
        g = huge if abs(f[0]) > 0.5 else np.ones(2, dtype=complex)
        return hb.FunctionalJet(0.0, g, g)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = steepest_descent_hilbert(cost, np.zeros(2),
                                         DescentConfig(mu=0.1))
    assert trace.termination is Termination.DIVERGED
    assert trace.iterations == 5
    assert all(math.isfinite(gn) for gn in trace.grad_norms)


def test_hilbert_descent_records_the_euclidean_gradient_norm(np_rng):
    X, d = rand_rows(np_rng, 40, 3), rand_rows(np_rng, 1, 40)[0]
    for wl in (False, True):
        prog = build_least_squares(X, d, widely_linear=wl)
        W = np.hstack([X, np.conj(X)]) if wl else X
        mu = 0.5 / np.linalg.eigvalsh(np.conj(W).T @ W)[-1]
        cfg = DescentConfig(mu=mu, tol=1e-8, max_iter=25)
        trace = steepest_descent_hilbert(
            prog, np.zeros(prog.n_params, dtype=complex), cfg)
        assert trace.iterations == 25, wl
        for f, gn in zip(trace.iterates, trace.grad_norms):
            want = np.linalg.norm(prog(f).grad_fc)
            assert type(gn) is float
            assert abs(gn - want) <= 1e-15 * want, (wl, gn, want)


def test_assembled_matches_vectorized(np_rng):
    X, a0, b0, d = wl_problem(np_rng, n=3, m=8)
    for wl in (False, True):
        prog = build_least_squares(list(X), list(d), widely_linear=wl)
        for _ in range(3):
            c = (np_rng.standard_normal(prog.n_params)
                 + 1j * np_rng.standard_normal(prog.n_params))
            fast, ref = prog(c), prog.eval_assembled(c)
            assert abs(fast.value - ref.value) <= 1e-12 * (1 + abs(ref.value))
            assert np.linalg.norm(fast.grad_f - ref.grad_f) <= 1e-10
            assert np.linalg.norm(fast.grad_fc - ref.grad_fc) <= 1e-10


def test_least_squares_gradients_are_a_conjugate_pair(np_rng):
    X, a0, b0, d = wl_problem(np_rng, n=3, m=8)
    for wl in (False, True):
        prog = build_least_squares(list(X), list(d), widely_linear=wl)
        W = np.hstack([X, np.conj(X)]) if wl else X
        c = (np_rng.standard_normal(prog.n_params)
             + 1j * np_rng.standard_normal(prog.n_params))
        jet = prog(c)
        assert np.array_equal(jet.grad_f, np.conj(jet.grad_fc))
        want = -(np.conj(W).T @ (d - W @ np.conj(c)))
        assert (np.linalg.norm(jet.grad_f - want)
                <= 1e-13 * np.linalg.norm(want))
        assert_frozen_slots(jet)
        assert_frozen_slots(prog.eval_assembled(c))


def augmented_least_squares(X, d, c, wl):
    """Residual, cost and (grad_f, grad_fc) from the augmented W = [X, X*]."""
    W = np.hstack([X, np.conj(X)]) if wl else X
    r = d - W @ np.conj(c)
    grad_fc = -(W.T @ np.conj(r))
    return r, np.vdot(r, r).real, np.conj(grad_fc), grad_fc


def assert_rel_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), what


def sample_layouts(rng, m, n):
    """The same kind of samples C-ordered, Fortran-ordered and as a
    non-contiguous view (every other column of a wider array)."""
    wide = rand_rows(rng, m, 2 * n)
    return {"C": np.ascontiguousarray(wide[:, :n]),
            "F": np.asfortranarray(wide[:, n:]),
            "strided": wide[:, ::2]}


@pytest.mark.parametrize("m, n", [(40, 5), (40, 1), (1, 3), (1, 1)])
def test_least_squares_kernel_matches_augmented_formula(m, n, np_rng):
    d = rand_vec(np_rng, m)
    for layout, X in sample_layouts(np_rng, m, n).items():
        for wl in (False, True):
            prog = build_least_squares(X, d, widely_linear=wl)
            c = rand_vec(np_rng, prog.n_params)
            _, value, grad_f, grad_fc = augmented_least_squares(X, d, c, wl)
            what = (layout, wl)
            for jet in (prog(c), prog.eval_assembled(c)):
                assert_rel_close(jet.value, value, what)
                assert_rel_close(jet.grad_f, grad_f, what)
                assert_rel_close(jet.grad_fc, grad_fc, what)


@pytest.mark.parametrize("m, n", [(40, 5), (40, 1), (3, 5), (1, 3)])
def test_least_squares_factor_keeps_the_gram_of_w_and_d(m, n, np_rng,
                                                        monkeypatch):
    # [W | d] = Q [R_W | r_d] with orthonormal Q, so both have one Gram; a
    # misplaced conjugate half of R_W breaks it.  Widely linear factors
    # the real view of [X | d], strict the complex [X | d].
    qr_dtypes = []
    real_qr = np.linalg.qr

    def recording_qr(a, mode):
        qr_dtypes.append(a.dtype)
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    d = rand_vec(np_rng, m)
    for layout, X in sample_layouts(np_rng, m, n).items():
        for wl in (False, True):
            prog = build_least_squares(X, d, widely_linear=wl)
            # cached in conjugate space: conj(R_W), -R_W^T and conj(r_d)
            RWc, mRWT, rdc = prog._factor
            assert qr_dtypes.pop() == (np.float64 if wl else np.complex128)
            RW, rd = np.conj(RWc), np.conj(rdc)
            assert np.array_equal(mRWT, -RW.T)
            Wd = np.column_stack([X, np.conj(X), d] if wl else [X, d])
            Rd = np.column_stack([RW, rd])
            assert_rel_close(np.conj(Rd).T @ Rd, np.conj(Wd).T @ Wd,
                             (layout, wl))


@pytest.mark.parametrize("m, n", [(40, 5), (40, 1), (3, 5), (1, 3),
                                  (500, 16)])
def test_least_squares_call_is_bitwise_the_old_formula(m, n, np_rng):
    # the formula before the triangle was cached in conjugate space:
    # e = r_d - R_W conj(c), grad_f = -(R_W^H e), grad_fc = conj(grad_f)
    X, d = rand_rows(np_rng, m, n), rand_vec(np_rng, m)
    for wl in (False, True):
        prog = build_least_squares(X, d, widely_linear=wl)
        RWc, _, rdc = prog._factor
        RW, rd = np.conj(RWc), np.conj(rdc)
        RWH = np.ascontiguousarray(np.conj(RW).T)
        for _ in range(4):
            c = rand_vec(np_rng, prog.n_params)
            e = rd - RW @ np.conj(c)
            value = complex(np.vdot(e.view(np.float64), e.view(np.float64)))
            grad_f = -(RWH @ e)
            got = prog(c)
            for a, b in ((got.value, value), (got.grad_f, grad_f),
                         (got.grad_fc, np.conj(grad_f))):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (
                    m, n, wl)


def test_least_squares_call_keeps_nothing_of_its_parameter(np_rng):
    X, d = rand_rows(np_rng, 30, 3), rand_vec(np_rng, 30)
    for wl in (False, True):
        prog = build_least_squares(X, d, widely_linear=wl)
        c = np.array(rand_vec(np_rng, prog.n_params))
        as_list = c.tolist()
        jet = prog(c)
        assert c.flags.writeable
        assert not any(np.shares_memory(c, s) for s in (jet.dz, jet.dzc))
        assert_frozen_slots(jet)
        want = (jet.value, jet.dz.copy(), jet.dzc.copy())
        c *= 3
        assert jet.value == want[0]
        assert np.array_equal(jet.dz, want[1])
        assert np.array_equal(jet.dzc, want[2])
        assert prog(as_list) == jet


def test_least_squares_keeps_one_copy_of_the_samples(np_rng):
    n = 4
    extra_sizes = {}
    for m in (30, 60):
        X, d = rand_rows(np_rng, m, n), rand_rows(np_rng, 1, m)[0]
        for wl in (False, True):
            prog = build_least_squares(X, d, widely_linear=wl)
            arrays = [a for a in vars(prog).values()
                      if isinstance(a, np.ndarray)]
            # N x n samples and N targets, no conjugate or augmented copy
            assert sum(a.size for a in arrays) == m * n + m
            assert all(a.dtype == np.complex128 for a in arrays)
            c = rand_vec(np_rng, prog.n_params)
            before = prog(c)
            # after a call: no other array of N rows, and whatever the call
            # cached has a size that does not depend on N
            held = [a for v in vars(prog).values()
                    for a in (v if isinstance(v, tuple) else (v,))
                    if isinstance(a, np.ndarray)
                    and not any(a is b for b in arrays)]
            assert all(m not in a.shape for a in held), (m, wl)
            extra_sizes.setdefault(wl, set()).add(sum(a.size for a in held))
            X_seen, d_seen = X.copy(), d.copy()
            X *= 2
            d += 1
            after = prog(c)
            assert after.value == before.value
            assert np.array_equal(after.grad_fc, before.grad_fc)
            assert_rel_close(after.value,
                             augmented_least_squares(X_seen, d_seen, c, wl)[1],
                             wl)
    assert all(len(sizes) == 1 for sizes in extra_sizes.values())


def test_least_squares_factor_handles_rank_deficient_and_short_data(np_rng):
    dup = rand_rows(np_rng, 40, 4)
    dup[:, 3] = dup[:, 1]           # rank-deficient X
    cases = {"duplicated column": dup, "N < n": rand_rows(np_rng, 3, 5),
             "N = 1": rand_rows(np_rng, 1, 4)}
    for what, X in cases.items():
        d = rand_vec(np_rng, X.shape[0])
        for wl in (False, True):
            prog = build_least_squares(X, d, widely_linear=wl)
            for _ in range(3):
                c = rand_vec(np_rng, prog.n_params)
                _, value, grad_f, grad_fc = augmented_least_squares(
                    X, d, c, wl)
                ref = prog.eval_assembled(c)
                for jet in (prog(c), ref):
                    assert_rel_close(jet.value, value, (what, wl))
                    assert_rel_close(jet.grad_f, grad_f, (what, wl))
                    assert_rel_close(jet.grad_fc, grad_fc, (what, wl))


def test_least_squares_exact_fit_value_is_a_tiny_sum_of_squares(np_rng):
    for N in (50, 5000):
        X = rand_rows(np_rng, N, 4)
        for wl in (False, True):
            c0 = rand_vec(np_rng, 8 if wl else 4)
            W = np.hstack([X, np.conj(X)]) if wl else X
            prog = build_least_squares(X, W @ np.conj(c0), widely_linear=wl)
            jet = prog(c0)
            # the value is ||R a||^2, never a cancelling difference
            assert jet.value.real >= 0 and jet.value.imag == 0
            assert jet.value.real <= 1e-20 * N
            scale = np.linalg.norm(W) ** 2 * np.linalg.norm(c0)
            assert np.linalg.norm(jet.grad_fc) <= 1e-13 * scale


def test_least_squares_overflow_raises_without_a_warning():
    cfg = DescentConfig(mu=0.1, tol=1e-8, max_iter=10)
    huge_targets = ([[1 + 0j], [1j]], [1e200 + 0j, 3e200 + 1j])
    huge_sample = ([[1e200, 1], [2, 3]], [1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no numpy RuntimeWarning first
        for wl in (False, True):
            prog = build_least_squares(*huge_targets, widely_linear=wl)
            with pytest.raises(DomainError, match="not finite"):
                prog(np.zeros(prog.n_params))
            with pytest.raises(DomainError, match="not finite"):
                steepest_descent_hilbert(prog, np.zeros(prog.n_params), cfg)
            prog = build_least_squares(*huge_sample, widely_linear=wl)
            start = np.zeros(prog.n_params)
            start[0] = 1e200
            with pytest.raises(DomainError, match="not finite"):
                steepest_descent_hilbert(prog, start, cfg)
            # finite data whose column norm overflows: no factor to keep
            prog = build_least_squares(np.full((5000, 1), 1e307),
                                       np.full(5000, 1e307), widely_linear=wl)
            for _ in range(2):
                with pytest.raises(DomainError, match="too large to factor"):
                    prog(np.ones(prog.n_params))
            with pytest.raises(DomainError, match="too large to factor"):
                steepest_descent_hilbert(prog, np.ones(prog.n_params), cfg)


def test_least_squares_jet_matches_fd(np_rng):
    X, a0, b0, d = wl_problem(np_rng, n=2, m=5)
    prog = build_least_squares(list(X), list(d), widely_linear=True)
    c = np_rng.standard_normal(4) + 1j * np_rng.standard_normal(4)
    jet = prog(c)
    gw, gcw = hb.fd_wirtinger_gradients(lambda f: prog(f).value, c)
    assert np.linalg.norm(jet.grad_f - gw) <= 1e-5 * (1 + np.linalg.norm(gw))
    assert np.linalg.norm(jet.grad_fc - gcw) <= 1e-5 * (1 + np.linalg.norm(gcw))


def test_widely_linear_recovers_planted_coefficients(np_rng):
    X, a0, b0, d = wl_problem(np_rng)
    prog = build_least_squares(list(X), list(d), widely_linear=True)
    target = np.concatenate([a0, b0])
    W = np.hstack([X, np.conj(X)])
    gram = np.conj(W).T @ W
    mu = 0.9 / float(np.max(np.linalg.eigvalsh(gram)))
    cfg = DescentConfig(mu=mu, tol=1e-9, max_iter=5000)
    trace = steepest_descent_hilbert(prog, np.zeros(8, dtype=complex), cfg)
    assert trace.termination is Termination.CONVERGED
    assert np.linalg.norm(trace.final - target) < 1e-6

    # direct solve oracle: T = ||d - W conj(f)||^2 so conj(f) solves lstsq
    g, *_ = np.linalg.lstsq(W, d, rcond=None)
    assert np.linalg.norm(np.conj(g) - target) < 1e-8


def test_strict_mode_on_widely_linear_data_fits_worse(np_rng):
    X, a0, b0, d = wl_problem(np_rng, n=3, m=40)
    strict = build_least_squares(list(X), list(d), widely_linear=False)
    wide = build_least_squares(list(X), list(d), widely_linear=True)
    g_s, *_ = np.linalg.lstsq(X, d, rcond=None)
    g_w, *_ = np.linalg.lstsq(np.hstack([X, np.conj(X)]), d, rcond=None)
    cost_s = strict(np.conj(g_s)).value.real
    cost_w = wide(np.conj(g_w)).value.real
    assert cost_w < 1e-16
    assert cost_s > cost_w + 1e-3


# --------------------------------------------------------------------------
# Newton
# --------------------------------------------------------------------------


def test_newton_one_step_exact(np_rng):
    for _ in range(10):
        z = complex(np_rng.uniform(-5, 5), np_rng.uniform(-5, 5))
        step = newton_step_scalar(QUAD, z)
        assert abs((z + step) - A) <= 1e-12


def test_newton_at_minimum_is_zero():
    assert newton_step_scalar(QUAD, A) == 0


def test_newton_flat_cost_is_singular():
    with pytest.raises(SingularHessian):
        newton_step_scalar("re(z)", 0.3 + 0.1j)


def test_newton_degenerate_quadratic_is_singular():
    # re(z)^2 has a genuinely singular second-order block (det = 0)
    with pytest.raises(SingularHessian):
        newton_step_scalar("re(z)^2", 1 + 1j)


def test_newton_refuses_a_pair_that_is_not_conjugate():
    # the value 3 is real and the block regular, but the solved pair is
    # (-1.5, -1)
    with pytest.raises(SingularHessian, match="not a conjugate pair"):
        newton_step_scalar("z^2 + conj(z)^2 + z", 1)


@pytest.mark.parametrize("level, logs", [(logging.DEBUG, True),
                                         (logging.WARNING, False)])
def test_descent_logs_each_iterate_at_debug_only(level, logs, caplog,
                                                 np_rng):
    # the level is read when a run starts, so it is set before the run
    caplog.set_level(level, logger="wirtcalc.optimize")
    lsq = build_least_squares(rand_rows(np_rng, 6, 2), rand_vec(np_rng, 6))
    cfg = DescentConfig(mu=0.05, max_iter=5)
    for run in (lambda: steepest_descent_scalar(QUAD, 0j, cfg),
                lambda: steepest_descent_hilbert(lsq, np.zeros(2), cfg)):
        caplog.clear()
        trace = run()
        got = [r.getMessage().split(":")[0] for r in caplog.records
               if r.name == "wirtcalc.optimize"]
        want = [f"iter {k}" for k in range(len(trace.iterates))]
        assert got == (want if logs else [])
        assert len(trace.iterates) > 1


def test_trace_defaults():
    t = DescentTrace()
    assert t.termination is Termination.MAX_ITER
    assert t.iterates == []
