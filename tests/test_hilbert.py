import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wirtcalc import forward as fw
from wirtcalc import hilbert as hb
from wirtcalc.errors import (DimensionMismatch, DomainError, PoleError,
                             StepTooSmall)
from wirtcalc.expr import eval_jet
from wirtcalc.fdcheck import DEFAULT_STEP, Verdict, fd_partials
from wirtcalc.optimize import (DescentConfig, build_least_squares,
                               steepest_descent_hilbert)


def rand_vec(rng, n):
    return hb.hvec(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def functional_corpus(w, v):
    """Composed programs built from the inner-product rules and algebra;
    each entry is (name, program) with program(c) -> FunctionalJet."""
    n = w.shape[0]

    def rational(c):
        num = hb.ip_functional("fw", w, c)
        g = hb.ip_functional("fw", v, c)
        den = fw.add(hb.functional_constant(2.0, n),
                     fw.mul(g, fw.conj(g)))
        return fw.div(num, den)

    def outer_square(c):
        # S(T(f)) by the chain rule: S's scalar jet at T's value
        t = hb.ip_functional("fw", w, c)
        s = eval_jet("z^2 + conj(z)", t.value)
        return fw.chain(s.value, s.dz, s.dzc, t)

    return [
        ("rule_fw", lambda c: hb.ip_functional("fw", w, c)),
        ("rule_wf", lambda c: hb.ip_functional("wf", w, c)),
        ("rule_fcw", lambda c: hb.ip_functional("fcw", w, c)),
        ("rule_wfc", lambda c: hb.ip_functional("wfc", w, c)),
        ("abs_ip_squared", lambda c: fw.mul(
            hb.ip_functional("fw", w, c),
            fw.conj(hb.ip_functional("fw", w, c)))),
        ("mixed_product", lambda c: fw.add(
            fw.mul(hb.ip_functional("fw", w, c),
                   hb.ip_functional("wf", v, c)),
            hb.ip_functional("wfc", w, c))),
        ("rational", rational),
        ("outer_square", outer_square),
        ("distance", hb.squared_distance(w)),
        ("linear_mix", lambda c: fw.linear_combine(
            2 - 1j, hb.ip_functional("fw", w, c),
            0.5j, hb.ip_functional("fcw", v, c))),
        ("exp_ip", lambda c: fw.apply_primitive(
            "exp", hb.ip_functional("fw", w, c))),
        ("ip_cubed", lambda c: fw.power_int(hb.ip_functional("fw", w, c), 3)),
    ]


# --------------------------------------------------------------------------
# inner product
# --------------------------------------------------------------------------


def test_inner_scalar_reduction():
    f = hb.hvec([2 + 1j])
    g = hb.hvec([0.5 - 3j])
    assert hb.inner(f, g) == (2 + 1j) * (0.5 + 3j)


def test_inner_self_is_real_nonneg(np_rng):
    for _ in range(10):
        f = rand_vec(np_rng, 5)
        v = hb.inner(f, f)
        assert abs(v.imag) < 1e-12
        assert v.real >= 0
    assert hb.inner(hb.hvec([0, 0]), hb.hvec([0, 0])) == 0


def test_inner_linear_first_slot(np_rng):
    for _ in range(10):
        f, g = rand_vec(np_rng, 6), rand_vec(np_rng, 6)
        lhs = hb.inner(1j * f, g)
        assert abs(lhs - 1j * hb.inner(f, g)) < 1e-12
        assert abs(hb.inner(f, 1j * g) - (-1j) * hb.inner(f, g)) < 1e-12


def test_inner_matches_componentwise_real_formula(np_rng):
    for _ in range(10):
        f, g = rand_vec(np_rng, 4), rand_vec(np_rng, 4)
        uf, vf = f.real, f.imag
        ug, vg = g.real, g.imag
        want = (uf @ ug + vf @ vg) + 1j * (vf @ ug - uf @ vg)
        assert abs(hb.inner(f, g) - want) <= 1e-12 * (1 + abs(want))


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hb.inner(hb.hvec([1, 2]), hb.hvec([1, 2, 3]))


@pytest.mark.parametrize("f, g, error", [
    ([[1, 2], [3, 4]], [[1, 2], [3, 4]], DimensionMismatch),
    ([1, 2], [[1, 2]], DimensionMismatch),
    ([], [], DimensionMismatch),
    ([float("inf")], [1], DomainError),
    ([1], [float("nan")], DomainError),
    ([1e200], [1e200], DomainError),
    ([1e200j, 1], [1e200j, 1], DomainError),
    ([[1, 2], [3]], [1, 2], DimensionMismatch),
    (["a", 1], [1, 2], DimensionMismatch),
    ([1, 2], [[1, 2], [3]], DimensionMismatch),
    ([10 ** 400, 1], [1, 2], DomainError),
])
def test_inner_keeps_the_hvec_contract(f, g, error):
    # plain lists too, and an overflowed sum raises before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            hb.inner(f, g)


def test_hvec_validation():
    with pytest.raises(DomainError):
        hb.hvec([float("inf"), 0])
    with pytest.raises(DimensionMismatch):
        hb.hvec([[1, 2], [3, 4]])
    frozen = hb.hvec([1, 2])
    with pytest.raises(ValueError):
        frozen[0] = 5


# --------------------------------------------------------------------------
# the four inner-product rules
# --------------------------------------------------------------------------


def test_ip_rules_exact(np_rng):
    w, c = rand_vec(np_rng, 5), rand_vec(np_rng, 5)
    j = hb.ip_functional("fw", w, c)
    assert j.value == hb.inner(c, w)
    assert np.array_equal(j.grad_f, np.conj(w))
    assert np.all(j.grad_fc == 0)

    j = hb.ip_functional("wf", w, c)
    assert j.value == hb.inner(w, c)
    assert np.all(j.grad_f == 0)
    assert np.array_equal(j.grad_fc, w)

    j = hb.ip_functional("fcw", w, c)
    assert j.value == hb.inner(np.conj(c), w)
    assert np.all(j.grad_f == 0)
    assert np.array_equal(j.grad_fc, np.conj(w))

    j = hb.ip_functional("wfc", w, c)
    assert j.value == hb.inner(w, np.conj(c))
    assert np.array_equal(j.grad_f, w)
    assert np.all(j.grad_fc == 0)


def test_ip_unknown_kind(np_rng):
    w = rand_vec(np_rng, 2)
    with pytest.raises(ValueError):
        hb.ip_functional("ww", w, w)


def test_conj_of_rule1_matches_rule2(np_rng):
    w, c = rand_vec(np_rng, 4), rand_vec(np_rng, 4)
    lhs = fw.conj(hb.ip_functional("fw", w, c))
    rhs = hb.ip_functional("wf", w, c)
    assert abs(lhs.value - rhs.value) < 1e-12
    assert np.allclose(lhs.grad_f, rhs.grad_f, atol=1e-15)
    assert np.allclose(lhs.grad_fc, rhs.grad_fc, atol=1e-15)


def test_mul_gives_modulus_squared_gradient(np_rng):
    w, c = rand_vec(np_rng, 5), rand_vec(np_rng, 5)
    a = hb.ip_functional("fw", w, c)
    b = hb.ip_functional("wf", w, c)
    j = fw.mul(a, b)
    assert np.allclose(j.grad_fc, hb.inner(c, w) * w, atol=1e-12)
    assert abs(j.value.imag) < 1e-12  # |<f,w>|^2 is real


def test_chain_holomorphic_outer(np_rng):
    w, c = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    t = hb.ip_functional("fw", w, c)
    s = eval_jet("z^2", t.value)
    j = fw.chain(s.value, s.dz, s.dzc, t)
    assert np.allclose(j.grad_f, 2 * hb.inner(c, w) * np.conj(w), atol=1e-12)
    assert np.all(j.grad_fc == 0)


def test_jet_dimension_mismatch(np_rng):
    def vec_jet(n):
        return hb.ip_functional("fw", rand_vec(np_rng, n), rand_vec(np_rng, n))

    rules = (fw.add, fw.sub, fw.mul, fw.div,
             lambda a, b: fw.linear_combine(2.0, a, -1j, b))
    scalar = fw.seed_variable(0.5 - 0.25j)
    # n=1 against n=3 is the pair numpy would silently broadcast
    pairs = [(vec_jet(3), vec_jet(4)), (vec_jet(1), vec_jet(3)),
             (vec_jet(3), vec_jet(1)), (scalar, vec_jet(1)),
             (vec_jet(1), scalar), (scalar, vec_jet(3)), (vec_jet(3), scalar)]
    for a, b in pairs:
        for op in rules:
            with pytest.raises(DimensionMismatch):
                op(a, b)

    a, b = vec_jet(3), vec_jet(3)
    results = [op(a, b) for op in rules] + [
        fw.neg(a), fw.conj(a), fw.power_int(a, 0),
        fw.power_int(a, -2), fw.apply_primitive("sin", a),
        hb.functional_constant(2, 3)]
    for j in results:
        assert isinstance(j, hb.FunctionalJet) and j.dz.shape == (3,)
        assert_frozen_slots(j)
    with pytest.raises(DimensionMismatch):
        hb.ip_functional("fw", np.ones((2, 2)), np.ones((2, 2)))


def assert_frozen_slots(j):
    for slot in (j.dz, j.dzc):
        assert slot.dtype == np.complex128 and slot.ndim == 1
        assert not slot.flags.writeable


def test_constructor_copies_caller_arrays(np_rng):
    a = np_rng.standard_normal(3) + 1j * np_rng.standard_normal(3)
    b = np_rng.standard_normal(3) + 1j * np_rng.standard_normal(3)
    j = hb.FunctionalJet(1 + 0j, a, b)
    assert_frozen_slots(j)
    for arr in (a, b):
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, s) for s in (j.dz, j.dzc))


@pytest.mark.parametrize("kind", ["fw", "wf", "fcw", "wfc"])
def test_ip_functional_leaves_caller_arrays_alone(kind, np_rng):
    w = np_rng.standard_normal(4) + 1j * np_rng.standard_normal(4)
    c = np_rng.standard_normal(4) + 1j * np_rng.standard_normal(4)
    j = hb.ip_functional(kind, w, c)
    assert_frozen_slots(j)
    for arr in (w, c):
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, s) for s in (j.dz, j.dzc))
    # float and int coordinates give complex128 slots with the same values
    for real_w in (w.real.copy(), np.arange(1, 5)):
        j = hb.ip_functional(kind, real_w, c.real.copy())
        assert_frozen_slots(j)
        assert j == hb.ip_functional(kind, real_w.astype(complex),
                                     c.real.astype(complex))


def test_power_int_zero_keeps_the_jet_kind(np_rng):
    a = hb.ip_functional("fw", rand_vec(np_rng, 3), rand_vec(np_rng, 3))
    j = fw.power_int(a, 0)
    assert isinstance(j, hb.FunctionalJet) and j.value == 1
    assert np.array_equal(j.grad_f, np.zeros(3))
    assert np.array_equal(j.grad_fc, np.zeros(3))


def test_functional_jet_equality(np_rng):
    w, c = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    a = hb.ip_functional("fw", w, c)
    assert a == hb.ip_functional("fw", w, c)
    assert hb.functional_constant(1, 2) == hb.functional_constant(1, 2)
    assert a != hb.ip_functional("wf", w, c)                 # gradients
    assert a != hb.FunctionalJet(a.value + 1, a.dz, a.dzc)    # value
    assert a != hb.FunctionalJet(a.value, a.dz, a.dz)         # dzc slot
    assert hb.functional_constant(1, 2) != hb.functional_constant(1, 3)
    # a functional jet never equals a scalar jet, in either order
    one = hb.functional_constant(1, 1)
    assert one != fw.constant(1) and fw.constant(1) != one
    assert not one == fw.WirtingerJet(1, 0j, 0j)
    with pytest.raises(TypeError):
        hash(a)


def test_jet_recip_pole(np_rng):
    j = hb.functional_constant(0.0, 3)
    with pytest.raises(PoleError):
        fw.div(hb.functional_constant(1, 3), j)
    with pytest.raises(PoleError):
        fw.div(j, j)


# --------------------------------------------------------------------------
# FD oracle
# --------------------------------------------------------------------------


def test_fd_gradients_rule1(np_rng):
    w, c = rand_vec(np_rng, 4), rand_vec(np_rng, 4)
    T = lambda f: hb.ip_functional("fw", w, f).value
    gw, gcw = hb.fd_wirtinger_gradients(T, c)
    assert np.max(np.abs(gw - np.conj(w))) < 1e-7
    assert np.max(np.abs(gcw)) < 1e-7


def test_fd_gradients_norm_squared(np_rng):
    c = rand_vec(np_rng, 5)
    T = lambda f: hb.inner(f, f)
    gw, gcw = hb.fd_wirtinger_gradients(T, c)
    assert np.max(np.abs(gcw - c)) < 1e-7
    assert np.max(np.abs(gw - np.conj(c))) < 1e-7


def test_fd_gradients_constant(np_rng):
    c = rand_vec(np_rng, 3)
    g1, g2 = hb.fd_gradients(lambda f: 2.5 + 0.5j, c)
    assert np.max(np.abs(g1)) < 1e-10
    assert np.max(np.abs(g2)) < 1e-10


def test_fd_gradients_step_floor(np_rng):
    # a NaN or infinite step too, also where a constant T would turn it
    # into NaN or zero slots
    for T in (lambda f: hb.inner(f, f), lambda f: 0j):
        for step in (1e-13, math.nan, math.inf):
            with pytest.raises(StepTooSmall):
                hb.fd_gradients(T, rand_vec(np_rng, 2), step=step)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_fd_gradients_is_bitwise_the_identity_loop(n, np_rng):
    # the reference perturbs c along the rows of an n x n identity; one
    # reused unit vector must give the same points, so the same bits, also
    # where a signed zero decides an angle (-pi at -1.5 - 0j, pi at +0j)
    def identity_loop(T, c):
        g1 = np.empty(n, dtype=np.complex128)
        g2 = np.empty(n, dtype=np.complex128)
        for j, e_j in enumerate(np.eye(n, dtype=np.complex128)):
            g1[j], g2[j] = fd_partials(lambda t: complex(T(c + t * e_j)), 0j,
                                       DEFAULT_STEP)
        return g1, g2

    w = rand_vec(np_rng, n)
    c = np.array(rand_vec(np_rng, n))
    c[0] = complex(-1.5, -0.0)
    c = hb.hvec(c)

    def T(f):
        return hb.inner(f - w, f - w) + np.angle(f).sum() + hb.inner(f, w) ** 2

    for got, want in zip(hb.fd_gradients(T, c), identity_loop(T, c)):
        assert got.tobytes() == want.tobytes()


def test_fd_gradients_gives_each_point_its_own_array(np_rng):
    # T keeps every point it gets and then spoils it; no later point, and
    # no gradient, may see the spoiled values
    n = 5
    w = rand_vec(np_rng, n)
    c = np.array(rand_vec(np_rng, n))
    c[1] = complex(-0.0, 2.0)
    c = hb.hvec(c)
    kept = []

    def clean(f):
        return hb.inner(f - w, f - w) + np.angle(f).sum()

    def T(f):
        v = clean(f)
        kept.append(f)
        f[...] = np.nan
        return v

    got = hb.fd_gradients(T, c)
    assert len(kept) == 4 * n
    assert len({id(f) for f in kept}) == 4 * n
    for i, f in enumerate(kept):
        assert not np.shares_memory(f, c)
        for g in kept[i + 1:]:
            assert not np.shares_memory(f, g)
    want = ([], [])
    for e_j in np.eye(n, dtype=np.complex128):
        for slot, d in zip(want, fd_partials(
                lambda t: complex(clean(c + t * e_j)), 0j, DEFAULT_STEP)):
            slot.append(d)
    for g, d in zip(got, want):
        assert g.tobytes() == np.array(d).tobytes()


@pytest.mark.parametrize("step", [1e-13, math.nan, math.inf])
def test_fd_gradients_checks_its_step_before_any_call(step, np_rng):
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooSmall):
            hb.fd_gradients(calls.append, rand_vec(np_rng, 3), step=step)
    assert calls == []


@pytest.mark.parametrize("n", [1, 3, 8])
def test_jet_algebra_matches_fd(n, np_rng):
    w, v = rand_vec(np_rng, n), rand_vec(np_rng, n)
    for _ in range(3):
        c = rand_vec(np_rng, n)
        for name, program in functional_corpus(w, v):
            jet = program(c)
            gw, gcw = hb.fd_wirtinger_gradients(
                lambda f: program(f).value, c)
            scale_f = 1 + np.linalg.norm(jet.grad_f)
            scale_fc = 1 + np.linalg.norm(jet.grad_fc)
            assert np.linalg.norm(jet.grad_f - gw) <= 1e-6 * scale_f, name
            assert np.linalg.norm(jet.grad_fc - gcw) <= 1e-6 * scale_fc, name


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------


def test_classify_functional_goldens(np_rng):
    w = rand_vec(np_rng, 4)
    c = rand_vec(np_rng, 4)
    assert hb.classify_functional(
        lambda f: hb.inner(f, w), c).verdict is Verdict.HOLOMORPHIC
    assert hb.classify_functional(
        lambda f: hb.inner(w, f), c).verdict is Verdict.CONJUGATE_HOLOMORPHIC
    assert hb.classify_functional(
        lambda f: hb.inner(f, f), c).verdict is Verdict.NEITHER
    assert hb.classify_functional(
        lambda f: 1.5 + 0j, c).verdict is Verdict.BOTH


# --------------------------------------------------------------------------
# real-valued structure
# --------------------------------------------------------------------------


def test_real_valued_conjugate_pair(np_rng):
    # T = S * conj(S) for S = <f, w>: gradients form a conjugate pair
    for n in (2, 5):
        w = rand_vec(np_rng, n)
        for _ in range(5):
            c = rand_vec(np_rng, n)
            s = hb.ip_functional("fw", w, c)
            t = fw.mul(s, fw.conj(s))
            assert np.max(np.abs(np.conj(t.grad_f) - t.grad_fc)) <= 1e-12 * (
                1 + np.max(np.abs(t.grad_f)))
            assert abs(t.value.imag) <= 1e-12


def test_cauchy_schwarz_step_bound(np_rng):
    w = rand_vec(np_rng, 4)
    prog = hb.squared_distance(w)
    c = rand_vec(np_rng, 4)
    jet = prog(c)
    bound = np.linalg.norm(jet.grad_fc)
    for _ in range(1000):
        h = rand_vec(np_rng, 4)
        incr = np.real(hb.inner(h, np.conj(jet.grad_f)))
        assert incr <= np.linalg.norm(h) * bound + 1e-9
    # equality when stepping along the conjugate gradient
    h = hb.hvec(0.37 * jet.grad_fc)
    incr = np.real(hb.inner(h, np.conj(jet.grad_f)))
    assert abs(incr - np.linalg.norm(h) * bound) <= 1e-9 * (1 + abs(incr))


def test_first_order_taylor_decay(np_rng):
    w, v = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    failures = trials = 0
    for name, program in functional_corpus(w, v):
        for _ in range(3):
            c = rand_vec(np_rng, 3)
            jet = program(c)
            direction = rand_vec(np_rng, 3)
            direction = direction / np.linalg.norm(direction)

            def remainder(t):
                h = t * direction
                model = (jet.value + hb.inner(h, np.conj(jet.grad_f))
                         + hb.inner(np.conj(h), np.conj(jet.grad_fc)))
                return abs(program(c + h).value - model)

            r1, r2 = remainder(1e-3), remainder(1e-4)
            trials += 1
            if r2 > 0.035 * r1 + 1e-13 * (1 + abs(jet.value)):
                failures += 1
    assert failures <= 0.05 * trials


# --------------------------------------------------------------------------
# squared distance program and vector stacking
# --------------------------------------------------------------------------


def test_squared_distance_gradients(np_rng):
    w = rand_vec(np_rng, 4)
    prog = hb.squared_distance(w)
    c = rand_vec(np_rng, 4)
    jet = prog(c)
    diff = c - w
    assert abs(jet.value - np.vdot(diff, diff).real) < 1e-12
    assert np.array_equal(jet.grad_fc, diff)
    assert np.array_equal(jet.grad_f, np.conj(diff))


def test_stack_singleton(np_rng):
    j = hb.ip_functional("fw", rand_vec(np_rng, 3), rand_vec(np_rng, 3))
    stack = hb.stack_vector_operator([j])
    assert stack.value.shape == (1,) and stack.dz.shape == (3, 1)
    assert stack.value[0] == j.value
    assert np.array_equal(stack.dz[:, 0], j.grad_f)
    assert np.array_equal(stack.dzc[:, 0], j.grad_fc)


def test_stack_rows(np_rng):
    w1, w2, c = (rand_vec(np_rng, 4) for _ in range(3))
    stack = hb.stack_vector_operator([
        hb.ip_functional("fw", w1, c),
        hb.ip_functional("fw", w2, c),
    ])
    assert np.array_equal(stack.dz[:, 0], np.conj(w1))
    assert np.array_equal(stack.dz[:, 1], np.conj(w2))
    assert np.all(stack.dzc == 0)


def test_stack_of_jet_and_its_conjugate(np_rng):
    w, c = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    j = fw.mul(hb.ip_functional("fw", w, c),
               hb.ip_functional("wf", c, c))
    stack = hb.stack_vector_operator([j, fw.conj(j)])
    assert np.array_equal(stack.dz[:, 1], np.conj(stack.dzc[:, 0]))
    assert np.array_equal(stack.dzc[:, 1], np.conj(stack.dz[:, 0]))


def test_stack_dimension_checks(np_rng):
    with pytest.raises(DimensionMismatch):
        hb.stack_vector_operator([])
    with pytest.raises(DimensionMismatch):
        hb.stack_vector_operator([
            hb.functional_constant(1.0, 2),
            hb.functional_constant(1.0, 3),
        ])
    stacked = hb.functional_constant([1.0, 2.0], 2)
    for comps in ([stacked], [hb.functional_constant(1.0, 2), stacked]):
        with pytest.raises(DimensionMismatch):
            hb.stack_vector_operator(comps)


# --------------------------------------------------------------------------
# stacked functional jets
# --------------------------------------------------------------------------


def rand_rows(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def assert_close(got, want, what, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.linalg.norm(got - want) <= tol * (1 + np.linalg.norm(want)), what


def assert_columns(stack, jets, what):
    """Column k of ``stack`` is ``jets[k]``; the total is their sum."""
    assert stack.__class__ is hb.FunctionalJet and stack.dz.ndim == 2, what
    assert stack.value.shape == (len(jets),), what
    for k, j in enumerate(jets):
        assert j.__class__ is hb.FunctionalJet and j.dz.ndim == 1, what
        assert_close(stack.value[k], j.value, what)
        assert_close(stack.dz[:, k], j.dz, what)
        assert_close(stack.dzc[:, k], j.dzc, what)
    total = stack.total()
    assert total.__class__ is hb.FunctionalJet, what
    assert_close(total.value, sum(j.value for j in jets), what)
    assert_close(total.dz, sum(j.dz for j in jets), what)
    assert_close(total.dzc, sum(j.dzc for j in jets), what)


#: the rules that act on a stack column by column
STACK_RULES = {
    "add": fw.add,
    "sub": fw.sub,
    "neg": lambda a, b: fw.neg(a),
    "mul": fw.mul,
    "conj": lambda a, b: fw.conj(a),
    "linear_combine": lambda a, b: fw.linear_combine(2 - 1j, a, 0.5j, b),
    "power_int 0": lambda a, b: fw.power_int(a, 0),
    "power_int 1": lambda a, b: fw.power_int(a, 1),
    "power_int 3": lambda a, b: fw.power_int(a, 3),
    "power_int -2": lambda a, b: fw.power_int(a, -2),
    "apply_primitive conj": lambda a, b: fw.apply_primitive("conj", a),
}


def operand_stacks(np_rng, m, n):
    """Two stacks of m jets on C^n with all four slots populated, and the
    per-term jets they hold."""
    W, V = rand_rows(np_rng, m, n), rand_rows(np_rng, m, n)
    c = rand_vec(np_rng, n)
    a = [fw.add(hb.ip_functional("fw", w, c), hb.ip_functional("wfc", v, c))
         for w, v in zip(W, V)]
    b = [fw.mul(hb.ip_functional("wf", v, c), hb.ip_functional("fcw", w, c))
         for w, v in zip(W, V)]
    return hb.stack_vector_operator(a), hb.stack_vector_operator(b), a, b


@pytest.mark.parametrize("m", [1, 5])
def test_stack_rules_act_column_by_column(m, np_rng):
    sa, sb, a, b = operand_stacks(np_rng, m, 3)
    for name, rule in STACK_RULES.items():
        assert_columns(rule(sa, sb), [rule(x, y) for x, y in zip(a, b)], name)
    # chain with one pair of outer partials per column
    vals = np.array([x.value for x in a])
    got = fw.chain(np.exp(vals), np.exp(vals), 0.5 * vals, sa)
    assert_columns(got, [fw.chain(np.exp(x.value), np.exp(x.value),
                                  0.5 * x.value, x) for x in a], "chain")


@pytest.mark.parametrize("kind", ["fw", "wf", "fcw", "wfc"])
def test_stacked_rules_enter_through_the_public_names(kind, np_rng):
    W, c = rand_rows(np_rng, 4, 3), rand_rows(np_rng, 1, 3)[0]
    assert_columns(hb.ip_functional(kind, W, c),
                   [hb.ip_functional(kind, w, c) for w in W], kind)
    k = W[:, 0]
    assert_columns(hb.functional_constant(k, 3),
                   [hb.functional_constant(v, 3) for v in k], "constant")
    for arr in (W, c, k):          # caller arrays are copied, not frozen
        assert arr.flags.writeable
    for k, n in ((np.ones((2, 2)), 3), ([[1, 2], [3]], 3), (1, 0), (1, -1)):
        with pytest.raises(DimensionMismatch):
            hb.functional_constant(k, n)
    for w in (np.ones((2, 2, 3)), [[1, 2, 3], [4, 5]], ["a", 1, 2]):
        with pytest.raises(DimensionMismatch):
            hb.ip_functional(kind, w, c)
    with pytest.raises(DimensionMismatch):
        hb.ip_functional(kind, W, np.ones(4))


@pytest.mark.parametrize("m", [1, 4])
def test_stack_rules_that_need_one_value_raise(m, np_rng):
    sa, sb, a, _ = operand_stacks(np_rng, m, 3)
    calls = {
        "div": lambda: fw.div(sa, sb),
        "div by itself": lambda: fw.div(sa, sa),
        "chain with scalar partials": lambda: fw.chain(1j, 2.0, 0.5j, sa),
    }
    for name in fw.PRIMITIVES:
        if name != "conj":
            calls[f"apply_primitive {name}"] = (
                lambda name=name: fw.apply_primitive(name, sa))
    one = a[0]
    other = operand_stacks(np_rng, m + 1, 3)[0]
    wider = operand_stacks(np_rng, m, 4)[0]
    rules = {"add": fw.add, "sub": fw.sub, "mul": fw.mul, "div": fw.div,
             "linear_combine": lambda x, y: fw.linear_combine(2.0, x, -1j, y)}
    pairs = {"stack, one": (sa, one), "one, stack": (one, sa),
             "stack, other": (sa, other), "stack, wider": (sa, wider),
             "stack, scalar": (sa, fw.constant(1.0)),
             "scalar, stack": (fw.constant(1.0), sa)}
    for rule_name, rule in rules.items():
        for pair_name, (x, y) in pairs.items():
            calls[f"{rule_name} {pair_name}"] = (
                lambda rule=rule, x=x, y=y: rule(x, y))
    assert len(calls) == 3 + len(fw.PRIMITIVES) - 1 + 5 * 6   # no key reused
    for name, call in calls.items():
        with pytest.raises(DimensionMismatch):
            call()
            pytest.fail(name)


def test_stack_negative_power_at_a_zero_column_raises(np_rng):
    sa, _, _, _ = operand_stacks(np_rng, 3, 2)
    zero = fw.sub(sa, fw.linear_combine(1.0, sa, 0.0, sa))
    assert not zero.value.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no numpy 0 ** -2 warning first
        for k in (-1, -2):
            with pytest.raises(PoleError):
                fw.power_int(zero, k)
    assert not fw.power_int(zero, 0).dz.any()


def test_total_of_a_single_jet_is_the_jet(np_rng):
    j = hb.ip_functional("wf", rand_vec(np_rng, 3), rand_vec(np_rng, 3))
    assert j.total() is j


def test_jet_stack_constructor_checks_and_copies(np_rng):
    sa = operand_stacks(np_rng, 3, 2)[0]
    value, dz = np.array(sa.value), np.array(sa.dz)
    public = hb.FunctionalJet(value, dz, sa.dzc)
    assert public == sa and sa == public
    assert value.flags.writeable and not np.shares_memory(value, public.value)
    assert public != hb.FunctionalJet(value + 1, dz, sa.dzc)
    assert sa != hb.FunctionalJet(sa.value[0], sa.dz[:, 0], sa.dzc[:, 0])
    for bad in ((value[0], dz, dz), (value, dz[:, :2], dz[:, :2]),
                (value, dz, dz[:, :2]), (value, dz[0], dz[0]),
                (1j, [[1, 2], [3]], dz[:, 0]), (1j, ["a", 1], [0, 0])):
        with pytest.raises(DimensionMismatch):
            hb.FunctionalJet(*bad)


@pytest.mark.parametrize("bad", [complex("nan"), math.inf,
                                 complex(0, -math.inf)])
def test_functional_jet_constructor_refuses_non_finite_slots(bad, np_rng):
    sa = operand_stacks(np_rng, 3, 2)[0]
    single = (1 + 0j, np.ones(3), np.zeros(3))
    stack = (np.array(sa.value), np.array(sa.dz), np.array(sa.dzc))
    for slots in (single, stack):
        for k in range(3):
            bad_slots = [np.array(s, dtype=complex) for s in slots]
            bad_slots[k].flat[-1] = bad
            with pytest.raises(DomainError, match="not finite"):
                hb.FunctionalJet(*bad_slots)
    with pytest.raises(DomainError):
        hb.FunctionalJet(complex("nan"), [1], [float("inf")])


def per_term_squared_distance(w, c):
    n = w.shape[0]
    total = hb.functional_constant(0.0, n)
    for j, e_j in enumerate(np.eye(n)):
        r = fw.sub(hb.ip_functional("fw", e_j, c),
                   hb.functional_constant(w[j], n))
        total = fw.add(total, fw.mul(r, fw.conj(r)))
    return total


def per_term_least_squares(W, d, c):
    total = hb.functional_constant(0.0, W.shape[1])
    for w_k, d_k in zip(W, d):
        r = fw.sub(hb.functional_constant(d_k, W.shape[1]),
                   hb.ip_functional("wf", w_k, c))
        total = fw.add(total, fw.mul(r, fw.conj(r)))
    return total


def assert_jets_close(got, want, what):
    assert got.__class__ is want.__class__ is hb.FunctionalJet, what
    assert_frozen_slots(got)
    for slot in ("value", "dz", "dzc"):
        assert_close(getattr(got, slot), getattr(want, slot), what)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_stacked_programs_match_the_per_term_loop(n, np_rng):
    w = rand_vec(np_rng, n)
    prog = hb.squared_distance(w)
    X, d = rand_rows(np_rng, 30, n), rand_rows(np_rng, 1, 30)[0]
    for _ in range(3):
        c = rand_vec(np_rng, n)
        assert_jets_close(prog(c), per_term_squared_distance(w, c), "distance")
        for wl in (False, True):
            lsq = build_least_squares(X, d, widely_linear=wl)
            W = np.hstack([X, np.conj(X)]) if wl else X
            c2 = rand_vec(np_rng, lsq.n_params)
            assert_jets_close(lsq.eval_assembled(c2),
                              per_term_least_squares(W, d, c2),
                              f"least squares, widely linear {wl}")


@pytest.mark.parametrize("n", [1, 4, 16])
def test_squared_distance_is_bitwise_the_six_rule_stack(n, np_rng):
    # the projections' jet at c - w is the jet at c of f -> f_j - w_j, so
    # the program's four rules give the six-rule form's jet to the bit
    w = rand_vec(np_rng, n)
    prog = hb.squared_distance(w)
    eye = np.eye(n, dtype=complex)
    for _ in range(3):
        c = rand_vec(np_rng, n)
        r = fw.sub(hb.ip_functional("fw", eye, c),
                   hb.functional_constant(w, n))
        want = fw.mul(r, fw.conj(r)).total()
        got = prog(c)
        for slot in ("value", "dz", "dzc"):
            assert (np.asarray(getattr(got, slot)).tobytes()
                    == np.asarray(getattr(want, slot)).tobytes()), (n, slot)


@pytest.mark.parametrize("w, c", [
    ([1 + 2j, -3j], [1 + 2j, -3j]),                    # c == w
    ([1 + 2j, 0.5, -1j], [1 + 2j, 2 - 1j, -1j]),       # some c_j == w_j
    ([complex(-0.0, 1), complex(2, -0.0)],             # -0.0 parts in w
     [complex(0.0, 1), complex(2, 0.0)]),
    ([complex(0.0, 1), 1], [complex(-0.0, -0.0), complex(1, -0.0)]),
    ([complex(-0.0, -0.0)] * 3, [complex(-0.0, 0.0), 0j, 1 - 1j]),
])
def test_squared_distance_is_the_rule_stack_at_zero_differences(w, c):
    # where a part of c - w is zero, the rules may give that zero another
    # sign than the closed form: equal by ==, the value to the bit
    n = len(w)
    got = hb.squared_distance(w)(c)
    r = fw.sub(hb.ip_functional("fw", np.eye(n, dtype=complex), c),
               hb.functional_constant(w, n))
    want = fw.mul(r, fw.conj(r)).total()
    assert (np.asarray(got.value).tobytes()
            == np.asarray(want.value).tobytes())
    for slot in ("dz", "dzc"):
        assert np.array_equal(getattr(got, slot), getattr(want, slot)), slot


def test_squared_distance_refuses_an_overflowing_difference():
    # c - w overflows to inf although c and w are finite
    prog = hb.squared_distance([-1e308, 0])
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        prog([1e308, 0])


def test_squared_distance_checks_its_point_once_and_copies_nothing(
        monkeypatch, np_rng):
    w = rand_vec(np_rng, 4)
    prog = hb.squared_distance(w)
    c = rand_vec(np_rng, 4)
    want = prog(c)
    calls = []
    real_checked = hb._checked

    def counting_checked(coords, n=0):
        calls.append(1)
        return real_checked(coords, n)

    monkeypatch.setattr(hb, "_checked", counting_checked)
    for k in range(1, 4):
        got = prog(c)
        assert got == want
        assert len(calls) == k
        for slot in (got.dz, got.dzc):      # the value is a complex
            assert not slot.flags.writeable
            assert not np.shares_memory(slot, c)
            assert not np.shares_memory(slot, w)


def test_squared_distance_warns_nothing_before_its_domain_error():
    # no errstate here: the program's DomainError is all the caller sees
    for w, c in (([-1e308, 0], [1e308, 0]),   # c - w overflows
                 ([0, 0], [1e200, 0]),        # a square overflows
                 ([0, 0], [1e155, 1e155]),
                 ([0, 0], [1e154, 1e154])):   # finite squares, their sum not
        prog = hb.squared_distance(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                prog(c)


@pytest.mark.parametrize("w, c", [
    ([math.inf, 1], [1, 1]),
    ([[math.inf, 1], [1, 1]], [1, 1]),
    ([1e300, 1e300], [1e10 + 1e10j, 1e10]),
])
def test_ip_functional_warns_nothing_before_its_domain_error(w, c):
    for kind in ("fw", "wf", "fcw", "wfc"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                hb.ip_functional(kind, w, c)


def test_squared_distance_call_is_linear_in_memory(np_rng):
    n = 2048
    w, c = rand_vec(np_rng, n), rand_vec(np_rng, n)
    prog = hb.squared_distance(w)
    tracemalloc.start()
    try:
        got = prog(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6     # one n x n complex slot alone is 67 MB
    assert got.__class__ is hb.FunctionalJet
    assert isinstance(got.value, complex) and got.dz.shape == (n,)
    assert_frozen_slots(got)
    assert np.array_equal(got.dz, np.conj(c - w))
    assert np.array_equal(got.dzc, c - w)
    assert_close(got.value, hb.inner(c - w, c - w), "value")


BAD_PARAMETERS = [
    (np.ones((2, 2)), DimensionMismatch),
    (np.ones(3), DimensionMismatch),
    (np.ones(1), DimensionMismatch),
    ([np.nan, 0], DomainError),
    ([0, np.inf], DomainError),
    ([1j, complex("nan+1j")], DomainError),
    ([[1, 2], [3]], DimensionMismatch),
    (["a", 1], DimensionMismatch),
    ([1, complex(0, -np.inf)], DomainError),    # only the imaginary part
    ([1, 10 ** 400], DomainError),              # an int beyond float range
]


@pytest.mark.parametrize("bad, error", BAD_PARAMETERS)
def test_programs_check_their_parameter(bad, error, np_rng):
    w = rand_vec(np_rng, 2)
    lsq = build_least_squares([[1 + 0j, 2j], [0.5 + 0j, -1 + 0j]],
                              [1 + 1j, 2 + 0j])
    entries = {
        "squared_distance program": hb.squared_distance(w),
        "ip_functional": lambda c: hb.ip_functional("fw", w, c),
        "stacked ip_functional": lambda c: hb.ip_functional(
            "wf", np.ones((3, 2)), c),
        "least-squares call": lsq,
        "eval_assembled": lsq.eval_assembled,
        "steepest descent": lambda c: steepest_descent_hilbert(
            lsq, c, DescentConfig()),
    }
    for name, entry in entries.items():
        with pytest.raises(error):
            entry(bad)
            pytest.fail(name)
    if error is DomainError or getattr(bad, "ndim", None) != 1:
        # no dimension to miss: only the vectors of length 3 and 1 are valid
        for entry in (hb.hvec, lambda c: hb.fd_gradients(lambda f: 0j, c)):
            with pytest.raises(error):
                entry(bad)
