import numpy as np
import pytest

from wirtcalc import forward as fw
from wirtcalc import hilbert as hb
from wirtcalc.errors import (DimensionMismatch, DomainError, PoleError,
                             StepTooSmall)
from wirtcalc.fdcheck import Verdict


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
        ("outer_square", lambda c: hb.outer_chain(
            "z^2 + conj(z)", hb.ip_functional("fw", w, c))),
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


def test_outer_chain_holomorphic_outer(np_rng):
    w, c = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    j = hb.outer_chain("z^2", hb.ip_functional("fw", w, c))
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
        hb.outer_chain("z*conj(z)", a), hb.functional_constant(2, 3)]
    for j in results:
        assert isinstance(j, hb.FunctionalJet) and j.dim == 3
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
    with pytest.raises(StepTooSmall):
        hb.fd_gradients(lambda f: hb.inner(f, f), rand_vec(np_rng, 2),
                        step=1e-13)


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
    assert len(stack) == 1
    assert stack.values[0] == j.value
    assert np.array_equal(stack.grads_f[0], j.grad_f)


def test_stack_rows(np_rng):
    w1, w2, c = (rand_vec(np_rng, 4) for _ in range(3))
    stack = hb.stack_vector_operator([
        hb.ip_functional("fw", w1, c),
        hb.ip_functional("fw", w2, c),
    ])
    assert np.array_equal(stack.grads_f[0], np.conj(w1))
    assert np.array_equal(stack.grads_f[1], np.conj(w2))
    assert np.all(stack.grads_fc == 0)


def test_stack_of_jet_and_its_conjugate(np_rng):
    w, c = rand_vec(np_rng, 3), rand_vec(np_rng, 3)
    j = fw.mul(hb.ip_functional("fw", w, c),
               hb.ip_functional("wf", c, c))
    stack = hb.stack_vector_operator([j, fw.conj(j)])
    assert np.array_equal(stack.grads_f[1], np.conj(stack.grads_fc[0]))
    assert np.array_equal(stack.grads_fc[1], np.conj(stack.grads_f[0]))


def test_stack_dimension_checks(np_rng):
    with pytest.raises(DimensionMismatch):
        hb.stack_vector_operator([])
    with pytest.raises(DimensionMismatch):
        hb.stack_vector_operator([
            hb.functional_constant(1.0, 2),
            hb.functional_constant(1.0, 3),
        ])
