import cmath
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (CONJUGATED_POLYNOMIALS, CONJUGATION_FREE, CORPUS,
                      rel_err, sample_points)
from wirtcalc import forward as fw
from wirtcalc.errors import DomainError, PoleError
from wirtcalc.expr import eval_jet
from wirtcalc.fdcheck import fd_wirtinger

finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


def random_jet(rng):
    return fw.WirtingerJet(
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    )


def test_seed_variable():
    assert fw.seed_variable(0) == fw.WirtingerJet(0j, 1 + 0j, 0j)
    assert fw.seed_variable(1 + 1j) == fw.WirtingerJet(1 + 1j, 1 + 0j, 0j)
    assert fw.seed_variable(2 - 3j) == fw.WirtingerJet(2 - 3j, 1 + 0j, 0j)


def test_seed_rejects_nonfinite():
    with pytest.raises(DomainError):
        fw.seed_variable(complex(float("inf"), 0))
    with pytest.raises(DomainError):
        fw.constant(complex(0, float("nan")))


def test_constant():
    assert fw.constant(1j) == fw.WirtingerJet(1j, 0j, 0j)
    assert fw.constant(0) == fw.WirtingerJet(0j, 0j, 0j)
    assert fw.constant(5) == fw.WirtingerJet(5 + 0j, 0j, 0j)


def test_linear_combine_identity(rng):
    a = fw.seed_variable(0.7 - 0.2j)
    b = random_jet(rng)
    assert fw.linear_combine(1, a, 0, b) == a


def test_mul_square_golden():
    c = 1 + 1j
    j = fw.mul(fw.seed_variable(c), fw.seed_variable(c))
    assert j == fw.WirtingerJet(2j, 2 + 2j, 0j)


def test_mul_with_conjugate_golden(rng):
    for c in sample_points(1, 20):
        s = fw.seed_variable(c)
        j = fw.mul(s, fw.conj(s))
        assert j.dz == c.conjugate()
        assert j.dzc == c


def test_mul_by_constant_matches_linear_combine(rng):
    for _ in range(20):
        k = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        j = random_jet(rng)
        assert fw.mul(fw.constant(k), j) == fw.linear_combine(k, j, 0, j)


def test_conj_golden():
    c = 0.3 + 1.2j
    assert fw.conj(fw.seed_variable(c)) == fw.WirtingerJet(c.conjugate(), 0j, 1 + 0j)
    k = 2 - 5j
    assert fw.conj(fw.constant(k)) == fw.WirtingerJet(k.conjugate(), 0j, 0j)


def test_conj_involution(rng):
    for _ in range(50):
        j = random_jet(rng)
        assert fw.conj(fw.conj(j)) == j


def test_conjugation_swaps_slots(rng):
    for _ in range(50):
        j = random_jet(rng)
        cj = fw.conj(j)
        assert cj.dz == j.dzc.conjugate()
        assert cj.dzc == j.dz.conjugate()


def test_recip_golden():
    one = fw.constant(1)
    j = fw.div(one, fw.seed_variable(2))
    assert j == fw.WirtingerJet(0.5 + 0j, -0.25 + 0j, 0j)
    assert fw.div(one, one) == fw.WirtingerJet(1 + 0j, 0j, 0j)
    with pytest.raises(PoleError):
        fw.div(one, fw.seed_variable(0))


def test_div_of_zero_and_by_a_value_whose_square_underflows():
    for v in (2 + 1j, 1e-170 + 1e-170j):
        assert fw.div(fw.constant(0), fw.seed_variable(v)) == \
            fw.WirtingerJet(0j, 0j, 0j)
    tiny = fw.mul(fw.constant(1e-170), fw.seed_variable(1 + 1j))
    j = fw.div(fw.constant(1), tiny)
    assert rel_err(j.value, 1e170 / (1 + 1j)) < 1e-15
    assert rel_err(j.dz, -1e170 / (1 + 1j) ** 2) < 1e-15
    assert j.dzc == 0


def test_div_by_constant_one(rng):
    j = random_jet(rng)
    assert fw.div(j, fw.constant(1)) == j


def test_div_square_by_seed():
    c = 3 + 1j
    s = fw.seed_variable(c)
    j = fw.div(fw.mul(s, s), s)
    assert rel_err(j.value, c) < 1e-12
    assert rel_err(j.dz, 1) < 1e-12
    assert abs(j.dzc) < 1e-12


def test_chain_rule_golden():
    # cube of (z^2 + z*) at z = 1: inner value 2, partials (2, 1)
    s = fw.seed_variable(1)
    inner = fw.add(fw.mul(s, s), fw.conj(s))
    j = fw.power_int(inner, 3)
    assert j.value == 8 + 0j
    assert j.dz == 24 + 0j
    assert j.dzc == 12 + 0j


def test_exp_at_zero():
    j = fw.apply_primitive("exp", fw.seed_variable(0))
    assert j == fw.WirtingerJet(1 + 0j, 1 + 0j, 0j)


def test_re_of_seed():
    c = 1.25 - 0.5j
    j = fw.apply_primitive("re", fw.seed_variable(c))
    assert j == fw.WirtingerJet(complex(c.real, 0), 0.5 + 0j, 0.5 + 0j)


def test_primitive_domain_errors():
    zero = fw.seed_variable(0)
    for name in ("log", "abs", "arg", "sqrt"):
        with pytest.raises(DomainError):
            fw.apply_primitive(name, zero)


def test_abs_partials_beyond_twice_the_largest_float():
    # 2|v| overflows here; the partials are conj(u)/2 and u/2, u = v/|v|
    v = 1e308 + 1e308j
    u = v / abs(v)
    for order in (1, 2):
        j = eval_jet("abs(z)", v, order=order)
        for got, want in ((j.dz, u.conjugate() / 2), (j.dzc, u / 2)):
            assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("name", sorted(fw.PRIMITIVES))
def test_primitive_table_against_fd(name):
    expr = f"{name}(z)"
    for c in sample_points(7, 10):
        j = eval_jet(expr, c)
        w, cw = fd_wirtinger(expr, c, step=1e-5)
        assert rel_err(j.dz, w) < 1e-6
        assert rel_err(j.dzc, cw) < 1e-6


@pytest.mark.parametrize("expr", CORPUS)
def test_rule_vs_oracle_corpus(expr):
    for c in sample_points(11, 20):
        j = eval_jet(expr, c)
        w, cw = fd_wirtinger(expr, c, step=1e-5)
        assert abs(j.dz - w) <= 1e-6 * (1 + abs(j.dz))
        assert abs(j.dzc - cw) <= 1e-6 * (1 + abs(j.dzc))


@pytest.mark.parametrize("expr", CONJUGATION_FREE)
def test_conjugation_free_dzc_is_exact_zero(expr):
    for c in sample_points(13, 10):
        j = eval_jet(expr, c)
        assert j.dzc == 0


@pytest.mark.parametrize("expr", CONJUGATED_POLYNOMIALS)
def test_conjugated_expressions_dz_is_exact_zero(expr):
    for c in sample_points(17, 10):
        j = eval_jet(expr, c)
        assert j.dz == 0


def test_product_distributes_over_linear_combine(rng):
    for _ in range(30):
        a, b, c = (random_jet(rng) for _ in range(3))
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = fw.mul(c, fw.linear_combine(alpha, a, beta, b))
        rhs = fw.linear_combine(alpha, fw.mul(c, a), beta, fw.mul(c, b))
        assert abs(lhs.value - rhs.value) < 1e-12 * (1 + abs(rhs.value))
        assert abs(lhs.dz - rhs.dz) < 1e-12 * (1 + abs(rhs.dz))
        assert abs(lhs.dzc - rhs.dzc) < 1e-12 * (1 + abs(rhs.dzc))


@given(finite_complex, finite_complex, finite_complex)
def test_conj_involution_hypothesis(v, dz, dzc):
    j = fw.WirtingerJet(v, dz, dzc)
    assert fw.conj(fw.conj(j)) == j


@given(finite_complex, finite_complex)
def test_linearity_of_derivative_slots_hypothesis(alpha, beta):
    a = fw.seed_variable(0.5 + 0.25j)
    b = fw.conj(fw.seed_variable(0.5 + 0.25j))
    j = fw.linear_combine(alpha, a, beta, b)
    assert j.dz == alpha
    assert j.dzc == beta


def test_first_order_taylor_remainder_decays():
    rng = random.Random(23)
    failures = 0
    trials = 0
    for expr in CORPUS:
        for c in sample_points(29, 5):
            j = eval_jet(expr, c)
            theta = rng.uniform(0, 2 * cmath.pi)
            e = cmath.exp(1j * theta)
            f0 = eval_jet(expr, c, order=0)

            def remainder(t):
                h = t * e
                fh = eval_jet(expr, c + h, order=0)
                return abs(fh - f0 - j.dz * h - j.dzc * h.conjugate())

            r1, r2 = remainder(1e-3), remainder(1e-4)
            trials += 1
            if r2 > 0.35 * (1e-4 / 1e-3) * r1 + 1e-13 * (1 + abs(f0)):
                failures += 1
    assert failures <= 0.05 * trials
