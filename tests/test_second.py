import cmath
import dataclasses
import random
import struct

import pytest

from conftest import (CORPUS, REAL_COSTS, fd_second_partials, rel_err,
                      sample_points)
from wirtcalc import forward as fw
from wirtcalc import second as so
from wirtcalc.errors import DomainError, PoleError
from wirtcalc.expr import eval_jet, parse
from wirtcalc.fdcheck import fd_wirtinger
from wirtcalc.second import hessian_is_real_consistent, second_order_taylor


def random_jet2(rng):
    vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7)]
    return so.SecondOrderJet(*vals)


def test_quadratic_golden():
    for c in sample_points(3, 5):
        j = eval_jet("z^2", c, order=2)
        assert j.dzz == 2 + 0j
        assert j.dzzc == 0 and j.dzcz == 0 and j.dzczc == 0


def test_modulus_squared_golden():
    for c in sample_points(5, 5):
        j = eval_jet("z*conj(z)", c, order=2)
        assert j.dzzc == 1 + 0j and j.dzcz == 1 + 0j
        assert j.dzz == 0 and j.dzczc == 0


def test_conjugate_quadratic_golden():
    for c in sample_points(7, 5):
        j = eval_jet("conj(z)^2", c, order=2)
        assert j.dzczc == 2 + 0j
        assert j.dzz == 0 and j.dzzc == 0 and j.dzcz == 0


@pytest.mark.parametrize("expr", CORPUS)
def test_first_order_slice_is_bitwise_identical(expr):
    for c in sample_points(11, 10):
        j2 = eval_jet(expr, c, order=2)
        j1 = eval_jet(expr, c, order=1)
        for slot in ("value", "dz", "dzc"):
            a, b = getattr(j2, slot), getattr(j1, slot)
            assert struct.pack("<2d", a.real, a.imag) == struct.pack(
                "<2d", b.real, b.imag), (expr, c, slot)


@pytest.mark.parametrize("expr", CORPUS)
def test_second_partials_against_second_differences(expr):
    for c in sample_points(13, 8):
        j = eval_jet(expr, c, order=2)
        dzz, dzzc, dzczc = fd_second_partials(expr, c)
        assert rel_err(j.dzz, dzz) < 1e-4
        assert rel_err(j.dzzc, dzzc) < 1e-4
        assert rel_err(j.dzcz, dzzc) < 1e-4
        assert rel_err(j.dzczc, dzczc) < 1e-4


@pytest.mark.parametrize("name", sorted(fw.PRIMITIVES))
def test_primitive_second_partials_against_fd_of_the_first(name):
    # the triple (g_zz, g_zzc, g_zczc) is the Wirtinger pair of g_z and of
    # g_zc, with the one g_zzc standing for both mixed partials
    assert [f.name for f in dataclasses.fields(fw.Primitive)] == [
        "value", "partials", "second_partials"]
    p = fw.PRIMITIVES[name]
    for c in sample_points(19, 10):   # right half-plane, off the cuts
        gzz, gzzc, gzczc = p.second_partials(c)
        gz_z, gz_zc = fd_wirtinger(lambda v: p.partials(v)[0], c)
        gzc_z, gzc_zc = fd_wirtinger(lambda v: p.partials(v)[1], c)
        for got, want in ((gzz, gz_z), (gzzc, gz_zc), (gzzc, gzc_z),
                          (gzczc, gzc_zc)):
            assert rel_err(got, want) < 1e-8, (name, c, got, want)


@pytest.mark.parametrize("expr", CORPUS)
def test_mixed_partial_symmetry(expr):
    for c in sample_points(17, 10):
        j = eval_jet(expr, c, order=2)
        assert abs(j.dzzc - j.dzcz) <= 1e-10 * (1 + abs(j.dzzc))


def test_abs_second_order_golden():
    j = eval_jet("abs(z)", 1 + 1j, order=2)
    want = 1 / (4 * 2 ** 0.5)
    assert abs(j.dzzc - want) <= 1e-15 and abs(j.dzcz - want) <= 1e-15
    # -conj(z)^2 / (4|z|^3) and -z^2 / (4|z|^3), with z^2 = 2i, |z|^3 = 2^1.5
    assert abs(j.dzz - 2j / (4 * 2 ** 1.5)) <= 1e-15
    assert abs(j.dzczc + 2j / (4 * 2 ** 1.5)) <= 1e-15
    assert j == so.apply_primitive2("abs", so.seed_variable2(1 + 1j))
    with pytest.raises(DomainError):
        eval_jet("abs(z)", 0, order=2)


def test_pole_propagates():
    with pytest.raises(PoleError):
        eval_jet("1/z", 0, order=2)


def test_taylor_exact_on_quadratic():
    j = eval_jet("z^2", 0, order=2)
    h = 1 + 1j
    assert second_order_taylor(j, h) == (1 + 1j) ** 2


def test_taylor_exact_on_modulus_squared(rng):
    j = eval_jet("z*conj(z)", 0, order=2)
    for _ in range(10):
        h = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        model = second_order_taylor(j, h)
        assert abs(model - abs(h) ** 2) < 1e-14 * (1 + abs(h) ** 2)


def test_taylor_cubic_remainder_for_exp():
    j = eval_jet("exp(z)", 0, order=2)
    model = second_order_taylor(j, 0.01)
    assert abs(model - cmath.exp(0.01)) <= 2e-7


def test_second_order_remainder_decays_cubically():
    rng = random.Random(31)
    failures = 0
    trials = 0
    for expr in CORPUS:
        for c in sample_points(19, 3):
            j = eval_jet(expr, c, order=2)
            theta = rng.uniform(0, 2 * cmath.pi)
            e = cmath.exp(1j * theta)
            f0 = eval_jet(expr, c, order=0)

            def ratio(t):
                h = t * e
                return abs(eval_jet(expr, c + h, order=0)
                           - second_order_taylor(j, h)) / t ** 2

            q1, q2 = ratio(1e-2), ratio(1e-3)
            trials += 1
            # the absolute floor absorbs rounding noise on exactly-quadratic
            # entries, whose true remainder is zero
            if q2 > 0.125 * q1 + 1e-9 * (1 + abs(f0)):
                failures += 1
    assert failures <= 0.05 * trials


@pytest.mark.parametrize("expr", REAL_COSTS)
def test_hessian_block_real_structure(expr):
    e = parse(expr)
    for c in sample_points(23, 50):
        j = eval_jet(e, c, order=2)
        assert hessian_is_real_consistent(j)
        scale = 1 + max(abs(j.dzz), abs(j.dzczc))
        assert abs(j.dzzc.imag) <= 1e-10 * scale
        assert abs(j.dzz - j.dzczc.conjugate()) <= 1e-10 * scale
        assert abs(j.dz.conjugate() - j.dzc) <= 1e-12 * (1 + abs(j.dz))


def test_conj2_involution(rng):
    for _ in range(30):
        j = random_jet2(rng)
        conj = so.apply_primitive2("conj", so.apply_primitive2("conj", j))
        assert conj == j


def test_div2_consistent_with_mul_recip(rng):
    for _ in range(30):
        a, b = random_jet2(rng), random_jet2(rng)
        if abs(b.value) < 0.1:
            continue
        d = so.div2(a, b)
        m = so.mul2(a, so.power_int2(b, -1))
        for slot in ("value", "dz", "dzc", "dzz", "dzzc", "dzcz", "dzczc"):
            x, y = getattr(d, slot), getattr(m, slot)
            assert abs(x - y) < 1e-10 * (1 + abs(y))


def test_power2_matches_repeated_multiplication(rng):
    for _ in range(20):
        j = random_jet2(rng)
        p = so.power_int2(j, 3)
        m = so.mul2(so.mul2(j, j), j)
        for slot in ("value", "dz", "dzc", "dzz", "dzzc", "dzcz", "dzczc"):
            x, y = getattr(p, slot), getattr(m, slot)
            assert abs(x - y) < 1e-10 * (1 + abs(y))
