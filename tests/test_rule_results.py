"""The contract of rule results, for all three jet kinds.

The rules build their results with a slot filler instead of the public
constructor (``forward.WirtingerJet._fresh``, ``FunctionalJet._fresh``,
``second._fill``).  A result must still be indistinguishable from the
publicly constructed jet with the same slots: the operand's exact class,
equal to it with the same ``repr``, immutable, picklable and, for a
functional jet, holding frozen 1-D complex128 arrays (for a stack of m
functional jets on C^n, of shapes (m,) and (n, m)).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from test_hilbert import STACK_RULES, assert_frozen_slots, operand_stacks
from wirtcalc import forward as fw
from wirtcalc import hilbert as hb
from wirtcalc import second as so
from wirtcalc.errors import DomainError
from wirtcalc.optimize import build_least_squares


def assert_rule_result(j, cls, rule):
    assert j.__class__ is cls, rule
    slots = [getattr(j, f.name) for f in dataclasses.fields(j)]
    public = cls(*slots)
    assert j == public and public == j, rule
    assert repr(j) == repr(public), rule
    for f in dataclasses.fields(j):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(j, f.name, 0j)
    back = pickle.loads(pickle.dumps(j))
    assert back == j, rule
    if cls is hb.FunctionalJet and j.dz.ndim == 1:
        assert_frozen_slots(j)
        assert back.dz.flags.writeable is False, rule
        assert back.dzc.flags.writeable is False, rule
    if cls is hb.FunctionalJet and j.dz.ndim == 2:
        n, m = j.dz.shape
        for got in (j, back):
            for slot, shape in ((got.value, (m,)), (got.dz, (n, m)),
                                (got.dzc, (n, m))):
                assert slot.dtype == np.complex128, rule
                assert slot.shape == shape, rule
                assert slot.flags.writeable is False, rule


def forward_results(a, b):
    """Every rule of ``forward`` applied to the operands ``a`` and ``b``,
    which are of one kind."""
    out = {
        "add": fw.add(a, b),
        "sub": fw.sub(a, b),
        "neg": fw.neg(a),
        "mul": fw.mul(a, b),
        "div": fw.div(a, b),
        "conj": fw.conj(a),
        "linear_combine": fw.linear_combine(2 - 1j, a, 0.5j, b),
        "power_int 0": fw.power_int(a, 0),
        "power_int 3": fw.power_int(a, 3),
        "power_int -2": fw.power_int(a, -2),
        "chain": fw.chain(1 + 2j, 0.5 - 1j, 0.25j, a),
    }
    for name in fw.PRIMITIVES:
        out[f"apply_primitive {name}"] = fw.apply_primitive(name, a)
    return out


def test_scalar_forward_rule_results():
    a = fw.WirtingerJet(0.7 + 0.4j, 1.1 - 0.2j, 0.3 + 0.5j)
    b = fw.WirtingerJet(-0.6 + 0.9j, 0.2 + 0.1j, -0.8 - 0.3j)
    results = forward_results(a, b)
    results["seed_variable"] = fw.seed_variable(0.7 + 0.4j)
    results["constant"] = fw.constant(2 - 1j)
    for name, j in results.items():
        assert_rule_result(j, fw.WirtingerJet, name)


def test_functional_forward_rule_results(np_rng):
    def vec(n):
        return hb.hvec(np_rng.standard_normal(n)
                       + 1j * np_rng.standard_normal(n))

    w, v, c = vec(3), vec(3), vec(3)
    a = fw.add(hb.ip_functional("fw", w, c), hb.functional_constant(0.5j, 3))
    b = fw.mul(hb.ip_functional("wf", v, c), hb.ip_functional("fcw", w, c))
    results = forward_results(a, b)
    for kind in ("fw", "wf", "fcw", "wfc"):
        results[f"ip_functional {kind}"] = hb.ip_functional(kind, w, c)
        # real coordinates and a caller's writeable arrays
        results[f"ip_functional {kind} real"] = hb.ip_functional(
            kind, np.arange(1, 4), c.real.copy())
    results["functional_constant"] = hb.functional_constant(2, 3)
    prog = build_least_squares([[1 + 0j, 2j], [0.5 + 0j, -1 + 0j]],
                               [1 + 1j, 2 + 0j])
    results["LeastSquaresProgram"] = prog(np.array([0.5j, 1 + 0j]))
    results["eval_assembled"] = prog.eval_assembled(np.array([0.5j, 1 + 0j]))
    for name, j in results.items():
        assert_rule_result(j, hb.FunctionalJet, name)


def test_stack_rule_results(np_rng):
    a, b, _, _ = operand_stacks(np_rng, 4, 3)
    results = {name: rule(a, b) for name, rule in STACK_RULES.items()}
    results["chain"] = fw.chain(a.value, 2 * a.value, 0.5j, a)
    W = np_rng.standard_normal((4, 3)) + 1j * np_rng.standard_normal((4, 3))
    c = np_rng.standard_normal(3)
    for kind in ("fw", "wf", "fcw", "wfc"):
        results[f"ip_functional {kind}"] = hb.ip_functional(kind, W, c)
    results["functional_constant"] = hb.functional_constant([1, 2j], 3)
    results["stack_vector_operator"] = hb.stack_vector_operator(
        [hb.ip_functional("fw", w, c) for w in W])
    for name, j in results.items():
        assert j.dz.ndim == 2, name
        assert_rule_result(j, hb.FunctionalJet, name)


def test_second_rule_results():
    a = so.SecondOrderJet(0.7 + 0.4j, 1.1 - 0.2j, 0.3 + 0.5j, -0.4 + 0.1j,
                          0.6 - 0.7j, 0.6 - 0.7j, 0.2 + 0.2j)
    b = so.SecondOrderJet(-0.6 + 0.9j, 0.2 + 0.1j, -0.8 - 0.3j, 0.5j,
                          1.0 + 0j, 0.9 + 0.1j, -0.3 + 0.4j)
    results = {
        "add2": so.add2(a, b),
        "sub2": so.sub2(a, b),
        "neg2": so.neg2(a),
        "mul2": so.mul2(a, b),
        "div2": so.div2(a, b),
        "power_int2 0": so.power_int2(a, 0),
        "power_int2 1": so.power_int2(a, 1),
        "power_int2 3": so.power_int2(a, 3),
        "power_int2 -2": so.power_int2(a, -2),
        "seed_variable2": so.seed_variable2(0.7 + 0.4j),
        "constant2": so.constant2(2 - 1j),
    }
    for name in fw.PRIMITIVES:
        results[f"apply_primitive2 {name}"] = so.apply_primitive2(name, a)
    for name, j in results.items():
        assert_rule_result(j, so.SecondOrderJet, name)



def test_rule_results_with_an_overflowing_gradient_round_trip():
    # a rule checks the value only: this one keeps a finite value next to
    # an inf gradient, which the public constructor refuses
    a = hb.ip_functional("fw", [1e300], [1e-300])
    stack = hb.ip_functional("fw", [[1e300], [1.0]], [1e-300])
    for j in (a, stack):
        with np.errstate(over="ignore"):
            big = fw.linear_combine(1e10, j, 1, j)
        assert np.isfinite(big.value).all() and np.isinf(big.dz).any()
        with pytest.raises(DomainError, match="not finite"):
            hb.FunctionalJet(big.value, big.dz, big.dzc)
        back = pickle.loads(pickle.dumps(big))
        assert back == big and back.__class__ is hb.FunctionalJet
        assert not (back.dz.flags.writeable or back.dzc.flags.writeable)
        assert j is a or back.value.flags.writeable is False
