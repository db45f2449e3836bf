"""The scalar contract of ``wirtcalc.errors``, checked as one table.

Every public entry that takes a complex scalar from outside is called with
each hostile value of ``HOSTILE_SCALARS`` in that argument.  A non-finite
number, or an integer beyond float range, must raise DomainError; a bool
must raise TypeError, any str ValueError, and any other value that is not a
number the TypeError or ValueError of ``complex``.
No entry may warn first, or return an inf or a nan.

The vector contract is checked the same way: each entry that takes a
coordinate vector is called with each vector of ``HOSTILE_VECTORS``, and
each other array an entry reads is given a bool in ``BOOL_ARRAYS``.  Each
array entry reads each kind of ``ARRAY_KINDS`` one way, the way of
``errors._array``.  Each numeric parameter refuses a bool by name
(``BOOL_PARAMETERS``), and the FD oracle returns no non-finite quotient
(``FD_ENTRIES``).
"""

import math
import re
import warnings

import numpy as np
import pytest

from wirtcalc import (DescentConfig, DimensionMismatch, DomainError,
                      FunctionalJet, build_least_squares, classify,
                      classify_functional, constant, eval_jet, fd_gradients,
                      fd_partials, fd_wirtinger, fd_wirtinger_gradients,
                      functional_constant, hessian_is_real_consistent, hvec,
                      inner, ip_functional, linear_combine,
                      newton_step_scalar, second_order_taylor, seed_variable,
                      squared_distance, steepest_descent_hilbert,
                      steepest_descent_scalar)
from wirtcalc.expr import Add, Const, Var, format_expr

HOSTILE_SCALARS = [
    (math.nan, DomainError),
    (math.inf, DomainError),
    (-math.inf, DomainError),
    (complex(0, math.nan), DomainError),
    (10 ** 400, DomainError),
    (None, TypeError),
    ("abc", ValueError),
    (True, TypeError),          # complex(True) is 1
    (np.True_, TypeError),      # numpy's bool, which complex() takes too
    ("1+2j", ValueError),       # Python's syntax, not the grammar's 2i
]

_A = seed_variable(0.5 - 1j)
_JET2 = eval_jet("abs2(z)", 1 + 1j, order=2)

#: each entry with the hostile value in its one outside-scalar argument;
#: the FD entries take a callable, so that no evaluation checks the point
SCALAR_ENTRIES = {
    "eval_jet": lambda x: eval_jet("z", x),
    "seed_variable": seed_variable,
    "constant": constant,
    "linear_combine": lambda x: linear_combine(x, _A, 1, _A),
    "fd_partials": lambda x: fd_partials(lambda c: c, x),
    "fd_wirtinger": lambda x: fd_wirtinger(lambda c: c, x),
    "classify": lambda x: classify("z", x),
    "steepest_descent_scalar": lambda x: steepest_descent_scalar(
        "abs2(z)", x, DescentConfig()),
    "newton_step_scalar": lambda x: newton_step_scalar("abs2(z)", x),
    "second_order_taylor": lambda x: second_order_taylor(_JET2, x),
}


@pytest.mark.parametrize("bad, error", HOSTILE_SCALARS,
                         ids=["nan", "inf", "-inf", "nanj", "10**400",
                              "None", "str", "bool", "numpy-bool",
                              "numeric-str"])
@pytest.mark.parametrize("name", SCALAR_ENTRIES)
def test_scalar_entries_keep_the_contract(name, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            SCALAR_ENTRIES[name](bad)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("k, error", [(10 ** 400, DomainError),
                                      (math.inf, DomainError),
                                      (True, TypeError),
                                      (np.True_, TypeError),
                                      ("abc", ValueError),
                                      ("1+2j", ValueError)],
                         ids=["10**400", "inf", "bool", "numpy-bool", "str",
                              "numeric-str"])
def test_hand_built_constants_keep_the_contract(k, error, order):
    # a tree's constant is an outside scalar too, at every order; it is
    # checked where the tree is compiled, so printing, ==, hash and repr
    # refuse it as evaluation does
    tree = Add(Var(), Const(k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            eval_jet(Const(k), 1, order)
        for op in (lambda e: eval_jet(e, 1, order), format_expr,
                   lambda e: e == e, hash, repr):
            with pytest.raises(error):
                op(tree)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_hand_built_int_constant_is_a_complex(order):
    r = eval_jet(Const(1), 1, order)
    value = r if order == 0 else r.value
    assert value.__class__ is complex and value == 1


@pytest.mark.parametrize("tol", [math.nan, -1e-4])
def test_verdict_tolerance_is_a_number_at_least_zero(tol):
    # NaN would fail every size test and read as a silent Neither
    with pytest.raises(ValueError, match="tol must be a number >= 0"):
        classify("z", 1, tol=tol)
    with pytest.raises(ValueError, match="tol must be a number >= 0"):
        classify_functional(lambda f: f[0], [1 + 0j], tol=tol)
    with pytest.raises(ValueError, match="tol must be a number >= 0"):
        hessian_is_real_consistent(_JET2, tol=tol)


#: vectors of dimension 2 that numpy would read as numbers
HOSTILE_VECTORS = [
    ([1, True], TypeError),             # np.asarray reads True as 1
    ([np.True_, 2j], TypeError),
    ((0.5, False), TypeError),
    (np.array([True, False]), TypeError),
    (np.array([1j, True], dtype=object), TypeError),
]

_LSQ = build_least_squares([[1, 2j], [0.5, -1]], [1j, 2])

#: each entry with the hostile vector in its one coordinate-vector argument
VECTOR_ENTRIES = {
    "hvec": hvec,
    "inner, first": lambda v: inner(v, [1, 1j]),
    "inner, second": lambda v: inner([1, 1j], v),
    "squared_distance program": lambda v: squared_distance([1, 1j])(v),
    "squared_distance parameter": squared_distance,
    "least-squares call": _LSQ,
    "eval_assembled": _LSQ.eval_assembled,
    "steepest_descent_hilbert": lambda v: steepest_descent_hilbert(
        _LSQ, v, DescentConfig()),
}


@pytest.mark.parametrize("bad, error", HOSTILE_VECTORS,
                         ids=["bool", "numpy-bool", "tuple-bool",
                              "bool-array", "object-array"])
@pytest.mark.parametrize("name", VECTOR_ENTRIES)
def test_vector_entries_keep_the_contract(name, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            VECTOR_ENTRIES[name](bad)


@pytest.mark.parametrize("good", [[1, 0], (2, -1.5), np.array([0, 1]),
                                  np.array([0.0, 1.0])])
def test_vector_of_plain_numbers_is_no_bool(good):
    assert np.array_equal(hvec(good), np.asarray(good, dtype=complex))
    assert squared_distance([0, 0])(good).value == float(np.vdot(good, good))


#: every other array argument, each with a bool in it: a 0-d one, one in a
#: flat row and one in a nested row, where numpy would read 0 or 1
BOOL_ARRAYS = {
    "ip_functional row": lambda: ip_functional("fw", [1, True], [1, 2]),
    "ip_functional nested row": lambda: ip_functional(
        "fw", [[1, True]], [1, 2]),
    "ip_functional object rows": lambda: ip_functional(
        "wf", np.array([[1j, np.False_]], dtype=object), [1, 2]),
    "functional_constant": lambda: functional_constant(True, 2),
    "functional_constant, 0-d array": lambda: functional_constant(
        np.array(True), 2),
    "functional_constant, stack": lambda: functional_constant([2, True], 2),
    "FunctionalJet value": lambda: FunctionalJet(True, [1, 0], [0, 0]),
    "FunctionalJet dz": lambda: FunctionalJet(1, [True, 0], [0, 0]),
    "FunctionalJet dzc": lambda: FunctionalJet(1, [1, 0], [0, np.True_]),
    "least-squares samples": lambda: build_least_squares([[True, 1]], [1]),
    "least-squares targets": lambda: build_least_squares([[2, 1]], [True]),
    "least-squares bool samples": lambda: build_least_squares(
        np.ones((2, 1), dtype=bool), [1, 2]),
}


@pytest.mark.parametrize("name", BOOL_ARRAYS)
def test_no_array_reads_a_bool(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="bool"):
            BOOL_ARRAYS[name]()


def test_arrays_of_plain_numbers_are_read():
    assert ip_functional("fw", [[1, 0]], [1, 2]).value.tolist() == [1]
    assert functional_constant(np.array(0), np.int64(2)).dz.shape == (2,)
    assert FunctionalJet(1, [1, 0], [0, 0]).value == 1
    assert build_least_squares([[2, 1]], [0]).n_params == 2


@pytest.mark.parametrize("n, error", [(0, DimensionMismatch),
                                      (-1, DimensionMismatch),
                                      (1.5, TypeError), (math.nan, TypeError),
                                      (True, TypeError), (np.True_, TypeError)],
                         ids=["0", "-1", "1.5", "nan", "True", "numpy-True"])
def test_dimension_is_an_integer_at_least_one(n, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="n must be an integer|n >= 1"):
            functional_constant(1, n)


#: one array of each kind numpy reads without a bool: a ragged list, a 0-d
#: array, an empty one, and a big-endian one, which is not complex128 and so
#: is converted where a complex128 array is read in place
ARRAY_KINDS = {
    "ragged": [[1, 2], [3]],
    "0-d": np.array(1 + 1j),
    "empty": np.array([], dtype=complex),
    "big-endian": np.array([1 + 2j, -0.5j], dtype=">c16"),
}

#: each entry with the array in its one array argument, dimension 2
ARRAY_ENTRIES = {
    "hvec": hvec,
    "inner, first": lambda v: inner(v, [1, 1j]),
    "inner, second": lambda v: inner([1, 1j], v),
    "squared_distance program": lambda v: squared_distance([1, 1j])(v),
    "squared_distance parameter": lambda v: squared_distance(v)([0, 1]),
    "ip_functional": lambda v: ip_functional("fw", v, [1, 2]),
    "FunctionalJet dz": lambda v: FunctionalJet(1, v, [0, 0]),
    "functional_constant": lambda v: functional_constant(v, 2),
    "build_least_squares targets": lambda v: build_least_squares(
        [[1, 0], [0, 1j]], v)([0.5, 1j]),
}

#: the entries that read a 0-d or an empty array as numbers, and what as
READ_AS = {
    ("functional_constant", "0-d"): 1 + 1j,     # one constant
}


def _same(a, b) -> bool:
    """Equal results, in complex128 of the native byte order."""
    if isinstance(a, FunctionalJet):
        return a == b and a.dz.dtype == np.complex128
    return np.array_equal(a, b) and np.asarray(a).dtype == np.complex128


@pytest.mark.parametrize("kind", ARRAY_KINDS)
@pytest.mark.parametrize("name", ARRAY_ENTRIES)
def test_array_entries_read_each_kind_one_way(name, kind):
    entry, x = ARRAY_ENTRIES[name], ARRAY_KINDS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "big-endian":
            assert _same(entry(x), entry(x.astype(np.complex128)))
        elif (name, kind) in READ_AS:
            assert _same(entry(x), entry(READ_AS[name, kind]))
        else:
            with pytest.raises(DimensionMismatch):
                entry(x)


@pytest.mark.parametrize("widely_linear", [False, True])
def test_big_endian_samples_build_the_complex128_program(widely_linear):
    # the widely-linear factor reads the samples' bytes as float64 pairs
    X = np.array([[1 + 2j, -0.5j], [3, 1 - 1j], [0.25j, 2]])
    d = np.array([1j, 2, -1])
    c = [0.5, 1j] * (2 if widely_linear else 1)
    got = build_least_squares(X.astype(">c16"), d.astype(">c16"),
                              widely_linear)(c)
    assert _same(got, build_least_squares(X, d, widely_linear)(c))


#: each numeric parameter, named as its TypeError names it
BOOL_PARAMETERS = {
    "mu": lambda b: DescentConfig(mu=b),
    "tol (descent)": lambda b: DescentConfig(tol=b),
    "max_iter": lambda b: DescentConfig(max_iter=b),
    "order": lambda b: eval_jet("z", 1, order=b),
    "step (fd_partials)": lambda b: fd_partials("z", 1, step=b),
    "step (fd_gradients)": lambda b: fd_gradients(
        lambda v: complex(v[0]), [1 + 0j], step=b),
    "tol (classify)": lambda b: classify("z", 1, tol=b),
    "tol (classify_functional)": lambda b: classify_functional(
        lambda v: complex(v[0]), [1 + 0j], tol=b),
    "tol (hessian_is_real_consistent)": lambda b: hessian_is_real_consistent(
        _JET2, tol=b),
    "n": lambda b: functional_constant(1, b),
}


@pytest.mark.parametrize("b", [True, False, np.True_],
                         ids=["True", "False", "numpy-True"])
@pytest.mark.parametrize("name", BOOL_PARAMETERS)
def test_no_parameter_reads_a_bool(name, b):
    param = name.split()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=f"^{param} must be"):
            BOOL_PARAMETERS[name](b)


@pytest.mark.parametrize("n", [1.5, math.nan, "3"])
def test_iteration_budget_is_an_integer_named_max_iter(n):
    with pytest.raises(TypeError, match="^max_iter must be an integer"):
        DescentConfig(max_iter=n)


@pytest.mark.parametrize("order", [1.0, 2.0, np.float64(1)],
                         ids=["1.0", "2.0", "numpy-1.0"])
def test_order_is_an_integer(order):
    with pytest.raises(TypeError, match="^order must be an integer"):
        eval_jet("z", 1, order=order)


def test_order_may_be_a_numpy_integer():
    assert eval_jet("z*z", 1, order=np.int64(2)) == eval_jet("z*z", 1, 2)


#: each entry that builds a functional jet, given a zero-size one: on C^0,
#: or a stack of no jets
ZERO_SIZE_JETS = {
    "FunctionalJet on C^0": lambda: FunctionalJet(1, [], []),
    "FunctionalJet stack on C^0": lambda: FunctionalJet(
        np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2))),
    "FunctionalJet empty stack": lambda: FunctionalJet(
        np.array([]), np.zeros((2, 0)), np.zeros((2, 0))),
    "functional_constant": lambda: functional_constant(np.array([]), 2),
    "ip_functional": lambda: ip_functional("fw", np.zeros((0, 2)), [1, 2]),
}


@pytest.mark.parametrize("name", ZERO_SIZE_JETS)
def test_no_functional_jet_is_zero_size(name):
    # as hvec([]) and stack_vector_operator([]) refuse theirs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            ZERO_SIZE_JETS[name]()


#: each FD oracle entry, given a scalar function and a step; the vector
#: entries read it at the first coordinate of C^1
FD_ENTRIES = {
    "fd_partials": lambda f, s: fd_partials(f, 1, s),
    "fd_wirtinger": lambda f, s: fd_wirtinger(f, 1, s),
    "classify": lambda f, s: classify(f, 1, s),
    "fd_gradients": lambda f, s: fd_gradients(
        lambda v: f(complex(v[0])), [1 + 0j], s),
    "fd_wirtinger_gradients": lambda f, s: fd_wirtinger_gradients(
        lambda v: f(complex(v[0])), [1 + 0j], s),
    "classify_functional": lambda f, s: classify_functional(
        lambda v: f(complex(v[0])), [1 + 0j], s),
}


@pytest.mark.parametrize("f, step", [
    (lambda c: c, 1e308),                   # 2 * step overflows
    (lambda c: complex(math.inf), 1e-5),
], ids=["step-1e308", "returns-inf"])
@pytest.mark.parametrize("name", FD_ENTRIES)
def test_the_oracle_returns_no_non_finite_quotient(name, f, step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(
                f"non-finite difference quotient at step {step:g}")):
            FD_ENTRIES[name](f, step)
