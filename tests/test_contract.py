"""The scalar contract of ``wirtcalc.errors``, checked as one table.

Every public entry that takes a complex scalar from outside is called with
each hostile value of ``HOSTILE_SCALARS`` in that argument.  A non-finite
number, or an integer beyond float range, must raise DomainError; a bool
must raise TypeError, any str ValueError, and any other value that is not a
number the TypeError or ValueError of ``complex``.
No entry may warn first, or return an inf or a nan.
"""

import math
import warnings

import pytest

from wirtcalc import (DescentConfig, DomainError, classify,
                      classify_functional, constant, eval_jet, fd_partials,
                      fd_wirtinger, linear_combine, newton_step_scalar,
                      second_order_taylor, seed_variable,
                      steepest_descent_scalar)
from wirtcalc.expr import Const

HOSTILE_SCALARS = [
    (math.nan, DomainError),
    (math.inf, DomainError),
    (-math.inf, DomainError),
    (complex(0, math.nan), DomainError),
    (10 ** 400, DomainError),
    (None, TypeError),
    ("abc", ValueError),
    (True, TypeError),          # complex(True) is 1
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
                              "None", "str", "bool", "numeric-str"])
@pytest.mark.parametrize("name", SCALAR_ENTRIES)
def test_scalar_entries_keep_the_contract(name, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            SCALAR_ENTRIES[name](bad)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("k, error", [(10 ** 400, DomainError),
                                      (True, TypeError),
                                      ("abc", ValueError),
                                      ("1+2j", ValueError)],
                         ids=["10**400", "bool", "str", "numeric-str"])
def test_hand_built_constants_keep_the_contract(k, error, order):
    # a tree's constant is an outside scalar too, at every order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            eval_jet(Const(k), 1, order)


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
