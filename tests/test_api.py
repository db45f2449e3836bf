"""Snapshot of the package's public names: adding or removing one must be a
deliberate edit of this list.  Also pins what importing the package costs:
the scalar calculus and the scalar CLI commands never load numpy, and each
command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wirtcalc

PUBLIC_NAMES = [
    # errors
    "ArityError", "DimensionMismatch", "DomainError", "EmptyData",
    "ExprSyntaxError", "NonRealCost", "PoleError", "SingularHessian",
    "StepTooSmall", "UnknownIdentifier", "WirtcalcError",
    # expressions
    "Expr", "compile_expr", "eval_jet", "format_expr", "parse",
    "parse_complex",
    # finite-difference oracle and holomorphy verdicts
    "HolomorphyReport", "Verdict", "classify", "fd_partials", "fd_wirtinger",
    # first-order jet rules (scalar and Hilbert-space jets)
    "PRIMITIVES", "WirtingerJet", "add", "apply_primitive", "conj",
    "constant", "div", "linear_combine", "mul", "power_int",
    "seed_variable", "sub",
    # Hilbert space
    "FunctionalJet", "classify_functional", "fd_gradients",
    "fd_wirtinger_gradients", "functional_constant", "hvec", "inner",
    "ip_functional", "outer_chain", "squared_distance",
    "stack_vector_operator",
    # minimization
    "DescentConfig", "DescentTrace", "Termination", "build_least_squares",
    "newton_step_scalar", "steepest_descent_hilbert",
    "steepest_descent_scalar",
    # second order
    "SecondOrderJet", "hessian_is_real_consistent", "second_order_taylor",
]


def test_public_api_snapshot():
    assert sorted(wirtcalc.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    listed = dir(wirtcalc)
    for name in wirtcalc.__all__:
        assert getattr(wirtcalc, name) is not None, name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from wirtcalc import *", ns)
    for name in wirtcalc.__all__:
        assert ns[name] is getattr(wirtcalc, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wirtcalc.no_such_name
    assert not hasattr(wirtcalc, "no_such_name")


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's
    wirtcalc; return its stdout parsed as JSON."""
    src = str(Path(wirtcalc.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), check=True)
    return json.loads(proc.stdout)


def test_import_loads_only_the_errors():
    code = ("import json, sys, wirtcalc; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('wirtcalc'))))")
    assert fresh_python(code) == ["wirtcalc", "wirtcalc.errors"]


def test_a_name_is_bound_on_its_first_access():
    # bound, not looked up again: rebinding the module's attribute later
    # leaves the package's name as it was
    code = """
import json, wirtcalc
names = ("eval_jet", "hvec")
unbound = [name in vars(wirtcalc) for name in names]
from wirtcalc import expr, hilbert
same = [wirtcalc.eval_jet is expr.eval_jet, wirtcalc.hvec is hilbert.hvec]
bound = [name in vars(wirtcalc) for name in names]
hvec, hilbert.hvec = hilbert.hvec, None
print(json.dumps(unbound + same + bound + [wirtcalc.hvec is hvec]))
"""
    assert fresh_python(code) == [False] * 2 + [True] * 5


@pytest.mark.parametrize("module", ["wirtcalc", "wirtcalc.cli"])
def test_import_does_not_load_numpy(module):
    code = f"import json, sys, {module}; print(json.dumps('numpy' in sys.modules))"
    assert fresh_python(code) is False


RUN_CLI = """
import contextlib, io, json, sys
from wirtcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, *(name in sys.modules for name in sys.argv[2:])]))
"""


@pytest.mark.parametrize("argv", [
    ["diff", "z^2", "--at", "1+1i"],
    ["hessian", "z*conj(z)", "--at", "1+2i"],
    ["check", "z*conj(z)", "--at", "2"],
    ["classify", "conj(z)", "--at", "1-1i"],
    ["minimize", "(z-2)*conj(z-2)", "--from", "0", "--mu", "0.5"],
], ids=lambda argv: argv[0])
def test_scalar_commands_do_not_load_numpy(argv):
    assert fresh_python(RUN_CLI, json.dumps(argv), "numpy") == [0, False]


LAZY_MODULES = ("wirtcalc.optimize", "wirtcalc.second", "wirtcalc.hilbert",
                "logging")


@pytest.mark.parametrize("argv,loaded", [
    (["diff", "z^2", "--at", "1+1i"], ()),
    (["check", "z*conj(z)", "--at", "2"], ()),
    (["classify", "conj(z)", "--at", "1-1i"], ()),
    (["hessian", "z*conj(z)", "--at", "1+2i"], ("wirtcalc.second",)),
    (["minimize", "(z-2)*conj(z-2)", "--from", "0", "--mu", "0.5"],
     ("wirtcalc.optimize", "logging")),
], ids=["diff", "check", "classify", "hessian", "minimize"])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    got = fresh_python(RUN_CLI, json.dumps(argv), *LAZY_MODULES)
    assert got == [0, *(name in loaded for name in LAZY_MODULES)]


def test_minimize_data_loads_numpy(tmp_path):
    path = tmp_path / "lsq.json"
    path.write_text(json.dumps({
        "X": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [1.0, 0.0]]],
        "d": [[0.5, -1.0], [1.0, 0.0]],
    }))
    argv = ["minimize", "--data", str(path), "--mu", "0.2"]
    assert fresh_python(RUN_CLI, json.dumps(argv), "numpy") == [0, True]


def test_least_squares_build_leaves_hilbert_unloaded():
    # a build loads numpy only; hilbert, a few milliseconds of import,
    # loads on the program's first call
    code = """
import json, sys
from wirtcalc import build_least_squares
prog = build_least_squares([[1 + 0j, 2j], [0.5, -1]], [1 + 1j, 2])
loaded = ["wirtcalc.hilbert" in sys.modules]
prog([0j, 0j])
print(json.dumps(loaded + ["wirtcalc.hilbert" in sys.modules]))
"""
    assert fresh_python(code) == [False, True]


LOADED = ("json.dumps([m in sys.modules for m in "
          "('wirtcalc.expr', 'wirtcalc.forward', 'wirtcalc.hilbert')])")


def test_least_squares_build_loads_no_expression_engine():
    code = f"""
import json, sys
from wirtcalc import DescentConfig, build_least_squares
build_least_squares([[1 + 0j, 2j], [0.5, -1]], [1 + 1j, 2], True)
DescentConfig(mu=0.2)
print({LOADED})
"""
    assert fresh_python(code) == [False, False, False]


HILBERT_CALLS = {
    "program call": "prog([0j, 0j])",
    "descent": "wc.steepest_descent_hilbert(prog, [0j, 0j], "
               "wc.DescentConfig(mu=0.2))",
    "fd check": "sq = wc.squared_distance([1, 2j]); "
                "wc.fd_gradients(lambda v: sq(v).value, [0j, 1])",
    "classify": "wc.classify_functional(lambda v: complex(v[0] ** 2), "
                "[1j, 0j])",
}


@pytest.mark.parametrize("call", HILBERT_CALLS.values(), ids=HILBERT_CALLS)
def test_hilbert_path_never_loads_the_expression_engine(call):
    # the Hilbert-space calculus reads no expression text
    code = f"""
import json, sys
import wirtcalc as wc
prog = wc.build_least_squares([[1 + 0j, 2j], [0.5, -1]], [1 + 1j, 2])
{call}
print({LOADED})
"""
    assert fresh_python(code) == [False, True, True]


def test_minimize_data_loads_no_expression_engine(tmp_path):
    path = tmp_path / "lsq.json"
    path.write_text(json.dumps({"X": [[[1.0, 0.0]], [[0.5, 0.5]]],
                                "d": [[0.5, -1.0], [1.0, 0.0]]}))
    argv = ["minimize", "--data", str(path), "--mu", "0.2"]
    got = fresh_python(RUN_CLI, json.dumps(argv), "numpy",
                       "wirtcalc.hilbert", "wirtcalc.expr")
    assert got == [0, True, True, False]


def test_cli_import_loads_no_expression_engine():
    code = ("import json, sys, wirtcalc.cli; "
            "print(json.dumps('wirtcalc.expr' in sys.modules))")
    assert fresh_python(code) is False
