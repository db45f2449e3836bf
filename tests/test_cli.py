import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from wirtcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def cli_process(argv, env=(), **kwargs):
    """``python -m wirtcalc.cli ARGV`` in a subprocess that imports the
    wirtcalc these tests import."""
    import wirtcalc

    src = os.path.dirname(os.path.dirname(wirtcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wirtcalc.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path, **dict(env)},
                          **kwargs)


def walk_numbers(obj):
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, list):
        for v in obj:
            yield from walk_numbers(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from walk_numbers(v)


def test_diff_square(capsys):
    code, rep, _ = run_json(capsys, "diff", "z^2", "--at", "1+1i")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["dz"] == [2.0, 2.0]
    assert rep["dzc"] == [0.0, 0.0]
    assert all(math.isfinite(x) for x in walk_numbers(rep))


def test_diff_conjugate_at_origin(capsys):
    code, rep, _ = run_json(capsys, "diff", "conj(z)", "--at", "0")
    assert code == 0
    assert rep["dz"] == [0.0, 0.0]
    assert rep["dzc"] == [1.0, 0.0]


def test_diff_pole_exits_3(capsys):
    code, out, err = run(capsys, "diff", "1/z", "--at", "0")
    assert code == 3
    assert "pole" in err.lower()


def test_diff_overflow_exits_3_without_traceback(capsys):
    code, _, err = run(capsys, "diff", "z^64", "--at", "1e10")
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


def test_diff_infinite_literal_exits_2_with_offset(capsys):
    code, _, err = run(capsys, "diff", "1e400*z", "--at", "1")
    assert code == 2
    assert "offset 0" in err


def test_diff_syntax_error_exits_2_with_offset(capsys):
    code, out, err = run(capsys, "diff", "z +", "--at", "0")
    assert code == 2
    assert "offset 3" in err


def test_diff_bad_point_exits_2_with_offset(capsys):
    # a non-ASCII digit, an ASCII separator that is not grammar whitespace,
    # and the variable in what must be a constant
    for at, offset in (("1\u0663", 1), ("1\x1c", 1), ("1+2*z", 4)):
        code, out, err = run(capsys, "diff", "z^2", "--at", at)
        assert (code, out) == (2, "")
        assert f"offset {offset}" in err


def test_diff_unknown_identifier_exits_2(capsys):
    code, _, err = run(capsys, "diff", "q+1", "--at", "0")
    assert code == 2


def test_diff_order_2(capsys):
    code, rep, _ = run_json(capsys, "diff", "z*conj(z)", "--at", "1+2i",
                            "--order", "2")
    assert code == 0
    h = rep["hessian"]
    assert h["dzzc"] == [1.0, 0.0]
    assert h["dzcz"] == [1.0, 0.0]
    assert h["dzz"] == [0.0, 0.0]


def test_hessian_alias_matches_diff(capsys):
    code1, rep1, _ = run_json(capsys, "hessian", "z*conj(z)", "--at", "1+2i")
    code2, rep2, _ = run_json(capsys, "diff", "z*conj(z)", "--at", "1+2i",
                              "--order", "2")
    assert code1 == code2 == 0
    assert rep1["hessian"] == rep2["hessian"]


def test_diff_abs_order2_exits_0(capsys):
    code, rep, _ = run_json(capsys, "diff", "abs(z)", "--at", "1+1i",
                            "--order", "2")
    assert code == 0
    want = 1 / (4 * math.sqrt(2))
    for slot in ("dzzc", "dzcz"):
        re, im = rep["hessian"][slot]
        assert abs(re - want) <= 1e-15 and im == 0.0
    code, _, err = run(capsys, "diff", "abs(z)", "--at", "0", "--order", "2")
    assert code == 3 and err.startswith("error: ")


def test_check_neither_but_accurate(capsys):
    code, rep, _ = run_json(capsys, "check", "z*conj(z)", "--at", "2")
    assert code == 0
    assert rep["classification"] == "Neither"
    assert rep["residual_dz"] < 1e-6
    assert rep["residual_dzc"] < 1e-6


def test_check_holomorphic(capsys):
    code, rep, _ = run_json(capsys, "check", "z^3", "--at", "1+2i")
    assert code == 0
    assert rep["classification"] == "Holomorphic"


def test_check_abs_at_zero_exits_3(capsys):
    code, _, err = run(capsys, "check", "abs(z)", "--at", "0")
    assert code == 3


def test_check_exits_1_when_residual_above_tol(capsys):
    # a coarse step makes the finite differences miss a tight tolerance
    code, rep, _ = run_json(capsys, "check", "exp(z^3)", "--at", "1+1i",
                            "--step", "0.25", "--tol", "1e-12")
    assert code == 1
    assert rep["ok"] is False


def test_check_step_below_the_floor_exits_1(capsys):
    for step, why in (("1e-13", "below 1e-12"), ("nan", "is not a number")):
        code, out, err = run(capsys, "check", "z", "--at", "1", "--step", step)
        assert code == 1 and out == ""
        assert err == f"error: step {step} {why}\n"
    # an infinite step is named as such, not as a non-finite point
    code, out, err = run(capsys, "check", "z*conj(z)", "--at", "1",
                         "--step", "inf")
    assert (code, out, err) == (1, "", "error: step inf is not finite\n")


def test_check_evaluates_the_jet_once(capsys, monkeypatch):
    from wirtcalc import forward as fw
    seeds = []
    seed = fw.seed_variable
    monkeypatch.setattr(fw, "seed_variable",
                        lambda c: seeds.append(c) or seed(c))
    code, rep, _ = run_json(capsys, "check", "z*conj(z)", "--at", "2")
    assert code == 0 and rep["classification"] == "Neither"
    assert len(seeds) == 1      # one order-1 evaluation, not two


def test_classify_conjugate(capsys):
    code, rep, _ = run_json(capsys, "classify", "conj(z)", "--at", "1-1i")
    assert code == 0
    assert rep["classification"] == "ConjugateHolomorphic"
    assert rep["conj_cr_residual"] < 1e-6


@pytest.mark.parametrize("expr,at,step", [
    ("z*conj(z)", "2", "1e-5"),
    ("exp(z^3)", "1+1i", "0.25"),
    ("sin(z)/conj(z)", "0.3-0.7i", "1e-4"),
])
def test_check_and_classify_report_the_same_fd_pair(capsys, expr, at, step):
    _, chk, _ = run_json(capsys, "check", expr, "--at", at, "--step", step)
    _, cls, _ = run_json(capsys, "classify", expr, "--at", at, "--step", step)
    assert (chk["fd_w"], chk["fd_cw"]) == (cls["fd_w"], cls["fd_cw"])
    assert chk["classification"] == cls["classification"]


def test_classify_refuses_a_nan_tolerance(capsys):
    # every residual < nan is false: the verdict would be a silent Neither
    code, out, err = run(capsys, "classify", "z", "--at", "1", "--tol", "nan")
    assert (code, out) == (1, "")
    assert err.startswith("error: tol must be a number >= 0")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_check_refuses_a_bad_tolerance(capsys, tol):
    # NaN printed as "tol": NaN, which is not JSON; below 0 nothing passes
    code, out, err = run(capsys, "check", "z", "--at", "1", "--tol", tol)
    assert (code, out) == (1, "")
    assert err == f"error: tol must be a number >= 0, got {float(tol)!r}\n"


#: each option given hostile text, with its documented exit code: 2 for
#: text that is not a value of the option (argparse's usage error, or a
#: point that is not an expression), 1 for a value out of range, 3 for a
#: step whose difference quotient overflows
HOSTILE_OPTIONS = [
    *((["diff", "z", "--at", at], 2) for at in ("nan", "1e999", "", "abc")),
    *((["minimize", "abs2(z)", "--from", at], 2)
      for at in ("nan", "1e999", "", "abc")),
    (["diff", "z", "--at", "1", "--order", "3"], 2),
    (["diff", "z", "--at", "1", "--order", "x"], 2),
    *((["check" if c else "classify", "z", "--at", "1", "--step", step], code)
      for c in (True, False)
      for step, code in (("-1", 1), ("nan", 1), ("inf", 1), ("1e308", 3),
                         ("abc", 2))),
    *((["check" if c else "classify", "z", "--at", "1", "--tol", tol], code)
      for c in (True, False)
      for tol, code in (("nan", 1), ("-1", 1), ("abc", 2))),
    *((["minimize", "abs2(z)", "--tol", tol], code)
      for tol, code in (("nan", 1), ("-1", 1), ("abc", 2))),
    *((["minimize", "abs2(z)", "--mu", mu], code)
      for mu, code in (("0", 1), ("nan", 1), ("inf", 1), ("abc", 2))),
    *((["minimize", "abs2(z)", "--max-iter", n], code)
      for n, code in (("-1", 1), ("1e3", 2), ("abc", 2))),
]


@pytest.mark.parametrize("argv, code", HOSTILE_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in HOSTILE_OPTIONS])
def test_hostile_option_values_exit_with_one_error_line(capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = main(argv)
        except SystemExit as exc:       # argparse's usage error
            got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    lines = err.splitlines()
    assert "error: " in lines[-1] and "Traceback" not in err
    assert sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize("command", ["check", "classify"])
def test_an_overflowing_step_is_the_oracles_domain_error(capsys, command):
    # not a nan pair refused on output: the oracle names the step
    code, out, err = run(capsys, command, "z", "--at", "1", "--step", "1e308")
    assert (code, out) == (3, "")
    assert err == ("error: non-finite difference quotient at step 1e+308: "
                   "(nan+nanj)\n")


def test_minimize_quadratic(capsys):
    code, rep, _ = run_json(capsys, "minimize", "(z-2)*conj(z-2)",
                            "--from", "0", "--mu", "0.5", "--tol", "1e-8")
    assert code == 0
    assert rep["termination"] == "Converged"
    assert abs(rep["final"][0] - 2) < 1e-7
    assert abs(rep["final"][1]) < 1e-7


def test_minimize_diverges_exits_4(capsys):
    code, rep, _ = run_json(capsys, "minimize", "(z-2)*conj(z-2)",
                            "--from", "0", "--mu", "2.5")
    assert code == 4
    assert rep["termination"] == "Diverged"


def test_minimize_non_real_cost_exits_4(capsys):
    code, _, err = run(capsys, "minimize", "i*z", "--from", "1")
    assert code == 4


def test_minimize_max_iter_exits_1(capsys):
    code, rep, _ = run_json(capsys, "minimize", "(z-2)*conj(z-2)",
                            "--from", "0", "--mu", "1e-6",
                            "--max-iter", "5")
    assert code == 1
    assert rep["termination"] == "MaxIter"


def test_minimize_stalled_line_search_exits_5(capsys):
    code, rep, _ = run_json(capsys, "minimize", "abs(z-1)", "--from", "0.3i",
                            "--mu", "0.5", "--tol", "1e-12", "--max-iter",
                            "200", "--backtrack")
    assert code == 5
    assert rep["termination"] == "Stalled"
    assert rep["iterations"] < 200


def test_minimize_backtracking(capsys):
    code, rep, _ = run_json(capsys, "minimize", "(z-2)*conj(z-2)",
                            "--from", "0", "--mu", "4.0", "--backtrack")
    assert code == 0
    assert rep["termination"] == "Converged"


def test_minimize_data_file(capsys, tmp_path, np_rng):
    import numpy as np
    from wirtcalc import hilbert as hb

    n, m = 3, 30
    X = (np_rng.standard_normal((m, n))
         + 1j * np_rng.standard_normal((m, n))) / np.sqrt(2)
    a0 = np_rng.standard_normal(n) + 1j * np_rng.standard_normal(n)
    b0 = np_rng.standard_normal(n) + 1j * np_rng.standard_normal(n)
    d = [hb.inner(x, a0) + hb.inner(np.conj(x), b0) for x in X]
    payload = {
        "X": [[[v.real, v.imag] for v in row] for row in X],
        "d": [[v.real, v.imag] for v in d],
    }
    path = tmp_path / "lsq.json"
    path.write_text(json.dumps(payload))

    code, rep, _ = run_json(capsys, "minimize", "--data", str(path),
                            "--widely-linear", "--mu", "0.02",
                            "--tol", "1e-9", "--max-iter", "20000")
    assert code == 0
    assert rep["termination"] == "Converged"
    got = np.array([complex(re, im) for re, im in rep["final"]])
    assert np.linalg.norm(got - np.concatenate([a0, b0])) < 1e-6


@pytest.mark.parametrize("payload, names", [
    ({"X": [[[1, 0]]]}, "'d'"),
    ({"X": [], "d": [[1, 0]]}, "'X'"),
    ({"X": [[[1]]], "d": [[1, 0]]}, "[1]"),
    ({"X": [[[1, 0]]], "d": [[1, 0, 2]]}, "[1, 0, 2]"),
    ({"X": ["row"], "d": [[1, 0]]}, "'row'"),
    ({"X": [[[1, 0]]], "d": [[True, 0]]}, "[True, 0]"),
    ({"X": [[[1, False]]], "d": [[1, 0]]}, "[1, False]"),
    (b'{"X": [[[1,0]]], "d": [[1,0]', "not valid JSON: Expecting ','"),
    (b"\xff\xfe", "not UTF-8"),
    (b"[" * 100_000, "not readable JSON: maximum recursion depth"),
    (b'{"X": [[[1, 0]]], "d": [[' + b"9" * 5000 + b', 0]]}',
     "not readable JSON: Exceeds the limit"),
], ids=["no-d", "empty-X", "short-pair", "long-pair", "row-not-list",
        "bool-target", "bool-sample", "truncated-json", "not-utf8", "nested-100k", "5000-digits"])
def test_minimize_malformed_data_file_exits_2(capsys, tmp_path, payload,
                                              names):
    path = tmp_path / "lsq.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
        names = f"{str(path)!r} is {names}"
    else:
        path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "minimize", "--data", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: data file") and names in err


@pytest.mark.parametrize("payload", [
    {"X": [[[1, 0]]], "d": [[math.nan, 0]]},
    {"X": [[[1, 0]], [[0, 1]]], "d": [[1, 0], [0, math.inf]]},
    # finite data whose cost overflows at the start
    {"X": [[[1, 0]], [[0, 1]]], "d": [[1e200, 0], [3e200, 1]]},
    # an integer literal beyond float range, where 1e999 reads as inf
    {"X": [[[1, 0]]], "d": [[10 ** 400, 0]]},
], ids=["nan-target", "inf-target", "cost-overflow", "401-digit-target"])
def test_minimize_non_finite_data_exits_3(capsys, tmp_path, payload):
    path = tmp_path / "lsq.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no numpy overflow warning
        code, out, err = run(capsys, "minimize", "--data", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "not finite" in err


def test_minimize_missing_data_file_exits_1(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "minimize", "--data", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno 2]") and str(path) in err


def test_minimize_without_expression_or_data_fails(capsys):
    code, _, err = run(capsys, "minimize", "--from", "0")
    assert code == 2


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "z^2", "--at", "1+1i")
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep


@pytest.mark.parametrize("argv, same_as", [
    (["diff", "z", "--at", "-1i"], ["diff", "z", "--at=-1i"]),
    (["minimize", "(z-2)*conj(z-2)", "--from", "-1i", "--mu", "0.5"],
     ["minimize", "(z-2)*conj(z-2)", "--from=-1i", "--mu", "0.5"]),
    (["diff", "-z^2", "--at", "1"], ["diff", "--at", "1", "--", "-z^2"]),
    (["diff", "-z^2", "--at", "-1i"], ["diff", "--at=-1i", "--", "-z^2"]),
    (["check", "-conj(z)", "--at", "-2", "--tol", "1e-5"],
     ["check", "--at=-2", "--tol", "1e-5", "--", "-conj(z)"]),
], ids=["at", "from", "expr", "expr-and-at", "check"])
def test_values_that_start_with_a_dash(capsys, argv, same_as):
    want = run(capsys, *same_as)
    assert want[0] == 0 and want[1] and not want[2]
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("argv, code", [
    (["diff", "-h"], 0), (["diff", "--help"], 0), (["-h"], 0),
    (["diff", "z", "--at", "1", "--bogus"], 2),
    (["diff", "z", "--at", "1", "-x"], 2),
])
def test_options_still_parse_as_options(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr().out.startswith("usage: wirtcalc") == (not code)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("level, logs", [("debug", True), ("chatty", False)])
def test_wirt_log_sets_the_log_level(level, logs):
    # a subprocess, so that logging.basicConfig leaves this one alone
    proc = cli_process(
        ["minimize", "abs2(z-1)", "--from", "0", "--max-iter", "2"],
        env={"WIRT_LOG": level}, capture_output=True, text=True)
    assert proc.returncode == 1             # the budget of 2 runs out
    assert json.loads(proc.stdout)["iterations"] == 2
    assert ("DEBUG:wirtcalc.optimize:iter 0: " in proc.stderr) is logs
    assert ("DEBUG" in proc.stderr) is logs


@pytest.mark.parametrize("argv, code", [
    (["diff", "z", "--at", "1"], 0),
    (["minimize", "abs2(z-1)", "--from", "0", "--max-iter", "2"], 1),
])
def test_a_closed_stdout_is_not_a_failure(argv, code):
    # stdout is a pipe whose reader has gone, as in ``wirtcalc ... | head -1``
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wirtcalc.cli", "diff", "z^2", "--at", "1+1i"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["dz"] == [2.0, 2.0]
