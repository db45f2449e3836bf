"""Tests of the benchmark itself.  They live outside ``tests/``, so the
project's own test run does not collect them:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cmath
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import exprgen as g  # noqa: E402
import wl_cli  # noqa: E402
import wl_hilbert  # noqa: E402
import wl_scalar  # noqa: E402
from tracer import count_nodes  # noqa: E402

wirtcalc = pytest.importorskip("wirtcalc")


def close(a, b, tol=1e-6):
    return abs(a - b) <= tol * (1 + abs(b))


def test_reference_reproduces_readme_golden_values():
    # z^3 - i*z + conj(z)^2 at 2+1i
    t = ("+", ("-", ("pow", ("z",), 3), ("*", ("c", 1j), ("z",))),
         ("pow", ("zc",), 2))
    ref = g.reference(g.closure(t), 2 + 1j, 1)
    assert close(ref[0], 6 + 5j) and close(ref[1], 9 + 11j)
    assert close(ref[2], 4 - 2j)
    ref = g.reference(g.closure(("*", ("z",), ("zc",))), 1 + 2j, 2)
    assert close(ref[4], 1) and close(ref[5], 1)
    assert g.text(t) == "z^3-1i*z+zc^2"


def test_text_and_closure_describe_the_same_tree():
    rng = g.rng_for(0, "test")
    for _ in range(200):
        t = g.random_tree(rng, rng.randint(2, 60))
        e = wirtcalc.parse(g.text(t))
        assert count_nodes(e) == g.nodes(t)
        c = g.point(rng)
        try:
            want = g.closure(t)(c)
        except (g.Edge, ZeroDivisionError, OverflowError, ValueError):
            continue
        if cmath.isfinite(want):
            assert wirtcalc.eval_jet(e, c, 0) == want


def test_scaling_cancels_a_change_of_machine_speed():
    # the same four requests; the machine runs at half speed from the third
    # on, which doubles both the request and the kernel times there
    base = [0.01, 0.02, 0.01, 0.04]
    raw = [0.01, 0.02, 0.02, 0.08]
    kernels = [0.4e-3, 0.4e-3, 0.4e-3, 0.8e-3, 0.8e-3]
    scaled = calib.scale(raw, kernels, 0.4e-3)
    assert [scaled[i] for i in (0, 1, 3)] == \
        pytest.approx([base[i] for i in (0, 1, 3)])
    # the kernels around the third request saw both speeds
    assert base[2] < scaled[2] < raw[2]


def _scalar_inputs(seed):
    sweep = wl_scalar.Sweep(wirtcalc, seed)
    oneshot = wl_scalar.Oneshot(wirtcalc, seed)
    descent = wl_scalar.Descent(wirtcalc, seed)
    return (sweep.payload(), [p for t in sweep.trees for p in t[2]],
            [oneshot.request(i)[0] for i in range(120)],
            descent.payload(), [c[3] for c in descent.costs])


def test_generation_is_deterministic_per_seed(tmp_path):
    first = _scalar_inputs(3)
    assert first == _scalar_inputs(3)
    assert first[0] != _scalar_inputs(4)[0]
    runs = []
    for k in range(2):
        d = tmp_path / str(k)
        d.mkdir()
        cli = wl_cli.Cli(wirtcalc, 3, ROOT, d)
        argvs = [[a.replace(str(d), "DIR") for a in cli.request(i)[0]]
                 for i in range(9)]
        runs.append((argvs, [p.read_text() for p in sorted(d.iterdir())]))
        hilbert = wl_hilbert.Hilbert(wirtcalc, 3)
        runs.append(hilbert.payload()["d"][:8].tolist())
    assert runs[0] == runs[2] and runs[1] == runs[3]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scalar",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    section = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
