"""wirtcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json) as a closed loop with one caller for
S seconds of wall time, checks every result against a reference the
benchmark owns, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  wirtcalc is imported from ``src/`` of the checkout this file
sits in, and receives only the generated inputs.  Run records and spans go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

#: BLAS threads for this process and every child: the same on both commits
#: of a comparison.  With the default of 2 on a 2-CPU machine the first
#: least-squares solve stalled for 0.8 s in some fresh processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import wl_cli  # noqa: E402
import wl_hilbert  # noqa: E402
import wl_scalar  # noqa: E402
import calib  # noqa: E402
from tracer import Tracer  # noqa: E402
from wl_scalar import DEFECT, FAILED  # noqa: E402

WORKLOADS = ("scalar", "hilbert", "cli")
SETUP_SAMPLES = 7
WARMUP = 3
MIN_REQUESTS = 10
#: the cli workload's 90th percentile needs ten samples beyond it
CLI_MIN_REQUESTS = 100

#: traced spans (layers) that must record calls on each workload's traced
#: run: a refactor that bypasses a wrapper shows as an error, not as a
#: speed-up
REQUIRED = {
    "scalar": ("expr.parse", "expr.format", "expr.eval.o0", "expr.eval.o1",
               "expr.eval.o2", "forward.rules", "second.rules",
               "fdcheck.fd_wirtinger", "fdcheck.classify",
               "optimize.descent", "optimize.newton"),
    "hilbert": ("hilbert.jet_ops", "hilbert.fd_gradients", "hilbert.program",
                "hilbert.hvec", "optimize.descent", "optimize.lsq_program",
                "optimize.eval_assembled", "optimize.build_least_squares"),
    "cli": ("cli.main",),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_wirtcalc():
    src = ROOT / "src"
    if not (src / "wirtcalc" / "__init__.py").is_file():
        raise BenchError(f"no wirtcalc sources under {src}")
    sys.path.insert(0, str(src))
    import wirtcalc
    import wirtcalc.cli  # noqa: F401  (the cli workload calls it in-process)
    if Path(wirtcalc.__file__).resolve().parent != src / "wirtcalc":
        raise BenchError(f"imported wirtcalc from {wirtcalc.__file__}")
    return wirtcalc


def environment(args) -> dict:
    """What a comparison must hold fixed, and what identifies the code."""
    blas = "unknown"
    try:
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, numpy; print(json.dumps(numpy.__config__.CONFIG"
             "['Build Dependencies']['blas']))"],
            capture_output=True, text=True, timeout=60, check=True)
        info = json.loads(done.stdout)
        blas = f"{info.get('name')} {info.get('version')}"
    except (subprocess.SubprocessError, ValueError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "blas": blas,
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def make(name: str, wc, seed: int, tmp: Path):
    if name == "cli":
        return wl_cli.Cli(wc, seed, ROOT, tmp)
    if name == "hilbert":
        return wl_hilbert.Hilbert(wc, seed)
    return wl_scalar.Scalar(wc, seed)


def probe_children(wl, tmp: Path) -> list[dict]:
    """Set-up time (import plus program-side inputs; raw and scaled to the
    reference speed) and peak RSS in MB, from each of ``SETUP_SAMPLES``
    fresh processes that hold only the program, its inputs and a few of its
    requests (``probe.py``)."""
    probe.write(tmp, wl.payload(), wl.rss_requests())
    env = wl_cli.child_env(ROOT)
    outs = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"),
                               wl.name, str(tmp)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        outs.append(json.loads(done.stdout))
    return outs


class Measured:
    """What ``measure`` records, one entry per request unless noted."""

    def __init__(self):
        self.times = []                     # raw seconds
        self.calibration = []               # kernel seconds, one more
        self.outcomes = []                  # one per operation
        self.rss = []                       # CLI child peak RSS, MB
        self.phases = []                    # scalar: seconds per phase
        self.next = 0                       # index of the next request
        self.nominal = calib.PY_NOMINAL_S   # of the kernel used

    def scaled(self) -> list[float]:
        """Request times scaled to the nominal machine speed (``calib``)."""
        return calib.scale(self.times, self.calibration, self.nominal)


def measure(wl, seconds: float, first: int, tracer=None, min_requests=0):
    """Closed loop, one caller: generate a request, time the calibration
    kernel, run the request (timed), check it, until ``seconds`` of wall
    time pass; then time the kernel once more."""
    m = Measured()
    kernel = calib.py_kernel
    if wl.name == "hilbert":
        kernel, m.nominal = calib.array_kernel, calib.ARRAY_NOMINAL_S
    elif wl.name == "cli" and not wl.inprocess:
        env = wl_cli.child_env(ROOT)
        kernel = lambda: calib.spawn_kernel(env, ROOT)  # noqa: E731
        m.nominal = calib.SPAWN_NOMINAL_S
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(m.times) < min_requests:
        req = wl.request(i)
        m.calibration.append(kernel())
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        out = wl.run(req)
        t1 = time.perf_counter()
        m.times.append(t1 - t0)
        verdict = wl.check(req, out)
        if isinstance(verdict, list):
            m.outcomes += verdict
        else:
            m.outcomes.append(verdict)
        if wl.name == "cli" and out[2] is not None:
            m.rss.append(out[2] / 1024)
        if wl.name == "scalar":
            m.phases.append(out[1])
        i += 1
    m.calibration.append(kernel())
    m.next = i
    return m


def timing(times: list[float]) -> tuple[float, float, float]:
    """(requests per second, median ms, 90th-percentile ms)."""
    return (len(times) / sum(times), statistics.median(times) * 1e3,
            statistics.quantiles(times, n=10)[8] * 1e3)


def end_to_end(setup: list[float], scaled: list[float], rss) -> dict:
    """From the scaled set-up and request times.  ``rss``: peak RSS of
    every probe child, or for cli of every CLI child."""
    ops, p50, p90 = timing(scaled)
    return {"setup_s": statistics.median(setup), "ref_ops_per_s": ops,
            "ref_p50_ms": p50, "ref_p90_ms": p90, "peak_rss_mb": max(rss)}


def per_layer(tr: Tracer, name: str, plain: Measured, traced: Measured,
              cli_probe):
    """Per-layer metrics from the traced part of a run; the raw timings,
    the calibration kernel and the scalar phase times from its untraced
    part."""
    phases = plain.phases
    outcomes = plain.outcomes + traced.outcomes
    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for span in ("expr.parse", "expr.format"):
        m[f"{span}.calls"] = tr.total(span)
        m[f"{span}.self_s"] = tr.total(span, "self")
    m["expr.parse.us_per_node"] = per(m["expr.parse.self_s"],
                                      tr.count["nodes.parse"], 1e6)
    for o in (0, 1, 2):
        span = f"expr.eval.o{o}"
        m[f"{span}.calls"] = tr.total(span)
        m[f"{span}.self_s"] = tr.total(span, "self")
        m[f"{span}.ns_per_node"] = per(m[f"{span}.self_s"],
                                       tr.count[f"nodes.o{o}"], 1e9)
    for span in ("forward.rules", "second.rules"):
        m[f"{span}.calls"] = tr.total(span)
        m[f"{span}.self_s"] = tr.total(span, "self")
        m[f"{span}.ns_per_call"] = per(m[f"{span}.self_s"],
                                       m[f"{span}.calls"], 1e9)
    m["fdcheck.fd_wirtinger.calls"] = tr.total("fdcheck.fd_wirtinger")
    m["fdcheck.fd_wirtinger.self_s"] = tr.total("fdcheck.fd_wirtinger", "self")
    m["fdcheck.classify.self_s"] = tr.total("fdcheck.classify", "self")
    m["fdcheck.evals_per_classify"] = per(tr.count["evals_in_classify"],
                                          tr.total("fdcheck.classify"))
    m["hilbert.jet_ops.calls"] = tr.total("hilbert.jet_ops")
    m["hilbert.jet_ops.self_s"] = tr.total("hilbert.jet_ops", "self")
    m["hilbert.fd_gradients.self_s"] = tr.total("hilbert.fd_gradients", "self")
    m["hilbert.fd_gradients.program_calls"] = tr.children(
        ["hilbert.fd_gradients"], ["hilbert.program"])
    m["hilbert.hvec.calls"] = tr.total("hilbert.hvec")
    m["hilbert.hvec.self_s"] = tr.total("hilbert.hvec", "self")
    evals = tr.children(["optimize.descent"],
                        ["expr.eval.o0", "expr.eval.o1",
                         "optimize.lsq_program", "hilbert.program"])
    iters = tr.count["descent.iterations"]
    m["optimize.descent.iterations"] = iters
    m["optimize.descent.cost_evals"] = evals
    m["optimize.descent.backtracks"] = (
        evals - tr.count["descent.jets"] - tr.count["descent.accepted_trials"]
        if evals else 0)
    m["optimize.descent.self_s"] = tr.total("optimize.descent", "self")
    m["optimize.descent.accepted_per_eval"] = per(iters, evals)
    m["optimize.lsq_program.calls"] = tr.total("optimize.lsq_program")
    m["optimize.lsq_program.self_s"] = tr.total("optimize.lsq_program", "self")
    m["optimize.lsq_program.us_per_call"] = per(
        m["optimize.lsq_program.self_s"], m["optimize.lsq_program.calls"], 1e6)
    m["optimize.lsq_program.flops_computed"] = tr.count["lsq.flops"]
    m["optimize.lsq_program.bytes_computed"] = tr.count["lsq.bytes"]
    m["optimize.eval_assembled.self_s"] = tr.total("optimize.eval_assembled",
                                                   "self")
    m["optimize.newton.calls"] = tr.total("optimize.newton")
    m["optimize.newton.self_s"] = tr.total("optimize.newton", "self")
    m["optimize.build_least_squares.self_s"] = tr.total(
        "optimize.build_least_squares", "self")
    interp, imports, info = cli_probe
    m["cli.interp_ms"] = statistics.median(interp) * 1e3 if interp else 0.0
    m["cli.import_ms"] = statistics.median(imports) * 1e3 if imports else 0.0
    m["cli.numpy_loaded"] = int(info.get("numpy", 0))
    m["cli.modules_loaded"] = info.get("modules", 0)
    m["cli.main_ms"] = (statistics.median(plain.times) * 1e3
                        if name == "cli" else 0.0)
    ops = (wl_scalar.Scalar.SWEEP, wl_scalar.Scalar.ONESHOT, 1)
    for k, (phase, unit) in enumerate((("sweep", "us"), ("oneshot", "us"),
                                       ("descent", "ms"))):
        m[f"scalar.{phase}.{unit}_per_op"] = per(
            sum(p[k] for p in phases), len(phases) * ops[k],
            1e6 if unit == "us" else 1e3)
    (m["raw.ops_per_s"], m["raw.op_p50_ms"],
     m["raw.op_p90_ms"]) = timing(plain.times)
    m["calib.kernel_ms"] = statistics.median(plain.calibration) * 1e3
    m["trace_overhead"] = (statistics.mean(traced.times)
                           / statistics.mean(plain.times) - 1)
    m["failed_share"] = outcomes.count(FAILED) / len(outcomes)
    m["known_defect_share"] = outcomes.count(DEFECT) / len(outcomes)
    return m


def bench(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wc = load_wirtcalc()
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        wl = make(args.workload, wc, args.seed, tmp)
        if args.trace and wl.name == "cli":
            wl.inprocess = True
        probes = [] if args.trace else probe_children(wl, tmp)
        wl.setup()
        first = measure(wl, 0, 0, min_requests=WARMUP).next
        min_requests = CLI_MIN_REQUESTS if wl.name == "cli" else MIN_REQUESTS
        if not args.trace:
            run = measure(wl, args.seconds, first, min_requests=min_requests)
            outcomes = run.outcomes
            metrics = end_to_end(
                [p["setup_s"] for p in probes], run.scaled(),
                run.rss or [p["peak_rss_mb"] for p in probes])
            record = {"request_s": run.times,
                      "calibration_s": run.calibration}
            section = "end_to_end"
        else:
            plain = measure(wl, args.seconds / 3, first,
                            min_requests=MIN_REQUESTS)
            tr = Tracer(wc)
            tr.install()
            try:
                wl.setup()            # record the set-up layers too
                if wl.name == "hilbert":
                    tr.shapes = wl.lsq_shapes()
                traced = measure(wl, 2 * args.seconds / 3, plain.next,
                                 tracer=tr, min_requests=MIN_REQUESTS)
            finally:
                tr.uninstall()
            outcomes = plain.outcomes + traced.outcomes
            record = {"request_s": plain.times + traced.times}
            probe_out = (wl_cli.interp_and_import(ROOT, 10)
                         if wl.name == "cli" else ([], [], {}))
            metrics = per_layer(tr, wl.name, plain, traced, probe_out)
            tr.write(OUT / f"spans-{args.workload}-seed{args.seed}")
            zero = [k for k in REQUIRED[wl.name] if not tr.total(k)]
            if zero:
                raise BenchError(f"traced layers recorded nothing on "
                                 f"{wl.name}: {', '.join(zero)}")
            section = "per_layer"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    failed = outcomes.count(FAILED)
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record.update(env=env, known_defects=outcomes.count(DEFECT),
                  probes=probes, result=result)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    print(f"# {args.workload}: requests={len(record['request_s'])} "
          f"attempted={len(outcomes)} failed={failed} "
          f"failed_share={failed / len(outcomes):.4g} "
          f"known_defects={outcomes.count(DEFECT)} "
          f"known_defect_share={outcomes.count(DEFECT) / len(outcomes):.4g}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = bench(args)
    except (BenchError, ImportError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
