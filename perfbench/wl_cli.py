"""CLI workload: one fresh ``python -m wirtcalc.cli`` process per request.

The mix cycles through the six commands with equal weight: diff, hessian,
check, classify, ``minimize EXPR`` and ``minimize --data``.  Equal weight is
an assumption; there is no observed CLI traffic to take shares from.  The
first four need no numpy, the two ``minimize`` commands do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import exprgen as g
from wl_scalar import FAILED, OK, descent_cost

MIX = ("diff", "hessian", "check", "classify", "minimize", "data")
DATASETS = 4
#: the CLI's own defaults for ``check``
CHECK_STEP, CHECK_TOL = 1e-5, 1e-6


def child_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _pair(p) -> complex:
    return complex(p[0], p[1])


def _fmt(x: float) -> str:
    return repr(float(x))


class Cli:
    name = "cli"

    def __init__(self, wc, seed: int, root, tmpdir):
        import numpy as np
        self.wc, self.root = wc, root
        self.env = child_env(root)
        self.rng = g.rng_for(seed, "cli")
        self.inprocess = False
        nrng = np.random.default_rng([seed, 3])
        self.datasets = []   # (path, widely linear, mu, reference minimizer)
        for k in range(DATASETS):
            n, wide = 3, bool(k % 2)
            X = ((nrng.standard_normal((40, n)) + 1j * nrng.standard_normal((40, n)))
                 / 9.0)
            A = np.hstack([X, np.conj(X)]) if wide else X
            d = A @ (nrng.standard_normal(A.shape[1])
                     + 1j * nrng.standard_normal(A.shape[1]))
            d += 0.01 * (nrng.standard_normal(40) + 1j * nrng.standard_normal(40))
            path = tmpdir / f"lsq{k}.json"
            path.write_text(json.dumps({
                "X": [[[v.real, v.imag] for v in row] for row in X],
                "d": [[v.real, v.imag] for v in d]}))
            mu = 1.0 / np.linalg.eigvalsh(np.conj(A).T @ A)[-1]
            ref = np.conj(np.linalg.lstsq(A, d, rcond=None)[0])
            self.datasets.append((str(path), wide, mu, [complex(v) for v in ref]))

    def payload(self):
        return {}

    def setup(self):
        pass

    def rss_requests(self):
        return []     # peak RSS is taken from the CLI children themselves

    def _tree_request(self, cmd: str):
        rng = self.rng
        order = 2 if cmd == "hessian" else 1
        while True:
            t = g.tame_tree(rng, rng.randint(5, 25),
                            g.FUNCS2 if order == 2 else g.FUNCS)
            f = g.closure(t)
            for c, ref in g.good_points(rng, t, f, order, 8):
                verdict = g.verdict(f, c, ref)
                if verdict is None:
                    continue
                fd = g._d1(f, c, CHECK_STEP)     # the CLI's own estimate
                res = max(abs(r - w) / (1 + abs(r))
                          for r, w in zip(ref[1:3], fd))
                if CHECK_TOL / 3 < res < 3 * CHECK_TOL:
                    continue        # too close to the check tolerance to call
                argv = [cmd, g.cli_text(t), f"--at={g.complex_text(c)}"]
                return argv, (cmd, ref, verdict, res < CHECK_TOL)

    def request(self, i: int):
        cmd = MIX[i % len(MIX)]
        if cmd == "minimize":
            t, a, hi = descent_cost(self.rng, i % 2)
            z0 = a + complex(self.rng.uniform(-0.6, 0.6),
                             self.rng.uniform(-0.6, 0.6))
            argv = ["minimize", g.cli_text(t), f"--from={g.complex_text(z0)}",
                    f"--mu={_fmt(0.9 / hi)}", "--tol=1e-8", "--max-iter=5000"]
            return argv, (cmd, [a])
        if cmd == "data":
            path, wide, mu, ref = self.datasets[(i // len(MIX)) % DATASETS]
            argv = ["minimize", "--data", path, f"--mu={_fmt(mu)}",
                    "--tol=1e-8", "--max-iter=20000"]
            return argv + (["--widely-linear"] if wide else []), (cmd, ref)
        return self._tree_request(cmd)

    def run(self, req):
        """(exit code, stdout, peak RSS in KiB or None)."""
        argv = req[0]
        if self.inprocess:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.wc.cli.main(argv)
            return code, buf.getvalue(), None
        p = subprocess.Popen([sys.executable, "-m", "wirtcalc.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             cwd=self.root, env=self.env)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, out.decode(), usage.ru_maxrss

    def check(self, req, out) -> str:
        code, stdout, _ = out
        expect = req[1]
        cmd = expect[0]
        try:
            rep = json.loads(stdout)
        except ValueError:
            return FAILED
        if cmd in ("minimize", "data"):
            final = rep["final"]
            final = [_pair(final)] if cmd == "minimize" else [_pair(p) for p in final]
            ok = (code == 0 and rep["termination"] == "Converged"
                  and all(abs(x - r) <= 1e-6 for x, r in zip(final, expect[1])))
            return OK if ok else FAILED
        _, ref, verdict, check_ok = expect
        if cmd == "classify":
            return OK if code == 0 and rep["classification"] == verdict else FAILED
        got = [_pair(rep["dz"]), _pair(rep["dzc"])]
        if cmd == "check":
            if rep["ok"] != check_ok or code != (0 if check_ok else 1):
                return FAILED
            if rep["classification"] != verdict:
                return FAILED
            return OK if g.jet_matches([ref[0], *got], ref, 1) else FAILED
        got.insert(0, _pair(rep["value"]))
        order = 1
        if cmd == "hessian":
            h = rep["hessian"]
            got += [_pair(h[k]) for k in ("dzz", "dzzc", "dzcz", "dzczc")]
            order = 2
        return OK if code == 0 and g.jet_matches(got, ref, order) else FAILED


def interp_and_import(root, samples: int):
    """Wall time of a bare interpreter, and in-child time of importing
    wirtcalc.cli in a fresh process, each ``samples`` times; also the
    module counts after that import."""
    env = child_env(root)
    interp, imports, info = [], [], {}
    code = ("import sys, time, json; t = time.perf_counter(); "
            "import wirtcalc.cli; t = time.perf_counter() - t; "
            "print(json.dumps({'import_s': t, 'numpy': 'numpy' in sys.modules, "
            "'modules': len(sys.modules)}))")
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                       cwd=root)
        interp.append(time.perf_counter() - t)
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              env=env, cwd=root, capture_output=True, text=True)
        info = json.loads(done.stdout)
        imports.append(info["import_s"])
    return interp, imports, info
