"""Hilbert-space workload: least squares by steepest descent, the assembled
jet path, and ``squared_distance`` programs with their ``fd_gradients``
check.  numpy matrix-vector products and the FunctionalJet algebra do the
work; the expression evaluator does almost none.

One request runs, in order: a strict and a widely-linear least-squares
solve (N=5000, n=16) from fresh starts, one ``eval_assembled`` at N=200,
and one ``squared_distance`` jet at n=16 checked by ``fd_gradients``.
"""

from __future__ import annotations

from wl_scalar import FAILED, OK, Workload, run_steps

N, DIM, N_ASSEMBLED = 5000, 16, 200
TOL = 1e-8


class Hilbert(Workload):
    name = "hilbert"
    RSS_REQUESTS = range(2)

    def __init__(self, wc, seed: int):
        import numpy as np
        self.wc, self.np, self.seed = wc, np, seed
        rng = np.random.default_rng([seed, 1])
        # orthonormal columns from complex Gaussian samples, scaled by a
        # fixed spread: X^H X is then the same diagonal for every seed, so
        # the conditioning, and with it the iteration count, does not
        # depend on the seed
        Q = np.linalg.qr(rng.standard_normal((N, DIM))
                         + 1j * rng.standard_normal((N, DIM)))[0]
        X = Q * np.linspace(1.0, 1.6, DIM)
        W = np.hstack([X, np.conj(X)])
        g_true = rng.standard_normal(2 * DIM) + 1j * rng.standard_normal(2 * DIM)
        d = W @ g_true + 0.01 * (rng.standard_normal(N)
                                 + 1j * rng.standard_normal(N))
        self.solves = []   # (mu, reference minimizer) for strict, widely linear
        for A in (X, W):
            lam = np.linalg.eigvalsh(np.conj(A).T @ A)[-1]
            ref = np.conj(np.linalg.lstsq(A, d, rcond=None)[0])
            self.solves.append((1.0 / lam, ref))
        self.payload_data = {"X": X, "d": d,
                             "mus": [mu for mu, _ in self.solves]}
        self.Wa, self.da = W[:N_ASSEMBLED], d[:N_ASSEMBLED]

    def payload(self):
        return self.payload_data

    @staticmethod
    def build(wc, payload):
        """The three least-squares programs and the two descent configs."""
        X, d = payload["X"], payload["d"]
        return ((wc.build_least_squares(X, d),
                 wc.build_least_squares(X, d, widely_linear=True),
                 wc.build_least_squares(X[:N_ASSEMBLED], d[:N_ASSEMBLED],
                                        widely_linear=True)),
                [wc.DescentConfig(mu=mu, tol=TOL, max_iter=5000)
                 for mu in payload["mus"]])

    def lsq_shapes(self) -> dict:
        """(samples, parameters) of each program, keyed by id."""
        s, w, a = self.state[0]
        return {id(s): (N, DIM), id(w): (N, 2 * DIM),
                id(a): (N_ASSEMBLED, 2 * DIM)}

    def request(self, i: int):
        np = self.np
        rng = np.random.default_rng([self.seed, 2, i])

        def vec(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return (vec(DIM), vec(2 * DIM), vec(2 * DIM), vec(DIM), vec(DIM)), None

    @staticmethod
    def execute(wc, state, args):
        (strict, wide, assembled), cfgs = state
        f0s, f0w, ca, w, c = args

        def functional(_):
            program = wc.squared_distance(w)
            return (program(c),
                    wc.fd_gradients(lambda v: program(v).value, c))
        return run_steps((
            lambda _: wc.steepest_descent_hilbert(strict, f0s, cfgs[0]),
            lambda r: (r, wc.steepest_descent_hilbert(wide, f0w, cfgs[1])),
            lambda r: (*r, assembled.eval_assembled(ca)),
            lambda r: (*r, functional(None)),
        ))

    def _close(self, got, ref, tol) -> bool:
        np = self.np
        got = np.asarray(got)
        return bool(np.all(np.isfinite(got))
                    and np.linalg.norm(got - ref) <= tol * (1 + np.linalg.norm(ref)))

    def check(self, req, out) -> str:
        np = self.np
        results, exc = out
        if exc is not None:
            return FAILED
        strict, wide, jet_a, (jet_f, (g1, g2)) = results[3]
        for tr, (_, ref) in zip((strict, wide), self.solves):
            if (tr.termination.value != "Converged"
                    or not self._close(tr.final, ref, 1e-6)):
                return FAILED
        _, _, ca, w, c = req[0]
        r = self.da - self.Wa @ np.conj(ca)
        if not (self._close([jet_a.value], [np.vdot(r, r).real], 1e-9)
                and self._close(jet_a.grad_f, -(np.conj(self.Wa).T @ r), 1e-9)
                and self._close(jet_a.grad_fc, -(self.Wa.T @ np.conj(r)), 1e-9)):
            return FAILED
        u = c - w
        value = float(np.vdot(u, u).real)
        if not (self._close([jet_f.value], [value], 1e-9)
                and self._close(jet_f.grad_f, np.conj(u), 1e-9)
                and self._close(jet_f.grad_fc, u, 1e-9)
                and self._close(g1, 2 * u.real, 1e-6)
                and self._close(g2, 2 * u.imag, 1e-6)):
            return FAILED
        return OK
