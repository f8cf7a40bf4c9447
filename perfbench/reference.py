"""Reference kernel that the end-to-end times are calibrated against.

The host's speed drifts by up to half over tens of seconds (other tenants
share its cores and memory), and every numpy kernel slows with it.  A run
therefore times this fixed kernel right after each ``ite_run`` call, and
around each set-up probe, and scales the measured wall time by
``REF_SECONDS / reference time``: the result is the time the work would
have taken at the host's reference speed.  A change to the program moves
the measured time but not the reference, so it shows in full; a change of
host speed moves both and cancels.

The kernel mixes the kinds of work the workloads do, at fixed sizes and
from fixed data: a streaming pass over a complex (1024, 256) array as in the
protocol sampler, a complex log-cosh over (8192, 10) rows as in the local
energy, a loop of small-array numpy calls as in the ITE bookkeeping, and a
small symmetric eigen- and linear solve as in the SR update.  Its buffers
are allocated once, so it adds a constant (about 16 MB) to the peak RSS
and no large transient.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal duration of one call, about its median on an unloaded Intel Xeon
# 2.1 GHz vCPU with one BLAS thread; it only sets the scale of the results.
REF_SECONDS = 0.025
PASSES = 2  # passes per call, so that one call lasts about as long as above
_LOG_HALF = float(np.log(0.5))


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20191206)
        self.state = 0.06 * (
            rng.standard_normal((1024, 256)) + 1j * rng.standard_normal((1024, 256))
        )
        self.cos = np.cos(rng.standard_normal(256))
        self.sin = np.sin(rng.standard_normal(256))
        self.plus = np.empty_like(self.state)
        self.minus = np.empty_like(self.state)
        self.spins = rng.choice([-1.0, 1.0], size=(8192, 10))
        self.weights = 0.1 * (
            rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        )
        self.theta = np.empty((8192, 10), dtype=np.complex128)
        self.work = np.empty_like(self.theta)
        a = rng.standard_normal((96, 96))
        self.matrix = a @ a.T + np.eye(96)
        self.vector = rng.standard_normal(96)
        # an untimed call touches the buffers and loads the code paths
        self.checksum = sum(self._run() for _ in range(PASSES))
        self.times: list[float] = []

    def _run(self) -> float:
        np.multiply(self.state, self.cos, out=self.plus)
        np.multiply(self.state, 1j * self.sin, out=self.minus)
        p_plus = np.einsum("kd,kd->k", self.plus.real, self.plus.real)
        p_plus += np.einsum("kd,kd->k", self.plus.imag, self.plus.imag)
        np.copyto(self.minus, self.plus, where=(p_plus > 0.03)[:, None])

        np.matmul(self.spins, self.weights, out=self.theta)
        sign = np.where(self.theta.real >= 0.0, 1.0, -1.0)
        np.multiply(self.theta, sign, out=self.theta)
        np.multiply(self.theta, -2.0, out=self.work)
        np.exp(self.work, out=self.work)
        np.log1p(self.work, out=self.work)
        np.add(self.work, self.theta, out=self.work)
        log_cosh = self.work.sum(axis=1) + 10 * _LOG_HALF

        x = self.vector
        for _ in range(300):
            x = np.tanh(0.5 * x) + self.vector
        eig = np.linalg.eigvalsh(self.matrix)
        sol = np.linalg.solve(self.matrix, x)
        return float(
            abs(self.minus[0, 0]) + log_cosh.real.sum() + eig.sum() + sol.sum()
        )

    def seconds(self) -> float:
        """Wall time of one call; its result must never change."""
        start = time.perf_counter()
        value = sum(self._run() for _ in range(PASSES))
        elapsed = time.perf_counter() - start
        if value != self.checksum:
            raise RuntimeError("reference kernel result changed")
        self.times.append(elapsed)
        return elapsed
