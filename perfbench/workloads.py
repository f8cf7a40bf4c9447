"""The three imaginary-time workloads and how a seed turns into their inputs.

Every workload starts from the same base parameters (``random_init`` with
seed 2 at scale 0.1, the c07 acceptance settings) plus a seed-drawn jitter
of scale 1e-3, also from ``random_init``.  The jitter makes each seed a
distinct input while keeping the trajectory, and so the number of steps to
the tolerance, nearly fixed: with fully independent inits the exact-tqd6
steps to 1e-2 ranged from 1117 to 4035 over init seeds 0-11, so
``time_to_tol_s`` would have measured the draw rather than the program.
The seed also fixes every sampling stream through ``IteConfig.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ucrbm import (
    IteConfig,
    PauliHamiltonian,
    RbmParams,
    TqdParams,
    build_tfi,
    build_tqd,
    random_init,
)
from ucrbm.hamiltonians import connected_structure

DTAU = 0.01
REGULARIZATION = 1e-4
INIT_STDDEV = 0.1
BASE_INIT_SEED = 2
JITTER_STDDEV = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], PauliHamiltonian]
    n_hidden: int
    unitary_coupled: bool
    mode: str
    n_samples: int  # K; unused in exact mode
    tol: float  # relative error to exact_ground that ends a repetition
    chunk_steps: int  # ITE steps per ite_run call
    max_steps: int  # a repetition that has not reached tol by now fails

    @property
    def sampled(self) -> bool:
        return self.mode != "exact"


WORKLOADS = {
    w.name: w
    for w in (
        # Small exact steps: fixed per-step cost (solve, eigvalsh, loop) matters.
        Workload(
            "exact-tqd6",
            lambda: build_tqd(TqdParams(b_field=0.5)),
            n_hidden=6,
            unitary_coupled=False,
            mode="exact",
            n_samples=4096,
            tol=1e-2,
            chunk_steps=100,
            max_steps=6000,
        ),
        # Local-energy kernel on K sampled rows dominates.
        Workload(
            "vmc-tfi10",
            lambda: build_tfi(10, 0.5),
            n_hidden=10,
            unitary_coupled=True,
            mode="vmc",
            n_samples=4096,
            tol=0.3,
            chunk_steps=1,
            max_steps=200,
        ),
        # The dense protocol sampler dominates.
        Workload(
            "ensemble-tfi8",
            lambda: build_tfi(8, 0.5),
            n_hidden=8,
            unitary_coupled=True,
            mode="ensemble",
            n_samples=4096,
            tol=0.3,
            chunk_steps=1,
            max_steps=200,
        ),
    )
}


def prepare(workload: Workload, seed: int) -> tuple[PauliHamiltonian, RbmParams]:
    """Build the Hamiltonian, its connected structure and the initial
    parameters: everything that must exist before the first ITE step."""
    h = workload.build()
    connected_structure(h)
    n, m, uc = h.n_qubits, workload.n_hidden, workload.unitary_coupled
    base = random_init(n, m, INIT_STDDEV, BASE_INIT_SEED, uc)
    jitter = random_init(n, m, JITTER_STDDEV, seed, uc)
    params0 = RbmParams(base.b + jitter.b, base.m + jitter.m, base.w + jitter.w, uc)
    return h, params0


def ite_config(workload: Workload, seed: int, rep: int, chunk: int) -> IteConfig:
    """Config of one ite_run call; each (seed, repetition, chunk) gets its own
    sampling stream because ite_run numbers its steps from 0 on every call."""
    stream = int(np.random.SeedSequence([seed, rep, chunk]).generate_state(1)[0])
    return IteConfig(
        dtau=DTAU,
        n_steps=workload.chunk_steps,
        regularization=REGULARIZATION,
        mode=workload.mode,
        n_samples=workload.n_samples,
        seed=stream,
        convergence_threshold=0.0,
        n_threads=1,
    )
