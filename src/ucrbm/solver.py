"""Imaginary-time ground-state solver (stochastic reconfiguration).

Each step builds the SR system in the configured estimation mode, solves
the regularized linear system (A + lambda*I) delta = C for the direction
(``sr_update``), and advances the flattened parameter vector along delta
by a step length decided here, in ``ite_run``.  The sampled modes take
fixed Euler steps dtau * delta: their energies are noisy.  Exact mode takes
energy-accepted steps: the trial point theta + dt * delta is accepted when
its exact energy does not rise, and dt then grows to min(GROWTH * dt, 1);
otherwise dt is halved and the same delta tried again, at most MAX_TRIALS
times per step.  The SR fixed point (C = 0) does not depend on the step
size, so this changes the path, not the answer: on TQD(6) at B = 0.5 T
the relative error 1e-2 takes about 200 steps, against about 3250 Euler
steps at dtau = 0.01.  A trial is
one dense pass (``exact_point``), and the accepted one is handed to the
next step's ``compute_a_c_exact``, so its energy is bitwise the next
trace energy and exact-mode trace energies never rise.

For unrestricted parameters the real P x P matrix A is the real form of
the complex Hermitian covariance S of the D = P/2 distinct derivative
columns, so the step solves the half-size complex system
(S + lambda) u = C_SIGN F (the holomorphic SR of Carleo & Troyer, Science
355, 602 (2017); Becca & Sorella, *Quantum Monte Carlo Approaches for
Correlated Systems* (2017)); u is the complex direction [b, m, w
column-major], and delta is its slot vector (``SrSystem.to_slots``); every
eigenvalue of A is one of S, taken twice, so the spectrum that decides the
solve and enters the trace comes from S.  Unitary-coupled parameters lack
the Re w slots, A is no real form, and they keep the real solve.  The
two-stage initialization first optimizes a bias-only product ansatz, then
re-seeds the hidden structure at the random-init scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateWeightError, NumericalIntegrityError
from .estimators import (
    C_SIGN,
    MODES,
    SrSystem,
    compute_a_c_exact,
    compute_a_c_sampled,
    exact_point,
    expectation_exact,
)
from .hamiltonians import PauliHamiltonian
from .rbm import RbmParams, VariationalIndex, random_init

FD_STEP = 1e-5  # central-difference step of grad_check
GROWTH = 1.1  # exact mode: factor on an accepted step for the next step
# Exact mode: trial points per step, each at half the previous step.  A
# direction along which no trial lowers the energy (rounding at a minimum)
# leaves the parameters where they are instead of halving towards dt = 0.
MAX_TRIALS = 30


@dataclass(frozen=True)
class IteConfig:
    """ITE settings.  ``dtau`` is the Euler step of the sampled modes and
    the initial step of exact mode's energy-accepted steps."""

    dtau: float = 0.01
    n_steps: int = 1000
    regularization: float = 1e-3
    mode: str = "exact"
    n_samples: int = 4096
    seed: int = 0
    mean_field_steps: int = 400
    convergence_window: int = 50
    convergence_threshold: float = 1e-8  # 0 disables early stopping
    # Sampling is serial and reads no thread count.  The field stays only
    # because the benchmark harness passes n_threads=1; it goes when the
    # harness stops passing it.
    n_threads: int = 1

    def __post_init__(self):
        # "not" also refuses NaN, which compares False like a value out of
        # range.
        if not 0 < self.dtau < np.inf:
            raise ValueError("dtau must be finite and positive")
        if not 0 <= self.regularization < np.inf:
            raise ValueError("regularization must be finite and non-negative")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.mean_field_steps < 1:
            raise ValueError("mean_field_steps must be at least 1")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be at least 1")
        # "not >= 0" also refuses NaN, which compares False like a negative
        # value and would silently turn early stopping off as well.
        if not self.convergence_threshold >= 0:
            raise ValueError("convergence_threshold must be non-negative (0 disables it)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_threads != 1:
            raise ValueError("sampling is serial: n_threads must be 1")


@dataclass(frozen=True)
class IteTrace:
    """Per-step record of an ITE run.

    ``taus`` is the sum of the steps taken before each row: k * dtau in the
    sampled modes, the accepted steps in exact mode.  ``trials`` counts the
    dense trial passes exact mode made to leave each row's parameters (0 in
    the sampled modes); every trial but an accepted one was rejected.
    ``min_eig_a`` and ``max_eig_a`` are the extreme eigenvalues of A at each
    step.  A is positive semi-definite by construction, but eigenvalues are
    only resolved to about P * eps * max_eig_a (P slots, eps the float64
    machine epsilon): a ``min_eig_a`` within that floor of 0, of either
    sign, cannot tell a rank-deficient A from an indefinite one.
    """

    steps: np.ndarray
    taus: np.ndarray
    energies: np.ndarray
    std_errors: np.ndarray
    thetas: np.ndarray  # (n_steps, n_var) snapshot at which each energy was measured
    min_eig_a: np.ndarray
    max_eig_a: np.ndarray
    residuals: np.ndarray
    trials: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.steps.shape[0]

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_deviation: float
    inferred_sign: float
    c: np.ndarray
    fd_gradient: np.ndarray


def sr_update(
    system: SrSystem, lam: float, evals: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """The SR direction solve(A + lam*I, C), or an eigenvalue-truncated
    pseudo-inverse (relative cutoff 1e-10) when the shifted matrix is not
    positive definite; the step length is the caller's (``ite_run``).

    The solve runs on ``system.matrix`` and ``system.rhs``: A and C, or for
    unrestricted parameters the half-size complex system (S + lam) u =
    C_SIGN F, whose solution is the complex direction [b, m, w
    column-major], mapped to delta by ``system.to_slots`` as ``flatten``
    maps parameters.  Every eigenvalue of A is one of S, taken twice, so
    both forms give the same spectrum, truncation and residual norm.
    ``evals`` are the ascending eigenvalues of ``system.matrix``
    (``eigvalsh``), computed here when not given; the shifted matrix counts
    as positive definite when ``evals[0] + lam > 0``.  The shift is added in
    place to the diagonal of a copy, so ``system.matrix`` is left as it
    was.  The system was checked finite and Hermitian when it was built.
    Returns (delta, solve residual).
    """
    mat, rhs = system.matrix, system.rhs
    if evals is None:
        evals = np.linalg.eigvalsh(mat)
    shifted = mat.copy()
    diagonal = shifted.reshape(-1)[:: mat.shape[0] + 1]
    diagonal += lam
    if evals[0] + lam > 0.0:
        u = np.linalg.solve(shifted, rhs)
    else:
        evals, evecs = np.linalg.eigh(shifted)
        cutoff = 1e-10 * max(float(np.abs(evals).max()), np.finfo(float).tiny)
        inv = np.where(evals > cutoff, 1.0 / np.where(evals > cutoff, evals, 1.0), 0.0)
        u = evecs @ (inv * (evecs.T.conj() @ rhs))
    residual = float(np.linalg.norm(shifted @ u - rhs))
    return system.to_slots(u), residual


def _build_system(params, h, cfg: IteConfig, step: int, point) -> SrSystem:
    try:
        if cfg.mode == "exact":
            return compute_a_c_exact(params, h, point)
        return compute_a_c_sampled(
            params,
            h,
            cfg.n_samples,
            np.random.default_rng([cfg.seed, step]),
            mode=cfg.mode,
        )
    except (DegenerateWeightError, NumericalIntegrityError) as exc:
        raise type(exc)(f"step {step}: {exc}") from exc


def _energy_accepted(index, h, theta, delta, dt, energy):
    """The first of theta + t * delta, t = dt, dt/2, ... (MAX_TRIALS at
    most) whose exact energy does not exceed ``energy``.  Returns t, that
    parameter vector, its ``ExactPoint`` and the number of trials; t is 0,
    the vector theta and the point None when no trial qualifies."""
    t = dt
    for trials in range(1, MAX_TRIALS + 1):
        trial = theta + t * delta
        point = exact_point(index.unflatten(trial), h)
        if point.energy.real <= energy:
            return t, trial, point, trials
        t *= 0.5
    return 0.0, theta, None, MAX_TRIALS


def ite_run(
    params0: RbmParams, h: PauliHamiltonian, cfg: IteConfig
) -> tuple[RbmParams, IteTrace]:
    """Run the imaginary-time loop; returns the final parameters and the
    per-step trace.  Stops early when the energy spread over the trailing
    convergence window falls below the threshold.  The estimators refuse
    parameters whose visible count is not the qubit count of ``h`` when the
    first step's system is built."""
    index = VariationalIndex.for_params(params0)
    theta = index.flatten(params0)
    params = params0
    exact = cfg.mode == "exact"
    tau, dt, point = 0.0, cfg.dtau, None

    rows = []  # one tuple per step, in IteTrace field order
    for step in range(cfg.n_steps):
        system = _build_system(params, h, cfg, step, point)
        evals = np.linalg.eigvalsh(system.matrix)
        delta, residual = sr_update(system, cfg.regularization, evals)
        energy = system.energy.mean

        if exact:
            t, next_theta, point, trials = _energy_accepted(index, h, theta, delta, dt, energy)
            if point is not None:
                params = point.params
                dt = min(GROWTH * t, 1.0)
        else:
            t, next_theta, trials = cfg.dtau, theta + cfg.dtau * delta, 0
            params = index.unflatten(next_theta)
        rows.append((
            step, tau, energy, system.energy.std_error, theta, float(evals[0]),
            float(evals[-1]), residual, trials,
        ))
        theta, tau = next_theta, tau + t

        window = cfg.convergence_window
        if cfg.convergence_threshold > 0 and len(rows) >= window:
            tail = [row[2] for row in rows[-window:]]
            if max(tail) - min(tail) < cfg.convergence_threshold:
                break

    steps, *columns, trials = zip(*rows)
    return params, IteTrace(
        np.array(steps, dtype=np.int64),
        *(np.array(column) for column in columns),
        np.array(trials, dtype=np.int64),
    )


def mean_field_stage(
    h: PauliHamiltonian,
    cfg: IteConfig,
    n_hidden: int | None = None,
    init_stddev: float = 0.1,
    unitary_coupled: bool = True,
) -> RbmParams:
    """Stage-one initialization: optimize a product state (biases only, no
    hidden units), then return parameters with the optimized biases, zero
    hidden biases, and freshly seeded couplings for the full stage-two run.

    The bias flow starts from the unbiased product state, so models without
    on-site fields keep their spin-flip symmetry instead of polarizing; a
    symmetry-broken product start would strand the stage-two run in a
    variational basin whose energy sits above the convergence band.
    """
    n = h.n_qubits
    m = n if n_hidden is None else n_hidden
    # Drawn first, so a bad init_stddev is refused before the stage runs.
    fresh = random_init(n, m, init_stddev, [cfg.seed, 0x5EED], unitary_coupled)
    stage_cfg = replace(cfg, n_steps=cfg.mean_field_steps, mode="exact")
    start = RbmParams(
        b=np.zeros(n, dtype=np.complex128),
        m=np.zeros(0, dtype=np.complex128),
        w=np.zeros((n, 0), dtype=np.complex128),
        unitary_coupled=True,
    )
    product_params, _ = ite_run(start, h, stage_cfg)
    return RbmParams(
        b=product_params.b,
        m=np.zeros(m, dtype=np.complex128),
        w=fresh.w,
        unitary_coupled=unitary_coupled,
    )


def grad_check(params: RbmParams, h: PauliHamiltonian) -> GradCheckReport:
    """Compare C with -1/2 the central-difference energy gradient (step FD_STEP)
    and report the sign that turns the raw covariance into a descent update."""
    index = VariationalIndex.for_params(params)
    theta0 = index.flatten(params)
    system = compute_a_c_exact(params, h)

    grad = np.empty(index.size)
    for slot in range(index.size):
        bump = np.zeros(index.size)
        bump[slot] = FD_STEP
        e_plus = expectation_exact(index.unflatten(theta0 + bump), h).mean
        e_minus = expectation_exact(index.unflatten(theta0 - bump), h).mean
        grad[slot] = (e_plus - e_minus) / (2.0 * FD_STEP)

    deviation = float(np.max(np.abs(system.c - (-0.5) * grad)))
    raw_c = system.c / C_SIGN
    dot = float(raw_c @ grad)
    inferred = -1.0 if dot > 0 else (1.0 if dot < 0 else 0.0)
    return GradCheckReport(
        max_abs_deviation=deviation,
        inferred_sign=inferred,
        c=system.c,
        fd_gradient=grad,
    )


TRACE_HEADER = ("step", "tau", "energy", "std_error", "min_eig_A", "residual")


def export_trace_csv(trace: IteTrace, path) -> None:
    """CSV trace with floats at 17 significant digits (byte-stable reruns)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for k in range(trace.n_steps):
            writer.writerow(
                [
                    int(trace.steps[k]),
                    format(trace.taus[k], ".17g"),
                    format(trace.energies[k], ".17g"),
                    format(trace.std_errors[k], ".17g"),
                    format(trace.min_eig_a[k], ".17g"),
                    format(trace.residuals[k], ".17g"),
                ]
            )


def export_theta_snapshots(trace: IteTrace, path) -> None:
    """Sidecar parameter file: one flattened parameter vector per line."""
    with open(path, "w") as fh:
        for row in trace.thetas:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
