"""Exact and Monte Carlo estimators for observables and the stochastic
reconfiguration system.

Three estimation modes:

* ``exact``    - complete enumeration weighted by |<z|Psi>|^2;
* ``vmc``      - i.i.d. computational-basis samples drawn from the exact
  statevector (a desk-scale stand-in for projective measurements);
* ``ensemble`` - protocol runs accepted for every hidden outcome and
  reweighted by prod_j R^2_{s_j}; estimators are self-normalized ratios.

The sampled modes share one accumulation path: all A entries, the C vector
and the energy come from one sample stream, one state preparation per sample,
drawn serially from the caller's generator, so a seed fixes the result.

Exact mode makes one dense pass over the 2^N configurations
(``exact_point``, which the solver also uses to try step sizes): one
hidden-angle pass theta = m + zW gives the amplitudes psi (log cosh theta)
and the derivative columns (tanh theta), and H psi comes from the
``apply_h`` gather.  e = conj(psi) H psi is p E_loc with no division, so no
row of vanishing amplitude can enter as 0 * inf and none is dropped.

The sampled modes go through ``_evaluate``, which works once per distinct
configuration with positive weight: rows are keyed by their packed bits and
their weights summed, rows of weight 0 are dropped, and one hidden-angle
pass per row feeds both the flipped-site local-energy kernel and the
derivative columns.  Means, standard errors and preparation counts stay per
sample, with local energies gathered back through the map from samples to
rows.

Each real slot's log-derivative is one of the N + M + N*M distinct complex
columns x = (z_i, tanh theta_j, z_i tanh theta_j) or i times one.  A and C
are therefore derived from the complex covariance of x with itself and with
the local energy, not from the (K, P) slot matrix, so the structural
identities of A (the exact zero of each column's Re/Im pair, the equal
Re/Re and Im/Im blocks, the opposite cross blocks) hold bitwise.  For
unrestricted parameters every column has both a Re and an Im slot, A is the
real form of the D x D covariance S, and the system is handed to the solver
in that half-size complex form; A and C are built only when read (see
``SrSystem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuit import measure_visible, sample_protocol_batch
from .errors import DegenerateWeightError, NumericalIntegrityError
from .hamiltonians import PauliHamiltonian, apply_h, connected_states, connected_structure
from .rbm import (
    RbmParams,
    VariationalIndex,
    exact_statevector,
    hidden_angles,
    log_amplitude,
    log_derivative_columns,
    statevector_from_angles,
)
from .spins import all_spin_configs, as_spins, spins_to_string, string_to_spins
from .statevector import STATEVECTOR_CAP, StateVector, check_cap

# Sign relating the raw covariance Re(<O_m^dag H> - <O_m^dag><H>) to the
# update direction: fixed once by the finite-difference gradient validation
# (C equals -1/2 of the energy gradient), asserted in the test suite.
C_SIGN = -1.0

MODES = ("exact", "vmc", "ensemble")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != "exact" and self.n_samples < 1:
            raise ValueError("sampled estimates need at least one sample")


class SrSystem:
    """Stochastic-reconfiguration system: A delta-theta = C at one point.

    The solver works on ``matrix`` and ``rhs``.  For a system built from A
    and C these are A and C, and ``slots`` is None.  For unrestricted
    parameters the estimators build the half-size form instead: every
    distinct derivative column x has both a Re and an Im slot, so A is the
    real form of the complex D x D covariance S of x, permuted to slot
    order.  ``matrix`` is then S, ``rhs`` is C_SIGN F, and ``slots`` maps
    each slot into [Re u, Im u] for the solution u of the complex system
    (``to_slots``).  A and C are built from them on first access.
    """

    def __init__(self, a, c, energy: Estimate, n_preparations: int = 0):
        if a.shape != (c.shape[0], c.shape[0]):
            raise ValueError("A/C dimensions are inconsistent")
        # A is finite and symmetric exactly when S is finite and Hermitian.
        if not np.all(np.isfinite(a)):
            raise NumericalIntegrityError("A has non-finite entries")
        asym = float(np.max(np.abs(a - a.T.conj()), initial=0.0))
        if asym > 1e-10:
            raise NumericalIntegrityError(f"A is asymmetric by {asym:.3e}")
        self.matrix, self.rhs, self.slots, self._layout = a, c, None, None
        self._a, self._c = a, c
        self.energy, self.n_preparations = energy, n_preparations

    @classmethod
    def _half_size(cls, s, g, layout, energy, n_preparations) -> "SrSystem":
        system = cls(s, g, energy, n_preparations)
        system.slots, system._layout = layout.slots, layout
        system._a = system._c = None
        return system

    @property
    def a(self) -> np.ndarray:
        if self._a is None:
            self._a, self._c = _real_form(self.matrix, self.rhs, self._layout)
        return self._a

    @property
    def c(self) -> np.ndarray:
        if self._c is None:
            self._a, self._c = _real_form(self.matrix, self.rhs, self._layout)
        return self._c

    def to_slots(self, u: np.ndarray) -> np.ndarray:
        """The real slot vector of a solution u of the solver's system."""
        if self.slots is None:
            return u
        return np.concatenate([u.real, u.imag])[self.slots]


def local_observable(params: RbmParams, z, h: PauliHamiltonian) -> complex:
    """sum over connected z' of H(z, z') psi(z')/psi(z), via log-amplitude
    differences over the <= n_terms connected configurations."""
    z = as_spins(z)
    base = log_amplitude(params, z)
    total = 0.0 + 0.0j
    for z_prime, element in connected_states(h, z):
        if element == 0.0:
            continue
        total += element * np.exp(log_amplitude(params, z_prime) - base)
    return total


def expectation_exact(
    params: RbmParams, h: PauliHamiltonian, cap: int = STATEVECTOR_CAP
) -> Estimate:
    """<Psi|H|Psi> by dense statevector and matrix-free application.  ``cap``
    is the one size-cap override: the only exact oracle past STATEVECTOR_CAP."""
    psi = exact_statevector(params, cap)
    value = complex(np.vdot(psi.amplitudes, apply_h(h, psi)))
    if not np.isfinite(value) or abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalIntegrityError(
            f"non-finite value or imaginary residue in {value!r} for a Hermitian observable"
        )
    return Estimate(mean=float(value.real), std_error=0.0, n_samples=0, mode="exact")


# ---------------------------------------------------------------------------
# sample generation: one serial stream, one state preparation per sample


def _draw_samples(params, n_samples, rng, mode):
    """(outcomes or None, spins, weights) of ``n_samples`` samples drawn
    from ``rng``: Born-rule spins from the exact statevector for vmc, or
    reweighted protocol runs for the ensemble mode."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if mode == "vmc":
        zmat = measure_visible(exact_statevector(params), n_samples, rng)
        return None, zmat, np.ones(n_samples)
    if mode == "ensemble":
        if not params.unitary_coupled:
            raise ValueError("the ensemble mode requires unitary couplings")
        return sample_protocol_batch(params, n_samples, rng)
    raise ValueError(f"unknown sampling mode {mode!r}")


def _distinct_rows(zmat, wn):
    """Distinct rows of a sampled (K, N) spin batch, keyed by their packed
    bits (any N), with the summed normalized weight of each and the map
    from samples to rows."""
    keys = np.packbits(zmat < 0, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return zmat[first], np.bincount(inverse, weights=wn), inverse


def _local_energies(params, h, rows, theta) -> np.ndarray:
    """Local energies of float spin rows with hidden angles ``theta``."""
    struct = connected_structure(h)
    return _kernels.local_energy_batch(
        rows,
        theta,
        params.b,
        params.w,
        struct.flips,
        struct.elements(rows),
        params.unitary_coupled,
    )


def _evaluate(params, h, zmat, wn):
    """Evaluate each distinct sampled configuration with positive weight once.

    Returns those rows (float), their summed normalized weights, their
    hidden angles and local energies, and the local energy of every sample
    (0 for a sample of weight 0).
    """
    rows, row_w, inverse = _distinct_rows(zmat, wn)
    # Rows of weight 0 carry nothing and are dropped; a row of vanishing
    # amplitude could overflow its ratios (0 * inf).
    keep = row_w > 0.0
    rows = np.ascontiguousarray(rows[keep], dtype=np.float64)
    theta = hidden_angles(params, rows)
    eloc_rows = _local_energies(params, h, rows, theta)
    eloc = np.zeros(keep.shape[0], dtype=np.complex128)
    eloc[keep] = eloc_rows
    return rows, row_w[keep], theta, eloc_rows, eloc[inverse]


def _energy_estimate(eloc_real, weights, weight_sum, mode, n_samples) -> Estimate:
    mean = float(weights @ eloc_real / weight_sum)
    # Ratio standard error of the self-normalized mean; for unit weights it
    # is sqrt((K - 1) / K) times the i.i.d. sqrt(var / K).
    resid = weights * (eloc_real - mean)
    se = float(np.sqrt(resid @ resid)) / weight_sum
    return Estimate(mean, se, n_samples, mode)


def _check_weights(weights) -> float:
    weight_sum = float(weights.sum())
    if weight_sum <= 0.0:
        raise DegenerateWeightError(
            "all sample weights vanished; increase the number of samples"
        )
    return weight_sum


def _sampled_energy(params, h, zmat, weights, mode, n_samples) -> Estimate:
    weight_sum = _check_weights(weights)
    eloc = _evaluate(params, h, zmat, weights / weight_sum)[-1]
    return _energy_estimate(eloc.real, weights, weight_sum, mode, n_samples)


def expectation_vmc(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Mean local observable over z ~ |<z|Psi>|^2 with its standard error."""
    _, zmat, weights = _draw_samples(params, n_samples, rng, "vmc")
    return _sampled_energy(params, h, zmat, weights, "vmc", n_samples)


def expectation_ensemble(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Self-normalized estimator over protocol runs: the weighted mean of
    local observables with weights prod_j R^2_{s_j}, ratio standard error."""
    _, zmat, weights = _draw_samples(params, n_samples, rng, "ensemble")
    return _sampled_energy(params, h, zmat, weights, "ensemble", n_samples)


# ---------------------------------------------------------------------------
# stochastic-reconfiguration system


def _covariance(x, wn):
    """S = E[conj(x) x^T] - E[conj(x)] E[x]^T over the distinct derivative
    columns x, which are centred in place; also returns wn * conj(x)."""
    # Averaging S with its conjugate transpose makes it Hermitian bitwise,
    # so its diagonal sum_k w_k |x_k - mean x|^2 is real and each column's
    # Re/Im pair entry of A, -Im S_xx, is exactly 0.
    x -= wn @ x
    xw = x.conj()
    xw *= wn[:, None]
    s = xw.T @ x
    return 0.5 * (s + s.conj().T), xw


def _sampled_moments(x, wn, eloc):
    """S and F = E[conj(x) (E_loc - mean E_loc)] over sampled rows."""
    s, xw = _covariance(x, wn)
    return s, xw.T @ (eloc - complex(wn @ eloc))


class _SlotLayout(NamedTuple):
    """Where each real slot reads A and C, as gathers from the interleaved
    (Re, Im) float view of S and of g."""

    slots: np.ndarray  # (P,) column of [x, i*x] per slot (slot_columns)
    a_index: np.ndarray  # (P, P) flat index into S viewed as (D, 2D) floats
    a_sign: np.ndarray  # (P, P) -1 where A takes -Im S, else +1
    c_index: np.ndarray  # (P,) index into g viewed as (2D,) floats


@lru_cache(maxsize=8)
def _slot_layout(n_visible: int, n_hidden: int, unitary_coupled: bool) -> _SlotLayout:
    """The slot gathers of one (N, M, ansatz), built once."""
    slots = VariationalIndex(n_visible, n_hidden, unitary_coupled).slot_columns()
    d = n_visible + n_hidden + n_visible * n_hidden
    part, col = np.divmod(slots, d)
    # Slot blocks: Re S (Re/Re, Im/Im), -Im S (Re row, Im column), +Im S
    # (Im row, Re column); C takes Re g in Re slots and Im g in Im slots.
    cross = part[:, None] != part[None, :]
    layout = _SlotLayout(
        slots=slots,
        a_index=2 * (col[:, None] * d + col[None, :]) + cross,
        a_sign=np.where(part[:, None] < part[None, :], -1.0, 1.0),
        c_index=2 * col + part,
    )
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _real_form(s, g, layout: _SlotLayout):
    """A and C in slot order: one gather each, and a sign product for A."""
    s_floats = np.ascontiguousarray(s, dtype=np.complex128).view(np.float64)
    a = np.take(s_floats, layout.a_index)
    a *= layout.a_sign
    g_floats = np.ascontiguousarray(g, dtype=np.complex128).view(np.float64)
    return a, g_floats[layout.c_index]


def _slot_system(params, s, f, energy, n_preparations) -> SrSystem:
    layout = _slot_layout(params.n_visible, params.n_hidden, params.unitary_coupled)
    g = C_SIGN * f
    # Unrestricted slots pair every distinct column, so A is the real form
    # of S and the solver takes the half-size complex system.  The
    # unitary-coupled slots lack Re w, and A is no real form.
    if not params.unitary_coupled:
        return SrSystem._half_size(s, g, layout, energy, n_preparations)
    a, c = _real_form(s, g, layout)
    return SrSystem(a=a, c=c, energy=energy, n_preparations=n_preparations)


def _assemble_system(params, h, zmat, weights, mode, n_samples):
    weight_sum = _check_weights(weights)
    rows, row_w, theta, eloc_rows, eloc = _evaluate(
        params, h, zmat, weights / weight_sum
    )
    # The (U, D) column arrays are freed before A is built: held here, they
    # raised the ensemble workload's peak RSS by about 5 MB.
    s, f = _sampled_moments(log_derivative_columns(rows, theta), row_w, eloc_rows)
    energy = _energy_estimate(eloc.real, weights, weight_sum, mode, n_samples)
    return _slot_system(params, s, f, energy, n_samples)


@dataclass(frozen=True)
class ExactPoint:
    """The dense pass of ``compute_a_c_exact`` at ``params``: the float rows
    of ``all_spin_configs``, their hidden angles theta, the normalized psi,
    e = conj(psi) H psi and the energy E = sum e."""

    params: RbmParams
    zmat: np.ndarray
    theta: np.ndarray
    psi: StateVector
    e: np.ndarray
    energy: complex


@lru_cache(maxsize=None)
def _spin_rows(n: int) -> np.ndarray:
    """Read-only float rows of ``all_spin_configs(n)``, built once per N."""
    zmat = all_spin_configs(n).astype(np.float64)
    zmat.flags.writeable = False
    return zmat


def exact_point(params: RbmParams, h: PauliHamiltonian) -> ExactPoint:
    """One theta = m + zW pass over the 2^N configurations, with H psi from
    the ``apply_h`` gather; ``energy.real`` is the exact energy."""
    n = params.n_visible
    check_cap(n, STATEVECTOR_CAP)
    zmat = _spin_rows(n)
    theta = hidden_angles(params, zmat)
    psi = statevector_from_angles(params, zmat, theta)
    e = psi.amplitudes.conj() * apply_h(h, psi)
    return ExactPoint(params, zmat, theta, psi, e, complex(e.sum()))


def compute_a_c_exact(
    params: RbmParams, h: PauliHamiltonian, point: ExactPoint | None = None
) -> SrSystem:
    """A and C with expectations taken over the exact statevector.

    The dense pass (``exact_point``) gives psi and, from the same theta, the
    derivative columns x.  With p = |psi|^2 and e = conj(psi) H psi = p E_loc,
    the energy is E = sum e and F = sum conj(x - mean x) (e - p E).  A
    ``point`` already evaluated at this very ``params`` object is reused.
    """
    if point is None or point.params is not params:
        point = exact_point(params, h)
    p = point.psi.probabilities()
    x = log_derivative_columns(point.zmat, point.theta)
    s, _ = _covariance(x, p)
    f = ((point.e - p * point.energy).conj() @ x).conj()
    estimate = Estimate(mean=point.energy.real, std_error=0.0, n_samples=0, mode="exact")
    return _slot_system(params, s, f, estimate, 0)


def compute_a_c_sampled(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
    mode: str = "vmc",
    sample_log=None,
) -> SrSystem:
    """A, C, and the energy accumulated from one shared sample stream.

    The distinct derivative columns and the local energy are evaluated once
    per distinct sampled configuration, and every A entry, every C entry, and
    the energy are derived from them - exactly one state preparation per
    sample, reported in ``n_preparations``.  A and C come from the complex
    covariance of those columns (see the module docstring).  When
    ``sample_log`` is given, the records are written there for replay.
    """
    smat, zmat, weights = _draw_samples(params, n_samples, rng, mode)
    if sample_log is not None:
        write_sample_log(sample_log, smat, zmat, weights)
    return _assemble_system(params, h, zmat, weights, mode, n_samples)


def compute_a_c_from_log(params: RbmParams, h: PauliHamiltonian, path) -> SrSystem:
    """Replay a sample log that fits ``params``; bit-identical to the original."""
    smat, zmat, weights = read_sample_log(path)
    for size, mat, want in (("N", zmat, params.n_visible), ("M", smat, params.n_hidden)):
        if mat is not None and mat.shape[1] != want:
            raise ValueError(f"sample log has {size} = {mat.shape[1]}, the parameters {want}")
    mode = "vmc" if smat is None else "ensemble"
    if mode == "ensemble" and not params.unitary_coupled:
        raise ValueError("the ensemble mode requires unitary couplings")
    return _assemble_system(params, h, zmat, weights, mode, zmat.shape[0])


# ---------------------------------------------------------------------------
# sample log: one "<s-string> <z-string> <weight>" record per line; the
# s field is "." for modes without hidden outcomes and "_" for the empty
# outcome history of a protocol run with no hidden units


def write_sample_log(path, smat, zmat, weights) -> None:
    lines = []
    for k in range(zmat.shape[0]):
        s_str = "." if smat is None else spins_to_string(smat[k]) or "_"
        lines.append(f"{s_str} {spins_to_string(zmat[k])} {float(weights[k])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_sample_log(path):
    s_rows, z_rows, weights = [], [], []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError(f"sample log line {lineno}: expected 3 fields")
        s_tok, z_tok, w_tok = tokens
        s_row = None if s_tok == "." else string_to_spins("" if s_tok == "_" else s_tok)
        z_row = string_to_spins(z_tok)
        if s_rows and (s_row is None) != (s_rows[0] is None):
            raise ValueError(
                f"sample log line {lineno}: mixes '.' records (no hidden outcomes) "
                "with hidden-outcome records"
            )
        for name, row, rows in (("outcome", s_row, s_rows), ("spin", z_row, z_rows)):
            if rows and row is not None and row.size != rows[0].size:
                raise ValueError(
                    f"sample log line {lineno}: {name} field has width {row.size}, "
                    f"not {rows[0].size} as on the first record"
                )
        s_rows.append(s_row)
        z_rows.append(z_row)
        try:
            weight = float(w_tok)
        except ValueError:
            weight = float("nan")
        if not (np.isfinite(weight) and weight >= 0.0):
            raise ValueError(
                f"sample log line {lineno}: weight {w_tok!r} is not a finite "
                "non-negative number"
            )
        weights.append(weight)
    if not z_rows:
        raise ValueError("empty sample log")
    smat = None if s_rows[0] is None else np.stack(s_rows)
    return smat, np.stack(z_rows), np.array(weights)
