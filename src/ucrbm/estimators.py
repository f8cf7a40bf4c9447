"""Exact and Monte Carlo estimators for observables and the stochastic
reconfiguration system.

Three estimation modes:

* ``exact``    - complete enumeration weighted by |<z|Psi>|^2;
* ``vmc``      - i.i.d. computational-basis samples drawn from the exact
  statevector (a desk-scale stand-in for projective measurements);
* ``ensemble`` - protocol runs accepted for every hidden outcome and
  reweighted by prod_j R^2_{s_j}; estimators are self-normalized ratios,
  refused when the weights' effective sample size is below
  ``MIN_ESS_FRACTION`` of the batch.

The sampled modes share one accumulation path: all A entries, the C vector
and the energy come from one sample stream, one state preparation per sample,
drawn serially from the caller's generator, so a seed fixes the result.

Exact mode and vmc make one dense pass over the 2^N configurations
(``exact_point``, which the solver also uses to try step sizes).  It gives
both the amplitudes psi and tanh theta for the derivative moments, from
one construction for every coupling (``rbm.dense_statevector``) with no
theta pass: one doubling of per-site factors gives
x = exp(-2 s theta) and the product-state factor on every row from N*M
complex exponentials, and psi and tanh theta follow from 1 + x and 1 - x
(``_kernels.amplitudes_tanh``).  Where a row's hidden product leaves the
band the doubling takes as it is, the whole pass takes the per-element
log form (theta = m + zW, sum log cosh theta and np.tanh).  H psi comes
from the ``apply_h`` gather.  Exact mode weighs every configuration:
e = conj(psi) H psi is p E_loc with no division, so no row of vanishing
amplitude can enter as 0 * inf and none is dropped.  The dense pass is the
one exact energy: ``expectation_exact`` is its estimate, and it and
``compute_a_c_exact`` build that estimate through ``_exact_estimate``,
which refuses a non-finite sum or an imaginary residue.  ``_check_size`` is
the one size rule (N visible spins for N qubits): ``exact_point`` runs it
before the dense pass and ``_draw_samples`` before any draw.

The two sampled modes differ only in how they draw (``_draw_samples``, the
one place that reads the mode).  Each draw is a ``_Draw``: per sample a
weight and a row, and ``rows_of``, which gives a selection of rows as float
spins, tanh theta and local energies.  vmc makes the dense pass, draws basis
indices from its |psi|^2 and gathers each row's spins, tanh theta and
(H psi)(z)/psi(z) from it.  The ensemble mode has no statevector and no 2^N
cap: the sampler has keyed the runs' readouts into distinct rows and taken
their hidden angles theta = m + zW, one pass that also gave the hidden
outcomes' probabilities (``circuit.sample_protocol_batch``, which refuses
unrestricted parameters, as the flipped-site local-energy kernel reads no
Re w); one tanh(theta) of a selection feeds both that kernel and the
derivative moments.  One evaluation serves both (``_evaluate_samples``): it
sums the weights per row, drops rows of weight 0 and reads the rest once
through ``rows_of``.  Means, standard errors and preparation counts stay
per sample, with local energies gathered back through the map from samples
to rows.

Each real slot's log-derivative is one of the N + M + N*M distinct complex
columns x = (z_i, tanh theta_j, z_i tanh theta_j) or i times one.  A and C
are therefore derived from the complex covariance S of x with itself and
F of x with the local energy, not from the (K, P) slot matrix, so the
structural identities of A (the exact zero of each column's Re/Im pair,
the equal Re/Re and Im/Im blocks, the opposite cross blocks) hold bitwise.
No column array is built either (``_moments``): since z_i^2 = 1, every
entry of E[conj(x) x^T] is the weighted mean of a visible monomial (1,
z_i, z_i z_i') times a hidden one (1, t_j, conj(t_j) t_j') or its
conjugate, with t = tanh theta.  One real GEMM over the distinct rows,
(1 + N + N(N-1)/2) visible against 2 (1 + M + M(M+1)/2) hidden floats,
gives all of them.  The visible monomials of the 2^N dense rows are built
once per N and cached read-only for exact mode (``_dense_monomials``); the
sampled modes build those of their distinct rows and never touch the 2^N
rows.  The weighted hidden monomials are built hidden-major, each a
contiguous row over the U rows, and transposed once into the row-major
GEMM operand.  E[conj(x) x^T] and E[x] are gathers from the GEMM, S is the
first minus conj(E x) E[x]^T, averaged with its conjugate transpose so
that it is Hermitian bitwise, and F is one product of [1, z] against
conj([1, t]) times the energy terms.  At N = M = 10 that is 7.4k real
multiply-adds a row, against about 4 D^2 = 57.6k for the (U, D) complex
covariance.  Raw moments minus the squared mean lose a column's variance
to cancellation where its mean is near unit modulus (a near-basis state):
S is then exact to about eps |E x|^2 absolute, far below the solver's
regularization.  For unrestricted parameters every column has both a Re and
an Im slot, A is the real form of the D x D covariance S, and the solver
takes the system in that half-size complex form; A and C are gathered once,
on first read.  Every ``SrSystem`` is checked once, when it is built: finite
and Hermitian, else ``NumericalIntegrityError``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuit import measure_indices, sample_protocol_batch
from .errors import DegenerateWeightError, NumericalIntegrityError
from .hamiltonians import PauliHamiltonian, apply_h, connected_states, connected_structure
from .rbm import RbmParams, VariationalIndex, dense_statevector, log_amplitude, spin_rows
from .spins import as_spins
from .statevector import STATEVECTOR_CAP, StateVector, check_cap

# Sign relating the raw covariance Re(<O_m^dag H> - <O_m^dag><H>) to the
# update direction: fixed once by the finite-difference gradient validation
# (C equals -1/2 of the energy gradient), asserted in the test suite.
C_SIGN = -1.0

MODES = ("exact", "vmc", "ensemble")

# Smallest Kish effective sample size (sum w)^2 / sum w^2, as a fraction of
# the sample count, that a weighted batch may have: 64 of the default 4096.
# Below it a few runs carry the estimate and its standard error is too small
# to trust.  vmc weights are all 1, so its fraction is 1.
MIN_ESS_FRACTION = 1 / 64


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


@dataclass(frozen=True, eq=False)
class SrSystem:
    """Stochastic-reconfiguration system at one point: the solver solves
    ``matrix`` u = ``rhs``, and ``energy`` is the estimate taken with it.

    Without a ``layout`` these are A and C.  For unrestricted parameters
    they are the half-size form: every distinct derivative column x has a
    Re and an Im slot, so A is the real form of the complex D x D
    covariance S of x in slot order, ``matrix`` is S, ``rhs`` is C_SIGN F,
    and ``layout`` holds the slot floats of ``VariationalIndex``, so that
    ``to_slots`` maps a solution u to the slot vector as ``flatten`` maps
    parameters; A and C are gathered on first access.  The system is
    checked once, here: ``matrix`` and ``rhs`` finite and ``matrix``
    Hermitian, as A is finite and symmetric exactly when S is finite and
    Hermitian.
    ``n_preparations`` is the energy's sample count (0 in exact mode).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    energy: Estimate
    layout: _SlotLayout | None = None

    def __post_init__(self):
        mat, rhs = self.matrix, self.rhs
        if mat.shape != (rhs.shape[0], rhs.shape[0]):
            raise ValueError("SR matrix and right-hand side dimensions are inconsistent")
        for name, arr in (("matrix", mat), ("right-hand side", rhs)):
            if not np.isfinite(arr).all():
                raise NumericalIntegrityError(f"SR {name} has non-finite entries")
        asym = float(np.abs(mat - mat.T.conj()).max(initial=0.0))
        if asym > 1e-10:
            raise NumericalIntegrityError(f"SR matrix is asymmetric by {asym:.3e}")

    @property
    def n_preparations(self) -> int:
        return self.energy.n_samples

    @cached_property
    def _a_c(self) -> tuple[np.ndarray, np.ndarray]:
        if self.layout is None:
            return self.matrix, self.rhs
        return _real_form(self.matrix, self.rhs, self.layout)

    @property
    def a(self) -> np.ndarray:
        return self._a_c[0]

    @property
    def c(self) -> np.ndarray:
        return self._a_c[1]

    def to_slots(self, u: np.ndarray) -> np.ndarray:
        """The real slot vector of a solution u of the solver's system: for
        the half-size form, u is the complex vector [b, m, w column-major]
        of a parameter step, and this is its ``VariationalIndex.flatten``."""
        if self.layout is None:
            return u
        return u.view(np.float64)[self.layout.floats]


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
    """<Psi|H|Psi> from the dense pass (``exact_point``).  ``cap`` is the
    one size-cap override: the only exact oracle past STATEVECTOR_CAP."""
    return _exact_estimate(exact_point(params, h, cap).energy)


def _exact_estimate(value: complex) -> Estimate:
    """The exact-mode estimate of an energy sum conj(psi) H psi, refused
    when it is non-finite or keeps an imaginary residue."""
    if not cmath.isfinite(value) or abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalIntegrityError(
            f"non-finite value or imaginary residue in {value!r} for a Hermitian observable"
        )
    return Estimate(mean=float(value.real), std_error=0.0, n_samples=0, mode="exact")


def _check_size(params: RbmParams, h: PauliHamiltonian) -> None:
    """The one size rule of the estimators: N visible spins for N qubits."""
    if params.n_visible != h.n_qubits:
        raise ValueError("parameter count does not match the Hamiltonian")


# ---------------------------------------------------------------------------
# sample generation: one serial stream, one state preparation per sample


class _Draw(NamedTuple):
    """K samples drawn in one sampled mode: each sample's weight and row,
    and ``rows_of``, which maps a selection of the ``n_rows`` rows to their
    float spins, tanh of their hidden angles and their local energies."""

    mode: str
    weights: np.ndarray  # (K,)
    inverse: np.ndarray  # (K,) row of each sample
    n_rows: int
    rows_of: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _draw_samples(params, h, n_samples, rng, mode) -> _Draw:
    """``n_samples`` samples drawn from ``rng``: for vmc Born-rule basis
    indices from the dense pass at ``params`` (``exact_point``), whose
    rows it reads; for the ensemble mode the reweighted protocol runs of
    ``sample_protocol_batch``, whose distinct readouts are its rows.  The
    one place that reads the sampled mode."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    _check_size(params, h)
    if mode == "vmc":
        point = exact_point(params, h)
        index = measure_indices(point.psi, n_samples, rng)

        def dense_rows(sel):
            # The rows are Born-rule draws, so none has zero amplitude.
            return point.zmat[sel], point.t[sel], point.hpsi[sel] / point.psi.amplitudes[sel]

        return _Draw(mode, np.ones(n_samples), index, point.zmat.shape[0], dense_rows)
    if mode == "ensemble":
        batch = sample_protocol_batch(params, n_samples, rng)

        def readout_rows(sel):
            rows = batch.rows[sel].astype(np.float64)
            t = np.tanh(batch.theta[sel])
            return rows, t, _local_energies(params, h, rows, t)

        return _Draw(mode, batch.weights, batch.inverse, batch.rows.shape[0], readout_rows)
    raise ValueError(f"unknown sampling mode {mode!r}")


def _local_energies(params, h, rows, t) -> np.ndarray:
    """Local energies of float spin rows with t = tanh of their hidden
    angles, for unitary-coupled ``params``."""
    struct = connected_structure(h)
    return _kernels.local_energy_batch(
        rows, t, params.b, params.w, struct.flips, struct.elements(rows), struct.flip_sites
    )


def _energy_estimate(eloc_real, r, r_sum, mode, n_samples) -> Estimate:
    mean = float(r @ eloc_real / r_sum)
    # Ratio standard error of the self-normalized mean; for unit weights it
    # is sqrt((K - 1) / K) times the i.i.d. sqrt(var / K).
    resid = r * (eloc_real - mean)
    se = float(np.sqrt(resid @ resid)) / r_sum
    return Estimate(mean, se, n_samples, mode)


def _check_weights(weights):
    """The weights scaled by their largest, r = w / max w, and the sum of r,
    after the effective-sample-size check.

    Every estimate is a ratio and takes r in place of w, so no sum or
    square of the weights under- or overflows, and weights scaled by a
    power of two give the same estimate bitwise.  vmc's unit weights give
    r == w.
    """
    w_max = float(weights.max())
    if not w_max > 0.0:
        raise DegenerateWeightError(
            "all sample weights vanished; increase the number of samples"
        )
    r = weights / w_max
    r_sum = float(r.sum())
    ess = r_sum**2 / float(r @ r)
    floor = MIN_ESS_FRACTION * weights.shape[0]
    if ess < floor:
        raise DegenerateWeightError(
            f"effective sample size {ess:.3g} of {weights.shape[0]} samples is below "
            f"{floor:.3g}; a few heavy weights carry the estimate"
        )
    return r, r_sum


def _evaluate_samples(draw: _Draw):
    """The rows of positive weight of a draw, as float spins, summed
    normalized weights, tanh theta and local energies, and the energy
    estimate, whose mean and standard error stay per sample."""
    r, r_sum = _check_weights(draw.weights)
    row_w = np.bincount(draw.inverse, weights=r / r_sum, minlength=draw.n_rows)
    # Rows of weight 0 carry nothing and are dropped; a row of vanishing
    # amplitude could overflow its ratios (0 * inf).
    rows = np.flatnonzero(row_w > 0.0)
    zmat, t, eloc_rows = draw.rows_of(rows)
    eloc = np.zeros(draw.n_rows, dtype=np.complex128)
    eloc[rows] = eloc_rows
    energy = _energy_estimate(
        eloc[draw.inverse].real, r, r_sum, draw.mode, draw.weights.shape[0]
    )
    return (zmat, row_w[rows], t, eloc_rows), energy


def expectation_vmc(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Mean local observable over z ~ |<z|Psi>|^2 with its standard error."""
    return _evaluate_samples(_draw_samples(params, h, n_samples, rng, "vmc"))[1]


def expectation_ensemble(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Self-normalized estimator over protocol runs: the weighted mean of
    local observables with weights prod_j R^2_{s_j}, ratio standard error."""
    return _evaluate_samples(_draw_samples(params, h, n_samples, rng, "ensemble"))[1]


# ---------------------------------------------------------------------------
# stochastic-reconfiguration system


class _MomentLayout(NamedTuple):
    """Where S, the mean of x and F read their entries, as flat indices into
    the visible x hidden moment matrix G and the (1 + N, 1 + M) product H
    of ``_moments``."""

    s_index: np.ndarray  # (D, D) index into G
    s_conj: np.ndarray  # (D, D) True where S takes conj of G's entry
    mean_index: np.ndarray  # (D,) index into G
    f_index: np.ndarray  # (D,) index into H


@lru_cache(maxsize=8)
def _moment_layout(n_visible: int, n_hidden: int) -> _MomentLayout:
    """The moment gathers of one (N, M), built once.

    Column x = v h of ``log_derivative_columns`` has a visible factor v
    (0 for 1, 1 + i for z_i) and a hidden factor h (0 for 1, 1 + j for
    t_j).  conj(x_a) x_b = (v_a v_b) conj(h_a) h_b, and since z_i^2 = 1 the
    visible product is one of the visible monomials 1, z_i, z_i z_i'
    (i < i'), the hidden one a hidden monomial 1, t_j, conj(t_j) t_j'
    (j <= j') or its conjugate.
    """
    n, m = n_visible, n_hidden
    vis = np.concatenate([1 + np.arange(n), np.zeros(m, np.intp), np.tile(1 + np.arange(n), m)])
    hid = np.concatenate([np.zeros(n, np.intp), 1 + np.arange(m), np.repeat(1 + np.arange(m), n)])
    # Monomial of v_a v_b: 1 on the diagonal, pairs in triu_indices order.
    vprod = np.zeros((n + 1, n + 1), dtype=np.intp)
    vprod[0], vprod[:, 0] = np.arange(n + 1), np.arange(n + 1)
    upper = np.triu_indices(n, 1)
    vprod[1:, 1:][upper] = 1 + n + np.arange(upper[0].shape[0])
    vprod[1:, 1:] += vprod[1:, 1:].T
    # Monomial of conj(h_a) h_b, conjugated below the diagonal.
    hprod = np.zeros((m + 1, m + 1), dtype=np.intp)
    hprod[0], hprod[:, 0] = np.arange(m + 1), np.arange(m + 1)
    upper = np.triu_indices(m)
    hprod[1:, 1:][upper] = 1 + m + np.arange(upper[0].shape[0])
    hprod[1:, 1:] += np.triu(hprod[1:, 1:], 1).T
    hconj = np.tril(np.ones((m + 1, m + 1), dtype=bool), -1)
    n_hid = 1 + m + m * (m + 1) // 2
    layout = _MomentLayout(
        s_index=vprod[vis[:, None], vis[None, :]] * n_hid + hprod[hid[:, None], hid[None, :]],
        s_conj=hconj[hid[:, None], hid[None, :]],
        mean_index=vis * n_hid + hid,
        f_index=vis * (1 + m) + hid,
    )
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _visible_monomials(zmat):
    """The visible monomials 1, z_i and z_i z_i' (i < i', in
    ``triu_indices`` order) of U float spin rows, as (1 + N + N(N-1)/2, U)
    rows, so that each pair block is one contiguous multiply and the GEMM
    reads them with unit stride."""
    u, n = zmat.shape
    zm = np.empty((1 + n + n * (n - 1) // 2, u))
    zm[0] = 1.0
    zm[1 : 1 + n] = zmat.T
    start = 1 + n
    for i in range(n - 1):
        np.multiply(zm[1 + i], zm[2 + i : 1 + n], out=zm[start : start + n - 1 - i])
        start += n - 1 - i
    return zm


@lru_cache(maxsize=2)
def _dense_monomials(n: int) -> np.ndarray:
    """Read-only ``_visible_monomials`` of the dense rows ``spin_rows(n)``,
    built once per N.  Two entries at most: at N = 14 one holds 13.9 MB."""
    zm = _visible_monomials(spin_rows(n))
    zm.flags.writeable = False
    return zm


def _moments(zm, t, wn, g):
    """S = sum_k wn_k conj(x_k - mean) (x_k - mean)^T and
    F = sum_k conj(x_k - mean) g_k, mean = sum_k wn_k x_k, over the D
    distinct derivative columns x of U rows of float spins with visible
    monomials ``zm`` (``_visible_monomials``) and tanh ``t``.

    No (U, D) column array is built.  G holds every weighted moment of a
    visible monomial (1, z_i, z_i z_i') times a hidden one (1, t_j,
    conj(t_j) t_j'), from one real GEMM of the visible monomials against
    the float view of the hidden ones; E[conj(x) x^T] and the mean are
    gathers from G (``_moment_layout``).  Exact mode passes the cached
    monomials of the dense rows (``_dense_monomials``), the sampled modes
    those of their distinct rows, with no 2^N array.  The weighted hidden
    monomials are built hidden-major, one contiguous row over the U rows
    each (the pairs conj(t_j) t_j', j' >= j, in one multiply per j), and
    transposed once into the row-major GEMM operand.
    F is one product of [1, z] against conj([1, t]) g.
    """
    u, m = t.shape
    # zm has 1 + N(N+1)/2 rows, so 8 rows - 7 = (2N + 1)^2
    n = (math.isqrt(8 * zm.shape[0] - 7) - 1) // 2
    layout = _moment_layout(n, m)
    th = np.empty((1 + m + m * (m + 1) // 2, u), dtype=np.complex128)
    th[0] = wn
    tw = th[1 : 1 + m]
    np.multiply(t.T, wn, out=tw)
    tc = t.T.conj()
    start = 1 + m
    for j in range(m):
        np.multiply(tc[j], tw[j:], out=th[start : start + m - j])
        start += m - j
    moments = (zm @ th.T.copy().view(np.float64)).view(np.complex128).ravel()
    s = moments[layout.s_index]
    np.conjugate(s, out=s, where=layout.s_conj)
    mean = moments[layout.mean_index]
    mean_conj = mean.conj()
    tg = np.empty((u, 1 + m), dtype=np.complex128)
    tg[:, 0] = g
    np.multiply(tc.T, g[:, None], out=tg[:, 1:])
    f = (zm[: 1 + n] @ tg.view(np.float64)).view(np.complex128).ravel()
    # The weights sum to 1 and g to 0 only to rounding, about U eps.  The
    # first moments (sum w, sum g) keep S and F at the centred sums
    # sum w conj(x - mean) (x - mean)^T and sum conj(x - mean) g, which
    # matters where a column's variance is far below its squared mean.
    outer = np.multiply.outer(mean_conj, mean)
    outer *= 2.0 - moments[0].real
    s -= outer
    # Averaging S with its conjugate transpose makes it Hermitian bitwise,
    # so its diagonal is real and each column's Re/Im pair entry of A,
    # -Im S_xx, is exactly 0.
    s += s.conj().T
    s *= 0.5
    return s, f[layout.f_index] - mean_conj * f[0]


class _SlotLayout(NamedTuple):
    """Where each real slot reads A and C, as gathers from the interleaved
    (Re, Im) float view of S and of g."""

    floats: np.ndarray  # (P,) VariationalIndex.floats: index into g as (2D,) floats
    a_index: np.ndarray  # (P, P) flat index into S viewed as (D, 2D) floats
    a_negate: np.ndarray  # (P, P) True where A takes -Im S


@lru_cache(maxsize=8)
def _slot_layout(n_visible: int, n_hidden: int, unitary_coupled: bool) -> _SlotLayout:
    """The slot gathers of one (N, M, ansatz), built once."""
    floats = VariationalIndex(n_visible, n_hidden, unitary_coupled).floats
    d = n_visible + n_hidden + n_visible * n_hidden
    col, part = np.divmod(floats, 2)
    # Slot blocks: Re S (Re/Re, Im/Im), -Im S (Re row, Im column), +Im S
    # (Im row, Re column); C takes Re g in Re slots and Im g in Im slots.
    cross = part[:, None] != part[None, :]
    layout = _SlotLayout(
        floats=floats,
        a_index=2 * (col[:, None] * d + col[None, :]) + cross,
        a_negate=part[:, None] < part[None, :],
    )
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _real_form(s, g, layout: _SlotLayout):
    """A and C in slot order: one gather each, and a masked negation for A."""
    s_floats = np.ascontiguousarray(s, dtype=np.complex128).view(np.float64)
    a = np.take(s_floats, layout.a_index)
    np.negative(a, out=a, where=layout.a_negate)
    g_floats = np.ascontiguousarray(g, dtype=np.complex128).view(np.float64)
    return a, g_floats[layout.floats]


def _slot_system(params, s, f, energy) -> SrSystem:
    layout = _slot_layout(params.n_visible, params.n_hidden, params.unitary_coupled)
    g = C_SIGN * f
    # Unrestricted slots pair every distinct column, so A is the real form
    # of S and the solver takes the half-size complex system.  The
    # unitary-coupled slots lack Re w, and A is no real form.
    if not params.unitary_coupled:
        return SrSystem(s, g, energy, layout)
    return SrSystem(*_real_form(s, g, layout), energy)


def _assemble_system(params, draw: _Draw) -> SrSystem:
    (rows, row_w, t, eloc_rows), energy = _evaluate_samples(draw)
    g = row_w * (eloc_rows - complex(row_w @ eloc_rows))
    s, f = _moments(_visible_monomials(rows), t, row_w, g)
    return _slot_system(params, s, f, energy)


@dataclass(frozen=True)
class ExactPoint:
    """The dense pass of the exact estimators and of vmc at ``params``: the
    float rows of ``all_spin_configs``, t = tanh of their hidden angles
    theta, the normalized psi, H psi, e = conj(psi) H psi and the energy
    E = sum e.  One construction gives both psi and t
    (``dense_statevector``)."""

    params: RbmParams
    zmat: np.ndarray
    t: np.ndarray
    psi: StateVector
    hpsi: np.ndarray
    e: np.ndarray
    energy: complex


def exact_point(
    params: RbmParams, h: PauliHamiltonian, cap: int = STATEVECTOR_CAP
) -> ExactPoint:
    """One dense pass over the 2^N configurations (``dense_statevector``),
    with H psi from the ``apply_h`` gather; ``energy.real`` is the exact
    energy.  The size rule and the cap are checked first."""
    _check_size(params, h)
    n = params.n_visible
    check_cap(n, cap)
    psi, t = dense_statevector(params)
    hpsi = apply_h(h, psi)
    e = psi.amplitudes.conj() * hpsi
    return ExactPoint(params, spin_rows(n), t, psi, hpsi, e, complex(e.sum()))


def compute_a_c_exact(
    params: RbmParams, h: PauliHamiltonian, point: ExactPoint | None = None
) -> SrSystem:
    """A and C with expectations taken over the exact statevector.

    The dense pass (``exact_point``) gives psi and, from the same
    construction, tanh theta.  With p = |psi|^2 and e = conj(psi) H psi
    = p E_loc, the energy is E = sum e and F = sum conj(x) (e - p E) over
    the derivative columns x (``_moments``).  A ``point`` already evaluated
    at this very ``params`` object is reused.
    """
    if point is None or point.params is not params:
        point = exact_point(params, h)
    p = point.psi.probabilities()
    zm = _dense_monomials(params.n_visible)
    s, f = _moments(zm, point.t, p, point.e - p * point.energy)
    return _slot_system(params, s, f, _exact_estimate(point.energy))


def compute_a_c_sampled(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
    mode: str = "vmc",
) -> SrSystem:
    """A, C, and the energy accumulated from one shared sample stream.

    tanh theta and the local energy are evaluated once per distinct sampled
    configuration, and every A entry, every C entry, and the energy are
    derived from them - exactly one state preparation per sample, reported
    in ``n_preparations``.  The draw (``_draw_samples``) says where a row's
    values come from: vmc gathers them from the dense pass it draws from
    (``exact_point``), the ensemble mode evaluates the sampler's distinct
    readouts.  A and C come from the monomial moments of those rows
    (``_moments``; see the module docstring).
    """
    return _assemble_system(params, _draw_samples(params, h, n_samples, rng, mode))
