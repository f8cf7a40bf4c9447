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
(``exact_point``, which the solver also uses to try step sizes): one
hidden-angle pass theta = m + zW and one expm1 per angle
(``_kernels.logcosh_sum_tanh``) give both the amplitudes psi (sum log cosh
theta, one log per row) and tanh theta for the derivative moments, and
H psi comes from the ``apply_h`` gather.  Exact mode weighs every
configuration: e = conj(psi) H psi is p E_loc with no division, so no row
of vanishing amplitude can enter as 0 * inf and none is dropped.  vmc draws
basis indices from the pass's |psi|^2; its rows are the indices of positive
summed weight, each with the local energy (H psi)(z)/psi(z) and tanh theta
gathered from the pass.

The ensemble mode has no statevector and no 2^N cap, so it goes through
``_evaluate``, which works once per distinct configuration with positive
weight.  The sampler has already keyed the runs' readouts into distinct
rows and taken their hidden angles theta = m + zW, one pass that also gave
the hidden outcomes' probabilities (``circuit.sample_protocol_batch``);
``_evaluate`` sums the weights per row, drops rows of weight 0, and one
tanh(theta) of the rest feeds both the flipped-site local-energy kernel and
the derivative moments.  The kernel has only the unitary-coupled lane, so
``_evaluate`` refuses unrestricted parameters.  In both sampled modes
means, standard errors and preparation counts stay per sample, with local
energies gathered back through the map from samples to rows.

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
gives all of them; E[conj(x) x^T] and E[x] are gathers from it, S is the
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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuit import ProtocolBatch, measure_indices, sample_protocol_batch
from .errors import DegenerateWeightError, NumericalIntegrityError
from .hamiltonians import PauliHamiltonian, apply_h, connected_states, connected_structure
from .rbm import (
    RbmParams,
    VariationalIndex,
    exact_statevector,
    hidden_angles,
    log_amplitude,
    spin_rows,
    statevector_from_angles,
)
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
    and ``layout`` maps each slot into [Re u, Im u] (``to_slots``); A and C
    are gathered on first access.  The system is checked once, here:
    ``matrix`` and ``rhs`` finite and ``matrix`` Hermitian, as A is finite
    and symmetric exactly when S is finite and Hermitian.
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
            if not np.all(np.isfinite(arr)):
                raise NumericalIntegrityError(f"SR {name} has non-finite entries")
        asym = float(np.max(np.abs(mat - mat.T.conj()), initial=0.0))
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
        """The real slot vector of a solution u of the solver's system."""
        if self.layout is None:
            return u
        return np.concatenate([u.real, u.imag])[self.layout.slots]


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
    value = complex((psi.amplitudes.conj() * apply_h(h, psi)).sum())
    if not np.isfinite(value) or abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalIntegrityError(
            f"non-finite value or imaginary residue in {value!r} for a Hermitian observable"
        )
    return Estimate(mean=float(value.real), std_error=0.0, n_samples=0, mode="exact")


# ---------------------------------------------------------------------------
# sample generation: one serial stream, one state preparation per sample


def _draw_samples(params, n_samples, rng, mode, point=None):
    """(samples, weights) of ``n_samples`` samples drawn from ``rng``: for
    vmc the basis indices of Born-rule draws from the dense pass ``point``
    at ``params``, for the ensemble mode the ``ProtocolBatch`` of reweighted
    protocol runs."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if mode == "vmc":
        return measure_indices(point.psi, n_samples, rng), np.ones(n_samples)
    if mode == "ensemble":
        batch = sample_protocol_batch(params, n_samples, rng)
        return batch, batch.weights
    raise ValueError(f"unknown sampling mode {mode!r}")


def _local_energies(params, h, rows, t) -> np.ndarray:
    """Local energies of float spin rows with t = tanh of their hidden
    angles, for unitary-coupled ``params``."""
    struct = connected_structure(h)
    return _kernels.local_energy_batch(
        rows, t, params.b, params.w, struct.flips, struct.elements(rows), struct.flip_sites
    )


def _evaluate(params, h, batch: ProtocolBatch, wn):
    """Evaluate each distinct readout of a protocol batch (the ensemble
    mode's runs) with positive weight once, with no statevector: tanh of
    the angles the sampler took for those rows feeds the flipped-site
    local-energy kernel.  Unrestricted ``params`` are refused before any
    row work: the kernel reads no Re w.

    Returns those rows (float), their summed normalized weights, tanh of
    their hidden angles, their local energies, and the local energy of every
    sample (0 for a sample of weight 0).
    """
    if not params.unitary_coupled:
        raise ValueError("the ensemble mode requires unitary couplings")
    row_w = np.bincount(batch.inverse, weights=wn, minlength=batch.rows.shape[0])
    # Rows of weight 0 carry nothing and are dropped; a row of vanishing
    # amplitude could overflow its ratios (0 * inf).
    keep = row_w > 0.0
    rows = batch.rows[keep].astype(np.float64)
    t = np.tanh(batch.theta[keep])
    eloc_rows = _local_energies(params, h, rows, t)
    eloc = np.zeros(keep.shape[0], dtype=np.complex128)
    eloc[keep] = eloc_rows
    return rows, row_w[keep], t, eloc_rows, eloc[batch.inverse]


def _evaluate_dense(point, index, wn):
    """``_evaluate`` for samples drawn as basis indices of the dense pass
    ``point`` (vmc): a row is a basis index with positive summed weight, and
    its local energy (H psi)(z)/psi(z) and tanh theta are gathered from the
    pass.  The indices are Born-rule draws, so no row has zero
    amplitude."""
    row_w = np.bincount(index, weights=wn, minlength=point.zmat.shape[0])
    rows = np.flatnonzero(row_w > 0.0)
    eloc_rows = point.hpsi[rows] / point.psi.amplitudes[rows]
    eloc = np.zeros(row_w.shape[0], dtype=np.complex128)
    eloc[rows] = eloc_rows
    return point.zmat[rows], row_w[rows], point.t[rows], eloc_rows, eloc[index]


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


def _evaluate_samples(params, h, samples, weights, point):
    """The rows, row weights, tanh theta and row local energies of a sample
    batch, and its energy estimate.  The samples are basis indices drawn
    from the dense pass ``point`` (vmc), or a ``ProtocolBatch`` when
    ``point`` is None (ensemble)."""
    r, r_sum = _check_weights(weights)
    wn = r / r_sum
    if point is None:
        mode, evaluation = "ensemble", _evaluate(params, h, samples, wn)
    else:
        mode, evaluation = "vmc", _evaluate_dense(point, samples, wn)
    *per_row, eloc = evaluation
    return per_row, _energy_estimate(eloc.real, r, r_sum, mode, weights.shape[0])


def expectation_vmc(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Mean local observable over z ~ |<z|Psi>|^2 with its standard error."""
    point = exact_point(params, h)
    index, weights = _draw_samples(params, n_samples, rng, "vmc", point)
    return _evaluate_samples(params, h, index, weights, point)[1]


def expectation_ensemble(
    params: RbmParams,
    h: PauliHamiltonian,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Self-normalized estimator over protocol runs: the weighted mean of
    local observables with weights prod_j R^2_{s_j}, ratio standard error."""
    batch, weights = _draw_samples(params, n_samples, rng, "ensemble")
    return _evaluate_samples(params, h, batch, weights, None)[1]


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


def _moments(zmat, t, wn, g):
    """S = sum_k wn_k conj(x_k - mean) (x_k - mean)^T and
    F = sum_k conj(x_k - mean) g_k, mean = sum_k wn_k x_k, over the D
    distinct derivative columns x of U rows of float spins ``zmat`` with
    tanh ``t``.

    No (U, D) column array is built.  G holds every weighted moment of a
    visible monomial (1, z_i, z_i z_i') times a hidden one (1, t_j,
    conj(t_j) t_j'), from one real GEMM of the visible monomials against
    the float view of the hidden ones; E[conj(x) x^T] and the mean are
    gathers from G (``_moment_layout``).  F is one product of [1, z]
    against conj([1, t]) g.
    """
    u, n = zmat.shape
    m = t.shape[1]
    layout = _moment_layout(n, m)
    # Visible monomials as rows, so that each pair block is one contiguous
    # multiply and the GEMM reads both operands with unit stride.
    zm = np.empty((1 + n + n * (n - 1) // 2, u))
    zm[0] = 1.0
    zm[1 : 1 + n] = zmat.T
    start = 1 + n
    for i in range(n - 1):
        np.multiply(zm[1 + i], zm[2 + i : 1 + n], out=zm[start : start + n - 1 - i])
        start += n - 1 - i
    tm = np.empty((u, 1 + m + m * (m + 1) // 2), dtype=np.complex128)
    tm[:, 0] = wn
    np.multiply(t, wn[:, None], out=tm[:, 1 : 1 + m])
    tc = t.conj()
    start = 1 + m
    for j in range(m):
        np.multiply(tc[:, j : j + 1], tm[:, 1 + j : 1 + m], out=tm[:, start : start + m - j])
        start += m - j
    moments = (zm @ tm.view(np.float64)).view(np.complex128).ravel()
    s = moments[layout.s_index]
    np.conjugate(s, out=s, where=layout.s_conj)
    mean = moments[layout.mean_index]
    tg = np.empty((u, 1 + m), dtype=np.complex128)
    tg[:, 0] = g
    np.multiply(tc, g[:, None], out=tg[:, 1:])
    f = (zm[: 1 + n] @ tg.view(np.float64)).view(np.complex128).ravel()
    # The weights sum to 1 and g to 0 only to rounding, about U eps.  The
    # first moments (sum w, sum g) keep S and F at the centred sums
    # sum w conj(x - mean) (x - mean)^T and sum conj(x - mean) g, which
    # matters where a column's variance is far below its squared mean.
    s -= (2.0 - moments[0].real) * np.multiply.outer(mean.conj(), mean)
    # Averaging S with its conjugate transpose makes it Hermitian bitwise,
    # so its diagonal is real and each column's Re/Im pair entry of A,
    # -Im S_xx, is exactly 0.
    return 0.5 * (s + s.conj().T), f[layout.f_index] - mean.conj() * f[0]


class _SlotLayout(NamedTuple):
    """Where each real slot reads A and C, as gathers from the interleaved
    (Re, Im) float view of S and of g."""

    slots: np.ndarray  # (P,) column of [x, i*x] per slot (slot_columns)
    a_index: np.ndarray  # (P, P) flat index into S viewed as (D, 2D) floats
    a_negate: np.ndarray  # (P, P) True where A takes -Im S
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
        a_negate=part[:, None] < part[None, :],
        c_index=2 * col + part,
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
    return a, g_floats[layout.c_index]


def _slot_system(params, s, f, energy) -> SrSystem:
    layout = _slot_layout(params.n_visible, params.n_hidden, params.unitary_coupled)
    g = C_SIGN * f
    # Unrestricted slots pair every distinct column, so A is the real form
    # of S and the solver takes the half-size complex system.  The
    # unitary-coupled slots lack Re w, and A is no real form.
    if not params.unitary_coupled:
        return SrSystem(s, g, energy, layout)
    return SrSystem(*_real_form(s, g, layout), energy)


def _assemble_system(params, h, samples, weights, point):
    (rows, row_w, t, eloc_rows), energy = _evaluate_samples(params, h, samples, weights, point)
    g = row_w * (eloc_rows - complex(row_w @ eloc_rows))
    s, f = _moments(rows, t, row_w, g)
    return _slot_system(params, s, f, energy)


@dataclass(frozen=True)
class ExactPoint:
    """The dense pass of ``compute_a_c_exact`` and of vmc at ``params``: the
    float rows of ``all_spin_configs``, t = tanh of their hidden angles
    theta, the normalized psi, H psi, e = conj(psi) H psi and the energy
    E = sum e.  One expm1 per angle gives both psi and t
    (``statevector_from_angles``)."""

    params: RbmParams
    zmat: np.ndarray
    t: np.ndarray
    psi: StateVector
    hpsi: np.ndarray
    e: np.ndarray
    energy: complex


def exact_point(params: RbmParams, h: PauliHamiltonian) -> ExactPoint:
    """One theta = m + zW pass over the 2^N configurations, with H psi from
    the ``apply_h`` gather; ``energy.real`` is the exact energy."""
    n = params.n_visible
    check_cap(n, STATEVECTOR_CAP)
    zmat = spin_rows(n)
    psi, t = statevector_from_angles(params, zmat, hidden_angles(params, zmat))
    hpsi = apply_h(h, psi)
    e = psi.amplitudes.conj() * hpsi
    return ExactPoint(params, zmat, t, psi, hpsi, e, complex(e.sum()))


def compute_a_c_exact(
    params: RbmParams, h: PauliHamiltonian, point: ExactPoint | None = None
) -> SrSystem:
    """A and C with expectations taken over the exact statevector.

    The dense pass (``exact_point``) gives psi and, from the same expm1 of
    each hidden angle, tanh theta.  With p = |psi|^2 and e = conj(psi) H psi
    = p E_loc, the energy is E = sum e and F = sum conj(x) (e - p E) over
    the derivative columns x (``_moments``).  A ``point`` already evaluated
    at this very ``params`` object is reused.
    """
    if point is None or point.params is not params:
        point = exact_point(params, h)
    p = point.psi.probabilities()
    s, f = _moments(point.zmat, point.t, p, point.e - p * point.energy)
    estimate = Estimate(mean=point.energy.real, std_error=0.0, n_samples=0, mode="exact")
    return _slot_system(params, s, f, estimate)


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
    in ``n_preparations``.  vmc reads them from the dense pass it draws from
    (``exact_point``).  A and C come from the monomial moments of those rows
    (``_moments``; see the module docstring).
    """
    point = exact_point(params, h) if mode == "vmc" else None
    samples, weights = _draw_samples(params, n_samples, rng, mode, point)
    return _assemble_system(params, h, samples, weights, point)
