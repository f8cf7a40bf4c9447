"""Statevector emulation of the qubit-recycled state-preparation protocol.

One ancilla qubit is attached in |+>, entangled with all visible qubits by
a hidden-block phase unitary, measured in the X basis, and dropped - so M
hidden units never cost more than one extra qubit.  Accepting every
measurement outcome and reweighting by the classical factors R_s(Re m_j)^2
replaces post-selection.  ``enumerate_branches`` replays the gates for every
one of the 2^M outcome histories in one breadth-first walk over the hidden
units, each branch splitting into + then - with its Born probability and
weight as running products; it is the only gate-level emulation and the
exact branch decomposition used by the verification routines.  Row k of its
table is the history of index k, so ``verify_ensemble_identities`` pairs
histories by the set bits of their row indices' XOR.  It requires unitary
couplings (Re w = 0): unrestricted RBMs reach the protocol through the
decoupling identities (``identities.rbm_to_unitary_coupled``).

The ensemble estimators do not run this emulation: ``sample_protocol_batch``
draws (s, z) from the factorized protocol law with no statevector and no
2^N cap, and the branch table is the oracle that the sampler is tested
against.  Its phase work runs once per distinct readout: drawing, keying and
reweighting K runs is O(K (N + M)) work and one sort, and one O(U N M)
hidden-angle pass covers the U distinct readouts; the estimators reuse
those angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalIntegrityError, ProtocolOrderError
from .rbm import RbmParams, hidden_angles, r_factor, spin_rows
from .spins import all_spin_configs
from .statevector import HIDDEN_CAP, IDENTITY_HIDDEN_CAP, STATEVECTOR_CAP
from .statevector import StateVector, check_cap

_ANCILLA_PLUS_TOL = 1e-10


@dataclass(frozen=True)
class BranchTable:
    """All 2^M outcome histories of the protocol for one parameter set."""

    s: np.ndarray  # (2^M, M) int8
    branch_probs: np.ndarray  # (2^M,)
    weights: np.ndarray  # (2^M,)
    states: tuple[StateVector, ...]  # zero vectors mark unreachable branches

    def __post_init__(self):
        total = float(self.branch_probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise NumericalIntegrityError(
                f"branch probabilities sum to {total!r}, expected 1"
            )


@dataclass(frozen=True)
class EnsembleIdentityReport:
    branch_prob_sum_error: float
    odd_cross_max: float
    even_pair_max: float
    success_prob_lhs: float
    success_prob_rhs: float
    success_prob_error: float

    def max_violation(self) -> float:
        return max(self.odd_cross_max, self.even_pair_max, self.success_prob_error)


def prepare_visible_product(params: RbmParams) -> StateVector:
    """Product state with per-qubit amplitudes (e^{b_i}, e^{-b_i}), each qubit
    normalized - the non-unitary bias realized as a single-qubit rotation."""
    amps = np.ones(1, dtype=np.complex128)
    for b_i in params.b:
        pair = np.array([np.exp(b_i), np.exp(-b_i)])
        amps = np.kron(amps, pair / np.linalg.norm(pair))
    return StateVector(params.n_visible, amps)


def block_phases(params: RbmParams, j: int) -> np.ndarray:
    """phi_j(z) = Im(m_j) + sum_i Im(w_ij) z_i over all 2^N configurations."""
    return params.m[j].imag + spin_rows(params.n_visible) @ params.w[:, j].imag


def _require_unitary(params: RbmParams, what: str) -> None:
    if not params.unitary_coupled:
        raise ValueError(
            f"{what} requires unitary couplings; convert an unrestricted RBM "
            "with identities.rbm_to_unitary_coupled"
        )


def apply_hidden_block(state: StateVector, params: RbmParams, j: int) -> StateVector:
    """Entangle the ancilla (last qubit) with all visible qubits.

    Applies the unitary exp(i*(Im m_j + sum_i Im w_ij v_i^z) * h^z): one
    ancilla Z phase plus N ZZ phases.  Unrestricted couplings are refused.

    The ancilla must still be in |+> - i.e. this block must come right after
    attaching a fresh ancilla.
    """
    _require_unitary(params, "the gate-level emulation")
    n = params.n_visible
    if state.n_qubits != n + 1:
        raise ValueError("expected a visible register plus one ancilla")
    if not 0 <= j < params.n_hidden:
        raise ValueError(f"hidden index {j} out of range")
    grid = state.amplitudes.reshape(1 << n, 2)
    if np.linalg.norm(grid[:, 0] - grid[:, 1]) > _ANCILLA_PLUS_TOL * max(state.norm, 1e-300):
        raise ProtocolOrderError(
            "ancilla is not in |+>; attach a fresh ancilla before each hidden block"
        )
    phi = block_phases(params, j)
    phase = np.exp(1j * phi)
    new = np.empty_like(grid)
    new[:, 0] = grid[:, 0] * phase
    new[:, 1] = grid[:, 1] * phase.conj()
    return StateVector(n + 1, new.reshape(-1))


def project_hidden_outcome(state: StateVector, s: int) -> tuple[StateVector, float]:
    """Project the ancilla onto |s> of the X basis and drop it.

    Returns the renormalized visible state and the Born probability; a
    zero-probability outcome yields the zero vector.
    """
    if s not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    n = state.n_qubits - 1
    grid = state.amplitudes.reshape(1 << n, 2)
    amps = (grid[:, 0] + s * grid[:, 1]) / np.sqrt(2.0)
    prob = float(np.linalg.norm(amps) ** 2)
    amps = amps / np.sqrt(prob) if prob > 0.0 else np.zeros_like(amps)
    return StateVector(n, amps), prob


def enumerate_branches(params: RbmParams) -> BranchTable:
    """Replay the protocol for all 2^M forced outcome histories, M <= HIDDEN_CAP,
    on N + 1 <= STATEVECTOR_CAP qubits, reusing shared prefixes of the gate path.

    Unitary couplings only.  The walk is breadth-first over the hidden units:
    every branch attaches a fresh ancilla, applies block j and splits into the
    outcomes + then -, carrying its Born probability and its weight
    prod_j R_{s_j}(Re m_j)^2 as running products.  Row k is therefore the
    history of index k, (+,...,+) first, with hidden unit 0 the most
    significant bit, and ``s`` is ``all_spin_configs(M)``; rows k and l
    differ exactly in the set bits of k ^ l.  An unreachable branch stays
    the zero vector, with probability 0, through the remaining blocks.
    """
    _require_unitary(params, "the gate-level emulation")
    m_hidden = params.n_hidden
    check_cap(m_hidden, HIDDEN_CAP, "branch enumeration over {} hidden units")
    check_cap(params.n_visible + 1, STATEVECTOR_CAP)

    branches = [(prepare_visible_product(params), 1.0, 1.0)]
    for j in range(m_hidden):
        r_sq = {s: r_factor(params.m[j].real, s) ** 2 for s in (1, -1)}
        split = []
        for state, prob, weight in branches:
            blocked = apply_hidden_block(state.with_plus_ancilla(), params, j)
            for s in (1, -1):
                collapsed, p_j = project_hidden_outcome(blocked, s)
                split.append((collapsed, prob * p_j, weight * r_sq[s]))
        branches = split
    states, probs, weights = zip(*branches)
    return BranchTable(
        s=all_spin_configs(m_hidden),
        branch_probs=np.array(probs),
        weights=np.array(weights),
        states=states,
    )


def recombined_statevector(params: RbmParams, table: BranchTable) -> StateVector:
    """Reassemble the closed-form state from the branch decomposition:
    sum_s R-product * sqrt(branch probability) * |Psi_v^s>, normalized."""
    dim = 1 << params.n_visible
    acc = np.zeros(dim, dtype=np.complex128)
    for row in range(table.s.shape[0]):
        if table.branch_probs[row] == 0.0:
            continue
        r_prod = 1.0
        for j in range(params.n_hidden):
            r_prod *= r_factor(params.m[j].real, int(table.s[row, j]))
        scale = np.sqrt(table.branch_probs[row])
        acc += r_prod * scale * table.states[row].amplitudes
    return StateVector(params.n_visible, acc).normalized()


def measure_indices(
    state: StateVector, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Born-rule samples from |amplitude|^2, returned as (shots,) basis indices.

    The draws, and the uniforms taken from ``rng``, are those of
    ``rng.choice(2**N, size=shots, p=probs / probs.sum())``: the same
    normalized cdf and the same ``searchsorted``, run on the uniforms in
    sorted order, so that each search starts where the last one ended,
    and scattered back into sample order.
    """
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("measurement expects a normalized state")
    probs = state.probabilities()
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    uniforms = rng.random(shots)
    order = np.argsort(uniforms)
    index = np.empty(shots, dtype=np.int64)
    index[order] = cdf.searchsorted(uniforms[order], side="right")
    return index


# ---------------------------------------------------------------------------
# ensemble identity verification


def _extended_amplitudes(params: RbmParams) -> np.ndarray:
    """(2^N, 2^M) amplitudes of the unnormalized (N+M)-qubit state built by
    applying exp of the coupled-bias operator to |+...+> on all qubits."""
    n, m = params.n_visible, params.n_hidden
    zv, zh = spin_rows(n), spin_rows(m)
    expo = (zv @ params.b)[:, None] + (zh @ params.m)[None, :] + zv @ params.w @ zh.T
    return np.exp(expo) / np.sqrt(2.0 ** (n + m))


def verify_ensemble_identities(params: RbmParams) -> EnsembleIdentityReport:
    """Dense checks of the branch-ensemble identities, M <= IDENTITY_HIDDEN_CAP.

    (a) for outcome histories differing in an odd number of slots, the
        symmetrized per-configuration cross term vanishes;
    (b) for an even number K >= 2 of differing slots, the cross term cancels
        against the partner pair obtained by flipping the first differing
        slot in both histories;
    (c) the post-selection success probability of the extended state equals
        sum_s branch_prob * weight (computed on completely independent
        routes: brute-force (N+M)-qubit construction vs protocol replay).
    """
    _require_unitary(params, "the ensemble-identity check")
    check_cap(params.n_hidden, IDENTITY_HIDDEN_CAP, "identity check over {} hidden units")
    table = enumerate_branches(params)
    m_hidden = params.n_hidden
    n_branches = table.s.shape[0]

    # branch amplitudes relative to the normalized visible preparation
    amp = np.sqrt(table.branch_probs)[:, None] * np.stack([st.amplitudes for st in table.states])
    conj_amp = np.conj(amp)

    # rows r1, r2 differ in the set bits of x = r1 ^ r2: parity of x and its
    # highest set bit, the first differing slot, over all x
    index = np.arange(n_branches)
    odd = np.array([bin(x).count("1") % 2 for x in range(n_branches)], dtype=bool)
    high = np.array([1 << x.bit_length() >> 1 for x in range(n_branches)])
    odd_max = 0.0
    even_max = 0.0
    for r1 in range(n_branches):
        x = r1 ^ index
        cross = conj_amp * amp[r1]
        odd_max = max(odd_max, float(np.max(np.abs(2.0 * cross[odd[x]].real), initial=0.0)))
        even = ~odd[x]
        even[r1] = False
        r2 = index[even]
        flip = high[x[even]]
        partner = conj_amp[r2 ^ flip] * amp[r1 ^ flip]
        even_max = max(even_max, float(np.max(np.abs(cross[even] + partner), initial=0.0)))

    # (c) success-probability decomposition
    prep_norm_sq = float(np.prod(np.cosh(2.0 * params.b.real)))
    lhs = prep_norm_sq * float(np.sum(table.branch_probs * table.weights))
    ext = _extended_amplitudes(params)
    projected = ext.sum(axis=1) / np.sqrt(2.0**m_hidden)
    rhs = float(np.sum(np.abs(projected) ** 2))

    return EnsembleIdentityReport(
        branch_prob_sum_error=abs(float(table.branch_probs.sum()) - 1.0),
        odd_cross_max=odd_max,
        even_pair_max=even_max,
        success_prob_lhs=lhs,
        success_prob_rhs=rhs,
        success_prob_error=abs(lhs - rhs),
    )


# ---------------------------------------------------------------------------
# batched sampling front-end used by the estimators


class ProtocolBatch(NamedTuple):
    """Protocol runs from ``sample_protocol_batch``, with their distinct
    readouts and the hidden angles of those."""

    s: np.ndarray  # (K, M) int8 hidden outcomes
    z: np.ndarray  # (K, N) int8 readouts
    weights: np.ndarray  # (K,) prod_j R_{s_j}(Re m_j)^2
    rows: np.ndarray  # (U, N) int8 distinct readouts, rows[inverse] == z
    inverse: np.ndarray  # (K,) row of each run
    theta: np.ndarray  # (U, M) hidden angles m + zW of the rows


def distinct_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (K, N) spin batch and the row of each sample.

    Each block of 64 sites is keyed by its down-spins read as an exact
    big-endian uint64, so the rows come out in ``np.unique``'s order of
    their packed bits.  One word is sorted by an unstable argsort (equal
    keys are equal rows, so which of their samples leads does not matter),
    more words by a lexsort with the first word primary.
    """
    k, n = z.shape
    down = (z < 0).view(np.uint8)
    bits = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
    keys = np.stack([down[:, i : i + 64] @ bits[64 - min(64, n - i) :] for i in range(0, n, 64)])
    order = np.argsort(keys[0]) if keys.shape[0] == 1 else np.lexsort(keys[::-1])
    ordered = keys[:, order]
    starts = np.ones(k, dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    inverse = np.empty(k, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return z[order[starts]], inverse


def sample_protocol_batch(
    params: RbmParams,
    n_runs: int,
    rng: np.random.Generator,
) -> ProtocolBatch:
    """Draw n_runs protocol runs, one visible measurement each.

    Every hidden block is a phase gate diagonal in z, so the joint law of the
    outcome history s and the readout z factorizes:
    p(s, z) = |psi0(z)|^2 prod_j (cos^2 phi_j(z) if s_j = +1, else sin^2 phi_j(z)).
    Each z_i is drawn independently with P(z_i = +1) = (1 + tanh 2 Re b_i)/2,
    then each s_j given z with P(s_j = +1) = cos^2 phi_j(z), phi = Im theta.
    The readouts are deduplicated first (``distinct_rows``), so the hidden
    angles theta = m + zW and cos^2 phi are taken once per distinct readout:
    O(K (N + M)) work and one sort, plus O(U N M) for the U distinct
    readouts, and no statevector, so there is no 2^N cap.
    ``enumerate_branches`` emulates the gates and serves as the test oracle.

    Returns a ``ProtocolBatch``; its weights are prod_j R_{s_j}(Re m_j)^2.
    A run count below 1, and parameters whose largest weight,
    prod_j cosh^2 Re m_j, overflows a float are refused before any draw:
    their weights would be inf and the normalized ones NaN.
    """
    if n_runs < 1:
        raise ValueError("need at least one protocol run")
    _require_unitary(params, "batched protocol sampling")
    # log cosh a = logaddexp(a, -a) - log 2 stays finite where cosh^2 overflows
    a = params.m.real
    log_max_weight = float(np.sum(2.0 * (np.logaddexp(a, -a) - np.log(2.0))))
    if log_max_weight > np.log(np.finfo(np.float64).max):
        raise NumericalIntegrityError(
            f"the largest protocol weight, prod_j cosh^2 Re m_j = exp({log_max_weight:.6g}), "
            "overflows a float"
        )
    p_up = 0.5 * (1.0 + np.tanh(2.0 * params.b.real))
    z = 1 - 2 * (rng.random((n_runs, params.n_visible)) >= p_up).view(np.int8)
    rows, inverse = distinct_rows(z)
    theta = hidden_angles(params, rows.astype(np.float64))
    p_plus = np.take(np.cos(theta.imag) ** 2, inverse, axis=0)
    up = rng.random(p_plus.shape) < p_plus
    # R_{s_j}(Re m_j)^2 from the pairs (sinh^2, cosh^2) at 2j + [s_j = +1]
    r_sq = np.stack([np.sinh(a) ** 2, np.cosh(a) ** 2], axis=1).ravel()
    r_sq = np.take(r_sq, up.view(np.uint8) + 2 * np.arange(params.n_hidden))
    weights = np.ones(n_runs)
    for j in range(params.n_hidden):
        weights *= r_sq[:, j]
    return ProtocolBatch(2 * up.view(np.int8) - 1, z, weights, rows, inverse, theta)
