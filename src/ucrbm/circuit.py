"""Statevector emulation of the qubit-recycled state-preparation protocol.

One ancilla qubit is attached in |+>, entangled with all visible qubits by
a hidden-block phase unitary, measured in the X basis, and dropped - so M
hidden units never cost more than one extra qubit.  Accepting every
measurement outcome and reweighting by the classical factors R_s(Re m_j)^2
replaces post-selection.  ``enumerate_branches`` replays the gates for every
one of the 2^M outcome histories; it is the only gate-level emulation and
the exact branch decomposition used by the verification routines.  It
requires unitary couplings (Re w = 0): unrestricted RBMs reach the protocol
through the decoupling identities (``identities.rbm_to_unitary_coupled``).

The ensemble estimators do not run this emulation: ``sample_protocol_batch``
draws (s, z) from the factorized protocol law in O(K N M) work, with no
statevector and no 2^N cap, and the branch table is the oracle that the
sampler is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ProtocolOrderError
from .rbm import RbmParams, r_factor
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
    zmat = all_spin_configs(params.n_visible).astype(np.float64)
    return params.m[j].imag + zmat @ params.w[:, j].imag


def _require_unitary(params: RbmParams) -> None:
    if not params.unitary_coupled:
        raise ValueError(
            "the gate-level emulation requires unitary couplings; convert an "
            "unrestricted RBM with identities.rbm_to_unitary_coupled"
        )


def apply_hidden_block(state: StateVector, params: RbmParams, j: int) -> StateVector:
    """Entangle the ancilla (last qubit) with all visible qubits.

    Applies the unitary exp(i*(Im m_j + sum_i Im w_ij v_i^z) * h^z): one
    ancilla Z phase plus N ZZ phases.  Unrestricted couplings are refused.

    The ancilla must still be in |+> - i.e. this block must come right after
    attaching a fresh ancilla.
    """
    _require_unitary(params)
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
    if prob > 0.0:
        amps = amps / np.sqrt(prob)
    return StateVector(n, amps), prob


def _history_weight(params: RbmParams, s_vec) -> float:
    """prod_j R_{s_j}(Re m_j)^2 of one outcome history."""
    weight = 1.0
    for j in range(params.n_hidden):
        weight *= r_factor(params.m[j].real, int(s_vec[j])) ** 2
    return weight


def enumerate_branches(params: RbmParams) -> BranchTable:
    """Replay the protocol for all 2^M forced outcome histories, M <= HIDDEN_CAP,
    on N + 1 <= STATEVECTOR_CAP qubits, reusing shared prefixes of the gate path.

    Unitary couplings only.  The walk takes + before - at every hidden unit,
    so row k is the history of index k, (+,...,+) first.
    """
    _require_unitary(params)
    m_hidden = params.n_hidden
    check_cap(m_hidden, HIDDEN_CAP, "branch enumeration over {} hidden units")
    check_cap(params.n_visible + 1, STATEVECTOR_CAP)

    rows: list[tuple[np.ndarray, float, float, StateVector]] = []

    def walk(j: int, state: StateVector, prefix, prob: float):
        if j == m_hidden:
            s_vec = np.array(prefix, dtype=np.int8)
            rows.append((s_vec, prob, _history_weight(params, s_vec), state))
            return
        if prob == 0.0:
            # unreachable subtree: emit zero rows for all completions
            dim = 1 << params.n_visible
            zero = StateVector(params.n_visible, np.zeros(dim, dtype=np.complex128))
            for tail in all_spin_configs(m_hidden - j):
                s_vec = np.array(list(prefix) + list(tail), dtype=np.int8)
                rows.append((s_vec, 0.0, _history_weight(params, s_vec), zero))
            return
        blocked = apply_hidden_block(state.with_plus_ancilla(), params, j)
        for s in (1, -1):
            collapsed, p_j = project_hidden_outcome(blocked, s)
            walk(j + 1, collapsed, prefix + [s], prob * p_j)

    walk(0, prepare_visible_product(params), [], 1.0)
    return BranchTable(
        s=np.array([r[0] for r in rows], dtype=np.int8),
        branch_probs=np.array([r[1] for r in rows]),
        weights=np.array([r[2] for r in rows]),
        states=tuple(r[3] for r in rows),
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


def measure_visible(
    state: StateVector, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Born-rule samples from |amplitude|^2, returned as (shots, N) spins."""
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("measure_visible expects a normalized state")
    probs = state.probabilities()
    probs = probs / probs.sum()
    idx = rng.choice(probs.shape[0], size=shots, p=probs)
    zmat = all_spin_configs(state.n_qubits)
    return zmat[idx]


# ---------------------------------------------------------------------------
# ensemble identity verification


def _extended_amplitudes(params: RbmParams) -> np.ndarray:
    """(2^N, 2^M) amplitudes of the unnormalized (N+M)-qubit state built by
    applying exp of the coupled-bias operator to |+...+> on all qubits."""
    n, m = params.n_visible, params.n_hidden
    zv = all_spin_configs(n).astype(np.float64)
    zh = all_spin_configs(m).astype(np.float64)
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
    if not params.unitary_coupled:
        raise ValueError("ensemble identities hold for unitary couplings only")
    check_cap(params.n_hidden, IDENTITY_HIDDEN_CAP, "identity check over {} hidden units")
    table = enumerate_branches(params)
    m_hidden = params.n_hidden
    n_branches = table.s.shape[0]

    # branch amplitudes relative to the normalized visible preparation
    amp = np.stack(
        [
            np.sqrt(table.branch_probs[r]) * table.states[r].amplitudes
            for r in range(n_branches)
        ]
    )

    odd_max = 0.0
    even_max = 0.0
    row_of = {tuple(int(v) for v in table.s[r]): r for r in range(n_branches)}
    for r1 in range(n_branches):
        for r2 in range(n_branches):
            if r1 == r2:
                continue
            diff = np.nonzero(table.s[r1] != table.s[r2])[0]
            k = diff.shape[0]
            cross = np.conj(amp[r2]) * amp[r1]
            if k % 2 == 1:
                odd_max = max(odd_max, float(np.max(np.abs(2.0 * cross.real))))
            else:
                q = int(diff[0])
                t1 = list(int(v) for v in table.s[r1])
                t2 = list(int(v) for v in table.s[r2])
                t1[q] = -t1[q]
                t2[q] = -t2[q]
                partner = np.conj(amp[row_of[tuple(t2)]]) * amp[row_of[tuple(t1)]]
                even_max = max(even_max, float(np.max(np.abs(cross + partner))))

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


def sample_protocol_batch(
    params: RbmParams,
    n_runs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n_runs protocol runs, one visible measurement each.

    Every hidden block is a phase gate diagonal in z, so the joint law of the
    outcome history s and the readout z factorizes:
    p(s, z) = |psi0(z)|^2 prod_j (cos^2 phi_j(z) if s_j = +1, else sin^2 phi_j(z)).
    Each z_i is drawn independently with P(z_i = +1) = (1 + tanh 2 Re b_i)/2,
    then each s_j given z with P(s_j = +1) = cos^2 phi_j(z) - O(K N M) work
    and no statevector, so there is no 2^N cap.  ``enumerate_branches``
    emulates the gates and serves as the test oracle.

    Returns (outcomes (n_runs, M) int8, measured spins (n_runs, N) int8,
    weights prod_j R_{s_j}(Re m_j)^2 (n_runs,)).
    """
    if not params.unitary_coupled:
        raise ValueError("batched protocol sampling requires unitary couplings")
    p_up = 0.5 * (1.0 + np.tanh(2.0 * params.b.real))
    zmat = np.where(rng.random((n_runs, params.n_visible)) < p_up, 1, -1).astype(np.int8)
    phi = params.m.imag[None, :] + zmat.astype(np.float64) @ params.w.imag
    s_out = np.where(rng.random(phi.shape) < np.cos(phi) ** 2, 1, -1).astype(np.int8)
    r_vals = np.where(
        s_out == 1, np.cosh(params.m.real)[None, :], np.sinh(params.m.real)[None, :]
    )
    weights = np.prod(r_vals**2, axis=1)
    return s_out, zmat, weights
