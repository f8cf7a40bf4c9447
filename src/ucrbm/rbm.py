"""Complex restricted-Boltzmann-machine wavefunction core.

The unnormalized amplitude of a visible spin configuration z is

    psi(z) = exp(sum_i b_i z_i) * prod_j cosh(m_j + sum_i w_ij z_i)

with complex biases b (visible), m (hidden) and couplings w.  The
"unitary-coupled" restriction forces Re(w) = 0 exactly, which makes every
visible-hidden entangling operation a ZZ-phase gate in the circuit picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .spins import all_spin_configs, as_spins
from .statevector import STATEVECTOR_CAP, StateVector, check_cap


@dataclass(frozen=True)
class RbmParams:
    """Immutable parameter set; arrays are complex128 and read-only."""

    b: np.ndarray
    m: np.ndarray
    w: np.ndarray
    unitary_coupled: bool = False

    def __post_init__(self):
        b = np.ascontiguousarray(self.b, dtype=np.complex128)
        m = np.ascontiguousarray(self.m, dtype=np.complex128)
        w = np.ascontiguousarray(self.w, dtype=np.complex128)
        if b.ndim != 1 or b.shape[0] < 1:
            raise ValueError("b must be a vector with at least one entry")
        if m.ndim != 1:
            raise ValueError("m must be a vector")
        if w.shape != (b.shape[0], m.shape[0]):
            raise ValueError(
                f"coupling matrix shape {w.shape} does not match "
                f"(N, M) = ({b.shape[0]}, {m.shape[0]})"
            )
        for arr in (b, m, w):
            if not np.isfinite(arr).all():
                raise ValueError("non-finite parameter")
        if self.unitary_coupled and w.real.any():
            raise ValueError("unitary-coupled parameters require Re(w) == 0 exactly")
        for arr in (b, m, w):
            arr.flags.writeable = False
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "w", w)

    @property
    def n_visible(self) -> int:
        return self.b.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.m.shape[0]


@lru_cache(maxsize=None)
def _slot_floats(n: int, m: int, unitary_coupled: bool) -> np.ndarray:
    """The one statement of the slot order, built once per (N, M, ansatz):
    read-only indices into the interleaved (Re, Im) float view of the
    complex vector [b, m, w column-major] (entry w[i, j] at N + M + j*N + i).

    Slot order: Re b, Im b, Re m, Im m, Im w, then Re w - the Re w block
    exists only for unrestricted couplings.
    """
    vis = 2 * np.arange(n)
    hid = 2 * np.arange(n, n + m)
    cpl = 2 * np.arange(n + m, n + m + n * m)
    parts = [vis, vis + 1, hid, hid + 1, cpl + 1]
    if not unitary_coupled:
        parts.append(cpl)
    floats = np.concatenate(parts)
    floats.flags.writeable = False
    return floats


class VariationalIndex:
    """Fixed ordering of the independent real degrees of freedom: slot k is
    float ``floats[k]`` of the interleaved (Re, Im) view of the complex
    vector [b, m, w column-major] (``_slot_floats``)."""

    def __init__(self, n_visible: int, n_hidden: int, unitary_coupled: bool):
        if n_visible < 1 or n_hidden < 0:
            raise ValueError("need n_visible >= 1 and n_hidden >= 0")
        self.n_visible = n_visible
        self.n_hidden = n_hidden
        self.unitary_coupled = unitary_coupled
        self.floats = _slot_floats(n_visible, n_hidden, unitary_coupled)
        self.size = self.floats.shape[0]

    @classmethod
    def for_params(cls, params: RbmParams) -> "VariationalIndex":
        return cls(params.n_visible, params.n_hidden, params.unitary_coupled)

    def slot_columns(self) -> np.ndarray:
        """Column of ``[x, i*x]`` that each slot's log-derivative equals, with
        x the N + M + N*M distinct columns of ``log_derivative_columns``:
        Re slots take x, Im slots take i*x."""
        n, m = self.n_visible, self.n_hidden
        col, part = np.divmod(self.floats, 2)
        return part * (n + m + n * m) + col

    def labels(self) -> list[str]:
        n, m = self.n_visible, self.n_hidden
        entries = [f"b_{{}}[{i}]" for i in range(n)] + [f"m_{{}}[{j}]" for j in range(m)]
        entries += [f"w_{{}}[{i},{j}]" for j in range(m) for i in range(n)]
        return [entries[f // 2].format(("re", "im")[f % 2]) for f in self.floats.tolist()]

    def flatten(self, params: RbmParams) -> np.ndarray:
        if (params.n_visible, params.n_hidden, params.unitary_coupled) != (
            self.n_visible,
            self.n_hidden,
            self.unitary_coupled,
        ):
            raise ValueError("parameter shape does not match this index")
        z = np.concatenate([params.b, params.m, params.w.T.ravel()])
        return z.view(np.float64)[self.floats]

    def unflatten(self, vec: np.ndarray) -> RbmParams:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}")
        n, m = self.n_visible, self.n_hidden
        z = np.zeros(n + m + n * m, dtype=np.complex128)
        z.view(np.float64)[self.floats] = vec
        if self.unitary_coupled:
            # Re(w) = 0 with the sign of Im(w), as w = 1j * Im(w) gives it
            np.copysign(0.0, z[n + m :].imag, out=z[n + m :].real)
        w = z[n + m :].reshape(m, n).T
        return RbmParams(z[:n], z[n : n + m], w, unitary_coupled=self.unitary_coupled)


def random_init(
    n: int, m: int, stddev: float, seed, unitary_coupled: bool
) -> RbmParams:
    """Gaussian(0, stddev^2) draw for every independent real parameter.

    Forbidden slots (Re(w) under the unitary-coupled restriction) are exactly
    zero.  The same seed (anything ``np.random.default_rng`` takes)
    reproduces bit-identical parameters.
    """
    # "not" also refuses NaN, which compares False like a value out of range.
    if not 0 <= stddev < np.inf:
        raise ValueError(f"stddev must be finite and non-negative, got {stddev!r}")
    index = VariationalIndex(n, m, unitary_coupled)
    rng = np.random.default_rng(seed)
    return index.unflatten(rng.normal(0.0, stddev, size=index.size))


def log_amplitude_batch(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """log psi(z) for a (K, N) batch of spin rows (entries +1/-1)."""
    zmat = np.ascontiguousarray(zmat, dtype=np.float64)
    if zmat.ndim != 2 or zmat.shape[1] != params.n_visible:
        raise ValueError(f"batch shape {zmat.shape} does not match N = {params.n_visible}")
    return zmat @ params.b + _kernels.logcosh(hidden_angles(params, zmat)).sum(axis=1)


def log_amplitude(params: RbmParams, z) -> complex:
    z = as_spins(z)
    return complex(log_amplitude_batch(params, z[None, :].astype(np.float64))[0])


def hidden_angles(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """theta_j = m_j + sum_i w_ij z_i for each row of a (K, N) float batch."""
    return params.m[None, :] + zmat @ params.w


def log_derivative_columns(zmat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The N + M + N*M distinct log-derivative columns of a (K, N) batch
    whose hidden angles have tanh ``t`` (tanh of ``hidden_angles``).

    Row k holds z_i, tanh(theta_j) and z_i*tanh(theta_j) (column j*N + i),
    filled into one preallocated array.  Every real parameter slot's
    derivative is one of them or i times one (``VariationalIndex.slot_columns``).
    Not on the ITE path: the SR system takes their moments from the
    monomials of z and tanh theta (``estimators._moments``) without building
    them.  They serve ``log_derivatives_batch``, the named oracle.
    """
    k, n = zmat.shape
    m = t.shape[1]
    x = np.empty((k, n + m + n * m), dtype=np.complex128)
    x[:, :n] = zmat
    x[:, n : n + m] = t
    np.multiply(t[:, :, None], zmat[:, None, :], out=x[:, n + m :].reshape(k, m, n))
    return x


def log_derivatives_batch(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """Logarithmic derivative of psi w.r.t. every real parameter slot: row k
    holds, in slot order, the columns x = (z_i, tanh theta_j,
    z_i tanh theta_j) of ``log_derivative_columns`` or i x, as
    ``VariationalIndex.slot_columns`` picks them.

    The named oracle for the slot order and the SR system's moments; no ITE
    step calls it (see ``log_derivative_columns``).
    """
    zmat = np.ascontiguousarray(zmat, dtype=np.float64)
    x = log_derivative_columns(zmat, np.tanh(hidden_angles(params, zmat)))
    both = np.concatenate([x, 1j * x], axis=1)
    return both[:, VariationalIndex.for_params(params).slot_columns()]


def log_derivatives(params: RbmParams, z) -> np.ndarray:
    """``log_derivatives_batch`` of one configuration: public, and like it
    an oracle that no ITE step calls."""
    z = as_spins(z)
    return log_derivatives_batch(params, z[None, :].astype(np.float64))[0]


def r_factor(m_real: float, s: int) -> float:
    """<+| exp(m_real * Z) |s> for the ancilla qubit: cosh for s=+1, sinh for s=-1."""
    if not np.isfinite(m_real):
        raise ValueError("m_real must be finite")
    if s == 1:
        return float(np.cosh(m_real))
    if s == -1:
        return float(np.sinh(m_real))
    raise ValueError(f"s must be +1 or -1, got {s!r}")


@lru_cache(maxsize=None)
def spin_rows(n: int) -> np.ndarray:
    """Read-only float rows of ``all_spin_configs(n)``, built once per N."""
    zmat = all_spin_configs(n).astype(np.float64)
    zmat.flags.writeable = False
    return zmat


def exact_statevector(params: RbmParams, cap: int = STATEVECTOR_CAP) -> StateVector:
    """Normalized dense statevector, amplitude of z at its big-endian index;
    ``cap`` is the one size-cap override (see ``expectation_exact``)."""
    check_cap(params.n_visible, cap)
    return dense_statevector(params)[0]


def dense_statevector(params: RbmParams) -> tuple[StateVector, np.ndarray]:
    """``exact_statevector`` with tanh of the hidden angles of the rows of
    ``all_spin_configs``.  The one construction of the dense statevector, so
    ``exact_statevector`` and the estimators' dense pass agree bitwise.

    One construction for every coupling: a doubling of per-site factors
    gives both psi and tanh theta from N*M complex exponentials, with no
    hidden-angle array (``_kernels.amplitudes_tanh``).  Where some row's
    hidden product leaves the band the doubling takes as it is, the whole
    pass takes the per-element log form of ``log_amplitude_batch`` and
    np.tanh of ``hidden_angles``.  Both run with overflow and invalid
    operations silenced: the doubling's band check and the StateVector's
    finite check refuse what matters, so finite parameters raise no
    RuntimeWarning.  The callers
    check the size cap.
    """
    n = params.n_visible
    with np.errstate(over="ignore", invalid="ignore"):
        dense = _kernels.amplitudes_tanh(params.b, params.m, params.w)
        if dense is None:
            zmat = spin_rows(n)
            lp = log_amplitude_batch(params, zmat)
            dense = np.exp(lp - lp.real.max()), np.tanh(hidden_angles(params, zmat))
        amps, t = dense
        return StateVector(n, amps / np.linalg.norm(amps)), t
