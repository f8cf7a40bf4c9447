"""Complex restricted-Boltzmann-machine wavefunction core.

The unnormalized amplitude of a visible spin configuration z is

    psi(z) = exp(sum_i b_i z_i) * prod_j cosh(m_j + sum_i w_ij z_i)

with complex biases b (visible), m (hidden) and couplings w.  The
"unitary-coupled" restriction forces Re(w) = 0 exactly, which makes every
visible-hidden entangling operation a ZZ-phase gate in the circuit picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .spins import all_spin_configs, as_spins
from .statevector import StateVector, check_cap

DEFAULT_STATEVECTOR_CAP = 14


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
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("non-finite parameter")
        if self.unitary_coupled and w.size and np.max(np.abs(w.real)) != 0.0:
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


class VariationalIndex:
    """Fixed ordering of the independent real degrees of freedom.

    Slot order: Re(b) (N), Im(b) (N), Re(m) (M), Im(m) (M), Im(w) in
    column-major order (slot j*N + i for entry w[i, j]), then Re(w)
    column-major - the Re(w) block exists only for unrestricted couplings.
    """

    def __init__(self, n_visible: int, n_hidden: int, unitary_coupled: bool):
        if n_visible < 1 or n_hidden < 0:
            raise ValueError("need n_visible >= 1 and n_hidden >= 0")
        self.n_visible = n_visible
        self.n_hidden = n_hidden
        self.unitary_coupled = unitary_coupled
        n_w = n_visible * n_hidden
        self.size = 2 * n_visible + 2 * n_hidden + (n_w if unitary_coupled else 2 * n_w)

    @classmethod
    def for_params(cls, params: RbmParams) -> "VariationalIndex":
        return cls(params.n_visible, params.n_hidden, params.unitary_coupled)

    def slot_columns(self) -> np.ndarray:
        """Column of ``[x, i*x]`` that each slot's log-derivative equals, with
        x the N + M + N*M distinct columns of ``log_derivative_columns``:
        Re slots take x, Im slots take i*x."""
        n, m = self.n_visible, self.n_hidden
        n_x = n + m + n * m
        vis, hid, cpl = np.arange(n), n + np.arange(m), n + m + np.arange(n * m)
        parts = [vis, n_x + vis, hid, n_x + hid, n_x + cpl]
        if not self.unitary_coupled:
            parts.append(cpl)
        return np.concatenate(parts)

    def labels(self) -> list[str]:
        n, m = self.n_visible, self.n_hidden
        out = [f"b_re[{i}]" for i in range(n)]
        out += [f"b_im[{i}]" for i in range(n)]
        out += [f"m_re[{j}]" for j in range(m)]
        out += [f"m_im[{j}]" for j in range(m)]
        out += [f"w_im[{i},{j}]" for j in range(m) for i in range(n)]
        if not self.unitary_coupled:
            out += [f"w_re[{i},{j}]" for j in range(m) for i in range(n)]
        return out

    def flatten(self, params: RbmParams) -> np.ndarray:
        if (params.n_visible, params.n_hidden, params.unitary_coupled) != (
            self.n_visible,
            self.n_hidden,
            self.unitary_coupled,
        ):
            raise ValueError("parameter shape does not match this index")
        parts = [
            params.b.real,
            params.b.imag,
            params.m.real,
            params.m.imag,
            params.w.imag.T.ravel(),
        ]
        if not self.unitary_coupled:
            parts.append(params.w.real.T.ravel())
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray) -> RbmParams:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}")
        n, m = self.n_visible, self.n_hidden
        n_w = n * m
        pos = 0

        def take(count):
            nonlocal pos
            out = vec[pos : pos + count]
            pos += count
            return out

        b = take(n) + 1j * take(n)
        mm = take(m) + 1j * take(m)
        w_im = take(n_w).reshape(m, n).T
        if self.unitary_coupled:
            w = 1j * w_im
        else:
            w = take(n_w).reshape(m, n).T + 1j * w_im
        return RbmParams(b, mm, w, unitary_coupled=self.unitary_coupled)


def random_init(
    n: int, m: int, stddev: float, seed: int, unitary_coupled: bool
) -> RbmParams:
    """Gaussian(0, stddev^2) draw for every independent real parameter.

    Forbidden slots (Re(w) under the unitary-coupled restriction) are exactly
    zero.  The same seed reproduces bit-identical parameters.
    """
    if stddev < 0:
        raise ValueError("stddev must be non-negative")
    index = VariationalIndex(n, m, unitary_coupled)
    rng = np.random.default_rng(seed)
    return index.unflatten(rng.normal(0.0, stddev, size=index.size))


def logcosh(x):
    """Principal-branch complex log cosh, safe for large |Re x|."""
    return _kernels.logcosh(x)


def log_amplitude_batch(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """log psi(z) for a (K, N) batch of spin rows (entries +1/-1)."""
    zmat = np.ascontiguousarray(zmat, dtype=np.float64)
    if zmat.ndim != 2 or zmat.shape[1] != params.n_visible:
        raise ValueError(f"batch shape {zmat.shape} does not match N = {params.n_visible}")
    return _kernels.logpsi_batch(zmat, hidden_angles(params, zmat), params.b)


def log_amplitude(params: RbmParams, z) -> complex:
    z = as_spins(z)
    return complex(log_amplitude_batch(params, z[None, :].astype(np.float64))[0])


def hidden_angles(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """theta_j = m_j + sum_i w_ij z_i for each row of a (K, N) float batch."""
    return params.m[None, :] + zmat @ params.w


def log_derivative_columns(zmat: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The N + M + N*M distinct log-derivative columns of a (K, N) batch
    with hidden angles ``theta`` (``hidden_angles``).

    Row k holds z_i, tanh(theta_j) and z_i*tanh(theta_j) (column j*N + i).
    Every real parameter slot's derivative is one of them or i times one
    (``VariationalIndex.slot_columns``).
    """
    t = np.tanh(theta)
    zc = zmat.astype(np.complex128)
    zt = np.einsum("kj,ki->kji", t, zc).reshape(zmat.shape[0], -1)
    return np.concatenate([zc, t, zt], axis=1)


def log_derivatives_batch(params: RbmParams, zmat: np.ndarray) -> np.ndarray:
    """Logarithmic derivative of psi w.r.t. every real parameter slot.

    Row k holds, in VariationalIndex order: z_i, i*z_i, tanh(theta_j),
    i*tanh(theta_j), i*z_i*tanh(theta_j) and (unrestricted only)
    z_i*tanh(theta_j), with theta_j = m_j + sum_i w_ij z_i.
    """
    zmat = np.ascontiguousarray(zmat, dtype=np.float64)
    x = log_derivative_columns(zmat, hidden_angles(params, zmat))
    both = np.concatenate([x, 1j * x], axis=1)
    return both[:, VariationalIndex.for_params(params).slot_columns()]


def log_derivatives(params: RbmParams, z) -> np.ndarray:
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


def exact_statevector(params: RbmParams, cap: int = DEFAULT_STATEVECTOR_CAP) -> StateVector:
    """Normalized dense statevector over all 2^N configurations; the
    amplitude of configuration z sits at its big-endian basis index."""
    n = params.n_visible
    check_cap(n, cap)
    zmat = all_spin_configs(n).astype(np.float64)
    return statevector_from_angles(params, zmat, hidden_angles(params, zmat))


def statevector_from_angles(
    params: RbmParams, zmat: np.ndarray, theta: np.ndarray
) -> StateVector:
    """``exact_statevector`` from the float rows of ``all_spin_configs`` and
    their hidden angles, for callers that reuse those angles."""
    lp = _kernels.logpsi_batch(zmat, theta, params.b)
    amps = np.exp(lp - lp.real.max())
    return StateVector(params.n_visible, amps).normalized()
