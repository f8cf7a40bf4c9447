"""Hot numeric kernels in numpy.

Kernel inputs are plain arrays; the wrapping modules own validation.

``local_energy_batch`` takes the hidden angles theta = m + zW of its rows
from the caller, which also feeds them to the log-derivative columns, and
forms each amplitude ratio psi(z')/psi(z) from the flipped sites alone
(the cached-angle update of Carleo & Troyer, Science 355, 602 (2017)).
Under the unitary-coupled restriction the coupling sums over the flipped
sites are imaginary, so the ratio needs only cos/sin and cannot overflow.
Unrestricted couplings keep the ratio in logs: the direct form
cosh 2d - tanh(theta) sinh 2d cancels catastrophically once Re w is of
order a few, where both terms grow like e^{2|Re d|}.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_LOG_HALF = float(np.log(0.5))


def logcosh(x: np.ndarray) -> np.ndarray:
    """Principal-branch log cosh, overflow-safe for large |Re x|."""
    x = np.asarray(x, dtype=np.complex128)
    s = np.where(x.real >= 0.0, 1.0, -1.0)
    sx = s * x
    return sx + np.log(1.0 + np.exp(-2.0 * sx)) + _LOG_HALF


def logpsi_batch(zmat, b, m, w):
    """Unnormalized log-amplitudes for a (K, N) batch of spin rows."""
    theta = m[None, :] + zmat @ w
    return zmat @ b + logcosh(theta).sum(axis=1)


def local_energy_batch(zmat, theta, b, w, flips, elements, unitary_coupled):
    """Local observable sum_g H(z, z*flip_g) * psi(z*flip_g)/psi(z) per row.

    ``zmat`` holds U spin rows (float64), ``theta`` their (U, M) hidden
    angles and ``elements`` the (U, C) matrix elements H(z, z*flip_g).  With
    d_j = sum_{i flipped} w_ij z_i the ratio is
    exp(-2 sum_{i flipped} b_i z_i) prod_j cosh(theta_j - 2 d_j) / cosh(theta_j).
    """
    n = zmat.shape[1]
    # Hidden units lead, (M, U, C): the product over them then runs over
    # contiguous planes, about ten times faster than over the last axis.
    shape = (w.shape[1], zmat.shape[0], flips.shape[0])
    mask = 0.5 * (1.0 - flips)  # (C, N): 1 on the sites group g flips
    dlog = -2.0 * ((zmat * b) @ mask.T)
    flipped = (zmat[:, None, :] * mask).reshape(-1, n).T  # (N, U*C)
    if unitary_coupled:
        # d_j = i delta_j: cosh(theta - 2d)/cosh(theta) = cos 2delta - i tanh(theta) sin 2delta
        two_delta = 2.0 * (w.imag.T @ flipped).reshape(shape)
        t = np.tanh(theta).T[:, :, None]
        ratio = np.exp(dlog) * (np.cos(two_delta) - 1j * t * np.sin(two_delta)).prod(axis=0)
    else:
        d = (w.T @ flipped).reshape(shape)
        th = theta.T[:, :, None]
        shifted = logcosh(th - 2.0 * d) - logcosh(th)
        ratio = np.exp(dlog + shifted.sum(axis=0))
    return (elements * ratio).sum(axis=1)
