"""Hot numeric kernels in numpy.

Kernel inputs are plain arrays; the wrapping modules own validation.

Both kernels take the hidden angles theta = m + zW of their rows from the
caller, so one theta pass serves a batch; ``local_energy_batch`` also takes
tanh(theta), which the caller computes once and feeds to the log-derivative
columns too.  ``logpsi_batch`` gives the log-amplitudes (exact mode
builds its statevector from them).  ``local_energy_batch`` serves the
sampled modes: it forms each amplitude ratio psi(z')/psi(z) from the flipped
sites alone (the cached-angle update of Carleo & Troyer, Science 355, 602
(2017)); exact mode gathers H psi from the full statevector instead.
Under the unitary-coupled restriction the coupling sums over the flipped
sites are imaginary, so the ratio needs only cos/sin and cannot overflow;
each factor is written in real arithmetic into one preallocated array.
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


def logpsi_batch(zmat, theta, b):
    """Unnormalized log-amplitudes for a (K, N) batch of spin rows with
    hidden angles ``theta``."""
    return zmat @ b + logcosh(theta).sum(axis=1)


def local_energy_batch(zmat, theta, b, w, flips, elements, unitary_coupled, t):
    """Local observable sum_g H(z, z*flip_g) * psi(z*flip_g)/psi(z) per row.

    ``zmat`` holds U spin rows (float64), ``theta`` their (U, M) hidden
    angles, ``t`` = tanh(theta) and ``elements`` the (U, C) matrix elements
    H(z, z*flip_g).  With d_j = sum_{i flipped} w_ij z_i the ratio is
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
        # d_j = i delta_j: cosh(theta - 2d)/cosh(theta) = cos 2delta - i tanh(theta) sin 2delta,
        # written in real arithmetic into one complex array.
        two_delta = 2.0 * (w.imag.T @ flipped).reshape(shape)
        sin = np.sin(two_delta)
        cos = np.cos(two_delta, out=two_delta)
        tt = t.T[:, :, None]
        factor = np.empty(shape, dtype=np.complex128)
        re, im = factor.real, factor.imag
        np.multiply(tt.imag, sin, out=re)
        np.add(cos, re, out=re)
        np.multiply(tt.real, sin, out=im)
        # 0 - x rather than -x: a zero keeps the + sign the complex form gave it.
        np.subtract(0.0, im, out=im)
        ratio = np.exp(dlog) * factor.prod(axis=0)
    else:
        d = (w.T @ flipped).reshape(shape)
        th = theta.T[:, :, None]
        shifted = logcosh(th - 2.0 * d) - logcosh(th)
        ratio = np.exp(dlog + shifted.sum(axis=0))
    return (elements * ratio).sum(axis=1)
