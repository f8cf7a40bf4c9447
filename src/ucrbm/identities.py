"""Architecture-mapping identities, verified densely on small spin spaces.

Each decoupling replaces a non-unitary or multi-spin coupling by hidden-unit
contractions with purely imaginary couplings.  Printed prefactors are never
trusted: every identity is certified as operator proportionality on the
dense diagonal, and the certified global scalar is what gets recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityCheckError
from ._kernels import logcosh
from .rbm import RbmParams, exact_statevector, hidden_angles, spin_rows
from .statevector import EXPANSION_CAP, check_cap, fidelity

MONOMIAL_TOL = 1e-8
REAL_COUPLING_TOL = 1e-10
HIDDEN_PAIR_TOL = 1e-8
CONVERSION_DROP_TOL = 1e-12  # monomials at or below it get no hidden units

_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _plus_contraction(phi: complex) -> complex:
    """<+| diag(e^{i phi}, e^{-i phi}) |+> evaluated as explicit 2x2 algebra."""
    diag = np.array([np.exp(1j * phi), np.exp(-1j * phi)])
    return complex(_PLUS @ (diag * _PLUS))


def _certify_proportionality(
    lhs: np.ndarray, rhs: np.ndarray, tol: float, what: str
) -> tuple[complex, float]:
    """Best global scalar lam with lhs ~= lam*rhs and the relative deviation.

    A deviation above ``tol`` raises ``IdentityCheckError`` naming ``what``,
    with both diagonals attached."""
    scale = float(np.max(np.abs(lhs)))
    anchor = int(np.argmax(np.abs(rhs)))
    if scale == 0.0:
        lam, deviation = 0.0 + 0.0j, float(np.max(np.abs(rhs)))
    elif rhs[anchor] == 0.0:
        lam, deviation = 0.0 + 0.0j, np.inf
    else:
        lam = complex(lhs[anchor] / rhs[anchor])
        deviation = float(np.max(np.abs(lhs - lam * rhs))) / scale
    if deviation > tol:
        raise IdentityCheckError(
            f"{what} failed (deviation {deviation:.3e})", lhs=lhs, rhs=rhs
        )
    return lam, deviation


@dataclass(frozen=True)
class MonomialDecoupling:
    """Replacement of exp(omega * v_1...v_n) by two hidden contractions with
    coupling i*pi/4 per spin and hidden bias i*m_tilde."""

    omega: complex
    degree: int
    m_tilde: complex
    c: complex  # certified scalar: lhs = c * contraction^2
    offset: float
    max_deviation: float


def _monomial_diagonals(omega: complex, degree: int, m_tilde: complex):
    zmat = spin_rows(degree)
    parity = np.prod(zmat, axis=1)
    lhs = np.exp(omega * parity)
    phi = m_tilde + (np.pi / 4) * zmat.sum(axis=1)
    rhs = np.array([_plus_contraction(p) ** 2 for p in phi])
    return lhs, rhs


def decouple_monomial(omega: complex, degree: int) -> MonomialDecoupling:
    """m_tilde = arctan(e^-omega) - (degree mod 4) pi/4, certified densely.

    With k spins at -1 the contraction angle is m_tilde + (pi/4)(degree - 2k),
    equal to arctan(e^-omega) - k pi/2 modulo pi.  Its cos^2 is therefore
    cos^2 arctan(e^-omega) for even k and sin^2 for odd k, whose ratio
    tan^2 = e^(-2 omega) is that of exp(omega * parity) for odd and even k.
    """
    if degree < 1:
        raise ValueError("monomial degree must be at least one")
    offset = (degree % 4) * np.pi / 4
    m_tilde = np.arctan(np.exp(-np.asarray(omega, dtype=complex))) - offset
    lhs, rhs = _monomial_diagonals(omega, degree, m_tilde)
    lam, deviation = _certify_proportionality(
        lhs, rhs, MONOMIAL_TOL, f"monomial decoupling for omega={omega!r}, degree={degree}"
    )
    return MonomialDecoupling(
        omega=complex(omega),
        degree=degree,
        m_tilde=complex(m_tilde),
        c=lam,
        offset=offset,
        max_deviation=deviation,
    )


@dataclass(frozen=True)
class RealCouplingDecoupling:
    """Removal of exp(w * v h) through one extra hidden unit with real
    rotation angles; negative w flips the visible rotation direction."""

    w_real: float
    delta: complex  # certified scalar
    omega_v: float
    omega_h: float
    max_deviation: float


def decouple_real_coupling(w_real: float) -> RealCouplingDecoupling:
    if not np.isfinite(w_real):
        raise ValueError("coupling must be finite")
    omega_v = 0.5 * np.arccos(np.exp(-2.0 * abs(w_real)))
    omega_h = -omega_v
    sign = 1.0 if w_real >= 0 else -1.0

    zmat = spin_rows(2)  # columns: v, h
    lhs = np.exp(w_real * zmat[:, 0] * zmat[:, 1])
    phi = sign * omega_v * zmat[:, 0] + omega_h * zmat[:, 1]
    rhs = np.array([_plus_contraction(p) for p in phi])
    lam, deviation = _certify_proportionality(
        lhs, rhs, REAL_COUPLING_TOL, f"real-coupling decoupling for w={w_real!r}"
    )
    return RealCouplingDecoupling(
        w_real=float(w_real),
        delta=lam,
        omega_v=float(omega_v),
        omega_h=float(omega_h),
        max_deviation=deviation,
    )


@dataclass(frozen=True)
class HiddenPairDecoupling:
    """Replacement of the intra-layer coupling exp(i omega h_1 h_2) by two
    deep-layer contractions."""

    omega: complex
    b: complex
    c: complex  # certified scalar
    max_deviation: float


def decouple_hidden_pair(omega: complex) -> HiddenPairDecoupling:
    omega = complex(omega)
    b = np.arctan(np.exp(-1j * omega)) - np.pi / 2

    zmat = spin_rows(2)  # columns: h1, h2
    lhs = np.exp(1j * omega * zmat[:, 0] * zmat[:, 1])
    phi = b + (np.pi / 4) * (zmat[:, 0] + zmat[:, 1])
    rhs = np.array([_plus_contraction(p) ** 2 for p in phi])
    lam, deviation = _certify_proportionality(
        lhs, rhs, HIDDEN_PAIR_TOL, f"hidden-pair decoupling for omega={omega!r}"
    )
    return HiddenPairDecoupling(omega=omega, b=complex(b), c=lam, max_deviation=deviation)


@dataclass(frozen=True)
class PolynomialExpansion:
    """Exponent of the hidden-unit product in the monomial basis.

    coefficients[mask] multiplies prod_{i in mask} v_i, with bit i of the
    mask marking visible spin i; mask 0 is the constant."""

    n_visible: int
    coefficients: np.ndarray
    residual: float

    def reconstruct(self, zmat: np.ndarray) -> np.ndarray:
        return _monomial_matrix(np.asarray(zmat, dtype=np.float64)) @ self.coefficients


def _monomial_matrix(zmat: np.ndarray) -> np.ndarray:
    """(K, 2^N) character matrix: column `mask` is prod_{i in mask} z_i."""
    n = zmat.shape[1]
    # bit i of each mask picks z_i into the column's product, else 1.0
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    return np.where(bits, zmat[:, None, :], 1.0).prod(axis=2)


def rbm_polynomial_coefficients(params: RbmParams) -> PolynomialExpansion:
    """Monomial coefficients of sum_j log cosh(theta_j(v)), N <= EXPANSION_CAP.

    The complex log is made continuous along a Gray-code walk through the
    configurations; a hidden-product amplitude passing through zero (within
    1e-14 of the largest amplitude) is reported as a branch failure."""
    n = params.n_visible
    check_cap(n, EXPANSION_CAP, "polynomial expansion over {} visible spins")
    zmat = spin_rows(n)
    lc = logcosh(hidden_angles(params, zmat)).sum(axis=1)

    magnitudes = np.exp(lc.real)
    floor = 1e-14 * float(magnitudes.max())
    small = np.nonzero(magnitudes < floor)[0]
    if small.size:
        raise IdentityCheckError(
            f"hidden-product amplitude vanishes at configuration index {small[0]}; "
            "the complex-log branch is ill-defined"
        )

    # stitch a continuous branch along the Gray sequence
    gray = np.arange(1 << n) ^ (np.arange(1 << n) >> 1)
    values = np.empty(1 << n, dtype=np.complex128)
    values[gray[0]] = lc[gray[0]]
    for prev, cur in zip(gray[:-1], gray[1:]):
        step = lc[cur] - lc[prev]
        wrapped = (step.imag + np.pi) % (2.0 * np.pi) - np.pi
        values[cur] = values[prev] + step.real + 1j * wrapped

    basis = _monomial_matrix(zmat)
    coeffs = np.linalg.solve(basis, values)
    residual = float(np.max(np.abs(basis @ coeffs - values)))
    return PolynomialExpansion(n_visible=n, coefficients=coeffs, residual=residual)


def rbm_to_unitary_coupled(params: RbmParams) -> tuple[RbmParams, float]:
    """Convert an arbitrary complex parameter set into a unitary-coupled one.

    Every monomial of degree >= 2 and size above ``CONVERSION_DROP_TOL`` in the
    expansion becomes two hidden units with coupling i*pi/4 to its spins and
    bias i*m_tilde; degree-1 terms fold into the visible biases.  Returns the
    converted parameters and the overlap |<out|in>| of the normalized states.
    """
    n = params.n_visible
    expansion = rbm_polynomial_coefficients(params)

    b_new = params.b.copy()
    for i in range(n):
        b_new[i] = b_new[i] + expansion.coefficients[1 << i]

    hidden_biases: list[complex] = []
    columns: list[np.ndarray] = []
    for mask in range(1 << n):
        degree = bin(mask).count("1")
        if degree < 2:
            continue
        coeff = expansion.coefficients[mask]
        if abs(coeff) <= CONVERSION_DROP_TOL:
            continue
        dec = decouple_monomial(coeff, degree)
        column = np.zeros(n, dtype=np.complex128)
        for i in range(n):
            if mask & (1 << i):
                column[i] = 1j * np.pi / 4
        for _ in range(2):
            hidden_biases.append(1j * dec.m_tilde)
            columns.append(column)

    m_new = np.array(hidden_biases, dtype=np.complex128)
    w_new = (
        np.stack(columns, axis=1)
        if columns
        else np.zeros((n, 0), dtype=np.complex128)
    )
    converted = RbmParams(b=b_new, m=m_new, w=w_new, unitary_coupled=True)
    fid = fidelity(exact_statevector(params), exact_statevector(converted))
    return converted, fid
