import numpy as np
import pytest

from ucrbm import identities
from ucrbm.errors import IdentityCheckError, SizeCapError
from ucrbm.identities import (
    decouple_hidden_pair,
    decouple_monomial,
    decouple_real_coupling,
    rbm_polynomial_coefficients,
    rbm_to_unitary_coupled,
)
from ucrbm.rbm import RbmParams, exact_statevector, random_init
from ucrbm.spins import all_spin_configs


class TestDecoupleMonomial:
    def test_zero_coupling_is_identity(self):
        dec = decouple_monomial(0.0, 2)
        assert dec.max_deviation < 1e-12
        # proportionality against the identity: constant contraction
        zmat = all_spin_configs(2).astype(float)
        phi = dec.m_tilde + (np.pi / 4) * zmat.sum(axis=1)
        rhs = dec.c * np.cos(phi) ** 2
        np.testing.assert_allclose(rhs, np.ones(4), atol=1e-12)

    @pytest.mark.parametrize(
        "omega,degree",
        [(0.3, 2), (0.2 + 0.5j, 3), (-0.45, 1), (0.7, 4), (0.15 - 0.3j, 2)],
    )
    def test_certified_against_direct_reconstruction(self, omega, degree):
        dec = decouple_monomial(omega, degree)
        assert dec.max_deviation <= 1e-8
        zmat = all_spin_configs(degree).astype(float)
        lhs = np.exp(omega * np.prod(zmat, axis=1))
        phi = dec.m_tilde + (np.pi / 4) * zmat.sum(axis=1)
        rhs = dec.c * np.cos(phi) ** 2
        np.testing.assert_allclose(rhs, lhs, atol=1e-10 * max(1.0, np.abs(lhs).max()))

    def test_offset_is_stable_across_a_sweep(self):
        offsets = {
            decouple_monomial(omega, 3).offset
            for omega in np.linspace(0.05, 0.9, 12)
        }
        assert len(offsets) == 1

    def test_every_degree_mod_four_certifies(self):
        for degree in range(1, 9):
            dec = decouple_monomial(0.25 + 0.1j, degree)
            assert dec.max_deviation <= 1e-8

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            decouple_monomial(0.1, 0)


class TestDecoupleRealCoupling:
    def test_zero_coupling(self):
        dec = decouple_real_coupling(0.0)
        assert dec.omega_v == 0.0 and dec.omega_h == 0.0
        assert dec.max_deviation < 1e-12

    def test_frequency_relation(self):
        for w in (0.3, 0.7, 1.2):
            dec = decouple_real_coupling(w)
            assert dec.omega_v == pytest.approx(0.5 * np.arccos(np.exp(-2 * abs(w))))
            assert dec.omega_h == -dec.omega_v

    @pytest.mark.parametrize("w", [0.7, -0.7, 0.3, -1.1])
    def test_diagonal_pattern(self, w):
        dec = decouple_real_coupling(w)
        assert dec.max_deviation <= 1e-10
        # reconstruct the contraction and compare to exp(w * v * h) directly
        sign = 1.0 if w >= 0 else -1.0
        zmat = all_spin_configs(2).astype(float)
        phi = sign * dec.omega_v * zmat[:, 0] + dec.omega_h * zmat[:, 1]
        rhs = dec.delta * np.cos(phi)
        lhs = np.exp(w * zmat[:, 0] * zmat[:, 1])
        np.testing.assert_allclose(rhs, lhs, atol=1e-12 * np.abs(lhs).max())

    def test_scalar_differs_from_half_exponential(self):
        # the certified prefactor is exp(|w|), not exp(|w|)/2
        dec = decouple_real_coupling(0.9)
        assert dec.delta == pytest.approx(np.exp(0.9), rel=1e-10)


class TestDecoupleHiddenPair:
    @pytest.mark.parametrize("omega", [0.0, np.pi / 4, 1.1, 0.4 - 0.2j])
    def test_certified(self, omega):
        dec = decouple_hidden_pair(omega)
        assert dec.max_deviation <= 1e-8
        zmat = all_spin_configs(2).astype(float)
        lhs = np.exp(1j * omega * zmat[:, 0] * zmat[:, 1])
        phi = dec.b + (np.pi / 4) * zmat.sum(axis=1)
        rhs = dec.c * np.cos(phi) ** 2
        np.testing.assert_allclose(rhs, lhs, atol=1e-10 * max(1.0, np.abs(lhs).max()))


class TestCertificationFailures:
    @pytest.mark.parametrize(
        "decouple, arg",
        [(decouple_monomial, (0.3, 2)), (decouple_real_coupling, (0.7,)),
         (decouple_hidden_pair, (1.1,))],
    )
    def test_broken_contraction_is_refused_with_both_diagonals(
        self, monkeypatch, decouple, arg
    ):
        true_contraction = identities._plus_contraction
        monkeypatch.setattr(
            identities, "_plus_contraction", lambda phi: true_contraction(phi) + 1e-6
        )
        with pytest.raises(IdentityCheckError, match="failed") as info:
            decouple(*arg)
        assert info.value.lhs is not None and info.value.rhs is not None
        assert info.value.lhs.shape == info.value.rhs.shape

    def test_vanishing_hidden_product_is_refused(self):
        # cosh(i pi/4 + i pi/4 z) is cos(pi/2), about 6e-17, at z = +1 and 1 at z = -1
        quarter = np.array([1j * np.pi / 4])
        p = RbmParams(np.zeros(1, complex), quarter, quarter[None, :])
        with pytest.raises(IdentityCheckError, match="vanishes at configuration index 0"):
            rbm_polynomial_coefficients(p)


class TestPolynomialExpansion:
    def test_no_hidden_units_gives_constant_only(self):
        p = RbmParams(np.array([0.2 + 0.1j, -0.3j]), np.zeros(0), np.zeros((2, 0)))
        expansion = rbm_polynomial_coefficients(p)
        assert np.max(np.abs(expansion.coefficients[1:])) < 1e-12

    def test_reconstruction_residual(self):
        for seed in range(10):
            p = random_init(3, 2, 0.4, seed, False)
            expansion = rbm_polynomial_coefficients(p)
            assert expansion.residual <= 1e-10

    def test_quadratic_coefficient_matches_taylor(self):
        # log cosh(m + w1 z1 + w2 z2): the z1 z2 coefficient is w1 w2 sech^2(m)
        # to second order in the couplings
        m_val = 0.4
        w1, w2 = 0.01, 0.013
        p = RbmParams(
            np.zeros(2, complex), np.array([m_val + 0j]), np.array([[w1], [w2]])
        )
        expansion = rbm_polynomial_coefficients(p)
        c12 = expansion.coefficients[0b11]
        expected = w1 * w2 * (1.0 - np.tanh(m_val) ** 2)
        assert c12 == pytest.approx(expected, abs=1e-6)

    def test_reconstruct_evaluates_exponent(self):
        p = random_init(2, 2, 0.3, 1, False)
        expansion = rbm_polynomial_coefficients(p)
        zmat = all_spin_configs(2).astype(float)
        from ucrbm._kernels import logcosh

        direct = logcosh(p.m[None, :] + zmat @ p.w).sum(axis=1)
        recon = expansion.reconstruct(zmat)
        np.testing.assert_allclose(np.exp(recon), np.exp(direct), rtol=1e-9)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            rbm_polynomial_coefficients(random_init(5, 2, 0.1, 0, False))

    def test_character_matrix_matches_the_product_loop(self):
        # column mask multiplies the z_i whose bit i is set, in increasing i
        for n in range(5):
            zmat = all_spin_configs(n).astype(float)
            loop = np.ones((1 << n, 1 << n))
            for mask in range(1 << n):
                for i in range(n):
                    if mask & (1 << i):
                        loop[:, mask] = loop[:, mask] * zmat[:, i]
            assert np.array_equal(identities._monomial_matrix(zmat), loop)


class TestRbmToUnitaryCoupled:
    def test_already_unitary_without_couplings(self):
        p = RbmParams(
            np.array([0.2 + 0.4j, -0.1j]),
            np.array([0.3 + 0.2j]),
            np.zeros((2, 1)),
            unitary_coupled=True,
        )
        converted, fid = rbm_to_unitary_coupled(p)
        assert converted.n_hidden == 0
        np.testing.assert_allclose(converted.b, p.b, atol=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2)])
    def test_random_complex_parameters(self, n, m):
        for seed in range(8):
            p = random_init(n, m, 0.25, seed, False)
            converted, fid = rbm_to_unitary_coupled(p)
            assert converted.unitary_coupled
            assert np.max(np.abs(converted.w.real), initial=0.0) == 0.0
            assert fid >= 1.0 - 1e-8
            assert converted.n_hidden <= 2 * ((1 << n) - 1)

    def test_couplings_are_quarter_pi(self):
        p = random_init(2, 2, 0.3, 5, False)
        converted, _ = rbm_to_unitary_coupled(p)
        nonzero = converted.w.imag[np.abs(converted.w.imag) > 0]
        np.testing.assert_allclose(nonzero, np.pi / 4, atol=1e-12)

    def test_statevector_equality_not_just_overlap(self):
        p = random_init(3, 3, 0.2, 2, False)
        converted, fid = rbm_to_unitary_coupled(p)
        a = exact_statevector(p).amplitudes
        b = exact_statevector(converted).amplitudes
        phase = np.vdot(b, a)
        phase /= abs(phase)
        np.testing.assert_allclose(a, phase * b, atol=1e-8)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            rbm_to_unitary_coupled(random_init(5, 1, 0.1, 0, False))
