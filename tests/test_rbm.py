import inspect
import itertools
import re
import warnings

import numpy as np
import pytest

from conftest import brute_force_amplitudes

from ucrbm import circuit, estimators, hamiltonians, identities, rbm, solver

from ucrbm.errors import SizeCapError
from ucrbm.rbm import (
    RbmParams,
    VariationalIndex,
    dense_statevector,
    exact_statevector,
    hidden_angles,
    log_amplitude,
    log_amplitude_batch,
    log_derivative_columns,
    log_derivatives,
    r_factor,
    random_init,
)
from ucrbm.spins import all_spin_configs, index_to_spins, spins_to_index


def zero_params(n, m, unitary=True):
    return RbmParams(
        b=np.zeros(n, complex),
        m=np.zeros(m, complex),
        w=np.zeros((n, m), complex),
        unitary_coupled=unitary,
    )


class TestRandomInit:
    def test_zero_stddev_gives_zero_parameters(self):
        p = random_init(3, 2, 0.0, 0, True)
        assert np.all(p.b == 0) and np.all(p.m == 0) and np.all(p.w == 0)

    def test_same_seed_is_bit_identical(self):
        a = random_init(4, 3, 0.1, 123, False)
        b = random_init(4, 3, 0.1, 123, False)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.w, b.w)

    def test_slot_variance_matches_target(self):
        # variance 0.01 per independent real slot, estimated over many seeds
        index = VariationalIndex(2, 2, True)
        draws = np.empty((10_000, index.size))
        for seed in range(draws.shape[0]):
            draws[seed] = index.flatten(random_init(2, 2, 0.1, seed, True))
        variances = draws.var(axis=0)
        assert np.all(np.abs(variances - 0.01) < 6e-4)
        assert np.abs(draws.mean(axis=0)).max() < 5e-3

    def test_unrestricted_populates_real_couplings(self):
        for seed in range(100):
            p = random_init(4, 4, 0.1, seed, False)
            assert np.all(p.w.real != 0.0)

    def test_unitary_flag_zeroes_real_couplings(self):
        for seed in range(100):
            p = random_init(4, 4, 0.1, seed, True)
            assert np.max(np.abs(p.w.real)) == 0.0
            assert np.any(p.w.imag != 0.0)

    def test_rejects_negative_stddev(self):
        with pytest.raises(ValueError):
            random_init(2, 2, -0.1, 0, True)

    @pytest.mark.parametrize("stddev", [np.nan, np.inf])
    def test_rejects_non_finite_stddev(self, stddev):
        with pytest.raises(ValueError, match="stddev must be finite"):
            random_init(2, 2, stddev, 0, True)


class TestLogAmplitude:
    def test_zero_parameters_give_zero(self):
        p = zero_params(3, 2)
        for k in range(8):
            assert log_amplitude(p, index_to_spins(k, 3)) == 0.0

    def test_single_visible_bias(self):
        p = RbmParams(np.array([0.3 + 0.2j]), np.zeros(0), np.zeros((1, 0)))
        assert log_amplitude(p, [1]) == pytest.approx(0.3 + 0.2j)
        assert log_amplitude(p, [-1]) == pytest.approx(-0.3 - 0.2j)

    def test_matches_hidden_spin_enumeration(self):
        # normalized closed-form amplitudes equal the normalized brute-force
        # hidden-spin sum entrywise (the 2^M constant cancels)
        for seed in range(10):
            for n, m in ((2, 1), (3, 3), (2, 3), (3, 2)):
                p = random_init(n, m, 0.3, seed, seed % 2 == 0)
                brute = brute_force_amplitudes(p)
                brute = brute / np.linalg.norm(brute)
                lp = log_amplitude_batch(p, all_spin_configs(n).astype(float))
                closed = np.exp(lp)
                closed = closed / np.linalg.norm(closed)
                np.testing.assert_allclose(closed, brute, atol=1e-12)

    def test_full_sweep_at_tight_tolerance(self):
        rng_seeds = range(100)
        for seed in rng_seeds:
            n = 2 + seed % 2
            m = 1 + seed % 3
            p = random_init(n, m, 0.25, seed, False)
            brute = brute_force_amplitudes(p)
            brute = brute / np.linalg.norm(brute)
            closed = np.exp(log_amplitude_batch(p, all_spin_configs(n).astype(float)))
            closed = closed / np.linalg.norm(closed)
            assert np.max(np.abs(closed - brute)) < 1e-12

    def test_overflow_safe_for_large_parameters(self):
        p = RbmParams(
            np.array([400.0 + 1.0j]), np.array([500.0 - 2.0j]), np.array([[300.0 + 0.5j]])
        )
        value = log_amplitude(p, [1])
        assert np.isfinite(value.real) and np.isfinite(value.imag)
        assert value.real == pytest.approx(400.0 + 800.0 - np.log(2.0), rel=1e-12)


class TestExactStatevector:
    def test_uniform_at_zero_parameters(self):
        sv = exact_statevector(zero_params(2, 2))
        np.testing.assert_allclose(sv.amplitudes, np.full(4, 0.5), atol=1e-14)

    def test_single_qubit_bias_ratio(self):
        # amplitudes normalize (e^b, e^{-b}); b = ln(3)/2 gives ratio 3
        p = RbmParams(np.array([0.5 * np.log(3.0)]), np.zeros(0), np.zeros((1, 0)))
        sv = exact_statevector(p)
        np.testing.assert_allclose(
            sv.amplitudes, np.array([3.0, 1.0]) / np.sqrt(10.0), atol=1e-14
        )

    def test_matches_brute_force_construction(self):
        p = random_init(3, 3, 0.3, 5, False)
        brute = brute_force_amplitudes(p)
        brute = brute / np.linalg.norm(brute)
        sv = exact_statevector(p)
        fid = abs(np.vdot(sv.amplitudes, brute))
        assert fid >= 1.0 - 1e-12

    def test_norm_is_one(self):
        for seed in range(5):
            sv = exact_statevector(random_init(4, 4, 0.5, seed, True))
            assert abs(sv.norm - 1.0) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(SizeCapError):
            exact_statevector(zero_params(5, 0), cap=4)

    def test_one_validated_construction(self, monkeypatch):
        # normalizing before the one StateVector keeps the amplitudes of
        # StateVector(...).normalized() bitwise, with one finite check, in
        # both forms of the pass: the doubling, and the per-element log form
        # for parameters whose hidden products leave the doubling's band
        from ucrbm import _kernels
        from ucrbm.statevector import StateVector

        zmat = all_spin_configs(4).astype(np.float64)
        p = random_init(4, 3, 0.4, 6, False)
        amps, t = _kernels.amplitudes_tanh(p.b, p.m, p.w)
        doubled = StateVector(4, amps).normalized()
        big = random_init(4, 3, 100.0, 6, False)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _kernels.amplitudes_tanh(big.b, big.m, big.w) is None
        theta = hidden_angles(big, zmat)
        lp = zmat @ big.b + _kernels.logcosh(theta).sum(axis=1)
        log_form = StateVector(4, np.exp(lp - lp.real.max())).normalized()

        checks = []
        validate = StateVector.__post_init__

        def counted(self):
            checks.append(self)
            validate(self)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        for params, want, want_t in ((p, doubled, t), (big, log_form, np.tanh(theta))):
            checks.clear()
            sv, sv_t = dense_statevector(params)
            assert len(checks) == 1
            assert np.array_equal(sv.amplitudes, want.amplitudes)
            assert np.array_equal(sv_t, want_t)
        # a NaN angle on the log-form path reaches the one finite check
        theta[3, 1] = np.nan
        monkeypatch.setattr(rbm, "hidden_angles", lambda params, rows: theta)
        with pytest.raises(ValueError, match="non-finite"):
            dense_statevector(big)

    @pytest.mark.parametrize("scale", [0.1, 0.7, 1.5])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("unitary", [True, False])
    def test_dense_pass_builds_the_same_statevector(self, unitary, n, scale):
        # exact_statevector and the estimators' dense pass share one
        # construction, so expectation_exact reads the trace's psi bitwise;
        # the oracle is the per-element principal-branch log-amplitude
        p = random_init(n, n, scale, n, unitary)
        sv = exact_statevector(p)
        point = estimators.exact_point(p, hamiltonians.build_tfi(n, 0.5))
        assert np.array_equal(sv.amplitudes, point.psi.amplitudes)
        lp = log_amplitude_batch(p, all_spin_configs(n))
        want = np.exp(lp - lp.real.max())
        assert np.abs(sv.amplitudes - want / np.linalg.norm(want)).max() <= 1e-13


def assert_dense_pass_matches_the_oracles(p):
    """psi of the dense pass within 1e-13 of the per-element log-amplitude
    oracle, global phase included, and tanh theta against np.tanh of the
    angles: absolute, widened by tanh's slope 1 - t^2, which multiplies the
    rounding of theta."""
    n = p.n_visible
    sv, t = dense_statevector(p)
    zmat = all_spin_configs(n).astype(np.float64)
    lp = log_amplitude_batch(p, zmat)
    want = np.exp(lp - lp.real.max())
    want /= np.linalg.norm(want)
    assert np.abs(sv.amplitudes - want).max() <= 1e-13
    tanh = np.tanh(hidden_angles(p, zmat))
    assert t.shape == tanh.shape
    assert np.all(np.abs(t - tanh) <= 1e-13 * (1.0 + np.abs(tanh) ** 2))
    return sv, t, want


class TestUnitaryDenseLane:
    # The doubling of per-site factors, first written for unitary
    # couplings, builds psi and tanh theta for every coupling, with no
    # hidden-angle array; the ansatz flag does not change it.
    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_matches_the_oracles_and_the_unrestricted_lane(self, n, alpha, scale):
        p = random_init(n, alpha * n, scale, 7 * n + alpha, True)
        sv, t, _ = assert_dense_pass_matches_the_oracles(p)
        same = RbmParams(p.b, p.m, p.w, unitary_coupled=False)
        sv_u, t_u = dense_statevector(same)
        assert np.array_equal(sv.amplitudes, sv_u.amplitudes)
        assert np.array_equal(t, t_u)

    @pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_unrestricted_couplings_match_the_oracles(self, n, alpha, scale):
        # |x_j| may exceed 1 here, and no such case leaves the band
        from ucrbm import _kernels

        p = random_init(n, alpha * n, scale, 7 * n + alpha, False)
        assert _kernels.amplitudes_tanh(p.b, p.m, p.w) is not None
        assert_dense_pass_matches_the_oracles(p)

    @pytest.mark.parametrize(
        "re_w, m, scale", [(-10.0, 20, 0.0), (-400.0, 3, 0.0), (0.0, 6, 50.0), (0.0, 6, 1e300)]
    )
    def test_products_above_the_ceiling_take_the_log_form(self, re_w, m, scale):
        # unrestricted couplings let |x_j| exceed 1.  Re w = -10 gives
        # |g_j| near 2^28 on the rows with z_0 = +1, so 20 hidden units put
        # their product near 2^556: finite, yet above the ceiling.  Re w =
        # -400 overflows the site factors themselves, and random scales 50
        # and 1e300 leave the band either way.  None of it may warn.
        from ucrbm import _kernels

        p = random_init(3, m, scale, 4, False)
        w = p.w.copy()
        w[0] += re_w
        p = RbmParams(p.b, p.m + 0.01, w)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _kernels.amplitudes_tanh(p.b, p.m, p.w) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_dense_pass_matches_the_oracles(p)

    @staticmethod
    def log_hidden_product(p):
        """log |prod_j cosh(theta_j) exp(-s_j theta_j)| per row, the product
        whose underflow sends the dense pass to its log form."""
        from ucrbm import _kernels

        theta = hidden_angles(p, all_spin_configs(p.n_visible).astype(np.float64))
        s = np.where(p.m.real >= 0.0, 1.0, -1.0)
        return (_kernels.logcosh(theta) - s * theta).real.sum(axis=1)

    def test_every_row_underflowing_takes_the_log_form(self):
        # Re m = 0 and Im m near pi/2: every cosh theta_j is near 0, and
        # so is every row's product, far below the smallest normal float
        rng = np.random.default_rng(3)
        n, m = 3, 128
        p = RbmParams(
            b=0.3 * rng.normal(size=n) + 0.3j * rng.normal(size=n),
            m=1j * (np.pi / 2 + 1e-3 * rng.normal(size=m)),
            w=1e-4j * rng.normal(size=(n, m)),
            unitary_coupled=True,
        )
        assert np.all(self.log_hidden_product(p) < np.log(np.finfo(float).tiny))
        assert_dense_pass_matches_the_oracles(p)

    def test_one_underflowing_row_keeps_its_relative_precision(self):
        # theta_j(+1, ..., +1) = i pi / 2 for every j: that row's product
        # falls below the doubling's floor, while the other rows' products are
        # of order 1; its amplitude, about 1e-195 of theirs, stays exact
        from ucrbm import _kernels

        rng = np.random.default_rng(5)
        n, m = 4, 12
        omega = rng.uniform(0.2, 0.35, size=(n, m))
        p = RbmParams(
            b=0.2 * rng.normal(size=n) + 0.2j * rng.normal(size=n),
            m=1j * (np.pi / 2 - omega.sum(axis=0)),
            w=1j * omega,
            unitary_coupled=True,
        )
        logs = self.log_hidden_product(p)
        assert logs[0] < np.log(_kernels._PRODUCT_FLOOR) and np.all(logs[1:] > -50.0)
        sv, _, want = assert_dense_pass_matches_the_oracles(p)
        assert abs(np.log(sv.amplitudes[0] / want[0])) <= 1e-12


class TestLogDerivatives:
    def test_zero_parameter_slots(self):
        p = zero_params(2, 2)
        index = VariationalIndex.for_params(p)
        z = np.array([1, -1], dtype=np.int8)
        derivs = log_derivatives(p, z)
        labels = index.labels()
        for i in range(2):
            assert derivs[labels.index(f"b_re[{i}]")] == z[i]
            assert derivs[labels.index(f"m_re[{i}]")] == 0.0  # tanh(0)

    def test_imaginary_slots_are_i_times_real_slots(self):
        p = random_init(3, 2, 0.4, 1, False)
        z = index_to_spins(5, 3)
        derivs = log_derivatives(p, z)
        n, m = 3, 2
        np.testing.assert_allclose(derivs[n : 2 * n], 1j * derivs[:n], atol=1e-15)
        np.testing.assert_allclose(
            derivs[2 * n + m : 2 * n + 2 * m], 1j * derivs[2 * n : 2 * n + m], atol=1e-15
        )

    @pytest.mark.parametrize("unitary", [True, False])
    def test_finite_difference_all_slots(self, unitary):
        step = 1e-6
        p = random_init(2, 2, 0.3, 9, unitary)
        index = VariationalIndex.for_params(p)
        theta = index.flatten(p)
        for k in range(4):
            z = index_to_spins(k, 2)
            derivs = log_derivatives(p, z)
            for slot in range(index.size):
                bump = np.zeros(index.size)
                bump[slot] = step
                fd = (
                    log_amplitude(index.unflatten(theta + bump), z)
                    - log_amplitude(index.unflatten(theta - bump), z)
                ) / (2 * step)
                assert abs(fd - derivs[slot]) < 1e-6


    @pytest.mark.parametrize("m", [3, 0])
    @pytest.mark.parametrize("unitary", [True, False])
    def test_columns_match_einsum_concatenate(self, unitary, m):
        p = random_init(4, m, 0.7, 5, unitary)
        zmat = all_spin_configs(4).astype(np.float64)
        t = np.tanh(hidden_angles(p, zmat))
        zc = zmat.astype(np.complex128)
        zt = np.einsum("kj,ki->kji", t, zc).reshape(zmat.shape[0], -1)
        want = np.concatenate([zc, t, zt], axis=1)
        assert log_derivative_columns(zmat, t).tobytes() == want.tobytes()


class TestVariationalIndex:
    @pytest.mark.parametrize("n,m,unitary", [(1, 0, True), (2, 3, True), (3, 2, False), (4, 1, False)])
    def test_flatten_unflatten_round_trip(self, n, m, unitary):
        p = random_init(n, m, 0.7, 42, unitary)
        index = VariationalIndex.for_params(p)
        q = index.unflatten(index.flatten(p))
        assert np.array_equal(p.b, q.b)
        assert np.array_equal(p.m, q.m)
        assert np.array_equal(p.w, q.w)

    def test_size_counts_independent_slots(self):
        assert VariationalIndex(3, 2, True).size == 2 * 3 + 2 * 2 + 6
        assert VariationalIndex(3, 2, False).size == 2 * 3 + 2 * 2 + 12
        assert len(VariationalIndex(3, 2, False).labels()) == 22

    def test_indices_of_one_shape_share_one_gather(self):
        # the slot floats are built once per (N, M, ansatz), read-only
        a, b = VariationalIndex(4, 3, False), VariationalIndex(4, 3, False)
        assert a.floats is b.floats
        assert not a.floats.flags.writeable
        assert VariationalIndex(4, 3, True).floats is not a.floats

    def test_unflatten_never_writes_real_couplings_under_flag(self):
        rng = np.random.default_rng(3)
        index = VariationalIndex(3, 3, True)
        for _ in range(200):
            p = index.unflatten(rng.normal(0, 2.0, index.size))
            assert np.max(np.abs(p.w.real)) == 0.0

    def test_column_major_coupling_order(self):
        p = random_init(2, 2, 0.5, 8, False)
        index = VariationalIndex.for_params(p)
        vec = index.flatten(p)
        labels = index.labels()
        assert labels[8:12] == ["w_im[0,0]", "w_im[1,0]", "w_im[0,1]", "w_im[1,1]"]
        assert vec[labels.index("w_im[1,0]")] == p.w[1, 0].imag
        assert vec[labels.index("w_re[0,1]")] == p.w[0, 1].real
        # every label names the parameter float that flatten puts in its slot
        shapes = [(1, 0), (2, 2), (3, 2)]
        for (n, m), unitary in itertools.product(shapes, [True, False]):
            p = random_init(n, m, 0.5, 8, unitary)
            index = VariationalIndex.for_params(p)
            vec, labels = index.flatten(p), index.labels()
            assert len(labels) == len(set(labels)) == index.size == vec.shape[0]
            for slot, label in enumerate(labels):
                found = re.fullmatch(r"([bmw])_(re|im)\[([\d,]+)\]", label)
                name, part, at = found.groups()
                entry = getattr(p, name)[tuple(int(k) for k in at.split(","))]
                want = entry.real if part == "re" else entry.imag
                assert np.array(vec[slot]).tobytes() == np.array(want).tobytes(), label

    @pytest.mark.parametrize("n,m,unitary", [(1, 0, True), (3, 2, True), (3, 2, False), (6, 6, False)])
    def test_unflatten_matches_the_complex_arithmetic_bitwise(self, n, m, unitary):
        # reference: each block assembled as Re + 1j * Im from the slot
        # order, w = 1j * Im(w) under the flag (signed zeros included)
        index = VariationalIndex(n, m, unitary)
        rng = np.random.default_rng(n + m)
        for _ in range(20):
            vec = rng.normal(0.0, 1.0, index.size)
            vec[rng.random(index.size) < 0.2] = 0.0
            cuts = np.cumsum([n, n, m, m, n * m])
            re_b, im_b, re_m, im_m, im_w, re_w = np.split(vec, cuts)
            w = 1j * im_w.reshape(m, n).T
            if not unitary:
                w = re_w.reshape(m, n).T + w
            p = index.unflatten(vec)
            for got, want in ((p.b, re_b + 1j * im_b), (p.m, re_m + 1j * im_m), (p.w, w)):
                assert got.dtype == np.complex128 and got.flags.c_contiguous
                assert not got.flags.writeable
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("unitary", [True, False])
    def test_unflatten_rejects_non_finite_slots(self, bad, unitary):
        index = VariationalIndex(3, 2, unitary)
        for slot in range(index.size):
            vec = np.full(index.size, 0.1)
            vec[slot] = bad
            with pytest.raises(ValueError, match="non-finite"):
                index.unflatten(vec)

    def test_unflatten_output_keeps_the_real_coupling_check(self):
        # Re(w) slots exist only without the flag; a nonzero one cannot be
        # rebuilt into unitary-coupled parameters
        p = VariationalIndex(3, 2, False).unflatten(np.full(22, 0.1))
        assert np.all(p.w.real == 0.1)
        with pytest.raises(ValueError, match="Re\\(w\\) == 0"):
            RbmParams(p.b, p.m, p.w, unitary_coupled=True)
        assert RbmParams(p.b, p.m, 1j * p.w.imag, unitary_coupled=True).unitary_coupled


class TestRFactor:
    def test_identity_operator(self):
        assert r_factor(0.0, 1) == 1.0
        assert r_factor(0.0, -1) == 0.0

    def test_matches_matrix_element(self):
        # <+| exp(m Z) |s> computed with explicit 2x2 matrices
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        for m_val in (np.log(2.0), -0.3, 0.9):
            gate = np.diag([np.exp(m_val), np.exp(-m_val)])
            assert r_factor(m_val, 1) == pytest.approx(plus @ gate @ plus, abs=1e-14)
            assert r_factor(m_val, -1) == pytest.approx(plus @ gate @ minus, abs=1e-14)

    def test_known_values(self):
        assert r_factor(np.log(2.0), 1) == pytest.approx(1.25)
        assert r_factor(np.log(2.0), -1) == pytest.approx(0.75)
        assert r_factor(-0.3, -1) == pytest.approx(-np.sinh(0.3))

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            r_factor(0.1, 0)


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RbmParams(np.array([np.nan + 0j]), np.zeros(0), np.zeros((1, 0)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RbmParams(np.zeros(2, complex), np.zeros(1, complex), np.zeros((2, 2), complex))

    def test_rejects_real_couplings_under_flag(self):
        with pytest.raises(ValueError):
            RbmParams(
                np.zeros(1, complex),
                np.zeros(1, complex),
                np.array([[0.1 + 0.2j]]),
                unitary_coupled=True,
            )

    def test_arrays_are_immutable(self):
        p = random_init(2, 2, 0.1, 0, True)
        with pytest.raises(ValueError):
            p.b[0] = 1.0


class TestSizeCapPolicy:
    def test_no_per_call_cap_or_tolerance_knobs(self):
        # caps are declared once beside check_cap; expectation_exact's cap,
        # passed through to exact_point, is the one override of the
        # estimators, and exact_statevector takes the same override
        allowed = {
            ("expectation_exact", "cap"),
            ("exact_point", "cap"),
            ("exact_statevector", "cap"),
        }
        knobs = {"cap", "hidden_cap", "drop_tol", "fd_step"}
        found = set()
        for module in (circuit, estimators, hamiltonians, identities, rbm, solver):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    found |= {(name, p) for p in inspect.signature(fn).parameters if p in knobs}
        assert found == allowed


class TestSpinHelpers:
    def test_index_round_trip(self):
        for n in (1, 3, 5):
            for k in range(1 << n):
                assert spins_to_index(index_to_spins(k, n)) == k

    def test_big_endian_convention(self):
        # qubit 0 is the most significant bit; |0> carries z = +1
        assert spins_to_index(np.array([-1, 1, 1])) == 4
