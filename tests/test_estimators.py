import warnings

import numpy as np
import pytest

from conftest import dense_from_terms, random_pauli_hamiltonian

import ucrbm.estimators
from ucrbm.circuit import (
    distinct_rows,
    enumerate_branches,
    measure_indices,
    sample_protocol_batch,
)
from ucrbm.errors import DegenerateWeightError, NumericalIntegrityError, SizeCapError
from ucrbm.estimators import (
    C_SIGN,
    MIN_ESS_FRACTION,
    Estimate,
    SrSystem,
    _assemble_system,
    _check_weights,
    _dense_monomials,
    _draw_samples,
    _evaluate_samples,
    _moment_layout,
    _moments,
    _real_form,
    _slot_layout,
    _slot_system,
    _visible_monomials,
    compute_a_c_exact,
    compute_a_c_sampled,
    exact_point,
    expectation_ensemble,
    expectation_exact,
    expectation_vmc,
    local_observable,
)
from ucrbm.hamiltonians import (
    PauliHamiltonian,
    TqdParams,
    build_afh,
    build_tfi,
    build_tqd,
    dense_matrix,
)
from ucrbm.rbm import (
    RbmParams,
    VariationalIndex,
    exact_statevector,
    log_derivatives_batch,
    random_init,
)
from ucrbm.solver import IteConfig, ite_run
from ucrbm.spins import all_spin_configs, index_to_spins


def zero_params(n, m):
    return RbmParams(
        b=np.zeros(n, complex), m=np.zeros(m, complex), w=np.zeros((n, m), complex),
        unitary_coupled=True,
    )


class TestLocalObservable:
    def test_identity_hamiltonian_returns_coefficient(self):
        h = PauliHamiltonian(2, ((0.37, "II"),))
        p = random_init(2, 2, 0.4, 0, True)
        for k in range(4):
            assert local_observable(p, index_to_spins(k, 2), h) == pytest.approx(0.37)

    def test_uniform_state_transverse_field(self):
        n = 3
        words = ["".join("X" if i == j else "I" for i in range(n)) for j in range(n)]
        h = PauliHamiltonian(n, tuple((-0.8, word) for word in words))
        p = zero_params(n, 2)
        for k in range(8):
            value = local_observable(p, index_to_spins(k, n), h)
            assert value == pytest.approx(-0.8 * n)

    def test_density_weighted_sum_equals_dense_expectation(self):
        h = build_tfi(3, 0.9)
        p = random_init(3, 3, 0.4, 2, True)
        psi = exact_statevector(p)
        total = 0.0
        for k in range(8):
            total += psi.probabilities()[k] * local_observable(p, index_to_spins(k, 3), h)
        dense = dense_from_terms(h.terms, 3)
        expected = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        assert total.real == pytest.approx(expected, abs=1e-10)
        assert abs(total.imag) < 1e-10


class TestExpectationExact:
    def test_uniform_state_tfi(self):
        assert expectation_exact(zero_params(2, 2), build_tfi(2, 0.5)).mean == pytest.approx(-1.0)

    def test_matches_dense_for_random_hamiltonians(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            h = random_pauli_hamiltonian(rng, 4, 7)
            p = random_init(4, 3, 0.3, seed, False)
            psi = exact_statevector(p)
            expected = np.vdot(psi.amplitudes, dense_from_terms(h.terms, 4) @ psi.amplitudes)
            assert expectation_exact(p, h).mean == pytest.approx(expected.real, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("unitary", [True, False])
    def test_same_sum_as_the_dense_pass(self, n, unitary):
        # both read the same psi and sum conj(psi) H psi the same way, so the
        # exact energy of a trace and of expectation_exact agree bitwise
        h = build_tfi(n, 0.5)
        for seed in range(3):
            p = random_init(n, n, 0.5, seed, unitary)
            assert expectation_exact(p, h).mean == exact_point(p, h).energy.real

    def test_estimate_fields(self):
        est = expectation_exact(zero_params(2, 0), build_tfi(2, 1.0))
        assert est.mode == "exact" and est.std_error == 0.0 and est.n_samples == 0

    def test_rejects_non_finite_value(self, monkeypatch):
        # H psi is a bare array with no finiteness check of its own
        import ucrbm.estimators

        monkeypatch.setattr(
            ucrbm.estimators, "apply_h", lambda h, psi: np.full(4, np.nan, complex)
        )
        with pytest.raises(NumericalIntegrityError, match="non-finite"):
            expectation_exact(zero_params(2, 2), build_tfi(2, 0.5))


class TestExpectationVmc:
    def test_constant_local_energy_has_zero_error(self):
        # the transverse-field part has constant local energy on the uniform
        # state; the ZZ bond would add a per-sample +-1, so it is left out here
        h = PauliHamiltonian(2, ((-0.5, "XI"), (-0.5, "IX")))
        est = expectation_vmc(zero_params(2, 2), h, 200, np.random.default_rng(0))
        assert est.mean == pytest.approx(-1.0)
        assert est.std_error == 0.0
        assert est.mode == "vmc" and est.n_samples == 200

    def test_uniform_state_tfi_within_errors(self):
        est = expectation_vmc(zero_params(2, 2), build_tfi(2, 0.5), 10_000, np.random.default_rng(0))
        assert abs(est.mean - (-1.0)) <= 3 * est.std_error
        assert est.std_error == pytest.approx(0.01, rel=0.2)

    def test_three_sigma_consistency(self):
        h = build_afh(4)
        p = random_init(4, 4, 0.2, 7, True)
        exact = expectation_exact(p, h).mean
        failures = 0
        for seed in range(60):
            est = expectation_vmc(p, h, 4000, np.random.default_rng([10, seed]))
            if abs(est.mean - exact) > 3 * est.std_error:
                failures += 1
        assert failures <= 2

    def test_error_scales_as_inverse_sqrt(self):
        h = build_tfi(3, 0.6)
        p = random_init(3, 3, 0.35, 5, True)
        scaled = []
        for n in (100, 1000, 10000):
            est = expectation_vmc(p, h, n, np.random.default_rng([3, n]))
            scaled.append(est.std_error * np.sqrt(n))
        assert max(scaled) / min(scaled) < 2.0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            expectation_vmc(zero_params(2, 1), build_tfi(2, 1.0), 0, np.random.default_rng(0))


class TestExpectationEnsemble:
    def test_zero_parameters_every_sample_exact(self):
        # X-only observable: every run lands on the uniform state and every
        # sampled local energy equals the plus-state expectation exactly
        h = PauliHamiltonian(2, ((-0.5, "XI"), (-0.5, "IX")))
        est = expectation_ensemble(zero_params(2, 2), h, 50, np.random.default_rng(0))
        assert est.mean == pytest.approx(-1.0)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_pure_imaginary_hidden_bias_reduces_to_post_selection(self):
        # weights are 0/1, so the weighted mean runs over the all-plus branch only
        p = random_init(2, 2, 0.4, 3, True)
        p = RbmParams(p.b, 1j * p.m.imag, p.w, unitary_coupled=True)
        h = build_tfi(2, 0.8)
        exact = expectation_exact(p, h).mean
        est = expectation_ensemble(p, h, 4000, np.random.default_rng(11))
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_three_sigma_consistency_with_weights(self):
        h = build_tfi(2, 0.7)
        p = random_init(2, 2, 0.4, 1, True)  # Re(m) != 0 with probability 1
        assert np.max(np.abs(p.m.real)) > 0
        exact = expectation_exact(p, h).mean
        failures = 0
        for seed in range(60):
            est = expectation_ensemble(p, h, 4000, np.random.default_rng([20, seed]))
            if abs(est.mean - exact) > 3 * est.std_error:
                failures += 1
        assert failures <= 2

    def test_degenerate_weights_raise(self):
        # Re(m) = 0 gives zero weight except on the all-plus history; strong
        # couplings make that history rare, so a tiny batch can miss it
        p = RbmParams(
            np.zeros(1, complex), np.array([1.4j]), np.array([[1.5j]]),
            unitary_coupled=True,
        )
        h = PauliHamiltonian(1, ((1.0, "Z"),))
        raised = False
        for seed in range(50):
            try:
                expectation_ensemble(p, h, 1, np.random.default_rng(seed))
            except DegenerateWeightError:
                raised = True
                break
        assert raised

    @staticmethod
    def rarely_accepted_params():
        # Re m = 0: a run weighs 1 when every hidden outcome is +1, else 0.
        # P(s_j = +1) = cos^2 Im m_j = 0.42, so 0.42^8 ~ 9.7e-4 of runs count.
        n = 8
        return RbmParams(
            np.zeros(n, complex), np.full(n, 1j * np.arccos(np.sqrt(0.42))),
            np.zeros((n, n), complex), unitary_coupled=True,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_low_effective_sample_size_is_refused(self, seed):
        # a handful of runs carry weight: not all weights vanished, but the
        # effective sample size is far below MIN_ESS_FRACTION of the batch
        p, h = self.rarely_accepted_params(), build_tfi(8, 0.5)
        weights = sample_protocol_batch(p, 4096, np.random.default_rng(seed)).weights
        assert 0 < weights.sum() < MIN_ESS_FRACTION * 4096
        with pytest.raises(DegenerateWeightError, match="effective sample size"):
            expectation_ensemble(p, h, 4096, np.random.default_rng(seed))
        with pytest.raises(DegenerateWeightError, match="effective sample size"):
            compute_a_c_sampled(p, h, 4096, np.random.default_rng(seed), mode="ensemble")

    def test_requires_unitary_couplings(self):
        p = random_init(2, 2, 0.3, 0, False)
        with pytest.raises(ValueError):
            expectation_ensemble(p, build_tfi(2, 1.0), 10, np.random.default_rng(0))

    def test_draw_refuses_unrestricted_couplings_before_drawing(self):
        # the flipped-site kernel reads no Re w: unrestricted parameters
        # would get wrong local energies, so the sampler refuses them before
        # it reads the generator
        p = random_init(2, 2, 0.3, 0, False)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="requires unitary couplings"):
            _draw_samples(p, build_tfi(2, 1.0), 50, rng, "ensemble")
        assert rng.bit_generator.state == state

    def test_runs_past_the_statevector_cap(self):
        # the factorized sampler holds no statevector: N = 16 runs although
        # 2^17 amplitudes would exceed the default cap
        h = build_tfi(16, 0.5)
        p = random_init(16, 4, 0.3, 3, True)
        exact = expectation_exact(p, h, cap=16).mean
        est = expectation_ensemble(p, h, 20_000, np.random.default_rng(0))
        assert abs(est.mean - exact) <= 4 * est.std_error
        system = compute_a_c_sampled(
            p, h, 20_000, np.random.default_rng(1), mode="ensemble"
        )
        assert abs(system.energy.mean - exact) <= 4 * system.energy.std_error

    def test_builds_no_dense_rows(self, monkeypatch):
        # S and F come from the monomials of the distinct sampled rows: at
        # N = 40 the 2^N dense rows could not be held, so nothing may build
        # them
        import ucrbm.circuit
        import ucrbm.rbm

        def refuse(n):
            raise AssertionError(f"built the 2^{n} dense rows")

        for module in (ucrbm.rbm, ucrbm.circuit, ucrbm.estimators):
            for name in ("spin_rows", "all_spin_configs"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        p = random_init(40, 3, 0.1, 3, True)
        system = compute_a_c_sampled(
            p, build_tfi(40, 0.5), 500, np.random.default_rng(1), mode="ensemble"
        )
        size = VariationalIndex.for_params(p).size
        assert system.a.shape == (size, size)
        assert np.isfinite(system.energy.mean)

    @staticmethod
    def overflowing_params():
        # cosh^2(400) = inf: every weight would be inf, and the normalized
        # weights inf/inf = NaN, dropping every row
        p = random_init(3, 2, 0.3, 0, True)
        m = p.m.copy()
        m[0] = 400.0 + 1j * m[0].imag
        return RbmParams(p.b, m, p.w, unitary_coupled=True)

    def test_overflowing_weights_are_refused_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NumericalIntegrityError, match="overflows a float"):
            expectation_ensemble(self.overflowing_params(), build_tfi(3, 0.5), 100, rng)
        assert rng.bit_generator.state == state

    def test_overflowing_weights_stop_ite_at_the_first_step(self):
        cfg = IteConfig(mode="ensemble", n_steps=3, n_samples=100, convergence_threshold=0.0)
        with pytest.raises(NumericalIntegrityError, match="^step 0: .*overflows a float"):
            ite_run(self.overflowing_params(), build_tfi(3, 0.5), cfg)

    def test_largest_finite_weight_is_accepted(self):
        # prod_j cosh^2 Re m_j stays below the float maximum at Re m_0 = 350
        p = self.overflowing_params()
        m = p.m.copy()
        m[0] = 350.0 + 1j * m[0].imag
        p = RbmParams(p.b, m, p.w, unitary_coupled=True)
        weights = sample_protocol_batch(p, 100, np.random.default_rng(0)).weights
        assert np.all(np.isfinite(weights)) and weights.max() > 1e300


class TestComputeAcExact:
    def test_zero_parameter_structure(self):
        p = zero_params(3, 2)
        system = compute_a_c_exact(p, build_tfi(3, 0.5))
        index = VariationalIndex.for_params(p)
        n = 3
        bias_block = system.a[: 2 * n, : 2 * n]
        np.testing.assert_allclose(bias_block, np.eye(2 * n), atol=1e-12)
        np.testing.assert_allclose(system.a[2 * n :, :], 0.0, atol=1e-12)
        assert system.c.shape == (index.size,)

    def test_symmetric_and_psd(self):
        h = build_tfi(3, 0.8)
        for seed in range(100):
            system = compute_a_c_exact(random_init(3, 3, 0.4, seed, seed % 2 == 0), h)
            assert np.array_equal(system.a, system.a.T)
            assert np.linalg.eigvalsh(system.a)[0] >= -1e-8

    def test_c_matches_finite_difference_gradient(self):
        h = build_tfi(3, 0.6)
        step = 1e-5
        for seed in range(3):
            p = random_init(3, 3, 0.3, seed, True)
            index = VariationalIndex.for_params(p)
            theta = index.flatten(p)
            system = compute_a_c_exact(p, h)
            for slot in range(0, index.size, 5):
                bump = np.zeros(index.size)
                bump[slot] = step
                grad = (
                    expectation_exact(index.unflatten(theta + bump), h).mean
                    - expectation_exact(index.unflatten(theta - bump), h).mean
                ) / (2 * step)
                assert system.c[slot] == pytest.approx(-0.5 * grad, abs=1e-6)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_tfi(3, 0.5), lambda: build_afh(4), lambda: build_tqd(TqdParams(b_field=0.5))],
        ids=["tfi3", "afh4", "tqd6"],
    )
    @pytest.mark.parametrize("unitary", [True, False])
    def test_matches_covariance_definition(self, build, unitary):
        # A = Re Cov(O, O) and C = C_SIGN Re Cov(O, E_loc) under p = |psi|^2,
        # with the slot matrix O and E_loc = (H psi)/psi from the dense matrix.
        h = build()
        n = h.n_qubits
        for seed in range(3):
            p = random_init(n, 2, 0.3, seed, unitary)
            psi = exact_statevector(p).amplitudes
            prob = np.abs(psi) ** 2
            eloc = (dense_matrix(h) @ psi) / psi
            o = log_derivatives_batch(p, all_spin_configs(n))
            o_c = o - prob @ o
            a = (o_c.conj().T * prob) @ o_c
            c = C_SIGN * (o_c.conj().T * prob) @ (eloc - prob @ eloc)
            system = compute_a_c_exact(p, h)
            np.testing.assert_allclose(system.a, a.real, rtol=0, atol=1e-12)
            np.testing.assert_allclose(system.c, c.real, rtol=0, atol=1e-12)
            assert system.energy.mean == pytest.approx((prob @ eloc).real, abs=1e-12)

    def test_zero_probability_rows_are_dropped(self):
        # Re b_0 = 400 gives the z_0 = -1 rows probability e^{-1600} = 0.0 and
        # ratios of e^{800} = inf towards z_0 = +1: 0 * inf must not enter.
        p = random_init(3, 3, 0.3, 1, True)
        b = p.b.copy()
        b[0] = 400.0 + 1j * b[0].imag
        p = RbmParams(b, p.m, p.w, unitary_coupled=True)
        h = build_tfi(3, 0.5)
        system = compute_a_c_exact(p, h)
        assert system.energy.mean == pytest.approx(expectation_exact(p, h).mean, abs=1e-12)
        assert np.all(np.isfinite(system.c))

    def test_descent_direction(self):
        # a step along C strictly lowers the energy to first order
        h = build_afh(3)
        dtau = 1e-4
        for seed in range(50):
            p = random_init(3, 3, 0.3, seed, True)
            index = VariationalIndex.for_params(p)
            system = compute_a_c_exact(p, h)
            if np.linalg.norm(system.c) < 1e-12:
                continue
            moved = index.unflatten(index.flatten(p) + dtau * system.c)
            assert expectation_exact(moved, h).mean < system.energy.mean


class TestComputeAcSampled:
    def test_converges_to_exact_structure(self):
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 13, True)
        exact = compute_a_c_exact(p, h)
        sampled = compute_a_c_sampled(p, h, 40_000, np.random.default_rng(3), mode="vmc")
        assert np.max(np.abs(sampled.a - exact.a)) < 0.05
        assert np.max(np.abs(sampled.c - exact.c)) < 0.05
        assert np.array_equal(sampled.a, sampled.a.T)

    def test_one_preparation_per_sample(self):
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 13, True)
        for mode in ("vmc", "ensemble"):
            system = compute_a_c_sampled(p, h, 321, np.random.default_rng(0), mode=mode)
            assert system.n_preparations == 321

    def test_deterministic_under_seed(self):
        h = build_afh(3)
        p = random_init(3, 3, 0.3, 1, True)
        a = compute_a_c_sampled(p, h, 2000, np.random.default_rng(42), mode="ensemble")
        b = compute_a_c_sampled(p, h, 2000, np.random.default_rng(42), mode="ensemble")
        assert np.array_equal(a.a, b.a) and np.array_equal(a.c, b.c)
        assert a.energy.mean == b.energy.mean

    def test_replay_is_independent_of_row_order(self):
        # Shuffled rows, some split into two copies that share the row's
        # weight: each configuration keeps its total weight, so A, C and the
        # energy mean are unchanged.
        h = build_afh(4)
        p = random_init(4, 3, 0.3, 2, True)
        rng = np.random.default_rng(8)
        for mode in ("vmc", "ensemble"):
            original = compute_a_c_sampled(p, h, 600, np.random.default_rng(3), mode=mode)
            draw = _draw_samples(p, h, 600, np.random.default_rng(3), mode)
            weights = draw.weights.copy()
            split = rng.choice(weights.shape[0], size=100, replace=False)
            weights[split] *= 0.5
            rows = np.concatenate([np.arange(weights.shape[0]), split])
            rows = rng.permutation(rows)
            replay = draw._replace(weights=weights[rows], inverse=draw.inverse[rows])
            replayed = _assemble_system(p, replay)
            np.testing.assert_allclose(replayed.a, original.a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(replayed.c, original.c, rtol=0, atol=1e-12)
            assert replayed.energy.mean == pytest.approx(original.energy.mean, abs=1e-12)

    def test_weight_zero_lines_do_not_move_the_vmc_estimate(self):
        # The standard error is the ratio one in every sampled mode, so
        # samples of weight 0 change neither the mean nor its error.
        h = build_tfi(3, 0.5)
        p = random_init(3, 3, 0.3, 7, True)
        original = compute_a_c_sampled(p, h, 400, np.random.default_rng(9), mode="vmc")
        draw = _draw_samples(p, h, 400, np.random.default_rng(9), "vmc")
        extra = draw.inverse[np.random.default_rng(1).integers(0, draw.inverse.shape[0], 100)]
        padded = _assemble_system(
            p,
            draw._replace(
                weights=np.concatenate([draw.weights, np.zeros(100)]),
                inverse=np.concatenate([draw.inverse, extra]),
            ),
        )
        assert padded.energy.mean == pytest.approx(original.energy.mean, rel=1e-12)
        assert padded.energy.std_error == pytest.approx(
            original.energy.std_error, rel=1e-12
        )


class TestVmcDensePass:
    # vmc draws basis indices from exact_point's |psi|^2 and reads every row
    # from that pass.

    @pytest.mark.parametrize("n, seed", [(3, 0), (6, 1), (10, 2)])
    def test_draws_are_measure_visible_row_for_row(self, n, seed):
        h = build_tfi(n, 0.5)
        p = random_init(n, n, 0.3, seed, True)
        draw = _draw_samples(p, h, 500, np.random.default_rng(seed), "vmc")
        index = measure_indices(exact_statevector(p), 500, np.random.default_rng(seed))
        want = all_spin_configs(n)[index]
        assert draw.n_rows == 1 << n
        assert np.array_equal(draw.rows_of(draw.inverse)[0], want)

    @pytest.mark.parametrize("unitary", [True, False])
    def test_expectation_vmc_is_the_system_energy(self, unitary):
        h = build_afh(4)
        p = random_init(4, 3, 0.4, 5, unitary)
        est = expectation_vmc(p, h, 700, np.random.default_rng(11))
        system = compute_a_c_sampled(p, h, 700, np.random.default_rng(11), mode="vmc")
        assert est == system.energy

    def test_dense_pass_makes_no_tanh_call(self, monkeypatch):
        # tanh theta comes from the dense pass that gives the amplitudes
        # (amplitudes_tanh, for either ansatz)
        def refused(*args, **kwargs):
            raise AssertionError("np.tanh called")

        p, h = random_init(4, 3, 0.4, 2, True), build_tfi(4, 0.5)
        monkeypatch.setattr(np, "tanh", refused)
        compute_a_c_exact(p, h)
        compute_a_c_exact(random_init(4, 3, 0.4, 2, False), h)
        compute_a_c_sampled(p, h, 300, np.random.default_rng(0), mode="vmc")
        # the patch is live: the ensemble mode still calls np.tanh
        with pytest.raises(AssertionError, match="np.tanh called"):
            compute_a_c_sampled(p, h, 300, np.random.default_rng(0), mode="ensemble")


def void_key_rows(zmat):
    """``distinct_rows`` by ``np.unique`` over the packed rows as void keys."""
    keys = np.packbits(zmat < 0, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return zmat[first], inverse


class TestDistinctRows:
    # circuit.distinct_rows keys the sampler's readouts, one uint64 word per
    # 64 sites, so N = 64 and past it take the multi-word lexsort.

    @pytest.mark.parametrize("n", [1, 8, 9, 64, 65, 70])
    def test_matches_void_key_unique_bitwise(self, n):
        rng = np.random.default_rng(n)
        base = rng.choice(np.array([1, -1], dtype=np.int8), size=(40, n))
        # rows one spin apart at each end of the packed key's bytes and words
        for site in {0, 7, 8, 63, 64, n - 1} & set(range(n)):
            base[site % 40] = base[39]
            base[site % 40, site] *= -1
        zmat = base[rng.integers(0, 40, size=300)]  # duplicated, shuffled
        got, want = distinct_rows(zmat), void_key_rows(zmat)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestStatevectorCap:
    @pytest.mark.parametrize(
        "build",
        [
            lambda p, h: compute_a_c_exact(p, h),
            lambda p, h: compute_a_c_sampled(p, h, 10, np.random.default_rng(0), mode="vmc"),
        ],
        ids=["exact", "vmc"],
    )
    def test_sr_entry_points_refuse_past_the_cap(self, build):
        # N = 15 exceeds the fixed statevector cap of 14
        with pytest.raises(SizeCapError, match="15 qubits"):
            build(random_init(15, 1, 0.1, 0, True), build_tfi(15, 0.5))


class TestSizeRule:
    # one rule, checked by exact_point and by _draw_samples before the draw:
    # N visible spins for the Hamiltonian's N qubits
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda p, h, rng: expectation_exact(p, h),
            lambda p, h, rng: compute_a_c_exact(p, h),
            lambda p, h, rng: expectation_vmc(p, h, 50, rng),
            lambda p, h, rng: expectation_ensemble(p, h, 50, rng),
            lambda p, h, rng: compute_a_c_sampled(p, h, 50, rng, mode="vmc"),
            lambda p, h, rng: compute_a_c_sampled(p, h, 50, rng, mode="ensemble"),
        ],
        ids=["exact", "exact-system", "vmc", "ensemble", "vmc-system", "ensemble-system"],
    )
    @pytest.mark.parametrize("n", [2, 4])
    def test_every_door_refuses_a_size_mismatch_before_drawing(self, estimate, n):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        with pytest.raises(ValueError, match="parameter count does not match the Hamiltonian"):
            estimate(random_init(n, 2, 0.3, 0, True), build_tfi(3, 0.5), rng)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSrStructuralIdentities:
    # Each slot's log-derivative is a distinct column x (Re slot) or i*x (Im
    # slot), so A[x_re, x_im] = Re(i Var x) vanishes for any sample set, the
    # Re/Re and Im/Im blocks coincide and the cross blocks are opposite.
    # These must hold bitwise: rounding residue here reads as a bias in c10.

    @pytest.mark.parametrize(
        "mode, unitary",
        [("exact", True), ("exact", False), ("vmc", True), ("vmc", False), ("ensemble", True)],
    )
    def test_pairs_and_blocks_are_bitwise(self, mode, unitary):
        h = build_tfi(3, 1.0)
        for seed in range(3):
            p = random_init(3, 3, 0.3, seed, unitary)
            if mode == "exact":
                a = compute_a_c_exact(p, h).a
            else:
                a = compute_a_c_sampled(p, h, 20_000, np.random.default_rng(seed), mode=mode).a
            labels = VariationalIndex.for_params(p).labels()
            re = [k for k, label in enumerate(labels) if "_re[" in label]
            im = [labels.index(labels[k].replace("_re[", "_im[")) for k in re]
            assert len(re) == (6 if unitary else 15)
            assert np.all(a[re, im] == 0.0)
            assert np.array_equal(a[np.ix_(re, re)], a[np.ix_(im, im)])
            assert np.array_equal(a[np.ix_(re, im)], -a[np.ix_(im, re)])

    @pytest.mark.parametrize(
        "mode, unitary",
        [("exact", True), ("exact", False), ("vmc", True), ("vmc", False), ("ensemble", True)],
    )
    def test_real_form_gather_matches_block_form(self, monkeypatch, mode, unitary):
        # A and C gathered through the cached slot layout equal the np.block
        # real form of S indexed by the slot columns, entry for entry
        import ucrbm.estimators

        real_form = ucrbm.estimators._real_form
        calls = []

        def recording(s, g, layout):
            out = real_form(s, g, layout)
            calls.append((s, g, out))
            return out

        monkeypatch.setattr(ucrbm.estimators, "_real_form", recording)
        h = build_tfi(3, 1.0)
        p = random_init(3, 3, 0.3, 4, unitary)
        if mode == "exact":
            system = compute_a_c_exact(p, h)
        else:
            system = compute_a_c_sampled(p, h, 2000, np.random.default_rng(4), mode=mode)
        system.a
        ((s, g, (a, c)),) = calls
        slots = VariationalIndex.for_params(p).slot_columns()
        expected = np.block([[s.real, -s.imag], [s.imag, s.real]])[slots][:, slots]
        assert np.array_equal(a, expected)
        assert np.array_equal(np.signbit(a), np.signbit(expected))
        assert np.array_equal(c, np.concatenate([g.real, g.imag])[slots])
        assert a is system.a and c is system.c


    @pytest.mark.parametrize("unitary", [True, False])
    def test_to_slots_is_flatten_of_the_complex_step(self, unitary):
        # the half-size solve's u is the complex step [b, m, w column-major],
        # so its slot vector is flatten of those parameters, signed zeros
        # included; the real solve of unitary couplings gives the slots
        n, m = 3, 2
        p = random_init(n, m, 0.3, 6, unitary)
        system = compute_a_c_exact(p, build_tfi(n, 1.0))
        rng = np.random.default_rng(6)
        if unitary:
            u = rng.normal(size=VariationalIndex.for_params(p).size)
            assert system.to_slots(u) is u
            return
        d = n + m + n * m
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        u.view(np.float64)[::3] = -0.0
        step = RbmParams(u[:n], u[n : n + m], u[n + m :].reshape(m, n).T)
        want = VariationalIndex.for_params(step).flatten(step)
        assert system.to_slots(u).tobytes() == want.tobytes()


def distinct_columns(p, zmat):
    """The distinct derivative columns x of ``zmat``, read off the slot
    matrix of ``log_derivatives_batch``: a Re slot holds x, an Im slot i x."""
    o = log_derivatives_batch(p, zmat)
    slots = VariationalIndex.for_params(p).slot_columns()
    d = p.n_visible + p.n_hidden + p.n_visible * p.n_hidden
    x = np.empty((zmat.shape[0], d), dtype=np.complex128)
    for k in range(slots.shape[0]):
        part, col = divmod(int(slots[k]), d)
        x[:, col] = o[:, k] * (-1j if part else 1.0)
    return x


class TestMoments:
    # _moments builds S and F from visible x hidden monomial moments with no
    # column array; the oracle centres the columns of log_derivatives_batch.

    @staticmethod
    def inputs(p, seed):
        # all 2^N rows, some of weight 0, and complex energy terms g
        rng = np.random.default_rng(seed)
        zmat = all_spin_configs(p.n_visible).astype(np.float64)
        u = zmat.shape[0]
        wn = rng.random(u)
        wn[1:][rng.random(u - 1) < 0.3] = 0.0
        wn /= wn.sum()
        g = rng.normal(size=u) + 1j * rng.normal(size=u)
        t = np.tanh(p.m[None, :] + zmat @ p.w)
        return zmat, t, wn, g

    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_matches_centred_oracle(self, unitary, n, m):
        for seed in range(2):
            p = random_init(n, m, 0.5, seed, unitary)
            zmat, t, wn, g = self.inputs(p, seed)
            x = distinct_columns(p, zmat)
            xc = x - wn @ x
            s_want = (xc.conj().T * wn) @ xc
            f_want = xc.conj().T @ g
            s, f = _moments(_visible_monomials(zmat), t, wn, g)
            assert s.shape == s_want.shape and f.shape == f_want.shape
            np.testing.assert_allclose(s, s_want, rtol=0, atol=1e-13)
            np.testing.assert_allclose(f, f_want, rtol=0, atol=1e-13)

    def test_centred_when_the_weights_do_not_sum_to_one(self):
        # sampled weights sum to 1 only to rounding; S and F must stay the
        # centred sums, not E[conj(x) x^T] - conj(mean) mean^T, whose error
        # is (1 - sum w) |mean|^2
        p = random_init(3, 2, 0.5, 0, True)
        zmat, t, wn, g = self.inputs(p, 0)
        wn = wn * (1.0 + 1e-6)
        x = distinct_columns(p, zmat)
        xc = x - wn @ x
        s, f = _moments(_visible_monomials(zmat), t, wn, g)
        np.testing.assert_allclose(s, (xc.conj().T * wn) @ xc, rtol=0, atol=1e-13)
        np.testing.assert_allclose(f, xc.conj().T @ g, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("unitary", [True, False])
    def test_hermitian_and_pair_zeros_are_bitwise(self, unitary):
        p = random_init(4, 3, 1.5, 3, unitary)
        zmat, t, wn, g = self.inputs(p, 3)
        s, f = _moments(_visible_monomials(zmat), t, wn, g)
        assert np.array_equal(s, s.conj().T)
        assert np.all(s.diagonal().imag == 0.0)
        a, _ = _real_form(s, f, _slot_layout(4, 3, unitary))
        labels = VariationalIndex.for_params(p).labels()
        re = [k for k, label in enumerate(labels) if "_re[" in label]
        im = [labels.index(labels[k].replace("_re[", "_im[")) for k in re]
        assert np.all(a[re, im] == 0.0) and np.all(a[im, re] == 0.0)

    def test_layout_is_cached_and_read_only(self):
        layout = _moment_layout(3, 2)
        assert _moment_layout(3, 2) is layout
        for arr in layout:
            assert not arr.flags.writeable

    def test_dense_monomials_are_cached_and_read_only(self):
        zm = _dense_monomials(3)
        assert _dense_monomials(3) is zm and not zm.flags.writeable
        assert np.array_equal(zm, _visible_monomials(all_spin_configs(3).astype(np.float64)))
        # bounded: one N = 14 entry holds 13.9 MB
        assert _dense_monomials.cache_info().maxsize == 2

    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_exact_system_matches_centred_oracle(self, unitary, n, m):
        # compute_a_c_exact passes the cached monomials of the dense rows
        h = random_pauli_hamiltonian(np.random.default_rng(n), n, 3)
        p = random_init(n, m, 0.5, 7, unitary)
        point = exact_point(p, h)
        system = compute_a_c_exact(p, h, point)
        prob = point.psi.probabilities()
        x = distinct_columns(p, point.zmat)
        xc = x - prob @ x
        want = _slot_system(
            p, (xc.conj().T * prob) @ xc, xc.conj().T @ (point.e - prob * point.energy),
            system.energy,
        )
        np.testing.assert_allclose(system.a, want.a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(system.c, want.c, rtol=0, atol=1e-13)


class TestWeightedEstimatorUnbiasedness:
    def test_exact_branch_average_reproduces_expectation(self):
        # numerator/denominator averages over the exact (history, z) law equal
        # the closed-form expectation for small instances
        h = build_tfi(3, 0.7)
        for seed in range(5):
            p = random_init(3, 3, 0.35, seed, True)
            table = enumerate_branches(p)
            numer = 0.0
            denom = 0.0
            for row in range(table.s.shape[0]):
                prob = table.branch_probs[row]
                if prob == 0.0:
                    continue
                w = table.weights[row]
                probs_z = table.states[row].probabilities()
                for k in range(8):
                    if probs_z[k] == 0.0:
                        continue
                    e_loc = local_observable(p, index_to_spins(k, 3), h).real
                    numer += prob * w * probs_z[k] * e_loc
                denom += prob * w
            exact = expectation_exact(p, h).mean
            assert numer / denom == pytest.approx(exact, abs=1e-10)


class TestCheckWeights:
    def test_floor_is_a_fraction_of_the_sample_count(self):
        # equal weights on j of K samples give an effective sample size of j;
        # the floor is relative so that TestExpectationEnsemble's correct
        # K = 50 batch of equal weights passes
        k = 4096
        floor = int(MIN_ESS_FRACTION * k)
        assert _check_weights(np.r_[np.ones(floor), np.zeros(k - floor)])[1] == floor
        with pytest.raises(DegenerateWeightError, match="size 63 of 4096 samples"):
            _check_weights(np.r_[np.ones(floor - 1), np.zeros(k - floor + 1)])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_weight_scales_are_judged_by_their_spread(self, scale):
        # sum w^2 under- or overflows here; the ratio must not
        weights = scale * np.random.default_rng(0).random(4096)
        assert _check_weights(weights)[1] > 0.0

    @pytest.mark.parametrize("entry", ["expectation", "system"])
    @pytest.mark.parametrize("re_m0", [180.0, 354.0])
    def test_weights_near_the_float_maximum_give_a_finite_estimate(self, re_m0, entry):
        # the largest weight is about e^358 (180) or e^706 (354): its square,
        # and at 354 the weight sum, overflow unless the weights are scaled
        p = random_init(3, 2, 0.3, 0, True)
        m = p.m.copy()
        m[0] = re_m0 + 1j * m[0].imag
        p = RbmParams(p.b, m, p.w, unitary_coupled=True)
        h, rng = build_tfi(3, 0.5), np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if entry == "expectation":
                est = expectation_ensemble(p, h, 4096, rng)
            else:
                est = compute_a_c_sampled(p, h, 4096, rng, mode="ensemble").energy
        assert np.isfinite(est.mean) and np.isfinite(est.std_error) and est.std_error > 0.0

    def test_power_of_two_scales_give_the_same_estimate_bitwise(self):
        # the estimate reads the weights only through w / max w
        p = random_init(4, 3, 0.3, 1, True)
        h = build_tfi(4, 0.5)
        draw = _draw_samples(p, h, 500, np.random.default_rng(2), "ensemble")
        big = _evaluate_samples(draw._replace(weights=draw.weights * 2.0**900))
        small = _evaluate_samples(draw._replace(weights=draw.weights * 2.0**-900))
        assert big[1] == small[1]
        for a, b in zip(big[0], small[0]):
            assert np.array_equal(a, b)


class TestBenchmarkHooks:
    # perfbench/tracer.py wraps estimators._draw_samples and
    # estimators.sample_protocol_batch by name, and reads the weights as the
    # sampler's third return value.  A name missing here drops its span from
    # the per-layer report with no error.

    def test_draws_go_through_the_wrapped_sampler(self, monkeypatch):
        assert callable(ucrbm.estimators._draw_samples)
        assert ucrbm.estimators.sample_protocol_batch is sample_protocol_batch
        results = []

        def recording(*args):
            results.append(sample_protocol_batch(*args))
            return results[-1]

        monkeypatch.setattr(ucrbm.estimators, "sample_protocol_batch", recording)
        p = random_init(3, 2, 0.3, 0, True)
        draw = _draw_samples(p, build_tfi(3, 0.5), 100, np.random.default_rng(5), "ensemble")
        (result,) = results
        assert result[2] is draw.weights

    @pytest.mark.parametrize("mode", ["exact", "vmc", "ensemble"])
    def test_one_assembly_call_per_ite_step(self, monkeypatch, mode):
        # perfbench/tracer.py opens a step on each call to
        # solver.compute_a_c_exact / compute_a_c_sampled, and the benchmark's
        # gate fails a step whose n_preparations is not K (sampled) or 0
        # (exact).
        import ucrbm.solver

        name = "compute_a_c_exact" if mode == "exact" else "compute_a_c_sampled"
        wrapped = getattr(ucrbm.solver, name)
        systems = []

        def recording(*args, **kwargs):
            systems.append(wrapped(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(ucrbm.solver, name, recording)
        cfg = IteConfig(mode=mode, n_steps=1, n_samples=200)
        ite_run(random_init(3, 2, 0.3, 0, True), build_tfi(3, 0.5), cfg)
        (system,) = systems
        assert system.n_preparations == (0 if mode == "exact" else 200)

    def test_one_hidden_angle_pass_per_ensemble_step(self, monkeypatch):
        # the sampler takes theta once over the distinct readouts, and
        # the draw's rows_of reads tanh theta from it: no second angle pass,
        # neither in the estimators nor in the dense pass of ucrbm.rbm
        import ucrbm.circuit
        import ucrbm.rbm

        calls = {}

        def count(module):
            wrapped = module.hidden_angles

            def counted(*args, **kwargs):
                calls[module.__name__] = calls.get(module.__name__, 0) + 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(module, "hidden_angles", counted)

        count(ucrbm.circuit)
        count(ucrbm.rbm)
        p, h = random_init(4, 3, 0.3, 0, True), build_tfi(4, 0.5)
        ite_run(p, h, IteConfig(mode="ensemble", n_steps=1, n_samples=300))
        assert calls == {"ucrbm.circuit": 1}

    def test_dense_passes_go_through_the_wrapped_entry_points(self, monkeypatch):
        # perfbench/tracer.py is to time the dense pass by wrapping
        # estimators.exact_point (vmc, and exact mode's step 0) and
        # solver.exact_point (exact mode's trial passes) by name.  Every
        # dense pass builds its statevector in dense_statevector.
        import ucrbm.solver

        calls = {}

        def count(module, name):
            wrapped = getattr(module, name)

            def counted(*args, **kwargs):
                key = f"{module.__name__}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(ucrbm.estimators, "exact_point")
        count(ucrbm.estimators, "dense_statevector")
        count(ucrbm.solver, "exact_point")
        p, h = random_init(3, 2, 0.3, 0, True), build_tfi(3, 0.5)
        ite_run(p, h, IteConfig(mode="vmc", n_steps=1, n_samples=200))
        assert calls == {
            "ucrbm.estimators.exact_point": 1,
            "ucrbm.estimators.dense_statevector": 1,
        }
        calls.clear()
        _, trace = ite_run(p, h, IteConfig(mode="exact", n_steps=3))
        trials = int(trace.trials.sum())
        assert trials >= 3
        assert calls == {
            "ucrbm.estimators.exact_point": 1,
            "ucrbm.solver.exact_point": trials,
            "ucrbm.estimators.dense_statevector": 1 + trials,
        }


class TestSrSystemValidation:
    def test_rejects_non_finite_a(self):
        with pytest.raises(NumericalIntegrityError):
            SrSystem(np.full((2, 2), np.nan), np.zeros(2), Estimate(0.0, 0.0, 0, "exact"))

    @pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (1e-6j, "asymmetric")])
    def test_half_size_system_is_validated(self, monkeypatch, bad, message):
        # unrestricted parameters hand the solver the complex S in place of
        # A: it must be finite and Hermitian, as A must be finite and symmetric
        import ucrbm.estimators

        moments = ucrbm.estimators._moments

        def broken(zm, t, wn, g):
            s, f = moments(zm, t, wn, g)
            s[0, 1] += bad
            return s, f

        monkeypatch.setattr(ucrbm.estimators, "_moments", broken)
        with pytest.raises(NumericalIntegrityError, match=message):
            compute_a_c_exact(random_init(2, 2, 0.1, 0, False), build_tfi(2, 0.5))


class TestEstimateValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Estimate(0.0, 0.0, 1, "approximate")

    def test_rejects_sampled_without_samples(self):
        with pytest.raises(ValueError):
            Estimate(0.0, 0.0, 0, "vmc")

    def test_sign_constant_is_validated_elsewhere(self):
        assert C_SIGN == -1.0
