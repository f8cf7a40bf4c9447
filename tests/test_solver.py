import numpy as np
import pytest
import scipy.optimize

from ucrbm.errors import NumericalIntegrityError
from ucrbm.estimators import (
    SrSystem,
    Estimate,
    compute_a_c_exact,
    compute_a_c_sampled,
    exact_point,
    expectation_exact,
)
from ucrbm.hamiltonians import TqdParams, build_afh, build_tfi, build_tqd, load_bundled
from ucrbm.rbm import RbmParams, VariationalIndex, random_init
from ucrbm.solver import (
    IteConfig,
    export_theta_snapshots,
    export_trace_csv,
    grad_check,
    ite_run,
    mean_field_stage,
    sr_update,
)


def make_system(a, c):
    return SrSystem(a, c, Estimate(0.0, 0.0, 0, "exact"))


def zero_params(n, m):
    return RbmParams(
        b=np.zeros(n, complex), m=np.zeros(m, complex), w=np.zeros((n, m), complex),
        unitary_coupled=True,
    )


class TestSrUpdate:
    def test_identity_matrix_returns_c(self):
        # the direction is unscaled: ite_run decides the step length
        c = np.array([1.0, -2.0, 0.5])
        delta, residual = sr_update(make_system(np.eye(3), c), 0.0)
        assert np.array_equal(delta, c)
        assert residual < 1e-12

    def test_zero_c_is_stationary(self):
        a = np.diag([2.0, 3.0])
        delta, _ = sr_update(make_system(a, np.zeros(2)), 1e-3)
        assert np.all(delta == 0.0)

    def test_spd_solve_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            root = rng.normal(size=(6, 6))
            a = root @ root.T + 0.1 * np.eye(6)
            c = rng.normal(size=6)
            delta, residual = sr_update(make_system(a, c), 1e-3)
            assert residual <= 1e-8 * np.linalg.norm(c)

    def test_singular_matrix_uses_truncated_pseudo_inverse(self):
        a = np.diag([1.0, 0.0])
        c = np.array([2.0, 3.0])
        delta, _ = sr_update(make_system(a, c), 0.0)
        np.testing.assert_allclose(delta, [2.0, 0.0], atol=1e-10)

    def test_negative_shifted_eigenvalue_is_dropped(self):
        # A + lam*I = diag(1.1, -0.4) is not positive definite: the
        # pseudo-inverse keeps the positive mode and drops the negative one.
        a = np.diag([1.0, -0.5])
        c = np.array([2.0, 3.0])
        system = make_system(a, c)
        delta, _ = sr_update(system, 0.1)
        np.testing.assert_allclose(delta, [2.0 / 1.1, 0.0], atol=1e-14)
        given, _ = sr_update(system, 0.1, np.linalg.eigvalsh(a))
        assert np.array_equal(given, delta)

    @pytest.mark.parametrize("unitary", [False, True])
    def test_leaves_the_system_unchanged(self, unitary):
        # the shift goes onto the diagonal of a copy: neither the half-size
        # complex S nor the real unitary-coupled A changes
        system = compute_a_c_exact(random_init(3, 2, 0.3, 1, unitary), build_tfi(3, 0.7))
        assert (system.layout is None) == unitary
        assert system.matrix.dtype == (np.float64 if unitary else np.complex128)
        before = system.matrix.tobytes(), system.rhs.tobytes()
        sr_update(system, 1e-3)
        assert (system.matrix.tobytes(), system.rhs.tobytes()) == before

    def test_fallback_leaves_a_singular_system_unchanged(self):
        # -0.0 on the diagonal: adding the shift 0 in place would make it +0.0
        a = np.array([[1.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 2.0]])
        c = np.array([2.0, 3.0, -1.0])
        system = make_system(a, c)
        before = system.matrix.tobytes(), system.rhs.tobytes()
        delta, _ = sr_update(system, 0.0)
        np.testing.assert_allclose(delta, [2.0, 0.0, -0.5], atol=1e-14)
        assert (system.matrix.tobytes(), system.rhs.tobytes()) == before

    def test_rejects_non_finite(self):
        # the system is checked when it is built, so sr_update never sees it
        with pytest.raises(NumericalIntegrityError, match="non-finite"):
            make_system(np.eye(2), np.array([np.inf, 0.0]))


def unrestricted_systems():
    for h in (build_tfi(3, 0.7), build_afh(4), build_tqd(TqdParams(b_field=0.5))):
        p = random_init(h.n_qubits, 2, 0.1, 3, False)
        yield compute_a_c_exact(p, h)
    p = random_init(3, 2, 0.1, 3, False)
    yield compute_a_c_sampled(p, build_tfi(3, 0.7), 2000, np.random.default_rng(1))


class TestHalfSizeSystem:
    """Unrestricted parameters pair every distinct column's Re and Im slot,
    so the solver takes the complex D x D system (S + lam) u = C_SIGN F in
    place of the real P x P one; both must give the same step."""

    def test_step_matches_real_solve(self):
        lam = 1e-3
        for system in unrestricted_systems():
            assert system.layout is not None
            a, c = system.a, system.c
            shifted = a + lam * np.eye(a.shape[0])
            expected = np.linalg.solve(shifted, c)
            delta, residual = sr_update(system, lam)
            assert np.linalg.norm(delta - expected) <= 1e-12 * np.linalg.norm(expected)
            real_residual = np.linalg.norm(shifted @ delta - c)
            assert abs(residual - real_residual) <= 1e-12 * np.linalg.norm(c)

    def test_spectrum_of_a_is_that_of_s_twice(self):
        for system in unrestricted_systems():
            evals_a = np.linalg.eigvalsh(system.a)
            evals_s = np.linalg.eigvalsh(system.matrix)
            assert evals_s.shape[0] * 2 == evals_a.shape[0]
            np.testing.assert_allclose(
                np.repeat(evals_s, 2), evals_a, rtol=0, atol=1e-13 * evals_a[-1]
            )

    def test_pseudo_inverse_matches_real_form(self):
        # at zero parameters every hidden column vanishes, so A has exact
        # zero rows and lam = 0 takes the truncated pseudo-inverse
        params = RbmParams(
            b=np.zeros(3, complex), m=np.zeros(2, complex), w=np.zeros((3, 2), complex)
        )
        system = compute_a_c_exact(params, build_tfi(3, 0.7))
        assert system.layout is not None
        assert np.linalg.eigvalsh(system.matrix)[0] <= 0.0
        assert np.any(np.all(system.a == 0.0, axis=1))
        delta, residual = sr_update(system, 0.0)
        real_delta, real_residual = sr_update(make_system(system.a, system.c), 0.0)
        np.testing.assert_allclose(delta, real_delta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(delta, np.linalg.pinv(system.a) @ system.c, atol=1e-12)
        assert residual == pytest.approx(real_residual, abs=1e-12)

    def test_dropped_modes_match_real_form(self):
        # a shift into the widest gap of a complex S leaves the lower modes
        # negative: both forms drop the same modes and give the same step
        for system in unrestricted_systems():
            evals = np.linalg.eigvalsh(system.matrix)
            j = int(np.argmax(np.diff(evals)))
            lam = -0.5 * (evals[j] + evals[j + 1])
            delta, residual = sr_update(system, lam)
            real_delta, real_residual = sr_update(make_system(system.a, system.c), lam)
            assert np.linalg.norm(delta - real_delta) <= 1e-12 * np.linalg.norm(real_delta)
            assert residual == pytest.approx(real_residual, rel=1e-12)


class TestIteRun:
    def test_zero_parameters_are_a_stationary_point(self):
        # the uniform state is an exact fixed point of the flow on field-free
        # models: every derivative channel has zero covariance with the energy
        h = build_tfi(2, 0.0)
        cfg = IteConfig(n_steps=20, convergence_threshold=0.0)
        final, trace = ite_run(zero_params(2, 2), h, cfg)
        assert np.all(trace.energies == trace.energies[0])
        assert np.all(final.b == 0) and np.all(final.w == 0)

    def test_random_init_reaches_classical_ising_ground(self):
        h = build_tfi(2, 0.0)
        p0 = random_init(2, 2, 0.1, 1, True)
        cfg = IteConfig(n_steps=2000, convergence_threshold=0.0)
        _, trace = ite_run(p0, h, cfg)
        assert trace.final_energy == pytest.approx(-1.0, abs=1e-6)
        assert np.all(np.diff(trace.energies) <= 1e-9)

    def test_afh_two_sites_reaches_singlet(self):
        h = build_afh(2)
        p0 = random_init(2, 2, 0.1, 5, True)
        cfg = IteConfig(n_steps=2000, convergence_threshold=0.0)
        _, trace = ite_run(p0, h, cfg)
        assert abs(trace.final_energy - (-3.0)) < 1e-3
        assert trace.n_steps <= 2000

    def test_trace_is_deterministic_exact_mode(self):
        h = build_tfi(3, 0.7)
        p0 = random_init(3, 3, 0.1, 2, True)
        cfg = IteConfig(n_steps=40, seed=9)
        _, t1 = ite_run(p0, h, cfg)
        _, t2 = ite_run(p0, h, cfg)
        assert np.array_equal(t1.energies, t2.energies)
        assert np.array_equal(t1.thetas, t2.thetas)

    def test_trace_is_deterministic_sampled_mode(self):
        h = build_tfi(2, 0.7)
        p0 = random_init(2, 2, 0.1, 2, True)
        cfg = IteConfig(n_steps=12, seed=9, mode="vmc", n_samples=500)
        _, t1 = ite_run(p0, h, cfg)
        _, t2 = ite_run(p0, h, cfg)
        assert np.array_equal(t1.energies, t2.energies)
        assert np.array_equal(t1.thetas, t2.thetas)

    def test_vmc_mode_converges_loosely(self):
        from ucrbm.hamiltonians import exact_ground

        h = build_tfi(2, 0.5)
        p0 = random_init(2, 2, 0.1, 3, True)
        cfg = IteConfig(n_steps=300, seed=1, mode="vmc", n_samples=3000)
        _, trace = ite_run(p0, h, cfg)
        assert abs(trace.final_energy - exact_ground(h)[0]) < 0.05

    def test_unitary_constraint_preserved_along_trace(self):
        h = build_afh(3)
        p0 = random_init(3, 3, 0.1, 7, True)
        cfg = IteConfig(n_steps=50)
        index = VariationalIndex.for_params(p0)
        final, trace = ite_run(p0, h, cfg)
        assert final.unitary_coupled
        assert np.max(np.abs(final.w.real)) == 0.0
        for row in trace.thetas[::10]:
            assert np.max(np.abs(index.unflatten(row).w.real)) == 0.0

    def test_integrity_errors_carry_the_step(self, monkeypatch):
        import ucrbm.solver

        h = build_tfi(2, 0.5)
        calls = []

        def failing(params, ham, point=None):
            calls.append(params)
            if len(calls) == 3:
                raise NumericalIntegrityError("A has non-finite entries")
            return compute_a_c_exact(params, ham, point)

        monkeypatch.setattr(ucrbm.solver, "compute_a_c_exact", failing)
        with pytest.raises(NumericalIntegrityError, match="^step 2: A has non-finite"):
            ite_run(random_init(2, 2, 0.1, 1, True), h, IteConfig(n_steps=5))

    def test_exact_trace_energy_refuses_an_imaginary_residue(self, monkeypatch):
        # the exact energy of every trace row passes the residue check of
        # expectation_exact, and the error names its step
        import ucrbm.estimators

        apply_h = ucrbm.estimators.apply_h
        monkeypatch.setattr(
            ucrbm.estimators, "apply_h", lambda h, psi: apply_h(h, psi) + 1j * psi.amplitudes
        )
        with pytest.raises(NumericalIntegrityError, match="^step 0: .*imaginary residue"):
            ite_run(random_init(2, 2, 0.1, 1, True), build_tfi(2, 0.5), IteConfig(n_steps=3))

    def test_early_stop_triggers(self):
        h = build_tfi(2, 0.5)
        p0 = random_init(2, 2, 0.1, 1, True)
        cfg = IteConfig(n_steps=5000, convergence_window=50, convergence_threshold=1e-8)
        _, trace = ite_run(p0, h, cfg)
        assert trace.n_steps < 5000

    def test_monotone_descent_on_tfi(self):
        for seed in range(5):
            h = build_tfi(4, 1.0)
            p0 = random_init(4, 4, 0.1, seed, True)
            cfg = IteConfig(n_steps=400, convergence_threshold=0.0)
            _, trace = ite_run(p0, h, cfg)
            assert np.max(np.diff(trace.energies)) <= 1e-9

    def test_converged_state_overlaps_ground_vector(self):
        # once the energy criterion is met on a non-degenerate ground state,
        # the variational state itself matches the dense eigenvector
        from ucrbm.hamiltonians import exact_ground
        from ucrbm.rbm import exact_statevector
        from ucrbm.statevector import fidelity

        for h in (build_tfi(4, 1.0), build_afh(2)):
            e0, ground = exact_ground(h)
            p0 = random_init(h.n_qubits, h.n_qubits, 0.1, 1, True)
            cfg = IteConfig(n_steps=3000, convergence_threshold=1e-12, convergence_window=80)
            final, trace = ite_run(p0, h, cfg)
            assert abs(trace.final_energy - e0) / abs(e0) < 1e-3
            assert fidelity(exact_statevector(final), ground) >= 0.999

    def test_tau_increments_by_dtau(self):
        h = build_tfi(2, 0.5)
        cfg = IteConfig(n_steps=7, dtau=0.03, convergence_threshold=0.0, mode="vmc")
        p0 = random_init(2, 2, 0.1, 0, True)
        _, trace = ite_run(p0, h, cfg)
        np.testing.assert_allclose(np.diff(trace.taus), 0.03, atol=1e-15)
        assert np.all(trace.trials == 0)
        # one row per step: integer steps and trials, one theta row each
        n_var = VariationalIndex.for_params(p0).size
        assert trace.steps.dtype == np.dtype(np.int64)
        assert trace.trials.dtype == np.dtype(np.int64)
        np.testing.assert_array_equal(trace.steps, np.arange(7, dtype=np.int64))
        assert trace.thetas.shape == (7, n_var)
        for name in ("taus", "energies", "std_errors", "min_eig_a", "max_eig_a", "residuals"):
            column = getattr(trace, name)
            assert column.dtype == np.float64 and column.shape == (7,)

    @pytest.mark.parametrize(
        "mode, unitary",
        [("exact", True), ("exact", False), ("vmc", True), ("ensemble", True)],
    )
    def test_non_finite_f_is_a_typed_error_with_the_step(self, monkeypatch, mode, unitary):
        # a NaN in F reaches C (or the half-size right-hand side); the system
        # check at construction turns it into an integrity error at step 0
        import ucrbm.estimators

        moments = ucrbm.estimators._moments

        def broken(zm, t, wn, g):
            s, f = moments(zm, t, wn, g)
            f[0] = np.nan
            return s, f

        monkeypatch.setattr(ucrbm.estimators, "_moments", broken)
        cfg = IteConfig(n_steps=2, mode=mode, n_samples=200)
        with pytest.raises(NumericalIntegrityError, match="^step 0: .*non-finite"):
            ite_run(random_init(2, 2, 0.1, 1, unitary), build_tfi(2, 0.5), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IteConfig(dtau=0.0)
        with pytest.raises(ValueError):
            IteConfig(n_steps=0)
        with pytest.raises(ValueError):
            IteConfig(regularization=-1e-3)
        with pytest.raises(ValueError):
            IteConfig(mode="metropolis")
        # a window of 0 read the whole record (energy[-0:]), whose spread is 0
        # after one step, and stopped there; -1 failed inside ite_run on max()
        # of an empty sequence
        for window in (0, -1):
            with pytest.raises(ValueError, match="convergence_window"):
                IteConfig(convergence_window=window)

    @pytest.mark.parametrize(
        "field, value",
        [("n_samples", 0), ("n_samples", -5), ("seed", -1), ("mean_field_steps", 0),
         ("mean_field_steps", -3)]
        + [(f, v) for f in ("dtau", "regularization") for v in (np.nan, np.inf, -np.inf)],
    )
    def test_bad_run_settings_are_refused(self, field, value):
        # refused before any work: otherwise a sample count below 1 or a
        # negative seed fails only at step 0 of a sampled run (or at the
        # mean-field re-seed), no mean-field steps only in mean_field_stage,
        # and a NaN or infinite dtau or regularization only at step 0's
        # update, naming neither the field nor the step
        with pytest.raises(ValueError, match=field):
            IteConfig(**{field: value})

    @pytest.mark.parametrize("threshold", [-1.0, -1e-12, float("nan")])
    def test_negative_or_nan_threshold_is_refused(self, threshold):
        # both compared False against 0 and silently turned early stopping off
        with pytest.raises(ValueError, match="convergence_threshold"):
            IteConfig(convergence_threshold=threshold)

    def test_thread_count_is_pinned(self):
        # sampling is serial; the field only accepts the value 1
        assert IteConfig(n_threads=1).n_threads == 1
        with pytest.raises(ValueError, match="n_threads"):
            IteConfig(n_threads=2)

    def test_min_eigenvalue_stays_within_rounding_of_psd(self):
        # A is PSD by construction; the trace's smallest eigenvalue may dip
        # below 0 only by the rounding floor P * eps * max_eig_A
        h = build_tqd(TqdParams(b_field=0.5))
        p0 = random_init(6, 6, 0.1, 2, False)
        cfg = IteConfig(n_steps=300, regularization=1e-4, convergence_threshold=0.0)
        _, trace = ite_run(p0, h, cfg)
        floor = VariationalIndex.for_params(p0).size * np.finfo(float).eps
        assert trace.n_steps == 300
        assert np.all(trace.min_eig_a >= -floor * trace.max_eig_a)


def exact_cases():
    yield build_tfi(4, 1.0), random_init(4, 4, 0.1, 0, True)
    yield build_afh(4), random_init(4, 4, 0.1, 0, True)
    yield build_tqd(TqdParams(b_field=0.5)), random_init(6, 6, 0.1, 2, False)


class TestEnergyAcceptedSteps:
    """Exact mode: theta + dt * delta is accepted when its energy does not
    rise (then dt grows by GROWTH, at most to 1), else dt halves."""

    def test_energies_never_rise(self):
        for h, p0 in exact_cases():
            cfg = IteConfig(n_steps=300, regularization=1e-4, convergence_threshold=0.0)
            _, trace = ite_run(p0, h, cfg)
            assert trace.n_steps == 300
            assert np.all(np.diff(trace.energies) <= 0.0)
            assert np.all(trace.trials >= 1)

    def test_parameters_move_by_the_accepted_step(self, monkeypatch):
        import ucrbm.solver

        deltas = []

        def recording(*args):
            delta, residual = sr_update(*args)
            deltas.append(delta)
            return delta, residual

        monkeypatch.setattr(ucrbm.solver, "sr_update", recording)
        for h, p0 in exact_cases():
            deltas.clear()
            cfg = IteConfig(n_steps=40, regularization=1e-4, convergence_threshold=0.0)
            _, trace = ite_run(p0, h, cfg)
            thetas, taus = trace.thetas, trace.taus
            eps = np.finfo(float).eps
            for k in range(trace.n_steps - 1):
                moved = thetas[k + 1] - thetas[k]
                expected = (taus[k + 1] - taus[k]) * deltas[k]
                # relative to the step, plus the rounding of theta itself
                floor = 4 * eps * np.linalg.norm(thetas[k + 1])
                assert np.linalg.norm(moved - expected) <= (
                    1e-12 * np.linalg.norm(expected) + floor
                )

    def test_one_sr_system_and_one_dense_pass_per_trial(self, monkeypatch):
        # the accepted trial's dense pass is the next step's: exact_point
        # runs once for the first row and once per trial, no more
        import ucrbm.estimators
        import ucrbm.solver

        systems, passes = [], []

        def counting_system(*args):
            systems.append(1)
            return compute_a_c_exact(*args)

        def counting_pass(*args):
            passes.append(1)
            return exact_point(*args)

        monkeypatch.setattr(ucrbm.solver, "compute_a_c_exact", counting_system)
        monkeypatch.setattr(ucrbm.solver, "exact_point", counting_pass)
        monkeypatch.setattr(ucrbm.estimators, "exact_point", counting_pass)
        for h, p0 in exact_cases():
            systems.clear()
            passes.clear()
            cfg = IteConfig(n_steps=100, regularization=1e-4, convergence_threshold=0.0)
            _, trace = ite_run(p0, h, cfg)
            assert len(systems) == trace.n_steps
            assert len(passes) == 1 + int(trace.trials.sum())

    def test_tqd_reaches_tolerance_within_400_steps(self):
        # c07's start at B = 0.5: fixed dtau = 0.01 steps need about 3250
        from ucrbm.hamiltonians import exact_ground

        h = build_tqd(TqdParams(b_field=0.5))
        e0, _ = exact_ground(h)
        cfg = IteConfig(n_steps=400, regularization=1e-4, convergence_threshold=0.0)
        _, trace = ite_run(random_init(6, 6, 0.1, 2, False), h, cfg)
        assert np.any(np.abs(trace.energies - e0) <= 1e-2 * abs(e0))

    def test_first_step_is_dtau_and_no_step_exceeds_one(self):
        h = build_tfi(4, 1.0)
        cfg = IteConfig(n_steps=200, dtau=0.03, convergence_threshold=0.0)
        _, trace = ite_run(random_init(4, 4, 0.1, 0, True), h, cfg)
        steps = np.diff(trace.taus)
        assert trace.taus[0] == 0.0
        assert steps[0] == 0.03
        assert np.all(steps <= 1.0)
        assert np.max(steps) > 0.03  # accepted steps grow

    def test_halving_is_bounded_on_an_ascent_direction(self, monkeypatch):
        import ucrbm.solver

        def ascent(*args):
            delta, residual = sr_update(*args)
            return -delta, residual

        monkeypatch.setattr(ucrbm.solver, "sr_update", ascent)
        h = build_tfi(4, 1.0)
        p0 = random_init(4, 4, 0.1, 0, True)
        cfg = IteConfig(n_steps=20, convergence_threshold=0.0)
        final, trace = ite_run(p0, h, cfg)
        assert trace.n_steps == 20
        assert np.all(np.isfinite(trace.thetas))
        assert np.all(np.isfinite(VariationalIndex.for_params(p0).flatten(final)))
        # every trial along -delta raises the energy: each step stops at
        # the bound and leaves the parameters where they are
        assert np.all(trace.trials == ucrbm.solver.MAX_TRIALS)
        assert np.all(trace.energies == trace.energies[0])
        assert np.all(trace.taus == 0.0)


class TestMeanFieldStage:
    def test_large_field_paramagnet(self):
        h = build_tfi(4, 5.0)
        cfg = IteConfig(n_steps=10, mean_field_steps=400)
        stage = mean_field_stage(h, cfg, n_hidden=0)
        assert expectation_exact(stage, h).mean == pytest.approx(-20.0, abs=1e-6)
        assert np.max(np.abs(stage.b.imag)) < 1e-8

    def test_product_state_floor_afh(self):
        # independent oracle: direct minimization over Bloch product states
        def product_energy(angles):
            t1, p1, t2, p2 = angles
            n1 = np.array([np.sin(t1) * np.cos(p1), np.sin(t1) * np.sin(p1), np.cos(t1)])
            n2 = np.array([np.sin(t2) * np.cos(p2), np.sin(t2) * np.sin(p2), np.cos(t2)])
            return float(n1 @ n2)

        best = min(
            scipy.optimize.minimize(product_energy, x0, method="Nelder-Mead").fun
            for x0 in ([0.3, 0.1, 2.8, 3.0], [1.5, 0.0, 1.5, 3.1], [0.8, 1.2, 2.2, 0.4])
        )
        assert best == pytest.approx(-1.0, abs=1e-4)

        h = build_afh(2)
        cfg = IteConfig(n_steps=10, mean_field_steps=400, seed=3)
        stage = mean_field_stage(h, cfg, n_hidden=0)
        assert expectation_exact(stage, h).mean >= best - 1e-6

    def test_molecular_product_state_is_nearly_exact(self):
        h = load_bundled("h2_two_qubit.txt")
        cfg = IteConfig(n_steps=10, mean_field_steps=800)
        stage = mean_field_stage(h, cfg, n_hidden=2)
        e_stage = expectation_exact(stage, h).mean
        e_exact = -1.8873602744086182  # dense diagonalization of the same file
        assert e_stage - e_exact < 0.05
        assert stage.n_hidden == 2
        assert np.all(stage.m == 0.0)
        assert np.any(stage.w != 0.0)

    @pytest.mark.parametrize("stddev", [-1.0, np.nan, np.inf])
    def test_bad_init_stddev_is_refused_before_the_stage(self, monkeypatch, stddev):
        import ucrbm.solver

        def no_stage(*args):
            raise AssertionError("the product stage ran before the refusal")

        monkeypatch.setattr(ucrbm.solver, "ite_run", no_stage)
        with pytest.raises(ValueError, match="stddev must be finite and non-negative"):
            mean_field_stage(build_tfi(4, 0.5), IteConfig(), init_stddev=stddev)

    def test_reseed_is_deterministic(self):
        h = build_tfi(3, 0.5)
        cfg = IteConfig(n_steps=10, seed=11, mean_field_steps=50)
        a = mean_field_stage(h, cfg, n_hidden=3)
        b = mean_field_stage(h, cfg, n_hidden=3)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


class TestGradCheck:
    def test_uniform_state_has_vanishing_imaginary_bias_force(self):
        h = build_tfi(3, 0.8)
        report = grad_check(zero_params(3, 3), h)
        index = VariationalIndex(3, 3, True)
        labels = index.labels()
        for i in range(3):
            assert abs(report.c[labels.index(f"b_im[{i}]")]) < 1e-10

    def test_random_parameters_match_finite_differences(self):
        h = build_tfi(2, 0.6)
        for seed in range(3):
            report = grad_check(random_init(2, 2, 0.3, seed, seed % 2 == 0), h)
            assert report.max_abs_deviation < 1e-6
            assert report.inferred_sign == -1.0

    def test_c_scales_linearly_with_hamiltonian(self):
        from ucrbm.hamiltonians import PauliHamiltonian

        h1 = build_tfi(2, 0.6)
        h2 = PauliHamiltonian(2, tuple((2 * c, w) for c, w in h1.terms))
        p = random_init(2, 2, 0.3, 4, True)
        c1 = compute_a_c_exact(p, h1).c
        c2 = compute_a_c_exact(p, h2).c
        np.testing.assert_allclose(c2, 2 * c1, atol=1e-12)


class TestTraceExport:
    def test_csv_header_and_determinism(self, tmp_path):
        h = build_tfi(2, 0.5)
        _, trace = ite_run(random_init(2, 2, 0.1, 0, True), h, IteConfig(n_steps=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace_csv(trace, p1)
        export_trace_csv(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "step,tau,energy,std_error,min_eig_A,residual"
        assert len(p1.read_text().splitlines()) == trace.n_steps + 1

    def test_snapshot_file_shape(self, tmp_path):
        h = build_tfi(2, 0.5)
        _, trace = ite_run(random_init(2, 2, 0.1, 0, True), h, IteConfig(n_steps=4))
        path = tmp_path / "theta.txt"
        export_theta_snapshots(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == trace.n_steps
        assert len(lines[0].split()) == VariationalIndex(2, 2, True).size
