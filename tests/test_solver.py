import numpy as np
import pytest
import scipy.optimize

from ucrbm.errors import NumericalIntegrityError
from ucrbm.estimators import SrSystem, Estimate, compute_a_c_exact, expectation_exact
from ucrbm.hamiltonians import build_afh, build_tfi, load_bundled
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
    return SrSystem(
        a=a, c=c, energy=Estimate(0.0, 0.0, 0, "exact"), n_preparations=0
    )


def zero_params(n, m):
    return RbmParams(
        b=np.zeros(n, complex), m=np.zeros(m, complex), w=np.zeros((n, m), complex),
        unitary_coupled=True,
    )


class TestSrUpdate:
    def test_identity_matrix_returns_scaled_c(self):
        c = np.array([1.0, -2.0, 0.5])
        delta, residual = sr_update(make_system(np.eye(3), c), 0.0, 0.02)
        np.testing.assert_allclose(delta, 0.02 * c, atol=1e-14)
        assert residual < 1e-12

    def test_zero_c_is_stationary(self):
        a = np.diag([2.0, 3.0])
        delta, _ = sr_update(make_system(a, np.zeros(2)), 1e-3, 0.01)
        assert np.all(delta == 0.0)

    def test_spd_solve_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            root = rng.normal(size=(6, 6))
            a = root @ root.T + 0.1 * np.eye(6)
            c = rng.normal(size=6)
            delta, residual = sr_update(make_system(a, c), 1e-3, 0.01)
            assert residual <= 1e-8 * np.linalg.norm(c)

    def test_singular_matrix_uses_truncated_pseudo_inverse(self):
        a = np.diag([1.0, 0.0])
        c = np.array([2.0, 3.0])
        delta, _ = sr_update(make_system(a, c), 0.0, 1.0)
        np.testing.assert_allclose(delta, [2.0, 0.0], atol=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sr_update(make_system(np.eye(2), np.array([np.inf, 0.0])), 0.0, 0.01)


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

        def failing(params, ham):
            calls.append(params)
            if len(calls) == 3:
                raise NumericalIntegrityError("A has non-finite entries")
            return compute_a_c_exact(params, ham)

        monkeypatch.setattr(ucrbm.solver, "compute_a_c_exact", failing)
        with pytest.raises(NumericalIntegrityError, match="^step 2: A has non-finite"):
            ite_run(random_init(2, 2, 0.1, 1, True), h, IteConfig(n_steps=5))

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
        cfg = IteConfig(n_steps=7, dtau=0.03, convergence_threshold=0.0)
        _, trace = ite_run(random_init(2, 2, 0.1, 0, True), h, cfg)
        np.testing.assert_allclose(np.diff(trace.taus), 0.03, atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IteConfig(dtau=0.0)
        with pytest.raises(ValueError):
            IteConfig(n_steps=0)
        with pytest.raises(ValueError):
            IteConfig(regularization=-1e-3)
        with pytest.raises(ValueError):
            IteConfig(mode="metropolis")


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
