import pytest

from ucrbm.cli import main
from ucrbm.hamiltonians import build_tfi, save_pauli_file


def run_cli(args):
    return main(args)


class TestExact:
    def test_tfi_prints_ground_energy(self, capsys):
        assert run_cli(["exact", "--model", "tfi", "--n", "2", "--h", "0"]) == 0
        assert capsys.readouterr().out.strip() == "-1.0000000000"

    def test_afh_three_sites(self, capsys):
        assert run_cli(["exact", "--model", "afh", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "-4.0000000000"

    def test_tqd_prints_ten_digits(self, capsys):
        assert run_cli(["exact", "--model", "tqd", "--b-field", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split(".")[1]) == 10

    def test_pauli_file_model(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        save_pauli_file(build_tfi(2, 0.0), path)
        assert run_cli(["exact", "--pauli-file", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "-1.0000000000"


class TestUsageErrors:
    def test_missing_model_is_usage_error(self):
        assert run_cli(["exact"]) == 1

    def test_model_and_file_conflict(self, tmp_path):
        path = tmp_path / "h.txt"
        save_pauli_file(build_tfi(2, 0.0), path)
        assert run_cli(["exact", "--model", "tfi", "--n", "2", "--pauli-file", str(path)]) == 1

    def test_alpha_and_hidden_conflict(self):
        code = run_cli(
            ["ite", "--model", "afh", "--n", "2", "--alpha", "1", "--m-hidden", "2",
             "--steps", "2"]
        )
        assert code == 1

    def test_tfi_needs_length(self):
        assert run_cli(["exact", "--model", "tfi"]) == 1

    def test_sample_bench_has_no_unrestricted_flag(self):
        # sample-bench always builds unitary-coupled parameters
        code = run_cli(
            ["sample-bench", "--model", "tfi", "--n", "2", "--m-hidden", "2",
             "--n-samples", "100", "--unrestricted"]
        )
        assert code == 1

    def test_unrestricted_ensemble_is_refused_before_any_work(self, tmp_path):
        trace = tmp_path / "t.csv"
        code = run_cli(
            ["ite", "--model", "tfi", "--n", "2", "--mode", "ensemble",
             "--unrestricted", "--mean-field", "--steps", "2",
             "--trace-out", str(trace), "--params-out", str(tmp_path / "p.txt")]
        )
        assert code == 1
        assert not trace.exists()


class TestComputeErrors:
    def test_missing_file_is_compute_error(self):
        assert run_cli(["exact", "--pauli-file", "/nonexistent/file.txt"]) == 2

    def test_zero_convergence_window_is_refused_before_any_work(self, tmp_path):
        trace = tmp_path / "t.csv"
        code = run_cli(
            ["ite", "--model", "tfi", "--n", "3", "--steps", "50", "--conv-window", "0",
             "--trace-out", str(trace), "--params-out", str(tmp_path / "p.txt")]
        )
        assert code == 2
        assert not trace.exists()

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_bad_convergence_threshold_is_refused_before_any_work(self, tmp_path, threshold):
        trace = tmp_path / "t.csv"
        code = run_cli(
            ["ite", "--model", "tfi", "--n", "3", "--steps", "50",
             f"--conv-threshold={threshold}",
             "--trace-out", str(trace), "--params-out", str(tmp_path / "p.txt")]
        )
        assert code == 2
        assert not trace.exists()

    def test_zero_mean_field_steps_are_refused_before_any_work(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = run_cli(
            ["ite", "--model", "tfi", "--n", "3", "--steps", "5", "--mean-field",
             "--mean-field-steps", "0",
             "--trace-out", str(trace), "--params-out", str(tmp_path / "p.txt")]
        )
        assert code == 2
        assert "mean_field_steps" in capsys.readouterr().err
        assert not trace.exists()

    def test_degenerate_ensemble_weights_name_the_step(self, capsys):
        # at this start the step-0 batch has an effective sample size of
        # 35 of 4096 (0.0086), below the 1/64 floor
        code = run_cli(
            ["ite", "--model", "tfi", "--n", "10", "--init-std", "0.7", "--seed", "1",
             "--mode", "ensemble", "--steps", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "step 0: effective sample size" in err


class TestIte:
    def test_afh_run_writes_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        params = tmp_path / "params.txt"
        svg = tmp_path / "run.svg"
        snaps = tmp_path / "theta.txt"
        code = run_cli(
            [
                "ite", "--model", "afh", "--n", "2", "--steps", "600",
                "--seed", "5", "--trace-out", str(trace), "--params-out", str(params),
                "--svg-out", str(svg), "--snapshots-out", str(snaps),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final energy:" in out and "exact energy:" in out
        assert trace.exists() and params.exists() and snaps.exists()
        header = trace.read_text().splitlines()[0]
        assert header == "step,tau,energy,std_error,min_eig_A,residual"
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_rerun_is_byte_identical(self, tmp_path):
        args = lambda name: [
            "ite", "--model", "tfi", "--n", "2", "--h", "0.5", "--steps", "40",
            "--seed", "3", "--mode", "vmc", "--n-samples", "300",
            "--trace-out", str(tmp_path / name), "--params-out",
            str(tmp_path / (name + ".params")),
        ]
        assert run_cli(args("a.csv")) == 0
        assert run_cli(args("b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_tfi_headline_flags_reach_band(self, tmp_path, capsys):
        code = run_cli(
            [
                "ite", "--model", "tfi", "--n", "6", "--h", "0.5", "--alpha", "1",
                "--dtau", "0.01", "--steps", "800", "--seed", "0",
                "--trace-out", str(tmp_path / "t.csv"),
                "--params-out", str(tmp_path / "p.txt"),
            ]
        )
        assert code == 0
        rel = float(capsys.readouterr().out.split("rel. error:")[1].strip())
        assert rel <= 1e-3

    def test_mean_field_flag(self, tmp_path):
        code = run_cli(
            [
                "ite", "--model", "tfi", "--n", "2", "--h", "0.5", "--steps", "50",
                "--mean-field", "--mean-field-steps", "50",
                "--trace-out", str(tmp_path / "t.csv"),
                "--params-out", str(tmp_path / "p.txt"),
            ]
        )
        assert code == 0

    def test_pauli_file_run_converges(self, tmp_path, capsys):
        from ucrbm.hamiltonians import load_bundled

        path = tmp_path / "h2.txt"
        save_pauli_file(load_bundled("h2_two_qubit.txt"), path)
        code = run_cli(
            [
                "ite", "--pauli-file", str(path), "--steps", "1500", "--seed", "1",
                "--trace-out", str(tmp_path / "t.csv"),
                "--params-out", str(tmp_path / "p.txt"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rel = float(out.split("rel. error:")[1].strip())
        assert rel < 1e-3


class TestSampleBench:
    def test_consistent_estimators_pass(self, capsys):
        code = run_cli(
            [
                "sample-bench", "--model", "tfi", "--n", "2", "--h", "0.5",
                "--m-hidden", "2", "--seed", "4", "--n-samples", "4000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out and "vmc" in out and "ensemble" in out


class TestIdentities:
    def test_default_sweep_passes(self, capsys):
        assert run_cli(["identities", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "ensemble identities" in out and "FAIL" not in out

    def test_corrupt_flag_fails(self, capsys):
        assert run_cli(["identities", "--seeds", "2", "--corrupt"]) == 3
        assert "FAIL" in capsys.readouterr().out
