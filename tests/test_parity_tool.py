import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _parity_module():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_working_tree_against_itself_is_bitwise(tmp_path):
    # tools/parity.py imports each tree in its own subprocess; one tree
    # against itself must give every quantity bitwise and no refusal
    src, out = ROOT / "src", tmp_path / "parity.json"
    cmd = [sys.executable, str(ROOT / "tools" / "parity.py"), str(src), str(src)]
    done = subprocess.run(
        cmd + ["--grid", "smoke", "--out", str(out)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    flags = [c["bitwise"] for point in report["points"].values() for c in point.values()]
    assert len(report["points"]) == 9 and len(flags) == 66 and all(flags)
    assert "oracle/branches/n2m3/seed0" in report["points"]
    assert report["summary"]["all_equal"] and report["summary"]["refusals"] == 0


def test_summary_separates_rounding_noise_from_real_differences():
    # a synthetic ite_run trace: P = 10 slots, max_eig_a = 1e3, so the trace
    # resolves min_eig_a only to 10 * eps * 1e3, about 2.2e-12
    parity = _parity_module()
    steps = 5
    trace = {
        "energies": np.linspace(-2.0, -3.0, steps),
        "thetas": np.ones((steps, 10)),
        "min_eig_a": np.full(steps, 1e-15),
        "max_eig_a": np.full(steps, 1e3),
        "residuals": np.full(steps, 1e-15),
    }

    def summary(**changes):
        new = dict(trace, **changes)
        return parity.summarize(parity.compare({"ite/x": trace}, {"ite/x": new}))

    assert summary()["all_equal"] and summary()["max_rel_diff"] == 0.0
    noisy = summary(min_eig_a=trace["min_eig_a"] + 1e-15, residuals=trace["residuals"] * 2)
    assert noisy["max_rel_diff"] == 0.0
    assert noisy["max_residual_abs_diff"] == 1e-15
    assert not noisy["all_equal"]
    moved = summary(min_eig_a=trace["min_eig_a"] + 1e-15, energies=trace["energies"] * (1 + 1e-9))
    assert 0.9e-9 < moved["max_rel_diff"] < 1.1e-9
    assert not moved["all_equal"]
    # beyond the resolution min_eig_a counts, relative to its own size
    assert summary(min_eig_a=trace["min_eig_a"] + 1e-11)["max_rel_diff"] > 1.0
    # the raw relative difference stays in the per-quantity entry
    doubled = dict(trace, min_eig_a=trace["min_eig_a"] * 2)
    entry = parity.compare({"ite/x": trace}, {"ite/x": doubled})["ite/x"]["min_eig_a"]
    assert entry["rel_diff"] == 1.0
