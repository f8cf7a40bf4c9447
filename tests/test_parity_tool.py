import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    assert len(report["points"]) == 8 and len(flags) == 56 and all(flags)
    assert report["summary"]["all_equal"] and report["summary"]["refusals"] == 0
