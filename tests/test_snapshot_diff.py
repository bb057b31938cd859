import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "snapshot_diff.py"


def write_tree(root: Path, margin: float, q: str, stdout: str, extra_run: bool = False):
    run = root / "check-linear-n41"
    run.mkdir(parents=True)
    verdicts = {"twist": {"label": "holds"}, "full_disclosure": {"label": "optimal", "margin": margin}}
    (run / "verdicts.json").write_text(json.dumps(verdicts, indent=2))
    (run / "prices.csv").write_text(f"x,p\n0.0,1.5\n1.0,2.5\n\ny,q\n0.0,{q}\n1.0,3.0\n")
    (run / "stdout").write_text(stdout)
    (run / "exit").write_text("0\n")
    if extra_run:
        (root / "presets").mkdir()
        (root / "presets" / "exit").write_text("0\n")


def snapshot_diff(one: Path, two: Path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(one), str(two)], capture_output=True, text=True
    )


def test_identical_trees_exit_zero(tmp_path):
    write_tree(tmp_path / "a", -1e-6, "0.25", "ok\n")
    write_tree(tmp_path / "b", -1e-6, "0.25", "ok\n")
    done = snapshot_diff(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 0
    assert done.stdout == "0 run(s) differ\n"


def test_reports_each_difference(tmp_path):
    write_tree(tmp_path / "a", -1e-6, "0.25", "ok\n")
    write_tree(tmp_path / "b", -1.5e-6, "0.5", "other\n", extra_run=True)
    done = snapshot_diff(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 1
    out = done.stdout.splitlines()
    assert "check-linear-n41/verdicts.json" in out
    assert "  full_disclosure.margin: -1e-06 -> -1.5e-06  |d|=5.000e-07" in out
    assert "check-linear-n41/prices.csv" in out
    assert "  row 6: 0.0,0.25 -> 0.0,0.5" in out
    assert "  largest |d| in column q: 2.500e-01" in out
    assert not any("column p" in line for line in out)
    assert out[out.index("check-linear-n41/stdout") + 1] == "  differs"
    assert out[out.index("presets/exit") + 1] == f"  only in {tmp_path / 'b'}"
    assert "check-linear-n41/exit" not in out
    assert not any("twist" in line for line in out)
    assert out[-1] == "2 run(s) differ"
