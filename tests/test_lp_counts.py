import math
import re
import subprocess
import sys
from pathlib import Path

from optrans.presets import preset_ids

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lp_counts.py"
LINE = re.compile(r"(\S+)@21 objective=(\S+) iterations=(\d+) phase1=(\d+)")


def test_prints_every_lp_and_the_totals():
    argv = [sys.executable, str(SCRIPT), "--grid-n", "21"]
    runs = [subprocess.run(argv, capture_output=True, text=True) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout  # deterministic
    *lines, total = runs[0].stdout.splitlines()
    rows = [LINE.fullmatch(line) for line in lines]
    assert all(rows), lines
    names = [m[1] for m in rows]
    assert names[: len(preset_ids())] == list(preset_ids())
    assert "contest[xmin=1.0,xmax=2.0]" in names
    assert all(math.isfinite(float(m[2])) for m in rows)
    iterations = sum(int(m[3]) for m in rows)
    phase1 = sum(int(m[4]) for m in rows)
    assert total == f"total: {len(rows)} LPs, {iterations} iterations, {phase1} in phase 1"
