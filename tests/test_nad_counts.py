import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "nad_counts.py"
LINE = re.compile(
    r"(\S+)@21 stage1=(\d+) bracket=(\d+) stage2=(\d+) ended=(collided|fell_back|skipped) "
    r"rhs=(\d+) floor=(\d+) y_low=(\S+) y_high=(\S+)"
)
FAILED = re.compile(r"(\S+)@21 error=(\w+)")


def test_prints_every_solve_and_the_totals():
    argv = [sys.executable, str(SCRIPT), "--grid-n", "21"]
    runs = [subprocess.run(argv, capture_output=True, text=True) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout  # deterministic
    *lines, total = runs[0].stdout.splitlines()
    rows = [m for m in map(LINE.fullmatch, lines) if m]
    failed = [m for m in map(FAILED.fullmatch, lines) if m]
    assert len(rows) + len(failed) == len(lines), lines
    names = [m[1] for m in rows]
    assert names == ["contest", "example_c1", "option_pricing", "translation_receiver", "translation_sender"]
    ended = {m[1]: m[5] for m in rows}
    assert ended["translation_receiver"] == "collided" and ended["example_c1"] == "skipped"
    assert all(float(m[8]) < float(m[9]) for m in rows)  # y_low below y_high
    assert all(0 < int(m[3]) <= int(m[2]) for m in rows)  # the bracket search is part of stage 1
    sums = [sum(int(m[k]) for m in rows) for k in (2, 4, 6, 7)]
    assert total == (
        f"total: {len(rows)} solves, {sums[0]} shots in stage 1, {sums[1]} in stage 2, "
        f"{sums[2]} RHS evaluations, {sums[3]} floor steps, {len(failed)} failed"
    )
