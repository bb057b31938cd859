#!/usr/bin/env python3
"""Compare two trees written by ``scripts/snapshot.sh``:

    scripts/snapshot_diff.py OUT1 OUT2

Prints every run and file that differ.  For a JSON file each differing key
path is printed with both values and, where both are numbers, |d|.  For a
CSV file the differing rows are printed, then the largest |d| per column.
Any other file (stdout, stderr, exit) is reported as differing.  Exits 0
when the trees are identical, else 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_diff(a, b, path=""):
    """(key path, value in a, value in b) for each leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{k}" if path else str(k)
            if k not in a or k not in b:
                yield sub, a.get(k, "<missing>"), b.get(k, "<missing>")
            else:
                yield from _json_diff(a[k], b[k], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def _float(s: str):
    try:
        return float(s)
    except ValueError:
        return None


def _csv_diff(a: str, b: str) -> list:
    """Lines reporting the rows that differ and the largest |d| per column.
    A blank line starts a new block whose first row is its header."""
    out = []
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        out.append(f"  {len(la)} rows -> {len(lb)} rows")
    worst = {}
    header = []
    for i, (ra, rb) in enumerate(zip(la, lb)):
        if i == 0 or la[i - 1] == "":
            header = ra.split(",")
        if ra == rb:
            continue
        out.append(f"  row {i + 1}: {ra} -> {rb}")
        fa, fb = ra.split(","), rb.split(",")
        for k, (x, y) in enumerate(zip(fa, fb)):
            vx, vy = _float(x), _float(y)
            if x != y and vx is not None and vy is not None:
                col = header[k] if k < len(header) else str(k)
                worst[col] = max(worst.get(col, 0.0), abs(vx - vy))
    for col, d in worst.items():
        out.append(f"  largest |d| in column {col}: {d:.3e}")
    return out


def _file_diff(fa: Path, fb: Path) -> list:
    if fa.suffix == ".json":
        try:
            ja, jb = json.loads(fa.read_text()), json.loads(fb.read_text())
        except ValueError:
            return ["  differs (not valid JSON)"]
        lines = []
        for path, x, y in _json_diff(ja, jb):
            d = f"  |d|={abs(x - y):.3e}" if _is_number(x) and _is_number(y) else ""
            lines.append(f"  {path}: {x!r} -> {y!r}{d}")
        return lines or ["  differs in formatting only"]
    if fa.suffix == ".csv":
        return _csv_diff(fa.read_text(), fb.read_text())
    return ["  differs"]


def diff_trees(one: Path, two: Path) -> list:
    """(file path relative to the trees, report lines) for every file that
    differs or is in one tree only; empty if the trees are identical."""
    found = []
    files = sorted(
        {p.relative_to(one) for p in one.rglob("*") if p.is_file()}
        | {p.relative_to(two) for p in two.rglob("*") if p.is_file()}
    )
    for rel in files:
        fa, fb = one / rel, two / rel
        if not fa.is_file() or not fb.is_file():
            found.append((rel, [f"  only in {one if fa.is_file() else two}"]))
        elif fa.read_bytes() != fb.read_bytes():
            found.append((rel, _file_diff(fa, fb)))
    return found


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: snapshot_diff.py OUT1 OUT2", file=sys.stderr)
        return 2
    found = diff_trees(Path(sys.argv[1]), Path(sys.argv[2]))
    for rel, lines in found:
        print(rel)
        print("\n".join(lines))
    print(f"{len({rel.parts[0] for rel, _ in found})} run(s) differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
