#!/usr/bin/env python3
"""Print the outcome LP's objective and simplex iteration counts on a fixed
set of instances, one line each, then their totals:

    scripts/lp_counts.py [--grid-n N[,N...]] [--large]

The instances are every preset at --grid-n 41, 101 and 201 and every preset
variant of tests/test_presets.py::VARIANTS at 101 and 201 (72 LPs); --large
adds example_c3, example_c1 and contest at 401.  --grid-n replaces both
lists of sizes by its own.  Each line reads

    <preset>[<params>]@<n> objective=<repr> iterations=<k> phase1=<k>

Runs the checkout's own src.  The output depends only on the code, so two
checkouts can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from optrans.lp import build_lp, solve_primal  # noqa: E402
from optrans.presets import preset, preset_ids  # noqa: E402

LARGE = ("example_c3", "example_c1", "contest")


def variants() -> list:
    """``VARIANTS`` of tests/test_presets.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_presets.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "VARIANTS"
    )


def instances(sizes, variant_sizes, large) -> list:
    out = [(pid, {}, n) for n in sizes for pid in preset_ids()]
    out += [(pid, params, n) for n in variant_sizes for pid, params in variants()]
    if large:
        out += [(pid, {}, 401) for pid in LARGE]
    return out


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grid-n", help="comma-separated grid sizes for presets and variants")
    ap.add_argument("--large", action="store_true", help="add three presets at n=401")
    args = ap.parse_args(argv)
    sizes, variant_sizes = (41, 101, 201), (101, 201)
    if args.grid_n:
        sizes = variant_sizes = tuple(int(n) for n in args.grid_n.split(","))
    total_its = total_ph1 = 0
    runs = instances(sizes, variant_sizes, args.large)
    for pid, params, n in runs:
        lp = build_lp(preset(pid, grid_n=n, **params)[0])
        _, objective = solve_primal(lp)
        its, ph1 = lp.solution.iterations, lp.solution.phase1_iterations
        total_its, total_ph1 = total_its + its, total_ph1 + ph1
        kv = ",".join(f"{k}={v}" for k, v in params.items())
        name = f"{pid}[{kv}]" if kv else pid
        print(f"{name}@{n} objective={objective!r} iterations={its} phase1={ph1}", flush=True)
    print(f"total: {len(runs)} LPs, {total_its} iterations, {total_ph1} in phase 1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
