#!/usr/bin/env python3
"""Print the pairing ODE's shooting counts on a fixed set of instances, one
line each, then their totals:

    scripts/nad_counts.py [--grid-n N[,N...]]

The instances are the ODE-route ones among every preset at --grid-n 41 and
101 and every preset variant of tests/test_presets.py::VARIANTS at 41: those
on which ``optrans nad`` shoots, that is, with a prior density, no quantile
shortcut and a NAD condition that does not fail.  --grid-n replaces both
lists of sizes by its own.  Each line reads

    <preset>[<params>]@<n> stage1=<k> bracket=<k> stage2=<k> ended=<how> rhs=<k> floor=<k> y_low=<repr> y_high=<repr>

from the ``optrans.nad`` DEBUG record of the solve: the shots of each stage
(stage1 counts every first-stage shot, bracket those of them the bisection
over the scan grid took), how the second stage ended (collided, fell_back
or skipped), the RHS evaluations and the midpoint steps an end at the
action floor forced.  A
solve that raises prints ``<preset>[<params>]@<n> error=<class>`` instead.

Runs the checkout's own src.  The output depends only on the code, so two
checkouts can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lp_counts import variants  # noqa: E402
from optrans.errors import OptransError  # noqa: E402
from optrans.nad import solve_nad  # noqa: E402
from optrans.presets import preset, preset_ids  # noqa: E402
from optrans.structure import check_nad_condition  # noqa: E402

RECORD = re.compile(
    r"ode: (\d+) shots in stage 1 \((\d+) bracketing\), (\d+) in stage 2 \((collided|fell back|skipped)[^)]*\), "
    r"(\d+) RHS evaluations, (\d+) midpoint steps at the action floor"
)


class Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grid-n", help="comma-separated grid sizes for presets and variants")
    args = ap.parse_args(argv)
    sizes, variant_sizes = (41, 101), (41,)
    if args.grid_n:
        sizes = variant_sizes = tuple(int(n) for n in args.grid_n.split(","))
    runs = [(pid, {}, n) for n in sizes for pid in preset_ids()]
    runs += [(pid, params, n) for n in variant_sizes for pid, params in variants()]
    records = Records()
    logger = logging.getLogger("optrans.nad")
    logger.setLevel(logging.DEBUG)
    logger.addHandler(records)
    total = [0, 0, 0, 0]  # stage-1 shots, stage-2 shots, RHS evaluations, floor steps
    solves = failed = 0
    for pid, params, n in runs:
        pb, meta = preset(pid, grid_n=n, **params)
        if meta.prior_density is None or pb.quantile_kappa is not None:
            continue
        if check_nad_condition(pb).label == "fails":
            continue
        kv = ",".join(f"{k}={v}" for k, v in params.items())
        name = f"{pid}[{kv}]" if kv else pid
        records.messages.clear()
        try:
            sol = solve_nad(pb, meta.prior_density, prior_cdf=meta.prior_cdf)
        except OptransError as exc:
            failed += 1
            print(f"{name}@{n} error={type(exc).__name__}", flush=True)
            continue
        (m,) = [RECORD.fullmatch(msg) for msg in records.messages]
        counts = [int(m[k]) for k in (1, 3, 5, 6)]
        total = [a + b for a, b in zip(total, counts)]
        solves += 1
        print(
            f"{name}@{n} stage1={counts[0]} bracket={m[2]} stage2={counts[1]} ended={m[4].replace(' ', '_')} "
            f"rhs={counts[2]} floor={counts[3]} y_low={sol.y_low!r} y_high={sol.y_high!r}",
            flush=True,
        )
    print(
        f"total: {solves} solves, {total[0]} shots in stage 1, {total[1]} in stage 2, "
        f"{total[2]} RHS evaluations, {total[3]} floor steps, {failed} failed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
