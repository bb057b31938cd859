"""The solver chains the CLI commands run, timed layer by layer, and the checks
that decide whether an instance's answer is right.

Each chain calls the same public functions, in the same order, as one CLI
command: ``run_solve`` as ``optrans certify`` plus the ``solve`` artifacts,
``run_check`` as ``optrans check`` and ``run_nad`` as ``optrans nad``.  Every
call sits in a span named after its layer.  The ``check_*`` functions run
after the instance's timed region and turn its results into counters and a
list of failed checks.  The LP oracle (HiGHS) is applied later, by the
caller, once all timed passes are over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from optrans.cli import (
    read_outcome_csv,
    read_prices_csv,
    write_nad_csv,
    write_outcome_csv,
    write_prices_csv,
)
from optrans.lp import (
    build_lp,
    contact_set,
    solve_dual,
    solve_primal,
    verify_complementary_slackness,
)
from optrans.model import check_assumptions
from optrans.nad import solve_nad, verify_against_lp
from optrans.presets import oracle_check, preset
from optrans.structure import (
    check_full_disclosure,
    check_nad_condition,
    check_sdpd_sufficient,
    check_twist,
    classify_monotonicity,
)

# Relative duality gap |dual - primal| / (1 + |primal|) an instance may show;
# the same tolerance lp.solve_dual accepts before it falls back.
GAP_TOL = 1e-8
# write_outcome_csv's default support threshold.
CSV_MASS_TOL = 1e-12

# span name and function of each check-chain test that needs only the problem
CHECK_TESTS = {
    "assumptions": ("model.check_assumptions", check_assumptions),
    "twist": ("structure.check_twist", check_twist),
    "sdpd": ("structure.check_sdpd", check_sdpd_sufficient),
    "full_disclosure": ("structure.check_full_disclosure", check_full_disclosure),
    "nad_condition": ("structure.check_nad_condition", check_nad_condition),
}


@dataclass
class Instance:
    part: str
    chain: str
    preset_id: str
    grid_n: int
    problem: object
    meta: object

    @property
    def key(self) -> str:
        return f"{self.chain}:{self.preset_id}@{self.grid_n}"


def build_instances(specs, tracer) -> list:
    out = []
    for part, chain, pid, n in specs:
        with tracer.span("presets.preset"):
            problem, meta = preset(pid, grid_n=n)
        out.append(Instance(part, chain, pid, n, problem, meta))
    return out


@dataclass
class Checked:
    """Counters and failed checks of one instance's run."""

    counts: Counter = field(default_factory=Counter)  # summed over instances
    worst: dict = field(default_factory=dict)  # maximum over instances
    failures: list = field(default_factory=list)
    lp_data: Optional[tuple] = None  # (A, b, c) for the oracle
    objective: Optional[float] = None

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def note_worst(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), value)


# ---------------------------------------------------------------------------
# chains


def run_solve(tr, inst, out, steps=None) -> dict:
    pb = inst.problem
    with tr.span("lp.build_lp"):
        lp = build_lp(pb)
    with tr.span("lp.solve_primal"):
        outcome, objective = solve_primal(lp)
    with tr.span("lp.solve_dual"):
        prices = solve_dual(lp, outcome)
    with tr.span("lp.contact_set"):
        contact = contact_set(pb, prices, lp=lp)
    with tr.span("lp.verify_cs"):
        verify_complementary_slackness(pb, outcome, prices)
    with tr.span("cli.write_artifacts"):
        write_outcome_csv(out / "outcome.csv", pb, outcome)
        write_prices_csv(out / "prices.csv", pb, prices)
    return {"lp": lp, "outcome": outcome, "objective": objective, "prices": prices, "contact": contact}


def run_check(tr, inst, out, steps) -> dict:
    pb = inst.problem
    res = {}
    for name in steps:
        span, test = CHECK_TESTS[name]
        with tr.span(span):
            res[name] = test(pb)
    with tr.span("lp.build_lp"):
        res["lp"] = build_lp(pb)
    with tr.span("lp.solve_primal"):
        outcome, res["objective"] = solve_primal(res["lp"])
    with tr.span("structure.classify"):
        res["classify"] = classify_monotonicity(pb, outcome)
    return res


def run_nad(tr, inst, out, steps=None) -> dict:
    pb, meta = inst.problem, inst.meta
    with tr.span("nad.solve_nad"):
        sol = solve_nad(pb, meta.prior_density, prior_cdf=meta.prior_cdf)
    with tr.span("cli.write_artifacts"):
        write_nad_csv(out / "nad.csv", sol)
    with tr.span("lp.build_lp"):
        lp = build_lp(pb)
    with tr.span("lp.solve_primal"):
        outcome, objective = solve_primal(lp)
    with tr.span("nad.verify_against_lp"):
        cmp = verify_against_lp(pb, sol, outcome, prior_cdf=meta.prior_cdf)
    return {"sol": sol, "lp": lp, "objective": objective, "cmp": cmp}


# ---------------------------------------------------------------------------
# checks


def _check_lp(ck: Checked, inst, lp, objective) -> None:
    ck.counts["lp.mass_variables"] += int(lp.n_mass)
    ck.counts["lp.rows"] += int(lp.n_rows)
    ck.counts["simplex.iterations"] += int(lp.solution.iterations)
    ck.counts["simplex.dropped_rows"] += len(lp.solution.dropped_rows)
    ck.lp_data = (lp.A, lp.b, lp.c)
    ck.objective = float(objective)
    _check_oracle(ck, inst, {"objective": objective})


def _check_oracle(ck: Checked, inst, computed: dict) -> None:
    for f in oracle_check(inst.meta, computed).fields:
        if not f.passed:
            ck.fail(f"{f.name} off the preset's closed form by {f.deviation:.3e} > {f.tolerance:.1e}")


def check_solve(inst, res, out) -> Checked:
    ck = Checked()
    objective, prices, outcome = res["objective"], res["prices"], res["outcome"]
    _check_lp(ck, inst, res["lp"], objective)
    gap = abs(prices.dual_objective - objective) / (1.0 + abs(objective))
    ck.note_worst("lp.duality_gap_max", gap)
    if not gap <= GAP_TOL:
        ck.fail(f"relative duality gap {gap:.3e} > {GAP_TOL:.0e}")
    ck.counts["lp.dual_degenerate"] += int(prices.degenerate)
    ck.counts["lp.contact_pairs"] += len(res["contact"].pairs)
    # the artifacts must read back exactly (17 significant digits round-trip)
    p_rows, q_rows = read_prices_csv(out / "prices.csv")
    if [p for _, p in p_rows] != prices.p.tolist() or [q for _, q in q_rows] != prices.q.tolist():
        ck.fail("prices.csv does not read back to the price system")
    support = outcome.mass[outcome.mass > CSV_MASS_TOL]
    if [m for _, _, m in read_outcome_csv(out / "outcome.csv")] != support.tolist():
        ck.fail("outcome.csv does not read back to the outcome")
    return ck


def check_check(inst, res, out) -> Checked:
    ck = Checked()
    _check_lp(ck, inst, res["lp"], res["objective"])
    for test, want in inst.meta.expected_verdicts.items():
        got = res[test].label
        if got not in (want if isinstance(want, tuple) else (want,)):
            ck.counts["structure.verdict_mismatches"] += 1
            ck.fail(f"{test} verdict {got!r}, preset expects {want!r}")
    flags = res["assumptions"].flags()
    for flag, want in inst.meta.expected_flags.items():
        if flags[flag] != want:
            ck.counts["structure.verdict_mismatches"] += 1
            ck.fail(f"assumption flag {flag}={flags[flag]}, preset expects {want}")
    ck.counts["structure.snap_discounted"] += int(res["classify"].snap_discounted)
    return ck


def check_nad(inst, res, out) -> Checked:
    ck = Checked()
    _check_lp(ck, inst, res["lp"], res["objective"])
    sol, cmp = res["sol"], res["cmp"]
    ck.counts["nad.flagged"] += int(cmp.flagged)
    if cmp.flagged:
        ck.fail(f"pairing disagrees with the LP near action {cmp.flagged_action}")
    residual = abs(sol.terminal_residual)
    if not np.isfinite(residual):
        ck.fail(f"terminal residual {sol.terminal_residual}")
    ck.note_worst("nad.terminal_residual_max", residual)
    _check_oracle(ck, inst, {"y_low": sol.y_low, "y_high": sol.y_high})
    return ck


CHAINS = {
    "solve": (run_solve, check_solve),
    "check": (run_check, check_check),
    "nad": (run_nad, check_nad),
}
