"""Batch front-end: solve / check / nad / certify / presets.

Problem specs are JSON, either a preset reference or inline tabulated V/u
matrices.  Bulk results are CSV with a header row, comma separators, LF line
endings, '.' decimals, and floats printed with 17 significant digits so that
reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import nad as nad_mod
from .errors import (
    OptransError,
    ParseError,
    SchemaVersionMismatch,
    ShapeMismatch,
)
from .grids import from_points
from .lp import build_lp, contact_set, solve_dual, solve_primal, verify_complementary_slackness
from .model import Problem, check_assumptions
from .presets import preset, preset_ids
from .structure import (
    check_full_disclosure,
    check_nad_condition,
    check_sdpd_sufficient,
    check_twist,
    classify_monotonicity,
)

SCHEMA_VERSION = 1
CSV_MASS_TOL = 1e-12  # outcome.csv lists the cells carrying more mass than this


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every command."""

    command: str
    preset: Optional[str] = None
    spec: Optional[str] = None
    params: Optional[str] = None
    grid_n: Optional[str] = None
    out: str = "."
    tol_contact: Optional[float] = None

    def __post_init__(self):
        if self.tol_contact is not None and not self.tol_contact > 0:
            raise ParseError("tol_contact must be positive", field="tol_contact")
        if self.grid_n is not None:
            try:
                parts = [int(p) for p in str(self.grid_n).split(",")]
            except ValueError:
                raise ParseError(f"bad --grid-n {self.grid_n!r}", field="grid_n")
            if any(p < 3 for p in parts):
                raise ParseError("grid sizes must be at least 3", field="grid_n")

    def grid_sizes(self):
        if self.grid_n is None:
            return 101, None
        parts = [int(p) for p in str(self.grid_n).split(",")]
        return parts[0], (parts[1] if len(parts) > 1 else None)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _interp2(states: np.ndarray, actions: np.ndarray, table: np.ndarray):
    """Bilinear interpolation of an actions x states table, clamped at the
    grid edges; vectorized over broadcast (y, x) arrays."""

    def f(y, x):
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        y, x = np.broadcast_arrays(y, x)
        iy = np.clip(np.searchsorted(actions, y) - 1, 0, actions.size - 2)
        ix = np.clip(np.searchsorted(states, x) - 1, 0, states.size - 2)
        y0, y1 = actions[iy], actions[iy + 1]
        x0, x1 = states[ix], states[ix + 1]
        ty = np.clip((y - y0) / (y1 - y0), 0.0, 1.0)
        tx = np.clip((x - x0) / (x1 - x0), 0.0, 1.0)
        v00 = table[iy, ix]
        v01 = table[iy, ix + 1]
        v10 = table[iy + 1, ix]
        v11 = table[iy + 1, ix + 1]
        return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)

    return f


def load_problem(path) -> tuple:
    """Load a Problem (plus Preset metadata when referenced) from a JSON spec."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read spec file: {exc}", field="file")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", field=None, line=exc.lineno)
    if not isinstance(doc, dict):
        raise ParseError("spec root must be an object", field=None)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema_version {version!r} unsupported (need {SCHEMA_VERSION})", field="schema_version"
        )
    if "preset" in doc:
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("params must be an object", field="params")
        grid_n = int(doc.get("grid_n", 101))
        actions_n = doc.get("actions_n")
        pb, ps = preset(doc["preset"], grid_n=grid_n, actions_n=actions_n, **params)
        return pb, ps
    for key in ("states", "actions", "prior", "V", "u"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}", field=key)
    states = np.asarray(doc["states"], dtype=float)
    actions = np.asarray(doc["actions"], dtype=float)
    prior = np.asarray(doc["prior"], dtype=float)
    if prior.shape != states.shape:
        raise ShapeMismatch(
            f"prior length {prior.size} != states length {states.size}", field="prior"
        )
    tables = {}
    for key in ("V", "u", "V_y", "u_y", "u_x", "V_yx", "u_yx"):
        if key not in doc:
            continue
        t = np.asarray(doc[key], dtype=float)
        if t.shape != (actions.size, states.size):
            raise ShapeMismatch(
                f"table {key!r} has shape {t.shape}, expected {(actions.size, states.size)}",
                field=key,
            )
        tables[key] = _interp2(states, actions, t)
    pb = Problem(
        states=from_points(states),
        actions=from_points(actions, "action"),
        prior=prior,
        V=tables["V"],
        u=tables["u"],
        V_y=tables.get("V_y"),
        u_y=tables.get("u_y"),
        u_x=tables.get("u_x"),
        V_yx=tables.get("V_yx"),
        u_yx=tables.get("u_yx"),
        tie_break=doc.get("tie_break", "strict_foc"),
        smooth=bool(doc.get("smooth", True)),
        obedience=doc.get("obedience", "equality"),
        name=doc.get("name", Path(path).stem),
    )
    return pb, None


def write_outcome_csv(path, problem, outcome):
    lines = ["y,x,mass"]
    iy, ix = np.nonzero(outcome.mass > CSV_MASS_TOL)
    for a, b in zip(iy, ix):
        lines.append(
            f"{_fmt(problem.actions.points[a])},{_fmt(problem.states.points[b])},{_fmt(outcome.mass[a, b])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_outcome_csv(path):
    rows = Path(path).read_text().strip().split("\n")
    if rows[0] != "y,x,mass":
        raise ParseError("outcome csv header mismatch", field="header")
    out = []
    for r in rows[1:]:
        y, x, m = (float(v) for v in r.split(","))
        out.append((y, x, m))
    return out


def write_prices_csv(path, problem, prices):
    lines = ["x,p"]
    for x, p in zip(problem.states.points, prices.p):
        lines.append(f"{_fmt(x)},{_fmt(p)}")
    lines.append("")
    lines.append("y,q")
    for y, q in zip(problem.actions.points, prices.q):
        lines.append(f"{_fmt(y)},{_fmt(q)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_prices_csv(path):
    text = Path(path).read_text().strip()
    first, second = text.split("\n\n")
    ps, qs = [], []
    for r in first.split("\n")[1:]:
        x, p = (float(v) for v in r.split(","))
        ps.append((x, p))
    for r in second.split("\n")[1:]:
        y, q = (float(v) for v in r.split(","))
        qs.append((y, q))
    return ps, qs


def write_nad_csv(path, nad):
    lines = ["y,chi1,chi2,q,rho"]
    n = nad.nodes["y"].size
    for k in range(n):
        lines.append(
            ",".join(
                _fmt(nad.nodes[key][k]) for key in ("y", "chi1", "chi2", "q", "rho")
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _build(cfg: RunConfig):
    if cfg.spec:
        pb, ps = load_problem(cfg.spec)
    elif cfg.preset:
        params = {}
        if cfg.params:
            for pair in cfg.params.split(","):
                if not pair:
                    continue
                if "=" not in pair:
                    raise ParseError(f"bad --params entry {pair!r}", field="params")
                k, v = pair.split("=", 1)
                try:
                    params[k] = float(v)
                except ValueError:
                    params[k] = v
        grid_n, actions_n = cfg.grid_sizes()
        pb, ps = preset(cfg.preset, grid_n=grid_n, actions_n=actions_n, **params)
    else:
        raise ParseError("need --preset or --spec", field=None)
    return pb, ps


def _config_record(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "preset": cfg.preset,
        "spec": cfg.spec,
        "params": cfg.params,
        "grid_n": cfg.grid_n,
        "tol_contact": cfg.tol_contact,
    }


def cmd_solve(cfg: RunConfig, outdir: Path) -> int:
    pb, ps = _build(cfg)
    lp = build_lp(pb)
    outcome, objective = solve_primal(lp)
    prices = solve_dual(lp, outcome)
    write_outcome_csv(outdir / "outcome.csv", pb, outcome)
    write_prices_csv(outdir / "prices.csv", pb, prices)
    summary = {
        "config": _config_record(cfg),
        "problem": pb.name,
        "objective": objective,
        "dual_objective": prices.dual_objective,
        "duality_gap": prices.dual_objective - objective,
        "marginal_residual": outcome.marginal_residual,
        "obedience_residual": outcome.obedience_residual,
        "dual_feasibility_residual": prices.feasibility_residual,
        "lp": lp.dims(),
        "simplex_iterations": lp.solution.iterations,
    }
    _json_dump(outdir / "summary.json", summary)
    return 0


def cmd_check(cfg: RunConfig, outdir: Path) -> int:
    pb, ps = _build(cfg)
    verdicts = {}
    rep = check_assumptions(pb)
    verdicts["assumptions"] = {
        "flags": rep.flags(),
        "violations": [
            {"assumption": a, "at": list(pt), "residual": r} for a, pt, r in rep.violations
        ],
    }
    tw = check_twist(pb)
    verdicts["twist"] = {"label": tw.label, "witness": list(tw.witness) if tw.witness else None}
    sd = check_sdpd_sufficient(pb)
    verdicts["sdpd"] = {
        "label": sd.label,
        "dipped_weak": sd.dipped_weak,
        "peaked_weak": sd.peaked_weak,
        "witness": list(sd.witness) if sd.witness else None,
    }
    fd = check_full_disclosure(pb)
    verdicts["full_disclosure"] = {
        "label": fd.label,
        "witness": list(fd.witness) if fd.witness else None,
        "margin": fd.margin,
        "decided_by": fd.decided_by,
    }
    nc = check_nad_condition(pb)
    w = nc.witness
    verdicts["nad_condition"] = {
        "label": nc.label,
        "witness": (list(w) if isinstance(w, tuple) else w) if w is not None else None,
        "route": nc.route,
    }
    lp = build_lp(pb)
    outcome, objective = solve_primal(lp)
    cls = classify_monotonicity(pb, outcome)
    verdicts["classification"] = {
        "label": cls.label,
        "dipped": cls.dipped,
        "peaked": cls.peaked,
        "snap_discounted": cls.snap_discounted,
        "witness": (
            {
                "y1": cls.witness.y1,
                "y2": cls.witness.y2,
                "x1": cls.witness.x1,
                "x2": cls.witness.x2,
                "x3": cls.witness.x3,
                "kind": cls.witness.kind,
            }
            if cls.witness
            else None
        ),
    }
    verdicts["objective"] = objective
    verdicts["config"] = _config_record(cfg)
    _json_dump(outdir / "verdicts.json", verdicts)
    witnessed = any(
        v.get("witness") is not None for k, v in verdicts.items() if isinstance(v, dict)
    )
    return 2 if witnessed else 0


def cmd_nad(cfg: RunConfig, outdir: Path) -> int:
    pb, ps = _build(cfg)
    if ps is None or ps.prior_density is None:
        raise ParseError("nad needs a preset with a prior density", field="preset")
    sol = nad_mod.solve_nad(pb, ps.prior_density, prior_cdf=ps.prior_cdf)
    write_nad_csv(outdir / "nad.csv", sol)
    lp = build_lp(pb)
    outcome, objective = solve_primal(lp)
    cmp = nad_mod.verify_against_lp(pb, sol, outcome, prior_cdf=ps.prior_cdf)
    summary = {
        "config": _config_record(cfg),
        "y_low": sol.y_low,
        "y_high": sol.y_high,
        "terminal_residual": sol.terminal_residual,
        "route": sol.route,
        "lp_objective": objective,
        "sup_mass_diff": cmp.sup_mass_diff,
        "sup_cdf_diff": cmp.sup_cdf_diff,
        "objective_gap": cmp.objective_gap,
        "flagged": cmp.flagged,
        "flagged_action": cmp.flagged_action,
    }
    _json_dump(outdir / "nad_summary.json", summary)
    return 2 if cmp.flagged else 0


def cmd_certify(cfg: RunConfig, outdir: Path) -> int:
    pb, ps = _build(cfg)
    lp = build_lp(pb)
    outcome, objective = solve_primal(lp)
    prices = solve_dual(lp, outcome)
    cs = contact_set(pb, prices, lp=lp, tol=cfg.tol_contact)
    report = verify_complementary_slackness(pb, outcome, prices)
    payload = {
        "config": _config_record(cfg),
        "objective": objective,
        "duality_gap": prices.dual_objective - objective,
        "dual_feasibility_residual": prices.feasibility_residual,
        "contact_pairs": len(cs.pairs),
        "applicable": report.applicable,
        "max_q_residual": None if not report.applicable else report.max_q_residual,
        "max_foc_residual": None if not report.applicable else report.max_foc_residual,
        "rows": [
            {
                "action": r.action,
                "mass": r.mass,
                "q_residual": r.q_residual,
                "foc_residual": r.foc_residual,
            }
            for r in (report.rows if report.applicable else ())
        ],
    }
    _json_dump(outdir / "certify.json", payload)
    return 0


def cmd_presets(cfg: RunConfig, outdir: Path) -> int:
    rows = []
    for pid in preset_ids():
        pb, ps = preset(pid, grid_n=5)
        rows.append({"id": pid, "params": ps.params, "notes": ps.notes})
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="optrans", description=__doc__)
    parser.add_argument("command", choices=["solve", "check", "nad", "certify", "presets"])
    parser.add_argument("--preset", default=None)
    parser.add_argument("--params", default=None, help="k=v[,k=v] preset parameters")
    parser.add_argument("--spec", default=None, help="JSON problem spec file")
    parser.add_argument("--grid-n", dest="grid_n", default=None, help="N or N,M grid sizes")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-contact", dest="tol_contact", type=float, default=None)
    args = parser.parse_args(argv)

    handlers = {
        "solve": cmd_solve,
        "check": cmd_check,
        "nad": cmd_nad,
        "certify": cmd_certify,
        "presets": cmd_presets,
    }
    try:
        cfg = RunConfig(
            command=args.command,
            preset=args.preset,
            spec=args.spec,
            params=args.params,
            grid_n=args.grid_n,
            out=args.out,
            tol_contact=args.tol_contact,
        )
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return handlers[cfg.command](cfg, outdir)
    except OptransError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
