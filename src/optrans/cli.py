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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import nad as nad_mod
from .errors import (
    OptransError,
    ParamOutOfRange,
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
        self.grid_sizes()

    def grid_sizes(self):
        """Grid sizes from ``grid_n``: ``N`` gives (N, None), ``N,M`` gives
        (N, M), and no ``grid_n`` gives (101, None)."""
        if self.grid_n is None:
            return 101, None
        try:
            parts = [int(p) for p in str(self.grid_n).split(",")]
        except ValueError:
            raise ParseError(f"bad --grid-n {self.grid_n!r}", field="grid_n")
        if len(parts) > 2:
            raise ParseError(f"--grid-n takes N or N,M, got {self.grid_n!r}", field="grid_n")
        if any(p < 3 for p in parts):
            raise ParseError("grid sizes must be at least 3", field="grid_n")
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


def _preset(preset_id, grid_n, actions_n, params: dict) -> tuple:
    """``preset`` with user-given ``params``, which may not name its own arguments."""
    if {"preset_id", "grid_n", "actions_n"} & set(params):
        raise ParamOutOfRange("params may not set preset_id, grid_n or actions_n; each has its own option")
    return preset(preset_id, grid_n=grid_n, actions_n=actions_n, **params)


def _spec_int(doc: dict, key: str, default):
    """``doc[key]`` as an int; absent, or null where ``default`` is None, gives
    ``default``.  Anything but an integral JSON number (a bool, a string, 21.9)
    is a ParseError."""
    value = doc.get(key, default)
    if value is default:
        return value
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ParseError(f"field {key!r} must be an integer, got {value!r}", field=key)
    return int(value)


def _spec_bool(doc: dict, key: str, default: bool) -> bool:
    """``doc[key]``, which must be a JSON boolean; absent gives ``default``."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"field {key!r} must be true or false, got {value!r}", field=key)
    return value


def _spec_array(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array: ShapeMismatch if ragged, ParseError if
    not numeric or not finite."""
    value = doc[key]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        if isinstance(value, list) and len({len(r) if isinstance(r, list) else None for r in value}) > 1:
            raise ShapeMismatch(f"field {key!r} has rows of unequal lengths", field=key)
        raise ParseError(f"field {key!r} is not a numeric array: {exc}", field=key)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {key!r} holds a non-finite entry", field=key)
    return arr


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
        return _preset(doc["preset"], _spec_int(doc, "grid_n", 101), _spec_int(doc, "actions_n", None), params)
    for key in ("states", "actions", "prior", "V", "u"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}", field=key)
    states, actions, prior = (_spec_array(doc, key) for key in ("states", "actions", "prior"))
    if prior.shape != states.shape:
        raise ShapeMismatch(
            f"prior length {prior.size} != states length {states.size}", field="prior"
        )
    tables = {}
    for key in ("V", "u", "V_y", "u_y", "u_x", "V_yx", "u_yx"):
        if key not in doc:
            continue
        t = _spec_array(doc, key)
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
        smooth=_spec_bool(doc, "smooth", True),
        obedience=doc.get("obedience", "equality"),
        name=doc.get("name", Path(path).stem),
    )
    return pb, None


def _write_csv(path, *blocks):
    """Write (header, columns) blocks separated by a blank line: the header
    line, then one line per row of the equal-length columns."""
    text = "\n\n".join(
        "\n".join([header] + [",".join(_fmt(v) for v in row) for row in zip(*columns)])
        for header, columns in blocks
    )
    Path(path).write_text(text + "\n")


def _read_csv_block(block: str, header: str) -> list:
    """The rows of one block that ``_write_csv`` wrote, as tuples of floats."""
    lines = block.strip().split("\n")
    if lines[0] != header:
        raise ParseError(f"csv header {lines[0]!r}, expected {header!r}", field="header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def write_outcome_csv(path, problem, outcome):
    iy, ix = np.nonzero(outcome.mass > CSV_MASS_TOL)
    _write_csv(path, ("y,x,mass", (problem.actions.points[iy], problem.states.points[ix], outcome.mass[iy, ix])))


def read_outcome_csv(path):
    return _read_csv_block(Path(path).read_text(), "y,x,mass")


def write_prices_csv(path, problem, prices):
    _write_csv(path, ("x,p", (problem.states.points, prices.p)), ("y,q", (problem.actions.points, prices.q)))


def read_prices_csv(path):
    first, second = Path(path).read_text().strip().split("\n\n")
    return _read_csv_block(first, "x,p"), _read_csv_block(second, "y,q")


def write_nad_csv(path, nad):
    keys = ("y", "chi1", "chi2", "q", "rho")
    _write_csv(path, (",".join(keys), [nad.nodes[key] for key in keys]))


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _build(cfg: RunConfig):
    if cfg.spec:
        return load_problem(cfg.spec)
    if not cfg.preset:
        raise ParseError("need --preset or --spec", field=None)
    params = {}
    for pair in (cfg.params or "").split(","):
        if not pair:
            continue
        if "=" not in pair:
            raise ParseError(f"bad --params entry {pair!r}", field="params")
        k, v = pair.split("=", 1)
        try:
            params[k] = float(v)
        except ValueError:
            params[k] = v
    return _preset(cfg.preset, *cfg.grid_sizes(), params)


def _config_record(cfg: RunConfig) -> dict:
    """Every run parameter except the output directory, which would make the
    artifacts of two otherwise equal runs differ."""
    record = asdict(cfg)
    del record["out"]
    return record


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
    verdicts["twist"] = asdict(check_twist(pb))
    verdicts["sdpd"] = asdict(check_sdpd_sufficient(pb))
    verdicts["full_disclosure"] = asdict(check_full_disclosure(pb))
    verdicts["nad_condition"] = asdict(check_nad_condition(pb))
    del verdicts["nad_condition"]["margin"]
    lp = build_lp(pb)
    outcome, objective = solve_primal(lp)
    verdicts["classification"] = asdict(classify_monotonicity(pb, outcome))
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
    nc = check_nad_condition(pb)
    if nc.label == "fails":
        # no pooling-everywhere solution to shoot for: report the failed
        # condition as a witness instead of an ODE error
        _json_dump(outdir / "nad_summary.json", {"config": _config_record(cfg), "nad_condition": asdict(nc)})
        return 2
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
        **asdict(report),
    }
    if not report.applicable:
        payload.update(max_q_residual=None, max_foc_residual=None)
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
        cfg = RunConfig(**vars(args))
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return handlers[cfg.command](cfg, outdir)
    except OptransError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
