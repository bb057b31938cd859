"""Outcome-based LP: build, solve, duals, contact set, slackness checks.

The primal chooses a nonnegative mass pi(y, x) on the action x state grid to
maximize total sender utility subject to (i) column sums matching the prior
and (ii) one obedience row per action: sum_x u(y, x) pi(y, x) = 0, or >= 0
for sender-favorable instances.  The dual carries a shadow price p(x) per
state and an obedience multiplier q(y) per action with the no-profit
constraint p(x) >= V(y, x) + q(y) u(y, x) on every cell; cells holding that
with equality form the contact set, which supports every optimal outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateBasis, Infeasible, SizeLimit
from .model import Outcome, Posterior, Problem, outcome_from_mass
from .simplex import SimplexResult, solve_standard_form

DEFAULT_SIZE_LIMIT = 4_000_000
DUAL_FEAS_TOL = 1e-7
GAP_TOL = 1e-8
MASS_TOL = 1e-9


@dataclass
class LPInstance:
    problem: Problem
    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    col_y: np.ndarray  # action index per mass column
    col_x: np.ndarray  # state index per mass column
    n_mass: int  # mass columns; slack columns follow
    slack_rows: np.ndarray  # obedience row index per slack column
    Vmat: np.ndarray
    Umat: np.ndarray
    n_rows: int
    solution: Optional[SimplexResult] = None

    @property
    def n_vars(self) -> int:
        return int(self.c.size)

    @property
    def rank_estimate(self) -> Optional[int]:
        """Rank of the constraint matrix: rows the simplex kept (None until
        the LP is solved)."""
        if self.solution is None:
            return None
        return self.n_rows - len(self.solution.dropped_rows)

    def dims(self) -> dict:
        return {
            "mass_variables": int(self.n_mass),
            "slack_variables": int(self.slack_rows.size),
            "rows": int(self.n_rows),
            "rank_estimate": self.rank_estimate,
        }


@dataclass
class PriceSystem:
    p: np.ndarray
    q: np.ndarray  # basis duals: feasible for the no-profit constraints
    feasibility_residual: float
    dual_objective: float
    degenerate: bool = False
    # multiplier implied by each mass-carrying row's conditional through the
    # ratio -E[V_y]/E[u_y]; NaN off the support.  This is the value the
    # optimality theory pins on contact rows; the basis dual may differ by a
    # grid-scale amount there and is arbitrary on disclosed rows.
    q_row: Optional[np.ndarray] = None

    def slack(self, Vmat: np.ndarray, Umat: np.ndarray) -> np.ndarray:
        return self.p[None, :] - Vmat - self.q[:, None] * Umat


@dataclass
class ContactSet:
    pairs: tuple  # (action index, state index), lexicographic
    actions: np.ndarray  # sorted unique contact action indices
    posteriors: dict  # action index -> Posterior or None (over 2 states)
    tol: float
    slack: np.ndarray

    def states_of(self, iy: int) -> np.ndarray:
        return np.array(sorted(ix for jy, ix in self.pairs if jy == iy), dtype=int)


@dataclass
class SlacknessRow:
    action_index: int
    action: float
    mass: float
    q_residual: float
    foc_residual: float


@dataclass
class SlacknessReport:
    rows: tuple
    max_q_residual: float
    max_foc_residual: float
    applicable: bool = True


def build_lp(problem: Problem, *, size_limit: int = DEFAULT_SIZE_LIMIT) -> LPInstance:
    """Assemble the outcome LP for a problem instance.

    Variables are the kept (non-forbidden) cells of the action x state grid;
    rows are |X| marginal constraints followed by |Y| obedience constraints.
    Inequality obedience rows get one slack column each.
    """
    ny, nx = problem.n_actions, problem.n_states
    if ny * nx > size_limit:
        raise SizeLimit(f"{ny}x{nx} grid exceeds the {size_limit} variable cap")
    Y, X = problem.grids_product()
    Vmat = np.asarray(problem.V(Y, X), dtype=float)
    Umat = np.asarray(problem.u(Y, X), dtype=float)
    mask = problem.forbidden_mask()
    keep = np.ones((ny, nx), dtype=bool) if mask is None else ~mask

    iy, ix = np.nonzero(keep)
    k = iy.size
    rows = np.empty(2 * k, dtype=int)
    cols = np.empty(2 * k, dtype=int)
    vals = np.empty(2 * k)
    rows[0::2] = ix
    rows[1::2] = nx + iy
    cols[0::2] = np.arange(k)
    cols[1::2] = np.arange(k)
    vals[0::2] = 1.0
    vals[1::2] = Umat[iy, ix]
    c = Vmat[iy, ix].astype(float)

    if problem.obedience == "inequality":
        slack_rows = np.nonzero(problem.constrained_rows())[0]
        s_cols = k + np.arange(slack_rows.size)
        rows = np.concatenate([rows, nx + slack_rows])
        cols = np.concatenate([cols, s_cols])
        vals = np.concatenate([vals, -np.ones(slack_rows.size)])
        c = np.concatenate([c, np.zeros(slack_rows.size)])
        if not problem.constrain_bottom_row:
            # unconstrained bottom row: a free surplus column each direction
            rows = np.concatenate([rows, [nx + 0, nx + 0]])
            cols = np.concatenate([cols, [c.size, c.size + 1]])
            vals = np.concatenate([vals, [1.0, -1.0]])
            c = np.concatenate([c, [0.0, 0.0]])
            slack_rows = np.concatenate([slack_rows, [0, 0]])
    else:
        slack_rows = np.array([], dtype=int)

    n_rows = nx + ny
    A = sp.csc_matrix((vals, (rows, cols)), shape=(n_rows, c.size))
    b = np.concatenate([problem.prior, np.zeros(ny)])

    return LPInstance(
        problem=problem,
        A=A,
        b=b,
        c=c,
        col_y=iy,
        col_x=ix,
        n_mass=k,
        slack_rows=slack_rows,
        Vmat=Vmat,
        Umat=Umat,
        n_rows=n_rows,
    )


def solve_primal(lp: LPInstance, *, policy: str = "dantzig") -> tuple[Outcome, float]:
    """Solve the LP; returns the outcome and the optimal objective."""
    try:
        res = solve_standard_form(lp.A, lp.b, lp.c, start=_crash_basis(lp), policy=policy)
    except Infeasible as exc:
        raise Infeasible(
            f"{exc}; the obedience rows admit no exact transport at this "
            f"resolution - refine the action grid or relax forbidden cells"
        ) from exc
    lp.solution = res
    ny, nx = lp.problem.n_actions, lp.problem.n_states
    mass = np.zeros((ny, nx))
    mass[lp.col_y, lp.col_x] = res.x[: lp.n_mass]
    np.maximum(mass, 0.0, out=mass)
    outcome = outcome_from_mass(lp.problem, mass)
    return outcome, float(res.objective)


def _crash_basis(lp: LPInstance) -> np.ndarray:
    """Starting basis from full disclosure: one LP column per row, -1 where a
    row keeps its artificial.

    Each state x is sent to the highest-V kept cell where it is obeyed on its
    own: u = 0 under equality obedience; u >= 0, or any cell of a free bottom
    row, under inequality obedience.  Each action row holds its slack or one
    of the free surplus columns (inequality obedience), or else its kept cell
    of largest |u| at level zero.  The basis is block triangular, hence
    nonsingular, and carries the prior, hence primal feasible.
    """
    pb = lp.problem
    ny, nx = pb.n_actions, pb.n_states
    cell = np.full((ny, nx), -1)
    cell[lp.col_y, lp.col_x] = np.arange(lp.n_mass)
    kept = cell >= 0
    start = np.full(nx + ny, -1)

    if pb.obedience == "inequality":
        obeyed = kept & (lp.Umat >= 0)
        if not pb.constrain_bottom_row:
            obeyed[0] = kept[0]
    else:
        obeyed = kept & (lp.Umat == 0)
    has = obeyed.any(axis=0)
    best = np.argmax(np.where(obeyed, lp.Vmat, -np.inf), axis=0)
    start[:nx][has] = cell[best[has], np.nonzero(has)[0]]

    if pb.obedience == "inequality":
        start[nx + lp.slack_rows] = lp.n_mass + np.arange(lp.slack_rows.size)
        if not pb.constrain_bottom_row:
            # row 0's free surplus columns +e and -e: take the one whose level,
            # minus or plus row 0's obedience sum, is nonnegative
            states = np.nonzero(has & (best == 0))[0]
            level = float(lp.Umat[0, states] @ pb.prior[states])
            start[nx] = lp.c.size - 1 if level >= 0 else lp.c.size - 2
    else:
        moving = kept & (lp.Umat != 0)
        rows = np.nonzero(moving.any(axis=1))[0]
        pick = np.argmax(np.where(moving, np.abs(lp.Umat), -1.0), axis=1)
        start[nx + rows] = cell[rows, pick[rows]]
    return start


def _q_from_row(problem: Problem, outcome: Outcome, iy: int) -> float:
    """Obedience multiplier implied by a mass-carrying row: minus the ratio of
    the row's expected V_y to its expected u_y."""
    row = outcome.mass[iy]
    keep = row > 0
    w = row[keep] / row[keep].sum()
    xs = problem.states.points[keep]
    y = np.full(xs.shape, problem.actions.points[iy])
    num = w @ problem.V_y(y, xs)
    den = w @ problem.u_y(y, xs)
    return float(-num / den)


def solve_dual(lp: LPInstance, primal: Outcome) -> PriceSystem:
    """Prices from the final simplex basis of an LP that ``solve_primal`` has
    solved, ``primal`` being the outcome it returned.

    If the basis duals are degenerate (infeasible beyond tolerance or with a
    duality gap), q is re-derived on mass-carrying rows from the row ratio
    formula; if that still fails, DegenerateBasis is raised.  ``q_row`` stays
    NaN everywhere when u_y vanishes (``Problem.u_y_vanishes``).
    """
    res = lp.solution
    nx, ny = lp.problem.n_states, lp.problem.n_actions
    p = res.duals[:nx].copy()
    q = -res.duals[nx:].copy()

    mask = lp.problem.forbidden_mask()
    constrained = lp.problem.constrained_rows()

    def feas_residual(qv):
        slack = p[None, :] - lp.Vmat - qv[:, None] * lp.Umat
        if mask is not None:
            slack = np.where(mask, np.inf, slack)
        return float(np.min(slack[constrained]))

    primal_obj = float(res.objective)
    dual_obj = float(p @ lp.problem.prior)
    resid = feas_residual(q)
    degenerate = False
    if resid < -DUAL_FEAS_TOL or abs(dual_obj - primal_obj) > GAP_TOL * (1.0 + abs(primal_obj)):
        degenerate = True
        q_fix = q.copy()
        for iy in primal.support_rows(MASS_TOL):
            val = _q_from_row(lp.problem, primal, int(iy))
            if np.isfinite(val):
                q_fix[iy] = val
        resid_fix = feas_residual(q_fix)
        if resid_fix >= -DUAL_FEAS_TOL and abs(dual_obj - primal_obj) <= GAP_TOL * (1.0 + abs(primal_obj)):
            q, resid = q_fix, resid_fix
        else:
            raise DegenerateBasis(
                f"dual recovery failed: residual {min(resid, resid_fix):.3e}, "
                f"gap {dual_obj - primal_obj:.3e}"
            )

    q_row = np.full(ny, np.nan)
    if not lp.problem.u_y_vanishes():
        for iy in primal.support_rows(MASS_TOL):
            val = _q_from_row(lp.problem, primal, int(iy))
            if np.isfinite(val):
                q_row[iy] = val
    return PriceSystem(
        p=p,
        q=q,
        feasibility_residual=resid,
        dual_objective=dual_obj,
        degenerate=degenerate,
        q_row=q_row,
    )


def contact_set(
    problem: Problem,
    prices: PriceSystem,
    *,
    lp: LPInstance,
    tol: Optional[float] = None,
) -> ContactSet:
    """Cells where the no-profit constraint binds, with per-action posteriors
    reconstructed from the two-state obedience weights where possible.

    ``lp`` is the instance the prices came from; its V and u tables are
    reused.  ``tol`` defaults to 1e-6 times the largest finite |V|.
    """
    Vmat, Umat = lp.Vmat, lp.Umat
    scale = max(1.0, float(np.max(np.abs(Vmat[np.isfinite(Vmat)]))))
    if tol is None:
        tol = 1e-6 * scale
    slack = prices.slack(Vmat, Umat)
    mask = problem.forbidden_mask()
    if mask is not None:
        slack = np.where(mask, np.inf, slack)
    hit = slack <= tol
    hit[~problem.constrained_rows()] = False
    iy, ix = np.nonzero(hit)
    pairs = tuple(zip(iy.tolist(), ix.tolist()))
    actions = np.unique(iy)
    posteriors = {}
    for a in actions:
        states = ix[iy == a]
        if states.size == 1:
            posteriors[int(a)] = Posterior.degenerate(int(states[0]))
        elif states.size == 2:
            s1, s2 = int(states[0]), int(states[1])
            y = problem.actions.points[a]
            u1 = float(problem.u(np.array([y]), problem.states.points[s1 : s1 + 1])[0])
            u2 = float(problem.u(np.array([y]), problem.states.points[s2 : s2 + 1])[0])
            if u1 < 0 < u2:
                rho = u2 / (u2 - u1)
                posteriors[int(a)] = Posterior((s1, s2), np.array([rho, 1.0 - rho]))
            elif u2 < 0 < u1:
                rho = u1 / (u1 - u2)
                posteriors[int(a)] = Posterior((s2, s1), np.array([rho, 1.0 - rho]))
            else:
                posteriors[int(a)] = None
        else:
            posteriors[int(a)] = None
    return ContactSet(pairs=pairs, actions=actions, posteriors=posteriors, tol=tol, slack=slack)


def verify_complementary_slackness(
    problem: Problem,
    outcome: Outcome,
    prices: PriceSystem,
) -> SlacknessReport:
    """Residuals, on every action row carrying more than ``MASS_TOL``, of
    (a) q against the row ratio formula and (b) the per-state stationarity
    V_y + q u_y + q' u at the row's support states, with q' the local finite
    difference of q across neighboring support rows.  Not applicable (no
    rows, NaN maxima) when u_y vanishes (``Problem.u_y_vanishes``)."""
    ys = problem.actions.points
    rows = outcome.support_rows(MASS_TOL)
    if problem.u_y_vanishes():
        return SlacknessReport(rows=(), max_q_residual=np.nan, max_foc_residual=np.nan, applicable=False)

    entries = []
    max_q = 0.0
    max_foc = 0.0
    row_masses = outcome.row_masses()
    for k, iy in enumerate(rows):
        iy = int(iy)
        q_here = prices.q[iy]
        q_row = _q_from_row(problem, outcome, iy)
        rq = abs(q_here - q_row)
        lo = rows[max(0, k - 1)]
        hi = rows[min(rows.size - 1, k + 1)]
        if hi != lo:
            qd = (prices.q[hi] - prices.q[lo]) / (ys[hi] - ys[lo])
        else:
            qd = 0.0
        sup = np.nonzero(outcome.mass[iy] > MASS_TOL)[0]
        xs = problem.states.points[sup]
        yv = np.full(xs.shape, ys[iy])
        foc = problem.V_y(yv, xs) + q_here * problem.u_y(yv, xs) + qd * problem.u(yv, xs)
        rf = float(np.max(np.abs(foc))) if foc.size else 0.0
        entries.append(
            SlacknessRow(
                action_index=iy,
                action=float(ys[iy]),
                mass=float(row_masses[iy]),
                q_residual=float(rq),
                foc_residual=rf,
            )
        )
        max_q = max(max_q, rq)
        max_foc = max(max_foc, rf)
    return SlacknessReport(rows=tuple(entries), max_q_residual=max_q, max_foc_residual=max_foc)
