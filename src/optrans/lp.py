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

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateBasis, IllPosed, Infeasible, SizeLimit
from .grids import Grid
from .model import MASS_TOL, Outcome, Posterior, Problem, outcome_from_mass
from .simplex import SimplexResult, solve_standard_form

SIZE_LIMIT = 4_000_000  # most action x state cells an outcome LP may have
DUAL_FEAS_TOL = 1e-7
GAP_TOL = 1e-8
SIFT_MIN_STATES = 60  # larger state grids are solved coarse to fine
SIFT_BAND = 1e-4  # working-set cut on the coarse reduced cost, times max |V|
OBEYED_ULPS = 4  # |u| that counts as 0 in the crash, in ulps of max |u|

logger = logging.getLogger("optrans.lp")


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
    degenerate: bool = False  # always False: solve_dual raises instead


@dataclass
class ContactSet:
    pairs: tuple  # (action index, state index), lexicographic
    actions: np.ndarray  # sorted unique contact action indices
    posteriors: dict  # action index -> Posterior or None (over 2 states)
    tol: float
    slack: np.ndarray


@dataclass
class SlacknessRow:
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


def build_lp(problem: Problem) -> LPInstance:
    """Assemble the outcome LP for a problem instance.

    Variables are the kept (non-forbidden) cells of the action x state grid;
    rows are |X| marginal constraints followed by |Y| obedience constraints.
    Inequality obedience rows get one slack column each.  Raises
    ``SizeLimit`` beyond ``SIZE_LIMIT`` cells and ``IllPosed`` on a kept
    cell where V or u is not finite.
    """
    ny, nx = problem.n_actions, problem.n_states
    if ny * nx > SIZE_LIMIT:
        raise SizeLimit(f"{ny}x{nx} grid exceeds the {SIZE_LIMIT} variable cap")
    Y, X = problem.grids_product()
    Vmat = np.asarray(problem.V(Y, X), dtype=float)
    Umat = np.asarray(problem.u(Y, X), dtype=float)
    mask = problem.forbidden_mask()
    keep = np.ones((ny, nx), dtype=bool) if mask is None else ~mask
    bad = keep & ~(np.isfinite(Vmat) & np.isfinite(Umat))
    if bad.any():
        jy, jx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise IllPosed(
            f"V = {float(Vmat[jy, jx])!r} and u = {float(Umat[jy, jx])!r} at the kept cell "
            f"(y, x) = ({float(Y[jy, jx])!r}, {float(X[jy, jx])!r}); the outcome LP needs finite values"
        )

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
    """Solve the LP; returns the outcome and the optimal objective.

    A state grid of more than ``SIFT_MIN_STATES`` points is solved coarse to
    fine: the problem is ``_coarsen``-ed until its state grid is small
    enough (or its kept states carry no prior), the coarsest level is solved
    over every column, and each finer level is sifted from the solution of
    the level below (``_solve_level``), one simplex call per level.  A
    coarse level that is infeasible (a coarse grid may admit no exact
    transport where the finer one does) sends this LP to one call over every
    column.  ``lp.solution`` is the call on this LP, its iterations summed
    over every level that finished.  One DEBUG record on ``optrans.lp``
    describes each level, also when the LP is infeasible.
    """
    chain = [lp]
    while chain[-1].problem.n_states > SIFT_MIN_STATES:
        coarser = _coarsen(chain[-1].problem)
        if coarser is None:
            break
        chain.append(build_lp(coarser))
    levels = []
    coarse = None  # the level below, with its solution
    try:
        for level in chain[:0:-1]:
            try:
                coarse = level, _solve_level(level, coarse, policy, levels)
            except Infeasible:
                levels.append((f"n={level.problem.n_states}: infeasible", 0, 0))
                coarse = None
                break
        res = _solve_level(lp, coarse, policy, levels)
    except Infeasible as exc:
        levels.append((f"n={lp.problem.n_states}: infeasible", 0, 0))
        raise Infeasible(
            f"{exc}; the obedience rows admit no exact transport at this "
            f"resolution - refine the action grid or relax forbidden cells"
        ) from exc
    finally:
        logger.debug("outcome LP: %s", "; ".join(line for line, _, _ in levels))
    lp.solution = replace(
        res,
        iterations=sum(its for _, its, _ in levels),
        phase1_iterations=sum(ph1 for _, _, ph1 in levels),
    )
    ny, nx = lp.problem.n_actions, lp.problem.n_states
    mass = np.zeros((ny, nx))
    mass[lp.col_y, lp.col_x] = res.x[: lp.n_mass]
    np.maximum(mass, 0.0, out=mass)
    outcome = outcome_from_mass(lp.problem, mass)
    return outcome, float(res.objective)


def _solve_level(
    lp: LPInstance, coarse: Optional[tuple[LPInstance, SimplexResult]], policy: str, levels: list
) -> SimplexResult:
    """One simplex call on ``lp`` from ``_crash_basis``, over every column
    when ``coarse`` is None.  Otherwise started from ``coarse``, the same
    problem on the coarser grid of ``_coarsen`` and its solution: its
    optimal basis mapped to this grid (``_mapped_basis``) is proposed ahead
    of the crash, and the phase 2 is sifted (Bixby et al., Operations
    Research 1992): the coarse row duals, interpolated to this grid, pick
    the first working set, namely every slack and surplus column and every
    cell whose reduced cost lies above -``SIFT_BAND``·max|V|.  The simplex
    adds the columns basic after phase 1, runs phase 1 over every column,
    and widens the set by its passes over every column.  Appends the level's
    DEBUG line, iterations and phase-1 iterations to ``levels``.
    """
    start = _crash_basis(lp)
    work = None
    if coarse is not None:
        # the coarse row duals, p on the states and -q on the actions, interpolated
        cpb, cres = coarse[0].problem, coarse[1]
        y = np.concatenate(
            [
                np.interp(lp.problem.states.points, cpb.states.points, cres.duals[: cpb.n_states]),
                np.interp(lp.problem.actions.points, cpb.actions.points, cres.duals[cpb.n_states :]),
            ]
        )
        work = lp.c - lp.A.T @ y > -SIFT_BAND * float(np.max(np.abs(lp.c)))
        work[lp.n_mass :] = True
        start = np.stack([_mapped_basis(lp, *coarse, start), start])
    res = solve_standard_form(lp.A, lp.b, lp.c, start=start, policy=policy, work=work)
    line = (
        f"n={lp.problem.n_states}: {lp.c.size if work is None else int(work.sum())} of "
        f"{lp.c.size} columns to start, {res.iterations} iterations, "
        f"{res.phase1_iterations} in phase 1, objective {res.objective!r}"
    )
    levels.append((line, res.iterations, res.phase1_iterations))
    return res


def _every_other(n: int) -> np.ndarray:
    """Indices of every other point of an n-point grid, both ends kept: the
    points ``_coarsen`` keeps."""
    keep = np.arange(0, n, 2)
    return keep if keep[-1] == n - 1 else np.append(keep, n - 1)


def _coarsen(problem: Problem) -> Optional[Problem]:
    """The problem on every other state and action (``_every_other``), its
    prior restricted to the kept states and renormalized; None when the kept
    states carry no prior mass."""
    ks, ka = _every_other(problem.n_states), _every_other(problem.n_actions)
    prior = problem.prior[ks]
    total = float(prior.sum())
    if total <= 0.0:
        return None
    return replace(
        problem,
        states=Grid(problem.states.points[ks], problem.states.kind),
        actions=Grid(problem.actions.points[ka], problem.actions.kind),
        prior=prior / total,
    )


def _mapped_basis(lp: LPInstance, coarse: LPInstance, res: SimplexResult, crash: np.ndarray) -> np.ndarray:
    """Start proposal for ``lp`` from ``res``, an optimal basis of
    ``coarse``, the LP of ``_coarsen(lp.problem)``.  Each basic cell is the
    same point of this grid, with the same V and u; each slack column is the
    slack of its row here, and the free bottom row's two surplus columns,
    last in both LPs, stay last.  Rows the coarse solve dropped keep their
    artificials, and the rows the coarse grid leaves out take their
    ``crash`` column.  As the coarse prior is this prior on the kept states,
    renormalized, the kept rows' right-hand side is a multiple of the coarse
    one, so the proposal is feasible up to what the left-out rows' crash
    columns put on the kept rows."""
    pb = lp.problem
    ks, ka = _every_other(pb.n_states), _every_other(pb.n_actions)
    cell = np.full((pb.n_actions, pb.n_states), -1)
    cell[lp.col_y, lp.col_x] = np.arange(lp.n_mass)

    def slacks(x: LPInstance) -> np.ndarray:  # rows of the slack columns; surplus columns follow
        return x.slack_rows[: int(x.problem.constrained_rows().sum())]

    fine_slacks, coarse_slacks = slacks(lp), slacks(coarse)
    extra = np.concatenate(
        [
            np.searchsorted(fine_slacks, ka[coarse_slacks]),
            fine_slacks.size + np.arange(coarse.slack_rows.size - coarse_slacks.size),
        ]
    )
    column = np.concatenate([cell[ka[coarse.col_y], ks[coarse.col_x]], lp.n_mass + extra])
    rows = np.concatenate([ks, pb.n_states + ka])  # this LP's row of each coarse row
    warm = crash.copy()
    warm[rows] = -1
    warm[rows[np.setdiff1d(np.arange(rows.size), res.dropped_rows)]] = column[res.basis]
    return warm


def _crash_basis(lp: LPInstance) -> np.ndarray:
    """Starting basis from full disclosure: one LP column per row, -1 where a
    row keeps its artificial.

    Each state x is sent to best(x), the highest-V kept cell where it is
    obeyed on its own: |u| at most ``OBEYED_ULPS`` ulps of the largest |u|
    over the kept cells under equality obedience (rounding can move u off 0
    there); u >= 0, or any cell of a free bottom row, under inequality
    obedience.

    Under inequality obedience each action row holds its slack or one of the
    free surplus columns, so its multiplier q is 0.  Under equality
    obedience, with p(x) = V(best(x), x), a row's basic cell (y, x) sets
    q(y) = (p(x) - V(y, x)) / u(y, x).  The row's other cells of states so
    sent price out for q >= lo_y, the largest such q over its u < 0 cells,
    and for q <= hi_y, the smallest over its u > 0 cells.  Each row holds
    the cell that attains lo_y, or hi_y on a row with no u < 0 cell, so the
    start prices out every row whose interval [lo_y, hi_y] is not empty; a
    row with neither keeps its artificial.

    The basis is block triangular up to the rounding of u on obeyed cells,
    hence nonsingular, and carries the prior, hence primal feasible.
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
        ulp = np.finfo(float).eps * float(np.max(np.abs(lp.Umat[kept]), initial=0.0))
        obeyed = kept & (np.abs(lp.Umat) <= OBEYED_ULPS * ulp)
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
        moving = kept & ~obeyed & has
        below, above = moving & (lp.Umat < 0), moving & (lp.Umat > 0)
        _, at_lo, _, at_hi = q_intervals(lp.Vmat[best, np.arange(nx)], lp.Vmat, lp.Umat, below, above)
        pick = np.where(below.any(axis=1), at_lo, at_hi)
        rows = np.nonzero(moving.any(axis=1))[0]
        start[nx + rows] = cell[rows, pick[rows]]
    return start


def q_intervals(p, V, U, below, above) -> tuple:
    """Per action row of the (action x state) tables V and U, the interval
    [lo, hi] of multipliers q under which the row's ``below`` (u < 0) and
    ``above`` (u > 0) cells price out against the state prices p, that is
    V + q U <= p: lo is the largest (p - V) / U over the row's ``below``
    cells, -inf on a row without one, and hi the smallest over its
    ``above`` cells, +inf on a row without one.  Returns (lo, the state index
    attaining lo, hi, the state index attaining hi), the first state on
    ties."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (p - V) / U
    lo, hi = np.where(below, q, -np.inf), np.where(above, q, np.inf)
    at_lo, at_hi = np.argmax(lo, axis=1), np.argmin(hi, axis=1)
    rows = np.arange(q.shape[0])
    return lo[rows, at_lo], at_lo, hi[rows, at_hi], at_hi


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


def _no_profit_slack(lp: LPInstance, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p(x) - V(y, x) - q(y) u(y, x) on every LP column, +inf on the cells
    that are not LP columns."""
    iy, ix = lp.col_y, lp.col_x
    slack = np.full(lp.Vmat.shape, np.inf)
    slack[iy, ix] = p[ix] - lp.Vmat[iy, ix] - q[iy] * lp.Umat[iy, ix]
    return slack


def solve_dual(lp: LPInstance, primal: Outcome) -> PriceSystem:
    """Prices from the final simplex basis of an LP that ``solve_primal`` has
    solved; ``primal``, the outcome it returned, is not read.

    The basis duals are the prices.  Every solve ends with a pricing pass
    over every column, so they meet the no-profit constraints; if they miss
    them by more than ``DUAL_FEAS_TOL``, or leave a duality gap beyond
    ``GAP_TOL``, DegenerateBasis is raised.
    """
    res = lp.solution
    nx = lp.problem.n_states
    p = res.duals[:nx].copy()
    q = -res.duals[nx:].copy()
    resid = float(np.min(_no_profit_slack(lp, p, q)[lp.problem.constrained_rows()]))
    primal_obj = float(res.objective)
    dual_obj = float(p @ lp.problem.prior)
    if resid < -DUAL_FEAS_TOL or abs(dual_obj - primal_obj) > GAP_TOL * (1.0 + abs(primal_obj)):
        raise DegenerateBasis(
            f"dual recovery failed: residual {resid:.3e}, gap {dual_obj - primal_obj:.3e}"
        )
    return PriceSystem(p=p, q=q, feasibility_residual=resid, dual_objective=dual_obj)


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
    scale = max(1.0, float(np.max(np.abs(lp.Vmat[np.isfinite(lp.Vmat)]))))
    if tol is None:
        tol = 1e-6 * scale
    slack = _no_profit_slack(lp, prices.p, prices.q)
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
            u1, u2 = float(lp.Umat[a, s1]), float(lp.Umat[a, s2])
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
    rows = outcome.support_rows()
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
                action=float(ys[iy]),
                mass=float(row_masses[iy]),
                q_residual=float(rq),
                foc_residual=rf,
            )
        )
        max_q = max(max_q, rq)
        max_foc = max(max_foc, rf)
    return SlacknessReport(rows=tuple(entries), max_q_residual=max_q, max_foc_residual=max_foc)
