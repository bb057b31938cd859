"""Negative assortative pairing solved from its characterizing ODE system.

For instances whose optimum pools every state with exactly one partner, the
pair bounds chi1 (decreasing) and chi2 (increasing) and the obedience
multiplier q solve, for y below the top action:

    u(y, chi1) f(chi1) chi1' = u(y, chi2) f(chi2) chi2'        (mass balance)
    d/dy Q(y, chi1, chi2)    = P(y, chi1, chi2)                (multiplier)

where Q and P are the unique solutions (q, q') of the two stationarity
equations V_y + q u_y + q' u = 0 at chi1 and chi2.  Integration starts at a
trial top action with (chi1, chi2) at the state range ends and q = Q, runs
downward with an embedded 4th/5th order Runge-Kutta pair and stops at the
collision chi1 = chi2 by event detection.  A trial top action that is off
makes one pair bound veer onto the pivot curve before the collision; the
squared pair gap at that veer event, signed by the side, is a continuous
miss.  A bisection over a grid of trial top actions brackets the first
change of side, and the top action is shot by regula falsi on the miss
inside that bracket.  Only where that shooting brackets the top action
with a shot that reached the action floor, and so may stop on a grazing
collision, is it repeated at a smaller collision gap.  The multiplier
mismatch at the collision against -V_y / u_y evaluated at the disclosed
state is reported as the terminal residual.

Quantile-style instances (u = 1{x >= y} - kappa) bypass the ODE: there
chi2(y) = y and chi1 solves kappa * F(chi1) = (1 - kappa) * (1 - F(y)) with
F the prior cdf, which is solved directly.
"""

from __future__ import annotations

import bisect
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IllPosed, NoRoot, ShootingFailed, StiffStep
from .model import GridTables, Outcome, Posterior, Problem, _root, chi, gamma, outcome_from_mass

RTOL = 1e-8  # RK45 tolerances of every shot
ATOL = 1e-10
COLLISION_FRAC = 1e-4  # pair gap, as a share of the state range, that counts as collided
BRACKET_POINTS = 33  # trial top actions scanned for a veer sign change
MAX_BISECT = 120  # shots of the first-stage narrowing of the veer bracket
MAX_REBISECT = 80  # shots of the second-stage narrowing
FLAG_FACTOR = 10.0  # action cells of cumulative deviation that flag an LP comparison

logger = logging.getLogger("optrans.nad")


@dataclass
class NadSolution:
    y_low: float
    y_high: float
    nodes: dict  # arrays: y (descending from y_high), chi1, chi2, q, rho
    terminal_residual: float
    route: str = "ode"  # 'ode' | 'quantile'


@dataclass
class LpComparison:
    sup_mass_diff: float
    sup_cdf_diff: float  # joint cumulative distance; joint may be non-unique
    sup_action_cdf_diff: float  # action-marginal cumulative distance
    objective_gap: float
    flagged: bool
    flagged_action: Optional[float] = None


def _q_pair(problem: Problem, y, c1, c2):
    """(q, q') solving the two-point stationarity system."""
    ys = np.asarray([y, y], dtype=float)
    xs = np.asarray([c1, c2], dtype=float)
    vy = np.asarray(problem.V_y(ys, xs), dtype=float)
    uu = np.asarray(problem.u(ys, xs), dtype=float)
    uy = np.asarray(problem.u_y(ys, xs), dtype=float)
    den_q = uu[0] * uy[1] - uu[1] * uy[0]
    den_p = uy[0] * uu[1] - uy[1] * uu[0]
    q = (vy[0] * uu[1] - vy[1] * uu[0]) / den_q
    qp = (vy[0] * uy[1] - vy[1] * uy[0]) / den_p
    return float(q), float(qp)


def _pair_rhs(problem: Problem, density, h: float, y, state) -> list:
    """Right-hand side (chi1', chi2', q') of the pairing system at ``y``.

    Q and its partials in y, chi1 and chi2 are central differences with step
    ``h`` of the two-point stationarity solution, so the seven pairs (y, c1,
    c2), (y +- h, c1, c2), (y, c1 +- h, c2) and (y, c1, c2 +- h) are
    evaluated as one 14-point stencil: one call each of V_y, u and u_y, and
    one of the density at (c1, c2).  The 2x2 solves run on Python floats,
    which round exactly as the per-pair numpy arithmetic of ``_q_pair``.
    """
    c1, c2, _ = state
    yp, ym = y + h, y - h
    ys = np.array([y, y, yp, yp, ym, ym, y, y, y, y, y, y, y, y], dtype=float)
    xs = np.array(
        [c1, c2, c1, c2, c1, c2, c1 + h, c2, c1 - h, c2, c1, c2 + h, c1, c2 - h], dtype=float
    )
    vy = np.asarray(problem.V_y(ys, xs), dtype=float).tolist()
    uu = np.asarray(problem.u(ys, xs), dtype=float).tolist()
    uy = np.asarray(problem.u_y(ys, xs), dtype=float).tolist()
    f1, f2 = np.asarray(density(np.array([c1, c2], dtype=float)), dtype=float).tolist()
    q = []
    for r in range(0, 14, 2):
        den_q = uu[r] * uy[r + 1] - uu[r + 1] * uy[r]
        if den_q == 0.0:  # den_p of the same pair is exactly -den_q
            raise StiffStep(f"pair stationarity system singular at y={float(y)!r}")
        q.append((vy[r] * uu[r + 1] - vy[r + 1] * uu[r]) / den_q)
    den_p = uy[0] * uu[1] - uy[1] * uu[0]
    P = (vy[0] * uy[1] - vy[1] * uy[0]) / den_p
    Qy = (q[1] - q[2]) / (2 * h)
    Q1 = (q[3] - q[4]) / (2 * h)
    Q2 = (q[5] - q[6]) / (2 * h)
    u1, u2 = uu[0], uu[1]
    if u1 * f1 == 0.0:
        raise StiffStep(f"lower pair bound on the pivot curve at y={float(y)!r}")
    k = (u2 * f2) / (u1 * f1)  # chi1' = k * chi2'; k < 0 on valid arcs
    den = Q1 * k + Q2
    if den == 0.0:
        raise StiffStep(f"pair derivative system singular at y={float(y)!r}")
    d2 = (P - Qy) / den
    out = [k * d2, d2, P]
    if not all(math.isfinite(v) for v in out):
        raise StiffStep(f"pair system not finite at y={float(y)!r}")
    return out


def _shoot(problem: Problem, density: Callable, y_top: float, gap: float):
    """One downward RK45 pass, with its dense interpolant, of the pairing
    system from the trial top action ``y_top``, the pair bounds counting as
    collided at a gap of ``gap``.

    Returns (side, miss, sol).  side 0 means the bounds collided (``sol``
    carries the arc), side < 0 that y_top is too low (the lower bound veered
    onto the pivot curve first) and side > 0 too high (the upper one did).  A
    veering shot reports miss = side * (pair gap / state span)^2 at its veer
    event.  A shot that reaches the action floor reports miss None and is
    sided by where the pair midpoint sits against chi there.
    """
    # imported here: scipy.integrate pulls in scipy.optimize, which no other
    # route needs, and every CLI start would pay for both
    from scipy.integrate import solve_ivp

    lo, hi = problem.states.lo, problem.states.hi
    span = hi - lo
    h = 1e-6 * span

    def rhs(y, state):
        return _pair_rhs(problem, density, h, y, state)

    def collide(y, state):
        return (state[1] - state[0]) - gap

    collide.terminal = True
    collide.direction = -1

    def veer_low(y, state):
        return float(problem.u(np.array([y]), np.array([state[0]]))[0])

    veer_low.terminal = True
    veer_low.direction = 1

    def veer_high(y, state):
        return float(problem.u(np.array([y]), np.array([state[1]]))[0])

    veer_high.terminal = True
    veer_high.direction = -1

    q0, _ = _q_pair(problem, y_top, lo, hi)
    sol = solve_ivp(
        rhs,
        (y_top, problem.actions.lo),
        [lo, hi, q0],
        method="RK45",
        rtol=RTOL,
        atol=ATOL,
        events=[collide, veer_low, veer_high],
        dense_output=True,
    )
    if sol.status == 1 and sol.t_events[0].size:
        return 0, None, sol
    for side, k in ((-1, 1), (1, 2)):
        if sol.status == 1 and sol.t_events[k].size:
            c1, c2, _ = sol.y_events[k][0]
            return side, side * float((c2 - c1) / span) ** 2, sol
    # reached the action floor: classify by where the midpoint sits
    mid = 0.5 * (sol.y[0, -1] + sol.y[1, -1])
    try:
        side = -1 if mid > chi(problem, float(sol.t[-1])) else 1
    except NoRoot:
        side = -1
    return side, None, sol


def solve_nad(
    problem: Problem,
    prior_density: Callable,
    *,
    prior_cdf: Callable,
) -> NadSolution:
    """Negative assortative solution by downward integration and shooting.

    The shot misses in one of two recognizable ways: the lower pair bound
    crosses the pivot curve (u at chi1 reaches 0; the trial top action was
    too low) or the upper bound does (too high).  The squared pair gap at
    that veer event, signed by the side, is a continuous miss, monotone in
    the top action near the solution.  ``BRACKET_POINTS`` trial top actions
    evenly span the admissible range; the first is shot, and a bisection over
    the rest finds the first one whose side differs from it (a collision
    counts as differing), in about log2(``BRACKET_POINTS``) more shots.  Its
    premise is that the sides along the grid are monotone, one run of each
    side: then it brackets the same change, with the same two shots, as a
    scan of every point in order, and all later shots are the scan's.  The
    premise held on every preset at n=41 and 101 and on every preset variant
    of the test suite at n=41 whose NAD condition holds, each of their scan
    shots being error-free.  Where it does not hold, the bisection may
    bracket another change of side, or shoot (and raise at) a different point
    than the scan would.  Regula falsi on the miss, in its Illinois variant
    (Dowell and Jarratt, BIT 1971), narrows the bracket until a shot
    collides, that is, until its pair gap falls to ``COLLISION_FRAC`` of the
    state range.  A step
    takes the bracket midpoint instead when an end reached the action floor
    (it carries no miss) or when the false-position point is not strictly
    inside.  The exact meeting point is recovered from the square-root
    profile of the gap, and the multiplier mismatch against -V_y/u_y at the
    disclosed state is reported as the terminal residual.

    Each shot is an RK45 pass at ``RTOL``/``ATOL``; the first stage narrows
    in up to ``MAX_BISECT`` shots.  The second narrows in up to
    ``MAX_REBISECT`` shots at a gap 100 times smaller, starting from the
    first-stage bracket and its measured misses (a shot that veered never
    came within the larger gap, so its side and miss stand), or from the two
    ends of a narrow window when a grid point itself hit.  It runs only when a
    grid point hit or an end of the bracket reached the action floor: there the
    first-stage hit may be a grazing collision, and the smaller gap pins the
    bottom action.  When both ends veered it is skipped, since the smaller
    gap asks for a miss, (gap/span)^2 below 1e-12, under the noise floor of
    the ODE at ``RTOL``.  It stops at that noise floor, a shot whose |miss|
    is not below the smaller of its bracket ends' (on a line every
    false-position step lands below both), and the first-stage hit stands
    when it catches no collision.  Every shot keeps its dense interpolant,
    and the solution is read off the colliding shot's, so no top action is
    integrated twice.  One DEBUG record on logger ``optrans.nad`` gives the
    shots per stage and how many of the first stage's the bisection over the
    grid took, the RHS evaluations, how the second stage ended
    (collided, fell back to the stage-1 hit, or skipped) and the midpoint
    steps an end at the action floor forced.  Quantile-style instances take
    the direct route through ``prior_density`` and ``prior_cdf``.
    """
    if problem.quantile_kappa is not None:
        return _solve_quantile(problem, prior_density, prior_cdf)

    base_gap = COLLISION_FRAC * (problem.states.hi - problem.states.lo)
    stop_gap = base_gap  # the collide event's gap; the second stage shrinks it
    tally = Counter()  # shots, RHS evaluations, midpoint steps forced by the floor

    def probe(y_top):
        side, miss, sol = _shoot(problem, prior_density, y_top, stop_gap)
        tally["shots"] += 1
        tally["rhs"] += sol.nfev
        return y_top, side, miss, (sol if side == 0 else None)  # only a collision's arc is kept

    def search(points, shots):
        """Take the measured shots ``points``, (y_top, side, miss, sol) each,
        in order up to the first collision, else narrow the first change of
        side in up to ``shots`` shots.  Returns the colliding shot or None,
        the points taken, and the last bracket as two measured shots (None if
        the side never changes).  A lazy ``points`` shoots only as far as it
        is taken."""
        curve = []
        for pt in points:
            curve.append(pt)
            if pt[1] == 0:
                return pt, curve, None
            if len(curve) > 1 and pt[1] != curve[-2][1]:
                break
        else:
            return None, curve, None
        a, b = curve[-2], curve[-1]
        weight = {a[1]: 1.0, b[1]: 1.0}  # Illinois scaling of each end's miss, by side
        last = 0  # side of the previous narrowing shot
        for _ in range(shots):
            (ya, sa, ma, _), (yb, sb, mb, _) = a, b
            y = 0.5 * (ya + yb)
            floored = ma is None or mb is None
            if not floored:
                fa, fb = weight[sa] * ma, weight[sb] * mb
                y_rf = (ya * fb - yb * fa) / (fb - fa)
                if min(ya, yb) < y_rf < max(ya, yb):
                    y = y_rf
            if y == ya or y == yb:
                break
            tally["floor"] += floored
            pt = probe(y)
            side, miss = pt[1], pt[2]
            if side == 0:
                return pt, curve, (a, b)
            if stop_gap < base_gap and not floored and miss is not None and abs(miss) >= min(abs(ma), abs(mb)):
                break  # the miss's noise floor: the first-stage hit stands
            weight[side] = 1.0
            if side == last:  # the other end is kept a second time running
                weight[-side] *= 0.5
            last = side
            a, b = (pt, b) if side == sa else (a, pt)
        return None, curve, (a, b)

    def finish(hit):
        y_top, _, _, sol = hit
        ye = float(sol.t_events[0][0])
        c1e, c2e, qe = (float(v) for v in sol.y_events[0][0])
        # gap^2 is asymptotically linear in y: extrapolate the meeting point
        y_low = ye
        if sol.t.size >= 4:
            ts = sol.t[-4:]
            s2 = (sol.y[1, -4:] - sol.y[0, -4:]) ** 2
            A = np.vstack([ts, np.ones(ts.size)]).T
            coef, *_ = np.linalg.lstsq(A, s2, rcond=None)
            if coef[0] > 1e-30:
                y_low = min(ye, ye - (c2e - c1e) ** 2 / coef[0])
        cx = 0.5 * (c1e + c2e)
        try:
            cx = chi(problem, y_low)
        except NoRoot:
            pass
        vy = float(problem.V_y(np.array([y_low]), np.array([cx]))[0])
        uy = float(problem.u_y(np.array([y_low]), np.array([cx]))[0])
        term = qe - (-vy / uy)

        # sample the dense interpolant on the solver steps plus a refinement
        extra = np.linspace(y_top, ye, 513)
        ys = np.unique(np.concatenate([sol.t, extra, [ye]]))[::-1]
        ys = ys[(ys <= y_top) & (ys >= ye)]
        vals = sol.sol(ys)
        ys = np.append(ys, y_low)
        c1s = np.append(vals[0], cx)
        c2s = np.append(vals[1], cx)
        np.minimum(c1s, cx, out=c1s)
        np.maximum(c2s, cx, out=c2s)
        qs = np.append(vals[2], qe)
        u1 = np.asarray(problem.u(ys, c1s), dtype=float)
        u2 = np.asarray(problem.u(ys, c2s), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = np.where(u2 == u1, 0.5, u2 / (u2 - u1))
        rhos[-1] = 0.5
        return NadSolution(
            y_low=float(y_low),
            y_high=float(y_top),
            nodes={"y": ys, "chi1": c1s, "chi2": c2s, "q": qs, "rho": rhos},
            terminal_residual=float(term),
            route="ode",
        )

    g_lo, g_hi = problem.actions.lo, problem.actions.hi
    try:
        keep = np.nonzero(problem.prior > 0)[0]
        pooled = gamma(problem, Posterior(tuple(int(i) for i in keep), problem.prior[keep]))
        top = gamma(problem, Posterior.degenerate(int(keep[-1])))
        g_lo, g_hi = max(g_lo, pooled), min(g_hi, top)
    except NoRoot:
        pass
    eps = 1e-9 * max(1.0, g_hi - g_lo)
    grid = np.linspace(g_lo + eps, g_hi - eps, BRACKET_POINTS).tolist()
    scan = {0: probe(grid[0])}  # scan index -> measured shot

    def differs(k):
        if k not in scan:
            scan[k] = probe(grid[k])
        return scan[k][1] != scan[0][1]

    if scan[0][1] != 0:  # bisect for the first point off the first one's side
        bisect.bisect_left(range(len(grid)), True, lo=1, key=differs)
    bracketing = tally["shots"]
    hit, curve, bracket = search([scan[k] for k in sorted(scan)], MAX_BISECT)
    if hit is None:
        if bracket is None:
            raise ShootingFailed(
                "no veer sign change over the admissible bracket",
                residuals=[pt[:3] for pt in curve],
            )
        (a, *_), (b, *_) = bracket
        raise StiffStep(f"veer bisection narrowed to [{a!r}, {b!r}] without catching the collision")
    stage1 = tally["shots"]
    # second stage, only where the stage-1 hit may be a grazing collision
    # (an end of the bracket at the action floor) or has no bracket (a grid
    # point hit, which opens a narrow window): the same narrowing at a gap 100
    # times smaller, the bracket keeping its sides and misses
    found, ended = hit, "skipped: both bracket ends veered"
    if bracket is None or bracket[0][2] is None or bracket[1][2] is None:
        if bracket is None:
            y = hit[0]
            width = max(1e-7 * max(1.0, abs(y)), 4.0 * abs(grid[1] - grid[0]) * 2.0 ** (-MAX_BISECT))
            bracket = map(probe, [y - width, y + width])
        stop_gap = base_gap / 100.0
        found, _, _ = search(bracket, MAX_REBISECT)
        ended = "collided"
        if found is None:
            found, ended = hit, "fell back to the stage-1 hit"
    stage2 = tally["shots"] - stage1
    sol = finish(found)
    logger.debug(
        "ode: %d shots in stage 1 (%d bracketing), %d in stage 2 (%s), "
        "%d RHS evaluations, %d midpoint steps at the action floor",
        stage1,
        bracketing,
        stage2,
        ended,
        tally["rhs"],
        tally["floor"],
    )
    return sol


def _solve_quantile(problem: Problem, density: Callable, cdf: Callable) -> NadSolution:
    kappa = float(problem.quantile_kappa)
    lo, hi = problem.states.lo, problem.states.hi

    def ylow_eq(t):
        return kappa * cdf(t) - (1.0 - kappa) * (1.0 - cdf(t))

    y_low, *_ = _root(ylow_eq, density, lo, hi)  # ylow_eq' = kappa f + (1 - kappa) f = f
    ys = np.linspace(hi, y_low, 513)
    # chi1 solves kappa * F(chi1) = (1 - kappa) * (1 - F(y)) at every node
    rhs = (1.0 - kappa) * (1.0 - cdf(ys))
    c1s, *_ = _root(lambda t, r: kappa * cdf(t) - r, lambda t, r: kappa * density(t), lo, hi, rhs)
    c2s = ys.copy()
    qs = np.full(ys.shape, np.nan)  # u_y vanishes here; no multiplier exists
    rhos = np.full(ys.shape, 1.0 - kappa)
    term = abs(ylow_eq(y_low))
    return NadSolution(
        y_low=float(y_low),
        y_high=float(hi),
        nodes={"y": ys, "chi1": c1s, "chi2": c2s, "q": qs, "rho": rhos},
        terminal_residual=float(term),
        route="quantile",
    )


def nad_outcome(problem, nad: NadSolution, prior_cdf: Callable) -> Outcome:
    """Project a pairing solution onto the grids of ``problem``, a
    ``Problem`` or its ``GridTables``, as an outcome.

    Raises ``IllPosed`` naming the node segment when ``prior_cdf`` gives it
    a non-finite mass."""
    tables = GridTables.of(problem)
    problem = tables.problem
    mass = np.zeros((problem.n_actions, problem.n_states))
    ys = nad.nodes["y"]
    c1s = nad.nodes["chi1"]
    c2s = nad.nodes["chi2"]
    # the prior mass between nodes k and k + 1 on each side lands on the
    # cell of the segment midpoints, accumulated in node order
    F1 = np.asarray(prior_cdf(c1s), dtype=float)
    F2 = np.asarray(prior_cdf(c2s), dtype=float)
    m = np.abs(np.stack([F1[:-1] - F1[1:], F2[:-1] - F2[1:]], axis=1))
    bad = ~np.isfinite(m).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise IllPosed(
            f"prior mass {m[k].tolist()!r} between pairing nodes {k} and {k + 1} "
            f"(y={float(ys[k])!r}) is not finite"
        )
    # every m is now finite and >= +0.0, and adding +0.0 leaves a cell's
    # bits as they are, so segments without mass need no mask
    iy = problem.actions.nearest(0.5 * (ys[:-1] + ys[1:]))
    ix = problem.states.nearest(0.5 * np.stack([c1s[:-1] + c1s[1:], c2s[:-1] + c2s[1:]], axis=1))
    np.add.at(mass, (np.repeat(iy, 2), ix.ravel()), m.ravel())
    total = mass.sum()
    if total > 0:
        mass /= total
    return outcome_from_mass(problem, mass, tables.u)


def verify_against_lp(
    problem,
    nad: NadSolution,
    lp_outcome: Outcome,
    *,
    prior_cdf: Callable,
) -> LpComparison:
    """Distance between the pairing solution and an LP outcome, the pairing
    projected onto the grids through the prior cdf ``prior_cdf``.

    Reports the raw sup difference of grid masses, the sup difference of the
    joint cumulative distributions (robust to neighboring-cell shuffles), and
    the objective gap.  Rows whose cumulative deviation exceeds
    ``FLAG_FACTOR`` action cells' worth of the comparison are flagged.
    """
    tables = GridTables.of(problem)
    problem = tables.problem
    approx = nad_outcome(tables, nad, prior_cdf)
    diff = approx.mass - lp_outcome.mass
    sup_mass = float(np.max(np.abs(diff)))
    cdf2 = np.cumsum(np.cumsum(diff, axis=0), axis=1)
    sup_cdf = float(np.max(np.abs(cdf2)))
    act_cdf = np.cumsum(diff.sum(axis=1))
    sup_act = float(np.max(np.abs(act_cdf)))

    V = tables.V if tables.mask is None else np.where(tables.mask, 0.0, tables.V)
    obj_nad = float(np.sum(V * approx.mass))
    obj_lp = float(np.sum(V * lp_outcome.mass))

    # the action marginal is the uniqueness-backed comparison; the joint can
    # differ across equally optimal pairings
    flagged = sup_act > FLAG_FACTOR * problem.actions.max_spacing
    flagged_action = float(problem.actions.points[int(np.argmax(np.abs(act_cdf)))]) if flagged else None
    return LpComparison(
        sup_mass_diff=sup_mass,
        sup_cdf_diff=sup_cdf,
        sup_action_cdf_diff=sup_act,
        objective_gap=float(obj_nad - obj_lp),
        flagged=bool(flagged),
        flagged_action=flagged_action,
    )
