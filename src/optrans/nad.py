"""Negative assortative pairing solved from its characterizing ODE system.

For instances whose optimum pools every state with exactly one partner, the
pair bounds chi1 (decreasing) and chi2 (increasing) and the obedience
multiplier q solve, for y below the top action:

    u(y, chi1) f(chi1) chi1' = u(y, chi2) f(chi2) chi2'        (mass balance)
    d/dy Q(y, chi1, chi2)    = P(y, chi1, chi2)                (multiplier)

where Q and P are the unique solutions (q, q') of the two stationarity
equations V_y + q u_y + q' u = 0 at chi1 and chi2.  Integration starts at a
trial top action with (chi1, chi2) at the state range ends and q = Q, runs
downward with an embedded 4th/5th order Runge-Kutta pair, stops at the
collision chi1 = chi2 by event detection, and shoots on the top action until
q at the collision matches -V_y / u_y evaluated at the disclosed state.

Quantile-style instances (u = 1{x >= y} - kappa) bypass the ODE: there
chi2(y) = y and chi1 solves kappa * F(chi1) = (1 - kappa) * (1 - F(y)) with
F the prior cdf, which is solved directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IllPosed, NoRoot, ShootingFailed, StiffStep
from .model import Outcome, Posterior, Problem, _bisect, chi, gamma, outcome_from_mass

CDF_CACHE_N = 4097
RTOL = 1e-8  # RK45 tolerances of every shot
ATOL = 1e-10
COLLISION_FRAC = 1e-4  # pair gap, as a share of the state range, that counts as collided
BRACKET_POINTS = 33  # trial top actions scanned for a veer sign change
MAX_BISECT = 120  # shots of the first-stage veer bisection
MAX_REBISECT = 80  # shots of the second-stage re-bisection
FLAG_FACTOR = 10.0  # action cells of cumulative deviation that flag an LP comparison


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


def _cdf_from_density(problem: Problem, density) -> Callable[[np.ndarray], np.ndarray]:
    lo, hi = problem.states.lo, problem.states.hi
    xs = np.linspace(lo, hi, CDF_CACHE_N)
    f = np.asarray(density(xs), dtype=float)
    if np.any(f <= 0):
        raise IllPosed("prior density must be positive on the state range")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(xs))])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), xs, cum)

    return cdf


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


def _rho(problem: Problem, y, c1, c2) -> float:
    u1 = float(problem.u(np.array([y]), np.array([c1]))[0])
    u2 = float(problem.u(np.array([y]), np.array([c2]))[0])
    if u2 == u1:
        return 0.5
    return float(u2 / (u2 - u1))


def solve_nad(
    problem: Problem,
    prior_density: Callable,
    *,
    prior_cdf: Optional[Callable] = None,
) -> NadSolution:
    """Negative assortative solution by downward integration and shooting.

    The shot misses in one of two recognizable ways: the lower pair bound
    crosses the pivot curve (u at chi1 reaches 0; the trial top action was
    too low) or the upper bound does (too high).  Bisection on those veer
    events converges onto the narrow window where the pair bounds genuinely
    collide; the collision is caught at a small gap, the exact meeting point
    is recovered from the square-root profile of the gap, and the multiplier
    mismatch against -V_y/u_y at the disclosed state is reported as the
    terminal residual.

    Each shot is an RK45 pass at ``RTOL``/``ATOL``.  The first stage scans
    ``BRACKET_POINTS`` trial top actions for a veer sign change and bisects
    it in up to ``MAX_BISECT`` shots, a collision meaning a pair gap of
    ``COLLISION_FRAC`` of the state range; the second stage re-bisects
    around the hit in up to ``MAX_REBISECT`` shots at a gap 100 times
    smaller.  Quantile-style instances take the direct route, through
    ``prior_cdf`` when given.
    """
    if problem.quantile_kappa is not None:
        return _solve_quantile(problem, prior_density, prior_cdf)

    lo, hi = problem.states.lo, problem.states.hi
    span = hi - lo
    base_gap = COLLISION_FRAC * span
    stop_gap = base_gap  # the collide event's gap; the second stage shrinks it

    h = 1e-6 * span

    def rhs(y, state):
        return _pair_rhs(problem, prior_density, h, y, state)

    def collide(y, state):
        return (state[1] - state[0]) - stop_gap

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

    y_floor = problem.actions.lo

    def shoot(y_top, dense=False):
        """Returns (side, payload): side < 0 means y_top too low, > 0 too
        high, 0 means the pair bounds collided (payload carries the arc)."""
        q0, _ = _q_pair(problem, y_top, lo, hi)
        sol = solve_ivp(
            rhs,
            (y_top, y_floor),
            [lo, hi, q0],
            method="RK45",
            rtol=RTOL,
            atol=ATOL,
            events=[collide, veer_low, veer_high],
            dense_output=dense,
        )
        if sol.status == 1 and sol.t_events[0].size:
            return 0, sol
        if sol.status == 1 and sol.t_events[1].size:
            return -1, sol
        if sol.status == 1 and sol.t_events[2].size:
            return 1, sol
        # reached the action floor: classify by where the midpoint sits
        mid = 0.5 * (sol.y[0, -1] + sol.y[1, -1])
        try:
            side = -1 if mid > chi(problem, float(sol.t[-1])) else 1
        except NoRoot:
            side = -1
        return side, sol

    def bisect(a, b, shots):
        """Bisect the veer side on [a, b] (too low at a, too high at b).
        Returns the top action whose shot collided, or None, with the final
        bracket and whether all ``shots`` ran without the midpoint settling."""
        for _ in range(shots):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                return None, a, b, False
            side, _ = shoot(mid)
            if side == 0:
                return mid, a, b, False
            if side < 0:
                a = mid
            else:
                b = mid
        return None, a, b, True

    def finish(y_top):
        side, sol = shoot(y_top, dense=True)
        if side != 0:
            raise StiffStep("winning shot failed to reproduce the collision")
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
        rhos = np.array([_rho(problem, y, c1, c2) for y, c1, c2 in zip(ys, c1s, c2s)])
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
    grid = np.linspace(g_lo + eps, g_hi - eps, BRACKET_POINTS)
    curve = []
    bracket = None
    prev = None
    hit = None
    for yt in grid:
        side, sol = shoot(float(yt))
        curve.append((float(yt), side))
        if side == 0:
            hit = float(yt)
            break
        if prev is not None and side != prev[1]:
            bracket = (prev[0], float(yt))
            break
        prev = (float(yt), side)
    if hit is None:
        if bracket is None:
            raise ShootingFailed(
                "no veer sign change over the admissible bracket", residuals=curve
            )
        hit, a, b, _ = bisect(*bracket, MAX_BISECT)
        if hit is None:
            raise StiffStep(
                f"veer bisection narrowed to [{a!r}, {b!r}] without catching the collision"
            )
    # second stage: shrink the collision gap and re-bisect locally, pinning
    # the top action two more decades tighter; the first-stage gap comes back
    # when the re-bisection brackets nothing or runs out of shots
    width = max(1e-7 * max(1.0, abs(hit)), 4.0 * abs(grid[1] - grid[0]) * 2.0 ** (-MAX_BISECT))
    stop_gap = base_gap / 100.0
    a2, b2 = hit - width, hit + width
    side_a, _ = shoot(a2)
    side_b, _ = shoot(b2)
    if side_a == 0:
        hit = a2
    elif side_b == 0:
        hit = b2
    elif side_a < 0 and side_b > 0:
        found, _, _, spent = bisect(a2, b2, MAX_REBISECT)
        if found is not None:
            hit = found
        elif spent:
            stop_gap = base_gap
    else:
        stop_gap = base_gap
    try:
        return finish(hit)
    except StiffStep:
        if stop_gap != base_gap:
            stop_gap = base_gap
            return finish(hit)
        raise


def _solve_quantile(problem: Problem, prior_density, prior_cdf) -> NadSolution:
    kappa = float(problem.quantile_kappa)
    cdf = prior_cdf or _cdf_from_density(problem, prior_density)
    lo, hi = problem.states.lo, problem.states.hi

    def ylow_eq(t):
        return kappa * cdf(t) - (1.0 - kappa) * (1.0 - cdf(t))

    y_low = _bisect(ylow_eq, lo, hi)
    ys = np.linspace(hi, y_low, 513)

    def chi1_of(y):
        rhs_val = (1.0 - kappa) * (1.0 - cdf(y))

        def eq(t):
            return kappa * cdf(t) - rhs_val

        return _bisect(eq, lo, hi)

    c1s = np.array([chi1_of(float(y)) for y in ys])
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


def nad_outcome(problem: Problem, nad: NadSolution, prior_cdf: Callable) -> Outcome:
    """Project a pairing solution onto the problem grids as an outcome."""
    ny, nx = problem.n_actions, problem.n_states
    mass = np.zeros((ny, nx))
    ys = nad.nodes["y"]
    c1s = nad.nodes["chi1"]
    c2s = nad.nodes["chi2"]
    for k in range(ys.size - 1):
        m2 = float(prior_cdf(c2s[k]) - prior_cdf(c2s[k + 1])) * -1.0
        m1 = float(prior_cdf(c1s[k]) - prior_cdf(c1s[k + 1]))
        m2 = abs(m2)
        m1 = abs(m1)
        if m1 + m2 <= 0:
            continue
        ym = 0.5 * (ys[k] + ys[k + 1])
        iy = problem.actions.nearest(ym)
        i1 = problem.states.nearest(0.5 * (c1s[k] + c1s[k + 1]))
        i2 = problem.states.nearest(0.5 * (c2s[k] + c2s[k + 1]))
        mass[iy, i1] += m1
        mass[iy, i2] += m2
    total = mass.sum()
    if total > 0:
        mass /= total
    return outcome_from_mass(problem, mass)


def verify_against_lp(
    problem: Problem,
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
    approx = nad_outcome(problem, nad, prior_cdf)
    diff = approx.mass - lp_outcome.mass
    sup_mass = float(np.max(np.abs(diff)))
    cdf2 = np.cumsum(np.cumsum(diff, axis=0), axis=1)
    sup_cdf = float(np.max(np.abs(cdf2)))
    act_cdf = np.cumsum(diff.sum(axis=1))
    sup_act = float(np.max(np.abs(act_cdf)))

    Y, X = problem.grids_product()
    V = np.asarray(problem.V(Y, X), dtype=float)
    if problem.forbidden is not None:
        V = np.where(problem.forbidden_mask(), 0.0, V)
    obj_nad = float(np.sum(V * approx.mass))
    obj_lp = float(np.sum(V * lp_outcome.mass))

    # the action marginal is the uniqueness-backed comparison; the joint can
    # differ across equally optimal pairings
    h = problem.actions.max_spacing
    tol = FLAG_FACTOR * h
    flagged = sup_act > tol
    flagged_action = None
    if flagged:
        row = int(np.argmax(np.abs(act_cdf)))
        flagged_action = float(problem.actions.points[row])
    return LpComparison(
        sup_mass_diff=sup_mass,
        sup_cdf_diff=sup_cdf,
        sup_action_cdf_diff=sup_act,
        objective_gap=float(obj_nad - obj_lp),
        flagged=bool(flagged),
        flagged_action=flagged_action,
    )
