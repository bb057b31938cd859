"""Problem instances on finite grids.

A ``Problem`` bundles a state grid, an action grid, a prior, and vectorized
evaluators for the sender utility V(y, x) and the receiver marginal utility
u(y, x) together with the partial derivatives the analysis needs.  The
receiver's best response ``gamma`` solves the aggregate first-order condition
E_mu[u(y, x)] = 0 by bisection (strict mode) or picks the highest grid action
with a nonnegative aggregate (sender-favorable mode, for discontinuous u).
``chi`` inverts u in the state argument: the state at which a given action is
exactly optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IllPosed, NoRoot
from .grids import Grid

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]

BISECT_TOL = 1e-10
BISECT_CAP = 200
PRIOR_TOL = 1e-12
WEIGHT_TOL = 1e-12
SIGNAL_MASS_TOL = 1e-10
ASSUMPTION_ZERO_TOL = 1e-9  # |u| below this times max |u| counts as u = 0
INTERIOR_TOL = 1e-8  # sign slack, relative to max |u|, of the interiority check


def _central_y(f: Evaluator, h: float) -> Evaluator:
    def d(y, x):
        return (f(np.asarray(y) + h, x) - f(np.asarray(y) - h, x)) / (2.0 * h)

    return d


def _central_x(f: Evaluator, h: float) -> Evaluator:
    def d(y, x):
        return (f(y, np.asarray(x) + h) - f(y, np.asarray(x) - h)) / (2.0 * h)

    return d


@dataclass(frozen=True)
class Posterior:
    """Finitely supported belief: sorted distinct state indices plus weights.

    Zero-weight entries are pruned at construction so that support-based
    structure tests see true supports.  Weights must sum to one within 1e-12.
    """

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.support, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        if idx.shape != w.shape or idx.ndim != 1 or idx.size == 0:
            raise IllPosed("posterior support and weights must be equal-length 1-d")
        keep = w > WEIGHT_TOL
        idx, w = idx[keep], w[keep]
        if idx.size == 0:
            raise IllPosed("posterior has no positive-weight support")
        order = np.argsort(idx)
        idx, w = idx[order], w[order]
        if np.any(np.diff(idx) == 0):
            raise IllPosed("posterior support indices must be distinct")
        if abs(w.sum() - 1.0) > PRIOR_TOL:
            raise IllPosed(f"posterior weights sum to {float(w.sum())!r}, not 1")
        object.__setattr__(self, "support", tuple(int(i) for i in idx))
        object.__setattr__(self, "weights", w)

    @staticmethod
    def from_weights(support, weights) -> "Posterior":
        """Normalize arbitrary positive weights into a Posterior."""
        w = np.asarray(weights, dtype=float)
        return Posterior(tuple(support), w / w.sum())

    @staticmethod
    def degenerate(index: int) -> "Posterior":
        return Posterior((index,), np.array([1.0]))

    def states(self, grid: Grid) -> np.ndarray:
        return grid.points[list(self.support)]

    def dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[list(self.support)] = self.weights
        return out


@dataclass(frozen=True)
class Signal:
    """Weighted list of posteriors; masses must sum to one within 1e-10."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((p, float(m)) for p, m in self.atoms)
        if not atoms:
            raise IllPosed("signal needs at least one atom")
        if any(m <= 0 for _, m in atoms):
            raise IllPosed("signal masses must be positive")
        total = sum(m for _, m in atoms)
        if abs(total - 1.0) > SIGNAL_MASS_TOL:
            raise IllPosed(f"signal masses sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    def state_marginal(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for post, m in self.atoms:
            out[list(post.support)] += m * post.weights
        return out

    def check_plausible(self, prior: np.ndarray, tol: float = 1e-8) -> float:
        """Max deviation of the aggregated state marginal from the prior."""
        dev = float(np.max(np.abs(self.state_marginal(prior.size) - prior)))
        if dev > tol:
            raise IllPosed(f"signal is not Bayes-plausible: deviation {dev:.3e}")
        return dev


@dataclass
class Problem:
    """A persuasion / productive-transport instance on finite grids.

    Evaluators take (y, x) arrays and broadcast.  Missing derivatives are
    filled with central finite differences (step 1e-5 of the relevant range).
    ``tie_break`` selects the best-response rule: 'strict_foc' bisects the
    aggregate first-order condition; 'sender_favorable' returns the largest
    grid action with nonnegative aggregate marginal utility (used by the
    quantile-style presets whose u is discontinuous).
    """

    states: Grid
    actions: Grid
    prior: np.ndarray
    V: Evaluator
    u: Evaluator
    V_y: Optional[Evaluator] = None
    V_yx: Optional[Evaluator] = None
    u_y: Optional[Evaluator] = None
    u_x: Optional[Evaluator] = None
    u_yx: Optional[Evaluator] = None
    tie_break: str = "strict_foc"
    smooth: bool = True
    ordering: str = "increasing"  # or "single_crossing"
    obedience: str = "equality"  # or "inequality"
    constrain_bottom_row: bool = True
    forbidden: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    quantile_kappa: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        self.prior = np.asarray(self.prior, dtype=float)
        if self.prior.shape != (len(self.states),):
            raise IllPosed("prior length must match the state grid")
        if np.any(self.prior < 0):
            raise IllPosed("prior weights must be nonnegative")
        if abs(self.prior.sum() - 1.0) > PRIOR_TOL:
            raise IllPosed(f"prior sums to {float(self.prior.sum())!r}, not 1")
        if self.tie_break not in ("strict_foc", "sender_favorable"):
            raise IllPosed(f"unknown tie_break {self.tie_break!r}")
        if self.obedience not in ("equality", "inequality"):
            raise IllPosed(f"unknown obedience sense {self.obedience!r}")
        hy = 1e-5 * self.actions.span
        hx = 1e-5 * self.states.span
        fd_filled = set()
        if self.V_y is None:
            self.V_y = _central_y(self.V, hy)
            fd_filled.add("V_y")
        if self.u_y is None:
            self.u_y = _central_y(self.u, hy)
            fd_filled.add("u_y")
        if self.u_x is None:
            self.u_x = _central_x(self.u, hx)
            fd_filled.add("u_x")
        if self.V_yx is None:
            self.V_yx = _central_x(self.V_y, hx)
            fd_filled.add("V_yx")
        if self.u_yx is None:
            self.u_yx = _central_x(self.u_y, hx)
            fd_filled.add("u_yx")
        self._hy = hy
        self._hx = hx
        self.fd_filled = frozenset(fd_filled)

    # Second derivatives are only needed by the local pooling criterion; they
    # are always finite differences of the (possibly analytic) first ones.
    def V_yy(self, y, x):
        return _central_y(self.V_y, self._hy)(y, x)

    def u_yy(self, y, x):
        return _central_y(self.u_y, self._hy)(y, x)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def derivative_noise(self) -> float:
        """Floor for monotonicity tolerances: second-difference evaluators
        built from finite-differenced first derivatives carry ~1e-6 relative
        noise; analytic closures carry none worth guarding."""
        if {"V_yx", "u_yx"} & self.fd_filled and ({"V_y", "u_y"} & self.fd_filled):
            return 3e-6
        if {"V_yx", "u_yx"} & self.fd_filled:
            return 1e-9
        return 0.0

    def u_scale(self) -> float:
        ymid = np.full(3, 0.5 * (self.actions.lo + self.actions.hi))
        xs = np.array([self.states.lo, 0.5 * (self.states.lo + self.states.hi), self.states.hi])
        return max(1.0, float(np.max(np.abs(self.u(ymid, xs)))))

    def grids_product(self):
        """(Y, X) meshgrid with actions as rows and states as columns."""
        return np.meshgrid(self.actions.points, self.states.points, indexing="ij")

    def u_y_vanishes(self) -> bool:
        """Whether u_y is zero at the mid action on three states spanning the
        state range (indicator-style receivers, whose obedience rows carry no
        multiplier information)."""
        probe = self.u_y(
            np.full(3, 0.5 * (self.actions.lo + self.actions.hi)),
            np.linspace(self.states.lo, self.states.hi, 3),
        )
        return bool(np.max(np.abs(probe)) < 1e-14)

    def constrained_rows(self) -> np.ndarray:
        """Mask of the action rows whose obedience constraint binds: all of
        them, except the bottom row under inequality obedience when that row
        is left free."""
        rows = np.ones(self.n_actions, dtype=bool)
        if self.obedience == "inequality" and not self.constrain_bottom_row:
            rows[0] = False
        return rows

    def forbidden_mask(self) -> Optional[np.ndarray]:
        if self.forbidden is None:
            return None
        Y, X = self.grids_product()
        return np.asarray(self.forbidden(Y, X), dtype=bool)


@dataclass(frozen=True)
class AssumptionReport:
    smooth_ok: bool
    asc_ok: bool
    interior_ok: bool
    ordering_ok: bool
    violations: tuple

    def flags(self) -> dict:
        return {
            "smooth_ok": self.smooth_ok,
            "asc_ok": self.asc_ok,
            "interior_ok": self.interior_ok,
            "ordering_ok": self.ordering_ok,
        }


@dataclass
class Outcome:
    """Joint mass over actions x states with constraint residuals."""

    mass: np.ndarray
    marginal_residual: float
    obedience_residual: float

    def __post_init__(self):
        if np.min(self.mass) < -1e-12:
            raise IllPosed(f"outcome has negative mass {np.min(self.mass):.3e}")

    def row_masses(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def support_rows(self, tol: float = 1e-9):
        return np.nonzero(self.row_masses() > tol)[0]

    def row_posterior(self, iy: int, tol: float = 0.0) -> Posterior:
        row = self.mass[iy]
        keep = np.nonzero(row > tol)[0]
        return Posterior.from_weights(tuple(int(i) for i in keep), row[keep])


def _aggregate_u(problem: Problem, xs: np.ndarray, w: np.ndarray):
    def f(y):
        return float(w @ problem.u(np.full(xs.shape, y), xs))

    return f


def _bisect(f, lo: float, hi: float, *, cap: int = BISECT_CAP) -> float:
    """Sign-change bisection; runs to float resolution, capped at ``cap``."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoRoot(f"no sign change on [{lo}, {hi}]: f={flo:.3e}..{fhi:.3e}")
    for _ in range(cap):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi) if lo != hi else lo


def gamma(problem: Problem, mu: Posterior) -> float:
    """Receiver best response to ``mu``.

    strict_foc: the (off-grid) root of E_mu[u(y, x)] = 0 on the action range;
    sender_favorable: the largest grid action with E_mu[u(y, x)] >= 0.
    """
    xs = mu.states(problem.states)
    w = mu.weights
    if problem.tie_break == "sender_favorable":
        ys = problem.actions.points
        agg = problem.u(ys[:, None], xs[None, :]) @ w
        ok = np.nonzero(agg >= -1e-12)[0]
        if ok.size == 0:
            if not problem.constrain_bottom_row:
                # the bottom action is the declared outside option
                return float(ys[0])
            raise NoRoot("aggregate marginal utility negative at every grid action")
        return float(ys[ok[-1]])
    f = _aggregate_u(problem, xs, w)
    y = _bisect(f, problem.actions.lo, problem.actions.hi)
    return float(y)


def gamma_binary(problem: Problem, x1, x2, rho, *, iters: int = 90) -> np.ndarray:
    """Vectorized best response for two-point posteriors rho*d(x1)+(1-rho)*d(x2).

    strict_foc instances only; inputs broadcast to a common shape.
    """
    x1, x2, rho = np.broadcast_arrays(
        np.asarray(x1, float), np.asarray(x2, float), np.asarray(rho, float)
    )
    if problem.tie_break == "sender_favorable":
        ys = problem.actions.points
        out = np.empty(x1.shape)
        flat1, flat2, flatr = x1.ravel(), x2.ravel(), rho.ravel()
        res = out.ravel()
        chunk = 4096
        for s in range(0, flat1.size, chunk):
            e = min(s + chunk, flat1.size)
            agg = flatr[s:e, None] * problem.u(ys[None, :], flat1[s:e, None]) + (
                1.0 - flatr[s:e, None]
            ) * problem.u(ys[None, :], flat2[s:e, None])
            ok = agg >= -1e-12
            misses = ~ok.any(axis=1)
            if np.any(misses):
                if not problem.constrain_bottom_row:
                    ok[misses, 0] = True  # bottom action is the outside option
                else:
                    raise NoRoot("some pair admits no grid action with E[u] >= 0")
            res[s:e] = ys[ok.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1)]
        return out

    lo = np.full(x1.shape, problem.actions.lo)
    hi = np.full(x1.shape, problem.actions.hi)

    def agg(y):
        return rho * problem.u(y, x1) + (1.0 - rho) * problem.u(y, x2)

    flo = agg(lo)
    fhi = agg(hi)
    bad = np.sign(flo) == np.sign(fhi)
    bad &= (flo != 0.0) & (fhi != 0.0)
    if np.any(bad):
        raise NoRoot("aggregate FOC does not bracket for some pair")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = agg(mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def chi(problem: Problem, y: float) -> float:
    """The state at which action ``y`` is exactly optimal: root of u(y, .)."""

    def f(x):
        return float(problem.u(np.array([y]), np.array([x]))[0])

    return float(_bisect(f, problem.states.lo, problem.states.hi))


def indirect_utility(problem: Problem, mu: Posterior) -> float:
    """Sender payoff from inducing ``mu``: E_mu[V(gamma(mu), x)]."""
    y = gamma(problem, mu)
    xs = mu.states(problem.states)
    return float(mu.weights @ problem.V(np.full(xs.shape, y), xs))


def check_assumptions(problem: Problem) -> AssumptionReport:
    """Grid validation of the standing assumptions.

    smooth_ok is the builder's declaration (discontinuous presets set it
    False).  asc_ok checks, on the grid product, that u = 0 forces u_y < 0
    and that the signed-ratio inequality holds across every sign-straddling
    state pair.  ordering_ok wants V_y > 0 and u_x > 0, or a declared
    single-crossing relaxation with at most one sign change per action row.
    interior_ok wants each state's optimal action inside the action range.
    Tolerances are ``ASSUMPTION_ZERO_TOL`` and ``INTERIOR_TOL``, relative to
    the largest |u| on the grid.
    """
    Y, X = problem.grids_product()
    U = problem.u(Y, X)
    Uy = problem.u_y(Y, X)
    Ux = problem.u_x(Y, X)
    Vy = problem.V_y(Y, X)
    mask = problem.forbidden_mask()
    uscale = max(1.0, float(np.max(np.abs(U))))
    violations = []

    # A2 part 1: u = 0 => u_y < 0.
    near_zero = np.abs(U) <= ASSUMPTION_ZERO_TOL * uscale
    bad1 = near_zero & (Uy >= 0)
    for iy, ix in zip(*np.nonzero(bad1)):
        violations.append(("A2", (float(Y[iy, ix]), float(X[iy, ix])), float(Uy[iy, ix])))

    # A2 part 2: across u(y,x) < 0 < u(y,x'), require min over the negative
    # side of u_y/u to exceed the max over the positive side.
    for iy in range(problem.n_actions):
        urow, uyrow = U[iy], Uy[iy]
        neg = urow < -ASSUMPTION_ZERO_TOL * uscale
        pos = urow > ASSUMPTION_ZERO_TOL * uscale
        if not (neg.any() and pos.any()):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            r = uyrow / urow
        lo_side = np.min(r[neg])
        hi_pos = np.max(r[pos])
        if not lo_side > hi_pos:
            i_n = int(np.nonzero(neg)[0][np.argmin(r[neg])])
            i_p = int(np.nonzero(pos)[0][np.argmax(r[pos])])
            worst = urow[i_p] * uyrow[i_n] - urow[i_n] * uyrow[i_p]
            violations.append(
                ("A2", (float(problem.actions.points[iy]), float(X[iy, i_n]), float(X[iy, i_p])), float(worst))
            )
    asc_ok = not any(v[0] == "A2" for v in violations)

    # A4 ordering, possibly relaxed to single crossing in x.
    vy_check = Vy if mask is None else np.where(mask, np.inf, Vy)
    ordering_ok = bool(np.min(vy_check) > 0 and np.min(Ux) > 0)
    if not ordering_ok and problem.ordering == "single_crossing":
        ok = bool(np.min(vy_check) > 0)
        if ok:
            for iy in range(problem.n_actions):
                signs = np.sign(U[iy][np.abs(U[iy]) > ASSUMPTION_ZERO_TOL * uscale])
                if signs.size and np.count_nonzero(np.diff(signs) != 0) > 1:
                    ok = False
                    break
        ordering_ok = ok
    if not ordering_ok:
        if np.min(vy_check) <= 0:
            iy, ix = np.unravel_index(np.argmin(vy_check), vy_check.shape)
            violations.append(("A4", (float(Y[iy, ix]), float(X[iy, ix])), float(Vy[iy, ix])))
        if np.min(Ux) <= 0:
            iy, ix = np.unravel_index(np.argmin(Ux), Ux.shape)
            violations.append(("A4", (float(Y[iy, ix]), float(X[iy, ix])), float(Ux[iy, ix])))

    # A3 interiority: u(y_lo, .) and u(y_hi, .) must have the bracketing signs.
    top, bot = U[-1], U[0]
    if np.mean(bot) >= np.mean(top):
        lo_row, hi_row = bot, top
    else:
        lo_row, hi_row = top, bot
    interior_ok = bool(np.min(lo_row) >= -INTERIOR_TOL * uscale and np.max(hi_row) <= INTERIOR_TOL * uscale)
    if not interior_ok:
        ix = int(np.argmin(lo_row)) if np.min(lo_row) < -INTERIOR_TOL * uscale else int(np.argmax(hi_row))
        violations.append(("A3", (float(problem.states.points[ix]),), float(min(np.min(lo_row), -np.max(hi_row)))))

    if not problem.smooth:
        violations.append(("A1", (), 0.0))

    return AssumptionReport(
        smooth_ok=problem.smooth,
        asc_ok=asc_ok,
        interior_ok=interior_ok,
        ordering_ok=ordering_ok,
        violations=tuple(violations),
    )


def signal_to_outcome(problem: Problem, tau: Signal) -> Outcome:
    """Outcome induced by a signal: each atom's mass lands on the grid row
    nearest to its best response (error if farther than half a cell)."""
    tau.check_plausible(problem.prior)
    mass = np.zeros((problem.n_actions, problem.n_states))
    for post, m in tau.atoms:
        y = gamma(problem, post)
        iy = problem.actions.snap(y)
        mass[iy, list(post.support)] += m * post.weights
    return outcome_from_mass(problem, mass)


def outcome_from_mass(problem: Problem, mass: np.ndarray) -> Outcome:
    marg = float(np.max(np.abs(mass.sum(axis=0) - problem.prior)))
    Y, X = problem.grids_product()
    row_dot = np.sum(problem.u(Y, X) * mass, axis=1)
    if problem.obedience == "equality":
        obed = float(np.max(np.abs(row_dot)))
    else:
        viol = np.where(problem.constrained_rows(), np.maximum(0.0, -row_dot), 0.0)
        obed = float(np.max(viol))
    return Outcome(mass=mass, marginal_residual=marg, obedience_residual=obed)


def full_disclosure_signal(problem: Problem) -> Signal:
    atoms = [
        (Posterior.degenerate(i), float(problem.prior[i]))
        for i in range(problem.n_states)
        if problem.prior[i] > 0
    ]
    return Signal(tuple(atoms))


def no_disclosure_signal(problem: Problem) -> Signal:
    keep = np.nonzero(problem.prior > 0)[0]
    post = Posterior(tuple(int(i) for i in keep), problem.prior[keep] / problem.prior[keep].sum())
    return Signal(((post, 1.0),))


def full_disclosure_value(problem: Problem) -> float:
    """Sender value of disclosing every state exactly (off-grid actions)."""
    total = 0.0
    for i in np.nonzero(problem.prior > 0)[0]:
        y = gamma(problem, Posterior.degenerate(int(i)))
        total += problem.prior[i] * float(problem.V(np.array([y]), problem.states.points[i : i + 1])[0])
    return total
