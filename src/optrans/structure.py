"""Structural tests and constructive transformations.

Twist determinant and sign sweep, greedy pairwise splitting of posteriors,
single-dipped / single-peaked classification of outcomes and contact sets,
three-point re-pairing certificates via a theorem of alternatives, grid
sufficient conditions for dipped / peaked disclosure, and the
full-disclosure / pooling condition sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import IllPosed, NoRoot, NotStrictlyDipped
from .lp import MASS_TOL, ContactSet
from .model import Outcome, Posterior, Problem, Signal, chi, gamma, gamma_binary
from .simplex import solve_standard_form

STRICT_TOL = 1e-8
SNAP_CELLS = 2.5  # grid cells within which a classification violation counts as snapping
FARKAS_TOL = 1e-9  # beta-side LP optimum, relative to max(1, max |R|), that certifies beta
RHO_M = 64  # pooling sweeps: interior rho = k / RHO_M, k = 1 .. RHO_M - 1
REFINE_M = 512  # full-disclosure near-tie re-sweep: rho = k / REFINE_M


# ---------------------------------------------------------------------------
# twist determinant


def twist_determinant(problem: Problem, y: float, x1: float, x2: float, x3: float) -> float:
    """Determinant of the 3x3 matrix with rows (V_y, u, u_y) at (y, x_i)."""
    xs = np.array([x1, x2, x3], dtype=float)
    yv = np.full(3, float(y))
    a = np.asarray(problem.V_y(yv, xs), dtype=float)
    b = np.asarray(problem.u(yv, xs), dtype=float)
    c = np.asarray(problem.u_y(yv, xs), dtype=float)
    return float(
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


@dataclass(frozen=True)
class TwistReport:
    label: str  # 'holds_positive' | 'holds_negative' | 'fails'
    witness: Optional[tuple] = None  # (y, x1, x2, x3)


def check_twist(problem: Problem, *, zero_tol: float = 1e-12) -> TwistReport:
    """Sign-constancy sweep of the twist determinant over grid triples
    x1 < x2 < x3 with x1 < chi(y) < x3.

    Scans lexicographically in (y, x1, x2, x3); the first zero or
    sign-conflicting determinant is returned as the witness.  A determinant
    counts as zero when its magnitude is within ``zero_tol`` times the largest
    magnitude seen so far, the current (y, x1) block included.

    For each action the valid (x2, x3) index pairs of x1 = xs[0] are listed
    once, in lexicographic order; those of x1 = xs[i] are the suffix from
    x2 = xs[i + 1].  Each (y, x1) block is reduced to its minimum and maximum,
    and only a failing block is searched for its witness.
    """
    ys = problem.actions.points
    xs = problem.states.points
    nx = xs.size
    sign_seen = 0
    scale = 1.0
    for y in ys:
        yv = np.full(nx, float(y))
        a = np.asarray(problem.V_y(yv, xs), dtype=float)
        b = np.asarray(problem.u(yv, xs), dtype=float)
        c = np.asarray(problem.u_y(yv, xs), dtype=float)
        try:
            pivot = chi(problem, float(y))
        except NoRoot:
            continue
        n_low = int(np.count_nonzero(xs < pivot))
        kh = int(np.searchsorted(xs, pivot, side="right"))  # first state above chi(y)
        if n_low == 0 or kh == nx:
            continue
        M = b[:, None] * c[None, :] - b[None, :] * c[:, None]
        # pairs j < k with k >= kh, for j = 1 .. nx - 2
        k_first = np.maximum(kh, np.arange(2, nx))
        counts = nx - k_first
        start = np.concatenate([[0], np.cumsum(counts)])  # pairs of j begin at start[j - 1]
        J = np.repeat(np.arange(1, nx - 1), counts)
        K = np.arange(start[-1]) - np.repeat(start[:-1] - k_first, counts)
        MJK, aJ, aK = M[J, K], a[J], a[K]
        for i in range(n_low):
            s = start[i]
            if s == start[-1]:
                continue
            Mi = M[i]
            # det(i, j, k) = a[i] M[j, k] - a[j] M[i, k] + a[k] M[i, j]
            d = a[i] * MJK[s:] - aJ[s:] * Mi[K[s:]] + aK[s:] * Mi[J[s:]]
            lo, hi = float(d.min()), float(d.max())
            scale = max(scale, abs(lo), abs(hi))
            tol = zero_tol * scale
            if sign_seen == 0:  # the first triple (i, i + 1, max(kh, i + 2)) sets the sign
                sign_seen = 1 if d[0] > tol else -1 if d[0] < -tol else 0
            if sign_seen > 0 and lo > tol or sign_seen < 0 and hi < -tol:
                continue
            on_sign = d > tol if sign_seen > 0 else d < -tol
            n = s + int(np.argmin(on_sign))  # first triple off the sign
            return TwistReport("fails", (float(y), float(xs[i]), float(xs[J[n]]), float(xs[K[n]])))
    if sign_seen > 0:
        return TwistReport("holds_positive")
    if sign_seen < 0:
        return TwistReport("holds_negative")
    return TwistReport("fails", None)


# ---------------------------------------------------------------------------
# pairwise splitting


def pairwise_split(problem: Problem, mu: Posterior) -> list:
    """Split a posterior into binary-or-degenerate pieces inducing the same
    best response.

    States where u(gamma(mu), .) vanishes become degenerate atoms; the rest
    are pooled across the sign change with exact two-point obedience weights.
    Pairing consumes the smallest residual chunks first so the aggregate
    first-order-condition residual of the bisected gamma lands on the largest
    final piece.  Mass bookkeeping is exact rational arithmetic on the float
    inputs, so the pieces recombine to the input to within one rounding.
    """
    if len(mu.support) <= 2:
        return [(mu, 1.0)]
    y = gamma(problem, mu)
    xs = mu.states(problem.states)
    uvals = np.asarray(problem.u(np.full(xs.shape, y), xs), dtype=float)
    uscale = problem.u_scale()

    masses = [Fraction(float(w)) for w in mu.weights]
    uq = [Fraction(float(v)) for v in uvals]
    zero_cut = Fraction(1e-13) * Fraction(uscale)

    pieces = []  # ({state index: Fraction weight}, Fraction mass)
    neg, pos = [], []
    for k, v in enumerate(uq):
        if abs(v) <= zero_cut:
            pieces.append(({mu.support[k]: Fraction(1)}, masses[k]))
        elif v < 0:
            neg.append(k)
        else:
            pos.append(k)
    if neg and not pos or pos and not neg:
        raise IllPosed("posterior support lies on one side of the sign change")

    budget = {k: abs(uq[k]) * masses[k] for k in neg + pos}
    neg_q = sorted(neg, key=lambda k: budget[k])
    pos_q = sorted(pos, key=lambda k: budget[k])
    while neg_q and pos_q:
        a, b = neg_q[0], pos_q[0]
        last = len(neg_q) == 1 and len(pos_q) == 1
        if last:
            m_a = budget[a] / (-uq[a])
            m_b = budget[b] / uq[b]
            budget[a] = budget[b] = Fraction(0)
        else:
            take = min(budget[a], budget[b])
            m_a = take / (-uq[a])
            m_b = take / uq[b]
            budget[a] -= take
            budget[b] -= take
        mass = m_a + m_b
        if mass > 0:
            pieces.append(({mu.support[a]: m_a / mass, mu.support[b]: m_b / mass}, mass))
        if last:
            break
        if budget[a] == 0:
            neg_q.pop(0)
        if budget[b] == 0 and pos_q:
            pos_q.pop(0)
    # exact-tie exhaustion can leave a residual queue; park the (at most
    # rounding-sized) leftovers as degenerate atoms so no mass is dropped
    for k in neg_q + pos_q:
        left = budget[k] / abs(uq[k])
        if left > 0:
            pieces.append(({mu.support[k]: Fraction(1)}, left))

    total = sum(m for _, m in pieces)
    out = []
    for weights, m in pieces:
        sup = tuple(sorted(weights))
        w = np.array([float(weights[s]) for s in sup])
        out.append((Posterior(sup, w / w.sum()), float(m / total)))
    return out


# ---------------------------------------------------------------------------
# single-dipped / single-peaked classification


@dataclass(frozen=True)
class TripleWitness:
    y1: float
    y2: float
    x1: float
    x2: float
    x3: float
    kind: str  # 'single_peaked_triple' | 'single_dipped_triple'

    def key(self):
        return (self.x1, self.x2, self.x3, self.y1, self.y2)


@dataclass(frozen=True)
class MonotonicityReport:
    label: str
    dipped: str  # 'strict' | 'weak' | 'none'
    peaked: str
    witness: Optional[TripleWitness] = None
    snap_discounted: int = 0


def _rows_from_source(problem: Problem, source):
    rows = []
    grid_based = False
    if isinstance(source, Outcome):
        grid_based = True
        for iy in source.support_rows(MASS_TOL):
            sup = np.nonzero(source.mass[iy] > MASS_TOL)[0]
            rows.append((float(problem.actions.points[iy]), problem.states.points[sup]))
    elif isinstance(source, ContactSet):
        grid_based = True
        for iy in source.actions:
            sts = source.states_of(int(iy))
            rows.append((float(problem.actions.points[iy]), problem.states.points[sts]))
    elif isinstance(source, Signal):
        for post, _ in source.atoms:
            rows.append((gamma(problem, post), post.states(problem.states)))
    else:
        for g, sup in source:
            rows.append((float(g), np.asarray(np.atleast_1d(sup), dtype=float)))
    return rows, grid_based


def classify_monotonicity(problem: Problem, source) -> MonotonicityReport:
    """Label a set of induced posteriors single-dipped / single-peaked.

    A violation needs a row whose support straddles a state of another row
    with the wrong action ordering.  On grid-derived sources (Outcome, whose
    rows are those carrying more than ``MASS_TOL``, and ContactSet) several
    exact pairs snap onto one action row and neighboring rows blur, so
    violations whose action gap or straddle depth is within ``SNAP_CELLS``
    of the largest action or state spacing are counted in
    ``snap_discounted`` instead of overturning strictness; exact sources
    (Signal, explicit row lists) use zero tolerance and follow the set
    definitions literally.  Ties on exact sources downgrade strict to weak.
    The strongest surviving label is returned, preferring dipped over
    peaked, with the lexicographically smallest genuine witness when neither
    direction survives.
    """
    rows, grid_based = _rows_from_source(problem, source)
    snap_gamma = SNAP_CELLS * float(np.max(np.diff(problem.actions.points))) if grid_based else 0.0
    snap_x = SNAP_CELLS * float(np.max(np.diff(problem.states.points))) if grid_based else 0.0

    dipped, peaked = "strict", "strict"
    dip_wits, peak_wits = [], []
    dip_disc = 0  # dipped-ordering violations attributed to snapping
    peak_disc = 0

    spans = [(float(sup[0]), float(sup[-1])) for _, sup in rows]
    for a, (g1, sup1) in enumerate(rows):
        lo, hi = spans[a]
        if not hi > lo:
            continue
        for b, (g2, sup2) in enumerate(rows):
            inner = sup2[(sup2 > lo) & (sup2 < hi)]
            if inner.size == 0:
                continue
            depth = np.minimum(inner - lo, hi - inner)
            deep = float(np.max(depth))
            x2 = float(inner[int(np.argmax(depth))])
            gap = g2 - g1
            shallow = deep <= snap_x

            if gap > 0:
                # a dipped violation unless explained by snapping
                if gap <= snap_gamma or shallow:
                    dip_disc += 1
                else:
                    dipped = "none"
                    dip_wits.append(
                        TripleWitness(g1, g2, lo, x2, hi, "single_peaked_triple")
                    )
            elif gap < 0:
                if -gap <= snap_gamma or shallow:
                    peak_disc += 1
                else:
                    peaked = "none"
                    peak_wits.append(
                        TripleWitness(g1, g2, lo, x2, hi, "single_dipped_triple")
                    )
            else:
                # an exact tie: same action row.  Snapped grids lump distinct
                # pairs there; exact sources lose strictness.
                if not grid_based and not shallow:
                    if dipped == "strict":
                        dipped = "weak"
                    if peaked == "strict":
                        peaked = "weak"

    discounted = dip_disc + peak_disc
    if dipped == "strict" and peaked == "strict" and dip_disc > peak_disc:
        # both survive only because of snap discounting; the direction with
        # less discounted evidence against it wins
        label, witness = "strictly_single_peaked", None
    elif dipped == "strict":
        label, witness = "strictly_single_dipped", None
    elif peaked == "strict":
        label, witness = "strictly_single_peaked", None
    elif dipped == "weak" and peaked == "weak" and dip_disc > peak_disc:
        label, witness = "single_peaked", None
    elif dipped == "weak":
        label, witness = "single_dipped", None
    elif peaked == "weak":
        label, witness = "single_peaked", None
    else:
        wits = dip_wits or peak_wits
        witness = min(wits, key=TripleWitness.key) if wits else None
        label = "neither"
    return MonotonicityReport(
        label=label, dipped=dipped, peaked=peaked, witness=witness, snap_discounted=discounted
    )


# ---------------------------------------------------------------------------
# three-point re-pairing certificates (theorem of alternatives)


@dataclass(frozen=True)
class FarkasCertificate:
    R: np.ndarray
    verdict: str  # 'alpha_exists' | 'beta_exists'
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.alpha is None) == (self.beta is None):
            raise IllPosed("exactly one of alpha / beta must be present")


def farkas_alternative(R: np.ndarray) -> FarkasCertificate:
    """Decide which side of the alternative holds for a real matrix R:
    either some strictly positive row vector alpha has alpha R <= 0, or some
    nonnegative beta has R beta >= 0 with R beta != 0.

    The beta side is the LP max 1'(R beta) over beta in [0, 1]^n with
    R beta >= 0; an optimum above ``FARKAS_TOL`` times max(1, max |R|)
    certifies beta, and the LP dual of a zero optimum assembles
    alpha = 1 + lambda directly.
    """
    R = np.asarray(R, dtype=float)
    m, n = R.shape
    scale = max(1.0, float(np.max(np.abs(R))))
    # columns: beta (n), surplus s >= 0 with R beta - s = 0 (m), box slacks (n)
    A = sp.csc_matrix(
        np.block(
            [
                [R, -np.eye(m), np.zeros((m, n))],
                [np.eye(n), np.zeros((n, m)), np.eye(n)],
            ]
        )
    )
    b = np.concatenate([np.zeros(m), np.ones(n)])
    c = np.concatenate([R.T @ np.ones(m), np.zeros(m + n)])
    res = solve_standard_form(A, b, c)
    if res.objective > FARKAS_TOL * scale:
        beta = res.x[:n]
        return FarkasCertificate(R=R, verdict="beta_exists", beta=beta)
    # At a zero optimum the box rows carry zero duals, so the surplus-row
    # duals lam (nonpositive) give alpha = 1 - lam >= 1 with alpha R <= 0.
    lam = res.duals[:m]
    alpha = 1.0 - np.minimum(lam, 0.0)
    return FarkasCertificate(R=R, verdict="alpha_exists", alpha=alpha)


def repair_matrix(problem: Problem, y1: float, y2: float, x1: float, x2: float, x3: float) -> np.ndarray:
    """The 3x3 perturbation matrix for shifting weight on (x1, x3) from y1 to
    y2 against weight on x2 moving back: V-increment row with signs (+,-,+),
    then the signed obedience rows at y1 and y2."""
    xs = np.array([x1, x2, x3], dtype=float)
    sgn = np.array([1.0, -1.0, 1.0])
    dV = (
        np.asarray(problem.V(np.full(3, y2), xs), dtype=float)
        - np.asarray(problem.V(np.full(3, y1), xs), dtype=float)
    )
    u1 = np.asarray(problem.u(np.full(3, y1), xs), dtype=float)
    u2 = np.asarray(problem.u(np.full(3, y2), xs), dtype=float)
    return np.vstack([sgn * dV, -sgn * u1, sgn * u2])


def farkas_certificate(
    problem: Problem, y1: float, y2: float, x1: float, x2: float, x3: float
) -> FarkasCertificate:
    """Certificate for one action pair and state triple."""
    if not (y1 < y2):
        raise IllPosed("need y1 < y2")
    if not (x1 < x2 < x3):
        raise IllPosed("need x1 < x2 < x3")
    pivot = chi(problem, float(y1))
    if not (x1 < pivot < x3):
        raise IllPosed("need x1 < chi(y1) < x3")
    return farkas_alternative(repair_matrix(problem, y1, y2, x1, x2, x3))


# ---------------------------------------------------------------------------
# grid sufficient conditions for dipped / peaked disclosure


@dataclass(frozen=True)
class SdpdReport:
    label: str  # 'dipped' | 'dipped_strict' | 'peaked' | 'peaked_strict' | 'neither'
    dipped_weak: bool
    peaked_weak: bool
    witness: Optional[tuple] = None


def check_sdpd_sufficient(problem: Problem) -> SdpdReport:
    """Grid check of the two ratio monotonicity conditions.

    r1(y, x) = u_yx / u_x must be monotone in x for every action, and
    r2(y1, y2, x) = V_yx(y2, x) / u_x(y1, x) monotone in x for every ordered
    action pair; increasing gives dipped, decreasing gives peaked, and a
    uniformly strict ratio upgrades to the strict label.  Differences count
    as strict beyond ``STRICT_TOL`` (or the problem's derivative noise, if
    larger) times the ratio scale.
    """
    ys = problem.actions.points
    xs = problem.states.points
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    Ux = np.asarray(problem.u_x(Y, X), dtype=float)
    Uyx = np.asarray(problem.u_yx(Y, X), dtype=float)
    Vyx = np.asarray(problem.V_yx(Y, X), dtype=float)
    safe_Ux = np.where(np.abs(Ux) < 1e-12, np.nan, Ux)
    if not np.any(np.isfinite(safe_Ux)):
        # u_x degenerate everywhere (indicator-style receivers)
        return SdpdReport(label="neither", dipped_weak=False, peaked_weak=False, witness=None)

    noise = problem.derivative_noise()
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = Uyx / safe_Ux
    d1 = np.diff(r1, axis=1)
    tol1 = max(STRICT_TOL, noise) * max(1.0, float(np.nanmax(np.abs(r1))))
    r1_up = bool(np.nanmin(d1) >= -tol1)
    r1_dn = bool(np.nanmax(d1) <= tol1)
    r1_up_strict = bool(np.nanmin(d1) > tol1)
    r1_dn_strict = bool(np.nanmax(d1) < -tol1)

    # r2 over ordered action pairs: diff in x of V_yx(y2, .) / u_x(y1, .)
    ny = ys.size
    r2_up = r2_dn = True
    r2_up_strict = r2_dn_strict = True
    witness = None
    with np.errstate(divide="ignore", invalid="ignore"):
        tol2 = max(STRICT_TOL, noise) * max(
            1.0,
            float(np.nanmax(np.abs(Vyx))),
            float(np.nanmax(np.abs(1.0 / safe_Ux))),
        )
    for i1 in range(ny):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = Vyx[i1:, :] / safe_Ux[i1, :][None, :]
        d2 = np.diff(ratio, axis=1)
        mn, mx = float(np.nanmin(d2)), float(np.nanmax(d2))
        if mn < -tol2:
            r2_up = False
            if witness is None:
                i2r, ixr = np.unravel_index(int(np.nanargmin(d2)), d2.shape)
                witness = (float(ys[i1]), float(ys[i1 + i2r]), float(xs[ixr]))
        if mx > tol2:
            r2_dn = False
        if mn <= tol2:
            r2_up_strict = False
        if mx >= -tol2:
            r2_dn_strict = False

    dip_ok = r1_up and r2_up
    peak_ok = r1_dn and r2_dn
    dip_strict = dip_ok and (r1_up_strict or r2_up_strict)
    peak_strict = peak_ok and (r1_dn_strict or r2_dn_strict)

    if dip_strict:
        label = "dipped_strict"
    elif peak_strict:
        label = "peaked_strict"
    elif dip_ok and peak_ok:
        label = "neither"  # both ratios flat: weakly dipped and peaked at once
    elif dip_ok:
        label = "dipped"
    elif peak_ok:
        label = "peaked"
    else:
        label = "neither"
    return SdpdReport(
        label=label,
        dipped_weak=dip_ok,
        peaked_weak=peak_ok,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# full disclosure and pooling condition sweeps


@dataclass(frozen=True)
class FullDisclosureReport:
    label: str  # 'optimal' | 'optimal_unique' | 'not_optimal'
    witness: Optional[tuple] = None  # (x1, x2, rho)
    margin: float = 0.0
    decided_by: str = "sweep"  # 'sweep' | 'convex_supermodular_shortcut'


def _pair_grid(problem: Problem, m: int):
    """All prior-supported state pairs crossed with an interior rho grid."""
    xs = problem.states.points
    vals = xs[problem.prior > 0]
    i1, i2 = np.triu_indices(vals.size, k=1)
    rhos = (np.arange(1, m) / m).astype(float)
    X1 = np.repeat(vals[i1], rhos.size)
    X2 = np.repeat(vals[i2], rhos.size)
    V1 = np.repeat(np.arange(vals.size)[i1], rhos.size)
    V2 = np.repeat(np.arange(vals.size)[i2], rhos.size)
    RHO = np.tile(rhos, i1.size)
    return vals, X1, X2, V1, V2, RHO


def _disclosed_values(problem: Problem, vals: np.ndarray) -> np.ndarray:
    """V(gamma(d_x), x) for the given states; -inf on forbidden cells."""
    ys = gamma_binary(problem, vals, vals, np.ones_like(vals), iters=60)
    out = np.asarray(problem.V(ys, vals), dtype=float)
    if problem.forbidden is not None:
        out = np.where(problem.forbidden(ys, vals), -np.inf, out)
    return out


def _split_gain(problem: Problem, X1, X2, RHO, v1, v2):
    """Pooling payoff minus splitting payoff for two-point posteriors.

    Positive entries mean pooling (x1, x2) at weight rho beats disclosing
    both states; forbidden cells come back as -inf for pooling.
    """
    Yp = gamma_binary(problem, X1, X2, RHO, iters=60)
    with np.errstate(invalid="ignore"):
        pooled = np.asarray(problem.V(Yp, X1), dtype=float) * RHO + (1.0 - RHO) * np.asarray(
            problem.V(Yp, X2), dtype=float
        )
    if problem.forbidden is not None:
        hit = problem.forbidden(Yp, X1) | problem.forbidden(Yp, X2)
        pooled = np.where(hit, -np.inf, pooled)
    return pooled - (RHO * v1 + (1.0 - RHO) * v2)


def check_full_disclosure(problem: Problem, *, m: int = RHO_M) -> FullDisclosureReport:
    """Sweep all prior-supported state pairs and the rho grid k / m for a
    pooling deviation that beats splitting by more than 1e-9 times the
    largest finite |V|; near-ties are re-swept on the finer grid
    k / ``REFINE_M``.  For a linear receiver the convexity-plus-exchange
    shortcut is evaluated too and reported when it already decides
    optimality."""
    Y, X = problem.grids_product()
    Vfinite = np.asarray(problem.V(Y, X), dtype=float)
    scale = max(1.0, float(np.max(np.abs(Vfinite[np.isfinite(Vfinite)]))))
    tol = 1e-9 * scale
    vals, X1, X2, V1, V2, RHO = _pair_grid(problem, m)
    disc = _disclosed_values(problem, vals)
    gain = _split_gain(problem, X1, X2, RHO, disc[V1], disc[V2])
    worst = float(np.max(gain))
    shortcut = _linear_receiver_shortcut(problem)

    def refine(x1, x2, d1, d2):
        rhos = (np.arange(1, REFINE_M) / REFINE_M).astype(float)
        g2 = _split_gain(
            problem,
            np.full(rhos.size, x1),
            np.full(rhos.size, x2),
            rhos,
            np.full(rhos.size, d1),
            np.full(rhos.size, d2),
        )
        kk = int(np.argmax(g2))
        return float(rhos[kk]), float(g2[kk])

    if worst > tol:
        k = int(np.argmax(gain))
        rho, margin = refine(float(X1[k]), float(X2[k]), disc[V1[k]], disc[V2[k]])
        return FullDisclosureReport(
            label="not_optimal", witness=(float(X1[k]), float(X2[k]), rho), margin=margin
        )
    # near-tie refinement around the least-negative pairs
    near = np.nonzero(gain > -tol * 64)[0]
    for k in near[:256]:
        rho, margin = refine(float(X1[k]), float(X2[k]), disc[V1[k]], disc[V2[k]])
        if margin > tol:
            return FullDisclosureReport(
                label="not_optimal", witness=(float(X1[k]), float(X2[k]), rho), margin=margin
            )
    # strictness: the pooling deficit of neighboring states shrinks like the
    # squared separation, so the strict margin is judged per unit separation
    # squared rather than against a flat cut
    span = problem.states.hi - problem.states.lo
    sep2 = ((X2 - X1) / max(span, 1e-300)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(sep2 > 0, gain / sep2, -np.inf)
    strict = bool(np.max(normalized) < -STRICT_TOL * scale)
    label = "optimal_unique" if strict else "optimal"
    decided = "convex_supermodular_shortcut" if (shortcut and label != "not_optimal") else "sweep"
    return FullDisclosureReport(label=label, witness=None, margin=worst, decided_by=decided)


def _linear_receiver_shortcut(problem: Problem) -> bool:
    """Convex in the action plus the two-state exchange inequality; only
    meaningful when u(y, x) = x - y on the grid."""
    ys = problem.actions.points
    xs = problem.states.points
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    U = np.asarray(problem.u(Y, X), dtype=float)
    if np.max(np.abs(U - (X - Y))) > 1e-10 * max(1.0, float(np.max(np.abs(U)))):
        return False
    V = np.asarray(problem.V(Y, X), dtype=float)
    if not np.all(np.isfinite(V)):
        return False
    if ys.size >= 3:
        d2 = np.diff(V, n=2, axis=0)
        if np.min(d2) < -1e-10:
            return False
    inside = (xs >= ys[0]) & (xs <= ys[-1])
    vals = xs[inside]
    if vals.size < 2:
        return True

    def vv(y, x):
        return np.asarray(problem.V(np.asarray(y, float), np.asarray(x, float)), dtype=float)

    i1, i2 = np.triu_indices(vals.size, k=1)
    lhs = vv(vals[i1], vals[i2]) + vv(vals[i2], vals[i1])
    rhs = vv(vals[i1], vals[i1]) + vv(vals[i2], vals[i2])
    return bool(np.max(lhs - rhs) <= 1e-10)


@dataclass(frozen=True)
class NadConditionReport:
    label: str  # 'holds' | 'fails'
    witness: Optional[tuple] = None  # failing action y, or (x1, x2) pair
    route: str = "local"  # 'local' | 'sweep'
    margin: float = 0.0


def check_nad_condition(problem: Problem) -> NadConditionReport:
    """Pooling-everywhere condition.

    Under a strict dipped certificate the local curvature criterion at
    (y, chi(y)) decides: V_yy <= V_y u_yy / u_y + 2 (V_yx u_y - V_y u_yx)/u_x
    at every action with an interior pivot state.  Otherwise fall back to the
    direct sweep: every prior-supported state pair must admit some pooling
    weight on the grid k / ``RHO_M`` that strictly beats splitting.
    """
    sdpd = check_sdpd_sufficient(problem)
    if sdpd.label == "dipped_strict" and problem.smooth:
        ys = problem.actions.points
        worst = -np.inf
        worst_y = None
        for y in ys:
            try:
                cx = chi(problem, float(y))
            except NoRoot:
                continue
            yv = np.array([float(y)])
            xv = np.array([cx])
            Vy = float(problem.V_y(yv, xv)[0])
            Vyy = float(problem.V_yy(yv, xv)[0])
            Vyx = float(problem.V_yx(yv, xv)[0])
            uy = float(problem.u_y(yv, xv)[0])
            uyy = float(problem.u_yy(yv, xv)[0])
            uyx = float(problem.u_yx(yv, xv)[0])
            ux = float(problem.u_x(yv, xv)[0])
            lhs = Vyy
            rhs = Vy * uyy / uy + 2.0 * (Vyx * uy - Vy * uyx) / ux
            if lhs - rhs > worst:
                worst = lhs - rhs
                worst_y = float(y)
        scale = max(1.0, abs(worst))
        if worst > 1e-7 * scale:
            return NadConditionReport("fails", witness=worst_y, route="local", margin=worst)
        return NadConditionReport("holds", route="local", margin=worst)

    vals, X1, X2, V1, V2, RHO = _pair_grid(problem, RHO_M)
    disc = _disclosed_values(problem, vals)
    gain = _split_gain(problem, X1, X2, RHO, disc[V1], disc[V2])
    npairs = X1.size // (RHO_M - 1)
    per_pair = gain.reshape(npairs, RHO_M - 1).max(axis=1)
    k = int(np.argmin(per_pair))
    if per_pair[k] <= STRICT_TOL:
        x1 = float(X1[k * (RHO_M - 1)])
        x2 = float(X2[k * (RHO_M - 1)])
        return NadConditionReport("fails", witness=(x1, x2), route="sweep", margin=float(per_pair[k]))
    return NadConditionReport("holds", route="sweep", margin=float(per_pair.min()))


# ---------------------------------------------------------------------------
# pooled-pair extraction from a strictly single-dipped contact set


@dataclass(frozen=True)
class ChiPair:
    actions: np.ndarray
    chi1: np.ndarray
    chi2: np.ndarray


def extract_chi(problem: Problem, contact: ContactSet, *, snap_x: Optional[float] = None) -> ChiPair:
    """Per contact action, the smallest and largest contact states, after
    validating strict single-dippedness and the pair monotonicity rules:
    chi2 nondecreasing and chi1(y') never interior to an earlier pair, both
    up to ``snap_x`` (default ``SNAP_CELLS`` times the largest state
    spacing)."""
    report = classify_monotonicity(problem, contact)
    if report.label != "strictly_single_dipped":
        raise NotStrictlyDipped(
            f"contact set classifies as {report.label}", witness=report.witness
        )
    if snap_x is None:
        snap_x = SNAP_CELLS * float(np.max(np.diff(problem.states.points)))
    acts = []
    c1 = []
    c2 = []
    for iy in contact.actions:
        sts = contact.states_of(int(iy))
        if sts.size == 0:
            continue
        acts.append(float(problem.actions.points[iy]))
        vals = problem.states.points[sts]
        c1.append(float(vals.min()))
        c2.append(float(vals.max()))
    acts_a = np.asarray(acts)
    c1_a = np.asarray(c1)
    c2_a = np.asarray(c2)
    if np.any(np.diff(c2_a) < -snap_x):
        k = int(np.argmin(np.diff(c2_a)))
        raise NotStrictlyDipped(
            f"upper pair state decreases at action {float(acts_a[k + 1])!r}", witness=None
        )
    for j in range(1, acts_a.size):
        earlier_lo = c1_a[:j] + snap_x
        earlier_hi = c2_a[:j] - snap_x
        if np.any((c1_a[j] > earlier_lo) & (c1_a[j] < earlier_hi)):
            raise NotStrictlyDipped(
                f"lower pair state at action {float(acts_a[j])!r} is interior to an earlier pair",
                witness=None,
            )
    return ChiPair(actions=acts_a, chi1=c1_a, chi2=c2_a)
