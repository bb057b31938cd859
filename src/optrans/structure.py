"""Structural tests and constructive transformations.

Twist determinant and its sign sweep, decided by an O(n)-per-action convex
chain bound, else an O(n^2)-per-action block certificate where they can
prove the sign, and by the exact O(n^3)-per-action sweep where neither can,
greedy pairwise splitting of posteriors,
single-dipped / single-peaked classification of outcomes and contact sets,
three-point re-pairing certificates via a theorem of alternatives, grid
sufficient conditions for dipped / peaked disclosure, the full-disclosure
test by the action rows of the LP dual, and the full-disclosure / pooling
condition sweeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import IllPosed, NotStrictlyDipped
from .lp import ContactSet, q_intervals
from .model import MASS_TOL, PAIR_BLOCK, GridTables, Outcome, Posterior, Problem, Signal
from .model import chi, chi_array, gamma, gamma_binary
from .simplex import solve_standard_form

STRICT_TOL = 1e-8
SNAP_CELLS = 2.5  # grid cells within which a classification violation counts as snapping
TWIST_ZERO_TOL = 1e-12  # twist zero test, relative to a triple's own Hadamard bound
FARKAS_TOL = 1e-9  # beta-side LP optimum, relative to max(1, max |R|), that certifies beta
RHO_M = 64  # pooling sweeps: interior rho = k / RHO_M, k = 1 .. RHO_M - 1
# pooling sweeps run at most PAIR_BLOCK (from .model) x (RHO_M - 1) (pair, rho) entries at a time
REFINE_M = 512  # full-disclosure refinement: rho = k / REFINE_M
NEAR_MAX = 256  # full-disclosure near-tie pairs refined, largest coarse gain first
_EPS = float(np.finfo(float).eps)
# twist tiers: _TWIST_ROUNDING * _EPS bounds the rounding of one
# determinant, the sweep's or the block certificate's own bound, on rows
# scaled into [-1, 1], and _CHAIN_ROUNDING * _EPS * nmin^3 that of the chain
# tier's bound (``_twist_chain``); a lower bound must clear _TWIST_SAFETY
# times (TWIST_ZERO_TOL * the tier's scale of a triple + both roundings).  A
# chunk of blocks holds at most _TWIST_CHUNK (state, block) entries.
_TWIST_ROUNDING = 32.0
_CHAIN_ROUNDING = 256.0
_TWIST_SAFETY = 4.0
_TWIST_CHUNK = 1 << 16

logger = logging.getLogger("optrans.structure")


# ---------------------------------------------------------------------------
# twist determinant


def _det3(a, b, c) -> float:
    """Determinant of the 3x3 matrix with rows (a_t, b_t, c_t), t = 0, 1, 2,
    in the twist sweep's arithmetic."""
    return float(
        a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0]) + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def twist_determinant(problem: Problem, y: float, x1: float, x2: float, x3: float) -> float:
    """Determinant of the 3x3 matrix with rows (V_y, u, u_y) at (y, x_i)."""
    xs = np.array([x1, x2, x3], dtype=float)
    yv = np.full(3, float(y))
    return _det3(*(np.asarray(f(yv, xs), dtype=float) for f in (problem.V_y, problem.u, problem.u_y)))


@dataclass(frozen=True)
class TwistReport:
    label: str  # 'holds_positive' | 'holds_negative' | 'fails'
    witness: Optional[tuple] = None  # (y, x1, x2, x3)


def check_twist(problem) -> TwistReport:
    """Sign-constancy sweep of the twist determinant over grid triples
    x1 < x2 < x3 with x1 < chi(y) < x3.

    Scans lexicographically in (y, x1, x2, x3); the first triple sets the
    sign, and the first zero or sign-conflicting determinant is returned as
    the witness.  Each triple is judged against its own scale: at action y
    let the columns V_y, u and u_y of the rows r_x = (V_y, u, u_y)(y, x) be
    scaled by 2^-e0, 2^-e1 and 2^-e2 so that each column's largest magnitude
    over the states lies in [0.5, 1), giving rows R_x; a determinant counts
    as zero when |det| <= ``TWIST_ZERO_TOL`` 2^(e0+e1+e2) |R_i| |R_j| |R_k|,
    its own Hadamard bound in the scaled frame.  So the only state one
    action hands the next is the sign.

    Each action is decided by the first of three tiers that can, by
    construction with the same result.  Every lower bound below must clear
    ``_TWIST_SAFETY`` times (``TWIST_ZERO_TOL`` times the tier's scale of a
    triple + the rounding of the sweep's formula + the tier's own rounding).
    1. The chain tier (``_twist_chain``), O(nx) per action and run for every
       action at once, proves every triple of the action.  It projects the
       rows from an axis d inside their hemisphere to points p_x of a plane;
       det(R_i, R_j, R_k) has the sign of the triangle (p_i, p_j, p_k), so
       the action is proved when the p_x form a strictly convex polygon in
       state order, whose smallest triangle has three cyclically
       consecutive vertices.
    2. The block certificate (``_certify_action``), O(nx) per (y, x1) block,
       proves the action's triples from a projection identity in each
       block's own frame: a block has one sign when the angles of the
       projected rows rise with the state within a quarter turn.
    3. The exact sweep (``_twist_sweep``) lists the action's valid (x2, x3)
       index pairs once and checks each (y, x1) block against them.
    An action goes to the next tier when the one before cannot decide it
    (a degenerate frame, no hemisphere or convex chain, angles out of
    order, too small a margin, or no sign yet because the first triple is
    zero).  One DEBUG record on logger ``optrans.structure`` counts the
    actions each tier decided, with the least margin of the first two and
    the first swept action and its reason.  Raises ``IllPosed`` when the
    scan reaches an action where ``chi`` raises it or whose rows are not
    finite.
    """
    tables = GridTables.of(problem)
    xs = tables.problem.states.points
    nx = xs.size
    ys, R, norms, n_low, kh, fault = _twist_actions(tables)
    chain, low, need = _twist_chain(R, norms)
    sign, witness, first = 0, None, ""
    decided = {"chain": 0, "certificate": 0, "sweep": 0}
    least = {"chain": np.inf, "certificate": np.inf}
    for a, y in enumerate(ys):
        Ra, na, nl, k = R[a], norms[a], int(n_low[a]), int(kh[a])
        if sign == 0 and nx > 2:  # the scan's first triple (0, 1, max(kh, 2)) sets the sign
            k3 = max(k, 2)
            d, tol = _det3(*Ra[[0, 1, k3]].T), TWIST_ZERO_TOL * na[0] * na[1] * na[k3]
            sign = 1 if d > tol else -1 if d < -tol else 0
        if sign == 0:
            reason = "sign"
        elif chain[a] == sign and low[a] > need[a]:
            decided["chain"] += 1
            least["chain"] = min(least["chain"], low[a] / need[a])
            continue
        elif nx - k < nl:
            # fewer blocks counted down from the top state, with the states
            # reversed: det(R_k, R_j, R_i) = -det(R_i, R_j, R_k)
            reason, margin = _certify_action(Ra[::-1], na[::-1], min(nx - k, nx - 2), nx - nl, -sign)
        else:
            reason, margin = _certify_action(Ra, na, min(nl, nx - 2), k, sign)
        if reason is None:
            decided["certificate"] += 1
            least["certificate"] = min(least["certificate"], margin)
            continue
        decided["sweep"] += 1
        first = first or f", first at y={float(y)!r} ({reason})"
        hit = _twist_sweep(Ra, na, nl, k, sign)
        if hit is not None:
            witness = (float(y), *(float(xs[t]) for t in hit))
            break
    logger.debug(
        "twist: %d actions by the chain (least margin %.3g), %d by the block certificate (least margin %.3g), %d swept%s",
        decided["chain"],
        least["chain"],
        decided["certificate"],
        least["certificate"],
        decided["sweep"],
        first,
    )
    if witness is None and fault is not None:
        raise fault
    if witness is not None or sign == 0:
        return TwistReport("fails", witness)
    return TwistReport("holds_positive" if sign > 0 else "holds_negative")


def _twist_actions(tables: GridTables) -> tuple:
    """The actions the twist sweep visits, in scan order, up to the first
    that raises, as (ys, R, norms, n_low, kh, fault): the actions; their
    rows R = (V_y, u, u_y) at (y, xs), an (actions, states, 3) array, with
    each column of each action scaled by a power of two so that its largest
    magnitude lies in [0.5, 1), exactly; the row norms; the number of states
    below chi(y); the index of the first state above it; and the
    ``IllPosed`` the scan raises after these actions, or None.  Every pivot
    comes from one ``chi_array`` call and the rows are those of the grid
    tables of V_y, u and u_y, which give every entry the same bits as a
    call on one action's row.  Actions without a pivot, or
    with every state on one side of it, are skipped.  The fault is the first,
    in scan order, of an action where ``chi`` raises ``IllPosed`` and an
    action whose rows are not finite."""
    xs, ys = tables.problem.states.points, tables.problem.actions.points
    nx = xs.size
    pivots, errors = chi_array(tables.problem, ys)
    n_low = np.searchsorted(xs, pivots, side="left")  # states below chi(y); NaN sorts last
    kh = np.searchsorted(xs, pivots, side="right")  # first state above chi(y)
    idx = np.flatnonzero((n_low > 0) & (kh < nx))
    R = np.stack([tables.V_y[idx], tables.u[idx], tables.u_y[idx]], axis=2)
    bad = ~np.isfinite(R).all(axis=2)
    stop, fault = ys.size, None
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        a = int(rows[0])
        x = float(xs[int(np.argmax(bad[a]))])
        stop = int(idx[a])
        fault = IllPosed(f"twist rows (V_y, u, u_y) are not finite at (y, x) = ({float(ys[stop])!r}, {x!r})")
    if errors and min(errors) < stop:
        stop = min(errors)
        fault = errors[stop]
    keep = idx < stop
    idx, R = idx[keep], R[keep]
    R = np.ldexp(R, -np.frexp(np.max(np.abs(R), axis=1))[1][:, None, :])
    norms = np.sqrt(R[..., 0] ** 2 + R[..., 1] ** 2 + R[..., 2] ** 2)
    return ys[idx], R, norms, n_low[idx], kh[idx], fault


def _twist_chain(R, norms) -> tuple:
    """The chain tier of ``check_twist``: a lower bound of sign * det(R_i,
    R_j, R_k) over every triple i < j < k of each action at once, in O(nx)
    work per action.  ``R`` and ``norms`` are ``_twist_actions``'s rows
    (actions, states, 3) and norms.

    Per action, let d be the normalized sum of the unit rows, e1 the
    coordinate axis least aligned with d made orthogonal to it, and e2 =
    d x e1, so that (e1, e2, d) is right-handed.  With q_x = R_x . d and
    p_x = (R_x . e1, R_x . e2) / q_x, every det(R_i, R_j, R_k) = q_i q_j q_k
    A(i, j, k), A the determinant of the lifted points (p, 1), twice the
    signed area of the triangle (p_i, p_j, p_k).  When every c_x = q_x / |R_x|
    is positive, the nx cyclically consecutive A_t = A(t, t + 1, t + 2) share
    one sign, and the edges p_{t+1} - p_t wind once around (counted by exact
    half-plane tests: the steps from the lower half plane into the upper,
    after reflecting a clockwise chain), the p_x form a strictly convex
    polygon in state order.  Its smallest triangle has three cyclically
    consecutive vertices (the distance to a chord is unimodal along a convex
    chain), and a cyclic rotation keeps A, so every index-ordered triple has
    sign * A >= min_t sign * A_t and

        low = nmin^3 c_min^3 a_min,  a_min = min_t sign * A_t,

    nmin the least row norm, bounds every sign * det from below.  The
    action is proved when low > need = ``_TWIST_SAFETY`` (``TWIST_ZERO_TOL``
    nmin^3 + E + ``_CHAIN_ROUNDING`` eps nmin^3), E as in
    ``_certify_action``.  That settles the sweep's own test of every
    triple, against its scale P = |R_i| |R_j| |R_k| and with its rounding
    E: as q_x >= c_min |R_x|, sign * det >= P c_min^3 a_min; clearing need
    makes c_min^3 a_min > ``TWIST_ZERO_TOL``, so P (c_min^3 a_min -
    ``TWIST_ZERO_TOL``) grows with P >= nmin^3, and sign * det -
    ``TWIST_ZERO_TOL`` P >= low - ``TWIST_ZERO_TOL`` nmin^3 > E.  The last
    term of need is the rounding of p and A carried to det units: each dot
    product is off by at most 3 eps |R_x|, so, with
    |p| <= 1 / c, a coordinate of p by 7 eps / c^2 and of an edge by
    16 eps / c^2, and A_t, a cross product of edges of size <= 2 / c, by
    144 eps / c^3, which nmin^3 c_min^3 turns into 144 eps nmin^3.  Since
    |A_t| <= 8 / c_min^2, clearing need forces c_min > 128 eps, so the
    relative rounding of q, c and the frame, about 3 eps / c_min per factor,
    stays below a fifth in all, which the safety factor covers.

    Returns (sign, low, need) per action; sign is the chain's orientation,
    +1 or -1, where the rows form such a convex chain, else 0."""
    na, nx = norms.shape
    sign = np.zeros(na, dtype=int)
    if na == 0 or nx < 3:
        return sign, np.zeros(na), np.ones(na)
    act = np.arange(na)

    def dot(v):
        return R[..., 0] * v[:, None, 0] + R[..., 1] * v[:, None, 1] + R[..., 2] * v[:, None, 2]

    # a zero row gives 0 / 0, a row at right angles to d gives x / 0, and a
    # near one gives huge p: the sign tests below reject all three
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sum(R / norms[..., None], axis=1)
        d /= np.sqrt(np.sum(d * d, axis=1))[:, None]
        axis = np.argmin(np.abs(d), axis=1)
        e1 = -d[act, axis][:, None] * d
        e1[act, axis] += 1.0
        e1 /= np.sqrt(np.sum(e1 * e1, axis=1))[:, None]
        e2 = np.cross(d, e1)
        q = dot(d)
        p1, p2 = dot(e1) / q, dot(e2) / q
        c_min = np.min(q / norms, axis=1)
        ex, ey = np.roll(p1, -1, axis=1) - p1, np.roll(p2, -1, axis=1) - p2  # edge t: p_t -> p_{t+1}
        A = ex * np.roll(ey, -1, axis=1) - ey * np.roll(ex, -1, axis=1)  # A_t = A(t, t + 1, t + 2)
        s = np.sign(A[:, 0])
        a_min = np.min(s[:, None] * A, axis=1)
        ey = s[:, None] * ey
        upper = (ey > 0.0) | ((ey == 0.0) & (ex > 0.0))  # the edge's angle lies in [0, pi)
        turns = np.count_nonzero(upper & ~np.roll(upper, 1, axis=1), axis=1)
        chain = (c_min > 0.0) & (a_min > 0.0) & (a_min < np.inf) & (turns == 1)
        sign[chain] = s[chain]
        nmin3 = np.min(norms, axis=1) ** 3
        low = nmin3 * c_min**3 * a_min
    E = _TWIST_ROUNDING * _EPS * np.prod(np.max(np.abs(R), axis=1), axis=1)
    need = _TWIST_SAFETY * (TWIST_ZERO_TOL * nmin3 + E + _CHAIN_ROUNDING * _EPS * nmin3)
    return sign, low, need


def _twist_sweep(R, norms, n_low: int, kh: int, sign: int) -> Optional[tuple]:
    """The exact sweep of ``check_twist`` over one action's ``_twist_actions``
    rows: the state indices (i, j, k) of the first triple whose determinant is
    not ``sign`` times a nonzero (every triple when ``sign`` is 0), or None."""
    a, b, c = R.T
    nx = a.size
    M = b[:, None] * c[None, :] - b[None, :] * c[:, None]
    # pairs j < k with k >= kh, for j = 1 .. nx - 2
    k_first = np.maximum(kh, np.arange(2, nx))
    counts = nx - k_first
    start = np.concatenate([[0], np.cumsum(counts)])  # pairs of j begin at start[j - 1]
    J = np.repeat(np.arange(1, nx - 1), counts)
    K = np.arange(start[-1]) - np.repeat(start[:-1] - k_first, counts)
    MJK, aJ, aK, nJ, nK = M[J, K], a[J], a[K], norms[J], norms[K]
    for i in range(n_low):
        s = start[i]
        Mi = M[i]
        # det(i, j, k) = a[i] M[j, k] - a[j] M[i, k] + a[k] M[i, j]
        d = a[i] * MJK[s:] - aJ[s:] * Mi[K[s:]] + aK[s:] * Mi[J[s:]]
        on_sign = sign * d > TWIST_ZERO_TOL * norms[i] * nJ[s:] * nK[s:]
        if not on_sign.all():
            n = s + int(np.argmin(on_sign))  # first triple off the sign
            return i, int(J[n]), int(K[n])
    return None


def _certify_action(R, norms, nb: int, kh: int, sign: int) -> tuple:
    """Prove that every triple (i, j, k) of the sweep's blocks i < nb at one
    action (i < j < k, k >= kh) has a determinant the sweep counts as
    nonzero, of sign ``sign``, on the scaled rows R of ``_twist_actions``.

    In block i's frame (e3 along R_i, e1 along the part of R_{nx-1}
    orthogonal to it, e2 = sign * (e3 x e1)) let (w1, w2)_x be R_x's
    coordinates on (e1, e2) and s_x = w2 / w1.  Then sign * det(R_i, R_j,
    R_k) = |R_i| w1_j w1_k (s_k - s_j).  The block is proved when every w_x,
    x > i, lies in the quarter plane w1 > 0 >= w2, every third state k >=
    max(kh, i + 2) has s_k above the prefix maximum of s over (i, k), and
    the lower bound, with m = (i + k) // 2,

        |R_i| w1_k min(min w1 over (i, m] * (s_k - max s over (i, m]),
                       min w1 over (m, nx) * (s_k - max s over (i, k)))

    clears ``_TWIST_SAFETY`` times (TWIST_ZERO_TOL * H + E) plus the
    rounding of this bound itself.  H = max_{i < nb} |R_i| max_{x > i}
    |R_x|^2 is the action's Hadamard bound, which bounds every triple's own
    scale |R_i| |R_j| |R_k|; E bounds the sweep's rounding of one
    determinant.

    Returns (reason, margin): reason is None when the action is proved, else
    'frame', 'ordering' or 'margin'; margin is the least ratio of a lower
    bound to what it must clear."""
    nx = norms.size
    low = np.inf  # least lower bound of |det| over the blocks
    step = max(1, _TWIST_CHUNK // nx)
    for i0 in range(0, nb, step):
        I = np.arange(i0, min(nb, i0 + step))
        nbc = I.size
        ri = norms[I]
        if not np.all(ri > 0):
            return "frame", 0.0
        e3 = R[I] / ri[:, None]
        v = R[-1]
        e1 = v - (e3 @ v)[:, None] * e3
        e1 -= np.einsum("ij,ij->i", e1, e3)[:, None] * e3  # Gram-Schmidt twice
        n1 = np.sqrt(np.einsum("ij,ij->i", e1, e1))
        if not np.all(n1 > 4.0 * _EPS * norms[-1]):
            return "frame", 0.0
        e1 /= n1[:, None]
        e2 = np.stack(
            [
                e3[:, 1] * e1[:, 2] - e3[:, 2] * e1[:, 1],
                e3[:, 2] * e1[:, 0] - e3[:, 0] * e1[:, 2],
                e3[:, 0] * e1[:, 1] - e3[:, 1] * e1[:, 0],
            ],
            axis=1,
        )
        # states x > i0 down the rows, blocks across the columns
        Rs = R[i0 + 1 :]
        W1 = Rs @ e1.T
        W2 = Rs @ (sign * e2).T
        W2[-1] = 0.0  # w_{nx-1} lies along e1
        after = np.arange(Rs.shape[0])[:, None] >= (I - i0)[None, :]  # x > i
        if np.any(after & ((W1 <= 0.0) | (W2 > 0.0))):
            return "ordering", 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            s = W2 / W1
        Smax = np.maximum.accumulate(np.where(after, s, -np.inf), axis=0)
        Wpre = np.minimum.accumulate(np.where(after, W1, np.inf), axis=0)
        Wsuf = np.minimum.accumulate(W1[::-1], axis=0)[::-1]
        # third states k >= max(kh, i + 2), from row k0 on
        k0 = max(kh, i0 + 2) - i0 - 1
        K = np.arange(k0, Rs.shape[0])[:, None] + (i0 + 1)
        valid = K >= np.maximum(kh, I + 2)[None, :]
        sk = s[k0:]
        if np.any(valid & ~(sk > Smax[k0 - 1 : -1])):
            return "ordering", 0.0
        mid = ((K + I[None, :]) // 2 - (i0 + 1)) * nbc + np.arange(nbc)  # m = (i + k) // 2
        with np.errstate(invalid="ignore"):
            left = np.take(Wpre, mid) * (sk - np.take(Smax, mid))
            right = np.take(Wsuf, mid + nbc) * (sk - Smax[k0 - 1 : -1])
            lb = np.minimum(left, right) * W1[k0:]
        low = min(low, float(np.min(np.min(lb, axis=0, where=valid, initial=np.inf) * ri)))
    top = np.maximum.accumulate((norms * norms)[::-1])[::-1]
    H = float(np.max(norms[:nb] * top[1 : nb + 1]))
    E = _TWIST_ROUNDING * _EPS * float(np.prod(np.max(np.abs(R), axis=0)))
    margin = low / (_TWIST_SAFETY * (TWIST_ZERO_TOL * H + E + _TWIST_ROUNDING * _EPS))
    return (None if margin > 1.0 else "margin"), margin


# ---------------------------------------------------------------------------
# pairwise splitting


def pairwise_split(problem: Problem, mu: Posterior) -> list:
    """Split a posterior into binary-or-degenerate pieces inducing the same
    best response.

    States where u(gamma(mu), .) vanishes become degenerate atoms; the rest
    are pooled across the sign change with exact two-point obedience weights.
    Pairing consumes the smallest residual chunks first so the aggregate
    first-order-condition residual left at gamma's root lands on the largest
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


def _support_matrix(problem: Problem, source) -> tuple:
    """A source as (g, pts, S, grid_based): the action g[r] of each row r,
    the increasing points pts and the boolean support matrix S (rows x
    points).  The points are the state grid for an ``Outcome`` (rows those
    carrying more than ``MASS_TOL``, cells those carrying more than it), a
    ``ContactSet`` (rows ``actions``, cells ``pairs``) and a ``Signal`` (rows
    its atoms); for an explicit list of (action, states) rows they are the
    sorted union of the given states, so each row is read as a set."""
    if isinstance(source, Outcome):
        rows = source.support_rows()
        return problem.actions.points[rows], problem.states.points, source.mass[rows] > MASS_TOL, True
    if isinstance(source, ContactSet):
        cells = np.zeros((problem.n_actions, problem.n_states), dtype=bool)
        pairs = np.asarray(source.pairs, dtype=int).reshape(-1, 2)
        cells[pairs[:, 0], pairs[:, 1]] = True
        rows = np.asarray(source.actions, dtype=int)
        return problem.actions.points[rows], problem.states.points, cells[rows], True
    if isinstance(source, Signal):
        rows = [(gamma(problem, post), problem.states.points[list(post.support)]) for post, _ in source.atoms]
        pts = problem.states.points
    else:
        rows = [(float(g), np.asarray(np.atleast_1d(sup), dtype=float)) for g, sup in source]
        pts = np.unique(np.concatenate([sup for _, sup in rows])) if rows else np.empty(0)
    S = np.zeros((len(rows), pts.size), dtype=bool)
    for r, (_, sup) in enumerate(rows):
        S[r, np.searchsorted(pts, sup)] = True
    return np.array([g for g, _ in rows], dtype=float), pts, S, False


def classify_monotonicity(problem: Problem, source) -> MonotonicityReport:
    """Label a set of induced posteriors single-dipped / single-peaked.

    The source, an ``Outcome``, ``ContactSet``, ``Signal`` or explicit list
    of (action, states) rows, becomes one support matrix
    (``_support_matrix``).  A violation needs a row a whose support, from lo
    to hi, straddles a state of another row b with the wrong action
    ordering; each row a is tested against all rows at once, with the
    deepest straddled state of b (depth min(x - lo, hi - x), the least such
    state on a tie) as x2.  A row with an empty support, such as an outcome
    row whose mass exceeds ``MASS_TOL`` while none of its cells does, is
    skipped.  On grid-derived sources (Outcome and ContactSet) several exact
    pairs snap onto one action row and neighboring rows blur, so violations
    whose action gap or straddle depth is within ``SNAP_CELLS`` of the
    largest action or state spacing are counted in ``snap_discounted``
    instead of overturning strictness; exact sources (Signal, explicit row
    lists) use zero tolerance and follow the set definitions literally.
    Ties on exact sources downgrade strict to weak.  The strongest surviving
    label is returned, preferring dipped over peaked, with the
    lexicographically smallest genuine witness when neither direction
    survives.
    """
    g, pts, S, grid_based = _support_matrix(problem, source)
    snap_gamma = SNAP_CELLS * problem.actions.max_spacing if grid_based else 0.0
    snap_x = SNAP_CELLS * problem.states.max_spacing if grid_based else 0.0

    # least witness of each kind: a dipped violation is a single-peaked triple
    wits = {"single_peaked_triple": None, "single_dipped_triple": None}
    dip_disc = 0  # dipped-ordering violations attributed to snapping
    peak_disc = 0
    tied = False
    for a in range(g.size):
        cols = np.flatnonzero(S[a])
        if cols.size < 2 or cols[-1] - cols[0] < 2:
            continue
        lo, hi = float(pts[cols[0]]), float(pts[cols[-1]])
        inner = pts[cols[0] + 1 : cols[-1]]
        mask = S[:, cols[0] + 1 : cols[-1]]
        depth = np.where(mask, np.minimum(inner - lo, hi - inner), -np.inf)
        x2, shallow = inner[depth.argmax(axis=1)], depth.max(axis=1) <= snap_x
        hit = mask.any(axis=1)
        gap = g - g[a]
        up, down = hit & (gap > 0), hit & (gap < 0)
        dip_snap = up & ((gap <= snap_gamma) | shallow)
        peak_snap = down & ((-gap <= snap_gamma) | shallow)
        dip_disc += int(dip_snap.sum())
        peak_disc += int(peak_snap.sum())
        # an exact tie: same action row.  Snapped grids lump distinct pairs
        # there; exact sources lose strictness.
        tied = tied or (not grid_based and bool(np.any(hit & ~(up | down) & ~shallow)))
        for kind, bad in (("single_peaked_triple", up & ~dip_snap), ("single_dipped_triple", down & ~peak_snap)):
            b = np.flatnonzero(bad)
            if b.size:
                b = b[np.lexsort((g[b], x2[b]))[0]]
                w = TripleWitness(float(g[a]), float(g[b]), lo, float(x2[b]), hi, kind)
                if wits[kind] is None or w.key() < wits[kind].key():
                    wits[kind] = w

    grade = "weak" if tied else "strict"
    dipped = "none" if wits["single_peaked_triple"] else grade
    peaked = "none" if wits["single_dipped_triple"] else grade
    label, witness = "neither", wits["single_peaked_triple"] or wits["single_dipped_triple"]
    if dipped != "none" or peaked != "none":
        # when both survive, the direction with less snap-discounted evidence
        # against it wins, dipped on a tie
        peak_wins = dipped == "none" or (peaked != "none" and dip_disc > peak_disc)
        label = ("strictly_" if grade == "strict" else "") + ("single_peaked" if peak_wins else "single_dipped")
        witness = None
    return MonotonicityReport(label, dipped, peaked, witness, dip_disc + peak_disc)


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


def check_sdpd_sufficient(problem) -> SdpdReport:
    """Grid check of the two ratio monotonicity conditions.

    r1(y, x) = u_yx / u_x must be monotone in x for every action, and
    r2(y1, y2, x) = V_yx(y2, x) / u_x(y1, x) monotone in x for every ordered
    action pair; increasing gives dipped, decreasing gives peaked, and a
    uniformly strict ratio upgrades to the strict label.  Differences count
    as strict beyond ``STRICT_TOL`` (or the problem's derivative noise, if
    larger) times the ratio scale.  Each ratio is NaN where |u_x| < 1e-12,
    and its differences there are left out; so the label comes from the
    least and largest finite difference of each ratio, and a ratio with no
    finite difference certifies nothing.  The witness is the most negative
    r2 difference of the first action y1 whose differences fall below the
    tolerance.  Raises ``IllPosed`` on a non-finite u_x, u_yx or V_yx cell.
    """
    return GridTables.of(problem).once(_sdpd)


def _sdpd(tables: GridTables) -> SdpdReport:
    """The report of ``check_sdpd_sufficient`` from ``tables``."""
    problem = tables.problem
    ys, xs = problem.actions.points, problem.states.points
    Ux, Uyx, Vyx = tables.u_x, tables.u_yx, tables.V_yx
    for name, table in (("u_x", Ux), ("u_yx", Uyx), ("V_yx", Vyx)):
        if not np.isfinite(table).all():
            iy, ix = np.unravel_index(int(np.argmin(np.isfinite(table))), table.shape)
            raise IllPosed(f"{name} is {float(table[iy, ix])!r} at (y, x) = ({float(ys[iy])!r}, {float(xs[ix])!r})")
    safe_Ux = np.where(np.abs(Ux) < 1e-12, np.nan, Ux)
    if not np.any(np.isfinite(safe_Ux)):
        # u_x degenerate everywhere (indicator-style receivers)
        return SdpdReport(label="neither", dipped_weak=False, peaked_weak=False, witness=None)

    noise = problem.derivative_noise()
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = Uyx / safe_Ux
        d1 = np.diff(r1, axis=1)
        tol1 = max(STRICT_TOL, noise) * max(1.0, float(np.nanmax(np.abs(r1))))
        tol2 = max(STRICT_TOL, noise) * max(1.0, float(np.max(np.abs(Vyx))), float(np.nanmax(np.abs(1.0 / safe_Ux))))
    lo1, hi1 = np.fmin.reduce(d1, axis=None), np.fmax.reduce(d1, axis=None)

    # r2 over ordered action pairs: diff in x of V_yx(y2, .) / u_x(y1, .)
    lo2 = hi2 = np.nan
    witness = None
    for i1 in range(ys.size):
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.diff(Vyx[i1:, :] / safe_Ux[i1, :][None, :], axis=1)
        mn = np.fmin.reduce(d2, axis=None)
        if witness is None and mn < -tol2:
            i2r, ixr = np.unravel_index(int(np.nanargmin(d2)), d2.shape)
            witness = (float(ys[i1]), float(ys[i1 + i2r]), float(xs[ixr]))
        lo2, hi2 = np.fmin(lo2, mn), np.fmax(hi2, np.fmax.reduce(d2, axis=None))

    # NaN extremes (no finite difference) fail every comparison
    dip_ok = bool(lo1 >= -tol1 and lo2 >= -tol2)
    peak_ok = bool(hi1 <= tol1 and hi2 <= tol2)
    if dip_ok and (lo1 > tol1 or lo2 > tol2):
        label = "dipped_strict"
    elif peak_ok and (hi1 < -tol1 or hi2 < -tol2):
        label = "peaked_strict"
    elif dip_ok != peak_ok:
        label = "dipped" if dip_ok else "peaked"
    else:
        label = "neither"  # both ratios flat (weakly dipped and peaked at once), or neither
    return SdpdReport(label=label, dipped_weak=dip_ok, peaked_weak=peak_ok, witness=witness)


# ---------------------------------------------------------------------------
# full disclosure and pooling condition sweeps


@dataclass(frozen=True)
class FullDisclosureReport:
    label: str  # 'optimal' | 'optimal_unique' | 'not_optimal'
    witness: Optional[tuple] = None  # (x1, x2, rho)
    margin: float = 0.0
    decided_by: str = "sweep"  # 'sweep' | 'convex_supermodular_shortcut'


def _split_gain(problem: Problem, X1, X2, RHO, v1, v2):
    """Pooling payoff minus splitting payoff for two-point posteriors.

    Positive entries mean pooling (x1, x2) at weight rho beats disclosing
    both states; forbidden cells come back as -inf for pooling.
    """
    Yp = gamma_binary(problem, X1, X2, RHO)
    with np.errstate(invalid="ignore"):
        pooled = np.asarray(problem.V(Yp, X1), dtype=float) * RHO + (1.0 - RHO) * np.asarray(
            problem.V(Yp, X2), dtype=float
        )
    if problem.forbidden is not None:
        hit = problem.forbidden(Yp, X1) | problem.forbidden(Yp, X2)
        pooled = np.where(hit, -np.inf, pooled)
    with np.errstate(invalid="ignore"):  # -inf - -inf: pooling and disclosure both forbidden
        return pooled - (RHO * v1 + (1.0 - RHO) * v2)


def _pair_states(tables: GridTables, p: int) -> tuple:
    """(x1, x2) of pair p of ``tables.pairs``."""
    i1, i2 = tables.pairs
    return float(tables.supported[i1[p]]), float(tables.supported[i2[p]])


def _sweep(tables: GridTables, m: int, pairs: np.ndarray) -> tuple:
    """Largest pooling gain over rho = k / m of each of ``pairs`` (indices into
    ``tables.pairs``) and the first rho reaching it.  Every entry is the same
    elementwise expression as on the whole (pair, rho) table, which is never
    built.  Raises ``IllPosed`` on the first pair with a NaN gain, which
    forbidden cells give where they block both pooling and disclosure."""
    rhos = (np.arange(1, m) / m).astype(float)
    nr = rhos.size
    block = max(1, PAIR_BLOCK * (RHO_M - 1) // nr)
    best = np.empty(len(pairs))
    best_rho = np.empty(len(pairs))
    (i1, i2), vals, disc = tables.pairs, tables.supported, tables.disclosed
    for s in range(0, len(pairs), block):
        j, k = i1[pairs[s : s + block]], i2[pairs[s : s + block]]
        gain = _split_gain(
            tables.problem,
            np.repeat(vals[j], nr),
            np.repeat(vals[k], nr),
            np.tile(rhos, j.size),
            np.repeat(disc[j], nr),
            np.repeat(disc[k], nr),
        )
        nan = np.nonzero(np.isnan(gain))[0]
        if nan.size:
            x1, x2 = _pair_states(tables, pairs[s + nan[0] // nr])
            raise IllPosed(
                f"pooling gain of states ({x1!r}, {x2!r}) is NaN: "
                "forbidden cells block both pooling and disclosure, or V is NaN"
            )
        gain = gain.reshape(j.size, nr)
        kk = gain.argmax(axis=1)
        best[s : s + j.size] = gain[np.arange(j.size), kk]
        best_rho[s : s + j.size] = rhos[kk]
    return best, best_rho


def _coarse_sweep(tables: GridTables) -> tuple:
    """``_sweep`` of every pair on the grid k / ``RHO_M``, run ``once`` per tables."""
    return _sweep(tables, RHO_M, np.arange(tables.pairs[0].size))


def check_full_disclosure(problem) -> FullDisclosureReport:
    """Decide whether full disclosure is optimal: ``not_optimal`` when some
    pooling of two prior-supported states beats splitting them by more than
    tol = 1e-9 times the largest finite |V|.

    The action rows decide first (``_empty_row``): full disclosure is
    optimal in the grid LP exactly when the disclosed values p(x) are LP
    prices, so a row that admits no multiplier q with V + q u <= p names a
    pooling pair.  When that pair's gain, re-swept on the grid
    k / ``REFINE_M``, beats tol, it is the witness.  Otherwise, and on every
    problem the rows cannot judge, sweep all pairs and the rho grid
    k / ``RHO_M``, then run the same sweep on the finer grid k / ``REFINE_M``
    over the best pair if it beats tol, else over up to ``NEAR_MAX`` near-tie pairs
    (largest coarse gain above -64 tol), largest coarse gain first; the
    first refined pair that beats tol is reported.  When full disclosure is
    optimal and the receiver is linear, ``decided_by`` names the
    convexity-plus-exchange shortcut if it already decides optimality;
    every other report, the action rows' too, reads ``sweep``.  One DEBUG
    record on logger ``optrans.structure`` names the route: the deciding
    action and gain for the rows, the reason the rows did not decide for the
    sweep.  Raises ``IllPosed`` when fewer than two states carry prior mass,
    and from the sweep when V is NaN."""
    tables = GridTables.of(problem)
    problem, V = tables.problem, tables.V
    scale = max(1.0, float(np.max(np.abs(V[np.isfinite(V)]), initial=0.0)))
    tol = 1e-9 * scale
    report, why = None, _rows_blocked(problem)
    if why is None:
        supported = problem.prior > 0
        report, why = _empty_row(tables, V[:, supported], tables.u[:, supported], tol)
    logger.debug("full disclosure: %s", why)
    if report is not None:
        return report
    per_pair, _ = tables.once(_coarse_sweep)
    worst = float(np.max(per_pair))
    order = np.argsort(-per_pair, kind="stable")  # largest gain first, ties in pair order
    near = order[:1] if worst > tol else order[per_pair[order] > -tol * 64][:NEAR_MAX]
    fine, fine_rho = _sweep(tables, REFINE_M, near)
    above = np.nonzero(fine > tol)[0]
    if above.size:
        p = above[0]
        witness = (*_pair_states(tables, near[p]), float(fine_rho[p]))
        return FullDisclosureReport(label="not_optimal", witness=witness, margin=float(fine[p]))
    # strictness: the pooling deficit of neighboring states shrinks like the
    # squared separation, so the strict margin is judged per unit separation
    # squared rather than against a flat cut.  The separation is constant
    # within a pair and rounded division by it is monotone, so the per-pair
    # maximum gives the largest ratio.
    span = problem.states.hi - problem.states.lo
    (i1, i2), vals = tables.pairs, tables.supported
    sep2 = ((vals[i2] - vals[i1]) / max(span, 1e-300)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(sep2 > 0, per_pair / sep2, -np.inf)
    strict = bool(np.max(normalized) < -STRICT_TOL * scale)
    label = "optimal_unique" if strict else "optimal"
    decided = "convex_supermodular_shortcut" if _linear_receiver_shortcut(tables) else "sweep"
    return FullDisclosureReport(label=label, witness=None, margin=worst, decided_by=decided)


def _rows_blocked(problem: Problem) -> Optional[str]:
    """Why the action rows of ``check_full_disclosure`` cannot judge the
    problem, as its DEBUG note, or None when they can: they judge only a
    ``strict_foc`` problem under equality obedience (every row constrained)
    with no forbidden cells."""
    if problem.tie_break != "strict_foc":
        return "sweep (not strict_foc)"
    if problem.obedience != "equality":
        return "sweep (inequality obedience)"
    if problem.forbidden is not None:
        return "sweep (forbidden cells)"
    return None


def _empty_row(tables: GridTables, V: np.ndarray, U: np.ndarray, tol: float) -> tuple:
    """The row route of ``check_full_disclosure`` on a problem that
    ``_rows_blocked`` passes: (report, note), the report None when the rows
    do not decide.  ``V`` and ``U`` are V and u on the actions x the
    ``tables.supported`` states.

    Row y admits q with V(y, x) + q u(y, x) <= p(x) = ``tables.disclosed`` on
    every state exactly when lo_y <= hi_y (``q_intervals``).  An empty row
    names x1 at lo_y (u1 < 0) and x2 at hi_y (u2 > 0): pooling them at
    rho = u2 / (u2 - u1), which keeps y obeyed, gains
    |u1| u2 / (u2 - u1) (lo_y - hi_y) over splitting.  The row with the
    largest gain above ``tol`` decides when its pair, re-swept on the grid
    k / ``REFINE_M``, still gains more than ``tol``.  Only finite V, u and
    p are judged."""
    if not (np.isfinite(V).all() and np.isfinite(U).all() and np.isfinite(tables.disclosed).all()):
        return None, "sweep (non-finite table)"
    below, above = U < 0, U > 0
    lo, i1, hi, i2 = q_intervals(tables.disclosed, V, U, below, above)
    rows = np.arange(U.shape[0])
    u1, u2 = U[rows, i1], U[rows, i2]
    with np.errstate(divide="ignore", invalid="ignore"):  # rows without a u < 0 or a u > 0 cell
        gain = np.where(below.any(axis=1) & above.any(axis=1), np.abs(u1) * u2 / (u2 - u1) * (lo - hi), -np.inf)
    k = int(np.argmax(gain))
    if not gain[k] > tol:
        return None, f"sweep (no empty row: largest row gain {gain[k]:.3g})"
    a, b = sorted((int(i1[k]), int(i2[k])))
    pair = a * tables.supported.size - a * (a + 1) // 2 + b - a - 1  # its index in np.triu_indices order
    fine, fine_rho = _sweep(tables, REFINE_M, np.array([pair]))
    y = float(tables.problem.actions.points[k])
    if not fine[0] > tol:
        return None, f"sweep (refined gain {fine[0]:.3g} <= tol at y={y!r})"
    witness = (*_pair_states(tables, pair), float(fine_rho[0]))
    return FullDisclosureReport(label="not_optimal", witness=witness, margin=float(fine[0])), (
        f"rows, empty at y={y!r} with gain {gain[k]:.3g}"
    )


def _linear_receiver_shortcut(tables: GridTables) -> bool:
    """Convex in the action plus the two-state exchange inequality; only
    meaningful when u(y, x) = x - y on the grid."""
    V, U, (Y, X) = tables.V, tables.u, tables.grid
    ys, xs = tables.problem.actions.points, tables.problem.states.points
    if np.max(np.abs(U - (X - Y))) > 1e-10 * max(1.0, float(np.max(np.abs(U)))) or not np.all(np.isfinite(V)):
        return False
    if ys.size >= 3 and np.min(np.diff(V, n=2, axis=0)) < -1e-10:
        return False
    vals = xs[(xs >= ys[0]) & (xs <= ys[-1])]
    if vals.size < 2:
        return True
    i1, i2 = np.triu_indices(vals.size, k=1)
    f = tables.problem.V
    lhs, rhs = f(vals[i1], vals[i2]) + f(vals[i2], vals[i1]), f(vals[i1], vals[i1]) + f(vals[i2], vals[i2])
    return bool(np.max(lhs - rhs) <= 1e-10)


@dataclass(frozen=True)
class NadConditionReport:
    label: str  # 'holds' | 'fails'
    witness: Optional[tuple] = None  # failing action y, or (x1, x2) pair
    route: str = "local"  # 'local' | 'sweep'
    margin: float = 0.0


def check_nad_condition(problem) -> NadConditionReport:
    """Pooling-everywhere condition.

    On a smooth problem whose ``check_sdpd_sufficient`` label is
    ``dipped_strict`` (tested in that order, so a non-smooth problem never
    runs it) the local curvature criterion at (y, chi(y)) decides:
    V_yy <= V_y u_yy / u_y + 2 (V_yx u_y - V_y u_yx)/u_x at every action
    with an interior pivot state.  Otherwise fall back to the direct sweep:
    every prior-supported state pair must admit some pooling weight on the
    grid k / ``RHO_M`` that strictly beats splitting.  The sweep runs
    ``PAIR_BLOCK`` pairs at a time, so no (pair, rho) table is built.  The
    local route finds every pivot chi(y) by one ``chi_array`` call and
    evaluates the criterion at all of them at once.  Raises ``IllPosed``
    when fewer than two states carry prior mass, where
    ``check_sdpd_sufficient`` does, or on the local route at the first
    action where ``chi`` raises it, where u_y or u_x vanishes at
    (y, chi(y)), or where the criterion is not finite.
    """
    tables = GridTables.of(problem)
    problem = tables.problem
    tables.supported  # IllPosed when fewer than two states carry prior mass
    if problem.smooth and check_sdpd_sufficient(tables).label == "dipped_strict":
        ys = problem.actions.points
        pivots, errors = chi_array(problem, ys)
        at = np.flatnonzero(~np.isnan(pivots))
        y, cx = ys[at], pivots[at]
        Vy, Vyy, Vyx, uy, uyy, uyx, ux = (
            np.asarray(f(y, cx), dtype=float)
            for f in (problem.V_y, problem.V_yy, problem.V_yx, problem.u_y, problem.u_yy, problem.u_yx, problem.u_x)
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            crit = Vyy - (Vy * uyy / uy + 2.0 * (Vyx * uy - Vy * uyx) / ux)
        zero = (uy == 0.0) | (ux == 0.0)
        fails = np.zeros(ys.size, dtype=bool)  # the scan raises at its first failing action
        fails[list(errors)] = True
        fails[at[zero | ~np.isfinite(crit)]] = True
        if fails.any():
            i = int(np.argmax(fails))
            if i in errors:
                raise errors[i]
            j = int(np.searchsorted(at, i))
            where = f"at action y = {float(y[j])!r}, chi(y) = {float(cx[j])!r}"
            if zero[j]:
                raise IllPosed(
                    f"NAD condition: u_y = {float(uy[j])!r} and u_x = {float(ux[j])!r} {where}; "
                    "the local criterion divides by both"
                )
            raise IllPosed(f"NAD condition: the local criterion is {float(crit[j])!r} {where}")
        j = int(np.argmax(crit)) if at.size else None  # the first largest, as a strict > scan keeps
        worst = -np.inf if j is None else float(crit[j])
        worst_y = None if j is None else float(y[j])
        scale = max(1.0, abs(worst))
        if worst > 1e-7 * scale:
            return NadConditionReport("fails", witness=worst_y, route="local", margin=worst)
        return NadConditionReport("holds", route="local", margin=worst)

    per_pair, _ = tables.once(_coarse_sweep)
    k = int(np.argmin(per_pair))
    if per_pair[k] <= STRICT_TOL:
        return NadConditionReport("fails", witness=_pair_states(tables, k), route="sweep", margin=float(per_pair[k]))
    return NadConditionReport("holds", route="sweep", margin=float(per_pair.min()))


# ---------------------------------------------------------------------------
# pooled-pair extraction from a strictly single-dipped contact set


@dataclass(frozen=True)
class ChiPair:
    actions: np.ndarray
    chi1: np.ndarray
    chi2: np.ndarray


def extract_chi(problem: Problem, contact: ContactSet, *, snap_x: Optional[float] = None) -> ChiPair:
    """Per contact action with a contact state, chi1 and chi2, the first and
    last state of its row of the support matrix (``_support_matrix``), after
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
        snap_x = SNAP_CELLS * problem.states.max_spacing
    g, pts, S, _ = _support_matrix(problem, contact)
    full = S.any(axis=1)
    acts_a, S = g[full], S[full]
    c1_a = pts[S.argmax(axis=1)]
    c2_a = pts[pts.size - 1 - S[:, ::-1].argmax(axis=1)]
    if np.any(np.diff(c2_a) < -snap_x):
        k = int(np.argmin(np.diff(c2_a)))
        raise NotStrictlyDipped(
            f"upper pair state decreases at action {float(acts_a[k + 1])!r}", witness=None
        )
    # row j, column i < j: chi1 at action j lies inside the earlier pair i
    inside = (c1_a[:, None] > c1_a + snap_x) & (c1_a[:, None] < c2_a - snap_x) & np.tri(acts_a.size, k=-1, dtype=bool)
    late = np.flatnonzero(inside.any(axis=1))
    if late.size:
        raise NotStrictlyDipped(
            f"lower pair state at action {float(acts_a[late[0]])!r} is interior to an earlier pair",
            witness=None,
        )
    return ChiPair(actions=acts_a, chi1=c1_a, chi2=c2_a)
