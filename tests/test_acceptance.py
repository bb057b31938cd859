"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities at the stated tolerance."""

import time

import numpy as np
import pytest

from optrans import Posterior, Problem, Signal, gamma, signal_to_outcome, uniform
from optrans.lp import build_lp, contact_set, solve_dual, solve_primal
from optrans.model import full_disclosure_value
from optrans.nad import solve_nad
from optrans.presets import preset, preset_ids
from optrans.structure import (
    check_full_disclosure,
    classify_monotonicity,
    extract_chi,
    farkas_alternative,
    pairwise_split,
    twist_determinant,
)

E = float(np.e)


def report(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def linear_receiver_instance(g, gx, n=61):
    return Problem(
        states=uniform(0.0, 1.0, n),
        actions=uniform(0.0, 1.0, n, "action"),
        prior=np.full(n, 1.0 / n),
        V=lambda y, x: y * g(x),
        u=lambda y, x: x - y,
        V_y=lambda y, x: g(x) + 0.0 * y,
        V_yx=lambda y, x: gx(x) + 0.0 * y,
        u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        u_x=lambda y, x: 1.0 + 0.0 * (x + y),
        u_yx=lambda y, x: 0.0 * (x + y),
    )


def test_criterion_1_strong_duality_all_presets(solved_cache):
    worst_gap = 0.0
    worst_time = 0.0
    for pid in preset_ids():
        t0 = time.time()
        bundle = solved_cache(pid, grid_n=101)
        dt = time.time() - t0
        gap = abs(bundle["prices"].dual_objective - bundle["objective"])
        bound = 1e-8 * (1.0 + abs(bundle["objective"]))
        assert gap <= bound, (pid, gap)
        assert dt <= 30.0, (pid, dt)
        worst_gap = max(worst_gap, gap / bound)
        worst_time = max(worst_time, dt)
    report(
        1,
        True,
        f"all {len(preset_ids())} presets at grid 101: worst relative gap "
        f"{worst_gap:.2e} of bound, slowest {worst_time:.1f}s <= 30s",
    )


@pytest.fixture(scope="module")
def c1_201(solved_cache):
    return solved_cache("example_c1", grid_n=201)


def test_criterion_2_log_symmetric_oracle(c1_201):
    pb, meta, out, pr = (
        c1_201["problem"],
        c1_201["meta"],
        c1_201["outcome"],
        c1_201["prices"],
    )
    chi1, chi2 = meta.oracle["chi1"], meta.oracle["chi2"]

    def pairing_action(x):
        return 0.5 * (x + 1.0 / x)

    def local_h(pts, v):
        i = min(max(int(np.searchsorted(pts, v)), 1), pts.size - 1)
        return float(pts[i] - pts[i - 1])

    rows = out.support_rows()
    branch_ok = True
    for iy in rows:
        y = float(pb.actions.points[iy])
        sup = np.nonzero(out.mass[iy] > 1e-9)[0]
        xs = pb.states.points[sup]
        hy = 2.0 * local_h(pb.actions.points, y)
        for x in xs:
            hx = 2.0 * local_h(pb.states.points, x)
            # a support state matches a pair branch within two grid cells in
            # either coordinate (the pair curves are steep near the meeting
            # point, so the action-distance metric applies there)
            near = (
                min(abs(x - chi1(y)), abs(x - chi2(y))) <= hx
                or abs(pairing_action(x) - y) <= hy
            )
            branch_ok = branch_ok and near
        lo, hi = float(xs.min()), float(xs.max())
        branch_ok = branch_ok and (
            abs(lo - chi1(y)) <= 2.0 * local_h(pb.states.points, lo)
            or abs(pairing_action(lo) - y) <= hy
        )
        branch_ok = branch_ok and (
            abs(hi - chi2(y)) <= 2.0 * local_h(pb.states.points, hi)
            or abs(pairing_action(hi) - y) <= hy
        )

    q_err = float(np.max(np.abs(pr.q[rows] - pb.actions.points[rows])))

    nad = solve_nad(pb, meta.prior_density, prior_cdf=meta.prior_cdf)
    nodes = nad.nodes
    span = pb.states.span
    sel = (nodes["chi2"] - nodes["chi1"]) >= 1e-3 * span
    ys = nodes["y"][sel]
    e1 = float(np.max(np.abs(nodes["chi1"][sel] - chi1(ys))))
    e2 = float(np.max(np.abs(nodes["chi2"][sel] - chi2(ys))))
    eq = float(np.max(np.abs(nodes["q"][sel] - ys)))
    e_lo = abs(nad.y_low - 1.0)
    e_hi = abs(nad.y_high - 0.5 * (E + 1.0 / E))

    ok = (
        branch_ok
        and q_err <= 1e-2
        and max(e1, e2, eq) <= 1e-4
        and max(e_lo, e_hi) <= 1e-5
    )
    report(
        2,
        ok,
        f"grid 201: pair branches within 2 cells ({branch_ok}), q err {q_err:.2e} <= 1e-2, "
        f"pairing solver chi/q err {max(e1, e2, eq):.2e} <= 1e-4, "
        f"end actions err {max(e_lo, e_hi):.2e} <= 1e-5",
    )


def test_criterion_3_quantile_action_distribution(solved_cache):
    bundle = solved_cache("example_c2", grid_n=201)
    pb, out = bundle["problem"], bundle["outcome"]
    row_mass = out.row_masses()
    tail = np.cumsum(row_mass[::-1])[::-1]
    ys = pb.actions.points
    h = pb.actions.max_spacing
    sel = ys >= 0.5
    err = float(np.max(np.abs(tail[sel] - 2.0 * (1.0 - ys[sel]))))
    y_low = float(ys[np.nonzero(row_mass > 1e-9)[0][0]])
    ok = err <= 2.0 * h and abs(y_low - 0.5) <= h + 1e-12
    report(
        3,
        ok,
        f"grid 201: sup |alpha([y,1]) - 2(1-y)| = {err:.4f} <= {2*h:.4f}, "
        f"bottom action {y_low} within one cell of 0.5",
    )


def test_criterion_4_certificate_slacks():
    pb, meta = preset("example_c3", grid_n=101)
    p, q = meta.oracle["p"], meta.oracle["q"]

    def slack(y, x):
        return p(x) - np.tanh(2.0 * y) - q(y) * np.tanh(x - y)

    ys = np.linspace(0.0, 1.0, 51)
    eq_res = max(
        float(np.max(np.abs(slack(ys, -ys)))), float(np.max(np.abs(slack(ys, 3.0 * ys))))
    )

    Y, X = pb.grids_product()
    S = slack(Y, X)
    dist = np.full(Y.shape, np.inf)
    seg = (Y >= 0.0) & (Y <= 1.0)
    dist = np.where(seg, np.minimum(np.abs(X + Y), np.abs(X - 3.0 * Y)), dist)
    dist = np.where(Y <= 0.0, np.minimum(dist, np.abs(X - Y)), dist)
    # non-contact cells: at least 0.1 away from every pairing curve, so the
    # quadratic tangency of the slack surface has room to lift off
    mask = dist > 0.1
    cand = np.argwhere(mask)
    rng = np.random.default_rng(4)
    pick = cand[rng.integers(0, cand.shape[0], size=10_000)]
    vals = S[pick[:, 0], pick[:, 1]]
    ok = eq_res <= 1e-9 and float(np.min(vals)) >= 1e-6
    report(
        4,
        ok,
        f"contact slack {eq_res:.2e} <= 1e-9 on 51 sampled actions; "
        f"min slack over 1e4 non-contact cells {float(np.min(vals)):.2e} >= 1e-6",
    )


def test_criterion_5_contest_thresholds(solved_cache):
    # full-disclosure regime
    hi = solved_cache("contest", grid_n=101, xmin=1.0, xmax=2.0)
    pb = hi["problem"]
    mass = hi["outcome"].mass.copy()
    for ix, x in enumerate(pb.states.points):
        mass[pb.actions.nearest(x / (1.0 + x * x)), ix] = 0.0
    offdiag = float(mass.sum())

    # strictly dipped regime plus pair extraction
    lo = solved_cache("contest", grid_n=101, xmin=0.1, xmax=0.5)
    rep_lo = classify_monotonicity(lo["problem"], lo["outcome"])
    import optrans.lp as lpmod

    cs = contact_set(lo["problem"], lo["prices"], lp=lo["lp"])
    sup = set(int(i) for i in lo["outcome"].support_rows())
    cs = lpmod.ContactSet(
        pairs=tuple(pr for pr in cs.pairs if pr[0] in sup),
        actions=np.array(sorted(sup)),
        posteriors=cs.posteriors,
        tol=cs.tol,
        slack=cs.slack,
    )
    chi_ok = True
    try:
        pair = extract_chi(lo["problem"], cs)
        chi_ok = bool(
            np.all(np.diff(pair.chi2) >= -1e-9)
            and np.all(np.diff(pair.chi1) <= 1e-9)
        )
    except Exception:
        chi_ok = False

    # strictly peaked regime
    mid = solved_cache("contest", grid_n=101, xmin=0.6, xmax=0.95)
    rep_mid = classify_monotonicity(mid["problem"], mid["outcome"])

    # twist determinant against the closed form on random triples
    pbt, meta = preset("contest", grid_n=11, xmin=0.1, xmax=0.9)
    closed = meta.oracle["twist_determinant"]
    rng = np.random.default_rng(12)
    twist_err = 0.0
    for _ in range(1000):
        x1, x2, x3 = np.sort(rng.uniform(0.1, 0.9, size=3))
        y = rng.uniform(0.1, 0.45)
        twist_err = max(twist_err, abs(twist_determinant(pbt, y, x1, x2, x3) - closed(y, x1, x2, x3)))

    ok = (
        offdiag <= 1e-9
        and rep_lo.label == "strictly_single_dipped"
        and chi_ok
        and rep_mid.label == "strictly_single_peaked"
        and twist_err <= 1e-10
    )
    report(
        5,
        ok,
        f"high range off-diagonal {offdiag:.1e} <= 1e-9; low range {rep_lo.label} with "
        f"monotone pair bounds ({chi_ok}); middle range {rep_mid.label}; twist closed-form "
        f"max err {twist_err:.1e} <= 1e-10 on 1000 triples",
    )


def test_criterion_6_ratio_conditions_vs_classification():
    rng = np.random.default_rng(20260811)
    labels_ok = True
    for _ in range(20):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(0.2, 0.8))
        pb = linear_receiver_instance(
            lambda x, a=a, b=b, c=c: a + b * (x - c) ** 2,
            lambda x, b=b, c=c: 2.0 * b * (x - c),
            n=41,
        )
        lp = build_lp(pb)
        out, _ = solve_primal(lp)
        if classify_monotonicity(pb, out).label != "strictly_single_dipped":
            labels_ok = False
        amax = a + b * max(c**2, (1 - c) ** 2) + 0.5
        pb2 = linear_receiver_instance(
            lambda x, a=amax, b=b, c=c: a - b * (x - c) ** 2,
            lambda x, b=b, c=c: -2.0 * b * (x - c),
            n=41,
        )
        lp2 = build_lp(pb2)
        out2, _ = solve_primal(lp2)
        if classify_monotonicity(pb2, out2).label != "strictly_single_peaked":
            labels_ok = False
    report(
        6,
        labels_ok,
        "20 strictly-convex-gain instances classify strictly single-dipped and "
        "20 strictly-concave-gain instances strictly single-peaked",
    )


def test_criterion_7_full_disclosure_cross_check(solved_cache):
    mismatches = []
    for pid in preset_ids():
        bundle = solved_cache(pid, grid_n=101)
        pb = bundle["problem"]
        fd_val = full_disclosure_value(pb)
        label = check_full_disclosure(pb).label
        says = label in ("optimal", "optimal_unique")
        agrees_lp = abs(bundle["objective"] - fd_val) <= 5e-4 * (1.0 + abs(fd_val))
        if says != agrees_lp:
            mismatches.append(pid)
    rng = np.random.default_rng(7)
    for k in range(20):
        # interior curvature keeps the pooling gain well off the agreement
        # tolerance when disclosure is suboptimal
        b = float(rng.uniform(0.8, 3.0))
        c = float(rng.uniform(0.35, 0.65))
        convex_in_action = bool(rng.integers(0, 2))
        if convex_in_action:
            # gain increasing and convex in the action: splitting wins
            pb = Problem(
                states=uniform(0.0, 1.0, 61),
                actions=uniform(0.0, 1.0, 61, "action"),
                prior=np.full(61, 1.0 / 61),
                V=lambda y, x, b=b: (1.0 + x) * (y + b * y**2),
                u=lambda y, x: x - y,
                V_y=lambda y, x, b=b: (1.0 + x) * (1.0 + 2.0 * b * y),
                V_yx=lambda y, x, b=b: 1.0 + 2.0 * b * y,
                u_y=lambda y, x: -1.0 + 0.0 * (x + y),
                u_x=lambda y, x: 1.0 + 0.0 * (x + y),
                u_yx=lambda y, x: 0.0 * (x + y),
            )
        else:
            pb = linear_receiver_instance(
                lambda x, b=b, c=c: 1.0 + b * (x - c) ** 2,
                lambda x, b=b, c=c: 2.0 * b * (x - c),
                n=61,
            )
        lp = build_lp(pb)
        _, obj = solve_primal(lp)
        fd_val = full_disclosure_value(pb)
        label = check_full_disclosure(pb).label
        says = label in ("optimal", "optimal_unique")
        agrees_lp = abs(obj - fd_val) <= 5e-4 * (1.0 + abs(fd_val))
        if says != agrees_lp:
            mismatches.append(f"random-{k}")
    report(
        7,
        not mismatches,
        f"disclosure verdict agrees with the solved optimum on all presets and 20 "
        f"random instances (mismatches: {mismatches or 'none'})",
    )


def test_criterion_8_alternative_exclusivity():
    rng = np.random.default_rng(2718281)
    worst_alpha = 0.0
    worst_beta = -np.inf
    for _ in range(1000):
        R = rng.normal(size=(3, 3))
        cert = farkas_alternative(R)
        if cert.verdict == "alpha_exists":
            assert cert.beta is None
            assert np.min(cert.alpha) > 0
            worst_alpha = max(worst_alpha, float(np.max(cert.alpha @ R)))
            assert np.max(cert.alpha @ R) <= 1e-12
        else:
            assert cert.alpha is None
            rb = R @ cert.beta
            assert np.min(cert.beta) >= -1e-15
            assert np.min(rb) >= -1e-12
            assert np.max(rb) >= 1e-8
            worst_beta = max(worst_beta, -float(np.min(rb)))
    report(
        8,
        True,
        f"1000 random matrices: one alternative each; worst alpha residual "
        f"{worst_alpha:.1e} <= 1e-12, worst beta negativity {worst_beta:.1e} <= 1e-12",
    )


def test_criterion_9_pivot_policy_invariance(solved_cache):
    d = solved_cache("example_c1", grid_n=61, policy="dantzig")
    b = solved_cache("example_c1", grid_n=61, policy="bland")
    mass_diff = float(np.max(np.abs(d["outcome"].mass - b["outcome"].mass)))
    sup = d["problem"].prior > 0
    p_diff = float(np.max(np.abs(d["prices"].p[sup] - b["prices"].p[sup])))
    ok = mass_diff <= 1e-8 and p_diff <= 1e-6
    report(
        9,
        ok,
        f"grid 61: pivot policies differ by {mass_diff:.1e} in mass (<= 1e-8) and "
        f"{p_diff:.1e} in state prices (<= 1e-6)",
    )


def test_criterion_10_pairwise_splitting():
    rng = np.random.default_rng(1001)
    worst_rec = 0.0
    worst_foc = 0.0
    worst_outcome = 0.0
    for trial in range(100):
        n = 31
        kind = trial % 2
        scale = float(rng.uniform(0.5, 2.0))
        if kind == 0:
            u = lambda y, x, s=scale: s * (x - y)
        else:
            u = lambda y, x, s=scale: np.tanh(s * (x - y))
        k = int(rng.integers(3, 7))
        sup = tuple(sorted(rng.choice(n, size=k, replace=False)))
        w = rng.uniform(0.05, 1.0, size=k)
        w = w / w.sum()
        mu = Posterior(sup, w)
        prior = mu.dense(n)
        pb = Problem(
            states=uniform(0.0, 1.0, n),
            actions=uniform(0.0, 1.0, 201, "action"),
            prior=prior,
            V=lambda y, x: y + 0.0 * x,
            u=u,
        )
        y = gamma(pb, mu)
        pieces = pairwise_split(pb, mu)
        dense = sum(wk * p.dense(n) for p, wk in pieces)
        worst_rec = max(worst_rec, float(np.max(np.abs(dense - mu.dense(n)))))
        for p, _ in pieces:
            assert len(p.support) <= 2
            xs = p.states(pb.states)
            foc = abs(float(p.weights @ pb.u(np.full(xs.size, y), xs)))
            worst_foc = max(worst_foc, foc)
        out_direct = signal_to_outcome(pb, Signal(((mu, 1.0),)))
        out_split = signal_to_outcome(pb, Signal(tuple(pieces)))
        worst_outcome = max(
            worst_outcome, float(np.max(np.abs(out_direct.mass - out_split.mass)))
        )
    ok = worst_rec <= 1e-12 and worst_foc <= 1e-10 and worst_outcome <= 1e-12
    report(
        10,
        ok,
        f"100 random posteriors: recombination err {worst_rec:.1e} <= 1e-12, piece "
        f"stationarity {worst_foc:.1e} <= 1e-10, outcome shift {worst_outcome:.1e} <= 1e-12",
    )
