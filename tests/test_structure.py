import json
import logging
import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optrans import Posterior, Problem, cli, gamma, uniform
from optrans.grids import Grid
from optrans.errors import IllPosed, NoRoot, NotStrictlyDipped, OptransError
from optrans.lp import ContactSet, build_lp, contact_set, solve_dual, solve_primal
from optrans.model import MASS_TOL, GridTables, Outcome, Signal, check_assumptions, chi, chi_array, gamma_binary
from optrans.presets import preset, preset_ids
from optrans import structure
from optrans.structure import (
    REFINE_M,
    RHO_M,
    STRICT_TOL,
    FullDisclosureReport,
    MonotonicityReport,
    NadConditionReport,
    SdpdReport,
    TripleWitness,
    TwistReport,
    check_full_disclosure,
    check_nad_condition,
    check_sdpd_sufficient,
    check_twist,
    classify_monotonicity,
    extract_chi,
    farkas_alternative,
    farkas_certificate,
    pairwise_split,
    repair_matrix,
    twist_determinant,
)
from test_model import nan_sender, table_problem
from test_presets import VARIANTS

E = float(np.e)


def linear_problem(n=11, V=None, **kw):
    V = V or (lambda y, x: y + 0.0 * x)
    return Problem(
        states=uniform(0.0, 1.0, n),
        actions=uniform(0.0, 1.0, n, "action"),
        prior=np.full(n, 1.0 / n),
        V=V,
        u=lambda y, x: x - y,
        u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        u_x=lambda y, x: 1.0 + 0.0 * (x + y),
        u_yx=lambda y, x: 0.0 * (x + y),
        **kw,
    )


class TestTwistDeterminant:
    def test_linear_case_vanishes(self):
        pb, _ = preset("linear", grid_n=11, V_shape="linear")
        for y in (0.2, 0.5, 0.8):
            assert twist_determinant(pb, y, 0.1, 0.4, 0.9) == pytest.approx(0.0, abs=1e-14)

    def test_contest_closed_form_value(self):
        pb, _ = preset("contest", grid_n=11, xmin=0.1, xmax=0.9)
        got = twist_determinant(pb, 0.3, 0.2, 0.3, 0.4)
        want = (0.1 * 0.2 * 0.1) * (1 - 0.12 - 0.08 - 0.06) / 0.024
        assert got == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.0616666, abs=1e-6)

    def test_repeated_column_vanishes(self):
        pb, _ = preset("contest", grid_n=11, xmin=0.1, xmax=0.9)
        assert twist_determinant(pb, 0.3, 0.2, 0.2, 0.4) == 0.0

    def test_closed_form_on_random_triples(self):
        pb, meta = preset("contest", grid_n=11, xmin=0.1, xmax=0.9)
        closed = meta.oracle["twist_determinant"]
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = np.sort(rng.uniform(0.1, 0.9, size=3))
            if x[0] == x[1] or x[1] == x[2]:
                continue
            y = rng.uniform(0.1, 0.45)
            got = twist_determinant(pb, y, *x)
            assert got == pytest.approx(closed(y, *x), abs=1e-10)


class TestCheckTwist:
    def test_contest_sign_regimes(self):
        pb, _ = preset("contest", grid_n=21, xmin=0.1, xmax=0.5)
        assert check_twist(pb).label == "holds_positive"
        pb2, _ = preset("contest", grid_n=21, xmin=0.62, xmax=0.95)
        assert check_twist(pb2).label == "holds_negative"

    def test_linear_fails_with_witness(self):
        pb, _ = preset("linear", grid_n=11, V_shape="linear")
        rep = check_twist(pb)
        assert rep.label == "fails"
        assert rep.witness is not None
        y, x1, x2, x3 = rep.witness
        assert x1 < x2 < x3

    @staticmethod
    def nan_problem(nan_at, actions=(0.05, 0.95)):
        """u = x - y, V = y x^2 on 11 states and 7 actions; V_y is NaN at
        (y, x) where ``nan_at(y, x)`` holds."""

        def V_y(y, x):
            y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
            return np.where(nan_at(y, x), np.nan, x * x)

        return Problem(
            states=uniform(0.0, 1.0, 11),
            actions=uniform(*actions, 7, "action"),
            prior=np.full(11, 1.0 / 11),
            V=lambda y, x: y * x**2,
            V_y=V_y,
            u=lambda y, x: x - y,
        )

    def test_non_finite_rows_raise(self):
        # the NaN used to pass for a sign change: 'fails' with witness
        # (0.05, 0.0, 0.1, 0.5)
        pb = self.nan_problem(lambda y, x: x == 0.5)
        with pytest.raises(IllPosed, match=r"not finite at \(y, x\) = \(0\.05, 0\.5\)"):
            check_twist(pb)

    def test_non_finite_rows_raise_at_a_later_action(self):
        pb = self.nan_problem(lambda y, x: (y > 0.9) & (x == 0.5))
        with pytest.raises(IllPosed, match=r"not finite at \(y, x\) = \(0\.95, 0\.5\)"):
            check_twist(pb)

    @staticmethod
    def nan_receiver_problem(V_y):
        """u = x - y on 11 states and 7 actions in [0.05, 0.95], NaN at the
        top state for actions above 0.6, where chi raises IllPosed."""
        return Problem(
            states=uniform(0.0, 1.0, 11),
            actions=uniform(0.05, 0.95, 7, "action"),
            prior=np.full(11, 1.0 / 11),
            V=lambda y, x: y * x,
            V_y=V_y,
            u=lambda y, x: np.where((np.asarray(y) > 0.6) & (np.asarray(x) == 1.0), np.nan, x - y),
            u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        )

    def test_chi_ill_posed_raised_where_the_scan_reaches_it(self):
        # V_y = x^2 holds the twist, so the scan reaches the action 0.65
        pb = self.nan_receiver_problem(lambda y, x: x * x + 0.0 * y)
        with pytest.raises(IllPosed, match="NaN at an end of its bracket"):
            check_twist(pb)
        # V_y = x makes the first action's triples zero, so the scan stops there
        rep = check_twist(self.nan_receiver_problem(lambda y, x: x + 0.0 * y))
        assert rep.label == "fails" and rep.witness[0] == 0.05

    def test_non_finite_rows_of_skipped_action_pass(self):
        # the action 0.0 has no state below its pivot, so the scan skips it
        # and never reads its NaN row
        clean = check_twist(self.nan_problem(lambda y, x: np.zeros(x.shape, bool), (0.0, 1.0)))
        assert check_twist(self.nan_problem(lambda y, x: y == 0.0, (0.0, 1.0))) == clean

    def test_debug_record_certified(self, caplog):
        pb, _ = preset("example_c1", grid_n=41)
        visited = structure._twist_actions(GridTables(pb))[0].size
        with caplog.at_level(logging.DEBUG, logger="optrans.structure"):
            assert check_twist(pb).label == "holds_positive"
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.structure"]
        m = re.fullmatch(
            r"twist: (\d+) actions by the chain \(least margin \S+\), "
            r"0 by the block certificate \(least margin inf\), 0 swept",
            line,
        )
        assert m and int(m[1]) == visited == 39, line

    def test_debug_record_counts_each_tier(self, caplog):
        # example_c3's actions split between the chain and the block
        # certificate: triples on one side of chi(y) are nearly flat there
        pb, _ = preset("example_c3", grid_n=41)
        visited = structure._twist_actions(GridTables(pb))[0].size
        with caplog.at_level(logging.DEBUG, logger="optrans.structure"):
            assert check_twist(pb).label == "holds_positive"
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.structure"]
        m = re.fullmatch(
            r"twist: (\d+) actions by the chain \(least margin (\S+)\), "
            r"(\d+) by the block certificate \(least margin (\S+)\), 0 swept",
            line,
        )
        assert m and int(m[1]) > 0 and int(m[3]) > 0 and int(m[1]) + int(m[3]) == visited, line
        assert float(m[2]) > 1.0 and float(m[4]) > 1.0, line

    def test_debug_record_swept(self, caplog):
        # the scan's first triple on linear is zero, so its first action has
        # no sign to certify and the sweep reports that triple
        pb, _ = preset("linear", grid_n=11, V_shape="linear")
        with caplog.at_level(logging.DEBUG, logger="optrans.structure"):
            rep = check_twist(pb)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.structure"]
        y = rep.witness[0]
        assert line == (
            "twist: 0 actions by the chain (least margin inf), 0 by the block certificate (least margin inf), "
            f"1 swept, first at y={y!r} (sign)"
        )

    @pytest.mark.parametrize("grid_n", [41, 101, 141, 201])
    def test_affiliated_grid_independent(self, grid_n):
        # u vanishes at x0 = 1/sqrt(2) for every action; the triples of
        # neighbours beside it shrink like the cube of the state spacing, so a
        # zero test against any scale fixed across the grid would fail them
        # once n is large enough
        pb, _ = preset("affiliated", grid_n=grid_n)
        assert check_twist(pb) == TwistReport("holds_negative")


def brute_force_twist(problem, zero_tol=1e-12):
    """check_twist's verdict from scalar twist_determinant on every triple:
    at each action the columns (V_y, u, u_y) are scaled by powers of two
    2^-e so that each column's largest magnitude lies in [0.5, 1), a
    triple's determinant counts as zero within zero_tol 2^(e0+e1+e2) times
    the product of its three scaled row norms, the first valid triple fixes
    the sign, and the first triple off that sign is the witness."""
    xs = problem.states.points
    sign_seen = 0
    for y in problem.actions.points:
        try:
            pivot = chi(problem, float(y))
        except NoRoot:
            continue
        yv = np.full(xs.size, float(y))
        cols = [np.asarray(f(yv, xs), dtype=float) for f in (problem.V_y, problem.u, problem.u_y)]
        exps = [int(np.frexp(np.max(np.abs(col)))[1]) for col in cols]
        scaled = [np.ldexp(col, -e) for col, e in zip(cols, exps)]
        norm = [math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) for r0, r1, r2 in zip(*scaled)]
        for i in np.nonzero(xs < pivot)[0]:
            for j in range(i + 1, xs.size):
                for k in range(j + 1, xs.size):
                    if not xs[k] > pivot:
                        continue
                    d = twist_determinant(problem, y, xs[i], xs[j], xs[k])
                    tol = math.ldexp(zero_tol * norm[i] * norm[j] * norm[k], sum(exps))
                    sign = 1 if d > tol else -1 if d < -tol else 0
                    if sign_seen == 0:
                        sign_seen = sign
                    if sign == 0 or sign != sign_seen:
                        return TwistReport("fails", (float(y), float(xs[i]), float(xs[j]), float(xs[k])))
    if sign_seen == 0:
        return TwistReport("fails", None)
    return TwistReport("holds_positive" if sign_seen > 0 else "holds_negative")


@st.composite
def smooth_problems(draw):
    """Small grids with random smooth V and u; u = (p(x) - y) r(y) has one
    root in x per action where p crosses y.  Where p is flat (slope 0) the
    states there share one (V_y, u, u_y) column, so triples with two of them
    have exact zero determinants; a slope of 1e-3 makes those determinants
    merely small against their own scale.  A large magnitude of V_y, which
    the per-column power-of-two scaling takes out exactly, checks that the
    scaled sweep agrees with determinants taken on the unscaled rows."""
    nx = draw(st.integers(3, 9))
    ny = draw(st.integers(2, 6))
    coef = st.floats(-1.0, 1.0)
    e1, w1, f1 = draw(coef), draw(st.floats(0.0, 6.0)), draw(coef)
    e1 *= 0.9 / max(w1, 1.0)  # keeps p strictly increasing
    if draw(st.booleans()):
        e1 = 0.0  # p(x) = x: some actions land exactly on a state
    flat_at = draw(st.sampled_from([None, 0.0, 0.3, 0.55]))
    flat_width = draw(st.sampled_from([0.2, 0.4]))
    flat_slope = draw(st.sampled_from([0.0, 1e-3]))
    e2, w2 = 0.5 * draw(coef), draw(st.floats(0.0, 5.0))
    A, B, w3, w4 = (draw(coef) for _ in range(4))
    C = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.0))
    # a quadratic in p gives Vandermonde dets of the sign of its leading
    # coefficient C + C1 y, which may change between actions; the sine term,
    # at a drawn size, flips signs within an action
    C1 = draw(st.sampled_from([0.0, 2.0])) * draw(coef)
    D = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0])) * draw(coef)
    wp = draw(st.sampled_from([3.0, 10.0])) * w4
    mag = draw(st.sampled_from([1.0, 1e6]))

    def p(x):
        v = x + e1 * np.sin(w1 * x + f1)
        if flat_at is None:
            return v
        return v - (1.0 - flat_slope) * np.clip(v - flat_at, 0.0, flat_width)

    def V(y, x):
        quad = y * (A + B * p(x)) + (C * y + 0.5 * C1 * y**2) * p(x) ** 2
        return mag * (quad + D * np.sin(3.0 * w3 * y + wp * p(x)))

    def V_y(y, x):
        quad = A + B * p(x) + (C + C1 * y) * p(x) ** 2
        return mag * (quad + 3.0 * w3 * D * np.cos(3.0 * w3 * y + wp * p(x)))

    def u(y, x):
        return (p(x) - y) * (1.0 + e2 * np.sin(w2 * y))

    actions = (0.0, 1.0) if draw(st.booleans()) else (0.05, 0.95)
    problem = Problem(
        states=uniform(0.0, 1.0, nx),
        actions=uniform(*actions, ny, "action"),
        prior=np.full(nx, 1.0 / nx),
        V=V,
        V_y=V_y,
        u=u,
    )
    return problem, draw(st.sampled_from([1e-12, 1e-6, 1e-2]))


class TestTwistSweepAgainstBruteForce:
    @pytest.mark.parametrize("pid", preset_ids())
    def test_presets(self, pid):
        pb, _ = preset(pid, grid_n=21)
        assert check_twist(pb) == brute_force_twist(pb)

    def test_random_smooth_problems(self):
        # every route must be exercised: the chain alone, the block
        # certificate on an action the chain could not decide, and the exact
        # sweep on an action neither could decide
        routes = Counter()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(smooth_problems())
        def run(case):
            pb, zero_tol = case
            with mock.patch.object(structure, "TWIST_ZERO_TOL", zero_tol), mock.patch.object(
                structure, "_certify_action", wraps=structure._certify_action
            ) as certify, mock.patch.object(structure, "_twist_sweep", wraps=structure._twist_sweep) as sweep:
                assert check_twist(pb) == brute_force_twist(pb, zero_tol)
            routes["sweep" if sweep.called else "certificate" if certify.called else "chain"] += 1

        run()
        assert routes["chain"] > 0 and routes["certificate"] > 0 and routes["sweep"] > 0, routes


@st.composite
def twist_rows(draw):
    """One action's rows (V_y, u, u_y) at nx states, of four kinds, lifted
    from points p_x of the plane as w_x (p_x, 1) with random weights w_x > 0
    and turned by a rotation that gives the u column a sign change from the
    first state to the last.  'convex': points on an ellipse in angle order,
    either way round, some nearly collinear when the angles crowd, and one
    point pulled towards its neighbours' chord, by a factor 1e-10 or 1e-11
    that can put the chain's margin near its bound;
    'nonconvex': points anywhere in the square; 'flat': points on a line,
    off it by at most a drawn bump; 'reversed': convex with one row negated;
    'star': points on an ellipse that wind around it twice, so every turn
    has one sign but the polygon is not convex.  Each column is then scaled
    by a power of two as ``_twist_actions`` does it."""
    kind = draw(st.sampled_from(["convex", "nonconvex", "flat", "reversed", "star"]))
    nx = draw(st.integers(5 if kind == "star" else 3, 10))
    unit = st.floats(0.0, 1.0)
    t = np.array([draw(unit) for _ in range(nx)])
    if kind in ("convex", "reversed", "star"):
        if kind == "star":
            theta = draw(st.floats(0.0, 6.2)) + (4.0 * np.pi * np.arange(nx) + t) / nx
        else:
            theta = draw(st.floats(0.0, 6.2)) + np.sort(t) * draw(st.sampled_from([0.3, 3.0, 6.0]))
        theta *= draw(st.sampled_from([1.0, -1.0]))
        P = np.stack([draw(st.floats(0.1, 2.0)) * np.cos(theta), draw(st.floats(0.1, 2.0)) * np.sin(theta)], axis=1)
        if kind == "convex":
            k = draw(st.integers(1, nx - 2))
            mid = 0.5 * (P[k - 1] + P[k + 1])
            P[k] = mid + draw(st.sampled_from([1.0, 1e-10, 1e-11])) * (P[k] - mid)
    elif kind == "nonconvex":
        P = np.stack([t, [draw(unit) for _ in range(nx)]], axis=1) * 2.0 - 1.0
    else:
        bump = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
        P = np.stack([t, draw(st.floats(-2.0, 2.0)) * t + bump * np.array([draw(unit) for _ in range(nx)])], axis=1)
    P += np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))])
    rows = np.concatenate([P, np.ones((nx, 1))], axis=1) * np.array([draw(st.floats(0.01, 10.0)) for _ in range(nx)])[:, None]
    if kind == "reversed":
        rows[draw(st.integers(0, nx - 1))] *= -1.0
    # a right-handed frame whose second axis w has w . row_0 < 0 < w . row_{nx-1}
    w = rows[-1] / np.linalg.norm(rows[-1]) - rows[0] / np.linalg.norm(rows[0])
    assume(np.linalg.norm(w) > 1e-3)  # the end rows are not parallel
    w /= np.linalg.norm(w)
    a = np.cross(w, [0.6, 0.0, 0.8] if abs(w[1]) > 0.9 else [0.0, 1.0, 0.0])
    a /= np.linalg.norm(a)
    R = rows @ np.stack([a, w, np.cross(a, w)], axis=1)
    R = np.ldexp(R, -np.frexp(np.max(np.abs(R), axis=0))[1])
    return kind, R


def exact_min_det(R, sign):
    """The least sign * det(R_i, R_j, R_k) over i < j < k, in exact arithmetic."""
    F = [[Fraction(float(v)) for v in row] for row in R]
    n = len(F)
    return min(
        sign
        * (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        for a, b, c in [(F[i], F[j], F[k])]
    )


def rows_problem(R):
    """A problem on nx uniform states and two actions whose twist rows at
    every action are R, read off by linear interpolation in x."""
    xs = uniform(0.0, 1.0, R.shape[0]).points

    def column(t):
        return lambda y, x: np.interp(x, xs, R[:, t]) + 0.0 * y

    return Problem(
        states=uniform(0.0, 1.0, xs.size),
        actions=uniform(0.4, 0.6, 2, "action"),
        prior=np.full(xs.size, 1.0 / xs.size),
        V=lambda y, x: 0.0 * (x + y),
        V_y=column(0),
        u=column(1),
        u_y=column(2),
    )


class TestTwistChain:
    def test_random_rows(self):
        # the bound, less its own rounding, never exceeds the exact least
        # sign * det once it clears that rounding, and an action the chain
        # proves is one that the brute force and check_twist hold with the
        # chain's sign
        seen = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(twist_rows())
        def run(case):
            kind, R = case
            norms = np.sqrt(R[:, 0] ** 2 + R[:, 1] ** 2 + R[:, 2] ** 2)
            (sign,), (low,), (need,) = structure._twist_chain(R[None], norms[None])
            if sign == 0:
                seen[kind, "declined"] += 1
                return
            # below its rounding the bound does not know the sign of the
            # least A_t (two parallel rows give A_t = 0 up to rounding)
            rounding = structure._CHAIN_ROUNDING * structure._EPS * float(np.min(norms)) ** 3
            if not low > rounding:
                seen[kind, "convex, within rounding"] += 1
                return
            assert low - rounding <= exact_min_det(R, int(sign)), (kind, low)
            if not low > need:
                seen[kind, "convex, small margin"] += 1
                return
            seen[kind, "proved"] += 1
            pb = rows_problem(R)
            want = TwistReport("holds_positive" if sign > 0 else "holds_negative")
            assert brute_force_twist(pb) == check_twist(pb) == want, kind

        run()
        assert all(seen[kind, "declined"] > 0 for kind in ("convex", "nonconvex", "flat", "reversed", "star")), seen
        assert not any(seen["star", outcome] for outcome in ("proved", "convex, small margin")), seen
        assert seen["convex", "proved"] > 0 and seen["reversed", "proved"] > 0, seen
        assert seen["convex", "convex, small margin"] > 0 and seen["flat", "convex, within rounding"] > 0, seen


# the presets whose twist label holds, and contest's holds_negative regime
TWIST_HOLDS = [
    (pid, {})
    for pid in (
        "contest",
        "example_c1",
        "example_c3",
        "gerrymander",
        "linear_receiver",
        "option_pricing",
        "translation_receiver",
        "translation_sender",
    )
] + [("contest", {"xmin": 0.62, "xmax": 0.95})]
# the holding presets whose every action the chain tier proves at n=101 and 201
CHAIN_PROVES = (
    "contest",
    "example_c1",
    "gerrymander",
    "option_pricing",
    "translation_receiver",
    "translation_sender",
)


def no_chain(R, norms):
    """``_twist_chain`` declining every action."""
    n = norms.shape[0]
    return np.zeros(n, dtype=int), np.zeros(n), np.ones(n)


def exact_twist(problem):
    """check_twist's report with every action decided by the exact sweep."""
    with mock.patch.object(structure, "_twist_chain", side_effect=no_chain), mock.patch.object(
        structure, "_certify_action", return_value=("margin", 0.0)
    ):
        return check_twist(problem)


def twist_route(problem, zero_tol):
    """check_twist's report at ``zero_tol`` and its route: per action, 'K'
    when the chain proves it, else 'k' followed by 'C' when the block
    certificate proves it, else by 'uS', the certificate undecided and the
    sweep run."""
    chain, certify, sweep = structure._twist_chain, structure._certify_action, structure._twist_sweep
    tiers, calls = [], []

    def chain_logged(*args):
        tiers.append(chain(*args))
        return tiers[-1]

    def certify_logged(*args):
        reason, margin = certify(*args)
        calls.append("C" if reason is None else "u")
        return reason, margin

    def sweep_logged(*args):
        calls.append("S")
        return sweep(*args)

    with mock.patch.object(structure, "TWIST_ZERO_TOL", zero_tol), mock.patch.object(
        structure, "_twist_chain", side_effect=chain_logged
    ), mock.patch.object(structure, "_certify_action", side_effect=certify_logged), mock.patch.object(
        structure, "_twist_sweep", side_effect=sweep_logged
    ):
        rep = check_twist(problem)
    sign = {"holds_positive": 1, "holds_negative": -1}[rep.label]
    (chain_out,) = tiers
    rest = iter(calls)
    route = ""
    for s, low, need in zip(*chain_out):
        if s == sign and low > need:
            route += "K"
        else:
            step = next(rest)
            route += "k" + step + (next(rest) if step == "u" else "")
    assert next(rest, None) is None
    return rep, route


def meshgrid_twist_rows(pb):
    """The actions ``_twist_actions`` visits and their unscaled rows (V_y, u,
    u_y), each kernel evaluated on meshgrid(ys[idx], xs) of those actions
    alone, as before the grid tables."""
    xs, ys = pb.states.points, pb.actions.points
    pivots, _ = chi_array(pb, ys)
    n_low, kh = np.searchsorted(xs, pivots, side="left"), np.searchsorted(xs, pivots, side="right")
    idx = np.flatnonzero((n_low > 0) & (kh < xs.size))
    Y, X = np.meshgrid(ys[idx], xs, indexing="ij")
    return ys[idx], np.stack([np.asarray(f(Y, X), dtype=float) for f in (pb.V_y, pb.u, pb.u_y)], axis=2)


class TestTwistRoutes:
    @pytest.mark.parametrize("grid_n", [41, 101])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_equals_exact_sweep(self, pid, grid_n):
        pb, _ = preset(pid, grid_n=grid_n)
        assert check_twist(pb) == exact_twist(pb)

    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_table_rows_match_action_rows(self, pid, params):
        # the one (actions, states) table holds, bit for bit, the rows a call
        # on each action's own row gives
        pb, _ = preset(pid, grid_n=41, **params)
        ys, R, norms, *_ = structure._twist_actions(GridTables(pb))
        xs = pb.states.points
        for y, Ry, ny in zip(ys, R, norms):
            yv = np.full(xs.size, float(y))
            want = np.stack([np.asarray(f(yv, xs), dtype=float) for f in (pb.V_y, pb.u, pb.u_y)], axis=1)
            want = np.ldexp(want, -np.frexp(np.max(np.abs(want), axis=0))[1])
            assert Ry.tobytes() == want.tobytes()
            assert ny.tobytes() == np.sqrt(want[:, 0] ** 2 + want[:, 1] ** 2 + want[:, 2] ** 2).tobytes()

    @pytest.mark.parametrize("grid_n", [41, 101])
    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_grid_table_rows_match_meshgrid_rows(self, pid, params, grid_n):
        # rows sliced from the full grid tables hold the bits of a meshgrid
        # over the visited actions alone
        pb, _ = preset(pid, grid_n=grid_n, **params)
        ys, R, *_ = structure._twist_actions(GridTables(pb))
        want_ys, want = meshgrid_twist_rows(pb)
        want = want[: ys.size]  # the actions before a fault
        want = np.ldexp(want, -np.frexp(np.max(np.abs(want), axis=1))[1][:, None, :])
        assert ys.tobytes() == want_ys[: ys.size].tobytes()
        assert R.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid_n", [101, 201])
    @pytest.mark.parametrize("pid, kwargs", TWIST_HOLDS)
    def test_holding_presets_certified(self, pid, kwargs, grid_n):
        # the fast tiers must keep deciding these: no action swept, and on
        # the presets of CHAIN_PROVES no action left to the block certificate
        pb, _ = preset(pid, grid_n=grid_n, **kwargs)
        chain_only = not kwargs and pid in CHAIN_PROVES
        with mock.patch.object(
            structure, "_twist_sweep", side_effect=AssertionError("sweep ran")
        ), mock.patch.object(
            structure,
            "_certify_action",
            side_effect=AssertionError("block certificate ran") if chain_only else structure._certify_action,
        ):
            rep = check_twist(pb)
        assert rep.label == ("holds_negative" if kwargs else "holds_positive")

    def test_hand_over_one_action_at_a_time(self):
        # with TWIST_ZERO_TOL = 1e-5 the chain proves none of contest's
        # actions at n=21, the certificate proves the first 11 and cannot
        # decide the last 8 ('margin'); the sweep runs once on each of those
        # and on no other
        pb, _ = preset("contest", grid_n=21)
        rep, route = twist_route(pb, 1e-5)
        assert route == "kC" * 11 + "kuS" * 8
        assert rep == brute_force_twist(pb, 1e-5) == TwistReport("holds_positive")

    def test_three_tiers_interleave(self):
        # with TWIST_ZERO_TOL = 1e-6 each of affiliated's actions at n=21
        # goes to the first tier that proves it: the chain on three of the
        # first six, the certificate on the others but the last five, which
        # are swept
        pb, _ = preset("affiliated", grid_n=21)
        rep, route = twist_route(pb, 1e-6)
        assert route == "kCkCKkCKK" + "kC" * 10 + "kuS" * 5
        assert rep == brute_force_twist(pb, 1e-6) == TwistReport("holds_negative")


class TestPairwiseSplit:
    def test_two_point_support_unchanged(self):
        pb = linear_problem(11)
        mu = Posterior((2, 8), np.array([0.3, 0.7]))
        assert pairwise_split(pb, mu) == [(mu, 1.0)]

    def test_three_state_example(self):
        pb = Problem(
            states=uniform(0.0, 0.9, 3),
            actions=uniform(0.0, 0.9, 7, "action"),
            prior=np.full(3, 1 / 3),
            V=lambda y, x: y + 0.0 * x,
            u=lambda y, x: x - y,
        )
        mu = Posterior((0, 1, 2), np.full(3, 1 / 3))
        pieces = dict()
        for post, w in pairwise_split(pb, mu):
            pieces[post.support] = (post, w)
        assert pieces[(1,)][1] == pytest.approx(1 / 3)
        assert pieces[(0, 2)][1] == pytest.approx(2 / 3)
        assert np.allclose(pieces[(0, 2)][0].weights, [0.5, 0.5])

    def test_pieces_satisfy_common_first_order_condition(self):
        rng = np.random.default_rng(17)
        pb = linear_problem(31)
        for _ in range(30):
            k = int(rng.integers(3, 7))
            sup = tuple(sorted(rng.choice(31, size=k, replace=False)))
            w = rng.uniform(0.05, 1.0, size=k)
            mu = Posterior(sup, w / w.sum())
            y = gamma(pb, mu)
            pieces = pairwise_split(pb, mu)
            assert all(len(p.support) <= 2 for p, _ in pieces)
            dense = sum(wk * p.dense(31) for p, wk in pieces)
            assert np.max(np.abs(dense - mu.dense(31))) < 1e-15
            for p, _ in pieces:
                xs = p.states(pb.states)
                foc = float(p.weights @ pb.u(np.full(xs.size, y), xs))
                assert abs(foc) <= 1e-10


def reference_classify(problem, source):
    """The row-list and row-pair loop form of ``classify_monotonicity``,
    kept as a reference: on supports given sorted and distinct the support
    matrix form must give the same report, bit for bit."""
    rows, grid_based = [], isinstance(source, (Outcome, ContactSet))
    if isinstance(source, Outcome):
        for iy in source.support_rows():
            sup = np.nonzero(source.mass[iy] > MASS_TOL)[0]
            rows.append((float(problem.actions.points[iy]), problem.states.points[sup]))
    elif isinstance(source, ContactSet):
        for iy in source.actions:
            sts = np.array(sorted(ix for jy, ix in source.pairs if jy == iy), dtype=int)
            rows.append((float(problem.actions.points[iy]), problem.states.points[sts]))
    elif isinstance(source, Signal):
        for post, _ in source.atoms:
            rows.append((gamma(problem, post), post.states(problem.states)))
    else:
        for g, sup in source:
            rows.append((float(g), np.asarray(np.atleast_1d(sup), dtype=float)))
    snap_gamma = structure.SNAP_CELLS * float(np.max(np.diff(problem.actions.points))) if grid_based else 0.0
    snap_x = structure.SNAP_CELLS * float(np.max(np.diff(problem.states.points))) if grid_based else 0.0

    dipped, peaked = "strict", "strict"
    dip_wits, peak_wits = [], []
    dip_disc = peak_disc = 0
    for g1, sup1 in rows:
        lo, hi = float(sup1[0]), float(sup1[-1])
        if not hi > lo:
            continue
        for g2, sup2 in rows:
            inner = sup2[(sup2 > lo) & (sup2 < hi)]
            if inner.size == 0:
                continue
            depth = np.minimum(inner - lo, hi - inner)
            x2 = float(inner[int(np.argmax(depth))])
            gap = g2 - g1
            shallow = float(np.max(depth)) <= snap_x
            if gap > 0:
                if gap <= snap_gamma or shallow:
                    dip_disc += 1
                else:
                    dipped = "none"
                    dip_wits.append(TripleWitness(g1, g2, lo, x2, hi, "single_peaked_triple"))
            elif gap < 0:
                if -gap <= snap_gamma or shallow:
                    peak_disc += 1
                else:
                    peaked = "none"
                    peak_wits.append(TripleWitness(g1, g2, lo, x2, hi, "single_dipped_triple"))
            elif not grid_based and not shallow:
                dipped = "weak" if dipped == "strict" else dipped
                peaked = "weak" if peaked == "strict" else peaked

    witness = None
    if dipped == "strict" and peaked == "strict" and dip_disc > peak_disc:
        label = "strictly_single_peaked"
    elif dipped == "strict":
        label = "strictly_single_dipped"
    elif peaked == "strict":
        label = "strictly_single_peaked"
    elif dipped == "weak" and peaked == "weak" and dip_disc > peak_disc:
        label = "single_peaked"
    elif dipped == "weak":
        label = "single_dipped"
    elif peaked == "weak":
        label = "single_peaked"
    else:
        wits = dip_wits or peak_wits
        witness = min(wits, key=TripleWitness.key) if wits else None
        label = "neither"
    return MonotonicityReport(label, dipped, peaked, witness, dip_disc + peak_disc)


def dyadic_grid(draw, kind):
    # steps of 1/4, 1/2 and 1 add up exactly, so action gaps equal to
    # SNAP_CELLS times the largest action spacing, and straddle depths equal
    # to SNAP_CELLS times the largest state spacing, occur exactly
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=2, max_size=11))
    return Grid(np.concatenate(([0.0], np.cumsum(steps))), kind)


@st.composite
def grid_sources(draw):
    """A problem on dyadic grids of at most 12 points, and an outcome whose
    cells hold 0, 5e-11 (under ``MASS_TOL``, even twelve of them) or 0.3."""
    states, actions = dyadic_grid(draw, "state"), dyadic_grid(draw, "action")
    prior = np.full(len(states), 1.0 / len(states))
    pb = Problem(states=states, actions=actions, prior=prior, V=lambda y, x: y + 0.0 * x, u=lambda y, x: x - y)
    size = pb.n_actions * pb.n_states
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, 5e-11, 0.3, 0.3]), min_size=size, max_size=size))
    return pb, Outcome(np.array(cells).reshape(pb.n_actions, pb.n_states), 0.0, 0.0)


def contact_of(outcome):
    """The contact set whose pairs are the cells of ``outcome`` above ``MASS_TOL``."""
    iy, ix = np.nonzero(outcome.mass > MASS_TOL)
    return ContactSet(tuple(zip(iy.tolist(), ix.tolist())), np.unique(iy), {}, 0.0, np.zeros(outcome.mass.shape))


@st.composite
def exact_rows(draw):
    """Explicit rows with sorted, distinct, nonempty supports and actions drawn
    from a few values, so that exact ties are common."""
    states = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    pick = st.lists(st.sampled_from(states), min_size=1, max_size=5, unique=True).map(sorted)
    return draw(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), pick), max_size=6))


def snap_edges(pb, rows):
    """Whether some action gap equals the snap width of actions, and whether
    some straddle depth equals that of states, on (action, states) rows."""
    snap_gamma = structure.SNAP_CELLS * pb.actions.max_spacing
    snap_x = structure.SNAP_CELLS * pb.states.max_spacing
    gap = any(g2 - g1 == snap_gamma for g1, _ in rows for g2, _ in rows)
    depth = any(
        min(x - sup[0], sup[-1] - x) == snap_x
        for _, sup in rows
        for _, other in rows
        for x in other
        if sup[0] < x < sup[-1]
    )
    return gap, depth


class TestClassification:
    def test_full_disclosure_trivially_strict(self):
        pb = linear_problem(5)
        rows = [(x, [x]) for x in pb.states.points]
        rep = classify_monotonicity(pb, rows)
        assert rep.label == "strictly_single_dipped"

    def test_median_matching_witness(self):
        pb = linear_problem(5)
        rows = [(0.5, [0.25, 0.75]), (0.75, [0.5, 1.0])]
        rep = classify_monotonicity(pb, rows)
        assert rep.label == "neither"
        w = rep.witness
        assert w.kind == "single_peaked_triple"
        assert (w.x1, w.x2, w.x3) == (0.25, 0.5, 0.75)
        assert (w.y1, w.y2) == (0.5, 0.75)

    def test_no_disclosure_weakly_both(self):
        pb = linear_problem(5)
        rep = classify_monotonicity(pb, [(0.5, list(pb.states.points))])
        assert rep.label == "single_dipped"
        assert rep.dipped == "weak" and rep.peaked == "weak"

    def test_nested_pairs_strictly_dipped(self):
        pb = linear_problem(11)
        rows = [(0.5, [0.4, 0.6]), (0.55, [0.3, 0.8]), (0.6, [0.2, 1.0])]
        rep = classify_monotonicity(pb, rows)
        assert rep.label == "strictly_single_dipped"
        assert rep.peaked == "none"

    @pytest.mark.parametrize("grid_n", [41, 101])
    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_equals_reference_on_solved_sources(self, solved_cache, pid, params, grid_n):
        bundle = solved_cache(pid, grid_n=grid_n, **params)
        pb = bundle["problem"]
        cs = contact_set(pb, bundle["prices"], lp=bundle["lp"])
        for source in (bundle["outcome"], cs):
            assert repr(classify_monotonicity(pb, source)) == repr(reference_classify(pb, source))

    def test_equals_reference_on_random_sources(self):
        # grid sources on dyadic grids, where gaps and depths can equal the
        # snap widths exactly, and exact row lists with exact action ties
        seen = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(grid_sources(), exact_rows())
        def run(case, rows):
            pb, out = case
            for source in (out, contact_of(out), rows):
                assert repr(classify_monotonicity(pb, source)) == repr(reference_classify(pb, source))
            sups = [(pb.actions.points[iy], pb.states.points[out.mass[iy] > MASS_TOL]) for iy in out.support_rows()]
            gap, depth = snap_edges(pb, sups)
            seen["gap"] += gap
            seen["depth"] += depth
            seen["tie"] += len({g for g, _ in rows}) < len(rows)
            seen[classify_monotonicity(pb, rows).label] += 1

        run()
        assert seen["gap"] > 0 and seen["depth"] > 0 and seen["tie"] > 0, seen
        assert seen["neither"] > 0 and seen["single_dipped"] + seen["single_peaked"] > 0, seen

    def test_states_read_as_a_set(self):
        # lo and hi are the least and largest state of a row, however the
        # row writes its states
        pb = linear_problem(5)
        rows = [(0.5, [0.25, 0.75]), (0.75, [0.5, 1.0])]
        want = repr(classify_monotonicity(pb, rows))
        for rewritten in ([(0.5, [0.75, 0.25]), rows[1]], [rows[0], (0.75, [1.0, 0.5])]):
            assert repr(classify_monotonicity(pb, rewritten)) == want

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(exact_rows(), st.randoms(use_true_random=False))
        def run(rows, rnd):
            shuffled = []
            for g, sup in rows:
                states = sup + [rnd.choice(sup) for _ in range(rnd.randrange(3))]
                rnd.shuffle(states)
                shuffled.append((g, states))
            assert repr(classify_monotonicity(pb, shuffled)) == repr(reference_classify(pb, rows))

        run()

    def test_outcome_row_without_a_cell_above_tolerance_skipped(self):
        # row 7 carries 1.2e-9 > MASS_TOL in two cells of 0.6e-9 each
        pb, _ = preset("example_c1", grid_n=11)
        out, _ = solve_primal(build_lp(pb))
        mass = out.mass.copy()
        mass[7] = 0.0
        without = classify_monotonicity(pb, Outcome(mass.copy(), 0.0, 0.0))
        mass[7, [2, 5]] = 0.6e-9
        assert 7 in Outcome(mass, 0.0, 0.0).support_rows()
        assert repr(classify_monotonicity(pb, Outcome(mass, 0.0, 0.0))) == repr(without)

    def test_explicit_row_without_states_skipped(self):
        pb = linear_problem(5)
        rows = [(0.5, [0.25, 0.75]), (0.75, [0.5, 1.0])]
        assert repr(classify_monotonicity(pb, rows + [(0.5, [])])) == repr(classify_monotonicity(pb, rows))

    def test_contact_action_without_pairs_skipped(self):
        pb = linear_problem(5)
        pairs = ((1, 0), (1, 2), (3, 1), (3, 4))
        cs = ContactSet(pairs, np.array([1, 3]), {}, 0.0, np.zeros((5, 5)))
        idle = ContactSet(pairs, np.array([1, 2, 3]), {}, 0.0, np.zeros((5, 5)))
        assert repr(classify_monotonicity(pb, idle)) == repr(classify_monotonicity(pb, cs))


class TestPairwiseContactRows:
    @pytest.mark.parametrize(
        "pid,kwargs",
        [
            ("example_c1", {}),
            ("contest", {"xmin": 0.1, "xmax": 0.5}),
            ("contest", {"xmin": 0.6, "xmax": 0.95}),
        ],
    )
    def test_mass_rows_decompose_into_snapped_pairs(self, solved_cache, pid, kwargs):
        # every mass row's conditional splits into two-state obedient pieces
        # whose best response is the row action itself; rows lump several
        # pairs at grid resolution but never break pairwise structure
        bundle = solved_cache(pid, grid_n=101, **kwargs)
        pb, out = bundle["problem"], bundle["outcome"]
        from optrans.structure import check_twist

        pts = pb.actions.points
        for iy in out.support_rows():
            y = float(pts[iy])
            i = min(max(int(np.searchsorted(pts, y)), 1), pts.size - 1)
            cell = float(pts[i] - pts[i - 1])
            mu = out.row_posterior(int(iy))
            for piece, _ in pairwise_split(pb, mu):
                assert len(piece.support) <= 2
                assert abs(gamma(pb, piece) - y) <= 2.5 * cell


class TestFarkas:
    def test_identity_gives_beta(self):
        cert = farkas_alternative(np.eye(3))
        assert cert.verdict == "beta_exists"
        rb = np.eye(3) @ cert.beta
        assert np.min(rb) >= -1e-12 and np.max(rb) >= 1e-8

    def test_negated_identity_gives_alpha(self):
        cert = farkas_alternative(-np.eye(3))
        assert cert.verdict == "alpha_exists"
        assert np.min(cert.alpha) > 0
        assert np.max(cert.alpha @ -np.eye(3)) <= 1e-12

    def test_exclusivity_against_vertex_enumeration(self):
        rng = np.random.default_rng(99)
        from itertools import combinations

        def beta_side_by_enumeration(R):
            # vertices of {beta in [0,1]^3 : R beta >= 0}; the beta verdict
            # holds iff some vertex has R beta semipositive and nonzero
            halfspaces = [(-R[i], 0.0) for i in range(3)]
            halfspaces += [(np.eye(3)[i], -1.0) for i in range(3)]  # beta_i <= 1
            halfspaces += [(-np.eye(3)[i], 0.0) for i in range(3)]  # beta_i >= 0
            best = 0.0
            for trip in combinations(range(9), 3):
                A = np.array([halfspaces[t][0] for t in trip])
                b = np.array([-halfspaces[t][1] for t in trip])
                if abs(np.linalg.det(A)) < 1e-12:
                    continue
                v = np.linalg.solve(A, b)
                ok = all(h @ v + c <= 1e-9 for h, c in halfspaces)
                if not ok:
                    continue
                rb = R @ v
                if np.min(rb) >= -1e-9:
                    best = max(best, float(np.sum(rb)))
            return best > 1e-7

        for _ in range(100):
            R = rng.normal(size=(3, 3))
            cert = farkas_alternative(R)
            assert (cert.verdict == "beta_exists") == beta_side_by_enumeration(R)

    def test_certificate_from_problem_points(self):
        pb, _ = preset("example_c1", grid_n=21)
        cert = farkas_certificate(pb, 1.1, 1.3, 0.7, 1.0, 1.6)
        # strict pairing direction: the triple admits a profitable re-pairing
        assert cert.verdict == "beta_exists"
        R = repair_matrix(pb, 1.1, 1.3, 0.7, 1.0, 1.6)
        assert np.allclose(R, cert.R)

    def test_ill_posed_preconditions(self):
        pb, _ = preset("example_c1", grid_n=21)
        with pytest.raises(IllPosed):
            farkas_certificate(pb, 1.3, 1.1, 0.7, 1.0, 1.6)
        with pytest.raises(IllPosed):
            farkas_certificate(pb, 1.1, 1.3, 1.6, 1.0, 0.7)
        with pytest.raises(IllPosed):
            farkas_certificate(pb, 1.1, 1.3, 1.2, 1.4, 1.6)


class TestSdpdSufficient:
    def test_reciprocal_gain_is_strictly_dipped(self):
        pb, _ = preset("example_c1", grid_n=31)
        assert check_sdpd_sufficient(pb).label == "dipped_strict"

    def test_translation_kernel_strictly_dipped(self):
        pb, _ = preset("translation_receiver", grid_n=31)
        assert check_sdpd_sufficient(pb).label == "dipped_strict"

    def test_linear_case_weak_both_ways(self):
        pb, _ = preset("linear", grid_n=21, V_shape="linear")
        rep = check_sdpd_sufficient(pb)
        assert rep.label == "neither"
        assert rep.dipped_weak and rep.peaked_weak


def flag_loop_sdpd(problem):
    """check_sdpd_sufficient as it was with eight per-action flags, before
    the label came from the ratios' extremes."""
    ys = problem.actions.points
    xs = problem.states.points
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    Ux = np.asarray(problem.u_x(Y, X), dtype=float)
    Uyx = np.asarray(problem.u_yx(Y, X), dtype=float)
    Vyx = np.asarray(problem.V_yx(Y, X), dtype=float)
    safe_Ux = np.where(np.abs(Ux) < 1e-12, np.nan, Ux)
    if not np.any(np.isfinite(safe_Ux)):
        return SdpdReport(label="neither", dipped_weak=False, peaked_weak=False, witness=None)
    noise = problem.derivative_noise()
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        r1 = Uyx / safe_Ux
        d1 = np.diff(r1, axis=1)
        tol1 = max(STRICT_TOL, noise) * max(1.0, float(np.nanmax(np.abs(r1))))
        r1_up = bool(np.nanmin(d1) >= -tol1)
        r1_dn = bool(np.nanmax(d1) <= tol1)
        r1_up_strict = bool(np.nanmin(d1) > tol1)
        r1_dn_strict = bool(np.nanmax(d1) < -tol1)
        r2_up = r2_dn = r2_up_strict = r2_dn_strict = True
        witness = None
        tol2 = max(STRICT_TOL, noise) * max(
            1.0, float(np.nanmax(np.abs(Vyx))), float(np.nanmax(np.abs(1.0 / safe_Ux)))
        )
        for i1 in range(ys.size):
            d2 = np.diff(Vyx[i1:, :] / safe_Ux[i1, :][None, :], axis=1)
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
    dip_ok, peak_ok = r1_up and r2_up, r1_dn and r2_dn
    if dip_ok and (r1_up_strict or r2_up_strict):
        label = "dipped_strict"
    elif peak_ok and (r1_dn_strict or r2_dn_strict):
        label = "peaked_strict"
    elif dip_ok and peak_ok:
        label = "neither"
    elif dip_ok:
        label = "dipped"
    elif peak_ok:
        label = "peaked"
    else:
        label = "neither"
    return SdpdReport(label=label, dipped_weak=dip_ok, peaked_weak=peak_ok, witness=witness)


@st.composite
def ratio_monotone_tables(draw):
    """(u_x, u_yx, V_yx) tables whose ratios are monotone in x, rising,
    falling or flat, with some u_x cells or whole action slices below 1e-12
    (where the ratios are NaN), and optionally a perturbation that breaks
    the monotonicity."""
    ny, nx = draw(st.integers(2, 6)), draw(st.integers(2, 7))
    x = np.linspace(0.0, 1.0, nx)
    shape = st.sampled_from(["up", "down", "flat"])

    def profile(kind):
        scale = draw(st.sampled_from([1e-9, 1.0, 50.0]))
        return {"up": 1.0 + scale * x, "down": 1.0 + scale * (1.0 - x), "flat": np.ones(nx)}[kind]

    a = np.array([draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(ny)])
    h = profile(draw(shape))
    Ux = a[:, None] * h[None, :]
    Uyx = draw(st.sampled_from([-1.0, 0.0, 1.0])) * Ux * profile(draw(shape))[None, :]
    b = np.array([draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(ny)])
    Vyx = b[:, None] * h[None, :] * profile(draw(shape))[None, :]
    tiny = st.sampled_from([0.0, 5e-13, -3e-13])
    for _ in range(draw(st.integers(0, 3))):
        Ux[draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))] = draw(tiny)
    if draw(st.booleans()):
        Ux[draw(st.integers(0, ny - 1))] = draw(tiny)
    if draw(st.booleans()):
        Ux[:, draw(st.integers(0, nx - 1))] = draw(tiny)
    if draw(st.booleans()):
        which = draw(st.sampled_from([Uyx, Vyx]))
        which[draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))] += draw(st.sampled_from([-1.0, 1e-9, 1.0]))
    return Ux, Uyx, Vyx


class TestSdpdFromExtremes:
    @pytest.mark.parametrize("grid_n", [21, 41])
    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_presets(self, pid, params, grid_n):
        pb, _ = preset(pid, grid_n=grid_n, **params)
        assert repr(check_sdpd_sufficient(pb)) == repr(flag_loop_sdpd(pb))

    def test_random_tables(self):
        labels = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(ratio_monotone_tables())
        def run(tables):
            Ux, Uyx, Vyx = tables
            pb = table_problem(*Ux.shape, u_x=Ux, u_yx=Uyx, V_yx=Vyx)
            rep = check_sdpd_sufficient(pb)
            assert repr(rep) == repr(flag_loop_sdpd(pb))
            labels[rep.label] += 1

        run()
        assert set(labels) == {"dipped", "dipped_strict", "peaked", "peaked_strict", "neither"}, labels

    @pytest.mark.parametrize("row", [[0.0, 1e-8], [1e-8, 0.0]])
    def test_difference_at_the_tolerance_is_not_strict(self, row):
        # r1's one difference is exactly +-tol1 = 1e-8 and r2 is flat
        pb = table_problem(3, 2, u_x=np.ones((3, 2)), u_yx=np.array([row] * 3))
        assert repr(check_sdpd_sufficient(pb)) == repr(flag_loop_sdpd(pb))
        assert check_sdpd_sufficient(pb).label == "neither"

    def test_nan_sender_raises(self):
        # an all-NaN V_yx used to clear no flag, so the label came out
        # dipped_strict with both weak flags set
        with pytest.raises(IllPosed, match=r"V_yx is nan at \(y, x\) = \(0\.0, 0\.0\)"):
            check_sdpd_sufficient(nan_sender())

    @pytest.mark.parametrize("name", ["u_x", "u_yx", "V_yx"])
    def test_non_finite_cell_raises(self, name):
        # a non-finite u_x used to count as a vanishing one, and a non-finite
        # u_yx or V_yx as a missing difference
        tables = {"u_x": np.ones((3, 4)), "u_yx": np.zeros((3, 4)), "V_yx": np.ones((3, 4))}
        tables[name][1, 2] = np.inf
        with pytest.raises(IllPosed, match=rf"{name} is inf at \(y, x\) = \(0\.5, 0\.6666666666666666\)"):
            check_sdpd_sufficient(table_problem(3, 4, **tables))


class TestFullDisclosure:
    def test_convex_state_independent_unique(self):
        pb, _ = preset("linear", grid_n=41, V_shape="convex")
        assert check_full_disclosure(pb).label == "optimal_unique"

    def test_contest_high_range_unique(self):
        pb, _ = preset("contest", grid_n=41, xmin=1.0, xmax=2.0)
        assert check_full_disclosure(pb).label == "optimal_unique"

    def test_reciprocal_gain_not_optimal(self):
        pb, _ = preset("example_c1", grid_n=41)
        rep = check_full_disclosure(pb)
        assert rep.label == "not_optimal"
        x1, x2, rho = rep.witness
        assert x1 < x2 and 0 < rho < 1

    def test_supermodular_shortcut_reported(self):
        pb, _ = preset("rayo_segal", grid_n=31)
        rep = check_full_disclosure(pb)
        assert rep.label == "optimal_unique"
        assert rep.decided_by == "convex_supermodular_shortcut"

    @pytest.mark.parametrize("pid", ["quantile", "affiliated"])
    def test_shortcut_skipped_when_not_optimal(self, pid):
        # the shortcut only names the route of an optimal report
        pb, _ = preset(pid, grid_n=21)
        with mock.patch.object(structure, "_linear_receiver_shortcut", side_effect=AssertionError("shortcut ran")):
            assert check_full_disclosure(pb).label == "not_optimal"

    def test_nan_sender_raises(self):
        # the scale of V used to be the max of an empty array (ValueError)
        with pytest.raises(IllPosed, match="is NaN"):
            check_full_disclosure(nan_sender())


def check_argv(pid, params, out):
    kv = ",".join(f"{k}={v}" for k, v in params.items())
    return ["check", "--preset", pid, "--grid-n", "21", "--out", str(out)] + (["--params", kv] if kv else [])


def separate_verdicts(pid, params):
    """The verdicts of ``optrans check`` but for its config, each from a public
    call on a fresh problem."""

    def fresh():
        return preset(pid, grid_n=21, **params)[0]

    rep = check_assumptions(fresh())
    violations = [{"assumption": a, "at": list(pt), "residual": r} for a, pt, r in rep.violations]
    verdicts = {"assumptions": {"flags": rep.flags(), "violations": violations}}
    for key, check in (
        ("twist", check_twist),
        ("sdpd", check_sdpd_sufficient),
        ("full_disclosure", check_full_disclosure),
        ("nad_condition", check_nad_condition),
    ):
        verdicts[key] = asdict(check(fresh()))
    del verdicts["nad_condition"]["margin"]
    pb = fresh()
    outcome, verdicts["objective"] = solve_primal(build_lp(pb))
    verdicts["classification"] = asdict(classify_monotonicity(pb, outcome))
    return verdicts


class TestCheckBattery:
    """``optrans check`` runs every test on one ``GridTables``."""

    @pytest.mark.parametrize("pid", preset_ids())
    def test_grid_tables_evaluated_once(self, pid, tmp_path):
        calls = Counter()
        build = cli._build

        def counted_build(cfg):
            pb, ps = build(cfg)
            Y, X = pb.grids_product()
            for name in GridTables.KERNELS:

                def g(y, x, name=name, f=getattr(pb, name)):
                    calls[name] += np.shape(y) == Y.shape and np.array_equal(y, Y) and np.array_equal(x, X)
                    return f(y, x)

                setattr(pb, name, g)
            return pb, ps

        with mock.patch.object(cli, "_build", counted_build), mock.patch.object(
            structure, "_sdpd", wraps=structure._sdpd
        ) as sdpd, mock.patch.object(structure, "_coarse_sweep", wraps=structure._coarse_sweep) as sweep:
            assert cli.main(check_argv(pid, {}, tmp_path)) in (0, 2)
        assert calls["V"] == 1 and all(calls[name] <= 1 for name in GridTables.KERNELS), calls
        assert sdpd.call_count <= 1 and sweep.call_count <= 1

    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_verdicts_equal_separate_calls(self, pid, params, tmp_path, capsys):
        rc = cli.main(check_argv(pid, params, tmp_path))
        err = capsys.readouterr().err
        try:
            want = separate_verdicts(pid, params)
        except OptransError as exc:
            assert (rc, err) == (1, f"error [{type(exc).__name__}]: {exc}\n")
            return
        got = json.loads((tmp_path / "verdicts.json").read_text())
        del got["config"]
        # the dumps compare every float bit for bit, NaN too
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


class TestNadCondition:
    def test_reciprocal_gain_holds(self):
        pb, _ = preset("example_c1", grid_n=31)
        rep = check_nad_condition(pb)
        assert rep.label == "holds"
        assert rep.route == "local"

    def test_humped_translation_fails(self):
        pb, _ = preset("translation_sender", grid_n=31, P="humped")
        assert check_nad_condition(pb).label == "fails"

    def test_certificate_instance_fails_below_zero(self):
        pb, _ = preset("example_c3", grid_n=41)
        rep = check_nad_condition(pb)
        assert rep.label == "fails"
        assert rep.witness < 0

    def test_sdpd_skipped_when_not_smooth(self):
        # the local route needs a smooth problem, so the certificate is not run
        pb, _ = preset("quantile", grid_n=21)
        with mock.patch.object(structure, "_sdpd", side_effect=AssertionError("sdpd ran")):
            assert check_nad_condition(pb).route == "sweep"

    def test_vanishing_u_y_at_pivot_raises(self):
        # u = (x - 0.5) e^-y: chi(y) = 0.5 at every action, where u_y vanishes;
        # the local route used to raise a bare ZeroDivisionError
        pb = Problem(
            states=uniform(0.0, 1.0, 21),
            actions=uniform(0.0, 1.0, 21, "action"),
            prior=np.full(21, 1.0 / 21),
            V=lambda y, x: y * x**2 + y,
            u=lambda y, x: (x - 0.5) * np.exp(-y),
        )
        assert check_sdpd_sufficient(pb).label == "dipped_strict"
        with pytest.raises(IllPosed, match=r"u_y = 0\.0 .* at action y = 0\.0, chi\(y\) = 0\.5"):
            check_nad_condition(pb)

    def test_non_finite_criterion_raises(self):
        # V_y is NaN at the pivot (0.5, chi(0.5) = 0.5) only, off the points
        # the grid tables of check_sdpd_sufficient read; a NaN criterion there
        # used to be skipped, since NaN > worst is False
        def V_y(y, x):
            y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
            return np.where((y == 0.5) & (x == 0.5), np.nan, x * x + 1.0)

        pb = Problem(
            states=uniform(0.0, 1.0, 21),
            actions=uniform(0.0, 1.0, 21, "action"),
            prior=np.full(21, 1.0 / 21),
            V=lambda y, x: y * x**2 + y,
            V_y=V_y,
            u=lambda y, x: x - y,
        )
        assert check_sdpd_sufficient(pb).label == "dipped_strict"
        with pytest.raises(IllPosed, match=r"criterion is nan at action y = 0\.5, chi\(y\) = 0\.5"):
            check_nad_condition(pb)

    def test_nan_gain_raises(self):
        # cells below x - 0.1 are forbidden, so the sender-favorable pooled
        # action and the disclosure of a high state are both forbidden: the
        # gain is -inf - -inf, which must not come back as a NaN margin
        pb = Problem(
            states=uniform(0.0, 1.0, 12),
            actions=uniform(0.0, 1.0, 3, "action"),
            prior=np.full(12, 1.0 / 12),
            V=lambda y, x: np.asarray(y, float) + 0.0 * np.asarray(x, float),
            u=lambda y, x: np.asarray(x, float) - np.asarray(y, float),
            tie_break="sender_favorable",
            forbidden=lambda y, x: np.asarray(y, float) < np.asarray(x, float) - 0.1,
        )
        with pytest.raises(IllPosed, match=r"states \(0\.0, 0\.18181818181818182\) is NaN"):
            check_nad_condition(pb)
        with pytest.raises(IllPosed, match="is NaN"):
            check_full_disclosure(pb)

    def test_nan_refined_gain_raises(self):
        # the disclosure of state 0 is forbidden, and so is pooling onto an
        # action below 0.005: the coarse gains are +inf, but the refinement
        # reaches rho = 511 / 512, whose pooled action is forbidden too, and
        # -inf - -inf must not come back as a NaN margin
        pb = Problem(
            states=uniform(0.0, 1.0, 2),
            actions=uniform(0.0, 1.0, 101, "action"),
            prior=np.array([0.5, 0.5]),
            V=lambda y, x: np.asarray(y, float) + 0.0 * np.asarray(x, float),
            u=lambda y, x: np.asarray(x, float) - np.asarray(y, float),
            tie_break="sender_favorable",
            forbidden=lambda y, x: (np.asarray(y, float) < 0.005) & (np.asarray(x, float) < 0.5),
        )
        with pytest.raises(IllPosed, match=r"states \(0\.0, 1\.0\) is NaN"):
            check_full_disclosure(pb)
        assert_sweep_matches_full_table(pb)


def disclosed_values(problem, vals):
    """V(gamma(d_x), x) for the given states; -inf on forbidden cells."""
    ys = gamma_binary(problem, vals, vals, np.ones_like(vals))
    out = np.asarray(problem.V(ys, vals), dtype=float)
    if problem.forbidden is not None:
        out = np.where(problem.forbidden(ys, vals), -np.inf, out)
    return out


def full_table_gain(problem, m=RHO_M):
    """The whole (pair, rho) pooling-gain table, pairs in np.triu_indices
    order and rho = k / m within each pair."""
    vals = problem.states.points[problem.prior > 0]
    i1, i2 = np.triu_indices(vals.size, k=1)
    rhos = (np.arange(1, m) / m).astype(float)
    disc = disclosed_values(problem, vals)
    return structure._split_gain(
        problem,
        np.repeat(vals[i1], rhos.size),
        np.repeat(vals[i2], rhos.size),
        np.tile(rhos, i1.size),
        np.repeat(disc[i1], rhos.size),
        np.repeat(disc[i2], rhos.size),
    )


def refine_pair(problem, x1, x2, d1, d2):
    """The pair's pooling gain on the rho grid k / REFINE_M, one entry per
    rho: (witness, margin) at the first largest gain."""
    fine = (np.arange(1, REFINE_M) / REFINE_M).astype(float)
    n = fine.size
    g2 = structure._split_gain(problem, np.full(n, x1), np.full(n, x2), fine, np.full(n, d1), np.full(n, d2))
    if np.isnan(g2).any():
        raise IllPosed(f"pooling gain of states ({float(x1)!r}, {float(x2)!r}) is NaN")
    kk = int(np.argmax(g2))
    return (float(x1), float(x2), float(fine[kk])), float(g2[kk])


def full_disclosure_tol(problem):
    Y, X = problem.grids_product()
    Vfinite = np.asarray(problem.V(Y, X), dtype=float)
    scale = max(1.0, float(np.max(np.abs(Vfinite[np.isfinite(Vfinite)]))))
    return scale, 1e-9 * scale


def full_table_empty_row(problem, vals, disc, tol):
    """The row test one action row at a time: the state indices (at lo_y,
    at hi_y) of the row with the first largest pooling gain when that gain
    is above tol, else None (also on problems the rows do not judge)."""
    if problem.tie_break != "strict_foc" or problem.obedience != "equality" or problem.forbidden is not None:
        return None
    Y, X = np.meshgrid(problem.actions.points, vals, indexing="ij")
    V = np.asarray(problem.V(Y, X), dtype=float)
    U = np.asarray(problem.u(Y, X), dtype=float)
    if not (np.isfinite(V).all() and np.isfinite(U).all() and np.isfinite(disc).all()):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        Q = (disc - V) / U
    best, best_gain = None, -np.inf
    for k in range(U.shape[0]):
        neg, pos = np.flatnonzero(U[k] < 0), np.flatnonzero(U[k] > 0)
        if not (neg.size and pos.size):
            continue
        j1, j2 = neg[np.argmax(Q[k, neg])], pos[np.argmin(Q[k, pos])]
        u1, u2 = U[k, j1], U[k, j2]
        gain = abs(u1) * u2 / (u2 - u1) * (Q[k, j1] - Q[k, j2])
        if gain > best_gain:
            best, best_gain = (int(j1), int(j2)), gain
    return best if best_gain > tol else None


def full_table_full_disclosure(problem, m=RHO_M):
    """check_full_disclosure computed apart from its code: the row test one
    row at a time, then, unless its refined pair beats splitting, the sweep
    on the whole (pair, rho) table (``full_table_sweep``).  The reference
    the row route and the block-wise sweep must reproduce bit for bit."""
    _, tol = full_disclosure_tol(problem)
    vals = problem.states.points[problem.prior > 0]
    disc = disclosed_values(problem, vals)
    pair = full_table_empty_row(problem, vals, disc, tol)
    if pair is not None:
        a, b = sorted(pair)
        witness, margin = refine_pair(problem, vals[a], vals[b], disc[a], disc[b])
        if margin > tol:
            return FullDisclosureReport("not_optimal", witness=witness, margin=margin)
    return full_table_sweep(problem, m)


def full_table_sweep(problem, m=RHO_M):
    """The sweep-only rule of check_full_disclosure, from before the action
    rows decided, on the whole (pair, rho) table at once, refining the
    near-tie pairs by decreasing per-pair maximum."""
    scale, tol = full_disclosure_tol(problem)
    vals = problem.states.points[problem.prior > 0]
    i1, i2 = np.triu_indices(vals.size, k=1)
    rhos = (np.arange(1, m) / m).astype(float)
    X1 = np.repeat(vals[i1], rhos.size)
    X2 = np.repeat(vals[i2], rhos.size)
    V1 = np.repeat(np.arange(vals.size)[i1], rhos.size)
    V2 = np.repeat(np.arange(vals.size)[i2], rhos.size)
    RHO = np.tile(rhos, i1.size)
    disc = disclosed_values(problem, vals)
    gain = structure._split_gain(problem, X1, X2, RHO, disc[V1], disc[V2])
    worst = float(np.max(gain))

    def refine(k):
        return refine_pair(problem, X1[k], X2[k], disc[V1[k]], disc[V2[k]])

    if worst > tol:
        witness, margin = refine(int(np.argmax(gain)))
        return FullDisclosureReport("not_optimal", witness=witness, margin=margin)
    per_pair = gain.reshape(i1.size, rhos.size).max(axis=1)
    near = [p for p in sorted(range(i1.size), key=lambda p: -per_pair[p]) if per_pair[p] > -tol * 64]
    for p in near[:256]:
        witness, margin = refine(p * rhos.size)
        if margin > tol:
            return FullDisclosureReport("not_optimal", witness=witness, margin=margin)
    span = problem.states.hi - problem.states.lo
    sep2 = ((X2 - X1) / max(span, 1e-300)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(sep2 > 0, gain / sep2, -np.inf)
    label = "optimal_unique" if np.max(normalized) < -STRICT_TOL * scale else "optimal"
    shortcut = structure._linear_receiver_shortcut(GridTables(problem))
    decided = "convex_supermodular_shortcut" if shortcut else "sweep"
    return FullDisclosureReport(label, witness=None, margin=worst, decided_by=decided)


def full_table_nad_sweep(problem):
    """check_nad_condition's sweep route on the whole (pair, rho) table."""
    vals = problem.states.points[problem.prior > 0]
    i1, i2 = np.triu_indices(vals.size, k=1)
    per_pair = full_table_gain(problem).reshape(i1.size, RHO_M - 1).max(axis=1)
    k = int(np.argmin(per_pair))
    if per_pair[k] <= STRICT_TOL:
        witness = (float(vals[i1[k]]), float(vals[i2[k]]))
        return NadConditionReport("fails", witness=witness, route="sweep", margin=float(per_pair[k]))
    return NadConditionReport("holds", route="sweep", margin=float(per_pair.min()))


def sweep_route_nad_condition(problem):
    """check_nad_condition forced onto its sweep route."""
    neither = SdpdReport(label="neither", dipped_weak=False, peaked_weak=False)
    with mock.patch.object(structure, "_sdpd", lambda tables: neither):
        return check_nad_condition(problem)


def assert_sweep_matches_full_table(problem):
    if np.isnan(full_table_gain(problem)).any():
        with pytest.raises(IllPosed, match="is NaN"):
            check_full_disclosure(problem)
        with pytest.raises(IllPosed, match="is NaN"):
            sweep_route_nad_condition(problem)
        return
    try:
        expected = repr(full_table_full_disclosure(problem))
    except IllPosed as exc:  # a NaN refined gain
        with pytest.raises(IllPosed, match=re.escape(str(exc))):
            check_full_disclosure(problem)
    else:
        # repr compares floats bit for bit
        assert repr(check_full_disclosure(problem)) == expected
    assert repr(sweep_route_nad_condition(problem)) == repr(full_table_nad_sweep(problem))


@st.composite
def pooling_problems(draw):
    """Small problems for the pooling sweeps: some states off the prior, a
    receiver that bisects its first-order condition or snaps to the
    sender-favorable grid action, V with exact ties (constant, or linear in
    the action so that pooling and splitting agree up to rounding) or
    curvature, and optionally forbidden cells (which may forbid disclosure
    too, so that -inf meets -inf and the gain is NaN)."""
    nx = draw(st.integers(2, 12))
    ny = draw(st.integers(3, 9))
    weights = np.array([draw(st.sampled_from([0.0, 1.0, 2.0])) for _ in range(nx)])
    if np.count_nonzero(weights) < 2:
        weights[[0, -1]] = 1.0
    shape = draw(st.sampled_from(["constant", "linear", "curved"]))
    a, b, c = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    mag = draw(st.sampled_from([1.0, 1e3]))

    def V(y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        if shape == "constant":
            return mag * (a + 0.0 * y)
        if shape == "linear":
            return mag * (a * y + b * x)
        return mag * (a * y + b * y * y + c * np.sin(3.0 * x * y))

    forbid = draw(st.sampled_from([None, "far_below", "band"]))
    width = draw(st.sampled_from([0.1, 0.3]))

    def forbidden(y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        if forbid == "far_below":
            return y < x - width
        return np.abs(y - x) > width

    problem = Problem(
        states=uniform(0.0, 1.0, nx),
        actions=uniform(0.0, 1.0, ny, "action"),
        prior=weights / weights.sum(),
        V=V,
        u=lambda y, x: np.asarray(x, float) - np.asarray(y, float),
        tie_break=draw(st.sampled_from(["strict_foc", "sender_favorable"])),
        forbidden=None if forbid is None else forbidden,
    )
    return problem, draw(st.sampled_from([1, 7, 256, 10**6]))


class TestPoolingSweepAgainstFullTable:
    @pytest.mark.parametrize("grid_n", [21, 41])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_presets(self, pid, grid_n):
        pb, _ = preset(pid, grid_n=grid_n)
        assert_sweep_matches_full_table(pb)

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    @pytest.mark.parametrize("pid", ["example_c1", "contest", "quantile", "stress_test"])
    def test_block_sizes(self, pid, block, monkeypatch):
        pb, _ = preset(pid, grid_n=21)  # at most 210 pairs, so 10**6 is one block
        monkeypatch.setattr(structure, "PAIR_BLOCK", block)
        assert_sweep_matches_full_table(pb)

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("bump_at", [0.1, 0.6])
    def test_near_tie_refinement(self, bump_at, block, monkeypatch):
        # V = c y^2 + a narrow bump between two coarse rho samples: on the
        # k / 64 grid every gain is at most the tolerance, and 74 pairs lie
        # within 64 tolerances, spread over several blocks.  The bump lifts
        # the coarse gain of the neighbouring pair (bump_at, bump_at + 0.05)
        # above every other, so that pair is refined first wherever the bump
        # sits, and its fine re-sweep beats splitting.
        step = 0.05 / RHO_M  # coarse rho samples of every pair lie on this lattice
        y0 = bump_at + 0.5 * step

        def V(y, x):
            y = np.asarray(y, float) + 0.0 * np.asarray(x, float)
            return 1e-4 * y * y + 1e-5 * np.exp(-(((y - y0) / 1e-4) ** 2))

        pb = Problem(
            states=uniform(0.0, 1.0, 21),
            actions=uniform(0.0, 1.0, 21, "action"),
            prior=np.full(21, 1.0 / 21),
            V=V,
            u=lambda y, x: np.asarray(x, float) - np.asarray(y, float),
        )
        monkeypatch.setattr(structure, "PAIR_BLOCK", block)
        rep = check_full_disclosure(pb)
        i = round(bump_at * 20)
        assert rep.label == "not_optimal"
        assert rep.witness[:2] == (float(pb.states.points[i]), float(pb.states.points[i + 1]))
        assert repr(rep) == repr(full_table_full_disclosure(pb))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pooling_problems())
    def test_random_problems(self, case):
        pb, block = case
        with mock.patch.object(structure, "PAIR_BLOCK", block):
            assert_sweep_matches_full_table(pb)


CASES = [(pid, {}) for pid in preset_ids()] + VARIANTS


def full_disclosure_route(problem, caplog):
    """check_full_disclosure and the route its DEBUG record names."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="optrans.structure"):
        rep = check_full_disclosure(problem)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.structure"]
    assert line.startswith("full disclosure: "), line
    return rep, line[len("full disclosure: ") :]


class TestFullDisclosureRows:
    @pytest.mark.parametrize("grid_n", [41, 101])
    @pytest.mark.parametrize("pid,params", CASES, ids=[f"{p}{q or ''}" for p, q in CASES])
    def test_labels_and_witnesses(self, pid, params, grid_n, caplog):
        pb, _ = preset(pid, grid_n=grid_n, **params)
        rep, route = full_disclosure_route(pb, caplog)
        assert rep.label == full_table_sweep(pb).label
        if route.startswith("rows"):
            x1, x2, rho = rep.witness
            xs = np.array([x1, x2])
            d1, d2 = disclosed_values(pb, xs)
            gain = structure._split_gain(pb, xs[:1], xs[1:], np.array([rho]), d1, d2)
            assert repr(float(gain[0])) == repr(rep.margin)
            assert rep.margin > full_disclosure_tol(pb)[1]

    def test_debug_record_names_the_route(self, caplog):
        pb, _ = preset("example_c1", grid_n=41)
        _, route = full_disclosure_route(pb, caplog)
        assert re.fullmatch(r"rows, empty at y=\S+ with gain \S+", route), route
        # contest's high range has an empty row, but its gain is below tol
        reasons = [
            (preset("quantile", grid_n=41)[0], "sweep (not strict_foc)"),
            (preset("contest", grid_n=101, xmin=1.0, xmax=2.0)[0], "sweep (no empty row: largest row gain 2.56e-17)"),
            (self.small_problem(obedience="inequality"), "sweep (inequality obedience)"),
            (self.small_problem(forbidden=lambda y, x: np.abs(y - x) > 0.5), "sweep (forbidden cells)"),
            (self.small_problem(V=lambda y, x: np.where(y > x + 0.95, -np.inf, y * y)), "sweep (non-finite table)"),
        ]
        for pb, want in reasons:
            assert full_disclosure_route(pb, caplog)[1] == want

    @staticmethod
    def small_problem(**kw):
        """V = y^2, u = x - y on 11 states and actions, with ``kw`` set."""
        args = dict(
            states=uniform(0.0, 1.0, 11),
            actions=uniform(0.0, 1.0, 11, "action"),
            prior=np.full(11, 1.0 / 11),
            V=lambda y, x: y * y + 0.0 * x,
            u=lambda y, x: x - y,
        )
        return Problem(**{**args, **kw})


class TestPoolingSweepMemory:
    @pytest.mark.parametrize("pid", ["example_c1", "contest"])
    def test_peak_below_16_mb_at_n121(self, pid):
        pb, _ = preset(pid, grid_n=121)
        tracemalloc.start()
        try:
            check_full_disclosure(pb)
            route = check_nad_condition(pb).route
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert route == ("local" if pid == "example_c1" else "sweep")
        assert peak < 16 * 2**20


class TestExtractChi:
    def test_closed_form_pairs(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        pb, out, pr, lp = (
            bundle["problem"],
            bundle["outcome"],
            bundle["prices"],
            bundle["lp"],
        )
        import optrans.lp as lpmod

        cs = contact_set(pb, pr, lp=lp)
        sup = set(int(i) for i in out.support_rows())
        cs = lpmod.ContactSet(
            pairs=tuple(p for p in cs.pairs if p[0] in sup),
            actions=np.array(sorted(sup)),
            posteriors=cs.posteriors,
            tol=cs.tol,
            slack=cs.slack,
        )
        pair = extract_chi(pb, cs)
        ys = pair.actions
        inner = ys > 1.02
        h = pb.states.max_spacing
        c1_ref = ys[inner] - np.sqrt(ys[inner] ** 2 - 1)
        c2_ref = ys[inner] + np.sqrt(ys[inner] ** 2 - 1)
        assert np.max(np.abs(pair.chi1[inner] - c1_ref)) <= 2 * h
        assert np.max(np.abs(pair.chi2[inner] - c2_ref)) <= 2 * h

    def test_full_disclosure_collapses_pairs(self, solved_cache):
        bundle = solved_cache("contest", grid_n=41, xmin=1.0, xmax=2.0)
        pb, pr, lp, out = (
            bundle["problem"],
            bundle["prices"],
            bundle["lp"],
            bundle["outcome"],
        )
        import optrans.lp as lpmod

        cs = contact_set(pb, pr, lp=lp)
        sup = set(int(i) for i in out.support_rows())
        cs = lpmod.ContactSet(
            pairs=tuple(p for p in cs.pairs if p[0] in sup),
            actions=np.array(sorted(sup)),
            posteriors=cs.posteriors,
            tol=cs.tol,
            slack=cs.slack,
        )
        pair = extract_chi(pb, cs)
        assert np.max(pair.chi2 - pair.chi1) <= 2 * pb.states.max_spacing

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((3, 2), (3, 8), (4, 3), (4, 9)), "lower pair state at action {} is interior to an earlier pair"),
            (((3, 2), (3, 9), (4, 3), (4, 8), (5, 1), (5, 10)), "upper pair state decreases at action {}"),
        ],
    )
    def test_pair_rules_up_to_snap_x(self, pairs, message):
        # the rows cross by one action cell, which classification discounts
        # as snapping; the pair rules hold within the default snap_x only
        pb = linear_problem(11)
        cs = ContactSet(pairs, np.unique([iy for iy, _ in pairs]), {}, 0.0, np.zeros((11, 11)))
        assert classify_monotonicity(pb, cs).label == "strictly_single_dipped"
        pair = extract_chi(pb, cs)
        assert pair.chi1.tolist() == [pb.states.points[ix] for iy, ix in pairs[::2]]
        assert pair.chi2.tolist() == [pb.states.points[ix] for iy, ix in pairs[1::2]]
        with pytest.raises(NotStrictlyDipped, match=re.escape(message.format(repr(float(pb.actions.points[4]))))):
            extract_chi(pb, cs, snap_x=0.0)

    def test_median_matching_rejected(self):
        pb = linear_problem(5)
        rows = [(0.5, [0.25, 0.75]), (0.75, [0.5, 1.0])]
        rep = classify_monotonicity(pb, rows)
        assert rep.label == "neither"
        # extract refuses anything that does not classify strictly dipped
        import optrans.lp as lpmod

        cs = lpmod.ContactSet(
            pairs=((2, 0), (2, 2), (3, 1), (3, 3)),
            actions=np.array([2, 3]),
            posteriors={},
            tol=1e-6,
            slack=np.zeros((5, 5)),
        )
        pb2 = Problem(
            states=uniform(0.25, 1.0, 4),
            actions=uniform(0.0, 1.0, 5, "action"),
            prior=np.full(4, 0.25),
            V=lambda y, x: y + 0.0 * x,
            u=lambda y, x: x - y,
        )
        with pytest.raises(NotStrictlyDipped):
            extract_chi(pb2, cs, snap_x=0.0)
