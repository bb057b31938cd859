import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrans import Posterior, Problem, gamma, uniform
from optrans.errors import IllPosed, NoRoot, NotStrictlyDipped
from optrans.lp import build_lp, contact_set, solve_dual, solve_primal
from optrans.model import chi
from optrans.presets import preset, preset_ids
from optrans.structure import (
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


def brute_force_twist(problem, zero_tol=1e-12):
    """check_twist's verdict from scalar twist_determinant on every triple:
    per (y, x1) block the running scale takes the block's largest |det|, the
    first valid triple fixes the sign, and the first triple off that sign
    (zero within the tolerance included) is the witness."""
    xs = problem.states.points
    sign_seen, scale = 0, 1.0
    for y in problem.actions.points:
        try:
            pivot = chi(problem, float(y))
        except NoRoot:
            continue
        for i in np.nonzero(xs < pivot)[0]:
            block = [
                ((j, k), twist_determinant(problem, y, xs[i], xs[j], xs[k]))
                for j in range(i + 1, xs.size)
                for k in range(j + 1, xs.size)
                if xs[k] > pivot
            ]
            if not block:
                continue
            scale = max(scale, max(abs(d) for _, d in block))
            tol = zero_tol * scale
            for (j, k), d in block:
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
    merely small, and a large magnitude of V_y puts them between the zero
    tolerance of the running scale and that of the block's own scale."""
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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(smooth_problems())
    def test_random_smooth_problems(self, case):
        pb, zero_tol = case
        assert check_twist(pb, zero_tol=zero_tol) == brute_force_twist(pb, zero_tol)


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
            mu = out.row_posterior(int(iy), tol=1e-9)
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
