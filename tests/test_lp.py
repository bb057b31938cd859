import numpy as np
import pytest

from optrans import Posterior, Problem, uniform
from optrans.errors import SizeLimit
from optrans.lp import (
    build_lp,
    contact_set,
    solve_dual,
    solve_primal,
    verify_complementary_slackness,
)
from optrans.presets import preset, preset_ids

E = float(np.e)


def two_state_problem(V, n_actions=101):
    return Problem(
        states=uniform(0.0, 1.0, 2),
        actions=uniform(0.0, 1.0, n_actions, "action"),
        prior=np.array([0.5, 0.5]),
        V=V,
        u=lambda y, x: x - y,
        u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        u_x=lambda y, x: 1.0 + 0.0 * (x + y),
    )


class TestBuild:
    def test_dimension_counts(self):
        pb = Problem(
            states=uniform(0, 1, 2),
            actions=uniform(0, 1, 2, "action"),
            prior=np.array([0.5, 0.5]),
            V=lambda y, x: y + 0 * x,
            u=lambda y, x: x - y,
        )
        lp = build_lp(pb)
        assert lp.dims()["mass_variables"] == 4
        assert lp.dims()["rows"] == 4

    def test_unit_grid_dims(self):
        pb, _ = preset("linear_receiver", grid_n=101)
        lp = build_lp(pb)
        assert lp.dims()["mass_variables"] == 101 * 101
        assert lp.dims()["rows"] == 202

    def test_quantile_row_coefficients(self):
        pb, _ = preset("quantile", grid_n=11, kappa=0.3)
        lp = build_lp(pb)
        # obedience coefficient of cell (y, x) is 1{x >= y} - kappa exactly
        for j in range(0, lp.n_mass, 17):
            iy, ix = lp.col_y[j], lp.col_x[j]
            want = (pb.states.points[ix] >= pb.actions.points[iy]) - 0.3
            assert lp.Umat[iy, ix] == pytest.approx(want)

    def test_size_limit(self):
        pb, _ = preset("linear", grid_n=201)
        with pytest.raises(SizeLimit):
            build_lp(pb, size_limit=10_000)


class TestSolve:
    def test_convex_sender_prefers_full_disclosure(self):
        pb = two_state_problem(lambda y, x: y**2 + 0.0 * x)
        lp = build_lp(pb)
        out, obj = solve_primal(lp)
        assert obj == pytest.approx(0.5, abs=1e-10)
        assert out.mass[0, 0] == pytest.approx(0.5)
        assert out.mass[-1, 1] == pytest.approx(0.5)

    def test_concave_sender_pools(self):
        pb = two_state_problem(lambda y, x: -((y - 0.5) ** 2) + 0.0 * x)
        lp = build_lp(pb)
        out, obj = solve_primal(lp)
        assert obj == pytest.approx(0.0, abs=1e-12)
        iy = pb.actions.nearest(0.5)
        assert out.row_masses()[iy] == pytest.approx(1.0)

    def test_log_symmetric_objective_matches_sampled_closed_form(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        assert abs(bundle["objective"] - bundle["meta"].oracle["objective"]) < 1e-3

    @pytest.mark.parametrize("pid", ["example_c1", "example_c3", "linear"])
    def test_full_disclosure_start_needs_no_phase_one(self, pid):
        # every state has a cell with u = 0, so the start basis is feasible
        lp = build_lp(preset(pid, grid_n=21)[0])
        solve_primal(lp)
        assert lp.solution.phase1_iterations == 0
        assert lp.solution.iterations > 0

    def test_states_without_zero_cell_run_phase_one(self):
        lp = build_lp(preset("contest", grid_n=21)[0])
        solve_primal(lp)
        assert lp.solution.phase1_iterations > 0

    def test_rank_estimate_counts_kept_rows(self):
        pb, _ = preset("stress_test", grid_n=21)
        lp = build_lp(pb)
        assert lp.dims()["rank_estimate"] is None
        solve_primal(lp)
        assert lp.dims()["rank_estimate"] == lp.n_rows - len(lp.solution.dropped_rows)
        A = lp.A.toarray()
        assert lp.rank_estimate == np.linalg.matrix_rank(A)

    def test_residuals_within_contract(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        assert bundle["outcome"].marginal_residual <= 1e-9
        assert bundle["outcome"].obedience_residual <= 1e-9


class TestDuals:
    def test_duality_gap_tiny_everywhere(self, solved_cache):
        for pid in ("linear", "contest", "quantile", "example_c3"):
            bundle = solved_cache(pid, grid_n=41)
            gap = abs(bundle["prices"].dual_objective - bundle["objective"])
            assert gap <= 1e-8 * (1 + abs(bundle["objective"])), pid

    def test_feasibility_residual(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        assert bundle["prices"].feasibility_residual >= -1e-7

    def test_obedience_multiplier_tracks_action(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        out, pr, pb = bundle["outcome"], bundle["prices"], bundle["problem"]
        rows = out.support_rows()
        assert np.max(np.abs(pr.q[rows] - pb.actions.points[rows])) < 1e-2

    def test_prices_match_certificate_closed_form(self, solved_cache):
        bundle = solved_cache("example_c3", grid_n=81)
        pb, meta, out, pr = (
            bundle["problem"],
            bundle["meta"],
            bundle["outcome"],
            bundle["prices"],
        )
        assert np.max(np.abs(pr.p - meta.oracle["p"](pb.states.points))) < 1e-2
        rows = out.support_rows()
        qc = meta.oracle["q"](pb.actions.points[rows])
        # disclosed rows pin q through the row ratio; paired rows through the
        # basis dual
        single = np.array([np.count_nonzero(out.mass[iy] > 1e-9) == 1 for iy in rows])
        q_est = np.where(single, pr.q_row[rows], pr.q[rows])
        assert np.nanmax(np.abs(q_est - qc)) < 1e-2


class TestContactSet:
    def test_support_included(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        cs = contact_set(bundle["problem"], bundle["prices"], lp=bundle["lp"])
        cells = set(zip(*np.nonzero(bundle["outcome"].mass > 1e-9)))
        assert cells <= set(cs.pairs)

    def test_full_disclosure_contains_diagonal(self, solved_cache):
        bundle = solved_cache("contest", grid_n=41, xmin=1.0, xmax=2.0)
        pb = bundle["problem"]
        cs = contact_set(pb, bundle["prices"], lp=bundle["lp"])
        pairs = set(cs.pairs)
        for ix, x in enumerate(pb.states.points):
            iy = pb.actions.nearest(x / (1 + x * x))
            assert (iy, ix) in pairs

    def test_skewed_prior_splits_low_states_across_rows(self, solved_cache):
        # with extra mass below zero, low states mix between disclosure at
        # y = x and pooling at y = -x, so they show up in two contact rows
        bundle = solved_cache("example_c3", grid_n=81, prior="skewed")
        pb, out = bundle["problem"], bundle["outcome"]
        split_found = False
        for ix, x in enumerate(pb.states.points):
            if not (-0.9 < x < -0.1):
                continue
            rows = np.nonzero(out.mass[:, ix] > 1e-9)[0]
            if rows.size < 2:
                continue
            ys = pb.actions.points[rows]
            near_disclose = np.any(np.abs(ys - x) <= 2 * pb.actions.max_spacing)
            near_pool = np.any(np.abs(ys + x) <= 2 * pb.actions.max_spacing)
            if near_disclose and near_pool:
                split_found = True
                break
        assert split_found

    def test_two_state_rows_reconstruct_posteriors(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        pb = bundle["problem"]
        cs = contact_set(pb, bundle["prices"], lp=bundle["lp"])
        found = 0
        for iy, post in cs.posteriors.items():
            if post is None or len(post.support) != 2:
                continue
            found += 1
            xs = post.states(pb.states)
            y = pb.actions.points[iy]
            foc = float(post.weights @ pb.u(np.full(2, y), xs))
            assert abs(foc) < 1e-12
        assert found > 0


class TestComplementarySlackness:
    def test_closed_form_instance_residuals(self, solved_cache):
        bundle = solved_cache("example_c1", grid_n=101)
        rep = verify_complementary_slackness(
            bundle["problem"], bundle["outcome"], bundle["prices"]
        )
        assert rep.applicable
        assert rep.max_q_residual <= 5e-2
        assert rep.max_foc_residual <= 5e-2

    def test_pooling_optimum_single_row(self):
        pb = two_state_problem(lambda y, x: -((y - 0.5) ** 2) + 0.0 * x)
        lp = build_lp(pb)
        out, _ = solve_primal(lp)
        pr = solve_dual(lp, out)
        rep = verify_complementary_slackness(pb, out, pr)
        # one equation, one unknown: the row ratio gives the multiplier
        # exactly, and the basis dual agrees to within a grid cell
        iy = pb.actions.nearest(0.5)
        assert pr.q_row[iy] == pytest.approx(0.0, abs=1e-12)
        assert rep.max_q_residual <= 2.0 * pb.actions.max_spacing

    def test_generic_three_state_pooling_is_stationarity_infeasible(self):
        # V_y at the pooled action outside the span of (u, u_y) across the
        # three states: no multiplier pair can make pooling stationary
        n = 3
        pb = Problem(
            states=uniform(0.0, 1.0, n),
            actions=uniform(0.0, 1.0, 41, "action"),
            prior=np.full(n, 1.0 / n),
            V=lambda y, x: y * (1.0 + np.sin(5.0 * x)),
            u=lambda y, x: x - y,
            V_y=lambda y, x: 1.0 + np.sin(5.0 * x) + 0.0 * y,
            u_y=lambda y, x: -1.0 + 0.0 * (x + y),
            u_x=lambda y, x: 1.0 + 0.0 * (x + y),
        )
        xs = pb.states.points
        y0 = float(xs @ pb.prior)
        vy = 1.0 + np.sin(5.0 * xs)
        basis = np.vstack([xs - y0, -np.ones(n)]).T
        resid = vy - basis @ np.linalg.lstsq(basis, vy, rcond=None)[0]
        assert np.max(np.abs(resid)) > 1e-3
        lp = build_lp(pb)
        out, _ = solve_primal(lp)
        pooled_row = pb.actions.nearest(y0)
        assert out.row_masses()[pooled_row] < 1.0 - 1e-9


class TestSolvedOnce:
    def test_dual_side_reuses_the_primal_solve(self, monkeypatch):
        pb, _ = preset("example_c1", grid_n=21)
        lp = build_lp(pb)
        out, _ = solve_primal(lp)

        def solve_again(*args, **kwargs):
            raise AssertionError("the LP was solved a second time")

        monkeypatch.setattr("optrans.lp.solve_standard_form", solve_again)
        prices = solve_dual(lp, out)
        cs = contact_set(pb, prices, lp=lp)
        rep = verify_complementary_slackness(pb, out, prices)
        assert cs.pairs
        assert rep.applicable and rep.rows

    @pytest.mark.parametrize("pid", preset_ids())
    def test_u_y_probe_decides_row_multipliers(self, solved_cache, pid):
        bundle = solved_cache(pid, grid_n=21)
        pb, prices = bundle["problem"], bundle["prices"]
        rep = verify_complementary_slackness(pb, bundle["outcome"], prices)
        vanishes = pb.u_y_vanishes()
        assert vanishes == (pid in ("example_c2", "quantile"))
        assert rep.applicable == (not vanishes)
        assert bool(np.all(np.isnan(prices.q_row))) == vanishes
