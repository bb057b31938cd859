import logging
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from optrans import Posterior, Problem, cli, uniform
from optrans.errors import DegenerateBasis, IllPosed, Infeasible, SizeLimit
from optrans.grids import Grid, from_points
from optrans.lp import (
    OBEYED_ULPS,
    SIFT_BAND,
    SIFT_MIN_STATES,
    _coarsen,
    _crash_basis,
    _every_other,
    _mapped_basis,
    build_lp,
    contact_set,
    solve_dual,
    solve_primal,
    verify_complementary_slackness,
)
from optrans.model import MASS_TOL, GridTables
from optrans.presets import preset, preset_ids
from optrans.simplex import PIVOT_TOL, SimplexResult, solve_standard_form
from test_model import nan_sender
from test_presets import VARIANTS

E = float(np.e)


def shifted_contest(n):
    """contest on actions halfway between its own, which are the images
    x/(1+x²) of its states: |u| stays well away from 0 on every cell, so no
    state is obeyed on its own."""
    pb = preset("contest", grid_n=n)[0]
    pts = pb.actions.points
    return replace(pb, actions=from_points((pts[:-1] + pts[1:]) / 2, "action"))


def q_from_row(problem, outcome, iy):
    """Reference for the row ratio of ``verify_complementary_slackness``:
    minus the ratio of the row's expected V_y to its expected u_y, from
    V_y and u_y evaluated at the row's mass-carrying states."""
    row = outcome.mass[iy]
    keep = row > 0
    w = row[keep] / row[keep].sum()
    xs = problem.states.points[keep]
    y = np.full(xs.shape, problem.actions.points[iy])
    num = w @ problem.V_y(y, xs)
    den = w @ problem.u_y(y, xs)
    return float(-num / den)


def coarsened_problem(problem):
    """Reference for ``_coarsen``: the problem on every other state and
    action, its prior restricted to the kept states and renormalized, for
    ``build_lp`` to evaluate V and u on its own grids; None when the kept
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


def reference_mapped_basis(lp, coarse, basis, crash):
    """Reference for ``_mapped_basis``, with ``coarse`` the LP of
    ``coarsened_problem(lp.problem)``: each basic cell of ``basis`` found by
    its grid point, each slack column by its row, and the free bottom row's
    two surplus columns, last in both LPs, kept last."""
    pb = lp.problem
    ks, ka = _every_other(pb.n_states), _every_other(pb.n_actions)
    cell = np.full((pb.n_actions, pb.n_states), -1)
    cell[lp.col_y, lp.col_x] = np.arange(lp.n_mass)

    def slacks(x):  # rows of the slack columns; surplus columns follow
        return x.slack_rows[: int(x.problem.constrained_rows().sum())]

    fine_slacks, coarse_slacks = slacks(lp), slacks(coarse)
    extra = np.concatenate(
        [
            np.searchsorted(fine_slacks, ka[coarse_slacks]),
            fine_slacks.size + np.arange(coarse.slack_rows.size - coarse_slacks.size),
        ]
    )
    column = np.concatenate([cell[ka[coarse.col_y], ks[coarse.col_x]], lp.n_mass + extra, np.full(coarse.n_rows, -1)])
    warm = crash.copy()
    warm[np.concatenate([ks, pb.n_states + ka])] = column[basis]
    return warm


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

    def test_non_finite_kept_cell_raises(self):
        # a NaN V used to reach the simplex and come back as objective NaN
        with pytest.raises(IllPosed, match=r"V = nan and u = 0\.0 at the kept cell \(y, x\) = \(0\.0, 0\.0\)"):
            build_lp(nan_sender())

    def test_size_limit(self, monkeypatch):
        pb, _ = preset("linear", grid_n=201)
        monkeypatch.setattr("optrans.lp.SIZE_LIMIT", 10_000)
        with pytest.raises(SizeLimit):
            build_lp(pb)


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
        # every state has a cell with u = 0, so the start basis is feasible;
        # on linear full disclosure is optimal and the start certifies it
        lp = build_lp(preset(pid, grid_n=21)[0])
        solve_primal(lp)
        assert lp.solution.phase1_iterations == 0
        assert (lp.solution.iterations == 0) == (pid == "linear")

    def test_states_without_zero_cell_run_phase_one(self):
        lp = build_lp(shifted_contest(21))
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
        q_row = np.array([q_from_row(pb, out, int(iy)) for iy in rows])
        q_est = np.where(single, q_row, pr.q[rows])
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
        assert q_from_row(pb, out, iy) == pytest.approx(0.0, abs=1e-12)
        assert rep.max_q_residual <= 2.0 * pb.actions.max_spacing

    @pytest.mark.parametrize("n", [41, 101])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_residuals_match_kernels_at_the_support(self, solved_cache, pid, n):
        # the grid tables give each residual the bits of V_y, u_y and u
        # evaluated at the row's own states
        bundle = solved_cache(pid, grid_n=n)
        pb, out, q = bundle["problem"], bundle["outcome"], bundle["prices"].q
        rep = verify_complementary_slackness(GridTables(pb), out, bundle["prices"])
        rows = out.support_rows() if rep.applicable else ()
        assert len(rep.rows) == len(rows)
        for k, (iy, row) in enumerate(zip(rows, rep.rows)):
            assert row.q_residual == abs(q[iy] - q_from_row(pb, out, int(iy)))
            lo, hi = rows[max(0, k - 1)], rows[min(len(rows) - 1, k + 1)]
            qd = (q[hi] - q[lo]) / (pb.actions.points[hi] - pb.actions.points[lo]) if hi != lo else 0.0
            xs = pb.states.points[out.mass[iy] > MASS_TOL]
            y = np.full(xs.shape, pb.actions.points[iy])
            foc = pb.V_y(y, xs) + q[iy] * pb.u_y(y, xs) + qd * pb.u(y, xs)
            assert row.foc_residual == float(np.max(np.abs(foc)))

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


class TestDegenerateDual:
    """No catalog preset ends with infeasible basis duals, so this shifts the
    basis dual of one support row and lets ``solve_dual`` refuse it."""

    @staticmethod
    def shifted(pid):
        pb, _ = preset(pid, grid_n=21)
        lp = build_lp(pb)
        out, _ = solve_primal(lp)
        rows = out.support_rows()
        lp.solution.duals[pb.n_states + rows[rows.size // 2]] += 5.0
        return lp, out

    def test_failed_recovery_raises(self):
        lp, out = self.shifted("example_c1")
        with pytest.raises(DegenerateBasis, match="dual recovery failed"):
            solve_dual(lp, out)


def direct_objective(lp):
    """The simplex over all columns from the crash basis, without sifting."""
    return solve_standard_form(lp.A, lp.b, lp.c, start=_crash_basis(lp)).objective


class TestSifting:
    """State grids above SIFT_MIN_STATES are solved coarse to fine; the
    answer must be the direct simplex's, certified by pricing every column.
    n=41, below it, is solved directly and held to the same checks."""

    @pytest.mark.parametrize("n", [41, 61, 101])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_matches_direct_path_and_highs(self, solved_cache, pid, n):
        bundle = solved_cache(pid, grid_n=n)
        lp, obj = bundle["lp"], bundle["objective"]
        # no preset LP has a redundant row, so no artificial is ever pinned
        assert lp.solution.dropped_rows == () and np.all(lp.solution.basis < lp.c.size)
        direct = direct_objective(lp)
        assert abs(obj - direct) <= 1e-12 * abs(direct)
        ref = linprog(
            -lp.c,
            A_eq=lp.A,
            b_eq=lp.b,
            bounds=(0, None),
            method="highs-ipm",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0, ref.message
        assert abs(obj + ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        # a pricing pass over all columns with the returned duals
        assert np.max(lp.c - lp.A.T @ lp.solution.duals) <= 1e-9
        # solve_dual accepts the basis duals without falling back
        assert bundle["prices"].degenerate is False

    def test_phase_one_runs_over_all_columns(self, caplog):
        # the crash of the shifted contest leaves every state row
        # artificial, which a working set of near-tight cells cannot cover:
        # the working set must not decide feasibility
        lp = build_lp(shifted_contest(201))
        with caplog.at_level(logging.DEBUG, logger="optrans.lp"):
            _, obj = solve_primal(lp)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.lp"]
        assert re.search(r"n=201: [^;]* [1-9]\d* in phase 1, [^;]*$", line)
        direct = direct_objective(lp)
        assert abs(obj - direct) <= 1e-12 * abs(direct)

    @staticmethod
    def simplex_calls(monkeypatch):
        """The column count and working set of each simplex call from here
        on."""
        calls = []

        def counted(A, *args, work=None, **kwargs):
            calls.append((A.shape[1], work))
            return solve_standard_form(A, *args, work=work, **kwargs)

        monkeypatch.setattr("optrans.lp.solve_standard_form", counted)
        return calls

    def test_small_grid_takes_the_direct_path(self, monkeypatch):
        calls = self.simplex_calls(monkeypatch)
        lp = build_lp(preset("example_c1", grid_n=SIFT_MIN_STATES)[0])
        solve_primal(lp)
        assert calls == [(lp.c.size, None)]

    def test_large_grid_is_sifted(self, monkeypatch):
        # n=121 is sifted from n=61, which is sifted from n=31
        calls = self.simplex_calls(monkeypatch)
        lp = build_lp(preset("example_c1", grid_n=2 * SIFT_MIN_STATES + 1)[0])
        solve_primal(lp)
        assert len(calls) == 3 and calls[-1][0] == lp.c.size
        assert calls[0][1] is None
        for size, work in calls[1:]:
            assert work.shape == (size,) and 0 < work.sum() < size

    def test_infeasible_fine_level_runs_phase_one_once(self, monkeypatch, caplog):
        # state 1 has no kept cell; the half grid drops it and is feasible,
        # so the fine level's phase 1 over all columns is the final answer
        problem = preset("example_c1", grid_n=101)[0]
        x1 = problem.states.points[1]
        lp = build_lp(replace(problem, forbidden=lambda y, x: (x == x1) & (y == y)))
        calls = self.simplex_calls(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="optrans.lp"), pytest.raises(Infeasible):
            solve_primal(lp)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.lp"]
        assert re.fullmatch(r"outcome LP: n=51: [^;]+; n=101: infeasible", line)
        assert [size for size, _ in calls].count(lp.c.size) == 1

    def test_infeasible_coarse_level_falls_back_to_direct(self, caplog):
        # only odd actions are allowed, and the coarse grid keeps the even
        # ones: it has no column, while the fine LP pools even states
        n = SIFT_MIN_STATES + 1
        pb = Problem(
            states=uniform(0.0, 1.0, n),
            actions=uniform(0.0, 1.0, n, "action"),
            prior=np.full(n, 1.0 / n),
            V=lambda y, x: y * y + 0.0 * x,
            u=lambda y, x: x - y,
            forbidden=lambda y, x: np.round(y * (n - 1)) % 2 == 0,
        )
        lp = build_lp(pb)
        with caplog.at_level(logging.DEBUG, logger="optrans.lp"):
            _, obj = solve_primal(lp)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.lp"]
        assert line.startswith(f"outcome LP: n={n // 2 + 1}: infeasible; n={n}: ")
        assert abs(obj - direct_objective(lp)) <= 1e-12 * abs(obj)


EQUALITY_PRESETS = [pid for pid in preset_ids() if preset(pid, grid_n=41)[0].obedience == "equality"]


class TestStart:
    """Each level starts next to its optimum: the crash prices each action
    row at an end of its interval of q, and a finer level starts from the
    coarse optimal basis."""

    @pytest.mark.parametrize("pid", EQUALITY_PRESETS)
    def test_crash_prices_each_row_at_an_end_of_its_interval(self, pid):
        lp = build_lp(preset(pid, grid_n=41)[0])
        nx, ny = lp.problem.n_states, lp.problem.n_actions
        U, V = lp.Umat, lp.Vmat
        kept = np.zeros(U.shape, dtype=bool)
        kept[lp.col_y, lp.col_x] = True
        zero = np.abs(U) <= OBEYED_ULPS * np.finfo(float).eps * np.max(np.abs(U[kept]))
        obeyed = kept & zero
        disclosed = obeyed.any(axis=0)
        p = np.max(np.where(obeyed, V, -np.inf), axis=0)
        start = _crash_basis(lp)
        # the basis duals of the start, each artificial at cost 0
        artificial = start < 0
        B = lp.A[:, np.maximum(start, 0)].toarray()
        B[:, artificial] = np.eye(lp.n_rows)[:, artificial]
        duals = np.linalg.solve(B.T, np.where(artificial, 0.0, lp.c[start]))
        rc = np.full(U.shape, -np.inf)
        rc[lp.col_y, lp.col_x] = lp.c[: lp.n_mass] - lp.A[:, : lp.n_mass].T @ duals
        scale = np.max(np.abs(V[kept]))
        moving_rows = 0
        for iy in range(ny):
            cells = np.nonzero(kept[iy] & ~zero[iy] & disclosed)[0]
            if cells.size == 0:
                assert start[nx + iy] == -1
                continue
            moving_rows += 1
            q = (p[cells] - V[iy, cells]) / U[iy, cells]
            below, above = q[U[iy, cells] < 0], q[U[iy, cells] > 0]
            j = start[nx + iy]
            assert lp.col_y[j] == iy and not zero[iy, lp.col_x[j]]
            got = (p[lp.col_x[j]] - V[iy, lp.col_x[j]]) / U[iy, lp.col_x[j]]
            assert got == (np.max(below) if below.size else np.min(above))
            if not (below.size and above.size and np.max(below) > np.min(above)):
                # the row's interval is not empty: its q prices out the row
                assert np.max(rc[iy, cells]) <= 1e-9 * scale
        assert moving_rows > 0

    @pytest.mark.parametrize("pid", ["linear", "rayo_segal"])
    def test_full_disclosure_start_is_optimal(self, pid):
        lp = build_lp(preset(pid, grid_n=41)[0])
        solve_primal(lp)
        assert lp.solution.iterations == 0

    @pytest.mark.parametrize("pid", preset_ids())
    def test_finer_levels_adopt_the_coarse_basis(self, pid, caplog):
        # n=121 is sifted from n=61, which is sifted from n=31; affiliated's
        # inequality rows take disclosed cells with u > 0, which the coarse
        # basis does not carry, and stress_test has 9 states
        lp = build_lp(preset(pid, grid_n=121)[0])
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"):
            solve_primal(lp)
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.simplex"]
        starts = [line.split(", ")[0] for line in lines if line.startswith("phase 1: ")]
        adopted = {"stress_test": [], "affiliated": ["phase 1: start proposal 1 of 2 adopted"] * 2}
        assert starts[0] == "phase 1: start proposal 0 of 1 adopted"
        assert starts[1:] == adopted.get(pid, ["phase 1: start proposal 0 of 2 adopted"] * 2)

    def test_mapped_basis_keeps_the_coarse_cells(self):
        lp = build_lp(preset("example_c1", grid_n=81)[0])
        coarse, rows, cols = _coarsen(lp)
        res = solve_standard_form(coarse.A, coarse.b, coarse.c, start=_crash_basis(coarse))
        crash = _crash_basis(lp)
        warm = _mapped_basis(rows, cols, res.basis, crash)
        keep = _every_other(81)
        kept_rows = np.concatenate([keep, lp.problem.n_states + keep])
        assert np.array_equal(rows, kept_rows)
        odd = np.setdiff1d(np.arange(lp.n_rows), kept_rows)
        assert np.array_equal(warm[odd], crash[odd])
        cells = sorted(zip(keep[coarse.col_y[res.basis]], keep[coarse.col_x[res.basis]]))
        assert sorted(zip(lp.col_y[warm[kept_rows]], lp.col_x[warm[kept_rows]])) == cells
        # a coarse artificial, as of a pinned row, keeps the artificial of its position here
        basis = res.basis.copy()
        basis[3] = coarse.c.size + 3
        pinned = _mapped_basis(rows, cols, basis, crash)
        assert pinned[kept_rows[3]] == -1
        assert np.array_equal(np.delete(pinned, kept_rows[3]), np.delete(warm, kept_rows[3]))


def assert_same_lp(got, want):
    """``got`` and ``want`` hold the same LP, bit for bit, on the same grids."""
    for name in ("b", "c", "col_y", "col_x", "slack_rows", "Vmat", "Umat"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.A.format == want.A.format == "csc" and got.A.shape == want.A.shape
    assert got.A.data.tobytes() == want.A.data.tobytes()
    assert np.array_equal(got.A.indices, want.A.indices) and np.array_equal(got.A.indptr, want.A.indptr)
    assert (got.n_mass, got.n_rows) == (want.n_mass, want.n_rows)
    for name in ("states", "actions"):
        a, b = getattr(got.problem, name), getattr(want.problem, name)
        assert a.kind == b.kind and a.points.tobytes() == b.points.tobytes()
    assert got.problem.prior.tobytes() == want.problem.prior.tobytes()


class TestCoarsen:
    def test_every_other_keeps_both_ends(self):
        assert _every_other(5).tolist() == [0, 2, 4]
        assert _every_other(6).tolist() == [0, 2, 4, 5]

    def test_prior_is_restricted_and_renormalized(self):
        pb = preset("example_c3", grid_n=101)[0]
        coarse = _coarsen(build_lp(pb))[0].problem
        keep = _every_other(101)
        assert np.array_equal(coarse.states.points, pb.states.points[keep])
        assert np.array_equal(coarse.actions.points, pb.actions.points[keep])
        assert np.array_equal(coarse.prior, pb.prior[keep] / pb.prior[keep].sum())

    @pytest.mark.parametrize(
        "pid, params, n",
        [(pid, {}, n) for n in (41, 101, 201) for pid in preset_ids()] + [(pid, params, 101) for pid, params in VARIANTS],
    )
    def test_levels_are_slices_of_the_built_lp(self, pid, params, n):
        # every level down to two states, each against build_lp on the
        # coarse problem, which evaluates V and u again: the same LP, and
        # every coarse column and artificial mapped to the same column
        lp = build_lp(preset(pid, grid_n=n, **params)[0])
        levels = 0
        while lp.problem.n_states > 2:
            sliced, problem = _coarsen(lp), coarsened_problem(lp.problem)
            if problem is None:
                assert sliced is None
                break
            (coarse, rows, cols), want = sliced, build_lp(problem)
            assert_same_lp(coarse, want)
            crash = _crash_basis(lp)
            every = np.arange(coarse.c.size + coarse.n_rows)
            chunks = -(-every.size // coarse.n_rows)
            for basis in np.resize(every, chunks * coarse.n_rows).reshape(chunks, coarse.n_rows):
                got = _mapped_basis(rows, cols, basis, crash)
                assert np.array_equal(got, reference_mapped_basis(lp, want, basis, crash))
            lp, levels = coarse, levels + 1
        assert levels > 0 or pid == "stress_test"

    def test_massless_kept_states_stop_the_chain(self, monkeypatch, caplog):
        n = 2 * SIFT_MIN_STATES + 1
        prior = np.zeros(n)
        prior[1::2] = 1.0 / (n // 2)  # every kept state has prior 0
        pb = Problem(
            states=uniform(0.0, 1.0, n),
            actions=uniform(0.0, 1.0, n, "action"),
            prior=prior,
            V=lambda y, x: y * y + 0.0 * x,
            u=lambda y, x: x - y,
        )
        lp = build_lp(pb)
        assert _coarsen(lp) is None
        calls = TestSifting.simplex_calls(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="optrans.lp"):
            solve_primal(lp)
        assert calls == [(lp.c.size, None)]
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.lp"]
        assert line.startswith(f"outcome LP: n={n}: ") and ";" not in line


class TestKernelCalls:
    """``optrans solve`` and ``optrans certify`` evaluate each kernel at most
    once on the grid and on no other grid: the coarse levels are slices of
    the LP, and the slackness check reads the grid tables."""

    @pytest.mark.parametrize("cmd", ["solve", "certify"])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_kernels_run_once_on_the_fine_grid(self, pid, cmd, tmp_path, monkeypatch):
        calls, elsewhere, build = Counter(), [], cli._build

        def counted_build(cfg):
            pb, ps = build(cfg)
            Y, X = pb.grids_product()
            for name in GridTables.KERNELS:

                def g(y, x, name=name, f=getattr(pb, name)):
                    if np.broadcast(y, x).size > 3:  # the u_y probe takes 3 points
                        if np.shape(y) == Y.shape and np.array_equal(y, Y) and np.array_equal(x, X):
                            calls[name] += 1
                        else:
                            elsewhere.append((name, np.broadcast(y, x).shape))
                    return f(y, x)

                setattr(pb, name, g)
            return pb, ps

        monkeypatch.setattr(cli, "_build", counted_build)
        n = 2 * SIFT_MIN_STATES + 1  # sifted from n=61, which is sifted from n=31
        assert cli.main([cmd, "--preset", pid, "--grid-n", str(n), "--out", str(tmp_path)]) == 0
        assert elsewhere == []
        assert calls["V"] == calls["u"] == 1 and max(calls.values()) == 1, calls


def warm_start(res, cols, n_rows):
    """Start basis, in LP column indices, from an optimal basis over the
    columns ``cols``: each position holding an artificial keeps it."""
    return np.concatenate([cols, np.full(n_rows, -1)])[res.basis]


def sifted_by_rounds(lp, coarse, coarse_res):
    """Reference for one sifted level, with the sifting outside the simplex:
    phase 1 over every column first, as a separate call from the level's
    start proposals (the coarse basis mapped to this grid, then the crash);
    then one call per pricing round on the sub-LP ``A[:, cols]`` of the
    working set, from the last optimal basis, until a pass over every column
    adds nothing."""
    A, b, c = lp.A, lp.b, lp.c
    n = c.size
    crash = _crash_basis(lp)
    proposals = np.stack([reference_mapped_basis(lp, coarse, coarse_res.basis, crash), crash])
    feas = solve_standard_form(A, b, np.zeros(n), start=proposals)
    iterations, phase1 = feas.iterations, feas.phase1_iterations
    start_cols = warm_start(feas, np.arange(n), lp.n_rows)
    pb, cpb = lp.problem, coarse.problem
    y = np.concatenate(
        [
            np.interp(pb.states.points, cpb.states.points, coarse_res.duals[: cpb.n_states]),
            np.interp(pb.actions.points, cpb.actions.points, coarse_res.duals[cpb.n_states :]),
        ]
    )
    work = c - A.T @ y > -SIFT_BAND * float(np.max(np.abs(c)))
    work[lp.n_mass :] = True
    work[start_cols[start_cols >= 0]] = True
    while True:
        cols = np.nonzero(work)[0]
        sub_start = np.where(start_cols >= 0, np.searchsorted(cols, start_cols), -1)
        sub = solve_standard_form(A[:, cols], b, c[cols], start=sub_start)
        iterations, phase1 = iterations + sub.iterations, phase1 + sub.phase1_iterations
        attractive = (c - A.T @ sub.duals > PIVOT_TOL) & ~work
        if not attractive.any():
            break
        work |= attractive
        start_cols = warm_start(sub, cols, lp.n_rows)
    x = np.zeros(n)
    x[cols] = sub.x
    return SimplexResult(
        x=x,
        objective=sub.objective,
        duals=sub.duals,
        basis=cols[sub.basis],
        iterations=iterations,
        phase1_iterations=phase1,
        dropped_rows=sub.dropped_rows,
    )


class TestSiftingByRounds:
    """Sifting inside the simplex takes the same pivots as sifting by sub-LP
    rounds: the same solution, bit for bit, and the same iterations."""

    @pytest.mark.parametrize("n", [61, 121])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_same_solution_as_sub_lp_rounds(self, pid, n):
        lp = build_lp(preset(pid, grid_n=n)[0])
        solve_primal(lp)
        chain = [lp]
        while chain[-1].problem.n_states > SIFT_MIN_STATES:
            chain.append(build_lp(coarsened_problem(chain[-1].problem)))
        ref = solve_standard_form(chain[-1].A, chain[-1].b, chain[-1].c, start=_crash_basis(chain[-1]))
        iterations, phase1 = ref.iterations, ref.phase1_iterations
        for level, coarse in zip(chain[-2::-1], chain[:0:-1]):
            ref = sifted_by_rounds(level, coarse, ref)
            iterations, phase1 = iterations + ref.iterations, phase1 + ref.phase1_iterations
        got = lp.solution
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.duals.tobytes() == ref.duals.tobytes()
        assert np.array_equal(got.basis, ref.basis)
        assert (got.iterations, got.phase1_iterations) == (iterations, phase1)
        assert got.dropped_rows == ref.dropped_rows
