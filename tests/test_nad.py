import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from optrans import nad
from optrans.errors import IllPosed, OptransError, StiffStep
from optrans.lp import build_lp, solve_primal
from optrans.nad import _pair_rhs, _q_pair, _shoot, nad_outcome, solve_nad, verify_against_lp
from optrans.presets import preset
from optrans.structure import check_nad_condition
from test_presets import VARIANTS

E = float(np.e)
ODE_PRESETS = ["option_pricing", "translation_sender", "translation_receiver", "example_c1", "contest"]


@pytest.fixture(scope="module")
def c1_nad():
    problem, meta = preset("example_c1", grid_n=101)
    sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
    return problem, meta, sol


class TestPairingSolver:
    def test_endpoints(self, c1_nad):
        _, meta, sol = c1_nad
        assert sol.y_low == pytest.approx(meta.oracle["y_low"], abs=1e-6)
        assert sol.y_high == pytest.approx(meta.oracle["y_high"], abs=1e-8)
        assert abs(sol.terminal_residual) <= 1e-6

    def test_pair_bounds_and_multiplier(self, c1_nad):
        problem, meta, sol = c1_nad
        span = problem.states.span
        nodes = sol.nodes
        sel = (nodes["chi2"] - nodes["chi1"]) >= 1e-3 * span
        ys = nodes["y"][sel]
        assert np.max(np.abs(nodes["chi1"][sel] - meta.oracle["chi1"](ys))) < 1e-4
        assert np.max(np.abs(nodes["chi2"][sel] - meta.oracle["chi2"](ys))) < 1e-4
        assert np.max(np.abs(nodes["q"][sel] - meta.oracle["q"](ys))) < 1e-4

    def test_monotone_pair_bounds(self, c1_nad):
        _, _, sol = c1_nad
        ys = sol.nodes["y"]  # descending
        assert np.all(np.diff(sol.nodes["chi1"]) >= -1e-9)  # rises as y falls
        assert np.all(np.diff(sol.nodes["chi2"]) <= 1e-9)

    def test_mixing_weights_interior(self, c1_nad):
        _, _, sol = c1_nad
        rho = sol.nodes["rho"]
        assert np.all(rho > 0) and np.all(rho < 1)
        span = sol.nodes["chi2"] - sol.nodes["chi1"]
        sel = span >= 0.05 * (E - 1 / E)
        assert np.max(np.abs(rho[sel] - 0.5)) < 1e-4

    def test_stationarity_along_arc(self, c1_nad):
        problem, _, sol = c1_nad
        # the integrated multiplier satisfies both per-state stationarity
        # equations along the arc by construction; spot check the residual
        nodes = sol.nodes
        sel = (nodes["chi2"] - nodes["chi1"]) >= 0.05
        ys = nodes["y"][sel][::10]
        c1 = nodes["chi1"][sel][::10]
        c2 = nodes["chi2"][sel][::10]
        q = nodes["q"][sel][::10]
        qp = np.gradient(nodes["q"][sel], nodes["y"][sel])[::10]
        for xx in (c1, c2):
            res = (
                problem.V_y(ys, xx)
                + q * problem.u_y(ys, xx)
                + qp * problem.u(ys, xx)
            )
            assert np.max(np.abs(res)) < 1e-3

    def test_mass_conservation(self, c1_nad):
        problem, meta, sol = c1_nad
        out = nad_outcome(problem, sol, meta.prior_cdf)
        assert out.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(out.mass.sum(axis=0) - problem.prior)) < 5e-2


def seven_pair_rhs(problem, density, h, y, state):
    """The pairing right-hand side from seven separate two-point solves."""
    c1, c2, _ = state
    u1 = float(problem.u(np.array([y]), np.array([c1]))[0])
    u2 = float(problem.u(np.array([y]), np.array([c2]))[0])
    f1 = float(density(np.array([c1]))[0])
    f2 = float(density(np.array([c2]))[0])
    _, P = _q_pair(problem, y, c1, c2)
    Qy = (_q_pair(problem, y + h, c1, c2)[0] - _q_pair(problem, y - h, c1, c2)[0]) / (2 * h)
    Q1 = (_q_pair(problem, y, c1 + h, c2)[0] - _q_pair(problem, y, c1 - h, c2)[0]) / (2 * h)
    Q2 = (_q_pair(problem, y, c1, c2 + h)[0] - _q_pair(problem, y, c1, c2 - h)[0]) / (2 * h)
    k = (u2 * f2) / (u1 * f1)
    d2 = (P - Qy) / (Q1 * k + Q2)
    return [k * d2, d2, P]


class TestPairRhs:
    def test_matches_seven_pair_solves_bitwise(self, c1_nad):
        problem, meta, sol = c1_nad
        h = 1e-6 * problem.states.span
        rng = np.random.default_rng(11)
        nodes = sol.nodes
        gap = nodes["chi2"] - nodes["chi1"]
        for idx in rng.choice(np.nonzero(gap > 1e-2)[0], size=40, replace=False):
            y = nodes["y"][idx] + rng.uniform(-1e-3, 1e-3)
            c1, c2 = nodes["chi1"][idx] + rng.uniform(-1e-3, 1e-3, size=2) * [1, -1]
            state = np.array([c1, c2, nodes["q"][idx]])
            got = _pair_rhs(problem, meta.prior_density, h, y, state)
            want = seven_pair_rhs(problem, meta.prior_density, h, y, state)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_three_evaluator_calls_per_evaluation(self):
        problem, meta = preset("example_c1", grid_n=21)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("V", "u", "V_y", "V_yx", "u_y", "u_x", "u_yx"):
            setattr(problem, name, counted(name, getattr(problem, name)))
        _pair_rhs(problem, meta.prior_density, 1e-6, 1.2, np.array([0.5, 2.0, 0.0]))
        assert sorted(calls) == ["V_y", "u", "u_y"]

    def test_singular_stationarity_raises_typed_error(self):
        # u_y proportional to u makes every two-point system singular
        problem, meta = preset("example_c1", grid_n=21)
        problem.u_y = lambda y, x: 2.0 * problem.u(y, x)
        with np.errstate(all="raise"):
            with pytest.raises(StiffStep):
                _pair_rhs(problem, meta.prior_density, 1e-6, 1.2, np.array([0.5, 2.0, 0.0]))


class TestShooting:
    @pytest.mark.parametrize("pid", ["translation_sender", "example_c1"])
    def test_one_dense_shot(self, pid, monkeypatch):
        # every shot keeps its interpolant, and the solution samples exactly
        # one of them: the colliding shot at the returned top action; on
        # translation_sender and example_c1 both bracket ends veer, the
        # second stage is skipped and the first-stage hit's interpolant is
        # the one read
        problem, meta = preset(pid, grid_n=41)
        dense, sampled = [], []

        def counted(*args, **kwargs):
            dense.append(kwargs["dense_output"])
            res = solve_ivp(*args, **kwargs)
            interp = res.sol

            def read(t):
                sampled.append(res)
                return interp(t)

            res.sol = read
            return res

        monkeypatch.setattr("scipy.integrate.solve_ivp", counted)
        sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        assert dense and all(dense)
        (res,) = {id(r): r for r in sampled}.values()
        assert res.t_events[0].size == 1
        assert res.t[0] == sol.y_high

    @pytest.mark.parametrize(
        "pid,cap",
        [
            ("example_c1", 15),
            ("contest", 12),
            ("translation_sender", 12),
            ("option_pricing", 34),
            ("translation_receiver", 53),
        ],
    )
    def test_shots_per_solve(self, pid, cap, monkeypatch):
        # regula falsi on the miss; option_pricing and translation_receiver
        # reach the action floor below the top action and still bisect there,
        # and only they run the second stage.  Every solve integrates fewer
        # than ``cap`` times: the colliding shot is not integrated again
        problem, meta = preset(pid, grid_n=101)
        shots = []

        def counted(*args, **kwargs):
            shots.append(kwargs["dense_output"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr("scipy.integrate.solve_ivp", counted)
        solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        assert 0 < len(shots) < cap

    @pytest.mark.parametrize("pid", ["translation_sender", "translation_receiver", "example_c1"])
    def test_debug_record_counts_every_shot(self, pid, monkeypatch, caplog):
        # the solution is read off the colliding shot, so every integration is
        # a counted shot; on translation_sender and example_c1 both bracket
        # ends veer, the second stage is skipped and the first-stage hit's arc
        # is the solution
        problem, meta = preset(pid, grid_n=41)
        nfev = []

        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr("scipy.integrate.solve_ivp", counted)
        with caplog.at_level(logging.DEBUG, logger="optrans.nad"):
            solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.nad"]
        m = re.fullmatch(
            r"ode: (\d+) shots in stage 1 \((\d+) bracketing\), (\d+) in stage 2 "
            r"\((collided|fell back to the stage-1 hit|skipped: both bracket ends veered)\), "
            r"(\d+) RHS evaluations, (\d+) midpoint steps at the action floor",
            line,
        )
        assert m, line
        want = "collided" if pid == "translation_receiver" else "skipped: both bracket ends veered"
        assert m[4] == want
        assert (int(m[3]) == 0) == (want != "collided")
        assert int(m[1]) + int(m[3]) == len(nfev)
        # the first shot, then a bisection over the other BRACKET_POINTS - 1
        assert int(m[2]) <= 1 + (nad.BRACKET_POINTS - 1).bit_length() < int(m[1])
        assert int(m[5]) == sum(nfev)
        assert int(m[6]) <= int(m[1]) + int(m[3])

    @pytest.mark.parametrize("pid", ODE_PRESETS)
    def test_second_stage_only_on_floor_brackets(self, pid, monkeypatch):
        # the smaller second-stage gap is shot only where an end of the
        # stage-1 bracket reached the action floor (option_pricing and
        # translation_receiver); where both ends veered it is never shot
        problem, meta = preset(pid, grid_n=41)
        base = nad.COLLISION_FRAC * problem.states.span
        gaps = []
        shoot = nad._shoot

        def spy(problem, density, y_top, gap):
            gaps.append(gap)
            return shoot(problem, density, y_top, gap)

        monkeypatch.setattr(nad, "_shoot", spy)
        solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        floor = pid in ("option_pricing", "translation_receiver")
        assert set(gaps) == ({base, base / 100.0} if floor else {base})
        assert gaps == sorted(gaps, reverse=True)  # stage 2 follows stage 1

    def test_miss_grows_with_the_offset(self, c1_nad):
        # the premise of regula falsi: near the solved top action the miss has
        # the sign of the offset and grows with it (the second-stage gap
        # keeps every one of these shots short of a collision)
        problem, meta, sol = c1_nad
        gap = nad.COLLISION_FRAC * problem.states.span / 100.0
        for sign in (-1.0, 1.0):
            sizes = []
            for delta in (1e-9, 1e-7, 1e-5, 1e-3):
                side, miss, _ = _shoot(problem, meta.prior_density, sol.y_high + sign * delta, gap)
                assert side == sign and miss is not None and np.sign(miss) == sign
                sizes.append(abs(miss))
            assert sizes == sorted(set(sizes))


def linear_scan(a, x, lo=0, hi=None, *, key):
    """``bisect.bisect_left`` by probing ``a[lo], a[lo + 1], ...`` in order:
    substituted in ``solve_nad``, it shoots the scan grid point by point up
    to the first change of side, as the search did before it bisected."""
    hi = len(a) if hi is None else hi
    return next((i for i in range(lo, hi) if key(a[i]) >= x), hi)


def solve_or_raise(problem, meta):
    try:
        return solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
    except OptransError as exc:
        return exc


class TestBracketSearch:
    """The bisection over the scan grid gives, bit for bit, the solution or
    the error of the linear scan of every grid point in order."""

    @staticmethod
    def assert_same_as_linear_scan(problem, meta, monkeypatch):
        got = solve_or_raise(problem, meta)
        monkeypatch.setattr(nad, "bisect", SimpleNamespace(bisect_left=linear_scan))
        want = solve_or_raise(problem, meta)
        if isinstance(want, OptransError):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert isinstance(got, nad.NadSolution), got
        assert got.nodes.keys() == want.nodes.keys()
        for name in want.nodes:
            assert got.nodes[name].tobytes() == want.nodes[name].tobytes(), name
        for name in ("y_low", "y_high", "terminal_residual"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name
        assert got.route == want.route

    @pytest.mark.parametrize("n", [41, 101])
    @pytest.mark.parametrize("pid", ODE_PRESETS)
    def test_presets(self, pid, n, monkeypatch):
        problem, meta = preset(pid, grid_n=n)
        self.assert_same_as_linear_scan(problem, meta, monkeypatch)

    @pytest.mark.parametrize("pid,params", VARIANTS)
    def test_variants(self, pid, params, monkeypatch):
        problem, meta = preset(pid, grid_n=41, **params)
        if meta.prior_density is None or problem.quantile_kappa is not None:
            pytest.skip("not on the ODE route")
        if check_nad_condition(problem).label != "holds":
            pytest.skip("NAD condition fails: optrans nad exits 2 before shooting")
        self.assert_same_as_linear_scan(problem, meta, monkeypatch)


def per_node_mass(problem, sol, prior_cdf):
    """The pairing projected onto the grids one node segment at a time."""
    mass = np.zeros((problem.n_actions, problem.n_states))
    ys, c1s, c2s = sol.nodes["y"], sol.nodes["chi1"], sol.nodes["chi2"]
    for k in range(ys.size - 1):
        m1 = abs(float(prior_cdf(c1s[k]) - prior_cdf(c1s[k + 1])))
        m2 = abs(float(prior_cdf(c2s[k]) - prior_cdf(c2s[k + 1])))
        if m1 + m2 <= 0:
            continue
        iy = problem.actions.nearest(0.5 * (ys[k] + ys[k + 1]))
        i1 = problem.states.nearest(0.5 * (c1s[k] + c1s[k + 1]))
        i2 = problem.states.nearest(0.5 * (c2s[k] + c2s[k + 1]))
        mass[iy, i1] += m1
        mass[iy, i2] += m2
    total = mass.sum()
    if total > 0:
        mass /= total
    return mass


def scalar_rho(problem, y, c1, c2):
    """The mixing weight u2 / (u2 - u1) at one node from one-point calls of u."""
    u1 = float(problem.u(np.array([y]), np.array([c1]))[0])
    u2 = float(problem.u(np.array([y]), np.array([c2]))[0])
    if u2 == u1:
        return 0.5
    return float(u2 / (u2 - u1))


@pytest.fixture(scope="module")
def solved():
    cache = {}

    def get(pid, n):
        if (pid, n) not in cache:
            problem, meta = preset(pid, grid_n=n)
            cache[pid, n] = problem, meta, solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        return cache[pid, n]

    return get


class TestArrayForms:
    @pytest.mark.parametrize("n", [41, 101])
    @pytest.mark.parametrize("pid", ODE_PRESETS + ["example_c2"])
    def test_projection_matches_per_node_loop_bitwise(self, pid, n, solved):
        problem, meta, sol = solved(pid, n)
        got = nad_outcome(problem, sol, meta.prior_cdf).mass
        assert got.tobytes() == per_node_mass(problem, sol, meta.prior_cdf).tobytes()

    @pytest.mark.parametrize("n", [41, 101])
    @pytest.mark.parametrize("pid", ODE_PRESETS)
    def test_rho_matches_scalar_formula_bitwise(self, pid, n, solved):
        problem, _, sol = solved(pid, n)
        nodes = sol.nodes
        want = np.array([scalar_rho(problem, *v) for v in zip(nodes["y"], nodes["chi1"], nodes["chi2"])])
        want[-1] = 0.5  # the collision node
        assert nodes["rho"].tobytes() == want.tobytes()

    def test_projection_accumulates_in_node_order(self):
        # one cell takes 2**-52 (chi1), 2**-52 (chi2), then 2 (chi1): in node
        # order that is 2 + 2**-51, while all chi1 masses first round to 2
        problem, _ = preset("example_c1", grid_n=21)
        c1s = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 2.0])
        c2s = np.array([1.0 + 3e-9, 1.0 + 4e-9, 1.0 + 5e-9, 1.0 + 6e-9])
        tiny = 2.0**-52
        table = dict(zip(c1s, [2.0, 2.0 - tiny, -tiny, 1.0 - tiny]))
        table.update(zip(c2s, [0.0, tiny, tiny, tiny]))
        cdf = np.vectorize(table.__getitem__, otypes=[float])
        ys = np.full(4, 1.2)
        sol = nad.NadSolution(1.2, 1.2, {"y": ys, "chi1": c1s, "chi2": c2s}, 0.0)
        got = nad_outcome(problem, sol, cdf).mass
        want = per_node_mass(problem, sol, cdf)
        assert got.tobytes() == want.tobytes()
        assert want.max() == (2.0 + 2.0**-51) / (3.0 + 2.0**-51)

    def test_non_finite_node_mass_raises(self, c1_nad):
        problem, meta, sol = c1_nad
        c2s = sol.nodes["chi2"]
        bad = c2s[40]

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x == bad, np.nan, meta.prior_cdf(x))

        k = max(int(np.argmax(c2s == bad)) - 1, 0)  # first segment touching the NaN node
        with pytest.raises(IllPosed, match=rf"between pairing nodes {k} and {k + 1} "):
            nad_outcome(problem, sol, cdf)


class TestQuantileRoute:
    def test_uniform_closed_form(self):
        problem, meta = preset("example_c2", grid_n=101, kappa=0.5)
        sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        assert sol.route == "quantile"
        assert sol.y_low == pytest.approx(0.5, abs=1e-9)
        ys = sol.nodes["y"]
        assert np.max(np.abs(sol.nodes["chi1"] - (1 - ys))) < 1e-9
        assert np.max(np.abs(sol.nodes["chi2"] - ys)) == 0.0
        assert np.all(sol.nodes["rho"] == 0.5)

    def test_asymmetric_quantile(self):
        problem, meta = preset("example_c2", grid_n=101, kappa=0.25)
        sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        # kappa F(t) = (1-kappa)(1-F(t)) at the bottom action
        assert sol.y_low == pytest.approx(0.75, abs=1e-9)


class TestAgainstLp:
    def test_objective_gap_shrinks_with_refinement(self):
        gaps = []
        for n in (101, 201):
            problem, meta = preset("example_c1", grid_n=n)
            sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
            lp = build_lp(problem)
            outcome, _ = solve_primal(lp)
            cmp = verify_against_lp(problem, sol, outcome, prior_cdf=meta.prior_cdf)
            gaps.append(abs(cmp.objective_gap))
            assert not cmp.flagged
        assert gaps[1] <= gaps[0] / 1.8

    def test_genuine_mismatch_is_flagged(self, c1_nad):
        problem, meta, sol = c1_nad
        from optrans import no_disclosure_signal, signal_to_outcome

        pooled = signal_to_outcome(problem, no_disclosure_signal(problem))
        cmp = verify_against_lp(problem, sol, pooled, prior_cdf=meta.prior_cdf)
        assert cmp.flagged
        assert cmp.flagged_action is not None

    def test_quantile_action_masses_agree(self):
        problem, meta = preset("example_c2", grid_n=101)
        sol = solve_nad(problem, meta.prior_density, prior_cdf=meta.prior_cdf)
        lp = build_lp(problem)
        outcome, _ = solve_primal(lp)
        cmp = verify_against_lp(problem, sol, outcome, prior_cdf=meta.prior_cdf)
        # the induced action distribution is unique; the joint is not
        assert cmp.sup_action_cdf_diff <= 10 * problem.actions.max_spacing
        assert not cmp.flagged
