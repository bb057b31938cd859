import functools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrans import (
    Posterior,
    Problem,
    Signal,
    chi,
    check_assumptions,
    full_disclosure_signal,
    gamma,
    indirect_utility,
    no_disclosure_signal,
    signal_to_outcome,
    uniform,
)
from optrans import model, structure
from optrans.errors import GridSnapError, IllPosed, NoRoot
from optrans.grids import from_points
from optrans.model import chi_array, gamma_binary
from optrans.presets import MEAN_RECEIVER, preset, preset_ids
from optrans.structure import RHO_M, check_full_disclosure
from test_presets import VARIANTS

E = float(np.e)


def linear_problem(n=11, lo=0.0, hi=1.0):
    return Problem(
        states=uniform(lo, hi, n),
        actions=uniform(lo, hi, n, "action"),
        prior=np.full(n, 1.0 / n),
        V=lambda y, x: y + 0.0 * x,
        u=lambda y, x: x - y,
        V_y=lambda y, x: 1.0 + 0.0 * (x + y),
        u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        u_x=lambda y, x: 1.0 + 0.0 * (x + y),
        V_yx=lambda y, x: 0.0 * (x + y),
        u_yx=lambda y, x: 0.0 * (x + y),
    )


class TestPosterior:
    def test_prunes_zero_weights(self):
        mu = Posterior((0, 3, 5), np.array([0.5, 0.0, 0.5]))
        assert mu.support == (0, 5)

    def test_rejects_bad_sum(self):
        with pytest.raises(IllPosed):
            Posterior((0, 1), np.array([0.5, 0.6]))

    def test_rejects_duplicates(self):
        with pytest.raises(IllPosed):
            Posterior((2, 2), np.array([0.5, 0.5]))


class TestGamma:
    def test_posterior_mean_for_linear_receiver(self):
        pb = linear_problem(11)
        mu = Posterior((2, 8), np.array([0.5, 0.5]))  # states 0.2 and 0.8
        assert gamma(pb, mu) == pytest.approx(0.5, abs=1e-10)

    def test_contest_degenerate(self):
        pb, _ = preset("contest", grid_n=21, xmin=0.1, xmax=0.9)
        ix = int(np.argmin(np.abs(pb.states.points - 0.5)))
        assert pb.states.points[ix] == pytest.approx(0.5)
        assert gamma(pb, Posterior.degenerate(ix)) == pytest.approx(0.4, abs=1e-9)

    def test_quantile_sender_favorable(self):
        pb, _ = preset("quantile", grid_n=11, kappa=0.5)
        mu = Posterior((3, 7), np.array([0.5, 0.5]))  # states 0.3 and 0.7
        assert gamma(pb, mu) == pytest.approx(0.7)

    def test_no_root_raises(self):
        pb = linear_problem(11, lo=0.0, hi=0.5)
        pb2 = Problem(
            states=uniform(0.6, 0.9, 5),
            actions=uniform(0.0, 0.5, 5, "action"),
            prior=np.full(5, 0.2),
            V=lambda y, x: y + 0.0 * x,
            u=lambda y, x: x - y,
        )
        with pytest.raises(NoRoot):
            gamma(pb2, Posterior.degenerate(0))


class TestChi:
    def test_identity_for_linear_receiver(self):
        pb = linear_problem(11)
        assert chi(pb, 0.37) == pytest.approx(0.37, abs=1e-10)

    def test_contest_inversion(self):
        pb, _ = preset("contest", grid_n=21, xmin=0.1, xmax=0.9)
        assert chi(pb, 0.4) == pytest.approx(0.5, abs=1e-8)

    def test_quantile_jump_location(self):
        pb, _ = preset("quantile", grid_n=11, kappa=0.5)
        assert chi(pb, 0.6) == pytest.approx(0.6, abs=1e-9)

    def test_inverse_of_gamma_on_grid(self):
        pb, _ = preset("contest", grid_n=15, xmin=0.2, xmax=0.8)
        for ix in (0, 5, 10, 14):
            y = gamma(pb, Posterior.degenerate(ix))
            assert chi(pb, y) == pytest.approx(pb.states.points[ix], abs=2e-9)


class TestGammaProperties:
    def test_fosd_monotone(self):
        pb, _ = preset("translation_receiver", grid_n=21)
        lowmu = Posterior((2, 10), np.array([0.6, 0.4]))
        himu = Posterior((2, 10), np.array([0.4, 0.6]))
        assert gamma(pb, himu) > gamma(pb, lowmu)

    def test_mixing_preserves_common_action(self):
        pb = linear_problem(21)
        mu = Posterior((4, 12), np.array([0.5, 0.5]))  # mean 0.4
        eta = Posterior((0, 16), np.array([0.5, 0.5]))  # mean 0.4
        y = gamma(pb, mu)
        assert gamma(pb, eta) == pytest.approx(y, abs=1e-10)
        for rho in (0.25, 0.5, 0.75):
            mix_w = np.concatenate([rho * mu.weights, (1 - rho) * eta.weights])
            mix = Posterior(mu.support + eta.support, mix_w)
            assert gamma(pb, mix) == pytest.approx(y, abs=1e-10)


class TestIndirectUtility:
    def test_linear(self):
        pb = linear_problem(11)
        mu = Posterior((0, 10), np.array([0.5, 0.5]))
        assert indirect_utility(pb, mu) == pytest.approx(0.5, abs=1e-10)

    def test_reciprocal_closed_form(self):
        pb, _ = preset("example_c1", grid_n=51)
        mu = Posterior((0, 50), np.array([0.5, 0.5]))  # the two range ends
        y = 0.5 * (E + 1.0 / E)
        expect = 0.5 * y * (E + 1.0 / E)
        assert indirect_utility(pb, mu) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(2.38110, abs=5e-6)

    def test_degenerate_is_direct_evaluation(self):
        pb, _ = preset("linear_receiver", grid_n=21)
        mu = Posterior.degenerate(7)
        x = pb.states.points[7]
        y = gamma(pb, mu)
        assert indirect_utility(pb, mu) == pytest.approx(
            float(pb.V(np.array([y]), np.array([x]))[0])
        )


class TestAssumptionReport:
    def test_linear_all_flags(self):
        pb, meta = preset("linear", grid_n=21, V_shape="linear")
        rep = check_assumptions(pb)
        assert rep.flags() == {
            "smooth_ok": True,
            "asc_ok": True,
            "interior_ok": True,
            "ordering_ok": True,
        }

    def test_catalog_flag_patterns(self):
        from optrans.presets import preset_ids

        for pid in preset_ids():
            pb, meta = preset(pid, grid_n=21)
            rep = check_assumptions(pb)
            for key, want in meta.expected_flags.items():
                assert rep.flags()[key] == want, (pid, key)

    def test_asc_flag_tied_to_violation_entries(self):
        pb, _ = preset("quantile", grid_n=21)
        rep = check_assumptions(pb)
        assert not rep.asc_ok
        assert any(v[0] == "A2" for v in rep.violations)


def row_loop_a2(problem):
    """The A2 part-2 violations of check_assumptions as its row-by-row loop
    gave them before the masked row reductions."""
    Y, X = problem.grids_product()
    U, Uy = problem.u(Y, X), problem.u_y(Y, X)
    uscale = max(1.0, float(np.max(np.abs(U))))
    violations = []
    for iy in range(problem.n_actions):
        urow, uyrow = U[iy], Uy[iy]
        neg = urow < -model.ASSUMPTION_ZERO_TOL * uscale
        pos = urow > model.ASSUMPTION_ZERO_TOL * uscale
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
    return violations


def part2_violations(problem):
    """check_assumptions's A2 part-2 entries: those naming two states."""
    return [v for v in check_assumptions(problem).violations if v[0] == "A2" and len(v[1]) == 3]


@st.composite
def ratio_tables(draw):
    """(U, U_y) tables for A2: cells of u within the zero band, ties in
    u_y / u, and NaN or infinite u_y, so that each side's extreme is NaN,
    tied or infinite."""
    ny, nx = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    u_vals = st.sampled_from([-2.0, -1.0, -0.5, -1e-12, 0.0, 1e-12, 0.5, 1.0, 2.0])
    uy_vals = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])
    U = np.array([[draw(u_vals) for _ in range(nx)] for _ in range(ny)])
    Uy = np.array([[draw(uy_vals) for _ in range(nx)] for _ in range(ny)])
    return U, Uy


def table_problem(ny, nx, **tables):
    """A problem on uniform grids whose evaluators return the given tables
    on the grid product (and zeros where none is given)."""
    zero = np.zeros((ny, nx))
    return Problem(
        states=uniform(0.0, 1.0, nx),
        actions=uniform(0.0, 1.0, ny, "action"),
        prior=np.full(nx, 1.0 / nx),
        **{
            name: (lambda y, x, t=tables.get(name, zero): t)
            for name in ("V", "u", "V_y", "V_yx", "u_y", "u_x", "u_yx")
        },
    )


def nan_sender(n=5):
    """V = NaN everywhere on an n x n grid, u = x - y."""
    return Problem(
        states=uniform(0.0, 1.0, n),
        actions=uniform(0.0, 1.0, n, "action"),
        prior=np.full(n, 1.0 / n),
        V=lambda y, x: np.full(np.broadcast(y, x).shape, np.nan),
        u=lambda y, x: x - y,
    )


class TestA2RowReductions:
    @pytest.mark.parametrize("grid_n", [21, 41])
    @pytest.mark.parametrize("pid, params", [(pid, {}) for pid in preset_ids()] + VARIANTS)
    def test_presets(self, pid, params, grid_n):
        pb, _ = preset(pid, grid_n=grid_n, **params)
        assert repr(part2_violations(pb)) == repr(row_loop_a2(pb))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ratio_tables())
    def test_random_tables(self, tables):
        # a violation whose residual is not finite (an infinite u_y at its
        # states) raises instead of reporting a NaN or infinite residual
        U, Uy = tables
        pb = table_problem(*U.shape, u=U, u_y=Uy, u_x=np.ones_like(U), V_y=np.ones_like(U))
        with np.errstate(invalid="ignore"):  # the reference's inf - inf
            want = row_loop_a2(pb)
        if all(np.isfinite(v[2]) for v in want):
            assert repr(part2_violations(pb)) == repr(want)
        else:
            with pytest.raises(IllPosed, match=r"A2 residual .* is not finite"):
                check_assumptions(pb)

    def test_infinite_u_y_raises(self):
        # u = x - 0.5 on three states; u_y = +inf at the negative state
        U = np.array([[-1.0, 0.5, 1.0], [-1.0, 0.5, 1.0]])
        Uy = np.array([[np.inf, -1.0, -1.0], [-1.0, -1.0, -1.0]])
        pb = table_problem(2, 3, u=U, u_y=Uy, u_x=np.ones_like(U), V_y=np.ones_like(U))
        with pytest.raises(IllPosed, match=r"A2 residual inf at \(y, x_neg, x_pos\) = \(0\.0, 0\.0, 1\.0\)"):
            check_assumptions(pb)


class TestSignalToOutcome:
    def test_full_disclosure_diagonal(self):
        pb = linear_problem(5)
        out = signal_to_outcome(pb, full_disclosure_signal(pb))
        assert np.allclose(np.diag(out.mass), pb.prior)
        assert out.mass.sum() == pytest.approx(1.0)
        assert out.marginal_residual < 1e-12
        assert out.obedience_residual < 1e-12

    def test_no_disclosure_single_row(self):
        pb = linear_problem(5)
        out = signal_to_outcome(pb, no_disclosure_signal(pb))
        rows = out.support_rows()
        assert rows.size == 1
        assert pb.actions.points[rows[0]] == pytest.approx(0.5)

    def test_pair_masses_in_stated_ratio(self):
        pb, _ = preset("example_c1", grid_n=51)
        ix1, ix2 = 10, 40  # log grid mirror pair
        assert pb.states.points[ix1] * pb.states.points[ix2] == pytest.approx(1.0)
        pair = Posterior((ix1, ix2), np.array([0.5, 0.5]))
        rest = [
            (Posterior.degenerate(i), float(pb.prior[i]))
            for i in range(51)
            if i not in (ix1, ix2)
        ]
        m = float(pb.prior[ix1] + pb.prior[ix2])
        tau = Signal(tuple(rest) + ((pair, m),))
        out = signal_to_outcome(pb, tau)
        iy = pb.actions.snap(gamma(pb, pair))
        assert out.mass[iy, ix1] == pytest.approx(out.mass[iy, ix2])

    def test_snap_error_when_action_out_of_range(self):
        pb = Problem(
            states=uniform(0.0, 1.0, 5),
            actions=uniform(0.0, 0.4, 5, "action"),
            prior=np.full(5, 0.2),
            V=lambda y, x: y + 0.0 * x,
            u=lambda y, x: x - y + 0.45,
        )
        # the best response at the top state exceeds the action range by a cell
        with pytest.raises((GridSnapError, NoRoot)):
            signal_to_outcome(pb, full_disclosure_signal(pb))


def bisect_binary(problem, x1, x2, rho):
    """The 60-step bisection gamma_binary's strict_foc branch ran before its
    Newton iteration, kept as the reference."""
    x1, x2, rho = np.broadcast_arrays(*(np.asarray(v, float) for v in (x1, x2, rho)))
    lo = np.full(x1.shape, problem.actions.lo)
    hi = np.full(x1.shape, problem.actions.hi)

    def agg(y):
        return rho * problem.u(y, x1) + (1.0 - rho) * problem.u(y, x2)

    flo = agg(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = agg(mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


STRICT_FOC = [pid for pid in preset_ids() if preset(pid, grid_n=11)[0].tie_break == "strict_foc"]


def pooling_table(problem):
    """Every (x1, x2, rho) entry of the pooling sweeps: each prior-supported
    state pair at rho = k / RHO_M, and each state disclosed (rho = 1)."""
    vals = problem.states.points[problem.prior > 0]
    i1, i2 = np.triu_indices(vals.size, k=1)
    rhos = np.arange(1, RHO_M) / RHO_M
    x1 = np.concatenate([np.repeat(vals[i1], rhos.size), vals])
    x2 = np.concatenate([np.repeat(vals[i2], rhos.size), vals])
    rho = np.concatenate([np.tile(rhos, i1.size), np.ones(vals.size)])
    return x1, x2, rho


@st.composite
def awkward_receivers(draw):
    """u(y, x) = exp(b x) tanh(k (x - s(y))) / k on states and actions in
    [0, 1], with s rising from 0 to 1 and flat on an optional stretch (where
    u is flat in y), an analytic u_y that may be 0 or NaN on a stretch of y,
    and u NaN above an optional action.  ``shift`` is added to u; a large one
    leaves some pair without a sign change.  Returns the problem and the
    middle action of the flat stretch (None without one)."""
    b = draw(st.floats(-2.0, 2.0))
    k = draw(st.floats(0.2, 6.0))
    f0 = draw(st.floats(0.0, 0.9))
    w = draw(st.sampled_from([0.0, 0.05, 0.3]))
    defect = draw(st.sampled_from([None, 0.0, np.nan]))
    d0 = draw(st.floats(0.0, 0.9))
    dw = draw(st.sampled_from([1e-3, 0.1, 0.5]))
    nan_above = draw(st.one_of(st.none(), st.floats(0.3, 1.0)))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 2.0]))
    n = draw(st.integers(3, 12))

    def s(y):
        return (y - (np.clip(y, f0, f0 + w) - f0)) / (1.0 - w)

    def u(y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        out = np.exp(b * x) * np.tanh(k * (x - s(y))) / k + shift
        return out if nan_above is None else np.where(y > nan_above, np.nan, out)

    def u_y(y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        t = np.tanh(k * (x - s(y)))
        slope = np.where((y > f0) & (y < f0 + w), 0.0, 1.0 / (1.0 - w))
        out = -np.exp(b * x) * (1.0 - t * t) * slope
        return out if defect is None else np.where((y >= d0) & (y <= d0 + dw), defect, out)

    problem = Problem(
        states=uniform(0.0, 1.0, n),
        actions=uniform(0.0, 1.0, n, "action"),
        prior=np.full(n, 1.0 / n),
        V=lambda y, x: y + 0.0 * x,
        u=u,
        u_y=u_y,
    )
    return problem, (f0 + 0.5 * w if w else None)


class TestGammaBinary:
    @pytest.mark.parametrize("pid", STRICT_FOC)
    def test_matches_bisection_on_pooling_table(self, pid):
        pb, _ = preset(pid, grid_n=41)
        x1, x2, rho = pooling_table(pb)
        got = gamma_binary(pb, x1, x2, rho)
        assert np.max(np.abs(got - bisect_binary(pb, x1, x2, rho))) <= 1e-14 * pb.actions.span

    @pytest.mark.parametrize("pid", STRICT_FOC)
    def test_rounds_per_entry(self, pid, caplog):
        # 2 rounds per entry where u is affine in y, 3.9 to 5.6 on the others
        pb, _ = preset(pid, grid_n=101)
        with caplog.at_level(logging.DEBUG, logger="optrans.model"):
            gamma_binary(pb, *pooling_table(pb))
        (rec,) = [r for r in caplog.records if r.name == "optrans.model"]
        entries, rounds, _, capped = rec.args
        assert rounds <= 8 * entries
        assert capped == 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(awkward_receivers())
    def test_matches_bisection_on_awkward_receivers(self, case):
        pb, y_flat = case
        x = pb.states.points
        i1, i2 = np.triu_indices(x.size)
        rho = np.linspace(0.0, 1.0, 9)[:, None]
        x1, x2 = x[i1][None, :], x[i2][None, :]

        def agg(y):
            return rho * pb.u(y, x1) + (1.0 - rho) * pb.u(y, x2)

        agg_lo, agg_hi = agg(pb.actions.lo), agg(pb.actions.hi)
        if np.isnan(agg_lo).any() or np.isnan(agg_hi).any():  # no sign to bracket by
            with pytest.raises(IllPosed):
                gamma_binary(pb, x1, x2, rho)
            return
        if np.any((np.sign(agg_lo) == np.sign(agg_hi)) & (agg_lo != 0.0) & (agg_hi != 0.0)):
            with pytest.raises(NoRoot):
                gamma_binary(pb, x1, x2, rho)
            return
        got = gamma_binary(pb, x1, x2, rho)
        want = bisect_binary(pb, x1, x2, rho)
        # where the aggregate vanishes on u's flat stretch up to rounding,
        # every point of the stretch is a root
        flat = np.zeros(got.shape, bool) if y_flat is None else np.abs(agg(y_flat)) <= 1e-12
        diff = np.abs(got - want)
        assert np.max(diff[~flat], initial=0.0) <= 1e-14 * pb.actions.span

    def test_newton_cycle_falls_back_to_midpoints(self):
        # u = -sign(y - x) |y - x|^0.51: every Newton step lands on the other
        # side of the root, 0.96 times as far, a cycle that closes in too
        # slowly for the round cap; an infinite u_y at the root is fine too
        def u(y, x):
            t = np.asarray(y, float) - np.asarray(x, float)
            return -np.sign(t) * np.abs(t) ** 0.51

        def u_y(y, x):
            t = np.abs(np.asarray(y, float) - np.asarray(x, float))
            with np.errstate(divide="ignore"):
                return -0.51 * t**-0.49

        pb = Problem(
            states=uniform(0.0, 1.0, 11),
            actions=uniform(0.0, 1.0, 11, "action"),
            prior=np.full(11, 1.0 / 11),
            V=lambda y, x: y + 0.0 * x,
            u=u,
            u_y=u_y,
        )
        x = pb.states.points
        assert np.max(np.abs(gamma_binary(pb, x, x, 1.0) - x)) <= 1e-14

    def test_check_full_disclosure_evaluator_calls(self):
        # 2,778 evaluator calls with the 60-step bisection; at most a fifth
        # of that with the Newton iteration
        pb, _ = preset("example_c1", grid_n=101)
        calls = []
        for name in ("V", "u", "V_y", "V_yx", "u_y", "u_x", "u_yx"):
            fn = getattr(pb, name)
            setattr(pb, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
        assert check_full_disclosure(pb).label == "not_optimal"
        assert len(calls) <= 2778 // 5


def bisect_scalar(f, lo, hi):
    """The scalar sign-change bisection gamma and chi ran before the shared
    Newton iteration, capped at 200 steps, kept as the reference."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoRoot(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
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


@functools.lru_cache(maxsize=None)
def preset41(pid):
    return preset(pid, grid_n=41)[0]


class TestRootAgainstBisection:
    @pytest.mark.parametrize("pid", preset_ids())
    def test_chi_on_the_action_grid(self, pid):
        pb = preset41(pid)
        # where u = x - y, chi(y) is a grid state, and one ulp off would move
        # that state to the other side of the pivot in check_twist
        exact = pb.u is MEAN_RECEIVER["u"]
        for y in pb.actions.points:

            def f(x):
                return float(pb.u(np.array([y]), np.array([x]))[0])

            try:
                want = bisect_scalar(f, pb.states.lo, pb.states.hi)
            except NoRoot:
                with pytest.raises(NoRoot):
                    chi(pb, float(y))
                continue
            got = chi(pb, float(y))
            if exact:
                assert got == want, y
            else:
                assert abs(got - want) <= 1e-15 * pb.states.span, y

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(STRICT_FOC), st.data())
    def test_gamma_on_random_posteriors(self, pid, data):
        pb = preset41(pid)
        support = data.draw(st.lists(st.integers(0, pb.n_states - 1), min_size=1, max_size=6, unique=True))
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
        mu = Posterior.from_weights(support, weights)  # sorts the support with its weights
        xs, w = mu.states(pb.states), mu.weights

        def f(y):
            return float(w @ pb.u(np.full(xs.shape, y), xs))

        try:
            want = bisect_scalar(f, pb.actions.lo, pb.actions.hi)
        except NoRoot:
            with pytest.raises(NoRoot):
                gamma(pb, mu)
            return
        assert abs(gamma(pb, mu) - want) <= 1e-14 * pb.actions.span


def nan_receiver(nan_at):
    """u = x - y on five states, NaN where ``nan_at(y, x)`` holds."""
    return Problem(
        states=from_points([0.0, 0.1, 0.25, 0.5, 1.0]),
        actions=uniform(0.0, 1.0, 5, "action"),
        prior=np.full(5, 0.2),
        V=lambda y, x: y + 0.0 * x,
        u=lambda y, x: np.where(nan_at(y, x), np.nan, x - y),
        u_y=lambda y, x: -1.0 + 0.0 * (x + y),
        u_x=lambda y, x: 1.0 + 0.0 * (x + y),
    )


def assert_chi_array_matches_scalar(pb, ys):
    """chi_array over ``ys`` against chi one action at a time: the same root
    bit for bit, NaN where chi raises NoRoot, and an IllPosed of the same
    message where chi raises IllPosed.  Returns the number of actions
    without a root."""
    roots, errors = chi_array(pb, ys)
    assert roots.shape == ys.shape and set(errors) <= set(range(ys.size))
    missing = 0
    for i, y in enumerate(ys):
        try:
            want = chi(pb, float(y))
        except NoRoot:
            assert np.isnan(roots[i]) and i not in errors, y
            missing += 1
        except IllPosed as exc:
            assert type(errors[i]) is IllPosed and str(errors[i]) == str(exc), y
        else:
            assert i not in errors and repr(float(roots[i])) == repr(want), y
    return missing


class TestChiArray:
    def test_presets_bit_equal(self):
        missing = 0
        for pid in preset_ids():
            for grid_n in (41, 101):
                pb = preset(pid, grid_n=grid_n)[0]
                missing += assert_chi_array_matches_scalar(pb, pb.actions.points)
        assert missing == 20  # n=41 and 101: example_c2 and quantile 1 and 1 each, stress_test 5 and 11

    def test_checks_call_no_scalar_chi(self, monkeypatch):
        calls = []
        for module in (model, structure):
            monkeypatch.setattr(module, "chi", lambda *a: calls.append(a))
        pb = preset41("example_c1")
        assert structure.check_twist(pb).label == "holds_positive"
        assert structure.check_nad_condition(pb).route == "local"
        assert calls == []

    @pytest.mark.parametrize(
        "nan_at",
        [
            lambda y, x: x > 0.8,  # NaN at the top state
            lambda y, x: (y > 0.5) & (x > 0.4) & (x < 0.6),  # NaN at an iterate: the one call stops
            lambda y, x: (y > 0.1) & (y < 0.3) & (x > 0.4) & (x < 0.6),
        ],
        ids=["end", "iterate", "iterate-some"],
    )
    def test_ill_posed_actions(self, nan_at):
        pb = nan_receiver(nan_at)
        ys = np.linspace(-0.5, 1.5, 21)  # actions beyond the states have no root
        assert_chi_array_matches_scalar(pb, ys)
        assert chi_array(pb, ys)[1]


class TestNaNFirstOrderCondition:
    """A NaN first-order condition is ill-posed input: neither a sign change
    nor a root."""

    @pytest.mark.parametrize(
        "nan_at",
        [
            lambda y, x: y > 0.3,  # NaN at the top action
            lambda y, x: y < 0.2,  # NaN at the bottom action
            lambda y, x: (y > 0.4) & (y < 0.6),  # finite at both ends, NaN at the midpoint
        ],
        ids=["top", "bottom", "interior"],
    )
    def test_best_responses_raise(self, nan_at):
        pb = nan_receiver(nan_at)
        x = pb.states.points
        with pytest.raises(IllPosed):
            gamma_binary(pb, x, x, 1.0)
        with pytest.raises(IllPosed):
            gamma(pb, Posterior.degenerate(3))

    @pytest.mark.parametrize(
        "nan_at",
        [lambda y, x: x > 0.8, lambda y, x: (x > 0.4) & (x < 0.6)],
        ids=["end", "interior"],
    )
    def test_chi_raises(self, nan_at):
        pb = nan_receiver(nan_at)
        with pytest.raises(IllPosed):
            chi(pb, 0.3)

    def test_non_finite_prior(self):
        with pytest.raises(IllPosed):
            Problem(
                states=uniform(0.0, 1.0, 3),
                actions=uniform(0.0, 1.0, 3, "action"),
                prior=np.array([0.5, np.nan, 0.5]),
                V=lambda y, x: y + 0.0 * x,
                u=lambda y, x: x - y,
            )
