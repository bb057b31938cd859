import numpy as np
import pytest

from optrans.errors import ParamOutOfRange, UnknownPreset
from optrans.model import check_assumptions
from optrans.presets import OracleReport, oracle_check, preset, preset_ids


class TestCatalog:
    def test_all_ids_build(self):
        assert len(preset_ids()) == 14
        for pid in preset_ids():
            problem, meta = preset(pid, grid_n=11)
            assert problem.n_states >= 2
            assert meta.id == pid

    def test_unknown_id(self):
        with pytest.raises(UnknownPreset):
            preset("nonesuch")

    def test_param_range_errors(self):
        with pytest.raises(ParamOutOfRange):
            preset("quantile", grid_n=11, kappa=1.5)
        with pytest.raises(ParamOutOfRange):
            preset("contest", grid_n=11, xmin=0.5, xmax=0.2)
        with pytest.raises(ParamOutOfRange):
            preset("linear", grid_n=11, V_shape="wiggly")
        with pytest.raises(ParamOutOfRange):
            preset("linear", grid_n=2)
        with pytest.raises(ParamOutOfRange):
            preset("stress_test", grid_n=11, n_atoms=-3)

    def test_flag_patterns_documented(self):
        for pid in preset_ids():
            problem, meta = preset(pid, grid_n=21)
            rep = check_assumptions(problem)
            for key, want in meta.expected_flags.items():
                assert rep.flags()[key] == want, (pid, key)


class TestOracles:
    def test_pair_bound_values(self):
        _, meta = preset("example_c1", grid_n=11)
        assert float(meta.oracle["chi2"](np.array([1.25]))[0]) == pytest.approx(2.0)
        assert float(meta.oracle["chi1"](np.array([1.25]))[0]) == pytest.approx(0.5)

    def test_contest_full_disclosure_expected(self):
        _, meta = preset("contest", grid_n=11, xmin=1.0, xmax=2.0)
        assert meta.expected_verdicts["full_disclosure"] == "optimal_unique"

    def test_quantile_bottom_action(self):
        _, meta = preset("example_c2", grid_n=11, kappa=0.5)
        assert meta.oracle["y_low"] == pytest.approx(0.5)

    def test_log_grid_mirrors_pairs(self):
        problem, _ = preset("example_c1", grid_n=41)
        pts = problem.states.points
        assert np.allclose(pts * pts[::-1], 1.0)

    def test_certificate_slack_zero_on_curves(self):
        problem, meta = preset("example_c3", grid_n=41)
        p = meta.oracle["p"]
        q = meta.oracle["q"]
        ys = np.linspace(0.0, 1.0, 101)
        for xs in (-ys, 3 * ys):
            slack = p(xs) - np.tanh(2 * ys) - q(ys) * np.tanh(xs - ys)
            assert np.max(np.abs(slack)) <= 1e-9
        neg = np.linspace(-1.0, -1e-3, 50)
        slack = p(neg) - np.tanh(2 * neg) - q(neg) * np.tanh(0.0)
        assert np.max(np.abs(slack)) <= 1e-9

    def test_certificate_slack_positive_off_curves(self):
        problem, meta = preset("example_c3", grid_n=81)
        p = meta.oracle["p"]
        q = meta.oracle["q"]
        Y, X = problem.grids_product()
        slack = p(X) - np.tanh(2.0 * Y) - q(Y) * np.tanh(X - Y)
        d = np.full(Y.shape, np.inf)
        on_seg = (Y >= 0) & (Y <= 1)
        d = np.where(on_seg, np.minimum(np.abs(X + Y), np.abs(X - 3 * Y)), d)
        d = np.where(Y <= 0, np.minimum(d, np.abs(X - Y)), d)
        off = d > 0.1
        assert float(np.min(slack[off])) >= 1e-6
        assert float(np.min(slack)) >= -1e-9

    def test_returns_increasing_with_segregation(self):
        problem, meta = preset("rayo_segal", grid_n=21)
        from optrans.structure import check_full_disclosure

        assert check_full_disclosure(problem).label == "optimal_unique"


class TestOracleCheck:
    def test_scalar_and_function_fields(self):
        _, meta = preset("example_c1", grid_n=11)
        ys = np.array([1.1, 1.3])
        rep = oracle_check(
            meta,
            {
                "y_low": 1.0 + 1e-7,
                "q": (ys, ys + 1e-5),
                "chi2": (ys, meta.oracle["chi2"](ys) + 1.0),
            },
        )
        assert isinstance(rep, OracleReport)
        by_name = {f.name: f for f in rep.fields}
        assert by_name["y_low"].passed
        assert by_name["q"].passed
        assert not by_name["chi2"].passed
        assert not rep.passed

    def test_passing_bundle(self):
        _, meta = preset("example_c2", grid_n=11)
        rep = oracle_check(meta, {"y_low": 0.5, "rho": 0.5})
        assert rep.passed


# parameter variants of the catalog presets
VARIANTS = [
    ("linear", {"V_shape": "concave"}),
    ("linear", {"V_shape": "linear"}),
    ("rayo_segal", {"w": "affine_down", "G": "linear"}),
    ("translation_sender", {"P": "humped"}),
    ("translation_receiver", {"V": "logistic"}),
    ("example_c3", {"prior": "skewed"}),
    ("contest", {"xmin": 1.0, "xmax": 2.0}),
    ("contest", {"xmin": 0.6, "xmax": 0.9}),
    ("option_pricing", {"payoff": "smile"}),
    ("quantile", {"kappa": 0.3}),
    ("example_c2", {"kappa": 0.3}),
    ("affiliated", {"beta": 4.0}),
    ("stress_test", {"x0": 0.3}),
    ("gerrymander", {"swing": 2.0}),
    ("linear_receiver", {"a": 2.0}),
]
# derivatives that are zero by convention rather than derivatives of V and u
NONSMOOTH = ("quantile", "example_c2", "stress_test")


class TestAnalyticDerivatives:
    @pytest.mark.parametrize(
        "pid,params",
        [(pid, {}) for pid in preset_ids() if pid not in NONSMOOTH]
        + [(pid, params) for pid, params in VARIANTS if pid not in NONSMOOTH],
    )
    def test_match_central_differences(self, pid, params):
        pb, _ = preset(pid, grid_n=21, **params)
        Y, X = pb.grids_product()
        h = 1e-4

        def dy(f):
            return lambda y, x: (f(y + h, x) - f(y - h, x)) / (2.0 * h)

        def dx(f):
            return lambda y, x: (f(y, x + h) - f(y, x - h)) / (2.0 * h)

        differences = {"V_y": dy(pb.V), "V_yx": dx(dy(pb.V)), "u_y": dy(pb.u), "u_x": dx(pb.u), "u_yx": dx(dy(pb.u))}
        for name, fd in differences.items():
            if name in pb.fd_filled:
                continue
            want = np.asarray(fd(Y, X), dtype=float)
            got = np.broadcast_to(np.asarray(getattr(pb, name)(Y, X), dtype=float), Y.shape)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-4 * scale, (pid, params, name)
