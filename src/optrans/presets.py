"""Preset problem builders with analytic derivatives and oracle values.

Each entry constructs a validated Problem plus a Preset record carrying
closed-form reference answers (where known), expected checker verdicts, and
the assumption-flag pattern the instance is supposed to produce.  Action
grids default to the state grid when the receiver's per-state optimum is the
state itself, and to the image of the per-state optimum otherwise, so that
full disclosure is exactly representable and the LP is always feasible.

Builders share their common pieces: the posterior-mean receiver
``MEAN_RECEIVER`` (u = x - y), the translation kernel ``TANH_RECEIVER``
(u = tanh(x - y)), the uniform [0, 1] grids and prior of ``_unit_grids`` with
their density and cdf ``UNIT_DENSITY``, and the flag pattern ``ALL_FLAGS_OK``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParamOutOfRange, UnknownPreset
from .grids import cell_masses, from_points, log_spaced, uniform
from .model import Problem

E = float(np.e)
ORACLE_TOL = 1e-2  # oracle tolerance of fields the preset gives none for
NUM_DZ_STEP = 1e-6  # central-difference step of the derivatives no closed form is given for


@dataclass
class Preset:
    id: str
    params: dict
    oracle: dict = field(default_factory=dict)
    expected_verdicts: dict = field(default_factory=dict)
    expected_flags: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)
    prior_density: Optional[Callable] = None
    prior_cdf: Optional[Callable] = None
    notes: str = ""


@dataclass
class OracleField:
    name: str
    deviation: float
    tolerance: float
    passed: bool


@dataclass
class OracleReport:
    preset_id: str
    fields: tuple

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.fields)


def oracle_check(preset: Preset, computed: dict) -> OracleReport:
    """Compare solver outputs against the preset's reference answers, within
    the preset's per-field tolerance or else ``ORACLE_TOL``.

    ``computed`` maps oracle field names to values: scalars compare directly;
    for a callable oracle the computed entry must be a (points, values) pair
    evaluated wherever the caller sampled.
    """
    fields = []
    for name, expected in preset.oracle.items():
        if name not in computed:
            continue
        tol = preset.tolerance.get(name, ORACLE_TOL)
        got = computed[name]
        if callable(expected):
            pts, vals = got
            ref = np.asarray(expected(np.asarray(pts, dtype=float)), dtype=float)
            dev = float(np.max(np.abs(np.asarray(vals, dtype=float) - ref))) if ref.size else 0.0
        else:
            dev = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(expected, dtype=float))))
        fields.append(OracleField(name=name, deviation=dev, tolerance=tol, passed=dev <= tol))
    return OracleReport(preset_id=preset.id, fields=tuple(fields))


def _uniform_density(lo, hi):
    """Preset keywords: the uniform prior density and cdf on [lo, hi]."""
    h = hi - lo

    def f(x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / h)

    def F(x):
        return np.clip((np.asarray(x, dtype=float) - lo) / h, 0.0, 1.0)

    return {"prior_density": f, "prior_cdf": F}


def _num_dz(f):
    def d(z):
        return (f(np.asarray(z) + NUM_DZ_STEP) - f(np.asarray(z) - NUM_DZ_STEP)) / (2.0 * NUM_DZ_STEP)

    return d


def _sech2(z):
    """sech(z)^2, exactly 0 where cosh(z)^2 overflows."""
    with np.errstate(over="ignore"):
        c = np.cosh(z)
        return 1.0 / (c * c)


def _zero(y, x):
    return 0.0 * (x + y)


def _unit_grids(grid_n, actions_n):
    """Problem keywords: states and actions uniform on [0, 1], uniform prior."""
    return {
        "states": uniform(0.0, 1.0, grid_n),
        "actions": uniform(0.0, 1.0, actions_n, "action"),
        "prior": np.full(grid_n, 1.0 / grid_n),
    }


UNIT_DENSITY = _uniform_density(0.0, 1.0)
MEAN_RECEIVER = {
    "u": lambda y, x: x - y,
    "u_y": lambda y, x: -1.0 + 0.0 * (x + y),
    "u_x": lambda y, x: 1.0 + 0.0 * (x + y),
    "u_yx": _zero,
}
TANH_RECEIVER = {
    "u": lambda y, x: np.tanh(x - y),
    "u_y": lambda y, x: -_sech2(x - y),
    "u_x": lambda y, x: _sech2(x - y),
    "u_yx": lambda y, x: 2.0 * _sech2(x - y) * np.tanh(x - y),
}
ALL_FLAGS_OK = {"smooth_ok": True, "asc_ok": True, "interior_ok": True, "ordering_ok": True}


# ---------------------------------------------------------------------------
# builders


def _linear(grid_n, actions_n, V_shape="convex"):
    shapes = {
        "convex": (lambda y: y**2, lambda y: 2.0 * y),
        "concave": (lambda y: -((y - 0.5) ** 2), lambda y: -2.0 * (y - 0.5)),
        "linear": (lambda y: y, lambda y: np.ones_like(np.asarray(y, dtype=float))),
    }
    if V_shape not in shapes:
        raise ParamOutOfRange(f"linear preset: unknown V_shape {V_shape!r}")
    Vf, Vyf = shapes[V_shape]
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: Vf(y) + 0.0 * x,
        V_y=lambda y, x: Vyf(y) + 0.0 * x,
        V_yx=_zero,
        **MEAN_RECEIVER,
        name=f"linear[{V_shape}]",
    )
    verdicts = {
        "twist": "fails",
        "full_disclosure": {"convex": "optimal_unique", "concave": "not_optimal", "linear": "optimal"}[V_shape],
    }
    return problem, Preset(
        id="linear",
        params={"V_shape": V_shape, "grid_n": grid_n},
        expected_verdicts=verdicts,
        # V_y vanishes at the bottom action for the convex shape and changes
        # sign for the concave one
        expected_flags=dict(ALL_FLAGS_OK, ordering_ok=V_shape == "linear"),
        **UNIT_DENSITY,
        notes="state-independent sender with a mean-reading receiver",
    )


def _linear_receiver(grid_n, actions_n, a=1.0, b=2.0, c=0.5):
    if a <= 0 or b <= 0:
        raise ParamOutOfRange("linear_receiver: a, b must be positive")

    def g(x):
        return a + b * (x - c) ** 2

    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: y * g(x),
        V_y=lambda y, x: g(x) + 0.0 * y,
        V_yx=lambda y, x: 2.0 * b * (x - c) + 0.0 * y,
        **MEAN_RECEIVER,
        name="linear_receiver[quad]",
    )
    return problem, Preset(
        id="linear_receiver",
        params={"a": a, "b": b, "c": c, "grid_n": grid_n},
        expected_verdicts={"sdpd": "dipped_strict", "full_disclosure": "not_optimal", "twist": "holds_positive"},
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="marginal sender gain strictly convex in the state",
    )


def _rayo_segal(grid_n, actions_n, w="affine_up", G="quadratic"):
    ws = {
        "affine_up": (lambda x: 1.0 + x, lambda x: np.ones_like(np.asarray(x, dtype=float))),
        "affine_down": (lambda x: 2.0 - x, lambda x: -np.ones_like(np.asarray(x, dtype=float))),
    }
    Gs = {
        "quadratic": (lambda y: (1.0 + y) ** 2, lambda y: 2.0 * (1.0 + y)),
        "linear": (lambda y: 1.0 + y, lambda y: np.ones_like(np.asarray(y, dtype=float))),
    }
    if w not in ws or G not in Gs:
        raise ParamOutOfRange(f"rayo_segal: unknown shapes {w!r}, {G!r}")
    wf, wpf = ws[w]
    Gf, Gpf = Gs[G]
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: wf(x) * Gf(y),
        V_y=lambda y, x: wf(x) * Gpf(y),
        V_yx=lambda y, x: wpf(x) * Gpf(y),
        **MEAN_RECEIVER,
        name=f"rayo_segal[{w},{G}]",
    )
    ev = {"full_disclosure": "optimal_unique"} if (w == "affine_up" and G == "quadratic") else {}
    return problem, Preset(
        id="rayo_segal",
        params={"w": w, "G": G, "grid_n": grid_n},
        expected_verdicts=ev,
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="multiplicatively separable sender utility",
    )


def _translation_sender(grid_n, actions_n, P="exp"):
    if P == "exp":
        Pf = Ppf = np.exp
        nad_verdict = "holds"
    elif P == "humped":
        # P'(z) = 1 - z/2 + z^2/2 > 0, strictly convex, with P''(0) < 0
        Pf = lambda z: z - z**2 / 4.0 + z**3 / 6.0
        Ppf = lambda z: 1.0 - z / 2.0 + z**2 / 2.0
        nad_verdict = "fails"
    else:
        raise ParamOutOfRange(f"translation_sender: unknown P {P!r}")
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: Pf(y - x),
        V_y=lambda y, x: Ppf(y - x),
        V_yx=lambda y, x: -_num_dz(Ppf)(y - x),
        **MEAN_RECEIVER,
        name=f"translation_sender[{P}]",
    )
    return problem, Preset(
        id="translation_sender",
        params={"P": P, "grid_n": grid_n},
        expected_verdicts={"sdpd": "dipped_strict", "nad_condition": nad_verdict},
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="sender cares about the over-valuation y - x only",
    )


def _translation_receiver(grid_n, actions_n, V="linear"):
    if V == "linear":
        Vf = lambda y: y
        Vyf = lambda y: np.ones_like(np.asarray(y, dtype=float))
    elif V == "logistic":
        Vf = lambda y: 1.0 / (1.0 + np.exp(-(y - 0.5) / 0.3))
        Vyf = _num_dz(Vf)
    else:
        raise ParamOutOfRange(f"translation_receiver: unknown V {V!r}")
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: Vf(y) + 0.0 * x,
        V_y=lambda y, x: Vyf(y) + 0.0 * x,
        V_yx=_zero,
        **TANH_RECEIVER,
        name=f"translation_receiver[tanh,{V}]",
    )
    ev = {"sdpd": "dipped_strict", "nad_condition": "holds"} if V == "linear" else {"sdpd": "dipped_strict"}
    return problem, Preset(
        id="translation_receiver",
        params={"V": V, "grid_n": grid_n},
        expected_verdicts=ev,
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="receiver marginal utility depends on x - y through a log-concave-slope kernel",
    )


def _quantile(grid_n, actions_n, kappa=0.5):
    if not (0.0 < kappa < 1.0):
        raise ParamOutOfRange("quantile: kappa must lie in (0, 1)")
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: y + 0.0 * x,
        u=lambda y, x: (np.asarray(x) >= np.asarray(y)).astype(float) - kappa,
        V_y=lambda y, x: 1.0 + 0.0 * (x + y),
        V_yx=_zero,
        u_y=_zero,
        u_x=_zero,
        u_yx=_zero,
        tie_break="sender_favorable",
        smooth=False,
        ordering="single_crossing",
        obedience="inequality",
        quantile_kappa=kappa,
        name=f"quantile[{kappa}]",
    )
    return problem, Preset(
        id="quantile",
        params={"kappa": kappa, "grid_n": grid_n},
        expected_flags={"smooth_ok": False, "asc_ok": False, "interior_ok": False, "ordering_ok": True},
        **UNIT_DENSITY,
        notes="indicator receiver; admitted with sender-favorable ties",
    )


def _example_c1(grid_n, actions_n):
    states = log_spaced(1.0 / E, E, grid_n)
    actions = log_spaced(1.0 / E, E, actions_n, "action")
    density = lambda x: 1.0 / (2.0 * np.asarray(x, dtype=float))
    cdf = lambda x: np.clip(0.5 * (np.log(np.asarray(x, dtype=float)) + 1.0), 0.0, 1.0)
    prior = cell_masses(states, density)
    problem = Problem(
        states=states,
        actions=actions,
        prior=prior,
        V=lambda y, x: y / x,
        V_y=lambda y, x: 1.0 / np.asarray(x, dtype=float) + 0.0 * y,
        V_yx=lambda y, x: -1.0 / np.asarray(x, dtype=float) ** 2 + 0.0 * y,
        **MEAN_RECEIVER,
        name="example_c1",
    )
    pstar = (0.5 * (states.points + 1.0 / states.points)) ** 2
    oracle = {
        "chi1": lambda y: y - np.sqrt(np.maximum(y * y - 1.0, 0.0)),
        "chi2": lambda y: y + np.sqrt(np.maximum(y * y - 1.0, 0.0)),
        "q": lambda y: y,
        "p": lambda x: (0.5 * (x + 1.0 / x)) ** 2,
        "rho": 0.5,
        "y_low": 1.0,
        "y_high": 0.5 * (E + 1.0 / E),
        "objective": float(prior @ pstar),
    }
    tol = {"chi1": 1e-4, "chi2": 1e-4, "q": 1e-4, "rho": 1e-4, "y_low": 1e-5, "y_high": 1e-5,
           "objective": 1e-3, "p": 1e-2}
    return problem, Preset(
        id="example_c1",
        params={"grid_n": grid_n},
        oracle=oracle,
        tolerance=tol,
        expected_verdicts={
            "sdpd": "dipped_strict",
            "nad_condition": "holds",
            "full_disclosure": "not_optimal",
            "twist": "holds_positive",
            "classify": "strictly_single_dipped",
        },
        expected_flags=ALL_FLAGS_OK,
        prior_density=density,
        prior_cdf=cdf,
        notes="reciprocal-state sender on a log-symmetric range; fully closed-form",
    )


def _example_c2(grid_n, actions_n, kappa=0.5):
    problem, base = _quantile(grid_n, actions_n, kappa=kappa)
    problem.name = f"example_c2[{kappa}]"
    F = base.prior_cdf

    def chi1(y):
        # kappa * F(chi1) = (1 - kappa) * (1 - F(y)); uniform prior inverts
        return np.clip((1.0 - kappa) / kappa * (1.0 - np.asarray(y, dtype=float)), 0.0, 1.0)

    def alpha_upper(y):
        return np.minimum(1.0, (1.0 - np.asarray(F(y), dtype=float)) / kappa)

    oracle = {
        "chi1": chi1,
        "chi2": lambda y: np.asarray(y, dtype=float),
        "alpha_tail": alpha_upper,
        "y_low": 1.0 - kappa,  # kappa*F(t) = (1-kappa)*(1-F(t)) with uniform prior
        "rho": 1.0 - kappa,
    }
    return problem, Preset(
        id="example_c2",
        params={"kappa": kappa, "grid_n": grid_n},
        oracle=oracle,
        tolerance={"y_low": 1e-9, "rho": 1e-12},
        expected_flags=base.expected_flags,
        prior_density=base.prior_density,
        prior_cdf=F,
        notes="quantile receiver with uniform prior; pairing solved in closed form",
    )


def _example_c3(grid_n, actions_n, prior="balanced"):
    states = uniform(-1.0, 3.0, grid_n)
    actions = uniform(-1.0, 3.0, actions_n, "action")
    if prior == "balanced":
        a_lo, a_hi = 0.5, 1.0 / 6.0  # f(-y) = 3 f(3y) exactly
    elif prior == "skewed":
        a_lo, a_hi = 0.7, 0.1  # f(-y) > 3 f(3y)
    else:
        raise ParamOutOfRange(f"example_c3: unknown prior {prior!r}")

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, a_lo, a_hi)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, a_lo * (x + 1.0), a_lo + a_hi * x)

    prior_w = cell_masses(states, density)
    problem = Problem(
        states=states,
        actions=actions,
        prior=prior_w,
        V=lambda y, x: np.tanh(2.0 * y) + 0.0 * x,
        V_y=lambda y, x: 2.0 * _sech2(2.0 * y) + 0.0 * x,
        V_yx=_zero,
        **TANH_RECEIVER,
        name=f"example_c3[{prior}]",
    )

    def p_fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, np.tanh(2.0 * x), 3.0 * np.tanh(2.0 * x / 3.0))

    def q_fn(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0.0, 2.0 * _sech2(2.0 * y), 2.0)

    def chi1(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, y, -y)

    def chi2(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, y, 3.0 * y)

    oracle = {"p": p_fn, "q": q_fn, "chi1": chi1, "chi2": chi2}
    return problem, Preset(
        id="example_c3",
        params={"prior": prior, "grid_n": grid_n},
        oracle=oracle,
        tolerance={"p": 1e-2, "q": 1e-2},
        expected_verdicts={"sdpd": "dipped_strict", "nad_condition": "fails"},
        expected_flags=ALL_FLAGS_OK,
        prior_density=density,
        prior_cdf=cdf,
        notes="piecewise-constant prior; closed-form price certificate",
    )


def _contest(grid_n, actions_n, xmin=0.1, xmax=0.5):
    if not (0.0 < xmin < xmax):
        raise ParamOutOfRange("contest: need 0 < xmin < xmax")
    states = uniform(xmin, xmax, grid_n)
    img = np.unique(states.points / (1.0 + states.points**2))
    if img.size < max(3, actions_n // 4):
        img = np.unique(np.concatenate([img, np.linspace(img.min(), img.max(), actions_n)]))
    actions = from_points(img, "action")
    prior = np.full(grid_n, 1.0 / grid_n)
    problem = Problem(
        states=states,
        actions=actions,
        prior=prior,
        V=lambda y, x: y / x,
        u=lambda y, x: x - (1.0 + x * x) * y,
        V_y=lambda y, x: 1.0 / np.asarray(x, dtype=float) + 0.0 * y,
        V_yx=lambda y, x: -1.0 / np.asarray(x, dtype=float) ** 2 + 0.0 * y,
        u_y=lambda y, x: -(1.0 + np.asarray(x, dtype=float) ** 2) + 0.0 * y,
        u_x=lambda y, x: 1.0 - 2.0 * np.asarray(x) * np.asarray(y),
        u_yx=lambda y, x: -2.0 * np.asarray(x, dtype=float) + 0.0 * y,
        ordering="single_crossing" if xmax > 1.0 else "increasing",
        name=f"contest[{xmin},{xmax}]",
    )

    def twist_closed(y, x1, x2, x3):
        return (x3 - x2) * (x3 - x1) * (x2 - x1) * (1.0 - x2 * x3 - x1 * x3 - x1 * x2) / (x1 * x2 * x3)

    thr = 1.0 / np.sqrt(3.0)
    verdicts = {}
    if xmax <= thr:
        verdicts["classify"] = "strictly_single_dipped"
        verdicts["twist"] = "holds_positive"
    elif xmin >= thr and xmax <= 1.0:
        verdicts["classify"] = "strictly_single_peaked"
        verdicts["twist"] = "holds_negative"
    if xmin >= 1.0:
        verdicts["full_disclosure"] = "optimal_unique"
    oracle = {"twist_determinant": twist_closed}
    return problem, Preset(
        id="contest",
        params={"xmin": xmin, "xmax": xmax, "grid_n": grid_n},
        oracle=oracle,
        tolerance={"twist_determinant": 1e-10},
        expected_verdicts=verdicts,
        expected_flags=dict(ALL_FLAGS_OK, ordering_ok=xmax <= 1.0),
        **_uniform_density(xmin, xmax),
        notes="effort contest; thresholds at 3^-1/2 and 1 switch the pairing direction",
    )


def _affiliated(grid_n, actions_n, x0=0.7071067811865476, beta=8.0):
    if not (0.0 < x0 < 1.0):
        raise ParamOutOfRange("affiliated: x0 must lie in (0, 1)")
    if beta <= 0:
        raise ParamOutOfRange("affiliated: beta must be positive")

    # type density g(t|x) proportional to exp(-beta t x): strictly
    # log-submodular; the x -> 0 limit is the uniform density
    def gdens(t, x):
        t = np.asarray(t, dtype=float)
        z = beta * np.asarray(x, dtype=float)
        safe = np.where(np.abs(z) < 1e-8, 1.0, z)
        out = safe * np.exp(-t * safe) / (1.0 - np.exp(-safe))
        return np.where(np.abs(z) < 1e-8, 1.0 + 0.0 * t, out)

    def Gcdf(t, x):
        t = np.asarray(t, dtype=float)
        z = beta * np.asarray(x, dtype=float)
        safe = np.where(np.abs(z) < 1e-8, 1.0, z)
        out = (1.0 - np.exp(-t * safe)) / (1.0 - np.exp(-safe))
        return np.where(np.abs(z) < 1e-8, t, out)

    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: Gcdf(y, x),
        u=lambda y, x: (np.asarray(x, dtype=float) - x0) * gdens(y, x),
        V_y=lambda y, x: gdens(y, x),
        u_y=lambda y, x: -(np.asarray(x, dtype=float) - x0)
        * beta
        * np.asarray(x, dtype=float)
        * gdens(y, x),
        tie_break="sender_favorable",
        smooth=True,
        ordering="single_crossing",
        obedience="inequality",
        constrain_bottom_row=False,
        name=f"affiliated[{x0},{beta}]",
    )
    return problem, Preset(
        id="affiliated",
        params={"x0": x0, "beta": beta, "grid_n": grid_n},
        expected_verdicts={"classify": "strictly_single_peaked"},
        expected_flags=dict(ALL_FLAGS_OK, interior_ok=False),
        **UNIT_DENSITY,
        notes="privately informed receiver with a log-submodular signal density",
    )


def _stress_test(grid_n, actions_n, x0=0.45, delta=0.2, n_atoms=9):
    if not (0.0 < x0 < 1.0) or not (0.0 < delta < 1.0) or n_atoms < 2:
        raise ParamOutOfRange("stress_test: x0 and delta must lie in (0, 1), and n_atoms be at least 2")
    atoms = np.linspace(0.05, 0.95, n_atoms)
    states = from_points(atoms)
    # disclosure of a below-threshold bank means pricing it exactly, so the
    # atom positions must be feasible prices
    action_pts = np.unique(np.concatenate([np.linspace(0.0, 1.0, actions_n), atoms]))
    actions = from_points(action_pts, "action")
    weights = 1.0 + 0.3 * np.cos(np.arange(n_atoms))
    prior = weights / weights.sum()

    def w(x):
        return 1.0 - 0.5 * np.asarray(x, dtype=float)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x0, x, x - delta * (x - x0))

    def V(y, x):
        y = np.asarray(y, dtype=float)
        return w(x) * (y >= x0).astype(float)

    def forbidden(y, x):
        return np.asarray(y, dtype=float) < sigma(x) - 1e-12

    problem = Problem(
        states=states,
        actions=actions,
        prior=prior,
        V=V,
        V_y=_zero,
        V_yx=_zero,
        **MEAN_RECEIVER,
        tie_break="sender_favorable",
        smooth=False,
        obedience="inequality",
        forbidden=forbidden,
        name=f"stress_test[{x0}]",
    )
    return problem, Preset(
        id="stress_test",
        params={"x0": x0, "delta": delta, "n_atoms": n_atoms, "grid_n": grid_n},
        expected_verdicts={"classify": ("single_dipped", "strictly_single_dipped")},
        expected_flags={"smooth_ok": False, "asc_ok": True, "interior_ok": True, "ordering_ok": False},
        notes="discrete prior; cells with a price below the reservation curve are dropped",
    )


def _gerrymander(grid_n, actions_n, swing=1.0, shock_scale=0.3):
    if swing <= 0 or shock_scale <= 0:
        raise ParamOutOfRange("gerrymander: scales must be positive")

    def sig(z):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))

    def T(z):
        return sig(np.asarray(z) / swing) - 0.5

    def Tp(z):
        s = sig(np.asarray(z) / swing)
        return s * (1.0 - s) / swing

    def Tpp(z):
        s = sig(np.asarray(z) / swing)
        return s * (1.0 - s) * (1.0 - 2.0 * s) / swing**2

    def V_y(y, x):
        s = sig((np.asarray(y) - 0.5) / shock_scale)
        return s * (1.0 - s) / shock_scale + 0.0 * np.asarray(x, dtype=float)

    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=lambda y, x: sig((np.asarray(y, dtype=float) - 0.5) / shock_scale) + 0.0 * x,
        u=lambda y, x: T(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)),
        V_y=V_y,
        V_yx=_zero,
        u_y=lambda y, x: -Tp(np.asarray(x) - np.asarray(y)),
        u_x=lambda y, x: Tp(np.asarray(x) - np.asarray(y)),
        u_yx=lambda y, x: -Tpp(np.asarray(x) - np.asarray(y)),
        name="gerrymander",
    )
    return problem, Preset(
        id="gerrymander",
        params={"swing": swing, "shock_scale": shock_scale, "grid_n": grid_n},
        expected_verdicts={"sdpd": "dipped_strict", "classify": "strictly_single_dipped"},
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="swing share strictly log-supermodular: polarized districts win more",
    )


def _option_pricing(grid_n, actions_n, payoff="skew"):
    if payoff == "skew":
        V = lambda y, x: y - (np.asarray(x) - np.asarray(y)) ** 3 / 3.0
        V_y = lambda y, x: 1.0 + (np.asarray(x) - np.asarray(y)) ** 2
        V_yx = lambda y, x: 2.0 * (np.asarray(x) - np.asarray(y))
        ev = {"sdpd": "dipped_strict"}
    elif payoff == "smile":
        V = lambda y, x: 2.0 * y + (np.asarray(x) - np.asarray(y)) ** 2
        V_y = lambda y, x: 2.0 - 2.0 * (np.asarray(x) - np.asarray(y))
        V_yx = lambda y, x: -2.0 + 0.0 * (np.asarray(x) + np.asarray(y))
        ev = {}
    else:
        raise ParamOutOfRange(f"option_pricing: unknown payoff {payoff!r}")
    problem = Problem(
        **_unit_grids(grid_n, actions_n),
        V=V,
        V_y=V_y,
        V_yx=V_yx,
        **MEAN_RECEIVER,
        name=f"option_pricing[{payoff}]",
    )
    return problem, Preset(
        id="option_pricing",
        params={"payoff": payoff, "grid_n": grid_n},
        expected_verdicts=ev,
        expected_flags=ALL_FLAGS_OK,
        **UNIT_DENSITY,
        notes="super-replication reading: p is the simple payout, q the holding per price",
    )


_CATALOG = {
    "linear": _linear,
    "linear_receiver": _linear_receiver,
    "rayo_segal": _rayo_segal,
    "translation_sender": _translation_sender,
    "translation_receiver": _translation_receiver,
    "quantile": _quantile,
    "example_c1": _example_c1,
    "example_c2": _example_c2,
    "example_c3": _example_c3,
    "contest": _contest,
    "affiliated": _affiliated,
    "stress_test": _stress_test,
    "gerrymander": _gerrymander,
    "option_pricing": _option_pricing,
}


def preset_ids() -> tuple:
    return tuple(sorted(_CATALOG))


def preset(preset_id: str, grid_n: int = 101, actions_n: Optional[int] = None, **params):
    """Build (Problem, Preset) for a catalog entry.  ``params`` must name
    keywords of the entry's builder and match the types of their defaults,
    numbers being finite; an integral number for an int default becomes an int."""
    if not isinstance(preset_id, str) or preset_id not in _CATALOG:
        raise UnknownPreset(f"unknown preset {preset_id!r}; known: {', '.join(preset_ids())}")
    if actions_n is None:
        actions_n = grid_n
    if grid_n < 3 or actions_n < 3:
        raise ParamOutOfRange("grid_n and actions_n must be at least 3")
    builder = _CATALOG[preset_id]
    defaults = {k: p.default for k, p in list(inspect.signature(builder).parameters.items())[2:]}
    for name, value in params.items():
        if name not in defaults:
            raise ParamOutOfRange(f"{preset_id}: unknown parameter {name!r}; known: {', '.join(defaults) or 'none'}")
        want = type(defaults[name])
        if want is int and isinstance(value, float) and value.is_integer():
            params[name] = value = int(value)
        kinds = (str,) if want is str else (int,) if want is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds) or (want is not str and not np.isfinite(value)):
            raise ParamOutOfRange(f"{preset_id}: parameter {name!r} takes {want.__name__} values, got {value!r}")
    return builder(grid_n, actions_n, **params)
