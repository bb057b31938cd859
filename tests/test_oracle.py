"""The outcome LP against scipy's HiGHS, a solver that shares no code with
ours, on every preset and on random table instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from optrans import Problem, uniform
from optrans.cli import _interp2
from optrans.lp import build_lp, solve_primal
from optrans.presets import preset, preset_ids

OBJ_TOL = 1e-9


# HiGHS's default feasibility tolerances (1e-7) would let it stop short of
# the optimum by more than OBJ_TOL when some V values are that small.
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "ipm_optimality_tolerance": 1e-12,
}


def check_against_highs(lp):
    ref = linprog(
        -lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs-ipm", options=HIGHS_OPTIONS
    )
    assert ref.status == 0, ref.message
    _, obj = solve_primal(lp)
    res = lp.solution
    scale = max(1.0, abs(ref.fun))
    assert abs(obj + ref.fun) <= OBJ_TOL * scale
    assert abs(res.duals @ lp.b - obj) <= OBJ_TOL * scale
    assert np.max(lp.c - lp.A.T @ res.duals) <= 1e-9
    _, obj_bland = solve_primal(lp, policy="bland")
    assert abs(obj_bland - obj) <= OBJ_TOL * scale
    return res


@pytest.mark.parametrize("pid", preset_ids())
def test_presets_match_highs(pid):
    check_against_highs(build_lp(preset(pid, grid_n=21)[0]))


@pytest.mark.parametrize("pid", preset_ids())
def test_presets_match_highs_at_n41(pid):
    # about 1,700 columns, so a pricing pass finds many attractive
    # columns at once
    check_against_highs(build_lp(preset(pid, grid_n=41)[0]))


def table_problem(V, U, prior, **kw):
    ny, nx = U.shape
    states, actions = np.arange(nx, dtype=float), np.arange(ny, dtype=float)
    return Problem(
        states=uniform(0.0, nx - 1.0, nx),
        actions=uniform(0.0, ny - 1.0, ny, "action"),
        prior=prior,
        V=_interp2(states, actions, V),
        u=_interp2(states, actions, U),
        **kw,
    )


@st.composite
def outcome_lps(draw):
    """Random outcome LPs that are feasible by construction, one of three kinds.

    'all': every state has a u = 0 cell, so the start basis covers every row.
    'partial': states outside a nonempty set Z have no u = 0 cell; each is
    obeyed in a row of its own against a partner state in Z, whose zero cell
    keeps the rest of the partner's mass.  Their state rows start artificial.
    'free_bottom': inequality obedience with an unconstrained bottom row.
    """
    kind = draw(st.sampled_from(["all", "partial", "free_bottom"]))
    nx = draw(st.integers(2, 5))
    ny = draw(st.integers(nx + 1, 7))
    floats = st.floats(0.1, 1.0)
    V = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=ny * nx, max_size=ny * nx))).reshape(ny, nx)
    mag = np.array(draw(st.lists(floats, min_size=ny * nx, max_size=ny * nx))).reshape(ny, nx)
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=ny * nx, max_size=ny * nx)))
    U = mag * sign.reshape(ny, nx)
    prior = np.array(draw(st.lists(floats, min_size=nx, max_size=nx)))
    prior /= prior.sum()
    if kind == "free_bottom":
        return table_problem(V, U, prior, obedience="inequality", constrain_bottom_row=False), kind

    zero_row = np.array(draw(st.lists(st.integers(0, ny - 1), min_size=nx, max_size=nx)))
    n_zero = nx if kind == "all" else draw(st.integers(1, nx - 1))
    Z = np.arange(n_zero)
    U[zero_row[Z], Z] = 0.0
    if kind == "partial":
        used = set()
        for x in range(n_zero, nx):
            partner = draw(st.sampled_from(Z))
            y = draw(st.sampled_from([r for r in range(ny) if r != zero_row[partner] and r not in used]))
            used.add(y)
            # x's whole mass meets mass prior[partner] / nx of its partner in
            # row y, where their u values cancel
            U[y, x] = abs(U[y, x])
            U[y, partner] = -U[y, x] * prior[x] * nx / prior[partner]
    return table_problem(V, U, prior), kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(outcome_lps())
def test_random_outcome_lps_match_highs(case):
    pb, kind = case
    lp = build_lp(pb)
    res = check_against_highs(lp)
    if kind == "partial":
        assert res.phase1_iterations > 0
    else:
        assert res.phase1_iterations == 0
