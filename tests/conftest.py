import pytest

from optrans.lp import build_lp, solve_dual, solve_primal
from optrans.presets import preset


@pytest.fixture(scope="session")
def solved_cache():
    """Session cache of (preset id, grid, params) -> solved LP bundle."""
    cache = {}

    def get(pid, grid_n=101, policy="dantzig", **params):
        key = (pid, grid_n, policy, tuple(sorted(params.items())))
        if key not in cache:
            problem, meta = preset(pid, grid_n=grid_n, **params)
            lp = build_lp(problem)
            outcome, objective = solve_primal(lp, policy=policy)
            prices = solve_dual(lp, outcome)
            cache[key] = {
                "problem": problem,
                "meta": meta,
                "lp": lp,
                "outcome": outcome,
                "objective": objective,
                "prices": prices,
            }
        return cache[key]

    return get
