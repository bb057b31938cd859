import numpy as np
import pytest
import scipy.sparse as sp

from optrans.errors import Infeasible, OptransError, Unbounded
from optrans.simplex import solve_standard_form


def dense(A):
    return sp.csc_matrix(np.asarray(A, dtype=float))


class TestSmallPrograms:
    def test_single_constraint(self):
        res = solve_standard_form(dense([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0]))
        assert res.objective == pytest.approx(2.0)
        assert np.allclose(res.x, [0.0, 1.0])
        assert res.duals[0] == pytest.approx(2.0)

    def test_degenerate_rhs(self):
        # second row forces x2 = x3 = 0
        A = dense([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        res = solve_standard_form(A, np.array([1.0, 0.0]), np.array([1.0, 5.0, 5.0]))
        assert res.objective == pytest.approx(1.0)

    def test_infeasible(self):
        A = dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(Infeasible):
            solve_standard_form(A, np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_unbounded(self):
        A = dense([[1.0, -1.0]])
        with pytest.raises(Unbounded):
            solve_standard_form(A, np.array([0.0]), np.array([1.0, 0.0]))

    def test_negative_rhs_rows_are_flipped(self):
        A = dense([[-1.0, -1.0]])
        res = solve_standard_form(A, np.array([-1.0]), np.array([3.0, 1.0]))
        assert res.objective == pytest.approx(3.0)
        assert np.allclose(res.x, [1.0, 0.0])

    def test_redundant_row_dropped(self):
        A = dense([[1.0, 1.0], [2.0, 2.0]])
        res = solve_standard_form(A, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert res.objective == pytest.approx(2.0)
        assert len(res.dropped_rows) == 1

    def test_policies_agree_on_random_programs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m, n = 4, 9
            A = rng.normal(size=(m, n))
            x0 = np.abs(rng.normal(size=n))
            b = A @ x0  # feasible by construction
            c = rng.normal(size=n)
            try:
                r1 = solve_standard_form(dense(A), b, c, policy="dantzig")
                r2 = solve_standard_form(dense(A), b, c, policy="bland")
            except Unbounded:
                continue
            assert r1.objective == pytest.approx(r2.objective, abs=1e-8)

    def test_duals_certify_optimality(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 8))
        x0 = np.abs(rng.normal(size=8))
        b = A @ x0
        c = -np.abs(rng.normal(size=8))
        res = solve_standard_form(dense(A), b, c)
        rc = c - A.T @ res.duals
        assert np.max(rc) <= 1e-9
        assert res.duals @ b == pytest.approx(res.objective, abs=1e-9)


class TestStartBasis:
    # max x1 + 2 x2 + 3 x3  s.t.  x1 + x2 + x3 = 1,  x2 - x3 = 1/4
    A = dense([[1.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    b = np.array([1.0, 0.25])
    c = np.array([1.0, 2.0, 3.0])

    def test_feasible_start_skips_phase_one(self):
        res = solve_standard_form(self.A, self.b, self.c, start=np.array([0, 1]))
        assert res.phase1_iterations == 0
        assert res.iterations > 0
        assert res.objective == pytest.approx(2.375)

    def test_uncovered_row_keeps_its_artificial(self):
        res = solve_standard_form(self.A, self.b, self.c, start=np.array([0, -1]))
        assert res.phase1_iterations > 0
        assert res.objective == pytest.approx(2.375)
        assert res.dropped_rows == ()

    @pytest.mark.parametrize(
        "start",
        [
            np.array([1, 1]),  # singular: one column twice
            np.array([0, 2]),  # nonsingular, but x3 = -1/4
        ],
    )
    def test_unusable_start_falls_back_to_artificials(self, start):
        plain = solve_standard_form(self.A, self.b, self.c)
        res = solve_standard_form(self.A, self.b, self.c, start=start)
        assert res.objective == pytest.approx(2.375)
        assert (res.iterations, res.phase1_iterations) == (plain.iterations, plain.phase1_iterations)
        assert plain.phase1_iterations > 0

    def test_malformed_start_rejected(self):
        with pytest.raises(OptransError):
            solve_standard_form(self.A, self.b, self.c, start=np.array([0, 3]))
        with pytest.raises(OptransError):
            solve_standard_form(self.A, self.b, self.c, start=np.array([0]))
