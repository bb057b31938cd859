import logging
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from optrans import simplex
from optrans.errors import Infeasible, OptransError, Unbounded
from optrans.lp import build_lp
from optrans.presets import preset
from optrans.simplex import solve_standard_form


def dense(A):
    return sp.csc_matrix(np.asarray(A, dtype=float))


class TestLeaving:
    def test_relative_pivot_rejected(self):
        # row 0 has the least ratio, but its pivot 1.09e-10, above PIVOT_TOL,
        # is 2.3e-16 of the column's largest entry: such a pivot made the
        # example_c1 LP at n=1601 lose rank at its next refactor
        state = SimpleNamespace(xB=np.array([1e-20, 1.0, 2.0]), basis=np.array([0, 1, 2]), pinned=False)
        d = np.array([1.09e-10, 4.7e5, -3.0])
        assert simplex._State._leaving(state, d, False) == 1
        assert simplex._State._leaving(state, np.array([1.09e-10, 4.7e-2, -3e-2]), False) == 0

    def test_no_pivot_above_relative_threshold(self):
        state = SimpleNamespace(xB=np.array([1.0, 1.0]), basis=np.array([0, 1]), pinned=False)
        assert simplex._State._leaving(state, np.array([1e-6, -1e4]), False) is None

    def test_pinned_artificial_never_leaves(self):
        # position 0 holds a pinned artificial at zero: its ratio 0 is the
        # least, but the next least leaves, or none when it is the only one
        pinned = np.array([True, False, False])
        state = SimpleNamespace(xB=np.array([0.0, 1.0, 2.0]), basis=np.array([7, 1, 2]), pinned=pinned)
        for bland in (False, True):
            assert simplex._State._leaving(state, np.array([1.0, 2.0, 1.0]), bland) == 1
            assert simplex._State._leaving(state, np.array([1.0, -2.0, 0.0]), bland) is None


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
        # the row keeps its artificial in the basis, one column per row
        assert res.basis.size == 2 and 2 + res.dropped_rows[0] in res.basis

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


def rank_deficient_program(rng, m, n, rank):
    """A bounded, feasible program whose m rows span only ``rank``: the
    first of ``rank`` independent rows sums x, and every other row is a
    random combination of them, the rows then shuffled.  Also returns the
    independent rows, a full-rank program with the same feasible set."""
    base = np.vstack([np.ones(n), rng.normal(size=(rank - 1, n))])
    A = np.vstack([base, rng.normal(size=(m - rank, rank)) @ base])[rng.permutation(m)]
    x0 = rng.random(n)
    return A, A @ x0, rng.normal(size=n), base, base @ x0


class TestPinnedRows:
    """A redundant row keeps its artificial, basic at zero: the simplex
    reports it in ``dropped_rows``, prices it at exactly 0 and reaches the
    optimum of the program without it."""

    @pytest.mark.parametrize("policy", ["dantzig", "bland"])
    def test_random_rank_deficient_programs(self, policy):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m = int(rng.integers(3, 9))
            rank = int(rng.integers(1, m))
            A, b, c, base, b_base = rank_deficient_program(rng, m, 3 * m, rank)
            res = solve_standard_form(dense(A), b, c, policy=policy)
            ref = solve_standard_form(dense(base), b_base, c, policy=policy)
            assert len(res.dropped_rows) == m - np.linalg.matrix_rank(A)
            assert np.all(res.duals[list(res.dropped_rows)] == 0.0)
            assert res.basis.size == m
            assert np.sort(res.basis[res.basis >= A.shape[1]] - A.shape[1]).tolist() == list(res.dropped_rows)
            assert res.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
            assert np.max(c - A.T @ res.duals) <= 1e-9
            assert res.duals @ b == pytest.approx(res.objective, rel=1e-9, abs=1e-12)

    def test_pinned_row_under_a_working_set_and_a_flip(self):
        # the redundant second row, negated, is flipped, and phase 2 widens
        # from an empty working set around its pinned artificial
        A = dense([[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0], [1.0, -1.0, 0.0]])
        b, c = np.array([1.0, -2.0, 0.0]), np.array([1.0, 1.0, 3.0])
        res = solve_standard_form(A, b, c, work=np.zeros(3, dtype=bool))
        (row,) = res.dropped_rows  # row 0 or row 1: either is redundant given the other
        assert row in (0, 1) and res.duals[row] == 0.0
        assert res.objective == pytest.approx(3.0)
        assert np.allclose(res.x, [0.0, 0.0, 1.0])
        assert np.max(c - A.T @ res.duals) <= 1e-12


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
            np.array([[1, 1], [0, 2]]),  # two proposals, neither usable
        ],
    )
    def test_unusable_start_falls_back_to_artificials(self, start):
        plain = solve_standard_form(self.A, self.b, self.c)
        res = solve_standard_form(self.A, self.b, self.c, start=start)
        assert res.objective == pytest.approx(2.375)
        assert (res.iterations, res.phase1_iterations) == (plain.iterations, plain.phase1_iterations)
        assert plain.phase1_iterations > 0

    def test_first_usable_proposal_is_adopted(self, caplog):
        plain = solve_standard_form(self.A, self.b, self.c, start=np.array([0, 1]))
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"):
            res = solve_standard_form(self.A, self.b, self.c, start=np.array([[0, 2], [0, 1]]))
        assert (res.iterations, res.phase1_iterations) == (plain.iterations, 0)
        assert np.array_equal(res.basis, plain.basis)
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.simplex"]
        assert "phase 1: start proposal 1 of 2 adopted, skipped, the start basis is feasible" in lines

    def test_phase_one_record_names_the_start(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"):
            solve_standard_form(self.A, self.b, self.c, start=np.array([[1, 1], [0, -1]]))
            solve_standard_form(self.A, self.b, self.c)
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.simplex"]
        heads = [line.split(", ")[0] for line in lines if line.startswith("phase 1: ")]
        assert heads == ["phase 1: start proposal 1 of 2 adopted", "phase 1: no start proposal adopted"]

    def test_malformed_start_rejected(self):
        with pytest.raises(OptransError):
            solve_standard_form(self.A, self.b, self.c, start=np.array([0, 3]))
        with pytest.raises(OptransError):
            solve_standard_form(self.A, self.b, self.c, start=np.array([0]))
        with pytest.raises(OptransError):
            solve_standard_form(self.A, self.b, self.c, start=np.zeros((1, 1, 2), dtype=int))


def bounded_program(rng, m, n, density):
    """max c'x s.t. A x = b, x >= 0; the first row sums x, so the program is
    bounded, and b = A x0 for a positive x0, so it is feasible."""
    A = rng.normal(size=(m - 1, n)) * (rng.random((m - 1, n)) < density)
    A = np.vstack([np.ones(n), A])
    return sp.csc_matrix(A), A @ rng.random(n), rng.normal(size=n)


def eta_ftran(st, v):
    """ftran through the eta block with np.add.at, whatever R holds."""
    w = st.lu.solve(v)
    k = st.etas
    R = st.R[:k]
    t = st.Minv[:k, :k] @ w[R]
    w -= st.D[:, :k] @ t
    np.add.at(w, R, t)
    return w


def eta_btran(st, v):
    """btran through the eta block with np.subtract.at, whatever R holds."""
    v = np.array(v, dtype=float)
    k = st.etas
    R = st.R[:k]
    tau = (st.D[:, :k].T @ v - v[R]) @ st.Minv[:k, :k]
    np.subtract.at(v, R, tau)
    return st.lu.solve(v, trans="T")


class TestEtaBlock:
    """ftran and btran through the eta block match dense solves with the
    current basis after each of the pivots between two refactors, and, bit
    for bit, the scatter by np.add.at that any R allows."""

    @pytest.mark.parametrize("program", ["random", "example_c1"])
    def test_ftran_btran_match_dense_solves(self, program):
        rng = np.random.default_rng(5)
        if program == "random":
            A, b, _ = bounded_program(rng, 12, 60, 1.0)
        else:
            lp = build_lp(preset("example_c1", grid_n=41)[0])
            A, b = lp.A, lp.b
        st = simplex._State(A, b, "dantzig", ())
        m, n = A.shape
        refactors = st.refactors
        for k in range(1, simplex.REFACTOR_EVERY):
            repeat = k == 3  # pivot on the row of the first pivot again
            for j in rng.permutation(n):
                if j in st.basis:
                    continue
                d = st.ftran(st._column(j))
                r = int(st.R[0]) if repeat else int(np.argmax(np.abs(d)))
                if abs(d[r]) > 0.1:
                    break
            else:
                pytest.fail("no column pivots well on the chosen row")
            st._pivot(r, int(j), d)
            assert st.repeats == (k >= 3)  # set by the pivot that repeats R[0], kept after
            B = st.A_ext[:, st.basis].toarray()
            v = rng.normal(size=m)
            for got, want in ((st.ftran(v), np.linalg.solve(B, v)), (st.btran(v), np.linalg.solve(B.T, v))):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            v_bytes = v.tobytes()
            assert st.ftran(v).tobytes() == eta_ftran(st, v).tobytes()
            assert st.btran(v).tobytes() == eta_btran(st, v).tobytes()
            assert v.tobytes() == v_bytes  # neither solve writes to its argument
        assert st.refactors == refactors and st.etas == simplex.REFACTOR_EVERY - 1
        assert st.R[2] == st.R[0]  # the third pivot repeated a row


class TestCandidateList:
    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_random_programs_dual_feasible_and_policy_invariant(self, density):
        rng = np.random.default_rng(17)
        for _ in range(3):
            A, b, c = bounded_program(rng, 12, 1_573, density)
            res = solve_standard_form(A, b, c)
            scale = max(1.0, abs(res.objective))
            assert np.max(c - A.T @ res.duals) <= 1e-9
            assert res.duals @ b == pytest.approx(res.objective, abs=1e-9 * scale)
            bland = solve_standard_form(A, b, c, policy="bland")
            assert bland.objective == pytest.approx(res.objective, abs=1e-9 * scale)

    def test_repeat_solves_are_identical(self):
        lp = build_lp(preset("example_c1", grid_n=41)[0])
        first, second = (solve_standard_form(lp.A, lp.b, lp.c) for _ in range(2))
        assert np.array_equal(first.basis, second.basis)
        assert first.x.tobytes() == second.x.tobytes()
        assert first.duals.tobytes() == second.duals.tobytes()
        assert first.iterations == second.iterations

    def test_bland_switch_leaves_and_rejoins_the_list(self, monkeypatch, caplog):
        lp = build_lp(preset("example_c3", grid_n=41)[0])
        plain = solve_standard_form(lp.A, lp.b, lp.c)
        monkeypatch.setattr(simplex, "STALL_LIMIT", 0)  # switch after one degenerate pivot
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"):
            res = solve_standard_form(lp.A, lp.b, lp.c)
        assert any(r.getMessage().endswith("bland switch fired") for r in caplog.records)
        assert res.objective == pytest.approx(plain.objective, abs=1e-12)
        assert np.max(lp.c - lp.A.T @ res.duals) <= 1e-9


class TestWorkingSet:
    """Phase 2 over a working set, widened by passes over every column,
    reaches the optimum over all columns; phase 1 ignores the set."""

    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_any_working_set_reaches_the_optimum(self, density):
        rng = np.random.default_rng(29)
        for _ in range(3):
            A, b, c = bounded_program(rng, 12, 1_573, density)
            n = c.size
            full = solve_standard_form(A, b, c)
            scale = max(1.0, abs(full.objective))
            for work in (np.zeros(n, dtype=bool), rng.random(n) < 0.05, rng.random(n) < 0.5):
                res = solve_standard_form(A, b, c, work=work)
                assert res.objective == pytest.approx(full.objective, abs=1e-9 * scale)
                assert np.max(c - A.T @ res.duals) <= 1e-9
                bland = solve_standard_form(A, b, c, policy="bland", work=work)
                assert bland.objective == pytest.approx(full.objective, abs=1e-9 * scale)
            every = solve_standard_form(A, b, c, work=np.ones(n, dtype=bool))
            assert every.x.tobytes() == full.x.tobytes()
            assert every.iterations == full.iterations

    def test_phase_one_prices_every_column(self, caplog):
        # x2 alone covers the second row and lies outside the working set
        A = dense([[1.0, 1.0], [0.0, 1.0]])
        res = solve_standard_form(A, np.array([1.0, 1.0]), np.array([1.0, 0.0]), work=np.array([True, False]))
        assert np.allclose(res.x, [0.0, 1.0])
        # an infeasible program is found so over every column, before phase 2
        A = dense([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"), pytest.raises(Infeasible):
            solve_standard_form(A, np.array([1.0, 2.0]), np.ones(3), work=np.array([True, False, False]))
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.simplex"]
        assert [line.split(":")[0] for line in lines] == ["phase 1"]

    def test_malformed_working_set_rejected(self):
        with pytest.raises(OptransError):
            solve_standard_form(dense([[1.0, 1.0]]), np.array([1.0]), np.ones(2), work=np.ones(3, dtype=bool))
