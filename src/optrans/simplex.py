"""Revised primal simplex for LPs in standard equality form.

Maximizes c'x subject to A x = b, x >= 0, with A given as a CSC sparse
matrix.  The caller may propose starting bases, one column per row each; the
first that is nonsingular and primal feasible is taken, and rows it leaves
uncovered keep their artificial variables, so phase 1 runs over those rows
only.  Without a usable proposal every row starts artificial.  The basis is
sliced from A (extended by the identity for artificials) and factored as a
sparse LU (SuperLU) every ``REFACTOR_EVERY`` pivots.  In between, the pivots
form a product-form eta file kept as one block: the entering columns d_i as
ftran'd at their pivot (the columns of D), their pivot rows R, and the
inverse of the lower-triangular M with M[i, l] = D[R[i], l] - [R[l] = R[i]]
for l < i and M[i, i] = D[R[i], i].  An ftran or a btran is then one LU
solve and two dense products with D, whatever the number of pivots.

Every iteration prices the working set against the current duals and
enters its column of largest reduced cost (Dantzig).  Phase 1 prices every
column, so the working set is every column there.  Phase 2 may be given a
smaller working set (sifting, Bixby et al., Operations Research 1992).  Once
the set holds no attractive column, a pass over every column adds each
attractive one to the set, and pricing restarts from the same basis with a
fresh factorization; a pass over every column that adds nothing ends the
phase.  Bland's rule, which enters the first attractive column of the set
instead, is available as a policy and kicks in automatically after a run of
degenerate pivots, which makes the method anti-cycling.  All tie-breaks are
deterministic, so identical inputs give identical bases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import Infeasible, OptransError, Unbounded

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9  # phase-1 residual and start-basis feasibility, per unit of sum |b|
MAX_ITER = 500_000
REFACTOR_EVERY = 48
STALL_LIMIT = 400

logger = logging.getLogger("optrans.simplex")


@dataclass
class SimplexResult:
    x: np.ndarray  # primal solution over the original columns
    objective: float
    duals: np.ndarray  # row duals for the original rows (0 for dropped rows)
    basis: np.ndarray
    iterations: int  # phase 1 and phase 2
    phase1_iterations: int
    dropped_rows: tuple


def solve_standard_form(
    A: sp.csc_matrix,
    b: np.ndarray,
    c: np.ndarray,
    *,
    start: Optional[np.ndarray] = None,
    policy: str = "dantzig",
    work: Optional[np.ndarray] = None,
) -> SimplexResult:
    """Two-phase revised simplex.  Raises Infeasible / Unbounded.

    ``start[i]`` proposes the column basic in row i's position, or -1 to keep
    row i's artificial; a 2-D ``start`` holds one such proposal per row, tried
    in order.  A proposal that is singular or infeasible beyond ``FEAS_TOL``
    (times max(1, sum |b|)) is passed over, and when none is left every row
    starts artificial.  ``policy`` is 'dantzig' or 'bland'.  ``work``, a
    boolean mask over the columns of A, is phase 2's first working set; the
    columns basic after phase 1 join it, and the passes over every column
    widen it (module docstring).  None prices every column on every pass.
    Pivots need ``PIVOT_TOL``; more than ``MAX_ITER`` iterations raise
    OptransError.
    """
    if policy not in ("dantzig", "bland"):
        raise OptransError(f"unknown pivot policy {policy!r}")
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    flip = b < 0
    if np.any(flip):
        A = sp.csc_matrix(sp.diags(np.where(flip, -1.0, 1.0)) @ A)
        b = np.abs(b)
    proposals = ()
    if start is not None:
        proposals = np.atleast_2d(np.asarray(start, dtype=int))
        if proposals.ndim != 2 or proposals.shape[1] != m or np.any(proposals >= n) or np.any(proposals < -1):
            raise OptransError(f"start basis must hold {m} column indices in [-1, {n}) per proposal")
    st = _State(A, b, policy, proposals)
    if work is not None:
        work = np.asarray(work, dtype=bool)
        if work.shape != (n,):
            raise OptransError(f"working set must be a mask over the {n} columns")

    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    if st.objective(c1) < 0.0:  # some artificial still carries mass
        st.run(c1, phase=1, work=None)
    else:
        logger.debug("phase 1: %s, skipped, the start basis is feasible", st.adopted)
    art_sum = -st.objective(c1)
    if art_sum > st.feas_tol:
        raise Infeasible(f"phase-1 residual {art_sum:.3e}")
    phase1_iterations = st.iterations
    st.purge_artificials()

    c2 = np.concatenate([c, np.zeros(m)])
    st.run(c2, phase=2, work=work)

    x = np.zeros(n)
    inside = st.basis < n
    x[st.basis[inside]] = st.xB[inside]
    duals = st.duals(c2)
    return SimplexResult(
        x=x,
        # correctly rounded, so the bytes do not depend on how BLAS splits a sum
        objective=math.fsum(c[st.basis[inside]] * st.xB[inside]),
        duals=np.where(flip, -duals, duals),
        basis=st.basis.copy(),
        iterations=st.iterations,
        phase1_iterations=phase1_iterations,
        dropped_rows=tuple(int(i) for i in np.nonzero(~st.live_mask)[0]),
    )


class _State:
    def __init__(self, A, b, policy, proposals):
        """Start from the first of ``proposals`` that ``crash`` adopts, else
        from the all-artificial basis."""
        m, n = A.shape
        self.A_ext = sp.hstack([A, sp.identity(m, format="csc")], format="csc")
        self.AT_ext = sp.csr_matrix(self.A_ext.T)
        self.b0 = b
        self.feas_tol = FEAS_TOL * max(1.0, float(b.sum()))
        self.n = n
        self.m0 = m
        self.policy = policy
        self.iterations = 0
        self.refactors = 0
        self.live_mask = np.ones(m, dtype=bool)
        self.basis = np.arange(n, n + m)  # column j >= n is the artificial e_{j-n}
        self.adopted = "no start proposal adopted"  # for the phase-1 DEBUG record
        if not self.crash(proposals):
            self.refactor()

    @property
    def live_rows(self) -> np.ndarray:
        return np.nonzero(self.live_mask)[0]

    @property
    def all_live(self) -> bool:
        """No row has been dropped."""
        return self.basis.size == self.m0

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m0)
        sl = slice(self.A_ext.indptr[j], self.A_ext.indptr[j + 1])
        col[self.A_ext.indices[sl]] = self.A_ext.data[sl]
        return col if self.all_live else col[self.live_mask]

    def _factor(self, basis):
        # the basis columns gathered straight from the CSC arrays: 24 us
        # against 35 us for A_ext[:, basis] at n=201
        A = self.A_ext
        starts = A.indptr[basis]
        counts = A.indptr[basis + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(counts)])
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        B = sp.csc_matrix((A.data[take], A.indices[take], indptr), shape=(self.m0, basis.size))
        if not self.all_live:
            B = B[self.live_rows].tocsc()
        return splu(B, permc_spec="NATURAL")

    def _new_block(self, lu):
        """Adopt the factorization lu with an empty eta block."""
        m = lu.shape[0]
        self.lu = lu
        self.etas = 0  # pivots in the block
        self.repeats = False  # whether R repeats a row
        self.D = np.empty((m, REFACTOR_EVERY), order="F")
        self.R = np.empty(REFACTOR_EVERY, dtype=np.intp)
        self.Minv = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY))

    def refactor(self):
        try:
            self._new_block(self._factor(self.basis))
        except RuntimeError as exc:  # SuperLU: exactly singular factor
            raise OptransError(f"simplex basis lost rank: {exc}") from exc
        self.refactors += 1
        self.xB = np.maximum(self.lu.solve(self.b0 if self.all_live else self.b0[self.live_rows]), 0.0)

    def ftran(self, v) -> np.ndarray:
        """Solve B w = v with B = B0 E1 ... Ek."""
        w = self.lu.solve(v)
        k = self.etas
        if k:
            R = self.R[:k]
            t = self.Minv[:k, :k] @ w[R]
            w -= self.D[:, :k] @ t
            if self.repeats:
                np.add.at(w, R, t)  # a repeated row takes each of its terms
            else:
                w[R] += t
        return w

    def btran(self, v) -> np.ndarray:
        """Solve B' y = v, leaving v as it is."""
        v = np.array(v, dtype=float)
        k = self.etas
        if k:
            R = self.R[:k]
            tau = (self.D[:, :k].T @ v - v[R]) @ self.Minv[:k, :k]
            if self.repeats:
                np.subtract.at(v, R, tau)
            else:
                v[R] -= tau
        return self.lu.solve(v, trans="T")

    def crash(self, proposals) -> bool:
        """Adopt the first proposed starting basis that is nonsingular and
        primal feasible to within ``feas_tol``.  Returns whether one was
        adopted."""
        for k, start in enumerate(proposals):
            basis = np.where(start >= 0, start, self.n + np.arange(self.m0))
            try:
                lu = self._factor(basis)
            except RuntimeError:
                continue
            xB = lu.solve(self.b0)
            if np.all(xB >= -self.feas_tol):
                self.basis = basis
                self._new_block(lu)
                self.xB = np.maximum(xB, 0.0)
                self.adopted = f"start proposal {k} of {len(proposals)} adopted"
                return True
        return False

    def objective(self, c_full) -> float:
        return float(c_full[self.basis] @ self.xB)

    def duals(self, c_full) -> np.ndarray:
        """Row duals over every row, 0 on dropped rows."""
        y = self.btran(c_full.take(self.basis))
        if self.all_live:
            return y
        y_full = np.zeros(self.m0)
        y_full[self.live_rows] = y
        return y_full

    def _pivot(self, r, j, d):
        theta = self.xB[r] / d[r]
        self.xB -= theta * d
        self.xB[r] = theta
        np.maximum(self.xB, 0.0, out=self.xB)
        self.basis[r] = j
        k = self.etas
        hits = self.R[:k] == r
        self.repeats |= bool(hits.any())
        row = self.D[r, :k] - hits  # row k of M, off the diagonal
        self.Minv[k, :k] = -(row @ self.Minv[:k, :k]) / d[r]
        self.Minv[k, k] = 1.0 / d[r]
        self.D[:, k], self.R[k] = d, r
        self.etas = k + 1
        if self.etas >= REFACTOR_EVERY:
            self.refactor()
        return theta

    def run(self, c_full, phase: int, work):
        """Pivot to an optimal basis for c_full, pricing the working set
        ``work`` (every column when None) and widening it from passes over
        every column."""
        tol = PIVOT_TOL
        iterations0, refactors0 = self.iterations, self.refactors
        passes = wide = added = 0
        bland_fired = False
        if work is not None:
            work = work.copy()
            work[self.basis[self.basis < self.n]] = True
        while True:  # one round per working set, from a fresh factorization:
            # refactored unless the eta block is empty, as after a crash start,
            # a dropped row or a refactor forced by REFACTOR_EVERY
            if self.etas:
                self.refactor()
            cols, price = self._pricing(c_full, phase, work)
            stall = 0
            while True:
                if self.iterations >= MAX_ITER:
                    raise OptransError(f"simplex iteration cap {MAX_ITER} hit")
                y_full = self.duals(c_full)
                use_bland = self.policy == "bland" or stall > STALL_LIMIT
                bland_fired |= use_bland and self.policy != "bland"
                passes += 1
                rc = price(y_full)
                k = int((rc > tol).argmax()) if use_bland else int(rc.argmax())
                if rc[k] <= tol:
                    break
                j = int(cols[k])
                d = self.ftran(self._column(j))
                r = self._leaving(d, use_bland)
                if r is None:
                    raise Unbounded("no blocking basic variable")
                theta = self._pivot(r, j, d)
                stall = stall + 1 if theta <= 1e-13 else 0
                self.iterations += 1
            if work is None:
                break
            passes += 1
            wide += 1
            new = (self._price_all(c_full, y_full, phase)[: self.n] > tol) & ~work
            if not new.any():
                break
            work |= new
            added += int(np.count_nonzero(new))
        logger.debug(
            "phase %d: %s%d iterations, %d pricing passes, %d passes over all columns, "
            "%d columns added, %d refactors, bland switch %s",
            phase,
            f"{self.adopted}, " if phase == 1 else "",
            self.iterations - iterations0,
            passes,
            passes if work is None else wide,
            added,
            self.refactors - refactors0,
            "fired" if bland_fired else "not fired",
        )

    def _pricing(self, c_full, phase: int, work):
        """The columns a pricing pass covers, and the pass itself: y -> their
        reduced costs, -inf where a column may not enter.  Every column,
        artificials included, when ``work`` is None; else the working set,
        whose costs and rows are gathered here once per round."""
        if work is None:
            return np.arange(self.A_ext.shape[1]), lambda y: self._price_all(c_full, y, phase)
        cols = np.nonzero(work)[0]
        c_set, AT_set = c_full[cols], self.AT_ext[cols]
        slot = np.zeros(self.A_ext.shape[1], dtype=np.intp)
        slot[cols] = np.arange(cols.size)

        def price(y):
            rc = c_set - AT_set @ y
            rc[slot.take(self.basis)] = -np.inf  # the basic columns are all in the set
            return rc

        return cols, price

    def _price_all(self, c_full, y_full, phase: int) -> np.ndarray:
        """Reduced costs of every column, artificials included; -inf on basic
        columns and on artificials that may not enter (all in phase 2)."""
        rc = c_full - self.AT_ext @ y_full
        if phase == 1:
            rc[self.n :][~self.live_mask] = -np.inf
        else:
            rc[self.n :] = -np.inf
        rc[self.basis] = -np.inf
        return rc

    def _leaving(self, d, use_bland) -> Optional[int]:
        cand = np.nonzero(d > PIVOT_TOL)[0]
        if cand.size == 0:
            return None
        ratios = self.xB[cand] / d[cand]
        rmin = np.min(ratios)
        ties = cand[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        if ties.size == 1:
            return int(ties[0])
        if use_bland:
            return int(ties[np.argmin(self.basis[ties])])
        return int(ties[np.argmax(d[ties])])

    def purge_artificials(self):
        """Pivot basic artificials out; drop rows that prove redundant."""
        n = self.n
        guard = 0
        while guard <= self.m0 + 4:
            guard += 1
            art_pos = [i for i, j in enumerate(self.basis) if j >= n]
            if not art_pos:
                return
            i = art_pos[0]
            e = np.zeros(self.live_rows.size)
            e[i] = 1.0
            row = self.btran(e)  # row i of the basis inverse
            row_full = np.zeros(self.m0)
            row_full[self.live_rows] = row
            coef = (self.AT_ext @ row_full)[:n]  # row i of B^{-1} A over original columns
            basic_orig = self.basis[self.basis < n]
            coef[basic_orig] = 0.0
            jbest = int(np.argmax(np.abs(coef)))
            if abs(coef[jbest]) > 1e-7:
                self._pivot(i, jbest, self.ftran(self._column(jbest)))
            else:
                # redundant constraint: drop the row with its artificial
                self.live_mask[self.basis[i] - n] = False
                self.basis = np.delete(self.basis, i)
                self.refactor()
        raise OptransError("artificial purge failed to terminate")
