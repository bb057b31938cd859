"""Revised primal simplex for LPs in standard equality form.

Maximizes c'x subject to A x = b, x >= 0, with A given as a CSC sparse
matrix.  The caller may propose a starting basis, one column per row; it is
taken when it is nonsingular and primal feasible, and rows it leaves
uncovered keep their artificial variables, so phase 1 runs over those rows
only.  Without a usable proposal every row starts artificial.  The basis is
sliced from A (extended by the identity for artificials), factored as a
sparse LU (SuperLU) every ``REFACTOR_EVERY`` pivots, and patched with
product-form eta updates in between.

Pivot selection is Dantzig over a candidate list (multiple pricing): a full
pricing pass over every column keeps the ``PRICE_LIST`` columns of largest
reduced cost, and the following minor iterations price only those against
the current duals, entering the best.  The list is refilled by a new full
pass once its best reduced cost is no longer positive or after
``PRICE_MINOR`` minor iterations; only a full pass declares optimality.
Bland's rule, with full pricing on every iteration, is available as a policy
and kicks in automatically after a run of degenerate pivots, which makes the
method anti-cycling.  All tie-breaks are deterministic, so identical inputs
give identical bases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import Infeasible, OptransError, Unbounded

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9  # phase-1 residual and start-basis feasibility, per unit of sum |b|
MAX_ITER = 500_000
REFACTOR_EVERY = 16
STALL_LIMIT = 400
PRICE_LIST = 384  # candidate columns kept by a full pricing pass
PRICE_MINOR = 8  # minor iterations on one list before a full pass refills it

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


def _ftran(lu, etas, v):
    # Solve B w = v with B = B0 * E1 * ... * Ek.
    w = lu.solve(v)
    for r, d in etas:
        t = w[r] / d[r]
        w -= t * d
        w[r] = t
    return w


def _btran(lu, etas, v):
    # Solve B' y = v.
    w = np.array(v, dtype=float)
    for r, d in reversed(etas):
        rest = d @ w - d[r] * w[r]
        w[r] = (w[r] - rest) / d[r]
    return lu.solve(w, trans="T")


def _padded_columns(A: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and values of each column of A as (width, n) arrays,
    padded with (row 0, 0.0) up to the widest column, so the dot products of
    a few columns with y are one gather and ``width`` vector adds."""
    counts = np.diff(A.indptr)
    width = int(counts.max())
    rows = np.zeros((width, A.shape[1]), dtype=np.intp)
    vals = np.zeros((width, A.shape[1]))
    col = np.repeat(np.arange(A.shape[1]), counts)
    slot = np.arange(A.nnz) - np.repeat(A.indptr[:-1], counts)
    rows[slot, col] = A.indices
    vals[slot, col] = A.data
    return rows, vals


def _shortlist(rc: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the ``PRICE_LIST`` largest reduced costs above tol, ties
    at the cut going to the lower index; returned in increasing order."""
    pos = np.nonzero(rc > tol)[0]
    if pos.size <= PRICE_LIST:
        return pos
    vals = rc[pos]
    cut = np.partition(vals, pos.size - PRICE_LIST)[pos.size - PRICE_LIST]
    keep = vals > cut
    keep[np.nonzero(vals == cut)[0][: PRICE_LIST - int(keep.sum())]] = True
    return pos[keep]


def solve_standard_form(
    A: sp.csc_matrix,
    b: np.ndarray,
    c: np.ndarray,
    *,
    start: Optional[np.ndarray] = None,
    policy: str = "dantzig",
) -> SimplexResult:
    """Two-phase revised simplex.  Raises Infeasible / Unbounded.

    ``start[i]`` proposes the column basic in row i's position, or -1 to keep
    row i's artificial; a proposal that is singular or infeasible beyond
    ``FEAS_TOL`` (times max(1, sum |b|)) is discarded in favour of the
    all-artificial basis.  ``policy`` is 'dantzig' (candidate-list pricing)
    or 'bland'.  Pivots need ``PIVOT_TOL``; more than ``MAX_ITER`` iterations
    raise OptransError.
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
    tol = FEAS_TOL * max(1.0, float(b.sum()))

    st = _State(A, b, policy)
    if start is not None:
        start = np.asarray(start, dtype=int)
        if start.shape != (m,) or np.any(start >= n) or np.any(start < -1):
            raise OptransError(f"start basis must hold {m} column indices in [-1, {n})")
        st.crash(start, tol)

    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    if st.objective(c1) < 0.0:  # some artificial still carries mass
        st.run(c1, phase=1)
    else:
        logger.debug("phase 1: skipped, the start basis is feasible")
    art_sum = -st.objective(c1)
    if art_sum > tol:
        raise Infeasible(f"phase-1 residual {art_sum:.3e}")
    phase1_iterations = st.iterations
    st.purge_artificials()

    c2 = np.concatenate([c, np.zeros(m)])
    st.run(c2, phase=2)

    x = np.zeros(n)
    inside = st.basis < n
    x[st.basis[inside]] = st.xB[inside]
    duals = np.zeros(m)
    duals[st.live_rows] = st.duals(c2)
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        duals=np.where(flip, -duals, duals),
        basis=st.basis.copy(),
        iterations=st.iterations,
        phase1_iterations=phase1_iterations,
        dropped_rows=tuple(int(i) for i in np.nonzero(~st.live_mask)[0]),
    )


class _State:
    def __init__(self, A, b, policy):
        m, n = A.shape
        self.A_ext = sp.hstack([A, sp.identity(m, format="csc")], format="csc")
        self.AT_ext = sp.csr_matrix(self.A_ext.T)
        self.col_rows, self.col_vals = _padded_columns(self.A_ext)
        self.b0 = b
        self.n = n
        self.m0 = m
        self.policy = policy
        self.iterations = 0
        self.refactors = 0
        self.live_mask = np.ones(m, dtype=bool)
        self.basis = np.arange(n, n + m)  # column j >= n is the artificial e_{j-n}
        self.refactor()

    @property
    def live_rows(self) -> np.ndarray:
        return np.nonzero(self.live_mask)[0]

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m0)
        sl = slice(self.A_ext.indptr[j], self.A_ext.indptr[j + 1])
        col[self.A_ext.indices[sl]] = self.A_ext.data[sl]
        return col[self.live_mask]

    def _factor(self, basis):
        B = self.A_ext[:, basis]
        if not self.live_mask.all():
            B = B[self.live_rows].tocsc()
        return splu(B)

    def refactor(self):
        try:
            self.lu = self._factor(self.basis)
        except RuntimeError as exc:  # SuperLU: exactly singular factor
            raise OptransError(f"simplex basis lost rank: {exc}") from exc
        self.refactors += 1
        self.etas = []
        self.xB = np.maximum(self.lu.solve(self.b0[self.live_rows]), 0.0)

    def crash(self, start, tol):
        """Adopt the proposed starting basis if it is nonsingular and primal
        feasible to within tol; otherwise keep the all-artificial one."""
        basis = np.where(start >= 0, start, self.n + np.arange(self.m0))
        try:
            lu = self._factor(basis)
        except RuntimeError:
            return
        xB = lu.solve(self.b0)
        if not np.all(xB >= -tol):
            return
        self.basis, self.lu, self.etas = basis, lu, []
        self.xB = np.maximum(xB, 0.0)

    def objective(self, c_full) -> float:
        return float(c_full[self.basis] @ self.xB)

    def duals(self, c_full) -> np.ndarray:
        return _btran(self.lu, self.etas, c_full[self.basis])

    def _pivot(self, r, j, d):
        theta = self.xB[r] / d[r]
        self.xB -= theta * d
        self.xB[r] = theta
        np.maximum(self.xB, 0.0, out=self.xB)
        self.basis[r] = j
        self.etas.append((r, d))
        if len(self.etas) >= REFACTOR_EVERY:
            self.refactor()
        return theta

    def run(self, c_full, phase: int):
        self.refactor()
        tol = PIVOT_TOL
        iterations0, refactors0 = self.iterations, self.refactors - 1
        passes = 0
        stall = 0
        bland_fired = False
        minor = PRICE_MINOR  # no candidate list yet: the first pass fills one
        while True:
            if self.iterations >= MAX_ITER:
                raise OptransError(f"simplex iteration cap {MAX_ITER} hit")
            y_full = np.zeros(self.m0)
            y_full[self.live_rows] = self.duals(c_full)

            if self.policy == "bland" or stall > STALL_LIMIT:
                bland_fired |= self.policy != "bland"
                minor = PRICE_MINOR  # the list went stale: refill it afterwards
                passes += 1
                pos = np.nonzero(self._price_all(c_full, y_full, phase) > tol)[0]
                if pos.size == 0:
                    break
                j = int(pos[0])
                use_bland = True
            else:
                k = -1
                if minor < PRICE_MINOR:
                    rc = c_listed - np.sum(vals_listed * y_full[rows_listed], axis=0)
                    k = int(np.argmax(rc))
                    if rc[k] <= tol:
                        k = -1
                if k < 0:
                    passes += 1
                    rc = self._price_all(c_full, y_full, phase)
                    listed, minor = _shortlist(rc, tol), 0  # candidates, by index
                    if listed.size == 0:
                        break
                    c_listed = c_full[listed]
                    rows_listed = self.col_rows[:, listed]
                    vals_listed = self.col_vals[:, listed]
                    k = int(np.argmax(rc[listed]))
                j = int(listed[k])
                c_listed[k] = -np.inf  # basic from now on: never priced again
                minor += 1
                use_bland = False

            d = _ftran(self.lu, self.etas, self._column(j))
            r = self._leaving(d, use_bland)
            if r is None:
                raise Unbounded("no blocking basic variable")
            theta = self._pivot(r, j, d)
            stall = stall + 1 if theta <= 1e-13 else 0
            self.iterations += 1
        logger.debug(
            "phase %d: %d iterations, %d full pricing passes, %d refactors, bland switch %s",
            phase,
            self.iterations - iterations0,
            passes,
            self.refactors - refactors0,
            "fired" if bland_fired else "not fired",
        )

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
            row = _btran(self.lu, self.etas, e)  # row i of the basis inverse
            row_full = np.zeros(self.m0)
            row_full[self.live_rows] = row
            coef = (self.AT_ext @ row_full)[:n]  # row i of B^{-1} A over original columns
            basic_orig = self.basis[self.basis < n]
            coef[basic_orig] = 0.0
            jbest = int(np.argmax(np.abs(coef)))
            if abs(coef[jbest]) > 1e-7:
                self._pivot(i, jbest, _ftran(self.lu, self.etas, self._column(jbest)))
            else:
                # redundant constraint: drop the row with its artificial
                self.live_mask[self.basis[i] - n] = False
                self.basis = np.delete(self.basis, i)
                self.refactor()
        raise OptransError("artificial purge failed to terminate")
