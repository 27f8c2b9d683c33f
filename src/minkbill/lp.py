"""Small dense linear programs solved by the two-phase simplex method.

This covers every LP that arises in the package: homothet fitting, cell
feasibility with margins, reflection-cone certificates. All of them have at
most a few dozen variables and rows, so a dense tableau with Dantzig pricing
(falling back to Bland's rule to rule out cycling) is simple and fast enough.

Minimizes ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x = b_eq``.
Variables are free by default; entries flagged in ``nonneg`` are constrained
to ``x_i >= 0`` directly instead of being split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPError

_PIVOT_TOL = 1e-11


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    fun: float | None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    # clean tiny residue in the pivot column so later ratio tests stay exact
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, allowed, tol, max_iter):
    """Iterate on tableau T (last row is the reduced cost row, last column RHS)."""
    m = len(basis)
    bland_after = 40 * (m + T.shape[1])
    for it in range(max_iter):
        red = T[-1, :-1]
        candidates = np.where(allowed & (red < -tol))[0]
        if candidates.size == 0:
            return "optimal"
        if it < bland_after:
            col = candidates[np.argmin(red[candidates])]
        else:
            col = candidates[0]  # Bland
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > _PIVOT_TOL
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        if not np.isfinite(ratios).any():
            return "unbounded"
        best = ratios.min()
        # tie-break on the smallest basis index (anti-cycling with Bland)
        tied = np.where(ratios <= best + _PIVOT_TOL * (1.0 + abs(best)))[0]
        row = tied[np.argmin(np.asarray(basis)[tied])]
        _pivot(T, basis, row, col)
    return "iteration_limit"


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=None,
             tol=1e-9, max_iter=20000) -> LPResult:
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if nonneg is None:
        nonneg = np.zeros(n, dtype=bool)
    else:
        nonneg = np.broadcast_to(np.asarray(nonneg, dtype=bool), (n,))

    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float).ravel()
    if a_ub.shape[1] != n or a_eq.shape[1] != n:
        raise LPError("constraint matrix width does not match objective size")
    if not (np.isfinite(a_ub).all() and np.isfinite(b_ub).all()
            and np.isfinite(a_eq).all() and np.isfinite(b_eq).all()
            and np.isfinite(c).all()):
        raise LPError("non-finite LP data")

    # free variables are split x = u - v, nonnegative ones map to one column
    col_of_pos = np.zeros(n, dtype=int)
    col_of_neg = np.full(n, -1, dtype=int)
    ncols = 0
    for i in range(n):
        col_of_pos[i] = ncols
        ncols += 1
        if not nonneg[i]:
            col_of_neg[i] = ncols
            ncols += 1

    def expand(mat):
        out = np.zeros((mat.shape[0], ncols))
        out[:, col_of_pos] = mat
        split = col_of_neg >= 0
        out[:, col_of_neg[split]] = -mat[:, split]
        return out

    A = np.vstack([expand(a_eq), expand(a_ub)])
    b = np.concatenate([b_eq, b_ub])
    m = A.shape[0]
    n_eq = a_eq.shape[0]

    # slacks for inequality rows
    slack_cols = np.arange(a_ub.shape[0]) + ncols
    full = np.hstack([A, np.zeros((m, a_ub.shape[0]))])
    for r in range(a_ub.shape[0]):
        full[n_eq + r, slack_cols[r]] = 1.0
    total = ncols + a_ub.shape[0]

    # make the RHS nonnegative
    flip = b < 0
    full[flip] *= -1.0
    b = np.abs(b)

    # artificials: every equality row, plus inequality rows whose slack flipped
    need_art = np.ones(m, dtype=bool)
    for r in range(a_ub.shape[0]):
        if not flip[n_eq + r]:
            need_art[n_eq + r] = False
    art_rows = np.where(need_art)[0]
    n_art = art_rows.size
    T = np.zeros((m + 1, total + n_art + 1))
    T[:m, :total] = full
    T[:m, -1] = b
    basis = [0] * m
    for r in range(a_ub.shape[0]):
        if not need_art[n_eq + r]:
            basis[n_eq + r] = slack_cols[r]
    for j, r in enumerate(art_rows):
        T[r, total + j] = 1.0
        basis[r] = total + j
    basis = np.asarray(basis, dtype=int)

    allowed = np.ones(total + n_art, dtype=bool)
    scale = 1.0 + np.abs(b).max(initial=0.0)

    if n_art:
        # phase 1: min the artificial sum
        T[-1, :] = 0.0
        for r in art_rows:
            T[-1, :] -= T[r, :]
        # the artificials carry unit cost themselves, which cancels the -1
        # picked up above; without this they would re-enter and wreck the row
        T[-1, total:-1] += 1.0
        status = _run_simplex(T, basis, allowed, tol, max_iter)
        if status != "optimal":
            return LPResult("iteration_limit", None, None)
        if -T[-1, -1] > tol * scale:
            return LPResult("infeasible", None, None)
        allowed[total:] = False
        for r in range(m):
            if basis[r] >= total:
                pivot_candidates = np.where(allowed[:total]
                                            & (np.abs(T[r, :total]) > _PIVOT_TOL))[0]
                if pivot_candidates.size:
                    _pivot(T, basis, r, pivot_candidates[0])
                # otherwise the row is redundant; the artificial stays basic at 0

    # phase 2
    cost = np.zeros(total + n_art + 1)
    cost[col_of_pos] = c
    split = col_of_neg >= 0
    cost[col_of_neg[split]] = -c[split]
    T[-1, :] = cost
    for r in range(m):
        if np.abs(T[-1, basis[r]]) > 0:
            T[-1, :] -= T[-1, basis[r]] * T[r, :]
    status = _run_simplex(T, basis, allowed, tol, max_iter)
    if status != "optimal":
        return LPResult(status, None, None)

    x_full = np.zeros(total + n_art)
    x_full[basis] = T[:m, -1]
    x = x_full[col_of_pos].copy()
    x[split] -= x_full[col_of_neg[split]]
    return LPResult("optimal", x, float(c @ x))


def max_margin_point(a, b, tol=1e-9):
    """Largest-inscribed-margin point of {x : a @ x <= b}.

    Rows of ``a`` must be unit vectors for the margin to mean Euclidean
    distance. Returns (x, margin); margin < 0 means the system is infeasible
    by at least |margin|, margin > 0 strict interior.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.asarray(b, float).ravel()
    d = a.shape[1]
    c = np.zeros(d + 1)
    c[-1] = -1.0  # maximize the margin
    a_ub = np.hstack([a, np.ones((a.shape[0], 1))])
    res = solve_lp(c, a_ub=a_ub, b_ub=b, tol=tol)
    if not res.ok:
        raise LPError(f"margin LP failed: {res.status}")
    return res.x[:d], float(res.x[-1])
