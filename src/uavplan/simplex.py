"""Dense two-phase primal simplex, desk scale.

Solves  max c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.
Dantzig pricing with an automatic switch to Bland's rule when the objective
stalls, which guarantees termination on degenerate problems.  The reduced-cost
row is carried in the tableau and updated by each pivot, and the artificial
columns are dropped after phase 1, so phase 2 runs on a narrower tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
ROW_TOL = 1e-7  # largest scaled row residual an optimal point may have
SIZE_CAP = 2000
_BLAND_AFTER = 60  # stalled iterations before anti-cycling kicks in


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    value: float | None
    iterations: int = 0


class SizeCapError(ValueError):
    pass


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    # only entries with a nonzero factor and a nonzero pivot-row entry
    # change; every other entry would only subtract +-0
    rows = factors.nonzero()[0]
    cols = T[row].nonzero()[0]
    T[rows[:, None], cols] -= factors[rows, None] * T[row, cols]
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, cost: np.ndarray):
    """Optimize max cost.x over the tableau in place; returns status string.
    T's last row is the reduced-cost row, with -objective in its last column:
    filled here from cost, then kept current by every pivot."""
    m = T.shape[0] - 1
    T[m, :-1] = cost - cost[basis] @ T[:m, :-1]
    T[m, -1] = -(cost[basis] @ T[:m, -1])
    r = T[m, :-1]  # a view, so each pivot's update shows here
    it = 0
    stall = 0
    last = -np.inf
    bland = False
    max_iter = 20000 + 200 * (m + T.shape[1])
    while True:
        it += 1
        if it > max_iter:
            raise RuntimeError("simplex iteration cap exceeded")
        # reduced costs for a max problem: improving columns have r > 0
        if bland:
            cands = (r > FEAS_TOL).nonzero()[0]
            if cands.size == 0:
                return "optimal", it
            col = int(cands[0])
        else:
            col = int(r.argmax())
            if r[col] <= FEAS_TOL:
                return "optimal", it
        colvals = T[:m, col]
        pos = (colvals > PIVOT_TOL).nonzero()[0]
        if not pos.size:
            return "unbounded", it
        ratios = T[pos, -1] / colvals[pos]
        ties = pos[ratios <= ratios.min() + FEAS_TOL]
        # leaving rule: lowest basis index among ties (Bland-compatible)
        row = int(ties[basis[ties].argmin()])
        _pivot(T, basis, row, col)
        obj = -T[m, -1]
        if obj > last + 1e-12:
            last = obj
            stall = 0
        else:
            stall += 1
            if stall >= _BLAND_AFTER:
                bland = True


def simplex_solve(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> SimplexResult:
    """Maximize c @ x; variables are nonnegative.  Returns status, the primal
    point on the structural variables, and the objective value.  If pivoting
    error leaves an optimal point that breaks a row, the LP is solved once more
    with each row divided by its largest absolute coefficient; that point is
    returned only if the original rows accept it, else AssertionError."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_ub)) and np.all(np.isfinite(a_eq))):
        raise ValueError("coefficients must be finite")
    m = a_ub.shape[0] + a_eq.shape[0]
    if n > SIZE_CAP or m > 4 * SIZE_CAP:
        raise SizeCapError(f"problem size {n} vars x {m} rows exceeds the desk-scale cap")
    result = _solve(c, a_ub, b_ub, a_eq, b_eq)
    if result.status != "optimal":
        return result
    try:
        _check_rows(a_ub, b_ub, a_eq, b_eq, result.x)
    except AssertionError:
        ub, eq = _row_scale(a_ub), _row_scale(a_eq)
        retry = _solve(c, a_ub / ub[:, None], b_ub / ub, a_eq / eq[:, None], b_eq / eq)
        if retry.status != "optimal":
            raise
        _check_rows(a_ub, b_ub, a_eq, b_eq, retry.x)
        retry.iterations += result.iterations
        return retry
    return result


def _row_scale(a: np.ndarray) -> np.ndarray:
    """Each row's largest absolute coefficient, 1 for an all-zero row."""
    s = np.abs(a).max(axis=1, initial=0.0)
    s[s == 0.0] = 1.0
    return s


def _solve(c, a_ub, b_ub, a_eq, b_eq) -> SimplexResult:
    """The two-phase simplex on checked float arrays; the point is not yet
    checked against the rows."""
    n = c.size
    m = a_ub.shape[0] + a_eq.shape[0]
    # normalize rows to b >= 0; <= rows flipping sign become >= rows.  Every
    # inequality gets a slack column (-1 on a >= row), every >= and = row an
    # artificial one, which starts in its basis; a <= row starts on its slack.
    A = np.vstack([a_ub, a_eq])
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    n_slack = a_ub.shape[0]
    slack_rows = np.arange(n_slack)
    art_rows = (flip | (np.arange(m) >= n_slack)).nonzero()[0]
    art_at = n + n_slack  # first artificial column
    N = art_at + art_rows.size
    T = np.zeros((m + 1, N + 1))  # the last row is _run's reduced-cost row
    T[:m, :n] = A
    T[:m, -1] = b
    T[slack_rows, n + slack_rows] = np.where(flip[:n_slack], -1.0, 1.0)
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = n + slack_rows
    basis[art_rows] = art_at + np.arange(art_rows.size)
    T[art_rows, basis[art_rows]] = 1.0

    iterations = 0
    if art_rows.size:
        cost1 = np.zeros(N)
        cost1[art_at:] = -1.0  # max of -(sum of artificials)
        status, it = _run(T, basis, cost1)
        iterations += it
        if status != "optimal" or float(cost1[basis] @ T[:m, -1]) < -1e-7:
            return SimplexResult("infeasible", None, None, iterations)
        # drive leftover artificials out of the basis, dropping redundant rows,
        # then drop the artificial columns: they never re-enter
        keep = np.ones(m + 1, dtype=bool)
        for i in (basis >= art_at).nonzero()[0]:  # a pivot changes only its own row's basis
            piv = np.nonzero(np.abs(T[i, :art_at]) > PIVOT_TOL)[0]
            if piv.size:
                _pivot(T, basis, i, int(piv[0]))
            else:
                keep[i] = False
        T = T[keep][:, np.r_[:art_at, N]]
        basis = basis[keep[:m]]

    cost2 = np.zeros(art_at)
    cost2[:n] = c
    status, it = _run(T, basis, cost2)
    iterations += it
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations)
    x = np.zeros(art_at)
    x[basis] = T[:-1, -1] + 0.0  # turns a -0.0 the pivots left into 0.0
    x = x[:n].copy()
    return SimplexResult("optimal", x, float(c @ x), iterations)


def _check_rows(a_ub, b_ub, a_eq, b_eq, x) -> None:
    """Raise AssertionError if x breaks a row by more than ROW_TOL, scaled:
    |a.x - b| / (1 + |b| + |a|.|x|), counting only the excess on a <= row.
    Pivoting error can leave the tableau at a point the rows refuse; that
    point must never be reported as an optimum."""
    for kind, a, b in (("inequality", a_ub, b_ub), ("equality", a_eq, b_eq)):
        r = a @ x - b
        if kind == "inequality":
            r = np.maximum(r, 0.0)
        scaled = np.abs(r) / (1.0 + np.abs(b) + np.abs(a) @ np.abs(x))
        bad = (scaled > ROW_TOL).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"simplex_solve reached 'optimal' at a point that breaks {kind} row {i} "
                f"(scaled residual {scaled[i]:.3g})"
            )
