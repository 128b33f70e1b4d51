"""Exported-model oracle: exhaustive search over a MilpModel's binaries.

solve_model_exhaustive is an independent path to the exact engine's optimum:
it takes a built (or re-parsed) MILP, branches over its binary variables with
bound propagation, and solves one LP, built one way, both to bound partial
assignments (their LP relaxation) and to optimize every completed
assignment's continuous remainder, with the bundled simplex.  It shares no
code with solve_exact beyond that simplex, so the two agreeing is evidence
for both.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .milp import MilpModel
from .simplex import simplex_solve


def solve_model_exhaustive(
    model: MilpModel,
    time_budget_s: float = 600.0,
    max_nodes: int = 5_000_000,
):
    """Optimize a MilpModel by exhaustive search over its binary variables.

    The rows become one dense coefficient matrix, split into a binary and a
    continuous block; rows the variable bounds already satisfy are dropped.
    Depth-first branching fixes, after every choice, each binary the rows
    force (bound propagation to its fixpoint).  One LP over the kept rows
    serves nodes and leaves: fixed binaries move to the right-hand side, free
    ones range over [0, 1], and each continuous variable over its bounds,
    shifted to start at 0.  Once an incumbent exists, a branch is pruned when
    its LP relaxation is infeasible or cannot beat the incumbent by more than
    1e-9 (Land and Doig's bound).  Every completed assignment solves the same
    LP with no binary free, without presolve or cache.  The search stops
    early once the incumbent reaches the objective variable's upper bound.
    Every node checks both budgets, so time_budget_s holds to within one LP
    solve.

    Returns (status, value, variable dict); status is optimal, infeasible or
    limit.  A variable without a finite lower bound, or an unbounded
    objective, raises ValueError."""
    for v in model.variables:
        if not math.isfinite(v.lb):
            raise ValueError(f"variable {v.name} has lower bound {v.lb}; the oracle needs a finite one")
    is_bin = np.array([v.kind == "binary" for v in model.variables], dtype=bool)
    lbs = np.array([v.lb for v in model.variables])
    ubs = np.array([v.ub for v in model.variables])
    bin_idx, cont_idx = np.flatnonzero(is_bin), np.flatnonzero(~is_bin)
    lbs_c, ubs_c = lbs[cont_idx], ubs[cont_idx]
    obj = cont_idx.tolist().index(model.name_to_idx[model.objective])
    obj_ub = ubs_c[obj]

    A = np.zeros((len(model.constraints), len(model.variables)))
    for r, c in enumerate(model.constraints):
        for i, coef in c.terms:
            A[r, i] += coef
    sense = np.array([c.sense for c in model.constraints], dtype="U2")
    rhs = np.array([c.rhs for c in model.constraints], dtype=float)

    def activity(M, lo, hi):
        """Smallest and largest value of each row of M over the box [lo, hi]."""
        with np.errstate(invalid="ignore"):  # 0 * inf, in entries where() drops
            low = np.where(M > 0, M * lo, np.where(M < 0, M * hi, 0.0))
            high = np.where(M > 0, M * hi, np.where(M < 0, M * lo, 0.0))
        return low.sum(axis=1), high.sum(axis=1)

    # drop rows the variable bounds already satisfy; they only widen the
    # search over binaries the continuous problem never feels
    low, high = activity(A, np.where(is_bin, lbs >= 1.0, lbs), np.where(is_bin, ubs > 0.0, ubs))
    le, ge = sense == "<=", sense == ">="
    keep = ~((ge | (high <= rhs + 1e-9)) & (le | (low >= rhs - 1e-9)))
    sense, rhs, le, ge = sense[keep], rhs[keep], le[keep], ge[keep]
    Ab, Ac = A[keep][:, bin_idx], A[keep][:, cont_idx]
    c_low, c_high = activity(Ac, lbs_c, ubs_c)

    # propagation rows: the binary block in <= form (>= rows negated, = rows
    # both ways); room is what the rhs leaves the binary terms once the
    # continuous terms sit at their smallest activity
    up, down = ~ge, ~le
    G = np.vstack([Ab[up], -Ab[down]])
    room = np.concatenate([rhs[up], -rhs[down]]) + 1e-9 - np.concatenate([c_low[up], -c_high[down]])
    G_neg, G_abs = np.minimum(G, 0.0), np.abs(G)
    G_pos_mask, G_neg_mask = G > 0, G < 0

    # x holds the binary assignment: 1, 0, or -1 while free
    x = np.where(ubs[bin_idx] <= 0.0, 0.0, np.where(lbs[bin_idx] >= 1.0, 1.0, -1.0))

    def propagate() -> bool:
        """Fix every binary the rows force, to the fixpoint; False on a conflict."""
        while True:
            free = x < 0
            least = G @ (x > 0) + G_neg @ free
            if (least > room).any():
                return False
            forced = free & (least[:, None] + G_abs > room[:, None])
            if not forced.any():
                return True
            zero, one = (forced & G_pos_mask).any(axis=0), (forced & G_neg_mask).any(axis=0)
            if (zero & one).any():
                return False
            x[zero], x[one] = 0.0, 1.0

    # one LP for nodes and leaves, over the free binaries and the continuous
    # variables, each shifted to start at 0: the kept rows, >= rows negated,
    # then an upper-bound row per binary and per finite continuous bound
    n_b = len(bin_idx)
    eq = sense == "="
    n_ub = int((~eq).sum())
    flip = np.where(ge, -1.0, 1.0)[~eq, None]
    R, r = np.hstack([Ab, Ac]), rhs - Ac @ lbs_c
    span = np.concatenate([np.ones(n_b), ubs_c - lbs_c])
    capped = np.isfinite(span)
    R_ub = np.vstack([R[~eq] * flip, np.eye(len(span))[capped]])
    r_ub = np.concatenate([r[~eq] * flip[:, 0], span[capped]])
    R_eq, r_eq = R[eq], r[eq]
    cost = np.zeros(len(span))
    cost[n_b + obj] = 1.0

    def lp():
        """Largest objective of the LP under the binary assignment x: fixed
        binaries move to the right-hand side, free ones range over [0, 1].
        Returns it with the continuous values reaching it, (-inf, None) when
        the LP is infeasible.  An unbounded LP raises ValueError; a node's LP
        is solved only with an incumbent, so it is never unbounded: its
        recession directions are those of every leaf LP, and one leaf LP has
        an optimum."""
        free = x < 0
        fixed = np.where(free, 0.0, x)
        cols = np.concatenate([free, np.ones(len(lbs_c), dtype=bool)])
        rows = np.concatenate([np.ones(n_ub, dtype=bool), cols[capped]])
        res = simplex_solve(
            cost[cols],
            R_ub[rows][:, cols],
            (r_ub - R_ub[:, :n_b] @ fixed)[rows],
            R_eq[:, cols],
            r_eq - R_eq[:, :n_b] @ fixed,
        )
        if res.status == "unbounded":
            raise ValueError(f"objective {model.objective} is unbounded")
        if res.status != "optimal":
            return -math.inf, None
        xc = res.x[np.count_nonzero(free):] + lbs_c
        return float(xc[obj]), xc

    # branch binaries the continuous rows can see first; don't-cares last
    seen_in_cont = (Ab != 0)[(Ac != 0).any(axis=1)].any(axis=0)
    order = np.flatnonzero((x == -1) & seen_in_cont).tolist()
    semantic_len = len(order)
    order += np.flatnonzero((x == -1) & ~seen_in_cont).tolist()

    names_bin = [model.variables[i].name for i in bin_idx]
    names_cont = [model.variables[i].name for i in cont_idx]
    best_val = -math.inf
    best_vars: dict[str, float] | None = None
    nodes = 0
    t0 = time.monotonic()
    truncated = False
    proven = False

    def record(value, xc):
        """Keep a leaf that beats the incumbent; an infeasible one, at -inf, never does."""
        nonlocal best_val, best_vars, proven
        if value > best_val + 1e-12:
            best_val = value
            best_vars = dict(zip(names_bin, x.tolist()))
            best_vars.update(zip(names_cont, xc.tolist()))
            if best_val >= obj_ub - 1e-12:
                proven = True  # nothing can beat the objective bound

    def count_node() -> bool:
        """Count a node; False once the node or time budget is spent."""
        nonlocal nodes, truncated
        nodes += 1
        if nodes > max_nodes or time.monotonic() - t0 > time_budget_s:
            truncated = True
        return not truncated

    def complete_suffix(pos: int) -> bool:
        """First feasible assignment of the remaining binaries.  They appear
        in no continuous row, so any completion leaves the LP unchanged."""
        if not count_node():
            return False
        while pos < len(order) and x[order[pos]] != -1:
            pos += 1
        if pos == len(order):
            return True
        var, saved = order[pos], x.copy()
        for val in (1.0, 0.0):
            x[var] = val
            if propagate() and complete_suffix(pos + 1):
                return True
            x[:] = saved
            if truncated:
                break
        return False

    def dfs(pos: int) -> bool:
        if proven or not count_node():
            return False
        while pos < len(order) and x[order[pos]] != -1:
            pos += 1
        saved = x.copy()
        if pos >= semantic_len:
            if complete_suffix(pos):
                record(*lp())
            x[:] = saved
            return not proven and not truncated
        var = order[pos]
        for val in (1.0, 0.0):
            x[var] = val
            carry_on = (
                not propagate()
                or (best_vars is not None and lp()[0] <= best_val + 1e-9)
                or dfs(pos + 1)
            )
            x[:] = saved
            if not carry_on:
                return False
        return True

    if propagate():
        dfs(0)
    if truncated:
        return ("limit", best_val if best_vars else None, best_vars)
    if best_vars is None:
        return ("infeasible", None, None)
    return ("optimal", best_val, best_vars)
