"""Exported-model oracle: exhaustive search over a MilpModel's binaries.

solve_model_exhaustive is an independent path to the exact engine's optimum:
it takes a built (or re-parsed) MILP, branches over its binary variables with
bound propagation, and hands every completed assignment's continuous
remainder to the bundled simplex.  It shares no code with solve_exact beyond
that simplex, so the two agreeing is evidence for both.
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
    force (bound propagation to its fixpoint).  Every completed assignment's
    continuous remainder is presolved (rows made slack by the fixed binaries
    are dropped, zero-forced variables eliminated) and handed to the bundled
    simplex.  Presolved subproblems are cached, so assignments differing only
    in binaries the continuous part never sees cost one LP solve.  The search
    stops early once the incumbent reaches the objective variable's upper
    bound.

    Returns (status, value, variable dict); status is optimal, infeasible or
    limit."""
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
    nz_b, nz_c = Ab != 0, Ac != 0

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

    # structure mined from the rows, for objective bounding under partial
    # assignments: one-hot binary groups (sum = 1 rows) and continuous vars
    # dominated by a single binary (x - b <= 0 rows)
    n_b, n_c = nz_b.sum(axis=1), nz_c.sum(axis=1)
    one_hot_group: dict[int, int] = {}
    group_members: list[np.ndarray] = []
    for r in np.flatnonzero((sense == "=") & (rhs == 1.0) & (n_c == 0) & ((Ab == 1.0) | ~nz_b).all(axis=1)):
        for b in np.flatnonzero(nz_b[r]).tolist():
            one_hot_group.setdefault(b, len(group_members))
        group_members.append(np.flatnonzero(nz_b[r]))
    dominator: dict[int, int] = {}
    for r in np.flatnonzero(le & (rhs == 0.0) & (n_b == 1) & (n_c == 1)):
        b, j = int(nz_b[r].argmax()), int(nz_c[r].argmax())
        if Ac[r, j] > 0 and abs(Ab[r, b] + Ac[r, j]) < 1e-12 and b in one_hot_group:
            dominator.setdefault(j, b)

    # rows that cap a positive continuous term from above, as term lists
    lbs_cl = lbs_c.tolist()
    bound_r = np.flatnonzero(~ge & (Ac > 0).any(axis=1))
    bound_rows = []
    for row in Ac[bound_r].tolist():
        pos_terms = [(j, a) for j, a in enumerate(row) if a > 0]
        neg_plain: list[tuple[int, float]] = []
        grouped: dict[int, dict[int, list[tuple[int, float]]]] = {}
        for j, a in enumerate(row):
            if a < 0:
                b = dominator.get(j)
                if b is None:
                    neg_plain.append((j, -a))
                else:
                    grouped.setdefault(one_hot_group[b], {}).setdefault(b, []).append((j, -a))
        base = sum(a * lbs_cl[j] for j, a in pos_terms)
        bound_rows.append((pos_terms, neg_plain, list(grouped.values()), base))
    bound_B, bound_rhs = Ab[bound_r], rhs[bound_r]
    bound_B_neg = np.minimum(bound_B, 0.0)

    def objective_upper_bound() -> float:
        """Upper bound on the objective given the partial binary assignment.

        Interval propagation over the continuous rows, with sums of dominated
        variables collapsed per one-hot group: a UAV-epoch group contributes
        at most its best single member, not the sum over members."""
        adjusted = (bound_rhs - np.where(x >= 0, bound_B * x, bound_B_neg).sum(axis=1)).tolist()
        xs = x.tolist()
        ub = ubs_c.tolist()
        for _ in range(2):
            for rhs_adj, (pos_terms, neg_plain, grouped, base) in zip(adjusted, bound_rows):
                reach = 0.0  # largest achievable total of the negated terms
                for j, mag in neg_plain:
                    reach += mag * ub[j]
                for per_b in grouped:
                    best_b = 0.0
                    for b, terms in per_b.items():
                        if xs[b] == 0:
                            continue
                        tot = 0.0
                        for j, mag in terms:
                            tot += mag * ub[j]
                        if xs[b] == 1:
                            best_b = tot
                            break
                        best_b = max(best_b, tot)
                    reach += best_b
                for j, c in pos_terms:
                    cand = (rhs_adj + reach - (base - c * lbs_cl[j])) / c
                    if cand < ub[j]:
                        ub[j] = max(cand, lbs_cl[j])
        return ub[obj]

    # the leaf LP reads the rows with continuous terms
    cr = nz_c.any(axis=1)
    B, C, nz, base_rhs, max_lhs = Ab[cr], Ac[cr], nz_c[cr], rhs[cr], c_high[cr]
    c_sense, c_le = sense[cr], le[cr]
    c_eq = c_sense == "="
    # single continuous-variable <= rows can force variables to zero
    single_col = nz.argmax(axis=1)
    single = c_le & (nz.sum(axis=1) == 1) & (C.max(axis=1) > 0) & (lbs_c[single_col] == 0.0)
    lp_cache: dict[bytes, tuple] = {}

    def solve_continuous():
        """Presolve + solve the continuous remainder for the full assignment."""
        rhs_eff = base_rhs - B @ x
        live = ~(c_le & (max_lhs <= rhs_eff + 1e-9))
        key = live.tobytes() + np.round(rhs_eff[live], 9).tobytes()
        hit = lp_cache.get(key)
        if hit is not None:
            return hit

        # fixed-point zero-forcing: single-variable <= rows at rhs 0, then =
        # rows at rhs 0 with one variable left unforced
        forced_zero = np.zeros(len(lbs_c), dtype=bool)
        forced_zero[single_col[live & single & (rhs_eff <= 1e-12)]] = True
        eq_zero = live & c_eq & (np.abs(rhs_eff) <= 1e-12)
        while True:
            open_ = nz[eq_zero] & ~forced_zero
            cols = open_[open_.sum(axis=1) == 1].argmax(axis=1)
            cols = cols[lbs_c[cols] == 0.0]
            if not cols.size:
                break
            forced_zero[cols] = True

        nz_live = nz[live]
        keep_vars = nz_live.any(axis=0) & ~forced_zero
        keep_vars[obj] = not forced_zero[obj]
        rows, r_eff, r_sense = C[live][:, keep_vars], rhs_eff[live], c_sense[live]
        empty = ~nz_live[:, keep_vars].any(axis=1)
        ok = np.where(
            r_sense == "<=", r_eff >= -1e-9, np.where(r_sense == ">=", r_eff <= 1e-9, np.abs(r_eff) <= 1e-9)
        )
        if (empty & ~ok).any():
            lp_cache[key] = (None, None)
            return None, None

        # <= rows and negated >= rows in row order, then each kept variable's
        # lower-bound row followed by its upper-bound row
        ineq, eq = ~empty & (r_sense != "="), ~empty & (r_sense == "=")
        flip = np.where(r_sense[ineq] == ">=", -1.0, 1.0)
        lo_k, hi_k = lbs_c[keep_vars], ubs_c[keep_vars]
        m = len(lo_k)
        col = np.arange(m)
        box = np.zeros((2 * m, m))
        box[2 * col, col], box[2 * col + 1, col] = -1.0, 1.0
        box_rhs = np.column_stack([-lo_k, hi_k]).ravel()
        box_on = np.column_stack([lo_k > 0, np.isfinite(hi_k)]).ravel()
        c = np.zeros(m)
        if keep_vars[obj]:
            c[np.count_nonzero(keep_vars[:obj])] = 1.0
        res = simplex_solve(
            c,
            np.vstack([rows[ineq] * flip[:, None], box[box_on]]),
            np.concatenate([r_eff[ineq] * flip, box_rhs[box_on]]),
            rows[eq],
            r_eff[eq],
        )
        if res.status != "optimal":
            result = (None, None)
        else:
            # vars in dropped rows sit at their lower bound, which satisfies them
            xc = lbs_c.copy()
            xc[forced_zero] = 0.0
            xc[keep_vars] = res.x
            result = (float(xc[obj]), xc)
        lp_cache[key] = result
        return result

    # branch binaries the continuous rows can see first; don't-cares last
    seen_in_cont = nz_b[cr].any(axis=0)
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
        if nodes > max_nodes or (nodes % 512 == 0 and time.monotonic() - t0 > time_budget_s):
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
                value, xc = solve_continuous()
                if value is not None:
                    record(value, xc)
            x[:] = saved
            return not proven and not truncated
        var = order[pos]
        grp = one_hot_group.get(var)
        for val in (1.0, 0.0):
            x[var] = val
            carry_on = (
                not propagate()
                or (
                    best_vars is not None
                    and grp is not None
                    and (x[group_members[grp]] != -1).all()
                    and objective_upper_bound() <= best_val + 1e-9
                )
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
