"""An optional third solving path for exported models: a MilpModel handed to
HiGHS through scipy.optimize.milp.  Test-side only; scipy is not a package
dependency, so callers skip when it is absent."""

import dataclasses

import numpy as np


def solve_highs(model, time_limit_s=60.0):
    """Maximize the model's objective variable; returns (status, objective,
    {variable name: value}), with objective and values None unless optimal."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n, m = len(model.variables), len(model.constraints)
    c = np.zeros(n)
    c[model.name_to_idx[model.objective]] = -1.0  # milp minimizes
    rows, cols, vals = zip(*((i, j, a) for i, row in enumerate(model.constraints) for j, a in row.terms))
    lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
    for i, row in enumerate(model.constraints):
        if row.sense in (">=", "="):
            lo[i] = row.rhs
        if row.sense in ("<=", "="):
            hi[i] = row.rhs
    res = milp(
        c,
        integrality=[v.kind == "binary" for v in model.variables],
        bounds=Bounds([v.lb for v in model.variables], [v.ub for v in model.variables]),
        constraints=LinearConstraint(coo_matrix((vals, (rows, cols)), shape=(m, n)), lo, hi),
        options={"time_limit": time_limit_s, "mip_rel_gap": 0.0},
    )
    if res.status != 0:
        return res.message, None, None
    return "optimal", -res.fun, dict(zip((v.name for v in model.variables), res.x.tolist()))


def pin_equipment(model, groups):
    """The model with every om_{d}_{k}_{p} of a forced payload fixed at 1 and
    of a forbidden one at 0, at every epoch, for (count, forced_on, forbidden)
    equipment groups taken in UAV order."""
    policy = [(forced_on, forbidden) for count, forced_on, forbidden in groups for _ in range(count)]

    def pin(v):
        if v.symbol != "om":
            return v
        d, _, p = v.indices
        forced_on, forbidden = policy[d]
        if p in forced_on:
            return v._replace(lb=1.0, ub=1.0)
        if p in forbidden:
            return v._replace(lb=0.0, ub=0.0)
        return v

    return dataclasses.replace(model, variables=[pin(v) for v in model.variables])
