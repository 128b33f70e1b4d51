import itertools
from unittest import mock

import numpy as np
import pytest

from uavplan import exact, simplex
from uavplan.scenario import fixed_equipment
from uavplan.simplex import SizeCapError, simplex_solve

from scenarios import flex_fixed_scenario


def vertex_enumeration_max(c, a_ub, b_ub):
    """Independent oracle: enumerate basic feasible points of
    {A x <= b, x >= 0} and take the best objective."""
    n = len(c)
    rows = np.vstack([a_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        A = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def test_single_variable_box():
    res = simplex_solve([1.0], a_ub=[[1.0]], b_ub=[1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)


def test_unbounded():
    res = simplex_solve([1.0])
    assert res.status == "unbounded"


def test_infeasible():
    res = simplex_solve([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    assert res.status == "infeasible"


def test_equality_constraint():
    res = simplex_solve([2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(1.0)


def test_minimize_direction():
    """min x + 3y on x + y = 2 is max -x - 3y, at x = 2."""
    res = simplex_solve([-1.0, -3.0], a_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert res.status == "optimal"
    assert -res.value == pytest.approx(2.0)
    assert res.x == pytest.approx([2.0, 0.0])


def test_degenerate_cycling_candidate_terminates():
    # Beale's classic cycling example (as a max problem)
    c = np.array([0.75, -150.0, 0.02, -6.0])
    a_ub = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b_ub = np.array([0.0, 0.0, 1.0])
    res = simplex_solve(c, a_ub=a_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.05, abs=1e-9)


def test_size_cap():
    with pytest.raises(SizeCapError):
        simplex_solve(np.ones(2001), a_ub=np.ones((1, 2001)), b_ub=[1.0])


def test_nan_rejected():
    with pytest.raises(ValueError):
        simplex_solve([np.nan], a_ub=[[1.0]], b_ub=[1.0])


@pytest.mark.parametrize("seed", range(12))
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, 7))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.uniform(0.5, 3.0, size=m)
    # box rows keep the polytope bounded so both methods agree
    a_ub = np.vstack([a_ub, np.eye(n)])
    b_ub = np.concatenate([b_ub, np.full(n, 5.0)])
    res = simplex_solve(c, a_ub=a_ub, b_ub=b_ub)
    oracle = vertex_enumeration_max(c, a_ub, b_ub)
    assert res.status == "optimal"
    assert res.value == pytest.approx(oracle, abs=1e-7)
    assert np.all(a_ub @ res.x <= b_ub + 1e-9)
    assert np.all(res.x >= -1e-9)


# -- reference implementations the hot path must reproduce bit for bit --------
# The reference prices every column from scratch on each iteration; the hot
# path carries its reduced-cost row in the tableau and drops the artificial
# columns after phase 1, and must still match the reference's status,
# iterations, value and x bits on the sampled LPs below.


def _dense_pivot(T, basis, row, col):
    """Pivot that updates every row, as the simplex first did."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _dense_run(T, basis, cost, allowed):
    """_run pricing every column with the full cost[basis] @ T product."""
    m = T.shape[0]
    it = 0
    stall = 0
    last = -np.inf
    bland = False
    max_iter = 20000 + 200 * (m + T.shape[1])
    while True:
        it += 1
        if it > max_iter:
            raise RuntimeError("simplex iteration cap exceeded")
        r = cost - cost[basis] @ T[:, :-1]
        r[~allowed] = 0.0
        if bland:
            cands = np.nonzero(r > simplex.FEAS_TOL)[0]
            if cands.size == 0:
                return "optimal", it
            col = int(cands[0])
        else:
            col = int(np.argmax(r))
            if r[col] <= simplex.FEAS_TOL:
                return "optimal", it
        colvals = T[:, col]
        pos = colvals > simplex.PIVOT_TOL
        if not pos.any():
            return "unbounded", it
        ratios = np.where(pos, T[:, -1] / np.where(pos, colvals, 1.0), np.inf)
        best = ratios.min()
        ties = np.nonzero(ratios <= best + simplex.FEAS_TOL)[0]
        row = int(ties[np.argmin(basis[ties])])
        _dense_pivot(T, basis, row, col)
        obj = float(cost[basis] @ T[:, -1])
        if obj > last + 1e-12:
            last = obj
            stall = 0
        else:
            stall += 1
            if stall >= simplex._BLAND_AFTER:
                bland = True


def _reference_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """simplex_solve (maximize) as first written: a row-by-row tableau build,
    _dense_run and _dense_pivot."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    m = a_ub.shape[0] + a_eq.shape[0]
    rows, senses = [], []
    for A, b, sense in ((a_ub, b_ub, "<="), (a_eq, b_eq, "=")):
        for i in range(A.shape[0]):
            a, rhs, sn = A[i], b[i], sense
            if rhs < 0:
                a, rhs = -a, -rhs
                if sn == "<=":
                    sn = ">="
            rows.append((a, rhs))
            senses.append(sn)
    n_slack = sum(1 for sn in senses if sn in ("<=", ">="))
    n_art = sum(1 for sn in senses if sn in (">=", "="))
    N = n + n_slack + n_art
    T = np.zeros((m, N + 1))
    basis = np.full(m, -1, dtype=int)
    s_at, a_at, art_cols = n, n + n_slack, []
    for i, ((a, rhs), sn) in enumerate(zip(rows, senses)):
        T[i, :n] = a
        T[i, -1] = rhs
        if sn != "=":
            T[i, s_at] = 1.0 if sn == "<=" else -1.0
            s_at += 1
        if sn == "<=":
            basis[i] = s_at - 1
        else:
            T[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1
    iterations = 0
    if art_cols:
        cost1 = np.zeros(N)
        cost1[art_cols] = -1.0
        status, it = _dense_run(T, basis, cost1, np.ones(N, dtype=bool))
        iterations += it
        if status != "optimal" or float(cost1[basis] @ T[:, -1]) < -1e-7:
            return simplex.SimplexResult("infeasible", None, None, iterations)
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] in set(art_cols):
                piv = np.nonzero(np.abs(T[i, : n + n_slack]) > simplex.PIVOT_TOL)[0]
                if piv.size:
                    _dense_pivot(T, basis, i, int(piv[0]))
                else:
                    keep[i] = False
        T, basis = T[keep], basis[keep]
    cost2 = np.zeros(N)
    cost2[:n] = c
    allowed = np.ones(N, dtype=bool)
    allowed[n + n_slack :] = False
    status, it = _dense_run(T, basis, cost2, allowed)
    iterations += it
    if status == "unbounded":
        return simplex.SimplexResult("unbounded", None, None, iterations)
    x = np.zeros(N)
    x[basis] = T[:, -1]
    return simplex.SimplexResult("optimal", x[:n].copy(), float(c @ x[:n]), iterations)


def _random_lp(rng):
    """Mixed <=, >= (negative right-hand side) and = rows, some of them
    degenerate, with small integer coefficients so ties and stalls occur."""
    n = int(rng.integers(2, 12))
    m_ub = int(rng.integers(1, 10))
    m_eq = int(rng.integers(0, 4))
    dense = rng.random() < 0.5
    def coefs(rows):
        a = rng.integers(-3, 4, size=(rows, n)).astype(float)
        if not dense:
            a *= rng.random((rows, n)) < 0.4
        return a
    a_ub = coefs(m_ub)
    b_ub = rng.integers(-2, 6, size=m_ub).astype(float)
    if rng.random() < 0.7:  # a box; without it some LPs are unbounded
        a_ub = np.vstack([a_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 4.0)])
    a_eq = coefs(m_eq)
    b_eq = a_eq @ rng.uniform(0, 1, size=n)  # feasible by construction
    c = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(-2, 3, size=n).astype(float)
    return c, a_ub, b_ub, (a_eq if m_eq else None), (b_eq if m_eq else None)


def _inner_lps(max_lps=40):
    """The LPs the exact engine solves on flex-fixed instances."""
    seen = []

    def record(*args):
        seen.append(args)
        return simplex_solve(*args)

    with mock.patch.object(exact, "simplex_solve", record):
        for seed in (1, 2):
            s = flex_fixed_scenario(seed, 3)
            exact.solve_exact(s)
            exact.solve_exact(s, equipment_groups=fixed_equipment(s))
    return seen[:: max(1, len(seen) // max_lps)]


def _assert_same(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert repr(got.value) == repr(want.value)
    if want.x is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want.x)


class TestHotPathEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_lps_match_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            args = _random_lp(rng)
            _assert_same(simplex_solve(*args), _reference_solve(*args))

    def test_inner_lps_match_dense_reference(self):
        lps = _inner_lps()
        assert len(lps) >= 20
        for args in lps:
            _assert_same(simplex_solve(*args), _reference_solve(*args))

    @pytest.mark.parametrize("seed", range(20))
    def test_pivot_matches_dense_update(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 40)), int(rng.integers(3, 60))
        T = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.3)
        row, col = int(rng.integers(m)), int(rng.integers(n - 1))
        T[row, col] = rng.uniform(0.5, 2.0)
        basis = np.arange(m)
        want_T, want_basis = T.copy(), basis.copy()
        _dense_pivot(want_T, want_basis, row, col)
        simplex._pivot(T, basis, row, col)
        assert np.array_equal(T, want_T)
        assert np.array_equal(basis, want_basis)


def _carried_row_drift(lps):
    """Largest scaled gap, over every _run of every LP, between the reduced-cost
    row and objective carried in the tableau and the same recomputed from the
    basis: cost - cost[basis] @ T[:m, :-1] and cost[basis] @ T[:m, -1]."""
    run = simplex._run
    worst = 0.0

    def checked(T, basis, cost):
        nonlocal worst
        out = run(T, basis, cost)
        m = T.shape[0] - 1
        cb = cost[basis]
        r = cost - cb @ T[:m, :-1]
        r_scale = 1.0 + np.abs(cost) + np.abs(cb) @ np.abs(T[:m, :-1])
        obj_scale = 1.0 + np.abs(cb) @ np.abs(T[:m, -1])
        worst = max(
            worst,
            float(np.max(np.abs(T[m, :-1] - r) / r_scale)),
            abs(-T[m, -1] - cb @ T[:m, -1]) / obj_scale,
        )
        return out

    with mock.patch.object(simplex, "_run", checked):
        for args in lps:
            simplex_solve(*args)
    return worst


class TestCarriedReducedCosts:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_lps(self, seed):
        rng = np.random.default_rng(seed)
        assert _carried_row_drift([_random_lp(rng) for _ in range(30)]) <= 1e-9

    def test_inner_lps(self):
        assert _carried_row_drift(_inner_lps()) <= 1e-9


def test_row_check_refuses_a_point_over_a_row():
    """An excess on a <= row, or either side of an = row, beyond the scaled
    tolerance is an AssertionError naming the row; slack is not."""
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 5.0])
    simplex._check_rows(a, b, np.zeros((0, 2)), np.zeros(0), np.array([1.0, 1.0]))
    with pytest.raises(AssertionError, match="inequality row 0"):
        simplex._check_rows(a, b, np.zeros((0, 2)), np.zeros(0), np.array([1.5, 1.0]))
    with pytest.raises(AssertionError, match="equality row 1"):
        simplex._check_rows(np.zeros((0, 2)), np.zeros(0), a, b, np.array([1.0, 1.0]))
