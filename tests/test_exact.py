import dataclasses
import hashlib
import itertools
import zlib
from unittest import mock

import numpy as np
import pytest

from uavplan import exact
from uavplan.evaluator import check_feasibility, satisfaction
from uavplan.exact import (
    EnumerationLimits,
    GuardError,
    _NO_CONFIGS,
    _Capability,
    _objective_upper_bound,
    enumerate_configs,
    solve_exact,
)
from uavplan.scenario import Location, PayloadItem, UavSpec, fixed_equipment, make_scenario
from uavplan.synth import Dims, generate_preset, generate_synthetic

from scenarios import flex_fixed_scenario, tiny_delivery, tiny_instance, tiny_mixed

# objective of the tiny-mixed fixture, frozen after verification against the
# exported-model brute force (see test_milp)
TINY_MIXED_OBJECTIVE = 1.0


def test_unique_tour_delivers_with_vacuous_demand():
    s = tiny_delivery()
    res = solve_exact(s)
    assert res.feasible and res.proven_optimal
    assert res.objective == 1.0
    assert res.plan.locations.tolist() == [[0, 1, 0]]
    assert check_feasibility(s, res.plan).ok


def test_battery_starved_delivery_is_infeasible():
    """A battery below the loaded outbound hop kills every serving plan (the
    return hop ends at a depot, where arrival means a swap, so only the
    outbound leg draws charge)."""
    s = tiny_delivery()
    out_hop = 3.125 * 1.0 * (4.0 + 0.5)  # 14.0625 Wh to the target, loaded
    starved = dataclasses.replace(s, uav=dataclasses.replace(s.uav, battery_capacity_wh=out_hop - 1))
    res = solve_exact(starved)
    assert not res.feasible
    assert res.proven_optimal
    # just above the threshold the one-way cost is payable and the swap
    # covers the trip home
    enough = dataclasses.replace(s, uav=dataclasses.replace(s.uav, battery_capacity_wh=out_hop + 1))
    res2 = solve_exact(enough)
    assert res2.feasible and res2.objective == 1.0


def test_tiny_mixed_pinned_objective():
    s = tiny_mixed()
    res = solve_exact(s)
    assert res.feasible and res.proven_optimal
    assert res.objective == pytest.approx(TINY_MIXED_OBJECTIVE, abs=1e-9)
    assert check_feasibility(s, res.plan).ok
    assert satisfaction(s, res.plan).objective == pytest.approx(res.objective, abs=1e-9)


def test_pruning_soundness():
    s = tiny_mixed()
    fast = solve_exact(s)
    slow = solve_exact(s, prune_battery=False, prune_bound=False)
    assert slow.objective == pytest.approx(fast.objective, abs=1e-12)
    assert slow.assignments_visited >= fast.assignments_visited


def test_size_guard_refuses_large_instances():
    s = generate_preset("sf-small", seed=1)
    with pytest.raises(GuardError):
        solve_exact(s)


def test_enumeration_respects_forced_equipment():
    s = tiny_mixed()
    cfgs = enumerate_configs(s, forced_on=frozenset({0}))
    for cfg in cfgs:
        for k, loc in enumerate(cfg.locs):
            if not s.locations[loc].is_depot:
                assert 0 in cfg.aboard[k]


def test_assignment_budget_returns_best_so_far():
    s = tiny_mixed()
    res = solve_exact(s, EnumerationLimits(max_assignments=5, time_budget_s=60, size_guard=64))
    assert not res.proven_optimal
    assert res.assignments_visited <= 6


def test_depot_return_flag_widens_the_space():
    s = tiny_delivery()
    free = solve_exact(s, depot_return=False)
    assert free.feasible
    closed = solve_exact(s)
    assert closed.feasible
    # both serve the delivery; the free variant may end away from the depot
    assert free.objective == closed.objective == 1.0


def test_results_deterministic():
    s = tiny_mixed()
    a = solve_exact(s)
    b = solve_exact(s)
    assert a.objective == b.objective
    assert np.array_equal(a.plan.locations, b.plan.locations)
    assert np.array_equal(a.plan.payloads, b.plan.payloads)


def test_second_depot_extends_reach():
    """A mid-route battery swap makes the far target servable: the sortie
    ends at the second depot, where arrival costs nothing."""

    def build(second_depot: bool):
        return make_scenario(
            locations=[
                Location(0, 0.0, 0.0, True),
                Location(1, 2.0, 0.0, False),
                Location(2, 4.0, 0.0, second_depot),
                Location(3, 6.0, 0.0, False),
            ],
            zones=[],
            uav=UavSpec(4.0, 2.5, 40.0, 2.5, 1),
            payloads=[PayloadItem(0, 0.5, "pack", True, 3, (1, 6))],
            missions=[],
            epochs=8,
            horizon=4,
        )

    # 2 km hop carrying the pack costs 28.125 Wh; two in a row exceed 40 Wh
    blocked = solve_exact(build(False))
    assert not blocked.feasible
    helped = solve_exact(build(True))
    assert helped.feasible and helped.objective == 1.0
    assert 2 in helped.plan.locations[0]  # swings through the mid depot


def test_single_epoch_scenario():
    s = make_scenario(
        locations=[Location(0, 0.0, 0.0, True)],
        zones=[],
        uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
        payloads=[],
        missions=[],
        epochs=1,
        horizon=1,
    )
    res = solve_exact(s)
    assert res.feasible and res.objective == 1.0
    assert check_feasibility(s, res.plan).ok


# -- hot-path equivalence and the engine's counters --------------------------------


def _loop_window_need(s):
    cs = np.concatenate([np.zeros((1, s.num_missions, s.num_zones)), np.cumsum(s.demand, axis=0)])
    win = np.zeros_like(s.demand)
    for k in range(s.epochs):
        win[k] = cs[k + 1] - cs[max(0, k - s.horizon)]
    return win


def _loop_bound(s, assignment, win_need):
    """The objective bound as first written: per-config, per-epoch loops,
    plus the time-budget term per window and zone, crediting only work whose
    data can leave the UAV."""
    service = s.service_mission_ids
    if not service:
        return 1.0
    K, M, Z = s.epochs, s.num_missions, s.num_zones

    def equipped(cfg, k, m):
        return all(p in cfg.aboard[k] for p in s.missions[m].requires)

    def usable(cfg, k, m):
        """Equipped, and the data its work makes can leave the UAV: without
        the relay equipment aboard the inner LP has no column for such work."""
        if not equipped(cfg, k, m):
            return False
        return s.relay_index is None or s.missions[m].mb_per_work <= 0 or equipped(cfg, k, s.relay_index)

    cap = np.zeros((K, M, Z))
    for cfg in assignment:
        for k in range(K):
            for m in service:
                if usable(cfg, k, m):
                    cap[k, m, :] += s.quality[cfg.locs[k], m, :]
    cap = np.minimum(cap, s.demand)
    cs = np.concatenate([np.zeros((1, M, Z)), np.cumsum(cap, axis=0)])
    ub = 1.0
    for k in range(K):
        horizon_cap = cs[k + 1] - cs[max(0, k - s.horizon)]
        for m in service:
            mask = win_need[k, m, :] > 0
            if mask.any():
                ratios = horizon_cap[m, mask] / win_need[k, m, mask]
                ub = min(ub, float(np.minimum(ratios, 1.0).min()))
    # time budget: UAV-epoch (d, h) can serve (m, z) if it has a mu column
    for k in range(K):
        window = range(max(0, k - s.horizon), k + 1)
        for z in range(Z):

            def serves(cfg, h, m):
                q = s.quality[cfg.locs[h], m, z]
                return usable(cfg, h, m) and q > 0 and s.demand[h, m, z] > 0

            servers = sum(
                1 for cfg in assignment for h in window if any(serves(cfg, h, m) for m in service)
            )
            time_need = 0.0
            for m in service:
                if win_need[k, m, z] > 0:
                    best = max(
                        (s.quality[cfg.locs[h], m, z] for cfg in assignment for h in window if serves(cfg, h, m)),
                        default=0.0,
                    )
                    time_need += win_need[k, m, z] / best if best > 0 else np.inf
            if time_need > 0:
                ub = min(ub, float(servers / time_need))
    return ub


def _groups(s, mode):
    if mode == "fixed":
        return fixed_equipment(s)
    return [(s.num_uavs, frozenset(), frozenset())]


def _walk(s, mode, visit):
    """The assignment search in loop form: visit(picks, c, record) for every
    choice c after the picks, depth first, descending where it returns True.
    record sums the records of the picks and c, then adds, slot by slot, the
    best record any config a later slot may still pick offers: the
    elementwise max of quality and servers and min of time_need over those
    configs."""
    slots = [pool for count, on, off in _groups(s, mode) for pool in [enumerate_configs(s, on, off)] * count]

    def best_of(cfgs):
        records = [c.bound for c in cfgs]
        return _Capability(
            np.max([r.quality for r in records], axis=0),
            np.max([r.servers for r in records], axis=0),
            np.min([r.time_need for r in records], axis=0),
        )

    def walk(slot, lo, picks):
        pool = slots[slot]
        for ci in range(lo, len(pool)):
            record = sum((c.bound for c in (*picks, pool[ci])), _NO_CONFIGS)
            for later in slots[slot + 1 :]:
                record = record + best_of(later[ci:] if later is pool else later)
            if visit(picks, pool[ci], _Capability.stack([record])) and slot + 1 < len(slots):
                walk(slot + 1, ci if slots[slot + 1] is pool else 0, (*picks, pool[ci]))

    walk(0, 0, ())


def _batched_bound(s, picks, stack):
    """The bound on the drawn (pool, index) picks, read from one batch over
    every config of the last pick's pool (stacked in stack) after the
    running record of the other picks."""
    prefix = sum((pool[i].bound for pool, i in picks[:-1]), _NO_CONFIGS)
    return float(_objective_upper_bound(s, prefix + stack)[picks[-1][1]])


class TestHotPathEquivalence:
    @pytest.mark.parametrize("mode", ["flexible", "fixed"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_matches_loop_reference(self, seed, mode):
        s = flex_fixed_scenario(seed, 4)
        pools = [(count, enumerate_configs(s, on, off)) for count, on, off in _groups(s, mode)]
        stack = _Capability.stack([c.bound for c in pools[-1][1]])
        win_need = _loop_window_need(s)
        rng = np.random.default_rng(seed)
        seen = set()
        for _ in range(300):
            picks = [(pool, i) for count, pool in pools for i in rng.integers(len(pool), size=count)]
            want = _loop_bound(s, [pool[i] for pool, i in picks], win_need)
            assert repr(_batched_bound(s, picks, stack)) == repr(want)
            seen.add(want)
        assert len(seen) > 4 and min(seen) < 1.0  # the draws exercise the bound

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bound_matches_loop_reference_multi_zone(self, seed):
        s = generate_synthetic(seed, Dims(3, 4, 2, 2, 5))
        cfgs = enumerate_configs(s)
        stack = _Capability.stack([c.bound for c in cfgs])
        win_need = _loop_window_need(s)
        rng = np.random.default_rng(seed)
        seen = set()
        for _ in range(200):
            picks = [(cfgs, i) for i in rng.integers(len(cfgs), size=s.num_uavs)]
            want = _loop_bound(s, [cfgs[i] for _, i in picks], win_need)
            assert repr(_batched_bound(s, picks, stack)) == repr(want)
            seen.add(want)
        assert len(seen) > 4 and min(seen) < 1.0


class TestCounters:
    def test_defaults_are_zero(self):
        res = exact.ExactResult(None, None, True, 0, False)
        assert (res.lp_solves, res.simplex_iterations, res.bound_prunes) == (0, 0, 0)

    @pytest.mark.parametrize(
        "build, mode",
        [(tiny_mixed, "flexible"), (lambda: flex_fixed_scenario(1, 3), "flexible"),
         (lambda: flex_fixed_scenario(1, 3), "fixed"), (lambda: tiny_instance(8), "flexible")],
    )
    def test_counters_account_for_every_covering_assignment(self, build, mode):
        s = build()
        groups = _groups(s, mode)
        lp_calls, iterations = [], []
        inner_lp, solve = exact._inner_lp, exact.simplex_solve

        def counting_lp(*args):
            lp_calls.append(1)
            return inner_lp(*args)

        def counting_solve(*args):
            res = solve(*args)
            iterations.append(res.iterations)
            return res

        with mock.patch.object(exact, "_inner_lp", counting_lp), mock.patch.object(
            exact, "simplex_solve", counting_solve
        ):
            res = solve_exact(s, equipment_groups=groups)
        assert res.proven_optimal
        assert res.lp_solves == len(lp_calls) > 0
        assert res.simplex_iterations == sum(iterations) > 0
        # every assignment counts as visited, those under a pruned subtree
        # too, and every one that carries all deliveries is either discarded
        # by the bound (alone or with its subtree) or solved
        pools = [(count, enumerate_configs(s, on, off)) for count, on, off in groups]
        combos = list(itertools.product(
            *(itertools.combinations_with_replacement(pool, count) for count, pool in pools)
        ))
        wanted = set(s.deliverable_ids)
        covering = sum(
            1 for combo in combos if wanted <= set().union(*(c.delivered for picks in combo for c in picks))
        )
        assert res.assignments_visited == len(combos)
        assert res.bound_prunes + res.lp_solves == covering
        unpruned = solve_exact(s, equipment_groups=groups, prune_bound=False)
        assert (unpruned.assignments_visited, unpruned.bound_prunes, unpruned.lp_solves) == (
            len(combos), 0, covering)
        assert unpruned.objective == res.objective

    def test_pruned_subtrees_do_not_count_against_the_limit(self):
        """max_assignments caps the assignments the search reaches one by
        one (103 of 1820 here); a run that prunes the rest to the end is
        complete."""
        s = flex_fixed_scenario(1, 4)
        full = solve_exact(s)
        capped = solve_exact(s, EnumerationLimits(max_assignments=200))
        assert capped.proven_optimal and capped.assignments_visited == full.assignments_visited == 1820
        assert _result_digest(capped) == _result_digest(full)
        assert not solve_exact(s, EnumerationLimits(max_assignments=5)).proven_optimal

    @pytest.mark.parametrize(
        "limits",
        [{"time_budget_s": float("nan")}, {"time_budget_s": float("inf")}, {"max_assignments": float("nan")},
         {"size_guard": float("nan")}, {"time_budget_s": 0.0}],
    )
    def test_non_finite_or_non_positive_limits_refused(self, limits):
        with pytest.raises(ValueError, match="enumeration limits must be positive and finite"):
            EnumerationLimits(**limits)

    def test_time_budget_read_after_each_inner_lp(self):
        """A spent budget stops the search right after the inner LP that
        spent it, not at the next 256th leaf."""
        s = flex_fixed_scenario(1, 4)
        res = solve_exact(s, EnumerationLimits(time_budget_s=1e-9))
        assert not res.proven_optimal
        assert res.lp_solves == 1


def _bounds_and_gammas(s, groups):
    """(bound, inner-LP gamma) for every covering assignment, each solved
    once by an unpruned search."""
    pairs = []
    inner_lp = exact._inner_lp

    def recording_lp(s_, assignment):
        out = inner_lp(s_, assignment)
        offer = _Capability.stack([sum((c.bound for c in assignment), _NO_CONFIGS)])
        ub = _objective_upper_bound(s, offer)[0]
        pairs.append((float(ub), out[0]))
        return out

    with mock.patch.object(exact, "_inner_lp", recording_lp):
        solve_exact(s, equipment_groups=groups, prune_bound=False)
    return pairs


class TestBoundSoundness:
    @pytest.mark.parametrize(
        "build, mode",
        [
            pytest.param(lambda: flex_fixed_scenario(1, 4), "flexible", id="flex-fixed-flexible"),
            pytest.param(lambda: flex_fixed_scenario(1, 4), "fixed", id="flex-fixed-fixed"),
            pytest.param(tiny_mixed, "flexible", id="tiny-mixed"),
        ]
        + [
            pytest.param(lambda seed=seed: tiny_instance(seed), "flexible", id=f"tiny-{seed}")
            for seed in range(1, 21)
        ],
    )
    def test_bound_never_below_inner_lp(self, build, mode):
        s = build()
        pairs = _bounds_and_gammas(s, _groups(s, mode))
        assert pairs
        # the bound can sit a few ulps below gamma where they are equal
        assert all(ub >= gamma - 1e-12 for ub, gamma in pairs)

    @pytest.mark.parametrize("seed, uavs", [(1, 3), (2, 5)])
    def test_bound_exact_at_optimum_when_nothing_is_relayed(self, seed, uavs):
        """With no data to relay, the time budget is the only limit besides
        demand, so the bound meets gamma at an optimal assignment."""
        s = flex_fixed_scenario(seed, uavs)
        s = dataclasses.replace(s, missions=tuple(dataclasses.replace(m, mb_per_work=0.0) for m in s.missions))
        pairs = _bounds_and_gammas(s, _groups(s, "fixed"))
        best = max(gamma for _, gamma in pairs)
        assert 0.0 < best < 1.0
        assert min(ub for ub, gamma in pairs if gamma >= best - 1e-12) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("mode", ["flexible", "fixed"])
    def test_search_reads_each_assignments_own_bound(self, mode):
        """solve_exact bounds a node's remaining choices in one batch; a
        stand-in bound that prunes a pseudo-random half of the records, by
        their bytes, shows that each choice, a whole subtree or one
        assignment, is judged by its own entry."""
        s = flex_fixed_scenario(1, 3)

        def keep(offer, i) -> bool:
            arrays = (offer.quality, offer.servers, offer.time_need)
            return zlib.crc32(b"".join(a[i].tobytes() for a in arrays)) % 2 == 1

        def stand_in(s_, offer):
            return np.array([1.0 if keep(offer, i) else 0.0 for i in range(len(offer.quality))])

        solved = []
        inner_lp = exact._inner_lp

        def recording_lp(s_, assignment):
            solved.append(list(assignment))
            return inner_lp(s_, assignment)

        with mock.patch.object(exact, "_objective_upper_bound", stand_in), mock.patch.object(
            exact, "_inner_lp", recording_lp
        ):
            res = solve_exact(s, equipment_groups=_groups(s, mode))
        assert 0.0 < res.objective < 1.0  # so 0.0 always prunes and 1.0 never does
        # the same search in loop form; nothing is pruned before the first LP
        want, subtrees = [], []

        def visit(picks, c, record):
            leaf = len(picks) + 1 == s.num_uavs
            if want and not keep(record, 0):
                if not leaf:
                    subtrees.append(picks)
                return False
            if leaf:
                want.append([*picks, c])
            return True

        _walk(s, mode, visit)
        assert solved == want
        assert subtrees and 0 < res.bound_prunes


class TestSubtreeBound:
    CASES = [
        pytest.param(lambda: flex_fixed_scenario(1, 3), "flexible", id="flex-fixed-3-flexible"),
        pytest.param(lambda: flex_fixed_scenario(1, 3), "fixed", id="flex-fixed-3-fixed"),
        pytest.param(tiny_mixed, "flexible", id="tiny-mixed-uniform-links"),
        pytest.param(lambda: tiny_mixed(**BINDING_LINKS), "flexible", id="tiny-mixed-binding-links"),
    ]

    @pytest.mark.parametrize("build, mode", CASES)
    def test_subtree_bound_covers_every_leaf_below(self, build, mode):
        """Every choice's bound is at least the bound of each complete
        assignment below it, and every batch solve_exact bounds is the tail
        of one node's choices."""
        s = build()
        nodes, children = [], {}  # (depth, bound) in depth-first order; bounds per parent

        def visit(picks, c, record):
            ub = float(_objective_upper_bound(s, record)[0])
            nodes.append((len(picks) + 1, ub))
            children.setdefault(tuple(map(id, picks)), []).append(ub)
            return True

        _walk(s, mode, visit)
        for i, (depth, ub) in enumerate(nodes):
            below = itertools.takewhile(lambda node: node[0] > depth, nodes[i + 1 :])
            assert all(leaf <= ub + 1e-12 for d, leaf in below if d == s.num_uavs)
        tails = {tuple(v[i:]) for v in children.values() for i in range(len(v))}
        batches = []
        bound = exact._objective_upper_bound

        def recording_bound(s_, offer):
            out = bound(s_, offer)
            batches.append(tuple(out.tolist()))
            return out

        with mock.patch.object(exact, "_objective_upper_bound", recording_bound):
            solve_exact(s, equipment_groups=_groups(s, mode))
        assert batches and all(batch in tails for batch in batches)

    @pytest.mark.parametrize("build, mode", CASES)
    def test_bound_pruning_changes_no_plan(self, build, mode):
        s = build()
        pruned = solve_exact(s, equipment_groups=_groups(s, mode))
        unpruned = solve_exact(s, equipment_groups=_groups(s, mode), prune_bound=False)
        assert repr(pruned.objective) == repr(unpruned.objective)
        assert _plan_digest(pruned) == _plan_digest(unpruned)
        assert unpruned.lp_solves > pruned.lp_solves


def test_flexible_matches_fixed_with_fewer_uavs():
    """The paper's claim at the optimum: flexible equipment never does worse
    than fixed, and matches it with fewer UAVs (4 against 5, 6 against 8)."""
    flexible, fixed = {}, {}
    for uavs in range(2, 9):
        s = flex_fixed_scenario(1, uavs)
        flexible[uavs] = solve_exact(s).objective
        fixed[uavs] = solve_exact(s, equipment_groups=_groups(s, "fixed")).objective
        assert flexible[uavs] >= fixed[uavs] - 1e-9
    assert flexible[4] == pytest.approx(fixed[5], abs=1e-9)
    assert flexible[4] == pytest.approx(0.47946, abs=1e-5)
    assert flexible[6] == pytest.approx(fixed[8], abs=1e-9)
    assert flexible[6] == pytest.approx(0.71919, abs=1e-5)


# -- pinned bytes: the inner LPs and results of the exact engine -------------------

BINDING_LINKS = dict(link_uav_entries=[(0, 2, 2.0), (1, 1, 9e4)], link_sink_entries=[(2, 6e4)])

PINNED_CASES = {
    **{
        f"flex-fixed-{seed}-{mode}": (lambda seed=seed: flex_fixed_scenario(seed, 4), mode)
        for seed in (1, 2, 3)
        for mode in ("flexible", "fixed")
    },
    "tiny-mixed-uniform-links": (tiny_mixed, "flexible"),
    "tiny-mixed-binding-links": (lambda: tiny_mixed(**BINDING_LINKS), "flexible"),
}

# sha256 of the objective and plan arrays, then of every (c, a_ub, b_ub, a_eq,
# b_eq) solve_exact hands the simplex, then of the ExactResult fields and plan
# arrays.  Re-pinned when the inner LP derived each sink transfer from its flow
# balance instead of keeping a tausink column: the LP bytes change, its
# equality rows are gone, simplex_iterations roughly halves, and the flows move
# to another optimal vertex.  OUTCOME_DIGESTS below, pinned before that change,
# holds the objective to 12 digits, lp_solves, bound_prunes,
# assignments_visited, locations and payloads
PINNED_DIGESTS = {
    "flex-fixed-1-flexible": (
        "4b64fbddb3b2ec48b58a4643d96d3b0370d5388ae20781d8e521cb692eba5442",
        "ea1e3fa65be238e27145df577888ba1a27565190c87f73f1a85d838fba8495ca",
        "5f58fccf8b7f3addba609ba66c3a362f238a68bcb5736d8b30bcdd350b0eff68",
    ),
    "flex-fixed-1-fixed": (
        "1cc028d17e455cc8b7fd8d9a6161d273f2300941340cb7e84504c8de92d73470",
        "58b042a2cebaad3b110b34579539cdc370e2d9027a56649aa21fcef758eb25b8",
        "2fc38ce9117d38e073619f9af6dde8a0d32d53f08ae2bb804252876c8268d63f",
    ),
    "flex-fixed-2-flexible": (
        "82c1d5e41a6f1053e857546e1ea3abbfdef0f633a177733b9b32fef01c8b1f85",
        "bc9c28d3770cccf509c4ee00309f237a6b15e60250ea8ca28df1df44e1a53f85",
        "6eede5fca5c68cb67c9e65ef3528ebe0359a4bc231cd42d6504651f3a90eaa2e",
    ),
    "flex-fixed-2-fixed": (
        "f22040d6e0bb4361c4817f5583d184cca6f3f5522f0aedb22866fe0eee751cdb",
        "3279c6e31fc9370b010ed1cf39bf6e3c3660c8f5c092bfc87f1a69755a854a79",
        "c054f76d1162123a7621f62ba1ae0bfbc9dda78d6369db28b8a6bdc76787dc8f",
    ),
    "flex-fixed-3-flexible": (
        "aa7faa14af20d790bef3341c100fae16b191d1ad93940e725994db4ad1fb362a",
        "64e4bf0801e22dad6432aa3988914475f0485e7e38f6cfc92159a8268f0b3383",
        "1668782bb1258d4d9cdcaeb82527d3f4553fb39f927db165fb29f682c9d56db0",
    ),
    "flex-fixed-3-fixed": (
        "81e1069e3176776ecf2a408e85e6d8b6ab0553a159cca5e6c4b763ff45296ee6",
        "d03ebb2655b0b5294e83bd1f213f08ebfe4bb6d863a355d395d744ba4daeb6c2",
        "ce5017e6e4a2e7d97e777f6c7d72278ffa9243f3249fb1be1e300da18a6d56ec",
    ),
    "tiny-mixed-uniform-links": (
        "16783cd2e6815e2fd9d173ba41c66c1d5728ff6d92818a0b385e4dde37d99f8d",
        "2a2efb8f5d2c01adf61fdba67906db75464c51db1bb675dde38ab5741bc2759d",
        "30db99eb34c3fce60dfa8d63aee4ea17fef306c2bb68a2bb52da6e0e659c6b10",
    ),
    "tiny-mixed-binding-links": (
        "8169829b377579edc930fe54321cbc4be56e3cb9d47b44670c78ab470384703f",
        "e5385b9699c55d37f104482d47a45d33a9934431179a916b05f38bc9aff58829",
        "dbf5b6b45b60db4b13d0867788011d0865aa407878e48ce573b943a8131a06bc",
    ),
}


def _array_bytes(a) -> bytes:
    if a is None:
        return b"None"
    a = np.asarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _exact_digests(s, mode):
    lps = hashlib.sha256()
    solve = exact.simplex_solve

    def recording_solve(*args):
        for a in args:
            lps.update(_array_bytes(a))
        return solve(*args)

    with mock.patch.object(exact, "simplex_solve", recording_solve):
        res = solve_exact(s, equipment_groups=_groups(s, mode))
    return _plan_digest(res), lps.hexdigest(), _result_digest(res)


def _plan_digest(res) -> str:
    """sha256 of the objective, then of the plan arrays if any."""
    out = hashlib.sha256(repr(res.objective).encode())
    if res.plan is not None:
        for f in dataclasses.fields(res.plan):
            out.update(f.name.encode() + _array_bytes(getattr(res.plan, f.name)))
    return out.hexdigest()


def _result_digest(res) -> str:
    """sha256 of the ExactResult fields, then of the plan arrays if any."""
    out = hashlib.sha256()
    fields = dataclasses.astuple(dataclasses.replace(res, plan=None))
    out.update(repr(fields).encode())
    if res.plan is not None:
        for f in dataclasses.fields(res.plan):
            out.update(f.name.encode() + _array_bytes(getattr(res.plan, f.name)))
    return out.hexdigest()


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_exact_engine_bytes_pinned(case):
    build, mode = PINNED_CASES[case]
    assert _exact_digests(build(), mode) == PINNED_DIGESTS[case]


# sha256 of what an inner-LP reformulation must not move: the objective to 12
# digits, the plan's locations and payloads, lp_solves, bound_prunes and
# assignments_visited.  Unlike PINNED_DIGESTS, flows, LP bytes and
# simplex_iterations are left out, so this table survives a change of LP form
OUTCOME_DIGESTS = {
    "flex-fixed-1-flexible": "40744e0190eb7fea6d7bd18a213d37fd655fb5b6948e886d4ed163d251a748f8",
    "flex-fixed-1-fixed": "37d37fa7d448255898c3b81f42e1f868efd10187eed02cccc6bcbe8cd1e40e67",
    "flex-fixed-2-flexible": "58b8b18d99a4b28e568ca07f4caf44cb7139a1379b30b04a5ae53c9e34ef03dc",
    "flex-fixed-2-fixed": "96a222705e6633d65fd93f2a601f2b9ba8336237b80734e82bda2ba25e5f389a",
    "flex-fixed-3-flexible": "fa04616a2e4a11f0f3e5fbb9445d0ac29891beee111579e54bd767dfb8b9b26d",
    "flex-fixed-3-fixed": "5f3eac245b0583a83a32ff455d9372d485f99af9346cb529fa12af7612af5577",
    "tiny-mixed-uniform-links": "00e5ba19e37fa0569f62e455a8bdfbb4d0d94d713dd5b9eb093a30cfb40623dd",
    "tiny-mixed-binding-links": "00e5ba19e37fa0569f62e455a8bdfbb4d0d94d713dd5b9eb093a30cfb40623dd",
}


def _outcome_digest(res) -> str:
    out = hashlib.sha256(repr(round(res.objective, 12)).encode())
    out.update(_array_bytes(res.plan.locations) + _array_bytes(res.plan.payloads))
    out.update(repr((res.lp_solves, res.bound_prunes, res.assignments_visited)).encode())
    return out.hexdigest()


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_exact_engine_outcome_pinned(case):
    build, mode = PINNED_CASES[case]
    s = build()
    assert _outcome_digest(solve_exact(s, equipment_groups=_groups(s, mode))) == OUTCOME_DIGESTS[case]


TRUNCATED_CASES = {
    "tiny-mixed": (tiny_mixed, "flexible"),
    "flex-fixed-1-3-flexible": (lambda: flex_fixed_scenario(1, 3), "flexible"),
    "flex-fixed-1-3-fixed": (lambda: flex_fixed_scenario(1, 3), "fixed"),
}

# _result_digest of runs cut off after max_assignments assignments reached
# one by one: tiny-mixed, truncated at every cut, and flex-fixed-1-3,
# truncated at 7 and 10 (fixed) and 40 (flexible, after pruned subtrees) and
# complete at 30 and 100 (fixed) and 100 (flexible).  All but the cut at 1,
# which solves no LP, were re-pinned when the inner LP derived each sink
# transfer from its flow balance: simplex_iterations drops and the flows move,
# while the objective (to 12 digits), lp_solves, bound_prunes,
# assignments_visited, proven_optimal, locations and payloads stay as they were
TRUNCATED_DIGESTS = {
    ("tiny-mixed", 1): "c584ea106ada93abc6feb8cfe59846ae4b4cf7b4e4af4c1e2c942a4ca42c66e2",
    ("tiny-mixed", 5): "5d1d3c7ce5e124fd7bf0619701b9fc5b1ee990a8bee2556992cfa31021d90591",
    ("tiny-mixed", 37): "c9d92048a2fc2ad7f5c0041b11c9711eef4fe380e19712a052bf5b2fbd51fc77",
    ("tiny-mixed", 200): "4f0cc930532551718a9d281669cfc1b666f7c592f9f0980e79124bdf135af8ad",
    ("flex-fixed-1-3-flexible", 40): "9080edf970fb3c112d8a78302f98dcc64dacb22290e8fee19c421d85db034924",
    ("flex-fixed-1-3-flexible", 100): "40287d398dec215311e3a977b03628c02b97ef76659ad841455564d6a08c2bb7",
    ("flex-fixed-1-3-fixed", 7): "c821f8520328b1ee78c1b731fd466865224e35bb10a001ca6934f2919944ad72",
    ("flex-fixed-1-3-fixed", 10): "17dfce641488c2297e200e7a9c51e9eea1cd0bfbb29d054bcdab17c15958dce9",
    ("flex-fixed-1-3-fixed", 30): "88146014b74aca204e25d95091052012d61f237f2c0b72c098b38b5ae85e9902",
    ("flex-fixed-1-3-fixed", 100): "88146014b74aca204e25d95091052012d61f237f2c0b72c098b38b5ae85e9902",
}


@pytest.mark.parametrize("case, cutoff", list(TRUNCATED_DIGESTS))
def test_truncated_runs_pinned(case, cutoff):
    build, mode = TRUNCATED_CASES[case]
    s = build()
    res = solve_exact(s, EnumerationLimits(max_assignments=cutoff), equipment_groups=_groups(s, mode))
    assert _result_digest(res) == TRUNCATED_DIGESTS[case, cutoff]


# -- every inner LP, not only the winning one ---------------------------------------

# tiny_mixed without a sink link at some location, so relay UAV-epochs there
# keep their flow equalities: at the depot, which serves no zone, and at both
# serving locations, where every unit of data must hop to a UAV at the depot
ZERO_SINK_CASES = {
    "tiny-mixed-no-depot-sink": lambda: tiny_mixed(link_sink_entries=[(0, 0.0)]),
    "tiny-mixed-relayed-sink": lambda: tiny_mixed(link_sink_entries=[(1, 0.0), (2, 0.0)]),
}

INNER_LP_CASES = [
    *(
        pytest.param(lambda seed=seed, uavs=uavs: flex_fixed_scenario(seed, uavs), mode,
                     id=f"flex-fixed-{seed}-{uavs}-{mode}")
        for seed in (1, 2, 3)
        for uavs in (2, 4, 6)
        for mode in ("flexible", "fixed")
    ),
    *(pytest.param(lambda seed=seed: tiny_instance(seed), "flexible", id=f"tiny-{seed}") for seed in range(1, 21)),
    *(pytest.param(build, "flexible", id=name) for name, build in ZERO_SINK_CASES.items()),
]


def _recorded_calls(s, mode, name):
    """(arguments, result) of every call solve_exact makes to exact.<name>."""
    calls = []
    wrapped = getattr(exact, name)

    def recording(*args):
        out = wrapped(*args)
        calls.append((args, out))
        return out

    with mock.patch.object(exact, name, recording):
        solve_exact(s, EnumerationLimits(size_guard=128), equipment_groups=_groups(s, mode))
    return calls


@pytest.mark.parametrize("build, mode", INNER_LP_CASES)
def test_highs_agrees_on_every_inner_lp(build, mode):
    """HiGHS reaches the bundled simplex's optimum on every (c, a_ub, b_ub,
    a_eq, b_eq) solve_exact hands it.  Skipped without scipy."""
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    calls = _recorded_calls(build(), mode, "simplex_solve")
    assert calls
    for (c, a_ub, b_ub, a_eq, b_eq), res in calls:
        ref = linprog(-c, a_ub, b_ub, a_eq, b_eq, method="highs")  # linprog minimizes, x >= 0
        assert ref.status == 0
        assert abs(-ref.fun - res.value) <= 1e-9


@pytest.mark.parametrize(
    "build, mode",
    INNER_LP_CASES
    + [
        pytest.param(tiny_mixed, "flexible", id="tiny-mixed-uniform-links"),
        pytest.param(lambda: tiny_mixed(**BINDING_LINKS), "flexible", id="tiny-mixed-binding-links"),
    ],
)
def test_every_inner_lp_is_a_plan_of_its_gamma(build, mode):
    """The flows of every inner LP solved, with its assignment's configs,
    make a feasible plan whose evaluator objective is the LP's gamma."""
    s = build()
    calls = _recorded_calls(s, mode, "_inner_lp")
    assert calls
    for (_, assignment), (gamma, flows, _) in calls:
        plan = exact._assignment_plan(s, assignment, flows)
        assert check_feasibility(s, plan).ok
        assert abs(satisfaction(s, plan).objective - gamma) <= 1e-9


def _equality_rows(s, mode):
    """The equality-row count of every LP solve_exact hands the simplex."""
    return [0 if args[3] is None else len(args[3]) for args, _ in _recorded_calls(s, mode, "simplex_solve")]


class TestFlowRows:
    """Sink transfers are derived from each relay UAV-epoch's flow balance,
    so only UAV-epochs at a location without a sink link hold an equality."""

    @pytest.mark.parametrize("case", list(PINNED_CASES))
    def test_no_equality_rows_where_every_location_has_a_sink_link(self, case):
        build, mode = PINNED_CASES[case]
        rows = _equality_rows(build(), mode)
        assert rows and not any(rows)

    @pytest.mark.parametrize("case", list(ZERO_SINK_CASES))
    def test_equality_rows_kept_without_a_sink_link(self, case):
        assert any(_equality_rows(ZERO_SINK_CASES[case](), "flexible"))

    @pytest.mark.parametrize("case", list(ZERO_SINK_CASES))
    def test_every_plan_closes_flow_and_sink(self, case):
        s = ZERO_SINK_CASES[case]()
        for (_, assignment), (_, flows, _) in _recorded_calls(s, "flexible", "_inner_lp"):
            plan = exact._assignment_plan(s, assignment, flows)
            assert check_feasibility(s, plan, tol=1e-9).ok
            assert not plan.sink_transfers[s.link_sink_mb[plan.locations] == 0].any()

    @pytest.mark.parametrize("case", list(ZERO_SINK_CASES))
    def test_highs_agrees_on_the_exported_model(self, case):
        """Skipped without scipy."""
        pytest.importorskip("scipy")
        from milp_highs import solve_highs
        from uavplan.milp import build_milp, export_lp, import_solution, parse_lp

        s = ZERO_SINK_CASES[case]()
        res = solve_exact(s)
        built = build_milp(s)
        status, val, sol = solve_highs(parse_lp(export_lp(built)))
        assert status == "optimal"
        assert val == pytest.approx(res.objective, abs=1e-6)
        assert check_feasibility(s, import_solution(built, sol), tol=1e-4).ok
        assert check_feasibility(s, res.plan, tol=1e-9).ok
