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
        """Equipped, and the data its work makes can leave the UAV: the
        inner LP's flow rows hold such work at zero without the relay
        equipment aboard."""
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

# sha256 of the objective and plan arrays, computed before the bound credited
# only data that can leave the UAV and pruned whole subtrees, and unchanged
# by them; then of every (c, a_ub, b_ub, a_eq, b_eq) solve_exact hands the
# simplex, and of the ExactResult fields and plan arrays, re-pinned then:
# the tighter bound skips LPs (a subsequence of those solved before), so
# lp_solves, simplex_iterations and bound_prunes changed
PINNED_DIGESTS = {
    "flex-fixed-1-flexible": (
        "e6f5ff24e3a12d85d9c8d291c720611c9c8a584ccfc1c92112145b679c69cb70",
        "5020c768eda3f773fc364812a55c63eb08da7207abe617217136f97d37d8aff0",
        "110b9a6cf5ae445c9e9e0e8f11eebba6d240b87f6f87d99e8fa2d5d5b74d3aa0",
    ),
    "flex-fixed-1-fixed": (
        "8e82594863132dc976ed1e904fc2173c8817f6d8edebcccb544dd591e31cbf5f",
        "5581d5b0e5589716750a0598387e74a12e2b2a787f093899db0b509a600f1c13",
        "d05e3f8fa8a172d64ccaf6e83c6788cb49d3a6b15099d03c9cb4224f5e61131f",
    ),
    "flex-fixed-2-flexible": (
        "130f2f5f6a3663a184028b0e617c5b16e9d144f720eaf01d345689b9785358ad",
        "4f73eec7faadaa7492a0f8b8207bc0b43ffa4f20e1681d427540cb6e78e7f8bf",
        "33b88f1a130d0ec96153f21373901d0a780f9a46a5eeeeee7630a8ebe5e2956a",
    ),
    "flex-fixed-2-fixed": (
        "0ae53ccc4c6c398e9797dd3384804b8609bdbe8333f90f307eca27b25873708f",
        "ffabab7ce8eb82259a02f71effaf9daf805501781e0392ff9ec861ad2edab5dd",
        "9daa39cd7e8c52b6bacfc2141336b1f9a687dcc454f90313d8f804937f537c6b",
    ),
    "flex-fixed-3-flexible": (
        "9b9a0129131f0b363d25f00d449841db9690c6ebe87c9eeb653bda72c84eb54d",
        "902ba9f5ce5e41c1ec57abf25b437420b2e0416296ec09d5ad7e99d855188df7",
        "dc28b8e1f50c2450913ff9fb6bd91ef867495fe7b7b662108e45dceee8e5ce5d",
    ),
    "flex-fixed-3-fixed": (
        "cdf69906379f8f2414bdb760e2c351394f15435ab99eb1cfa0d1d309c21d82cc",
        "7cbcd92061b727c457ca57d6de94844b2d52d183dba68f27978a54e38d6d3625",
        "7fbac5bc0ed4143c3390ca969827d185320bbe056bc65a884a2b128c8803ed2d",
    ),
    "tiny-mixed-uniform-links": (
        "fac353aa1801ae2e73412aa7741254772129c57d500035bb4f37cea8fb458772",
        "1395803a41664a10301ee5bb375dfa489873fa38af1bcc6c4244a5571f73d7c5",
        "64fab4232c18976dab928e0294a5d74cc1c098011d37fb0317ad85c5847f8460",
    ),
    "tiny-mixed-binding-links": (
        "82aa3b718ff3fa7811bb419e7a243b2a207975d65979ca44cc2bbf6fa0be0209",
        "3408c2e27b465cca499d3b695b04d836c54f1d1fa2fc6645302390b013d584bf",
        "ff83f68227b7bc9f1b98ef5aa8013fad2305e218c6baa88b79b95a100915b1e0",
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


TRUNCATED_CASES = {
    "tiny-mixed": (tiny_mixed, "flexible"),
    "flex-fixed-1-3-flexible": (lambda: flex_fixed_scenario(1, 3), "flexible"),
    "flex-fixed-1-3-fixed": (lambda: flex_fixed_scenario(1, 3), "fixed"),
}

# _result_digest of runs cut off after max_assignments assignments reached
# one by one; the tiny-mixed ones are unchanged since the search walked
# itertools.product.  The flex-fixed ones were re-pinned when the bound came
# to credit only data that can leave the UAV and to prune whole subtrees:
# the cut at 7 keeps its plan but solves 2 LPs instead of 6, and the runs cut
# at 30 (fixed) and 100 (flexible) now complete; the cuts at 40 (flexible,
# after pruned subtrees) and 10 (fixed, inside a multi-group run) were
# added to keep truncated runs of both modes pinned
TRUNCATED_DIGESTS = {
    ("tiny-mixed", 1): "c584ea106ada93abc6feb8cfe59846ae4b4cf7b4e4af4c1e2c942a4ca42c66e2",
    ("tiny-mixed", 5): "cb4d7eb725377d2258aae75affcc53bf106229bab9777dfe777aec328d41f3e3",
    ("tiny-mixed", 37): "c87e34e9213d2184a4c968a3be0a30437d8c86d0c02d1c7f364b9c066d4be56f",
    ("tiny-mixed", 200): "699fbf3a8496f77174362b4d322efe103f6eab8b994d03bfacfd11a1579eae39",
    ("flex-fixed-1-3-flexible", 40): "12961bb1f85094e143b687ca84bcb7270ae1bbec65e9338d4d88d3e5d403c251",
    ("flex-fixed-1-3-flexible", 100): "0d493939ad3ae2db9ebca16168d791706cebb2a4c7aba714cc6026a29283b9de",
    ("flex-fixed-1-3-fixed", 7): "016320dc04aa9ec30e4a5608f594238d0dd90f2ee3afe5d54694dc957c480663",
    ("flex-fixed-1-3-fixed", 10): "89b76da27d7f5970980be789ebb4711b8076abf5d472f21fe431b037e19123f6",
    ("flex-fixed-1-3-fixed", 30): "1670b78cb540e9c04b8108822f4d65c22c91aa1186911c237a3aaee1b0a9f22b",
    ("flex-fixed-1-3-fixed", 100): "1670b78cb540e9c04b8108822f4d65c22c91aa1186911c237a3aaee1b0a9f22b",
}


@pytest.mark.parametrize("case, cutoff", list(TRUNCATED_DIGESTS))
def test_truncated_runs_pinned(case, cutoff):
    build, mode = TRUNCATED_CASES[case]
    s = build()
    res = solve_exact(s, EnumerationLimits(max_assignments=cutoff), equipment_groups=_groups(s, mode))
    assert _result_digest(res) == TRUNCATED_DIGESTS[case, cutoff]
