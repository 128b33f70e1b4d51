import dataclasses
import hashlib
import itertools
import zlib
from unittest import mock

import numpy as np
import pytest

from uavplan import exact
from uavplan.cli import _fixed_equipment
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
from uavplan.scenario import Location, PayloadItem, UavSpec, make_scenario
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
    plus the time-budget term per window and zone."""
    service = s.service_mission_ids
    if not service:
        return 1.0
    K, M, Z = s.epochs, s.num_missions, s.num_zones

    def equipped(cfg, k, m):
        return all(p in cfg.aboard[k] for p in s.missions[m].requires)

    cap = np.zeros((K, M, Z))
    for cfg in assignment:
        for k in range(K):
            for m in service:
                if equipped(cfg, k, m):
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
                return equipped(cfg, h, m) and q > 0 and s.demand[h, m, z] > 0

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
        return _fixed_equipment(s)[0]
    return [(s.num_uavs, frozenset(), frozenset())]


def _batched_bound(s, picks, stack):
    """The bound on the drawn (pool, index) picks, read from one batch over
    every config of the last pick's pool (stacked in stack) after the
    running record of the other picks."""
    prefix = sum((pool[i] for pool, i in picks[:-1]), _NO_CONFIGS)
    return float(_objective_upper_bound(s, prefix + stack)[picks[-1][1]])


class TestHotPathEquivalence:
    @pytest.mark.parametrize("mode", ["flexible", "fixed"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_matches_loop_reference(self, seed, mode):
        s = flex_fixed_scenario(seed, 4)
        pools = [(count, enumerate_configs(s, on, off)) for count, on, off in _groups(s, mode)]
        stack = _Capability.stack(pools[-1][1])
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
        stack = _Capability.stack(cfgs)
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
         (lambda: flex_fixed_scenario(1, 3), "fixed")],
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
        # every visited assignment that carries all deliveries reaches either
        # the bound or an LP
        pools = [(count, enumerate_configs(s, on, off)) for count, on, off in groups]
        combos = itertools.product(
            *(itertools.combinations_with_replacement(pool, count) for count, pool in pools)
        )
        wanted = set(s.deliverable_ids)
        covering = sum(
            1 for combo in combos if wanted <= set().union(*(c.delivered for picks in combo for c in picks))
        )
        assert res.bound_prunes + res.lp_solves == covering
        unpruned = solve_exact(s, equipment_groups=groups, prune_bound=False)
        assert (unpruned.bound_prunes, unpruned.lp_solves) == (0, covering)
        assert unpruned.objective == res.objective


def _bounds_and_gammas(s, groups):
    """(bound, inner-LP gamma) for every covering assignment, each solved
    once by an unpruned search."""
    pairs = []
    inner_lp = exact._inner_lp

    def recording_lp(s_, assignment):
        out = inner_lp(s_, assignment)
        offer = sum(assignment[:-1], _NO_CONFIGS) + _Capability.stack(assignment[-1:])
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
        """solve_exact bounds the last pick's choices in one batch per prefix;
        a stand-in bound that prunes a pseudo-random half of the assignments,
        by the bytes of each one's record, shows that each one is judged by
        its own entry."""
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
        # every assignment in search order; the first meets no incumbent
        pools = [(count, enumerate_configs(s, on, off)) for count, on, off in _groups(s, mode)]
        combos = itertools.product(
            *(itertools.combinations_with_replacement(pool, count) for count, pool in pools)
        )
        first, *rest = [[c for picks in combo for c in picks] for combo in combos]
        records = (sum(cfgs[:-1], _NO_CONFIGS) + _Capability.stack(cfgs[-1:]) for cfgs in rest)
        assert solved == [first] + [cfgs for cfgs, offer in zip(rest, records) if keep(offer, 0)]
        assert 0 < res.bound_prunes < len(rest)


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

# sha256 of every (c, a_ub, b_ub, a_eq, b_eq) solve_exact hands the simplex,
# then of the ExactResult fields and plan arrays
PINNED_DIGESTS = {
    "flex-fixed-1-flexible": (
        "ca54ed3ad0dda8e4577fe464750fa62831ffb3e1238251328ffdf491e0e9b7dd",
        "37fa1f8b316d3006d72b89a027eacb3b7d3a7110f23106243c7c01013b23f661",
    ),
    "flex-fixed-1-fixed": (
        "b666108b39ceb6d70cd87daa3a68eb0f11671472279c30674f4d014aa417327b",
        "36f3f0803327010830dd17899bf6b0a9a6b8f25f28871624500e0752bcc00b3d",
    ),
    "flex-fixed-2-flexible": (
        "34ce5c35ed41a2a984747772270eede78eb1a55c33468dbcb367b28feacfd081",
        "2851c63d15f2e6cb79774cc3251c2ccffdf5857b35234719d542455a144f2875",
    ),
    "flex-fixed-2-fixed": (
        "9665c9a9bfede17a8d070bb04c35316c3b6106bd466ddc2f72e12843f613101d",
        "1757259c24810c03f640139807e3f56815fb72161af61a4ce72b9a20ef1b120c",
    ),
    "flex-fixed-3-flexible": (
        "9891c73c90dfb770481852ef574412cc86babf1c2cca202dd771284f9c3f0271",
        "5db499a8415ffdc68ca6beed478433731c751dc8721ffa717f94f1459b175ffe",
    ),
    "flex-fixed-3-fixed": (
        "98821457632c95ae1902490addf653bfa72c032c712525445420dc6cb7164ed0",
        "64bc7c7bfe5b12ade802a1f5dad6ec1e79620243627ba52a07eddf71e135195a",
    ),
    "tiny-mixed-uniform-links": (
        "1395803a41664a10301ee5bb375dfa489873fa38af1bcc6c4244a5571f73d7c5",
        "64fab4232c18976dab928e0294a5d74cc1c098011d37fb0317ad85c5847f8460",
    ),
    "tiny-mixed-binding-links": (
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
    return lps.hexdigest(), _result_digest(res)


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

# _result_digest of runs cut off after max_assignments assignments, computed
# when the search still walked itertools.product; at 100 the fixed-mode run
# (64 assignments) completes
TRUNCATED_DIGESTS = {
    ("tiny-mixed", 1): "c584ea106ada93abc6feb8cfe59846ae4b4cf7b4e4af4c1e2c942a4ca42c66e2",
    ("tiny-mixed", 5): "cb4d7eb725377d2258aae75affcc53bf106229bab9777dfe777aec328d41f3e3",
    ("tiny-mixed", 37): "c87e34e9213d2184a4c968a3be0a30437d8c86d0c02d1c7f364b9c066d4be56f",
    ("tiny-mixed", 200): "699fbf3a8496f77174362b4d322efe103f6eab8b994d03bfacfd11a1579eae39",
    ("flex-fixed-1-3-flexible", 100): "2048344b8991165ae926b1bfdf71df905195b1725bd6c358b8039bbeb728cd0f",
    ("flex-fixed-1-3-fixed", 7): "01911087f4218fe378f32e59eedc9ae6030c3d1c0d2f5ece0af1d7e7422ec710",
    ("flex-fixed-1-3-fixed", 30): "38affbdff517a99973752119b5955c8fed5b37645ab9c430cfbf6d443c2db038",
    ("flex-fixed-1-3-fixed", 100): "5ab8b5b82c1b63a612460febac172beb75d4a75898689f44fd435614accd2e30",
}


@pytest.mark.parametrize("case, cutoff", list(TRUNCATED_DIGESTS))
def test_truncated_runs_pinned(case, cutoff):
    build, mode = TRUNCATED_CASES[case]
    s = build()
    res = solve_exact(s, EnumerationLimits(max_assignments=cutoff), equipment_groups=_groups(s, mode))
    assert _result_digest(res) == TRUNCATED_DIGESTS[case, cutoff]
