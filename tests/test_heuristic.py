import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from uavplan.evaluator import check_feasibility, plan_metrics, satisfaction, serialize_plan
from uavplan.exact import solve_exact
from uavplan import heuristic
from uavplan.heuristic import (
    PRESETS,
    STAT_KEYS,
    HeuristicConfig,
    InsertionError,
    RouteGraphError,
    Stop,
    _allocate_service,
    _epoch_walk,
    _latest_services,
    _pack_weight,
    _Schedule,
    _simulate,
    _SolveContext,
    arc_service_weights,
    build_route_graph,
    insertion_solve,
    phi1,
    phi2,
    tours_to_plan,
)
from uavplan.scenario import Location, Mission, PayloadItem, UavSpec, Zone, fixed_equipment, make_scenario
from uavplan.synth import Dims, generate_preset, generate_synthetic

from scenarios import flex_fixed_scenario, tiny_mixed

PLAN_FIELDS = ("locations", "payloads", "mission_alloc", "relay_frac", "transfers", "sink_transfers")


def line_scenario(targets, windows, weights=None, epochs=16, zones=(), demand=(), extra_locs=(),
                  vmax=2.5, spacing=2.0, missions=False):
    """Depot at the origin plus a line of locations `spacing` km apart."""
    n_line = max([t for t in targets] + [2]) + 1
    locs = [Location(0, 0.0, 0.0, True)]
    for i in range(1, n_line):
        locs.append(Location(i, spacing * i, 0.0, False))
    for x, y in extra_locs:
        locs.append(Location(len(locs), x, y, False))
    payloads = []
    mission_list = []
    if missions:
        payloads = [PayloadItem(0, 1.0, "radio"), PayloadItem(1, 1.0, "camera")]
        mission_list = [
            Mission(0, "coverage", (0,), 10.0),
            Mission(1, "monitoring", (1,), 5.0),
            Mission(2, "relay", (0,), 0.0),
        ]
    for i, (t, w) in enumerate(zip(targets, windows)):
        weight = 0.2 if weights is None else weights[i]
        payloads.append(
            PayloadItem(len(payloads), weight, f"pack-{i}", True, t, w)
        )
    return make_scenario(
        locations=locs,
        zones=list(zones),
        uav=UavSpec(4.0, 2.5, 200.0, vmax, 2),
        payloads=payloads,
        missions=mission_list,
        epochs=epochs,
        horizon=max(1, epochs // 2),
        demand_entries=list(demand),
    )


class TestRouteGraph:
    def test_collinear_alternatives(self):
        """A(0,0) depot, B(1,0), C(2,0), V=2.5: exactly the direct route and
        the detour through B connect A and C."""
        s = line_scenario(targets=[2], windows=[(1, 10)], spacing=1.0)
        g = build_route_graph(s)
        routes = g.between(0, 2)
        assert len(routes) == 2
        assert {r.seq for r in routes} == {(0, 2), (0, 1, 2)}

    def test_two_times_cap_is_inclusive(self):
        """A detour of exactly twice the shortest length stays in the set."""
        s = line_scenario(
            targets=[1], windows=[(1, 10)], spacing=2.0, vmax=2.1,
            extra_locs=[(1.0, np.sqrt(3.0))],
        )
        g = build_route_graph(s)
        seqs = {r.seq for r in g.between(0, 1)}
        assert (0, 3, 1) in seqs  # 2 + 2 = 4 = exactly 2 x shortest(2)

    def test_single_delivery_location(self):
        s = line_scenario(targets=[1], windows=[(1, 10)])
        g = build_route_graph(s)
        assert len(g.nodes) == 2
        assert g.between(0, 1) and g.between(1, 0)

    def test_cap_invariant_on_generated_graphs(self):
        for seed in (1, 2, 3):
            s = generate_synthetic(seed, Dims(8, 3, 2, 3, 12))
            g = build_route_graph(s)
            for (a, b), routes in g.routes.items():
                if a == b:
                    continue
                shortest = g.path_km[a, b]
                for r in routes:
                    assert r.length_km <= 2 * shortest + 1e-6
                    assert len(r.anchors) <= 2

    def test_multi_depot_rejected(self):
        s = tiny_mixed()
        import dataclasses

        locs = list(s.locations)
        locs[1] = dataclasses.replace(locs[1], is_depot=True)
        s2 = dataclasses.replace(s, locations=tuple(locs))
        with pytest.raises(RouteGraphError):
            build_route_graph(s2)

    def test_unreachable_delivery_rejected(self):
        s = line_scenario(targets=[2], windows=[(1, 10)], spacing=3.0, vmax=2.5)
        with pytest.raises(RouteGraphError):
            build_route_graph(s)


class TestArcWeights:
    def zone_scenario(self, q, demand_level):
        zones = [Zone(0, {1: {"coverage": q, "monitoring": q}})]
        demand = [(k, "coverage", 0, demand_level) for k in range(16)]
        demand += [(k, "monitoring", 0, demand_level) for k in range(16)]
        return line_scenario(
            targets=[2], windows=[(1, 10)], zones=zones, demand=demand, missions=True
        )

    def test_no_zone_route_scores_zero(self):
        s = self.zone_scenario(1.0, 1.0)
        g = build_route_graph(s)
        direct = g.between(0, 2)[0]
        # residual zero everywhere kills the value
        c, v = arc_service_weights(s, direct, np.zeros((s.num_missions, s.num_zones)))
        assert (c, v) == (0.0, 0.0)

    def test_min_of_quality_and_residual(self):
        """Quality 2 against residual 1 contributes min(2, 1) = 1 at the
        single wired waypoint (the normalizer is 1 here)."""
        s = self.zone_scenario(2.0, 1.0)
        g = build_route_graph(s)
        route = next(r for r in g.between(0, 2) if 1 in r.seq[1:])
        resid = s.demand.mean(axis=0)
        c, v = arc_service_weights(s, route, resid)
        assert c == pytest.approx(1.0)
        half = arc_service_weights(s, route, 0.5 * resid)
        assert half[0] == pytest.approx(0.5)

    def test_saturated_min_invariant_to_quality_scaling(self):
        s1 = self.zone_scenario(2.0, 1.0)
        s2 = self.zone_scenario(4.0, 1.0)
        g1, g2 = build_route_graph(s1), build_route_graph(s2)
        r1 = next(r for r in g1.between(0, 2) if 1 in r.seq[1:])
        r2 = next(r for r in g2.between(0, 2) if 1 in r.seq[1:])
        w1 = arc_service_weights(s1, r1, s1.demand.mean(axis=0))
        w2 = arc_service_weights(s2, r2, s2.demand.mean(axis=0))
        assert w1 == pytest.approx(w2)


class TestPhi:
    def test_alpha_zero_reduces_to_detour_time(self):
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 12)])
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)  # tour over the farther pack at location 2
        got = phi1(ctx, tour, 0, 1)
        assert got is not None
        cost, gg, gg2 = got
        base = tour.legs[0].hops
        assert cost == pytest.approx(gg.hops + gg2.hops - base)

    def test_zero_detour_costs_nothing(self):
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 12)])
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)
        cost, _, _ = phi1(ctx, tour, 0, 1)  # location 1 lies on the way to 2
        assert cost == pytest.approx(0.0)

    def test_collinear_insertion_costs_nothing_either_side(self):
        """A point on the travel axis adds no hops whether visited on the way
        out or on the way home."""
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 12)])
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)
        assert phi1(ctx, tour, 0, 1)[0] == pytest.approx(0.0)
        assert phi1(ctx, tour, 0, 2)[0] == pytest.approx(0.0)

    def test_hand_tabulated_costs(self):
        """Triangle fixture with the hop table written out by hand:

            depot (0,0), A (2,0), N (0,2), max step 2.5 km
            hops: depot-A = 1, depot-N = 1, A-N = 2 (via the depot)

        Inserting A into the tour over N costs 1 + 2 - 1 = 2 epochs at either
        position."""
        s = make_scenario(
            locations=[
                Location(0, 0.0, 0.0, True),
                Location(1, 2.0, 0.0, False),
                Location(2, 0.0, 2.0, False),
            ],
            zones=[],
            uav=UavSpec(4.0, 2.5, 200.0, 2.5, 2),
            payloads=[
                PayloadItem(0, 0.2, "pack-a", True, 1, (1, 12)),
                PayloadItem(1, 0.2, "pack-n", True, 2, (1, 12)),
            ],
            missions=[],
            epochs=16,
            horizon=8,
        )
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)  # tour over N
        assert phi1(ctx, tour, 0, 1)[0] == pytest.approx(2.0)
        assert phi1(ctx, tour, 0, 2)[0] == pytest.approx(2.0)

    def test_phi2_positive_for_shared_leg(self):
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 12)])
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)
        cost, _, _ = phi1(ctx, tour, 0, 1)
        savings = phi2(ctx, tour, 1, cost)
        assert savings == pytest.approx(2.0)  # direct service costs 2 epochs

    def test_phi2_negative_when_detour_exceeds_direct(self):
        """Visiting the north point from the axis tour costs a 2-hop detour
        while a dedicated tour reaches it in 1: negative savings."""
        s = make_scenario(
            locations=[
                Location(0, 0.0, 0.0, True),
                Location(1, 2.0, 0.0, False),
                Location(2, 0.0, 2.0, False),
            ],
            zones=[],
            uav=UavSpec(4.0, 2.5, 200.0, 2.5, 2),
            payloads=[
                PayloadItem(0, 0.2, "pack-a", True, 1, (1, 12)),
                PayloadItem(1, 0.2, "pack-n", True, 2, (1, 12)),
            ],
            missions=[],
            epochs=16,
            horizon=8,
        )
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 0)  # axis tour over A
        cost, _, _ = phi1(ctx, tour, 1, 1)
        assert cost == pytest.approx(2.0)
        savings = phi2(ctx, tour, 1, cost)
        assert savings == pytest.approx(1.0 - 2.0)
        assert savings < 0

    def test_phi2_on_segment_equals_depot_distance(self):
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 12)])
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        tour = _seed(ctx, 1)
        savings = phi2(ctx, tour, 1, 0.0)
        assert savings == pytest.approx(g.shortest_hops(0, 2))
        assert savings >= 0


def full_capacity_scenario(weights=(0.5,)):
    """Radio and camera at 1 kg each plus packs that fill the 2.5 kg
    capacity exactly, delivered two and one hops out."""
    zones = [Zone(0, {1: {"coverage": 1.0, "monitoring": 1.0}})]
    demand = [(k, "coverage", 0, 0.5) for k in range(2, 12)]
    return line_scenario(
        targets=[2, 1][: len(weights)], windows=[(2, 10)] * len(weights), weights=list(weights),
        zones=zones, demand=demand, missions=True,
    )


def _seed(ctx, payload_id):
    from uavplan.heuristic import _seed_tour

    return _seed_tour(ctx, payload_id)


class TestInsertion:
    def test_single_delivery_single_tour(self):
        s = line_scenario(targets=[2], windows=[(2, 10)])
        tours, plan = insertion_solve(s)
        assert len(tours) == 1
        assert check_feasibility(s, plan).ok

    def test_two_line_deliveries_merge(self):
        """The far stop seeds (earlier deadline); the near one rides along at
        zero detour with positive savings, so one tour serves both."""
        s = line_scenario(targets=[1, 2], windows=[(1, 12), (1, 10)])
        tours, plan = insertion_solve(s)
        assert len(tours) == 1
        assert {st.payload for st in tours[0].stops} == {0, 1}
        assert check_feasibility(s, plan).ok

    def test_all_deliveries_served(self):
        for seed in (1, 2, 3, 4):
            s = generate_synthetic(seed, Dims(8, 4, 3, 4, 14))
            tours, plan = insertion_solve(s)
            rep = check_feasibility(s, plan)
            assert rep.ok, rep.violations[:5]
            served = {st.payload for t in tours for st in t.stops}
            assert served == set(s.deliverable_ids)

    def test_deterministic(self):
        s = generate_synthetic(5, Dims(8, 4, 3, 4, 14))
        a = insertion_solve(s, HeuristicConfig.privilege_coverage())
        b = insertion_solve(s, HeuristicConfig.privilege_coverage())
        assert serialize_plan(a[1]) == serialize_plan(b[1])

    def test_alpha_zero_position_matches_pure_detour(self):
        s = generate_synthetic(7, Dims(6, 3, 2, 3, 14))
        g = build_route_graph(s)
        ctx = _SolveContext(s, g, HeuristicConfig.save_time())
        seed_pid = sorted(s.deliverable_ids)[0]
        tour = _seed(ctx, seed_pid)
        for pid in sorted(s.deliverable_ids)[1:]:
            best = None
            pure = None
            for pos in range(1, len(tour.stops) + 2):
                got = phi1(ctx, tour, pid, pos)
                if got is None:
                    continue
                if best is None or got[0] < best[0] - 1e-12:
                    best = (got[0], pos)
                target = s.payloads[pid].target
                nodes = tour.node_list(g.depot)
                detour = (
                    g.shortest_hops(nodes[pos - 1], target)
                    + g.shortest_hops(target, nodes[pos])
                    - tour.legs[pos - 1].hops
                )
                if pure is None or detour < pure[0] - 1e-12:
                    pure = (detour, pos)
            if best and pure:
                assert best[1] == pure[1]

    def test_unplaceable_delivery_reports_payload(self):
        s = line_scenario(targets=[2], windows=[(1, 1)])  # needs 2 hops by epoch 1
        with pytest.raises(InsertionError) as err:
            insertion_solve(s)
        assert err.value.payloads

    def test_fleet_capacity_overflow_reports_unserved(self):
        # one UAV, two tight disjoint windows that cannot share a tour or fleet slot
        s = line_scenario(targets=[1, 1], windows=[(1, 1), (3, 3)], weights=[1.4, 1.4], epochs=6)
        import dataclasses

        s = dataclasses.replace(s, uav=dataclasses.replace(s.uav, count=1))
        with pytest.raises(InsertionError):
            insertion_solve(s)

    def test_full_capacity_equipment_plus_blood(self):
        """Camera and radio at 1 kg each plus a 0.5 kg pack ride at exactly
        the 2.5 kg capacity."""
        s = full_capacity_scenario()
        tours, plan = insertion_solve(s)
        assert check_feasibility(s, plan).ok
        flying = plan.locations != 0
        w = s.payload_kg
        loads = (plan.payloads @ w)[flying]
        assert loads.max() == pytest.approx(2.5)

    def test_heavier_than_capacity_with_equipment_unplaceable(self):
        zones = [Zone(0, {1: {"coverage": 1.0, "monitoring": 1.0}})]
        s = line_scenario(
            targets=[2], windows=[(2, 10)], weights=[0.6], zones=zones,
            demand=[(3, "coverage", 0, 1.0)], missions=True,
        )
        with pytest.raises(InsertionError):
            insertion_solve(s)


class TestToursToPlan:
    def test_no_tours_idle_plan(self):
        s = line_scenario(targets=[1], windows=[(1, 10)])
        import dataclasses

        bare = dataclasses.replace(s, payloads=())
        plan = tours_to_plan(bare, [])
        assert check_feasibility(bare, plan).ok
        assert satisfaction(bare, plan).objective == 1.0

    def test_enroute_service_raises_sigma(self):
        zones = [Zone(0, {1: {"coverage": 1.0, "monitoring": 1.0}})]
        demand = [(k, "coverage", 0, 0.5) for k in range(2, 12)]
        s = line_scenario(
            targets=[2], windows=[(4, 10)], zones=zones, demand=demand, missions=True
        )
        tours, plan = insertion_solve(s)
        assert plan.mission_alloc.sum() > 0
        assert plan_metrics(s, plan)["served_fraction"]["coverage"] > 0


class TestEquipmentGroups:
    """Both engines take the fleet as (count, forced_on, forbidden) groups
    and refuse, through one shared check, groups that do not partition it."""

    ENGINES = {
        "insertion_solve": lambda s, groups: insertion_solve(s, equipment_groups=groups),
        "tours_to_plan": lambda s, groups: tours_to_plan(s, [], groups),
        "solve_exact": lambda s, groups: solve_exact(s, equipment_groups=groups),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "counts, message",
        [((1,), "must sum to the fleet size"), ((2, 3), "must sum to the fleet size"), ((5, -1), "nonnegative")],
    )
    def test_groups_must_partition_the_fleet(self, engine, counts, message):
        s = flex_fixed_scenario(1, 4)
        groups = [(n, frozenset({0}), frozenset()) for n in counts]
        with pytest.raises(ValueError, match=message):
            self.ENGINES[engine](s, groups)

    def test_default_is_one_group_with_all_equipment_on(self):
        """A delivery in forced_on is a pack, not equipment, so it changes nothing."""
        s = generate_preset("sf-small", 1)
        on = frozenset(s.equipment_ids) | {s.deliverable_ids[0]}
        runs = []
        for groups in (None, [(s.num_uavs, on, frozenset())]):
            tours, plan = insertion_solve(s, equipment_groups=groups)
            runs.append((
                [(t.uav, t.depart, t.stops, t.legs, t.service_epochs, t.return_epoch, t.energy_wh) for t in tours],
                [np.ascontiguousarray(getattr(plan, f)).tobytes() for f in PLAN_FIELDS],
            ))
        assert runs[0][0] and runs[0] == runs[1]


class TestPresets:
    def test_preset_configs(self):
        assert HeuristicConfig.save_time() == HeuristicConfig(0.0, 0.0)
        assert HeuristicConfig.privilege_coverage() == HeuristicConfig(1.0, 0.0)
        assert HeuristicConfig.privilege_monitoring() == HeuristicConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            HeuristicConfig(0.7, 0.5)

    @pytest.mark.parametrize("weights", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0)])
    def test_non_finite_weights_refused(self, weights):
        with pytest.raises(ValueError, match="weights must be"):
            HeuristicConfig(*weights)

    def test_energy_ordering_trend(self):
        """Ignoring travel time in favor of coverage or monitoring never
        makes the tours cheaper on average."""
        used = {"save-time": [], "coverage": [], "monitoring": []}
        from uavplan.evaluator import energy_used
        from uavplan.heuristic import PRESETS

        for seed in (21, 22, 23):
            s = generate_synthetic(seed, Dims(10, 6, 3, 5, 16))
            for name, cfg in PRESETS.items():
                _, plan = insertion_solve(s, cfg())
                used[name].append(energy_used(s, plan).sum())
        assert np.mean(used["save-time"]) <= np.mean(used["coverage"]) + 1e-9
        assert np.mean(used["save-time"]) <= np.mean(used["monitoring"]) + 1e-9


# -- reference implementations of the insertion hot path ---------------------------


def _allocate_service_loop(s, l, k, aboard, resid, collect):
    """Per-zone reference for _allocate_service: same pairs, same order, same
    arithmetic."""
    ridx = s.relay_index
    can_relay = ridx is not None and all(p in aboard for p in s.missions[ridx].requires)
    t_sink = float(s.link_sink_mb[l])
    budget = 1.0
    gen = 0.0
    pairs = []
    for m in s.service_mission_ids:
        if not all(p in aboard for p in s.missions[m].requires):
            continue
        rate = s.missions[m].mb_per_work
        if rate > 0 and (not can_relay or t_sink <= 0):
            continue
        for z in range(s.num_zones):
            q = s.quality[l, m, z]
            r = resid[k, m, z]
            if q > 0 and r > 1e-12:
                pairs.append((q * r, m, z, q, rate))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    for _, m, z, q, rate in pairs:
        if budget <= 1e-12:
            break
        per_mu = 1.0 + (q * rate / t_sink if rate > 0 else 0.0)
        alloc = min(budget / per_mu, resid[k, m, z] / q)
        if alloc <= 1e-12:
            continue
        resid[k, m, z] -= alloc * q
        budget -= alloc * per_mu
        gen += alloc * q * rate
        if collect is not None:
            collect.append((m, z, alloc))
    return gen


def _simulate_numpy_reference(s, equip_w, stops, legs, depart=None):
    """Reference for _simulate: its battery pass as it read the scenario's
    numpy arrays on every hop, before the per-route step records."""
    pack_w = _pack_weight(s, equip_w, stops)
    if pack_w is None:
        return None
    latest = _latest_services(s, stops, [leg.hops for leg in legs])
    if latest is None:
        return None
    m = len(stops)
    if depart is None:
        depart = latest[0] - legs[0].hops if m else 0
    elif depart < 0 or (m and depart > latest[0] - legs[0].hops):
        return None

    # forward pass: waits absorb early arrivals
    arrivals, services = [], []
    t = depart
    for i in range(m):
        arr = t + legs[i].hops
        svc = max(arr, s.payloads[stops[i].payload].window[0])
        if svc > latest[i]:
            return None
        arrivals.append(arr)
        services.append(svc)
        t = svc
    ret = t + legs[m].hops
    if ret > s.epochs - 1:
        return None

    # battery along the realized epoch walk, resetting at depot waypoints
    is_depot = s.is_depot
    gross = s.uav.empty_weight_kg + equip_w + pack_w
    E = s.uav.battery_capacity_wh
    battery = E
    lowest = E
    energy = 0.0
    loc = legs[0].seq[0] if legs else s.depot_ids[0]
    for i in range(m + 1):
        for j in range(legs[i].hops):
            nxt = legs[i].seq[j + 1]
            if is_depot[nxt]:
                battery = E
            else:
                step = s.energy_wh_per_kg[legs[i].seq[j], nxt] * gross
                battery -= step
                energy += step
                lowest = min(lowest, battery)
            loc = nxt
        if i < m:
            for _ in range(services[i] - arrivals[i]):
                if not is_depot[loc]:
                    step = s.energy_wh_per_kg[loc, loc] * gross
                    battery -= step
                    energy += step
                    lowest = min(lowest, battery)
    if lowest < -1e-9:
        return None
    return _Schedule(depart, services, ret, energy)


def _schedule_bits(sched):
    """Every _Schedule field with its type; floats as their exact bits."""
    if sched is None:
        return None
    fields = (sched.depart, *sched.services, sched.return_epoch, sched.energy_wh)
    return [(type(v), float(v).hex() if isinstance(v, float) else v) for v in fields]


def _fresh_leg_candidates(ctx, a, b):
    """leg_candidates scored from ctx.loc_value now, bypassing its cache."""
    cands = [(ctx.route_score(r), r) for r in ctx.graph.between(a, b)]
    cands.sort(key=lambda t: (t[0], t[1].length_km, t[1].seq))
    return cands


def _full_replay_residual(ctx, tours):
    """Reference for _project_residual: replay every tour from full demand."""
    s = ctx.s
    resid = s.demand.copy()
    aboard = frozenset(ctx.equip_ids)
    for tour in tours:
        sched = _simulate(s, ctx.equip_w, tour.stops, tour.legs)
        if sched is None:
            continue
        for k, l in _epoch_walk(s, tour, sched.depart, sched.services):
            _allocate_service_loop(s, l, k, aboard, resid, None)
    return resid


def _phi1_full_scan(ctx, tour, payload_id, position):
    """Reference for phi1: both leg lists scored, _simulate on every route
    pair in phi1's scan order, no pre-check and no pruning."""
    s = ctx.s
    target = s.payloads[payload_id].target
    nodes = tour.node_list(ctx.graph.depot)
    base = ctx.route_score(tour.legs[position - 1])
    first = ctx.leg_candidates(nodes[position - 1], target)
    second = ctx.leg_candidates(target, nodes[position])
    new_stops = tour.stops[:]
    new_stops.insert(position - 1, Stop(payload_id, target))
    best = None
    for f_g, g in first:
        for f_g2, g2 in second:
            legs = tour.legs[:]
            legs[position - 1 : position] = [g, g2]
            if _simulate(s, ctx.equip_w, new_stops, legs) is None:
                continue
            cost = f_g + f_g2 - base
            if best is None or cost < best[0] - 1e-12:
                best = (cost, g, g2)
    return best


def _over_capacity(ctx, stops):
    """_simulate's first check, which no choice of legs can pass."""
    w = ctx.s.payload_kg
    return ctx.equip_w + float(sum(w[st.payload] for st in stops)) > ctx.s.uav.payload_capacity_kg + 1e-12


def _solve_digest(s, cfg, equipment_groups=None):
    """sha256 of the plan arrays and tour legs, or of the refusal; with pinned
    equipment the tours' service epochs, return epochs and energy too."""
    h = hashlib.sha256()
    try:
        tours, plan = insertion_solve(s, cfg, equipment_groups=equipment_groups)
    except InsertionError as exc:
        h.update(repr((str(exc), exc.payloads)).encode())
        return h.hexdigest()
    for f in PLAN_FIELDS:
        h.update(np.ascontiguousarray(getattr(plan, f)).tobytes())
    h.update(repr([(t.uav, t.depart, [leg.seq for leg in t.legs]) for t in tours]).encode())
    if equipment_groups is not None:
        h.update(repr([(t.service_epochs, t.return_epoch, t.energy_wh) for t in tours]).encode())
    return h.hexdigest()


# insertion_solve on sf-large seeds 1-3 under each preset, before the
# route-pair-free pre-check was added
HEURISTIC_DIGESTS = {
    (1, "save-time"): "2ad13a2dd5547543d96068c6e01fe969065f199cf015461c0e203420c08d1054",
    (1, "coverage"): "50cd37a0b33edb98c625a02998fc5f7f272ab71291cc0aeb7756f4ee4088bb6a",
    (1, "monitoring"): "50cd37a0b33edb98c625a02998fc5f7f272ab71291cc0aeb7756f4ee4088bb6a",
    (2, "save-time"): "f658be67211405bc187c90c039c66606b797c87559dc0b2d554c16db1a69a8a0",
    (2, "coverage"): "51e8a2aa59a81273863d3dc802cd5382507b532dd931f0bf335c1c20dbb18abd",
    (2, "monitoring"): "51e8a2aa59a81273863d3dc802cd5382507b532dd931f0bf335c1c20dbb18abd",
    (3, "save-time"): "bfe9ea3d846079f956840b7ad4b6d5e4551c6e42a29dfdcbcb1aeed04f7e7367",
    (3, "coverage"): "6bcfbe7df7d2ba8b442c647cdfb0a44c1c6674e9b2a718544c65e391a1ad5c9b",
    (3, "monitoring"): "16056823ad883a10c1ab825288fbb930373c92ad52a2f01ca93a221014e1381c",
}

# the same runs with equipment_groups=fixed_equipment(s) (at the time, the
# per-UAV (forced_on, forbidden) pairs of the same split), pinned before the
# tour rules were merged into one implementation each; seed 2's coverage and
# monitoring runs are fleet-horizon refusals
FIXED_EQUIPMENT_DIGESTS = {
    (1, "save-time"): "472ddf0c72e2353eb0892fd61a5c8ba166a46a1b1b99139aa0c3a13b10f3a4a5",
    (1, "coverage"): "076bf712b926519024ec63fc8afbb771f0d458ae87ad7de618938f2596b66ba1",
    (1, "monitoring"): "076bf712b926519024ec63fc8afbb771f0d458ae87ad7de618938f2596b66ba1",
    (2, "save-time"): "50b657b6a908b8eb4acaff83fcb27c45a4b8ec4190a7ad62a98604fb8d764d49",
    (2, "coverage"): "51e8a2aa59a81273863d3dc802cd5382507b532dd931f0bf335c1c20dbb18abd",
    (2, "monitoring"): "51e8a2aa59a81273863d3dc802cd5382507b532dd931f0bf335c1c20dbb18abd",
    (3, "save-time"): "e824551cb72ff81c814a013dfb4a1cbbdcf6497333c23dc5fee43d3699ac4d89",
    (3, "coverage"): "5d41a10f3b9e1178cf3ad647602809d29bc7cccfe33dd9818cadb904491b2761",
    (3, "monitoring"): "9aaae7ea8c79f583927a513664a7d69dd00044c447a42a1528e6e9b945e74146",
}


class TestHotPathEquivalence:
    @pytest.mark.parametrize("case", ["sf-large/1", "sf-large/2", "sf-large/3", "full-capacity", "tight-windows"])
    def test_precheck_matches_full_route_pair_scan(self, case, monkeypatch):
        """phi1 answers every insertion it sees as the reference does, and
        every insertion the candidate loop skips without phi1 fails
        _simulate's capacity check whatever its legs.  On tight-windows each
        stop is due the epoch its fewest hops reach it, and the last one can
        never be back in time."""
        if case == "full-capacity":
            s = full_capacity_scenario(weights=(0.25, 0.25))
        elif case == "tight-windows":
            s = line_scenario(targets=[1, 2, 3, 3], windows=[(1, 1), (2, 2), (3, 3), (15, 15)])
        else:
            s = generate_preset("sf-large", int(case.split("/")[1]))
        real_phi1, project = heuristic.phi1, heuristic._project_residual
        counts = {"phi1": 0, "placed": 0, "skipped": 0}
        for name, cfg in PRESETS.items():
            projected: list = []  # tours in order of first projection; the open one last
            pending: dict = {}  # (pid, pos) -> (ctx, stops) the next candidate loop may try

            def settle():
                for ctx, stops in pending.values():
                    assert _over_capacity(ctx, stops), f"{case} {name}: skipped an insertion that fits"
                    counts["skipped"] += 1
                pending.clear()

            def checked_phi1(ctx, tour, payload_id, position):
                got = real_phi1(ctx, tour, payload_id, position)
                assert got == _phi1_full_scan(ctx, tour, payload_id, position), (case, name, payload_id, position)
                if projected and tour is projected[-1]:
                    del pending[payload_id, position]
                counts["phi1"] += 1
                counts["placed"] += got is not None
                return got

            def checked_project(ctx, current):
                settle()
                project(ctx, current)
                if not projected or projected[-1] is not current:
                    projected.append(current)
                served = {st.payload for tour in projected for st in tour.stops}
                for pid in sorted(set(s.deliverable_ids) - served):
                    for pos in range(1, len(current.stops) + 2):
                        stops = current.stops[:]
                        stops.insert(pos - 1, Stop(pid, s.payloads[pid].target))
                        pending[pid, pos] = (ctx, stops)

            monkeypatch.setattr(heuristic, "phi1", checked_phi1)
            monkeypatch.setattr(heuristic, "_project_residual", checked_project)
            try:
                tours, plan = insertion_solve(s, cfg())
            except InsertionError:
                pass  # fleet refusals come after every insertion was checked
            settle()
            if case == "full-capacity" and name == "save-time":
                assert [len(t.stops) for t in tours] == [2]
                assert (plan.payloads @ s.payload_kg).max() == 2.5
        assert counts["phi1"] > 0 and counts["placed"] > 0
        assert counts["skipped"] > 0 or not case.startswith("sf-large")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plans_match_pinned_digests(self, seed):
        s = generate_preset("sf-large", seed)
        got = {name: _solve_digest(s, cfg()) for name, cfg in PRESETS.items()}
        assert got == {name: HEURISTIC_DIGESTS[seed, name] for name in PRESETS}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixed_equipment_plans_match_pinned_digests(self, seed):
        s = generate_preset("sf-large", seed)
        groups = fixed_equipment(s)
        got = {name: _solve_digest(s, cfg(), groups) for name, cfg in PRESETS.items()}
        assert got == {name: FIXED_EQUIPMENT_DIGESTS[seed, name] for name in PRESETS}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_residual_matches_full_replay_after_every_insertion(self, seed, monkeypatch):
        s = generate_preset("sf-large", seed)
        project = heuristic._project_residual
        checks = 0
        for name, cfg in PRESETS.items():
            projected: list = []  # tours in order of first projection; all but the last committed

            def checked(ctx, current):
                nonlocal checks
                project(ctx, current)
                if not projected or projected[-1] is not current:
                    projected.append(current)
                want = _full_replay_residual(ctx, projected)
                assert np.array_equal(ctx.residual, want), f"seed {seed} {name} tour {len(projected)}"
                checks += 1

            monkeypatch.setattr(heuristic, "_project_residual", checked)
            try:
                insertion_solve(s, cfg())
            except InsertionError:
                pass  # fleet refusals come after every insertion was checked
        assert checks >= 3 * len(s.deliverable_ids)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simulate_matches_numpy_battery_pass(self, seed, monkeypatch):
        """Every _simulate call of a solve, default and fixed equipment, gives
        the reference's schedule bit for bit and type for type; every route's
        step records are the scenario's depot mask and per-kg Wh."""
        s = generate_preset("sf-large", seed)
        graph = build_route_graph(s)
        for (a, b), routes in graph.routes.items():
            for r in routes:
                hops = list(zip(r.seq[:-1], r.seq[1:]))
                want = [(bool(s.is_depot[y]), float(s.energy_wh_per_kg[x, y])) for x, y in hops]
                assert [(type(d), type(wh)) for d, wh in r.steps] == [(bool, float)] * r.hops
                assert list(r.steps) == want, (a, b, r.seq)
        assert s.hover_wh_per_kg == tuple(float(s.energy_wh_per_kg[l, l]) for l in range(s.num_locations))

        real = heuristic._simulate
        calls = {"all": 0, "feasible": 0, "pack_w": 0}

        def checked(s_, equip_w, stops, legs, depart=None, pack_w=None):
            got = real(s_, equip_w, stops, legs, depart, pack_w)
            want = _simulate_numpy_reference(s_, equip_w, stops, legs, depart)
            assert _schedule_bits(got) == _schedule_bits(want), (seed, [st.payload for st in stops], depart)
            calls["all"] += 1
            calls["feasible"] += got is not None
            calls["pack_w"] += pack_w is not None
            return got

        monkeypatch.setattr(heuristic, "_simulate", checked)
        for equipment in (None, fixed_equipment(s)):
            for name, cfg in PRESETS.items():
                stats: dict = {}
                try:
                    insertion_solve(s, cfg(), equipment_groups=equipment, stats=stats)
                except InsertionError:
                    pass  # fleet refusals come after every simulation was checked
                assert stats["simulate_calls"] > 0
        assert 0 < calls["feasible"] < calls["all"] and 0 < calls["pack_w"] < calls["all"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_leg_scores_fresh_after_every_projection(self, seed, monkeypatch):
        """leg_candidates and dedicated_score, read right after each residual
        projection, equal a fresh scoring from the new values, for every
        route-graph pair, though every pair was cached from the old values
        just before."""
        s = generate_preset("sf-large", seed)
        project = heuristic._project_residual
        moved = 0  # projections that changed some pair's scores

        def checked(ctx, current):
            nonlocal moved
            pairs = sorted(ctx.graph.routes)
            before = {(a, b): ctx.leg_candidates(a, b) for a, b in pairs}
            for b in ctx.graph.nodes:
                ctx.dedicated_score(b)
            project(ctx, current)
            fresh = {(a, b): _fresh_leg_candidates(ctx, a, b) for a, b in pairs}
            assert {pair: ctx.leg_candidates(*pair) for pair in pairs} == fresh
            depot = ctx.graph.depot
            for b in ctx.graph.nodes:
                hops = ctx.graph.shortest_hops(depot, b)
                assert ctx.dedicated_score(b) == max(ctx.weighted_score(hops, r) for r in ctx.graph.between(depot, b))
            moved += before != fresh

        monkeypatch.setattr(heuristic, "_project_residual", checked)
        for name, cfg in PRESETS.items():
            try:
                insertion_solve(s, cfg())
            except InsertionError:
                pass
        assert moved > 0

    def test_vectorized_allocation_matches_loop(self):
        """Random residuals over a densely wired instance; quality and
        residual levels come from small sets (two levels per trial) so q * r
        ties are common and the (mission, zone) tie-break is exercised; a
        residual just under the 1e-12 cut over quality 0.01 would still be
        worth allocating, so the cut is exercised too."""
        rng = np.random.default_rng(11)
        n_loc, n_zone = 5, 30
        zones = []
        for z in range(n_zone):
            served = {}
            for l in range(1, n_loc):
                q = {"coverage": float(rng.choice([0.0, 0.01, 0.5, 1.0])), "monitoring": float(rng.choice([0.0, 0.5]))}
                served[l] = {m: v for m, v in q.items() if v > 0}
            zones.append(Zone(z, served))
        s = line_scenario(targets=[1], windows=[(1, 10)], zones=zones, missions=True, epochs=6,
                          extra_locs=[(1.0, 1.0)] * (n_loc - 3))
        assert s.num_locations == n_loc
        aboard_sets = [frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset()]
        levels = np.array([0.0, 5e-13, 0.05, 0.25, 0.5, 1.0])
        for trial in range(400):
            resid = rng.choice(rng.choice(levels, size=2, replace=False), size=s.demand.shape)
            l, k = int(rng.integers(n_loc)), int(rng.integers(s.epochs))
            aboard = aboard_sets[trial % len(aboard_sets)]
            got_resid, want_resid = resid.copy(), resid.copy()
            got, want = [], []
            got_gen = _allocate_service(s, l, k, aboard, got_resid, got)
            want_gen = _allocate_service_loop(s, l, k, aboard, want_resid, want)
            assert np.array_equal(got_resid, want_resid)
            assert got == want
            assert got_gen == want_gen


def _solve_record(s, cfg, equipment_groups):
    """Tours, plan arrays and counters of one solve, or its refusal."""
    stats: dict = {}
    try:
        tours, plan = insertion_solve(s, cfg, equipment_groups=equipment_groups, stats=stats)
    except InsertionError as exc:
        return repr((str(exc), exc.payloads)), stats
    arrays = [np.ascontiguousarray(getattr(plan, f)).tobytes() for f in PLAN_FIELDS]
    detail = [(t.stops, t.legs, t.uav, t.depart, t.service_epochs, t.return_epoch, repr(t.energy_wh),
               type(t.energy_wh)) for t in tours]
    return (detail, arrays), stats


class TestSharedGraphAndBatteryBound:
    def test_shared_graph_and_bound_change_nothing_but_simulations(self, monkeypatch):
        """Against a fresh route graph per solve (a replaced copy builds its
        own) and no battery bound, plans, tours and every other counter are
        equal, and each pair the bound rejects is one _simulate call fewer."""
        rejected = 0
        for seed in range(1, 11):
            s = generate_preset("sf-large", seed)
            for equipment in (None, fixed_equipment(s)):
                for name, cfg in PRESETS.items():
                    got, stats = _solve_record(s, cfg(), equipment)
                    with monkeypatch.context() as m:
                        m.setattr(heuristic, "_pair_drain", lambda before, g, g2, after: 0.0)
                        want, ref = _solve_record(dataclasses.replace(s), cfg(), equipment)
                    assert got == want, (seed, equipment is None, name)
                    assert ref["battery_rejected"] == 0
                    assert stats["simulate_calls"] + stats["battery_rejected"] == ref["simulate_calls"]
                    other = set(STAT_KEYS) - {"simulate_calls", "battery_rejected"}
                    assert {k: stats[k] for k in other} == {k: ref[k] for k in other}
                    rejected += stats["battery_rejected"]
        assert rejected > 0

    def test_battery_bound_skips_only_pairs_simulate_refuses(self, monkeypatch):
        """Every route pair phi1 looks at is either simulated or rejected by
        the bound; each rejected one, simulated anyway, comes back None.  No
        pair of seed 3 or 6 meets the bound; seed 7 has thousands."""
        real_phi1, real_drain, real_simulate = heuristic.phi1, heuristic._pair_drain, heuristic._simulate
        seen: list = []  # route pairs the bound looked at in the current phi1 call
        simulated: list = []  # legs _simulate saw in the current phi1 call
        skipped = 0

        def spy_drain(before, g, g2, after):
            seen.append((g, g2))
            return real_drain(before, g, g2, after)

        def spy_simulate(s_, equip_w, stops, legs, depart=None, pack_w=None):
            simulated.append(legs)
            return real_simulate(s_, equip_w, stops, legs, depart, pack_w)

        def checked_phi1(ctx, tour, payload_id, position):
            nonlocal skipped
            seen.clear()
            simulated.clear()
            before = ctx.stats["battery_rejected"]
            got = real_phi1(ctx, tour, payload_id, position)
            tried = {(id(legs[position - 1]), id(legs[position])) for legs in simulated}
            stops = tour.stops[:]
            stops.insert(position - 1, Stop(payload_id, ctx.s.payloads[payload_id].target))
            rejected = [(g, g2) for g, g2 in seen if (id(g), id(g2)) not in tried]
            assert len(rejected) == ctx.stats["battery_rejected"] - before
            for g, g2 in rejected:
                legs = tour.legs[:]
                legs[position - 1 : position] = [g, g2]
                assert real_simulate(ctx.s, ctx.equip_w, stops, legs) is None, (payload_id, position)
            skipped += len(rejected)
            return got

        monkeypatch.setattr(heuristic, "phi1", checked_phi1)
        monkeypatch.setattr(heuristic, "_pair_drain", spy_drain)
        monkeypatch.setattr(heuristic, "_simulate", spy_simulate)
        for seed in range(1, 8):
            s = generate_preset("sf-large", seed)
            for equipment in (None, fixed_equipment(s)):
                for name, cfg in PRESETS.items():
                    try:
                        insertion_solve(s, cfg(), equipment_groups=equipment)
                    except InsertionError:
                        pass  # fleet refusals come after every insertion was checked
        assert skipped > 1000

    def test_drain_records_follow_the_steps(self):
        """Each route's drain record against a plain walk over its steps, on
        a graph whose routes include depot landings mid-route."""
        s = generate_preset("sf-large", 1)
        mid_landings = 0
        for routes in build_route_graph(s).routes.values():
            for r in routes:
                segments = [0.0]  # Wh per kg between landings
                for to_depot, wh in r.steps:
                    if to_depot:
                        segments.append(0.0)
                    else:
                        segments[-1] += wh
                lands = len(segments) > 1
                total = sum(wh for to_depot, wh in r.steps if not to_depot)
                assert r.drain.lands == lands
                assert r.drain.pre == pytest.approx(segments[0] if lands else total, abs=1e-12)
                assert r.drain.post == pytest.approx(segments[-1], abs=1e-12)
                assert r.drain.total == pytest.approx(total, abs=1e-12)
                mid_landings += lands and not r.steps[-1][0]
        assert mid_landings > 0

    def test_pair_drain_matches_a_plain_walk(self):
        """_slot_drain then _pair_drain give the largest drain among the
        segments between landings that hold the start of g, the g/g2
        junction or the end of g2, on random leg lists drawn half from
        routes with a depot landing before their last hop."""
        s = generate_preset("sf-large", 1)
        routes = [r for rs in build_route_graph(s).routes.values() for r in rs]
        landing = [r for r in routes if any(d for d, _ in r.steps[:-1])]
        assert landing
        rng = np.random.default_rng(3)

        def draw():
            pool = landing if rng.random() < 0.5 else routes
            return pool[int(rng.integers(len(pool)))]

        for _ in range(3000):
            tour_legs = [draw() for _ in range(int(rng.integers(1, 6)))]
            position = int(rng.integers(1, len(tour_legs) + 1))
            g, g2 = draw(), draw()
            before, after = heuristic._slot_drain(tour_legs, position)
            got = heuristic._pair_drain(before, g, g2, after)
            walk = tour_legs[: position - 1] + [g, g2] + tour_legs[position:]
            steps = [step for leg in walk for step in leg.steps]
            segments, landed = [0.0], [0]  # drain per segment; landings before each point
            for to_depot, wh in steps:
                if to_depot:
                    segments.append(0.0)
                else:
                    segments[-1] += wh
                landed.append(len(segments) - 1)
            start = sum(leg.hops for leg in tour_legs[: position - 1])
            points = (start, start + g.hops, start + g.hops + g2.hops)
            want = max(segments[landed[p]] for p in points)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @staticmethod
    def _counted_builds(monkeypatch):
        """Route graph builds from here on, as the list of the scenarios built for."""
        builds, real_build = [], heuristic.build_route_graph

        def counted(s_):
            builds.append(s_)
            return real_build(s_)

        monkeypatch.setattr(heuristic, "build_route_graph", counted)
        return builds, counted

    def test_one_graph_per_scenario_instance(self, monkeypatch):
        """A second solve of the same instance reuses its graph; a replaced
        copy builds its own; the graph goes with its scenario."""
        builds, counted = self._counted_builds(monkeypatch)
        s = line_scenario(targets=[2, 3], windows=[(2, 10), (3, 12)])
        first = insertion_solve(s)
        assert insertion_solve(s, HeuristicConfig.privilege_coverage()) is not None
        assert builds == [s]
        graph = weakref.ref(s.derived(counted))
        copy = dataclasses.replace(s, uav=dataclasses.replace(s.uav, count=1))
        assert insertion_solve(copy)[0] == first[0]
        assert len(builds) == 2 and builds[1] is copy and copy.derived(counted) is not graph()
        builds.clear()
        del s, copy, first
        gc.collect()
        assert graph() is None

    def test_refused_graph_not_kept(self, monkeypatch):
        """A RouteGraphError is raised, by a fresh build, on every solve."""
        builds, _ = self._counted_builds(monkeypatch)
        s = line_scenario(targets=[2], windows=[(1, 10)], spacing=3.0, vmax=2.5)
        for _ in range(2):
            with pytest.raises(RouteGraphError):
                insertion_solve(s)
        assert builds == [s, s]

    def test_shared_graph_refuses_assignment(self):
        s = line_scenario(targets=[2], windows=[(2, 10)])
        insertion_solve(s)
        graph = s.derived(heuristic.build_route_graph)
        assert graph is s.derived(heuristic.build_route_graph)
        with pytest.raises(TypeError):
            graph.routes[0, 2] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.routes = {}
        with pytest.raises(TypeError):
            graph.fewest_hops[0, 2] = 0
        for arr in (graph.path_km, graph.next_hop):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
