"""Multi-objective insertion heuristic for large instances.

Tours over delivery locations are grown one stop at a time, Solomon style:
the cheapest insertion position per candidate comes from the position cost
phi1, the candidate actually inserted maximizes the savings phi2 against
serving it in a dedicated tour, and a new tour opens whenever no candidate
saves anything.  Every pair of graph nodes carries a set of alternative
routes (shortest path plus one- and two-waypoint compositions within twice
the shortest length); route choice trades travel time against coverage and
monitoring value via the (alpha1, alpha2) weights.

Route service weights depend on residual demand and are refreshed after every
committed insertion, so demand already claimed by earlier tours is not counted
twice; route scores are cached between refreshes.  Each route carries a
per-hop step record (depot flag, Wh per kg) for the battery pass.

The route graph depends only on the scenario, so each Scenario instance keeps
one (Scenario.derived), built on its first solve and shared, read-only, by
every later solve of the instance.  Each route also carries a drain record
(does it land on a depot, Wh per kg before its first landing, after its last
and in total).  phi1 composes the records of a route pair with the tour's
drain on either side of the slot, in O(1) per pair, and skips _simulate for
a pair whose gross weight times that drain already exceeds the battery:
on-site waits only drain more, so such a pair is infeasible whatever its
schedule.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .evaluator import Plan
from .paths import all_pairs_shortest, reconstruct
from .scenario import Scenario, check_equipment_groups, require_valid


class RouteGraphError(ValueError):
    pass


class InsertionError(RuntimeError):
    """Some delivery cannot be placed; .payloads lists the offenders."""

    def __init__(self, message: str, payloads=()):
        super().__init__(message)
        self.payloads = tuple(payloads)


@dataclass(frozen=True)
class HeuristicConfig:
    alpha1: float = 0.0  # weight of coverage value
    alpha2: float = 0.0  # weight of monitoring value

    def __post_init__(self):
        # written so that a NaN weight fails it too
        if not (self.alpha1 >= 0 and self.alpha2 >= 0 and self.alpha1 + self.alpha2 <= 1 + 1e-12):
            raise ValueError("weights must be nonnegative and sum to at most 1")

    @classmethod
    def save_time(cls):
        return cls(0.0, 0.0)

    @classmethod
    def privilege_coverage(cls):
        return cls(1.0, 0.0)

    @classmethod
    def privilege_monitoring(cls):
        return cls(0.0, 1.0)


PRESETS = {
    "save-time": HeuristicConfig.save_time,
    "coverage": HeuristicConfig.privilege_coverage,
    "monitoring": HeuristicConfig.privilege_monitoring,
}


class Drain(NamedTuple):
    """Battery drain of a route's hops in Wh per kg of gross weight; a hop
    that lands on a depot swaps the battery and drains nothing."""

    lands: bool  # some hop lands on a depot
    pre: float  # drained before the first landing (all of it without one)
    post: float  # drained after the last landing (all of it without one)
    total: float  # drained over every hop


def _drain(steps: tuple[tuple[bool, float], ...]) -> Drain:
    pre = None
    post = total = 0.0
    for to_depot, wh in steps:
        if to_depot:
            if pre is None:
                pre = total
            post = 0.0
        else:
            post += wh
            total += wh
    return Drain(pre is not None, total if pre is None else pre, post, total)


@dataclass(frozen=True)
class Route:
    seq: tuple[int, ...]  # per-epoch location hops, seq[0] .. seq[-1]
    anchors: tuple[int, ...]  # intermediate anchor locations (at most two)
    length_km: float
    # per hop: (lands on a depot, Wh per kg of gross weight), Python bool/float
    steps: tuple[tuple[bool, float], ...] = field(default=(), repr=False, compare=False)
    hops: int = field(init=False, repr=False, compare=False)  # len(seq) - 1
    drain: Drain = field(init=False, repr=False, compare=False)  # from steps

    def __post_init__(self):
        object.__setattr__(self, "hops", len(self.seq) - 1)
        if len(self.steps) != self.hops:
            raise ValueError(f"route {self.seq} needs one step record per hop, got {len(self.steps)}")
        object.__setattr__(self, "drain", _drain(self.steps))


@dataclass(frozen=True)
class RouteGraph:
    """Read-only, since every solve of a scenario shares one graph."""

    depot: int
    nodes: tuple[int, ...]
    routes: Mapping[tuple[int, int], tuple[Route, ...]]
    path_km: np.ndarray
    next_hop: np.ndarray
    fewest_hops: Mapping[tuple[int, int], int]  # fewest hops over each pair's routes

    def between(self, a: int, b: int) -> tuple[Route, ...]:
        return self.routes[(a, b)]

    def shortest_hops(self, a: int, b: int) -> int:
        return self.routes[(a, b)][0].hops if a != b else 0


def _route_from_seq(s: Scenario, seq: tuple[int, ...], anchors: tuple[int, ...]) -> Route:
    length = sum(s.dist_km[seq[j], seq[j + 1]] for j in range(len(seq) - 1))
    src, dst = list(seq[:-1]), list(seq[1:])
    steps = tuple(zip(s.is_depot[dst].tolist(), s.energy_wh_per_kg[src, dst].tolist()))
    return Route(seq=seq, anchors=anchors, length_km=float(length), steps=steps)


def build_route_graph(s: Scenario) -> RouteGraph:
    """Alternative-route graph over the depot and all delivery locations."""
    depots = s.depot_ids
    if len(depots) != 1:
        raise RouteGraphError(f"route graph needs exactly one depot, scenario has {len(depots)}")
    depot = depots[0]
    path_km, next_hop = all_pairs_shortest(s.dist_km, s.uav.max_step_km)
    targets = sorted({p.target for p in s.payloads if p.deliverable})
    for t in targets:
        if not np.isfinite(path_km[depot, t]):
            raise RouteGraphError(f"delivery location {t} is unreachable from the depot")
    nodes = tuple([depot] + [t for t in targets if t != depot])

    routes: dict[tuple[int, int], tuple[Route, ...]] = {}
    for a in nodes:
        for b in nodes:
            if a == b:
                routes[(a, b)] = (Route((a,), (), 0.0),)
                continue
            cap = 2.0 * path_km[a, b] + 1e-9
            cands: dict[tuple[int, ...], Route] = {}

            def consider(seq, anchors):
                seq = tuple(seq)
                if seq not in cands:
                    cands[seq] = _route_from_seq(s, seq, anchors)

            consider(reconstruct(next_hop, a, b), ())
            via1 = path_km[a, :] + path_km[:, b]
            for l3 in np.nonzero(via1 <= cap)[0]:
                if l3 == a or l3 == b:
                    continue
                seq = reconstruct(next_hop, a, int(l3)) + reconstruct(next_hop, int(l3), b)[1:]
                consider(seq, (int(l3),))
            via2 = path_km[a, :, None] + path_km + path_km[:, b][None, :]
            for l3, l4 in np.argwhere(via2 <= cap):
                if l3 == l4 or l3 in (a, b) or l4 in (a, b):
                    continue
                seq = (
                    reconstruct(next_hop, a, int(l3))
                    + reconstruct(next_hop, int(l3), int(l4))[1:]
                    + reconstruct(next_hop, int(l4), b)[1:]
                )
                consider(seq, (int(l3), int(l4)))
            ordered = sorted(cands.values(), key=lambda r: (r.length_km, r.hops, r.seq))
            routes[(a, b)] = tuple(ordered)
    fewest = {pair: min(r.hops for r in rs) for pair, rs in routes.items()}
    path_km.setflags(write=False)
    next_hop.setflags(write=False)
    return RouteGraph(
        depot=depot,
        nodes=nodes,
        routes=MappingProxyType(routes),
        path_km=path_km,
        next_hop=next_hop,
        fewest_hops=MappingProxyType(fewest),
    )


# -- service weights along a route -------------------------------------------------


class _WeightContext:
    """Residual-aware coverage/monitoring value per location, normalized so
    one epoch of the busiest location scores 1."""

    def __init__(self, s: Scenario):
        self.s = s
        self.cov = self._mission_id("coverage", 0)
        self.mon = self._mission_id("monitoring", 1)
        full = s.demand.mean(axis=0) if s.epochs else np.zeros((s.num_missions, s.num_zones))
        self.norm = {}
        for mid in (self.cov, self.mon):
            if mid is None:
                continue
            per_loc = np.minimum(s.quality[:, mid, :], full[mid][None, :]).sum(axis=1)
            peak = float(per_loc.max()) if per_loc.size else 0.0
            self.norm[mid] = peak if peak > 0 else 1.0

    def _mission_id(self, name: str, fallback_rank: int):
        m = self.s.mission_by_name(name)
        if m is not None:
            return m.id
        service = self.s.service_mission_ids
        return service[fallback_rank] if len(service) > fallback_rank else None

    def location_value(self, residual_mean: np.ndarray):
        """(L,) normalized service value per mission for one epoch on site."""
        out = {}
        for mid in (self.cov, self.mon):
            if mid is None:
                continue
            per_loc = np.minimum(
                self.s.quality[:, mid, :], np.maximum(residual_mean[mid], 0.0)[None, :]
            ).sum(axis=1)
            out[mid] = per_loc / self.norm[mid]
        return out


def _route_value(values: np.ndarray, route: Route) -> float:
    """Sum of per-location values over one traversal of the route, one epoch
    per waypoint, added in waypoint order."""
    return float(sum(values[l] for l in route.seq[1:]))


def arc_service_weights(s: Scenario, route: Route, residual_mean: np.ndarray) -> tuple[float, float]:
    """Coverage and monitoring value collected over one traversal of the
    route, one epoch per waypoint, bounded by residual demand and normalized
    to the scenario's best single-epoch service."""
    ctx = _WeightContext(s)
    vals = ctx.location_value(residual_mean)
    c = 0.0 if ctx.cov is None else _route_value(vals[ctx.cov], route)
    v = 0.0 if ctx.mon is None else _route_value(vals[ctx.mon], route)
    return c, v


# -- tours -------------------------------------------------------------------------


@dataclass
class Stop:
    payload: int
    location: int


@dataclass
class Tour:
    stops: list[Stop]
    legs: list[Route]  # len(stops) + 1 legs, depot .. depot
    uav: int | None = None
    depart: int | None = None
    service_epochs: list[int] = field(default_factory=list)
    return_epoch: int | None = None
    energy_wh: float = 0.0

    def node_list(self, depot: int) -> list[int]:
        return [depot] + [st.location for st in self.stops] + [depot]


@dataclass
class _Schedule:
    depart: int
    services: list[int]
    return_epoch: int
    energy_wh: float


def _pack_weight(s: Scenario, equip_w: float, stops: list[Stop]) -> float | None:
    """Delivery pack weight of the stops, or None when equipment plus packs
    exceed the payload capacity or a stop is not its payload's delivery
    target.  Neither check depends on the legs."""
    w = s.payload_kg
    pack_w = float(sum(w[st.payload] for st in stops))
    if equip_w + pack_w > s.uav.payload_capacity_kg + 1e-12:
        return None
    for st in stops:
        pl = s.payloads[st.payload]
        if not pl.deliverable or pl.target != st.location:
            return None
    return pack_w


def _latest_services(s: Scenario, stops: list[Stop], hops: list[int]) -> list[int] | None:
    """Latest service epoch per stop, backward from the mandatory depot
    return over per-leg hop counts, or None when a window closes before that
    or the first leg would have to leave before epoch 0.  Latest epochs only
    fall as any leg gains hops, so a failure at each leg's fewest hops fails
    every route choice."""
    m = len(stops)
    latest = [0] * m
    bound = (s.epochs - 1) - hops[m]
    for i in range(m - 1, -1, -1):
        earliest, last = s.payloads[stops[i].payload].window
        latest[i] = min(last, bound)
        if earliest > latest[i]:
            return None
        bound = latest[i] - hops[i]
    return latest if bound >= 0 else None


def _simulate(
    s: Scenario,
    equip_w: float,
    stops: list[Stop],
    legs: list[Route],
    depart: int | None = None,
    pack_w: float | None = None,
) -> _Schedule | None:
    """Feasible schedule for the tour, or None.  With depart=None the latest
    window-feasible departure is used; otherwise the given epoch.  Early
    arrivals wait on site; payload weight rides for the whole tour (failed
    drops must be able to come home).  A caller that already has the stops'
    _pack_weight passes it as pack_w."""
    if pack_w is None:
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
    waits, services = [], []
    t = depart
    for i in range(m):
        arr = t + legs[i].hops
        svc = max(arr, s.payloads[stops[i].payload].window[0])
        if svc > latest[i]:
            return None
        waits.append(svc - arr)
        services.append(svc)
        t = svc
    ret = t + legs[m].hops
    if ret > s.epochs - 1:
        return None

    # battery along the realized epoch walk, resetting at depot waypoints;
    # each step's Wh is its per-kg record times the gross weight
    gross = s.uav.empty_weight_kg + equip_w + pack_w
    E = s.uav.battery_capacity_wh
    battery = E
    lowest = E
    energy = 0.0
    drained = False  # any step charged: energy_wh is then an np.float64
    loc = legs[0].seq[0] if legs else s.depot_ids[0]
    for i, leg in enumerate(legs):
        for to_depot, wh in leg.steps:
            if to_depot:
                battery = E
            else:
                step = wh * gross
                battery -= step
                energy += step
                drained = True
                if battery < lowest:
                    lowest = battery
        if leg.steps:
            loc = leg.seq[-1]
        if i < m and waits[i] and loc not in s.depot_ids:
            step = s.hover_wh_per_kg[loc] * gross
            for _ in range(waits[i]):
                battery -= step
                energy += step
                if battery < lowest:
                    lowest = battery
            drained = True
    if lowest < -1e-9:
        return None
    return _Schedule(depart, services, ret, np.float64(energy) if drained else energy)


# -- insertion machinery -----------------------------------------------------------


STAT_KEYS = ("phi1_calls", "precheck_rejected", "battery_rejected", "simulate_calls", "simulate_feasible", "tours")


class _SolveContext:
    def __init__(self, s: Scenario, graph: RouteGraph, cfg: HeuristicConfig, stats: dict | None = None):
        self.s = s
        self.graph = graph
        self.cfg = cfg
        self.stats = {} if stats is None else stats
        self.stats.update(dict.fromkeys(STAT_KEYS, 0))
        self.weights = _WeightContext(s)
        self.equip_ids = list(s.equipment_ids)
        self.equip_w = float(sum(s.payload_kg[self.equip_ids])) if self.equip_ids else 0.0
        self.committed = s.demand  # residual after the committed tours
        self.residual = s.demand.copy()  # after the committed tours and the open one
        self._refresh_values()

    def simulate(
        self,
        equip_w: float,
        stops: list[Stop],
        legs: list[Route],
        depart: int | None = None,
        pack_w: float | None = None,
    ):
        """_simulate, counted in self.stats."""
        sched = _simulate(self.s, equip_w, stops, legs, depart, pack_w)
        self.stats["simulate_calls"] += 1
        self.stats["simulate_feasible"] += sched is not None
        return sched

    def _refresh_values(self):
        mean = self.residual.mean(axis=0) if self.s.epochs else self.residual.sum(axis=0)
        self.loc_value = self.weights.location_value(mean)
        self._legs: dict[tuple[int, int], list[tuple[float, Route]]] = {}
        self._dedicated: dict[int, float] = {}

    def weighted_score(self, time: float, r: Route) -> float:
        """(1 - a1 - a2) * time - a1 * coverage - a2 * monitoring along r."""
        a1, a2 = self.cfg.alpha1, self.cfg.alpha2
        score = (1.0 - a1 - a2) * time
        for mid, weight in ((self.weights.cov, a1), (self.weights.mon, a2)):
            if mid is not None and weight:
                score -= weight * _route_value(self.loc_value[mid], r)
        return score

    def route_score(self, r: Route) -> float:
        """weighted_score with the leg's own hops as its time."""
        return self.weighted_score(r.hops, r)

    def leg_candidates(self, a: int, b: int) -> list[tuple[float, Route]]:
        """(score, route) for every a -> b route, best first.  Scores read
        only loc_value and cfg, so each pair is scored once per
        _refresh_values; callers must not change the list."""
        cands = self._legs.get((a, b))
        if cands is None:
            cands = [(self.route_score(r), r) for r in self.graph.between(a, b)]
            cands.sort(key=lambda t: (t[0], t[1].length_km, t[1].seq))
            self._legs[a, b] = cands
        return cands

    def dedicated_score(self, b: int) -> float:
        """Largest weighted score over the depot -> b routes, each timed at
        the pair's shortest hops; once per _refresh_values, like
        leg_candidates."""
        got = self._dedicated.get(b)
        if got is None:
            depot = self.graph.depot
            psi_short = self.graph.shortest_hops(depot, b)
            got = max(self.weighted_score(psi_short, r) for r in self.graph.between(depot, b))
            self._dedicated[b] = got
        return got


def _slot_drain(legs: list[Route], position: int) -> tuple[float, float]:
    """Wh per kg the tour drains from its last landing before the leg
    legs[position - 1], and after that leg up to its next landing; on-site
    waits are left out."""
    before = after = 0.0
    for leg in legs[: position - 1]:
        d = leg.drain
        before = d.post if d.lands else before + d.total
    for leg in legs[position:]:
        d = leg.drain
        if d.lands:
            return before, after + d.pre
        after += d.total
    return before, after


def _pair_drain(before: float, g: Route, g2: Route, after: float) -> float:
    """Largest drain between landings, in Wh per kg and without waits, of a
    tour whose slot legs are g then g2, given _slot_drain's two sides."""
    worst, carry = 0.0, before
    for d in (g.drain, g2.drain):
        if d.lands:
            worst = max(worst, carry + d.pre)
            carry = d.post
        else:
            carry += d.total
    return max(worst, carry + after)


def phi1(ctx: _SolveContext, tour: Tour, payload_id: int, position: int):
    """Best feasible route pair for inserting the delivery at this position.

    Returns (cost, g, g_prime) minimizing the weighted detour, or None when
    every route pair breaks a window, the battery or capacity.  Capacity,
    delivery targets and windows at the fewest hops are checked once, before
    any route pair is scored or simulated.  A route pair whose drain between
    two landings, times the gross weight, exceeds the battery is rejected
    without _simulate; the relative 1e-9 margin covers summation order, so
    only pairs _simulate would refuse are skipped."""
    s = ctx.s
    ctx.stats["phi1_calls"] += 1
    target = s.payloads[payload_id].target
    nodes = tour.node_list(ctx.graph.depot)
    prev_node, next_node = nodes[position - 1], nodes[position]
    new_stops = tour.stops[:]
    new_stops.insert(position - 1, Stop(payload_id, target))
    fewest = ctx.graph.fewest_hops
    hops = [leg.hops for leg in tour.legs]
    hops[position - 1 : position] = [fewest[prev_node, target], fewest[target, next_node]]
    pack_w = _pack_weight(s, ctx.equip_w, new_stops)
    if pack_w is None or _latest_services(s, new_stops, hops) is None:
        ctx.stats["precheck_rejected"] += 1
        return None

    base = ctx.route_score(tour.legs[position - 1])
    first = ctx.leg_candidates(prev_node, target)
    second = ctx.leg_candidates(target, next_node)
    if not first or not second:
        return None

    gross = s.uav.empty_weight_kg + ctx.equip_w + pack_w
    limit = s.uav.battery_capacity_wh * (1.0 + 1e-9) + 1e-9
    before, after = _slot_drain(tour.legs, position)
    best = None
    min_second = second[0][0]
    for f_g, g in first:
        if best is not None and f_g + min_second - base > best[0] + 1e-12:
            break
        for f_g2, g2 in second:
            cost = f_g + f_g2 - base
            if best is not None and cost > best[0] + 1e-12:
                break
            if gross * _pair_drain(before, g, g2, after) > limit:
                ctx.stats["battery_rejected"] += 1
                continue
            legs = tour.legs[:]
            legs[position - 1 : position] = [g, g2]
            if ctx.simulate(ctx.equip_w, new_stops, legs, pack_w=pack_w) is not None:
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, g, g2)
                break  # later second-leg routes only cost more
    return best


def phi2(ctx: _SolveContext, tour: Tour, position: int, phi1_cost: float) -> float:
    """Savings of inserting here versus opening a dedicated tour: weighted
    value of the depot leg to the insertion successor minus the detour cost."""
    succ = tour.node_list(ctx.graph.depot)[position]
    return ctx.dedicated_score(succ) - phi1_cost


def _seed_tour(ctx: _SolveContext, payload_id: int) -> Tour:
    tour = Tour(stops=[], legs=[ctx.graph.between(ctx.graph.depot, ctx.graph.depot)[0]])
    got = phi1(ctx, tour, payload_id, 1)
    if got is None:
        raise InsertionError(
            f"delivery payload {payload_id} cannot be served even by a dedicated tour",
            [payload_id],
        )
    _, g, g2 = got
    target = ctx.s.payloads[payload_id].target
    tour.stops = [Stop(payload_id, target)]
    tour.legs = [g, g2]
    return tour


def _project_residual(ctx: _SolveContext, current: Tour):
    """Greedy estimate of demand left after the committed tours and the open
    one, used to keep the arc weights from double-counting demand.

    Committed tours are folded in once, at commit: insertion_solve sets
    ctx.committed to ctx.residual when it closes a tour, so only the open
    tour is replayed here."""
    s = ctx.s
    resid = ctx.committed.copy()
    sched = ctx.simulate(ctx.equip_w, current.stops, current.legs)
    if sched is not None:
        aboard = frozenset(ctx.equip_ids)
        for k, l in _epoch_walk(s, current, sched.depart, sched.services):
            _allocate_service(s, l, k, aboard, resid, collect=None)
    ctx.residual = resid
    ctx._refresh_values()


def insertion_solve(
    s: Scenario,
    cfg: HeuristicConfig = HeuristicConfig(),
    equipment_groups: list[tuple[int, frozenset, frozenset]] | None = None,
    stats: dict | None = None,
) -> tuple[list[Tour], Plan]:
    """Run the insertion heuristic and materialize a full plan.

    equipment_groups optionally partitions the fleet into (count, forced_on,
    forbidden) payload policies, as solve_exact takes them; each UAV flies
    with its group's forced-on payloads that are not deliveries.  By default
    every UAV flies with the full mission equipment.  Tours are built for the
    full mission equipment either way; the groups apply only when tours are
    assigned and materialized, so a flexible-vs-fixed gap measures only what
    that assignment loses.  A stats dict, if given, receives the STAT_KEYS
    counters of the run.
    """
    require_valid(s)
    equipment = _equipment_per_uav(s, equipment_groups)
    ctx = _SolveContext(s, s.derived(build_route_graph), cfg, stats)
    w = s.payload_kg
    cap = s.uav.payload_capacity_kg

    unserved = sorted(s.deliverable_ids)
    tours: list[Tour] = []
    current: Tour | None = None

    def deadline_key(pid: int):
        pl = s.payloads[pid]
        return (pl.window[1], pl.window[0], pid)

    while unserved or current is not None:
        if current is None:
            seed = min(unserved, key=deadline_key)
            current = _seed_tour(ctx, seed)
            unserved.remove(seed)
            _project_residual(ctx, current)
            continue
        candidates = []
        pack_w = float(sum(w[st.payload] for st in current.stops))
        for pid in unserved:
            # The pack sum's order, hence its last bits, follows the insertion
            # position; a relative 1e-9 margin covers any order, so this
            # rejects only what phi1 would reject at every position.
            if (ctx.equip_w + pack_w + w[pid]) * (1.0 - 1e-9) > cap + 1e-12:
                ctx.stats["precheck_rejected"] += len(current.stops) + 1
                continue
            best_pos = None
            for pos in range(1, len(current.stops) + 2):
                got = phi1(ctx, current, pid, pos)
                if got is None:
                    continue
                if best_pos is None or got[0] < best_pos[1] - 1e-12:
                    best_pos = (pos, got[0], got[1], got[2])
            if best_pos is not None:
                pos, cost, g, g2 = best_pos
                savings = phi2(ctx, current, pos, cost)
                candidates.append((savings, pid, pos, g, g2))
        picked = None
        if candidates:
            candidates.sort(key=lambda t: (-t[0], t[1]))
            if candidates[0][0] >= -1e-12:
                picked = candidates[0]
        if picked is None:
            # ctx.residual was projected from exactly this tour: commit it
            tours.append(current)
            ctx.committed = ctx.residual
            current = None
            continue
        _, pid, pos, g, g2 = picked
        current.stops.insert(pos - 1, Stop(pid, s.payloads[pid].target))
        current.legs[pos - 1 : pos] = [g, g2]
        unserved.remove(pid)
        _project_residual(ctx, current)

    ctx.stats["tours"] = len(tours)
    _assign_tours(s, ctx, tours, equipment)
    plan = tours_to_plan(s, tours, equipment_groups)
    return tours, plan


def _assign_tours(s, ctx, tours, equipment):
    """Greedy schedule onto the earliest-available UAV; a UAV is busy from its
    departure epoch through one epoch past its return (battery swap).  Tours
    with the earliest latest-possible departure go first (deadline order) and
    each departs as soon as its UAV is free and the battery tolerates the
    on-site waits, which keeps the fleet from bunching at the horizon's end.
    equipment holds each UAV's equipment, as _equipment_per_uav expands it."""
    D = s.num_uavs
    w = s.payload_kg
    equip_w = [float(sum(w[e] for e in aboard)) for aboard in equipment]
    avail = [0] * D
    unserved: list[int] = []

    def deadline(item):
        idx, tour = item
        sched = ctx.simulate(ctx.equip_w, tour.stops, tour.legs)
        return (sched.depart if sched else 0, idx)

    ordered = [t for _, t in sorted(enumerate(tours), key=deadline)]
    for tour in ordered:
        placed = None
        for u in sorted(range(D), key=lambda u: (avail[u], u)):
            latest = ctx.simulate(equip_w[u], tour.stops, tour.legs)
            if latest is None or avail[u] > latest.depart:
                continue
            for depart in range(avail[u], latest.depart + 1):
                sched = ctx.simulate(equip_w[u], tour.stops, tour.legs, depart=depart)
                if sched is not None:
                    placed = (u, sched)
                    break
            if placed:
                break
        if placed is None:
            unserved.extend(st.payload for st in tour.stops)
            continue
        u, sched = placed
        tour.uav = u
        tour.depart = sched.depart
        tour.service_epochs = sched.services
        tour.return_epoch = sched.return_epoch
        tour.energy_wh = sched.energy_wh
        avail[u] = sched.return_epoch + 1
    if unserved:
        raise InsertionError(
            f"fleet-horizon capacity exceeded; unserved deliveries: {sorted(unserved)}",
            sorted(unserved),
        )


def _equipment_per_uav(s: Scenario, equipment_groups) -> list[frozenset]:
    """Equipment each UAV flies with: its group's forced-on payloads that are
    not deliveries, or by default every mission equipment payload."""
    if equipment_groups is None:
        return [frozenset(s.equipment_ids)] * s.num_uavs
    check_equipment_groups(s, equipment_groups)
    equipment = []
    for count, on, _ in equipment_groups:
        equipment += [frozenset(e for e in on if not s.payloads[e].deliverable)] * count
    return equipment


def _epoch_walk(s: Scenario, tour: Tour, depart: int, services: list[int]):
    """(epoch, location) for every non-depot epoch of the tour flown from
    depart with the given service epochs."""
    out = []
    t = depart
    for i, leg in enumerate(tour.legs):
        for nxt, (to_depot, _) in zip(leg.seq[1:], leg.steps):
            t += 1
            if not to_depot:
                out.append((t, nxt))
        if i < len(tour.stops):
            loc = tour.stops[i].location
            while t < services[i]:
                t += 1
                if loc not in s.depot_ids:
                    out.append((t, loc))
    return out


def _allocate_service(s: Scenario, l: int, k: int, aboard: frozenset, resid, collect):
    """Greedily spend one epoch's budget at location l on the most valuable
    (mission, zone) pairs; updates resid in place.  Returns generated Mb."""
    ridx = s.relay_index
    can_relay = ridx is not None and all(p in aboard for p in s.missions[ridx].requires)
    t_sink = float(s.link_sink_mb[l])
    serving = s.serving_zones[l]
    budget = 1.0
    gen = 0.0
    pairs = []
    for m in s.service_mission_ids:
        if not serving[m] or not all(p in aboard for p in s.missions[m].requires):
            continue
        rate = s.missions[m].mb_per_work
        if rate > 0 and (not can_relay or t_sink <= 0):
            continue  # data with nowhere to go forbids the work entirely
        r_km = resid[k, m].tolist()
        for z, q in serving[m]:
            r = r_km[z]
            if r > 1e-12:
                pairs.append((-(q * r), m, z, q, rate, r))
    pairs.sort()  # most valuable first, ties by (mission, zone), which are unique
    for _, m, z, q, rate, r in pairs:
        if budget <= 1e-12:
            break
        per_mu = 1.0 + (q * rate / t_sink if rate > 0 else 0.0)
        alloc = min(budget / per_mu, r / q)  # r is still resid[k, m, z]: each pair is spent once
        if alloc <= 1e-12:
            continue
        resid[k, m, z] = r - alloc * q
        budget -= alloc * per_mu
        gen += alloc * q * rate
        if collect is not None:
            collect.append((m, z, alloc))
    return gen


def tours_to_plan(
    s: Scenario,
    tours: list[Tour],
    equipment_groups: list[tuple[int, frozenset, frozenset]] | None = None,
) -> Plan:
    """Expand scheduled tours into a full plan: per-epoch locations, payload
    aboard for the whole tour (equipment plus every delivery pack), greedy
    mission allocations along the way, and traffic pushed straight down to the
    ground network.  equipment_groups is insertion_solve's."""
    equipment = _equipment_per_uav(s, equipment_groups)
    plan = Plan.idle(s)
    resid = s.demand.copy()
    w = s.payload_kg
    cap = s.uav.payload_capacity_kg

    for tour in tours:
        if tour.uav is None or tour.depart is None:
            raise ValueError("tours must be scheduled before materialization")
        d = tour.uav
        pack = [st.payload for st in tour.stops]
        aboard = sorted(set(pack) | equipment[d])
        total_w = float(sum(w[list(aboard)]))
        if total_w > cap + 1e-12:
            raise InsertionError(
                f"tour payload {total_w:.3f} kg exceeds capacity {cap} kg", pack
            )
        # payload aboard from the loading depot epoch until just before return
        for k in range(tour.depart, tour.return_epoch):
            for pid in aboard:
                plan.payloads[d, k, pid] = True
        # away epochs: location, greedy service and direct-to-ground traffic;
        # the epochs the walk skips keep the single depot from Plan.idle
        aboard_set = frozenset(aboard)
        for k, l in _epoch_walk(s, tour, tour.depart, tour.service_epochs):
            plan.locations[d, k] = l
            taken: list = []
            gen = _allocate_service(s, l, k, aboard_set, resid, taken)
            for m, z, alloc in taken:
                plan.mission_alloc[d, k, m, z] = alloc
            if gen > 0:
                t_sink = float(s.link_sink_mb[l])
                plan.relay_frac[d, k] = gen / t_sink
                plan.sink_transfers[d, k] = gen
    return plan
