"""Desk-scale exact optimizer.

solve_exact enumerates every feasible trajectory/payload schedule (config) per
UAV with battery pruning, then searches the assignments of configs to UAVs
depth-first with delivery-cover and objective-bound pruning (of whole
subtrees, by the most any later pick can add), and for each remaining
complete assignment solves the remaining continuous problem with the bundled
simplex: an LP over allocations, relay effort and UAV-to-UAV transfers (mu,
rho, tau) and Gamma, bounded by the exported MILP's rows: one per needed
(epoch, service mission, zone) cell, N * Gamma at most the work served in
the window, N being the window's demand.  Each sink transfer is derived from
its UAV-epoch's flow balance rather than kept as a column, so the LP has
equality rows (and the simplex a phase 1) only at relay UAV-epochs whose
location has no sink link.  UAVs within an equipment group are
interchangeable, so config indices never decrease within a group: the search
visits each multiset once, in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Plan
from .scenario import Scenario, check_equipment_groups, require_valid, windowed_sum
from .simplex import simplex_solve


class GuardError(RuntimeError):
    """Instance exceeds the desk-scale guards."""


@dataclass(frozen=True)
class EnumerationLimits:
    max_assignments: int = 2_000_000
    time_budget_s: float = 600.0
    size_guard: int = 64  # cap on uavs * epochs * locations

    def __post_init__(self):
        # NaN fails every comparison, so it is refused here too, as is an infinite budget
        if not (self.max_assignments > 0 and 0 < self.time_budget_s < math.inf and self.size_guard > 0):
            raise ValueError("enumeration limits must be positive and finite")


@dataclass
class ExactResult:
    plan: Plan | None
    objective: float | None
    proven_optimal: bool
    assignments_visited: int
    feasible: bool
    lp_solves: int = 0  # inner LPs solved
    simplex_iterations: int = 0  # SimplexResult.iterations summed over the inner LPs
    bound_prunes: int = 0  # covering assignments the objective bound discarded, alone or with a subtree


@dataclass(frozen=True)
class _Config:
    """One UAV's complete binary decisions: location and payload per epoch.

    relay is (K,), the epochs that carry the relay equipment.  bound is what
    the config offers: its usable quality (K, M, Z) is the quality at its
    location for every service mission its aboard set equips, zero elsewhere
    and, when the scenario has a relay mission, zero for every mission that
    generates data at epochs without the relay equipment (that data could
    not leave the UAV).  The inner LP has a mu column exactly where it is
    nonzero and the zone has demand.  Over the needed cells, the (epoch,
    zone) pairs with window need on some service mission, in row-major
    order, its servers count the epochs in the window ending at that epoch
    that can use the zone, and its time_need (cells, M) is each mission's
    window need over the best usable quality in that window: inf where there
    is none, zero where nothing is needed.  All arrays are read-only and take
    no part in equality or hashing."""

    locs: tuple[int, ...]
    aboard: tuple[frozenset, ...]
    delivered: frozenset  # deliverable payload ids this config drops in-window
    epochs_away: int
    min_battery: float
    relay: np.ndarray = field(compare=False, repr=False)
    bound: _Capability = field(compare=False, repr=False)


def _payload_subsets(s: Scenario, forced_on: frozenset, forbidden: frozenset) -> list[frozenset]:
    w = s.payload_kg
    cap = s.uav.payload_capacity_kg
    ids = [p.id for p in s.payloads]
    subsets = []
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            sset = frozenset(combo)
            if not forced_on <= sset or sset & forbidden:
                continue
            if sum(w[list(combo)]) <= cap + 1e-12:
                subsets.append(sset)
    subsets.sort(key=lambda x: sorted(x))
    return subsets


def _hops_to_depot(s: Scenario) -> np.ndarray:
    """BFS hop counts from every location to the nearest depot."""
    L = s.num_locations
    reach = s.reach
    hops = np.full(L, np.inf)
    frontier = list(s.depot_ids)
    for l in frontier:
        hops[l] = 0
    while frontier:
        nxt = []
        for l in frontier:
            for l2 in range(L):
                if reach[l, l2] and hops[l2] > hops[l] + 1:
                    hops[l2] = hops[l] + 1
                    nxt.append(l2)
        frontier = nxt
    return hops


def _depot_idle_set(s: Scenario, forced_on: frozenset, forbidden: frozenset) -> frozenset:
    """Payload carried while parked at a depot: the full mission equipment
    plus any depot-targeted packs.  Carrying it there costs nothing (battery
    swaps are free) and only widens what the UAV can do, so this choice is
    dominant whenever it fits the capacity."""
    w = s.payload_kg
    cap = s.uav.payload_capacity_kg
    depots = set(s.depot_ids)
    ids = set(forced_on)
    ids.update(e for e in s.equipment_ids if e not in forbidden)
    for p in s.payloads:
        if p.deliverable and p.target in depots and p.id not in forbidden:
            ids.add(p.id)
    total = float(sum(w[list(ids)])) if ids else 0.0
    if total > cap + 1e-12:
        raise GuardError(
            "exact engine requires the mission equipment (plus depot-targeted packs) "
            f"to fit the payload capacity together; {total:.3f} kg > {cap} kg"
        )
    return frozenset(ids)


def enumerate_configs(
    s: Scenario,
    forced_on: frozenset = frozenset(),
    forbidden: frozenset = frozenset(),
    depot_return: bool = True,
    prune_battery: bool = True,
) -> list[_Config]:
    """All per-UAV (trajectory, payload) schedules consistent with movement,
    capacity, payload-lock and (when pruning) battery constraints.

    Payload is canonical: the sortie payload is loaded on the depot epoch
    right before departure and held for the whole sortie (items are never
    dropped mid-flight, covering failed drops); parked depot epochs carry the
    dominant idle set from _depot_idle_set."""
    K, L = s.epochs, s.num_locations
    depots = set(s.depot_ids)
    reach = s.reach
    energy = s.energy_wh_per_kg
    W, E = s.uav.empty_weight_kg, s.uav.battery_capacity_wh
    w = s.payload_kg
    subsets = _payload_subsets(s, forced_on, forbidden)
    subset_w = {sub: float(sum(w[list(sub)])) for sub in subsets}
    depot_hops = _hops_to_depot(s)
    deliverables = [p for p in s.payloads if p.deliverable]

    out: list[_Config] = []
    locs: list[int] = []
    aboard: list[frozenset] = []
    idle_set = _depot_idle_set(s, forced_on, forbidden)
    # per aboard set: the service missions it equips, and whether it relays
    service, relay = s.service_mission_ids, s.relay_index
    serves = {
        a: np.array([m in service and _equipped(s, m, a) for m in range(s.num_missions)], dtype=bool)
        for a in [*subsets, idle_set]
    }
    relays = {a: relay is not None and _equipped(s, relay, a) for a in serves}
    # (M, 1): missions whose data must leave by relay (no flow rows without a relay mission)
    sends = ((s.mb_per_work > 0) & (relay is not None))[:, None]
    cells = s.needed_ratios.any(axis=1)

    def finish(min_batt: float):
        delivered = set()
        for p in deliverables:
            a, b0 = p.window
            for k in range(a, b0 + 1):
                if locs[k] == p.target and p.id in aboard[k]:
                    delivered.add(p.id)
                    break
        away = sum(1 for l in locs if l not in depots)
        quality = np.where(np.array([serves[a] for a in aboard])[:, :, None], s.quality[locs], 0.0)
        relay_at = np.array([relays[a] for a in aboard])
        usable = np.where(sends & ~relay_at[:, None, None], 0.0, quality)
        offered = np.where(s.demand > 0, usable, 0.0)  # nonzero where it has a usable mu column
        best = np.array([offered[max(0, k - s.horizon) : k + 1].max(axis=0) for k in range(K)])
        with np.errstate(divide="ignore", invalid="ignore"):
            time_need = np.where(s.needed_ratios, s.window_need / best, 0.0).transpose(0, 2, 1)[cells]
        servers = windowed_sum((offered > 0).any(axis=1).astype(float), s.horizon)[cells]
        for arr in (relay_at, usable, servers, time_need):
            arr.setflags(write=False)
        bound = _Capability(usable, servers, time_need)
        out.append(_Config(tuple(locs), tuple(aboard), frozenset(delivered), away, min_batt, relay_at, bound))

    def rec(k: int, battery: float, active: frozenset | None, min_batt: float):
        if k == K - 1:
            finish(min_batt)
            return
        cur = locs[k]
        steps_left = K - 1 - (k + 1)
        for nxt in range(L):
            if not reach[cur, nxt]:
                continue
            if depot_return and depot_hops[nxt] > steps_left:
                continue
            if nxt in depots:
                locs.append(nxt)
                aboard.append(idle_set)
                rec(k + 1, E, None, min_batt)
                locs.pop()
                aboard.pop()
            elif active is None:
                # leaving a depot: choose the sortie payload now
                for S in subsets:
                    cost = energy[cur, nxt] * (W + subset_w[S])
                    nb = E - cost
                    if prune_battery and nb < -1e-9:
                        continue
                    saved = aboard[k]
                    aboard[k] = S  # loading epoch
                    locs.append(nxt)
                    aboard.append(S)
                    rec(k + 1, nb, S, min(min_batt, nb))
                    locs.pop()
                    aboard.pop()
                    aboard[k] = saved
            else:
                cost = energy[cur, nxt] * (W + subset_w[active])
                nb = battery - cost
                if prune_battery and nb < -1e-9:
                    continue
                locs.append(nxt)
                aboard.append(active)
                rec(k + 1, nb, active, min(min_batt, nb))
                locs.pop()
                aboard.pop()

    for start in sorted(depots):
        if depot_return and K > 1 and depot_hops[start] > K - 1:
            continue
        locs[:] = [start]
        aboard[:] = [idle_set]
        if K == 1:
            finish(E)
        else:
            rec(0, E, None, E)
    # most-active configs first: good incumbents surface early, so the
    # objective bound prunes the bulk of the assignment space
    out.sort(key=lambda c: (-c.epochs_away, c.locs, tuple(tuple(sorted(a)) for a in c.aboard)))
    return out


def _equipped(s: Scenario, mission_id: int, aboard: frozenset) -> bool:
    return all(p in aboard for p in s.missions[mission_id].requires)


@dataclass(frozen=True)
class _Capability:
    """What configs offer the objective bound together: their usable quality
    and servers summed, in assignment order, and their time_need as an
    elementwise minimum (the smallest need over one config's quality is the
    need over the best), in the forms _Config.bound gives them.  A record
    either sums a prefix of an assignment or stacks candidates along a
    leading axis; adding a record or a stacked record to a prefix
    broadcasts."""

    quality: np.ndarray
    servers: np.ndarray
    time_need: np.ndarray

    @classmethod
    def stack(cls, records) -> _Capability:
        """One stacked record of the records, in order."""
        return cls(
            np.stack([r.quality for r in records]),
            np.stack([r.servers for r in records]),
            np.stack([r.time_need for r in records]),
        )

    def best_from(self) -> _Capability:
        """Entry i of a stacked record: the most any entry from i on offers,
        as the running max of quality and servers and the running min of
        time_need, taken from the end."""
        def running(op, a):
            return op.accumulate(a[::-1])[::-1]

        return _Capability(running(np.maximum, self.quality), running(np.maximum, self.servers),
                           running(np.minimum, self.time_need))

    def __add__(self, other) -> _Capability:
        quality, servers = self.quality + other.quality, self.servers + other.servers
        return _Capability(quality, servers, np.minimum(self.time_need, other.time_need))

    def __getitem__(self, index) -> _Capability:
        """The configs at index of a stacked record."""
        return _Capability(self.quality[index], self.servers[index], self.time_need[index])


_NO_CONFIGS = _Capability(0.0, 0.0, np.inf)  # the record of an empty prefix


def _objective_upper_bound(s: Scenario, offer: _Capability) -> np.ndarray:
    """Bounds on gamma, ignoring traffic, one per complete assignment of the
    stacked record offer.

    Each bound is the smaller of two terms per window.  Demand cap: per-epoch
    capable service, capped by demand, summed over the satisfaction window.
    Time budget: each UAV-epoch has one unit of time for its missions and
    relay, so for the window ending at k and zone z,
    gamma <= A / sum_m(N_m / Q_m), with N_m the window need, Q_m the best
    quality any UAV-epoch in the window offers for m, and A the UAV-epochs
    there that can serve z."""
    cap = np.minimum(offer.quality, s.demand)
    need = s.needed_ratios
    window_cap = windowed_sum(cap.swapaxes(0, 1), s.horizon).swapaxes(0, 1)
    ratios = window_cap[:, need] / s.window_need[need]
    if not ratios.shape[1]:
        return np.ones(len(offer.quality))
    budget = offer.servers / offer.time_need.sum(axis=2)
    return np.minimum(np.minimum(ratios.min(axis=1), budget.min(axis=1)), 1.0)


def _number(mask: np.ndarray, start=0) -> np.ndarray:
    """start, start + 1, ... over mask's True entries in row-major order, -1
    elsewhere; numbered from 0, its max + 1 counts the entries."""
    index = np.full(mask.shape, -1)
    index[mask] = np.arange(start, start + np.count_nonzero(mask))
    return index


def _stack_rows(families, ncols):
    """One dense matrix and right-hand side from row families in order, or
    (None, None) without rows.  A family is (rhs, *entries), each entry
    (rows, cols, values) with rows numbered within the family."""
    rhs = np.concatenate([b for b, *_ in families])
    if not rhs.size:
        return None, None
    a = np.zeros((rhs.size, ncols))
    at = 0
    for b, *entries in families:
        for rows, cols, values in entries:
            a[at + rows, cols] = values
        at += b.size
    return a, rhs


def _inner_lp(s: Scenario, assignment):
    """LP over (mu, rho, tau, Gamma) for fixed trajectories.

    Each column family is a mask, numbered in row-major order: mu (D, K, M, Z)
    where the config's usable quality (_Config.bound) is nonzero and the zone
    has demand, rho (D, K) where it carries the relay equipment, tau (D, D, K)
    where sender and receiver both carry it and have a link; Gamma is last.
    Gamma is bounded as in the MILP: one row per needed cell, N * Gamma at
    most the windowed served work, and Gamma <= 1.  The sink transfer is no
    column: a relay UAV-epoch's balance, data made plus data received less
    data sent, is what it hands the sink, so where it has a sink link one row
    keeps the balance nonnegative and another within cap * rho.  Only relay
    UAV-epochs at a location without a sink link hold their balance at zero
    in an equality row, so without them the simplex starts from the slack
    basis.  Returns (gamma, flows, simplex iterations), flows being the
    optimum's mission_alloc, relay_frac, transfers and sink_transfers plan
    arrays."""
    D, K, M, Z = len(assignment), s.epochs, s.num_missions, s.num_zones
    flows = (np.zeros((D, K, M, Z)), np.zeros((D, K)), np.zeros((D, D, K)), np.zeros((D, K)))
    if not s.service_mission_ids:
        return 1.0, flows, 0
    locs = np.array([cfg.locs for cfg in assignment])
    quality = np.stack([cfg.bound.quality for cfg in assignment])
    mu = (quality > 0) & (s.demand > 0)
    rho = np.stack([cfg.relay for cfg in assignment])
    link, sink_link = s.link_uav_mb[locs[:, None], locs[None]], s.link_sink_mb[locs]  # (D, D, K), (D, K)
    tau = rho[:, None] & rho[None] & (link > 0) & ~np.eye(D, dtype=bool)[:, :, None]
    masks = (mu, rho, tau)
    at = np.cumsum([0] + [np.count_nonzero(mask) for mask in masks])
    mu_col, rho_col, tau_col = map(_number, masks, at)
    gamma = at[-1]
    d, k, m, z = np.nonzero(mu)
    mu_cols, mu_q = mu_col[mu], quality[mu]
    d1, d2, k_tau = np.nonzero(tau)
    tau_cols = tau_col[tau]
    k_cell, m_cell, z_cell = np.nonzero(s.needed_ratios)
    cell = np.arange(len(k_cell))
    # per needed cell: N * Gamma less the work served in its window, one lag at a time
    served = [(cell, gamma, s.window_need[s.needed_ratios])]
    for lag in range(min(s.horizon, K - 1) + 1):
        cells = cell[k_cell >= lag]
        h, mc, zc = k_cell[cells] - lag, m_cell[cells], z_cell[cells]
        lagged = mu_col[:, h, mc, zc]  # (D, cells): each UAV's mu lag epochs back
        has = lagged >= 0
        served.append((np.broadcast_to(cells, lagged.shape)[has], lagged[has], -quality[:, h, mc, zc][has]))

    # per relay UAV-epoch that moves data: its balance, data + in - out, as
    # (UAV, epoch, column, coefficient) terms
    rate = s.mb_per_work[:, None]  # (M, 1)
    sending = mu & (rate != 0)
    moves = sending.any(axis=(2, 3)) | tau.any(axis=0) | tau.any(axis=1)
    drains = moves & (sink_link > 0)
    drain_row, hold_row = _number(drains), _number(moves & (sink_link == 0))
    d_data, k_data = np.nonzero(sending)[:2]
    ones = np.ones(len(tau_cols))
    term_d, term_k = np.concatenate([d_data, d2, d1]), np.concatenate([k_data, k_tau, k_tau])
    term_col = np.concatenate([mu_col[sending], tau_cols, tau_cols])
    term_value = np.concatenate([(rate * quality)[sending], ones, -ones])

    def balance(row, sign=1.0):
        """The row family of sign * balance over the UAV-epochs row numbers."""
        rows = row[term_d, term_k]
        on = rows >= 0
        return np.zeros(row.max() + 1), (rows[on], term_col[on], sign * term_value[on])

    budget, need, lines = _number(mu.any(axis=(2, 3)) | rho), _number(mu.any(axis=0)), np.arange(len(tau_cols))
    ub = [
        # time budget per UAV-epoch
        (np.ones(budget.max() + 1), (budget[d, k], mu_cols, 1.0), (budget[rho], rho_col[rho], 1.0)),
        # zone needs per epoch
        (s.demand[need >= 0], (need[k, m, z], mu_cols, mu_q)),
        # relay link capacities, tau and then the sink transfer, against the sender's rho
        (np.zeros(len(lines)), (lines, tau_cols, 1.0), (lines, rho_col[d1, k_tau], -link[tau])),
        (*balance(drain_row), (drain_row[drains], rho_col[drains], -sink_link[drains])),
        # max-min objective: N * Gamma at most each needed cell's windowed served work, and Gamma <= 1
        (np.zeros(len(cell)), *served),
        (np.ones(1), (0, gamma, 1.0)),
        # a nonnegative sink transfer
        balance(drain_row, -1.0),
    ]
    eq = [balance(hold_row)]  # flow conservation without a sink link

    c = np.zeros(gamma + 1)
    c[gamma] = 1.0
    res = simplex_solve(c, *_stack_rows(ub, gamma + 1), *_stack_rows(eq, gamma + 1))
    if res.status != "optimal":  # all-zero service is always feasible
        raise RuntimeError(f"inner LP came back {res.status}")
    for plan_array, mask, col in zip(flows, masks, (mu_col, rho_col, tau_col)):
        plan_array[mask] = res.x[col[mask]]
    # each sink transfer is its UAV-epoch's balance at the optimum
    at_optimum = np.bincount(term_d * K + term_k, term_value * res.x[term_col], D * K).reshape(D, K)
    flows[3][drains] = at_optimum[drains]
    return float(res.value), flows, res.iterations


def _assignment_plan(s: Scenario, assignment, flows) -> Plan:
    """The plan of the assignment's configs and the inner LP's flows."""
    payloads = np.zeros((len(assignment), s.epochs, s.num_payloads), dtype=bool)
    for d, cfg in enumerate(assignment):
        for k, aboard in enumerate(cfg.aboard):
            payloads[d, k, list(aboard)] = True
    return Plan(np.array([cfg.locs for cfg in assignment], dtype=int), payloads, *flows)


def solve_exact(
    s: Scenario,
    limits: EnumerationLimits = EnumerationLimits(),
    equipment_groups: list[tuple[int, frozenset, frozenset]] | None = None,
    depot_return: bool = True,
    prune_battery: bool = True,
    prune_bound: bool = True,
) -> ExactResult:
    """Global optimum by exhaustive assignment enumeration plus inner LPs.

    equipment_groups partitions the fleet into (count, forced_on, forbidden)
    payload policies; UAVs within a group are interchangeable.  The returned
    plan maximizes the minimum mission satisfaction, breaking ties toward
    fewer epochs away from a depot, then lexicographically.
    """
    require_valid(s)
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    if D * K * L > limits.size_guard:
        raise GuardError(
            f"instance size {D}x{K}x{L} = {D * K * L} exceeds the guard {limits.size_guard}"
        )
    if equipment_groups is None:
        equipment_groups = [(D, frozenset(), frozenset())]
    check_equipment_groups(s, equipment_groups)

    groups = []  # per equipment group with UAVs: its configs, their stacked record, its best_from, its count
    for count, on, off in equipment_groups:
        cfgs = enumerate_configs(
            s, frozenset(on), frozenset(off), depot_return=depot_return, prune_battery=prune_battery
        )
        if not prune_battery:
            cfgs = [c for c in cfgs if c.min_battery >= -1e-9]
        if count > 0 and not cfgs:
            return ExactResult(None, None, True, 0, False)
        if count > 0:
            stacked = _Capability.stack([c.bound for c in cfgs])
            groups.append((cfgs, stacked, stacked.best_from(), count))
    # per UAV slot: its group, the slots left in that group after it, and the later groups
    slots = [(g, left, groups[i + 1 :]) for i, g in enumerate(groups) for left in reversed(range(g[-1]))]

    t0 = time.monotonic()
    reached = visited = lp_solves = iterations = prunes = 0
    best = None  # (gamma, epochs_away, assignment, flows)
    truncated = False

    def subtree_size(slot: int, ci: int, missing: frozenset) -> tuple[int, int]:
        """The leaves under the slot's pick ci, and how many of them carry
        the missing deliveries, by inclusion-exclusion over the deliveries
        that no later pick makes."""
        (cfgs, *_), left, later = slots[slot]
        pools = [(cfgs[ci:], left)] + [(pool, count) for pool, _, _, count in later]
        sizes = []
        for r in range(len(missing) + 1):
            for absent in itertools.combinations(sorted(missing), r):
                n = 1
                for pool, picks in pools:  # multisets of picks from the pool's configs that make none
                    free = sum(1 for c in pool if c.delivered.isdisjoint(absent))
                    n *= math.comb(free + picks - 1, picks) if picks else 1
                sizes.append((-1) ** r * n)
        return sizes[0], sum(sizes)

    def search(slot: int, lo: int, prefix: _Capability, missing: frozenset, away: int, picks: tuple) -> bool:
        """Visit the slot's configs from index lo on, after the picks so far;
        False once a limit stops the search."""
        nonlocal reached, visited, lp_solves, iterations, prunes, best, truncated
        (cfgs, stacked, best_from, _), left, later = slots[slot]
        last = slot + 1 == D
        # configs run from most to fewest epochs away, so each group's last
        # config has the fewest any later pick can add
        fewest = left * cfgs[-1].epochs_away + sum(n * pool[-1].epochs_away for pool, _, _, n in later)
        bounds = start = None
        for ci in range(lo, len(cfgs)):
            c = cfgs[ci]
            total = away + c.epochs_away
            if last:
                reached += 1
                visited += 1
                if reached > limits.max_assignments or (
                    reached % 256 == 0 and time.monotonic() - t0 > limits.time_budget_s
                ):
                    truncated = True
                    return False
                if not missing <= c.delivered:  # hard feasibility: every delivery needs a carrier
                    continue
            if best is not None and prune_bound:
                if bounds is None:
                    # bound every choice left at once: each adds, slot by slot,
                    # the best record any config a later slot may pick offers,
                    # so no leaf below it sums more quality or servers
                    offer = prefix + stacked[ci:]
                    for _ in range(left):
                        offer = offer + best_from[ci:]
                    for _, _, later_best, count in later:
                        for _ in range(count):
                            offer = offer + later_best[0]
                    bounds, start = _objective_upper_bound(s, offer), ci
                ub = bounds[ci - start]
                # below the incumbent, or level with it and unable to win the
                # tie-break anywhere below
                if ub < best[0] - 1e-12 or (ub <= best[0] + 1e-12 and total + fewest >= best[1]):
                    if last:
                        prunes += 1
                    else:
                        leaves, covering = subtree_size(slot, ci, missing - c.delivered)
                        visited += leaves
                        prunes += covering
                    continue
            if not last:
                if not search(slot + 1, ci if left else 0, prefix + c.bound, missing - c.delivered, total,
                              (*picks, c)):
                    return False
                continue
            assignment = [*picks, c]
            gamma, flows, its = _inner_lp(s, assignment)
            lp_solves += 1
            iterations += its
            # a later assignment is lexicographically larger, so it wins a
            # tie only with fewer epochs away
            if best is None or gamma > best[0] + 1e-12 or (gamma >= best[0] - 1e-12 and total < best[1]):
                best = (gamma, total, assignment, flows)
            # an inner LP can take far longer than the 256 leaves between
            # the checks above, so the budget is read after each one too
            if time.monotonic() - t0 > limits.time_budget_s:
                truncated = True
                return False
        return True

    search(0, 0, _NO_CONFIGS, frozenset(s.deliverable_ids), 0, ())
    counters = dict(lp_solves=lp_solves, simplex_iterations=iterations, bound_prunes=prunes)
    if best is None:
        return ExactResult(None, None, not truncated, visited, False, **counters)
    plan = _assignment_plan(s, best[2], best[3])
    return ExactResult(plan, best[0], not truncated, visited, True, **counters)
