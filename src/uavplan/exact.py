"""Desk-scale exact optimizer.

solve_exact enumerates every feasible trajectory/payload schedule (config) per
UAV with battery pruning, then searches the assignments of configs to UAVs
depth-first with delivery-cover and objective-bound pruning (of whole
subtrees, by the most any later pick can add), and for each remaining
complete assignment solves the remaining continuous problem (allocations,
relay effort, transfers, satisfaction) with the bundled simplex.  UAVs within
an equipment group are interchangeable, so config indices never decrease
within a group: the search visits each multiset once, in lexicographic order.

solve_model_exhaustive is an independent path to the same optimum: it takes a
built (or re-parsed) MILP, branches over its binary variables with bound
propagation, and hands every completed assignment's continuous remainder to
the same simplex.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Plan
from .milp import MilpModel
from .scenario import Scenario, require_valid, windowed_sum
from .simplex import simplex_solve


class GuardError(RuntimeError):
    """Instance exceeds the desk-scale guards."""


@dataclass(frozen=True)
class EnumerationLimits:
    max_assignments: int = 2_000_000
    time_budget_s: float = 600.0
    size_guard: int = 64  # cap on uavs * epochs * locations

    def __post_init__(self):
        if self.max_assignments <= 0 or self.time_budget_s <= 0 or self.size_guard <= 0:
            raise ValueError("enumeration limits must be positive")


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

    quality and relay record what it can serve: quality is (K, M, Z), the
    quality at its location for every service mission its aboard set equips,
    zero elsewhere; relay is (K,), the epochs that carry the relay equipment.
    bound is what it offers the objective bound, from its usable quality:
    quality less, when the scenario has a relay mission, every mission that
    generates data at epochs without the relay equipment (the inner LP's flow
    rows hold that work at zero).  Over the needed cells, the (epoch, zone)
    pairs with window need on some service mission, in row-major order, its
    servers count the epochs in the window ending at that epoch that can use
    the zone, and its time_need (cells, M) is each mission's window need over
    the best usable quality in that window: inf where there is none, zero
    where nothing is needed.  All arrays are read-only and take no part in
    equality or hashing."""

    locs: tuple[int, ...]
    aboard: tuple[frozenset, ...]
    delivered: frozenset  # deliverable payload ids this config drops in-window
    epochs_away: int
    min_battery: float
    quality: np.ndarray = field(compare=False, repr=False)
    relay: np.ndarray = field(compare=False, repr=False)
    bound: _Capability = field(compare=False, repr=False)


def _payload_subsets(s: Scenario, forced_on: frozenset, forbidden: frozenset) -> list[frozenset]:
    w = s.payload_weights()
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
    w = s.payload_weights()
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
    w = s.payload_weights()
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
    sends = np.array([relay is not None and m.mb_per_work > 0 for m in s.missions], dtype=bool)[:, None]
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
        arrays = (quality, relay_at, usable, servers, time_need)
        for arr in arrays:
            arr.setflags(write=False)
        bound = _Capability(usable, servers, time_need)
        out.append(_Config(tuple(locs), tuple(aboard), frozenset(delivered), away, min_batt, quality, relay_at,
                           bound))

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
    """LP over (mu, rho, tau, tausink, sigma, sigma_bar, Gamma) for fixed
    trajectories.

    Each column family is a mask, numbered in row-major order: mu (D, K, M, Z)
    where the config offers quality and the zone has demand, rho (D, K) where
    it carries the relay equipment, tau (D, D, K) and tausink (D, K) where
    that relay has a link, sigma (K, M, Z) on the needed ratios and sigma_bar
    (M,) on the service missions; Gamma is last.  Returns (gamma, flows,
    simplex iterations), flows being the optimum's mission_alloc,
    relay_frac, transfers and sink_transfers plan arrays."""
    D, K, M, Z = len(assignment), s.epochs, s.num_missions, s.num_zones
    flows = (np.zeros((D, K, M, Z)), np.zeros((D, K)), np.zeros((D, D, K)), np.zeros((D, K)))
    if not s.service_mission_ids:
        return 1.0, flows, 0
    locs = np.array([cfg.locs for cfg in assignment])
    quality = np.stack([cfg.quality for cfg in assignment])
    mu = (quality > 0) & (s.demand > 0)
    rho = np.stack([cfg.relay for cfg in assignment])
    link, sink_link = s.link_uav_mb[locs[:, None], locs[None]], s.link_sink_mb[locs]  # (D, D, K), (D, K)
    tau = rho[:, None] & (link > 0) & ~np.eye(D, dtype=bool)[:, :, None]
    sink = rho & (sink_link > 0)
    sig = s.needed_ratios
    serving = np.zeros(M, dtype=bool)
    serving[list(s.service_mission_ids)] = True
    masks = (mu, rho, tau, sink, sig, serving)
    at = np.cumsum([0] + [np.count_nonzero(mask) for mask in masks])
    mu_col, rho_col, tau_col, sink_col, sig_col, bar_col = map(_number, masks, at)
    gamma = at[-1]
    d, k, m, z = np.nonzero(mu)
    mu_cols, mu_q = mu_col[mu], quality[mu]
    d1, d2, k_tau = np.nonzero(tau)
    tau_cols, sink_cols = tau_col[tau], sink_col[sink]
    # one capacity row per tau, then per tausink, against the sender's rho
    caps = np.concatenate([tau_cols, sink_cols])
    senders = np.concatenate([rho_col[d1, k_tau], rho_col[sink]])
    cap_mb = np.concatenate([link[tau], sink_link[sink]])
    k_sig, m_sig, z_sig = np.nonzero(sig)
    sig_cols, bars = sig_col[sig], bar_col[serving]
    cell, j = np.arange(len(sig_cols)), np.arange(len(bars))

    budget, need, lines = _number(mu.any(axis=(2, 3)) | rho), _number(mu.any(axis=0)), np.arange(len(caps))
    ub = [
        # time budget per UAV-epoch
        (np.ones(budget.max() + 1), (budget[d, k], mu_cols, 1.0), (budget[rho], rho_col[rho], 1.0)),
        # zone needs per epoch
        (s.demand[need >= 0], (need[k, m, z], mu_cols, mu_q)),
        # relay link capacities
        (np.zeros(len(caps)), (lines, caps, 1.0), (lines, senders, -cap_mb)),
        # each sigma bounds its sigma_bar and is at most 1
        (np.tile([0.0, 1.0], len(cell)), (2 * cell, bar_col[m_sig], 1.0), (2 * cell, sig_cols, -1.0),
         (2 * cell + 1, sig_cols, 1.0)),
        # each sigma_bar is at most 1 and bounds Gamma
        (np.tile([1.0, 0.0], len(j)), (2 * j, bars, 1.0), (2 * j + 1, gamma, 1.0), (2 * j + 1, bars, -1.0)),
    ]
    eq = []
    if s.relay_index is not None:  # flow conservation per UAV-epoch
        rate = np.array([mission.mb_per_work for mission in s.missions])[:, None]  # (M, 1)
        sending = mu & (rate != 0)
        flow = _number(sending.any(axis=(2, 3)) | tau.any(axis=0) | tau.any(axis=1) | sink)
        data = (flow[np.nonzero(sending)[:2]], mu_col[sending], (rate * quality)[sending])
        relayed = (flow[d2, k_tau], tau_cols, 1.0), (flow[d1, k_tau], tau_cols, -1.0)
        eq.append((np.zeros(flow.max() + 1), data, *relayed, (flow[sink], sink_cols, -1.0)))
    # each sigma's definition over the mu of its window, one lag at a time
    defined = [(cell, sig_cols, s.window_need[sig])]
    for lag in range(min(s.horizon, K - 1) + 1):
        cells = cell[k_sig >= lag]
        h, mc, zc = k_sig[cells] - lag, m_sig[cells], z_sig[cells]
        cols = mu_col[:, h, mc, zc]  # (D, cells): each UAV's mu lag epochs back
        has = cols >= 0
        defined.append((np.broadcast_to(cells, cols.shape)[has], cols[has], -quality[:, h, mc, zc][has]))
    eq.append((np.zeros(len(cell)), *defined))

    c = np.zeros(gamma + 1)
    c[gamma] = 1.0
    res = simplex_solve(c, *_stack_rows(ub, gamma + 1), *_stack_rows(eq, gamma + 1))
    if res.status != "optimal":  # all-zero service is always feasible
        raise RuntimeError(f"inner LP came back {res.status}")
    for plan_array, mask, col in zip(flows, masks, (mu_col, rho_col, tau_col, sink_col)):
        plan_array[mask] = res.x[col[mask]]
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
    if sum(g[0] for g in equipment_groups) != D:
        raise ValueError("equipment group counts must sum to the fleet size")

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


# -- generic brute force over a built MILP ---------------------------------------


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
