"""Benchmark inputs, all derived from the workload seed.

Only the program's public constructors are used; nothing here imports the
test suite.  The program receives the objects and texts built here and
nothing else.
"""

from __future__ import annotations

import numpy as np

from uavplan.evaluator import Plan
from uavplan.scenario import Location, Mission, PayloadItem, UavSpec, Zone, make_scenario


def flex_fixed_scenario(seed: int, uavs: int):
    """Two locations and one zone served only from the site; coverage and
    monitoring demand outstrip the fleet, so equipment flexibility matters.
    Quality and demand are jittered by the seed (quality by up to 10%,
    demand by up to 5%), the layout is fixed."""
    rng = np.random.default_rng(seed)
    quality = float(np.round(1.0 + 0.1 * rng.uniform(-1, 1), 6))
    need = float(np.round(4.0 * (1.0 + 0.05 * rng.uniform(-1, 1)), 6))
    demand = []
    for k in (1, 2):
        demand += [(k, "coverage", 0, need), (k, "monitoring", 0, need)]
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 2.0, 0.0, False)],
        zones=[Zone(0, {1: {"coverage": quality, "monitoring": quality}})],
        uav=UavSpec(4.0, 2.5, 200.0, 2.5, uavs),
        payloads=[PayloadItem(0, 1.0, "radio"), PayloadItem(1, 1.0, "camera")],
        missions=[
            Mission(0, "coverage", (0,), 20.0),
            Mission(1, "monitoring", (1,), 5.0),
            Mission(2, "relay", (0,), 0.0),
        ],
        epochs=4,
        horizon=3,
        demand_entries=demand,
    )


def fixed_split(s):
    """Equipment groups of the fixed mode: one third of the fleet radio-only,
    one third camera-only, the rest carrying both."""
    radio = s.mission_by_name("relay").requires[0]
    camera = next(e for e in s.equipment_ids if e != radio)
    third = s.num_uavs // 3
    groups = []
    if third:
        groups.append((third, frozenset({radio}), frozenset({camera})))
        groups.append((third, frozenset({camera}), frozenset({radio})))
    if s.num_uavs - 2 * third:
        groups.append((s.num_uavs - 2 * third, frozenset({radio, camera}), frozenset()))
    return groups


def solution_text(s, plan: Plan) -> str:
    """Solver output (`name value` lines) for the exported MILP of s that
    encodes plan: every location and payload binary, plus the nonzero
    allocations, relay efforts and transfers."""
    D, K, L, P = s.num_uavs, s.epochs, s.num_locations, s.num_payloads
    lines = []
    for d in range(D):
        for k in range(K):
            for l in range(L):
                lines.append(f"lam_{d}_{k}_{l} {1 if plan.locations[d, k] == l else 0}")
    for d in range(D):
        for k in range(K):
            for p in range(P):
                lines.append(f"om_{d}_{k}_{p} {int(plan.payloads[d, k, p])}")
    for d, k, m, z in np.argwhere(plan.mission_alloc != 0):
        lines.append(f"mu_{d}_{k}_{m}_{z} {float(plan.mission_alloc[d, k, m, z])!r}")
    for d, k in np.argwhere(plan.relay_frac != 0):
        lines.append(f"rho_{d}_{k} {float(plan.relay_frac[d, k])!r}")
    for d, k in np.argwhere(plan.sink_transfers != 0):
        lines.append(f"tausink_{d}_{k} {float(plan.sink_transfers[d, k])!r}")
    for d1, d2, k in np.argwhere(plan.transfers != 0):
        lines.append(f"tau_{d1}_{d2}_{k} {float(plan.transfers[d1, d2, k])!r}")
    return "\n".join(lines) + "\n"


PLAN_FIELDS = ("locations", "payloads", "mission_alloc", "relay_frac", "transfers", "sink_transfers")


def plans_equal(a: Plan, b: Plan) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in PLAN_FIELDS)


def _idle_window(s, plan: Plan):
    """(d, k) where the UAV sits at a depot carrying nothing and doing
    nothing at epochs k-1, k and k+1."""
    depots = set(s.depot_ids)
    D, K = plan.locations.shape
    for d in range(D):
        for k in range(1, K - 1):
            win = slice(k - 1, k + 2)
            if (
                all(int(l) in depots for l in plan.locations[d, win])
                and not plan.payloads[d, win].any()
                and not plan.mission_alloc[d, k].any()
                and plan.relay_frac[d, k] == 0
            ):
                return d, k
    return None


def perturbed_plans(s, plan: Plan) -> list[tuple[str, Plan, set]]:
    """Copies of a feasible plan, each breaking exactly one constraint
    family: (label, plan, expected violation tags).  Every value stays
    finite.  Raises ValueError when the plan offers no place for one."""
    out = []
    depot = s.depot_ids[0]

    # TRAVEL: an idle parked UAV jumps to the nearest location beyond one
    # epoch's reach and back; the hop stays within the battery.
    spot = _idle_window(s, plan)
    if spot is None:
        raise ValueError("plan has no idle depot window to perturb")
    d, k = spot
    reach = s.uav.max_step_km
    far = [l for l in range(s.num_locations) if s.dist_km[depot, l] > reach + 1e-3]
    hop = min(far, key=lambda l: (s.dist_km[depot, l], l))
    if s.energy_wh_per_kg[depot, hop] * s.uav.empty_weight_kg >= s.uav.battery_capacity_wh:
        raise ValueError("nearest out-of-reach location also drains the battery")
    p = plan.copy()
    p.locations[d, k] = hop
    out.append(("travel", p, {"TRAVEL"}))

    # BUDGET: extra relay effort pushes one busy UAV-epoch a quarter over
    # its time budget while relay_frac itself stays within [0, 1].
    mu_sum = plan.mission_alloc.sum(axis=(2, 3))
    radio = s.mission_by_name("relay").requires[0]
    busy = np.argwhere((mu_sum >= 0.25) & plan.payloads[:, :, radio])
    if not busy.size:
        raise ValueError("plan has no busy UAV-epoch to overload")
    d, k = (int(i) for i in busy[0])
    p = plan.copy()
    p.relay_frac[d, k] = 1.25 - mu_sum[d, k]
    out.append(("over-budget", p, {"BUDGET"}))

    # DELIVERY: the first delivery pack never leaves the depot.
    pack = s.deliverable_ids[0]
    p = plan.copy()
    p.payloads[:, :, pack] = False
    out.append(("undelivered", p, {"DELIVERY"}))
    return out
