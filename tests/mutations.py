"""Surgical plan mutations: each breaks exactly one constraint family.

All mutators operate on mutation_scenario's base plan, where UAV0 runs a
delivery tour, UAV1 serves zone 0 from location 1, and UAVs 2 and 3 idle at
the depot with plenty of slack in every other constraint.
"""

from __future__ import annotations

import numpy as np


def _uav1_traffic(s, plan, k):
    """Generated Mb at (UAV1, k) recomputed the same way the checker does."""
    q = s.quality
    l = plan.locations[1, k]
    gen = 0.0
    for m in s.service_mission_ids:
        rate = s.missions[m].mb_per_work
        for z in range(s.num_zones):
            gen += plan.mission_alloc[1, k, m, z] * q[l, m, z] * rate
    return gen


def mutate_finite(s, plan, rng):
    """A NaN fails every tolerance comparison, so it trips no other check."""
    p = plan.copy()
    name = ("mission_alloc", "relay_frac", "transfers", "sink_transfers")[int(rng.integers(4))]
    arr = getattr(p, name)
    arr[tuple(int(rng.integers(n)) for n in arr.shape)] = np.nan
    return p


def mutate_loc_unique(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(1, s.epochs - 1))
    p.locations[2, k] = s.num_locations + int(rng.integers(1, 40))
    return p


def mutate_travel(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(2, s.epochs - 3))
    p.locations[2, k] = int(rng.integers(2, 7))  # 4.8+ km from the depot
    return p


def mutate_capacity(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(1, s.epochs - 1))
    p.payloads[2, k, 3] = True  # ballast-a, 2 kg
    p.payloads[2, k, 4] = True  # ballast-b, 2 kg
    return p


def mutate_payload_lock(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(3, 9))  # UAV1 is away at location 1
    p.payloads[1, k, 2] = True  # the 0.5 kg pack appears mid-flight
    return p


def mutate_battery(s, plan, rng):
    p = plan.copy()
    reach = int(rng.integers(4, 6))
    k0 = int(rng.integers(1, s.epochs - (2 * reach + 2)))
    walk = list(range(1, reach + 1)) + list(range(reach - 1, -1, -1))
    for j, loc in enumerate(walk):
        p.locations[3, k0 + 1 + j] = loc
    return p


def mutate_delivery(s, plan, rng):
    p = plan.copy()
    p.payloads[0, :, 2] = False
    return p


def mutate_equip(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(1, s.epochs - 1))
    m = int(rng.choice([0, 1]))
    p.mission_alloc[2, k, m, 0] = float(rng.uniform(0.1, 0.9))
    return p


def mutate_need(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(2, 9))
    delta = float(rng.uniform(0.12, 0.28))
    p.mission_alloc[1, k, 0, 0] += delta
    gen = _uav1_traffic(s, p, k)
    t_sink = float(s.link_sink_mb[p.locations[1, k]])
    p.sink_transfers[1, k] = gen
    p.relay_frac[1, k] = gen / t_sink
    return p


def mutate_flow(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(2, 9))
    other = int(rng.choice([0, 2, 3]))
    p.transfers[1, other, k] = float(rng.uniform(0.01, 1.0))
    return p


def mutate_relay_cap(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(2, 9))
    p.relay_frac[1, k] *= float(rng.uniform(0.2, 0.8))
    return p


def mutate_sink(s, plan, rng):
    """Sub-tolerance leaks on every UAV stay invisible per flow row but add
    up beyond tolerance in the fleet-wide balance."""
    p = plan.copy()
    k = int(rng.integers(2, 9))
    leak = float(rng.uniform(6e-7, 9.5e-7))
    for d in range(s.num_uavs):
        p.sink_transfers[d, k] += leak
    return p


def mutate_budget(s, plan, rng):
    p = plan.copy()
    k = int(rng.integers(2, 9))
    alloc = float(rng.uniform(0.5, 0.9))
    p.mission_alloc[1, k, 0, 2] = alloc  # zone 2 demand dwarfs the service
    gen = _uav1_traffic(s, p, k)
    t_sink = float(s.link_sink_mb[p.locations[1, k]])
    p.sink_transfers[1, k] = gen
    p.relay_frac[1, k] = gen / t_sink
    return p


def mutate_depot_return(s, plan, rng):
    p = plan.copy()
    if rng.random() < 0.5:
        p.locations[3, s.epochs - 1] = 1
    else:
        p.locations[3, 0] = 1
    return p


MUTATORS = {
    "FINITE": mutate_finite,
    "LOC-UNIQUE": mutate_loc_unique,
    "TRAVEL": mutate_travel,
    "CAPACITY": mutate_capacity,
    "PAYLOAD-LOCK": mutate_payload_lock,
    "BATTERY": mutate_battery,
    "DELIVERY": mutate_delivery,
    "EQUIP": mutate_equip,
    "NEED": mutate_need,
    "FLOW": mutate_flow,
    "RELAY-CAP": mutate_relay_cap,
    "SINK": mutate_sink,
    "BUDGET": mutate_budget,
    "DEPOT-RETURN": mutate_depot_return,
}
