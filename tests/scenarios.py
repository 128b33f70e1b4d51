"""Hand-built and seeded scenario builders shared across the test suite."""

from __future__ import annotations

import numpy as np

from uavplan.scenario import (
    Location,
    Mission,
    PayloadItem,
    Scenario,
    UavSpec,
    Zone,
    make_scenario,
)
from uavplan.synth import Dims, generate_synthetic


def tiny_delivery() -> Scenario:
    """One UAV, a depot and a target 1 km out, one delivery, no missions."""
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 1.0, 0.0, False)],
        zones=[],
        uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
        payloads=[PayloadItem(0, 0.5, "pack", True, 1, (1, 1))],
        missions=[],
        epochs=3,
        horizon=1,
    )


def tiny_mixed(**changes) -> Scenario:
    """Two UAVs, three locations, four epochs, one delivery plus a coverage
    zone; small enough for every engine.  ``changes`` replaces make_scenario
    arguments: link-capacity overrides (``link_uav_entries``,
    ``link_sink_entries``) or any part of the instance."""
    parts = dict(
        locations=[
            Location(0, 0.0, 0.0, True),
            Location(1, 1.0, 0.0, False),
            Location(2, 1.5, 1.0, False),
        ],
        zones=[Zone(0, {1: {"coverage": 1.0}, 2: {"coverage": 2.0}})],
        uav=UavSpec(4.0, 2.5, 200.0, 2.0, 2),
        payloads=[
            PayloadItem(0, 1.0, "radio"),
            PayloadItem(1, 0.5, "pack", True, 1, (1, 2)),
        ],
        missions=[
            Mission(0, "coverage", (0,), 10.0),
            Mission(1, "relay", (0,), 0.0),
        ],
        epochs=4,
        horizon=2,
        demand_entries=[(1, "coverage", 0, 1.5), (2, "coverage", 0, 1.5)],
    )
    return make_scenario(**{**parts, **changes})


def mutation_scenario() -> Scenario:
    """Line topology with slack everywhere, used for surgical constraint
    mutations: 12 locations 2.4 km apart, 4 UAVs, ballast payloads for
    capacity tests, one delivery, moderated demand."""
    locs = [Location(i, 2.4 * i, 0.0, i == 0) for i in range(12)]
    zones = [
        Zone(0, {1: {"coverage": 2.0, "monitoring": 2.0}}),
        Zone(1, {2: {"coverage": 1.5, "monitoring": 1.5}}),
        Zone(2, {1: {"coverage": 1.0}}),
    ]
    payloads = [
        PayloadItem(0, 1.0, "radio"),
        PayloadItem(1, 1.0, "camera"),
        PayloadItem(2, 0.5, "pack", True, 2, (2, 8)),
        PayloadItem(3, 2.0, "ballast-a"),
        PayloadItem(4, 2.0, "ballast-b"),
    ]
    missions = [
        Mission(0, "coverage", (0,), 20.0),
        Mission(1, "monitoring", (1,), 5.0),
        Mission(2, "relay", (0,), 0.0),
    ]
    demand = []
    for k in range(2, 21):
        demand += [
            (k, "coverage", 0, 1.0),
            (k, "monitoring", 0, 0.7),
            (k, "coverage", 1, 2.0),
            (k, "monitoring", 1, 2.0),
            (k, "coverage", 2, 50.0),
        ]
    return make_scenario(
        locations=locs,
        zones=zones,
        uav=UavSpec(4.0, 2.5, 200.0, 2.5, 4),
        payloads=payloads,
        missions=missions,
        epochs=24,
        horizon=6,
        demand_entries=demand,
    )


def mutation_base_plan(s: Scenario):
    """Known-feasible plan on mutation_scenario: UAV0 delivers, UAV1 serves
    zone 0 from location 1, UAVs 2 and 3 idle as mutation canvases."""
    from uavplan.evaluator import Plan

    p = Plan.idle(s)
    # UAV0: depot, depot, loc1, loc2 (deliver), loc1, depot, idle...
    for k, l in ((2, 1), (3, 2), (4, 1)):
        p.locations[0, k] = l
    for k in range(1, 5):
        for pid in (0, 1, 2):
            p.payloads[0, k, pid] = True
    # UAV1: sits at loc1 epochs 2..8 with radio+camera, serving zone 0
    for k in range(2, 9):
        p.locations[1, k] = 1
    for k in range(1, 9):
        p.payloads[1, k, 0] = True
        p.payloads[1, k, 1] = True
    t_sink = float(s.link_sink_mb[1])
    for k in range(2, 9):
        p.mission_alloc[1, k, 0, 0] = 0.4  # coverage on zone 0, q = 2.0
        p.mission_alloc[1, k, 1, 0] = 0.3  # monitoring on zone 0, q = 2.0
        gen = 0.4 * 2.0 * 20.0 + 0.3 * 2.0 * 5.0  # 19 Mb
        p.relay_frac[1, k] = gen / t_sink
        p.sink_transfers[1, k] = gen
    return p


def flex_fixed_scenario(seed: int, uavs: int) -> Scenario:
    """Two locations, one zone served from the site only; coverage and
    monitoring demand outstrip the fleet so equipment flexibility matters."""
    rng = np.random.default_rng(seed)
    jq = float(np.round(1.0 + 0.1 * rng.uniform(-1, 1), 6))
    jn = float(np.round(4.0 * (1.0 + 0.05 * rng.uniform(-1, 1)), 6))
    demand = []
    for k in (1, 2):
        demand += [(k, "coverage", 0, jn), (k, "monitoring", 0, jn)]
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 2.0, 0.0, False)],
        zones=[Zone(0, {1: {"coverage": jq, "monitoring": jq}})],
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


# dims pools for the tiny oracle-triangle instances: (L, Z, D, P, K);
# two-UAV rows stay at two locations so the exported-model brute force
# finishes inside the acceptance budget
TINY_DIMS = [
    (2, 1, 1, 1, 4),
    (3, 1, 1, 1, 4),
    (3, 1, 1, 2, 5),
    (3, 2, 1, 1, 4),
    (2, 1, 2, 1, 4),
    (2, 2, 2, 1, 4),
    (4, 1, 1, 1, 4),
    (3, 2, 1, 2, 5),
    (2, 1, 2, 1, 5),
    (4, 2, 1, 1, 5),
]


def tiny_instance(seed: int) -> Scenario:
    """Two-UAV rows skip the monitoring mission: one less payload keeps the
    exported-model brute force inside the oracle-triangle time budget."""
    L, Z, D, P, K = TINY_DIMS[seed % len(TINY_DIMS)]
    return generate_synthetic(seed, Dims(L, Z, D, P, K), include_monitoring=(D == 1))
