"""Deterministic synthetic instance generator.

Layouts follow the reference setting: locations uniform in a square sized for a
~2 km mean nearest-neighbor spacing, a single corner depot, zones reachable
from about two locations each, and delivery windows of 5 epochs (blood packs)
or 10 epochs (medicine).  Every generated delivery is guaranteed to admit a
dedicated depot round trip within its window and battery budget at full
equipment, so instances are never trivially infeasible; layouts that cannot
offer enough such targets are redrawn from the same seeded stream.  A draw
with too few targets even in straight-line battery range is redrawn before its
shortest paths are computed; it still counts as one of the MAX_ATTEMPTS.
Dims under which no delivery fits (fewer than 3 epochs, or no location besides
the depot) are refused before anything is drawn.

The reference UAV and mission values are fixed module constants: 4 kg empty
weight, 2.5 kg payload capacity, a 200 Wh battery, 3.125 Wh per km and kg
(hover counted as 0.1 km per epoch), 10-minute epochs, 1 kg radio and camera,
50 and 10 Mb per unit of coverage and monitoring work, and a dedicated round
trip within 90% of the battery.  The per-epoch step is the larger of 2.5 km
and 1.05 times the layout's longest minimum-spanning-tree edge, so every
location is reachable.  With the monitoring mission, every zone has monitoring
demand 1 in each demand epoch.  Only the satisfaction horizon, the two pack
weights and whether monitoring is included vary per call.

Stream contract: one seeded numpy Generator makes every draw.  After the
layout and the deliveries, each zone in turn draws, in this order: its number
of serving locations (`integers`), those locations (`choice`), one block of
(coverage, monitoring) quality pairs in location order (monitoring is drawn
even when the mission is left out), the scalar demand base, and one block of
demand factors, one per demand epoch.  A block of n uniform draws gives the
same doubles as n scalar draws, and the blocks are rounded to 6 decimals by
numpy's round, as single values were, so batching inside this order keeps
every scenario byte-identical.  Moving a draw from one zone to another, or
ahead of a zone, changes the stream and re-pins every generator digest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import all_pairs_shortest, mst_max_edge, reconstruct
from .scenario import (
    MAX_TENSOR_CELLS,
    Location,
    Mission,
    PayloadItem,
    Scenario,
    ScenarioError,
    UavSpec,
    Zone,
    check_tensor_cells,
    make_scenario,
    validate,
)


@dataclass(frozen=True)
class Dims:
    locations: int
    zones: int
    uavs: int
    deliveries: int
    epochs: int


PRESETS: dict[str, dict] = {
    # small-scale setting used for comparisons against the exact optimizer
    "sf-small": {
        "dims": Dims(locations=6, zones=4, uavs=4, deliveries=2, epochs=10),
        "horizon": 5,
        "pack_weights": (0.5, 0.3),
    },
    # full-size setting: 40 locations, 50 zones, 20 deliveries, 20 epochs
    "sf-large": {
        "dims": Dims(locations=40, zones=50, uavs=8, deliveries=20, epochs=20),
        "horizon": 10,
    },
}


class GenerationError(ValueError):
    pass


SPACING_KM = 2.0  # mean nearest-neighbor spacing
EMPTY_WEIGHT_KG = 4.0
PAYLOAD_CAPACITY_KG = 2.5
BATTERY_CAPACITY_WH = 200.0
E_PER_KM_KG = 3.125
HOVER_KM_EQUIV = 0.1
EPOCH_MINUTES = 10.0
PACK_WINDOWS = (5, 10)  # epochs, blood / medicine
EQUIPMENT_WEIGHT_KG = 1.0  # radio and camera each
COVERAGE_MB_PER_WORK = 50.0
MONITORING_MB_PER_WORK = 10.0
MONITORED_FRACTION = 1.0  # share of zones with monitoring demand
BATTERY_SAFETY = 0.9  # share of the battery a dedicated round trip may use
MAX_ATTEMPTS = 500  # layout redraws before giving up


def generate_synthetic(
    seed: int,
    dims: Dims,
    *,
    horizon: int | None = None,
    pack_weights: tuple[float, float] = (0.25, 0.2),
    include_monitoring: bool = True,
) -> Scenario:
    """Deterministic scenario synthesis; identical (seed, dims, options) give
    byte-identical scenarios on re-serialization."""
    if not isinstance(dims, Dims):
        raise GenerationError(f"unsupported dims spec: {dims!r}")
    d = dims
    if d.locations < 1 or d.uavs < 1 or d.epochs < 1:
        raise GenerationError("locations, uavs and epochs must be at least 1")
    if d.zones < 0 or d.deliveries < 0:
        raise GenerationError("zones and deliveries must be nonnegative")
    if horizon is None:
        horizon = max(1, d.epochs // 2)

    include_missions = d.zones > 0
    n_equipment = (2 if include_monitoring else 1) if include_missions else 0
    n_missions = n_equipment + 1 if include_missions else 0  # one per equipment, plus relay
    _check_sizes(d, n_missions, n_payloads=n_equipment + d.deliveries)
    if d.deliveries:
        # a delivery goes out and comes back: 2 * hops <= epochs - 1 with hops >= 1
        if d.epochs < 3:
            raise GenerationError(f"deliveries need at least 3 epochs, got epochs={d.epochs}")
        if d.locations < 2:
            raise GenerationError(
                f"deliveries need a non-depot location, got locations={d.locations}"
            )
    if seed < 0:
        raise GenerationError(f"seed must be nonnegative, got seed={seed}")
    rng = np.random.default_rng(seed)
    equip_w = n_equipment * EQUIPMENT_WEIGHT_KG
    heaviest_pack = max(pack_weights) if d.deliveries else 0.0
    if equip_w + heaviest_pack > PAYLOAD_CAPACITY_KG:
        raise GenerationError("equipment plus one pack exceeds payload capacity")

    needed_targets = 0
    if d.deliveries:
        # ask for spread-out targets only when the map can offer them
        needed_targets = min(3, max(1, (d.locations - 1) // 5))

    side = 2.0 * SPACING_KM * np.sqrt(d.locations)
    gross = EMPTY_WEIGHT_KG + equip_w + heaviest_pack
    # a path is never shorter than the straight line, so a draw with too few
    # targets in straight-line range is one the full check below refuses; the
    # relative margin covers float summation along a path
    straight_limit = BATTERY_SAFETY * BATTERY_CAPACITY_WH * (1.0 + 1e-9)
    for _ in range(MAX_ATTEMPTS):
        coords = rng.uniform(0.0, side, size=(d.locations, 2))
        coords[0] = (0.0, 0.0)  # depot anchors a corner
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        if d.deliveries:
            in_range = 2.0 * dist[0, 1:] * E_PER_KM_KG * gross <= straight_limit
            if np.count_nonzero(in_range) < needed_targets:
                continue
        vmax = max(2.5, mst_max_edge(dist) * 1.05)
        path_km, next_hop = all_pairs_shortest(dist, vmax)

        eligible = []
        for l in range(1, d.locations):
            if not np.isfinite(path_km[0, l]):
                continue
            hops = len(reconstruct(next_hop, 0, l)) - 1
            if 2 * hops > d.epochs - 1:
                continue  # no epoch left to go out and return
            if 2.0 * path_km[0, l] * E_PER_KM_KG * gross > BATTERY_SAFETY * BATTERY_CAPACITY_WH:
                continue
            eligible.append((l, hops))
        if d.deliveries and len(eligible) < needed_targets:
            continue
        break
    else:
        raise GenerationError(
            f"could not draw a layout with {needed_targets} reachable delivery targets "
            f"in {MAX_ATTEMPTS} attempts; dims are inconsistent with the UAV range"
        )

    locations = [
        Location(id=i, x=float(coords[i, 0]), y=float(coords[i, 1]), is_depot=(i == 0))
        for i in range(d.locations)
    ]

    payloads: list[PayloadItem] = []
    missions: list[Mission] = []
    if include_missions:
        payloads.append(PayloadItem(id=0, weight_kg=EQUIPMENT_WEIGHT_KG, name="radio"))
        missions = [Mission(id=0, name="coverage", requires=(0,), mb_per_work=COVERAGE_MB_PER_WORK)]
        if include_monitoring:
            payloads.append(PayloadItem(id=1, weight_kg=EQUIPMENT_WEIGHT_KG, name="camera"))
            missions.append(
                Mission(id=1, name="monitoring", requires=(1,), mb_per_work=MONITORING_MB_PER_WORK)
            )
        missions.append(
            Mission(id=len(missions), name="relay", requires=(0,), mb_per_work=0.0)
        )

    hop_count = {l: h for l, h in eligible}
    target_pool = [l for l, _ in eligible]
    for i in range(d.deliveries):
        kind = i % 2  # alternate blood / medicine
        weight = pack_weights[kind]
        win_len = PACK_WINDOWS[kind]
        target = target_pool[int(rng.integers(len(target_pool)))]
        hops = hop_count[target]
        lo, hi = hops, d.epochs - 1 - hops
        k_star = int(rng.integers(lo, hi + 1))
        a = max(0, k_star - int(rng.integers(0, win_len)))
        b = min(d.epochs - 1, a + win_len - 1)
        payloads.append(
            PayloadItem(
                id=len(payloads),
                weight_kg=weight,
                name=("blood-%d" % i) if kind == 0 else ("medicine-%d" % i),
                deliverable=True,
                target=target,
                window=(a, b),
            )
        )

    zones: list[Zone] = []
    demand_entries: list[tuple] = []
    if include_missions:
        k_lo = min(2, d.epochs - 1)
        k_hi = max(k_lo, d.epochs - 2)
        monitored = rng.random(d.zones) < MONITORED_FRACTION
        for z in range(d.zones):
            n_wire = int(rng.integers(1, 4))  # one to three serving locations
            wired = rng.choice(d.locations, size=min(n_wire, d.locations), replace=False)
            locs = sorted(wired.tolist())
            # one (coverage, monitoring) pair per location, in location order
            quality = rng.uniform(0.5, 1.5, size=(len(locs), 2)).round(6).tolist()
            if include_monitoring:
                served = {l: {"coverage": c, "monitoring": m} for l, (c, m) in zip(locs, quality)}
            else:
                served = {l: {"coverage": c} for l, (c, _) in zip(locs, quality)}
            zones.append(Zone(id=z, served_from=served))
            base = float(rng.uniform(0.3, 1.0))
            factors = rng.uniform(0.8, 1.2, size=k_hi - k_lo + 1)
            for k, cov in enumerate((base * factors).round(6).tolist(), start=k_lo):
                demand_entries.append((k, "coverage", z, cov))
                if include_monitoring and monitored[z]:
                    demand_entries.append((k, "monitoring", z, 1.0))

    s = make_scenario(
        locations=locations,
        zones=zones,
        uav=UavSpec(
            empty_weight_kg=EMPTY_WEIGHT_KG,
            payload_capacity_kg=PAYLOAD_CAPACITY_KG,
            battery_capacity_wh=BATTERY_CAPACITY_WH,
            max_step_km=float(vmax),
            count=d.uavs,
        ),
        payloads=payloads,
        missions=missions,
        epochs=d.epochs,
        horizon=horizon,
        demand_entries=demand_entries,
        e_per_km_kg=E_PER_KM_KG,
        hover_km_equiv=HOVER_KM_EQUIV,
        epoch_minutes=EPOCH_MINUTES,
    )
    issues = s.derived(validate)  # kept, so the engines do not validate s again
    if issues:  # generator bug if this ever fires
        raise GenerationError("generated scenario failed validation: " + "; ".join(map(str, issues)))
    return s


def _check_sizes(d: Dims, n_missions: int, n_payloads: int) -> None:
    """Refuse, before anything is drawn or allocated, dims whose scenario the
    loader would refuse (check_tensor_cells) or whose (L, L) matrices or
    (L, M, Z) quality tensor exceed MAX_TENSOR_CELLS."""
    try:
        check_tensor_cells(d.uavs, d.epochs, n_missions, d.zones, n_payloads)
    except ScenarioError as exc:
        raise GenerationError(str(exc)) from None
    for what, cells in (
        ("the distance matrices (locations x locations)", d.locations * d.locations),
        ("the quality tensor (locations x missions x zones)", d.locations * n_missions * d.zones),
    ):
        if cells > MAX_TENSOR_CELLS:
            raise GenerationError(f"scenario too large: {what} would exceed {MAX_TENSOR_CELLS} cells")


def generate_preset(name: str, seed: int, uavs: int | None = None) -> Scenario:
    """Generate one of the named reference scenarios."""
    if name not in PRESETS:
        raise GenerationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    cfg = dict(PRESETS[name])
    dims: Dims = cfg.pop("dims")
    if uavs is not None:
        dims = Dims(dims.locations, dims.zones, uavs, dims.deliveries, dims.epochs)
    return generate_synthetic(seed, dims, **cfg)
