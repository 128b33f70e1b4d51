"""Plan feasibility checking and the min-max satisfaction objective.

All operations are pure functions of (Scenario, Plan); nothing here mutates
shared state, so plans can be evaluated concurrently.  check_feasibility is
the one feasibility authority: every solver's output must come back clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .scenario import Scenario, windowed_sum

# Canonical constraint tags, in report order.
TAGS = (
    "FINITE",
    "LOC-UNIQUE",
    "TRAVEL",
    "CAPACITY",
    "PAYLOAD-LOCK",
    "BATTERY",
    "DELIVERY",
    "EQUIP",
    "NEED",
    "FLOW",
    "RELAY-CAP",
    "SINK",
    "BUDGET",
    "DEPOT-RETURN",
)
_TAG_RANK = {t: i for i, t in enumerate(TAGS)}

DEFAULT_TOL = 1e-6

OMEGA = -1  # stands in for the ground network in transfer indices


@dataclass
class Plan:
    """A complete decision assignment for every UAV and epoch.

    locations[d, k] is a location id; payloads[d, k, p] says whether payload p
    is aboard; mission_alloc[d, k, m, z] is the epoch fraction spent on
    mission m for zone z (the relay mission's slice must stay zero — relay
    effort lives in relay_frac); transfers[d1, d2, k] and sink_transfers[d, k]
    carry Mb moved between UAVs and down to the ground network.
    """

    locations: np.ndarray
    payloads: np.ndarray
    mission_alloc: np.ndarray
    relay_frac: np.ndarray
    transfers: np.ndarray
    sink_transfers: np.ndarray

    @classmethod
    def idle(cls, s: Scenario) -> "Plan":
        """Everyone parked at the first depot for the whole horizon."""
        D, K = s.num_uavs, s.epochs
        depot = s.depot_ids[0] if s.depot_ids else 0
        return cls(
            locations=np.full((D, K), depot, dtype=int),
            payloads=np.zeros((D, K, s.num_payloads), dtype=bool),
            mission_alloc=np.zeros((D, K, s.num_missions, s.num_zones)),
            relay_frac=np.zeros((D, K)),
            transfers=np.zeros((D, D, K)),
            sink_transfers=np.zeros((D, K)),
        )

    def copy(self) -> "Plan":
        return Plan(
            self.locations.copy(),
            self.payloads.copy(),
            self.mission_alloc.copy(),
            self.relay_frac.copy(),
            self.transfers.copy(),
            self.sink_transfers.copy(),
        )


@dataclass(frozen=True)
class Violation:
    tag: str
    indices: tuple
    magnitude: float

    def sort_key(self):
        return (_TAG_RANK[self.tag], self.indices)


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def tags(self) -> set[str]:
        return {v.tag for v in self.violations}

    def __len__(self) -> int:
        return len(self.violations)

    def to_rows(self) -> list[list]:
        return [[v.tag, ";".join(str(i) for i in v.indices), v.magnitude] for v in self.violations]

    def to_csv(self) -> str:
        lines = ["tag,indices,magnitude"]
        for tag, idx, mag in self.to_rows():
            lines.append(f"{tag},{idx},{mag!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            [{"tag": v.tag, "indices": list(v.indices), "magnitude": v.magnitude} for v in self.violations],
            indent=2,
        ) + "\n"


@dataclass
class SatisfactionReport:
    sigma: np.ndarray  # (K, M, Z)
    sigma_bar: np.ndarray  # (M,)
    objective: float

    def to_csv(self, s: Scenario) -> str:
        lines = ["epoch,mission,zone,sigma"]
        for k in range(self.sigma.shape[0]):
            for m in range(self.sigma.shape[1]):
                for z in range(self.sigma.shape[2]):
                    lines.append(f"{k},{s.missions[m].name},{z},{self.sigma[k, m, z]!r}")
        return "\n".join(lines) + "\n"


def _check_dims(s: Scenario, p: Plan) -> None:
    D, K = s.num_uavs, s.epochs
    expect = {
        "locations": (D, K),
        "payloads": (D, K, s.num_payloads),
        "mission_alloc": (D, K, s.num_missions, s.num_zones),
        "relay_frac": (D, K),
        "transfers": (D, D, K),
        "sink_transfers": (D, K),
    }
    for name, shape in expect.items():
        got = getattr(p, name).shape
        if got != shape:
            raise ValueError(f"plan.{name} has shape {got}, scenario expects {shape}")
    ridx = s.relay_index
    if ridx is not None and np.any(np.abs(p.mission_alloc[:, :, ridx, :]) > 0):
        raise ValueError("relay effort belongs in relay_frac, not mission_alloc")


def _sanitized_locations(s: Scenario, p: Plan):
    """Replace out-of-range location ids with the last valid one so the other
    checks stay meaningful; the offending entries are reported separately."""
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    lam = p.locations.astype(int).copy()
    bad = (lam < 0) | (lam >= L)
    if bad.any():
        depot = s.depot_ids[0] if s.depot_ids else 0
        for d in range(D):
            prev = depot
            for k in range(K):
                if bad[d, k]:
                    lam[d, k] = prev
                else:
                    prev = lam[d, k]
    return lam, bad


def _located_work(s: Scenario, p: Plan):
    """Sanitized locations, their out-of-range mask, and the (D, K, M, Z) work
    each UAV performs: its mission allocation times the quality where it is."""
    lam, bad = _sanitized_locations(s, p)
    return lam, bad, p.mission_alloc * s.quality[lam]


def _hops(s: Scenario, lam: np.ndarray, payloads: np.ndarray):
    """Per epoch k >= 1: the (D,) energy of each UAV's hop (or hover) into k
    at its gross weight, and whether it lands at a depot."""
    w = s.payload_weights()
    is_depot = s.is_depot_arr()
    for k in range(1, lam.shape[1]):
        load = payloads[:, k, :] @ w
        step = s.energy_wh_per_kg[lam[:, k - 1], lam[:, k]] * (s.uav.empty_weight_kg + load)
        yield k, step, is_depot[lam[:, k]]


def battery_trace(s: Scenario, p: Plan) -> np.ndarray:
    """Charge level per UAV and epoch: full at epoch 0, reset at every depot
    visit, otherwise decremented by hop (or hover) energy times gross weight."""
    lam = p.locations.astype(int)
    L = s.num_locations
    if np.any((lam < 0) | (lam >= L)):
        raise ValueError("plan contains out-of-range location ids")
    cap = s.uav.battery_capacity_wh
    beta = np.empty(lam.shape)
    beta[:, 0] = cap
    for k, step, at_depot in _hops(s, lam, p.payloads):
        beta[:, k] = np.where(at_depot, cap, beta[:, k - 1] - step)
    return beta


def check_feasibility(
    s: Scenario, p: Plan, tol: float = DEFAULT_TOL, depot_return: bool = True
) -> ViolationReport:
    """Check every operational constraint; one entry per violated (tag, index)."""
    _check_dims(s, p)
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    out: list[Violation] = []
    lam, bad_loc, work = _located_work(s, p)
    is_depot = s.is_depot_arr()
    w = s.payload_weights()
    cap_kg = s.uav.payload_capacity_kg
    vmax = s.uav.max_step_km

    # FINITE: NaN fails every tolerance comparison below, so without this
    # check a NaN plan would pass them all
    for name in ("mission_alloc", "relay_frac", "transfers", "sink_transfers"):
        arr = getattr(p, name)
        for idx in np.argwhere(~np.isfinite(arr)):
            out.append(Violation("FINITE", (name, *map(int, idx)), float(arr[tuple(idx)])))

    for d, k in np.argwhere(bad_loc):
        out.append(Violation("LOC-UNIQUE", (int(d), int(k)), float(p.locations[d, k])))

    # TRAVEL: consecutive locations must be one-epoch reachable
    for d in range(D):
        for k in range(1, K):
            if bad_loc[d, k] or bad_loc[d, k - 1]:
                continue
            v = s.dist_km[lam[d, k - 1], lam[d, k]]
            if v > vmax + tol:
                out.append(Violation("TRAVEL", (d, k), float(v - vmax)))

    # CAPACITY
    load = p.payloads @ w  # (D, K)
    for d, k in np.argwhere(load > cap_kg + tol):
        out.append(Violation("CAPACITY", (int(d), int(k)), float(load[d, k] - cap_kg)))

    # PAYLOAD-LOCK: payload only changes while at a depot
    if s.num_payloads:
        changed = p.payloads[:, 1:, :] != p.payloads[:, :-1, :]
        away = ~is_depot[lam[:, 1:]]
        for d, km1, pp in np.argwhere(changed & away[:, :, None]):
            out.append(Violation("PAYLOAD-LOCK", (int(d), int(km1) + 1, int(pp)), 1.0))

    # BATTERY
    beta = battery_trace(s, Plan(lam, p.payloads, p.mission_alloc, p.relay_frac, p.transfers, p.sink_transfers))
    for d, k in np.argwhere(beta < -tol):
        out.append(Violation("BATTERY", (int(d), int(k)), float(-beta[d, k])))

    # DELIVERY
    for pl in s.payloads:
        if not pl.deliverable:
            continue
        a, b = pl.window
        hit = (lam[:, a : b + 1] == pl.target) & p.payloads[:, a : b + 1, pl.id] & ~bad_loc[:, a : b + 1]
        if not hit.any():
            out.append(Violation("DELIVERY", (pl.id,), 1.0))

    # EQUIP: missions demand their payloads aboard
    mu = p.mission_alloc
    for m in s.missions:
        if m.name == "relay":
            continue
        for pid in m.requires:
            missing = ~p.payloads[:, :, pid]
            active = mu[:, :, m.id, :] > tol
            for d, k, z in np.argwhere(active & missing[:, :, None]):
                out.append(Violation("EQUIP", (int(d), int(k), m.id, int(z)), float(mu[d, k, m.id, z])))
    relay = None if s.relay_index is None else s.missions[s.relay_index]
    if relay is not None:
        for pid in relay.requires:
            for d, k in np.argwhere((p.relay_frac > tol) & ~p.payloads[:, :, pid]):
                out.append(Violation("EQUIP", (int(d), int(k), relay.id), float(p.relay_frac[d, k])))
    else:
        for d, k in np.argwhere(p.relay_frac > tol):
            out.append(Violation("EQUIP", (int(d), int(k), -1), float(p.relay_frac[d, k])))

    # Service delivered per (k, m, z): mu weighted by quality at the UAV location
    serv = work.sum(axis=0)  # (K, M, Z)

    # NEED: service may not exceed demand in any single epoch
    excess = serv - s.demand
    for k, m, z in np.argwhere(excess > tol):
        out.append(Violation("NEED", (int(k), int(m), int(z)), float(excess[k, m, z])))

    # Traffic: generated = sum over service missions of mu * q * data-per-work
    s_rate = np.array([m.mb_per_work for m in s.missions])
    gen = (work * s_rate[None, None, :, None]).sum(axis=(2, 3))  # (D, K)

    # FLOW per UAV, SINK per epoch
    inflow = p.transfers.sum(axis=0)  # (D, K): into d
    outflow = p.transfers.sum(axis=1)  # (D, K): out of d
    imb = inflow + gen - outflow - p.sink_transfers
    for d, k in np.argwhere(np.abs(imb) > tol):
        out.append(Violation("FLOW", (int(d), int(k)), float(abs(imb[d, k]))))
    sink_imb = gen.sum(axis=0) - p.sink_transfers.sum(axis=0)
    for (k,) in np.argwhere(np.abs(sink_imb) > tol):
        out.append(Violation("SINK", (int(k),), float(abs(sink_imb[k]))))

    # RELAY-CAP: transfers bounded by link capacity times relay effort
    for d1, d2, k in np.argwhere(p.transfers < -tol):
        out.append(Violation("RELAY-CAP", (int(d1), int(d2), int(k)), float(-p.transfers[d1, d2, k])))
    for d, k in np.argwhere(p.sink_transfers < -tol):
        out.append(Violation("RELAY-CAP", (int(d), OMEGA, int(k)), float(-p.sink_transfers[d, k])))
    t_cap = s.link_uav_mb[lam[:, None, :], lam[None, :, :]]  # (D, D, K)
    over = p.transfers - t_cap * p.relay_frac[:, None, :]
    for d1, d2, k in np.argwhere(over > tol):
        if d1 == d2:
            continue  # self-transfer cancels in the flow balance
        out.append(Violation("RELAY-CAP", (int(d1), int(d2), int(k)), float(over[d1, d2, k])))
    sink_cap = s.link_sink_mb[lam] * p.relay_frac
    s_over = p.sink_transfers - sink_cap
    for d, k in np.argwhere(s_over > tol):
        out.append(Violation("RELAY-CAP", (int(d), OMEGA, int(k)), float(s_over[d, k])))

    # BUDGET: epoch time shared between missions and relaying, plus unit bounds
    budget = mu.sum(axis=(2, 3)) + p.relay_frac
    for d, k in np.argwhere(budget > 1 + tol):
        out.append(Violation("BUDGET", (int(d), int(k)), float(budget[d, k] - 1)))
    for d, k, m, z in np.argwhere((mu < -tol) | (mu > 1 + tol)):
        out.append(Violation("BUDGET", (int(d), int(k), int(m), int(z)), float(mu[d, k, m, z])))
    for d, k in np.argwhere((p.relay_frac < -tol) | (p.relay_frac > 1 + tol)):
        out.append(Violation("BUDGET", (int(d), int(k)), float(p.relay_frac[d, k])))

    # DEPOT-RETURN: start at a depot, and end at one when required
    for d in range(D):
        if not bad_loc[d, 0] and not is_depot[lam[d, 0]]:
            out.append(Violation("DEPOT-RETURN", (d, 0), 1.0))
        if depot_return and not bad_loc[d, K - 1] and not is_depot[lam[d, K - 1]]:
            out.append(Violation("DEPOT-RETURN", (d, K - 1), 1.0))

    out.sort(key=lambda v: v.sort_key())
    return ViolationReport(out)


def satisfaction(s: Scenario, p: Plan) -> SatisfactionReport:
    """Windowed served-over-needed ratio per (epoch, mission, zone), the
    per-mission minimum, and the fleet objective (minimum across service
    missions).  Ratios with no demand in the window count as fully satisfied."""
    _check_dims(s, p)
    _, _, work = _located_work(s, p)
    return _satisfaction(s, work.sum(axis=0))


def _satisfaction(s: Scenario, serv: np.ndarray) -> SatisfactionReport:
    """The satisfaction report for (K, M, Z) work served per epoch."""
    K, M, Z = s.epochs, s.num_missions, s.num_zones
    S = windowed_sum(serv, s.horizon)
    N = s.window_need
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.where(N > 0, S / np.where(N > 0, N, 1.0), 1.0)

    ridx = s.relay_index
    if ridx is not None:
        sigma[:, ridx, :] = 1.0
    sigma_bar = sigma.min(axis=(0, 2)) if Z and K else np.ones(M)
    service = list(s.service_mission_ids)
    objective = float(sigma_bar[service].min()) if service else 1.0
    return SatisfactionReport(sigma=sigma, sigma_bar=sigma_bar, objective=objective)


def energy_used(s: Scenario, p: Plan) -> np.ndarray:
    """Wh consumed per UAV over the horizon (battery swaps excluded)."""
    lam = p.locations.astype(int)
    used = np.zeros(lam.shape[0])
    for _, step, at_depot in _hops(s, lam, p.payloads):
        used += np.where(at_depot, 0.0, step)
    return used


def plan_metrics(s: Scenario, p: Plan) -> dict:
    """Summary numbers for reports: objective, per-mission satisfaction,
    served demand fractions, energy in battery charges, payload statistics."""
    _check_dims(s, p)
    lam, _, work = _located_work(s, p)
    serv = work.sum(axis=0)
    rep = _satisfaction(s, serv)
    w = s.payload_weights()
    equip = set(s.equipment_ids)
    away = ~s.is_depot_arr()[lam]
    flying = int(away.sum())
    mean_payload = mean_equip = mean_deliv = 0.0
    if flying:
        load = p.payloads @ w
        mean_payload = float(load[away].mean())
        if s.num_payloads:
            e_mask = np.array([pid in equip for pid in range(s.num_payloads)])
            mean_equip = float((p.payloads[:, :, e_mask] @ w[e_mask])[away].mean()) if e_mask.any() else 0.0
            d_mask = np.array([pl.deliverable for pl in s.payloads])
            mean_deliv = float((p.payloads[:, :, d_mask] @ w[d_mask])[away].mean()) if d_mask.any() else 0.0
    energy = float(energy_used(s, replace(p, locations=lam)).sum())
    served_fraction = {}
    for mid in s.service_mission_ids:
        total_need = float(s.demand[:, mid, :].sum())
        total_serv = float(serv[:, mid, :].sum())
        served_fraction[s.missions[mid].name] = (total_serv / total_need) if total_need > 0 else 1.0
    return {
        "objective": rep.objective,
        "sigma_bar": {m.name: float(rep.sigma_bar[m.id]) for m in s.missions},
        "served_fraction": served_fraction,
        "energy_wh": energy,
        "battery_charges": energy / s.uav.battery_capacity_wh,
        "mean_payload_kg": mean_payload,
        "mean_payload_fraction": mean_payload / s.uav.payload_capacity_kg,
        "mean_equipment_kg": mean_equip,
        "mean_delivery_kg": mean_deliv,
        "epochs_away": flying,
    }


# -- plan file format ------------------------------------------------------------


def plan_to_dict(p: Plan) -> dict:
    payload_rows = [[int(d), int(k), int(pp)] for d, k, pp in np.argwhere(p.payloads)]
    mission_rows = [
        [int(d), int(k), int(m), int(z), float(p.mission_alloc[d, k, m, z])]
        for d, k, m, z in np.argwhere(p.mission_alloc != 0)
    ]
    relay_rows = [[int(d), int(k), float(p.relay_frac[d, k])] for d, k in np.argwhere(p.relay_frac != 0)]
    transfer_rows: list[list] = []
    for d1, d2, k in np.argwhere(p.transfers != 0):
        transfer_rows.append([int(d1), int(d2), int(k), float(p.transfers[d1, d2, k])])
    for d, k in np.argwhere(p.sink_transfers != 0):
        transfer_rows.append([int(d), "omega", int(k), float(p.sink_transfers[d, k])])
    return {
        "locations": p.locations.astype(int).tolist(),
        "payloads": payload_rows,
        "missions": mission_rows,
        "relay": relay_rows,
        "transfers": transfer_rows,
    }


def _is_number(value) -> bool:
    """Python and numpy numbers; text and booleans, which int() and float()
    would take, are not."""
    return type(value) in (int, float) or (
        isinstance(value, (int, float, np.number)) and not isinstance(value, bool)
    )


def _index(value, size: int, what: str) -> int:
    """value as an index into range(size); text, booleans and fractions are
    rejected, and negative or out-of-range values instead of wrapping."""
    i = value
    if type(value) is not int:
        try:
            i = int(value) if _is_number(value) else None
        except (ValueError, OverflowError):  # nan and inf
            i = None
        if i is None or i != value:
            raise ValueError(f"plan {what} index {value!r} is not an integer")
    if not 0 <= i < size:
        raise ValueError(f"plan {what} index {value!r} is outside [0, {size})")
    return i


def _rows(doc: dict, key: str, width: int) -> list:
    rows = doc.get(key, [])
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) and len(r) == width for r in rows
    ):
        raise ValueError(f"plan {key} must be a list of {width}-entry rows")
    return rows


def _finite(value, what: str) -> float:
    """value as a finite float; text, booleans and null are rejected."""
    x = value
    if type(value) is not float:
        if not _is_number(value):
            raise ValueError(f"plan {what} value {value!r} is not a number")
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"plan {what} value {value!r} is not finite")
    return x


def plan_from_dict(doc: dict, s: Scenario) -> Plan:
    """Plan from its file form.  Raises ValueError on rows whose indices fall
    outside the scenario, on text or booleans where numbers belong, and on
    values that are not finite.  Location ids out of range are plan data:
    check_feasibility reports them as LOC-UNIQUE."""
    D, K = s.num_uavs, s.epochs
    P, M, Z = s.num_payloads, s.num_missions, s.num_zones
    if not isinstance(doc, dict):
        raise ValueError("a plan must be a JSON object")
    p = Plan.idle(s)
    if not all(map(_is_number, np.array(doc["locations"], dtype=object).flat)):
        raise ValueError("plan locations are not integers: an entry is not a number")
    try:
        locs = np.array(doc["locations"], dtype=int)
        integral = np.array_equal(locs, np.array(doc["locations"], dtype=float))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"plan locations are not integers: {exc}") from None
    if locs.shape != (D, K):
        raise ValueError(f"plan locations have shape {locs.shape}, scenario expects {(D, K)}")
    if not integral:
        raise ValueError("plan locations are not integers")
    p.locations = locs
    for d, k, pp in _rows(doc, "payloads", 3):
        p.payloads[_index(d, D, "uav"), _index(k, K, "epoch"), _index(pp, P, "payload")] = True
    for d, k, m, z, frac in _rows(doc, "missions", 5):
        idx = (_index(d, D, "uav"), _index(k, K, "epoch"), _index(m, M, "mission"), _index(z, Z, "zone"))
        p.mission_alloc[idx] = _finite(frac, "mission")
    for d, k, frac in _rows(doc, "relay", 3):
        p.relay_frac[_index(d, D, "uav"), _index(k, K, "epoch")] = _finite(frac, "relay")
    for d1, d2, k, mb in _rows(doc, "transfers", 4):
        d1, k, mb = _index(d1, D, "uav"), _index(k, K, "epoch"), _finite(mb, "transfer")
        if d2 == "omega" or d2 == OMEGA:
            p.sink_transfers[d1, k] = mb
        else:
            p.transfers[d1, _index(d2, D, "uav"), k] = mb
    return p


def serialize_plan(p: Plan) -> str:
    return json.dumps(plan_to_dict(p), indent=2) + "\n"


def load_plan(text: str, s: Scenario) -> Plan:
    return plan_from_dict(json.loads(text), s)
