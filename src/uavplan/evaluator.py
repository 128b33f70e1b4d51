"""Plan feasibility checking and the min-max satisfaction objective.

All operations are pure functions of (Scenario, Plan); nothing here mutates
shared state, so plans can be evaluated concurrently.  check_feasibility is
the one feasibility authority: every solver's output must come back clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario, ScenarioError, _cell_rows, _index, _number, json_text, windowed_sum

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

    def to_rows(self, s: Scenario) -> list[list]:
        """[epoch, mission name, zone, sigma] for every cell, in row-major
        order, sigma as a float."""
        names = [m.name for m in s.missions]
        return [
            [k, names[m], z, value]
            for k, per_epoch in enumerate(self.sigma.tolist())
            for m, per_mission in enumerate(per_epoch)
            for z, value in enumerate(per_mission)
        ]

    def to_csv(self, s: Scenario) -> str:
        lines = ["epoch,mission,zone,sigma"]
        lines += (f"{k},{name},{z},{value!r}" for k, name, z, value in self.to_rows(s))
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


def _located_work(s: Scenario, p: Plan):
    """Locations with each out-of-range id replaced by the last valid one
    before it (the first depot if none), so the other checks stay meaningful;
    the out-of-range mask, whose entries are reported separately; and the
    (D, K, M, Z) work each UAV performs: its allocation times the quality."""
    lam = p.locations.astype(int)
    bad = (lam < 0) | (lam >= s.num_locations)
    if bad.any():
        last = np.maximum.accumulate(np.where(bad, -1, np.arange(lam.shape[1])), axis=1)
        depot = s.depot_ids[0] if s.depot_ids else 0
        lam = np.where(last >= 0, np.take_along_axis(lam, np.maximum(last, 0), axis=1), depot)
    return lam, bad, p.mission_alloc * s.quality[lam]


def _battery(s: Scenario, lam: np.ndarray, payloads: np.ndarray):
    """The battery recurrence over in-range locations lam: charge per UAV and
    epoch, full at epoch 0, reset at every depot visit, otherwise decremented
    by the hop (or hover) energy at gross weight; and the Wh each UAV used,
    battery swaps excluded."""
    if np.any((lam < 0) | (lam >= s.num_locations)):
        raise ValueError("plan contains out-of-range location ids")
    w, is_depot = s.payload_kg, s.is_depot
    cap = s.uav.battery_capacity_wh
    beta = np.empty(lam.shape)
    beta[:, 0] = cap
    used = np.zeros(lam.shape[0])
    for k in range(1, lam.shape[1]):
        step = s.energy_wh_per_kg[lam[:, k - 1], lam[:, k]] * (s.uav.empty_weight_kg + payloads[:, k, :] @ w)
        at_depot = is_depot[lam[:, k]]
        beta[:, k] = np.where(at_depot, cap, beta[:, k - 1] - step)
        used += np.where(at_depot, 0.0, step)
    return beta, used


def battery_trace(s: Scenario, p: Plan) -> np.ndarray:
    """Charge level per UAV and epoch: full at epoch 0, reset at every depot
    visit, otherwise decremented by hop (or hover) energy times gross weight."""
    return _battery(s, p.locations.astype(int), p.payloads)[0]


def _flag(out: list, tag: str, mask: np.ndarray, magnitude, index=lambda *cell: cell) -> None:
    """One violation per true cell of mask, in row-major order.  magnitude is
    an array of mask's shape or one number; index maps a cell's position to
    the reported indices."""
    if mask.any():  # argwhere costs more than the scan on a clean plan
        mags = np.broadcast_to(np.asarray(magnitude, dtype=float), mask.shape)[mask].tolist()
        out.extend(Violation(tag, index(*cell), mag) for cell, mag in zip(np.argwhere(mask).tolist(), mags))


def check_feasibility(
    s: Scenario, p: Plan, tol: float = DEFAULT_TOL, depot_return: bool = True
) -> ViolationReport:
    """Check every operational constraint; one entry per violated (tag, index)."""
    _check_dims(s, p)
    out: list[Violation] = []
    lam, bad_loc, work = _located_work(s, p)
    vmax = s.uav.max_step_km

    # FINITE: NaN fails every tolerance comparison below, so without this
    # check a NaN plan would pass them all
    for name in ("mission_alloc", "relay_frac", "transfers", "sink_transfers"):
        arr = getattr(p, name)
        _flag(out, "FINITE", ~np.isfinite(arr), arr, lambda *cell: (name, *cell))

    _flag(out, "LOC-UNIQUE", bad_loc, p.locations)

    # TRAVEL: consecutive in-range locations must be one-epoch reachable
    hop = s.dist_km[lam[:, :-1], lam[:, 1:]]
    far = (hop > vmax + tol) & ~bad_loc[:, 1:] & ~bad_loc[:, :-1]
    _flag(out, "TRAVEL", far, hop - vmax, lambda d, k: (d, k + 1))

    load, cap_kg = p.payloads @ s.payload_kg, s.uav.payload_capacity_kg  # (D, K)
    _flag(out, "CAPACITY", load > cap_kg + tol, load - cap_kg)

    # PAYLOAD-LOCK: payload only changes while at a depot
    changed = p.payloads[:, 1:, :] != p.payloads[:, :-1, :]
    away = ~s.is_depot[lam[:, 1:]]
    _flag(out, "PAYLOAD-LOCK", changed & away[:, :, None], 1.0, lambda d, k, pp: (d, k + 1, pp))

    beta = _battery(s, lam, p.payloads)[0]
    _flag(out, "BATTERY", beta < -tol, -beta)

    # DELIVERY: each deliverable payload aboard at its target within its window
    missed = np.zeros(s.num_payloads, dtype=bool)
    for pl in s.payloads:
        if pl.deliverable:
            win = slice(pl.window[0], pl.window[1] + 1)
            missed[pl.id] = not ((lam[:, win] == pl.target) & p.payloads[:, win, pl.id] & ~bad_loc[:, win]).any()
    _flag(out, "DELIVERY", missed, 1.0)

    # EQUIP: missions demand their payloads aboard, one entry per missing payload
    mu = p.mission_alloc
    for mid in s.service_mission_ids:
        m = s.missions[mid]
        alloc = mu[:, :, mid, :]
        for pid in m.requires:
            _flag(out, "EQUIP", (alloc > tol) & ~p.payloads[:, :, pid, None], alloc, lambda d, k, z: (d, k, mid, z))
    relaying = p.relay_frac > tol
    if s.relay_index is None:
        _flag(out, "EQUIP", relaying, p.relay_frac, lambda d, k: (d, k, -1))
    else:
        relay = s.missions[s.relay_index]
        for pid in relay.requires:
            _flag(out, "EQUIP", relaying & ~p.payloads[:, :, pid], p.relay_frac, lambda d, k: (d, k, relay.id))

    # NEED: service (mu weighted by quality at the UAV location) may not
    # exceed demand in any single epoch
    excess = work.sum(axis=0) - s.demand  # (K, M, Z)
    _flag(out, "NEED", excess > tol, excess)

    # Traffic: generated = sum over service missions of mu * q * data-per-work
    gen = (work * s.mb_per_work[None, None, :, None]).sum(axis=(2, 3))  # (D, K)

    # FLOW per UAV, SINK per epoch
    inflow = p.transfers.sum(axis=0)  # (D, K): into d
    outflow = p.transfers.sum(axis=1)  # (D, K): out of d
    imb = np.abs(inflow + gen - outflow - p.sink_transfers)
    _flag(out, "FLOW", imb > tol, imb)
    sink_imb = np.abs(gen.sum(axis=0) - p.sink_transfers.sum(axis=0))
    _flag(out, "SINK", sink_imb > tol, sink_imb)

    # RELAY-CAP: transfers bounded by link capacity times relay effort; a
    # self-transfer cancels in the flow balance, so its capacity is not checked
    to_sink = lambda d, k: (d, OMEGA, k)
    _flag(out, "RELAY-CAP", p.transfers < -tol, -p.transfers)
    _flag(out, "RELAY-CAP", p.sink_transfers < -tol, -p.sink_transfers, to_sink)
    t_cap = s.link_uav_mb[lam[:, None, :], lam[None, :, :]]  # (D, D, K)
    over = p.transfers - t_cap * p.relay_frac[:, None, :]
    _flag(out, "RELAY-CAP", (over > tol) & ~np.eye(s.num_uavs, dtype=bool)[:, :, None], over)
    s_over = p.sink_transfers - s.link_sink_mb[lam] * p.relay_frac
    _flag(out, "RELAY-CAP", s_over > tol, s_over, to_sink)

    # BUDGET: epoch time shared between missions and relaying, plus unit bounds
    budget = mu.sum(axis=(2, 3)) + p.relay_frac
    _flag(out, "BUDGET", budget > 1 + tol, budget - 1)
    _flag(out, "BUDGET", (mu < -tol) | (mu > 1 + tol), mu)
    _flag(out, "BUDGET", (p.relay_frac < -tol) | (p.relay_frac > 1 + tol), p.relay_frac)

    # DEPOT-RETURN: start at a depot, and end at one when required; with one
    # epoch both checks report (d, 0)
    ends = [0, s.epochs - 1]
    off = ~bad_loc[:, ends] & ~s.is_depot[lam[:, ends]]
    off[:, 1] &= depot_return
    _flag(out, "DEPOT-RETURN", off, 1.0, lambda d, j: (d, ends[j]))

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
    objective = float(sigma_bar[s.is_service].min()) if s.is_service.any() else 1.0
    return SatisfactionReport(sigma=sigma, sigma_bar=sigma_bar, objective=objective)


def energy_used(s: Scenario, p: Plan) -> np.ndarray:
    """Wh consumed per UAV over the horizon (battery swaps excluded)."""
    return _battery(s, p.locations.astype(int), p.payloads)[1]


def plan_metrics(s: Scenario, p: Plan) -> dict:
    """Summary numbers for reports: objective, per-mission satisfaction,
    served demand fractions, energy in battery charges, payload statistics."""
    _check_dims(s, p)
    lam, _, work = _located_work(s, p)
    serv = work.sum(axis=0)
    rep = _satisfaction(s, serv)
    w = s.payload_kg
    equip = set(s.equipment_ids)
    away = ~s.is_depot[lam]
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
    energy = float(_battery(s, lam, p.payloads)[1].sum())
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
    transfer_rows = _cell_rows(p.transfers, p.transfers != 0)
    transfer_rows += ([d, "omega", k, mb] for d, k, mb in _cell_rows(p.sink_transfers, p.sink_transfers != 0))
    return {
        "locations": p.locations.astype(int).tolist(),
        "payloads": np.argwhere(p.payloads).tolist(),
        "missions": _cell_rows(p.mission_alloc, p.mission_alloc != 0),
        "relay": _cell_rows(p.relay_frac, p.relay_frac != 0),
        "transfers": transfer_rows,
    }


def _rows(doc: dict, key: str, width: int) -> list:
    rows = doc.get(key, [])
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) and len(r) == width for r in rows
    ):
        raise ScenarioError(f"plan {key} must be a list of {width}-entry rows")
    return rows


def _finite(value, what: str) -> float:
    """value as a finite float; text, booleans and null are rejected."""
    x = _number(value, what)
    if not math.isfinite(x):
        raise ScenarioError(f"{what} {value!r} is not finite")
    return x


def plan_from_dict(doc: dict, s: Scenario) -> Plan:
    """Plan from its file form.  Raises ScenarioError on rows whose indices
    fall outside the scenario, on text or booleans where numbers belong, and
    on values that are not finite.  Location ids out of range are plan data:
    check_feasibility reports them as LOC-UNIQUE."""
    D, K = s.num_uavs, s.epochs
    P, M, Z = s.num_payloads, s.num_missions, s.num_zones
    if not isinstance(doc, dict):
        raise ScenarioError("a plan must be a JSON object")
    if "locations" not in doc:
        raise ScenarioError("plan: missing required field 'locations'")
    p = Plan.idle(s)
    try:
        for value in np.array(doc["locations"], dtype=object).flat:
            if type(value) is not int:  # numpy refuses an int beyond its range below
                _number(value, "plan locations")
    except ScenarioError:
        raise ScenarioError("plan locations are not integers: an entry is not a number") from None
    try:
        locs = np.array(doc["locations"], dtype=int)
        integral = np.array_equal(locs, np.array(doc["locations"], dtype=float))
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"plan locations are not integers: {exc}") from None
    if locs.shape != (D, K):
        raise ScenarioError(f"plan locations have shape {locs.shape}, scenario expects {(D, K)}")
    if not integral:
        raise ScenarioError("plan locations are not integers")
    p.locations = locs
    uav, epoch = "plan uav index", "plan epoch index"
    for d, k, pp in _rows(doc, "payloads", 3):
        p.payloads[_index(d, D, uav), _index(k, K, epoch), _index(pp, P, "plan payload index")] = True
    for d, k, m, z, frac in _rows(doc, "missions", 5):
        idx = (_index(d, D, uav), _index(k, K, epoch),
               _index(m, M, "plan mission index"), _index(z, Z, "plan zone index"))
        p.mission_alloc[idx] = _finite(frac, "plan mission value")
    for d, k, frac in _rows(doc, "relay", 3):
        p.relay_frac[_index(d, D, uav), _index(k, K, epoch)] = _finite(frac, "plan relay value")
    for d1, d2, k, mb in _rows(doc, "transfers", 4):
        d1, k, mb = _index(d1, D, uav), _index(k, K, epoch), _finite(mb, "plan transfer value")
        if d2 == "omega" or d2 == OMEGA:
            p.sink_transfers[d1, k] = mb
        else:
            p.transfers[d1, _index(d2, D, uav), k] = mb
    return p


def serialize_plan(p: Plan) -> str:
    return json_text(plan_to_dict(p))


def load_plan(text: str, s: Scenario) -> Plan:
    return plan_from_dict(json.loads(text), s)
