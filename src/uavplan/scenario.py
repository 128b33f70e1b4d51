"""Problem instances: fleet, topology, payloads, missions, demand, link capacities.

A Scenario is immutable once built; every solver and the evaluator read the
same dense arrays.  Use :func:`make_scenario` to derive the distance/energy
matrices and the dense quality tensor from the raw parts, and
:func:`load_scenario` / :func:`serialize_scenario` for the JSON file format
(documented in the README).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

RELAY = "relay"


@dataclass(frozen=True)
class Location:
    id: int
    x: float
    y: float
    is_depot: bool = False


@dataclass(frozen=True)
class Zone:
    """A demand region together with the locations that can serve it.

    served_from maps a location id to a per-mission quality dict
    (mission name -> work units one UAV can perform per epoch).
    """

    id: int
    served_from: dict[int, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class UavSpec:
    empty_weight_kg: float
    payload_capacity_kg: float
    battery_capacity_wh: float
    max_step_km: float
    count: int


@dataclass(frozen=True)
class PayloadItem:
    id: int
    weight_kg: float
    name: str = ""
    deliverable: bool = False
    target: int | None = None  # delivery location
    window: tuple[int, int] | None = None  # earliest/latest delivery epoch


@dataclass(frozen=True)
class Mission:
    id: int
    name: str
    requires: tuple[int, ...]  # payload ids needed aboard
    mb_per_work: float  # data generated by one unit of work


@dataclass(frozen=True)
class Scenario:
    """One problem instance.

    Every fact derived from the instance lives here, computed once, on first
    use.  The ids, masks and weights below (``depot_ids``, ``relay_index``,
    ``service_mission_ids``, ``deliverable_ids``, ``equipment_ids``,
    ``payload_kg``, ``is_depot``, ``mb_per_work``, ``is_service``,
    ``window_need``, ``needed_ratios``, ``reach``, ``hover_wh_per_kg``,
    ``serving_zones``) are read-only properties: read-only arrays, or tuples
    of Python numbers.  Facts built elsewhere (the heuristic's route graph,
    ``require_valid``'s issue list) are kept by :meth:`derived` in one memo
    on the instance, as ``cached_property`` keeps its values.  What is kept
    is a pure function of the fields; a refusal is not kept, so it is raised
    again on every call.  No memo is a field: equality and ``repr`` ignore
    it, and ``dataclasses.replace`` builds a fresh instance.
    """

    locations: tuple[Location, ...]
    zones: tuple[Zone, ...]
    uav: UavSpec
    payloads: tuple[PayloadItem, ...]
    missions: tuple[Mission, ...]
    epochs: int
    horizon: int
    epoch_minutes: float
    e_per_km_kg: float
    hover_km_equiv: float
    dist_km: np.ndarray  # (L, L) pairwise distances
    energy_wh_per_kg: np.ndarray  # (L, L); diagonal holds the hover cost
    quality: np.ndarray  # (L, M, Z) work units per epoch
    demand: np.ndarray  # (K, M, Z) work units needed
    link_uav_mb: np.ndarray  # (L, L) UAV-to-UAV throughput per epoch
    link_sink_mb: np.ndarray  # (L,) throughput to the ground network
    link_default_uav_mb: float = 0.0
    link_default_sink_mb: float = 0.0

    # -- derived conveniences -------------------------------------------------

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def num_zones(self) -> int:
        return len(self.zones)

    @property
    def num_payloads(self) -> int:
        return len(self.payloads)

    @property
    def num_missions(self) -> int:
        return len(self.missions)

    @property
    def num_uavs(self) -> int:
        return self.uav.count

    @cached_property
    def depot_ids(self) -> tuple[int, ...]:
        return tuple(l.id for l in self.locations if l.is_depot)

    @cached_property
    def relay_index(self) -> int | None:
        for m in self.missions:
            if m.name == RELAY:
                return m.id
        return None

    @cached_property
    def service_mission_ids(self) -> tuple[int, ...]:
        """Missions that serve zone demand (everything except relay)."""
        return tuple(m.id for m in self.missions if m.name != RELAY)

    @cached_property
    def deliverable_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.payloads if p.deliverable)

    @cached_property
    def equipment_ids(self) -> tuple[int, ...]:
        """Non-deliverable payloads required by at least one mission."""
        needed = set()
        for m in self.missions:
            needed.update(m.requires)
        return tuple(p.id for p in self.payloads if not p.deliverable and p.id in needed)

    def mission_by_name(self, name: str) -> Mission | None:
        for m in self.missions:
            if m.name == name:
                return m
        return None

    @cached_property
    def payload_kg(self) -> np.ndarray:
        """(P,) payload weights in kg; read-only."""
        return _read_only(np.array([p.weight_kg for p in self.payloads], dtype=float))

    @cached_property
    def is_depot(self) -> np.ndarray:
        """(L,) depot mask; read-only."""
        return _read_only(np.array([l.is_depot for l in self.locations], dtype=bool))

    @cached_property
    def mb_per_work(self) -> np.ndarray:
        """(M,) Mb of data one unit of each mission's work generates; read-only."""
        return _read_only(np.array([m.mb_per_work for m in self.missions], dtype=float))

    @cached_property
    def is_service(self) -> np.ndarray:
        """(M,) mask of the service missions (all but relay); read-only."""
        return _read_only(np.array([m.name != RELAY for m in self.missions], dtype=bool))

    @cached_property
    def window_need(self) -> np.ndarray:
        """(K, M, Z) demand summed over each epoch's satisfaction window;
        read-only."""
        return _read_only(windowed_sum(self.demand, self.horizon))

    @cached_property
    def needed_ratios(self) -> np.ndarray:
        """(K, M, Z) mask of the satisfaction ratios with demand in their
        window, on service missions only; read-only."""
        return _read_only((self.window_need > 0) & self.is_service[:, None])

    @cached_property
    def reach(self) -> np.ndarray:
        """(L, L) mask of the hops one epoch can fly (distance at most
        ``uav.max_step_km``); read-only."""
        return _read_only(self.dist_km <= self.uav.max_step_km + 1e-12)

    @cached_property
    def hover_wh_per_kg(self) -> tuple[float, ...]:
        """(L,) Wh per kg of one epoch on site at each location (the
        diagonal of ``energy_wh_per_kg``), as Python floats."""
        return tuple(np.diagonal(self.energy_wh_per_kg).tolist())

    @cached_property
    def serving_zones(self) -> tuple[tuple[tuple[tuple[int, float], ...], ...], ...]:
        """serving_zones[l][m]: the (zone, quality) pairs with quality > 0
        for mission m at location l, zones ascending, as Python numbers."""
        L, M, _ = self.quality.shape
        rows: list[list[list]] = [[[] for _ in range(M)] for _ in range(L)]
        idx = np.nonzero(self.quality > 0)  # in index order, so zones ascend
        for l, m, z, q in zip(*(i.tolist() for i in idx), self.quality[idx].tolist()):
            rows[l][m].append((z, q))
        return tuple(tuple(map(tuple, per_mission)) for per_mission in rows)

    def derived(self, build):
        """build(self), computed on the first request with this build
        function and kept on the instance; build must be a pure function of
        the scenario.  An exception is not kept: the next request calls
        build again."""
        memo = self.__dict__.setdefault("_memo", {})
        if build not in memo:
            memo[build] = build(self)
        return memo[build]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def windowed_sum(x: np.ndarray, horizon: int) -> np.ndarray:
    """Sum of x over each epoch's satisfaction window: out[k] is the sum of
    x[max(0, k - horizon)] through x[k] along the first axis."""
    cs = np.cumsum(x, axis=0)
    out = cs.copy()
    out[horizon + 1 :] -= cs[: max(0, len(cs) - horizon - 1)]
    return out


@dataclass(frozen=True)
class ValidationIssue:
    field: str
    indices: tuple
    rule: str

    def __str__(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.field}[{idx}]: {self.rule}" if self.indices else f"{self.field}: {self.rule}"


class ScenarioError(ValueError):
    """Raised on malformed scenario documents; carries the issue list."""

    def __init__(self, message: str, issues: list[ValidationIssue] | None = None):
        super().__init__(message)
        self.issues = issues or []


def max_range(spec: UavSpec, e_per_km_kg: float) -> float:
    """Flight range in km on one battery charge at maximum payload."""
    if e_per_km_kg <= 0:
        raise ValueError("energy coefficient must be positive")
    gross = spec.payload_capacity_kg + spec.empty_weight_kg
    if gross <= 0 or spec.battery_capacity_wh <= 0:
        raise ValueError("UAV parameters must be positive")
    return spec.battery_capacity_wh / (e_per_km_kg * gross)


def _index(value, size: int, what: str) -> int:
    """value as an index into range(size); negative, out-of-range or
    fractional values are rejected instead of wrapping or truncating."""
    i = value if type(value) is int else _integer(value, what)
    if not 0 <= i < size:
        raise ScenarioError(f"{what} {value!r} is outside [0, {size})")
    return i


def _integer(value, what: str) -> int:
    """value as an int; fractional, infinite and non-numeric values, booleans
    among them, are rejected instead of truncated."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ScenarioError(f"{what} {value!r} is not an integer")
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite value
        raise ScenarioError(f"{what} {value!r} is not an integer") from None
    if i != value:
        raise ScenarioError(f"{what} {value!r} is not an integer")
    return i


def _number(value, what: str) -> float:
    """value as a float; text (which float() would parse), booleans and null
    are rejected."""
    if type(value) is float:
        return value
    if isinstance(value, (str, bool, np.bool_)):
        raise ScenarioError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} {value!r} is not a number") from None
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{what}: {value} is too large") from None


_SHAPES = {list: "a list", dict: "an object"}

# cap on the cells of the demand tensor (epochs x missions x zones) and of a
# plan's arrays together (uavs x epochs x (missions x zones + uavs + payloads
# + 3)); the loader refuses a larger scenario before allocating anything
MAX_TENSOR_CELLS = 10**8


def check_tensor_cells(uavs: int, epochs: int, missions: int, zones: int, payloads: int) -> None:
    """Raise ScenarioError if a scenario of these sizes would exceed
    MAX_TENSOR_CELLS; the loader calls it before allocating anything, and so
    must anything that changes a loaded scenario's sizes."""
    for what, cells in (
        ("the demand tensor (epochs x missions x zones)", epochs * missions * zones),
        ("a plan (uavs x epochs x (missions x zones + uavs + payloads + 3))",
         uavs * epochs * (missions * zones + uavs + payloads + 3)),
    ):
        if cells > MAX_TENSOR_CELLS:
            raise ScenarioError(f"scenario too large: {what} would exceed {MAX_TENSOR_CELLS} cells")


def _shaped(value, kind: type, what: str):
    """value when it is a JSON array (kind list) or object (kind dict); any
    other value, null among them, is rejected before anything iterates it."""
    if type(value) is not kind:
        got = _SHAPES.get(type(value)) or repr(value)
        raise ScenarioError(f"{what}: expected {_SHAPES[kind]}, got {got}")
    return value


def _text(value, what: str) -> str:
    """value as a name; numbers, null and lists are rejected."""
    if not isinstance(value, str):
        raise ScenarioError(f"{what} {value!r} is not a string")
    return value


def make_scenario(
    locations,
    zones,
    uav,
    payloads,
    missions,
    epochs,
    horizon,
    demand_entries=(),
    link_uav_entries=(),
    link_sink_entries=(),
    link_default_uav_mb=50000.0,
    link_default_sink_mb=50000.0,
    e_per_km_kg=3.125,
    hover_km_equiv=0.1,
    epoch_minutes=10.0,
) -> Scenario:
    """Assemble a Scenario, deriving distances, energies and dense tensors.

    demand_entries are sparse (epoch, mission name or id, zone, value) rows;
    missing entries default to zero.  Link entries override the defaults for
    specific location pairs.
    """
    locations = tuple(locations)
    zones = tuple(zones)
    payloads = tuple(payloads)
    missions = tuple(missions)
    L, Z, M, K = len(locations), len(zones), len(missions), int(epochs)

    coords = np.array([[l.x, l.y] for l in locations], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # validate reports non-finite coordinates
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        energy = e_per_km_kg * dist
    np.fill_diagonal(energy, hover_km_equiv * e_per_km_kg)

    name_to_mid = {m.name: m.id for m in missions}
    quality = np.zeros((L, M, Z), dtype=float)
    for z in zones:
        for loc_id, qmap in z.served_from.items():
            loc_id = _index(loc_id, L, f"zones[{z.id}].served_from: location id")
            for mname, q in qmap.items():
                if mname not in name_to_mid:
                    raise ScenarioError(f"zone {z.id} references unknown mission {mname!r}")
                quality[loc_id, name_to_mid[mname], z.id] = q

    demand = np.zeros((K, M, Z), dtype=float)
    for j, (k, m, z, val) in enumerate(demand_entries):
        if isinstance(m, str):
            m = name_to_mid.get(m, m)
        try:
            # numpy refuses too-large and fractional indices but wraps negative ones
            if not (type(k) is type(m) is type(z) is int and k >= 0 and m >= 0 and z >= 0):
                raise IndexError
            demand[k, m, z] = float(val)
        except OverflowError:  # an integer beyond the float range
            raise ScenarioError(f"demand[{j}]: value {val} is too large") from None
        except IndexError:
            # reject the row, or normalize numpy and integral-float ids
            if isinstance(m, str):
                raise ScenarioError(f"demand[{j}]: unknown mission {m!r}") from None
            k, m, z = (
                _index(v, n, f"demand[{j}]: {what}")
                for v, n, what in ((k, K, "epoch"), (m, M, "mission id"), (z, Z, "zone"))
            )
            demand[k, m, z] = float(val)

    link_uav = np.full((L, L), float(link_default_uav_mb))
    for l1, l2, mb in link_uav_entries:
        l1, l2 = _index(l1, L, "links.uav: location id"), _index(l2, L, "links.uav: location id")
        link_uav[l1, l2] = link_uav[l2, l1] = float(mb)
    link_sink = np.full(L, float(link_default_sink_mb))
    for l, mb in link_sink_entries:
        link_sink[_index(l, L, "links.sink: location id")] = float(mb)

    for arr in (dist, energy, quality, demand, link_uav, link_sink):
        arr.setflags(write=False)

    return Scenario(
        locations=locations,
        zones=zones,
        uav=uav,
        payloads=payloads,
        missions=missions,
        epochs=K,
        horizon=int(horizon),
        epoch_minutes=float(epoch_minutes),
        e_per_km_kg=float(e_per_km_kg),
        hover_km_equiv=float(hover_km_equiv),
        dist_km=dist,
        energy_wh_per_kg=energy,
        quality=quality,
        demand=demand,
        link_uav_mb=link_uav,
        link_sink_mb=link_sink,
        link_default_uav_mb=float(link_default_uav_mb),
        link_default_sink_mb=float(link_default_sink_mb),
    )


def _json_number(value) -> bool:
    """Whether json writes value as a number: a Python int or float (or a
    subclass, such as numpy's float64), but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(s: Scenario) -> list[ValidationIssue]:
    """Check every structural invariant; an empty list means the instance is
    sound, and serialize_scenario can write it."""
    issues: list[ValidationIssue] = []
    add = lambda f, idx, rule: issues.append(ValidationIssue(f, tuple(idx), rule))

    def finite(f, arr, *prefix) -> bool:
        """Report arr's first non-finite entry; True when there is none."""
        ok = np.isfinite(arr)
        if ok.all():
            return True
        add(f, (*prefix, *map(int, np.argwhere(~ok)[0])), "must be finite")
        return False

    L, Z, M, K = s.num_locations, s.num_zones, s.num_missions, s.epochs
    if L < 1:
        add("locations", (), "at least one location required")
        return issues
    for i, loc in enumerate(s.locations):
        if loc.id != i:
            add("locations", (i,), f"ids must be dense 0..{L - 1}, found {loc.id}")
        if not (_json_number(loc.x) and _json_number(loc.y)):
            add("locations", (i,), "coordinates must be Python numbers")
        elif not (math.isfinite(loc.x) and math.isfinite(loc.y)):
            add("locations", (i,), "coordinates must be finite")
        if not isinstance(loc.is_depot, bool):
            add("locations", (i,), "depot flag must be a Python bool")
    if not any(l.is_depot for l in s.locations):
        add("locations", (), "at least one depot required")

    for z_i, z in enumerate(s.zones):
        if z.id != z_i:
            add("zones", (z_i,), f"ids must be dense 0..{Z - 1}, found {z.id}")
        for loc_id, qmap in z.served_from.items():
            if not 0 <= loc_id < L:
                add("zones", (z.id, loc_id), "served_from references unknown location")
            if not all(map(_json_number, qmap.values())):
                add("zones", (z.id, loc_id), "quality must be a Python number")
    finite("quality", s.quality)
    if np.any(s.quality < 0):
        bad = np.argwhere(s.quality < 0)[0]
        add("quality", tuple(int(i) for i in bad), "quality must be nonnegative")

    u = s.uav
    for fname, val in (
        ("empty_weight_kg", u.empty_weight_kg),
        ("payload_capacity_kg", u.payload_capacity_kg),
        ("battery_capacity_wh", u.battery_capacity_wh),
        ("max_step_km", u.max_step_km),
        ("count", u.count),
    ):
        if fname != "count" and not _json_number(val):  # the writer turns count into an int
            add("uavs", (fname,), "must be a Python number")
        elif not math.isfinite(val):
            add("uavs", (fname,), "must be finite")
        elif val <= 0:
            add("uavs", (fname,), "must be strictly positive")

    for i, p in enumerate(s.payloads):
        if p.id != i:
            add("payloads", (i,), "ids must be dense in list order")
        if not _json_number(p.weight_kg):
            add("payloads", (p.id,), "weight must be a Python number")
        elif not math.isfinite(p.weight_kg):
            add("payloads", (p.id,), "weight must be finite")
        elif p.weight_kg < 0:
            add("payloads", (p.id,), "weight must be nonnegative")
        if p.weight_kg > u.payload_capacity_kg:
            add("payloads", (p.id,), "payload exceeds capacity")
        if p.deliverable:
            if p.target is None or p.window is None:
                add("payloads", (p.id,), "deliverable payload needs target and window")
            else:
                a, b = p.window
                if not 0 <= a <= b:
                    add("payloads", (p.id,), "window inverted")
                if b >= K:
                    add("payloads", (p.id,), f"window end {b} beyond last epoch {K - 1}")
                if not 0 <= p.target < L:
                    add("payloads", (p.id,), "target references unknown location")
        elif p.target is not None or p.window is not None:
            add("payloads", (p.id,), "non-deliverable payload must not set target/window")

    names = [m.name for m in s.missions]
    if len(set(names)) != len(names):
        add("missions", (), "mission names must be unique")
    relay = s.mission_by_name(RELAY)
    if s.service_mission_ids and relay is None:
        add("missions", (), "relay mission required when service missions exist")
    for i, m in enumerate(s.missions):
        if m.id != i:
            add("missions", (i,), "ids must be dense in list order")
        if not _json_number(m.mb_per_work):
            add("missions", (m.id,), "data per work unit must be a Python number")
        elif not math.isfinite(m.mb_per_work):
            add("missions", (m.id,), "data per work unit must be finite")
        elif m.mb_per_work < 0:
            add("missions", (m.id,), "data per work unit must be nonnegative")
        for pid in m.requires:
            if not 0 <= pid < s.num_payloads:
                add("missions", (m.id,), f"requires unknown payload {pid}")
    if relay is not None and not relay.requires:
        add("missions", (relay.id,), "relay must require its radio payload")

    if s.demand.shape != (K, M, Z):
        add("demand", s.demand.shape, f"shape must be ({K},{M},{Z})")
    else:
        finite("demand", s.demand)
        if np.any(s.demand < 0):
            bad = np.argwhere(s.demand < 0)[0]
            add("demand", tuple(int(i) for i in bad), "demand must be nonnegative")
        if relay is not None and np.any(s.demand[:, relay.id, :] != 0):
            add("demand", (relay.id,), "relay mission carries no zone demand")

    if s.dist_km.shape != (L, L):
        add("distances", s.dist_km.shape, f"shape must be ({L},{L})")
    elif finite("distances", s.dist_km):
        if np.any(np.abs(np.diag(s.dist_km)) > 0):
            add("distances", (), "self-distance must be zero")
        asym = np.argwhere(np.abs(s.dist_km - s.dist_km.T) > 1e-9)
        if asym.size:
            l1, l2 = (int(i) for i in asym[0])
            add("distances", (l1, l2), "asymmetric distance")
    finite("energy", s.e_per_km_kg, "per_km_kg")
    finite("energy", s.hover_km_equiv, "hover_km_equiv")
    if np.any(np.diag(s.energy_wh_per_kg) <= 0):
        add("energy", (), "hover cost on the diagonal must be positive")
    finite("links", s.link_default_uav_mb, "default_uav_mb")
    finite("links", s.link_default_sink_mb, "default_sink_mb")
    links_finite = finite("links", s.link_uav_mb, "uav") & finite("links", s.link_sink_mb, "sink")
    if (s.link_uav_mb < 0).any() or (s.link_sink_mb < 0).any():
        add("links", (), "capacities must be nonnegative")
    if links_finite and (np.abs(s.link_uav_mb - s.link_uav_mb.T) > 1e-9).any():
        add("links", (), "UAV-to-UAV capacity must be symmetric")

    finite("epoch_minutes", s.epoch_minutes)
    # make_scenario stores these as Python numbers; a replaced field may not be one
    for f, idx, val in (
        ("epochs", (), s.epochs),
        ("horizon", (), s.horizon),
        ("epoch_minutes", (), s.epoch_minutes),
        ("energy", ("per_km_kg",), s.e_per_km_kg),
        ("energy", ("hover_km_equiv",), s.hover_km_equiv),
        ("links", ("default_uav_mb",), s.link_default_uav_mb),
        ("links", ("default_sink_mb",), s.link_default_sink_mb),
    ):
        if not _json_number(val):
            add(f, idx, "must be a Python number")
    if s.horizon < 0 or s.horizon > K:
        add("horizon", (), "horizon must lie in [0, epochs]")
    if K < 1:
        add("epochs", (), "at least one epoch required")
    return issues


def require_valid(s: Scenario) -> None:
    """Raise ScenarioError, carrying the issues, if validate(s) finds any;
    validate runs once per instance, and the refusal is raised on every call."""
    issues = s.derived(validate)
    if issues:
        raise ScenarioError("scenario failed validation: " + "; ".join(map(str, issues)), list(issues))


# -- equipment groups --------------------------------------------------------------


def fixed_equipment(s: Scenario) -> list[tuple[int, frozenset, frozenset]]:
    """The fixed-equipment fleet as (count, forced_on, forbidden) groups: one
    third radio-only, one third camera-only, the remainder both.  The radio
    is the relay mission's first required payload, the camera the first
    other equipment payload."""
    relay = s.mission_by_name(RELAY)
    if relay is None or not relay.requires:
        raise ScenarioError("fixed equipment mode needs a relay mission with its radio")
    radio = relay.requires[0]
    others = [e for e in s.equipment_ids if e != radio]
    if not others:
        raise ScenarioError("fixed equipment mode needs a second equipment payload")
    camera = others[0]
    third = s.num_uavs // 3
    groups = []
    if third:
        groups.append((third, frozenset({radio}), frozenset({camera})))
        groups.append((third, frozenset({camera}), frozenset({radio})))
    both = s.num_uavs - 2 * third
    if both:
        groups.append((both, frozenset({radio, camera}), frozenset()))
    return groups


def check_equipment_groups(s: Scenario, groups) -> None:
    """Refuse (count, forced_on, forbidden) groups that do not partition the fleet."""
    if any(count < 0 for count, _, _ in groups):
        raise ValueError("equipment group counts must be nonnegative")
    if sum(count for count, _, _ in groups) != s.num_uavs:
        raise ValueError("equipment group counts must sum to the fleet size")


# -- file format ---------------------------------------------------------------


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, from json's C
    encoder (``json.dumps`` runs its pure-Python encoder whenever ``indent``
    is set).

    Each call encodes one container whose item separator carries the newline
    and indentation.  JSON strings escape newlines, so every newline in that
    text comes from a separator.  A container of scalars is reframed as it
    comes.  A list of non-empty rows of scalars, all lists or all dicts, is
    one call too: only a row ends in ``]`` or ``}`` before a separator, so
    one ``replace`` indents the row boundaries.  Any other container is
    encoded with 0 in place of each nested container, split at the
    separators, and each 0 replaced by that container's own text.

    Whatever ``json.dumps`` accepts gives its bytes: tuples are written as
    lists, and int, float, bool and None keys as strings.  Whatever it
    refuses (a numpy integer, a tuple key) raises the same ``TypeError``.  A
    circular reference raises ``ValueError`` or ``RecursionError``.
    """
    return _indented(doc, "\n") + "\n"


_CONTAINERS = (dict, list, tuple)
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@lru_cache
def _encoder(item_separator: str):
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _scalars(items) -> bool:
    """Whether no item is a dict, list or tuple; checked once per type,
    which is faster than isinstance per item."""
    types = set(map(type, items))
    return types <= _SCALAR_TYPES or not any(issubclass(t, _CONTAINERS) for t in types)


def _rows_of_scalars(rows) -> bool:
    """Whether rows are non-empty containers of scalars, all dicts or all
    lists and tuples."""
    kind = dict if isinstance(rows[0], dict) else (list, tuple)
    if not (all(issubclass(t, kind) for t in set(map(type, rows))) and all(rows)):
        return False
    return _scalars(chain.from_iterable(map(dict.values, rows) if kind is dict else rows))


def _indented(value, nl: str) -> str:
    """value as json.dumps(..., indent=2) writes it on a line that begins
    with nl (a newline and that line's indentation)."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return json.dumps(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = nl + "  "
    sep = "," + inner
    items = value.values() if is_dict else value
    if _scalars(items):
        text = _encoder(sep)(value)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if not is_dict and _rows_of_scalars(value):
        deeper = inner + "  "
        text = _encoder("," + deeper)(value)  # "[" + rows + "]", each row on one line
        opening, closing = text[1], text[-2]
        boundary = closing + "," + deeper + opening
        rows = text[2:-2].replace(boundary, inner + closing + "," + inner + opening + deeper)
        return "[" + inner + opening + deeper + rows + inner + closing + nl + "]"
    if is_dict:
        stub = {k: 0 if isinstance(v, _CONTAINERS) else v for k, v in value.items()}
    else:
        stub = [0 if isinstance(v, _CONTAINERS) else v for v in value]
    text = _encoder(sep)(stub)
    parts = text[1:-1].split(sep)
    for i, v in enumerate(items):
        if isinstance(v, _CONTAINERS):
            parts[i] = parts[i][:-1] + _indented(v, inner)  # [:-1] drops the stub's 0
    return text[0] + inner + sep.join(parts) + nl + text[-1]


def _payload_to_dict(p: PayloadItem) -> dict:
    d: dict = {"name": p.name, "weight_kg": p.weight_kg}
    if p.deliverable:
        d["deliver_to"] = int(p.target)
        d["window"] = [int(e) for e in p.window]
    return d


def _cell_rows(arr: np.ndarray, mask: np.ndarray) -> list[list]:
    """[*index, value] for each cell of arr where mask holds, in row-major
    order, the value as a float."""
    idx = np.nonzero(mask)
    return list(map(list, zip(*(i.tolist() for i in idx), arr[idx].astype(float).tolist())))


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-dict form of a scenario, the inverse of scenario_from_dict."""
    mission_names = [m.name for m in s.missions]
    demand_rows = _cell_rows(s.demand, s.demand != 0)
    for row in demand_rows:
        row[1] = mission_names[row[1]]
    # each location pair once, l1 <= l2
    link_rows = _cell_rows(s.link_uav_mb, np.triu(s.link_uav_mb != s.link_default_uav_mb))
    sink_rows = _cell_rows(s.link_sink_mb, s.link_sink_mb != s.link_default_sink_mb)
    zones = []
    for zone in s.zones:
        served = []
        for loc_id in sorted(zone.served_from):
            served.append({"location": int(loc_id), "quality": dict(sorted(zone.served_from[loc_id].items()))})
        zones.append({"served_from": served})
    return {
        "epochs": s.epochs,
        "horizon": s.horizon,
        "epoch_minutes": s.epoch_minutes,
        "energy": {"per_km_kg": s.e_per_km_kg, "hover_km_equiv": s.hover_km_equiv},
        "locations": [
            {"x": l.x, "y": l.y, "depot": l.is_depot} for l in s.locations
        ],
        "zones": zones,
        "uavs": {
            "count": int(s.uav.count),
            "empty_weight_kg": s.uav.empty_weight_kg,
            "payload_capacity_kg": s.uav.payload_capacity_kg,
            "battery_capacity_wh": s.uav.battery_capacity_wh,
            "max_step_km": s.uav.max_step_km,
        },
        "payloads": [_payload_to_dict(p) for p in s.payloads],
        "missions": [
            {"name": m.name, "requires": [s.payloads[i].name for i in m.requires], "mb_per_work": m.mb_per_work}
            for m in s.missions
        ],
        "demand": demand_rows,
        "links": {
            "default_uav_mb": s.link_default_uav_mb,
            "default_sink_mb": s.link_default_sink_mb,
            "uav": link_rows,
            "sink": sink_rows,
        },
    }


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from the plain-dict file form; raises ScenarioError on bad input."""

    def need(container, key, path):
        if key not in container:
            raise ScenarioError(f"{path}: missing required field {key!r}")
        return container[key]

    locations = []
    for i, ld in enumerate(_shaped(need(doc, "locations", "$"), list, "locations")):
        ld = _shaped(ld, dict, f"locations[{i}]")
        if not isinstance(ld.get("depot", False), bool):  # bool() would call "no" a depot
            raise ScenarioError(f"locations[{i}]: depot {ld['depot']!r} is not true or false")
        locations.append(
            Location(
                id=i,
                x=_number(need(ld, "x", f"locations[{i}]"), f"locations[{i}]: x"),
                y=_number(need(ld, "y", f"locations[{i}]"), f"locations[{i}]: y"),
                is_depot=ld.get("depot", False),
            )
        )
    if not locations:
        raise ScenarioError("locations: at least one location required")

    payloads = []
    pname_to_id: dict[str, int] = {}
    for i, pd in enumerate(_shaped(doc.get("payloads", []), list, "payloads")):
        pd = _shaped(pd, dict, f"payloads[{i}]")
        name = _text(pd.get("name", f"payload-{i}"), f"payloads[{i}]: name")
        deliver_to = pd.get("deliver_to")
        if deliver_to is not None:
            deliver_to = _integer(deliver_to, f"payloads[{i}]: deliver_to")
        window = pd.get("window")
        if window is not None:
            if not isinstance(window, list) or len(window) != 2:
                raise ScenarioError(f"payloads[{i}]: expected window [earliest, latest]")
            window = tuple(_integer(e, f"payloads[{i}]: window epoch") for e in window)
        payloads.append(
            PayloadItem(
                id=i,
                weight_kg=_number(need(pd, "weight_kg", f"payloads[{i}]"), f"payloads[{i}]: weight_kg"),
                name=name,
                deliverable=deliver_to is not None,
                target=deliver_to,
                window=window,
            )
        )
        pname_to_id[name] = i

    missions = []
    for i, md in enumerate(_shaped(doc.get("missions", []), list, "missions")):
        md = _shaped(md, dict, f"missions[{i}]")
        req = []
        for r in _shaped(md.get("requires", []), list, f"missions[{i}]: requires"):
            if isinstance(r, str):
                if r not in pname_to_id:
                    raise ScenarioError(f"missions[{i}]: requires unknown payload {r!r}")
                req.append(pname_to_id[r])
            else:
                req.append(_integer(r, f"missions[{i}]: requires payload id"))
        missions.append(
            Mission(
                id=i,
                name=_text(need(md, "name", f"missions[{i}]"), f"missions[{i}]: name"),
                requires=tuple(req),
                mb_per_work=_number(md.get("mb_per_work", 0.0), f"missions[{i}]: mb_per_work"),
            )
        )
    mission_names = {m.name for m in missions}

    zones = []
    for i, zd in enumerate(_shaped(doc.get("zones", []), list, "zones")):
        zd = _shaped(zd, dict, f"zones[{i}]")
        served: dict[int, dict[str, float]] = {}
        where = f"zones[{i}].served_from"
        for entry in _shaped(zd.get("served_from", []), list, where):
            entry = _shaped(entry, dict, where)
            loc = _integer(need(entry, "location", where), f"{where}: location id")
            what = f"{where}: quality"
            qmap = {str(k): _number(v, what) for k, v in _shaped(need(entry, "quality", where), dict, what).items()}
            for mname in qmap:
                if mname not in mission_names:
                    raise ScenarioError(f"zones[{i}]: quality names unknown mission {mname!r}")
            served[loc] = qmap
        zones.append(Zone(id=i, served_from=served))

    ud = _shaped(need(doc, "uavs", "$"), dict, "uavs")
    uav = UavSpec(
        empty_weight_kg=_number(need(ud, "empty_weight_kg", "uavs"), "uavs: empty_weight_kg"),
        payload_capacity_kg=_number(need(ud, "payload_capacity_kg", "uavs"), "uavs: payload_capacity_kg"),
        battery_capacity_wh=_number(need(ud, "battery_capacity_wh", "uavs"), "uavs: battery_capacity_wh"),
        max_step_km=_number(need(ud, "max_step_km", "uavs"), "uavs: max_step_km"),
        count=_integer(need(ud, "count", "uavs"), "uavs: count"),
    )

    energy = _shaped(doc.get("energy", {}), dict, "energy")
    links = _shaped(doc.get("links", {}), dict, "links")
    demand_rows = _shaped(doc.get("demand", []), list, "demand")
    for j, row in enumerate(demand_rows):
        if type(row) is not list or len(row) != 4:
            raise ScenarioError(f"demand[{j}]: expected [epoch, mission, zone, value]")
        value = row[3]
        if type(value) is not float and type(value) is not int:  # the usual case builds no message
            _number(value, f"demand[{j}]: value")
    for key, width, shape in (("uav", 3, "[location, location, mb]"), ("sink", 2, "[location, mb]")):
        for j, row in enumerate(_shaped(links.get(key, []), list, f"links.{key}")):
            if not isinstance(row, list) or len(row) != width:
                raise ScenarioError(f"links.{key}[{j}]: expected {shape}")
            _number(row[-1], f"links.{key}[{j}]: mb")

    epochs = _integer(need(doc, "epochs", "$"), "epochs")
    if epochs < 0:  # numpy would refuse the demand tensor with a bare "negative dimensions"
        raise ScenarioError("epochs: at least one epoch required")
    check_tensor_cells(uav.count, epochs, len(missions), len(zones), len(payloads))
    s = make_scenario(
        locations=locations,
        zones=zones,
        uav=uav,
        payloads=payloads,
        missions=missions,
        epochs=epochs,
        horizon=_integer(need(doc, "horizon", "$"), "horizon"),
        demand_entries=demand_rows,
        link_uav_entries=links.get("uav", []),
        link_sink_entries=links.get("sink", []),
        link_default_uav_mb=_number(links.get("default_uav_mb", 50000.0), "links: default_uav_mb"),
        link_default_sink_mb=_number(links.get("default_sink_mb", 50000.0), "links: default_sink_mb"),
        e_per_km_kg=_number(energy.get("per_km_kg", 3.125), "energy: per_km_kg"),
        hover_km_equiv=_number(energy.get("hover_km_equiv", 0.1), "energy: hover_km_equiv"),
        epoch_minutes=_number(doc.get("epoch_minutes", 10.0), "epoch_minutes"),
    )
    require_valid(s)
    return s


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top-level document must be an object")
    return scenario_from_dict(doc)


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON text; load_scenario(serialize_scenario(s)) reproduces s exactly."""
    return json_text(scenario_to_dict(s))
