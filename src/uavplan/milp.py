"""Fully linear MILP formulation of the fleet-planning problem, plus LP-format I/O.

The builder emits only linear rows; products between decisions are replaced by
auxiliary variables:

* battery recurrence: big-M rows per location pair, with the smallest constant
  that covers every pair (battery capacity plus the costliest hop at max load);
* delivery fulfilment: indicator variables bounded by carrying and presence;
* service quality: per-location allocation shares bounded by presence, summing
  to the mission allocation;
* relay capacity: every transfer is capped by the relay fraction times the
  largest link capacity, and each location pair (or sink location) below that
  maximum adds a big-M row that binds when the UAVs sit there, so uniform
  links add none;
* the max-min objective: a single epigraph variable under every per-mission
  satisfaction floor.

Variable and constraint counts follow closed forms (see ``model_size``),
asserted in the test suite.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Plan
from .scenario import Scenario, require_valid

BINARY_ROUND_TOL = 1e-4


@dataclass(frozen=True)
class Var:
    name: str
    kind: str  # binary | continuous
    lb: float
    ub: float
    symbol: str
    indices: tuple


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # <= | >= | =
    rhs: float


@dataclass
class MilpModel:
    variables: list[Var]
    constraints: list[Constraint]
    objective: str  # name of the maximized variable
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.name_to_idx = {v.name: i for i, v in enumerate(self.variables)}
        if len(self.name_to_idx) != len(self.variables):
            raise ValueError("variable names must be unique")

    def var(self, symbol: str, *indices) -> Var:
        return self.variables[self.name_to_idx[_name(symbol, indices)]]


def _name(symbol: str, indices) -> str:
    if not indices:
        return symbol
    return symbol + "_" + "_".join(map(str, indices))


class _Builder:
    """Accumulates variables and linear rows; the only way terms enter a model.

    Columns are looked up by (symbol, indices), so a term costs one dict
    lookup; the name string is joined once, in add_var.  Terms arrive as
    (column, float) pairs: build_milp reads its coefficients from Python
    lists, never numpy scalars, so rows are stored as given."""

    def __init__(self):
        self.vars: list[Var] = []
        self.index: dict[tuple, int] = {}
        self.rows: list[Constraint] = []

    def add_var(self, symbol, indices=(), kind="continuous", lb=0.0, ub=math.inf) -> int:
        key = (symbol, tuple(indices))
        name = _name(*key)
        if kind == "binary" and math.isinf(ub):
            ub = 1.0
        if key in self.index:
            raise ValueError(f"duplicate variable {name}")
        if len(name) > 255:
            raise ValueError(f"variable name too long: {name}")
        self.index[key] = i = len(self.vars)
        self.vars.append(Var(name, kind, float(lb), float(ub), *key))
        return i

    def add_row(self, name: str, terms, sense: str, rhs: float) -> None:
        clean = tuple([t for t in terms if t[1] != 0.0])
        if not clean:
            # emit nothing for vacuously true rows; a vacuously false one is a bug
            ok = (sense == "<=" and rhs >= 0) or (sense == ">=" and rhs <= 0) or (sense == "=" and rhs == 0)
            if not ok:
                raise ValueError(f"constraint {name} is infeasible with no terms")
            return
        self.rows.append(Constraint(name, clean, sense, float(rhs)))

    def get(self, symbol, *indices) -> int:
        return self.index[symbol, indices]


def build_milp(s: Scenario, depot_return: bool = True) -> MilpModel:
    """Emit the linearized model for a validated scenario; maximize Gamma."""
    require_valid(s)

    D, K, L = s.num_uavs, s.epochs, s.num_locations
    P, Z = s.num_payloads, s.num_zones
    service = list(s.service_mission_ids)
    ridx = s.relay_index
    depots = set(s.depot_ids)
    W, C, E = s.uav.empty_weight_kg, s.uav.payload_capacity_kg, s.uav.battery_capacity_wh
    H = s.horizon
    # coefficients come from nested lists, so every term is a Python float
    w = s.payload_weights().tolist()
    reach = s.reach.tolist()
    q = s.quality.tolist()
    n = s.demand.tolist()
    t_uav = s.link_uav_mb.tolist()
    t_sink = s.link_sink_mb.tolist()
    energy = s.energy_wh_per_kg.tolist()
    win_need = s.window_need.tolist()

    b = _Builder()

    # -- variables, grouped by symbol in export order --------------------------
    for d in range(D):
        for k in range(K):
            for l in range(L):
                ub = 1.0
                if k == 0 and l not in depots:
                    ub = 0.0  # fleet starts at a depot
                if depot_return and k == K - 1 and l not in depots:
                    ub = 0.0
                b.add_var("lam", (d, k, l), "binary", 0.0, ub)
    for d in range(D):
        for k in range(K):
            for p in range(P):
                b.add_var("om", (d, k, p), "binary")
    for d in range(D):
        for k in range(K):
            lb = E if k == 0 else 0.0
            b.add_var("beta", (d, k), "continuous", lb, E)
    for pl in s.payloads:
        if not pl.deliverable:
            continue
        a0, b0 = pl.window
        for d in range(D):
            for k in range(a0, b0 + 1):
                b.add_var("delta", (d, k, pl.id), "binary")
    for d in range(D):
        for k in range(K):
            for m in service:
                for z in range(Z):
                    b.add_var("mu", (d, k, m, z), "continuous", 0.0, 1.0)
    for d in range(D):
        for k in range(K):
            for l in range(L):
                for m in service:
                    for z in range(Z):
                        b.add_var("muh", (d, k, l, m, z), "continuous", 0.0, 1.0)
    has_relay = ridx is not None
    if has_relay:
        for d in range(D):
            for k in range(K):
                b.add_var("rho", (d, k), "continuous", 0.0, 1.0)
        for d1 in range(D):
            for d2 in range(D):
                if d1 == d2:
                    continue
                for k in range(K):
                    b.add_var("tau", (d1, d2, k), "continuous")
        for d in range(D):
            for k in range(K):
                b.add_var("tausink", (d, k), "continuous")

    # windowed demand totals decide which satisfaction ratios exist
    for k in range(K):
        for m in service:
            for z in range(Z):
                if win_need[k][m][z] > 0:
                    b.add_var("sig", (k, m, z), "continuous", 0.0, 1.0)
    for m in service:
        b.add_var("sigbar", (m,), "continuous", 0.0, 1.0)
    if service:
        gamma = b.add_var("Gamma", (), "continuous", 0.0, 1.0)
    else:
        gamma = b.add_var("Gamma", (), "continuous", 1.0, 1.0)

    # -- rows -------------------------------------------------------------------
    # one location per epoch
    for d in range(D):
        for k in range(K):
            b.add_row(
                f"loc_unique_{d}_{k}",
                [(b.get("lam", d, k, l), 1.0) for l in range(L)],
                "=",
                1.0,
            )
    # movement limited to one-epoch hops
    for d in range(D):
        for k in range(1, K):
            for l in range(L):
                terms = [(b.get("lam", d, k, l), 1.0)]
                terms += [(b.get("lam", d, k - 1, l2), -1.0) for l2 in range(L) if reach[l2][l]]
                b.add_row(f"travel_{d}_{k}_{l}", terms, "<=", 0.0)
    # payload capacity
    if P:
        for d in range(D):
            for k in range(K):
                b.add_row(
                    f"cap_{d}_{k}",
                    [(b.get("om", d, k, p), w[p]) for p in range(P)],
                    "<=",
                    C,
                )
    # payload changes only at depots
    for d in range(D):
        for k in range(1, K):
            depot_terms = [(b.get("lam", d, k, l), 1.0) for l in depots]
            for p in range(P):
                up = [(b.get("om", d, k, p), 1.0), (b.get("om", d, k - 1, p), -1.0)]
                dn = [(b.get("om", d, k, p), -1.0), (b.get("om", d, k - 1, p), 1.0)]
                b.add_row(f"lock_up_{d}_{k}_{p}", up + [(i, -c) for i, c in depot_terms], "<=", 0.0)
                b.add_row(f"lock_dn_{d}_{k}_{p}", dn + [(i, -c) for i, c in depot_terms], "<=", 0.0)
    # battery recurrence away from depots, big-M per location pair
    e_max = float(s.energy_wh_per_kg.max(initial=0.0))
    big_m = E + e_max * (W + C)
    for d in range(D):
        for k in range(1, K):
            for l1 in range(L):
                for l2 in range(L):
                    if l2 in depots or not reach[l1][l2]:
                        continue
                    e = energy[l1][l2]
                    terms = [
                        (b.get("beta", d, k), 1.0),
                        (b.get("beta", d, k - 1), -1.0),
                        (b.get("lam", d, k - 1, l1), big_m),
                        (b.get("lam", d, k, l2), big_m),
                    ]
                    terms += [(b.get("om", d, k, p), e * w[p]) for p in range(P)]
                    b.add_row(f"batt_{d}_{k}_{l1}_{l2}", terms, "<=", 2 * big_m - e * W)
    # deliveries: carried and present at the target within the window
    for pl in s.payloads:
        if not pl.deliverable:
            continue
        a0, b0 = pl.window
        cover = []
        for d in range(D):
            for k in range(a0, b0 + 1):
                dv = b.get("delta", d, k, pl.id)
                b.add_row(f"dlt_om_{d}_{k}_{pl.id}", [(dv, 1.0), (b.get("om", d, k, pl.id), -1.0)], "<=", 0.0)
                b.add_row(
                    f"dlt_lam_{d}_{k}_{pl.id}",
                    [(dv, 1.0), (b.get("lam", d, k, pl.target), -1.0)],
                    "<=",
                    0.0,
                )
                cover.append((dv, 1.0))
        b.add_row(f"deliv_{pl.id}", cover, ">=", 1.0)
    # equipment needed for missions
    for m in service:
        for p in s.missions[m].requires:
            for d in range(D):
                for k in range(K):
                    for z in range(Z):
                        b.add_row(
                            f"equip_{d}_{k}_{m}_{z}_{p}",
                            [(b.get("mu", d, k, m, z), 1.0), (b.get("om", d, k, p), -1.0)],
                            "<=",
                            0.0,
                        )
    if has_relay:
        for p in s.missions[ridx].requires:
            for d in range(D):
                for k in range(K):
                    b.add_row(
                        f"equip_relay_{d}_{k}_{p}",
                        [(b.get("rho", d, k), 1.0), (b.get("om", d, k, p), -1.0)],
                        "<=",
                        0.0,
                    )
    # epoch time budget
    if service or has_relay:
        for d in range(D):
            for k in range(K):
                terms = [(b.get("mu", d, k, m, z), 1.0) for m in service for z in range(Z)]
                if has_relay:
                    terms.append((b.get("rho", d, k), 1.0))
                b.add_row(f"budget_{d}_{k}", terms, "<=", 1.0)
    # location shares: tie mu-hat to presence and to the mission allocation
    for d in range(D):
        for k in range(K):
            for m in service:
                for z in range(Z):
                    for l in range(L):
                        b.add_row(
                            f"muh_lam_{d}_{k}_{l}_{m}_{z}",
                            [(b.get("muh", d, k, l, m, z), 1.0), (b.get("lam", d, k, l), -1.0)],
                            "<=",
                            0.0,
                        )
                    terms = [(b.get("muh", d, k, l, m, z), 1.0) for l in range(L)]
                    terms.append((b.get("mu", d, k, m, z), -1.0))
                    b.add_row(f"muh_sum_{d}_{k}_{m}_{z}", terms, "=", 0.0)
    # zone needs per epoch
    for k in range(K):
        for m in service:
            for z in range(Z):
                terms = [
                    (b.get("muh", d, k, l, m, z), q[l][m][z])
                    for d in range(D)
                    for l in range(L)
                    if q[l][m][z] != 0.0
                ]
                b.add_row(f"need_{k}_{m}_{z}", terms, "<=", n[k][m][z])
    # traffic flow and relay capacity
    if has_relay:

        def gen_terms(d, k, sign=1.0):
            out = []
            for m in service:
                rate = s.missions[m].mb_per_work
                if rate == 0.0:
                    continue
                for l in range(L):
                    for z in range(Z):
                        if q[l][m][z] != 0.0:
                            out.append((b.get("muh", d, k, l, m, z), sign * rate * q[l][m][z]))
            return out

        for d in range(D):
            for k in range(K):
                terms = gen_terms(d, k, 1.0)
                for d2 in range(D):
                    if d2 == d:
                        continue
                    terms.append((b.get("tau", d2, d, k), 1.0))
                    terms.append((b.get("tau", d, d2, k), -1.0))
                terms.append((b.get("tausink", d, k), -1.0))
                b.add_row(f"flow_{d}_{k}", terms, "=", 0.0)
        for k in range(K):
            terms = []
            for d in range(D):
                terms += gen_terms(d, k, 1.0)
                terms.append((b.get("tausink", d, k), -1.0))
            b.add_row(f"sink_{k}", terms, "=", 0.0)
        # relay capacity: taumax/tausinkmax cap every transfer at the largest
        # link; each location (pair) below it gets a big-M row that reads
        # tau <= t * rho once the UAVs sit there, with M = max - t, the
        # smallest constant under which the max row implies it elsewhere
        t_max = float(s.link_uav_mb.max(initial=0.0))
        ts_max = float(s.link_sink_mb.max(initial=0.0))
        tight = [(l1, l2) for l1 in range(L) for l2 in range(L) if t_uav[l1][l2] < t_max]
        tight_sink = [l for l in range(L) if t_sink[l] < ts_max]
        for d1 in range(D):
            for d2 in range(D):
                if d1 == d2:
                    continue
                for k in range(K):
                    tau, rho = b.get("tau", d1, d2, k), b.get("rho", d1, k)
                    for l1, l2 in tight:
                        big_m = t_max - t_uav[l1][l2]
                        terms = [
                            (tau, 1.0),
                            (rho, -t_uav[l1][l2]),
                            (b.get("lam", d1, k, l1), big_m),
                            (b.get("lam", d2, k, l2), big_m),
                        ]
                        b.add_row(f"taucap_{d1}_{d2}_{k}_{l1}_{l2}", terms, "<=", 2 * big_m)
                    b.add_row(f"taumax_{d1}_{d2}_{k}", [(tau, 1.0), (rho, -t_max)], "<=", 0.0)
        for d in range(D):
            for k in range(K):
                tau, rho = b.get("tausink", d, k), b.get("rho", d, k)
                for l in tight_sink:
                    big_m = ts_max - t_sink[l]
                    terms = [(tau, 1.0), (rho, -t_sink[l]), (b.get("lam", d, k, l), big_m)]
                    b.add_row(f"tausinkcap_{d}_{k}_{l}", terms, "<=", big_m)
                b.add_row(f"tausinkmax_{d}_{k}", [(tau, 1.0), (rho, -ts_max)], "<=", 0.0)
    # satisfaction ratios over the sliding window, epigraph objective
    for k in range(K):
        lo = max(0, k - H)
        for m in service:
            for z in range(Z):
                if win_need[k][m][z] <= 0:
                    continue
                terms = [(b.get("sig", k, m, z), win_need[k][m][z])]
                for h in range(lo, k + 1):
                    for d in range(D):
                        for l in range(L):
                            if q[l][m][z] != 0.0:
                                terms.append((b.get("muh", d, h, l, m, z), -q[l][m][z]))
                b.add_row(f"sig_{k}_{m}_{z}", terms, "=", 0.0)
                b.add_row(
                    f"sigbar_{k}_{m}_{z}",
                    [(b.get("sigbar", m), 1.0), (b.get("sig", k, m, z), -1.0)],
                    "<=",
                    0.0,
                )
    for m in service:
        b.add_row(f"gamma_{m}", [(gamma, 1.0), (b.get("sigbar", m), -1.0)], "<=", 0.0)

    meta = {
        "uavs": D,
        "epochs": K,
        "locations": L,
        "payloads": P,
        "zones": Z,
        "missions": [m.name for m in s.missions],
        "service_missions": service,
        "relay_index": ridx,
        "depot_return": depot_return,
    }
    return MilpModel(variables=b.vars, constraints=b.rows, objective="Gamma", meta=meta)


def model_size(s: Scenario) -> dict:
    """Closed-form variable and constraint counts for a scenario's model.

    Variables: |lam| = DKL, |om| = DKP, |beta| = DK, |delta| = D * sum of
    window lengths, |mu| = DK*Ms*Z, |muh| = DKL*Ms*Z, |rho| = |tausink| = DK,
    |tau| = D(D-1)K (relay families only when a relay mission exists), one
    sig per (epoch, service mission, zone) with windowed demand, one sigbar
    per service mission, plus Gamma.

    Constraint families follow the same index spaces; sense rows that would
    be vacuously true (no terms) are not emitted, so the need-row count skips
    (mission, zone) pairs no location can serve.  Battery rows cover the
    reachable hops into non-depot locations; taucap and tausinkcap rows cover
    the location pairs and locations whose link capacity is below the maximum.
    """
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    P, Z = s.num_payloads, s.num_zones
    Ms = len(s.service_mission_ids)
    relay = 1 if s.relay_index is not None else 0
    win = sum(b0 - a0 + 1 for p in s.payloads if p.deliverable for a0, b0 in [p.window])
    n_sig = int(s.needed_ratios.sum())
    pairs = D * (D - 1)
    nvars = (
        D * K * L  # lam
        + D * K * P  # om
        + D * K  # beta
        + D * win  # delta
        + D * K * Ms * Z  # mu
        + D * K * L * Ms * Z  # muh
        + relay * (2 * D * K + pairs * K)  # rho, tausink, tau
        + n_sig  # sig
        + Ms  # sigbar
        + 1  # Gamma
    )
    servable = int(sum(1 for m in s.service_mission_ids for z in range(Z) if s.quality[:, m, z].any()))
    n_req = sum(len(s.missions[m].requires) for m in s.service_mission_ids)
    hops = int(s.reach[:, ~s.is_depot_arr()].sum())
    tight = int((s.link_uav_mb < s.link_uav_mb.max(initial=0.0)).sum())
    tight_sink = int((s.link_sink_mb < s.link_sink_mb.max(initial=0.0)).sum())
    rows = {
        "loc_unique": D * K,
        "travel": D * (K - 1) * L,
        "cap": D * K if P else 0,
        "lock": 2 * D * (K - 1) * P,
        "batt": D * (K - 1) * hops,
        "dlt": 2 * D * win,
        "deliv": len(s.deliverable_ids),
        "equip": D * K * Z * n_req + (D * K * len(s.missions[s.relay_index].requires) if relay else 0),
        "budget": D * K if (Ms or relay) else 0,
        "muh": D * K * Ms * Z * (L + 1),
        "need": K * servable,
        "flow": relay * D * K,
        "sink": relay * K,
        "taucap": relay * pairs * K * tight,
        "taumax": relay * pairs * K,
        "tausinkcap": relay * D * K * tight_sink,
        "tausinkmax": relay * D * K,
        "sig": n_sig,
        "sigbar": n_sig,
        "gamma": Ms,
    }
    return {"variables": nvars, "sig": n_sig, "mu_hat": D * K * L * Ms * Z, "rows": rows}


# -- LP text export / import -----------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on its first lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def export_lp(m: MilpModel) -> str:
    """CPLEX-LP text with deterministic ordering and 12-significant-digit
    coefficients."""
    names = [v.name for v in m.variables]
    prefix = _Memo(lambda a: f"{'-' if a < 0 else '+'} {abs(a):.12g} ")  # coefficient -> signed text
    out = ["\\ uavplan model export", "Maximize", f" obj: {m.objective}", "Subject To"]
    for c in m.constraints:
        if not c.terms:
            raise AssertionError("empty constraint row reached the exporter")
        body = " ".join([prefix[a] + names[i] for i, a in c.terms])
        if body[0] == "+":  # the first term carries its sign only when negative
            body = body[2:]
        line = f" {c.name}: {body} {c.sense} {c.rhs:.12g}"
        if len(line) > 500:  # wrap very long rows for picky readers
            words = line.split(" ")
            line_parts, cur = [], ""
            for wd in words:
                if len(cur) + len(wd) + 1 > 230:
                    line_parts.append(cur)
                    cur = "   " + wd
                else:
                    cur = wd if not cur else cur + " " + wd
            line_parts.append(cur)
            line = "\n".join(line_parts)
        out.append(line)
    out.append("Bounds")
    for v in m.variables:
        if v.kind == "binary":
            if v.ub == 0.0:
                out.append(f" {v.name} = 0")
            continue
        if v.lb == v.ub:
            out.append(f" {v.name} = {_fmt(v.lb)}")
        elif math.isinf(v.ub):
            if v.lb != 0.0:
                out.append(f" {v.name} >= {_fmt(v.lb)}")
        else:
            out.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    binaries = [v.name for v in m.variables if v.kind == "binary"]
    if binaries:
        out.append("Binary")
        line = ""
        for name in binaries:
            if len(line) + len(name) + 1 > 230:
                out.append(" " + line.rstrip())
                line = ""
            line += name + " "
        if line:
            out.append(" " + line.rstrip())
    out.append("End")
    return "\n".join(out) + "\n"


_NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_VAR = r"[A-Za-z][A-Za-z0-9_]*"
_BOUND = r"[-+]?[\d.eE+-]+"
# a backslash starts a comment that runs to the end of its line
_COMMENT_RE = re.compile(r"\\[^\n]*")
# a section keyword alone on its line, read after the newline before it
_SECTION_RE = re.compile(
    r"\n[^\S\n]*(maximize|minimize|subject to|bounds|binary|binaries|end)[^\S\n]*(?=\n|\Z)", re.I
)
_OBJECTIVE_RE = re.compile(rf"\s*\w+\s*:\s*({_VAR})\s*")
# one row: name, terms, sense and a right-hand side that ends its line
_ROW_RE = re.compile(rf"\s*([A-Za-z0-9_]+)\s*:\s*([^<>=]*)(<=|>=|=)\s*([-+]?{_NUMBER})[^\S\n]*(?:\n|\Z)")
_ROW_NAME_RE = re.compile(r"\s*([A-Za-z0-9_]+)\s*:")
# one term, its sign and coefficient read as "" when absent; re.split also
# returns what lies between terms, which must be empty
_TERM_RE = re.compile(rf"([+-]?)\s*((?:{_NUMBER})?)\s*({_VAR})\s*")
_BOUND_RE = re.compile(rf"\s*(?:({_BOUND})\s*<=\s*({_VAR})\s*<=\s*({_BOUND})|({_VAR})\s*(>=|=)\s*({_BOUND}))\s*")
_HEAD_RE = re.compile(r"[A-Za-z]+")
_INDEX_RE = re.compile(r"_(\d+)")


def parse_lp(text: str) -> MilpModel:
    """Re-read an exported LP file into a structurally equal model.

    Variables are numbered in the order they first appear in the text.  Text
    that cannot be read exactly (a row without sense and right-hand side, a
    term that is not ``[sign] [coefficient] name``, terms not joined by ``+``
    or ``-``, a repeated row name, a bound line of another form, or no End
    line) raises ValueError."""
    if "\\" in text:
        text = _COMMENT_RE.sub("", text)
    parts = _SECTION_RE.split("\n" + text)
    ids = _Memo(lambda name: len(ids))  # variable name -> index, numbered on first appearance
    coefficients = _Memo(lambda text: float(text + "1" if text in ("", "+", "-") else text))  # absent reads as 1
    objective = None
    constraints: list[Constraint] = []
    row_names: set[str] = set()
    bounds: dict[str, tuple[float, float]] = {}
    binaries: set[str] = set()
    ended = False
    for keyword, body in zip(parts[1::2], parts[2::2]):
        keyword = keyword.lower()
        if keyword == "minimize":
            raise ValueError("the model maximizes its objective; a Minimize section is not supported")
        if keyword == "end":
            ended = True
            break
        if keyword == "maximize":
            mobj = _OBJECTIVE_RE.fullmatch(body)
            if not mobj:
                raise ValueError(f"objective must be a single variable, got {body.strip()!r}")
            objective = mobj.group(1)
            ids[objective]  # numbers it first
        elif keyword == "subject to":
            body = body.rstrip()
            pos, end = 0, len(body)
            while pos < end:
                mrow = _ROW_RE.match(body, pos)
                if not mrow:
                    mname = _ROW_NAME_RE.match(body, pos)
                    if not mname:
                        raise ValueError(f"cannot parse constraint: {body[pos:pos + 80].strip()!r}")
                    raise ValueError(f"constraint {mname.group(1)} does not end in a sense and right-hand side")
                pos = mrow.end()
                name, terms_text, sense, rhs = mrow.groups()
                if name in row_names:
                    raise ValueError(f"constraint {name} appears twice")
                row_names.add(name)
                split = _TERM_RE.split(terms_text)
                if any(split[::4]):
                    bad = next(gap for gap in split[::4] if gap)
                    raise ValueError(f"constraint {name}: cannot read {bad.strip()!r} as a term")
                if "" in split[5::4]:
                    raise ValueError(f"constraint {name}: terms must be joined by + or -")
                index = map(ids.__getitem__, split[3::4])
                value = map(coefficients.__getitem__, map(operator.add, split[1::4], split[2::4]))
                constraints.append(Constraint(name, tuple(zip(index, value)), sense, float(rhs)))
        elif keyword == "bounds":
            for line in body.splitlines():
                if not line.strip():
                    continue
                mb = _BOUND_RE.fullmatch(line)
                if not mb:
                    raise ValueError(f"cannot parse bound line {line.strip()!r}")
                lo, nm, hi, nm1, sense, val = mb.groups()
                if nm is None:
                    nm, lo = nm1, float(val)
                    hi = lo if sense == "=" else math.inf
                else:
                    lo, hi = float(lo), float(hi)
                ids[nm]  # numbers a name no row uses
                bounds[nm] = (lo, hi)
        else:  # binary
            for nm in body.split():
                ids[nm]  # numbers a name no row uses
                binaries.add(nm)
    if objective is None:
        raise ValueError("no objective found")
    if not ended:
        raise ValueError("no End line: the LP text is cut short")

    variables = []
    for nm in ids:
        kind = "binary" if nm in binaries else "continuous"
        if nm in bounds:
            lb, ub = bounds[nm]
        elif kind == "binary":
            lb, ub = 0.0, 1.0
        else:
            lb, ub = 0.0, math.inf
        head = _HEAD_RE.match(nm)
        if not head:
            raise ValueError(f"variable name {nm!r} does not start with a letter")
        variables.append(Var(nm, kind, lb, ub, head.group(), tuple(map(int, _INDEX_RE.findall(nm)))))
    return MilpModel(variables=variables, constraints=constraints, objective=objective)


def models_equal(a: MilpModel, b: MilpModel, tol: float = 1e-9) -> bool:
    """Structural equality: same variables (any order), bounds, kinds, rows
    and objective."""
    if a.objective != b.objective or len(a.variables) != len(b.variables):
        return False
    for va, vb in zip(
        sorted(a.variables, key=lambda v: v.name), sorted(b.variables, key=lambda v: v.name)
    ):
        if (va.name, va.kind) != (vb.name, vb.kind):
            return False
        if abs(va.lb - vb.lb) > tol:
            return False
        if not (math.isinf(va.ub) and math.isinf(vb.ub)) and abs(va.ub - vb.ub) > tol:
            return False
    if len(a.constraints) != len(b.constraints):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if (ca.name, ca.sense) != (cb.name, cb.sense) or abs(ca.rhs - cb.rhs) > tol:
            return False
        ta = sorted((a.variables[i].name, c) for i, c in ca.terms)
        tb = sorted((b.variables[i].name, c) for i, c in cb.terms)
        if len(ta) != len(tb):
            return False
        for (na, va_), (nb, vb_) in zip(ta, tb):
            if na != nb or abs(va_ - vb_) > tol:
                return False
    return True


# -- solutions --------------------------------------------------------------------


def parse_solution(text: str) -> dict[str, float]:
    """Whitespace-separated `name value` lines; # starts a comment.  A value
    that is not a number or is NaN, or a name given twice, is a ValueError
    naming the line."""
    out: dict[str, float] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'name value', got {raw!r}")
        name = parts[0]
        try:
            val = float(parts[1])
        except ValueError:
            raise ValueError(f"line {ln}: value {parts[1]!r} for variable {name} is not a number") from None
        if math.isnan(val):
            raise ValueError(f"line {ln}: NaN value for variable {name}")
        if name in out:
            raise ValueError(f"line {ln}: variable {name} appears twice")
        out[name] = val
    return out


def import_solution(m: MilpModel, sol: dict[str, float]) -> Plan:
    """Rebuild a Plan from solver output on a built model.

    Every lam and om value must be present and within 1e-4 of 0 or 1, and
    each UAV-epoch needs exactly one location; missing mu, rho, tau and
    tausink values read as 0, and other variables (delta, beta, ...) are
    ignored.
    """
    meta = m.meta
    if not meta:
        raise ValueError("model carries no scenario metadata; rebuild it with build_milp")
    D, K, L = meta["uavs"], meta["epochs"], meta["locations"]
    P, Z = meta["payloads"], meta["zones"]
    M = len(meta["missions"])
    lam = np.zeros((D, K, L), dtype=int)
    plan = Plan(
        np.zeros((D, K), dtype=int), np.zeros((D, K, P), dtype=bool), np.zeros((D, K, M, Z)),
        np.zeros((D, K)), np.zeros((D, D, K)), np.zeros((D, K)),
    )
    binaries = {"lam": lam, "om": plan.payloads}
    continuous = {
        "mu": plan.mission_alloc, "rho": plan.relay_frac, "tau": plan.transfers, "tausink": plan.sink_transfers,
    }
    for v in m.variables:
        if v.symbol in binaries:
            if v.name not in sol:
                raise KeyError(f"missing variable: {v.name}")
            val = sol[v.name]
            if min(abs(val), abs(val - 1.0)) > BINARY_ROUND_TOL:
                raise ValueError(f"binary {v.name} = {val!r} is farther than {BINARY_ROUND_TOL} from 0/1")
            binaries[v.symbol][v.indices] = int(round(val))
        elif v.symbol in continuous:
            continuous[v.symbol][v.indices] = sol.get(v.name, 0.0)
    for d, k in np.argwhere(lam.sum(axis=2) != 1):
        raise ValueError(f"UAV {d} epoch {k}: expected exactly one location, got {np.flatnonzero(lam[d, k]).tolist()}")
    plan.locations = lam.argmax(axis=2)
    return plan


def solution_to_text(sol: dict[str, float]) -> str:
    return "\n".join(f"{k} {v!r}" for k, v in sol.items()) + "\n"
