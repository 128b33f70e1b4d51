import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from uavplan import bruteforce
from uavplan.bruteforce import solve_model_exhaustive
from uavplan.evaluator import Plan, check_feasibility, satisfaction
from uavplan.exact import EnumerationLimits, solve_exact
from uavplan.milp import (
    MilpModel,
    build_milp,
    export_lp,
    import_solution,
    models_equal,
    model_size,
    parse_lp,
    parse_solution,
    solution_to_text,
)
from uavplan.scenario import (
    Location,
    Mission,
    PayloadItem,
    UavSpec,
    Zone,
    fixed_equipment,
    load_scenario,
    make_scenario,
)
from uavplan.synth import generate_preset

from scenarios import flex_fixed_scenario, tiny_delivery, tiny_instance, tiny_mixed


def delivery_only_two_epochs():
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 1.0, 0.0, False)],
        zones=[],
        uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
        payloads=[PayloadItem(0, 0.5, "pack", True, 1, (0, 1))],
        missions=[],
        epochs=2,
        horizon=1,
    )


def overridden_tiny_mixed():
    return tiny_mixed(link_uav_entries=[(0, 2, 2.0), (1, 1, 9e4)], link_sink_entries=[(2, 6e4)])


@pytest.fixture(scope="module")
def size_instances(sf_small_text):
    return [tiny_delivery(), tiny_mixed(), overridden_tiny_mixed(), load_scenario(sf_small_text)]


ROW_PREFIXES = {
    "loc_unique": "loc_unique_",
    "travel": "travel_",
    "cap": "cap_",
    "lock": "lock_",
    "batt": "batt_",
    "dlt": "dlt_",
    "deliv": "deliv_",
    "equip": "equip_",
    "budget": "budget_",
    "muh": "muh_",
    "need": "need_",
    "flow": "flow_",
    "sink": "sink_",
    "taucap": "taucap_",
    "taumax": "taumax_",
    "tausinkcap": "tausinkcap_",
    "tausinkmax": "tausinkmax_",
    "gamma": "gamma_",
}


class TestStructure:
    def test_delta_count_is_fleet_times_window(self):
        m = build_milp(delivery_only_two_epochs())
        deltas = [v for v in m.variables if v.symbol == "delta"]
        assert len(deltas) == 2  # one UAV, two-epoch window

    def test_empty_mission_model_has_no_service_variables(self):
        m = build_milp(tiny_delivery())
        symbols = {v.symbol for v in m.variables}
        assert {"mu", "muh", "rho", "tau", "tausink", "sig", "sigbar"}.isdisjoint(symbols)
        gamma = m.var("Gamma")
        assert gamma.lb == gamma.ub == 1.0

    def test_variable_counts_match_closed_forms(self, size_instances):
        for s in size_instances:
            m = build_milp(s)
            assert len(m.variables) == model_size(s)["variables"]

    def test_constraint_family_counts_match_closed_forms(self, size_instances):
        for s in size_instances:
            m = build_milp(s)
            expected = model_size(s)["rows"]
            assert set(expected) == set(ROW_PREFIXES)
            for family, pre in ROW_PREFIXES.items():
                got = sum(1 for c in m.constraints if c.name.startswith(pre))
                assert got == expected[family], (family, got, expected[family])
            assert sum(expected.values()) == len(m.constraints)

    def test_link_capacity_rows_only_below_the_maximum(self, sf_small_text):
        for s in (tiny_mixed(), load_scenario(sf_small_text)):
            m = build_milp(s)
            assert {"rho", "tau", "tausink"} <= {v.symbol for v in m.variables}
            assert not any(c.name.startswith(("taucap_", "tausinkcap_")) for c in m.constraints)
        m = build_milp(overridden_tiny_mixed())
        assert {"wt", "wts"}.isdisjoint(v.symbol for v in m.variables)
        assert not any(c.name.startswith(("wt_", "wts_")) for c in m.constraints)
        # raised links at (1, 1) and at sink 2 leave every other entry below the maximum
        pairs = {tuple(c.name.split("_")[-2:]) for c in m.constraints if c.name.startswith("taucap_")}
        assert pairs == {(str(a), str(b)) for a in range(3) for b in range(3)} - {("1", "1")}
        sinks = {c.name.split("_")[-1] for c in m.constraints if c.name.startswith("tausinkcap_")}
        assert sinks == {"0", "1"}

    def test_names_unique_and_short(self):
        m = build_milp(tiny_mixed())
        names = [v.name for v in m.variables]
        assert len(set(names)) == len(names)
        assert max(len(n) for n in names) <= 255

    def test_builder_rejects_invalid_scenario(self):
        import dataclasses

        s = tiny_mixed()
        bad = dataclasses.replace(s, horizon=99)
        with pytest.raises(ValueError):
            build_milp(bad)


class TestExport:
    def test_objective_line(self):
        text = export_lp(build_milp(tiny_delivery()))
        lines = text.splitlines()
        assert lines[1] == "Maximize"
        assert lines[2] == " obj: Gamma"

    def test_golden_file(self, tiny_delivery_lp_text):
        assert export_lp(build_milp(tiny_delivery())) == tiny_delivery_lp_text

    def test_export_deterministic(self):
        a = export_lp(build_milp(tiny_mixed()))
        b = export_lp(build_milp(tiny_mixed()))
        assert a == b

    @pytest.mark.parametrize("builder", [tiny_delivery, tiny_mixed])
    def test_round_trip(self, builder):
        m = build_milp(builder())
        assert models_equal(m, parse_lp(export_lp(m)))

    @pytest.mark.parametrize(
        "edit",
        ["objective", "variable-count", "name", "kind", "lb", "ub", "row-count", "row-name", "sense", "rhs",
         "term-count", "coefficient"],
    )
    def test_models_equal_refuses_each_difference(self, edit):
        """One difference of each kind models_equal compares, each larger
        than its tolerance, makes the models unequal in both orders."""
        m = build_milp(tiny_delivery())
        variables, rows, objective = list(m.variables), list(m.constraints), m.objective
        v = m.name_to_idx["beta_0_0"]  # lb = ub = battery capacity
        r = next(i for i, c in enumerate(rows) if c.name == "loc_unique_0_0")  # two terms, "="
        var, row = variables[v], rows[r]
        if edit == "objective":
            objective = var.name
        elif edit == "variable-count":
            variables.append(var._replace(name="extra"))
        elif edit == "row-count":
            rows.pop()
        elif edit in ("name", "kind", "lb", "ub"):
            change = {"name": var.name + "_9", "kind": "binary", "lb": var.lb - 1e-6, "ub": var.ub + 1e-6}
            variables[v] = var._replace(**{edit: change[edit]})
        else:
            (i, a), *rest = row.terms
            change = {"row-name": ("name", row.name + "x"), "sense": ("sense", "<="), "rhs": ("rhs", row.rhs + 1e-6),
                      "term-count": ("terms", row.terms[1:]), "coefficient": ("terms", ((i, a + 1e-6), *rest))}
            field, value = change[edit]
            rows[r] = row._replace(**{field: value})
        edited = MilpModel(variables, rows, objective)
        assert models_equal(m, MilpModel(list(m.variables), list(m.constraints), m.objective))
        assert not models_equal(m, edited)
        assert not models_equal(edited, m)

    def test_minimize_section_rejected(self):
        """The model maximizes Gamma; reading Minimize as Maximize would flip it."""
        text = export_lp(build_milp(tiny_delivery())).replace("Maximize", "Minimize", 1)
        with pytest.raises(ValueError, match="Minimize"):
            parse_lp(text)

    def test_reads_hand_written_text(self):
        """Comments, lower-case sections, terms without a coefficient or a
        space after the sign, a wrapped row and a right-hand side on the next
        line."""
        text = (
            "\\ written by hand\n"
            "maximize\n obj: g\n"
            "subject to\n"
            " r1: x - y + 2.5e1 z\n   -g <= 4 \\ trailing comment\n"
            " r2: -x >=\n   -1\n"
            "bounds\n 0 <= g <= 1\n y >= -2\n"
            "binaries\n x\n"
            "end\n"
        )
        m = parse_lp(text)
        assert {v.name: (m.name_to_idx[v.name], v.kind, v.lb, v.ub) for v in m.variables} == {
            "g": (0, "continuous", 0.0, 1.0),
            "x": (1, "binary", 0.0, 1.0),
            "y": (2, "continuous", -2.0, float("inf")),
            "z": (3, "continuous", 0.0, float("inf")),
        }
        r1, r2 = m.constraints
        assert (r1.name, r1.terms, r1.sense, r1.rhs) == ("r1", ((1, 1.0), (2, -1.0), (3, 25.0), (0, -1.0)), "<=", 4.0)
        assert (r2.name, r2.terms, r2.sense, r2.rhs) == ("r2", ((1, -1.0),), ">=", -1.0)

    @pytest.mark.parametrize(
        "row, edited, message",
        [
            # all but text-after-rhs were read silently before: as 1 * lam_0_0_0,
            # with the term skipped, as a second row of the same name, as a sum
            # and as beta_0_0 = 200
            (" loc_unique_0_0: 1 lam_0_0_0", " loc_unique_0_0: 3 * lam_0_0_0", "loc_unique_0_0: cannot read '3 \\*'"),
            (" loc_unique_0_0: 1 lam_0_0_0", " loc_unique_0_0: 1.2.3 lam_0_0_0", "loc_unique_0_0: cannot read '1\\.'"),
            (" loc_unique_0_1:", " loc_unique_0_0:", "constraint loc_unique_0_0 appears twice"),
            (" loc_unique_0_0: 1 lam_0_0_0 +", " loc_unique_0_0: 1 lam_0_0_0", "loc_unique_0_0: terms must be joined"),
            (" lam_0_0_1 = 1\n", " lam_0_0_1 = 1 x\n", "loc_unique_0_0 does not end in a sense"),
            (" beta_0_0 = 200", " beta_0_0 = 200 junk", "bound line 'beta_0_0 = 200 junk'"),
            # each bound value below used to fail in float() with a bare
            # "could not convert string to float"
            (" beta_0_0 = 200", " beta_0_0 = 1.2.3", "bound line 'beta_0_0 = 1\\.2\\.3'"),
            (" beta_0_0 = 200", " beta_0_0 = 1e", "bound line 'beta_0_0 = 1e'"),
            (" beta_0_0 = 200", " beta_0_0 = --5", "bound line 'beta_0_0 = --5'"),
            (" beta_0_0 = 200", " beta_0_0 = -", "bound line 'beta_0_0 = -'"),
        ],
        ids=["multiplication", "malformed-number", "duplicate-row", "missing-operator", "text-after-rhs", "bound-junk",
             "bound-two-points", "bound-bare-exponent", "bound-double-sign", "bound-lone-sign"],
    )
    def test_unreadable_text_refused(self, tiny_delivery_lp_text, row, edited, message):
        assert row in tiny_delivery_lp_text
        with pytest.raises(ValueError, match=message):
            parse_lp(tiny_delivery_lp_text.replace(row, edited, 1))

    def test_truncated_text_refused(self, tiny_delivery_lp_text):
        """Cut inside the last row, the text used to parse as 20 of 21 rows."""
        last = tiny_delivery_lp_text.index(" deliv_0: ")
        with pytest.raises(ValueError, match="constraint deliv_0 does not end in a sense"):
            parse_lp(tiny_delivery_lp_text[: last + len(" deliv_0: 1 delta")])
        # cut after a whole row, only the missing End line shows it
        with pytest.raises(ValueError, match="no End line"):
            parse_lp(tiny_delivery_lp_text[: tiny_delivery_lp_text.index("Bounds")])


def enumerate_micro_assignments(s, scaled=False):
    """Every (location, payload) binary pattern of a one-UAV micro instance,
    plus a few continuous samples on top of each.  With ``scaled``, sink
    transfers are the relay effort times one random factor per plan, so whole
    plans fall under, between and over the link capacities."""
    rng = np.random.default_rng(0)
    K, L, P = s.epochs, s.num_locations, s.num_payloads
    for locs in itertools.product(range(L), repeat=K):
        for aboard in itertools.product([False, True], repeat=K * P):
            plan = Plan.idle(s)
            plan.locations[0] = locs
            plan.payloads[0] = np.array(aboard).reshape(K, P)
            yield plan
            if s.service_mission_ids:
                noisy = plan.copy()
                noisy.mission_alloc[0] = rng.uniform(0, 0.6, size=noisy.mission_alloc[0].shape)
                if s.relay_index is not None:
                    noisy.mission_alloc[0, :, s.relay_index, :] = 0.0
                    noisy.relay_frac[0] = rng.uniform(0, 0.4, size=K)
                    if scaled:
                        factor = rng.uniform(0, 4.0) * rng.uniform(0.9, 1.0, size=K)
                        noisy.sink_transfers[0] = factor * noisy.relay_frac[0]
                    else:
                        noisy.sink_transfers[0] = rng.uniform(0, 2.0, size=K)
                yield noisy


ROW_FAMILIES = {
    "travel_": "TRAVEL",
    "cap_": "CAPACITY",
    "lock_": "PAYLOAD-LOCK",
    "dlt_": "DELIVERY",
    "deliv_": "DELIVERY",
    "equip_": "EQUIP",
    "budget_": "BUDGET",
    "need_": "NEED",
    "flow_": "FLOW",
    "sink_": "SINK",
    "taucap_": "RELAY-CAP",
    "taumax_": "RELAY-CAP",
    "tausinkcap_": "RELAY-CAP",
    "tausinkmax_": "RELAY-CAP",
}


def assignment_vector(s, m, plan):
    """Model-variable values for a plan, with location-consistent shares and
    the battery at its recurrence maximum."""
    from uavplan.evaluator import battery_trace

    vals = {}
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    lam = plan.locations
    for d in range(D):
        for k in range(K):
            for l in range(L):
                vals[f"lam_{d}_{k}_{l}"] = 1.0 if lam[d, k] == l else 0.0
            for p in range(s.num_payloads):
                vals[f"om_{d}_{k}_{p}"] = 1.0 if plan.payloads[d, k, p] else 0.0
    beta = battery_trace(s, plan)
    for d in range(D):
        for k in range(K):
            vals[f"beta_{d}_{k}"] = float(beta[d, k])
    for pl in s.payloads:
        if not pl.deliverable:
            continue
        a, b = pl.window
        for d in range(D):
            for k in range(a, b + 1):
                hit = plan.payloads[d, k, pl.id] and lam[d, k] == pl.target
                vals[f"delta_{d}_{k}_{pl.id}"] = 1.0 if hit else 0.0
    for d in range(D):
        for k in range(K):
            for mm in s.service_mission_ids:
                for z in range(s.num_zones):
                    mu = float(plan.mission_alloc[d, k, mm, z])
                    vals[f"mu_{d}_{k}_{mm}_{z}"] = mu
                    for l in range(L):
                        vals[f"muh_{d}_{k}_{l}_{mm}_{z}"] = mu if lam[d, k] == l else 0.0
    if s.relay_index is not None:
        for d in range(D):
            for k in range(K):
                vals[f"rho_{d}_{k}"] = float(plan.relay_frac[d, k])
                vals[f"tausink_{d}_{k}"] = float(plan.sink_transfers[d, k])
        for d1 in range(D):
            for d2 in range(D):
                if d1 == d2:
                    continue
                for k in range(K):
                    vals[f"tau_{d1}_{d2}_{k}"] = float(plan.transfers[d1, d2, k])
    return vals


def linear_family_violations(m, vals):
    """Which row families are violated by the assignment (1e-9 slack)."""
    bad = set()
    for c in m.constraints:
        fam = next((tag for pre, tag in ROW_FAMILIES.items() if c.name.startswith(pre)), None)
        if fam is None:
            continue
        lhs = sum(coef * vals.get(m.variables[i].name, 0.0) for i, coef in c.terms)
        if c.sense == "<=" and lhs > c.rhs + 1e-9:
            bad.add(fam)
        elif c.sense == ">=" and lhs < c.rhs - 1e-9:
            bad.add(fam)
        elif c.sense == "=" and abs(lhs - c.rhs) > 1e-9:
            bad.add(fam)
    return bad


def link_sides(s, p, links):
    """(link kind, side) pairs saying whether the plan's positive transfers
    over overridden links stay under or go over capacity times relay effort."""
    pairs = {(a, b) for a, b, _ in links.get("link_uav_entries", ())}
    pairs |= {(b, a) for a, b in pairs}
    sinks = {l for l, _ in links.get("link_sink_entries", ())}
    lam = p.locations
    D, K = lam.shape
    sides = set()
    for d1, k in itertools.product(range(D), range(K)):
        rho = p.relay_frac[d1, k]
        if lam[d1, k] in sinks and p.sink_transfers[d1, k] > 0:
            cap = s.link_sink_mb[lam[d1, k]] * rho
            sides.add(("sink", "over" if p.sink_transfers[d1, k] > cap else "under"))
        for d2 in range(D):
            if d2 != d1 and (lam[d1, k], lam[d2, k]) in pairs and p.transfers[d1, d2, k] > 0:
                cap = s.link_uav_mb[lam[d1, k], lam[d2, k]] * rho
                sides.add(("uav", "over" if p.transfers[d1, d2, k] > cap else "under"))
    return sides


# a weak sink where the zone is served; one UAV never uses the pair link
MICRO_LINKS = dict(link_uav_entries=[(0, 1, 2.0)], link_sink_entries=[(1, 1.0)])
# a UAV pair below the default link and one above it, plus a weak sink
TIGHT_LINKS = dict(link_uav_entries=[(0, 1, 1.0), (1, 1, 6.0)], link_sink_entries=[(0, 0.5)])


def micro_instance(**links):
    # small link capacities so sampled transfers can overrun them
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 1.2, 0.0, False)],
        zones=[Zone(0, {1: {"coverage": 1.0}})],
        uav=UavSpec(4.0, 2.5, 40.0, 1.5, 1),
        payloads=[PayloadItem(0, 1.0, "radio"), PayloadItem(1, 0.6, "pack", True, 1, (1, 2))],
        missions=[Mission(0, "coverage", (0,), 8.0), Mission(1, "relay", (0,), 0.0)],
        epochs=3,
        horizon=1,
        demand_entries=[(1, "coverage", 0, 0.8), (2, "coverage", 0, 0.8)],
        link_default_uav_mb=5.0,
        link_default_sink_mb=3.0,
        **links,
    )


def test_linearization_matches_original_constraints_exhaustively():
    """For every binary pattern (plus sampled continuous decisions) of a micro
    instance, with uniform and with overridden links, the linear rows are
    violated exactly when the original operational constraints are."""
    check_micro_linearization({})
    check_micro_linearization(MICRO_LINKS)


def check_micro_linearization(links):
    s = micro_instance(**links)
    m = build_milp(s, depot_return=False)
    checked = 0
    mismatch = []
    sides = set()
    relay_cap = []
    for plan in enumerate_micro_assignments(s, scaled=bool(links)):
        vals = assignment_vector(s, m, plan)
        lin = linear_family_violations(m, vals)
        rep = check_feasibility(s, plan, depot_return=False)
        orig = rep.tags - {"DEPOT-RETURN", "LOC-UNIQUE"}
        # battery enters through beta bounds rather than a row family
        from uavplan.evaluator import battery_trace

        if (battery_trace(s, plan) < -1e-6).any():
            lin.add("BATTERY")
        if lin != orig:
            mismatch.append((plan.locations.tolist(), lin, orig))
        checked += 1
        sides |= link_sides(s, plan, links)
        relay_cap.append("RELAY-CAP" in orig)
    assert checked >= 500
    assert not mismatch, mismatch[:3]
    if links:
        assert {("sink", "under"), ("sink", "over")} <= sides
        assert any(relay_cap) and not all(relay_cap)


def test_linearization_exact_for_inter_uav_transfers():
    """Two UAVs with tight links, uniform and overridden: sampled relay
    fractions and transfers hit the link-capacity rows exactly when the
    original capacities break."""
    check_inter_uav_linearization({})
    check_inter_uav_linearization(TIGHT_LINKS)


def check_inter_uav_linearization(links):
    """With overrides, transfers are the sender's relay effort times one
    random factor per plan, so whole plans fall under, between and over the
    overridden and default capacities."""
    s = make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 1.2, 0.0, False)],
        zones=[Zone(0, {1: {"coverage": 1.0}})],
        uav=UavSpec(4.0, 2.5, 60.0, 1.5, 2),
        payloads=[PayloadItem(0, 1.0, "radio")],
        missions=[Mission(0, "coverage", (0,), 8.0), Mission(1, "relay", (0,), 0.0)],
        epochs=3,
        horizon=1,
        demand_entries=[(1, "coverage", 0, 0.8), (2, "coverage", 0, 0.8)],
        link_default_uav_mb=4.0,
        link_default_sink_mb=2.5,
        **links,
    )
    m = build_milp(s, depot_return=False)
    rng = np.random.default_rng(3)
    checked = mismatches = 0
    sides = set()
    relay_cap = []
    for locs0 in itertools.product(range(2), repeat=2):
        for locs1 in itertools.product(range(2), repeat=2):
            for radio0 in (False, True):
                for radio1 in (False, True):
                    plan = Plan.idle(s)
                    plan.locations[0, 1:] = locs0
                    plan.locations[1, 1:] = locs1
                    plan.payloads[0, :, 0] = radio0
                    plan.payloads[1, :, 0] = radio1
                    for _ in range(6):
                        p = plan.copy()
                        p.mission_alloc[:, :, 0, :] = rng.uniform(0, 0.5, p.mission_alloc[:, :, 0, :].shape)
                        p.relay_frac[:] = rng.uniform(0, 0.6, p.relay_frac.shape)
                        if links:
                            rho = p.relay_frac[:, None, :]
                            p.transfers[:] = rng.uniform(0, 7.0) * rng.uniform(0.9, 1.0, p.transfers.shape) * rho
                            p.sink_transfers[:] = (
                                rng.uniform(0, 3.0) * rng.uniform(0.9, 1.0, p.sink_transfers.shape) * p.relay_frac
                            )
                        else:
                            p.transfers[:] = rng.uniform(0, 3.0, p.transfers.shape)
                            p.sink_transfers[:] = rng.uniform(0, 3.0, p.sink_transfers.shape)
                        for d in range(2):
                            p.transfers[d, d, :] = 0.0
                        vals = assignment_vector(s, m, p)
                        lin = linear_family_violations(m, vals)
                        orig = check_feasibility(s, p, depot_return=False).tags
                        orig -= {"DEPOT-RETURN", "LOC-UNIQUE", "BATTERY"}
                        from uavplan.evaluator import battery_trace

                        if (battery_trace(s, p) < -1e-6).any():
                            lin.add("BATTERY")
                            orig.add("BATTERY")
                        if lin != orig:
                            mismatches += 1
                        checked += 1
                        sides |= link_sides(s, p, links)
                        relay_cap.append("RELAY-CAP" in orig)
    assert checked >= 380
    assert mismatches == 0
    if links:
        assert {(kind, side) for kind in ("uav", "sink") for side in ("under", "over")} <= sides
        assert any(relay_cap) and not all(relay_cap)


class TestSolutions:
    def test_idle_solution_imports_as_idle_plan(self):
        s = make_scenario(
            locations=[Location(0, 0.0, 0.0, True)],
            zones=[],
            uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
            payloads=[],
            missions=[],
            epochs=2,
            horizon=1,
        )
        m = build_milp(s)
        sol = {v.name: 0.0 for v in m.variables}
        for k in range(2):
            sol[f"lam_0_{k}_0"] = 1.0
        plan = import_solution(m, sol)
        assert check_feasibility(s, plan).ok
        assert np.all(plan.locations == 0)

    def test_bruteforce_solution_round_trips_through_import(self):
        s = tiny_delivery()
        m = build_milp(s)
        status, val, sol = solve_model_exhaustive(m)
        assert status == "optimal"
        text = solution_to_text(sol)
        plan = import_solution(m, parse_solution(text))
        assert check_feasibility(s, plan, tol=1e-4).ok
        assert satisfaction(s, plan).objective == pytest.approx(val, abs=1e-6)

    def test_missing_binary_names_first_absent(self):
        s = tiny_delivery()
        m = build_milp(s)
        status, _, sol = solve_model_exhaustive(m)
        first_lam = next(v.name for v in m.variables if v.symbol == "lam")
        del sol[first_lam]
        with pytest.raises(KeyError) as err:
            import_solution(m, sol)
        assert first_lam in str(err.value)

    def test_off_binary_rejected(self):
        s = tiny_delivery()
        m = build_milp(s)
        status, _, sol = solve_model_exhaustive(m)
        name = next(v.name for v in m.variables if v.symbol == "lam")
        sol[name] = 0.4
        with pytest.raises(ValueError):
            import_solution(m, sol)

    def test_second_location_rejected(self):
        s = tiny_delivery()
        m = build_milp(s)
        _, _, sol = solve_model_exhaustive(m)
        name = next(v.name for v in m.variables if v.symbol == "lam" and sol[v.name] == 0.0)
        sol[name] = 1.0
        with pytest.raises(ValueError, match="expected exactly one location"):
            import_solution(m, sol)

    def test_other_variables_are_ignored(self):
        """delta, beta, muh and the objective carry nothing a plan holds."""
        s = tiny_delivery()
        m = build_milp(s)
        _, _, sol = solve_model_exhaustive(m)
        lines = solution_to_text(sol).splitlines(keepends=True)
        without_delta = "".join(ln for ln in lines if not ln.startswith("delta_"))
        assert len(without_delta) < len("".join(lines))
        a, b = import_solution(m, sol), import_solution(m, parse_solution(without_delta))
        for field in ("locations", "payloads", "mission_alloc", "relay_frac", "transfers", "sink_transfers"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_nan_solution_value_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_solution("lam_0_0_0 nan\n")
        assert "lam_0_0_0" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x 1\nx 0\n", "line 2: variable x appears twice"),
            ("y 1\nx abc\n", "line 2: value 'abc' for variable x is not a number"),
        ],
    )
    def test_unreadable_solution_line_named(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_solution(text)
        assert str(err.value) == message

    def test_solution_comments_and_blanks(self):
        sol = parse_solution("# comment\n\nGamma 1.0  # trailing\n")
        assert sol == {"Gamma": 1.0}


# tiny-mixed's UAV link (0, 1) and its sinks away from the depot scaled by 1e-4:
# the relay capacity binds and the optimum drops from 1.0 to 0.7667
BINDING_LINKS = dict(link_uav_entries=[(0, 1, 5.0)], link_sink_entries=[(1, 5.0), (2, 5.0)])


def test_tiny_mixed_export_optimum_matches_exact_engine():
    for links in ({}, BINDING_LINKS):
        s = tiny_mixed(**links)
        res = solve_exact(s)
        if links:
            assert res.objective == pytest.approx(0.7666666666666667, abs=1e-9)
        built = build_milp(s)
        status, val, sol = solve_model_exhaustive(parse_lp(export_lp(built)), time_budget_s=300)
        assert status == "optimal"
        assert val == pytest.approx(res.objective, abs=1e-6)
        plan = import_solution(built, sol)
        assert check_feasibility(s, plan).ok
        assert satisfaction(s, plan).objective == pytest.approx(val, abs=1e-6)


def test_relaxation_bound_keeps_binding_links_search_small(monkeypatch):
    """The LP relaxation keeps tiny-mixed with binding links to at most 300
    simplex solves, bound and leaf LPs together; a bound too weak to prune
    where the relay capacity binds shows as thousands."""
    solve, calls = bruteforce.simplex_solve, []

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bruteforce, "simplex_solve", counting)
    model = parse_lp(export_lp(build_milp(tiny_mixed(**BINDING_LINKS))))
    status, val, _ = solve_model_exhaustive(model)
    assert status == "optimal"
    assert val == pytest.approx(0.7666666666666667, abs=1e-9)
    assert len(calls) <= 300


def test_negative_lower_bound_reaches_optimum():
    """Each variable is shifted by its own lower bound, so y may go below 0."""
    model = parse_lp(
        "maximize\n obj: Gamma\n"
        "subject to\n r1: Gamma + y <= 1\n r2: Gamma - 2 b <= 1\n"
        "bounds\n 0 <= Gamma <= 2\n -1 <= y <= 1\n"
        "binaries\n b\n"
        "end\n"
    )
    status, val, sol = solve_model_exhaustive(model)
    assert status == "optimal"
    assert val == pytest.approx(2.0, abs=1e-9)
    assert sol["y"] == pytest.approx(-1.0, abs=1e-9)
    assert sol["b"] == 1.0


def test_non_finite_lower_bound_refused():
    model = parse_lp(
        "maximize\n obj: Gamma\n"
        "subject to\n r1: Gamma + y <= 1\n r2: Gamma - 2 b <= 1\n"
        "bounds\n 0 <= Gamma <= 2\n y >= -1e999\n"
        "binaries\n b\n"
        "end\n"
    )
    with pytest.raises(ValueError, match="variable y has lower bound -inf"):
        solve_model_exhaustive(model)


def test_unbounded_objective_refused():
    """A leaf LP without an optimum because its objective is unbounded is an
    error, not an infeasible leaf."""
    model = parse_lp(
        "maximize\n obj: Gamma\n"
        "subject to\n r1: Gamma - y <= 0\n r2: b - y <= 0\n"
        "binaries\n b\n"
        "end\n"
    )
    with pytest.raises(ValueError, match="objective Gamma is unbounded"):
        solve_model_exhaustive(model)


def battery_starved_delivery():
    """tiny-delivery on a 13 Wh battery: no plan reaches the target and back."""
    s = tiny_delivery()
    return dataclasses.replace(s, uav=dataclasses.replace(s.uav, battery_capacity_wh=13.0))


# (status, sha256 of repr(solve_model_exhaustive(...))), pinned before the
# oracle was rewritten around one coefficient matrix; "seed-N" is criterion 2's
# parsed export of tiny_instance(N), the rest are built models, two of them cut
# off at max_nodes.  "seed-15" was re-pinned when the simplex began to carry its
# reduced-cost row in the tableau: the rounding of that row picks another
# optimal vertex of the same LP (status and value 1.0 unchanged; the relay
# flows tau_1_0_2, tausink_0_2, tausink_1_2 and rho_0_2 move, and mu, muh and
# rho_1_2 differ in the last bit).  All cases but tiny-delivery,
# battery-starved and tiny-mixed/3-nodes (no incumbent) were re-pinned when
# the sig and sigbar families gave way to one gamma row per needed cell and
# muh was kept to serving locations: every case keeps its status and its
# value within 2.2e-16; seed-15 again moves those relay flows and
# tiny-mixed/400-nodes stops on another plan of the same value.  When partial
# assignments began to be bounded by their LP relaxation, tiny-mixed/400-nodes
# came to finish within its budget and was re-pinned to the complete run's
# output; tiny-mixed/40-nodes, pinned then, keeps a cut-off run with an
# incumbent (0.6666000066660002) covered.  When the leaves began to solve the
# relaxation's LP with every binary fixed, in place of their own presolved LP,
# 12 cases were re-pinned, all with an incumbent but seed-3, seed-4, seed-8,
# seed-14, seed-16 and seed-18: ORACLE_OUTCOMES holds unedited (status and
# binaries equal, values within 1e-12); slack beta_* battery levels land on
# another optimal vertex, and some flows of seed-11, seed-13 and seed-15 move
# by under 4e-15
ORACLE_DIGESTS = {
    "seed-1": ("optimal", "f3153b325cf44fcf1f7dc091f971465c9406639879e39b61feeedc46c1aff48f"),
    "seed-3": ("optimal", "0d263b271936510c449cb5433a7909b2f71e2893828731ed3642bce6c4ee7068"),
    "seed-4": ("optimal", "df06fc5b9b10137b718819ccfad0f29206dcdf8377f5bcf8ef23bbf93e6a82d9"),
    "seed-6": ("optimal", "4ef7622a37fa2e7316a844b05402947e1b94fc1f7b0a76e37c347c753fbcf079"),
    "seed-8": ("optimal", "aa45ef49eaabc765a04e34100529e9c94c35c4b388231851744e63219f923c0b"),
    "seed-10": ("optimal", "3253dd25539c8339248178eb3622eca4f4a200e0d81d270998ef7acd7f4c4a5b"),
    "seed-11": ("optimal", "4ad3d92576715c3711b561bd91d11c4314d02f417ea75822e1bc6f5a54af3ccb"),
    "seed-12": ("optimal", "b0f33d18cd1c888c359e81f4880e3f647e6d19d262712e216b3f59c4d35cecf9"),
    "seed-13": ("optimal", "4130749325a07e38bbf4cca896766a55b4c07c59e21adee9c035d91ce1249723"),
    "seed-14": ("optimal", "c7300e1543526e869ffe13046061b0f4050278461224b083a476167989fb84a8"),
    "seed-15": ("optimal", "abf12758531ced0f47c62cf5314aedcef1f151c86800c1ded3953ff7312ade18"),
    "seed-16": ("optimal", "9c86b5f2d4c5bcddea8f338b2ce6515085dccb0cd6de59b57a288a26b8b9a7eb"),
    "seed-18": ("optimal", "241d0ba2f3769ab44f96aceaf20cf3949bd239cc6cd06760b792cf0dcb5a5daa"),
    "seed-20": ("optimal", "8daa8809773384f5cada04d6c11d67dcaca6abb64ea077c5d9deca80f64a811d"),
    "tiny-mixed": ("optimal", "b29aaf77f8c843e42f2d059f5178bfa03868366ec09a28c3148182be45e03dae"),
    "tiny-delivery": ("optimal", "a076d34187368543b982a779a003bb23a48ab5e7564028280fd202a1d9eaf3b7"),
    "battery-starved": ("infeasible", "6e5ec433a24b775184175f1671b80c697b78952e56f17e6123de59742f8b37fe"),
    "tiny-mixed/3-nodes": ("limit", "7c0e63d71fa92375f8c2d783f4d49b61ed6d10a07c6a56cc572fb695278055f5"),
    "tiny-mixed/400-nodes": ("optimal", "b29aaf77f8c843e42f2d059f5178bfa03868366ec09a28c3148182be45e03dae"),
    "tiny-mixed/40-nodes": ("limit", "3617036602691efa8a8eadf354543c0d5b9e4a9ddcbe3ed2300d98c759520eae"),
}


def _oracle_case(name):
    """The model and keyword arguments ORACLE_DIGESTS[name] was pinned on."""
    if name.startswith("seed-"):
        return parse_lp(export_lp(build_milp(tiny_instance(int(name[5:]))))), {}
    if name.startswith("tiny-mixed"):
        nodes = name.partition("/")[2].removesuffix("-nodes")
        return build_milp(tiny_mixed()), ({"max_nodes": int(nodes)} if nodes else {})
    return build_milp({"tiny-delivery": tiny_delivery, "battery-starved": battery_starved_delivery}[name]()), {}


@pytest.mark.parametrize("name", list(ORACLE_DIGESTS))
def test_oracle_output_matches_pinned_digest(name):
    model, kwargs = _oracle_case(name)
    result = solve_model_exhaustive(model, **kwargs)
    status, digest = ORACLE_DIGESTS[name]
    assert result[0] == status
    assert hashlib.sha256(repr(result).encode()).hexdigest() == digest


def _binaries_digest(model, sol):
    """sha256 of the sorted `name value` lines of a solution's binaries."""
    names = sorted(v.name for v in model.variables if v.kind == "binary")
    text = "".join(f"{n} {sol[n]:g}\n" for n in names) if sol else ""
    return hashlib.sha256(text.encode()).hexdigest()


# (status, value, _binaries_digest) of each ORACLE_DIGESTS case: what the
# oracle decides, whichever optimal vertex its continuous values land on
ORACLE_OUTCOMES = {
    "seed-1": ("optimal", 0.7326004853596033, "aee39b5fd9afd38ec5e4fdea4b8621324d275e5d8e65066dab15c467dd83550a"),
    "seed-3": ("optimal", 0.0, "0f1822747c232f9db8214e912ab18e708bddfce8dfaad3caeb7fe6629116a323"),
    "seed-4": ("optimal", 1.0, "090144094260cbd9ae14fff8b755d08144ea210f17b9c429d8bec9a846c56f24"),
    "seed-6": ("optimal", 0.7963958319266158, "826c6f9461c72c455e7ad5657a4f73fe509844895d7a8dde518a24dc78433b36"),
    "seed-8": ("optimal", 1.0, "d1ac1c6b33a61555cc60783bfd22da4a691a291a5e8024130499d791fdeddca3"),
    "seed-10": ("optimal", 0.624997357684677, "78622a29575b95bb0f4f79b11e3a40256a31526dffa3ace34a69b3d27356f9b3"),
    "seed-11": ("optimal", 0.39594433617234315, "b74ade5deebd9361ad1859f1cbd65be49baea9df0b13c54108b74f5dfccd911c"),
    "seed-12": ("optimal", 0.3016334498159051, "537d09a7788534bae1736f648eab6a4ef048b453c27c574dfe3233d8eef7133a"),
    "seed-13": ("optimal", 0.2691456339700485, "0f1822747c232f9db8214e912ab18e708bddfce8dfaad3caeb7fe6629116a323"),
    "seed-14": ("optimal", 1.0, "090144094260cbd9ae14fff8b755d08144ea210f17b9c429d8bec9a846c56f24"),
    "seed-15": ("optimal", 0.9999999999999999, "090144094260cbd9ae14fff8b755d08144ea210f17b9c429d8bec9a846c56f24"),
    "seed-16": ("optimal", 0.0, "5979494c485b865d93da825aafc0a2920a694b2b79ad497a22b9174939a0e7f6"),
    "seed-18": ("optimal", 1.0, "d1ac1c6b33a61555cc60783bfd22da4a691a291a5e8024130499d791fdeddca3"),
    "seed-20": ("optimal", 0.7845271947823773, "78622a29575b95bb0f4f79b11e3a40256a31526dffa3ace34a69b3d27356f9b3"),
    "tiny-mixed": ("optimal", 1.0000000000000002, "e7924979881dd85b346180dcbc2aaf8cfafef0a16f4813a2da110d8f3277685f"),
    "tiny-delivery": ("optimal", 1.0, "dd72ad56d57a38a5a83050eb8e52d461dda0265de76e403c637ea2ca4a127865"),
    "battery-starved": ("infeasible", None, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tiny-mixed/3-nodes": ("limit", None, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tiny-mixed/400-nodes": ("optimal", 1.0000000000000002, "e7924979881dd85b346180dcbc2aaf8cfafef0a16f4813a2da110d8f3277685f"),
    "tiny-mixed/40-nodes": ("limit", 0.6666000066660002, "85ad77cf7929196a1344ece47adcd961f85e12d879e214cf4eefd6cd3c6e3c12"),
}


@pytest.mark.parametrize("name", list(ORACLE_DIGESTS))
def test_oracle_outcome_matches_pin(name):
    model, kwargs = _oracle_case(name)
    status, val, sol = solve_model_exhaustive(model, **kwargs)
    want_status, want_val, want_binaries = ORACLE_OUTCOMES[name]
    assert status == want_status
    assert val == (None if want_val is None else pytest.approx(want_val, abs=1e-12))
    assert _binaries_digest(model, sol) == want_binaries


# sha256 of the LP text, of repr(build_milp(s).constraints) and of repr of the
# parsed model's variables and constraints, pinned before build_milp, export_lp
# and parse_lp were rewritten around precomputed names and compiled patterns;
# the four models with service missions were re-pinned when sig, sigbar and the
# non-serving muh left the model
TEXT_PATH_DIGESTS = {
    "sf-small-1": (
        "9a25a39558879fd86bd685ebce4847c27a82aea1c465933f482120a8ff3246aa",
        "2b36136284529852da5b5718b8150d7f8c5bb0cd64808e41cf24c4a57cf7576e",
        "adcc33b04a6506cd4a3c527b190a1be7886ae5872291fc7eb2c03a39ab2463c6",
        "8e546f6dbfe50179ff3772d496161262c20a866f9d6343604a9a99a61e195fe9",
    ),
    "sf-small-2": (
        "eecba7f2e3a33a215189d3e95ee7fa69fd3f097c9fd385f02a883fb61633d85d",
        "4ccbcc23b2118f07291fede556dc77e99a4dee897883911a3c3a3808d0f34f74",
        "e79b3a6462b40bb93e8c217bbcc698187ac504792f3f32db1e708dfddebd52dd",
        "4df0d2fe0b6978d8d24173c3ec7339c2fd792aa06e319bc648cd0417502b7e6f",
    ),
    "tiny-mixed": (
        "0821e0eafefb7ec6f7cbfb5b294ba851ea4365bf1454da643856a03f5cd7d241",
        "c23dd1ca5e07f586b6257f78ccbad2087018654fc6b94dc9b50d3442b7d1e2d2",
        "b6a41cbca22843ede69aff9197f6eda28bbc59d4e435822e2c3714e1c94b45eb",
        "6dd05ccb8cd9fe1c9d564f1ff9a1ebefcbf204f9cf9b0245d0ae654234f49bcd",
    ),
    "tiny-mixed/binding": (
        "f5f1830af295fb32f995ad1425b4606782d42d2846a529f6ffe3cfa68c3c3fb5",
        "727a334e7711e209828e2a7b752711c60463c7e8baa037ea4def99d05397cf58",
        "b6a41cbca22843ede69aff9197f6eda28bbc59d4e435822e2c3714e1c94b45eb",
        "0cbdc23f959b81cd74c08719c2d19efcc10884f98318716621335aa73c73a974",
    ),
    "tiny-delivery": (
        "a2952dfb63fb77de1ed01db011c1e97b958b3d395c13e73d224565a8a8396cbf",
        "2cc8b11a75c8a8db6fe2d8156d61ea23f4a3bb089f48de646444b20925d6161c",
        "0846fabfd59357dfc5c3a28121087b001a2bb2b9641593f919a6e90e7c55ca04",
        "3025fbcfd12b1f92e8ee3f32c4935ad91177cd0bfb48f3bf2989be868cd54076",
    ),
}

TEXT_PATH_CASES = {
    "sf-small-1": lambda: generate_preset("sf-small", 1),
    "sf-small-2": lambda: generate_preset("sf-small", 2),
    "tiny-mixed": tiny_mixed,
    "tiny-mixed/binding": lambda: tiny_mixed(**BINDING_LINKS),
    "tiny-delivery": tiny_delivery,
}


@pytest.mark.parametrize("name", list(TEXT_PATH_DIGESTS))
def test_text_path_matches_pinned_digests(name):
    m = build_milp(TEXT_PATH_CASES[name]())
    text = export_lp(m)
    parsed = parse_lp(text)
    got = tuple(
        hashlib.sha256(part.encode()).hexdigest()
        for part in (text, repr(m.constraints), repr(parsed.variables), repr(parsed.constraints))
    )
    assert got == TEXT_PATH_DIGESTS[name]


def test_highs_agrees_on_the_tiny_instances():
    """Optional third leg of the oracle triangle (criterion 2): HiGHS on each
    of the 20 exported tiny_instance models reaches solve_exact's objective,
    and its solution imports as a feasible plan.  Skipped without scipy."""
    pytest.importorskip("scipy")
    from milp_highs import solve_highs

    for seed in range(1, 21):
        s = tiny_instance(seed)
        exact = solve_exact(s)
        built = build_milp(s)
        status, val, sol = solve_highs(parse_lp(export_lp(built)))
        assert status == "optimal", f"seed {seed}: {status}"
        assert val == pytest.approx(exact.objective, abs=1e-6), f"seed {seed}"
        plan = import_solution(built, sol)
        assert check_feasibility(s, plan).ok, f"seed {seed}"
        assert satisfaction(s, plan).objective == pytest.approx(exact.objective, abs=1e-6), f"seed {seed}"


@pytest.mark.parametrize(
    "seed, uavs, mode",
    [
        # flexible cases keep their plain seed-uavs ids
        pytest.param(seed, uavs, mode, id=f"{seed}-{uavs}" + ("-fixed" if mode == "fixed" else ""))
        for mode in ("flexible", "fixed")
        for seed in (1, 2, 3)
        for uavs in (2, 4, 6, 8)
    ],
)
def test_highs_agrees_on_the_flex_fixed_instances(seed, uavs, mode):
    """HiGHS beyond the tiny set: on the flexible-vs-fixed instances, where
    the epoch time budget binds, the exported model reaches solve_exact's
    optimum and its solution imports as a feasible plan.  In fixed mode the
    parsed model's payload binaries are pinned to each UAV's equipment group.
    Skipped without scipy."""
    pytest.importorskip("scipy")
    from milp_highs import pin_equipment, solve_highs

    s = flex_fixed_scenario(seed, uavs)
    groups = fixed_equipment(s) if mode == "fixed" else [(uavs, frozenset(), frozenset())]
    exact = solve_exact(s, EnumerationLimits(size_guard=128), equipment_groups=groups)
    assert exact.proven_optimal
    built = build_milp(s)
    status, val, sol = solve_highs(pin_equipment(parse_lp(export_lp(built)), groups))
    assert status == "optimal"
    assert val == pytest.approx(exact.objective, abs=1e-6)
    assert check_feasibility(s, import_solution(built, sol), tol=1e-4).ok
