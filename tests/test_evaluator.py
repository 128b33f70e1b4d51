import json

import numpy as np
import pytest

from uavplan.evaluator import (
    Plan,
    battery_trace,
    check_feasibility,
    load_plan,
    plan_metrics,
    satisfaction,
    serialize_plan,
)
from uavplan.scenario import (
    Location,
    Mission,
    PayloadItem,
    UavSpec,
    Zone,
    make_scenario,
)
from uavplan.synth import Dims, generate_synthetic

from scenarios import tiny_delivery, tiny_mixed


def delivery_plan(s):
    """Depot -> target (deliver) -> depot on the tiny delivery scenario."""
    p = Plan.idle(s)
    p.locations[0, 1] = 1
    p.payloads[0, 0, 0] = True
    p.payloads[0, 1, 0] = True
    return p


class TestBattery:
    def test_hover_at_depot_keeps_full_charge(self):
        s = tiny_mixed()
        beta = battery_trace(s, Plan.idle(s))
        assert np.all(beta == s.uav.battery_capacity_wh)

    def test_single_hop_consumption(self):
        """2 km hop carrying 2 kg at 3.125 Wh/km/kg and 4 kg frame: 37.5 Wh."""
        s = make_scenario(
            locations=[Location(0, 0.0, 0.0, True), Location(1, 2.0, 0.0, False)],
            zones=[],
            uav=UavSpec(4.0, 2.5, 200.0, 2.5, 1),
            payloads=[PayloadItem(0, 2.0, "slab")],
            missions=[],
            epochs=2,
            horizon=1,
        )
        p = Plan.idle(s)
        p.locations[0, 1] = 1
        p.payloads[0, :, 0] = True
        beta = battery_trace(s, p)
        assert beta[0, 1] == pytest.approx(200.0 - 3.125 * 2.0 * 6.0)

    def test_round_trip_at_max_range_overdraws(self):
        """Full range is one-way at max payload: an out-and-back run of
        2 x 9.846 km leaves the pack 46.15 Wh short."""
        reach = 200.0 / (3.125 * 6.5)
        s = make_scenario(
            locations=[
                Location(0, 0.0, 0.0, True),
                Location(1, reach, 0.0, False),
                Location(2, 0.0, 0.0, False),  # co-located twin, not a depot
            ],
            zones=[],
            uav=UavSpec(4.0, 2.5, 200.0, reach + 0.01, 1),
            payloads=[],
            missions=[],
            epochs=3,
            horizon=1,
        )
        p = Plan.idle(s)
        p.locations[0, 1] = 1
        p.locations[0, 2] = 2
        beta = battery_trace(s, p)
        assert beta[0, 2] == pytest.approx(200.0 - 2 * reach * 3.125 * 4.0)
        assert beta[0, 2] == pytest.approx(-46.1538, abs=1e-3)
        report = check_feasibility(s, p, depot_return=False)
        assert "BATTERY" in report.tags

    def test_invariant_to_weightless_payloads(self):
        rng = np.random.default_rng(11)
        s = generate_synthetic(4, Dims(5, 2, 2, 1, 8))
        ghost = PayloadItem(s.num_payloads, 0.0, "ghost")
        import dataclasses

        s2 = dataclasses.replace(s, payloads=s.payloads + (ghost,))
        for _ in range(10):
            p = Plan.idle(s2)
            d = int(rng.integers(s2.num_uavs))
            p.payloads[d, :, ghost.id] = True
            base = Plan.idle(s2)
            assert np.allclose(battery_trace(s2, p), battery_trace(s2, base))


class TestSatisfaction:
    def test_zero_demand_is_fully_satisfied(self):
        s = tiny_delivery()
        rep = satisfaction(s, Plan.idle(s))
        assert np.all(rep.sigma == 1.0)
        assert rep.objective == 1.0

    def test_windowed_ratio_hand_value(self):
        """n = 1 per epoch, window of 3 epochs, 0.5 work served each epoch:
        sigma(2) = 1.5 / 3."""
        s = make_scenario(
            locations=[Location(0, 0.0, 0.0, True)],
            zones=[Zone(0, {0: {"coverage": 1.0}})],
            uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
            payloads=[PayloadItem(0, 1.0, "radio")],
            missions=[Mission(0, "coverage", (0,), 0.0), Mission(1, "relay", (0,), 0.0)],
            epochs=3,
            horizon=2,
            demand_entries=[(k, "coverage", 0, 1.0) for k in range(3)],
        )
        p = Plan.idle(s)
        p.payloads[0, :, 0] = True
        p.mission_alloc[0, :, 0, 0] = 0.5
        rep = satisfaction(s, p)
        assert rep.sigma[2, 0, 0] == pytest.approx(0.5)
        assert rep.objective == pytest.approx(0.5)

    def test_exact_service_saturates(self):
        s = make_scenario(
            locations=[Location(0, 0.0, 0.0, True)],
            zones=[Zone(0, {0: {"coverage": 2.0}})],
            uav=UavSpec(4.0, 2.5, 200.0, 2.0, 1),
            payloads=[PayloadItem(0, 1.0, "radio")],
            missions=[Mission(0, "coverage", (0,), 0.0), Mission(1, "relay", (0,), 0.0)],
            epochs=4,
            horizon=2,
            demand_entries=[(k, "coverage", 0, 1.0) for k in range(4)],
        )
        p = Plan.idle(s)
        p.payloads[0, :, 0] = True
        p.mission_alloc[0, :, 0, 0] = 0.5  # 0.5 * q2.0 == demand each epoch
        rep = satisfaction(s, p)
        assert np.all(rep.sigma[:, 0, 0] == pytest.approx(1.0))
        assert check_feasibility(s, p).ok  # NEED binds exactly, no violation

    def test_objective_monotone_in_service(self):
        rng = np.random.default_rng(5)
        s = generate_synthetic(6, Dims(4, 2, 2, 1, 6))
        from uavplan.heuristic import insertion_solve

        _, p = insertion_solve(s)
        base = satisfaction(s, p).objective
        for _ in range(20):
            q = p.copy()
            d = int(rng.integers(s.num_uavs))
            k = int(rng.integers(s.epochs))
            m = int(rng.choice(s.service_mission_ids))
            z = int(rng.integers(s.num_zones))
            q.mission_alloc[d, k, m, z] += 0.05
            assert satisfaction(s, q).objective >= base - 1e-12


class TestFeasibility:
    def test_delivery_plan_clean(self):
        s = tiny_delivery()
        assert check_feasibility(s, delivery_plan(s)).ok

    def test_teleport_flags_travel(self):
        far = make_scenario(
            locations=[Location(0, 0.0, 0.0, True), Location(1, 30.0, 0.0, False)],
            zones=[],
            uav=UavSpec(4.0, 2.5, 2000.0, 2.0, 1),
            payloads=[],
            missions=[],
            epochs=3,
            horizon=1,
        )
        p = Plan.idle(far)
        p.locations[0, 1] = 1
        rep = check_feasibility(far, p)
        assert rep.tags == {"TRAVEL"}
        travel = [v for v in rep.violations if v.tag == "TRAVEL"]
        assert [v.indices for v in travel] == [(0, 1), (0, 2)]

    def test_unequipped_mission_flags_equip(self):
        s = tiny_mixed()
        p = Plan.idle(s)
        p.mission_alloc[0, 1, 0, 0] = 0.2  # coverage without the radio aboard
        rep = check_feasibility(s, p)
        assert "EQUIP" in rep.tags

    def test_flow_imbalance_detected(self):
        s = tiny_mixed()
        p = Plan.idle(s)
        p.sink_transfers[0, 1] = 2e-6  # tiny leak, no generation
        rep = check_feasibility(s, p)
        assert "FLOW" in rep.tags
        assert "SINK" in rep.tags

    def test_dimension_mismatch_raises(self):
        s = tiny_mixed()
        p = Plan.idle(tiny_delivery())
        with pytest.raises(ValueError):
            check_feasibility(s, p)

    def test_relay_effort_in_mission_alloc_rejected(self):
        s = tiny_mixed()
        p = Plan.idle(s)
        p.mission_alloc[0, 1, s.relay_index, 0] = 0.1
        with pytest.raises(ValueError):
            check_feasibility(s, p)

    def test_deterministic_ordering(self):
        s = tiny_mixed()
        p = Plan.idle(s)
        p.mission_alloc[1, 2, 0, 0] = 0.2
        p.mission_alloc[0, 1, 0, 0] = 0.2
        rep = check_feasibility(s, p)
        keys = [v.sort_key() for v in rep.violations]
        assert keys == sorted(keys)


class TestFinite:
    @pytest.mark.parametrize("field", ["mission_alloc", "relay_frac", "transfers", "sink_transfers"])
    def test_nan_is_reported(self, field):
        s = tiny_mixed()
        p = Plan.idle(s)
        getattr(p, field).flat[1] = np.nan
        rep = check_feasibility(s, p)
        assert rep.tags == {"FINITE", "DELIVERY"}  # the idle plan never delivers
        v = rep.violations[0]
        assert v.tag == "FINITE" and v.indices[0] == field and np.isnan(v.magnitude)
        assert len(rep) == 2
        assert rep.to_csv().splitlines()[1].startswith(f"FINITE,{field};")

    def test_inf_is_reported_first(self):
        s = tiny_mixed()
        p = Plan.idle(s)
        p.relay_frac[0, 1] = np.inf
        rep = check_feasibility(s, p)
        assert rep.violations[0].tag == "FINITE"
        assert rep.violations[0].indices == ("relay_frac", 0, 1)


class TestPlanIO:
    def test_round_trip(self):
        s = tiny_mixed()
        from uavplan.heuristic import insertion_solve

        _, p = insertion_solve(s)
        text = serialize_plan(p)
        q = load_plan(text, s)
        assert serialize_plan(q) == text

    @pytest.mark.parametrize(
        "field, row",
        [
            ("payloads", [-1, 0, 0]),
            ("payloads", [0, 0, 2]),
            ("missions", [2, 1, 0, 0, 0.1]),
            ("missions", [0, 1, 0, 0, float("nan")]),
            ("relay", [0, -4, 0.5]),
            ("transfers", [1, "omega", 1, float("inf")]),
            ("transfers", [1, True, 1, None]),
            ("locations", [[0, 1.5, 0, 0], [0, 0, 0, 0]]),
        ],
    )
    def test_bad_rows_rejected(self, field, row):
        s = tiny_mixed()
        doc = json.loads(serialize_plan(Plan.idle(s)))
        doc[field] = row if field == "locations" else [row]
        with pytest.raises(ValueError, match="^plan "):
            load_plan(json.dumps(doc), s)

    def test_metrics_fields(self):
        s = tiny_delivery()
        m = plan_metrics(s, delivery_plan(s))
        assert m["objective"] == 1.0
        assert m["energy_wh"] > 0
        assert 0 <= m["mean_payload_fraction"] <= 1
