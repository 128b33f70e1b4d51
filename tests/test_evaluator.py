import hashlib
import json
import math

import numpy as np
import pytest

from uavplan.evaluator import (
    Plan,
    battery_trace,
    check_feasibility,
    energy_used,
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

    @pytest.mark.parametrize("location", [-1, 3])
    def test_out_of_range_location_refused_by_both_readers(self, location):
        """-1 must not wrap to the last location in energy_used either."""
        s = tiny_mixed()
        p = Plan.idle(s)
        p.locations[0, 1] = location
        for read in (battery_trace, energy_used):
            with pytest.raises(ValueError, match="out-of-range location ids"):
                read(s, p)

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

    def test_csv_sigma_cells_are_plain_floats(self):
        """Each sigma cell is repr of a Python float, so it reads back with
        float() (numpy 2's repr of its own scalars would write np.float64(...))."""
        s = tiny_mixed()
        rep = satisfaction(s, Plan.idle(s))
        rows = [line.split(",") for line in rep.to_csv(s).splitlines()[1:]]
        assert len(rows) == rep.sigma.size > 0
        for k, m, z, cell in rows:
            assert "np." not in cell
            assert float(cell) == rep.sigma[int(k), s.mission_by_name(m).id, int(z)]

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


# -- pinned plan text --------------------------------------------------------------

# sha256 of serialize_plan(...), computed before the writer moved onto
# json_text.  The heuristic refuses sf-large seed 2 under the coverage and
# monitoring presets, so those two have no plan; on seed 1 both presets give
# the same plan.
HEURISTIC_PLAN_DIGESTS = {
    (1, "save-time"): "50f55c576a73b2f2886c7a3848bb84136de5244014ea773d5e7c7985da9be56d",
    (1, "coverage"): "4e246686c2b7e6637a2752791e85f24226d5474dafc74a864cd7ea1f8787e7ca",
    (1, "monitoring"): "4e246686c2b7e6637a2752791e85f24226d5474dafc74a864cd7ea1f8787e7ca",
    (2, "save-time"): "a2e67301e8aeeeb884402a03fe3122036c63dc48330023f87909594abb95baa8",
    (3, "save-time"): "801b20b08d4851980838cb9ec93ee9c13d8fe970ab8d7f5634a1a8cd0c1d8d7b",
    (3, "coverage"): "35103e67071513992cebe05b21b1b619c4619f57f92335d2af19142b23ab173d",
    (3, "monitoring"): "9ee05341be85e1be5734ca54fda381ac02f1623d1aec705211cc2012d04cda24",
}
# flex-fixed seed 1, 4 UAVs; re-pinned when the exact engine's inner LP
# derived sink transfers from the flow balance (same locations and payloads,
# the flows at another optimal vertex)
EXACT_PLAN_DIGEST = "974fd6aee8218c46e2fb8550b4519de15766a92d684d0087592fb1ff06a67c12"
EDGE_PLAN_DIGEST = "e9c03e63548aff110e02b41694601108d53451f71cd32230a66e52a6c2ba5e06"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def edge_value_plan(s):
    """A plan on tiny_mixed holding NaN, infinities, -0.0 (which the writer
    leaves out, as it does 0.0) and transfers to the ground network."""
    p = Plan.idle(s)
    p.payloads[0, 1, 1] = True
    p.mission_alloc[0, 1, 0, 0] = np.nan
    p.mission_alloc[1, 2, 0, 0] = -0.0
    p.mission_alloc[1, 3, 0, 0] = 0.125
    p.relay_frac[1, 0] = np.inf
    p.relay_frac[0, 3] = -0.0
    p.transfers[0, 1, 2] = 3.5
    p.transfers[1, 0, 2] = -0.0
    p.transfers[1, 0, 3] = -np.inf
    p.sink_transfers[1, 1] = 7.25
    p.sink_transfers[0, 3] = np.nan
    p.sink_transfers[0, 0] = -0.0
    return p


class TestPlanText:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heuristic_plans_match_pinned_digests(self, seed):
        from uavplan.heuristic import PRESETS, insertion_solve
        from uavplan.synth import generate_preset

        s = generate_preset("sf-large", seed)
        for preset in PRESETS:
            if (seed, preset) in HEURISTIC_PLAN_DIGESTS:
                _, p = insertion_solve(s, PRESETS[preset]())
                assert _digest(serialize_plan(p)) == HEURISTIC_PLAN_DIGESTS[seed, preset], preset

    def test_exact_plan_matches_pinned_digest(self):
        from uavplan.exact import solve_exact
        from scenarios import flex_fixed_scenario

        assert _digest(serialize_plan(solve_exact(flex_fixed_scenario(1, 4)).plan)) == EXACT_PLAN_DIGEST

    def test_edge_values_match_pinned_digest(self):
        s = tiny_mixed()
        text = serialize_plan(edge_value_plan(s))
        assert _digest(text) == EDGE_PLAN_DIGEST
        doc = json.loads(text)
        assert [row[1] for row in doc["transfers"]] == [1, 0, "omega", "omega"]  # sink rows last
        assert doc["relay"] == [[1, 0, math.inf]]  # -0.0 left out


# -- pinned outputs of every evaluator function over a corpus of plans ------------


def _random_plan(s, rng, in_range):
    """Random decisions on s: locations off the map and at -1 unless
    in_range, fractions below 0 and above 1, negative transfers, a NaN."""
    p = Plan.idle(s)
    D, K, L = s.num_uavs, s.epochs, s.num_locations
    p.locations[:, 1:] = rng.integers(0, L, size=(D, K - 1))
    if not in_range:
        off = rng.random((D, K)) < 0.2
        p.locations[off] = rng.choice([-1, L, L + 3], size=int(off.sum()))
    p.payloads[:] = rng.random(p.payloads.shape) < 0.4
    for arr, lo, hi, share in (
        (p.mission_alloc, -0.2, 1.3, 0.3),
        (p.relay_frac, -0.2, 1.3, 0.3),
        (p.transfers, -2.0, 60.0, 0.2),
        (p.sink_transfers, -2.0, 60.0, 0.3),
    ):
        arr[:] = rng.uniform(lo, hi, arr.shape) * (rng.random(arr.shape) < share)
    if s.relay_index is not None:
        p.mission_alloc[:, :, s.relay_index, :] = 0.0
    if rng.random() < 0.3:
        arr = (p.mission_alloc, p.relay_frac, p.transfers, p.sink_transfers)[int(rng.integers(4))]
        arr[tuple(int(rng.integers(n)) for n in arr.shape)] = np.nan
    return p


def _two_payload_scenario(epochs):
    """Two UAVs, a depot and one site; coverage needs both the radio and the
    camera."""
    return make_scenario(
        locations=[Location(0, 0.0, 0.0, True), Location(1, 1.0, 0.0, False)],
        zones=[Zone(0, {1: {"coverage": 1.0}})],
        uav=UavSpec(4.0, 2.5, 200.0, 2.0, 2),
        payloads=[PayloadItem(0, 1.0, "radio"), PayloadItem(1, 1.0, "camera")],
        missions=[Mission(0, "coverage", (0, 1), 10.0), Mission(1, "relay", (0,), 0.0)],
        epochs=epochs,
        horizon=1,
        demand_entries=[(0, "coverage", 0, 1.0)],
    )


def _edge_cases():
    """A K = 1 plan off the depot, and one plan with an unequipped two-payload
    mission and out-of-range relay fractions and sink transfers."""
    s1 = _two_payload_scenario(1)
    p1 = Plan.idle(s1)
    p1.locations[0, 0] = 1
    yield "k1/off-depot", s1, p1
    s3 = _two_payload_scenario(3)
    p3 = Plan.idle(s3)
    p3.mission_alloc[0, 1, 0, 0] = 0.5  # neither payload aboard
    p3.relay_frac[1, 1] = 1.5  # over the time budget and over its own bound
    p3.relay_frac[1, 2] = -0.5
    p3.sink_transfers[1, 2] = -1.0  # negative, and over -0.5 times the link
    yield "two-payloads/edges", s3, p3


def _evaluator_corpus():
    """(label, scenario, plan) triples covering every constraint family."""
    from mutations import MUTATORS
    from scenarios import flex_fixed_scenario, mutation_base_plan, mutation_scenario

    from uavplan.heuristic import PRESETS, InsertionError, insertion_solve
    from uavplan.synth import generate_preset

    ms = mutation_scenario()
    base = mutation_base_plan(ms)
    yield "mutation/base", ms, base
    for tag, mutate in MUTATORS.items():
        for seed in range(3):
            yield f"mutation/{tag}/{seed}", ms, mutate(ms, base, np.random.default_rng(seed))
    builds = {
        "tiny-delivery": tiny_delivery(),
        "tiny-mixed": tiny_mixed(),
        "mutation": ms,
        "flex-fixed": flex_fixed_scenario(1, 3),
    }
    for name, s in builds.items():
        rng = np.random.default_rng(7)
        for i in range(8):
            yield f"{name}/random/{i}", s, _random_plan(s, rng, in_range=i % 2 == 0)
    for seed in (1, 2):
        s = generate_preset("sf-large", seed)
        rng = np.random.default_rng(seed)
        for preset, cfg in PRESETS.items():
            try:
                _, p = insertion_solve(s, cfg())
            except InsertionError:
                continue
            yield f"sf-large/{seed}/{preset}", s, p
            q = p.copy()
            q.mission_alloc *= rng.uniform(0.5, 1.5, q.mission_alloc.shape)
            q.locations[0, 1] = -1
            yield f"sf-large/{seed}/{preset}/perturbed", s, q
    yield from _edge_cases()


def _evaluator_outputs(s, p):
    """Every evaluator output on (s, p) as text; battery_trace's refusal
    reads as its exception type and message."""
    parts = []
    for tol in (1e-6, 1e-4):
        for depot_return in (True, False):
            rep = check_feasibility(s, p, tol=tol, depot_return=depot_return)
            parts += [rep.to_csv(), rep.to_json(), repr(rep.violations)]
    parts.append(satisfaction(s, p).to_csv(s))
    parts.append(repr(plan_metrics(s, p)))
    try:
        parts.append(repr(battery_trace(s, p).tolist()))
    except ValueError as exc:
        parts.append(f"{type(exc).__name__}: {exc}")
    if ((p.locations >= 0) & (p.locations < s.num_locations)).all():
        parts.append(repr(energy_used(s, p).tolist()))
    return "\n".join(parts)


# sha256 of _evaluator_outputs over _evaluator_corpus, in order; computed
# before check_feasibility moved onto one violation helper.  The corpus holds
# heuristic plans, so a change to the heuristic's sf-large plans moves it too.
# Re-pinned when satisfaction CSV cells became repr of a Python float instead
# of a numpy scalar (np.float64(1.0) -> 1.0); the earlier code with only that
# line changed gives this same digest
EVALUATOR_DIGEST = "5e382b968e43d45c4d6001833a7ff46496fda723c8d787ba0b61a74efd547212"


def test_evaluator_outputs_match_pinned_digest():
    h = hashlib.sha256()
    count = 0
    for label, s, p in _evaluator_corpus():
        h.update(label.encode() + b"\0" + _evaluator_outputs(s, p).encode() + b"\0")
        count += 1
    assert count == 85
    assert h.hexdigest() == EVALUATOR_DIGEST


def test_evaluator_edge_cases_keep_their_order():
    """Stable order within a tag: the time-budget entry before relay_frac's
    bound, a negative sink transfer before its over-capacity entry; two
    DEPOT-RETURN entries when K = 1; one EQUIP entry per missing payload."""
    corpus = {label: (s, p) for label, s, p in _edge_cases()}
    rep = check_feasibility(*corpus["k1/off-depot"])
    assert [v.indices for v in rep.violations if v.tag == "DEPOT-RETURN"] == [(0, 0), (0, 0)]
    rep = check_feasibility(*corpus["two-payloads/edges"])
    by_tag = lambda tag: [(v.indices, v.magnitude) for v in rep.violations if v.tag == tag]
    assert by_tag("EQUIP") == [((0, 1, 0, 0), 0.5), ((0, 1, 0, 0), 0.5), ((1, 1, 1), 1.5)]
    assert by_tag("BUDGET")[:2] == [((1, 1), 0.5), ((1, 1), 1.5)]
    assert by_tag("RELAY-CAP") == [((1, -1, 2), 1.0), ((1, -1, 2), 24999.0), ((1, 0, 2), 25000.0)]
