import collections
import dataclasses
import hashlib
import json
import math
import pathlib
import random

import numpy as np
import pytest

from uavplan.scenario import (
    Location,
    Mission,
    PayloadItem,
    ScenarioError,
    UavSpec,
    ValidationIssue,
    Zone,
    fixed_equipment,
    json_text,
    load_scenario,
    max_range,
    require_valid,
    serialize_scenario,
    validate,
    windowed_sum,
)
from uavplan import synth
from uavplan.synth import Dims, GenerationError, generate_preset, generate_synthetic
from uavplan.paths import all_pairs_shortest, reconstruct

from scenarios import flex_fixed_scenario, tiny_delivery, tiny_instance, tiny_mixed

DATA = pathlib.Path(__file__).parent / "data"

# sha256 of serialize_scenario(...), pinned before generate_synthetic's fixed
# reference values became module constants
PRESET_DIGESTS = {
    ("sf-small", 1): "bf7780498f0df1fc1999b7942ae6e7907df3bacbd728560fbe31525a7a5f70f0",
    ("sf-small", 2): "efcbc42684df36febc20e6f808b211d6d4cc9708831d9cb52cb20a078512cd00",
    ("sf-small", 3): "d3180b4dd89537ae2a04a79b882a2f77e823b355921b59805c903bc20ad743e6",
    ("sf-large", 1): "e027482daaa1532108385315b007e51389b5e3f77bbdd7fd705ee9efd4d5dcf8",
    ("sf-large", 2): "01b9c95c4809b0022e037fad11c102b052d989473b37a3b17b20514b3e9e1f5d",
    ("sf-large", 3): "07d2f0d65d5f1a6915e0d77a4acba04a463cfef4a279257aa372541f577020b3",
}
OPTION_DIGESTS = {  # seed -> no monitoring on Dims(6, 4, 2, 3, 10)
    1: "2d2de51b885a357a5ce51ee83ae3430f5d8076e220dfbcac77680c39da95630f",
    2: "b5b2428423b79e6ebdb1253eeb9392021ee9185604ebca777b9145adf1fcc50e",
    3: "179e02afca88306e396659ec7fa6d6d2568a3128586972839d6227ce18445948",
}


# sha256 over serialize_scenario of sf-large seeds 1-40, then sf-small seeds 1-40
POOL_DIGEST = "8628be67bcbcd88376fca1dc6f3e107164eb9248bc04df590f88a7be9275405e"


def _digest(s):
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()


MINIMAL = {
    "epochs": 4,
    "horizon": 2,
    "locations": [{"x": 0.0, "y": 0.0, "depot": True}],
    "zones": [{"served_from": []}],
    "uavs": {
        "count": 1,
        "empty_weight_kg": 4.0,
        "payload_capacity_kg": 2.5,
        "battery_capacity_wh": 200.0,
        "max_step_km": 2.0,
    },
    "payloads": [],
    "missions": [],
    "demand": [],
}


def test_minimal_document_loads():
    s = load_scenario(json.dumps(MINIMAL))
    assert s.num_locations == 1
    assert s.num_zones == 1
    assert not s.deliverable_ids
    assert validate(s) == []


def test_inverted_window_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["payloads"] = [{"name": "p", "weight_kg": 0.5, "deliver_to": 0, "window": [5, 3]}]
    doc["epochs"] = 8
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert "window inverted" in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ScenarioError) as err:
        load_scenario("{ not json }")
    assert "line 1" in str(err.value)


def test_sf_small_fixture_echoes_reference_constants(sf_small_text):
    s = load_scenario(sf_small_text)
    assert s.uav.empty_weight_kg == 4.0
    assert s.uav.payload_capacity_kg == 2.5
    assert s.uav.battery_capacity_wh == 200.0
    assert s.e_per_km_kg == 3.125
    assert validate(s) == []


def test_validate_flags_asymmetric_distance():
    import dataclasses

    s = tiny_mixed()
    d = s.dist_km.copy()
    d[0, 1] += 0.5
    s2 = dataclasses.replace(s, dist_km=d)
    issues = validate(s2)
    assert any("asymmetric distance" in str(i) for i in issues)


@pytest.mark.parametrize("engine", ["insertion_solve", "solve_exact", "build_milp"])
def test_engines_refuse_an_invalid_scenario_as_the_loader_does(engine):
    """Each engine raises the loader's ScenarioError, with its message and
    the validate issues it carries."""
    import dataclasses

    from uavplan import exact, heuristic, milp

    run = {"insertion_solve": heuristic.insertion_solve, "solve_exact": exact.solve_exact,
           "build_milp": milp.build_milp}[engine]
    s = tiny_mixed()
    d = s.dist_km.copy()
    d[0, 1] += 0.5
    s2 = dataclasses.replace(s, dist_km=d)
    issues = validate(s2)
    for _ in range(2):  # the refusal is raised again, with the same issues
        with pytest.raises(ScenarioError) as err:
            run(s2)
        assert err.value.issues == issues
        assert str(err.value) == "scenario failed validation: " + "; ".join(map(str, issues))


def test_validate_runs_once_per_instance(monkeypatch):
    """The loader's verdict serves every engine the instance meets; a
    replaced copy is validated once more, on its own, and a generated
    scenario only by the generator."""
    import dataclasses

    from uavplan import exact, heuristic, milp, scenario, synth

    calls, real_validate = [], scenario.validate

    def counted(s_):
        calls.append(s_)
        return real_validate(s_)

    monkeypatch.setattr(scenario, "validate", counted)
    monkeypatch.setattr(synth, "validate", counted)
    s = load_scenario((DATA / "tiny-mixed.scenario").read_text())
    heuristic.insertion_solve(s)
    exact.solve_exact(s)
    milp.build_milp(s)
    assert calls == [s]
    copy = dataclasses.replace(s)
    for run in (heuristic.insertion_solve, exact.solve_exact, milp.build_milp):
        run(copy)
    assert len(calls) == 2 and calls[1] is copy
    generated = generate_synthetic(3, Dims(4, 2, 2, 1, 4))
    heuristic.insertion_solve(generated)
    milp.build_milp(generated)
    assert len(calls) == 3 and calls[2] is generated


def test_validate_flags_overweight_payload():
    doc = json.loads(json.dumps(MINIMAL))
    doc["payloads"] = [{"name": "heavy", "weight_kg": 3.0}]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert "payload exceeds capacity" in str(err.value)


def _swap(items, i, **fields):
    """items with its i-th element's fields replaced."""
    items = list(items)
    items[i] = dataclasses.replace(items[i], **fields)
    return tuple(items)


def _set(arr, index, value):
    """A writable copy of arr with arr[index] = value."""
    out = arr.copy()
    out[index] = value
    return out


# (field, indices, rule, how tiny_mixed is broken): each row breaks one rule
# that no loader or engine test reaches; tiny_mixed has locations 0 (depot),
# 1 and 2, one zone, payloads radio (0) and pack (1, to location 1 in epochs
# 1-2), missions coverage (0) and relay (1), and four epochs
BROKEN_RULES = {
    "no-location": ("locations", (), "at least one location required", lambda s: dict(locations=())),
    "location-id": ("locations", (1,), "ids must be dense 0..2, found 5",
                    lambda s: dict(locations=_swap(s.locations, 1, id=5))),
    "no-depot": ("locations", (), "at least one depot required",
                 lambda s: dict(locations=_swap(s.locations, 0, is_depot=False))),
    "zone-id": ("zones", (0,), "ids must be dense 0..0, found 3", lambda s: dict(zones=_swap(s.zones, 0, id=3))),
    "zone-location": ("zones", (0, 7), "served_from references unknown location",
                      lambda s: dict(zones=_swap(s.zones, 0, served_from={7: {"coverage": 1.0}}))),
    "negative-quality": ("quality", (1, 0, 0), "quality must be nonnegative",
                         lambda s: dict(quality=_set(s.quality, (1, 0, 0), -1.0))),
    "payload-id": ("payloads", (0,), "ids must be dense in list order",
                   lambda s: dict(payloads=_swap(s.payloads, 0, id=4))),
    "negative-weight": ("payloads", (0,), "weight must be nonnegative",
                        lambda s: dict(payloads=_swap(s.payloads, 0, weight_kg=-1.0))),
    "no-target": ("payloads", (1,), "deliverable payload needs target and window",
                  lambda s: dict(payloads=_swap(s.payloads, 1, target=None))),
    "late-window": ("payloads", (1,), "window end 9 beyond last epoch 3",
                    lambda s: dict(payloads=_swap(s.payloads, 1, window=(1, 9)))),
    "unknown-target": ("payloads", (1,), "target references unknown location",
                       lambda s: dict(payloads=_swap(s.payloads, 1, target=9))),
    "equipment-target": ("payloads", (0,), "non-deliverable payload must not set target/window",
                         lambda s: dict(payloads=_swap(s.payloads, 0, target=1))),
    "duplicate-mission": ("missions", (), "mission names must be unique",
                          lambda s: dict(missions=_swap(s.missions, 0, name="relay"))),
    "no-relay": ("missions", (), "relay mission required when service missions exist",
                 lambda s: dict(missions=_swap(s.missions, 1, name="backhaul"))),
    "mission-id": ("missions", (0,), "ids must be dense in list order",
                   lambda s: dict(missions=_swap(s.missions, 0, id=4))),
    "negative-data": ("missions", (0,), "data per work unit must be nonnegative",
                      lambda s: dict(missions=_swap(s.missions, 0, mb_per_work=-1.0))),
    "unknown-payload": ("missions", (0,), "requires unknown payload 9",
                        lambda s: dict(missions=_swap(s.missions, 0, requires=(9,)))),
    "relay-without-radio": ("missions", (1,), "relay must require its radio payload",
                            lambda s: dict(missions=_swap(s.missions, 1, requires=()))),
    "demand-shape": ("demand", (4, 2, 2), "shape must be (4,2,1)", lambda s: dict(demand=np.zeros((4, 2, 2)))),
    "negative-demand": ("demand", (1, 0, 0), "demand must be nonnegative",
                        lambda s: dict(demand=_set(s.demand, (1, 0, 0), -1.0))),
    "relay-demand": ("demand", (1,), "relay mission carries no zone demand",
                     lambda s: dict(demand=_set(s.demand, (1, 1, 0), 1.0))),
    "distance-shape": ("distances", (2, 2), "shape must be (3,3)", lambda s: dict(dist_km=np.zeros((2, 2)))),
    "self-distance": ("distances", (), "self-distance must be zero",
                      lambda s: dict(dist_km=_set(s.dist_km, (1, 1), 0.5))),
    "free-hover": ("energy", (), "hover cost on the diagonal must be positive",
                   lambda s: dict(energy_wh_per_kg=_set(s.energy_wh_per_kg, (1, 1), 0.0))),
    "negative-link": ("links", (), "capacities must be nonnegative",
                      lambda s: dict(link_sink_mb=_set(s.link_sink_mb, 0, -1.0))),
    "asymmetric-link": ("links", (), "UAV-to-UAV capacity must be symmetric",
                        lambda s: dict(link_uav_mb=_set(s.link_uav_mb, (0, 1), 1.0))),
    "no-epoch": ("epochs", (), "at least one epoch required", lambda s: dict(epochs=0, horizon=0)),
}


@pytest.mark.parametrize("case", list(BROKEN_RULES))
def test_validate_reports_each_broken_rule(case):
    """validate names the broken field, indices and rule, and require_valid
    raises a ScenarioError that carries the same issue."""
    field, indices, rule, edit = BROKEN_RULES[case]
    s = tiny_mixed()
    assert validate(s) == []
    bad = dataclasses.replace(s, **edit(s))
    issue = ValidationIssue(field, indices, rule)
    assert issue in validate(bad)
    with pytest.raises(ScenarioError) as err:
        require_valid(bad)
    assert issue in err.value.issues
    assert str(issue) in str(err.value)


class TestMaxRange:
    def test_reference_parameters(self):
        spec = UavSpec(4.0, 2.5, 200.0, 2.0, 1)
        assert max_range(spec, 3.125) == pytest.approx(9.846, abs=5e-4)

    def test_identity_scaling(self):
        assert max_range(UavSpec(1.0, 1e-12, 1.0, 1.0, 1), 1.0) == pytest.approx(1.0)

    def test_half_battery_halves_range(self):
        spec = UavSpec(4.0, 2.5, 100.0, 2.0, 1)
        assert max_range(spec, 3.125) == pytest.approx(4.923, abs=5e-4)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w, c, e_cap, rate = rng.uniform(0.5, 10, size=4)
            base = max_range(UavSpec(w, c, e_cap, 1.0, 1), rate)
            assert max_range(UavSpec(w, c, 2 * e_cap, 1.0, 1), rate) == pytest.approx(2 * base)
            assert max_range(UavSpec(2 * w, 2 * c, e_cap, 1.0, 1), rate) == pytest.approx(base / 2)


class TestRoundTrip:
    def test_fixture_round_trip(self, sf_small_text):
        s = load_scenario(sf_small_text)
        assert serialize_scenario(load_scenario(serialize_scenario(s))) == serialize_scenario(s)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_generated_round_trip(self, seed):
        s = generate_synthetic(seed, Dims(5, 3, 2, 2, 8))
        text = serialize_scenario(s)
        assert serialize_scenario(load_scenario(text)) == text


# a numpy integer in each integer field that make_scenario and validate accept
NUMPY_INT_FIELDS = {
    "served-from-location": lambda i: dict(zones=[Zone(0, {i(1): {"coverage": 1.0}, i(2): {"coverage": 2.0}})]),
    "uav-count": lambda i: dict(uav=UavSpec(4.0, 2.5, 200.0, 2.0, i(2))),
    "delivery-target": lambda i: dict(
        payloads=[PayloadItem(0, 1.0, "radio"), PayloadItem(1, 0.5, "pack", True, i(1), (1, 2))]
    ),
    "delivery-window": lambda i: dict(
        payloads=[PayloadItem(0, 1.0, "radio"), PayloadItem(1, 0.5, "pack", True, 1, (i(1), i(2)))]
    ),
}

# sha256 of serialize_scenario(...), computed before the writer moved onto
# json_text: link overrides off and on the diagonal, sink overrides, and a
# non-default UAV link capacity
LINK_DIGESTS = {
    "binding-links": (
        dict(link_uav_entries=[(0, 2, 2.0), (1, 1, 9e4)], link_sink_entries=[(2, 6e4)]),
        "672d90e8cf3cba1bca5a3efc8e087163fb649e28fc06424f3a94a67ac930b842",
    ),
    "diagonal-and-sink": (
        dict(
            link_uav_entries=[(2, 2, 7.5), (1, 0, 0.0)],
            link_sink_entries=[(0, 12.5), (1, -0.0)],
            link_default_uav_mb=40.0,
        ),
        "809ccf90890d632953af7d4e9375bdab83926f1602e329bf527e01fa64cc4ad2",
    ),
}


_PLACES = [Location(0, 0.0, 0.0, True), Location(1, 1.0, 0.0, False), Location(2, 1.5, 1.0, False)]
_PACK = PayloadItem(1, 0.5, "pack", True, 1, (1, 2))

# a numpy scalar json cannot write, in each field serialize_scenario writes as
# it is: the scenario, and the issue validate reports for it
NUMPY_SCALAR_FIELDS = {
    "location-x": (
        lambda: tiny_mixed(locations=[_PLACES[0], Location(1, np.float32(1.0), 0.0, False), _PLACES[2]]),
        ValidationIssue("locations", (1,), "coordinates must be Python numbers"),
    ),
    "location-depot": (
        lambda: tiny_mixed(locations=[Location(0, 0.0, 0.0, np.bool_(True)), *_PLACES[1:]]),
        ValidationIssue("locations", (0,), "depot flag must be a Python bool"),
    ),
    "zone-quality": (
        lambda: tiny_mixed(zones=[Zone(0, {1: {"coverage": np.float32(1.0)}, 2: {"coverage": 2.0}})]),
        ValidationIssue("zones", (0, 1), "quality must be a Python number"),
    ),
    "payload-weight": (
        lambda: tiny_mixed(payloads=[PayloadItem(0, np.float32(1.0), "radio"), _PACK]),
        ValidationIssue("payloads", (0,), "weight must be a Python number"),
    ),
    "mission-data": (
        lambda: tiny_mixed(missions=[Mission(0, "coverage", (0,), np.int64(10)), Mission(1, "relay", (0,), 0.0)]),
        ValidationIssue("missions", (0,), "data per work unit must be a Python number"),
    ),
    "uav-empty-weight": (
        lambda: tiny_mixed(uav=UavSpec(np.int64(4), 2.5, 200.0, 2.0, 2)),
        ValidationIssue("uavs", ("empty_weight_kg",), "must be a Python number"),
    ),
    # make_scenario stores the scenario-wide numbers as Python ones, so these
    # reach validate only through dataclasses.replace
    "epochs": (
        lambda: dataclasses.replace(tiny_mixed(), epochs=np.int64(4)),
        ValidationIssue("epochs", (), "must be a Python number"),
    ),
    "hover": (
        lambda: dataclasses.replace(tiny_mixed(), hover_km_equiv=np.float32(0.1)),
        ValidationIssue("energy", ("hover_km_equiv",), "must be a Python number"),
    ),
    "default-sink-link": (
        lambda: dataclasses.replace(tiny_mixed(), link_default_sink_mb=np.int64(50000)),
        ValidationIssue("links", ("default_sink_mb",), "must be a Python number"),
    ),
}

# sha256 of serialize_scenario for tiny_mixed with a plain-int payload weight
# of 4, taken before validate refused numpy scalars: the weight stays "4"
PLAIN_INT_WEIGHT_DIGEST = "a0e8299f54a8c299fa80c3005931530c7be01f8241c0d974121437cee9b24dc7"


class TestWriter:
    @pytest.mark.parametrize("case", sorted(NUMPY_SCALAR_FIELDS))
    def test_numpy_scalars_json_cannot_write_refused(self, case):
        build, issue = NUMPY_SCALAR_FIELDS[case]
        s = build()
        assert validate(s) == [issue]
        with pytest.raises(TypeError):
            serialize_scenario(s)

    def test_plain_int_weight_keeps_its_bytes(self):
        s = tiny_mixed(uav=UavSpec(4.0, 5.0, 200.0, 2.0, 2), payloads=[PayloadItem(0, 4, "radio"), _PACK])
        assert validate(s) == []
        assert '"weight_kg": 4\n' in serialize_scenario(s)
        assert _digest(s) == PLAIN_INT_WEIGHT_DIGEST

    @pytest.mark.parametrize("field", sorted(NUMPY_INT_FIELDS))
    def test_numpy_integers_written_as_plain_ones(self, field):
        s = tiny_mixed(**NUMPY_INT_FIELDS[field](np.int64))
        assert validate(s) == []
        text = serialize_scenario(s)
        assert text == serialize_scenario(tiny_mixed(**NUMPY_INT_FIELDS[field](int)))
        assert serialize_scenario(load_scenario(text)) == text

    @pytest.mark.parametrize("case", sorted(LINK_DIGESTS))
    def test_link_overrides_match_pinned_digest(self, case):
        links, digest = LINK_DIGESTS[case]
        assert _digest(tiny_mixed(**links)) == digest


# -- json_text against json.dumps ------------------------------------------------

_STRINGS = ["", "a", "],\n[", "},\n{", "],", "},", "\n", '"', 'say "hi"', "back\\slash", "\\n", "é", "日本", "\u2028", "\x00"]
_NUMBERS = [0, 1, -7, 2**64 + 1, -(2**70), 0.0, -0.0, 1.5, -2.25e-300, 1e300, math.nan, math.inf, -math.inf]
_KEYS = ["a", "b", "x y", "],\n[", "},\n{", '"', "é", 1, -2**65, 2.5, -0.0, math.nan, True, False, None]


class _Items(list):
    """A list subclass, which json.dumps writes as a list."""


def _scalar(rng):
    return rng.choice(_STRINGS + _NUMBERS + [True, False, None])


def _flat(rng, kind):
    n = rng.randrange(4)
    if issubclass(kind, dict):
        return kind((rng.choice(_KEYS), _scalar(rng)) for _ in range(n))
    return kind(_scalar(rng) for _ in range(n))


def _random_doc(rng, depth=3):
    """A random document: nested and flat containers, empty ones, tuples
    and subclasses of list and dict, rows of lists and rows of dicts (some
    with an empty row), and scalars that json.dumps writes in every way it
    can."""
    shape = rng.randrange(9) if depth > 0 else 0
    if shape == 0:
        return _scalar(rng)
    if shape == 1:
        return _flat(rng, rng.choice([list, tuple, _Items, dict, collections.OrderedDict]))
    if shape in (2, 3):
        kinds = [list, tuple, _Items] if shape == 2 else [dict, collections.OrderedDict]
        rows = [_flat(rng, rng.choice(kinds)) for _ in range(rng.randrange(1, 6))]
        return [r for r in rows if r or rng.random() < 0.2]
    n = rng.randrange(5)
    if shape in (4, 5):
        return {rng.choice(_KEYS): _random_doc(rng, depth - 1) for _ in range(n)}
    items = [_random_doc(rng, depth - 1) for _ in range(n)]
    return tuple(items) if shape == 6 else items


class TestJsonText:
    def test_matches_json_dumps_on_random_documents(self):
        rng = random.Random(24)
        for _ in range(3000):
            doc = _random_doc(rng)
            assert json_text(doc) == json.dumps(doc, indent=2) + "\n", doc

    @pytest.mark.parametrize(
        "doc",
        [
            [[1, 2], [3, 4], [5, np.int64(6)]],
            [{"a": 1}, {"b": np.int64(2)}],
            {"a": [1, np.int64(2)]},
            {"a": {"b": [{"c": np.int64(1)}]}, "d": [[]]},
            [np.int64(1)],
            np.int64(1),
            {"a": {1, 2}},
            {(1, 2): 3},
            {"a": {(1, 2): [1]}},
            [{"a": 1}, {(1, 2): 3}],
        ],
    )
    def test_refuses_what_json_dumps_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            json_text(doc)


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = generate_synthetic(3, Dims(6, 4, 2, 3, 10))
        b = generate_synthetic(3, Dims(6, 4, 2, 3, 10))
        assert serialize_scenario(a) == serialize_scenario(b)

    def test_seed_changes_targets(self):
        a = generate_synthetic(1, Dims(8, 4, 2, 4, 12))
        b = generate_synthetic(2, Dims(8, 4, 2, 4, 12))
        assert serialize_scenario(a) != serialize_scenario(b)

    def test_reference_cardinalities(self):
        s = generate_preset("sf-large", seed=1)
        assert s.num_locations == 40
        assert s.num_zones == 50
        assert len(s.deliverable_ids) == 20
        assert s.epochs == 20
        assert s.horizon == 10
        assert validate(s) == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deliveries_never_trivially_infeasible(self, seed):
        """Each delivery admits a dedicated depot round trip within its window
        and battery at full equipment load."""
        s = generate_synthetic(seed, Dims(10, 5, 3, 4, 14))
        path_km, nxt = all_pairs_shortest(s.dist_km, s.uav.max_step_km)
        w = s.payload_kg
        equip_w = sum(w[list(s.equipment_ids)])
        depot = s.depot_ids[0]
        for p in s.payloads:
            if not p.deliverable:
                continue
            hops = len(reconstruct(nxt, depot, p.target)) - 1
            a, b = p.window
            assert any(max(a, hops) <= k <= b and k + hops <= s.epochs - 1 for k in range(s.epochs))
            gross = s.uav.empty_weight_kg + equip_w + p.weight_kg
            energy = 2.0 * path_km[depot, p.target] * s.e_per_km_kg * gross
            assert energy <= s.uav.battery_capacity_wh

    @pytest.mark.parametrize("preset,seed", sorted(PRESET_DIGESTS))
    def test_presets_match_pinned_digests(self, preset, seed):
        assert _digest(generate_preset(preset, seed)) == PRESET_DIGESTS[preset, seed]

    @pytest.mark.parametrize("seed", sorted(OPTION_DIGESTS))
    def test_options_match_pinned_digests(self, seed):
        no_monitoring = generate_synthetic(seed, Dims(6, 4, 2, 3, 10), include_monitoring=False)
        assert _digest(no_monitoring) == OPTION_DIGESTS[seed]

    def test_zone_wiring_averages_two_locations(self):
        s = generate_preset("sf-large", seed=2)
        per_zone = [len(z.served_from) for z in s.zones]
        assert 1.2 <= float(np.mean(per_zone)) <= 2.8

    def test_preset_pool_matches_pinned_digest(self):
        """One sha256 over sf-large seeds 1-40 (the heuristic-sflarge pool)
        then sf-small seeds 1-40, pinned before the straight-line pre-check."""
        h = hashlib.sha256()
        for preset in ("sf-large", "sf-small"):
            for seed in range(1, 41):
                h.update(serialize_scenario(generate_preset(preset, seed)).encode())
        assert h.hexdigest() == POOL_DIGEST

    def test_redrawn_layouts_keep_their_bytes(self, monkeypatch):
        """Seed 4 of Dims(60, 5, 2, 5, 20) draws 20 layouts (19 redraws, pinned
        when every draw ran the path search); the straight-line pre-check
        refuses all 19 before the path search, and the rng stream is unchanged."""
        searched = []
        real = synth.mst_max_edge
        monkeypatch.setattr(synth, "mst_max_edge", lambda dist: searched.append(1) or real(dist))
        s = generate_synthetic(4, Dims(60, 5, 2, 5, 20))
        assert _digest(s) == "25ab7ac6124256cd17da3f9d4fce2bdc138cf159870cf5b4affdadb900e1dc6f"
        assert len(searched) == 1

    @pytest.mark.parametrize(
        "seed, dims, what",
        [
            (1, Dims(300, 4, 2, 3, 2), "epochs=2"),
            (1, Dims(1, 2, 1, 2, 10), "locations=1"),
            (-1, Dims(6, 4, 2, 3, 10), "seed=-1"),
        ],
    )
    def test_hopeless_dims_and_negative_seed_refused_before_drawing(self, monkeypatch, seed, dims, what):
        monkeypatch.setattr(synth.np.random, "default_rng", None)  # drawing would raise TypeError
        with pytest.raises(GenerationError, match=what):
            generate_synthetic(seed, dims)


class _CountingRng:
    """Forwards every method call to a numpy Generator and records its name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestBatchedDraws:
    def test_zone_draws_are_batched(self, monkeypatch):
        """sf-large seeds 1-40 made 51,060 scalar rng calls when each quality
        and demand factor was drawn alone; each zone now draws its qualities,
        its base and its demand factors in three uniform calls."""
        streams = []  # the method names called on each generator, one list per seed
        real = synth.np.random.default_rng

        def counting_rng(seed):
            streams.append([])
            return _CountingRng(real(seed), streams[-1])

        monkeypatch.setattr(synth.np.random, "default_rng", counting_rng)
        for seed in range(1, 41):
            generate_preset("sf-large", seed)
        assert len(streams) == 40
        assert sum(map(len, streams)) <= 13_000
        for calls in streams:
            zones = [i for i, name in enumerate(calls) if name == "choice"]  # one choice per zone
            assert len(zones) == 50
            for start, end in zip(zones, zones[1:] + [len(calls)]):
                assert calls[start + 1 : end].count("uniform") <= 3


class TestDerivedData:
    DERIVED_ARRAYS = ("payload_kg", "is_depot", "mb_per_work", "is_service", "window_need", "needed_ratios", "reach")

    def test_derived_arrays_are_read_only(self):
        """Each derived array is built once, cannot be written and cannot be
        rebound."""
        import dataclasses

        s = tiny_mixed()
        for name in self.DERIVED_ARRAYS:
            arr = getattr(s, name)
            assert arr is getattr(s, name) and arr.size, name
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, arr.copy())

    @pytest.mark.parametrize(
        "make",
        [tiny_mixed, tiny_delivery, *(lambda seed=seed: tiny_instance(seed) for seed in (1, 4, 7)),
         *(lambda seed=seed: generate_preset("sf-large", seed) for seed in (1, 2))],
        ids=["tiny-mixed", "tiny-delivery", "tiny-1", "tiny-4", "tiny-7", "sf-large-1", "sf-large-2"],
    )
    def test_rate_and_service_mask_match_local_builds(self, make):
        """mb_per_work and is_service equal the arrays the evaluator and the
        exact engine used to build for themselves."""
        s = make()
        rate = np.array([m.mb_per_work for m in s.missions])
        assert s.mb_per_work.dtype == rate.dtype and s.mb_per_work.tobytes() == rate.tobytes()
        service = np.zeros(s.num_missions, dtype=bool)
        service[list(s.service_mission_ids)] = True
        assert s.is_service.dtype == bool and np.array_equal(s.is_service, service)
        assert np.array_equal(s.needed_ratios, (s.window_need > 0) & service[:, None])

    def test_replace_recomputes_depot_data(self):
        """A fresh instance from dataclasses.replace carries no stale masks."""
        import dataclasses

        s = tiny_mixed()
        assert s.depot_ids == (0,) and s.is_depot.tolist() == [True, False, False]
        locs = list(s.locations)
        locs[0] = dataclasses.replace(locs[0], is_depot=False)
        locs[1] = dataclasses.replace(locs[1], is_depot=True)
        s2 = dataclasses.replace(s, locations=tuple(locs))
        assert s2.depot_ids == (1,)
        assert s2.is_depot.tolist() == [False, True, False]
        assert s.depot_ids == (0,) and s.is_depot.tolist() == [True, False, False]

    def test_reach_is_read_only_and_follows_max_step(self):
        import dataclasses

        s = tiny_mixed()
        want = s.dist_km <= s.uav.max_step_km + 1e-12
        assert np.array_equal(s.reach, want) and s.reach is s.reach
        with pytest.raises(ValueError):
            s.reach[0, 1] = not s.reach[0, 1]
        step = float(np.unique(s.dist_km)[1])  # the shortest hop only
        s2 = dataclasses.replace(s, uav=dataclasses.replace(s.uav, max_step_km=step))
        assert np.array_equal(s2.reach, s2.dist_km <= step + 1e-12)
        assert not np.array_equal(s2.reach, s.reach)
        assert np.array_equal(s.reach, want)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_location_records_match_loop(self, seed):
        """hover_wh_per_kg and serving_zones hold the arrays' exact values as
        Python numbers; a replaced quality tensor gets its own records."""
        import dataclasses

        s = generate_preset("sf-large", seed)
        L, M, Z = s.quality.shape
        assert s.hover_wh_per_kg == tuple(float(s.energy_wh_per_kg[l, l]) for l in range(L))
        want = tuple(
            tuple(tuple((z, float(s.quality[l, m, z])) for z in range(Z) if s.quality[l, m, z] > 0) for m in range(M))
            for l in range(L)
        )
        assert s.serving_zones == want and s.serving_zones is s.serving_zones
        assert all(type(z) is int and type(q) is float for per_l in s.serving_zones for row in per_l for z, q in row)
        quality = s.quality.copy()
        quality[1] = 0.0
        s2 = dataclasses.replace(s, quality=quality)
        assert s2.serving_zones[1] == ((),) * M and s2.serving_zones[2:] == want[2:]

    @pytest.mark.parametrize("horizon", [0, 1, 2, 4])
    def test_window_need_matches_loop(self, horizon):
        import dataclasses

        s = dataclasses.replace(generate_synthetic(3, Dims(4, 5, 2, 2, 6)), horizon=horizon)
        K, M, Z = s.demand.shape
        cs = np.concatenate([np.zeros((1, M, Z)), np.cumsum(s.demand, axis=0)])
        want = np.stack([cs[k + 1] - cs[max(0, k - horizon)] for k in range(K)])
        assert np.array_equal(s.window_need, want)
        assert np.array_equal(windowed_sum(s.demand, horizon), want)
        mask = want > 0
        mask[:, [m for m in range(M) if m not in s.service_mission_ids]] = False
        assert np.array_equal(s.needed_ratios, mask)
        with pytest.raises(ValueError):
            s.window_need[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            s.needed_ratios[0, 0, 0] = True


class TestFixedEquipment:
    @pytest.mark.parametrize(
        "uavs, counts", [(1, (1,)), (2, (2,)), (3, (1, 1, 1)), (4, (1, 1, 2)), (6, (2, 2, 2)), (7, (2, 2, 3))]
    )
    def test_thirds_radio_camera_both(self, uavs, counts):
        """Radio-only, camera-only, then both; a fleet under three UAVs is all both."""
        radio, camera, none = frozenset({0}), frozenset({1}), frozenset()
        policies = [(radio, camera), (camera, radio), (radio | camera, none)][-len(counts):]
        want = [(n, on, off) for n, (on, off) in zip(counts, policies)]
        assert fixed_equipment(flex_fixed_scenario(1, uavs)) == want

    @pytest.mark.parametrize(
        "build, message",
        [
            (tiny_delivery, "fixed equipment mode needs a relay mission with its radio"),
            (tiny_mixed, "fixed equipment mode needs a second equipment payload"),
        ],
    )
    def test_refusals(self, build, message):
        with pytest.raises(ScenarioError, match=message):
            fixed_equipment(build())
