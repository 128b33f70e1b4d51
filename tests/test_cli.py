import contextlib
import hashlib
import json
import pathlib
import resource

import pytest

from uavplan.cli import main
from uavplan.bruteforce import solve_model_exhaustive
from uavplan.evaluator import Plan, Violation, ViolationReport, check_feasibility, load_plan, serialize_plan
from uavplan.milp import build_milp, solution_to_text
from uavplan.scenario import load_scenario, serialize_scenario

from scenarios import flex_fixed_scenario, tiny_delivery

DATA = pathlib.Path(__file__).parent / "data"


def run(*args) -> int:
    return main([str(a) for a in args])


@contextlib.contextmanager
def address_space_headroom(extra_bytes=512 * 2**20):
    """Cap this process's address space at its current size plus extra_bytes
    while the block runs, so a size check that fails ends in MemoryError
    instead of allocating gigabytes."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/status") as fh:
        vm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    cap = vm_kb * 1024 + extra_bytes
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)  # never loosen a limit already set
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def sf_small_file(tmp_path):
    out = tmp_path / "sf-small.scenario"
    out.write_text((DATA / "sf-small.scenario").read_text())
    return out


class TestGenerate:
    def test_preset_matches_bundled_fixture(self, tmp_path):
        out = tmp_path / "s.scenario"
        assert run("generate", "--preset", "sf-small", "--seed", 1, "--out", out) == 0
        assert out.read_bytes() == (DATA / "sf-small.scenario").read_bytes()

    def test_repeated_invocation_identical(self, tmp_path):
        a, b = tmp_path / "a.scenario", tmp_path / "b.scenario"
        run("generate", "--dims", "6,3,2,2,10", "--seed", 3, "--out", a)
        run("generate", "--dims", "6,3,2,2,10", "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.scenario.manifest.json").exists()

    def test_bad_dims_exit_2(self, tmp_path, capsys):
        assert run("generate", "--dims", "0,0,0,0,0", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err
        # wrong field count or a non-integer field: the message names the flag
        for dims in ("1,2", "a,b,c,d,e", "4,2,2,1,1.5"):
            assert run("generate", "--dims", dims, "--out", tmp_path / "x") == 2
            assert capsys.readouterr().err == f"error: --dims {dims!r}: expected five integers L,Z,D,P,K\n"

    @pytest.mark.parametrize(
        "dims, what",
        [
            ("100000000000000000000,50,8,20,20", "the distance matrices (locations x locations)"),
            ("10001,1,1,1,2", "the distance matrices (locations x locations)"),
            ("40,1000000,1,0,1", "the quality tensor (locations x missions x zones)"),
            ("40,50,100000000000000000000,20,20", "a plan (uavs x epochs x"),
            ("40,50,8,100000000000000000000,20", "a plan (uavs x epochs x"),
            ("40,100000000000000000000,8,20,20", "the demand tensor (epochs x missions x zones)"),
        ],
    )
    def test_oversized_dims_exit_2_before_drawing(self, tmp_path, capsys, dims, what):
        out = tmp_path / "big.scenario"
        with address_space_headroom():
            assert run("generate", "--dims", dims, "--seed", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario too large: {what}") and "100000000 cells" in err
        assert not out.exists()

    def test_hopeless_dims_and_negative_seed_exit_2(self, tmp_path, capsys):
        """Dims under which no delivery fits, and a negative seed, exit 2 with
        a message naming the value, instead of drawing 500 layouts first."""
        out = tmp_path / "x.scenario"
        for dims, seed, what in (("300,4,2,3,2", 1, "epochs=2"), ("1,2,1,2,10", 1, "locations=1"), ("6,4,2,3,10", -1, "seed=-1")):
            assert run("generate", "--dims", dims, "--seed", seed, "--out", out) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and what in err
        assert not out.exists()

    def test_out_directory_exit_2_and_no_tmp_left(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        assert run("generate", "--preset", "sf-small", "--seed", 1, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


class TestValidate:
    def test_valid_scenario(self, sf_small_file):
        assert run("validate", sf_small_file, "--json") == 0

    def test_broken_scenario(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{ nope")
        assert run("validate", bad) == 2

    @pytest.mark.parametrize(
        "text, issues",
        [
            (None, ["horizon: horizon must lie in [0, epochs]"]),  # an issue validate finds
            ("{ nope", ["parse error at line 1, column 3: Expecting property name enclosed in double quotes"]),
            # int()'s OverflowError escaped as "error: cannot convert float infinity to integer"
            (json.dumps({**json.loads((DATA / "tiny-mixed.scenario").read_text()), "epochs": float("inf")}),
             ["epochs inf is not an integer"]),
        ],
    )
    def test_invalid_scenario_reported_as_json(self, tmp_path, capsys, text, issues):
        if text is None:
            doc = json.loads((DATA / "tiny-mixed.scenario").read_text())
            doc["horizon"] = 999
            text = json.dumps(doc)
        bad = tmp_path / "bad.scenario"
        bad.write_text(text)
        assert run("validate", bad, "--json") == 2
        out = capsys.readouterr()
        assert json.loads(out.out) == {"valid": False, "issues": issues}
        assert out.err == ""
        assert run("validate", bad) == 2
        assert capsys.readouterr().err.splitlines() == issues

    @pytest.mark.parametrize(
        "path, value, prefix",
        [
            (("epochs",), 10**9, "scenario too large: the demand tensor (epochs x missions x zones)"),
            (("epochs",), 1e308, "scenario too large: the demand tensor"),
            (("uavs", "count"), 10**4, "scenario too large: a plan (uavs x epochs x"),
            (("uavs", "count"), 1e308, "scenario too large: a plan"),
            (("epochs",), -1, "epochs: at least one epoch required"),  # was numpy's "negative dimensions"
        ],
    )
    def test_oversized_scenario_refused_before_allocation(self, tmp_path, capsys, monkeypatch, path, value, prefix):
        """The size check runs before make_scenario allocates the demand
        tensor; a stand-in that fails instead of allocating proves it."""
        import uavplan.scenario

        def no_allocation(*args, **kwargs):
            raise AssertionError("make_scenario reached")

        monkeypatch.setattr(uavplan.scenario, "make_scenario", no_allocation)
        doc = json.loads((DATA / "tiny-mixed.scenario").read_text())
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(doc))
        assert run("validate", bad) == 2
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("name", ["", "missing.scenario"])
    def test_unreadable_path_exit_2(self, tmp_path, capsys, name):
        """A directory (IsADirectoryError) or a missing file."""
        assert run("validate", tmp_path / name) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("uav", [[0, -1, 5.0]]),  # would overwrite the last location if it wrapped
            ("uav", [[0, 3, 5.0]]),
            ("uav", [[0, 1.5, 5.0]]),
            ("uav", [["0", 1, 5.0]]),
            ("uav", [[0, 1]]),
            ("uav", [[0, 1, float("nan")]]),
            ("sink", [[-1, 5.0]]),
            ("sink", [[1, float("nan")]]),
            ("sink", [[2, float("inf")]]),
            ("default_uav_mb", float("inf")),
            ("default_sink_mb", float("nan")),
            ("uav", [[0, 1, None]]),
            ("sink", [[1, "5"]]),
        ],
    )
    def test_bad_link_rows_exit_2(self, tmp_path, capsys, field, value):
        doc = json.loads((DATA / "tiny-mixed.scenario").read_text())
        doc["links"][field] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
        assert run("validate", bad) == 2
        assert capsys.readouterr().err.startswith("links")


    @pytest.mark.parametrize(
        "path, value, prefix",
        [
            (("demand", 0, 0), -1, "demand[0]: epoch"),  # would land on the last epoch if it wrapped
            (("demand", 0, 0), 4, "demand[0]: epoch"),
            (("demand", 0, 0), 1.5, "demand[0]: epoch"),  # would truncate to epoch 1
            (("demand", 0, 1), "rescue", "demand[0]: unknown mission"),
            (("demand", 0, 1), 2, "demand[0]: mission id"),
            (("demand", 1, 2), -1, "demand[1]: zone"),
            (("demand", 1, 2), 1, "demand[1]: zone"),
            (("demand", 1, 3), float("nan"), "demand[2,0,0]: must be finite"),
            (("demand", 1, 3), float("inf"), "demand[2,0,0]: must be finite"),
            (("zones", 0, "served_from", 1, "location"), 3, "zones[0].served_from: location id"),
            (("zones", 0, "served_from", 1, "location"), -1, "zones[0].served_from: location id"),
            (("zones", 0, "served_from", 0, "quality", "coverage"), float("nan"), "quality[1,0,0]: must be finite"),
            (("missions", 0, "mb_per_work"), float("inf"), "missions[0]: data per work unit must be finite"),
            (("locations", 1, "x"), float("inf"), "locations[1]: coordinates must be finite"),
            (("locations", 2, "y"), float("nan"), "locations[2]: coordinates must be finite"),
            (("uavs", "battery_capacity_wh"), float("nan"), "uavs[battery_capacity_wh]: must be finite"),
            (("uavs", "max_step_km"), float("inf"), "uavs[max_step_km]: must be finite"),
            (("payloads", 0, "weight_kg"), float("nan"), "payloads[0]: weight must be finite"),
            (("energy", "per_km_kg"), float("inf"), "energy[per_km_kg]: must be finite"),
            (("epoch_minutes",), float("nan"), "epoch_minutes: must be finite"),
            (("epochs",), float("inf"), "epochs inf is not an integer"),  # was int()'s OverflowError
            (("epochs",), 4.5, "epochs 4.5 is not an integer"),  # would truncate to 4
            (("horizon",), 1.5, "horizon 1.5 is not an integer"),
            (("uavs", "count"), 2.5, "uavs: count 2.5 is not an integer"),
            (("uavs", "count"), None, "uavs: count None is not an integer"),
            (("payloads", 1, "window", 0), 1.5, "payloads[1]: window epoch 1.5 is not an integer"),
            (("payloads", 1, "window"), [1], "payloads[1]: expected window"),
            (("payloads", 1, "deliver_to"), 1.5, "payloads[1]: deliver_to 1.5 is not an integer"),
            (("zones", 0, "served_from", 0, "location"), 1.5, "zones[0].served_from: location id 1.5 is not"),
            (("missions", 0, "requires", 0), 0.5, "missions[0]: requires payload id 0.5 is not"),
            (("demand", 0, 3), None, "demand[0]: value None is not a number"),  # was a TypeError, exit 1
            (("demand", 0, 3), "x", "demand[0]: value 'x' is not a number"),
            (("demand", 0, 3), "1.5", "demand[0]: value '1.5' is not a number"),
            (("locations", 1, "x"), None, "locations[1]: x None is not a number"),
            (("locations", 1, "depot"), "no", "locations[1]: depot 'no' is not true or false"),
            (("missions", 0, "name"), 5, "missions[0]: name 5 is not a string"),
            (("payloads", 0, "name"), 5, "payloads[0]: name 5 is not a string"),
            (("uavs", "count"), True, "uavs: count True is not an integer"),
            (("payloads", 0, "weight_kg"), True, "payloads[0]: weight_kg True is not a number"),
            (("demand", 0, 0), True, "demand[0]: epoch True is not an integer"),
            (("demand", 0, 3), True, "demand[0]: value True is not a number"),
            # wrong JSON shapes: each was a traceback (exit 1) or silently misread
            (("locations",), [], "locations: at least one location required"),  # was an IndexError
            (("locations", 0), None, "locations[0]: expected an object, got None"),
            (("zones",), 5, "zones: expected a list, got 5"),
            (("zones", 0, "served_from", 0), 0, "zones[0].served_from: expected an object, got 0"),
            (("zones", 0, "served_from"), {}, "zones[0].served_from: expected a list, got an object"),  # read as empty
            (("zones", 0, "served_from", 0, "quality"), [], "zones[0].served_from: quality: expected an object"),
            (("missions", 0, "requires"), "radio", "missions[0]: requires: expected a list, got 'radio'"),
            (("uavs",), None, "uavs: expected an object, got None"),
            (("links",), [], "links: expected an object, got a list"),
            (("links", "sink"), {}, "links.sink: expected a list, got an object"),  # read as empty
            (("energy",), 2.0, "energy: expected an object, got 2.0"),
            (("payloads", 0), 7, "payloads[0]: expected an object, got 7"),
            (("demand",), {}, "demand: expected a list, got an object"),  # read as empty
            # integers beyond the float range: float()'s OverflowError reached main
            (("locations", 1, "x"), 10**400, "locations[1]: x: 1000"),
            (("payloads", 0, "weight_kg"), 10**400, "payloads[0]: weight_kg: 1000"),
            (("demand", 0, 3), 10**400, "demand[0]: value 1000"),
        ],
    )
    def test_bad_rows_and_values_exit_2(self, tmp_path, capsys, path, value, prefix):
        doc = json.loads((DATA / "tiny-mixed.scenario").read_text())
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
        assert run("validate", bad) == 2
        assert capsys.readouterr().err.startswith(prefix)


class TestSolve:
    def test_heuristic_with_preset(self, sf_small_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert (
            run(
                "solve", "--scenario", sf_small_file, "--engine", "heuristic",
                "--preset", "coverage", "--out", plan_file,
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 <= summary["objective"] <= 1.0
        assert summary["feasible"] is True
        s = load_scenario(sf_small_file.read_text())
        plan = load_plan(plan_file.read_text(), s)
        assert check_feasibility(s, plan).ok
        assert (tmp_path / "plan.json.tours.json").exists()
        assert (tmp_path / "plan.json.summary.json").exists()

    def test_exact_on_tiny_mixed_matches_pinned_value(self, tmp_path, capsys):
        from test_exact import TINY_MIXED_OBJECTIVE

        scen = tmp_path / "tiny.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        assert run("solve", "--scenario", scen, "--engine", "exact", "--out", tmp_path / "p.json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["objective"] == pytest.approx(TINY_MIXED_OBJECTIVE, abs=1e-9)
        assert summary["proven_optimal"] is True

    def test_exact_counters_in_manifest_only(self, tmp_path, capsys):
        scen = tmp_path / "tiny.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        plan_file = tmp_path / "p.json"
        assert run("solve", "--scenario", scen, "--engine", "exact", "--out", plan_file) == 0
        printed = json.loads(capsys.readouterr().out)
        stats = json.loads((tmp_path / "p.json.manifest.json").read_text())["stats"]
        assert set(stats) == {"assignments_visited", "lp_solves", "simplex_iterations", "bound_prunes"}
        assert stats["lp_solves"] > 0 and stats["simplex_iterations"] > 0
        assert stats["lp_solves"] + stats["bound_prunes"] <= stats["assignments_visited"]
        assert stats["assignments_visited"] == printed["assignments_visited"]
        summary = json.loads((tmp_path / "p.json.summary.json").read_text())
        assert "stats" not in printed and "lp_solves" not in summary

    def test_heuristic_counters_in_manifest_only(self, sf_small_file, tmp_path, capsys):
        runs = []
        for name in ("a.json", "b.json"):
            plan_file = tmp_path / name
            assert run("solve", "--scenario", sf_small_file, "--engine", "heuristic", "--out", plan_file) == 0
            printed = json.loads(capsys.readouterr().out)
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            runs.append(manifest["stats"])
        stats = runs[0]
        assert set(stats) == {
            "phi1_calls", "precheck_rejected", "battery_rejected", "simulate_calls", "simulate_feasible", "tours"
        }
        assert stats == runs[1]
        assert stats["tours"] == printed["tours"] > 0
        assert 0 < stats["simulate_feasible"] <= stats["simulate_calls"]
        assert "stats" not in printed and "phi1_calls" not in printed

    @pytest.mark.parametrize(
        "engine, flag, value",
        [
            ("heuristic", "--alpha1", "nan"),
            ("heuristic", "--alpha2", "nan"),
            ("exact", "--time-budget", "nan"),
            ("exact", "--time-budget", "inf"),
        ],
    )
    def test_non_finite_knob_exit_2(self, tmp_path, capsys, engine, flag, value):
        """A NaN weight would reach the summary and manifest as a bare NaN,
        which is not JSON; a NaN budget would switch the budget off."""
        scen = tmp_path / "tiny.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        plan_file = tmp_path / "p.json"
        assert run("solve", "--scenario", scen, "--engine", engine, flag, value, "--out", plan_file) == 2
        assert "must be" in capsys.readouterr().err
        assert not plan_file.exists() and not (tmp_path / "p.json.manifest.json").exists()

    @pytest.mark.parametrize("engine", ["heuristic", "exact"])
    def test_fixed_equipment_without_relay_exit_2(self, tmp_path, capsys, engine):
        scen = tmp_path / "delivery.scenario"
        scen.write_text(serialize_scenario(tiny_delivery()))
        assert run("solve", "--scenario", scen, "--engine", engine, "--equipment", "fixed") == 2
        assert "fixed equipment mode needs a relay mission with its radio" in capsys.readouterr().err

    def test_exact_guard_refusal_exit_3(self, sf_small_file, tmp_path):
        assert run("solve", "--scenario", sf_small_file, "--engine", "exact", "--out", tmp_path / "p") == 3

    def test_simplex_size_cap_refusal_exit_3(self, tmp_path, monkeypatch, capsys):
        """tiny-mixed has service demand, so the exact engine solves inner LPs."""
        monkeypatch.setattr("uavplan.simplex.SIZE_CAP", 1)
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        assert run("solve", "--scenario", scen, "--engine", "exact", "--out", tmp_path / "p") == 3
        assert "cap" in capsys.readouterr().err


class TestLpRoundTrip:
    def test_export_matches_golden(self, tmp_path):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-delivery.scenario").read_text())
        out = tmp_path / "model.lp"
        assert run("export-lp", "--scenario", scen, "--out", out) == 0
        assert out.read_bytes() == (DATA / "tiny-delivery.lp").read_bytes()

    def test_import_externally_solved_model(self, tmp_path, capsys):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-delivery.scenario").read_text())
        model = build_milp(tiny_delivery())
        status, val, sol = solve_model_exhaustive(model)
        sol_file = tmp_path / "model.sol"
        sol_file.write_text(solution_to_text(sol))
        out = tmp_path / "plan.json"
        assert run("import-solution", "--scenario", scen, "--solution", sol_file, "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["objective"] == pytest.approx(val, abs=1e-6)

    def test_import_nan_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-delivery.scenario").read_text())
        sol_file = tmp_path / "model.sol"
        sol_file.write_text("lam_0_0_0 nan\n")
        assert run("import-solution", "--scenario", scen, "--solution", sol_file, "--out", tmp_path / "p") == 2
        assert "lam_0_0_0" in capsys.readouterr().err

    def test_import_infeasible_plan_exit_2(self, tmp_path, capsys):
        """A solution that reads as a plan but breaks the scenario is refused,
        and neither a plan nor a manifest is written."""
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-delivery.scenario").read_text())
        _, _, sol = solve_model_exhaustive(build_milp(tiny_delivery()))
        sol.update({name: 0.0 for name in sol if name.startswith("om_")})  # the pack is never loaded
        sol_file = tmp_path / "model.sol"
        sol_file.write_text(solution_to_text(sol))
        assert run("import-solution", "--scenario", scen, "--solution", sol_file, "--out", tmp_path / "p") == 2
        assert "imported solution violates: ['DELIVERY']" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["model.sol", "t.scenario"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("lam_0_0_0 1\nlam_0_0_0 0\n", "line 2: variable lam_0_0_0 appears twice"),
            ("lam_0_0_0 abc\n", "line 1: value 'abc' for variable lam_0_0_0 is not a number"),
        ],
    )
    def test_import_unreadable_solution_exit_2(self, tmp_path, capsys, text, message):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-delivery.scenario").read_text())
        sol_file = tmp_path / "model.sol"
        sol_file.write_text(text)
        assert run("import-solution", "--scenario", scen, "--solution", sol_file, "--out", tmp_path / "p") == 2
        assert message in capsys.readouterr().err


class TestEvaluate:
    def test_reports_written(self, sf_small_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        run("solve", "--scenario", sf_small_file, "--out", plan_file)
        capsys.readouterr()
        assert run("evaluate", "--scenario", sf_small_file, "--plan", plan_file, "--out", tmp_path / "rep") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible"] is True
        viol = (tmp_path / "rep.violations.csv").read_text()
        assert viol.startswith("tag,indices,magnitude")
        assert (tmp_path / "rep.satisfaction.csv").exists()

    def test_infeasible_plan_is_data_not_an_error(self, sf_small_file, tmp_path, capsys):
        s = load_scenario(sf_small_file.read_text())
        from uavplan.evaluator import Plan, serialize_plan

        plan_file = tmp_path / "idle.json"
        plan_file.write_text(serialize_plan(Plan.idle(s)))  # deliveries unserved
        assert (
            run(
                "evaluate", "--scenario", sf_small_file, "--plan", plan_file,
                "--out", tmp_path / "rep", "--format", "json",
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible"] is False
        assert summary["violations"] >= 1
        doc = json.loads((tmp_path / "rep.violations.json").read_text())
        assert {v["tag"] for v in doc} == {"DELIVERY"}
        assert (tmp_path / "rep.satisfaction.json").exists()

    @pytest.mark.parametrize("location", [7, -1])
    def test_out_of_range_location_is_data(self, tmp_path, capsys, location):
        """Energy is priced on the sanitized locations, as every other check;
        -1 must not wrap to the last location."""
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        doc = json.loads(serialize_plan(Plan.idle(load_scenario(scen.read_text()))))
        doc["locations"][0][1] = location
        plan_file = tmp_path / "bad-loc.json"
        plan_file.write_text(json.dumps(doc))
        assert run("evaluate", "--scenario", scen, "--plan", plan_file) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible"] is False
        assert summary["energy_wh"] == 0.0  # parked at the depot, as the idle plan

    @pytest.mark.parametrize(
        "field, row",
        [
            ("payloads", [-1, 0, 0]),  # would flag the last UAV if it wrapped
            ("payloads", [0, 4, 0]),
            ("payloads", [0, 1]),
            ("payloads", 3),
            ("missions", [0, 1, 0, 0, float("nan")]),
            ("missions", [0, 1.5, 0, 0, 0.1]),
            ("relay", [0, 1, float("inf")]),
            ("relay", [0, 1, "x"]),
            ("transfers", [0, 2, 1, 1.0]),
            ("transfers", [0, -2, 1, 1.0]),
            ("transfers", [0, "omega", 1, float("-inf")]),
            ("relay", [0, 1, "0.5"]),  # float() would parse the text
            ("relay", [0, 1, True]),
            ("missions", [0, 1, 0, 0, True]),
            ("payloads", [True, 0, 0]),  # int() would read it as UAV 1
            ("payloads", ["0", 0, 0]),
            ("transfers", [0, "1", 1, 1.0]),
            ("relay", [0, 1, 10**400]),  # beyond the float range
        ],
    )
    def test_bad_plan_rows_exit_2(self, tmp_path, capsys, field, row):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        doc = json.loads(serialize_plan(Plan.idle(load_scenario(scen.read_text()))))
        doc[field] = [row]
        plan_file = tmp_path / "bad.json"
        plan_file.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
        assert run("evaluate", "--scenario", scen, "--plan", plan_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plan ")
        if isinstance(row, list) and any(isinstance(v, (str, bool)) and v != "omega" for v in row[:-1]):
            assert "is not an integer" in err  # not "is outside [0, D)"

    @pytest.mark.parametrize("location", ["0", True, None, [1], 0.5, float("nan")])
    def test_bad_locations_exit_2(self, tmp_path, capsys, location):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        doc = json.loads(serialize_plan(Plan.idle(load_scenario(scen.read_text()))))
        doc["locations"][0][1] = location
        plan_file = tmp_path / "bad-loc.json"
        plan_file.write_text(json.dumps(doc))
        assert run("evaluate", "--scenario", scen, "--plan", plan_file) == 2
        assert capsys.readouterr().err.startswith("error: plan locations are not integers")

    def test_missing_locations_named_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        doc = json.loads(serialize_plan(Plan.idle(load_scenario(scen.read_text()))))
        del doc["locations"]
        plan_file = tmp_path / "no-loc.json"
        plan_file.write_text(json.dumps(doc))
        assert run("evaluate", "--scenario", scen, "--plan", plan_file) == 2
        assert capsys.readouterr().err == "error: plan: missing required field 'locations'\n"


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_satisfaction_file_matches_pinned_digest(self, tmp_path, capsys, fmt):
        """generate, solve and evaluate --out on sf-large seed 1 with the
        save-time heuristic plan."""
        scen, plan_file = tmp_path / "s.scenario", tmp_path / "p.json"
        assert run("generate", "--preset", "sf-large", "--seed", 1, "--out", scen) == 0
        assert run("solve", "--scenario", scen, "--preset", "save-time", "--out", plan_file) == 0
        assert run("evaluate", "--scenario", scen, "--plan", plan_file, "--out", tmp_path / "r", "--format", fmt) == 0
        text = (tmp_path / f"r.satisfaction.{fmt}").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == SATISFACTION_DIGESTS[fmt]


# sha256 of the .satisfaction.json and .satisfaction.csv files above,
# computed before both were built from sigma.tolist() and the JSON written
# by json_text
SATISFACTION_DIGESTS = {
    "json": "4fadbc83f38c333b4216c5cfc8419ff50b510aec4c5fca6ff8782418ea82ebea",
    "csv": "6bdae03814f0be0993aa71cd10775b50795fc717653a8170fd8e1362a7f8b5b1",
}


class TestCompare:
    def test_single_run_single_row(self, sf_small_file, tmp_path):
        out = tmp_path / "cmp.csv"
        assert (
            run(
                "compare", "--scenario", sf_small_file, "--uav-counts", "3",
                "--runs", "heuristic:flexible:save-time", "--out", out,
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[0].startswith("run,engine,equipment,preset")

    def test_preset_sweep_save_time_minimizes_energy(self, sf_small_file, tmp_path):
        out = tmp_path / "cmp.csv"
        runs = "heuristic:save-time,heuristic:coverage,heuristic:monitoring"
        assert (
            run("compare", "--scenario", sf_small_file, "--uav-counts", "4", "--runs", runs, "--out", out)
            == 0
        )
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        energy_col = header.index("energy_charges")
        preset_col = header.index("preset")
        energy = {}
        for row in lines[1:]:
            cells = row.split(",")
            energy[cells[preset_col]] = float(cells[energy_col])
        assert energy["save-time"] == min(energy.values())

    def test_exact_sweep_rows_in_order_match_solve(self, tmp_path, capsys):
        counts, modes = (3, 2), ("flexible", "fixed")
        base = tmp_path / "ff.scenario"
        base.write_text(serialize_scenario(flex_fixed_scenario(1, 2)))
        out = tmp_path / "cmp.csv"
        runs = ",".join(f"exact:{m}" for m in modes)
        assert run("compare", "--scenario", base, "--uav-counts", "3,2", "--runs", runs, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [(r["run"], r["equipment"], r["uav_count"]) for r in rows] == [
            (f"run{ri}", m, str(c)) for ri, m in enumerate(modes) for c in counts
        ]
        capsys.readouterr()
        for r in rows:
            scen = tmp_path / f"ff{r['uav_count']}.scenario"
            scen.write_text(serialize_scenario(flex_fixed_scenario(1, int(r["uav_count"]))))
            assert run("solve", "--scenario", scen, "--engine", "exact", "--equipment", r["equipment"]) == 0
            assert r["objective"] == repr(json.loads(capsys.readouterr().out)["objective"])

    def test_engine_counters_per_row_in_manifest(self, tmp_path):
        """The manifest's stats list has one entry per CSV row, in row order,
        each equal to what solve writes for the same engine and UAV count."""
        import dataclasses

        scen = tmp_path / "tiny.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        out = tmp_path / "cmp.csv"
        assert run(
            "compare", "--scenario", scen, "--uav-counts", "2,1",
            "--runs", "exact,heuristic:save-time", "--out", out,
        ) == 0
        stats = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())["stats"]
        header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert len(stats) == len(rows) == 4
        base = load_scenario(scen.read_text())
        for row, got in zip(rows, stats):
            r = dict(zip(header, row))
            count_file = tmp_path / f"tiny{r['uav_count']}.scenario"
            count_file.write_text(serialize_scenario(
                dataclasses.replace(base, uav=dataclasses.replace(base.uav, count=int(r["uav_count"])))
            ))
            plan_file = tmp_path / f"{r['engine']}{r['uav_count']}.json"
            args = ["--engine", r["engine"]] + (["--preset", r["preset"]] if r["preset"] else [])
            assert run("solve", "--scenario", count_file, *args, "--out", plan_file) == 0
            assert got == json.loads(plan_file.with_name(plan_file.name + ".manifest.json").read_text())["stats"]
        assert "lp_solves" in stats[0] and "phi1_calls" in stats[2]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_fleet_without_uavs_exit_2_in_both_engines(self, tmp_path, capsys, count):
        """Each engine refuses the scenario as validate does; the exact
        engine failed before with numpy errors ("need at least one array to
        stack", "r must be non-negative")."""
        scen = tmp_path / "ff.scenario"
        scen.write_text(serialize_scenario(flex_fixed_scenario(1, 2)))
        for runs in ("exact:flexible", "exact:fixed", "heuristic"):
            out = tmp_path / "cmp.csv"
            assert run("compare", "--scenario", scen, f"--uav-counts={count}", "--runs", runs, "--out", out) == 2
            assert capsys.readouterr().err == (
                "error: scenario failed validation: uavs[count]: must be strictly positive\n"
            )
            assert not out.exists()

    def test_oversized_fleet_refused_before_allocation(self, tmp_path, capsys, monkeypatch):
        """--uav-counts meets the loader's size cap; it bypassed it before.
        A stand-in engine that fails instead of allocating proves the check
        comes first."""

        def no_allocation(*args, **kwargs):
            raise AssertionError("an engine was reached")

        monkeypatch.setattr("uavplan.cli._checked_solve", no_allocation)
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        out = tmp_path / "cmp.csv"
        out.write_text("stale\n")
        for runs in ("exact", "heuristic"):
            assert run(
                "compare", "--scenario", scen, "--uav-counts", f"2,{10**9}", "--runs", runs, "--out", out
            ) == 2
            assert capsys.readouterr().err == (
                "error: scenario too large: a plan (uavs x epochs x (missions x zones + uavs + payloads + 3)) "
                "would exceed 100000000 cells\n"
            )
            assert not out.exists()

    def test_guard_refusal_exit_3_removes_stale_out(self, tmp_path):
        scen = tmp_path / "t.scenario"
        scen.write_text((DATA / "tiny-mixed.scenario").read_text())
        out = tmp_path / "cmp.csv"
        out.write_text("stale\n")
        assert (
            run(
                "compare", "--scenario", scen, "--uav-counts", "2", "--runs", "exact",
                "--out", out, "--size-guard", 1,
            )
            == 3
        )
        assert not out.exists()


    def test_infeasible_engine_plan_exit_4_like_solve(self, sf_small_file, tmp_path, monkeypatch, capsys):
        """An engine plan the evaluator rejects is an internal fault in both
        commands, and compare removes its stale --out."""
        from uavplan.evaluator import Violation, ViolationReport

        monkeypatch.setattr(
            "uavplan.cli.check_feasibility", lambda s, p: ViolationReport([Violation("TRAVEL", (0, 1), 1.0)])
        )
        out = tmp_path / "cmp.csv"
        out.write_text("stale\n")
        assert run("solve", "--scenario", sf_small_file, "--preset", "save-time") == 4
        assert run(
            "compare", "--scenario", sf_small_file, "--uav-counts", "3",
            "--runs", "heuristic:save-time", "--out", out,
        ) == 4
        assert not out.exists()
        assert capsys.readouterr().err.count("infeasible plan: ['TRAVEL']") == 2


def test_rerun_reproduces_outputs_byte_identically(sf_small_file, tmp_path):
    first, second = tmp_path / "r1", tmp_path / "r2"
    first.mkdir()
    second.mkdir()
    for root in (first, second):
        run("solve", "--scenario", sf_small_file, "--preset", "coverage", "--out", root / "plan.json")
        run("export-lp", "--scenario", sf_small_file, "--out", root / "model.lp")
    for name in ("plan.json", "plan.json.summary.json", "plan.json.tours.json", "model.lp"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
