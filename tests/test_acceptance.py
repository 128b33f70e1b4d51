"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import json
import pathlib
import time
import zlib

import numpy as np
import pytest

from uavplan.bruteforce import solve_model_exhaustive
from uavplan.cli import main
from uavplan.evaluator import TAGS, check_feasibility, plan_metrics, satisfaction
from uavplan.exact import EnumerationLimits, solve_exact
from uavplan.heuristic import PRESETS, insertion_solve
from uavplan.milp import build_milp, export_lp, import_solution, parse_lp
from uavplan.scenario import UavSpec, fixed_equipment, max_range
from uavplan.synth import generate_preset

from mutations import MUTATORS
from scenarios import flex_fixed_scenario, mutation_base_plan, mutation_scenario, tiny_instance

DATA = pathlib.Path(__file__).parent / "data"

# plans produced by the engines across the suite, checked again in criterion 7
PRODUCED_PLANS: list[tuple] = []


def _passline(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_range_reproduction():
    spec = UavSpec(4.0, 2.5, 200.0, 2.0, 1)
    value = max_range(spec, 3.125)
    assert value == pytest.approx(9.846, abs=5e-4)
    assert abs(value - 9.8) / 9.8 <= 0.005
    _passline(1, f"max range {value:.3f} km matches the 9.8 km reference within 0.5%")


def test_criterion_2_oracle_triangle():
    t0 = time.monotonic()
    for seed in range(1, 21):
        s = tiny_instance(seed)
        exact = solve_exact(s, EnumerationLimits())
        assert exact.feasible and exact.proven_optimal, f"seed {seed}: exact failed"
        # (a) exact plan feasible per the evaluator
        assert check_feasibility(s, exact.plan).ok, f"seed {seed}: exact plan infeasible"
        # (b) exported-model optimum equals the exact objective, and the
        # oracle's solution imports as a feasible plan reaching its value
        built = build_milp(s)
        status, val, sol = solve_model_exhaustive(parse_lp(export_lp(built)), time_budget_s=120)
        assert status == "optimal", f"seed {seed}: brute force hit its budget"
        assert val == pytest.approx(exact.objective, abs=1e-6), f"seed {seed}"
        oracle_plan = import_solution(built, sol)
        assert check_feasibility(s, oracle_plan).ok, f"seed {seed}: oracle plan infeasible"
        assert satisfaction(s, oracle_plan).objective == pytest.approx(val, abs=1e-6), f"seed {seed}"
        # (c) heuristic feasible and never better than exact
        tours, plan = insertion_solve(s)
        assert check_feasibility(s, plan).ok, f"seed {seed}: heuristic plan infeasible"
        heur = satisfaction(s, plan).objective
        assert heur <= exact.objective + 1e-9, f"seed {seed}"
        PRODUCED_PLANS.append((s, exact.plan))
        PRODUCED_PLANS.append((s, plan))
    wall = time.monotonic() - t0
    assert wall < 300, f"triangle took {wall:.0f}s, budget is 5 minutes"
    _passline(2, f"20/20 tiny instances agree across exact, MILP export and heuristic in {wall:.0f}s")


def test_criterion_3_evaluator_sensitivity():
    t0 = time.monotonic()
    s = mutation_scenario()
    base = mutation_base_plan(s)
    assert check_feasibility(s, base).ok
    assert list(MUTATORS) == list(TAGS), "every canonical tag needs its mutator"
    for tag, mutate in MUTATORS.items():
        for i in range(100):
            rng = np.random.default_rng(zlib.crc32(f"{tag}:{i}".encode()))
            report = check_feasibility(s, mutate(s, base, rng))
            assert report.tags == {tag}, f"{tag} mutation {i} produced {sorted(report.tags)}"
            assert len(report) >= 1
    wall = time.monotonic() - t0
    assert wall < 60
    _passline(3, f"{len(MUTATORS)} tags x 100 surgical mutations each detected exactly, in {wall:.0f}s")


def test_criterion_4_flexible_vs_fixed_trend():
    t0 = time.monotonic()
    for seed in (1, 2, 3, 4, 5):
        strict_somewhere = False
        for uavs in (2, 4, 6):
            s = flex_fixed_scenario(seed, uavs)
            flexible = solve_exact(s, EnumerationLimits())
            groups = fixed_equipment(s)
            fixed = solve_exact(s, EnumerationLimits(), equipment_groups=groups)
            assert flexible.feasible and fixed.feasible
            assert flexible.proven_optimal and fixed.proven_optimal
            assert flexible.objective >= fixed.objective - 1e-9, f"seed {seed} D={uavs}"
            if flexible.objective > fixed.objective + 1e-9:
                strict_somewhere = True
            PRODUCED_PLANS.append((s, flexible.plan))
            PRODUCED_PLANS.append((s, fixed.plan))
        assert strict_somewhere, f"seed {seed}: flexibility never strictly helped"
    wall = time.monotonic() - t0
    assert wall < 1800
    _passline(4, f"flexible >= fixed on all 15 pairs, strictly within each scenario, in {wall:.0f}s")


def test_criterion_5_preset_energy_trend():
    t0 = time.monotonic()
    energy = {name: [] for name in PRESETS}
    objective = {name: [] for name in PRESETS}
    for seed in (11, 12, 13, 14, 15):
        s = generate_preset("sf-large", seed=seed)
        for name, cfg in PRESETS.items():
            tours, plan = insertion_solve(s, cfg())
            assert check_feasibility(s, plan).ok
            m = plan_metrics(s, plan)
            energy[name].append(m["battery_charges"])
            objective[name].append(m["objective"])
            PRODUCED_PLANS.append((s, plan))
    mean = {name: float(np.mean(vals)) for name, vals in energy.items()}
    assert mean["save-time"] < mean["coverage"] - 1e-9
    assert mean["save-time"] < mean["monitoring"] - 1e-9
    for name in ("coverage", "monitoring"):
        for a, b in zip(objective[name], objective["save-time"]):
            assert a >= b - 1e-12
    wall = time.monotonic() - t0
    assert wall < 300
    _passline(
        5,
        "save-time mean energy {:.2f} strictly below coverage {:.2f} and monitoring {:.2f}".format(
            mean["save-time"], mean["coverage"], mean["monitoring"]
        ),
    )


def test_criterion_6_heuristic_scale():
    s = generate_preset("sf-large", seed=1)
    assert (s.num_locations, s.num_zones, len(s.deliverable_ids), s.epochs) == (40, 50, 20, 20)
    t0 = time.monotonic()
    tours, plan = insertion_solve(s)
    wall = time.monotonic() - t0
    assert wall < 10.0, f"solve took {wall:.1f}s"
    assert check_feasibility(s, plan).ok
    served = {st.payload for t in tours for st in t.stops}
    assert served == set(s.deliverable_ids)
    PRODUCED_PLANS.append((s, plan))
    _passline(6, f"full-size scenario solved in {wall:.2f}s serving all 20 deliveries")


def test_criterion_7_flow_conservation_and_sigma_bounds():
    assert PRODUCED_PLANS, "engine plans should have accumulated"
    for s, plan in PRODUCED_PLANS:
        lam = plan.locations
        q_at = s.quality[lam]
        rates = np.array([m.mb_per_work for m in s.missions])
        gen = ((plan.mission_alloc * q_at) * rates[None, None, :, None]).sum(axis=(0, 2, 3))
        sunk = plan.sink_transfers.sum(axis=0)
        assert np.all(np.abs(gen - sunk) <= 1e-6)
        sigma = satisfaction(s, plan).sigma
        assert np.all(sigma >= -1e-9) and np.all(sigma <= 1 + 1e-9)
    _passline(7, f"per-epoch traffic balance and sigma bounds hold on {len(PRODUCED_PLANS)} plans")


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for round_dir in ("one", "two"):
        root = tmp_path / round_dir
        root.mkdir()
        assert main(["generate", "--preset", "sf-small", "--seed", "1", "--out", str(root / "s.scenario")]) == 0
        assert (
            main(
                [
                    "solve", "--scenario", str(root / "s.scenario"), "--preset", "monitoring",
                    "--out", str(root / "plan.json"),
                ]
            )
            == 0
        )
        assert main(["export-lp", "--scenario", str(DATA / "tiny-mixed.scenario"), "--out", str(root / "m.lp")]) == 0
        assert (
            main(
                [
                    "evaluate", "--scenario", str(root / "s.scenario"), "--plan", str(root / "plan.json"),
                    "--out", str(root / "rep"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "compare", "--scenario", str(root / "s.scenario"), "--uav-counts", "3,4",
                    "--runs", "heuristic:save-time,heuristic:coverage", "--out", str(root / "sweep.csv"),
                ]
            )
            == 0
        )
        outputs.append(root)
    for name in (
        "s.scenario",
        "plan.json",
        "plan.json.summary.json",
        "plan.json.tours.json",
        "m.lp",
        "rep.violations.csv",
        "rep.satisfaction.csv",
        "rep.summary.json",
        "sweep.csv",
    ):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    _passline(8, "all commands reproduce byte-identical outputs on rerun")
