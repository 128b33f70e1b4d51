"""Command-line entry point.

Commands: generate, validate, solve, export-lp, import-solution, evaluate,
compare.  Every command that writes files also writes a run manifest next to
its first output; outputs themselves are deterministic, while timing lives in
the manifest only.

Exit codes: 0 success, 2 bad input or validation failure, 3 guard or limit
refusal, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .evaluator import (
    check_feasibility,
    load_plan,
    plan_metrics,
    satisfaction,
    serialize_plan,
)
from .exact import EnumerationLimits, GuardError, solve_exact
from .heuristic import PRESETS as HEURISTIC_PRESETS
from .heuristic import HeuristicConfig, InsertionError, insertion_solve
from .milp import build_milp, export_lp, import_solution, parse_solution
from .scenario import (
    Scenario,
    ScenarioError,
    check_tensor_cells,
    fixed_equipment,
    json_text,
    load_scenario,
    serialize_scenario,
)
from .simplex import SizeCapError
from .synth import PRESETS as SCENARIO_PRESETS
from .synth import Dims, GenerationError, generate_preset, generate_synthetic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a .tmp file, which is removed if the
    replace fails (path a directory, say)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


def _write_manifest(
    first_out: str, command: str, config: dict, outputs: list[str], wall: float, seed=None, stats=None
):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": outputs,
        "wall_time_s": wall,
        "version": __version__,
    }
    if stats is not None:
        manifest["stats"] = stats
    _write_atomic(first_out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _read_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return load_scenario(fh.read())


def _with_uav_count(s: Scenario, count: int) -> Scenario:
    check_tensor_cells(count, s.epochs, s.num_missions, s.num_zones, s.num_payloads)
    return dataclasses.replace(s, uav=dataclasses.replace(s.uav, count=count))


def _parse_run(spec: str):
    parts = spec.split(":")
    engine = parts[0]
    if engine not in ("heuristic", "exact"):
        raise ValueError(f"unknown engine {engine!r} in run {spec!r}")
    equipment = "flexible"
    preset = None
    for part in parts[1:]:
        if part in ("flexible", "fixed"):
            equipment = part
        elif part in HEURISTIC_PRESETS:
            preset = part
        else:
            raise ValueError(f"unknown run component {part!r} in {spec!r}")
    return engine, equipment, preset


def _heuristic_cfg(args) -> HeuristicConfig:
    if getattr(args, "preset", None):
        return HEURISTIC_PRESETS[args.preset]()
    return HeuristicConfig(alpha1=args.alpha1, alpha2=args.alpha2)


def _solve_one(s: Scenario, engine: str, equipment: str, cfg: HeuristicConfig, limits: EnumerationLimits):
    """Run one engine on one scenario; returns (plan, info dict, tours or
    None, engine counters or None).  info goes into the solve summary, the
    counters into the manifest only."""
    groups = fixed_equipment(s) if equipment == "fixed" else None
    if engine == "exact":
        res = solve_exact(s, limits, equipment_groups=groups)
        if not res.feasible or res.plan is None:
            raise ValueError("no feasible plan exists for this instance")
        info = {
            "engine": "exact",
            "proven_optimal": res.proven_optimal,
            "assignments_visited": res.assignments_visited,
        }
        stats = {
            "assignments_visited": res.assignments_visited,
            "lp_solves": res.lp_solves,
            "simplex_iterations": res.simplex_iterations,
            "bound_prunes": res.bound_prunes,
        }
        return res.plan, info, None, stats
    stats: dict = {}
    tours, plan = insertion_solve(s, cfg, equipment_groups=groups, stats=stats)
    info = {
        "engine": "heuristic",
        "alpha1": cfg.alpha1,
        "alpha2": cfg.alpha2,
        "tours": len(tours),
    }
    return plan, info, tours, stats


def _checked_solve(s: Scenario, engine: str, equipment: str, cfg: HeuristicConfig, limits: EnumerationLimits):
    """_solve_one, then check_feasibility: an engine that returns an
    infeasible plan has failed an internal assertion (exit 4)."""
    plan, info, tours, stats = _solve_one(s, engine, equipment, cfg, limits)
    report = check_feasibility(s, plan)
    if not report.ok:
        raise AssertionError(f"engine produced an infeasible plan: {sorted(report.tags)}")
    return plan, info, tours, stats


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(
        max_assignments=args.max_assignments,
        time_budget_s=args.time_budget,
        size_guard=args.size_guard,
    )


def _tours_json(s: Scenario, tours) -> str:
    docs = []
    for t in tours:
        docs.append(
            {
                "uav": t.uav,
                "depart": t.depart,
                "return": t.return_epoch,
                "stops": [
                    {"payload": st.payload, "location": st.location, "service_epoch": se}
                    for st, se in zip(t.stops, t.service_epochs)
                ],
                "legs": [list(leg.seq) for leg in t.legs],
                "energy_wh": t.energy_wh,
            }
        )
    return json.dumps(docs, indent=2) + "\n"


# -- commands ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    t0 = time.monotonic()
    if args.preset:
        s = generate_preset(args.preset, args.seed, uavs=args.uavs)
    else:
        if not args.dims:
            print("either --preset or --dims is required", file=sys.stderr)
            return EXIT_INPUT
        try:
            L, Z, D, P, K = (int(x) for x in args.dims.split(","))
        except ValueError:  # a field that is no integer, or not five fields
            raise ValueError(f"--dims {args.dims!r}: expected five integers L,Z,D,P,K") from None
        if args.uavs is not None:
            D = args.uavs
        s = generate_synthetic(args.seed, Dims(L, Z, D, P, K))
    text = serialize_scenario(s)
    _write_atomic(args.out, text)
    _write_manifest(
        args.out,
        "generate",
        {"preset": args.preset, "dims": args.dims, "uavs": args.uavs},
        [args.out],
        time.monotonic() - t0,
        seed=args.seed,
    )
    print(json.dumps({"out": args.out, "locations": s.num_locations, "deliveries": len(s.deliverable_ids)}))
    return EXIT_OK


def cmd_validate(args) -> int:
    with open(args.scenario) as fh:
        text = fh.read()
    try:
        load_scenario(text)
        issues = []
    except ScenarioError as exc:
        issues = [str(i) for i in exc.issues] or [str(exc)]
    if args.json:
        print(json.dumps({"valid": not issues, "issues": issues}))
    else:
        for line in issues:
            print(line, file=sys.stderr)
        if not issues:
            print("ok")
    return EXIT_INPUT if issues else EXIT_OK


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    s = _read_scenario(args.scenario)
    cfg = _heuristic_cfg(args)
    plan, info, tours, stats = _checked_solve(s, args.engine, args.equipment, cfg, _limits(args))
    metrics = plan_metrics(s, plan)
    summary = {**info, **metrics, "feasible": True}
    outputs = []
    if args.out:
        _write_atomic(args.out, serialize_plan(plan))
        outputs.append(args.out)
        _write_atomic(args.out + ".summary.json", json.dumps(summary, indent=2) + "\n")
        outputs.append(args.out + ".summary.json")
        if tours is not None:
            _write_atomic(args.out + ".tours.json", _tours_json(s, tours))
            outputs.append(args.out + ".tours.json")
    wall = time.monotonic() - t0
    if outputs:
        _write_manifest(
            outputs[0],
            "solve",
            {
                "scenario": args.scenario,
                "engine": args.engine,
                "equipment": args.equipment,
                "preset": args.preset,
                "alpha1": cfg.alpha1,
                "alpha2": cfg.alpha2,
            },
            outputs,
            wall,
            stats=stats,
        )
    print(json.dumps({**summary, "wall_time_s": wall}))
    return EXIT_OK


def cmd_export_lp(args) -> int:
    t0 = time.monotonic()
    s = _read_scenario(args.scenario)
    model = build_milp(s)
    _write_atomic(args.out, export_lp(model))
    _write_manifest(
        args.out, "export-lp", {"scenario": args.scenario}, [args.out], time.monotonic() - t0
    )
    print(json.dumps({"out": args.out, "variables": len(model.variables), "constraints": len(model.constraints)}))
    return EXIT_OK


def cmd_import_solution(args) -> int:
    t0 = time.monotonic()
    s = _read_scenario(args.scenario)
    model = build_milp(s)
    with open(args.solution) as fh:
        sol = parse_solution(fh.read())
    plan = import_solution(model, sol)
    report = check_feasibility(s, plan, tol=1e-4)
    if not report.ok:
        print(f"imported solution violates: {sorted(report.tags)}", file=sys.stderr)
        return EXIT_INPUT
    _write_atomic(args.out, serialize_plan(plan))
    _write_manifest(
        args.out,
        "import-solution",
        {"scenario": args.scenario, "solution": args.solution},
        [args.out],
        time.monotonic() - t0,
    )
    rep = satisfaction(s, plan)
    print(json.dumps({"out": args.out, "objective": rep.objective}))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.monotonic()
    s = _read_scenario(args.scenario)
    with open(args.plan) as fh:
        plan = load_plan(fh.read(), s)
    report = check_feasibility(s, plan)
    rep = satisfaction(s, plan)
    metrics = plan_metrics(s, plan)
    summary = {"feasible": report.ok, "violations": len(report), **metrics}
    outputs = []
    if args.out:
        if args.format == "csv":
            _write_atomic(args.out + ".violations.csv", report.to_csv())
            _write_atomic(args.out + ".satisfaction.csv", rep.to_csv(s))
            outputs = [args.out + ".violations.csv", args.out + ".satisfaction.csv"]
        else:
            _write_atomic(args.out + ".violations.json", report.to_json())
            sigma_doc = {
                "sigma_bar": {m.name: float(rep.sigma_bar[m.id]) for m in s.missions},
                "sigma": rep.to_rows(s),
            }
            _write_atomic(args.out + ".satisfaction.json", json_text(sigma_doc))
            outputs = [args.out + ".violations.json", args.out + ".satisfaction.json"]
        _write_atomic(args.out + ".summary.json", json.dumps(summary, indent=2) + "\n")
        outputs.append(args.out + ".summary.json")
        _write_manifest(
            outputs[0],
            "evaluate",
            {"scenario": args.scenario, "plan": args.plan, "format": args.format},
            outputs,
            time.monotonic() - t0,
        )
    print(json.dumps(summary))
    return EXIT_OK


def cmd_compare(args) -> int:
    """One row per (run, UAV count), run-major, each job solved and checked
    in turn; a failed job removes a stale --out before the error surfaces.
    The manifest's stats list holds each row's engine counters, in row order."""
    t0 = time.monotonic()
    s = _read_scenario(args.scenario)
    counts = [int(x) for x in args.uav_counts.split(",")]
    runs = [_parse_run(r) for r in args.runs.split(",")]
    limits = _limits(args)
    service_names = [s.missions[m].name for m in s.service_mission_ids]

    header = ["run", "engine", "equipment", "preset", "alpha1", "alpha2", "uav_count", "objective"]
    header += [f"sigma_bar_{n}" for n in service_names]
    header += [f"served_{n}" for n in service_names]
    summary_cols = {  # CSV column -> plan_metrics key
        "payload_fraction": "mean_payload_fraction",
        "equipment_kg": "mean_equipment_kg",
        "delivery_kg": "mean_delivery_kg",
        "energy_charges": "battery_charges",
    }
    header += list(summary_cols)
    lines = [",".join(header)]
    row_stats = []
    try:
        fleets = [_with_uav_count(s, count) for count in counts]  # refuses an oversized count before any run
        for ri, (engine, equipment, preset) in enumerate(runs):
            cfg = HEURISTIC_PRESETS[preset]() if preset else HeuristicConfig()
            for count, sc in zip(counts, fleets):
                plan, _, _, stats = _checked_solve(sc, engine, equipment, cfg, limits)
                row_stats.append(stats)
                metrics = plan_metrics(sc, plan)
                values = [cfg.alpha1, cfg.alpha2, count, metrics["objective"]]
                values += [metrics["sigma_bar"][n] for n in service_names]
                values += [metrics["served_fraction"][n] for n in service_names]
                values += [metrics[key] for key in summary_cols.values()]
                lines.append(",".join([f"run{ri}", engine, equipment, preset or "", *map(repr, values)]))
    except Exception:
        if os.path.exists(args.out):
            os.remove(args.out)
        raise
    _write_atomic(args.out, "\n".join(lines) + "\n")
    _write_manifest(
        args.out,
        "compare",
        {"scenario": args.scenario, "uav_counts": args.uav_counts, "runs": args.runs},
        [args.out],
        time.monotonic() - t0,
        stats=row_stats,
    )
    print(json.dumps({"out": args.out, "rows": len(lines) - 1}))
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uavplan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    default_limits, default_cfg = EnumerationLimits(), HeuristicConfig()
    limits = argparse.ArgumentParser(add_help=False)  # exact-engine limits
    limits.add_argument("--max-assignments", type=int, default=default_limits.max_assignments)
    limits.add_argument("--time-budget", type=float, default=default_limits.time_budget_s)
    limits.add_argument("--size-guard", type=int, default=default_limits.size_guard)

    g = sub.add_parser("generate", help="synthesize a scenario file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--preset", choices=sorted(SCENARIO_PRESETS))
    g.add_argument("--dims", help="locations,zones,uavs,deliveries,epochs")
    g.add_argument("--uavs", type=int, help="override the UAV count")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", help="check a scenario file")
    v.add_argument("scenario")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    so = sub.add_parser("solve", parents=[limits], help="compute a plan")
    so.add_argument("--scenario", required=True)
    so.add_argument("--engine", choices=["heuristic", "exact"], default="heuristic")
    so.add_argument("--preset", choices=sorted(HEURISTIC_PRESETS))
    so.add_argument("--alpha1", type=float, default=default_cfg.alpha1)
    so.add_argument("--alpha2", type=float, default=default_cfg.alpha2)
    so.add_argument("--equipment", choices=["flexible", "fixed"], default="flexible")
    so.add_argument("--out")
    so.set_defaults(func=cmd_solve)

    ex = sub.add_parser("export-lp", help="write the MILP as an LP file")
    ex.add_argument("--scenario", required=True)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_export_lp)

    im = sub.add_parser("import-solution", help="turn solver output into a plan")
    im.add_argument("--scenario", required=True)
    im.add_argument("--solution", required=True)
    im.add_argument("--out", required=True)
    im.set_defaults(func=cmd_import_solution)

    ev = sub.add_parser("evaluate", help="check and score a plan file")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--plan", required=True)
    ev.add_argument("--out")
    ev.add_argument("--format", choices=["csv", "json"], default="csv")
    ev.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("compare", parents=[limits], help="sweep engines/equipment over UAV counts")
    cp.add_argument("--scenario", required=True)
    cp.add_argument("--uav-counts", required=True)
    cp.add_argument("--runs", required=True, help="e.g. exact:flexible,exact:fixed")
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:  # a ValueError, but a limit refusal
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (
        ScenarioError,
        GenerationError,
        InsertionError,
        ValueError,
        KeyError,
        OSError,  # unreadable or unwritable paths: missing, a directory, no permission
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
