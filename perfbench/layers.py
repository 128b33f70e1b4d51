"""Layer boundaries the traced run wraps, and the per-layer metrics derived
from them.

Each target is (name, module, attribute, leaf, observe).  Leaves are called
thousands of times per operation and are only aggregated; the rest are kept
as spans.  `observe(counters, args, result)` counts work at the boundary.
A target missing at the measured commit makes every metric that needs it
read as absent instead of failing the run.
"""

from __future__ import annotations

import numpy as np


def _routes(c, args, graph):
    c["heuristic.routes"] += sum(len(r) for r in graph.routes.values())


def _feasible(c, args, schedule):
    c["heuristic.simulate_feasible"] += schedule is not None


def _tours(c, args, plan):
    c["heuristic.tours"] += len(args[1])


def _configs(c, args, configs):
    c["exact.configs"] += len(configs)


def _visited(c, args, result):
    c["exact.assignments_visited"] += result.assignments_visited


def _lp_shape(c, args, result):
    """Rows and dense-tableau columns of simplex_solve(c, a_ub, b_ub, a_eq, b_eq):
    structural + one slack per inequality + one artificial per equality or
    negative right-hand side + the right-hand side column."""
    n = np.asarray(args[0]).size
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b).ravel() for b in (args[2], args[4]))
    c["simplex.rows"] += b_ub.size + b_eq.size
    c["simplex.cols"] += n + b_ub.size + int((b_ub < 0).sum()) + b_eq.size + 1


def _tableau(c, args, result):
    c["simplex.tableau_bytes"] += args[0].nbytes


def _model(c, args, model):
    c["milp.variables"] += len(model.variables)
    c["milp.rows"] += len(model.constraints)


def _lp_bytes(c, args, text):
    c["milp.lp_bytes"] += len(text.encode())


def _violations(c, args, report):
    c["evaluator.violations"] += len(report)


SETUP_TARGETS = [
    ("synth.generate_preset", "uavplan.synth", "generate_preset", False, None),
]

PASS_TARGETS = [
    ("scenario.is_depot_arr", "uavplan.scenario", "Scenario.is_depot_arr", True, None),
    ("scenario.payload_weights", "uavplan.scenario", "Scenario.payload_weights", True, None),
    ("scenario.validate", "uavplan.scenario", "validate", False, None),
    ("scenario.load_scenario", "uavplan.scenario", "load_scenario", False, None),
    ("paths.all_pairs_shortest", "uavplan.paths", "all_pairs_shortest", False, None),
    ("paths.reconstruct", "uavplan.paths", "reconstruct", True, None),
    ("heuristic.build_route_graph", "uavplan.heuristic", "build_route_graph", False, _routes),
    ("heuristic.phi1", "uavplan.heuristic", "phi1", True, None),
    ("heuristic._simulate", "uavplan.heuristic", "_simulate", True, _feasible),
    ("heuristic._project_residual", "uavplan.heuristic", "_project_residual", True, None),
    ("heuristic._allocate_service", "uavplan.heuristic", "_allocate_service", True, None),
    ("heuristic._assign_tours", "uavplan.heuristic", "_assign_tours", False, None),
    ("heuristic.tours_to_plan", "uavplan.heuristic", "tours_to_plan", False, _tours),
    ("exact.solve_exact", "uavplan.exact", "solve_exact", False, _visited),
    ("exact.enumerate_configs", "uavplan.exact", "enumerate_configs", False, _configs),
    ("exact._objective_upper_bound", "uavplan.exact", "_objective_upper_bound", True, None),
    ("exact._inner_lp", "uavplan.exact", "_inner_lp", True, None),
    ("exact.simplex_solve", "uavplan.exact", "simplex_solve", True, _lp_shape),
    ("simplex._pivot", "uavplan.simplex", "_pivot", True, _tableau),
    ("milp.build_milp", "uavplan.milp", "build_milp", False, _model),
    ("milp.export_lp", "uavplan.milp", "export_lp", False, _lp_bytes),
    ("milp.parse_lp", "uavplan.milp", "parse_lp", False, None),
    ("milp.parse_solution", "uavplan.milp", "parse_solution", False, None),
    ("milp.import_solution", "uavplan.milp", "import_solution", False, None),
    ("evaluator.load_plan", "uavplan.evaluator", "load_plan", False, None),
    ("evaluator.check_feasibility", "uavplan.evaluator", "check_feasibility", False, _violations),
    ("evaluator.satisfaction", "uavplan.evaluator", "satisfaction", False, None),
    ("evaluator.plan_metrics", "uavplan.evaluator", "plan_metrics", False, None),
]


def _ratio(num, den):
    return num / den if den else 0.0


DERIVED = ("scenario.is_depot_arr", "scenario.payload_weights")

# (metric, unit, targets it needs, value from the tracer).  Every "_s" metric
# is self time: the wrapped calls' durations minus their wrapped callees.
PER_LAYER = [
    ("synth.generate_s", "s", ["synth.generate_preset"], lambda t: t.self_s("synth.generate_preset")),
    ("scenario.derived_calls", "count", DERIVED, lambda t: t.calls(*DERIVED)),
    ("scenario.derived_s", "s", DERIVED, lambda t: t.self_s(*DERIVED)),
    ("scenario.validate_s", "s", ["scenario.validate"], lambda t: t.self_s("scenario.validate")),
    ("scenario.load_s", "s", ["scenario.load_scenario"], lambda t: t.self_s("scenario.load_scenario")),
    ("paths.shortest_s", "s", ["paths.all_pairs_shortest", "paths.reconstruct"],
     lambda t: t.self_s("paths.all_pairs_shortest", "paths.reconstruct")),
    ("heuristic.route_graph_s", "s", ["heuristic.build_route_graph"],
     lambda t: t.self_s("heuristic.build_route_graph")),
    ("heuristic.routes", "count", ["heuristic.build_route_graph"], lambda t: t.counters["heuristic.routes"]),
    ("heuristic.phi1_calls", "count", ["heuristic.phi1"], lambda t: t.calls("heuristic.phi1")),
    ("heuristic.phi1_s", "s", ["heuristic.phi1"], lambda t: t.self_s("heuristic.phi1")),
    ("heuristic.simulate_calls", "count", ["heuristic._simulate"], lambda t: t.calls("heuristic._simulate")),
    ("heuristic.simulate_s", "s", ["heuristic._simulate"], lambda t: t.self_s("heuristic._simulate")),
    ("heuristic.simulate_feasible_ratio", "ratio", ["heuristic._simulate"],
     lambda t: _ratio(t.counters["heuristic.simulate_feasible"], t.calls("heuristic._simulate"))),
    ("heuristic.project_residual_s", "s", ["heuristic._project_residual"],
     lambda t: t.self_s("heuristic._project_residual")),
    ("heuristic.allocate_service_calls", "count", ["heuristic._allocate_service"],
     lambda t: t.calls("heuristic._allocate_service")),
    ("heuristic.allocate_service_s", "s", ["heuristic._allocate_service"],
     lambda t: t.self_s("heuristic._allocate_service")),
    ("heuristic.assign_s", "s", ["heuristic._assign_tours"], lambda t: t.self_s("heuristic._assign_tours")),
    ("heuristic.materialize_s", "s", ["heuristic.tours_to_plan"], lambda t: t.self_s("heuristic.tours_to_plan")),
    ("heuristic.tours", "count", ["heuristic.tours_to_plan"], lambda t: t.counters["heuristic.tours"]),
    ("heuristic.insertion_errors", "count", [], lambda t: t.counters["refused"]),
    ("exact.enumerate_s", "s", ["exact.enumerate_configs"], lambda t: t.self_s("exact.enumerate_configs")),
    ("exact.configs", "count", ["exact.enumerate_configs"], lambda t: t.counters["exact.configs"]),
    ("exact.assignments_visited", "count", ["exact.solve_exact"],
     lambda t: t.counters["exact.assignments_visited"]),
    ("exact.bound_calls", "count", ["exact._objective_upper_bound"],
     lambda t: t.calls("exact._objective_upper_bound")),
    ("exact.bound_s", "s", ["exact._objective_upper_bound"], lambda t: t.self_s("exact._objective_upper_bound")),
    ("exact.bound_prune_ratio", "ratio", ["exact._objective_upper_bound", "exact._inner_lp"],
     lambda t: 1.0 - t.calls("exact._inner_lp") / t.calls("exact._objective_upper_bound")
     if t.calls("exact._objective_upper_bound") else 0.0),
    ("exact.inner_lp_calls", "count", ["exact._inner_lp"], lambda t: t.calls("exact._inner_lp")),
    ("exact.inner_lp_build_s", "s", ["exact._inner_lp"], lambda t: t.self_s("exact._inner_lp")),
    ("simplex.solves", "count", ["exact.simplex_solve"], lambda t: t.calls("exact.simplex_solve")),
    ("simplex.s", "s", ["exact.simplex_solve", "simplex._pivot"],
     lambda t: t.self_s("exact.simplex_solve", "simplex._pivot")),
    ("simplex.pivots", "count", ["simplex._pivot"], lambda t: t.calls("simplex._pivot")),
    ("simplex.pivots_per_solve", "count", ["exact.simplex_solve", "simplex._pivot"],
     lambda t: _ratio(t.calls("simplex._pivot"), t.calls("exact.simplex_solve"))),
    ("simplex.rows_mean", "count", ["exact.simplex_solve"],
     lambda t: _ratio(t.counters["simplex.rows"], t.calls("exact.simplex_solve"))),
    ("simplex.cols_mean", "count", ["exact.simplex_solve"],
     lambda t: _ratio(t.counters["simplex.cols"], t.calls("exact.simplex_solve"))),
    ("simplex.tableau_bytes_per_pivot", "bytes", ["simplex._pivot"],
     lambda t: _ratio(t.counters["simplex.tableau_bytes"], t.calls("simplex._pivot"))),
    ("milp.build_s", "s", ["milp.build_milp"], lambda t: t.self_s("milp.build_milp")),
    ("milp.export_s", "s", ["milp.export_lp"], lambda t: t.self_s("milp.export_lp")),
    ("milp.parse_s", "s", ["milp.parse_lp"], lambda t: t.self_s("milp.parse_lp")),
    ("milp.import_s", "s", ["milp.parse_solution", "milp.import_solution"],
     lambda t: t.self_s("milp.parse_solution", "milp.import_solution")),
    ("milp.variables", "count", ["milp.build_milp"],
     lambda t: _ratio(t.counters["milp.variables"], t.calls("milp.build_milp"))),
    ("milp.rows", "count", ["milp.build_milp"],
     lambda t: _ratio(t.counters["milp.rows"], t.calls("milp.build_milp"))),
    ("milp.lp_bytes", "bytes", ["milp.export_lp"],
     lambda t: _ratio(t.counters["milp.lp_bytes"], t.calls("milp.export_lp"))),
    ("evaluator.check_s", "s", ["evaluator.check_feasibility"], lambda t: t.self_s("evaluator.check_feasibility")),
    ("evaluator.satisfaction_s", "s", ["evaluator.satisfaction"], lambda t: t.self_s("evaluator.satisfaction")),
    ("evaluator.metrics_s", "s", ["evaluator.plan_metrics"], lambda t: t.self_s("evaluator.plan_metrics")),
    ("evaluator.load_plan_s", "s", ["evaluator.load_plan"], lambda t: t.self_s("evaluator.load_plan")),
    ("evaluator.violations", "count", ["evaluator.check_feasibility"],
     lambda t: t.counters["evaluator.violations"]),
    ("trace.unattributed_s", "s", [], lambda t: t.self_s("op")),
]


def layer_metrics(tracer) -> dict[str, tuple[float | None, str]]:
    """Metric name -> (value, unit); value None when a needed target is absent."""
    absent = set(tracer.absent)
    return {
        name: (None if absent.intersection(needs) else float(value(tracer)), unit)
        for name, unit, needs, value in PER_LAYER
    }
