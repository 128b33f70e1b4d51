"""The three workloads: inputs per seed, one user operation, its output check.

A workload's pool of cases is built by `setup(seed, lap)`, which times each
instance's generation through `lap`.  `op(case, lap)` is one closed-loop
request and times only the program's calls through `lap`;
`check(case, out)` validates an output in full and `fingerprint(out)`
summarizes it, so a repeated case must reproduce its checked output exactly.
Program functions are always reached through their module attributes, which
is where the traced run rebinds them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import inputs
from uavplan import evaluator, exact, heuristic, milp, scenario, synth


@dataclass
class Case:
    label: str
    data: object


@dataclass
class Verdict:
    status: str  # ok | refused | failed
    quality: float | None = None  # mean served fraction of the plans produced
    detail: str = ""


@dataclass(frozen=True)
class Refused:
    """The program declined with a documented error instead of a plan."""

    reason: str


def _fail(detail: str) -> Verdict:
    return Verdict("failed", None, detail)


def _plan_digest(h, plan) -> None:
    for f in inputs.PLAN_FIELDS:
        h.update(np.ascontiguousarray(getattr(plan, f)).tobytes())


def _mean_served(metrics: dict) -> float:
    """Mean over service missions of plan_metrics' served fraction."""
    return float(np.mean(list(metrics["served_fraction"].values())))


class HeuristicSfLarge:
    """insertion_solve on full-size sf-large instances under the three presets."""

    name = "heuristic-sflarge"
    at_reference_speed = True  # see run.REF_S
    instances = 40

    def setup(self, seed, lap):
        cases = []
        for i in range(self.instances):
            inst = seed + i
            with lap("setup"):
                s = synth.generate_preset("sf-large", inst)
            for preset in ("save-time", "coverage", "monitoring"):
                cases.append(Case(f"sf-large/{inst}/{preset}", (s, heuristic.PRESETS[preset]())))
        return cases

    def op(self, case, lap):
        s, cfg = case.data
        with lap("solve_s"):
            try:
                return heuristic.insertion_solve(s, cfg)
            except heuristic.InsertionError as exc:
                return Refused(f"InsertionError {sorted(exc.payloads)}")

    def check(self, case, out):
        if isinstance(out, Refused):
            return Verdict("refused", None, out.reason)
        s, _ = case.data
        tours, plan = out
        report = evaluator.check_feasibility(s, plan)
        if not report.ok:
            return _fail(f"{case.label}: plan violates {sorted(report.tags)}")
        carried = sorted(st.payload for t in tours for st in t.stops)
        if carried != sorted(s.deliverable_ids):
            return _fail(f"{case.label}: tours carry {carried}, deliverables are {s.deliverable_ids}")
        return Verdict("ok", _mean_served(evaluator.plan_metrics(s, plan)))

    def fingerprint(self, out):
        if isinstance(out, Refused):
            return out.reason
        h = hashlib.sha256()
        _plan_digest(h, out[1])
        return h.hexdigest()


class ExactFlexFixed:
    """solve_exact on the flexible-vs-fixed instance, both equipment modes."""

    name = "exact-flexfixed"
    # Plain wall time: no reference task tracked solve_exact's slowdowns on a
    # busy host (interpreter loops, small or tableau-sized numpy pivots and
    # text all moved about twice as much, or out of step), and dividing by
    # any of them made the runs spread more than wall time did.
    at_reference_speed = False
    instances = 3
    uavs = 4

    def setup(self, seed, lap):
        cases = []
        for i in range(self.instances):
            inst = seed + i
            with lap("setup"):
                s = inputs.flex_fixed_scenario(inst, self.uavs)
                issues = scenario.validate(s)
                groups = inputs.fixed_split(s)
            if issues:
                raise ValueError(f"generated flex-fixed instance {inst} is invalid: {issues}")
            cases.append(Case(f"flex-fixed/{inst}/D{self.uavs}", (s, groups)))
        return cases

    def op(self, case, lap):
        s, groups = case.data
        with lap("flexible_s"):
            flexible = exact.solve_exact(s)
        with lap("fixed_s"):
            fixed = exact.solve_exact(s, equipment_groups=groups)
        return flexible, fixed

    def check(self, case, out):
        s, _ = case.data
        served = []
        for mode, res in zip(("flexible", "fixed"), out):
            if not (res.feasible and res.proven_optimal and res.plan is not None):
                return _fail(f"{case.label} {mode}: feasible={res.feasible} proven={res.proven_optimal}")
            report = evaluator.check_feasibility(s, res.plan)
            if not report.ok:
                return _fail(f"{case.label} {mode}: plan violates {sorted(report.tags)}")
            objective = evaluator.satisfaction(s, res.plan).objective
            if abs(objective - res.objective) > 1e-9:
                return _fail(f"{case.label} {mode}: evaluator objective {objective!r} != {res.objective!r}")
            served.append(_mean_served(evaluator.plan_metrics(s, res.plan)))
        if out[0].objective < out[1].objective - 1e-9:
            return _fail(f"{case.label}: flexible {out[0].objective!r} below fixed {out[1].objective!r}")
        return Verdict("ok", float(np.mean(served)))

    def fingerprint(self, out):
        h = hashlib.sha256()
        for res in out:
            h.update(repr((res.objective, res.assignments_visited, res.proven_optimal)).encode())
            _plan_digest(h, res.plan)
        return h.hexdigest()


@dataclass
class AuditInputs:
    small: object  # sf-small Scenario for export-lp / import-solution
    small_plan: object  # heuristic plan the solution text encodes
    solution: str
    evaluations: list  # (scenario text, label, plan text, expected tags)


class ModelAudit:
    """The analyst path: export-lp, LP re-read, import-solution, evaluate."""

    name = "model-audit"
    at_reference_speed = True
    instances = 2
    plans_per_instance = 4

    def setup(self, seed, lap):
        cfg = heuristic.HeuristicConfig.save_time()
        cases = []
        for i in range(self.instances):
            inst = seed + i
            with lap("setup"):
                small = synth.generate_preset("sf-small", inst)
                _, small_plan = heuristic.insertion_solve(small, cfg)
                solution = inputs.solution_text(small, small_plan)
            evaluations = []
            for j in range(self.plans_per_instance):
                inst_large = seed + i * self.plans_per_instance + j
                with lap("setup"):
                    big = synth.generate_preset("sf-large", inst_large)
                    _, plan = heuristic.insertion_solve(big, cfg)
                    text = scenario.serialize_scenario(big)
                    variants = [("source", plan, set())] + inputs.perturbed_plans(big, plan)
                    for label, p, tags in variants:
                        evaluations.append((text, f"sf-large/{inst_large}/{label}", evaluator.serialize_plan(p), tags))
            data = AuditInputs(small, small_plan, solution, evaluations)
            cases.append(Case(f"sf-small/{inst}", data))
        return cases

    def op(self, case, lap):
        d = case.data
        with lap("export_lp_s"):
            model = milp.build_milp(d.small)
            lp_text = milp.export_lp(model)
        with lap("parse_lp_s"):
            reparsed = milp.parse_lp(lp_text)
        with lap("import_solution_s"):
            imported = milp.import_solution(model, milp.parse_solution(d.solution))
        evaluated = []
        for scenario_text, _, plan_text, _ in d.evaluations:
            with lap("evaluate_s"):
                s = scenario.load_scenario(scenario_text)
                plan = evaluator.load_plan(plan_text, s)
                report = evaluator.check_feasibility(s, plan)
                objective = evaluator.satisfaction(s, plan).objective
                metrics = evaluator.plan_metrics(s, plan)
            evaluated.append((report, objective, metrics))
        return model, lp_text, reparsed, imported, evaluated

    def check(self, case, out):
        d = case.data
        model, _, reparsed, imported, evaluated = out
        if not milp.models_equal(reparsed, model):
            return _fail(f"{case.label}: parse_lp(export_lp(m)) differs from m")
        if not inputs.plans_equal(imported, d.small_plan):
            return _fail(f"{case.label}: imported plan differs from the plan the solution encodes")
        report = evaluator.check_feasibility(d.small, imported, tol=1e-4)
        if not report.ok:
            return _fail(f"{case.label}: imported plan violates {sorted(report.tags)}")
        served = []
        for (_, label, _, expected), (report, objective, metrics) in zip(d.evaluations, evaluated):
            if report.tags != expected:
                return _fail(f"{label}: violations {sorted(report.tags)}, expected {sorted(expected)}")
            if not np.isfinite(objective) or objective != metrics["objective"]:
                return _fail(f"{label}: objective {objective!r} vs plan_metrics {metrics['objective']!r}")
            if not expected:
                served.append(_mean_served(metrics))
        return Verdict("ok", float(np.mean(served)))

    def fingerprint(self, out):
        _, lp_text, _, imported, evaluated = out
        h = hashlib.sha256(lp_text.encode())
        _plan_digest(h, imported)
        for report, objective, metrics in evaluated:
            h.update(repr((report.to_rows(), objective, sorted(metrics["served_fraction"].items()))).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (HeuristicSfLarge(), ExactFlexFixed(), ModelAudit())}
