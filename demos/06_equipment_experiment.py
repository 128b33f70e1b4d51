"""Flexible versus fixed equipment assignment, solved to the optimum.

Flexible lets the optimizer pick each drone's equipment; fixed welds one
third of the fleet to radio-only, one third to camera-only and the rest to
both. Flexibility never hurts and usually strictly helps once the fleet is
big enough for the split to bind.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from scenarios import flex_fixed_scenario

from uavplan import EnumerationLimits, fixed_equipment, solve_exact

print(f"{'UAVs':>4} {'flexible':>9} {'fixed':>9} {'gap':>7}")
for uavs in (2, 4, 6):
    scenario = flex_fixed_scenario(seed=1, uavs=uavs)
    flexible = solve_exact(scenario, EnumerationLimits())
    groups = fixed_equipment(scenario)
    fixed = solve_exact(scenario, EnumerationLimits(), equipment_groups=groups)
    gap = flexible.objective - fixed.objective
    print(f"{uavs:>4} {flexible.objective:>9.4f} {fixed.objective:>9.4f} {gap:>7.4f}")
