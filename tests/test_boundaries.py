"""Import boundaries between the package's modules, read from the source.

The exact engine and the exported-model search must stay independent paths
to the same optimum (acceptance criterion 2): exact.py builds its inner LPs
from the scenario, never from the exported model, and bruteforce.py sees only
the parsed model and the simplex.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uavplan"


def imported_modules(name: str) -> set[str]:
    """Package modules the source of uavplan/<name>.py imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif node.module and node.module.split(".")[0] == "uavplan":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, or from uavplan import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "uavplan" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("exact", {"milp", "bruteforce"}),
        ("bruteforce", {"exact", "heuristic"}),
    ],
)
def test_oracle_paths_stay_independent(module, forbidden):
    assert not imported_modules(module) & forbidden


def test_reader_sees_relative_and_absolute_imports():
    assert {"milp", "simplex"} <= imported_modules("bruteforce")
    assert {"evaluator", "scenario", "simplex"} <= imported_modules("exact")
