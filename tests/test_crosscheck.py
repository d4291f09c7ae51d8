import ast
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).parent


def _package_imports(module: str) -> set:
    """Names of the fusionkit modules that a package module imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "fusionkit":
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fusionkit" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("module", ["fusion", "orbits", "weyl"])
def test_routes_import_only_partitions(module):
    assert _package_imports(module) == {"partitions"}


def test_crosscheck_imports_two_routes():
    assert _package_imports("crosscheck") == {"fusion", "orbits", "partitions"}
