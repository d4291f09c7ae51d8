import ast
from pathlib import Path

import pytest

import fusionkit

PACKAGE = Path(fusionkit.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"


def _package_imports(path: Path) -> set:
    """Names of the fusionkit modules that the source file at path imports.

    A bare ``import fusionkit`` counts as the name "fusionkit".
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
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
                if parts[0] == "fusionkit":
                    found.add(parts[1] if len(parts) > 1 else parts[0])
    return found


@pytest.mark.parametrize("module", ["fusion", "orbits", "weyl"])
def test_routes_import_only_partitions(module):
    assert _package_imports(PACKAGE / f"{module}.py") == {"partitions"}


def test_crosscheck_imports_two_routes():
    imports = _package_imports(PACKAGE / "crosscheck.py")
    assert imports == {"fusion", "orbits", "partitions"}


def test_oracles_import_nothing_from_fusionkit():
    assert _package_imports(ORACLES) == set()


def test_import_walk_sees_every_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import fusionkit\n"
        "import fusionkit.weyl\n"
        "from fusionkit import fusion\n"
        "from fusionkit.orbits import trim\n",
        encoding="utf-8",
    )
    assert _package_imports(source) == {"fusionkit", "weyl", "fusion", "orbits"}
