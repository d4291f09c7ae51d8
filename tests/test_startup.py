"""Start-up guard: importing the command line loads no module its commands skip.

Every ``fusionkit`` command pays for ``import fusionkit.cli`` and
``build_parser()``.  ``dataclasses`` (which loads ``inspect``), ``typing``
and ``tempfile`` cost several milliseconds of that, so none may be among the
modules the import newly loads.  Modules the interpreter loaded before it
(site hooks, for example) do not count.  The same check runs without
pytest:

    python tests/test_startup.py
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("dataclasses", "inspect", "typing", "tempfile")
CHECK = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "import fusionkit.cli; fusionkit.cli.build_parser(); "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


def unwanted_imports() -> list:
    """The UNWANTED modules that a fresh isolated interpreter newly loads."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", CHECK, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return [m for m in UNWANTED if m in out]


def test_cli_import_loads_no_unwanted_module():
    assert unwanted_imports() == []


if __name__ == "__main__":
    found = unwanted_imports()
    print(f"{sys.version.split()[0]}: newly loaded {found or 'none'} of {list(UNWANTED)}")
    sys.exit(1 if found else 0)
