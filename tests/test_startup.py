"""Start-up cost: what importing the package loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special")


def _loaded(module: str, candidates) -> list[str]:
    """The ``candidates`` a fresh interpreter has loaded after importing ``module``."""
    probe = (
        f"import sys, {module}; "
        f"print(' '.join(m for m in {tuple(candidates)!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_cli_import_loads_no_quadrature_optimization_or_special_functions():
    assert _loaded("bettibound.cli", HEAVY) == []


def test_package_import_loads_neither_numpy_nor_scipy():
    # The package namespace holds only the version: callers import each
    # name from the module that defines it.
    assert _loaded("bettibound", ("numpy", "scipy")) == []


def test_cli_import_loads_no_configparser():
    # No setting is read from a file, and nothing else the CLI imports
    # loads it.
    assert _loaded("bettibound.cli", ("configparser",)) == []


def test_no_module_imports_scipy_integrate():
    pattern = re.compile(r"scipy\s*\.\s*integrate|from\s+scipy\s+import[^\n]*\bintegrate\b")
    offenders = [
        path.name
        for path in sorted((SRC / "bettibound").glob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []
