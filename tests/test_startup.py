"""Start-up cost: what importing the package loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special")


def test_cli_import_loads_no_quadrature_optimization_or_special_functions():
    probe = (
        "import sys, bettibound.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == []


def test_no_module_imports_scipy_integrate():
    pattern = re.compile(r"scipy\s*\.\s*integrate|from\s+scipy\s+import[^\n]*\bintegrate\b")
    offenders = [
        path.name
        for path in sorted((SRC / "bettibound").glob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []
