"""Golden reports: fixed CLI runs must reproduce the checked-in JSON bytes.

Each case runs ``bettibound.cli.main`` with ``--quiet --out``; the
report's ``wall_time_s`` is scrubbed and the rest is compared byte for
byte with ``tests/golden/<case>.json``.  The cases run in one child
interpreter with BLAS pinned to one thread, because a threaded BLAS sums
in a different order and moves the last bits.  On a mismatch the failure
lists every differing field with its largest relative difference.

Regenerate the files (and print the same difference table against the
previous ones) with

    python3 tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CASES = {
    "verify-abstract": ("verify-abstract", "--trials", "20", "--seed", "42"),
    "flat-torus": (
        "betti-bound", "--builtin", "flat-torus", "--resolution", "8",
        "--rho0", "0.5,1", "--t0", "1,2",
    ),
    "sphere": (
        "betti-bound", "--builtin", "sphere", "--resolution", "2",
        "--rho0", "0.5,2", "--t0", "1,3",
    ),
    "torus-rev": ("betti-bound", "--builtin", "torus-rev", "--rho0", "0.5", "--t0", "1"),
    "genus2": ("betti-bound", "--builtin", "genus2", "--rho0", "0.2,1", "--t0", "0.5,2"),
    "bumpy-sphere": (
        "betti-bound", "--builtin", "bumpy-sphere", "--resolution", "2", "--no-schatten",
        "--rho0", "0.25,2", "--t0", "0.5,4",
    ),
    "mesh-info": ("mesh-info", "--builtin", "genus2"),
}

_WALL_TIME = re.compile(r'"wall_time_s": [^,}]+')


def scrubbed_report(argv) -> str:
    """The JSON report of one CLI run, with the wall time replaced by null."""
    from bettibound.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        main([*argv, "--quiet", "--out", str(out)])
        text = out.read_text()
    return _WALL_TIME.sub('"wall_time_s": null', text)


def pinned_reports() -> dict:
    """Case -> scrubbed report, from one child interpreter on one BLAS thread."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, "--reports"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def _leaves(value, path=""):
    """(field, leaf) pairs; list items are labelled by their record kind or '*'."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            label = "*"
            if isinstance(item, dict) and isinstance(item.get("name"), str):
                label = item["name"].split("[")[0]
            yield from _leaves(item, f"{path}[{label}]")
    else:
        yield path, value


def field_differences(old: str, new: str) -> dict:
    """Field -> (count of differing values, largest relative difference).

    The relative difference of two numbers a, b is |a - b| / max(|a|, |b|);
    None marks a field whose differing values are not both numbers.  A field
    that occurs fewer or more times in the new report is marked "removed" or
    "added" with the change of its count, and the rest is compared value by
    value; a report whose remaining fields moved is a single "<structure>"
    entry.
    """
    old_leaves = list(_leaves(json.loads(old)))
    new_leaves = list(_leaves(json.loads(new)))
    old_count = Counter(p for p, _ in old_leaves)
    new_count = Counter(p for p, _ in new_leaves)
    table = {}
    for path in [*old_count, *(new_count - old_count)]:
        change = new_count[path] - old_count[path]
        if change:
            table[path] = (abs(change), "added" if change > 0 else "removed")
    old_leaves = [(p, v) for p, v in old_leaves if p not in table]
    new_leaves = [(p, v) for p, v in new_leaves if p not in table]
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        return {"<structure>": (1, None)}
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if a == b and type(a) is type(b):
            continue
        count, worst = table.get(path, (0, 0.0))
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        rel = abs(a - b) / max(abs(a), abs(b)) if numeric else None
        worst = None if worst is None or rel is None else max(worst, rel)
        table[path] = (count + 1, worst)
    return table


def format_differences(case: str, table: dict) -> str:
    def shown(worst):
        if worst is None:
            return "non-numeric"
        return worst if isinstance(worst, str) else f"{worst:.1e}"

    return "\n".join(
        f"| {case} | `{path}` | {count} | {shown(worst)} |"
        for path, (count, worst) in table.items()
    )


@pytest.fixture(scope="module")
def reports():
    return pinned_reports()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(reports, case):
    expected = (GOLDEN / f"{case}.json").read_text()
    got = reports[case]
    if got != expected:
        table = field_differences(expected, got)
        pytest.fail(
            f"report of {' '.join(CASES[case])} differs from tests/golden/{case}.json:\n"
            "| case | field | values | max rel. diff |\n"
            + format_differences(case, table),
            pytrace=False,
        )


def regenerate() -> None:
    """Rewrite every golden file; print the difference table against the old ones."""
    GOLDEN.mkdir(exist_ok=True)
    print("| case | field | values | max rel. diff |\n|---|---|---|---|")
    for case, new in pinned_reports().items():
        path = GOLDEN / f"{case}.json"
        if path.exists() and path.read_text() != new:
            print(format_differences(case, field_differences(path.read_text(), new)))
        path.write_text(new)


if __name__ == "__main__":
    if sys.argv[1:] == ["--reports"]:
        reports = {case: scrubbed_report(argv) for case, argv in CASES.items()}
        print(json.dumps(reports))
    else:
        regenerate()
