"""Write bench/reference.json from the current sources.

    python3 bench/make_reference.py

The reference holds, for each geometric workload, bound_main and
bound_schatten at every grid point, and for each abstract workload the
record names (their values depend on the seed).  Regenerate it only in
a change that means to alter a bound, and state the change in CHANGES.md.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    os.environ.update(run.PINNED_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    from bettibound import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp) / "report.json"
        for name, workload in {**run.WORKLOADS, **run.SELFTEST_WORKLOADS}.items():
            seed = ["--seed", str(run.DEFAULT_SEED)] if workload.seeded else []
            if cli.main([*workload.argv, *seed, "--quiet", "--out", str(out)]) != 0:
                raise SystemExit(f"{name} failed; no reference written")
            doc = json.loads(out.read_text())
            if workload.b1 is None:
                reference[name] = {"records": [r["name"] for r in doc["records"]]}
            else:
                keys = ("rho0", "t0", "bound_main", "bound_schatten")
                reference[name] = {"points": [{k: p[k] for k in keys} for p in doc["reports"]]}
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
