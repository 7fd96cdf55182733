"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

* genus2 at resolution 6 on a 1x1 grid and verify-abstract with 5 trials
  run untraced once and traced twice; every metric BENCHMARK.json lists
  must be emitted with its unit, every call must pass its output check,
  and the exact counts must repeat between the two traced runs;
* the output check must reject a report whose bound, Betti number or
  record list is wrong;
* in a directory holding only BENCHMARK.json and bench/, run.py must
  exit nonzero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys

import run

# Metrics that are counts, not times: they must repeat exactly.
# report.bytes is not one of them: the report's wall-time field is
# printed with as many digits as it needs.
EXACT_METRICS = ("measure.eigh_n3", "measure.eigensolve_reuse")


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec, failures):
    for workload in run.SELFTEST_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            results = [last_json(bench(run.ROOT, workload, trace)) for _ in range(1 + trace)]
            for result in results:
                got = {name: metric["unit"] for name, metric in result["metrics"].items()}
                if got != want:
                    failures.append(f"{workload} trace={trace}: metrics differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
                if not result["correct"] or result["failed"]:
                    failures.append(f"{workload} trace={trace}: {result}")
            if trace:
                counts = [{name: m["value"] for name, m in r["metrics"].items()
                           if name.endswith("_calls") or name in EXACT_METRICS} for r in results]
                if counts[0] != counts[1]:
                    failures.append(f"{workload}: counts differ between traced runs: {counts}")


def check_output_check(failures):
    """The output check rejects wrong bounds, Betti numbers and records."""
    reference = json.loads((run.BENCH / "reference.json").read_text())
    cases = {
        "genus2-tiny": run.spawn("plain", run.SELFTEST_WORKLOADS["genus2-tiny"].argv),
        "abstract-tiny": run.spawn("plain", [*run.SELFTEST_WORKLOADS["abstract-tiny"].argv,
                                             "--seed", "7"]),
    }
    for name, sample in cases.items():
        workload = run.SELFTEST_WORKLOADS[name]
        if run.check_report(name, workload, 7, sample, reference):
            failures.append(f"{name}: correct output rejected")
        doc = json.loads(sample["report"])
        broken = []
        if workload.b1 is None:
            wrong = copy.deepcopy(doc)
            wrong["records"].pop()
            broken.append(wrong)
        else:
            for key, factor in (("bound_main", 1 + 1e-6), ("bound_schatten", 1 - 1e-6)):
                wrong = copy.deepcopy(doc)
                wrong["reports"][0][key] *= factor
                broken.append(wrong)
            wrong = copy.deepcopy(doc)
            wrong["reports"][0]["b1_oracle"] += 1
            broken.append(wrong)
        for wrong in broken:
            bad = dict(sample, report=json.dumps(wrong))
            if not run.check_report(name, workload, 7, bad, reference):
                failures.append(f"{name}: a wrong report passed the output check")


def check_refuses_without_sources(failures):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "genus2-schatten", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_metrics(spec, failures)
    check_output_check(failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
