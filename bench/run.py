"""Benchmark of the bettibound CLI, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload genus2-schatten --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each measured CLI call runs in its own child interpreter (bench/child.py),
one at a time, with BLAS pinned to one thread.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced calls and reports the per-layer metrics of the traced ones.
Every time is scaled to the reference machine's speed by a calibration
kernel timed around each child (see CALIBRATION_REFERENCE_S).
Every call's JSON report is checked (exit status, every record passing,
Betti number, bounds against bench/reference.json, identical reports
within a run).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the
environment and every sample goes to ``.bench_out/BENCH_<workload>.json``.
See bench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SOURCE = ROOT / "src" / "bettibound"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Import-only children started before each measured call.  Set-up time is
# the median over these probes, spread through the run like the calls.
SETUP_PROBES_PER_STEP = 2
CHILD_TIMEOUT_S = 120
DEFAULT_SEED = 42
# The reference machine is a shared VM whose single-thread speed drifts by
# up to a factor of two between periods of tens of seconds, and it exposes
# no hardware counters to measure around that.  Every time is therefore
# scaled by the machine's speed while the child that produced it ran, from
# a fixed calibration kernel timed before and after each child:
#     reported = measured * CALIBRATION_REFERENCE_S / calibration time.
# The constant is the kernel's median time on the reference machine, so a
# reported time is in seconds at that speed.
CALIBRATION_REFERENCE_S = 0.17
# Relative tolerance of the bounds against bench/reference.json; the
# soundness slack of the program, so last-bit changes pass and real
# changes of a bound do not.
BOUND_RTOL = 1e-9
BOUND_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    argv: tuple
    seeded: bool = False
    b1: int | None = None
    # Distinct operators a certificate needs at least one eigensolve for:
    # L0, L1, the comparison operator and one L1 + W per rho0.  None means
    # unknown, and the traced run counts distinct eigensolver inputs instead.
    min_operators: int | None = None


def _betti(builtin, resolution, rho0, t0, schatten=True):
    argv = ("betti-bound", "--builtin", builtin, "--resolution", str(resolution),
            "--rho0", rho0, "--t0", t0)
    return argv if schatten else argv + ("--no-schatten",)


WORKLOADS = {
    "genus2-schatten": Workload(_betti("genus2", 12, "0.2,0.5,1", "0.5,1,2"), b1=4, min_operators=6),
    "bumpy-main": Workload(
        _betti("bumpy-sphere", 3, "0.25,0.5,1,1.5,2", "0.25,0.5,1,2,4", schatten=False),
        b1=0,
        min_operators=3,
    ),
    "abstract-suites": Workload(("verify-abstract", "--trials", "200"), seeded=True),
}
# Tiny sizes for bench/selftest.py; not part of BENCHMARK.json.
SELFTEST_WORKLOADS = {
    "genus2-tiny": Workload(_betti("genus2", 6, "1", "1"), b1=4, min_operators=4),
    "abstract-tiny": Workload(("verify-abstract", "--trials", "5"), seeded=True),
}

SUITES = (
    "birman_schwinger", "kernel_identity", "weyl", "hs_factorization", "duhamel",
    "semigroup_difference_bound", "22_integral", "domination", "dominated_difference",
    "truncation", "positive_parts", "prefactor",
)
# Layers whose self time is reported, as "<layer>_s" (cli.self as cli.self_s).
TIMED_LAYERS = (
    "mesh.build", "dec.build_dec", "dec.laplacian_matrix", "dec.laplacian1",
    "dec.harmonic_oracle", "dec.rank_oracle", "dec.comparison", "dec.other",
    "measure.eigh", "measure.eigvalsh", "measure.operator_init", "measure.from_spectrum",
    "measure.schatten", "measure.two_inf", "measure.other",
    "birman.semigroup_difference", "birman.bs_bound", "birman.other",
    "perturbation.as_operator", "perturbation.checks",
    "pipeline.prepare_surface", "pipeline.schatten", "pipeline.point", "pipeline.other",
    *(f"suites.{name}" for name in SUITES),
    "report.serialize", "cli.self",
)
COUNTED_LAYERS = (
    "dec.laplacian_matrix", "dec.laplacian1", "dec.comparison", "measure.eigh",
    "measure.eigvalsh", "measure.operator_init", "measure.from_spectrum",
    "birman.semigroup_difference", "perturbation.as_operator",
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
    units.update({f"{layer}_calls": "count" for layer in COUNTED_LAYERS})
    units.update({
        "measure.eigh_n3": "count",
        "measure.eigensolve_reuse": "ratio",
        "pipeline.point_s.p50": "s",
        "pipeline.point_s.max": "s",
        "report.bytes": "bytes",
        "trace.overhead_s": "s",
    })
    return units


# -- children ----------------------------------------------------------------


class Calibration:
    """Fixed interpreter, allocation and LAPACK work; no bettibound code.

    The mix of an integer loop, small-object allocation and one dense
    eigensolve lets the kernel follow the speed of both the Python-heavy
    and the eigensolver-heavy workloads.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((600, 600))
        self._matrix = a + a.T
        self.samples = [self._time()]

    def _time(self) -> float:
        import numpy as np

        started = time.perf_counter()
        total = 0
        for i in range(800_000):
            total += i * i
        rows = [{"key": i, "text": str(i)} for i in range(100_000)]
        rows.sort(key=lambda row: row["text"])
        np.linalg.eigh(self._matrix)
        return time.perf_counter() - started

    def scale_next(self) -> float:
        """Time the kernel again; the scale for the child that ran since the last time."""
        self.samples.append(self._time())
        return CALIBRATION_REFERENCE_S / statistics.mean(self.samples[-2:])


def spawn(mode: str, cli_args=()) -> dict:
    """Run bench/child.py once; its own measurements plus the report it wrote."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / "child.json"
    report_path = OUT / "report.json"
    for path in (result_path, report_path):
        path.unlink(missing_ok=True)
    args = list(cli_args)
    if mode != "setup":
        args += ["--quiet", "--out", str(report_path)]
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), str(result_path), mode, *args]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    sample = json.loads(result_path.read_text())
    if mode != "setup" and report_path.exists():
        sample["report"] = report_path.read_text()
    return sample


# -- output check --------------------------------------------------------------


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= BOUND_RTOL * max(abs(got), abs(want)) + BOUND_ATOL


def check_report(name: str, workload: Workload, seed: int, sample: dict, reference: dict) -> list:
    """Problems with one call's output; empty when it is correct."""
    if "error" in sample:
        return [sample["error"]]
    problems = []
    if sample["exit"] != 0:
        problems.append(f"exit status {sample['exit']}")
    if "report" not in sample:
        return problems + ["no report written"]
    doc = json.loads(sample["report"])
    failing = [r["name"] for r in doc["records"] if not r["pass"]]
    if failing or not doc["summary"]["pass"]:
        problems.append(f"failing records: {failing}")
    ref = reference[name]
    if workload.b1 is None:
        names = [r["name"] for r in doc["records"]]
        if names != ref["records"]:
            problems.append(f"record names differ from the reference: {names}")
        if doc["config"]["seed"] != seed:
            problems.append(f"report seed {doc['config']['seed']} != {seed}")
        return problems
    points = doc["reports"]
    if len(points) != len(ref["points"]):
        problems.append(f"{len(points)} grid points, reference has {len(ref['points'])}")
    for got, want in zip(points, ref["points"]):
        tag = f"rho0={got['rho0']:g},t0={got['t0']:g}"
        if (got["rho0"], got["t0"]) != (want["rho0"], want["t0"]):
            problems.append(f"grid point {tag} out of order")
        if not got["pass"]:
            problems.append(f"{tag}: pass=false")
        if got["b1_oracle"] != workload.b1:
            problems.append(f"{tag}: b1_oracle={got['b1_oracle']}, expected {workload.b1}")
        for key in ("bound_main", "bound_schatten"):
            if not _close(got[key], want[key]):
                problems.append(f"{tag}: {key}={got[key]!r}, reference {want[key]!r}")
    return problems


def _without_wall_time(report_text: str) -> dict:
    doc = json.loads(report_text)
    doc["summary"].pop("wall_time_s")
    return doc


# -- one run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = {**WORKLOADS, **SELFTEST_WORKLOADS}[name]
    reference = json.loads((BENCH / "reference.json").read_text())
    cli_args = list(workload.argv) + (["--seed", str(seed)] if workload.seeded else [])
    deadline = time.monotonic() + seconds

    trace_mode = "trace" if workload.min_operators is not None else "trace-distinct"
    modes = ("plain", trace_mode) if trace else ("plain",)
    samples = {mode: [] for mode in modes}
    problems = []
    first_report = None
    setups = []
    calibration = Calibration()
    while True:
        started = time.monotonic()
        for _ in range(SETUP_PROBES_PER_STEP):
            probe = spawn("setup")
            if "error" in probe:
                raise SystemExit(f"bettibound cannot be imported: {probe['error']}")
            probe["scale"] = calibration.scale_next()
            setups.append(probe)
        for mode in modes:
            sample = spawn(mode, cli_args)
            sample["scale"] = calibration.scale_next()
            found = check_report(name, workload, seed, sample, reference)
            if not found:
                if first_report is None:
                    first_report = sample["report"]
                elif _without_wall_time(sample["report"]) != _without_wall_time(first_report):
                    found = ["report differs from the first report of this run"]
            sample["problems"] = found
            problems += [f"{mode}: {p}" for p in found]
            samples[mode].append(sample)
        step = time.monotonic() - started
        if time.monotonic() + step > deadline:
            break

    done = [s for mode in modes for s in samples[mode]]
    # A call with a wrong output still took its time: it is measured and
    # counted as failed.  Only calls that crashed have no measurements.
    measured = {mode: [s for s in samples[mode] if "wall_s" in s] for mode in modes}
    if not all(measured.values()):
        raise SystemExit(f"no call of {name} could be measured: {problems[:3]}")
    if trace:
        metrics = layer_metrics(workload, measured["plain"], measured[trace_mode], problems)
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in setups),
            **{key: statistics.median(s[key] * s["scale"] for s in measured["plain"])
               for key in ("wall_s", "cpu_s")},
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in measured["plain"]),
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in metrics.items()}
    failed = sum(bool(s["problems"]) for s in done)
    result = {"correct": not problems, "attempted": len(done), "failed": failed, "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": cli_args, "environment": environment(), "setup_samples": setups,
        "calibration_s": calibration.samples,
        "samples": [{k: v for k, v in s.items() if k not in ("report", "trace")} for s in done],
        "problems": problems, "result": result,
    }
    suffix = ".trace" if trace else ""
    (OUT / f"BENCH_{name}{suffix}.json").write_text(json.dumps(detail, indent=1) + "\n")
    spans = OUT / "child.json.spans"
    if spans.exists():
        spans.replace(OUT / f"spans_{name}.json")
    return {"detail": detail, "result": result}


def layer_metrics(workload: Workload, plain: list, traced: list, problems: list) -> dict:
    """Per-layer medians over the traced calls; counts must repeat exactly."""
    summaries = [s["trace"] for s in traced]
    scales = [s["scale"] for s in traced]
    counts = [(t["calls"], t["eigh_n3"], t["eigh_distinct"]) for t in summaries]
    if any(c != counts[0] for c in counts):
        problems.append(f"call counts differ between traced calls: {counts}")
    calls, eigh_n3, eigh_distinct = counts[0]
    values = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}_s"] = statistics.median(
            t["self_s"].get(layer, 0.0) * k for t, k in zip(summaries, scales))
    for layer in COUNTED_LAYERS:
        values[f"{layer}_calls"] = calls.get(layer, 0)
    eigh_calls = calls.get("measure.eigh", 0)
    minimal = workload.min_operators if workload.min_operators is not None else eigh_distinct
    points = [[d * k for d in t["durations"].get("pipeline.point", [])] for t, k in zip(summaries, scales)]
    values.update({
        "measure.eigh_n3": eigh_n3,
        "measure.eigensolve_reuse": minimal / eigh_calls if eigh_calls else 0.0,
        "pipeline.point_s.p50": statistics.median(statistics.median(p) if p else 0.0 for p in points),
        "pipeline.point_s.max": statistics.median(max(p, default=0.0) for p in points),
        "report.bytes": len(traced[0].get("report", "").encode()),
        "trace.overhead_s": statistics.median(s["wall_s"] * s["scale"] for s in traced)
        - statistics.median(s["wall_s"] * s["scale"] for s in plain),
    })
    units = per_layer_units()
    return {key: {"value": value, "unit": units[key]} for key, value in values.items()}


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    """Commit, machine, library versions, BLAS vendor and thread pinning."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "child_threads": PINNED_THREADS,
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# -- command line ----------------------------------------------------------------


def _print_table(results: dict):
    width = max(len(key) for result in results.values() for key in result["metrics"])
    print(f"{'workload':<18} {'metric':<{width}} {'value':>14}  unit")
    for name, result in results.items():
        for key, metric in result["metrics"].items():
            print(f"{name:<18} {key:<{width}} {metric['value']:>14.6g}  {metric['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<18} {'failed_frac':<{width}} {frac:>14.6g}  ratio ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *SELFTEST_WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of abstract-suites")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no bettibound sources under {SOURCE}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        env = run["detail"]["environment"]
        for problem in run["detail"]["problems"]:
            print(f"{name}: {problem}")
        results[name] = run["result"]
    print("environment:", json.dumps(env, sort_keys=True))
    _print_table(results)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
