"""Command line entry points.

Verbs:

* ``verify-abstract``: run the seeded randomized suites for the abstract
  operator inequalities and report worst-case margins.
* ``betti-bound``: evaluate the certified Betti bounds on a builtin
  surface or a mesh file, over a single point or a (rho0, t0) grid.
* ``mesh-info``: combinatorial and geometric summary of a mesh with both
  homology oracles.
* ``gen-fixture``: write a builtin surface to an OFF file.

Every verb prints a human table (unless --quiet) and optionally writes a
JSON report (--out); an --out that cannot be written is an error before
any work runs.  Each verb takes only the flags it reads, and a report's
``config`` holds every setting that fixes its run, constants included.
The exit status is 2 on invalid input, 1 when a recorded check fails and
0 otherwise; mesh-info records no checks, so it exits 0 or 2.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import time
from pathlib import Path

from .mesh import (
    BUILTIN_NAMES,
    MeshError,
    builtin_mesh,
    builtin_surface,
    load_mesh,
    write_off,
)
from .pipeline import SOUNDNESS_SLACK, parameter_sweep, prepare_surface
from .report import RunReport, SuiteConfig, checked_tolerance, serialize_json
from .suites import run_abstract_suites

USAGE_ERROR = 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _check_out(path: str) -> None:
    """Raise, before any work, the ``OSError`` that writing ``path`` would raise:
    its parent must be an existing, writable directory, and it must not be
    a directory itself."""
    target = Path(path)
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(target.parent).st_mode)
    except OSError as exc:
        code = exc.errno
    else:
        if not parent_is_dir:
            code = errno.ENOTDIR
        elif target.is_dir():
            code = errno.EISDIR
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            code = errno.EACCES
        else:
            return
    raise OSError(code, os.strerror(code), str(target))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bettibound",
        description="Certified first-Betti-number bounds from heat semigroup "
        "differences on closed surfaces.",
    )
    sub = parser.add_subparsers(dest="verb")
    parser.set_defaults(verb=None)

    def output(p):
        p.add_argument("--out", type=str, default=None, help="write JSON report here")
        p.add_argument("--quiet", action="store_true", help="summary line only")

    p_verify = sub.add_parser("verify-abstract", help="run the abstract suites")
    output(p_verify)
    p_verify.add_argument("--seed", type=int, default=SuiteConfig.seed, help="suite seed")
    p_verify.add_argument(
        "--trials", type=int, default=SuiteConfig.trials, help="instances per suite"
    )
    p_verify.add_argument(
        "--tolerance", type=float, default=None, help="slack of every inequality family"
    )
    p_verify.set_defaults(func=cmd_verify_abstract)

    p_bound = sub.add_parser("betti-bound", help="certified Betti bounds")
    output(p_bound)
    _mesh_source(p_bound)
    p_bound.add_argument(
        "--tolerance", type=float, default=SOUNDNESS_SLACK, help="soundness slack"
    )
    p_bound.add_argument("--rho0", type=str, default="0.5", help="comma list")
    p_bound.add_argument("--t0", type=str, default="1.0", help="comma list")
    p_bound.add_argument("--p", type=float, default=2.0, help="Schatten exponent")
    p_bound.add_argument(
        "--no-schatten",
        action="store_true",
        help="skip the operator-level Schatten certificate",
    )
    p_bound.set_defaults(func=cmd_betti_bound)

    p_info = sub.add_parser("mesh-info", help="mesh summary and homology oracles")
    output(p_info)
    _mesh_source(p_info)
    p_info.set_defaults(func=cmd_mesh_info)

    p_gen = sub.add_parser("gen-fixture", help="write a builtin surface as OFF")
    p_gen.add_argument("--name", required=True, choices=BUILTIN_NAMES)
    p_gen.add_argument("--resolution", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--quiet", action="store_true")
    p_gen.set_defaults(func=cmd_gen_fixture)
    return parser


def _mesh_source(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_NAMES)
    group.add_argument("--mesh", type=str, help="OFF or OBJ file")
    p.add_argument("--resolution", type=int, default=None, help="builtin surfaces only")


def _finish(report: RunReport, args, started: float) -> int:
    report.wall_time_s = time.perf_counter() - started
    if not args.quiet:
        _print_records(report)
    _print_summary(report)
    if args.out:
        Path(args.out).write_text(serialize_json(report.as_dict()))
    return 0 if report.passed else 1


def _print_records(report: RunReport):
    if not report.records:
        return
    width = max(len(r.name) for r in report.records)
    print(f"{'check':<{width}}  {'lhs':>13} {'rhs':>13} {'margin':>13}  result")
    for r in report.records:
        flag = "pass" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  {r.lhs:>13.6g} {r.rhs:>13.6g} "
            f"{r.margin:>13.6g}  {flag}"
        )


def _print_summary(report: RunReport):
    failed = len(report.failures())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{report.command}: {status} "
        f"({len(report.records) - failed}/{len(report.records)} checks, "
        f"{report.wall_time_s:.2f}s)"
    )


def cmd_verify_abstract(args) -> int:
    started = time.perf_counter()
    report = run_abstract_suites(SuiteConfig(args.seed, args.trials, args.tolerance))
    return _finish(report, args, started)


def _parse_grid(text: str):
    """The comma-separated floats of a grid flag; ``parameter_sweep`` checks their values."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid value in {text!r}: {exc}") from exc


def _load_surface(args):
    if args.mesh:
        if args.resolution is not None:
            raise ValueError("--resolution applies to --builtin surfaces, not to --mesh")
        return load_mesh(args.mesh), f"file:{args.mesh}"
    surface = builtin_surface(args.builtin)
    if surface is None:
        return builtin_mesh(args.builtin, args.resolution), args.builtin
    return surface, args.builtin


def cmd_betti_bound(args) -> int:
    started = time.perf_counter()
    slack = checked_tolerance("soundness", args.tolerance)
    rho0_values = _parse_grid(args.rho0)
    t0_values = _parse_grid(args.t0)
    surface, label = _load_surface(args)
    data = prepare_surface(surface, args.resolution)
    rows = parameter_sweep(
        data,
        rho0_values,
        t0_values,
        p=args.p,
        compute_schatten=not args.no_schatten,
        soundness_slack=slack,
    )

    report = RunReport(
        command="betti-bound",
        config=dict(
            surface=label,
            rho0=rho0_values,
            t0=t0_values,
            p=args.p,
            curvature="angle-defect",
            schatten=not args.no_schatten,
            soundness_slack=slack,
        ),
    )
    for result in rows:
        report.extend(result.records)
    report.extra["mesh"] = data.describe()
    report.extra["reports"] = [r.as_dict() for r in rows]
    if not args.quiet:
        _print_bound_table(rows)
    return _finish(report, args, started)


def _print_bound_table(rows):
    print(f"{'rho0':>8} {'t0':>8} {'b1':>4} {'bound_main':>12} {'schatten':>12}  result")
    for r in rows:
        schatten = f"{r.bound_schatten:.6g}" if r.bound_schatten is not None else "-"
        flag = "pass" if r.passed else "FAIL"
        print(
            f"{r.rho0:>8.3g} {r.t0:>8.3g} {r.b1_oracle:>4d} "
            f"{r.bound_main:>12.6g} {schatten:>12}  {flag}"
        )


def cmd_mesh_info(args) -> int:
    started = time.perf_counter()
    surface, label = _load_surface(args)
    data = prepare_surface(surface, resolution=args.resolution)
    report = RunReport(command="mesh-info", config={"surface": label})
    info = report.extra["mesh"] = data.describe()
    if not args.quiet:
        for key, value in info.items():
            print(f"{key}: {value}")
    return _finish(report, args, started)


def cmd_gen_fixture(args) -> int:
    mesh = builtin_mesh(args.name, args.resolution)
    write_off(mesh, args.out)
    if not args.quiet:
        d = mesh.describe()
        print(
            f"wrote {args.name} to {args.out} "
            f"({d['vertices']}v {d['edges']}e {d['faces']}f, chi={d['euler_characteristic']})"
        )
        if args.name == "flat-torus":
            print(
                "note: OFF stores the parameter-plane embedding; the flat "
                "metric is available only through the builtin surface"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
