"""Machine-readable run reports and the suite configuration.

Every check performed by the command line tools is recorded as
``observed lhs`` versus ``allowed rhs`` with the remaining margin, so a
report is a flat list of inequality records plus a summary.  Reports
serialize to JSON with floats printed at 17 significant digits, which
makes byte-identical output for identical seeded configurations (the
wall-time field is the single nondeterministic entry).
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "CheckRecord",
    "RunReport",
    "SuiteConfig",
    "inequality_record",
    "equality_record",
    "serialize_json",
    "config_hash",
    "DEFAULT_TOLERANCES",
    "checked_tolerance",
]

REPORT_VERSION = 1

# Relative (or, where noted, absolute) slack per abstract-suite inequality family.
DEFAULT_TOLERANCES = {
    "chain": 1e-9,
    "subspace_angle": 1e-7,
    "factorization": 1e-9,
    "duhamel": 1e-6,
    "closed_form": 1e-10,
    "domination": 1e-10,  # absolute pointwise slack
}


def checked_tolerance(family: str, value) -> float:
    """``value`` as a float, rejected with a ``ValueError`` outside (0, 1e-3]."""
    value = float(value)
    if not (0.0 < value <= 1e-3):
        raise ValueError(f"tolerance {family}={value} outside (0, 1e-3]")
    return value


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality: observed lhs against allowed rhs."""

    name: str
    detail: str
    lhs: float
    rhs: float
    margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }


def inequality_record(
    name: str, detail: str, lhs: float, rhs: float, slack: float
) -> CheckRecord:
    """lhs <= rhs + slack, with the margin before slack reported."""
    lhs, rhs = float(lhs), float(rhs)
    return CheckRecord(
        name=name,
        detail=detail,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        passed=bool(lhs <= rhs + slack),
    )


def equality_record(name: str, detail: str, lhs: float, rhs: float) -> CheckRecord:
    """Exact equality; used where floating point exactness is guaranteed."""
    lhs, rhs = float(lhs), float(rhs)
    return CheckRecord(
        name=name,
        detail=detail,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        passed=bool(lhs == rhs),
    )


@dataclass
class RunReport:
    """Command echo, configuration, all check records, aggregate summary."""

    command: str
    config: dict
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def extend(self, records):
        self.records.extend(records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        doc = {
            "version": REPORT_VERSION,
            "command": self.command,
            "config": dict(sorted(self.config.items())),
            "config_hash": config_hash(self.config),
            "records": [r.as_dict() for r in self.records],
        }
        doc.update(self.extra)
        doc["summary"] = {
            "total": len(self.records),
            "failed": sum(not r.passed for r in self.records),
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }
        return doc

    def failures(self):
        return [r for r in self.records if not r.passed]


@dataclass(frozen=True)
class SuiteConfig:
    """Seeded sizes and tolerances for the randomized verification suites."""

    seed: int = 42
    trials: int = 200
    n_points_max: int = 20
    fiber_max: int = 3
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_points_max < 2 or self.fiber_max < 1:
            raise ValueError("size caps are too small")
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance family {key!r}")
            merged[key] = checked_tolerance(key, value)
        object.__setattr__(self, "tolerances", merged)

    def tol(self, family: str) -> float:
        return self.tolerances[family]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_points_max": self.n_points_max,
            "fiber_max": self.fiber_max,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def load_config_file(path) -> dict:
    """Flat key=value config with bracketed sections ([suite], [tolerances]).

    An unknown section or ``[suite]`` key raises a ``ValueError`` naming it.
    """
    parser = configparser.ConfigParser()
    with open(path) as handle:
        parser.read_file(handle)
    keys = ("seed", "trials", "n_points_max", "fiber_max")
    suite = parser["suite"] if parser.has_section("suite") else {}
    unknown = [f"[{s}]" for s in parser.sections() if s not in ("suite", "tolerances")]
    unknown += [key for key in suite if key not in keys]
    if unknown:
        raise ValueError(f"unknown config file sections or keys: {unknown}")
    out = {key: int(suite[key]) for key in keys if key in suite}
    if parser.has_section("tolerances"):
        out["tolerances"] = {k: float(v) for k, v in parser["tolerances"].items()}
    return out


def build_config(file_path=None, **overrides) -> SuiteConfig:
    """File values first, command line overrides win."""
    values = load_config_file(file_path) if file_path else {}
    tolerances = values.pop("tolerances", {})
    override_tol = overrides.pop("tolerances", None)
    if override_tol:
        tolerances.update(override_tol)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    allowed = {f.name for f in fields(SuiteConfig)}
    unknown = set(values) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SuiteConfig(tolerances=tolerances, **values)


# -- json ------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return f'"{x!r}"'
    text = format(float(x), ".17g")
    # Keep a numeric-looking token for integral floats.
    if "e" not in text and "E" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def _serialize(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(f"{_serialize(str(k))}: {_serialize(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in value) + "]"
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def serialize_json(document: dict) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _serialize(document) + "\n"


def config_hash(config: dict) -> str:
    payload = serialize_json({k: config[k] for k in sorted(config)})
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
