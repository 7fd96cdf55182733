"""Machine-readable run reports and the seed, trials and slack of the suites.

Every check performed by the command line tools is recorded as
``observed lhs`` versus ``allowed rhs`` with the remaining margin, so a
report is a flat list of inequality records plus a summary.  Reports
serialize to JSON with floats printed at 17 significant digits, which
makes byte-identical output for identical seeded configurations (the
wall-time field is the single nondeterministic entry).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

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
    "N_POINTS_MAX",
    "FIBER_MAX",
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

# Largest point count and fiber dimension of a suite instance.
N_POINTS_MAX = 20
FIBER_MAX = 3


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
    passed: bool

    @property
    def margin(self) -> float:
        """rhs - lhs, the room left before any slack; NaN if either is NaN."""
        return self.rhs - self.lhs

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
    return CheckRecord(name=name, detail=detail, lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + slack))


def equality_record(name: str, detail: str, lhs: float, rhs: float) -> CheckRecord:
    """Exact equality; used where floating point exactness is guaranteed."""
    lhs, rhs = float(lhs), float(rhs)
    return CheckRecord(name=name, detail=detail, lhs=lhs, rhs=rhs, passed=bool(lhs == rhs))


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
    """Seed, trial count and slack of the randomized verification suites.

    ``tolerance``, when given, is the slack of every inequality family;
    otherwise each family keeps its ``DEFAULT_TOLERANCES`` entry.  The
    instance sizes are the fixed caps ``N_POINTS_MAX`` and ``FIBER_MAX``.
    """

    seed: int = 42
    trials: int = 200
    tolerance: float | None = None

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", checked_tolerance("suite", self.tolerance))

    def tol(self, family: str) -> float:
        return DEFAULT_TOLERANCES[family] if self.tolerance is None else self.tolerance

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_points_max": N_POINTS_MAX,
            "fiber_max": FIBER_MAX,
            "tolerances": {family: self.tol(family) for family in sorted(DEFAULT_TOLERANCES)},
        }


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
        return json.dumps(value, ensure_ascii=False)
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
