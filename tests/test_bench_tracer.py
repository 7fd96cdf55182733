"""The traced benchmark run finds every callable it wraps.

bench/tracer.py wraps functions and methods by name.  Importing it (without
installing it) and resolving every name here makes a rename of a traced
callable fail the test suite rather than the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Module-level functions deleted from the library whose rows stay in the
# tracer's table until the benchmark is next changed.  install() wraps only
# the names a module exports, so their rows read zero and break nothing.
RETIRED = {"measure.one_two_norm", "birman.semigroup_difference", "pipeline.schatten_betti_bound"}


def test_every_traced_name_resolves(tracer):
    for qualified in tracer.LAYER_OF:
        short, _, attr_path = qualified.partition(".")
        module = importlib.import_module(f"bettibound.{short}")
        if qualified in RETIRED:
            assert not hasattr(module, attr_path), f"{qualified} is back: drop it from RETIRED"
            assert attr_path not in module.__all__, qualified
        elif "." in attr_path:
            class_name, attr = attr_path.split(".")
            raw = vars(getattr(module, class_name)).get(attr)
            assert raw is not None, f"{qualified} is not defined on the class itself"
            assert inspect.isfunction(raw) or isinstance(raw, classmethod), qualified
        else:
            assert inspect.isfunction(getattr(module, attr_path, None)), qualified


def test_every_exported_name_of_a_traced_module_resolves(tracer):
    for short in tracer.MODULES:
        module = importlib.import_module(f"bettibound.{short}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"bettibound.{short}.__all__ lists {name}"
