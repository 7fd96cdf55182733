"""Span recorder for the traced benchmark run.

The program itself carries no instrumentation, so the traced run wraps
callables from the outside: each public function or method listed below
is replaced where it is defined and in every ``bettibound`` module that
imported it by name, and ``numpy.linalg.eigh``/``eigvalsh`` are replaced
on ``numpy.linalg``.  Every call becomes a span (layer key, parent span,
start, end) kept in memory; per-layer self time, call counts and the
eigensolve op-count proxy are derived from the spans when the run ends.

A layer's self time is the duration of its spans minus the part covered
by their child spans, so the self times of all layers plus the
unwrapped remainder add up to the traced ``cli.main`` call.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from collections import Counter, defaultdict

# Layer key of each wrapped callable, by "<module>.<qualified name>".
# Public functions of a module that are not listed here fall into
# "<module>.other", except that those of perturbation are its checks.
LAYER_OF = {
    "mesh.builtin_mesh": "mesh.build",
    "mesh.icosphere_mesh": "mesh.build",
    "mesh.revolution_torus_mesh": "mesh.build",
    "mesh.flat_torus_mesh": "mesh.build",
    "mesh.genus2_mesh": "mesh.build",
    "mesh.TriangleMesh.__init__": "mesh.build",
    "mesh.RoundSphere.mesh": "mesh.build",
    "mesh.FlatTorus.mesh": "mesh.build",
    "mesh.TorusOfRevolution.mesh": "mesh.build",
    "mesh.BumpySphere.mesh": "mesh.build",
    "dec.build_dec": "dec.build_dec",
    "dec.DECOperators.laplacian0_matrix": "dec.laplacian_matrix",
    "dec.DECOperators.laplacian1_matrix": "dec.laplacian_matrix",
    "dec.DECOperators.laplacian1": "dec.laplacian1",
    "dec.betti1_oracle": "dec.harmonic_oracle",
    "dec.betti1_rank_count": "dec.rank_oracle",
    "dec.schrodinger_comparison": "dec.comparison",
    "measure.SelfAdjointOperator.__init__": "measure.operator_init",
    "measure.SelfAdjointOperator.from_spectrum": "measure.from_spectrum",
    "measure.singular_values": "measure.schatten",
    "measure.schatten_power_sum": "measure.schatten",
    "measure.schatten_norm": "measure.schatten",
    "measure.hs_norm": "measure.schatten",
    "measure.operator_norm": "measure.schatten",
    "measure.two_inf_norm": "measure.two_inf",
    "measure.one_two_norm": "measure.two_inf",
    "birman.semigroup_difference": "birman.semigroup_difference",
    "birman.birman_schwinger_bound": "birman.bs_bound",
    "birman.birman_schwinger_operator": "birman.bs_bound",
    "perturbation.MatrixPotential.as_operator": "perturbation.as_operator",
    "pipeline.prepare_surface": "pipeline.prepare_surface",
    "pipeline.schatten_betti_bound": "pipeline.schatten",
    "pipeline.synthetic_edge_potential": "pipeline.schatten",
    "pipeline.betti_bound": "pipeline.point",
    "report.serialize_json": "report.serialize",
    "cli.main": "cli.self",
}

MODULES = ("mesh", "dec", "measure", "birman", "perturbation", "pipeline", "suites", "report", "cli")


class Tracer:
    """Spans in memory: one [layer, parent, start, end] row per call."""

    def __init__(self, distinct_eigh=False):
        self.spans = []
        self._open = []
        self.eigh_sizes = []
        # Hashing every eigh input costs about as much as a matrix copy, so
        # it is done only for workloads whose distinct operators are unknown.
        self.distinct_eigh = distinct_eigh
        self.eigh_digests = set()

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            row = [layer, parent, time.perf_counter(), None]
            self.spans.append(row)
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                row[3] = time.perf_counter()
                self._open.pop()

        return traced

    def wrap_eigh(self, fn):
        traced = self.wrap("measure.eigh", fn)

        @functools.wraps(fn)
        def eigh(a, *args, **kwargs):
            self.eigh_sizes.append(a.shape[-1])
            if self.distinct_eigh:
                self.eigh_digests.add(hashlib.blake2b(a.tobytes(), digest_size=16).digest())
            return traced(a, *args, **kwargs)

        return eigh

    def summary(self) -> dict:
        """Self time, calls and inclusive durations per layer."""
        self_time = defaultdict(float)
        calls = Counter()
        durations = defaultdict(list)
        for layer, parent, start, end in self.spans:
            elapsed = end - start
            self_time[layer] += elapsed
            calls[layer] += 1
            durations[layer].append(elapsed)
            if parent >= 0:
                self_time[self.spans[parent][0]] -= elapsed
        return {
            "self_s": dict(self_time),
            "calls": dict(calls),
            "durations": dict(durations),
            "eigh_n3": sum(n**3 for n in self.eigh_sizes),
            "eigh_distinct": len(self.eigh_digests),
        }

    def write_spans(self, path):
        """Spans as JSON rows [layer, parent index, start, end]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(distinct_eigh=False) -> Tracer:
    """Wrap the bettibound layers and numpy's eigensolvers; return the tracer."""
    import importlib

    import numpy.linalg

    tracer = Tracer(distinct_eigh)
    modules = {name: importlib.import_module(f"bettibound.{name}") for name in MODULES}
    replaced = {}

    for short, module in modules.items():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                default = "perturbation.checks" if short == "perturbation" else f"{short}.other"
                layer = LAYER_OF.get(f"{short}.{name}", default)
                replaced[obj] = tracer.wrap(layer, obj)
    main = modules["cli"].main
    replaced[main] = tracer.wrap(LAYER_OF["cli.main"], main)

    for qualified, layer in LAYER_OF.items():
        short, _, attr_path = qualified.partition(".")
        if "." not in attr_path:
            continue
        class_name, attr = attr_path.split(".")
        cls = getattr(modules[short], class_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(layer, raw))

    suites = modules["suites"]
    suites.SUITE_BUILDERS = tuple(
        (name, tracer.wrap(f"suites.{name}", builder)) for name, builder in suites.SUITE_BUILDERS
    )

    import bettibound

    for module in (*modules.values(), bettibound):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, name, replaced[value])

    numpy.linalg.eigh = tracer.wrap_eigh(numpy.linalg.eigh)
    numpy.linalg.eigvalsh = tracer.wrap("measure.eigvalsh", numpy.linalg.eigvalsh)
    return tracer
