"""End-to-end certified bound checks against the homology oracles."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse import csr_matrix, diags

from bettibound import measure, pipeline
from bettibound.birman import OperatorPair, crude_bounds
from bettibound.dec import DECOperators, schrodinger_comparison
from bettibound.measure import (
    SelfAdjointOperator,
    WeightedOperator,
    heat_difference,
    heat_two_inf_norm,
    schatten_power_sum,
    two_inf_norm,
)
from bettibound.mesh import (
    BUILTIN_NAMES,
    BumpySphere,
    FlatTorus,
    RoundSphere,
    TriangleMesh,
    builtin_mesh,
    genus2_mesh,
)
from bettibound.perturbation import MatrixPotential
from bettibound.pipeline import (
    BettiBoundInputs,
    betti_bound,
    parameter_sweep,
    prefactors,
    prepare_surface,
    synthetic_edge_potential,
)


@pytest.fixture(scope="module")
def torus_data():
    return prepare_surface(FlatTorus(), resolution=8)


@pytest.fixture(scope="module")
def sphere_data():
    return prepare_surface(RoundSphere(), resolution=2)


# -- main bound ----------------------------------------------------------------


def test_sphere_bound_exactly_zero(sphere_data):
    report = betti_bound(
        BettiBoundInputs(surface=RoundSphere(), rho0=0.5, t0=1.0), data=sphere_data
    )
    assert report.b1_oracle == 0
    assert report.bound_main == 0.0
    assert report.passed


def test_flat_torus_bound_dominates_b1(torus_data):
    report = betti_bound(
        BettiBoundInputs(surface=FlatTorus(), rho0=0.5, t0=1.0), data=torus_data
    )
    assert report.b1_oracle == 2
    assert report.bound_main >= 2.0
    assert report.passed
    # Closed forms on the flat torus: the shortfall is the constant rho0.
    inter = report.intermediate
    assert np.isclose(inter["potential_norm_2hs"] ** 2, 2 * 0.5**2 * 1.0, rtol=1e-12)


def test_bumpy_sphere_bound_zero_below_min_curvature():
    surface = BumpySphere()
    report = betti_bound(
        BettiBoundInputs(surface=surface, rho0=0.1, t0=1.0, resolution=2)
    )
    assert report.intermediate["curvature_min"] > 0.2
    assert report.bound_main == 0.0
    assert report.b1_oracle == 0
    assert report.passed


def test_vanishing_criterion_is_exact_zero(torus_data, sphere_data):
    # Everywhere K > rho0 forces a bitwise zero bound through the vanishing
    # (2,HS) norm, not merely a small one.
    report = betti_bound(
        BettiBoundInputs(surface=RoundSphere(), rho0=0.9, t0=0.3), data=sphere_data
    )
    assert report.intermediate["potential_norm_2hs"] == 0.0
    assert report.bound_main == 0.0


def test_genus2_bound_passes():
    report = betti_bound(BettiBoundInputs(surface=genus2_mesh(), rho0=0.4, t0=0.8))
    assert report.b1_oracle == 4
    assert report.passed


def test_monotone_regime_on_sphere(sphere_data):
    # Below the curvature floor the bound is literally constant (zero).
    values = [
        betti_bound(
            BettiBoundInputs(surface=RoundSphere(), rho0=rho0, t0=1.0),
            data=sphere_data,
        ).bound_main
        for rho0 in (0.2, 0.4, 0.6, 0.8)
    ]
    assert values == [0.0, 0.0, 0.0, 0.0]


# -- operator-level Schatten bound ----------------------------------------------


def test_schatten_bound_commuting_shift(torus_data):
    # Constant edge potential rho0 shifts the edge Laplacian, so the bound
    # collapses to the Schatten power sum of its heat operator, which
    # dominates the two-dimensional harmonic space.
    rho0, t0 = 0.5, 1.0
    lap1 = torus_data.dec.laplacian1()
    potential = MatrixPotential.from_scalar_field(
        torus_data.dec.edge_space(), np.full(torus_data.mesh.edge_count, rho0), nonneg=True
    )
    assert np.allclose(potential.values.reshape(-1), rho0)
    perturbed = potential.added_to(lap1)
    pair = OperatorPair(H=lap1, Hprime=perturbed, rho0=rho0, t0=2.0 * t0)
    value = crude_bounds(pair, 2.0)[0]
    oracle = float(np.sum(np.exp(-2.0 * (2.0 * t0) * lap1.eigenvalues)))
    assert np.isclose(value, oracle, rtol=1e-9)
    assert value >= 2.0 - 1e-9 * (1.0 + value)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_schatten_bound_dominates_kernel_both_exponents(torus_data, p):
    rho0, t0 = 0.4, 0.7
    potential = synthetic_edge_potential(torus_data.dec, torus_data.curvature, rho0)
    lap1 = torus_data.dec.laplacian1()
    pair = OperatorPair(H=lap1, Hprime=potential.added_to(lap1), rho0=rho0, t0=2.0 * t0)
    value = crude_bounds(pair, p)[0]
    assert value >= torus_data.b1 - 1e-9 * (1.0 + value)


def test_schatten_bound_trivial_kernel_on_sphere(sphere_data):
    rho0, t0 = 0.5, 1.0
    potential = synthetic_edge_potential(sphere_data.dec, sphere_data.curvature, rho0)
    lap1 = sphere_data.dec.laplacian1()
    pair = OperatorPair(H=lap1, Hprime=potential.added_to(lap1), rho0=rho0, t0=2.0 * t0)
    value = crude_bounds(pair, 2.0)[0]
    assert value >= 0.0
    assert sphere_data.b1 == 0


def test_schatten_bound_spectral_check_enforced(torus_data):
    # rho0 above what L1 + V can reach must be rejected, not silently used.
    rho0 = 50.0
    potential = MatrixPotential.from_scalar_field(
        torus_data.dec.edge_space(), np.full(torus_data.mesh.edge_count, 0.1), nonneg=True
    )
    lap1 = torus_data.dec.laplacian1()
    with pytest.raises(ValueError, match="spectral check failed"):
        OperatorPair(lap1, potential.added_to(lap1), rho0, 2.0)


def test_a_schatten_scale_that_rounds_to_zero_omits_only_its_point():
    # At t0 = 1e-17, 1 - e^(-2 rho0 t0) rounds to 0: that point's Schatten
    # bound is omitted with a note naming the scale, with no RuntimeWarning
    # (an error under this suite's warning filter), and the other point of
    # the row keeps its bound and no note.
    data = prepare_surface(builtin_mesh("genus2", 6))
    tiny, plain = parameter_sweep(data, [0.5], [1e-17, 1.0])
    assert tiny.bound_schatten is None and tiny.passed
    assert tiny.notes == (
        "schatten bound omitted: the Schatten scale 1 - e^(-rho0 t0) rounds to zero "
        "at rho0 t0 = 1e-17",
    )
    assert [r.name.split("[")[0] for r in tiny.records] == ["soundness_main"]
    assert plain.notes == () and plain.passed
    assert math.isfinite(plain.bound_schatten) and plain.bound_schatten >= data.b1


@pytest.mark.parametrize(
    "name, resolution",
    [("sphere", 2), ("genus2", 8), ("torus-rev", 16), ("bumpy-sphere", 2), ("flat-torus", 8)],
)
def test_bounds_are_invariant_under_scaling_the_surface(name, resolution):
    # Scaling every length by c scales L0, L1 and the curvature by 1/c^2,
    # so (rho0, t0) -> (rho0 / c^2, c^2 t0) leaves b1 and both bounds as
    # they are: rho0 t0 is unchanged, the sharp prefactor gains c^4, and
    # the squared (2,HS) and 2->inf norms lose c^2 each.  flat-torus
    # carries its metric in intrinsic lengths, which are scaled too.
    # Rounding moves a bound by at most 1e-12 (1 + |bound|).
    mesh = builtin_mesh(name, resolution)
    grid = [0.5, 1.0]
    reports = parameter_sweep(prepare_surface(mesh), grid, grid)
    for c in (2.0, 0.5, 0.37):
        lengths = mesh.edge_lengths * c if mesh.intrinsic else None
        data = prepare_surface(TriangleMesh(mesh.vertices * c, mesh.faces, lengths))
        scaled = parameter_sweep(data, [r / c**2 for r in grid], [c**2 * t for t in grid])
        for report, other in zip(reports, scaled, strict=True):
            assert other.b1_oracle == report.b1_oracle
            # A note names scaled numbers, but the same points have one.
            assert len(other.notes) == len(report.notes)
            for bound, moved in (
                (report.bound_main, other.bound_main),
                (report.bound_schatten, other.bound_schatten),
            ):
                assert (bound is None) == (moved is None)
                if bound is not None:
                    assert abs(moved - bound) <= 1e-12 * (1.0 + abs(bound))


def _relabeled(mesh, rng) -> TriangleMesh:
    """``mesh`` with its vertex labels and faces permuted and each face's
    corners rotated, which keeps its orientation.  Intrinsic lengths follow
    their edges into the new (lexicographic) edge table."""
    perm = rng.permutation(mesh.vertex_count)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    faces = perm[mesh.faces][rng.permutation(mesh.face_count)]
    turns = rng.integers(0, 3, mesh.face_count)[:, None]
    faces = np.take_along_axis(faces, (np.arange(3) + turns) % 3, axis=1)
    lengths = None
    if mesh.intrinsic:
        edges = np.sort(perm[mesh.edges], axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        lengths = mesh.edge_lengths[order]
    relabeled = TriangleMesh(vertices, faces, lengths)
    if mesh.intrinsic:
        assert np.array_equal(relabeled.edges, edges[order])
    return relabeled


@pytest.mark.parametrize(
    "name, resolution",
    [("genus2", 6), ("torus-rev", 8), ("flat-torus", 6), ("bumpy-sphere", 2), ("sphere", 2)],
)
def test_bounds_are_invariant_under_relabeling_the_mesh(name, resolution):
    # Renumbering vertices and faces, and rotating each face's corners,
    # describes the same surface: b1, which points omit their Schatten
    # bound (two of torus-rev's four), and both bounds stay as they are.
    # Rounding moved a bound by at most 6.1e-13 (1 + |bound|), on
    # flat-torus, over these relabelings.
    mesh = builtin_mesh(name, resolution)
    rho0s, t0s = [0.2, 1.0], [0.5, 2.0]
    reports = parameter_sweep(prepare_surface(mesh), rho0s, t0s)
    rng = np.random.default_rng(15)
    for _ in range(4):
        relabeled = parameter_sweep(prepare_surface(_relabeled(mesh, rng)), rho0s, t0s)
        for report, other in zip(reports, relabeled, strict=True):
            assert other.b1_oracle == report.b1_oracle
            for bound, moved in (
                (report.bound_main, other.bound_main),
                (report.bound_schatten, other.bound_schatten),
            ):
                assert (bound is None) == (moved is None)
                if bound is not None:
                    assert abs(moved - bound) <= 1e-11 * (1.0 + abs(bound))


# -- sweeps -----------------------------------------------------------------------


def test_sweep_single_point(torus_data):
    reports = parameter_sweep(torus_data, [0.5], [1.0])
    assert len(reports) == 1
    assert reports[0].passed


def test_sweep_sphere_all_zero():
    reports = parameter_sweep(
        prepare_surface(RoundSphere(), resolution=2), [0.2, 0.5, 0.9], [0.5, 1.0],
        compute_schatten=False,
    )
    assert len(reports) == 6
    assert all(r.bound_main == 0.0 for r in reports)
    assert all(r.passed for r in reports)


def test_sweep_torus_grid_deterministic_order(torus_data):
    rho0s, t0s = [0.3, 0.6], [0.5, 1.5]
    reports = parameter_sweep(torus_data, rho0s, t0s)
    got = [(r.rho0, r.t0) for r in reports]
    assert got == [(0.3, 0.5), (0.3, 1.5), (0.6, 0.5), (0.6, 1.5)]
    assert all(r.passed for r in reports)


def _pairs_below(matrix, space, cutoff) -> int:
    """The eigenvalues below ``cutoff`` of the operator with this matrix, from a dense solve."""
    s = WeightedOperator(matrix, space).conjugated().toarray()
    return int(np.count_nonzero(np.linalg.eigvalsh(0.5 * (s + s.T)) < cutoff))


@pytest.mark.parametrize(
    "schatten, p", [(True, 2.0), (False, 2.0), (True, 1.0)],
    ids=["schatten", "no-schatten", "schatten-p1"],
)
def test_sweep_eigensolves_each_operator_once(count_eigensolves, schatten, p):
    # Preparing the surface eigensolves nothing: both kernel counts are
    # sparse.  Once per sweep, the comparison operator L0 + K (V x V) is
    # eigensolved for its pairs below the grid's sigma_C and the first one
    # above it, whatever p.  With the Schatten certificate at p = 2, L1 is
    # assembled once, below sigma_A = ln(1/eta) / (2 min t0), from L0
    # (V x V) and the face Laplacian L2 (F x F), each solved for its pairs
    # below sigma_A and the first one above it, with a b1 x b1
    # Rayleigh-Ritz block; L1 + W (E x E) is eigensolved once per rho0,
    # for its pairs below the cut-off and the first one above it.  So no
    # solve takes every pair of an E x E matrix.  Any other p takes every pair of
    # L0, L2 and each L1 + W.
    calls = count_eigensolves()
    mesh = genus2_mesh()
    data = prepare_surface(mesh)
    parameter_sweep(data, [0.5, 1.0], [0.5, 1.0], p=p, compute_schatten=schatten)
    calls = list(calls)
    nv, ne, nf = mesh.vertex_count, mesh.edge_count, mesh.face_count
    dec = data.dec
    comparison = dec.laplacian0_matrix() + diags(data.curvature.values)
    below = _pairs_below(
        comparison, dec.vertex_space(), pipeline._comparison_cutoff(data, [0.5, 1.0])
    )
    assert below + 1 < nv
    expected = [(nv, below + 1)]
    if schatten and p != 2.0:
        expected += [(nv, nv), (nf, nf), (4, 4), (ne, ne), (ne, ne)]
    elif schatten:
        sigma_a = pipeline._heat_cutoff([0.5, 1.0])
        for matrix, space in (
            (dec.laplacian0_matrix(), dec.vertex_space()),
            (dec.laplacian2_matrix(), dec.face_space()),
        ):
            below = _pairs_below(matrix, space, sigma_a)
            assert below + 1 < matrix.shape[0]
            expected.append((matrix.shape[0], below + 1))
        expected.append((4, 4))
        for rho0 in (0.5, 1.0):
            values = synthetic_edge_potential(data.dec, data.curvature, rho0).values.ravel()
            matrix = data.dec.laplacian1_matrix() + diags(values)
            below = _pairs_below(matrix, data.dec.edge_space(), _cutoff([0.5, 1.0], rho0))
            assert below + 1 < ne
            expected.append((ne, below + 1))
        assert (ne, ne) not in calls
    if p == 2.0:
        assert (nv, nv) not in calls
    assert calls == expected


def test_sweep_computes_each_two_inf_norm_once_per_t0(monkeypatch):
    # A 5 x 5 grid has five distinct t0, so five gemvs, not 25, against
    # the comparison operator below the grid's sigma_C; each kept value is
    # the one a call at that point returns, to the bit.
    calls = []

    def recording(op, t):
        calls.append(t)
        return heat_two_inf_norm(op, t)

    monkeypatch.setattr(pipeline, "heat_two_inf_norm", recording)
    rho0s, t0s = [0.25, 0.5, 1.0, 1.5, 2.0], [0.25, 0.5, 1.0, 2.0, 4.0]
    mesh = builtin_mesh("bumpy-sphere", 2)
    reports = parameter_sweep(prepare_surface(mesh), rho0s, t0s, compute_schatten=False)
    assert calls == t0s
    data = prepare_surface(mesh)
    cutoff = pipeline._comparison_cutoff(data, t0s)
    comparison = schrodinger_comparison(data.dec, data.curvature.values, cutoff)
    assert comparison.partial
    for report in reports:
        expected = heat_two_inf_norm(comparison, report.t0)
        assert report.intermediate["comparison_two_inf"] == expected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sweep_reads_no_diameter(name):
    # No bound or report field needs the mesh diameter, so a mesh has none.
    assert not hasattr(TriangleMesh, "diameter_estimate")
    reports = parameter_sweep(prepare_surface(builtin_mesh(name)), [0.5], [1.0])
    assert all(r.passed for r in reports)
    assert all("diameter_estimate" not in r.intermediate for r in reports)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_schatten_sweep_densifies_only_eigensolve_inputs(monkeypatch, name):
    # The Laplacians are CSR and the kernel counts sparse: the one dense
    # copy made while a surface is prepared and swept is the comparison
    # operator L0 + K that its eigensolve reads.  The operator's LAPACK
    # eigensolve, xSYEVR for its pairs below sigma_C and the first one
    # above it, reads that copy in place, in Fortran order, and returns a
    # V x (K + 1) eigenvector array; no xSYEVD runs.
    densified, solved, vectors = [], [], []
    toarray, eigh, dsyevd = csr_matrix.toarray, np.linalg.eigh, lapack.dsyevd
    dsyevr = lapack.dsyevr

    def recording_toarray(self, *args, **kwargs):
        densified.append(toarray(self, *args, **kwargs))
        return densified[-1]

    def recording_eigh(a, *args, **kwargs):
        solved.append(a)
        return eigh(a, *args, **kwargs)

    def recording_dsyevd(a, *args, **kwargs):
        solved.append(a.T)
        return dsyevd(a, *args, **kwargs)

    def recording_dsyevr(a, *args, **kwargs):
        solved.append(a.T)
        result = dsyevr(a, *args, **kwargs)
        vectors.append(result[1])
        return result

    monkeypatch.setattr(csr_matrix, "toarray", recording_toarray)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(lapack, "dsyevd", recording_dsyevd)
    monkeypatch.setattr(lapack, "dsyevr", recording_dsyevr)
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    mesh = builtin_mesh(name, resolution)
    parameter_sweep(prepare_surface(mesh), [0.5, 1.0], [0.5, 1.0], compute_schatten=False)
    assert len(densified) == len(solved) == len(vectors) == 1
    assert solved[0].base is densified[0]
    nv = mesh.vertex_count
    assert densified[0].shape == (nv, nv)
    data = prepare_surface(mesh)
    cutoff = pipeline._comparison_cutoff(data, [0.5, 1.0])
    part = schrodinger_comparison(data.dec, data.curvature.values, cutoff)
    assert vectors[0].shape == (nv, part.eigenvalues.size + 1) and part.partial


def test_zero_edge_potential_gives_exact_zero_without_eigensolve(count_eigensolves):
    # Curvature 1 everywhere above rho0 = 0.5 leaves W = 0, so L1 + W is
    # L1 itself: no eigensolve, and a bitwise-zero Schatten bound.  Each
    # call is its own sweep and eigensolves, below the cut-offs of its t0,
    # the pairs of the comparison operator L0 + K below sigma_C, and of L0
    # and L2 below sigma_A for its L1 below the cut-off (b1 = 0 leaves no
    # Rayleigh-Ritz block), and nothing more.  The full L1 is L1 + W too.
    data = prepare_surface(RoundSphere(), resolution=2)
    calls = count_eigensolves()
    potential = synthetic_edge_potential(data.dec, data.curvature, 0.5)
    assert not np.any(potential.values)
    nv, nf = data.mesh.vertex_count, data.mesh.face_count
    dec = data.dec
    comparison = dec.laplacian0_matrix() + diags(data.curvature.values)
    expected = []
    for t0 in (1.0, 3.0):
        report = betti_bound(
            BettiBoundInputs(surface=RoundSphere(), rho0=0.5, t0=t0), data=data
        )
        assert report.bound_schatten == 0.0
        sigma_c, sigma_a = pipeline._comparison_cutoff(data, [t0]), pipeline._heat_cutoff([t0])
        expected += [
            (nv, _pairs_below(comparison, dec.vertex_space(), sigma_c) + 1),
            (nv, _pairs_below(dec.laplacian0_matrix(), dec.vertex_space(), sigma_a) + 1),
            (nf, _pairs_below(dec.laplacian2_matrix(), dec.face_space(), sigma_a) + 1),
        ]
    assert calls == expected
    part = dec.laplacian1(pipeline._heat_cutoff([1.0]))
    assert part.partial and potential.added_to(part) is part
    lap1 = dec.laplacian1()
    assert not lap1.partial and potential.added_to(lap1) is lap1


def test_p2_grid_point_builds_no_dense_heat_matrix(monkeypatch):
    # At p = 2 a point reads the Schatten power sum from the two spectra:
    # the sweep builds no dense matrix of a derived operator and takes no
    # eigvalsh.  p = 1 builds, at each point, the dense matrices of both
    # heat operators and takes the singular values of their difference
    # (one eigvalsh, of a stack of one).  The edge potential's pointwise
    # nonnegativity check reads its (E, 1, 1) values directly.
    counts = {"eigvalsh": 0, "matrix": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kw):
        counts["eigvalsh"] += 1
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    dense = SelfAdjointOperator.__dict__["matrix"].func

    def counting_matrix(op):
        counts["matrix"] += 1
        return dense(op)

    prop = functools.cached_property(counting_matrix)
    prop.__set_name__(SelfAdjointOperator, "matrix")
    monkeypatch.setattr(SelfAdjointOperator, "matrix", prop)
    mesh = genus2_mesh()
    for p, expected in ((2.0, {"eigvalsh": 0, "matrix": 0}), (1.0, {"eigvalsh": 4, "matrix": 8})):
        counts.update(eigvalsh=0, matrix=0)
        reports = parameter_sweep(prepare_surface(mesh), [0.5, 1.0], [0.5, 1.0], p=p)
        assert all(r.bound_schatten is not None for r in reports)
        assert counts == expected


def test_sweep_holds_one_schatten_operator_at_a_time(monkeypatch):
    # The L1 + W of one rho0, with the E x E squared overlap it keeps, is
    # dropped before the next rho0's L1 + W is eigensolved.
    mesh = genus2_mesh()
    built, alive = [], []
    build, in_place = MatrixPotential.added_to, measure._eigh_in_place

    def recording_build(*args):
        perturbed = build(*args)
        built.append(weakref.ref(perturbed))
        return perturbed

    def recording_in_place(conj, count=None):
        if conj.shape == (mesh.edge_count, mesh.edge_count):
            alive.append(sum(ref() is not None for ref in built))
        return in_place(conj, count)

    monkeypatch.setattr(MatrixPotential, "added_to", recording_build)
    monkeypatch.setattr(measure, "_eigh_in_place", recording_in_place)
    reports = parameter_sweep(prepare_surface(mesh), [0.5, 1.0], [0.5, 1.0])
    assert all(r.bound_schatten is not None for r in reports)
    assert len(built) == 2
    assert alive == [0, 0]


def test_every_dense_eigensolve_goes_through_eigh_in_place(monkeypatch):
    # The comparison operator, L1 + W, full or cut off below sigma, and the
    # DEC's Ritz block all eigensolve through measure._eigh_in_place: it is
    # the one caller of numpy's eigh and of LAPACK's xSYEVD and xSYEVR.
    callers = []

    def spying(name, solve):
        def spy(*args, **kwargs):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return solve(*args, **kwargs)

        return spy

    for module, name in ((np.linalg, "eigh"), (lapack, "dsyevd"), (lapack, "dsyevr")):
        monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
    mesh = genus2_mesh()
    for p in (2.0, 1.0):
        reports = parameter_sweep(prepare_surface(mesh), [0.5, 1.0], [0.5, 1.0], p=p)
        assert all(r.bound_schatten is not None for r in reports)
    assert {name for name, _ in callers} == {"dsyevd", "dsyevr"}
    assert {caller for _, caller in callers} == {"_eigh_in_place"}


# -- Schatten rows cut off below sigma ----------------------------------------------

_ROW_RESOLUTION = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}


def _cutoff(t0_values, rho0) -> float:
    return max(math.log(1.0 / pipeline._ETA) / (2.0 * min(t0_values)), 2.0 * rho0)


def _same_spectrum(op, full) -> bool:
    """``op`` holds every pair, bit for bit those of ``full`` (another build of L1)."""
    return (
        not op.partial
        and np.array_equal(op.eigenvalues, full.eigenvalues)
        and np.array_equal(op._euclidean_vectors, full._euclidean_vectors)
    )


def _enclosures(data, lap1, rho0, t0_values, cutoff=math.inf, p=2.0):
    """The (upper, lower) ends of the row at rho0 from ``lap1`` and L1 + W below ``cutoff``."""
    potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
    perturbed = potential.added_to(lap1, cutoff)
    return [
        crude_bounds(OperatorPair(H=lap1, Hprime=perturbed, rho0=rho0, t0=2.0 * t0), p)
        for t0 in t0_values
    ]


def _full_row(data, lap1, rho0, t0_values, p=2.0):
    """The row's bounds from every pair of L1 (``lap1``) and of L1 + W."""
    return [upper for upper, _ in _enclosures(data, lap1, rho0, t0_values, p=p)]


def _assert_upper_end_bounds(upper, lower, full):
    """The reported upper end lies above the full-spectrum value, up to 1e-12
    of rounding, and no further above it than the enclosure is wide."""
    assert full <= upper * (1.0 + 1e-12)
    assert upper - full <= (upper - lower) + 1e-12 * upper


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cut_off_schatten_row_matches_the_full_spectrum(name):
    # Each p = 2 bound is the upper end of the enclosure from the pairs of
    # L1 and L1 + W below their cut-offs, however wide the enclosure: it
    # lies above the value from all of the pairs, up to rounding, and
    # exceeds it by at most the enclosure's width.  Flat-torus is the
    # exception below: W = rho0 is constant there.
    t0_values = [0.25, 1.0]
    data = prepare_surface(builtin_mesh(name, _ROW_RESOLUTION.get(name)))
    sigma_a = pipeline._heat_cutoff(t0_values)
    start, lap1 = data.dec.laplacian1(sigma_a), data.dec.laplacian1()
    assert start.partial
    for rho0 in (0.25, 1.0, 2.0):
        row, notes = pipeline._schatten_row(data, lambda: start, sigma_a, rho0, t0_values, 2.0)
        potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
        try:
            full_row = _full_row(data, lap1, rho0, t0_values)
        except ValueError as exc:
            # torus-rev's L1 + W does not clear rho0 = 1 or 2: the cut-off
            # L1 + W's lowest pair is the full one's, and so is the note.
            assert row == [None, None] and notes == (f"schatten bound omitted: {exc}",)
            continue
        assert notes == ()
        enclosures = _enclosures(data, start, rho0, t0_values, _cutoff(t0_values, rho0))
        assert row == [upper for upper, _ in enclosures]
        for t0, (upper, lower), full in zip(t0_values, enclosures, full_row):
            if not np.any(potential.values):
                assert upper == lower == full == 0.0
                continue
            if name == "flat-torus":
                # L1 + W = L1 + rho0, so the bound is exactly
                # 2 + sum_{lam > 0} e^(-4 t0 lam) (that sum underflows here).
                # Both spectra round the repeated eigenvalue rho0 by about
                # 1e-13, which the gap 1 - e^(-2 rho0 t0) amplifies.
                exact = 2.0 + np.sum(np.exp(-4.0 * t0 * lap1.eigenvalues[2:]))
                assert abs(upper - exact) <= 5e-12 * exact
                assert abs(full - exact) <= 5e-12 * exact
                continue
            _assert_upper_end_bounds(upper, lower, full)


@pytest.mark.parametrize(
    "name, rho0, t0", [("flat-torus", 2.0, 8.0), ("genus2", 1.0, 20.0)]
)
def test_cut_off_stays_above_rho0_at_large_rho0_t0(count_eigensolves, name, rho0, t0):
    # With rho0 t0 above ln(1/eta) / 2, ln(1/eta) / (2 t0) lies below rho0,
    # where L1 + W >= rho0 has no eigenvalue: the cut-off must still clear
    # rho0, so the row keeps its bound and eigensolves L1 + W below it.
    data = prepare_surface(builtin_mesh(name, _ROW_RESOLUTION.get(name)))
    assert math.log(1.0 / pipeline._ETA) / (2.0 * t0) < rho0
    ne = data.mesh.edge_count
    sigma_a = pipeline._heat_cutoff([t0])
    start = data.dec.laplacian1(sigma_a)
    assert start.partial
    calls = count_eigensolves()
    row, notes = pipeline._schatten_row(data, lambda: start, sigma_a, rho0, [t0], 2.0)
    assert notes == ()
    [(n, pairs)] = calls
    assert n == ne and pairs < ne
    [full] = _full_row(data, data.dec.laplacian1(), rho0, [t0])
    if name == "flat-torus":
        # The rounding of the repeated eigenvalue rho0, as above.
        assert abs(row[0] - full) <= 5e-12 * full
    else:
        assert full * (1.0 - 1e-14) <= row[0] <= full * (1.0 + 1e-12)


def test_p2_schatten_row_runs_no_edge_square_full_eigensolve(count_eigensolves):
    # With W nonzero, a p = 2 row eigensolves L1 + W once, for its pairs
    # below the cut-off and the first above it: no E x E xSYEVD runs.  Any
    # other p takes every pair of L1 + W, against the full L1.
    data = prepare_surface(genus2_mesh())
    ne = data.mesh.edge_count
    assert np.any(synthetic_edge_potential(data.dec, data.curvature, 1.0).values)
    sigma_a = pipeline._heat_cutoff([0.5, 1.0])
    start = data.dec.laplacian1(sigma_a)
    assert start.partial and start.eigenvalues.size < ne // 2
    calls = count_eigensolves()
    row, notes = pipeline._schatten_row(data, lambda: start, sigma_a, 1.0, [0.5, 1.0], 2.0)
    assert notes == () and all(bound > data.b1 for bound in row)
    [(n, pairs)] = calls
    assert n == ne and pairs < ne // 2
    lap1 = data.dec.laplacian1()
    calls.clear()
    row, notes = pipeline._schatten_row(data, lambda: lap1, math.inf, 1.0, [0.5, 1.0], 1.0)
    assert notes == () and calls == [(ne, ne)]


@pytest.mark.parametrize("miscount", [-1, 1, None], ids=["inertia-low", "inertia-high", "singular"])
def test_refused_cut_off_falls_back_to_the_full_spectrum(count_eigensolves, monkeypatch, miscount):
    # An inertia count of L1 + W - sigma that the solver does not confirm,
    # or a shift the sparse factorization finds singular, refuses that
    # cut-off (``CutOffRefused``): the row then eigensolves all of L1 + W,
    # and only L1 + W, against the L1 below the cut-off it started from.
    # Each bound is that mixed enclosure's upper end, bit for bit, with no
    # note, and within 1e-12 of the bound the unrefused cut-off gives.
    # Only the counts of L1 + W are made wrong: L1's Hodge count and the
    # comparison operator keep their cut-offs.
    data = prepare_surface(genus2_mesh())
    rho0_values, t0_values = [0.5, 1.0], [1.0]
    ne, nv, nf = data.mesh.edge_count, data.mesh.vertex_count, data.mesh.face_count
    sigma_a = pipeline._heat_cutoff(t0_values)
    start = data.dec.laplacian1(sigma_a)
    assert start.partial
    expected = [_full_row(data, start, rho0, t0_values)[0] for rho0 in rho0_values]
    unrefused = [
        _enclosures(data, start, rho0, t0_values, _cutoff(t0_values, rho0))[0][0]
        for rho0 in rho0_values
    ]
    l1_diagonal = np.sort(start.conjugated().diagonal())
    inertia = measure._inertia

    def miscounting(permuted, sigma):
        if permuted.shape[0] != ne or np.array_equal(np.sort(permuted.diagonal()), l1_diagonal):
            return inertia(permuted, sigma)
        if miscount is None:
            raise measure.CutOffRefused(f"inertia count failed at the shift {sigma:.6g}: singular")
        lu, below = inertia(permuted, sigma)
        return lu, below + miscount

    monkeypatch.setattr(measure, "_inertia", miscounting)
    calls = count_eigensolves()
    reports = parameter_sweep(data, rho0_values, t0_values)
    assert [r.bound_schatten for r in reports] == expected
    assert all(r.notes == () and r.passed for r in reports)
    for bound, cut_off in zip(expected, unrefused):
        assert abs(bound - cut_off) <= 1e-12 * cut_off
    comparison = data.dec.laplacian0_matrix() + diags(data.curvature.values)
    sigma_c = pipeline._comparison_cutoff(data, t0_values)
    assert calls[0] == (nv, _pairs_below(comparison, data.dec.vertex_space(), sigma_c) + 1)
    assert not {(nv, nv), (nf, nf)} & set(calls)
    edge_solves = [call for call in calls if call[0] == ne]
    if miscount is None:
        assert edge_solves == [(ne, ne)] * 2
    else:
        # Each row asked dsyevr for its pairs first, then took every pair.
        assert len(edge_solves) == 4 and edge_solves[1::2] == [(ne, ne)] * 2
        assert all(pairs < ne for _, pairs in edge_solves[::2])


@pytest.mark.parametrize("miscount", [-1, 1], ids=["inertia-low", "inertia-high"])
def test_refused_hodge_count_falls_back_to_the_full_laplacian1(monkeypatch, miscount):
    # An inertia of L1 - sigma_A I that disagrees with b1 + k0 + k2 refuses
    # L1 below the cut-off; the sweep then assembles the full L1 once, for
    # every row, and only L1: each L1 + W is still eigensolved below its
    # cut-off.  Every row gives, bit for bit and with no note, the bounds
    # its row gives from the full L1 (a second build).
    data = prepare_surface(genus2_mesh())
    rho0_values, t0_values = [0.5, 1.0], [0.5, 1.0]
    lap1 = data.dec.laplacian1()
    sigma_a = pipeline._heat_cutoff(t0_values)
    expected = [
        bound
        for rho0 in rho0_values
        for bound in pipeline._schatten_row(data, lambda: lap1, sigma_a, rho0, t0_values, 2.0)[0]
    ]
    s1 = lap1.conjugated()
    count_below = measure._count_below
    assembled, perturbed = [], []
    assemble, build = DECOperators.laplacian1, MatrixPotential.added_to

    def miscounting(conj, cutoff):
        # Only L1's own count: L1 + W has the same pattern, other values.
        count = count_below(conj, cutoff)
        if conj.shape == s1.shape and np.array_equal(conj.data, s1.data):
            count += miscount
        return count

    def recording_assemble(self, cutoff=math.inf):
        assembled.append(cutoff)
        return assemble(self, cutoff)

    def recording_build(potential, H, cutoff=math.inf):
        result = build(potential, H, cutoff)
        perturbed.append((_same_spectrum(H, lap1), result.partial))
        return result

    monkeypatch.setattr(measure, "_count_below", miscounting)
    with pytest.raises(ValueError, match="not certified: the inertia counts"):
        data.dec.laplacian1(sigma_a)
    monkeypatch.setattr(DECOperators, "laplacian1", recording_assemble)
    monkeypatch.setattr(MatrixPotential, "added_to", recording_build)
    reports = parameter_sweep(data, rho0_values, t0_values)
    assert [r.bound_schatten for r in reports] == expected
    assert all(r.notes == () and r.passed for r in reports)
    assert assembled == [sigma_a, math.inf]
    assert perturbed == [(True, True)] * 2


def test_failed_cut_off_row_check_eigensolves_nothing_more(count_eigensolves):
    # torus-rev at rho0 = 0.5, t0 = 1 (a golden case): the lowest pair of
    # L1 + W below its cut-off already fails L1 + W >= rho0, so the row
    # writes its note from that operator.  No full L1 (its Hodge pieces
    # L0 and L2) and no full L1 + W is eigensolved, and the note is the
    # golden one, byte for byte.
    data = prepare_surface(builtin_mesh("torus-rev"))
    dec = data.dec
    nv, ne, nf = data.mesh.vertex_count, data.mesh.edge_count, data.mesh.face_count
    calls = count_eigensolves()
    (report,) = parameter_sweep(data, [0.5], [1.0])
    golden = json.loads((Path(__file__).parent / "golden" / "torus-rev.json").read_text())
    assert list(report.notes) == golden["reports"][0]["notes"]
    assert report.bound_schatten is None
    sigma_a = pipeline._heat_cutoff([1.0])
    perturbed = dec.laplacian1_matrix() + diags(
        synthetic_edge_potential(dec, data.curvature, 0.5).values.ravel()
    )
    comparison = dec.laplacian0_matrix() + diags(data.curvature.values)
    sigma_c = pipeline._comparison_cutoff(data, [1.0])
    assert calls == [
        (nv, _pairs_below(comparison, dec.vertex_space(), sigma_c) + 1),
        (nv, _pairs_below(dec.laplacian0_matrix(), dec.vertex_space(), sigma_a) + 1),
        (nf, _pairs_below(dec.laplacian2_matrix(), dec.face_space(), sigma_a) + 1),
        (data.b1, data.b1),
        (ne, _pairs_below(perturbed, dec.edge_space(), _cutoff([1.0], 0.5)) + 1),
    ]
    assert not {(nv, nv), (nf, nf), (ne, ne)} & set(calls)


@pytest.mark.parametrize("refusals", [1, None], ids=["once", "always"])
def test_refused_comparison_cut_off_is_rebuilt_once_with_every_pair(monkeypatch, refusals):
    # A refused count of L0 + K - sigma_C is answered once: the sweep
    # builds the comparison operator again at sigma = inf, where no count
    # is taken, and it is the full operator bit for bit, whether the count
    # would be refused once or every time.
    data = prepare_surface(genus2_mesh())
    nv = data.mesh.vertex_count
    full = schrodinger_comparison(data.dec, data.curvature.values)
    inertia, build = measure._inertia, pipeline.schrodinger_comparison
    refused, asked, built = [], [], []

    def miscounting(permuted, sigma):
        lu, below = inertia(permuted, sigma)
        if permuted.shape[0] == nv and (refusals is None or len(refused) < refusals):
            refused.append(sigma)
            below += 1
        return lu, below

    def recording(dec, rho, cutoff):
        asked.append(cutoff)
        built.append(build(dec, rho, cutoff))
        return built[-1]

    monkeypatch.setattr(measure, "_inertia", miscounting)
    monkeypatch.setattr(pipeline, "schrodinger_comparison", recording)
    sigma_c = pipeline._comparison_cutoff(data, [1.0])
    (report,) = parameter_sweep(data, [0.5], [1.0], compute_schatten=False)
    assert 0.0 < sigma_c < measure._radius_bound(full.conjugated())
    assert asked == [sigma_c, math.inf] and refused == [sigma_c]
    (part,) = built
    assert not part.partial
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    assert np.array_equal(part._euclidean_vectors, full._euclidean_vectors)
    assert report.intermediate["comparison_two_inf"] == heat_two_inf_norm(full, 1.0)


def test_wide_enclosure_row_keeps_its_cut_off(count_eigensolves, monkeypatch):
    # bumpy-sphere(2) at t0 = 0.25: at rho0 = 1 the cut-off enclosure is
    # wider than eta relative to its upper end (the orthogonality loss of
    # both bases, set against the bound).  The row still reports that
    # upper end, which bounds the certificate from above: no E x E
    # eigensolve runs, the sweep assembles L1 once, below its cut-off, for
    # both rows, and drops one row's L1 + W before it builds the next.
    mesh = builtin_mesh("bumpy-sphere", 2)
    rho0_values, t0 = [0.5, 1.0], 0.25
    data = prepare_surface(mesh)
    ne = mesh.edge_count
    sigma_a = pipeline._heat_cutoff([t0])
    alive, built, assembled = [], [], []
    build, assemble = MatrixPotential.added_to, DECOperators.laplacian1

    def recording_build(*args):
        alive.append(sum(ref() is not None for ref in built))
        perturbed = build(*args)
        built.append(weakref.ref(perturbed))
        return perturbed

    def recording_assemble(self, cutoff=math.inf):
        assembled.append(cutoff)
        return assemble(self, cutoff)

    monkeypatch.setattr(MatrixPotential, "added_to", recording_build)
    monkeypatch.setattr(DECOperators, "laplacian1", recording_assemble)
    calls = count_eigensolves()
    reports = parameter_sweep(data, rho0_values, [t0])
    assert (ne, ne) not in calls
    assert assembled == [sigma_a] and alive == [0, 0]
    monkeypatch.undo()
    start, lap1 = data.dec.laplacian1(sigma_a), data.dec.laplacian1()
    wide = []
    for rho0, report in zip(rho0_values, reports):
        [(upper, lower)] = _enclosures(data, start, rho0, [t0], _cutoff([t0], rho0))
        assert report.bound_schatten == upper and report.notes == ()
        [full] = _full_row(data, lap1, rho0, [t0])
        _assert_upper_end_bounds(upper, lower, full)
        wide.append(upper - lower > pipeline._ETA * upper)
    assert wide[1]


def _peak_bytes(call) -> int:
    """The peak of the memory traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_heat_two_inf_norm_matches_the_semigroup_route(name):
    # At t = 4 most squared heat eigenvalues of the spheres underflow to 0.
    data = prepare_surface(builtin_mesh(name))
    comparison = schrodinger_comparison(data.dec, data.curvature.values)
    for t in (0.5, 1.0, 4.0):
        expected = two_inf_norm(comparison.semigroup(t))
        assert abs(heat_two_inf_norm(comparison, t) - expected) <= 1e-14 * expected
    if name == "bumpy-sphere":
        heat = np.exp(-4.0 * comparison.eigenvalues)
        assert np.count_nonzero(heat * heat == 0.0) > comparison.dim // 2
    # After the first call a call builds no N x N array; the semigroup
    # route builds several.
    square = comparison.dim**2 * 8
    assert _peak_bytes(lambda: heat_two_inf_norm(comparison, 2.0)) < square
    assert _peak_bytes(lambda: two_inf_norm(comparison.semigroup(2.0))) >= square


_TRUNCATION_T0 = [0.25, 0.5, 1.0, 2.0, 4.0, 400.0]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_truncated_two_inf_norm_bounds_the_full_one(name):
    # Below the sigma_C of the whole t0 list, and of each t0 alone, the
    # norm from the kept pairs and the tail term is at least the
    # full-spectrum norm and exceeds it by at most 1e-12 of it (the dropped
    # tail is at most eta = 1e-12 of the squared norm).  xSYEVR and xSYEVD
    # round the kept eigenvalues differently, by at most delta, which moves
    # e^(-t0 lam) by a relative t0 delta either way, so both ends widen by
    # e^(t0 delta): delta is at most about 2e-13 on the builtins, so that
    # is 1 + 8e-13 at t0 = 4, and up to 1 + 8e-11 at t0 = 400.
    data = prepare_surface(builtin_mesh(name))
    full = schrodinger_comparison(data.dec, data.curvature.values)
    for grid in [_TRUNCATION_T0, *([t0] for t0 in _TRUNCATION_T0)]:
        cutoff = pipeline._comparison_cutoff(data, grid)
        part = schrodinger_comparison(data.dec, data.curvature.values, cutoff)
        kept = part.eigenvalues.size
        assert part.partial or kept == full.dim
        delta = float(np.max(np.abs(part.eigenvalues - full.eigenvalues[:kept])))
        assert delta <= 1e-12
        for t0 in grid:
            truncated, exact = heat_two_inf_norm(part, t0), heat_two_inf_norm(full, t0)
            drift = math.exp(t0 * delta)
            assert math.isfinite(exact)
            assert exact * (1.0 - 1e-14) / drift <= truncated <= exact * (1.0 + 1e-12) * drift


def test_large_t0_main_bound_overflows_to_inf_with_no_warning(tmp_path):
    # genus2(12)'s comparison operator has a negative lowest eigenvalue, so
    # at t0 = 400 its squared 2->inf norm exceeds the float range: the
    # norm and bound_main are inf, and no warning is raised, even with
    # every warning an error.
    out = tmp_path / "report.json"
    argv = [
        "betti-bound", "--builtin", "genus2", "--resolution", "12", "--rho0", "0.5",
        "--t0", "400", "--no-schatten", "--quiet", "--out", str(out),
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bettibound.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr and "Error" not in result.stderr
    (report,) = json.loads(out.read_text())["reports"]
    assert report["bound_main"] == report["intermediate"]["comparison_two_inf"] == "inf"


def test_main_bound_point_builds_no_vertex_square_array():
    # The first point eigensolves the comparison operator below its
    # sigma_C: besides the V x V buffer that xSYEVR reduces in place, it
    # keeps a V x (K + 1) eigenvector array, where every pair took about
    # three V x V arrays.  Its 2->inf norm reads the squared V x K basis,
    # built there too, and a norm at another t0 allocates O(V).  Each point
    # is its own sweep and builds its own operator.
    data = prepare_surface(builtin_mesh("bumpy-sphere"))
    square = data.mesh.vertex_count**2 * 8

    def point(t0):
        inputs = BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=t0, compute_schatten=False)
        return betti_bound(inputs, data=data)

    assert _peak_bytes(lambda: point(1.0)) < 2 * square
    assert _peak_bytes(lambda: point(4.0)) < 2 * square
    cutoff = pipeline._comparison_cutoff(data, [1.0])
    part = schrodinger_comparison(data.dec, data.curvature.values, cutoff)
    assert part.partial and 4 * part.eigenvalues.size < part.dim
    heat_two_inf_norm(part, 1.0)
    assert _peak_bytes(lambda: heat_two_inf_norm(part, 4.0)) < square
    every_pair = _peak_bytes(lambda: schrodinger_comparison(data.dec, data.curvature.values))
    assert every_pair >= 3 * square


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_spectral_schatten_bound_matches_dense_route(name):
    # Each rho0 has a nonzero W that L1 + W clears: W vanishes below the
    # curvature of the spheres, and the torus of revolution fails at 0.4.
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    rho0_values = {"sphere": (1.5, 2.0), "bumpy-sphere": (0.5, 1.0), "torus-rev": (0.1, 0.3)}
    rho0_values = rho0_values.get(name, (0.3, 1.0))
    data = prepare_surface(builtin_mesh(name, resolution))
    lap1 = data.dec.laplacian1()
    for rho0 in rho0_values:
        potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
        perturbed = potential.added_to(lap1)
        pair = OperatorPair(H=lap1, Hprime=perturbed, rho0=rho0, t0=1.4)
        spectral = crude_bounds(pair, 2.0)[0]
        gap = 1.0 - np.exp(-rho0 * pair.t0)
        scaled = WeightedOperator(
            heat_difference(pair.H, pair.Hprime, pair.t0).matrix / gap, lap1.space
        )
        dense = schatten_power_sum(scaled, 2.0)
        assert perturbed is not lap1
        assert abs(spectral - dense) <= 1e-12 * dense


def test_sweep_rejects_empty_grid(torus_data):
    with pytest.raises(ValueError, match="nonempty"):
        parameter_sweep(torus_data, [], [1.0])


# -- prefactor identity -------------------------------------------------------------


def test_prefactor_identity_randomized():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho0 = float(rng.uniform(0.01, 10.0))
        t0 = float(rng.uniform(0.01, 10.0))
        sharp, loose = prefactors(rho0, t0)
        assert sharp <= loose
        assert np.isclose(loose, 8.0 / rho0**2, rtol=1e-12)


def test_inputs_validation():
    with pytest.raises(ValueError):
        BettiBoundInputs(surface=RoundSphere(), rho0=0.0, t0=1.0)
    with pytest.raises(ValueError):
        BettiBoundInputs(surface=RoundSphere(), rho0=1.0, t0=-1.0)


def test_inputs_reject_a_rho0_whose_prefactor_overflows(sphere_data):
    # The sharp denominator (rho0 (1 + e^(-t0 rho0)))^2 grows as t0 falls:
    # at t0 = 1e-160 it is 4 rho0^2, which overflows at 1e154, where rho0^2
    # alone does not.
    with pytest.raises(ValueError, match="rho0 is too large"):
        BettiBoundInputs(surface=RoundSphere(), rho0=1e155, t0=1.0)
    with pytest.raises(ValueError, match="rho0 is too large"):
        BettiBoundInputs(surface=RoundSphere(), rho0=1e154, t0=1e-160)
    BettiBoundInputs(surface=RoundSphere(), rho0=1e154, t0=1.0)
    with pytest.raises(ValueError, match="rho0 is too large"):
        parameter_sweep(sphere_data, [1e154], [1.0, 1e-160])
    # At the other end it underflows to 0 (rho0 = 1e-300), or the prefactor
    # overflows: at t0 = 1e160 the denominator is rho0^2 = 2.25e-308, and
    # 8 / rho0^2 is inf, where 8 / (4 rho0^2) at t0 = 1 is not.
    with pytest.raises(ValueError, match="rho0 is too small"):
        BettiBoundInputs(surface=RoundSphere(), rho0=1e-300, t0=1.0)
    with pytest.raises(ValueError, match=r"rho0 is too small: .* t0=1e\+160"):
        BettiBoundInputs(surface=RoundSphere(), rho0=1.5e-154, t0=1e160)
    BettiBoundInputs(surface=RoundSphere(), rho0=1.5e-154, t0=1.0)
    BettiBoundInputs(surface=RoundSphere(), rho0=1e-150, t0=1.0)
    with pytest.raises(ValueError, match="rho0 is too small"):
        parameter_sweep(sphere_data, [1.5e-154], [1.0, 1e160])


@pytest.mark.parametrize(
    "name,value",
    [
        (name, value)
        for name in ("rho0", "t0", "p")
        for value in (float("nan"), float("inf"), -1.0, 0.0)
    ],
)
def test_inputs_reject_non_finite_or_nonpositive_parameters(name, value):
    params = {"rho0": 0.5, "t0": 1.0, "p": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
        BettiBoundInputs(surface=RoundSphere(), **params)
