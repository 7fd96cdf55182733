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
from bettibound.birman import OperatorPair, crude_hs_enclosure, crude_kernel_bound
from bettibound.dec import DECOperators, schrodinger_comparison
from bettibound.measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
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
from bettibound.pipeline import (
    BettiBoundInputs,
    betti_bound,
    parameter_sweep,
    prefactors,
    prepare_surface,
    schatten_operator,
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


def test_analytic_curvature_source_path():
    report = betti_bound(
        BettiBoundInputs(
            surface=BumpySphere(),
            rho0=0.1,
            t0=1.0,
            resolution=2,
            curvature_source="analytic",
        )
    )
    assert report.bound_main == 0.0
    assert report.passed
    with pytest.raises(ValueError, match="analytic"):
        prepare_surface(genus2_mesh(), curvature_source="analytic")


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
    lap1 = torus_data.laplacian1
    potential = synthetic_edge_potential(
        torus_data.dec, torus_data.curvature, rho0,
        edge_scalar=np.zeros(torus_data.mesh.edge_count),
    )
    assert np.allclose(potential.values.reshape(-1), rho0)
    perturbed = schatten_operator(lap1, potential, rho0)
    pair = OperatorPair(H=lap1, Hprime=perturbed, rho0=rho0, t0=2.0 * t0)
    value = crude_kernel_bound(pair, 2.0)
    oracle = float(np.sum(np.exp(-2.0 * (2.0 * t0) * lap1.eigenvalues)))
    assert np.isclose(value, oracle, rtol=1e-9)
    assert value >= 2.0 - 1e-9 * (1.0 + value)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_schatten_bound_dominates_kernel_both_exponents(torus_data, p):
    rho0, t0 = 0.4, 0.7
    potential = synthetic_edge_potential(torus_data.dec, torus_data.curvature, rho0)
    perturbed = schatten_operator(torus_data.laplacian1, potential, rho0)
    pair = OperatorPair(H=torus_data.laplacian1, Hprime=perturbed, rho0=rho0, t0=2.0 * t0)
    value = crude_kernel_bound(pair, p)
    assert value >= torus_data.b1 - 1e-9 * (1.0 + value)


def test_schatten_bound_trivial_kernel_on_sphere(sphere_data):
    rho0, t0 = 0.5, 1.0
    potential = synthetic_edge_potential(sphere_data.dec, sphere_data.curvature, rho0)
    perturbed = schatten_operator(sphere_data.laplacian1, potential, rho0)
    pair = OperatorPair(H=sphere_data.laplacian1, Hprime=perturbed, rho0=rho0, t0=2.0 * t0)
    value = crude_kernel_bound(pair, 2.0)
    assert value >= 0.0
    assert sphere_data.b1 == 0


def test_schatten_bound_spectral_check_enforced(torus_data):
    # rho0 above what L1 + V can reach must be rejected, not silently used.
    rho0 = 50.0
    potential = synthetic_edge_potential(
        torus_data.dec, torus_data.curvature, 0.1,
        edge_scalar=np.zeros(torus_data.mesh.edge_count),
    )
    with pytest.raises(ValueError, match="spectral check failed"):
        schatten_operator(torus_data.laplacian1, potential, rho0)


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
    # for its pairs below the cut-off and the first one above it (here
    # every enclosure is narrow enough at the first cut-off).  So no solve
    # takes every pair of an E x E matrix.  Any other p takes every pair of
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
    comparison = data.comparison_below(pipeline._comparison_cutoff(data, t0s))
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
    part = data.comparison_below(pipeline._comparison_cutoff(data, [0.5, 1.0]))
    assert vectors[0].shape == (nv, part.eigenvalues.size + 1) and part.partial


def test_zero_edge_potential_gives_exact_zero_without_eigensolve(count_eigensolves):
    # Curvature 1 everywhere above rho0 = 0.5 leaves W = 0, so L1 + W is
    # L1 itself: no eigensolve, and a bitwise-zero Schatten bound.  The
    # eigensolves are, at the first p = 2 point, the pairs of the
    # comparison operator L0 + K below that point's sigma_C, and of L0 and
    # L2 below its sigma_A for its L1 below the cut-off (b1 = 0 leaves no
    # Rayleigh-Ritz block).  The prepared surface holds both, and the
    # second point, whose larger t0 needs lower cut-offs, eigensolves
    # nothing: one Hodge assembly below the cut-off for both calls.  Read
    # afterwards, the full L1 eigensolves its Hodge pieces L0 (V x V) and
    # L2 (F x F), and takes the partial L1's place on the surface.
    data = prepare_surface(RoundSphere(), resolution=2)
    calls = count_eigensolves()
    potential = synthetic_edge_potential(data.dec, data.curvature, 0.5)
    assert not np.any(potential.values)
    nv, nf = data.mesh.vertex_count, data.mesh.face_count
    dec = data.dec
    comparison = dec.laplacian0_matrix() + diags(data.curvature.values)
    sigma_c, sigma_a = pipeline._comparison_cutoff(data, [1.0]), pipeline._heat_cutoff([1.0])
    expected = [
        (nv, _pairs_below(comparison, dec.vertex_space(), sigma_c) + 1),
        (nv, _pairs_below(dec.laplacian0_matrix(), dec.vertex_space(), sigma_a) + 1),
        (nf, _pairs_below(dec.laplacian2_matrix(), dec.face_space(), sigma_a) + 1),
        (nv, nv),
        (nf, nf),
    ]
    held = []
    for t0 in (1.0, 3.0):
        report = betti_bound(
            BettiBoundInputs(surface=RoundSphere(), rho0=0.5, t0=t0), data=data
        )
        assert report.bound_schatten == 0.0
        held.append(data.laplacian1_below(pipeline._heat_cutoff([t0])))
    assert schatten_operator(data.laplacian1, potential, 0.5) is data.laplacian1
    assert calls == expected
    part = held[0]
    assert held[1] is part and part.partial and part.cutoff == sigma_a
    assert schatten_operator(part, potential, 0.5) is part
    assert data._held["laplacian1"] is data.laplacian1 and not data.laplacian1.partial


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
    build, in_place = pipeline.schatten_operator, measure._eigh_in_place
    lowest = measure._eigh_lowest_in_place

    def recording_build(*args):
        perturbed = build(*args)
        built.append(weakref.ref(perturbed))
        return perturbed

    def recording_in_place(conj):
        if conj.shape == (mesh.edge_count, mesh.edge_count):
            alive.append(sum(ref() is not None for ref in built))
        return in_place(conj)

    def recording_lowest(conj, count):
        if conj.shape == (mesh.edge_count, mesh.edge_count):
            alive.append(sum(ref() is not None for ref in built))
        return lowest(conj, count)

    monkeypatch.setattr(pipeline, "schatten_operator", recording_build)
    monkeypatch.setattr(measure, "_eigh_in_place", recording_in_place)
    monkeypatch.setattr(measure, "_eigh_lowest_in_place", recording_lowest)
    reports = parameter_sweep(prepare_surface(mesh), [0.5, 1.0], [0.5, 1.0])
    assert all(r.bound_schatten is not None for r in reports)
    assert len(built) == 2
    assert alive == [0, 0]


# -- Schatten rows cut off below sigma ----------------------------------------------

_ROW_RESOLUTION = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}


def _cutoff(t0_values, rho0) -> float:
    return max(math.log(1.0 / pipeline._ETA) / (2.0 * min(t0_values)), 2.0 * rho0)


def _same_spectrum(op, full) -> bool:
    """``op`` holds every pair, bit for bit those of ``full`` (another surface's L1)."""
    return (
        not op.partial
        and np.array_equal(op.eigenvalues, full.eigenvalues)
        and np.array_equal(op._euclidean_vectors, full._euclidean_vectors)
    )


def _full_row(data, rho0, t0_values, p=2.0):
    """The row's bounds from every pair of L1 + W."""
    lap1 = data.laplacian1
    potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
    full_op = schatten_operator(lap1, potential, rho0)
    return [
        crude_kernel_bound(OperatorPair(H=lap1, Hprime=full_op, rho0=rho0, t0=2.0 * t0), p)
        for t0 in t0_values
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cut_off_schatten_row_matches_the_full_spectrum(name):
    # Where every enclosure from the pairs of L1 and L1 + W below their
    # cut-offs is narrower than eta, each p = 2 bound is its upper end,
    # which lies above the value from all of the pairs and exceeds it by at
    # most 1e-12 of it; elsewhere the row is the full-spectrum one, bit for
    # bit, and leaves the full L1 on the surface for the next row, as the
    # sweep does.  The full-spectrum rows come from a second prepared
    # surface, whose full L1 would take the place of the partial one.
    # Flat-torus is the exception below: W = rho0 is constant there.
    t0_values = [0.25, 1.0]
    mesh = builtin_mesh(name, _ROW_RESOLUTION.get(name))
    data, reference = prepare_surface(mesh), prepare_surface(mesh)
    lap1 = reference.laplacian1
    assert data.laplacian1_below(pipeline._heat_cutoff(t0_values)).partial
    for rho0 in (0.25, 1.0, 2.0):
        start = data.laplacian1_below(pipeline._heat_cutoff(t0_values))
        row, notes = pipeline._schatten_row(data, rho0, t0_values, 2.0)
        held = data._held["laplacian1"]
        potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
        try:
            full_row = _full_row(reference, rho0, t0_values)
        except ValueError as exc:
            # torus-rev's L1 + W does not clear rho0 = 1 or 2: the note is the full path's.
            assert row == [None, None] and notes == (f"schatten bound omitted: {exc}",)
            assert _same_spectrum(held, lap1)
            continue
        assert notes == ()
        part = schatten_operator(start, potential, rho0, _cutoff(t0_values, rho0))
        enclosures = [
            crude_hs_enclosure(OperatorPair(H=start, Hprime=part, rho0=rho0, t0=2.0 * t0))
            for t0 in t0_values
        ]
        if not all(upper - lower <= pipeline._ETA * upper for upper, lower in enclosures):
            assert part.partial and row == full_row and _same_spectrum(held, lap1)
            continue
        assert row == [upper for upper, _ in enclosures] and held is start
        for t0, bound, full in zip(t0_values, row, full_row):
            if not np.any(potential.values):
                assert part is start and bound == full == 0.0
                continue
            if name == "flat-torus":
                # L1 + W = L1 + rho0, so the bound is exactly
                # 2 + sum_{lam > 0} e^(-4 t0 lam) (that sum underflows here).
                # Both spectra round the repeated eigenvalue rho0 by about
                # 1e-13, which the gap 1 - e^(-2 rho0 t0) amplifies.
                exact = 2.0 + np.sum(np.exp(-4.0 * t0 * lap1.eigenvalues[2:]))
                assert abs(bound - exact) <= 5e-12 * exact
                assert abs(full - exact) <= 5e-12 * exact
                continue
            assert full * (1.0 - 1e-14) <= bound <= full * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "name, rho0, t0", [("flat-torus", 2.0, 8.0), ("genus2", 1.0, 20.0)]
)
def test_cut_off_stays_above_rho0_at_large_rho0_t0(count_eigensolves, name, rho0, t0):
    # With rho0 t0 above ln(1/eta) / 2, ln(1/eta) / (2 t0) lies below rho0,
    # where L1 + W >= rho0 has no eigenvalue: the cut-off must still clear
    # rho0, so the row keeps its bound and takes the cut-off path.
    data = prepare_surface(builtin_mesh(name, _ROW_RESOLUTION.get(name)))
    assert math.log(1.0 / pipeline._ETA) / (2.0 * t0) < rho0
    ne = data.mesh.edge_count
    held = data.laplacian1_below(pipeline._heat_cutoff([t0]))
    assert held.partial
    calls = count_eigensolves()
    row, notes = pipeline._schatten_row(data, rho0, [t0], 2.0)
    assert notes == () and data._held["laplacian1"] is held
    [(n, pairs)] = calls
    assert n == ne and pairs < ne
    [full] = _full_row(data, rho0, [t0])
    if name == "flat-torus":
        # The rounding of the repeated eigenvalue rho0, as above.
        assert abs(row[0] - full) <= 5e-12 * full
    else:
        assert full * (1.0 - 1e-14) <= row[0] <= full * (1.0 + 1e-12)


def test_p2_schatten_row_runs_no_edge_square_full_eigensolve(count_eigensolves):
    # With W nonzero, a p = 2 row eigensolves L1 + W once, for its pairs
    # below the cut-off and the first above it: no E x E xSYEVD runs, and
    # the surface keeps the L1 below the cut-off the row started from.  Any
    # other p takes every pair of L1 + W, against the full L1.
    data = prepare_surface(genus2_mesh())
    ne = data.mesh.edge_count
    assert np.any(synthetic_edge_potential(data.dec, data.curvature, 1.0).values)
    held = data.laplacian1_below(pipeline._heat_cutoff([0.5, 1.0]))
    assert held.partial and held.eigenvalues.size < ne // 2
    calls = count_eigensolves()
    row, notes = pipeline._schatten_row(data, 1.0, [0.5, 1.0], 2.0)
    assert notes == () and all(bound > data.b1 for bound in row)
    assert data._held["laplacian1"] is held
    [(n, pairs)] = calls
    assert n == ne and pairs < ne // 2
    lap1 = data.laplacian1
    calls.clear()
    row, notes = pipeline._schatten_row(data, 1.0, [0.5, 1.0], 1.0)
    assert notes == () and calls == [(ne, ne)] and data._held["laplacian1"] is lap1


@pytest.mark.parametrize("miscount", [-1, 1, None], ids=["inertia-low", "inertia-high", "singular"])
def test_refused_cut_off_falls_back_to_the_full_spectrum(count_eigensolves, monkeypatch, miscount):
    # An inertia count the solver does not confirm, or a shift the sparse
    # factorization finds singular, refuses the cut-off (``CutOffRefused``);
    # the row then eigensolves all of L1 + W and reports the full-spectrum
    # bounds, bit for bit, with no note.  Only the edge counts are made
    # wrong: the comparison operator keeps its pairs below sigma_C.
    data = prepare_surface(genus2_mesh())
    ne, nv = data.laplacian1.dim, data.mesh.vertex_count
    expected = [_full_row(data, rho0, [1.0])[0] for rho0 in (0.5, 1.0)]
    inertia = measure._inertia

    def miscounting(permuted, sigma):
        if permuted.shape[0] != ne:
            return inertia(permuted, sigma)
        if miscount is None:
            raise measure.CutOffRefused(f"inertia count failed at the shift {sigma:.6g}: singular")
        lu, below = inertia(permuted, sigma)
        return lu, below + miscount

    monkeypatch.setattr(measure, "_inertia", miscounting)
    calls = count_eigensolves()
    reports = parameter_sweep(data, [0.5, 1.0], [1.0])
    assert [r.bound_schatten for r in reports] == expected
    assert all(r.notes == () and r.passed for r in reports)
    comparison = data.dec.laplacian0_matrix() + diags(data.curvature.values)
    sigma_c = pipeline._comparison_cutoff(data, [1.0])
    assert calls[0] == (nv, _pairs_below(comparison, data.dec.vertex_space(), sigma_c) + 1)
    assert (nv, nv) not in calls
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
    # L1 below the cut-off (a ValueError); the sweep then holds the full L1,
    # and every row gives, bit for bit and with no note, the bounds its
    # rows give from the full L1 (held on a second prepared surface).
    mesh = genus2_mesh()
    data, reference = prepare_surface(mesh), prepare_surface(mesh)
    rho0_values, t0_values = [0.5, 1.0], [0.5, 1.0]
    lap1 = reference.laplacian1
    expected = [
        bound
        for rho0 in rho0_values
        for bound in pipeline._schatten_row(reference, rho0, t0_values, 2.0)[0]
    ]
    sigma_a = pipeline._heat_cutoff(t0_values)
    s1 = lap1.conjugated()
    count_below = measure._count_below

    def miscounting(conj, cutoff):
        # Only L1's own count: L1 + W has the same pattern, other values.
        count, radius = count_below(conj, cutoff)
        if conj.shape == s1.shape and np.array_equal(conj.data, s1.data):
            count += miscount
        return count, radius

    monkeypatch.setattr(measure, "_count_below", miscounting)
    with pytest.raises(ValueError, match="not certified: the inertia counts"):
        data.dec.laplacian1(sigma_a)
    held = []
    schatten_row = pipeline._schatten_row

    def recording_row(data, *args):
        row = schatten_row(data, *args)
        held.append(data._held["laplacian1"])
        return row

    monkeypatch.setattr(pipeline, "_schatten_row", recording_row)
    reports = parameter_sweep(data, rho0_values, t0_values)
    assert [r.bound_schatten for r in reports] == expected
    assert all(r.notes == () and r.passed for r in reports)
    assert held[0] is held[1] and _same_spectrum(held[0], lap1)


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
    assert data._held["laplacian1"].partial


@pytest.mark.parametrize("refusals", [1, None], ids=["once", "always"])
def test_refused_comparison_cut_off_doubles_its_margin(monkeypatch, refusals):
    # A refused count doubles the comparison cut-off's margin above the
    # mean curvature rho_bar until one is certified: after one refusal the
    # operator holds the pairs below rho_bar + 2 (sigma_C - rho_bar); a
    # count that is always refused raises the cut-off past the radius
    # bound, where the operator holds every pair, bit for bit.
    data = prepare_surface(genus2_mesh())
    nv = data.mesh.vertex_count
    full = schrodinger_comparison(data.dec, data.curvature.values)
    radius = measure._count_below(full.conjugated(), math.inf)[1]
    inertia, build = measure._inertia, pipeline.schrodinger_comparison
    refused, asked = [], []

    def miscounting(permuted, sigma):
        lu, below = inertia(permuted, sigma)
        if permuted.shape[0] == nv and (refusals is None or len(refused) < refusals):
            refused.append(sigma)
            below += 1
        return lu, below

    def recording(dec, rho, cutoff):
        asked.append(cutoff)
        return build(dec, rho, cutoff)

    monkeypatch.setattr(measure, "_inertia", miscounting)
    monkeypatch.setattr(pipeline, "schrodinger_comparison", recording)
    sigma_c = pipeline._comparison_cutoff(data, [1.0])
    part = data.comparison_below(sigma_c)
    mean = data._mean_curvature
    assert mean < 0.0 < sigma_c < radius
    assert asked[0] == sigma_c
    assert asked[1:] == [mean + 2.0 * (sigma - mean) for sigma in asked[:-1]]
    assert refused == asked[: len(refused)]
    if refusals == 1:
        assert len(asked) == 2 and part.partial and part.cutoff == asked[1]
    else:
        assert asked[-2] < radius <= asked[-1] and len(refused) == len(asked) - 1
        assert not part.partial
        assert np.array_equal(part.eigenvalues, full.eigenvalues)
        assert np.array_equal(part._euclidean_vectors, full._euclidean_vectors)
    assert data.comparison_below(sigma_c) is part


def test_too_wide_enclosure_falls_back_to_the_full_spectrum(monkeypatch):
    # With the lower end of every partial enclosure pushed to 0, no
    # cut-off enclosure is narrow enough: the row frees the partial L1,
    # takes the full L1 and builds L1 + W once more with every pair, one
    # L1 + W alive at a time, and gives the full spectrum's bounds bit for
    # bit.
    data = prepare_surface(genus2_mesh())
    t0_values = [0.5, 2.0]
    alive, built, partial_alive = [], [], []
    build, enclosure = pipeline.schatten_operator, pipeline.crude_hs_enclosure
    assemble = DECOperators.laplacian1

    def recording_build(*args):
        alive.append(sum(ref() is not None for ref in built))
        perturbed = build(*args)
        built.append(weakref.ref(perturbed))
        return perturbed

    def widened(pair):
        upper, lower = enclosure(pair)
        return upper, (0.0 if pair.Hprime.partial else lower)

    def recording_assemble(self, cutoff=math.inf):
        partial_alive.append(held() is not None)
        return assemble(self, cutoff)

    held = weakref.ref(data.laplacian1_below(pipeline._heat_cutoff(t0_values)))
    assert held().partial
    monkeypatch.setattr(pipeline, "schatten_operator", recording_build)
    monkeypatch.setattr(pipeline, "crude_hs_enclosure", widened)
    monkeypatch.setattr(DECOperators, "laplacian1", recording_assemble)
    row, notes = pipeline._schatten_row(data, 0.5, t0_values, 2.0)
    assert notes == ()
    assert alive == [0, 0]
    assert partial_alive == [False]
    # The surface holds the full L1 for the rows after it.
    full = data._held["laplacian1"]
    assert not full.partial and data.laplacian1 is full
    assert row == _full_row(data, 0.5, t0_values)


def test_too_wide_enclosure_row_holds_one_full_laplacian1(monkeypatch):
    # bumpy-sphere(2) at rho0 = 1, t0 = 0.25: the cut-off enclosure is wider
    # than eta (the orthogonality loss of both bases, set against the
    # bound), so the row runs again with every pair.  Its bound is the
    # full-spectrum one, bit for bit; the surface then holds one L1, the
    # full one, and a second call at the point assembles no L1.
    mesh = builtin_mesh("bumpy-sphere", 2)
    rho0, t0 = 1.0, 0.25
    data, reference = prepare_surface(mesh), prepare_surface(mesh)
    potential = synthetic_edge_potential(reference.dec, reference.curvature, rho0)
    sigma_a = pipeline._heat_cutoff([t0])
    start = reference.laplacian1_below(sigma_a)
    part = schatten_operator(start, potential, rho0, _cutoff([t0], rho0))
    upper, lower = crude_hs_enclosure(OperatorPair(start, part, rho0, 2.0 * t0))
    assert part.partial and upper - lower > pipeline._ETA * upper
    del start, part
    lap1 = reference.laplacian1
    pair = OperatorPair(lap1, schatten_operator(lap1, potential, rho0), rho0, 2.0 * t0)
    inputs = BettiBoundInputs(surface=mesh, rho0=rho0, t0=t0)
    assert betti_bound(inputs, data=data).bound_schatten == crude_kernel_bound(pair, 2.0)
    edge_operators = [
        op
        for op in [*vars(data).values(), *data._held.values()]
        if isinstance(op, SelfAdjointOperator) and op.dim == mesh.edge_count
    ]
    assert len(edge_operators) == 1 and _same_spectrum(edge_operators[0], lap1)

    def no_assembly(self, *args, **kwargs):
        raise AssertionError("L1 assembled again")

    monkeypatch.setattr(DECOperators, "laplacian1", no_assembly)
    assert betti_bound(inputs, data=data).bound_schatten == crude_kernel_bound(pair, 2.0)


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


def test_heat_two_inf_norm_needs_a_scalar_fiber():
    op = SelfAdjointOperator(np.eye(4), WeightedFiniteSpace(np.ones(2)), fiber=2)
    with pytest.raises(ValueError, match="scalar fiber"):
        heat_two_inf_norm(op, 1.0)


def test_main_bound_point_builds_no_vertex_square_array():
    # The first point eigensolves the comparison operator below its
    # sigma_C: besides the V x V buffer that xSYEVR reduces in place, it
    # keeps a V x (K + 1) eigenvector array, where every pair took about
    # three V x V arrays.  Its 2->inf norm reads the squared V x K basis,
    # built there too; a later point with a larger t0 reuses the operator
    # held on the surface and allocates O(V).
    data = prepare_surface(builtin_mesh("bumpy-sphere"))
    square = data.mesh.vertex_count**2 * 8

    def point(t0):
        inputs = BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=t0, compute_schatten=False)
        return betti_bound(inputs, data=data)

    assert _peak_bytes(lambda: point(1.0)) < 2 * square
    part = data.comparison_below(pipeline._comparison_cutoff(data, [1.0]))
    assert part.partial and 4 * part.eigenvalues.size < part.dim
    assert _peak_bytes(lambda: point(4.0)) < square
    assert data.comparison_below(pipeline._comparison_cutoff(data, [4.0])) is part
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
    for rho0 in rho0_values:
        potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
        perturbed = schatten_operator(data.laplacian1, potential, rho0)
        pair = OperatorPair(H=data.laplacian1, Hprime=perturbed, rho0=rho0, t0=1.4)
        spectral = crude_kernel_bound(pair, 2.0)
        gap = 1.0 - np.exp(-rho0 * pair.t0)
        scaled = WeightedOperator(
            heat_difference(pair.H, pair.Hprime, pair.t0).matrix / gap, data.laplacian1.space
        )
        dense = schatten_power_sum(scaled, 2.0)
        assert perturbed is not data.laplacian1
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
