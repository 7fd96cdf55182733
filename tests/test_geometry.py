"""Mesh combinatorics, DEC operators, curvature, and homology oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import issparse

from bettibound import measure
from bettibound.dec import (
    CurvatureField,
    betti1_oracle,
    betti1_rank_count,
    build_dec,
    gaussian_curvature,
    kernel_dim_0forms,
    ricci_potential,
    schrodinger_comparison,
)
from bettibound.measure import (
    SelfAdjointOperator,
    WeightedOperator,
    heat_difference_hs_bounds,
    operator_norm,
)
from bettibound.perturbation import MatrixPotential
from bettibound.pipeline import prepare_surface
from bettibound.mesh import (
    BUILTIN_NAMES,
    BumpySphere,
    FlatTorus,
    MeshError,
    RoundSphere,
    TorusOfRevolution,
    TriangleMesh,
    builtin_mesh,
    flat_torus_mesh,
    genus2_mesh,
    icosphere_mesh,
    load_mesh,
    read_obj,
    read_off,
    revolution_torus_mesh,
    write_off,
)

TET_VERTICES = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
TET_FACES = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]


def tetrahedron():
    return TriangleMesh(TET_VERTICES, TET_FACES)


# -- validation ---------------------------------------------------------------


def test_open_mesh_rejected():
    with pytest.raises(MeshError, match="mesh not closed"):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_inconsistent_orientation_rejected():
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 3, 2]]  # last face flipped
    with pytest.raises(MeshError, match="not orientable"):
        TriangleMesh(TET_VERTICES, faces)


def test_degenerate_face_rejected():
    with pytest.raises(MeshError, match="repeated vertex"):
        TriangleMesh(TET_VERTICES, [[0, 1, 1], [0, 1, 2], [0, 2, 1], [1, 2, 0]])


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_vertex_rejected(value):
    mesh = icosphere_mesh(1)
    vertices = mesh.vertices.copy()
    vertices[3, 1] = value
    with pytest.raises(MeshError, match="non-finite vertex coordinates"):
        TriangleMesh(vertices, mesh.faces)


def test_mesh_without_faces_rejected():
    with pytest.raises(MeshError, match="mesh has no faces"):
        TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))


def test_non_finite_intrinsic_length_rejected():
    mesh = flat_torus_mesh(1.0, 1.0, 4, 4)
    lengths = mesh.edge_lengths.copy()
    lengths[5] = np.nan
    with pytest.raises(MeshError, match="non-finite intrinsic edge lengths"):
        TriangleMesh(mesh.vertices, mesh.faces, intrinsic_lengths=lengths)


def test_euler_characteristics():
    assert tetrahedron().euler_characteristic == 2
    assert flat_torus_mesh(1.0, 1.0, 5, 5).euler_characteristic == 0
    assert genus2_mesh().euler_characteristic == -2


# -- incidence and stars -------------------------------------------------------


@pytest.mark.parametrize(
    "mesh_builder",
    [
        tetrahedron,
        lambda: icosphere_mesh(1),
        lambda: flat_torus_mesh(1.0, 2.0, 5, 7),
        lambda: revolution_torus_mesh(2.0, 0.5, 6, 8),
        genus2_mesh,
    ],
)
def test_incidence_composition_exactly_zero(mesh_builder):
    dec = build_dec(mesh_builder())
    assert dec.incidence_composition_max() == 0


def test_flipped_incidence_sign_trips_the_composition_guard():
    dec = build_dec(icosphere_mesh(1))
    flipped = dec.d1.copy()
    flipped.data[0] = -flipped.data[0]
    with pytest.raises(MeshError, match="d1 d0 does not vanish"):
        replace(dec, d1=flipped)


def test_stars_positive_everywhere():
    for mesh in (tetrahedron(), flat_torus_mesh(1, 1, 5, 5), genus2_mesh()):
        dec = build_dec(mesh)
        assert np.all(dec.star0 > 0)
        assert np.all(dec.star1 > 0)
        assert np.all(dec.star2 > 0)


def test_laplacian0_kills_constants_exactly():
    dec = build_dec(icosphere_mesh(1))
    # L0 = star0^-1 d0^T star1 d0, and the integer d0 maps constants to 0.
    image = dec.d0 @ np.ones(dec.mesh.vertex_count)
    assert np.max(np.abs(image)) == 0.0


def test_laplacian0_self_adjoint_psd_with_constant_kernel():
    dec = build_dec(revolution_torus_mesh(2.0, 0.6, 8, 8))
    lap = dec.laplacian0()  # constructor verifies weighted self-adjointness
    assert lap.min_eigenvalue >= -lap.zero_threshold()
    assert lap.kernel_dim() == 1


def test_laplacian1_self_adjoint_psd():
    dec = build_dec(flat_torus_mesh(1.0, 1.0, 6, 6))
    lap = dec.laplacian1()
    assert lap.min_eigenvalue >= -lap.zero_threshold()


# -- homology oracles ----------------------------------------------------------


@pytest.mark.parametrize(
    "mesh_builder,expected",
    [
        (tetrahedron, 0),
        (lambda: icosphere_mesh(2), 0),
        (lambda: flat_torus_mesh(1.0, 1.0, 8, 8), 2),
        (lambda: revolution_torus_mesh(2.0, 0.6, 10, 10), 2),
        (genus2_mesh, 4),
    ],
)
def test_betti1_both_oracles(mesh_builder, expected):
    mesh = mesh_builder()
    dec = build_dec(mesh)
    assert betti1_oracle(mesh, dec) == expected
    assert betti1_rank_count(dec) == expected


def _rank_reference(dec):
    return (
        dec.mesh.edge_count
        - np.linalg.matrix_rank(dec.d0.toarray())
        - np.linalg.matrix_rank(dec.d1.toarray())
    )


def _two_icospheres(glued):
    # The second copy is the first reflected through vertex 0 (faces
    # reversed to keep the orientation); glued, the copies share vertex 0.
    # ``prepare_surface`` rejects both, so the chain-complex tests below
    # feed them to ``build_dec`` directly, beneath that check.
    mesh = icosphere_mesh(1)
    nv = mesh.vertex_count
    mirror = 2.0 * mesh.vertices[0] - mesh.vertices
    faces = mesh.faces[:, ::-1] + nv
    if glued:
        mirror = mirror[1:]
        faces = np.where(faces == nv, 0, faces - 1)
    else:
        mirror = mirror + 1.0
    return TriangleMesh(
        np.vstack([mesh.vertices, mirror]), np.vstack([mesh.faces, faces])
    )


@pytest.mark.parametrize(
    "mesh_builder",
    [
        lambda: builtin_mesh("sphere", 2),
        lambda: builtin_mesh("flat-torus"),
        lambda: builtin_mesh("torus-rev", 10),
        lambda: builtin_mesh("bumpy-sphere", 1),
        lambda: builtin_mesh("genus2"),
        lambda: _two_icospheres(glued=False),
        lambda: _two_icospheres(glued=True),
    ],
    ids=["sphere", "flat-torus", "torus-rev", "bumpy-sphere", "genus2",
         "disjoint-icospheres", "glued-icospheres"],
)
def test_rank_count_matches_float_rank_reference(mesh_builder):
    dec = build_dec(mesh_builder())
    assert betti1_rank_count(dec) == _rank_reference(dec)


CHAIN_COMPLEX_CASES = {
    "sphere": lambda: builtin_mesh("sphere", 2),
    "flat-torus": lambda: builtin_mesh("flat-torus"),
    "torus-rev": lambda: builtin_mesh("torus-rev", 10),
    "bumpy-sphere": lambda: builtin_mesh("bumpy-sphere", 1),
    "genus2": lambda: builtin_mesh("genus2"),
    "disjoint-icospheres": lambda: _two_icospheres(glued=False),
    "glued-icospheres": lambda: _two_icospheres(glued=True),
}


@pytest.mark.parametrize("name", CHAIN_COMPLEX_CASES)
def test_incidence_is_sparse_integer_with_two_and_three_entries_a_row(name):
    dec = build_dec(CHAIN_COMPLEX_CASES[name]())
    mesh = dec.mesh
    for matrix in (dec.d0, dec.d1):
        assert issparse(matrix)
        assert np.issubdtype(matrix.dtype, np.integer)
    assert dec.d0.shape == (mesh.edge_count, mesh.vertex_count)
    assert dec.d1.shape == (mesh.face_count, mesh.edge_count)
    assert dec.d0.nnz == 2 * mesh.edge_count
    assert dec.d1.nnz == 3 * mesh.face_count


@pytest.mark.parametrize("name", CHAIN_COMPLEX_CASES)
def test_laplacians_match_dense_incidence_formula(name):
    dec = build_dec(CHAIN_COMPLEX_CASES[name]())
    d0, d1 = dec.d0.toarray().astype(float), dec.d1.toarray().astype(float)
    star0, star1, star2 = dec.star0, dec.star1, dec.star2
    lap0 = (d0.T * star1[None, :]) @ d0 / star0[:, None]
    lap1 = d0 @ ((d0.T * star1[None, :]) / star0[:, None]) + (
        (d1.T * star2[None, :]) @ d1 / star1[:, None]
    )
    # L1 entries sum at most two exact terms, so they agree bit for bit;
    # the L0 diagonal sums 5-7 terms, whose order may differ.
    assert dec.laplacian1_matrix().toarray().tobytes() == lap1.tobytes()
    gap = np.max(np.abs(dec.laplacian0_matrix().toarray() - lap0))
    assert gap <= 1e-15 * np.max(np.abs(lap0))
    lap2 = d1 @ (d1.T / star1[:, None]) * star2[None, :]
    gap = np.max(np.abs(dec.laplacian2_matrix().toarray() - lap2))
    assert gap <= 1e-15 * np.max(np.abs(lap2))


@pytest.mark.parametrize("name", CHAIN_COMPLEX_CASES)
def test_hodge_assembled_laplacian1_matches_direct_eigensolve(name):
    dec = build_dec(CHAIN_COMPLEX_CASES[name]())
    lap1 = dec.laplacian1()
    assert lap1.kernel_dim() == betti1_rank_count(dec)
    assert betti1_oracle(dec.mesh, dec) == lap1.kernel_dim()
    assert kernel_dim_0forms(dec) == dec.laplacian0().kernel_dim()
    assert lap1.matrix.toarray().tobytes() == dec.laplacian1_matrix().toarray().tobytes()
    reference = np.linalg.eigvalsh(lap1.conjugated().toarray())
    radius = np.max(np.abs(reference))
    assert np.max(np.abs(lap1.eigenvalues - reference)) <= 1e-12 * radius

    # At p = 2 the spectral Hilbert-Schmidt sum against an L1 + W matches
    # the Frobenius norm of the dense difference of the heat operators.
    field = np.linspace(0.5, 2.0, dec.mesh.edge_count)
    perturbed = MatrixPotential.from_scalar_field(dec.edge_space(), field).added_to(lap1)
    t = 0.3

    def dense_heat(op):
        evals, evecs = np.linalg.eigh(op.conjugated().toarray())
        return (evecs * np.exp(-t * evals)[None, :]) @ evecs.T

    dense = float(np.linalg.norm(dense_heat(lap1) - dense_heat(perturbed)) ** 2)
    spectral = heat_difference_hs_bounds(lap1, perturbed, t)[0]
    assert abs(spectral - dense) <= 1e-12 * dense


def test_hodge_assembly_checks_catch_a_scaled_column(monkeypatch):
    dec = build_dec(genus2_mesh())
    # B = star2^(1/2) d1 star1^(-1/2) vanishes on all but the coexact columns.
    curl = np.sqrt(dec.star2)[:, None] * dec.d1.toarray() / np.sqrt(dec.star1)[None, :]
    from_spectrum = SelfAdjointOperator.from_spectrum.__func__

    def scale_coexact_column(cls, space, evals, q, fiber=1, matrix=None, **kwargs):
        coexact = np.flatnonzero(np.linalg.norm(curl @ q, axis=0) > 1e-6)[0]
        q = q.copy()
        q[:, coexact] *= 1.0 + 1e-6
        return from_spectrum(cls, space, evals, q, fiber, matrix, **kwargs)

    monkeypatch.setattr(SelfAdjointOperator, "from_spectrum", classmethod(scale_coexact_column))
    with pytest.raises(ValueError, match="not finite and orthonormal"):
        dec.laplacian1()


def test_hodge_assembly_checks_catch_a_wrong_eigenvalue(monkeypatch):
    dec = build_dec(genus2_mesh())
    from_spectrum = SelfAdjointOperator.from_spectrum.__func__

    def perturb_eigenvalue(cls, space, evals, q, fiber=1, matrix=None, **kwargs):
        evals = evals.copy()
        evals[-1] *= 1.0 + 1e-6
        return from_spectrum(cls, space, evals, q, fiber, matrix, **kwargs)

    monkeypatch.setattr(SelfAdjointOperator, "from_spectrum", classmethod(perturb_eigenvalue))
    with pytest.raises(ValueError, match="does not reconstruct"):
        dec.laplacian1()


def test_eigensolve_check_catches_a_wrong_kernel_vector(monkeypatch):
    # A column with eigenvalue ~0 never shows in Q diag(evals) Q^T, so a
    # reconstruction check alone accepts any unit vector in its place; the
    # orthogonality loss Q^T Q - I and the residual S Q - Q diag(evals)
    # both expose it.
    dec = build_dec(genus2_mesh(n_theta=6, n_phi=6))
    eigh = measure._eigh_in_place
    rng = np.random.default_rng(3)

    def wrong_kernel_column(conj):
        evals, evecs = eigh(conj)
        column = rng.standard_normal(conj.shape[0])
        evecs[:, 0] = column / np.linalg.norm(column)
        return evals, evecs

    monkeypatch.setattr(measure, "_eigh_in_place", wrong_kernel_column)
    with pytest.raises(ValueError, match="not finite and orthonormal"):
        dec.laplacian0()


def test_rank_count_counts_face_components_separately():
    # Glued at one vertex: one vertex component but two face components,
    # so rank(d1) = F - 2; a vertex-only count would give b1 = -1.
    dec = build_dec(_two_icospheres(glued=True))
    assert betti1_rank_count(dec) == 0
    assert np.linalg.matrix_rank(dec.d1.toarray()) == dec.mesh.face_count - 2


@pytest.mark.parametrize(
    "glued,message",
    [(False, "not connected: 2 vertex components"),
     (True, "link of vertex 0 has 2 cycles")],
    ids=["disjoint-icospheres", "glued-icospheres"],
)
def test_prepare_surface_rejects_non_manifold_before_eigensolving(
    glued, message, monkeypatch
):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigensolve before the manifold check")

    mesh = _two_icospheres(glued)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(measure, "_eigh_in_place", no_eigh)
    with pytest.raises(MeshError, match=message):
        prepare_surface(mesh)


def test_prepare_surface_takes_no_float_rank(monkeypatch):
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counting_matrix_rank(*args, **kwargs):
        calls.append(1)
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_matrix_rank)
    assert prepare_surface(genus2_mesh()).b1 == 4
    assert calls == []


def test_icosphere_kernel_dimensions():
    dec = build_dec(icosphere_mesh(2))
    assert dec.laplacian0().kernel_dim() == 1
    assert dec.laplacian1().kernel_dim() == 0


# -- curvature -----------------------------------------------------------------


def test_icosahedron_angle_defect():
    # Five equilateral corners meet at each vertex: defect 2 pi - 5 pi / 3.
    mesh = icosphere_mesh(0)
    defects = mesh.angle_defects()
    assert np.allclose(defects, np.pi / 3.0, atol=1e-12)


def test_unit_sphere_analytic_curvature_is_one():
    sphere = RoundSphere(radius=1.0)
    mesh = sphere.mesh(2)
    values = sphere.curvature_values(mesh)
    assert np.all(values == 1.0)


def test_flat_torus_defects_identically_zero():
    mesh = flat_torus_mesh(1.0, 1.0, 8, 8)
    assert np.max(np.abs(mesh.angle_defects())) <= 1e-12
    field = gaussian_curvature(mesh)
    assert np.max(np.abs(field.values)) <= 1e-12


@pytest.mark.parametrize(
    "mesh_builder,chi",
    [
        (tetrahedron, 2),
        (lambda: icosphere_mesh(2), 2),
        (lambda: flat_torus_mesh(1.0, 2.0, 6, 9), 0),
        (lambda: revolution_torus_mesh(2.0, 0.5, 9, 9), 0),
        (genus2_mesh, -2),
    ],
)
def test_discrete_gauss_bonnet(mesh_builder, chi):
    mesh = mesh_builder()
    field = gaussian_curvature(mesh)
    assert mesh.euler_characteristic == chi
    assert field.gauss_bonnet_residual() <= 1e-9


def test_analytic_curvature_converges_to_angle_defect():
    surface = TorusOfRevolution(ring_radius=2.0, tube_radius=0.6)
    errors = []
    for res in (8, 16, 32):
        mesh = surface.mesh(res)
        discrete = gaussian_curvature(mesh).values
        analytic = surface.curvature_values(mesh)
        err = np.sqrt(np.sum(mesh.dual_areas * (discrete - analytic) ** 2))
        errors.append(err)
    rate = np.log2(errors[0] / errors[-1]) / 2.0
    print(f"curvature L2 errors {errors}, observed rate {rate:.2f}")
    assert errors[2] < errors[1] < errors[0]


def test_bumpy_sphere_reduces_to_round_sphere_at_zero_amplitude():
    theta = np.linspace(0.0, np.pi, 101)
    flat = BumpySphere(amplitude=0.0, frequency=3)
    assert np.allclose(flat.curvature_at(theta), 1.0, atol=1e-12)


def test_bumpy_sphere_pole_limit_matches_nearby_values():
    surface = BumpySphere(amplitude=0.05, frequency=3)
    pole = surface.curvature_at(0.0)
    near = surface.curvature_at(1e-5)
    assert np.isclose(pole, near, rtol=1e-6)


def test_bumpy_sphere_positive_curvature_fixture():
    surface = BumpySphere()
    mesh = surface.mesh(2)
    discrete = gaussian_curvature(mesh).values
    assert discrete.min() > 0.2
    analytic = surface.curvature_values(mesh)
    assert analytic.min() > 0.2


def test_spectral_convergence_smoke():
    # First nonzero eigenvalue of the vertex Laplacian on the unit sphere
    # approaches 2; reported at 5%, asserted at 10%.
    from scipy.linalg import eigh

    dec = build_dec(icosphere_mesh(4))
    lap = dec.laplacian0_matrix().toarray()
    w = np.sqrt(dec.star0)
    conj = (w[:, None] * lap) / w[None, :]
    conj = 0.5 * (conj + conj.T)
    low = eigh(conj, eigvals_only=True, subset_by_index=[0, 1])
    lam1 = low[1]
    rel = abs(lam1 - 2.0) / 2.0
    print(f"sphere lambda_1 = {lam1:.6f}, relative error {rel:.3%} (5% watermark)")
    assert rel <= 0.10


# -- curvature-derived potential ------------------------------------------------


def test_ricci_potential_vanishes_below_curvature():
    sphere = RoundSphere()
    mesh = sphere.mesh(2)
    field = CurvatureField(mesh, sphere.curvature_values(mesh))
    assert ricci_potential(field, 0.5) == 0.0


def test_ricci_potential_sphere_above_curvature():
    sphere = RoundSphere()
    mesh = sphere.mesh(3)
    field = CurvatureField(mesh, sphere.curvature_values(mesh))
    norm = ricci_potential(field, 2.0)
    # Shortfall is the constant 1, so the squared norm is twice the area;
    # the smooth value 8 pi is approached as the mesh refines.
    assert np.isclose(norm**2, 2.0 * mesh.total_area, rtol=1e-12)
    assert np.isclose(norm**2, 8.0 * np.pi, rtol=2e-2)


def test_ricci_potential_flat_torus_closed_form():
    torus = FlatTorus(width=1.5, height=0.8)
    mesh = torus.mesh(8)
    field = gaussian_curvature(mesh)
    rho0 = 0.7
    norm = ricci_potential(field, rho0)
    assert np.isclose(norm**2, 2.0 * rho0**2 * 1.5 * 0.8, rtol=1e-12)


def test_schrodinger_comparison_zero_is_laplacian():
    dec = build_dec(flat_torus_mesh(1, 1, 5, 5))
    base = schrodinger_comparison(dec, np.zeros(dec.mesh.vertex_count))
    assert np.array_equal(base.matrix.toarray(), dec.laplacian0_matrix().toarray())


def test_schrodinger_comparison_constant_shift():
    dec = build_dec(icosphere_mesh(1))
    c = 0.9
    shifted = schrodinger_comparison(dec, np.full(dec.mesh.vertex_count, c))
    base = dec.laplacian0()
    assert np.allclose(
        shifted.eigenvalues, base.eigenvalues + c, rtol=1e-12, atol=1e-12
    )


def test_schrodinger_comparison_matches_direct_assembly():
    surface = BumpySphere()
    mesh = surface.mesh(1)
    dec = build_dec(mesh)
    rho = surface.curvature_values(mesh)
    op = schrodinger_comparison(dec, rho)
    oracle = dec.laplacian0_matrix().toarray() + np.diag(rho)
    assert np.array_equal(op.matrix.toarray(), oracle)
    gap = operator_norm(
        WeightedOperator(op.matrix.toarray() - oracle, op.space, 1)
    )
    assert gap == 0.0


# -- file io --------------------------------------------------------------------


def test_off_roundtrip(tmp_path):
    mesh = genus2_mesh(n_theta=6, n_phi=6)
    path = tmp_path / "g2.off"
    write_off(mesh, path)
    loaded = read_off(path.read_text())
    assert loaded.vertex_count == mesh.vertex_count
    assert np.array_equal(loaded.faces, mesh.faces)
    assert np.allclose(loaded.vertices, mesh.vertices, atol=1e-15)
    assert betti1_oracle(loaded) == 4


def test_off_with_comments_and_counts():
    text = """OFF
# tetrahedron
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""
    mesh = read_off(text)
    assert mesh.vertex_count == 4
    assert mesh.euler_characteristic == 2


def test_off_bad_header():
    with pytest.raises(MeshError, match="OFF header"):
        read_off("PLY\n1 2 3\n")


def test_off_boundary_edge_message():
    text = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(MeshError, match="mesh not closed"):
        read_off(text)


def test_off_without_faces_rejected():
    with pytest.raises(MeshError, match="mesh has no faces"):
        read_off("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")


def test_off_truncated_face_record_is_malformed():
    text = "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n"
    with pytest.raises(MeshError, match="malformed OFF file"):
        read_off(text)


def test_obj_reader_minimal():
    text = """# tetrahedron
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
f 1 3 2
f 1/1 2/2 4/4
f 1 4 3
f 2 3 4
"""
    mesh = read_obj(text)
    assert mesh.vertex_count == 4
    assert mesh.euler_characteristic == 2
    assert betti1_oracle(mesh) == 0


def test_obj_rejects_quads():
    with pytest.raises(MeshError, match="triangle"):
        read_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")


def obj_text(mesh, relative=False):
    """``mesh`` as OBJ, all vertices first; ``relative`` writes each face
    index as a negative offset from the last vertex."""
    shift = -mesh.vertex_count if relative else 1
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += ["f " + " ".join(str(i + shift) for i in f) for f in mesh.faces.tolist()]
    return "\n".join(lines) + "\n"


def test_obj_negative_indices_count_back_from_the_last_vertex(tmp_path):
    mesh = icosphere_mesh(1)
    loaded = []
    for relative in (False, True):
        path = tmp_path / f"ico-{relative}.obj"
        path.write_text(obj_text(mesh, relative))
        loaded.append(load_mesh(path))
    for read in loaded:
        assert np.array_equal(read.vertices, mesh.vertices)
        assert np.array_equal(read.faces, mesh.faces)
    # -1 is the last vertex read before the face, not the last of the file.
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -1 -2\nv 0 0 1\nf 1 2 -1\nf 1 -1 3\nf 2 3 -1\n"
    assert np.array_equal(read_obj(text).faces, TET_FACES)


@pytest.mark.parametrize(
    "text,message",
    [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "face record on line 4: index 0"),
        ("v 0 0 0\nv 1 0 zero\nv 0 1 0\nf 1 2 3\n", "vertex record on line 2: could not"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 b 3\n", "face record on line 4: invalid"),
        ("v 0 0 0\nv 1 0\n", "vertex record on line 2: fewer than three"),
    ],
    ids=["index-zero", "coordinate", "index", "short-vertex"],
)
def test_obj_malformed_record_names_its_line(text, message):
    with pytest.raises(MeshError, match=f"malformed OBJ {message}"):
        read_obj(text)


# -- the icosphere -----------------------------------------------------------------


def _icosphere_by_loop(subdivisions):
    """The icosphere arrays built face by face with a midpoint dict, as
    ``icosphere_mesh`` once did: the reference for its array code."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                mid = verts[i] + verts[j]
                verts.append(mid / np.linalg.norm(mid))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("subdivisions", range(6))
def test_icosphere_meshes_equal_the_loop_reference(subdivisions):
    verts, faces = _icosphere_by_loop(subdivisions)
    bumpy = BumpySphere()
    unit = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    expected = {
        "icosphere": verts,
        "round-sphere": 2.0 * verts,
        "bumpy-sphere": unit * bumpy.radius_at(theta)[:, None],
    }
    meshes = {
        "icosphere": icosphere_mesh(subdivisions),
        "round-sphere": RoundSphere(2.0).mesh(subdivisions),
        "bumpy-sphere": bumpy.mesh(subdivisions),
    }
    for name, mesh in meshes.items():
        assert np.array_equal(mesh.vertices, expected[name]), name
        assert np.array_equal(mesh.faces, faces), name


# -- analytic surfaces -----------------------------------------------------------


def test_analytic_areas():
    assert np.isclose(RoundSphere(2.0).area(), 16 * np.pi)
    assert np.isclose(FlatTorus(1.5, 0.8).area(), 1.2)
    assert np.isclose(TorusOfRevolution(2.0, 0.5).area(), 4 * np.pi**2)
    # Zero amplitude reduces the quadrature to the round sphere.
    assert np.isclose(BumpySphere(amplitude=0.0).area(), 4 * np.pi, rtol=1e-10)


def test_torus_min_curvature_at_inner_equator():
    surface = TorusOfRevolution(2.0, 0.5)
    mesh = surface.mesh(32)
    sampled = surface.curvature_values(mesh)
    # K = cos(theta) / (r (R + r cos(theta))) is least at theta = pi: -1/(r (R - r)).
    assert np.isclose(sampled.min(), -1.0 / (0.5 * (2.0 - 0.5)), rtol=1e-10)


def test_mesh_area_converges_to_analytic():
    surface = TorusOfRevolution(2.0, 0.5)
    coarse = abs(surface.mesh(8).total_area - surface.area())
    fine = abs(surface.mesh(24).total_area - surface.area())
    assert fine < coarse


def test_flat_torus_intrinsic_flag_and_lengths():
    mesh = flat_torus_mesh(2.0, 1.0, 4, 4)
    assert mesh.intrinsic
    lengths = sorted(set(np.round(mesh.edge_lengths, 12)))
    assert np.allclose(lengths, [0.25, 0.5, np.hypot(0.5, 0.25)])


def test_genus2_mesh_is_well_formed():
    mesh = genus2_mesh()
    assert mesh.euler_characteristic == -2
    assert np.all(mesh.face_areas > 0)
    assert float(mesh.corner_angles.min()) > 1e-3
