"""Property test: the vectorized edge table against a plain-Python reference.

Relabeling the vertices, reordering the faces and rotating each face
cyclically describe the same oriented surface, so the edge table must
follow the plain dictionary construction below and both Betti counts
must keep the genus.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettibound.dec import betti1_rank_count, build_dec
from bettibound.mesh import (
    MeshError,
    TriangleMesh,
    genus2_mesh,
    icosphere_mesh,
    revolution_torus_mesh,
)

BASES = {
    "icosphere": (lambda: icosphere_mesh(1), 0),
    "torus-rev": (lambda: revolution_torus_mesh(2.0, 0.6, 6, 7), 2),
    "genus2": (genus2_mesh, 4),
}


@functools.cache
def base_mesh(name):
    return BASES[name][0]()


def reference_edge_table(faces):
    """Sorted vertex pairs, each side's edge index and its orientation sign."""
    sides = [((a, b), (b, c), (c, a)) for a, b, c in faces.tolist()]
    edges = sorted({(min(u, v), max(u, v)) for face in sides for u, v in face})
    index = {edge: i for i, edge in enumerate(edges)}
    face_edges = [[index[(min(u, v), max(u, v))] for u, v in face] for face in sides]
    face_signs = [[1 if u < v else -1 for u, v in face] for face in sides]
    return np.array(edges), np.array(face_edges), np.array(face_signs)


@st.composite
def relabeled(draw, name):
    mesh = base_mesh(name)
    nv, nf = mesh.vertex_count, mesh.face_count
    labels = np.array(draw(st.permutations(range(nv))))
    order = np.array(draw(st.permutations(range(nf))))
    shifts = draw(st.lists(st.integers(0, 2), min_size=nf, max_size=nf))
    faces = labels[mesh.faces[order]]
    faces = np.array([np.roll(face, -k) for face, k in zip(faces, shifts)])
    vertices = np.empty_like(mesh.vertices)
    vertices[labels] = mesh.vertices
    return vertices, faces, draw(st.integers(0, nf - 1))


@pytest.mark.parametrize("name", BASES)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_edge_table_matches_reference_under_relabeling(name, data):
    vertices, faces, victim = data.draw(relabeled(name))
    mesh = TriangleMesh(vertices, faces)
    edges, face_edges, face_signs = reference_edge_table(faces)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.face_edges, face_edges)
    assert np.array_equal(mesh.face_signs, face_signs)

    dec = build_dec(mesh)
    expected = BASES[name][1]
    assert betti1_rank_count(dec) == expected
    assert dec.laplacian1().kernel_dim() == expected

    with pytest.raises(MeshError, match="mesh not closed"):
        TriangleMesh(vertices, np.delete(faces, victim, axis=0))
    flipped = faces.copy()
    flipped[victim] = flipped[victim, ::-1]
    with pytest.raises(MeshError, match="not orientable"):
        TriangleMesh(vertices, flipped)
