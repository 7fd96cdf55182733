"""Triangulated closed oriented surfaces, builtin test surfaces, OFF/OBJ io.

A mesh is valid here only if it triangulates a closed orientable surface:
every edge lies in exactly two faces, adjacent faces induce opposite
directions on their shared edge, all triangles are nondegenerate, all
coordinates and lengths are finite.  ``_edge_table`` alone decides the
edge order.  All metric quantities (angles, areas, Hodge star ratios) are
derived from edge lengths alone, so a mesh may carry intrinsic edge
lengths that override the Euclidean ones.  That is how the flat torus is
realized: its grid combinatorics are embedded in the parameter plane
while the metric comes from the flat product metric, which has no
isometric embedding in 3-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TriangleMesh",
    "MeshError",
    "AnalyticSurface",
    "RoundSphere",
    "FlatTorus",
    "TorusOfRevolution",
    "BumpySphere",
    "icosphere_mesh",
    "revolution_torus_mesh",
    "flat_torus_mesh",
    "genus2_mesh",
    "builtin_surface",
    "builtin_mesh",
    "BUILTIN_NAMES",
    "read_off",
    "read_obj",
    "write_off",
    "load_mesh",
]

MIN_ANGLE = 1e-3


class MeshError(ValueError):
    """The input does not describe a closed oriented triangulated surface."""


def _edge_table(faces):
    """Oriented edge table: (edges, face_edges, face_signs).

    ``edges`` are the sorted vertex pairs in lexicographic order, (E, 2);
    ``face_edges[f, k]`` indexes the side from corner k to corner k + 1 of
    face f, and ``face_signs[f, k]`` is +1 where that side runs from the
    smaller vertex to the larger, else -1, both (F, 3).
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    heads = np.roll(faces, -1, axis=1)
    sides = np.stack([np.minimum(faces, heads), np.maximum(faces, heads)], axis=-1)
    edges, inverse = np.unique(sides.reshape(-1, 2), axis=0, return_inverse=True)
    # The inverse's shape changed across numpy 2.0.x, so reshape explicitly.
    return edges, inverse.reshape(faces.shape), np.where(faces < heads, 1, -1)


class TriangleMesh:
    """Closed oriented triangle mesh with optional intrinsic metric.

    vertices: (V, 3) float array of positions.
    faces: (F, 3) int array of oriented vertex triples.
    intrinsic_lengths: optional (E,) array indexed like ``edges``; when
        present it replaces the Euclidean edge lengths everywhere.
    """

    def __init__(self, vertices, faces, intrinsic_lengths=None):
        self.vertices = np.array(vertices, dtype=float)
        self.faces = np.array(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an array of 3D points")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be vertex triples")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates (NaN or inf)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(self.vertices):
            raise MeshError("face indices out of range")
        if np.any(self.faces == np.roll(self.faces, 1, axis=1)):
            raise MeshError("degenerate face with a repeated vertex")

        self._build_edges()
        if intrinsic_lengths is not None:
            lengths = np.array(intrinsic_lengths, dtype=float).reshape(-1)
            if lengths.size != self.edge_count:
                raise MeshError("intrinsic length table does not match the edge count")
            if not np.isfinite(lengths).all():
                raise MeshError("non-finite intrinsic edge lengths (NaN or inf)")
            self.edge_lengths = lengths
        else:
            vec = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
            self.edge_lengths = np.linalg.norm(vec, axis=1)
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("nonpositive edge length")
        self.intrinsic = intrinsic_lengths is not None

        self._build_metric()
        # The metric and every DEC operator built on this mesh are derived
        # from these arrays once, so they must not change.
        for array in (
            self.vertices, self.faces, self.edges, self.face_edges,
            self.face_signs, self.edge_lengths, self.face_areas,
            self.corner_angles, self.dual_areas, self.angle_sums,
        ):
            array.setflags(write=False)

    # -- combinatorics ---------------------------------------------------

    def _build_edges(self):
        self.edges, self.face_edges, self.face_signs = _edge_table(self.faces)
        sides = self.face_edges.reshape(-1)
        uses = np.bincount(sides, minlength=self.edge_count)
        net = np.bincount(sides, self.face_signs.reshape(-1), minlength=self.edge_count)
        if np.any(uses != 2):
            e = np.argmax(uses != 2)
            raise MeshError(
                f"mesh not closed: edge {tuple(self.edges[e].tolist())} belongs to "
                f"{uses[e]} face(s)"
            )
        if np.any(net != 0):
            e = np.argmax(net != 0)
            raise MeshError(
                f"mesh not orientable: edge {tuple(self.edges[e].tolist())} traversed "
                "twice in the same direction"
            )

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    # -- metric ----------------------------------------------------------

    def _build_metric(self):
        # Side k of a face is the edge opposite to corner k.
        el = self.edge_lengths[self.face_edges]
        opp = np.stack([el[:, 1], el[:, 2], el[:, 0]], axis=1)
        a, b, c = opp[:, 0], opp[:, 1], opp[:, 2]
        s = 0.5 * (a + b + c)
        area_sq = s * (s - a) * (s - b) * (s - c)
        if np.any(area_sq <= 0.0):
            raise MeshError("degenerate triangle with nonpositive area")
        self.face_areas = np.sqrt(area_sq)

        # Corner angle at vertex k from the law of cosines.
        angles = np.empty_like(opp)
        sides = [a, b, c]
        for k in range(3):
            o = sides[k]
            p = sides[(k + 1) % 3]
            q = sides[(k + 2) % 3]
            cos = (p**2 + q**2 - o**2) / (2.0 * p * q)
            angles[:, k] = np.arccos(np.clip(cos, -1.0, 1.0))
        if float(angles.min()) <= MIN_ANGLE:
            raise MeshError(
                f"degenerate triangle: min corner angle {float(angles.min()):.2e} rad"
            )
        self.corner_angles = angles

        self.dual_areas = np.zeros(self.vertex_count)
        np.add.at(self.dual_areas, self.faces.reshape(-1),
                  np.repeat(self.face_areas / 3.0, 3))

        self.angle_sums = np.zeros(self.vertex_count)
        np.add.at(self.angle_sums, self.faces.reshape(-1), angles.reshape(-1))

    @property
    def total_area(self) -> float:
        return float(self.face_areas.sum())

    def angle_defects(self) -> np.ndarray:
        return 2.0 * np.pi - self.angle_sums

    def describe(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "faces": self.face_count,
            "euler_characteristic": self.euler_characteristic,
            "area": self.total_area,
            "intrinsic_metric": self.intrinsic,
        }


# -- builtin analytic surfaces -------------------------------------------


class AnalyticSurface:
    """A closed surface with closed-form curvature used to seed meshes."""

    name = "abstract"

    def mesh(self, resolution: int) -> TriangleMesh:
        raise NotImplementedError

    def curvature_values(self, mesh: TriangleMesh) -> np.ndarray:
        """Closed-form Gaussian curvature sampled at the mesh vertices."""
        raise NotImplementedError

    def area(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class RoundSphere(AnalyticSurface):
    radius: float = 1.0
    name = "sphere"

    def mesh(self, resolution: int = 3) -> TriangleMesh:
        return icosphere_mesh(resolution, self.radius)

    def curvature_values(self, mesh: TriangleMesh) -> np.ndarray:
        return np.full(mesh.vertex_count, 1.0 / self.radius**2)

    def area(self) -> float:
        return 4.0 * math.pi * self.radius**2


@dataclass(frozen=True)
class FlatTorus(AnalyticSurface):
    width: float = 1.0
    height: float = 1.0
    name = "flat-torus"

    def mesh(self, resolution: int = 8) -> TriangleMesh:
        return flat_torus_mesh(self.width, self.height, resolution, resolution)

    def curvature_values(self, mesh: TriangleMesh) -> np.ndarray:
        return np.zeros(mesh.vertex_count)

    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class TorusOfRevolution(AnalyticSurface):
    ring_radius: float = 2.0
    tube_radius: float = 0.6
    name = "torus-rev"

    def mesh(self, resolution: int = 16) -> TriangleMesh:
        return revolution_torus_mesh(
            self.ring_radius, self.tube_radius, resolution, resolution
        )

    def curvature_values(self, mesh: TriangleMesh) -> np.ndarray:
        # Tube angle recovered from the embedding: cos(theta) = (rho - R)/r.
        rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        cos_t = np.clip((rho - self.ring_radius) / self.tube_radius, -1.0, 1.0)
        return cos_t / (self.tube_radius * (self.ring_radius + self.tube_radius * cos_t))

    def area(self) -> float:
        return 4.0 * math.pi**2 * self.ring_radius * self.tube_radius


@dataclass(frozen=True)
class BumpySphere(AnalyticSurface):
    """Axisymmetric radial perturbation r(theta) = 1 + amplitude*cos(freq*theta).

    The frequency must be a whole number so the profile is smooth across
    both poles.  For small amplitudes the curvature stays positive
    everywhere, which is the regime the bound pipeline exercises.
    """

    amplitude: float = 0.05
    frequency: int = 3
    name = "bumpy-sphere"

    def __post_init__(self):
        if abs(self.amplitude) >= 1.0:
            raise ValueError("amplitude must keep the radius positive")
        if int(self.frequency) != self.frequency or self.frequency < 1:
            raise ValueError("frequency must be a positive whole number")

    def _profile(self, theta):
        a, k = self.amplitude, self.frequency
        r = 1.0 + a * np.cos(k * theta)
        dr = -a * k * np.sin(k * theta)
        ddr = -a * k**2 * np.cos(k * theta)
        return r, dr, ddr

    def radius_at(self, theta):
        return self._profile(theta)[0]

    def curvature_at(self, theta):
        """Gauss curvature of the surface of revolution with this profile."""
        theta = np.asarray(theta, dtype=float)
        r, dr, ddr = self._profile(theta)
        sin, cos = np.sin(theta), np.cos(theta)
        rho = r * sin
        drho = dr * sin + r * cos
        ddrho = ddr * sin + 2.0 * dr * cos - r * sin
        dz = dr * cos - r * sin
        ddz = ddr * cos - 2.0 * dr * sin - r * cos
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = dz * (drho * ddz - dz * ddrho) / (rho * (drho**2 + dz**2) ** 2)
        # Poles: rho -> 0; expanding the profile to second order around the
        # axis gives the limit ((r - r'')/r^2)^2.
        pole = ((r - ddr) / r**2) ** 2
        near_pole = np.abs(sin) < 1e-8
        return np.where(near_pole, pole, curv)

    def mesh(self, resolution: int = 3) -> TriangleMesh:
        verts, faces = _icosphere_arrays(resolution)
        unit = verts / np.linalg.norm(verts, axis=1, keepdims=True)
        theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
        scaled = unit * self.radius_at(theta)[:, None]
        return TriangleMesh(scaled, faces)

    def curvature_values(self, mesh: TriangleMesh) -> np.ndarray:
        norms = np.linalg.norm(mesh.vertices, axis=1)
        theta = np.arccos(np.clip(mesh.vertices[:, 2] / norms, -1.0, 1.0))
        return self.curvature_at(theta)

    def area(self) -> float:
        """2 pi int_0^pi rho |(rho', z')| d theta, by composite Gauss-Legendre.

        An order-32 rule on each of 4 * frequency equal panels, one per
        quarter period of the bump; against 30-digit quadrature it is
        within 1e-15 relative for amplitudes up to 0.5 and frequencies
        1 to 8.
        """
        nodes, weights = np.polynomial.legendre.leggauss(32)
        panels = 4 * int(self.frequency)
        width = math.pi / panels
        theta = width * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))
        r, dr, _ = self._profile(theta)
        sin, cos = np.sin(theta), np.cos(theta)
        rho = r * sin
        drho = dr * sin + r * cos
        dz = dr * cos - r * sin
        integral = 0.5 * width * float(np.sum((rho * np.hypot(drho, dz)) @ weights))
        return 2.0 * math.pi * integral


# -- mesh generators -----------------------------------------------------


def _icosphere_arrays(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vertices and faces of the icosahedron subdivided ``subdivisions`` times.

    Each round splits every face (a, b, c) into (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca).  A side's midpoint is the sum of its
    ends scaled to unit length, and the new vertices are numbered in the
    order their sides first occur, face by face and side ab, bc, ca
    within a face.  Each length is sqrt(v . v) per row, which gives
    ``np.linalg.norm`` of that row to the bit.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be nonnegative")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ])
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    verts /= np.sqrt(np.vecdot(verts, verts))[:, None]

    for _ in range(subdivisions):
        sides = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
        pairs, first, inverse = np.unique(
            np.sort(sides, axis=1), axis=0, return_index=True, return_inverse=True
        )
        # Number each distinct side by its first occurrence.
        order = np.argsort(first)
        rank = np.empty(len(pairs), dtype=np.int64)
        rank[order] = np.arange(len(verts), len(verts) + len(pairs))
        ab, bc, ca = rank[inverse.reshape(-1)].reshape(-1, 3).T
        a, b, c = faces.T
        mid = verts[pairs[order]].sum(axis=1)
        verts = np.concatenate([verts, mid / np.sqrt(np.vecdot(mid, mid))[:, None]])
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
    return verts, faces


def icosphere_mesh(subdivisions: int = 3, radius: float = 1.0) -> TriangleMesh:
    """Icosahedron subdivided ``subdivisions`` times, projected to the sphere."""
    verts, faces = _icosphere_arrays(subdivisions)
    return TriangleMesh(radius * verts, faces)


def revolution_torus_mesh(
    ring_radius: float, tube_radius: float, n_theta: int, n_phi: int
) -> TriangleMesh:
    """Standard embedded torus grid; theta runs around the tube."""
    if n_theta < 3 or n_phi < 3:
        raise ValueError("need at least 3 segments in each direction")
    if ring_radius <= tube_radius:
        raise ValueError("ring radius must exceed tube radius")
    verts = np.empty((n_theta * n_phi, 3))
    for i in range(n_theta):
        theta = 2.0 * math.pi * i / n_theta
        for j in range(n_phi):
            phi = 2.0 * math.pi * j / n_phi
            w = ring_radius + tube_radius * math.cos(theta)
            verts[i * n_phi + j] = (
                w * math.cos(phi),
                w * math.sin(phi),
                tube_radius * math.sin(theta),
            )
    faces = _grid_faces(n_theta, n_phi)
    return TriangleMesh(verts, faces)


def _grid_faces(p: int, q: int) -> np.ndarray:
    faces = []
    for i in range(p):
        for j in range(q):
            v00 = i * q + j
            v10 = ((i + 1) % p) * q + j
            v01 = i * q + (j + 1) % q
            v11 = ((i + 1) % p) * q + (j + 1) % q
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return np.array(faces, dtype=np.int64)


def flat_torus_mesh(width: float, height: float, p: int, q: int) -> TriangleMesh:
    """Flat torus on a p x q grid, metric carried by intrinsic edge lengths.

    Vertex positions are the parameter-plane points (for serialization and
    display only); lengths come from the flat metric with wraparound, so
    every angle defect vanishes identically.
    """
    if p < 3 or q < 3:
        raise ValueError("need at least a 3 x 3 grid")
    xs = np.arange(p) * (width / p)
    ys = np.arange(q) * (height / q)
    verts = np.zeros((p * q, 3))
    for i in range(p):
        for j in range(q):
            verts[i * q + j, 0] = xs[i]
            verts[i * q + j, 1] = ys[j]
    faces = _grid_faces(p, q)
    lengths = _flat_lengths(faces, width, height, p, q)
    return TriangleMesh(verts, faces, intrinsic_lengths=lengths)


def _flat_lengths(faces, width, height, p, q):
    """Wrapped grid distances for every edge of the grid torus, in edge order."""
    edges = _edge_table(faces)[0]
    dx_unit = width / p
    dy_unit = height / q
    i1, j1 = edges[:, 0] // q, edges[:, 0] % q
    i2, j2 = edges[:, 1] // q, edges[:, 1] % q
    di = np.minimum(np.abs(i1 - i2), p - np.abs(i1 - i2))
    dj = np.minimum(np.abs(j1 - j2), q - np.abs(j1 - j2))
    return np.hypot(di * dx_unit, dj * dy_unit)


def genus2_mesh(
    ring_radius: float = 1.0,
    tube_radius: float = 0.35,
    n_theta: int = 8,
    n_phi: int = 8,
    gap: float = 0.5,
) -> TriangleMesh:
    """Connected sum of two revolution tori joined by a six-triangle tube.

    One extreme face is removed from each torus and the two boundary
    triangles are bridged so that every edge keeps opposite traversals;
    the result is a closed oriented surface of genus 2.
    """
    base = revolution_torus_mesh(ring_radius, tube_radius, n_theta, n_phi)
    offset = ring_radius + tube_radius + gap / 2.0
    verts_a = base.vertices - np.array([offset, 0.0, 0.0])
    verts_b = base.vertices + np.array([offset, 0.0, 0.0])

    centroids = base.vertices[base.faces].mean(axis=1)[:, 0]
    face_a = int(np.argmax(centroids))
    face_b = int(np.argmin(centroids))

    shift = base.vertex_count
    faces_a = [tuple(f) for k, f in enumerate(base.faces.tolist()) if k != face_a]
    faces_b = [
        tuple(v + shift for v in f)
        for k, f in enumerate(base.faces.tolist())
        if k != face_b
    ]
    loop_a = base.faces[face_a].tolist()
    loop_b = [v + shift for v in base.faces[face_b].tolist()]

    all_verts = np.vstack([verts_a, verts_b])
    # The bridge traverses loop_a forward and loop_b backward; among the
    # three rotations of the backward loop pick the one with the shortest
    # connecting edges.
    reversed_b = [loop_b[0], loop_b[2], loop_b[1]]
    best = None
    for rot in range(3):
        cand = reversed_b[rot:] + reversed_b[:rot]
        length = sum(
            np.linalg.norm(all_verts[loop_a[i]] - all_verts[cand[i]]) for i in range(3)
        )
        if best is None or length < best[0]:
            best = (length, cand)
    c = best[1]

    bridge = []
    for i in range(3):
        j = (i + 1) % 3
        bridge.append((loop_a[i], loop_a[j], c[i]))
        bridge.append((loop_a[j], c[j], c[i]))

    faces = np.array(faces_a + faces_b + bridge, dtype=np.int64)
    return TriangleMesh(all_verts, faces)


BUILTIN_NAMES = ("sphere", "flat-torus", "torus-rev", "bumpy-sphere", "genus2")


def builtin_surface(name: str) -> AnalyticSurface | None:
    """Analytic surface for a builtin name; genus2 has no analytic model."""
    if name == "sphere":
        return RoundSphere()
    if name == "flat-torus":
        return FlatTorus()
    if name == "torus-rev":
        return TorusOfRevolution()
    if name == "bumpy-sphere":
        return BumpySphere()
    if name == "genus2":
        return None
    raise MeshError(f"unknown builtin surface {name!r} (choose from {BUILTIN_NAMES})")


def builtin_mesh(name: str, resolution: int | None = None) -> TriangleMesh:
    surface = builtin_surface(name)
    if surface is None:
        n = 8 if resolution is None else resolution
        return genus2_mesh(n_theta=n, n_phi=n)
    if resolution is None:
        return surface.mesh()
    return surface.mesh(resolution)


# -- file io ---------------------------------------------------------------


def read_off(text: str) -> TriangleMesh:
    """ASCII OFF: 'OFF' header, counts line, vertex lines, face lines."""
    tokens = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tokens.extend(stripped.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise MeshError("not an OFF file (missing OFF header)")
    pos = 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3  # vertex, face, edge counts (edge count unused)
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            arity = int(tokens[pos])
            if arity != 3:
                raise MeshError("only triangle faces are supported")
            faces.append([int(t) for t in tokens[pos + 1 : pos + 4]])
            pos += 1 + arity
    except (IndexError, ValueError) as exc:
        if isinstance(exc, MeshError):
            raise
        raise MeshError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def read_obj(text: str) -> TriangleMesh:
    """Minimal OBJ subset: v and f records, triangles only.

    A face index is 1-based, or negative, counting back from the last
    vertex read before the face record (-1 is that vertex), as the OBJ
    format defines it.  Index 0, a malformed number and a short vertex
    record raise ``MeshError`` naming the line.
    """
    verts, faces = [], []
    for number, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        kind = "vertex" if parts[0] == "v" else "face"
        record = f"OBJ {kind} record on line {number}"
        if kind == "face" and len(parts) != 4:
            raise MeshError(f"only triangle faces are supported ({record})")
        try:
            if kind == "vertex":
                if len(parts) < 4:
                    raise ValueError("fewer than three coordinates")
                verts.append([float(x) for x in parts[1:4]])
            else:
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                if 0 in idx:
                    raise ValueError("index 0 (indices start at 1)")
                faces.append([i - 1 if i > 0 else len(verts) + i for i in idx])
        except ValueError as exc:
            raise MeshError(f"malformed {record}: {exc}") from exc
    if not verts or not faces:
        raise MeshError("OBJ file contains no usable v/f records")
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def write_off(mesh: TriangleMesh, path) -> None:
    lines = ["OFF", f"{mesh.vertex_count} {mesh.face_count} {mesh.edge_count}"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> TriangleMesh:
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".obj":
        return read_obj(text)
    if suffix == ".off":
        return read_off(text)
    if text.lstrip()[:3].upper() == "OFF":
        return read_off(text)
    return read_obj(text)
