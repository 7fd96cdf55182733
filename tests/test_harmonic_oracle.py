"""The harmonic Betti oracle: dim ker L1 from L0's and L2's eigendata.

Its loss and residual bounds must dominate the orthogonality loss and the
residual bound that the full E x E assembly (``DECOperators.laplacian1``)
computes for the same eigenbasis, stay within the 1e-10 tolerance on the
builtins, and count the same kernel.  Each eigensolve keeps the numbers
its check computed, which the oracle reads.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettibound import cli, dec as dec_module, measure
from bettibound.dec import DECOperators, _harmonic_kernel, betti1_rank_count, build_dec
from bettibound.measure import SelfAdjointOperator
from bettibound.mesh import (
    BUILTIN_NAMES,
    MeshError,
    TriangleMesh,
    builtin_mesh,
    genus2_mesh,
    icosphere_mesh,
    revolution_torus_mesh,
)
from bettibound.pipeline import BettiBoundInputs, betti_bound, parameter_sweep, prepare_surface

TOL = measure.RECONSTRUCTION_TOL


def full_assembly_check(lap1):
    """The loss and residual bound of the full assembly's E x E eigenbasis."""
    q = lap1._euclidean_vectors
    conj = lap1.conjugated()
    loss = measure._orthogonality_loss(q)
    return loss, measure._residual_bound(lap1.eigenvalues, q, conj, loss), measure._frobenius(conj)


def assert_oracle_dominates(dec):
    lap0, lap2 = dec.laplacian0(), dec.laplacian2()
    dim, loss_bound, residual_bound = _harmonic_kernel(dec, lap0, lap2)
    lap1 = dec.laplacian1(lap0, lap2)
    loss, residual, scale = full_assembly_check(lap1)
    assert dim == lap1.kernel_dim() == betti1_rank_count(dec)
    assert loss <= loss_bound <= TOL
    assert residual <= residual_bound <= TOL * max(scale, 1.0)
    return dim


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_oracle_bounds_dominate_full_assembly_on_builtins(name):
    assert_oracle_dominates(build_dec(builtin_mesh(name)))


BASES = {
    "icosphere": (lambda: icosphere_mesh(1), 0),
    "torus-rev": (lambda: revolution_torus_mesh(2.0, 0.6, 6, 7), 2),
    "genus2": (lambda: genus2_mesh(n_theta=6, n_phi=6), 4),
}


@pytest.mark.parametrize("name", BASES)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), jitter=st.floats(0.0, 0.2))
def test_oracle_bounds_dominate_full_assembly_on_jittered_meshes(name, seed, jitter):
    build, genus_b1 = BASES[name]
    mesh = build()
    # Each vertex moves by up to ``jitter`` times the shortest edge, which
    # keeps every face nondegenerate and the surface embedded.
    rng = np.random.default_rng(seed)
    step = jitter * float(mesh.edge_lengths.min())
    moved = mesh.vertices + step * rng.uniform(-1.0, 1.0, mesh.vertices.shape) / math.sqrt(3.0)
    assert assert_oracle_dominates(build_dec(TriangleMesh(moved, mesh.faces))) == genus_b1


# -- mutation checks -----------------------------------------------------------


def _perturbed_laplacian(monkeypatch, op, column):
    """``op`` with one eigenvector column moved by 1e-8, checked under a loose
    tolerance so that it keeps the honest check numbers of the moved basis."""
    q = op._euclidean_vectors.copy()
    direction = np.random.default_rng(5).standard_normal(q.shape[0])
    q[:, column] += 1e-8 * direction / np.linalg.norm(direction)
    with monkeypatch.context() as patch:
        patch.setattr(measure, "RECONSTRUCTION_TOL", 1e-6)
        return SelfAdjointOperator.from_spectrum(op.space, op.eigenvalues, q, matrix=op.matrix)


@pytest.mark.parametrize("piece", ["laplacian0", "laplacian2"])
def test_oracle_rejects_a_perturbed_hodge_piece(monkeypatch, piece):
    dec = build_dec(genus2_mesh(n_theta=6, n_phi=6))
    pieces = {"laplacian0": dec.laplacian0(), "laplacian2": dec.laplacian2()}
    _harmonic_kernel(dec, **pieces)
    pieces[piece] = _perturbed_laplacian(monkeypatch, pieces[piece], -3)
    with pytest.raises(ValueError, match="not finite and orthonormal"):
        _harmonic_kernel(dec, **pieces)


def test_oracle_rejects_a_perturbed_harmonic_column(monkeypatch):
    dec = build_dec(genus2_mesh(n_theta=6, n_phi=6))
    lap0, lap2 = dec.laplacian0(), dec.laplacian2()
    rayleigh_ritz = dec_module._rayleigh_ritz

    def perturbed(c, b, block):
        ritz, z = rayleigh_ritz(c, b, block)
        z[:, 1] += 1e-8 * z[:, 0]
        return ritz, z

    monkeypatch.setattr(dec_module, "_rayleigh_ritz", perturbed)
    with pytest.raises(ValueError, match="not finite and orthonormal"):
        _harmonic_kernel(dec, lap0, lap2)


# -- kept check numbers ----------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_operators_keep_their_check_numbers(name):
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    data = prepare_surface(builtin_mesh(name, resolution))
    operators = (data.laplacian0, data.laplacian2, data.comparison, data.laplacian1)
    for op in operators:
        q, evals, conj = op._euclidean_vectors, op.eigenvalues, op.conjugated()
        loss = measure._orthogonality_loss(q)
        assert op.orthogonality_loss == loss
        assert np.array_equal(op.residual_norms, measure._residual_norms(evals, q, conj))
        assert measure._residual_bound(evals, q, conj, loss) == measure._reconstruction_bound(
            op.residual_norms, measure._frobenius(conj), op.orthogonality_loss
        )
        assert not op.residual_norms.flags.writeable
        with pytest.raises(AttributeError):
            op.orthogonality_loss = 0.0
    heat = data.laplacian0.semigroup(1.0)
    assert heat.orthogonality_loss is None and heat.residual_norms is None


# -- where L1 is assembled -------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_schatten_paths_never_assemble_laplacian1(monkeypatch, capsys, name):
    def no_laplacian1(self, *args, **kwargs):
        raise AssertionError("L1 assembled without the Schatten certificate")

    monkeypatch.setattr(DECOperators, "laplacian1", no_laplacian1)
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    result = parameter_sweep(
        builtin_mesh(name, resolution), [0.5, 1.0], [0.5, 1.0], compute_schatten=False
    )
    assert result["all_pass"]
    assert cli.main(["mesh-info", "--builtin", name, "--quiet"]) == 0


def test_schatten_sweep_assembles_laplacian1_once(monkeypatch):
    calls = []
    laplacian1 = DECOperators.laplacian1

    def counting(self, *args, **kwargs):
        calls.append(1)
        return laplacian1(self, *args, **kwargs)

    monkeypatch.setattr(DECOperators, "laplacian1", counting)
    parameter_sweep(genus2_mesh(), [0.5, 1.0], [0.5, 1.0])
    assert calls == [1]


def test_disagreeing_ritz_blocks_raise(monkeypatch):
    # The full assembly's kernel is made to lose a harmonic form, so its
    # count disagrees with the oracle's b1 = 4.
    laplacian1 = DECOperators.laplacian1

    def shifted(self, *args, **kwargs):
        lap1 = laplacian1(self, *args, **kwargs)
        return lap1.spectral_function(lambda w: np.where(w == w.min(), 1.0, w))

    monkeypatch.setattr(DECOperators, "laplacian1", shifted)
    data = prepare_surface(genus2_mesh())
    assert data.b1 == 4
    with pytest.raises(MeshError, match="Betti oracles disagree"):
        betti_bound(BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=1.0), data=data)
