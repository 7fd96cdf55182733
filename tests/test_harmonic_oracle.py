"""The harmonic Betti oracle: certified sparse kernel counts of L1 and L0.

``dec._certified_kernel_dim`` counts a kernel from an inertia count and,
when that count is not zero, as many Lanczos Ritz pairs as it finds
below the shift, certified by their residuals.  Its residual bound must
dominate the kernel eigenvalues of the dense spectra (L0's eigensolve,
L1's full E x E assembly), its shift must lie below their first
eigenvalue above the threshold, and its counts must equal the dense and
the combinatorial ones.  It factors once, or twice when an eigenvalue
lies between the zero threshold and the first shift, each time the
shifted matrix in reverse Cuthill-McKee order with the MMD_AT_PLUS_A
ordering, whose factor is sparser than a COLAMD one.  A Ritz pair it was
not given, a wrong Ritz vector, a negative eigenvalue or a pivoted
factorization makes it raise.  Each eigensolve keeps the numbers its
check computed.
"""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from bettibound import cli, dec as dec_module, measure
from bettibound.dec import (
    DECOperators,
    _certified_kernel_dim,
    betti1_oracle,
    betti1_rank_count,
    build_dec,
    kernel_dim_0forms,
)
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


def zero_threshold(s) -> float:
    return measure.ZERO_TOL * (1.0 + float(abs(s).sum(axis=1).max()))


def assert_counts_dominate_dense_spectra(dec):
    lap0, lap1 = dec.laplacian0(), dec.laplacian1()
    for op in (lap0, lap1):
        # The operator keeps the DEC's CSR matrix, so this is the matrix
        # the oracle counts on.
        s = op.conjugated()
        k, bound, sigma = _certified_kernel_dim(s)
        assert k == op.kernel_dim()
        # Each dense kernel eigenvalue lies within its own residual of an
        # eigenvalue of S, which the certificate puts within ``bound``.
        slack = op.residual_norms[:k] / math.sqrt(1.0 - op.orthogonality_loss)
        assert np.all(np.abs(op.eigenvalues[:k]) <= bound + slack)
        assert bound <= zero_threshold(s) < sigma
        assert np.count_nonzero(op.eigenvalues < sigma) == k
    assert kernel_dim_0forms(dec) == lap0.kernel_dim()
    assert betti1_oracle(dec.mesh, dec) == lap1.kernel_dim() == betti1_rank_count(dec)
    return lap1.kernel_dim()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_oracle_bounds_dominate_full_assembly_on_builtins(name):
    assert_counts_dominate_dense_spectra(build_dec(builtin_mesh(name)))


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
    dec = build_dec(TriangleMesh(moved, mesh.faces))
    assert assert_counts_dominate_dense_spectra(dec) == genus_b1


@pytest.mark.parametrize(
    "name,resolution",
    [(name, None) for name in BUILTIN_NAMES] + [("genus2", 32), ("bumpy-sphere", 4)],
)
def test_prepare_surface_runs_no_eigensolve(monkeypatch, name, resolution):
    # genus2(32) has 6150 edges and bumpy-sphere(4) 7680; counting their
    # kernels from dense eigensolves of L0 and L2 took tens of seconds.
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigensolve while preparing a surface")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(measure, "_eigh_in_place", no_eigh)
    data = prepare_surface(builtin_mesh(name, resolution))
    assert data.b1 == betti1_rank_count(data.dec) and data.kernel_dim_0forms == 1
    assert not hasattr(data, "laplacian0") and not hasattr(data, "laplacian2")


# -- the certificate rejects ---------------------------------------------------


def _genus2_edge_matrix():
    dec = build_dec(genus2_mesh(n_theta=6, n_phi=6))
    return measure.WeightedOperator(dec.laplacian1_matrix(), dec.edge_space()).conjugated()


def test_oracle_rejects_a_perturbed_harmonic_column(monkeypatch):
    s = _genus2_edge_matrix()
    assert _certified_kernel_dim(s)[0] == 4
    eigsh = dec_module.eigsh
    direction = np.random.default_rng(5).standard_normal(s.shape[0])

    def perturbed(*args, **kwargs):
        theta, x = eigsh(*args, **kwargs)
        x[:, 1] += 1e-6 * direction / np.linalg.norm(direction)
        return theta, x

    monkeypatch.setattr(dec_module, "eigsh", perturbed)
    with pytest.raises(ValueError, match="Ritz residual bound .* exceeds the zero threshold"):
        _certified_kernel_dim(s)


def _planted(eigenvalues, seed=1):
    """A dense symmetric CSR matrix with the given spectrum."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))[0]
    return csr_matrix((q * np.asarray(eigenvalues)) @ q.T)


def _shift(s) -> float:
    return dec_module._LANCZOS_SHIFT * (1.0 + float(abs(s).sum(axis=1).max()))


def _recording_splu(monkeypatch) -> list:
    """Record each ``splu`` call of the inertia count (``measure._inertia``)
    as (matrix, keyword arguments, factor)."""
    calls = []
    splu_ = measure.splu

    def recording(matrix, **kwargs):
        lu = splu_(matrix, **kwargs)
        calls.append((matrix, kwargs, lu))
        return lu

    monkeypatch.setattr(measure, "splu", recording)
    return calls


def test_count_rejects_an_eigenvalue_between_threshold_and_shift(monkeypatch):
    # Two kernel vectors, one eigenvalue 1e-5 (far above the 1e-7 zero
    # threshold, below the 1e-4 shift) and the rest from 1 on.  The first
    # factorization counts three eigenvalues below the shift; the Ritz pair
    # at 1e-5 moves the shift below it, and one more factorization counts
    # the two kernel vectors.  A Lanczos run that missed the 1e-5 pair
    # leaves the count at 2 against the first factorization's 3.
    spectrum = np.concatenate([[0.0, 0.0, 1e-5], np.arange(1.0, 38.0)])
    s = _planted(spectrum)
    assert zero_threshold(s) < 1e-5 < _shift(s)
    calls = _recording_splu(monkeypatch)
    k, _, sigma = _certified_kernel_dim(s)
    assert k == 2 and zero_threshold(s) < sigma < 1e-5
    assert len(calls) == 2
    eigsh = dec_module.eigsh

    def missing_pair(*args, **kwargs):
        theta, x = eigsh(*args, **kwargs)
        keep = np.abs(theta - 1e-5) > 1e-7
        return theta[keep], x[:, keep]

    monkeypatch.setattr(dec_module, "eigsh", missing_pair)
    calls.clear()
    with pytest.raises(ValueError, match="3 eigenvalues lie below the shift"):
        _certified_kernel_dim(s)
    assert len(calls) == 1


def test_count_refactors_at_most_once(monkeypatch):
    # A Ritz value in (tau, shift) that is no eigenvalue moves the shift
    # above the true 1e-5 eigenvalue, so the second factorization still
    # finds three eigenvalues below it; the count raises there instead of
    # factoring a third time.
    spectrum = np.concatenate([[0.0, 0.0, 1e-5], np.arange(1.0, 38.0)])
    s = _planted(spectrum)
    eigsh = dec_module.eigsh

    def phantom_pair(*args, **kwargs):
        theta, x = eigsh(*args, **kwargs)
        theta[-1] = 0.5 * (zero_threshold(s) + kwargs["sigma"])
        return theta, x

    monkeypatch.setattr(dec_module, "eigsh", phantom_pair)
    calls = _recording_splu(monkeypatch)
    with pytest.raises(ValueError, match="3 eigenvalues lie below the shift"):
        _certified_kernel_dim(s)
    assert len(calls) == 2


def test_count_rejects_a_negative_eigenvalue(monkeypatch):
    # S is not positive semidefinite: one eigenvalue -1e-3, below -tau.
    # It is among the pairs below the shift but not counted, so the count
    # raises after one factorization.
    spectrum = np.concatenate([[-1e-3, 0.0, 0.0], np.arange(1.0, 38.0)])
    calls = _recording_splu(monkeypatch)
    with pytest.raises(ValueError, match="kernel count 2 not certified: 3 eigenvalues"):
        _certified_kernel_dim(_planted(spectrum))
    assert len(calls) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_each_count_factors_once(monkeypatch, name):
    dec = build_dec(builtin_mesh(name))
    calls = _recording_splu(monkeypatch)
    lanczos = []
    eigsh = dec_module.eigsh

    def recording(*args, **kwargs):
        # The run solves with the count's own factor, never one of its own.
        assert kwargs["OPinv"] is not None
        lanczos.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(dec_module, "eigsh", recording)
    assert kernel_dim_0forms(dec) == 1
    assert len(calls) == 1 and lanczos == [1]
    b1 = betti1_oracle(dec.mesh, dec)
    assert len(calls) == 2
    # An empty kernel (the spheres' L1) is certified by the inertia alone.
    assert lanczos == [1] + ([b1] if b1 else [])


def _negative_pivots(lu) -> int:
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _colamd_factor(shifted):
    """The factor the count used before its reverse Cuthill-McKee preorder."""
    return splu(
        shifted.tocsc(), permc_spec="COLAMD", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _conjugated_laplacians(dec):
    return [
        measure.WeightedOperator(dec.laplacian0_matrix(), dec.vertex_space()).conjugated(),
        measure.WeightedOperator(dec.laplacian1_matrix(), dec.edge_space()).conjugated(),
    ]


@pytest.mark.parametrize(
    "name,resolution",
    [(name, None) for name in BUILTIN_NAMES] + [("genus2", 32), ("bumpy-sphere", 4)],
)
def test_each_count_factors_the_rcm_ordered_matrix(monkeypatch, name, resolution):
    dec = build_dec(builtin_mesh(name, resolution))
    calls = _recording_splu(monkeypatch)
    counts = [kernel_dim_0forms(dec), betti1_oracle(dec.mesh, dec)]
    assert counts == [1, betti1_rank_count(dec)]
    assert len(calls) == 2
    for s, (matrix, kwargs, lu) in zip(_conjugated_laplacians(dec), calls):
        shifted = s - _shift(s) * identity(s.shape[0], format="csr")
        order = reverse_cuthill_mckee(s, symmetric_mode=True)
        assert (matrix != shifted[order][:, order]).nnz == 0
        assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        assert kwargs["diag_pivot_thresh"] == 0.0 and kwargs["options"]["SymmetricMode"]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        # The same number of eigenvalues below the shift as the COLAMD factor
        # of the unpermuted matrix counts.
        assert _negative_pivots(lu) == _negative_pivots(_colamd_factor(shifted))


def test_rcm_ordered_factor_is_sparser_than_colamd(monkeypatch):
    # bumpy-sphere(4)'s L1 (E 7680): 823,120 factor nonzeros in reverse
    # Cuthill-McKee order with minimum degree, 1,373,260 with COLAMD.
    dec = build_dec(builtin_mesh("bumpy-sphere", 4))
    s = _conjugated_laplacians(dec)[1]
    calls = _recording_splu(monkeypatch)
    assert _certified_kernel_dim(s)[0] == 0
    (_, _, lu), = calls
    colamd = _colamd_factor(s - _shift(s) * identity(s.shape[0], format="csr"))
    assert lu.L.nnz + lu.U.nnz < 0.8 * (colamd.L.nnz + colamd.U.nnz)


def test_count_rejects_a_factorization_off_the_diagonal(monkeypatch):
    s = _genus2_edge_matrix()
    splu = measure.splu

    def pivoted(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)

    monkeypatch.setattr(measure, "splu", pivoted)
    with pytest.raises(ValueError, match="pivoted off the diagonal"):
        _certified_kernel_dim(s)


def test_count_asks_for_every_pair_below_the_shift_and_falls_back_to_one_dense_solve():
    # The inertia puts six eigenvalues below the shift, so one Lanczos run
    # asks for six pairs.  An order-3 matrix is eigensolved densely.
    spectrum = np.concatenate([np.zeros(6), np.arange(1.0, 35.0)])
    assert _certified_kernel_dim(_planted(spectrum))[0] == 6
    assert _certified_kernel_dim(_planted([0.0, 2.0, 3.0]))[0] == 1


# -- kept check numbers ----------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_operators_keep_their_check_numbers(name):
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    data = prepare_surface(builtin_mesh(name, resolution))
    lap0 = data.dec.laplacian0()
    comparison = dec_module.schrodinger_comparison(data.dec, data.curvature.values)
    operators = (lap0, data.dec.laplacian2(), comparison, data.laplacian1)
    for op in operators:
        q, evals, conj = op._euclidean_vectors, op.eigenvalues, op.conjugated()
        loss = measure._orthogonality_loss(q)
        assert op.orthogonality_loss == loss
        norms = measure._residual_norms(evals, q, conj)
        assert np.array_equal(op.residual_norms, norms)
        scale = measure._frobenius(conj)
        assert measure._reconstruction_bound(norms, scale, loss) == (
            measure._reconstruction_bound(op.residual_norms, scale, op.orthogonality_loss)
        )
        assert not op.residual_norms.flags.writeable
        with pytest.raises(AttributeError):
            op.orthogonality_loss = 0.0
    heat = lap0.semigroup(1.0)
    assert heat.orthogonality_loss is None and heat.residual_norms is None


# -- one CSR matrix per Laplacian --------------------------------------------------


def _record_hodge_pieces(monkeypatch, keep) -> dict:
    """keep(op) for the L0 and L2 operators that ``DECOperators.laplacian1``
    eigensolves, by name."""
    pieces = {}

    def recording(name):
        method = getattr(DECOperators, name)

        def build(self, *args, **kwargs):
            op = method(self, *args, **kwargs)
            pieces[name] = keep(op)
            return op

        return build

    for name in ("laplacian0", "laplacian2"):
        monkeypatch.setattr(DECOperators, name, recording(name))
    return pieces


def test_each_laplacian_matrix_is_built_once_and_shared(monkeypatch):
    built = []
    divide_rows = dec_module._divide_rows
    monkeypatch.setattr(
        dec_module, "_divide_rows", lambda *args: built.append(1) or divide_rows(*args)
    )
    pieces = _record_hodge_pieces(monkeypatch, lambda op: op)
    data = prepare_surface(genus2_mesh())
    report = betti_bound(BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=1.0), data=data)
    assert report.bound_schatten is not None
    # The oracle, the L0 count, the comparison operator and the Schatten
    # path's L0 and L1 all read the first build: one division for L0,
    # two for L1.
    assert len(built) == 3
    dec = data.dec
    assert pieces["laplacian0"].matrix is dec.laplacian0_matrix()
    assert data.laplacian1.matrix is dec.laplacian1_matrix()
    assert pieces["laplacian2"].matrix is dec.laplacian2_matrix()
    for matrix in dec._matrices.values():
        assert not any(p.flags.writeable for p in (matrix.data, matrix.indices, matrix.indptr))


# -- where L1 is assembled -------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_schatten_paths_never_assemble_laplacian1(monkeypatch, capsys, name):
    def no_laplacian1(self, *args, **kwargs):
        raise AssertionError("L1 assembled without the Schatten certificate")

    monkeypatch.setattr(DECOperators, "laplacian1", no_laplacian1)
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    reports = parameter_sweep(
        prepare_surface(builtin_mesh(name, resolution)), [0.5, 1.0], [0.5, 1.0],
        compute_schatten=False,
    )
    assert all(r.passed for r in reports)
    assert cli.main(["mesh-info", "--builtin", name, "--quiet"]) == 0


def test_laplacian1_keeps_no_hodge_piece(monkeypatch):
    # The V x V and F x F eigenvectors of L0 and L2 are read by the assembly
    # of L1 only; neither the surface nor L1 keeps them.
    pieces = _record_hodge_pieces(monkeypatch, weakref.ref)
    data = prepare_surface(genus2_mesh())
    assert data.laplacian1.kernel_dim() == data.b1 == 4
    gc.collect()
    assert sorted(pieces) == ["laplacian0", "laplacian2"]
    assert all(ref() is None for ref in pieces.values())


def test_schatten_sweep_assembles_laplacian1_once(monkeypatch):
    calls = []
    laplacian1 = DECOperators.laplacian1

    def counting(self, *args, **kwargs):
        calls.append(1)
        return laplacian1(self, *args, **kwargs)

    monkeypatch.setattr(DECOperators, "laplacian1", counting)
    parameter_sweep(prepare_surface(genus2_mesh()), [0.5, 1.0], [0.5, 1.0])
    assert calls == [1]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_laplacian1_below_a_cut_off_holds_the_lowest_pairs(name):
    # L1 below sigma holds b1 + k0 + k2 pairs, k0 and k2 the nonzero pairs
    # of L0 and L2 below sigma: the inertia of L1 - sigma I counts exactly
    # as many (the Hodge count), and they are the full assembly's lowest,
    # to 1e-12 relative past the b1 harmonic ones.
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    data = prepare_surface(builtin_mesh(name, resolution))
    dec, full, b1 = data.dec, data.laplacian1, data.b1
    lap0, lap2 = dec.laplacian0(), dec.laplacian2()
    for sigma in (math.log(1e12) / 0.5, math.log(1e12) / 4.0, 2.0):
        part = dec.laplacian1(sigma)
        assert part.partial and part.cutoff == sigma
        k0, k2 = (
            int(np.count_nonzero((op.eigenvalues > op.zero_threshold()) & (op.eigenvalues < sigma)))
            for op in (lap0, lap2)
        )
        k = part.eigenvalues.size
        assert k == b1 + k0 + k2 == measure._count_below(part.conjugated(), sigma)[0]
        assert k == np.count_nonzero(full.eigenvalues < sigma) < full.dim
        assert part._euclidean_vectors.shape == (full.dim, k)
        assert part.kernel_dim() == full.kernel_dim() == b1
        lowest = full.eigenvalues[b1:k]
        assert np.all(np.abs(part.eigenvalues[b1:] - lowest) <= 1e-12 * lowest)
        assert part.orthogonality_loss <= 1e-10 and part.residual_norms.shape == (k,)


def test_laplacian1_below_a_cut_off_starts_from_the_oracle_ritz_vectors(monkeypatch):
    # The Betti oracle's Lanczos run leaves its certified Ritz vectors on the
    # DEC; L1 below a cut-off starts its harmonic block from them, with no
    # second Lanczos run, and keeps none of the V x V or F x F eigenvectors
    # of L0 and L2.
    data = prepare_surface(genus2_mesh())
    ritz = data.dec.harmonic_ritz_vectors
    assert ritz.shape == (data.mesh.edge_count, data.b1) and not ritz.flags.writeable
    lanczos = []
    eigsh = dec_module.eigsh
    monkeypatch.setattr(dec_module, "eigsh", lambda *a, **k: lanczos.append(1) or eigsh(*a, **k))
    pieces = _record_hodge_pieces(monkeypatch, weakref.ref)
    part = data.dec.laplacian1(math.log(1e12))
    assert part.partial and lanczos == []
    assert betti1_oracle(data.mesh, data.dec) == data.b1 and lanczos == []
    gc.collect()
    assert sorted(pieces) == ["laplacian0", "laplacian2"]
    assert all(ref() is None for ref in pieces.values())
    # The harmonic block spans the oracle's kernel.
    kernel = part._euclidean_vectors[:, : data.b1]
    cosines = np.linalg.svd(ritz.T @ kernel, compute_uv=False)
    assert np.allclose(cosines, 1.0, atol=1e-10)


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_disagreeing_ritz_blocks_raise(monkeypatch, p):
    # The full assembly's kernel is made to lose a harmonic form, so its
    # count disagrees with the oracle's b1 = 4.  The MeshError escapes the
    # Schatten row, whether p = 2 reaches every pair through a refused L1
    # below the cut-off (a partial operator has no spectral function, a
    # ValueError) or any other p reads every pair from the start; it never
    # becomes a row's note.
    laplacian1 = DECOperators.laplacian1

    def shifted(self, *args, **kwargs):
        lap1 = laplacian1(self, *args, **kwargs)
        return lap1.spectral_function(lambda w: np.where(w == w.min(), 1.0, w))

    monkeypatch.setattr(DECOperators, "laplacian1", shifted)
    data = prepare_surface(genus2_mesh())
    assert data.b1 == 4
    with pytest.raises(MeshError, match="Betti oracles disagree"):
        betti_bound(BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=1.0, p=p), data=data)
