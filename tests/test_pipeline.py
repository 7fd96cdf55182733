"""End-to-end certified bound checks against the homology oracles."""

import functools

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from bettibound.birman import OperatorPair, crude_kernel_bound, semigroup_difference
from bettibound.measure import SelfAdjointOperator, WeightedOperator, schatten_power_sum
from bettibound.mesh import (
    BUILTIN_NAMES,
    BumpySphere,
    FlatTorus,
    RoundSphere,
    TorusOfRevolution,
    builtin_mesh,
    genus2_mesh,
)
from bettibound.pipeline import (
    BettiBoundInputs,
    betti_bound,
    li_yau_betti_bound,
    parameter_sweep,
    prefactors,
    prepare_surface,
    schatten_betti_bound,
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
    assert report.bound_main_abstract == 0.0
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


def test_sharp_prefactor_below_loose(torus_data):
    report = betti_bound(
        BettiBoundInputs(surface=FlatTorus(), rho0=0.4, t0=2.0), data=torus_data
    )
    assert report.bound_main <= report.bound_main_abstract


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
    value = schatten_betti_bound(lap1, perturbed, rho0, t0, 2.0)
    oracle = float(np.sum(np.exp(-2.0 * (2.0 * t0) * lap1.eigenvalues)))
    assert np.isclose(value, oracle, rtol=1e-9)
    assert value >= 2.0 - 1e-9 * (1.0 + value)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_schatten_bound_dominates_kernel_both_exponents(torus_data, p):
    rho0, t0 = 0.4, 0.7
    potential = synthetic_edge_potential(torus_data.dec, torus_data.curvature, rho0)
    perturbed = schatten_operator(torus_data.laplacian1, potential, rho0)
    value = schatten_betti_bound(torus_data.laplacian1, perturbed, rho0, t0, p)
    assert value >= torus_data.b1 - 1e-9 * (1.0 + value)


def test_schatten_bound_trivial_kernel_on_sphere(sphere_data):
    rho0, t0 = 0.5, 1.0
    potential = synthetic_edge_potential(sphere_data.dec, sphere_data.curvature, rho0)
    perturbed = schatten_operator(sphere_data.laplacian1, potential, rho0)
    value = schatten_betti_bound(sphere_data.laplacian1, perturbed, rho0, t0, 2.0)
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


# -- Li-Yau style bound -----------------------------------------------------------


def test_liyau_zero_on_sphere(sphere_data):
    value = li_yau_betti_bound(
        sphere_data.curvature,
        rho0=0.5,
        curvature_floor=0.0,
        volume=sphere_data.volume,
        diameter=sphere_data.mesh.diameter_estimate(),
    )
    assert value == 0.0


def test_liyau_flat_torus_closed_form(torus_data):
    # Flat metric: K >= 0, so the exponential factor is 1 and the volume
    # cancels, leaving 2 c_n.
    c_n = 1.7
    value = li_yau_betti_bound(
        torus_data.curvature,
        rho0=0.6,
        curvature_floor=0.0,
        volume=torus_data.volume,
        diameter=torus_data.mesh.diameter_estimate(),
        c_n=c_n,
    )
    assert np.isclose(value, 2.0 * c_n, rtol=1e-9)


def test_liyau_torus_of_revolution_finite():
    surface = TorusOfRevolution()
    data = prepare_surface(surface, resolution=12)
    floor = max(0.0, -float(data.curvature.min()))
    value = li_yau_betti_bound(
        data.curvature,
        rho0=0.3,
        curvature_floor=floor,
        volume=data.volume,
        diameter=data.mesh.diameter_estimate(),
    )
    assert np.isfinite(value) and value > 0.0


def test_liyau_floor_violation_rejected():
    surface = TorusOfRevolution()
    data = prepare_surface(surface, resolution=12)
    with pytest.raises(ValueError, match="curvature bound violated"):
        li_yau_betti_bound(
            data.curvature,
            rho0=0.3,
            curvature_floor=0.0,
            volume=data.volume,
            diameter=data.mesh.diameter_estimate(),
        )


def test_liyau_report_marked_uncertified(torus_data):
    report = betti_bound(
        BettiBoundInputs(surface=FlatTorus(), rho0=0.5, t0=1.0),
        data=torus_data,
        liyau_curvature_floor=0.0,
    )
    assert report.bound_liyau is not None
    assert any("uncertified" in note for note in report.notes)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_single_point(torus_data):
    result = parameter_sweep(FlatTorus(), [0.5], [1.0], resolution=8)
    assert len(result["reports"]) == 1
    assert result["argmin_index"] == 0
    assert result["all_pass"]


def test_sweep_sphere_all_zero():
    result = parameter_sweep(
        RoundSphere(), [0.2, 0.5, 0.9], [0.5, 1.0], resolution=2,
        compute_schatten=False,
    )
    assert all(r.bound_main == 0.0 for r in result["reports"])
    assert result["min_bound_main"] == 0.0
    assert result["all_pass"]


def test_sweep_torus_grid_deterministic_order(torus_data):
    rho0s, t0s = [0.3, 0.6], [0.5, 1.5]
    result = parameter_sweep(FlatTorus(), rho0s, t0s, resolution=8)
    got = [(r.rho0, r.t0) for r in result["reports"]]
    assert got == [(0.3, 0.5), (0.3, 1.5), (0.6, 0.5), (0.6, 1.5)]
    assert result["all_pass"]
    assert result["min_bound_main"] == min(r.bound_main for r in result["reports"])


@pytest.mark.parametrize("schatten", [True, False], ids=["schatten", "no-schatten"])
def test_sweep_eigensolves_each_operator_once(monkeypatch, schatten):
    # Once per surface: L0 (V x V), the face Laplacian L2 (F x F), the
    # b1 x b1 Rayleigh-Ritz block of the harmonic 1-forms and the
    # comparison operator L0 + K (V x V); L1 itself is assembled from these,
    # with no E x E eigensolve.  Once per rho0 with the Schatten
    # certificate: L1 + W (E x E).
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    mesh = genus2_mesh()
    parameter_sweep(mesh, [0.5, 1.0], [0.5, 1.0], compute_schatten=schatten)
    nv, ne, nf = mesh.vertex_count, mesh.edge_count, mesh.face_count
    expected = [(nv, nv), (nf, nf), (4, 4), (nv, nv)]
    if schatten:
        expected += [(ne, ne)] * 2
    assert calls == expected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_schatten_sweep_densifies_only_eigensolve_inputs(monkeypatch, name):
    # The Laplacians are CSR: each dense copy made while a surface is
    # prepared and swept is the very array an eigensolve reads, and none
    # is E x E, so L1's matrix is never densified.
    densified, solved = [], []
    toarray, eigh = csr_matrix.toarray, np.linalg.eigh

    def recording_toarray(self, *args, **kwargs):
        densified.append(toarray(self, *args, **kwargs))
        return densified[-1]

    def recording_eigh(a, *args, **kwargs):
        solved.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(csr_matrix, "toarray", recording_toarray)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    mesh = builtin_mesh(name, resolution)
    parameter_sweep(mesh, [0.5, 1.0], [0.5, 1.0], compute_schatten=False)
    assert len(densified) == 3  # L0, L2 and L0 + K
    assert all(any(dense is a for a in solved) for dense in densified)
    assert all(dense.shape != (mesh.edge_count,) * 2 for dense in densified)


def test_zero_edge_potential_gives_exact_zero_without_eigensolve(monkeypatch):
    # Curvature 1 everywhere above rho0 = 0.5 leaves W = 0, so L1 + W is
    # L1 itself: no eigensolve, and a bitwise-zero Schatten bound.  The one
    # eigensolve is the comparison operator L0 + K (V x V), on first read.
    data = prepare_surface(RoundSphere(), resolution=2)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw)
    )
    potential = synthetic_edge_potential(data.dec, data.curvature, 0.5)
    assert not np.any(potential.values)
    assert data.schatten_operator(0.5) is data.laplacian1
    for t0 in (1.0, 3.0):
        report = betti_bound(
            BettiBoundInputs(surface=RoundSphere(), rho0=0.5, t0=t0), data=data
        )
        assert report.bound_schatten == 0.0
    assert calls == [(data.mesh.vertex_count,) * 2]


def test_p2_grid_point_builds_no_dense_heat_matrix(monkeypatch):
    # After the first t0 of a rho0, a p = 2 point runs no eigensolve, no
    # eigvalsh and builds no dense matrix of a derived operator; p = 1
    # still takes the singular values of the dense difference.
    data = prepare_surface(genus2_mesh())

    def point(t0, p):
        inputs = BettiBoundInputs(surface=data.mesh, rho0=0.5, t0=t0, p=p)
        return betti_bound(inputs, data=data)

    point(0.5, 2.0)
    counts = {"eigh": 0, "eigvalsh": 0, "matrix": 0}
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _solver=solver, **kw):
            counts[_name] += 1
            return _solver(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counting)
    dense = SelfAdjointOperator.__dict__["matrix"].func

    def counting_matrix(op):
        counts["matrix"] += 1
        return dense(op)

    prop = functools.cached_property(counting_matrix)
    prop.__set_name__(SelfAdjointOperator, "matrix")
    monkeypatch.setattr(SelfAdjointOperator, "matrix", prop)
    report = point(1.0, 2.0)
    assert report.bound_schatten is not None
    assert counts == {"eigh": 0, "eigvalsh": 0, "matrix": 0}
    point(1.0, 1.0)
    assert counts["eigh"] == 0 and counts["eigvalsh"] == 1 and counts["matrix"] == 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_spectral_schatten_bound_matches_dense_route(name):
    # Each rho0 has a nonzero W that L1 + W clears: W vanishes below the
    # curvature of the spheres, and the torus of revolution fails at 0.4.
    resolution = {"sphere": 2, "bumpy-sphere": 2, "flat-torus": 8}.get(name)
    rho0_values = {"sphere": (1.5, 2.0), "bumpy-sphere": (0.5, 1.0), "torus-rev": (0.1, 0.3)}
    rho0_values = rho0_values.get(name, (0.3, 1.0))
    data = prepare_surface(builtin_mesh(name, resolution))
    for rho0 in rho0_values:
        perturbed = data.schatten_operator(rho0)
        pair = OperatorPair(H=data.laplacian1, Hprime=perturbed, rho0=rho0, t0=1.4)
        spectral = crude_kernel_bound(pair, 2.0)
        gap = 1.0 - np.exp(-rho0 * pair.t0)
        scaled = WeightedOperator(
            semigroup_difference(pair, pair.t0).matrix / gap, data.laplacian1.space
        )
        dense = schatten_power_sum(scaled, 2.0)
        assert perturbed is not data.laplacian1
        assert abs(spectral - dense) <= 1e-12 * dense


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="nonempty"):
        parameter_sweep(FlatTorus(), [], [1.0], resolution=8)


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
