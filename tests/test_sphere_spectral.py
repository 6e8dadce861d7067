"""Harmonic analysis on the sphere: basis, quadrature, projections, operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from serrin_torsion.sphere_spectral import (
    PerturbationState,
    SphereFunction,
    ball_volume,
    calL_solve,
    get_basis,
    product_points,
)


def dtn(v):
    """Dirichlet-to-Neumann map of the unit ball: degree k times k."""
    return SphereFunction(v.basis, v.coeffs * v.basis.degrees)


def L_operator(w):
    """Steklov-shifted operator DtN - 1: factor k - 1 on degree k, so its
    kernel is degree 1."""
    return SphereFunction(w.basis, w.coeffs * (w.basis.degrees - 1.0))


def norm_l2(f):
    """L^2(S^{N-1}) norm, by Parseval the coefficient norm."""
    return float(np.linalg.norm(f.coeffs))


def pi0(f):
    """Projection onto the constants."""
    return SphereFunction(f.basis, f.coeffs * (f.basis.degrees == 0))


def random_function(basis, rng, decay=2.0):
    c = rng.standard_normal(basis.n_modes) / (1.0 + basis.degrees) ** decay
    return SphereFunction(basis, c)


@pytest.fixture(scope="module", params=[2, 3])
def basis(request):
    N = request.param
    return get_basis(N, 16 if N == 2 else 10)


def test_surface_measures():
    assert_allclose(get_basis(2, 1).area, 2 * np.pi, rtol=1e-15)
    assert_allclose(get_basis(3, 1).area, 4 * np.pi, rtol=1e-15)
    assert_allclose(ball_volume(2), np.pi, rtol=1e-15)
    assert_allclose(ball_volume(3), 4 * np.pi / 3, rtol=1e-15)


@pytest.mark.parametrize("N", [2, 3])
def test_max_degree_past_its_bound_raises(N):
    """Past MAX_DEGREE the basis raises before it builds a table, at N = 2
    and 3 alike (at N = 3 the largest norm (2L+1)! would pass the float
    range from L = 85)."""
    with pytest.raises(ValueError, match="at most 32, got 33"):
        get_basis(N, 33)


def test_basis_orthonormal(basis):
    # the default degree and a high one: the recurrence keeps the Gram
    # error at roundoff as max_degree grows
    N = basis.dim
    for b in (basis, get_basis(N, 32 if N == 2 else 18)):
        G = (b.Y * b.weights) @ b.Y.T
        assert np.abs(G - np.eye(b.n_modes)).max() < 5e-14


def test_quadrature_constant(basis):
    f = basis.project_values(np.ones(len(basis.nodes)))
    c = f.coeffs.copy()
    c[0] = 0.0
    assert np.abs(c).max() < 5e-12
    assert_allclose(f.mean(), 1.0, rtol=1e-13)


def test_quadrature_harmonic_polynomial():
    # x1 x2 restricted to S^2 is a pure degree-2 harmonic
    basis = get_basis(3, 10)
    f = basis.project_values(basis.nodes[:, 0] * basis.nodes[:, 1])
    for k in range(basis.max_degree + 1):
        s = basis.degree_slice(k)
        block = np.abs(f.coeffs[s.start: s.stop]).max() if s.stop > s.start else 0.0
        if k == 2:
            assert block > 0.1
        else:
            assert block < 5e-12


def test_degree_table_lists_each_degree(basis):
    """Row k of degree_table holds the modes of degree k, padded by the
    last one; degree_rows reads the modes back in order; both read-only."""
    table, real = basis.degree_table, basis.degree_rows
    width = 2 if basis.dim == 2 else 2 * basis.max_degree + 1
    assert table.shape == (basis.max_degree + 1, width)
    for k, row in enumerate(table):
        s = basis.degree_slice(k)
        n = s.stop - s.start
        assert list(row[:n]) == list(range(s.start, s.stop))
        assert (row[n:] == s.stop - 1).all()
    assert list(table.reshape(-1)[real]) == list(range(basis.n_modes))
    assert not table.flags.writeable and not real.flags.writeable


def test_second_moment_identity(basis):
    # integral over the unit sphere of x^k x^l is |B_1| delta_kl
    N = basis.dim
    for k in range(N):
        for l in range(N):
            vals = basis.nodes[:, k] * basis.nodes[:, l]
            got = float(np.sum(vals * basis.weights))
            want = ball_volume(N) if k == l else 0.0
            assert abs(got - want) < 1e-12


def test_parseval(basis):
    rng = np.random.default_rng(3)
    f = random_function(basis, rng)
    l2 = np.sqrt(np.sum(f.node_values() ** 2 * basis.weights))
    assert_allclose(norm_l2(f), l2, rtol=1e-12)


def test_evaluate_matches_node_values(basis):
    rng = np.random.default_rng(4)
    f = random_function(basis, rng)
    assert_allclose(
        f.coeffs @ basis.eval_matrix(basis.nodes), f.node_values(), atol=1e-12
    )


def test_euler_identity_and_harmonicity(basis):
    # degree-k basis polynomials: x . grad Y = k Y and trace(hess Y) = 0
    pts = basis.nodes[:7]
    Y = basis.eval_matrix(pts)
    G = basis.eval_grad_matrix(pts)
    H = basis.eval_hess_matrix(pts)
    radial = np.einsum("mpi,pi->mp", G, pts)
    assert np.abs(radial - basis.degrees[:, None] * Y).max() < 1e-10
    lap = np.einsum("mpii->mp", H)
    assert np.abs(lap).max() < 1e-12


@pytest.mark.parametrize("N", [2, 3])
def test_derivative_tables_match_differences(N):
    # gradient and Hessian tables against central differences of the
    # value and gradient tables, inside the ball and off the unit sphere
    basis = get_basis(N, 12)
    pts = np.random.default_rng(11).uniform(-0.6, 0.6, (9, N))
    h = 1e-5
    steps = h * np.eye(N)
    fd_grad = np.stack([basis.eval_matrix(pts + e) - basis.eval_matrix(pts - e)
                        for e in steps], -1) / (2 * h)
    fd_hess = np.stack([basis.eval_grad_matrix(pts + e)
                        - basis.eval_grad_matrix(pts - e) for e in steps],
                       -1) / (2 * h)
    assert np.abs(basis.eval_grad_matrix(pts) - fd_grad).max() < 1e-8
    assert np.abs(basis.eval_hess_matrix(pts) - fd_hess).max() < 1e-7


@pytest.mark.parametrize("N,max_degree", [(2, 16), (3, 10)])
def test_node_tables_match_point_tables(N, max_degree):
    # the cached node tables are the point tables at the nodes, bit for
    # bit: the gradient components ahead of the nodes, and the Hessians'
    # upper triangles only
    basis = get_basis(N, max_degree)
    i, j = np.triu_indices(N)
    grads = basis.eval_grad_matrix(basis.nodes)
    hess = basis.eval_hess_matrix(basis.nodes)
    assert np.array_equal(basis.node_grads(), grads.transpose(0, 2, 1))
    packed = basis.node_hessians()
    assert packed.shape == (basis.n_modes, N * (N + 1) // 2, len(basis.nodes))
    assert np.array_equal(packed, hess[:, :, i, j].transpose(0, 2, 1))


@pytest.mark.parametrize("N,max_degree", [(2, 16), (3, 10)])
def test_solid_jet_matches_tables(N, max_degree):
    # on the product set (dirs, radii), including the origin, against the
    # point tables; the coefficients carry degree-0 and degree-1 content
    basis = get_basis(N, max_degree)
    rng = np.random.default_rng(12)
    c = rng.standard_normal(basis.n_modes) / (1.0 + basis.degrees) ** 2
    dirs = basis.nodes[::5]
    radii = np.array([0.0, 0.3, 0.77, 1.0])
    pts = product_points(dirs, radii)
    want = (
        c @ basis.eval_matrix(pts),
        np.einsum("m,mpi->pi", c, basis.eval_grad_matrix(pts)),
        np.einsum("m,mpij->pij", c, basis.eval_hess_matrix(pts)),
    )
    for got, w in zip(basis.solid_jet(c, dirs, radii), want):
        assert got.shape == w.shape
        assert np.abs(got - w).max() < 1e-13
    # radii=None is the points themselves, which need not be unit vectors
    val, grad, hess = basis.solid_jet(c, pts)
    assert np.abs(val - want[0]).max() < 1e-13
    assert np.abs(hess - want[2]).max() < 1e-13


def test_projections_partition(basis):
    rng = np.random.default_rng(5)
    f = random_function(basis, rng)
    total = pi0(f) + f.pi1() + f.pibar()
    assert np.array_equal(total.coeffs, f.coeffs)
    # idempotent and mutually annihilating
    assert np.array_equal(f.pi1().pi1().coeffs, f.pi1().coeffs)
    assert norm_l2(pi0(f).pibar()) == 0.0
    assert norm_l2(pi0(f.pi1())) == 0.0


def test_degree1_vector_round_trip(basis):
    rng = np.random.default_rng(6)
    a = rng.standard_normal(basis.dim)
    f = SphereFunction.from_degree1_vector(basis, a)
    assert_allclose(f.degree1_vector(), a, atol=1e-14)
    # the function is exactly <a, x> on the sphere
    assert_allclose(f.node_values(), basis.nodes @ a, atol=1e-12)


def test_sobolev_norm_formula(basis):
    f = SphereFunction.from_mode(basis, 2, 0, 3.0)
    assert_allclose(f.sobolev_norm(), 3.0 * (1 + 4), rtol=1e-14)


def test_dtn_examples():
    basis = get_basis(2, 16)
    v0 = SphereFunction.constant(basis, 4.0)
    assert norm_l2(dtn(v0)) == 0.0
    x1 = SphereFunction.from_degree1_vector(basis, np.array([1.0, 0.0]))
    assert_allclose(dtn(x1).coeffs, x1.coeffs, atol=1e-15)
    # one degree-3 Fourier mode maps to three times itself
    w = SphereFunction.from_mode(basis, 3, 0, 1.0)
    assert_allclose(dtn(w).coeffs, 3.0 * w.coeffs, atol=1e-15)


def test_dtn_self_adjoint(basis):
    rng = np.random.default_rng(8)
    u = random_function(basis, rng)
    w = random_function(basis, rng)
    uu = u.node_values()
    ww = w.node_values()
    lhs = np.sum(dtn(u).node_values() * ww * basis.weights)
    rhs = np.sum(uu * dtn(w).node_values() * basis.weights)
    assert abs(lhs - rhs) < 1e-12


def test_L_operator_spectrum(basis):
    one = SphereFunction.constant(basis, 1.0)
    assert_allclose(L_operator(one).coeffs, -one.coeffs, atol=1e-15)
    a = np.zeros(basis.dim)
    a[-1] = 1.0
    x_last = SphereFunction.from_degree1_vector(basis, a)
    assert norm_l2(L_operator(x_last)) == 0.0
    w2 = SphereFunction.from_mode(basis, 2, 0, 1.0)
    assert_allclose(L_operator(w2).coeffs, w2.coeffs, atol=1e-15)


def test_calL_examples(basis):
    N = basis.dim
    one = SphereFunction.constant(basis, 1.0)
    assert_allclose(calL_solve(one).coeffs, -N * one.coeffs, atol=1e-14)
    a = np.zeros(N)
    a[0] = 1.0
    x1 = SphereFunction.from_degree1_vector(basis, a)
    assert_allclose(calL_solve(x1).coeffs, x1.coeffs, atol=1e-14)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
def test_calL_round_trip(seed, n):
    basis = get_basis(n, 16 if n == 2 else 10)
    rng = np.random.default_rng(seed)
    f = random_function(basis, rng, decay=1.0)
    # the symbol of calL: 1 on degree 1, (k - 1)/N on every other degree k
    k = basis.degrees.astype(float)
    symbol = np.where(k == 1.0, 1.0, (k - 1.0) / n)
    back = calL_solve(f).coeffs * symbol
    assert np.abs(back - f.coeffs).max() < 1e-13 * max(1.0, f.norm_inf())


def test_perturbation_state_rejects_low_modes(basis):
    bad = SphereFunction.constant(basis, 0.3)
    with pytest.raises(ValueError):
        PerturbationState(0.0, bad, np.zeros(basis.dim))
    bad1 = SphereFunction.from_degree1_vector(basis, np.ones(basis.dim))
    with pytest.raises(ValueError):
        PerturbationState(0.0, bad1, np.zeros(basis.dim))


def test_perturbation_state_decomposition(basis):
    rng = np.random.default_rng(9)
    v = random_function(basis, rng)
    state = PerturbationState.from_sphere_function(v)
    assert_allclose(state.v0, v.mean(), rtol=1e-12)
    assert_allclose(state.a, v.degree1_vector(), atol=1e-14)
    assert_allclose(state.compose().coeffs, v.coeffs, atol=1e-13)
    assert norm_l2(pi0(state.vbar)) == 0.0
    assert norm_l2(state.vbar.pi1()) == 0.0


def test_domain_profile_drops_translations(basis):
    rng = np.random.default_rng(10)
    v = random_function(basis, rng) * 0.01
    state = PerturbationState.from_sphere_function(v)
    prof = state.domain_profile()
    want = v.node_values() - basis.nodes @ state.a
    assert_allclose(prof.node_values(), want, atol=1e-14)
