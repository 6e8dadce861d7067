"""Poisson and variable-coefficient Dirichlet solves on the unit ball."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from serrin_torsion import ball_solver
from serrin_torsion.ball_solver import (
    _build_grid,
    BallField,
    EnvelopeError,
    LaplaceContext,
    ResolutionError,
    dirichlet_solve_full,
    get_grid,
    harmonic_extension,
    neumann_trace,
    poisson_solve,
    psi_source_values,
    solve_psi_eps,
)
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    FlatSpace,
    MetricJet,
)
from serrin_torsion.fitting import fit_even_series
from serrin_torsion.reduced import _StarMapJet, _TwistJet
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import (
    PerturbationState,
    SphereFunction,
    ball_volume,
    packed_pairs,
    product_points,
)

from exact_chart import (
    ExactJet,
    geodesic_ball_torsion,
    geodesic_ball_volume,
    geodesic_sphere_area,
)
from packet_manifold import PacketManifold, synthetic_packet
from strong_oracle import (
    band_limited,
    field_jet,
    flat_laplacian,
    mode_laplacian,
    strong_laplacian,
)


@pytest.fixture(scope="module", params=[2, 3])
def grid(request):
    N = request.param
    return get_grid(N, 16 if N == 2 else 10)


def random_field(grid, rng, decay=9.0):
    M = grid.n_radial
    c = rng.standard_normal((grid.basis.n_modes, M))
    c /= (1.0 + np.arange(M)[None, :]) ** decay
    c /= (1.0 + grid.basis.degrees[:, None]) ** 2
    return BallField(grid, c)


def assemble_gradient(field):
    """The gradient of a field on the product grid, (P, N), assembled
    pointwise from the products of BallField.derivatives:
        grad u = 2 G'H x + G grad H."""
    grid = field.grid
    N, P = grid.dim, grid.n_r * grid.n_ang
    dG, grad = field.derivatives()
    x = grid.points.reshape(grid.n_r, grid.n_ang, N)
    return (2.0 * dG[..., None] * x + grad.transpose(0, 2, 1)).reshape(P, N)


def unpack_sym(packed):
    """(P, N, N) symmetric matrices from their upper triangles packed
    component-major, (N(N+1)/2, P) in np.triu_indices(N) order, the layout
    of a jet's g^-1."""
    n_sym, P = packed.shape
    N = int(round((np.sqrt(8 * n_sym + 1) - 1) / 2))
    i, j = np.triu_indices(N)
    out = np.empty((P, N, N))
    out[:, i, j] = packed.T
    out[:, j, i] = packed.T
    return out


def boundary_trace(field):
    """Oracle: the boundary values of a field, whose Jacobi profiles all
    equal 1 at r = 1."""
    return SphereFunction(field.grid.basis, field.coeffs.sum(axis=1))


def nabla_ricci(packet):
    """Oracle: grad Ric as an (N, N, N) array, derivative slot last."""
    return -np.einsum("ikilm->klm", packet.nabla_riemann)


def test_one_grid_per_resolution():
    # the defaults are resolved before the cached build, so the problem's
    # grid, the default grid and the spelled-out resolution are one object
    # built once
    _build_grid.cache_clear()
    grid = get_grid(2, 16)
    assert SerrinProblem(ConformalSphere2D()).grid is grid
    assert get_grid(2) is grid
    assert get_grid(2, 16, 28) is grid
    assert _build_grid.cache_info().misses == 1


@pytest.mark.parametrize("args", [(3, 33), (2, 16, 129)],
                         ids=["max_degree", "n_radial"])
def test_grid_sizes_past_their_bounds_raise(args):
    """max_degree past MAX_DEGREE and n_radial past MAX_RADIAL raise before
    any table is built."""
    with pytest.raises(ValueError, match="must be at most"):
        get_grid(*args)


def test_torsion_function_of_the_ball(grid):
    N = grid.dim
    phi = poisson_solve(
        BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    )
    exact = ((1.0 - grid.r**2) / (2.0 * N))[:, None] * np.ones(grid.n_ang)
    assert np.abs(phi.values() - exact).max() < 1e-13
    # the classical volume integral of the torsion function
    total = grid.volume_integral(phi.values())
    assert_allclose(total, ball_volume(N) / (N * (N + 2.0)), rtol=1e-12)


def test_harmonic_extension_modes(grid):
    basis = grid.basis
    for k in (0, 1, 3):
        h = SphereFunction.from_mode(basis, k, 0, 1.0)
        u = harmonic_extension(grid, h)
        want = (grid.r**k)[:, None] * h.node_values()[None, :]
        assert np.abs(u.values() - want).max() < 1e-11


@pytest.mark.parametrize("N,max_degree", [(2, 16), (2, 24), (2, 32), (3, 10)])
def test_derivatives_polynomial_closed_form(N, max_degree):
    """Value and gradient of a loaded polynomial of degree <= 8 from
    BallField.values and the gradient products of BallField.derivatives,
    and its Hessian from the strong oracle's field_jet, against their
    closed forms; L=24 and 32 are off the default grid, so they check the
    per-grid power table too."""
    grid = get_grid(N, max_degree)
    rng = np.random.default_rng(30 + N + max_degree)
    # C[e] is the coefficient of x^e, for |e| <= 8
    degree = sum(np.ix_(*(np.arange(9),) * N))
    C = rng.standard_normal((9,) * N) / (1.0 + degree) ** 2 * (degree <= 8)
    powers = grid.points.T[:, :, None] ** np.arange(9)  # (N, P, 9)

    def evaluate(C):
        out = powers[0] @ C.reshape(9, -1)
        for d in range(1, N):
            out = np.einsum("pa,pab->pb", powers[d],
                            out.reshape(len(out), 9, -1))
        return out[:, 0]

    def diff(C, i):
        k = np.arange(9).reshape([-1 if d == i else 1 for d in range(N)])
        return np.roll(C * k, -1, axis=i)

    u = BallField.from_values(grid, evaluate(C).reshape(grid.n_r, grid.n_ang))
    # |x|^(2j) H_k with k + 2j <= 8 spans the polynomial; outside that
    # support from_values leaves roundoff, and the second derivatives of
    # the top Jacobi polynomials amplify 1e-13 radial coefficients to a
    # Hessian error of about 1e-7, so the leak is bounded here and cut
    # before the derivatives are compared
    support = (grid.basis.degrees[:, None]
               + 2 * np.arange(grid.n_radial)[None, :]) <= 8
    leak = np.abs(u.coeffs[~support]).max() / np.abs(u.coeffs).max()
    assert leak < 1e-12
    cut = BallField(grid, u.coeffs * support)
    val = cut.values().reshape(-1)
    grad = assemble_gradient(cut)
    hess = field_jet(cut)[2]
    want_grad = np.stack([evaluate(diff(C, i)) for i in range(N)], -1)
    want_hess = np.stack([
        np.stack([evaluate(diff(diff(C, i), j)) for j in range(N)], -1)
        for i in range(N)
    ], -2)
    # inside the support the projection itself carries radial roundoff,
    # which grows with max_degree: the Hessian is off by 1.1e-11 at L=24
    tol = 1e-11 if max_degree <= 16 else 5e-11
    for got, want in ((val, evaluate(C)), (grad, want_grad),
                      (hess, want_hess)):
        assert np.abs(got - want).max() < tol * np.abs(want).max()


def test_polynomial_source_oracle(grid):
    """Random monomial-in-r sources against the closed-form solution, by
    the Poisson solve of lap u = f and by the flat Galerkin solve
    grid.weak_op of -lap u = f from the projection of f."""
    N = grid.dim
    basis = grid.basis
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(0, basis.max_degree - 1))
        m = k + 2 * int(rng.integers(0, 4))
        mult = basis.degree_slice(k)
        order = int(rng.integers(0, mult.stop - mult.start))
        Y = SphereFunction.from_mode(basis, k, order, 1.0)
        vals = (grid.r**m)[:, None] * Y.node_values()[None, :]
        f = BallField.from_values(grid, vals)
        u = poisson_solve(f)
        den = (m + 2) * (m + N) - k * (k + N - 2)
        want = ((grid.r ** (m + 2) - grid.r**k) / den)[:, None] * Y.node_values()
        assert np.abs(u.values() - want).max() < 1e-11
        weak = BallField(grid, grid.by_degree(f.coeffs, grid.weak_op))
        assert np.abs(weak.values() + want).max() < 1e-11


def test_oracle_formula_symbolically():
    """The closed form behind the oracle, checked by symbolic differentiation."""
    import sympy as sp

    x, y, z = sp.symbols("x y z")
    cases = [
        # (N, harmonic polynomial, k, m)
        (2, x, 1, 3),
        (2, x * y, 2, 4),
        (2, x**3 - 3 * x * y**2, 3, 5),
        (3, x * y, 2, 4),
        (3, z * (2 * z**2 - 3 * x**2 - 3 * y**2), 3, 5),
    ]
    for N, Yk, k, m in cases:
        coords = (x, y) if N == 2 else (x, y, z)
        r2 = sum(c**2 for c in coords)
        u = r2 ** sp.Rational(m - k, 2) * Yk
        lap = sum(sp.diff(u, c, 2) for c in coords)
        den = m * (m + N - 2) - k * (k + N - 2)
        want = den * r2 ** sp.Rational(m - k - 2, 2) * Yk
        assert sp.simplify(lap - want) == 0


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 1000))
def test_poisson_linearity(seed):
    grid = get_grid(2, 16)
    rng = np.random.default_rng(seed)
    f1, f2 = random_field(grid, rng), random_field(grid, rng)
    al, be = float(rng.normal()), float(rng.normal())
    lhs = poisson_solve(BallField(grid, f1.coeffs * al + f2.coeffs * be))
    rhs = poisson_solve(f1).coeffs * al + poisson_solve(f2).coeffs * be
    assert np.abs(lhs.coeffs - rhs).max() < 1e-12


def test_maximum_principle(grid):
    # a nonpositive polynomial source (minus the square of a low-order field)
    rng = np.random.default_rng(5)
    c = np.zeros((grid.basis.n_modes, grid.n_radial))
    low = grid.basis.degrees <= 4
    c[low, :6] = rng.standard_normal((int(low.sum()), 6))
    q = BallField(grid, c)
    u = poisson_solve(BallField.from_values(grid, -(q.values() ** 2)))
    assert u.values().min() >= -1e-13


def test_dirichlet_zero_boundary_trace(grid):
    rng = np.random.default_rng(6)
    u = poisson_solve(random_field(grid, rng))
    assert boundary_trace(u).norm_inf() < 1e-12


def test_values_match_per_degree_sums(grid):
    # one product over all modes against the sum over degrees of
    # r^k (radial profile) (angular table)
    u = random_field(grid, np.random.default_rng(10))
    basis = grid.basis
    want = np.zeros((grid.n_r, grid.n_ang))
    for k in range(basis.max_degree + 1):
        s = basis.degree_slice(k)
        prof = grid.radial_basis[k][: grid.n_r] @ u.coeffs[s].T
        want += (grid.r**k)[:, None] * (prof @ basis.Y[s])
    assert np.abs(u.values() - want).max() < 1e-13 * np.abs(want).max()


def test_poisson_solve_matches_per_mode_solves(grid):
    """Two discretizations of the flat Poisson problem: the Galerkin solve
    against one LU solve per mode of the tau system (the first M - 1 rows
    of the mode Laplacian, then the boundary row), with and without
    boundary data; boundary data enters as the harmonic extension added to
    the zero-boundary solve. Measured: 2.6e-16 at N=2 and 1.4e-15 at N=3
    of the largest coefficient."""
    rng = np.random.default_rng(8)
    basis, M = grid.basis, grid.n_radial
    lus = [lu_factor(np.vstack([op[: M - 1], np.ones((1, M))]))
           for op in mode_laplacian(grid)]
    f = random_field(grid, rng)
    h = SphereFunction(basis, rng.standard_normal(basis.n_modes))
    for bc in (None, h):
        want = np.empty_like(f.coeffs)
        for m in range(basis.n_modes):
            rhs = np.append(f.coeffs[m, : M - 1],
                            0.0 if bc is None else bc.coeffs[m])
            want[m] = lu_solve(lus[basis.degrees[m]], rhs)
        got = poisson_solve(f).coeffs
        if bc is not None:
            got = got + harmonic_extension(grid, bc).coeffs
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


def test_non_finite_source_rejected():
    # a NaN source has a NaN tail fraction, which no tolerance comparison
    # catches; it must still surface as a typed ResolutionError
    grid = get_grid(2, 16)
    vals = -np.ones((grid.n_r, grid.n_ang))
    vals[3, 5] = np.nan
    with pytest.raises(ResolutionError, match="not finite"):
        poisson_solve(BallField.from_values(grid, vals))
    f = random_field(grid, np.random.default_rng(9))
    f.coeffs[0, 0] = np.inf
    with pytest.raises(ResolutionError, match="not finite"):
        poisson_solve(f)
    h = SphereFunction.constant(grid.basis, np.nan)
    with pytest.raises(ValueError, match="boundary data is not finite"):
        harmonic_extension(grid, h)


class _KinkedVolumeJet(MetricJet):
    """A volume element with a kink at r = 0.6, which no radial truncation
    resolves."""

    def laplace_coefficients(self, pts, radii=None):
        flux, sqrt_det = super().laplace_coefficients(pts, radii)
        r = np.linalg.norm(product_points(pts, radii), axis=1)
        return flux, sqrt_det * (1.0 + np.abs(r - 0.6))


def test_unresolved_source_rejected():
    grid = get_grid(2, 16)
    vals = np.abs(grid.r - 0.6)[:, None] * np.ones(grid.n_ang)
    with pytest.raises(ResolutionError):
        poisson_solve(BallField.from_values(grid, vals))
    # sqrt det g is the load of every weak Picard step of a metric solve
    jet = _KinkedVolumeJet(FlatSpace(2), np.zeros(2), 0.0)
    with pytest.raises(ResolutionError, match="volume element has "
                       "unresolved radial tail"):
        dirichlet_solve_full(jet, grid)


@pytest.mark.parametrize("max_degree", [28, 32])
def test_constant_source_resolved_at_max_degree(max_degree):
    # the projected constant keeps its radial tail at roundoff at high
    # max_degree, so the flat torsion problem is accepted and exact
    grid = get_grid(2, max_degree)
    source = -np.ones((grid.n_r, grid.n_ang))
    assert BallField.from_values(grid, source).tail_fraction() < 1e-12
    phi = poisson_solve(BallField.from_values(grid, source))
    exact = ((1.0 - grid.r**2) / 4.0)[:, None] * np.ones(grid.n_ang)
    assert np.abs(phi.values() - exact).max() < 1e-13


def test_dtn_through_ball_solve(grid):
    basis = grid.basis
    for k in range(basis.max_degree - 1):
        h = SphereFunction.from_mode(basis, k, 0, 1.0)
        nd = harmonic_extension(grid, h).normal_derivative()
        assert np.abs(nd.coeffs - k * h.coeffs).max() < 1e-11


def test_flat_laplacian_consistency(grid):
    rng = np.random.default_rng(7)
    f = random_field(grid, rng)
    u = poisson_solve(f)
    back = flat_laplacian(u)
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-10


# -- curvature source problem -------------------------------------------------


def alternative_source_values(packet, eps, grid):
    """Oracle: psi_source_values with its second cubic term differentiating
    the curvature along the contracted frame leg instead of the position
    vector. Against three copies of x that term cancels by the differential
    Bianchi identity, so the gap between the two assemblies is an O(eps^3)
    model ambiguity."""
    N = grid.dim
    x = grid.points
    ric = np.einsum("kl,pk,pl->p", packet.ricci, x, x)
    quad = (eps**2 / (3.0 * N)) * ric
    nr = packet.nabla_riemann
    term1 = np.einsum("ijilm,pj,pl,pm->p", nr, x, x, x, optimize=True)
    term2 = np.einsum("ijkli,pj,pk,pl->p", nr, x, x, x, optimize=True)
    cubic = -0.25 * term1 + (term2 / 6.0)
    vals = quad + (eps**3 / N) * cubic
    return vals.reshape(grid.n_r, grid.n_ang)


def psi_eps_diagnostics(packet, eps, grid):
    """Oracle: solve_psi_eps with its checks. Returns (field, diagnostics):
    the mean Neumann flux together with its closed-form target
    -eps^2 S |B_1| / (3N(N+2)), the residual of the reconstructed
    right-hand side, and the max-norm gap to the alternative assembly."""
    N = grid.dim
    rhs_vals = psi_source_values(packet, eps, grid)
    field = solve_psi_eps(packet, eps, grid)
    nd = field.normal_derivative()
    flux = float(nd.coeffs[0]) * math.sqrt(grid.basis.area)
    target = -(eps**2) * packet.scalar * ball_volume(N) / (3.0 * N * (N + 2.0))
    # residual: lap(field) + rhs should vanish
    resid = flat_laplacian(field).values() + rhs_vals
    alt = alternative_source_values(packet, eps, grid)
    diag = {
        "mean_flux": flux,
        "mean_flux_target": target,
        "rhs_residual": float(np.abs(resid).max()),
        "source_variant_gap": float(np.abs(alt - rhs_vals).max()),
    }
    return field, diag


def test_psi_eps_flat_is_zero():
    grid = get_grid(2, 16)
    flat = FlatSpace(2)
    packet = flat.packet(flat.origin())
    field, diag = psi_eps_diagnostics(packet, 0.1, grid)
    assert np.abs(field.values()).max() < 1e-15
    assert diag["source_variant_gap"] == 0.0


@pytest.mark.parametrize("N,k", [(2, 1.0), (3, 1.0), (3, 0.5)])
def test_psi_eps_flux_constant_curvature(N, k):
    grid = get_grid(N, 16 if N == 2 else 10)
    man = ConstantCurvature(N, k)
    packet = man.packet(man.origin())
    field, diag = psi_eps_diagnostics(packet, 0.12, grid)
    # the source is an exact polynomial, so the divergence-theorem flux
    # identity holds to quadrature precision, not just to O(eps^4)
    assert abs(diag["mean_flux"] - diag["mean_flux_target"]) < 1e-14
    assert diag["rhs_residual"] < 1e-12
    assert diag["source_variant_gap"] == 0.0


def test_psi_eps_flux_conformal():
    grid = get_grid(2, 16)
    cs = ConformalSphere2D()
    packet = cs.packet(np.array([0.2, -0.1]))
    field, diag = psi_eps_diagnostics(packet, 0.15, grid)
    # the cubic source terms are odd, so they do not move the mean flux
    assert abs(diag["mean_flux"] - diag["mean_flux_target"]) < 1e-14
    assert diag["rhs_residual"] < 1e-12
    assert diag["source_variant_gap"] > 1e-8


def test_source_variants_differ_by_gradient_term():
    grid = get_grid(2, 16)
    cs = ConformalSphere2D()
    packet = cs.packet(np.array([0.2, -0.1]))
    eps = 0.15
    prim = psi_source_values(packet, eps, grid)
    alt = alternative_source_values(packet, eps, grid)
    x = grid.points
    D = np.einsum("klm,pk,pl,pm->p", nabla_ricci(packet), x, x, x)
    want = (-(eps**3 / (6.0 * grid.dim)) * D).reshape(grid.n_r, grid.n_ang)
    assert np.abs((alt - prim) - want).max() < 1e-15


# -- full metric solves --------------------------------------------------------


def test_full_solve_euclidean_one_step():
    grid = get_grid(2, 16)
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    phi, info = dirichlet_solve_full(jet, grid)
    assert info["iterations"] == 1
    exact = ((1.0 - grid.r**2) / 4.0)[:, None] * np.ones(grid.n_ang)
    assert np.abs(phi.values() - exact).max() < 1e-13


def test_full_solve_dilation_exact():
    grid = get_grid(2, 16)
    basis = grid.basis
    v0 = 0.04
    state = PerturbationState(v0, SphereFunction.zero(basis))
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0, state=state)
    phi, info = dirichlet_solve_full(jet, grid)
    exact = (1 + v0) ** 2 * ((1.0 - grid.r**2) / 4.0)[:, None]
    assert np.abs(phi.values() - exact).max() < 1e-11
    tr, _ = neumann_trace(jet, phi)
    assert np.abs(tr.node_values() + (1 + v0) / 2.0).max() < 1e-11


def test_full_solve_round_sphere():
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    gaps = []
    for eps in (0.05, 0.1, 0.2):
        jet = MetricJet(man, man.origin(), eps)
        phi, _ = dirichlet_solve_full(jet, grid)
        # the strong residual of the weak solution, from the oracle
        assert np.abs(strong_laplacian(jet, phi) + 1.0).max() < 1e-10
        phi0 = ((1.0 - grid.r**2) / 4.0)[:, None] * np.ones(grid.n_ang)
        gaps.append(np.abs(phi.values() - phi0).max())
    slope = np.polyfit(np.log([0.05, 0.1, 0.2]), np.log(gaps), 1)[0]
    assert 1.8 < slope < 2.2


def test_neumann_trace_euclidean():
    grid = get_grid(3, 10)
    jet = MetricJet(FlatSpace(3), np.zeros(3), 0.0)
    phi, _ = dirichlet_solve_full(jet, grid)
    tr, _ = neumann_trace(jet, phi)
    assert np.abs(tr.node_values() + 1.0 / 3.0).max() < 1e-12


@pytest.mark.parametrize("case", ["conformal-2d", "packet-3d"])
def test_boundary_metric_from_the_flux(case):
    """On the boundary of a solved state at eps 0.4, the boundary metric of
    neumann_trace is the flux of laplace_coefficients: g^rr = theta . g^-1
    theta equals theta . F theta / sqrt det g (off-diagonal packed entries
    counted twice), and sqrt(g^rr det g) equals
    sqrt(theta . F theta sqrt det g); measured at most 8.9e-16 relative
    pointwise, and the weighted areas within 3e-16."""
    if case == "packet-3d":
        manifold = PacketManifold(
            synthetic_packet(3, seed=3, r_scale=0.3, dr_scale=0.3)
        )
        p = manifold.origin()
    else:
        manifold, p = ConformalSphere2D(), np.array([0.3, -0.2])
    state = SerrinProblem(manifold).solve(p, 0.4).state
    jet = MetricJet(manifold, p, 0.4, state)
    basis = get_grid(manifold.dim).basis
    nodes = basis.nodes
    g, _ = jet.metric_and_grad(nodes)
    grr = np.einsum("pij,pi,pj->p", np.linalg.inv(g), nodes, nodes)
    flux, sqrt_det = jet.laplace_coefficients(nodes)
    a, b = packed_pairs(manifold.dim)
    tt = np.where(a == b, 1.0, 2.0)[:, None] * (nodes[:, a] * nodes[:, b]).T
    normal = np.einsum("cp,cp->p", flux, tt)
    assert np.abs(normal / sqrt_det / grr - 1.0).max() <= 5e-15
    area_g = np.sqrt(grr * np.linalg.det(g))
    area_flux = np.sqrt(normal * sqrt_det)
    assert np.abs(area_flux / area_g - 1.0).max() <= 5e-15
    assert basis.weights @ area_flux == pytest.approx(
        basis.weights @ area_g, rel=5e-15, abs=0.0
    )


def test_cross_fidelity_trace_agreement():
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    gaps = []
    eps_list = (0.1, 0.15, 0.2)
    for eps in eps_list:
        traces = []
        for cls in (MetricJet, ExactJet):
            jet = cls(man, man.origin(), eps)
            phi, _ = dirichlet_solve_full(jet, grid)
            traces.append(neumann_trace(jet, phi)[0])
        gaps.append((traces[0] - traces[1]).norm_inf())
    slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
    assert gaps[-1] < 3e-5
    assert slope > 3.5


# -- exact space-form oracle ----------------------------------------------------

# On the unit round sphere the geodesic ball B_eps is radial: with A the area
# of its boundary sphere and V its volume, the torsion function has
# u' = -V / A, so T = int_0^eps V^2 / A and the Neumann trace is -V / A. The
# solver works at unit-ball scale (lengths over eps), where these read
# T / eps^(N+2), V / eps^N, -V / (eps A) and A / eps^(N-1).
SPACE_FORM_EPS = (0.05, 0.1, 0.2, 0.3)


def _space_form_gaps(jet_cls, N, eps):
    """Relative gaps of one geodesic-ball solve on the unit round S^N against
    the radial closed forms of torsion, volume, trace and area."""
    man = ConstantCurvature(N, 1.0)
    jet = jet_cls(man, man.origin(), eps)
    phi, info = dirichlet_solve_full(jet, get_grid(N))
    trace, area = neumann_trace(jet, phi)
    A = geodesic_sphere_area(N, eps)
    V = geodesic_ball_volume(N, eps)
    T = geodesic_ball_torsion(N, eps)
    return {
        "torsion": abs(info["torsion"] * eps ** (N + 2) / T - 1.0),
        "volume": abs(info["volume"] * eps**N / V - 1.0),
        "trace": np.abs(trace.node_values() * (-eps * A / V) - 1.0).max(),
        "area": abs(area * eps ** (N - 1) / A - 1.0),
    }


@pytest.mark.parametrize("N", [2, 3])
def test_exact_chart_reproduces_space_form_ball(N):
    """On the exact chart the solve meets the closed forms at roundoff;
    the worst gaps over eps 0.05-0.3 measured 2.3e-14 (torsion), 7.8e-16
    (volume), 1.7e-13 (trace) and 4.4e-16 (area)."""
    bounds = {"torsion": 1e-12, "volume": 1e-14, "trace": 2e-12, "area": 1e-14}
    for eps in SPACE_FORM_EPS:
        gaps = _space_form_gaps(ExactJet, N, eps)
        for key, bound in bounds.items():
            assert gaps[key] < bound, (eps, key, gaps[key])


@pytest.mark.parametrize("N", [2, 3])
def test_cubic_chart_meets_space_form_ball_at_fourth_order(N):
    """The cubic model drops the metric's eps^4 term, so its torsion misses
    the closed form at O(eps^4): measured 3.7e-7 (N=2) and 3.6e-7 (N=3) at
    eps 0.1, growing 16.2 and 16.1 times to eps 0.2."""
    gaps = [
        _space_form_gaps(MetricJet, N, eps)["torsion"] for eps in (0.1, 0.2)
    ]
    assert gaps[0] < 5e-7
    assert 12.0 < gaps[1] / gaps[0] < 20.0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_space_form_torsion_eps2_coefficient(N):
    """T(B_eps) / T_flat = 1 - (N-2) S eps^2 / (6 N (N+4)) + O(eps^4) on the
    unit round S^N, S = N (N-1), from the radial quadrature alone: the
    coefficient belongs to the geometry, not to the cubic model. At N=2,
    where it vanishes, the eps^4 term is 1/480. The fit over eps 0.05-0.3
    measured within 9.5e-13 (eps^2) and 1.7e-11 (eps^4) of both."""
    eps = np.linspace(0.05, 0.3, 11)
    T_flat = ball_volume(N) * eps ** (N + 2) / (N * (N + 2.0))
    ratio = geodesic_ball_torsion(N, eps) / T_flat
    fit = fit_even_series(eps, ratio - 1.0, orders=(2, 4, 6, 8, 10))
    S = N * (N - 1)
    assert abs(fit[2] + (N - 2) * S / (6.0 * N * (N + 4))) < 1e-11
    if N == 2:
        assert abs(fit[4] - 1.0 / 480.0) < 1e-9


class _RadialWeightJet(MetricJet):
    """The same boundary map, extended inside by (1 + v0 + |x|^2 w(x)) x
    instead of (1 + v0 + w(x)) x, w the solid extension of vbar."""

    def rho_jet(self, pts, radii=None):
        rho, dw, d2w = super().rho_jet(pts, radii)
        x = product_points(pts, radii)
        base = 1.0 + self.state.v0
        w = rho - base
        q = np.einsum("pi,pi->p", x, x)
        xdw = np.einsum("pi,pj->pij", x, dw)
        d2 = (
            2.0 * w[:, None, None] * np.eye(x.shape[1])
            + 2.0 * (xdw + xdw.transpose(0, 2, 1))
            + q[:, None, None] * d2w
        )
        return base + q * w, 2.0 * w[:, None] * x + q[:, None] * dw, d2


@pytest.mark.parametrize(
    "manifold, p, max_degree",
    [
        (ConformalSphere2D(), np.array([0.2, 0.1]), 16),
        (ConstantCurvature(3, 1.0), ConstantCurvature(3, 1.0).origin(), 10),
    ],
    ids=["conformal-2d", "round-3d"],
)
def test_trace_independent_of_interior_extension(manifold, p, max_degree):
    """The Neumann trace lives on the boundary, which both domain maps
    send to the same points; only the discretization sees the interior."""
    N = manifold.dim
    grid = get_grid(N, max_degree)
    basis = grid.basis
    rng = np.random.default_rng(12)
    c = rng.standard_normal(basis.n_modes) / (1.0 + basis.degrees) ** 4
    vbar = SphereFunction(basis, c).pibar()
    vbar = vbar * (1e-2 / vbar.norm_inf())
    state = PerturbationState(-0.002, vbar)
    traces = []
    for cls in (MetricJet, _RadialWeightJet):
        jet = cls(manifold, p, 0.15, state)
        phi, _ = dirichlet_solve_full(jet, grid)
        traces.append(neumann_trace(jet, phi)[0])
    # The deformation moves the trace by about 5e-3; the extensions agreed
    # to 1.7e-8 (N=2) and 4.1e-8 (N=3). The gap is angular truncation: it
    # grows with the top-degree content of vbar and shrinks as max_degree
    # grows.
    assert (traces[0] - traces[1]).norm_inf() < 1e-7


def test_degenerate_trace_rejected():
    grid = get_grid(2, 16)
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    flatprof = ((1.0 - grid.r**2) ** 2)[:, None] * np.ones(grid.n_ang)
    phi = BallField.from_values(grid, flatprof)
    with pytest.raises(EnvelopeError):
        neumann_trace(jet, phi)


def test_positivity_loss_rejected():
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 40.0)
    jet = MetricJet(man, man.origin(), 0.35)
    with pytest.raises(EnvelopeError):
        dirichlet_solve_full(jet, grid)
    # N=3: the Cholesky factorization of the metric fails, and that must
    # surface as EnvelopeError, not LinAlgError
    man = ConstantCurvature(3, 40.0)
    jet = MetricJet(man, man.origin(), 0.35)
    with pytest.raises(EnvelopeError, match="lost positivity"):
        LaplaceContext(jet, get_grid(3, 10))


def test_picard_non_convergence_rejected(monkeypatch):
    """The conformal sphere off its maximum is anisotropic at O(eps^3),
    which the rotation-invariant part of the step leaves to the iteration:
    its cold solve at eps 0.4 takes 3 steps, the second 2.2e-9."""
    monkeypatch.setattr(ball_solver, "PICARD_MAX_ITER", 2)
    jet = MetricJet(ConformalSphere2D(), np.array([0.3, -0.2]), 0.4)
    with pytest.raises(EnvelopeError, match="did not reach 1e-12 in 2 steps"):
        dirichlet_solve_full(jet, get_grid(2, 16))


@pytest.mark.parametrize("N", [2, 3])
def test_space_form_ball_in_one_picard_step(N):
    """On the exact chart of the unit round S^N the flux is rotation
    invariant, so the radial part of the Picard step is the whole metric
    correction: the cold start (the step from zero) lands on the solution
    and the first counted step stops. Over eps 0.2 and 0.4 the torsion met
    its closed form to 4.1e-15 and the trace -V / A to 1.0e-13."""
    man = ConstantCurvature(N, 1.0)
    for eps in (0.2, 0.4):
        jet = ExactJet(man, man.origin(), eps)
        phi, info = dirichlet_solve_full(jet, get_grid(N))
        assert info["iterations"] == 1
        T = geodesic_ball_torsion(N, eps)
        assert abs(info["torsion"] * eps ** (N + 2) / T - 1.0) < 2e-14
        trace, _ = neumann_trace(jet, phi)
        want = -geodesic_ball_volume(N, eps) / geodesic_sphere_area(N, eps)
        assert np.abs(trace.node_values() * eps / want - 1.0).max() < 3e-13


@pytest.mark.parametrize("N", [2, 3])
def test_space_form_correction_is_roundoff(N):
    """On the exact chart of the round S^N, F - I is rotation invariant, so
    the context's one anisotropic flux F - Fbar is roundoff: the quadrature
    of Fbar - I it takes off is exact on the products of harmonics, on the
    radial nodes it shares with the Galerkin stiffness. Its correction is
    held against the load of F - I, the same transposed products met with
    the weighted F - I blocks (measured 1.6e-15 at N=2 and 3.2e-15 at
    N=3)."""
    man = ConstantCurvature(N, 1.0)
    grid = get_grid(N)
    jet = ExactJet(man, man.origin(), 0.4)
    ctx = LaplaceContext(jet, grid)
    flux, _ = jet.laplace_coefficients(grid.basis.nodes, grid.r)
    a, b = packed_pairs(N)
    full = copy.copy(ctx)
    full._flux = grid.basis.weights * (
        flux.reshape(-1, grid.n_r, grid.n_ang) - (a == b)[:, None, None]
    )
    u = random_field(grid, np.random.default_rng(21))
    want = full.correction(u)
    got = ctx.correction(u)
    assert np.abs(got).max() < 1e-13 * np.abs(want).max()


def test_flat_galerkin_is_the_zero_weight_case(grid):
    """grid.weak_op is the Galerkin builder at zero weights, bit for bit.
    It solves the test rows of the exact mode Laplacian (the rows -T stiff
    from mode_laplacian, the boundary row last), on whose test functions
    the flat stiffness is the diagonal
    2 (n_i + n_{i+1}). Measured: the diagonal to 2.6e-14 and the solves to
    3.1e-15 of their largest entries."""
    zeros = np.zeros(grid.n_r)
    weak = grid.galerkin(zeros, zeros)
    assert np.array_equal(weak, grid.weak_op)
    M = grid.n_radial
    tests = np.eye(M)[:-1] - np.eye(M)[1:]
    for k, op in enumerate(mode_laplacian(grid)):
        norm = 2.0 * np.arange(M) + k + grid.dim / 2.0
        rows = -tests @ (op / norm[:, None])
        diag = 2.0 * (norm[:-1] + norm[1:])
        gap = np.abs(rows @ tests.T - np.diag(diag)).max()
        assert gap < 1e-13 * diag.max()
        sysmat = np.vstack([rows, np.ones((1, M))])
        want = np.linalg.inv(sysmat)[:, : M - 1] @ (tests / norm)
        assert np.abs(weak[k] - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("N", [2, 3])
def test_flat_cold_start_is_the_poisson_solve(N):
    """One flat solve: the cold start of a Picard step on the flat metric,
    the Galerkin solve of its load sqrt det g, is the Poisson solve of the
    torsion source lap u = -1, bit for bit."""
    grid = get_grid(N)
    flat = FlatSpace(N)
    ctx = LaplaceContext(MetricJet(flat, flat.origin(), 0.1), grid)
    load = BallField.from_values(grid, ctx.sqrt_det).coeffs
    cold = grid.by_degree(load, ctx.weak_op)
    source = BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    assert np.array_equal(cold, poisson_solve(source).coeffs)


@pytest.mark.parametrize("N", [2, 3])
def test_padded_product_matches_per_degree_products(N):
    """by_degree, one batched product over the degree-padded mode table,
    agrees with one product per degree within 1e-15 of the largest entry,
    and a row that carries one degree gives exact zeros in every other."""
    grid = get_grid(N)
    basis = grid.basis
    rng = np.random.default_rng(22)
    ops = (grid.proj, grid.deriv_proj, grid.weak_op, grid.bc_deriv,
           grid.radial_basis[:, : grid.n_r])
    for op in ops:
        rows = rng.standard_normal((basis.n_modes, op.shape[-1]))
        want = np.concatenate([
            rows[basis.degree_slice(k)] @ op[k].T
            for k in range(basis.max_degree + 1)
        ])
        got = grid.by_degree(rows, op)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        for k in range(basis.max_degree + 1):
            s = basis.degree_slice(k)
            one = np.zeros_like(rows)
            one[s] = rows[s]
            out = grid.by_degree(one, op)
            assert not out[basis.degrees != k].any()
            assert out[s].any()


def _anisotropic_jet(case, eps):
    """The generic N=3 packet at its origin, or the conformal sphere off
    its maximum, at eps."""
    if case == "packet-3d":
        manifold = PacketManifold(
            synthetic_packet(3, seed=3, r_scale=0.3, dr_scale=0.3)
        )
        return MetricJet(manifold, manifold.origin(), eps)
    return MetricJet(ConformalSphere2D(), np.array([0.3, -0.2]), eps)


@pytest.mark.parametrize("case", ["packet-3d", "conformal-2d"])
def test_picard_stop_leaves_no_remainder(case, monkeypatch):
    """An anisotropic metric at eps 0.4: the potential at PICARD_TOL agrees
    with one iterated to 1e-15 (measured 1.8e-16 on the packet, 1.1e-16 on
    the conformal sphere)."""
    jet = _anisotropic_jet(case, 0.4)
    grid = get_grid(jet.manifold.dim)
    phi, _ = dirichlet_solve_full(jet, grid)
    monkeypatch.setattr(ball_solver, "PICARD_TOL", 1e-15)
    tight, _ = dirichlet_solve_full(jet, grid)
    assert np.abs(phi.values() - tight.values()).max() < 1e-12


@pytest.mark.parametrize("case", ["packet-3d", "conformal-2d"])
def test_converged_potential_meets_its_weak_form(case):
    """An anisotropic metric at eps 0.4: the converged phi satisfies
    int grad w . F grad phi = int w sqrt det g for seeded w that vanish on
    the boundary, the integrals on the product grid with F from the flux
    seam, relative to int |grad w| |F| |grad phi| (measured 6.1e-16 on
    the packet and 1.8e-16 on the conformal sphere)."""
    jet = _anisotropic_jet(case, 0.4)
    grid = get_grid(jet.manifold.dim)
    phi, _ = dirichlet_solve_full(jet, grid)
    flux, sqrt_det = jet.laplace_coefficients(grid.basis.nodes, grid.r)
    F = unpack_sym(flux)
    weight = (grid.w_vol[:, None] * grid.basis.weights).reshape(-1)
    dphi = assemble_gradient(phi)
    rng = np.random.default_rng(43)
    for _ in range(3):
        w = poisson_solve(random_field(grid, rng))
        dw = assemble_gradient(w)
        stiff = weight @ np.einsum("pi,pij,pj->p", dw, F, dphi)
        load = weight @ (w.values().reshape(-1) * sqrt_det)
        scale = weight @ np.einsum("pi,pij,pj->p", np.abs(dw), np.abs(F),
                                   np.abs(dphi))
        assert abs(stiff - load) < 1e-14 * scale


def test_folded_domain_map_rejected():
    """A boundary profile steep enough to fold x -> rho x (rho + x . grad
    rho < 0 inside the ball) is off the envelope, although J^T gbar J stays
    positive definite through the fold."""
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    vbar = SphereFunction.from_mode(grid.basis, 6, 0, 0.3)
    jet = MetricJet(man, man.origin(), 0.1, PerturbationState(0.0, vbar))
    rho, drho, _ = jet.rho_jet(grid.basis.nodes, grid.r)
    q = rho + np.einsum("pi,pi->p", grid.points, drho)
    assert (q < 0.0).sum() > 0
    g, _ = jet.metric_and_grad(grid.basis.nodes, grid.r)
    assert np.linalg.eigvalsh(g).min() > 0.0
    with pytest.raises(EnvelopeError, match="lost positivity"):
        LaplaceContext(jet, grid)


def _contraction_jets():
    jets = {}
    for N in (2, 3):
        basis = get_grid(N).basis
        state = PerturbationState(0.01, band_limited(basis, 50 + N, 0.02, 2))
        man = ConstantCurvature(N, 1.0)
        for fid, cls in (("truncated", MetricJet), ("exact", ExactJet)):
            jets["round%d-%s" % (N, fid)] = cls(man, man.origin(), 0.2, state)
    basis = get_grid(2).basis
    state = PerturbationState(-0.01, band_limited(basis, 54, 0.02, 2))
    jets["conformal-off-max"] = MetricJet(
        ConformalSphere2D(), np.array([0.3, -0.2]), 0.2, state
    )
    jets["star-map-degree1"] = _StarMapJet(1.0, band_limited(basis, 55, 0.02, 1))
    jets["twist"] = _TwistJet(0.3)
    return jets


CONTRACTION_JETS = _contraction_jets()


def _load_pairing(field, load):
    """int grad field . V from the load of a flux V: the loads of
    LaplaceContext.correction carry the factor 2 n_j of from_values."""
    grid = field.grid
    two_n = 2.0 * (2.0 * np.arange(grid.n_radial)[None, :]
                   + grid.basis.degrees[:, None] + grid.dim / 2.0)
    return float(np.sum(field.coeffs * load / two_n))


def _sphere_average_part(A, grid):
    """The rotation-invariant part alpha(r) I + beta(r) theta theta^T of the
    pointwise (P, N, N) tensors A: the sphere averages of tr A and of
    theta . A theta at each radius, by the angular rule."""
    N, basis = grid.dim, grid.basis
    theta = basis.nodes
    A = A.reshape(grid.n_r, grid.n_ang, N, N)
    trace = np.einsum("rnii,n->r", A, basis.weights) / basis.area
    normal = np.einsum("rnij,ni,nj,n->r", A, theta, theta,
                       basis.weights) / basis.area
    alpha = (trace - normal) / (N - 1)
    beta = normal - alpha
    tt = theta[:, :, None] * theta[:, None, :]
    Abar = (alpha[:, None, None, None] * np.eye(N)
            + beta[:, None, None, None] * tt)
    return Abar.reshape(-1, N, N)


@pytest.mark.parametrize("case", sorted(CONTRACTION_JETS))
def test_contraction_matches_assembled_hessian(case):
    """The weak correction load of a seeded random field u, tested against
    a w that vanishes on the boundary, is int grad w . (A - Abar) grad u
    with A = F - I and Abar its rotation-invariant part from the sphere
    averages: the gradients assembled pointwise, F from the flux seam; and,
    where the jet has a metric for the strong oracle, with the pairing of
    Abar added back, -int w (sqrt det g lap_g u - lap u) with lap_g u from
    the assembled Hessian and drift. The bounds are relative to the size
    of the summed terms."""
    jet = CONTRACTION_JETS[case]
    grid = get_grid(jet.dim)
    ctx = LaplaceContext(jet, grid)
    flux, sqrt_det = jet.laplace_coefficients(grid.basis.nodes, grid.r)
    A = unpack_sym(flux) - np.eye(grid.dim)
    Abar = _sphere_average_part(A, grid)
    weight = (grid.w_vol[:, None] * grid.basis.weights).reshape(-1)
    rng = np.random.default_rng(41)
    for _ in range(3):
        u = random_field(grid, rng)
        w = poisson_solve(random_field(grid, rng))
        load = ctx.correction(u)
        assert load.shape == u.coeffs.shape
        got = _load_pairing(w, load)
        du, dw = assemble_gradient(u), assemble_gradient(w)
        want = weight @ np.einsum("pi,pij,pj->p", dw, A - Abar, du)
        scale = weight @ np.einsum("pi,pij,pj->p", np.abs(dw),
                                   np.abs(A - Abar), np.abs(du))
        assert abs(got - want) < 1e-13 * scale
        if not isinstance(jet, MetricJet):
            continue
        got += weight @ np.einsum("pi,pij,pj->p", dw, Abar, du)
        lap_g = strong_laplacian(jet, u).reshape(-1)
        lap = flat_laplacian(u).values().reshape(-1)
        wv = w.values().reshape(-1)
        want = -(weight @ (wv * (sqrt_det * lap_g - lap)))
        scale = weight @ (np.abs(wv)
                          * (np.abs(sqrt_det * lap_g) + np.abs(lap)))
        assert abs(got - want) < 1e-13 * scale


def test_one_derivatives_call_per_contraction(monkeypatch):
    """A solve takes one BallField.derivatives call per Picard step, so a
    count of those calls counts steps."""
    calls = []
    derivatives = BallField.derivatives

    def counted(self):
        calls.append(self)
        return derivatives(self)

    monkeypatch.setattr(BallField, "derivatives", counted)
    jet = CONTRACTION_JETS["round3-truncated"]
    _, info = dirichlet_solve_full(jet, get_grid(3))
    assert info["iterations"] > 1
    assert len(calls) == info["iterations"]


def test_divergence_form_consistency():
    """Integration by parts for the metric Laplacian, on the cubic and the
    exact chart: the strong oracle's lap_g against the flux seam's F."""
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    rng = np.random.default_rng(11)
    for cls in (MetricJet, ExactJet):
        jet = cls(man, man.origin(), 0.15)
        flux, dvol = jet.laplace_coefficients(grid.basis.nodes, grid.r)
        F = unpack_sym(flux)
        u = poisson_solve(random_field(grid, rng))
        w = poisson_solve(random_field(grid, rng))
        du = assemble_gradient(u)
        dw = assemble_gradient(w)
        shape = (grid.n_r, grid.n_ang)
        lap_u = strong_laplacian(jet, u)
        lhs = grid.volume_integral(lap_u * w.values() * dvol.reshape(shape))
        energy = np.einsum("pij,pi,pj->p", F, du, dw).reshape(shape)
        rhs = -grid.volume_integral(energy)
        assert abs(lhs - rhs) < 1e-9


def decompose_solution(jet, phi, psi_eps_field, grid):
    """Split a full Dirichlet solve into its model pieces and the remainder.

    Returns a dict with phi0 composed with the boundary-perturbation map,
    (1/N) * harmonic extension of v, psi_eps, and the remainder gamma defined
    operationally as phi - phi0(rho x) - (1/N) psi_v - psi_eps.
    """
    N = grid.dim
    rho, _, _ = jet.rho_jet(grid.basis.nodes, grid.r)
    rho = rho.reshape(grid.n_r, grid.n_ang)
    rr = (grid.r**2)[:, None] * rho**2
    phi0_rho = BallField.from_values(grid, (1.0 - rr) / (2.0 * N))
    v = jet.state.compose() if jet.state is not None else None
    psi_v = (
        harmonic_extension(grid, v).coeffs
        if v is not None
        else np.zeros_like(phi.coeffs)
    )
    gamma = BallField(grid, phi.coeffs - phi0_rho.coeffs
                      - (1.0 / N) * psi_v - psi_eps_field.coeffs)
    return {
        "phi0_rho": phi0_rho,
        "psi_v_over_N": BallField(grid, (1.0 / N) * psi_v),
        "psi_eps": psi_eps_field,
        "gamma": gamma,
        "gamma_max": float(np.abs(gamma.values()).max()),
    }


def test_decomposition_remainder_scales():
    """The operational remainder after removing the three model pieces is
    higher order than the pieces themselves along an eps sweep."""
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    basis = grid.basis
    gammas = []
    eps_list = (0.05, 0.1, 0.2)
    for eps in eps_list:
        v0 = -man.packet(man.origin()).scalar * eps**2 / (3 * 2 * (2 + 2))
        state = PerturbationState(v0, SphereFunction.zero(basis))
        jet = MetricJet(man, man.origin(), eps, state=state)
        phi, _ = dirichlet_solve_full(jet, grid)
        psi_field = solve_psi_eps(man.packet(man.origin()), eps, grid)
        parts = decompose_solution(jet, phi, psi_field, grid)
        gammas.append(parts["gamma_max"])
    slope = np.polyfit(np.log(eps_list), np.log(gammas), 1)[0]
    assert slope > 3.5
