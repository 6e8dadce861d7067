"""End-to-end solver tests: kernel component, scaling laws, diagnostics."""

import numpy as np
import pytest

from serrin_torsion.ball_solver import (
    BallField,
    EnvelopeError,
    poisson_solve,
    solve_psi_eps,
)
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    FlatSpace,
)
from serrin_torsion.serrin import (
    SerrinProblem,
    kernel_response_constant,
    sweep,
)
from serrin_torsion.sphere_spectral import (
    PerturbationState,
    SphereFunction,
    ball_volume,
)


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def translation_moment_constant(N):
    """kappa_N with gradient_diagnostic = kappa_N eps^3 grad S + O(eps^4)."""
    return 5.0 * ball_volume(N) / (6.0 * (N + 2.0) * (N + 4.0))


@pytest.fixture(scope="module")
def flat_problem():
    return SerrinProblem(FlatSpace(2))


@pytest.fixture(scope="module")
def round_problem():
    return SerrinProblem(ConstantCurvature(2, 1.0))


@pytest.fixture(scope="module")
def conf():
    return ConformalSphere2D()


@pytest.fixture(scope="module")
def conf_problem(conf):
    return SerrinProblem(conf)


P0 = np.array([0.25, 0.1])


@pytest.fixture(scope="module")
def conf_sol(conf_problem):
    return conf_problem.solve(P0, 0.06)


@pytest.fixture(scope="module")
def conf_sol_small(conf_problem):
    return conf_problem.solve(P0, 0.03)


# -- exact cases -----------------------------------------------------------


def test_flat_solve_is_euclidean(flat_problem):
    sol = flat_problem.solve(np.zeros(2), 0.17)
    assert len(sol.iterations) == 1
    assert sol.v_norm() < 1e-12
    assert np.linalg.norm(sol.state.a) < 1e-13
    assert sol.residual_overdetermined.norm_inf() < 5e-12
    grid = flat_problem.grid
    phi0 = poisson_solve(
        BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    )
    assert np.abs(sol.potential.values() - phi0.values()).max() < 1e-12


def test_flat_zero_state_residual(flat_problem):
    state = PerturbationState(0.0, SphereFunction.zero(flat_problem.basis))
    G, phi, _ = flat_problem.G_map(np.zeros(2), 0.0, state)
    assert G.norm_inf() < 5e-12


def test_dilation_response(flat_problem):
    """A pure mean perturbation rescales the ball: G = -v0/N exactly."""
    state = PerturbationState(0.04, SphereFunction.zero(flat_problem.basis))
    G, _, _ = flat_problem.G_map(np.zeros(2), 0.0, state)
    vals = G.node_values()
    assert np.abs(vals + 0.02).max() < 1e-11


@pytest.mark.parametrize("degree,factor", [(2, 0.5), (3, 1.0)])
def test_linearization_sphere_modes(flat_problem, degree, factor):
    """Central differences of G along a harmonic mode reproduce the symbol
    (k-1)/N of the linearized operator.

    The domain map is polynomial, so the solve is spectrally accurate and
    what remains is the O(t^2) error of the central difference: 7e-7 on
    degree 2 and 1.4e-6 on degree 3 at t = 1e-3.
    """
    basis = flat_problem.basis
    w = SphereFunction.from_mode(basis, degree, 1, 1.0)
    t = 1e-3
    hi = PerturbationState.from_sphere_function(w * t)
    lo = PerturbationState.from_sphere_function(w * (-t))
    Gp, _, _ = flat_problem.G_map(np.zeros(2), 0.0, hi)
    Gm, _, _ = flat_problem.G_map(np.zeros(2), 0.0, lo)
    dG = (Gp - Gm) * (1.0 / (2 * t))
    scale = np.abs(factor * w.node_values()).max()
    err = np.abs(dG.node_values() - factor * w.node_values()).max()
    assert err / scale < 1e-5


# -- round sphere -----------------------------------------------------------


def test_round_sphere_solution(round_problem):
    sol = round_problem.solve(np.zeros(2), 0.1)
    # constant scalar curvature: no kernel component, no angular content
    assert np.linalg.norm(sol.state.a) < 1e-11
    assert sol.state.vbar.sobolev_norm() < 1e-10
    # mean perturbation: -S eps^2/(3 N (N+2)) = -eps^2/12 for S = 2
    assert abs(sol.state.v0 + 0.1**2 / 12.0) < 1e-6
    assert sol.residual_overdetermined.norm_inf() < 2e-11
    assert len(sol.iterations) <= 5


def test_round_sphere_sweep(round_problem):
    eps_list = [0.05, 0.08, 0.1, 0.15, 0.2]
    sols, max_ok = sweep(round_problem, np.zeros(2), eps_list)
    assert max_ok == 0.2 and len(sols) == len(eps_list)
    norms = np.array([s.v_norm() for s in sols])
    slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert slope >= 1.9
    # the rescaled norm is bounded and settles as eps shrinks
    scaled = norms / np.array(eps_list) ** 2
    assert scaled.max() < 1.0
    assert abs(scaled[0] - scaled[1]) < 0.05 * scaled[0]
    # quantitative mean-mode law: the eps^4 remainder has a bounded coefficient
    for s, e in zip(sols, eps_list):
        ratio = (s.state.v0 + 2.0 * e**2 / 12.0 / 2.0) / e**4
        assert abs(ratio) < 0.05


def test_restart_consistency(conf_problem):
    """Perturbed initial guesses with ||delta|| <= eps^2 land on the same
    solution."""
    eps = 0.1
    base = conf_problem.solve(P0, eps)
    rng = np.random.default_rng(0)
    for _ in range(2):
        c = rng.standard_normal(conf_problem.basis.n_modes)
        delta = SphereFunction(conf_problem.basis, c)
        delta = delta * (eps**2 / delta.sobolev_norm())
        redo = conf_problem.solve(P0, eps, v_init=conf_problem.seed(P0, eps) + delta)
        gap = np.abs(
            redo.v_function().node_values() - base.v_function().node_values()
        ).max()
        assert gap < 1e-9


# -- kernel component on a curved, non-symmetric model -----------------------


def test_kernel_exactness(conf_sol):
    resid = conf_sol.residual_overdetermined
    assert np.abs(resid.degree1_vector()).max() < 1e-13
    assert resid.norm_inf() < 2e-11


def test_kernel_component_matches_curvature_gradient(conf, conf_sol, conf_sol_small):
    gS = conf.scalar_gradient(P0)
    for sol, tol in ((conf_sol_small, 1e-3), (conf_sol, 5e-3)):
        a = sol.state.a
        assert cosine(a, gS) > 0.999
        predicted = kernel_response_constant(2) * sol.eps**3 * np.linalg.norm(gS)
        assert abs(np.linalg.norm(a) / predicted - 1.0) < tol
    # cubic decay between the two eps values
    ratio = np.linalg.norm(conf_sol.state.a) / np.linalg.norm(conf_sol_small.state.a)
    assert 7.8 < ratio < 8.2


def test_kernel_against_flux_moment(conf_problem, conf_sol):
    """Brute-force oracle: the degree-1 part of the curvature-model flux
    trace points opposite to the kernel component (the solver cancels it)."""
    packet = conf_problem.manifold.packet(P0)
    field = solve_psi_eps(packet, conf_sol.eps, conf_problem.grid)
    nd1 = field.normal_derivative().degree1_vector()
    assert cosine(nd1, conf_sol.state.a) < -0.999


def test_conformal_sweep_scaling(conf_problem):
    eps_list = [0.03, 0.045, 0.06, 0.09]
    sols, max_ok = sweep(conf_problem, P0, eps_list)
    assert max_ok == eps_list[-1]
    norms = [s.v_norm() for s in sols]
    anorms = [np.linalg.norm(s.state.a) for s in sols]
    slope_v = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    slope_a = np.polyfit(np.log(eps_list), np.log(anorms), 1)[0]
    assert slope_v >= 1.9
    assert abs(slope_a - 3.0) < 0.2


# -- curvature-gradient diagnostic -------------------------------------------


def test_diagnostic_vanishes_constant_curvature(round_problem):
    sol = round_problem.solve(np.zeros(2), 0.1)
    m = round_problem.gradient_diagnostic(sol)
    assert np.linalg.norm(m) < 1e-13


def test_diagnostic_tracks_gradient(conf, conf_problem, conf_sol):
    m = conf_problem.gradient_diagnostic(conf_sol)
    gS = conf.scalar_gradient(P0)
    assert cosine(m, gS) > 0.999
    # the model source is an exact polynomial, so the moment identity has no
    # higher-order remainder at all
    predicted = translation_moment_constant(2) * conf_sol.eps**3
    assert abs(np.linalg.norm(m) / (predicted * np.linalg.norm(gS)) - 1.0) < 1e-10


def test_diagnostic_at_curvature_maximum(conf, conf_problem, conf_sol):
    pmax = conf.scalar_max_point()
    solm = conf_problem.solve(pmax, 0.06)
    dm = conf_problem.gradient_diagnostic(solm)
    d0 = conf_problem.gradient_diagnostic(conf_sol)
    assert np.linalg.norm(dm) < 1e-10
    assert np.linalg.norm(dm) < 1e-4 * np.linalg.norm(d0)
    # the kernel component collapses along with the gradient
    assert np.linalg.norm(solm.state.a) < 1e-11


def test_diagnostic_difference_matches_hessian(conf, conf_problem, conf_sol):
    p1 = np.array([0.2, 0.12])
    sol1 = conf_problem.solve(p1, conf_sol.eps)
    diff = conf_problem.gradient_diagnostic(conf_sol) - conf_problem.gradient_diagnostic(sol1)
    h = 1e-5
    hess = np.zeros((2, 2))
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        hess[:, c] = (conf.scalar_gradient(P0 + e) - conf.scalar_gradient(P0 - e)) / (
            2 * h
        )
    assert cosine(diff, hess @ (P0 - p1)) > 0.99


# -- envelope -----------------------------------------------------------------


def test_envelope_error_strong_curvature():
    prob = SerrinProblem(ConstantCurvature(2, 40.0))
    with pytest.raises(EnvelopeError):
        prob.solve(np.zeros(2), 0.3)
