"""Reduced energy: closed-form constants, expansions, shape calculus, search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from serrin_torsion import reduced
from serrin_torsion.ball_solver import (
    LaplaceContext,
    dirichlet_solve_full,
    get_grid,
    neumann_trace,
)
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    FlatSpace,
    MetricJet,
)
from serrin_torsion.fitting import fit_even_series, loglog_slope
from serrin_torsion.reduced import (
    SearchError,
    constants,
    find_critical,
    reduced_functional,
    shape_derivative_check,
    tangential_derivative_check,
)
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import (
    PerturbationState,
    SphereFunction,
    ball_volume,
)


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


def test_results_converge_in_max_degree(conf):
    """v0, |a| and J at eps 0.2 do not move as the angular resolution
    grows: the conformal sphere off its maximum (N=2, L = 16..32) and the
    round 3-sphere (L = 8..12)."""
    rnd = ConstantCurvature(3, 1.0)
    cases = ((conf, np.array([0.3, -0.2]), (16, 20, 24, 28, 32)),
             (rnd, rnd.origin(), (8, 10, 12)))
    for manifold, p, degrees in cases:
        rows = []
        for L in degrees:
            rep = reduced_functional(SerrinProblem(manifold, max_degree=L),
                                     p, 0.2)
            state = rep.solution.state
            rows.append([state.v0, np.linalg.norm(state.a), rep.J_value])
        rows = np.array(rows)
        assert np.abs(rows - rows[0]).max() < 1e-12


# -- constants ---------------------------------------------------------------


def test_constants_dim2_closed_forms():
    alpha, beta, J1, c = constants(2)
    assert abs(J1 - 8.0 / np.pi) < 1e-14
    assert abs(alpha - (32.0 + np.pi**2) / (4.0 * np.pi)) < 1e-14
    assert abs(beta - (256.0 - 6.0 * np.pi**2) / (192.0 * np.pi)) < 1e-14
    assert abs(c - 1.0 / (12.0 * np.pi)) < 1e-14


def test_constants_definitions_each_dim():
    for N in range(2, 7):
        alpha, beta, J1, c = constants(N)
        b1 = ball_volume(N)
        assert abs(J1 - N * (N + 2) / b1) < 1e-13
        assert abs(alpha - (J1 + b1 / N**2)) < 1e-13
        assert beta > 1e-3
        assert c > 0.0
    with pytest.raises(ValueError):
        constants(1)


def test_constants_reject_unnormalized_alternatives():
    # the energy response coefficient carries a 1 / |B_1| factor and the
    # profile coefficient a 1 / (N (N + 4)) rate; the variants without them
    # are numerically far away and excluded by the sweep fits below
    _, beta, _, c = constants(2)
    beta_unnormalized = (256.0 - 6.0 * np.pi**2) / 192.0
    assert abs(beta - beta_unnormalized) > 0.5
    c_alt = (2 + 6.0) / (6.0 * 2 * (2 + 4.0)) * np.pi ** (-1.0)
    assert abs(c - c_alt) > 1e-3


# -- quadratures ---------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3])
def test_second_moment_of_unit_ball(N):
    # integral of |x|^2 over B_1 equals N |B_1| / (N + 2)
    grid = get_grid(N, 8)
    r2 = np.broadcast_to((grid.r**2)[:, None], (grid.n_r, grid.n_ang))
    got = grid.volume_integral(np.array(r2))
    assert_allclose(got, N * ball_volume(N) / (N + 2), rtol=1e-13)


def test_energy_and_volumes_flat(flat_problem):
    grid = flat_problem.grid
    jet = MetricJet(flat_problem.manifold, np.zeros(2), 0.1)
    phi, info = dirichlet_solve_full(jet, grid)
    alpha, _, J1, _ = constants(2)
    assert abs(1.0 / info["torsion"] - J1) < 1e-12
    _, area = neumann_trace(jet, phi)
    assert abs(info["volume"] - np.pi) < 1e-13
    assert abs(area - 2 * np.pi) < 1e-13
    assert abs(info["torsion"] - np.pi / 8.0) < 1e-13


def test_energy_and_volumes_dilation(flat_problem):
    # v = v0 rescales the ball to radius 1 + v0: volume (1 + v0)^N pi,
    # area (1 + v0)^(N-1) 2 pi, energy J1 (1 + v0)^-(N+2)
    grid = flat_problem.grid
    v0 = 0.04
    state = PerturbationState.from_sphere_function(
        SphereFunction.constant(grid.basis, v0)
    )
    jet = MetricJet(flat_problem.manifold, np.zeros(2), 0.1, state)
    phi, info = dirichlet_solve_full(jet, grid)
    _, area = neumann_trace(jet, phi)
    assert abs(info["volume"] - np.pi * (1 + v0) ** 2) < 1e-13
    assert abs(area - 2 * np.pi * (1 + v0)) < 1e-13
    _, _, J1, _ = constants(2)
    assert abs(1.0 / info["torsion"] - J1 * (1 + v0) ** -4) < 1e-12


ACCOUNTING_CASES = {
    "round2-origin": (ConstantCurvature(2, 1.0), None),
    "round3-origin": (ConstantCurvature(3, 1.0), None),
    "conformal-off-max": (ConformalSphere2D(), np.array([0.3, -0.2])),
}


@pytest.mark.parametrize("case", sorted(ACCOUNTING_CASES))
def test_solution_accounting_is_the_forward_map(case, monkeypatch):
    """The torsion, volume and area a solution carries are exactly those of
    its last forward map: a fresh LaplaceContext of the same domain and
    the boundary-metric formula reproduce them bit for bit, and the
    reduced functional reads them without touching the metric again."""
    manifold, p = ACCOUNTING_CASES[case]
    problem = SerrinProblem(manifold)
    grid = problem.grid
    nodes = grid.basis.nodes
    sol = problem.solve(manifold.origin() if p is None else p, 0.1)
    jet = MetricJet(manifold, sol.point, sol.eps, sol.state)
    ctx = LaplaceContext(jet, grid)
    assert sol.torsion == grid.volume_integral(
        sol.potential.values() * ctx.sqrt_det
    )
    assert sol.volume == grid.volume_integral(ctx.sqrt_det)
    g, _ = jet.metric_and_grad(nodes)
    grr = np.einsum("pij,pi,pj->p", np.linalg.inv(g), nodes, nodes)
    area = float(grid.basis.weights @ np.sqrt(grr * np.linalg.det(g)))
    assert sol.area == area

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        LaplaceContext, "__init__", counted("context", LaplaceContext.__init__)
    )
    monkeypatch.setattr(
        MetricJet, "metric_and_grad", counted("metric", MetricJet.metric_and_grad)
    )
    monkeypatch.setattr(
        MetricJet,
        "laplace_coefficients",
        counted("coefficients", MetricJet.laplace_coefficients),
    )
    rep = reduced_functional(problem, sol.point, sol.eps, solution=sol)
    assert calls == []
    assert rep.torsion == sol.torsion
    assert rep.J_value == 1.0 / sol.torsion
    assert rep.volume == sol.volume
    assert rep.boundary_area == sol.area


# -- the reduced functional ----------------------------------------------------


def test_flat_report(flat_problem):
    alpha, _, J1, _ = constants(2)
    rep = reduced_functional(flat_problem, [0.0, 0.0], 0.1)
    assert rep.flat
    assert rep.F_value == 0.0
    assert abs(rep.phi_eps - alpha) < 1e-9
    assert abs(rep.J_value - J1) < 1e-9
    rec = rep.to_record()
    assert rec["flat"] is True
    assert rec["a_norm"] < 1e-12
    assert set(rec) >= {"eps", "point", "J", "volume", "area", "phi_eps", "F"}


def test_round_sweep_energy_expansion(round_problem):
    # fitted eps-series of the volume-penalized energy against the closed
    # forms: constant alpha, quadratic beta * S with S = 2, and the
    # geometric coefficients of volume and area
    alpha, beta, J1, _ = constants(2)
    S = 2.0
    p0 = round_problem.manifold.origin()
    eps_list = np.geomspace(0.02, 0.2, 8)
    phis, vols, areas = [], [], []
    for eps in eps_list:
        rep = reduced_functional(round_problem, p0, float(eps))
        phis.append(rep.phi_eps)
        vols.append(rep.volume)
        areas.append(rep.boundary_area)
    fit = fit_even_series(eps_list, phis)
    assert abs(fit[0] - alpha) < 1e-6
    assert abs(fit[2] / (beta * S) - 1.0) < 0.01
    # remainder after the known orders stays quartic-bounded
    rem = (np.array(phis) - alpha - beta * S * eps_list**2) / eps_list**4
    assert np.all(np.abs(rem) < 1.0)
    assert np.ptp(rem) < 0.05 * np.abs(rem).max() + 1e-12

    volfit = fit_even_series(eps_list, np.array(vols) / np.pi)
    assert abs(volfit[0] - 1.0) < 1e-6
    assert abs(volfit[2] - (-S / 8.0)) < 0.02 * S / 8.0

    areafit = fit_even_series(eps_list, np.array(areas) / (2 * np.pi))
    assert abs(areafit[0] - 1.0) < 1e-6
    assert abs(areafit[2] - (-S / 8.0)) < 0.02 * S / 8.0
    # the steeper candidate coefficient -(N+4) S / (6 (N+2)) is excluded
    assert abs(areafit[2] - (-S / 2.0)) > 0.7


def test_normalized_field_tracks_scalar_curvature(conf_problem, conf):
    # F = (phi_eps - alpha) / (beta eps^2) approaches S(p) quadratically
    for pt in [(0.25, 0.1), (0.3, 0.15), (0.2, 0.12)]:
        p = np.array(pt)
        S = conf.scalar_curvature(p)
        gaps = []
        for eps in (0.05, 0.12):
            rep = reduced_functional(conf_problem, p, eps)
            assert not rep.flat
            gaps.append(abs(rep.F_value - S))
            assert gaps[-1] < 0.8 * eps**2
        assert gaps[-1] / S < 0.02
        assert gaps[0] < gaps[1]


# -- critical-point search ------------------------------------------------------


def test_find_critical_conformal(conf_problem, conf):
    eps = 0.06
    p, sol, info = find_critical(conf_problem, eps, seed=0)
    pmax = conf.scalar_max_point()
    assert info["a_norm"] < 1e-9
    assert np.linalg.norm(sol.state.a) == info["a_norm"]
    dist = conf.distance(pmax, p)
    assert dist / eps**2 < 0.05
    # Newton on the model Jacobian c_N eps^3 Hess S: no solve is spent on
    # derivatives (measured 2 to 4 solves over seeds 0-9)
    assert info["solves"] <= 5
    # the kernel component really vanishes there: the solved state at p has
    # no degree-1 content beyond roundoff
    assert np.linalg.norm(sol.state.a) < 1e-9


def test_find_critical_takes_no_log(conf_problem, monkeypatch):
    """The chart guard sums the geodesic length of the kick and the steps,
    frame coefficients all, so the search needs no log map."""

    def no_log(self, p, Q):
        raise AssertionError("find_critical called log")

    monkeypatch.setattr(ConformalSphere2D, "log", no_log)
    p, sol, info = find_critical(conf_problem, 0.06, seed=0)
    assert info["a_norm"] < 1e-9
    assert info["solves"] >= 2  # at least one guarded Newton step


def test_find_critical_round_immediate(round_problem):
    # constant curvature: every center is critical, the start already
    # satisfies the tolerance and no Newton step should be attempted
    p, sol, info = find_critical(round_problem, 0.1, seed=0)
    assert info["solves"] == 1
    assert info["a_norm"] < 1e-12
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_find_critical_singular_model_jacobian(round_problem):
    # constant curvature: Hess S = 0, so with tol = 0 the first Newton step
    # meets a singular model Jacobian, which must surface as SearchError
    with pytest.raises(SearchError):
        find_critical(round_problem, 0.1, tol=0.0)


def test_find_critical_chart_guard(conf_problem, monkeypatch):
    monkeypatch.setattr(reduced, "CHART_RADIUS", 1e-9)
    with pytest.raises(SearchError):
        find_critical(
            conf_problem,
            0.06,
            p_init=np.array([-1.4986, 2.3133]),
            seed=1,
        )


# -- shape derivative -----------------------------------------------------------


def test_shape_derivative_uniform_speed():
    out = shape_derivative_check([(0, 1.0, 0.0)])
    _, _, J1, _ = constants(2)
    assert abs(out["J0"] - J1) < 1e-12
    # uniform unit speed on the disk: -J1^2 / N^2 * |boundary| = -32 / pi
    assert abs(out["analytic"] - (-32.0 / np.pi)) < 1e-11
    assert out["rel_error"] < 1e-6


def test_shape_derivative_band_limited_speed():
    out = shape_derivative_check([(0, 0.8, 0.0), (3, 0.3, -0.2)])
    assert out["rel_error"] < 1e-6
    # modes above degree zero are invisible to the disk's constant flux:
    # the analytic value only sees the mean speed
    base = shape_derivative_check([(0, 0.8, 0.0)])
    assert abs(out["analytic"] - base["analytic"]) < 1e-11


def test_shape_derivative_random_speeds():
    rng = np.random.default_rng(7)
    for _ in range(5):
        speed = [(0, float(rng.uniform(0.5, 1.0) * rng.choice([-1, 1])), 0.0)]
        for k in range(1, 6):
            speed.append((k, float(rng.normal(0, 0.3)), float(rng.normal(0, 0.3))))
        out = shape_derivative_check(speed)
        assert out["rel_error"] < 1e-6


def test_tangential_deformation_both_sides_vanish():
    out = tangential_derivative_check()
    assert abs(out["analytic"]) < 1e-12
    assert abs(out["finite_difference"]) < 1e-10


class _UnweightedFluxTwist(reduced._TwistJet):
    def laplace_coefficients(self, pts, radii=None):
        flux, sqrt_det = super().laplace_coefficients(pts, radii)
        return flux / sqrt_det, sqrt_det


class _FlatVolumeTwist(reduced._TwistJet):
    def laplace_coefficients(self, pts, radii=None):
        flux, sqrt_det = super().laplace_coefficients(pts, radii)
        return flux, np.ones_like(sqrt_det)


def test_twist_energy_meets_closed_form():
    # J(s) = J0 (1 + s^2)^-2; the relative gap measured 2.8e-15, 3.4e-15,
    # 3.6e-14 and 1.8e-13 at s = 0.05, 0.1, 0.2 and 0.3
    out = tangential_derivative_check()
    assert out["closed_form_gap"] < 1e-10
    for s in (0.05, 0.2, 0.3):
        _, info = dirichlet_solve_full(reduced._TwistJet(s), get_grid(2, 16))
        J = 1.0 / info["torsion"]
        assert abs(J - out["J0"] / (1.0 + s**2) ** 2) < 1e-10 * J


@pytest.mark.parametrize(
    "broken", [_UnweightedFluxTwist, _FlatVolumeTwist],
    ids=["flux-weight", "volume"],
)
def test_closed_form_gap_detects_a_dropped_term(broken, monkeypatch):
    """A twist jet with the sqrt det g factor dropped from its flux tensor
    (F = g^-1) or from its volume element still passes both normal-speed
    sides, and only the closed-form gap sees it (measured 1.5e-2 and
    1.0e-2)."""
    monkeypatch.setattr(reduced, "_TwistJet", broken)
    out = tangential_derivative_check()
    assert abs(out["analytic"]) < 1e-12
    assert abs(out["finite_difference"]) < 1e-10
    assert out["closed_form_gap"] > 1e-3


# -- stationarity of the volume-penalized energy ---------------------------------


def stationarity_check(problem, sol, xi):
    """Finite-difference energy derivatives along a boundary-profile direction.

    Deforms the converged perturbation by +-h xi with h = 1e-4, re-runs the
    forward map warm-started from the solution, and differentiates the
    torsion integral, the energy, and the volume it records. At a solution
    with vanishing kernel component the constant Neumann trace makes
    dT = dvol/N^2 exactly, so the volume-penalized torsion balance
    -dT + dvol/N^2 vanishes for every speed, while d(J + vol/N^2)
    collapses to (1 - J^2)/N^2 dvol.
    """
    N = problem.manifold.dim
    v = sol.v_function()
    h = 1e-4
    out = {}
    for sgn in (1.0, -1.0):
        state = PerturbationState.from_sphere_function(v + xi * (sgn * h))
        _, _, info = problem.G_map(
            sol.point, sol.eps, state, warm_phi=sol.potential
        )
        T = info["torsion"]
        out[sgn] = (T, 1.0 / T, info["volume"], info["area"])
    dT, dJ, dvol, darea = (
        (out[1.0][i] - out[-1.0][i]) / (2.0 * h) for i in range(4)
    )
    J0 = 0.5 * (out[1.0][1] + out[-1.0][1])
    return {
        "dT": dT,
        "dJ": dJ,
        "dvol": dvol,
        "darea": darea,
        "torsion_balance": -dT + dvol / N**2,
        "combined": dJ + dvol / N**2,
        "combined_expected": (1.0 - J0**2) / N**2 * dvol,
    }


def test_stationarity_round_solution(round_problem):
    sol = round_problem.solve(round_problem.manifold.origin(), 0.1)
    basis = round_problem.grid.basis
    speeds = {
        "mean": SphereFunction.constant(basis, 1.0),
        "deg2": SphereFunction.from_mode(basis, 2, 0, 0.7)
        + SphereFunction.from_mode(basis, 2, 1, -0.4),
        "mix": SphereFunction.constant(basis, 0.6)
        + SphereFunction.from_mode(basis, 2, 0, 0.3)
        + SphereFunction.from_mode(basis, 3, 1, 0.2),
    }
    for name, xi in speeds.items():
        st_out = stationarity_check(round_problem, sol, xi)
        # constant Neumann trace at the solution: dT = dvol / N^2 for every
        # speed, so the volume-penalized torsion balance vanishes
        assert abs(st_out["torsion_balance"]) < 1e-7, name
        # the raw energy is only stationary under volume constraint; the
        # unconstrained derivative collapses to (1 - J^2)/N^2 dvol
        gap = abs(st_out["combined"] - st_out["combined_expected"])
        assert gap < 5e-6, name
    mean_out = stationarity_check(round_problem, sol, speeds["mean"])
    assert abs(mean_out["dvol"]) > 1.0
    deg2_out = stationarity_check(round_problem, sol, speeds["deg2"])
    assert abs(deg2_out["dvol"]) < 1e-9


# -- fitting helpers --------------------------------------------------------


@given(
    c0=st.floats(-5, 5),
    c2=st.floats(-5, 5),
    c4=st.floats(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_fit_even_series_recovers_polynomial(c0, c2, c4):
    eps = np.linspace(0.05, 0.4, 9)
    vals = c0 + c2 * eps**2 + c4 * eps**4
    fit = fit_even_series(eps, vals)
    assert abs(fit[0] - c0) < 1e-8
    assert abs(fit[2] - c2) < 1e-7
    assert abs(fit[4] - c4) < 1e-6


@given(
    k=st.integers(1, 6),
    c=st.floats(0.1, 10),
)
@settings(max_examples=25, deadline=None)
def test_loglog_slope_of_monomial(k, c):
    eps = np.geomspace(0.01, 0.3, 7)
    assert abs(loglog_slope(eps, c * eps**k) - k) < 1e-10


def test_loglog_slope_rejects_zeros():
    with pytest.raises(ValueError):
        loglog_slope([0.1, 0.2], [0.0, 1.0])
