"""Leaf recentering, radial-graph inversion, monotonicity certificates."""

import numpy as np
import pytest

from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    FlatSpace,
)
from serrin_torsion.foliation import (
    FoliationChart,
    FoliationError,
    build_foliation_chart,
    center_curve_through,
    certify_foliation,
    recentering_solve,
    reparametrize,
    solved_profile_curve,
)
from serrin_torsion.reduced import find_critical
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import SphereFunction, get_basis

T_GRID = np.geomspace(0.02, 0.12, 8)


@pytest.fixture(scope="module")
def basis():
    return get_basis(2, 16)


@pytest.fixture(scope="module")
def flat_chart(basis):
    flat = FlatSpace(2)
    curve = lambda t: np.zeros(2)
    profile = lambda t: SphereFunction.constant(basis, 0.0)
    return build_foliation_chart(flat, T_GRID, curve, profile)


@pytest.fixture(scope="module")
def round_setup():
    manifold = ConstantCurvature(2, 1.0)
    problem = SerrinProblem(manifold)
    curve = lambda t: manifold.origin()
    profile = solved_profile_curve(problem, curve)
    return manifold, problem, curve, profile


@pytest.fixture(scope="module")
def conf_setup():
    manifold = ConformalSphere2D()
    problem = SerrinProblem(manifold)
    p_ref, _, _ = find_critical(problem, 0.1, seed=0)
    base, curve = center_curve_through(manifold, p_ref, 0.1)
    profile = solved_profile_curve(problem, curve)
    return manifold, problem, base, curve, profile


@pytest.fixture(scope="module")
def conf_chart(conf_setup):
    manifold, _, _, curve, profile = conf_setup
    return build_foliation_chart(manifold, T_GRID, curve, profile)


# -- recentering ---------------------------------------------------------------


def test_flat_recentering_is_scaled_identity(basis):
    flat = FlatSpace(2)
    curve = lambda t: np.zeros(2)
    profile = lambda t: SphereFunction.constant(basis, 0.0)
    (w,) = recentering_solve(flat, [0.1], curve, profile)
    assert np.abs(w - 0.1 * basis.nodes).max() == 0.0


def test_round_common_center_magnitudes(round_setup):
    # common center: the two chart maps cancel, so |w| = t (1 + v(x))
    manifold, _, curve, profile = round_setup
    t = 0.1
    (w,) = recentering_solve(manifold, [t], curve, profile)
    expected = t * (1.0 + profile(t).node_values())
    assert np.abs(np.linalg.norm(w, axis=1) - expected).max() < 1e-13


def test_conformal_recentering_residual_and_slope(conf_setup, basis):
    manifold, _, base, curve, profile = conf_setup
    # the log's round trip to LOG_TOL (1e-12) is its exit test; a successful
    # return certifies it
    ts = (0.04, 0.12)
    for t, w in zip(ts, recentering_solve(manifold, ts, curve, profile)):
        mags = np.linalg.norm(w, axis=1)
        assert np.abs(mags - t).max() < 0.02 * t  # w = t x + O(t^2) behavior
        assert np.abs(mags - t).max() / t**2 < 2.0


def test_unconverged_log_map_fails_the_leaf(basis, monkeypatch):
    """The log map's secant iteration has no fallback: capped below the
    steps it needs (one exp integration each), log raises, and
    recentering_solve reports the leaf."""
    manifold = ConformalSphere2D()
    p = np.array([0.3, -0.2])
    targets = manifold.exp(p, 0.1 * basis.nodes)
    monkeypatch.setattr(ConformalSphere2D, "LOG_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match="log map did not converge"):
        manifold.log(p, targets)
    curve = lambda t: p
    profile = lambda t: SphereFunction.constant(basis, 0.0)
    with pytest.raises(FoliationError, match="log map did not converge"):
        recentering_solve(manifold, [0.1], curve, profile)


def test_failed_geodesic_integration_fails_the_leaf(basis, monkeypatch):
    """A failed DOP853 integration in exp reaches the leaf's FoliationError
    with its own message, not as a chart failure. Zero tolerances leave no
    step the error control accepts."""
    monkeypatch.setattr(ConformalSphere2D, "RTOL", 0.0)
    monkeypatch.setattr(ConformalSphere2D, "ATOL", 0.0)
    p = np.array([0.3, -0.2])
    curve = lambda t: p
    profile = lambda t: SphereFunction.constant(basis, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(FoliationError, match="leaf at t = 0.1: geodesic "
                           "integration failed: step size .* fell below"):
            recentering_solve(ConformalSphere2D(), [0.1], curve, profile)


def test_batched_chart_matches_per_leaf_reference(conf_setup, conf_chart):
    """One log over all leaves gives the chart of one log per leaf: each
    leaf pushed out, pulled back and round-tripped on its own here."""
    manifold, _, base, curve, profile = conf_setup
    omegas = []
    for t in T_GRID:
        t = float(t)
        v = profile(t)
        radii = t * (1.0 + v.node_values())
        targets = manifold.exp(curve(t), radii[:, None] * v.basis.nodes)
        w = manifold.log(base, targets)
        assert np.abs(manifold.exp(base, w) - targets).max() <= 1e-12
        omegas.append(reparametrize(w, v.basis))
    reference = FoliationChart(t_grid=T_GRID, omega=np.asarray(omegas))
    rel = np.abs(conf_chart.omega - reference.omega) / reference.omega
    assert rel.max() < 1e-11
    cert, want = certify_foliation(conf_chart), certify_foliation(reference)
    for key in ("nested", "n_certified", "t1"):
        assert cert[key] == want[key]
    for key in want:
        assert abs(cert[key] - want[key]) < 1e-9


def test_chart_integration_count(conf_setup, conf_chart, monkeypatch):
    """With the leaves solved and the curve cached, a chart integrates each
    leaf out from its center and then runs one log over all leaves, whose
    round trip is its own exit test: 19 exp integrations for this chart,
    with no second round-trip exp (which made 20)."""
    manifold, _, _, curve, profile = conf_setup
    calls = []
    exp = ConformalSphere2D.exp

    def counted(self, p, V):
        calls.append(1)
        return exp(self, p, V)

    monkeypatch.setattr(ConformalSphere2D, "exp", counted)
    chart = build_foliation_chart(manifold, T_GRID, curve, profile)
    assert len(calls) <= 19
    assert np.array_equal(chart.omega, conf_chart.omega)


# -- reparametrization -----------------------------------------------------------


def test_reparametrize_identity_direction(basis):
    t = 0.07
    w = t * basis.nodes
    omega = reparametrize(w, basis)
    assert np.abs(omega - t).max() < 1e-12


def test_reparametrize_radial_perturbation(basis):
    # w parallel to x leaves the direction map at the identity, so omega
    # equals the radial magnitude itself
    t, delta = 0.1, 0.05
    theta = np.arctan2(basis.nodes[:, 1], basis.nodes[:, 0])
    mags = t * (1.0 + delta * np.cos(theta))
    w = mags[:, None] * basis.nodes
    omega = reparametrize(w, basis)
    assert np.abs(omega - mags).max() < 1e-10


def test_reparametrize_rejects_vanishing_leaf(basis):
    w = np.zeros_like(basis.nodes)
    with pytest.raises(FoliationError):
        reparametrize(w, basis)


def test_reparametrize_rejects_folded_direction_map(basis):
    # direction map theta -> theta + 2 sin(theta) is not injective, the
    # inversion cannot converge
    theta = np.arctan2(basis.nodes[:, 1], basis.nodes[:, 0])
    bent = theta + 2.0 * np.sin(theta)
    w = 0.1 * np.stack([np.cos(bent), np.sin(bent)], axis=1)
    with pytest.raises(FoliationError):
        reparametrize(w, basis)


# -- certification ---------------------------------------------------------------


def test_flat_certificate_exact(flat_chart):
    cert = certify_foliation(flat_chart)
    assert cert["nested"]
    assert cert["t1"] == T_GRID[-1]
    assert cert["n_certified"] == len(T_GRID)
    assert abs(cert["min_dt_omega"] - 1.0) < 1e-10
    assert cert["slope_zero_error"] < 1e-10


def test_round_certificate(round_setup):
    manifold, _, curve, profile = round_setup
    chart = build_foliation_chart(manifold, T_GRID, curve, profile)
    cert = certify_foliation(chart)
    assert cert["nested"]
    assert cert["slope_zero_error"] < 1e-3
    assert cert["min_dt_omega"] > 0.99
    # common-center graphs are t (1 + v0(t)) up to tiny angular content
    for i, t in enumerate(T_GRID):
        expected = t * (1.0 + profile(float(t)).node_values())
        assert np.abs(chart.omega[i] - expected).max() < 1e-12


def test_conformal_certificate_end_to_end(conf_chart):
    cert = certify_foliation(conf_chart)
    assert cert["nested"]
    assert cert["n_certified"] == len(T_GRID)
    assert 0.999 <= cert["slope_zero_min"] <= cert["slope_zero_max"] <= 1.001
    assert cert["min_dt_omega"] > 0.99
    # strict nesting restated directly on the sampled graphs
    assert np.all(np.diff(conf_chart.omega, axis=0) > 0)


def test_conformal_limit_slope_invariant(conf_chart):
    rem = (conf_chart.omega - T_GRID[:, None]) / T_GRID[:, None] ** 2
    assert np.abs(rem).max() < 0.1


def test_certificate_needs_enough_leaves(flat_chart):
    short = FoliationChart(
        t_grid=flat_chart.t_grid[:5],
        omega=flat_chart.omega[:5],
    )
    with pytest.raises(ValueError):
        certify_foliation(short)


def test_certificate_grid_mismatch(flat_chart):
    with pytest.raises(ValueError):
        certify_foliation(flat_chart, t_grid=flat_chart.t_grid * 2.0)


def test_certificate_rejects_overlapping_leaves(flat_chart):
    broken = FoliationChart(
        t_grid=flat_chart.t_grid,
        omega=flat_chart.omega[::-1].copy(),
    )
    with pytest.raises(FoliationError):
        certify_foliation(broken)


def test_certificate_prefix_stops_at_first_failure(flat_chart):
    omega = flat_chart.omega.copy()
    omega[-1] = omega[-3]  # last leaf collapses below its predecessor
    chart = FoliationChart(
        t_grid=flat_chart.t_grid,
        omega=omega,
    )
    cert = certify_foliation(chart)
    assert not cert["nested"]
    assert cert["n_certified"] == len(T_GRID) - 1
    assert cert["t1"] == flat_chart.t_grid[-2]


def test_build_validates_grid(basis):
    flat = FlatSpace(2)
    curve = lambda t: np.zeros(2)
    profile = lambda t: SphereFunction.constant(basis, 0.0)
    with pytest.raises(ValueError):
        build_foliation_chart(flat, [0.1], curve, profile)
    with pytest.raises(ValueError):
        build_foliation_chart(flat, [-0.1, 0.1], curve, profile)
    with pytest.raises(ValueError):
        build_foliation_chart(flat, [0.2, 0.1], curve, profile)


# -- solver-driven curve -----------------------------------------------------


def test_critical_center_curve_quadratic_drift(conf_setup):
    manifold, _, base, curve, _ = conf_setup
    assert np.abs(np.asarray(curve(0.0)) - base).max() == 0.0
    pmax = manifold.scalar_max_point()
    assert np.abs(base - pmax).max() < 1e-10
    d1 = manifold.distance(base, curve(0.05))
    d2 = manifold.distance(base, curve(0.1))
    assert abs(d2 / d1 - 4.0) < 1e-6  # exact quadratic interpolant
    assert d2 / 0.1**2 < 1.0  # and the drift itself is tiny


def test_leaf_table_shape(flat_chart):
    rows = flat_chart.leaf_table()
    assert len(rows) == flat_chart.omega.size
    t0, j0, om0 = rows[0]
    assert t0 == T_GRID[0]
    assert j0 == 0
    assert om0 == flat_chart.omega[0, 0]
