"""Curvature packets, model manifolds, chart measurement, and metric jets."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from serrin_torsion.ball_solver import get_grid, poisson_solve
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    CurvaturePacket,
    FlatSpace,
    MetricJet,
    _radial_profile,
    constant_curvature_chart,
    laplace_beltrami_apply,
    manifold_from_config,
    packet_from_chart,
    pullback_metric,
    truncated_chart,
)
from serrin_torsion.sphere_spectral import PerturbationState, SphereFunction, get_basis


# -- independent construction of valid random curvature tensors ---------------


def riemann_space(N):
    """Nullspace basis of the algebraic curvature-tensor identities."""
    idx = list(itertools.product(range(N), repeat=4))
    pos = {t: n for n, t in enumerate(idx)}
    rows = []

    def row(terms):
        r = np.zeros(len(idx))
        for t, c in terms:
            r[pos[t]] += c
        rows.append(r)

    for i, j, k, l in idx:
        row([((i, j, k, l), 1.0), ((j, i, k, l), 1.0)])
        row([((i, j, k, l), 1.0), ((i, j, l, k), 1.0)])
        row([((i, j, k, l), 1.0), ((k, l, i, j), -1.0)])
        row([((i, j, k, l), 1.0), ((j, k, i, l), 1.0), ((k, i, j, l), 1.0)])
    A = np.array(rows)
    _, s, Vt = np.linalg.svd(A)
    null = Vt[np.sum(s > 1e-10):]
    return null.reshape(-1, N, N, N, N)


def nabla_riemann_space(N):
    """Nullspace basis for the derivative tensor's identities."""
    idx = list(itertools.product(range(N), repeat=5))
    pos = {t: n for n, t in enumerate(idx)}
    rows = []

    def row(terms):
        r = np.zeros(len(idx))
        for t, c in terms:
            r[pos[t]] += c
        rows.append(r)

    for i, j, k, l, m in idx:
        row([((i, j, k, l, m), 1.0), ((j, i, k, l, m), 1.0)])
        row([((i, j, k, l, m), 1.0), ((i, j, l, k, m), 1.0)])
        row([((i, j, k, l, m), 1.0), ((k, l, i, j, m), -1.0)])
        row([((i, j, k, l, m), 1.0), ((j, k, i, l, m), 1.0), ((k, i, j, l, m), 1.0)])
        # differential identity: cyclic over the last pair and the derivative
        row([((i, j, k, l, m), 1.0), ((i, j, l, m, k), 1.0), ((i, j, m, k, l), 1.0)])
    A = np.array(rows)
    _, s, Vt = np.linalg.svd(A)
    null = Vt[np.sum(s > 1e-10):]
    return null.reshape(-1, N, N, N, N, N)


def synthetic_packet(N, seed=0, r_scale=0.6, dr_scale=0.4):
    rng = np.random.default_rng(seed)
    RB = riemann_space(N)
    DB = nabla_riemann_space(N)
    R = np.tensordot(rng.standard_normal(len(RB)), RB, axes=1) * r_scale
    nR = np.tensordot(rng.standard_normal(len(DB)), DB, axes=1) * dr_scale
    ricci = -np.einsum("ikil->kl", R)
    return CurvaturePacket(
        dim=N,
        scalar=float(np.trace(ricci)),
        scalar_gradient=-np.einsum("ikikm->m", nR),
        ricci=ricci,
        riemann=R,
        nabla_riemann=nR,
    )


def test_identity_space_dimensions():
    assert len(riemann_space(2)) == 1
    assert len(riemann_space(3)) == 6
    assert len(nabla_riemann_space(2)) == 2
    assert len(nabla_riemann_space(3)) == 15


@pytest.mark.parametrize("N", [2, 3])
def test_synthetic_packet_validates(N):
    packet = synthetic_packet(N, seed=3)
    checks = packet.validate()
    assert max(checks.values()) < 1e-12


def test_validate_rejects_broken_symmetry():
    packet = synthetic_packet(3, seed=4)
    packet.riemann[0, 1, 0, 1] += 0.01
    with pytest.raises(ValueError):
        packet.validate()


def test_round_sphere_packet_contractions():
    for N, k in ((2, 1.0), (3, 0.5)):
        man = ConstantCurvature(N, k)
        packet = man.packet()
        packet.validate()
        assert_allclose(packet.ricci, (N - 1) * k * np.eye(N), atol=1e-13)
        assert_allclose(packet.scalar, N * (N - 1) * k, rtol=1e-13)
        # sectional sign under the fixed contraction convention
        assert_allclose(packet.riemann[0, 1, 0, 1], -k, rtol=1e-13)
        assert np.abs(packet.nabla_riemann).max() == 0.0


# -- chart measurement ---------------------------------------------------------


def test_flat_chart_measures_zero():
    man = FlatSpace(3)
    packet = packet_from_chart(lambda Y: man.chart_metric(None, Y)[0], 3)
    assert np.abs(packet.riemann).max() < 1e-11
    assert np.abs(packet.nabla_riemann).max() < 1e-9
    assert abs(packet.scalar) < 1e-11


@pytest.mark.parametrize("N,k", [(2, 1.0), (3, 0.5)])
def test_constant_curvature_chart_measurement(N, k):
    chart = lambda Y: constant_curvature_chart(k, Y)[0]
    packet = packet_from_chart(chart, N)
    want = ConstantCurvature(N, k).packet()
    assert np.abs(packet.riemann - want.riemann).max() < 1e-9
    assert np.abs(packet.nabla_riemann).max() < 1e-7
    assert abs(packet.scalar - want.scalar) < 1e-9
    packet.validate(tol=1e-7)


@pytest.mark.parametrize("N", [2, 3])
def test_chart_round_trip(N):
    """packet -> cubic chart -> measured packet is the identity map."""
    packet = synthetic_packet(N, seed=7)
    chart = lambda Y: truncated_chart(packet, Y)[0]
    back = packet_from_chart(chart, N)
    assert np.abs(back.riemann - packet.riemann).max() < 1e-11
    assert np.abs(back.nabla_riemann - packet.nabla_riemann).max() < 1e-9
    assert np.abs(back.ricci - packet.ricci).max() < 1e-11
    assert abs(back.scalar - packet.scalar) < 1e-11
    assert np.abs(back.scalar_gradient - packet.scalar_gradient).max() < 1e-9
    assert back.fit_residual < 1e-9


def test_chart_normal_coordinate_invariants():
    packet = synthetic_packet(3, seed=8)
    g, dg = truncated_chart(packet, np.zeros((1, 3)))
    assert_allclose(g[0], np.eye(3), atol=1e-15)
    assert np.abs(dg[0]).max() < 1e-15
    g, dg = constant_curvature_chart(1.0, np.zeros((1, 3)))
    assert_allclose(g[0], np.eye(3), atol=1e-15)
    assert np.abs(dg[0]).max() < 1e-15


def test_truncated_chart_gradient_consistency():
    packet = synthetic_packet(3, seed=9)
    rng = np.random.default_rng(10)
    Y = rng.uniform(-0.2, 0.2, (5, 3))
    g, dg = truncated_chart(packet, Y)
    h = 1e-6
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        gp, _ = truncated_chart(packet, Y + e)
        gm, _ = truncated_chart(packet, Y - e)
        fd = (gp - gm) / (2 * h)
        assert np.abs(fd - dg[:, c]) .max() < 1e-9


def test_radial_profile_against_mpmath():
    from mpmath import mp, mpf, sin, sinh, sqrt, diff

    mp.dps = 40

    def ref(w):
        w = mpf(w)
        if w == 0:
            return mpf(-1) / 3
        if w > 0:
            return (sin(sqrt(w)) ** 2 / w - 1) / w
        u = sqrt(-w)
        return (sinh(u) ** 2 / (-w) - 1) / w

    for w in (1e-8, 1e-4, 1e-2, 0.2, 0.24, 0.26, 1.0, 4.0):
        for sign in (1.0, -1.0):
            G, Gp = _radial_profile(np.array([sign * w]))
            want = float(ref(sign * w))
            want_p = float(diff(ref, mpf(sign * w)))
            assert abs(G[0] - want) < 2e-15 * max(1.0, abs(want))
            assert abs(Gp[0] - want_p) < 1e-12 * max(1.0, abs(want_p))


# -- geometry of the model manifolds ------------------------------------------


@pytest.mark.parametrize("N,k", [(2, 1.0), (3, 0.7)])
def test_sphere_exp_log_round_trip(N, k):
    man = ConstantCurvature(N, k)
    p = man.origin()
    rng = np.random.default_rng(1)
    V = rng.standard_normal((12, N))
    V *= (rng.uniform(0.05, 1.8, 12) / np.linalg.norm(V, axis=1))[:, None]
    Q = man.exp(p, V)
    back = man.log(p, Q)
    assert np.abs(back - V).max() < 1e-12


def test_sphere_distance_and_transport():
    man = ConstantCurvature(2, 1.0)
    p = man.origin()
    V = np.array([[0.4, 0.3]])
    q = man.exp(p, V)[0]
    assert abs(man.distance(p, q) - 0.5) < 1e-12
    rng = np.random.default_rng(2)
    W = rng.standard_normal((6, 2))
    TW = man.transport(p, q, W)
    # parallel transport in an orthonormal frame preserves coefficients' norms
    assert_allclose(np.linalg.norm(TW, axis=1), np.linalg.norm(W, axis=1), rtol=1e-12)
    # the geodesic's own velocity transports to minus the reverse velocity
    vel = man.transport(p, q, V)
    assert np.abs(vel[0] + man.log(q, np.atleast_2d(p))[0]).max() < 1e-12


def test_conformal_exp_log_round_trip():
    cs = ConformalSphere2D()
    p = np.array([0.1, -0.2])
    rng = np.random.default_rng(3)
    V = rng.standard_normal((6, 2))
    V *= (rng.uniform(0.05, 0.8, 6) / np.linalg.norm(V, axis=1))[:, None]
    Q = cs.exp(p, V)
    back = cs.log(p, Q)
    assert np.abs(back - V).max() < 1e-8


def test_conformal_distance_symmetry():
    cs = ConformalSphere2D()
    p = np.array([0.3, 0.1])
    q = np.array([-0.2, 0.4])
    d1, d2 = cs.distance(p, q), cs.distance(q, p)
    assert abs(d1 - d2) < 1e-9
    assert d1 > 0.3


def test_conformal_transport_isometry():
    cs = ConformalSphere2D()
    p = np.array([0.2, 0.0])
    q = cs.exp(p, np.array([[0.3, 0.4]]))[0]
    rng = np.random.default_rng(4)
    W = rng.standard_normal((4, 2))
    TW = cs.transport(p, q, W)
    assert_allclose(np.linalg.norm(TW, axis=1), np.linalg.norm(W, axis=1), rtol=1e-8)
    vel = cs.transport(p, q, np.array([[0.3, 0.4]]))
    assert np.abs(vel[0] + cs.log(q, np.atleast_2d(p))[0]).max() < 1e-7


def test_conformal_scalar_curvature_independent_route():
    cs = ConformalSphere2D()
    p = np.array([0.3, 0.2])
    # S = -2 e^{-2f} lap(f) for a 2-D conformally flat metric, with lap(f)
    # taken by finite differences of the conformal factor alone
    h = 1e-3
    f0 = cs.conformal_factor(p[None])[0]
    lap = 0.0
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        lap += (
            cs.conformal_factor((p + e)[None])[0]
            - 2 * f0
            + cs.conformal_factor((p - e)[None])[0]
        ) / h**2
    want = -2.0 * np.exp(-2 * f0) * lap
    assert abs(cs.scalar_curvature(p) - want) < 1e-6
    # gradient against finite differences of the scalar field; the reported
    # components live in the orthonormal frame e^{-f} d/dz, so the chart
    # partials pick up a factor e^{f}
    gS = cs.scalar_gradient(p)
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1e-5
        fd = (cs.scalar_curvature(p + e) - cs.scalar_curvature(p - e)) / 2e-5
        assert abs(gS[c] - np.exp(-f0) * fd) < 1e-6


def test_conformal_packet_validates():
    cs = ConformalSphere2D()
    packet = cs.packet(np.array([0.25, -0.15]))
    checks = packet.validate()
    assert max(checks.values()) < 1e-10
    assert_allclose(packet.scalar, cs.scalar_curvature(np.array([0.25, -0.15])),
                    rtol=1e-12)


def test_scalar_max_point_is_critical():
    cs = ConformalSphere2D()
    pmax = cs.scalar_max_point()
    assert np.linalg.norm(cs.scalar_gradient(pmax)) < 1e-6
    S0 = cs.scalar_curvature(pmax)
    rng = np.random.default_rng(5)
    for _ in range(6):
        assert cs.scalar_curvature(pmax + 0.05 * rng.standard_normal(2)) < S0


# -- metric jets ----------------------------------------------------------------


def test_pullback_identity_limit():
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.6, 0.6, (9, 2))
    g = jet.metric(pts)
    assert np.abs(g - np.eye(2)).max() < 1e-15


def test_pullback_dilation():
    basis = get_basis(2, 16)
    v0 = 0.07
    state = PerturbationState(v0, SphereFunction.zero(basis))
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0, state=state)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.6, 0.6, (9, 2))
    g = jet.metric(pts)
    assert np.abs(g - (1 + v0) ** 2 * np.eye(2)).max() < 1e-13


def test_pullback_cross_fidelity():
    man = ConstantCurvature(2, 1.0)
    x = np.array([[0.5, 0.0]])
    gaps = []
    for eps in (0.1, 0.2):
        gt = MetricJet(man, man.origin(), eps, fidelity="truncated").metric(x)
        ge = MetricJet(man, man.origin(), eps, fidelity="exact").metric(x)
        gaps.append(np.abs(gt - ge).max())
    assert gaps[0] < 5e-7
    assert 10.0 < gaps[1] / gaps[0] < 22.0


def test_pullback_identity_rate():
    man = ConstantCurvature(3, 1.0)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, (20, 3))
    eps_list = (0.02, 0.05, 0.1)
    devs = [
        np.abs(MetricJet(man, man.origin(), e).metric(pts) - np.eye(3)).max()
        for e in eps_list
    ]
    slope = np.polyfit(np.log(eps_list), np.log(devs), 1)[0]
    assert slope > 1.9


def _random_state(basis, rng, amplitude=0.02):
    c = rng.standard_normal(basis.n_modes) * amplitude
    c /= (1.0 + basis.degrees) ** 2
    return PerturbationState.from_sphere_function(SphereFunction(basis, c))


def test_rho_jet_derivative_consistency():
    for N, max_degree in ((2, 16), (3, 10)):
        basis = get_basis(N, max_degree)
        rng = np.random.default_rng(9)
        state = _random_state(basis, rng)
        jet = MetricJet(FlatSpace(N), np.zeros(N), 0.0, state=state)
        # radii on both sides of 1/4, down to the neighbourhood of the origin
        radii = np.concatenate(
            [rng.uniform(0.02, 0.25, 5), rng.uniform(0.25, 0.9, 5)]
        )
        pts = rng.standard_normal((10, N))
        pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
        rho, drho, d2rho = jet.rho_jet(pts)
        h = 2e-4
        for c_ in range(N):
            e = np.zeros(N)
            e[c_] = h
            rp, dp, _ = jet.rho_jet(pts + e)
            rm, dm, _ = jet.rho_jet(pts - e)
            assert np.abs((rp - rm) / (2 * h) - drho[:, c_]).max() < 5e-8
            assert np.abs((dp - dm) / (2 * h) - d2rho[:, c_, :]).max() < 5e-8


@pytest.mark.parametrize("N, max_degree", [(2, 16), (3, 10)])
def test_rho_jet_product_set_matches_points(N, max_degree):
    grid = get_grid(N, max_degree)
    basis = grid.basis
    state = _random_state(basis, np.random.default_rng(11))
    man = ConstantCurvature(N, 1.0)
    jet = MetricJet(man, man.origin(), 0.1, state=state)
    on_product = jet.rho_jet(basis.nodes, grid.r)
    at_points = jet.rho_jet(grid.points)
    for a, b in zip(on_product, at_points):
        assert a.shape == b.shape
        assert np.abs(a - b).max() < 1e-13
    # r = 1: rho is one plus the boundary profile v0 + vbar, degree 1 dropped
    rho = jet.rho(basis.nodes, np.ones(1))
    profile = state.domain_profile().node_values()
    assert np.abs(rho - 1.0 - profile).max() < 1e-13


def test_metric_gradient_consistency():
    man = ConstantCurvature(2, 1.0)
    jet = MetricJet(man, man.origin(), 0.15)
    rng = np.random.default_rng(10)
    pts = rng.uniform(-0.5, 0.5, (5, 2))
    g, dg = jet.metric_and_grad(pts)
    h = 1e-6
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        fd = (jet.metric(pts + e) - jet.metric(pts - e)) / (2 * h)
        assert np.abs(fd - dg[:, c]).max() < 1e-8


# -- Laplace-Beltrami through the jet -------------------------------------------


def test_laplacian_euclidean_torsion():
    grid = get_grid(2, 16)
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    phi0 = poisson_solve(-np.ones((grid.n_r, grid.n_ang)), None, grid=grid)
    vals = laplace_beltrami_apply(jet, phi0, grid)
    assert np.abs(vals + 1.0).max() < 1e-11


def test_laplacian_harmonic_and_constant():
    grid = get_grid(2, 16)
    basis = grid.basis
    man = ConstantCurvature(2, 1.0)
    h = SphereFunction.from_mode(basis, 3, 1, 1.0)
    harm = poisson_solve(None, h, grid=grid)
    flat_jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    assert np.abs(laplace_beltrami_apply(flat_jet, harm, grid)).max() < 1e-9
    const = poisson_solve(
        None, SphereFunction.constant(basis, 2.5), grid=grid
    )
    for fid in ("truncated", "exact"):
        jet = MetricJet(man, man.origin(), 0.15, fidelity=fid)
        vals = laplace_beltrami_apply(jet, const, grid)
        assert np.abs(vals).max() < 1e-9


def test_laplacian_cross_fidelity():
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    phi0 = poisson_solve(-np.ones((grid.n_r, grid.n_ang)), None, grid=grid)
    gaps = []
    for eps in (0.1, 0.2):
        out = []
        for fid in ("truncated", "exact"):
            jet = MetricJet(man, man.origin(), eps, fidelity=fid)
            out.append(laplace_beltrami_apply(jet, phi0, grid))
        gaps.append(np.abs(out[0] - out[1]).max())
    assert gaps[0] < 5e-6
    assert 10.0 < gaps[1] / gaps[0] < 22.0


# -- config -----------------------------------------------------------------


def test_manifold_config_parsing():
    flat = manifold_from_config({"kind": "flat", "dim": "3"})
    assert isinstance(flat, FlatSpace) and flat.dim == 3
    sph = manifold_from_config({"kind": "sphere", "dim": "2", "curvature": "0.5"})
    assert isinstance(sph, ConstantCurvature)
    assert_allclose(sph.scalar_curvature(sph.origin()), 1.0, rtol=1e-12)
    conf = manifold_from_config(
        {"kind": "conformal2d", "bumps": "0.2,0.1,0.0,0.5"}
    )
    default = manifold_from_config({"kind": "conformal2d"})
    z = np.array([0.1, 0.0])
    assert conf.scalar_curvature(z) != default.scalar_curvature(z)
    with pytest.raises(ValueError):
        manifold_from_config({"kind": "torus"})


def test_pullback_metric_helper_matches_jet():
    man = ConstantCurvature(2, 1.0)
    jet = pullback_metric(man, man.origin(), 0.1)
    direct = MetricJet(man, man.origin(), 0.1)
    pts = np.array([[0.3, 0.4], [0.0, 0.0]])
    assert_allclose(jet.metric(pts), direct.metric(pts), atol=1e-15)
