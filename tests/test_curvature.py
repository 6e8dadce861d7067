"""Curvature packets, model manifolds, chart measurement, and metric jets.

The chart measurement (packet_from_chart and its finite-difference and
least-squares helpers) is a test-only oracle for the curvature sign
conventions: it recovers a packet from a normal-coordinate metric callback
independently of truncated_chart's expansion. truncated_chart and the
exact space-form charts it is measured against live in exact_chart, beside
the jet that uses them.
"""

import gc
import math
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from serrin_torsion import curvature

from serrin_torsion.ball_solver import (
    BallField,
    get_grid,
    harmonic_extension,
    poisson_solve,
)
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    CurvaturePacket,
    FlatSpace,
    GeometryError,
    MetricJet,
    ModelManifold,
    _packed_cofactors,
    cubic_chart,
    cubic_chart_gradient,
)
from serrin_torsion.foliation import center_curve_through
from serrin_torsion.profile import profile_expansion
from serrin_torsion.reduced import _StarMapJet, find_critical
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import PerturbationState, SphereFunction, get_basis

from exact_chart import (
    ExactJet,
    _radial_profile,
    constant_curvature_chart,
    truncated_chart,
)
from packet_manifold import (
    PacketManifold,
    nabla_riemann_space,
    riemann_space,
    synthetic_packet,
)
from strong_oracle import (
    band_limited,
    generic_laplace_coefficients,
    strong_laplacian,
)


# -- the identities of a curvature packet ---------------------------------------


def validate_packet(packet, tol=1e-10):
    """Oracle: the algebraic and differential identities of a curvature
    packet. Returns the dict of measured violations; raises ValueError when
    one exceeds tol."""
    R = packet.riemann
    nR = packet.nabla_riemann
    checks = {}
    checks["antisym_front"] = np.abs(R + R.transpose(1, 0, 2, 3)).max()
    checks["antisym_back"] = np.abs(R + R.transpose(0, 1, 3, 2)).max()
    checks["pair_symmetry"] = np.abs(R - R.transpose(2, 3, 0, 1)).max()
    checks["bianchi_first"] = np.abs(
        R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
    ).max()
    checks["ricci_contraction"] = np.abs(
        packet.ricci + np.einsum("ikil->kl", R)
    ).max()
    checks["ricci_symmetry"] = np.abs(packet.ricci - packet.ricci.T).max()
    checks["scalar_trace"] = abs(packet.scalar - float(np.trace(packet.ricci)))
    checks["d_antisym_front"] = np.abs(nR + nR.transpose(1, 0, 2, 3, 4)).max()
    checks["d_antisym_back"] = np.abs(nR + nR.transpose(0, 1, 3, 2, 4)).max()
    checks["d_pair_symmetry"] = np.abs(nR - nR.transpose(2, 3, 0, 1, 4)).max()
    checks["bianchi_second"] = np.abs(
        nR + nR.transpose(0, 1, 3, 4, 2) + nR.transpose(0, 1, 4, 2, 3)
    ).max()
    # trace of the derivative reproduces the scalar-curvature gradient
    dS = -np.einsum("ikikm->m", nR)
    checks["scalar_gradient_trace"] = np.abs(dS - packet.scalar_gradient).max()
    bad = {k: v for k, v in checks.items() if v > tol}
    if bad:
        raise ValueError("curvature packet fails identities: %s" % bad)
    return checks


def test_identity_space_dimensions():
    assert len(riemann_space(2)) == 1
    assert len(riemann_space(3)) == 6
    assert len(nabla_riemann_space(2)) == 2
    assert len(nabla_riemann_space(3)) == 15


@pytest.mark.parametrize("N", [2, 3])
def test_synthetic_packet_validates(N):
    packet = synthetic_packet(N, seed=3)
    checks = validate_packet(packet)
    assert max(checks.values()) < 1e-12


def test_validate_rejects_broken_symmetry():
    packet = synthetic_packet(3, seed=4)
    packet.riemann[0, 1, 0, 1] += 0.01
    with pytest.raises(ValueError):
        validate_packet(packet)


def test_round_sphere_packet_contractions():
    for N, k in ((2, 1.0), (3, 0.5)):
        man = ConstantCurvature(N, k)
        packet = man.packet()
        validate_packet(packet)
        assert_allclose(packet.ricci, (N - 1) * k * np.eye(N), atol=1e-13)
        assert_allclose(packet.scalar, N * (N - 1) * k, rtol=1e-13)
        # sectional sign under the fixed contraction convention
        assert_allclose(packet.riemann[0, 1, 0, 1], -k, rtol=1e-13)
        assert np.abs(packet.nabla_riemann).max() == 0.0


# -- chart measurement ---------------------------------------------------------


def _second_derivatives(chart, N, h):
    """d2_{kl} g_ij(0) by central differences at scale h, (N,N,N,N) array
    indexed [k,l,i,j]."""
    out = np.empty((N, N, N, N))
    g0 = chart(np.zeros((1, N)))[0]
    for k in range(N):
        ek = np.zeros(N)
        ek[k] = h
        gp = chart(ek[None, :])[0]
        gm = chart(-ek[None, :])[0]
        out[k, k] = (gp + gm - 2.0 * g0) / h**2
        for l in range(k + 1, N):
            el = np.zeros(N)
            el[l] = h
            gpp = chart((ek + el)[None, :])[0]
            gpm = chart((ek - el)[None, :])[0]
            gmp = chart((el - ek)[None, :])[0]
            gmm = chart((-ek - el)[None, :])[0]
            mixed = (gpp - gpm - gmp + gmm) / (4.0 * h**2)
            out[k, l] = mixed
            out[l, k] = mixed
    return out


def _third_derivatives(chart, N, h):
    """d3_{klm} g_ij(0) via polarization of the odd part, [k,l,m,i,j]."""

    def odd(y):
        return 0.5 * (chart(y[None, :])[0] - chart(-y[None, :])[0])

    out = np.empty((N, N, N, N, N))
    for k in range(N):
        for l in range(k, N):
            for m in range(l, N):
                u = np.zeros(N)
                v = np.zeros(N)
                w = np.zeros(N)
                u[k] = h
                v[l] = h
                w[m] = h
                c = (
                    odd(u + v + w)
                    - odd(u + v - w)
                    - odd(u - v + w)
                    - odd(-u + v + w)
                    + odd(u - v - w)
                    + odd(-u + v - w)
                    + odd(-u - v + w)
                    - odd(-u - v - w)
                ) / 8.0
                # the alternating sum polarizes the cubic part: c equals
                # 6 c_sym(e_k, e_l, e_m) h^3, and the third derivative is
                # 6 c_sym as well, so dividing by h^3 lands exactly on it.
                val = c / h**3
                for per in (
                    (k, l, m),
                    (k, m, l),
                    (l, k, m),
                    (l, m, k),
                    (m, k, l),
                    (m, l, k),
                ):
                    out[per] = val
    return out


def _richardson(samples, order=2):
    """Limit h -> 0 of a sequence sampled at h, h/2, h/4, error O(h^order)."""
    vals = list(samples)
    fac = 2.0**order
    while len(vals) > 1:
        vals = [
            (fac * vals[i + 1] - vals[i]) / (fac - 1.0)
            for i in range(len(vals) - 1)
        ]
        fac *= 4.0
    return vals[0]


def _nabla_riemann_from_third(C, N):
    """Solve the symmetrized-cubic relation for the curvature derivative.

    C[i,j,k,l,m] = d3_{klm} g_ij(0) equals the symmetrization over (k,l,m)
    of nabla_riemann[i,k,j,l,m]. The solve runs as least squares over the
    linear subspace of five-index tensors with the curvature-derivative
    symmetries (front/back antisymmetry, pair symmetry, both Bianchi
    identities), where the symmetrization map is injective.
    """
    size = N**5
    idx = lambda i, j, k, l, m: (((i * N + j) * N + k) * N + l) * N + m
    rows = []

    def add(coeffs):
        row = np.zeros(size)
        for pos, c in coeffs:
            row[idx(*pos)] += c
        rows.append(row)

    rng = range(N)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    for m in rng:
                        add([((i, j, k, l, m), 1.0), ((j, i, k, l, m), 1.0)])
                        add([((i, j, k, l, m), 1.0), ((i, j, l, k, m), 1.0)])
                        add([((i, j, k, l, m), 1.0), ((k, l, i, j, m), -1.0)])
                        add(
                            [
                                ((i, j, k, l, m), 1.0),
                                ((j, k, i, l, m), 1.0),
                                ((k, i, j, l, m), 1.0),
                            ]
                        )
                        add(
                            [
                                ((i, j, k, l, m), 1.0),
                                ((i, j, l, m, k), 1.0),
                                ((i, j, m, k, l), 1.0),
                            ]
                        )
    A = np.stack(rows)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    B = Vt[rank:].T  # columns span the admissible tensors
    # symmetrization map: S(X)[i,j,k,l,m] = mean over perms p of (k,l,m) of
    # X[i, p(k), j, p(l), p(m)] reindexed to match C[i,j,k,l,m]
    X = B.reshape(N, N, N, N, N, -1)
    perms = [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    SX = 0.0
    for pe in perms:
        # target C index order (i,j,k,l,m); source X[i, s(k), j, s(l), s(m)]
        src = "i" + "klm"[pe[0]] + "j" + "klm"[pe[1]] + "klm"[pe[2]] + "t"
        SX = SX + np.einsum(src + "->ijklmt", X)
    SX = SX / 6.0
    M = SX.reshape(size, -1)
    sol, *_ = np.linalg.lstsq(M, C.reshape(size), rcond=None)
    Xhat = (B @ sol).reshape(N, N, N, N, N)
    resid = float(np.abs(M @ sol - C.reshape(size)).max())
    return Xhat, resid


def packet_from_chart(chart, N, h=0.04, exact=True):
    """Measure a curvature packet from a normal-coordinate metric callback.

    chart(Y) maps (n, N) true normal coordinates to (n, N, N) metric values.
    For charts that are exactly cubic the stencils are exact at any h; set
    exact=True (the default) to Richardson-extrapolate over h, h/2, h/4 for
    genuine (analytic) charts.
    """
    hs = [h, h / 2.0, h / 4.0] if exact else [h]
    d2 = [_second_derivatives(chart, N, hh) for hh in hs]
    d3 = [_third_derivatives(chart, N, hh) for hh in hs]
    H2 = _richardson(d2) if exact else d2[0]
    H3 = _richardson(d3) if exact else d3[0]
    # With g_ij = d + (1/3) riemann[i,k,j,l] y^k y^l + ..., combining the
    # first Bianchi identity with the symmetries gives the exact relation
    # riemann[i,k,j,l] = d2_{kl} g_ij - d2_{il} g_kj.
    riemann = np.empty((N, N, N, N))
    for i in range(N):
        for k in range(N):
            for j in range(N):
                for l in range(N):
                    riemann[i, k, j, l] = H2[k, l, i, j] - H2[i, l, k, j]
    C3 = np.einsum("klmij->ijklm", H3)
    nabla_riemann, resid = _nabla_riemann_from_third(C3, N)
    ricci = -np.einsum("ikil->kl", riemann)
    scalar = float(np.trace(ricci))
    dS = -np.einsum("ikikm->m", nabla_riemann)
    packet = CurvaturePacket(
        dim=N,
        scalar=scalar,
        scalar_gradient=dS,
        ricci=ricci,
        riemann=riemann,
        nabla_riemann=nabla_riemann,
    )
    packet.fit_residual = resid
    return packet


def test_flat_chart_measures_zero():
    packet = packet_from_chart(lambda Y: constant_curvature_chart(0.0, Y)[0], 3)
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
    validate_packet(packet, tol=1e-7)


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


@pytest.mark.parametrize("N", [2, 3, 4])
def test_cubic_chart_tables_match_truncated_chart(N):
    """The direction tables of cubic_chart and cubic_chart_gradient
    reproduce the pointwise model at Y = s theta, s = 0 included, on
    directions of any length."""
    packet = synthetic_packet(N, seed=N)
    rng = np.random.default_rng(30 + N)
    dirs = rng.standard_normal((7, N))
    dirs[:4] /= np.linalg.norm(dirs[:4], axis=1)[:, None]
    s = np.array([0.0, 0.05, 0.2, 0.4])[:, None] * rng.uniform(0.5, 1.0, 7)
    g, dg = cubic_chart(packet, dirs, s), cubic_chart_gradient(packet, dirs, s)
    assert g.shape == (N * (N + 1) // 2, 4, 7)
    assert dg.shape == (N,) + g.shape
    a, b = np.triu_indices(N)
    want_g, want_dg = truncated_chart(packet, (s[:, :, None] * dirs).reshape(-1, N))
    assert np.abs(g.reshape(len(a), -1).T - want_g[:, a, b]).max() < 1e-15
    got_dg = dg.reshape(N, len(a), -1).transpose(2, 0, 1)
    assert np.abs(got_dg - want_dg[:, :, a, b]).max() < 1e-15
    # s = 0 is the center of the chart: exactly the identity, no gradient
    assert np.array_equal(g[:, 0], np.eye(N)[a, b][:, None] * np.ones(7))
    assert not dg[:, :, 0].any()


@pytest.mark.parametrize("N", [2, 3])
def test_packed_cofactors_positivity(N):
    """_packed_cofactors owns the positivity test: its determinant is NaN
    exactly where g has an eigenvalue <= 0, and np.linalg.det elsewhere.
    The batch holds definite and indefinite matrices with det > 0 (two
    negative eigenvalues), exact ones and a zero eigenvalue."""
    rng = np.random.default_rng(40 + N)
    Q, _ = np.linalg.qr(rng.standard_normal((120, N, N)))
    lam = rng.uniform(0.2, 2.0, (120, N))
    lam[40:80, 0] *= -1.0
    lam[80:, :2] *= -1.0
    exact = [np.diag([-1.0] * (N - 1) + [1.0]), np.diag([1.0] + [-1.0] * (N - 1)),
             np.diag([0.0] + [1.0] * (N - 1)), np.diag([-1.0] * N), np.eye(N)]
    G = np.concatenate([(Q * lam[:, None]) @ Q.transpose(0, 2, 1), exact])
    G = 0.5 * (G + G.transpose(0, 2, 1))
    a, b = np.triu_indices(N)
    _, det = _packed_cofactors(G[:, a, b].T)
    bad = np.linalg.eigvalsh(G).min(axis=1) <= 0.0
    assert bad.sum() == 80 + len(exact) - 1
    assert np.array_equal(np.isnan(det), bad)
    want = np.linalg.det(G[~bad])
    assert np.abs(det[~bad] / want - 1.0).max() < 1e-14


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


def _log_contract_case(name):
    """(manifold, base point) of one contract case."""
    if name == "flat":
        return FlatSpace(2), np.array([0.3, -1.2])
    if name == "conformal":
        return ConformalSphere2D(), np.array([0.3, -0.2])
    N = {"round2": 2, "round3": 3}[name]
    man = ConstantCurvature(N, 0.7)
    return man, man.exp(man.origin(), np.full((1, N), 0.4))[0]


@pytest.mark.parametrize("name", ["flat", "round2", "round3", "conformal"])
def test_log_certifies_its_round_trip(name):
    """The log contract on every manifold: exp(p, log(p, Q)) meets Q to
    LOG_TOL in point coordinates, on seeded batches with lengths from 1e-6
    to 1 (below 1e-4 an arccos angle loses half its digits)."""
    man, p = _log_contract_case(name)
    assert man.LOG_TOL == ModelManifold.LOG_TOL == 1e-12
    rng = np.random.default_rng(41)
    V = rng.standard_normal((64, man.dim))
    V *= (10.0 ** rng.uniform(-6.0, 0.0, 64)
          / np.linalg.norm(V, axis=1))[:, None]
    Q = man.exp(p, V)
    U = man.log(p, Q)
    assert np.abs(man.exp(p, U) - Q).max() < man.LOG_TOL
    assert np.abs(U - V).max() < 1e-11


@pytest.mark.parametrize("N", [2, 3])
def test_sphere_log_at_antipode_raises(N):
    """The direction to the antipode is undefined: no tangent vector meets
    the round trip, so log raises instead of returning zero."""
    man = ConstantCurvature(N, 0.7)
    p = man.exp(man.origin(), np.full((1, N), 0.4))[0]
    Q = np.stack([man.exp(p, np.full((1, N), 0.1))[0], -p])
    with pytest.raises(GeometryError, match="round trip"):
        man.log(p, Q)


def test_conformal_exp_log_round_trip():
    cs = ConformalSphere2D()
    p = np.array([0.1, -0.2])
    rng = np.random.default_rng(3)
    V = rng.standard_normal((6, 2))
    V *= (rng.uniform(0.05, 0.8, 6) / np.linalg.norm(V, axis=1))[:, None]
    Q = cs.exp(p, V)
    back = cs.log(p, Q)
    assert np.abs(cs.exp(p, back) - Q).max() < cs.LOG_TOL
    assert np.abs(back - V).max() < 1e-11


def test_conformal_log_short_geodesic_where_fixed_point_stalls():
    """A geodesic of length 0.285 on which the plain fixed point
    U += e^f0 (Q - exp(p, U)) stalls at a chart gap near 2e-3 and exhausts
    LOG_MAX_ITER; the secant iteration recovers V."""
    cs = ConformalSphere2D()
    p = np.array([-0.79, 1.62])
    V = np.array([[-0.167, 0.231]])
    back = cs.log(p, cs.exp(p, V))
    assert np.abs(back - V).max() < 1e-12


def test_conformal_log_leaf_integration_count(monkeypatch):
    """A 96-node leaf of radius 0.12 near the scalar-curvature maximum:
    the log map converges in at most 12 exp integrations."""
    cs = ConformalSphere2D()
    nodes = get_basis(2, 16).nodes
    base = cs.scalar_max_point()
    targets = cs.exp(np.array([-1.49, 2.32]), 0.12 * nodes)
    calls = []
    exp = ConformalSphere2D.exp

    def counted(self, p, V):
        calls.append(1)
        return exp(self, p, V)

    monkeypatch.setattr(ConformalSphere2D, "exp", counted)
    w = cs.log(base, targets)
    assert len(calls) <= 12
    assert np.abs(exp(cs, base, w) - targets).max() < cs.LOG_TOL


def test_conformal_distance_symmetry():
    cs = ConformalSphere2D()
    p = np.array([0.3, 0.1])
    q = np.array([-0.2, 0.4])
    d1, d2 = cs.distance(p, q), cs.distance(q, p)
    assert abs(d1 - d2) < 1e-9
    assert d1 > 0.3


def conformal_factor(cs, Z):
    """Oracle: the conformal factor f at chart points Z (n, 2), read off the
    class's definition: log(2 / (1 + |z|^2)) plus its Gaussian bumps."""
    Z = np.atleast_2d(Z)
    f = np.log(2.0 / (1.0 + np.sum(Z**2, axis=1)))
    for A, c, sg in cs.BUMPS:
        f += A * np.exp(-np.sum((Z - c) ** 2, axis=1) / (2.0 * sg**2))
    return f


def test_conformal_scalar_curvature_independent_route():
    cs = ConformalSphere2D()
    p = np.array([0.3, 0.2])
    # S = -2 e^{-2f} lap(f) for a 2-D conformally flat metric, with lap(f)
    # taken by finite differences of the conformal factor alone
    h = 1e-3
    f0 = conformal_factor(cs, p[None])[0]
    lap = 0.0
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        lap += (
            conformal_factor(cs, (p + e)[None])[0]
            - 2 * f0
            + conformal_factor(cs, (p - e)[None])[0]
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


def test_conformal_curvature_symbolic_oracle():
    """S and its frame gradient e^(-f) grad S against sympy derivatives of
    the conformal factor, evaluated in 30-digit mpmath, at seeded chart
    points, the bump centers and the origin."""
    import mpmath
    import sympy as sp

    cs = ConformalSphere2D()
    x, y = sp.symbols("x y")
    f = sp.log(2 / (1 + x**2 + y**2))
    for A, c, sg in cs.BUMPS:
        A, cx, cy, sg = (sp.Rational(float(v)) for v in (A, *c, sg))
        f += A * sp.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sg**2))
    S = -2 * sp.exp(-2 * f) * (sp.diff(f, x, 2) + sp.diff(f, y, 2))
    exprs = [S] + [sp.exp(-f) * sp.diff(S, v) for v in (x, y)]
    oracle = sp.lambdify((x, y), exprs, modules="mpmath")
    pts = np.vstack([
        np.random.default_rng(17).uniform(-2.0, 2.0, (12, 2)),
        [c for _, c, _ in cs.BUMPS],
        np.zeros((1, 2)),
    ])
    with mpmath.workdps(30):
        want = np.array([[float(v) for v in oracle(*map(mpmath.mpf, p))]
                         for p in pts])
    for p, (S_want, *grad_want) in zip(pts, want):
        packet = cs.packet(p)
        assert abs(packet.scalar - S_want) < 1e-13 * abs(S_want)
        gap = np.linalg.norm(packet.scalar_gradient - grad_want)
        assert gap < 1e-13 * np.linalg.norm(grad_want)


def test_conformal_packet_validates():
    cs = ConformalSphere2D()
    packet = cs.packet(np.array([0.25, -0.15]))
    checks = validate_packet(packet)
    assert max(checks.values()) < 1e-10
    assert_allclose(packet.scalar, cs.scalar_curvature(np.array([0.25, -0.15])),
                    rtol=1e-12)


def test_scalar_max_point_is_critical():
    cs = ConformalSphere2D()
    pmax = cs.scalar_max_point()
    assert np.linalg.norm(cs.scalar_gradient(pmax)) < 1e-12
    S0 = cs.scalar_curvature(pmax)
    rng = np.random.default_rng(5)
    for _ in range(6):
        assert cs.scalar_curvature(pmax + 0.05 * rng.standard_normal(2)) < S0


def _tangent_batch(n, seed):
    """A seeded chart point and n tangent vectors of length up to 1."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.5, 0.5, 2)
    V = rng.standard_normal((n, 2))
    V *= (rng.uniform(0.0, 1.0, n) / np.linalg.norm(V, axis=1))[:, None]
    return p, V


def _solve_ivp_exp(cs, p, V):
    """Oracle: exp through scipy's solve_ivp DOP853 on the class's own
    geodesic right-hand side, at the class's tolerances."""
    n = len(V)
    Vc = V * math.exp(-float(cs._f(p)[0]))
    state0 = np.concatenate([np.tile(p, (n, 1)).ravel(), Vc.ravel()])
    sol = solve_ivp(
        cs._geodesic_rhs,
        (0.0, 1.0),
        state0,
        method="DOP853",
        rtol=cs.RTOL,
        atol=cs.ATOL,
    )
    assert sol.success
    return sol.y[: 2 * n, -1].reshape(n, 2)


@pytest.mark.parametrize("n", [1, 96, 768, "zero"])
def test_conformal_exp_matches_solve_ivp(n):
    """exp steps scipy's DOP853 itself, as solve_ivp does: bit-identical
    end points on seeded batches of 1, 96 and 768 geodesics, and at the
    zero vector."""
    cs = ConformalSphere2D()
    if n == "zero":
        p, V = np.array([0.2, -0.1]), np.zeros((1, 2))
    else:
        p, V = _tangent_batch(n, 31)
    assert np.array_equal(cs.exp(p, V), _solve_ivp_exp(cs, p, V))


def _einsum_rhs(cs, state):
    """Reference: the geodesic right-hand side on (n, 2) point arrays with
    einsum, in the operation order the column form keeps."""
    n = state.shape[0] // 4
    Z = state[: 2 * n].reshape(n, 2)
    V = state[2 * n :].reshape(n, 2)
    u = np.einsum("pi,pi->p", Z, Z)
    df = (-1.0 / (1.0 + u))[:, None] * 2.0 * Z
    for A, c, sg in cs.BUMPS:
        D = Z - c[None, :]
        b = A * np.exp(-np.einsum("pi,pi->p", D, D) / (2.0 * sg**2))
        df = df + -b[:, None] * D / sg**2
    fv = np.einsum("pi,pi->p", df, V)
    vv = np.einsum("pi,pi->p", V, V)
    acc = -2.0 * fv[:, None] * V + vv[:, None] * df
    return np.concatenate([V.ravel(), acc.ravel()])


@pytest.mark.parametrize("n", [1, 96, 768])
def test_geodesic_rhs_columns_match_the_point_form(n):
    """The column form of the geodesic equations is bit for bit the point
    form, on seeded states across the chart."""
    cs = ConformalSphere2D()
    state = np.random.default_rng(40 + n).uniform(-3.0, 3.0, 4 * n)
    assert np.array_equal(cs._geodesic_rhs(0.0, state), _einsum_rhs(cs, state))


class _RoundStereographic(ConformalSphere2D):
    """The conformal sphere without bumps: the unit sphere in the
    stereographic chart, e^f = 2 / (1 + |z|^2)."""

    BUMPS = ()


def _stereographic(Z):
    """The unit-sphere point (2 z, |z|^2 - 1) / (1 + |z|^2) of each chart
    point."""
    u = np.einsum("pi,pi->p", Z, Z)[:, None]
    return np.hstack([2.0 * Z, u - 1.0]) / (1.0 + u)


def test_conformal_exp_follows_great_circles():
    """Without bumps exp lands on the great circles: exp_P(W) = cos|W| P +
    sin|W| W/|W| for the ambient image W of the frame vector, which has
    the same length. An oracle that integrates nothing, on 96 seeded
    vectors of length up to 1.2 (measured 1.2e-13 in ambient
    coordinates)."""
    cs = _RoundStereographic()
    p, V = _tangent_batch(96, 39)
    V *= 1.2
    P = _stereographic(p[None])[0]
    # d sigma at p sends the chart vector a = e^-f V to 2 a / (1 + u) -
    # 4 (p . a) p / (1 + u)^2 in the plane and 4 (p . a) / (1 + u)^2 up
    u = p @ p
    a = V * (1.0 + u) / 2.0
    pa = (a @ p)[:, None]
    W = np.hstack([2.0 * a / (1.0 + u) - 4.0 * pa * p / (1.0 + u) ** 2,
                   4.0 * pa / (1.0 + u) ** 2])
    L = np.linalg.norm(V, axis=1)[:, None]
    assert_allclose(np.linalg.norm(W, axis=1)[:, None], L, rtol=1e-14)
    circle = np.cos(L) * P + np.sin(L) * W / L
    assert np.abs(_stereographic(cs.exp(p, V)) - circle).max() < 1e-11


def test_conformal_exp_leaves_no_reference_cycle():
    """Nothing of an integration outlives the call: with the cyclic
    collector off, one exp leaves no garbage for it to find (scipy's
    OdeSolver leaves its stage arrays in a cycle)."""
    cs = ConformalSphere2D()
    p, V = _tangent_batch(96, 35)
    cs.exp(p, V)
    gc.collect()
    gc.disable()
    try:
        cs.exp(p, V)
        assert gc.collect() == 0
    finally:
        gc.enable()


def nan_after_first_call(monkeypatch):
    """Make the geodesic right-hand side NaN from its second call on: the
    stepper's first step is finite, and no try of it passes the error
    control, so the step falls below its floor of 10 ulp of t."""
    rhs = ConformalSphere2D._geodesic_rhs
    calls = []

    def turning(self, t, state):
        calls.append(t)
        out = rhs(self, t, state)
        return out if len(calls) == 1 else np.full_like(out, np.nan)

    monkeypatch.setattr(ConformalSphere2D, "_geodesic_rhs", turning)


def test_conformal_exp_step_floor_raises_geometry_error(monkeypatch):
    nan_after_first_call(monkeypatch)
    p, V = _tangent_batch(4, 36)
    with pytest.raises(GeometryError, match="failed at t = 0: Required step "
                       "size is less than spacing between numbers"):
        ConformalSphere2D().exp(p, V)


def test_conformal_exp_nan_rhs_raises_geometry_error(monkeypatch):
    """A right-hand side that is NaN from the start makes the first step
    NaN, which scipy's stepper retries forever; exp raises at once. An
    alarm bounds the wait."""

    def timeout(signum, frame):
        raise TimeoutError("exp still running after 5 s")

    monkeypatch.setattr(ConformalSphere2D, "_geodesic_rhs",
                        lambda self, t, state: np.full_like(state, np.nan))
    p, V = _tangent_batch(4, 38)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(GeometryError, match="first step nan"):
            ConformalSphere2D().exp(p, V)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_conformal_exp_non_finite_state_raises_geometry_error():
    with pytest.raises(GeometryError, match="not finite"):
        ConformalSphere2D().exp(np.zeros(2), [[np.nan, 0.1]])


def test_conformal_exp_step_cap_raises_geometry_error(monkeypatch):
    """An integration that needs more than MAX_STEPS steps fails instead of
    running on: |V| = 1 needs 13 here."""
    monkeypatch.setattr(curvature, "MAX_STEPS", 5)
    with pytest.raises(GeometryError, match="5 steps reached t = "):
        ConformalSphere2D().exp(np.array([0.499, 0.455]), [[1.0, 0.0]])


def test_conformal_log_far_targets_fail_fast():
    """Far targets drive the secant iteration into ever longer geodesics
    (|U| 1.9, 2.4, 4.4, 2.4, 36, ...); the step cap of the integration
    stops it with GeometryError within 20 s (0.5 s on a 2-vCPU VM). An
    uncapped integration runs for minutes, so an alarm bounds the wait."""

    def timeout(signum, frame):
        raise TimeoutError("log still running after 20 s")

    p = np.array([0.499, 0.455])
    Q = p + np.random.default_rng(0).uniform(-1.0, 1.0, (8, 2))
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        with pytest.raises(GeometryError, match="geodesic integration "
                           "failed: %d steps" % curvature.MAX_STEPS):
            ConformalSphere2D().log(p, Q)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_conformal_log_failure_raises_geometry_error(monkeypatch):
    cs = ConformalSphere2D()
    p, V = _tangent_batch(8, 37)
    targets = cs.exp(p, 0.2 * V)
    monkeypatch.setattr(ConformalSphere2D, "LOG_MAX_ITER", 2)
    with pytest.raises(GeometryError, match="log map did not converge"):
        cs.log(p, targets)


def test_scalar_max_point_failure_raises_geometry_error(monkeypatch):
    failed = SimpleNamespace(success=False, message="forced", x=np.zeros(2))
    monkeypatch.setattr(curvature, "root", lambda *a, **k: failed)
    with pytest.raises(GeometryError, match="maximum not found: forced"):
        ConformalSphere2D().scalar_max_point()


def test_scalar_max_point_failure_is_not_kept(monkeypatch):
    failed = SimpleNamespace(success=False, message="forced", x=np.zeros(2))
    cs = ConformalSphere2D()
    with monkeypatch.context() as m:
        m.setattr(curvature, "root", lambda *a, **k: failed)
        for _ in range(2):
            with pytest.raises(GeometryError, match="maximum not found"):
                cs.scalar_max_point()
    assert np.linalg.norm(cs.scalar_gradient(cs.scalar_max_point())) < 1e-12


def test_scalar_max_point_is_found_once_per_manifold(monkeypatch):
    """The search, the center curve and the profile on one manifold share
    one BFGS-plus-root search for the maximum."""
    calls = []
    found = curvature.root

    def counted(*args, **kwargs):
        calls.append(1)
        return found(*args, **kwargs)

    monkeypatch.setattr(curvature, "root", counted)
    cs = ConformalSphere2D()
    p, _, _ = find_critical(SerrinProblem(cs), 0.1, seed=0)
    base, _ = center_curve_through(cs, p, 0.1)
    (point,) = profile_expansion(cs, [0.03])
    assert len(calls) == 1
    assert base is cs.scalar_max_point()
    assert point.J_ball > 0.0


def test_scalar_max_point_is_read_only_and_reproducible():
    cs = ConformalSphere2D()
    pmax = cs.scalar_max_point()
    assert cs.scalar_max_point() is pmax
    assert cs.center() is pmax
    assert not pmax.flags.writeable
    with pytest.raises(ValueError):
        pmax[0] = 0.0
    assert pmax.tobytes() == ConformalSphere2D().scalar_max_point().tobytes()


@pytest.mark.parametrize(
    "manifold",
    [FlatSpace(2), ConstantCurvature(2), ConstantCurvature(3)],
    ids=["flat2", "round2", "round3"],
)
def test_no_isolated_maximum_centers_at_origin(manifold):
    """S is constant on flat space and the round spheres: no maximum, and
    the center is the origin."""
    assert manifold.scalar_max_point() is None
    assert np.array_equal(manifold.center(), manifold.origin())


# -- metric jets ----------------------------------------------------------------


def test_pullback_identity_limit():
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.6, 0.6, (9, 2))
    g, _ = jet.metric_and_grad(pts)
    assert np.abs(g - np.eye(2)).max() < 1e-15


def test_pullback_dilation():
    basis = get_basis(2, 16)
    v0 = 0.07
    state = PerturbationState(v0, SphereFunction.zero(basis))
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0, state=state)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.6, 0.6, (9, 2))
    g, _ = jet.metric_and_grad(pts)
    assert np.abs(g - (1 + v0) ** 2 * np.eye(2)).max() < 1e-13


def test_pullback_cross_fidelity():
    man = ConstantCurvature(2, 1.0)
    x = np.array([[0.5, 0.0]])
    gaps = []
    for eps in (0.1, 0.2):
        gt, ge = (
            cls(man, man.origin(), eps).metric_and_grad(x)[0]
            for cls in (MetricJet, ExactJet)
        )
        gaps.append(np.abs(gt - ge).max())
    assert gaps[0] < 5e-7
    assert 10.0 < gaps[1] / gaps[0] < 22.0


def test_pullback_identity_rate():
    man = ConstantCurvature(3, 1.0)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, (20, 3))
    eps_list = (0.02, 0.05, 0.1)
    devs = [
        np.abs(
            MetricJet(man, man.origin(), e).metric_and_grad(pts)[0] - np.eye(3)
        ).max()
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
    rho = jet.rho_jet(basis.nodes, np.ones(1))[0]
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
        gp, _ = jet.metric_and_grad(pts + e)
        gm, _ = jet.metric_and_grad(pts - e)
        fd = (gp - gm) / (2 * h)
        assert np.abs(fd - dg[:, c]).max() < 1e-8


# -- Laplace-Beltrami through the jet -------------------------------------------


def generic_flux(jet, pts, radii=None):
    """Oracle for MetricJet.laplace_coefficients: F = sqrt det g g^-1 and
    sqrt det g from the pulled-back metric of metric_and_grad (whose chart
    tables truncated_chart checks) by a dense inverse, in the jet's
    component-major layout, F packed to its upper triangle."""
    ginv, _, sqrt_det = generic_laplace_coefficients(jet, pts, radii)
    a, b = np.triu_indices(jet.dim)
    return (sqrt_det[:, None] * ginv[:, a, b]).T, sqrt_det


def _coefficient_jets():
    jets = {}
    for N in (2, 3):
        basis = get_grid(N).basis
        state = PerturbationState(0.01, band_limited(basis, 20 + N, 0.02, 2))
        man = ConstantCurvature(N, 1.0)
        for fid, cls in (("truncated", MetricJet), ("exact", ExactJet)):
            jets["round%d-%s" % (N, fid)] = cls(man, man.origin(), 0.2, state)
    basis = get_grid(2).basis
    state = PerturbationState(-0.01, band_limited(basis, 24, 0.02, 2))
    jets["conformal-off-max"] = MetricJet(
        ConformalSphere2D(), np.array([0.3, -0.2]), 0.2, state
    )
    jets["star-map-degree1"] = _StarMapJet(1.0, band_limited(basis, 25, 0.02, 1))
    # a generic N=3 packet: nabla R != 0, so the cubic terms A3 and D2 of
    # the chart are live, which they are not on any round sphere
    basis = get_grid(3).basis
    state = PerturbationState(0.01, band_limited(basis, 26, 0.02, 2))
    man = PacketManifold(synthetic_packet(3, seed=3, r_scale=0.3, dr_scale=0.3))
    jets["packet3-perturbed"] = MetricJet(man, man.origin(), 0.2, state)
    return jets


COEFFICIENT_JETS = _coefficient_jets()


@pytest.mark.parametrize("case", sorted(COEFFICIENT_JETS))
def test_laplace_coefficients_match_generic_assembly(case):
    jet = COEFFICIENT_JETS[case]
    basis = get_grid(jet.dim).basis
    if case.startswith("star"):
        assert np.abs(jet._profile.coeffs[basis.degrees == 1]).max() > 0.0
    radii = np.concatenate([[0.0], get_grid(jet.dim).r, [1.0]])
    got = jet.laplace_coefficients(basis.nodes, radii)
    want = generic_flux(jet, basis.nodes, radii)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() < 1e-13
    # arbitrary points, radii=None
    pts = np.random.default_rng(7).uniform(-0.55, 0.55, (40, jet.dim))
    got = jet.laplace_coefficients(pts)
    want = generic_flux(jet, pts)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() < 1e-13


def test_laplacian_euclidean_torsion():
    grid = get_grid(2, 16)
    jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    phi0 = poisson_solve(
        BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    )
    vals = strong_laplacian(jet, phi0)
    assert np.abs(vals + 1.0).max() < 1e-11


def test_laplacian_harmonic_and_constant():
    grid = get_grid(2, 16)
    basis = grid.basis
    man = ConstantCurvature(2, 1.0)
    h = SphereFunction.from_mode(basis, 3, 1, 1.0)
    harm = harmonic_extension(grid, h)
    flat_jet = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    assert np.abs(strong_laplacian(flat_jet, harm)).max() < 1e-9
    const = harmonic_extension(grid, SphereFunction.constant(basis, 2.5))
    for cls in (MetricJet, ExactJet):
        jet = cls(man, man.origin(), 0.15)
        vals = strong_laplacian(jet, const)
        assert np.abs(vals).max() < 1e-9


def test_laplacian_cross_fidelity():
    grid = get_grid(2, 16)
    man = ConstantCurvature(2, 1.0)
    phi0 = poisson_solve(
        BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    )
    gaps = []
    for eps in (0.1, 0.2):
        out = []
        for cls in (MetricJet, ExactJet):
            jet = cls(man, man.origin(), eps)
            out.append(strong_laplacian(jet, phi0))
        gaps.append(np.abs(out[0] - out[1]).max())
    assert gaps[0] < 5e-6
    assert 10.0 < gaps[1] / gaps[0] < 22.0
