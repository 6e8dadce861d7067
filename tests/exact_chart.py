"""Reference normal-coordinate charts, the tests' oracles.

The solver's one chart is the cubic model of curvature.cubic_chart (and
its gradient, cubic_chart_gradient), built from direction tables.
truncated_chart evaluates the same model pointwise, by products with the
point tensors, as the oracle of those tables. On a space of constant
sectional curvature k the normal-coordinate metric also has a closed form,

    g_ab(y) = d_ab + k G(k|y|^2) (|y|^2 d_ab - y_a y_b),

which ExactJet puts in its place, so tests can measure the cubic model
against the geometry it truncates. k = 0 is flat space, where the chart is
the identity. The radial quantities of a geodesic ball on the unit round
sphere (area, volume, torsion) follow from one quadrature in the radius.
"""

import numpy as np

from serrin_torsion.curvature import MetricJet
from serrin_torsion.sphere_spectral import ball_volume


def truncated_chart(packet, Y):
    """Cubic normal-coordinate metric model built from a curvature packet.

    Y has shape (P, N) in true (unscaled) normal coordinates. Returns
    (g (P,N,N), dg (P,N,N,N)) with dg[p,c,a,b] = d_c g_ab. Every term is a
    matrix product of the point tensors Y, Y(x)Y (P, N^2) and Y(x)Y(x)Y
    (P, N^3) with the curvature tensors reshaped to match.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    P, N = Y.shape
    R = packet.riemann
    nR = packet.nabla_riemann
    YY = (Y[:, :, None] * Y[:, None, :]).reshape(P, N**2)
    YYY = (YY[:, :, None] * Y[:, None, :]).reshape(P, N**3)
    # g_ab = d_ab + R[a,k,b,l] y^k y^l / 3 + nR[a,k,b,l,m] y^k y^l y^m / 6
    g = YYY @ (nR.transpose(1, 3, 4, 0, 2).reshape(N**3, N**2) / 6.0)
    del YYY  # freed before the (P, N^3) derivative product: peak memory
    g += YY @ (R.transpose(1, 3, 0, 2).reshape(N**2, N**2) / 3.0)
    g = np.eye(N) + g.reshape(P, N, N)
    # d_c g_ab: R[a,c,b,l] y^l + R[a,k,b,c] y^k, and nR with c in each of
    # its three y slots; one product of [y, y(x)y] with both tensors
    dR = R.transpose(3, 1, 0, 2) + R.transpose(1, 3, 0, 2)
    dnR = (nR.transpose(3, 4, 1, 0, 2) + nR.transpose(1, 4, 3, 0, 2)
           + nR.transpose(1, 3, 4, 0, 2))
    dg = np.hstack([Y, YY]) @ np.vstack(
        [dR.reshape(N, N**3) / 3.0, dnR.reshape(N**2, N**3) / 6.0]
    )
    dg = dg.reshape(P, N, N, N)
    return g, dg


def _radial_profile(w):
    """G(w) with g_ab(y) = d_ab + k G(k|y|^2) (|y|^2 d_ab - y_a y_b) for the
    space of constant sectional curvature k, where w = k |y|^2.

    G(w) = (sin^2(sqrt w)/w - 1)/w for w > 0, the analytic continuation
    (sinh for w < 0), with the Taylor series used near zero. Returns
    (G, G') elementwise.
    """
    w = np.asarray(w, dtype=float)
    G = np.empty_like(w)
    Gp = np.empty_like(w)
    # the closed form cancels catastrophically near w = 0; below the switch
    # the tail of the series is under 1e-16 while the closed form is clean
    # above it
    small = np.abs(w) < 0.25
    ws = w[small]
    series = [
        -1.0 / 3.0,
        2.0 / 45.0,
        -1.0 / 315.0,
        2.0 / 14175.0,
        -2.0 / 467775.0,
        4.0 / 42567525.0,
        -1.0 / 638512875.0,
        2.0 / 97692469875.0,
    ]
    G[small] = sum(a * ws**j for j, a in enumerate(series))
    Gp[small] = sum(j * a * ws ** (j - 1) for j, a in enumerate(series) if j > 0)
    wl = w[~small]
    s = np.sqrt(np.abs(wl))
    ss = np.where(wl > 0, np.sin(s), np.sinh(s))
    cc = np.where(wl > 0, np.cos(s), np.cosh(s))
    # sin^2(sqrt w) with sign folded: sin^2 -> -sinh^2 for w < 0
    sq = np.where(wl > 0, ss**2, -(ss**2))
    F = sq / wl - 1.0
    # F'(w) = (s * sin(2s)/2 - sin^2) / w^2, hyperbolic analogue for w < 0
    num = np.where(wl > 0, s * ss * cc - ss**2, -(s * ss * cc) + ss**2)
    Fp = num / wl**2
    G[~small] = F / wl
    Gp[~small] = (Fp * wl - F) / wl**2
    return G, Gp


def constant_curvature_chart(k, Y):
    """Exact normal-coordinate metric and gradient for constant curvature k.

    Y has shape (n, N) in true (unscaled) normal coordinates. Returns
    (g (n,N,N), dg (n,N,N,N)) with dg[p,c,a,b] = d_c g_ab.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, N = Y.shape
    u = np.einsum("pa,pa->p", Y, Y)
    w = k * u
    G, Gp = _radial_profile(w)
    d = np.eye(N)
    M = u[:, None, None] * d[None] - Y[:, :, None] * Y[:, None, :]
    g = d[None] + k * G[:, None, None] * M
    # dM[p,c,a,b] = 2 y_c d_ab - d_ca y_b - d_cb y_a
    dM = (
        2.0 * Y[:, :, None, None] * d[None, None]
        - np.einsum("ca,pb->pcab", d, Y)
        - np.einsum("cb,pa->pcab", d, Y)
    )
    dg = k * (
        2.0 * k * Gp[:, None, None, None] * Y[:, :, None, None] * M[:, None]
        + G[:, None, None, None] * dM
    )
    return g, dg


class ExactJet(MetricJet):
    """MetricJet on the closed-form chart of a space form.

    The sectional curvature is read off the packet, S = k N (N - 1), so
    the same class serves ConstantCurvature and FlatSpace. The chart and
    its gradient are evaluated at the points s theta and packed like
    cubic_chart and cubic_chart_gradient.
    """

    def _exact(self, dirs, s):
        n, N = dirs.shape
        s = np.broadcast_to(s, np.broadcast_shapes(np.shape(s), (1, n)))
        Y = (s[:, :, None] * dirs[None]).reshape(-1, N)
        g, dg = constant_curvature_chart(self.packet.scalar / (N * (N - 1)), Y)
        a, b = np.triu_indices(N)
        return (g[:, a, b].T.reshape((len(a),) + s.shape),
                dg[:, :, a, b].transpose(1, 2, 0).reshape((N, len(a)) + s.shape))

    def _chart(self, dirs, s):
        return self._exact(dirs, s)[0]

    def _chart_gradient(self, dirs, s):
        return self._exact(dirs, s)[1]


# -- geodesic balls of the unit round sphere, by radial quadrature -------------

# Gauss-Legendre nodes of the radial integrals; the integrands are analytic
# on [0, 0.3], where 24 nodes reach roundoff.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def _integrate(f, r):
    """int_0^r f for each entry of the array r."""
    r = np.asarray(r, dtype=float)[..., None]
    s = 0.5 * r * (_NODES + 1.0)
    return (0.5 * r * _WEIGHTS * f(s)).sum(axis=-1)


def geodesic_sphere_area(N, r):
    """A(r) = |S^(N-1)| sin(r)^(N-1), the area of the geodesic sphere."""
    return N * ball_volume(N) * np.sin(r) ** (N - 1)


def geodesic_ball_volume(N, r):
    """V(r) = int_0^r A, the volume of the geodesic ball."""
    return _integrate(lambda s: geodesic_sphere_area(N, s), r)


def geodesic_ball_torsion(N, r):
    """T(r) = int_0^r V^2 / A: the torsion function of the geodesic ball is
    radial with u' = -V / A, and integrating u A by parts gives T."""
    return _integrate(
        lambda s: geodesic_ball_volume(N, s) ** 2 / geodesic_sphere_area(N, s), r
    )
