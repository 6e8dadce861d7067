"""Isochoric torsion comparison: geodesic balls against Euclidean balls.

For a prescribed small volume v, the geodesic ball around a point of
maximal scalar curvature is the natural candidate minimizer of the torsion
energy. This module computes its energy at matched volume, compares it
with the Euclidean profile, and fits the leading curvature correction of
the ratio.
"""

import numpy as np
from dataclasses import dataclass
from scipy.optimize import brentq

from .ball_solver import EnvelopeError, dirichlet_solve_full, get_grid
from .curvature import MetricJet, _packed_cofactors, cubic_chart
from .sphere_spectral import ball_volume

__all__ = [
    "ProfilePoint",
    "J_geodesic_ball",
    "ball_volume_at",
    "euclidean_profile",
    "matched_radius",
    "profile_coefficient",
    "profile_expansion",
]


def euclidean_profile(volume, N):
    """Torsion energy of the Euclidean ball of the given volume.

    Scaling of the energy under dilation forces
    T(v) = J(B_1) (v / |B_1|)^(-(N+2)/N); it grows without bound as the
    volume shrinks, consistent with J(B_eps) eps^(N+2) -> J(B_1).
    """
    b1 = ball_volume(N)
    J1 = N * (N + 2.0) / b1
    return J1 * (np.asarray(volume, dtype=float) / b1) ** (-(N + 2.0) / N)


def J_geodesic_ball(manifold, p, eps):
    """Torsion energy of the unperturbed geodesic ball of radius eps.

    The pull-back to the unit ball uses the plain ball jet (no boundary
    perturbation), whose metric is smooth, so the solve keeps spectral
    accuracy on the default grid; the unit-ball energy is rescaled back to
    the ambient ball.
    """
    N = manifold.dim
    grid = get_grid(N)
    jet = MetricJet(manifold, np.asarray(p, dtype=float), eps)
    _, info = dirichlet_solve_full(jet, grid)
    return 1.0 / info["torsion"] / eps ** (N + 2)


def ball_volume_at(manifold, p, eps):
    """Riemannian volume of the geodesic ball of radius eps around p.

    The unperturbed ball's domain map is the identity (rho = 1), so its
    volume element on B_1 is sqrt det gbar of the cubic chart alone at
    s = eps r along the grid directions, bit for bit the one a solve's
    context reads off the plain MetricJet. Raises EnvelopeError where the
    chart is not positive definite.
    """
    N = manifold.dim
    grid = get_grid(N)
    packet = manifold.packet(np.asarray(p, dtype=float))
    gbar = cubic_chart(packet, grid.basis.nodes, eps * grid.r[:, None])
    _, det = _packed_cofactors(gbar)
    if not np.all(det > 0):
        raise EnvelopeError("pulled-back metric lost positivity")
    return grid.volume_integral(np.sqrt(det)) * eps**N


# matched_radius: relative tolerance of the root solve in eps.
MATCH_RTOL = 1e-12


def matched_radius(manifold, p, volume):
    """Radius eps with |B_eps(p)| = volume, by bracketing root solve."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    N = manifold.dim
    eps0 = (volume / ball_volume(N)) ** (1.0 / N)

    def gap(eps):
        return ball_volume_at(manifold, p, eps) - volume

    lo, hi = 0.7 * eps0, 1.3 * eps0
    glo, ghi = gap(lo), gap(hi)
    if glo * ghi > 0:
        raise ValueError(
            "volume %.3g not bracketed near eps = %.3g" % (volume, eps0)
        )
    eps = brentq(gap, lo, hi, xtol=1e-15, rtol=MATCH_RTOL)
    if abs(gap(eps)) / volume > 1e-10:
        raise ValueError("volume matching stalled at %.3g" % (gap(eps) / volume))
    return eps


@dataclass
class ProfilePoint:
    """One volume sample of the isochoric comparison."""

    volume: float
    J_ball: float
    T_euclidean: float
    ratio: float
    eps_used: float

    def to_record(self):
        return {
            "volume": self.volume,
            "J_ball": self.J_ball,
            "T_euclidean": self.T_euclidean,
            "ratio": self.ratio,
            "eps_used": self.eps_used,
        }


def profile_expansion(manifold, volume_grid, p=None):
    """Candidate isochoric profile along a volume grid.

    Evaluates the geodesic-ball torsion energy at the scalar-curvature
    maximum (or a supplied point) with the radius root-solved so the ball
    volume matches each grid value, and tabulates the ratio against the
    Euclidean profile. The fitted v^(2/N) coefficient of the ratio is the
    curvature response of the profile.
    """
    N = manifold.dim
    if p is None:
        if hasattr(manifold, "scalar_max_point"):
            p = manifold.scalar_max_point()
        else:
            p = manifold.origin()
    p = np.asarray(p, dtype=float)
    points = []
    for v in np.asarray(volume_grid, dtype=float):
        eps = matched_radius(manifold, p, float(v))
        Jb = J_geodesic_ball(manifold, p, eps)
        Te = float(euclidean_profile(v, N))
        points.append(
            ProfilePoint(
                volume=float(v),
                J_ball=Jb,
                T_euclidean=Te,
                ratio=Jb / Te,
                eps_used=eps,
            )
        )
    return points


def profile_coefficient(points, N):
    """Fitted coefficient of v^(2/N) in ratio - 1 over a profile table."""
    v = np.array([pt.volume for pt in points])
    r = np.array([pt.ratio for pt in points])
    A = np.stack([v ** (2.0 / N), v ** (4.0 / N)], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, r - 1.0, rcond=None)
    return float(coeffs[0])
