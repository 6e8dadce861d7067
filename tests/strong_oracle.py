"""The strong form of the metric Laplacian, the tests' oracle.

The solver takes weak Picard steps on the flux tensor F = sqrt det g g^-1
and never forms a Hessian or the drift of lap_g. This module keeps the
strong operator beside it, assembled pointwise and independently:

* field_jet evaluates a BallField's value, gradient and Hessian on the
  product grid from its own Jacobi tables (q, q', q'') and the node tables
  of the basis, by the chain rule of u = sum_m G(r^2) H_m(x);
* generic_laplace_coefficients builds g^-1, the drift
  b = g^-1 ((1/2) d log det g - w), w_l = g^ik d_i g_kl, and sqrt det g of
  lap_g u = g^ij u_ij + b^j u_j from the pulled-back metric and its
  gradient (MetricJet.metric_and_grad), by dense inverses;
* strong_laplacian meets the two: lap_g u pointwise.

flat_laplacian is the exact flat Laplacian in coefficient space.
"""

import numpy as np
from scipy.special import eval_jacobi

from serrin_torsion.ball_solver import BallField


def flat_laplacian(field):
    """lap(u) as a BallField (exact in coefficient space)."""
    grid = field.grid
    return BallField(grid, grid.by_degree(field.coeffs, grid.lap_op))


def _radial_tables(grid, k):
    """q, q', q'' (s-derivatives) of the degree-k radial basis at the radial
    nodes, each (n_r, M)."""
    b = k + grid.dim / 2.0 - 1.0
    t = 2.0 * grid.r**2 - 1.0
    out = np.zeros((3, grid.n_r, grid.n_radial))
    for j in range(grid.n_radial):
        for d in range(min(j, 2) + 1):
            # d^d/ds^d P_j^(0,b)(2s - 1) = (j+b+1)_d P_{j-d}^(d, b+d)
            rising = np.prod([j + b + 1.0 + i for i in range(d)])
            out[d, :, j] = rising * eval_jacobi(j - d, float(d), b + d, t)
    return out


def field_jet(field):
    """Value (P,), gradient (P, N) and Hessian (P, N, N) of a field on the
    product grid, radius-major like grid.points. With u = sum_m G(r^2) H_m,
        grad u = 2 G'H x + G grad H,
        Hess u = 4 G''H x x^T + 2 G'H I + 2 (x G' grad H^T
                 + G' grad H x^T) + G Hess H."""
    grid, basis = field.grid, field.grid.basis
    N, n_r, n_ang = grid.dim, grid.n_r, grid.n_ang
    # G, G', G'' of every mode at the radial nodes, (3, n_r, n_modes)
    G = np.empty((3, n_r, basis.n_modes))
    for k in range(basis.max_degree + 1):
        s = basis.degree_slice(k)
        G[:, :, s] = _radial_tables(grid, k) @ field.coeffs[s].T
    deg = basis.degrees
    H = [grid.r[:, None] ** np.maximum(deg - j, 0) * (deg >= j)
         for j in range(3)]  # r^k, r^(k-1), r^(k-2)
    Y = basis.Y
    dY = basis.node_grads()  # (n_modes, N, n_ang)
    i, j = np.triu_indices(N)
    d2Y = np.empty((basis.n_modes, N, N, n_ang))
    d2Y[:, i, j] = d2Y[:, j, i] = basis.node_hessians()
    val = (G[0] * H[0]) @ Y
    G1H = (G[1] * H[0]) @ Y
    G2H = (G[2] * H[0]) @ Y
    G0dH = np.einsum("rm,mcn->rnc", G[0] * H[1], dY)
    G1dH = np.einsum("rm,mcn->rnc", G[1] * H[1], dY)
    G0d2H = np.einsum("rm,mabn->rnab", G[0] * H[2], d2Y)
    x = grid.points.reshape(n_r, n_ang, N)
    grad = 2.0 * G1H[..., None] * x + G0dH
    xx = x[..., :, None] * x[..., None, :]
    xg = x[..., :, None] * G1dH[..., None, :]
    hess = (4.0 * G2H[..., None, None] * xx
            + 2.0 * G1H[..., None, None] * np.eye(N)
            + 2.0 * (xg + np.swapaxes(xg, -1, -2)) + G0d2H)
    P = n_r * n_ang
    return val.reshape(P), grad.reshape(P, N), hess.reshape(P, N, N)


def generic_laplace_coefficients(jet, pts, radii=None):
    """(g^-1 (P, N, N), b (P, N), sqrt det g (P,)) of lap_g at unit-ball
    points, from metric_and_grad by dense inverses."""
    g, dg = jet.metric_and_grad(pts, radii)
    ginv = np.linalg.inv(g)
    w = np.einsum("pik,pikl->pl", ginv, dg)
    dlog = np.einsum("pab,pcab->pc", ginv, dg)
    drift = np.einsum("pij,pj->pi", ginv, 0.5 * dlog - w)
    return ginv, drift, np.sqrt(np.linalg.det(g))


def strong_laplacian(jet, field):
    """lap_g field pointwise on the product grid, (n_r, n_ang)."""
    grid = field.grid
    ginv, drift, _ = generic_laplace_coefficients(
        jet, grid.basis.nodes, grid.r
    )
    _, grad, hess = field_jet(field)
    lap = (np.einsum("pij,pij->p", ginv, hess)
           + np.einsum("pj,pj->p", drift, grad))
    return lap.reshape(grid.n_r, grid.n_ang)
