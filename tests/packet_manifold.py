"""Generic curvature packets and the manifold that is exactly their model.

synthetic_packet draws a seeded random packet from the null spaces of the
algebraic and differential curvature identities, so it is admissible by
construction and, unlike a round sphere's, has nabla R != 0. PacketManifold
is a manifold whose normal-coordinate metric at the origin is exactly the
cubic model of one packet (the chart of curvature.cubic_chart); a solve
centered there needs nothing else of it.
"""

import itertools

import numpy as np

from serrin_torsion.curvature import CurvaturePacket, ModelManifold


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
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
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
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    null = Vt[np.sum(s > 1e-10):]
    return null.reshape(-1, N, N, N, N, N)


def _gaussian_in_span(rng, space):
    """A standard Gaussian tensor in the span of the basis space.

    It is drawn in the full tensor space and projected. The projector is
    the same for every orthonormal basis of the span, while the basis the
    SVD returns moves with LAPACK's blocking and thread count, so
    coefficients drawn against the basis would give another tensor for the
    same seed on another BLAS set-up.
    """
    B = space.reshape(len(space), -1)
    return (B.T @ (B @ rng.standard_normal(B.shape[1]))).reshape(space.shape[1:])


def synthetic_packet(N, seed=0, r_scale=0.6, dr_scale=0.4):
    """A seeded admissible packet with nabla R != 0: R and nabla R are
    standard Gaussians in the spans of their identities, scaled."""
    rng = np.random.default_rng(seed)
    R = _gaussian_in_span(rng, riemann_space(N)) * r_scale
    nR = _gaussian_in_span(rng, nabla_riemann_space(N)) * dr_scale
    return CurvaturePacket(R, nR)


class PacketManifold(ModelManifold):
    """A manifold whose normal-coordinate metric at the origin is exactly the
    cubic model of one packet: a solve needs nothing else of it."""

    def __init__(self, packet):
        self.dim = packet.dim
        self._packet = packet

    def origin(self):
        return np.zeros(self.dim)

    def packet(self, p):
        return self._packet
