"""Poisson and variable-coefficient Dirichlet solves on the closed unit ball.

Fields on the ball are stored mode-by-mode over the spherical-harmonic basis:
the radial part of the degree-k mode is r^k * q(r^2) with q expanded in the
shifted Jacobi polynomials P_j^{(0, k+N/2-1)}(2r^2-1). That ansatz bakes the
r^k origin regularity into the representation, makes the mode-wise Laplacian
a lower-triangular-plus-boundary-row matrix in coefficient space, and is
exact on polynomials, so the closed-form polynomial oracle
    lap(r^a Y_k) = (a(a+N-2) - k(k+N-2)) r^{a-2} Y_k
is reproduced at machine precision. Every radial operator is block-diagonal
by degree (Vasil et al., J. Comput. Phys. X 3, 2019), and BallGrid.by_degree
is the one per-degree product: projection, the stacked radial profiles,
the flat Laplacian and Poisson solve and the boundary derivative use it.

The variable-coefficient solve (metric Laplacians of pulled-back geodesic-ball
metrics) runs a frozen-Laplacian Picard iteration: each step solves the flat
Poisson problem with the metric correction moved to the right-hand side. The
metric enters only through the jet's laplace_coefficients on the quadrature
grid (inverse metric, drift and volume element of lap_g, component-major:
one (n_r, n_ang) block per component, the symmetric g^-1 packed to its upper
triangle in the order of SphereBasis.node_hessians()), and the boundary
metric of neumann_trace through its metric_and_grad, so this module does
not care where the metric comes from.

The correction (lap_g - lap) u is applied Hessian-free, by sum
factorization (Orszag, J. Comput. Phys. 37, 1980): with every mode written
G(r^2) H(x), the metric is contracted into the chain-rule factors of
grad u and Hess u once per metric, when its LaplaceContext is built, and
each application meets them with the mode sums of G'H, G''H, G grad H,
G' grad H and the packed G Hess H, three matrix products over the modes
(BallField.derivatives). No pointwise gradient or Hessian is ever
assembled, and no (P, N, N) array: the weights are formed from the packed
component blocks of the jet. A context serves solves only: the volume of
an unperturbed ball needs none, and profile reads it off the chart.

The curvature source problem has one assembly: psi_source_values gives the
cubic-model source -lap(psi_eps), and solve_psi_eps its flat solve with
zero boundary data.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_jacobi

from .sphere_spectral import (
    SphereFunction,
    get_basis,
    packed_index,
    product_points,
)

__all__ = [
    "BallGrid",
    "BallField",
    "get_grid",
    "poisson_solve",
    "harmonic_extension",
    "solve_psi_eps",
    "psi_source_values",
    "dirichlet_solve_full",
    "neumann_trace",
    "LaplaceContext",
    "EnvelopeError",
    "ResolutionError",
]


class EnvelopeError(RuntimeError):
    """Solve left its contraction/positivity operating envelope."""


class ResolutionError(RuntimeError):
    """Data not resolved by the configured spectral truncation."""


# Largest last radial coefficient, relative to the largest coefficient, of a
# source that the radial truncation counts as resolved.
SOURCE_TAIL_TOL = 1e-9

# Picard iteration of dirichlet_solve_full: stop once the max-norm step on
# the product grid falls below PICARD_TOL; fail after PICARD_MAX_ITER steps.
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 100


class BallGrid:
    """Product quadrature grid and per-mode radial solver data.

    Parameters
    ----------
    basis : SphereBasis for the angular factor.
    n_radial : number M of radial coefficients carried per mode.

    The radial Gauss-Legendre rule has n_r = 2 M + max_degree + 8 nodes,
    exact for every polynomial integrand the solver produces.
    """

    def __init__(self, basis, n_radial):
        self.basis = basis
        self.dim = basis.dim
        self.n_radial = n_radial
        L = basis.max_degree
        n_r = 2 * n_radial + L + 8
        x, w = np.polynomial.legendre.leggauss(n_r)
        self.r = 0.5 * (x + 1.0)
        wr = 0.5 * w
        self.n_r = n_r
        s = self.r**2

        N = self.dim
        M = n_radial
        js = np.arange(M)
        # per degree, the radial basis and its first two s-derivatives at
        # the radial nodes, stacked as (3 n_r, M)
        self.radial_basis = []
        # projection weights: coefficients of a sampled radial profile
        self.proj = []
        # mode-wise Laplacian operators, and the inverses of the mode-wise
        # Poisson systems (the first M - 1 Laplacian rows, then the boundary
        # row); with explicit inverses the modes of a degree are one small
        # matrix product, which BLAS keeps on one thread, where a
        # multi-column LU solve starts every BLAS thread on an M x M system
        self.lap_op = []
        self.solve_op = []
        self.bc_deriv = []
        t = 2.0 * s - 1.0
        for k in range(L + 1):
            b = k + N / 2.0 - 1.0
            Q = np.stack([eval_jacobi(j, 0.0, b, t) for j in js], axis=1)
            # dq/ds = 2 * d/dt P_j = (j + b + 1) * P_{j-1}^{(1, b+1)}
            Qs = np.zeros_like(Q)
            Qss = np.zeros_like(Q)
            for j in range(1, M):
                Qs[:, j] = (j + b + 1.0) * eval_jacobi(j - 1, 1.0, b + 1.0, t)
            for j in range(2, M):
                Qss[:, j] = (
                    (j + b + 1.0)
                    * (j + b + 2.0)
                    * eval_jacobi(j - 2, 2.0, b + 2.0, t)
                )
            self.radial_basis.append(np.vstack([Q, Qs, Qss]))
            # int_0^1 q_i q_j s^b ds = delta_ij / (2j + b + 1); in r-form the
            # weight is 2 r^{2k+N-1}. Sampled profiles come as u(r) = r^k F(s),
            # so fold one r^k into the projection weight.
            norm = 2.0 * js + b + 1.0
            base = 2.0 * wr * self.r ** (k + N - 1)
            self.proj.append(norm[:, None] * (Q.T * base[None, :]))
            # mode Laplacian in coefficient space: 4 s q'' + (4k + 2N) q'
            A = 4.0 * s[:, None] * Qss + (4.0 * k + 2.0 * N) * Qs
            wk = (2.0 * wr * self.r ** (2 * k + N - 1))[None, :]
            op = norm[:, None] * ((Q.T * wk) @ A)
            self.lap_op.append(op)
            sysmat = np.vstack([op[: M - 1, :], np.ones((1, M))])
            self.solve_op.append(np.linalg.inv(sysmat))
            self.bc_deriv.append(k + 2.0 * js * (js + b + 1.0))

        # (3, n_r, n_modes): r^(k-j), j = 0, 1, 2, for each mode's degree k;
        # zero where j > k, since derivatives of order above k vanish
        deg = basis.degrees
        self.mode_powers = np.stack([np.where(
            deg >= j, self.r[:, None] ** np.maximum(deg - j, 0), 0.0
        ) for j in range(3)])

        # product-grid caches
        self.w_vol = wr * self.r ** (N - 1)
        self.points = product_points(basis.nodes, self.r)
        self.n_ang = basis.nodes.shape[0]

    def by_degree(self, rows, ops):
        """rows with the block s of the modes of degree k replaced by
        rows[s] @ ops[k].T: every mode of a degree shares its operator."""
        out = np.empty((len(rows),) + ops[0].shape[:-1])
        for k in range(self.basis.max_degree + 1):
            s = self.basis.degree_slice(k)
            out[s] = rows[s] @ ops[k].T
        return out

    def volume_integral(self, values):
        """Integral over B_1 of pointwise values (n_r, n_ang) dx."""
        return float(self.w_vol @ values @ self.basis.weights)


def get_grid(N, max_degree=None, n_radial=None):
    """The shared BallGrid of dimension N, one per resolution.

    The defaults are max_degree 16 and n_radial 28 for N = 2, and 10 and 20
    otherwise; they are resolved before the cached build, so every way of
    asking for a resolution returns the same grid.
    """
    if max_degree is None:
        max_degree = 16 if N == 2 else 10
    if n_radial is None:
        n_radial = 28 if N == 2 else 20
    return _build_grid(N, max_degree, n_radial)


@lru_cache(maxsize=8)
def _build_grid(N, max_degree, n_radial):
    return BallGrid(get_basis(N, max_degree), n_radial)


@dataclass
class BallField:
    """Function on the closed unit ball, per-mode radial Jacobi coefficients."""

    grid: BallGrid
    coeffs: np.ndarray  # (n_modes, M)

    def __post_init__(self):
        expected = (self.grid.basis.n_modes, self.grid.n_radial)
        if self.coeffs.shape != expected:
            raise ValueError("coefficient array has shape %s, want %s"
                             % (self.coeffs.shape, expected))

    @classmethod
    def from_values(cls, grid, values):
        """Project pointwise values (n_r, n_ang) into the spectral basis."""
        basis = grid.basis
        ang = basis.Y @ (basis.weights[None, :] * values).T  # (n_modes, n_r)
        return cls(grid, grid.by_degree(ang, grid.proj))

    # -- pointwise evaluation ---------------------------------------------

    def _profiles(self, order):
        """G, G', ... through the order-th s-derivative of every mode's
        radial profile at the radial nodes, (order + 1, n_r, n_modes)."""
        grid = self.grid
        n = (order + 1) * grid.n_r
        G = grid.by_degree(self.coeffs, [T[:n] for T in grid.radial_basis])
        return G.T.reshape(order + 1, grid.n_r, -1)

    def values(self):
        """Values on the product grid, (n_r, n_ang)."""
        G = self._profiles(0)[0]
        return (G * self.grid.mode_powers[0]) @ self.grid.basis.Y

    def derivatives(self):
        """Spectral chain-rule products of the field on the product grid.

        Mode m of degree k is G(r^2) H_m(x) with H_m = r^k Y_m, so
            grad u = sum_m 2 G' H x + G grad H,
            Hess u = sum_m 4 G'' H x x^T + 2 G' (H I + x grad H^T
                     + grad H x^T) + G Hess H.
        Returns the mode sums these need, from three matrix products of G,
        G', G'' (times r^k, r^(k-1), r^(k-2) from grid.mode_powers) with
        the node tables of the basis:
            (G'H, G''H)             as (2, n_r, n_ang),
            (G grad H, G' grad H)   as (2, n_r, N, n_ang),
            G Hess H                as (n_r, N(N+1)/2, n_ang), its upper
                                    triangle packed like basis.node_hessians().
        The chain-rule factors of x = r theta are left to the caller.
        """
        grid, basis = self.grid, self.grid.basis
        n_r, n_ang, n_modes = grid.n_r, grid.n_ang, basis.n_modes
        G = self._profiles(2)
        R0, R1, R2 = grid.mode_powers
        dH = basis.node_grads().reshape(n_modes, -1)
        d2H = basis.node_hessians()
        radial = (G[1:] * R0).reshape(2 * n_r, n_modes) @ basis.Y
        grad = (G[:2] * R1).reshape(2 * n_r, n_modes) @ dH
        hess = (G[0] * R2) @ d2H.reshape(n_modes, -1)
        return (radial.reshape(2, n_r, n_ang),
                grad.reshape(2, n_r, grid.dim, n_ang),
                hess.reshape(n_r, d2H.shape[1], n_ang))

    # -- boundary data -----------------------------------------------------

    def normal_derivative(self):
        """Euclidean radial derivative on the boundary as a SphereFunction."""
        grid = self.grid
        return SphereFunction(
            grid.basis, grid.by_degree(self.coeffs, grid.bc_deriv)
        )

    # -- norms ---------------------------------------------------------------

    def tail_fraction(self):
        """Relative size of the last radial coefficient per mode (resolution)."""
        scale = np.abs(self.coeffs).max()
        if scale == 0.0:
            return 0.0
        return float(np.abs(self.coeffs[:, -1]).max() / scale)


# -- flat solves -------------------------------------------------------------


def poisson_solve(src):
    """Solve lap(psi) = src in B_1 with psi = 0 on the boundary.

    src is a BallField. Boundary data h enters by superposition: psi +
    harmonic_extension(grid, h) has the same Laplacian and boundary values h.
    One radial solve per degree, all modes of the degree at once; raises
    ResolutionError when the source is not finite or its last radial
    coefficient exceeds SOURCE_TAIL_TOL times its largest one.
    """
    grid = src.grid
    if not np.isfinite(src.coeffs).all():
        raise ResolutionError("source is not finite")
    if src.tail_fraction() > SOURCE_TAIL_TOL:
        raise ResolutionError(
            "source has unresolved radial tail; raise n_radial"
        )
    # each mode's system: its first M - 1 source coefficients, then its
    # zero boundary value
    rhs = src.coeffs.copy()
    rhs[:, -1] = 0.0
    return BallField(grid, grid.by_degree(rhs, grid.solve_op))


def harmonic_extension(grid, h):
    """Harmonic extension of boundary data h, a SphereFunction: its degree-k
    mode extends as r^k. Raises ValueError on non-finite boundary data."""
    if not np.isfinite(h.coeffs).all():
        raise ValueError("boundary data is not finite")
    coeffs = np.zeros((grid.basis.n_modes, grid.n_radial))
    coeffs[:, 0] = h.coeffs
    return BallField(grid, coeffs)


# -- curvature source problem ------------------------------------------------


def psi_source_values(packet, eps, grid):
    """Pointwise values of -lap(psi_eps) on the product grid.

    The quadratic part is (eps^2/3N) Ric(x,x). The cubic part has two
    traces of the curvature derivative, both differentiated along the
    position vector; against three copies of x it reduces to
    (5 eps^3/12N) <grad Ric(x,x), x>.
    """
    N = grid.dim
    x = grid.points
    ric = np.einsum("kl,pk,pl->p", packet.ricci, x, x)
    quad = (eps**2 / (3.0 * N)) * ric
    nr = packet.nabla_riemann
    term1 = np.einsum("ijilm,pj,pl,pm->p", nr, x, x, x, optimize=True)
    term2 = np.einsum("ijkim,pj,pk,pm->p", nr, x, x, x, optimize=True)
    cubic = -0.25 * term1 + (term2 / 6.0)
    vals = quad + (eps**3 / N) * cubic
    return vals.reshape(grid.n_r, grid.n_ang)


def solve_psi_eps(packet, eps, grid):
    """Solve the curvature source problem -lap(psi_eps) = psi_source_values
    with zero boundary data; returns the field."""
    return poisson_solve(
        BallField.from_values(grid, -psi_source_values(packet, eps, grid))
    )


def flat_laplacian(field):
    """lap(u) as a BallField (exact in coefficient space)."""
    grid = field.grid
    return BallField(grid, grid.by_degree(field.coeffs, grid.lap_op))


# -- metric Laplacian --------------------------------------------------------


class LaplaceContext:
    """Frozen pointwise metric data for repeated Laplacian applications.

    Takes, once per metric, the inverse metric g^{ij}, the first-order drift
    b^j = d_i g^{ij} + (1/2) g^{ij} d_i log det g of
    lap_g u = g^{ij} u_ij + b^j u_j, and the volume element sqrt det g,
    kept as (n_r, n_ang). All three come from jet.laplace_coefficients on
    the product grid as component-major (n_r, n_ang) blocks, g^-1 packed to
    its upper triangle. A volume element that is not positive (NaN where
    the metric is not positive definite) is an EnvelopeError.

    With A = g^-1 - I and every mode written G(r^2) H(x), the correction is
        (lap_g - lap) u = 2 (tr A + b.x) G'H + 4 x.A.x G''H + b.G grad H
                          + 4 A x.G' grad H + A : G Hess H,
    summed over the modes. The weights of those five products are formed
    from the component blocks straight away, with no (P, N, N) array, and
    replace g^-1 and b; each contraction meets them with the products of
    BallField.derivatives, without a pointwise Hessian.
    """

    def __init__(self, jet, grid):
        self.grid = grid
        ginv, drift, sqrt_det = jet.laplace_coefficients(
            grid.basis.nodes, grid.r
        )
        if not np.all(sqrt_det > 0.0):
            raise EnvelopeError("pulled-back metric lost positivity")
        self.sqrt_det = sqrt_det.reshape(grid.n_r, grid.n_ang)
        self._weights = self._contraction_weights(ginv, drift)

    def _contraction_weights(self, ginv, b):
        """Pointwise weights of the products of BallField.derivatives, in
        their layouts: (2, n_r, n_ang), (2, n_r, N, n_ang) and
        (n_r, N(N+1)/2, n_ang), from the packed g^-1 and the drift."""
        grid = self.grid
        N, n_r, n_ang = grid.dim, grid.n_r, grid.n_ang
        ginv = ginv.reshape(-1, n_r, n_ang)
        b = b.reshape(N, n_r, n_ang)
        x = grid.r[:, None] * grid.basis.nodes.T[:, None, :]
        packed = packed_index(N)
        radial = np.zeros((2, n_r, n_ang))
        grad = np.empty((2, n_r, N, n_ang))
        hess = np.empty((n_r, len(ginv), n_ang))

        def A(i, j):
            # g^-1 - I entrywise, the identity taken off before any product
            # so that a metric near the identity keeps its relative accuracy
            g = ginv[packed[i, j]]
            return g - 1.0 if i == j else g

        # A : Hess counts each off-diagonal entry of the packed triangle twice
        for q, (i, j) in enumerate(zip(*np.triu_indices(N))):
            hess[:, q] = A(i, j) if i == j else 2.0 * A(i, j)
        for i in range(N):
            Ax = sum(A(i, j) * x[j] for j in range(N))
            grad[0, :, i] = b[i]
            grad[1, :, i] = 4.0 * Ax
            radial[0] += 2.0 * (A(i, i) + b[i] * x[i])
            radial[1] += 4.0 * x[i] * Ax
        return radial, grad, hess

    def correction_values(self, field):
        """(lap_g - lap) field, pointwise (n_r, n_ang)."""
        w_radial, w_grad, w_hess = self._weights
        radial, grad, hess = field.derivatives()
        radial *= w_radial
        grad *= w_grad
        hess *= w_hess
        return radial.sum(axis=0) + grad.sum(axis=(0, 2)) + hess.sum(axis=1)

    def apply_values(self, field):
        """lap_g field as pointwise values (n_r, n_ang)."""
        return self.correction_values(field) + flat_laplacian(field).values()


def dirichlet_solve_full(jet, grid, warm_start=None):
    """Solve -lap_g(phi) = 1 in B_1, phi = 0 on the boundary.

    Frozen-Laplacian Picard iteration: phi <- poisson_solve(-1 - (lap_g -
    lap) phi). Returns (phi, info) with the iteration history, the final
    pointwise residual of lap_g phi + 1, the relative radial tail of the
    final Picard source, the torsion integral of phi and the volume, both
    against sqrt det g (unit-ball scale). Raises EnvelopeError on
    non-convergence or loss of interior positivity, and ResolutionError
    from poisson_solve when a Picard source is not finite or not resolved
    radially.
    warm_start seeds the iteration with a previous potential (same grid)
    to save steps.

    The pulled-back metric of a MetricJet is smooth on the closed ball, so
    every Picard source is spectrally resolved and poisson_solve checks
    each one with its strict tail bound.
    """
    ctx = LaplaceContext(jet, grid)
    ones = np.ones((grid.n_r, grid.n_ang))
    phi = warm_start if warm_start is not None else poisson_solve(
        BallField.from_values(grid, -ones)
    )
    vals = phi.values()
    history = []
    for it in range(PICARD_MAX_ITER):
        corr = ctx.correction_values(phi)
        src = BallField.from_values(grid, -ones - corr)
        phi = poisson_solve(src)
        prev, vals = vals, phi.values()
        step = float(np.abs(vals - prev).max())
        history.append(step)
        if step < PICARD_TOL:
            break
    else:
        raise EnvelopeError(
            "Picard iteration did not reach %g in %d steps (last %g)"
            % (PICARD_TOL, PICARD_MAX_ITER, history[-1])
        )
    if vals.min() <= 0.0:
        raise EnvelopeError("torsion potential lost interior positivity")
    residual = float(np.abs(ctx.apply_values(phi) + 1.0).max())
    info = {
        "iterations": len(history),
        "history": history,
        "residual": residual,
        "source_tail": src.tail_fraction(),
        "torsion": grid.volume_integral(vals * ctx.sqrt_det),
        "volume": grid.volume_integral(ctx.sqrt_det),
    }
    return phi, info


def neumann_trace(jet, phi):
    """Boundary trace g(grad phi, outward unit normal) for Dirichlet-zero phi.

    Equals -|grad phi|_g on the boundary; computed as the Euclidean radial
    derivative times sqrt(g^rr) at r = 1, g^rr = g^{ij} theta_i theta_j.
    Returns (trace, area): the same boundary metric gives the area of the
    unit sphere under g, the integral of sqrt(g^rr det g) against the round
    measure (unit-ball scale).
    """
    basis = phi.grid.basis
    nd = phi.normal_derivative()
    nd_vals = nd.node_values()
    # legitimate torsion traces are O(1/N); anything near roundoff scale is
    # a degenerate input, not a small trace
    if np.abs(nd_vals).min() < 1e-8:
        raise EnvelopeError("degenerate boundary gradient in Neumann trace")
    g, _ = jet.metric_and_grad(basis.nodes)
    ginv = np.linalg.inv(g)
    grr = np.einsum("pij,pi,pj->p", ginv, basis.nodes, basis.nodes)
    vals = nd_vals * np.sqrt(grr)
    area = float(basis.weights @ np.sqrt(grr * np.linalg.det(g)))
    return basis.project_values(vals), area
