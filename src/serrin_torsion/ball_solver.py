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
the flat Poisson and Galerkin solves and the boundary derivative use it.

The metric torsion problem -lap_g u = 1 is in divergence form: times
sqrt det g it reads -div(F grad u) = sqrt det g, with the flux tensor
F = sqrt det g g^-1. The metric enters only through the jet's
laplace_coefficients on the quadrature grid, the packed F and sqrt det g
(component-major: one (n_r, n_ang) block per component, the symmetric F
packed to its upper triangle in np.triu_indices order), and the boundary
metric of neumann_trace through its metric_and_grad, so this module does
not care where the metric comes from.

dirichlet_solve_full runs a Picard iteration on the weak form: each step
solves the flat Galerkin problem
    int grad psi . grad u_{k+1} = int psi sqrt det g
                                  - int grad psi . (F - I) grad u_k
over the test functions psi that vanish on the boundary, per degree with
the exact flat stiffness (spectral Galerkin, Canuto, Hussaini, Quarteroni
& Zang, Spectral Methods, 2006). A step takes the gradient products of
the iterate (BallField.derivatives, two matrix products over the modes),
meets them with F - I pointwise, and applies the transposed products
(LaplaceContext.correction); no iterate Hessian and no drift of lap_g is
formed. A context serves solves only: the volume of an unperturbed ball
needs none, and profile reads it off the chart.

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
        # per degree, the radial basis and its s-derivative at the radial
        # nodes, stacked as (2 n_r, M)
        self.radial_basis = []
        # projection weights: coefficients of a sampled radial profile; and
        # the same weights against the gradient of each mode, which take a
        # flux to its load (see LaplaceContext.correction)
        self.proj = []
        self.grad_proj = []
        # mode-wise Laplacian operators, and the inverses of the mode-wise
        # Poisson systems (the first M - 1 Laplacian rows, then the boundary
        # row); with explicit inverses the modes of a degree are one small
        # matrix product, which BLAS keeps on one thread, where a
        # multi-column LU solve starts every BLAS thread on an M x M system
        self.lap_op = []
        self.solve_op = []
        # the Galerkin solves of -lap u = f, from the projection of f: the
        # test functions (q_j - q_{j+1}) H vanish on the boundary, since
        # every q_j is 1 at r = 1
        self.weak_op = []
        tests = np.eye(M)[:-1] - np.eye(M)[1:]
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
            self.radial_basis.append(np.vstack([Q, Qs]))
            # int_0^1 q_i q_j s^b ds = delta_ij / (2j + b + 1); in r-form the
            # weight is 2 r^{2k+N-1}. Sampled profiles come as u(r) = r^k F(s),
            # so fold one r^k into the projection weight.
            norm = 2.0 * js + b + 1.0
            base = 2.0 * wr * self.r ** (k + N - 1)
            self.proj.append(norm[:, None] * (Q.T * base[None, :]))
            # grad(q H) = 2 q' H x + q grad H, grad H = r^(k-1) (node table):
            # columns against the rows [grad H . V, H 2 x . V] of a flux V
            self.grad_proj.append(np.hstack(
                [self.proj[-1] / self.r, norm[:, None] * (Qs.T * base)]
            ))
            # mode Laplacian in coefficient space: 4 s q'' + (4k + 2N) q';
            # against the weights, stiff[i, j] = 2 int q_i H lap(q_j H) dx
            A = 4.0 * s[:, None] * Qss + (4.0 * k + 2.0 * N) * Qs
            wk = (2.0 * wr * self.r ** (2 * k + N - 1))[None, :]
            stiff = (Q.T * wk) @ A
            op = norm[:, None] * stiff
            self.lap_op.append(op)
            sysmat = np.vstack([op[: M - 1, :], np.ones((1, M))])
            self.solve_op.append(np.linalg.inv(sysmat))
            # for the test functions, int grad psi . grad u = -int psi lap u
            # (the stiffness -stiff / 2), and int psi f is the projection P
            # of f over 2 norm: the test rows read -T stiff c = T (P / norm),
            # and the boundary row of ones stays last
            sysmat = np.vstack([-tests @ stiff, np.ones((1, M))])
            self.weak_op.append(
                np.linalg.inv(sysmat)[:, : M - 1] @ (tests / norm)
            )
            self.bc_deriv.append(k + 2.0 * js * (js + b + 1.0))

        # (2, n_r, n_modes): r^(k-j), j = 0, 1, for each mode's degree k;
        # zero where j > k, since derivatives of order above k vanish
        deg = basis.degrees
        self.mode_powers = np.stack([np.where(
            deg >= j, self.r[:, None] ** np.maximum(deg - j, 0), 0.0
        ) for j in range(2)])

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
        """Spectral gradient products of the field on the product grid.

        Mode m of degree k is G(r^2) H_m(x) with H_m = r^k Y_m, so
            grad u = sum_m 2 G' H x + G grad H.
        Returns the two mode sums, from two matrix products of G' and G
        (times r^k and r^(k-1) from grid.mode_powers) with the node tables
        of the basis: G'H as (n_r, n_ang) and G grad H as (n_r, N, n_ang).
        The factor x = r theta is left to the caller.
        """
        grid, basis = self.grid, self.grid.basis
        G = self._profiles(1)
        R0, R1 = grid.mode_powers
        dH = basis.node_grads().reshape(basis.n_modes, -1)
        radial = (G[1] * R0) @ basis.Y
        grad = (G[0] * R1) @ dH
        return radial, grad.reshape(grid.n_r, grid.dim, grid.n_ang)

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


def _resolved(field, name):
    """field, unless it is not finite or its last radial coefficient exceeds
    SOURCE_TAIL_TOL times its largest one: then a ResolutionError."""
    if not np.isfinite(field.coeffs).all():
        raise ResolutionError("%s is not finite" % name)
    if field.tail_fraction() > SOURCE_TAIL_TOL:
        raise ResolutionError(
            "%s has unresolved radial tail; raise n_radial" % name
        )
    return field


def poisson_solve(src):
    """Solve lap(psi) = src in B_1 with psi = 0 on the boundary.

    src is a BallField. Boundary data h enters by superposition: psi +
    harmonic_extension(grid, h) has the same Laplacian and boundary values h.
    One radial solve per degree, all modes of the degree at once; raises
    ResolutionError when the source is not finite or its last radial
    coefficient exceeds SOURCE_TAIL_TOL times its largest one.
    """
    grid = src.grid
    _resolved(src, "source")
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


# -- metric Laplacian --------------------------------------------------------


class LaplaceContext:
    """Frozen pointwise metric data of the weak Picard step.

    Takes, once per metric, the flux tensor F = sqrt det g g^-1 and the
    volume element sqrt det g from jet.laplace_coefficients on the product
    grid, as component-major (n_r, n_ang) blocks, F packed to its upper
    triangle: N(N+1)/2 + 1 blocks. It keeps sqrt det g as (n_r, n_ang),
    the load of every step and the weight of the torsion and volume
    integrals, and F - I times the angular quadrature weights in the
    blocks of F, the identity taken off before any product so that a
    metric near the identity keeps its relative accuracy. A volume element
    that is not positive (NaN where the metric is not positive definite)
    is an EnvelopeError.
    """

    def __init__(self, jet, grid):
        self.grid = grid
        flux, sqrt_det = jet.laplace_coefficients(grid.basis.nodes, grid.r)
        if not np.all(sqrt_det > 0.0):
            raise EnvelopeError("pulled-back metric lost positivity")
        self.sqrt_det = sqrt_det.reshape(grid.n_r, grid.n_ang)
        flux = flux.reshape(-1, grid.n_r, grid.n_ang)
        a, b = np.triu_indices(grid.dim)
        flux[a == b] -= 1.0
        flux *= grid.basis.weights
        self._flux = flux

    def correction(self, field):
        """Load of the metric correction of field u, (n_modes, M): entry
        (m, j) is 2 n_j int grad(q_j H_m) . (F - I) grad u dx, in the scale
        of BallField.from_values (n_j = 2j + k + N/2 the Jacobi norm).

        The gradient products of u meet F - I pointwise in the flux V, and
        the transposed products take V to its load: the node tables against
        grad H . V and H 2 x . V, then grid.grad_proj per degree.
        """
        grid, basis = self.grid, self.grid.basis
        N = grid.dim
        ix = packed_index(N)
        dG, grad = field.derivatives()
        x = grid.r[:, None, None] * basis.nodes.T
        grad += 2.0 * x * dG[:, None]
        A = self._flux
        V = np.empty_like(grad)
        for i in range(N):
            V[:, i] = sum(A[ix[i, j]] * grad[:, j] for j in range(N))
        rows = np.hstack([
            basis.node_grads().reshape(basis.n_modes, -1)
            @ V.reshape(grid.n_r, -1).T,
            basis.Y @ (2.0 * np.einsum("rin,rin->rn", x, V)).T,
        ])
        return grid.by_degree(rows, grid.grad_proj)


def dirichlet_solve_full(jet, grid, warm_start=None):
    """Solve -lap_g(phi) = 1 in B_1, phi = 0 on the boundary.

    Picard iteration on the weak form (see the module docstring): each
    step is the flat Galerkin solve grid.weak_op of the load of sqrt det g
    less the metric correction of the previous iterate. That load is the
    projection of sqrt det g, taken once per solve. It is the data of every
    step (a weak step has no pointwise source), so its radial tail is the
    resolution check: ResolutionError when its last radial coefficient
    exceeds SOURCE_TAIL_TOL times its largest one. The cold start is the
    flat torsion function; warm_start seeds the iteration with a previous
    potential (same grid) to save steps. Returns (phi, info) with the
    Picard iterations and their max-norm steps on the product grid, the
    torsion integral of phi and the volume, both against sqrt det g
    (unit-ball scale). Raises EnvelopeError on non-convergence or loss of
    interior positivity.
    """
    ctx = LaplaceContext(jet, grid)
    load = _resolved(
        BallField.from_values(grid, ctx.sqrt_det), "volume element"
    ).coeffs
    phi = warm_start if warm_start is not None else poisson_solve(
        BallField.from_values(grid, -np.ones((grid.n_r, grid.n_ang)))
    )
    vals = phi.values()
    history = []
    for it in range(PICARD_MAX_ITER):
        rhs = load - ctx.correction(phi)
        phi = BallField(grid, grid.by_degree(rhs, grid.weak_op))
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
    info = {
        "iterations": len(history),
        "history": history,
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
