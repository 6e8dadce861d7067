"""Poisson and variable-coefficient Dirichlet solves on the closed unit ball.

Fields on the ball are stored mode-by-mode over the spherical-harmonic basis:
the radial part of the degree-k mode is r^k * q(r^2) with q expanded in the
shifted Jacobi polynomials P_j^{(0, k+N/2-1)}(2r^2-1). That ansatz bakes the
r^k origin regularity into the representation and is exact on polynomials.
On the combinations psi_i = (q_i - q_{i+1}) r^k Y, which vanish on the
boundary, the flat stiffness is diagonal (Shen, SIAM J. Sci. Comput. 15,
1994), so the flat Poisson solve is one small Galerkin system per degree,
the zero-weight case of every metric step (BallGrid.galerkin), and the
closed-form polynomial oracle
    lap(r^a Y_k) = (a(a+N-2) - k(k+N-2)) r^{a-2} Y_k
is reproduced at machine precision. Every radial operator is block-diagonal
by degree (Vasil et al., J. Comput. Phys. X 3, 2019), and BallGrid.by_degree
is the one per-degree product: projection, the stacked radial profiles,
the Galerkin solves and the boundary derivative use it. At N = 2 and 3
alike it is one batched product over the basis's degree-padded mode table
(SphereBasis.degree_table), so the mode order stays the basis's business.

The metric torsion problem -lap_g u = 1 is in divergence form: times
sqrt det g it reads -div(F grad u) = sqrt det g, with the flux tensor
F = sqrt det g g^-1. The metric enters only through the jet's
laplace_coefficients on the quadrature grid, the packed F and sqrt det g
(component-major: one (n_r, n_ang) block per component, the symmetric F
packed to its upper triangle in packed_pairs order), and the boundary
metric of neumann_trace through its metric_and_grad, so this module does
not care where the metric comes from.

dirichlet_solve_full runs a Picard iteration on the weak form. F splits
into its rotation-invariant part Fbar = a(r) I + b(r) theta theta^T (the
sphere averages of F at each radius) and the rest, and each step solves
    int grad psi . Fbar grad u_{k+1} = int psi sqrt det g
                                       - int grad psi . (F - Fbar) grad u_k
over the test functions psi that vanish on the boundary. Fbar commutes
with rotations, so that problem is one Galerkin solve per degree
(spectral Galerkin, Canuto, Hussaini, Quarteroni & Zang, Spectral Methods,
2006), and the iteration is left with the anisotropic part of F only: the
preconditioning of a nonseparable elliptic operator by a separable one
with a fast direct solve (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).
The context keeps that one anisotropic flux, F - Fbar, and the
right-hand side is the load less its correction (LaplaceContext.correction:
the gradient products of the iterate from BallField.derivatives, met with
F - Fbar pointwise, through the transposed products). The fixed point is
the flat-stiffness Galerkin system, the flat stiffness plus the
quadrature of F - I, because the stiffness of Fbar - I in the Galerkin
solves is what that quadrature gives for Fbar - I: the angular rule is
exact on the products of two harmonics of degree <= L with
theta theta^T (max(6 L, 64) nodes at N = 2; L + 8 latitudes times
2 (L + 8) azimuths at N = 3), and the correction and the Galerkin
stiffness share the radial nodes. A rotation-invariant metric is solved
by the step from zero. A context serves solves only: the volume of an
unperturbed ball needs none, and profile reads it off the chart.

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
    packed_pairs,
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

        N = self.dim
        M = n_radial
        js = np.arange(M)
        # Every per-degree operator is stacked by degree, (L + 1, ...).
        # The radial basis and its s-derivative at the radial nodes, (2 n_r, M)
        # per degree
        self.radial_basis = np.empty((L + 1, 2 * n_r, M))
        # projection weights: coefficients of a sampled radial profile; and
        # the same weights against the s-derivative of each mode, which with
        # them take a flux to its load (see LaplaceContext.correction)
        self.proj = np.empty((L + 1, M, n_r))
        self.deriv_proj = np.empty((L + 1, M, n_r))
        # the Euclidean radial derivative of each mode at r = 1
        self.bc_deriv = np.empty((L + 1, M))
        # Jacobi norms n_j = 2j + k + N/2, the scale of a load
        self._norm = np.empty((L + 1, M))
        t = 2.0 * self.r**2 - 1.0
        for k in range(L + 1):
            b = k + N / 2.0 - 1.0
            Q = np.stack([eval_jacobi(j, 0.0, b, t) for j in js], axis=1)
            # dq/ds = 2 * d/dt P_j = (j + b + 1) * P_{j-1}^{(1, b+1)}
            Qs = np.zeros_like(Q)
            for j in range(1, M):
                Qs[:, j] = (j + b + 1.0) * eval_jacobi(j - 1, 1.0, b + 1.0, t)
            self.radial_basis[k] = np.vstack([Q, Qs])
            # int_0^1 q_i q_j s^b ds = delta_ij / (2j + b + 1); in r-form the
            # weight is 2 r^{2k+N-1}. Sampled profiles come as u(r) = r^k F(s),
            # so fold one r^k into the projection weight.
            norm = 2.0 * js + b + 1.0
            self._norm[k] = norm
            base = 2.0 * wr * self.r ** (k + N - 1)
            self.proj[k] = norm[:, None] * (Q.T * base[None, :])
            self.deriv_proj[k] = norm[:, None] * (Qs.T * base)
            self.bc_deriv[k] = k + 2.0 * js * (js + b + 1.0)

        # the Galerkin solves of -div(Fbar grad u) = f (see galerkin): the
        # radial weights 2 w r^(2k+N-3) of a stiffness and the diagonal flat
        # stiffness on the test functions; weak_op, the flat solves, serves
        # poisson_solve
        self._stiff_weight = 2.0 * wr * self.r ** (
            2.0 * np.arange(L + 1)[:, None] + N - 3.0
        )
        self._flat_diag = 2.0 * (self._norm[:, :-1] + self._norm[:, 1:])
        zeros = np.zeros(n_r)
        self.weak_op = self.galerkin(zeros, zeros)

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

    def _stiffness(self, radial, angular):
        """Per-degree stiffness, (L + 1, M, M), of a rotation-invariant flux
        with the eigenvalue `radial` along theta and `angular` across it,
        both sampled at the radial nodes: with R_j = r^k q_j(r^2),
            2 int [radial R_i' R_j' + angular k (k + N - 2) R_i R_j / r^2]
                  r^(N-1) dr
        on the radial Gauss rule, where r^(1-k) R_j' = 2 s q_j' + k q_j."""
        n_r, N = self.n_r, self.dim
        k = np.arange(self.basis.max_degree + 1)
        Q, Qs = self.radial_basis[:, :n_r], self.radial_basis[:, n_r:]
        D = Qs * (2.0 * self.r**2)[:, None]
        D += k[:, None, None] * Q
        W = self._stiff_weight
        wq = W * (k * (k + N - 2.0))[:, None] * angular
        out = D.swapaxes(1, 2) @ ((W * radial)[:, :, None] * D)
        out += Q.swapaxes(1, 2) @ (wq[:, :, None] * Q)
        return out

    def galerkin(self, alpha, beta):
        """Per-degree Galerkin solves of the rotation-invariant flux
        Fbar = (1 + alpha) I + beta theta theta^T, alpha and beta sampled at
        the radial nodes, stacked (L + 1, M, M): the solves of
        -div(Fbar grad u) = f from the load of f (the scale of
        BallField.from_values) to the coefficients of u.

        A flux that commutes with rotations keeps each degree apart. On the
        test functions psi_i = (q_i - q_{i+1}) H, which vanish on the
        boundary since every q_j is 1 at r = 1, the flat stiffness
        2 int grad psi_i . grad psi_j is diagonal, 2 (n_i + n_{i+1}): psi_i
        is (1 - s) times a Jacobi polynomial orthogonal under the weight
        (1 - s) s^b, and the Laplacian of psi_j is a polynomial of degree j
        in s times H. The stiffness of Fbar - I, on the radial Gauss rule,
        is added to it, and one batched solve takes the test rows of a load
        to the coefficients d of u = sum_i d_i psi_i. The same rule's nodes
        carry LaplaceContext's quadrature of the flux, so that stiffness is
        the one the context takes off F - I. Fbar is an average of the
        positive definite F, so 1 + alpha and 1 + alpha + beta are positive
        and so is every system. Zero weights give the flat solves
        grid.weak_op, which are the flat Poisson solve (poisson_solve).
        """
        extra = self._stiffness(alpha + beta, alpha)
        rows = extra[:, :-1] - extra[:, 1:]
        stiff = rows[:, :, :-1] - rows[:, :, 1:]
        M = self.n_radial
        stiff.reshape(len(stiff), -1)[:, :: M] += self._flat_diag
        # a load enters the test rows over the norms; coefficient j of u
        # is d_j - d_{j-1}
        tests = np.eye(M)[:-1] - np.eye(M)[1:]
        d = np.linalg.solve(stiff, tests / self._norm[:, None, :])
        solve = np.zeros((len(stiff), M, M))
        solve[:, :-1] = d
        solve[:, 1:] -= d
        return solve

    def by_degree(self, rows, ops):
        """rows with the block s of the modes of degree k replaced by
        rows[s] @ ops[k].T: every mode of a degree shares its operator, and
        ops is stacked by degree. One batched product over the
        degree-padded view rows[basis.degree_table], then the real rows
        (basis.degree_rows); the padding rows are computed and dropped.
        Each degree is its own product, so a row carries no other degree's
        operator, and the outputs agree with one product per degree to
        roundoff."""
        basis = self.basis
        tops = ops.reshape(len(ops), -1, ops.shape[-1]).swapaxes(1, 2)
        out = rows.take(basis.degree_table, axis=0) @ tops
        return out.reshape((-1,) + ops.shape[1:-1]).take(basis.degree_rows,
                                                         axis=0)

    def volume_integral(self, values):
        """Integral over B_1 of pointwise values (n_r, n_ang) dx."""
        return float(self.w_vol @ values @ self.basis.weights)


def get_grid(N, max_degree=None, n_radial=None):
    """The shared BallGrid of dimension N, one per resolution.

    The defaults are max_degree 16 and n_radial 28 for N = 2, and 10 and 20
    otherwise; they are resolved before the cached build, so every way of
    asking for a resolution returns the same grid. Both must be at least 1,
    a ValueError otherwise: the solves read the kernel component off the
    degree-1 modes, and every mode carries at least one radial coefficient.
    At N = 3, max_degree past 84 is a ValueError of SphereBasis, raised
    before any table is built: its norms pass the float range.
    """
    if max_degree is None:
        max_degree = 16 if N == 2 else 10
    if n_radial is None:
        n_radial = 28 if N == 2 else 20
    for name, value in (("max_degree", max_degree), ("n_radial", n_radial)):
        if value < 1:
            raise ValueError("%s must be at least 1, got %d" % (name, value))
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
        G = grid.by_degree(self.coeffs, grid.radial_basis[:, :n])
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
    The solve is the zero-weight Galerkin solve grid.weak_op of
    -lap(psi) = -src (BallGrid.galerkin), all modes of a degree at once, the
    flat case of every Picard step; raises ResolutionError when the source
    is not finite or its last radial coefficient exceeds SOURCE_TAIL_TOL
    times its largest one.
    """
    grid = src.grid
    _resolved(src, "source")
    return BallField(grid, -grid.by_degree(src.coeffs, grid.weak_op))


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
    integrals. A volume element that is not positive (NaN where the
    metric is not positive definite) is an EnvelopeError.

    From the blocks of F - I, the identity taken off before any product so
    that a metric near the identity keeps its relative accuracy, it takes
    the rotation-invariant part alpha(r) I + beta(r) theta theta^T, the
    orthogonal projection at each radius: the sphere averages of
    tr(F - I) = N alpha + beta and of theta . (F - I) theta = alpha + beta.
    grid.galerkin turns it into weak_op, the per-degree Galerkin solves of
    the rotation-invariant flux Fbar = I + alpha I + beta theta theta^T,
    (L + 1, M, M). Then it takes Fbar - I off the blocks, in place, and
    keeps the one anisotropic flux F - Fbar times the angular quadrature
    weights, which correction meets the iterate with. Fbar is an average
    of the positive definite F: its eigenvalues a = 1 + alpha (across
    theta) and a + b (along theta) are averages of positive ones, so every
    per-degree system stays positive definite.

    The solves and the correction split F exactly when the quadrature of
    Fbar - I in the blocks equals its stiffness in weak_op: the angular
    rule is exact on the products of two harmonics of degree <= L with
    theta theta^T (max(6 L, 64) nodes at N = 2; L + 8 latitudes times
    2 (L + 8) azimuths at N = 3), and both use the radial nodes grid.r.
    """

    def __init__(self, jet, grid):
        self.grid = grid
        flux, sqrt_det = jet.laplace_coefficients(grid.basis.nodes, grid.r)
        if not np.all(sqrt_det > 0.0):
            raise EnvelopeError("pulled-back metric lost positivity")
        self.sqrt_det = sqrt_det.reshape(grid.n_r, grid.n_ang)
        flux = flux.reshape(-1, grid.n_r, grid.n_ang)
        N, basis = grid.dim, grid.basis
        a, b = packed_pairs(N)
        diag = a == b
        flux[diag] -= 1.0
        flux *= basis.weights
        # the packed theta theta^T; its off-diagonal entries count twice in
        # theta . (F - I) theta
        tt = (basis.nodes[:, a] * basis.nodes[:, b]).T
        trace = flux[diag].sum(axis=(0, 2)) / basis.area
        normal = np.tensordot(flux, np.where(diag, 1.0, 2.0)[:, None] * tt,
                              ([0, 2], [0, 1])) / basis.area
        alpha = (trace - normal) / (N - 1)
        beta = normal - alpha
        self.weak_op = grid.galerkin(alpha, beta)
        # alpha I + beta theta theta^T, times the weights, comes off F - I
        # in place, one packed component at a time
        radial = np.stack([alpha, beta], axis=1)
        angular = np.stack([np.outer(diag, basis.weights),
                            tt * basis.weights], axis=1)
        for c in range(len(a)):
            flux[c] -= radial @ angular[c]
        self._flux = flux

    def correction(self, field):
        """Load of the anisotropic correction of field u, (n_modes, M):
        entry (m, j) is 2 n_j int grad(q_j H_m) . (F - Fbar) grad u dx, in
        the scale of BallField.from_values (n_j = 2j + k + N/2 the Jacobi
        norm).

        The gradient products of u meet F - Fbar pointwise in the flux V, and
        the transposed products take V to its load: with
        grad(q H) = 2 q' H x + q grad H and grad H = r^(k-1) times the node
        table, the node tables against grad H . V / r and H 2 x . V, then
        grid.proj and grid.deriv_proj per degree.
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
        grad_rows = (basis.node_grads().reshape(basis.n_modes, -1)
                     @ V.reshape(grid.n_r, -1).T) / grid.r
        deriv_rows = basis.Y @ (2.0 * np.einsum("rin,rin->rn", x, V)).T
        return (grid.by_degree(grad_rows, grid.proj)
                + grid.by_degree(deriv_rows, grid.deriv_proj))


def dirichlet_solve_full(jet, grid, warm_start=None):
    """Solve -lap_g(phi) = 1 in B_1, phi = 0 on the boundary.

    Picard iteration on the weak form (see the module docstring): each
    step takes the load of sqrt det g less the correction of F - Fbar of
    the previous iterate, and solves it per degree with the Galerkin solves
    of the rotation-invariant flux Fbar (ctx.weak_op). The iteration
    contracts with the anisotropic part F - Fbar alone, and its fixed point
    is the flat-stiffness Galerkin system, since the angular rule is exact
    on the products of two harmonics of degree <= L with theta theta^T and
    the correction and the solves share the radial nodes (LaplaceContext).
    The load is the projection of sqrt det g, taken once per solve. It is
    the data of every step (a weak step has no pointwise source), so its
    radial tail is the resolution check: ResolutionError when its last
    radial coefficient exceeds SOURCE_TAIL_TOL times its largest one. The
    cold start is the step from zero, ctx.weak_op of the load, which needs
    no correction: a rotation-invariant metric (a geodesic ball of a space
    form) is solved by it, and its first counted step only confirms it.
    warm_start seeds the iteration with a previous potential (same grid)
    to save steps. Returns (phi, info) with the Picard iterations and their
    max-norm steps on the product grid, the torsion integral of phi and the
    volume, both against sqrt det g (unit-ball scale). Raises EnvelopeError
    on non-convergence or loss of interior positivity.
    """
    ctx = LaplaceContext(jet, grid)
    load = _resolved(
        BallField.from_values(grid, ctx.sqrt_det), "volume element"
    ).coeffs
    phi = warm_start if warm_start is not None else BallField(
        grid, grid.by_degree(load, ctx.weak_op)
    )
    vals = phi.values()
    history = []
    for it in range(PICARD_MAX_ITER):
        rhs = load - ctx.correction(phi)
        phi = BallField(grid, grid.by_degree(rhs, ctx.weak_op))
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
