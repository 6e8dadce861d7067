"""Real harmonic analysis on the unit sphere S^{N-1}, N = 2 or 3.

Everything downstream (ball solves, the over-determined solver, the reduced
functional) works in coefficient space over an orthonormal basis of real
spherical harmonics. Harmonics are stored as homogeneous harmonic polynomials
in Cartesian coordinates, which makes gradients/Hessians of their solid
extensions exact and cheap, and keeps degree-1 modes literally proportional to
the coordinate functions x^i (the translation kernel of the linearized
problem).

The boundary operators live here too: the Dirichlet-to-Neumann map (symbol k
on degree k), the Steklov-shifted operator L (symbol k - 1, kernel = degree
one), and the preconditioner calL used by the quasi-Newton solver
(calL = (1/N) L on the degree-1 complement, identity on degree 1).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "SphereBasis",
    "SphereFunction",
    "PerturbationState",
    "get_basis",
    "product_points",
    "ball_volume",
    "sphere_area",
    "sphere_monomial_integral",
    "dtn",
    "L_operator",
    "calL_solve",
]


def ball_volume(N):
    """Volume of the unit ball in R^N."""
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def sphere_area(N):
    """Area of S^{N-1}, i.e. N * |B_1|."""
    return N * ball_volume(N)


def sphere_monomial_integral(alpha):
    """Exact integral of x^alpha over S^{N-1}, N = len(alpha).

    Zero when any exponent is odd; otherwise
    2 * prod Gamma((a_i+1)/2) / Gamma((|a|+N)/2).
    """
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((sum(alpha) + len(alpha)) / 2.0)


def _monomials(deg, n):
    """Sorted list of exponent tuples of total degree deg in n variables."""
    out = [a for a in _iproduct(range(deg + 1), repeat=n) if sum(a) == deg]
    out.sort()
    return out


def _harmonic_coefficients(deg, n):
    """Coefficient matrix of an orthonormal basis of degree-deg harmonics.

    Returns (exps, C) where exps lists the degree-deg monomials and C has one
    column per basis polynomial. Orthonormality is with respect to the
    L^2(S^{n-1}) inner product, enforced through exact monomial moments.
    Degrees 0 and 1 are special-cased so the basis is {1} and {x_i} up to
    scalar normalization, in coordinate order.
    """
    exps = _monomials(deg, n)
    if deg == 0:
        C = np.array([[1.0 / math.sqrt(sphere_area(n))]])
        return exps, C
    if deg == 1:
        # exps sorted ascending puts x_n first; reorder columns to x_1..x_n
        C = np.zeros((n, n))
        scale = 1.0 / math.sqrt(ball_volume(n))
        for i in range(n):
            row = exps.index(tuple(1 if d == i else 0 for d in range(n)))
            C[row, i] = scale
        return exps, C
    # kernel of the Laplacian acting on degree-deg monomials
    dst = _monomials(deg - 2, n)
    idx = {a: i for i, a in enumerate(dst)}
    Lmat = np.zeros((len(dst), len(exps)))
    for j, a in enumerate(exps):
        for d in range(n):
            if a[d] >= 2:
                b = list(a)
                b[d] -= 2
                Lmat[idx[tuple(b)], j] += a[d] * (a[d] - 1)
    _, s, Vt = np.linalg.svd(Lmat, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    C = Vt[rank:].T
    # Gram matrix over the sphere from exact monomial moments
    t = len(exps)
    Q = np.empty((t, t))
    for i, ai in enumerate(exps):
        for j, aj in enumerate(exps):
            Q[i, j] = sphere_monomial_integral(
                tuple(x + y for x, y in zip(ai, aj))
            )
    G = C.T @ Q @ C
    C = C @ np.linalg.inv(np.linalg.cholesky(G)).T
    return exps, C


class SphereBasis:
    """Orthonormal real spherical harmonics up to max_degree on S^{N-1}.

    Holds the polynomial representation of every mode, an angular quadrature
    grid exact well beyond degree 2*max_degree, and cached node evaluations of
    each mode and of the gradient/Hessian of its solid-harmonic extension.

    Parameters
    ----------
    N : ambient dimension, 2 or 3.
    max_degree : highest harmonic degree L carried.

    The quadrature has max(6 L, 64) equispaced nodes for N=2; for N=3, L + 8
    Gauss-Legendre latitudes times 2 (L + 8) equispaced azimuths.
    """

    def __init__(self, N, max_degree):
        if N not in (2, 3):
            raise ValueError("only S^1 and S^2 are supported, got N=%d" % N)
        self.dim = N
        self.max_degree = max_degree
        self.area = sphere_area(N)

        degrees = []
        polys = []  # (exps array (t,N), coeffs (t,)) per mode
        for k in range(max_degree + 1):
            exps, C = _harmonic_coefficients(k, N)
            E = np.array(exps, dtype=np.int64).reshape(len(exps), N)
            for m in range(C.shape[1]):
                degrees.append(k)
                polys.append((E, C[:, m].copy()))
        self.degrees = np.array(degrees, dtype=np.int64)
        self.polys = polys
        self.n_modes = len(polys)
        self._deg_slices = []
        for k in range(max_degree + 1):
            idx = np.nonzero(self.degrees == k)[0]
            self._deg_slices.append(slice(int(idx[0]), int(idx[-1]) + 1))

        self.nodes, self.weights = self._build_quadrature()
        self.Y = self.eval_matrix(self.nodes)
        self._node_grads = None
        self._node_hessians = None

    # -- construction helpers -------------------------------------------

    def _build_quadrature(self):
        N = self.dim
        if N == 2:
            n = max(6 * self.max_degree, 64)
            th = 2.0 * math.pi * np.arange(n) / n
            nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
            weights = np.full(n, 2.0 * math.pi / n)
            return nodes, weights
        n_mu = self.max_degree + 8
        n_az = 2 * n_mu
        mu, wmu = np.polynomial.legendre.leggauss(n_mu)
        phi = 2.0 * math.pi * np.arange(n_az) / n_az
        smu = np.sqrt(1.0 - mu**2)
        nodes = np.empty((n_mu * n_az, 3))
        weights = np.empty(n_mu * n_az)
        q = 0
        for i in range(n_mu):
            nodes[q : q + n_az, 0] = smu[i] * np.cos(phi)
            nodes[q : q + n_az, 1] = smu[i] * np.sin(phi)
            nodes[q : q + n_az, 2] = mu[i]
            weights[q : q + n_az] = wmu[i] * (2.0 * math.pi / n_az)
            q += n_az
        return nodes, weights

    # -- mode bookkeeping ------------------------------------------------

    def degree_slice(self, k):
        """Index slice of the modes of degree k."""
        return self._deg_slices[k]

    # -- polynomial evaluation -------------------------------------------

    def _powers(self, pts):
        # P[d, e, p] = pts[p, d] ** e for e <= max_degree
        L = self.max_degree
        P = np.empty((self.dim, L + 1, pts.shape[0]))
        P[:, 0, :] = 1.0
        for e in range(1, L + 1):
            P[:, e, :] = P[:, e - 1, :] * pts.T
        return P

    def _degree_polys(self, k):
        """(exps (t, N), coefficient columns (t, n_k)) of degree-k modes."""
        s = self._deg_slices[k]
        columns = np.stack([c for _, c in self.polys[s]], axis=1)
        return self.polys[s.start][0], columns

    def _poly_derivatives(self, P, E, C, order):
        """Derivatives of order 0, 1 or 2 of the polynomials
        sum_t C[t, j] x^E[t] at the points with power table P, shaped
        (n, n_pts) + (N,) * order with n = C.shape[1]."""
        N = self.dim
        eye = np.eye(N, dtype=np.int64)
        out = np.zeros((C.shape[1], P.shape[2]) + (N,) * order)
        for idx in combinations_with_replacement(range(N), order):
            # d^idx x^E = (falling factorial) x^(E - idx)
            coef = np.ones(len(E))
            shifted = E
            for d in idx:
                coef = coef * shifted[:, d]
                shifted = shifted - eye[d]
            live = coef != 0
            if not np.any(live):
                continue
            vals = (C[live] * coef[live, None]).T @ self._mono_values(
                P, shifted[live]
            )
            for perm in set(permutations(idx)):
                out[(slice(None), slice(None)) + perm] = vals
        return out

    def _mode_tables(self, pts, order):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        P = self._powers(pts)
        return np.concatenate(
            [
                self._poly_derivatives(P, *self._degree_polys(k), order)
                for k in range(self.max_degree + 1)
            ]
        )

    def eval_matrix(self, pts):
        """Values of every solid harmonic at the given points, (n_modes, n_pts)."""
        return self._mode_tables(pts, 0)

    def eval_grad_matrix(self, pts):
        """Gradients of the solid harmonics, (n_modes, n_pts, N)."""
        return self._mode_tables(pts, 1)

    def eval_hess_matrix(self, pts):
        """Hessians of the solid harmonics, (n_modes, n_pts, N, N)."""
        return self._mode_tables(pts, 2)

    @staticmethod
    def _mono_values(P, exps):
        mono = P[0, exps[:, 0], :]
        for d in range(1, exps.shape[1]):
            mono = mono * P[d, exps[:, d], :]
        return mono

    def solid_jet(self, coeffs, dirs, radii=None):
        """Value, gradient and Hessian of the solid extension sum_m c_m H_m.

        Evaluated by homogeneity: the modes of each degree k collapse into
        one homogeneous polynomial w_k, whose value, gradient and Hessian
        are computed once at the points dirs and scaled by r^k, r^(k-1) and
        r^(k-2) for every radius r. The result lives on the product set
        {r d : r in radii, d in dirs}, flattened radius-major like
        BallGrid.points; radii=None is the single radius 1, i.e. the points
        dirs themselves. Returns shapes (P,), (P, N), (P, N, N).
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        radii = np.ones(1) if radii is None else np.asarray(radii, dtype=float)
        n, N = dirs.shape
        degs = [
            k
            for k in range(self.max_degree + 1)
            if np.any(coeffs[self._deg_slices[k]])
        ]
        size = radii.size * n
        if not degs:
            return np.zeros(size), np.zeros((size, N)), np.zeros((size, N, N))
        P = self._powers(dirs)
        polys = []
        for k in degs:
            E, C = self._degree_polys(k)
            polys.append((E, (C @ coeffs[self._deg_slices[k]])[:, None]))
        k = np.array(degs, dtype=float)
        r = radii[:, None]
        # (radius, degree) factors; derivatives of order above k vanish
        scales = (
            r**k,
            np.where(k >= 1, r ** np.maximum(k - 1.0, 0.0), 0.0),
            np.where(k >= 2, r ** np.maximum(k - 2.0, 0.0), 0.0),
        )
        out = []
        for j, scale in enumerate(scales):
            table = np.stack(
                [self._poly_derivatives(P, E, c, j).ravel() for E, c in polys]
            )
            out.append((scale @ table).reshape((size,) + (N,) * j))
        return tuple(out)

    def node_grads(self):
        if self._node_grads is None:
            self._node_grads = self.eval_grad_matrix(self.nodes)
        return self._node_grads

    def node_hessians(self):
        if self._node_hessians is None:
            self._node_hessians = self.eval_hess_matrix(self.nodes)
        return self._node_hessians

    # -- transforms --------------------------------------------------------

    def project_values(self, values):
        """SphereFunction with coefficients <values, Y_km> by quadrature."""
        values = np.asarray(values, dtype=float)
        return SphereFunction(self, self.Y @ (self.weights * values))


def product_points(dirs, radii=None):
    """The product set {r d : r in radii, d in dirs} as an (n, N) array,
    flattened radius-major; radii=None is the single radius 1."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if radii is None:
        return dirs
    radii = np.asarray(radii, dtype=float)
    return (radii[:, None, None] * dirs[None]).reshape(-1, dirs.shape[1])


@lru_cache(maxsize=8)
def get_basis(N, max_degree):
    """Shared SphereBasis instances (construction is the expensive part)."""
    return SphereBasis(N, max_degree)


@dataclass
class SphereFunction:
    """Function on S^{N-1} as coefficients over an orthonormal harmonic basis."""

    basis: SphereBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.n_modes,):
            raise ValueError("coefficient vector has wrong length")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, basis):
        return cls(basis, np.zeros(basis.n_modes))

    @classmethod
    def constant(cls, basis, value):
        c = np.zeros(basis.n_modes)
        c[0] = value * math.sqrt(basis.area)
        return cls(basis, c)

    @classmethod
    def from_degree1_vector(cls, basis, a):
        """The linear function <a, x> restricted to the sphere."""
        c = np.zeros(basis.n_modes)
        s = basis.degree_slice(1)
        c[s] = np.asarray(a, dtype=float) * math.sqrt(ball_volume(basis.dim))
        return cls(basis, c)

    @classmethod
    def from_mode(cls, basis, degree, order, value=1.0):
        c = np.zeros(basis.n_modes)
        c[basis.degree_slice(degree).start + order] = value
        return cls(basis, c)

    # -- evaluation and norms --------------------------------------------

    def node_values(self):
        return self.coeffs @ self.basis.Y

    def evaluate(self, pts):
        return self.coeffs @ self.basis.eval_matrix(pts)

    def norm_l2(self):
        return float(np.linalg.norm(self.coeffs))

    def norm_inf(self):
        """Sup norm approximated on the quadrature grid."""
        return float(np.abs(self.node_values()).max())

    def sobolev_norm(self):
        """Coefficient norm (sum (1+k^2)^2 c^2)^{1/2}, the working C^2 proxy."""
        w = (1.0 + self.basis.degrees.astype(float) ** 2) ** 2
        return float(math.sqrt(np.sum(w * self.coeffs**2)))

    def mean(self):
        """Average value over the sphere (the v0 scalar of a perturbation)."""
        return float(self.coeffs[0] / math.sqrt(self.basis.area))

    def degree1_vector(self):
        """Vector a with Pi_1 f = <a, x>."""
        s = self.basis.degree_slice(1)
        return self.coeffs[s] / math.sqrt(ball_volume(self.basis.dim))

    # -- projections -------------------------------------------------------

    def _masked(self, keep):
        c = np.zeros_like(self.coeffs)
        c[keep] = self.coeffs[keep]
        return SphereFunction(self.basis, c)

    def pi0(self):
        return self._masked(self.basis.degrees == 0)

    def pi1(self):
        return self._masked(self.basis.degrees == 1)

    def pibar(self):
        """Projection onto degrees >= 2, the non-kernel deformation part."""
        return self._masked(self.basis.degrees >= 2)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return SphereFunction(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SphereFunction(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SphereFunction(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SphereFunction(self.basis, -self.coeffs)

    def _check(self, other):
        if other.basis is not self.basis:
            raise ValueError("operands live on different bases")


@dataclass
class PerturbationState:
    """Boundary perturbation split by the kernel projections.

    v0 is the mean part, a the degree-1 coefficients against the raw
    coordinates x^i, vbar the degree >= 2 remainder. compose() rebuilds
    v = v0 + <a, x> + vbar.
    """

    v0: float
    vbar: SphereFunction
    a: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.a is None:
            self.a = np.zeros(self.vbar.basis.dim)
        self.a = np.asarray(self.a, dtype=float)
        low = self.vbar.coeffs[self.vbar.basis.degrees <= 1]
        if np.abs(low).max(initial=0.0) > 1e-13:
            raise ValueError("vbar carries degree <= 1 content")

    @classmethod
    def from_sphere_function(cls, v):
        return cls(v0=v.mean(), vbar=v.pibar(), a=v.degree1_vector())

    def compose(self):
        basis = self.vbar.basis
        return (
            SphereFunction.constant(basis, self.v0)
            + SphereFunction.from_degree1_vector(basis, self.a)
            + self.vbar
        )

    def domain_profile(self):
        """The part of the perturbation that actually moves the boundary:
        v0 + vbar, with the degree-1 (translation-kernel) component dropped."""
        basis = self.vbar.basis
        return SphereFunction.constant(basis, self.v0) + self.vbar


# -- boundary operators ----------------------------------------------------


def dtn(v):
    """Dirichlet-to-Neumann map: multiply degree-k coefficients by k."""
    return SphereFunction(v.basis, v.coeffs * v.basis.degrees)


def L_operator(w):
    """Steklov-shifted operator: factor (k - 1) on degree k; kernel = degree 1."""
    return SphereFunction(w.basis, w.coeffs * (w.basis.degrees - 1.0))


def calL_solve(rhs):
    """Invert calL = (1/N) L on the degree-1 complement plus identity on
    degree 1. Diagonal: degree 0 -> -N, degree 1 -> 1, degree k>=2 -> N/(k-1).
    """
    N = rhs.basis.dim
    k = rhs.basis.degrees.astype(float)
    symbol = np.where(k == 1.0, 1.0, (k - 1.0) / N)
    return SphereFunction(rhs.basis, rhs.coeffs / symbol)
