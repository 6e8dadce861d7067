"""Real harmonic analysis on the unit sphere S^{N-1}, N = 2 or 3.

Everything downstream (ball solves, the over-determined solver, the reduced
functional) works in coefficient space over an orthonormal basis of real
spherical harmonics. Every mode is a closed-form solid harmonic: for N = 2
the real and imaginary parts of (x + iy)^k, for N = 3 the real and imaginary
parts of the regular solid harmonics R_lm (Helgaker, Jorgensen & Olsen,
Molecular Electronic-Structure Theory, 2000, section 6.4). Values come from
their stable recurrences. A derivative of a solid harmonic is a solid
harmonic one degree lower, so gradients and Hessians are linear maps on
coefficient vectors. The degree-1 modes are the coordinate functions x^i in
coordinate order (the translation kernel of the linearized problem).

The boundary preconditioner calL used by the quasi-Newton solver lives here
too: calL = (1/N) L on the degree-1 complement and the identity on degree 1,
where the Steklov-shifted operator L has symbol k - 1 on degree k.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SphereBasis",
    "SphereFunction",
    "PerturbationState",
    "get_basis",
    "product_points",
    "packed_pairs",
    "packed_index",
    "ball_volume",
    "sphere_area",
    "calL_solve",
    "check_dimension",
]


def check_dimension(N):
    """ValueError unless N is a ball dimension this module has a sphere
    basis for: the boundary S^(N-1) is S^1 or S^2."""
    if N not in (2, 3):
        raise ValueError("only S^1 and S^2 are supported, got N=%d" % N)


def ball_volume(N):
    """Volume of the unit ball in R^N."""
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def sphere_area(N):
    """Area of S^{N-1}, i.e. N * |B_1|."""
    return N * ball_volume(N)


class SphereBasis:
    """Orthonormal real spherical harmonics up to max_degree on S^{N-1}.

    Mode j is H_j = scale_j * (Re, Im) F_lm, a real or imaginary part of a
    complex solid harmonic, labelled (l, m, part):
    - N = 2: F_kk = (x + iy)^k; degree 0 is 1/sqrt(2 pi), degree k >= 1
      the pair (Re, Im) z^k / sqrt(pi).
    - N = 3: F_lm = R_lm, m = 0..l, from R_00 = 1,
      R_{l+1,l+1} = -(x + iy) R_ll / (2l + 2) and
      (l+1-m)(l+1+m) R_{l+1,m} = (2l+1) z R_lm - r^2 R_{l-1,m}. The modes
      are (-1)^m sqrt(2) (Re, Im) R_lm / |R_lm| for m >= 1, then
      R_l0 / |R_l0|, with |R_lm|^2 = 4 pi / ((2l+1) (l-m)! (l+m)!) over
      the sphere.
    The modes of a degree are contiguous (degree_slice). degree_table,
    (L + 1, width) with width the size of the widest degree (2 at N = 2,
    2 L + 1 at N = 3), lists in row k the modes of degree k, padded by
    repeating the last one, and degree_rows holds the flat positions in
    it of the real entries, in mode order: rows[degree_table] is a
    degree-stacked view of per-mode rows, and the flattened entries at
    degree_rows of any per-degree result are its per-mode rows again. Both
    are built once and read-only; they carry the mode order, so a caller
    that applies one operator per degree (BallGrid.by_degree) need not.
    The maps D[i] give d_i H_m = sum_j D[i, j, m] H_j in closed form from
    the ladder relations of F (see _ladder). The class also holds an angular
    quadrature grid exact well beyond degree 2*max_degree, and cached node
    evaluations of each mode, of its gradient and of the upper triangle of
    its Hessian.

    Parameters
    ----------
    N : ambient dimension, 2 or 3.
    max_degree : highest harmonic degree L carried.

    The quadrature has max(6 L, 64) equispaced nodes for N=2; for N=3, L + 8
    Gauss-Legendre latitudes times 2 (L + 8) equispaced azimuths.
    """

    def __init__(self, N, max_degree):
        check_dimension(N)
        # at N = 3 the largest norm, at m = l = max_degree, is (2 l + 1)!
        if N == 3 and (math.lgamma(2 * max_degree + 2)
                       > math.log(sys.float_info.max)):
            raise ValueError("max_degree %d at N = 3: the norms (2l+1) "
                             "(l-m)! (l+m)! pass the float range" % max_degree)
        self.dim = N
        self.max_degree = max_degree
        self.area = sphere_area(N)

        labels = [(0, 0, 0)]
        for l in range(1, max_degree + 1):
            if N == 2:
                labels += [(l, l, 0), (l, l, 1)]
            else:
                labels += [(l, m, part) for m in range(1, l + 1)
                           for part in (0, 1)] + [(l, 0, 0)]
        self._labels = labels
        self._index = {lab: j for j, lab in enumerate(labels)}
        l, m, part = np.array(labels, dtype=np.int64).T
        self.degrees = l
        self.n_modes = len(labels)
        self._table_index = (l, m) if N == 3 else (l,)
        self._imag = part == 1
        # squared L^2 norm over the sphere of (Re, Im) F_lm
        if N == 2:
            norm2 = np.where(l == 0, 2.0 * math.pi, math.pi)
            sign = 1.0
        else:
            fact = np.cumprod([1.0] + list(range(1, 2 * max_degree + 1)))
            norm2 = 4.0 * math.pi / ((2 * l + 1) * fact[l - m] * fact[l + m])
            norm2 = np.where(m > 0, 0.5 * norm2, norm2)
            sign = (-1.0) ** m
        self._scale = sign / np.sqrt(norm2)
        # the modes of degree k are the count[k] from start[k]; see the
        # class docstring for degree_table and degree_rows
        count = np.bincount(l)
        start = np.cumsum(count) - count
        self._deg_slices = [slice(a, a + c)
                            for a, c in zip(start.tolist(), count.tolist())]
        pad = np.arange(count.max())
        self.degree_table = start[:, None] + np.minimum(pad, count[:, None] - 1)
        self.degree_rows = np.flatnonzero(pad < count[:, None])
        self.degree_table.setflags(write=False)
        self.degree_rows.setflags(write=False)

        self.D = self._derivative_maps()
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

    def _ladder(self, l, m):
        """(axis, c, (l', m')) with d_axis F_lm = sum of c F_l'm'."""
        if l == 0:
            return ()
        if self.dim == 2:
            # d_x z^k = k z^(k-1), d_y z^k = i k z^(k-1)
            return (0, l, (l - 1, l - 1)), (1, 1j * l, (l - 1, l - 1))
        # d_z R_lm = R_{l-1,m}, (d_x + i d_y) R_lm = R_{l-1,m+1} and
        # (d_x - i d_y) R_lm = -R_{l-1,m-1}
        up, down = (l - 1, m + 1), (l - 1, m - 1)
        return ((0, 0.5, up), (0, -0.5, down), (1, -0.5j, up),
                (1, -0.5j, down), (2, 1.0, (l - 1, m)))

    def _in_modes(self, l, m):
        """F_lm as a complex combination of the real modes; for m < 0,
        R_{l,m} = (-1)^m conj R_{l,-m}."""
        w = np.zeros(self.n_modes, dtype=complex)
        if abs(m) > l:
            return w
        sign, conj = ((-1.0) ** m, -1.0) if m < 0 else (1.0, 1.0)
        re = self._index[(l, abs(m), 0)]
        w[re] = sign / self._scale[re]
        im = self._index.get((l, abs(m), 1))
        if im is not None:
            w[im] = conj * sign * 1j / self._scale[im]
        return w

    def _derivative_maps(self):
        """The (N, n_modes, n_modes) maps d_i H_m = sum_j D[i, j, m] H_j."""
        D = np.zeros((self.dim, self.n_modes, self.n_modes))
        for j, (l, m, part) in enumerate(self._labels):
            for axis, c, target in self._ladder(l, m):
                v = self._scale[j] * c * self._in_modes(*target)
                D[axis, :, j] += v.imag if part else v.real
        return D

    # -- mode bookkeeping ------------------------------------------------

    def degree_slice(self, k):
        """Index slice of the modes of degree k."""
        return self._deg_slices[k]

    # -- evaluation ------------------------------------------------------

    def _complex_table(self, pts):
        """F at the points: (L+1, n) for N=2, (L+1, L+1, n) indexed
        [l, m] for N=3 (zero for m > l)."""
        L = self.max_degree
        w = pts[:, 0] + 1j * pts[:, 1]
        if self.dim == 2:
            F = np.ones((L + 1, len(pts)), dtype=complex)
            for k in range(L):
                F[k + 1] = w * F[k]
            return F
        z = pts[:, 2]
        r2 = np.einsum("pi,pi->p", pts, pts)
        F = np.zeros((L + 1, L + 1, len(pts)), dtype=complex)
        F[0, 0] = 1.0
        for l in range(L):
            m = np.arange(l + 1)[:, None]
            below = r2 * F[l - 1, : l + 1] if l else 0.0
            F[l + 1, : l + 1] = ((2 * l + 1) * z * F[l, : l + 1] - below) / (
                (l + 1 - m) * (l + 1 + m)
            )
            F[l + 1, l + 1] = -w * F[l, l] / (2 * l + 2)
        return F

    def eval_matrix(self, pts):
        """Values of every solid harmonic at the given points, (n_modes, n_pts)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        F = self._complex_table(pts)[self._table_index]
        parts = np.where(self._imag[:, None], F.imag, F.real)
        return self._scale[:, None] * parts

    def eval_grad_matrix(self, pts):
        """Gradients of the solid harmonics, (n_modes, n_pts, N)."""
        Y = self.eval_matrix(pts)
        return np.stack([Di.T @ Y for Di in self.D], axis=-1)

    def eval_hess_matrix(self, pts):
        """Hessians of the solid harmonics, (n_modes, n_pts, N, N)."""
        Y = self.eval_matrix(pts)
        N, n = self.dim, self.n_modes
        DD = np.matmul(self.D[:, None], self.D[None])  # [a, b] = D[a] @ D[b]
        H = DD.transpose(0, 1, 3, 2).reshape(N * N * n, n) @ Y
        H = H.reshape(N, N, n, -1).transpose(2, 3, 0, 1)
        return np.ascontiguousarray(H)

    def solid_jet(self, coeffs, dirs, radii=None):
        """Value, gradient and Hessian of the solid extension sum_m c_m H_m.

        The gradient and Hessian have the coefficient vectors D c and D D c,
        so all three are read off one value table at the points dirs, each
        mode scaled by r^deg for every radius r. The result lives on the
        product set {r d : r in radii, d in dirs}, flattened radius-major
        like BallGrid.points; radii=None is the single radius 1, i.e. the
        points dirs themselves. Returns shapes (P,), (P, N), (P, N, N).
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        radii = np.ones(1) if radii is None else np.asarray(radii, dtype=float)
        N = self.dim
        grad = self.D @ coeffs  # (N, n_modes)
        hess = np.moveaxis(self.D @ grad.T, 1, 0).reshape(self.n_modes, N * N)
        K = np.concatenate([coeffs[:, None], grad.T, hess], axis=1)
        Y = self.eval_matrix(dirs)
        # per degree k, the table of the degree-k part; then sum r^k * table
        W = np.stack([Y[s].T @ K[s] for s in self._deg_slices])
        k = np.arange(self.max_degree + 1)
        out = (radii[:, None] ** k) @ W.reshape(len(k), -1)
        out = out.reshape(-1, K.shape[1])
        return out[:, 0], out[:, 1 : N + 1], out[:, N + 1 :].reshape(-1, N, N)

    def node_grads(self):
        """Gradients of the modes at the nodes, (n_modes, N, n_nodes): the
        component axis sits ahead of the nodes, so a product over modes
        lays out each component as one block of nodes."""
        if self._node_grads is None:
            self._node_grads = np.ascontiguousarray(
                self.eval_grad_matrix(self.nodes).transpose(0, 2, 1)
            )
        return self._node_grads

    def node_hessians(self):
        """Upper triangles of the mode Hessians at the nodes,
        (n_modes, N(N+1)/2, n_nodes), entries in packed_pairs(N) order;
        the Hessians are symmetric, so the lower triangle is not kept. Off
        the solve path, whose Picard step takes gradients only: the strong
        oracle of the tests and the benchmark's set-up read it."""
        if self._node_hessians is None:
            i, j = packed_pairs(self.dim)
            H = self.eval_hess_matrix(self.nodes)
            self._node_hessians = np.ascontiguousarray(
                H[:, :, i, j].transpose(0, 2, 1)
            )
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


@lru_cache(maxsize=None)
def packed_pairs(N):
    """(rows, cols) of the upper triangle of an N x N symmetric matrix, row
    by row: the packed order of every symmetric tensor in the package (the
    flux tensor, the chart metric, SphereBasis.node_hessians()). Built once
    per N and read-only."""
    pairs = np.triu_indices(N)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def packed_index(N):
    """(N, N) position of entry (i, j) of a symmetric matrix in the packed
    order of packed_pairs(N). Built once per N and read-only."""
    a, b = packed_pairs(N)
    ix = np.empty((N, N), dtype=int)
    ix[a, b] = ix[b, a] = np.arange(len(a))
    ix.setflags(write=False)
    return ix


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


def calL_solve(rhs):
    """Invert calL = (1/N) L on the degree-1 complement plus identity on
    degree 1. Diagonal: degree 0 -> -N, degree 1 -> 1, degree k>=2 -> N/(k-1).
    """
    N = rhs.basis.dim
    k = rhs.basis.degrees.astype(float)
    symbol = np.where(k == 1.0, 1.0, (k - 1.0) / N)
    return SphereFunction(rhs.basis, rhs.coeffs / symbol)
