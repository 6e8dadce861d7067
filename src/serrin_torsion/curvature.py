"""Model manifolds, curvature data, and pulled-back ball metrics.

The sign conventions, fixed once here and relied on everywhere else:

* riemann[i,j,k,l] is the inner product of the curvature operator applied to
  the frame pair (E_i, E_j) acting on E_k against E_l, with the operator
  ordered so that the round unit sphere has riemann[i,j,k,l] =
  d_jk d_il - d_ik d_jl (in particular riemann[1,2,1,2] = -1).
* ricci[k,l] = - sum_i riemann[i,k,i,l], which makes the round metric's
  Ricci tensor positive: (N-1) * curvature * identity.
* nabla_riemann[i,j,k,l,m] differentiates in the last slot.

Geodesic normal coordinates y around a point then expand the metric as

    g_ab(y) = d_ab + (1/3) riemann[a,k,b,l] y^k y^l
            + (1/6) nabla_riemann[a,k,b,l,m] y^k y^l y^m + O(|y|^4),

and rescaling y = eps * x puts factors eps^2/3 and eps^3/6 on the curvature
terms over the unit ball.

Model manifolds expose a small uniform surface: curvature packets, and
exp, log and distance in a fixed orthonormal frame. MetricJet combines a
manifold, a center, a radius and a boundary perturbation into the
pointwise metric callbacks the ball solver consumes; its one chart is the
cubic model above, built from the center's curvature packet.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import minimize, root

from .sphere_spectral import (
    SphereFunction,
    get_basis,
    packed_index,
    packed_pairs,
    product_points,
)

__all__ = [
    "CurvaturePacket",
    "GeometryError",
    "ModelManifold",
    "FlatSpace",
    "ConstantCurvature",
    "ConformalSphere2D",
    "MetricJet",
    "cubic_chart",
    "cubic_chart_gradient",
]


class GeometryError(RuntimeError):
    """A geodesic integration, log map or curvature maximum failed."""


# -- curvature packet ---------------------------------------------------------


def _model_tensor(N):
    """T[i,j,k,l] = d_jk d_il - d_ik d_jl, the unit-curvature model."""
    d = np.eye(N)
    return np.einsum("jk,il->ijkl", d, d) - np.einsum("ik,jl->ijkl", d, d)


@dataclass
class CurvaturePacket:
    """Pointwise curvature data at a chosen center, in an orthonormal frame."""

    dim: int
    scalar: float
    scalar_gradient: np.ndarray  # (N,)
    ricci: np.ndarray  # (N, N)
    riemann: np.ndarray  # (N, N, N, N)
    nabla_riemann: np.ndarray  # (N, N, N, N, N), derivative slot last


# -- the cubic chart ----------------------------------------------------------


def cubic_chart(packet, dirs, s):
    """Cubic normal-coordinate metric model at Y = s theta, packed.

    The model is homogeneous along each direction theta: with Y = s theta,

        gbar = I + s^2 A2(theta) + s^3 A3(theta),

    so its two tables are products of the curvature tensors with the
    directions dirs (n, N), of any length, and meet the scales s, which
    broadcast against (n_r, n), only elementwise. Returns gbar
    (N(N+1)/2, n_r, n), the upper triangle packed in packed_pairs(N) order
    like SphereBasis.node_hessians().
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    n, N = dirs.shape
    a, b = packed_pairs(N)
    theta = np.ascontiguousarray(dirs.T)
    T2 = (theta[:, None] * theta[None]).reshape(N**2, n)
    T3 = (T2[:, None] * theta[None]).reshape(N**3, n)
    # gbar_ab = d_ab + R[a,k,b,l] y^k y^l / 3 + nR[a,k,b,l,m] y^k y^l y^m / 6,
    # one row [k, l(, m)] per packed pair (a, b)
    R = packet.riemann.transpose(0, 2, 1, 3)[a, b]
    nR = packet.nabla_riemann.transpose(0, 2, 1, 3, 4)[a, b]
    A2 = R.reshape(-1, N**2) @ T2 / 3.0
    A3 = nR.reshape(-1, N**3) @ T3 / 6.0
    # Horner in s, in place: every fresh (.., n_r, n) array costs page
    # faults on top of its arithmetic
    s = np.asarray(s, dtype=float)
    gbar = A3[:, None] * s
    gbar += A2[:, None]
    gbar *= s * s
    for k in np.flatnonzero(a == b):
        gbar[k] += 1.0
    return gbar


def cubic_chart_gradient(packet, dirs, s):
    """First derivatives of the cubic model at Y = s theta, packed: with
    d gbar = s D1(theta) + s^2 D2(theta), returns dgbar
    (N, N(N+1)/2, n_r, n), dgbar[c] = d_c gbar in true normal coordinates,
    on the layout of cubic_chart."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    n, N = dirs.shape
    a, b = packed_pairs(N)
    theta = np.ascontiguousarray(dirs.T)
    T2 = (theta[:, None] * theta[None]).reshape(N**2, n)
    R = packet.riemann.transpose(0, 2, 1, 3)[a, b]
    nR = packet.nabla_riemann.transpose(0, 2, 1, 3, 4)[a, b]
    # d_c gbar_ab: c in each y slot, rows [c, (a, b)]
    dR = (R + R.transpose(0, 2, 1)).transpose(1, 0, 2)
    dnR = (nR + nR.transpose(0, 2, 1, 3) + nR.transpose(0, 3, 1, 2))
    D1 = dR.reshape(-1, N) @ theta / 3.0
    D2 = dnR.transpose(1, 0, 2, 3).reshape(-1, N**2) @ T2 / 6.0
    s = np.asarray(s, dtype=float)
    dgbar = D2[:, None] * s
    dgbar += D1[:, None]
    dgbar *= s
    return dgbar.reshape((N, len(a)) + dgbar.shape[1:])


def _packed_cofactors(g):
    """Cofactors and determinant of symmetric matrices, N = 2 or 3, packed
    like cubic_chart along the first axis, in closed form. The determinant
    is NaN wherever g is not positive definite: Sylvester's test, the
    leading 1x1 and 2x2 minors and the determinant all positive."""
    cof = np.empty_like(g)
    if len(g) == 3:
        g00, g01, g11 = g
        cof[0] = g11
        cof[1] = -g01
        cof[2] = g00
        minor = g00
    else:
        g00, g01, g02, g11, g12, g22 = g
        cof[0] = g11 * g22 - g12 * g12
        cof[1] = g02 * g12 - g01 * g22
        cof[2] = g01 * g12 - g02 * g11
        cof[3] = g00 * g22 - g02 * g02
        cof[4] = g01 * g02 - g00 * g12
        cof[5] = g00 * g11 - g01 * g01
        minor = np.minimum(g00, cof[5])
    det = g00 * cof[0] + g01 * cof[1]
    if len(g) == 6:
        det += g02 * cof[2]
    det[~((minor > 0) & (det > 0))] = np.nan
    return cof, det


# -- model manifolds -----------------------------------------------------------


class ModelManifold:
    """Uniform surface shared by the built-in geometries.

    Points use each geometry's own representation (ambient vectors for
    embedded spheres, chart coordinates otherwise); tangent data always uses
    coefficients against the manifold's orthonormal frame at the relevant
    point. exp/log accept (n, N) batches.
    """

    dim = None
    # the log map's round-trip tolerance, in point coordinates
    LOG_TOL = 1e-12

    def origin(self):
        raise NotImplementedError

    def packet(self, p):
        raise NotImplementedError

    def scalar_curvature(self, p):
        return self.packet(p).scalar

    def scalar_gradient(self, p):
        return self.packet(p).scalar_gradient

    def scalar_max_point(self):
        """Isolated maximum of the scalar curvature, or None where S has
        none (flat space, the round spheres)."""
        return None

    def center(self):
        """The scalar-curvature maximum where it is isolated, else the
        origin: the default center of a search or a profile."""
        p = self.scalar_max_point()
        return self.origin() if p is None else p

    def exp(self, p, V):
        raise NotImplementedError

    def log(self, p, Q):
        """U (n, N) at p with max |exp(p, U) - Q| < LOG_TOL in point
        coordinates: a log certifies its round trip or raises GeometryError."""
        raise NotImplementedError

    def distance(self, p, q):
        v = self.log(p, np.atleast_2d(np.asarray(q, dtype=float)))
        return float(np.linalg.norm(v[0]))


class FlatSpace(ModelManifold):
    """Euclidean R^N; every curvature quantity vanishes."""

    def __init__(self, dim):
        self.dim = dim

    def origin(self):
        return np.zeros(self.dim)

    def packet(self, p=None):
        N = self.dim
        return CurvaturePacket(
            dim=N,
            scalar=0.0,
            scalar_gradient=np.zeros(N),
            ricci=np.zeros((N, N)),
            riemann=np.zeros((N,) * 4),
            nabla_riemann=np.zeros((N,) * 5),
        )

    def exp(self, p, V):
        return np.atleast_2d(p) + np.atleast_2d(V)

    def log(self, p, Q):
        return np.atleast_2d(Q) - np.atleast_2d(p)


class ConstantCurvature(ModelManifold):
    """Round sphere of constant sectional curvature k > 0.

    Points are ambient vectors in R^{N+1} of norm 1/sqrt(k). The orthonormal
    frame at p comes from Gram-Schmidt of the ambient coordinate basis
    projected to the tangent space, taken in a deterministic order.
    """

    def __init__(self, dim, k=1.0):
        if k <= 0:
            raise ValueError("embedded model requires k > 0")
        self.dim = dim
        self.k = float(k)
        self.radius = 1.0 / math.sqrt(k)

    def origin(self):
        p = np.zeros(self.dim + 1)
        p[-1] = self.radius
        return p

    def frame(self, p):
        """Orthonormal tangent frame at p, rows = frame vectors, (N, N+1)."""
        p = np.asarray(p, dtype=float)
        n = p / np.linalg.norm(p)
        basis = []
        for i in range(self.dim + 1):
            e = np.zeros(self.dim + 1)
            e[i] = 1.0
            w = e - np.dot(e, n) * n
            for b in basis:
                w = w - np.dot(w, b) * b
            norm = np.linalg.norm(w)
            if norm > 1e-8:
                basis.append(w / norm)
            if len(basis) == self.dim:
                break
        return np.stack(basis)

    def packet(self, p=None):
        N, k = self.dim, self.k
        T = _model_tensor(N)
        return CurvaturePacket(
            dim=N,
            scalar=k * N * (N - 1),
            scalar_gradient=np.zeros(N),
            ricci=k * (N - 1) * np.eye(N),
            riemann=k * T,
            nabla_riemann=np.zeros((N,) * 5),
        )

    def exp(self, p, V):
        p = np.asarray(p, dtype=float)
        V = np.atleast_2d(np.asarray(V, dtype=float))
        E = self.frame(p)
        W = V @ E  # ambient tangent vectors, (n, N+1)
        t = np.linalg.norm(W, axis=1)
        out = np.empty((V.shape[0], self.dim + 1))
        zero = t < 1e-300
        tt = np.where(zero, 1.0, t)
        out[:] = (
            np.cos(t / self.radius)[:, None] * p[None, :]
            + (self.radius * np.sin(t / self.radius) / tt)[:, None] * W
        )
        out[zero] = p
        return out

    def log(self, p, Q):
        """Closed form, the angle by atan2 (arccos loses half its digits at
        short range); the round trip too, so the antipode raises."""
        p = np.asarray(p, dtype=float)
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = self.radius
        c = Q @ p / R**2
        W = Q - c[:, None] * p[None, :]
        norms = np.linalg.norm(W, axis=1)
        theta = np.arctan2(norms / R, c)
        safe = np.where(norms > 1e-300, norms, 1.0)
        amb = (R * theta / safe)[:, None] * W
        amb[norms <= 1e-300] = 0.0
        U = amb @ self.frame(p).T
        gap = np.abs(self.exp(p, U) - Q).max(initial=0.0)
        if not gap < self.LOG_TOL:
            raise GeometryError("log map round trip missed by %.3g" % gap)
        return U


# -- geodesic integrator ---------------------------------------------------------

# Cap on the accepted steps of one integration, so a diverging log fails
# instead of integrating ever longer geodesics. 96 geodesics of length 1
# take 13 steps from (0.499, 0.455) and 173 from the scalar-curvature
# maximum; of length 5, 367 from (0.499, 0.455) and 401 from (0.3, -0.2).
MAX_STEPS = 500


def _dop853(fun, y, rtol, atol):
    """y(1) of the autonomous system y' = fun(t, y), y(0) = y, by at most
    MAX_STEPS steps of scipy's DOP853 stepper over [0, 1].

    Raises GeometryError on a non-finite initial state, on a first step
    that is not a positive number (a NaN right-hand side; the stepper would
    retry it forever), on a failed step, or past MAX_STEPS steps. The
    solver's closures hold it in a reference cycle, so its attributes are
    cleared on the way out: nothing of the integration outlives the call.
    """
    if not np.isfinite(y).all():
        raise GeometryError("geodesic integration failed: initial state is "
                            "not finite")
    solver = DOP853(fun, 0.0, y, 1.0, rtol=rtol, atol=atol)
    try:
        if not solver.h_abs > 0:
            raise GeometryError("geodesic integration failed: first step %.3g"
                                % solver.h_abs)
        for _ in range(MAX_STEPS):
            message = solver.step()
            if solver.status == "finished":
                return solver.y
            if solver.status == "failed":
                raise GeometryError("geodesic integration failed at t = %.6g: "
                                    "%s" % (solver.t, message))
        raise GeometryError("geodesic integration failed: %d steps reached "
                            "t = %.6g" % (MAX_STEPS, solver.t))
    finally:
        vars(solver).clear()


class ConformalSphere2D(ModelManifold):
    """Two-sphere with a conformally perturbed round metric.

    The chart is the stereographic plane; the metric is exp(2 f(z)) times the
    Euclidean one, where f is the round factor log(2 / (1 + |z|^2)) plus a
    sum of Gaussian bumps b = A exp(-|D|^2 / (2 sigma^2)), D = z - c. Bumps
    break the symmetry, so the scalar curvature has genuine critical points.
    The Gauss curvature K = -exp(-2f) lap f and its gradient need only the
    traces lap f and grad lap f, in closed form from the planar identities

        lap log(1 + |z|^2) = 4 / (1 + |z|^2)^2,
        lap b = b (|D|^2 / sigma^4 - 2 / sigma^2),
        grad lap b = b D (4 / sigma^4 - |D|^2 / sigma^6).

    The frame is E_i = exp(-f) d_i, smooth across the whole chart. exp
    integrates the conformal geodesic equations, which read only grad f, on
    coordinate columns, by driving scipy's DOP853 stepper (_dop853, which
    clears the solver on the way out, so nothing is kept past the call); a
    batch shares one integration. log inverts it by a per-point good
    Broyden iteration (Broyden 1965) in inverse form, one batched exp per
    step, so a batch of points around one base, such as all leaves of a
    foliation chart, takes one log, whose exit test is the round trip of
    the contract. Failures raise GeometryError.
    """

    dim = 2
    # the Gaussian bumps (A, c, sigma)
    BUMPS = (
        (0.12, np.array([0.4, 0.0]), 0.7),
        (-0.08, np.array([-0.3, 0.5]), 0.9),
    )
    # relative and absolute tolerances of the geodesic integration
    RTOL = 1e-12
    ATOL = 1e-13
    # the log map's cap on secant steps (one exp integration each)
    LOG_MAX_ITER = 80
    # the scalar-curvature maximum, set by the first scalar_max_point()
    _scalar_max = None

    def origin(self):
        return np.zeros(2)

    # -- conformal factor and curvature -------------------------------------

    def _f(self, Z):
        """f at points Z (n, 2), shape (n,)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        # round part h(u) = log 2 - log(1 + u), u = |z|^2
        f = math.log(2.0) - np.log1p(np.einsum("pi,pi->p", Z, Z))
        for A, c, sg in self.BUMPS:
            D = Z - c[None, :]
            q = np.einsum("pi,pi->p", D, D)
            f = f + A * np.exp(-q / (2.0 * sg**2))
        return f

    def _df(self, x, y):
        """Chart gradient (d_x f, d_y f) of f at the points with coordinate
        columns x and y: all the geodesic equations read. Out of place on
        purpose: numpy's in-place ops cost more on one-point columns."""
        c1 = -2.0 / (1.0 + (x * x + y * y))
        dfx = c1 * x
        dfy = c1 * y
        for A, c, sg in self.BUMPS:
            dx = x - c[0]
            dy = y - c[1]
            b = A * np.exp((dx * dx + dy * dy) / (-2.0 * sg**2))
            dfx = dfx - b * dx / sg**2
            dfy = dfy - b * dy / sg**2
        return dfx, dfy

    def _curvature_jet(self, Z):
        """(f, K, dK chart-gradient) at points Z, with K = -e^(-2f) lap f
        from the closed-form traces lap f and grad lap f."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        f, df = self._f(Z), np.stack(self._df(Z[:, 0], Z[:, 1]), axis=1)
        w = 1.0 / (1.0 + np.einsum("pi,pi->p", Z, Z))
        lap = -4.0 * w**2
        dlap = (16.0 * w**3)[:, None] * Z
        for A, c, sg in self.BUMPS:
            D = Z - c[None, :]
            q = np.einsum("pi,pi->p", D, D)
            b = A * np.exp(-q / (2.0 * sg**2))
            lap = lap + b * (q / sg**4 - 2.0 / sg**2)
            dlap = dlap + (b * (4.0 / sg**4 - q / sg**6))[:, None] * D
        e2f = np.exp(-2.0 * f)
        K = -e2f * lap
        dK = -e2f[:, None] * dlap - 2.0 * df * K[:, None]
        return f, K, dK

    def packet(self, p):
        f, K, dK = self._curvature_jet(p)
        K = float(K[0])
        T = _model_tensor(2)
        frame_dK = math.exp(-f[0]) * dK[0]
        return CurvaturePacket(
            dim=2,
            scalar=2.0 * K,
            scalar_gradient=2.0 * frame_dK,
            ricci=K * np.eye(2),
            riemann=K * T,
            nabla_riemann=np.einsum("ijkl,m->ijklm", T, frame_dK),
        )

    # -- geodesic flow -----------------------------------------------------

    def _geodesic_rhs(self, t, state):
        """z'' = -2 (df . z') z' + |z'|^2 df on the state (z, z') of a
        batch, each half point-major, read as coordinate columns; the flow
        is autonomous, so t is unused."""
        n2 = len(state) // 2
        x, y = state[0:n2:2], state[1:n2:2]
        u, v = state[n2::2], state[n2 + 1::2]
        dfx, dfy = self._df(x, y)
        fv = -2.0 * (dfx * u + dfy * v)
        vv = u * u + v * v
        out = np.empty_like(state)
        out[:n2] = state[n2:]
        out[n2::2] = fv * u + vv * dfx
        out[n2 + 1::2] = fv * v + vv * dfy
        return out

    def exp(self, p, V):
        p = np.asarray(p, dtype=float)
        V = np.atleast_2d(np.asarray(V, dtype=float))
        n = V.shape[0]
        if np.abs(V).max(initial=0.0) == 0.0:
            return np.tile(p, (n, 1))
        f0 = float(self._f(p)[0])
        Vc = V * math.exp(-f0)  # chart components of the initial velocity
        Z0 = np.tile(p, (n, 1))
        state0 = np.concatenate([Z0.ravel(), Vc.ravel()])
        end = _dop853(self._geodesic_rhs, state0, self.RTOL, self.ATOL)
        return end[: 2 * n].reshape(n, 2)

    def log(self, p, Q):
        p = np.asarray(p, dtype=float)
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        f0 = float(self._f(p)[0])
        scale = math.exp(f0)
        U = scale * (Q - p[None, :])  # first-order seed in frame coefficients
        # per-point inverse Jacobian of U -> exp(p, U), first guess e^f0 I
        H = np.tile(scale * np.eye(2), (Q.shape[0], 1, 1))
        for it in range(self.LOG_MAX_ITER):
            gap = Q - self.exp(p, U)
            if np.abs(gap).max() < self.LOG_TOL:
                return U
            if it > 0:
                # good Broyden update in inverse form, skipped where dU'H delta
                # is exactly 0 (an already-converged point)
                delta = gap_old - gap
                Hd = np.einsum("pij,pj->pi", H, delta)
                uH = np.einsum("pi,pij->pj", dU, H)
                den = np.einsum("pi,pi->p", uH, delta)
                live = den != 0.0
                H[live] += (dU - Hd)[live, :, None] * (
                    uH[live] / den[live, None]
                )[:, None, :]
            dU = np.einsum("pij,pj->pi", H, gap)
            U = U + dU
            gap_old = gap
        raise GeometryError("log map did not converge")

    def scalar_max_point(self):
        """Chart location of the (local) maximum of the scalar curvature.

        Found on the first call and kept read-only for the later ones; a
        failed search keeps nothing, so every call raises GeometryError.
        """
        if self._scalar_max is not None:
            return self._scalar_max

        def neg(z):
            _, K, dK = self._curvature_jet(z)
            return -2.0 * K[0], -2.0 * dK[0]

        res = minimize(neg, np.zeros(2), jac=True, method="BFGS", tol=1e-14)
        # BFGS stops on roundoff ("precision loss") about 1e-8 short of the
        # critical point; a root solve on the exact gradient finishes it
        crit = root(lambda z: neg(z)[1], res.x)
        if not crit.success:
            raise GeometryError("scalar curvature maximum not found: %s"
                                % crit.message)
        crit.x.setflags(write=False)
        self._scalar_max = crit.x
        return crit.x


# -- metric jet ----------------------------------------------------------------

# Points per elementwise pass of MetricJet.laplace_coefficients (whole radii
# of the product set): a block's few dozen component arrays stay in cache,
# and the allocator reuses its temporaries instead of faulting in fresh
# pages for each of them. At N=3 (P = 37584, 5 blocks, 1 BLAS thread,
# 2-vCPU x86_64 VM) the flux tensor took 7.1-7.6 ms against 15.8-16.4 ms in
# one pass, alternating in one process; 4096 and 16384 points were slower
# than 8192.
BLOCK_POINTS = 8192


class MetricJet:
    """Pointwise metric of a perturbed geodesic ball, pulled back to B_1.

    Composition of two maps: x -> rho(x) x deforms the unit ball onto the
    star-shaped domain {r < 1 + v0 + vbar(theta)}, then scaled normal
    coordinates y -> exp_p(eps y E) land it on the manifold. rho is the
    solid-harmonic extension 1 + v0 + sum_k w_k of the boundary profile,
    where w_k is the degree-k part of vbar extended as a homogeneous
    harmonic polynomial. It takes the boundary values at r = 1 and is a
    polynomial, so the pulled-back metric is smooth on the closed ball;
    only the boundary is part of the construction, and the boundary result
    does not depend on the interior extension. The degree-1 part of a
    perturbation is a boundary translation handled by the outer solver and
    never deforms the domain here.

    The pointwise methods take arbitrary points of B_1, or with radii the
    directions of the product set {r theta}, flattened radius-major like
    BallGrid.points (see SphereBasis.solid_jet).

    The normal-coordinate metric is the cubic model built from the
    curvature packet at p, on every manifold. The chart point of x is
    Y = eps rho(x) x, so on the product set it is s theta with
    s = eps rho r, and _chart evaluates the model from the two direction
    tables of cubic_chart, n_ang-sized, rebuilt on every call. Only
    metric_and_grad, the boundary metric of neumann_trace, also reads the
    chart's first derivatives (_chart_gradient) and d2 rho.
    """

    def __init__(self, manifold, p, eps, state=None):
        self.manifold = manifold
        self.p = p
        self.eps = float(eps)
        self.state = state
        self.packet = manifold.packet(p)
        self.dim = manifold.dim
        # the boundary displacement that rho extends: v0 + vbar, or zero
        if state is not None:
            self._profile = state.domain_profile()
        else:
            self._profile = SphereFunction.zero(get_basis(self.dim, 0))

    # -- the domain map rho --------------------------------------------------

    def rho_jet(self, pts, radii=None):
        """(rho, d rho, d2 rho) at points of B_1, or on the product set of
        the directions pts with radii; shapes (P,), (P,N), (P,N,N)."""
        prof = self._profile
        w, dw, d2w = prof.basis.solid_jet(prof.coeffs, pts, radii)
        return 1.0 + w, dw, d2w

    def _chart(self, dirs, s):
        """Packed gbar of the normal-coordinate metric at the true normal
        coordinates s theta, theta in dirs (see cubic_chart)."""
        return cubic_chart(self.packet, dirs, s)

    def _chart_gradient(self, dirs, s):
        """Packed dgbar at the same points (see cubic_chart_gradient)."""
        return cubic_chart_gradient(self.packet, dirs, s)

    # -- metric callbacks ------------------------------------------------------

    def metric_and_grad(self, pts, radii=None):
        """(g (P,N,N), dg (P,N,N,N)) of the pulled-back metric at unit-ball
        points; dg[p,c,i,j] = d_c g_ij. Includes the eps^2 scaling of the
        ball, i.e. the flat case returns the identity."""
        rho, drho, d2rho = self.rho_jet(pts, radii)
        dirs = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.ones(1) if radii is None else np.asarray(radii, dtype=float)
        s = self.eps * rho.reshape(len(r), -1) * r[:, None]
        gbar = self._chart(dirs, s)
        dgbar = self._chart_gradient(dirs, s)
        pts = product_points(pts, radii)
        P, N = pts.shape
        # unpacked point-major, (P, N, N) and (P, N, N, N)
        ix = packed_index(N)
        gbar = gbar.reshape(-1, P)[ix].transpose(2, 0, 1).copy()
        dgbar = dgbar.reshape(N, -1, P)[:, ix].transpose(3, 0, 1, 2).copy()
        dgbar *= self.eps  # chain rule from true to scaled coordinates
        # J[p,a,i] = d_i Y^a; K[p,a,i,c] = d_c d_i Y^a
        eye = np.eye(N)
        J = np.einsum("pi,pa->pai", drho, pts) + rho[:, None, None] * eye[None]
        K = (
            np.einsum("pic,pa->paic", d2rho, pts)
            + np.einsum("pi,ac->paic", drho, eye)
            + np.einsum("pc,ai->paic", drho, eye)
        )
        # g = J^T gbar J and d_c g = J^T (d_e gbar J^e_c) J + K_c^T gbar J
        # + its transpose (gbar is symmetric), as batched matrix products
        Jt = J.transpose(0, 2, 1)
        GJ = gbar @ J
        g = Jt @ GJ
        dg = np.einsum("pec,peij->pcij", J, Jt[:, None] @ dgbar @ J[:, None])
        KGJ = np.einsum("paic,paj->pcij", K, GJ)
        dg += KGJ
        dg += KGJ.transpose(0, 1, 3, 2)
        return g, dg

    def laplace_coefficients(self, pts, radii=None):
        """(F (N(N+1)/2, P), sqrt det g (P,)) of the pulled-back metric at
        unit-ball points: the flux tensor F = sqrt det g g^-1 of the
        divergence form sqrt det g lap_g u = div(F grad u), and the volume
        element. Component-major: F is packed to its upper triangle in
        packed_pairs(N) order, each component a block of P points.

        The chart is evaluated once at Y = rho x, and its own flux tensor
        Fbar = sqrt det gbar gbar^-1 (by cofactors) is pulled through the
        Jacobian J = rho I + x (d rho)^T, a rank-one update of a multiple of
        the identity: with q = rho + x . d rho, J^-1 = (I - x (d rho)^T / q)
        / rho and det J = rho^(N-1) q, so

            F = det J J^-1 Fbar J^-T,    sqrt det g = det J sqrt det gbar.

        Only gbar, rho and d rho enter. sqrt det g is NaN wherever gbar is
        not positive definite (leading minors) or det J is not positive (a
        folded domain map); on an unfolded map that is exactly where g is
        not positive definite.

        One elementwise pass per block of about BLOCK_POINTS points (whole
        radii of the product set), each writing its slice of one output.
        """
        rho, drho, _ = self.rho_jet(pts, radii)
        dirs = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.ones(1) if radii is None else np.asarray(radii, dtype=float)
        (n, N), n_r = dirs.shape, len(r)
        # component-major (.., n_r, n) views, strided over rho_jet's arrays
        rho = rho.reshape(n_r, n)
        drho = drho.T.reshape(N, n_r, n)
        out = np.empty((N * (N + 1) // 2 + 1, n_r, n))
        step = max(1, BLOCK_POINTS // n)
        for i in range(0, n_r, step):
            rows = slice(i, i + step)
            self._flux_block(dirs, r[rows], rho[rows], drho[:, rows],
                             out[:, rows])
        out = out.reshape(len(out), n_r * n)
        return out[:-1], out[-1]

    def _flux_block(self, dirs, r, rho, drho, out):
        """laplace_coefficients on the product set of dirs with r, from the
        component-major rho and d rho; writes F and sqrt det g into the
        rows of out."""
        N = dirs.shape[1]
        ix = packed_index(N)
        gbar = self._chart(dirs, self.eps * rho * r[:, None])
        x = r[:, None] * dirs.T[:, None, :]
        Fbar, det = _packed_cofactors(gbar)
        q = rho + sum(x[i] * drho[i] for i in range(N))
        det_J = rho ** (N - 1) * q
        # NaN marks a point off the envelope; it propagates to every output
        det[~(det_J > 0)] = np.nan
        root = np.sqrt(det)
        np.multiply(det_J, root, out=out[-1])
        Fbar /= root
        # with m = Fbar d rho and s = m . d rho, rho^2 J^-1 Fbar J^-T is
        # Fbar - x u^T - u x^T for u = m / q - s x / (2 q^2)
        m = [sum(Fbar[ix[i, j]] * drho[j] for j in range(N)) for i in range(N)]
        s = sum(m[i] * drho[i] for i in range(N))
        inv_q = 1.0 / q
        hs = 0.5 * s * inv_q
        u = [(m[i] - hs * x[i]) * inv_q for i in range(N)]
        F = out[:-1]
        for k, (i, j) in enumerate(zip(*packed_pairs(N))):
            np.subtract(Fbar[k], x[i] * u[j], out=F[k])
            F[k] -= u[i] * x[j]
        F *= det_J / (rho * rho)
