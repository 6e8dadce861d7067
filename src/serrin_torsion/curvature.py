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
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from .sphere_spectral import SphereFunction, get_basis, product_points

__all__ = [
    "CurvaturePacket",
    "ModelManifold",
    "FlatSpace",
    "ConstantCurvature",
    "ConformalSphere2D",
    "MetricJet",
]


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


# -- model manifolds -----------------------------------------------------------


class ModelManifold:
    """Uniform surface shared by the built-in geometries.

    Points use each geometry's own representation (ambient vectors for
    embedded spheres, chart coordinates otherwise); tangent data always uses
    coefficients against the manifold's orthonormal frame at the relevant
    point. exp/log accept (n, N) batches.
    """

    dim = None

    def origin(self):
        raise NotImplementedError

    def packet(self, p):
        raise NotImplementedError

    def scalar_curvature(self, p):
        return self.packet(p).scalar

    def scalar_gradient(self, p):
        return self.packet(p).scalar_gradient

    def exp(self, p, V):
        raise NotImplementedError

    def log(self, p, Q):
        raise NotImplementedError

    def distance(self, p, q):
        v = self.log(p, np.atleast_2d(self._point_array(q)))
        return float(np.linalg.norm(v[0]))

    @staticmethod
    def _point_array(p):
        return np.asarray(p, dtype=float)


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
        p = np.asarray(p, dtype=float)
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = self.radius
        c = np.clip(Q @ p / R**2, -1.0, 1.0)
        theta = np.arccos(c)
        W = Q - c[:, None] * p[None, :]
        norms = np.linalg.norm(W, axis=1)
        safe = np.where(norms > 1e-300, norms, 1.0)
        amb = (R * theta / safe)[:, None] * W
        amb[norms <= 1e-300] = 0.0
        E = self.frame(p)
        return amb @ E.T


class ConformalSphere2D(ModelManifold):
    """Two-sphere with a conformally perturbed round metric.

    The chart is the stereographic plane; the metric is exp(2 f(z)) times the
    Euclidean one, where f is the round factor log(2 / (1 + |z|^2)) plus a
    sum of Gaussian bumps A exp(-|z - c|^2 / (2 sigma^2)). Bumps break the
    symmetry, so the scalar curvature has genuine critical points. The frame
    is E_i = exp(-f) d_i, smooth across the whole chart. exp integrates the
    conformal geodesic equations with a high-order adaptive scheme; a batch
    shares one ODE solve. log inverts it by a per-point good Broyden
    iteration (Broyden 1965) in inverse form, one batched exp per step.
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
    # the log map's tolerance on the chart gap, and its cap on secant steps
    # (one exp integration each)
    LOG_TOL = 1e-12
    LOG_MAX_ITER = 80

    def origin(self):
        return np.zeros(2)

    # -- conformal factor and derivatives, all orders through third --------

    def _f_jet(self, Z, order=1):
        """f and derivatives at points Z (n, 2).

        Returns a tuple of arrays (f, df, [d2f, [d3f]]) up to the requested
        order, with the derivative index axes appended.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n = Z.shape[0]
        u = np.einsum("pi,pi->p", Z, Z)
        d = np.eye(2)
        # round part through h(u) = log 2 - log(1 + u)
        c1 = -1.0 / (1.0 + u)
        c2 = 1.0 / (1.0 + u) ** 2
        c3 = -2.0 / (1.0 + u) ** 3
        f = math.log(2.0) - np.log1p(u)
        df = c1[:, None] * 2.0 * Z
        out2 = None
        out3 = None
        if order >= 2:
            out2 = 4.0 * c2[:, None, None] * Z[:, :, None] * Z[:, None, :]
            out2 += 2.0 * c1[:, None, None] * d[None]
        if order >= 3:
            zz = Z[:, :, None, None] * Z[:, None, :, None] * Z[:, None, None, :]
            sym = (
                np.einsum("ij,pk->pijk", d, Z)
                + np.einsum("ik,pj->pijk", d, Z)
                + np.einsum("jk,pi->pijk", d, Z)
            )
            out3 = 8.0 * c3[:, None, None, None] * zz + 4.0 * c2[:, None, None, None] * sym
        for A, c, sg in self.BUMPS:
            D = Z - c[None, :]
            q = np.einsum("pi,pi->p", D, D)
            b = A * np.exp(-q / (2.0 * sg**2))
            f = f + b
            db = -b[:, None] * D / sg**2
            df = df + db
            if order >= 2:
                out2 = out2 + b[:, None, None] * (
                    D[:, :, None] * D[:, None, :] / sg**4 - d[None] / sg**2
                )
            if order >= 3:
                dd = D[:, :, None, None] * D[:, None, :, None] * D[:, None, None, :]
                symb = (
                    np.einsum("ij,pk->pijk", d, D)
                    + np.einsum("ik,pj->pijk", d, D)
                    + np.einsum("jk,pi->pijk", d, D)
                )
                out3 = out3 + b[:, None, None, None] * (
                    -dd / sg**6 + symb / sg**4
                )
        result = [f, df]
        if order >= 2:
            result.append(out2)
        if order >= 3:
            result.append(out3)
        return tuple(result)

    def _curvature_jet(self, Z):
        """(K, dK chart-gradient) at points Z."""
        f, df, d2f, d3f = self._f_jet(Z, order=3)
        lap = np.einsum("pii->p", d2f)
        K = -np.exp(-2.0 * f) * lap
        dlap = np.einsum("piim->pm", d3f)
        dK = -np.exp(-2.0 * f)[:, None] * dlap - 2.0 * df * K[:, None]
        return K, dK

    def scalar_gradient(self, p):
        # packet(p) rounds 2 (e^-f dK), a bit off from (2 e^-f) dK here
        Z = np.atleast_2d(p)
        f = self._f_jet(Z, order=1)[0]
        _, dK = self._curvature_jet(Z)
        return 2.0 * np.exp(-f[0]) * dK[0]

    def packet(self, p):
        Z = np.atleast_2d(p)
        f = self._f_jet(Z, order=1)[0][0]
        K, dK = self._curvature_jet(Z)
        K = float(K[0])
        T = _model_tensor(2)
        frame_dK = math.exp(-f) * dK[0]
        return CurvaturePacket(
            dim=2,
            scalar=2.0 * K,
            scalar_gradient=2.0 * frame_dK,
            ricci=K * np.eye(2),
            riemann=K * T,
            nabla_riemann=np.einsum("ijkl,m->ijklm", T, frame_dK),
        )

    # -- geodesic flow -----------------------------------------------------

    def _geodesic_rhs(self, state):
        n = state.shape[0] // 4
        Z = state[: 2 * n].reshape(n, 2)
        V = state[2 * n :].reshape(n, 2)
        _, df = self._f_jet(Z, order=1)
        fv = np.einsum("pi,pi->p", df, V)
        vv = np.einsum("pi,pi->p", V, V)
        acc = -2.0 * fv[:, None] * V + vv[:, None] * df
        return np.concatenate([V.ravel(), acc.ravel()])

    def exp(self, p, V):
        p = np.asarray(p, dtype=float)
        V = np.atleast_2d(np.asarray(V, dtype=float))
        n = V.shape[0]
        if np.abs(V).max(initial=0.0) == 0.0:
            return np.tile(p, (n, 1))
        f0 = float(self._f_jet(p[None, :], order=1)[0][0])
        Vc = V * math.exp(-f0)  # chart components of the initial velocity
        Z0 = np.tile(p, (n, 1))
        state0 = np.concatenate([Z0.ravel(), Vc.ravel()])
        sol = solve_ivp(
            lambda t, y: self._geodesic_rhs(y),
            (0.0, 1.0),
            state0,
            method="DOP853",
            rtol=self.RTOL,
            atol=self.ATOL,
        )
        if not sol.success:
            raise RuntimeError("geodesic integration failed: %s" % sol.message)
        end = sol.y[:, -1]
        return end[: 2 * n].reshape(n, 2)

    def log(self, p, Q):
        p = np.asarray(p, dtype=float)
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        f0 = float(self._f_jet(p[None, :], order=1)[0][0])
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
        raise RuntimeError("log map did not converge")

    def scalar_max_point(self):
        """Chart location of the (local) maximum of the scalar curvature."""

        def neg(z):
            K, dK = self._curvature_jet(z[None, :])
            return -2.0 * K[0], -2.0 * dK[0]

        res = minimize(neg, np.zeros(2), jac=True, method="BFGS", tol=1e-14)
        return res.x


# -- metric jet ----------------------------------------------------------------


def _sym_cofactors(g):
    """Cofactor matrix, determinant and leading 1x1 / 2x2 minor of symmetric
    (P, N, N) matrices, N = 2 or 3, in closed form; g is positive definite
    where the minor and the determinant are positive (Sylvester)."""
    cof = np.empty_like(g)
    if g.shape[1] == 2:
        cof[:, 0, 0] = g[:, 1, 1]
        cof[:, 1, 1] = g[:, 0, 0]
        cof[:, 0, 1] = cof[:, 1, 0] = -g[:, 0, 1]
        minor = g[:, 0, 0]
    else:
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = g.transpose(1, 2, 0)
        cof[:, 0, 0] = g11 * g22 - g12 * g12
        cof[:, 1, 1] = g00 * g22 - g02 * g02
        cof[:, 2, 2] = g00 * g11 - g01 * g01
        cof[:, 0, 1] = cof[:, 1, 0] = g02 * g12 - g01 * g22
        cof[:, 0, 2] = cof[:, 2, 0] = g01 * g12 - g02 * g11
        cof[:, 1, 2] = cof[:, 2, 1] = g01 * g02 - g00 * g12
        minor = np.minimum(g00, cof[:, 2, 2])
    det = np.einsum("pa,pa->p", g[:, 0], cof[:, 0])
    return cof, det, minor


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

    The normal-coordinate metric is the cubic model of truncated_chart,
    built from the curvature packet at p, on every manifold.
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

    def _chart(self, Y):
        """(gbar, dgbar) of the normal-coordinate metric at true normal
        coordinates Y (P, N)."""
        return truncated_chart(self.packet, Y)

    # -- metric callbacks ------------------------------------------------------

    def metric_and_grad(self, pts, radii=None):
        """(g (P,N,N), dg (P,N,N,N)) of the pulled-back metric at unit-ball
        points; dg[p,c,i,j] = d_c g_ij. Includes the eps^2 scaling of the
        ball, i.e. the flat case returns the identity."""
        rho, drho, d2rho = self.rho_jet(pts, radii)
        pts = product_points(pts, radii)
        N = pts.shape[1]
        Y = rho[:, None] * pts
        # J[p,a,i] = d_i Y^a; K[p,a,i,c] = d_c d_i Y^a
        eye = np.eye(N)
        J = np.einsum("pi,pa->pai", drho, pts) + rho[:, None, None] * eye[None]
        K = (
            np.einsum("pic,pa->paic", d2rho, pts)
            + np.einsum("pi,ac->paic", drho, eye)
            + np.einsum("pc,ai->paic", drho, eye)
        )
        gbar, dgbar = self._chart(self.eps * Y)
        dgbar = dgbar * self.eps  # chain rule from true to scaled coordinates
        g = np.einsum("pab,pai,pbj->pij", gbar, J, J, optimize=True)
        dg = np.einsum("peab,pec,pai,pbj->pcij", dgbar, J, J, J, optimize=True)
        dg += np.einsum("pab,paic,pbj->pcij", gbar, K, J, optimize=True)
        dg += np.einsum("pab,pai,pbjc->pcij", gbar, J, K, optimize=True)
        return g, dg

    def laplace_coefficients(self, pts, radii=None):
        """(g^-1 (P,N,N), b (P,N), sqrt det g (P,)) of the pulled-back metric
        Laplacian lap_g u = g^ij u_ij + b^j u_j at unit-ball points, with
        b = g^-1 ((1/2) d log det g - w), w_l = g^ik d_i g_kl.

        The chart is evaluated once at Y = rho x, and its own operator
        (gbar^-1 by cofactors, bbar = gbar^-1 ((1/2) d log det gbar - wbar))
        is pulled through the Jacobian J = rho I + x (d rho)^T, a rank-one
        update of a multiple of the identity: with q = rho + x . d rho,
        J^-1 = (I - x (d rho)^T / q) / rho and det J = rho^(N-1) q, so

            g^-1 = J^-1 gbar^-1 J^-T,    sqrt det g = det J sqrt det gbar,
            b = J^-1 (bbar - x tr(g^-1 d2 rho) - 2 g^-1 d rho).

        sqrt det g is NaN wherever gbar is not positive definite (leading
        minors) or det J is not positive (a folded domain map); on an
        unfolded map that is exactly where g is not positive definite.
        """
        rho, drho, d2rho = self.rho_jet(pts, radii)
        x = product_points(pts, radii)
        N = x.shape[1]
        gbar, dgbar = self._chart(self.eps * (rho[:, None] * x))
        cof, det, minor = _sym_cofactors(gbar)
        q = rho + np.einsum("pi,pi->p", x, drho)
        det_J = rho ** (N - 1) * q
        # NaN marks a point off the envelope; it propagates to every output
        det[~((minor > 0) & (det > 0) & (det_J > 0))] = np.nan
        M = cof / det[:, None, None]
        dlog = np.einsum("pab,pcab->pc", M, dgbar)
        w = np.einsum("pik,pikl->pl", M, dgbar)
        # eps: chain rule from true to scaled coordinates
        bbar = np.einsum("pij,pj->pi", M, self.eps * (0.5 * dlog - w))
        # pull-back: with m = gbar^-1 d rho and s = m . d rho, g^-1 is
        # (M - x u^T - u x^T) / rho^2 for u = m / q - s x / (2 q^2);
        # J^-1 x = x / q and g^-1 d rho = J^-1 m / q = (m - s x / q) / (rho q)
        m = np.einsum("pij,pj->pi", M, drho)
        s = np.einsum("pi,pi->p", m, drho)
        u = (m - (0.5 * s / q)[:, None] * x) / q[:, None]
        xu = x[:, :, None] * u[:, None, :]
        ginv = M - xu
        ginv -= xu.transpose(0, 2, 1)
        ginv /= (rho**2)[:, None, None]
        t = np.einsum("pij,pij->p", ginv, d2rho)
        # b = J^-1 v - t x / q with v = bbar - 2 g^-1 d rho, and
        # J^-1 v = (v - x (d rho . v) / q) / rho
        v = bbar - (2.0 / (rho * q))[:, None] * (m - (s / q)[:, None] * x)
        dv = np.einsum("pi,pi->p", drho, v)
        drift = v / rho[:, None] - ((dv / rho + t) / q)[:, None] * x
        return ginv, drift, det_J * np.sqrt(det)
