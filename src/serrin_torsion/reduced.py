"""Reduced energy of perturbed geodesic balls and its critical points.

The reduced functional assigns to each ball center the torsion energy of
the solved over-determined domain plus a volume term; its critical points
are exactly the centers whose solutions carry no translation-kernel
component. This module evaluates that functional, locates its critical
points by one Newton search on the kernel component whose Jacobian is the
curvature model c_N eps^3 Hess S (no derivative-free re-seed), and
cross-checks the underlying shape calculus by independent finite
differences.
"""

import numpy as np
from dataclasses import dataclass

from .ball_solver import (
    dirichlet_solve_full,
    get_grid,
    neumann_trace,
)
from .curvature import FlatSpace, MetricJet
from .serrin import kernel_response_constant
from .sphere_spectral import ball_volume, product_points

__all__ = [
    "ReducedReport",
    "SearchError",
    "constants",
    "find_critical",
    "reduced_functional",
    "shape_derivative_check",
    "tangential_derivative_check",
]


class SearchError(RuntimeError):
    """Critical-point search failed to converge inside the chart."""


# find_critical: Newton steps on the kernel component, the step of the
# central differences of grad S that give the model Jacobian, and the
# largest distance an iterate may move from the start point.
MAX_POLISH = 12
HESSIAN_STEP = 1e-4
CHART_RADIUS = 1.5


def constants(N):
    """Closed-form constants of the energy expansion: (alpha, beta, J1, c).

    alpha is the flat value of the reduced energy, beta its response
    coefficient against eps^2 times scalar curvature, J1 the torsion energy
    of the Euclidean unit ball, and c the volume-normalized coefficient of
    the isochoric profile comparison.
    """
    if N < 2:
        raise ValueError("dimension must be at least 2")
    b1 = ball_volume(N)
    J1 = N * (N + 2.0) / b1
    alpha = (N**3 * (N + 2.0) + b1**2) / (N**2 * b1)
    beta = (N**2 * (N + 2.0) ** 3 - (N + 4.0) * b1**2) / (
        2.0 * N**2 * (N + 2.0) * (N + 4.0) * b1
    )
    c = b1 ** (-2.0 / N) / (N * (N + 4.0))
    if abs(beta) <= 1e-6:
        raise ValueError("degenerate eps^2 coefficient at N = %d" % N)
    return alpha, beta, J1, c


# -- the reduced functional ----------------------------------------------------


@dataclass
class ReducedReport:
    """Energy accounting of one converged solve."""

    eps: float
    point: np.ndarray
    J_value: float
    volume: float
    boundary_area: float
    phi_eps: float
    F_value: float
    flat: bool
    torsion: float
    solution: object

    def to_record(self):
        rec = {
            "eps": self.eps,
            "point": [float(x) for x in np.atleast_1d(self.point)],
            "J": self.J_value,
            "volume": self.volume,
            "area": self.boundary_area,
            "phi_eps": self.phi_eps,
            "F": self.F_value,
            "flat": self.flat,
            "torsion": self.torsion,
        }
        rec.update(
            {
                "a_norm": float(np.linalg.norm(self.solution.state.a)),
                "v_sobolev": self.solution.v_norm(),
            }
        )
        return rec


def _is_flat(manifold, p):
    packet = manifold.packet(p)
    return bool(
        np.abs(packet.riemann).max() < 1e-12
        and np.abs(packet.nabla_riemann).max() < 1e-12
    )


def reduced_functional(problem, p, eps, solution=None):
    """Evaluate the reduced energy at a ball center.

    problem is a SerrinProblem; the solve is reused when passed in. The
    energy J = 1 / torsion and the volume term are read off the accounting
    the solve recorded, so nothing is re-evaluated here. The report's
    normalized field F rescales the energy offset by the eps^2
    response coefficient, except on flat manifolds where that quotient is
    0/0 and the report carries a flat flag instead.
    """
    p = np.asarray(p, dtype=float)
    sol = solution if solution is not None else problem.solve(p, eps)
    J = 1.0 / sol.torsion
    N = problem.manifold.dim
    phi_eps = J + sol.volume / N**2
    alpha, beta, _, _ = constants(N)
    flat = _is_flat(problem.manifold, p)
    F = 0.0 if flat else (phi_eps - alpha) / (beta * eps**2)
    return ReducedReport(
        eps=eps,
        point=p,
        J_value=J,
        volume=sol.volume,
        boundary_area=sol.area,
        phi_eps=phi_eps,
        F_value=F,
        flat=flat,
        torsion=sol.torsion,
        solution=sol,
    )


# -- critical-point search -------------------------------------------------


def find_critical(
    problem,
    eps,
    p_init=None,
    seed=0,
    jitter=0.01,
    tol=1e-9,
):
    """Locate a center whose solution has no translation-kernel component.

    Starts from p_init (falling back to the manifold's scalar-curvature
    maximum when it exposes one, else the origin), applies seeded jitter,
    and drives the kernel component a(p) to zero by Newton steps. Since
    a = kernel_response_constant(N) eps^3 grad S + O(eps^4), the Jacobian
    is the model c_N eps^3 Hess S, from central differences of the
    scalar-curvature gradient at every iterate, so no solve is spent on it.
    All stepping goes through the exponential map with tangent-frame
    coefficients, so embedded and chart-based point representations are
    handled alike. There is no derivative-free re-seed: a singular model
    Jacobian (Hess S = 0, as on constant curvature), a step longer than
    0.5, an iterate farther than CHART_RADIUS from p_init, or MAX_POLISH
    steps without reaching tol raise SearchError, and an EnvelopeError of a
    solve propagates. Returns (point, solution, info).
    """
    manifold = problem.manifold
    N = manifold.dim
    rng = np.random.default_rng(seed)
    if p_init is None:
        if hasattr(manifold, "scalar_max_point"):
            p_init = manifold.scalar_max_point()
        else:
            p_init = manifold.origin()
    p_init = np.asarray(p_init, dtype=float)

    def move(p, w):
        return manifold.exp(p, np.atleast_2d(w))[0]

    scale = kernel_response_constant(N) * eps**3
    axes = HESSIAN_STEP * np.vstack([np.eye(N), -np.eye(N)])

    def model_jacobian(p):
        grads = np.array(
            [manifold.scalar_gradient(q) for q in manifold.exp(p, axes)]
        )
        return scale * (grads[:N] - grads[N:]).T / (2.0 * HESSIAN_STEP)

    p = start = move(p_init, jitter * rng.standard_normal(N))
    sol = problem.solve(p, eps)
    solves = 1
    anorm = best = float(np.linalg.norm(sol.state.a))
    for _ in range(MAX_POLISH):
        if anorm < tol:
            break
        try:
            step = np.linalg.solve(model_jacobian(p), sol.state.a)
        except np.linalg.LinAlgError as exc:
            raise SearchError("singular model Jacobian (Hess S)") from exc
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 0.5:
            raise SearchError("kernel-component Newton step diverged")
        p = move(p, -step)
        if manifold.distance(p_init, p) > CHART_RADIUS:
            raise SearchError("search left the chart")
        # warm-started from the previous iterate's perturbation
        sol = problem.solve(p, eps, v_init=sol.v_function())
        solves += 1
        anorm = float(np.linalg.norm(sol.state.a))
        best = min(best, anorm)
    if not anorm < tol:
        raise SearchError(
            "kernel component stalled at %.3g after %d Newton steps"
            % (best, MAX_POLISH)
        )
    info = {"solves": solves, "a_norm": anorm, "start": start}
    return p, sol, info


# -- shape-derivative checks --------------------------------------------------

# Parameter step of the finite-difference side of both checks, and the
# twist parameter at which the tangential check meets its closed form.
SHAPE_STEP = 1e-4
TWIST = 0.1


class _StarMapJet(MetricJet):
    """Pullback of the flat metric through x -> (1 + s eta(x)) x.

    eta is the solid-harmonic extension of a band-limited boundary speed,
    the domain map of MetricJet with the degree-1 part kept, so the metric
    is polynomial and the spectral solver keeps full accuracy; the
    boundary moves with normal speed s eta per unit s.
    """

    def __init__(self, s, speed):
        super().__init__(FlatSpace(2), np.zeros(2), 0.0)
        # the displacement that rho extends, here with its degree-1 part
        self._profile = speed * s


def _hadamard_sides(grid, normal_speed, jet_at):
    """Both sides of the Hadamard formula on the flat unit disk, for the
    normal speed at the nodes and the jets jet_at(s) of a domain family
    through the disk at s = 0: the record of -integral((J0 phi_nu)^2 speed),
    the central difference of J at +-SHAPE_STEP and J0, and J_at(s)."""
    basis = grid.basis
    base = MetricJet(FlatSpace(2), np.zeros(2), 0.0)
    phi0, info0 = dirichlet_solve_full(base, grid)
    J0 = 1.0 / info0["torsion"]
    trace, _ = neumann_trace(base, phi0)
    analytic = -float(
        basis.weights @ ((J0 * trace.node_values()) ** 2 * normal_speed)
    )

    def J_at(s):
        _, info = dirichlet_solve_full(jet_at(s), grid)
        return 1.0 / info["torsion"]

    fd = (J_at(SHAPE_STEP) - J_at(-SHAPE_STEP)) / (2.0 * SHAPE_STEP)
    return {"analytic": analytic, "finite_difference": fd, "J0": J0}, J_at


def shape_derivative_check(speed):
    """Boundary-integral energy derivative vs central finite differences.

    speed is an iterable of (degree, cos amplitude, sin amplitude) triples
    for the normal speed on the Euclidean unit disk. The analytic side is
    the classical Hadamard formula for the normalized torsion potential,
    -integral((J phi_nu)^2 speed); the finite-difference side re-solves the
    energy on the mapped domains at parameter +-SHAPE_STEP, on
    get_grid(2, 16). Returns a dict with both values and their relative gap.
    """
    grid = get_grid(2, 16)
    basis = grid.basis
    theta = np.arctan2(basis.nodes[:, 1], basis.nodes[:, 0])
    zeta = np.zeros(len(theta))
    for k, a, b in speed:
        if int(k) > basis.max_degree:
            raise ValueError(
                "speed degree %d exceeds max_degree %d" % (k, basis.max_degree)
            )
        zeta += float(a) * np.cos(int(k) * theta)
        zeta += float(b) * np.sin(int(k) * theta)
    speed_fn = basis.project_values(zeta)
    out, _ = _hadamard_sides(grid, zeta, lambda s: _StarMapJet(s, speed_fn))
    analytic, fd = out["analytic"], out["finite_difference"]
    out["rel_error"] = abs(fd - analytic) / max(abs(analytic), 1e-300)
    return out


class _TwistJet:
    """Pullback of the flat metric through the twist F_s(x) = x + s|x|^2 (-y, x).

    F_s maps the unit disk onto the disk of radius sqrt(1 + s^2), moving its
    boundary with the rotation field (-y, x) per unit s, while the
    pulled-back metric g = DF^T DF differs from the identity at O(s). The
    Laplacian is the flat one carried through F_s: its flux tensor is
    F = det DF DF^-1 DF^-T and sqrt det g = det DF.
    """

    def __init__(self, s):
        self.dim = 2
        self.s = float(s)

    def laplace_coefficients(self, pts, radii=None):
        x = product_points(pts, radii)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])  # the quarter turn
        q = np.einsum("pi,pi->p", x, x)
        # DF = I + s (2 (R x) x^T + |x|^2 R)
        DF = np.eye(2) + self.s * (
            2.0 * (x @ R.T)[:, :, None] * x[:, None, :] + q[:, None, None] * R
        )
        inv = np.linalg.inv(DF)
        det = np.linalg.det(DF)
        flux = det[:, None, None] * np.einsum("pik,pjk->pij", inv, inv)
        # the jet layout: component-major, F packed to its upper triangle
        i, j = np.triu_indices(2)
        return flux[:, i, j].T, det


def tangential_derivative_check():
    """Purely tangential deformation: both sides of the check vanish, and
    the energy meets its closed form.

    The twist F_s moves the boundary with the rotation field (-y, x), whose
    normal component is identically zero, so the analytic boundary
    integral picks up exact zeros; it takes the trace of the unit disk from
    the flat MetricJet, since F_0 is the identity. The energy is even in s
    (a reflection conjugates F_s to F_-s), so the finite-difference side
    vanishes too. Since F_s maps onto the disk of radius sqrt(1 + s^2),
    J(s) = J0 (1 + s^2)^-2 exactly; the record carries the relative gap
    at s = TWIST, which a wrong flux tensor or volume element opens. Solves
    run on get_grid(2, 16).
    """
    grid = get_grid(2, 16)
    basis = grid.basis
    nodes = basis.nodes
    normal_speed = np.einsum(
        "pi,pi->p", np.stack([-nodes[:, 1], nodes[:, 0]], axis=1), nodes
    )
    out, J_at = _hadamard_sides(grid, normal_speed, _TwistJet)
    J_twist = J_at(TWIST)
    out["closed_form_gap"] = (
        abs(J_twist - out["J0"] / (1.0 + TWIST**2) ** 2) / J_twist
    )
    return out
