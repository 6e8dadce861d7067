"""Solver for the over-determined torsion problem on small geodesic balls.

For a center p and radius eps, the unknown is a boundary perturbation v of
the unit sphere. The forward map G takes the domain deformed by the mean and
degree >= 2 parts of v, solves the metric torsion problem on it, and returns
the boundary trace of the normal derivative shifted by its flat value 1/N.
The degree-1 part of v never deforms the domain (it is the translation
kernel); it enters the residual

    script_G(v) = G(p, eps, v0, vbar) + Pi_1 v

additively, and the solve drives script_G to zero with a quasi-Newton
iteration whose frozen preconditioner is the exact linearization at the flat
ball (symbol (k-1)/N on degree k, identity on degree 1). At the solution the
normal derivative is constant up to the degree-1 defect -<a, x>, and a is
read off as the negative degree-1 component of G.
"""

import time
from dataclasses import dataclass

import numpy as np

from .ball_solver import (
    EnvelopeError,
    dirichlet_solve_full,
    get_grid,
    neumann_trace,
    solve_psi_eps,
)
from .curvature import MetricJet
from .sphere_spectral import (
    PerturbationState,
    SphereFunction,
    ball_volume,
    calL_solve,
)

__all__ = [
    "SerrinProblem",
    "SerrinSolution",
    "kernel_response_constant",
    "sweep",
]

# Quasi-Newton solve: converged once the sup norm of script_G is below
# SOLVE_TOL; EnvelopeError after MAX_STEPS steps, or once the Sobolev norm of
# v exceeds ENVELOPE_NORM (the contraction envelope).
SOLVE_TOL = 1e-11
MAX_STEPS = 50
ENVELOPE_NORM = 0.3


@dataclass
class SerrinSolution:
    """Converged solution of the over-determined problem at one (p, eps).

    torsion, volume and area are the energy accounting of the last forward
    map, at unit-ball scale: the integral of the potential and of 1 against
    sqrt det g, and the area of the deformed boundary.
    """

    eps: float
    point: np.ndarray
    state: PerturbationState
    potential: object  # BallField
    residual_overdetermined: SphereFunction
    iterations: list
    torsion: float
    volume: float
    area: float
    solve_seconds: float = 0.0

    def v_function(self):
        """The full boundary perturbation v (mean + kernel + higher)."""
        return self.state.compose()

    def v_norm(self):
        return self.v_function().sobolev_norm()


class SerrinProblem:
    """The solver context: a manifold and the resolution of the ball grid.

    max_degree is the highest harmonic degree carried and n_radial the
    radial coefficients per mode; None takes get_grid's defaults, so the
    problem shares the default grid. The pulled-back metric is MetricJet's
    truncated cubic curvature model. Solves are pure functions of (p, eps)
    given the context, so instances can be shared freely across sweeps.
    """

    def __init__(self, manifold, max_degree=None, n_radial=None):
        self.manifold = manifold
        self.grid = get_grid(manifold.dim, max_degree, n_radial)
        self.basis = self.grid.basis

    # -- forward map -------------------------------------------------------

    def G_map(self, p, eps, state, warm_phi=None):
        """Boundary residual of the torsion solve on the deformed domain.

        Returns (G, phi, info) with G = neumann_trace + 1/N as a
        SphereFunction and info the dirichlet_solve_full info plus the
        boundary "area". Only the mean and degree >= 2 parts of the state
        deform the domain.
        """
        jet = MetricJet(self.manifold, p, eps, state)
        phi, info = dirichlet_solve_full(
            jet, self.grid, warm_start=warm_phi
        )
        trace, info["area"] = neumann_trace(jet, phi)
        N = self.manifold.dim
        G = trace + SphereFunction.constant(self.basis, 1.0 / N)
        return G, phi, info

    # -- the solve ----------------------------------------------------------

    def seed(self, p, eps):
        """Leading-order mean perturbation: -S_g(p) eps^2 / (3N(N+2))."""
        N = self.manifold.dim
        S = self.manifold.scalar_curvature(p)
        v0 = -S * eps**2 / (3.0 * N * (N + 2.0))
        return SphereFunction.constant(self.basis, v0)

    def solve(self, p, eps, v_init=None):
        """Drive script_G to zero; returns a SerrinSolution.

        Raises EnvelopeError when 50 quasi-Newton steps do not reach the
        tolerance or when the perturbation norm leaves the contraction
        envelope.
        """
        t0 = time.perf_counter()
        p = np.asarray(p, dtype=float)
        v = v_init if v_init is not None else self.seed(p, eps)
        history = []
        phi = None
        for step in range(MAX_STEPS):
            state = PerturbationState.from_sphere_function(v)
            G, phi, info = self.G_map(p, eps, state, warm_phi=phi)
            resid = G + v.pi1()
            rnorm = resid.norm_inf()
            history.append(rnorm)
            if rnorm < SOLVE_TOL:
                break
            v = v - calL_solve(resid)
            if v.sobolev_norm() > ENVELOPE_NORM:
                raise EnvelopeError(
                    "perturbation norm %.3g left the contraction envelope"
                    % v.sobolev_norm()
                )
        else:
            raise EnvelopeError(
                "no convergence in %d quasi-Newton steps (residual %.3g)"
                % (MAX_STEPS, history[-1])
            )
        a = (-G).degree1_vector()
        state = PerturbationState(
            v0=v.mean(), vbar=v.pibar(), a=a
        )
        residual = G + SphereFunction.from_degree1_vector(self.basis, a)
        return SerrinSolution(
            eps=eps,
            point=p,
            state=state,
            potential=phi,
            residual_overdetermined=residual,
            iterations=history,
            torsion=info["torsion"],
            volume=info["volume"],
            area=info["area"],
            solve_seconds=time.perf_counter() - t0,
        )

    # -- curvature-gradient diagnostic --------------------------------------

    def gradient_diagnostic(self, sol):
        """Degree-1 moment of the curvature source solve, sign-fixed so the
        result is positively aligned with grad S_g(p).

        The raw moment m_i = integral of x^i N d_nu(psi_eps) over the sphere
        equals -kappa_N eps^3 grad_i S + O(eps^4) with kappa_N =
        5 |B_1| / (6 (N+2)(N+4)); the returned vector is its negative.
        """
        N = self.manifold.dim
        packet = self.manifold.packet(sol.point)
        field = solve_psi_eps(packet, sol.eps, self.grid)
        nd = field.normal_derivative()
        # integral of x^i times the trace: |B_1| times the degree-1 vector
        moment = N * ball_volume(N) * nd.degree1_vector()
        return -moment


def kernel_response_constant(N):
    """Leading constant linking the converged kernel component to grad S.

    a = const * eps^3 grad S + O(eps^4) at the converged solution. Smaller
    than the explicit cubic model's moment constant by 3/5 because the mixed
    cubic contraction of the curvature derivative integrates to zero against
    the translation modes in the true pulled-back geometry.
    """
    return 1.0 / (2.0 * N * (N + 2.0) * (N + 4.0))


def sweep(problem, p, eps_list):
    """Solve along an eps schedule with warm starts.

    Each solve after the first starts from the previous v rescaled by
    (eps / eps_prev)^2, the order of the leading mean perturbation.

    Returns (solutions, max_converged_eps). Failed solves stop the sweep at
    the first eps outside the envelope; earlier solutions are kept.
    """
    solutions = []
    max_ok = 0.0
    v_prev = None
    eps_prev = None
    for eps in eps_list:
        if v_prev is not None:
            v_init = v_prev * float((eps / eps_prev) ** 2)
        else:
            v_init = None
        try:
            sol = problem.solve(p, eps, v_init=v_init)
        except EnvelopeError:
            break
        solutions.append(sol)
        max_ok = max(max_ok, eps)
        v_prev = sol.v_function()
        eps_prev = eps
    return solutions, max_ok
