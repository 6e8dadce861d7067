"""Seeded workloads: generated inputs, operations and output checks.

A workload is a sequence of rounds. Round i draws its inputs from
numpy.random.default_rng([seed, i]) and is a list of operations; each
operation is a closed-loop call sequence into the package that returns one
or more checked rows. Every row carries its wall time, the counts the
untraced run can see, and either an error kind or a failed check (or
neither).
"""

import time

import numpy as np

from serrin_torsion import curvature, foliation, profile, reduced, serrin
from serrin_torsion.acceptance import FOLIATION_T
from serrin_torsion.ball_solver import EnvelopeError, ResolutionError, get_grid
from serrin_torsion.foliation import FoliationError
from serrin_torsion.reduced import SearchError
from serrin_torsion.sphere_spectral import SphereFunction, ball_volume

TYPED_ERRORS = (EnvelopeError, ResolutionError, SearchError, FoliationError)

EPS = (0.05, 0.1, 0.2)
# Every center the benchmark has drawn from this box converged at every eps.
CENTER_BOX = 0.6
# Output-check bounds. Measured worst cases: |v0 / model - 1| = 0.027 eps^2
# (N=2) and 0.067 eps^2 (N=3); |a - model| / |model| = 0.165 eps^2 on the
# conformal sphere.
V0_REL = 0.15
A_REL = 0.3
A_ABS = 1e-12
# A perturbed start must converge to the cold solution (measured 1.4e-11 in
# v0 and 1.6e-12 in vbar).
RESTART_TOL = 1e-9
# Norm range of the degree-2/3 start perturbation; every start in it took 5
# outer steps.
PERTURB_NORM = (3e-3, 5e-3)
SEARCH_EPS = 0.1
# The search starts this far from the curvature maximum in a seeded
# direction. find_critical's own normal jitter (0.01 times a Gaussian) made
# the solve count 11, 16 or 26 depending on the seed, because the kernel
# component after two Newton steps straddles the tolerance; from this
# radius every sampled direction took 11 solves (a_norm 4e-11 to 2.2e-10).
SEARCH_START_RADIUS = 0.004
SEARCH_TOL = 1e-9
PROFILE_REL = 0.03


def _row(seconds, **extra):
    row = {"seconds": seconds, "error": None, "check": None}
    row.update(extra)
    return row


def failed_row(kind, **extra):
    return _row(None, error=kind, **extra)


def _warm(problem):
    """Fill the lazy per-basis caches a solve would otherwise fill."""
    problem.basis.node_grads()
    problem.basis.node_hessians()


def check_solve(problem, rep, p, eps):
    """Leading-order v0 and kernel component of one solve row, or None."""
    manifold = problem.manifold
    N = manifold.dim
    sol = rep.solution
    v0_model = -manifold.scalar_curvature(p) * eps**2 / (3.0 * N * (N + 2.0))
    if abs(sol.state.v0 - v0_model) > V0_REL * eps**2 * abs(v0_model):
        return "v0 %.6e against model %.6e" % (sol.state.v0, v0_model)
    a_model = (
        serrin.kernel_response_constant(N)
        * eps**3
        * np.asarray(manifold.scalar_gradient(p), dtype=float)
    )
    gap = float(np.linalg.norm(sol.state.a - a_model))
    if gap > A_REL * eps**2 * float(np.linalg.norm(a_model)) + A_ABS:
        return "kernel component off its model by %.3e" % gap
    if not (np.isfinite(rep.phi_eps) and rep.volume > 0 and rep.J_value > 0):
        return "energy accounting not finite and positive"
    return None


def solve_row(problem, p, eps, solve=None):
    """One timed solve row: the solve plus its energy and volume accounting."""
    t0 = time.perf_counter()
    solution = solve() if solve is not None else None
    rep = reduced.reduced_functional(problem, p, eps, solution=solution)
    seconds = time.perf_counter() - t0
    row = _row(
        seconds, eps=eps, outer_steps=len(rep.solution.iterations)
    )
    row["check"] = check_solve(problem, rep, p, eps)
    return row, rep


class Solve2D:
    """N=2 solve rows on the round sphere and the conformal sphere."""

    name = "solve-2d"
    label = "solve"
    p50_name = "solve_s_p50"
    steps = ()
    # minimum rounds of a run, and the rounds of a traced run
    rounds = 4
    rows_per_round = 6

    def __init__(self, seed):
        self.seed = seed
        self.round_problem = serrin.SerrinProblem(
            curvature.ConstantCurvature(2, 1.0)
        )
        self.conf_problem = serrin.SerrinProblem(curvature.ConformalSphere2D())
        _warm(self.round_problem)
        _warm(self.conf_problem)

    def round(self, i):
        """Every third round is the round sphere at the origin; the others
        are the conformal sphere at a seeded center. Each round has three
        cold rows and three warm-started rows chained through serrin.sweep."""
        if i % 3 == 0:
            problem = self.round_problem
            p = problem.manifold.origin()
            inputs = {"round": i, "manifold": "round", "center": p.tolist()}
        else:
            rng = np.random.default_rng([self.seed, i])
            problem = self.conf_problem
            p = rng.uniform(-CENTER_BOX, CENTER_BOX, 2)
            inputs = {"round": i, "manifold": "conformal", "center": p.tolist()}

        def cold(eps):
            return lambda: [solve_row(problem, p, eps)[0]]

        def warm_chain():
            sols, _ = serrin.sweep(problem, p, list(EPS))
            rows = []
            for eps, sol in zip(EPS, sols):
                row, _ = solve_row(problem, p, eps, solve=lambda: sol)
                row["seconds"] += sol.solve_seconds
                row["warm"] = True
                rows.append(row)
            # sweep ends the chain at the first EnvelopeError
            rows += [
                failed_row("EnvelopeError", eps=eps, warm=True)
                for eps in EPS[len(sols):]
            ]
            return rows

        return inputs, [cold(eps) for eps in EPS] + [warm_chain]


class Solve3D:
    """N=3 round-sphere solves at the origin, cold and from a perturbed start."""

    name = "solve-3d"
    label = "solve"
    p50_name = "solve_s_p50"
    steps = ()
    rounds = 1
    rows_per_round = 3

    def __init__(self, seed):
        self.seed = seed
        self.problem = serrin.SerrinProblem(curvature.ConstantCurvature(3, 1.0))
        _warm(self.problem)

    def round(self, i):
        """Cold starts at eps 0.05 and 0.1, then one eps=0.1 solve from the
        leading-order seed plus seeded degree-2/3 content, which has to
        converge to the cold eps=0.1 solution."""
        problem = self.problem
        basis = problem.basis
        p = problem.manifold.origin()
        rng = np.random.default_rng([self.seed, i])
        modes = slice(basis.degree_slice(2).start, basis.degree_slice(3).stop)
        direction = rng.standard_normal(modes.stop - modes.start)
        norm = rng.uniform(*PERTURB_NORM)
        perturbation = norm * direction / np.linalg.norm(direction)
        inputs = {"round": i, "perturbation_norm": norm,
                  "perturbation": perturbation.tolist()}
        cold_v0 = {}

        def cold(eps):
            def run():
                row, rep = solve_row(problem, p, eps)
                cold_v0[eps] = rep.solution.state.v0
                return [row]

            return run

        def perturbed():
            eps = 0.1
            coeffs = problem.seed(p, eps).coeffs.copy()
            coeffs[modes] += perturbation
            start = SphereFunction(basis, coeffs)
            row, rep = solve_row(
                problem, p, eps,
                solve=lambda: problem.solve(p, eps, v_init=start),
            )
            row["perturbed"] = True
            state = rep.solution.state
            if row["check"] is None and eps in cold_v0:
                if abs(state.v0 - cold_v0[eps]) > RESTART_TOL:
                    row["check"] = "perturbed start moved v0 by %.3e" % (
                        state.v0 - cold_v0[eps]
                    )
                elif np.abs(state.vbar.coeffs).max() > RESTART_TOL:
                    row["check"] = "perturbed start left angular content"
            return [row]

        return inputs, [cold(0.05), cold(0.1), perturbed]


class Pipeline:
    """The construction for one seeded critical search, as one operation."""

    name = "pipeline"
    label = "pipeline"
    p50_name = "pipeline_s"
    rounds = 1
    rows_per_round = 1
    steps = ("search", "foliation", "profile")

    def __init__(self, seed):
        self.seed = seed
        self.conf = curvature.ConformalSphere2D()
        self.conf_problem = serrin.SerrinProblem(self.conf)
        self.pmax = self.conf.scalar_max_point()
        self.round_sphere = curvature.ConstantCurvature(2, 1.0)
        self.volumes = ball_volume(2) * np.geomspace(0.05, 0.2, 10) ** 2
        _warm(self.conf_problem)
        # profile_expansion's default grid, cached under its own key
        get_grid(2, 16)

    def round(self, i):
        """find_critical at eps=0.1 from a seeded start and its center curve;
        the solved leaves, chart and certificate over the t-grid of
        acceptance check 9; the isochoric profile over the 10 volumes of
        check 7."""
        rng = np.random.default_rng([self.seed, i])
        angle = rng.uniform(0.0, 2.0 * np.pi)
        tangent = SEARCH_START_RADIUS * np.array([np.cos(angle), np.sin(angle)])
        start = self.conf.exp(self.pmax, tangent[None, :])[0]
        inputs = {"round": i, "search_start": start.tolist(),
                  "search_direction": angle}
        return inputs, [lambda: [self.run_pipeline(start)]]

    def run_pipeline(self, start):
        problem, conf = self.conf_problem, self.conf
        marks = [time.perf_counter()]
        p, _, info = reduced.find_critical(
            problem, SEARCH_EPS, p_init=start, jitter=0.0
        )
        _, curve = foliation.center_curve_through(conf, p, SEARCH_EPS)
        marks.append(time.perf_counter())
        leaves = foliation.solved_profile_curve(problem, curve)
        chart = foliation.build_foliation_chart(conf, FOLIATION_T, curve, leaves)
        cert = foliation.certify_foliation(chart, FOLIATION_T)
        marks.append(time.perf_counter())
        points = profile.profile_expansion(self.round_sphere, self.volumes)
        coef = profile.profile_coefficient(points, 2)
        marks.append(time.perf_counter())

        row = _row(
            marks[-1] - marks[0],
            steps={k: marks[j + 1] - marks[j] for j, k in enumerate(self.steps)},
            search_solves=info["solves"],
        )
        dist = conf.distance(self.pmax, p) / SEARCH_EPS**2
        target = -reduced.constants(2)[3] * 2.0  # -c_N S on the unit sphere
        if not info["a_norm"] < SEARCH_TOL:
            row["check"] = "kernel component %.3e" % info["a_norm"]
        elif not dist < 1.0:
            row["check"] = "critical center %.3g eps^2 from the maximum" % dist
        elif not (
            cert["nested"]
            and cert["n_certified"] == len(FOLIATION_T)
            and 0.999 <= cert["slope_zero_min"]
            and cert["slope_zero_max"] <= 1.001
        ):
            row["check"] = "foliation certificate failed: %r" % (cert,)
        elif not abs(coef / target - 1.0) < PROFILE_REL:
            row["check"] = "profile coefficient %.6e against %.6e" % (
                coef, target
            )
        return row


WORKLOADS = {w.name: w for w in (Solve2D, Solve3D, Pipeline)}
