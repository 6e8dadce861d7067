"""Desk-scale acceptance checks for the whole pipeline.

Each check exercises one advertised behavior end to end (Steklov
exactness, flat ground truth, curvature coefficients of the solved
family, shape-derivative consistency, localization, foliation
monotonicity, the isochoric profile, solver oracles) and returns a
plain-dict record with a pass flag and the measured numbers. The CLI
and the test suite both run these records; thresholds live here so the
two surfaces cannot drift apart.

One check is recorded as a documented discrepancy: the quadratic
response of the geodesic-ball energy. The checklist value for that
coefficient disagrees with the measured expansion (and with the
N = 3 cross-check), so the record carries ``passed = False`` as stated
together with a companion flag asserting the verified coefficient.
"""

from functools import cached_property

import numpy as np

from .ball_solver import (
    BallField,
    EnvelopeError,
    get_grid,
    harmonic_extension,
    poisson_solve,
)
from .curvature import ConformalSphere2D, ConstantCurvature, FlatSpace
from .fitting import fit_even_series, loglog_slope
from .foliation import (
    build_foliation_chart,
    center_curve_through,
    certify_foliation,
    solved_profile_curve,
)
from .profile import J_geodesic_ball, profile_coefficient, profile_expansion
from .reduced import (
    constants,
    find_critical,
    reduced_functional,
    shape_derivative_check,
    tangential_derivative_check,
)
from .serrin import SerrinProblem, sweep
from .sphere_spectral import SphereFunction, ball_volume

__all__ = ["AcceptanceRun", "CHECK_IDS", "acceptable"]

ROUND_EPS = np.geomspace(0.02, 0.2, 8)
CONF_EPS = np.geomspace(0.04, 0.16, 6)
CONF_SAMPLES = ((0.25, 0.1), (0.3, 0.15), (0.2, 0.12))
DIAG_EXTRA = ((-0.3, 0.4), (0.5, -0.2))
FOLIATION_T = np.geomspace(0.02, 0.12, 8)

# check id -> (record name, AcceptanceRun method)
CHECK_IDS = {
    1: ("steklov_exactness", "check_steklov"),
    2: ("flat_ground_truth", "check_flat_ground_truth"),
    3: ("mean_perturbation_coefficient", "check_mean_coefficient"),
    4: ("reduced_energy_coefficients", "check_reduced_energy_coefficients"),
    5: ("ball_geometry_coefficients", "check_ball_geometry_coefficients"),
    6: ("ball_energy_coefficient", "check_ball_energy_coefficient"),
    7: ("isochoric_profile_coefficient", "check_isochoric_profile"),
    8: ("shape_derivative_consistency", "check_shape_derivative"),
    9: ("localization_and_foliation", "check_localization_and_foliation"),
    10: ("gradient_diagnostic_alignment", "check_gradient_alignment"),
    11: ("kernel_scaling", "check_kernel_scaling"),
    12: ("polynomial_solver_oracle", "check_solver_oracle"),
}


def _rec(check_id, passed, details):
    return {
        "id": check_id,
        "name": CHECK_IDS[check_id][0],
        "passed": bool(passed),
        "details": details,
    }


class AcceptanceRun:
    """Shared state for one acceptance pass.

    Solves are cached across checks (the round-sphere sweep feeds four of
    them), so run_all() costs far less than the sum of isolated runs.
    The seed only enters the critical-search initializer and the random
    draws of the oracle checks.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)

    def _rng(self, check_id):
        return np.random.default_rng([self.seed, check_id])

    # -- shared fixtures -------------------------------------------------

    @cached_property
    def flat_problem(self):
        return SerrinProblem(FlatSpace(2))

    @cached_property
    def round_problem(self):
        return SerrinProblem(ConstantCurvature(2, 1.0))

    @cached_property
    def conf(self):
        return ConformalSphere2D()

    @cached_property
    def conf_problem(self):
        return SerrinProblem(self.conf)

    @cached_property
    def round_reports(self):
        problem = self.round_problem
        p0 = problem.manifold.origin()
        sols, _ = sweep(problem, p0, ROUND_EPS)
        if len(sols) != len(ROUND_EPS):
            raise EnvelopeError(
                "round sweep stopped at eps = %.6g" % ROUND_EPS[len(sols)]
            )
        return [
            reduced_functional(problem, p0, eps, solution=sol)
            for eps, sol in zip(ROUND_EPS, sols)
        ]

    @cached_property
    def conf_sweeps(self):
        problem = self.conf_problem
        out = {}
        for p in CONF_SAMPLES:
            sols, _ = sweep(problem, np.array(p), CONF_EPS)
            if len(sols) != len(CONF_EPS):
                raise EnvelopeError(
                    "conformal sweep at %r stopped at eps = %.6g"
                    % (p, CONF_EPS[len(sols)])
                )
            out[p] = sols
        return out

    # -- the checks --------------------------------------------------------

    def check_steklov(self):
        """Harmonic extension then normal trace multiplies degree k by k."""
        rng = self._rng(1)
        worst = {}
        for N in (2, 3):
            grid = get_grid(N)
            basis = grid.basis
            errs = []
            for k in range(basis.max_degree - 1):
                sl = basis.degree_slice(k)
                coeffs = np.zeros(basis.n_modes)
                coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
                coeffs /= np.linalg.norm(coeffs)
                h = SphereFunction(basis, coeffs)
                nd = harmonic_extension(grid, h).normal_derivative()
                errs.append(
                    np.abs(nd.coeffs - k * h.coeffs).max() / max(float(k), 1.0)
                )
            worst[N] = float(max(errs))
        passed = max(worst.values()) < 1e-10
        details = {
            "max_rel_error_2d": worst[2],
            "max_rel_error_3d": worst[3],
            "threshold": 1e-10,
        }
        return _rec(1, passed, details)

    def check_flat_ground_truth(self):
        """Flat solves return the unperturbed ball and the flat energy."""
        problem = self.flat_problem
        alpha = constants(2)[0]
        p0 = problem.manifold.origin()
        rows = []
        for eps in (0.05, 0.1, 0.2):
            rep = reduced_functional(problem, p0, eps)
            sol = rep.solution
            rows.append(
                {
                    "eps": eps,
                    "v_norm": float(sol.v_norm()),
                    "a_norm": float(np.linalg.norm(sol.state.a)),
                    "phi_gap": abs(rep.phi_eps - alpha),
                }
            )
        passed = all(
            r["v_norm"] < 1e-10 and r["a_norm"] < 1e-12 and r["phi_gap"] < 1e-9
            for r in rows
        )
        return _rec(2, passed, {"rows": rows, "alpha": alpha})

    def check_mean_coefficient(self):
        """Fitted quadratic response of the solved mean perturbation."""
        v0 = np.array([rep.solution.state.v0 for rep in self.round_reports])
        fit = fit_even_series(ROUND_EPS, v0, orders=(2, 4))
        target = -1.0 / 12.0  # -S / (3 N (N+2)) at N = 2, S = 2
        rel = abs(fit[2] / target - 1.0)
        resid = np.abs(v0 - fit[2] * ROUND_EPS**2) / ROUND_EPS**4
        passed = rel < 0.01 and resid.max() < 1.0
        details = {
            "fitted_quadratic": fit[2],
            "target": target,
            "rel_error": rel,
            "residual_over_eps4_max": float(resid.max()),
        }
        return _rec(3, passed, details)

    def check_reduced_energy_coefficients(self):
        """Constant and quadratic terms of the reduced energy expansion."""
        alpha, beta, _, _ = constants(2)
        phi = np.array([rep.phi_eps for rep in self.round_reports])
        fit = fit_even_series(ROUND_EPS, phi, orders=(0, 2, 4))
        const_err = abs(fit[0] - alpha)
        quad_rel = abs(fit[2] / (2.0 * beta) - 1.0)
        rem = np.abs(phi - fit[0] - fit[2] * ROUND_EPS**2) / ROUND_EPS**4
        sample_rows = []
        for p, sols in self.conf_sweeps.items():
            phi_p = np.array(
                [
                    reduced_functional(
                        self.conf_problem, np.array(p), eps, solution=sol
                    ).phi_eps
                    for eps, sol in zip(CONF_EPS, sols)
                ]
            )
            fit_p = fit_even_series(CONF_EPS, phi_p, orders=(0, 2, 4))
            S = self.conf.scalar_curvature(np.array(p))
            sample_rows.append(
                {
                    "point": list(p),
                    "scalar_curvature": S,
                    "fitted_quadratic": fit_p[2],
                    "rel_error": abs(fit_p[2] / (beta * S) - 1.0),
                }
            )
        passed = (
            const_err < 1e-6
            and quad_rel < 0.01
            and rem.max() < 1.0
            and all(r["rel_error"] < 0.02 for r in sample_rows)
        )
        details = {
            "alpha": alpha,
            "constant_error": const_err,
            "quadratic_rel_error": quad_rel,
            "remainder_over_eps4_max": float(rem.max()),
            "conformal_samples": sample_rows,
        }
        return _rec(4, passed, details)

    def check_ball_geometry_coefficients(self):
        """Quadratic response of perturbed-ball volume and boundary area.

        Both normalized coefficients equal -S / (2 (N+2)); the area share
        differs from the volume share only at quartic order once the
        solved boundary perturbation is included.
        """
        N, S = 2, 2.0
        b1 = ball_volume(N)
        target = -S / (2.0 * (N + 2.0))
        vol = np.array([rep.volume for rep in self.round_reports]) / b1
        area = np.array([rep.boundary_area for rep in self.round_reports]) / (
            N * b1
        )
        fit_v = fit_even_series(ROUND_EPS, vol, orders=(0, 2, 4))
        fit_a = fit_even_series(ROUND_EPS, area, orders=(0, 2, 4))
        vol_rel = abs(fit_v[2] / target - 1.0)
        area_rel = abs(fit_a[2] / target - 1.0)
        passed = (
            abs(fit_v[0] - 1.0) < 1e-6
            and abs(fit_a[0] - 1.0) < 1e-6
            and vol_rel < 0.02
            and area_rel < 0.02
        )
        details = {
            "target": target,
            "volume_quadratic": fit_v[2],
            "volume_rel_error": vol_rel,
            "area_quadratic": fit_a[2],
            "area_rel_error": area_rel,
            # the unnormalized variant -(N+4) S / (6 (N+2)) that sometimes
            # gets quoted for the area; kept here so the distance to it is
            # on record
            "area_variant_rejected": -(N + 4.0) * S / (6.0 * (N + 2.0)),
        }
        return _rec(5, passed, details)

    def check_ball_energy_coefficient(self):
        """Quadratic response of the geodesic-ball energy, as stated.

        The checklist target is -S / (3 N (N+4)). The measured coefficient
        of J(B_eps) eps^(N+2) / J1 is (N-2) S / (6 N (N+4)): zero at N = 2
        and +1/21 on the round 3-sphere. ``passed`` reports the stated
        comparison (which fails); ``companion_passed`` reports the verified
        coefficient at both dimensions.
        """
        rows = {}
        for N, curv in ((2, 1.0), (3, 1.0)):
            manifold = ConstantCurvature(N, curv)
            p0 = manifold.origin()
            J1 = constants(N)[2]
            ratio = np.array(
                [
                    J_geodesic_ball(manifold, p0, eps)
                    * eps ** (N + 2)
                    / J1
                    for eps in ROUND_EPS
                ]
            )
            fit = fit_even_series(ROUND_EPS, ratio, orders=(0, 2, 4))
            S = manifold.scalar_curvature(p0)
            rows[N] = {
                "fitted_quadratic": fit[2],
                "constant_error": abs(fit[0] - 1.0),
                "stated_target": -S / (3.0 * N * (N + 4.0)),
                "verified_target": (N - 2.0) * S / (6.0 * N * (N + 4.0)),
            }
        r2, r3 = rows[2], rows[3]
        stated = abs(r2["fitted_quadratic"] / r2["stated_target"] - 1.0)
        passed = stated < 0.02
        companion = (
            abs(r2["fitted_quadratic"]) < 5e-4
            and abs(r3["fitted_quadratic"] / r3["verified_target"] - 1.0) < 0.02
            and r2["constant_error"] < 1e-6
            and r3["constant_error"] < 1e-5
        )
        details = {
            "dimension_2": r2,
            "dimension_3": r3,
            "stated_rel_error": stated,
        }
        rec = _rec(6, passed, details)
        rec["documented_discrepancy"] = True
        rec["companion_passed"] = bool(companion)
        return rec

    def check_isochoric_profile(self):
        """Leading curvature correction of the candidate isochoric profile."""
        N, S = 2, 2.0
        manifold = ConstantCurvature(N, 1.0)
        c = constants(N)[3]
        volume_grid = ball_volume(N) * np.geomspace(0.05, 0.2, 10) ** 2
        points = profile_expansion(manifold, volume_grid)
        coef = profile_coefficient(points, N)
        target = -c * S
        rel = abs(coef / target - 1.0)
        passed = rel < 0.03
        details = {
            "fitted_coefficient": coef,
            "target": target,
            "rel_error": rel,
            "volume_range": [float(volume_grid[0]), float(volume_grid[-1])],
            "ratios": [pt.ratio for pt in points],
        }
        return _rec(7, passed, details)

    def check_shape_derivative(self):
        """Hadamard boundary integral vs central finite differences, and
        the tangential twist against its closed-form energy."""
        rng = self._rng(8)
        rows = []
        for _ in range(5):
            speed = [(0, float(rng.uniform(0.5, 1.0) * rng.choice([-1, 1])), 0.0)]
            for k in range(1, 6):
                speed.append(
                    (k, float(rng.normal(0, 0.3)), float(rng.normal(0, 0.3)))
                )
            out = shape_derivative_check(speed)
            rows.append(
                {
                    "analytic": out["analytic"],
                    "finite_difference": out["finite_difference"],
                    "rel_error": out["rel_error"],
                }
            )
        tang = tangential_derivative_check()
        passed = all(r["rel_error"] < 1e-6 for r in rows) and (
            abs(tang["analytic"]) < 1e-10
            and abs(tang["finite_difference"]) < 1e-10
            and tang["closed_form_gap"] < 1e-10
        )
        details = {
            "speeds": rows,
            "tangential_analytic": tang["analytic"],
            "tangential_finite_difference": tang["finite_difference"],
            "tangential_closed_form_gap": tang["closed_form_gap"],
        }
        return _rec(8, passed, details)

    def check_localization_and_foliation(self):
        """Critical centers stay eps^2-close to the curvature maximum and
        the recentered leaves form a strictly nested family with unit
        slope at t = 0."""
        problem = self.conf_problem
        pmax = self.conf.scalar_max_point()
        rows = []
        for eps in (0.06, 0.1):
            p, sol, info = find_critical(problem, eps, seed=self.seed)
            rows.append(
                {
                    "eps": eps,
                    "dist_over_eps2": self.conf.distance(pmax, p) / eps**2,
                    "a_norm": float(np.linalg.norm(sol.state.a)),
                    "solves": info["solves"],
                }
            )
        # the center curve is pinned by the eps = 0.1 point of the loop
        _, curve = center_curve_through(self.conf, p, 0.1)
        profile = solved_profile_curve(problem, curve)
        chart = build_foliation_chart(self.conf, FOLIATION_T, curve, profile)
        cert = certify_foliation(chart, FOLIATION_T)
        passed = (
            all(r["a_norm"] < 1e-9 and r["dist_over_eps2"] < 1.0 for r in rows)
            and cert["nested"]
            and cert["n_certified"] == len(FOLIATION_T)
            and 0.999 <= cert["slope_zero_min"]
            and cert["slope_zero_max"] <= 1.001
        )
        details = {"centers": rows, "certificate": cert}
        return _rec(9, passed, details)

    def check_gradient_alignment(self):
        """Kernel diagnostic points along grad S and scales cubically."""
        problem = self.conf_problem
        rows = []
        cached = {p: sols[3] for p, sols in self.conf_sweeps.items()}
        for p in CONF_SAMPLES + DIAG_EXTRA:
            pa = np.array(p)
            sol = cached.get(p)
            if sol is None:
                sol = problem.solve(pa, 0.09)
            diag = problem.gradient_diagnostic(sol)
            gS = self.conf.scalar_gradient(pa)
            cos = float(
                diag @ gS / (np.linalg.norm(diag) * np.linalg.norm(gS))
            )
            rows.append({"point": list(p), "cosine": cos, "eps": sol.eps})
        mags = [
            float(np.linalg.norm(problem.gradient_diagnostic(sol)))
            for sol in self.conf_sweeps[CONF_SAMPLES[0]]
        ]
        slope = loglog_slope(CONF_EPS, mags)
        passed = all(r["cosine"] > 0.99 for r in rows) and abs(slope - 3.0) <= 0.2
        details = {"cosines": rows, "magnitude_slope": slope}
        return _rec(10, passed, details)

    def check_kernel_scaling(self):
        """Solved perturbation norms decay at least quadratically in eps.

        The advertised rate is the quadratic bound on the perturbation
        itself, so the slope of log ||v|| against log eps is the quantity
        held above 1.9; the slope of the quotient ||v|| / eps^2 is recorded
        alongside (it sits near zero when the bound is sharp).
        """
        round_norms = np.array(
            [rep.solution.v_norm() for rep in self.round_reports]
        )
        conf_norms = np.array(
            [sol.v_norm() for sol in self.conf_sweeps[CONF_SAMPLES[0]]]
        )
        slope_round = loglog_slope(ROUND_EPS, round_norms)
        slope_conf = loglog_slope(CONF_EPS, conf_norms)
        passed = slope_round >= 1.9 and slope_conf >= 1.9
        details = {
            "slope_round": slope_round,
            "slope_conformal": slope_conf,
            "quotient_slope_round": slope_round - 2.0,
            "quotient_slope_conformal": slope_conf - 2.0,
        }
        return _rec(11, passed, details)

    def check_solver_oracle(self):
        """Spectral Poisson solves against the closed-form radial monomials.

        poisson_solve is the zero-weight Galerkin solve of the Picard step,
        so this checks the solver that every metric solve runs."""
        rng = self._rng(12)
        worst = 0.0
        draws = []
        for N in (2, 3):
            grid = get_grid(N)
            basis = grid.basis
            for _ in range(10):
                k = int(rng.integers(0, basis.max_degree - 1))
                m = k + 2 * int(rng.integers(0, 4))
                mult = basis.degree_slice(k)
                order = int(rng.integers(0, mult.stop - mult.start))
                Y = SphereFunction.from_mode(basis, k, order, 1.0)
                vals = (grid.r**m)[:, None] * Y.node_values()[None, :]
                u = poisson_solve(BallField.from_values(grid, vals))
                den = (m + 2) * (m + N) - k * (k + N - 2)
                want = ((grid.r ** (m + 2) - grid.r**k) / den)[
                    :, None
                ] * Y.node_values()
                err = float(np.abs(u.values() - want).max())
                worst = max(worst, err)
                draws.append({"N": N, "m": m, "k": k, "error": err})
        passed = worst < 1e-11
        return _rec(12, passed, {"max_error": worst, "draws": draws})

    # -- driver ------------------------------------------------------------

    def run_check(self, check_id):
        return getattr(self, CHECK_IDS[check_id][1])()

    def run_all(self, ids=None):
        """Run the checks in order; failures inside a check become records.

        A crash is reported as a failed record with the error message, so
        one broken check cannot hide the status of the others.
        """
        records = []
        for check_id in sorted(ids or CHECK_IDS):
            try:
                records.append(self.run_check(check_id))
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                rec = _rec(check_id, False, {"error": repr(exc)})
                rec["crashed"] = True
                records.append(rec)
        return records


def acceptable(record, strict=False):
    """Gate used by the CLI: strict demands every stated pass, the default
    additionally admits the documented discrepancy when its companion
    measurement holds."""
    if record["passed"]:
        return True
    if strict:
        return False
    return bool(
        record.get("documented_discrepancy") and record.get("companion_passed")
    )
