"""Isochoric torsion profile: energies at matched volume and the fitted response."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from serrin_torsion.ball_solver import EnvelopeError, LaplaceContext, get_grid
from serrin_torsion.curvature import (
    ConformalSphere2D,
    ConstantCurvature,
    FlatSpace,
    MetricJet,
)
from serrin_torsion.fitting import fit_even_series
from serrin_torsion.profile import (
    J_geodesic_ball,
    ProfilePoint,
    ball_volume_at,
    euclidean_profile,
    matched_radius,
    profile_coefficient,
    profile_expansion,
)
from serrin_torsion.reduced import constants
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import ball_volume


@pytest.fixture(scope="module")
def round2():
    return ConstantCurvature(2, 1.0)


@pytest.fixture(scope="module")
def conf():
    return ConformalSphere2D()


def test_euclidean_profile_normalization():
    for N in (2, 3, 4):
        _, _, J1, _ = constants(N)
        assert_allclose(euclidean_profile(ball_volume(N), N), J1, rtol=1e-13)
        # dilation scaling: volume lam^N v -> energy lam^-(N+2) T(v)
        v, lam = 0.3, 1.7
        assert_allclose(
            euclidean_profile(lam**N * v, N),
            lam ** -(N + 2) * euclidean_profile(v, N),
            rtol=1e-13,
        )
    # the profile must blow up as the volume shrinks
    assert euclidean_profile(1e-4, 2) > euclidean_profile(1e-2, 2)


def test_flat_ball_energy_exact():
    flat = FlatSpace(2)
    _, _, J1, _ = constants(2)
    for eps in (0.05, 0.2):
        assert abs(J_geodesic_ball(flat, [0.0, 0.0], eps) * eps**4 - J1) < 1e-12
    assert abs(ball_volume_at(flat, [0.0, 0.0], 0.3) - np.pi * 0.09) < 1e-15


def test_flat_profile_ratio_is_one():
    flat = FlatSpace(2)
    pts = profile_expansion(flat, np.pi * np.array([0.05, 0.1, 0.2]) ** 2)
    for pt in pts:
        assert abs(pt.ratio - 1.0) < 1e-10


def test_round_volume_against_closed_form(round2):
    # |B_eps| on the unit round sphere is 2 pi (1 - cos eps); the cubic
    # metric model reproduces it through fourth order, leaving an eps^6
    # deficit (measured -2.3e-8 at eps = 0.1, scaling like eps^6)
    p0 = round2.origin()
    gaps = []
    for eps in (0.1, 0.2):
        got = ball_volume_at(round2, p0, eps)
        gaps.append(got - 2 * np.pi * (1 - np.cos(eps)))
    assert abs(gaps[0]) < 1e-7
    assert 40 < gaps[1] / gaps[0] < 90


def _context_volume(manifold, p, eps):
    """Oracle: the ball volume read off the solver's LaplaceContext of the
    unperturbed jet."""
    grid = get_grid(manifold.dim)
    ctx = LaplaceContext(MetricJet(manifold, p, eps), grid)
    return grid.volume_integral(ctx.sqrt_det) * eps**manifold.dim


@pytest.mark.parametrize("case", ["round2", "round3", "conf_max", "conf_off"])
def test_ball_volume_is_the_context_volume(case):
    # the unperturbed ball's domain map is the identity, so the chart's
    # determinant alone gives the context's volume element bit for bit
    conf = ConformalSphere2D()
    manifold, p = {
        "round2": (ConstantCurvature(2, 1.0), ConstantCurvature(2).origin()),
        "round3": (ConstantCurvature(3, 1.0), ConstantCurvature(3).origin()),
        "conf_max": (conf, conf.scalar_max_point()),
        "conf_off": (conf, np.array([0.3, -0.2])),
    }[case]
    for eps in (0.02, 0.1, 0.3):
        assert ball_volume_at(manifold, p, eps) == _context_volume(
            manifold, p, eps
        )


def test_ball_volume_envelope_matches_context(round2):
    # the cubic chart's tangential eigenvalue 1 - |y|^2 / 3 turns negative
    # past |y| = sqrt(3): both paths reject eps 2.0 and accept eps 1.7
    p0 = round2.origin()
    for volume in (ball_volume_at, _context_volume):
        with pytest.raises(EnvelopeError):
            volume(round2, p0, 2.0)
    assert ball_volume_at(round2, p0, 1.7) == _context_volume(round2, p0, 1.7)


def test_matched_radius_round(round2):
    p0 = round2.origin()
    target = 2 * np.pi * (1 - np.cos(0.1))
    eps = matched_radius(round2, p0, target)
    assert abs(eps - 0.1) < 1e-6
    assert abs(ball_volume_at(round2, p0, eps) - target) / target < 1e-10


@pytest.mark.parametrize("N, radius", [(2, 1e-10), (3, 1e-8)])
def test_matched_radius_tiny_balls(N, radius):
    """The root solve's tolerance scales with the ball, so a tiny volume
    matches to the same 1e-10 as a small one instead of stalling."""
    manifold = ConstantCurvature(N, 1.0)
    p0 = manifold.origin()
    target = ball_volume(N) * radius**N
    eps = matched_radius(manifold, p0, target)
    assert abs(eps / radius - 1.0) < 1e-12
    assert abs(ball_volume_at(manifold, p0, eps) - target) / target < 1e-10


def test_round_ball_energy_sweep(round2):
    # rescaled energy J(B_eps) eps^(N+2) / J1 = 1 + q eps^2 + ...; at N = 2
    # the quadratic response vanishes identically
    _, _, J1, _ = constants(2)
    p0 = round2.origin()
    eps_list = np.geomspace(0.02, 0.2, 8)
    vals = np.array(
        [J_geodesic_ball(round2, p0, float(e)) * e**4 for e in eps_list]
    )
    fit = fit_even_series(eps_list, vals / J1)
    assert abs(fit[0] - 1.0) < 1e-7
    assert abs(fit[2]) < 5e-4
    # and is nowhere near the steeper candidate -S/(3N(N+4)) = -1/18
    assert abs(fit[2] - (-1.0 / 18.0)) > 0.05


def test_round3_ball_energy_sweep():
    # N = 3, S = 6: quadratic coefficient (N-2) S / (6 N (N+4)) = 1/21
    rnd3 = ConstantCurvature(3, 1.0)
    _, _, J1, _ = constants(3)
    p0 = rnd3.origin()
    eps_list = np.geomspace(0.05, 0.25, 6)
    vals = np.array(
        [J_geodesic_ball(rnd3, p0, float(e)) * e**5 for e in eps_list]
    )
    fit = fit_even_series(eps_list, vals / J1)
    assert abs(fit[2] - 1.0 / 21.0) < 0.02 * (1.0 / 21.0)
    assert abs(fit[2] - (-6.0 / 63.0)) > 0.1


def test_profile_coefficient_round(round2):
    # ratio(v) = 1 - c S v^(2/N) + O(v^2) with S = 2
    _, _, _, c = constants(2)
    vgrid = np.pi * np.geomspace(0.02, 0.2, 10) ** 2
    pts = profile_expansion(round2, vgrid)
    for pt in pts:
        assert pt.ratio < 1.0
    eps_used = [pt.eps_used for pt in pts]
    assert np.all(np.diff(eps_used) > 0)
    coef = profile_coefficient(pts, 2)
    S = 2.0
    assert abs(coef - (-c * S)) < 0.03 * c * S
    # the steeper candidate (N+6)/(6N(N+4)) |B_1|^(-2/N) S is excluded
    c_alt = (8.0 / 72.0) / np.pi
    assert abs(coef - (-c_alt * S)) > 0.2 * c_alt * S


def test_profile_coefficient_synthetic():
    pts = [
        ProfilePoint(volume=v, J_ball=0.0, T_euclidean=1.0,
                     ratio=1.0 - 0.3 * v + 0.05 * v**2, eps_used=0.0)
        for v in np.linspace(0.01, 0.2, 9)
    ]
    assert abs(profile_coefficient(pts, 2) - (-0.3)) < 1e-10


def test_scalar_curvature_orders_profiles(conf):
    # larger scalar curvature lowers the candidate profile at every volume
    pmax = conf.scalar_max_point()
    p_low = np.array([0.25, 0.1])
    assert conf.scalar_curvature(pmax) > conf.scalar_curvature(p_low) + 0.5
    vgrid = np.pi * np.geomspace(0.05, 0.15, 5) ** 2
    hi = profile_expansion(conf, vgrid, p=pmax)
    lo = profile_expansion(conf, vgrid, p=p_low)
    for a, b in zip(hi, lo):
        assert a.ratio < b.ratio


def test_geodesic_ball_is_candidate_optimum(conf):
    # the solved perturbed ball is an admissible competitor at its own
    # volume; the geodesic ball's energy there matches it to solver noise,
    # and in particular does not undercut the infimum bound
    problem = SerrinProblem(conf)
    pmax = conf.scalar_max_point()
    eps = 0.1
    sol = problem.solve(pmax, eps)
    v_pert = sol.volume * eps**2
    J_pert = 1.0 / sol.torsion / eps**4
    eps_m = matched_radius(conf, pmax, v_pert)
    J_ball = J_geodesic_ball(conf, pmax, eps_m)
    assert J_ball >= J_pert * (1.0 - 1e-8)
    assert abs(J_ball - J_pert) / J_pert < 1e-10


def test_matched_radius_rejects_unbracketed(round2):
    with pytest.raises(ValueError):
        matched_radius(round2, round2.origin(), -0.01)


def test_profile_point_record():
    pt = ProfilePoint(volume=0.1, J_ball=2.0, T_euclidean=4.0, ratio=0.5,
                      eps_used=0.17)
    # the CLI writes asdict(pt) as a profile.csv row
    assert dataclasses.asdict(pt) == {
        "volume": 0.1,
        "J_ball": 2.0,
        "T_euclidean": 4.0,
        "ratio": 0.5,
        "eps_used": 0.17,
    }
