"""The paper's constants under generic curvature, at N = 2 and 3.

Every round sphere has nabla R = 0 and a radial solution, so it exercises
neither the cubic chart's nabla R term nor a nonzero kernel component. A
PacketManifold whose metric is exactly the cubic model of a seeded generic
packet does. Solved at its origin, the kernel component a and the mean v0
must follow the leading-order laws

    a  = c_N eps^3 grad S + O(eps^5),   c_N = kernel_response_constant(N),
    v0 = -S eps^2 / (3 N (N + 2)) + O(eps^4),

so their relative gaps to these models shrink like eps^2, and a / (eps^3
grad S) extrapolates to c_N (1/210 at N = 3).

The problem also has exact symmetries, which need no closed form
(metamorphic testing; Chen et al., ACM Comput. Surv. 51, 2018). It is
equivariant under O(N): the packet rotated by Q is solved by v o Q^T with
kernel component Q a and the same torsion, volume and area. And it is
invariant under dilation: the packet (lam^2 R, lam^3 nabla R) at eps / lam,
and ConstantCurvature(N, lam^2 k) at eps / lam, pose the unit-ball problem
of (R, nabla R), or of ConstantCurvature(N, k), at eps.
"""

import numpy as np
import pytest

from serrin_torsion.curvature import ConstantCurvature, CurvaturePacket
from serrin_torsion.serrin import SerrinProblem, kernel_response_constant

from packet_manifold import PacketManifold, synthetic_packet

EPS = np.array([0.025, 0.05, 0.1, 0.2])


def _eps2_slope(values):
    return float(np.polyfit(np.log(EPS), np.log(np.abs(values)), 1)[0])


@pytest.fixture(scope="module")
def generic():
    """Per N: (S, grad S, the solved states at EPS) at the packet's origin."""
    out = {}
    for N in (2, 3):
        manifold = PacketManifold(
            synthetic_packet(N, seed=3, r_scale=0.3, dr_scale=0.3)
        )
        problem = SerrinProblem(manifold)
        p = manifold.origin()
        states = [problem.solve(p, float(eps)).state for eps in EPS]
        out[N] = (manifold.scalar_curvature(p), manifold.scalar_gradient(p), states)
    return out


def test_kernel_response_constant_at_three():
    assert kernel_response_constant(3) == pytest.approx(1.0 / 210.0, rel=1e-15)


@pytest.mark.parametrize("N", [2, 3])
def test_kernel_component_gap_shrinks_like_eps2(generic, N):
    _, gS, states = generic[N]
    model = kernel_response_constant(N) * EPS[:, None] ** 3 * gS
    a = np.array([s.a for s in states])
    gaps = np.linalg.norm(a - model, axis=1) / np.linalg.norm(model, axis=1)
    # measured 1.0e-5 -> 6.5e-4 (N = 2) and 2.1e-4 -> 1.3e-2 (N = 3)
    assert gaps.max() < {2: 1e-3, 3: 2e-2}[N]
    assert abs(_eps2_slope(gaps) - 2.0) < 0.02


@pytest.mark.parametrize("N", [2, 3])
def test_mean_gap_shrinks_like_eps2(generic, N):
    S, _, states = generic[N]
    model = -S * EPS**2 / (3.0 * N * (N + 2.0))
    gaps = np.array([s.v0 for s in states]) / model - 1.0
    # measured 1.7e-6 -> 1.1e-4 (N = 2) and 1.1e-3 -> 7.0e-2 (N = 3; S is
    # small against grad S for this packet, so the eps^4 terms weigh more)
    assert np.abs(gaps).max() < {2: 2e-4, 3: 0.1}[N]
    assert abs(_eps2_slope(gaps) - 2.0) < 0.05


@pytest.mark.parametrize("N", [2, 3])
def test_kernel_constant_by_richardson(generic, N):
    _, gS, states = generic[N]
    ratio = np.array([s.a @ gS for s in states]) / (EPS**3 * (gS @ gS))
    c = kernel_response_constant(N)
    # the ratio carries an eps^2 error; one Richardson step from the two
    # smallest radii removes it
    extrapolated = (4.0 * ratio[0] - ratio[1]) / 3.0
    # measured 1.0e-5 and -9e-10 (N = 2), -8.7e-5 and 2.0e-8 (N = 3)
    assert abs(ratio[0] / c - 1.0) < 2e-4
    assert abs(extrapolated / c - 1.0) < 1e-7


@pytest.mark.parametrize("N", [2, 3])
def test_kernel_component_points_along_grad_s(generic, N):
    _, gS, states = generic[N]
    for s in states:
        cos = s.a @ gS / (np.linalg.norm(s.a) * np.linalg.norm(gS))
        assert cos >= 0.9999  # measured >= 0.999925, at N = 3 and eps 0.2


def test_vbar_degree2_content_at_three(generic):
    """At N = 3 the traceless Ricci part of the packet deforms the ball at
    order eps^2: the degree >= 2 remainder is far above roundoff and grows
    like eps^2. At N = 2 the traceless Ricci part vanishes, and so does
    this eps^2 term."""
    states = generic[3][2]
    basis = states[0].vbar.basis
    content = np.array(
        [np.abs(s.vbar.coeffs[basis.degrees >= 2]).max() for s in states]
    )
    # measured 7.8e-6 -> 5.0e-4
    assert content.min() > 1e-6
    assert abs(_eps2_slope(content) - 2.0) < 0.05


# -- rotation oracle ---------------------------------------------------------

# the radius of the unrotated and undilated solves of the symmetry oracles
SYMMETRY_EPS = 0.3


def _rotated(packet, Q):
    """The packet in the frame rotated by Q: every slot of R and nabla R,
    Ricci and grad S transform as tensors, and S is unchanged."""
    return CurvaturePacket(
        dim=packet.dim,
        scalar=packet.scalar,
        scalar_gradient=Q @ packet.scalar_gradient,
        ricci=Q @ packet.ricci @ Q.T,
        riemann=np.einsum("ia,jb,kc,ld,abcd->ijkl", Q, Q, Q, Q, packet.riemann),
        nabla_riemann=np.einsum(
            "ia,jb,kc,ld,me,abcde->ijklm", Q, Q, Q, Q, Q, packet.nabla_riemann
        ),
    )


@pytest.fixture(scope="module")
def unrotated():
    """Per N: the generic packet and its solve at SYMMETRY_EPS."""
    out = {}
    for N in (2, 3):
        packet = synthetic_packet(N, seed=3, r_scale=0.3, dr_scale=0.3)
        sol = SerrinProblem(PacketManifold(packet)).solve(np.zeros(N),
                                                          SYMMETRY_EPS)
        out[N] = (packet, sol)
    return out


@pytest.mark.parametrize("det", [1, -1], ids=["rotation", "reflection"])
@pytest.mark.parametrize("N", [2, 3])
def test_solution_is_equivariant_under_orthogonal_maps(unrotated, N, det):
    """A seeded Q in O(N) with determinant det: the rotated packet's solve
    has the same torsion, volume and area, kernel component Q a, and v at
    the nodes equal to v o Q^T. Measured gaps: relative 2.2e-15 for the
    accounting, 8e-17 for a (|a| 1.2e-5 to 3.9e-5), 1.3e-15 (N = 2) and
    2.9e-14 (N = 3) for v (|v| 1e-3), the last at the solve's outer
    stop."""
    packet, sol = unrotated[N]
    rng = np.random.default_rng(11 + N)
    Q, r = np.linalg.qr(rng.standard_normal((N, N)))
    Q *= np.sign(np.diag(r))
    if np.linalg.det(Q) * det < 0:
        Q[:, 0] *= -1.0
    turned = SerrinProblem(PacketManifold(_rotated(packet, Q))).solve(
        np.zeros(N), SYMMETRY_EPS
    )
    for key in ("torsion", "volume", "area"):
        assert abs(getattr(turned, key) / getattr(sol, key) - 1.0) < 1e-14
    assert np.abs(turned.state.a - Q @ sol.state.a).max() < 5e-16
    basis = sol.state.vbar.basis
    # v o Q^T at the node x is v at Q^T x, the row x Q
    want = sol.v_function().coeffs @ basis.eval_matrix(basis.nodes @ Q)
    gap = np.abs(turned.v_function().node_values() - want).max()
    assert gap < {2: 5e-15, 3: 1e-13}[N]


# -- dilation oracle ---------------------------------------------------------


def _dilated(packet, lam):
    """The packet of the metric scaled by lam^-2: R, Ricci and S scale by
    lam^2, nabla R and grad S by lam^3."""
    return CurvaturePacket(
        dim=packet.dim,
        scalar=lam**2 * packet.scalar,
        scalar_gradient=lam**3 * packet.scalar_gradient,
        ricci=lam**2 * packet.ricci,
        riemann=lam**2 * packet.riemann,
        nabla_riemann=lam**3 * packet.nabla_riemann,
    )


def _assert_same_solution(sol, scaled, lam):
    """The two solves of one unit-ball problem: at lam = 2 every scaling is
    a power of two and the solves agree bit for bit; at lam = 3 up to
    roundoff (measured at most 8.9e-16 relative for the accounting,
    5.5e-17 for a and 6.7e-16 for the coefficients of v), in as many outer
    steps."""
    got = [scaled.torsion, scaled.volume, scaled.area, scaled.state.a,
           scaled.v_function().coeffs, len(scaled.iterations)]
    want = [sol.torsion, sol.volume, sol.area, sol.state.a,
            sol.v_function().coeffs, len(sol.iterations)]
    if lam == 2:
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        return
    for g, w in zip(got[:3], want[:3]):
        assert abs(g / w - 1.0) < 5e-15
    assert np.abs(got[3] - want[3]).max() < 3e-16
    assert np.abs(got[4] - want[4]).max() < 3e-15
    assert got[5] == want[5]


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("N", [2, 3])
def test_packet_solution_is_invariant_under_dilation(unrotated, N, lam):
    """(lam^2 R, lam^3 nabla R) at eps / lam against (R, nabla R) at eps."""
    packet, sol = unrotated[N]
    scaled = SerrinProblem(PacketManifold(_dilated(packet, lam))).solve(
        np.zeros(N), SYMMETRY_EPS / lam
    )
    _assert_same_solution(sol, scaled, lam)


@pytest.fixture(scope="module")
def round_solves():
    """Per N: the solve of ConstantCurvature(N, 1) at SYMMETRY_EPS."""
    out = {}
    for N in (2, 3):
        manifold = ConstantCurvature(N, 1.0)
        out[N] = SerrinProblem(manifold).solve(manifold.origin(), SYMMETRY_EPS)
    return out


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("N", [2, 3])
def test_space_form_solution_is_invariant_under_dilation(round_solves, N, lam):
    """ConstantCurvature(N, lam^2) at eps / lam against curvature 1 at
    eps."""
    manifold = ConstantCurvature(N, float(lam**2))
    scaled = SerrinProblem(manifold).solve(manifold.origin(), SYMMETRY_EPS / lam)
    _assert_same_solution(round_solves[N], scaled, lam)
