"""Radial-graph reparametrization of the perturbed-sphere family.

The solved domains for a shrinking radius parameter t, centered along a
curve that settles quadratically onto a base point, sweep out nested
hypersurfaces around that base. This module rewrites each leaf as a graph
omega(t, y) over the unit sphere of the base tangent space and certifies,
by finite differences on a t-grid, that the graphs increase strictly in t
with unit slope at t = 0: the numerical witness that the family foliates
a punctured neighborhood.
"""

import numpy as np
from dataclasses import dataclass

__all__ = [
    "FoliationChart",
    "FoliationError",
    "build_foliation_chart",
    "center_curve_through",
    "certify_foliation",
    "check_certificate_grid",
    "recentering_solve",
    "reparametrize",
    "solved_profile_curve",
]


class FoliationError(RuntimeError):
    """Leaf construction or certification failed."""


# reparametrize: fixed-point tolerance on the direction-map gap, and its
# iteration cap.
INVERSE_TOL = 1e-12
INVERSE_MAX_ITER = 50
# recentering_solve: largest round-trip gap exp_base(log_base(q)) - q of a
# leaf point, in point coordinates.
LEAF_RESIDUAL_TOL = 1e-12


def recentering_solve(manifold, t, curve, profile):
    """Leaf positions as tangent vectors at the base point.

    The leaf of parameter t is the image of the perturbed sphere of radius
    t(1 + v) around curve(t); each quadrature direction x is pushed to the
    manifold and pulled back through the base-point chart, returning the
    (n, N) array w with exp_base(w(x)) on the leaf. The round trip through
    the chart map must close to LEAF_RESIDUAL_TOL in point coordinates, or
    the leaf fails with FoliationError; there is no looser setting.
    """
    base = np.asarray(curve(0.0), dtype=float)
    p_t = np.asarray(curve(t), dtype=float)
    v = profile(t)
    nodes = v.basis.nodes
    radii = t * (1.0 + v.node_values())
    try:
        targets = manifold.exp(p_t, radii[:, None] * nodes)
        w = manifold.log(base, targets)
        gap = np.abs(manifold.exp(base, w) - targets).max()
    except RuntimeError as exc:
        # a failed integration or an unconverged log: the leaf names which
        raise FoliationError("leaf at t = %.6g: %s" % (t, exc)) from exc
    if gap > LEAF_RESIDUAL_TOL:
        raise FoliationError(
            "chart-map residual %.3g exceeds %.3g" % (gap, LEAF_RESIDUAL_TOL)
        )
    return w


def reparametrize(w, basis):
    """Radial graph omega(y) of a leaf given by tangent vectors w.

    Projects each component of w onto the sphere basis, forms the
    direction map alpha(x) = w(x)/|w(x)|, inverts it at every quadrature
    node by fixed-point iteration to INVERSE_TOL (alpha is a small
    perturbation of the identity), and returns the omega values at the
    nodes.
    """
    w = np.asarray(w, dtype=float)
    norms = np.linalg.norm(w, axis=1)
    if norms.min() < 1e-14:
        raise FoliationError("leaf passes through the base point")
    comps = np.stack([basis.project_values(c).coeffs for c in w.T])

    def w_at(x):
        return (comps @ basis.eval_matrix(x)).T

    y = basis.nodes
    x = np.array(y)
    for _ in range(INVERSE_MAX_ITER):
        wx = w_at(x)
        ax = wx / np.linalg.norm(wx, axis=1, keepdims=True)
        gap = np.abs(ax - y).max()
        if gap < INVERSE_TOL:
            break
        x = x + (y - ax)
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    else:
        raise FoliationError(
            "direction map not invertible on the grid (last gap %.3g)" % gap
        )
    return np.linalg.norm(w_at(x), axis=1)


@dataclass
class FoliationChart:
    """Sampled radial graphs of the leaf family around a base point."""

    t_grid: np.ndarray
    omega: np.ndarray  # (n_t, n_nodes)

    def leaf_table(self):
        """Rows (t, node index, omega) for export."""
        rows = []
        for i, t in enumerate(self.t_grid):
            for j in range(self.omega.shape[1]):
                rows.append((float(t), j, float(self.omega[i, j])))
        return rows


def _leaf_grid(t_grid):
    """t_grid as a float array; ValueError unless it has at least two
    values, all positive and strictly increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("need a one-dimensional t-grid")
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t-grid must be positive and strictly increasing")
    return t_grid


def check_certificate_grid(t_grid):
    """t_grid as a float array; ValueError unless a certificate can be read
    on it: a leaf grid of at least 8 values. Checked before any leaf is
    solved, it fails a grid that certify_foliation would reject only after
    the whole chart is built."""
    t_grid = _leaf_grid(t_grid)
    if len(t_grid) < 8:
        raise ValueError("certification needs at least 8 t-values")
    return t_grid


def build_foliation_chart(manifold, t_grid, curve, profile):
    """Assemble the sampled chart by recentering each leaf in turn.

    Every leaf must pass recentering_solve's LEAF_RESIDUAL_TOL round trip
    and reparametrize's INVERSE_TOL inversion; the first leaf that does not
    raises FoliationError.
    """
    t_grid = _leaf_grid(t_grid)
    omegas = []
    for t in t_grid:
        basis = profile(float(t)).basis
        w = recentering_solve(manifold, float(t), curve, profile)
        omegas.append(reparametrize(w, basis))
    return FoliationChart(t_grid=t_grid, omega=np.asarray(omegas))


def certify_foliation(chart, t_grid=None):
    """Monotonicity certificate for the sampled graphs.

    Returns the largest prefix (0, t1] of the grid on which consecutive
    graphs strictly nest at every node, the minimum centered t-derivative
    of omega over that prefix, and the extrapolated slope of omega at
    t = 0 (fitted through the two smallest grid values, which kills the
    quadratic drift term). Raises FoliationError when even the first
    interval fails.
    """
    t = np.asarray(chart.t_grid, dtype=float)
    if t_grid is not None:
        if not np.allclose(t, np.asarray(t_grid, dtype=float)):
            raise ValueError("chart was not sampled on the requested t-grid")
    check_certificate_grid(t)
    om = chart.omega
    if not np.all(om[0] > 0):
        raise FoliationError("smallest leaf is not a positive graph")
    steps = om[1:] - om[:-1]
    ok = np.all(steps > 0, axis=1)
    n_ok = int(len(ok)) if bool(ok.all()) else int(np.argmin(ok))
    if n_ok == 0:
        raise FoliationError("no positive prefix: first two leaves overlap")
    t1_index = n_ok  # leaves t[0] .. t[n_ok] certified
    dt_min = float(
        (steps[:n_ok] / np.diff(t)[:n_ok, None]).min()
    )
    centered = []
    for i in range(1, t1_index):
        centered.append((om[i + 1] - om[i - 1]) / (t[i + 1] - t[i - 1]))
    dt_centered_min = float(np.min(centered)) if centered else dt_min

    # slope at t -> 0 from the two smallest leaves: fit omega = s t + q t^2
    t1v, t2v = t[0], t[1]
    s = (t2v**2 * om[0] - t1v**2 * om[1]) / (t1v * t2v * (t2v - t1v))
    return {
        "t1": float(t[t1_index]),
        "n_certified": int(t1_index + 1),
        "min_step_slope": dt_min,
        "min_dt_omega": dt_centered_min,
        "slope_zero_min": float(s.min()),
        "slope_zero_max": float(s.max()),
        "slope_zero_error": float(np.abs(s - 1.0).max()),
        "nested": bool(ok.all()),
    }


# -- building the curve and profiles from the solver ----------------------------


def center_curve_through(manifold, p_ref, eps_ref):
    """Quadratic center curve pinned by one located critical point.

    The critical centers drift quadratically from their limit point, so one
    well-conditioned search at eps_ref (find_critical) pins the drift
    vector and the curve is the quadratic interpolant through the base.
    Locating centers at each small t independently would be
    ill-conditioned: the kernel component scales like t^3, so the
    achievable center accuracy degrades as 1/t^3 and pollutes the slope
    certificate.

    The base is the scalar curvature maximum when the manifold exposes one
    (there the zero-radius limit is exact); otherwise the reference point
    itself, making the curve constant. Returns (base, curve) with
    curve(0) = base and curve(eps_ref) = p_ref.
    """
    p_ref = np.asarray(p_ref, dtype=float)
    if hasattr(manifold, "scalar_max_point"):
        base = np.asarray(manifold.scalar_max_point(), dtype=float)
        w_ref = manifold.log(base, np.atleast_2d(p_ref))[0]
    else:
        base = p_ref
        w_ref = np.zeros(manifold.dim)

    def curve(t):
        scale = (t / eps_ref) ** 2
        if scale == 0.0 or np.abs(w_ref).max() == 0.0:
            return base
        return manifold.exp(base, np.atleast_2d(scale * w_ref))[0]

    return base, curve


def solved_profile_curve(problem, curve):
    """Profile map t -> solved boundary perturbation at (curve(t), t).

    The degree-1 component of the solved state is a center translation,
    not a domain deformation, so the returned profile is the solved mean
    plus the degree >= 2 remainder. Solutions are cached per t.
    """
    cache = {}

    def profile(t):
        key = float(t)
        if key not in cache:
            sol = problem.solve(np.asarray(curve(key), dtype=float), key)
            cache[key] = sol.state.domain_profile()
        return cache[key]

    return profile
