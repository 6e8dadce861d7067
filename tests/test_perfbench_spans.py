"""The benchmark's tracer and workloads call names that exist in the package.

perfbench/spans.py patches package methods and functions by name from
outside the package. A renamed method target breaks `run.py --trace 1`
(the tracer reads it from its owner's __dict__), and a renamed function
target silently drops a layer from the trace. perfbench/workloads.py calls
the package directly (set-up caches, solves, accounting), so a changed call
surface breaks the benchmark's operations. Both files are loaded by path,
so this only reads perfbench/. One traced solve checks that the spans the
benchmark reduces are still recorded, and the first operation of each
solve workload runs with its output checks.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from serrin_torsion import profile
from serrin_torsion.curvature import ConformalSphere2D, ConstantCurvature
from serrin_torsion.serrin import SerrinProblem
from serrin_torsion.sphere_spectral import ball_volume

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")

# Function targets the tracer still lists although no traced module defines
# them, with the reason; each stays an expected failure until the benchmark
# drops or re-points it.
STALE_FUNCTION_TARGETS = {
    "minimize": "reduced no longer imports scipy's minimize (the Nelder-Mead "
    "re-seed is gone), so reduced.search_fallbacks counts nothing",
}


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in spans._CLASS_TARGETS],
    ids=["%s.%s" % (o.__name__, a) for o, a, _, _ in spans._CLASS_TARGETS],
)
def test_class_target_in_owner_dict(owner, attr):
    assert attr in owner.__dict__


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True, reason=STALE_FUNCTION_TARGETS[name]
            ),
        )
        if name in STALE_FUNCTION_TARGETS
        else name
        for name, _, _ in spans._FUNCTION_TARGETS
    ],
)
def test_function_target_in_a_traced_module(name):
    assert any(name in vars(module) for module in spans._MODULES)


def test_tracer_records_one_solve():
    """One traced conformal solve: the jet spans read the state positionally
    (args[4]), and every outer step spans its metric, context and Neumann
    layers once (a prototype recorded 3 of each)."""
    problem = SerrinProblem(ConformalSphere2D())
    with spans.Tracer().installed() as tracer:
        problem.solve(np.array([0.3, -0.2]), 0.1)
    names = [s.name for s in tracer.spans]
    assert names.count("serrin.solve") == 1
    jets = [s for s in tracer.spans if s.name == "curvature.jet_build"]
    assert jets and all(s.attrs and "vbar_max" in s.attrs for s in jets)
    for name in ("curvature.metric", "ball_solver.context", "ball_solver.neumann"):
        assert names.count(name) == len(jets)


def test_tracer_volume_spans_build_no_jet():
    """A traced volume match spans each ball volume, and the unperturbed
    ball's volume comes from the chart: no jet, rho or context span."""
    manifold = ConstantCurvature(2, 1.0)
    with spans.Tracer().installed() as tracer:
        profile.matched_radius(
            manifold, manifold.origin(), ball_volume(2) * 0.01
        )
    names = [s.name for s in tracer.spans]
    assert names.count("profile.volume") >= 3
    for name in ("ball_solver.context", "curvature.jet_build",
                 "curvature.rho_jet"):
        assert name not in names


@pytest.fixture(scope="module")
def seeded_workloads():
    """Every workload built with seed 0; its set-up fills the basis caches
    through the package (workloads._warm)."""
    return {name: cls(0) for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", ["solve-2d", "solve-3d"])
def test_first_workload_operation_passes_its_checks(seeded_workloads, name):
    _, operations = seeded_workloads[name].round(0)
    rows = operations[0]()
    assert rows
    for row in rows:
        assert row["error"] is None and row["check"] is None, row
