"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The module runs every workload once untraced and once traced with the same
seed, about four minutes on two cores. The repository's own test suite does
not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11
WORKLOADS = ("solve-2d", "solve-3d", "pipeline")

# Per-layer metric -> workloads on which it has to be non-zero (the
# workloads whose end-to-end metrics it should move).
SHOULD_MOVE = {
    "curvature.rho_jet_s": ("solve-3d",),
    "curvature.rho_jet_calls": ("solve-3d",),
    "curvature.metric_s": ("solve-2d", "solve-3d"),
    "curvature.roundoff_deform_frac": ("solve-3d",),
    "sphere_spectral.harmonic_eval_s": ("solve-3d",),
    "sphere_spectral.harmonic_eval_bytes": ("solve-3d",),
    "ball_solver.context_s": ("solve-2d", "pipeline"),
    "ball_solver.derivatives_s": ("solve-2d",),
    "ball_solver.derivatives_calls": ("solve-2d",),
    "ball_solver.poisson_s": ("solve-2d",),
    "ball_solver.neumann_s": ("solve-2d",),
    "ball_solver.dirichlet_solves": ("solve-2d", "solve-3d"),
    "ball_solver.picard_iters": ("solve-2d", "solve-3d"),
    "serrin.outer_steps": ("solve-2d", "solve-3d", "pipeline"),
    "serrin.solve_self_s": ("solve-2d", "solve-3d"),
    "reduced.accounting_s": ("solve-2d", "solve-3d"),
    "reduced.search_solves": ("pipeline",),
    "reduced.jacobian_solve_frac": ("pipeline",),
    # counts the Nelder-Mead re-seed, which no search of the workload
    # needs: reported, but zero on every workload at this commit
    "reduced.search_fallbacks": (),
    "foliation.leaf_solves": ("pipeline",),
    "foliation.chart_s": ("pipeline",),
    "profile.volume_evals": ("pipeline",),
    "profile.match_s": ("pipeline",),
    "profile.energy_s": ("pipeline",),
}


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def bench():
    """(result line, full record) of one run, cached per (workload, trace)."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            out = _run(workload, trace)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            path = BENCH / "results" / (
                "%s-seed%d-trace%d.json" % (workload, SEED, trace)
            )
            cache[workload, trace] = (result, json.loads(path.read_text()))
        return cache[workload, trace]

    return get


@pytest.fixture(scope="module")
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    import workloads

    return run, workloads


def test_tail_percentile(bench_modules):
    run, _ = bench_modules
    assert run.tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0)
    values = [float(i) for i in range(20)]
    value, q = run.tail(values, 20)
    assert q == 50.0
    assert sum(v > value for v in values) == 10
    # a longer run keeps the percentile of the workload's shortest run
    assert run.tail(values + values, 20)[1] == 50.0


def test_inputs_come_from_the_seed(bench_modules):
    _, workloads = bench_modules
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(5), cls(5), cls(6)
        assert a.round(1)[0] == b.round(1)[0]
        assert a.round(1)[0] != c.round(1)[0]
        assert a.round(1)[0] != a.round(2)[0]
    centers = [workloads.Solve2D(s).round(1)[0]["center"] for s in range(20)]
    assert max(abs(x) for p in centers for x in p) <= workloads.CENTER_BOX


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_checked_and_correct(bench, workload):
    for trace in (0, 1):
        result, record = bench(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(record["rows"]) >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_equal_untraced(bench, workload):
    _, untraced = bench(workload, 0)
    _, traced = bench(workload, 1)
    common = min(len(untraced["ops"]), len(traced["ops"]))
    assert common >= 1
    for i in range(common):
        want = untraced["ops"][i]["counts"]
        assert want, "operation %d has no counts" % i
        seen = traced["span_counts"][str(i)]
        assert {k: seen[k] for k in want} == want
    assert traced["count_mismatch"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_nonzero_where_they_move(bench, workload):
    result, _ = bench(workload, 1)
    metrics = result["metrics"]
    assert set(SHOULD_MOVE) <= set(metrics)
    for name, moved in SHOULD_MOVE.items():
        if workload in moved:
            assert metrics[name]["value"] > 0, name


def test_roundoff_fraction_separates_cold_and_perturbed(bench):
    result, _ = bench("solve-3d", 1)
    assert 0.0 < result["metrics"]["curvature.roundoff_deform_frac"]["value"] < 1.0


@pytest.mark.parametrize(
    "workload, largest",
    [("solve-3d", "curvature.rho_jet_s"), ("solve-2d", "ball_solver.derivatives_s")],
)
def test_largest_layer_time(bench, workload, largest):
    """Where the time goes at the commit that introduced the benchmark."""
    result, _ = bench(workload, 1)
    times = {
        k: v["value"] for k, v in result["metrics"].items()
        if v["unit"] == "s"
    }
    assert max(times, key=times.get) == largest


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("solve-2d", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
