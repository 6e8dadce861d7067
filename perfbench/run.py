"""Closed-loop benchmark of the serrin_torsion package.

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. One caller runs the workload's
operations back to back, each starting when the previous one returned,
until --seconds have passed, in whole rounds and never fewer than the
workload's minimum. Every output is checked. The last line of standard output is one JSON object with
correct, attempted, failed and the metrics; the lines above it print every
metric by name and unit, with the environment and the generated inputs.

--trace 0 reports the end-to-end metrics. --trace 1 runs exactly the
minimum rounds with spans around every layer call and reports the per-layer
metrics, so its counts repeat exactly for a seed. A full record of the run
(inputs, rows, spans) goes to perfbench/results/.
"""

import os
import time

_T_START = time.perf_counter()
# Pin BLAS/OpenMP threads before numpy is imported: single-threaded runs
# were within 7% of two threads on an N=3 solve at half the CPU time, and
# they do not compete with each other for the two cores.
THREADS = "1"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
# set-up is measured this many times per run: this process and fresh ones
SETUP_SAMPLES = 3
# the traced run re-times the first operations untraced, at least this long
OVERHEAD_REFERENCE_S = 2.0
TAIL_BEYOND = 10
# per-operation counts that both the untraced and the traced run see
COUNTS = ("outer_steps", "search_solves")


def _load_package():
    """Import the package from ./src of the checkout, or exit 2."""
    if not (SRC / "serrin_torsion" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/serrin_torsion under %s\n" % ROOT)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import serrin_torsion

    if Path(serrin_torsion.__file__).resolve().parent != SRC / "serrin_torsion":
        sys.stderr.write("perfbench: imported %s\n" % serrin_torsion.__file__)
        sys.exit(2)


def setup(name, seed):
    """Import the package and build the workload's problems; (workload, s)."""
    _load_package()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    return workload, time.perf_counter() - _T_START


def setup_seconds(args, own):
    """Median set-up time over this process and fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


# -- running operations ------------------------------------------------------


def run_op(op):
    """Rows of one operation; a typed failure is one failed row."""
    import workloads

    try:
        return op()
    except workloads.TYPED_ERRORS as exc:
        return [workloads.failed_row(type(exc).__name__, message=str(exc))]


def measure(workload, seconds, rounds, tracer=None):
    """Run whole rounds until both `rounds` and `seconds` are reached.

    Returns (inputs per round, rows, operations, loop seconds). Each
    operation records its wall time and the counts its caller can see.
    """
    inputs, rows, ops = [], [], []
    t0 = time.perf_counter()
    i = 0
    while i < rounds or time.perf_counter() - t0 < seconds:
        round_inputs, round_ops = workload.round(i)
        inputs.append(round_inputs)
        for op in round_ops:
            if tracer is not None:
                tracer.op = len(ops)
            t_op = time.perf_counter()
            op_rows = run_op(op)
            record = {"round": i, "seconds": time.perf_counter() - t_op,
                      "counts": {}}
            for key in COUNTS:
                vals = [r[key] for r in op_rows if key in r]
                if vals:
                    record["counts"][key] = sum(vals)
            for row in op_rows:
                row["op"] = len(ops)
            rows += op_rows
            ops.append(record)
        i += 1
    return inputs, rows, ops, time.perf_counter() - t0


# -- statistics --------------------------------------------------------------


def tail(values, n_min):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it in a run of n_min samples, the fewest a run of the workload
    has; the maximum when n_min <= TAIL_BEYOND. Fixing the percentile by
    n_min keeps it from moving when a faster program fits more operations
    into a run."""
    if n_min <= TAIL_BEYOND:
        return max(values), 100.0
    q = 100.0 * (1.0 - TAIL_BEYOND / n_min)
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), q


def end_to_end(workload, rows, loop_s, setup_s):
    """Untraced metrics: ({name: (value, unit)} for the JSON result,
    {name: (value, unit, note)} for every printed metric)."""
    good = [r for r in rows if r["error"] is None and r["check"] is None]
    times = [r["seconds"] for r in good]
    label = workload.label
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    printed = {"setup_s": (setup_s, "s", "median of %d" % SETUP_SAMPLES)}
    if times:
        tail_s, q = tail(times, workload.rounds * workload.rows_per_round)
        printed["op_s_p50"] = (
            statistics.median(times), "s",
            "%s: median of n=%d" % (workload.p50_name, len(times)),
        )
        printed["op_s_tail"] = (
            tail_s, "s", "%s_s_tail: p%.1f of n=%d" % (label, q, len(times))
        )
        printed["ops_per_s"] = (
            len(times) / loop_s, "1/s",
            "%ss_per_s: checked %ss per wall second" % (label, label),
        )
    printed["peak_rss_mb"] = (rss, "MB", "")
    result = {k: (v, u) for k, (v, u, _) in printed.items()}
    for step in workload.steps if good else ():
        printed["%s_s" % step] = (
            statistics.median(r["steps"][step] for r in good), "s",
            "median; printed only",
        )
    return result, printed


# -- environment ---------------------------------------------------------------


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        l3 = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": int(THREADS),
        "nproc": os.cpu_count(),
        "l3_bytes": int(l3) if l3.isdigit() else None,
        "machine": platform.machine(),
    }


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-2d", "solve-3d", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up and print the set-up seconds")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    mismatch = []
    if args.trace:
        import spans

        # untraced reference: the first operations of round 0
        reference = []
        for op in workload.round(0)[1]:
            t0 = time.perf_counter()
            run_op(op)
            reference.append(time.perf_counter() - t0)
            if sum(reference) >= OVERHEAD_REFERENCE_S:
                break
        tracer = spans.Tracer()
        with tracer.installed():
            inputs, rows, ops, loop_s = measure(
                workload, 0.0, workload.rounds, tracer
            )
        traced = sum(op["seconds"] for op in ops[: len(reference)])
        result = tracer.layer_metrics()
        result["trace.overhead_frac"] = (traced / sum(reference) - 1.0, "ratio")
        result["trace.bookkeeping_s"] = (tracer.bookkeeping_s, "s")
        result["trace.spans"] = (len(tracer.spans), "count")
        printed = {k: (v, u, "") for k, (v, u) in result.items()}
        printed["trace.overhead_frac"] = result["trace.overhead_frac"] + (
            "first %d operations, traced over untraced" % len(reference),
        )
        traced_counts = tracer.op_counts()
        for i, op in enumerate(ops):
            seen = traced_counts.get(i, {})
            if any(seen.get(k) != v for k, v in op["counts"].items()):
                mismatch.append((i, op["counts"], seen))
        record["span_counts"] = traced_counts
        record["spans"] = [s.to_record() for s in tracer.spans]
    else:
        setup_s, samples = setup_seconds(args, own_setup)
        record["setup_samples"] = samples
        inputs, rows, ops, loop_s = measure(
            workload, args.seconds, workload.rounds
        )
        result, printed = end_to_end(workload, rows, loop_s, setup_s)

    attempted = len(rows)
    kinds = Counter(r["error"] or "check" for r in rows
                    if r["error"] is not None or r["check"] is not None)
    failed = sum(kinds.values())
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.items()}
    record.update(inputs=inputs, rows=rows, ops=ops, loop_seconds=loop_s,
                  failures=dict(kinds), count_mismatch=mismatch,
                  metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    for round_inputs in inputs:
        print("inputs " + json.dumps(round_inputs))
    for name, (value, unit, note) in printed.items():
        print("%-36s %14.6g %-6s %s" % (name, value, unit, note))
    print("%-36s %14.6g %-6s %d of %d failed %s" % (
        "fail_frac", failed / attempted, "ratio", failed, attempted,
        dict(kinds) or ""))
    for row in rows:
        if row["check"] is not None or row["error"] is not None:
            print("FAILED " + json.dumps(row))
    for op, want, got in mismatch:
        print("COUNT MISMATCH op %d: untraced %s traced %s" % (op, want, got))
    print("record " + str(path.relative_to(ROOT)))
    print(json.dumps({
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
