"""Batch front end: config-driven subcommands over the solver pipelines.

Design constraints the implementation enforces:

* deterministic outputs: repeated runs with the same config and seed
  produce byte-identical files (floats are written in shortest
  round-trip form, JSON keys are sorted, nothing records wall time);
* randomness enters only through the seeded critical-search initializer
  and the seeded draws inside the acceptance checks;
* sweep tasks are solved cold and independently, so the result bytes do
  not depend on the worker count, and rows are sorted by key before
  writing;
* every failure exits nonzero with a machine-readable error record on
  stderr (kind, subcommand, message): config and dependency problems
  exit 2, runtime solver failures exit 1.
"""

import argparse
import configparser
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .acceptance import CHECK_IDS, AcceptanceRun, acceptable
from .curvature import ConformalSphere2D, ConstantCurvature, FlatSpace
from .fitting import fit_even_series, loglog_slope
from .foliation import (
    build_foliation_chart,
    center_curve_through,
    certify_foliation,
    check_certificate_grid,
    solved_profile_curve,
)
from .profile import profile_coefficient, profile_expansion
from .reduced import constants, find_critical, reduced_functional
from .serrin import SerrinProblem
from .sphere_spectral import ball_volume, check_dimension

__all__ = ["main"]

EPS_MAX = 0.5


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""

    kind = "config_error"


class DependencyError(RuntimeError):
    """A subcommand needs the output of another run; exit code 2."""

    kind = "dependency_error"


# -- config parsing -----------------------------------------------------------


# Every key a config may hold, by section; each is read by one _get call of
# a subcommand, and any other section or key is a config error.
CONFIG_KEYS = {
    "run": ("manifold", "dimension", "curvature", "max_degree", "n_radial",
            "seed", "workers"),
    "constants": ("n_min", "n_max"),
    "solve": ("point", "eps"),
    "sweep": ("points", "eps"),
    "find-critical": ("eps", "tol", "jitter"),
    "foliate": ("critical", "t_grid"),
    "profile": ("volumes", "point"),
    "acceptance": ("checks", "strict"),
}


def load_config(path):
    """INI file to a plain nested dict of strings; a section or key outside
    CONFIG_KEYS is a ConfigError."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError("cannot parse config: %s" % exc) from exc
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for section, keys in cfg.items():
        if section not in CONFIG_KEYS:
            raise ConfigError("unknown config section [%s]" % section)
        for key in keys:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError("unknown config key [%s] %s" % (section, key))
    return cfg


def _boolean(raw):
    """configparser's boolean words, case and surrounding spaces ignored."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


_KIND_NAMES = {float: "a number", int: "an integer", _boolean: "a boolean"}


def _get(cfg, section, key, default=None, kind=None):
    """The value of [section] key, or default when the key is absent.

    Without a kind the raw string is returned. With a kind (float, int,
    str or _boolean) the value is read as that kind, and a key that is
    absent with no default is a ConfigError. A float must be finite: nan
    and inf are ConfigErrors too.
    """
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        if kind is not None and default is None:
            raise ConfigError("missing [%s] %s" % (section, key))
        return default
    if kind is None:
        return raw
    try:
        value = kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(
            "[%s] %s is not %s: %r" % (section, key, _KIND_NAMES[kind], raw)
        ) from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(
            "[%s] %s is not a finite number: %r" % (section, key, raw)
        )
    return value


def parse_grid(text, name):
    """Comma list ("0.05, 0.1") or range "lo:hi:n[:log|lin]" (log default)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError("%s range must be lo:hi:n[:log|lin]" % name)
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError("bad %s range %r" % (name, text)) from exc
        spacing = parts[3].strip().lower() if len(parts) == 4 else "log"
        if n < 1:
            raise ConfigError("%s range needs at least one value" % name)
        if spacing == "log":
            if lo <= 0:
                raise ConfigError("log-spaced %s range needs lo > 0" % name)
            vals = np.geomspace(lo, hi, n)
        elif spacing == "lin":
            vals = np.linspace(lo, hi, n)
        else:
            raise ConfigError("unknown %s spacing %r" % (name, spacing))
        return [float(v) for v in vals]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("bad %s list %r" % (name, text)) from exc


def validate_radii(values, name):
    for v in values:
        if not 0.0 < v <= EPS_MAX:
            raise ConfigError(
                "%s value %r outside (0, %s]" % (name, v, EPS_MAX)
            )
    return values


def validate_positive(value, name):
    if not value > 0:
        raise ConfigError("%s must be strictly positive, got %r" % (name, value))
    return value


def validate_distinct(values, name):
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError("%s repeats %r" % (name, v))
    return values


def parse_points(text, dim, one=False):
    """Points of dim comma-separated coordinates: a ";" list, or with one
    the whole text as a single point."""
    tokens = [text] if one else [t for t in text.split(";") if t.strip()]
    if not tokens:
        raise ConfigError("empty point list")
    points = []
    for tok in tokens:
        try:
            coords = [float(c) for c in tok.split(",") if c.strip()]
        except ValueError as exc:
            raise ConfigError("bad point %r" % tok) from exc
        if len(coords) != dim:
            raise ConfigError(
                "point %r has %d coordinates, manifold needs %d"
                % (tok, len(coords), dim)
            )
        points.append(coords)
    return points


def config_points(text, spec, one=False):
    """The points of a config value on the manifold of spec, in the grammar
    of parse_points; the point itself when one is set.

    On the embedded round model a point is an ambient vector in R^(N+1)
    and must lie on the sphere of radius 1/sqrt(k).
    """
    round_model = spec["manifold"] == "round"
    points = parse_points(text, spec["dimension"] + round_model, one)
    if round_model:
        radius = 1.0 / np.sqrt(spec["curvature"])
        for p in points:
            if abs(float(np.linalg.norm(p)) - radius) > 1e-8 * max(radius, 1.0):
                raise ConfigError(
                    "point %r is not on the sphere of radius %r" % (p, radius)
                )
    return points[0] if one else points


def manifold_spec(cfg):
    """The [run] manifold as a plain dict, checked before any solve: the
    models' own ValueErrors (k > 0 on the round model, a ball dimension
    with a sphere basis) become config errors."""
    kind = _get(cfg, "run", "manifold", "flat").strip().lower()
    dim = _get(cfg, "run", "dimension", 2, kind=int)
    if dim < 2:
        raise ConfigError("dimension must be at least 2, got %d" % dim)
    spec = {"manifold": kind, "dimension": dim}
    if kind == "round":
        spec["curvature"] = _get(cfg, "run", "curvature", 1.0, kind=float)
    elif kind == "conformal":
        if dim != 2:
            raise ConfigError("the conformal model is two-dimensional")
    elif kind != "flat":
        raise ConfigError("unknown manifold %r (flat, round, conformal)" % kind)
    try:
        check_dimension(dim)
        make_manifold(spec)
    except ValueError as exc:
        raise ConfigError("[run] %s" % exc) from exc
    return spec


def make_manifold(spec):
    kind = spec["manifold"]
    if kind == "flat":
        return FlatSpace(spec["dimension"])
    if kind == "round":
        return ConstantCurvature(spec["dimension"], spec["curvature"])
    return ConformalSphere2D()


def make_problem(cfg, spec):
    """The solver context; an absent [run] max_degree or n_radial takes the
    grid's default, and the grid's ValueError on a size it cannot build is
    a config error."""
    run = cfg.get("run", {})
    max_degree = (_get(cfg, "run", "max_degree", kind=int)
                  if "max_degree" in run else None)
    n_radial = (_get(cfg, "run", "n_radial", kind=int)
                if "n_radial" in run else None)
    try:
        return SerrinProblem(make_manifold(spec), max_degree, n_radial)
    except ValueError as exc:
        raise ConfigError("[run] %s" % exc) from exc


# -- deterministic serialization ----------------------------------------------


def _json_default(obj):
    """numpy arrays and scalars as their Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _fmt_cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class Reporter:
    """Collects the lines a command prints; mirrors them to a log file."""

    def __init__(self):
        self.lines = []

    def say(self, line):
        self.lines.append(line)
        print(line)

    def write_log(self, out_dir, name):
        if out_dir is None:
            return
        path = os.path.join(out_dir, name + ".log")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + "\n")


def write_json(out_dir, name, payload):
    if out_dir is None:
        return
    path = os.path.join(out_dir, name + ".json")
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(out_dir, name, fieldnames, rows):
    if out_dir is None:
        return
    path = os.path.join(out_dir, name + ".csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt_cell(row[k]) for k in fieldnames])


def _point_columns(row):
    """row with its point's coordinates added as the columns p0, p1, ..."""
    row.update(("p%d" % i, x) for i, x in enumerate(row["point"]))
    return row


# -- subcommands ---------------------------------------------------------------


def cmd_verify_constants(cfg, out, seed, workers, args, report):
    n_min = _get(cfg, "constants", "n_min", 2, kind=int)
    n_max = _get(cfg, "constants", "n_max", 6, kind=int)
    if n_min < 2:
        raise ConfigError("constants need dimension at least 2, got %d" % n_min)
    if n_max < n_min:
        raise ConfigError("n_max below n_min")
    rows = []
    report.say("N alpha beta J1 c")
    for N in range(n_min, n_max + 1):
        alpha, beta, J1, c = constants(N)
        rows.append({"N": N, "alpha": alpha, "beta": beta, "J1": J1, "c": c})
        report.say(
            "%d %s %s %s %s" % (N, repr(alpha), repr(beta), repr(J1), repr(c))
        )
    write_csv(out, "constants", ["N", "alpha", "beta", "J1", "c"], rows)
    write_json(out, "constants", {"rows": rows})
    return 0


def cmd_solve(cfg, out, seed, workers, args, report):
    spec = manifold_spec(cfg)
    problem = make_problem(cfg, spec)
    point_raw = _get(cfg, "solve", "point")
    if point_raw is None:
        point = [float(x) for x in problem.manifold.origin()]
    else:
        point = config_points(point_raw, spec, one=True)
    eps = validate_radii([_get(cfg, "solve", "eps", kind=float)], "eps")[0]
    rep = reduced_functional(problem, np.array(point), eps)
    sol = rep.solution
    record = rep.to_record()
    record.update(
        manifold=spec,
        seed=seed,
        steps=len(sol.iterations),
        residual_inf=float(sol.residual_overdetermined.norm_inf()),
    )
    report.say("solved %s at eps=%s in %d steps" % (point, repr(eps), record["steps"]))
    report.say(
        "phi_eps=%s J=%s volume=%s a_norm=%s"
        % tuple(repr(record[k]) for k in ("phi_eps", "J", "volume", "a_norm"))
    )
    write_json(out, "solve", record)
    return 0


def _sweep_task(payload):
    """One cold solve; runs in a worker process, so it rebuilds the problem."""
    cfg = {"run": payload["run"]}
    problem = make_problem(cfg, manifold_spec(cfg))
    rep = reduced_functional(problem, np.array(payload["point"]), payload["eps"])
    row = rep.to_record()
    row["v_norm"] = row.pop("v_sobolev")
    row["v0"] = rep.solution.state.v0
    row["steps"] = len(rep.solution.iterations)
    return _point_columns(row)


def cmd_sweep(cfg, out, seed, workers, args, report):
    spec = manifold_spec(cfg)
    points = validate_distinct(
        config_points(_get(cfg, "sweep", "points", kind=str), spec),
        "[sweep] points",
    )
    eps_raw = _get(cfg, "sweep", "eps", kind=str)
    eps_list = validate_distinct(
        validate_radii(parse_grid(eps_raw, "eps"), "eps"), "[sweep] eps"
    )
    # the tasks rebuild the problem in their workers; its grid is checked
    # here, before they fan out
    make_problem(cfg, spec)
    run_section = dict(cfg.get("run", {}))
    tasks = [
        {"run": run_section, "point": p, "eps": e}
        for p in points
        for e in eps_list
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["point"], r["eps"]))
    fields = ["p%d" % i for i in range(len(points[0]))] + [
        "eps", "v0", "v_norm", "a_norm", "J", "volume", "area",
        "phi_eps", "F", "steps",
    ]
    write_csv(out, "sweep", fields, rows)

    flat = spec["manifold"] == "flat"
    summaries = []
    invariants_ok = True
    for p in sorted(points):
        sub = [r for r in rows if r["point"] == p]
        eps_arr = np.array([r["eps"] for r in sub])
        norms = np.array([r["v_norm"] for r in sub])
        entry = {"point": p, "n_eps": len(sub)}
        if flat:
            entry["max_v_norm"] = float(norms.max())
            if norms.max() >= 1e-10:
                invariants_ok = False
        elif len(sub) >= 2 and norms.min() > 0:
            entry["v_norm_slope"] = loglog_slope(eps_arr, norms)
        if len(sub) >= 3:
            fit = fit_even_series(eps_arr, np.array([r["phi_eps"] for r in sub]))
            entry["phi_fit"] = {str(k): v for k, v in fit.items()}
        summaries.append(entry)
        if flat:
            report.say("point %s: max v_norm %s" % (p, repr(entry["max_v_norm"])))
        elif "v_norm_slope" in entry:
            report.say("point %s: v_norm slope %s" % (p, repr(entry["v_norm_slope"])))
    payload = {
        "manifold": spec,
        "seed": seed,
        "eps": eps_list,
        "summaries": summaries,
        "invariants_ok": invariants_ok,
    }
    write_json(out, "sweep", payload)
    if not invariants_ok:
        raise RuntimeError("flat sweep produced a nonzero boundary perturbation")
    report.say("sweep done: %d solves" % len(rows))
    return 0


def cmd_find_critical(cfg, out, seed, workers, args, report):
    spec = manifold_spec(cfg)
    problem = make_problem(cfg, spec)
    eps_raw = _get(cfg, "find-critical", "eps", "0.1")
    eps_list = validate_distinct(
        validate_radii(parse_grid(eps_raw, "eps"), "eps"), "[find-critical] eps"
    )
    section = cfg.get("find-critical", {})
    options = {}
    if "tol" in section:
        tol = _get(cfg, "find-critical", "tol", kind=float)
        options["tol"] = validate_positive(tol, "tol")
    if "jitter" in section:
        jitter = _get(cfg, "find-critical", "jitter", kind=float)
        options["jitter"] = validate_positive(jitter, "jitter")
    manifold = problem.manifold
    limit = manifold.scalar_max_point()
    rows = []
    for eps in sorted(eps_list):
        p, sol, info = find_critical(problem, eps, seed=seed, **options)
        row = {
            "eps": eps,
            "point": [float(x) for x in np.atleast_1d(p)],
            "a_norm": float(np.linalg.norm(sol.state.a)),
            "solves": info["solves"],
        }
        if limit is not None:
            row["dist_over_eps2"] = manifold.distance(limit, p) / eps**2
        rows.append(row)
        report.say(
            "eps=%s point=%s a_norm=%s"
            % (repr(eps), row["point"], repr(row["a_norm"]))
        )
    reference = rows[-1]
    payload = {
        "manifold": spec,
        "seed": seed,
        "rows": rows,
        "reference": {"eps": reference["eps"], "point": reference["point"]},
    }
    if limit is not None:
        payload["limit_point"] = [float(x) for x in limit]
    write_json(out, "find_critical", payload)
    fields = ["eps"] + ["p%d" % i for i in range(len(reference["point"]))]
    fields += ["a_norm", "solves"]
    if limit is not None:
        fields.append("dist_over_eps2")
    write_csv(
        out, "find_critical", fields, [_point_columns(dict(r)) for r in rows]
    )
    return 0


def cmd_foliate(cfg, out, seed, workers, args, report):
    spec = manifold_spec(cfg)
    critical_path = _get(cfg, "foliate", "critical")
    if critical_path is None:
        raise DependencyError(
            "foliate needs [foliate] critical pointing at a find-critical run"
        )
    if not os.path.exists(critical_path):
        raise DependencyError(
            "critical-point run not found: %s" % critical_path
        )
    try:
        with open(critical_path, encoding="utf-8") as fh:
            critical = json.load(fh)
    except ValueError as exc:
        raise DependencyError(
            "critical-point run is not JSON: %s" % critical_path
        ) from exc
    ref = critical.get("reference") if isinstance(critical, dict) else None
    if not isinstance(ref, dict) or not {"eps", "point"} <= ref.keys():
        raise DependencyError(
            "not a find-critical run (no reference eps and point): %s"
            % critical_path
        )
    if critical.get("manifold") != spec:
        raise DependencyError(
            "critical run used manifold %r, config says %r"
            % (critical.get("manifold"), spec)
        )
    problem = make_problem(cfg, spec)
    t_raw = _get(cfg, "foliate", "t_grid", "0.02:0.12:8")
    t_grid = validate_radii(parse_grid(t_raw, "t_grid"), "t_grid")
    try:
        t_grid = check_certificate_grid(t_grid)
    except ValueError as exc:
        raise ConfigError("[foliate] t_grid: %s" % exc) from exc
    base, curve = center_curve_through(
        problem.manifold, np.array(ref["point"]), ref["eps"]
    )
    profile = solved_profile_curve(problem, curve)
    chart = build_foliation_chart(problem.manifold, t_grid, curve, profile)
    cert = certify_foliation(chart, t_grid)
    for key in sorted(cert):
        report.say("%s = %s" % (key, _fmt_cell(cert[key])))
    payload = {
        "manifold": spec,
        "seed": seed,
        "base": [float(x) for x in np.atleast_1d(base)],
        "t_grid": t_grid,
        "certificate": cert,
        "critical_run": critical_path,
    }
    write_json(out, "foliation", payload)
    rows = [
        {"t": t, "node": idx, "omega": om}
        for t, idx, om in chart.leaf_table()
    ]
    write_csv(out, "foliation", ["t", "node", "omega"], rows)
    return 0


def cmd_profile(cfg, out, seed, workers, args, report):
    spec = manifold_spec(cfg)
    for key in ("max_degree", "n_radial"):
        if key in cfg.get("run", {}):
            raise ConfigError("[run] %s is not read by profile" % key)
    manifold = make_manifold(spec)
    volumes = parse_grid(_get(cfg, "profile", "volumes", kind=str), "volumes")
    N = spec["dimension"]
    for v in volumes:
        validate_positive(v, "volume")
        radius = (v / ball_volume(N)) ** (1.0 / N)
        if radius > EPS_MAX:
            raise ConfigError("volume %r has Euclidean radius %.3g outside "
                              "(0, %s]" % (v, radius, EPS_MAX))
    # the fit of profile_coefficient has two orders, so it needs three
    # distinct volumes
    validate_distinct(volumes, "[profile] volumes")
    if len(volumes) < 3:
        raise ConfigError("[profile] volumes needs at least 3 values, got %d"
                          % len(volumes))
    point_raw = _get(cfg, "profile", "point")
    if point_raw is not None:
        p = np.array(config_points(point_raw, spec, one=True))
    else:
        p = manifold.center()
    points = profile_expansion(manifold, volumes, p=p)
    coef = profile_coefficient(points, N)
    write_csv(
        out,
        "profile",
        ["volume", "eps_used", "J_ball", "T_euclidean", "ratio"],
        [pt.to_record() for pt in points],
    )
    S = manifold.scalar_curvature(p)
    c = constants(N)[3]
    payload = {
        "manifold": spec,
        "point": [float(x) for x in np.atleast_1d(p)],
        "scalar_curvature": float(S),
        "fitted_v_power_coefficient": coef,
        "predicted_coefficient": float(-c * S),
        "volumes": volumes,
    }
    write_json(out, "profile", payload)
    report.say("fitted v^(2/N) coefficient %s" % repr(coef))
    report.say("curvature prediction %s" % repr(float(-c * S)))
    return 0


def _parse_checks(text):
    text = (text or "all").strip().lower()
    if text == "all":
        return sorted(CHECK_IDS)
    ids = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok:
            lo, hi = tok.split("-", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError("bad check range %r" % tok) from exc
            if lo > hi:
                raise ConfigError("bad check range %r" % tok)
            ids.update(range(lo, hi + 1))
        else:
            try:
                ids.add(int(tok))
            except ValueError as exc:
                raise ConfigError("bad check id %r" % tok) from exc
    unknown = ids - set(CHECK_IDS)
    if unknown:
        raise ConfigError("unknown check ids %s" % sorted(unknown))
    if not ids:
        raise ConfigError("empty check selection")
    return sorted(ids)


def cmd_run_acceptance(cfg, out, seed, workers, args, report):
    # the command-line flag wins over the config key
    strict = _get(cfg, "acceptance", "strict", False, kind=_boolean) or args.strict
    ids = _parse_checks(_get(cfg, "acceptance", "checks"))
    engine = AcceptanceRun(seed=seed)
    records = engine.run_all(ids)
    gate = True
    n_pass = n_fail = n_documented = 0
    for rec in records:
        ok = acceptable(rec, strict=strict)
        if rec["passed"]:
            n_pass += 1
            verdict = "PASS"
        elif ok:
            n_documented += 1
            verdict = "FAIL (documented discrepancy, companion holds)"
        else:
            n_fail += 1
            verdict = "FAIL"
        gate = gate and ok
        report.say("acceptance %02d %s: %s" % (rec["id"], rec["name"], verdict))
    report.say(
        "gate: %s (%d passed, %d failed, %d documented)"
        % ("PASS" if gate else "FAIL", n_pass, n_fail, n_documented)
    )
    write_json(
        out,
        "acceptance",
        {
            "seed": seed,
            "strict": strict,
            "checks": ids,
            "records": records,
            "gate_passed": gate,
        },
    )
    return 0 if gate else 1


COMMANDS = {
    "verify-constants": (cmd_verify_constants, False),
    "solve": (cmd_solve, True),
    "sweep": (cmd_sweep, True),
    "find-critical": (cmd_find_critical, True),
    "foliate": (cmd_foliate, True),
    "profile": (cmd_profile, True),
    "run-acceptance": (cmd_run_acceptance, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="serrin-torsion",
        description="Construct and check solutions of the over-determined "
        "torsion problem on model manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        if name == "run-acceptance":
            p.add_argument(
                "--strict",
                action="store_true",
                help="demand every stated check, documented discrepancies "
                "included",
            )
    return parser


def _error_record(kind, command, message, out):
    record = {
        "error": {"kind": kind, "subcommand": command, "message": message}
    }
    line = json.dumps(record, sort_keys=True)
    print(line, file=sys.stderr)
    if out is not None and os.path.isdir(out):
        with open(
            os.path.join(out, "error.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(line + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    handler, needs_config = COMMANDS[command]
    out = args.out
    try:
        if out is not None:
            os.makedirs(out, exist_ok=True)
        if needs_config and args.config is None:
            raise ConfigError("%s requires --config" % command)
        cfg = load_config(args.config)
        seed = args.seed
        if seed is None:
            seed = _get(cfg, "run", "seed", 0, kind=int)
        workers = args.workers
        if workers is None:
            workers = _get(cfg, "run", "workers", 1, kind=int)
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        if seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        report = Reporter()
        code = handler(cfg, out, seed, workers, args, report)
        report.write_log(out, command.replace("-", "_"))
        return code
    except (ConfigError, DependencyError) as exc:
        _error_record(exc.kind, command, str(exc), out)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as a record
        _error_record("runtime_error", command, repr(exc), out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
