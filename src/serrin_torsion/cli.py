"""Batch front end: config-driven subcommands over the solver pipelines.

Design constraints the implementation enforces:

* every config value is read and checked by one schema (SCHEMA) before a
  subcommand starts its work;
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
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from .acceptance import CHECK_IDS, AcceptanceRun, acceptable
from .ball_solver import MAX_RADIAL
from .curvature import ConformalSphere2D, ConstantCurvature, FlatSpace
from .fitting import fit_even_series, loglog_slope
from .foliation import (
    build_foliation_chart,
    center_curve_through,
    certify_foliation,
    check_certificate_grid,
    solved_profile_curve,
)
from .profile import MIN_RADIUS, profile_coefficient, profile_expansion
from .reduced import CHART_RADIUS, constants, find_critical, reduced_functional
from .serrin import SerrinProblem
from .sphere_spectral import MAX_DEGREE, ball_volume, check_dimension

__all__ = ["main"]

EPS_MAX = 0.5
# Most values of a lo:hi:n range. A range spells n values in a few
# characters, all built before any is checked, and each is at least one
# solve (0.03-0.1 s on the default grids): 1000 values run 0.5-2 minutes.
RANGE_MAX = 1000


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""

    kind = "config_error"


class DependencyError(RuntimeError):
    """A subcommand needs the output of another run; exit code 2."""

    kind = "dependency_error"


# -- config schema -----------------------------------------------------------


def _boolean(text):
    """configparser's boolean words, case and surrounding spaces ignored."""
    return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]


def _finite(text):
    """float(text); a ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not finite" % text)
    return value


def parse_grid(text, name):
    """Comma list ("0.05, 0.1") or range "lo:hi:n[:log|lin]" (log default)
    of finite numbers; a range holds 1 to RANGE_MAX values, and a log
    range needs lo, hi > 0."""
    text = text.strip()
    if ":" not in text:
        try:
            return [_finite(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError("bad %s list %r" % (name, text)) from exc
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("%s range must be lo:hi:n[:log|lin]" % name)
    try:
        lo, hi, n = _finite(parts[0]), _finite(parts[1]), int(parts[2])
        _finite(hi - lo)  # past the float range numpy warns and returns nan
    except ValueError as exc:
        raise ConfigError("bad %s range %r" % (name, text)) from exc
    spacing = parts[3].strip().lower() if len(parts) == 4 else "log"
    if n < 1:
        raise ConfigError("%s range needs at least one value" % name)
    if n > RANGE_MAX:
        raise ConfigError("%s range holds %d values, at most %d"
                          % (name, n, RANGE_MAX))
    if spacing == "log":
        if lo <= 0 or hi <= 0:
            raise ConfigError("log-spaced %s range needs lo, hi > 0" % name)
        vals = np.geomspace(lo, hi, n)
    elif spacing == "lin":
        vals = np.linspace(lo, hi, n)
    else:
        raise ConfigError("unknown %s spacing %r" % (name, spacing))
    return [float(v) for v in vals]


def config_points(text, spec, one=False):
    """The points of a config value on the manifold of spec: a ";" list of
    points, or with one the whole text as a single point, each a comma
    list of finite coordinates.

    On the embedded round model a point is an ambient vector in R^(N+1)
    and must lie on the sphere of radius 1/sqrt(k); on the conformal
    sphere, whose factor reads |z|^2, that must be a finite float.
    """
    kind = spec["manifold"]
    dim = spec["dimension"] + (kind == "round")
    tokens = [text] if one else [t for t in text.split(";") if t.strip()]
    points = []
    for tok in tokens:
        try:
            p = [_finite(c) for c in tok.split(",") if c.strip()]
        except ValueError as exc:
            raise ConfigError("bad point %r" % tok) from exc
        if len(p) != dim:
            raise ConfigError("point %r has %d coordinates, manifold needs %d"
                              % (tok, len(p), dim))
        if kind == "round":
            radius = 1.0 / math.sqrt(spec["curvature"])
            if abs(math.hypot(*p) - radius) > 1e-8 * max(radius, 1.0):
                raise ConfigError(
                    "point %r is not on the sphere of radius %r" % (p, radius)
                )
        elif kind == "conformal" and not math.isfinite(sum(x * x for x in p)):
            raise ConfigError("point %r has |z|^2 beyond the float range" % p)
        points.append(p)
    return points[0] if one else points


def _parse_checks(text):
    """Acceptance check ids: "all", or a comma list of ids and lo-hi ranges."""
    text = (text or "all").strip().lower()
    if text == "all":
        return sorted(CHECK_IDS)
    ids = set()
    for tok in (t.strip() for t in text.split(",")):
        if not tok:
            continue
        lo, dash, hi = tok.partition("-")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError as exc:
            raise ConfigError("bad check %s %r"
                              % ("range" if dash else "id", tok)) from exc
        if lo > hi:
            raise ConfigError("bad check range %r" % tok)
        ids.update(range(lo, hi + 1))
    unknown = ids - set(CHECK_IDS)
    if unknown:
        raise ConfigError("unknown check ids %s" % sorted(unknown))
    return sorted(ids)


def _scalar(parse, what):
    """The kind of a one-value key: its text read by parse, which raises
    KeyError or ValueError on text that is not what."""

    def read(text, name, conf):
        try:
            return parse(text)
        except (KeyError, ValueError) as exc:
            raise ConfigError("%s is not %s: %r" % (name, what, text)) from exc

    return read


# How each kind reads a key's text, given the key's name for its messages
# and the values read before it (conf).
KINDS = {
    "word": lambda text, name, conf: text.strip().lower(),
    "path": lambda text, name, conf: text,
    "integer": _scalar(int, "an integer"),
    "number": _scalar(_finite, "a finite number"),
    "boolean": _scalar(_boolean, "a boolean"),
    "grid": lambda text, name, conf: parse_grid(text, name),
    "point": lambda text, name, conf: config_points(text, conf["spec"], True),
    "points": lambda text, name, conf: config_points(text, conf["spec"]),
    "checks": lambda text, name, conf: _parse_checks(text),
}


def volume_radius(volumes, conf):
    """Rule of [profile] volumes: the Euclidean ball of each has a radius
    in [MIN_RADIUS, EPS_MAX]."""
    N = conf["spec"]["dimension"]
    for v in volumes:
        r = (v / ball_volume(N)) ** (1.0 / N)
        if r > EPS_MAX:
            return ("holds a ball too large: volume %r has Euclidean radius "
                    "%.3g outside (0, %s]" % (v, r, EPS_MAX))
        if r < MIN_RADIUS:
            return ("holds a ball too small for the fit: volume %r has "
                    "Euclidean radius %.3g below %s" % (v, r, MIN_RADIUS))
    return None


def certifiable(t_grid, conf):
    """Rule of [foliate] t_grid: a grid the foliation certificate reads."""
    try:
        check_certificate_grid(t_grid)
    except ValueError as exc:
        return "cannot be certified: %s" % exc
    return None


def tabulable(n_max, conf):
    """Rule of [constants] n_max: at least n_min, and its constants in the
    float range (past it every larger N overflows too)."""
    if n_max < conf["n_min"]:
        return "is below [constants] n_min"
    try:
        constants(n_max)
    except (ArithmeticError, ValueError) as exc:
        return "= %d is past the float range of the constants: %r" % (n_max, exc)
    return None


REQUIRED = object()


class Key(NamedTuple):
    """One config key: kind names the grammar of its text (KINDS); default
    is the text an absent key reads as (None: its consumer picks the
    value; REQUIRED: a config error); the rest is its domain: at least
    count values, each no less than least and in (0, most] where these
    are set, none repeated when distinct, and rule(value, conf), which
    says what is wrong or returns None."""

    kind: str
    default: object = None
    least: int = None
    most: float = None
    count: int = 1
    distinct: bool = False
    rule: object = None


def _domain_error(entry, value, conf):
    """What is wrong with value in the domain of entry, or None."""
    values = value if isinstance(value, list) else [value]
    if len(values) < entry.count:
        return "needs at least %d value%s, got %d" % (
            entry.count, "s" * (entry.count > 1), len(values))
    for i, v in enumerate(values):
        if entry.least is not None and v < entry.least:
            need = ("a non-negative integer" if entry.least == 0
                    else "at least %d" % entry.least)
            return "must be %s, got %d" % (need, v)
        if entry.most is not None and not 0.0 < v <= entry.most:
            return "value %r outside (0, %s]" % (v, entry.most)
        if entry.distinct and v in values[:i]:
            return "repeats %r" % v
    return entry.rule and entry.rule(value, conf)


# Every key a config may hold, by section; any other section or key is a
# config error.
SCHEMA = {
    "run": {
        "manifold": Key("word", "flat"),
        "dimension": Key("integer", "2"),
        "curvature": Key("number", "1.0"),
        # the grid sizes, bounded as get_grid bounds them
        "max_degree": Key("integer", None, least=1, most=MAX_DEGREE),
        "n_radial": Key("integer", None, least=1, most=MAX_RADIAL),
        "seed": Key("integer", "0", least=0),
        "workers": Key("integer", "1", least=1),
    },
    "constants": {
        "n_min": Key("integer", "2", least=2),
        "n_max": Key("integer", "6", rule=tabulable),
    },
    "solve": {
        "point": Key("point"),
        "eps": Key("number", REQUIRED, most=EPS_MAX),
    },
    "sweep": {
        "points": Key("points", REQUIRED, distinct=True),
        "eps": Key("grid", REQUIRED, most=EPS_MAX, distinct=True),
    },
    "find-critical": {
        "eps": Key("grid", "0.1", most=EPS_MAX, distinct=True),
        "tol": Key("number", None, most=math.inf),
        # the search travels at most CHART_RADIUS, its seeded offset included
        "jitter": Key("number", None, most=CHART_RADIUS),
    },
    "foliate": {
        "critical": Key("path"),
        "t_grid": Key("grid", "0.02:0.12:8", most=EPS_MAX, rule=certifiable),
    },
    "profile": {
        # the fit of profile_coefficient has two orders
        "volumes": Key("grid", REQUIRED, most=math.inf, count=3,
                       distinct=True, rule=volume_radius),
        "point": Key("point"),
    },
    "acceptance": {
        "checks": Key("checks", "all"),
        "strict": Key("boolean", "false"),
    },
}


def load_config(path):
    """INI file to a plain nested dict of strings; a section or key outside
    SCHEMA is a ConfigError."""
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
        if section not in SCHEMA:
            raise ConfigError("unknown config section [%s]" % section)
        for key in keys:
            if key not in SCHEMA[section]:
                raise ConfigError("unknown config key [%s] %s" % (section, key))
    return cfg


def read_key(cfg, section, key, conf=None, flag=None):
    """The checked value of [section] key: the flag when one is given, else
    the key's text, else its default; None for an absent key whose
    consumer picks the value."""
    entry = SCHEMA[section][key]
    if flag is not None:
        name, value = "--" + key, flag
    else:
        name = "[%s] %s" % (section, key)
        text = cfg.get(section, {}).get(key, entry.default)
        if text is None:
            return None
        if text is REQUIRED:
            raise ConfigError("missing %s" % name)
        value = KINDS[entry.kind](text, name, conf)
    problem = _domain_error(entry, value, conf)
    if problem:
        raise ConfigError("%s %s" % (name, problem))
    return value


def manifold_spec(cfg):
    """The [run] manifold as a plain dict, checked before any solve: the
    models' own ValueErrors (k > 0 on the round model, a ball dimension
    with a sphere basis) become config errors."""
    spec = {key: read_key(cfg, "run", key) for key in ("manifold", "dimension")}
    if spec["manifold"] == "round":
        spec["curvature"] = read_key(cfg, "run", "curvature")
    try:
        check_dimension(spec["dimension"])
        make_manifold(spec)
    except ValueError as exc:
        raise ConfigError("[run] %s" % exc) from exc
    return spec


def read_config(cfg, command, flags=None):
    """Every value command reads, checked before any of its work, by key:
    [run] seed and workers; on a manifold its "spec" and the grid sizes
    it reads; then the keys of its own section. flags holds command-line
    values by key, and one that is set wins over its key."""
    flags = flags or {}
    _, section, grid = COMMANDS[command]
    conf = {key: read_key(cfg, "run", key, flag=flags.get(key))
            for key in ("seed", "workers")}
    if grid is not None:
        conf["spec"] = manifold_spec(cfg)
        for key in GRID:
            if key in grid:
                conf[key] = read_key(cfg, "run", key)
            elif key in cfg.get("run", {}):
                raise ConfigError("[run] %s is not read by %s" % (key, command))
    for key in SCHEMA[section]:
        conf[key] = read_key(cfg, section, key, conf, flags.get(key))
    return conf


def make_manifold(spec):
    kind = spec["manifold"]
    if kind == "flat":
        return FlatSpace(spec["dimension"])
    if kind == "round":
        return ConstantCurvature(spec["dimension"], spec["curvature"])
    if kind != "conformal":
        raise ValueError("unknown manifold %r (flat, round, conformal)" % kind)
    if spec["dimension"] != 2:
        raise ValueError("the conformal model is two-dimensional")
    return ConformalSphere2D()


def make_problem(conf):
    """The solver context of the checked spec and grid sizes in conf."""
    return SerrinProblem(
        make_manifold(conf["spec"]), conf["max_degree"], conf["n_radial"]
    )


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


def _write(out_dir, filename, text):
    """Every output file: text as UTF-8 under out_dir, line endings as
    given; nothing without an output directory."""
    if out_dir is None:
        return
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)


def write_json(out_dir, name, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _write(out_dir, name + ".json", text + "\n")


def write_csv(out_dir, name, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt_cell(row[k]) for k in fieldnames])
    _write(out_dir, name + ".csv", buf.getvalue())


def _point_columns(row):
    """row with its point's coordinates added as the columns p0, p1, ..."""
    row.update(("p%d" % i, x) for i, x in enumerate(row["point"]))
    return row


# -- subcommands ---------------------------------------------------------------
#
# Each takes the checked values of read_config, the output directory and
# say(line), which prints a line for the log, and returns the exit code.


def cmd_verify_constants(conf, out, say):
    rows = []
    say("N alpha beta J1 c")
    for N in range(conf["n_min"], conf["n_max"] + 1):
        alpha, beta, J1, c = constants(N)
        rows.append({"N": N, "alpha": alpha, "beta": beta, "J1": J1, "c": c})
        say(
            "%d %s %s %s %s" % (N, repr(alpha), repr(beta), repr(J1), repr(c))
        )
    write_csv(out, "constants", ["N", "alpha", "beta", "J1", "c"], rows)
    write_json(out, "constants", {"rows": rows})
    return 0


def cmd_solve(conf, out, say):
    problem = make_problem(conf)
    point = conf["point"]
    if point is None:
        point = [float(x) for x in problem.manifold.origin()]
    eps = conf["eps"]
    rep = reduced_functional(problem, np.array(point), eps)
    sol = rep.solution
    record = rep.to_record()
    record.update(
        manifold=conf["spec"],
        seed=conf["seed"],
        steps=len(sol.iterations),
        residual_inf=float(sol.residual_overdetermined.norm_inf()),
    )
    say("solved %s at eps=%s in %d steps" % (point, repr(eps), record["steps"]))
    say(
        "phi_eps=%s J=%s volume=%s a_norm=%s"
        % tuple(repr(record[k]) for k in ("phi_eps", "J", "volume", "a_norm"))
    )
    write_json(out, "solve", record)
    return 0


def _sweep_task(task):
    """One cold solve of the checked spec, grid sizes, point and eps in
    task; runs in a worker process, so it rebuilds the problem."""
    rep = reduced_functional(make_problem(task), np.array(task["point"]),
                             task["eps"])
    row = rep.to_record()
    row["v_norm"] = row.pop("v_sobolev")
    row["v0"] = rep.solution.state.v0
    row["steps"] = len(rep.solution.iterations)
    return _point_columns(row)


def cmd_sweep(conf, out, say):
    spec, points, eps_list = conf["spec"], conf["points"], conf["eps"]
    tasks = [
        {"spec": spec, "max_degree": conf["max_degree"],
         "n_radial": conf["n_radial"], "point": p, "eps": e}
        for p in points
        for e in eps_list
    ]
    # fork starts every worker at the first submit, so the pool is no
    # larger than the work
    workers = min(conf["workers"], len(tasks))
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
            say("point %s: max v_norm %s" % (p, repr(entry["max_v_norm"])))
        elif "v_norm_slope" in entry:
            say("point %s: v_norm slope %s" % (p, repr(entry["v_norm_slope"])))
    payload = {
        "manifold": spec,
        "seed": conf["seed"],
        "eps": eps_list,
        "summaries": summaries,
        "invariants_ok": invariants_ok,
    }
    write_json(out, "sweep", payload)
    if not invariants_ok:
        raise RuntimeError("flat sweep produced a nonzero boundary perturbation")
    say("sweep done: %d solves" % len(rows))
    return 0


def cmd_find_critical(conf, out, say):
    problem = make_problem(conf)
    options = {k: conf[k] for k in ("tol", "jitter") if conf[k] is not None}
    manifold = problem.manifold
    limit = manifold.scalar_max_point()
    rows = []
    for eps in sorted(conf["eps"]):
        p, sol, info = find_critical(problem, eps, seed=conf["seed"], **options)
        row = {
            "eps": eps,
            "point": [float(x) for x in np.atleast_1d(p)],
            "a_norm": float(np.linalg.norm(sol.state.a)),
            "solves": info["solves"],
        }
        if limit is not None:
            row["dist_over_eps2"] = manifold.distance(limit, p) / eps**2
        rows.append(row)
        say(
            "eps=%s point=%s a_norm=%s"
            % (repr(eps), row["point"], repr(row["a_norm"]))
        )
    reference = rows[-1]
    payload = {
        "manifold": conf["spec"],
        "seed": conf["seed"],
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


def cmd_foliate(conf, out, say):
    spec, critical_path = conf["spec"], conf["critical"]
    if critical_path is None:
        raise DependencyError(
            "foliate needs [foliate] critical pointing at a find-critical run"
        )
    try:
        with open(critical_path, encoding="utf-8") as fh:
            critical = json.load(fh)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise DependencyError(
            "critical-point run not found: %s" % critical_path
        ) from exc
    except ValueError as exc:
        raise DependencyError(
            "critical-point run is not JSON: %s" % critical_path
        ) from exc
    except OSError as exc:
        raise DependencyError(
            "critical-point run cannot be read: %s (%s)"
            % (critical_path, exc.strerror)
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
    problem = make_problem(conf)
    t_grid = conf["t_grid"]
    base, curve = center_curve_through(
        problem.manifold, np.array(ref["point"]), ref["eps"]
    )
    profile = solved_profile_curve(problem, curve)
    chart = build_foliation_chart(problem.manifold, t_grid, curve, profile)
    cert = certify_foliation(chart, t_grid)
    for key in sorted(cert):
        say("%s = %s" % (key, _fmt_cell(cert[key])))
    payload = {
        "manifold": spec,
        "seed": conf["seed"],
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


def cmd_profile(conf, out, say):
    spec, volumes = conf["spec"], conf["volumes"]
    manifold = make_manifold(spec)
    N = spec["dimension"]
    if conf["point"] is not None:
        p = np.array(conf["point"])
    else:
        p = manifold.center()
    points = profile_expansion(manifold, volumes, p=p)
    coef = profile_coefficient(points, N)
    write_csv(
        out,
        "profile",
        ["volume", "eps_used", "J_ball", "T_euclidean", "ratio"],
        [asdict(pt) for pt in points],
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
    say("fitted v^(2/N) coefficient %s" % repr(coef))
    say("curvature prediction %s" % repr(float(-c * S)))
    return 0


def cmd_run_acceptance(conf, out, say):
    strict, ids = conf["strict"], conf["checks"]
    engine = AcceptanceRun(seed=conf["seed"])
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
        say("acceptance %02d %s: %s" % (rec["id"], rec["name"], verdict))
    say(
        "gate: %s (%d passed, %d failed, %d documented)"
        % ("PASS" if gate else "FAIL", n_pass, n_fail, n_documented)
    )
    write_json(
        out,
        "acceptance",
        {
            "seed": conf["seed"],
            "strict": strict,
            "checks": ids,
            "records": records,
            "gate_passed": gate,
        },
    )
    return 0 if gate else 1


GRID = ("max_degree", "n_radial")

# Per subcommand: its handler, the config section it reads, and the [run]
# grid sizes it reads when it runs on a manifold (None: it does not).
COMMANDS = {
    "verify-constants": (cmd_verify_constants, "constants", None),
    "solve": (cmd_solve, "solve", GRID),
    "sweep": (cmd_sweep, "sweep", GRID),
    "find-critical": (cmd_find_critical, "find-critical", GRID),
    "foliate": (cmd_foliate, "foliate", GRID),
    # profile solves on the default grid
    "profile": (cmd_profile, "profile", ()),
    "run-acceptance": (cmd_run_acceptance, "acceptance", None),
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
                default=None,
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
        _write(out, "error.json", line + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    handler, _, grid = COMMANDS[command]
    out = args.out
    lines = []

    def say(line):
        print(line)
        lines.append(line)

    try:
        if out is not None:
            os.makedirs(out, exist_ok=True)
        # a subcommand on a manifold reads it from the config
        if grid is not None and args.config is None:
            raise ConfigError("%s requires --config" % command)
        conf = read_config(load_config(args.config), command, vars(args))
        code = handler(conf, out, say)
        _write(out, command.replace("-", "_") + ".log", "\n".join(lines) + "\n")
        return code
    except (ConfigError, DependencyError) as exc:
        _error_record(exc.kind, command, str(exc), out)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as a record
        _error_record("runtime_error", command, repr(exc), out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
