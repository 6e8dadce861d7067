"""End-to-end tests of the batch front end.

These drive main() with argv lists and real temp directories, asserting
exit codes, machine-readable error records, and the determinism contract
(same config + seed => byte-identical files, worker count included).
"""

import contextlib
import inspect
import io
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from serrin_torsion import cli, serrin
from serrin_torsion.cli import (
    ConfigError,
    main,
    manifold_spec,
    parse_grid,
    read_key,
)
from serrin_torsion.reduced import constants, find_critical
from serrin_torsion.serrin import SerrinProblem

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


# -- config parsing units ----------------------------------------------------


def test_parse_grid_comma_list():
    assert parse_grid("0.05, 0.1,0.2", "eps") == [0.05, 0.1, 0.2]


def test_parse_grid_log_range():
    vals = parse_grid("0.02:0.2:8", "eps")
    assert len(vals) == 8
    assert np.allclose(vals, np.geomspace(0.02, 0.2, 8))


def test_parse_grid_linear_range():
    assert np.allclose(parse_grid("0.1:0.3:3:lin", "t"), [0.1, 0.2, 0.3])


def test_parse_grid_rejects_junk():
    with pytest.raises(ConfigError):
        parse_grid("0.1:0.2", "eps")
    with pytest.raises(ConfigError):
        parse_grid("0.1:0.2:4:cubic", "eps")
    with pytest.raises(ConfigError):
        parse_grid("a,b", "eps")
    with pytest.raises(ConfigError):
        parse_grid("0:0.2:4", "eps")


def test_validate_radii_bounds():
    # the radius domain (0, EPS_MAX], read through the schema
    assert read_key({"sweep": {"eps": "0.5"}}, "sweep", "eps") == [0.5]
    with pytest.raises(ConfigError):
        read_key({"sweep": {"eps": "0.6"}}, "sweep", "eps")
    with pytest.raises(ConfigError):
        read_key({"sweep": {"eps": "0.0"}}, "sweep", "eps")


def test_parse_points_and_dimension_mismatch():
    conf = {"spec": {"manifold": "flat", "dimension": 2}}

    def points(text):
        return read_key({"sweep": {"points": text}}, "sweep", "points", conf)

    assert points("0,0 ; 0.3,0.1") == [[0.0, 0.0], [0.3, 0.1]]
    with pytest.raises(ConfigError):
        points("0.1,0.2,0.3")
    with pytest.raises(ConfigError):
        points(" ; ")


def test_manifold_spec_validation():
    assert manifold_spec({"run": {"manifold": "round", "curvature": "2.0"}}) == {
        "manifold": "round",
        "dimension": 2,
        "curvature": 2.0,
    }
    with pytest.raises(ConfigError):
        manifold_spec({"run": {"manifold": "conformal", "dimension": "3"}})
    with pytest.raises(ConfigError):
        manifold_spec({"run": {"manifold": "saddle"}})
    with pytest.raises(ConfigError):
        manifold_spec({"run": {"dimension": "1"}})


# -- verify-constants ---------------------------------------------------------


def test_verify_constants_prints_table(capsys):
    assert main(["verify-constants"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "N alpha beta J1 c"
    assert len(out) == 6  # header + N = 2..6
    alpha, beta, J1, c = constants(2)
    assert out[1] == "2 %r %r %r %r" % (alpha, beta, J1, c)


def test_verify_constants_rejects_dimension_one(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[constants]\nn_min = 1\n")
    assert main(["verify-constants", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"
    assert err["error"]["subcommand"] == "verify-constants"


# -- sweep ---------------------------------------------------------------------


FLAT_SWEEP = """
[run]
manifold = flat
dimension = 2

[sweep]
points = 0,0
eps = 0.05, 0.1
"""


def _run_sweep(tmp_path, cfg_text, name, extra=()):
    cfg = tmp_path / (name + ".ini")
    cfg.write_text(cfg_text)
    out = tmp_path / name
    code = main(
        ["sweep", "--config", str(cfg), "--out", str(out), *extra]
    )
    return code, out


def test_flat_sweep_exit_zero_and_deterministic(tmp_path):
    code1, out1 = _run_sweep(tmp_path, FLAT_SWEEP, "a")
    code2, out2 = _run_sweep(tmp_path, FLAT_SWEEP, "b")
    code3, out3 = _run_sweep(tmp_path, FLAT_SWEEP, "c", ("--workers", "2"))
    assert code1 == code2 == code3 == 0
    csv1 = (out1 / "sweep.csv").read_bytes()
    assert csv1 == (out2 / "sweep.csv").read_bytes()
    assert csv1 == (out3 / "sweep.csv").read_bytes()
    json1 = (out1 / "sweep.json").read_bytes()
    assert json1 == (out3 / "sweep.json").read_bytes()
    payload = json.loads(json1)
    assert payload["invariants_ok"] is True
    assert payload["summaries"][0]["max_v_norm"] < 1e-10
    header = csv1.decode().splitlines()[0]
    assert header == "p0,p1,eps,v0,v_norm,a_norm,J,volume,area,phi_eps,F,steps"


def _serial_pool(log):
    """A stand-in for ProcessPoolExecutor that notes (max_workers, number of
    tasks) in log and maps in this process, so no worker is started."""

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            log.append((self.max_workers, len(tasks)))
            return map(fn, tasks)

    return SerialPool


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_pool_is_bounded_by_its_tasks(tmp_path, monkeypatch, source):
    log = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _serial_pool(log))
    if source == "flag":
        code, out = _run_sweep(tmp_path, FLAT_SWEEP, "pool",
                               ("--workers", "100000"))
    else:
        code, out = _run_sweep(
            tmp_path, FLAT_SWEEP.replace("[run]\n", "[run]\nworkers = 100000\n"),
            "pool",
        )
    assert code == 0
    assert log == [(2, 2)]
    _, serial = _run_sweep(tmp_path, FLAT_SWEEP, "serial")
    assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()


def test_sweep_rejects_eps_outside_envelope(tmp_path, capsys):
    bad = FLAT_SWEEP.replace("0.05, 0.1", "0.6")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(bad)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "outside (0, 0.5]" in err["error"]["message"]


def test_sweep_requires_config(capsys):
    assert main(["sweep"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"


ROUND_SWEEP = """
[run]
manifold = round
dimension = 2
curvature = 1.0

[sweep]
points = 0,0,1
eps = 0.1, 0.2
"""


def test_round_sweep_takes_ambient_points(tmp_path):
    code, out = _run_sweep(tmp_path, ROUND_SWEEP, "round")
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("p0,p1,p2,eps")
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["summaries"][0]["v_norm_slope"] > 1.9


def test_round_sweep_rejects_off_sphere_point(tmp_path, capsys):
    code, _ = _run_sweep(
        tmp_path, ROUND_SWEEP.replace("0,0,1", "0,0,2"), "off"
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "sphere" in err["error"]["message"]


# -- solve ----------------------------------------------------------------------


def test_solve_writes_flat_record(tmp_path):
    cfg = tmp_path / "solve.ini"
    cfg.write_text(
        "[run]\nmanifold = flat\n\n[solve]\npoint = 0,0\neps = 0.1\n"
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "solve.json").read_text())
    alpha = constants(2)[0]
    assert abs(rec["phi_eps"] - alpha) < 1e-9
    assert rec["a_norm"] < 1e-12
    assert rec["manifold"] == {"manifold": "flat", "dimension": 2}
    assert (out / "solve.log").exists()


# -- find-critical then foliate --------------------------------------------------


CONF_RUN = "[run]\nmanifold = conformal\ndimension = 2\n"


@pytest.fixture(scope="module")
def critical_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("critical")
    cfg = tmp / "crit.ini"
    cfg.write_text(CONF_RUN + "\n[find-critical]\neps = 0.1\n")
    out = tmp / "out"
    code = main(["find-critical", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out / "find_critical.json"


def test_find_critical_json_contents(critical_run):
    payload = json.loads(critical_run.read_text())
    row = payload["rows"][0]
    assert row["a_norm"] < 1e-9
    assert row["dist_over_eps2"] < 1.0
    assert payload["reference"]["eps"] == 0.1
    assert len(payload["reference"]["point"]) == 2
    assert "limit_point" in payload
    csv_path = critical_run.parent / "find_critical.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "eps,p0,p1,a_norm,solves,dist_over_eps2"


@pytest.mark.parametrize("key", ["tol", "jitter"])
def test_find_critical_rejects_non_numeric_option(tmp_path, capsys, key):
    cfg = tmp_path / "crit.ini"
    cfg.write_text(CONF_RUN + "\n[find-critical]\neps = 0.1\n%s = abc\n" % key)
    out = tmp_path / "out"
    assert main(["find-critical", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"
    assert "[find-critical] %s" % key in err["error"]["message"]
    assert not (out / "find_critical.json").exists()


def test_foliate_from_critical_run(tmp_path, critical_run):
    cfg = tmp_path / "fol.ini"
    cfg.write_text(
        CONF_RUN + "\n[foliate]\ncritical = %s\nt_grid = 0.02:0.12:8\n" % critical_run
    )
    out = tmp_path / "out"
    assert main(["foliate", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "foliation.json").read_text())
    cert = payload["certificate"]
    assert cert["nested"] is True
    assert 0.999 <= cert["slope_zero_min"] <= cert["slope_zero_max"] <= 1.001
    table = (out / "foliation.csv").read_text().splitlines()
    assert table[0] == "t,node,omega"
    rows = [line.split(",") for line in table[1:]]
    t_values = sorted({row[0] for row in rows})
    assert len(t_values) == 8
    assert len(rows) == 8 * sum(1 for row in rows if row[0] == t_values[0])
    assert all(float(row[2]) > 0 for row in rows)


def test_foliate_without_critical_run_is_dependency_error(tmp_path, capsys):
    cfg = tmp_path / "fol.ini"
    cfg.write_text(CONF_RUN)
    assert main(["foliate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "dependency_error"


def test_foliate_rejects_mismatched_manifold(tmp_path, capsys, critical_run):
    cfg = tmp_path / "fol.ini"
    cfg.write_text(
        "[run]\nmanifold = flat\n\n[foliate]\ncritical = %s\n" % critical_run
    )
    assert main(["foliate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "dependency_error"
    assert "different" in err["error"]["message"] or "manifold" in err["error"]["message"]


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before the dependency was checked")


def test_foliate_rejects_solve_record(tmp_path, capsys, monkeypatch):
    """A solve.json on the same manifold has no reference point: a
    dependency error before any solve."""
    cfg = tmp_path / "solve.ini"
    cfg.write_text(CONF_RUN + "\n[solve]\npoint = 0.25, 0.1\neps = 0.1\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.setattr(SerrinProblem, "solve", _no_solve)
    cfg = tmp_path / "fol.ini"
    cfg.write_text(CONF_RUN + "\n[foliate]\ncritical = %s\n" % (out / "solve.json"))
    capsys.readouterr()
    assert main(["foliate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "dependency_error"
    assert "not a find-critical run" in err["error"]["message"]


def test_foliate_rejects_non_json_critical_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(SerrinProblem, "solve", _no_solve)
    critical = tmp_path / "find_critical.json"
    critical.write_text("eps,p0,p1\n0.1,0.0,0.0\n")
    cfg = tmp_path / "fol.ini"
    cfg.write_text(CONF_RUN + "\n[foliate]\ncritical = %s\n" % critical)
    assert main(["foliate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "dependency_error"
    assert "not JSON" in err["error"]["message"]


def test_foliate_rejects_directory_critical_run(tmp_path, capsys, monkeypatch):
    """A critical path naming a directory cannot be read: a dependency
    error before any solve, as a missing file is."""
    monkeypatch.setattr(SerrinProblem, "solve", _no_solve)
    cfg = tmp_path / "fol.ini"
    cfg.write_text(CONF_RUN + "\n[foliate]\ncritical = %s\n" % tmp_path)
    assert main(["foliate", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["kind"] == "dependency_error"
    assert "critical-point run cannot be read: %s" % tmp_path in err["message"]


# -- profile ---------------------------------------------------------------------


def test_profile_flat_ratio_is_one(tmp_path):
    cfg = tmp_path / "prof.ini"
    cfg.write_text(
        "[run]\nmanifold = flat\n\n[profile]\nvolumes = 0.01, 0.02, 0.05, 0.1\n"
    )
    out = tmp_path / "out"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "profile.json").read_text())
    assert abs(payload["fitted_v_power_coefficient"]) < 1e-8
    assert payload["predicted_coefficient"] == 0.0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "volume,eps_used,J_ball,T_euclidean,ratio"
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(abs(r - 1.0) for r in ratios) < 1e-10


# -- run-acceptance ----------------------------------------------------------------


def test_run_acceptance_subset_passes(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 1, 12\n")
    out = tmp_path / "out"
    assert (
        main(["run-acceptance", "--config", str(cfg), "--out", str(out)]) == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "acceptance 01 steklov_exactness: PASS"
    assert lines[1] == "acceptance 12 polynomial_solver_oracle: PASS"
    assert lines[2].startswith("gate: PASS")
    payload = json.loads((out / "acceptance.json").read_text())
    assert payload["gate_passed"] is True
    assert [r["id"] for r in payload["records"]] == [1, 12]
    assert all("seconds" not in r for r in payload["records"])


def test_run_acceptance_documented_discrepancy_gate(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 6\n")
    assert main(["run-acceptance", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "documented discrepancy" in out
    assert main(["run-acceptance", "--config", str(cfg), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "gate: FAIL" in out


@pytest.mark.parametrize("word", ["ture", "2", ""])
def test_run_acceptance_rejects_non_boolean_strict(tmp_path, capsys, word):
    # a misspelt switch must not silently run the non-strict gate
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 12\nstrict = %s\n" % word)
    out = tmp_path / "out"
    assert main(["run-acceptance", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"
    assert "[acceptance] strict" in err["error"]["message"]
    assert not (out / "acceptance.json").exists()


def test_run_acceptance_strict_boolean_words(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    for word, strict in (("Yes", True), (" off ", False)):
        cfg.write_text("[acceptance]\nchecks = 12\nstrict = %s\n" % word)
        out = tmp_path / word.strip()
        assert (
            main(["run-acceptance", "--config", str(cfg), "--out", str(out)])
            == 0
        )
        payload = json.loads((out / "acceptance.json").read_text())
        assert payload["strict"] is strict
    capsys.readouterr()


def test_run_acceptance_strict_flag_wins_over_config(tmp_path, capsys):
    # --strict asks for the strict gate whatever the config key says
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 6\nstrict = false\n")
    out = tmp_path / "out"
    args = ["run-acceptance", "--config", str(cfg), "--out", str(out)]
    assert main(args + ["--strict"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "acceptance 06 ball_energy_coefficient: FAIL"
    assert lines[1] == "gate: FAIL (0 passed, 1 failed, 0 documented)"
    payload = json.loads((out / "acceptance.json").read_text())
    assert payload["strict"] is True
    assert payload["gate_passed"] is False


def test_run_acceptance_rejects_unknown_check(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 13\n")
    assert main(["run-acceptance", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"


def test_run_acceptance_rejects_reversed_check_range(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\nchecks = 1, 6-4\n")
    out = tmp_path / "out"
    assert main(["run-acceptance", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"
    assert err["error"]["message"] == "bad check range '6-4'"
    assert not (out / "acceptance.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, text",
    [
        ("find-critical", CONF_RUN + "\n[find-critical]\neps = 0.1\n"),
        ("run-acceptance", "[acceptance]\nchecks = 1\n"),
    ],
    ids=["find-critical", "run-acceptance"],
)
def test_negative_seed_is_config_error(tmp_path, capsys, command, text, source):
    # a bad seed is a config mistake, not a solver failure or a failed check
    argv = [command, "--config", str(tmp_path / "cfg.ini"),
            "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif command == "find-critical":
        text = text.replace("[run]\n", "[run]\nseed = -1\n")
    else:
        text = "[run]\nseed = -1\n\n" + text
    (tmp_path / "cfg.ini").write_text(text)
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config_error"
    assert "non-negative integer" in err["error"]["message"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["error.json"]


# -- config errors found before any solve ----------------------------------------


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "solve",
            "[run]\nmanifold = round\ncurvature = -1\n\n[solve]\neps = 0.1\n",
            "requires k > 0",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\ndimension = 4\n\n[solve]\neps = 0.1\n",
            "only S^1 and S^2 are supported",
        ),
        (
            "foliate",
            CONF_RUN + "\n[foliate]\ncritical = {critical}\nt_grid = 0.02:0.12:4\n",
            "at least 8 t-values",
        ),
        (
            "foliate",
            CONF_RUN + "\n[foliate]\ncritical = {critical}\nt_grid = 0.12:0.02:8\n",
            "positive and strictly increasing",
        ),
        (
            "foliate",
            CONF_RUN + "\n[foliate]\ncritical = {critical}\ntgrid = 0.02:0.12:4\n",
            "unknown config key [foliate] tgrid",
        ),
        (
            "foliate",
            CONF_RUN + "\n[foliate]\ncritical = {critical}\nresidual_tol = -1\n",
            "unknown config key [foliate] residual_tol",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\n\n[solve]\neps = 0.1\n\n[solver]\n",
            "unknown config section [solver]",
        ),
        (
            "profile",
            "[run]\nmanifold = round\nmax_degree = 20\n\n[profile]\nvolumes = 0.05\n",
            "[run] max_degree is not read by profile",
        ),
        (
            "profile",
            "[run]\nmanifold = round\nn_radial = 40\n\n[profile]\nvolumes = 0.05\n",
            "[run] n_radial is not read by profile",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 0.05, 50, 100\n",
            "volume 50.0 has Euclidean radius 3.99 outside (0, 0.5]",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 1e-12, 2e-12, 3e-12\n",
            "volume 1e-12 has Euclidean radius 5.64e-07 below 0.0001",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 1e-20, 2e-20, 3e-20\n",
            "volume 1e-20 has Euclidean radius 5.64e-11 below 0.0001",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\nmax_degree = 0\n\n[solve]\neps = 0.1\n",
            "[run] max_degree must be at least 1, got 0",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\nmax_degree = -1\n\n[solve]\neps = 0.1\n",
            "[run] max_degree must be at least 1, got -1",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\nn_radial = 0\n\n[solve]\neps = 0.1\n",
            "[run] n_radial must be at least 1, got 0",
        ),
        (
            "find-critical",
            CONF_RUN + "max_degree = 0\n\n[find-critical]\neps = 0.1\n",
            "[run] max_degree must be at least 1, got 0",
        ),
        (
            "foliate",
            CONF_RUN + "n_radial = 0\n\n[foliate]\ncritical = {critical}\n",
            "[run] n_radial must be at least 1, got 0",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("dimension = 2", "max_degree = 0"),
            "[run] max_degree must be at least 1, got 0",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("dimension = 2", "n_radial = -3"),
            "[run] n_radial must be at least 1, got -3",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("0.05, 0.1", "0.1, 0.1"),
            "[sweep] eps repeats 0.1",
        ),
        (
            "sweep",
            ROUND_SWEEP.replace("points = 0,0,1", "points = 0,0,1; 0,0,1"),
            "[sweep] points repeats [0.0, 0.0, 1.0]",
        ),
        (
            "solve",
            "[run]\nmanifold = round\ncurvature = nan\n\n[solve]\neps = 0.1\n",
            "[run] curvature is not a finite number: 'nan'",
        ),
        (
            "solve",
            "[run]\nmanifold = round\ncurvature = inf\n\n[solve]\neps = 0.1\n",
            "[run] curvature is not a finite number: 'inf'",
        ),
        (
            "find-critical",
            CONF_RUN + "\n[find-critical]\neps = 0.1\ntol = inf\n",
            "[find-critical] tol is not a finite number: 'inf'",
        ),
        (
            "find-critical",
            CONF_RUN + "\n[find-critical]\neps = 0.1\njitter = inf\n",
            "[find-critical] jitter is not a finite number: 'inf'",
        ),
        (
            "find-critical",
            CONF_RUN + "\n[find-critical]\neps = 0.1, 0.1\n",
            "[find-critical] eps repeats 0.1",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 0.01\n",
            "[profile] volumes needs at least 3 values, got 1",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 0.01, 0.02\n",
            "[profile] volumes needs at least 3 values, got 2",
        ),
        (
            "profile",
            "[run]\nmanifold = round\n\n[profile]\nvolumes = 0.01, 0.01, 0.02\n",
            "[profile] volumes repeats 0.01",
        ),
        (
            "solve",
            "[run]\nmanifold = flat\n\n[solve]\npoint = nan, 0\neps = 0.1\n",
            "bad point 'nan, 0'",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("points = 0,0", "points = 0,0; inf,0"),
            "bad point ' inf,0'",
        ),
        (
            "solve",
            CONF_RUN + "\n[solve]\npoint = 1e300, 0\neps = 0.1\n",
            "|z|^2 beyond the float range",
        ),
        (
            "profile",
            CONF_RUN + "\n[profile]\npoint = nan, 0\nvolumes = 0.01, 0.02, 0.05\n",
            "bad point 'nan, 0'",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("0.05, 0.1", "0.1:0:3"),
            "log-spaced [sweep] eps range needs lo, hi > 0",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("0.05, 0.1", "0.1:-0.2:3"),
            "log-spaced [sweep] eps range needs lo, hi > 0",
        ),
        (
            "find-critical",
            "[run]\nmanifold = flat\n\n[find-critical]\neps = 0.1\njitter = 1e300\n",
            "[find-critical] jitter value 1e+300 outside (0, 1.5]",
        ),
        (
            "verify-constants",
            "[constants]\nn_max = 400\n",
            "[constants] n_max = 400 is past the float range of the constants",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("dimension = 2", "max_degree = 33"),
            "[run] max_degree value 33 outside (0, 32]",
        ),
        (
            "find-critical",
            CONF_RUN + "n_radial = 129\n\n[find-critical]\neps = 0.1\n",
            "[run] n_radial value 129 outside (0, 128]",
        ),
        (
            "sweep",
            FLAT_SWEEP.replace("0.05, 0.1", "0.05:0.1:1001"),
            "[sweep] eps range holds 1001 values, at most 1000",
        ),
        (
            "find-critical",
            CONF_RUN + "\n[find-critical]\neps = 0.01:0.2:1000000000000:lin\n",
            "[find-critical] eps range holds 1000000000000 values, at most 1000",
        ),
    ],
    ids=[
        "negative-curvature", "dimension-4", "short-t-grid", "decreasing-t-grid",
        "misspelt-t-grid", "removed-residual-tol", "unknown-section",
        "profile-max-degree", "profile-n-radial", "profile-volume-radius",
        "profile-volume-below-fit", "profile-volume-below-match",
        "solve-max-degree-0", "solve-max-degree-negative", "solve-n-radial-0",
        "find-critical-max-degree-0", "foliate-n-radial-0",
        "sweep-max-degree-0", "sweep-n-radial-negative", "sweep-repeated-eps",
        "sweep-repeated-point", "nan-curvature", "inf-curvature",
        "find-critical-inf-tol", "find-critical-inf-jitter",
        "find-critical-repeated-eps", "profile-one-volume",
        "profile-two-volumes", "profile-repeated-volume",
        "flat-nan-point", "sweep-inf-point", "conformal-huge-point",
        "conformal-nan-profile-point", "log-range-zero-hi",
        "log-range-negative-hi", "flat-huge-jitter", "constants-overflow",
        "max-degree-past-bound", "n-radial-past-bound",
        "range-count-past-bound", "huge-range-count",
    ],
)
def test_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch, critical_run, command, text, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid or a solve came before the config check")

    monkeypatch.setattr(serrin, "get_grid", no_solve)
    monkeypatch.setattr(SerrinProblem, "solve", no_solve)
    monkeypatch.setattr(cli, "profile_expansion", no_solve)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.format(critical=critical_run))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"]["kind"] == "config_error"
    assert message in err["error"]["message"]


# -- generated hostile configs -----------------------------------------------------


# hostile tokens: non-finite, huge, zero, tiny, negative, past a bound, not
# a number, empty
HOSTILE = ["nan", "inf", "1e300", "1e160", "-1e300", "0", "1e-20", "-1",
           "-0.2", "0.6", "129", "342", "1001", "abc", ""]


def _valid_config(command, manifold):
    """Valid texts of every key command reads on manifold, by section."""
    point, points = {
        "flat": ("0.25, 0.1", "0, 0; 0.25, 0.1"),
        "round": ("0, 0.6, 0.8", "0, 0, 1; 0, 0.6, 0.8"),
        "conformal": ("0.25, 0.1", "0, 0; 0.25, 0.1"),
    }[manifold]
    _, section, grid = cli.COMMANDS[command]
    run = {"seed": "3", "workers": "2"}
    if grid is not None:
        run.update(manifold=manifold, dimension="2", curvature="1.0")
        run.update((key, "2") for key in grid)
    own = {
        "constants": {"n_min": "2", "n_max": "6"},
        "solve": {"point": point, "eps": "0.1"},
        "sweep": {"points": points, "eps": "0.02:0.2:3"},
        "find-critical": {"eps": "0.05, 0.1", "tol": "1e-9", "jitter": "0.01"},
        "foliate": {"t_grid": "0.02:0.12:8"},
        "profile": {"volumes": "0.01, 0.02, 0.05", "point": point},
        "acceptance": {"checks": "1, 4-6", "strict": "true"},
    }
    return {"run": run, section: own[section]}


@st.composite
def _configs(draw):
    """A subcommand and a config of valid texts, each key absent unless
    required or the manifold, but for one hostile key of [run] or the
    subcommand's section: one field of its text (split at , : ;)
    replaced by a HOSTILE token or dropped, or the whole text repeated or
    cleared."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    manifold = draw(st.sampled_from(["flat", "round", "conformal"]))
    cfg = _valid_config(command, manifold)
    section = draw(st.sampled_from(sorted(cfg)))
    hostile = (section, draw(st.sampled_from(sorted(cfg[section]))))
    for section, key in [(s, k) for s in cfg for k in cfg[s]]:
        text = cfg[section][key]
        if (section, key) == hostile:
            fields = re.split(r"([,:;])", text)
            i = 2 * draw(st.integers(0, len(fields) // 2))
            edit = draw(st.sampled_from(["replace", "drop", "repeat", "clear"]))
            if edit == "replace":
                fields[i] = draw(st.sampled_from(HOSTILE))
            elif edit == "drop":
                del fields[max(i - 1, 0):i + 1]
            elif edit == "repeat":
                fields += ["; " if ";" in text else ", ", text]
            else:
                fields = []
            cfg[section][key] = "".join(fields)
        elif key != "manifold" and cli.SCHEMA[section][key].default is not cli.REQUIRED:
            if draw(st.booleans()):
                del cfg[section][key]
    return command, cfg


class _Stop(Exception):
    """Raised by the stubs once they have noted what they received."""


def _check_received(kind, args):
    """AssertionError unless what a stub received is finite and in the
    domain the schema promises."""
    if kind == "grid":
        run = cli.SCHEMA["run"]
        bounds = [run["max_degree"].most, run["n_radial"].most]
        assert all(n is None or 1 <= n <= most for n, most in zip(args, bounds))
    elif kind == "solve":
        manifold, p, eps = args
        assert np.all(np.isfinite(p)) and 0.0 < eps <= cli.EPS_MAX
        r = math.hypot(*p)
        if isinstance(manifold, cli.ConstantCurvature):
            assert abs(r - manifold.radius) <= 1e-6 * max(manifold.radius, 1.0)
        if isinstance(manifold, cli.ConformalSphere2D):
            assert math.isfinite(r * r)
    elif kind == "profile":
        N, volumes, p = args
        assert np.all(np.isfinite(p))
        assert len(set(volumes)) == len(volumes) >= 3
        radii = [(v / cli.ball_volume(N)) ** (1.0 / N) for v in volumes]
        assert all(cli.MIN_RADIUS <= r <= cli.EPS_MAX for r in radii)
    elif kind == "checks":
        assert args and set(args) <= set(cli.CHECK_IDS)
    else:
        max_workers, n_tasks = args
        assert 2 <= max_workers <= n_tasks


@settings(
    derandomize=True, database=None, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drawn=_configs())
# one hostile draw that a bounded run rarely makes: a volume below the fit
@example(drawn=("profile", {"run": {"manifold": "round"},
                            "profile": {"volumes": "0.01, 1e-20, 0.05"}}))
def test_generated_configs_fail_typed_or_reach_the_solver_in_domain(
    tmp_path, monkeypatch, drawn
):
    """A config drawn from the grammar with hostile values either exits 2
    with one config_error line before any solve, or hands the solver, the
    profile, the acceptance run and the pool only finite, in-domain
    values."""
    command, cfg = drawn
    received = []

    class Problem:
        """SerrinProblem with the grid sizes noted and no grid built."""

        def __init__(self, manifold, max_degree, n_radial):
            received.append(("grid", (max_degree, n_radial)))
            self.manifold = manifold

        def solve(self, p, eps, v_init=None):
            received.append(("solve", (self.manifold, np.asarray(p), eps)))
            raise _Stop()

    def expansion(manifold, volumes, p=None):
        received.append(("profile", (manifold.dim, volumes, np.asarray(p))))
        raise _Stop()

    def run_all(engine, ids=None):
        received.append(("checks", ids))
        raise _Stop()

    pool_log = []
    monkeypatch.setattr(cli, "SerrinProblem", Problem)
    monkeypatch.setattr(cli, "profile_expansion", expansion)
    monkeypatch.setattr(cli.AcceptanceRun, "run_all", run_all)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _serial_pool(pool_log))
    if command == "foliate":
        # a find-critical run on the config's manifold, when it has one
        critical = tmp_path / "find_critical.json"
        try:
            spec = manifold_spec(cfg)
            point = cli.make_manifold(spec).center()
        except ConfigError:
            spec, point = None, [0.0, 0.0]
        critical.write_text(json.dumps({
            "manifold": spec,
            "reference": {"eps": 0.1, "point": [float(x) for x in point]},
        }))
        cfg["foliate"]["critical"] = str(critical)
    path = tmp_path / "drawn.ini"
    path.write_text("".join(
        "[%s]\n%s\n" % (section, "".join("%s = %s\n" % kv for kv in keys.items()))
        for section, keys in cfg.items()
    ))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", str(path)])
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    if code == 2:
        (line,) = lines
        assert json.loads(line)["error"]["kind"] == "config_error"
        assert received == [] and pool_log == []
        return
    if code == 0:
        assert command == "verify-constants" and lines == []
    else:
        (line,) = lines
        assert json.loads(line)["error"]["message"] == "_Stop()"
        assert received
    for kind, args in received:
        _check_received(kind, args)
    for entry in pool_log:
        _check_received("pool", entry)


# -- docs ------------------------------------------------------------------------


def _readme_section(title):
    return README.read_text().split(title, 1)[1].split("\n### ", 1)[0]


def _canonical_configs(tmp_path):
    """(command, checked-to-load cfg) of every ini block under the README's
    "Canonical configs", each block under the paragraph that names its
    subcommand first."""
    blocks = re.findall(r"^`([\w-]+)`.*?```ini\n(.*?)```",
                        _readme_section("### Canonical configs"), re.M | re.S)
    configs = []
    for i, (command, text) in enumerate(blocks):
        path = tmp_path / ("%d.ini" % i)
        path.write_text(text)
        configs.append((command, cli.load_config(str(path))))
    return configs


def test_readme_canonical_configs_pass_the_schema(tmp_path):
    configs = _canonical_configs(tmp_path)
    assert sorted(command for command, _ in configs) == sorted(cli.COMMANDS)
    for command, cfg in configs:
        cli.read_config(cfg, command)


def test_readme_config_reference_lists_every_key(tmp_path, monkeypatch):
    """The README's rows, the schema's keys and the keys the subcommands
    read are one set, so the rejection of other keys cannot drift, and
    each README default is the schema's."""
    rows = dict(
        ((section, key), default.strip())
        for section, key, default in re.findall(
            r"^\| `\[([\w-]+)\] (\w+)` \| [^|]+ \| ([^|]+) \|",
            _readme_section("### Config reference"), re.M,
        )
    )
    read = set()
    read_key = cli.read_key

    def recording_read_key(cfg, section, key, *args, **kwargs):
        read.add((section, key))
        return read_key(cfg, section, key, *args, **kwargs)

    monkeypatch.setattr(cli, "read_key", recording_read_key)
    for command, cfg in _canonical_configs(tmp_path):
        cli.read_config(cfg, command)
    schema = {(s, k) for s, keys in cli.SCHEMA.items() for k in keys}
    assert ("run", "manifold") in read
    assert set(rows) == schema == read

    # tol and jitter, when absent, are find_critical's own defaults
    search = inspect.signature(find_critical).parameters
    for (section, key), cell in rows.items():
        default = cli.SCHEMA[section][key].default
        if default is cli.REQUIRED:
            assert cell == "required", (section, key)
        elif default is not None:
            assert cell == "`%s`" % default, (section, key)
        elif section == "find-critical":
            assert float(cell.strip("`")) == search[key].default, key
        else:
            assert not cell.startswith("`") and cell != "required", (section, key)


def test_error_record_written_to_out_dir(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nmanifold = saddle\n\n[solve]\neps = 0.1\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["kind"] == "config_error"
    capsys.readouterr()
