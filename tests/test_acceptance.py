"""One test per acceptance check, driven by the shared engine.

Running this file with ``pytest -v`` prints one pass/fail line per check.
Check 6 is the documented discrepancy: the stated quadratic target for
the geodesic-ball energy disagrees with the measured expansion, so the
as-stated test is a strict expected failure and a companion test pins
the verified coefficient instead.
"""

import pytest

from serrin_torsion import serrin
from serrin_torsion.acceptance import AcceptanceRun, acceptable
from serrin_torsion.ball_solver import EnvelopeError


@pytest.fixture(scope="module")
def engine():
    return AcceptanceRun(seed=0)


_RECORDS = {}


def record(engine, check_id):
    if check_id not in _RECORDS:
        _RECORDS[check_id] = engine.run_check(check_id)
    rec = _RECORDS[check_id]
    print("acceptance %02d %s: %s" % (
        rec["id"], rec["name"], "PASS" if rec["passed"] else "FAIL"))
    return rec


def test_acceptance_01_steklov_exactness(engine):
    rec = record(engine, 1)
    assert rec["passed"], rec["details"]


def test_acceptance_02_flat_ground_truth(engine):
    rec = record(engine, 2)
    assert rec["passed"], rec["details"]


def test_acceptance_03_mean_perturbation_coefficient(engine):
    rec = record(engine, 3)
    assert rec["passed"], rec["details"]


def test_acceptance_04_reduced_energy_coefficients(engine):
    rec = record(engine, 4)
    assert rec["passed"], rec["details"]


def test_acceptance_05_ball_geometry_coefficients(engine):
    rec = record(engine, 5)
    assert rec["passed"], rec["details"]


@pytest.mark.xfail(
    strict=True,
    reason="stated quadratic target for the geodesic-ball energy disagrees "
    "with the measured expansion at both dimensions; the companion test "
    "pins the verified coefficient",
)
def test_acceptance_06_ball_energy_as_stated(engine):
    rec = record(engine, 6)
    assert rec["passed"], rec["details"]


def test_acceptance_06_ball_energy_verified_coefficient(engine):
    rec = record(engine, 6)
    assert rec["companion_passed"], rec["details"]
    assert rec["documented_discrepancy"]
    d2 = rec["details"]["dimension_2"]
    d3 = rec["details"]["dimension_3"]
    # zero quadratic response at N = 2, +S/(3 N (N+4)) share at N = 3
    assert abs(d2["fitted_quadratic"]) < 5e-4
    assert abs(d3["fitted_quadratic"] / d3["verified_target"] - 1.0) < 0.02
    # and the stated target is genuinely excluded, not marginal
    assert rec["details"]["stated_rel_error"] > 0.5


def test_acceptance_07_isochoric_profile_coefficient(engine):
    rec = record(engine, 7)
    assert rec["passed"], rec["details"]


def test_acceptance_08_shape_derivative_consistency(engine):
    rec = record(engine, 8)
    assert rec["passed"], rec["details"]


def test_acceptance_09_localization_and_foliation(engine):
    rec = record(engine, 9)
    assert rec["passed"], rec["details"]


def test_acceptance_10_gradient_diagnostic_alignment(engine):
    rec = record(engine, 10)
    assert rec["passed"], rec["details"]


def test_acceptance_11_kernel_scaling(engine):
    rec = record(engine, 11)
    assert rec["passed"], rec["details"]


def test_acceptance_12_polynomial_solver_oracle(engine):
    rec = record(engine, 12)
    assert rec["passed"], rec["details"]


def test_gate_logic_admits_only_documented_discrepancies(engine):
    rec6 = record(engine, 6)
    assert not rec6["passed"]
    assert acceptable(rec6)
    assert not acceptable(rec6, strict=True)
    plain_fail = {"passed": False, "details": {}}
    assert not acceptable(plain_fail)
    plain_pass = {"passed": True}
    assert acceptable(plain_pass, strict=True)


def test_run_all_reports_crashes_as_failures(engine):
    class Broken(AcceptanceRun):
        def check_steklov(self):
            raise RuntimeError("boom")

    records = Broken(seed=0).run_all(ids=(1,))
    assert len(records) == 1
    assert not records[0]["passed"]
    assert records[0]["crashed"]
    assert "boom" in records[0]["details"]["error"]


def test_stopped_sweeps_raise_envelope_error(monkeypatch):
    """A sweep that stops early is an EnvelopeError naming the first eps
    that did not converge: one quasi-Newton step converges nowhere."""
    monkeypatch.setattr(serrin, "MAX_STEPS", 1)
    run = AcceptanceRun(seed=0)
    with pytest.raises(EnvelopeError,
                       match="round sweep stopped at eps = 0.02$"):
        run.round_reports
    with pytest.raises(EnvelopeError,
                       match=r"conformal sweep at \(0.25, 0.1\) stopped at "
                       "eps = 0.04$"):
        run.conf_sweeps
