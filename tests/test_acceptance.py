"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the failure report) and asserts the same condition.
"""

import math
import time

import pytest

from cosmopair import cli
from cosmopair import verify as verify_mod
from cosmopair.bogoliubov import Scenario, from_density
from cosmopair.dynamics import FLAT, ScaleFactorProfile, momentum_point
from cosmopair.entanglement import (
    entropy_excited_closed_form,
    entropy_numeric,
    entropy_vacuum_closed_form,
)

SPINFUL = (Scenario.CHARGE_ONLY, Scenario.CHARGE_AND_ANGULAR_MOMENTUM)


def _report(number, name, worst, tolerance, passed=None):
    ok = worst <= tolerance if passed is None else passed
    label = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {label} (worst {worst:.3e}, "
          f"tolerance {tolerance:.1e})")
    assert ok, f"criterion {number} failed: worst {worst} > {tolerance}"


def test_criterion_01_vacuum_entropy_spinful():
    worst = 0.0
    for scenario in SPINFUL:
        for k in range(41):
            n = 0.1 * k
            numeric = entropy_numeric(from_density(scenario, n, lam=0.5), 0)
            closed = -2 * ((4 - n) / 4) * math.log2((4 - n) / 4) if n < 4 else 0.0
            if 0.0 < n:
                closed += -2 * (n / 4) * math.log2(n / 4)
            worst = max(worst, abs(numeric - closed))
        for n, target in ((0.0, 0.0), (4.0, 0.0), (2.0, 2.0)):
            numeric = entropy_numeric(from_density(scenario, n, lam=0.5), 0)
            worst = max(worst, abs(numeric - target))
    _report(1, "vacuum entropy, spinful", worst, 1e-10)


def test_criterion_02_vacuum_entropy_spinless():
    worst = 0.0
    for k in range(41):
        n = 0.05 * k
        numeric = entropy_numeric(from_density(Scenario.SPINLESS, n), 0)
        closed = 0.0
        if 0.0 < n:
            closed += -(n / 2) * math.log2(n / 2)
        if n < 2.0:
            closed += -(1 - n / 2) * math.log2(1 - n / 2)
        worst = max(worst, abs(numeric - closed))
    one = entropy_numeric(from_density(Scenario.SPINLESS, 1.0), 0)
    worst = max(worst, abs(one - 1.0))
    _report(2, "vacuum entropy, spinless", worst, 1e-10)


# Criteria that are checks of ``cosmopair verify``: number -> (title, {check
# name: pinned tolerance}).  Each reads the check's own result, and a check
# whose tolerance in ``verify`` moves off its pin fails here.
VERIFY_CRITERIA = {
    3: ("spinful = 2x spinless scaling on evolved states",
        {"spinful_spinless_scaling": 1e-12}),
    4: ("lambda independence + vacuum expansions",
        {"vacuum_entropy_lambda_independence": 1e-10,
         **{f"vacuum_expansion_{s.value}": 1e-10 for s in Scenario}}),
    5: ("factorized vs dense oracle (100 draws/scenario)",
        {**{f"factorized_vs_dense_{s.value}": 1e-10 for s in Scenario},
         "unitarity_random_batch": 1e-12, "ladder_conjugation_recovery": 1e-10}),
    6: ("coefficient constraint relations",
        {"coefficient_constraints_grid": 1e-12, "reduced_coherence_cross_terms": 1e-12,
         "determinant_combination_modulus": 1e-12}),
    8: ("charge/angular-momentum conservation",
        {"charge_commutation": 1e-12, "angular_momentum_commutation": 1e-12}),
}


@pytest.fixture(scope="module")
def verify_results():
    """The default ``cosmopair verify`` run (seed 7, 100 draws), by check name."""
    return {r.name: r for r in verify_mod.run_all()}


@pytest.mark.parametrize("number", sorted(VERIFY_CRITERIA))
def test_criterion_is_read_from_verify(number, verify_results):
    title, pins = VERIFY_CRITERIA[number]
    checks = [verify_results[name] for name in pins]
    assert {c.name: c.tolerance for c in checks} == pins
    _report(number, title, max(c.residual for c in checks), max(pins.values()),
            passed=all(c.passed for c in checks))


def test_criterion_07_excited_state_catalogue():
    worst = 0.0
    grid = (0.3, 1.0, 2.0, 3.2)
    charge_two = (0b0011, 0b1100)
    charge_one = (0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1011, 0b1101, 0b1110)
    for scenario in SPINFUL:
        for n in grid:
            coeffs = from_density(scenario, n, lam=0.5)
            for occupation in charge_two:
                worst = max(worst, abs(entropy_numeric(coeffs, occupation)))
            target = -((4 - n) / 4) * math.log2((4 - n) / 4) \
                - (n / 4) * math.log2(n / 4)
            for occupation in charge_one:
                worst = max(worst, abs(entropy_numeric(coeffs, occupation) - target))
    for n in grid:
        cam = from_density(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, n)
        worst = max(worst, abs(entropy_numeric(cam, 0b0101)))
        vacuum_value = entropy_vacuum_closed_form(n, Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
        worst = max(worst, abs(entropy_numeric(cam, 0b0110) - vacuum_value))
    # lambda-dependent pair inputs: closed form tracks the numeric oracle
    for n in grid:
        for lam in (0.1, 0.5, 0.9):
            coeffs = from_density(Scenario.CHARGE_ONLY, n, lam=lam)
            for occupation in (0b0101, 0b0110):
                numeric = entropy_numeric(coeffs, occupation)
                closed = entropy_excited_closed_form(occupation, n, lam,
                                                     Scenario.CHARGE_ONLY)
                worst = max(worst, abs(numeric - closed))
    spread = abs(
        entropy_numeric(from_density(Scenario.CHARGE_ONLY, 2.0, lam=0.1), 0b0101)
        - entropy_numeric(from_density(Scenario.CHARGE_ONLY, 2.0, lam=0.9), 0b0101))
    _report(7, "excited-state entropy catalogue", worst, 1e-10,
            passed=(worst <= 1e-10 and spread > 0.01))


def test_criterion_09_dynamics_pipeline():
    start = time.monotonic()
    tol = 1e-9
    worst_flat_n = 0.0
    worst_flat_s = 0.0
    for p in (0.3, 1.0, 3.0):
        point = momentum_point((p, 0.0, 0.0), 1.0, FLAT, tol=tol)
        worst_flat_n = max(worst_flat_n, point.n_created)
        worst_flat_s = max(worst_flat_s, point.s_numeric)
    step = ScaleFactorProfile(epsilon=1.0, rho=1.0)
    grid = [0.1 * (100.0 ** (k / 29.0)) for k in range(30)]
    worst_norm = 0.0
    worst_conv = 0.0
    worst_entropy = 0.0
    direction = (1.0 / math.sqrt(3.0),) * 3
    for p in grid:
        point = momentum_point(tuple(p * c for c in direction), 1.0, step, tol=tol)
        worst_norm = max(worst_norm, point.normalization_residual)
        worst_conv = max(worst_conv, point.self_convergence)
        worst_entropy = max(worst_entropy, abs(point.s_numeric - point.s_closed))
    elapsed = time.monotonic() - start
    ok = (worst_flat_n <= 1e-8 and worst_flat_s <= 1e-6 and worst_norm <= 1e-6
          and worst_conv <= 10 * tol and worst_entropy <= 1e-6 and elapsed <= 120.0)
    print(f"    flat n {worst_flat_n:.2e}, flat S {worst_flat_s:.2e}, "
          f"norm {worst_norm:.2e}, self-conv {worst_conv:.2e}, "
          f"entropy {worst_entropy:.2e}, {elapsed:.1f}s")
    _report(9, "mode-dynamics pipeline (30-point grid)",
            max(worst_norm, worst_entropy), 1e-6, passed=ok)


def test_criterion_10_deterministic_verification(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["verify", "--report", "json", "--output", str(first)]) == 0
    assert cli.main(["verify", "--report", "json", "--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(10, "byte-identical verification report", 0.0 if identical else 1.0,
            0.5, passed=identical)
