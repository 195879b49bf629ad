"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the failure report) and asserts the same condition.
"""

import math
import time

import numpy as np

from cosmopair import cli, fock
from cosmopair import verify as verify_mod
from cosmopair.bogoliubov import (
    DOWN,
    UP,
    DensityParameters,
    Scenario,
    cross_term_identity,
    determinant_combination,
    expected_pair_mixing,
    from_density,
    random_coefficients,
    theta_from_coefficients,
    validate,
)
from cosmopair.dynamics import ScaleFactorProfile, momentum_point
from cosmopair.entanglement import (
    entropy_excited_closed_form,
    entropy_numeric,
    entropy_vacuum_closed_form,
    spin_spinless_relation,
)
from cosmopair.expansions import vacuum_expansion
from cosmopair.squeezing import (
    apply_decoupled,
    build_generator,
    conjugate_mode,
    unitary_dense,
    unitary_for,
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
            numeric = entropy_numeric(from_density(DensityParameters(n=n, lam=0.5),
                                                   scenario), 0)
            closed = -2 * ((4 - n) / 4) * math.log2((4 - n) / 4) if n < 4 else 0.0
            if 0.0 < n:
                closed += -2 * (n / 4) * math.log2(n / 4)
            worst = max(worst, abs(numeric - closed))
        for n, target in ((0.0, 0.0), (4.0, 0.0), (2.0, 2.0)):
            numeric = entropy_numeric(from_density(DensityParameters(n=n, lam=0.5),
                                                   scenario), 0)
            worst = max(worst, abs(numeric - target))
    _report(1, "vacuum entropy, spinful", worst, 1e-10)


def test_criterion_02_vacuum_entropy_spinless():
    worst = 0.0
    for k in range(41):
        n = 0.05 * k
        numeric = entropy_numeric(from_density(DensityParameters(n=n),
                                               Scenario.SPINLESS), 0)
        closed = 0.0
        if 0.0 < n:
            closed += -(n / 2) * math.log2(n / 2)
        if n < 2.0:
            closed += -(1 - n / 2) * math.log2(1 - n / 2)
        worst = max(worst, abs(numeric - closed))
    one = entropy_numeric(from_density(DensityParameters(n=1.0), Scenario.SPINLESS), 0)
    worst = max(worst, abs(one - 1.0))
    _report(2, "vacuum entropy, spinless", worst, 1e-10)


def test_criterion_03_scaling_relation():
    worst = max(spin_spinless_relation(0.1 * k)[2] for k in range(41))
    _report(3, "spinful = 2x spinless scaling", worst, 1e-12)


def test_criterion_04_lambda_independence_and_vacuum_expansion():
    worst = 0.0
    for n in (0.5, 1.0, 2.0, 3.0, 3.5):
        values = [entropy_numeric(from_density(DensityParameters(n=n, lam=lam),
                                               Scenario.CHARGE_ONLY), 0)
                  for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        worst = max(worst, max(values) - min(values))
    rng = np.random.default_rng(2025)
    for _ in range(20):
        coeffs = random_coefficients(Scenario.CHARGE_ONLY, rng)
        evolved_vacuum = unitary_for(coeffs)[:, 0]
        reference = vacuum_expansion(coeffs)
        vec = np.zeros(16, dtype=complex)
        for bits, amplitude in reference.items():
            vec[bits] = amplitude
        worst = max(worst, float(np.max(np.abs(evolved_vacuum - vec))))
    _report(4, "lambda independence + six-coefficient vacuum expansion", worst, 1e-10)


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(verify_mod.DEFAULT_SEED)
    worst_apply = 0.0
    worst_unitary = 0.0
    worst_mixing = 0.0
    for scenario in Scenario:
        dim = fock.dimension(scenario.n_modes)
        eye = np.eye(dim)
        for _ in range(100):
            coeffs = random_coefficients(scenario, rng)
            theta = theta_from_coefficients(coeffs)
            unitary = unitary_dense(build_generator(theta))
            worst_unitary = max(worst_unitary, float(np.max(np.abs(
                unitary @ unitary.conj().T - eye))))
            for occupation in range(dim):
                state = fock.basis_state(occupation, scenario.n_modes)
                worst_apply = max(worst_apply, float(np.max(np.abs(
                    apply_decoupled(theta, state) - unitary[:, occupation]))))
            mu_ref, nu_ref = expected_pair_mixing(coeffs)
            for mode in range(scenario.n_modes):
                mu_row, nu_row = conjugate_mode(unitary, mode)
                worst_mixing = max(worst_mixing,
                                   float(np.max(np.abs(mu_row - mu_ref[mode]))),
                                   float(np.max(np.abs(nu_row - nu_ref[mode]))))
    _report(5, "factorized vs dense oracle (100 draws/scenario)",
            max(worst_apply, worst_mixing), 1e-10,
            passed=(worst_apply <= 1e-10 and worst_mixing <= 1e-10
                    and worst_unitary <= 1e-12))


def test_criterion_06_constraint_relations():
    worst = 0.0
    phases = (0.9, -0.3, 2.1, 0.5)
    for k in range(17):
        n = 0.25 * k
        for lam in [0.1 * j for j in range(11)]:
            coeffs = from_density(DensityParameters(n=n, lam=lam, phases=phases),
                                  Scenario.CHARGE_ONLY)
            worst = max(worst, validate(coeffs).worst)
            first, second = cross_term_identity(coeffs)
            worst = max(worst, abs(first), abs(second))
            combo = determinant_combination(coeffs)
            target = abs(coeffs.beta[UP, DOWN]) ** 2 + abs(coeffs.beta[UP, UP]) ** 2
            worst = max(worst, abs(abs(combo) - target))
    _report(6, "coefficient constraint relations", worst, 1e-12)


def test_criterion_07_excited_state_catalogue():
    worst = 0.0
    grid = (0.3, 1.0, 2.0, 3.2)
    charge_two = (0b0011, 0b1100)
    charge_one = (0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1011, 0b1101, 0b1110)
    for scenario in SPINFUL:
        for n in grid:
            coeffs = from_density(DensityParameters(n=n, lam=0.5), scenario)
            for occupation in charge_two:
                worst = max(worst, abs(entropy_numeric(coeffs, occupation)))
            target = -((4 - n) / 4) * math.log2((4 - n) / 4) \
                - (n / 4) * math.log2(n / 4)
            for occupation in charge_one:
                worst = max(worst, abs(entropy_numeric(coeffs, occupation) - target))
    for n in grid:
        cam = from_density(DensityParameters(n=n),
                           Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
        worst = max(worst, abs(entropy_numeric(cam, 0b0101)))
        vacuum_value = entropy_vacuum_closed_form(n, Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
        worst = max(worst, abs(entropy_numeric(cam, 0b0110) - vacuum_value))
    # lambda-dependent pair inputs: closed form tracks the numeric oracle
    for n in grid:
        for lam in (0.1, 0.5, 0.9):
            coeffs = from_density(DensityParameters(n=n, lam=lam),
                                  Scenario.CHARGE_ONLY)
            for occupation in (0b0101, 0b0110):
                numeric = entropy_numeric(coeffs, occupation)
                closed = entropy_excited_closed_form(occupation, n, lam,
                                                     Scenario.CHARGE_ONLY)
                worst = max(worst, abs(numeric - closed))
    spread = abs(
        entropy_numeric(from_density(DensityParameters(n=2.0, lam=0.1),
                                     Scenario.CHARGE_ONLY), 0b0101)
        - entropy_numeric(from_density(DensityParameters(n=2.0, lam=0.9),
                                       Scenario.CHARGE_ONLY), 0b0101))
    _report(7, "excited-state entropy catalogue", worst, 1e-10,
            passed=(worst <= 1e-10 and spread > 0.01))


def test_criterion_08_conservation_laws():
    worst_charge = 0.0
    for scenario in Scenario:
        charge = fock.charge_operator(scenario.n_modes)
        for n in (0.8, 2.0):
            coeffs = from_density(
                DensityParameters(n=n * scenario.n_max / 4.0, lam=0.4,
                                  phases=(0.2, 1.2, -0.7, 0.1)), scenario)
            unitary = unitary_for(coeffs)
            worst_charge = max(worst_charge, float(np.max(np.abs(
                unitary @ charge - charge @ unitary))))
    jz = fock.spin_z_operator()
    cam = unitary_for(from_density(DensityParameters(n=2.0),
                                   Scenario.CHARGE_AND_ANGULAR_MOMENTUM))
    cam_residual = float(np.max(np.abs(cam @ jz - jz @ cam)))
    witness_coeffs = from_density(DensityParameters(n=2.0, lam=0.2),
                                  Scenario.CHARGE_ONLY)
    assert abs(witness_coeffs.beta[UP, UP]) >= 0.3
    witness_unitary = unitary_for(witness_coeffs)
    witness = float(np.max(np.abs(witness_unitary @ jz - jz @ witness_unitary)))
    _report(8, "charge/angular-momentum conservation",
            max(worst_charge, cam_residual), 1e-12,
            passed=(worst_charge <= 1e-12 and cam_residual <= 1e-12
                    and witness > 1e-3))


def test_criterion_09_dynamics_pipeline():
    start = time.monotonic()
    tol = 1e-9
    flat = ScaleFactorProfile.constant(1.0)
    worst_flat_n = 0.0
    worst_flat_s = 0.0
    for p in (0.3, 1.0, 3.0):
        point = momentum_point((p, 0.0, 0.0), 1.0, flat, tol=tol)
        worst_flat_n = max(worst_flat_n, point.n_created)
        worst_flat_s = max(worst_flat_s, point.s_numeric)
    step = ScaleFactorProfile.smooth_step(1.0, 1.0)
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
