"""One-shot verification suite for every identity the package rests on.

Each check reports its worst residual against a pinned tolerance; the
text and JSON renderings are deterministic functions of the results, so
a fixed seed yields byte-identical reports across runs.

The seeded draws reach ``numpy.random`` as ``np.random`` when a check
runs: ``cli`` imports this module on every command, and numpy 2 loads
its random package (about 14 ms) only on that first access.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from cosmopair import fock
from cosmopair.bogoliubov import (
    DOWN,
    UP,
    BogolyubovCoefficients,
    Scenario,
    determinant_combination,
    expected_pair_mixing,
    from_density,
    mu_nu_from_theta,
    random_coefficients,
    squeezing_angle,
    theta_from_coefficients,
    validate,
)
from cosmopair.entanglement import (
    entropy_excited_closed_form,
    entropy_numeric,
    entropy_vacuum_closed_form,
    score,
)
from cosmopair.expansions import closed_form_expansion
from cosmopair.squeezing import (
    apply_decoupled,
    build_generator,
    conjugate_mode,
    pair_creation_sum,
    unitarity_residual,
    unitary_dense,
    unitary_for,
)

__all__ = ["CheckResult", "DEFAULT_SEED", "render_json", "render_text", "run_all"]

DEFAULT_SEED = 7
SCHEMA_VERSION = 1

_N_GRID = [0.25 * k for k in range(17)]           # 0 .. 4
_LAMBDA_GRID = [0.1 * k for k in range(11)]       # 0 .. 1
_ENTROPY_GRID = [0.1 * k for k in range(41)]      # 0 .. 4

# Seeded draws that the oracle pass stacks per call.
# Peak memory grows with the block: stacking all 200 draws of
# ``verify --batch 200`` raises its peak RSS by about 7 MB (17 %), blocks
# of 16 by under 0.5 MB, and each stacked 16 x 16 product stays small
# enough that OpenBLAS starts no worker threads.
STACK_BLOCK = 16
# The bound grids have: a draw costs about 0.5 ms, so 10**9 would take days.
MAX_BATCH = 10**6


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name: str, residual: float, tolerance: float, detail: str = "",
            passed: bool | None = None) -> CheckResult:
    ok = residual <= tolerance if passed is None else passed
    return CheckResult(name=name, residual=float(residual), tolerance=float(tolerance),
                       passed=bool(ok), detail=detail)


def _worst(deviation: np.ndarray) -> float:
    """Largest modulus over every entry of a (stacked) deviation."""
    return float(np.max(np.abs(deviation)))


@functools.lru_cache(maxsize=None)
def _grid_sets(scenario: Scenario) -> BogolyubovCoefficients:
    """Stack of the coefficient sets on the (n, lambda) grid, lambda fastest.

    Cached per scenario: both grid checks read the one read-only stack.
    """
    sets = []
    phases = (0.3, -0.8, 1.7, 0.4)
    for n_raw in _N_GRID:
        n = n_raw * scenario.n_max / 4.0
        if scenario is Scenario.CHARGE_ONLY:
            for lam in _LAMBDA_GRID:
                sets.append(from_density(scenario, n, lam, phases))
        else:
            sets.append(from_density(scenario, n, phases=phases))
    return BogolyubovCoefficients.stack(sets)


def _check_anticommutators(n_modes: int) -> CheckResult:
    lowering, raising = fock.ladder_operators(n_modes)
    eye = np.eye(fock.dimension(n_modes))
    worst = 0.0
    for i in range(n_modes):
        for j in range(n_modes):
            mixed = lowering[i] @ raising[j] + raising[j] @ lowering[i]
            target = eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(mixed - target))))
            same = lowering[i] @ lowering[j] + lowering[j] @ lowering[i]
            worst = max(worst, float(np.max(np.abs(same))))
    return _result(f"ladder_anticommutators_{n_modes}_modes", worst, 1e-14)


def _check_constraints() -> list[CheckResult]:
    results = []
    reports = {scenario: validate(_grid_sets(scenario)) for scenario in Scenario}
    worst_norm = max(report.worst for report in reports.values())
    results.append(_result("coefficient_constraints_grid", worst_norm, 1e-12,
                           detail="normalization, orthogonality and sparsity over the "
                                  "(n, lambda) grid, all scenarios"))
    sets = _grid_sets(Scenario.CHARGE_ONLY)
    # The column orthogonality sum conj(du) uu + ud conj(dd) multiplies the
    # spin-coherence entries of the reduced particle operator.
    cross = reports[Scenario.CHARGE_ONLY].residuals["orthogonality_columns"]
    b = sets.beta
    skipped = int(np.count_nonzero((b[:, UP, UP] == 0.0) | (b[:, DOWN, UP] == 0.0)))
    target = np.abs(b[:, UP, DOWN]) ** 2 + np.abs(b[:, UP, UP]) ** 2
    worst_det = _worst(np.abs(determinant_combination(sets)) - target)
    results.append(_result("reduced_coherence_cross_terms", _worst(cross), 1e-12))
    results.append(_result(
        "determinant_combination_modulus", worst_det, 1e-12,
        detail=f"phase left free; {skipped} grid points with a vanishing channel "
               "hold trivially"))
    return results


def _check_generator_structure() -> list[CheckResult]:
    worst_radius = 0.0
    worst_pattern = 0.0
    worst_mixing = 0.0
    worst_algebra = 0.0
    for scenario in Scenario:
        sets = _grid_sets(scenario)
        thetas = theta_from_coefficients(sets)
        radii = squeezing_angle(thetas)
        targets = np.array([math.acos(min(a, 1.0)) for a in sets.a.tolist()])
        worst_radius = max(worst_radius, _worst(radii - targets))
        if scenario is not Scenario.SPINLESS:
            pattern = (np.max(np.abs(thetas[:, 0:2, 0:2]), axis=(1, 2))
                       + np.max(np.abs(thetas[:, 2:4, 2:4]), axis=(1, 2)))
            if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
                pattern += np.abs(thetas[:, 0, 2]) + np.abs(thetas[:, 1, 3])
            worst_pattern = max(worst_pattern, float(np.max(pattern)))
        mu, nu = mu_nu_from_theta(thetas)
        mu_ref, nu_ref = expected_pair_mixing(sets)
        worst_mixing = max(worst_mixing, _worst(mu - mu_ref), _worst(nu - nu_ref))
        eye = np.eye(scenario.n_modes)
        worst_algebra = max(
            worst_algebra,
            _worst(mu @ mu.conj().swapaxes(1, 2) + nu @ nu.conj().swapaxes(1, 2) - eye),
            _worst(mu @ nu.swapaxes(1, 2) + nu @ mu.swapaxes(1, 2)))
    return [
        _result("generator_scalar_modulus", worst_radius, 1e-12,
                detail="|theta| = arccos(a) * identity on the grid"),
        _result("generator_block_sparsity", worst_pattern, 1e-14),
        _result("mixing_matrix_reconstruction", worst_mixing, 1e-12),
        _result("mixing_matrix_algebra", worst_algebra, 1e-12),
    ]


def _check_factorization(seed: int, batch: int) -> list[CheckResult]:
    """Every seeded oracle on one pass of ``batch`` draws per scenario.

    Each block of draws yields theta, the dense unitaries and the
    factorized ones once, and the factorization, unitarity, conjugation,
    nilpotency and expansion checks all read those arrays.  Unitarity is
    measured on the factorized route: ``unitary_dense`` refuses its own
    results above the same 1e-12.
    """
    rng = np.random.default_rng(seed)
    factorized, expansions = [], []
    worst_unitarity = 0.0
    worst_conjugation = 0.0
    worst_nilpotency = 0.0
    for scenario in Scenario:
        dim = fock.dimension(scenario.n_modes)
        eye = np.eye(dim)
        worst = 0.0
        worst_expansion = [0.0, 0.0]   # the vacuum, then the excited inputs
        # Draws are taken in the order of a one-at-a-time loop; each block
        # of them goes through every oracle in one stacked call.
        for start in range(0, batch, STACK_BLOCK):
            sets = BogolyubovCoefficients.stack(
                random_coefficients(scenario, rng)
                for _ in range(min(STACK_BLOCK, batch - start)))
            thetas = theta_from_coefficients(sets)
            unitaries = unitary_dense(build_generator(thetas))
            # Column k of each block is the factorized image of basis input k.
            direct = apply_decoupled(thetas, eye)
            worst = max(worst, _worst(direct - unitaries))
            worst_unitarity = max(worst_unitarity, unitarity_residual(direct))
            mu_ref, nu_ref = expected_pair_mixing(sets)
            for mode in range(scenario.n_modes):
                mu_rows, nu_rows = conjugate_mode(unitaries, mode)
                worst_conjugation = max(worst_conjugation,
                                        _worst(mu_rows - mu_ref[:, mode]),
                                        _worst(nu_rows - nu_ref[:, mode]))
            creation = pair_creation_sum(thetas)
            squared = creation @ creation
            worst_nilpotency = max(worst_nilpotency, _worst(squared @ creation))
            if scenario is not Scenario.SPINLESS:
                target = 2.0 * (thetas[:, 0, 3] * thetas[:, 1, 2]
                                - thetas[:, 0, 2] * thetas[:, 1, 3])
                worst_nilpotency = max(worst_nilpotency,
                                       _worst(squared[:, dim - 1, 0] - target))
            for occupation, expansion in closed_form_expansion(sets).items():
                expected = np.zeros((len(thetas), dim), dtype=complex)
                for bits, amplitude in expansion.items():
                    expected[:, bits] = amplitude
                slot = 1 if occupation else 0
                worst_expansion[slot] = max(worst_expansion[slot],
                                            _worst(unitaries[..., occupation] - expected))
        factorized.append(_result(f"factorized_vs_dense_{scenario.value}", worst, 1e-10,
                                  detail=f"{batch} seeded draws x {dim} basis inputs"))
        expansions.append(_result(
            f"vacuum_expansion_{scenario.value}", worst_expansion[0], 1e-10,
            detail="single-pair amplitudes carry -a conj(beta); the opposite sign "
                   "variant is the momentum-reflected convention"))
        expansions.append(_result(f"excited_expansions_{scenario.value}", worst_expansion[1],
                                  1e-10))
    return [*factorized,
            _result("unitarity_random_batch", worst_unitarity, 1e-12),
            _result("ladder_conjugation_recovery", worst_conjugation, 1e-10),
            _result("pair_sum_nilpotency", worst_nilpotency, 1e-14,
                    detail="cube vanishes exactly; square's top coefficient matches"),
            *expansions]


def _check_vacuum_curves() -> list[CheckResult]:
    results = []
    numeric = {}
    for scenario in Scenario:
        densities = [n_raw * scenario.n_max / 4.0 for n_raw in _ENTROPY_GRID]
        sets = BogolyubovCoefficients.stack(from_density(scenario, n, 0.5) for n in densities)
        numeric[scenario], _, gaps = score(sets, 0, densities, np.full(len(densities), 0.5))
        results.append(_result(f"vacuum_entropy_curve_{scenario.value}", gaps.max(), 1e-10,
                               detail="41-point density grid"))
    worst_lam = 0.0
    for n in (0.5, 1.0, 2.0, 3.0, 3.5):
        values = entropy_numeric(BogolyubovCoefficients.stack(
            from_density(Scenario.CHARGE_ONLY, n, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)), 0)
        worst_lam = max(worst_lam, values.max() - values.min())
    results.append(_result("vacuum_entropy_lambda_independence", worst_lam, 1e-10))
    # The same grid point holds charge density n and spinless density n/2.
    worst_rel = _worst(numeric[Scenario.CHARGE_ONLY] - 2.0 * numeric[Scenario.SPINLESS])
    results.append(_result("spinful_spinless_scaling", worst_rel, 1e-12))
    return results


def _check_excited_catalogue() -> list[CheckResult]:
    results = []
    for scenario in Scenario:
        lambdas = (0.1, 0.5, 0.9) if scenario is Scenario.CHARGE_ONLY else (1.0,)
        densities = [d for d in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0) if d <= scenario.n_max]
        points = [(n, lam) for n in densities for lam in lambdas]
        unitaries = unitary_for(BogolyubovCoefficients.stack(
            from_density(scenario, n, lam) for n, lam in points))
        n, lam = np.array(points).T
        worst = 0.0
        for occupation in range(fock.dimension(scenario.n_modes)):
            numeric = fock.subsystem_entropy(unitaries[..., occupation], scenario.particle_modes)
            closed = entropy_excited_closed_form(occupation, n, lam, scenario)
            worst = max(worst, _worst(numeric - closed))
        results.append(_result(f"excited_entropy_catalogue_{scenario.value}", worst, 1e-10,
                               detail="every occupation, numeric route authoritative"))
    return results


def _check_conservation() -> list[CheckResult]:
    results = []
    worst_charge = 0.0
    for scenario in Scenario:
        charge = fock.charge_operator(scenario.n_modes)
        unitaries = unitary_for(BogolyubovCoefficients.stack(
            from_density(scenario, n * scenario.n_max / 4.0, 0.4, (0.2, 1.0, -0.5, 0.0))
            for n in (0.5, 1.5, 2.5)))
        worst_charge = max(worst_charge, _worst(unitaries @ charge - charge @ unitaries))
    results.append(_result("charge_commutation", worst_charge, 1e-12,
                           detail="all scenarios"))
    jz = fock.spin_z_operator()
    cam = from_density(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 2.0)
    u_cam = unitary_for(cam)
    residual_cam = float(np.max(np.abs(u_cam @ jz - jz @ u_cam)))
    witness_set = from_density(Scenario.CHARGE_ONLY, 2.0, lam=0.2)
    u_witness = unitary_for(witness_set)
    witness = float(np.max(np.abs(u_witness @ jz - jz @ u_witness)))
    ok = residual_cam <= 1e-12 and witness > 1e-3
    results.append(_result(
        "angular_momentum_commutation", residual_cam, 1e-12, passed=ok,
        detail=f"conserving scenario commutes; spin-preserving channel witness "
               f"violation {witness:.3e} > 1e-3"))
    return results


def _check_concavity() -> CheckResult:
    worst = 0.0
    for scenario in (Scenario.CHARGE_ONLY, Scenario.SPINLESS):
        grid = np.array([k * scenario.n_max / 40.0 for k in range(41)])
        values = entropy_vacuum_closed_form(grid, scenario)
        second = values[:-2] - 2.0 * values[1:-1] + values[2:]
        worst = max(worst, float(second.max()))
    return _result("closed_form_concavity", max(worst, 0.0), 1e-12,
                   detail="second differences nonpositive on the interior grid")


def _check_complementary_reductions(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for scenario in Scenario:
        sets, occupations = [], []
        for _ in range(10):
            sets.append(random_coefficients(scenario, rng))
            occupations.append(int(rng.integers(fock.dimension(scenario.n_modes))))
        unitaries = unitary_for(BogolyubovCoefficients.stack(sets))
        evolved = unitaries[np.arange(len(sets)), :, occupations]
        s_particle = fock.subsystem_entropy(evolved, scenario.particle_modes)
        s_anti = fock.subsystem_entropy(evolved, scenario.antiparticle_modes)
        worst = max(worst, _worst(s_particle - s_anti))
    return _result("complementary_reduction_entropy", worst, 1e-10)


def run_all(seed: int = DEFAULT_SEED, batch: int = 100) -> list[CheckResult]:
    """Run the full identity suite; deterministic for a fixed seed.

    ``batch`` is the number of seeded draws per scenario for every
    oracle check but the complementary reductions.  It must be at least
    1, so that no check passes vacuously, and at most MAX_BATCH.
    ``seed`` must be nonnegative.
    """
    if not 1 <= batch <= MAX_BATCH:
        raise ValueError(f"batch must be between 1 and {MAX_BATCH}, got {batch}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    results: list[CheckResult] = []
    results.append(_check_anticommutators(4))
    results.append(_check_anticommutators(2))
    results.extend(_check_constraints())
    results.extend(_check_generator_structure())
    results.extend(_check_factorization(seed, batch))
    results.extend(_check_vacuum_curves())
    results.extend(_check_excited_catalogue())
    results.extend(_check_conservation())
    results.append(_check_concavity())
    results.append(_check_complementary_reductions(seed))
    return results


def render_text(results: list[CheckResult], seed: int = DEFAULT_SEED) -> str:
    lines = [f"verification report (seed {seed})"]
    name_width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{name_width}}  residual {r.residual:.6e}"
                     f"  tolerance {r.tolerance:.1e}")
        if r.detail:
            lines.append(f"      {r.detail}")
    n_failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def render_json(results: list[CheckResult], seed: int = DEFAULT_SEED) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "report": "verification",
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
    return json.dumps(payload, indent=2) + "\n"
