"""One-shot verification suite for every identity the package rests on.

Each check reports its worst residual against a pinned tolerance; the
text and JSON renderings are deterministic functions of the results, so
a fixed seed yields byte-identical reports across runs.

Inputs come from two sources: the seeded pass, ``batch`` random draws
per scenario, and one fixed (n, lambda) grid per scenario, which feeds
every other check, so the seed moves none of those.

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

# Coefficient sets that the seeded pass and the grid scoring stack per call.
# Peak memory grows with the block, so it sets the size: stacking all 200
# draws of ``verify --batch 200`` raises its peak RSS by about 7 MB (17 %),
# blocks of 16 by under 0.5 MB.  Scoring the 187-point charge grid in one
# stack costs a cold run about 900 page faults.
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
def _grid_sets(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, BogolyubovCoefficients]:
    """(n, lambda, sets) on the (n, lambda) grid, one item per point, lambda fastest.

    Outside charge-only the grid holds lambda = 1 alone, which those
    scenarios do not read.  Cached per scenario: every check outside the
    seeded pass reads the one read-only grid.
    """
    lambdas = _LAMBDA_GRID if scenario is Scenario.CHARGE_ONLY else [1.0]
    points = [(n_raw * scenario.n_max / 4.0, lam) for n_raw in _N_GRID for lam in lambdas]
    n, lam = np.array(points).T
    n.flags.writeable = lam.flags.writeable = False
    phases = (0.3, -0.8, 1.7, 0.4)
    return n, lam, BogolyubovCoefficients.stack(
        from_density(scenario, n_point, lam_point, phases) for n_point, lam_point in points)


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
    reports = {scenario: validate(_grid_sets(scenario)[2]) for scenario in Scenario}
    worst_norm = max(report.worst for report in reports.values())
    results.append(_result("coefficient_constraints_grid", worst_norm, 1e-12,
                           detail="normalization, orthogonality and sparsity over the "
                                  "(n, lambda) grid, all scenarios"))
    _, _, sets = _grid_sets(Scenario.CHARGE_ONLY)
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
        _, _, sets = _grid_sets(scenario)
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
        n, lam, sets = _grid_sets(scenario)
        values, _, gaps = np.concatenate([
            score(BogolyubovCoefficients(scenario, sets.a[p], sets.beta[p]), 0, n[p], lam[p])
            for p in (slice(k, k + STACK_BLOCK) for k in range(0, n.size, STACK_BLOCK))], axis=1)
        numeric[scenario] = values.reshape(len(_N_GRID), -1)
        results.append(_result(f"vacuum_entropy_curve_{scenario.value}", gaps.max(), 1e-10,
                               detail=f"{n.size}-point (n, lambda) grid"))
    charge = numeric[Scenario.CHARGE_ONLY]
    spread = charge.max(axis=1) - charge.min(axis=1)
    results.append(_result("vacuum_entropy_lambda_independence", spread.max(), 1e-10))
    # Grid row k holds charge density n and spinless density n/2.
    worst_rel = _worst(charge - 2.0 * numeric[Scenario.SPINLESS])
    results.append(_result("spinful_spinless_scaling", worst_rel, 1e-12))
    return results


def _check_unitary_stacks() -> list[CheckResult]:
    """Excited catalogue, conservation and complementary checks on one stack per scenario.

    The dense unitaries are built once on a coarse slice of the grid:
    every fourth density and, under charge-only, lambda in {0.1, 0.5,
    0.9}.  The charge-only stack, whose spin-preserving channel is open,
    witnesses that J_z commutation can fail.
    """
    catalogue = []
    jz = fock.spin_z_operator()
    jz_commutators = {}
    worst_charge = 0.0
    worst_complementary = 0.0
    for scenario in Scenario:
        n, lam, sets = _grid_sets(scenario)
        rows = np.arange(n.size).reshape(len(_N_GRID), -1)[::4]
        pick = (rows[:, 1::4] if scenario is Scenario.CHARGE_ONLY else rows).ravel()
        unitaries = unitary_for(BogolyubovCoefficients(scenario, sets.a[pick], sets.beta[pick]))
        charge = fock.charge_operator(scenario.n_modes)
        worst_charge = max(worst_charge, _worst(unitaries @ charge - charge @ unitaries))
        if scenario is not Scenario.SPINLESS:
            jz_commutators[scenario] = _worst(unitaries @ jz - jz @ unitaries)
        worst = 0.0
        for occupation in range(fock.dimension(scenario.n_modes)):
            evolved = unitaries[..., occupation]
            s_particle = fock.subsystem_entropy(evolved, scenario.particle_modes)
            s_anti = fock.subsystem_entropy(evolved, scenario.antiparticle_modes)
            closed = entropy_excited_closed_form(occupation, n[pick], lam[pick], scenario)
            worst = max(worst, _worst(s_particle - closed))
            worst_complementary = max(worst_complementary, _worst(s_particle - s_anti))
        catalogue.append(_result(f"excited_entropy_catalogue_{scenario.value}", worst, 1e-10,
                                 detail="every occupation, numeric route authoritative"))
    residual_cam = jz_commutators[Scenario.CHARGE_AND_ANGULAR_MOMENTUM]
    witness = jz_commutators[Scenario.CHARGE_ONLY]
    return [
        *catalogue,
        _result("charge_commutation", worst_charge, 1e-12, detail="all scenarios"),
        _result("angular_momentum_commutation", residual_cam, 1e-12,
                passed=residual_cam <= 1e-12 and witness > 1e-3,
                detail=f"conserving scenario commutes; spin-preserving channel witness "
                       f"violation {witness:.3e} > 1e-3"),
        _result("complementary_reduction_entropy", worst_complementary, 1e-10),
    ]


def _check_concavity() -> CheckResult:
    worst = 0.0
    for scenario in (Scenario.CHARGE_ONLY, Scenario.SPINLESS):
        grid = np.array([k * scenario.n_max / 40.0 for k in range(41)])
        values = entropy_vacuum_closed_form(grid, scenario)
        second = values[:-2] - 2.0 * values[1:-1] + values[2:]
        worst = max(worst, float(second.max()))
    return _result("closed_form_concavity", max(worst, 0.0), 1e-12,
                   detail="second differences nonpositive on the interior grid")


def run_all(seed: int = DEFAULT_SEED, batch: int = 100) -> list[CheckResult]:
    """Run the full identity suite; deterministic for a fixed seed.

    ``seed`` and ``batch`` drive the seeded pass alone: ``batch`` is its
    number of draws per scenario, at least 1, so that no check passes
    vacuously, and at most MAX_BATCH.  ``seed`` must be nonnegative.
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
    *stacked, complementary = _check_unitary_stacks()
    results.extend(stacked)
    results.append(_check_concavity())
    results.append(complementary)
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
