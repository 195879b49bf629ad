"""One-shot verification suite for every identity the package rests on.

``CHECKS`` lists every check once, in report order, with its tolerance
and the group function that measures it: a new check is one row plus its
group's code.  Each group runs once and returns, per check, its worst
residual and detail; the text and JSON renderings are deterministic
functions of the results, so a fixed seed yields byte-identical reports.

Inputs come from two sources: the seeded group, ``batch`` random draws
per scenario, and one fixed (n, lambda) grid per scenario, which feeds
every other group, so the seed moves none of those.  A grid group whose
sets a routine refuses (ValueError) reports each of its rows as FAIL,
with an infinite residual and the refusal as detail; the others still run.

The seeded draws come from the standard library's Mersenne Twister,
``random.Random(seed)``, so no command loads ``numpy.random``.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

import cosmopair
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

__all__ = ["CheckResult", "DEFAULT_SEED", "check_run", "render_json", "render_text", "run_all"]

DEFAULT_SEED = 7

_N_GRID = [0.25 * k for k in range(17)]           # 0 .. 4
_LAMBDA_GRID = [0.1 * k for k in range(11)]       # 0 .. 1

# Coefficient sets that the seeded pass and the grid scoring stack per call.
# numpy's per-call overhead is paid once per block, and peak memory grows
# with the block.  ``verify --batch 200`` peaks at 32.6 MB with blocks of 16,
# 35.2 MB with 64 and 41.0 MB with all 200 draws in one stack; its cold
# factorization pass takes about 100 ms at 16 and 85 ms at 64 (2-vCPU
# x86_64 host).
STACK_BLOCK = 64
# The bound on draws: run_all takes 0.26 s at 10**3 and 2.5 s at 10**4, at a
# peak RSS of 34.6 MB (one BLAS thread, 2-vCPU x86_64 host), so 10**6 would
# run for about four minutes.
MAX_BATCH = 10**4


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


class _Outcome(NamedTuple):
    """What a group measured for one check; it passes at residual <= tolerance if ``holds``."""
    residual: float
    detail: str = ""
    holds: bool = True


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


def _anticommutators() -> dict[str, _Outcome]:
    outcomes = {}
    for n_modes in (4, 2):
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
        outcomes[f"ladder_anticommutators_{n_modes}_modes"] = _Outcome(worst)
    return outcomes


def _constraints() -> dict[str, _Outcome]:
    reports = {scenario: validate(_grid_sets(scenario)[2]) for scenario in Scenario}
    worst_norm = max(report.worst for report in reports.values())
    _, _, sets = _grid_sets(Scenario.CHARGE_ONLY)
    # The column orthogonality sum conj(du) uu + ud conj(dd) multiplies the
    # spin-coherence entries of the reduced particle operator.
    cross = reports[Scenario.CHARGE_ONLY].residuals["orthogonality_columns"]
    b = sets.beta
    skipped = int(np.count_nonzero((b[:, UP, UP] == 0.0) | (b[:, DOWN, UP] == 0.0)))
    target = np.abs(b[:, UP, DOWN]) ** 2 + np.abs(b[:, UP, UP]) ** 2
    worst_det = _worst(np.abs(determinant_combination(sets)) - target)
    return {
        "coefficient_constraints_grid": _Outcome(
            worst_norm, "normalization, orthogonality and sparsity over the (n, lambda) grid, "
                        "all scenarios"),
        "reduced_coherence_cross_terms": _Outcome(_worst(cross)),
        "determinant_combination_modulus": _Outcome(
            worst_det, f"phase left free; {skipped} grid points with a vanishing channel "
                       "hold trivially"),
    }


def _generator_structure() -> dict[str, _Outcome]:
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
    return {
        "generator_scalar_modulus": _Outcome(worst_radius,
                                             "|theta| = arccos(a) * identity on the grid"),
        "generator_block_sparsity": _Outcome(worst_pattern),
        "mixing_matrix_reconstruction": _Outcome(worst_mixing),
        "mixing_matrix_algebra": _Outcome(worst_algebra),
    }


def _factorization(seed: int, batch: int) -> dict[str, _Outcome]:
    """Every seeded oracle on one pass of ``batch`` draws per scenario.

    Each block of draws yields theta, the dense unitaries and the
    factorized ones once, and the factorization, unitarity, conjugation,
    nilpotency and expansion checks all read those arrays.  Unitarity is
    measured on the factorized route: ``unitary_dense`` refuses its own
    results above the same 1e-12.
    """
    rng = random.Random(seed)
    outcomes = {}
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
        outcomes[f"factorized_vs_dense_{scenario.value}"] = _Outcome(
            worst, f"{batch} seeded draws x {dim} basis inputs")
        outcomes[f"vacuum_expansion_{scenario.value}"] = _Outcome(
            worst_expansion[0], "single-pair amplitudes carry -a conj(beta); the opposite sign "
                                "variant is the momentum-reflected convention")
        outcomes[f"excited_expansions_{scenario.value}"] = _Outcome(worst_expansion[1])
    outcomes["unitarity_random_batch"] = _Outcome(worst_unitarity)
    outcomes["ladder_conjugation_recovery"] = _Outcome(worst_conjugation)
    outcomes["pair_sum_nilpotency"] = _Outcome(
        worst_nilpotency, "cube vanishes exactly; square's top coefficient matches")
    return outcomes


def _vacuum_curves() -> dict[str, _Outcome]:
    outcomes, numeric = {}, {}
    for scenario in Scenario:
        n, lam, sets = _grid_sets(scenario)
        values, _, gaps = np.concatenate([
            score(BogolyubovCoefficients(scenario, sets.a[p], sets.beta[p]), 0, n[p], lam[p])
            for p in (slice(k, k + STACK_BLOCK) for k in range(0, n.size, STACK_BLOCK))], axis=1)
        numeric[scenario] = values.reshape(len(_N_GRID), -1)
        outcomes[f"vacuum_entropy_curve_{scenario.value}"] = _Outcome(
            gaps.max(), f"{n.size}-point (n, lambda) grid")
    charge = numeric[Scenario.CHARGE_ONLY]
    spread = charge.max(axis=1) - charge.min(axis=1)
    outcomes["vacuum_entropy_lambda_independence"] = _Outcome(spread.max())
    # Grid row k holds charge density n and spinless density n/2.
    outcomes["spinful_spinless_scaling"] = _Outcome(
        _worst(charge - 2.0 * numeric[Scenario.SPINLESS]))
    return outcomes


def _unitary_stacks() -> dict[str, _Outcome]:
    """Excited catalogue, conservation and complementary checks on one stack per scenario.

    The dense unitaries are built once on a coarse slice of the grid:
    every fourth density and, under charge-only, lambda in {0.1, 0.5,
    0.9}.  The charge-only stack, whose spin-preserving channel is open,
    witnesses that J_z commutation can fail.
    """
    outcomes, jz_commutators = {}, {}
    jz = fock.spin_z_operator()
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
        outcomes[f"excited_entropy_catalogue_{scenario.value}"] = _Outcome(
            worst, "every occupation, numeric route authoritative")
    witness = jz_commutators[Scenario.CHARGE_ONLY]
    outcomes["charge_commutation"] = _Outcome(worst_charge, "all scenarios")
    outcomes["angular_momentum_commutation"] = _Outcome(
        jz_commutators[Scenario.CHARGE_AND_ANGULAR_MOMENTUM],
        f"conserving scenario commutes; spin-preserving channel witness "
        f"violation {witness:.3e} > 1e-3", holds=witness > 1e-3)
    outcomes["complementary_reduction_entropy"] = _Outcome(worst_complementary)
    return outcomes


def _concavity() -> dict[str, _Outcome]:
    worst = 0.0
    for scenario in (Scenario.CHARGE_ONLY, Scenario.SPINLESS):
        grid = np.array([k * scenario.n_max / 40.0 for k in range(41)])
        values = entropy_vacuum_closed_form(grid, scenario)
        second = values[:-2] - 2.0 * values[1:-1] + values[2:]
        worst = max(worst, float(second.max()))
    return {"closed_form_concavity": _Outcome(
        max(worst, 0.0), "second differences nonpositive on the interior grid")}


# Every check, in report order: name -> (tolerance, the group that computes it).
CHECKS: dict[str, tuple[float, Callable[..., dict[str, _Outcome]]]] = {
    "ladder_anticommutators_4_modes": (1e-14, _anticommutators),
    "ladder_anticommutators_2_modes": (1e-14, _anticommutators),
    "coefficient_constraints_grid": (1e-12, _constraints),
    "reduced_coherence_cross_terms": (1e-12, _constraints),
    "determinant_combination_modulus": (1e-12, _constraints),
    "generator_scalar_modulus": (1e-12, _generator_structure),
    "generator_block_sparsity": (1e-14, _generator_structure),
    "mixing_matrix_reconstruction": (1e-12, _generator_structure),
    "mixing_matrix_algebra": (1e-12, _generator_structure),
    **{f"factorized_vs_dense_{s.value}": (1e-10, _factorization) for s in Scenario},
    "unitarity_random_batch": (1e-12, _factorization),
    "ladder_conjugation_recovery": (1e-10, _factorization),
    "pair_sum_nilpotency": (1e-14, _factorization),
    **{f"{check}_{s.value}": (1e-10, _factorization)
       for s in Scenario for check in ("vacuum_expansion", "excited_expansions")},
    **{f"vacuum_entropy_curve_{s.value}": (1e-10, _vacuum_curves) for s in Scenario},
    "vacuum_entropy_lambda_independence": (1e-10, _vacuum_curves),
    "spinful_spinless_scaling": (1e-12, _vacuum_curves),
    **{f"excited_entropy_catalogue_{s.value}": (1e-10, _unitary_stacks) for s in Scenario},
    "charge_commutation": (1e-12, _unitary_stacks),
    "angular_momentum_commutation": (1e-12, _unitary_stacks),
    "closed_form_concavity": (1e-12, _concavity),
    "complementary_reduction_entropy": (1e-10, _unitary_stacks),
}


def check_run(seed: int, batch: int) -> None:
    """Refuse a negative seed, or a batch outside 1 .. MAX_BATCH draws per scenario.

    At least one draw, so that no seeded check passes vacuously.
    """
    if not 1 <= batch <= MAX_BATCH:
        raise ValueError(f"batch must be between 1 and {MAX_BATCH}, got {batch}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def run_all(seed: int = DEFAULT_SEED, batch: int = 100) -> list[CheckResult]:
    """Every check of ``CHECKS``, in its order; deterministic for a fixed seed.

    Each group runs once, when the table first names it.  ``seed`` and
    ``batch`` drive the seeded group alone, whose ValueError propagates;
    ``check_run`` refuses them, before any check runs, outside their range.
    """
    check_run(seed, batch)
    outcomes: dict[Callable, dict[str, _Outcome]] = {}
    results = []
    for name, (tolerance, group) in CHECKS.items():
        if group is _factorization and group not in outcomes:
            outcomes[group] = _factorization(seed, batch)
        elif group not in outcomes:
            try:
                outcomes[group] = group()
            except ValueError as err:
                refused = _Outcome(math.inf, f"grid sets refused: {err}", holds=False)
                outcomes[group] = {row: refused for row, (_, g) in CHECKS.items() if g is group}
        residual, detail, holds = outcomes[group][name]
        results.append(CheckResult(name=name, residual=float(residual), tolerance=tolerance,
                                   passed=bool(residual <= tolerance and holds), detail=detail))
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
        "schema_version": cosmopair.SCHEMA_VERSION,
        "report": "verification",
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
    return json.dumps(payload, indent=2) + "\n"
