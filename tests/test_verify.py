import json
import math
import random

import numpy as np
import pytest

from cosmopair import fock, verify
from cosmopair.bogoliubov import (
    Scenario,
    expected_pair_mixing,
    from_density,
    random_coefficients,
    theta_from_coefficients,
)
from cosmopair.expansions import closed_form_expansion
from cosmopair.squeezing import (
    apply_decoupled,
    build_generator,
    conjugate_mode,
    pair_creation_sum,
    unitary_dense,
)


def test_suite_passes_with_unique_names():
    results = verify.run_all(batch=10)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing


def test_refused_grid_sets_fail_each_grid_check_in_its_place(monkeypatch):
    # Each group of grid checks reports the refusal as its own FAILs, under the
    # names and tolerances it reports otherwise; the seeded checks still run.
    plain = verify.run_all(batch=1)

    def refused(scenario):
        raise ValueError("sets refused")

    monkeypatch.setattr(verify, "_grid_sets", refused)
    report = verify.run_all(batch=1)
    assert [(r.name, r.tolerance) for r in report] == [(r.name, r.tolerance) for r in plain]
    failed = [r for r in report if not r.passed]
    assert len(report) == 33 and len(failed) == 18
    assert all(r.residual == math.inf and r.detail == "grid sets refused: sets refused"
               for r in failed)


def test_reports_are_deterministic_and_well_formed():
    first = verify.run_all(batch=5)
    second = verify.run_all(batch=5)
    assert verify.render_text(first) == verify.render_text(second)
    payload = json.loads(verify.render_json(first))
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == len(first)
    # the expansion-convention note travels with the report
    vacuum_checks = [c for c in payload["checks"]
                     if c["name"].startswith("vacuum_expansion_")]
    assert vacuum_checks and all("momentum-reflected" in c["detail"]
                                 for c in vacuum_checks)


def factorization_one_draw_at_a_time(seed, batch):
    """Reference for verify._factorization: every seeded oracle on one draw per call.

    Returns check name -> (residual, detail).
    """
    outcomes = {}
    rng = random.Random(seed)
    worst_unitarity = 0.0
    worst_conjugation = 0.0
    worst_nilpotency = 0.0
    for scenario in Scenario:
        dim = fock.dimension(scenario.n_modes)
        eye = np.eye(dim)
        worst = 0.0
        worst_vacuum = 0.0
        worst_excited = 0.0
        for _ in range(batch):
            coeffs = random_coefficients(scenario, rng)
            theta = theta_from_coefficients(coeffs)
            unitary = unitary_dense(build_generator(theta))
            direct = apply_decoupled(theta, eye)
            worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                direct @ direct.conj().T - eye))))
            worst = max(worst, float(np.max(np.abs(direct - unitary))))
            mu_ref, nu_ref = expected_pair_mixing(coeffs)
            for mode in range(scenario.n_modes):
                mu_row, nu_row = conjugate_mode(unitary, mode)
                worst_conjugation = max(
                    worst_conjugation,
                    float(np.max(np.abs(mu_row - mu_ref[mode]))),
                    float(np.max(np.abs(nu_row - nu_ref[mode]))))
            creation = pair_creation_sum(theta)
            worst_nilpotency = max(worst_nilpotency, float(np.max(np.abs(
                creation @ creation @ creation))))
            if scenario is not Scenario.SPINLESS:
                target = 2.0 * (theta[0, 3] * theta[1, 2] - theta[0, 2] * theta[1, 3])
                worst_nilpotency = max(worst_nilpotency,
                                       abs((creation @ creation)[dim - 1, 0] - target))
            for occupation, expansion in closed_form_expansion(coeffs).items():
                vec = np.zeros(dim, dtype=complex)
                for bits, amplitude in expansion.items():
                    vec[bits] = amplitude
                err = float(np.max(np.abs(unitary[:, occupation] - vec)))
                if occupation == 0:
                    worst_vacuum = max(worst_vacuum, err)
                else:
                    worst_excited = max(worst_excited, err)
        outcomes[f"factorized_vs_dense_{scenario.value}"] = (
            worst, f"{batch} seeded draws x {dim} basis inputs")
        outcomes[f"vacuum_expansion_{scenario.value}"] = (
            worst_vacuum, "single-pair amplitudes carry -a conj(beta); the opposite sign "
                          "variant is the momentum-reflected convention")
        outcomes[f"excited_expansions_{scenario.value}"] = (worst_excited, "")
    outcomes["unitarity_random_batch"] = (worst_unitarity, "")
    outcomes["ladder_conjugation_recovery"] = (worst_conjugation, "")
    outcomes["pair_sum_nilpotency"] = (
        worst_nilpotency, "cube vanishes exactly; square's top coefficient matches")
    return outcomes


# One draw, one full block, and two full blocks with a partial third.
@pytest.mark.parametrize("batch", [1, verify.STACK_BLOCK, 2 * verify.STACK_BLOCK + 5])
def test_stacked_factorization_check_matches_one_draw_at_a_time(batch):
    stacked = verify._factorization(7, batch)
    reference = factorization_one_draw_at_a_time(7, batch)
    assert set(stacked) == set(reference)
    for name, (residual, detail) in reference.items():
        assert (stacked[name].detail, stacked[name].holds) == (detail, True)
        assert abs(stacked[name].residual - residual) <= 1e-15


# Every check of verify with its pinned tolerance, in report order, written
# out here and never read from ``verify.CHECKS``: a tolerance loosened in
# the table, or a check moved, added or dropped, fails the equality test.
UNIT_IDENTITIES = {
    "ladder_anticommutators_4_modes": 1e-14,
    "ladder_anticommutators_2_modes": 1e-14,
    "coefficient_constraints_grid": 1e-12,
    "reduced_coherence_cross_terms": 1e-12,
    "determinant_combination_modulus": 1e-12,
    "generator_scalar_modulus": 1e-12,
    "generator_block_sparsity": 1e-14,
    "mixing_matrix_reconstruction": 1e-12,
    "mixing_matrix_algebra": 1e-12,
    "factorized_vs_dense_charge": 1e-10,
    "factorized_vs_dense_spin-am": 1e-10,
    "factorized_vs_dense_spinless": 1e-10,
    "unitarity_random_batch": 1e-12,
    "ladder_conjugation_recovery": 1e-10,
    "pair_sum_nilpotency": 1e-14,
    "vacuum_expansion_charge": 1e-10,
    "excited_expansions_charge": 1e-10,
    "vacuum_expansion_spin-am": 1e-10,
    "excited_expansions_spin-am": 1e-10,
    "vacuum_expansion_spinless": 1e-10,
    "excited_expansions_spinless": 1e-10,
    "vacuum_entropy_curve_charge": 1e-10,
    "vacuum_entropy_curve_spin-am": 1e-10,
    "vacuum_entropy_curve_spinless": 1e-10,
    "vacuum_entropy_lambda_independence": 1e-10,
    "spinful_spinless_scaling": 1e-12,
    "excited_entropy_catalogue_charge": 1e-10,
    "excited_entropy_catalogue_spin-am": 1e-10,
    "excited_entropy_catalogue_spinless": 1e-10,
    "charge_commutation": 1e-12,
    "angular_momentum_commutation": 1e-12,
    "closed_form_concavity": 1e-12,
    "complementary_reduction_entropy": 1e-10,
}


def test_the_check_table_holds_every_pinned_tolerance_in_report_order():
    table = [(name, tolerance) for name, (tolerance, _) in verify.CHECKS.items()]
    assert table == list(UNIT_IDENTITIES.items())


def test_each_group_returns_the_names_the_table_assigns_to_it():
    assigned = {}
    for name, (_, group) in verify.CHECKS.items():
        assigned.setdefault(group, set()).add(name)
    for group, names in assigned.items():
        outcomes = group(7, 1) if group is verify._factorization else group()
        assert set(outcomes) == names, group.__name__


# The unit tests read these identities from the shared default run instead
# of recomputing them; a check that fails on the real code fails its case.
@pytest.mark.parametrize("name", sorted(UNIT_IDENTITIES))
def test_unit_identities_are_read_from_verify(name, verify_results):
    check = verify_results[name]
    assert check.tolerance == UNIT_IDENTITIES[name]
    assert check.passed, f"{name}: residual {check.residual:.3e}"


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_grid_sets_pair_each_point_with_its_set_lambda_fastest(scenario):
    n, lam, sets = verify._grid_sets(scenario)
    assert verify._grid_sets(scenario)[2] is sets
    assert not n.flags.writeable and not lam.flags.writeable
    lambdas = verify._LAMBDA_GRID if scenario is Scenario.CHARGE_ONLY else [1.0]
    assert n.shape == lam.shape == (len(verify._N_GRID) * len(lambdas),)
    assert list(lam[:len(lambdas)]) == lambdas and not n[:len(lambdas)].any()
    assert n[-1] == scenario.n_max
    for k in range(len(n)):
        single = from_density(scenario, n[k], lam[k], (0.3, -0.8, 1.7, 0.4))
        assert np.array_equal(sets.beta[k], single.beta)
        assert np.array_equal(sets.a[k], single.a)


def test_seed_moves_only_the_seeded_pass():
    seeded = {name for name, (_, group) in verify.CHECKS.items()
              if group is verify._factorization}
    first, second = verify.run_all(seed=0, batch=1), verify.run_all(seed=1, batch=1)
    fixed = [(r.name, r.residual, r.detail) for r in first if r.name not in seeded]
    assert seeded and len(fixed) == len(first) - len(seeded)
    assert fixed == [(r.name, r.residual, r.detail) for r in second if r.name not in seeded]
