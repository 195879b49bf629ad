import json

import numpy as np
import pytest
from numpy.random import default_rng

from cosmopair import cli, fock, verify
from cosmopair.bogoliubov import (
    DOWN,
    UP,
    BogolyubovCoefficients,
    Scenario,
    expected_pair_mixing,
    random_coefficients,
    theta_from_coefficients,
)
from cosmopair.expansions import P_UP, closed_form_expansion
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
    """Reference for verify._check_factorization: every seeded oracle on one draw per call."""
    factorized, expansions = [], []
    rng = default_rng(seed)
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
        factorized.append(verify._result(f"factorized_vs_dense_{scenario.value}", worst, 1e-10,
                                         detail=f"{batch} seeded draws x {dim} basis inputs"))
        expansions.append(verify._result(
            f"vacuum_expansion_{scenario.value}", worst_vacuum, 1e-10,
            detail="single-pair amplitudes carry -a conj(beta); the opposite sign "
                   "variant is the momentum-reflected convention"))
        expansions.append(verify._result(f"excited_expansions_{scenario.value}",
                                         worst_excited, 1e-10))
    return [*factorized,
            verify._result("unitarity_random_batch", worst_unitarity, 1e-12),
            verify._result("ladder_conjugation_recovery", worst_conjugation, 1e-10),
            verify._result("pair_sum_nilpotency", worst_nilpotency, 1e-14,
                           detail="cube vanishes exactly; square's top coefficient matches"),
            *expansions]


@pytest.mark.parametrize("batch", [1, 16, 37])  # 37 ends on a partial block
def test_stacked_factorization_check_matches_one_draw_at_a_time(batch):
    stacked = verify._check_factorization(7, batch)
    reference = factorization_one_draw_at_a_time(7, batch)
    assert len(stacked) == len(reference) == 12
    for got, want in zip(stacked, reference):
        assert (got.name, got.tolerance, got.detail, got.passed) == \
            (want.name, want.tolerance, want.detail, want.passed)
        assert abs(got.residual - want.residual) <= 1e-15


def test_unitarity_random_batch_fails_on_a_perturbed_factorized_route(monkeypatch, capsys):
    # The dense route refuses its own results above 1e-12, so unitarity is read
    # from the factorized one: off by 1e-11, it is reported, not raised.
    real_apply = verify.apply_decoupled
    monkeypatch.setattr(verify, "apply_decoupled",
                        lambda theta, state: real_apply(theta, state) * (1.0 + 1e-11))
    assert cli.main(["verify", "--batch", "2"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  unitarity_random_batch ")


def test_pair_sum_nilpotency_fails_on_a_perturbed_pair_sum(monkeypatch):
    real_sum = verify.pair_creation_sum
    monkeypatch.setattr(verify, "pair_creation_sum",
                        lambda theta: real_sum(theta) * (1.0 + 1e-12))
    results = verify._check_factorization(7, 16)
    assert [r.name for r in results if not r.passed] == ["pair_sum_nilpotency"]


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("occupation, check", [(0, "vacuum_expansion"),
                                               (P_UP, "excited_expansions")],
                         ids=["vacuum", "excited"])
def test_each_expansion_check_fails_on_a_flipped_catalogue_sign(scenario, occupation, check,
                                                                 monkeypatch):
    # The amplitude of the input itself: a**2 or a for the vacuum, a or 1 for
    # one particle.
    real_expansion = verify.closed_form_expansion

    def flipped(coeffs):
        catalogue = real_expansion(coeffs)
        if coeffs.scenario is scenario:
            catalogue[occupation][occupation] = -catalogue[occupation][occupation]
        return catalogue

    monkeypatch.setattr(verify, "closed_form_expansion", flipped)
    results = verify._check_factorization(7, 16)
    assert [r.name for r in results if not r.passed] == [f"{check}_{scenario.value}"]


# Identities the unit tests read from the shared default run instead of
# recomputing them: check name -> pinned tolerance.  A tolerance moved off
# its pin in ``verify``, or a failing check, fails the case of that check.
UNIT_IDENTITIES = {
    "ladder_anticommutators_2_modes": 1e-14,
    "ladder_anticommutators_4_modes": 1e-14,
    "coefficient_constraints_grid": 1e-12,
    "pair_sum_nilpotency": 1e-14,
    **{f"vacuum_expansion_{s.value}": 1e-10 for s in Scenario},
    **{f"excited_expansions_{s.value}": 1e-10 for s in Scenario},
    "angular_momentum_commutation": 1e-12,
    **{f"vacuum_entropy_curve_{s.value}": 1e-10 for s in Scenario},
    "vacuum_entropy_lambda_independence": 1e-10,
    "closed_form_concavity": 1e-12,
    "complementary_reduction_entropy": 1e-10,
}


@pytest.mark.parametrize("name", sorted(UNIT_IDENTITIES))
def test_unit_identities_are_read_from_verify(name, verify_results):
    check = verify_results[name]
    assert check.tolerance == UNIT_IDENTITIES[name]
    assert check.passed, f"{name}: residual {check.residual:.3e}"


def test_spinful_spinless_scaling_fails_on_a_perturbed_spinless_route(monkeypatch):
    # The check compares two evolved states: a spinless route off by 1e-11,
    # which its own curve check at 1e-10 lets through, still fails it.
    real_score = verify.score

    def perturbed(coeffs, occupation, n, lam):
        numeric, closed, gaps = real_score(coeffs, occupation, n, lam)
        if coeffs.scenario is Scenario.SPINLESS:
            numeric = numeric + 1e-11
        return numeric, closed, gaps

    monkeypatch.setattr(verify, "score", perturbed)
    results = {r.name: r for r in verify._check_vacuum_curves()}
    assert results["vacuum_entropy_curve_spinless"].passed
    assert not results["spinful_spinless_scaling"].passed
    assert results["spinful_spinless_scaling"].residual >= 1.9e-11


def test_reduced_coherence_cross_terms_fails_without_the_down_up_phase(monkeypatch):
    real_grid_sets = verify._grid_sets

    def dropped_phase(scenario):
        sets = real_grid_sets(scenario)
        beta = np.array(sets.beta)
        beta[:, DOWN, UP] = np.abs(beta[:, DOWN, UP])
        return BogolyubovCoefficients(scenario, sets.a, beta)

    monkeypatch.setattr(verify, "_grid_sets", dropped_phase)
    results = {r.name: r for r in verify._check_constraints()}
    assert not results["reduced_coherence_cross_terms"].passed
    assert results["reduced_coherence_cross_terms"].residual > 1e-3
