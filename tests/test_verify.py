import json

import numpy as np
import pytest
from numpy.random import default_rng

from cosmopair import fock, verify
from cosmopair.bogoliubov import (
    DOWN,
    UP,
    BogolyubovCoefficients,
    Scenario,
    expected_pair_mixing,
    random_coefficients,
    theta_from_coefficients,
)
from cosmopair.squeezing import apply_decoupled, build_generator, conjugate_mode, unitary_dense


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
    """Reference for verify._check_factorization: every oracle on one draw per call."""
    results = []
    rng = default_rng(seed)
    worst_unitarity = 0.0
    worst_conjugation = 0.0
    for scenario in Scenario:
        dim = fock.dimension(scenario.n_modes)
        eye = np.eye(dim)
        worst = 0.0
        for _ in range(batch):
            coeffs = random_coefficients(scenario, rng)
            theta = theta_from_coefficients(coeffs)
            unitary = unitary_dense(build_generator(theta))
            worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                unitary @ unitary.conj().T - eye))))
            direct = apply_decoupled(theta, eye)
            worst = max(worst, float(np.max(np.abs(direct - unitary))))
            mu_ref, nu_ref = expected_pair_mixing(coeffs)
            for mode in range(scenario.n_modes):
                mu_row, nu_row = conjugate_mode(unitary, mode)
                worst_conjugation = max(
                    worst_conjugation,
                    float(np.max(np.abs(mu_row - mu_ref[mode]))),
                    float(np.max(np.abs(nu_row - nu_ref[mode]))))
        results.append(verify._result(f"factorized_vs_dense_{scenario.value}", worst, 1e-10,
                                      detail=f"{batch} seeded draws x {dim} basis inputs"))
    results.append(verify._result("unitarity_random_batch", worst_unitarity, 1e-12))
    results.append(verify._result("ladder_conjugation_recovery", worst_conjugation, 1e-10))
    return results


@pytest.mark.parametrize("batch", [1, 16, 37])  # 37 ends on a partial block
def test_stacked_factorization_check_matches_one_draw_at_a_time(batch):
    stacked = verify._check_factorization(7, batch)
    reference = factorization_one_draw_at_a_time(7, batch)
    assert len(stacked) == len(reference) == 5
    for got, want in zip(stacked, reference):
        assert (got.name, got.tolerance, got.detail, got.passed) == \
            (want.name, want.tolerance, want.detail, want.passed)
        assert abs(got.residual - want.residual) <= 1e-15


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
