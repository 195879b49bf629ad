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
    from_density,
    random_coefficients,
    theta_from_coefficients,
)
from cosmopair.expansions import A_DOWN, FULL, P_BOTH, P_UP, UP_UP, VAC, closed_form_expansion
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


# (label, input occupation, check, scenarios) whose catalogue sign is flipped.
# One antiparticle down has a catalogue entry in the spinful scenarios only.
CATALOGUE_FLIPS = [("vacuum", 0, "vacuum_expansion", list(Scenario)),
                   ("excited", P_UP, "excited_expansions", list(Scenario)),
                   ("excited-a-down", A_DOWN, "excited_expansions",
                    [Scenario.CHARGE_ONLY, Scenario.CHARGE_AND_ANGULAR_MOMENTUM])]


@pytest.mark.parametrize("occupation, check, scenario", [
    pytest.param(occupation, check, scenario, id=f"{label}-{scenario}")
    for label, occupation, check, scenarios in CATALOGUE_FLIPS for scenario in scenarios])
def test_each_expansion_check_fails_on_a_flipped_catalogue_sign(scenario, occupation, check,
                                                                 monkeypatch):
    # The amplitude of the input itself: a**2 or a for the vacuum, a or 1 for
    # one particle, a for one antiparticle.
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
    "mixing_matrix_reconstruction": 1e-12,
    "mixing_matrix_algebra": 1e-12,
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
        n, lam, sets = real_grid_sets(scenario)
        beta = np.array(sets.beta)
        beta[:, DOWN, UP] = np.abs(beta[:, DOWN, UP])
        return n, lam, BogolyubovCoefficients(scenario, sets.a, beta)

    monkeypatch.setattr(verify, "_grid_sets", dropped_phase)
    results = {r.name: r for r in verify._check_constraints()}
    assert not results["reduced_coherence_cross_terms"].passed
    assert results["reduced_coherence_cross_terms"].residual > 1e-3


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
    seeded = {r.name for r in verify._check_factorization(0, 1)}
    first, second = verify.run_all(seed=0, batch=1), verify.run_all(seed=1, batch=1)
    fixed = [(r.name, r.residual, r.detail) for r in first if r.name not in seeded]
    assert len(seeded) == 12 and len(fixed) == len(first) - 12
    assert fixed == [(r.name, r.residual, r.detail) for r in second if r.name not in seeded]


def rotation(scenario, row, column, angle):
    """Near-identity rotation of the scenario's Fock space joining two basis states."""
    joined = np.eye(fock.dimension(scenario.n_modes))
    joined[row, column], joined[column, row] = -angle, angle
    return joined


# (label, scenario, basis states joined, angle, the one check that fails).
# VAC and P_BOTH differ in charge, VAC and UP_UP in J_z; VAC and FULL share
# both, so only the entanglement moves.
STACK_PERTURBATIONS = [
    ("charge", Scenario.CHARGE_ONLY, VAC, P_BOTH, 1e-11, "charge_commutation"),
    ("jz", Scenario.CHARGE_AND_ANGULAR_MOMENTUM, VAC, UP_UP, 1e-11,
     "angular_momentum_commutation"),
    ("catalogue", Scenario.CHARGE_ONLY, VAC, FULL, 1e-8, "excited_entropy_catalogue_charge"),
]


@pytest.mark.parametrize("scenario, row, column, angle, check", [
    pytest.param(*case, id=label) for label, *case in STACK_PERTURBATIONS])
def test_each_unitary_stack_check_fails_alone_on_a_perturbed_stack(scenario, row, column,
                                                                   angle, check, monkeypatch):
    real_unitary_for = verify.unitary_for

    def perturbed(sets):
        unitaries = real_unitary_for(sets)
        if sets.scenario is scenario:
            unitaries = rotation(scenario, row, column, angle) @ unitaries
        return unitaries

    monkeypatch.setattr(verify, "unitary_for", perturbed)
    results = verify._check_unitary_stacks()
    assert [r.name for r in results if not r.passed] == [check]


def test_complementary_reduction_entropy_fails_alone_on_a_perturbed_antiparticle_half(
        monkeypatch):
    # Both halves of any vector share their nonzero spectrum, so no perturbed
    # stack splits them: the antiparticle reduction is perturbed instead.
    real_entropy = fock.subsystem_entropy

    def perturbed(states, keep):
        entropy = real_entropy(states, keep)
        if tuple(keep) == Scenario.SPINLESS.antiparticle_modes:
            entropy = entropy + 1e-9
        return entropy

    monkeypatch.setattr(fock, "subsystem_entropy", perturbed)
    results = verify._check_unitary_stacks()
    assert [r.name for r in results if not r.passed] == ["complementary_reduction_entropy"]
