import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS, seeded_sets
from cosmopair import bogoliubov as bg
from cosmopair.bogoliubov import DOWN, UP, DensityParameters, Scenario


def coeffs(n, lam=0.5, scenario=Scenario.CHARGE_ONLY, phases=(0.0, 0.0, 0.0, 0.0)):
    return bg.from_density(DensityParameters(n=n, lam=lam, phases=phases), scenario)


densities = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
lambdas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


def test_from_density_momentum_conserving_midpoint():
    c = coeffs(2.0, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
    assert abs(c.a**2 - 0.5) <= 1e-15
    assert abs(abs(c.beta[UP, DOWN]) ** 2 - 0.5) <= 1e-15
    assert abs(abs(c.beta[DOWN, UP]) ** 2 - 0.5) <= 1e-15
    assert c.beta[UP, UP] == 0.0 and c.beta[DOWN, DOWN] == 0.0


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_from_density_zero_creation(scenario):
    c = coeffs(0.0, scenario=scenario)
    assert c.a == 1.0
    assert np.all(c.beta == 0.0)


def test_from_density_charge_only_constraint_sum():
    c = coeffs(2.0, lam=0.3)
    assert bg.validate(c).passed
    total = c.a**2 + abs(c.beta[UP, DOWN]) ** 2 + abs(c.beta[UP, UP]) ** 2
    assert abs(total - 1.0) <= 1e-12


def test_from_density_argument_errors():
    with pytest.raises(ValueError):
        coeffs(4.5)
    with pytest.raises(ValueError):
        coeffs(2.5, scenario=Scenario.SPINLESS)
    with pytest.raises(ValueError):
        coeffs(1.0, lam=1.5)


@given(n=densities, lam=lambdas, p=st.tuples(angles, angles, angles, angles))
@settings(max_examples=80, deadline=None)
def test_from_density_always_valid_charge_only(n, lam, p):
    report = bg.validate(coeffs(n, lam, phases=p))
    assert report.passed, report.residuals


@given(n=densities, p=st.tuples(angles, angles, angles, angles))
@settings(max_examples=40, deadline=None)
def test_from_density_always_valid_other_scenarios(n, p):
    assert bg.validate(coeffs(n, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM,
                              phases=p)).passed
    assert bg.validate(coeffs(n / 2.0, scenario=Scenario.SPINLESS, phases=p)).passed


def test_validate_grid():
    for scenario in ALL_SCENARIOS:
        for k in range(17):
            n = 0.25 * k * scenario.n_max / 4.0
            for lam in [0.1 * j for j in range(11)]:
                assert bg.validate(coeffs(n, lam, scenario=scenario)).passed


def test_validate_flags_broken_modulus_pairing():
    c = coeffs(2.0, lam=0.3)
    beta = np.array(c.beta)
    beta[DOWN, DOWN] *= 1.1
    broken = bg.BogolyubovCoefficients(scenario=Scenario.CHARGE_ONLY, a=c.a, beta=beta)
    report = bg.validate(broken)
    assert not report.passed
    assert "modulus_pair_diagonal" in report.failing()


def test_validate_names_nan_residuals_as_failing():
    beta = np.array(coeffs(2.0, lam=0.3).beta)
    beta[DOWN, DOWN] = np.nan
    broken = bg.BogolyubovCoefficients(scenario=Scenario.CHARGE_ONLY, a=0.5, beta=beta)
    report = bg.validate(broken)
    assert not report.passed
    assert "norm_column_down" in report.failing()
    with pytest.raises(ValueError, match="norm_column_down"):
        bg.theta_from_coefficients(broken)


def test_validate_reports_orthogonality_residual():
    beta = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    # orthogonality sum is 0.5*0.2 + 0.2*0.5 = 0.2, deliberately broken
    broken = bg.BogolyubovCoefficients(
        scenario=Scenario.CHARGE_ONLY, a=math.sqrt(1 - 0.29), beta=beta)
    report = bg.validate(broken)
    assert abs(report.residuals["orthogonality_rows"] - 0.2) <= 1e-15
    assert not report.passed


def test_cross_term_identity_vanishes():
    for c in seeded_sets(Scenario.CHARGE_ONLY, 20):
        first, second = bg.cross_term_identity(c)
        assert abs(first) <= 1e-12
        assert abs(second) <= 1e-12
    zero = coeffs(0.0)
    assert bg.cross_term_identity(zero) == (0.0, 0.0)


def test_cross_term_identity_detects_broken_phases():
    c = coeffs(2.0, lam=0.5)
    beta = np.array(c.beta)
    beta[DOWN, UP] = abs(beta[DOWN, UP])  # drop the solved phase
    broken = bg.BogolyubovCoefficients(scenario=Scenario.CHARGE_ONLY, a=c.a, beta=beta)
    first, _ = bg.cross_term_identity(broken)
    assert abs(first) > 1e-3


def test_cross_term_identity_wrong_scenario():
    with pytest.raises(ValueError):
        bg.cross_term_identity(coeffs(1.0, scenario=Scenario.SPINLESS))


def test_determinant_combination_frozen_values():
    # modulus equals |beta_ud|**2 + |beta_uu|**2 = n/4
    assert abs(abs(bg.determinant_combination(coeffs(2.0, lam=0.5))) - 0.5) <= 1e-12
    assert abs(abs(bg.determinant_combination(coeffs(1.0, lam=1.0))) - 0.25) <= 1e-12
    # vanishing diagonal limit: plain product of the off-diagonal moduli
    c = coeffs(2.0, lam=1.0)
    assert abs(abs(bg.determinant_combination(c))
               - abs(c.beta[UP, DOWN] * c.beta[DOWN, UP])) <= 1e-12


@given(n=densities, lam=lambdas, p=st.tuples(angles, angles, angles, angles))
@settings(max_examples=60, deadline=None)
def test_determinant_combination_modulus_identity(n, lam, p):
    c = coeffs(n, lam, phases=p)
    target = abs(c.beta[UP, DOWN]) ** 2 + abs(c.beta[UP, UP]) ** 2
    assert abs(abs(bg.determinant_combination(c)) - target) <= 1e-12


def test_theta_zero_for_no_creation():
    theta = bg.theta_from_coefficients(coeffs(0.0))
    assert np.all(theta == 0.0)


def test_theta_radius_inverts_amplitude():
    c = coeffs(2.0, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
    theta = bg.theta_from_coefficients(c)
    r = bg.squeezing_angle(theta)
    assert abs(r - math.pi / 4) <= 1e-12
    assert abs(math.cos(r) - 1 / math.sqrt(2)) <= 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_theta_scalar_modulus_and_pattern(scenario):
    for c in seeded_sets(scenario, 25, seed=5):
        theta = bg.theta_from_coefficients(c)
        assert np.max(np.abs(theta + theta.T)) <= 1e-14
        r = bg.squeezing_angle(theta)
        assert abs(r - math.acos(min(c.a, 1.0))) <= 1e-12
        gram = theta.conj().T @ theta
        assert np.max(np.abs(gram - r**2 * np.eye(c.n_modes))) <= 1e-12
        if scenario is not Scenario.SPINLESS:
            assert np.max(np.abs(theta[:2, :2])) == 0.0
            assert np.max(np.abs(theta[2:, 2:])) == 0.0
        if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
            assert theta[0, 2] == 0.0 and theta[1, 3] == 0.0


def test_theta_at_full_density_is_well_defined():
    # a = 0 gives radius pi/2; the generator stays finite
    theta = bg.theta_from_coefficients(coeffs(4.0, lam=0.5))
    assert abs(bg.squeezing_angle(theta) - math.pi / 2) <= 1e-12


def test_theta_rejects_invalid_sets():
    broken = bg.BogolyubovCoefficients(
        scenario=Scenario.CHARGE_ONLY, a=0.9,
        beta=np.array([[0.4, 0.1], [0.1, 0.4]], dtype=complex))
    with pytest.raises(ValueError):
        bg.theta_from_coefficients(broken)


def test_mu_nu_identity_limit():
    mu, nu = bg.mu_nu_from_theta(np.zeros((4, 4)))
    assert np.allclose(mu, np.eye(4))
    assert np.all(nu == 0.0)


def test_mu_nu_momentum_conserving_midpoint():
    c = coeffs(2.0, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
    mu, _ = bg.mu_nu_from_theta(bg.theta_from_coefficients(c))
    assert np.max(np.abs(mu - np.eye(4) / math.sqrt(2))) <= 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_mu_nu_round_trip_and_constraints(scenario):
    eye = np.eye(scenario.n_modes)
    for c in seeded_sets(scenario, 25, seed=11):
        theta = bg.theta_from_coefficients(c)
        mu, nu = bg.mu_nu_from_theta(theta)
        mu_ref, nu_ref = bg.expected_pair_mixing(c)
        assert np.max(np.abs(mu - mu_ref)) <= 1e-12
        assert np.max(np.abs(nu - nu_ref)) <= 1e-12
        assert np.max(np.abs(mu @ mu.conj().T + nu @ nu.conj().T - eye)) <= 1e-12
        assert np.max(np.abs(mu @ nu.T + nu @ mu.T)) <= 1e-12


def test_mu_nu_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        bg.mu_nu_from_theta(np.eye(4, dtype=complex))


def test_scenario_tokens():
    assert Scenario("charge") is Scenario.CHARGE_ONLY
    assert Scenario("spin-am") is Scenario.CHARGE_AND_ANGULAR_MOMENTUM
    assert Scenario("spinless") is Scenario.SPINLESS
    with pytest.raises(ValueError):
        Scenario("nope")
