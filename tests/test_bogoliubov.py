import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS, seeded_sets
from cosmopair import bogoliubov as bg
from cosmopair.bogoliubov import DOWN, UP, Scenario


def coeffs(n, lam=0.5, scenario=Scenario.CHARGE_ONLY, phases=(0.0, 0.0, 0.0, 0.0)):
    return bg.from_density(scenario, n, lam=lam, phases=phases)


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
    with pytest.raises(ValueError):
        coeffs(1.0, phases=(0.0, 0.0, 0.0))


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


def test_column_orthogonality_is_the_reduced_coherence_cross_term():
    # conj(du) uu + ud conj(dd) multiplies the spin-coherence entries of the
    # reduced particle operator: it vanishes on valid sets and on the empty one.
    for c in seeded_sets(Scenario.CHARGE_ONLY, 20):
        assert bg.validate(c).residuals["orthogonality_columns"] <= 1e-12
    assert bg.validate(coeffs(0.0)).residuals["orthogonality_columns"] == 0.0
    c = coeffs(2.0, lam=0.5)
    beta = np.array(c.beta)
    beta[DOWN, UP] = abs(beta[DOWN, UP])  # drop the solved phase
    report = bg.validate(bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, c.a, beta))
    assert report.residuals["orthogonality_columns"] > 1e-3
    assert "orthogonality_columns" in report.failing()


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
        assert np.max(np.abs(gram - r**2 * np.eye(c.scenario.n_modes))) <= 1e-12
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


def test_occupation_bit_layout():
    assert Scenario.CHARGE_ONLY.split_occupation(0b0110) == (0b10, 0b01)
    assert Scenario.SPINLESS.split_occupation(0b10) == (0, 1)
    for scenario in ALL_SCENARIOS:
        for occupation in range(1 << scenario.n_modes):
            assert scenario.join_occupation(*scenario.split_occupation(occupation)) == occupation
        for bad in (-1, 1 << scenario.n_modes):
            with pytest.raises(ValueError):
                scenario.split_occupation(bad)


def test_scenario_tokens():
    assert Scenario("charge") is Scenario.CHARGE_ONLY
    assert Scenario("spin-am") is Scenario.CHARGE_AND_ANGULAR_MOMENTUM
    assert Scenario("spinless") is Scenario.SPINLESS
    with pytest.raises(ValueError):
        Scenario("nope")


def random_sets(scenario, size, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return [bg.random_coefficients(scenario, rng) for _ in range(size)]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@given(rng_seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1, 3, 16]))
@settings(max_examples=8, deadline=None)
@seed(1616)
def test_stacked_coefficient_layer_equals_per_item_calls(scenario, rng_seed, size):
    sets = random_sets(scenario, size, rng_seed)
    stack = bg.BogolyubovCoefficients.stack(sets)
    assert stack.a.shape == (size,) and stack.beta.shape == (size, 2, 2)
    report, alone = bg.validate(stack), [bg.validate(c) for c in sets]
    assert report.passed and report.failing() == []
    assert report.names == alone[0].names
    assert np.array_equal(report.table, [r.table for r in alone])
    assert report.worst == max(r.worst for r in alone)
    for name, column in report.residuals.items():
        assert column.tolist() == [r.residuals[name] for r in alone]
    mu, nu = bg.expected_pair_mixing(stack)
    assert np.array_equal(mu, [bg.expected_pair_mixing(c)[0] for c in sets])
    assert np.array_equal(nu, [bg.expected_pair_mixing(c)[1] for c in sets])
    assert np.array_equal(bg.theta_from_coefficients(stack),
                          [bg.theta_from_coefficients(c) for c in sets])


def _with_nan_entry(scenario, a, beta):
    beta[DOWN, DOWN] = np.nan
    return a, beta


def _with_broken_modulus(scenario, a, beta):
    """|dd| moves off |uu| (the spinless |ud| off its normalization) by 0.05."""
    entry = (UP, DOWN) if scenario is Scenario.SPINLESS else (DOWN, DOWN)
    value = beta[entry]
    beta[entry] = value + 0.05 * (value / abs(value) if value else 1.0)
    return a, beta


def _with_amplitude_above_one(scenario, a, beta):
    return 1.5, beta


BREAKS = {"nan entry": _with_nan_entry, "broken modulus pair": _with_broken_modulus,
          "a > 1": _with_amplitude_above_one}


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("kind", BREAKS)
@given(rng_seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1, 3, 16]), data=st.data())
@settings(max_examples=6, deadline=None)
@seed(1617)
def test_one_bad_set_in_a_stack_raises_like_alone(scenario, kind, rng_seed, size, data):
    """The stack raises the message of its first bad set called alone.

    A second bad set after the first, broken the other constraint way
    or with a = 2, must not change the message.
    """
    sets = random_sets(scenario, size, rng_seed)
    a = np.array([c.a for c in sets])
    beta = np.array([c.beta for c in sets])
    first = data.draw(st.integers(0, size - 1), label="first")
    a[first], beta[first] = BREAKS[kind](scenario, a[first], beta[first])
    with pytest.raises(ValueError) as alone:
        bg.theta_from_coefficients(bg.BogolyubovCoefficients(scenario, a[first], beta[first]))
    if first < size - 1:
        second = data.draw(st.integers(first + 1, size - 1), label="second")
        if kind == "a > 1":
            a[second] = 2.0
        else:
            other = "nan entry" if kind == "broken modulus pair" else "broken modulus pair"
            a[second], beta[second] = BREAKS[other](scenario, a[second], beta[second])
    with pytest.raises(ValueError) as stacked:
        bg.theta_from_coefficients(bg.BogolyubovCoefficients(scenario, a, beta))
    assert str(stacked.value) == str(alone.value)
    if kind != "a > 1":
        broken = bg.validate(bg.BogolyubovCoefficients(scenario, a, beta))
        single = bg.validate(bg.BogolyubovCoefficients(scenario, a[first], beta[first]))
        assert not broken.passed and broken.failing() == single.failing() != []


def test_stack_rejects_empty_mixed_and_misshapen_input():
    charge = coeffs(1.0)
    for sets in ([], [charge, coeffs(1.0, scenario=Scenario.SPINLESS)]):
        with pytest.raises(ValueError):
            bg.BogolyubovCoefficients.stack(sets)
    with pytest.raises(ValueError, match="does not match"):
        bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, np.array([0.5, 0.5]), charge.beta)
    with pytest.raises(ValueError, match="2x2"):
        bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, 0.5, np.zeros(4))
    stack = bg.BogolyubovCoefficients.stack([charge, charge])
    assert not stack.a.flags.writeable and not stack.beta.flags.writeable
    assert isinstance(charge.a, float)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_validate_residuals_follow_their_names(scenario):
    """Each named residual is its constraint, written entry by entry, on broken sets."""
    rng = np.random.default_rng(83)
    for _ in range(5):
        a = float(rng.uniform(0.0, 1.0))
        beta = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        residuals = bg.validate(bg.BogolyubovCoefficients(scenario, a, beta)).residuals
        uu, ud, du, dd = beta[UP, UP], beta[UP, DOWN], beta[DOWN, UP], beta[DOWN, DOWN]
        if scenario is Scenario.SPINLESS:
            expected = {"normalization": abs(a**2 + abs(ud) ** 2 - 1.0),
                        "sparsity": abs(uu) + abs(du) + abs(dd)}
        else:
            expected = {
                "norm_column_up": abs(a**2 + abs(uu) ** 2 + abs(du) ** 2 - 1.0),
                "norm_column_down": abs(a**2 + abs(ud) ** 2 + abs(dd) ** 2 - 1.0),
                "norm_row_up": abs(a**2 + abs(uu) ** 2 + abs(ud) ** 2 - 1.0),
                "norm_row_down": abs(a**2 + abs(dd) ** 2 + abs(du) ** 2 - 1.0),
                "modulus_pair_diagonal": abs(abs(uu) - abs(dd)),
                "modulus_pair_offdiagonal": abs(abs(ud) - abs(du)),
                "orthogonality_rows": abs(uu * np.conj(ud) + du * np.conj(dd)),
                "orthogonality_columns": abs(uu * np.conj(du) + ud * np.conj(dd)),
            }
            if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
                expected["sparsity"] = abs(uu) + abs(dd)
        assert residuals.keys() == expected.keys()
        for name, value in expected.items():
            assert residuals[name] == pytest.approx(value, rel=1e-14, abs=1e-15), name
