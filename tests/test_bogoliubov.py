import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_mu_nu_identity_limit():
    mu, nu = bg.mu_nu_from_theta(np.zeros((4, 4)))
    assert np.allclose(mu, np.eye(4))
    assert np.all(nu == 0.0)


def test_mu_nu_momentum_conserving_midpoint():
    c = coeffs(2.0, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
    mu, _ = bg.mu_nu_from_theta(bg.theta_from_coefficients(c))
    assert np.max(np.abs(mu - np.eye(4) / math.sqrt(2))) <= 1e-12


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


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("rng_seed", [0, 7, 2**32 - 1])
def test_random_coefficients_takes_numpy_and_standard_library_generators(scenario, rng_seed):
    # A numpy Generator gives the sets of the vector draw of the four phases.
    drawn = seeded_sets(scenario, 5, rng_seed)
    rng = np.random.default_rng(rng_seed)
    for got in drawn:
        n = float(rng.uniform(0.0, bg.RANDOM_DENSITY_FRACTION_MAX * scenario.n_max))
        lam = float(rng.uniform(0.0, 1.0))
        phases = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=4))
        want = bg.from_density(scenario, n, lam, phases)
        assert got.a == want.a and np.array_equal(got.beta, want.beta)
    # A random.Random is drawn from the same way, reproducibly.
    first, second = ([bg.random_coefficients(scenario, rng) for _ in range(5)]
                     for rng in (random.Random(rng_seed), random.Random(rng_seed)))
    for one, other in zip(first, second):
        assert one.a == other.a and np.array_equal(one.beta, other.beta)
        assert bg.validate(one).passed


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
    assert stack.a.shape == (2,) and stack.beta.shape == (2, 2, 2)
    assert not stack.a.flags.writeable and not stack.beta.flags.writeable
    assert isinstance(charge.a, float)


@pytest.mark.parametrize("kind", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_a_single_set_keeps_every_refusal_whatever_the_type_of_a(kind):
    beta = coeffs(1.0).beta
    for a in (1.0 + 2e-12, -0.1, math.nan):
        with pytest.raises(ValueError) as err:
            bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, kind(a), beta)
        assert str(err.value) == f"amplitude a={a} outside [0, 1]"
    with pytest.raises(ValueError) as err:
        bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, kind(0.5), beta[np.newaxis])
    assert str(err.value) == "a of shape () does not match the beta stack (1, 2, 2)"
    single = bg.BogolyubovCoefficients(Scenario.CHARGE_ONLY, kind(1.0 + 1e-12), [[0.0] * 2] * 2)
    # A float64 or 0-d array a takes the general path, which stores a Python float too.
    assert type(single.a) is float and single.a == 1.0 + 1e-12
    assert single.beta.dtype == complex and not single.beta.flags.writeable


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
