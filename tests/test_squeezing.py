import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS, seeded_sets
from cosmopair import fock
from cosmopair import squeezing as sq
from cosmopair.bogoliubov import (
    DOWN,
    UP,
    Scenario,
    from_density,
    mu_nu_from_theta,
    random_coefficients,
    squeezing_angle,
    theta_from_coefficients,
)
from stack_cases import full_density_theta, theta_stack


def spinless_theta(value):
    return np.array([[0.0, value], [-value, 0.0]], dtype=complex)


def test_generator_zero():
    assert np.all(sq.build_generator(np.zeros((4, 4))) == 0.0)


def test_generator_spinless_matches_pair_operators():
    theta = spinless_theta(0.3)
    lowering, raising = fock.ladder_operators(2)
    expected = 0.3 * raising[0] @ raising[1] + 0.3 * lowering[0] @ lowering[1]
    assert np.max(np.abs(sq.build_generator(theta) - expected)) <= 1e-15


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_generator_anti_hermitian(scenario):
    for coeffs in seeded_sets(scenario, 10, seed=3):
        gen = sq.build_generator(theta_from_coefficients(coeffs))
        assert np.max(np.abs(gen + gen.conj().T)) <= 1e-14


def test_generator_rejects_symmetric_input():
    with pytest.raises(ValueError, match="^theta must be antisymmetric$"):
        sq.build_generator(np.ones((4, 4)))


def test_unitary_identity():
    assert np.allclose(sq.unitary_dense(np.zeros((16, 16))), np.eye(16))


def test_unitary_spinless_rotation_block():
    unitary = sq.unitary_dense(sq.build_generator(spinless_theta(math.pi / 4)))
    assert abs(unitary[0, 0] - math.cos(math.pi / 4)) <= 1e-12
    assert abs(unitary[0b11, 0] - math.sin(math.pi / 4)) <= 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_unitary_columns_orthonormal(scenario):
    for coeffs in seeded_sets(scenario, 10, seed=17):
        unitary = sq.unitary_for(coeffs)
        eye = np.eye(unitary.shape[0])
        assert np.max(np.abs(unitary.conj().T @ unitary - eye)) <= 1e-12


def test_conjugate_mode_identity_unitary():
    mu_row, nu_row = sq.conjugate_mode(np.eye(16, dtype=complex), 2)
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.allclose(mu_row, expected)
    assert np.max(np.abs(nu_row)) <= 1e-14


def test_conjugate_mode_spinless_mixing():
    coeffs = from_density(Scenario.SPINLESS, 0.8, phases=(0.3, 0, 0, 0))
    unitary = sq.unitary_for(coeffs)
    mu_row, nu_row = sq.conjugate_mode(unitary, 0)
    assert abs(mu_row[0] - coeffs.a) <= 1e-12
    assert abs(nu_row[1] - np.conj(coeffs.beta[UP, DOWN])) <= 1e-12


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_decoupled_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    scenario = Scenario.CHARGE_ONLY
    theta = theta_from_coefficients(random_coefficients(scenario, rng))
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    vec /= np.linalg.norm(vec)
    out = sq.apply_decoupled(theta, vec)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_decoupled_block_matches_columns_and_dense_oracle(scenario):
    rng = np.random.default_rng(211)
    dim = fock.dimension(scenario.n_modes)
    for _ in range(8):
        theta = theta_from_coefficients(random_coefficients(scenario, rng))
        block = sq.apply_decoupled(theta, np.eye(dim))
        assert block.shape == (dim, dim)
        columns = np.column_stack([
            sq.apply_decoupled(theta, fock.basis_state(k, scenario.n_modes))
            for k in range(dim)])
        assert np.max(np.abs(block - columns)) <= 1e-14
        unitary = sq.unitary_dense(sq.build_generator(theta))
        assert np.max(np.abs(block - unitary)) <= 1e-10
        states = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        out = sq.apply_decoupled(theta, states)
        assert out.shape == (dim, 3)
        for k in range(3):
            assert np.max(np.abs(out[:, k] - sq.apply_decoupled(theta, states[:, k]))) \
                <= 1e-14


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_decoupled_rejects_mismatched_shapes(scenario):
    theta = theta_from_coefficients(seeded_sets(scenario, 1, seed=5)[0])
    dim = fock.dimension(scenario.n_modes)
    for shape in ((dim + 1,), (dim + 1, 2), (dim, 2, 2)):
        with pytest.raises(ValueError):
            sq.apply_decoupled(theta, np.zeros(shape))


def generator_cases():
    """One theta, a seeded stack per scenario, zero thetas and a = 0 thetas."""
    yield spinless_theta(0.3)
    for scenario in ALL_SCENARIOS:
        n = scenario.n_modes
        yield theta_stack(scenario, 16, seed=101)
        yield np.zeros((n, n))
        yield np.zeros((3, n, n))
        yield full_density_theta(scenario)
        yield np.stack([full_density_theta(scenario), *theta_stack(scenario, 2, seed=103)])


@pytest.mark.parametrize("theta", list(generator_cases()))
def test_generator_is_the_pair_sum_minus_its_adjoint_entry_for_entry(theta):
    gen = sq.build_generator(theta)
    create = sq.pair_creation_sum(theta)
    assert gen.shape == create.shape
    assert np.array_equal(gen, create - create.conj().swapaxes(-1, -2))
    assert np.array_equal(gen, -gen.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_overflowing_theta_raises_without_numpy_warnings(scenario):
    huge = 1e200 * full_density_theta(scenario)
    stack = theta_stack(scenario, 3, seed=97)
    stack[1] = huge
    eye = np.eye(fock.dimension(scenario.n_modes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (huge, stack):
            for fn in (squeezing_angle, mu_nu_from_theta, lambda t: sq.apply_decoupled(t, eye)):
                with pytest.raises(ValueError, match="not finite|overflows"):
                    fn(theta)


def test_decoupled_breaks_down_at_vanishing_cosine():
    coeffs = from_density(Scenario.CHARGE_ONLY, 4.0, lam=0.5)
    theta = theta_from_coefficients(coeffs)
    with pytest.raises(ValueError):
        sq.apply_decoupled(theta, fock.basis_state(0, 4))
    # the dense route stays exact at the same point
    unitary = sq.unitary_for(coeffs)
    assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(16))) <= 1e-12


def test_pair_sum_nilpotency():
    for scenario in ALL_SCENARIOS:
        for coeffs in seeded_sets(scenario, 5, seed=41):
            creation = sq.pair_creation_sum(theta_from_coefficients(coeffs))
            assert np.max(np.abs(creation @ creation @ creation)) == 0.0


def test_transparent_states_pass_through():
    # double occupancy on one side evolves into itself in both spinful scenarios
    for scenario in (Scenario.CHARGE_ONLY, Scenario.CHARGE_AND_ANGULAR_MOMENTUM):
        for coeffs in seeded_sets(scenario, 5, seed=67):
            assert abs(sq.unitary_for(coeffs)[0b0011, 0b0011] - 1.0) <= 1e-12
    for coeffs in seeded_sets(Scenario.SPINLESS, 5, seed=67):
        assert abs(sq.unitary_for(coeffs)[0b01, 0b01] - 1.0) <= 1e-12


def test_full_state_momentum_conserving_expansion():
    coeffs = from_density(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 1.4,
                          phases=(0.0, 0.7, -0.2, 0.0))
    theta = theta_from_coefficients(coeffs)
    state = sq.apply_decoupled(theta, fock.basis_state(0b1111, 4))
    b = coeffs.beta
    assert abs(state[0b0000] - b[UP, DOWN] * b[DOWN, UP]) <= 1e-12
    assert abs(state[0b1001] - coeffs.a * b[DOWN, UP]) <= 1e-12
    assert abs(state[0b0110] - coeffs.a * b[UP, DOWN]) <= 1e-12
    assert abs(state[0b1111] - coeffs.a ** 2) <= 1e-12
