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
    check_theta,
    from_density,
    mu_nu_from_theta,
    random_coefficients,
    squeezing_angle,
    theta_from_coefficients,
)


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
    with pytest.raises(ValueError):
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


def theta_stack(scenario, size, seed):
    return np.array([theta_from_coefficients(c) for c in seeded_sets(scenario, size, seed)])


def full_density_theta(scenario):
    """theta at n = n_max, where cos(r) = a = 0: the dense route only."""
    return theta_from_coefficients(
        from_density(scenario, scenario.n_max, lam=0.5))


def assert_stack_matches_items(fn, stack, *args):
    """fn on a stack equals fn on each item, output by output, within 1e-14."""
    stacked = fn(stack, *args)
    per_item = [fn(item, *args) for item in stack]
    if not isinstance(stacked, tuple):
        stacked, per_item = (stacked,), [(out,) for out in per_item]
    for k, out in enumerate(stacked):
        expected = np.array([item[k] for item in per_item])
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected), initial=0.0) <= 1e-14


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@given(size=st.sampled_from([1, 3, 16]), seed=st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_stacked_calls_equal_per_item_calls(scenario, size, seed):
    thetas = theta_stack(scenario, size, seed)
    dense_thetas = np.concatenate([thetas, full_density_theta(scenario)[np.newaxis]])
    dim = fock.dimension(scenario.n_modes)
    for fn in (check_theta, squeezing_angle, mu_nu_from_theta, sq.pair_creation_sum,
               sq.build_generator):
        assert_stack_matches_items(fn, dense_thetas)
    generators = sq.build_generator(dense_thetas)
    assert_stack_matches_items(sq.unitary_dense, generators)
    unitaries = sq.unitary_dense(generators)
    assert sq.unitarity_residual(unitaries) == max(map(sq.unitarity_residual, unitaries))
    # An empty stack: no items, so no residual.
    assert sq.unitary_dense(generators[:0]).shape == (0, dim, dim)
    assert sq.unitarity_residual(unitaries[:0]) == 0.0
    for mode in range(scenario.n_modes):
        assert_stack_matches_items(sq.conjugate_mode, unitaries, mode)
    states = np.random.default_rng(seed).normal(size=(dim, 3))
    for state in (np.eye(dim), states, states[:, 0]):
        assert_stack_matches_items(sq.apply_decoupled, thetas, state)


def bad_thetas(scenario):
    """Invalid theta items, each with the functions it must break."""
    n = scenario.n_modes
    symmetric = np.ones((n, n), dtype=complex)
    bad = {"not antisymmetric": (symmetric, (check_theta, mu_nu_from_theta,
                                             sq.pair_creation_sum, sq.build_generator)),
           "cos r ~ 0": (full_density_theta(scenario), ()),
           # finite, but theta^dag theta overflows to inf
           "overflowing": (1e200 * full_density_theta(scenario),
                           (squeezing_angle, mu_nu_from_theta)),
           # theta^dag theta finite, but its trace overflows to inf
           "trace overflowing": (7e153 * full_density_theta(scenario),
                                 (squeezing_angle, mu_nu_from_theta))}
    if n == 4:  # every antisymmetric 2x2 matrix has a scalar modulus
        single_pair = np.zeros((4, 4), dtype=complex)
        single_pair[0, 2], single_pair[2, 0] = 0.3, -0.3
        bad["non-scalar modulus"] = (single_pair, (squeezing_angle,))
    return bad


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("size", [1, 3, 16])
def test_bad_item_anywhere_in_a_stack_raises_like_alone(scenario, size):
    good = theta_stack(scenario, size, seed=83)
    eye = np.eye(fock.dimension(scenario.n_modes))

    def decoupled(theta):
        return sq.apply_decoupled(theta, eye)

    for item, breaks in bad_thetas(scenario).values():
        for position in sorted({0, size // 2, size - 1}):
            stack = good.copy()
            stack[position] = item
            for fn in breaks + (decoupled,):
                with pytest.raises(Exception) as alone:
                    fn(item)
                with pytest.raises(type(alone.value)):
                    fn(stack)
    generators = sq.build_generator(good)
    unitaries = sq.unitary_dense(generators)
    hermitian = 1j * generators[0]
    scrambled = np.random.default_rng(89).normal(size=unitaries.shape[1:])
    for fn, stack, item, error in (
            (sq.unitary_dense, generators, hermitian, ValueError),
            (lambda u: sq.conjugate_mode(u, 0), unitaries, scrambled, sq.DecompositionError)):
        for position in sorted({0, size // 2, size - 1}):
            broken = stack.copy()
            broken[position] = item
            for target in (item, broken):
                with pytest.raises(error):
                    fn(target)


def nan_gate_case(name):
    """(call, valid input, finitely broken input) for a gate that must reject NaN.

    The valid input of a stack-aware function is a stack of three items;
    the fock functions take one state or operator.
    """
    thetas = theta_stack(Scenario.CHARGE_ONLY, 3, seed=97)
    symmetric = np.ones((4, 4), dtype=complex)
    generators = sq.build_generator(thetas)
    unitaries = sq.unitary_dense(generators)
    single_pair = np.zeros((4, 4), dtype=complex)
    single_pair[0, 2], single_pair[2, 0] = 0.3, -0.3
    eye = np.eye(16)
    return {
        "check_theta": (check_theta, thetas, symmetric),
        "squeezing_angle": (squeezing_angle, thetas, single_pair),
        "mu_nu_from_theta": (mu_nu_from_theta, thetas, symmetric),
        "apply_decoupled": (lambda t: sq.apply_decoupled(t, eye), thetas, symmetric),
        "unitary_dense": (sq.unitary_dense, generators, 1j * generators[0]),
        "conjugate_mode": (lambda u: sq.conjugate_mode(u, 0), unitaries,
                           np.random.default_rng(89).normal(size=(16, 16))),
        "outer_product": (fock.outer_product, fock.basis_state(5, 4), 2 * fock.basis_state(5, 4)),
        "von_neumann_entropy": (fock.von_neumann_entropy, np.diag([0.5, 0.25, 0.25, 0.0]),
                                np.diag([0.7, 0.7, 0.0, 0.0])),
    }[name]


@pytest.mark.parametrize("name", ["check_theta", "squeezing_angle", "mu_nu_from_theta",
                                  "apply_decoupled", "unitary_dense", "conjugate_mode",
                                  "outer_product", "von_neumann_entropy"])
def test_nan_fails_each_gate_like_a_finite_breach(name):
    fn, valid, broken = nan_gate_case(name)
    fn(valid)
    with pytest.raises(Exception) as finite:
        fn(broken)
    # NaN as a whole input, and as the middle item of a stack (the middle
    # entry or row of a single state or operator).
    alone = np.full_like(np.asarray(broken, dtype=complex), np.nan)
    inside = np.array(valid, dtype=complex)
    inside[len(inside) // 2] = np.nan
    for bad in (alone, inside):
        with pytest.raises(Exception) as caught:
            fn(bad)
        assert type(caught.value) is type(finite.value)


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


def test_decoupled_rejects_non_scalar_modulus():
    theta = np.zeros((4, 4), dtype=complex)
    theta[0, 2], theta[2, 0] = 0.3, -0.3  # single pair only: |theta| not scalar
    with pytest.raises(ValueError):
        sq.apply_decoupled(theta, fock.basis_state(0, 4))


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
