import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from cosmopair import fock


def test_annihilation_single_mode_action():
    f0 = fock.annihilation_operator(0, 2)
    # |10> in mode-bit order is index 1 (mode 0 occupied)
    assert f0[0b00, 0b01] == 1.0
    assert np.all(f0[:, 0b00] == 0.0)


def test_annihilation_jordan_wigner_sign():
    # clearing mode 1 of |11> passes one occupied lower mode -> minus sign
    f1 = fock.annihilation_operator(1, 2)
    assert f1[0b01, 0b11] == -1.0


# 2 and 4 modes are verify's ladder_anticommutators_{2,4}_modes checks.
@pytest.mark.parametrize("n_modes", [3])
def test_anticommutation_relations(n_modes):
    lowering, raising = fock.ladder_operators(n_modes)
    eye = np.eye(fock.dimension(n_modes))
    for i in range(n_modes):
        for j in range(n_modes):
            mixed = lowering[i] @ raising[j] + raising[j] @ lowering[i]
            expected = eye if i == j else np.zeros_like(eye)
            assert np.max(np.abs(mixed - expected)) <= 1e-14
            same = lowering[i] @ lowering[j] + lowering[j] @ lowering[i]
            assert np.max(np.abs(same)) <= 1e-14


def test_annihilation_rejects_bad_mode():
    with pytest.raises(ValueError):
        fock.annihilation_operator(3, 2)
    with pytest.raises(ValueError):
        fock.annihilation_operator(0, 9)


def test_outer_product_vacuum():
    rho = fock.outer_product(fock.basis_state(0, 2))
    assert np.allclose(rho, np.diag([1, 0, 0, 0]))


def test_outer_product_bell_pair():
    state = np.zeros(4, dtype=complex)
    state[0b00] = state[0b11] = 1 / np.sqrt(2)
    rho = fock.outer_product(state)
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[3, 0] - 0.5) < 1e-15
    # purity
    assert np.max(np.abs(rho @ rho - rho)) <= 1e-12


def test_outer_product_rejects_unnormalized():
    with pytest.raises(ValueError):
        fock.outer_product(np.array([1.0, 1.0, 0.0, 0.0]))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_outer_product_random_state_properties(seed):
    state = random_state(16, np.random.default_rng(seed))
    rho = fock.outer_product(state)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


def test_partial_trace_product_state():
    # |1>_p x |0>_a : tracing the second mode leaves a pure occupied mode
    rho = fock.outer_product(fock.basis_state(0b01, 2))
    reduced = fock.partial_trace(rho, [0])
    assert np.allclose(reduced, np.diag([0, 1]))


def test_partial_trace_maximally_entangled():
    state = np.zeros(4, dtype=complex)
    state[0b00] = state[0b11] = 1 / np.sqrt(2)
    reduced = fock.partial_trace(fock.outer_product(state), [0])
    assert np.allclose(reduced, np.diag([0.5, 0.5]))


def test_partial_trace_two_mode_squeezed_half_half():
    # evolved empty state at maximal creation: reduced eigenvalues 1/2, 1/2
    a = 1 / np.sqrt(2)
    state = np.zeros(4, dtype=complex)
    state[0b00], state[0b11] = a, -a
    reduced = fock.partial_trace(fock.outer_product(state), [0])
    eigs = np.linalg.eigvalsh(reduced)
    assert np.allclose(eigs, [0.5, 0.5], atol=1e-12)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_partial_trace_of_product_states(seed):
    rng = np.random.default_rng(seed)
    left = random_state(4, rng)
    right = random_state(4, rng)
    # mode pairing: modes 0,1 vary fastest, so the joint vector interleaves
    joint = np.zeros(16, dtype=complex)
    for hi in range(4):
        for lo in range(4):
            joint[lo | hi << 2] = left[lo] * right[hi]
    reduced = fock.partial_trace(fock.outer_product(joint), [0, 1])
    assert np.max(np.abs(reduced - fock.outer_product(left))) <= 1e-12


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_complementary_reductions_share_entropy(seed):
    state = random_state(16, np.random.default_rng(seed))
    rho = fock.outer_product(state)
    s_low = fock.von_neumann_entropy(fock.partial_trace(rho, [0, 1]))
    s_high = fock.von_neumann_entropy(fock.partial_trace(rho, [2, 3]))
    assert abs(s_low - s_high) <= 1e-10


def _scatter_bits(value, positions):
    out = 0
    for j, pos in enumerate(positions):
        if value >> j & 1:
            out |= 1 << pos
    return out


def partial_trace_block_sum(rho, keep, n_modes):
    """Brute-force reference: sum the kept-mode blocks over every traced pattern."""
    keep = sorted(keep)
    rest = [m for m in range(n_modes) if m not in keep]
    dim_keep = 1 << len(keep)
    reduced = np.zeros((dim_keep, dim_keep), dtype=complex)
    kept_base = np.array([_scatter_bits(k, keep) for k in range(dim_keep)])
    for rb in range(1 << len(rest)):
        idx = kept_base | _scatter_bits(rb, rest)
        reduced += rho[np.ix_(idx, idx)]
    return reduced


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_partial_trace_matches_block_sum_reference(n_modes):
    rng = np.random.default_rng(500 + n_modes)
    dim = fock.dimension(n_modes)
    for _ in range(3):
        # neither Hermitian nor unit trace: the map is linear on any matrix
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for size in range(1, n_modes + 1):
            for keep in itertools.combinations(range(n_modes), size):
                reduced = fock.partial_trace(rho, keep)
                reference = partial_trace_block_sum(rho, keep, n_modes)
                assert reduced.shape == reference.shape
                assert np.max(np.abs(reduced - reference)) <= 1e-14


def test_partial_trace_keeping_every_mode_copies():
    rho = fock.outer_product(fock.basis_state(1, 2))
    reduced = fock.partial_trace(rho, [1, 0])
    assert np.array_equal(reduced, rho)
    assert not np.shares_memory(reduced, rho)


def test_partial_trace_argument_errors():
    rho = fock.outer_product(fock.basis_state(0, 2))
    with pytest.raises(ValueError):
        fock.partial_trace(rho, [])
    with pytest.raises(ValueError):
        fock.partial_trace(rho, [2])
    # The mode count is read from the shape: only (2**n, 2**n) with n >= 1 passes.
    for bad in (np.eye(3) / 3, np.array([1.0, 0.0]), np.ones((1, 1))):
        with pytest.raises(ValueError):
            fock.partial_trace(bad, [0])
    with pytest.raises(ValueError):
        fock.subsystem_entropy(np.full(6, 1 / np.sqrt(6)), [0])


def test_entropy_pure_and_mixed():
    assert fock.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(fock.von_neumann_entropy(np.diag([0.5, 0.5])) - 1.0) <= 1e-14
    assert abs(fock.von_neumann_entropy(np.diag([0.25] * 4)) - 2.0) <= 1e-14


def test_entropy_of_rounded_pure_state_is_exactly_zero():
    assert fock.von_neumann_entropy(np.diag([1 + 1e-15, -1e-15])) == 0.0


def test_entropy_validates_input():
    with pytest.raises(ValueError):
        fock.von_neumann_entropy(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        fock.von_neumann_entropy(np.diag([0.7, 0.7]))


def test_entropy_of_eigenvalues_rejects_entries_outside_unit_interval():
    assert fock.entropy_of_eigenvalues([0.5, 0.5]) == 1.0
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf], [1.5, 0.5], [-1e-3, 1.0]):
        with pytest.raises(ValueError):
            fock.entropy_of_eigenvalues(bad)


@given(seed=st.integers(0, 2**31), keep_mask=st.integers(1, 14))
@settings(max_examples=25, deadline=None)
def test_entropy_bounds(seed, keep_mask):
    keep = [m for m in range(4) if keep_mask >> m & 1]
    state = random_state(16, np.random.default_rng(seed))
    reduced = fock.partial_trace(fock.outer_product(state), keep)
    entropy = fock.von_neumann_entropy(reduced)
    assert -1e-12 <= entropy <= len(keep) + 1e-12


def test_charge_and_spin_operators_are_diagonal():
    charge = fock.charge_operator(4)
    assert charge[0b0001, 0b0001] == 1.0
    assert charge[0b0100, 0b0100] == -1.0
    assert charge[0b0101, 0b0101] == 0.0
    jz = fock.spin_z_operator()
    assert jz[0b0001, 0b0001] == 0.5
    assert jz[0b0101, 0b0101] == 1.0
    assert jz[0b1001, 0b1001] == 0.0

    def bit_loop(weights):
        dim = fock.dimension(len(weights))
        return np.diag([sum(w for mode, w in enumerate(weights) if bits >> mode & 1)
                        for bits in range(dim)]).astype(complex)

    for half in (1, 2, 3):
        assert np.array_equal(fock.charge_operator(2 * half),
                              bit_loop((1,) * half + (-1,) * half))
    assert np.array_equal(jz, bit_loop((0.5, -0.5, 0.5, -0.5)))


def reduced_stack(shape, rng):
    """Reduced two-mode operators of random four-mode pure states, stacked to shape."""
    states = [random_state(16, rng) for _ in range(int(np.prod(shape)))]
    return np.array([fock.partial_trace(fock.outer_product(s), [0, 1])
                     for s in states]).reshape(*shape, 4, 4)


@given(seed=st.integers(0, 2**31), shape=st.sampled_from([(1,), (3,), (16,), (2, 3)]))
@settings(max_examples=12, deadline=None)
def test_stacked_density_functions_equal_per_item_calls(seed, shape):
    rng = np.random.default_rng(seed)
    states = np.array([random_state(16, rng) for _ in range(int(np.prod(shape)))])
    states = states.reshape(*shape, 16)
    rhos = reduced_stack(shape, rng)
    # A pure and a maximally mixed item: the clip and the cap of each entropy.
    rhos.reshape(-1, 4, 4)[0] = np.diag([1.0, 0.0, 0.0, 0.0])
    rhos.reshape(-1, 4, 4)[-1] = np.eye(4) / 4
    flat_states, flat_rhos = states.reshape(-1, 16), rhos.reshape(-1, 4, 4)
    assert np.array_equal(fock.outer_product(states),
                          np.array([fock.outer_product(s) for s in flat_states])
                          .reshape(*shape, 16, 16))
    eigs = fock.validate_density_operator(rhos)
    assert eigs.shape == (*shape, 4)
    assert np.array_equal(eigs.reshape(-1, 4),
                          [fock.validate_density_operator(r) for r in flat_rhos])
    clipped = np.clip(eigs, 0.0, 1.0)
    entropies = fock.entropy_of_eigenvalues(clipped)
    assert entropies.shape == shape
    assert entropies.ravel().tolist() == [fock.entropy_of_eigenvalues(e)
                                          for e in clipped.reshape(-1, 4)]
    stacked = fock.von_neumann_entropy(rhos)
    assert stacked.shape == shape
    per_item = [fock.von_neumann_entropy(r) for r in flat_rhos]
    assert all(isinstance(s, float) for s in per_item)
    assert stacked.ravel().tolist() == per_item
    assert per_item[-1] == 2.0 and (len(per_item) == 1 or per_item[0] == 0.0)
    subsystem = fock.subsystem_entropy(states, [0, 1])
    assert subsystem.shape == shape
    per_state = [fock.subsystem_entropy(s, [0, 1]) for s in flat_states]
    assert all(isinstance(s, float) for s in per_state)
    assert subsystem.ravel().tolist() == per_state
    # An empty stack, with or without further leading axes, gives no entropies.
    for empty_states in (flat_states[:0], states[..., :0, :]):
        expected_shape = empty_states.shape[:-1]
        assert fock.subsystem_entropy(empty_states, [0, 1]).shape == expected_shape
        assert fock.von_neumann_entropy(fock.outer_product(empty_states)).shape == expected_shape
    with pytest.raises(ValueError, match="not a subset"):
        fock.subsystem_entropy(flat_states[:0], [4])


def test_stacked_entropy_clips_and_caps_each_item():
    # Rounding puts one eigenvalue above 1 in the first item, and the
    # unclipped sum of the second above log2(2) = 1.
    below_half = 0.5 - 1e-13
    assert fock.entropy_of_eigenvalues([below_half, below_half]) > 1.0
    rhos = np.array([np.diag([1 + 1e-15, -1e-15]), np.diag([below_half, below_half]),
                     np.diag([0.3, 0.7])])
    entropies = fock.von_neumann_entropy(rhos)
    assert entropies[0] == 0.0 and entropies[1] == 1.0
    assert entropies.tolist() == [fock.von_neumann_entropy(r) for r in rhos]


BAD_OPERATORS = {
    "nan entry": np.diag([0.5, 0.5, np.nan, 0.0]),
    "not hermitian": np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 0.1), 1),
    "trace 0.9": np.diag([0.5, 0.4, 0.0, 0.0]),
    "negative eigenvalue": np.diag([0.6, 0.5, -0.1, 0.0]),
}
BAD_STATES = {"nan entry": np.full(16, np.nan), "norm 2": 2 * fock.basis_state(5, 4)}
BAD_SPECTRA = {"nan entry": [0.5, np.nan, 0.5, 0.0], "negative": [0.6, 0.5, -0.1, 0.0],
               "above one": [1.5, -0.5, 0.0, 0.0]}


@pytest.mark.parametrize("size", [1, 3, 16])
def test_one_bad_item_in_a_stack_raises_like_alone(size):
    rng = np.random.default_rng(61)
    good_rhos = reduced_stack((size,), rng)
    good_states = np.array([random_state(16, rng) for _ in range(size)])
    good_spectra = np.clip(fock.validate_density_operator(good_rhos), 0.0, 1.0)
    cases = [(fn, good_rhos, bad) for fn in (fock.validate_density_operator,
                                             fock.von_neumann_entropy)
             for bad in BAD_OPERATORS.values()]
    cases += [(fn, good_states, bad)
              for fn in (fock.outer_product, lambda states: fock.subsystem_entropy(states, [0, 1]))
              for bad in BAD_STATES.values()]
    cases += [(fock.entropy_of_eigenvalues, good_spectra, bad) for bad in BAD_SPECTRA.values()]
    for fn, good, bad in cases:
        with pytest.raises(ValueError) as alone:
            fn(bad)
        for position in sorted({0, size // 2, size - 1}):
            stack = good.copy()
            stack[position] = bad
            with pytest.raises(ValueError) as stacked:
                fn(stack)
            assert str(stacked.value) == str(alone.value)
