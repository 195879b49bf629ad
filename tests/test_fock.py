import itertools
import math

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


def partial_trace_bit_loop(rho, keep, n_modes):
    """The definition itself: add rho[i, j] to the kept-bit entry when i and j agree off keep."""
    keep = sorted(keep)
    traced_mask = sum(1 << m for m in range(n_modes) if m not in keep)
    dim = 1 << n_modes
    reduced = np.zeros((1 << len(keep), 1 << len(keep)), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if i & traced_mask == j & traced_mask:
                row = sum((i >> m & 1) << k for k, m in enumerate(keep))
                col = sum((j >> m & 1) << k for k, m in enumerate(keep))
                reduced[row, col] += rho[i, j]
    return reduced


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_partial_trace_matches_the_bit_loop_sum_for_every_keep(n_modes):
    rng = np.random.default_rng(700 + n_modes)
    dim = fock.dimension(n_modes)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for size in range(1, n_modes + 1):
        for keep in itertools.combinations(range(n_modes), size):
            reference = partial_trace_bit_loop(rho, keep, n_modes)
            assert np.max(np.abs(fock.partial_trace(rho, keep) - reference)) <= 1e-14


def test_partial_trace_merges_adjacent_modes_into_one_axis():
    # Keeping the low pair of four modes sums one axis of four entries.
    assert fock._trace_plan(4, (1, 0, 1)) == ((4, 4, 4, 4), "abac->bc", 4)


def test_partial_trace_keeping_every_mode_copies():
    rho = fock.outer_product(fock.basis_state(1, 2))
    reduced = fock.partial_trace(rho, [1, 0])
    assert np.array_equal(reduced, rho)
    assert not np.shares_memory(reduced, rho)


def test_partial_trace_reads_keep_in_any_form_and_order():
    rho = fock.outer_product(random_state(16, np.random.default_rng(31)))
    expected = fock.partial_trace(rho, [0, 2])
    for keep in ([2, 0], (0, 2), {2, 0}, (m for m in (2, 0, 2)), [0, 2, 0, 0],
                 np.array([2, 0]), [np.int64(0), np.int32(2)], range(0, 3, 2)):
        assert np.array_equal(fock.partial_trace(rho, keep), expected)
    # Every mode, named in any form, gives a fresh copy on every call.
    for every_mode in (lambda: [3, 2, 1, 0], lambda: (m for m in range(4)), lambda: np.arange(4),
                       lambda: [0, 1, 2, 3, 3]):
        first, second = (fock.partial_trace(rho, every_mode()) for _ in range(2))
        for reduced in (first, second):
            assert np.array_equal(reduced, rho)
            assert not np.shares_memory(reduced, rho)
        assert not np.shares_memory(first, second)


@pytest.mark.parametrize("rho, keep, message", [
    (np.eye(4) / 4, [], "keep must be a nonempty set of modes"),
    (np.eye(4) / 4, set(), "keep must be a nonempty set of modes"),
    (np.eye(4) / 4, [-1], r"keep \[-1\] is not a subset of range\(2\)"),
    (np.eye(4) / 4, [0, -1], r"keep \[-1, 0\] is not a subset of range\(2\)"),
    (np.eye(4) / 4, [2], r"keep \[2\] is not a subset of range\(2\)"),
    (np.eye(4) / 4, np.array([1, 2]), r"keep \[1, 2\] is not a subset of range\(2\)"),
    (np.eye(3) / 3, [0], r"operator shape \(3, 3\) is not \(2\*\*n, 2\*\*n\) with n >= 1"),
    (np.ones((1, 1)), [0], r"operator shape \(1, 1\) is not"),
    (np.ones((4, 2)), [0], r"operator shape \(4, 2\) is not"),
    (np.array([1.0, 0.0]), [0], r"operator shape \(2,\) is not"),
])
def test_partial_trace_refuses_on_every_call(rho, keep, message):
    # The check of keep is cached per (n, keep); a refusal never is.
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            fock.partial_trace(rho, keep)


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
    # An empty stack of states still has keep checked.
    with pytest.raises(ValueError, match="not a subset"):
        fock.subsystem_entropy(np.zeros((0, 16)), [4])


def test_entropy_pure_and_mixed():
    assert fock.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(fock.von_neumann_entropy(np.diag([0.5, 0.5])) - 1.0) <= 1e-14
    # The cap makes the maximally mixed entropy exact.
    assert fock.von_neumann_entropy(np.eye(4) / 4) == 2.0


def test_entropy_of_rounded_pure_state_is_exactly_zero():
    assert fock.von_neumann_entropy(np.diag([1 + 1e-15, -1e-15])) == 0.0


def test_entropy_of_eigenvalues_rejects_entries_outside_unit_interval():
    assert fock.entropy_of_eigenvalues([0.5, 0.5]) == 1.0
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf], [1.5, 0.5], [-1e-3, 1.0]):
        with pytest.raises(ValueError):
            fock.entropy_of_eigenvalues(bad)


def test_an_entry_at_the_eigenvalue_floor_counts_as_zero():
    floor = fock.EIGENVALUE_FLOOR
    assert fock.entropy_of_eigenvalues([floor, 1.0 - floor]) == \
        fock.entropy_of_eigenvalues([0.0, 1.0 - floor])
    above = math.nextafter(floor, 1.0)
    assert fock.entropy_of_eigenvalues([above, 1.0 - floor]) == \
        fock.entropy_of_eigenvalues([0.0, 1.0 - floor]) - above * math.log2(above)


@pytest.mark.parametrize("spectrum", [[1.0, 0.0], [0.0, 1.0], [1.0, fock.EIGENVALUE_FLOOR],
                                      [0.0, 0.0, 1.0, 0.0]])
def test_a_pure_spectrum_has_entropy_plus_zero(spectrum):
    entropy = fock.entropy_of_eigenvalues(spectrum)
    assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
    stacked = fock.entropy_of_eigenvalues([spectrum, spectrum])
    assert np.array_equal(np.copysign(1.0, stacked), [1.0, 1.0])


@pytest.mark.parametrize("stack, first", [
    ([[0.5, 0.5], [0.25, np.nan], [1.5, 0.5]], "nan"),
    ([[0.5, 0.5], [1.5, np.nan], [0.25, 0.75]], "1.5"),
    ([[0.5, -1e-3], [np.nan, 0.5]], "-0.001"),
    ([[0.5, 0.5], [0.5, 0.5], [0.5, np.inf]], "inf"),
], ids=["nan", "above-one-before-a-nan", "negative", "infinite"])
def test_the_entropy_error_names_the_first_bad_entry(stack, first):
    with pytest.raises(ValueError) as err:
        fock.entropy_of_eigenvalues(stack)
    assert str(err.value) == f"eigenvalue {first} outside [0, 1]"


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
