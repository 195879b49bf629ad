import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS
from cosmopair import entanglement as ent
from cosmopair import fock, squeezing
from cosmopair.bogoliubov import Scenario, from_density
from cosmopair.squeezing import unitary_for

# Frozen oracle values, evaluated from the defining formulas in extended
# precision and pinned here.
S_VAC_SPINFUL_N1 = 1.6225562489182657
H2_QUARTER = 0.8112781244591328
PAIR_ENTROPY_EIGHTH = 1.201752073385712
PAIR_ENTROPY_LAM01_N2 = 0.34425572556763384
PAIR_ENTROPY_LAM09_N2 = 1.8532243278508327

SPINFUL = (Scenario.CHARGE_ONLY, Scenario.CHARGE_AND_ANGULAR_MOMENTUM)


def coeffs(n, lam=0.5, scenario=Scenario.CHARGE_ONLY):
    return from_density(scenario, n, lam=lam)


def test_vacuum_closed_form_values():
    for scenario in SPINFUL:
        assert ent.entropy_vacuum_closed_form(0.0, scenario) == 0.0
        assert ent.entropy_vacuum_closed_form(4.0, scenario) == 0.0
        assert abs(ent.entropy_vacuum_closed_form(2.0, scenario) - 2.0) <= 1e-14
        assert abs(ent.entropy_vacuum_closed_form(1.0, scenario)
                   - S_VAC_SPINFUL_N1) <= 1e-14
    assert abs(ent.entropy_vacuum_closed_form(1.0, Scenario.SPINLESS) - 1.0) <= 1e-14
    assert ent.entropy_vacuum_closed_form(2.0, Scenario.SPINLESS) == 0.0


def test_vacuum_closed_form_out_of_range():
    with pytest.raises(ValueError):
        ent.entropy_vacuum_closed_form(4.2, Scenario.CHARGE_ONLY)
    with pytest.raises(ValueError):
        ent.entropy_vacuum_closed_form(2.5, Scenario.SPINLESS)


def test_entropy_numeric_examples():
    assert ent.entropy_numeric(coeffs(0.0), 0) <= 1e-12
    for scenario in SPINFUL:
        value = ent.entropy_numeric(coeffs(2.0, scenario=scenario), 0)
        assert abs(value - 2.0) <= 1e-10
    value = ent.entropy_numeric(coeffs(1.0, scenario=Scenario.SPINLESS), 0)
    assert abs(value - 1.0) <= 1e-10


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_vacuum_numeric_matches_closed_form_on_grid(scenario):
    worst = 0.0
    for k in range(41):
        n = k * scenario.n_max / 40.0
        numeric = ent.entropy_numeric(coeffs(n, scenario=scenario), 0)
        worst = max(worst, abs(numeric - ent.entropy_vacuum_closed_form(n, scenario)))
    assert worst <= 1e-10


def test_vacuum_entropy_lambda_independent():
    for n in (0.5, 2.0, 3.5):
        values = [ent.entropy_numeric(coeffs(n, lam=lam), 0)
                  for lam in (0.0, 0.5, 1.0)]
        assert max(values) - min(values) <= 1e-10


def test_excited_closed_form_catalogue_values():
    # double occupancy on one side never entangles
    assert ent.entropy_excited_closed_form(0b0011, 1.7, 0.4,
                                           Scenario.CHARGE_ONLY) == 0.0
    assert ent.entropy_excited_closed_form(0b1100, 3.0, 0.4,
                                           Scenario.CHARGE_ONLY) == 0.0
    # single net charge: one binary entropy
    assert abs(ent.entropy_excited_closed_form(0b0001, 1.0, 0.5,
                                               Scenario.CHARGE_ONLY)
               - H2_QUARTER) <= 1e-14
    # parallel pair under angular-momentum conservation: transparent
    assert ent.entropy_excited_closed_form(
        0b0101, 2.3, 1.0, Scenario.CHARGE_AND_ANGULAR_MOMENTUM) == 0.0
    # antiparallel pair under angular-momentum conservation: vacuum curve
    value = ent.entropy_excited_closed_form(
        0b0110, 1.0, 1.0, Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
    assert abs(value - S_VAC_SPINFUL_N1) <= 1e-14
    # charge-only pairs at the frozen reference points
    assert abs(ent.entropy_excited_closed_form(0b0110, 2.0, 0.5, Scenario.CHARGE_ONLY)
               - PAIR_ENTROPY_EIGHTH) <= 1e-14
    assert abs(ent.entropy_excited_closed_form(0b0110, 2.0, 0.1, Scenario.CHARGE_ONLY)
               - PAIR_ENTROPY_LAM01_N2) <= 1e-14
    assert abs(ent.entropy_excited_closed_form(0b0110, 2.0, 0.9, Scenario.CHARGE_ONLY)
               - PAIR_ENTROPY_LAM09_N2) <= 1e-14
    # spinless catalogue
    assert ent.entropy_excited_closed_form(0b01, 1.3, 0.0, Scenario.SPINLESS) == 0.0
    assert abs(ent.entropy_excited_closed_form(0b11, 1.0, 0.0, Scenario.SPINLESS)
               - 1.0) <= 1e-14


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_excited_catalogue_matches_numeric_everywhere(scenario):
    lambdas = (0.1, 0.5, 0.9) if scenario is Scenario.CHARGE_ONLY else (1.0,)
    densities = [f * scenario.n_max for f in (0.0, 0.15, 0.4, 0.5, 0.8, 1.0)]
    worst = 0.0
    for occupation in range(fock.dimension(scenario.n_modes)):
        for n in densities:
            for lam in lambdas:
                numeric = ent.entropy_numeric(coeffs(n, lam, scenario), occupation)
                closed = ent.entropy_excited_closed_form(occupation, n, lam, scenario)
                worst = max(worst, abs(numeric - closed))
    assert worst <= 1e-10


def test_pair_entropy_matches_logarithmic_grouping():
    # equivalent grouping: 2 - (1+s)log2(1+s) - (1-s)log2(1-s), s = sqrt(1-4q)
    for q in (0.25, 0.2, 0.1, 0.01, 1e-6):
        s = math.sqrt(1 - 4 * q)
        grouped = 2.0 - (1 + s) * math.log2(1 + s) \
            - ((1 - s) * math.log2(1 - s) if s < 1 else 0.0)
        assert abs(ent.pair_state_entropy(q) - grouped) <= 1e-12
    assert ent.pair_state_entropy(0.0) == 0.0


def test_lambda_dependence_of_pair_inputs():
    low = ent.entropy_numeric(coeffs(2.0, lam=0.1), 0b0101)
    high = ent.entropy_numeric(coeffs(2.0, lam=0.9), 0b0101)
    assert abs(low - high) > 0.01
    # antiparallel input swaps the roles of the two channels
    anti_low = ent.entropy_numeric(coeffs(2.0, lam=0.1), 0b0110)
    assert abs(anti_low - high) <= 1e-10


def test_spin_spinless_relation():
    lhs, rhs, residual = ent.spin_spinless_relation(2.0)
    assert (lhs, rhs) == (2.0, 2.0)
    assert residual <= 1e-12
    assert ent.spin_spinless_relation(0.0)[2] <= 1e-15
    lhs, rhs, residual = ent.spin_spinless_relation(3.0)
    assert residual <= 1e-12
    assert abs(lhs - rhs) <= 1e-12


@given(n=st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_spin_spinless_relation_property(n):
    assert ent.spin_spinless_relation(n)[2] <= 1e-12


_PHASE = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@given(scenario=st.sampled_from(ALL_SCENARIOS),
       fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       phases=st.tuples(_PHASE, _PHASE, _PHASE, _PHASE))
@settings(max_examples=60, deadline=None)
# n = 2, lam = 0 reduces to the maximally mixed state; uncapped rounding read 2 + 4e-16
@example(scenario=Scenario.CHARGE_ONLY, fraction=0.5, lam=0.0, phases=(0.0, 0.0, 0.0, 0.0))
def test_entropy_numeric_within_subsystem_bounds(scenario, fraction, lam, phases):
    n = min(fraction * scenario.n_max, scenario.n_max)
    coefficients = from_density(scenario, n, lam=lam, phases=phases)
    bound = len(scenario.particle_modes)
    for occupation in range(fock.dimension(scenario.n_modes)):
        entropy = ent.entropy_numeric(coefficients, occupation)
        assert 0.0 <= entropy <= bound


def test_closed_form_concavity():
    for scenario in (Scenario.CHARGE_ONLY, Scenario.SPINLESS):
        grid = [k * scenario.n_max / 40.0 for k in range(41)]
        values = [ent.entropy_vacuum_closed_form(n, scenario) for n in grid]
        assert max(values) == pytest.approx(scenario.n_max / 2.0, abs=1e-12)
        for k in range(1, 40):
            assert values[k - 1] - 2 * values[k] + values[k + 1] <= 1e-12


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_complementary_reductions_for_evolved_states(scenario):
    rng = np.random.default_rng(77)
    for _ in range(6):
        n = float(rng.uniform(0, scenario.n_max))
        occupation = int(rng.integers(fock.dimension(scenario.n_modes)))
        evolved = unitary_for(coeffs(n, 0.3, scenario))[:, occupation]
        rho = fock.outer_product(evolved)
        explicit = fock.von_neumann_entropy(
            fock.partial_trace(rho, scenario.particle_modes))
        s_particle = fock.subsystem_entropy(evolved, scenario.particle_modes)
        s_anti = fock.subsystem_entropy(evolved, scenario.antiparticle_modes)
        assert s_particle == explicit
        assert abs(s_particle - s_anti) <= 1e-10


def test_sweep_shapes_and_discrepancies():
    results = ent.sweep(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0,
                        [k * 0.1 for k in range(41)])
    assert len(results) == 41
    assert max(r.discrepancy for r in results) <= 1e-10
    assert all(r.lam == 1.0 for r in results)
    results = ent.sweep(Scenario.CHARGE_ONLY, 0b0101, [2.0], [0.25, 0.75])
    assert [r.lam for r in results] == [0.25, 0.75]
    assert all(0.0 <= r.s_numeric <= 2.0 + 1e-12 for r in results)
    # parallel-spin pair under angular-momentum conservation never entangles
    transparent = ent.sweep(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0b0101,
                            [0.0, 1.0, 2.0, 3.0, 4.0])
    assert max(r.s_numeric for r in transparent) <= 1e-10
    spinless = ent.sweep(Scenario.SPINLESS, 0b11, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert all(0.0 <= r.s_numeric <= 1.0 + 1e-12 for r in spinless)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        ent.sweep(Scenario.CHARGE_ONLY, 0, [1.0], [])
    with pytest.raises(ValueError):
        ent.sweep(Scenario.SPINLESS, 0, [])
    with pytest.raises(ValueError):
        ent.sweep(Scenario.SPINLESS, 0, [3.0])


@pytest.mark.parametrize("n, lam", [(5.0, 0.5), (-0.5, 0.5), (math.nan, 0.5),
                                    (1.0, 1.5), (1.0, math.nan)])
def test_sweep_and_from_density_share_the_range_rule(n, lam):
    with pytest.raises(ValueError) as swept:
        ent.sweep(Scenario.CHARGE_ONLY, 0, [n], [lam])
    with pytest.raises(ValueError) as built:
        from_density(Scenario.CHARGE_ONLY, n, lam=lam)
    assert str(swept.value) == str(built.value)


def test_entropy_numeric_bad_occupation():
    with pytest.raises(ValueError):
        ent.entropy_numeric(coeffs(1.0, scenario=Scenario.SPINLESS), 7)


def density_sets(scenario, size, seed, edge):
    """``size`` seeded coefficient sets holding the density edges.

    n = edge * n_max sits at one seeded position and, when there is room,
    the other edge at another; a = 0 at n = n_max, where only the dense
    route works.
    """
    rng = np.random.default_rng(seed)
    fractions = rng.uniform(0.0, 1.0, size)
    positions = rng.permutation(size)[:2]
    fractions[positions] = (edge, 1.0 - edge)[:len(positions)]
    return [from_density(scenario, min(f * scenario.n_max, scenario.n_max),
                         lam=float(rng.uniform(0.0, 1.0)),
                         phases=tuple(rng.uniform(-math.pi, math.pi, 4)))
            for f in fractions]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@given(size=st.sampled_from([1, 15, 16, 17]), seed=st.integers(0, 2**32 - 1),
       edge=st.sampled_from([0.0, 1.0]))
@settings(max_examples=6, deadline=None)
@example(size=1, seed=0, edge=0.0)
@example(size=1, seed=0, edge=1.0)
def test_entropy_numeric_on_a_sequence_equals_the_per_set_calls(scenario, size, seed, edge):
    sets = density_sets(scenario, size, seed, edge)
    for occupation in range(fock.dimension(scenario.n_modes)):
        stacked = ent.entropy_numeric(sets, occupation)
        assert isinstance(stacked, list)
        assert stacked == [ent.entropy_numeric(c, occupation) for c in sets]
    assert isinstance(ent.entropy_numeric(sets[0], 0), float)


@pytest.mark.parametrize("block", [1, 7, 16])
@pytest.mark.parametrize("scenario, occupation, lambdas", [
    (Scenario.CHARGE_ONLY, 0b0101, [0.0, 0.5, 1.0]),   # 51 points
    (Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0b1001, None),
    (Scenario.SPINLESS, 0b11, None),
])
def test_sweep_does_not_depend_on_the_block_size(block, scenario, occupation, lambdas,
                                                  monkeypatch):
    densities = [k * scenario.n_max / 16 for k in range(17)]
    expected = ent.sweep(scenario, occupation, densities, lambdas)
    one_at_a_time = [ent.entropy_numeric(coeffs(r.n, r.lam, scenario), occupation)
                     for r in expected]
    assert [r.s_numeric for r in expected] == one_at_a_time
    calls = []
    numeric = ent.entropy_numeric
    monkeypatch.setattr(ent, "entropy_numeric",
                        lambda sets, occ: calls.append(len(sets)) or numeric(sets, occ))
    monkeypatch.setattr(squeezing, "STACK_BLOCK", block)
    assert ent.sweep(scenario, occupation, densities, lambdas) == expected
    assert calls == [min(block, len(expected) - start)
                     for start in range(0, len(expected), block)]


def test_entropy_numeric_rejects_bad_sequences_before_building_a_unitary(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a unitary was built")

    for name in ("theta_from_coefficients", "build_generator", "unitary_dense"):
        monkeypatch.setattr(ent, name, forbidden)
    charge = [coeffs(1.0), coeffs(2.0)]
    for sets, occupation in (([], 0),
                             (charge + [coeffs(1.0, scenario=Scenario.SPINLESS)], 0),
                             (charge, 16),
                             (charge, -1),
                             (coeffs(1.0, scenario=Scenario.SPINLESS), 4)):
        with pytest.raises(ValueError):
            ent.entropy_numeric(sets, occupation)
