import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS, seeded_sets
from cosmopair import entanglement as ent
from cosmopair import fock
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    Scenario,
    check_density,
    from_density,
    theta_from_coefficients,
)
from cosmopair.squeezing import build_generator, unitary_dense, unitary_for

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


def test_entropy_numeric_examples():
    assert ent.entropy_numeric(coeffs(0.0), 0) <= 1e-12
    for scenario in SPINFUL:
        value = ent.entropy_numeric(coeffs(2.0, scenario=scenario), 0)
        assert abs(value - 2.0) <= 1e-10
    value = ent.entropy_numeric(coeffs(1.0, scenario=Scenario.SPINLESS), 0)
    assert abs(value - 1.0) <= 1e-10


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
    # pairs under angular-momentum conservation take the charge-only pair
    # formula at lambda = 1: parallel spins are transparent, antiparallel
    # spins follow the vacuum curve, endpoints included
    cam = Scenario.CHARGE_AND_ANGULAR_MOMENTUM
    assert ent.entropy_excited_closed_form(0b0101, 2.3, 1.0, cam) == 0.0
    value = ent.entropy_excited_closed_form(0b0110, 1.0, 1.0, cam)
    assert abs(value - S_VAC_SPINFUL_N1) <= 1e-14
    for n in (0.0, 0.5, 2.0, 3.5, 4.0):
        assert ent.entropy_excited_closed_form(0b0101, n, 1.0, cam) == 0.0
        assert abs(ent.entropy_excited_closed_form(0b0110, n, 1.0, cam)
                   - ent.entropy_vacuum_closed_form(n, cam)) <= 1e-14
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


@given(n=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
       lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       scenario=st.sampled_from(SPINFUL))
@example(n=0.0, lam=0.5, scenario=Scenario.CHARGE_ONLY)
@example(n=4.0, lam=0.5, scenario=Scenario.CHARGE_ONLY)
@example(n=1e-300, lam=0.0, scenario=Scenario.CHARGE_AND_ANGULAR_MOMENTUM)
@settings(max_examples=60, deadline=None)
def test_spinful_vacuum_entropy_is_twice_the_spinless_one_at_half_the_density(n, lam, scenario):
    """The paper's headline on evolved states: S_spinful(n) = 2 S_spinless(n/2)."""
    spinful = ent.entropy_numeric(coeffs(n, lam, scenario), 0)
    spinless = ent.entropy_numeric(coeffs(n / 2.0, scenario=Scenario.SPINLESS), 0)
    assert abs(spinful - 2.0 * spinless) <= 1e-12


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


def test_closed_form_vacuum_curve_peaks_at_half_filling():
    # Its concavity is verify's closed_form_concavity check.
    for scenario in (Scenario.CHARGE_ONLY, Scenario.SPINLESS):
        grid = [k * scenario.n_max / 40.0 for k in range(41)]
        values = [ent.entropy_vacuum_closed_form(n, scenario) for n in grid]
        assert max(values) == pytest.approx(scenario.n_max / 2.0, abs=1e-12)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_subsystem_entropy_is_the_explicit_partial_trace(scenario):
    # S(particles) = S(antiparticles) is verify's complementary_reduction_entropy check.
    rng = np.random.default_rng(77)
    for _ in range(6):
        n = float(rng.uniform(0, scenario.n_max))
        occupation = int(rng.integers(fock.dimension(scenario.n_modes)))
        evolved = unitary_for(coeffs(n, 0.3, scenario))[:, occupation]
        rho = fock.outer_product(evolved)
        explicit = fock.von_neumann_entropy(
            fock.partial_trace(rho, scenario.particle_modes))
        assert fock.subsystem_entropy(evolved, scenario.particle_modes) == explicit


def sweep_rows(*args) -> list:
    """The rows of ``ent.sweep(*args)``, its blocks flattened in order."""
    return list(itertools.chain.from_iterable(ent.sweep(*args)))


def test_sweep_shapes_and_discrepancies():
    # The grid stops short of n_max = 4: the vacuum curve is symmetric about
    # n_max / 2, so a symmetric grid hides a score that pairs its stack with
    # the catalogue points in reverse order.
    results = sweep_rows(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0, [k * 0.1 for k in range(40)])
    assert len(results) == 40
    assert all(len(row) == 5 for row in results)
    assert max(gap for *_, gap in results) <= 1e-10
    assert all(lam == 1.0 for _, lam, *_ in results)
    results = sweep_rows(Scenario.CHARGE_ONLY, 0b0101, [2.0], [0.25, 0.75])
    assert [(n, lam) for n, lam, *_ in results] == [(2.0, 0.25), (2.0, 0.75)]
    assert all(0.0 <= s <= 2.0 + 1e-12 for _, _, s, _, _ in results)
    # parallel-spin pair under angular-momentum conservation never entangles
    transparent = sweep_rows(Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0b0101,
                             [0.0, 1.0, 2.0, 3.0, 4.0])
    assert max(s for _, _, s, _, _ in transparent) <= 1e-10
    spinless = sweep_rows(Scenario.SPINLESS, 0b11, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert all(0.0 <= s <= 1.0 + 1e-12 for _, _, s, _, _ in spinless)


def test_a_numpy_lambda_grid_gives_the_rows_of_its_list():
    grids = (np.linspace(0.0, 4.0, 3), np.array([0.1, 0.5]))
    assert sweep_rows(Scenario.CHARGE_ONLY, 0b0101, *grids) == \
        sweep_rows(Scenario.CHARGE_ONLY, 0b0101, *(grid.tolist() for grid in grids))


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        ent.sweep(Scenario.CHARGE_ONLY, 0, [1.0], [])
    with pytest.raises(ValueError):
        ent.sweep(Scenario.SPINLESS, 0, [])
    with pytest.raises(ValueError):
        ent.sweep(Scenario.SPINLESS, 0, [3.0])


@pytest.mark.parametrize("scenario", [Scenario.CHARGE_AND_ANGULAR_MOMENTUM, Scenario.SPINLESS])
def test_sweep_refuses_a_lambda_grid_outside_charge_only(scenario):
    # Rows there read lambda = 1, so a given grid would be silently replaced.
    for lambdas in ([5.0], [1.0], []):
        with pytest.raises(ValueError, match="only a charge-only sweep takes a lambda grid"):
            ent.sweep(scenario, 0, [1.0], lambdas)


@pytest.mark.parametrize("n, lam", [(5.0, 0.5), (-0.5, 0.5), (math.nan, 0.5),
                                    (1.0, 1.5), (1.0, math.nan)])
def test_sweep_and_from_density_share_the_range_rule(n, lam):
    with pytest.raises(ValueError) as swept:
        ent.sweep(Scenario.CHARGE_ONLY, 0, [n], [lam])
    with pytest.raises(ValueError) as built:
        from_density(Scenario.CHARGE_ONLY, n, lam=lam)
    assert str(swept.value) == str(built.value)


def grid_order_refusal(densities, lambdas) -> str:
    """The message of the first charge-only point, lambda fastest, that check_density refuses."""
    for n, lam in itertools.product(densities, lambdas):
        try:
            check_density(n, lam, Scenario.CHARGE_ONLY)
        except ValueError as err:
            return str(err)
    raise AssertionError("no point refused")


@pytest.mark.parametrize("densities, lambdas, message", [
    ([5.0, 1.0], [0.5, 1.5], "density 5.0 outside"),
    ([1.0, 5.0], [0.5, 1.5, -1.0], "lambda 1.5 outside"),
    ([1.0, 2.0, -0.5, 5.0], [0.0, 0.5, 1.0], "density -0.5 outside"),
])
def test_sweep_refuses_the_first_bad_point_in_grid_order(densities, lambdas, message):
    with pytest.raises(ValueError, match=message) as swept:
        ent.sweep(Scenario.CHARGE_ONLY, 0, densities, lambdas)
    assert str(swept.value) == grid_order_refusal(densities, lambdas)


def counting_from_density(monkeypatch) -> list:
    """Every ``from_density`` call that the sweep makes, recorded as it is made."""
    built, build = [], ent.from_density
    monkeypatch.setattr(ent, "from_density", lambda *args: built.append(args) or build(*args))
    return built


def test_sweep_refuses_a_bad_input_when_called_before_any_point(monkeypatch):
    built = counting_from_density(monkeypatch)
    # The bad density sits in the third block; the bad occupation is out of range.
    densities = [k * 0.01 for k in range(300)] + [5.0]
    with pytest.raises(ValueError, match="density 5.0 outside"):
        ent.sweep(Scenario.CHARGE_ONLY, 0, densities, [0.0, 1.0])
    with pytest.raises(ValueError, match="occupation 16 out of range for 4 modes"):
        ent.sweep(Scenario.CHARGE_ONLY, 16, [1.0], [0.5])
    assert built == []


def test_taking_the_first_row_builds_only_the_first_block(monkeypatch):
    built = counting_from_density(monkeypatch)
    blocks = ent.sweep(Scenario.CHARGE_ONLY, 0, [k * 0.02 for k in range(201)], [0.0, 0.5, 1.0])
    assert built == []
    first = next(iter(blocks))
    assert first[0][:2] == (0.0, 0.0)
    assert len(built) == ent.SCORE_BLOCK
    # 603 points: four full blocks, then 91.
    assert [len(block) for block in blocks] == [ent.SCORE_BLOCK] * 3 + [91]
    assert len(built) == 603


def test_entropy_numeric_bad_occupation():
    with pytest.raises(ValueError):
        ent.entropy_numeric(coeffs(1.0, scenario=Scenario.SPINLESS), 7)


@pytest.mark.parametrize("block", [1, 7, 16, 32, ent.SCORE_BLOCK])
@pytest.mark.parametrize("scenario, occupation, lambdas", [
    (Scenario.CHARGE_ONLY, 0b0101, [0.0, 0.5, 1.0]),   # 51 points
    (Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 0b1001, None),
    (Scenario.SPINLESS, 0b11, None),
])
def test_sweep_does_not_depend_on_the_block_size(block, scenario, occupation, lambdas,
                                                  monkeypatch):
    """``sweep`` gives the same rows for every block size.

    Each block is one stack and one ``score`` call, made once exactly that
    block's sets have been built, and holds one theta call and one
    catalogue call.  Every size but 1 leaves a partial last block on one
    of the grids (51 = 32 + 19 points).
    """
    densities = [k * scenario.n_max / 16 for k in range(17)]
    expected = sweep_rows(scenario, occupation, densities, lambdas)
    points = [(n, lam) for n, lam, *_ in expected]
    one_at_a_time = [ent.entropy_numeric(coeffs(n, lam, scenario), occupation)
                     for n, lam in points]
    assert [s for _, _, s, _, _ in expected] == one_at_a_time
    assert [s for _, _, _, s, _ in expected] == [
        ent.entropy_excited_closed_form(occupation, n, lam, scenario) for n, lam in points]
    calls, built = [], []
    build, scoring = ent.from_density, ent.score
    monkeypatch.setattr(ent, "from_density", lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(ent, "score", lambda stack, *args: calls.append(
        (stack.a.shape, len(built))) or scoring(stack, *args))
    counted = {"theta_from_coefficients": 0, "entropy_excited_closed_form": 0}

    def counting(name):
        original = getattr(ent, name)

        def wrapper(*args):
            counted[name] += 1
            return original(*args)
        return wrapper

    for name in counted:
        monkeypatch.setattr(ent, name, counting(name))
    monkeypatch.setattr(ent, "SCORE_BLOCK", block)
    assert sweep_rows(scenario, occupation, densities, lambdas) == expected
    starts = range(0, len(expected), block)
    sizes = [min(block, len(expected) - start) for start in starts]
    assert calls == [((size,), start + size) for start, size in zip(starts, sizes)]
    assert counted == dict.fromkeys(counted, len(sizes))


def test_bad_occupations_and_points_are_rejected_before_building_a_unitary(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a unitary was built")

    for name in ("theta_from_coefficients", "build_generator", "unitary_dense"):
        monkeypatch.setattr(ent, name, forbidden)
    stack = BogolyubovCoefficients.stack([coeffs(1.0), coeffs(2.0)])
    for sets, occupation in ((stack, 16), (stack, -1),
                             (coeffs(1.0, scenario=Scenario.SPINLESS), 4)):
        with pytest.raises(ValueError, match="out of range"):
            ent.entropy_numeric(sets, occupation)
    n, lam = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    for bad_n, bad_lam in ((n[:1], lam), (n, np.append(lam, 0.5)), (n[:, np.newaxis], lam),
                           (1.0, 0.5)):
        with pytest.raises(ValueError, match="do not match the coefficient stack"):
            ent.score(stack, 0, bad_n, bad_lam)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_sector_column_equals_the_full_dense_column(scenario):
    """The evolved state from the charge-sector block is the full unitary's column.

    Random sets plus n = n_max, where a = 0, for every input occupation.
    An entry joining the sector to any state of another charge raises, a NaN one too.
    """
    sets = seeded_sets(scenario, 8, seed=71) + [coeffs(scenario.n_max, 0.3, scenario)]
    generators = build_generator(np.array([theta_from_coefficients(c) for c in sets]))
    unitaries = unitary_dense(generators)
    dim = fock.dimension(scenario.n_modes)
    charges = np.diag(fock.charge_operator(scenario.n_modes)).real
    sizes = []
    for occupation in range(dim):
        evolved = ent._evolve_in_sector(generators, occupation)
        assert np.max(np.abs(evolved - unitaries[..., occupation])) <= 1e-12
        sector = np.flatnonzero(charges == charges[occupation])
        sizes.append(len(sector))
        for other, member in zip(np.flatnonzero(charges != charges[occupation]),
                                 itertools.cycle(sector)):
            for (row, col), value in itertools.product(((other, member), (member, other)),
                                                       (1e-3, np.nan)):
                leaky = generators.copy()
                leaky[len(sets) // 2, row, col] = value
                with pytest.raises(ValueError, match="couples the charge sector"):
                    ent._evolve_in_sector(leaky, occupation)
    # The vacuum's sector, then the sizes of all the others.
    assert sizes[0] == (6 if dim == 16 else 2)
    assert set(sizes) == ({6, 4, 1} if dim == 16 else {2, 1})
