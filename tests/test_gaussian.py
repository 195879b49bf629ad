"""The Gaussian-correlation entropy against the dense numeric route."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS
from cosmopair import entanglement as ent
from cosmopair import fock
from cosmopair.bogoliubov import BogolyubovCoefficients, Scenario, from_density, random_coefficients
from gaussian import entropy_gaussian


def assert_routes_agree(stack, occupations):
    for occupation in occupations:
        gap = entropy_gaussian(stack, occupation) - ent.entropy_numeric(stack, occupation)
        assert np.max(np.abs(gap)) <= 1e-12, occupation


@given(scenario=st.sampled_from(ALL_SCENARIOS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_the_gaussian_entropy_equals_the_numeric_one(scenario, seed):
    rng = np.random.default_rng(seed)
    stack = BogolyubovCoefficients.stack(random_coefficients(scenario, rng) for _ in range(16))
    assert_routes_agree(stack, range(fock.dimension(scenario.n_modes)))


def test_the_gaussian_entropy_on_the_benchmark_s_charge_grid():
    # The 4411 points of `sweep --scenario charge --n 0:4:0.01 --lambda 0:1:0.1`.
    points = itertools.product([0.01 * k for k in range(401)], [0.1 * k for k in range(11)])
    stack = BogolyubovCoefficients.stack(
        from_density(Scenario.CHARGE_ONLY, n, lam) for n, lam in points)
    assert_routes_agree(stack, (0, 0b0101, 0b1001))   # vac, up.up and up.down


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_the_gaussian_entropy_at_the_edges(scenario):
    # n = 0 and n = n_max, where a = 0, at lambda = 0 and 1, with random phases.
    phases = np.random.default_rng(3).uniform(-np.pi, np.pi, 4)
    stack = BogolyubovCoefficients.stack(
        from_density(scenario, n, lam, phases) for n in (0.0, scenario.n_max) for lam in (0.0, 1.0))
    assert stack.a.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert_routes_agree(stack, range(fock.dimension(scenario.n_modes)))
    # The vacuum at half filling: 1 bit per particle mode, not half of that.
    half = from_density(scenario, scenario.n_max / 2, 0.5)
    assert entropy_gaussian(half, 0) == pytest.approx(len(scenario.particle_modes), abs=1e-12)
