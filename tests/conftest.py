import numpy as np
import pytest
from hypothesis import settings

# The stack table's equalities assert in a helper module; report their operands.
pytest.register_assert_rewrite("stack_cases")

from cosmopair import verify
from cosmopair.bogoliubov import Scenario, random_coefficients

# Every run draws the same examples, so tier-1 and CI test the same inputs;
# each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

ALL_SCENARIOS = tuple(Scenario)


def seeded_sets(scenario, count, seed=123):
    """Deterministic batch of valid random coefficient sets."""
    rng = np.random.default_rng(seed)
    return [random_coefficients(scenario, rng) for _ in range(count)]


def random_state(dim, rng):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def verify_results():
    """The default ``cosmopair verify`` run (seed 7, 100 draws), by check name."""
    return {r.name: r for r in verify.run_all()}
