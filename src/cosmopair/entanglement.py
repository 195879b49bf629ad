"""Particle-antiparticle entanglement entropies, numeric and closed form.

The numeric route evolves an occupation state with the dense squeezing
unitary, traces out the antiparticle modes and diagonalizes the reduced
operator.  The closed forms cover the vacuum in all scenarios and the
full excited-state catalogue; wherever both exist the numeric value is
authoritative and the sweep records the discrepancy.

``entropy_numeric`` takes one coefficient set or a sequence of sets from
one scenario.  A sequence shares one stacked generator and one stacked
eigendecomposition; the partial trace and the reduced spectrum still run
once per set.  ``sweep`` walks its grid in grid order and hands the
numeric route blocks of ``squeezing.STACK_BLOCK`` points; the closed
forms are evaluated point by point.

All entropies are in bits.  The excited catalogue for four modes hinges
on the particle-antiparticle charge of the input:

* |charge| = 2: no entanglement is generated.
* |charge| = 1: a single binary entropy of n/4.
* charge = 0 with zero, two-and-two occupation: the vacuum expression.
* charge = 0 with one particle and one antiparticle: scenario dependent;
  under angular-momentum conservation parallel spins give zero and
  antiparallel spins the vacuum expression, while the charge-only case
  depends on lambda through a two-pair spectrum {q, q, mu+, mu-} with
  q = (1-lambda) n (4-n)/16 for parallel and q = lambda n (4-n)/16 for
  antiparallel spins.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from cosmopair import fock, squeezing
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    Scenario,
    check_density,
    from_density,
    theta_from_coefficients,
)
from cosmopair.squeezing import build_generator, unitary_dense

__all__ = [
    "EntropyResult",
    "binary_entropy",
    "entropy_excited_closed_form",
    "entropy_numeric",
    "entropy_vacuum_closed_form",
    "pair_state_entropy",
    "spin_spinless_relation",
    "sweep",
]


def _within(x: float, upper: float, what: str) -> float:
    """x clamped into [0, upper]; raises unless x lies within 1e-12 of it."""
    if not -1e-12 <= x <= upper + 1e-12:
        raise ValueError(f"{what} {x} outside [0, {upper}]")
    return min(max(x, 0.0), upper)


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x) with the 0 log 0 = 0 rule."""
    x = _within(x, 1.0, "binary entropy argument")
    return fock.entropy_of_eigenvalues((x, 1.0 - x))


def pair_state_entropy(q: float) -> float:
    """Entropy of the reduced spectrum {q, q, mu+, mu-}, q in [0, 1/4].

    mu_pm = ((1 pm s)/2)**2 with s = sqrt(1 - 4q).  Equals the
    logarithmic grouping 2 - (1+s) log2(1+s) - (1-s) log2(1-s), which
    stays finite at q = 0 where the naive -log2(q) form degenerates.
    """
    q = _within(q, 0.25, "pair entropy argument")
    s = math.sqrt(max(1.0 - 4.0 * q, 0.0))
    return fock.entropy_of_eigenvalues((q, q, ((1 + s) / 2) ** 2, ((1 - s) / 2) ** 2))


def entropy_vacuum_closed_form(n: float, scenario: Scenario) -> float:
    """Closed-form vacuum entanglement entropy at created density n."""
    n = _within(n, scenario.n_max, "density")
    if scenario is Scenario.SPINLESS:
        return binary_entropy(n / 2.0)
    return 2.0 * binary_entropy(n / 4.0)


def entropy_numeric(coeffs: BogolyubovCoefficients | Sequence[BogolyubovCoefficients],
                    occupation: int) -> float | list[float]:
    """Partial-trace entropy of an evolved occupation state.

    Evolves through the dense unitary (exact for every amplitude
    including a = 0), forms the pure density operator and traces out the
    antiparticle modes.

    One coefficient set gives one float.  A nonempty sequence of sets
    from one scenario gives one entropy per set, in order, each equal to
    the single-set call: the generators and unitaries are built as one
    stack, and each evolved column then goes through
    ``fock.subsystem_entropy`` on its own.  An empty sequence, mixed
    scenarios or an out-of-range occupation raise ValueError before any
    unitary is built.
    """
    single = isinstance(coeffs, BogolyubovCoefficients)
    sets = [coeffs] if single else list(coeffs)
    if not sets:
        raise ValueError("entropy_numeric needs at least one coefficient set")
    scenario = sets[0].scenario
    if any(c.scenario is not scenario for c in sets):
        raise ValueError("coefficient sets of one call must share a scenario")
    n_modes = scenario.n_modes
    if not 0 <= occupation < fock.dimension(n_modes):
        raise ValueError(f"occupation {occupation} out of range for {n_modes} modes")
    thetas = np.array([theta_from_coefficients(c) for c in sets])
    evolved = unitary_dense(build_generator(thetas))[:, :, occupation]
    entropies = [fock.subsystem_entropy(state, scenario.particle_modes) for state in evolved]
    return entropies[0] if single else entropies


def entropy_excited_closed_form(occupation: int, n: float, lam: float,
                                scenario: Scenario) -> float | None:
    """Cataloged closed-form entropy for an input occupation, else None.

    The catalogue covers every occupation of the supported scenarios
    (extended across spin flips and particle/antiparticle mirrors, each
    variant verified against the numeric route in the test suite).
    """
    particle_bits, anti_bits = scenario.split_occupation(occupation)
    n_max = scenario.n_max
    n = _within(n, n_max, "density")
    if scenario is Scenario.SPINLESS:
        if particle_bits == anti_bits:
            return entropy_vacuum_closed_form(n, scenario)
        return 0.0
    p_count, a_count = fock.occupancy(particle_bits), fock.occupancy(anti_bits)
    charge = p_count - a_count
    if abs(charge) == 2:
        return 0.0
    if abs(charge) == 1:
        return binary_entropy(n / 4.0)
    if p_count in (0, 2):
        return entropy_vacuum_closed_form(n, scenario)
    parallel = particle_bits == anti_bits
    if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        return 0.0 if parallel else entropy_vacuum_closed_form(n, scenario)
    check_density(n, lam, scenario)
    fraction = (1.0 - lam) if parallel else lam
    return pair_state_entropy(fraction * n * (n_max - n) / 16.0)


def spin_spinless_relation(n: float) -> tuple[float, float, float]:
    """(spinful vacuum entropy at n, twice the spinless one at n/2, residual).

    The spinful closed form checks n against [0, 4] and clamps it.
    """
    lhs = entropy_vacuum_closed_form(n, Scenario.CHARGE_ONLY)
    rhs = 2.0 * entropy_vacuum_closed_form(n / 2.0, Scenario.SPINLESS)
    return lhs, rhs, abs(lhs - rhs)


@dataclass(frozen=True)
class EntropyResult:
    """One sweep point: numeric entropy, closed form when cataloged, gap."""

    scenario: Scenario
    input_occupation: int
    n: float
    lam: float
    s_numeric: float
    s_closed: float | None
    discrepancy: float | None


def _point_result(scenario: Scenario, occupation: int, n: float, lam: float,
                  numeric: float) -> EntropyResult:
    closed = entropy_excited_closed_form(occupation, n, lam, scenario)
    gap = None if closed is None else abs(numeric - closed)
    recorded_lam = lam if scenario is Scenario.CHARGE_ONLY else 1.0
    return EntropyResult(scenario=scenario, input_occupation=occupation, n=n,
                         lam=recorded_lam, s_numeric=numeric, s_closed=closed,
                         discrepancy=gap)


def sweep(scenario: Scenario, occupation: int, n_grid,
          lambda_grid=None) -> list[EntropyResult]:
    """Entropy results over a density (and lambda) grid, grid-ordered.

    The lambda grid is required (nonempty) for the charge-only scenario
    and forced to the single value 1 otherwise, keeping result records
    uniform.  The numeric entropies are computed in blocks of
    ``squeezing.STACK_BLOCK`` consecutive grid points, one
    ``entropy_numeric`` call per block.
    """
    n_values = [float(v) for v in n_grid]
    if not n_values:
        raise ValueError("empty density grid")
    if scenario is Scenario.CHARGE_ONLY:
        lam_values = [float(v) for v in (lambda_grid or [])]
        if not lam_values:
            raise ValueError("charge-only sweep needs a nonempty lambda grid")
    else:
        lam_values = [1.0]
    # Check the whole grid before computing any point.
    points = [(n, lam) for n in n_values for lam in lam_values]
    for n, lam in points:
        check_density(n, lam, scenario)
    results = []
    for start in range(0, len(points), squeezing.STACK_BLOCK):
        block = points[start:start + squeezing.STACK_BLOCK]
        sets = [from_density(scenario, n, lam) for n, lam in block]
        numerics = entropy_numeric(sets, occupation)
        results.extend(_point_result(scenario, occupation, n, lam, numeric)
                       for (n, lam), numeric in zip(block, numerics))
    return results
