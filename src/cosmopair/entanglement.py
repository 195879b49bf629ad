"""Particle-antiparticle entanglement entropies, numeric and closed form.

The numeric route evolves an occupation state with the dense squeezing
unitary, traces out the antiparticle modes and diagonalizes the reduced
operator.  The closed forms cover the vacuum in all scenarios and the
full excited-state catalogue; wherever both exist the numeric value is
authoritative and the sweep records the discrepancy.

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
from dataclasses import dataclass

from cosmopair import fock
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    DensityParameters,
    Scenario,
    from_density,
)
from cosmopair.squeezing import unitary_for

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


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x) with the 0 log 0 = 0 rule."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    return fock.entropy_of_eigenvalues((min(max(x, 0.0), 1.0), min(max(1.0 - x, 0.0), 1.0)))


def pair_state_entropy(q: float) -> float:
    """Entropy of the reduced spectrum {q, q, mu+, mu-}, q in [0, 1/4].

    mu_pm = ((1 pm s)/2)**2 with s = sqrt(1 - 4q).  Equals the
    logarithmic grouping 2 - (1+s) log2(1+s) - (1-s) log2(1-s), which
    stays finite at q = 0 where the naive -log2(q) form degenerates.
    """
    if not -1e-12 <= q <= 0.25 + 1e-12:
        raise ValueError(f"pair entropy argument {q} outside [0, 1/4]")
    q = min(max(q, 0.0), 0.25)
    s = math.sqrt(max(1.0 - 4.0 * q, 0.0))
    return fock.entropy_of_eigenvalues((q, q, ((1 + s) / 2) ** 2, ((1 - s) / 2) ** 2))


def entropy_vacuum_closed_form(n: float, scenario: Scenario) -> float:
    """Closed-form vacuum entanglement entropy at created density n."""
    n_max = scenario.n_max
    if not -1e-12 <= n <= n_max + 1e-12:
        raise ValueError(f"density {n} outside [0, {n_max}]")
    n = min(max(n, 0.0), n_max)
    if scenario is Scenario.SPINLESS:
        return binary_entropy(n / 2.0)
    return 2.0 * binary_entropy(n / 4.0)


def entropy_numeric(coeffs: BogolyubovCoefficients, occupation: int) -> float:
    """Partial-trace entropy of an evolved occupation state.

    Evolves through the dense unitary (exact for every amplitude
    including a = 0), forms the pure density operator and traces out the
    antiparticle modes.
    """
    scenario = coeffs.scenario
    n_modes = scenario.n_modes
    unitary = unitary_for(coeffs)
    if not 0 <= occupation < fock.dimension(n_modes):
        raise ValueError(f"occupation {occupation} out of range for {n_modes} modes")
    evolved = unitary[:, occupation]
    rho = fock.outer_product(evolved)
    reduced = fock.partial_trace(rho, scenario.particle_modes, n_modes)
    return fock.von_neumann_entropy(reduced)


def _spin_pattern(occupation: int) -> tuple[int, int]:
    return occupation & 0b11, (occupation >> 2) & 0b11


def entropy_excited_closed_form(occupation: int, n: float, lam: float,
                                scenario: Scenario) -> float | None:
    """Cataloged closed-form entropy for an input occupation, else None.

    The catalogue covers every occupation of the supported scenarios
    (extended across spin flips and particle/antiparticle mirrors, each
    variant verified against the numeric route in the test suite).
    """
    dim = fock.dimension(scenario.n_modes)
    if not 0 <= occupation < dim:
        raise ValueError(f"occupation {occupation} out of range")
    n_max = scenario.n_max
    if not -1e-12 <= n <= n_max + 1e-12:
        raise ValueError(f"density {n} outside [0, {n_max}]")
    n = min(max(n, 0.0), n_max)
    if scenario is Scenario.SPINLESS:
        particle, antiparticle = occupation & 1, occupation >> 1 & 1
        if particle == antiparticle:
            return entropy_vacuum_closed_form(n, scenario)
        return 0.0
    particle_bits, anti_bits = _spin_pattern(occupation)
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
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    fraction = (1.0 - lam) if parallel else lam
    return pair_state_entropy(fraction * n * (n_max - n) / 16.0)


def spin_spinless_relation(n: float) -> tuple[float, float, float]:
    """(spinful vacuum entropy at n, twice the spinless one at n/2, residual)."""
    if not -1e-12 <= n <= 4.0 + 1e-12:
        raise ValueError(f"density {n} outside [0, 4]")
    lhs = entropy_vacuum_closed_form(min(max(n, 0.0), 4.0), Scenario.CHARGE_ONLY)
    rhs = 2.0 * entropy_vacuum_closed_form(min(max(n, 0.0), 4.0) / 2.0, Scenario.SPINLESS)
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


def _evaluate_point(scenario: Scenario, occupation: int, n: float, lam: float,
                    phases: tuple[float, float, float, float]) -> EntropyResult:
    coeffs = from_density(DensityParameters(n=n, lam=lam, phases=phases), scenario)
    numeric = entropy_numeric(coeffs, occupation)
    closed = entropy_excited_closed_form(occupation, n, lam, scenario)
    gap = None if closed is None else abs(numeric - closed)
    recorded_lam = lam if scenario is Scenario.CHARGE_ONLY else 1.0
    return EntropyResult(scenario=scenario, input_occupation=occupation, n=n,
                         lam=recorded_lam, s_numeric=numeric, s_closed=closed,
                         discrepancy=gap)


def sweep(scenario: Scenario, occupation: int, n_grid, lambda_grid=None,
          phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
          ) -> list[EntropyResult]:
    """Entropy results over a density (and lambda) grid, grid-ordered.

    The lambda grid is required (nonempty) for the charge-only scenario
    and forced to the single value 1 otherwise, keeping result records
    uniform.
    """
    n_values = [float(v) for v in n_grid]
    if not n_values:
        raise ValueError("empty density grid")
    for n in n_values:
        if not 0.0 <= n <= scenario.n_max:
            raise ValueError(f"density {n} outside [0, {scenario.n_max}]")
    if scenario is Scenario.CHARGE_ONLY:
        lam_values = [float(v) for v in (lambda_grid or [])]
        if not lam_values:
            raise ValueError("charge-only sweep needs a nonempty lambda grid")
        for lam in lam_values:
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"lambda {lam} outside [0, 1]")
    else:
        lam_values = [1.0]
    return [_evaluate_point(scenario, occupation, n, lam, phases)
            for n in n_values for lam in lam_values]
