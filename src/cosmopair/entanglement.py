"""Particle-antiparticle entanglement entropies, numeric and closed form.

The numeric route evolves an occupation state with the dense squeezing
unitary, traces out the antiparticle modes and diagonalizes the reduced
operator.  Every pair term of the generator pairs a particle mode with
an antiparticle mode, so the evolved state stays in the charge sector
of its input, and only the generator's block on that sector is
exponentiated.  The closed forms cover the vacuum in all scenarios and
the full excited-state catalogue; wherever both exist the numeric value
is authoritative and the sweep records the discrepancy.

``entropy_numeric`` takes one coefficient set or a stack of them
(``BogolyubovCoefficients.stack``).  A stack makes one theta call, one
stacked generator, one stacked sector exponential and one
``fock.subsystem_entropy`` call, inside which only the partial trace
runs once per set.  The closed forms take n (and lambda) as arrays as
well as floats, with one entropy per item.  ``score`` is the one place
that scores coefficient sets: it sets the numeric entropies of a stack
against one catalogue call at the caller's (n, lambda) arrays.
``sweep`` builds its grid in stacks of ``SCORE_BLOCK`` sets and scores
each; ``dynamics.momentum_point`` scores a stack of one.

All entropies are in bits.  The excited catalogue for four modes hinges
on the particle-antiparticle charge of the input:

* |charge| = 2: no entanglement is generated.
* |charge| = 1: a single binary entropy of n/4.
* charge = 0 with zero, two-and-two occupation: the vacuum expression.
* charge = 0 with one particle and one antiparticle: a two-pair
  spectrum {q, q, mu+, mu-} with q = (1-lambda) n (4-n)/16 for parallel
  and q = lambda n (4-n)/16 for antiparallel spins.  Angular-momentum
  conservation = charge-only at lambda = 1 (beta_uu = beta_dd = 0):
  parallel spins give q = 0, zero entropy, and antiparallel spins the
  vacuum expression.
"""

from __future__ import annotations

import functools

import numpy as np

from cosmopair import fock
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    Scenario,
    check_density,
    from_density,
    theta_from_coefficients,
)
from cosmopair.squeezing import build_generator, unitary_dense

__all__ = [
    "binary_entropy",
    "entropy_excited_closed_form",
    "entropy_numeric",
    "entropy_vacuum_closed_form",
    "pair_state_entropy",
    "score",
    "sweep",
]


# Coefficient sets that ``sweep`` stacks per ``score`` call.
# Each block costs a fixed number of numpy calls, so larger blocks pay
# less per set, down to a floor.  On the 4411-point charge sweep (2-vCPU
# x86_64, numpy 2.4, one BLAS thread as the CLI runs it) the in-process
# time is about 380 ms at 16 and flat at 200-240 ms from 64 to 512, so
# peak RSS sets the block: the command's is flat up to 128 and grows
# beyond it, +1.4 MB at 256 and +4.9 MB at 512.
SCORE_BLOCK = 128


def _within(x, upper: float, what: str) -> np.ndarray:
    """x clamped into [0, upper]; raises unless every item lies within 1e-12 of it."""
    x = np.asarray(x, dtype=float)
    fock.require((x >= -1e-12) & (x <= upper + 1e-12), x, f"{what} {{}} outside [0, {upper}]")
    return np.minimum(np.maximum(x, 0.0), upper)


def binary_entropy(x):
    """-x log2 x - (1-x) log2(1-x) with the 0 log 0 = 0 rule, per item of x."""
    x = _within(x, 1.0, "binary entropy argument")
    return fock.entropy_of_eigenvalues(np.stack((x, 1.0 - x), axis=-1))


def pair_state_entropy(q):
    """Entropy of the reduced spectrum {q, q, mu+, mu-}, q in [0, 1/4], per item of q.

    mu_pm = ((1 pm s)/2)**2 with s = sqrt(1 - 4q).  Equals the
    logarithmic grouping 2 - (1+s) log2(1+s) - (1-s) log2(1-s), which
    stays finite at q = 0 where the naive -log2(q) form degenerates.
    """
    q = _within(q, 0.25, "pair entropy argument")
    s = np.sqrt(np.maximum(1.0 - 4.0 * q, 0.0))
    return fock.entropy_of_eigenvalues(
        np.stack((q, q, ((1 + s) / 2) ** 2, ((1 - s) / 2) ** 2), axis=-1))


def entropy_vacuum_closed_form(n, scenario: Scenario):
    """Closed-form vacuum entanglement entropy at created density n, per item of n."""
    n = _within(n, scenario.n_max, "density")
    if scenario is Scenario.SPINLESS:
        return binary_entropy(n / 2.0)
    return 2.0 * binary_entropy(n / 4.0)


@functools.lru_cache(maxsize=None)
def _charge_sector(n_modes: int, occupation: int) -> tuple[np.ndarray, int, int]:
    """Cached read-only (order, size, position) of an occupation's charge sector.

    order lists every basis index, first the ``size`` indices whose
    charge, read from the diagonal of ``fock.charge_operator``, equals the
    occupation's, then the rest; position is the occupation's place among
    the first ``size``.
    """
    charges = np.diag(fock.charge_operator(n_modes)).real.tolist()
    sector = [k for k, q in enumerate(charges) if q == charges[occupation]]
    order = np.array(sector + [k for k, q in enumerate(charges) if q != charges[occupation]])
    order.flags.writeable = False
    return order, len(sector), sector.index(occupation)


def _evolve_in_sector(generators: np.ndarray, occupation: int) -> np.ndarray:
    """exp(L) applied to a basis state, through L's block on the state's charge sector.

    generators is a stack (..., 2**n, 2**n); the result is the stack of
    evolved states (..., 2**n), zero off the sector.  A generator entry
    that joins the sector to another charge raises ValueError, since the
    block alone would then no longer give the evolution.
    """
    n_modes = generators.shape[-1].bit_length() - 1
    order, size, position = _charge_sector(n_modes, occupation)
    ordered = generators[..., order[:, np.newaxis], order]
    if not ((ordered[..., :size, size:] == 0).all() and (ordered[..., size:, :size] == 0).all()):
        raise ValueError(f"generator couples the charge sector of occupation {occupation} "
                         "to other charges")
    evolved = np.zeros(generators.shape[:-1], dtype=complex)
    evolved[..., order[:size]] = unitary_dense(ordered[..., :size, :size])[..., :, position]
    return evolved


def entropy_numeric(coeffs: BogolyubovCoefficients, occupation: int):
    """Partial-trace entropy of an evolved occupation state, per coefficient set.

    Evolves through the dense unitary on the input's charge sector (exact
    for every amplitude including a = 0), forms the pure density operator
    and traces out the antiparticle modes.

    One coefficient set gives a float; a stack of shape (...) gives an
    array (...), each item equal to the single-set call.  An out-of-range
    occupation raises ValueError before any unitary is built.
    """
    scenario = coeffs.scenario
    n_modes = scenario.n_modes
    if not 0 <= occupation < fock.dimension(n_modes):
        raise ValueError(f"occupation {occupation} out of range for {n_modes} modes")
    evolved = _evolve_in_sector(build_generator(theta_from_coefficients(coeffs)), occupation)
    return fock.subsystem_entropy(evolved, scenario.particle_modes)


def entropy_excited_closed_form(occupation: int, n, lam, scenario: Scenario):
    """Cataloged closed-form entropy for an input occupation at (n, lam).

    n and lam may be floats or arrays, broadcast together; an array gives
    one entropy per item.  The catalogue covers every occupation of the
    supported scenarios (extended across spin flips and
    particle/antiparticle mirrors, each variant verified against the
    numeric route in the test suite).  lam is read, and checked to lie in
    [0, 1], only for a one-particle, one-antiparticle input under charge
    conservation alone; angular-momentum conservation = charge-only at
    lam = 1 (beta_uu = beta_dd = 0).  n outside [0, n_max] or an
    occupation out of range raise ValueError, naming the first item.
    """
    particle_bits, anti_bits = scenario.split_occupation(occupation)
    n_max = scenario.n_max
    n = _within(n, n_max, "density")
    unentangled = 0.0 if n.ndim == 0 else np.zeros(n.shape)
    if scenario is Scenario.SPINLESS:
        if particle_bits == anti_bits:
            return entropy_vacuum_closed_form(n, scenario)
        return unentangled
    p_count, a_count = fock.occupancy(particle_bits), fock.occupancy(anti_bits)
    charge = p_count - a_count
    if abs(charge) == 2:
        return unentangled
    if abs(charge) == 1:
        return binary_entropy(n / 4.0)
    if p_count in (0, 2):
        return entropy_vacuum_closed_form(n, scenario)
    lam = np.asarray(1.0 if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM else lam, dtype=float)
    fock.require((lam >= 0.0) & (lam <= 1.0), lam, "lambda {} outside [0, 1]")
    fraction = (1.0 - lam) if particle_bits == anti_bits else lam
    return pair_state_entropy(fraction * n * (n_max - n) / 16.0)


def score(coeffs: BogolyubovCoefficients, occupation: int, n, lam):
    """(S_numeric, S_closed, discrepancy) arrays, one item per coefficient set of a stack.

    S_numeric is ``entropy_numeric`` of the evolved ``occupation``.
    S_closed is ``entropy_excited_closed_form`` at the (n, lambda) each
    set was built from; the caller supplies n and lam, arrays of the
    stack's shape, rather than have them read back from the sets, so the
    catalogue stays an independent check of how the sets were built.
    discrepancy is |S_numeric - S_closed|.  n or lam of another shape
    raises ValueError before any unitary is built.
    """
    n, lam = np.asarray(n, dtype=float), np.asarray(lam, dtype=float)
    shape = np.shape(coeffs.a)
    if n.shape != shape or lam.shape != shape:
        raise ValueError(f"n of shape {n.shape} and lambda of shape {lam.shape} do not "
                         f"match the coefficient stack {shape}")
    numeric = entropy_numeric(coeffs, occupation)
    closed = entropy_excited_closed_form(occupation, n, lam, coeffs.scenario)
    return numeric, closed, np.abs(numeric - closed)


def sweep(scenario: Scenario, occupation: int, n_grid,
          lambda_grid=None) -> list[tuple[float, float, float, float, float]]:
    """(n, lambda, S_numeric, S_closed, discrepancy) rows over a density grid.

    Rows run in grid order, lambda fastest.  The lambda grid is required
    (nonempty) for the charge-only scenario; the other scenarios refuse
    one and read lambda = 1 on every row, keeping the rows uniform.  The
    whole grid is checked before any point is computed; the coefficient
    sets are then built and scored one stack of ``SCORE_BLOCK`` points at
    a time, so one block of them is alive at once.
    """
    n_values = [float(v) for v in n_grid]
    if not n_values:
        raise ValueError("empty density grid")
    if scenario is Scenario.CHARGE_ONLY:
        lam_values = [float(v) for v in (lambda_grid or [])]
        if not lam_values:
            raise ValueError("charge-only sweep needs a nonempty lambda grid")
    elif lambda_grid is not None:
        raise ValueError(f"only a charge-only sweep takes a lambda grid; {scenario.value} "
                         "rows read lambda = 1")
    else:
        lam_values = [1.0]
    points = [(n, lam) for n in n_values for lam in lam_values]
    for n, lam in points:
        check_density(n, lam, scenario)
    rows = []
    for start in range(0, len(points), SCORE_BLOCK):
        block = points[start:start + SCORE_BLOCK]
        stack = BogolyubovCoefficients.stack(from_density(scenario, n, lam) for n, lam in block)
        n, lam = np.array(block).T
        scores = zip(*(column.tolist() for column in score(stack, occupation, n, lam)))
        rows.extend(point + result for point, result in zip(block, scores))
    return rows
