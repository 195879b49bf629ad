"""Fock-space representation of a Bogoliubov transformation, two ways.

The unitary is exp(L) with the quadratic generator
L = (1/2) sum_ij (theta_ij f+_i f+_j + conj(theta_ij) f_i f_j).
``unitary_dense`` exponentiates L exactly through a Hermitian
eigendecomposition and serves as the brute-force oracle.
``apply_decoupled`` evaluates the equivalent three-factor product
(pair creation) x (diagonal in total occupation) x (pair annihilation),
which exists in closed form because the pair sums are nilpotent of
order three and |theta| is a multiple r of the identity:

    exp(L) = exp(tan(r)/r * C) * D * exp(tan(r)/r * C~)

with C the pair-creation sum, C~ = -C^dag the pair-annihilation sum, and D
scaling a basis state of occupation N by cos(r)**(M/2 - N) for M modes.
The diagonal exponent is validated wholesale against the dense oracle
rather than trusted.

Sign convention note: applied to the empty state, the unitary produces
single-pair amplitudes -a * conj(beta) (see ``expansions``); the variant
with positive signs corresponds to the momentum-reflected coefficients,
since beta flips sign under momentum reversal.

The generator is written on the pair sum's support alone (24 of 256
entries for four modes) and on its transpose; C is never formed for it.

Stacks: ``pair_creation_sum``, ``build_generator`` and ``apply_decoupled``
take theta with leading batch axes, shape (..., n, n); ``unitary_dense``
takes a generator stack (..., d, d), and ``unitarity_residual`` and
``conjugate_mode`` a unitary stack (..., d, d).  Each item passes the
same checks it would pass alone, and one bad item raises the error the
unstacked call raises.  ``unitary_for`` takes one coefficient set or a
stack of them.
"""

from __future__ import annotations

import functools

import numpy as np

from cosmopair import fock
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    check_theta,
    squeezing_angle,
    theta_from_coefficients,
)

__all__ = [
    "DecompositionError",
    "apply_decoupled",
    "build_generator",
    "conjugate_mode",
    "pair_creation_sum",
    "unitary_dense",
    "unitary_for",
    "unitarity_residual",
]

# The factorized route loses accuracy as 1/cos(r)**2 (tan(r) diverges at
# r = pi/2); below this floor the 1e-10 agreement with the dense route is
# no longer guaranteed (measured ~1.6e-11 at cos(r) = 5e-3).
MIN_COS_FACTORIZED = 5e-3

# Largest residual conjugate_mode accepts when it recomposes U f_j U^dag
# from single ladder operators.
CONJUGATION_TOLERANCE = 1e-10


class DecompositionError(RuntimeError):
    """A ladder-operator decomposition failed beyond tolerance."""


@functools.lru_cache(maxsize=None)
def _pair_products(n_modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached read-only pair products f+_i f+_j, flattened and cut to their support.

    Returns the flat indices k * 2**n + l of the entries where some
    product is nonzero, the transposed indices l * 2**n + k, and the
    (n*n, len(support)) matrix of those entries, row i * n + j for
    f+_i f+_j.
    """
    _, raising = fock.ladder_operators(n_modes)
    dim = fock.dimension(n_modes)
    products = np.array([[r_i @ r_j for r_j in raising] for r_i in raising])
    products = products.reshape(n_modes * n_modes, dim * dim)
    support = np.flatnonzero(np.any(products, axis=0))
    rows, cols = np.divmod(support, dim)
    transposed = cols * dim + rows
    values = products[:, support]
    for array in (support, transposed, values):
        array.flags.writeable = False
    return support, transposed, values


@functools.lru_cache(maxsize=None)
def _occupation_exponents(n_modes: int) -> np.ndarray:
    """Cached read-only exponents M/2 - N(k) of the diagonal factor per basis index k."""
    occupations = np.array([fock.occupancy(k) for k in range(fock.dimension(n_modes))])
    exponents = n_modes / 2 - occupations
    exponents.flags.writeable = False
    return exponents


def _pair_values(theta: np.ndarray) -> np.ndarray:
    """(1/2) sum_ij theta_ij f+_i f+_j at its support, for an already validated theta (or stack)."""
    n = theta.shape[-1]
    _, _, values = _pair_products(n)
    # Only the support is multiplied out (24 of 256 entries for 4 modes):
    # the full (n*n, dim*dim) product does ten times the work for zeros.
    return 0.5 * (theta.reshape(*theta.shape[:-2], n * n) @ values)


def _on_support(theta: np.ndarray, *writes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Zero (..., 2**n, 2**n) stack of theta's batch shape, each (flat indices, values) written in."""
    dim = fock.dimension(theta.shape[-1])
    batch = theta.shape[:-2]
    flat = np.zeros((*batch, dim * dim), dtype=complex)
    for indices, values in writes:
        flat[..., indices] = values
    return flat.reshape(*batch, dim, dim)


def _pair_sum(theta: np.ndarray) -> np.ndarray:
    """(1/2) sum_ij theta_ij f+_i f+_j for an already validated theta (or stack)."""
    support, _, _ = _pair_products(theta.shape[-1])
    return _on_support(theta, (support, _pair_values(theta)))


def pair_creation_sum(theta: np.ndarray) -> np.ndarray:
    """Matrix of (1/2) sum_ij theta_ij f+_i f+_j; nilpotent of order 3.

    The pair-annihilation sum (1/2) sum_ij conj(theta_ij) f_i f_j equals
    minus its conjugate transpose, since f_j f_i = -f_i f_j.
    """
    return _pair_sum(check_theta(theta))


def build_generator(theta: np.ndarray) -> np.ndarray:
    """Generator L = C - C^dag of the squeezing unitary, C the pair-creation sum.

    Anti-Hermitian by construction.  C raises the occupation by two and
    C^dag lowers it, so their supports are disjoint: L is C's values at
    C's support and their negated conjugates at the transposed support.
    """
    theta = check_theta(theta)
    support, transposed, _ = _pair_products(theta.shape[-1])
    create = _pair_values(theta)
    return _on_support(theta, (support, create), (transposed, -create.conj()))


def unitary_dense(gen: np.ndarray) -> np.ndarray:
    """exp(L) through the eigendecomposition of the Hermitian iL."""
    gen = np.asarray(gen, dtype=complex)
    scale = np.maximum(1.0, np.abs(gen).max(axis=(-2, -1)))
    # Written as "not within" so that a NaN entry fails the gate.
    if not (np.abs(gen + gen.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            <= 1e-12 * scale).all():
        raise ValueError("generator must be anti-Hermitian")
    eigs, vecs = np.linalg.eigh(1j * gen)
    unitary = (vecs * np.exp(-1j * eigs)[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)
    residual = unitarity_residual(unitary)
    if not residual <= 1e-12:
        raise DecompositionError(f"exponential lost unitarity: residual {residual}")
    return unitary


def unitarity_residual(unitary: np.ndarray) -> float:
    """max |U U^dag - 1| over every entry of a unitary or a stack; 0 for an empty stack."""
    gram = unitary @ unitary.conj().swapaxes(-1, -2)
    return float(np.abs(gram - np.eye(unitary.shape[-1])).max(initial=0.0))


def unitary_for(coeffs: BogolyubovCoefficients) -> np.ndarray:
    """Dense squeezing unitary for a coefficient set, or a stack (..., d, d) for a stack.

    Column k is the evolved in-region occupation state k written over the
    out-region occupation basis.
    """
    return unitary_dense(build_generator(theta_from_coefficients(coeffs)))


def conjugate_mode(unitary: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (mu_j., nu_j.) of the ladder mixing U f_j U^dag = mu f + nu f+.

    Decomposes the conjugated annihilator in the Frobenius-orthogonal
    basis of single-ladder matrices and insists the residual stays below
    ``CONJUGATION_TOLERANCE``; a large residual signals a broken sign
    convention.  A stack of unitaries (..., d, d) gives rows of shape
    (..., n) and fails if any item does.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.ndim < 2 or unitary.shape[-2] != unitary.shape[-1]:
        raise ValueError(f"unitary shape {unitary.shape} is not a square matrix")
    dim = unitary.shape[-1]
    n = dim.bit_length() - 1
    if fock.dimension(n) != dim:
        raise ValueError("unitary dimension is not a power of two")
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for {n} modes")
    lowering, raising = fock.ladder_operators(n)
    batch = unitary.shape[:-2]
    conjugated = (unitary @ lowering[mode] @ unitary.conj().swapaxes(-1, -2)).reshape(
        *batch, dim * dim)
    # Row i is tr(f+_i X) / 2**(n-1) and tr(f_i X) / 2**(n-1).  The ladder
    # matrices are real, so tr(f+_i X) sums f_i * X entrywise (and tr(f_i X)
    # sums f+_i * X): one matmul per row against the flattened stack.
    flat_lowering = lowering.reshape(n, dim * dim)
    flat_raising = raising.reshape(n, dim * dim)
    norm2 = float(2 ** (n - 1))
    mu_row = conjugated @ flat_lowering.T / norm2
    nu_row = conjugated @ flat_raising.T / norm2
    recomposed = mu_row @ flat_lowering + nu_row @ flat_raising
    residual = np.abs(conjugated - recomposed).max(axis=-1)
    if not (residual <= CONJUGATION_TOLERANCE).all():
        raise DecompositionError(
            f"conjugated mode is not linear in ladder operators: residual {float(residual.max())}")
    return mu_row, nu_row


def apply_decoupled(theta: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply the squeezing unitary through its three-factor closed form.

    Right to left: the pair-annihilation exponential truncated at second
    order by nilpotency, the occupation-diagonal factor, and the
    pair-creation exponential truncated at second order.  ``state`` is
    one state of shape (2**n,) or a block of k column states of shape
    (2**n, k); a block is transformed column by column in the same four
    matrix products, so ``apply_decoupled(theta, np.eye(2**n))`` is the
    whole unitary.  A stack of theta matrices (..., n, n) applies each
    one to the same state or block and returns shape (..., 2**n) or
    (..., 2**n, k).  Requires |theta| scalar and cos(r) away from zero
    for every item; the dense route covers the cos(r) = 0 edge.
    """
    theta = check_theta(theta)
    state = np.asarray(state, dtype=complex)
    n = theta.shape[-1]
    dim = fock.dimension(n)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise ValueError(f"state shape {state.shape} is not ({dim},) or ({dim}, k) "
                         f"for {n} modes")
    radius = np.asarray(squeezing_angle(theta))
    cos_r = np.cos(radius)
    if not (np.abs(cos_r) >= MIN_COS_FACTORIZED).all():
        raise ValueError(
            "factorized application breaks down at cos(r) ~ 0; use the dense unitary")
    # tan(r)/r, with its r -> 0 limit of 1
    tan_scale = np.divide(np.tan(radius), radius, out=np.ones_like(radius),
                          where=radius > 1e-15)
    create = tan_scale[..., np.newaxis, np.newaxis] * _pair_sum(theta)
    destroy = -create.conj().swapaxes(-1, -2)
    # One state is a block of one column, so a theta stack gives a stack of blocks.
    block = state if state.ndim == 2 else state[:, np.newaxis]
    out = block + destroy @ block + 0.5 * destroy @ (destroy @ block)
    out = out * (cos_r[..., np.newaxis] ** _occupation_exponents(n))[..., np.newaxis]
    out = out + create @ out + 0.5 * create @ (create @ out)
    return out if state.ndim == 2 else out[..., 0]
