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
"""

from __future__ import annotations

import functools
import math

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
def _pair_products(n_modes: int) -> np.ndarray:
    """Cached read-only tensor P[i, j] = f+_i f+_j of shape (n, n, 2**n, 2**n)."""
    _, raising = fock.ladder_operators(n_modes)
    products = np.array([[r_i @ r_j for r_j in raising] for r_i in raising])
    products.flags.writeable = False
    return products


@functools.lru_cache(maxsize=None)
def _occupation_exponents(n_modes: int) -> np.ndarray:
    """Cached read-only exponents M/2 - N(k) of the diagonal factor per basis index k."""
    occupations = np.array([fock.occupancy(k) for k in range(fock.dimension(n_modes))])
    exponents = n_modes / 2 - occupations
    exponents.flags.writeable = False
    return exponents


def _pair_sum(theta: np.ndarray) -> np.ndarray:
    """(1/2) sum_ij theta_ij f+_i f+_j for an already validated theta."""
    return 0.5 * np.einsum("ij,ijkl->kl", theta, _pair_products(theta.shape[0]))


def pair_creation_sum(theta: np.ndarray) -> np.ndarray:
    """Matrix of (1/2) sum_ij theta_ij f+_i f+_j; nilpotent of order 3.

    The pair-annihilation sum (1/2) sum_ij conj(theta_ij) f_i f_j equals
    minus its conjugate transpose, since f_j f_i = -f_i f_j.
    """
    return _pair_sum(check_theta(theta))


def build_generator(theta: np.ndarray) -> np.ndarray:
    """Generator L = C - C^dag of the squeezing unitary, C the pair-creation sum.

    Anti-Hermitian by construction.
    """
    create = pair_creation_sum(theta)
    return create - create.conj().T


def unitary_dense(gen: np.ndarray) -> np.ndarray:
    """exp(L) through the eigendecomposition of the Hermitian iL."""
    gen = np.asarray(gen, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(gen))))
    if float(np.max(np.abs(gen + gen.conj().T))) > 1e-12 * scale:
        raise ValueError("generator must be anti-Hermitian")
    herm = 1j * gen
    eigs, vecs = np.linalg.eigh(herm)
    unitary = (vecs * np.exp(-1j * eigs)) @ vecs.conj().T
    dim = unitary.shape[0]
    residual = float(np.max(np.abs(unitary @ unitary.conj().T - np.eye(dim))))
    if residual > 1e-12:
        raise DecompositionError(f"exponential lost unitarity: residual {residual}")
    return unitary


def unitary_for(coeffs: BogolyubovCoefficients) -> np.ndarray:
    """Dense squeezing unitary for a coefficient set.

    Column k is the evolved in-region occupation state k written over the
    out-region occupation basis.
    """
    return unitary_dense(build_generator(theta_from_coefficients(coeffs)))


def conjugate_mode(unitary: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (mu_j., nu_j.) of the ladder mixing U f_j U^dag = mu f + nu f+.

    Decomposes the conjugated annihilator in the Frobenius-orthogonal
    basis of single-ladder matrices and insists the residual stays below
    ``CONJUGATION_TOLERANCE``; a large residual signals a broken sign convention.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    n = dim.bit_length() - 1
    if fock.dimension(n) != dim:
        raise ValueError("unitary dimension is not a power of two")
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for {n} modes")
    lowering, raising = fock.ladder_operators(n)
    conjugated = unitary @ lowering[mode] @ unitary.conj().T
    norm2 = float(2 ** (n - 1))
    # Row i is tr(f+_i X) / 2**(n-1) and tr(f_i X) / 2**(n-1) respectively.
    mu_row = np.einsum("ikl,lk->i", raising, conjugated) / norm2
    nu_row = np.einsum("ikl,lk->i", lowering, conjugated) / norm2
    recomposed = (np.einsum("i,ikl->kl", mu_row, lowering)
                  + np.einsum("i,ikl->kl", nu_row, raising))
    residual = float(np.max(np.abs(conjugated - recomposed)))
    if residual > CONJUGATION_TOLERANCE:
        raise DecompositionError(
            f"conjugated mode is not linear in ladder operators: residual {residual}")
    return mu_row, nu_row


def apply_decoupled(theta: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply the squeezing unitary through its three-factor closed form.

    Right to left: the pair-annihilation exponential truncated at second
    order by nilpotency, the occupation-diagonal factor, and the
    pair-creation exponential truncated at second order.  ``state`` is
    one state of shape (2**n,) or a block of k column states of shape
    (2**n, k); a block is transformed column by column in the same four
    matrix products, so ``apply_decoupled(theta, np.eye(2**n))`` is the
    whole unitary.  Requires |theta| scalar and cos(r) away from zero;
    the dense route covers the cos(r) = 0 edge.
    """
    theta = check_theta(theta)
    state = np.asarray(state, dtype=complex)
    n = theta.shape[0]
    dim = fock.dimension(n)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise ValueError(f"state shape {state.shape} is not ({dim},) or ({dim}, k) "
                         f"for {n} modes")
    radius = squeezing_angle(theta)
    cos_r = math.cos(radius)
    if abs(cos_r) < MIN_COS_FACTORIZED:
        raise ValueError(
            "factorized application breaks down at cos(r) ~ 0; use the dense unitary")
    tan_scale = math.tan(radius) / radius if radius > 1e-15 else 1.0
    create = tan_scale * _pair_sum(theta)
    destroy = -create.conj().T
    out = state + destroy @ state + 0.5 * destroy @ (destroy @ state)
    diagonal = cos_r ** _occupation_exponents(n)
    out = out * (diagonal if state.ndim == 1 else diagonal[:, np.newaxis])
    out = out + create @ out + 0.5 * create @ (create @ out)
    return out

