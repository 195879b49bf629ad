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
from dataclasses import dataclass

import numpy as np

from cosmopair import fock
from cosmopair.bogoliubov import (
    BogolyubovCoefficients,
    squeezing_angle,
    theta_from_coefficients,
)

__all__ = [
    "DecompositionError",
    "InOutExpansion",
    "apply_decoupled",
    "build_generator",
    "conjugate_mode",
    "in_state_expansion",
    "pair_creation_sum",
    "unitary_dense",
    "unitary_for",
]

# The factorized route loses accuracy as 1/cos(r)**2 (tan(r) diverges at
# r = pi/2); below this floor the 1e-10 agreement with the dense route is
# no longer guaranteed (measured ~1.6e-11 at cos(r) = 5e-3).
MIN_COS_FACTORIZED = 5e-3


class DecompositionError(RuntimeError):
    """A ladder-operator decomposition failed beyond tolerance."""


def _check_theta(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=complex)
    n = theta.shape[0]
    if theta.ndim != 2 or theta.shape != (n, n) or n not in (2, 4):
        raise ValueError(f"theta must be a 2x2 or 4x4 matrix, got {theta.shape}")
    scale = max(1.0, float(np.max(np.abs(theta))))
    if float(np.max(np.abs(theta + theta.T))) > 1e-12 * scale:
        raise ValueError("theta must be antisymmetric")
    return theta


@functools.lru_cache(maxsize=None)
def _pair_products(n_modes: int) -> np.ndarray:
    """Cached read-only tensor P[i, j] = f+_i f+_j of shape (n, n, 2**n, 2**n)."""
    _, raising = fock.ladder_operators(n_modes)
    products = np.array([[r_i @ r_j for r_j in raising] for r_i in raising])
    products.flags.writeable = False
    return products


def _pair_sum(theta: np.ndarray) -> np.ndarray:
    """(1/2) sum_ij theta_ij f+_i f+_j for an already validated theta."""
    return 0.5 * np.einsum("ij,ijkl->kl", theta, _pair_products(theta.shape[0]))


def pair_creation_sum(theta: np.ndarray) -> np.ndarray:
    """Matrix of (1/2) sum_ij theta_ij f+_i f+_j; nilpotent of order 3.

    The pair-annihilation sum (1/2) sum_ij conj(theta_ij) f_i f_j equals
    minus its conjugate transpose, since f_j f_i = -f_i f_j.
    """
    return _pair_sum(_check_theta(theta))


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
    """Dense squeezing unitary for a coefficient set."""
    return unitary_dense(build_generator(theta_from_coefficients(coeffs)))


def conjugate_mode(unitary: np.ndarray, mode: int,
                   tolerance: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Rows (mu_j., nu_j.) of the ladder mixing U f_j U^dag = mu f + nu f+.

    Decomposes the conjugated annihilator in the Frobenius-orthogonal
    basis of single-ladder matrices and insists the residual stays below
    tolerance; a large residual signals a broken sign convention.
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
    mu_row = np.array([np.trace(raising[i] @ conjugated) / norm2 for i in range(n)])
    nu_row = np.array([np.trace(lowering[i] @ conjugated) / norm2 for i in range(n)])
    recomposed = np.zeros_like(conjugated)
    for i in range(n):
        recomposed += mu_row[i] * lowering[i] + nu_row[i] * raising[i]
    residual = float(np.max(np.abs(conjugated - recomposed)))
    if residual > tolerance:
        raise DecompositionError(
            f"conjugated mode is not linear in ladder operators: residual {residual}")
    return mu_row, nu_row


def apply_decoupled(theta: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply the squeezing unitary through its three-factor closed form.

    Right to left: the pair-annihilation exponential truncated at second
    order by nilpotency, the occupation-diagonal factor, and the
    pair-creation exponential truncated at second order.  Requires
    |theta| scalar and cos(r) away from zero; the dense route covers the
    cos(r) = 0 edge.
    """
    theta = _check_theta(theta)
    state = np.asarray(state, dtype=complex)
    n = theta.shape[0]
    dim = fock.dimension(n)
    if state.shape != (dim,):
        raise ValueError(f"state length {state.shape} does not match {n} modes")
    radius = squeezing_angle(theta)
    cos_r = math.cos(radius)
    if abs(cos_r) < MIN_COS_FACTORIZED:
        raise ValueError(
            "factorized application breaks down at cos(r) ~ 0; use the dense unitary")
    tan_scale = math.tan(radius) / radius if radius > 1e-15 else 1.0
    create = tan_scale * _pair_sum(theta)
    destroy = -create.conj().T
    out = state + destroy @ state + 0.5 * destroy @ (destroy @ state)
    occupations = np.array([fock.occupancy(k) for k in range(dim)])
    out = out * cos_r ** (n / 2 - occupations)
    out = out + create @ out + 0.5 * create @ (create @ out)
    return out


@dataclass(frozen=True, eq=False)
class InOutExpansion:
    """An in-region state expanded over the out-region occupation basis."""

    amplitudes: np.ndarray

    def coefficient(self, bits: int) -> complex:
        return complex(self.amplitudes[bits])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def in_state_expansion(coeffs: BogolyubovCoefficients, occupation: int) -> InOutExpansion:
    """Expansion of an evolved occupation state over the out basis.

    The input occupation labels the in-region state; the returned
    amplitudes are those of the same state written in out-region kets.
    """
    dim = fock.dimension(coeffs.n_modes)
    if not 0 <= occupation < dim:
        raise ValueError(f"occupation {occupation} out of range for {coeffs.n_modes} modes")
    unitary = unitary_for(coeffs)
    return InOutExpansion(amplitudes=unitary[:, occupation].copy())
