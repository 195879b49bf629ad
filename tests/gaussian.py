"""The entanglement entropy of an evolved occupation state from its Gaussian correlations.

An occupation state evolved by a Bogoliubov transformation is Gaussian, so
its reduced state is fixed by the correlation matrix of the ladder
operators.  With (mu, nu) from ``expected_pair_mixing`` and
W = [[mu, nu], [conj(nu), conj(mu)]], the input occupation bits give
C = W diag(1 - bits, bits) W^dag.  C's block on the particle modes and
their creation partners has eigenvalues in pairs (l, 1 - l), one pair per
particle mode, and the sum of -l log2 l over all 2k of them is the
entropy: each pair adds its binary entropy.  Halving that sum is a trap
that reads 1 bit where the answer is 2.

This route never builds a Fock-space operator, which makes it an
independent oracle of ``entanglement.entropy_numeric``.
"""

from __future__ import annotations

import numpy as np

from cosmopair import fock
from cosmopair.bogoliubov import BogolyubovCoefficients, expected_pair_mixing


def entropy_gaussian(coeffs: BogolyubovCoefficients, occupation: int):
    """Entropy in bits of the particle modes of an evolved occupation, per coefficient set.

    One set gives a float; a stack of shape (...) gives an array (...).
    """
    scenario = coeffs.scenario
    scenario.split_occupation(occupation)
    n = scenario.n_modes
    mu, nu = expected_pair_mixing(coeffs)
    mixing = np.concatenate([np.concatenate([mu, nu], axis=-1),
                             np.concatenate([nu.conj(), mu.conj()], axis=-1)], axis=-2)
    bits = np.array([occupation >> i & 1 for i in range(n)], dtype=float)
    weights = np.concatenate([1.0 - bits, bits])
    correlation = (mixing * weights) @ mixing.conj().swapaxes(-1, -2)
    kept = [*scenario.particle_modes, *(i + n for i in scenario.particle_modes)]
    block = correlation[..., kept, :][..., :, kept]
    return fock.entropy_of_eigenvalues(np.clip(np.linalg.eigvalsh(block), 0.0, 1.0))
