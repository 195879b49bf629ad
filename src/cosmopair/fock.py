"""Exact Fock-space linear algebra for a handful of fermionic modes.

Everything is dense complex numpy over the 2**n occupation basis.  Basis
index k encodes occupations little-endian in the mode index: bit i of k
is the occupation of mode i, so index 5 = 0b0101 means modes 0 and 2 are
occupied.  A basis state equals the product of creation operators applied
in increasing mode order to the empty state, which makes its overall sign
+1 in this convention.

Annihilating mode i picks up the Jordan-Wigner sign
(-1)**(number of occupied modes with index < i).  This single choice
fixes every other sign in the package; the partial trace below uses the
same mode <-> bit pairing, so diagonal occupation probabilities are
preserved exactly and off-diagonal blocks inherit the Jordan-Wigner
phases of the kept-mode ordering.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_MODES = 8

__all__ = [
    "MAX_MODES",
    "annihilation_operator",
    "basis_state",
    "charge_operator",
    "dimension",
    "entropy_of_eigenvalues",
    "ladder_operators",
    "occupancy",
    "outer_product",
    "partial_trace",
    "spin_z_operator",
    "validate_density_operator",
    "von_neumann_entropy",
]


def dimension(n_modes: int) -> int:
    return 1 << n_modes


def occupancy(bits: int) -> int:
    """Number of occupied modes in a basis index."""
    return bin(bits).count("1")


def _check_modes(n_modes: int) -> None:
    if not 1 <= n_modes <= MAX_MODES:
        raise ValueError(f"n_modes must be in [1, {MAX_MODES}], got {n_modes}")


def annihilation_operator(mode: int, n_modes: int) -> np.ndarray:
    """Dense matrix of the annihilation operator for one mode.

    On a basis state with the mode occupied it yields the state with the
    bit cleared times (-1)**(occupied modes of lower index); zero
    otherwise.  The creation operator is the conjugate transpose.
    """
    _check_modes(n_modes)
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    dim = dimension(n_modes)
    op = np.zeros((dim, dim), dtype=complex)
    lower = (1 << mode) - 1
    for source in range(dim):
        if source >> mode & 1:
            sign = -1.0 if occupancy(source & lower) & 1 else 1.0
            op[source ^ (1 << mode), source] = sign
    return op


@functools.lru_cache(maxsize=None)
def ladder_operators(n_modes: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Cached (annihilators, creators) for all modes; arrays are read-only."""
    lowering = []
    raising = []
    for mode in range(n_modes):
        f = annihilation_operator(mode, n_modes)
        fd = f.conj().T
        f.flags.writeable = False
        fd.flags.writeable = False
        lowering.append(f)
        raising.append(fd)
    return tuple(lowering), tuple(raising)


def basis_state(bits: int, n_modes: int) -> np.ndarray:
    _check_modes(n_modes)
    dim = dimension(n_modes)
    if not 0 <= bits < dim:
        raise ValueError(f"basis index {bits} out of range for {n_modes} modes")
    state = np.zeros(dim, dtype=complex)
    state[bits] = 1.0
    return state


def charge_operator(n_modes: int) -> np.ndarray:
    """Particle number minus antiparticle number.

    The first half of the modes are particles, the second half
    antiparticles; charge is diagonal in the occupation basis.
    """
    _check_modes(n_modes)
    if n_modes % 2:
        raise ValueError("charge operator needs an even mode count")
    half = n_modes // 2
    diag = np.zeros(dimension(n_modes))
    for bits in range(dimension(n_modes)):
        q = 0
        for mode in range(n_modes):
            if bits >> mode & 1:
                q += 1 if mode < half else -1
        diag[bits] = q
    return np.diag(diag).astype(complex)


def spin_z_operator() -> np.ndarray:
    """z angular momentum for the four-mode layout (a_up, a_dn, b_up, b_dn).

    Spin-up modes weigh +1/2 and spin-down modes -1/2 for particles and
    antiparticles alike.
    """
    weights = (0.5, -0.5, 0.5, -0.5)
    diag = np.zeros(16)
    for bits in range(16):
        diag[bits] = sum(w for mode, w in enumerate(weights) if bits >> mode & 1)
    return np.diag(diag).astype(complex)


def outer_product(state: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
    """Pure density operator |psi><psi| of a normalized state."""
    state = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > tolerance:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {tolerance}")
    return np.outer(state, state.conj())


def _scatter_bits(value: int, positions: list[int]) -> int:
    out = 0
    for j, pos in enumerate(positions):
        if value >> j & 1:
            out |= 1 << pos
    return out


def partial_trace(rho: np.ndarray, keep, n_modes: int) -> np.ndarray:
    """Reduced density operator on a subset of modes.

    Pairs row/column indices through the little-endian bit encoding, so
    the reduced basis index packs the kept modes in increasing mode
    order.  Trace and Hermiticity are preserved; diagonal occupation
    probabilities are exact sums of the input diagonal.
    """
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep must be a nonempty set of modes")
    if keep[0] < 0 or keep[-1] >= n_modes:
        raise ValueError(f"keep {keep} is not a subset of range({n_modes})")
    rho = np.asarray(rho, dtype=complex)
    dim = dimension(n_modes)
    if rho.shape != (dim, dim):
        raise ValueError(f"operator shape {rho.shape} does not match {n_modes} modes")
    rest = [m for m in range(n_modes) if m not in keep]
    dim_keep = 1 << len(keep)
    reduced = np.zeros((dim_keep, dim_keep), dtype=complex)
    kept_base = np.array([_scatter_bits(k, keep) for k in range(dim_keep)])
    for rb in range(1 << len(rest)):
        idx = kept_base | _scatter_bits(rb, rest)
        reduced += rho[np.ix_(idx, idx)]
    return reduced


def validate_density_operator(rho: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
    """Raise if rho is not Hermitian, unit trace, and (almost) positive.

    Returns the ascending eigenvalues of the Hermitian part of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tolerance:
        raise ValueError(f"density operator not Hermitian: residual {herm}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tolerance:
        raise ValueError(f"density operator trace {tr} deviates from 1")
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if float(eigs.min()) < -tolerance:
        raise ValueError(f"density operator has negative eigenvalue {eigs.min()}")
    return eigs


EIGENVALUE_FLOOR = 1e-14


def von_neumann_entropy(rho: np.ndarray, tolerance: float = 1e-12) -> float:
    """Subsystem entropy -sum(l log2 l) in bits.

    The validated spectrum is clipped into [0, 1], so rounding (an
    eigenvalue of 1 + 1e-15, say) cannot make the entropy negative.
    Eigenvalues below 1e-14 count as exact zeros, implementing the
    0 log 0 = 0 convention in floating point.
    """
    eigs = np.clip(validate_density_operator(rho, tolerance), 0.0, 1.0)
    eigs = eigs[eigs > EIGENVALUE_FLOOR]
    return float(-np.sum(eigs * np.log2(eigs))) + 0.0  # +0.0 folds -0.0 into 0.0


def entropy_of_eigenvalues(eigenvalues) -> float:
    """Entropy in bits of a probability vector, with the 0 log 0 = 0 rule."""
    total = 0.0
    for lam in eigenvalues:
        if lam > EIGENVALUE_FLOOR:
            total -= lam * math.log2(lam)
    return total + 0.0
