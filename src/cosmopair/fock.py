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

Stacks: ``outer_product`` takes states with leading batch axes, shape
(..., d); ``validate_density_operator`` and ``von_neumann_entropy`` take
operators (..., d, d), ``entropy_of_eigenvalues`` probability vectors
(..., d), and ``subsystem_entropy`` states (..., d).  Each item passes the
same checks it would pass alone, one bad item raises the error the
unstacked call raises, and one operator, vector or state still gives one
float.  ``partial_trace`` takes one operator.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_MODES = 8

# Gate on state norms and on density-operator Hermiticity, trace and positivity.
STATE_TOLERANCE = 1e-12

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
    "subsystem_entropy",
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
def ladder_operators(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (annihilators, creators) for all modes; read-only stacks.

    Each stack has shape (n_modes, 2**n, 2**n), so ``lowering[i]`` is the
    annihilator of mode i, and reshaped to (n_modes, 4**n) the stack
    contracts with a flattened matrix in one matrix product.
    """
    lowering = np.stack([annihilation_operator(mode, n_modes) for mode in range(n_modes)])
    raising = lowering.conj().transpose(0, 2, 1).copy()
    lowering.flags.writeable = False
    raising.flags.writeable = False
    return lowering, raising


def basis_state(bits: int, n_modes: int) -> np.ndarray:
    _check_modes(n_modes)
    dim = dimension(n_modes)
    if not 0 <= bits < dim:
        raise ValueError(f"basis index {bits} out of range for {n_modes} modes")
    state = np.zeros(dim, dtype=complex)
    state[bits] = 1.0
    return state


def _weighted_occupation(weights) -> np.ndarray:
    """Diagonal operator sum_i weights[i] * n_i over len(weights) modes."""
    n_modes = len(weights)
    # The bits are read in Python: numpy's integer shift and integer-float
    # product loops add about 0.3 MB of resident memory to a process the
    # first time they run, and every sweep and dynamics run reads its
    # charge sector from here.
    bits = np.array([[k >> i & 1 for i in range(n_modes)] for k in range(dimension(n_modes))],
                    dtype=float)
    return np.diag(bits @ np.asarray(weights, dtype=float)).astype(complex)


def charge_operator(n_modes: int) -> np.ndarray:
    """Particle number minus antiparticle number.

    The first half of the modes are particles, the second half
    antiparticles; charge is diagonal in the occupation basis.
    """
    _check_modes(n_modes)
    if n_modes % 2:
        raise ValueError("charge operator needs an even mode count")
    half = n_modes // 2
    return _weighted_occupation((1.0,) * half + (-1.0,) * half)


def spin_z_operator() -> np.ndarray:
    """z angular momentum for the four-mode layout (a_up, a_dn, b_up, b_dn).

    Spin-up modes weigh +1/2 and spin-down modes -1/2 for particles and
    antiparticles alike.
    """
    return _weighted_occupation((0.5, -0.5, 0.5, -0.5))


def _check(ok, values, message: str) -> None:
    """Raise ValueError(message) naming the value of the first item where ok is False.

    Each caller writes ``ok`` as "within", so a NaN value fails it.
    """
    # A single item's gate is a numpy scalar, whose .all() costs more than the gate.
    if not (ok.all() if ok.ndim else ok):
        raise ValueError(message.format(np.asarray(values)[~ok][0].item()))


def outer_product(state: np.ndarray) -> np.ndarray:
    """Pure density operator |psi><psi| of a normalized state (d,), or (..., d, d) of a stack."""
    state = np.asarray(state, dtype=complex)
    norms = np.sqrt(np.sum(np.abs(state) ** 2, axis=-1))
    _check(np.abs(norms - 1.0) <= STATE_TOLERANCE, norms,
           f"state norm {{}} deviates from 1 beyond {STATE_TOLERANCE}")
    return state[..., :, np.newaxis] * state.conj()[..., np.newaxis, :]


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density operator on a subset of modes.

    rho must be a (2**n, 2**n) operator with n >= 1; n is read from its
    shape.  Pairs row/column indices through the little-endian bit
    encoding, so the reduced basis index packs the kept modes in
    increasing mode order.  Trace and Hermiticity are preserved; diagonal
    occupation probabilities are exact sums of the input diagonal.

    rho is reshaped to a tensor of 2n binary axes, n row axes then n
    column axes.  The reshape is row-major, so bit i of a basis index
    (the occupation of mode i) is axis n-1-i of its half; the traced
    modes share a label between their row and column axes and are summed
    in one ``einsum``.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    n_modes = dim.bit_length() - 1
    if rho.shape != (dim, dim) or n_modes < 1 or dimension(n_modes) != dim:
        raise ValueError(f"operator shape {rho.shape} is not (2**n, 2**n) with n >= 1")
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep must be a nonempty set of modes")
    if keep[0] < 0 or keep[-1] >= n_modes:
        raise ValueError(f"keep {keep} is not a subset of range({n_modes})")
    if len(keep) == n_modes:
        return rho.copy()
    # Bit i of an index maps to tensor axis n-1-i (row half) and 2n-1-i
    # (column half).  Mode m labels its row axis m and its column axis
    # n + m; a traced mode reuses its row label on the column axis.
    axis_modes = range(n_modes - 1, -1, -1)
    row_labels = list(axis_modes)
    col_labels = [n_modes + m if m in keep else m for m in axis_modes]
    out_labels = list(reversed(keep)) + [n_modes + m for m in reversed(keep)]
    dim_keep = dimension(len(keep))
    reduced = np.einsum(rho.reshape((2,) * (2 * n_modes)), row_labels + col_labels,
                        out_labels)
    return reduced.reshape(dim_keep, dim_keep)


def validate_density_operator(rho: np.ndarray) -> np.ndarray:
    """Raise if rho is not Hermitian, unit trace, and (almost) positive.

    Returns the ascending eigenvalues of the Hermitian part of rho, shape
    (..., d) for a stack (..., d, d).  Each gate runs over the whole
    stack before the next, and each is written as "within", so a NaN
    entry fails the first one instead of reaching the eigensolver.
    """
    rho = np.asarray(rho, dtype=complex)
    adjoint = rho.conj().swapaxes(-1, -2)
    herm = np.abs(rho - adjoint).max(axis=(-2, -1))
    _check(herm <= STATE_TOLERANCE, herm, "density operator not Hermitian: residual {}")
    tr = rho.diagonal(0, -2, -1).sum(axis=-1)
    _check(np.abs(tr - 1.0) <= STATE_TOLERANCE, tr, "density operator trace {} deviates from 1")
    eigs = np.linalg.eigvalsh((rho + adjoint) / 2)
    lowest = eigs[..., 0]   # eigvalsh sorts ascending
    _check(lowest >= -STATE_TOLERANCE, lowest, "density operator has negative eigenvalue {}")
    return eigs


EIGENVALUE_FLOOR = 1e-14


def von_neumann_entropy(rho: np.ndarray):
    """Subsystem entropy -sum(l log2 l) in bits: a float, or an array for a stack (..., d, d).

    The validated spectrum is clipped into [0, 1], so rounding (an
    eigenvalue of 1 + 1e-15, say) cannot make the entropy negative, and
    the result is capped at log2(d), the entropy of the maximally mixed
    state, which rounding would otherwise exceed by an ulp.  The sum is
    :func:`entropy_of_eigenvalues`, whose floor implements the 0 log 0 = 0
    convention in floating point.
    """
    eigs = np.clip(validate_density_operator(rho), 0.0, 1.0)
    entropy = np.minimum(entropy_of_eigenvalues(eigs), math.log2(eigs.shape[-1]))
    return float(entropy) if entropy.ndim == 0 else entropy


def subsystem_entropy(states: np.ndarray, keep):
    """Entropy in bits of the modes ``keep`` of a normalized pure state, per state of a stack.

    A state of length 2**n (n >= 1) gives a float, a stack (..., 2**n) an
    array (...).  Forms every |psi><psi| in one call, traces out every
    other mode state by state, and diagonalizes the reduced operators in
    one call; both halves of a pure state share this entropy.  An empty
    stack gives an empty array, with keep still checked.
    """
    rho = outer_product(states)
    items = rho.reshape(-1, *rho.shape[-2:])
    # An empty stack traces one zero operator and keeps none of the result,
    # so that keep is still checked and the reduced axes get their size.
    reduced = np.array([partial_trace(item, keep) for item in items]
                       or [partial_trace(np.zeros(rho.shape[-2:]), keep)])[:len(items)]
    return von_neumann_entropy(reduced.reshape(*rho.shape[:-2], *reduced.shape[-2:]))


def entropy_of_eigenvalues(eigenvalues):
    """Entropy in bits of a probability vector, with the 0 log 0 = 0 rule.

    A vector (d,) gives a float; a stack (..., d) gives an array (...).
    Entries at or below ``EIGENVALUE_FLOOR`` count as exact zeros.
    Raises ValueError for an entry that is NaN or outside [0, 1].

    The sum runs over Python floats: the callers pass a handful of
    entries per vector, where a numpy expression costs ten times more.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    totals = []
    for row in eigs.reshape(math.prod(eigs.shape[:-1]), eigs.shape[-1]).tolist():
        total = 0.0
        for lam in row:
            # Written as "not within" so that a NaN entry fails the gate.
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"eigenvalue {lam} outside [0, 1]")
            if lam > EIGENVALUE_FLOOR:
                total -= lam * math.log2(lam)
        totals.append(total)
    return totals[0] if eigs.ndim == 1 else np.array(totals).reshape(eigs.shape[:-1])
