"""Bogoliubov coefficient sets and their antisymmetric generator matrices.

A transformation mixing in/out fermion ladder operators at fixed momentum
is described by a real amplitude ``a`` and a 2x2 complex matrix ``beta``
whose rows/columns are indexed by spin (up, down).  Canonical
anticommutation forces the normalization and orthogonality constraints
checked by :func:`validate`; three sparsity patterns of ``beta``
correspond to the three conservation scenarios.

The generator matrix theta is antisymmetric with zero diagonal and pairs
particle modes with antiparticle modes.  For every valid coefficient set
its polar modulus |theta| = sqrt(theta^dag theta) is a multiple r of the
identity with cos r = a, which is what makes the closed-form
factorization of the squeezing unitary possible.

Stacks: a ``BogolyubovCoefficients`` may hold leading batch axes, ``a``
of shape (...) and ``beta`` of shape (..., 2, 2), one scenario for all;
``BogolyubovCoefficients.stack`` builds one from single sets.
``validate``, ``determinant_combination``, ``expected_pair_mixing``
and ``theta_from_coefficients`` take such a stack, and ``check_theta``,
``squeezing_angle`` and ``mu_nu_from_theta`` a stack of theta matrices
(..., n, n).  Each item passes the checks it would pass alone, one bad
item raises the error the unstacked call raises, and one set still gives
the unstacked result.  ``from_density`` and ``random_coefficients``
build one set.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BogolyubovCoefficients",
    "Scenario",
    "ValidationReport",
    "check_density",
    "check_theta",
    "determinant_combination",
    "expected_pair_mixing",
    "from_density",
    "mu_nu_from_theta",
    "random_coefficients",
    "squeezing_angle",
    "theta_from_coefficients",
    "validate",
]

CONSTRAINT_TOLERANCE = 1e-12
# Loose gate of theta_from_coefficients: numerically dressed coefficient
# sets satisfy the constraints only to integration accuracy.
THETA_CHECK_TOLERANCE = 1e-6
# Relative deviation of theta^dag theta from r**2 * identity that
# squeezing_angle accepts.
SCALAR_MODULUS_TOLERANCE = 1e-10
# random_coefficients keeps n below this fraction of n_max, so a stays
# bounded away from zero and the factorized route well conditioned.
RANDOM_DENSITY_FRACTION_MAX = 0.995

UP, DOWN = 0, 1


class Scenario(enum.Enum):
    """Conservation scenario selecting mode count and beta sparsity."""

    CHARGE_ONLY = "charge"
    CHARGE_AND_ANGULAR_MOMENTUM = "spin-am"
    SPINLESS = "spinless"

    @property
    def n_modes(self) -> int:
        return 2 if self is Scenario.SPINLESS else 4

    @property
    def n_max(self) -> float:
        """Largest total created-particle density (particles + antiparticles)."""
        return float(self.n_modes)

    @property
    def particle_modes(self) -> tuple[int, ...]:
        return (0,) if self is Scenario.SPINLESS else (0, 1)

    @property
    def antiparticle_modes(self) -> tuple[int, ...]:
        return (1,) if self is Scenario.SPINLESS else (2, 3)

    def split_occupation(self, occupation: int) -> tuple[int, int]:
        """(particle bits, antiparticle bits) of a basis index.

        Particle modes come first, so the particle bits are the low
        ``len(particle_modes)`` bits of the index.
        """
        if not 0 <= occupation < 1 << self.n_modes:
            raise ValueError(f"occupation {occupation} out of range for {self.n_modes} modes")
        width = len(self.particle_modes)
        return occupation & ((1 << width) - 1), occupation >> width

    def join_occupation(self, particle_bits: int, antiparticle_bits: int) -> int:
        """Basis index of the given particle and antiparticle bits."""
        return particle_bits | antiparticle_bits << len(self.particle_modes)


@dataclass(frozen=True, eq=False)
class BogolyubovCoefficients:
    """Real amplitude ``a`` plus the 2x2 spin matrix ``beta``, or a stack of them.

    One set holds a float ``a`` and a (2, 2) ``beta``; a stack holds an
    array ``a`` of shape (...) and ``beta`` of shape (..., 2, 2), both
    read-only.  The spinless case stores its single coefficient in the
    (up, down) entry with all other entries zero.
    """

    scenario: Scenario
    a: float | np.ndarray
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=complex)
        if beta.shape[-2:] != (2, 2):
            raise ValueError(f"beta must be 2x2, got {beta.shape}")
        a = np.array(self.a, dtype=float)
        if a.shape != beta.shape[:-2]:
            raise ValueError(f"a of shape {a.shape} does not match the beta stack {beta.shape}")
        # Checked over Python floats: a numpy comparison costs more than the
        # whole loop for the one set that from_density builds per point.
        for value in a.reshape(-1).tolist():
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"amplitude a={value} outside [0, 1]")
        beta.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "a", float(a) if a.ndim == 0 else a)

    @classmethod
    def stack(cls, sets: Iterable[BogolyubovCoefficients]) -> BogolyubovCoefficients:
        """One stack of shape (len(sets),) from a nonempty sequence of sets of one scenario."""
        sets = list(sets)
        if not sets:
            raise ValueError("a stack needs at least one coefficient set")
        scenario = sets[0].scenario
        if any(c.scenario is not scenario for c in sets):
            raise ValueError("coefficient sets of one stack must share a scenario")
        return cls(scenario, np.array([c.a for c in sets]), np.array([c.beta for c in sets]))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Constraint residuals of one set or a stack; passes iff all are within tolerance.

    ``table`` has shape (..., len(names)): one row of residuals per set,
    in the order of ``names``.  A NaN residual fails.
    """

    names: tuple[str, ...]
    table: np.ndarray
    tolerance: float = CONSTRAINT_TOLERANCE

    @property
    def residuals(self) -> dict[str, float | np.ndarray]:
        """Residual per constraint name: a float for one set, an array (...) for a stack."""
        columns = np.moveaxis(self.table, -1, 0)
        return {name: float(c) if c.ndim == 0 else c for name, c in zip(self.names, columns)}

    @property
    def passed(self) -> bool:
        return bool((self.table <= self.tolerance).all())

    @property
    def worst(self) -> float:
        return float(self.table.max())

    def failing(self) -> list[str]:
        """Constraints broken by the first set that breaks any; empty when all pass."""
        bad = ~(self.table <= self.tolerance).reshape(-1, len(self.names))
        broken = bad.any(axis=1)
        if not broken.any():
            return []
        return [name for name, b in zip(self.names, bad[broken.argmax()]) if b]


def check_density(n: float, lam: float, scenario: Scenario) -> None:
    """Raise ValueError unless 0 <= n <= n_max and 0 <= lam <= 1 (NaN fails)."""
    if not 0.0 <= n <= scenario.n_max:
        raise ValueError(f"density {n} outside [0, {scenario.n_max}] for {scenario.value}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")


def from_density(scenario: Scenario, n: float, lam: float = 0.5,
                 phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
                 ) -> BogolyubovCoefficients:
    """Coefficient set realizing a given created-particle density.

    n is the total created-particle density in [0, n_max]; lam in [0, 1]
    splits pair creation between the spin-preserving and spin-flip
    channels and is read by the charge-only scenario alone; phases
    supplies four angles, three free entry phases plus one overall phase.

    a**2 = (n_max - n)/n_max in every scenario.  Charge-only splits the
    per-channel moduli as |beta_uu|**2 = |beta_dd|**2 = (1-lam) n/4 and
    |beta_ud|**2 = |beta_du|**2 = lam n/4; the up-up, up-down and
    down-down phases come from ``phases[:3]`` (all shifted by the
    overall ``phases[3]``) and the down-up phase is solved from the
    orthogonality constraint.  When a channel modulus vanishes the same
    formula is kept, which satisfies the then-vacuous constraint.
    """
    n_max = scenario.n_max
    n = float(n)
    lam = float(lam)
    check_density(n, lam, scenario)
    if len(phases) != 4:
        raise ValueError("phases must supply four angles")
    p1, p2, p3, p4 = (float(p) for p in phases)
    a = math.sqrt((n_max - n) / n_max)
    # Python complex throughout, converted once by BogolyubovCoefficients:
    # numpy scalar exps, products and item writes cost more per point, and
    # cmath.exp matched numpy's exp bit for bit on 10**4 seeded draws.
    beta = [[0j, 0j], [0j, 0j]]
    if scenario is Scenario.CHARGE_ONLY:
        diag = math.sqrt((1.0 - lam) * n / 4.0)
        off = math.sqrt(lam * n / 4.0)
        beta[UP][UP] = diag * cmath.exp(1j * (p1 + p4))
        beta[UP][DOWN] = off * cmath.exp(1j * (p2 + p4))
        beta[DOWN][DOWN] = diag * cmath.exp(1j * (p3 + p4))
        beta[DOWN][UP] = off * cmath.exp(1j * (p1 - p2 + p3 + math.pi + p4))
    elif scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        off = math.sqrt(n / 4.0)
        beta[UP][DOWN] = off * cmath.exp(1j * (p2 + p4))
        beta[DOWN][UP] = off * cmath.exp(1j * (p3 + p4))
    else:
        beta[UP][DOWN] = math.sqrt(n / 2.0) * cmath.exp(1j * (p1 + p4))
    return BogolyubovCoefficients(scenario=scenario, a=a, beta=beta)


_SPINLESS_RESIDUALS = ("normalization", "sparsity")
_SPINFUL_RESIDUALS = ("norm_column_up", "norm_column_down", "norm_row_up", "norm_row_down",
                      "modulus_pair_diagonal", "modulus_pair_offdiagonal",
                      "orthogonality_rows", "orthogonality_columns")
# Index pairs into beta flattened row-major to (uu, ud, du, dd), one column
# per residual: the two squared moduli that each norm adds to a**2 (column
# up, column down, row up, row down); the moduli of each pair (|uu| - |dd|,
# |ud| - |du|); and the two products x conj(y) that each orthogonality sums,
# rows (uu conj(ud), du conj(dd)) then columns (uu conj(du), ud conj(dd)).
_NORM_TERMS = np.array([[0, 1, 0, 3], [2, 3, 1, 2]])
_MODULUS_PAIRS = np.array([[0, 1], [3, 2]])
_ORTHOGONALITY_FACTORS = np.array([[0, 2, 0, 1], [1, 3, 2, 3]])


def validate(coeffs: BogolyubovCoefficients,
             tolerance: float = CONSTRAINT_TOLERANCE) -> ValidationReport:
    """Residuals of every algebraic constraint on a coefficient set or stack."""
    a2 = np.square(coeffs.a)[..., np.newaxis]
    b = coeffs.beta.reshape(*coeffs.beta.shape[:-2], 4)
    moduli = np.abs(b)
    squares = moduli ** 2
    if coeffs.scenario is Scenario.SPINLESS:
        columns = [np.abs(a2 + squares[..., 1:2] - 1.0),
                   moduli[..., 0:1] + moduli[..., 2:3] + moduli[..., 3:4]]
        return ValidationReport(_SPINLESS_RESIDUALS, np.concatenate(columns, axis=-1), tolerance)
    norms = squares.take(_NORM_TERMS, axis=-1)
    pairs = moduli.take(_MODULUS_PAIRS, axis=-1)
    factors = b.take(_ORTHOGONALITY_FACTORS, axis=-1)
    products = factors[..., 0, :] * factors[..., 1, :].conj()
    columns = [np.abs(a2 + norms[..., 0, :] + norms[..., 1, :] - 1.0),
               np.abs(pairs[..., 0, :] - pairs[..., 1, :]),
               np.abs(products[..., 0::2] + products[..., 1::2])]
    names = _SPINFUL_RESIDUALS
    if coeffs.scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        names += ("sparsity",)
        columns.append(moduli[..., 0:1] + moduli[..., 3:4])
    return ValidationReport(names, np.concatenate(columns, axis=-1), tolerance)


def determinant_combination(coeffs: BogolyubovCoefficients) -> complex | np.ndarray:
    """Conjugated determinant-like combination of the beta entries.

    For valid charge-only coefficients its modulus equals
    |beta_ud|**2 + |beta_uu|**2; the overall phase is free and therefore
    returned, never assumed.  A stack gives an array (...).
    """
    if coeffs.scenario is not Scenario.CHARGE_ONLY:
        raise ValueError("determinant_combination applies to the charge-only scenario")
    b = coeffs.beta
    value = (np.conj(b[..., DOWN, UP]) * np.conj(b[..., UP, DOWN])
             - np.conj(b[..., DOWN, DOWN]) * np.conj(b[..., UP, UP]))
    return value.item() if value.ndim == 0 else value


def _angle_over_sine(a) -> np.ndarray:
    """arccos(a)/sin(arccos(a)) per item of a, capped at a = 1; -> 1 as a -> 1, pi/2 at a = 0.

    Evaluated over Python floats: numpy's arccos and ``math.acos`` differ
    in the last bit for about one argument in ten.
    """
    a = np.asarray(a, dtype=float)
    values = [1.0 + (1.0 - x) / 3.0 if x >= 1.0 - 1e-9 else math.acos(x) / math.sqrt(1.0 - x * x)
              for x in np.minimum(a, 1.0).reshape(-1).tolist()]
    return np.array(values).reshape(a.shape)


def theta_from_coefficients(coeffs: BogolyubovCoefficients) -> np.ndarray:
    """Antisymmetric generator matrix of the squeezing unitary, (n, n) or (..., n, n).

    theta = -(arccos a / sin arccos a) * nu, with nu from
    :func:`expected_pair_mixing`, the one home of the beta -> mode-pair
    layout: entry (i, j) couples particle mode i to antiparticle mode j
    through a pair-creation term.  The validation gate
    ``THETA_CHECK_TOLERANCE`` is loose so that numerically dressed
    coefficient sets (constraints satisfied to integration accuracy) are
    accepted; exact sets pass the tight check in :func:`validate`.  A
    stack raises for its first invalid item, with that item's message.
    """
    report = validate(coeffs, tolerance=THETA_CHECK_TOLERANCE)
    if not report.passed:
        raise ValueError(f"invalid coefficients, failing constraints: {report.failing()}")
    scale = _angle_over_sine(coeffs.a)
    return -scale[..., np.newaxis, np.newaxis] * expected_pair_mixing(coeffs)[1]


def check_theta(theta: np.ndarray) -> np.ndarray:
    """theta as a complex array; raises unless it is an antisymmetric 2x2 or 4x4 matrix.

    A stack of shape (..., n, n) passes only if every item does; the
    antisymmetry tolerance scales with each item's own largest entry.
    """
    theta = np.asarray(theta, dtype=complex)
    if theta.ndim < 2 or theta.shape[-1] != theta.shape[-2] or theta.shape[-1] not in (2, 4):
        raise ValueError(f"theta must be a 2x2 or 4x4 matrix, got {theta.shape}")
    scale = np.maximum(1.0, np.abs(theta).max(axis=(-2, -1)))
    asymmetry = np.abs(theta + theta.swapaxes(-1, -2)).max(axis=(-2, -1))
    # Written as "not within" so that a NaN entry fails the gate.
    if not (asymmetry <= 1e-12 * scale).all():
        raise ValueError("theta must be antisymmetric")
    return theta


def _finite_gram(theta: np.ndarray) -> np.ndarray:
    """theta^dag theta; raises ValueError, not a warning, unless it and its trace are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = theta.conj().swapaxes(-1, -2) @ theta
        trace = gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    if not (np.isfinite(gram).all() and np.isfinite(trace).all()):
        raise ValueError("theta^dag theta is not finite")
    return gram


def squeezing_angle(theta: np.ndarray) -> float | np.ndarray:
    """Scalar polar radius r with |theta| = r * identity.

    Raises if theta^dag theta is not a multiple of the identity, which
    would invalidate the closed-form factorization downstream.  A stack
    of shape (..., n, n) gives an array of radii of shape (...), and
    raises if any item is not scalar.  Raises when theta^dag theta or its
    trace is not finite, which a NaN or a finite but huge theta gives.
    """
    gram = _finite_gram(np.asarray(theta, dtype=complex))
    r2 = gram.diagonal(axis1=-2, axis2=-1).real.mean(axis=-1)
    deviation = np.abs(gram - r2[..., np.newaxis, np.newaxis] * np.eye(gram.shape[-1])).max(
        axis=(-2, -1))
    bad = ~(deviation <= SCALAR_MODULUS_TOLERANCE * np.maximum(1.0, r2))
    if bad.any():
        raise ValueError(f"|theta| is not scalar: deviation {float(deviation[bad].max())}")
    radius = np.sqrt(np.maximum(r2, 0.0))
    return float(radius) if radius.ndim == 0 else radius


def mu_nu_from_theta(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ladder-mixing matrices (mu, nu) generated by theta.

    mu = cos|theta| and nu = -sin|theta| |theta|^-1 theta, evaluated
    through the Hermitian eigendecomposition of theta^dag theta; the
    sin(x)/x factor extends analytically through singular |theta|.  A
    stack of shape (..., n, n) gives stacks of mu and nu.  Raises when
    theta^dag theta or its trace is not finite, which a finite but huge
    theta can give.
    """
    theta = check_theta(theta)
    eigs, vecs = np.linalg.eigh(_finite_gram(theta))
    radii = np.sqrt(np.clip(eigs, 0.0, None))[..., np.newaxis, :]
    mu = (vecs * np.cos(radii)) @ vecs.conj().swapaxes(-1, -2)
    sinc = np.sinc(radii / math.pi)  # sin(r)/r with the r = 0 limit built in
    nu = -((vecs * sinc) @ vecs.conj().swapaxes(-1, -2)) @ theta
    return mu, nu


def expected_pair_mixing(coeffs: BogolyubovCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (mu, nu) pair for a coefficient set: (n, n) each, or (..., n, n) for a stack.

    This is the one home of the beta -> mode-pair layout.  mu is a times
    the identity; nu carries conj(beta) in the particle-antiparticle
    block (rows particle modes, columns antiparticle modes) and minus its
    transpose below; the spinless case keeps only conj(beta[up, down]).
    :func:`theta_from_coefficients` returns
    theta = -(arccos a / sin arccos a) * nu.
    """
    n = coeffs.scenario.n_modes
    a = np.asarray(coeffs.a)
    mu = a[..., np.newaxis, np.newaxis] * np.eye(n, dtype=complex)
    nu = np.zeros((*a.shape, n, n), dtype=complex)
    block = np.conj(coeffs.beta)
    if coeffs.scenario is Scenario.SPINLESS:
        nu[..., 0, 1] = block[..., UP, DOWN]
        nu[..., 1, 0] = -block[..., UP, DOWN]
        return mu, nu
    nu[..., 0:2, 2:4] = block
    nu[..., 2:4, 0:2] = -block.swapaxes(-1, -2)
    return mu, nu


def random_coefficients(scenario: Scenario,
                        rng: np.random.Generator) -> BogolyubovCoefficients:
    """Random valid coefficient set for property and oracle tests.

    The density stays below ``RANDOM_DENSITY_FRACTION_MAX * n_max`` so the
    amplitude a is bounded away from zero and the factorized application
    remains well conditioned.
    """
    n = float(rng.uniform(0.0, RANDOM_DENSITY_FRACTION_MAX * scenario.n_max))
    lam = float(rng.uniform(0.0, 1.0))
    phases = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=4))
    return from_density(scenario, n, lam, phases)
