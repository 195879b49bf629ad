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

``check_theta``, ``squeezing_angle`` and ``mu_nu_from_theta`` also take
a stack of theta matrices with leading batch axes, shape (..., n, n),
and check every item as they would check it alone; the coefficient-set
functions work on one set at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BogolyubovCoefficients",
    "Scenario",
    "ValidationReport",
    "check_density",
    "check_theta",
    "cross_term_identity",
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
    """Real amplitude ``a`` plus the 2x2 spin matrix ``beta``.

    The spinless case stores its single coefficient in the (up, down)
    entry with all other entries zero.
    """

    scenario: Scenario
    a: float
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=complex)
        if beta.shape != (2, 2):
            raise ValueError(f"beta must be 2x2, got {beta.shape}")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        if not 0.0 <= self.a <= 1.0 + 1e-12:
            raise ValueError(f"amplitude a={self.a} outside [0, 1]")


@dataclass(frozen=True)
class ValidationReport:
    """Named constraint residuals; passes iff all are within tolerance."""

    residuals: dict[str, float]
    tolerance: float = CONSTRAINT_TOLERANCE

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())

    @property
    def worst(self) -> float:
        return max(self.residuals.values())

    def failing(self) -> list[str]:
        return [name for name, r in self.residuals.items() if not r <= self.tolerance]


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
    beta = np.zeros((2, 2), dtype=complex)
    if scenario is Scenario.CHARGE_ONLY:
        diag = math.sqrt((1.0 - lam) * n / 4.0)
        off = math.sqrt(lam * n / 4.0)
        beta[UP, UP] = diag * np.exp(1j * (p1 + p4))
        beta[UP, DOWN] = off * np.exp(1j * (p2 + p4))
        beta[DOWN, DOWN] = diag * np.exp(1j * (p3 + p4))
        beta[DOWN, UP] = off * np.exp(1j * (p1 - p2 + p3 + math.pi + p4))
    elif scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        off = math.sqrt(n / 4.0)
        beta[UP, DOWN] = off * np.exp(1j * (p2 + p4))
        beta[DOWN, UP] = off * np.exp(1j * (p3 + p4))
    else:
        beta[UP, DOWN] = math.sqrt(n / 2.0) * np.exp(1j * (p1 + p4))
    return BogolyubovCoefficients(scenario=scenario, a=a, beta=beta)


def validate(coeffs: BogolyubovCoefficients,
             tolerance: float = CONSTRAINT_TOLERANCE) -> ValidationReport:
    """Residuals of every algebraic constraint on a coefficient set."""
    a2 = coeffs.a ** 2
    b = coeffs.beta
    residuals: dict[str, float] = {}
    if coeffs.scenario is Scenario.SPINLESS:
        residuals["normalization"] = abs(a2 + abs(b[UP, DOWN]) ** 2 - 1.0)
        residuals["sparsity"] = float(
            abs(b[UP, UP]) + abs(b[DOWN, UP]) + abs(b[DOWN, DOWN]))
        return ValidationReport(residuals, tolerance)
    residuals["norm_column_up"] = abs(a2 + abs(b[UP, UP]) ** 2 + abs(b[DOWN, UP]) ** 2 - 1.0)
    residuals["norm_column_down"] = abs(a2 + abs(b[UP, DOWN]) ** 2 + abs(b[DOWN, DOWN]) ** 2 - 1.0)
    residuals["norm_row_up"] = abs(a2 + abs(b[UP, UP]) ** 2 + abs(b[UP, DOWN]) ** 2 - 1.0)
    residuals["norm_row_down"] = abs(a2 + abs(b[DOWN, DOWN]) ** 2 + abs(b[DOWN, UP]) ** 2 - 1.0)
    residuals["modulus_pair_diagonal"] = abs(abs(b[UP, UP]) - abs(b[DOWN, DOWN]))
    residuals["modulus_pair_offdiagonal"] = abs(abs(b[UP, DOWN]) - abs(b[DOWN, UP]))
    residuals["orthogonality_rows"] = abs(
        b[UP, UP] * np.conj(b[UP, DOWN]) + b[DOWN, UP] * np.conj(b[DOWN, DOWN]))
    residuals["orthogonality_columns"] = abs(
        b[UP, UP] * np.conj(b[DOWN, UP]) + b[UP, DOWN] * np.conj(b[DOWN, DOWN]))
    if coeffs.scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        residuals["sparsity"] = float(abs(b[UP, UP]) + abs(b[DOWN, DOWN]))
    return ValidationReport(residuals, tolerance)


def cross_term_identity(coeffs: BogolyubovCoefficients) -> tuple[complex, complex]:
    """The two conjugate cross sums that kill the off-diagonal reduced terms.

    Both must vanish for any valid charge-only coefficient set; they are
    the combinations multiplying the spin-coherence entries of the
    reduced particle operator.
    """
    if coeffs.scenario is not Scenario.CHARGE_ONLY:
        raise ValueError("cross_term_identity applies to the charge-only scenario")
    b = coeffs.beta
    first = np.conj(b[UP, UP]) * b[DOWN, UP] + np.conj(b[UP, DOWN]) * b[DOWN, DOWN]
    second = np.conj(b[DOWN, UP]) * b[UP, UP] + b[UP, DOWN] * np.conj(b[DOWN, DOWN])
    return complex(first), complex(second)


def determinant_combination(coeffs: BogolyubovCoefficients) -> complex:
    """Conjugated determinant-like combination of the beta entries.

    For valid charge-only coefficients its modulus equals
    |beta_ud|**2 + |beta_uu|**2; the overall phase is free and therefore
    returned, never assumed.
    """
    if coeffs.scenario is not Scenario.CHARGE_ONLY:
        raise ValueError("determinant_combination applies to the charge-only scenario")
    b = coeffs.beta
    return complex(np.conj(b[DOWN, UP]) * np.conj(b[UP, DOWN])
                   - np.conj(b[DOWN, DOWN]) * np.conj(b[UP, UP]))


def _angle_over_sine(a: float) -> float:
    # arccos(a)/sin(arccos(a)); -> 1 as a -> 1, pi/2 at a = 0
    if a >= 1.0 - 1e-9:
        return 1.0 + (1.0 - a) / 3.0
    return math.acos(a) / math.sqrt(1.0 - a * a)


def theta_from_coefficients(coeffs: BogolyubovCoefficients) -> np.ndarray:
    """Antisymmetric generator matrix of the squeezing unitary.

    theta = -(arccos a / sin arccos a) * nu, with nu from
    :func:`expected_pair_mixing`, the one home of the beta -> mode-pair
    layout: entry (i, j) couples particle mode i to antiparticle mode j
    through a pair-creation term.  The validation gate
    ``THETA_CHECK_TOLERANCE`` is loose so that numerically dressed
    coefficient sets (constraints satisfied to integration accuracy) are
    accepted; exact sets pass the tight check in :func:`validate`.
    """
    report = validate(coeffs, tolerance=THETA_CHECK_TOLERANCE)
    if not report.passed:
        raise ValueError(f"invalid coefficients, failing constraints: {report.failing()}")
    return -_angle_over_sine(min(coeffs.a, 1.0)) * expected_pair_mixing(coeffs)[1]


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


def squeezing_angle(theta: np.ndarray) -> float | np.ndarray:
    """Scalar polar radius r with |theta| = r * identity.

    Raises if theta^dag theta is not a multiple of the identity, which
    would invalidate the closed-form factorization downstream.  A stack
    of shape (..., n, n) gives an array of radii of shape (...), and
    raises if any item is not scalar.
    """
    theta = np.asarray(theta, dtype=complex)
    gram = theta.conj().swapaxes(-1, -2) @ theta
    r2 = gram.diagonal(axis1=-2, axis2=-1).real.mean(axis=-1)
    deviation = np.abs(gram - r2[..., np.newaxis, np.newaxis] * np.eye(theta.shape[-1])).max(
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
    theta^dag theta overflows, which a finite but huge theta can do.
    """
    theta = check_theta(theta)
    gram = theta.conj().swapaxes(-1, -2) @ theta
    if not np.isfinite(gram).all():
        raise ValueError("theta^dag theta overflows")
    eigs, vecs = np.linalg.eigh(gram)
    radii = np.sqrt(np.clip(eigs, 0.0, None))[..., np.newaxis, :]
    mu = (vecs * np.cos(radii)) @ vecs.conj().swapaxes(-1, -2)
    sinc = np.sinc(radii / math.pi)  # sin(r)/r with the r = 0 limit built in
    nu = -((vecs * sinc) @ vecs.conj().swapaxes(-1, -2)) @ theta
    return mu, nu


def expected_pair_mixing(coeffs: BogolyubovCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (mu, nu) pair for a coefficient set.

    This is the one home of the beta -> mode-pair layout.  mu is a times
    the identity; nu carries conj(beta) in the particle-antiparticle
    block (rows particle modes, columns antiparticle modes) and minus its
    transpose below; the spinless case keeps only conj(beta[up, down]).
    :func:`theta_from_coefficients` returns
    theta = -(arccos a / sin arccos a) * nu.
    """
    n = coeffs.scenario.n_modes
    mu = coeffs.a * np.eye(n, dtype=complex)
    nu = np.zeros((n, n), dtype=complex)
    b = coeffs.beta
    if coeffs.scenario is Scenario.SPINLESS:
        nu[0, 1] = np.conj(b[UP, DOWN])
        nu[1, 0] = -np.conj(b[UP, DOWN])
        return mu, nu
    block = np.conj(b)
    nu[0:2, 2:4] = block
    nu[2:4, 0:2] = -block.T
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
