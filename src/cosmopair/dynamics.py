"""Mode-equation dynamics: from a scale-factor profile to coefficients.

Each momentum mode obeys the second-order complex equation

    f'' + (|p|**2 + M(tau)**2 - i M'(tau)) f = 0,     M(tau) = m a(tau),

for the branch that feeds the scalar mixing amplitudes; the opposite
imaginary sign belongs to the conjugate branch, whose complex conjugate
solves the same equation and supplies the Wronskian check.  Positive
frequency at early times fixes f = exp(-i E_in tau).  Matching the late
solution onto A exp(-i E_out tau) + B exp(+i E_out tau) yields the
scalar amplitudes, which are dressed into a full coefficient set with
the flat-spinor contraction and kinematic square roots; the identity
a**2 + sum |beta|**2 = 1 then holds to integration accuracy, which is
the end-to-end correctness monitor.

Gamma-matrix representation: gamma0 = -i diag(1, 1, -1, -1) and spatial
gammas off-diagonal Pauli blocks, so the positive/negative energy flat
spinors are the first/last two coordinate vectors and the contraction
v+ (gamma . p) u reduces to the transposed Pauli matrix sigma . p.  Any
other representation changes beta by a spin rotation that entropies
cannot see; the row-norm identity |row|**2 = |p|**2 is the
representation-independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cosmopair.bogoliubov import (
    DOWN,
    UP,
    BogolyubovCoefficients,
    Scenario,
    validate,
)

__all__ = [
    "DressingResult",
    "IntegrationError",
    "ModeParameters",
    "ModeSolution",
    "ScalarBogolyubov",
    "ScaleFactorProfile",
    "asymptotic_energies",
    "check_point_tolerance",
    "check_tolerance",
    "default_tau_span",
    "dress_coefficients",
    "extract_scalar_coefficients",
    "integrate_mode",
    "momentum_point",
    "MomentumPointResult",
    "particle_density",
    "spinor_contraction",
]

TOL_MIN, TOL_MAX = 1e-12, 1e-6
# momentum_point repeats each integration at tol / REFINEMENT for its
# self-convergence diagnostic.
REFINEMENT = 2.0
# Evenly spaced samples of an integrated mode across its span.
N_SAMPLES = 241
# Out-region energies below this make a mode degenerate: no plane waves to match.
MIN_OUT_ENERGY = 1e-9


class IntegrationError(RuntimeError):
    """The mode integration failed or left its validity domain."""


@dataclass(frozen=True)
class ScaleFactorProfile:
    """Conformal scale factor with flat asymptotics.

    The smooth-step family has a(tau)**2 = 1 + epsilon (1 + tanh(rho
    tau)), interpolating between 1 and 1 + 2 epsilon; the constant
    family a(tau) = a0 is the no-creation control.  The parameters of
    the chosen family must be positive and finite, and for the smooth
    step 2 epsilon (in a_out) and 2 rho (in the span) must be finite
    too.  The methods take a float tau and return Python floats
    (``math``, not numpy: the mode-equation right-hand side calls them
    at every solver stage).
    """

    kind: str
    a0: float = 1.0
    epsilon: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "tanh"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        # Written as "not 0 < x < inf" so that NaN and inf fail too.
        if self.kind == "constant" and not 0 < self.a0 < math.inf:
            raise ValueError(f"constant profile needs a0 > 0 and finite, got {self.a0}")
        if self.kind == "tanh" and not (0 < 2.0 * self.epsilon < math.inf
                                        and 0 < 2.0 * self.rho < math.inf):
            raise ValueError("tanh profile needs epsilon > 0 and rho > 0, with 2 epsilon "
                             f"and 2 rho finite, got {self.epsilon} and {self.rho}")

    @classmethod
    def constant(cls, a0: float = 1.0) -> "ScaleFactorProfile":
        return cls(kind="constant", a0=a0)

    @classmethod
    def smooth_step(cls, epsilon: float, rho: float) -> "ScaleFactorProfile":
        return cls(kind="tanh", epsilon=epsilon, rho=rho)

    def a(self, tau: float) -> float:
        if self.kind == "constant":
            return self.a0
        return math.sqrt(1.0 + self.epsilon * (1.0 + math.tanh(self.rho * tau)))

    @property
    def a_in(self) -> float:
        return self.a0 if self.kind == "constant" else 1.0

    @property
    def a_out(self) -> float:
        return self.a0 if self.kind == "constant" else math.sqrt(1.0 + 2.0 * self.epsilon)

    def mass_and_rate(self, tau: float, m: float) -> tuple[float, float]:
        """(M, dM/dtau) with M = m a(tau), from one evaluation of a(tau).

        The rate is overflow-safe for large |rho tau|.
        """
        a = self.a(tau)
        if self.kind == "constant":
            return m * a, 0.0
        expo = math.exp(-2.0 * abs(self.rho * tau))
        sech2 = 4.0 * expo / (1.0 + expo) ** 2
        return m * a, m * self.epsilon * self.rho * sech2 / (2.0 * a)


@dataclass(frozen=True)
class ModeParameters:
    """Momentum vector (conformal units) and mass of one field mode."""

    p_vec: tuple[float, float, float]
    m: float

    def __post_init__(self):
        vec = tuple(float(c) for c in self.p_vec)
        if len(vec) != 3:
            raise ValueError("p_vec must have three components")
        object.__setattr__(self, "p_vec", vec)
        # Written as "not 0 <= m < inf" so that NaN and inf fail too.
        if not 0 <= self.m < math.inf:
            raise ValueError(f"mass {self.m} must be finite and nonnegative")

    @property
    def p(self) -> float:
        return math.sqrt(sum(c * c for c in self.p_vec))


@dataclass(frozen=True)
class AsymptoticEnergies:
    m_in: float
    m_out: float
    e_in: float
    e_out: float


def asymptotic_energies(params: ModeParameters, profile: ScaleFactorProfile) -> AsymptoticEnergies:
    m_in = params.m * profile.a_in
    m_out = params.m * profile.a_out
    p2 = params.p ** 2
    return AsymptoticEnergies(m_in=m_in, m_out=m_out,
                              e_in=math.sqrt(p2 + m_in ** 2),
                              e_out=math.sqrt(p2 + m_out ** 2))


def default_tau_span(profile: ScaleFactorProfile, tol: float) -> tuple[float, float]:
    """Span wide enough that the profile sits within tol of its limits."""
    if profile.kind == "constant":
        return (-10.0, 10.0)
    # a - a_limit ~ epsilon exp(-2 rho |tau|); the +4 margin buys ~55x.
    half_width = (math.log(profile.epsilon / tol) + 4.0) / (2.0 * profile.rho)
    half_width = max(half_width, 4.0 / profile.rho)
    return (-half_width, half_width)


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Sampled mode function, its conjugate-branch partner and metadata.

    ``f``/``f_dot`` hold the positive-frequency branch, ``g``/``g_dot``
    the solution of the same equation with reversed-frequency initial
    data (the conjugate of the opposite-sign branch); their Wronskian
    f g' - f' g is exactly conserved by the equation and monitors the
    integrator.  The samples span tau[0] to tau[-1].  ``shifted`` holds
    (tau, f, f_dot) one out-region oscillation period before tau[-1], or
    None when that time falls before tau[0] or the mode is degenerate.
    """

    tau: np.ndarray
    f: np.ndarray
    f_dot: np.ndarray
    g: np.ndarray
    g_dot: np.ndarray
    params: ModeParameters
    profile: ScaleFactorProfile
    n_rhs_evaluations: int
    shifted: tuple[float, complex, complex] | None

    def wronskian(self) -> np.ndarray:
        return self.f * self.g_dot - self.f_dot * self.g

    def wronskian_drift(self) -> float:
        w = self.wronskian()
        w0 = w[0]
        return float(np.max(np.abs(w - w0)) / max(abs(w0), 1e-300))

    def amplitude_bound_excess(self) -> float:
        """max |f|^2 above the conserved-quantity bound (should be ~0)."""
        en = asymptotic_energies(self.params, self.profile)
        p = self.params.p
        if p == 0.0:
            return 0.0
        bound = 1.0 + (en.e_in + en.m_in) ** 2 / p ** 2
        return float(max(np.max(np.abs(self.f) ** 2) - bound, 0.0))


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless tol lies in [TOL_MIN, TOL_MAX] (NaN fails)."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol {tol} outside [{TOL_MIN}, {TOL_MAX}]")


def check_point_tolerance(tol: float) -> None:
    """Raise ValueError unless both integrations of momentum_point are in range.

    Those run at tol and tol / REFINEMENT, so the effective floor is
    TOL_MIN * REFINEMENT.
    """
    check_tolerance(tol)
    if not tol / REFINEMENT >= TOL_MIN:
        raise ValueError(f"tol {tol} below {TOL_MIN * REFINEMENT}: the self-convergence "
                         f"run at tol/{REFINEMENT:g} needs at least {TOL_MIN}")


def integrate_mode(params: ModeParameters, profile: ScaleFactorProfile,
                   tau_span: tuple[float, float] | None = None,
                   tol: float = 1e-9) -> ModeSolution:
    """Integrate the mode equation across the expansion epoch.

    Initial data is exactly positive frequency at tau_span[0].  The
    solution is sampled at ``N_SAMPLES`` even times and at the one
    period-shifted time that ``extract_scalar_coefficients`` matches
    against.  Raises a configuration error when the span does not reach
    the flat asymptotics to within tol on the scale factor.

    ``scipy.integrate`` is imported here, on the first integration, so
    the commands that never integrate do not pay for loading it.
    """
    from scipy.integrate import solve_ivp

    check_tolerance(tol)
    if tau_span is None:
        tau_span = default_tau_span(profile, tol)
    tau0, tau1 = float(tau_span[0]), float(tau_span[1])
    if not tau0 < tau1:
        raise ValueError("tau_span must be increasing")
    if abs(profile.a(tau0) - profile.a_in) > tol:
        raise ValueError(f"tau_span start {tau0} does not reach the early flat region")
    if abs(profile.a(tau1) - profile.a_out) > tol:
        raise ValueError(f"tau_span end {tau1} does not reach the late flat region")
    en = asymptotic_energies(params, profile)
    p2 = params.p ** 2
    m = params.m

    def rhs(tau, y):
        mass, rate = profile.mass_and_rate(tau, m)
        coeff = p2 + mass ** 2 - 1j * rate
        return [y[1], -coeff * y[0], y[3], -coeff * y[2]]

    f0 = np.exp(-1j * en.e_in * tau0)
    g0 = np.exp(+1j * en.e_in * tau0)
    y0 = np.array([f0, -1j * en.e_in * f0, g0, +1j * en.e_in * g0], dtype=complex)
    grid = np.linspace(tau0, tau1, N_SAMPLES)
    # No shifted sample for a degenerate mode or a span shorter than a period.
    tau_shift = tau1 - 2.0 * math.pi / en.e_out if en.e_out >= MIN_OUT_ENERGY else -math.inf
    has_shift = tau_shift > tau0
    sol = solve_ivp(rhs, (tau0, tau1), y0, method="DOP853", rtol=tol, atol=tol * 1e-2,
                    t_eval=np.union1d(grid, [tau_shift]) if has_shift else grid)
    if not sol.success:
        raise IntegrationError(f"mode integration failed: {sol.message}")
    shifted = None
    if has_shift:
        k = int(np.searchsorted(sol.t, tau_shift))
        shifted = (tau_shift, sol.y[0, k], sol.y[1, k])
    samples = np.isin(sol.t, grid)
    y = sol.y[:, samples]
    return ModeSolution(tau=sol.t[samples], f=y[0], f_dot=y[1], g=y[2], g_dot=y[3],
                        params=params, profile=profile,
                        n_rhs_evaluations=int(sol.nfev), shifted=shifted)


@dataclass(frozen=True)
class ScalarBogolyubov:
    """Scalar mixing amplitudes of one mode plus a stability diagnostic.

    ``shift_residual`` is the change in (a_minus, b_minus) when the
    matching time moves back by one oscillation period; it should stay
    within a small multiple of the integration tolerance.
    """

    a_minus: complex
    b_minus: complex
    shift_residual: float


def _match_plane_waves(f: complex, f_dot: complex, e_out: float,
                       tau: float) -> tuple[complex, complex]:
    a = 0.5 * (f + 1j * f_dot / e_out) * np.exp(1j * e_out * tau)
    b = 0.5 * (f - 1j * f_dot / e_out) * np.exp(-1j * e_out * tau)
    return complex(a), complex(b)


def extract_scalar_coefficients(sol: ModeSolution) -> ScalarBogolyubov:
    """Match the late-time solution onto in/out plane waves."""
    en = asymptotic_energies(sol.params, sol.profile)
    if en.e_out < MIN_OUT_ENERGY:
        raise IntegrationError("degenerate mode: out-region energy is zero")
    tau_end = float(sol.tau[-1])
    a, b = _match_plane_waves(sol.f[-1], sol.f_dot[-1], en.e_out, tau_end)
    if sol.shifted is not None:
        tau_shift, f_shift, f_dot_shift = sol.shifted
        a2, b2 = _match_plane_waves(f_shift, f_dot_shift, en.e_out, tau_shift)
        shift_residual = max(abs(a - a2), abs(b - b2))
    else:
        shift_residual = math.nan
    return ScalarBogolyubov(a_minus=a, b_minus=b, shift_residual=shift_residual)


def spinor_contraction(p_vec) -> np.ndarray:
    """Flat-spinor matrix element matrix C[d, d'].

    C equals the transpose of sigma . p in the fixed representation, so
    each row has squared norm |p|**2 and C is odd under p -> -p.  At
    p = 0 the matrix vanishes identically (no creation channel).
    """
    px, py, pz = (float(c) for c in p_vec)
    return np.array([[pz, px + 1j * py],
                     [px - 1j * py, -pz]], dtype=complex)


@dataclass(frozen=True, eq=False)
class DressingResult:
    """Coefficient set from dynamics plus the bookkeeping around it."""

    coefficients: BogolyubovCoefficients
    stripped_phase: complex
    lambda_effective: float
    normalization_residual: float


def dress_coefficients(scalar: ScalarBogolyubov, params: ModeParameters,
                       profile: ScaleFactorProfile, tol: float = 1e-9) -> DressingResult:
    """Dress scalar amplitudes into a validated coefficient set.

    beta is the flat-spinor contraction of ``params.p_vec`` times a
    scalar, so lambda_effective, the spin-flip share of |beta|**2, is read
    from the contraction; it is 0 where the contraction vanishes (p = 0).
    The amplitude is made real by stripping (and recording) its global
    phase, which rotates operator phases but none of the mixing moduli.
    Raises when the resulting set violates the normalization constraints
    beyond 10 * tol, signalling an integration or matching bug.
    """
    contraction = spinor_contraction(params.p_vec)
    en = asymptotic_energies(params, profile)
    raw_a = math.sqrt(en.e_out / en.e_in * (en.e_out + en.m_out) / (en.e_in + en.m_in)) \
        * scalar.a_minus
    magnitude = abs(raw_a)
    phase = raw_a / magnitude if magnitude > 0 else complex(1.0)
    denom = math.sqrt((en.e_in / en.e_out) * (en.e_out + en.m_out) * (en.e_in + en.m_in))
    beta = -1j * contraction * scalar.b_minus / denom
    coeffs = BogolyubovCoefficients(scenario=Scenario.CHARGE_ONLY,
                                    a=min(magnitude, 1.0), beta=beta)
    report = validate(coeffs, tolerance=10.0 * tol)
    if not report.passed:
        raise IntegrationError(
            f"dressed coefficients violate constraints beyond {10 * tol}: "
            f"{report.failing()} (worst {report.worst:.3e})")
    denom_lambda = abs(contraction[UP, DOWN]) ** 2 + abs(contraction[UP, UP]) ** 2
    lambda_eff = abs(contraction[UP, DOWN]) ** 2 / denom_lambda if denom_lambda > 0 else 0.0
    return DressingResult(coefficients=coeffs, stripped_phase=phase,
                          lambda_effective=float(lambda_eff),
                          normalization_residual=report.worst)


def particle_density(coeffs: BogolyubovCoefficients) -> float:
    """Total created density: particles plus antiparticles over all spins.

    Per-spin particle densities are the row sums of |beta|**2 and
    antiparticle densities the column sums, so the total is twice the
    full sum; the spinless case (one stored entry) reduces to 2|beta|**2.
    The sum is nonnegative by construction and capped at n_max, which
    rounding overshoots by an ulp at full density.
    """
    total = float(2.0 * np.sum(np.abs(coeffs.beta) ** 2))
    return min(total, coeffs.scenario.n_max)


@dataclass(frozen=True, eq=False)
class MomentumPointResult:
    """Full pipeline output at one momentum point."""

    p_vec: tuple[float, float, float]
    p: float
    a: float
    beta_moduli: tuple[float, float, float, float]
    n_created: float
    lambda_effective: float
    s_numeric: float
    s_closed: float
    normalization_residual: float
    self_convergence: float


def momentum_point(p_vec, m: float, profile: ScaleFactorProfile,
                   tol: float = 1e-9) -> MomentumPointResult:
    """Integrate, dress and score one momentum point.

    Runs the integration at tol and tol / REFINEMENT over a common span
    (sized for the finer tolerance) and reports the coefficient
    difference as the self-convergence diagnostic.
    """
    from cosmopair.entanglement import entropy_numeric, entropy_vacuum_closed_form

    check_point_tolerance(tol)
    params = ModeParameters(p_vec=tuple(p_vec), m=m)
    span = default_tau_span(profile, tol / REFINEMENT)

    def run(run_tol: float) -> ScalarBogolyubov:
        sol = integrate_mode(params, profile, tau_span=span, tol=run_tol)
        return extract_scalar_coefficients(sol)

    scalar = run(tol)
    scalar_fine = run(tol / REFINEMENT)
    self_conv = max(abs(scalar.a_minus - scalar_fine.a_minus),
                    abs(scalar.b_minus - scalar_fine.b_minus))
    dressed = dress_coefficients(scalar, params, profile, tol=tol)
    coeffs = dressed.coefficients
    n_created = particle_density(coeffs)
    s_num = entropy_numeric(coeffs, occupation=0)
    s_closed = entropy_vacuum_closed_form(n_created, Scenario.CHARGE_ONLY)
    b = np.abs(coeffs.beta)
    return MomentumPointResult(
        p_vec=params.p_vec, p=params.p, a=coeffs.a,
        beta_moduli=(float(b[UP, UP]), float(b[UP, DOWN]),
                     float(b[DOWN, UP]), float(b[DOWN, DOWN])),
        n_created=n_created, lambda_effective=dressed.lambda_effective,
        s_numeric=s_num, s_closed=s_closed,
        normalization_residual=dressed.normalization_residual,
        self_convergence=self_conv)
