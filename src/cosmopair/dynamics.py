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

import cmath
import math
from dataclasses import dataclass
from operator import mul

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
    "check_phase",
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
# Out-region energies below this make a mode degenerate: no plane waves to match.
MIN_OUT_ENERGY = 1e-9
# Largest phase max(E_in, E_out) * (tau1 - tau0), in radians, that one
# integration may sweep; the stepper takes about 2.4 steps per radian at
# tol = 1e-9.  The widest documented run (|p| = 40) sweeps about 1e3 rad
# and p = 300 at rho = 0.1 about 7.4e4, while epsilon = 1e14 would sweep
# about 8e8, some 2e9 steps.
MAX_PHASE = 1e5


class IntegrationError(RuntimeError):
    """The mode integration failed or left its validity domain."""


@dataclass(frozen=True)
class ScaleFactorProfile:
    """Conformal scale factor with flat asymptotics.

    The smooth-step family has a(tau)**2 = 1 + epsilon (1 + tanh(rho
    tau)), interpolating between 1 and 1 + 2 epsilon; the constant
    family a(tau) = a0 is the no-creation control.  The parameters of
    the chosen family must be positive and finite, and for the smooth
    step 2 epsilon (in a_out), 2 rho (in the span) and epsilon * rho (in
    the mass rate) must be finite too.  The methods take a float tau and
    return Python floats (``math``, not numpy: the mode-equation
    right-hand side calls them at every solver stage).
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
        if self.kind == "tanh" and not self.epsilon * self.rho < math.inf:
            raise ValueError("tanh profile needs epsilon * rho finite (it scales the mass "
                             f"rate), got {self.epsilon} and {self.rho}")

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
    """Mode function on the integrator's mesh, its conjugate-branch partner and metadata.

    ``f``/``f_dot`` hold the positive-frequency branch, ``g``/``g_dot``
    the solution of the same equation with reversed-frequency initial
    data (the conjugate of the opposite-sign branch); their Wronskian
    f g' - f' g is exactly conserved by the equation and monitors the
    integrator.  The samples are the accepted steps of the adaptive
    integration, from tau[0] to tau[-1].  ``shifted`` holds (tau, f,
    f_dot) one out-region oscillation period before tau[-1], or None
    when that time falls before tau[0] or the mode is degenerate.
    ``n_rhs_evaluations`` counts evaluations of the frequency k(tau).
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


def check_phase(params: ModeParameters, profile: ScaleFactorProfile,
                tau_span: tuple[float, float]) -> None:
    """Raise ValueError when the mode would sweep more than MAX_PHASE radians.

    The integrator needs a fixed number of steps per radian, so this bounds
    the run time of one integration instead of letting it hang.
    """
    en = asymptotic_energies(params, profile)
    phase = max(en.e_in, en.e_out) * (tau_span[1] - tau_span[0])
    if not phase <= MAX_PHASE:
        raise ValueError(f"mode phase {phase:.3g} rad across the span exceeds the "
                         f"{MAX_PHASE:g} rad budget")


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10): the nodes
# of the 12-stage eighth-order step, then its stage rows, its weights and
# its fifth-order error estimator as {stage: coefficient} for the nonzero
# entries.
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_A_ROWS = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
)
_B_ROW = {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
          6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
          8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
          10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2}
_E5_ROW = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
           6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
           8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
           10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}


def _dense(row: dict[int, float], width: int) -> tuple[float, ...]:
    return tuple(row.get(j, 0.0) for j in range(width))


# Stage s combines the s earlier stages; weights and estimators use all 12.
_A = tuple(_dense(row, s) for s, row in enumerate(_A_ROWS, start=1))
_B, _E5 = _dense(_B_ROW, 12), _dense(_E5_ROW, 12)
# E3: the weights minus those of the embedded third-order formula.
_E3 = tuple(b - d for b, d in zip(_B, _dense({0: 0.244094488188976377952755905512,
                                              8: 0.733846688281611857341361741547,
                                              11: 0.220588235294117647058823529412e-1}, 12)))
# The step-size controller: scipy's solve_ivp constants for DOP853, whose
# error estimator is of order 7.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0

_State = tuple[complex, complex, complex, complex]


def _derivative(y: _State, k: complex) -> _State:
    """(f, f', g, g')' for f'' = -k f and g'' = -k g."""
    return y[1], -k * y[0], y[3], -k * y[2]


def _rk_step(k_of, t: float, y: _State, dy: _State, h: float):
    """One DOP853 step of length h: (y_new, k(t + h), stage derivatives per component).

    The last stage sits at t + h, so its k serves the derivative at y_new.
    Components are written out: this loop is the integrator's hot path.
    """
    f, f_dot, g, g_dot = y
    df, df_dot, dg, dg_dot = stages = tuple([d] for d in dy)
    for c, row in zip(_C[1:], _A):
        k = k_of(t + c * h)
        sf = f + h * sum(map(mul, row, df))
        sf_dot = f_dot + h * sum(map(mul, row, df_dot))
        sg = g + h * sum(map(mul, row, dg))
        sg_dot = g_dot + h * sum(map(mul, row, dg_dot))
        df.append(sf_dot)
        df_dot.append(-k * sf)
        dg.append(sg_dot)
        dg_dot.append(-k * sg)
    y_new = tuple(yi + h * sum(map(mul, _B, si)) for yi, si in zip(y, stages))
    return y_new, k, stages


def _error_norm(stages, y: _State, y_new: _State, h: float, rtol: float, atol: float) -> float:
    """DOP853's blend of its fifth- and third-order estimates, RMS over the scaled state."""
    e5 = e3 = 0.0
    for si, a, b in zip(stages, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        e5 += abs(sum(map(mul, _E5, si)) / scale) ** 2
        e3 += abs(sum(map(mul, _E3, si)) / scale) ** 2
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _initial_step(k_of, t0: float, t1: float, y0: _State, dy0: _State,
                  rtol: float, atol: float) -> float:
    """Hairer-Norsett-Wanner's starting step for an order-7 error estimate."""
    scale = [atol + abs(v) * rtol for v in y0]

    def rms(values) -> float:
        return math.sqrt(sum(abs(v / s) ** 2 for v, s in zip(values, scale)) / len(scale))

    d0, d1 = rms(y0), rms(dy0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    y1 = tuple(v + h0 * d for v, d in zip(y0, dy0))
    dy1 = _derivative(y1, k_of(t0 + h0))
    d2 = rms([b - a for a, b in zip(dy0, dy1)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t1 - t0)


def _dop853(k_of, t0: float, t1: float, y0: _State, tol: float, t_extra: float):
    """Adaptive DOP853 from t0 to t1 with rtol = tol and atol = tol / 100.

    Returns the accepted times, the states there and the state at
    ``t_extra``, reached by one more step from the last accepted time
    before it (None when t_extra is outside (t0, t1]).  Raises
    IntegrationError when the step falls below 10 ulp of the time.
    """
    rtol, atol = tol, tol * 1e-2
    t, y = t0, y0
    dy = _derivative(y, k_of(t))
    h_abs = _initial_step(k_of, t0, t1, y, dy, rtol, atol)
    times, states, extra = [t], [y], None
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # Written as "not >=" so that a NaN step, from a non-finite k, fails too.
            if not h_abs >= min_step:
                raise IntegrationError(f"mode integration failed: step size below {min_step:.3g} "
                                       f"at tau = {t}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            y_new, k_new, stages = _rk_step(k_of, t, y, dy, h)
            error = _error_norm(stages, y, y_new, h, rtol, atol)
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        if t < t_extra <= t_new:
            extra = _rk_step(k_of, t, y, dy, t_extra - t)[0]
        t, y, dy = t_new, y_new, _derivative(y_new, k_new)
        times.append(t)
        states.append(y)
    return times, states, extra


def integrate_mode(params: ModeParameters, profile: ScaleFactorProfile,
                   tau_span: tuple[float, float] | None = None,
                   tol: float = 1e-9) -> ModeSolution:
    """Integrate the mode equation across the expansion epoch.

    Initial data is exactly positive frequency at tau_span[0].  This
    module's own adaptive DOP853 stepper (rtol = tol, atol = tol / 100,
    with the step-size controller of scipy's ``solve_ivp``; scipy is not
    imported, and the tests use it as the oracle) samples the solution
    at its accepted steps; no dense output is built.  The period-shifted
    state that ``extract_scalar_coefficients`` matches against comes
    from one extra step, from the last accepted time before it, no
    longer than the accepted step there.  Raises a configuration error when the span does
    not reach the flat asymptotics to within tol on the scale factor, or
    when the mode would sweep more than ``MAX_PHASE`` radians.
    """
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
    check_phase(params, profile, (tau0, tau1))
    en = asymptotic_energies(params, profile)
    p2 = params.p ** 2
    m = params.m
    evaluations = 0

    def k_of(tau: float) -> complex:
        nonlocal evaluations
        evaluations += 1
        mass, rate = profile.mass_and_rate(tau, m)
        return p2 + mass ** 2 - 1j * rate

    f0 = cmath.exp(-1j * en.e_in * tau0)
    g0 = cmath.exp(+1j * en.e_in * tau0)
    y0 = (f0, -1j * en.e_in * f0, g0, +1j * en.e_in * g0)
    # No shifted sample for a degenerate mode or a span shorter than a period.
    tau_shift = tau1 - 2.0 * math.pi / en.e_out if en.e_out >= MIN_OUT_ENERGY else -math.inf
    times, states, at_shift = _dop853(k_of, tau0, tau1, y0, tol, tau_shift)
    y = np.array(states).T
    return ModeSolution(tau=np.array(times), f=y[0], f_dot=y[1], g=y[2], g_dot=y[3],
                        params=params, profile=profile, n_rhs_evaluations=evaluations,
                        shifted=None if at_shift is None else (tau_shift, *at_shift[:2]))


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
    discrepancy: float
    normalization_residual: float
    self_convergence: float


def momentum_point(p_vec, m: float, profile: ScaleFactorProfile,
                   tol: float = 1e-9) -> MomentumPointResult:
    """Integrate, dress and score one momentum point.

    Runs the integration at tol and tol / REFINEMENT over a common span
    (sized for the finer tolerance) and reports the coefficient
    difference as the self-convergence diagnostic.  The vacuum is scored
    by ``entanglement.score`` at (n_created, lambda_effective).
    """
    from cosmopair.entanglement import score

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
    [(s_num, s_closed, gap)] = score([coeffs], 0, [(n_created, dressed.lambda_effective)])
    b = np.abs(coeffs.beta)
    return MomentumPointResult(
        p_vec=params.p_vec, p=params.p, a=coeffs.a,
        beta_moduli=(float(b[UP, UP]), float(b[UP, DOWN]),
                     float(b[DOWN, UP]), float(b[DOWN, DOWN])),
        n_created=n_created, lambda_effective=dressed.lambda_effective,
        s_numeric=s_num, s_closed=s_closed, discrepancy=gap,
        normalization_residual=dressed.normalization_residual,
        self_convergence=self_conv)
