"""Mode-equation dynamics: from a scale-factor profile to coefficients.

Each momentum mode obeys the second-order complex equation

    f'' + (|p|**2 + M(tau)**2 - i M'(tau)) f = 0,     M(tau) = m a(tau),

for the branch that feeds the scalar mixing amplitudes.  Positive
frequency at early times fixes f = exp(-i E_in tau).  ``integrate_mode``
matches the solution at the end of the span onto
A exp(-i E_out tau) + B exp(+i E_out tau) and returns the scalar
amplitudes (A, B), which ``dress_coefficients`` dresses into a full
coefficient set with the flat-spinor contraction and kinematic square
roots.  The mode equation conserves the current
|p|**2 Q = |p|**2 |f|**2 + |i f' + M f|**2, which reads
2 E_out [(E_out + M_out) |A|**2 + (E_out - M_out) |B|**2] in the out region,
so each dressed norm, a**2 plus the |beta|**2 of one row or column, is
exactly Q_out / Q_in.  Its residual, an amplitude excess included, is
the one accuracy monitor of a point, gated at DRESSING_GATE * TOL.

The plain run steps the mode equation with DOP853.  The reference run,
``integrate_mode(mode, refined=True)``, solves the same mode in another
frame with another method: the amplitudes (alpha, beta) of the
instantaneous positive- and negative-energy eigenvectors of
H = [[M, p], [p, -M]] (the adiabatic frame of Kluger, Mottola &
Eisenberg 1998, Phys. Rev. D 58:125015) obey

    (alpha, beta)' = [[0, c e^{2i Phi}], [-c e^{-2i Phi}, 0]] (alpha, beta),

with omega = sqrt(p**2 + M**2), Phi = int omega dtau from tau0 and
c = -p M' / (2 omega**2).  A fourth-order Magnus
step (Iserles & Norsett 1999, Phil. Trans. R. Soc. A 357:983) carries
them across the span; c vanishes on the flat profile, at m = 0 and at
p = 0, so there beta is exactly 0.  ``momentum_point`` reports the gap
between the moduli of the two runs' amplitudes as ``self_convergence``.

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
import sys
from dataclasses import dataclass, field

import numpy as np

from cosmopair.bogoliubov import DOWN, UP, BogolyubovCoefficients, Scenario, validate

__all__ = [
    "DressingResult",
    "FLAT",
    "IntegrationError",
    "Mode",
    "ScalarBogolyubov",
    "ScaleFactorProfile",
    "default_tau_span",
    "dress_coefficients",
    "integrate_mode",
    "momentum_point",
    "MomentumPointResult",
    "particle_density",
    "spinor_contraction",
]

# The fixed accuracy contract of one momentum point.  integrate_mode's
# plain run steps at TOL over default_tau_span, whose ends lie within
# TOL / REFINEMENT of the profile's limits.  dress_coefficients accepts a
# coefficient set within DRESSING_GATE * TOL = 1e-8 of its constraints;
# scoring re-checks the set at the looser
# bogoliubov.THETA_CHECK_TOLERANCE = 1e-6.
TOL = 1e-9
REFINEMENT = 2.0
DRESSING_GATE = 10.0
# The reference run takes N = max(MIN_REFERENCE_STEPS, ceil(2 * phase))
# uniform Magnus steps, phase = max(E_in, E_out) * (tau1 - tau0), up to
# 2e5 at MAX_PHASE.  It builds and reduces the step matrices
# REFERENCE_CHUNK steps at a time, 11 evaluations of (M, M') each, so its
# arrays stay near 100 kB whatever N is.  Chunks of 512 ran faster than
# 256 or 1024, and raised the peak RSS of `dynamics --p-grid
# log:0.1:40:6` by 0.6 MB, where 4096 raised it by 3.3 MB (2-vCPU x86_64
# host).
MIN_REFERENCE_STEPS = 1024
REFERENCE_CHUNK = 512
# Out-region energies below this make a mode degenerate: no plane waves to match.
MIN_OUT_ENERGY = 1e-9
# Largest phase max(E_in, E_out) * (tau1 - tau0), in radians, that one
# integration may sweep; the stepper takes about 2.4 steps per radian at
# tol = 1e-9 once the phase is large (2.37 at |p| = 40, and at p = 30 with
# rho = 0.1), and about 2 below |p| = 1.  The widest documented run
# (|p| = 40) sweeps about 1e3 rad and p = 300 at rho = 0.1 about 7.4e4,
# while epsilon = 1e14 would sweep about 8e8, some 2e9 steps.
MAX_PHASE = 1e5
# Longest integration step, in units of the transition time 1 / rho.  A
# step across the transition keeps its local error within tol but can
# leave 1.4e-10 in n_created; at 0.5 / rho the tanh-linear oracle reads
# |dn| <= 5.5e-11 over rho in 10-500 and p in 0.5-5, where 5 of 48 points
# exceeded 1e-10 uncapped.  At rho <= 1 the cap seldom binds.
MAX_STEP_RHO = 0.5


class IntegrationError(RuntimeError):
    """The mode integration failed or left its validity domain."""


@dataclass(frozen=True)
class ScaleFactorProfile:
    """Conformal scale factor a(tau)**2 = 1 + epsilon (1 + tanh(rho tau)).

    It rises smoothly from 1 to sqrt(1 + 2 epsilon); epsilon = 0 is the
    flat no-creation control, ``FLAT``.  Its share of the domain that
    ``Mode`` states: finite epsilon >= 0 and rho > 0, with
    2 epsilon (in a_out), 2 rho (in the span) and epsilon * rho (in the
    mass rate) finite.  ``a`` takes a float tau and returns a Python float,
    and so does ``frequency``'s closure, which the DOP853 run calls at
    every solver stage (``math``, not numpy); ``mass_and_rate`` is the
    numpy form that the reference run evaluates on arrays of tau.
    """

    epsilon: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        # Written as "not 0 <= x < inf" so that NaN and inf fail too.
        if not (0 <= 2.0 * self.epsilon < math.inf and 0 < 2.0 * self.rho < math.inf):
            raise ValueError("profile needs epsilon >= 0 and rho > 0, with 2 epsilon "
                             f"and 2 rho finite, got {self.epsilon} and {self.rho}")
        if not self.epsilon * self.rho < math.inf:
            raise ValueError("profile needs epsilon * rho finite (it scales the mass "
                             f"rate), got {self.epsilon} and {self.rho}")

    def a(self, tau: float) -> float:
        return math.sqrt(1.0 + self.epsilon * (1.0 + math.tanh(self.rho * tau)))

    @property
    def a_out(self) -> float:
        return math.sqrt(1.0 + 2.0 * self.epsilon)

    def frequency(self, p2: float, m: float):
        """The closure tau -> (Re, Im) of -k(tau) = -(p2 + M**2) + i dM/dtau, M = m a(tau).

        The mode equation reads f'' = -k f.  Both parts share one a(tau),
        computed inline (``a`` keeps its own copy of the formula), and the
        rate is overflow-safe for large |rho tau|.  ``(m a)**2`` raises
        OverflowError where ``*`` would give inf, as ``Mode`` does.
        """
        epsilon, rho, rate = self.epsilon, self.rho, m * self.epsilon * self.rho
        sqrt, tanh, exp = math.sqrt, math.tanh, math.exp

        def minus_k(tau: float) -> tuple[float, float]:
            x = rho * tau
            a = sqrt(1.0 + epsilon * (1.0 + tanh(x)))
            expo = exp(-2.0 * abs(x))
            return -(p2 + (m * a) ** 2), rate * (4.0 * expo / (1.0 + expo) ** 2) / (2.0 * a)

        return minus_k

    def mass_and_rate(self, tau: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, dM/dtau) at each tau of an array, M = m a(tau): ``a`` and ``frequency``'s rate."""
        x = self.rho * tau
        a = np.sqrt(1.0 + self.epsilon * (1.0 + np.tanh(x)))
        expo = np.exp(-2.0 * np.abs(x))
        return m * a, (m * self.epsilon * self.rho) * (4.0 * expo / (1.0 + expo) ** 2) / (2.0 * a)


FLAT = ScaleFactorProfile(epsilon=0.0)


def default_tau_span(profile: ScaleFactorProfile) -> tuple[float, float]:
    """Integration span whose ends sit within TOL / REFINEMENT of the profile's limits.

    Both ends are then plane-wave regions, to start from and to match in,
    with a factor REFINEMENT to spare at the plain run's TOL; both of
    ``integrate_mode``'s runs cross this span.
    """
    if profile.epsilon == 0.0:   # flat: every span reaches the limits
        return (-10.0, 10.0)
    # a - a_limit ~ epsilon exp(-2 rho |tau|); the +4 margin buys ~55x.
    half_width = (math.log(profile.epsilon / (TOL / REFINEMENT)) + 4.0) / (2.0 * profile.rho)
    half_width = max(half_width, 4.0 / profile.rho)
    return (-half_width, half_width)


@dataclass(frozen=True)
class Mode:
    """One checked momentum point: momentum vector (conformal units), mass and profile.

    The constructor owns every rule of a point's domain and raises
    ValueError for an input outside it: three components, a finite
    m >= 0, |p| = 0 or |p| >= sys.float_info.min = 2.2250738585072014e-308
    (below it the components are subnormal and lambda loses digits),
    m * epsilon * rho (the scale of the mass rate), |p|**2 and (m a)**2
    finite (float ``**`` raises OverflowError where ``*`` gives inf; both
    become ValueError), and a phase max(E_in, E_out) * (tau1 - tau0) of at
    most MAX_PHASE radians across the span.  The integrator needs a fixed
    number of steps per radian, so that budget bounds the run time of one
    integration instead of letting it hang.  ``ScaleFactorProfile`` checks
    the profile's share: finite epsilon >= 0 and rho > 0, with 2 epsilon,
    2 rho and epsilon * rho finite.  It computes, once, |p| (with
    ``math.hypot``, which does not underflow below 1.5e-154), the late
    mass m a_out, the energies sqrt(|p|**2 + (m a)**2) at both ends of the
    profile, where a is 1 early on, and the span ``default_tau_span(profile)``
    that every integration of the mode runs over.
    A mode can still fail, with IntegrationError rather than ValueError:
    ``integrate_mode`` refuses a degenerate mode, whose out-region energy
    sqrt(|p|**2 + (m a_out)**2) is below MIN_OUT_ENERGY = 1e-9 (p = 0 with
    m = 0, say) and which has no plane waves to match, before its first
    step; an integration can overflow (rho = 1e149 at p = m = epsilon = 1,
    say); and the dressed coefficients can miss the dressing gate,
    DRESSING_GATE * TOL = 1e-8.
    """

    p_vec: tuple[float, float, float]
    m: float
    profile: ScaleFactorProfile
    p: float = field(init=False)
    m_out: float = field(init=False)
    e_in: float = field(init=False)
    e_out: float = field(init=False)
    tau_span: tuple[float, float] = field(init=False)

    def __post_init__(self):
        vec = tuple(float(c) for c in self.p_vec)
        if len(vec) != 3:
            raise ValueError("p_vec must have three components")
        # Written as "not 0 <= m < inf" so that NaN and inf fail too.
        if not 0 <= self.m < math.inf:
            raise ValueError(f"mass {self.m} must be finite and nonnegative")
        # Past that the mass rate is inf at its peak and NaN in the flat
        # regions, so no integration could succeed.
        if not self.m * self.profile.epsilon * self.profile.rho < math.inf:
            raise ValueError("profile needs m * epsilon * rho finite (it scales the mass "
                             f"rate), got m = {self.m}, epsilon = {self.profile.epsilon} "
                             f"and rho = {self.profile.rho}")
        p = math.hypot(*vec)
        if 0.0 < p < sys.float_info.min:   # subnormal components have lost bits
            raise ValueError(f"|p| = {p:g} is nonzero but below the smallest normal double")
        m_out = self.m * self.profile.a_out
        try:
            p2 = p ** 2
            e_in, e_out = math.sqrt(p2 + self.m ** 2), math.sqrt(p2 + m_out ** 2)
        except OverflowError:
            e_in = e_out = math.inf
        if not (e_in < math.inf and e_out < math.inf):
            raise ValueError(f"mode energy overflows: |p| = {p:g} or m a = "
                             f"{max(self.m, m_out):g} squared is not a finite double")
        tau0, tau1 = tau_span = default_tau_span(self.profile)
        phase = max(e_in, e_out) * (tau1 - tau0)
        if not phase <= MAX_PHASE:
            raise ValueError(f"mode phase {phase:.3g} rad across the span exceeds the "
                             f"{MAX_PHASE:g} rad budget")
        for name, value in (("p_vec", vec), ("p", p), ("m_out", m_out),
                            ("e_in", e_in), ("e_out", e_out), ("tau_span", tau_span)):
            object.__setattr__(self, name, value)


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


# Dense rows, the one source of the tableau: the tests check them against
# scipy's, and _compile_step generates the step from them.  Stage s
# combines the s earlier stages; weights and estimators use all 12.
_A = tuple(_dense(row, s) for s, row in enumerate(_A_ROWS, start=1))
_B, _E5 = _dense(_B_ROW, 12), _dense(_E5_ROW, 12)
# E3: the weights minus those of the embedded third-order formula.
_E3 = tuple(b - d for b, d in zip(_B, _dense({0: 0.244094488188976377952755905512,
                                              8: 0.733846688281611857341361741547,
                                              11: 0.220588235294117647058823529412e-1}, 12)))
# The step-size controller: scipy's solve_ivp constants for DOP853, whose
# error estimator is of order 7.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0

_State = tuple[complex, complex]


def _compile_step(c, a, b, e5, e3):
    """One DOP853 step for the tableau (c, a, b, e5, e3), compiled as straight-line float code.

    The compiled ``step(minus_k, t, y, g, h, rtol, atol)`` takes the state
    y = (Re f, Im f, Re f', Im f') and g = (Re f'', Im f'') at t, with
    f'' = -k f and -k(tau) from ``minus_k``, and returns (y_new, g_new,
    error) for the step of length h; the last stage sits at t + h.  The
    error is DOP853's blend of its fifth- and third-order estimates, RMS
    over the state scaled by atol + max(|y|, |y_new|) rtol.  Zero entries
    are left out, and each complex operation is written out on the float
    parts as CPython evaluates it: sums in the tableau's index order, a
    product as re = ar br - ai bi, im = ar bi + ai br, a modulus as
    abs(complex(x, y)).  So the step rounds exactly as the complex loop
    over the dense rows, which the tests keep as the reference, but runs
    faster.  This is the integrator's hot path.
    """
    def weighted(row, part: str) -> str:
        return " + ".join(f"{w!r} * {part}{j}" for j, w in enumerate(row) if w)

    # (u, g) are the stage derivatives of (f, f'): u is f' at the stage.
    lines = ["def step(minus_k, t, y, g, h, rtol, atol):",
             "    fr, fi, ur0, ui0 = y",
             "    gr0, gi0 = g"]
    for s, (node, row) in enumerate(zip(c[1:], a), start=1):
        lines += [f"    kr, ki = minus_k(t + {node!r} * h)",
                  *(f"    u{x}{s} = u{x}0 + h * ({weighted(row, 'g' + x)})" for x in "ri"),
                  *(f"    s{x} = f{x} + h * ({weighted(row, 'u' + x)})" for x in "ri"),
                  f"    gr{s} = kr * sr - ki * si",
                  f"    gi{s} = kr * si + ki * sr"]
    for state, (re, im), stage in (("f", ("fr", "fi"), "u"), ("u", ("ur0", "ui0"), "g")):
        lines += [f"    {state}r_new = {re} + h * ({weighted(b, stage + 'r')})",
                  f"    {state}i_new = {im} + h * ({weighted(b, stage + 'i')})",
                  f"    {state}_scale = atol + max(abs(complex({re}, {im})), "
                  f"abs(complex({state}r_new, {state}i_new))) * rtol"]
    for name, row in (("e5", e5), ("e3", e3)):
        lines.append(f"    {name} = " + " + ".join(
            f"abs(complex(({weighted(row, stage + 'r')}) / {state}_scale, "
            f"({weighted(row, stage + 'i')}) / {state}_scale)) ** 2"
            for state, stage in (("f", "u"), ("u", "g"))))
    lines += ["    y_new = fr_new, fi_new, ur_new, ui_new",
              "    g_new = kr * fr_new - ki * fi_new, kr * fi_new + ki * fr_new",
              "    if e5 == 0.0 and e3 == 0.0:",
              "        return y_new, g_new, 0.0",
              "    return y_new, g_new, abs(h) * e5 / sqrt((e5 + 0.01 * e3) * 2)"]
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(lines), "<dop853 step>", "exec"), namespace)
    return namespace["step"]


_step = _compile_step(_C, _A, _B, _E5, _E3)


def _initial_step(minus_k, t0: float, t1: float, y0: _State, dy0: _State,
                  rtol: float, atol: float) -> float:
    """Hairer-Norsett-Wanner's starting step for an order-7 error estimate."""
    scale = [atol + abs(v) * rtol for v in y0]

    def rms(values) -> float:
        return math.sqrt(sum(abs(v / s) ** 2 for v, s in zip(values, scale)) / len(scale))

    d0, d1 = rms(y0), rms(dy0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    y1 = tuple(v + h0 * d for v, d in zip(y0, dy0))
    dy1 = y1[1], complex(*minus_k(t0 + h0)) * y1[0]
    d2 = rms([b - a for a, b in zip(dy0, dy1)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t1 - t0)


def _dop853(minus_k, t0: float, t1: float, y0: _State, tol: float, max_step: float):
    """Adaptive DOP853 for f'' = -k f from t0 to t1 with rtol = tol and atol = tol / 100.

    ``minus_k`` is a frequency closure (``ScaleFactorProfile.frequency``).
    No step is longer than max_step (as scipy's ``max_step``).  Returns
    the end time, the state (f, f') there, and the numbers of accepted
    and of tried steps.  Raises IntegrationError when the step falls
    below 10 ulp of the time.
    """
    rtol, atol = tol, tol * 1e-2
    f, f_dot = y0
    f_ddot = complex(*minus_k(t0)) * f
    h_abs = min(_initial_step(minus_k, t0, t1, y0, (f_dot, f_ddot), rtol, atol), max_step)
    t, y, g = t0, (f.real, f.imag, f_dot.real, f_dot.imag), (f_ddot.real, f_ddot.imag)
    n_steps = n_tries = 0
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            # Written as "not >=" so that a NaN step, from a non-finite k, fails too.
            if not h_abs >= min_step:
                raise IntegrationError(f"mode integration failed: step size below {min_step:.3g} "
                                       f"at tau = {t}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            n_tries += 1
            y_new, g_new, error = _step(minus_k, t, y, g, h, rtol, atol)
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        t, y, g = t_new, y_new, g_new
        n_steps += 1
    return t, (complex(y[0], y[1]), complex(y[2], y[3])), n_steps, n_tries


@dataclass(frozen=True)
class ScalarBogolyubov:
    """Scalar mixing amplitudes of one mode, with the cost of integrating them.

    For the plain DOP853 run, ``n_steps`` counts the accepted steps and
    ``n_rhs_evaluations`` the evaluations of the frequency k(tau): 2 for
    the start and the starting step, then 11 per step tried.  For the
    reference run, ``n_steps`` is the number N of Magnus steps and
    ``n_rhs_evaluations`` the 11 N points at which (M, M') is evaluated:
    2 Gauss nodes and 9 quadrature nodes of the phase per step.  Both
    are 0 for amplitudes that were not integrated.
    """

    a_minus: complex
    b_minus: complex
    n_steps: int = 0
    n_rhs_evaluations: int = 0


# The two Gauss nodes of a Magnus step, as fractions of the step, and the
# ends of the three pieces they cut it into.
_GAUSS = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_PIECES = np.array([0.0, *_GAUSS, 1.0])
_WIDTHS = np.diff(_PIECES)
# The 3-point Gauss-Legendre rule on [-1, 1], which sums the phase on each
# piece: exact nodes and weights, so that no import of numpy.polynomial is paid.
_PHASE_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_PHASE_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# The 11 points of a step at which (M, M') is read, as fractions of it: the
# 2 Gauss nodes, then the rule's 3 nodes on each piece in turn.
_NODES = np.array([*_GAUSS, *(_PIECES[:-1, None]
                               + _WIDTHS[:, None] * (1.0 + _PHASE_NODES) / 2.0).ravel()])


def reference_steps(mode: Mode) -> int:
    """N = max(MIN_REFERENCE_STEPS, ceil(2 * max(E_in, E_out) * (tau1 - tau0))): 2 per radian."""
    tau0, tau1 = mode.tau_span
    return max(MIN_REFERENCE_STEPS, math.ceil(2.0 * max(mode.e_in, mode.e_out) * (tau1 - tau0)))


def _tree_product(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex]:
    """The product U_{n-1} ... U_1 U_0 of SU(2) matrices U_k = [[a_k, b_k], [-conj b_k, conj a_k]].

    Adjacent pairs are multiplied, later on the left, one batched product
    per level; an odd last matrix is carried up as it is.
    """
    while a.size > 1:
        odd = a.size % 2
        a_early, a_late, b_early, b_late = a[0:-1:2], a[1::2], b[0:-1:2], b[1::2]
        a_next = a_late * a_early - b_late * b_early.conj()
        b_next = a_late * b_early + b_late * a_early.conj()
        if odd:
            a_next, b_next = np.append(a_next, a[-1]), np.append(b_next, b[-1])
        a, b = a_next, b_next
    return complex(a[0]), complex(b[0])


def _adiabatic_amplitudes(mode: Mode, n_steps: int) -> tuple[complex, complex, float]:
    """(alpha, beta) at the end of the span after n_steps Magnus steps, and Phi there.

    Each step of length h takes x = c e^{2i Phi} at its two Gauss nodes,
    x_minus at the earlier and x_plus at the later one, and applies
    exp [[i sigma, u], [-conj u, -i sigma]] with u = (h / 2) (x_plus + x_minus)
    and the commutator term sigma = (sqrt 3 / 6) h**2 Im(x_minus conj x_plus);
    with the other sign of sigma the step still conserves |alpha|**2 +
    |beta|**2 but is of second order only.  Phi - E_in (tau - tau0) is
    summed from the 3-point Gauss-Legendre rule on each of the three
    pieces the nodes cut a step into.  Steps are built and multiplied
    REFERENCE_CHUNK at a time, each chunk as a tree, from one call of
    ``profile.mass_and_rate`` at the 11 points of each of its steps.  The
    mode needs omega > 0 everywhere, as p > 0 or m > 0 gives.
    """
    profile, p, m, e_in = mode.profile, mode.p, mode.m, mode.e_in
    tau0, tau1 = mode.tau_span
    h = (tau1 - tau0) / n_steps
    alpha, b_total, excess = 1.0 + 0.0j, 0.0j, 0.0
    for first in range(0, n_steps, REFERENCE_CHUNK):
        steps = np.arange(first, min(first + REFERENCE_CHUNK, n_steps), dtype=float)[:, None]
        mass, rate = profile.mass_and_rate(tau0 + (steps + _NODES) * h, m)
        omega = np.sqrt(p * p + mass * mass)
        pieces = (omega[:, 2:] - e_in).reshape(len(steps), 3, 3) @ _PHASE_WEIGHTS
        excess_at = excess + np.cumsum((pieces * (0.5 * h * _WIDTHS)).ravel()).reshape(-1, 3)
        excess = float(excess_at[-1, 2])
        coupling = -0.5 * (p / omega[:, :2]) * (rate[:, :2] / omega[:, :2])
        x = coupling * np.exp(2j * (e_in * (steps + _GAUSS) * h + excess_at[:, :2]))
        x_minus, x_plus = x[:, 0], x[:, 1]
        u = (0.5 * h) * (x_plus + x_minus)
        sigma = (math.sqrt(3.0) / 6.0 * h * h) * (x_minus * x_plus.conj()).imag
        s = np.hypot(sigma, np.abs(u))
        sinc = np.sinc(s / math.pi)
        a_chunk, b_chunk = _tree_product(np.cos(s) + 1j * sigma * sinc, u * sinc)
        alpha, b_total = (a_chunk * alpha - b_chunk * b_total.conjugate(),
                          a_chunk * b_total + b_chunk * alpha.conjugate())
    return alpha, -b_total.conjugate(), e_in * (tau1 - tau0) + excess


def integrate_mode(mode: Mode, refined: bool = False) -> ScalarBogolyubov:
    """Integrate the mode across the expansion epoch and match its amplitudes.

    Every setting comes from the mode: the span is ``mode.tau_span``,
    which reaches both flat regions.  Both runs return the amplitudes
    (A, B) of f = A exp(-i E_out tau) + B exp(+i E_out tau) at the end of
    the span as ``a_minus`` and ``b_minus``.

    The plain run starts from exactly positive frequency and steps
    (f, f') with this module's own adaptive DOP853 stepper (rtol = TOL,
    atol = TOL / 100, steps of at most MAX_STEP_RHO / rho, with the
    step-size controller of scipy's ``solve_ivp``; scipy is not imported,
    and the tests use it as the oracle), keeping no trajectory.  It reads
    k from one closure, ``profile.frequency``.  Its step is straight-line
    code on real and imaginary parts, generated at import from the
    tableau; the tests keep the complex loop over the tableau rows as its
    bit-for-bit reference.

    The refined run is the reference: ``reference_steps(mode)`` uniform
    fourth-order Magnus steps in the adiabatic frame (see the module
    docstring), vectorised over the steps with numpy, read (M, M') from
    ``profile.mass_and_rate``.  Its (alpha, beta) map onto the plane waves
    as A = alpha k_A e^{-i(E_in tau0 + Phi_1 - E_out tau1)} and
    B = beta k_B e^{-i(E_in tau0 - Phi_1 + E_out tau1)}, with
    k_A = sqrt(E_in (E_in + M) / (E_out (E_out + M_out))) and
    k_B = sqrt((E_out + M_out) / (2 E_out)) sqrt(2 E_in (E_in + M)) / |p|.
    At p = 0, where beta is exactly 0 and k_B infinite, B is their finite
    limit: the run at |p| = 1e-20 m, whose |p|**2 rounds away beside
    m**2 in both energies.

    Raises IntegrationError for a degenerate mode, whose out-region
    energy lies below MIN_OUT_ENERGY, before any step, and for an
    integration whose arithmetic overflows or divides by zero.
    """
    if mode.e_out < MIN_OUT_ENERGY:
        raise IntegrationError(f"degenerate mode: out-region energy {mode.e_out:.3g} is "
                               f"below MIN_OUT_ENERGY = {MIN_OUT_ENERGY:g}")
    tau0, tau1 = mode.tau_span
    profile = mode.profile
    e_in, e_out = mode.e_in, mode.e_out
    if refined:
        near = mode if mode.p > 0.0 else Mode((1e-20 * mode.m, 0.0, 0.0), mode.m, profile)
        n_steps = reference_steps(near)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                alpha, beta, phase = _adiabatic_amplitudes(near, n_steps)
        except ArithmeticError as err:   # numpy raises FloatingPointError
            raise IntegrationError(f"mode integration failed: {type(err).__name__}: "
                                   f"{err}") from err
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise IntegrationError("mode integration failed: the reference amplitudes "
                                   "are not finite")
        k_a = math.sqrt(e_in * (e_in + mode.m) / (e_out * (e_out + mode.m_out)))
        k_b = (math.sqrt((e_out + mode.m_out) / (2.0 * e_out))
               * math.sqrt(2.0 * e_in * (e_in + mode.m)) / near.p)
        return ScalarBogolyubov(
            a_minus=alpha * k_a * cmath.exp(-1j * (e_in * tau0 + phase - e_out * tau1)),
            b_minus=beta * k_b * cmath.exp(-1j * (e_in * tau0 - phase + e_out * tau1)),
            n_steps=n_steps, n_rhs_evaluations=_NODES.size * n_steps)
    f0 = cmath.exp(-1j * e_in * tau0)
    # A flat profile has no transition to resolve.
    max_step = MAX_STEP_RHO / profile.rho if profile.epsilon > 0.0 else math.inf
    try:
        tau, (f, f_dot), n_steps, n_tries = _dop853(profile.frequency(mode.p ** 2, mode.m),
                                                    tau0, tau1, (f0, -1j * e_in * f0), TOL,
                                                    max_step)
    except ArithmeticError as err:   # float ** raises OverflowError where * gives inf
        raise IntegrationError(f"mode integration failed: {type(err).__name__}: {err}") from err
    rotated = f_dot * (1j / e_out)   # i f' / E_out
    return ScalarBogolyubov(a_minus=0.5 * (f + rotated) * cmath.exp(1j * e_out * tau),
                            b_minus=0.5 * (f - rotated) * cmath.exp(-1j * e_out * tau),
                            n_steps=n_steps, n_rhs_evaluations=2 + len(_A) * n_tries)


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


def dress_coefficients(scalar: ScalarBogolyubov, mode: Mode) -> DressingResult:
    """Dress scalar amplitudes into a validated coefficient set.

    beta is the flat-spinor contraction of ``mode.p_vec`` times a
    scalar, so lambda_effective, the spin-flip share of |beta|**2, is the
    contraction's (px**2 + py**2) / |p|**2, read from the direction so
    that it does not underflow at tiny |p|; it is 0 at p = 0.
    The amplitude is made real by stripping (and recording) its global
    phase, which rotates operator phases but none of the mixing moduli.
    The set holds a = min(|raw a|, 1), but its normalization residual is
    that of the unclipped amplitude: the worst constraint residual plus
    the excess max(|raw a|**2 - 1, 0).  Raises IntegrationError, naming
    the broken constraints, when that residual exceeds the fixed gate
    DRESSING_GATE * TOL = 1e-8, which signals an integration or matching
    bug.
    """
    contraction = spinor_contraction(mode.p_vec)
    e_in, e_out, m, m_out = mode.e_in, mode.e_out, mode.m, mode.m_out
    raw_a = math.sqrt(e_out / e_in * (e_out + m_out) / (e_in + m)) * scalar.a_minus
    magnitude = abs(raw_a)
    phase = raw_a / magnitude if magnitude > 0 else complex(1.0)
    denom = math.sqrt((e_in / e_out) * (e_out + m_out) * (e_in + m))
    beta = -1j * contraction * scalar.b_minus / denom
    coeffs = BogolyubovCoefficients(scenario=Scenario.CHARGE_ONLY,
                                    a=min(magnitude, 1.0), beta=beta)
    gate = DRESSING_GATE * TOL
    report = validate(coeffs, tolerance=gate)
    residual = report.worst + max(magnitude * magnitude - 1.0, 0.0)
    if not residual <= gate:
        raise IntegrationError(
            f"dressed coefficients violate constraints beyond {gate:g}: "
            f"{report.failing() or ['normalization']} (worst {residual:.3e})")
    px, py, _ = mode.p_vec
    lambda_eff = (math.hypot(px, py) / mode.p) ** 2 if mode.p > 0 else 0.0
    return DressingResult(coefficients=coeffs, stripped_phase=phase,
                          lambda_effective=lambda_eff,
                          normalization_residual=residual)


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


def momentum_point(mode: Mode) -> MomentumPointResult:
    """Integrate, dress and score one checked momentum point.

    Runs ``integrate_mode`` plain and refined (the adiabatic-frame
    reference), over the same span, and dresses the plain run at the gate
    DRESSING_GATE * TOL.  Every output reads the amplitudes only through
    |A| and |B|, so ``self_convergence`` is the larger gap of their
    moduli, max(| |A| - |A_ref| |, | |B| - |B_ref| |); the phase error of the
    plain run, which no output carries, stays out of it.  The vacuum is
    scored by ``entanglement.score``, as a stack of one set, at
    (n_created, lambda_effective).
    """
    from cosmopair.entanglement import score

    scalar = integrate_mode(mode)
    reference = integrate_mode(mode, refined=True)
    self_conv = max(abs(abs(scalar.a_minus) - abs(reference.a_minus)),
                    abs(abs(scalar.b_minus) - abs(reference.b_minus)))
    dressed = dress_coefficients(scalar, mode)
    coeffs = dressed.coefficients
    n_created = particle_density(coeffs)
    s_num, s_closed, gap = (column.item() for column in score(
        BogolyubovCoefficients.stack([coeffs]), 0, [n_created], [dressed.lambda_effective]))
    b = np.abs(coeffs.beta)
    return MomentumPointResult(
        p=mode.p, a=coeffs.a,
        beta_moduli=(float(b[UP, UP]), float(b[UP, DOWN]),
                     float(b[DOWN, UP]), float(b[DOWN, DOWN])),
        n_created=n_created, lambda_effective=dressed.lambda_effective,
        s_numeric=s_num, s_closed=s_closed, discrepancy=gap,
        normalization_residual=dressed.normalization_residual,
        self_convergence=self_conv)
