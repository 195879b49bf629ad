import math
import sys
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS
from cosmopair import dynamics as dyn
from cosmopair.bogoliubov import Scenario, from_density, validate

TANH = dyn.ScaleFactorProfile(epsilon=1.0, rho=1.0)
FLAT = dyn.FLAT


def test_profile_asymptotics():
    assert TANH == dyn.ScaleFactorProfile()
    assert abs(TANH.a_out - math.sqrt(3.0)) <= 1e-15
    assert abs(float(TANH.a(-40.0)) - 1.0) <= 1e-14
    assert abs(float(TANH.a(40.0)) - TANH.a_out) <= 1e-14
    # The flat profile is the smooth step at epsilon = 0.
    assert FLAT == dyn.ScaleFactorProfile(epsilon=0.0, rho=1.0)
    assert FLAT.a(-40.0) == FLAT.a(0.3) == FLAT.a_out == 1.0
    assert FLAT.mass_and_rate(0.3, 2.0) == (2.0, 0.0)
    assert dyn.default_tau_span(FLAT, 1e-9) == (-10.0, 10.0)


def test_profile_validation():
    dyn.ScaleFactorProfile(epsilon=0.0, rho=3.0)
    # 2 epsilon overflows a_out at 1e308, 2 rho the span's half width
    # epsilon * rho overflows the mass rate at (1e200, 1e200)
    for epsilon, rho in ((-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1e308, 1.0),
                         (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan),
                         (1.0, 1e308), (1e200, 1e200)):
        with pytest.raises(ValueError):
            dyn.ScaleFactorProfile(epsilon, rho)
    # Mode rejects an m * epsilon * rho that overflows the mass rate; at
    # epsilon = 0 there is no rate
    dyn.Mode((1.0, 0.0, 0.0), 1e150, dyn.ScaleFactorProfile(1.0, 1e150))
    dyn.Mode((1.0, 0.0, 0.0), 1e150, dyn.ScaleFactorProfile(0.0, 1e300))
    with pytest.raises(ValueError, match="m \\* epsilon \\* rho"):
        dyn.Mode((1.0, 0.0, 0.0), 1e10, dyn.ScaleFactorProfile(1.0, 1e300))


def test_point_tolerance_covers_the_refined_run():
    floor = dyn.TOL_MIN * dyn.REFINEMENT
    dyn.check_point((1.0, 0.0, 0.0), 1.0, FLAT, floor)
    dyn.check_point((1.0, 0.0, 0.0), 1.0, FLAT, dyn.TOL_MAX)
    for tol in (dyn.TOL_MIN, 0.5 * (dyn.TOL_MIN + floor), 2.0 * dyn.TOL_MAX, math.nan):
        with pytest.raises(ValueError):
            dyn.check_point((1.0, 0.0, 0.0), 1.0, FLAT, tol)
    with pytest.raises(ValueError):
        dyn.momentum_point((1.0, 0.0, 0.0), 1.0, FLAT, tol=dyn.TOL_MIN)


def test_phase_budget_admits_the_documented_runs_and_rejects_a_hang():
    def phase(p, profile, tol=1e-9):
        mode = dyn.Mode((p, 0.0, 0.0), 1.0, profile)
        tau0, tau1 = dyn.default_tau_span(profile, tol / dyn.REFINEMENT)
        return max(mode.e_in, mode.e_out) * (tau1 - tau0)

    # |p| = 40 is the widest run of the README, CI, tests and benchmark.
    assert 50.0 * phase(40.0, TANH) <= dyn.MAX_PHASE
    assert phase(300.0, dyn.ScaleFactorProfile(1.0, 0.1)) <= dyn.MAX_PHASE
    huge = dyn.ScaleFactorProfile(1e14, 1.0)
    assert phase(1.0, huge) > dyn.MAX_PHASE
    with pytest.raises(ValueError, match="rad budget"):
        dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, huge))


def test_non_finite_frequency_fails_the_integration_instead_of_hanging():
    class NanRate:
        epsilon, rho, a_out = 1.0, 1.0, 1.0

        def a(self, tau):
            return 1.0

        def mass_and_rate(self, tau, m):
            return m, math.nan

    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, NanRate())
    with pytest.raises(dyn.IntegrationError, match="step size below"):
        dyn.integrate_mode(mode, tau_span=(-5.0, 5.0))


def test_mass_dot_overflow_safe():
    value = TANH.mass_and_rate(1e6, 1.0)[1]
    assert value == 0.0 or value < 1e-300


@pytest.mark.parametrize("profile", [TANH, dyn.ScaleFactorProfile(0.3, 2.5), FLAT],
                         ids=["tanh", "tanh-steep", "flat"])
def test_profile_methods_are_floats_matching_numpy_forms(profile):
    m = 1.3
    taus = np.concatenate([[-1e6, -40.0], np.linspace(-6.0, 6.0, 49), [40.0, 1e6]])
    x = profile.rho * taus
    a_ref = np.sqrt(1.0 + profile.epsilon * (1.0 + np.tanh(x)))
    expo = np.exp(-2.0 * np.abs(x))
    rate_ref = m * profile.epsilon * profile.rho * 4.0 * expo / (1.0 + expo) ** 2 \
        / (2.0 * a_ref)
    for tau, a, rate in zip(taus.tolist(), a_ref, rate_ref):
        values = (profile.a(tau), *profile.mass_and_rate(tau, m))
        assert all(type(v) is float for v in values)
        for value, ref in zip(values, (a, m * a, rate)):
            assert abs(value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("m", [-1.0, math.nan, math.inf])
def test_mode_parameters_reject_bad_mass(m):
    with pytest.raises(ValueError):
        dyn.Mode((1.0, 0.0, 0.0), m, TANH)


def test_asymptotic_energies():
    mode = dyn.Mode((0.0, 0.0, 1.0), 1.0, TANH)
    assert abs(mode.m_out - math.sqrt(3.0)) <= 1e-15
    assert abs(mode.e_in - math.sqrt(2.0)) <= 1e-15
    assert abs(mode.e_out - 2.0) <= 1e-15
    assert mode.e_in >= mode.p and mode.e_out >= mode.m_out
    # float ** raises OverflowError where * would give inf
    for p, m in ((1.0, 1e200), (1e200, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="squared is not a finite double"):
            dyn.Mode((p, 0.0, 0.0), m, TANH)
    with pytest.raises(ValueError, match="three components"):
        dyn.Mode((1.0, 0.0), 1.0, TANH)
    with pytest.raises(ValueError, match="m \\* epsilon \\* rho"):
        dyn.Mode((1.0, 0.0, 0.0), 1e10, dyn.ScaleFactorProfile(1.0, 1e300))


def test_momentum_below_the_square_root_underflow_is_reported():
    # sqrt(sum(c * c)) reads 0 below |p| ~ 1.5e-154; beta comes from the nonzero p_vec.
    assert dyn.Mode((0.0, 1e-300, 0.0), 1.0, TANH).p == 1e-300
    point = dyn.momentum_point((1e-300, 0.0, 0.0), 1.0, TANH)
    assert point.p == 1e-300 and 0.0 < max(point.beta_moduli) < 1e-299


def test_a_nonzero_momentum_below_the_smallest_normal_double_is_rejected():
    # Subnormal components have lost bits: |p| = 1e-320 along (1, 1, 1) read
    # lambda_effective 0.666339643347051 for 2/3, and 1e-323 read 0.25.
    for p_vec in ((1e-320,) * 3, (1e-323,) * 3, (1e-310, 0.0, 0.0)):
        with pytest.raises(ValueError, match="below the smallest normal double"):
            dyn.Mode(p_vec, 1.0, TANH)
    assert dyn.Mode((sys.float_info.min, 0.0, 0.0), 1.0, TANH).p == sys.float_info.min
    assert dyn.Mode((0.0, 0.0, 0.0), 1.0, TANH).p == 0.0


def test_constant_profile_plane_wave():
    mode = dyn.Mode((0.3, 0.0, 0.4), 1.0, FLAT)
    sol = dyn.integrate_mode(mode, tau_span=(-8.0, 8.0), tol=1e-10)
    energy = mode.e_in
    expected = np.exp(-1j * energy * sol.tau)
    assert np.max(np.abs(sol.f - expected)) <= 1e-8
    scalar = dyn.extract_scalar_coefficients(sol)
    assert abs(scalar.a_minus - 1.0) <= 1e-9
    assert abs(scalar.b_minus) <= 1e-9


def test_positive_frequency_initial_condition():
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH)
    sol = dyn.integrate_mode(mode, tol=1e-10)
    energy = mode.e_in
    early = slice(0, 5)
    ratio = sol.f_dot[early] / sol.f[early]
    assert np.max(np.abs(ratio + 1j * energy)) <= 1e-7


def test_span_too_narrow_is_configuration_error():
    with pytest.raises(ValueError):
        dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH), tau_span=(-3.0, 3.0),
                           tol=1e-10)


def test_tolerance_range_enforced():
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH)
    with pytest.raises(ValueError):
        dyn.integrate_mode(mode, tol=1e-3)
    with pytest.raises(ValueError):
        dyn.integrate_mode(mode, tol=1e-13)
    with pytest.raises(ValueError):
        dyn.integrate_mode(mode, tol=math.nan)


def test_wronskian_conserved_and_amplitude_bounded():
    tol = 1e-9
    sol = dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH), tol=tol)
    assert sol.wronskian_drift() <= 100 * tol
    assert sol.amplitude_bound_excess() <= 100 * tol


def test_extraction_stable_under_period_shift():
    tol = 1e-9
    scalar = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH), tol=tol))
    assert scalar.shift_residual <= 10 * tol


def test_self_convergence_under_tolerance_refinement():
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH)
    tol = 1e-9
    span = dyn.default_tau_span(TANH, tol / 10.0)
    coarse = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(mode, tau_span=span, tol=tol))
    fine = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(mode, tau_span=span, tol=tol / 10.0))
    drift = max(abs(coarse.a_minus - fine.a_minus), abs(coarse.b_minus - fine.b_minus))
    assert drift <= 10 * tol


def test_small_expansion_limit():
    gentle = dyn.ScaleFactorProfile(1e-4, 1.0)
    scalar = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, gentle), tol=1e-10))
    assert abs(scalar.b_minus) < 1e-4


def test_spinor_contraction_structure():
    matrix = dyn.spinor_contraction((0.0, 0.0, 2.5))
    assert abs(matrix[0, 0] - 2.5) <= 1e-15 and abs(matrix[1, 1] + 2.5) <= 1e-15
    assert matrix[0, 1] == 0.0 and matrix[1, 0] == 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        p_vec = rng.normal(size=3)
        matrix = dyn.spinor_contraction(p_vec)
        p2 = float(np.dot(p_vec, p_vec))
        for row in range(2):
            assert abs(np.sum(np.abs(matrix[row]) ** 2) - p2) <= 1e-12 * max(1.0, p2)
        flipped = dyn.spinor_contraction(-p_vec)
        assert np.max(np.abs(flipped + matrix)) <= 1e-15


def test_spinor_contraction_zero_momentum():
    matrix = dyn.spinor_contraction((0.0, 0.0, 0.0))
    assert np.all(matrix == 0.0)


def test_dress_constant_profile_is_trivial():
    mode = dyn.Mode((0.5, 0.5, 0.5), 1.0, FLAT)
    sol = dyn.integrate_mode(mode, tau_span=(-8.0, 8.0), tol=1e-10)
    scalar = dyn.extract_scalar_coefficients(sol)
    dressed = dyn.dress_coefficients(scalar, mode, tol=1e-10)
    assert abs(dressed.coefficients.a - 1.0) <= 1e-8
    assert np.max(np.abs(dressed.coefficients.beta)) <= 1e-8
    assert dyn.particle_density(dressed.coefficients) <= 1e-8


def test_dress_tanh_profile_normalization_and_lambda():
    mode = dyn.Mode((1.0, 1.0, 1.0), 1.0, TANH)
    tol = 1e-9
    sol = dyn.integrate_mode(mode, tol=tol)
    scalar = dyn.extract_scalar_coefficients(sol)
    dressed = dyn.dress_coefficients(scalar, mode, tol=tol)
    assert dressed.normalization_residual <= 10 * tol
    assert validate(dressed.coefficients, tolerance=10 * tol).passed
    # direction (1,1,1): flip fraction is (px^2+py^2)/|p|^2 = 2/3
    assert abs(dressed.lambda_effective - 2.0 / 3.0) <= 1e-12
    assert abs(abs(dressed.stripped_phase) - 1.0) <= 1e-12


def test_particle_density_round_trip():
    for scenario, n in ((Scenario.CHARGE_ONLY, 2.0),
                        (Scenario.CHARGE_AND_ANGULAR_MOMENTUM, 2.0),
                        (Scenario.SPINLESS, 1.2)):
        coeffs = from_density(scenario, n, lam=0.35)
        assert abs(dyn.particle_density(coeffs) - n) <= 1e-12
    zero = from_density(Scenario.CHARGE_ONLY, 0.0)
    assert dyn.particle_density(zero) == 0.0


_PHASE = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       phases=st.tuples(_PHASE, _PHASE, _PHASE, _PHASE))
@settings(max_examples=60, deadline=None)
# full density at lam = 0.5: the unclamped charge-only sum read 4.000000000000001
@example(fraction=1.0, lam=0.5, phases=(0.0, 0.0, 0.0, 0.0))
def test_particle_density_round_trip_within_bounds(scenario, fraction, lam, phases):
    n = min(fraction * scenario.n_max, scenario.n_max)
    coeffs = from_density(scenario, n, lam=lam, phases=phases)
    density = dyn.particle_density(coeffs)
    assert abs(density - n) <= 1e-12
    assert 0.0 <= density <= scenario.n_max


def test_momentum_point_end_to_end():
    point = dyn.momentum_point((0.7, 0.7, 0.7), 1.0, TANH, tol=1e-9)
    assert point.normalization_residual <= 1e-6
    assert point.self_convergence <= 1e-8
    assert point.discrepancy == abs(point.s_numeric - point.s_closed) <= 1e-6
    assert 0.0 < point.n_created < 4.0


def test_zero_momentum_point_creates_nothing():
    # The one input where the spinor contraction, and with it beta, vanishes.
    point = dyn.momentum_point((0.0, 0.0, 0.0), 1.0, TANH)
    assert point.beta_moduli == (0.0, 0.0, 0.0, 0.0)
    assert point.lambda_effective == 0.0
    assert point.n_created == 0.0
    assert point.s_numeric == 0.0 and point.s_closed == 0.0


@pytest.mark.parametrize("direction, flip_share", [((1.0, 1.0, 1.0), 2.0 / 3.0),
                                                   ((0.0, 0.0, 1.0), 0.0)])
def test_lambda_effective_is_read_from_the_direction_at_tiny_momentum(direction, flip_share):
    # At |p| = 1e-170 the squared spinor contraction underflows to zero.
    norm = math.hypot(*direction)
    point = dyn.momentum_point(tuple(1e-170 * c / norm for c in direction), 1.0, TANH)
    assert abs(point.lambda_effective - flip_share) <= 1e-12


def test_density_falls_off_at_large_momentum():
    # log-spaced moduli in [0.1, 10]: beyond the peak the created density
    # decreases monotonically toward zero
    grid = [0.1 * (100.0 ** (k / 9.0)) for k in range(10)]
    densities = [dyn.momentum_point((p, 0.0, 0.0), 1.0, TANH, tol=1e-9).n_created
                 for p in grid]
    peak = densities.index(max(densities))
    assert peak < len(grid) - 1
    for k in range(peak, len(grid) - 1):
        assert densities[k] > densities[k + 1]
    assert densities[-1] < 1e-6 * max(densities)


def test_degenerate_mode_rejected():
    mode = dyn.Mode((0.0, 0.0, 0.0), 0.0, FLAT)
    with pytest.raises((dyn.IntegrationError, ValueError)):
        sol = dyn.integrate_mode(mode, tau_span=(-5.0, 5.0), tol=1e-9)
        dyn.extract_scalar_coefficients(sol)


class TanhLinearMass:
    """a = 1 + delta (1 + tanh(rho tau)): the profile whose mode equation is hypergeometric.

    It has the interface ``momentum_point`` reads from ``ScaleFactorProfile``;
    ``epsilon`` = delta sizes the default span, as a - 1 ~ 2 delta
    exp(2 rho tau) early on.
    """

    def __init__(self, delta: float, rho: float):
        self.epsilon, self.rho = delta, rho
        self.a_out = 1.0 + 2.0 * delta

    def a(self, tau: float) -> float:
        return 1.0 + self.epsilon * (1.0 + math.tanh(self.rho * tau))

    def mass_and_rate(self, tau: float, m: float) -> tuple[float, float]:
        expo = math.exp(-2.0 * abs(self.rho * tau))
        sech2 = 4.0 * expo / (1.0 + expo) ** 2
        return m * self.a(tau), m * self.epsilon * self.rho * sech2


def exact_tanh_linear_density(p: float, m: float, delta: float, rho: float) -> float:
    """n_created = 4 |beta|**2 in closed form (Duncan 1978, Phys. Rev. D 17:964).

    The ratio of four sinh(x), x >= 0, in log-sinh form: each is written
    exp(x) (1 - exp(-2x)) / 2 and the four exponents meet in one sum, so no
    factor overflows where sinh would (x above about 710, as at p = 300,
    rho = 0.1).
    """
    m_in, m_out = m, m * (1.0 + 2.0 * delta)
    e_in, e_out = math.hypot(p, m_in), math.hypot(p, m_out)
    m_minus, omega_minus = (m_out - m_in) / 2.0, (e_out - e_in) / 2.0
    x_plus, x_minus, x_in, x_out = (math.pi * energy / rho for energy in (
        m_minus + omega_minus, m_minus - omega_minus, e_in, e_out))

    def tail(x):   # 2 sinh(x) / exp(x)
        return -math.expm1(-2.0 * x)

    return (4.0 * math.exp(math.fsum((x_plus, x_minus, -x_in, -x_out)))
            * tail(x_plus) * tail(x_minus) / (tail(x_in) * tail(x_out)))


TANH_POINTS = [(p, rho) for rho in (0.1, 0.5, 1.0, 3.0, 300.0) for p in (0.3, 1.0, 3.0)]


def test_exact_tanh_linear_density_matches_the_sinh_form_and_stays_finite():
    def sinh_form(p, m, delta, rho):
        m_in, m_out = m, m * (1.0 + 2.0 * delta)
        e_in, e_out = math.hypot(p, m_in), math.hypot(p, m_out)
        m_minus, omega_minus = (m_out - m_in) / 2.0, (e_out - e_in) / 2.0
        return (4.0 * math.sinh(math.pi * (m_minus + omega_minus) / rho)
                * math.sinh(math.pi * (m_minus - omega_minus) / rho)
                / (math.sinh(math.pi * e_in / rho) * math.sinh(math.pi * e_out / rho)))

    # Neither form is exact to 1e-15: each rounds sinh arguments of up to
    # about 100 at rho = 0.1, and the sinh form there is off by up to 1.1e-14
    # relative against 60-digit arithmetic.
    for p, rho in TANH_POINTS:
        assert math.isclose(exact_tanh_linear_density(p, 1.0, 0.5, rho),
                            sinh_form(p, 1.0, 0.5, rho), rel_tol=5e-14)
    with pytest.raises(OverflowError):
        sinh_form(300.0, 1.0, 0.5, 0.1)
    assert 0.0 <= exact_tanh_linear_density(300.0, 1.0, 0.5, 0.1) <= 4.0


@pytest.mark.parametrize("p, rho", [
    *(point for point in TANH_POINTS if point != (3.0, 0.1)),
    pytest.param(3.0, 0.1, marks=pytest.mark.xfail(
        strict=True, raises=dyn.IntegrationError,
        reason="DOP853 leaves a normalization residual of 1.6e-8 at rho = 0.1, p = 3, "
               "above the 10 * tol gate of the dressing")),
])
def test_momentum_point_matches_the_exact_tanh_linear_density(p, rho):
    profile = TanhLinearMass(delta=0.5, rho=rho)
    point = dyn.momentum_point(tuple(p / math.sqrt(3.0) for _ in range(3)), 1.0, profile)
    assert abs(point.n_created - exact_tanh_linear_density(p, 1.0, 0.5, rho)) <= 1e-10


@pytest.mark.xfail(strict=True, raises=dyn.IntegrationError,
                   reason="DOP853 leaves a normalization residual of about 1.9e-8 at "
                          "|p| = 40, above the 10 * tol gate of the dressing")
def test_production_profile_passes_the_normalization_gate_at_large_momentum():
    tol = 1e-9
    point = dyn.momentum_point(tuple(40.0 / math.sqrt(3.0) for _ in range(3)), 1.0, TANH,
                               tol=tol)
    assert point.normalization_residual <= 10.0 * tol
    assert 0.0 <= point.n_created <= 1e-10


def test_dop853_tableau_matches_scipy_digit_for_digit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert dyn._C == tuple(ref.C[:12])
    assert dyn._A == tuple(tuple(ref.A[s, :s]) for s in range(1, 12))
    assert dyn._B == tuple(ref.B)
    # The estimators' thirteenth entry, on the derivative at the new point, is zero.
    assert dyn._E3 == tuple(ref.E3[:12]) and ref.E3[12] == 0.0
    assert dyn._E5 == tuple(ref.E5[:12]) and ref.E5[12] == 0.0


def weighted_sum(weights, values):
    """sum(map(mul, weights, values)) as a plain left fold from 0.

    ``sum`` adds complex numbers this way up to Python 3.13; a version
    that compensates it, as 3.12 does for floats, would change the
    reference's rounding.
    """
    return reduce(add, map(mul, weights, values), 0)


def reference_step(k_of, t, y, dy, h, rtol, atol):
    """One DOP853 step as a loop over the dense tableau rows: the reference for ``dyn._step``."""
    f, f_dot, g, g_dot = y
    df, df_dot, dg, dg_dot = stages = tuple([d] for d in dy)
    for c, row in zip(dyn._C[1:], dyn._A):
        k = k_of(t + c * h)
        sf = f + h * weighted_sum(row, df)
        sf_dot = f_dot + h * weighted_sum(row, df_dot)
        sg = g + h * weighted_sum(row, dg)
        sg_dot = g_dot + h * weighted_sum(row, dg_dot)
        df.append(sf_dot)
        df_dot.append(-k * sf)
        dg.append(sg_dot)
        dg_dot.append(-k * sg)
    y_new = tuple(yi + h * weighted_sum(dyn._B, si) for yi, si in zip(y, stages))
    e5 = e3 = 0.0
    for si, a, b in zip(stages, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        e5 += abs(weighted_sum(dyn._E5, si) / scale) ** 2
        e3 += abs(weighted_sum(dyn._E3, si) / scale) ** 2
    if e5 == 0.0 and e3 == 0.0:
        return y_new, k, 0.0
    return y_new, k, abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def random_step_arguments(k_of, seed: int, count: int = 100):
    """Seeded (k_of, t, y, dy, h, rtol, atol) for full steps and shorter shifted-sample steps."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        t = float(rng.uniform(-20.0, 20.0))
        y = tuple(complex(*rng.normal(size=2)) for _ in range(4))
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        if i % 2:
            h *= float(rng.uniform(0.0, 1.0))
        tol = float(10.0 ** rng.uniform(-12.0, -6.0))
        yield k_of, t, y, dyn._derivative(y, k_of(t)), h, tol, tol * 1e-2


def steps_off_the_loop_form(step, calls) -> int:
    """Calls where step's (y_new, k, error) is not bit for bit the reference's."""
    return sum(step(*call) != reference_step(*call) for call in calls)


def duck_typed_frequency(tau: float) -> complex:
    return complex(2.0 + math.cos(3.0 * tau), -0.5 * math.sin(tau))


def test_compiled_step_equals_the_loop_form_on_random_states():
    calls = list(random_step_arguments(duck_typed_frequency, seed=13))
    assert steps_off_the_loop_form(dyn._step, calls) == 0


def test_compiled_step_equals_the_loop_form_inside_an_integration(monkeypatch):
    # Every call integrate_mode makes, with its own k_of: accepted steps,
    # rejected ones and the shorter step to the period-shifted sample.
    calls = []

    def recording_step(*args):
        calls.append(args)
        return step(*args)

    step = dyn._step
    monkeypatch.setattr(dyn, "_step", recording_step)
    sol = dyn.integrate_mode(dyn.Mode((0.1, 0.0, 0.0), 1.0, TANH))
    monkeypatch.undo()
    accepted = len(sol.tau) - 1
    assert len(calls) > accepted + 1, "no rejected step to compare"
    assert steps_off_the_loop_form(step, calls) == 0
    tau_shift, f_shift, f_dot_shift = sol.shifted
    assert any(call[1] + call[4] == tau_shift and step(*call)[0][:2] == (f_shift, f_dot_shift)
               for call in calls)


@pytest.mark.parametrize("table, index", [("c", 5), ("a", (7, 3)), ("b", 8), ("e5", 6),
                                          ("e3", 0)])
def test_a_wrong_tableau_digit_breaks_the_equality(table, index):
    # The equality test catches a generated step with one entry of one
    # table off in its twelfth significant digit.
    def nudged(values, i):
        return tuple(v * (1.0 + 1e-12) if j == i else v for j, v in enumerate(values))

    tableau = {"c": dyn._C, "a": dyn._A, "b": dyn._B, "e5": dyn._E5, "e3": dyn._E3}
    if table == "a":
        row, column = index
        tableau["a"] = tuple(nudged(r, column) if s == row else r for s, r in enumerate(dyn._A))
    else:
        tableau[table] = nudged(tableau[table], index)
    calls = list(random_step_arguments(duck_typed_frequency, seed=13))
    assert steps_off_the_loop_form(dyn._compile_step(**tableau), calls) > 0


@pytest.mark.parametrize("tol", [1e-9, 5e-10])
@pytest.mark.parametrize("p", [0.1, 1.0, 12.0, 40.0])
def test_stepper_matches_scipy_dop853(p, tol):
    # scipy's solve_ivp is the oracle: the same method and step-size controller.
    from scipy.integrate import solve_ivp

    mode = dyn.Mode((p, 0.0, 0.0), 1.0, TANH)
    span = dyn.default_tau_span(TANH, tol)
    sol = dyn.integrate_mode(mode, tau_span=span, tol=tol)
    e_in = mode.e_in

    def rhs(tau, y):
        mass, rate = TANH.mass_and_rate(tau, mode.m)
        k = p * p + mass ** 2 - 1j * rate
        return [y[1], -k * y[0], y[3], -k * y[2]]

    f0, g0 = np.exp(-1j * e_in * span[0]), np.exp(1j * e_in * span[0])
    y0 = np.array([f0, -1j * e_in * f0, g0, 1j * e_in * g0])
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    assert ref.success
    assert len(sol.tau) == len(ref.t)
    end = np.array([sol.f[-1], sol.f_dot[-1], sol.g[-1], sol.g_dot[-1]])
    assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-11
    tau_shift, f_shift, f_dot_shift = sol.shifted
    f_ref, f_dot_ref = ref.sol(tau_shift)[:2]
    assert max(abs(f_shift - f_ref), abs(f_dot_shift - f_dot_ref)) <= 50.0 * tol


@pytest.mark.parametrize("p", [0.3, 1.0, 3.0])
def test_momentum_point_approaches_the_sudden_mass_quench(p):
    # As rho grows the created density tends to the instantaneous quench
    # with error ~ rho**-2, so two rhos Richardson-extrapolate to the limit.
    m, epsilon = 1.0, 1.0
    n80, n320 = (dyn.momentum_point((p, 0.0, 0.0), m, dyn.ScaleFactorProfile(
        epsilon, rho)).n_created for rho in (80.0, 320.0))
    extrapolated = (16.0 * n320 - n80) / 15.0
    m_in, m_out = m, m * math.sqrt(1.0 + 2.0 * epsilon)
    e_in, e_out = math.hypot(p, m_in), math.hypot(p, m_out)
    quench = 2.0 * (1.0 - (p * p + m_in * m_out) / (e_in * e_out))
    assert abs(extrapolated - quench) <= 1e-5 * quench
