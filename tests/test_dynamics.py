import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SCENARIOS
from cosmopair import dynamics as dyn
from cosmopair.bogoliubov import Scenario, from_density, validate

TANH = dyn.ScaleFactorProfile.smooth_step(1.0, 1.0)
FLAT = dyn.ScaleFactorProfile.constant(1.0)


def test_profile_asymptotics():
    assert TANH.a_in == 1.0
    assert abs(TANH.a_out - math.sqrt(3.0)) <= 1e-15
    assert abs(float(TANH.a(-40.0)) - 1.0) <= 1e-14
    assert abs(float(TANH.a(40.0)) - TANH.a_out) <= 1e-14
    assert FLAT.a_in == FLAT.a_out == 1.0
    assert FLAT.mass_and_rate(0.3, 2.0) == (2.0, 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        dyn.ScaleFactorProfile(kind="exp")
    # 2 epsilon overflows a_out at 1e308, 2 rho the span's half width
    for epsilon, rho in ((-1.0, 1.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                         (1e308, 1.0), (1.0, 1e308)):
        with pytest.raises(ValueError):
            dyn.ScaleFactorProfile.smooth_step(epsilon, rho)
    for a0 in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            dyn.ScaleFactorProfile.constant(a0)


def test_point_tolerance_covers_the_refined_run():
    floor = dyn.TOL_MIN * dyn.REFINEMENT
    dyn.check_point_tolerance(floor)
    dyn.check_point_tolerance(dyn.TOL_MAX)
    for tol in (dyn.TOL_MIN, 0.5 * (dyn.TOL_MIN + floor), 2.0 * dyn.TOL_MAX, math.nan):
        with pytest.raises(ValueError):
            dyn.check_point_tolerance(tol)
    with pytest.raises(ValueError):
        dyn.momentum_point((1.0, 0.0, 0.0), 1.0, FLAT, tol=dyn.TOL_MIN)


def test_mass_dot_overflow_safe():
    value = TANH.mass_and_rate(1e6, 1.0)[1]
    assert value == 0.0 or value < 1e-300


@pytest.mark.parametrize("profile", [TANH, dyn.ScaleFactorProfile.smooth_step(0.3, 2.5),
                                     dyn.ScaleFactorProfile.constant(1.7)],
                         ids=["tanh", "tanh-steep", "constant"])
def test_profile_methods_are_floats_matching_numpy_forms(profile):
    m = 1.3
    taus = np.concatenate([[-1e6, -40.0], np.linspace(-6.0, 6.0, 49), [40.0, 1e6]])
    if profile.kind == "tanh":
        x = profile.rho * taus
        a_ref = np.sqrt(1.0 + profile.epsilon * (1.0 + np.tanh(x)))
        expo = np.exp(-2.0 * np.abs(x))
        rate_ref = m * profile.epsilon * profile.rho * 4.0 * expo / (1.0 + expo) ** 2 \
            / (2.0 * a_ref)
    else:
        a_ref = np.full_like(taus, profile.a0)
        rate_ref = np.zeros_like(taus)
    for tau, a, rate in zip(taus.tolist(), a_ref, rate_ref):
        values = (profile.a(tau), *profile.mass_and_rate(tau, m))
        assert all(type(v) is float for v in values)
        for value, ref in zip(values, (a, m * a, rate)):
            assert abs(value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("m", [-1.0, math.nan, math.inf])
def test_mode_parameters_reject_bad_mass(m):
    with pytest.raises(ValueError):
        dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=m)


def test_asymptotic_energies():
    params = dyn.ModeParameters(p_vec=(0.0, 0.0, 1.0), m=1.0)
    en = dyn.asymptotic_energies(params, TANH)
    assert abs(en.m_in - 1.0) <= 1e-15
    assert abs(en.m_out - math.sqrt(3.0)) <= 1e-15
    assert abs(en.e_in - math.sqrt(2.0)) <= 1e-15
    assert abs(en.e_out - 2.0) <= 1e-15
    assert en.e_in >= params.p and en.e_out >= en.m_out


def test_constant_profile_plane_wave():
    params = dyn.ModeParameters(p_vec=(0.3, 0.0, 0.4), m=1.0)
    sol = dyn.integrate_mode(params, FLAT, tau_span=(-8.0, 8.0), tol=1e-10)
    energy = dyn.asymptotic_energies(params, FLAT).e_in
    expected = np.exp(-1j * energy * sol.tau)
    assert np.max(np.abs(sol.f - expected)) <= 1e-8
    scalar = dyn.extract_scalar_coefficients(sol)
    assert abs(scalar.a_minus - 1.0) <= 1e-9
    assert abs(scalar.b_minus) <= 1e-9


def test_positive_frequency_initial_condition():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    sol = dyn.integrate_mode(params, TANH, tol=1e-10)
    energy = dyn.asymptotic_energies(params, TANH).e_in
    early = slice(0, 5)
    ratio = sol.f_dot[early] / sol.f[early]
    assert np.max(np.abs(ratio + 1j * energy)) <= 1e-7


def test_span_too_narrow_is_configuration_error():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    with pytest.raises(ValueError):
        dyn.integrate_mode(params, TANH, tau_span=(-3.0, 3.0), tol=1e-10)


def test_tolerance_range_enforced():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    with pytest.raises(ValueError):
        dyn.integrate_mode(params, TANH, tol=1e-3)
    with pytest.raises(ValueError):
        dyn.integrate_mode(params, TANH, tol=1e-13)
    with pytest.raises(ValueError):
        dyn.integrate_mode(params, TANH, tol=math.nan)


def test_wronskian_conserved_and_amplitude_bounded():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    tol = 1e-9
    sol = dyn.integrate_mode(params, TANH, tol=tol)
    assert sol.wronskian_drift() <= 100 * tol
    assert sol.amplitude_bound_excess() <= 100 * tol


def test_extraction_stable_under_period_shift():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    tol = 1e-9
    scalar = dyn.extract_scalar_coefficients(dyn.integrate_mode(params, TANH, tol=tol))
    assert scalar.shift_residual <= 10 * tol


def test_self_convergence_under_tolerance_refinement():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    tol = 1e-9
    span = dyn.default_tau_span(TANH, tol / 10.0)
    coarse = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(params, TANH, tau_span=span, tol=tol))
    fine = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(params, TANH, tau_span=span, tol=tol / 10.0))
    drift = max(abs(coarse.a_minus - fine.a_minus), abs(coarse.b_minus - fine.b_minus))
    assert drift <= 10 * tol


def test_small_expansion_limit():
    params = dyn.ModeParameters(p_vec=(1.0, 0.0, 0.0), m=1.0)
    gentle = dyn.ScaleFactorProfile.smooth_step(1e-4, 1.0)
    scalar = dyn.extract_scalar_coefficients(
        dyn.integrate_mode(params, gentle, tol=1e-10))
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
    params = dyn.ModeParameters(p_vec=(0.5, 0.5, 0.5), m=1.0)
    sol = dyn.integrate_mode(params, FLAT, tau_span=(-8.0, 8.0), tol=1e-10)
    scalar = dyn.extract_scalar_coefficients(sol)
    dressed = dyn.dress_coefficients(scalar, params, FLAT, tol=1e-10)
    assert abs(dressed.coefficients.a - 1.0) <= 1e-8
    assert np.max(np.abs(dressed.coefficients.beta)) <= 1e-8
    assert dyn.particle_density(dressed.coefficients) <= 1e-8


def test_dress_tanh_profile_normalization_and_lambda():
    params = dyn.ModeParameters(p_vec=(1.0, 1.0, 1.0), m=1.0)
    tol = 1e-9
    sol = dyn.integrate_mode(params, TANH, tol=tol)
    scalar = dyn.extract_scalar_coefficients(sol)
    dressed = dyn.dress_coefficients(scalar, params, TANH, tol=tol)
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
    assert abs(point.s_numeric - point.s_closed) <= 1e-6
    assert 0.0 < point.n_created < 4.0


def test_zero_momentum_point_creates_nothing():
    # The one input where the spinor contraction, and with it beta, vanishes.
    point = dyn.momentum_point((0.0, 0.0, 0.0), 1.0, TANH)
    assert point.beta_moduli == (0.0, 0.0, 0.0, 0.0)
    assert point.lambda_effective == 0.0
    assert point.n_created == 0.0
    assert point.s_numeric == 0.0 and point.s_closed == 0.0


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
    params = dyn.ModeParameters(p_vec=(0.0, 0.0, 0.0), m=0.0)
    with pytest.raises((dyn.IntegrationError, ValueError)):
        sol = dyn.integrate_mode(params, FLAT, tau_span=(-5.0, 5.0), tol=1e-9)
        dyn.extract_scalar_coefficients(sol)
