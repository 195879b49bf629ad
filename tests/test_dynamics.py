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
from cosmopair.cli import parse_momentum_grid

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
    assert FLAT.frequency(1.0, 2.0)(0.3) == (-5.0, 0.0)
    assert dyn.default_tau_span(FLAT) == (-10.0, 10.0)


def test_profile_validation():
    # The profiles it refuses, and the m * epsilon * rho that overflows the mass
    # rate, are cases of tests/cli_cases.py; at epsilon = 0 there is no rate,
    # though m * rho overflows.
    dyn.ScaleFactorProfile(epsilon=0.0, rho=3.0)
    dyn.Mode((1.0, 0.0, 0.0), 1e150, dyn.ScaleFactorProfile(1.0, 1e150))
    dyn.Mode((1.0, 0.0, 0.0), 1e3, dyn.ScaleFactorProfile(0.0, 1e306))


def test_phase_budget_admits_the_documented_runs_and_rejects_a_hang():
    def phase(p, profile):
        # max(E_in, E_out) at m = 1, where a is 1 early on and a_out late
        tau0, tau1 = dyn.default_tau_span(profile)
        return math.hypot(p, max(1.0, profile.a_out)) * (tau1 - tau0)

    # |p| = 40 is the widest run of the README, CI, tests and benchmark.
    assert 50.0 * phase(40.0, TANH) <= dyn.MAX_PHASE
    assert phase(300.0, dyn.ScaleFactorProfile(1.0, 0.1)) <= dyn.MAX_PHASE
    huge = dyn.ScaleFactorProfile(1e14, 1.0)
    assert phase(1.0, huge) > dyn.MAX_PHASE
    with pytest.raises(ValueError, match="rad budget"):
        dyn.Mode((1.0, 0.0, 0.0), 1.0, huge)


def test_a_mode_over_the_phase_budget_cannot_be_built():
    # A massless flat mode sweeps |p| (tau1 - tau0) = 20 |p| rad: the budget
    # admits |p| = MAX_PHASE / 20 and refuses the next double above it.
    edge = dyn.MAX_PHASE / 20.0
    with pytest.raises(ValueError, match="exceeds the 100000 rad budget"):
        dyn.Mode((math.nextafter(edge, math.inf), 0.0, 0.0), 0.0, FLAT)
    mode = dyn.Mode((edge, 0.0, 0.0), 0.0, FLAT)
    assert mode.tau_span == (-10.0, 10.0) and mode.e_out * 20.0 == dyn.MAX_PHASE


def test_non_finite_frequency_fails_the_integration_instead_of_hanging():
    class NanRate:
        epsilon, rho, a_out = 1.0, 1.0, 1.0

        def a(self, tau):
            return 1.0

        def frequency(self, p2, m):
            return lambda tau: (-(p2 + m ** 2), math.nan)

    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, NanRate())
    with pytest.raises(dyn.IntegrationError, match="step size below"):
        dyn.integrate_mode(mode)


def test_mass_dot_overflow_safe():
    value = TANH.frequency(0.0, 1.0)(1e6)[1]
    assert value == 0.0 or value < 1e-300


@pytest.mark.parametrize("profile", [TANH, dyn.ScaleFactorProfile(0.3, 2.5), FLAT],
                         ids=["tanh", "tanh-steep", "flat"])
def test_profile_methods_are_floats_matching_numpy_forms(profile):
    m, p2 = 1.3, 0.7
    taus = np.concatenate([[-1e6, -40.0], np.linspace(-6.0, 6.0, 49), [40.0, 1e6]])
    x = profile.rho * taus
    a_ref = np.sqrt(1.0 + profile.epsilon * (1.0 + np.tanh(x)))
    expo = np.exp(-2.0 * np.abs(x))
    rate_ref = m * profile.epsilon * profile.rho * 4.0 * expo / (1.0 + expo) ** 2 \
        / (2.0 * a_ref)
    minus_k, massless_minus_k = profile.frequency(p2, m), profile.frequency(0.0, m)
    for tau, a, rate in zip(taus.tolist(), a_ref, rate_ref):
        values = (profile.a(tau), *minus_k(tau))
        assert all(type(v) is float for v in values)
        for value, ref in zip(values, (a, -(p2 + (m * a) ** 2), rate)):
            assert abs(value - ref) <= 1e-15 * abs(ref)
        # a(tau) and the closure each keep a copy of the formula.
        assert massless_minus_k(tau)[0] == -(m * profile.a(tau)) ** 2


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


def test_momentum_below_the_square_root_underflow_is_reported():
    # sqrt(sum(c * c)) reads 0 below |p| ~ 1.5e-154; beta comes from the nonzero p_vec.
    assert dyn.Mode((0.0, 1e-300, 0.0), 1.0, TANH).p == 1e-300
    point = dyn.momentum_point(dyn.Mode((1e-300, 0.0, 0.0), 1.0, TANH))
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
    # With nothing to mix, the positive-frequency start f = exp(-i E tau)
    # arrives as A = 1 and B = 0; a negative-frequency start would read A = 0.
    scalar = dyn.integrate_mode(dyn.Mode((0.3, 0.0, 0.4), 1.0, FLAT), refined=True)
    assert abs(scalar.a_minus - 1.0) <= 1e-9
    assert abs(scalar.b_minus) <= 1e-9


_MODE = dyn.Mode((1.0, 0.0, 0.0), 1.0, FLAT)


@pytest.mark.parametrize("call", [
    lambda: dyn.momentum_point(_MODE, tol=dyn.TOL),
    lambda: dyn.integrate_mode(_MODE, tol=dyn.TOL),
    lambda: dyn.integrate_mode(_MODE, tau_span=(-10.0, 10.0)),
    lambda: dyn.dress_coefficients(dyn.ScalarBogolyubov(1.0, 0.0), _MODE, tol=dyn.TOL),
    lambda: dyn.default_tau_span(FLAT, dyn.TOL),
], ids=["momentum_point-tol", "integrate_mode-tol",
        "integrate_mode-tau_span", "dress_coefficients-tol", "default_tau_span-tol"])
def test_the_dynamics_functions_take_no_accuracy_knobs(call):
    # Every span and gate is derived from the mode and the fixed TOL; no
    # caller can move them.
    with pytest.raises(TypeError, match="argument"):
        call()


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0, 12.0])
def test_the_real_stepper_passes_the_dressing_gate(p):
    # A wrong tableau weight fails it at each of these points (tests/mutants.py).
    point = dyn.momentum_point(dyn.Mode((p, 0.0, 0.0), 1.0, TANH))
    assert point.normalization_residual <= dyn.DRESSING_GATE * dyn.TOL


def test_self_convergence_under_tolerance_refinement():
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH)
    tol = 1e-9
    coarse = dyn.integrate_mode(mode)
    fine = dyn.integrate_mode(mode, refined=True)
    drift = max(abs(coarse.a_minus - fine.a_minus), abs(coarse.b_minus - fine.b_minus))
    assert drift <= 10 * tol


def test_small_expansion_limit():
    gentle = dyn.ScaleFactorProfile(1e-4, 1.0)
    scalar = dyn.integrate_mode(dyn.Mode((1.0, 0.0, 0.0), 1.0, gentle), refined=True)
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
    dressed = dyn.dress_coefficients(dyn.integrate_mode(mode, refined=True), mode)
    assert abs(dressed.coefficients.a - 1.0) <= 1e-8
    assert np.max(np.abs(dressed.coefficients.beta)) <= 1e-8
    assert dyn.particle_density(dressed.coefficients) <= 1e-8


def test_dress_tanh_profile_normalization_and_lambda():
    mode = dyn.Mode((1.0, 1.0, 1.0), 1.0, TANH)
    tol = 1e-9
    dressed = dyn.dress_coefficients(dyn.integrate_mode(mode), mode)
    assert dressed.normalization_residual <= 10 * tol
    assert validate(dressed.coefficients, tolerance=10 * tol).passed
    # direction (1,1,1): flip fraction is (px^2+py^2)/|p|^2 = 2/3
    assert abs(dressed.lambda_effective - 2.0 / 3.0) <= 1e-12
    assert abs(abs(dressed.stripped_phase) - 1.0) <= 1e-12


def test_the_dressing_gate_message_prints_the_gate_short():
    # The gate DRESSING_GATE * TOL = 10 * 1e-9 is 1e-08 exactly as a float.
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, TANH)
    scalar = dyn.ScalarBogolyubov(a_minus=0.5, b_minus=0.0)
    with pytest.raises(dyn.IntegrationError, match=r"constraints beyond 1e-08: \["):
        dyn.dress_coefficients(scalar, mode)


def test_an_amplitude_excess_counts_against_the_dressing_gate():
    # The set holds a = min(|A|, 1); the excess |A|**2 - 1 is still reported
    # as normalization residual, and refused beyond the gate.
    mode = dyn.Mode((1.0, 0.0, 0.0), 1.0, FLAT)
    dressed = dyn.dress_coefficients(dyn.ScalarBogolyubov(1.0 + 1e-10, 0.0), mode)
    assert dressed.coefficients.a == 1.0
    assert math.isclose(dressed.normalization_residual, 2e-10, rel_tol=1e-5)
    with pytest.raises(dyn.IntegrationError,
                       match=r"beyond 1e-08: \['normalization'\] \(worst 2\.000e-06\)"):
        dyn.dress_coefficients(dyn.ScalarBogolyubov(1.0 + 1e-6, 0.0), mode)


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
    point = dyn.momentum_point(dyn.Mode((0.7, 0.7, 0.7), 1.0, TANH))
    assert point.normalization_residual <= 1e-6
    assert point.self_convergence <= 1e-8
    assert point.discrepancy == abs(point.s_numeric - point.s_closed) <= 1e-6
    assert 0.0 < point.n_created < 4.0


def test_zero_momentum_point_creates_nothing():
    # The one input where the spinor contraction, and with it beta, vanishes.
    point = dyn.momentum_point(dyn.Mode((0.0, 0.0, 0.0), 1.0, TANH))
    assert point.beta_moduli == (0.0, 0.0, 0.0, 0.0)
    assert point.lambda_effective == 0.0
    assert point.n_created == 0.0
    assert point.s_numeric == 0.0 and point.s_closed == 0.0


@pytest.mark.parametrize("direction, flip_share", [((1.0, 1.0, 1.0), 2.0 / 3.0),
                                                   ((0.0, 0.0, 1.0), 0.0)])
def test_lambda_effective_is_read_from_the_direction_at_tiny_momentum(direction, flip_share):
    # At |p| = 1e-170 the squared spinor contraction underflows to zero.
    norm = math.hypot(*direction)
    point = dyn.momentum_point(dyn.Mode(tuple(1e-170 * c / norm for c in direction), 1.0, TANH))
    assert abs(point.lambda_effective - flip_share) <= 1e-12


def test_density_falls_off_at_large_momentum():
    # log-spaced moduli in [0.1, 10]: beyond the peak the created density
    # decreases monotonically toward zero
    grid = [0.1 * (100.0 ** (k / 9.0)) for k in range(10)]
    densities = [dyn.momentum_point(dyn.Mode((p, 0.0, 0.0), 1.0, TANH)).n_created for p in grid]
    peak = densities.index(max(densities))
    assert peak < len(grid) - 1
    for k in range(peak, len(grid) - 1):
        assert densities[k] > densities[k + 1]
    assert densities[-1] < 1e-6 * max(densities)


@pytest.mark.parametrize("p, m, energy", [(0.0, 0.0, "0"), (5e-10, 1e-10, "5.29e-10"),
                                           (0.0, 1e-160, "1.73e-160")])
def test_degenerate_mode_rejected(p, m, energy, monkeypatch):
    # integrate_mode refuses, naming the energy, before the stepper runs.
    def no_steps(*args):
        raise AssertionError("integrated a degenerate mode")

    monkeypatch.setattr(dyn, "_dop853", no_steps)
    with pytest.raises(dyn.IntegrationError,
                       match=f"out-region energy {energy} is below MIN_OUT_ENERGY = 1e-09"):
        dyn.integrate_mode(dyn.Mode((p, 0.0, 0.0), m, TANH))


class TanhLinearMass:
    """a = 1 + delta (1 + tanh(rho tau)): the profile whose mode equation is hypergeometric.

    It has the interface ``Mode`` and ``integrate_mode`` read from ``ScaleFactorProfile``;
    ``epsilon`` = delta sizes the default span, as a - 1 ~ 2 delta
    exp(2 rho tau) early on.
    """

    def __init__(self, delta: float, rho: float):
        self.epsilon, self.rho = delta, rho
        self.a_out = 1.0 + 2.0 * delta

    def a(self, tau: float) -> float:
        return 1.0 + self.epsilon * (1.0 + math.tanh(self.rho * tau))

    def frequency(self, p2: float, m: float):
        def minus_k(tau: float) -> tuple[float, float]:
            expo = math.exp(-2.0 * abs(self.rho * tau))
            sech2 = 4.0 * expo / (1.0 + expo) ** 2
            return -(p2 + (m * self.a(tau)) ** 2), m * self.epsilon * self.rho * sech2

        return minus_k


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


SPAN_PROFILES = [*(dyn.ScaleFactorProfile(epsilon, rho) for epsilon in (1e-4, 1.0, 1e3)
                   for rho in (0.1, 1.0, 300.0)),
                 *(TanhLinearMass(0.5, rho) for rho in (0.1, 300.0))]


@pytest.mark.parametrize("profile", SPAN_PROFILES, ids=lambda profile: (
    f"{type(profile).__name__}-{profile.epsilon:g}-{profile.rho:g}"))
def test_the_span_reaches_both_flat_regions(profile):
    # integrate_mode starts from and matches onto plane waves at the ends
    # of the derived span, so both ends must lie in the flat regions at the
    # finer of its two tolerances.
    tau0, tau1 = dyn.default_tau_span(profile)
    assert tau0 < tau1
    assert abs(profile.a(tau0) - 1.0) <= dyn.TOL / dyn.REFINEMENT
    assert abs(profile.a(tau1) - profile.a_out) <= dyn.TOL / dyn.REFINEMENT


TANH_POINTS = [(p, rho) for rho in (0.1, 0.5, 1.0, 3.0, 300.0) for p in (0.3, 1.0, 3.0)]
# Points where DOP853 left more than 1e-10 in n before its steps were
# capped at MAX_STEP_RHO / rho: 1.0e-10 to 2.2e-10 with the partner g in
# the state, 1.05e-10 to 1.4e-10 without it.
HIGH_RHO_POINTS = [(2.0, 10.0), (3.0, 10.0), (3.0, 50.0), (4.0, 50.0), (2.0, 200.0),
                   (4.0, 300.0), (2.0, 400.0), (4.0, 500.0)]


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
    *(point for point in TANH_POINTS + HIGH_RHO_POINTS if point != (3.0, 0.1)),
    pytest.param(3.0, 0.1, marks=pytest.mark.xfail(
        strict=True, raises=dyn.IntegrationError,
        reason="DOP853 leaves a normalization residual of 1.6e-8 at rho = 0.1, p = 3, "
               "above the 10 * tol gate of the dressing")),
])
def test_momentum_point_matches_the_exact_tanh_linear_density(p, rho):
    profile = TanhLinearMass(delta=0.5, rho=rho)
    mode = dyn.Mode(tuple(p / math.sqrt(3.0) for _ in range(3)), 1.0, profile)
    point = dyn.momentum_point(mode)
    assert abs(point.n_created - exact_tanh_linear_density(p, 1.0, 0.5, rho)) <= 1e-10


@pytest.mark.xfail(strict=True, raises=dyn.IntegrationError,
                   reason="DOP853 leaves a normalization residual of about 1.9e-8 at "
                          "|p| = 40, above the 10 * tol gate of the dressing")
def test_production_profile_passes_the_normalization_gate_at_large_momentum():
    tol = 1e-9
    mode = dyn.Mode(tuple(40.0 / math.sqrt(3.0) for _ in range(3)), 1.0, TANH)
    point = dyn.momentum_point(mode)
    assert point.normalization_residual <= 10.0 * tol
    assert 0.0 <= point.n_created <= 1e-10


@pytest.mark.parametrize("mass, profile", [
    pytest.param(1.0, FLAT, id="flat", marks=pytest.mark.xfail(
        strict=True, raises=dyn.IntegrationError,
        reason="DOP853 leaves a normalization residual of 1.53e-8 over the 800 rad that "
               "the flat mode sweeps at |p| = 40, above the 10 * tol gate of the dressing")),
    pytest.param(0.0, TANH, id="massless", marks=pytest.mark.xfail(
        strict=True, raises=dyn.IntegrationError,
        reason="DOP853 leaves a normalization residual of 1.94e-8 over the 1017 rad that "
               "the massless mode sweeps at |p| = 40, above the 10 * tol gate of the dressing")),
])
def test_no_creation_controls_read_their_exact_answer_at_large_momentum(mass, profile):
    # Nothing is created on the flat profile, nor for the conformally invariant
    # massless field: the exact answer is A = 1 and n = 0.
    mode = dyn.Mode(tuple(40.0 / math.sqrt(3.0) for _ in range(3)), mass, profile)
    point = dyn.momentum_point(mode)
    assert abs(point.a - 1.0) <= 1e-10
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
    """One DOP853 step in complex arithmetic as a loop over the dense tableau rows.

    The reference for ``dyn._step``, which runs on real and imaginary parts
    and takes -k where this takes k.
    """
    f, f_dot = y
    df, df_dot = stages = tuple([d] for d in dy)
    for c, row in zip(dyn._C[1:], dyn._A):
        k = k_of(t + c * h)
        sf = f + h * weighted_sum(row, df)
        sf_dot = f_dot + h * weighted_sum(row, df_dot)
        df.append(sf_dot)
        df_dot.append(-k * sf)
    y_new = tuple(yi + h * weighted_sum(dyn._B, si) for yi, si in zip(y, stages))
    e5 = e3 = 0.0
    for si, a, b in zip(stages, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        e5 += abs(weighted_sum(dyn._E5, si) / scale) ** 2
        e3 += abs(weighted_sum(dyn._E3, si) / scale) ** 2
    if e5 == 0.0 and e3 == 0.0:
        return y_new, k, 0.0
    return y_new, k, abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def random_step_arguments(minus_k, seed: int, count: int = 100):
    """Seeded (minus_k, t, y, g, h, rtol, atol) for full steps and shorter, clipped last steps."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        t = float(rng.uniform(-20.0, 20.0))
        f, f_dot = (complex(*rng.normal(size=2)) for _ in range(2))
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        if i % 2:
            h *= float(rng.uniform(0.0, 1.0))
        tol = float(10.0 ** rng.uniform(-12.0, -6.0))
        g = complex(*minus_k(t)) * f
        yield (minus_k, t, (f.real, f.imag, f_dot.real, f_dot.imag), (g.real, g.imag), h,
               tol, tol * 1e-2)


def steps_off_the_loop_form(step, calls) -> int:
    """Calls where step's (y_new, g_new, error) is not bit for bit the reference's.

    Each call is adapted to the reference: the state to (f, f'), the
    frequency closure to k(tau) = -complex(*minus_k(tau)), and the
    reference's k at t + h to f'' = -k f at the new state.
    """
    off = 0
    for minus_k, t, (fr, fi, ur, ui), g, h, rtol, atol in calls:
        (f, f_dot), k, error = reference_step(lambda tau: -complex(*minus_k(tau)), t,
                                              (complex(fr, fi), complex(ur, ui)),
                                              (complex(ur, ui), complex(*g)), h, rtol, atol)
        y_new, g_new, step_error = step(minus_k, t, (fr, fi, ur, ui), g, h, rtol, atol)
        off += ((complex(y_new[0], y_new[1]), complex(y_new[2], y_new[3]), complex(*g_new),
                 step_error) != (f, f_dot, -k * f, error))
    return off


def duck_typed_frequency(tau: float) -> tuple[float, float]:
    return -(2.0 + math.cos(3.0 * tau)), 0.5 * math.sin(tau)


@pytest.mark.parametrize("minus_k", [duck_typed_frequency, TANH.frequency(0.01, 1.0)],
                         ids=["duck-typed", "production"])
def test_compiled_step_equals_the_loop_form_on_random_states(minus_k):
    calls = list(random_step_arguments(minus_k, seed=13))
    assert steps_off_the_loop_form(dyn._step, calls) == 0


def test_compiled_step_equals_the_loop_form_inside_an_integration(monkeypatch):
    # Every call integrate_mode makes, with its own frequency closure:
    # accepted steps, rejected ones and the last step, clipped to the end
    # of the span.  The integration tries 88 steps; one that never ends fails
    # at the cap instead of filling the memory.
    calls = []

    def recording_step(*args):
        calls.append(args)
        assert len(calls) <= 1000, "the integration tried more than 1000 steps"
        return step(*args)

    step = dyn._step
    monkeypatch.setattr(dyn, "_step", recording_step)
    accepted = dyn.integrate_mode(dyn.Mode((0.1, 0.0, 0.0), 1.0, TANH)).n_steps
    monkeypatch.undo()
    assert len(calls) > accepted, "no rejected step to compare"
    assert steps_off_the_loop_form(step, calls) == 0


def counted_frequencies(monkeypatch) -> list[int]:
    """Make every frequency closure count its calls into the returned one-item list."""
    calls = [0]
    frequency = dyn.ScaleFactorProfile.frequency

    def counting(profile, p2, m):
        minus_k = frequency(profile, p2, m)

        def counted(tau):
            calls[0] += 1
            return minus_k(tau)

        return counted

    monkeypatch.setattr(dyn.ScaleFactorProfile, "frequency", counting)
    return calls


@pytest.mark.parametrize("profile, rejects", [(TANH, True), (FLAT, False)], ids=["tanh", "flat"])
def test_the_evaluation_count_is_the_calls_of_the_frequency(profile, rejects, monkeypatch):
    # n_rhs_evaluations is derived as 2 + 11 per step tried; at p = 0.1
    # the tanh profile rejects steps, and the flat one does not.
    calls = counted_frequencies(monkeypatch)
    scalar = dyn.integrate_mode(dyn.Mode((0.1, 0.0, 0.0), 1.0, profile))
    assert scalar.n_rhs_evaluations == calls[0]
    assert (calls[0] - 2 > 11 * scalar.n_steps) is rejects


def test_the_benchmark_grid_keeps_its_evaluation_count(monkeypatch):
    # Both runs of each point of `dynamics --p-grid log:0.1:40:6`, the
    # |p| = 40 point whose row fails the dressing gate included.
    calls = counted_frequencies(monkeypatch)
    direction = tuple(1.0 / math.hypot(1.0, 1.0, 1.0) for _ in range(3))
    modes = [dyn.Mode(tuple(p * c for c in direction), 1.0, TANH)
             for p in parse_momentum_grid("log:0.1:40:6")]
    total = sum(dyn.integrate_mode(mode, refined).n_rhs_evaluations
                for mode in modes for refined in (False, True))
    assert total == calls[0] == 84_427


@pytest.mark.parametrize("refined", [False, True], ids=["1e-09", "5e-10"])   # by tol
@pytest.mark.parametrize("p", [0.1, 1.0, 12.0, 40.0])
@pytest.mark.parametrize("rho", [1.0, 300.0])
def test_stepper_matches_scipy_dop853(p, refined, rho):
    # scipy's solve_ivp is the oracle: the same method and step-size
    # controller.  At rho = 300 the step cap MAX_STEP_RHO / rho binds.
    from scipy.integrate import solve_ivp

    profile = dyn.ScaleFactorProfile(1.0, rho)
    mode = dyn.Mode((p, 0.0, 0.0), 1.0, profile)
    tol = dyn.TOL / dyn.REFINEMENT if refined else dyn.TOL
    span = dyn.default_tau_span(profile)
    scalar = dyn.integrate_mode(mode, refined=refined)
    e_in, e_out = mode.e_in, mode.e_out

    minus_k = profile.frequency(p * p, mode.m)

    def rhs(tau, y):
        return [y[1], complex(*minus_k(tau)) * y[0]]

    f0 = np.exp(-1j * e_in * span[0])
    ref = solve_ivp(rhs, span, np.array([f0, -1j * e_in * f0]), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, max_step=dyn.MAX_STEP_RHO / rho)
    assert ref.success
    assert scalar.n_steps + 1 == len(ref.t)
    # (f, f') at the end of the span, back from the matched amplitudes
    positive = scalar.a_minus * np.exp(-1j * e_out * span[1])
    negative = scalar.b_minus * np.exp(1j * e_out * span[1])
    end = np.array([positive + negative, -1j * e_out * (positive - negative)])
    assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-11


@pytest.mark.parametrize("p", [0.3, 1.0, 3.0])
def test_momentum_point_approaches_the_sudden_mass_quench(p):
    # As rho grows the created density tends to the instantaneous quench
    # with error ~ rho**-2, so two rhos Richardson-extrapolate to the limit.
    m, epsilon = 1.0, 1.0
    n80, n320 = (dyn.momentum_point(dyn.Mode((p, 0.0, 0.0), m, dyn.ScaleFactorProfile(
        epsilon, rho))).n_created for rho in (80.0, 320.0))
    extrapolated = (16.0 * n320 - n80) / 15.0
    quench = sudden_density(p, m, dyn.ScaleFactorProfile(epsilon))
    assert abs(extrapolated - quench) <= 1e-5 * quench


def sudden_density(p: float, m: float, profile) -> float:
    """n_sudden = 2 (1 - (p**2 + m**2 a_out) / (E_in E_out)), the instantaneous mass quench."""
    m_out = m * profile.a_out
    e_in, e_out = math.hypot(p, m), math.hypot(p, m_out)
    return 2.0 * (1.0 - (p * p + m * m_out) / (e_in * e_out))


def log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


@given(epsilon=log_uniform(1.0, 1e3), rho=log_uniform(1.0, 1e3), m=log_uniform(0.1, 3.0),
       p=log_uniform(1e-2, 3.0),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_created_density_never_exceeds_the_sudden_quench(epsilon, rho, m, p, direction):
    # The mass m a(tau) only grows, so the adiabatic Bloch vector turns one
    # way, by at most the angle between the in and out eigenbases: n_created
    # <= n_sudden, with equality as rho grows (n / n_sudden reads 0.9999999
    # at rho = 1000).  rho >= 1 keeps DOP853 cheap.
    profile = dyn.ScaleFactorProfile(epsilon, rho)
    norm = math.hypot(*direction)
    tol = 1e-9
    try:
        point = dyn.momentum_point(dyn.Mode(tuple(p * c / norm for c in direction), m, profile))
    except dyn.IntegrationError:   # a row the dressing gate refuses is not ok
        return
    assert 0.0 <= point.n_created <= sudden_density(point.p, m, profile) + 10.0 * tol
