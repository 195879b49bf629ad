"""The mutant contract: one row per mutant, read by ``test_mutants.py``.

A route's oracle is evidence only while some check fails when the route is
wrong.  Each row is one wrong route, a mutant (DeMillo, Lipton & Sayward
1978), and names what kills it:

* ``killers``: tier-1 tests, each called with its arguments, that return
  without the mutant and raise ``error`` under it, that type and not a
  subclass (``AssertionError`` unless a gate is the killer);
* ``verify_fails``: the exact set of checks that ``verify.run_all(batch=16)``
  reports FAIL under it, a check whose inputs are refused included; an
  empty set means ``cosmopair verify`` cannot see the mutant.

``patch(monkeypatch)`` applies the mutant in-process and never rewrites
source.  ``verify`` and ``entanglement`` import by name, so a function they
call is patched in their namespace (``at``); a function that a test table
holds by reference, as ``stack_cases.CASES`` does, runs its own source with
one string replaced, recompiled in memory (``edited``).  ``UNKILLED`` names
every ``verify`` check that no row makes FAIL, and why.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import textwrap
import types
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest

import stack_cases
import test_bogoliubov
import test_dynamics
import test_entanglement
import test_fock
import test_stacks
from cosmopair import bogoliubov as bg
from cosmopair import dynamics as dyn
from cosmopair import entanglement as ent
from cosmopair import fock, verify
from cosmopair import squeezing as sq
from cosmopair.bogoliubov import DOWN, UP, BogolyubovCoefficients, Scenario
from cosmopair.expansions import A_DOWN, FULL, P_BOTH, P_UP, UP_UP, VAC

ROUTES = ("integration", "reference", "dressing", "λ", "density", "from_density", "scoring",
          "closed forms", "stack contract", "verify oracle")


class Killer(NamedTuple):
    test: Callable
    args: tuple = ()
    error: type = AssertionError
    match: str | None = None  # a pattern of the message, where the type alone names no gate
    label: str = ""  # the case's parameter id, as pytest prints it


class Mutant(NamedTuple):
    name: str
    route: str
    patch: Callable  # patch(monkeypatch)
    killers: tuple = ()
    verify_fails: frozenset = frozenset()
    # (check, bound): the check's residual under the mutant lies above the bound.
    residual: tuple | None = None
    # `cosmopair verify --batch 2` then exits 1 with one FAIL line per name of verify_fails.
    cli: bool = False


def at(modules, name, wrap):
    """Patch that binds name, in each module, to wrap(the function it held)."""
    def patch(monkeypatch):
        for module in modules:
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return patch


def edited(function, old, new):
    """Patch that runs function's source with old, which it holds once, replaced by new.

    The edited source is compiled in memory and its code swapped into
    function, so every name bound to function runs the mutant; a source that
    no longer holds old exactly once fails the row.
    """
    def patch(monkeypatch):
        source = textwrap.dedent(inspect.getsource(function))
        assert source.count(old) == 1, f"{function.__qualname__} holds {old!r} not once"
        module = compile(source.replace(old, new), f"<mutant of {function.__qualname__}>", "exec")
        code = next(c for c in module.co_consts
                    if isinstance(c, types.CodeType) and c.co_name == function.__name__)
        monkeypatch.setattr(function, "__code__", code)
    return patch


def scaled(factor):
    return lambda real: lambda *args: real(*args) * factor


def on_scenario(scenario, mutate):
    """Wrap that applies mutate to the result of a call on the scenario's sets."""
    def wrap(real):
        return lambda sets: mutate(real(sets)) if sets.scenario is scenario else real(sets)
    return wrap


# --- the oracles of verify --------------------------------------------------

def flipped_sign(occupation):
    def mutate(catalogue):
        catalogue[occupation][occupation] = -catalogue[occupation][occupation]
        return catalogue
    return mutate


def rotated(scenario, row, column, angle):
    """Near-identity rotation of the scenario's Fock space joining two basis states."""
    joined = np.eye(fock.dimension(scenario.n_modes))
    joined[row, column], joined[column, row] = -angle, angle
    return lambda unitaries: joined @ unitaries


def spinless_score_off(real):
    def score(coeffs, *args):
        numeric, *rest = real(coeffs, *args)
        return (numeric + 1e-11 if coeffs.scenario is Scenario.SPINLESS else numeric, *rest)
    return score


def dropped_phase(real):
    def grid_sets(scenario):
        n, lam, sets = real(scenario)
        beta = np.array(sets.beta)
        beta[:, DOWN, UP] = np.abs(beta[:, DOWN, UP])
        return n, lam, BogolyubovCoefficients(scenario, sets.a, beta)
    return grid_sets


def antiparticle_entropy_off(real):
    def entropy(states, keep):
        off = tuple(keep) == Scenario.SPINLESS.antiparticle_modes
        return real(states, keep) + (1e-9 if off else 0.0)
    return entropy


# The amplitude of the input itself: a**2 or a for the vacuum, a or 1 for one
# particle, a for one antiparticle, which has an entry in the spinful scenarios only.
CATALOGUE_FLIPS = [("vacuum", VAC, "vacuum_expansion", list(Scenario)),
                   ("excited", P_UP, "excited_expansions", list(Scenario)),
                   ("excited-a-down", A_DOWN, "excited_expansions",
                    [Scenario.CHARGE_ONLY, Scenario.CHARGE_AND_ANGULAR_MOMENTUM])]
# VAC and P_BOTH differ in charge, VAC and UP_UP in J_z; VAC and FULL share
# both, so only the entanglement moves.
STACK_ROTATIONS = [
    ("charge", Scenario.CHARGE_ONLY, VAC, P_BOTH, 1e-11, "charge_commutation"),
    ("jz", Scenario.CHARGE_AND_ANGULAR_MOMENTUM, VAC, UP_UP, 1e-11,
     "angular_momentum_commutation"),
    ("catalogue", Scenario.CHARGE_ONLY, VAC, FULL, 1e-8, "excited_entropy_catalogue_charge"),
]

VERIFY_ROWS = [
    # The dense route refuses its own results above 1e-12, so unitarity is
    # read from the factorized one: off by 1e-11, it is reported, not raised.
    Mutant("factorized route x (1 + 1e-11)", "verify oracle",
           at([verify], "apply_decoupled", scaled(1.0 + 1e-11)),
           verify_fails=frozenset({"unitarity_random_batch"}), cli=True),
    Mutant("pair sum x (1 + 1e-12)", "verify oracle",
           at([verify], "pair_creation_sum", scaled(1.0 + 1e-12)),
           verify_fails=frozenset({"pair_sum_nilpotency"})),
    *(Mutant(f"catalogue sign {label} {scenario.value}", "closed forms",
             at([verify], "closed_form_expansion", on_scenario(scenario, flipped_sign(occupation))),
             verify_fails=frozenset({f"{check}_{scenario.value}"}))
      for label, occupation, check, scenarios in CATALOGUE_FLIPS for scenario in scenarios),
    # Off by 1e-11, which the spinless curve check at 1e-10 lets through, the
    # spinless route still fails the check that compares it with the spinful one.
    Mutant("spinless score + 1e-11", "verify oracle", at([verify], "score", spinless_score_off),
           verify_fails=frozenset({"spinful_spinless_scaling"}),
           residual=("spinful_spinless_scaling", 1.9e-11)),
    # The constraint checks measure the broken sets; every other group of grid
    # checks sees theta_from_coefficients refuse them, and reports each check
    # as FAIL.
    Mutant("down-up phase dropped", "verify oracle", at([verify], "_grid_sets", dropped_phase),
           verify_fails=frozenset({
               "coefficient_constraints_grid", "reduced_coherence_cross_terms",
               "determinant_combination_modulus", "generator_scalar_modulus",
               "generator_block_sparsity", "mixing_matrix_reconstruction", "mixing_matrix_algebra",
               *(f"{check}_{s.value}" for check in ("vacuum_entropy_curve",
                                                    "excited_entropy_catalogue")
                 for s in Scenario),
               "vacuum_entropy_lambda_independence", "spinful_spinless_scaling",
               "charge_commutation", "angular_momentum_commutation",
               "complementary_reduction_entropy"}),
           residual=("reduced_coherence_cross_terms", 1e-3), cli=True),
    *(Mutant(f"stack rotated {label}", "verify oracle",
             at([verify], "unitary_for",
                on_scenario(scenario, rotated(scenario, row, column, angle))),
             verify_fails=frozenset({check}))
      for label, scenario, row, column, angle, check in STACK_ROTATIONS),
    # Both halves of any vector share their nonzero spectrum, so no perturbed
    # stack splits them: the antiparticle reduction is perturbed instead.
    Mutant("spinless antiparticle entropy + 1e-9", "verify oracle",
           at([fock], "subsystem_entropy", antiparticle_entropy_off),
           verify_fails=frozenset({"complementary_reduction_entropy"})),
    # Every sign of the Jordan-Wigner string +1: the ladder tables that
    # fock.ladder_operators stacks commute across modes, and every dense
    # unitary built from them is wrong too.  The checks that still pass read
    # no ladder table, or measure what the unsigned tables keep: the charge,
    # the equal entropies of the two halves, and the vacuum curves' lambda
    # independence and spin scaling.
    Mutant("Jordan-Wigner string dropped from the ladder tables", "verify oracle",
           edited(fock.annihilation_operator, "-1.0 if occupancy(source & lower) & 1 else 1.0",
                  "1.0"),
           (Killer(test_fock.test_annihilation_jordan_wigner_sign),
            Killer(test_fock.test_anticommutation_relations, (3,), label="3")),
           frozenset({
               "ladder_anticommutators_4_modes", "ladder_anticommutators_2_modes",
               "unitarity_random_batch", "ladder_conjugation_recovery", "pair_sum_nilpotency",
               "angular_momentum_commutation",
               *(f"{check}_{s.value}" for check in ("factorized_vs_dense", "vacuum_expansion",
                                                    "excited_expansions", "vacuum_entropy_curve",
                                                    "excited_entropy_catalogue")
                 for s in Scenario)})),
]


# --- the mode dynamics ------------------------------------------------------

def nudged(values, path, factor):
    """values with the entry at the index path (one index per nesting level) times factor."""
    head, *rest = path
    return tuple((nudged(v, rest, factor) if rest else v * factor) if j == head else v
                 for j, v in enumerate(values))


def nudged_tableau(table, path, factor):
    """Patch that compiles the DOP853 step with one tableau entry times factor."""
    def patch(monkeypatch):
        tableau = {"c": dyn._C, "a": dyn._A, "b": dyn._B, "e5": dyn._E5, "e3": dyn._E3}
        tableau[table] = nudged(tableau[table], path, factor)
        monkeypatch.setattr(dyn, "_step", dyn._compile_step(**tableau))
    return patch


def rate_times(factor):
    """Wrap of ScaleFactorProfile.frequency whose closure returns the mass rate times factor."""
    def wrap(real):
        def frequency(profile, p2, m):
            minus_k = real(profile, p2, m)

            def mutated(tau):
                k2, rate = minus_k(tau)
                return k2, factor * rate
            return mutated
        return frequency
    return wrap


def masses_swapped(real):
    def dress(scalar, mode):
        swapped = copy.copy(mode)
        object.__setattr__(swapped, "m", mode.m_out)
        object.__setattr__(swapped, "m_out", mode.m)
        return real(scalar, swapped)
    return dress


def lambda_from_px_pz(real):
    def dress(scalar, mode):
        px, _, pz = mode.p_vec
        share = (math.hypot(px, pz) / mode.p) ** 2 if mode.p > 0 else 0.0
        return dataclasses.replace(real(scalar, mode), lambda_effective=share)
    return dress


def span_margin_negative(real):
    """+4 -> -4 in the span's half width, (log(epsilon / tol) + 4) / (2 rho), floor 4 / rho."""
    def span(profile):
        tau0, tau1 = real(profile)
        if profile.epsilon == 0.0:
            return tau0, tau1
        half_width = max(tau1 - 4.0 / profile.rho, 4.0 / profile.rho)
        return -half_width, half_width
    return span


def initial_slope_flipped(real):
    return lambda minus_k, t0, t1, y0, *args: real(minus_k, t0, t1, (y0[0], -y0[1]), *args)



TANH = test_dynamics.TANH
DIGITS = [("c", (5,)), ("a", (7, 3)), ("b", (8,)), ("e5", (6,)), ("e3", (0,))]
STEP_EQUALITY = Killer(test_dynamics.test_compiled_step_equals_the_loop_form_on_random_states,
                       (test_dynamics.duck_typed_frequency,), label="duck-typed")
PROFILE_FORMS = Killer(test_dynamics.test_profile_methods_are_floats_matching_numpy_forms, (TANH,),
                       label="tanh")
# The dressing gate fails the point.
END_TO_END = Killer(test_dynamics.test_momentum_point_end_to_end, error=dyn.IntegrationError)

DYNAMICS_ROWS = [
    # One weight off by 1e-6 relative breaks the dressed norms, the ratio of
    # the conserved current at the two ends; at p = 0 and 12 only as an
    # amplitude excess (|A| > 1), which the set's clipped a = 1 does not show.
    Mutant("tableau weight b[0] x (1 + 1e-6)", "integration", nudged_tableau("b", (0,), 1 + 1e-6),
           tuple(Killer(test_dynamics.test_the_real_stepper_passes_the_dressing_gate, (p,),
                        dyn.IntegrationError, "dressed coefficients violate", str(p))
                 for p in (0.0, 0.1, 1.0, 12.0))),
    # One entry of one table off in its twelfth significant digit.
    *(Mutant(f"tableau digit {table}{list(path)} x (1 + 1e-12)", "integration",
             nudged_tableau(table, path, 1 + 1e-12), (STEP_EQUALITY,))
      for table, path in DIGITS),
    Mutant("mass rate M' halved", "integration",
           at([dyn.ScaleFactorProfile], "frequency", rate_times(0.5)),
           (PROFILE_FORMS,
            Killer(test_dynamics.test_momentum_point_approaches_the_sudden_mass_quench, (1.0,),
                   dyn.IntegrationError, label="1.0"))),
    Mutant("sign of -iM' in k", "integration",
           at([dyn.ScaleFactorProfile], "frequency", rate_times(-1.0)),
           (PROFILE_FORMS, END_TO_END)),
    Mutant("span margin +4 -> -4", "integration",
           at([dyn], "default_tau_span", span_margin_negative),
           (Killer(test_dynamics.test_the_span_reaches_both_flat_regions, (TANH,),
                   label="ScaleFactorProfile-1-1"),)),
    Mutant("sign of the initial f'", "integration", at([dyn], "_dop853", initial_slope_flipped),
           (END_TO_END,)),
    # The commutator term of the Magnus step with the other sign: the step
    # still conserves |alpha|**2 + |beta|**2, but is of second order.
    Mutant("Magnus commutator sign flipped", "reference",
           edited(dyn._adiabatic_amplitudes, "(x_minus * x_plus.conj()).imag",
                  "(x_plus * x_minus.conj()).imag"),
           (Killer(test_dynamics.test_the_reference_is_fourth_order),)),
    Mutant("dressing with m and m_out swapped", "dressing",
           at([dyn], "dress_coefficients", masses_swapped), (END_TO_END,)),
    Mutant("DRESSING_GATE 10 -> 100", "dressing",
           lambda monkeypatch: monkeypatch.setattr(dyn, "DRESSING_GATE", 100.0),
           (Killer(test_dynamics.test_the_dressing_gate_message_prints_the_gate_short),)),
    # Along (1, 1, 1) the two shares agree: one case alone kills it.
    Mutant("lambda_eff read from (px, pz)", "λ",
           at([dyn], "dress_coefficients", lambda_from_px_pz),
           (Killer(test_dynamics.test_lambda_effective_is_read_from_the_direction_at_tiny_momentum,
                   ((0.0, 0.0, 1.0), 0.0), label="direction1-0.0"),)),
    Mutant("density halved", "density", at([dyn], "particle_density", scaled(0.5)),
           (Killer(test_dynamics.test_particle_density_round_trip),)),
]


# --- the closed forms, the coefficient sets and the scoring ------------------

def pair_fraction_swapped(real):
    """The parallel and antiparallel shares of a one-particle, one-antiparticle input swapped.

    The parallel share at lambda is the antiparallel share at 1 - lambda;
    spin-am reads lambda = 1, the charge-only catalogue at lambda = 0.
    """
    def catalogue(occupation, n, lam, scenario):
        if scenario is not Scenario.SPINLESS and all(
                fock.occupancy(bits) == 1 for bits in scenario.split_occupation(occupation)):
            flipped = 0.0 if scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM else 1.0 - lam
            return real(occupation, n, np.asarray(flipped), Scenario.CHARGE_ONLY)
        return real(occupation, n, lam, scenario)
    return catalogue


def lambda_checked_for_every_input(real):
    def catalogue(occupation, n, lam, scenario):
        lam = np.asarray(lam, dtype=float)
        fock.require((lam >= 0.0) & (lam <= 1.0), lam, "lambda {} outside [0, 1]")
        return real(occupation, n, lam, scenario)
    return catalogue


def lambda_never_checked(real):
    return lambda ok, values, message: (None if message.startswith("lambda")
                                        else real(ok, values, message))


def channels_swapped(real):
    """Charge-only sets built with the spin-preserving and spin-flip shares swapped."""
    def from_density(scenario, n, lam=0.5, phases=(0.0, 0.0, 0.0, 0.0)):
        return real(scenario, n, 1.0 - lam if scenario is Scenario.CHARGE_ONLY else lam, phases)
    return from_density


def catalogue_reversed(real):
    """score pairs its stack with the catalogue points in reverse order."""
    def score(coeffs, occupation, n, lam):
        n, lam = np.asarray(n, dtype=float), np.asarray(lam, dtype=float)
        return real(coeffs, occupation, n[::-1], lam[::-1])
    return score


def catalogue_at_the_first_point(real):
    """score reads the catalogue of every item at the (n, lambda) of its stack's first item."""
    def score(coeffs, occupation, n, lam):
        n, lam = np.asarray(n, dtype=float), np.asarray(lam, dtype=float)
        return real(coeffs, occupation, np.full_like(n, n.flat[0]), np.full_like(lam, lam.flat[0]))
    return score


ROUTE_ROWS = [
    Mutant("catalogue pair shares swapped", "closed forms",
           at([ent, verify], "entropy_excited_closed_form", pair_fraction_swapped),
           (Killer(test_entanglement.test_excited_closed_form_catalogue_values),),
           frozenset({"excited_entropy_catalogue_charge", "excited_entropy_catalogue_spin-am"})),
    Mutant("from_density channels swapped", "from_density",
           at([bg, ent, verify], "from_density", channels_swapped),
           (Killer(test_bogoliubov.test_determinant_combination_frozen_values),),
           frozenset({"excited_entropy_catalogue_charge"})),
    Mutant("score reads the catalogue at the first point", "scoring",
           at([ent, verify], "score", catalogue_at_the_first_point),
           (Killer(test_entanglement.test_sweep_shapes_and_discrepancies),),
           frozenset({f"vacuum_entropy_curve_{s.value}" for s in Scenario})),
    # The spinful and spinless vacuum curves are symmetric about half filling,
    # so only grids that are not, the killer's and verify's charge-only blocks
    # of 64, see it.
    Mutant("score reads the catalogue in reverse order", "scoring",
           at([ent, verify], "score", catalogue_reversed),
           (Killer(test_entanglement.test_sweep_shapes_and_discrepancies),),
           frozenset({"vacuum_entropy_curve_charge"})),
]


# --- the stack contract -----------------------------------------------------

def stack_killer(name, label="", error=AssertionError):
    """The stack table's equality case of a row, or with label its bad-item case."""
    row = next(row for row in stack_cases.CASES if row.name == name)
    if not label:
        return Killer(test_stacks.test_a_stack_equals_its_items, (row,), error, label=name)
    bad = next(bad for bad in row.bad if bad.label == label)
    return Killer(test_stacks.test_a_bad_item_raises_as_it_does_alone, (row, bad), error,
                  label=f"{name}-{label}")


# pytest.raises on a call that returns fails the test with this type.
DID_NOT_RAISE = pytest.fail.Exception

STACK_ROWS = [
    Mutant("require names the last bad item", "stack contract",
           edited(fock.require, "[~ok][0]", "[~ok][-1]"),
           (stack_killer("outer_product", "norm 2"),
            stack_killer("entropy_vacuum_closed_form", "n 4.5 n_max/4"))),
    Mutant("unitarity_residual without initial=0.0", "stack contract",
           edited(sq.unitarity_residual, ".max(initial=0.0)", ".max()"),
           (stack_killer("unitarity_residual", error=ValueError),)),
    Mutant("failing() reads the last broken set", "stack contract",
           edited(bg.ValidationReport.failing, "bad[broken.argmax()]",
                  "bad[len(broken) - 1 - broken[::-1].argmax()]"),
           (stack_killer("validate", "nan entry"),)),
    Mutant("squeezing_angle takes r**2 over the whole stack", "stack contract",
           edited(bg.squeezing_angle, "np.maximum(r2, 0.0)",
                  "np.maximum(np.full_like(r2, r2.mean()), 0.0)"),
           (stack_killer("squeezing_angle"),),
           frozenset({"generator_scalar_modulus", "unitarity_random_batch",
                      *(f"factorized_vs_dense_{s.value}" for s in Scenario)})),
    Mutant("check_theta measures asymmetry on the diagonal alone", "stack contract",
           edited(bg.check_theta, "np.abs(theta + theta.swapaxes(-1, -2)).max(axis=(-2, -1))",
                  "np.abs(2.0 * theta.diagonal(axis1=-2, axis2=-1)).max(axis=-1)"),
           (stack_killer("check_theta", "near antisymmetric", DID_NOT_RAISE),)),
    Mutant("check_theta lets NaN through", "stack contract",
           edited(bg.check_theta, "if not (asymmetry <= 1e-12 * scale).all():",
                  "if (asymmetry > 1e-12 * scale).any():"),
           (stack_killer("check_theta", "nan item", DID_NOT_RAISE),)),
    Mutant("catalogue checks lambda for every input", "stack contract",
           at([ent, verify], "entropy_excited_closed_form", lambda_checked_for_every_input),
           (stack_killer("entropy_excited_closed_form", error=ValueError),)),
    Mutant("catalogue never checks lambda", "stack contract",
           at([fock], "require", lambda_never_checked),
           (stack_killer("entropy_excited_closed_form", "lambda -1e-13", DID_NOT_RAISE),)),
]

MUTANTS = [*VERIFY_ROWS, *DYNAMICS_ROWS, *ROUTE_ROWS, *STACK_ROWS]

# The checks of verify that no row makes FAIL: check -> why.
# The dropped down-up phase fails every grid check, all but the constraint
# checks by refusal; generator_block_sparsity, mixing_matrix_reconstruction,
# mixing_matrix_algebra and vacuum_entropy_lambda_independence fail under no
# other row.  Both ladder anticommutators and ladder_conjugation_recovery
# fail only under the dropped Jordan-Wigner string.
UNKILLED = {
    "closed_form_concavity": "no row mutates entropy_vacuum_closed_form, the curve it reads",
}
