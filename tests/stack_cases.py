"""The stack contract: one row per stack-taking function, read by ``test_stacks.py``.

Each function of ``bogoliubov``, ``squeezing``, ``fock`` and ``entanglement``
that takes a stack, and the oracle of ``gaussian.py``, promises that each item
of a stack gives what it gives alone, and that one bad item raises what it
raises alone.  A stack is a tuple of arrays that share their leading batch
axes: ``a`` and ``beta`` of coefficient sets, ``n`` and ``lam`` of the closed
forms.  A stack form added or retired is a row added or removed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from conftest import random_state, seeded_sets
from cosmopair import bogoliubov as bg
from cosmopair import entanglement as ent
from cosmopair import fock
from cosmopair import squeezing as sq
from cosmopair.bogoliubov import DOWN, UP, BogolyubovCoefficients, Scenario
from gaussian import entropy_gaussian


class Bad(NamedTuple):
    """An item that breaks a row's function.

    ``make(arg, good)`` builds it from the good item it replaces, or gives None
    where it does not apply.  Alone it raises ``error``, that type and not a
    subclass, and a stack that holds it raises the same type, and with
    ``message`` the same message, also with a second bad item,
    ``then(arg, good)``, after it.
    """

    label: str
    make: Callable
    error: type = ValueError
    message: bool = True
    then: Callable | None = None


class Row(NamedTuple):
    name: str
    call: Callable  # call(arg, *leaves): the function at one of its fixed arguments
    args: tuple  # a scenario, with a mode, a state form or an occupation; or an item width
    good: Callable  # good(arg, shape, rng): a valid stack of batch shape, edge items included
    shapes: tuple
    equal: Callable  # equal(stacked, items, shape, one), one an item's result
    bad: tuple = ()
    entropy: bool = False  # each item gives a Python float, +0.0 at zero


def item(leaves, shape, k):
    """Item k, in row-major order, of a stack of batch shape; a 0-d leaf as a Python scalar."""
    parts = [leaf.reshape(-1, *leaf.shape[len(shape):])[k] for leaf in leaves]
    return tuple(part.item() if part.ndim == 0 else part for part in parts)


def replaced(leaves, k, new):
    """A copy of a one-axis stack with item k set to new."""
    copies = tuple(leaf.copy() for leaf in leaves)
    for leaf, value in zip(copies, new):
        leaf[k] = value
    return copies


def same(tol=0.0):
    """Each output of the stacked call is the items' outputs stacked: exactly, or within tol."""
    def parts(result):
        return result if isinstance(result, tuple) else (result,)

    def equal(stacked, items, shape, one):
        for k, out in enumerate(parts(stacked)):
            expected = np.array([parts(i)[k] for i in items]).reshape(
                *shape, *np.shape(parts(one)[k]))
            assert isinstance(out, np.ndarray) and out.shape == expected.shape
            assert (np.max(np.abs(out - expected), initial=0.0) <= tol if tol
                    else np.array_equal(out, expected))
    return equal


def same_report(stacked, items, shape, one):
    """Each set's table and residuals, the worst of them, and the first failing set."""
    assert stacked.names == one.names and stacked.passed == all(r.passed for r in items)
    same()((stacked.table, *stacked.residuals.values()),
           [(r.table, *r.residuals.values()) for r in items], shape,
           (one.table, *one.residuals.values()))
    assert stacked.worst == max((r.worst for r in items), default=0.0)
    assert stacked.failing() == next((r.failing() for r in items if r.failing()), [])


def max_of_items(stacked, items, shape, one):
    assert type(stacked) is float and stacked == max(items, default=0.0)


def coefficient_stack(arg, shape, rng, edges=False):
    """Random sets; with edges, at random (n, lambda, phases) with n = 0 and n_max (a = 0)."""
    scenario, size = arg[0], math.prod(shape)
    if not edges:
        sets = [bg.random_coefficients(scenario, rng) for _ in range(size)]
    else:
        fractions = rng.uniform(0.0, 1.0, size)
        fractions[rng.permutation(size)[:2]] = rng.permutation([0.0, 1.0])[:min(size, 2)]
        sets = [bg.from_density(scenario, f * scenario.n_max, float(rng.uniform()),
                                tuple(rng.uniform(-math.pi, math.pi, 4))) for f in fractions]
    return (np.array([c.a for c in sets]).reshape(shape),
            np.array([c.beta for c in sets]).reshape(*shape, 2, 2))


def theta_stack(scenario, size, seed):
    return np.array([bg.theta_from_coefficients(c) for c in seeded_sets(scenario, size, seed)])


def full_density_theta(scenario):
    """theta at n = n_max, where cos(r) = a = 0: the dense route only."""
    return bg.theta_from_coefficients(bg.from_density(scenario, scenario.n_max, lam=0.5))


def thetas(arg, shape, rng, a0=True):
    """thetas of random sets, the last at a = 0 unless a0 is False."""
    stack = bg.theta_from_coefficients(
        BogolyubovCoefficients(arg[0], *coefficient_stack(arg, shape, rng)))
    if a0 and stack.size:
        stack.reshape(-1, *stack.shape[-2:])[-1] = full_density_theta(arg[0])
    return (stack,)


def generators(arg, shape, rng):
    return (sq.build_generator(thetas(arg, shape, rng)[0]),)


def unitaries(arg, shape, rng):
    return (sq.unitary_dense(generators(arg, shape, rng)[0]),)


def states(arg, shape, rng):
    size = math.prod(shape)
    return (np.array([random_state(16, rng) for _ in range(size)]).reshape(*shape, 16),)


def density_operators(arg, shape, rng):
    """Reduced operators of random pure states; the first is pure and the last maximally mixed."""
    rhos = np.array([fock.partial_trace(fock.outer_product(s), [0, 1])
                     for s in states(arg, shape, rng)[0].reshape(-1, 16)]).reshape(*shape, 4, 4)
    if rhos.size:
        rhos.reshape(-1, 4, 4)[0] = np.diag([1.0, 0.0, 0.0, 0.0])
        rhos.reshape(-1, 4, 4)[-1] = np.eye(4) / 4
    return (rhos,)


def spectra(arg, shape, rng):
    """Vectors of width arg[0]; entries at 0, the floor, twice it and 1 beside uniform ones."""
    full, floor = (*shape, arg[0]), fock.EIGENVALUE_FLOOR
    edges = rng.choice([0.0, floor, 2 * floor, 1.0], size=full)
    return (np.where(rng.uniform(size=full) < 0.5, rng.uniform(size=full), edges),)


def points(arg, shape, rng, top=None):
    """(n, lambda) for an occupation, else n alone (in [0, top] if given); edge points first.

    Where the catalogue does not read lambda, the edge points' lambdas are out of range.
    """
    size, n_max = math.prod(shape), top or arg[0].n_max
    n = np.concatenate([[0.0, n_max, 1e-13, n_max + 1e-13], rng.uniform(0.0, n_max, size)])
    edges = [0.0, 1.0, 1.0, 0.0] if len(arg) < 2 or reads_lambda(arg) else [1.5, -1e-13, np.nan, 2]
    lam = np.concatenate([edges, rng.uniform(0.0, 1.0, size)])
    return (n[:size].reshape(shape), lam[:size].reshape(shape))[:2 if len(arg) == 2 else 1]


def _nan_entry(arg, good):
    beta = good[1].copy()
    beta[DOWN, DOWN] = np.nan
    return good[0], beta


def _broken_modulus(arg, good):
    """|dd| moves off |uu| (the spinless |ud| off its normalization) by 0.05."""
    beta = good[1].copy()
    entry = (UP, DOWN) if arg[0] is Scenario.SPINLESS else (DOWN, DOWN)
    beta[entry] += 0.05 * (beta[entry] / abs(beta[entry]) if beta[entry] else 1.0)
    return good[0], beta


def breaks(k, values, then=None, **kwargs):
    """Bad items with leaf k at value(arg) per (label, value), a second at then(arg) if given."""
    def leaf_at(value):
        def make(arg, good):
            new = value(arg) if k < len(good) else None
            return None if new is None else (*good[:k], new, *good[k + 1:])
        return make
    return tuple(Bad(label, leaf_at(value), then=then and leaf_at(then), **kwargs)
                 for label, value in values)


def nan_items(error=ValueError):
    """NaN as a whole item and in one entry of it, each raising the type of a finite breach."""
    def entry(arg, good):
        new = good[0].copy()
        new.flat[new.size // 2] = np.nan
        return (new,)
    return (Bad("nan item", lambda arg, good: (np.full_like(good[0], np.nan),), error),
            Bad("nan in one entry", entry, error))


def _near_antisymmetric(arg, good):
    """0.1 off antisymmetry in one corner entry; the diagonal stays zero."""
    theta = good[0].copy()
    theta[0, -1] += 0.1
    return (theta,)


def reads_lambda(arg):
    """The catalogue reads lambda for one particle and one antiparticle, under charge alone."""
    return arg[0] is Scenario.CHARGE_ONLY and all(
        fock.occupancy(bits) == 1 for bits in arg[0].split_occupation(arg[1]))


A_ABOVE_ONE = Bad("a > 1", lambda arg, good: (1.5, good[1]), then=lambda arg, good: (2.0, good[1]))
COEFFICIENT_BREAKS = (Bad("nan entry", _nan_entry, then=_broken_modulus),
                      Bad("broken modulus pair", _broken_modulus, then=_nan_entry), A_ABOVE_ONE)
# Antisymmetric with one pair only, so that its modulus is not scalar.
SINGLE_PAIR = np.array([[0, 0, 0.3, 0], [0, 0, 0, 0], [-0.3, 0, 0, 0], [0, 0, 0, 0]], complex)
THETA_BREAKS = (Bad("near antisymmetric", _near_antisymmetric), *breaks(0, [
    ("not antisymmetric", lambda arg: np.ones((arg[0].n_modes,) * 2, complex)),
    ("non-scalar modulus", lambda arg: SINGLE_PAIR if arg[0].n_modes == 4 else None),
    ("cos r = 0", lambda arg: full_density_theta(arg[0])),
    # Finite, but theta^dag theta overflows; then finite, but its trace overflows.
    ("overflowing", lambda arg: 1e200 * full_density_theta(arg[0])),
    ("trace overflowing", lambda arg: 7e153 * full_density_theta(arg[0]))]))
ANTISYMMETRY = ("near antisymmetric", "not antisymmetric")
DENSITY_BREAKS = breaks(0, [(f"n {f} n_max/4", lambda arg, f=f: f * arg[0].n_max / 4)
                            for f in (4.5, -0.1, math.nan)], lambda arg: 2.0 * arg[0].n_max)
# Only where the catalogue reads lambda; elsewhere the good stacks hold such values.
LAMBDA_BREAKS = breaks(1, [(f"lambda {v}", lambda arg, v=v: v if reads_lambda(arg) else None)
                           for v in (1.5, -1e-13, math.nan)], lambda arg: 2.0)
UNIT_BREAKS = breaks(0, [(f"x {v}", lambda arg, v=v: v) for v in (1.5, -0.1, math.nan)],
                     lambda arg: 2.0)
# Each second bad item of a fock stack fails the last gate that the first can fail.
STATE_BREAKS = breaks(0, [("nan entry", lambda arg: np.full(16, np.nan)),
                          ("norm 2", lambda arg: 2 * fock.basis_state(5, 4))],
                      lambda arg: 3 * fock.basis_state(6, 4))
OPERATOR_BREAKS = breaks(0, [
    ("nan entry", lambda arg: np.diag([0.5, 0.5, np.nan, 0.0])),
    ("not hermitian", lambda arg: np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 0.1), 1)),
    ("trace 0.9", lambda arg: np.diag([0.5, 0.4, 0.0, 0.0])),
    ("negative eigenvalue", lambda arg: np.diag([0.6, 0.5, -0.1, 0.0]))],
    lambda arg: np.diag([0.7, 0.5, -0.2, 0.0]))
# Cut to the width arg[0] of the stack's vectors.
SPECTRUM_BREAKS = breaks(0, [
    (label, lambda arg, v=value: np.array(v[:arg[0]])) for label, value in (
        ("nan entry", [0.5, np.nan, 0.5, 0.0]), ("negative", [-0.1, 0.6, 0.5, 0.0]),
        ("above one", [1.5, -0.5, 0.0, 0.0]))],
    lambda arg: np.array([2.0, 0.5, 0.5, 0.0][:arg[0]]))
SCRAMBLED = breaks(0, [("scrambled", lambda arg: np.random.default_rng(89).normal(
    size=(2**arg[0].n_modes,) * 2))], error=sq.DecompositionError, message=False)
NAN = nan_items()


def _validated(coeffs):
    """validate, raising its failing() list when a set fails, so that a stack names the first."""
    report = bg.validate(coeffs)
    if not report.passed:
        raise ValueError(report.failing())
    return report


def on_sets(fn):
    """fn(coefficient sets, *arg[1:]) on the stack of leaves a and beta."""
    return lambda arg, a, beta: fn(BogolyubovCoefficients(arg[0], a, beta), *arg[1:])


def plain(fn):
    return lambda arg, *leaves: fn(*leaves)


def _excited(arg, n, lam=None):
    """The excited catalogue at (n, lam), or at n and the scalar lambda arg[2]."""
    return ent.entropy_excited_closed_form(arg[1], n, arg[2] if lam is None else lam, arg[0])


def _decoupled(arg, theta):
    block = np.random.default_rng(5).normal(size=(fock.dimension(arg[0].n_modes), 3))
    return sq.apply_decoupled(
        theta, {"eye": np.eye(len(block)), "block": block, "state": block[:, 0]}[arg[1]])


SCENARIOS = tuple((scenario,) for scenario in Scenario)
OCCUPATIONS = tuple((s, occupation) for s in Scenario for occupation in range(2**s.n_modes))
SHAPES = ((1,), (3,), (16,), (2, 3), (0,))
A0_SHAPES = ((2,), (4,), (17,), (2, 3), (0,))
NUMERIC_SHAPES = ((1,), (15,), (16,), (17,), (1, 16), (0,))
CLOSED_SHAPES = ((44,), (2, 4), (0,))

CASES = [
    Row("validate", on_sets(_validated), SCENARIOS, coefficient_stack, SHAPES, same_report,
        COEFFICIENT_BREAKS),
    Row("expected_pair_mixing", on_sets(bg.expected_pair_mixing), SCENARIOS, coefficient_stack,
        SHAPES, same(), (A_ABOVE_ONE,)),
    Row("theta_from_coefficients", on_sets(bg.theta_from_coefficients), SCENARIOS,
        coefficient_stack, SHAPES, same(), COEFFICIENT_BREAKS),
    # A stack's complex products run in numpy's vector loop, which can round
    # the last bit unlike one set's scalar products.
    Row("determinant_combination", on_sets(bg.determinant_combination),
        ((Scenario.CHARGE_ONLY,),), coefficient_stack, SHAPES, same(1e-15), (A_ABOVE_ONE,)),
    Row("unitary_for", on_sets(sq.unitary_for), SCENARIOS, coefficient_stack, SHAPES,
        same(1e-14), COEFFICIENT_BREAKS),
    *(Row(fn.__name__, plain(fn), SCENARIOS, thetas, A0_SHAPES, same(1e-14),
          (*(bad for bad in THETA_BREAKS if bad.label in labels), *NAN))
      for fn, labels in (
          (bg.check_theta, ANTISYMMETRY),
          (bg.squeezing_angle, ("non-scalar modulus", "overflowing", "trace overflowing")),
          (bg.mu_nu_from_theta, (*ANTISYMMETRY, "overflowing", "trace overflowing")),
          (sq.pair_creation_sum, ANTISYMMETRY),
          (sq.build_generator, ANTISYMMETRY))),
    Row("unitary_dense", plain(sq.unitary_dense), SCENARIOS, generators, A0_SHAPES, same(1e-14),
        (Bad("not anti-Hermitian", lambda arg, good: (1j * good[0],)), *NAN)),
    Row("unitarity_residual", plain(sq.unitarity_residual), SCENARIOS, unitaries, A0_SHAPES,
        max_of_items),
    Row("conjugate_mode", lambda arg, u: sq.conjugate_mode(u, arg[1]),
        tuple((s, mode) for s in Scenario for mode in range(s.n_modes)), unitaries, A0_SHAPES,
        same(1e-14), (*SCRAMBLED, *nan_items(sq.DecompositionError))),
    Row("apply_decoupled", _decoupled,
        tuple((s, form) for s in Scenario for form in ("eye", "block", "state")),
        functools.partial(thetas, a0=False), SHAPES, same(1e-14), (*THETA_BREAKS, *NAN)),
    Row("outer_product", plain(fock.outer_product), ((),), states, SHAPES + ((2, 0),), same(),
        (*STATE_BREAKS, *NAN)),
    Row("validate_density_operator", plain(fock.validate_density_operator), ((),),
        density_operators, SHAPES + ((2, 0),), same(), OPERATOR_BREAKS),
    Row("von_neumann_entropy", plain(fock.von_neumann_entropy), ((),), density_operators,
        SHAPES + ((2, 0),), same(), (*OPERATOR_BREAKS, *NAN), entropy=True),
    Row("entropy_of_eigenvalues", plain(fock.entropy_of_eigenvalues), ((2,), (4,)), spectra,
        ((1,), (7,), (2, 3), (0,)), same(), SPECTRUM_BREAKS, entropy=True),
    Row("subsystem_entropy", lambda arg, psi: fock.subsystem_entropy(psi, [0, 1]), ((),), states,
        SHAPES + ((2, 0),), same(), STATE_BREAKS, entropy=True),
    Row("entropy_numeric", on_sets(ent.entropy_numeric), OCCUPATIONS,
        functools.partial(coefficient_stack, edges=True), NUMERIC_SHAPES, same(),
        COEFFICIENT_BREAKS, entropy=True),
    Row("entropy_gaussian", on_sets(entropy_gaussian), OCCUPATIONS,
        functools.partial(coefficient_stack, edges=True), NUMERIC_SHAPES, same(), (A_ABOVE_ONE,),
        entropy=True),
    # Per occupation, at an array of lambda and at the scalar lambda 0.3 broadcast.
    Row("entropy_excited_closed_form", _excited,
        OCCUPATIONS + tuple((*arg, 0.3) for arg in OCCUPATIONS), points, CLOSED_SHAPES, same(),
        DENSITY_BREAKS + LAMBDA_BREAKS, entropy=True),
    Row("entropy_vacuum_closed_form", lambda arg, n: ent.entropy_vacuum_closed_form(n, arg[0]),
        SCENARIOS, points, CLOSED_SHAPES, same(), DENSITY_BREAKS, entropy=True),
    *(Row(fn.__name__, plain(fn), ((),), functools.partial(points, top=top), CLOSED_SHAPES,
          same(), UNIT_BREAKS, entropy=True)
      for fn, top in ((ent.binary_entropy, 1.0), (ent.pair_state_entropy, 0.25))),
]
