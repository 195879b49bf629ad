"""Closed-form out-basis expansions of evolved occupation states.

``closed_form_expansion`` returns a scenario's whole catalogue in one
call, for one coefficient set or a stack: each input occupation with a
compact closed form maps to its expansion, a map from out-basis
occupation index to complex amplitude (an array over a stack).  The
numeric route in ``squeezing`` must reproduce these coefficient by
coefficient.  Basis index convention: bit 0 = particle up, bit 1 =
particle down, bit 2 = antiparticle up, bit 3 = antiparticle down
(spinless: bit 0 = particle, bit 1 = antiparticle).

The catalogue covers the vacuum in all scenarios plus the excited inputs
with a listed closed form; other inputs evolve through the numeric path
only.  Amplitude signs follow the state-expansion convention in which
the vacuum's single-pair terms carry -a * conj(beta); see ``squeezing``.
"""

from __future__ import annotations

import numpy as np

from cosmopair.bogoliubov import DOWN, UP, BogolyubovCoefficients, Scenario

__all__ = ["closed_form_expansion"]

# Spinful basis indices by occupied modes.
VAC = 0b0000
P_UP = 0b0001
P_DOWN = 0b0010
P_BOTH = 0b0011
A_UP = 0b0100
A_DOWN = 0b1000
A_BOTH = 0b1100
UP_UP = P_UP | A_UP
UP_DOWN = P_UP | A_DOWN
DOWN_UP = P_DOWN | A_UP
DOWN_DOWN = P_DOWN | A_DOWN
FULL = 0b1111


def _vacuum_expansion(coeffs: BogolyubovCoefficients) -> dict[int, complex]:
    """Out-basis amplitudes of the evolved empty state."""
    a = coeffs.a
    cb = np.conj(coeffs.beta)
    if coeffs.scenario is Scenario.SPINLESS:
        return {0b00: a, 0b11: -cb[..., UP, DOWN]}
    if coeffs.scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        return {
            VAC: a ** 2,
            UP_DOWN: -a * cb[..., UP, DOWN],
            DOWN_UP: -a * cb[..., DOWN, UP],
            FULL: cb[..., UP, DOWN] * cb[..., DOWN, UP],
        }
    return {
        VAC: a ** 2,
        UP_DOWN: -a * cb[..., UP, DOWN],
        DOWN_UP: -a * cb[..., DOWN, UP],
        UP_UP: -a * cb[..., UP, UP],
        DOWN_DOWN: -a * cb[..., DOWN, DOWN],
        FULL: cb[..., DOWN, UP] * cb[..., UP, DOWN] - cb[..., UP, UP] * cb[..., DOWN, DOWN],
    }


def _charge_only_catalogue(coeffs: BogolyubovCoefficients) -> dict[int, dict[int, complex]]:
    a = coeffs.a
    b = coeffs.beta
    cb = np.conj
    buu, bud = b[..., UP, UP], b[..., UP, DOWN]
    bdu, bdd = b[..., DOWN, UP], b[..., DOWN, DOWN]
    return {
        VAC: _vacuum_expansion(coeffs),
        FULL: {
            VAC: bud * bdu - buu * bdd,
            UP_DOWN: a * bdu,
            DOWN_UP: a * bud,
            UP_UP: -a * bdd,
            DOWN_DOWN: -a * buu,
            FULL: a ** 2,
        },
        P_BOTH | A_UP: {P_UP: bdu, P_DOWN: -buu, P_BOTH | A_UP: a},
        P_UP: {P_UP: a, P_BOTH | A_UP: -cb(bdu), P_BOTH | A_DOWN: -cb(bdd)},
        A_UP: {A_UP: a, P_DOWN | A_BOTH: cb(bdd), P_UP | A_BOTH: cb(bud)},
        P_BOTH: {P_BOTH: 1.0},
        UP_UP: {
            VAC: a * buu,
            UP_DOWN: -buu * cb(bud),
            DOWN_UP: bud * cb(bdd),
            UP_UP: a ** 2 + np.abs(bud) ** 2,
            DOWN_DOWN: -buu * cb(bdd),
            FULL: a * cb(bdd),
        },
        DOWN_UP: {
            VAC: a * bdu,
            DOWN_UP: a ** 2 + np.abs(bdd) ** 2,
            UP_DOWN: -cb(bud) * bdu,
            UP_UP: bdd * cb(bud),
            DOWN_DOWN: -bdu * cb(bdd),
            FULL: -a * cb(bud),
        },
    }


def _momentum_conserving_catalogue(coeffs: BogolyubovCoefficients) -> dict[int, dict[int, complex]]:
    a = coeffs.a
    b = coeffs.beta
    cb = np.conj
    bud, bdu = b[..., UP, DOWN], b[..., DOWN, UP]
    return {
        VAC: _vacuum_expansion(coeffs),
        FULL: {VAC: bud * bdu, UP_DOWN: a * bdu, DOWN_UP: a * bud, FULL: a ** 2},
        UP_UP: {UP_UP: 1.0},
        DOWN_UP: {
            VAC: a * bdu,
            DOWN_UP: a ** 2,
            UP_DOWN: -cb(bud) * bdu,
            FULL: -a * cb(bud),
        },
        P_BOTH | A_UP: {P_UP: bdu, P_BOTH | A_UP: a},
        P_UP: {P_UP: a, P_BOTH | A_UP: -cb(bdu)},
        A_UP: {A_UP: a, P_UP | A_BOTH: cb(bud)},
        A_DOWN: {A_DOWN: a, P_DOWN | A_BOTH: -cb(bdu)},
        P_BOTH: {P_BOTH: 1.0},
    }


def _spinless_catalogue(coeffs: BogolyubovCoefficients) -> dict[int, dict[int, complex]]:
    a = coeffs.a
    beta = coeffs.beta[..., UP, DOWN]
    return {
        0b00: _vacuum_expansion(coeffs),
        0b11: {0b00: beta, 0b11: a},
        0b01: {0b01: 1.0},
        0b10: {0b10: 1.0},
    }


def closed_form_expansion(coeffs: BogolyubovCoefficients) -> dict[int, dict[int, complex]]:
    """The scenario's catalogue: {input occupation: {out index: amplitude}}."""
    if coeffs.scenario is Scenario.SPINLESS:
        return _spinless_catalogue(coeffs)
    if coeffs.scenario is Scenario.CHARGE_AND_ANGULAR_MOMENTUM:
        return _momentum_conserving_catalogue(coeffs)
    return _charge_only_catalogue(coeffs)
