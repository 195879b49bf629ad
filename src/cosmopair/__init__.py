"""Fermionic pair creation in expanding spacetime and the entanglement it generates.

The package evolves fermionic occupation states through the squeezing
unitaries of in/out mode mixing at fixed momentum, computes
particle-antiparticle entanglement entropies against their closed
forms, and feeds the mixing coefficients either from parametric
densities or from integrating the mode equation for a configurable
scale-factor profile.
"""

__version__ = "0.1.0"
# The version of the CSV/JSON output contract that every command's JSON head records.
SCHEMA_VERSION = 1
