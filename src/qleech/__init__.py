"""Exact q-series arithmetic, level-one modular form expansions, and an
integer-only construction and certification of the Leech lattice as the
quotient w_perp / w of an isotropic Weyl vector inside the even unimodular
Lorentzian lattice of signature (25, 1).

Library callers import from the submodules: qseries, modforms,
observations, lorentz, lattices and cli."""

__version__ = "0.1.0"

# the ceiling of the accepted --jobs value; here so cli need not load lattices
MAX_JOBS = 64
