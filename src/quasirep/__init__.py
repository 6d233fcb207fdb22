"""Approximate representations and approximate homomorphisms of finite groups.

The package builds finite groups as validated multiplication tables,
decomposes their regular representation into unitary irreducibles, and then
measures how close matrix-valued functions and maps between groups come to
being homomorphisms: defects, agreement probabilities, the compression
constructions that meet the known bounds, and the fourth-moment twirl
coefficients behind the error analysis.

The root exports only __version__; import the modules (quasirep.groups,
quasirep.irreps, quasirep.approx, ...) for everything else.
"""

__version__ = "0.1.0"
