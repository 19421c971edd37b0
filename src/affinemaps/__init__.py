"""Affine maps of open-system quantum dynamics.

Construction, representation, validity domains, and experimental
reconstruction of the maps rho -> L(rho) + K induced on a subsystem by
unitary evolution of a larger finite-dimensional system.  Names are
imported from their modules: ``basis``, ``linalg``, ``maps``, ``qubit2``,
``domains``, ``tomography`` and ``cli``.
"""

__version__ = "0.1.0"
