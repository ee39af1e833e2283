"""Boundary feedback stabilization of linear symmetric hyperbolic systems.

Certifies exponential decay of a weighted quadratic functional via a small
matrix inequality over boundary weight vectors, partitions rectangle
boundaries into inflow/outflow parts per characteristic component, and
simulates the closed loop with a characteristic upwind scheme.

The package root exports only ``__version__``; import the submodules
(``hypstab.potential``, ``hypstab.sim``, ...) for everything else.
"""

__version__ = "0.1.0"
