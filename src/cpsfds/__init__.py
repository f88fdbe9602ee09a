"""Convection-pressure split flux-difference-splitting solvers for the
compressible Euler equations, with the associated 1D/2D benchmark suite
and an exact Riemann reference solver.

The package root exports the names of the 1D library example in README;
everything else is imported from its module (`cpsfds.euler2d`,
`cpsfds.bench1d`, `cpsfds.splittings`, ...)."""

from .state import GasModel
from .fds1d import SchemeKind
from .solver1d import (Grid1D, BoundaryCondition, TimeControls,
                       ReconstructionConfig, SolverBlowUp, advance,
                       initialize)

__version__ = "0.1.0"
