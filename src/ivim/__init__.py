"""Interpolated variational iteration solver for initial value problems.

Fixed-point sweeps of the variational iteration are projected onto a
piecewise-linear hat-function space on a uniform grid, turning every sweep
into a closed-form nodal update with exponential Lagrange-multiplier
weights.  The package ships the grid/basis layer, the iteration engine, a
small expression language for defining problems in text, independent
reference oracles (closed forms and fixed-step RK4), convergence analytics
and a CLI.
"""

from . import engine, expr, grid, problems, reference
from .grid import *
from .engine import *
from .expr import *
from .reference import *
from .problems import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package exports their union
__all__ = [
    *grid.__all__,
    *engine.__all__,
    *expr.__all__,
    *reference.__all__,
    *problems.__all__,
    "__version__",
]
