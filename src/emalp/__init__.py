"""Weighted rule programs on the unit interval.

Parsing and validation of a small rule DSL, stable-model semantics by
fixpoint iteration, and semantics-preserving transformations between
program classes, with grid-exhaustive equivalence checking.
"""

from .lattice import *
from .program import *
from .parser import *
from .semantics import *
from .transform import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += lattice.__all__
__all__ += program.__all__
__all__ += parser.__all__
__all__ += semantics.__all__
__all__ += transform.__all__
