"""carpenter: constructive projections with prescribed diagonals.

Diagonal sequences are given exactly (rational prefix + closed tail rule);
the package decides whether an orthogonal projection with that diagonal
exists, builds one when it does, and verifies the result.  Finite fields of
diagonals and sampled shift-invariant spectral data ride on the same engine.

The package's names are its modules' ``__all__`` and the exception classes
of :mod:`carpenter.errors`.
"""

from .errors import *
from .feasibility import *
from .schurhorn import *
from .selector import *
from .seqcore import *
from .sispectral import *
from .summable import *
from .tetris import *

__version__ = "0.1.0"
