"""Variable-density Fourier sampling and compressive image reconstruction.

Exact Fourier-Haar coherence machinery, inverse-power sampling densities
with preconditioning weights, constrained TV / l1-Haar solvers, and a
verification suite for the coherence and isometry claims the sampling
strategy rests on.
"""

# each module's __all__ is its public API; the package re-exports all six
from .coherence import *
from .image_core import *
from .sampling import *
from .solvers import *
from .transforms import *
from .verify import *

__version__ = "0.1.0"
