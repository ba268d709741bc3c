"""Binary matrix factorization under a mean-parametrized Bernoulli model.

A data matrix over {0,1} is factored as Y ~ Bernoulli(W @ H) with W rows on
the probability simplex and H entries in [0, 1], optionally regularized by a
Beta(alpha, beta) prior on H.  Training uses closed-form
majorization-minimization updates with a guaranteed non-increasing
objective; masked training supports matrix completion, and the tune module
reproduces the grid-search / multi-restart evaluation protocol.
"""

from . import binmat, errors, evaluate, io, solver, synthetic, tune
from .binmat import *
from .errors import *
from .evaluate import *
from .io import *
from .solver import *
from .synthetic import *
from .tune import *

__version__ = "0.1.0"

# Each module's __all__ owns its public names; the package re-exports them.
__all__ = [name for module in (binmat, errors, evaluate, io, solver, synthetic, tune)
           for name in module.__all__] + ["__version__"]
