"""Certified bound curves for commutator norms of matrix functions.

Given delta = ||[X, A]||, the package bounds ||[f(X), A]|| from above by
envelopes of affine bounds and from below by constructive witnesses, for
periodic f of a unitary X and for f on [0, 1] of a positive contraction,
including the piecewise-linear envelope gamma0 for f(x) = sqrt(x).  A
random-matrix lab validates every emitted bound.
"""

from .periodic_fn import *
from .circle_bounds import *
from .positive_bounds import *
from .matrix_lab import *

__version__ = "0.1.0"

# importing a submodule binds its name here, so each list can be read
__all__ = (periodic_fn.__all__ + circle_bounds.__all__
           + positive_bounds.__all__ + matrix_lab.__all__ + ["__version__"])
