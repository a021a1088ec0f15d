"""Jump probabilities between quantum Zeno subspaces.

A finitely strong, possibly time-dependent measurement splits the Hilbert
space into Zeno subspaces; a weak perturbation drives transitions between
them.  This package computes those transition (jump) probabilities to second
order in the perturbation, tracks the rotating subspaces through an
intertwining frame, and cross-checks everything against an exact
time-ordered propagator.

Each public name is declared once, in its own module's ``__all__``; the
package re-exports those lists in module order.
"""

from . import policy, errors, operators, decomposition, propagators, jump, compare, config, models
from .policy import *
from .errors import *
from .operators import *
from .decomposition import *
from .propagators import *
from .jump import *
from .compare import *
from .config import *
from .models import *

__version__ = "0.1.0"

_MODULES = (policy, errors, operators, decomposition, propagators, jump, compare, config, models)
__all__ = [name for module in _MODULES for name in module.__all__]
