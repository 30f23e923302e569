"""Invariant states of GKSL generators via induced-digraph analysis.

The public names are those of the layer modules, each listed once, in its
module's ``__all__``.
"""

from . import basis, digraph, generator, io, kernel
from .basis import *  # noqa: F403
from .digraph import *  # noqa: F403
from .generator import *  # noqa: F403
from .io import *  # noqa: F403
from .kernel import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *basis.__all__,
    *generator.__all__,
    *digraph.__all__,
    *kernel.__all__,
    *io.__all__,
]
