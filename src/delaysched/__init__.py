"""Link scheduling with integer propagation delays.

Builds window graphs and scheduling graphs for a discrete network model,
enumerates their (maximal) independent sets and cycles, and assembles
exact rational rate regions.

Each module's ``__all__`` is the one list of its public names.  The
package re-exports every one of them, and its ``__all__`` is the module
lists joined in the order imported below; the modules stay attributes.
"""

from . import cycles, exactlp, network, region, schedgraph, schedule, window
from .network import *
from .window import *
from .schedule import *
from .schedgraph import *
from .cycles import *
from .exactlp import *
from .region import *

__all__ = [name for module in (network, window, schedule, schedgraph, cycles, exactlp, region)
           for name in module.__all__]
