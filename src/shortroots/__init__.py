"""shortroots: exact combinatorics of root systems, Weyl groups and the
modules whose highest weight is the short dominant root.

The package re-exports exactly the names in each library module's
``__all__``; that list is the one place a public name is declared."""

from .antichains import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .gradedchar import *  # noqa: F403
from .littleadjoint import *  # noqa: F403
from .reduction import *  # noqa: F403
from .rootsystem import *  # noqa: F403
from .weyl import *  # noqa: F403

__version__ = "0.1.0"
