"""Size caps for the exhaustive parts of the library.

All caps live here, and each bounds the work done, not a proxy for it:
the graded-character work (DP updates per q-partition table build, orbit
points per Kostant walk) and the antichain counting work (the states the
counting pass holds).  No Weyl group is listed element by element, so
none is capped.  Each engine reads its own cap from
``current_limits()`` where the work happens; no call site passes one.
The caps are fixed: nothing outside the program sets them, and tests
substitute them by replacing an engine's ``current_limits``.
"""

from typing import NamedTuple

__all__ = ["Limits", "current_limits"]


class Limits(NamedTuple):
    max_character_work: int = 300_000  # DP updates per table build, orbit points per walk
    max_antichain_work: int = 500_000  # states the antichain counting pass holds


def current_limits() -> Limits:
    """The caps in force."""
    return Limits()
