"""Size caps for the exhaustive parts of the library.

All caps live here, and each bounds the work done, not a proxy for it:
the graded-character work (DP updates per q-partition table build, orbit
points per Kostant walk) and the antichain counting work (the states the
counting pass holds).  No Weyl group is listed element by element, so
none is capped.  Each engine reads its own cap from
``current_limits()`` where the work happens; no call site passes one.
The caps are fixed: nothing outside the program sets them, and tests
substitute them by replacing an engine's ``current_limits``.  ``Limits``
is a ``collections.namedtuple``, as every result record is, so that no
module loads ``typing``.
"""

from collections import namedtuple

__all__ = ["Limits", "current_limits"]


class Limits(namedtuple("Limits", "max_character_work max_antichain_work",
                        defaults=(300_000, 500_000))):
    """The caps, ints: ``max_character_work`` the DP updates per table
    build and the orbit points per walk (300 000), ``max_antichain_work``
    the states the antichain counting pass holds (500 000)."""

    __slots__ = ()


def current_limits() -> Limits:
    """The caps in force."""
    return Limits()
