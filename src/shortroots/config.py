"""Size caps for the exhaustive parts of the library.

All caps live here: the Weyl group order (it gates the enumeration of W
and every subgroup closure, both of which ``semidirect-product`` runs),
the graded-character work (DP updates per q-partition table build, orbit
points per Kostant walk) and the antichain counting work (the states the
counting pass holds).  Each engine reads its own cap from
``current_limits()`` where the work happens; no call site passes one.
The caps are fixed: nothing outside the program sets them, and tests
substitute them by replacing an engine's ``current_limits``.
"""

from typing import NamedTuple

__all__ = ["Limits", "current_limits"]


class Limits(NamedTuple):
    max_weyl_order: int = 1152      # W and its subgroup closures are refused beyond this
    max_character_work: int = 300_000  # DP updates per table build, orbit points per walk
    max_antichain_work: int = 500_000  # states the antichain counting pass holds


def current_limits() -> Limits:
    """The caps in force."""
    return Limits()
