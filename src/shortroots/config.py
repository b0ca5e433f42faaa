"""Size caps for the exhaustive parts of the library.

All caps live here: the Weyl group order (it gates the enumeration of W
and every subgroup closure, both of which ``semidirect-product`` runs),
the graded-character work (DP updates per q-partition table build, orbit
points per Kostant walk) and the antichain counting work (depth-first
nodes visited, one per antichain), plus the default truncation degree of
graded characters.  Each engine reads its own cap from
``current_limits()`` where the work happens; no call site passes one.
Two of them can be overridden from the environment:

    SHORTROOTS_MAX_W        largest Weyl group order enumerated exhaustively
    SHORTROOTS_MAX_DEGREE   default truncation degree for graded characters

Each must be a non-negative integer; ``current_limits()`` refuses any
other value with a ``ValueError`` naming the variable.
"""

import os
from typing import NamedTuple

__all__ = ["Limits", "current_limits"]

ENV_MAX_WEYL = "SHORTROOTS_MAX_W"
ENV_MAX_DEGREE = "SHORTROOTS_MAX_DEGREE"


class Limits(NamedTuple):
    max_weyl_order: int = 1152      # W and its subgroup closures are refused beyond this
    max_series_degree: int = 8      # default graded-character truncation
    max_character_work: int = 300_000  # DP updates per table build, orbit points per walk
    max_antichain_work: int = 500_000  # antichains visited by the brute-force count


def current_limits() -> Limits:
    """Default limits, with the two environment overrides applied."""
    limits = Limits()
    for name, field in ((ENV_MAX_WEYL, "max_weyl_order"), (ENV_MAX_DEGREE, "max_series_degree")):
        if name in os.environ:
            raw = os.environ[name]
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{name}={raw!r} is not an integer") from None
            if value < 0:
                raise ValueError(f"{name}={raw!r} must be non-negative")
            limits = limits._replace(**{field: value})
    return limits
