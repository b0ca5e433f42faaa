"""The q-partition tables of a root system, keyed by packed weights.

Level k of the tables maps a weight to the number of k-element multisets
of short positive roots summing to it.  Each weight is keyed by one
packed int, so adding a root is one int addition; this module is the only
code that packs a weight, unpacks a key or looks a key up.  ``series``
reads one weight at every level, and ``points`` unpacks keys into
coordinate columns a fixed chunk at a time.  The build counts its DP
updates and refuses past ``config.MAX_CHARACTER_WORK``; the tables are
built once per system and truncation degree, which must be a
non-negative int.  The module is private to ``gradedchar`` and exports
no name.
"""

import math
from itertools import islice
from operator import itemgetter, mul

from . import config
from .errors import SizeLimitExceeded
from .rootsystem import RootSystem

_CHUNK = 1024   # keys unpacked into coordinate columns at a time


class _QTables:
    """The q-partition tables of one system to one truncation degree:
    levels[k] maps a packed weight to the number of k-element multisets of
    short positive roots summing to it, and updates is the number of DP
    updates the build made.  Refuses past ``config.MAX_CHARACTER_WORK``
    updates, before any table when a lower bound passes it: while the
    r-th of s short roots is added, level k - 1 holds the distinct sums of
    (k - 1)-multisets of r distinct vectors, at least (k - 1)(r - 1) + 1
    of them in a torsion-free group, so a build to degree d makes at least
    s d + C(s, 2) C(d, 2) updates.

    A weight v, in fundamental coordinates, is packed as the one int
    sum (v_i + off) * base**i, with off = degree * m for m the largest
    |coordinate| of a short positive root, and base = 2 * off + 1.  A sum
    of k <= degree short roots has every |coordinate| <= k * m, so no digit
    overflows and adding a root to a packed weight is one int addition."""

    __slots__ = ("off", "base", "powers", "levels", "updates")

    def __init__(self, rs: RootSystem, degree: int):
        cap = config.MAX_CHARACTER_WORK
        # read in Bourbaki's numbering: on a path diagram the updates do not depend on numbering
        vectors = sorted(map(rs.weight_coords, rs.short_positive_roots()),
                         key=itemgetter(*rs.nodes))
        refusal = SizeLimitExceeded(
            f"the q-partition tables of {rs.spec} to degree {degree} need more "
            f"than the cap of {cap} DP updates (max_character_work)"
        )
        s = len(vectors)
        if s * degree + math.comb(s, 2) * math.comb(degree, 2) > cap:
            raise refusal
        self.off = degree * max(abs(c) for vec in vectors for c in vec)
        self.base = 2 * self.off + 1
        self.powers = tuple([self.base**i for i in range(rs.rank)])
        levels = [dict() for _ in range(degree + 1)]
        levels[0][self.encode((0,) * rs.rank)] = 1
        done = 0
        for vec in vectors:
            step = sum(map(mul, vec, self.powers))
            for k in range(1, degree + 1):
                prev = levels[k - 1]
                done += len(prev)
                if done > cap:
                    raise refusal
                cur = levels[k]
                get = cur.get
                for v, count in prev.items():
                    v += step
                    cur[v] = get(v, 0) + count
        self.levels, self.updates = levels, done

    def encode(self, fund):
        """The packed key of a weight, or None when a coordinate lies outside
        [-off, off]: no table holds such a weight."""
        off, base = self.off, self.base
        key = 0
        for c in reversed(fund):
            if not -off <= c <= off:
                return None
            key = key * base + c + off
        return key

    def series(self, fund) -> list[int]:
        """The count of a weight at each level, all 0 when the weight lies
        outside the packing range."""
        key = self.encode(fund)
        if key is None:
            return [0] * len(self.levels)
        return [level.get(key, 0) for level in self.levels]

    def points(self, keys):
        """Each key of an iterable with its point v + rho, the coordinates of
        its weight plus 1, unpacked into coordinate columns ``_CHUNK`` keys at
        a time; a chunk is taken only once the previous one is consumed."""
        keys, low, base, powers = iter(keys), self.off - 1, self.base, self.powers
        while chunk := list(islice(keys, _CHUNK)):
            cols = [[key // p % base - low for key in chunk] for p in powers]
            yield from zip(chunk, zip(*cols))


def _require_degree(degree: int) -> None:
    """The one check of a truncation degree, made before any answer or
    table: an int (no float or Fraction), non-negative."""
    if type(degree) is not int:
        raise TypeError(f"max_degree must be an int, not {degree!r}")
    if degree < 0:
        raise ValueError("max_degree must be non-negative")


def _dp_build(rs: RootSystem, degree: int) -> _QTables:
    """The q-partition tables of a system to a degree that its caller has
    checked, memoised per system and degree."""
    return rs.memo(("qdp", degree), lambda: _QTables(rs, degree))
