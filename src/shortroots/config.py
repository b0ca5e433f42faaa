"""Size caps for the exhaustive parts of the library.

All caps live here, as module constants, and each bounds the work done,
not a proxy for it.  No Weyl group is listed element by element, so none
is capped.  Each engine reads its own cap as ``config.MAX_...`` where the
work happens, through this module object; no call site passes one, and
nothing outside the program sets one.  So a test substitutes a cap with
one ``monkeypatch.setattr(config, "MAX_...", n)``.  A refusal or a skip
names its cap in lower case, ``(max_character_work)``.

``MAX_CHARACTER_WORK`` bounds the DP updates of a q-partition table build
(read in ``qtables``) and the orbit points of a Kostant walk (read in
``gradedchar``).  ``MAX_ANTICHAIN_WORK`` bounds the states the antichain
counting pass holds, summed over the elements.  ``MAX_ROOT_WORK`` bounds
the coordinates a system's build writes, the rank squared of its Cartan
matrix and the rank per positive root its closure finds: A200 writes
4 060 000.
"""

MAX_CHARACTER_WORK = 300_000
MAX_ANTICHAIN_WORK = 500_000
MAX_ROOT_WORK = 4_100_000
