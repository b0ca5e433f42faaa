"""Weyl groups acting as permutations of the indexed root set.

An element is the permutation it induces on the roots and nothing more:
a bare tuple ``w`` of root indices, ``w[k]`` the index of the image of
root k, with no class around it.  Its length (the inversion count), sign
and reduced words all follow from that tuple, and no engine reads them.
W acts on the roots only; weights are moved by simple reflections on
their coordinates (``orbits._straighten`` up to the dominant chamber,
``orbits.descend`` down a whole orbit), with no element built.
No group is listed element by element: the order of a reflection
subgroup is read off the Cartan types its base names, and ``classify``
runs only for that.  Each reflection
is built here on first use, from the one row of inner products of the
positive roots with its root; it sends -r to -s(r), so the images of
the negative roots mirror those of the positive ones.  It is kept on its
system as one entry, shared by a root and its negative: the permutation
and an ``operator.itemgetter`` over it.  Every product is an index
gather through such a getter (``compose`` builds one), so it runs in C.
A base of a reflection subgroup is named by its root indices, the
long-root base of ``long_root_base`` included, and no base is held as
``Root`` values.  One descent, ``strip_reflections``, strips the
reflections in such a base off an element, which lies in that subgroup
when the descent leaves the identity; through the long-root base it
factors W over the subgroup of long reflections."""

import math
from operator import itemgetter

from . import classify
from .cartan import Root, _node_order
from .errors import IdentityViolation
from .rootsystem import RootSystem, build

__all__ = [
    "compose",
    "identity",
    "simple_reflection",
    "reflection",
    "coxeter_element",
    "coxeter_orbits",
    "strip_reflections",
    "long_root_base",
    "decompose_semidirect",
    "is_in_long_subgroup",
    "long_subgroup",
    "short_parabolic",
    "reflection_subgroup_order",
]


def compose(w: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The product w * v, the permutation x -> w[v[x]], as one index gather
    (a root system has two roots or more, so the getter gives a tuple)."""
    return itemgetter(*v)(w)


def identity(rs: RootSystem) -> tuple[int, ...]:
    return tuple(range(len(rs.roots)))


def _reflection(rs: RootSystem, k: int):
    """The entry of the reflection in root k, built on first use: its
    permutation and an itemgetter over it.  Root k + p is the negative of
    root k (p positive roots), so it folds onto root k's entry, and only
    the positive roots are reflected: s(-r) = -s(r) mirrors the rest."""
    p = len(rs.roots) // 2
    k %= p

    def compute():
        root = rs.roots[k]
        row = rs.inner_row(root)   # one pairing per positive root; row[k] = (root | root)
        perm = []
        for a, (r, v) in enumerate(zip(rs.roots, row)):
            q, rem = divmod(2 * v, row[k])   # the pairing of root a against the coroot
            if rem:
                raise IdentityViolation("coroot pairing of a root must be integral")
            perm.append(rs.root_index[tuple([c - q * b for c, b in zip(r.coeffs, root.coeffs)])]
                        if q else a)
        perm += [(b + p) % (2 * p) for b in perm]
        return tuple(perm), itemgetter(*perm)

    return rs.memo(("reflection", k), compute)


def simple_reflection(rs: RootSystem, i: int) -> tuple[int, ...]:
    return reflection(rs, rs.simple_root(i))


def reflection(rs: RootSystem, root: Root) -> tuple[int, ...]:
    """Reflection in the hyperplane orthogonal to an arbitrary root."""
    return _reflection(rs, rs.index(root))[0]


def coxeter_element(rs: RootSystem, ordering=None) -> tuple[int, ...]:
    """Product of all simple reflections in the given order (natural order
    by default), an order of the nodes as ``_node_order`` takes it."""
    order = tuple(range(rs.rank)) if ordering is None else _node_order(tuple(ordering), rs.rank)
    w = identity(rs)
    for i in order:   # simple root i has index rank - 1 - i
        w = _reflection(rs, rs.rank - 1 - i)[1](w)   # w * s_i
    return w


def _require_element(rs: RootSystem, w: tuple[int, ...]) -> None:
    n = len(rs.roots)
    if len(w) != n:
        raise ValueError(f"not in W({rs.spec}): {len(w)} entries for {n} roots")
    if min(w) < 0 or max(w) >= n:
        raise ValueError(f"not in W({rs.spec}): an entry outside 0 to {n - 1}")
    if len(set(w)) != n:
        raise ValueError(f"not in W({rs.spec}): an entry repeats, so it is no permutation")


def coxeter_orbits(rs: RootSystem, c: tuple[int, ...]):
    """Orbits of the cyclic group generated by c on the root indices,
    ordered by smallest member."""
    _require_element(rs, c)
    seen = set()
    orbits = []
    for start in range(len(c)):
        if start in seen:
            continue
        orbit = [start]
        i = c[start]
        while i != start:
            orbit.append(i)
            i = c[i]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def strip_reflections(rs: RootSystem, w: tuple[int, ...], base):
    """(rest, product of the stripped reflections), whose product is w:
    while w sends a root of base negative, strip the reflection in the
    first such root off the right.  base holds the root indices of a base
    of a positive root subsystem: the short simple roots' indices, or
    ``long_root_base(rs)`` as it is returned.  If w * r_1 ... r_k is the
    rest, the product r_k ... r_1 (each r_i an involution) is rest^-1 * w.
    Each strip sends one fewer positive root of the subsystem negative,
    and the rest sends none, so w lies in the subgroup of the base's
    reflections exactly when the rest is the identity, reached in at most
    as many strips as there are positive roots."""
    _require_element(rs, w)
    p = rs.num_positive
    steps = [(k, _reflection(rs, k)[1]) for k in base]
    rest = w
    for _ in range(p + 1):
        if (step := next((s for k, s in steps if rest[k] >= p), None)) is None:
            return rest, compose(dict(zip(rest, range(len(w)))), w)   # a dict inverts rest
        rest = step(rest)   # rest * r_b for the first base root b sent negative
    raise ValueError(f"not in W({rs.spec}): more reflection strips than positive roots")


# -- the long-root subsystem ---------------------------------------------------


def long_root_base(rs: RootSystem) -> tuple[int, ...]:
    """The root indices of the indecomposable positive long roots, in index
    order: the simple system of the long subsystem determined by the
    ambient positive roots, as ``strip_reflections`` and
    ``reflection_subgroup_order`` take a base.  Found on first use by one
    pass over ``rs.long_positives``, which run by height: a long root that
    is no base root is a lower positive long root plus a base root
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2), so each is tested against the base roots found below it only."""
    rs.require_two_lengths()

    def compute():
        longs = {rs.roots[k].coeffs: k for k in rs.long_positives}
        base = {}
        for r, k in longs.items():
            if not any(tuple(a - b for a, b in zip(r, s)) in longs for s in base):
                base[r] = k
        return tuple(base.values())

    return rs.memo("long_base", compute)


def decompose_semidirect(rs: RootSystem, w: tuple[int, ...]):
    """Factor w = ws * wl with ws preserving the positive long roots and wl
    a product of long-root reflections: ``strip_reflections`` through the
    long-root base.  The pair is unique."""
    return strip_reflections(rs, w, long_root_base(rs))


def is_in_long_subgroup(rs: RootSystem, w: tuple[int, ...]) -> bool:
    """Whether w lies in the subgroup generated by long-root reflections:
    whether the short factor of ``decompose_semidirect`` is the identity."""
    return decompose_semidirect(rs, w)[0] == identity(rs)


def long_subgroup(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Generators of the normal subgroup generated by reflections in long
    roots: the reflections in the long-root base, in its order."""
    return tuple(_reflection(rs, k)[0] for k in long_root_base(rs))


def short_parabolic(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Generators of the parabolic subgroup of the short simple roots: their
    simple reflections."""
    rs.require_two_lengths()
    return tuple(simple_reflection(rs, i) for i in rs.short_simple_indices)


def reflection_subgroup_order(rs: RootSystem, base) -> int:
    """The order of the subgroup generated by the reflections in a base of
    a root subsystem, given by its root indices as ``strip_reflections``
    takes it: the product of the Weyl orders of the components that
    ``classify_cartan`` names in the base's pairing matrix, with no
    element listed."""
    roots = [rs.roots[k] for k in base]
    pairings = [[rs.pairing(a, b) for a in roots] for b in roots]
    return math.prod(build(spec).weyl_order for spec in classify.classify_cartan(pairings))
