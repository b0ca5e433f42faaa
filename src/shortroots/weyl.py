"""Weyl groups acting as permutations of the indexed root set.

An element is the permutation it induces on the roots and nothing more:
a bare tuple ``w`` of root indices, ``w[k]`` the index of the image of
root k, with no class around it.  Its length (the inversion count), sign
and reduced words all follow from that tuple, and no engine reads them.
W acts on the roots only; weights are moved by simple reflections on
their coordinates (``RootSystem.straighten`` up to the dominant chamber,
``RootSystem.descend`` down a whole orbit), with no element built.
No group is listed element by element: the order of a reflection
subgroup is read off the Cartan types its base names.
The factorisation of the whole group over the subgroup generated by
long-root reflections is one descent through the long-root subsystem,
which rebuilds the long factor from the reflections it strips;
membership in that subgroup reads the short factor it leaves.  Every
product is an index gather through an ``operator.itemgetter``, so it
runs in C: ``compose`` builds one for a single product, and the getters
that ``coxeter_element`` and ``decompose_semidirect`` apply are built
once per system."""

from __future__ import annotations

import math
from operator import itemgetter

from .cartan import Root, classify_cartan
from .rootsystem import RootSystem, build

__all__ = [
    "compose",
    "identity",
    "simple_reflection",
    "reflection",
    "coxeter_element",
    "coxeter_orbits",
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


def simple_reflection(rs: RootSystem, i: int) -> tuple[int, ...]:
    return rs.reflection_perm(rs.index(rs.simple_root(i)))


def reflection(rs: RootSystem, root: Root) -> tuple[int, ...]:
    """Reflection in the hyperplane orthogonal to an arbitrary root."""
    return rs.reflection_perm(rs.index(root))


def coxeter_element(rs: RootSystem, ordering=None) -> tuple[int, ...]:
    """Product of all simple reflections in the given order (natural order
    by default)."""
    order = tuple(ordering) if ordering is not None else tuple(range(rs.rank))
    if sorted(order) != list(range(rs.rank)):
        raise ValueError(f"{order} is not an ordering of the {rs.rank} simple roots")
    steps = rs.memo(
        "simple_steps", lambda: tuple(itemgetter(*simple_reflection(rs, i))
                                      for i in range(rs.rank))
    )
    w = identity(rs)
    for i in order:
        w = steps[i](w)   # w * s_i
    return w


def _require_element(rs: RootSystem, w: tuple[int, ...]) -> None:
    if len(w) != len(rs.roots):
        raise ValueError(f"not in W({rs.spec}): {len(w)} entries for {len(rs.roots)} roots")


def coxeter_orbits(rs: RootSystem, c: tuple[int, ...]):
    """Orbits of the cyclic group generated by c on the root indices,
    ordered by smallest member.  A cycle walk past len(c) steps is refused."""
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
            if len(orbit) > len(c):
                raise ValueError(f"not in W({rs.spec}): a cycle walk passes {len(c)} steps")
            i = c[i]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


# -- the long-root subsystem ---------------------------------------------------


def long_root_base(rs: RootSystem):
    """Indecomposable positive long roots: the simple system of the long
    subsystem determined by the ambient positive roots."""
    rs.require_two_lengths()
    return rs.memo("long_base", lambda: _indecomposable_longs(rs))


def _indecomposable_longs(rs: RootSystem):
    longs = rs.long_positive_roots()
    long_set = {r.coeffs for r in longs}
    base = []
    for r in longs:
        decomposable = any(
            tuple(a - b for a, b in zip(r.coeffs, s)) in long_set
            for s in long_set
            if s != r.coeffs
        )
        if not decomposable:
            base.append(r)
    return tuple(base)


def decompose_semidirect(rs: RootSystem, w: tuple[int, ...]):
    """Factor w = ws * wl with ws preserving the positive long roots and wl
    a product of long-root reflections.  The pair is unique.

    Works by descent: while some member of the long-root base is sent
    negative, strip one long reflection off the right.  If w * r_1 ... r_k
    is ws, then wl is r_k ... r_1, since each r_i is an involution.  Each
    strip sends one fewer positive long root negative, which bounds them."""
    descent = rs.memo(  # raises on simply-laced input
        "long_descent",
        lambda: tuple((rs.index(b), itemgetter(*r))
                      for b, r in zip(long_root_base(rs), long_subgroup(rs))),
    )
    _require_element(rs, w)
    p = rs.num_positive
    ws, stripped = w, []
    while (step := next((s for i, s in descent if ws[i] >= p), None)) is not None:
        ws = step(ws)   # ws * r_b for the first base root b sent negative
        stripped.append(step)
        if len(stripped) > len(rs.long_positives):
            raise ValueError(f"not in W({rs.spec}): more long-root strips than positive long roots")
    wl = identity(rs)
    for step in reversed(stripped):
        wl = step(wl)   # wl * r
    return ws, wl


def is_in_long_subgroup(rs: RootSystem, w: tuple[int, ...]) -> bool:
    """Whether w lies in the subgroup generated by long-root reflections:
    whether the short factor of ``decompose_semidirect`` is the identity."""
    return decompose_semidirect(rs, w)[0] == identity(rs)


def long_subgroup(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Generators of the normal subgroup generated by reflections in long
    roots: the reflections in the long-root base, in its order."""
    return tuple(reflection(rs, b) for b in long_root_base(rs))


def short_parabolic(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Generators of the parabolic subgroup of the short simple roots: their
    simple reflections."""
    rs.require_two_lengths()
    return tuple(simple_reflection(rs, i) for i in rs.short_simple_indices)


def reflection_subgroup_order(rs: RootSystem, base) -> int:
    """The order of the subgroup generated by the reflections in a base of
    a root subsystem (the short simple roots, or ``long_root_base``): the
    product of the Weyl orders of the components that ``classify_cartan``
    names in the base's pairing matrix, with no element listed."""
    pairings = [[rs.pairing(a, b) for a in base] for b in base]
    return math.prod(build(spec).weyl_order for spec in classify_cartan(pairings))
