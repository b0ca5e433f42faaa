"""The Weyl-orbit walks on weights, and the Weyl dimension formula.

``descend`` is the one downward orbit walk of the library: down from a
dominant weight by simple reflections, one length of W per layer,
optionally kept above a floor; like every weight entry point, it refuses
any other start.  Freudenthal expands dominant weights into orbits with
it, and Kostant's alternating sum runs over it.  ``_straighten``, the one
chamber walk, goes the other way, up to the dominant conjugate with its
sign, and resumes its scan after each reflection at the lowest
coordinate that the reflection changed; the nullcone character and
Freudenthal straighten through it, one unchecked point at a time.  Both
read a system's sparse Cartan columns, ``RootSystem.cols``, and no group
element is built.  ``weyl_dim`` is the Weyl dimension formula, the
independent route to a module's dimension.

``_straighten`` is private because it runs once per point: the
benchmark's tracer (``perfbench/traced_cli.py``) wraps every public
function of the package in a span, so a public kernel would open a span
per point, while a private one counts in its caller's span, as a method
does.

The module is registered lazily by the package and reached through its
module object (``orbits.descend``), so a command that walks no orbit
never compiles it: ``info`` on a system with one root length,
``antichains`` and ``--help`` do not.
"""

import math

from .cartan import Weight, _dot
from .errors import IdentityViolation

__all__ = ["descend", "weyl_dim"]


def descend(rs, fund, floor=None):
    """The Weyl orbit of a dominant weight (see ``rs.dominant_integral``,
    which refuses any other start), walked down from it one layer per
    length of W: the one orbit walk of the engines.

    A point y steps to s_i(y) = y - y_i * alpha_i wherever y_i > 0, and
    every orbit point is reached so, one length per step (Humphreys,
    Reflection Groups and Coxeter Groups, ch. 1); layer k holds the points
    whose shortest conjugating element has length k.  Each layer is a dict
    from its points to None, or, given a floor (a weight, see
    ``rs.as_weight``), to the root-lattice coordinates of y - floor (the
    start's through ``rs.lattice_coords``, so through the adjugate): then
    only the points with y - floor in the positive root cone are kept, and
    a point whose step would make a coordinate negative is dropped with
    everything below it, which is exact since every step goes down."""
    fund = rs.dominant_integral(fund)
    cols = rs.cols
    if floor is None:
        layer = {fund: None}
    else:
        c = rs.lattice_coords(Weight(fund) - rs.as_weight(floor))
        if c is None or min(c) < 0:
            return
        layer = {fund: c}
    while layer:
        yield layer
        below = {}
        for y, c in layer.items():
            for i, step in enumerate(y):
                if step > 0 and (c is None or step <= c[i]):
                    z = list(y)
                    for j, a in cols[i]:
                        z[j] -= step * a
                    z = tuple(z)
                    if z not in below:
                        below[z] = None if c is None else c[:i] + (c[i] - step,) + c[i + 1:]
        layer = below


def _straighten(rs, fund):
    """Dominant Weyl conjugate of an int tuple of fundamental coords,
    taken unchecked: the kernel of Freudenthal and of the nullcone
    character.

    The scan reflects in the first simple root alpha_i whose coordinate
    c is negative, then resumes at the lowest coordinate the reflection
    changed, the first row of ``cols[i]`` (the rows ascend, the diagonal
    among them): every coordinate below it was non-negative and is left
    as it was.  Each step adds the positive multiple -c of alpha_i, so the
    scan ends, and it ends at the unique dominant conjugate; any such scan
    takes one step per positive coroot on which the point is negative
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7), so neither
    the sign nor the 0 of a singular point depends on the scan order.

    Returns (coords, sign) where sign is the determinant (-1)^steps of
    the conjugating element, or 0 when the weight is singular (fixed by
    some reflection)."""
    cols = rs.cols
    n = rs.rank
    v = list(fund)
    sign = 1
    i = 0
    while i < n:
        c = v[i]
        if c < 0:
            for j, a in cols[i]:
                v[j] -= c * a
            sign = -sign
            i = cols[i][0][0]
        else:
            i += 1
    if 0 in v:
        sign = 0
    return tuple(v), sign


def weyl_dim(rs, highest) -> int:
    """Dimension of the simple module with the given highest weight, by the
    product formula over positive roots."""
    lam_rho = [d * (x + 1) for d, x in zip(rs.symmetrizers, rs.dominant_integral(highest))]
    coeffs = [r.coeffs for r in rs.positive_roots()]
    q, rem = divmod(math.prod([_dot(c, lam_rho) for c in coeffs]),
                    math.prod([_dot(c, rs.symmetrizers) for c in coeffs]))
    if rem:
        raise IdentityViolation("Weyl dimension must be an integer")
    return q
