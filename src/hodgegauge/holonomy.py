"""Exact parallel transport of nilpotent polynomial connections.

Transport along a segment solves T' = M T with T(0) = 1, M the pullback of
Omega, whose entry (i, j) of bidegree (p, q) is g c: g the pullback of
t1^(p-1) t2^(q-1), shared by its dt1 and dt2 terms, and c linear in s.
Every entry lowers the weight, so splitting._walk, beside DeltaObject,
solves it entry by entry in order of weight drop, on the pairs (g, c), as
it solves connection_from_delta and log_delta_components against delta.
Along a path each segment's walk starts at T(0) = the transport so far: one
ODE, continued, with no matrix product.  The sign and the triangle
orientation (0,0) -> (-1,0) -> (0,-1) -> (0,0) are the unique combination
under which the triangle holonomy of the canonical connection of a
structure reproduces its splitting comparison operator; a runtime self-test
(convention_selftest) re-derives this pin on a rank-2 fixture.
"""

from __future__ import annotations

from .connection import connection_from_delta
from .linalg import InvariantError, Matrix
from .mhs import HodgeNumbers
from .scalars import ONE, ZERO, Value, _coerce
from .splitting import DeltaObject, _walk
from .upoly import at_one, mul, of


class PathError(ValueError):
    """Degenerate polygonal path."""


class PolygonalPath(Value):
    """Ordered list of points of the plane, consecutive points distinct."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple((_coerce(x), _coerce(y)) for (x, y) in points)
        if len(pts) < 2:
            raise PathError("a path needs at least two points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise PathError("consecutive path points coincide")
        object.__setattr__(self, "points", pts)

    def segments(self):
        return list(zip(self.points, self.points[1:]))

    def reversed(self):
        return PolygonalPath(tuple(reversed(self.points)))


TRIANGLE = ((0, 0), (-1, 0), (0, -1), (0, 0))


def _segment_transport(C, a, b, start=None):
    """The nonzero off-diagonal entries of T(s), keyed by (i, j), along
    x = a + s d, s in [0, 1], d = b - a, as splitting._walk returns them
    from T(0) = 1 plus the entries of start; the diagonal of T is 1.

    Entry (i, j) of bidegree (p, q) pulls back to g (c0 + c1 s), g =
    x1^(p-1) x2^(q-1), c0 = P[i,j] d1 a2 + Q[i,j] d2 a1, c1 = (P[i,j] +
    Q[i,j]) d1 d2: one pass over the nonzero entries of P and Q forms each
    bidegree's g, and each power of x_k, once.
    """
    d = [b[k] - a[k] for k in (0, 1)]
    power = [[of((ONE,)), of((a[k], d[k]))] for k in (0, 1)]
    d1a2, d2a1, d1d2 = d[0] * a[1], d[1] * a[0], d[0] * d[1]
    pulled, pull = {}, {}
    for i, (xs, ys, ds) in enumerate(zip(C.P.rows, C.Q.rows, C.hodge.bidegrees())):
        for j, (x, y, (p, q)) in enumerate(zip(xs, ys, ds)):
            if not (x or y):
                continue
            if (p, q) not in pulled:
                for k, e in ((0, p - 1), (1, q - 1)):
                    while len(power[k]) <= e:
                        power[k].append(mul(power[k][-1], power[k][1]))
                pulled[p, q] = mul(power[0][p - 1], power[1][q - 1])
            g, c = pulled[p, q], of((x * d1a2 + y * d2a1, (x + y) * d1d2))
            if (g[0] or g[1]) and (c[0] or c[1]):
                pull[i, j] = g, c
    return _walk(C.hodge, lambda i, j, S: pull.get((i, j)), start)


def _transport(C, segments):
    """T(1) of the last of segments, as a Matrix, each walk started at the
    transport so far: the read-out of transport_segment and holonomy_path."""
    T = {}
    for a, b in segments:
        T = {ij: x for ij, t in _segment_transport(C, a, b, T).items()
             if (x := at_one(t))}
    n = C.hodge.dim
    return Matrix._of(tuple(tuple(T.get((i, j), ONE if i == j else ZERO)
                                  for j in range(n)) for i in range(n)), n)


def transport_segment(C, a, b):
    """Exact transport matrix of the connection C along the straight segment
    from a to b: T(1), read entry by entry off the walk."""
    return _transport(C, [(a, b)])


def holonomy_path(C, path):
    """Transport along a polygonal path, composed in path order: a section
    at the start maps to T at the end, with later segments acting on the
    left."""
    return _transport(C, path.segments())


def triangle_delta(C):
    """Holonomy around the fixed triangle, as a DeltaObject.

    The pullback of an admissible form to either coordinate axis vanishes
    (every monomial carries both variables), so the loop is the hypotenuse
    transport: each segment is walked once, the two axis walks are checked
    to return no entry, and the hypotenuse transport is returned as it is.
    """
    first, hyp, last = PolygonalPath(TRIANGLE).segments()
    if _segment_transport(C, *first) or _segment_transport(C, *last):
        raise InvariantError("axis transport is not trivial")
    return DeltaObject(C.hodge, transport_segment(C, *hyp))


def convention_selftest():
    """Re-derive the transport sign and orientation pin on a rank-2 fixture.

    For the two-block datum with a single comparison entry -1, the canonical
    connection has A_{1,1} = E and the triangle holonomy must return exactly
    the original comparison matrix.
    """
    hodge = HodgeNumbers({(0, 0): 1, (-1, -1): 1})
    delta = Matrix([[ONE, -ONE], [ZERO, ONE]])
    dobj = DeltaObject(hodge, delta)
    C = connection_from_delta(dobj)
    if C.P != Matrix([[ZERO, ONE], [ZERO, ZERO]]):
        raise InvariantError("canonical connection block drifted")
    if triangle_delta(C).delta != delta:
        raise InvariantError("orientation pin failed")
    return True
