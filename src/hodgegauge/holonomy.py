"""Exact parallel transport of nilpotent polynomial connections.

Transport along a segment solves T' = M(t) T with T(0) = 1, where M is the
pullback of Omega to the segment; the iterated integrals terminate because
every coefficient block strictly lowers the weight.  The sign and the
triangle orientation (0,0) -> (-1,0) -> (0,-1) -> (0,0) are the unique
combination under which the triangle holonomy of the canonical connection
of a structure reproduces its splitting comparison operator; a runtime
self-test (convention_selftest) re-derives this pin on a rank-2 fixture.
"""

from __future__ import annotations

from .connection import connection_form, connection_from_delta
from .linalg import InvariantError, Matrix, NotNilpotentError
from .mhs import HodgeNumbers
from .poly import Poly, PolyMatrix
from .scalars import ONE, ZERO, Scalar
from .splitting import DeltaObject


class PathError(ValueError):
    """Degenerate polygonal path."""


class PolygonalPath:
    """Ordered list of points of the plane, consecutive points distinct."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(
            (Scalar(0) + x, Scalar(0) + y) for (x, y) in points
        )
        if len(pts) < 2:
            raise PathError("a path needs at least two points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise PathError("consecutive path points coincide")
        object.__setattr__(self, "points", pts)

    def __setattr__(self, name, value):
        raise AttributeError("PolygonalPath is immutable")

    def segments(self):
        return list(zip(self.points, self.points[1:]))

    def reversed(self):
        return PolygonalPath(tuple(reversed(self.points)))


TRIANGLE = ((0, 0), (-1, 0), (0, -1), (0, 0))


def _segment_pullback(P, Q, a, b):
    """Univariate matrix M(t) = P(gamma(t)) x1' + Q(gamma(t)) x2' for the
    straight segment gamma(t) = a + t (b - a), t in [0, 1]."""
    d1 = b[0] - a[0]
    d2 = b[1] - a[1]
    t = Poly.variable(1, 0)
    g1 = Poly.constant(1, a[0]) + t.scale(d1)
    g2 = Poly.constant(1, a[1]) + t.scale(d2)

    cache = {}

    def mono(e1, e2):
        if (e1, e2) not in cache:
            acc = Poly.constant(1, ONE)
            for _ in range(e1):
                acc = acc * g1
            for _ in range(e2):
                acc = acc * g2
            cache[(e1, e2)] = acc
        return cache[(e1, e2)]

    zero = Poly(1, {})

    def pull(pm, speed):
        rows = []
        for row in pm.rows:
            out = []
            for poly in row:
                acc = zero
                for (e1, e2), c in poly.terms.items():
                    acc = acc + mono(e1, e2).scale(c * speed)
                out.append(acc)
            rows.append(tuple(out))
        return PolyMatrix(1, rows)

    return pull(P, d1) + pull(Q, d2)


def _picard(M, lower):
    """Polynomial fundamental solution S of S' = M S with S(lower) = 1: the
    sum of the iterated integrals T_0 = 1, T_{k+1} = integral from lower of
    M T_k, which end because M takes values in nilpotent matrices; guarded
    by the ambient dimension.
    """
    n = M.shape[0]
    T = S = PolyMatrix.identity(1, n)
    for _ in range(n + 1):
        F = (M @ T).antiderivative()
        T = F - PolyMatrix.from_scalar_matrix(1, F.eval((lower,)))
        if T.is_zero():
            return S
        S = S + T
    raise NotNilpotentError("transport iteration did not terminate")


def transport_segment(forms, a, b):
    """Exact transport matrix along the straight segment from a to b."""
    P, Q = forms
    a = (Scalar(0) + a[0], Scalar(0) + a[1])
    b = (Scalar(0) + b[0], Scalar(0) + b[1])
    M = _segment_pullback(P, Q, a, b)
    return _picard(M, ZERO).eval((ONE,))


def holonomy_path(forms, path):
    """Transport along a polygonal path, composed in path order: a section
    at the start maps to T at the end, with later segments acting on the
    left."""
    n = forms[0].shape[0]
    T = Matrix.identity(n)
    for a, b in path.segments():
        T = transport_segment(forms, a, b) @ T
    return T


def triangle_delta(C):
    """Holonomy around the fixed triangle, as a DeltaObject.

    The pullback of an admissible form to either coordinate axis vanishes
    (every monomial carries both variables), so the loop reduces to the
    hypotenuse transport; each segment is transported once and the axis
    segments are checked to be trivial.
    """
    forms = connection_form(C)
    first, hyp, last = (
        transport_segment(forms, a, b)
        for a, b in PolygonalPath(TRIANGLE).segments()
    )
    one = Matrix.identity(C.hodge.dim)
    if first != one or last != one:
        raise InvariantError("axis transport is not trivial")
    return DeltaObject(C.hodge, last @ hyp @ first)


def flat_sections_on_line(C):
    """Fundamental solution S(u) on the line t1 = u, t2 = -1 - u with
    S(-1) = 1; columns span the covariantly constant sections, S(0) is the
    hypotenuse transport."""
    P, Q = connection_form(C)
    M = _segment_pullback(P, Q, (-ONE, ZERO), (ZERO, -ONE))
    # reparametrize: the pullback above is in the segment parameter
    # s in [0, 1] with u = s - 1; shift to the u variable
    shift = Poly.constant(1, ONE) + Poly.variable(1, 0)
    return _picard(M.subs(0, shift), -ONE)


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
    if C.A.get((1, 1)) != Matrix([[ZERO, ONE], [ZERO, ZERO]]):
        raise InvariantError("canonical connection block drifted")
    if triangle_delta(C).delta != delta:
        raise InvariantError("orientation pin failed")
    return True
