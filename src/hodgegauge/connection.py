"""Torus-equivariant connections on the affine plane, in coordinates.

An admissible connection d - Omega on the bundle attached to a bigraded
space is determined by coefficient blocks A_{p,q}, B_{p,q} (p, q >= 1) of
bidegree (-p, -q), assembled into the form

    Omega = sum A_{p,q} t1^{p-1} t2^q dt1  +  B_{p,q} t1^p t2^{q-1} dt2.

Its flat sections solve ds = Omega s.  A unipotent gauge g = 1 + sum
C_{p,q} t1^p t2^q acts by Omega -> g^{-1} Omega g - g^{-1} dg.  Entry (i, j)
of a form, gauge or curvature carries the one monomial of its bidegree, so
the blocks are fixed by their value at (1, 1), a point of the open torus
orbit: sums, products and inverses commute with taking that value, and d1,
d2 multiply entry (i, j) by the p, q of its bidegree.  So a connection is
the two values P, Q of its A- and B-forms, and the gauge layer is matrix
algebra on values; blocks are read (from_blocks) and filed (A, B) only at
the document boundary.  A gauge is the splitting.DeltaObject of its value
G = g(1, 1); the group law is 1, G H and G^{-1}.  The Fock-Schwinger
condition A + B = 0 is the radial gauge x . Omega = 0; it picks one
connection per gauge orbit, which splitting._walk solves from a delta.
"""

from __future__ import annotations

from .linalg import Matrix
from .scalars import ZERO, Value
from .splitting import DeltaObject, _blocks, _solve_form
from .upoly import hypotenuse_pullback


class AdmissibilityError(ValueError):
    """Coefficient block violates the bidegree constraint."""


class EquivariantConnection(Value):
    """Hodge numbers plus the values P, Q at (1, 1) of the A- and B-forms,
    Omega = P dt1 + Q dt2 there; A and B file them into blocks."""

    __slots__ = ("hodge", "P", "Q")

    def __init__(self, hodge, P, Q):
        for X, what in ((P, "A"), (Q, "B")):
            if X.shape != (hodge.dim, hodge.dim) or any(
                    x and min(d) <= 0 for row, ds in zip(X.rows, hodge.bidegrees())
                    for x, d in zip(row, ds)):
                raise AdmissibilityError(
                    "the value of %s does not lower both indices" % what)
        for name, value in zip(self.__slots__, (hodge, P, Q)):
            object.__setattr__(self, name, value)

    @property
    def A(self):
        return _blocks(self.hodge, self.P)

    @property
    def B(self):
        return _blocks(self.hodge, self.Q)

    @classmethod
    def zero(cls, hodge):
        return cls(hodge, *[Matrix.zeros(hodge.dim, hodge.dim)] * 2)

    def is_zero(self):
        return self.P.is_zero() and self.Q.is_zero()

    def __repr__(self):
        return "EquivariantConnection(dim=%d, A=%r, B=%r)" % (
            self.hodge.dim, sorted(self.A), sorted(self.B))


def from_blocks(hodge, A, B):
    """The connection of the blocks A, B keyed by (p, q).  Zero blocks are
    dropped; any other must sit at an admissible (p, q) within the weight
    spread, be n x n and carry only entries of its bidegree."""
    ws, n = hodge.weights(), hodge.dim
    spread = ws[-1] - ws[0] if ws else 0
    values = []
    for coeffs, what in ((A, "A"), (B, "B")):
        rows = [[ZERO] * n for _ in range(n)]
        for (p, q), M in coeffs.items():
            if M.is_zero():
                continue
            if p < 1 or q < 1:
                raise AdmissibilityError(
                    "%s block at non-admissible (%d, %d)" % (what, p, q))
            if p + q > spread:
                raise AdmissibilityError(
                    "%s block at (%d, %d) exceeds the weight spread %d"
                    % (what, p, q, spread))
            if M.shape != (n, n):
                raise AdmissibilityError(
                    "%s block at (%d, %d) has shape %r" % (what, p, q, M.shape))
            for row, xs, degrees in zip(rows, M.rows, hodge.bidegrees()):
                for j, (x, (a, b)) in enumerate(zip(xs, degrees)):
                    if x and (a, b) != (p, q):
                        raise AdmissibilityError(
                            "%s_{%d,%d} has an entry of bidegree %r"
                            % (what, p, q, (-a, -b)))
                    if x:
                        row[j] = x
        values.append(Matrix._of(tuple(map(tuple, rows)), n))
    return EquivariantConnection(hodge, *values)


def _degree(hodge, M, k):
    """d1 (k = 0) or d2 (k = 1) on values at (1, 1): entry (i, j) times the
    p or q of its bidegree (p, q)."""
    return Matrix._of(tuple(tuple(x * d[k] if x and d[k] else ZERO
                                  for x, d in zip(row, ds))
                            for row, ds in zip(M.rows, hodge.bidegrees())), hodge.dim)


def connection_form(C):
    """The pair (P, Q) with Omega = P dt1 + Q dt2, as PolyMatrix: an entry x
    of A's value at bidegree (p, q) is the one term x t1^(p-1) t2^q, of B's
    the term x t1^p t2^(q-1)."""
    # no command reaches the Poly code, so it loads only when called
    from .poly import Poly, PolyMatrix

    hodge = C.hodge

    def form(X, a, b):
        return PolyMatrix._of(2, tuple(
            tuple(Poly._of(2, {(p + a, q + b): x}) for x, (p, q) in zip(row, ds))
            for row, ds in zip(X.rows, hodge.bidegrees())), hodge.dim)

    return form(C.P, -1, 0), form(C.Q, 0, -1)


def curvature(C):
    """The blocks of d1 Q - d2 P - [P, Q], the dt1^dt2 coefficient of
    -(d - Omega)^2; flat iff there are none.

    With B = -A (Fock-Schwinger) it vanishes iff the connection is zero.
    Its linear part is -sum (p + q) A_{p,q} t1^{p-1} t2^{q-1}, one block
    each, and each commutator block has p + q >= 2d > d, where d is the
    least p + q over the nonzero blocks: so a least block cannot cancel.
    """
    hodge, P, Q = C.hodge, C.P, C.Q
    return _blocks(hodge, _degree(hodge, Q, 0) - _degree(hodge, P, 1) - (P @ Q - Q @ P))


def apply_gauge(C, g):
    """Omega -> g^{-1} Omega g - g^{-1} dg: the connection whose flat
    sections are g^{-1} times those of C, so its transport from a to b is
    g(b)^{-1} T g(a).  The gauge g is the DeltaObject of its value G at
    (1, 1), where dg is the d1 or d2 of G."""
    hodge = C.hodge
    if hodge != g.hodge:
        raise AdmissibilityError("connection and gauge on different spaces")
    G, H = g.delta, g.delta.inverse()
    return EquivariantConnection(hodge, *(H @ (X @ G - _degree(hodge, G, k))
                                          for k, X in enumerate((C.P, C.Q))))


def normalize_fock_schwinger(C):
    """The unique gauge-equivalent connection with A + B = 0, plus the gauge.

    A + B = 0 is x . Omega = 0: flat sections are constant on rays from the
    origin.  The change by g transports by g(b)^{-1} T g(a), which is 1 from
    the origin for g(t) = T(0 -> t), so the gauge is the DeltaObject of
    T(0 -> (1, 1)), as triangle_delta is of the triangle's transport.  A
    gauge is 1 on both axes, so it keeps the triangle holonomy: the normal
    form is the one Fock-Schwinger connection with that delta.
    """
    # holonomy imports this module, so it loads only when called
    from .holonomy import transport_segment, triangle_delta

    return connection_from_delta(triangle_delta(C)), DeltaObject(
        C.hodge, transport_segment(C, (0, 0), (1, 1)))


def connection_from_delta(dobj):
    """The Fock-Schwinger connection whose triangle holonomy is delta: the
    axis transports are trivial, so delta is the hypotenuse transport, where
    block (p, q) pulls back as A_{p,q} hypotenuse_pullback(p, q)."""
    P = _solve_form(dobj, hypotenuse_pullback)
    return EquivariantConnection(dobj.hodge, P, -P)
