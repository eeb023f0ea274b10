"""Torus-equivariant connections on the affine plane, in coordinates.

An admissible connection on the bundle attached to a bigraded space is
determined by coefficient blocks A_{p,q}, B_{p,q} (p, q >= 1) of bidegree
(-p, -q), assembled into the form

    Omega = sum A_{p,q} t1^{p-1} t2^q dt1  +  B_{p,q} t1^p t2^{q-1} dt2.

Gauge transformations are unipotent with the same strict double-lowering
shape.  The Fock-Schwinger condition A + B = 0 picks a unique representative
in each gauge orbit, and that representative is solved from a delta datum
in one pass over its entries by splitting._walk, the walk beside
DeltaObject that also solves log delta and transports along segments.
"""

from __future__ import annotations

from .linalg import InvariantError, Matrix
from .scalars import ONE, Value
from .splitting import _solve_blocks
from .upoly import hypotenuse_pullback


class AdmissibilityError(ValueError):
    """Coefficient block violates the bidegree constraint."""


def _check_block(bidegrees, M, p, q, what):
    n = len(bidegrees)
    if M.shape != (n, n):
        raise AdmissibilityError(
            "%s block at (%d, %d) has shape %r" % (what, p, q, M.shape)
        )
    for row, degrees in zip(M.rows, bidegrees):
        for x, (a, b) in zip(row, degrees):
            if x and (a, b) != (p, q):
                raise AdmissibilityError(
                    "%s_{%d,%d} has an entry of bidegree %r"
                    % (what, p, q, (-a, -b))
                )


def _weight_spread(hodge):
    ws = hodge.weights()
    return ws[-1] - ws[0] if ws else 0


class EquivariantConnection(Value):
    """Hodge numbers plus the coefficient maps A, B keyed by (p, q)."""

    __slots__ = ("hodge", "A", "B")

    def __init__(self, hodge, A, B):
        A = {k: v for k, v in A.items() if not v.is_zero()}
        B = {k: v for k, v in B.items() if not v.is_zero()}
        spread = _weight_spread(hodge)
        bidegrees = hodge.bidegrees()
        for coeffs, what in ((A, "A"), (B, "B")):
            for (p, q), M in coeffs.items():
                if p < 1 or q < 1:
                    raise AdmissibilityError(
                        "%s block at non-admissible (%d, %d)" % (what, p, q)
                    )
                if p + q > spread:
                    raise AdmissibilityError(
                        "%s block at (%d, %d) exceeds the weight spread %d"
                        % (what, p, q, spread)
                    )
                _check_block(bidegrees, M, p, q, what)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @classmethod
    def zero(cls, hodge):
        return cls(hodge, {}, {})

    def is_zero(self):
        return not self.A and not self.B

    def __repr__(self):
        return "EquivariantConnection(dim=%d, A=%r, B=%r)" % (
            self.hodge.dim,
            sorted(self.A),
            sorted(self.B),
        )


class GaugeTransformation(Value):
    """Unipotent change of frame g = 1 + sum C_{p,q} t1^p t2^q."""

    __slots__ = ("hodge", "C")

    def __init__(self, hodge, C):
        C = {k: v for k, v in C.items() if not v.is_zero()}
        bidegrees = hodge.bidegrees()
        for (p, q), M in C.items():
            if p < 1 or q < 1:
                raise AdmissibilityError(
                    "gauge block at non-lowering (%d, %d)" % (p, q)
                )
            _check_block(bidegrees, M, p, q, "C")
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "C", C)

    @classmethod
    def identity(cls, hodge):
        return cls(hodge, {})

    def matrix(self):
        """g as a polynomial matrix in (t1, t2)."""
        from .poly import PolyMatrix

        n = self.hodge.dim
        return PolyMatrix.identity(2, n) + _block_form(n, self.C, 0, 0)

    def inverse_matrix(self):
        """g^{-1} via the terminating geometric series (g - 1 is nilpotent)."""
        from .poly import PolyMatrix

        n = self.hodge.dim
        one = PolyMatrix.identity(2, n)
        N = self.matrix() - one
        acc = one
        term = one
        while True:
            term = -(term @ N)
            if term.is_zero():
                break
            acc = acc + term
        return acc

    def compose(self, other):
        """Pointwise product; apply_gauge(apply_gauge(C, g), h) equals
        apply_gauge(C, g.compose(h))."""
        prod = self.matrix() @ other.matrix()
        C = {}
        for (p, q) in prod.support():
            if p == 0 and q == 0:
                continue
            C[(p, q)] = prod.coefficient_matrix((p, q))
        return GaugeTransformation(self.hodge, C)


def connection_form(C):
    """The pair (P, Q) with Omega = P dt1 + Q dt2."""
    n = C.hodge.dim
    return _block_form(n, C.A, -1, 0), _block_form(n, C.B, 0, -1)


def _block_form(n, blocks, a, b):
    """sum M t1^(p+a) t2^(q+b) over the blocks (p, q) -> M, in (p, q) order."""
    # no command reaches the Poly code, so it loads only when called
    from .poly import Poly, PolyMatrix

    out = PolyMatrix.zeros(2, n, n)
    for (p, q), M in sorted(blocks.items()):
        out = out + PolyMatrix.from_scalar_matrix(2, M).scale_poly(
            Poly.monomial(2, (p + a, q + b))
        )
    return out


def curvature(C):
    """The dt1^dt2 coefficient d1 Q - d2 P + [P, Q]; zero iff flat.

    With B = -A (Fock-Schwinger) it vanishes iff the connection is zero.
    Its linear part is -sum (p + q) A_{p,q} t1^{p-1} t2^{q-1}, one monomial
    per block, and each commutator term has total degree >= 2d - 2 > d - 2,
    where d is the least p + q over the nonzero blocks: so the monomial of
    degree d - 2 of a least block cannot cancel.
    """
    P, Q = connection_form(C)
    return Q.diff(0) - P.diff(1) + P.commutator(Q)


def _extract_connection(hodge, P, Q):
    A = {}
    B = {}
    for (a, b) in P.support():
        A[(a + 1, b)] = P.coefficient_matrix((a, b))
    for (a, b) in Q.support():
        B[(a, b + 1)] = Q.coefficient_matrix((a, b))
    return EquivariantConnection(hodge, A, B)


def apply_gauge(C, g):
    """Omega -> g^{-1} dg + g^{-1} Omega g, repackaged into coefficients."""
    if C.hodge != g.hodge:
        raise AdmissibilityError("connection and gauge on different spaces")
    G = g.matrix()
    Ginv = g.inverse_matrix()
    P, Q = connection_form(C)
    Pn = Ginv @ (G.diff(0) + P @ G)
    Qn = Ginv @ (G.diff(1) + Q @ G)
    return _extract_connection(C.hodge, Pn, Qn)


def normalize_fock_schwinger(C):
    """The unique gauge-equivalent connection with A + B = 0, plus the gauge.

    Solved level by level on the total drop d = p + q: at each level the
    defect (A + B)_{p,q} of the partially corrected connection determines
    C_{p,q} = -(A + B)_{p,q} / (p + q).
    """
    hodge = C.hodge
    zero = Matrix.zeros(hodge.dim, hodge.dim)
    current = C
    total = GaugeTransformation.identity(hodge)
    for d in range(2, _weight_spread(hodge) + 1):
        Cd = {}
        for p in range(1, d):
            q = d - p
            S = current.A.get((p, q), zero) + current.B.get((p, q), zero)
            if not S.is_zero():
                Cd[(p, q)] = S.scale(ONE / -d)
        if not Cd:
            continue
        g = GaugeTransformation(hodge, Cd)
        current = apply_gauge(current, g)
        total = total.compose(g)
    for (p, q), M in current.A.items():
        resid = M + current.B.get((p, q), zero)
        if not resid.is_zero():
            raise InvariantError("normalization left a defect at %r" % ((p, q),))
    for (p, q), M in current.B.items():
        if (p, q) not in current.A and not M.is_zero():
            raise InvariantError("normalization left a B block at %r" % ((p, q),))
    return current, total


def connection_from_delta(dobj):
    """The Fock-Schwinger connection whose triangle holonomy is delta: the
    axis transports are trivial, so delta is the hypotenuse transport, where
    block (p, q) pulls back as A_{p,q} hypotenuse_pullback(p, q)."""
    A = _solve_blocks(dobj, hypotenuse_pullback)
    return EquivariantConnection(dobj.hodge, A, {k: -v for k, v in A.items()})
