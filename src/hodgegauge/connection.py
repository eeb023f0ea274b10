"""Torus-equivariant connections on the affine plane, in coordinates.

An admissible connection d - Omega on the bundle attached to a bigraded
space is determined by coefficient blocks A_{p,q}, B_{p,q} (p, q >= 1) of
bidegree (-p, -q), assembled into the form

    Omega = sum A_{p,q} t1^{p-1} t2^q dt1  +  B_{p,q} t1^p t2^{q-1} dt2.

Its flat sections solve ds = Omega s.  A unipotent gauge g = 1 + sum
C_{p,q} t1^p t2^q acts by Omega -> g^{-1} Omega g - g^{-1} dg on the dicts
of blocks: each block carries one monomial, so a product adds bidegrees and
d1, d2 multiply block (p, q) by p, q.  The Fock-Schwinger condition A + B = 0
is the radial gauge x . Omega = 0; it picks one connection per gauge orbit,
which splitting._walk solves from a delta datum in one pass over its entries.
"""

from __future__ import annotations

from .linalg import Matrix
from .scalars import ONE, ZERO, Value
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
            self.hodge.dim, sorted(self.A), sorted(self.B))


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

    def inverse(self):
        """g^{-1} = sum_k (1 - g)^k, which ends once its blocks pass the
        weight spread."""
        K = {}
        term = N = {k: -M for k, M in self.C.items()}
        while term:
            K = _combine((ONE, K), (ONE, term))
            term = _product(self.hodge, term, N)
        return GaugeTransformation(self.hodge, K)

    def compose(self, other):
        """Pointwise product; apply_gauge(apply_gauge(C, g), h) equals
        apply_gauge(C, g.compose(h))."""
        return GaugeTransformation(self.hodge, _combine(
            (ONE, self.C), (ONE, other.C),
            (ONE, _product(self.hodge, self.C, other.C))))


def _combine(*terms):
    """sum of c X over the (c, X) pairs, zero blocks dropped."""
    out = {}
    for c, X in terms:
        for k, M in X.items():
            out[k] = out[k] + M.scale(c) if k in out else M.scale(c)
    return {k: M for k, M in out.items() if not M.is_zero()}


def _product(hodge, X, Y):
    """XY: block (p, q) of X times block (r, s) of Y lands at (p + r, q + s),
    the bidegree of each of its entries, so the block sums multiply once."""
    n, degrees = hodge.dim, hodge.bidegrees()

    def total(Z):
        # entry (i, j) of the block sum, read off the block of its bidegree
        return Matrix._of(tuple(tuple(Z[pq].rows[i][j] if pq in Z else ZERO
                                      for j, pq in enumerate(row))
                                for i, row in enumerate(degrees)), n)

    return _blocks(hodge, total(X) @ total(Y))


def _blocks(hodge, M):
    """M as blocks: entry (i, j) goes to the block of its bidegree."""
    rows = tuple(zip(M.rows, hodge.bidegrees()))
    return {pq: Matrix._of(tuple(tuple(x if d == pq else ZERO
                                       for x, d in zip(row, ds))
                                 for row, ds in rows), hodge.dim)
            for pq in {d for row, ds in rows for x, d in zip(row, ds) if x}}


def _derivative(X, k):
    """d1 (k = 0) or d2 (k = 1) of the blocks X: block (p, q) times p or q."""
    return {pq: M.scale(pq[k]) for pq, M in X.items()}


def connection_form(C):
    """The pair (P, Q) with Omega = P dt1 + Q dt2, as PolyMatrix."""
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
    """The blocks of d1 Q - d2 P - [P, Q], the dt1^dt2 coefficient of
    -(d - Omega)^2; flat iff there are none.

    With B = -A (Fock-Schwinger) it vanishes iff the connection is zero.
    Its linear part is -sum (p + q) A_{p,q} t1^{p-1} t2^{q-1}, one block
    each, and each commutator block has p + q >= 2d > d, where d is the
    least p + q over the nonzero blocks: so a least block cannot cancel.
    """
    return _combine((ONE, _derivative(C.B, 0)), (-ONE, _derivative(C.A, 1)),
                    (-ONE, _product(C.hodge, C.A, C.B)),
                    (ONE, _product(C.hodge, C.B, C.A)))


def apply_gauge(C, g):
    """Omega -> g^{-1} Omega g - g^{-1} dg: the connection whose flat
    sections are g^{-1} times those of C, so its transport from a to b is
    g(b)^{-1} T g(a)."""
    hodge = C.hodge
    if hodge != g.hodge:
        raise AdmissibilityError("connection and gauge on different spaces")
    one = {(0, 0): Matrix.identity(hodge.dim)}
    G, H = {**one, **g.C}, {**one, **g.inverse().C}
    A, B = (_product(hodge, H, _combine((ONE, _product(hodge, form, G)),
                                        (-ONE, _derivative(g.C, k))))
            for k, form in enumerate((C.A, C.B)))
    return EquivariantConnection(hodge, A, B)


def normalize_fock_schwinger(C):
    """The unique gauge-equivalent connection with A + B = 0, plus the gauge.

    A + B = 0 is x . Omega = 0: flat sections are constant on rays from the
    origin.  The change by g transports by g(b)^{-1} T g(a), which is 1 from
    the origin for g(t) = T(0 -> t); block (p, q) of g carries t1^p t2^q, so
    each entry of T(0 -> (1, 1)) goes to the block of its bidegree.  A gauge
    is 1 on both axes, so it keeps the triangle holonomy: the normal form is
    the one Fock-Schwinger connection with that delta.
    """
    # holonomy imports this module, so it loads only when called
    from .holonomy import transport_segment, triangle_delta

    T = transport_segment(C, (0, 0), (1, 1))
    return connection_from_delta(triangle_delta(C)), GaugeTransformation(
        C.hodge, {pq: M for pq, M in _blocks(C.hodge, T).items() if pq != (0, 0)})


def connection_from_delta(dobj):
    """The Fock-Schwinger connection whose triangle holonomy is delta: the
    axis transports are trivial, so delta is the hypotenuse transport, where
    block (p, q) pulls back as A_{p,q} hypotenuse_pullback(p, q)."""
    A = _solve_blocks(dobj, hypotenuse_pullback)
    return EquivariantConnection(dobj.hodge, A, {k: -v for k, v in A.items()})
