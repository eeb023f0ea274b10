"""Rees bundle patching functions and splitting types on the projective line.

The Rees bundle of a bigraded comparison datum is described over the
punctured plane by the Laurent patching matrix Phi(xi0, xi1) obtained by
conjugating delta with the monomial frame xi0^{p+q} xi1^{-p} on each piece.
Restricting Phi to the line attached to a point T of the plane gives a
one-variable transition matrix on P^1.  The CLI reads line types off
delta's shape (`splitting.delta_line_type`).  This module is the library
route, for criterion 06 and the tests; it reads a type off weak Popov forms.
"""

from __future__ import annotations

from .linalg import InvariantError
from .mhs import AdaptedTriple
from .poly import LaurentError, Poly, PolyMatrix, powers
from .scalars import ONE, ZERO, Value

W_LINE = "W"


class TransitionError(ValueError):
    """Transition matrix is not invertible over the overlap."""


class P1TransitionMatrix(Value):
    """Square Laurent matrix in one variable xi relating the chart at 0 to
    the chart at infinity (coordinate 1/xi).  The determinant must be a
    nonzero monomial c * xi^m; the convention is pinned so that the 1x1
    matrix (xi^{-1}) presents O(1).  It is checked by two column
    reductions of determinant 1: the top column degrees sum to the highest
    exponent of det and the bottom ones to minus its lowest.  `degrees`
    keeps the top ones and `det_exponent` their sum."""

    __slots__ = ("matrix", "degrees", "det_exponent")

    def __init__(self, matrix):
        r, c = matrix.shape
        if r != c:
            raise TransitionError("transition matrix must be square")
        if matrix.nvars != 1:
            raise TransitionError("transition matrix must be univariate")
        # a column vanishes in one reduction iff it does in the other
        top, bottom = _column_reduce(matrix, 1), _column_reduce(matrix, -1)
        if top is None or sum(top) != -sum(bottom):
            raise TransitionError("determinant is not a nonzero monomial")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "degrees", top)
        object.__setattr__(self, "det_exponent", sum(top))

    @property
    def rank(self):
        return self.matrix.shape[0]


def _column_reduce(m, sign):
    """Column degrees of a weak Popov form of the square Laurent matrix m,
    read on the exponent sign * e; None when a column vanishes, that is
    exactly when m is singular.

    A column's leading position is the last row holding its top-degree
    term.  While columns k and t share one and d_t >= d_k, col_t +=
    c xi^(d_t - d_k) col_k cancels that term (Mulders and Storjohann, J.
    Symbolic Comput. 35, 2003): determinant 1, it lowers d_t or the leading
    position, and no exponent falls below m's lowest, e_min.  Once the
    positions differ, the top-degree coefficients are triangular up to a
    column permutation, so the form is column reduced."""
    r = m.shape[0]
    # column j as {(degree, row): coefficient}, so max() is its leading term
    cols = [
        {(sign * e, i): c for i in range(r) for (e,), c in m[i, j].terms.items()}
        for j in range(r)
    ]
    if not all(cols):
        return None
    e_min = min((e for col in cols for e, _ in col), default=0)
    lead = [max(col) for col in cols]
    # each step lowers one column's (degree, position), its degree >= e_min
    steps = r * sum(d - e_min + 1 for d, _ in lead)
    owner = {}  # leading position -> the column holding it
    for j in range(r):
        t = j
        while (k := owner.setdefault(lead[t][1], t)) != t:
            if lead[t][0] < lead[k][0]:  # the lower column takes the place
                owner[lead[k][1]], t, k = t, k, t
            if not steps:
                raise InvariantError("column reduction did not terminate")
            steps -= 1
            col, shift = cols[t], lead[t][0] - lead[k][0]
            c = -col[lead[t]] / cols[k][lead[k]]
            for (e, row), x in cols[k].items():
                y = col.get((e + shift, row), ZERO) + c * x
                if y:
                    col[e + shift, row] = y
                else:
                    del col[e + shift, row]
            if not col:
                return None
            lead[t] = max(col)
    return tuple(d for d, _ in lead)


def rees_patching(dobj):
    """Laurent matrix Phi(xi0, xi1) conjugating delta by the Rees frame.

    The entry from the (p', q') block to the (p, q) block carries the
    monomial xi0^{(p'+q') - (p+q)} xi1^{p - p'} times the delta entry, so
    the xi0 exponents of the off-diagonal entries are >= 2.
    """
    return PolyMatrix(2, [
        tuple(Poly(2, {(a + b, -a): x}) for (a, b), x in zip(degrees, row))
        for degrees, row in zip(dobj.hodge.bidegrees(), dobj.delta.rows)])


def unipotent_line_type(phi):
    """Type (0, ..., 0) of Phi's restriction to every line, certified by one
    scan: each diagonal entry of Phi must be the constant 1 and each entry
    below it zero, else InvariantError.  A restriction G keeps that shape
    over K[xi, 1/xi], so G = G_-(1/xi) G_+(xi) with both factors unipotent
    (Birkhoff; Pressley and Segal, Loop Groups, 1986, ch. 8), and its type
    is trivial (Grothendieck 1957).  By induction: G = [[G', v], [0, 1]]
    with G' = A_- A_+; split A_-^{-1} v = w_- + w_+ into negative and
    non-negative powers, and G = [[A_-, A_- w_-], [0, 1]] [[A_+, w_+], [0, 1]]."""
    one = {(0,) * phi.nvars: ONE}
    for i, row in enumerate(phi.rows):
        for j in range(i + 1):
            if row[j].terms != (one if i == j else {}):
                raise InvariantError("Phi is not unitriangular at %d, %d" % (i, j))
    return (0,) * len(phi.rows)


def restrict_to_line(phi, T):
    """Transition matrix of the Rees bundle on the line attached to T.

    T is a point (t1, t2) of the plane, or the symbol W_LINE for the weight
    line at the origin.  The line is parametrized by xi0 = l = -t2 - t1 xi,
    xi1 = xi, so each term c xi0^a xi1^b of Phi becomes c xi^b l^a, with
    the powers of l formed once; at the origin l = 0, every positive power
    of xi0 dies and the restriction is the identity.
    """
    t1, t2 = (0, 0) if T == W_LINE else T
    power = powers(Poly(1, {(0,): -t2, (1,): -t1}))

    def entry(poly):
        terms = {}
        for (a, b), c in poly.terms.items():
            if a < 0:
                raise LaurentError("cannot substitute into negative power")
            for (e,), x in power(a).terms.items():
                terms[b + e,] = terms.get((b + e,), ZERO) + c * x
        return Poly._of(1, terms)

    rows = tuple(tuple(entry(poly) for poly in row) for row in phi.rows)
    return P1TransitionMatrix(PolyMatrix._of(1, rows, phi.ncols))


def splitting_type(G):
    """Grothendieck type (a_1 >= ... >= a_r) of the bundle presented by G.

    G.degrees are the column degrees d_j of a weak Popov form G U, U
    unimodular over K[xi] (`_column_reduce`; Wolovich 1974).  Its top-degree
    coefficients are invertible, so G U = A(1/xi) diag(xi^{d_j}) with A
    invertible over K[1/xi], and the type is -d_j, summing to -det exponent
    by construction.  Shifting G by xi^m would shift every d_j by m.
    """
    return tuple(sorted((-d for d in G.degrees), reverse=True))


def w_line_transition(V):
    """Transition matrix on the weight line of the Rees bundle of a
    filtered triple that need not satisfy opposedness.

    On each weight-graded piece the induced pair of filtrations is in
    relative position; a row of level (p, q) inside weight n contributes
    the monomial xi^{(p+q)-n}.  For a genuine mixed Hodge structure every
    exponent vanishes and the restriction is trivial.
    """
    exps = []
    for n, position in AdaptedTriple(V).graded():
        exps.extend(sorted((p + q - n for p, q, _ in position), reverse=True))
    return P1TransitionMatrix(PolyMatrix(1, [
        tuple(Poly(1, {(e,): ONE} if i == j else {})
              for j in range(len(exps)))
        for i, e in enumerate(exps)
    ]))
