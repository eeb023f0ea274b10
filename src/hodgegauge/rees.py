"""Rees bundle patching functions and splitting types on the projective line.

The Rees bundle of a bigraded comparison datum is described over the
punctured plane by the Laurent patching matrix Phi(xi0, xi1) obtained by
conjugating delta with the monomial frame xi0^{p+q} xi1^{-p} on each piece.
Restricting Phi to the line attached to a point T of the plane gives a
one-variable transition matrix on P^1 whose Grothendieck splitting type is
read off exactly from one reduction of it to column-reduced form.
"""

from __future__ import annotations

from .linalg import InvariantError, Matrix, relative_position
from .mhs import AdaptedTriple
from .poly import Poly, PolyMatrix
from .scalars import ONE, ZERO, Scalar

W_LINE = "W"


class TransitionError(ValueError):
    """Transition matrix is not invertible over the overlap."""


class P1TransitionMatrix:
    """Square Laurent matrix in one variable xi relating the chart at 0 to
    the chart at infinity (coordinate 1/xi).  The determinant must be a
    nonzero monomial c * xi^m; the convention is pinned so that the 1x1
    matrix (xi^{-1}) presents O(1)."""

    __slots__ = ("matrix", "det_coeff", "det_exponent")

    def __init__(self, matrix):
        r, c = matrix.shape
        if r != c:
            raise TransitionError("transition matrix must be square")
        if matrix.nvars != 1:
            raise TransitionError("transition matrix must be univariate")
        det = _laurent_det(matrix)
        if len(det.terms) != 1:
            raise TransitionError("determinant is not a nonzero monomial")
        ((exp,), coeff) = next(iter(det.terms.items()))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "det_coeff", coeff)
        object.__setattr__(self, "det_exponent", exp)

    def __setattr__(self, name, value):
        raise AttributeError("P1TransitionMatrix is immutable")

    @property
    def rank(self):
        return self.matrix.shape[0]

    def __eq__(self, other):
        if not isinstance(other, P1TransitionMatrix):
            return NotImplemented
        return self.matrix == other.matrix


def _laurent_det(pm):
    """Determinant by expansion along columns with zero-pruning; the
    matrices here are small and sparse."""
    r, _ = pm.shape
    if r == 0:
        return Poly.constant(1, ONE, laurent=True)

    rows = pm.rows

    def minor(avail_rows, col, sign):
        if col == r:
            return Poly.constant(1, sign, laurent=True)
        acc = Poly(1, {}, laurent=True)
        for idx, i in enumerate(avail_rows):
            entry = rows[i][col]
            if entry.is_zero():
                continue
            sub_sign = sign if idx % 2 == 0 else -sign
            rest = avail_rows[:idx] + avail_rows[idx + 1 :]
            acc = acc + entry * minor(rest, col + 1, sub_sign)
        return acc

    return minor(tuple(range(r)), 0, ONE)


def rees_patching(dobj):
    """Laurent matrix Phi(xi0, xi1) conjugating delta by the Rees frame.

    The entry from the (p', q') block to the (p, q) block carries the
    monomial xi0^{(p'+q') - (p+q)} xi1^{p - p'} times the delta entry, so
    the xi0 exponents of the off-diagonal entries are >= 2.
    """
    hodge = dobj.hodge
    n = hodge.dim
    owner = hodge.block_of_index()
    rows = []
    for i in range(n):
        p, q = owner[i]
        row = []
        for j in range(n):
            x = dobj.delta[i, j]
            if not x:
                row.append(Poly(2, {}, laurent=True))
                continue
            pp, qq = owner[j]
            mono = ((pp + qq) - (p + q), p - pp)
            row.append(Poly(2, {mono: x}, laurent=True))
        rows.append(tuple(row))
    return PolyMatrix(2, rows)


def restrict_to_line(phi, T):
    """Transition matrix of the Rees bundle on the line attached to T.

    T is a point (t1, t2) of the plane, or the symbol W_LINE for the weight
    line at the origin.  The line is parametrized by xi0 = -t2 - t1 xi1,
    which is substituted into Phi; at the origin every positive power of
    xi0 dies and the restriction is the identity.
    """
    if T == W_LINE:
        t1, t2 = ZERO, ZERO
    else:
        t1, t2 = (Scalar(0) + T[0], Scalar(0) + T[1])
    repl = Poly(2, {(0, 0): -t2, (0, 1): -t1}, laurent=True)
    sub = phi.subs(0, repl)
    rows = []
    for row in sub.rows:
        out = []
        for poly in row:
            terms = {}
            for (e0, e1), c in poly.terms.items():
                if e0:
                    raise InvariantError("xi0 survived the line substitution")
                terms[(e1,)] = c
            out.append(Poly(1, terms, laurent=True))
        rows.append(tuple(out))
    return P1TransitionMatrix(PolyMatrix(1, rows))


def splitting_type(G):
    """Grothendieck type (a_1 >= ... >= a_r) of the bundle presented by G.

    Column reduction (Wolovich 1974): while the matrix L of each column's
    top-degree coefficients is singular, take c with L c = 0 and replace
    the top-degree column t among those with c_t != 0 by
    sum_j c_j xi^{d_t - d_j} col_j.  That is a unimodular column operation
    over K[xi] which lowers d_t.  The sum of the column degrees d_j never
    falls below the determinant exponent, so the loop is bounded.  Once L
    is invertible, G U = A(1/xi) diag(xi^{d_j}) with U the operations done
    and A invertible over K[1/xi], so the type is -d_j.  Shifting G by xi^m
    to a polynomial matrix would shift every d_j by m and change nothing.
    """
    r = G.rank
    # column j as {(exponent, row): coefficient}, so max() finds its degree
    cols = [
        {(e, i): c for i in range(r) for (e,), c in G.matrix[i, j].terms.items()}
        for j in range(r)
    ]
    deg = [max(col)[0] for col in cols]
    for _ in range(sum(deg) - G.det_exponent + 1):
        lead = tuple(
            tuple(cols[j].get((deg[j], i), ZERO) for j in range(r)) for i in range(r)
        )
        kernel = Matrix._of(lead, r).right_kernel().rows
        if not kernel:
            break
        c = kernel[0]
        t = max((j for j in range(r) if c[j]), key=deg.__getitem__)
        col = {}
        for j in range(r):
            if c[j]:
                shift = deg[t] - deg[j]
                for (e, i), x in cols[j].items():
                    key = (e + shift, i)
                    col[key] = col.get(key, ZERO) + c[j] * x
        cols[t] = {key: x for key, x in col.items() if x}
        deg[t] = max(cols[t])[0]
    else:
        raise InvariantError("column reduction did not terminate")
    if sum(deg) != G.det_exponent:
        raise InvariantError("splitting type does not sum to -det exponent")
    return tuple(sorted((-d for d in deg), reverse=True))


def two_filtration_rees_type(Fp, Fpp):
    """Splitting type of the Rees bundle of a pair of finite decreasing
    filtrations on P^1: the multiset of p + q over the levels (p, q) of
    their relative position, sorted descending.  The pair is n-opposite
    iff every entry equals n."""
    Fp.validate()
    Fpp.validate()
    return tuple(sorted(
        (p + q for p, q, _ in relative_position(Fp.n, Fp.steps, Fpp.steps)),
        reverse=True))


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
        tuple(Poly(1, {(e,): ONE} if i == j else {}, laurent=True)
              for j in range(len(exps)))
        for i, e in enumerate(exps)
    ]))
