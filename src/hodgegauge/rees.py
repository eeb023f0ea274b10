"""Rees bundle patching functions and splitting types on the projective line.

The Rees bundle of a bigraded comparison datum is described over the
punctured plane by the Laurent patching matrix Phi(xi0, xi1) obtained by
conjugating delta with the monomial frame xi0^{p+q} xi1^{-p} on each piece.
Restricting Phi to the line attached to a point T of the plane gives a
one-variable transition matrix on P^1 whose Grothendieck splitting type is
computed exactly from section counts of its twists.
"""

from __future__ import annotations

from .linalg import InvariantError, Matrix
from .mhs import graded_pieces, piece_dimensions
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


def _h0(G, k, degree_bound):
    """dim of sections of the k-th twist: polynomial vectors f of degree
    <= degree_bound such that every entry of G f has xi-exponent <= k."""
    r = G.rank
    m = G.matrix
    ncoef = degree_bound + 1
    rows = []  # constraints, one per (entry, forbidden exponent)
    constraints = {}
    for i in range(r):
        for j in range(r):
            poly = m[i, j]
            for (e,), c in poly.terms.items():
                for d in range(ncoef):
                    tot = e + d
                    if tot > k:
                        key = (i, tot)
                        vec = constraints.setdefault(key, [ZERO] * (r * ncoef))
                        col = j * ncoef + d
                        vec[col] = vec[col] + c
    if not constraints:
        return r * ncoef
    mat = Matrix([constraints[key] for key in sorted(constraints)])
    return r * ncoef - mat.rank()


def splitting_type(G, degree_bound=None):
    """Grothendieck type (a_1 >= ... >= a_r) of the bundle presented by G.

    Derived from the section counts of twists: h0(E(k)) = sum max(0,
    a_i + k + 1), so the increments count the a_i above each threshold.
    Cross-checked against the determinant: sum a_i = -det exponent.
    """
    r = G.rank
    total = -G.det_exponent
    exps = [e for row in G.matrix.rows for p in row for (e,) in p.terms]
    M = max((abs(e) for e in exps), default=0)
    # unipotent fast path: determinant exponent zero and no sections after
    # one negative twist force the trivial type
    if total == 0 and _h0(G, -1, M + 1) == 0:
        return tuple([0] * r)
    if degree_bound is None:
        degree_bound = 2 * M + r + 2
    lo, hi = -(M + 1), M + 1
    h = {lo - 1: _h0(G, lo - 1, degree_bound)}
    counts = {}
    for k in range(lo, hi + 1):
        h[k] = _h0(G, k, degree_bound)
    if h[lo - 1] != 0 or h[hi] - h[hi - 1] != r:
        return splitting_type(G, degree_bound=2 * degree_bound + r)
    prev = 0
    type_entries = []
    for k in range(lo, hi + 1):
        c = h[k] - h[k - 1]
        for _ in range(c - prev):
            type_entries.append(-k)
        prev = c
    if len(type_entries) != r or sum(type_entries) != total:
        return splitting_type(G, degree_bound=2 * degree_bound + r)
    return tuple(sorted(type_entries, reverse=True))


def _joint_type(dims):
    """The multiset of p + q over pieces of dimension dims[(p, q)],
    sorted descending."""
    return sorted((p + q for (p, q), d in dims.items() for _ in range(d)), reverse=True)


def two_filtration_rees_type(Fp, Fpp):
    """Splitting type of the Rees bundle of a pair of decreasing
    filtrations on P^1: the multiset of p + q over a simultaneous
    bigrading, sorted descending.  The pair is n-opposite iff every entry
    equals n."""
    return tuple(_joint_type(piece_dimensions(Fp, Fpp)))


def w_line_transition(V):
    """Transition matrix on the weight line of the Rees bundle of a
    filtered triple that need not satisfy opposedness.

    On each weight-graded piece the induced pair of filtrations is split
    simultaneously; a piece of joint type (p, q) inside weight n
    contributes the monomial xi^{(p+q)-n}.  For a genuine mixed Hodge
    structure every exponent vanishes and the restriction is trivial.
    """
    exps = []
    for n, _, _, _, dims in graded_pieces(V):
        exps.extend(entry - n for entry in _joint_type(dims))
    r = len(exps)
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            if i == j:
                row.append(Poly(1, {(exps[i],): ONE}, laurent=True))
            else:
                row.append(Poly(1, {}, laurent=True))
        rows.append(tuple(row))
    return P1TransitionMatrix(PolyMatrix(1, rows))
