"""Deligne splittings and the unipotent comparison operator delta.

Each mixed Hodge structure has two canonical bigraded splittings, one
splitting (W, F') exactly and one splitting (W, F'').  A piece I^{p,q} of
weight n meets W_{n-1} in zero, so its reduced echelon basis in W-adapted
coordinates lifts the canonical basis of the (p, q) piece of Gr^W_n.
Comparing the two lifts, by one solve, yields a unipotent operator delta
whose logarithm strictly lowers both Hodge indices.  The structure can be
rebuilt from (hodge numbers, delta) up to isomorphism, and that model is
what the connection, holonomy, and cohomology layers consume.  _walk lives
here: the one walk that solves log delta and the connection from delta,
and transports along a path from the transport so far.
"""

from __future__ import annotations

from math import lcm

from .linalg import (
    _NO_IM,
    InvariantError,
    Matrix,
    Subspace,
    _cat,
    _cut,
    _echelon,
    _ints,
    _over_pivot,
    _pick,
    _position,
    _primitive,
    _scale,
    _solve,
    _units,
)
from .mhs import ComplexMHS, Filtration, GrStructure
from .scalars import ONE, ZERO, Value, _over


class DeltaError(ValueError):
    """Matrix violates the block shape required of delta."""


def _adapted_pieces(gr, side):
    # the pieces I^{a,n-a} = Fa^a ∩ W_n ∩ T(n-a, n) in the adapted
    # coordinates of gr, with T(b, n) = Fb^b ∩ W_n + the sum over j >= 1 of
    # Fb^(b-j) ∩ W_(n-j-1) (Cattani-Kaplan-Schmid, Ann. Math. 123, §2): the
    # rows (L, w) of gr.rows of Fb with w <= n and L + max(n-w-1, 0) >= b
    # span T(b, n), so one relative position per weight cuts them all.
    # I ∩ W_{n-1} = 0, so the chart slice of its echelon basis, made
    # primitive, is the canonical basis of the piece.  The rows are integer
    # rows, cut to the coordinates from lo on.  The rows of Fa of weight
    # <= n lie in W_n, spanned by the rows of Fb of weight <= n: so one
    # _solve writes every row of Fa in the rows of Fb, for all weights
    # (``written_in_other``, which graded() shares for Fa = F')
    if side not in ("Fp", "Fpp"):
        raise ValueError("side must be 'Fp' or 'Fpp'")
    fa, fb = gr.rows[side], gr.rows["Fpp" if side == "Fp" else "Fp"]
    dim = gr.V.n
    coords = gr.written_in_other(side)
    out, of_weight = {}, {}
    for pq, _, _ in gr.hodge.blocks():
        of_weight.setdefault(sum(pq), []).append(pq)
    for n, (lo, hi) in sorted(gr.cols.items()):
        tails = sorted(((level + max(n - w - 1, 0), i) for i, (level, w, _)
                        in enumerate(fb) if w <= n), key=lambda t: -t[0])
        idx = [i for _, i in tails]
        position = _position([level for level, _ in tails], [
            (level, _pick(x, idx), _cut(r, lo))
            for (level, w, r), x in zip(fa, coords) if w <= n])
        zero = ((0,) * lo, None)
        for pq in of_weight.get(n, ()):
            a, b = pq if side == "Fp" else pq[::-1]
            pivots, rows = _echelon(
                [r for x, y, r in position if x >= a and y >= b], dim - lo)
            if pivots[-1] >= hi - lo or tuple(
                    _primitive(*_cut(r, 0, hi - lo), j) for j, r in zip(pivots, rows)
            ) != gr.block_rows[pq]:
                raise InvariantError("splitting piece does not lift the graded "
                                     "basis at %r" % (pq,))
            out[pq] = Subspace(dim, tuple(_cat(zero, r) for r in rows))
    return out


def _times(x, rows, n):
    # the integer row sum_k x_k rows_k on n coordinates, for x an integer
    # row (re, im) of coefficients: (a + bi)(c + di) entry by entry
    re, im = [0] * n, [0] * n
    for a, b, (cr, ci) in zip(x[0], x[1] or _NO_IM, rows):
        if a or b:
            for j, c, d in zip(range(n), cr, ci or _NO_IM):
                re[j] += a * c - b * d
                im[j] += a * d + b * c
    return tuple(re), tuple(im) if any(im) else None


def splitting_subspaces(gr, side):
    """The bigraded splitting pieces I^{p,q} of the validated structure gr.V;
    side is "Fp" or "Fpp".

    The "Fp" splitting is compatible with W and F' on the nose and with F''
    only modulo lower weight; "Fpp" is the mirror image.  A piece's integer
    rows over the W-adapted basis, each W row over its pivot d, are written
    in K^n through the W rows scaled by m / d, m the lcm of the pivots:
    each comes out m times its vector, so the span is the piece.
    """
    m = lcm(*(d for _, _, d in gr._w))
    basis = [_scale((re, im), m // d) for re, im, d in gr._w]
    return {
        pq: Subspace._span(gr.V.n, [_times(x, basis, gr.V.n) for x in piece.rows])
        for pq, piece in _adapted_pieces(gr, side).items()
    }


class DeltaObject(Value):
    """Hodge numbers together with a unipotent matrix on the graded space.

    The matrix is written in the canonical block basis.  Diagonal blocks are
    identities; a block (p', q') <- (p, q) may be nonzero only when p' < p
    and q' < q.  It has three roles: delta, the comparison of the two
    splittings (delta_operator); a holonomy, the transport around the
    triangle (holonomy.triangle_delta); and a gauge g, as its value
    g(1, 1), whose entry (i, j) off the diagonal carries the monomial
    t1^p t2^q of its bidegree (p, q) (connection.apply_gauge).
    """

    __slots__ = ("hodge", "delta")

    def __init__(self, hodge, delta):
        n = hodge.dim
        if delta.shape != (n, n):
            raise DeltaError("matrix shape %r for dimension %d" % (delta.shape, n))
        owner = hodge.block_of_index()
        for i, (row, xs) in enumerate(zip(hodge.bidegrees(), delta.rows)):
            for j, ((a, b), x) in enumerate(zip(row, xs)):
                if a == b == 0:
                    if x != (ONE if i == j else ZERO):
                        raise DeltaError(
                            "diagonal block at %r is not the identity" % (owner[i],)
                        )
                elif x and (a <= 0 or b <= 0):  # not in hodge.lowering()
                    raise DeltaError(
                        "entry %r <- %r does not lower both indices"
                        % (owner[i], owner[j])
                    )
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "delta", delta)

    def __repr__(self):
        return "DeltaObject(%r)" % (self.hodge,)


def delta_line_type(dobj):
    """Type (0, ..., 0) of the Rees bundle of dobj on every line: Phi's
    entry (i, j) is delta_ij times a monomial equal to 1 on the diagonal
    (`rees.rees_patching`), so `rees.unipotent_line_type`'s scan of Phi, and
    its InvariantError, is this scan of delta."""
    for i, row in enumerate(dobj.delta.rows):
        for j in range(i + 1):
            if row[j] != (ONE if i == j else ZERO):
                raise InvariantError("Phi is not unitriangular at %d, %d" % (i, j))
    return (0,) * len(dobj.delta.rows)


def delta_operator(gr):
    """Compare the two canonical splittings of the validated structure gr.V
    through its associated graded.

    The echelon rows of each side's pieces, stacked in block order into B'
    and B'', lift the same canonical graded basis, so delta is the matrix
    (B''^T)^-1 B'^T carrying one lift onto the other: one solve, on the
    integer rows, each standing for itself over its pivot.  Its solutions
    are the one place Scalars are made, as the entries of delta."""
    n = gr.V.n
    Bp, Bpp = (
        _over_pivot(r for pq, _, _ in gr.hodge.blocks() for r in pieces[pq].rows)
        for pieces in (_adapted_pieces(gr, "Fp"), _adapted_pieces(gr, "Fpp"))
    )
    sols = _solve(Bpp, Bp, n)
    return DeltaObject(gr.hodge, Matrix._of(tuple(
        tuple(_over(re[i], im[i] if im else 0, d) for re, im, d in sols)
        for i in range(n)), n))


def _walk(hodge, rule, start=None):
    """Transport T(s) = T(0) + int_0^s M T of a form M that lowers both
    indices; T(0) is 1 plus start, Scalars keyed by (i, j) that lower both
    indices (a transport so far), so the order below still holds.

    The entries (i, j) that lower both indices are visited in order of
    weight drop, so S = sum_{k != j} c (h T[k,j]) over M[i,k] = (h, c)
    involves only entries already set; then M[i,j] = rule(i, j, S), None for
    zero or the ``upoly`` pair (h, c) of its bidegree's pullback h, with
    small coefficients, and its coefficient c, so a big c meets T only in a
    scaling; and T[i,j] = T(0)[i,j] + int_0^s (S + c h).  Returns T's
    nonzero off-diagonal entries, keyed by (i, j), in ``upoly``.
    """
    # upoly loads only where a walk runs, so rees, which runs none, skips it
    from .upoly import add, integral, mul, of

    M = [{} for _ in range(hodge.dim)]
    T = {ij: of((x,)) for ij, x in (start or {}).items()}
    for i, j in hodge.lowering():
        S = of(())
        for k, (h, c) in M[i].items():
            if (k, j) in T:
                S = add(S, mul(c, mul(h, T[k, j])))
        if (m := rule(i, j, S)) is not None:
            M[i][j] = m
            S = add(S, mul(m[1], m[0]))
        if S[0] or S[1]:
            T[i, j] = add(T[i, j], integral(S)) if (i, j) in T else integral(S)
    return T


def _solve_form(dobj, pullback):
    """The value M of the form with entries M[i,j] h(s), h = pullback(p, q)
    in ``upoly`` for (p, q) the bidegree of (i, j), whose transport is
    delta at s = 1; the walk solves each entry as it reaches it, as the
    pair (h, M[i,j]): M[i,j] = (delta[i,j] - int_0^1 S) / int_0^1 h."""
    from .upoly import at_one, integral, of

    n = dobj.hodge.dim
    bidegrees = dobj.hodge.bidegrees()
    delta = dobj.delta.rows
    pulled, rows = {}, [[ZERO] * n for _ in range(n)]

    def solve(i, j, S):
        pq = bidegrees[i][j]
        if pq not in pulled:
            h = pullback(*pq)
            pulled[pq] = (h, at_one(integral(h)))
        h, c = pulled[pq]
        a = (delta[i][j] - at_one(integral(S))) / c
        if not a:
            return None
        rows[i][j] = a
        return h, of((a,))

    _walk(dobj.hodge, solve)
    return Matrix._of(tuple(map(tuple, rows)), n)


def _blocks(hodge, M):
    """M as blocks: entry (i, j) goes to the block of its bidegree."""
    rows = tuple(zip(M.rows, hodge.bidegrees()))
    return {pq: Matrix._of(tuple(tuple(x if d == pq else ZERO
                                       for x, d in zip(row, ds))
                                 for row, ds in rows), hodge.dim)
            for pq in {d for row, ds in rows for x, d in zip(row, ds) if x}}


def log_delta_components(dobj):
    """Bigraded components of log(delta), keyed by how far they lower (p, q).

    Component (a, b) with a, b >= 1 carries the entries from block (p, q)
    to block (p - a, q - b).  The components sum back to L = log(delta):
    T(s) = exp(sL) solves T' = L T with T(0) = 1, so L is the constant
    lowering form whose transport is delta at s = 1.  _solve_form solves
    it with the pullback h = 1, as connection_from_delta solves the
    connection with the hypotenuse pullback; int_0^1 h = 1 fixes every
    entry, so L is the unique nilpotent logarithm, filed into blocks.
    """
    return _blocks(dobj.hodge, _solve_form(dobj, lambda p, q: ([1], [], 1)))


def delta_to_mhs(dobj, check=True):
    """Mixed Hodge structure on the standard graded space realizing delta.

    Each flag is ``Filtration.from_basis`` of one basis: W and F' of the unit
    rows at levels p + q and p of their blocks; F'' is the image of the
    standard decreasing-q flag under the inverse of delta, so of the
    columns of delta^-1 at level q, one solve against delta's columns.
    Round-trips with the splitting comparison by construction, and verifies
    that unless check is disabled.
    """
    hodge = dobj.hodge
    n = hodge.dim
    owner = hodge.block_of_index()
    units = _units(n)
    # the image of e_i under delta^-1 is column i of delta^-1: x delta^T = e_i
    cols = _solve([_ints(c) for c in zip(*dobj.delta.rows)],
                  [u + (1,) for u in units], n)
    W = Filtration.from_basis(Filtration.INC, n, [
        (p + q, r) for (p, q), r in zip(owner, units)])
    Fp = Filtration.from_basis(Filtration.DEC, n, [
        (p, r) for (p, q), r in zip(owner, units)])
    Fpp = Filtration.from_basis(Filtration.DEC, n, [
        (q, r[:2]) for (p, q), r in zip(owner, cols)])
    V = ComplexMHS(n, W, Fp, Fpp)
    if check:
        if delta_operator(GrStructure(V)) != dobj:
            raise InvariantError("splitting comparison does not round-trip")
    return V

