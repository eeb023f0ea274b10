"""Deligne splittings and the unipotent comparison operator delta.

Each mixed Hodge structure has two canonical bigraded splittings, one
splitting (W, F') exactly and one splitting (W, F'').  Comparing the two
through the associated graded yields a unipotent operator delta whose
logarithm strictly lowers both Hodge indices.  The structure can be
rebuilt from (hodge numbers, delta) up to isomorphism, and that model is
what the connection, holonomy, and cohomology layers consume.
"""

from __future__ import annotations

from .linalg import Matrix, Subspace, log_unipotent
from .mhs import ComplexMHS, Filtration, GrStructure
from .scalars import ONE, ZERO


class DeltaError(ValueError):
    """Matrix violates the block shape required of delta."""


def splitting_subspaces(gr, side):
    """The bigraded splitting pieces I^{p,q} of the validated structure gr.V;
    side is "Fp" or "Fpp".

    The "Fp" splitting is compatible with W and F' on the nose and with F''
    only modulo lower weight; "Fpp" is the mirror image.
    """
    V, hodge = gr.V, gr.hodge
    if side == "Fp":
        Fa, Fb = V.Fp, V.Fpp
    elif side == "Fpp":
        Fa, Fb = V.Fpp, V.Fp
    else:
        raise ValueError("side must be 'Fp' or 'Fpp'")
    out = {}
    for (p, q), off, h in hodge.blocks():
        a, b = (p, q) if side == "Fp" else (q, p)
        n = p + q
        first = Fa.at(a).intersect(V.W.at(n))
        tail = Fb.at(b).intersect(V.W.at(n))
        j = 1
        while n - j - 1 >= V.W.min_index():
            tail = tail.add(Fb.at(b - j).intersect(V.W.at(n - j - 1)))
            j += 1
        piece = first.intersect(tail)
        assert piece.dim == h, "splitting piece has wrong dimension at %r" % ((p, q),)
        out[(p, q)] = piece
    return out


class DeltaObject:
    """Hodge numbers together with the comparison matrix on the graded space.

    The matrix is written in the canonical block basis.  Diagonal blocks are
    identities; a block (p', q') <- (p, q) may be nonzero only when p' < p
    and q' < q.
    """

    __slots__ = ("hodge", "delta")

    def __init__(self, hodge, delta):
        n = hodge.dim
        if delta.shape != (n, n):
            raise DeltaError("matrix shape %r for dimension %d" % (delta.shape, n))
        owner = hodge.block_of_index()
        for i in range(n):
            pi, qi = owner[i]
            for j in range(n):
                pj, qj = owner[j]
                x = delta[i, j]
                if (pi, qi) == (pj, qj):
                    want = ONE if i == j else ZERO
                    if x != want:
                        raise DeltaError(
                            "diagonal block at %r is not the identity" % ((pi, qi),)
                        )
                elif x:
                    if not (pi < pj and qi < qj):
                        raise DeltaError(
                            "entry %r <- %r does not lower both indices"
                            % ((pi, qi), (pj, qj))
                        )
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaObject is immutable")

    def __eq__(self, other):
        if not isinstance(other, DeltaObject):
            return NotImplemented
        return self.hodge == other.hodge and self.delta == other.delta

    def __repr__(self):
        return "DeltaObject(%r)" % (self.hodge,)


def _side_matrix(gr, side):
    # column-vector map from graded coordinates to ambient coordinates
    pieces = splitting_subspaces(gr, side)
    b_rows = []
    g_rows = []
    for (p, q), off, h in gr.hodge.blocks():
        for row in pieces[(p, q)].basis.rows:
            b_rows.append(row)
            g_rows.append(gr.gr_coords(row, p + q))
    B = Matrix(b_rows)
    G = Matrix(g_rows)
    return B.transpose() @ G.transpose().inverse()


def delta_operator(gr):
    """Compare the two canonical splittings of the validated structure gr.V
    through its associated graded."""
    Mp = _side_matrix(gr, "Fp")
    Mpp = _side_matrix(gr, "Fpp")
    return DeltaObject(gr.hodge, Mpp.inverse() @ Mp)


def log_delta_components(dobj):
    """Bigraded components of log(delta), keyed by how far they lower (p, q).

    Component (a, b) with a, b >= 1 carries the entries from block (p, q)
    to block (p - a, q - b).  The components sum back to log(delta).
    """
    D = log_unipotent(dobj.delta)
    owner = dobj.hodge.block_of_index()
    n = dobj.hodge.dim
    comps = {}
    for i in range(n):
        pi, qi = owner[i]
        for j in range(n):
            if not D[i, j]:
                continue
            pj, qj = owner[j]
            key = (pj - pi, qj - qi)
            if key not in comps:
                comps[key] = [[ZERO] * n for _ in range(n)]
            comps[key][i][j] = D[i, j]
    return {k: Matrix(rows) for k, rows in comps.items()}


def delta_to_mhs(dobj, check=True):
    """Mixed Hodge structure on the standard graded space realizing delta.

    W and F' are spanned by standard basis blocks; F'' is the image of the
    standard decreasing-q flag under the inverse of delta.  Round-trips
    with the splitting comparison by construction, and verifies that unless
    check is disabled.
    """
    hodge = dobj.hodge
    n = hodge.dim
    blocks = hodge.blocks()
    std = Matrix.identity(n).rows

    def span(pred):
        rows = []
        for (p, q), off, h in blocks:
            if pred(p, q):
                rows.extend(std[off : off + h])
        return Subspace.from_rows(n, rows)

    weights = hodge.weights()
    W = Filtration(
        Filtration.INC,
        n,
        {w: span(lambda p, q: p + q <= w) for w in weights},
    )
    # steps are stored on a contiguous index range because lookups read the
    # value at the largest stored index below
    ps = sorted({p for (p, q) in hodge.counts})
    Fp = Filtration(
        Filtration.DEC,
        n,
        {
            p0: span(lambda p, q: p >= p0)
            for p0 in range(ps[0], ps[-1] + 2)
        },
    )
    dinv = dobj.delta.inverse()
    qs = sorted({q for (p, q) in hodge.counts})
    Fpp = Filtration(
        Filtration.DEC,
        n,
        {
            q0: span(lambda p, q: q >= q0).apply(dinv)
            for q0 in range(qs[0], qs[-1] + 2)
        },
    )
    V = ComplexMHS(n, W, Fp, Fpp)
    if check:
        back = delta_operator(GrStructure(V))
        assert back == dobj, "splitting comparison does not round-trip"
    return V


def block_permutation(hodge):
    """Permutation matrix from the block basis of h to that of its transpose."""
    ht = hodge.transpose()
    off_t = {pq: off for pq, off, h in ht.blocks()}
    n = hodge.dim
    rows = [[ZERO] * n for _ in range(n)]
    for (p, q), off, h in hodge.blocks():
        for k in range(h):
            rows[off_t[(q, p)] + k][off + k] = ONE
    return Matrix(rows)


def conjugate_delta(dobj):
    """Delta of the conjugate structure, computed on the graded model."""
    P = block_permutation(dobj.hodge)
    delta_new = P @ dobj.delta.inverse().conjugate() @ P.transpose()
    return DeltaObject(dobj.hodge.transpose(), delta_new)
