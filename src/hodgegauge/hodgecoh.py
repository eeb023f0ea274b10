"""Absolute Hodge cohomology from the invariant two-term de Rham complex.

For the canonical connection of a structure, the torus-invariant global
sections and 1-forms on the plane are finite dimensional: a graded piece of
bidegree (-a, -b) pairs with the monomial t1^a t2^b.  The map s |-> ds +
Omega s is a single matrix whose kernel and cokernel compute Ext^0 and
Ext^1 from the unit structure; everything in degree >= 2 vanishes.

The real theory is the fixed part under the conjugation that swaps the two
coordinates of the plane, computed by realifying the complex and cutting
out the fixed subspaces.
"""

from __future__ import annotations

from .connection import connection_from_delta
from .linalg import Matrix, Subspace, solve_left, vstack
from .mhs import GrStructure, dual_mhs, realize_real, tensor_mhs
from .scalars import ZERO, Scalar
from .splitting import delta_operator


class TwoTermComplex:
    """Matrix of d + Omega between monomial-labeled invariant bases.

    Domain labels are (graded index, a, b) for v t1^a t2^b; codomain labels
    are (graded index, a, b, slot) with slot 1 for dt1 and 2 for dt2.
    """

    __slots__ = ("domain_labels", "codomain_labels", "matrix")

    def __init__(self, domain_labels, codomain_labels, matrix):
        if matrix.nrows != len(codomain_labels) or (
            matrix.nrows and matrix.ncols != len(domain_labels)
        ):
            raise ValueError("matrix shape does not match the labeled bases")
        object.__setattr__(self, "domain_labels", tuple(domain_labels))
        object.__setattr__(self, "codomain_labels", tuple(codomain_labels))
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("TwoTermComplex is immutable")

    def cohomology_dims(self):
        rank = self.matrix.rank()
        return (len(self.domain_labels) - rank, len(self.codomain_labels) - rank)


def invariant_complex(C):
    """The invariant two-term complex of an admissible connection."""
    hodge = C.hodge
    owner = hodge.block_of_index()
    n = hodge.dim
    dom = []
    for i in range(n):
        p, q = owner[i]
        if p <= 0 and q <= 0:
            dom.append((i, -p, -q))
    cod = []
    for i in range(n):
        p, q = owner[i]
        if p <= -1 and q <= 0:
            cod.append((i, -p - 1, -q, 1))
    for i in range(n):
        p, q = owner[i]
        if p <= 0 and q <= -1:
            cod.append((i, -p, -q - 1, 2))
    cod_index = {lab: r for r, lab in enumerate(cod)}
    rows = [[ZERO] * len(dom) for _ in cod]
    for col, (i, a, b) in enumerate(dom):
        # exterior derivative of v t1^a t2^b
        if a > 0:
            r = cod_index[(i, a - 1, b, 1)]
            rows[r][col] = rows[r][col] + Scalar(a)
        if b > 0:
            r = cod_index[(i, a, b - 1, 2)]
            rows[r][col] = rows[r][col] + Scalar(b)
        # Omega s: A block of bidegree (-r, -s) sends the monomial to
        # t1^{a+r-1} t2^{b+s} dt1, and B to t1^{a+r} t2^{b+s-1} dt2
        for (rr, ss), M in C.A.items():
            for j in range(n):
                if M[j, i]:
                    r = cod_index[(j, a + rr - 1, b + ss, 1)]
                    rows[r][col] = rows[r][col] + M[j, i]
        for (rr, ss), M in C.B.items():
            for j in range(n):
                if M[j, i]:
                    r = cod_index[(j, a + rr, b + ss - 1, 2)]
                    rows[r][col] = rows[r][col] + M[j, i]
    return TwoTermComplex(dom, cod, Matrix(rows))


def hom_from_unit(V):
    """dim of morphisms from the unit structure, the Ext^0 oracle."""
    return V.W.at(0).intersect(V.Fp.at(0)).intersect(V.Fpp.at(0)).dim


def absolute_cohomology(gr):
    """(dim Ext^0, dim Ext^1) from the unit structure into the validated
    structure gr.V."""
    C = connection_from_delta(delta_operator(gr))
    ext0, ext1 = invariant_complex(C).cohomology_dims()
    assert ext0 == hom_from_unit(gr.V), "complex kernel disagrees with Hom"
    return (ext0, ext1)


def rhom(Vsource, Vtarget):
    """(dim Ext^0, dim Ext^1) between two structures, reduced to the
    absolute cohomology of dual(source) tensor target."""
    return absolute_cohomology(GrStructure(tensor_mhs(dual_mhs(Vsource), Vtarget)))


def _conjugation_on_graded(gr):
    """Matrix S of entrywise conjugation on the canonical graded basis of a
    validated self-conjugate structure; maps the (p, q) block to the (q, p)
    block and satisfies S conj(S) = 1."""
    n = gr.hodge.dim
    cols = []
    for (p, q), off, h in gr.hodge.blocks():
        chart = gr.charts[p + q]
        for row in gr.block_rows[(p, q)]:
            v = chart.lift(row)
            w = tuple(x.conjugate() for x in v)
            cols.append(gr.gr_coords(w, p + q))
    S = Matrix.from_columns(cols)
    assert S @ S.conjugate() == Matrix.identity(n), "conjugation is not an involution"
    return S


def _real_fixed_subspace(R):
    """Fixed vectors of x -> R conj(x) as a rational subspace of Q^{2n}
    under the realification x = u + i w -> (u, w)."""
    n = R.nrows
    re = [[R[i, j].re for j in range(n)] for i in range(n)]
    im = [[R[i, j].im for j in range(n)] for i in range(n)]
    # sigma(u, w) = (Re R u + Im R w, Im R u - Re R w)
    rows = []
    for i in range(n):
        rows.append(
            [Scalar(x) for x in re[i]] + [Scalar(x) for x in im[i]]
        )
    for i in range(n):
        rows.append(
            [Scalar(x) for x in im[i]] + [Scalar(-x) for x in re[i]]
        )
    sigma = Matrix(rows)
    return Subspace.from_rows(
        2 * n, (sigma - Matrix.identity(2 * n)).right_kernel().rows
    )


def _realify_map(M):
    r, c = M.shape
    rows = []
    for i in range(r):
        rows.append(
            [M[i, j].re for j in range(c)] + [-M[i, j].im for j in range(c)]
        )
    for i in range(r):
        rows.append(
            [M[i, j].im for j in range(c)] + [M[i, j].re for j in range(c)]
        )
    return Matrix(rows)


def real_absolute_cohomology(V):
    """(dim_Q Ext^0, dim_Q Ext^1) of a rational structure.

    The conjugation acts on the plane by swapping the coordinates, hence on
    the invariant complex by swapping monomial labels (a, b) <-> (b, a) and
    the two 1-form slots, entrywise-conjugated through the graded pieces.
    """
    gr = GrStructure(realize_real(V))
    S = _conjugation_on_graded(gr)
    cx = invariant_complex(connection_from_delta(delta_operator(gr)))
    dom = cx.domain_labels
    cod = cx.codomain_labels
    dom_index = {lab: i for i, lab in enumerate(dom)}
    cod_index = {lab: i for i, lab in enumerate(cod)}
    n = gr.hodge.dim
    # antilinear action x -> R conj(x) on domain and codomain
    Rdom = [[ZERO] * len(dom) for _ in dom]
    for col, (i, a, b) in enumerate(dom):
        for j in range(n):
            if S[j, i]:
                Rdom[dom_index[(j, b, a)]][col] = S[j, i]
    Rcod = [[ZERO] * len(cod) for _ in cod]
    for col, (i, a, b, slot) in enumerate(cod):
        for j in range(n):
            if S[j, i]:
                Rcod[cod_index[(j, b, a, 3 - slot)]][col] = S[j, i]
    Rdom = Matrix(Rdom)
    Rcod = Matrix(Rcod)
    M = cx.matrix
    fix_dom = _real_fixed_subspace(Rdom)
    fix_cod = _real_fixed_subspace(Rcod)
    assert fix_dom.dim == len(dom) and fix_cod.dim == len(cod)
    if not dom or not cod:
        return (fix_dom.dim, fix_cod.dim)
    # the complex must be conjugation-equivariant
    assert Rcod @ M.conjugate() == M @ Rdom, "complex is not conjugation-stable"
    MR = _realify_map(M)
    images = fix_dom.basis @ MR.transpose()
    restricted = []
    for row in images.rows:
        coords = solve_left(fix_cod.basis, row)
        assert coords is not None, "image left the fixed subspace"
        restricted.append(coords)
    rank = Matrix(restricted).rank()
    return (fix_dom.dim - rank, fix_cod.dim - rank)
