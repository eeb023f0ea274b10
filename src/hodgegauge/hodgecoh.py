"""Absolute Hodge cohomology from the invariant two-term de Rham complex.

For the canonical connection of a structure, the torus-invariant global
sections and 1-forms on the plane are finite dimensional: a graded piece of
bidegree (-a, -b) pairs with the monomial t1^a t2^b.  The map s |-> ds +
Omega s is a single matrix whose kernel and cokernel compute Ext^0 and
Ext^1 from the unit structure; everything in degree >= 2 vanishes.

The real theory is the fixed part under the conjugation that swaps the two
coordinates of the plane; as W is rational, it acts on the canonical graded
bases as the block permutation (p, q) <-> (q, p).  On a conjugation-stable
complex that conjugation is an antilinear involution, whose fixed parts are
Q-forms of domain and codomain; kernel and image descend with them (Galois
descent; Serre, Local Fields, ch. X §2).  So the rational dimensions are the complex ones of
realize_real(V), once stability is checked block by block.
"""

from __future__ import annotations

from .connection import connection_from_delta
from .linalg import InvariantError, Matrix
from .mhs import GrStructure, realize_real
from .scalars import ZERO, Scalar, Value
from .splitting import block_permutation, delta_operator


class TwoTermComplex(Value):
    """Matrix of d + Omega between monomial-labeled invariant bases.

    Domain labels are (graded index, a, b) for v t1^a t2^b; codomain labels
    are (graded index, a, b, slot) with slot 1 for dt1 and 2 for dt2.
    """

    __slots__ = ("domain_labels", "codomain_labels", "matrix")

    def __init__(self, domain_labels, codomain_labels, matrix):
        if matrix.shape != (len(codomain_labels), len(domain_labels)):
            raise ValueError("matrix shape does not match the labeled bases")
        object.__setattr__(self, "domain_labels", tuple(domain_labels))
        object.__setattr__(self, "codomain_labels", tuple(codomain_labels))
        object.__setattr__(self, "matrix", matrix)

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
    halves = ((1, 1, 0, C.A), (2, 0, 1, C.B))  # slot, exponent drops, blocks
    cod = []
    for slot, da, db, _ in halves:
        for i in range(n):
            p, q = owner[i]
            if p <= -da and q <= -db:
                cod.append((i, -p - da, -q - db, slot))
    cod_index = {lab: r for r, lab in enumerate(cod)}
    rows = [[ZERO] * len(dom) for _ in cod]
    for col, (i, a, b) in enumerate(dom):
        for slot, da, db, blocks in halves:
            # d(v t1^a t2^b), then Omega s: a block of bidegree (-r, -s)
            # sends the monomial to t1^{a+r-da} t2^{b+s-db} dt_slot
            e = da * a + db * b
            if e > 0:
                r = cod_index[(i, a - da, b - db, slot)]
                rows[r][col] = rows[r][col] + Scalar(e)
            for (rr, ss), M in blocks.items():
                for j in range(n):
                    if M[j, i]:
                        r = cod_index[(j, a + rr - da, b + ss - db, slot)]
                        rows[r][col] = rows[r][col] + M[j, i]
    return TwoTermComplex(dom, cod, Matrix._of(tuple(map(tuple, rows)), len(dom)))


def hom_from_unit(V):
    """dim of morphisms from the unit structure, the Ext^0 oracle."""
    return V.W.at(0).intersect(V.Fp.at(0)).intersect(V.Fpp.at(0)).dim


def absolute_cohomology(gr):
    """(dim Ext^0, dim Ext^1) from the unit structure into the validated
    structure gr.V."""
    C = connection_from_delta(delta_operator(gr))
    ext0, ext1 = invariant_complex(C).cohomology_dims()
    if ext0 != hom_from_unit(gr.V):
        raise InvariantError("complex kernel disagrees with Hom")
    return (ext0, ext1)


def real_absolute_cohomology(V):
    """(dim_Q Ext^0, dim_Q Ext^1) of a rational structure.

    The conjugation swaps the monomial labels (a, b) <-> (b, a) and the two
    1-form slots, through x -> S conj(x) on the graded pieces; the complex
    commutes with it exactly when A_{p,q} = S conj(B_{q,p}) S.  W is
    rational, so conjugation acts entrywise on adapted coordinates and keeps
    echelon forms reduced: it carries the canonical basis of the (p, q)
    graded piece onto that of the (q, p) one (checked), and S is the block
    permutation.
    """
    gr = GrStructure(realize_real(V))
    for (p, q), rows in gr.block_rows.items():
        if gr.block_rows.get((q, p)) != tuple(
                (re, im and tuple(-x for x in im)) for re, im in rows):
            raise InvariantError("conjugation does not swap the graded bases "
                                 "at %r" % ((p, q),))
    S = block_permutation(gr.hodge)
    C = connection_from_delta(delta_operator(gr))
    zero = Matrix.zeros(gr.hodge.dim, gr.hodge.dim)
    for p, q in set(C.A) | {(q, p) for p, q in C.B}:
        if S @ C.B.get((q, p), zero).conjugate() @ S != C.A.get((p, q), zero):
            raise InvariantError("connection is not conjugation-stable")
    return invariant_complex(C).cohomology_dims()
