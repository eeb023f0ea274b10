"""Absolute Hodge cohomology from the invariant two-term de Rham complex.

For the canonical connection of a structure, the torus-invariant global
sections and 1-forms on the plane are finite dimensional: a graded piece of
bidegree (-a, -b) pairs with the monomial t1^a t2^b.  The map s |-> ds -
Omega s of d - Omega is one matrix whose kernel and cokernel compute Ext^0
and Ext^1 from the unit structure; everything in degree >= 2 vanishes.

The real theory is the fixed part under the conjugation that swaps the two
coordinates of the plane; as W is rational, it acts on the canonical graded
bases as the block swap (p, q) <-> (q, p).  On a conjugation-stable
complex that conjugation is an antilinear involution, whose fixed parts are
Q-forms of domain and codomain; kernel and image descend with them (Galois
descent; Serre, Local Fields, ch. X §2).  So the rational dimensions are the
complex ones of realize_real(V), once stability is checked entry by entry.
"""

from __future__ import annotations

from .connection import connection_from_delta
from .linalg import InvariantError, Matrix
from .mhs import GrStructure, realize_real
from .scalars import ZERO, Scalar, Value
from .splitting import delta_operator


class TwoTermComplex(Value):
    """Matrix of d - Omega between monomial-labeled invariant bases.

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
    """The invariant two-term complex of an admissible connection.

    A label is fixed by its graded index and slot, so each entry of d -
    Omega is written once, at the row and column of its indices."""
    owner = C.hodge.block_of_index()
    col = {i: c for c, i in enumerate(
        i for i, (p, q) in enumerate(owner) if p <= 0 and q <= 0)}
    dom = [(i, -owner[i][0], -owner[i][1]) for i in col]
    cod, rows = [], []
    for slot, da, db, X in ((1, 1, 0, C.P), (2, 0, 1, C.Q)):
        row = {}  # graded index -> row
        for i, (p, q) in enumerate(owner):
            if p <= -da and q <= -db:
                row[i] = len(cod)
                cod.append((i, -p - da, -q - db, slot))
                rows.append([ZERO] * len(dom))
                rows[-1][col[i]] = Scalar(-da * p - db * q)
        for j, entries in enumerate(X.rows):
            for i, x in enumerate(entries):
                if x and i in col:
                    rows[row[j]][col[i]] = -x
    return TwoTermComplex(dom, cod, Matrix._of(tuple(map(tuple, rows)), len(dom)))


def _block_swap(hodge):
    """The index s(i) of the (q, p) block that conjugation sends index i of
    the (p, q) block to, at the same place in its block, for every i."""
    offset = {pq: off for pq, off, _ in hodge.blocks()}
    return [offset[q, p] + i - offset[p, q]
            for i, (p, q) in enumerate(hodge.block_of_index())]


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
    commutes with it exactly when A_{p,q} = S conj(B_{q,p}) S, that is
    A_{p,q}[i,j] = conj B_{q,p}[s(i), s(j)], on the values at (1, 1) A[i,j]
    = conj B[s(i), s(j)].  W is
    rational, so conjugation acts entrywise on adapted coordinates and keeps
    echelon forms reduced: it carries the canonical basis of the (p, q)
    graded piece onto that of the (q, p) one (checked), and S permutes by
    the block swap s.
    """
    gr = GrStructure(realize_real(V))
    for (p, q), rows in gr.block_rows.items():
        if gr.block_rows.get((q, p)) != tuple(
                (re, im and tuple(-x for x in im)) for re, im in rows):
            raise InvariantError("conjugation does not swap the graded bases "
                                 "at %r" % ((p, q),))
    s = _block_swap(gr.hodge)
    C = connection_from_delta(delta_operator(gr))
    if any(x != C.Q.rows[s[i]][s[j]].conjugate()
           for i, row in enumerate(C.P.rows) for j, x in enumerate(row)):
        raise InvariantError("connection is not conjugation-stable")
    return invariant_complex(C).cohomology_dims()
