"""Filtrations, complex and real mixed Hodge structures, tensor operations.

A complex mixed Hodge structure is a triple of filtrations (W increasing,
F' and F'' decreasing) on K^n whose triple-graded pieces vanish off the
diagonal n = p + q.  All filtration steps are canonical subspaces, so
structural equality of structures is decidable bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right

from .linalg import (
    DimensionMismatch,
    InvariantError,
    Matrix,
    Subspace,
)
from .scalars import ZERO


class FiltrationError(ValueError):
    """Monotonicity / exhaustiveness violated."""


class OpposednessViolation(ValueError):
    """A forbidden triple-graded piece is nonzero."""

    def __init__(self, weight, p, q, h):
        self.weight = weight
        self.p = p
        self.q = q
        self.h = h
        super().__init__(
            "nonzero gr piece h=%d at weight %d, (p,q)=(%d,%d) != weight"
            % (h, weight, p, q)
        )


class Filtration:
    """Sparse filtration: stored jumps plus constant extension outside.

    Increasing filtrations are 0 below the stored range; decreasing ones are
    the full space below it.  Above the stored range the last stored value
    persists, so constructors should include the terminal step (full space
    for increasing, zero for decreasing).  ``at`` bisects the sorted indices.
    """

    __slots__ = ("direction", "n", "steps", "_keys", "_below")

    INC = "inc"
    DEC = "dec"

    def __init__(self, direction, n, steps):
        if direction not in (self.INC, self.DEC):
            raise ValueError("direction must be 'inc' or 'dec'")
        steps = dict(steps)
        for k, sub in steps.items():
            if sub.n != n:
                raise DimensionMismatch("step %d has ambient %d != %d" % (k, sub.n, n))
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_keys", tuple(sorted(steps)))
        object.__setattr__(self, "_below", Subspace.zero(n)
                           if direction == self.INC else Subspace.full(n))

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def jumps(self):
        return list(self._keys)

    def min_index(self):
        return self._keys[0] if self._keys else 0

    def max_index(self):
        return self._keys[-1] if self._keys else 0

    def at(self, k):
        i = bisect_right(self._keys, k)
        return self.steps[self._keys[i - 1]] if i else self._below

    def validate(self):
        js = self.jumps()
        for a, b in zip(js, js[1:]):
            lo, hi = self.steps[a], self.steps[b]
            if self.direction == self.INC:
                if not hi.contains(lo):
                    raise FiltrationError("not increasing at %d -> %d" % (a, b))
            else:
                if not lo.contains(hi):
                    raise FiltrationError("not decreasing at %d -> %d" % (a, b))
        if js:
            top = self.steps[js[-1]]
            if self.direction == self.INC and top != Subspace.full(self.n):
                raise FiltrationError("increasing filtration does not exhaust")
            if self.direction == self.DEC and top.dim != 0:
                raise FiltrationError("decreasing filtration is not separated")
        elif self.n != 0:
            raise FiltrationError("empty filtration on nonzero space")

    def conjugate(self):
        return Filtration(
            self.direction, self.n, {k: s.conjugate() for k, s in self.steps.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        if (self.direction, self.n) != (other.direction, other.n):
            return False
        ks = set(self.steps) | set(other.steps)
        return all(self.at(k) == other.at(k) for k in ks)

    def __repr__(self):
        return "Filtration(%s, n=%d, jumps=%r)" % (
            self.direction,
            self.n,
            self.jumps(),
        )


class HodgeNumbers:
    """Finite map (p, q) -> h^{p,q} with the canonical block order."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = {k: int(v) for k, v in counts.items() if v}
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative hodge number")
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("HodgeNumbers is immutable")

    @property
    def dim(self):
        return sum(self.counts.values())

    def blocks(self):
        """Canonical ordering: by weight p+q, then p, with offsets."""
        order = sorted(self.counts, key=lambda pq: (pq[0] + pq[1], pq[0]))
        out = []
        off = 0
        for pq in order:
            h = self.counts[pq]
            out.append((pq, off, h))
            off += h
        return out

    def block_of_index(self):
        """The (p, q) of each basis index, in the canonical block order."""
        return [pq for pq, _, h in self.blocks() for _ in range(h)]

    def weights(self):
        return sorted({p + q for (p, q) in self.counts})

    def transpose(self):
        return HodgeNumbers({(q, p): h for (p, q), h in self.counts.items()})

    def __eq__(self, other):
        if not isinstance(other, HodgeNumbers):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self):
        return "HodgeNumbers(%r)" % (self.counts,)


class ComplexMHS:
    """Triple (W, F', F'') of filtrations on K^n, K = Q(i)."""

    __slots__ = ("n", "W", "Fp", "Fpp")

    def __init__(self, n, W, Fp, Fpp):
        for f, d in ((W, Filtration.INC), (Fp, Filtration.DEC), (Fpp, Filtration.DEC)):
            if f.n != n:
                raise DimensionMismatch("filtration ambient mismatch")
            if f.direction != d:
                raise FiltrationError("wrong filtration direction")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Fp", Fp)
        object.__setattr__(self, "Fpp", Fpp)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMHS is immutable")

    def __eq__(self, other):
        if not isinstance(other, ComplexMHS):
            return NotImplemented
        return (
            self.n == other.n
            and self.W == other.W
            and self.Fp == other.Fp
            and self.Fpp == other.Fpp
        )

    def __repr__(self):
        return "ComplexMHS(n=%d)" % (self.n,)


class RealMHS:
    """Rational W on Q^n together with F on Q(i)^n; F'' is conj(F)."""

    __slots__ = ("n", "W", "F")

    def __init__(self, n, W, F):
        if W.n != n or F.n != n:
            raise DimensionMismatch("filtration ambient mismatch")
        if W.direction != Filtration.INC or F.direction != Filtration.DEC:
            raise FiltrationError("wrong filtration direction")
        for sub in W.steps.values():
            for row in sub.basis.rows:
                if any(not x.in_field("Q") for x in row):
                    raise FiltrationError("weight filtration must be rational")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "F", F)

    def __setattr__(self, name, value):
        raise AttributeError("RealMHS is immutable")


def piece_dimensions(Fp, Fpp):
    """({(p, q): h}, {(p, q): F'^p ∩ F''^q}) for a simultaneous bigrading
    of two decreasing filtrations of one space: h is the double difference
    of dim(F'^p ∩ F''^q), over indices from one below each first jump
    (where a filtration is the full space) to the last.  The pieces of two
    separated filtrations sum to the whole space.  Validation builds this
    grid only to name a witness (GrStructure); the Rees line types read it."""
    if not Fp.steps or not Fpp.steps:
        return {}, {}
    ps = range(Fp.min_index() - 1, Fp.max_index() + 2)
    qs = range(Fpp.min_index() - 1, Fpp.max_index() + 2)
    cap = {(p, q): Fp.at(p).intersect(Fpp.at(q)) for p in ps for q in qs}
    out = {}
    for p in ps[:-1]:
        for q in qs[:-1]:
            h = (cap[p, q].dim - cap[p + 1, q].dim - cap[p, q + 1].dim
                 + cap[p + 1, q + 1].dim)
            if h:
                out[(p, q)] = h
    return out, cap


def _splits(A, B, d):
    """Whether K^d = A ⊕ B, for subspaces A and B of K^d."""
    if A.dim + B.dim != d or not A.dim or not B.dim:
        return A.dim + B.dim == d
    return Matrix._of(A.basis.rows + B.basis.rows, d).rank() == d


def _chart(sub, lo, hi):
    # the rows of an adapted echelon basis vanishing before lo lie in W_n;
    # the [lo:hi] slices of those nonzero there are again in echelon form
    rows = tuple(r[lo:hi] for r in sub.basis.rows if not any(r[:lo]) and any(r[lo:hi]))
    return Subspace(hi - lo, Matrix._of(rows, hi - lo))


class AdaptedTriple:
    """A filtered triple (W, F', F'') read in one W-adapted basis.

    The rows of ``basis`` are, for each weight n from the top down, the rows
    of W_n's echelon basis outside the span of W_{n-1} and the rows before
    them, picked by one elimination of the stacked W steps.  Columns
    cols[n] = (lo, hi) chart Gr^W_n, and W_n is spanned by the unit vectors
    from lo on.  Each F' and F'' step is eliminated once in these
    coordinates (``F``); as the columns run from the top weight down, the
    rows of its echelon basis vanishing before lo span its intersection
    with W_n.  ``graded`` lists, by increasing weight n, (n, the images of
    F' and F'' in the chart) and no pieces: validation reads only their
    diagonal, and piece_dimensions(fp, fpp) is the grid.  Nothing here
    assumes opposedness; a filtration that is not monotone or not
    exhaustive raises FiltrationError.
    """

    def __init__(self, V):
        V.W.validate()
        V.Fp.validate()
        V.Fpp.validate()
        self.V = V
        rows = tuple((k, r) for k in V.W.jumps() for r in V.W.steps[k].basis.rows)
        blocks = {}
        for c in Matrix._of(tuple(r for _, r in rows), V.n).transpose().rref()[1]:
            blocks.setdefault(rows[c][0], []).append(rows[c][1])
        basis = []
        self.cols = {}
        for n in sorted(blocks, reverse=True):
            self.cols[n] = (len(basis), len(basis) + len(blocks[n]))
            basis.extend(blocks[n])
        self.basis = Matrix._of(tuple(basis), V.n)
        inv = self.basis.inverse()
        # zero and the full space read the same in every basis
        self.F = {side: Filtration(Filtration.DEC, V.n, {
            k: s if s.dim in (0, V.n) else Subspace._span(s.basis @ inv)
            for k, s in getattr(V, side).steps.items()
        }) for side in ("Fp", "Fpp")}
        self.graded = []
        for n, (lo, hi) in sorted(self.cols.items()):
            fp, fpp = (
                Filtration(Filtration.DEC, hi - lo, {
                    k: _chart(s, lo, hi) for k, s in self.F[side].steps.items()
                })
                for side in ("Fp", "Fpp")
            )
            self.graded.append((n, fp, fpp))

    def in_w(self, sub, k):
        """The rows of an adapted echelon basis that span its part in W_k."""
        lo = min((lo for n, (lo, _) in self.cols.items() if n <= k), default=self.V.n)
        return tuple(r for r in sub.basis.rows if not any(r[:lo]))


class GrStructure(AdaptedTriple):
    """A validated structure with canonical bases of its bigraded pieces.

    Two finite decreasing filtrations of Gr^W_n are n-opposed if and only if
    Gr^W_n = F'^p ⊕ F''^(n+1-p) for every p, and then the only pieces are
    I^(p,n-p) = F'^p ∩ F''^(n-p) (Deligne, Théorie de Hodge II, §1.2).  So
    the charts, by increasing weight, are checked and cut on that diagonal
    alone.  At the first weight that fails, the grid of piece_dimensions
    names its smallest off-diagonal piece (OpposednessViolation), which is
    the smallest of the structure.  Pieces are ordered by (weight, p); their
    echelon bases concatenate to the canonical basis of the total graded
    space.
    """

    def __init__(self, V):
        super().__init__(V)
        counts, self.block_rows = {}, {}
        for n, fp, fpp in self.graded:
            # below this range F'^p is the chart and F''^(n+1-p) zero, above
            # it the other way round, so the check can fail only inside it
            ps = range(min(fp.min_index(), n + 1 - fpp.max_index()),
                       max(fp.max_index(), n + 1 - fpp.min_index()) + 1)
            if not all(_splits(fp.at(p), fpp.at(n + 1 - p), fp.n) for p in ps):
                dims = piece_dimensions(fp, fpp)[0]
                raise OpposednessViolation(*min(
                    (n, p, q, h) for (p, q), h in dims.items() if p + q != n))
            filled = 0
            for p in ps:
                piece = fp.at(p).intersect(fpp.at(n - p))
                if piece.dim:
                    counts[p, n - p] = piece.dim
                    self.block_rows[p, n - p] = piece.basis.rows
                    filled += piece.dim
            # the pieces of one weight are consecutive in the canonical
            # basis, and their rows together are a basis of its chart
            if filled != fp.n:
                raise InvariantError("graded pieces of weight %d do not fill "
                                     "its chart" % n)
        self.hodge = HodgeNumbers(counts)


def validate_mhs(V):
    """Hodge numbers of V, or raise OpposednessViolation at the first bad piece.

    Monotonicity of the three filtrations is checked first.
    """
    return GrStructure(V).hodge


def pure(p, q):
    """One-dimensional pure structure P(p, q)."""
    n = 1
    full = Subspace.full(1)
    zero = Subspace.zero(1)
    W = Filtration(Filtration.INC, n, {p + q: full})
    Fp = Filtration(Filtration.DEC, n, {p: full, p + 1: zero})
    Fpp = Filtration(Filtration.DEC, n, {q: full, q + 1: zero})
    return ComplexMHS(n, W, Fp, Fpp)


def conjugate_mhs(V):
    """Conjugate structure: entrywise-conjugated bases with F' and F'' swapped."""
    return ComplexMHS(
        V.n, V.W.conjugate(), V.Fpp.conjugate(), V.Fp.conjugate()
    )


def realize_real(V):
    """ComplexMHS (W (x) Q(i), F, conj F) of a real structure, unvalidated."""
    return ComplexMHS(V.n, V.W, V.F, V.F.conjugate())


def _tensor_filtration(f, g, kind):
    n = f.n * g.n
    steps = {}
    if kind == "dec":
        lo = f.min_index() + g.min_index()
        hi = f.max_index() + g.max_index()
        for k in range(lo, hi + 1):
            rows = []
            for a in range(f.min_index(), f.max_index() + 1):
                b = k - a
                Fa = f.at(a)
                Gb = g.at(b)
                sub = Fa.tensor(Gb)
                rows.extend(sub.basis.rows)
            steps[k] = Subspace.from_rows(n, rows)
        steps[hi + 1] = Subspace.zero(n)
        return Filtration(Filtration.DEC, n, steps)
    lo = f.min_index() + g.min_index()
    hi = f.max_index() + g.max_index()
    for k in range(lo - 1, hi + 1):
        rows = []
        for a in range(f.min_index() - 1, f.max_index() + 1):
            b = k - a
            sub = f.at(a).tensor(g.at(b))
            rows.extend(sub.basis.rows)
        steps[k] = Subspace.from_rows(n, rows)
    return Filtration(Filtration.INC, n, steps)


def tensor_mhs(V, Vp):
    return ComplexMHS(
        V.n * Vp.n,
        _tensor_filtration(V.W, Vp.W, "inc"),
        _tensor_filtration(V.Fp, Vp.Fp, "dec"),
        _tensor_filtration(V.Fpp, Vp.Fpp, "dec"),
    )


def _dual_filtration(f):
    steps = {}
    if f.direction == Filtration.DEC:
        # (F*)^p = annihilator of F^{1-p}
        lo, hi = f.min_index(), f.max_index()
        for p in range(1 - hi, 1 - lo + 2):
            steps[p] = f.at(1 - p).annihilator()
        return Filtration(Filtration.DEC, f.n, steps)
    lo, hi = f.min_index(), f.max_index()
    for k in range(-hi - 1, -lo + 1):
        steps[k] = f.at(-k - 1).annihilator()
    return Filtration(Filtration.INC, f.n, steps)


def dual_mhs(V):
    return ComplexMHS(
        V.n,
        _dual_filtration(V.W),
        _dual_filtration(V.Fp),
        _dual_filtration(V.Fpp),
    )


def _sum_filtration(f, g):
    n = f.n + g.n
    keys = sorted(set(f.jumps()) | set(g.jumps()))
    steps = {}
    for k in keys:
        rows = []
        for row in f.at(k).basis.rows:
            rows.append(tuple(row) + (ZERO,) * g.n)
        for row in g.at(k).basis.rows:
            rows.append((ZERO,) * f.n + tuple(row))
        steps[k] = Subspace.from_rows(n, rows)
    return Filtration(f.direction, n, steps)


def direct_sum_mhs(V, Vp):
    return ComplexMHS(
        V.n + Vp.n,
        _sum_filtration(V.W, Vp.W),
        _sum_filtration(V.Fp, Vp.Fp),
        _sum_filtration(V.Fpp, Vp.Fpp),
    )


def validate_morphism(f, V, Vp):
    """True iff the matrix f (n' x n) preserves all three filtrations."""
    if f.ncols != V.n or f.nrows != Vp.n:
        raise DimensionMismatch(
            "morphism shape %r for %d -> %d" % (f.shape, V.n, Vp.n)
        )
    for src, dst in ((V.W, Vp.W), (V.Fp, Vp.Fp), (V.Fpp, Vp.Fpp)):
        keys = set(src.jumps()) | set(dst.jumps())
        for k in keys:
            if not dst.at(k).contains(src.at(k).apply(f)):
                return False
    return True
