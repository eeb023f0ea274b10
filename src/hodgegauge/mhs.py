"""Filtrations, complex and real mixed Hodge structures, tensor operations.

A complex mixed Hodge structure is a triple of filtrations (W increasing,
F' and F'' decreasing) on K^n whose triple-graded pieces vanish off the
diagonal n = p + q.  All filtration steps are canonical subspaces, so
structural equality of structures is decidable bit-for-bit.
"""

from __future__ import annotations

from .linalg import DimensionMismatch, Matrix, Quotient, Subspace, solve_left
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
    for increasing, zero for decreasing).
    """

    __slots__ = ("direction", "n", "steps")

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

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def jumps(self):
        return sorted(self.steps)

    def min_index(self):
        return min(self.steps) if self.steps else 0

    def max_index(self):
        return max(self.steps) if self.steps else 0

    def at(self, k):
        below = [j for j in self.steps if j <= k]
        if not below:
            if self.direction == self.INC:
                return Subspace.zero(self.n)
            return Subspace.full(self.n)
        return self.steps[max(below)]

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

    def map(self, f):
        """Entrywise image filtration under v |-> f @ v."""
        return Filtration(
            self.direction,
            f.nrows,
            {k: sub.apply(f) for k, sub in self.steps.items()},
        )

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


def _index_range(filt):
    js = filt.jumps()
    if not js:
        return []
    return list(range(js[0], js[-1] + 1))


class GrStructure:
    """A validated structure with canonical bases of its bigraded pieces.

    One pass over the weights checks the three filtrations and opposedness
    and records the graded data on the way: for each weight n a quotient
    chart W_n / W_{n-1}, and inside it the piece at (p, q), the intersection
    of the projected F'^p and F''^q.  Pieces are ordered by (weight, p);
    their echelon bases concatenate to the canonical basis of the total
    graded space.  Raises FiltrationError or OpposednessViolation (at the
    first bad piece) on an invalid structure.
    """

    def __init__(self, V):
        V.W.validate()
        V.Fp.validate()
        V.Fpp.validate()
        # a nonzero weight chart implies a nonzero space, so after the
        # checks above F' and F'' have steps wherever a chart is built
        ps = _index_range(V.Fp)
        qs = _index_range(V.Fpp)
        self.V = V
        self.charts = {}
        counts = {}
        spans = {}
        violations = []
        for n in _index_range(V.W):
            Wn = V.W.at(n)
            Wn1 = V.W.at(n - 1)
            if Wn == Wn1:
                continue
            chart = Quotient(Wn, Wn1)
            self.charts[n] = chart
            A = {p: chart.project_subspace(V.Fp.at(p)) for p in ps + [ps[-1] + 1]}
            B = {q: chart.project_subspace(V.Fpp.at(q)) for q in qs + [qs[-1] + 1]}
            for p in ps:
                if A[p] == A[p + 1]:
                    continue
                R = Quotient(A[p], A[p + 1])
                dims = {q: R.project_subspace(B[q]).dim for q in B}
                for q in qs:
                    h = dims[q] - dims[q + 1]
                    if not h:
                        continue
                    if p + q != n:
                        violations.append((n, p, q, h))
                    else:
                        counts[(p, q)] = h
                        spans[(p, q)] = (A[p], B[q])
        if violations:
            violations.sort()
            raise OpposednessViolation(*violations[0])
        self.hodge = HodgeNumbers(counts)
        if self.hodge.dim != V.n:
            raise OpposednessViolation(0, 0, 0, V.n - self.hodge.dim)
        self.block_rows = {}
        for pq, (a, b) in spans.items():
            piece = a.intersect(b)
            assert piece.dim == counts[pq], "graded piece dimension drifted"
            self.block_rows[pq] = piece.basis.rows
        # the pieces of one weight are consecutive in the canonical basis
        self._weights = {}
        for (p, q), off, h in self.hodge.blocks():
            self._weights.setdefault(p + q, (off, []))[1].extend(
                self.block_rows[(p, q)]
            )

    def gr_coords(self, v, n):
        """Coordinates of v + W_{n-1} (v in W_n) in the total canonical basis."""
        off, rows = self._weights[n]
        local = solve_left(Matrix(rows), self.charts[n].project_vector(v))
        if local is None:
            raise ValueError("vector does not project into the graded pieces")
        out = [ZERO] * self.hodge.dim
        out[off : off + len(local)] = local
        return tuple(out)


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
