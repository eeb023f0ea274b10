"""Filtrations, complex and real mixed Hodge structures, tensor operations.

A complex mixed Hodge structure is a triple of filtrations (W increasing,
F' and F'' decreasing) on K^n whose triple-graded pieces vanish off the
diagonal n = p + q.  All filtration steps are canonical subspaces, so
structural equality of structures is decidable bit-for-bit.  Every basis
here (of a step, adapted to a flag, of a graded piece) is a list of
integer rows, as ``linalg`` describes them; the W rows of an adapted basis
fix coordinates, so ``AdaptedTriple.basis`` reads them as Scalars.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice

from .linalg import (
    _NO_IM,
    DimensionMismatch,
    Matrix,
    Subspace,
    _cut,
    _echelon,
    _over_pivot,
    _pick,
    _position,
    _reduce,
    _scalars,
    _solve,
    _units,
)
from .scalars import Value


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


class Filtration(Value):
    """Sparse filtration: stored jumps plus constant extension outside.

    Increasing filtrations are 0 below the stored range; decreasing ones are
    the full space below it.  Above the stored range the last stored value
    persists, so constructors should include the terminal step (full space
    for increasing, zero for decreasing).  ``at`` bisects the sorted indices.
    """

    __slots__ = ("direction", "n", "steps", "_keys")

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

    def jumps(self):
        return list(self._keys)

    def min_index(self):
        return self._keys[0] if self._keys else 0

    def max_index(self):
        return self._keys[-1] if self._keys else 0

    def at(self, k):
        i = bisect_right(self._keys, k)
        if i:
            return self.steps[self._keys[i - 1]]
        if self.direction == self.INC:
            return Subspace.zero(self.n)
        return Subspace.full(self.n)

    @classmethod
    def from_basis(cls, direction, n, basis):
        """The flag a basis of (level, row) pairs is adapted to, the inverse
        of ``validate``: an increasing flag has a step at each level k,
        spanned by the rows of level <= k; a decreasing one has a step at
        each p from the least level to one past the greatest, spanned by the
        rows of level >= p.  The rows are integer rows of length n.
        """
        inc = direction == cls.INC
        levels = sorted({level for level, _ in basis}, reverse=not inc)
        if levels and not inc:
            # every p in the range: ``at`` reads a missing p off the step
            # below it, which also holds the rows of level p - 1
            levels = range(levels[0] + 1, levels[-1] - 1, -1)
        # innermost first: each step spans the one inside it and its level
        steps, rows = {}, ()
        for k in levels:
            rows += tuple(r for level, r in basis if level == k)
            steps[k] = Subspace._span(n, rows)
            rows = steps[k].rows
        return cls(direction, n, steps)

    def validate(self):
        """A basis of K^n adapted to the flag, as (level, row) pairs, read one
        nested pair at a time, innermost step first: each step's echelon
        rows are reduced after those of the step inside it, and the step
        rows that stay independent are its new basis rows.  For W the level
        is the step's index and W_k is spanned by the rows of level <= k;
        for F it is the last index whose step holds the row, K^n's unit rows
        come as one more step outside the last, and F^p is spanned by the
        rows of level >= p.  ``from_basis`` builds the flag back from it.

        Raises FiltrationError when a step does not hold the one inside it
        (the innermost such pair), then when W does not exhaust or F is not
        separated, or when a flag on K^n, n > 0, has no step.
        """
        inc = self.direction == self.INC
        keys = self._keys if inc else self._keys[::-1]
        if not keys:
            if self.n:
                raise FiltrationError("empty filtration on nonzero space")
            return []
        levels = keys if inc else keys[:1] + tuple(k - 1 for k in keys)
        # zip drops the unit step for W, whose levels stop at its last step
        steps = [self.steps[k].rows for k in keys] + [_units(self.n)]
        basis, inner = [], ()
        for i, (level, rows) in enumerate(zip(levels, steps)):
            if rows == inner:  # a repeated step adds no row
                continue
            # the inner step's rows come first and are all kept: the pair is
            # nested when the rows kept span no more than this step, which
            # keeps len(rows) - len(inner) of its own
            pair = inner + rows
            kept = [r for r, (j, _) in zip(pair, _reduce(pair, range(self.n)))
                    if j is not None]
            if len(kept) != len(rows):
                raise FiltrationError("not %s at %d -> %d" % (
                    "increasing" if inc else "decreasing",
                    *sorted(keys[i - 1:i + 1])))
            basis.extend((level, r) for r in kept[len(inner):])
            inner = rows
        if self.steps[self._keys[-1]].dim != (self.n if inc else 0):
            raise FiltrationError("increasing filtration does not exhaust" if inc
                                  else "decreasing filtration is not separated")
        return basis

    def conjugate(self):
        return Filtration(
            self.direction, self.n, {k: s.conjugate() for k, s in self.steps.items()}
        )

    def _flag(self):
        # the (k, step) where at(k) changes: flags equal at every k have the
        # same ones, whichever steps they repeat
        changes, last = [], self.at(self.min_index() - 1)
        for k in self._keys:
            if self.steps[k] != last:
                last = self.steps[k]
                changes.append((k, last))
        return self.direction, self.n, tuple(changes)

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return self._flag() == other._flag()

    def __hash__(self):
        return hash(self._flag())

    def __repr__(self):
        return "Filtration(%s, n=%d, jumps=%r)" % (
            self.direction,
            self.n,
            self.jumps(),
        )


class HodgeNumbers(Value):
    """Finite map (p, q) -> h^{p,q} and the shape of the block basis it
    fixes, built once as tuples: the blocks in canonical order with their
    offsets, the owner (p, q) of each index, the bidegree table and the
    lowering order."""

    __slots__ = ("counts", "_blocks", "_owner", "_bidegrees", "_lowering")

    def __init__(self, counts):
        counts = {k: int(v) for k, v in counts.items() if v}
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative hodge number")
        blocks, owner = [], []
        for pq in sorted(counts, key=lambda pq: (pq[0] + pq[1], pq[0])):
            blocks.append((pq, len(owner), counts[pq]))
            owner += [pq] * counts[pq]
        table = tuple(tuple((pj - pi, qj - qi) for pj, qj in owner)
                      for pi, qi in owner)
        lowering = tuple(ij for _, ij in sorted(
            (a + b, (i, j)) for i, row in enumerate(table)
            for j, (a, b) in enumerate(row) if a > 0 and b > 0))
        for name, value in zip(self.__slots__, (
                counts, tuple(blocks), tuple(owner), table, lowering)):
            object.__setattr__(self, name, value)

    @property
    def dim(self):
        return len(self._owner)

    def blocks(self):
        """Canonical ordering: by weight p+q, then p, with offsets."""
        return self._blocks

    def block_of_index(self):
        """The (p, q) of each basis index, in the canonical block order."""
        return self._owner

    def bidegrees(self):
        """The table of how far entry (i, j) of an operator in the block
        basis lowers the indices: (p' - p, q' - q) for i in block (p, q) and
        j in block (p', q').  Its (0, 0) entries are the diagonal blocks."""
        return self._bidegrees

    def lowering(self):
        """The entries (i, j) that lower both indices, by weight drop, ties
        in (i, j) order: each comes after every entry it factors through."""
        return self._lowering

    def weights(self):
        return tuple(sorted({p + q for (p, q) in self.counts}))

    def transpose(self):
        return HodgeNumbers({(q, p): h for (p, q), h in self.counts.items()})

    def __repr__(self):
        return "HodgeNumbers(%r)" % (self.counts,)


class ComplexMHS(Value):
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

    def __repr__(self):
        return "ComplexMHS(n=%d)" % (self.n,)


class RealMHS(Value):
    """Rational W on Q^n together with F on Q(i)^n; F'' is conj(F)."""

    __slots__ = ("n", "W", "F")

    def __init__(self, n, W, F):
        if W.n != n or F.n != n:
            raise DimensionMismatch("filtration ambient mismatch")
        if W.direction != Filtration.INC or F.direction != Filtration.DEC:
            raise FiltrationError("wrong filtration direction")
        if any(im is not None for sub in W.steps.values() for _, im in sub.rows):
            raise FiltrationError("weight filtration must be rational")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "F", F)


class AdaptedTriple:
    """A filtered triple (W, F', F'') read in one W-adapted basis.

    The rows of ``basis`` are the basis adapted to W that ``W.validate()``
    returns, for each weight n from the top down.  Columns cols[n] =
    (lo, hi) chart Gr^W_n, and W_n is spanned by the unit vectors from lo
    on.  ``rows[side]`` is one basis adapted to F' (or F'') and W (Fulton,
    Young Tableaux, ch. 10): (level, weight, row) in these coordinates,
    F^p ∩ W_m spanned by the rows of level >= p and weight <= m.  It is the
    basis that ``F.validate()`` returns written in the rows of ``basis``
    (one _solve for both sides), each row reduced by the rows before it
    until its first nonzero coordinate, whose chart is its weight, is new.
    These rows, and the ``basis`` rows as ``W.validate()`` keeps them, are
    integer rows; ``basis`` is the W rows read as Scalars.
    Nothing here assumes opposedness; a filtration that is not monotone or
    not exhaustive raises FiltrationError.

    The rows ``W.validate()`` keeps at weight n fix the coordinates of
    Gr^W_n, and so every printed entry of delta: another basis of the same
    steps prints another delta.  The bases of F' and F'' do not: the pieces
    are spanned canonically, so any basis adapted to them gives the same
    output.
    """

    def __init__(self, V):
        blocks = {}
        for k, r in V.W.validate():
            blocks.setdefault(k, []).append(r)
        flags = {side: getattr(V, side).validate() for side in ("Fp", "Fpp")}
        self.V = V
        basis, weight = [], []
        self.cols = {}
        for n in sorted(blocks, reverse=True):
            self.cols[n] = (len(basis), len(basis) + len(blocks[n]))
            basis.extend(blocks[n])
            weight.extend([n] * len(blocks[n]))
        # a W row stands for itself over its pivot; the F rows for their spans
        self._w = _over_pivot(basis)
        moved = iter(_solve(self._w, [(*r, 1) for f in flags.values() for _, r in f],
                            V.n))
        self.rows = {}
        for side, f in flags.items():
            self.rows[side] = [(level, weight[j], v) for (level, _), (j, v) in zip(
                f, _reduce((x[:2] for x in islice(moved, len(f))), range(V.n)))]
        self._x = {}

    def written_in_other(self, side):
        """Each row of ``rows[side]`` written in the rows of the other side,
        as (re, im, c) for the combination (re + im i) / c: one _solve, kept.
        A row of weight n lies in W_n, so it involves only rows of weight <=
        n, and only those of weight n where it is sliced to the chart."""
        if side not in self._x:
            other = self.rows["Fpp" if side == "Fp" else "Fp"]
            self._x[side] = _solve([(*r, 1) for _, _, r in other],
                                   [(*r, 1) for _, _, r in self.rows[side]], self.V.n)
        return self._x[side]

    @property
    def basis(self):
        """The W-adapted basis as a Matrix of Scalars."""
        return Matrix._of(tuple(_scalars(*r) for r in self._w), self.V.n)

    def graded(self):
        """(n, the relative position of F' and F'' in the chart of Gr^W_n,
        linalg._position) for each weight n, upward, each computed as it is
        reached: its triples (p, q, row) name the pieces (p, q) of the chart
        and their bases.  The rows of F' are written in those of F'' once,
        for every chart."""
        x, fpp = self.written_in_other("Fp"), self.rows["Fpp"]
        for n, (lo, hi) in sorted(self.cols.items()):
            g = [i for i, (_, w, _) in enumerate(fpp) if w == n]
            yield n, _position([fpp[i][0] for i in g], [
                (level, _pick(xf, g), _cut(r, lo, hi))
                for (level, w, r), xf in zip(self.rows["Fp"], x) if w == n])


class GrStructure(AdaptedTriple):
    """A validated structure with canonical bases of its bigraded pieces.

    Two filtrations of Gr^W_n are n-opposed when their relative position,
    read off the weight-n rows of F' and F'', has no pair (p, q) off the
    diagonal p + q = n (Deligne, Théorie de Hodge II, §1.2); then the piece
    I^(p,n-p) = F'^p ∩ F''^(n-p) is spanned by the rows of level (p, n-p).
    The charts are read weight by weight upward, and the first with an
    off-diagonal pair raises OpposednessViolation for its smallest (p, q),
    the smallest of the structure.  Pieces are ordered by (weight, p); their
    echelon bases concatenate to the canonical basis of the total graded
    space.  ``block_rows`` holds those bases as integer rows.
    """

    def __init__(self, V):
        super().__init__(V)
        counts, self.block_rows = {}, {}
        for n, position in self.graded():
            pieces = {}
            for p, q, row in position:
                pieces.setdefault((p, q), []).append(row)
            bad = min((pq for pq in pieces if sum(pq) != n), default=None)
            if bad:
                raise OpposednessViolation(n, *bad, len(pieces[bad]))
            for pq in sorted(pieces):
                rows = pieces[pq]
                counts[pq] = h = len(rows)
                # a piece that fills its chart has the unit basis
                self.block_rows[pq] = (_units(h) if h == len(position)
                                       else _echelon(rows, len(position))[1])
        self.hodge = HodgeNumbers(counts)


def validate_mhs(V):
    """Hodge numbers of V, or raise OpposednessViolation at the first bad piece.

    Monotonicity of the three filtrations is checked first.
    """
    return GrStructure(V).hodge


def pure(p, q):
    """One-dimensional pure structure P(p, q)."""
    (e,) = _units(1)
    return ComplexMHS(1, Filtration.from_basis(Filtration.INC, 1, [(p + q, e)]),
                      Filtration.from_basis(Filtration.DEC, 1, [(p, e)]),
                      Filtration.from_basis(Filtration.DEC, 1, [(q, e)]))


def realize_real(V):
    """ComplexMHS (W (x) Q(i), F, conj F) of a real structure, unvalidated."""
    return ComplexMHS(V.n, V.W, V.F, V.F.conjugate())


def _kron(u, v):
    # the Kronecker product of integer rows (re, im), entry by entry
    # (a + bi)(c + di)
    (ar, ai), (br, bi) = u, v
    if ai is None and bi is None:
        return tuple(x * y for x in ar for y in br), None
    a, b = tuple(zip(ar, ai or _NO_IM)), tuple(zip(br, bi or _NO_IM))
    return (tuple(x * y - s * t for x, s in a for y, t in b),
            tuple(x * t + s * y for x, s in a for y, t in b))


def _tensor_filtration(f, g):
    # the products of bases adapted to f and g, each at the sum of its two
    # levels, are adapted to the sum over a of f_a ⊗ g_(k-a).  Stored: one
    # below the sum of the first indices and, when decreasing, up to one
    # above the sum of the last, the step below dropped if it is full
    n = f.n * g.n
    dec = f.direction == Filtration.DEC
    flag = Filtration.from_basis(f.direction, n, [
        (a + b, _kron(u, v)) for a, u in f.validate() for b, v in g.validate()])
    lo = f.min_index() + g.min_index()
    steps = {k: flag.at(k) for k in range(
        lo - 1, f.max_index() + g.max_index() + 1 + dec)}
    if dec and steps[lo - 1].dim == n:
        del steps[lo - 1]
    return Filtration(f.direction, n, steps)


def tensor_mhs(V, Vp):
    """Tensor product, unvalidated; a factor's flag that is not nested, not
    exhaustive or not separated raises FiltrationError."""
    return ComplexMHS(
        V.n * Vp.n,
        _tensor_filtration(V.W, Vp.W),
        _tensor_filtration(V.Fp, Vp.Fp),
        _tensor_filtration(V.Fpp, Vp.Fpp),
    )


def _dual_filtration(f):
    # the basis dual to an adapted one B, at the negated levels, is adapted
    # to (F*)^p = Ann(F^(1-p)) and (W*)_k = Ann(W_(-1-k)): x B^T = e_i, one
    # _solve against the columns of B
    c = 1 if f.direction == Filtration.DEC else -1
    basis = f.validate()
    re = zip(*(r for _, (r, _) in basis))
    im = zip(*(i or (0,) * f.n for _, (_, i) in basis))
    cols = [(r, i if any(i) else None, 1) for r, i in zip(re, im)]
    dual = _solve(cols, [u + (1,) for u in _units(f.n)], f.n)
    flag = Filtration.from_basis(f.direction, f.n, [
        (-level, x[:2]) for (level, _), x in zip(basis, dual)])
    return Filtration(f.direction, f.n, {
        j: flag.at(j) for j in range(c - f.max_index(), c - f.min_index() + 2)})


def dual_mhs(V):
    """Dual structure, unvalidated; a flag that is not nested, not
    exhaustive or not separated raises FiltrationError."""
    return ComplexMHS(
        V.n,
        _dual_filtration(V.W),
        _dual_filtration(V.Fp),
        _dual_filtration(V.Fpp),
    )
