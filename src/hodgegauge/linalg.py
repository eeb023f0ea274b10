"""Exact dense linear algebra: matrices and canonical subspaces.

A ``Matrix`` holds rows of Scalars: operators and what callers read.  The
flag layer holds integer rows: a pair (re, im) of tuples of ints, im None
when every imaginary part is 0, standing for re + im*i up to a nonzero
factor; a row that stands for one vector carries a positive denominator,
(re, im, d), the form ``upoly`` uses.  A Subspace holds its reduced echelon
rows so, each primitive (its parts have gcd 1) with a positive integer
pivot: equal subspaces have equal rows.  ``basis`` makes Scalars of them,
each row over its pivot.  There is no floating point anywhere.

_reduce is the one elimination, fraction free: a row is cleared against a
kept row by cross-multiplication and its content comes out after each step
(Bareiss, Math. Comp. 22, 1968, divides exactly instead).  _echelon is its
kept rows cleared above their pivots by a second _reduce; rank and det read
its kept rows, Subspace.intersect is one _reduce of the Zassenhaus rows.
_solve is the one change of coordinates, for solve_left, Matrix.inverse,
the relative position of two flags, the adapted bases, delta and the dual
basis.  Matrix.rref,
rank, det and solve_left convert their Scalars once at entry and once at
exit.
"""

from __future__ import annotations

from itertools import islice, repeat, starmap
from math import gcd, lcm
from operator import attrgetter, mul, neg

from .scalars import ONE, ZERO, Scalar, Value, _coerce, _over

_new = object.__new__
_set = object.__setattr__
_NO_IM = repeat(0)
_PARTS = attrgetter("_rn", "_rd", "_in", "_id")


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


class InvariantError(RuntimeError):
    """A mathematical invariant the code guarantees does not hold: a defect
    of the program, not of its input.  Raised, unlike an assert, under
    ``python -O`` too."""


class Matrix(Value):
    __slots__ = ("rows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", width)

    @classmethod
    def _of(cls, rows, ncols):
        # internal constructor for a tuple of rows, each a tuple of ncols
        # Scalars: kernel results need neither coercion nor a ragged check
        m = _new(cls)
        _set(m, "rows", rows)
        _set(m, "ncols", ncols)
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(
            tuple((ZERO,) * i + (ONE,) + (ZERO,) * (n - 1 - i) for i in range(n)), n
        )

    @classmethod
    def zeros(cls, r, c):
        return cls._of(((ZERO,) * c,) * r, c)

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    @property
    def nrows(self):
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return "Matrix(%r)" % ([[str(x) for x in row] for row in self.rows],)

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("matrix shapes %r vs %r" % (self.shape, other.shape))
        return Matrix._of(
            tuple(
                tuple(a + b if a and b else a or b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def _map(self, f):
        # f of each entry, for an f with f(0) = 0: f runs on the nonzero
        # entries only, and each zero entry stays the shared ZERO
        return Matrix._of(tuple(tuple(f(x) if x else ZERO for x in row)
                                for row in self.rows), self.ncols)

    def __neg__(self):
        return self._map(neg)

    def scale(self, c):
        return self._map(_coerce(c).__mul__)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                "matmul shapes %r vs %r" % (self.shape, other.shape)
            )
        bt = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in bt:
                acc = ZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix._of(tuple(out), other.ncols)

    def transpose(self):
        # an empty zip still owes ncols rows of width 0
        return Matrix._of(tuple(zip(*self.rows)) or ((),) * self.ncols, self.nrows)

    def conjugate(self):
        return self._map(Scalar.conjugate)

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
        nc = self.ncols
        pivots, rows = _echelon([_ints(r)[:2] for r in self.rows], nc)
        out = [_scalars(re, im, re[j]) for j, (re, im) in zip(pivots, rows)]
        out += ((ZERO,) * nc,) * (self.nrows - len(pivots))
        return Matrix._of(tuple(out), nc), pivots

    def rank(self):
        return sum(j is not None for j, _ in
                   _reduce([_ints(r)[:2] for r in self.rows], range(self.ncols)))

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        sols = solve_left(self, Matrix.identity(self.nrows).rows)
        if sols is None:
            raise ValueError("matrix is singular")
        return Matrix._of(sols, self.ncols)

    def det(self):
        """sign(pivot order) times the pivots s_k of the rows _reduce keeps,
        read off the rows d (a_k | e_k): row k is kept as c (a_k - ... |
        e_k - ...), so its pivot over its entry at n + k is s_k."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("det of non-square matrix")
        z = (0,) * n
        rows = ((re + z[:k] + (d,) + z[k + 1:], im and im + z)
                for k, (re, im, d) in enumerate(map(_ints, self.rows)))
        order, det = [], ONE
        for k, (j, (re, im)) in enumerate(_reduce(rows, range(n))):
            if j is None:
                return ZERO
            order.append(j)
            det = det * Scalar(re[j]) / Scalar(re[n + k], im[n + k] if im else 0)
        odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
        return -det if odd else det


def solve_left(A, rows):
    """Solve x @ A = b for every row b of rows in one elimination.

    Returns the tuple of solutions, free coordinates set to zero, or None
    if some row is not in the row space of A.
    """
    rows = tuple(map(tuple, rows))
    n = A.ncols
    if any(len(b) != n for b in rows):
        raise DimensionMismatch("right-hand rows must have length %d" % n)
    sols = _solve(list(map(_ints, A.rows)), list(map(_ints, rows)), n)
    return None if sols is None else tuple(starmap(_scalars, sols))


def _ints(row, parts=_PARTS):
    # a row as (re, im, d): the numerators over the lcm d of its
    # denominators, read by parts(x) = (rn, rd, in, id) of each entry x
    rn, rd, in_, id_ = tuple(zip(*map(parts, row))) or ((),) * 4
    d = lcm(*rd, *id_)
    im = in_ if any(in_) else None
    if d != 1:  # most rows of a document are integers already
        rn = tuple(map(mul, rn, map(d.__floordiv__, rd)))
        im = im and tuple(map(mul, im, map(d.__floordiv__, id_)))
    return rn, im, d


def _scalars(re, im, d):
    # the Scalars (re + im i) / d, each reduced
    return tuple(map(_over, re, im or _NO_IM, repeat(d)))


def _over_pivot(rows):
    # echelon rows as (re, im, d), each standing for itself over its pivot
    return [(re, im, next(filter(None, re))) for re, im in rows]


def _units(n):
    return tuple(((0,) * i + (1,) + (0,) * (n - 1 - i), None) for i in range(n))


def _cat(a, b):
    # the row a followed by the row b
    (ar, ai), (br, bi) = a, b
    if ai is None and bi is None:
        return ar + br, None
    return ar + br, (ai or (0,) * len(ar)) + (bi or (0,) * len(br))


def _scale(v, c):
    # the row v times the integer c
    re, im = v
    return tuple(map(c.__mul__, re)), im and tuple(map(c.__mul__, im))


def _cut(v, lo, hi=None):
    # coordinates lo..hi of the row v
    re, im = v
    return re[lo:hi], im and im[lo:hi]


def _primitive(re, im, j):
    # the row over the gcd of its parts with a positive integer at j, which
    # holds a nonzero entry: a Gaussian one is first multiplied by its
    # conjugate; im None when every imaginary part is 0
    if im is None and re[j] == 1:
        return tuple(re), None
    if im is not None:
        a, b = re[j], im[j]
        if b:
            re, im = ([a * x + b * y for x, y in zip(re, im)],
                      [a * y - b * x for x, y in zip(re, im)])
        if not any(im):
            im = None
    g = gcd(*re, *im) if im else gcd(*re)
    if re[j] < 0:
        g = -g
    if g != 1:
        re = map(g.__rfloordiv__, re)
        im = im and map(g.__rfloordiv__, im)
    return tuple(re), im and tuple(im)


def _reduce(rows, scan):
    # each row (re, im), in order, reduced by the rows kept before it until
    # its first nonzero coordinate in scan order is new: a kept row b with
    # pivot p > 0 there and the row's entry c there make the row p v - c b,
    # over the gcd of its parts.  Yields (that coordinate, the row made
    # primitive with a positive pivot there), kept, or (None, row) for a row
    # that reduces to zero on scan, which is not kept.  Coordinates outside
    # scan ride along.
    kept = {}
    for vr, vi in rows:
        for j in scan:
            if vr[j] or vi and vi[j]:
                b = kept.get(j)
                if b is None:
                    break
                br, bi = b
                p, c, e = br[j], vr[j], vi[j] if vi else 0
                g = gcd(p, c, e)
                if g != 1:
                    p, c, e = p // g, c // g, e // g
                if e or bi:
                    # p v - (c + e i)(br + bi i)
                    zi, bi = vi or _NO_IM, bi or _NO_IM
                    vr, vi = ([p * x - c * y + e * z for x, y, z in zip(vr, br, bi)],
                              [p * w - c * z - e * y for w, y, z in zip(zi, br, bi)])
                else:
                    vr = [p * x - c * y for x, y in zip(vr, br)]
                    if vi:
                        vi = list(map(p.__mul__, vi))
                g = gcd(*vr, *vi) if vi else gcd(*vr)
                if g > 1:
                    vr = list(map(g.__rfloordiv__, vr))
                    vi = vi and list(map(g.__rfloordiv__, vi))
        else:
            yield None, (vr, vi)
            continue
        kept[j] = v = _primitive(vr, vi, j)
        yield j, v


def _echelon(rows, n):
    # (pivots, rows) of the reduced echelon form of the span of rows on n
    # coordinates: the rows _reduce keeps, each cleared above its pivot by a
    # second _reduce that scans the pivots from the last one up
    kept = {j: v for j, v in _reduce(rows, range(n)) if j is not None}
    up = sorted(kept, reverse=True)
    if len(up) < 2:
        return tuple(up), tuple(kept.values())
    rows = [v for _, v in _reduce([kept[j] for j in up], up)]
    rows.reverse()
    return tuple(up[::-1]), tuple(rows)


def _solve(A, B, n):
    # x with x @ A = b for each row b of B, on n coordinates, free
    # coordinates 0, as (re, im, d) with d > 0; or None when some b is not in
    # the row space of A.  A row (re, im, d) of A enters as d (a_k | -e_k | 0)
    # and one of B as d (b | 0 | 1); a b that reduces to zero on the first n
    # coordinates is then c (0 | x | 1) with c > 0, as every pivot is.
    na = len(A)
    z = (0,) * na
    rows = [(re + z[:k] + (-d,) + z[k + 1:] + (0,), im and im + z + (0,))
            for k, (re, im, d) in enumerate(A)]
    rows += [(re + z + (d,), im and im + z + (0,)) for re, im, d in B]
    out = []
    for j, (re, im) in islice(_reduce(rows, range(n)), na, None):
        if j is not None:
            return None
        out.append((tuple(re[n:-1]), im and tuple(im[n:-1]), re[-1]))
    return out


def _pick(x, idx):
    # the coordinates idx, in order, of x = (xr, xi, c)
    xr, xi, c = x
    return tuple(map(xr.__getitem__, idx)), xi and tuple(map(xi.__getitem__, idx)), c


def _position(levels, f):
    # the relative position of two decreasing flags F, G on K^d (Fulton,
    # Young Tableaux, ch. 10): d triples (p, q, row), F^p ∩ G^q spanned by
    # the rows of levels >= (p, q).  From an adapted basis of F written in
    # an adapted basis g of G, triples (p, (xr, xi, c), row), x @ g = row for
    # x = (xr + xi i) / c, and the levels of g.  (x | row) is reduced as
    # (xr + xi i | c row), each row until its last nonzero coordinate is new
    d = len(levels)
    reduced = _reduce((_cat((xr, xi), _scale(row, c)) for _, (xr, xi, c), row in f),
                      range(d - 1, -1, -1))
    return [(p, levels[j], _cut(v, d)) for (p, _, _), (j, v) in zip(f, reduced)]


class Subspace(Value):
    """Subspace of K^n in canonical form: ``rows`` are its reduced echelon
    rows as integer rows, each primitive with a positive integer pivot."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        _set(self, "n", n)
        _set(self, "rows", rows)

    @classmethod
    def from_rows(cls, n, rows):
        """The span of rows of Scalars (or of what converts to them)."""
        if not rows:
            return cls.zero(n)
        m = Matrix(rows)
        if m.ncols != n:
            raise DimensionMismatch("rows of length %d in K^%d" % (m.ncols, n))
        return cls._span(n, [_ints(r)[:2] for r in m.rows])

    @classmethod
    def _span(cls, n, rows):
        # the span of integer rows
        return cls(n, _echelon(rows, n)[1])

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def full(cls, n):
        return cls(n, _units(n))

    @property
    def basis(self):
        """The reduced row echelon basis as a Matrix of Scalars: each row
        over its pivot."""
        return Matrix._of(tuple(starmap(_scalars, _over_pivot(self.rows))), self.n)

    @property
    def dim(self):
        return len(self.rows)

    def __repr__(self):
        return "Subspace(n=%d, dim=%d)" % (self.n, self.dim)

    def _check_ambient(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                "ambient dimensions %d vs %d" % (self.n, other.n)
            )

    def intersect(self, other):
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.n)
        if self.dim == self.n:
            return other
        if other.dim == other.n:
            return self
        # Zassenhaus: the rows (u | u) and (v | 0) reduced on their first
        # half; a row that reduces to (0 | w) has w in U ∩ V, and those w
        # span it
        n = self.n
        zero = ((0,) * n, None)
        rows = [_cat(u, u) for u in self.rows] + [_cat(v, zero) for v in other.rows]
        return Subspace._span(n, [_cut(w, n) for j, w in _reduce(rows, range(n))
                                  if j is None])

    def conjugate(self):
        # the pivots are real, so the rows stay canonical
        return Subspace(self.n, tuple((re, im and tuple(map(neg, im)))
                                      for re, im in self.rows))
