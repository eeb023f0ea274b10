"""Exact dense linear algebra: matrices and canonical subspaces.

Subspaces are kept in reduced row echelon form so that equality of subspaces
is equality of representations.  All rank decisions are exact; there is no
floating point anywhere.

_reduce is the one elimination: rref is the rows it keeps plus a second
_reduce that clears above the pivots, rank is the count it keeps, det is
read off the pivots it scales, Subspace.intersect is one _reduce of the
Zassenhaus rows, and Subspace.conjugate needs none, since conjugation
keeps a reduced echelon basis reduced.  solve_left is the one
change of coordinates: Matrix.inverse and adapted_position go through it.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, Value, _coerce

_new = object.__new__
_set = object.__setattr__


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


class NotNilpotentError(ValueError):
    """A matrix expected to be (uni)potent is not."""


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

    @classmethod
    def from_columns(cls, cols):
        return cls(cols).transpose()

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
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(tuple(tuple(-x for x in row) for row in self.rows), self.ncols)

    def scale(self, c):
        c = _coerce(c)
        return Matrix._of(
            tuple(tuple(c * x for x in row) for row in self.rows), self.ncols
        )

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
        return Matrix._of(
            tuple(tuple(x.conjugate() for x in row) for row in self.rows), self.ncols
        )

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column tuple):
        the rows _reduce keeps, each cleared above its pivot by a second
        _reduce that scans the pivots from the last one up."""
        nc = self.ncols
        kept = {j: v for j, v in _reduce(self.rows, range(nc)) if j is not None}
        pivots = tuple(sorted(kept))
        up = pivots[::-1]
        rows = [tuple(v) for _, v in _reduce([kept[j] for j in up], up)]
        rows.reverse()
        rows += ((ZERO,) * nc,) * (self.nrows - len(pivots))
        return Matrix._of(tuple(rows), nc), pivots

    def rank(self):
        return sum(j is not None for j, _ in _reduce(self.rows, range(self.ncols)))

    def right_kernel(self):
        """Rows spanning {v : self @ v = 0}, in echelon order."""
        R, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            v = [ZERO] * nc
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][fc]
            basis.append(tuple(v))
        return Matrix._of(tuple(basis), nc)

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        sols = solve_left(self, Matrix.identity(self.nrows).rows)
        if sols is None:
            raise ValueError("matrix is singular")
        return Matrix._of(sols, self.ncols)

    def det(self):
        """sign(pivot order) times the pivots s_k that _reduce scales to 1,
        read off the rows (a_k | e_k): row k's tail keeps 1/s_k at k."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("det of non-square matrix")
        rows = (a + e for a, e in zip(self.rows, Matrix.identity(n).rows))
        order, inv = [], ONE
        for k, (j, v) in enumerate(_reduce(rows, range(n))):
            if j is None:
                return ZERO
            order.append(j)
            inv = inv * v[n + k]
        odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
        return (-ONE if odd else ONE) / inv


def vstack(*mats):
    if not mats:
        raise ValueError("vstack of nothing")
    nc = mats[0].ncols
    if any(m.ncols != nc for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    return Matrix._of(tuple(row for m in mats for row in m.rows), nc)


def solve_left(A, rows):
    """Solve x @ A = b for every row b of rows in one elimination.

    Returns the tuple of solutions, free coordinates set to zero, or None
    if some row is not in the row space of A.
    """
    rows = tuple(map(tuple, rows))
    na, n = A.shape
    if any(len(b) != n for b in rows):
        raise DimensionMismatch("right-hand rows must have length %d" % n)
    R, pivots = Matrix._of(A.rows + rows, n).transpose().rref()
    if pivots and pivots[-1] >= na:
        return None
    sols = []
    for k in range(na, na + len(rows)):
        x = [ZERO] * na
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][k]
        sols.append(tuple(x))
    return tuple(sols)


def _reduce(rows, scan):
    # each row, in order, reduced by the kept rows before it until its first
    # nonzero coordinate in scan order is new, and scaled to 1 there; yields
    # (that coordinate, row), or (None, row) for a row that reduces to zero
    # on scan, which is not kept.  Coordinates outside scan ride along.
    kept = {}
    for v in rows:
        for j in scan:
            c = v[j]
            if c:
                if j not in kept:
                    break
                v = [a - c * b if b else a for a, b in zip(v, kept[j])]
        else:
            yield None, v
            continue
        if v[j] != ONE:
            inv = ONE / v[j]
            v = [inv * a if a else a for a in v]
        kept[j] = v
        yield j, v


def adapted_position(d, f, g):
    """The relative position of two decreasing flags on K^d (Fulton, Young
    Tableaux, ch. 10) from adapted bases f and g, lists of (level, row),
    levels falling, whose rows of level >= p span the step p: d triples
    (p, q, row), the rows a basis of K^d, such that F^p ∩ G^q is spanned by
    the rows of levels >= (p, q).  The rows of f are written in the basis g
    (one solve_left), and each is reduced by the rows before it until its
    last nonzero coordinate is new.  Then a combination lies in G^q exactly
    when each of its rows does: when its last coordinate has level >= q.
    """
    coords = solve_left(Matrix._of(tuple(r for _, r in g), d), [r for _, r in f])
    reduced = _reduce((x + row for x, (_, row) in zip(coords, f)),
                      range(d - 1, -1, -1))
    return [(p, g[j][0], tuple(v[d:])) for (p, _), (j, v) in zip(f, reduced)]


def kron(a, b):
    """Kronecker product of two row vectors."""
    return tuple(x * y for x in a for y in b)


class Subspace(Value):
    """Subspace of K^n in canonical (reduced row echelon) form."""

    __slots__ = ("n", "basis")

    def __init__(self, n, basis):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_rows(cls, n, rows):
        if not rows:
            return cls.zero(n)
        m = Matrix(rows)
        if m.ncols != n:
            raise DimensionMismatch("rows of length %d in K^%d" % (m.ncols, n))
        return cls._span(m)

    @classmethod
    def _span(cls, m):
        # row space of a Matrix built by the kernel, so nothing to coerce
        if not m.rows:
            return cls(m.ncols, m)
        R, pivots = m.rref()
        return cls(m.ncols, Matrix._of(R.rows[: len(pivots)], m.ncols))

    @classmethod
    def zero(cls, n):
        return cls(n, Matrix.zeros(0, n))

    @classmethod
    def full(cls, n):
        return cls(n, Matrix.identity(n))

    @property
    def dim(self):
        return self.basis.nrows

    def __repr__(self):
        return "Subspace(n=%d, dim=%d)" % (self.n, self.dim)

    def _check_ambient(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                "ambient dimensions %d vs %d" % (self.n, other.n)
            )

    def add(self, other):
        self._check_ambient(other)
        return Subspace._span(vstack(self.basis, other.basis))

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
        # are a basis of it
        n = self.n
        zero = (ZERO,) * n
        rows = [u + u for u in self.basis.rows] + [v + zero for v in other.basis.rows]
        meet = tuple(tuple(w[n:]) for j, w in _reduce(rows, range(n)) if j is None)
        return Subspace._span(Matrix._of(meet, n))

    def contains(self, other):
        self._check_ambient(other)
        return solve_left(self.basis, other.basis.rows) is not None

    def conjugate(self):
        # conjugation fixes 0 and 1, so the basis stays reduced echelon
        return Subspace(self.n, self.basis.conjugate())

    def annihilator(self):
        """{phi : phi(u) = 0 for u in self}, in dual coordinates."""
        if self.dim == 0:
            return Subspace.full(self.n)
        return Subspace._span(self.basis.right_kernel())

    def tensor(self, other):
        rows = tuple(
            kron(a, b) for a in self.basis.rows for b in other.basis.rows
        )
        return Subspace._span(Matrix._of(rows, self.n * other.n))


def log_unipotent(M):
    """Exact logarithm of a unipotent matrix: sum_{k>=1} (-1)^{k+1} (M-I)^k / k."""
    n = M.nrows
    N = M - Matrix.identity(n)
    acc = Matrix.zeros(n, n)
    P = N
    for k in range(1, n + 2):
        if P.is_zero():
            return acc
        sign = ONE if k % 2 == 1 else -ONE
        acc = acc + P.scale(sign / Scalar(k))
        P = P @ N
    raise NotNilpotentError("M - I is not nilpotent")

