import os
import sys
from fractions import Fraction

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgegauge.linalg import Matrix, Subspace, solve_left
from hodgegauge.scalars import ZERO, Scalar

# the same examples on every run, so a hypothesis failure cannot come and go
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def sc(x):
    if isinstance(x, Scalar):
        return x
    return Scalar(Fraction(x))


def mat(rows):
    return Matrix([[sc(x) for x in row] for row in rows])


def vec(entries):
    return tuple(sc(x) for x in entries)


def span(n, rows):
    return Subspace.from_rows(n, [vec(r) for r in rows])


def fixture_dir():
    import hodgegauge

    return os.path.join(os.path.dirname(hodgegauge.__file__), "fixtures")


class Quotient:
    """Chart for S/T with a deterministic echelon-complement basis: the
    reference the adapted basis of ``mhs.AdaptedTriple`` is tested against.

    The complement is the rows of S's echelon basis that are pivots of the
    columns T | S, i.e. each row not in the span of T and the rows before
    it, so the chart is a pure function of (S, T).
    """

    def __init__(self, S, T):
        S._check_ambient(T)
        cols = T.basis.rows + S.basis.rows
        pivots = Matrix._of(cols, S.n).transpose().rref()[1]
        if len(pivots) != S.dim:
            raise ValueError("T is not contained in S")
        self.S = S
        self.T = T
        self.complement = tuple(cols[c] for c in pivots[T.dim :])

    @property
    def dim(self):
        return len(self.complement)

    def project_subspace(self, U):
        """Image of ((U ∩ S) + T)/T as a subspace of the quotient chart."""
        inter = U.intersect(self.S)
        if not inter.dim:
            return Subspace.zero(self.dim)
        if inter.dim == self.S.dim:
            return Subspace.full(self.dim)
        sols = solve_left(
            Matrix._of(self.T.basis.rows + self.complement, self.S.n), inter.basis.rows
        )
        low = self.T.dim
        return Subspace._span(Matrix._of(tuple(x[low:] for x in sols), self.dim))

    def lift(self, coords):
        v = [ZERO] * self.S.n
        for c, row in zip(coords, self.complement):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = v[j] + c * x
        return tuple(v)
