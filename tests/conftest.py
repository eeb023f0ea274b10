import os
import sys
from fractions import Fraction

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgegauge.connection import connection_form
from hodgegauge.freelie import LiePolynomial, NotLieElement, expand_lyndon, is_lyndon
from hodgegauge.linalg import Matrix, NotNilpotentError, Subspace, solve_left
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.scalars import ONE, ZERO, Scalar

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


def greedy_from_tensor(alphabet, tensor):
    """Lyndon coordinates of a Lie element by greedy extraction: each step
    takes the minimal surviving word, by (length, word), with a scan of the
    whole residue, and subtracts its bracketing.  The reference the
    heap-ordered ``LiePolynomial.from_tensor`` is tested against.
    """
    work = {w: c for w, c in tensor.items() if c}
    coords = {}
    while work:
        w = min(work, key=lambda u: (len(u), u))
        if not is_lyndon(w):
            raise NotLieElement("minimal word %r is not Lyndon" % (w,))
        c = work[w]
        coords[w] = c
        for u, cu in expand_lyndon(alphabet, w).items():
            new = work.get(u, ZERO) - c * cu
            if new:
                work[u] = new
            else:
                work.pop(u, None)
    return LiePolynomial(alphabet, coords)


def segment_pullback(P, Q, a, b):
    """Univariate matrix M(t) = P(gamma(t)) x1' + Q(gamma(t)) x2' for the
    straight segment gamma(t) = a + t (b - a), t in [0, 1], expanded entry
    by entry over the dense forms (P, Q) of ``connection_form``."""
    a = (sc(a[0]), sc(a[1]))
    b = (sc(b[0]), sc(b[1]))
    d1 = b[0] - a[0]
    d2 = b[1] - a[1]
    t = Poly.variable(1, 0)
    g1 = Poly.constant(1, a[0]) + t.scale(d1)
    g2 = Poly.constant(1, a[1]) + t.scale(d2)

    cache = {}

    def mono(e1, e2):
        if (e1, e2) not in cache:
            acc = Poly.constant(1, ONE)
            for _ in range(e1):
                acc = acc * g1
            for _ in range(e2):
                acc = acc * g2
            cache[(e1, e2)] = acc
        return cache[(e1, e2)]

    zero = Poly(1, {})

    def pull(pm, speed):
        rows = []
        for row in pm.rows:
            out = []
            for poly in row:
                acc = zero
                for (e1, e2), c in poly.terms.items():
                    acc = acc + mono(e1, e2).scale(c * speed)
                out.append(acc)
            rows.append(tuple(out))
        return PolyMatrix(1, rows)

    return pull(P, d1) + pull(Q, d2)


def picard(M, lower):
    """Polynomial fundamental solution S of S' = M S with S(lower) = 1: the
    sum of the iterated integrals T_0 = 1, T_{k+1} = integral from lower of
    M T_k, which end because M takes values in nilpotent matrices; guarded
    by the ambient dimension.  The reference the weight-ordered walk of
    ``hodgegauge.connection`` is tested against.
    """
    n = M.shape[0]
    T = S = PolyMatrix.identity(1, n)
    for _ in range(n + 1):
        MT = M @ T
        F = PolyMatrix(1, [[p.antiderivative() for p in row] for row in MT.rows])
        T = F - PolyMatrix.from_scalar_matrix(1, F.eval((lower,)))
        if T.is_zero():
            return S
        S = S + T
    raise NotNilpotentError("transport iteration did not terminate")


def picard_transport(C, a, b):
    """Transport matrix of the connection C from a to b by ``picard``."""
    P, Q = connection_form(C)
    return picard(segment_pullback(P, Q, a, b), ZERO).eval((ONE,))
