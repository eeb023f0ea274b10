"""The exact kernel against sympy's Gaussian-rational matrices.

rank, rref, det, inverse and the multi-row solve_left are compared with
sympy's DomainMatrix over QQ_I on seeded random Q(i) matrices up to
10 x 20, including rank-deficient, inconsistent and zero-row inputs,
inputs already in RREF and inputs with repeated rows; Subspace.intersect
is compared with a nullspace route and Subspace.conjugate with a
conjugated RREF; shapes, transposes and products with no rows or no
columns are compared too.  Every reference route in conftest runs on
the kernel's own elimination, so this is its independent check.
"""

import random
from fractions import Fraction
from itertools import chain, permutations

import pytest

from conftest import fixture_deltas, subspace_sum
from hodgegauge.linalg import DimensionMismatch, Matrix, Subspace, solve_left
from hodgegauge.scalars import Scalar

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def to_qqi(x):
    return QQ_I(x.re, x.im)


def from_qqi(z):
    return Scalar(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


def to_dm(rows, ncols):
    return DomainMatrix([[to_qqi(x) for x in row] for row in rows], (len(rows), ncols), QQ_I)


def from_dm(dm):
    return tuple(tuple(from_qqi(z) for z in row) for row in dm.to_list())


def random_scalar(rng):
    if rng.random() < 0.4:
        return Scalar(0)
    return Scalar(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0,
    )


def random_rows(rng, r, c, rank=None):
    """r x c rows; with rank given, a product of r x rank and rank x c."""
    if rank is None:
        return tuple(tuple(random_scalar(rng) for _ in range(c)) for _ in range(r))
    left = random_rows(rng, r, rank)
    right = random_rows(rng, rank, c)
    return tuple(
        tuple(sum((a * right[k][j] for k, a in enumerate(row)), Scalar(0)) for j in range(c))
        for row in left
    )


def shapes(rng, count, max_r=5, max_c=5):
    for _ in range(count):
        r, c = rng.randint(0, max_r), rng.randint(0, max_c)
        yield r, c, (rng.randint(0, min(r, c)) if rng.random() < 0.5 else None)


def check_rref(rows, c):
    M = Matrix(rows) if rows else Matrix.zeros(0, c)
    R, pivots = M.rref()
    want, want_pivots = to_dm(rows, c).rref()
    assert pivots == tuple(want_pivots)
    assert R.rows == from_dm(want)
    assert M.rank() == len(pivots) == to_dm(rows, c).rank()


def test_rank_and_rref_match_sympy():
    rng = random.Random(3)
    for r, c, k in chain(shapes(rng, 60), shapes(rng, 40, 10, 20)):
        rows = random_rows(rng, r, c, k)
        check_rref(rows, c)
        # an input already in RREF is its own RREF
        check_rref(from_dm(to_dm(rows, c).rref()[0]), c)
        if rows:
            # repeated rows, scaled and in another order
            extra = [tuple(Scalar(-2, 1) * x for x in rng.choice(rows))
                     for _ in range(rng.randint(1, 3))]
            mixed = list(rows) + extra + [rng.choice(rows)]
            rng.shuffle(mixed)
            check_rref(tuple(mixed), c)


def test_det_and_inverse_match_sympy():
    rng = random.Random(4)
    cases = []
    for _ in range(50):
        n = rng.randint(0, 10)
        cases.append(random_rows(rng, n, n, n - 1 if n and rng.random() < 0.3 else None))
    s, i = Scalar, Scalar(0, 1)
    cases += [
        (),  # 0 x 0
        ((s(0),),),  # 1 x 1 zero
        ((s(1), s(2), s(0)), (s(0), s(0), s(0)), (s(3), s(1), i)),  # a zero row
        # rank 2, every entry nonzero
        ((s(1), i, s(2)), (s(2), i + i, s(4)), (i + 1, s(3), s(-1))),
        ((s(0), s(1), s(2)), (s(3), s(0), i), (s(1), s(1), s(1))),  # top-left zero
        # singular, but only the last row shows it: row 3 = 2 row 1 + row 2
        ((s(1), s(2), s(3)), (s(0), s(1), s(4)), (s(2), s(5), s(10))),
    ] + [d.delta.rows for d in fixture_deltas()]  # unipotent
    # every 4 x 4 permutation matrix, plain and with its rows scaled by
    # nonzero Gaussian rationals: the sign is the parity of the pivot order
    scale_rng = random.Random(5)
    for perm in permutations(range(4)):
        plain = tuple(tuple(s(int(j == k)) for j in range(4)) for k in perm)
        scales = [Scalar(Fraction(scale_rng.choice((-3, -1, 1, 2)), scale_rng.randint(1, 3)),
                         scale_rng.randint(-2, 2)) for _ in perm]
        cases += [plain, tuple(tuple(c * x for x in row) for c, row in zip(scales, plain))]
    singular = 0
    for rows in cases:
        n = len(rows)
        M, dm = Matrix(rows), to_dm(rows, n)
        det = dm.det()
        assert M.det() == from_qqi(det)
        if det:
            assert M.inverse().rows == from_dm(dm.inv())
        else:
            singular += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                M.inverse()
    assert singular >= 3
    for M in (Matrix(random_rows(rng, 2, 3)), Matrix.zeros(0, 3)):
        with pytest.raises(DimensionMismatch, match="^inverse of non-square matrix$"):
            M.inverse()
        with pytest.raises(DimensionMismatch, match="^det of non-square matrix$"):
            M.det()


def check_solutions(A_rows, ncols, b_rows):
    A = Matrix(A_rows) if A_rows else Matrix.zeros(0, ncols)
    sols = solve_left(A, b_rows)
    # consistent iff stacking the right-hand rows keeps the rank of A
    if to_dm(A_rows, ncols).rank() != to_dm(A_rows + b_rows, ncols).rank():
        assert sols is None
        return False
    assert len(sols) == len(b_rows)
    for x, b in zip(sols, b_rows):
        assert len(x) == len(A_rows)
        if A_rows:
            assert from_dm(to_dm((x,), len(A_rows)) * to_dm(A_rows, ncols)) == (tuple(b),)
    return True


def test_solve_left_matches_sympy():
    rng = random.Random(5)
    outcomes = set()
    for r, c, k in chain(shapes(rng, 60), shapes(rng, 30, 10, 20)):
        A_rows = random_rows(rng, r, c, k)
        m = rng.randint(0, 3)
        if rng.random() < 0.5 and r:
            # right-hand rows in the row space of A
            coef = random_rows(rng, m, r)
            b_rows = from_dm(to_dm(coef, r) * to_dm(A_rows, c))
        else:
            b_rows = random_rows(rng, m, c)
        outcomes.add(check_solutions(A_rows, c, b_rows))
    assert outcomes == {True, False}


def random_subspace(rng, n):
    k = rng.randint(0, n)
    rank = rng.randint(0, k) if k else None
    return Subspace.from_rows(n, random_rows(rng, k, n, rank))


def canonical(rows, n):
    """The nonzero rows of sympy's RREF of rows."""
    if not rows:
        return ()
    return tuple(row for row in from_dm(to_dm(rows, n).rref()[0]) if any(row))


def test_intersect_matches_sympy():
    rng = random.Random(15)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        U, V = random_subspace(rng, n), random_subspace(rng, n)
        if rng.random() < 0.4 and U.dim:
            # share part of U, so that the meet is often neither 0 nor U
            shared = Subspace.from_rows(n, U.basis.rows[: rng.randint(1, U.dim)])
            V = subspace_sum(V, shared)
        both = U.basis.rows + V.basis.rows
        want = ()
        if U.dim and V.dim:
            # (a, b) with a U + b V = 0 gives a U in U ∩ V
            null = from_dm(to_dm(both, n).transpose().nullspace())
            if null:
                a = to_dm(tuple(x[: U.dim] for x in null), U.dim)
                want = canonical(from_dm(a * to_dm(U.basis.rows, n)), n)
        got = U.intersect(V)
        assert got.basis.rows == want
        assert got.basis.shape == (len(want), n)
        seen.add((got.dim == 0, got.dim in (U.dim, V.dim)))
    assert len(seen) >= 3


def test_conjugate_matches_sympy():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 8)
        U = random_subspace(rng, n)
        rows = tuple(
            tuple(from_qqi(QQ_I(z.x, -z.y)) for z in row)
            for row in to_dm(U.basis.rows, n).to_list()
        )
        assert U.conjugate().basis.rows == canonical(rows, n)
        assert U.conjugate().conjugate() == U


def test_solve_left_zero_row_inputs():
    zero, one = Scalar(0), Scalar(1)
    # no right-hand rows: nothing to solve
    assert solve_left(Matrix([[one, zero]]), ()) == ()
    # A with no rows spans only zero
    A = Matrix.zeros(0, 2)
    assert solve_left(A, [(zero, zero), (zero, zero)]) == ((), ())
    assert solve_left(A, [(zero, one)]) is None
    assert check_solutions((), 2, ((zero, zero),))
    assert not check_solutions((), 2, ((one, zero),))


@pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_zero_row_and_zero_column_shapes(r, c):
    M = Matrix.zeros(r, c)
    dm = DomainMatrix.zeros((r, c), QQ_I)
    assert M.shape == dm.shape == (r, c)
    assert M.transpose().shape == dm.transpose().shape == (c, r)
    assert M.transpose().transpose() == M
    R, pivots = M.rref()
    want, want_pivots = dm.rref()
    assert (R.shape, pivots) == (want.shape, tuple(want_pivots))
    for k in (0, 2):
        right, left = DomainMatrix.zeros((c, k), QQ_I), DomainMatrix.zeros((k, r), QQ_I)
        assert (M @ Matrix.zeros(c, k)).shape == (dm * right).shape
        assert (Matrix.zeros(k, r) @ M).rows == from_dm(left * dm)
    # the width is part of the value
    assert M != Matrix.zeros(r, c + 1)
    assert hash(M) == hash(Matrix.zeros(r, c))
    assert Subspace.zero(c).basis.shape == (0, c)


def test_solve_left_with_no_columns():
    # every x solves x @ A = () when A has no columns; free coordinates are 0
    zero = Scalar(0)
    assert solve_left(Matrix.zeros(2, 0), [(), ()]) == ((zero, zero),) * 2
    assert solve_left(Matrix.zeros(0, 0), [()]) == ((),)
    with pytest.raises(DimensionMismatch):
        solve_left(Matrix.zeros(2, 3), [(zero, zero)])
