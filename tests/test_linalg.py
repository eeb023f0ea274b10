import random
from fractions import Fraction
from operator import add, neg, sub

import pytest

from conftest import (
    NotNilpotentError, Quotient, adapted_position, apply, chain_delta,
    fixture_deltas, log_unipotent, mat, piece_dimensions, sc, scalar_reduce,
    span, subspace_contains, subspace_sum, vec,
)
from hodgegauge.connection import connection_from_delta
from hodgegauge.linalg import (
    Matrix,
    Subspace,
    _ints,
    _reduce,
    _scalars,
    solve_left,
)
from hodgegauge.mhs import Filtration
from hodgegauge.scalars import ONE, ZERO, Scalar


def _random_matrix(rng, r, c):
    return mat(
        [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(c)] for _ in range(r)]
    )


def test_subspace_canonical_basis():
    # two different spanning sets of the same plane give identical objects
    a = span(3, [[1, 0, 1], [0, 1, 1]])
    b = span(3, [[1, 1, 2], [2, 1, 3]])
    assert a == b
    assert a.dim == 2


def test_sum_and_intersection():
    e12 = span(3, [[1, 0, 0], [0, 1, 0]])
    e23 = span(3, [[0, 1, 0], [0, 0, 1]])
    assert e12.intersect(e23) == span(3, [[0, 1, 0]])
    assert subspace_sum(e12, e23) == Subspace.full(3)
    diag = span(2, [[1, 1]])
    anti = span(2, [[1, -1]])
    assert diag.intersect(anti) == Subspace.zero(2)


def test_grassmann_identity_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = Subspace.from_rows(
            n, [vec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))]
        )
        b = Subspace.from_rows(
            n, [vec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))]
        )
        assert a.dim + b.dim == subspace_sum(a, b).dim + a.intersect(b).dim


def test_containment_and_coords():
    a = span(3, [[1, 0, 1], [0, 1, 0]])
    assert subspace_contains(a, span(3, [[2, 3, 2]]))
    assert not subspace_contains(a, span(3, [[0, 0, 1]]))
    assert subspace_contains(a, span(3, [[1, 1, 1]]))


def test_apply_image():
    f = mat([[0, 1], [0, 0]])
    line = span(2, [[0, 1]])
    assert apply(line, f) == span(2, [[1, 0]])
    assert apply(span(2, [[1, 0]]), f) == Subspace.zero(2)


def test_quotient_project_lift():
    S = Subspace.full(2)
    T = span(2, [[0, 1]])
    q = Quotient(S, T)
    assert q.dim == 1
    line = span(2, [[3, 5]])
    image = q.project_subspace(line)
    assert image == Subspace.full(1)
    # the lift of the image spans the original line modulo T
    lifted = span(2, [q.lift(row) for row in image.basis.rows])
    assert subspace_sum(lifted, T) == subspace_sum(line, T)


def test_induced_filtration_on_quotient():
    # a filtration step spanned by e1 + e2 becomes the full line in V / <e2>
    F1 = span(2, [[1, 1]])
    q = Quotient(Subspace.full(2), span(2, [[0, 1]]))
    image = q.project_subspace(F1)
    assert image.dim == 1
    assert image == q.project_subspace(Subspace.full(2))
    assert image == Subspace.full(1)


def test_project_subspace_formula():
    # ((U cap S) + T) / T, checked against a hand count
    S = span(3, [[1, 0, 0], [0, 1, 0]])
    T = span(3, [[0, 1, 0]])
    q = Quotient(S, T)
    U = span(3, [[1, 1, 0]])
    assert q.project_subspace(U).dim == 1
    assert q.project_subspace(T).dim == 0


def test_matrix_inverse_and_det():
    m = mat([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(2)
    assert m.det() == Scalar(-1)
    singular = mat([[1, 2], [2, 4]])
    assert singular.det() == ZERO
    with pytest.raises(ValueError):
        singular.inverse()


def test_rank():
    m = mat([[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1


def test_solve_left():
    A = mat([[1, 0, 1], [0, 1, 1]])
    b = vec([2, 3, 5])
    (x,) = solve_left(A, [b])
    assert tuple(
        sum((xi * A[i, j] for i, xi in enumerate(x)), ZERO) for j in range(3)
    ) == b
    assert solve_left(A, [vec([0, 0, 1])]) is None


def test_entrywise_maps_keep_zero_entries():
    # -M, M.scale(c) and M.conjugate() map each nonzero entry and leave each
    # zero entry as the shared ZERO, on the blocks a connection is made of;
    # M + N and M - N add entry by entry and leave ZERO where both are zero
    deltas = fixture_deltas() + [chain_delta(16)]
    connections = list(map(connection_from_delta, deltas))
    blocks = [M for C in connections for M in (*C.A.values(), *C.B.values())]
    assert len(blocks) > 2 * len(deltas)
    maps = [(neg, lambda M: -M), (Scalar.conjugate, Matrix.conjugate)]
    for c in (Scalar(Fraction(-2, 3)), Scalar(1, -3), Scalar(0, 1)):
        maps.append((c.__mul__, lambda M, c=c: M.scale(c)))
    for M in blocks:
        for f, entrywise in maps:
            got = entrywise(M)
            assert got.shape == M.shape
            for row, out in zip(M.rows, got.rows):
                for x, y in zip(row, out):
                    assert y == f(x)
                    if not x:
                        assert y is ZERO
    for C in connections:
        same = [*C.A.values(), *C.B.values()]
        for M, N in zip(same, same[1:] + same[:1]):
            for f, entrywise in ((add, Matrix.__add__), (sub, Matrix.__sub__)):
                got = entrywise(M, N)
                assert got.shape == M.shape
                for a, b, out in zip(M.rows, N.rows, got.rows):
                    for x, z, y in zip(a, b, out):
                        assert y == f(x, z)
                        if not x and not z:
                            assert y is ZERO


def exp_series(D):
    """exp of a nilpotent matrix, the series written out term by term: the
    inverse that the log_unipotent round trips are checked with."""
    acc = term = Matrix.identity(D.nrows)
    for k in range(1, D.nrows + 1):
        term = (term @ D).scale(ONE / Scalar(k))
        acc = acc + term
    return acc


def test_log_unipotent_square_zero():
    u = mat([[1, 5], [0, 1]])
    assert log_unipotent(u) == mat([[0, 5], [0, 0]])
    assert exp_series(mat([[0, 5], [0, 0]])) == u


def test_log_exp_jordan_block():
    u = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    d = log_unipotent(u)
    # re-exponentiating recovers the input exactly
    assert exp_series(d) == u
    assert d == mat([[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]])


def test_log_exp_random_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [
            [ONE if i == j else (Scalar(rng.randint(-3, 3)) if j > i else ZERO) for j in range(n)]
            for i in range(n)
        ]
        u = Matrix(rows)
        assert exp_series(log_unipotent(u)) == u


def test_log_rejects_non_unipotent():
    with pytest.raises(NotNilpotentError):
        log_unipotent(mat([[2, 0], [0, 1]]))


def _random_flag(rng, d):
    """A seeded decreasing flag on K^d, {index: Subspace}: nested spans of
    the leading rows of an invertible matrix (unit triangular with sparse
    rational or Gaussian entries, columns shuffled), steps repeated at
    random, gaps between the stored indices, and the leading full step
    sometimes left implicit."""
    cols = list(range(d))
    rng.shuffle(cols)
    rows = []
    for i in range(d):
        row = [ZERO] * d
        row[cols[i]] = ONE
        for j in range(i + 1, d):
            row[cols[j]] = sc(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2),
                                          Scalar(1, 1), Scalar(0, -2))))
        rows.append(row)
    rng.shuffle(rows)
    dims = sorted((rng.randint(0, d) for _ in range(rng.randint(1, 4))),
                  reverse=True)
    dims = [d] * rng.randint(0, 1) + dims + [0]
    # stored indices with gaps, over which a step lasts
    keys = [rng.randint(-3, 2)]
    for _ in dims[1:]:
        keys.append(keys[-1] + rng.choice((1, 1, 2, 3)))
    return {k: Subspace.from_rows(d, rows[:h]) for k, h in zip(keys, dims)}


def test_relative_position_matches_the_intersection_grid():
    # the rows are a basis of K^d, each row of level (p, q) lies in
    # F^p ∩ G^q, and as many rows have levels >= (p, q) as F^p ∩ G^q,
    # intersected pairwise, has dimensions: so they span it
    rng = random.Random(47)
    for i in range(500):
        d = rng.choice((12, 16)) if i % 25 == 0 else rng.randint(1, 8)
        F, G = (Filtration(Filtration.DEC, d, _random_flag(rng, d))
                for _ in range(2))
        position = adapted_position(d, F.validate(), G.validate())
        assert Subspace._span(d, [r for _, _, r in position]).dim == d
        dims, cap = piece_dimensions(F, G)
        levels = {}
        for p, q, row in position:
            levels.setdefault((p, q), []).append(row)
        assert {pq: len(rows) for pq, rows in levels.items()} == dims
        for pq, rows in levels.items():
            assert subspace_contains(cap[pq], Subspace._span(d, rows)), pq
        for (p, q), want in cap.items():
            assert want.dim == sum(a >= p and b >= q for a, b, _ in position)


def _entry(rng, gaussian, big):
    # mostly small; big entries have parts of about 300 digits
    if rng.random() < 0.35:
        return ZERO
    if big:
        den = rng.getrandbits(990) + 1
        return Scalar(Fraction(rng.getrandbits(1000) - 2 ** 999, den),
                      Fraction(rng.getrandbits(996), den + 2) * gaussian)
    return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  rng.randint(-2, 2) * (gaussian and rng.random() < 0.6))


def _row_set(rng, gaussian, width):
    # random rows, then zero rows and scaled repeats mixed in
    big = rng.random() < 0.05
    rows = [tuple(_entry(rng, gaussian, big) for _ in range(width))
            for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 2)):
        rows.append((ZERO,) * width)
    for _ in range(rng.randint(0, 2) if rows else 0):
        c = _entry(rng, gaussian, False) or ONE
        rows.append(tuple(c * x for x in rng.choice(rows)))
    rng.shuffle(rows)
    return rows, big


def test_integer_reduce_matches_the_scalar_reference():
    # the kernel on integer rows against the elimination it replaced, on
    # the same rows, scanned forward and reversed, with coordinates riding
    # along past the scan: the same kept coordinates and zero verdicts, and
    # each kept row over its pivot is the reference's row scaled to 1
    rng = random.Random(71)
    seen = set()
    for case in range(240):
        gaussian = case % 2 == 1
        n = rng.randint(0, 6)
        rows, big = _row_set(rng, gaussian, n + rng.randint(0, 2))
        for scan in (range(n), range(n - 1, -1, -1)):
            want = list(scalar_reduce(rows, scan))
            got = list(_reduce([_ints(r)[:2] for r in rows], scan))
            assert [j for j, _ in got] == [j for j, _ in want], rows
            for (j, (re, im)), (_, row) in zip(got, want):
                if j is not None:
                    assert im is None or not im[j]
                    assert _scalars(re, im, re[j]) == tuple(row), rows
        seen.update([("gaussian", gaussian), ("big", big), ("width 0", n == 0)])
        seen.update(("zero", j is None) for j, _ in got)
        seen.add(("repeated", len(set(rows)) < len(rows)))
    assert len(seen) == 10
