import json
import os
import random
from fractions import Fraction

import pytest

from conftest import (
    NotNilpotentError, cap_chain_delta, chain_delta, fixture_deltas, fixture_dir,
    flat_sections_on_line, gauge_matrix, mat, picard, picard_transport,
    reference_segment_transport, reference_solve_form, segment_pullback,
)
from gendocs import gauged_connection
from hodgegauge import holonomy, upoly
from hodgegauge.connection import (
    EquivariantConnection,
    apply_gauge,
    connection_form,
    connection_from_delta,
)
from hodgegauge.documents import parse
from hodgegauge.fixtures import kummer_delta, random_delta, t3_delta
from hodgegauge.freelie import universal_log_pexp
from hodgegauge.holonomy import (
    TRIANGLE,
    PathError,
    PolygonalPath,
    convention_selftest,
    holonomy_path,
    transport_segment,
    triangle_delta,
)
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import HodgeNumbers
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.scalars import ONE, Scalar, ZERO
from hodgegauge.splitting import DeltaObject, _blocks, log_delta_components
from hodgegauge.upoly import at_one, hypotenuse_pullback

KH = HodgeNumbers({(0, 0): 1, (-1, -1): 1})
E = mat([[0, 1], [0, 0]])


def test_path_validation():
    with pytest.raises(PathError):
        PolygonalPath([(0, 0)])
    with pytest.raises(PathError):
        PolygonalPath([(0, 0), (0, 0)])
    p = PolygonalPath(TRIANGLE)
    assert len(p.segments()) == 3
    assert p.reversed().points[0] == p.points[-1]


def test_a_path_stores_its_points_with_no_scalar_arithmetic(scalar_arithmetic):
    g = Scalar(Fraction(1, 2), 1)
    p = PolygonalPath([(-1, 0), (g, Fraction(-1, 3)), (0, -1)])
    assert p.points == ((Scalar(-1), ZERO), (g, Scalar(Fraction(-1, 3))), (ZERO, Scalar(-1)))
    assert all(type(x) is Scalar for pt in p.points for x in pt)
    assert scalar_arithmetic == []
    for bad in ((0.5, 0), (0, "1")):
        with pytest.raises(TypeError):
            PolygonalPath([(0, 0), bad])


def test_zero_connection_transports_trivially():
    C = EquivariantConnection.zero(KH)
    assert transport_segment(C, (0, 0), (5, 7)) == Matrix.identity(2)
    assert triangle_delta(C).delta == Matrix.identity(2)


def test_hypotenuse_transport_k_type():
    C = connection_from_delta(kummer_delta(Scalar(3)))
    T = transport_segment(C, (-1, 0), (0, -1))
    assert T == Matrix.identity(2) + E.scale(Scalar(-3))


def test_reversed_segment_is_inverse():
    C = connection_from_delta(t3_delta(2, 5))
    T = transport_segment(C, (-1, 0), (0, -1))
    back = transport_segment(C, (0, -1), (-1, 0))
    assert T @ back == Matrix.identity(3)


def test_two_point_path_equals_segment():
    C = connection_from_delta(kummer_delta(Scalar(1, 2)))
    path = PolygonalPath([(-1, 0), (0, -1)])
    assert holonomy_path(C, path) == transport_segment(C, (-1, 0), (0, -1))


def test_rectangle_defect():
    # around the unit square the K-type connection picks up 1 - 2cE
    c = Scalar(4)
    C = connection_from_delta(kummer_delta(c))
    square = PolygonalPath([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    T = holonomy_path(C, square)
    assert T == Matrix.identity(2) + E.scale(-2 * c)


def test_triangle_recovers_delta():
    for d in (kummer_delta(Scalar(2, 1)), t3_delta(2, 5), t3_delta(-1, Fraction(1, 3))):
        C = connection_from_delta(d)
        assert triangle_delta(C) == d


def test_triangle_on_random_data():
    rng = random.Random(31)
    for _ in range(5):
        d = random_delta(rng, max_dim=5, weight_lo=-4, weight_hi=4)
        assert triangle_delta(connection_from_delta(d)) == d


def test_flat_triangle_subdivision():
    # flat connection: holonomy is path independent, subdividing the
    # boundary does not change the (trivial) loop transport
    C = EquivariantConnection.zero(KH)
    fine = PolygonalPath(
        [
            (0, 0),
            (Fraction(-1, 2), 0),
            (-1, 0),
            (Fraction(-1, 2), Fraction(-1, 2)),
            (0, -1),
            (0, Fraction(-1, 2)),
            (0, 0),
        ]
    )
    assert holonomy_path(C, fine) == Matrix.identity(2)


def test_flat_sections_normalization():
    C = connection_from_delta(kummer_delta(Scalar(5)))
    S = flat_sections_on_line(C)
    assert S.eval((-ONE,)) == Matrix.identity(2)
    hyp = transport_segment(C, (-1, 0), (0, -1))
    assert S.eval((ZERO,)) == hyp


def test_flat_sections_zero_connection():
    S = flat_sections_on_line(EquivariantConnection.zero(KH))
    assert S == PolyMatrix.identity(1, 2)


def _counted(monkeypatch, calls, owner, name, wrap=lambda f: f):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))


def _connections(seed):
    rng = random.Random(seed)
    base = [connection_from_delta(d) for d in fixture_deltas()]
    base += [connection_from_delta(random_delta(rng, max_dim=6)) for _ in range(6)]
    return base + [_gauge_changed(C, rng)[0] for C in base[-3:]], rng


def test_transport_segment_builds_no_polymatrix(monkeypatch):
    conns, rng = _connections(28)
    calls = []
    _counted(monkeypatch, calls, PolyMatrix, "__init__")
    _counted(monkeypatch, calls, PolyMatrix, "_of", staticmethod)
    for C in conns:
        for a, b in PolygonalPath(TRIANGLE).segments() + _random_path(rng).segments():
            transport_segment(C, a, b)
    assert calls == []


def test_triangle_delta_is_three_walks_and_no_product(monkeypatch):
    conns, _ = _connections(29)
    calls = []
    _counted(monkeypatch, calls, Matrix, "__matmul__")
    _counted(monkeypatch, calls, holonomy, "_walk")
    for C in conns:
        del calls[:]
        triangle_delta(C)
        assert calls == ["_walk"] * 3


def test_walks_and_tables_multiply_no_poly(monkeypatch):
    # the walk and the iterated integrals run on upoly's integer vectors:
    # no sparse Poly is multiplied or integrated on their way
    deltas = fixture_deltas()
    rng = random.Random(30)
    calls = []
    _counted(monkeypatch, calls, Poly, "__mul__")
    _counted(monkeypatch, calls, Poly, "antiderivative")
    for d in deltas:
        C = connection_from_delta(d)
        triangle_delta(C)
        holonomy_path(C, _random_path(rng))
    universal_log_pexp.__wrapped__(8)
    assert calls == []


def test_convention_selftest():
    assert convention_selftest()


def test_nonnilpotent_transport_rejected():
    # a connection-typed transport cannot receive a non-nilpotent form, so
    # the guard lives in the dense reference
    P = PolyMatrix.from_scalar_matrix(2, mat([[1]]))
    Q = PolyMatrix.zeros(2, 1, 1)
    with pytest.raises(NotNilpotentError):
        picard(segment_pullback(P, Q, (0, 0), (1, 0)), ZERO)


def _random_gauge(hodge, rng):
    owner = hodge.block_of_index()
    n = hodge.dim
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            pq = (owner[j][0] - owner[i][0], owner[j][1] - owner[i][1])
            if pq[0] >= 1 and pq[1] >= 1 and rng.random() < 0.5:
                rows[i][j] = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
    return DeltaObject(hodge, Matrix(rows))


def _delta_on(hodge, rng):
    owner = hodge.block_of_index()
    n = hodge.dim
    return DeltaObject(hodge, Matrix([
        [ONE if i == j else Scalar(rng.randint(-3, 3))
         if owner[i][0] < owner[j][0] and owner[i][1] < owner[j][1] else ZERO
         for j in range(n)]
        for i in range(n)
    ]))


def _random_path(rng):
    def coord():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    while True:
        pts = [(coord(), coord()) for _ in range(rng.randint(2, 4))]
        if all(a != b for a, b in zip(pts, pts[1:])):
            return PolygonalPath(pts)


def _check_against_picard(C, path):
    T = Matrix.identity(C.hodge.dim)
    for a, b in path.segments():
        seg = picard_transport(C, a, b)
        assert transport_segment(C, a, b) == seg
        T = seg @ T
    assert holonomy_path(C, path) == T


def _check_composition(C, path):
    T = Matrix.identity(C.hodge.dim)
    for a, b in path.segments():
        T = transport_segment(C, a, b) @ T
    assert holonomy_path(C, path) == T


def test_path_transport_is_the_product_of_its_segments():
    # each segment's walk starts at the transport so far; the product of the
    # segments' transports, taken here, is what that continuation must give
    rng = random.Random(39)
    conns = [connection_from_delta(d) for d in fixture_deltas()]
    conns.append(next(G for G, not_fs in (_gauge_changed(C, rng) for C in conns)
                      if not_fs))
    conns.append(connection_from_delta(chain_delta(16)))
    for C in conns:
        g = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   rng.choice((-2, -1, 1, 2)))
        for path in (
            PolygonalPath([(-1, 0), (g, -1), (0, -1)]),
            PolygonalPath([(0, 0), (1, 2), (0, 0), (-1, g), (1, 2)]),
            _random_path(rng),
        ):
            _check_composition(C, path)
        n = C.hodge.dim
        for a in ((0, 0), (g, -1), (Fraction(1, 2), 3)):
            assert transport_segment(C, a, a) == Matrix.identity(n)


def test_holonomy_is_gauge_covariant():
    # the flat sections of apply_gauge(C, g) are g^{-1} times those of C, so
    # its transport from a to b is g(b)^{-1} T g(a); g(b) is inverted here
    # apart from the gauge layer
    rng = random.Random(41)
    conns = [connection_from_delta(d) for d in fixture_deltas()]
    conns.append(connection_from_delta(chain_delta(16)))
    for C in conns:
        g = _random_gauge(C.hodge, rng)
        G = apply_gauge(C, g)
        z = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   rng.choice((-2, -1, 1, 2)))
        for path in (PolygonalPath([(-1, 0), (z, -1), (1, 2)]), _random_path(rng)):
            a, b = path.points[0], path.points[-1]
            assert holonomy_path(G, path) == (gauge_matrix(g).eval(b).inverse()
                                              @ holonomy_path(C, path)
                                              @ gauge_matrix(g).eval(a))


def test_triangle_delta_is_gauge_invariant():
    # an admissible gauge is 1 on both axes, where the triangle starts
    rng = random.Random(42)
    deltas = fixture_deltas() + [random_delta(rng, max_dim=8) for _ in range(30)]
    for d in deltas:
        C = connection_from_delta(d)
        for _ in range(2):
            assert triangle_delta(apply_gauge(C, _random_gauge(d.hodge, rng))) == d


def _gauge_changed(C, rng):
    """A gauge-equivalent copy of C, and whether it has left A + B = 0."""
    G = apply_gauge(C, _random_gauge(C.hodge, rng))
    zero = Matrix.zeros(C.hodge.dim, C.hodge.dim)
    return G, any(
        not (G.A.get(pq, zero) + G.B.get(pq, zero)).is_zero()
        for pq in set(G.A) | set(G.B)
    )


def test_walk_matches_picard_on_random_connections():
    rng = random.Random(2024)
    general = 0
    for _ in range(20):
        C = connection_from_delta(random_delta(rng, max_dim=8))
        G, not_fs = _gauge_changed(C, rng)
        general += not_fs
        for conn in (C, G):
            _check_against_picard(conn, PolygonalPath(TRIANGLE))
            _check_against_picard(conn, _random_path(rng))
    assert general >= 8


# several blocks per weight, up to four dimensions each
BLOCKS_24 = {
    (0, 0): 3, (-1, -1): 3, (-1, -2): 2, (-2, -1): 2, (-2, -2): 3,
    (-3, -2): 2, (-2, -3): 2, (-3, -3): 3, (-4, -4): 4,
}


def _dimension_24():
    hodge = HodgeNumbers(BLOCKS_24)
    assert hodge.dim == 24
    return connection_from_delta(_delta_on(hodge, random.Random(24)))


def test_walk_matches_picard_on_the_deepest_chain_at_dimension_24():
    # one dimension per weight: every drop from 2 to 46 occurs
    C = connection_from_delta(chain_delta(24))
    _check_against_picard(C, PolygonalPath(TRIANGLE))


def test_walk_matches_picard_after_a_gauge_change_at_dimension_24():
    rng = random.Random(8)
    C = _dimension_24()
    G, not_fs = _gauge_changed(C, rng)
    assert not_fs
    for conn in (C, G):
        _check_against_picard(conn, PolygonalPath(TRIANGLE))
        _check_against_picard(conn, _random_path(rng))


def test_flat_sections_match_picard():
    rng = random.Random(77)
    shift = Poly.constant(1, ONE) + Poly.variable(1, 0)
    bases = [connection_from_delta(random_delta(rng, max_dim=8)) for _ in range(6)]
    for C in bases + [_dimension_24()]:
        for conn in (C, _gauge_changed(C, rng)[0]):
            P, Q = connection_form(conn)
            M = segment_pullback(P, Q, (-1, 0), (0, -1)).subs(0, shift)
            assert flat_sections_on_line(conn) == picard(M, -ONE)


# the paths of tools/stdout_identity.py: 5 rational points, and a Gaussian
# vertex
PATH_5 = ((-1, 0), (0, -1), (2, 3), (Fraction(1, 2), Fraction(-1, 3)), (1, 1))
GAUSSIAN_VERTEX = ((-1, 0), (Scalar(Fraction(1, 2), 1), -1), (0, -1))
# the hypotenuse, both axes, a segment through the origin, and segments
# with a1 = 0, d1 = 0 or both: x1, and with it g for p > 1, vanishes at
# s = 0, nowhere or everywhere
SEGMENTS = (((-1, 0), (0, -1)), ((0, 0), (-1, 0)), ((0, -1), (0, 0)),
            ((-2, 1), (2, -1)), ((0, 2), (3, -1)), ((2, 1), (2, -3)),
            ((0, 1), (0, -2)))


def _shipped_and_gauged():
    # the shipped connection document, and its gauge change, A + B != 0
    with open(os.path.join(fixture_dir(), "connection_t3_2_5.json")) as fh:
        C = parse(json.load(fh))
    G = gauged_connection()
    assert G.Q != -G.P
    return [C, G]


@pytest.mark.parametrize("build", [
    lambda: fixture_deltas() + _shipped_and_gauged(),
    lambda: [chain_delta(16), chain_delta(24)],
    lambda: [chain_delta(16, gaussian=True)],
    lambda: [cap_chain_delta(16)],
    lambda: [cap_chain_delta(16, gaussian=True)],
], ids=["fixtures", "chains-16-24", "gaussian-chain-16", "cap-16", "cap-16-i"])
def test_pair_entries_walk_as_the_convolved_entries_did(build):
    # the walk on (pullback, coefficient) pairs against the walk it
    # replaced, which convolved one polynomial per entry: the same solved
    # values, and the same transport polynomials on each segment from
    # T(0) = 1 and along each path, continued from the transport so far
    for x in build():
        if isinstance(x, DeltaObject):
            assert log_delta_components(x) == _blocks(
                x.hodge, reference_solve_form(x, lambda p, q: ([1], [], 1)))
            C = connection_from_delta(x)
            assert C.P == reference_solve_form(x, hypotenuse_pullback)
        else:
            C = x
        for a, b in (PolygonalPath(ab).segments()[0] for ab in SEGMENTS):
            assert (holonomy._segment_transport(C, a, b)
                    == reference_segment_transport(C, a, b))
        for points in (PATH_5, GAUSSIAN_VERTEX):
            T = {}
            for a, b in PolygonalPath(points).segments():
                got = holonomy._segment_transport(C, a, b, T)
                assert got == reference_segment_transport(C, a, b, T)
                T = {ij: v for ij, t in got.items() if (v := at_one(t))}


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
def test_big_coefficients_meet_a_transport_only_in_a_scaling(monkeypatch, gaussian):
    # on the cap chain at n = 16, whose entries run to 333 bits, no product
    # of two polynomials that each carry more than two coefficients over
    # 128 bits: the walk convolved 1388 (Q) and 5552 (Q(i)) of them when a
    # form entry was the coefficient times the pullback.  A pullback g
    # carries no coefficient of the connection, but on the segment
    # (2, 3) -> (1/2, -1/3) its numerators, over 2^(p-1) 3^(q-1), reach 83
    # bits at degree 24, so 64 bits would count g T
    conv, big = upoly._conv, []

    def counted(a, b):
        if all(sum(x.bit_length() > 128 for x in v) > 2 for v in (a, b)):
            big.append((len(a), len(b)))
        return conv(a, b)

    monkeypatch.setattr(upoly, "_conv", counted)
    C = connection_from_delta(cap_chain_delta(16, gaussian))
    triangle_delta(C)
    holonomy_path(C, PolygonalPath(PATH_5[1:]))
    assert big == []
