import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ReferenceConnection,
    _weight_spread,
    assert_raises_under_optimize,
    chain_delta,
    curvature_matrix,
    fixture_deltas,
    fixture_dir,
    gauge_at,
    gauge_blocks,
    gauge_inverse_matrix,
    gauge_matrix,
    mat,
    random_gauge,
    reference_apply_gauge,
    reference_compose,
    reference_curvature,
    reference_inverse,
    reference_normalize,
)
from gendocs import gauged_connection
from hodgegauge import cli, connection, holonomy, splitting
from hodgegauge.connection import (
    AdmissibilityError,
    EquivariantConnection,
    apply_gauge,
    connection_form,
    connection_from_delta,
    curvature,
    from_blocks,
    normalize_fock_schwinger,
)
from hodgegauge.documents import _matrix_in, parse, serialize
from hodgegauge.fixtures import kummer, kummer_delta, random_delta, t3, t3_delta
from hodgegauge.freelie import abelianized_coefficient, generator_change_table
from hodgegauge.holonomy import triangle_delta
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import GrStructure, HodgeNumbers, tensor_mhs
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.scalars import ONE, Scalar, ZERO
from hodgegauge.splitting import (
    DeltaError, DeltaObject, delta_operator, delta_to_mhs, log_delta_components,
)

KH = HodgeNumbers({(0, 0): 1, (-1, -1): 1})
E = mat([[0, 1], [0, 0]])  # sends the weight-0 line to the weight-(-2) line
ONE_2 = Matrix.identity(2)


def k_connection(a):
    A = E.scale(Scalar(a))
    return from_blocks(KH, {(1, 1): A}, {(1, 1): -A})


def test_connection_form_k_type():
    C = k_connection(3)
    P, Q = connection_form(C)
    t2 = Poly.monomial(2, (0, 1))
    t1 = Poly.monomial(2, (1, 0))
    assert P == PolyMatrix.from_scalar_matrix(2, E.scale(Scalar(3))).scale_poly(t2)
    assert Q == PolyMatrix.from_scalar_matrix(2, E.scale(Scalar(-3))).scale_poly(t1)


def test_admissibility_rejects_bad_support():
    with pytest.raises(AdmissibilityError):
        from_blocks(KH, {(0, 1): E}, {})
    with pytest.raises(AdmissibilityError):
        from_blocks(KH, {(1, 2): E}, {})  # exceeds the weight spread
    # an entry that does not move (0,0) to (-1,-1) violates the bidegree
    with pytest.raises(AdmissibilityError):
        from_blocks(KH, {(1, 1): mat([[0, 0], [1, 0]])}, {})
    # the first bad entry in row-major order is named: entry (0, 2) has
    # bidegree (-2, -2), entry (1, 0) has (1, 1)
    h = HodgeNumbers({(0, 0): 1, (-1, -1): 1, (-2, -2): 1})
    M = mat([[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(AdmissibilityError,
                       match=r"^A_\{1,1\} has an entry of bidegree \(-2, -2\)$"):
        from_blocks(h, {(1, 1): M}, {})


def test_a_value_that_does_not_lower_both_indices_is_refused():
    with pytest.raises(AdmissibilityError, match="value of A does not lower"):
        EquivariantConnection(KH, ONE_2, Matrix.zeros(2, 2))
    with pytest.raises(AdmissibilityError, match="value of B does not lower"):
        EquivariantConnection(KH, E, mat([[0, 0], [1, 0]]))
    with pytest.raises(AdmissibilityError, match="value of A does not lower"):
        EquivariantConnection(KH, Matrix.zeros(2, 3), Matrix.zeros(2, 2))
    assert_raises_under_optimize(
        "from hodgegauge.connection import AdmissibilityError, "
        "EquivariantConnection\n"
        "from hodgegauge.linalg import Matrix\n"
        "from hodgegauge.mhs import HodgeNumbers\n"
        "h = HodgeNumbers({(0, 0): 1, (-1, -1): 1})\n"
        "Z, M = Matrix([[0, 0], [0, 0]]), Matrix([[0, 0], [1, 0]])",
        "EquivariantConnection(h, Z, M)", "AdmissibilityError",
        "the value of B does not lower both indices")


def _outcome(build, hodge, A, B):
    """The blocks A, B read by build, or the type and text of its error."""
    try:
        C = build(hodge, A, B)
    except Exception as exc:
        return type(exc), str(exc)
    return C.A, C.B


@st.composite
def _block_dicts(draw):
    """Hodge numbers of dimension <= 8 and two block dicts keyed by (p, q)
    in -1..spread+1: zero blocks, blocks of the wrong shape, blocks with
    entries on their bidegree and blocks with one entry off it, with
    Gaussian entries."""
    hodge = HodgeNumbers(draw(st.dictionaries(
        st.tuples(st.integers(-3, 0), st.integers(-3, 0)), st.integers(1, 2),
        min_size=2, max_size=4)))
    n, spread = hodge.dim, _weight_spread(hodge)
    entry = st.builds(Scalar, st.integers(-3, 3).filter(bool), st.integers(-2, 2))

    def block(pq):
        kind = draw(st.sampled_from(["on", "zero", "on", "off", "shape"]))
        rows, cols = (n, n) if kind != "shape" else draw(st.sampled_from(
            [(n, n + 1), (n + 1, n), (max(n - 1, 0), n)]))
        M = [[ZERO] * cols for _ in range(rows)]
        for i in range(min(rows, n)):
            for j in range(min(cols, n)):
                if kind != "zero" and hodge.bidegrees()[i][j] == pq:
                    M[i][j] = draw(entry)
        if kind in ("off", "shape") and rows and cols:
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            M[i][j] = draw(entry)
        return Matrix(M) if rows else Matrix.zeros(0, cols)

    key = st.tuples(st.integers(-1, spread + 1), st.integers(-1, spread + 1))
    lowering = sorted({d for row in hodge.bidegrees() for d in row
                       if d[0] > 0 and d[1] > 0})
    if lowering:  # mostly the bidegrees that have entries
        key = st.one_of(st.sampled_from(lowering), st.sampled_from(lowering), key)
    A, B = ({pq: block(pq) for pq in draw(st.lists(key, min_size=1, max_size=3))}
            for _ in range(2))
    return hodge, A, B


@settings(max_examples=400)
@given(_block_dicts())
def test_from_blocks_reads_blocks_as_the_block_constructor_did(case):
    assert _outcome(from_blocks, *case) == _outcome(ReferenceConnection, *case)


def test_from_blocks_reads_the_pipeline_connections_as_they_are():
    # every fixture connection; the blocks of the shipped connection
    # document as written; and its gauge change by 1 + E t1 t2, whose
    # blocks the tools write out as a literal, A + B != 0
    with open(os.path.join(fixture_dir(), "connection_t3_2_5.json")) as fh:
        doc = json.load(fh)
    shipped = tuple({(e["p"], e["q"]): _matrix_in(e[side]) for e in doc["blocks"]}
                    for side in "AB")
    C = connection_from_delta(t3_delta(2, 5))
    g = DeltaObject(C.hodge, mat([[1, 2, 0], [0, 1, -1], [0, 0, 1]]))
    cases = [(F.hodge, F.A, F.B) for F in map(connection_from_delta, fixture_deltas())]
    gauged = apply_gauge(C, g)
    assert gauged == gauged_connection()
    cases += [(C.hodge, *shipped), (C.hodge, gauged.A, gauged.B)]
    for case in cases:
        assert _outcome(from_blocks, *case) == _outcome(ReferenceConnection, *case)
        D = from_blocks(*case)
        assert parse(serialize(D)) == D
    assert from_blocks(C.hodge, *shipped) == C
    assert from_blocks(C.hodge, gauged.A, gauged.B) == gauged


def test_curvature_zero_connection():
    assert curvature(EquivariantConnection.zero(KH)) == {}


def test_a_fock_schwinger_connection_is_flat_iff_zero():
    # roundtrip reads flatness off C.is_zero(); the proof is in curvature's
    # docstring, and this compares the two on every fixture and 240 seeded
    # connections
    rng = random.Random(31)
    deltas = fixture_deltas() + [
        random_delta(rng, max_dim=6, weight_lo=-4, weight_hi=4) for _ in range(240)
    ]
    flat = 0
    for d in deltas:
        C = connection_from_delta(d)
        assert (not curvature(C)) == C.is_zero()
        flat += C.is_zero()
    assert 0 < flat < len(deltas)


def test_curvature_k_type_is_minus_two_a():
    # block (1, 1) of a curvature carries t1^0 t2^0
    C = k_connection(5)
    F = curvature(C)
    assert set(F) == {(1, 1)}
    assert F[(1, 1)] == E.scale(Scalar(-10))


def test_curvature_commutator_sign():
    # P = X t2 and Q = Y t1 with X = e12, Y = e01: XY = 0 and YX = e02, so
    # d1 Q - d2 P - [P, Q] = (Y - X) + e02 t1 t2, whose block (2, 2) has the
    # sign of -[P, Q]
    h3 = HodgeNumbers({(0, 0): 1, (-1, -1): 1, (-2, -2): 1})
    X = mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    Y = mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    C = from_blocks(h3, {(1, 1): X}, {(1, 1): Y})
    F = curvature(C)
    assert F == {(1, 1): Y - X, (2, 2): mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])}
    assert curvature_matrix(3, F) == reference_curvature(C)


def test_apply_gauge_identity():
    C = k_connection(2)
    assert apply_gauge(C, DeltaObject(KH, ONE_2)) == C


def test_gauge_of_zero_connection():
    g = DeltaObject(KH, ONE_2 + E)
    # -g^{-1} dg for g = 1 + E t1 t2: E^2 = 0, so A = B = -E
    out = apply_gauge(EquivariantConnection.zero(KH), g)
    assert out.A == {(1, 1): -E}
    assert out.B == {(1, 1): -E}


def test_gauge_composition_is_matrix_product():
    h3 = HodgeNumbers({(0, 0): 1, (-1, -1): 1, (-2, -2): 1})
    n1 = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    n2 = mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    one = Matrix.identity(3)
    g1 = DeltaObject(h3, one + n1)
    g2 = DeltaObject(h3, one + n2)
    d = t3_delta(1, 1)
    C = connection_from_delta(d)
    left = apply_gauge(apply_gauge(C, g1), g2)
    right = apply_gauge(C, DeltaObject(h3, g1.delta @ g2.delta))
    assert left == right


def test_gauge_inverse_matrix():
    g = DeltaObject(KH, ONE_2 + E)
    inverse = DeltaObject(KH, g.delta.inverse())
    assert inverse == DeltaObject(KH, ONE_2 - E)
    assert g.delta @ inverse.delta == ONE_2
    assert gauge_matrix(g) @ gauge_matrix(inverse) == PolyMatrix.identity(2, 2)
    assert gauge_matrix(inverse) == gauge_inverse_matrix(g)


def test_a_gauge_is_refused_unless_its_value_is_unipotent_and_lowering():
    # a gauge is the DeltaObject of its value at (1, 1), whose check is the
    # gauge's admissibility
    h3 = HodgeNumbers({(0, 0): 1, (-1, -1): 1, (-2, -2): 1})
    with pytest.raises(DeltaError, match="diagonal block at \\(0, 0\\) is not"):
        DeltaObject(KH, mat([[1, 1], [0, 2]]))
    with pytest.raises(DeltaError, match="does not lower both indices"):
        DeltaObject(KH, mat([[1, 0], [1, 1]]))
    with pytest.raises(DeltaError, match="does not lower both indices"):
        DeltaObject(HodgeNumbers({(0, 0): 1, (-1, 0): 1}), mat([[1, 1], [0, 1]]))
    with pytest.raises(DeltaError, match="shape"):
        DeltaObject(h3, ONE_2 + E)


def test_normalize_single_level():
    C = from_blocks(KH, {(1, 1): E}, {})
    Cn, g = normalize_fock_schwinger(C)
    half = Scalar(Fraction(1, 2))
    assert Cn.A == {(1, 1): E.scale(half)}
    assert Cn.B == {(1, 1): E.scale(-half)}
    assert g.delta == ONE_2 + E.scale(half)


def test_normalize_idempotent():
    C = k_connection(7)
    Cn, g = normalize_fock_schwinger(C)
    assert Cn == C
    assert g == DeltaObject(KH, ONE_2)


def test_normalize_gauge_invariant_t3():
    d = t3_delta(2, 5)
    C = connection_from_delta(d)
    h3 = C.hodge
    n1 = mat([[0, 2, 0], [0, 0, -1], [0, 0, 0]])
    g = DeltaObject(h3, Matrix.identity(3) + n1)
    Cn1, _ = normalize_fock_schwinger(apply_gauge(C, g))
    Cn2, _ = normalize_fock_schwinger(C)
    assert Cn1 == Cn2


def test_connection_from_identity_delta():
    d = kummer_delta(0)
    assert connection_from_delta(d).is_zero()


def test_connection_from_kummer_delta():
    c = Scalar(2, 1)
    C = connection_from_delta(kummer_delta(c))
    assert C.A == {(1, 1): E.scale(c)}
    assert C.B == {(1, 1): E.scale(-c)}


def test_connection_from_t3_has_two_levels():
    C = connection_from_delta(t3_delta(2, 5))
    assert set(C.A) == {(1, 1), (2, 2)}
    assert C.B == {k: -v for k, v in C.A.items()}


def _table_route(d):
    """Reference: the log components of delta substituted into the inverted
    universal generator change alpha_{p,q}(z)."""
    hodge = d.hodge
    ws = hodge.weights()
    spread = ws[-1] - ws[0]
    if spread < 2:
        return EquivariantConnection.zero(hodge)
    table = generator_change_table(spread)
    D = log_delta_components(d)
    zero = Matrix.zeros(hodge.dim, hodge.dim)
    assignment = {"z%d,%d" % k: D.get(k, zero) for k in table}
    A = {k: poly.substitute(assignment) for k, poly in table.items()}
    return from_blocks(hodge, A, {k: -v for k, v in A.items()})


def test_connection_from_delta_matches_table_route():
    rng = random.Random(2)
    bracketed = 0
    for _ in range(100):
        d = random_delta(rng, max_dim=8, weight_lo=-4, weight_hi=4)
        ws = d.hodge.weights()
        if ws[-1] - ws[0] > 6:
            continue
        C = connection_from_delta(d)
        assert C == _table_route(d)
        assert triangle_delta(C) == d
        # blocks that differ from D / c carry bracket corrections
        D = log_delta_components(d)
        bracketed += C.A != {
            k: M.scale(Scalar(1) / abelianized_coefficient(*k))
            for k, M in D.items()
        }
    assert bracketed


WIDE = HodgeNumbers({(0, 0): 1, (-7, -7): 1})


@pytest.mark.parametrize("x", [0, 3])
def test_connection_from_spread_14(x):
    # x sits on the (0,0) -> (-7,-7) entry: row of the weight -14 line,
    # column of the weight 0 line
    d = DeltaObject(WIDE, mat([[1, x], [0, 1]]))
    C = connection_from_delta(d)
    E = mat([[0, x], [0, 0]])
    c = abelianized_coefficient(7, 7)
    assert C.A == ({(7, 7): E.scale(Scalar(1) / c)} if x else {})
    assert triangle_delta(C) == d


def test_random_gauge_normalization_agrees():
    rng = random.Random(23)
    for _ in range(5):
        d = random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3)
        C = connection_from_delta(d)
        hodge = C.hodge
        owner = hodge.block_of_index()
        spread = hodge.weights()[-1] - hodge.weights()[0]
        n = hodge.dim
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for p in range(1, spread):
            for q in range(1, spread - p + 1):
                for i in range(n):
                    for j in range(n):
                        pi, qi = owner[i]
                        pj, qj = owner[j]
                        if (pi, qi) == (pj - p, qj - q) and rng.random() < 0.5:
                            rows[i][j] = Scalar(rng.randint(-2, 2))
        g = DeltaObject(hodge, Matrix(rows))
        a, _ = normalize_fock_schwinger(apply_gauge(C, g))
        b, _ = normalize_fock_schwinger(C)
        assert a == b


def test_connection_from_wide_spread_delta_has_it_as_holonomy():
    # holonomy's Picard transport is the reference at spreads 8-14, which
    # the table route above does not reach: three deltas of each spread
    rng = random.Random(11)
    left = {s: 3 for s in range(8, 15)}
    while any(left.values()):
        d = random_delta(rng, max_dim=8, weight_lo=-7, weight_hi=8)
        ws = d.hodge.weights()
        if not left.get(ws[-1] - ws[0]):
            continue
        left[ws[-1] - ws[0]] -= 1
        assert triangle_delta(connection_from_delta(d)) == d


def test_connection_from_delta_is_one_pass(monkeypatch):
    d = delta_operator(GrStructure(tensor_mhs(t3(1, 2), t3(3, 4))))

    def refuse(*args):
        raise AssertionError("connection_from_delta transported or took a log")

    for module, name in (
        (holonomy, "transport_segment"),
        (connection, "connection_form"),
    ):
        monkeypatch.setattr(module, name, refuse)
    built = []
    init = EquivariantConnection.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(EquivariantConnection, "__init__", counted)
    C = connection_from_delta(d)
    assert len(built) == 1
    monkeypatch.undo()
    assert triangle_delta(C) == d


def test_both_sets_of_generators_take_no_matrix_product(monkeypatch):
    # the log components and the connection are read off one walk, with
    # no power series in delta - 1 and no product of Scalar matrices
    deltas = fixture_deltas()

    def refuse(*args):
        raise AssertionError("a generator of delta took a matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    for d in deltas:
        log_delta_components(d)
        connection_from_delta(d)


def test_blocks_are_built_without_coercion(monkeypatch):
    # every entry of a connection block and of a log component is a Scalar
    # already, so neither builds a Matrix by the coercing constructor
    deltas = fixture_deltas()
    built = []
    init = Matrix.__init__

    def counted(self, rows):
        built.append(self)
        init(self, rows)

    monkeypatch.setattr(Matrix, "__init__", counted)
    for d in deltas:
        connection_from_delta(d)
        log_delta_components(d)
    assert built == []


def test_connection_from_delta_reads_no_entry_by_index(monkeypatch):
    # the solve and the bidegree check of each block walk the rows, so no
    # entry is read through Matrix.__getitem__
    deltas = fixture_deltas()
    reads = []
    getitem = Matrix.__getitem__

    def counted(self, ij):
        reads.append(ij)
        return getitem(self, ij)

    monkeypatch.setattr(Matrix, "__getitem__", counted)
    for d in deltas:
        connection_from_delta(d)
    assert reads == []


def _check_against_reference(C, g, h, normalize=True):
    """The block dicts against the polynomial route of conftest, on C, on
    its gauge change by g, and on the gauges g and h."""
    G = apply_gauge(C, g)
    assert G == reference_apply_gauge(C, g)
    if normalize:
        assert normalize_fock_schwinger(G) == reference_normalize(G)
    assert DeltaObject(C.hodge, g.delta @ h.delta) == reference_compose(g, h)
    assert DeltaObject(C.hodge, g.delta.inverse()) == reference_inverse(g)
    for conn in (C, G):
        assert curvature_matrix(C.hodge.dim, curvature(conn)) == (
            reference_curvature(conn))


def test_gauge_layer_matches_the_reference_on_criterion_04_gauges():
    # the connections and gauges of acceptance criterion 04, drawn in its
    # order from its seed
    rng = random.Random(4242)
    for _ in range(100):
        d = random_delta(rng, max_dim=5, weight_lo=-3, weight_hi=3)
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, rng)
        _check_against_reference(C, g, random_gauge(d.hodge, random.Random(1)))


def test_gauge_layer_matches_the_reference_on_the_fixtures():
    rng = random.Random(41)
    for d in fixture_deltas():
        C = connection_from_delta(d)
        _check_against_reference(C, random_gauge(d.hodge, rng),
                                 random_gauge(d.hodge, rng))


@pytest.mark.parametrize("n", [16, 24])
def test_gauge_layer_matches_the_reference_on_a_chain(n):
    # one dimension per weight: a gauge block at every drop (k, k).  The
    # normal form is left out: the reference takes about 8 s at n = 24
    rng = random.Random(n)
    C = connection_from_delta(chain_delta(n))
    _check_against_reference(C, random_gauge(C.hodge, rng),
                             random_gauge(C.hodge, rng), normalize=False)


def test_curvature_is_gauge_covariant():
    # F -> g^{-1} F g, with g and F as polynomial matrices
    rng = random.Random(43)
    deltas = fixture_deltas() + [random_delta(rng, max_dim=6) for _ in range(20)]
    for d in deltas:
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, rng)
        n = d.hodge.dim
        assert curvature_matrix(n, curvature(apply_gauge(C, g))) == (
            gauge_inverse_matrix(g) @ curvature_matrix(n, curvature(C))
            @ gauge_matrix(g))


def test_the_gauge_layer_multiplies_values_a_fixed_number_of_times(monkeypatch):
    # each operation is matrix algebra on values at (1, 1): its count of
    # products and inverses does not grow with the weight spread
    calls = []

    def counted(f):
        def call(*args):
            calls.append(f)
            return f(*args)
        return call

    matmul, inverse = Matrix.__matmul__, Matrix.inverse
    monkeypatch.setattr(Matrix, "__matmul__", counted(matmul))
    monkeypatch.setattr(Matrix, "inverse", counted(inverse))

    def count(f, *args):
        calls.clear()
        f(*args)
        return calls.count(matmul), calls.count(inverse)

    for d in (t3_delta(2, 5), chain_delta(16), chain_delta(24)):
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, random.Random(1))
        assert count(apply_gauge, C, g) == (4, 1)
        assert count(curvature, apply_gauge(C, g)) == (2, 0)


def test_each_structure_builds_its_shape_once(monkeypatch):
    # the block order, owners, bidegree table and lowering order are fields
    # of HodgeNumbers, built at construction: no operation builds one, and
    # a command builds one per structure it validates
    from types import SimpleNamespace

    from hodgegauge import cli
    from hodgegauge.documents import parse, serialize
    from hodgegauge.splitting import delta_to_mhs

    path = holonomy.PolygonalPath([(0, 0), (2, Fraction(-1, 3)), (-1, 1)])
    cases = [(connection_from_delta(d), random_gauge(d.hodge, random.Random(1)), d)
             for d in fixture_deltas() + [t3_delta(2, 5), chain_delta(16)]]
    d = chain_delta(16)
    structure = parse(serialize(delta_to_mhs(d)), None)
    delta = parse(serialize(d), None)
    flags = SimpleNamespace(path=None, point=None)
    built = []
    init = HodgeNumbers.__init__

    def counted(self, counts):
        built.append(1)
        init(self, counts)

    monkeypatch.setattr(HodgeNumbers, "__init__", counted)
    for C, g, dobj in cases:
        for call, *args in ((apply_gauge, C, g), (curvature, C),
                            (connection_from_delta, dobj), (triangle_delta, C),
                            (holonomy.holonomy_path, C, path),
                            (normalize_fock_schwinger, C)):
            built.clear()
            call(*args)
            assert not built, call.__name__
    for command, handler in cli._HANDLERS.items():
        built.clear()
        handler(structure, flags)
        assert len(built) == (2 if command == "roundtrip" else 1), command
        built.clear()
        try:
            handler(delta, flags)
        except cli.Violation:
            pass
        assert not built, command


def _gaussian_connections(rng, count):
    """Seeded admissible connections with A + B != 0 and Gaussian entries,
    dim <= 6: the blocks of two random gauges, at every drop up to the
    weight spread."""
    out = []
    for _ in range(count):
        hodge = random_delta(rng, max_dim=6).hodge
        out.append(from_blocks(hodge, gauge_blocks(random_gauge(hodge, rng)),
                               gauge_blocks(random_gauge(hodge, rng))))
    return out


def _normal_form_cases():
    """Criterion 04's connections and their gauge changes, drawn in its
    order from its seed; each fixture connection as it is and under two
    seeded gauges; and 40 Gaussian connections."""
    rng = random.Random(4242)
    cases = []
    for _ in range(100):
        d = random_delta(rng, max_dim=5, weight_lo=-3, weight_hi=3)
        C = connection_from_delta(d)
        cases += [C, apply_gauge(C, random_gauge(d.hodge, rng))]
    rng = random.Random(43)
    for d in fixture_deltas():
        C = connection_from_delta(d)
        cases += [C] + [apply_gauge(C, random_gauge(d.hodge, rng))
                        for _ in range(2)]
    return cases + _gaussian_connections(random.Random(44), 40)


def test_normal_form_matches_the_reference_on_gaussian_connections():
    # the level-by-level polynomial route of conftest, under 0.03 s each
    for C in _gaussian_connections(random.Random(45), 60):
        assert normalize_fock_schwinger(C) == reference_normalize(C)


def test_normal_form_is_the_gauge_change_by_its_gauge():
    for C in _normal_form_cases():
        N, g = normalize_fock_schwinger(C)
        assert N.A == {pq: -M for pq, M in N.B.items()}
        assert apply_gauge(C, g) == N


def test_normal_form_gauge_is_the_ray_transport():
    # the radial gauge, read at points off the transport itself: g(x) is
    # the transport of C from the origin to x, and that of N is 1
    origin = (ZERO, ZERO)
    points = [(Scalar(2), Scalar(Fraction(-1, 3))),
              (Scalar(Fraction(1, 2), 1), Scalar(-2, 3)),
              (Scalar(0, -1), Scalar(Fraction(3, 4)))]
    rng = random.Random(46)
    cases = _gaussian_connections(rng, 20) + [
        apply_gauge(C, random_gauge(C.hodge, rng))
        for C in map(connection_from_delta, fixture_deltas())]
    for C in cases:
        N, g = normalize_fock_schwinger(C)
        one = Matrix.identity(C.hodge.dim)
        for x in points:
            assert gauge_at(g, x) == holonomy.transport_segment(C, origin, x)
            assert holonomy.transport_segment(N, origin, x) == one


def test_normal_form_takes_no_gauge_action_or_product(monkeypatch):
    # the normal form and its gauge are read off the transport walk, with
    # no gauge action, composition, matrix product or inverse
    cases = _normal_form_cases()
    expected = [normalize_fock_schwinger(C) for C in cases]

    def refuse(*args):
        raise AssertionError("the normal form took a gauge action or product")

    monkeypatch.setattr(connection, "apply_gauge", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    assert [normalize_fock_schwinger(C) for C in cases] == expected


def test_blocks_are_built_only_at_the_document_boundary(monkeypatch):
    # a connection is its two values at (1, 1): of the commands, only
    # connect files them into blocks (serialize reads A and B once each)
    # and split its log components; no operation on a connection does
    built = []
    blocks = splitting._blocks

    def counted(*args):
        built.append(1)
        return blocks(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hodgegauge.") and vars(module).get("_blocks") is blocks:
            monkeypatch.setattr(module, "_blocks", counted)
    path = holonomy.PolygonalPath([(0, 0), (2, Fraction(-1, 3)), (-1, 1)])
    product = tensor_mhs(tensor_mhs(t3(1, 2), t3(3, 4)), kummer(5))
    flags = SimpleNamespace(path=None, point=None)
    for V in (delta_to_mhs(chain_delta(16)), product):
        structure = parse(serialize(V))
        for command, handler in cli._HANDLERS.items():
            built.clear()
            handler(structure, flags)
            assert len(built) == {"connect": 2, "split": 1}.get(command, 0), command
        d = delta_operator(GrStructure(V))
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, random.Random(1))
        built.clear()
        for call, *args in ((connection_from_delta, d), (apply_gauge, C, g),
                            (triangle_delta, C), (holonomy.holonomy_path, C, path)):
            call(*args)
        assert not built
