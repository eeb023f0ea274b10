import json
import os
import random
from fractions import Fraction

import pytest

from conftest import (
    apply,
    block_basis,
    block_permutation,
    chain_delta,
    conjugate_delta,
    conjugate_mhs,
    coords,
    direct_sum_mhs,
    fixture_deltas,
    fixture_dir,
    gapped_form,
    gr_coords,
    lift,
    log_unipotent,
    mat,
    multi_block_delta,
    pairwise_delta,
    pairwise_pieces,
    quotient_route,
    side_matrix_delta,
    span,
    sparse_form,
    validate_morphism,
)
from hodgegauge.documents import parse
from hodgegauge.fixtures import (
    corrupt_weight_step,
    kummer,
    kummer_delta,
    random_delta,
    random_mhs,
    t3,
    t3_delta,
)
from hodgegauge.linalg import InvariantError, Matrix, Subspace


def mkron(A, B):
    rows = []
    for i in range(A.nrows):
        for k in range(B.nrows):
            rows.append(
                [A[i, j] * B[k, l] for j in range(A.ncols) for l in range(B.ncols)]
            )
    return Matrix(rows)
from hodgegauge.mhs import (
    ComplexMHS,
    Filtration,
    GrStructure,
    HodgeNumbers,
    OpposednessViolation,
    RealMHS,
    dual_mhs,
    pure,
    realize_real,
    tensor_mhs,
)
from hodgegauge.splitting import (
    DeltaError,
    DeltaObject,
    _adapted_pieces,
    delta_operator,
    delta_to_mhs,
    log_delta_components,
    splitting_subspaces,
)
from hodgegauge.scalars import ONE, Scalar, ZERO


def test_pure_splitting_is_everything():
    V = pure(1, 2)
    for side in ("Fp", "Fpp"):
        pieces = splitting_subspaces(GrStructure(V), side)
        assert set(pieces) == {(1, 2)}
        assert pieces[(1, 2)].dim == 1


def test_kummer_splittings():
    c = Scalar(3)
    V = kummer(c)
    gr = GrStructure(V)
    fp = splitting_subspaces(gr, "Fp")
    assert fp[(0, 0)] == span(2, [[1, 0]])
    assert fp[(-1, -1)] == span(2, [[0, 1]])
    fpp = splitting_subspaces(gr, "Fpp")
    assert fpp[(0, 0)] == span(2, [[1, 3]])
    assert fpp[(-1, -1)] == span(2, [[0, 1]])


def test_splitting_side_validation():
    with pytest.raises(ValueError):
        splitting_subspaces(GrStructure(kummer(1)), "F")


def test_delta_of_kummer():
    for c in (Scalar(1), Scalar(Fraction(1, 2)), Scalar(2, 1)):
        d = delta_operator(GrStructure(kummer(c)))
        assert d.delta == Matrix(
            [[ONE, -c], [ZERO, ONE]]
        )
        assert d == kummer_delta(c)


def test_delta_of_pure_sums_is_identity():
    V = direct_sum_mhs(pure(0, 0), pure(-1, 2))
    assert delta_operator(GrStructure(V)).delta == Matrix.identity(2)


def test_delta_object_shape_enforced():
    h = HodgeNumbers({(0, 0): 1, (-1, -1): 1})
    with pytest.raises(DeltaError):
        DeltaObject(h, mat([[1, 0], [5, 1]]))  # raises, wrong direction
    with pytest.raises(DeltaError):
        DeltaObject(h, mat([[2, 0], [0, 1]]))  # diagonal must be identity
    h2 = HodgeNumbers({(0, 0): 1, (-1, 1): 1})
    with pytest.raises(DeltaError):
        DeltaObject(h2, mat([[1, 1], [0, 1]]))  # only q raised, p not lowered


def test_log_components_kummer():
    comps = log_delta_components(kummer_delta(Scalar(4)))
    assert set(comps) == {(1, 1)}
    assert comps[(1, 1)] == mat([[0, -4], [0, 0]])


def test_log_components_t3():
    comps = log_delta_components(t3_delta(2, 5))
    assert set(comps) == {(1, 1), (2, 2)}
    assert comps[(1, 1)] == mat([[0, 5, 0], [0, 0, 2], [0, 0, 0]])
    # the depth-2 part of log(1 + N) is -N^2/2
    assert comps[(2, 2)] == mat(
        [[0, 0, Fraction(-5, 1)], [0, 0, 0], [0, 0, 0]]
    )


def test_log_components_sum_to_log():
    # the walk against the power series of log_unipotent: on every fixture
    # delta, the chains at n = 16 and 24, and seeded random deltas, rational
    # and Gaussian; each entry of component (a, b) lowers by (a, b)
    rng = random.Random(38)
    deltas = [t3_delta(2, 5), *fixture_deltas(), chain_delta(16), chain_delta(24)]
    deltas += [random_delta(rng, gaussian=k % 2 == 1) for k in range(40)]
    for d in deltas:
        n = d.hodge.dim
        bidegrees = d.hodge.bidegrees()
        total = Matrix.zeros(n, n)
        for key, m in log_delta_components(d).items():
            assert all(bidegrees[i][j] == key for i, row in enumerate(m.rows)
                       for j, x in enumerate(row) if x)
            total = total + m
        assert total == log_unipotent(d.delta)


def test_delta_to_mhs_roundtrip():
    for d in (kummer_delta(Scalar(2, 1)), t3_delta(1, 1), t3_delta(-2, 3)):
        V = delta_to_mhs(d)
        assert delta_operator(GrStructure(V)) == d


def test_delta_to_mhs_model_isomorphic_to_kummer():
    c = Scalar(5)
    model = delta_to_mhs(kummer_delta(c))
    V = kummer(c)
    # basis swap: the model lists the (-1,-1) line first
    g = mat([[0, 1], [1, 0]])
    assert validate_morphism(g, model, V)
    assert validate_morphism(g.inverse(), V, model)


def test_roundtrip_on_random_data():
    rng = random.Random(17)
    for _ in range(8):
        d = random_delta(rng, max_dim=5, weight_lo=-4, weight_hi=4)
        assert delta_operator(GrStructure(delta_to_mhs(d, check=False))) == d


def test_tensor_functoriality():
    V = kummer(2)
    Vp = kummer(Scalar(0, 1))
    T = tensor_mhs(V, Vp)
    grV = GrStructure(V)
    grVp = GrStructure(Vp)
    grT = GrStructure(T)
    dV = delta_operator(grV)
    dVp = delta_operator(grVp)
    dT = delta_operator(grT)
    # the graded comparison map of a tensor product is the tensor of the
    # comparison maps, read through the canonical identification
    cols = []
    for (p1, q1), off1, h1 in dV.hodge.blocks():
        for r1 in block_basis(grV, (p1, q1)):
            v1 = lift(grV, r1, p1 + q1)
            for (p2, q2), off2, h2 in dVp.hodge.blocks():
                for r2 in block_basis(grVp, (p2, q2)):
                    v2 = lift(grVp, r2, p2 + q2)
                    tens = tuple(a * b for a in v1 for b in v2)
                    cols.extend(gr_coords(grT, coords(grT, [tens]), p1 + q1 + p2 + q2))
    K = Matrix(cols).transpose()
    assert dT.delta @ K == K @ mkron(dV.delta, dVp.delta)


def test_block_permutation_is_permutation():
    h = HodgeNumbers({(0, -1): 1, (-1, 0): 2, (0, 0): 1})
    P = block_permutation(h)
    assert P @ P.transpose() == Matrix.identity(4)


def test_conjugate_delta_matches_structure_path():
    for c in (Scalar(2, 1), Scalar(Fraction(-1, 3))):
        V = kummer(c)
        direct = conjugate_delta(delta_operator(GrStructure(V)))
        via_mhs = delta_operator(GrStructure(conjugate_mhs(V)))
        assert direct == via_mhs
        assert direct.delta == Matrix(
            [[ONE, c.conjugate()], [ZERO, ONE]]
        )


def test_conjugate_delta_involution():
    d = t3_delta(Scalar(1, 1), 4)
    assert conjugate_delta(conjugate_delta(d)) == d


def _structure_fixtures():
    names = sorted(f for f in os.listdir(fixture_dir())
                   if f.endswith(".json") and not f.startswith(("delta_", "connection_")))
    out = []
    for name in names:
        with open(os.path.join(fixture_dir(), name)) as fh:
            V = parse(json.load(fh))
        out.append(realize_real(V) if isinstance(V, RealMHS) else V)
    return out


def _moved(V, g):
    """V carried onto the same space by the invertible matrix g."""
    return ComplexMHS(V.n, *(
        Filtration(f.direction, V.n, {k: apply(s, g) for k, s in f.steps.items()})
        for f in (V.W, V.Fp, V.Fpp)
    ))


def _random_invertible(rng, n):
    while True:
        g = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if g.rank() == n:
            return g


def _differential_structures():
    out = _structure_fixtures()
    assert len(out) == 24
    rng = random.Random(15)
    randoms = [random_mhs(rng, max_dim=8, weight_lo=-4, weight_hi=4)
               for _ in range(24)]
    # delta_to_mhs puts W and F' on the unit vectors; moved, no filtration is
    # split in the coordinates the adapted basis starts from
    out += randoms + [_moved(V, _random_invertible(rng, V.n)) for V in randoms]
    built = [
        tensor_mhs(kummer(Scalar(2, 1)), t3(1, -1)),
        tensor_mhs(randoms[0], randoms[1]),
        dual_mhs(t3(Scalar(0, 1), 3)),
        dual_mhs(randoms[2]),
        direct_sum_mhs(kummer(3), t3(2, Scalar(1, -1))),
        direct_sum_mhs(randoms[3], randoms[4]),
    ]
    return out + built + [conjugate_mhs(V) for V in built]


def test_delta_matches_the_graded_coordinate_route():
    seen = set()
    for V in _differential_structures():
        gr = GrStructure(V)
        d = delta_operator(gr)
        assert d == side_matrix_delta(gr)
        seen.add(d.delta == Matrix.identity(gr.hodge.dim))
    assert seen == {True, False}


def test_pieces_match_the_pairwise_route():
    # structures with several blocks per weight, moved into general position
    # by a Gaussian matrix; each also with the leading full steps of F' and
    # F'' left implicit or with a step dropped between two others, and with
    # a weight step moved up: splitting subspaces (the adapted pieces moved
    # back) and delta against one intersection per block, and the violation
    # against the grid
    rng = random.Random(47)
    seen, sizes = set(), set()
    for i in range(80):
        V = delta_to_mhs(multi_block_delta(rng, (6, 9, 12, 16)[i % 4]), check=False)
        sizes.add(V.n)
        while True:
            g = Matrix([[Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
                         if rng.random() < 0.3 else ZERO
                         for _ in range(V.n)] for _ in range(V.n)])
            if g.rank() == V.n:
                break
        V = _moved(V, g)
        forms = (("moved", V),
                 ("sparse", sparse_form(V)) if i % 2 else ("gapped", gapped_form(V, rng)),
                 ("corrupt", corrupt_weight_step(V, rng)))
        for kind, U in forms:
            try:
                gr = GrStructure(U)
            except OpposednessViolation as e:
                assert (e.weight, e.p, e.q, e.h) == quotient_route(U)[1], kind
                seen.add((kind, False))
                continue
            assert all(sum(p + q == n for p, q in gr.hodge.counts) >= 2
                       for n in gr.hodge.weights())
            if kind != "sparse":
                # a sparse form has the filtrations of V, so its pieces
                ref = {side: pairwise_pieces(gr, side) for side in ("Fp", "Fpp")}
            for side, pieces in ref.items():
                assert gr.hodge.counts == {pq: s.dim for pq, s in pieces.items()}
                assert list(splitting_subspaces(gr, side).items()) == [
                    (pq, Subspace.from_rows(gr.V.n, (piece.basis @ gr.basis).rows))
                    for pq, piece in pieces.items()
                ]
            assert delta_operator(gr) == pairwise_delta(gr, ref)
            seen.add((kind, True))
    assert seen >= {("moved", True), ("sparse", True), ("corrupt", False)}
    assert any(kind == "gapped" for kind, _ in seen)
    assert max(sizes) >= 14


def test_delta_takes_no_inverse_and_no_graded_coordinates(monkeypatch):
    # graded coordinates live only in conftest, so counting inverses suffices
    grs = [GrStructure(V) for V in _structure_fixtures()]
    calls = []
    real = Matrix.inverse

    def counted(*args):
        calls.append("inverse")
        return real(*args)

    monkeypatch.setattr(Matrix, "inverse", counted)
    for gr in grs:
        delta_operator(gr)
    assert calls == []
    side_matrix_delta(grs[-1])
    assert calls


def test_pieces_are_spanned_from_integer_rows(monkeypatch, scalar_arithmetic):
    # each piece's integer rows over the adapted basis are written in K^n
    # through the W rows, with no product of Scalar matrices, no Scalar
    # elimination and no Scalar arithmetic, on every fixture structure
    grs = [GrStructure(V) for V in _structure_fixtures()]
    want = [[{pq: Subspace.from_rows(gr.V.n, (piece.basis @ gr.basis).rows)
              for pq, piece in _adapted_pieces(gr, side).items()}
             for side in ("Fp", "Fpp")] for gr in grs]

    def refuse(*args):
        raise AssertionError("the splitting pieces took a Scalar route")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Subspace, "from_rows", refuse)
    scalar_arithmetic.clear()
    assert [[splitting_subspaces(gr, side) for side in ("Fp", "Fpp")]
            for gr in grs] == want
    assert scalar_arithmetic == []


@pytest.mark.parametrize("side", ["Fp", "Fpp"])
def test_a_piece_that_does_not_lift_the_graded_basis_is_an_invariant_error(side):
    # twice the canonical basis spans the same graded piece, but is not what
    # the echelon rows of the splitting piece lift
    gr = GrStructure(kummer(3))
    gr.block_rows[(0, 0)] = tuple((tuple(x + x for x in re), im)
                                  for re, im in gr.block_rows[(0, 0)])
    with pytest.raises(InvariantError, match="does not lift the graded basis"):
        splitting_subspaces(gr, side)
    with pytest.raises(InvariantError, match="does not lift the graded basis"):
        delta_operator(gr)


@pytest.mark.parametrize("name", ["t3_2_5.json", "kummer_2_plus_i.json"])
def test_the_flag_layer_makes_no_scalar_arithmetic(scalar_arithmetic, name):
    # parse, the three flags' adapted bases, the graded structure and the
    # solve for delta all run on integer rows; delta's entries are the
    # solve's integer output read as reduced Scalars, with no arithmetic
    with open(os.path.join(fixture_dir(), name)) as fh:
        V = parse(json.load(fh))
    for f in (V.W, V.Fp, V.Fpp):
        assert len(f.validate()) == V.n
    gr = GrStructure(V)
    got = delta_operator(gr)
    assert scalar_arithmetic == []
    want = t3_delta(2, 5) if name.startswith("t3") else kummer_delta(Scalar(2, 1))
    assert got == want and gr.hodge == want.hodge
