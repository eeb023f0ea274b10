import random
from fractions import Fraction

import pytest

from conftest import mat, span
from hodgegauge.fixtures import kummer, kummer_delta, random_delta, t3, t3_delta
from hodgegauge.linalg import Matrix


def mkron(A, B):
    rows = []
    for i in range(A.nrows):
        for k in range(B.nrows):
            rows.append(
                [A[i, j] * B[k, l] for j in range(A.ncols) for l in range(B.ncols)]
            )
    return Matrix(rows)
from hodgegauge.mhs import GrStructure, HodgeNumbers, conjugate_mhs, pure, tensor_mhs
from hodgegauge.splitting import (
    DeltaError,
    DeltaObject,
    block_permutation,
    conjugate_delta,
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
    from hodgegauge.mhs import direct_sum_mhs

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
    d = t3_delta(2, 5)
    from hodgegauge.linalg import log_unipotent

    total = Matrix.zeros(3, 3)
    for m in log_delta_components(d).values():
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
    from hodgegauge.mhs import validate_morphism

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
        for r1 in grV.block_rows[(p1, q1)]:
            v1 = grV.charts[p1 + q1].lift(r1)
            for (p2, q2), off2, h2 in dVp.hodge.blocks():
                for r2 in grVp.block_rows[(p2, q2)]:
                    v2 = grVp.charts[p2 + q2].lift(r2)
                    tens = tuple(a * b for a in v1 for b in v2)
                    cols.append(grT.gr_coords(tens, p1 + q1 + p2 + q2))
    K = Matrix.from_columns(cols)
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
