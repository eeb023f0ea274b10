import random
from fractions import Fraction

import pytest

from conftest import mat, sc
from hodgegauge.linalg import DimensionMismatch, Matrix
from hodgegauge.poly import LaurentError, Poly, PolyMatrix, powers
from hodgegauge.scalars import ONE, ZERO, Scalar


def t(i=0, nvars=1):
    return Poly.variable(nvars, i)


def const(c, nvars=1):
    return Poly.constant(nvars, sc(c))


def test_arithmetic_and_equality():
    p = (t() + const(1)) * (t() - const(1))
    assert p == t() * t() - const(1)
    assert (p - p).is_zero()


def test_diff():
    p = t() * t() * t()
    assert p.diff(0) == (t() * t()).scale(Scalar(3))
    assert const(5).diff(0).is_zero()


def test_antiderivative_inverts_diff():
    p = t() * t() + t().scale(Scalar(2)) + const(3)
    assert p.antiderivative().diff(0) == p


def test_integrate_examples():
    # segment integrals used by the transport layer
    assert const(1).integrate(-ONE, ZERO) == ONE
    assert (-t()).integrate(-ONE, ZERO) == Scalar(Fraction(1, 2))
    assert const(-1).integrate(-ONE, ZERO) == -ONE


def test_eval_two_vars():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * y + x.scale(Scalar(2))
    assert p.eval((Scalar(3), Scalar(5))) == Scalar(21)


def test_laurent_eval_and_subs_guard():
    q = Poly(1, {(-2,): ONE})
    assert q.eval((Scalar(2),)) == Scalar(Fraction(1, 4))
    with pytest.raises(LaurentError):
        q.subs(0, Poly.variable(1, 0) + Poly.constant(1, ONE))


def test_antiderivative_of_reciprocal_raises():
    with pytest.raises(LaurentError) as err:
        Poly(1, {(-1,): ONE}).antiderivative()
    assert str(err.value) == "no rational antiderivative of 1/x"


def test_negative_powers_integrate():
    # x^-2 integrates to -x^-1
    q = Poly(1, {(-2,): ONE})
    assert q.antiderivative() == Poly(1, {(-1,): -ONE})
    assert q.integrate(ONE, Scalar(2)) == Scalar(Fraction(1, 2))


def test_mixed_sign_exponents():
    x = Poly.variable(1, 0)
    inv = Poly(1, {(-1,): ONE})
    assert x + inv == Poly(1, {(1,): ONE, (-1,): ONE})
    assert (inv + x) * (inv - x) == Poly(1, {(-2,): ONE, (2,): -ONE})
    assert (x * inv).terms == {(0,): ONE}
    p = Poly(2, {(-1, 2): Scalar(3), (1, -1): ONE, (0, 0): -ONE})
    assert p.eval((Scalar(2), Scalar(-1))) == Scalar(Fraction(-3, 2))
    assert (p * p).eval((Scalar(2), Scalar(-1))) == Scalar(Fraction(9, 4))


def test_subs_composition():
    p = t() * t()
    shifted = p.subs(0, t() + const(1))
    assert shifted.eval((Scalar(2),)) == Scalar(9)


def test_subs_of_a_high_power_does_not_recurse():
    # the powers of the substituted polynomial were built by one recursive
    # call per power, which overflowed the stack at exponent ~1000
    y = t(1, nvars=2)
    p = Poly(2, {(2000, 1): ONE}).subs(0, y.scale(Scalar(2)))
    assert p == Poly(2, {(0, 2001): Scalar(2 ** 2000)})


def test_powers_form_each_power_once_in_any_order(monkeypatch):
    p = Poly(2, {(1, 0): sc(Fraction(1, 2)), (0, 1): Scalar(-3), (0, 0): Scalar(0, 1)})
    want = [const(1, nvars=2)]
    for _ in range(12):
        want.append(want[-1] * p)
    products = []
    mul = Poly.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    rng = random.Random(12)
    shuffled = rng.sample(range(13), 13)
    for order in (range(13), range(12, -1, -1), shuffled + rng.choices(range(13), k=13)):
        power, top = powers(p), 0
        del products[:]
        for k in order:
            assert power(k) == want[k]
            top = max(top, k)
            # one product by p per power formed, none for a power seen before
            assert products == [p] * top


def test_polymatrix_product_and_commutator():
    a = PolyMatrix.from_scalar_matrix(1, mat([[0, 1], [0, 0]]))
    b = PolyMatrix.from_scalar_matrix(1, mat([[0, 0], [1, 0]]))
    c = a.commutator(b)
    assert c == PolyMatrix.from_scalar_matrix(1, mat([[1, 0], [0, -1]]))


def test_polymatrix_scale_and_support():
    m = PolyMatrix.from_scalar_matrix(2, mat([[1]])).scale_poly(
        Poly.monomial(2, (1, 2))
    )
    assert m.support() == {(1, 2)}
    assert m.coefficient_matrix((1, 2)) == mat([[1]])
    assert m.coefficient_matrix((0, 0)) == mat([[0]])


def test_polymatrix_diff_subs_eval():
    x = Poly.variable(2, 0)
    m = PolyMatrix(2, ((x * x,),))
    assert m.diff(0) == PolyMatrix(2, ((x.scale(Scalar(2)),),))
    at = m.eval((Scalar(3), ZERO))
    assert at == mat([[9]])


def test_integrate_segment_helper():
    m = PolyMatrix(1, ((-t(),),))
    assert m.integrate(-ONE, ZERO) == mat([[Fraction(1, 2)]])


@pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_polymatrix_keeps_its_width(r, c):
    M = PolyMatrix.zeros(1, r, c)
    assert M.shape == (r, c)
    assert (M + M).shape == (-M).shape == M.diff(0).shape == (r, c)
    assert M.subs(0, t()).shape == (r, c)
    assert M.scale_poly(t()).shape == (r, c)
    for k in (0, 2):
        assert (M @ PolyMatrix.zeros(1, c, k)).shape == (r, k)
        assert (PolyMatrix.zeros(1, k, r) @ M).shape == (k, c)
    with pytest.raises(DimensionMismatch):
        M @ PolyMatrix.zeros(1, c + 1, 1)
    assert M.eval((ONE,)).shape == M.integrate(ZERO, ONE).shape == (r, c)
    assert M.coefficient_matrix((0,)).shape == (r, c)
    assert M.eval((ONE,)) == Matrix.zeros(r, c)
    # the width is part of the value
    assert M != PolyMatrix.zeros(1, r, c + 1)
    assert PolyMatrix.from_scalar_matrix(1, Matrix.zeros(r, c)) == M
    assert PolyMatrix.identity(1, c).shape == (c, c)


def _eval_term_by_term(p, point):
    acc = ZERO
    for exps, c in p.terms.items():
        term = c
        for x, e in zip(point, exps):
            term = term * x ** e
        acc = acc + term
    return acc


@pytest.mark.parametrize("laurent", [False, True], ids=["polynomial", "laurent"])
def test_eval_matches_term_by_term(laurent):
    rng = random.Random(43)
    i = Scalar(0, 1)
    lo = -3 if laurent else 0
    for _ in range(20):
        terms = {
            (rng.randint(lo, 4), rng.randint(lo, 4)):
                Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 6))
        }
        p = Poly(2, terms)
        for point in ((ONE, ONE), (-ONE, Scalar(2)), (i, -ONE)):
            assert p.eval(point) == _eval_term_by_term(p, point)
