"""The integer-vector kernel of ``upoly`` against the sparse ``Poly`` on the
univariate work it took over: products, sums, integrals from 0 and values
at 1 agree exactly on random polynomials over Q and Q(i)."""

import random
from fractions import Fraction

import pytest

from conftest import coefficients
from hodgegauge.connection import EquivariantConnection
from hodgegauge.holonomy import _segment_transport
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import HodgeNumbers
from hodgegauge.poly import Poly
from hodgegauge.scalars import ONE, ZERO, Scalar
from hodgegauge.upoly import add, at_one, hypotenuse_pullback, integral, mul, of


def _random_poly(rng, gaussian):
    # zero, constants, low degrees and degrees of 60 and more
    def coeff():
        if rng.random() < 0.3:
            return ZERO
        re = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        im = Fraction(rng.randint(-50, 50), rng.randint(1, 30)) if gaussian else 0
        return Scalar(re, im)

    degree = rng.choice((-1, 0, 0, 1, 3, 8, 60, 71))
    return Poly(1, {(k,): coeff() for k in range(degree + 1)})


def _kernel(P):
    degree = max((e for (e,) in P.terms), default=-1)
    return of([P.terms.get((k,), ZERO) for k in range(degree + 1)])


def _poly(f):
    # the representation: no trailing zero in either part, d positive
    re, im, d = f
    assert d > 0 and (not re or re[-1]) and (not im or im[-1])
    return Poly(1, {(k,): c for k, c in enumerate(coefficients(f))})


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
def test_kernel_matches_poly(gaussian):
    rng = random.Random(30 + gaussian)
    high = cancelled = 0
    for _ in range(200):
        # over Q(i), one operand in three is rational, as when a walk
        # multiplies a rational pullback by a Gaussian entry
        P = _random_poly(rng, gaussian)
        Q = _random_poly(rng, gaussian and rng.random() < 2 / 3)
        if rng.random() < 0.2:  # a sum whose top terms cancel
            Q = Q - P if len(Q.terms) < len(P.terms) else -P
        p, q = _kernel(P), _kernel(Q)
        assert _poly(p) == P
        assert _poly(mul(p, q)) == _poly(mul(q, p)) == P * Q
        assert _poly(add(p, q)) == P + Q
        assert _poly(integral(p)) == P.antiderivative()
        assert at_one(p) == P.eval((ONE,))
        high += max(len(p[0]), len(p[1])) > 60
        cancelled += len((P + Q).terms) < max(len(P.terms), len(Q.terms))
    assert high >= 20 and cancelled >= 20


@pytest.mark.parametrize("a, b, product", [
    # a part of a Gaussian product cancels, up to its top coefficient
    ([ONE, Scalar(0, 1)], [ONE, Scalar(0, -1)], [ONE, ZERO, ONE]),
    ([Scalar(1, 1)], [Scalar(1, 1)], [Scalar(0, 2)]),
    ([ZERO, Scalar(1, 1)], [ZERO, Scalar(1, -1)], [ZERO, ZERO, Scalar(2)]),
    ([], [Scalar(3, 1)], []),
])
def test_gaussian_products_trim_each_part(a, b, product):
    f = mul(of(a), of(b))
    assert _poly(f) == Poly(1, {(k,): c for k, c in enumerate(product)})


def test_hypotenuse_pullback_is_its_product_formula():
    # h(s) = -(s - 1)^(p-1) (-s)^(q-1), multiplied out by the sparse Poly
    s = Poly.variable(1, 0)
    for p in range(1, 8):
        for q in range(1, 9 - p):
            h = Poly.constant(1, -ONE)
            for _ in range(p - 1):
                h = h * (s - Poly.constant(1, ONE))
            for _ in range(q - 1):
                h = h * -s
            assert _poly(hypotenuse_pullback(p, q)) == h
    # the hypotenuse walk of a one-entry Fock-Schwinger connection of
    # bidegree (p, q), rational or Gaussian: its segment factor (g, c) is
    # the closed form times the entry
    rng = random.Random(75)
    for p in range(1, 12):
        for q in range(1, 13 - p):
            hodge = HodgeNumbers({(0, 0): 1, (-p, -q): 1})
            owner = hodge.block_of_index()
            i, j = owner.index((-p, -q)), owner.index((0, 0))
            for x in (Scalar(Fraction(rng.randint(-10 ** 30, 10 ** 30), 97)),
                      Scalar(rng.randint(-9, 9), rng.randint(1, 9))):
                P = Matrix([[x if (r, c) == (i, j) else ZERO for c in range(2)]
                            for r in range(2)])
                C = EquivariantConnection(hodge, P, -P)
                assert _segment_transport(C, (-ONE, ZERO), (ZERO, -ONE)) == {
                    (i, j): integral(mul(hypotenuse_pullback(p, q), of((x,))))}
