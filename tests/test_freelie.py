import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import mat
from hodgegauge.freelie import (
    TT_ALPHABET,
    Alphabet,
    GeneratorChangeError,
    LiePolynomial,
    NotLieElement,
    abelianized_coefficient,
    alpha_alphabet,
    commutant_generators,
    expand_lyndon,
    generator_change_table,
    invert_generator_change,
    is_lyndon,
    lyndon_basis,
    lyndon_words,
    standard_factorization,
    universal_log_pexp,
    verify_commutant_generation,
    z_alphabet,
)
from hodgegauge.poly import Poly
from hodgegauge.scalars import ONE, Scalar


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _binom(n, k):
    from math import comb

    return comb(n, k)


def witt_bidegree(p, q):
    """Dimension of the (p, q) component of the free Lie algebra on two
    letters, by the necklace formula."""
    g = gcd(p, q)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += _mobius(d) * _binom((p + q) // d, p // d)
    return total // (p + q)


def test_is_lyndon():
    assert is_lyndon((0,))
    assert is_lyndon((0, 1))
    assert not is_lyndon((1, 0))
    assert not is_lyndon((0, 1, 0, 1))
    assert is_lyndon((0, 0, 1))


def test_standard_factorization():
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))


def test_single_generator_alphabet():
    a = Alphabet([("a1,1", 1, 1)])
    basis = lyndon_basis(a, 4)
    assert basis == {(1, 1): [(0,)]}  # [a,a] = 0, nothing in (2,2)


def test_two_letter_bidegree_counts():
    basis = lyndon_basis(TT_ALPHABET, 3)
    assert len(basis[(2, 1)]) == 1
    assert len(basis[(1, 1)]) == 1
    assert basis[(2, 1)] == [(0, 0, 1)]


def test_witt_counts_through_weight_8():
    basis = lyndon_basis(TT_ALPHABET, 8)
    for p in range(1, 8):
        for q in range(1, 8 - p + 1):
            assert len(basis.get((p, q), [])) == witt_bidegree(p, q)


def test_expand_extract_roundtrip():
    a = alpha_alphabet(5)
    words = lyndon_words(a, 5)
    rng = random.Random(3)
    x = LiePolynomial(
        a, {w: Fraction(rng.randint(-3, 3)) for w in words}
    )
    assert LiePolynomial.from_tensor(a, x.to_tensor()) == x


def test_non_lie_tensor_rejected():
    a = alpha_alphabet(4)
    with pytest.raises(NotLieElement):
        LiePolynomial.from_tensor(a, {(0, 0): Fraction(1)})


def test_bracket_antisymmetry_and_jacobi():
    a = z_alphabet(6)
    rng = random.Random(9)
    words = lyndon_words(a, 3)

    def rand():
        return LiePolynomial(
            a, {w: Fraction(rng.randint(-2, 2)) for w in words}
        )

    for _ in range(5):
        x, y, z = rand(), rand(), rand()
        assert x.bracket(y) == y.bracket(x).scale(-1)
        jac = (
            x.bracket(y.bracket(z))
            + y.bracket(z.bracket(x))
            + z.bracket(x.bracket(y))
        )
        assert jac.is_zero()


def test_hypotenuse_integrals():
    # checked against an independent polynomial integrator
    t = Poly.variable(1, 0)
    for p in range(1, 8):
        for q in range(1, 8 - p + 1):
            f = Poly.constant(1, -ONE)
            for _ in range(p - 1):
                f = f * t
            for _ in range(q - 1):
                f = f * (Poly.constant(1, -ONE) - t)
            val = f.integrate(-ONE, Scalar(0))
            assert val == Scalar(abelianized_coefficient(p, q))


def test_log_pexp_low_weights():
    ztab = universal_log_pexp(5)
    A = alpha_alphabet(5)
    assert ztab[(1, 1)].coords == {(A.index_of("a1,1"),): Fraction(-1)}
    assert ztab[(2, 1)].coords == {(A.index_of("a2,1"),): Fraction(1, 2)}
    assert ztab[(1, 2)].coords == {(A.index_of("a1,2"),): Fraction(1, 2)}
    assert ztab[(2, 2)].coords[(A.index_of("a2,2"),)] == Fraction(-1, 6)


def test_log_pexp_depth_two_term():
    ztab = universal_log_pexp(5)
    A = alpha_alphabet(5)
    i11 = A.index_of("a1,1")
    i21 = A.index_of("a2,1")
    # one bracket correction shows up at (3,2)
    assert ztab[(3, 2)].coords == {
        (A.index_of("a3,2"),): Fraction(1, 12),
        (i11, i21): Fraction(-1, 12),
    }


def test_generator_change_low_weights():
    atab = invert_generator_change(5)
    Z = z_alphabet(5)
    assert atab[(1, 1)].coords == {(Z.index_of("z1,1"),): Fraction(-1)}
    assert atab[(2, 1)].coords == {(Z.index_of("z2,1"),): Fraction(2)}


def test_generator_change_roundtrip_weight_5():
    ztab = universal_log_pexp(5)
    atab = generator_change_table(5)
    Z = z_alphabet(5)
    mapping = {"a%d,%d" % k: atab[k] for k in atab}
    for d in range(2, 6):
        for p in range(1, d):
            q = d - p
            back = ztab[(p, q)].substitute_lie(Z, mapping)
            assert back == LiePolynomial.generator(
                Z, Z.index_of("z%d,%d" % (p, q))
            )


def test_substitute_matrices():
    a = alpha_alphabet(4)
    m1 = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    m2 = mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    x = LiePolynomial.generator(a, a.index_of("a1,1"))
    assert x.substitute({"a1,1": m1}) == m1
    br = LiePolynomial(
        a, {(a.index_of("a1,1"), a.index_of("a2,1")): Fraction(1)}
    )
    got = br.substitute({"a1,1": m1, "a2,1": m2})
    assert got == m1 @ m2 - m2 @ m1


def test_commutant_generators_low():
    phis = commutant_generators(3)
    assert phis[(1, 1)].coords == {(0, 1): Fraction(1)}
    assert phis[(2, 1)].coords == {(0, 0, 1): Fraction(1)}


def test_commutant_generation_weight_6():
    dims = verify_commutant_generation(6)
    for (p, q), d in dims.items():
        assert d == witt_bidegree(p, q)


def test_inversion_reports_bad_leading_coefficient():
    # all leading coefficients up to the CLI cap are nonzero
    for d in range(2, 9):
        for p in range(1, d):
            assert abelianized_coefficient(p, d - p) != 0
