import ast
import os
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import hodgegauge
from hodgegauge.linalg import Matrix
from hodgegauge.scalars import (
    MAX_DIGITS, FieldError, I, ONE, Scalar, ZERO, _coerce,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)
scalars = st.builds(Scalar, rationals, rationals)


def test_string_forms():
    assert str(Scalar(2)) == "2/1"
    assert str(Scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3*i"
    assert str(Scalar(0, -1)) == "0/1-1/1*i"


@given(scalars)
def test_parse_inverts_str(x):
    assert Scalar.parse(str(x)) == x


def test_parse_rejects_junk():
    for bad in ("", "i", "1 + i", "1/0x", "one"):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


@given(scalars, scalars)
def test_add_sub_cancel(a, b):
    assert (a + b) - b == a


@given(scalars, scalars, st.integers(-50, 50), rationals)
def test_subtraction_adds_the_negative(s, t, k, q):
    # equal parts, not only equal values: rational and Gaussian Scalars,
    # with an int or a Fraction on either side
    rs, rt = Scalar(s.re), Scalar(t.re)
    for a, b in ((s, t), (rs, rt), (rs, t), (s, rt),
                 (s, k), (k, s), (rs, k), (k, rs),
                 (s, q), (q, s), (rs, q), (q, rs)):
        diff, total = a - b, a + (-b)
        assert type(diff) is Scalar and type(total) is Scalar
        assert (diff._re, diff._im, diff._d) == (total._re, total._im, total._d)


@given(scalars, scalars, scalars)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_division_inverts(a):
    if a:
        assert (a / a) == ONE
        assert a * (ONE / a) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I ** 2 == Scalar(-1)
    assert I ** 4 == ONE
    assert Scalar(2) ** 10 == Scalar(1024)
    assert Scalar(2) ** -2 == Scalar(Fraction(1, 4))
    assert (ONE + I) ** 0 == ONE


@given(scalars, scalars)
def test_conjugate_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_norm_is_rational(a):
    assert (a * a.conjugate()).in_field("Q")


def test_field_membership():
    assert Scalar(3).in_field("Q")
    assert not I.in_field("Q")
    assert I.in_field("Qi")
    with pytest.raises(FieldError):
        ONE.in_field("R")


def test_coercion_with_ints():
    assert Scalar(1) + 1 == Scalar(2)
    assert 3 - Scalar(1) == Scalar(2)
    assert 2 * I == Scalar(0, 2)


# differential test: the integer kernel against (re, im) pairs of Fractions
small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
# parts of about 330 bits over denominators of about 330 bits
big = st.builds(Fraction, st.integers(-2 ** 330, 2 ** 330), st.integers(1, 2 ** 330))
parts = st.one_of(st.just(Fraction(0)), rationals, small, big)
integers = st.integers(-9, 9).map(Fraction)
values = st.one_of(
    st.tuples(parts, st.just(Fraction(0))),  # rational
    st.tuples(parts, parts),  # Gaussian, zero included
    st.tuples(integers, integers),  # Gaussian integers
    # parts over unrelated denominators, such as 1/3 + 1/5 i
    st.builds(lambda a, b, p, q: (Fraction(a, p), Fraction(b, q)),
              st.integers(-20, 20), st.integers(-20, 20),
              st.sampled_from((3, 7, 9, 12)), st.sampled_from((4, 5, 11, 25))),
)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def ref_div(x, y):
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return ((a * c + b * d) / norm, (b * c - a * d) / norm)


def ref_pow(x, k):
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        acc = ref_mul(acc, x)
    return ref_div((Fraction(1), Fraction(0)), acc) if k < 0 else acc


def ref_str(re, im):
    # each part as its reduced fraction
    text = "%d/%d" % (re.numerator, re.denominator)
    if not im:
        return text
    return text + "%s%d/%d*i" % ("+" if im > 0 else "-", abs(im.numerator),
                                 im.denominator)


def check(z, want):
    assert (z.re, z.im) == want
    # the stored triple (re + im i) / d is canonical: d > 0, gcd 1
    re, im, d = z._re, z._im, z._d
    assert all(type(v) is int for v in (re, im, d))
    assert d > 0 and gcd(re, im, d) == 1
    assert str(z) == ref_str(*want)
    assert Scalar.parse(str(z)) == z


@given(values, values)
def test_arithmetic_matches_fraction_pairs(xv, yv):
    x, y = Scalar(*xv), Scalar(*yv)
    check(x, xv)
    check(x + y, (xv[0] + yv[0], xv[1] + yv[1]))
    check(x - y, (xv[0] - yv[0], xv[1] - yv[1]))
    check(-x, (-xv[0], -xv[1]))
    check(x.conjugate(), (xv[0], -xv[1]))
    check(x * y, ref_mul(xv, yv))
    if y:
        check(x / y, ref_div(xv, yv))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(values, st.integers(min_value=-4, max_value=6))
def test_powers_match_fraction_pairs(xv, k):
    x = Scalar(*xv)
    if not x and k < 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        check(x ** k, ref_pow(xv, k))


@given(st.tuples(small, small), st.tuples(small, small), values)
def test_equal_values_hash_equal(av, bv, cv):
    a, b, c = Scalar(*av), Scalar(*bv), Scalar(*cv)
    assert (a == b) == (av == bv)
    if a == b:
        assert hash(a) == hash(b)
    # the same value reached by another route
    assert (a + c) - c == a
    assert hash((a + c) - c) == hash(a)


def test_parse_reduces_its_input():
    assert str(Scalar.parse("2/4")) == "1/2"
    assert Scalar.parse("2/4") == Scalar(Fraction(1, 2))
    assert str(Scalar.parse("-0/3")) == "0/1"
    assert Scalar.parse("-0/3") == ZERO
    assert str(Scalar.parse("-6/4+10/4*i")) == "-3/2+5/2*i"
    assert str(Scalar.parse("1/2-0/5*i")) == "1/2"
    assert Scalar.parse("7") == Scalar(7)


def test_zero_denominators_raise():
    for text in ("1/0", "0/0", "1/2+3/0*i"):
        with pytest.raises(ZeroDivisionError):
            Scalar.parse(text)
    for x in (ONE, I, ZERO, Scalar(Fraction(-3, 7), 2)):
        with pytest.raises(ZeroDivisionError):
            x / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_fractions_convert_and_read_back():
    # scalars imports fractions only on these paths, on first use
    x = Scalar(Fraction(3, 4))
    assert (x.re, x.im) == (Fraction(3, 4), Fraction(0))
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (I.re, I.im) == (0, 1)
    assert _coerce(Fraction(1, 2)) == Scalar.parse("1/2")
    assert str(ONE - Fraction(1, 2)) == "1/2"
    with pytest.raises(TypeError, match="cannot coerce"):
        _coerce(1.5)


def test_floats_and_strings_are_rejected():
    for bad in (0.1, 1.0, "1/2", None, complex(1, 1)):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(1, bad)
        with pytest.raises(TypeError):
            ONE + bad
    with pytest.raises(TypeError):
        Matrix([[ONE, 0.5]])


@pytest.mark.parametrize("form", ["%s", "-%s", "1/%s", "1/2-%s/3*i", "0+1/%s*i"])
def test_parse_limits_the_digits_of_each_part(form):
    # the bound holds with Python's own int-conversion limit lifted
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Scalar.parse(form % ("7" * MAX_DIGITS))
        with pytest.raises(ValueError) as exc:
            Scalar.parse(form % ("7" * (MAX_DIGITS + 1)))
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(exc.value) == (
        "scalar has a numerator or denominator of more than 4300 digits"
    )


def test_only_scalars_reads_a_scalar_field():
    # the number format lives behind one module: no other module names a
    # field of a Scalar, as an attribute or as a string
    fields = set(Scalar.__slots__)
    src = os.path.dirname(hodgegauge.__file__)
    readers = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "scalars.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        readers += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                    if (isinstance(node, ast.Attribute) and node.attr in fields)
                    or (isinstance(node, ast.Constant) and node.value in fields)]
    assert readers == []
