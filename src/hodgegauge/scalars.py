"""Exact scalar arithmetic over Q and Q(i).

A Scalar is a Gaussian rational (re + im*i) / d: three ints, d > 0 and
gcd(re, im, d) = 1, the form of ``linalg``'s rows and ``upoly``'s
polynomials, so equality is structural and a + b - b == a holds
bit-exactly.  A Gaussian product or quotient is reduced by one gcd, a sum
by Henrici's (P. Henrici, J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1), and
a rational product cancels across the diagonals.  ``re`` and ``im`` read
the parts back as reduced Fractions.  Only ints and Fractions convert to a
Scalar: floats are refused, so no floating point gets in.  ``fractions``
(which loads ``decimal`` and ``numbers``) is imported on first use, where a
Fraction is converted or a part is read, so a process that never does so
never loads it.  Plain rationals are the im == 0 case; callers that need to
stay inside Q can check ``in_field("Q")``.  No other module reads a
Scalar's fields: ``parse_parts`` reads text into a canonical triple,
``_fast`` makes the Scalar of one, ``_over`` that of any triple, and
``_ints`` writes Scalars over one denominator.

``Value`` is the one rule for every other exact object of the library:
its fields are set once, by the constructor, and two values are equal, and
hash equal, when they are of the same type and every field is equal.
"""

from __future__ import annotations

import re as _re
from math import gcd, lcm
from operator import mul


class FieldError(ValueError):
    """A scalar fell outside the requested ground field."""


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?P<re>%s)\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i)?\s*$" % _RAT
)


def _part(x):
    if isinstance(x, int):
        return int(x), 1
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError("a Scalar part must be an int or a Fraction, not %r" % (x,))


# digits allowed in a parsed numerator or denominator: Python's default
# int-conversion limit, checked here so that the bound and its message are
# ours whatever PYTHONINTMAXSTRDIGITS says
MAX_DIGITS = 4300


def _rational(text):
    # "n" or "n/d" as matched by _RAT; the denominator has no sign
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > MAX_DIGITS:
        raise ValueError(
            "scalar has a numerator or denominator of more than %d digits"
            % MAX_DIGITS
        )
    n, d = int(num), int(den or 1)
    if not d:
        raise ZeroDivisionError("zero denominator in %r" % (text,))
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def parse_parts(text):
    """The canonical triple (re, im, d) of the number text holds, with the
    errors of ``Scalar.parse``, which is ``_fast`` of it.  Each part is
    reduced on its own and set over the lcm of the two denominators, which
    leaves nothing to cancel, so no gcd is taken of the longer triple."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("not a scalar: %r" % (text,))
    a, b = _rational(m.group("re"))
    if m.group("im") is None:
        return a, 0, b
    c, e = _rational(m.group("im"))
    if m.group("sign") == "-":
        c = -c
    g = gcd(b, e)
    return a * (e // g), c * (b // g), b // g * e


_new = object.__new__


class Value:
    """An immutable value: equal to another of the same type whose fields in
    ``__slots__`` are all equal, and hashed on those fields, a dict field as
    the set of its items.  A constructor sets them with
    ``object.__setattr__``; any other assignment raises.  ``Filtration``
    compares and hashes as a flag, not by its stored steps.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self):
        return hash(tuple(
            frozenset(v.items()) if isinstance(v, dict) else v
            for v in (getattr(self, f) for f in self.__slots__)))


class Scalar:
    # (re + im i) / d as the ints (_re, _im, _d), d > 0 and gcd(re, im, d) =
    # 1; set once by the constructors and never reassigned.  It is not a
    # Value: arithmetic writes the slots of each result directly, and a
    # __setattr__ guard would slow every one.
    __slots__ = ("_re", "_im", "_d")

    def __init__(self, re=0, im=0):
        # two reduced parts over the lcm of their denominators are canonical
        (a, b), (c, e) = _part(re), _part(im)
        d = lcm(b, e)
        self._re, self._im, self._d = a * (d // b), c * (d // e), d

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self._re, self._d)

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self._im, self._d)

    @classmethod
    def parse(cls, text):
        """Parse "a/b" or "a/b+c/d*i" (canonical reduced form, explicit sign).

        Non-reduced input is reduced; a zero denominator raises
        ZeroDivisionError."""
        return _fast(*parse_parts(text))

    def __str__(self):
        re, im, d = self._re, self._im, self._d
        if not im:
            return "%d/%d" % (re, d)
        # each part over its own reduced denominator
        g, h = gcd(re, d), gcd(im, d)
        return "%d/%d%s%d/%d*i" % (
            re // g, d // g, "+" if im > 0 else "-", abs(im) // h, d // h
        )

    def __repr__(self):
        return "Scalar(%r)" % (str(self),)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return (
            self._re == other._re and self._im == other._im and self._d == other._d
        )

    def __hash__(self):
        return hash((self._re, self._im, self._d))

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, d = self._re, self._im, self._d
        c, e, k = other._re, other._im, other._d
        g = gcd(d, k)
        if g == 1:
            # coprime denominators leave nothing to cancel
            return _fast(a * k + c * d, b * k + e * d, d * k)
        s, t = k // g, d // g
        x, y = a * s + c * t, b * s + e * t
        # any common factor of x, y and the lcm d s divides g
        h = gcd(x, y, g)
        return _fast(x // h, y // h, d // h * s)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coerce(other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _fast(-self._re, -self._im, self._d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, d = self._re, self._im, self._d
        c, e, k = other._re, other._im, other._d
        if b or e:
            return _over(a * c - b * e, a * e + b * c, d * k)
        if not a or not c:
            return _fast(0, 0, 1)
        # a/d * c/k, cancelling across the diagonals first
        g, h = gcd(a, k), gcd(c, d)
        return _fast((a // g) * (c // h), 0, (d // h) * (k // g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, d = self._re, self._im, self._d
        c, e, k = other._re, other._im, other._d
        if e:
            # times the conjugate (c - e i) k, over the norm d (c^2 + e^2)
            return _over((a * c + b * e) * k, (b * c - a * e) * k,
                         d * (c * c + e * e))
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        # times k/c, a reduced rational
        return self * (_fast(k, 0, c) if c > 0 else _fast(-k, 0, -c))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return ONE / (self ** (-k))
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def conjugate(self):
        return _fast(self._re, -self._im, self._d)

    def in_field(self, tag):
        if tag == "Q":
            return self._im == 0
        if tag == "Qi":
            return True
        raise FieldError("unknown field tag %r" % (tag,))


def _fast(re, im, d):
    # the Scalar of a triple that is canonical already
    s = _new(Scalar)
    s._re, s._im, s._d = re, im, d
    return s


def _over(re, im, d):
    """The Scalar (re + im i) / d, for integers re, im and d > 0: the one
    canonical constructor, which divides out gcd(re, im, d)."""
    g = gcd(re, im, d)
    if g != 1:
        re, im, d = re // g, im // g, d // g
    return _fast(re, im, d)


def _ints(xs):
    """The Scalars xs as integers over one denominator, the rows of
    ``linalg``: (re, im, d), the tuples of their numerators over the lcm d
    of their denominators, im None when every imaginary part is 0."""
    xs = tuple(xs)
    ds = [x._d for x in xs]
    d = lcm(*ds)
    re, im = tuple([x._re for x in xs]), tuple([x._im for x in xs])
    im = im if any(im) else None
    if d != 1:  # most rows of a document are integers already
        ks = tuple(map(d.__floordiv__, ds))
        re, im = tuple(map(mul, re, ks)), im and tuple(map(mul, im, ks))
    return re, im, d


def _coerce(x):
    if type(x) is Scalar:
        return x
    try:
        return Scalar(x)
    except TypeError:
        raise TypeError("cannot coerce %r to Scalar" % (x,)) from None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
