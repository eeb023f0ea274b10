"""Exact scalar arithmetic over Q and Q(i).

A Scalar is a Gaussian rational re + im*i.  Each part is held as two Python
ints, a numerator and a positive denominator in lowest terms, so equality is
structural and a + b - b == a holds bit-exactly.  Arithmetic runs on those
ints with Henrici's gcd reductions (P. Henrici, J. ACM 3, 1956; Knuth, TAOCP
vol. 2, 4.5.1), with a fast path when both operands are rational.  ``re``
and ``im`` read the parts back as Fractions.  Only ints and Fractions
convert to a Scalar: floats are refused, so no floating point gets in.
``fractions`` (which loads ``decimal`` and ``numbers``) is imported on
first use, where a Fraction is converted or a part is read, so a process
that never does so never loads it.
Plain rationals are the im == 0 case; callers that need to stay inside Q
can check ``in_field("Q")``.  ``parse_parts`` reads a string into reduced
integer parts without making a Scalar: the flag layer keeps integer rows
(see ``linalg``), and Scalars are made where a caller reads rationals.

``Value`` is the one rule for every other exact object of the library:
its fields are set once, by the constructor, and two values are equal, and
hash equal, when they are of the same type and every field is equal.
"""

from __future__ import annotations

import re as _re
from math import gcd


class FieldError(ValueError):
    """A scalar fell outside the requested ground field."""


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?P<re>%s)\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i)?\s*$" % _RAT
)


def _add(a, b, c, d):
    """a/b + c/d in lowest terms; b, d > 0 and both inputs reduced."""
    g = gcd(b, d)
    if g == 1:
        # coprime denominators leave nothing to cancel
        return a * d + c * b, b * d
    s = d // g
    t = a * s + c * (b // g)
    # any common factor of t and b*s divides g
    g2 = gcd(t, g)
    return t // g2, (b // g2) * s


def _mul(a, b, c, d):
    """a/b * c/d in lowest terms, cancelling across the diagonals first."""
    if not a or not c:
        return 0, 1
    g1 = gcd(a, d)
    g2 = gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


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
    return n // g, d // g


def parse_parts(text):
    """The reduced parts (rn, rd, in, id) that ``Scalar.parse`` reads from
    text, with its errors, for a reader that keeps integers."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("not a scalar: %r" % (text,))
    rn, rd = _rational(m.group("re"))
    in_, id_ = 0, 1
    if m.group("im") is not None:
        in_, id_ = _rational(m.group("im"))
        if m.group("sign") == "-":
            in_ = -in_
    return rn, rd, in_, id_


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
    # (real numerator, real denominator, imaginary numerator, imaginary
    # denominator); set once by the constructors and never reassigned.  It is
    # not a Value: arithmetic writes the slots of each result directly, and
    # a __setattr__ guard would slow every one.
    __slots__ = ("_rn", "_rd", "_in", "_id")

    def __init__(self, re=0, im=0):
        self._rn, self._rd = _part(re)
        self._in, self._id = _part(im)

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self._rn, self._rd)

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self._in, self._id)

    @classmethod
    def parse(cls, text):
        """Parse "a/b" or "a/b+c/d*i" (canonical reduced form, explicit sign).

        Non-reduced input is reduced; a zero denominator raises
        ZeroDivisionError."""
        return _fast(*parse_parts(text))

    def __str__(self):
        if not self._in:
            return "%d/%d" % (self._rn, self._rd)
        return "%d/%d%s%d/%d*i" % (
            self._rn, self._rd, "+" if self._in > 0 else "-", abs(self._in), self._id
        )

    def __repr__(self):
        return "Scalar(%r)" % (str(self),)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return (
            self._rn == other._rn
            and self._in == other._in
            and self._rd == other._rd
            and self._id == other._id
        )

    def __hash__(self):
        return hash((self._rn, self._rd, self._in, self._id))

    def __bool__(self):
        return self._rn != 0 or self._in != 0

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        s = _new(Scalar)
        s._rn, s._rd = _add(self._rn, self._rd, other._rn, other._rd)
        if not self._in and not other._in:
            s._in, s._id = 0, 1
        else:
            s._in, s._id = _add(self._in, self._id, other._in, other._id)
        return s

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coerce(other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _fast(-self._rn, self._rd, -self._in, self._id)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, d = self._rn, self._rd, self._in, self._id
        e, f, g, h = other._rn, other._rd, other._in, other._id
        if not c and not g:
            s = _new(Scalar)
            s._rn, s._rd = _mul(a, b, e, f)
            s._in, s._id = 0, 1
            return s
        # (a/b + c/d i)(e/f + g/h i)
        return _fast(
            *_add(*_mul(a, b, e, f), *_mul(-c, d, g, h)),
            *_add(*_mul(a, b, g, h), *_mul(c, d, e, f)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, d = self._rn, self._rd, self._in, self._id
        e, f, g, h = other._rn, other._rd, other._in, other._id
        if not g:
            if not e:
                raise ZeroDivisionError("division by zero scalar")
            # divide each part by the rational e/f
            if e < 0:
                e, f = -e, -f
            return _fast(*_mul(a, b, f, e), *_mul(c, d, f, e))
        # multiply by the conjugate e/f - g/h i, then divide by the norm
        nn, nd = _add(*_mul(e, f, e, f), *_mul(g, h, g, h))
        rn, rd = _add(*_mul(a, b, e, f), *_mul(c, d, g, h))
        in_, id_ = _add(*_mul(c, d, e, f), *_mul(-a, b, g, h))
        return _fast(*_mul(rn, rd, nd, nn), *_mul(in_, id_, nd, nn))

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
        return _fast(self._rn, self._rd, -self._in, self._id)

    def in_field(self, tag):
        if tag == "Q":
            return self._in == 0
        if tag == "Qi":
            return True
        raise FieldError("unknown field tag %r" % (tag,))


def _fast(rn, rd, in_, id_):
    # internal constructor for parts already reduced, denominators positive
    s = _new(Scalar)
    s._rn = rn
    s._rd = rd
    s._in = in_
    s._id = id_
    return s


def _over(rn, in_, d):
    # the reduced Scalar (rn + in_ i) / d, for integers rn, in_ and d > 0
    g, h = gcd(rn, d), gcd(in_, d)
    return _fast(rn // g, d // g, in_ // h, d // h)


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
