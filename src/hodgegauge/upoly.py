"""Univariate polynomials over Q or Q(i) on integer coefficient vectors.

A polynomial in s is a triple (re, im, d): the integer numerators of the
real and imaginary parts of its coefficients, constant term first and with
no trailing zero, over one positive denominator d.  This is the one exact
kernel for the integral of a product, int_0^s sum f g, of the free-Lie
tables and of every transport walk: a product is integer convolutions, a
sum is taken over the lcm of the denominators, and only an integral
reduces, by one gcd over all its coefficients.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, gcd, lcm

from .scalars import _coerce, _over


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _conv(a, b):
    # at these degrees (a few to ~70) this beats Kronecker packing
    if len(a) == 1:
        return [a[0] * y for y in b]
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _plus(a, b, ka=1, kb=1):
    # ka a + kb b, with no trailing zero
    return _trim([x * ka + y * kb for x, y in zip_longest(a, b, fillvalue=0)])


def of(coefficients):
    """The polynomial with the given coefficients, constant first."""
    cs = [_coerce(x) for x in coefficients]
    d = lcm(*(x._rd for x in cs), *(x._id for x in cs))
    return (_trim([x._rn * (d // x._rd) for x in cs]),
            _trim([x._in * (d // x._id) for x in cs]), d)


def mul(f, g):
    (ar, ai, ad), (br, bi, bd) = f, g
    if ai or bi:
        return (_plus(_conv(ar, br), _conv(ai, bi), 1, -1),
                _plus(_conv(ar, bi), _conv(ai, br)), ad * bd)
    return _conv(ar, br), [], ad * bd


def add(f, g):
    d = lcm(f[2], g[2])
    ka, kb = d // f[2], d // g[2]
    return _plus(f[0], g[0], ka, kb), _plus(f[1], g[1], ka, kb), d


def integral(f):
    """The antiderivative from 0: over the denominator times
    m = lcm(1..deg + 1), the coefficient of s^k is c_(k-1) m / k; then one
    gcd over all coefficients."""
    re, im, d = f
    m = lcm(*range(1, max(len(re), len(im)) + 1))
    re, im = ([0] + [x * (m // k) for k, x in enumerate(v, 1)] if v else []
              for v in (re, im))
    g = gcd(d * m, *re, *im)
    return [x // g for x in re], [x // g for x in im], d * m // g


def at_one(f):
    """The value at s = 1, a reduced Scalar."""
    return _over(sum(f[0]), sum(f[1]), f[2])


def hypotenuse_pullback(p, q):
    """The coefficient h(s) = -(s - 1)^(p-1) (-s)^(q-1) of block (p, q) of a
    Fock-Schwinger form (B = -A) pulled back to the hypotenuse
    (-1, 0) -> (0, -1), s in [0, 1]: the one pullback that the canonical
    connection and the free-Lie tables integrate.  Its coefficients are
    integers."""
    return [0] * (q - 1) + [(-1) ** (p + q - 1 - r) * comb(p - 1, r)
                            for r in range(p)], [], 1
