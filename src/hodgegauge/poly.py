"""Sparse exact polynomials and polynomial matrices.

Supports one- and two-variable polynomials over Scalar.  Exponent tuples
index the terms, and exponents may be negative (Laurent polynomials);
LaurentError is raised only where the mathematics fails, at the
antiderivative of x^-1 and at substitution into a negative power.  Used
for connection forms, gauge changes and patching functions; the integrals
along a segment and along the hypotenuse run on ``upoly``.  ``powers`` is
the one cache of the powers of a polynomial, for substitution and the Rees
line alike.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, Value, _coerce
from .linalg import DimensionMismatch, Matrix


_new = object.__new__
_set = object.__setattr__


class LaurentError(ValueError):
    """A negative exponent where the operation has no polynomial answer."""


class Poly(Value):
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent arity %d != nvars %d" % (len(exps), nvars))
            coeff = _coerce(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, nvars, terms):
        # internal constructor for kernel results: Scalar coefficients on
        # exponent tuples already valid for nvars; drops zeros
        p = _new(cls)
        _set(p, "nvars", nvars)
        _set(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: _coerce(c)})

    @classmethod
    def monomial(cls, nvars, exps, c=ONE):
        return cls(nvars, {tuple(exps): _coerce(c)})

    @classmethod
    def variable(cls, nvars, idx):
        exps = [0] * nvars
        exps[idx] = 1
        return cls(nvars, {tuple(exps): ONE})

    def is_zero(self):
        return not self.terms

    def _compat(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("nvars %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, ZERO) + c
        return Poly._of(self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._compat(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                terms[key] = terms.get(key, ZERO) + ca * cb
        return Poly._of(self.nvars, terms)

    def scale(self, c):
        c = _coerce(c)
        return Poly._of(self.nvars, {e: c * x for e, x in self.terms.items()})

    def diff(self, var):
        terms = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = exps[:var] + (e - 1,) + exps[var + 1 :]
            terms[key] = terms.get(key, ZERO) + c * Scalar(e)
        return Poly._of(self.nvars, terms)

    def subs(self, var, repl):
        """Substitute the polynomial `repl` for variable `var`.

        The substituted variable must appear with non-negative exponents only.
        `repl` is a polynomial in the full new variable set; remaining
        variables keep their positions.
        """
        if repl.nvars != self.nvars:
            raise DimensionMismatch("substitution arity mismatch")
        out = Poly._of(self.nvars, {})
        rpow = powers(repl)
        for exps, c in self.terms.items():
            e = exps[var]
            if e < 0:
                raise LaurentError("cannot substitute into negative power")
            rest = exps[:var] + (0,) + exps[var + 1 :]
            mono = Poly._of(self.nvars, {rest: c})
            out = out + mono * rpow(e)
        return out

    def eval(self, point):
        """Evaluate at a tuple of Scalars (nonzero where an exponent is
        negative)."""
        acc = ZERO
        for exps, c in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    c = c * x ** e
            acc = acc + c
        return acc

    def antiderivative(self):
        """Antiderivative in the first variable, with no constant term."""
        terms = {}
        for exps, c in self.terms.items():
            e = exps[0]
            if e == -1:
                raise LaurentError("no rational antiderivative of 1/x")
            terms[(e + 1,) + exps[1:]] = c / Scalar(e + 1)
        return Poly._of(self.nvars, terms)

    def integrate(self, a, b):
        """Exact definite integral over [a, b]."""
        if self.nvars != 1:
            raise ValueError("definite integration needs a univariate polynomial")
        F = self.antiderivative()
        return F.eval((b,)) - F.eval((a,))


def powers(p):
    """The map k -> p^k, forming each power once, from the one below it."""
    table = [Poly._of(p.nvars, {(0,) * p.nvars: ONE})]

    def power(k):
        while len(table) <= k:
            table.append(table[-1] * p)
        return table[k]

    return power


class PolyMatrix(Value):
    __slots__ = ("nvars", "rows", "ncols")

    def __init__(self, nvars, rows):
        rows = tuple(tuple(rows_i) for rows_i in rows)
        for row in rows:
            for p in row:
                if p.nvars != nvars:
                    raise DimensionMismatch("entry arity mismatch")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    @classmethod
    def _of(cls, nvars, rows, ncols):
        # internal constructor for a tuple of row tuples, each of ncols
        # Polys in nvars
        m = _new(cls)
        _set(m, "nvars", nvars)
        _set(m, "rows", rows)
        _set(m, "ncols", ncols)
        return m

    @classmethod
    def from_scalar_matrix(cls, nvars, m):
        const = (0,) * nvars
        return cls._of(
            nvars,
            tuple(
                tuple(Poly._of(nvars, {const: x}) for x in row)
                for row in m.rows
            ),
            m.ncols,
        )

    @classmethod
    def zeros(cls, nvars, r, c):
        zero = Poly._of(nvars, {})
        return cls._of(nvars, ((zero,) * c,) * r, c)

    @classmethod
    def identity(cls, nvars, n):
        zero = Poly._of(nvars, {})
        one = Poly._of(nvars, {(0,) * nvars: ONE})
        return cls._of(
            nvars,
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            ),
            n,
        )

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch")
        return PolyMatrix._of(
            self.nvars,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def _map(self, f, scalars=False):
        # f of each entry, row by row: a Matrix when f gives Scalars, else a
        # PolyMatrix in the same variables
        rows = tuple(tuple(map(f, row)) for row in self.rows)
        if scalars:
            return Matrix._of(rows, self.ncols)
        return PolyMatrix._of(self.nvars, rows, self.ncols)

    def __neg__(self):
        return self._map(Poly.__neg__)

    def __matmul__(self, other):
        if self.ncols != len(other.rows):
            raise DimensionMismatch("matmul shape mismatch")
        cols = list(zip(*other.rows)) or [()] * other.ncols
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a.is_zero() or b.is_zero():
                        continue
                    prod = a * b
                    acc = prod if acc is None else acc + prod
                if acc is None:
                    acc = Poly._of(self.nvars, {})
                out_row.append(acc)
            out.append(tuple(out_row))
        return PolyMatrix._of(self.nvars, tuple(out), other.ncols)

    def scale_poly(self, p):
        return self._map(p.__mul__)

    def diff(self, var):
        return self._map(lambda p: p.diff(var))

    def subs(self, var, repl):
        return self._map(lambda p: p.subs(var, repl))

    def eval(self, point):
        return self._map(lambda p: p.eval(point), scalars=True)

    def is_zero(self):
        return all(p.is_zero() for row in self.rows for p in row)

    def commutator(self, other):
        return self @ other - other @ self

    def coefficient_matrix(self, exps):
        """Scalar matrix of the coefficient of the given monomial."""
        exps = tuple(exps)
        return self._map(lambda p: p.terms.get(exps, ZERO), scalars=True)

    def support(self):
        s = set()
        for row in self.rows:
            for p in row:
                s.update(p.terms)
        return s

    def integrate(self, a, b):
        return self._map(lambda p: p.integrate(a, b), scalars=True)
