"""Free Lie algebras in Lyndon coordinates and the universal holonomy log.

Generators carry bidegrees (-p, -q); we store the positive pair (p, q) and
call p + q the weight.  An element holds its rational Lyndon coordinates,
and a tensor its coefficients, as integer numerators over one positive
denominator.  Brackets expand into the truncated tensor algebra and
re-extract, which is triangular with respect to the order on words by
(length, word) and hence exact, with no Scalar arithmetic: Scalars are made
only where a coefficient is read in or out, by the constructor, ``scale``,
``coords``, ``substitute`` and ``__str__``.  ``bracketing`` evaluates
bracketed Lyndon words in any algebra; tensor expansions have integer
coefficients and are memoized by word.

The universal tables express the logarithm of the transport along the
hypotenuse from (-1, 0) to (0, -1) as a Lie series z = sum z_{p,q} in the
connection coefficients alpha_{p,q}, and invert that (triangular) change of
generators.  The transport's iterated integrals are ``upoly`` polynomials
in s on [0, 1], over the pullback ``upoly.hypotenuse_pullback`` that the
canonical connection is solved with.  The series of their values at s = 1,
its log and the inversion's rows are integer tensors over one denominator
each, so a table makes no Scalar arithmetic.  Tables depend only on the
truncation weight and are memoized per process.

The log of the transport is primitive, and the Lyndon extraction of it is
the certificate, with no second check: ``LiePolynomial.from_tensor``
returns only once its remainder is empty, that is once z = sum c_w b(w)
over bracketed Lyndon words b(w), a Lie element; and on a Lie element the
minimal remaining word is always Lyndon, so it never rejects a true one.
"""

from __future__ import annotations

import functools
import heapq
import operator
from math import gcd, lcm

from .scalars import FieldError, Value, _coerce, _over
from .upoly import at_one, hypotenuse_pullback, integral, mul


class NotLieElement(ValueError):
    """A tensor element failed to reduce to the Lyndon basis."""


class GeneratorChangeError(ValueError):
    """A leading coefficient needed for the triangular inversion vanished."""


class Alphabet(Value):
    """Ordered list of generator labels with positive bidegrees (p, q)."""

    __slots__ = ("letters", "bidegrees", "weights")

    def __init__(self, letters):
        letters = tuple((str(lab), int(p), int(q)) for lab, p, q in letters)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(
            self, "bidegrees", tuple((p, q) for _, p, q in letters)
        )
        object.__setattr__(self, "weights", tuple(p + q for _, p, q in letters))

    def __len__(self):
        return len(self.letters)

    def word_weight(self, w):
        return sum(map(self.weights.__getitem__, w))

    def word_bidegree(self, w):
        p = sum(self.bidegrees[i][0] for i in w)
        q = sum(self.bidegrees[i][1] for i in w)
        return (p, q)

    def index_of(self, label):
        for i, (lab, _, _) in enumerate(self.letters):
            if lab == label:
                return i
        raise KeyError(label)


def _bidegree_alphabet(prefix, N):
    # one letter per (p, q), p, q >= 1, p + q <= N, by weight and then p
    return Alphabet(
        ("%s%d,%d" % (prefix, p, d - p), p, d - p)
        for d in range(2, N + 1)
        for p in range(1, d)
    )


def alpha_alphabet(N):
    """Connection-coefficient generators alpha_{p,q}, p,q >= 1, p+q <= N."""
    return _bidegree_alphabet("a", N)


def z_alphabet(N):
    """Holonomy-log generators z_{p,q} with the same bidegrees."""
    return _bidegree_alphabet("z", N)


TT_ALPHABET = Alphabet([("t1", 1, 0), ("t2", 0, 1)])


def is_lyndon(w):
    """A word is Lyndon iff it is strictly smaller than every proper suffix."""
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(alphabet, N):
    """All Lyndon words of total weight <= N, sorted by (weight, word)."""
    out = []

    def grow(word, weight):
        if word and is_lyndon(word):
            out.append(word)
        for i, wi in enumerate(alphabet.weights):
            wt = weight + wi
            if wt <= N:
                grow(word + (i,), wt)

    grow((), 0)
    out.sort(key=lambda w: (alphabet.word_weight(w), w))
    return out


def lyndon_basis(alphabet, N):
    """Lyndon words of weight <= N grouped by bidegree."""
    out = {}
    for w in lyndon_words(alphabet, N):
        out.setdefault(alphabet.word_bidegree(w), []).append(w)
    return out


def standard_factorization(w):
    """Split a Lyndon word of length >= 2 as u v with v the longest
    proper Lyndon suffix; the recursive bracketing [b(u), b(v)] is the
    classical basis element."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError("no factorization: %r is not Lyndon" % (w,))


def bracketing(w, memo, leaf, bracket):
    """The bracketed Lyndon word w evaluated with leaf(i) at each letter i
    and bracket(a, b) at each standard factorization; the value of every
    subword is stored in memo (Reutenauer, Free Lie Algebras, 5.1)."""
    out = memo.get(w)
    if out is None:
        if len(w) == 1:
            out = leaf(w[0])
        else:
            u, v = standard_factorization(w)
            out = bracket(bracketing(u, memo, leaf, bracket),
                          bracketing(v, memo, leaf, bracket))
        memo[w] = out
    return out


def _tensor_bracket(a, b):
    # ab - ba on tensors (numerators, denominator)
    (na, da), (nb, db) = a, b
    out = {}
    for wa, ca in na.items():
        for wb, cb in nb.items():
            c = ca * cb
            key = wa + wb
            out[key] = out.get(key, 0) + c
            key = wb + wa
            out[key] = out.get(key, 0) - c
    return {w: c for w, c in out.items() if c}, da * db


def _letter(i):
    return {(i,): 1}, 1


_EXPANSIONS = {}  # Lyndon word -> tensor over 1; the same over every alphabet


def expand_lyndon(w):
    """Tensor expansion of the bracketed Lyndon word, memoized by word; its
    coefficients are integers."""
    return bracketing(w, _EXPANSIONS, _letter, _tensor_bracket)[0]


def _rational(c):
    c = _coerce(c)
    if c._in:
        raise FieldError("Lie coordinates are rational, not %s" % (c,))
    return c


class LiePolynomial(Value):
    """Rational coordinates on the Lyndon basis of a free Lie algebra: the
    integer numerators ``num`` (Lyndon word -> nonzero int) over one
    positive denominator ``den``, reduced by one gcd, so that equal
    elements hold equal fields."""

    __slots__ = ("alphabet", "num", "den")

    def __init__(self, alphabet, coords):
        clean = {}
        for w, c in coords.items():
            w = tuple(w)
            c = _rational(c)
            if not c:
                continue
            if not is_lyndon(w):
                raise NotLieElement("%r is not a Lyndon word" % (w,))
            clean[w] = c
        d = lcm(*(c._rd for c in clean.values()))
        self._set(alphabet, {w: c._rn * (d // c._rd) for w, c in clean.items()}, d)

    def _set(self, alphabet, num, den):
        # num: Lyndon words to nonzero ints, over den > 0; reduced here
        g = gcd(den, *num.values())
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "num", {w: c // g for w, c in num.items()})
        object.__setattr__(self, "den", den // g)
        return self

    @classmethod
    def _of(cls, alphabet, num, den):
        return object.__new__(cls)._set(alphabet, num, den)

    @property
    def coords(self):
        """Lyndon word -> nonzero coordinate, as reduced Scalars."""
        return {w: _over(c, 0, self.den) for w, c in self.num.items()}

    @classmethod
    def generator(cls, alphabet, i):
        return cls._of(alphabet, {(i,): 1}, 1)

    @classmethod
    def zero(cls, alphabet):
        return cls._of(alphabet, {}, 1)

    @classmethod
    def from_tensor(cls, alphabet, tensor):
        """Extract Lyndon coordinates; raises NotLieElement on non-Lie input.

        The tensor is a pair (numerators, d) of a dict word -> int and a
        positive int d, for numerators / d; the work runs on the numerators.

        The minimal surviving word of a Lie element, in the order by
        (length, word), is Lyndon and appears with coefficient 1 in its own
        bracketing, whose other words are larger and of the same length.
        So the words come off one heap in that order: none is ever pushed
        below the word being processed, and an entry whose coefficient has
        cancelled since it was pushed is skipped.  It returns only when no
        word remains, so a return proves tensor = sum coords[w] * b(w).
        """
        work, d = dict(tensor[0]), tensor[1]
        heap = [(len(w), w) for w in work]
        heapq.heapify(heap)
        num = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = work.get(w)
            if c is None:
                continue
            if not is_lyndon(w):
                raise NotLieElement("minimal word %r is not Lyndon" % (w,))
            num[w] = c
            for u, cu in expand_lyndon(w).items():
                e = c * cu
                old = work.get(u)
                if old is None:
                    work[u] = -e
                    heapq.heappush(heap, (len(u), u))
                elif old == e:
                    del work[u]
                else:
                    work[u] = old - e
        return cls._of(alphabet, num, d)

    def to_tensor(self):
        """The pair (numerators, den) of the tensor expansion."""
        out = {}
        for w, c in self.num.items():
            for u, cu in expand_lyndon(w).items():
                out[u] = out.get(u, 0) + c * cu
        return {u: c for u, c in out.items() if c}, self.den

    def is_zero(self):
        return not self.num

    def _plus(self, other, sign):
        d = lcm(self.den, other.den)
        num = {w: c * (d // self.den) for w, c in self.num.items()}
        for w, c in other.num.items():
            num[w] = num.get(w, 0) + c * sign * (d // other.den)
        return LiePolynomial._of(self.alphabet, {w: c for w, c in num.items() if c}, d)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        c = _rational(c)
        num = {w: x * c._rn for w, x in self.num.items()} if c else {}
        return LiePolynomial._of(self.alphabet, num, self.den * c._rd)

    def bracket(self, other):
        t = _tensor_bracket(self.to_tensor(), other.to_tensor())
        return LiePolynomial.from_tensor(self.alphabet, t)

    def bidegree_components(self):
        out = {}
        for w, c in self.num.items():
            out.setdefault(self.alphabet.word_bidegree(w), {})[w] = c
        return {pq: LiePolynomial._of(self.alphabet, cs, self.den)
                for pq, cs in out.items()}

    def substitute(self, assignment):
        """Evaluate with generator label -> Matrix, brackets as commutators."""
        from .linalg import Matrix

        sizes = [assignment[lab].nrows
                 for lab, _, _ in self.alphabet.letters if lab in assignment]
        if not sizes:
            raise ValueError("empty assignment")
        memo = {}

        def leaf(i):
            lab = self.alphabet.letters[i][0]
            if lab not in assignment:
                raise KeyError("no matrix assigned to generator %r" % (lab,))
            return assignment[lab]

        acc = Matrix.zeros(sizes[-1], sizes[-1])
        for w, c in self.coords.items():
            m = bracketing(w, memo, leaf, lambda a, b: a @ b - b @ a)
            acc = acc + m.scale(c)
        return acc

    def substitute_lie(self, target_alphabet, mapping):
        """Evaluate with generator label -> LiePolynomial over another
        alphabet; Lyndon coordinates are extracted after every bracket."""
        memo = {}

        def leaf(i):
            return mapping[self.alphabet.letters[i][0]]

        acc = LiePolynomial.zero(target_alphabet)
        for w, c in self.coords.items():
            acc = acc + bracketing(w, memo, leaf, LiePolynomial.bracket).scale(c)
        return acc

    def __str__(self):
        """The terms by (length, word), as "c*[label]..." joined by " + "."""
        coords = self.coords
        parts = []
        for w in sorted(coords, key=lambda u: (len(u), u)):
            labels = "".join(
                "[%s]" % self.alphabet.letters[i][0] for i in w
            )
            parts.append("%s*%s" % (format_rational(coords[w]), labels))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return "LiePolynomial(%s)" % self


def format_rational(c):
    """A rational Scalar in lowest terms, with no denominator when it is 1:
    "2", "-1/2", "0"."""
    text = str(c)
    return text[:-2] if text.endswith("/1") else text


def abelianized_coefficient(p, q):
    """Exact integral of the hypotenuse pullback over [0, 1]; this is the
    leading coefficient of z_{p,q} on alpha_{p,q} and is always nonzero."""
    return at_one(integral(hypotenuse_pullback(p, q)))


def _ts_mul(a, b, N):
    # integer series bucketed by weight, {weight: {word: c}}: only buckets
    # whose weights sum to at most N are multiplied, and the product comes
    # bucketed the same way, with no empty bucket
    out = {}
    for ka, ta in a.items():
        for kb, tb in b.items():
            if ka + kb <= N:
                t = out.setdefault(ka + kb, {})
                for wa, ca in ta.items():
                    for wb, cb in tb.items():
                        key = wa + wb
                        t[key] = t.get(key, 0) + ca * cb
    out = {k: {w: c for w, c in t.items() if c} for k, t in out.items()}
    return {k: t for k, t in out.items() if t}


def _ts_log(x, d, N):
    # log(1 + x/d) = sum_k (-1)^(k+1) x^k / (k d^k) for an integer series x
    # bucketed by weight, with no empty word, over L = lcm(1..K) d^K where
    # x^(K+1) = 0; returned as (numerators by word, denominator), reduced by
    # one gcd
    powers = []
    power = x
    while power:
        powers.append(power)
        power = _ts_mul(power, x, N)
    K = len(powers)
    L = lcm(*range(1, K + 1)) * d ** K
    acc = {}
    for k, power in enumerate(powers, 1):
        f = L // (k * d ** k) * (1 if k % 2 else -1)
        for t in power.values():
            for w, c in t.items():
                acc[w] = acc.get(w, 0) + f * c
    acc = {w: c for w, c in acc.items() if c}
    g = gcd(L, *acc.values())
    return {w: c // g for w, c in acc.items()}, L // g


@functools.cache
def universal_log_pexp(N):
    """Bihomogeneous components of log of the hypotenuse transport.

    The transport solves U' = omega(s) U with
    omega(s) = sum alpha_{p,q} h_{p,q}(s), U(0) = 1, where h_{p,q} is
    ``hypotenuse_pullback(p, q)``, in the tensor algebra truncated at
    weight N; U(1) is the transport.  Returns the map (p, q) -> z_{p,q} as
    Lyndon-coordinate Lie polynomials, memoized per process.
    """
    alphabet = alpha_alphabet(N)
    weights = alphabet.weights
    # the value at s = 1 of the iterated integral of (i,) + w is
    # int_0^1 h_i P_w ds = sum_j P_w[j] m_i[j] / (d_w E), with the moments
    # m_i[j] = E int_0^1 h_i s^j ds over E = lcm(1..N - 1): every h is
    # real, and h_i P_w has degree below N - 1.  So a word needs its own
    # polynomial only to extend: the integral from 0 of h_i times that of
    # its suffix, formed once and dropped once its extensions exist
    E = lcm(*range(1, N))
    hs, moments = [], []
    for (p, q), wi in zip(alphabet.bidegrees, weights):
        h = hypotenuse_pullback(p, q)
        hs.append(h)
        moments.append([sum(c * (E // (j + k + 1)) for k, c in enumerate(h[0]))
                        for j in range(N - wi + 1)])
    state = {(): ([1], [], 1)}
    values = {}  # nonempty word -> (weight, value at s = 1 reduced as n, d)
    words = [((), 0)]
    for w, wt in words:  # grows while read, so shorter words come first
        poly = state.pop(w)
        d = poly[2] * E
        for i, wi in enumerate(weights):
            if wt + wi > N:
                break  # letters come by weight: the rest are heavier still
            v = (i,) + w
            n = sum(map(operator.mul, poly[0], moments[i]))
            if n:
                g = gcd(n, d)
                values[v] = wt + wi, n // g, d // g
            if wt + wi + weights[0] <= N:
                state[v] = integral(mul(hs[i], poly))
                words.append((v, wt + wi))
    D = lcm(*(d for _, _, d in values.values()))
    x = {}  # the values over D, bucketed by the weights found above
    for w, (wt, n, d) in values.items():
        x.setdefault(wt, {})[w] = n * (D // d)
    z = _ts_log(x, D, N)
    # the log of a group-like series is primitive, and the extraction is
    # the proof: it returns only once z = sum c_w b(w) over Lyndon words w
    try:
        lie = LiePolynomial.from_tensor(alphabet, z)
    except NotLieElement as exc:
        raise NotLieElement("log of the transport is not primitive") from exc
    comps = lie.bidegree_components()
    return {
        pq: comps.get(pq, LiePolynomial.zero(alphabet))
        for pq in alphabet.bidegrees
    }


def invert_generator_change(N):
    """Express each alpha_{p,q} as a Lie polynomial in the z generators.

    Triangular back-substitution on the total weight: z_{p,q} equals its
    leading coefficient c times alpha_{p,q} plus brackets of strictly lower
    generators, so alpha_{p,q} = (z_{p,q} - tail) / c with the lower rows
    put into the tail.  The work stays in the tensor algebra over z: one
    memo, shared by every row, maps each Lyndon word over alpha to the
    tensor of its bracketing, with the rows found so far as its leaves, and
    each row is extracted to Lyndon coordinates once.  A tensor is a pair
    (integer numerators, positive denominator): a bracket multiplies the
    denominators, and each row is reduced by one gcd.
    """
    ztab = universal_log_pexp(N)
    A = alpha_alphabet(N)
    Z = z_alphabet(N)
    out = {}
    rows = []  # row i as a tensor over Z, for the rows found so far
    memo = {}  # Lyndon word over A -> tensor over Z
    # A and Z list the same bidegrees in the same order, and a tail word
    # has only letters of lower weight, whose rows are already found
    for i, pq in enumerate(A.bidegrees):
        zpq = ztab[pq]
        c = zpq.num.get((i,))
        if not c:
            raise GeneratorChangeError(
                "vanishing leading coefficient at (%d, %d)" % pq
            )
        tail = [(x, bracketing(w, memo, rows.__getitem__, _tensor_bracket))
                for w, x in zpq.num.items() if w != (i,)]
        # z_i is the numerators x over zpq.den, so alpha_i =
        # (zpq.den z_i - sum x t) / c: over m, the lcm of the tail's
        # denominators, then over m c, reduced by a gcd with the sign of c
        m = lcm(*(d for _, (_, d) in tail))
        acc = {(i,): zpq.den * m}
        for x, (t, d) in tail:
            f = x * (m // d)
            for u, cu in t.items():
                acc[u] = acc.get(u, 0) - f * cu
        g = gcd(m * c, *acc.values()) * (1 if c > 0 else -1)
        rows.append(({u: v // g for u, v in acc.items() if v}, m * c // g))
        out[pq] = LiePolynomial.from_tensor(Z, rows[i])
    return out


@functools.cache
def generator_change_table(N):
    """The alpha-in-z table at truncation N, memoized per process."""
    return invert_generator_change(N)


def commutant_generators(N):
    """The lifts ad(t2)^{q-1}(ad(t1)^p(t2)) in the free Lie algebra on two
    letters, for p, q >= 1 with p + q <= N."""
    t1 = LiePolynomial.generator(TT_ALPHABET, 0)
    t2 = LiePolynomial.generator(TT_ALPHABET, 1)
    out = {}
    for d in range(2, N + 1):
        for p in range(1, d):
            q = d - p
            x = t2
            for _ in range(p):
                x = t1.bracket(x)
            for _ in range(q - 1):
                x = t2.bracket(x)
            out[(p, q)] = x
    return out


def verify_commutant_generation(N):
    """Check that the lifted generators freely generate the bidegrees with
    p, q >= 1 up to weight N.

    For each such bidegree the Lyndon basis of the free algebra on the
    abstract z generators must map to a basis of the corresponding piece of
    the free Lie algebra on t1, t2.  Returns the per-bidegree dimensions;
    raises on any rank defect.
    """
    from .linalg import Matrix

    Z = z_alphabet(N)
    phis = commutant_generators(N)
    leaf = [phis[pq] for pq in Z.bidegrees].__getitem__
    memo = {}  # Lyndon word over Z -> its image, shared by all bidegrees
    zbasis = lyndon_basis(Z, N)
    tbasis = lyndon_basis(TT_ALPHABET, N)
    dims = {}
    for pq in Z.bidegrees:
        zwords = zbasis.get(pq, [])
        twords = tbasis.get(pq, [])
        index = {w: i for i, w in enumerate(twords)}
        rows = []
        for w in zwords:
            img = bracketing(w, memo, leaf, LiePolynomial.bracket)
            # the numerators alone: scaling a row keeps the rank
            row = [0] * len(twords)
            for u, c in img.num.items():
                row[index[u]] = c
            rows.append(row)
        if len(zwords) != len(twords):
            raise NotLieElement(
                "bidegree %r: %d abstract basis words vs %d"
                % (pq, len(zwords), len(twords))
            )
        if twords and Matrix(rows).rank() != len(twords):
            raise NotLieElement("rank defect in bidegree %r" % (pq,))
        dims[pq] = len(twords)
    return dims

