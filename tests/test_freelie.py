import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import (
    _dynkin, assert_raises_under_optimize, greedy_from_tensor,
    lie_level_inversion, mat, reference_log_pexp,
)
from hodgegauge import cli, freelie
from hodgegauge.freelie import (
    TT_ALPHABET,
    Alphabet,
    GeneratorChangeError,
    LiePolynomial,
    NotLieElement,
    abelianized_coefficient,
    alpha_alphabet,
    bracketing,
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
from hodgegauge.scalars import ONE, FieldError, Scalar


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


def test_bracketing_evaluates_each_subword_once():
    calls = []

    def bracket(a, b):
        calls.append((a, b))
        return "[%s,%s]" % (a, b)

    memo = {}
    # 01011 = (01)(011) and 011 = (01)(1): [a,b] is needed twice
    got = bracketing((0, 1, 0, 1, 1), memo, "ab".__getitem__, bracket)
    assert got == "[[a,b],[[a,b],b]]"
    assert len(calls) == 3
    assert set(memo) == {(0,), (1,), (0, 1), (0, 1, 1), (0, 1, 0, 1, 1)}
    # the tensor expansion is the same over every alphabet, with integer
    # coefficients
    t = expand_lyndon((0, 1))
    assert t == {(0, 1): 1, (1, 0): -1}
    assert all(type(c) is int for c in t.values())


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
        a, {w: Scalar(rng.randint(-3, 3)) for w in words}
    )
    assert LiePolynomial.from_tensor(a, x.to_tensor()) == x


def test_gaussian_coordinates_refused():
    # the coordinates are rational: a coefficient off Q is refused where it
    # is read in, by the constructor and by scale
    a = alpha_alphabet(5)
    x = LiePolynomial(a, {(0,): Fraction(1, 2), (1,): 3})
    assert x.num == {(0,): 1, (1,): 6} and x.den == 2
    with pytest.raises(FieldError):
        LiePolynomial(a, {(0,): ONE, (1,): Scalar(1, 1)})
    with pytest.raises(FieldError):
        x.scale(Scalar(0, 1))
    assert x.scale(Scalar(Fraction(2, 3))) == LiePolynomial(
        a, {(0,): Fraction(1, 3), (1,): 2})


def test_non_lie_tensor_rejected():
    a = alpha_alphabet(4)
    with pytest.raises(NotLieElement):
        LiePolynomial.from_tensor(a, ({(0, 0): 1}, 1))


def _tensor_sum(*tensors):
    # pairs (numerators, d) summed over the lcm of their denominators
    d = lcm(*(e for _, e in tensors))
    out = {}
    for t, e in tensors:
        for w, c in t.items():
            out[w] = out.get(w, 0) + c * (d // e)
    return {w: c for w, c in out.items() if c}, d


def _scalar_view(tensor):
    t, d = tensor
    return {w: Scalar(Fraction(c, d)) for w, c in t.items()}


@pytest.mark.parametrize(
    "alphabet", [alpha_alphabet(6), TT_ALPHABET], ids=["alpha6", "t1t2"]
)
def test_extraction_matches_greedy_reference(alphabet):
    rng = random.Random(12)
    words = lyndon_words(alphabet, 8)
    non_lyndon = [
        w + w[:1] for w in words
        if 2 <= len(w) and alphabet.word_weight(w + w[:1]) <= 8
    ]

    def rand():
        picked = rng.sample(words, rng.randint(1, min(8, len(words))))
        return LiePolynomial(
            alphabet,
            {w: Scalar(rng.choice((-3, -2, -1, 1, 2, 3))) / rng.randint(1, 3)
             for w in picked},
        )

    cancelled = 0
    for _ in range(30):
        x, y = rand(), rand()
        # y minus part of x: the tensors of x and of this element cancel
        # on the words of x that were picked
        part = LiePolynomial(
            alphabet,
            {w: c for w, c in x.coords.items() if rng.random() < 0.5},
        )
        cancelled += not part.is_zero()
        z = y - part
        for want, tensor in (
            (x, x.to_tensor()),
            (x + z, _tensor_sum(x.to_tensor(), z.to_tensor())),
            (LiePolynomial.zero(alphabet),
             _tensor_sum(x.to_tensor(), x.scale(-1).to_tensor())),
        ):
            got = LiePolynomial.from_tensor(alphabet, tensor)
            assert got == greedy_from_tensor(alphabet, _scalar_view(tensor)) == want
        # one word that no Lie element of its length can carry alone
        bad = _tensor_sum(x.to_tensor(), ({rng.choice(non_lyndon): 1}, 1))
        with pytest.raises(NotLieElement):
            greedy_from_tensor(alphabet, _scalar_view(bad))
        with pytest.raises(NotLieElement):
            LiePolynomial.from_tensor(alphabet, bad)
    assert cancelled


def test_bracket_antisymmetry_and_jacobi():
    a = z_alphabet(6)
    rng = random.Random(9)
    words = lyndon_words(a, 3)

    def rand():
        return LiePolynomial(
            a, {w: Scalar(rng.randint(-2, 2)) for w in words}
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
            assert val == abelianized_coefficient(p, q)


def test_log_pexp_low_weights():
    ztab = universal_log_pexp(5)
    A = alpha_alphabet(5)
    assert ztab[(1, 1)].coords == {(A.index_of("a1,1"),): Scalar(-1)}
    assert ztab[(2, 1)].coords == {(A.index_of("a2,1"),): Scalar.parse("1/2")}
    assert ztab[(1, 2)].coords == {(A.index_of("a1,2"),): Scalar.parse("1/2")}
    assert ztab[(2, 2)].coords[(A.index_of("a2,2"),)] == Scalar.parse("-1/6")


def test_log_pexp_depth_two_term():
    ztab = universal_log_pexp(5)
    A = alpha_alphabet(5)
    i11 = A.index_of("a1,1")
    i21 = A.index_of("a2,1")
    # one bracket correction shows up at (3,2)
    assert ztab[(3, 2)].coords == {
        (A.index_of("a3,2"),): Scalar.parse("1/12"),
        (i11, i21): Scalar.parse("-1/12"),
    }


def test_generator_change_low_weights():
    atab = invert_generator_change(5)
    Z = z_alphabet(5)
    assert atab[(1, 1)].coords == {(Z.index_of("z1,1"),): Scalar(-1)}
    assert atab[(2, 1)].coords == {(Z.index_of("z2,1"),): Scalar(2)}


@pytest.mark.parametrize("N", range(2, 11))
def test_inversion_matches_the_lie_level_reference(N):
    assert invert_generator_change(N) == lie_level_inversion(N)


@pytest.mark.parametrize("N", [2, 5, 8, 10])
def test_inversion_extracts_each_entry_once(N, monkeypatch):
    universal_log_pexp(N)  # the z table's own extraction is not counted
    calls = []
    extract = LiePolynomial.from_tensor

    def counted(cls, alphabet, tensor):
        calls.append(alphabet)
        return extract(alphabet, tensor)

    def forbidden(*args, **kwargs):
        raise AssertionError("the inversion left the tensor algebra")

    monkeypatch.setattr(LiePolynomial, "from_tensor", classmethod(counted))
    monkeypatch.setattr(LiePolynomial, "bracket", forbidden)
    monkeypatch.setattr(LiePolynomial, "substitute_lie", forbidden)
    invert_generator_change(N)
    assert len(calls) == N * (N - 1) // 2
    assert set(calls) == {z_alphabet(N)}


@pytest.mark.parametrize("N", [5, 9])
def test_generator_change_roundtrip(N):
    ztab = universal_log_pexp(N)
    atab = generator_change_table(N)
    Z = z_alphabet(N)
    mapping = {"a%d,%d" % k: atab[k] for k in atab}
    for d in range(2, N + 1):
        for p in range(1, d):
            q = d - p
            back = ztab[(p, q)].substitute_lie(Z, mapping)
            assert back == LiePolynomial.generator(
                Z, Z.index_of("z%d,%d" % (p, q))
            )


def _internal_nodes(w):
    """The distinct subwords of length >= 2 in the bracketing of w."""
    if len(w) == 1:
        return set()
    u, v = standard_factorization(w)
    return {w} | _internal_nodes(u) | _internal_nodes(v)


@pytest.mark.parametrize(
    "word", [(0, 1), (0, 0, 1), (0, 0, 1, 0, 1), (0, 1, 0, 1, 1),
             (0, 0, 1, 0, 1, 1)]
)
def test_substitute_lie_extracts_after_every_bracket(word, monkeypatch):
    # lie_level_inversion checks the tensor-level inversion only while
    # substitute_lie stays in Lyndon coordinates: one extraction per
    # distinct bracket of the word, none skipped and none repeated
    Z = z_alphabet(4)
    mapping = {
        "t1": LiePolynomial.generator(Z, 0) + LiePolynomial.generator(Z, 2),
        "t2": LiePolynomial.generator(Z, 1),
    }
    calls = []
    extract = LiePolynomial.from_tensor

    def counted(cls, alphabet, tensor):
        calls.append(alphabet)
        return extract(alphabet, tensor)

    monkeypatch.setattr(LiePolynomial, "from_tensor", classmethod(counted))
    got = LiePolynomial(TT_ALPHABET, {word: ONE}).substitute_lie(Z, mapping)
    assert not got.is_zero()
    assert len(calls) == len(_internal_nodes(word))
    assert set(calls) == {Z}


def test_substitute_matrices():
    a = alpha_alphabet(4)
    m1 = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    m2 = mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    x = LiePolynomial.generator(a, a.index_of("a1,1"))
    assert x.substitute({"a1,1": m1}) == m1
    br = LiePolynomial(
        a, {(a.index_of("a1,1"), a.index_of("a2,1")): ONE}
    )
    got = br.substitute({"a1,1": m1, "a2,1": m2})
    assert got == m1 @ m2 - m2 @ m1


def test_commutant_generators_low():
    phis = commutant_generators(3)
    assert phis[(1, 1)].coords == {(0, 1): ONE}
    assert phis[(2, 1)].coords == {(0, 0, 1): ONE}


def test_commutant_generation_weight_6():
    dims = verify_commutant_generation(6)
    for (p, q), d in dims.items():
        assert d == witt_bidegree(p, q)


@pytest.mark.parametrize("N, brackets", [(8, 41), (10, 179)])
def test_commutant_check_brackets_each_word_once(N, brackets, monkeypatch):
    phis = commutant_generators(N)  # their own brackets are not counted
    monkeypatch.setattr(freelie, "commutant_generators", lambda n: phis)
    calls = []
    bracket = LiePolynomial.bracket

    def counted(x, y):
        calls.append(1)
        return bracket(x, y)

    monkeypatch.setattr(LiePolynomial, "bracket", counted)
    verify_commutant_generation(N)
    words = lyndon_words(z_alphabet(N), N)
    assert len(calls) == sum(len(w) >= 2 for w in words) == brackets


def test_inversion_reports_bad_leading_coefficient():
    # all leading coefficients up to the CLI cap are nonzero
    for d in range(2, cli.TRUNCATION_CAP + 1):
        for p in range(1, d):
            assert abelianized_coefficient(p, d - p) != 0


def _all_pairs_mul(a, b, alphabet, N):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if alphabet.word_weight(w) <= N:
                out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def test_ts_mul_matches_all_pairs_product():
    # integer series bucketed by the weights of their words, as the
    # enumeration of the iterated integrals knows them
    A = alpha_alphabet(6)
    rng = random.Random(11)

    def rand_series():
        out = {}
        for _ in range(rng.randint(0, 25)):
            w = tuple(rng.randrange(len(A)) for _ in range(rng.randint(0, 3)))
            out[w] = out.get(w, 0) + rng.randint(-3, 3)
        return out

    def bucketed(series):
        out = {}
        for w, c in series.items():
            if c:
                out.setdefault(A.word_weight(w), {})[w] = c
        return out

    over_cap = 0
    for _ in range(40):
        N = rng.randint(2, 12)
        a, b = rand_series(), rand_series()
        over_cap += sum(
            A.word_weight(wa + wb) > N for wa in a for wb in b
        )
        got = freelie._ts_mul(bucketed(a), bucketed(b), N)
        assert got == bucketed(_all_pairs_mul(a, b, A, N))
    assert over_cap > 0


@pytest.mark.parametrize("N", range(2, 11))
def test_log_pexp_matches_the_scalar_reference(N):
    assert universal_log_pexp(N) == reference_log_pexp(N)


def test_tables_make_no_scalar_arithmetic(scalar_arithmetic):
    # the series, the log, the extraction and the inversion run on
    # integers; only the readout makes Scalars, with no arithmetic
    ztab = universal_log_pexp.__wrapped__(8)
    atab = invert_generator_change(8)
    assert scalar_arithmetic == []
    assert ztab == universal_log_pexp(8) and len(atab) == 28


def test_brackets_make_no_scalar_arithmetic(scalar_arithmetic):
    # expansion, bracket and extraction run on integer numerators over one
    # denominator, whatever the operands' denominators
    phis = commutant_generators(8)
    a = alpha_alphabet(4)
    x = LiePolynomial(a, {(0,): Fraction(1, 2), (0, 1): Fraction(-2, 3)})
    y = LiePolynomial(a, {(1,): Fraction(3, 4), (2,): 5})
    got = x.bracket(y)
    assert scalar_arithmetic == []
    assert len(phis) == 28 and phis[(2, 1)].coords == {(0, 0, 1): ONE}
    # [[a0, a1], a2] = b(012) + b(021) by Jacobi
    assert got == LiePolynomial(a, {
        (0, 1): Fraction(3, 8), (0, 2): Fraction(5, 2),
        (0, 1, 1): Fraction(-1, 2), (0, 1, 2): Fraction(-10, 3),
        (0, 2, 1): Fraction(-10, 3),
    })


def test_non_primitive_log_raises(monkeypatch):
    # {a1,1 a1,1} is not primitive: its Dynkin bracket [a1,1, a1,1] is 0;
    # the Lyndon extraction would reject it too, so match the message
    monkeypatch.setattr(
        freelie, "_ts_log", lambda x, d, N: ({(0, 0): 1}, 1)
    )
    with pytest.raises(NotLieElement, match="not primitive"):
        universal_log_pexp.__wrapped__(4)


def test_non_primitive_log_raises_under_optimize():
    assert_raises_under_optimize(
        "from hodgegauge import freelie\n"
        "freelie._ts_log = lambda x, d, N: ({(0, 0): 1}, 1)",
        "freelie.universal_log_pexp.__wrapped__(4)",
        "freelie.NotLieElement", "not primitive",
    )


def test_lyndon_minimal_non_lie_log_raises(monkeypatch):
    # the minimal word (0, 1) is Lyndon, but taking off its bracketing
    # (0, 1) - (1, 0) leaves (1, 0), which is not: the extraction, not a
    # separate check, is what finds that the log is not primitive
    monkeypatch.setattr(
        freelie, "_ts_log", lambda x, d, N: ({(0, 1): 1}, 1)
    )
    with pytest.raises(NotLieElement, match="not primitive"):
        universal_log_pexp.__wrapped__(4)


def test_lyndon_minimal_non_lie_log_raises_under_optimize():
    assert_raises_under_optimize(
        "from hodgegauge import freelie\n"
        "freelie._ts_log = lambda x, d, N: ({(0, 1): 1}, 1)",
        "freelie.universal_log_pexp.__wrapped__(4)",
        "freelie.NotLieElement", "not primitive",
    )


@pytest.mark.parametrize("N", range(2, 11))
def test_extraction_certifies_what_dynkin_certifies(N, monkeypatch):
    # Dynkin-Specht-Wever: a homogeneous z_l of length l is a Lie element
    # iff its left-nested bracketing D(z_l) is l * z_l.  The log of the
    # transport passes that test, and its Lyndon extraction gives it back.
    logs = []
    ts_log = freelie._ts_log
    monkeypatch.setattr(
        freelie, "_ts_log", lambda *args: logs.append(ts_log(*args)) or logs[-1]
    )
    universal_log_pexp.__wrapped__(N)
    ((numerators, d),) = logs
    z = {w: Scalar(Fraction(c, d)) for w, c in numerators.items()}
    A = alpha_alphabet(N)
    by_len = {}
    for w, c in z.items():
        by_len.setdefault(len(w), {})[w] = c
    for ell, part in by_len.items():
        assert _dynkin(A, part) == {w: c * ell for w, c in part.items()}
    lie = LiePolynomial.from_tensor(A, (numerators, d))
    assert lie == greedy_from_tensor(A, z)
    assert lie.to_tensor() == (numerators, d)


@pytest.mark.parametrize("N, brackets", [(6, 5), (8, 38), (10, 175)])
def test_log_pexp_brackets_only_the_words_it_extracts(N, brackets, monkeypatch):
    # one tensor bracket per multi-letter word added to the expansion memo,
    # so no primitivity check brackets anything beside the extraction
    memo = {}
    monkeypatch.setattr(freelie, "_EXPANSIONS", memo)
    calls = []
    bracket = freelie._tensor_bracket

    def counted(a, b):
        calls.append(1)
        return bracket(a, b)

    monkeypatch.setattr(freelie, "_tensor_bracket", counted)
    universal_log_pexp.__wrapped__(N)
    assert len(calls) == sum(len(w) >= 2 for w in memo) == brackets
