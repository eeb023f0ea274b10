import random
from fractions import Fraction

import pytest

from conftest import (
    _laurent_det, assert_raises_under_optimize, chain_delta, fixture_deltas,
    scalar_reduce, span, two_filtration_rees_type, unchecked_delta,
)
from hodgegauge.fixtures import kummer, kummer_delta, random_delta, t3_delta
from hodgegauge.linalg import InvariantError, Matrix, Subspace
from hodgegauge.mhs import (
    ComplexMHS, Filtration, HodgeNumbers, pure, validate_mhs,
)
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.rees import (
    W_LINE,
    P1TransitionMatrix,
    TransitionError,
    rees_patching,
    restrict_to_line,
    splitting_type,
    unipotent_line_type,
    w_line_transition,
)
from hodgegauge.scalars import ONE, Scalar, ZERO
from hodgegauge.splitting import delta_line_type, delta_operator


def laurent_matrix(entries):
    """Square Laurent matrix from dicts exponent -> coefficient."""
    return PolyMatrix(1, [
        tuple(Poly(1, {(e,): Scalar(0) + c for e, c in cell.items()})
              for cell in row)
        for row in entries
    ])


def laurent(entries):
    return P1TransitionMatrix(laurent_matrix(entries))


def _section_counts(G, twists, degree_bound):
    """Reference route: {k: dim of sections of the k-th twist} for k in
    twists, the polynomial vectors f of degree <= degree_bound such that
    every entry of G f has xi-exponent <= k.  It undercounts when
    degree_bound is too small.  Twist k forbids the exponents above k, so
    with one constraint row per (forbidden exponent, entry), ordered by
    falling exponent, its constraints are a prefix, and one reduction of
    the rows in that order, keeping each row independent of those before
    it, ranks every prefix."""
    r = G.rank
    m = G.matrix
    ncoef = degree_bound + 1
    constraints = {}  # one row per (-exponent, entry)
    for i in range(r):
        for j in range(r):
            for (e,), c in m[i, j].terms.items():
                for d in range(ncoef):
                    if e + d > min(twists):
                        vec = constraints.setdefault((-e - d, i), [ZERO] * (r * ncoef))
                        vec[j * ncoef + d] = vec[j * ncoef + d] + c
    keys = sorted(constraints)
    reduced = scalar_reduce((constraints[key] for key in keys), range(r * ncoef))
    kept = [key for key, (j, _) in zip(keys, reduced) if j is not None]
    return {k: r * ncoef - sum(-x > k for x, _ in kept) for k in twists}


def _h0(G, k, degree_bound):
    """Sections of the k-th twist alone, as ``_section_counts`` counts them."""
    return _section_counts(G, [k], degree_bound)[k]


def _check_section_counts(G):
    """h0(E(k)) = sum max(0, a_i + k + 1) for the computed type a, on every
    twist k from below the first section to past the last jump, all from
    one elimination at the largest degree bound the twists need."""
    t = splitting_type(G)
    M = max(
        (abs(e) for row in G.matrix.rows for p in row for (e,) in p.terms), default=0
    )
    twists = range(-max(t) - 2, -min(t) + 2)
    counts = _section_counts(
        G, twists, 2 * M + G.rank + max(abs(k) for k in twists) + 2)
    for k in twists:
        assert counts[k] == sum(max(0, a + k + 1) for a in t), (t, k)
    return t


def _product(rng, a):
    """A(1/xi) diag(xi^{-a}) B(xi) with A, B unitriangular of degree <= 1,
    upper and lower, so the bundle it presents has type a."""
    r = len(a)

    def entry(i, j, sign):
        if i == j:
            return {0: 1}
        if (i < j) != (sign < 0):
            return {}
        return {0: rng.randint(-2, 2), sign: rng.randint(-2, 2)}

    A = laurent([[entry(i, j, -1) for j in range(r)] for i in range(r)])
    D = laurent([[{-a[i]: 1} if i == j else {} for j in range(r)] for i in range(r)])
    B = laurent([[entry(i, j, 1) for j in range(r)] for i in range(r)])
    return P1TransitionMatrix(A.matrix @ D.matrix @ B.matrix)


def test_patching_identity():
    d = kummer_delta(0)
    phi = rees_patching(d)
    assert phi == PolyMatrix.identity(2, 2)


def test_patching_kummer_entry():
    c = Scalar(3)
    phi = rees_patching(kummer_delta(c))
    # off-diagonal slot carries -c xi0^2 xi1^{-1}
    assert phi[0, 1].terms == {(2, -1): -c}
    assert phi[0, 0].terms == {(0, 0): ONE}


def _deltas():
    """Every fixture delta, the n = 16 and 24 chains, and 40 seeded
    random_delta draws, half of them rational and half Gaussian."""
    rng = random.Random(37)
    return fixture_deltas() + [chain_delta(16), chain_delta(24)] + [
        random_delta(rng, gaussian=k % 2 == 1) for k in range(40)]


def test_patching_at_ones_is_delta():
    # the rees report's patching_at_ones_is_delta: each entry of Phi is the
    # delta entry times a monomial, which is 1 at (1, 1), so the check holds
    # by rees_patching's form, and this test, not the command, checks it
    for d in _deltas() + [kummer_delta(Scalar(2, 1)), t3_delta(2, 5)]:
        phi = rees_patching(d)
        assert phi.eval((ONE, ONE)) == d.delta


def test_w_line_restriction_is_identity():
    for d in (kummer_delta(7), t3_delta(1, -2)):
        G = restrict_to_line(rees_patching(d), W_LINE)
        assert G.matrix == PolyMatrix.identity(1, d.hodge.dim)


def test_line_restriction_kummer():
    c = Scalar(5)
    G = restrict_to_line(rees_patching(kummer_delta(c)), (-1, 0))
    # xi0 = -t2 - t1 xi1 = xi1, so the entry collapses to -c xi1
    assert G.matrix[0, 1].terms == {(1,): -c}


def test_line_restriction_is_phi_on_the_line():
    # xi0 = -t2 - t1 xi and xi1 = xi, at sample values of xi; some xi0
    # exponents are odd, so the sign of the line shows
    rng = random.Random(23)
    odd = 0
    for _ in range(8):
        phi = rees_patching(random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3))
        odd += sum(a % 2 for a, _ in phi.support())
        for t1, t2 in ((Scalar(-1), ZERO), (Scalar(2), Scalar(3)),
                       (Scalar(1, 1), Scalar(-2))):
            G = restrict_to_line(phi, (t1, t2))
            for x in (Scalar(3), Scalar(-1, 2)):
                assert G.matrix.eval((x,)) == phi.eval((-t2 - t1 * x, x))
    assert odd


def test_determinant_must_be_monomial():
    with pytest.raises(TransitionError):
        laurent([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]])
    with pytest.raises(TransitionError):
        laurent([[{0: 1, 1: 1}, {}], [{}, {0: 1}]])


def test_splitting_type_identity():
    G = laurent([[{0: 1}, {}], [{}, {0: 1}]])
    assert splitting_type(G) == (0, 0)


def test_splitting_type_degree_one():
    G = laurent([[{-1: 1}]])
    assert splitting_type(G) == (1,)


def test_splitting_type_mixed():
    G = laurent([[{1: 1}, {}], [{}, {-2: 1}]])
    assert splitting_type(G) == (2, -1)
    # an upper-triangular datum with the same determinant
    H = laurent([[{-1: 1}, {0: 1}], [{}, {1: 1}]])
    assert splitting_type(H) == (1, -1)


def test_splitting_type_needs_sections_of_high_degree():
    # E(-1) has one section, of degree 8 or more; a search over twists that
    # stops at degree M + 1 = 4 finds none and calls the type trivial
    G = laurent([
        [{1: 1}, {0: -1}, {-2: 1, 3: -1}],
        [{}, {-1: 1, 0: 1, 3: 1}, {-3: -1, 1: -1}],
        [{}, {1: -1}, {-1: 1}],
    ])
    assert splitting_type(G) == (1, 0, -1)
    assert _h0(G, -1, 4) == 0
    assert _h0(G, -1, 8) == 1


@pytest.mark.parametrize("seed", range(8))
def test_section_counts_match_type_on_known_products(seed):
    rng = random.Random(seed)
    types = [(1, -1), (2, -1), (3, 0, -3), (1, 0, -1)]
    a = types[seed] if seed < len(types) else tuple(
        rng.randint(-2, 2) for _ in range(rng.randint(2, 3))
    )
    a = list(a)
    rng.shuffle(a)
    G = _product(rng, a)
    assert _check_section_counts(G) == tuple(sorted(a, reverse=True))


@pytest.mark.parametrize("seed", range(4))
def test_section_counts_match_type_on_delta_lines(seed):
    rng = random.Random(100 + seed)
    d = random_delta(rng, max_dim=3, weight_lo=-3, weight_hi=3)
    phi = rees_patching(d)
    for T in (W_LINE, (Scalar(rng.randint(-3, 3)), Scalar(rng.randint(-3, 3)))):
        assert _check_section_counts(restrict_to_line(phi, T)) == (0,) * d.hodge.dim


def test_type_sum_matches_determinant():
    for G, want in (
        (laurent([[{-3: 2}]]), 3),
        (laurent([[{1: 1}, {}], [{}, {-2: 1}]]), 1),
    ):
        assert sum(splitting_type(G)) == -G.det_exponent == want


def test_kummer_lines_are_trivial():
    phi = rees_patching(kummer_delta(Scalar(2, 1)))
    for T in ((0, 0), (-1, 0), (2, 3), (Scalar(0, 1), -1)):
        G = restrict_to_line(phi, T)
        assert splitting_type(G) == (0, 0)


def test_random_delta_lines_trivial():
    rng = random.Random(41)
    d = random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3)
    phi = rees_patching(d)
    for _ in range(5):
        T = (Scalar(rng.randint(-3, 3)), Scalar(rng.randint(-3, 3)))
        t = splitting_type(restrict_to_line(phi, T))
        assert t == tuple([0] * d.hodge.dim)


def test_two_filtration_type_rank_one():
    full = Subspace.full(1)
    zero = Subspace.zero(1)
    Fp = Filtration(Filtration.DEC, 1, {2: full, 3: zero})
    Fpp = Filtration(Filtration.DEC, 1, {-1: full, 0: zero})
    assert two_filtration_rees_type(Fp, Fpp) == (1,)


def test_two_filtration_type_opposite_pair():
    full = Subspace.full(2)
    zero = Subspace.zero(2)
    Fp = Filtration(
        Filtration.DEC, 2, {0: full, 1: span(2, [[1, 0]]), 2: zero}
    )
    Fpp = Filtration(
        Filtration.DEC, 2, {0: full, 1: span(2, [[0, 1]]), 2: zero}
    )
    assert two_filtration_rees_type(Fp, Fpp) == (1, 1)


def test_two_filtration_type_non_opposite():
    full = Subspace.full(2)
    zero = Subspace.zero(2)
    line = span(2, [[1, 0]])
    Fp = Filtration(Filtration.DEC, 2, {0: full, 1: line, 2: zero})
    Fpp = Filtration(Filtration.DEC, 2, {0: full, 1: line, 2: zero})
    assert two_filtration_rees_type(Fp, Fpp) == (2, 0)


def test_w_line_transition_trivial_for_mhs():
    V = kummer(Scalar(1, 1))
    G = w_line_transition(V)
    assert splitting_type(G) == (0, 0)


def test_w_line_transition_detects_non_hodge():
    # remove the weight step so a graded piece sits off the diagonal
    V = kummer(1)
    W = Filtration(Filtration.INC, 2, {0: Subspace.full(2)})
    bad = ComplexMHS(2, W, V.Fp, V.Fpp)
    t = splitting_type(w_line_transition(bad))
    assert any(a != 0 for a in t)


def _add_multiple(x, y, shift, c):
    """The cell x + c xi^shift y, both dicts exponent -> coefficient."""
    out = dict(x)
    for e, v in y.items():
        out[e + shift] = out.get(e + shift, ZERO) + c * v
    return {e: v for e, v in out.items() if v}


def _random_laurent(rng):
    """Entries of a seeded r x r Laurent matrix, r <= 4, dense or sparse,
    rational or Gaussian: terms drawn at random with exponents -2..2 (a
    determinant that is zero or, often, no monomial), or an upper
    triangular matrix with a monomial diagonal mixed by column operations
    (a monomial determinant), or that with one column made a multiple of
    another or zero (singular)."""
    r = rng.randint(1, 4)
    gaussian = rng.random() < 0.25
    density = rng.choice((0.3, 0.7, 1.0))

    def cell(terms):
        if rng.random() > density:
            return {}
        return {rng.randint(-2, 2): Scalar(rng.randint(-2, 2),
                                           rng.randint(-1, 1) if gaussian else 0)
                for _ in range(terms)}

    kind = rng.choice(("random", "monomial", "singular"))
    if kind == "random":
        return [[cell(rng.randint(1, 2)) for _ in range(r)] for _ in range(r)]
    m = [[{rng.randint(-2, 2): Scalar(rng.choice((1, -1, 2)))} if i == j
          else cell(2) if i < j else {} for j in range(r)] for i in range(r)]
    for _ in range(rng.randint(0, r) if r > 1 else 0):
        a, b = rng.sample(range(r), 2)
        shift, c = rng.randint(-1, 1), Scalar(rng.randint(-2, 2))
        for row in m:
            row[a] = _add_multiple(row[a], row[b], shift, c)
    if kind == "singular":
        a, b = rng.sample(range(r), 2) if r > 1 else (0, 0)
        for row in m:
            row[a] = {} if a == b else _add_multiple({}, row[b], 1, Scalar(3))
    return m


def test_column_reduction_matches_the_cofactor_determinant():
    # the determinant is a nonzero monomial iff the top and bottom column
    # reductions both end and agree, and the section counts check the type
    rng = random.Random(19)
    seen = {"singular": 0, "no monomial": 0, "invertible": 0}
    for _ in range(2000):
        m = laurent_matrix(_random_laurent(rng))
        det = _laurent_det(m)
        try:
            G = P1TransitionMatrix(m)
        except TransitionError:
            assert len(det.terms) != 1, m.rows
            seen["no monomial" if det.terms else "singular"] += 1
            continue
        assert len(det.terms) == 1, m.rows
        assert G.det_exponent == next(iter(det.terms))[0]
        seen["invertible"] += 1
        _check_section_counts(G)
    assert min(seen.values()) > 250, seen


def test_the_line_path_runs_no_elimination_and_no_substitution(monkeypatch):
    # each fixture's Rees lines are restricted and typed by the column
    # reduction alone: no rref (so no right_kernel) and no Poly.subs
    phis = [rees_patching(d) for d in fixture_deltas()]
    calls = []

    def count(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(Matrix, "rref", count("rref", Matrix.rref))
    monkeypatch.setattr(Poly, "subs", count("subs", Poly.subs))
    for phi in phis:
        for T in (W_LINE, (-1, 0), (Scalar(5, 2), Scalar(1, 3)), (Scalar(1, 1), -2)):
            splitting_type(restrict_to_line(phi, T))
    assert calls == []


def test_the_certificate_agrees_with_the_reduction_on_deltas():
    # the CLI's lines: the weight line and the three default points
    lines = (W_LINE, (Scalar(-1), ZERO), (Scalar(2), Scalar(3)),
             (Scalar(0, 1), Scalar(-1)))
    for d in fixture_deltas() + [chain_delta(16), chain_delta(24)]:
        phi = rees_patching(d)
        t = unipotent_line_type(phi)
        assert t == (0,) * d.hodge.dim
        for T in lines:
            assert splitting_type(restrict_to_line(phi, T)) == t, (d, T)


def test_unipotent_triangular_loops_are_trivial():
    # the lemma alone, with the basis permuted so that the reduction does
    # not start from the triangular shape
    rng = random.Random(31)
    for _ in range(1000):
        r = rng.randint(1, 6)
        gaussian = rng.random() < 0.25

        def cell():
            return {rng.randint(-3, 3): Scalar(rng.randint(-3, 3),
                                               rng.randint(-1, 1) if gaussian else 0)
                    for _ in range(rng.randint(0, 2))}

        m = [[{0: 1} if i == j else cell() if i < j else {} for j in range(r)]
             for i in range(r)]
        assert unipotent_line_type(laurent_matrix(m)) == (0,) * r
        perm = rng.sample(range(r), r)
        G = laurent([[m[a][b] for b in perm] for a in perm])
        assert (splitting_type(G), G.det_exponent) == ((0,) * r, 0), m


def _phi(cells):
    """Two-variable Laurent matrix from dicts (a, b) -> coefficient of
    xi0^a xi1^b."""
    return PolyMatrix(2, [tuple(Poly(2, c) for c in row)
                          for row in cells])


@pytest.mark.parametrize("cells, where", [
    ([[{(0, 0): 1}, {(2, -1): 3}], [{(2, -1): 3}, {(0, 0): 1}]], "1, 0"),
    ([[{(0, 0): 2}, {}], [{}, {(0, 0): 1}]], "0, 0"),
    ([[{(0, 0): 1}, {}], [{}, {(0, 0): 1, (1, 0): 1}]], "1, 1"),
], ids=["below-the-diagonal", "diagonal-2", "diagonal-1-plus-xi0"])
def test_the_certificate_refuses_other_shapes(cells, where):
    with pytest.raises(InvariantError, match="at " + where):
        unipotent_line_type(_phi(cells))


def _verdict(scan, d):
    try:
        return scan(d)
    except InvariantError as exc:
        return str(exc)


def _broken(cells):
    """Identity plus cells {(i, j): x} on two 2-dim blocks, (-1, -1) and
    (0, 0), past DeltaObject's checks; (0, 2) is a lowering entry."""
    rows = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    for (i, j), x in {(0, 2): Scalar(5), **cells}.items():
        rows[i][j] = Scalar(0) + x
    return unchecked_delta(HodgeNumbers({(-1, -1): 2, (0, 0): 2}), Matrix(rows))


@pytest.mark.parametrize("cells, where", [
    ({(1, 1): 2}, "1, 1"),
    ({(3, 3): Scalar(1, 1)}, "3, 3"),
    ({(1, 0): 1}, "1, 0"),  # below the diagonal inside a block
    ({(2, 0): 4}, "2, 0"),  # below the diagonal across blocks
    ({(0, 1): 3}, None),  # above it inside a block: refused only by __init__
    ({}, None),
], ids=["diagonal-2", "diagonal-1-plus-i", "inside-a-block", "across-blocks",
        "above-inside-a-block", "lowering"])
def test_the_delta_scan_refuses_what_the_phi_scan_refuses(cells, where):
    d = _broken(cells)
    want = (0,) * 4 if where is None else "Phi is not unitriangular at " + where
    assert _verdict(delta_line_type, d) == want
    assert _verdict(lambda d: unipotent_line_type(rees_patching(d)), d) == want


def test_the_delta_scan_agrees_with_the_phi_scan_on_deltas():
    for d in _deltas():
        want = _verdict(lambda d: unipotent_line_type(rees_patching(d)), d)
        assert want == (0,) * d.hodge.dim
        assert _verdict(delta_line_type, d) == want, d


def test_the_delta_scan_refuses_under_optimize():
    assert_raises_under_optimize(
        "from hodgegauge.fixtures import kummer_delta\n"
        "from hodgegauge.linalg import InvariantError\n"
        "from hodgegauge.splitting import DeltaObject, delta_line_type\n"
        "d, t = object.__new__(DeltaObject), kummer_delta(3)\n"
        "object.__setattr__(d, 'hodge', t.hodge)\n"
        "object.__setattr__(d, 'delta', t.delta.transpose())",
        "delta_line_type(d)",
        "InvariantError", "not unitriangular at 1, 0",
    )


def test_the_certificate_refuses_under_optimize():
    assert_raises_under_optimize(
        "from hodgegauge.linalg import InvariantError\n"
        "from hodgegauge.poly import Poly, PolyMatrix\n"
        "from hodgegauge.rees import unipotent_line_type",
        "unipotent_line_type(PolyMatrix(2, [(Poly.constant(2, 2),)]))",
        "InvariantError", "not unitriangular",
    )
