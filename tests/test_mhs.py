import json
import random
from fractions import Fraction

import pytest

from conftest import (
    block_basis,
    Quotient,
    cap_chain_delta,
    chain_delta,
    conjugate_mhs,
    coords,
    direct_sum_mhs,
    fixture_hodge_numbers,
    gapped_form,
    gr_coords,
    lift,
    mat,
    multi_block_delta,
    one_pass_validate,
    pairwise_validate,
    piece_dimensions,
    quotient_route,
    reference_dual_mhs,
    reference_shape,
    reference_tensor_mhs,
    span,
    sparse_form,
    subspace_contains,
    validate_morphism,
    vec,
)
from hodgegauge import linalg, mhs
from hodgegauge.documents import serialize
from hodgegauge.fixtures import (
    corrupt_weight_step,
    kummer,
    named_corpus,
    random_delta,
    random_mhs,
    real_corpus,
    real_kummer,
    t3,
)
from hodgegauge.linalg import Matrix, Subspace, _cut
from hodgegauge.mhs import (
    AdaptedTriple,
    ComplexMHS,
    Filtration,
    FiltrationError,
    GrStructure,
    HodgeNumbers,
    OpposednessViolation,
    RealMHS,
    dual_mhs,
    pure,
    realize_real,
    tensor_mhs,
    validate_mhs,
)
from hodgegauge.scalars import I, ONE, Scalar, ZERO
from hodgegauge.splitting import delta_to_mhs


def document(V):
    """The bytes a structure document is written with."""
    return json.dumps(serialize(V), sort_keys=True, indent=1)


A3, B3 = span(3, [[1, 0, 0]]), span(3, [[1, 0, 0], [0, 1, 1]])
INC3 = Filtration(Filtration.INC, 3, {-1: A3, 2: B3, 4: Subspace.full(3)})
DEC3 = Filtration(Filtration.DEC, 3, {0: B3, 1: A3, 3: Subspace.zero(3)})


def test_filtration_at_semantics():
    f = Filtration(Filtration.INC, 2, {0: span(2, [[1, 0]]), 2: Subspace.full(2)})
    assert f.at(-1) == Subspace.zero(2)
    assert f.at(0) == f.at(1) == span(2, [[1, 0]])
    assert f.at(5) == Subspace.full(2)
    g = Filtration(Filtration.DEC, 2, {0: span(2, [[1, 0]]), 1: Subspace.zero(2)})
    assert g.at(-3) == Subspace.full(2)
    assert g.at(0) == span(2, [[1, 0]])
    assert g.at(7) == Subspace.zero(2)
    # below the first jump, at each jump, between jumps, above the last
    for h, expect in (
        (INC3, {-5: Subspace.zero(3), -2: Subspace.zero(3), -1: A3, 0: A3,
                1: A3, 2: B3, 3: B3, 4: Subspace.full(3), 9: Subspace.full(3)}),
        (DEC3, {-4: Subspace.full(3), -1: Subspace.full(3), 0: B3, 1: A3,
                2: A3, 3: Subspace.zero(3), 8: Subspace.zero(3)}),
    ):
        for k, want in expect.items():
            assert h.at(k) == want, (h, k)


@pytest.mark.parametrize("name", ["steps", "n", "direction", "_keys", "_below", "extra"])
def test_filtration_attributes_cannot_be_assigned(name):
    with pytest.raises(AttributeError):
        setattr(DEC3, name, None)
    assert DEC3.at(1) == A3


def test_filtration_validate():
    bad = Filtration(
        Filtration.INC, 2, {0: Subspace.full(2), 1: span(2, [[1, 0]])}
    )
    with pytest.raises(FiltrationError):
        bad.validate()
    not_exhaustive = Filtration(Filtration.INC, 2, {0: span(2, [[1, 0]])})
    with pytest.raises(FiltrationError):
        not_exhaustive.validate()
    not_separated = Filtration(Filtration.DEC, 2, {0: span(2, [[1, 0]])})
    with pytest.raises(FiltrationError):
        not_separated.validate()


def _random_flag(rng, n):
    """A filtration on K^n with at most 4 stored steps at gapped indices,
    mostly ending in the full space (W) or zero (F): mostly a chain of
    spans of leading random rows, sometimes arbitrary spans, with repeated
    and zero or full steps among them."""
    direction = rng.choice((Filtration.INC, Filtration.DEC))
    entries = (0, 0, 1, -1, 2, Fraction(1, 2), Scalar(0, 1), Scalar(1, -1))
    rows = [vec([rng.choice(entries) for _ in range(n)]) for _ in range(n + 1)]
    dims = sorted(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
    dims += [n] * (rng.random() < 0.8)  # W's last step is full, F's zero
    if direction == Filtration.DEC:
        dims = [n - h for h in reversed(dims)]
    nested = rng.random() < 0.7
    keys = [rng.randint(-3, 2)]
    for _ in dims[1:]:
        keys.append(keys[-1] + rng.choice((1, 1, 2)))
    return Filtration(direction, n, {
        k: Subspace.from_rows(n, rows[:h] if nested else rng.sample(rows, h))
        for k, h in zip(keys, dims)
    })


def _assert_one_pass(f):
    # validate against the one reduction of every listed row that it
    # replaced: the same rows in the same order, or the same message
    outcomes = []
    for route in (one_pass_validate, Filtration.validate):
        try:
            outcomes.append(route(f))
        except FiltrationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], f


def test_validate_matches_the_pairwise_route():
    # each nested pair read innermost first, against the containment test
    # of each pair: the verdict agrees, the message too where the innermost
    # failing pair is the lowest, and the rows returned are adapted.  Against
    # the one-pass reduction the rows and messages are equal: on these
    # draws, on the flags that from_basis rebuilds, on the cap model and on
    # a jump of two that keeps a row at a pivot of the step inside it, where
    # a step's rows at its new pivots would be another basis and print
    # another delta
    rng = random.Random(53)
    seen = {"ok": 0, "nesting": 0, "end": 0, "several": 0}
    for _ in range(3000):
        f = _random_flag(rng, rng.randint(0, 4))
        _assert_one_pass(f)
        try:
            pairwise_validate(f)
            want = None
        except FiltrationError as exc:
            want = str(exc)
        js = f.jumps()
        failing = sum(not subspace_contains(f.steps[a], f.steps[b])
                      if f.direction == f.DEC
                      else not subspace_contains(f.steps[b], f.steps[a])
                      for a, b in zip(js, js[1:]))
        try:
            basis = f.validate()
        except FiltrationError as exc:
            assert want is not None, f
            if f.direction == f.INC or failing <= 1:
                assert str(exc) == want, f
            else:
                seen["several"] += 1
            seen["nesting" if failing else "end"] += 1
            continue
        assert want is None, (f, want)
        seen["ok"] += 1
        assert len(basis) == f.n
        for p in range(f.min_index() - 1, f.max_index() + 2):
            rows = [r for level, r in basis
                    if (level <= p if f.direction == f.INC else level >= p)]
            assert Subspace._span(f.n, rows) == f.at(p), (f, p)
    assert min(seen.values()) > 100, seen
    old_pivot = Filtration(Filtration.INC, 3, {0: span(3, [[1, 1, 1]]),
                                               1: Subspace.full(3)})
    assert [r for level, (r, _) in old_pivot.validate() if level == 1] == [
        (1, 0, 0), (0, 1, 0)]
    cap = delta_to_mhs(cap_chain_delta(16), check=False)
    for f in _rebuilt_flags() + [cap.W, cap.Fp, cap.Fpp, old_pivot]:
        _assert_one_pass(f)


def _rebuilt_flags():
    # every flag of the corpora, of their sparse forms and of seeded random
    # structures, some with a corrupted weight step, and the empty flags
    structures = [V for _, V in named_corpus()]
    structures += [realize_real(V) for _, V in real_corpus()]
    sparse = [sparse_form(V) for V in structures]
    rng = random.Random(29)
    randoms = [random_mhs(rng, max_dim=6) for _ in range(60)]
    corrupted = [corrupt_weight_step(V, rng) for V in randoms[:20]]
    flags = [f for V in structures + sparse + randoms + corrupted
             for f in (V.W, V.Fp, V.Fpp)]
    flags += [Filtration(d, 0, {}) for d in (Filtration.INC, Filtration.DEC)]
    assert len(flags) == 3 * (2 * 20 + 80) + 2
    return flags


def test_from_basis_inverts_validate():
    # the builder of a flag against its reader: the flag that from_basis
    # spans from the basis validate reads off f is f, whatever keys f stores
    for f in _rebuilt_flags():
        assert Filtration.from_basis(f.direction, f.n, f.validate()) == f, f


def test_from_basis_spans_each_step_from_the_one_inside_it(monkeypatch):
    # F'' of a chain is nested and dense: spanning each step from all the
    # rows of its levels again takes about n^3 elimination steps, spanning
    # it from the reduced step inside it about n^2; each step, and each row
    # kept, takes the gcd of its parts
    inside, counts = [False], []
    from_basis, gcd = Filtration.from_basis.__func__, linalg.gcd

    def counted_from_basis(cls, *args):
        inside[0] = True
        try:
            return from_basis(cls, *args)
        finally:
            inside[0] = False

    def counted_gcd(*args):
        counts[-1] += inside[0]
        return gcd(*args)

    monkeypatch.setattr(Filtration, "from_basis", classmethod(counted_from_basis))
    monkeypatch.setattr(linalg, "gcd", counted_gcd)
    for n in (16, 32):
        counts.append(0)
        delta_to_mhs(chain_delta(n), check=False)
    assert 0 < counts[1] < 5 * counts[0], counts


def test_validate_reads_each_step_against_the_one_inside_it(monkeypatch):
    # F'' of a chain is nested and dense, n(n + 1)/2 listed rows: a step's
    # row read against the echelon rows of the step inside it meets few of
    # their pivots, about n^2 gcds in all (239 and 4,442 at n = 8 and 32);
    # reduced in one pass against the cascade of rows kept from every step
    # inside it, 312 and 13,885
    counts, gcd = [], linalg.gcd

    def counted_gcd(*args):
        counts[-1] += 1
        return gcd(*args)

    models = [delta_to_mhs(chain_delta(n), check=False) for n in (8, 32)]
    monkeypatch.setattr(linalg, "gcd", counted_gcd)
    for V in models:
        counts.append(0)
        for f in (V.W, V.Fp, V.Fpp):
            f.validate()
    assert 0 < counts[1] < 25 * counts[0], counts


def test_filtration_equality_ignores_redundant_steps():
    a = Filtration(Filtration.INC, 1, {0: Subspace.full(1)})
    b = Filtration(
        Filtration.INC, 1, {0: Subspace.full(1), 3: Subspace.full(1)}
    )
    assert a == b
    # a decreasing filtration with its leading full step left implicit
    explicit = Filtration(Filtration.DEC, 3, {-1: Subspace.full(3), **DEC3.steps})
    assert DEC3 == explicit and explicit == DEC3
    assert DEC3 != Filtration(Filtration.DEC, 3, {0: A3, 3: Subspace.zero(3)})


def test_hodge_numbers_block_order():
    h = HodgeNumbers({(0, 0): 1, (-1, -1): 2, (-2, 0): 1})
    assert h.dim == 4
    assert [b[0] for b in h.blocks()] == [(-2, 0), (-1, -1), (0, 0)]
    assert h.weights() == (-2, 0)
    assert h.transpose().blocks()[0][0] == (-1, -1)
    assert h.transpose().counts == {(0, 0): 1, (-1, -1): 2, (0, -2): 1}


def _seeded_hodge_numbers():
    """Seeded Hodge numbers: 300 small ones, dim 0, dim 32 in few and in
    many blocks, and weight spread 64."""
    rng = random.Random(31)
    out = [HodgeNumbers({(rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(0, 3)
                         for _ in range(rng.randint(0, 6))}) for _ in range(300)]
    out.append(HodgeNumbers({}))
    out.append(HodgeNumbers({(-k, -k): 1 for k in range(32)}))
    out.append(HodgeNumbers({(0, 0): 9, (-1, -2): 7, (-2, -1): 6, (-3, -3): 10}))
    counts = {}
    while sum(counts.values()) < 32:
        pq = (rng.randint(-6, 6), rng.randint(-6, 6))
        counts[pq] = counts.get(pq, 0) + 1
    out.append(HodgeNumbers(counts))
    out.append(HodgeNumbers({(-16, -16): 2, (-5, 3): 1, (0, 0): 1, (16, 16): 3}))
    return out


def test_bidegrees_and_lowering_are_read_off_the_blocks():
    hodges = _seeded_hodge_numbers()
    assert {h.dim for h in hodges} >= {0, 32}
    assert max(h.weights()[-1] - h.weights()[0] for h in hodges if h.dim) == 64
    for h in fixture_hodge_numbers() + hodges:
        # the fields, built once, against the derivation on demand
        blocks, owner, table, lowering = reference_shape(h.counts)
        assert h.blocks() == tuple(blocks)
        assert h.block_of_index() == tuple(owner)
        assert h.bidegrees() == tuple(map(tuple, table))
        assert h.lowering() == tuple(lowering)
        assert h.dim == len(owner)
        assert h.weights() == tuple(sorted({p + q for p, q in h.counts}))
        for shape in (h.blocks, h.block_of_index, h.bidegrees, h.lowering):
            assert shape() is shape()
        # equal counts in another order: an equal value, with an equal hash
        other = HodgeNumbers(dict(reversed(list(h.counts.items()))))
        assert other == h and hash(other) == hash(h)
    for h in hodges[:300]:
        owner, table = h.block_of_index(), h.bidegrees()
        assert len(table) == h.dim
        want = []
        for i, (p, q) in enumerate(owner):
            assert len(table[i]) == h.dim
            for j, (pj, qj) in enumerate(owner):
                assert table[i][j] == (pj - p, qj - q)
                if p < pj and q < qj:
                    want.append((pj + qj - p - q, i, j))
        lowering = h.lowering()
        assert lowering == tuple((i, j) for _, i, j in sorted(want))
        # the walk's invariant: an entry comes after those it factors through
        before = {ij: k for k, ij in enumerate(lowering)}
        for (i, k), m in before.items():
            for j in range(h.dim):
                if (k, j) in before and (i, j) in before:
                    assert max(m, before[k, j]) < before[i, j]


def test_pure_structures_validate():
    for (p, q) in ((0, 0), (-1, -1), (1, 2), (3, -1)):
        h = validate_mhs(pure(p, q))
        assert h.counts == {(p, q): 1}


def test_kummer_validates():
    for c in (Scalar(1), Scalar(Fraction(1, 2)), Scalar(2, 1)):
        h = validate_mhs(kummer(c))
        assert h.counts == {(0, 0): 1, (-1, -1): 1}


def test_forgotten_weight_step_is_reported():
    # K(c) with the weight -2 step removed: part of the graded space now
    # sits at indices with p + q != 0, and the first witness in the scan
    # order is (p, q) = (-1, 0) at weight 0
    V = kummer(1)
    W = Filtration(Filtration.INC, 2, {0: Subspace.full(2)})
    bad = ComplexMHS(2, W, V.Fp, V.Fpp)
    with pytest.raises(OpposednessViolation) as exc:
        validate_mhs(bad)
    assert (exc.value.weight, exc.value.p, exc.value.q) == (0, -1, 0)


def test_degenerate_zero_space():
    empty = Filtration(Filtration.INC, 0, {})
    emptyd = Filtration(Filtration.DEC, 0, {})
    V = ComplexMHS(0, empty, emptyd, emptyd)
    assert validate_mhs(V).dim == 0


def fixture_factors():
    """The factors of the shipped tensor and dual fixtures."""
    return [kummer(1), kummer(2), kummer(3), kummer(I), pure(-1, -1), pure(1, 1),
            t3(1, 2)]


def seeded_pairs(seed, count):
    # random_mhs pairs, Gaussian entries included, without the round-trip
    # check
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(delta_to_mhs(random_delta(rng, max_dim=d, weight_lo=-4,
                                              weight_hi=4), check=False)
                    for d in (4, 3))


def test_tensor_with_pure_twist():
    V = tensor_mhs(kummer(3), pure(1, 1))
    h = validate_mhs(V)
    assert h.counts == {(1, 1): 1, (0, 0): 1}


def test_tensor_of_sparse_forms_is_the_tensor_of_dense_ones():
    # F' and F'' of a factor are the full space below their stored range;
    # the product's steps below the sum of the first indices summed only
    # over the stored ones and left that full space out
    A, B = kummer(3), t3(1, 2)
    dense = tensor_mhs(A, B)
    for X in (A, sparse_form(A)):
        for Y in (B, sparse_form(B)):
            V = tensor_mhs(X, Y)
            assert V == dense
            assert validate_mhs(V).counts == {
                (-3, -3): 1, (-2, -2): 2, (-1, -1): 2, (0, 0): 1
            }
    # on dense factors the step one below is the full space, not stored
    assert sorted(dense.Fp.steps) == list(range(-3, 4))


def test_tensor_of_kummers():
    V = tensor_mhs(kummer(1), kummer(2))
    h = validate_mhs(V)
    assert h.counts == {(0, 0): 1, (-1, -1): 2, (-2, -2): 1}


def test_dual_is_involutive():
    seeded = [V for pair in seeded_pairs(6, 20) for V in pair]
    for V in [kummer(2), t3(1, 2), pure(1, -1)] + seeded:
        assert dual_mhs(dual_mhs(V)) == V


def test_dual_hodge_numbers_negate():
    h = validate_mhs(dual_mhs(kummer(2)))
    assert h.counts == {(0, 0): 1, (1, 1): 1}


def test_tensor_and_dual_match_the_per_step_definition():
    # each flag, and the document's bytes, against the span of Kronecker
    # products of step bases and the annihilator from sympy's nullspace
    pytest.importorskip("sympy")
    rng = random.Random(42)
    factors = fixture_factors()
    cases = [(tensor_mhs, reference_tensor_mhs, (A, B))
             for A in factors for B in factors]
    cases += [(dual_mhs, reference_dual_mhs, (A,)) for A in factors]
    forms = [sparse_form(A) for A in factors] + [gapped_form(A, rng) for A in factors]
    cases += [(tensor_mhs, reference_tensor_mhs, (X, rng.choice(forms)))
              for X in forms]
    cases += [(dual_mhs, reference_dual_mhs, (X,)) for X in forms]
    for A, B in seeded_pairs(5, 20):
        cases += [(tensor_mhs, reference_tensor_mhs, (A, B)),
                  (tensor_mhs, reference_tensor_mhs, (sparse_form(A), B)),
                  (dual_mhs, reference_dual_mhs, (A,))]
    big = tensor_mhs(tensor_mhs(t3(1, 2), t3(3, 4)), kummer(5))
    cases += [(dual_mhs, reference_dual_mhs, (big,))]
    for build, reference, args in cases:
        got, want = build(*args), reference(*args)
        assert got == want
        assert document(got) == document(want)
    want = reference_tensor_mhs(reference_tensor_mhs(t3(1, 2), t3(3, 4)), kummer(5))
    assert big.n == 18
    assert big == want and document(big) == document(want)


def test_dual_of_a_tensor_is_the_tensor_of_the_duals():
    for A, B in seeded_pairs(7, 20):
        assert dual_mhs(tensor_mhs(A, B)) == tensor_mhs(dual_mhs(A), dual_mhs(B))


def test_tensor_and_dual_eliminate_no_scalars(monkeypatch):
    # the flags come from the factors' adapted bases: no Scalar elimination,
    # product or span of Scalar rows
    factors = fixture_factors()

    def refuse(*args):
        raise AssertionError("a tensor or dual went through Scalar rows")

    monkeypatch.setattr(Matrix, "rref", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Subspace, "from_rows", classmethod(refuse))
    for A in factors:
        dual_mhs(A)
        for B in factors:
            tensor_mhs(A, B)


def test_tensor_and_dual_of_a_non_flag_raise():
    # a factor whose filtration is not nested, not exhaustive or not
    # separated is refused by its validate, not built into a triple
    V, full, zero = kummer(1), Subspace.full(2), Subspace.zero(2)
    e0 = span(2, [[1, 0]])
    bad = [
        (ComplexMHS(2, Filtration(Filtration.INC, 2, {0: full, 1: zero}), V.Fp,
                    V.Fpp), "not increasing at 0 -> 1"),
        (ComplexMHS(2, Filtration(Filtration.INC, 2, {0: e0}), V.Fp, V.Fpp),
         "increasing filtration does not exhaust"),
        (ComplexMHS(2, V.W, Filtration(Filtration.DEC, 2, {0: full, 1: e0}),
                    V.Fpp), "decreasing filtration is not separated"),
    ]
    for X, message in bad:
        for build in (lambda: tensor_mhs(X, pure(0, 0)),
                      lambda: tensor_mhs(pure(0, 0), X), lambda: dual_mhs(X)):
            with pytest.raises(FiltrationError, match=message):
                build()


def test_conjugate_is_involutive():
    V = kummer(Scalar(2, 1))
    assert conjugate_mhs(conjugate_mhs(V)) == V
    assert validate_mhs(conjugate_mhs(V)).counts == {(0, 0): 1, (-1, -1): 1}


def test_direct_sum():
    V = direct_sum_mhs(pure(0, 0), pure(-1, -1))
    assert validate_mhs(V).counts == {(0, 0): 1, (-1, -1): 1}


def test_morphisms():
    V = kummer(0)
    assert validate_morphism(mat([[2, 0], [0, 2]]), V, V)
    # e_{-1} -> e_0 raises the weight and is not a morphism
    assert not validate_morphism(mat([[0, 1], [0, 0]]), V, V)
    # e_0 -> e_{-1} lowers the weight but breaks F'
    assert not validate_morphism(mat([[0, 0], [1, 0]]), V, V)


def test_real_mhs_requires_rational_weights():
    W = Filtration(Filtration.INC, 1, {0: span(1, [[I]])})
    F = Filtration(Filtration.DEC, 1, {0: Subspace.full(1), 1: Subspace.zero(1)})
    # span(i) is the full line, with a canonical rational basis
    RealMHS(1, W, F)
    Wbad = Filtration(
        Filtration.INC, 2, {0: span(2, [[1, I]]), 1: Subspace.full(2)}
    )
    Fbad = Filtration(
        Filtration.DEC, 2, {0: Subspace.full(2), 1: Subspace.zero(2)}
    )
    with pytest.raises(FiltrationError):
        RealMHS(2, Wbad, Fbad)


def test_realize_real():
    W = Filtration(Filtration.INC, 1, {-2: Subspace.full(1)})
    F = Filtration(
        Filtration.DEC, 1, {-1: Subspace.full(1), 0: Subspace.zero(1)}
    )
    V = realize_real(RealMHS(1, W, F))
    assert validate_mhs(V).counts == {(-1, -1): 1}


def test_random_structures_validate():
    rng = random.Random(5)
    for _ in range(5):
        V = random_mhs(rng, max_dim=5, weight_lo=-4, weight_hi=4)
        validate_mhs(V)


@pytest.mark.parametrize("V", [pure(0, 0), kummer(3)], ids=["pure_0_0", "kummer_3"])
def test_sparse_decreasing_filtrations_validate(V):
    sparse = sparse_form(V)
    assert sparse.Fp == V.Fp and sparse.Fpp == V.Fpp
    assert GrStructure(sparse).hodge == GrStructure(V).hodge


def nested_count(V):
    """Reference graded count by nested quotients: inside each weight chart,
    the projection of F''^q into A^p / A^{p+1}, where A is the image of F'.
    It scans only the stored indices of F' and F'', so it agrees with the
    full count only when their first stored step is the full space."""
    js = V.W.jumps()
    ps = list(range(min(V.Fp.steps), max(V.Fp.steps) + 1))
    qs = list(range(min(V.Fpp.steps), max(V.Fpp.steps) + 1))
    counts = {}
    violations = []
    for n in range(js[0], js[-1] + 1):
        if V.W.at(n) == V.W.at(n - 1):
            continue
        chart = Quotient(V.W.at(n), V.W.at(n - 1))
        A = {p: chart.project_subspace(V.Fp.at(p)) for p in ps + [ps[-1] + 1]}
        B = {q: chart.project_subspace(V.Fpp.at(q)) for q in qs + [qs[-1] + 1]}
        for p in ps:
            if A[p] == A[p + 1]:
                continue
            R = Quotient(A[p], A[p + 1])
            dims = {q: R.project_subspace(B[q]).dim for q in B}
            for q in qs:
                h = dims[q] - dims[q + 1]
                if h and p + q != n:
                    violations.append((n, p, q, h))
                elif h:
                    counts[(p, q)] = h
    if violations:
        raise OpposednessViolation(*min(violations))
    return HodgeNumbers(counts)


def _outcome(count, V):
    try:
        return count(V)
    except OpposednessViolation as exc:
        return (exc.weight, exc.p, exc.q, exc.h)


def test_graded_count_agrees_with_nested_quotients():
    rng = random.Random(11)
    seen = {"valid": 0, "violation": 0}
    for _ in range(12):
        V = random_mhs(rng, max_dim=6, weight_lo=-4, weight_hi=4)
        for W in (V, corrupt_weight_step(V, rng)):
            for f in (W.Fp, W.Fpp):
                assert f.steps[min(f.steps)] == Subspace.full(W.n)
            want = _outcome(nested_count, W)
            got = _outcome(lambda U: GrStructure(U).hodge, W)
            assert got == want
            seen["valid" if isinstance(want, HodgeNumbers) else "violation"] += 1
    assert seen == {"valid": 12, "violation": 12}


def test_adapted_basis_matches_quotient_charts():
    # one elimination of the stacked W steps gives each weight's Quotient
    # complement; each filtration's basis adapted to it and to W gives, in
    # its weight-n rows sliced to the chart, the projection of every step
    # into that chart, and in its rows of weight <= m the step's part in W_m
    rng = random.Random(23)
    seen = {"valid": 0, "violation": 0}
    for _ in range(12):
        # random_mhs without its own round-trip check, which runs GrStructure
        d = random_delta(rng, max_dim=6, weight_lo=-4, weight_hi=4)
        V = delta_to_mhs(d, check=False)
        for U in (V, corrupt_weight_step(V, rng)):
            charts, want = quotient_route(U)
            seen["valid" if isinstance(want, HodgeNumbers) else "violation"] += 1
            adapted = AdaptedTriple(U)
            assert [c[0] for c in charts] == sorted(adapted.cols)
            inv = adapted.basis.inverse()
            for n, chart, fp, fpp in charts:
                lo, hi = adapted.cols[n]
                assert adapted.basis.rows[lo:hi] == chart.complement
                for side, flag in (("Fp", fp), ("Fpp", fpp)):
                    rows = adapted.rows[side]
                    for k, step in flag.steps.items():
                        assert Subspace._span(hi - lo, [
                            _cut(r, lo, hi) for level, w, r in rows
                            if w == n and level >= k
                        ]) == step
                    for k, step in getattr(U, side).steps.items():
                        moved = Subspace.from_rows(U.n, (step.basis @ inv).rows)
                        in_w = moved.intersect(span(
                            U.n, Subspace.full(U.n).basis.rows[lo:]))
                        assert Subspace._span(U.n, [
                            r for level, w, r in rows if w <= n and level >= k
                        ]) == in_w
                for row in Subspace.full(chart.dim).basis.rows:
                    assert lift(adapted, row, n) == chart.lift(row)
            assert _outcome(lambda W: GrStructure(W).hodge, U) == want
    assert seen == {"valid": 12, "violation": 12}


def test_adapted_bases_need_no_span_per_step(monkeypatch):
    # each flag is read by the one reduction in validate, and the F' and F''
    # steps reach the adapted basis through one reduction per filtration:
    # the only change of coordinates is the one _solve that writes both
    # sides in the W basis, and one more writes F' in F'' for every chart
    calls = []

    def count(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    rng = random.Random(41)
    structures = [kummer(3), t3(2, 5)] + [
        delta_to_mhs(multi_block_delta(rng), check=False) for _ in range(4)
    ]
    monkeypatch.setattr(Subspace, "_span", classmethod(
        count("_span", Subspace._span.__func__)))
    monkeypatch.setattr(Matrix, "rref", count("rref", Matrix.rref))
    monkeypatch.setattr(Matrix, "inverse", count("inverse", Matrix.inverse))
    monkeypatch.setattr(Matrix, "__matmul__", count("@", Matrix.__matmul__))
    monkeypatch.setattr(linalg, "solve_left", count("solve_left", linalg.solve_left))
    solve = count("_solve", linalg._solve)
    monkeypatch.setattr(linalg, "_solve", solve)
    monkeypatch.setattr(mhs, "_solve", solve)
    monkeypatch.setattr(mhs, "_echelon", count("_echelon", mhs._echelon))
    for V in structures:
        for f in (V.W, V.Fp, V.Fpp):
            assert len(f.validate()) == V.n
        assert calls == []
        adapted = AdaptedTriple(V)
        assert calls == ["_solve"]
        calls.clear()
        assert all(len(adapted.rows[side]) == V.n for side in ("Fp", "Fpp"))
        for _ in adapted.graded():
            assert calls == ["_solve"]
        calls.clear()
    GrStructure(structures[-1])
    assert "_echelon" in calls


def test_gr_coords_read_back_lifted_pieces():
    rng = random.Random(29)
    for _ in range(8):
        gr = GrStructure(random_mhs(rng, max_dim=6, weight_lo=-4, weight_hi=4))
        for (p, q), off, h in gr.hodge.blocks():
            lifted = [lift(gr, r, p + q) for r in block_basis(gr, (p, q))]
            unit = Subspace.full(gr.hodge.dim).basis.rows[off : off + h]
            assert gr_coords(gr, coords(gr, lifted), p + q) == unit


def grid_outcome(V):
    """Hodge numbers and the piece bases of V from the full piece_dimensions
    grid of each Quotient chart, or the first violation (n, p, q, h)."""
    charts, outcome = quotient_route(V)
    if not isinstance(outcome, HodgeNumbers):
        return outcome
    pieces = {}
    for _, _, fp, fpp in charts:
        dims, cap = piece_dimensions(fp, fpp)
        pieces.update((pq, cap[pq].rows) for pq in dims)
    return outcome, pieces


def diagonal_outcome(V):
    try:
        gr = GrStructure(V)
    except OpposednessViolation as exc:
        return (exc.weight, exc.p, exc.q, exc.h)
    return gr.hodge, gr.block_rows


def seeded_structures(rng):
    def fresh(max_dim):
        # random_mhs (Gaussian entries included) without its own round-trip
        # check, which runs GrStructure
        d = random_delta(rng, max_dim=max_dim, weight_lo=-4, weight_hi=4)
        return delta_to_mhs(d, check=False)

    for _ in range(8):
        yield "random", fresh(6)
    for _ in range(3):
        yield "tensor", tensor_mhs(fresh(3), fresh(2))
        yield "dual", dual_mhs(fresh(5))
        gamma = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        yield "real", realize_real(real_kummer(gamma))
        # Hodge numbers symmetric in each weight
        V = fresh(3)
        yield "symmetric", direct_sum_mhs(V, conjugate_mhs(V))
    for _ in range(6):
        yield "multi", delta_to_mhs(multi_block_delta(rng), check=False)


def lower_weight_step(V, rng):
    """The converse of corrupt_weight_step: W_n replaced by W_{n-1} for a
    weight n below the top, so that its pieces sit in a higher chart; None
    if V has one weight."""
    js = V.W.jumps()
    candidates = [n for n in js[:-1] if V.W.at(n) != V.W.at(n - 1)]
    if not candidates:
        return None
    n = rng.choice(candidates)
    steps = dict(V.W.steps)
    steps[n] = V.W.at(n - 1)
    return ComplexMHS(V.n, Filtration(Filtration.INC, V.n, steps), V.Fp, V.Fpp)


def damaged(V, rng):
    """V, a weight step of V moved up or down, and V with F'' replaced by
    F'; where the Hodge numbers of each weight are symmetric, the dimensions
    on the diagonal of the last still add up, so only the span test can
    reject it."""
    low = lower_weight_step(V, rng)
    return [V, corrupt_weight_step(V, rng)] + ([low] if low else []) + [
        ComplexMHS(V.n, V.W, V.Fp, V.Fp)
    ]


def test_diagonal_route_matches_the_grid():
    # each structure and its damaged forms, also with the leading full
    # steps of F' and F'' left implicit, which moves the ends of the p range,
    # and with a step dropped between two others
    rng = random.Random(31)
    seen = set()
    for kind, V in seeded_structures(rng):
        if kind == "multi":
            # the corpora have one block per weight; these have several
            hodge = GrStructure(V).hodge
            assert all(sum(p + q == n for p, q in hodge.counts) >= 2
                       for n in hodge.weights())
        for U in damaged(V, rng):
            for X in (U, sparse_form(U), gapped_form(U, rng)):
                want = grid_outcome(X)
                assert diagonal_outcome(X) == want, kind
                seen.add((kind, isinstance(want[0], HodgeNumbers)))
    kinds = ("random", "tensor", "dual", "real", "symmetric", "multi")
    assert seen == {(k, valid) for k in kinds for valid in (True, False)}
