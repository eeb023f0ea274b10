import random
from fractions import Fraction

import pytest

from conftest import (
    _conjugation_on_graded,
    assert_raises_under_optimize,
    block_permutation,
    direct_sum_mhs,
    mat,
    random_real_structure,
    realified_cohomology,
    rhom,
)
from hodgegauge import hodgecoh
from hodgegauge.connection import (
    EquivariantConnection,
    apply_gauge,
    connection_from_delta,
)
from hodgegauge.fixtures import (
    kummer,
    kummer_delta,
    random_mhs,
    real_corpus,
    real_kummer,
    real_sum_tate,
    real_tate,
    t3,
)
from hodgegauge.hodgecoh import (
    absolute_cohomology,
    hom_from_unit,
    invariant_complex,
    real_absolute_cohomology,
)
from hodgegauge.mhs import (
    GrStructure,
    HodgeNumbers,
    pure,
    realize_real,
)
from hodgegauge.linalg import InvariantError, Matrix
from hodgegauge.scalars import ONE, ZERO, I, Scalar
from hodgegauge.splitting import DeltaObject, delta_operator


def euler_bound(hodge):
    return hodge.counts.get((0, 0), 0) - sum(
        v for (p, q), v in hodge.counts.items() if p <= -1 and q <= -1
    )


def test_invariant_complex_unit():
    C = EquivariantConnection.zero(HodgeNumbers({(0, 0): 1}))
    cx = invariant_complex(C)
    assert len(cx.domain_labels) == 1
    assert len(cx.codomain_labels) == 0
    assert cx.cohomology_dims() == (1, 0)


def test_invariant_complex_tate():
    C = EquivariantConnection.zero(HodgeNumbers({(-1, -1): 1}))
    cx = invariant_complex(C)
    # v t1 t2 maps to v t2 dt1 + v t1 dt2
    assert len(cx.domain_labels) == 1
    assert len(cx.codomain_labels) == 2
    assert cx.matrix.rank() == 1
    assert cx.cohomology_dims() == (0, 1)


def test_invariant_complex_kummer():
    for c, want_rank in ((Scalar(3), 2), (Scalar(0), 1)):
        conn = connection_from_delta(kummer_delta(c))
        cx = invariant_complex(conn)
        assert len(cx.domain_labels) == 2
        assert len(cx.codomain_labels) == 2
        assert cx.matrix.rank() == want_rank


def test_invariant_complex_entries_read_off_the_labels():
    # each entry recomputed from its two labels alone: the exterior
    # derivative, then minus every block of A (slot 1, dt1) or B (slot 2,
    # dt2) whose bidegree moves the domain monomial onto the codomain one,
    # as d - Omega has it
    rng = random.Random(5)
    structures = [kummer(2), t3(1, 1)] + [
        random_mhs(rng, max_dim=4, weight_lo=-4, weight_hi=4) for _ in range(3)
    ]
    omega_terms = 0
    for V in structures:
        C = connection_from_delta(delta_operator(GrStructure(V)))
        cx = invariant_complex(C)
        slots = [lab[3] for lab in cx.codomain_labels]
        assert slots == sorted(slots)  # every dt1 label before every dt2
        for r, (j, a2, b2, slot) in enumerate(cx.codomain_labels):
            blocks, da, db = (C.A, 1, 0) if slot == 1 else (C.B, 0, 1)
            for col, (i, a, b) in enumerate(cx.domain_labels):
                want = Scalar(0)
                if i == j and (a2, b2) == (a - da, b - db):
                    want = want + Scalar(a if slot == 1 else b)
                for (rr, ss), M in blocks.items():
                    if (a2, b2) == (a + rr - da, b + ss - db) and M[j, i]:
                        want = want - M[j, i]
                        omega_terms += 1
                assert cx.matrix[r, col] == want
    assert omega_terms


def test_absolute_cohomology_values():
    assert absolute_cohomology(GrStructure(pure(0, 0))) == (1, 0)
    assert absolute_cohomology(GrStructure(pure(-1, -1))) == (0, 1)
    assert absolute_cohomology(GrStructure(kummer(3))) == (0, 0)
    assert absolute_cohomology(GrStructure(kummer(Scalar(2, 1)))) == (0, 0)
    assert absolute_cohomology(GrStructure(kummer(0))) == (1, 1)
    assert absolute_cohomology(GrStructure(pure(1, 1))) == (0, 0)


def test_hom_oracle():
    assert hom_from_unit(pure(0, 0)) == 1
    assert hom_from_unit(kummer(0)) == 1
    assert hom_from_unit(kummer(1)) == 0


def test_euler_characteristic_identity():
    rng = random.Random(13)
    structures = [pure(0, 0), kummer(2), t3(1, 1), direct_sum_mhs(pure(0, 0), pure(-2, -1))]
    structures += [random_mhs(rng, max_dim=4, weight_lo=-4, weight_hi=4) for _ in range(4)]
    for V in structures:
        gr = GrStructure(V)
        e0, e1 = absolute_cohomology(gr)
        assert e0 - e1 == euler_bound(gr.hodge)


def test_additivity_over_direct_sums():
    V = direct_sum_mhs(kummer(1), pure(-1, -1))
    a = absolute_cohomology(GrStructure(kummer(1)))
    b = absolute_cohomology(GrStructure(pure(-1, -1)))
    assert absolute_cohomology(GrStructure(V)) == (a[0] + b[0], a[1] + b[1])


def test_gauge_invariance():
    conn = connection_from_delta(kummer_delta(Scalar(2)))
    E = mat([[0, 1], [0, 0]])
    g = DeltaObject(conn.hodge, Matrix.identity(2) + E)
    moved = apply_gauge(conn, g)
    assert invariant_complex(moved).cohomology_dims() == invariant_complex(
        conn
    ).cohomology_dims()


def test_rhom_reduces_to_absolute():
    V = kummer(2)
    assert rhom(pure(0, 0), V) == absolute_cohomology(GrStructure(V))
    assert rhom(pure(-1, -1), pure(-1, -1)) == (1, 0)


def test_real_values():
    assert real_absolute_cohomology(real_tate(0)) == (1, 0)
    assert real_absolute_cohomology(real_tate(1)) == (0, 1)
    assert real_absolute_cohomology(real_sum_tate()) == (1, 1)
    assert real_absolute_cohomology(real_kummer(1)) == (0, 0)


def _real_structures():
    structures = [V for _, V in real_corpus()]
    structures += [real_kummer(g) for g in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3))]
    rng = random.Random(2024)
    return structures + [random_real_structure(rng) for _ in range(320)]


def test_descent_matches_realified_route():
    seen = set()
    for V in _real_structures():
        dims = real_absolute_cohomology(V)
        assert dims == realified_cohomology(V)
        seen.add(dims)
    assert {(0, 0), (0, 1), (1, 0), (1, 1), (3, 0)} <= seen


def test_conjugation_is_the_block_permutation():
    # hodgecoh's swap, as a permutation matrix, against the conjugation
    # solved on the graded bases and against the matrix built block by block
    structures = _real_structures()
    assert len(structures) == 329
    swapped = 0
    for V in structures:
        gr = GrStructure(realize_real(V))
        s = hodgecoh._block_swap(gr.hodge)
        n = len(s)
        S = Matrix([[ONE if i == s[j] else ZERO for j in range(n)] for i in range(n)])
        assert S == _conjugation_on_graded(gr) == block_permutation(gr.hodge)
        swapped += s != list(range(n))
    assert swapped > 100


def test_real_cohomology_applies_the_block_swap(monkeypatch):
    # B_{q,p} the entrywise conjugate of A_{p,q} at the same indices.  An
    # entry of bidegree (p, q), p != q, then sits in block (q, p), off its
    # bidegree, and is no part of B's value at (1, 1): that value is the
    # conjugate of A's on the entries of bidegree (p, p), and 0 elsewhere.
    # Where the swap moves no nonzero entry, or moves only entries onto
    # equal ones (a purely imaginary A_{1,1} on four of the structures),
    # this is the connection's own B and the check passes; everywhere else
    # the unswapped B must fail it.
    same = []

    def unswapped(dobj):
        C = connection_from_delta(dobj)
        U = EquivariantConnection(C.hodge, C.P, Matrix([
            [x.conjugate() if p == q else ZERO for x, (p, q) in zip(row, ds)]
            for row, ds in zip(C.P.rows, C.hodge.bidegrees())]))
        same.append(U == C)
        return U

    monkeypatch.setattr(hodgecoh, "connection_from_delta", unswapped)
    moved = failed = 0
    for V in _real_structures():
        gr = GrStructure(realize_real(V))
        s = hodgecoh._block_swap(gr.hodge)
        A = connection_from_delta(delta_operator(gr)).P
        moved += any((s[i], s[j]) != (i, j) for i, row in enumerate(A.rows)
                     for j, x in enumerate(row) if x)
        try:
            real_absolute_cohomology(V)
        except InvariantError as exc:
            assert "conjugation-stable" in str(exc)
            assert not same[-1]
            failed += 1
        else:
            assert same[-1]
    assert (moved, failed) == (129, 125)


def test_graded_bases_that_conjugation_does_not_swap_are_an_invariant_error(
    monkeypatch,
):
    # i times a rational canonical basis spans the same piece of real_tate,
    # but conjugation sends it to -i times itself
    class Tilted(GrStructure):
        def __init__(self, V):
            super().__init__(V)
            # i (re + im i) = -im + re i
            self.block_rows = {pq: tuple((tuple(-x for x in im or (0,) * len(re)), re)
                                         for re, im in rows)
                               for pq, rows in self.block_rows.items()}

    monkeypatch.setattr(hodgecoh, "GrStructure", Tilted)
    with pytest.raises(InvariantError, match="swap the graded bases"):
        real_absolute_cohomology(real_tate(0))


def test_real_cohomology_rejects_an_unstable_connection(monkeypatch):
    # i A and i B: conjugation turns i into -i, so the blocks no longer
    # match and the complex is not conjugation-stable
    def tilted(dobj):
        C = connection_from_delta(dobj)
        return EquivariantConnection(C.hodge, C.P.scale(I), C.Q.scale(I))

    monkeypatch.setattr(hodgecoh, "connection_from_delta", tilted)
    with pytest.raises(InvariantError, match="conjugation-stable"):
        real_absolute_cohomology(real_kummer(2))


def test_invariant_violation_raises_under_optimize():
    assert_raises_under_optimize(
        "from hodgegauge import hodgecoh\n"
        "from hodgegauge.fixtures import kummer\n"
        "from hodgegauge.linalg import InvariantError\n"
        "from hodgegauge.mhs import GrStructure\n"
        "hodgecoh.hom_from_unit = lambda V: -1",
        "hodgecoh.absolute_cohomology(GrStructure(kummer(2)))",
        "InvariantError", "disagrees with Hom",
    )
