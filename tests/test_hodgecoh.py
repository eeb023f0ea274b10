import random

import pytest

from conftest import mat
from hodgegauge.connection import (
    EquivariantConnection,
    GaugeTransformation,
    apply_gauge,
    connection_from_delta,
)
from hodgegauge.fixtures import (
    kummer,
    kummer_delta,
    random_mhs,
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
    rhom,
)
from hodgegauge.mhs import (
    GrStructure,
    HodgeNumbers,
    direct_sum_mhs,
    pure,
)
from hodgegauge.scalars import Scalar


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
    g = GaugeTransformation(conn.hodge, {(1, 1): E})
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
