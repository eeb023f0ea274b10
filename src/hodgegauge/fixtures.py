"""Named fixture structures and seeded random generators.

The named corpus covers the one-dimensional pure structures, the rank-2
Kummer-type family K(c) (extension of the unit by weight -2, comparison
entry -c), the rank-3 three-step family T3(a, b), tensor products, duals,
and the rational forms.  Each flag, hand-made or a tensor or dual of
others, is ``Filtration.from_basis`` of a basis adapted to it.  Random
structures are produced by drawing a comparison datum and realizing it, so
they are valid by construction; corruptions shift one weight step, which
always creates an off-diagonal graded piece.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, _ints
from .mhs import (
    ComplexMHS,
    Filtration,
    HodgeNumbers,
    RealMHS,
    dual_mhs,
    pure,
    tensor_mhs,
)
from .scalars import ONE, ZERO, Scalar
from .splitting import DeltaObject, delta_to_mhs


def _rank2(direction, row):
    """The W or F flag of a rank-2 fixture: row at level 0 over e_{-1} at
    level -2 (W) or -1 (F)."""
    em1 = -2 if direction == Filtration.INC else -1
    return Filtration.from_basis(direction, 2, [
        (0, _ints(row)[:2]), (em1, ((0, 1), None))])


def kummer(c):
    """Rank-2 extension: weight 0 piece e0 against weight -2 piece e_{-1},
    with F'' spanned by e0 + c e_{-1}.  Its comparison matrix is 1 - c E."""
    e0 = (ONE, ZERO)
    return ComplexMHS(2, _rank2(Filtration.INC, e0), _rank2(Filtration.DEC, e0),
                      _rank2(Filtration.DEC, (ONE, Scalar(0) + c)))


def kummer_delta(c):
    c = Scalar(0) + c
    h = HodgeNumbers({(0, 0): 1, (-1, -1): 1})
    return DeltaObject(h, Matrix([[ONE, -c], [ZERO, ONE]]))


def t3_delta(a, b):
    """Three-step rank-3 datum with comparison 1 + N, N carrying a and b on
    the block superdiagonal."""
    a = Scalar(0) + a
    b = Scalar(0) + b
    h = HodgeNumbers({(-2, -2): 1, (-1, -1): 1, (0, 0): 1})
    N = Matrix(
        [[ZERO, b, ZERO], [ZERO, ZERO, a], [ZERO, ZERO, ZERO]]
    )
    return DeltaObject(h, Matrix.identity(3) + N)


def t3(a, b):
    return delta_to_mhs(t3_delta(a, b))


def real_tate(n):
    """The rational one-dimensional structure of weight -2n."""
    e = ((1,), None)
    return RealMHS(1, Filtration.from_basis(Filtration.INC, 1, [(-2 * n, e)]),
                   Filtration.from_basis(Filtration.DEC, 1, [(-n, e)]))


def real_kummer(gamma):
    """Rank-2 rational structure whose complexification is Kummer-type with
    a purely imaginary comparison parameter; real_kummer(0) is the direct
    sum of the weight-0 and weight-(-2) rational points."""
    return RealMHS(2, _rank2(Filtration.INC, (ONE, ZERO)),
                   _rank2(Filtration.DEC, (ONE, Scalar(0, Fraction(gamma)))))


def real_sum_tate():
    """Direct sum of the weight-0 and weight(-2) rational points."""
    return real_kummer(0)


def named_corpus():
    """Ordered (name, structure) pairs; complex unless the name says real."""
    i = Scalar(0, 1)
    items = [
        ("pure_0_0", pure(0, 0)),
        ("pure_m1_m1", pure(-1, -1)),
        ("pure_1_2", pure(1, 2)),
        ("pure_1_0", pure(1, 0)),
        ("kummer_1", kummer(1)),
        ("kummer_3", kummer(3)),
        ("kummer_0", kummer(0)),
        ("kummer_2_plus_i", kummer(Scalar(2, 1))),
        ("kummer_half", kummer(Scalar(Fraction(1, 2)))),
        ("t3_2_5", t3(2, 5)),
        ("t3_1_1", t3(1, 1)),
        ("tensor_k1_k2", tensor_mhs(kummer(1), kummer(2))),
        ("tensor_k3_pure", tensor_mhs(kummer(3), pure(-1, -1))),
        ("dual_kummer_2", dual_mhs(kummer(2))),
        ("dual_t3", dual_mhs(t3(1, 2))),
        ("tensor_ki_pure", tensor_mhs(kummer(i), pure(1, 1))),
    ]
    return items


def real_corpus():
    return [
        ("real_tate_0", real_tate(0)),
        ("real_tate_1", real_tate(1)),
        ("real_kummer_2", real_kummer(2)),
        ("real_sum_tate", real_sum_tate()),
    ]


def _random_scalar(rng, gaussian=True):
    num = rng.randint(-3, 3)
    den = rng.choice((1, 1, 2))
    re = Fraction(num, den)
    if gaussian and rng.random() < 0.4:
        return Scalar(re, Fraction(rng.randint(-2, 2)))
    return Scalar(re)


def random_delta(rng, max_dim=8, weight_lo=-6, weight_hi=6, gaussian=True):
    """A random valid comparison datum within the given size bounds."""
    while True:
        nblocks = rng.randint(2, 4)
        counts = {}
        dim = 0
        for _ in range(nblocks):
            p = rng.randint(weight_lo // 2, weight_hi // 2)
            q = rng.randint(
                max(weight_lo - p, weight_lo // 2),
                min(weight_hi - p, weight_hi // 2),
            )
            h = rng.randint(1, 2)
            if dim + h > max_dim:
                continue
            counts[(p, q)] = counts.get((p, q), 0) + h
            dim += h
        if dim >= 2 and counts:
            break
    hodge = HodgeNumbers(counts)
    n = hodge.dim
    rows = [list(r) for r in Matrix.identity(n).rows]
    # in (a, b) order, one draw per entry that lowers both indices
    for a, b in sorted(hodge.lowering()):
        if rng.random() < 0.7:
            rows[a][b] = _random_scalar(rng, gaussian)
    return DeltaObject(hodge, Matrix(rows))


def random_mhs(rng, max_dim=8, weight_lo=-6, weight_hi=6, gaussian=True):
    return delta_to_mhs(
        random_delta(rng, max_dim, weight_lo, weight_hi, gaussian)
    )


def corrupt_weight_step(V, rng):
    """Shift one weight step up so a graded piece lands off the diagonal.

    Picks a weight n with W_{n-1} != W_n and replaces W_{n-1} by W_n: the
    pieces formerly of weight n now sit in weight n - 1 where p + q = n
    violates opposedness.  The result is still a well-formed filtration
    triple.
    """
    js = V.W.jumps()
    candidates = []
    for n in js:
        if V.W.at(n) != V.W.at(n - 1):
            candidates.append(n)
    n = rng.choice(candidates)
    steps = dict(V.W.steps)
    steps[n - 1] = V.W.at(n)
    W = Filtration(Filtration.INC, V.n, steps)
    return ComplexMHS(V.n, W, V.Fp, V.Fpp)
