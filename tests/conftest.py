import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from gendocs import cap_chain_delta, chain_delta  # noqa: F401 (for the tests)
from hodgegauge.connection import (
    AdmissibilityError,
    connection_form,
    connection_from_delta,
    from_blocks,
)
from hodgegauge.freelie import (
    GeneratorChangeError,
    LiePolynomial,
    NotLieElement,
    _tensor_bracket,
    alpha_alphabet,
    expand_lyndon,
    is_lyndon,
    universal_log_pexp,
    z_alphabet,
)
from hodgegauge.hodgecoh import absolute_cohomology, invariant_complex
from hodgegauge.holonomy import _segment_transport
from hodgegauge.linalg import (
    DimensionMismatch,
    InvariantError,
    Matrix,
    Subspace,
    _position,
    _reduce,
    _solve,
    _units,
    solve_left,
)
from hodgegauge import freelie
from hodgegauge.mhs import (
    ComplexMHS, Filtration, FiltrationError, GrStructure, HodgeNumbers, RealMHS,
    dual_mhs, realize_real, tensor_mhs,
)
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.scalars import ONE, ZERO, Scalar
from hodgegauge.splitting import DeltaObject, _adapted_pieces, delta_operator
from hodgegauge.upoly import add, at_one, hypotenuse_pullback, integral, mul, of

# the same examples on every run, so a hypothesis failure cannot come and go
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def sc(x):
    if isinstance(x, Scalar):
        return x
    return Scalar(Fraction(x))


def mat(rows):
    return Matrix([[sc(x) for x in row] for row in rows])


def vec(entries):
    return tuple(sc(x) for x in entries)


def span(n, rows):
    return Subspace.from_rows(n, [vec(r) for r in rows])


class NotNilpotentError(ValueError):
    """A matrix expected to be (uni)potent is not."""


def log_unipotent(M):
    """Exact logarithm of a unipotent matrix: sum_{k>=1} (-1)^{k+1} (M-I)^k / k."""
    n = M.nrows
    N = M - Matrix.identity(n)
    acc = Matrix.zeros(n, n)
    P = N
    for k in range(1, n + 2):
        if P.is_zero():
            return acc
        sign = ONE if k % 2 == 1 else -ONE
        acc = acc + P.scale(sign / Scalar(k))
        P = P @ N
    raise NotNilpotentError("M - I is not nilpotent")


def adapted_position(d, f, g):
    """The relative position of two decreasing flags on K^d (Fulton, Young
    Tableaux, ch. 10) from adapted bases f and g, lists of (level, row) with
    integer rows, levels falling, whose rows of level >= p span the step p:
    d triples (p, q, row), the rows a basis of K^d, such that F^p ∩ G^q is
    spanned by the rows of levels >= (p, q).  The rows of f are written in
    the basis g (one _solve), and each is reduced by the rows before it
    until its last nonzero coordinate is new.  Then a combination lies in
    G^q exactly when each of its rows does: when its last coordinate has
    level >= q.  Only spans matter here, so no row carries a denominator.
    """
    coords = _solve([(*r, 1) for _, r in g], [(*r, 1) for _, r in f], d)
    return _position([q for q, _ in g],
                     [(p, x, row) for (p, row), x in zip(f, coords)])


def subspace_sum(self, other):
    """U + V, for Subspaces U = self and V = other."""
    self._check_ambient(other)
    return Subspace._span(self.n, self.rows + other.rows)


def subspace_contains(self, other):
    """Whether the Subspace self contains the Subspace other."""
    self._check_ambient(other)
    reduced = _reduce(self.rows + other.rows, range(self.n))
    return all(j is None for j, _ in islice(reduced, self.dim, None))


def block_basis(gr, pq):
    """The canonical basis of the graded piece pq of gr, as rows of Scalars:
    ``gr.block_rows`` holds it as integer rows."""
    rows = gr.block_rows[pq]
    return Subspace(len(rows[0][0]), rows).basis.rows


def scalar_reduce(rows, scan):
    """The elimination ``linalg._reduce`` ran on Scalars before it ran on
    integer rows, kept verbatim as the reference the integer kernel is
    tested against."""
    # each row, in order, reduced by the kept rows before it until its first
    # nonzero coordinate in scan order is new, and scaled to 1 there; yields
    # (that coordinate, row), or (None, row) for a row that reduces to zero
    # on scan, which is not kept.  Coordinates outside scan ride along.
    kept = {}
    for v in rows:
        for j in scan:
            c = v[j]
            if c:
                if j not in kept:
                    break
                v = [a - c * b if b else a for a, b in zip(v, kept[j])]
        else:
            yield None, v
            continue
        if v[j] != ONE:
            inv = ONE / v[j]
            v = [inv * a if a else a for a in v]
        kept[j] = v
        yield j, v


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


@pytest.fixture
def scalar_arithmetic(monkeypatch):
    # the Scalar arithmetic calls, by name, made with a fresh expansion memo
    calls = []
    for name in _ARITHMETIC:
        def counted(*args, _op=getattr(Scalar, name), _name=name):
            calls.append(_name)
            return _op(*args)

        monkeypatch.setattr(Scalar, name, counted)
    monkeypatch.setattr(freelie, "_EXPANSIONS", {})
    return calls


def fixture_dir():
    import hodgegauge

    return os.path.join(os.path.dirname(hodgegauge.__file__), "fixtures")


def fixture_deltas():
    """The delta of every fixture that has one."""
    from hodgegauge import cli
    from hodgegauge.documents import parse

    deltas = []
    for name in sorted(os.listdir(fixture_dir())):
        with open(os.path.join(fixture_dir(), name)) as fh:
            try:
                deltas.append(cli._delta(parse(json.load(fh))))
            except (ValueError, cli.Violation):
                pass  # a connection document, or no structure
    assert len(deltas) >= 20
    return deltas


def fixture_hodge_numbers():
    """The Hodge numbers of every fixture: a delta or connection document's
    own, a structure's as it validates."""
    from hodgegauge import cli
    from hodgegauge.documents import parse

    out = []
    for name in sorted(os.listdir(fixture_dir())):
        with open(os.path.join(fixture_dir(), name)) as fh:
            obj = parse(json.load(fh))
        out.append(obj.hodge if hasattr(obj, "hodge") else cli._graded(obj).hodge)
    return out


def reference_shape(counts):
    """The block order with offsets, the owner of each index, the bidegree
    table and the lowering order of the Hodge numbers counts, derived on
    demand as lists, the reference for the fields of HodgeNumbers."""
    order = sorted(counts, key=lambda pq: (pq[0] + pq[1], pq[0]))
    blocks = []
    off = 0
    for pq in order:
        h = counts[pq]
        blocks.append((pq, off, h))
        off += h
    owner = [pq for pq, _, h in blocks for _ in range(h)]
    table = [[(pj - pi, qj - qi) for pj, qj in owner] for pi, qi in owner]
    lowering = [ij for _, ij in sorted(
        (a + b, (i, j)) for i, row in enumerate(table)
        for j, (a, b) in enumerate(row) if a > 0 and b > 0)]
    return blocks, owner, table, lowering


def unchecked_delta(hodge, delta):
    """A DeltaObject of any matrix, built past ``__init__``'s shape checks."""
    d = object.__new__(DeltaObject)
    object.__setattr__(d, "hodge", hodge)
    object.__setattr__(d, "delta", delta)
    return d


def assert_raises_under_optimize(setup, call, error, match):
    """Run setup, then call, in a ``python -O`` process and require that
    call raises error with match in its message: a broken invariant is a
    typed error, not an assert that -O strips."""
    script = "\n".join([
        "import sys",
        setup,
        "assert False, 'asserts are on'",
        "try:",
        "    " + call,
        "except %s as exc:" % error,
        "    sys.exit(0 if %r in str(exc) else 2)" % match,
        "sys.exit(1)",
    ])
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr


# Operations on structures that no command, criterion or benchmark reaches;
# the tests build their examples with them.


def conjugate_mhs(V):
    """Conjugate structure: entrywise-conjugated bases with F' and F'' swapped."""
    return ComplexMHS(
        V.n, V.W.conjugate(), V.Fpp.conjugate(), V.Fp.conjugate()
    )


def _sum_filtration(f, g):
    n = f.n + g.n
    right, left = (ZERO,) * g.n, (ZERO,) * f.n
    return Filtration(f.direction, n, {
        k: Subspace.from_rows(n, [r + right for r in f.at(k).basis.rows]
                              + [left + r for r in g.at(k).basis.rows])
        for k in sorted(set(f.jumps()) | set(g.jumps()))
    })


def direct_sum_mhs(V, Vp):
    return ComplexMHS(
        V.n + Vp.n,
        _sum_filtration(V.W, Vp.W),
        _sum_filtration(V.Fp, Vp.Fp),
        _sum_filtration(V.Fpp, Vp.Fpp),
    )


def reference_tensor_mhs(V, Vp):
    """``mhs.tensor_mhs`` by its per-step definition: step k of each flag is
    the span of the Scalar Kronecker products of the bases of f_a and
    g_(k-a), summed over a from one below f's first index to its last (the
    a outside add nothing), stored at the keys ``tensor_mhs`` stores."""

    def tensor(f, g):
        n = f.n * g.n
        lo, hi = f.min_index() + g.min_index(), f.max_index() + g.max_index()
        dec = f.direction == Filtration.DEC
        steps = {k: Subspace.from_rows(n, [
            tuple(x * y for x in u for y in v)
            for a in range(f.min_index() - 1, f.max_index() + 1)
            for u in f.at(a).basis.rows for v in g.at(k - a).basis.rows
        ]) for k in range(lo - 1, hi + 1 + dec)}
        if dec and steps[lo - 1].dim == n:
            del steps[lo - 1]
        return Filtration(f.direction, n, steps)

    return ComplexMHS(V.n * Vp.n, tensor(V.W, Vp.W), tensor(V.Fp, Vp.Fp),
                      tensor(V.Fpp, Vp.Fpp))


def reference_annihilator(U):
    """{phi : phi(u) = 0 for u in U} in dual coordinates: the nullspace of
    U's basis, by sympy's DomainMatrix over QQ_I."""
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def q(z):
        return Fraction(int(z.numerator), int(z.denominator))

    if not U.dim:
        return Subspace.full(U.n)
    dm = DomainMatrix([[QQ_I(x.re, x.im) for x in row] for row in U.basis.rows],
                      (U.dim, U.n), QQ_I)
    return Subspace.from_rows(U.n, [[Scalar(q(z.x), q(z.y)) for z in row]
                                    for row in dm.nullspace().to_list()])


def reference_dual_mhs(V):
    """``mhs.dual_mhs`` by its per-step definition: (F*)^p = Ann(F^(1-p))
    and (W*)_k = Ann(W_(-1-k)), stored at the keys ``dual_mhs`` stores."""

    def dual(f):
        c = 1 if f.direction == Filtration.DEC else -1
        return Filtration(f.direction, f.n, {
            j: reference_annihilator(f.at(c - j))
            for j in range(c - f.max_index(), c - f.min_index() + 2)})

    return ComplexMHS(V.n, dual(V.W), dual(V.Fp), dual(V.Fpp))


def apply(U, f):
    """Image of the subspace U under the linear map v |-> f @ v (f maps K^n
    to K^m)."""
    if f.ncols != U.n:
        raise DimensionMismatch("map domain %d vs ambient %d" % (f.ncols, U.n))
    if U.dim == 0:
        return Subspace.zero(f.nrows)
    return Subspace.from_rows(f.nrows, (U.basis @ f.transpose()).rows)


def validate_morphism(f, V, Vp):
    """True iff the matrix f (n' x n) preserves all three filtrations."""
    if f.ncols != V.n or f.nrows != Vp.n:
        raise DimensionMismatch(
            "morphism shape %r for %d -> %d" % (f.shape, V.n, Vp.n)
        )
    for src, dst in ((V.W, Vp.W), (V.Fp, Vp.Fp), (V.Fpp, Vp.Fpp)):
        keys = set(src.jumps()) | set(dst.jumps())
        for k in keys:
            if not subspace_contains(dst.at(k), apply(src.at(k), f)):
                return False
    return True


def block_permutation(hodge):
    """Permutation matrix from the block basis of h to that of its transpose."""
    ht = hodge.transpose()
    off_t = {pq: off for pq, off, h in ht.blocks()}
    n = hodge.dim
    rows = [[ZERO] * n for _ in range(n)]
    for (p, q), off, h in hodge.blocks():
        for k in range(h):
            rows[off_t[(q, p)] + k][off + k] = ONE
    return Matrix(rows)


def conjugate_delta(dobj):
    """Delta of the conjugate structure, computed on the graded model."""
    P = block_permutation(dobj.hodge)
    delta_new = P @ dobj.delta.inverse().conjugate() @ P.transpose()
    return DeltaObject(dobj.hodge.transpose(), delta_new)


def coefficients(f):
    """The coefficients of a ``upoly`` polynomial as reduced Scalars,
    constant first."""
    return [at_one(([x], [y], f[2]))
            for x, y in zip_longest(f[0], f[1], fillvalue=0)]


def flat_sections_on_line(C):
    """Fundamental solution S(u) on the line t1 = u, t2 = -1 - u with
    S(-1) = 1; columns span the covariantly constant sections, S(0) is the
    hypotenuse transport."""
    T = {ij: Poly(1, {(k,): c for k, c in enumerate(coefficients(f))})
         for ij, f in _segment_transport(C, (-ONE, ZERO), (ZERO, -ONE)).items()}
    n, one, zero = C.hodge.dim, Poly.constant(1, ONE), Poly(1, {})
    S = PolyMatrix(1, [[one if i == j else T.get((i, j), zero) for j in range(n)]
                       for i in range(n)])
    # the segment's parameter is s = u + 1
    return S.subs(0, one + Poly.variable(1, 0))


class Quotient:
    """Chart for S/T with a deterministic echelon-complement basis: the
    reference the adapted basis of ``mhs.AdaptedTriple`` is tested against.

    The complement is the rows of S's echelon basis that are pivots of the
    columns T | S, i.e. each row not in the span of T and the rows before
    it, so the chart is a pure function of (S, T).
    """

    def __init__(self, S, T):
        S._check_ambient(T)
        cols = T.basis.rows + S.basis.rows
        pivots = Matrix._of(cols, S.n).transpose().rref()[1]
        if len(pivots) != S.dim:
            raise ValueError("T is not contained in S")
        self.S = S
        self.T = T
        self.complement = tuple(cols[c] for c in pivots[T.dim :])

    @property
    def dim(self):
        return len(self.complement)

    def project_subspace(self, U):
        """Image of ((U ∩ S) + T)/T as a subspace of the quotient chart."""
        inter = U.intersect(self.S)
        if not inter.dim:
            return Subspace.zero(self.dim)
        if inter.dim == self.S.dim:
            return Subspace.full(self.dim)
        sols = solve_left(
            Matrix._of(self.T.basis.rows + self.complement, self.S.n), inter.basis.rows
        )
        low = self.T.dim
        return Subspace.from_rows(self.dim, [x[low:] for x in sols])

    def lift(self, coords):
        v = [ZERO] * self.S.n
        for c, row in zip(coords, self.complement):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = v[j] + c * x
        return tuple(v)


def piece_dimensions(Fp, Fpp):
    """({(p, q): h}, {(p, q): F'^p ∩ F''^q}) for a simultaneous bigrading
    of two decreasing filtrations of one space: h is the double difference
    of dim(F'^p ∩ F''^q), over indices from one below each first jump
    (where a filtration is the full space) to the last.  The pieces of two
    separated filtrations sum to the whole space.  The relative position of
    two validated flags and the graded data of ``mhs.GrStructure`` are
    tested against it."""
    if not Fp.steps or not Fpp.steps:
        return {}, {}
    ps = range(Fp.min_index() - 1, Fp.max_index() + 2)
    qs = range(Fpp.min_index() - 1, Fpp.max_index() + 2)
    cap = {(p, q): Fp.at(p).intersect(Fpp.at(q)) for p in ps for q in qs}
    out = {}
    for p in ps[:-1]:
        for q in qs[:-1]:
            h = (cap[p, q].dim - cap[p + 1, q].dim - cap[p, q + 1].dim
                 + cap[p + 1, q + 1].dim)
            if h:
                out[(p, q)] = h
    return out, cap


def two_filtration_rees_type(Fp, Fpp):
    """Splitting type of the Rees bundle of a pair of finite decreasing
    filtrations on P^1: the multiset of p + q over the levels (p, q) of
    their relative position, read off the adapted bases that ``validate``
    returns, sorted descending.  The pair is n-opposite iff every entry
    equals n."""
    position = adapted_position(Fp.n, Fp.validate(), Fpp.validate())
    return tuple(sorted((p + q for p, q, _ in position), reverse=True))


def pairwise_validate(f):
    """Reference route for ``Filtration.validate``: each pair of
    consecutive steps tested for containment, lowest pair first, then
    exhaustion or separation.  Returns nothing."""
    js = f.jumps()
    for a, b in zip(js, js[1:]):
        lo, hi = f.steps[a], f.steps[b]
        if f.direction == f.INC:
            if not subspace_contains(hi, lo):
                raise FiltrationError("not increasing at %d -> %d" % (a, b))
        else:
            if not subspace_contains(lo, hi):
                raise FiltrationError("not decreasing at %d -> %d" % (a, b))
    if js:
        top = f.steps[js[-1]]
        if f.direction == f.INC and top != Subspace.full(f.n):
            raise FiltrationError("increasing filtration does not exhaust")
        if f.direction == f.DEC and top.dim != 0:
            raise FiltrationError("decreasing filtration is not separated")
    elif f.n != 0:
        raise FiltrationError("empty filtration on nonzero space")


def one_pass_validate(self):
    """Reference route for ``Filtration.validate`` on the Filtration self,
    kept verbatim: one _reduce of every step's echelon rows, innermost step
    first, and then of K^n's unit rows, which a decreasing flag's basis
    takes from the same generator until it has n rows."""
    inc = self.direction == self.INC
    keys = self._keys if inc else self._keys[::-1]
    if not keys:
        if self.n:
            raise FiltrationError("empty filtration on nonzero space")
        return []
    levels = keys if inc else keys[:1] + tuple(k - 1 for k in keys)
    steps = [self.steps[k].rows for k in keys]
    units = _units(self.n)
    reduced = _reduce((r for rows in steps + [units] for r in rows),
                      range(self.n))
    basis = []
    for i, (level, rows) in enumerate(zip(levels, steps)):
        # zip pulls one reduced row per row of this step
        basis.extend((level, r) for r, (j, _) in zip(rows, reduced)
                     if j is not None)
        if len(basis) != len(rows):
            raise FiltrationError("not %s at %d -> %d" % (
                "increasing" if inc else "decreasing",
                *sorted(keys[i - 1:i + 1])))
    if self.steps[self._keys[-1]].dim != (self.n if inc else 0):
        raise FiltrationError("increasing filtration does not exhaust" if inc
                              else "decreasing filtration is not separated")
    for r in units:
        if len(basis) == self.n:
            break
        if next(reduced)[0] is not None:
            basis.append((keys[-1] - 1, r))
    return basis


def quotient_route(V):
    """Reference graded charts: for each weight n with W_n != W_{n-1}, a
    Quotient chart W_n / W_{n-1} and every F' and F'' step projected into
    it on its own, then Hodge numbers or the first violation."""
    charts = []
    counts = {}
    violations = []
    for n in range(min(V.W.steps), max(V.W.steps) + 1):
        if V.W.at(n) == V.W.at(n - 1):
            continue
        chart = Quotient(V.W.at(n), V.W.at(n - 1))
        fp, fpp = (
            Filtration(Filtration.DEC, chart.dim,
                       {k: chart.project_subspace(s) for k, s in f.steps.items()})
            for f in (V.Fp, V.Fpp)
        )
        charts.append((n, chart, fp, fpp))
        for (p, q), h in piece_dimensions(fp, fpp)[0].items():
            if p + q != n:
                violations.append((n, p, q, h))
            counts[(p, q)] = h
    outcome = min(violations) if violations else HodgeNumbers(counts)
    return charts, outcome


def sparse_form(V):
    """V with the leading full step of F' and F'' left implicit."""

    def drop(f):
        lo = min(f.steps)
        assert f.steps[lo] == Subspace.full(f.n)
        return Filtration(f.direction, f.n, {k: s for k, s in f.steps.items() if k != lo})

    return ComplexMHS(V.n, V.W, drop(V.Fp), drop(V.Fpp))


def gapped_form(V, rng):
    """V with one stored step of F' or F'' below its last dropped, so that
    the step below it lasts over two indices."""
    side = rng.choice(("Fp", "Fpp"))
    f = getattr(V, side)
    keys = f.jumps()[1:-1]
    if not keys:
        return V
    steps = {k: s for k, s in f.steps.items() if k != rng.choice(keys)}
    g = Filtration(Filtration.DEC, V.n, steps)
    return ComplexMHS(V.n, V.W, *((g, V.Fpp) if side == "Fp" else (V.Fp, g)))


def multi_block_delta(rng, max_dim=16):
    """A seeded comparison datum whose weights each carry two or three Hodge
    blocks, of dimension at most max_dim; entries as in random_delta."""
    while True:
        counts = {}
        for n in rng.sample(range(-4, 5), rng.randint(2, 3)):
            for p in rng.sample(range(-3, 4), rng.randint(2, 3)):
                counts[p, n - p] = rng.randint(1, 2)
        if sum(counts.values()) <= max_dim:
            break
    hodge = HodgeNumbers(counts)
    owner = hodge.block_of_index()
    rows = [[int(a == b) for b in range(hodge.dim)] for a in range(hodge.dim)]
    for a, (pa, qa) in enumerate(owner):
        for b, (pb, qb) in enumerate(owner):
            if pa < pb and qa < qb and rng.random() < 0.7:
                rows[a][b] = Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                                    rng.choice((0, 0, 1, -2)))
    return DeltaObject(hodge, mat(rows))


def greedy_from_tensor(alphabet, tensor):
    """Lyndon coordinates of a Lie element by greedy extraction: each step
    takes the minimal surviving word, by (length, word), with a scan of the
    whole residue, and subtracts its bracketing.  The reference the
    heap-ordered ``LiePolynomial.from_tensor`` is tested against.
    """
    work = {w: c for w, c in tensor.items() if c}
    coords = {}
    while work:
        w = min(work, key=lambda u: (len(u), u))
        if not is_lyndon(w):
            raise NotLieElement("minimal word %r is not Lyndon" % (w,))
        c = work[w]
        coords[w] = c
        for u, cu in expand_lyndon(w).items():
            new = work.get(u, ZERO) - c * cu
            if new:
                work[u] = new
            else:
                work.pop(u, None)
    return LiePolynomial(alphabet, coords)


def _dynkin(alphabet, tensor):
    """Left-nested bracketing word by word, expanded back to tensors."""
    out = {}
    for w, c in tensor.items():
        if not w:
            continue
        br = {(w[0],): 1}, 1
        for i in w[1:]:
            br = _tensor_bracket(br, ({(i,): 1}, 1))
        for u, cu in br[0].items():
            out[u] = out.get(u, ZERO) + c * cu
    return {w: c for w, c in out.items() if c}


def lie_level_inversion(N):
    """The alpha-in-z table by back-substitution on Lie polynomials: each
    row substitutes the rows found so far into the tail of z_{p,q} with
    ``substitute_lie``, which extracts Lyndon coordinates after every
    bracket.  The reference the tensor-level
    ``freelie.invert_generator_change`` is tested against.
    """
    ztab = universal_log_pexp(N)
    A = alpha_alphabet(N)
    Z = z_alphabet(N)
    out = {}
    mapping = {}  # alpha label -> its row of out, for the rows found so far
    # A and Z list the same bidegrees in the same order
    for i, pq in enumerate(A.bidegrees):
        zpq = ztab[pq]
        c = zpq.coords.get((i,), ZERO)
        if not c:
            raise GeneratorChangeError(
                "vanishing leading coefficient at (%d, %d)" % pq
            )
        tail = LiePolynomial(
            A, {w: x for w, x in zpq.coords.items() if w != (i,)}
        )
        subbed = tail.substitute_lie(Z, mapping)
        out[pq] = (LiePolynomial.generator(Z, i) - subbed).scale(ONE / c)
        mapping[A.letters[i][0]] = out[pq]
    return out


def _ts_mul(a, b, alphabet, N):
    # the words of b bucketed by weight, so no pair above N is ever formed
    buckets = {}
    for wb, cb in b.items():
        buckets.setdefault(alphabet.word_weight(wb), []).append((wb, cb))
    out = {}
    for wa, ca in a.items():
        for wt in range(N - alphabet.word_weight(wa) + 1):
            for wb, cb in buckets.get(wt, ()):
                key = wa + wb
                out[key] = out.get(key, ZERO) + ca * cb
    return {w: c for w, c in out.items() if c}


def _ts_log(u, alphabet, N):
    x = {w: c for w, c in u.items() if w}
    acc = {}
    power = dict(x)
    k = 1
    while power:
        sign = ONE / (k if k % 2 == 1 else -k)
        for w, c in power.items():
            acc[w] = acc.get(w, ZERO) + sign * c
        power = _ts_mul(power, x, alphabet, N)
        k += 1
    return {w: c for w, c in acc.items() if c}


def reference_log_pexp(N):
    """The z-in-alpha table on Scalars: each word's iterated integral read
    at s = 1 as a Scalar, the log by the Scalar series ``_ts_log`` above,
    and Lyndon coordinates by ``greedy_from_tensor``.  The reference the
    integer pipeline of ``freelie.universal_log_pexp`` is tested against.
    """
    A = alpha_alphabet(N)
    hs = [hypotenuse_pullback(p, q) for p, q in A.bidegrees]
    u = {}
    words = [((), ([1], [], 1))]
    for w, f in words:  # grows while read
        c = at_one(f)
        if c:
            u[w] = c
        for i, h in enumerate(hs):
            if A.word_weight((i,) + w) <= N:
                words.append(((i,) + w, integral(mul(h, f))))
    comps = greedy_from_tensor(A, _ts_log(u, A, N)).bidegree_components()
    return {pq: comps.get(pq, LiePolynomial.zero(A)) for pq in A.bidegrees}


def segment_pullback(P, Q, a, b):
    """Univariate matrix M(t) = P(gamma(t)) x1' + Q(gamma(t)) x2' for the
    straight segment gamma(t) = a + t (b - a), t in [0, 1], expanded entry
    by entry over the dense forms (P, Q) of ``connection_form``."""
    a = (sc(a[0]), sc(a[1]))
    b = (sc(b[0]), sc(b[1]))
    d1 = b[0] - a[0]
    d2 = b[1] - a[1]
    t = Poly.variable(1, 0)
    g1 = Poly.constant(1, a[0]) + t.scale(d1)
    g2 = Poly.constant(1, a[1]) + t.scale(d2)

    cache = {}

    def mono(e1, e2):
        if (e1, e2) not in cache:
            acc = Poly.constant(1, ONE)
            for _ in range(e1):
                acc = acc * g1
            for _ in range(e2):
                acc = acc * g2
            cache[(e1, e2)] = acc
        return cache[(e1, e2)]

    zero = Poly(1, {})

    def pull(pm, speed):
        rows = []
        for row in pm.rows:
            out = []
            for poly in row:
                acc = zero
                for (e1, e2), c in poly.terms.items():
                    acc = acc + mono(e1, e2).scale(c * speed)
                out.append(acc)
            rows.append(tuple(out))
        return PolyMatrix(1, rows)

    return pull(P, d1) + pull(Q, d2)


def _laurent_det(pm):
    """Determinant by expansion along columns with zero-pruning; the
    matrices here are small and sparse."""
    r, _ = pm.shape
    if r == 0:
        return Poly.constant(1, ONE)

    rows = pm.rows

    def minor(avail_rows, col, sign):
        if col == r:
            return Poly.constant(1, sign)
        acc = Poly(1, {})
        for idx, i in enumerate(avail_rows):
            entry = rows[i][col]
            if entry.is_zero():
                continue
            sub_sign = sign if idx % 2 == 0 else -sign
            rest = avail_rows[:idx] + avail_rows[idx + 1 :]
            acc = acc + entry * minor(rest, col + 1, sub_sign)
        return acc

    return minor(tuple(range(r)), 0, ONE)


def picard(M, lower):
    """Polynomial fundamental solution S of S' = M S with S(lower) = 1: the
    sum of the iterated integrals T_0 = 1, T_{k+1} = integral from lower of
    M T_k, which end because M takes values in nilpotent matrices; guarded
    by the ambient dimension.  The reference the weight-ordered walk of
    ``hodgegauge.connection`` is tested against.
    """
    n = M.shape[0]
    T = S = PolyMatrix.identity(1, n)
    for _ in range(n + 1):
        MT = M @ T
        F = PolyMatrix(1, [[p.antiderivative() for p in row] for row in MT.rows])
        T = F - PolyMatrix.from_scalar_matrix(1, F.eval((lower,)))
        if T.is_zero():
            return S
        S = S + T
    raise NotNilpotentError("transport iteration did not terminate")


def picard_transport(C, a, b):
    """Transport matrix of the connection C from a to b by ``picard``."""
    P, Q = connection_form(C)
    return picard(segment_pullback(P, Q, a, b), ZERO).eval((ONE,))


# The walk as it was before its form entry became the pair (pullback,
# coefficient): each entry one polynomial, which the walk convolved with
# the transport.  splitting._walk, splitting._solve_form and
# holonomy._segment_transport as they were then, verbatim but for their
# names and imports, which the pair entries are tested against.


def reference_walk(hodge, rule, start=None):
    M = [{} for _ in range(hodge.dim)]
    T = {ij: of((x,)) for ij, x in (start or {}).items()}
    for i, j in hodge.lowering():
        S = of(())
        for k, m in M[i].items():
            if (k, j) in T:
                S = add(S, mul(m, T[k, j]))
        m = rule(i, j, S)
        if m is not None:
            M[i][j] = m
            S = add(S, m)
        if S[0] or S[1]:
            T[i, j] = add(T[i, j], integral(S)) if (i, j) in T else integral(S)
    return T


def reference_solve_form(dobj, pullback):
    n = dobj.hodge.dim
    bidegrees = dobj.hodge.bidegrees()
    delta = dobj.delta.rows
    pulled, rows = {}, [[ZERO] * n for _ in range(n)]

    def solve(i, j, S):
        pq = bidegrees[i][j]
        if pq not in pulled:
            h = pullback(*pq)
            pulled[pq] = (h, at_one(integral(h)))
        h, c = pulled[pq]
        a = (delta[i][j] - at_one(integral(S))) / c
        if not a:
            return None
        rows[i][j] = a
        return mul(h, of((a,)))

    reference_walk(dobj.hodge, solve)
    return Matrix._of(tuple(map(tuple, rows)), n)


def reference_segment_transport(C, a, b, start=None):
    speed = [b[k] - a[k] for k in (0, 1)]
    line = [of((a[k], speed[k])) for k in (0, 1)]
    power = [[of((ONE,))], [of((ONE,))]]
    pulled, pull = {}, {}
    for k, X in enumerate((C.P, C.Q)):
        for i, (row, ds) in enumerate(zip(X.rows, C.hodge.bidegrees())):
            for j, (x, (p, q)) in enumerate(zip(row, ds)):
                if not x:
                    continue
                if (k, p, q) not in pulled:
                    for c, e in ((0, p - 1 + k), (1, q - k)):
                        while len(power[c]) <= e:
                            power[c].append(mul(power[c][-1], line[c]))
                    pulled[k, p, q] = mul(mul(power[0][p - 1 + k], power[1][q - k]),
                                          of((speed[k],)))
                h = pulled[k, p, q]
                if h[0] or h[1]:
                    m = mul(h, of((x,)))
                    pull[i, j] = add(pull[i, j], m) if (i, j) in pull else m
    pull = {ij: m for ij, m in pull.items() if m[0] or m[1]}
    return reference_walk(C.hodge, lambda i, j, S: pull.get((i, j)), start)


# The connection as it was held before it became its two values at (1, 1):
# the block constructor, verbatim, which ``connection.from_blocks`` is
# tested against.


def _check_block(hodge, M, p, q, what):
    if M.shape != (hodge.dim, hodge.dim):
        raise AdmissibilityError(
            "%s block at (%d, %d) has shape %r" % (what, p, q, M.shape)
        )
    for row, degrees in zip(M.rows, hodge.bidegrees()):
        for x, (a, b) in zip(row, degrees):
            if x and (a, b) != (p, q):
                raise AdmissibilityError(
                    "%s_{%d,%d} has an entry of bidegree %r"
                    % (what, p, q, (-a, -b))
                )


def _weight_spread(hodge):
    ws = hodge.weights()
    return ws[-1] - ws[0] if ws else 0


class ReferenceConnection:
    """Hodge numbers plus the coefficient maps A, B keyed by (p, q)."""

    def __init__(self, hodge, A, B):
        A = {k: v for k, v in A.items() if not v.is_zero()}
        B = {k: v for k, v in B.items() if not v.is_zero()}
        spread = _weight_spread(hodge)
        for coeffs, what in ((A, "A"), (B, "B")):
            for (p, q), M in coeffs.items():
                if p < 1 or q < 1:
                    raise AdmissibilityError(
                        "%s block at non-admissible (%d, %d)" % (what, p, q)
                    )
                if p + q > spread:
                    raise AdmissibilityError(
                        "%s block at (%d, %d) exceeds the weight spread %d"
                        % (what, p, q, spread)
                    )
                _check_block(hodge, M, p, q, what)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


# The gauge layer on dense polynomial matrices, in the transport's
# convention d - Omega: the reference the values of ``hodgegauge.connection``
# are tested against.  A gauge is the DeltaObject of its value at (1, 1).


def random_gauge(hodge, rng):
    """A seeded admissible gauge: each lowering entry below the weight
    spread set with probability 0.6 to a + b*i, a in -3..3, b in -1..1,
    drawn by bidegree (p, q) and then by entry (i, j); the gauges of
    acceptance criteria 04 and 08."""
    owner = hodge.block_of_index()
    ws = hodge.weights()
    spread = ws[-1] - ws[0]
    n = hodge.dim
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for p in range(1, spread):
        for q in range(1, spread - p + 1):
            for i in range(n):
                for j in range(n):
                    if owner[i] == (owner[j][0] - p, owner[j][1] - q):
                        if rng.random() < 0.6:
                            rows[i][j] = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
    return DeltaObject(hodge, Matrix(rows))


def gauge_matrix(g):
    """g as a polynomial matrix in (t1, t2): entry (i, j) of its value at
    (1, 1) times t1^p t2^q, for (p, q) the bidegree of the entry."""
    return PolyMatrix(2, [[Poly.monomial(2, pq, x) for x, pq in zip(row, ds)]
                          for row, ds in zip(g.delta.rows, g.hodge.bidegrees())])


def gauge_blocks(g):
    """The blocks C_{p,q} of g = 1 + sum C_{p,q} t1^p t2^q."""
    G = gauge_matrix(g)
    return {pq: G.coefficient_matrix(pq) for pq in G.support() if pq != (0, 0)}


def gauge_inverse_matrix(g):
    """g^{-1} via the terminating geometric series (g - 1 is nilpotent)."""
    one = PolyMatrix.identity(2, g.hodge.dim)
    N = gauge_matrix(g) - one
    acc = term = one
    while True:
        term = -(term @ N)
        if term.is_zero():
            return acc
        acc = acc + term


def _gauge_of(hodge, G):
    """The gauge whose polynomial matrix is G, which must be the matrix of
    its value at (1, 1)."""
    g = DeltaObject(hodge, G.eval((ONE, ONE)))
    assert gauge_matrix(g) == G
    return g


def reference_compose(g, h):
    return _gauge_of(g.hodge, gauge_matrix(g) @ gauge_matrix(h))


def reference_inverse(g):
    return _gauge_of(g.hodge, gauge_inverse_matrix(g))


def reference_apply_gauge(C, g):
    """Omega -> g^{-1} Omega g - g^{-1} dg, repackaged into coefficients."""
    G, Ginv = gauge_matrix(g), gauge_inverse_matrix(g)
    P, Q = connection_form(C)
    Pn = Ginv @ (P @ G - G.diff(0))
    Qn = Ginv @ (Q @ G - G.diff(1))
    return from_blocks(
        C.hodge,
        {(a + 1, b): Pn.coefficient_matrix((a, b)) for a, b in Pn.support()},
        {(a, b + 1): Qn.coefficient_matrix((a, b)) for a, b in Qn.support()},
    )


def reference_curvature(C):
    """d1 Q - d2 P - [P, Q] as a polynomial matrix."""
    P, Q = connection_form(C)
    return Q.diff(0) - P.diff(1) - P.commutator(Q)


def curvature_matrix(n, F):
    """The curvature blocks F as a polynomial matrix: block (p, q) carries
    t1^(p-1) t2^(q-1)."""
    out = PolyMatrix.zeros(2, n, n)
    for (p, q), M in F.items():
        out = out + PolyMatrix.from_scalar_matrix(2, M).scale_poly(
            Poly.monomial(2, (p - 1, q - 1)))
    return out


def reference_normalize(C):
    """Fock-Schwinger normal form and gauge, level by level on d = p + q
    with C_{p,q} = (A + B)_{p,q} / d, on the polynomial route."""
    hodge = C.hodge
    one = Matrix.identity(hodge.dim)
    zero = Matrix.zeros(hodge.dim, hodge.dim)
    current, total = C, DeltaObject(hodge, one)
    for d in range(2, _weight_spread(hodge) + 1):
        c = zero
        for p in range(1, d):
            S = current.A.get((p, d - p), zero) + current.B.get((p, d - p), zero)
            c = c + S.scale(ONE / d)
        if not c.is_zero():
            g = DeltaObject(hodge, one + c)
            current = reference_apply_gauge(current, g)
            total = reference_compose(total, g)
    return current, total


def gauge_at(g, x):
    """The matrix g(x) at a point x of the plane."""
    return gauge_matrix(g).eval(x)


def coords(gr, rows):
    """Coordinates of vectors of K^n in the W-adapted basis of gr."""
    return (Matrix._of(tuple(map(tuple, rows)), gr.V.n) @ gr.basis.inverse()).rows


def lift(gr, row, n):
    """The vector of K^n with these coordinates in the chart of Gr^W_n of
    gr (an AdaptedTriple) and none outside it."""
    lo, hi = gr.cols[n]
    chart = Matrix._of(gr.basis.rows[lo:hi], gr.V.n)
    return (Matrix._of((tuple(row),), hi - lo) @ chart).rows[0]


def gr_coords(gr, rows, n):
    """Coordinates of v + W_{n-1} in the total canonical basis of the
    validated gr, for each v of rows (adapted coordinates, each in W_n),
    from one elimination inside the chart of Gr^W_n."""
    lo, hi = gr.cols[n]
    if any(x for r in rows for x in r[:lo]):
        raise ValueError("vector does not lie in W_%d" % n)
    chart = tuple(r for (p, q), _, _ in gr.hodge.blocks() if p + q == n
                  for r in block_basis(gr, (p, q)))
    sols = solve_left(Matrix._of(chart, hi - lo), [r[lo:hi] for r in rows])
    # the canonical basis runs up in weight, the adapted columns down
    return tuple((ZERO,) * (gr.V.n - hi) + x + (ZERO,) * lo for x in sols)


def pairwise_pieces(gr, side):
    """The pieces I^{p,q} of one side of the validated gr in its adapted
    coordinates, each intersected pairwise: every F step eliminated in those
    coordinates, and for each block Fa^a ∩ W_n against a fresh span of its
    tail Fb^b ∩ W_n + the sum over j >= 1 of Fb^(b-j) ∩ W_(n-j-1).  The
    reference ``splitting._adapted_pieces`` (one relative position per
    weight) is tested against."""
    dim = gr.V.n
    inv = gr.basis.inverse()
    # zero and the full space read the same in every basis
    F = {s: Filtration(Filtration.DEC, dim, {
        k: sub if sub.dim in (0, dim)
        else Subspace.from_rows(dim, (sub.basis @ inv).rows)
        for k, sub in getattr(gr.V, s).steps.items()
    }) for s in ("Fp", "Fpp")}

    def in_w(sub, k):
        # the rows of an adapted echelon basis that span its part in W_k
        lo = min((lo for n, (lo, _) in gr.cols.items() if n <= k), default=dim)
        return tuple(r for r in sub.basis.rows if not any(r[:lo]))

    Fa, Fb = F[side], F["Fpp" if side == "Fp" else "Fp"]
    out = {}
    for (p, q), _, _ in gr.hodge.blocks():
        a, b = (p, q) if side == "Fp" else (q, p)
        n = p + q
        first = Subspace.from_rows(dim, in_w(Fa.at(a), n))
        tail = list(in_w(Fb.at(b), n))
        for j in range(1, n - min(gr.cols)):
            tail.extend(in_w(Fb.at(b - j), n - j - 1))
        out[(p, q)] = first.intersect(Subspace.from_rows(dim, tail))
    return out


def pairwise_delta(gr, pieces):
    """delta by the solve of ``splitting.delta_operator`` from the pieces of
    each side, {"Fp": ..., "Fpp": ...}, of ``pairwise_pieces``."""
    Bp, Bpp = (
        tuple(r for pq, _, _ in gr.hodge.blocks() for r in pieces[side][pq].basis.rows)
        for side in ("Fp", "Fpp")
    )
    delta = solve_left(Matrix._of(Bpp, gr.V.n), Bp)
    return DeltaObject(gr.hodge, Matrix._of(delta, gr.V.n).transpose())


def _side_matrix(gr, side):
    """Column-vector map from graded coordinates to adapted coordinates of
    one side's splitting pieces; the change of basis cancels in delta."""
    pieces = _adapted_pieces(gr, side)
    b_rows = []
    g_rows = []
    for (p, q), off, h in gr.hodge.blocks():
        b_rows.extend(pieces[(p, q)].basis.rows)
        g_rows.extend(gr_coords(gr, pieces[(p, q)].basis.rows, p + q))
    B = Matrix._of(tuple(b_rows), gr.V.n)
    G = Matrix._of(tuple(g_rows), gr.hodge.dim)
    return B.transpose() @ G.transpose().inverse()


def side_matrix_delta(gr):
    """delta of the validated structure gr.V through graded coordinates and
    two inverses: the reference ``splitting.delta_operator`` (one solve on
    the echelon lifts) is tested against."""
    Mp = _side_matrix(gr, "Fp")
    Mpp = _side_matrix(gr, "Fpp")
    return DeltaObject(gr.hodge, Mpp.inverse() @ Mp)


def rhom(Vsource, Vtarget):
    """(dim Ext^0, dim Ext^1) between two structures, reduced to the
    absolute cohomology of dual(source) tensor target."""
    return absolute_cohomology(GrStructure(tensor_mhs(dual_mhs(Vsource), Vtarget)))


def _conjugation_on_graded(gr):
    """Matrix S of entrywise conjugation on the canonical graded basis of a
    validated self-conjugate structure, by lifting, conjugating and solving
    back; maps the (p, q) block to the (q, p) block and satisfies
    S conj(S) = 1.  ``block_permutation`` and ``hodgecoh._block_swap`` are
    tested against it on real structures."""
    n = gr.hodge.dim
    cols = []
    for (p, q), off, h in gr.hodge.blocks():
        conj = [
            tuple(x.conjugate() for x in lift(gr, row, p + q))
            for row in block_basis(gr, (p, q))
        ]
        cols.extend(gr_coords(gr, coords(gr, conj), p + q))
    S = Matrix(cols).transpose()
    if S @ S.conjugate() != Matrix.identity(n):
        raise InvariantError("conjugation is not an involution")
    return S


def _real_fixed_subspace(R):
    """Fixed vectors of x -> R conj(x) as a rational subspace of Q^{2n}
    under the realification x = u + i w -> (u, w)."""
    n = R.nrows
    # conj is (u, w) -> (u, -w): the last n columns of R's realification
    # change sign
    sigma = Matrix(
        [row[:n] + tuple(-x for x in row[n:]) for row in _realify_map(R).rows]
    )
    # sigma is an involution, so its fixed vectors are the image of sigma + 1
    return Subspace.from_rows(2 * n, (sigma + Matrix.identity(2 * n)).transpose().rows)


def _realify_map(M):
    r, c = M.shape
    rows = []
    for i in range(r):
        rows.append(
            [M[i, j].re for j in range(c)] + [-M[i, j].im for j in range(c)]
        )
    for i in range(r):
        rows.append(
            [M[i, j].im for j in range(c)] + [M[i, j].re for j in range(c)]
        )
    return Matrix(rows)


def realified_cohomology(V):
    """(dim_Q Ext^0, dim_Q Ext^1) of a rational structure by realification:
    the reference ``hodgecoh.real_absolute_cohomology`` (Galois descent) is
    tested against.  The complex is realified to Q^{2n}, its domain and
    codomain are cut down to the fixed vectors of the conjugation, and the
    rank is that of the map restricted to them.

    The conjugation acts on the plane by swapping the coordinates, hence on
    the invariant complex by swapping monomial labels (a, b) <-> (b, a) and
    the two 1-form slots, entrywise-conjugated through the graded pieces.
    """
    gr = GrStructure(realize_real(V))
    S = _conjugation_on_graded(gr)
    cx = invariant_complex(connection_from_delta(delta_operator(gr)))
    dom = cx.domain_labels
    cod = cx.codomain_labels
    dom_index = {lab: i for i, lab in enumerate(dom)}
    cod_index = {lab: i for i, lab in enumerate(cod)}
    n = gr.hodge.dim
    # antilinear action x -> R conj(x) on domain and codomain
    Rdom = [[ZERO] * len(dom) for _ in dom]
    for col, (i, a, b) in enumerate(dom):
        for j in range(n):
            if S[j, i]:
                Rdom[dom_index[(j, b, a)]][col] = S[j, i]
    Rcod = [[ZERO] * len(cod) for _ in cod]
    for col, (i, a, b, slot) in enumerate(cod):
        for j in range(n):
            if S[j, i]:
                Rcod[cod_index[(j, b, a, 3 - slot)]][col] = S[j, i]
    Rdom = Matrix(Rdom)
    Rcod = Matrix(Rcod)
    M = cx.matrix
    fix_dom = _real_fixed_subspace(Rdom)
    fix_cod = _real_fixed_subspace(Rcod)
    if fix_dom.dim != len(dom) or fix_cod.dim != len(cod):
        raise InvariantError("a conjugation-fixed subspace has the wrong dimension")
    if not dom or not cod:
        return (fix_dom.dim, fix_cod.dim)
    # the complex must be conjugation-equivariant
    if Rcod @ M.conjugate() != M @ Rdom:
        raise InvariantError("complex is not conjugation-stable")
    MR = _realify_map(M)
    images = fix_dom.basis @ MR.transpose()
    restricted = solve_left(fix_cod.basis, images.rows)
    if restricted is None:
        raise InvariantError("image left the fixed subspace")
    rank = Matrix(restricted).rank()
    return (fix_dom.dim - rank, fix_cod.dim - rank)


def random_real_structure(rng, max_pieces=4):
    """A seeded real structure: a split one made of Tate pieces (weight 2k,
    F^k the line) and planes of weight 2k + 1 (F^(k+1) spanned by e0 + i e1)
    on the standard rational W, moved by a random complex unipotent g with
    g[a][b] nonzero only where weight(a) < weight(b).  Such a g preserves W
    and is the identity on Gr^W, so the triple stays opposed."""
    pieces = sorted(
        (2 * k + odd, k, odd)
        for k, odd in (
            (rng.randint(-3, 1), int(rng.random() < 0.4))
            for _ in range(rng.randint(1, max_pieces))
        )
    )
    weights = [w for w, _, odd in pieces for _ in range(1 + odd)]
    n = len(weights)
    unit = Matrix.identity(n).rows
    W = Filtration(Filtration.INC, n, {
        w: Subspace.from_rows(n, [unit[a] for a in range(n) if weights[a] <= w])
        for w in weights
    })
    g = [list(row) for row in unit]
    for a in range(n):
        for b in range(n):
            if weights[a] < weights[b] and rng.random() < 0.6:
                g[a][b] = Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
    # F is split in the unit basis and then moved: v -> g v on each row
    gt = Matrix(g).transpose()
    ks = [k for _, k, _ in pieces]
    steps = {}
    for p in range(min(ks), max(ks) + 3):
        rows, a = [], 0
        for _, k, odd in pieces:
            if p <= k:
                rows += unit[a : a + 1 + odd]
            elif odd and p == k + 1:
                rows.append(vec([0] * a + [1, Scalar(0, 1)] + [0] * (n - a - 2)))
            a += 1 + odd
        steps[p] = Subspace.from_rows(n, (mat(rows) @ gt).rows if rows else ())
    return RealMHS(n, W, Filtration(Filtration.DEC, n, steps))
