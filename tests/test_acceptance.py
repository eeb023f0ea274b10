"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its numbered criterion on the
real terminal (bypassing capture), and fails loudly on any exact mismatch.
All comparisons are exact; there are no tolerances anywhere.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest

from conftest import fixture_dir, mat, random_gauge, subspace_sum
from hodgegauge.connection import (
    apply_gauge,
    connection_from_delta,
    curvature,
    normalize_fock_schwinger,
)
from hodgegauge.fixtures import (
    corrupt_weight_step,
    named_corpus,
    random_delta,
)
from hodgegauge.freelie import (
    abelianized_coefficient,
    generator_change_table,
    universal_log_pexp,
    verify_commutant_generation,
    z_alphabet,
)
from hodgegauge.hodgecoh import absolute_cohomology, invariant_complex, real_absolute_cohomology
from hodgegauge.holonomy import triangle_delta
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import GrStructure, OpposednessViolation, pure, validate_mhs
from hodgegauge.rees import W_LINE, rees_patching, restrict_to_line, splitting_type, w_line_transition
from hodgegauge.scalars import Scalar
from hodgegauge.splitting import (
    delta_operator,
    delta_to_mhs,
    log_delta_components,
    splitting_subspaces,
)

_STATE = {}


def report(num, label, ok, capsys):
    line = "CRITERION %02d %-28s %s" % (num, label, "PASS" if ok else "FAIL")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def big_sample():
    """200 valid structures with their comparison data, built once."""
    if "big" not in _STATE:
        rng = random.Random(20260823)
        out = []
        for _ in range(200):
            d = random_delta(rng, max_dim=8, weight_lo=-6, weight_hi=6)
            out.append((d, delta_to_mhs(d, check=False)))
        _STATE["big"] = out
        _STATE["big_rng"] = rng
    return _STATE["big"]


def small_deltas():
    """Fixture comparison data of dimension <= 6: named corpus plus random."""
    if "small" not in _STATE:
        rng = random.Random(77)
        out = [
            (name, delta_operator(GrStructure(V))) for name, V in named_corpus()
        ]
        for k in range(10):
            out.append(
                ("rand%d" % k, random_delta(rng, max_dim=6, weight_lo=-4, weight_hi=4))
            )
        _STATE["small"] = out
    return _STATE["small"]


def test_criterion_01_opposedness_validator(capsys):
    start = time.monotonic()
    pairs = big_sample()
    for d, V in pairs:
        assert validate_mhs(V) == d.hodge
    rng = random.Random(99)
    for d, V in pairs:
        bad = corrupt_weight_step(V, rng)
        with pytest.raises(OpposednessViolation):
            validate_mhs(bad)
    elapsed = time.monotonic() - start
    report(1, "opposedness-validator", elapsed < 10.0, capsys)


def test_criterion_02_splitting_contracts(capsys):
    from hodgegauge.linalg import Subspace

    ok = True
    for d, V in big_sample():
        gr = GrStructure(V)
        hodge = gr.hodge
        fp = splitting_subspaces(gr, "Fp")
        fpp = splitting_subspaces(gr, "Fpp")
        for pieces, filt, select in (
            (fp, V.Fp, lambda pq, k: pq[0] >= k),
            (fpp, V.Fpp, lambda pq, k: pq[1] >= k),
        ):
            # the pieces of weight <= n sum to W_n exactly
            for n in hodge.weights():
                acc = Subspace.zero(V.n)
                for pq in pieces:
                    if pq[0] + pq[1] <= n:
                        acc = subspace_sum(acc, pieces[pq])
                ok = ok and acc == V.W.at(n)
            # the side's own filtration is split on the nose
            keys = sorted({pq[0] for pq in hodge.counts} | {pq[1] for pq in hodge.counts})
            for k in range(keys[0], keys[-1] + 2):
                acc = Subspace.zero(V.n)
                for pq in pieces:
                    if select(pq, k):
                        acc = subspace_sum(acc, pieces[pq])
                ok = ok and acc == filt.at(k)
        # the two splittings agree modulo lower weight
        for pq in hodge.counts:
            low = V.W.at(pq[0] + pq[1] - 1)
            ok = ok and subspace_sum(fp[pq], low) == subspace_sum(fpp[pq], low)
        if not ok:
            break
    report(2, "splitting-contracts", ok, capsys)


def test_criterion_03_delta_holonomy_roundtrip(capsys):
    ok = True
    for name, d in small_deltas():
        assert d.hodge.dim <= 6
        back = triangle_delta(connection_from_delta(d))
        ok = ok and back == d
    report(3, "delta-holonomy-roundtrip", ok, capsys)


def test_criterion_04_gauge_uniqueness(capsys):
    rng = random.Random(4242)
    ok = True
    for _ in range(100):
        d = random_delta(rng, max_dim=5, weight_lo=-3, weight_hi=3)
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, rng)
        a, _ = normalize_fock_schwinger(apply_gauge(C, g))
        b, _ = normalize_fock_schwinger(C)
        ok = ok and a == b
        again, gid = normalize_fock_schwinger(b)
        ok = ok and again == b and gid.delta == Matrix.identity(b.hodge.dim)
        if not ok:
            break
    report(4, "gauge-uniqueness", ok, capsys)


def test_criterion_05_flat_iff_split(capsys):
    ok = True
    for name, d in small_deltas():
        C = connection_from_delta(d)
        flat = not curvature(C)
        split = d.delta == Matrix.identity(d.hodge.dim)
        ok = ok and flat == split
    # the split direction on structures with identity comparison
    for V in (pure(0, 0), pure(-2, 3)):
        d = delta_operator(GrStructure(V))
        ok = ok and not curvature(connection_from_delta(d))
    report(5, "flat-iff-split", ok, capsys)


def test_criterion_06_line_triviality(capsys):
    rng = random.Random(606)
    ok = True
    for name, d in small_deltas():
        phi = rees_patching(d)
        r = d.hodge.dim
        trivial = tuple([0] * r)
        ok = ok and splitting_type(restrict_to_line(phi, W_LINE)) == trivial
        for _ in range(20):
            T = (
                Scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2))), rng.randint(-2, 2)),
                Scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2))), rng.randint(-2, 2)),
            )
            ok = ok and splitting_type(restrict_to_line(phi, T)) == trivial
        if not ok:
            break
    # a filtration triple that is not a mixed Hodge structure shows a
    # nonzero type on the weight line
    from hodgegauge.fixtures import kummer
    from hodgegauge.linalg import Subspace
    from hodgegauge.mhs import ComplexMHS, Filtration

    V = kummer(1)
    W = Filtration(Filtration.INC, 2, {0: Subspace.full(2)})
    bad = ComplexMHS(2, W, V.Fp, V.Fpp)
    t = splitting_type(w_line_transition(bad))
    ok = ok and any(a != 0 for a in t)
    report(6, "line-triviality", ok, capsys)


def test_criterion_07_freelie_consistency(capsys):
    ok = True
    ztab = universal_log_pexp(8)
    # substitute the connection blocks into the universal log components
    for name, d in small_deltas():
        ws = d.hodge.weights()
        spread = ws[-1] - ws[0]
        assert spread <= 8
        if spread < 2:
            continue
        C = connection_from_delta(d)
        D = log_delta_components(d)
        n = d.hodge.dim
        zero = Matrix.zeros(n, n)
        assignment = {}
        for dd in range(2, 9):
            for p in range(1, dd):
                assignment["a%d,%d" % (p, dd - p)] = C.A.get((p, dd - p), zero)
        for dd in range(2, spread + 1):
            for p in range(1, dd):
                q = dd - p
                got = ztab[(p, q)].substitute(assignment)
                ok = ok and got == D.get((p, q), zero)
    # generator-change roundtrip through weight 8
    atab = generator_change_table(8)
    Z = z_alphabet(8)
    mapping = {"a%d,%d" % k: atab[k] for k in atab}
    from hodgegauge.freelie import LiePolynomial

    for dd in range(2, 9):
        for p in range(1, dd):
            q = dd - p
            back = ztab[(p, q)].substitute_lie(Z, mapping)
            ok = ok and back == LiePolynomial.generator(Z, Z.index_of("z%d,%d" % (p, q)))
    # abelianized coefficients against the independent integrator
    from hodgegauge.poly import Poly
    from hodgegauge.scalars import ONE

    t = Poly.variable(1, 0)
    for dd in range(2, 9):
        for p in range(1, dd):
            q = dd - p
            f = Poly.constant(1, -ONE)
            for _ in range(p - 1):
                f = f * t
            for _ in range(q - 1):
                f = f * (Poly.constant(1, -ONE) - t)
            integral = f.integrate(-ONE, Scalar(0))
            ok = ok and integral == abelianized_coefficient(p, q)
            coeff = ztab[(p, q)].coords.get(
                (ztab[(p, q)].alphabet.index_of("a%d,%d" % (p, q)),), Scalar(0)
            )
            ok = ok and coeff == integral
    # comparison report against the stated binomial closed form: emitted
    # as a record, the disagreement itself is documented and expected
    from hodgegauge.cli import _lie_report

    rep = _lie_report(8)
    rows = {r["bidegree"]: r for r in rep["leading_coefficient_comparison"]}
    ok = ok and rows["1,1"]["agree"] is False
    ok = ok and "comparison_note" in rep
    report(7, "freelie-consistency", ok, capsys)


def test_criterion_08_absolute_cohomology(capsys):
    from hodgegauge.fixtures import kummer, real_tate

    ok = absolute_cohomology(GrStructure(pure(0, 0))) == (1, 0)
    ok = ok and absolute_cohomology(GrStructure(pure(-1, -1))) == (0, 1)
    for c in (Scalar(3), Scalar(2, 1), Scalar(Fraction(1, 2))):
        ok = ok and absolute_cohomology(GrStructure(kummer(c))) == (0, 0)
    for name, d in small_deltas():
        V = delta_to_mhs(d, check=False)
        hodge = d.hodge
        e0, e1 = absolute_cohomology(GrStructure(V))
        euler = hodge.counts.get((0, 0), 0) - sum(
            v for (p, q), v in hodge.counts.items() if p <= -1 and q <= -1
        )
        ok = ok and e0 - e1 == euler
    # gauge invariance of both dimensions
    rng = random.Random(808)
    for _ in range(5):
        d = random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3)
        C = connection_from_delta(d)
        g = random_gauge(d.hodge, rng)
        ok = ok and invariant_complex(apply_gauge(C, g)).cohomology_dims() == invariant_complex(C).cohomology_dims()
    ok = ok and real_absolute_cohomology(real_tate(1)) == (0, 1)
    report(8, "absolute-cohomology", ok, capsys)


def test_criterion_09_commutant_generation(capsys):
    start = time.monotonic()
    dims = verify_commutant_generation(8)

    def mobius(n):
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

    ok = True
    for (p, q), d in dims.items():
        from math import gcd

        g = gcd(p, q)
        want = sum(
            mobius(k) * comb((p + q) // k, p // k)
            for k in range(1, g + 1)
            if g % k == 0
        ) // (p + q)
        ok = ok and d == want
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(9, "commutant-generation", ok, capsys)


def _cli_suite(jobs):
    d = fixture_dir()
    files = sorted(os.listdir(d))
    mhs_docs = []
    delta_docs = []
    conn_docs = []
    for name in files:
        with open(os.path.join(d, name)) as fh:
            kind = json.load(fh)["type"]
        path = os.path.join(d, name)
        if kind in ("complex_mhs", "real_mhs"):
            mhs_docs.append(path)
        elif kind == "delta":
            delta_docs.append(path)
        else:
            conn_docs.append(path)
    plans = [
        ["validate"] + mhs_docs,
        ["split"] + mhs_docs,
        ["roundtrip"] + mhs_docs,
        ["connect"] + mhs_docs + delta_docs + conn_docs,
        ["rees"] + mhs_docs + delta_docs,
        ["ext"] + mhs_docs,
        ["holonomy"] + delta_docs + conn_docs,
    ]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for plan in plans:
        argv = plan + (["--jobs", str(jobs)] if jobs > 1 else [])
        proc = subprocess.run(
            [sys.executable, "-m", "hodgegauge.cli"] + argv,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
        )
        outputs.append((plan[0], proc.returncode, proc.stdout))
    return outputs


def test_criterion_10_determinism(capsys):
    first = _cli_suite(1)
    second = _cli_suite(1)
    parallel = _cli_suite(4)
    ok = first == second == parallel
    ok = ok and all(code == 0 for _, code, _ in first)
    report(10, "cli-determinism", ok, capsys)
