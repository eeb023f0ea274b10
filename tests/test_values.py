"""The value rule of the package, written once in ``scalars.Value``: every
exact object is immutable, equal to another of its type with equal fields,
and hashed on those fields, a dict field as the set of its items.
``Filtration`` compares and hashes flags by ``at``; ``Scalar`` writes its
own slots and stays outside the rule."""

import importlib
import inspect
import json
import os

import pytest

from conftest import fixture_dir, mat
from hodgegauge import cli
from hodgegauge.connection import (
    EquivariantConnection,
    connection_from_delta,
    normalize_fock_schwinger,
)
from hodgegauge.documents import parse
from hodgegauge.fixtures import kummer_delta, real_kummer, real_tate, t3, t3_delta
from hodgegauge.freelie import Alphabet, LiePolynomial, universal_log_pexp
from hodgegauge.hodgecoh import TwoTermComplex, invariant_complex
from hodgegauge.holonomy import TRIANGLE, PolygonalPath
from hodgegauge.linalg import Matrix, Subspace
from hodgegauge.mhs import ComplexMHS, Filtration, HodgeNumbers, RealMHS
from hodgegauge.poly import Poly, PolyMatrix
from hodgegauge.rees import P1TransitionMatrix, rees_patching, restrict_to_line
from hodgegauge.scalars import Scalar, Value
from hodgegauge.splitting import DeltaObject

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "hodgegauge")
MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _classes():
    out = []
    for name in MODULES:
        module = importlib.import_module("hodgegauge." + name)
        out += [c for _, c in inspect.getmembers(module, inspect.isclass)
                if c.__module__ == module.__name__]
    return out


def _defining(method):
    return sorted(c.__name__ for c in _classes()
                  if c.__dict__.get(method) is not None)


def _transition(exponent):
    return P1TransitionMatrix(PolyMatrix(1, [[Poly.monomial(1, (exponent,))]]))


def _flag(*dims):
    # the increasing flag on K^2 whose step k is spanned by the first
    # dims[k] unit vectors
    units = Matrix.identity(2).rows
    return Filtration(Filtration.INC, 2, {
        k: Subspace.from_rows(2, units[:d]) for k, d in enumerate(dims)})


ALPHABET = Alphabet([("a", 1, 1), ("b", 1, 2)])

# one instance of each value class
SAMPLES = {
    Matrix: lambda: Matrix.identity(2),
    Subspace: lambda: Subspace.full(2),
    Filtration: lambda: _flag(1, 2),
    HodgeNumbers: lambda: t3_delta(1, 2).hodge,
    ComplexMHS: lambda: t3(1, 2),
    RealMHS: lambda: real_tate(1),
    DeltaObject: lambda: kummer_delta(2),
    EquivariantConnection: lambda: connection_from_delta(t3_delta(1, 2)),
    PolygonalPath: lambda: PolygonalPath(TRIANGLE),
    TwoTermComplex: lambda: invariant_complex(connection_from_delta(kummer_delta(2))),
    P1TransitionMatrix: lambda: _transition(-1),
    Poly: lambda: Poly.monomial(2, (1, 0)),
    PolyMatrix: lambda: PolyMatrix.identity(2, 2),
    Alphabet: lambda: ALPHABET,
    LiePolynomial: lambda: LiePolynomial.generator(ALPHABET, 1),
}


def test_every_slotted_class_but_scalar_is_a_value():
    slotted = [c for c in _classes()
               if "__slots__" in c.__dict__ and c not in (Value, Scalar)]
    assert all(issubclass(c, Value) for c in slotted)
    assert sorted(c.__name__ for c in slotted) == sorted(c.__name__ for c in SAMPLES)


def test_the_rule_is_written_once():
    assert _defining("__setattr__") == ["Value"]
    assert _defining("__eq__") == ["Filtration", "Scalar", "Value"]
    assert _defining("__hash__") == ["Filtration", "Scalar", "Value"]


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_value_cannot_be_assigned(cls):
    value = SAMPLES[cls]()
    assert type(value) is cls
    message = "^%s is immutable$" % cls.__name__
    with pytest.raises(AttributeError, match=message):
        setattr(value, cls.__slots__[0], None)
    with pytest.raises(AttributeError, match=message):
        value.anything = None


@pytest.mark.parametrize("same, other", [
    (lambda: real_kummer(2), lambda: real_kummer(3)),
    (lambda: PolygonalPath(TRIANGLE),
     lambda: PolygonalPath(TRIANGLE).reversed()),
    (lambda: _transition(-1), lambda: _transition(1)),
    (lambda: invariant_complex(connection_from_delta(kummer_delta(2))),
     lambda: invariant_complex(connection_from_delta(kummer_delta(3)))),
], ids=["RealMHS", "PolygonalPath", "P1TransitionMatrix", "TwoTermComplex"])
def test_values_that_were_compared_by_identity_compare_by_fields(same, other):
    a, b, c = same(), same(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


def test_a_value_never_equals_another_type():
    assert Matrix.identity(1) != Subspace.full(1)
    assert Matrix.identity(1) != Matrix.identity(1).rows
    assert HodgeNumbers({(0, 0): 1}) != {(0, 0): 1}


def test_a_filtration_compares_and_hashes_as_a_flag():
    # the redundant step 2 repeats step 1, and step 0 of _flag(0, 2) is the
    # zero space below the range, so at(k) agrees at every k
    assert _flag(1, 2, 2) == _flag(1, 2)
    assert _flag(1, 2, 2).steps != _flag(1, 2).steps
    assert hash(_flag(1, 2, 2)) == hash(_flag(1, 2))
    assert _flag(0, 2) == Filtration(Filtration.INC, 2, {1: Subspace.full(2)})
    assert hash(_flag(0, 2)) == hash(
        Filtration(Filtration.INC, 2, {1: Subspace.full(2)}))
    assert _flag(1, 2) != _flag(0, 2)
    assert _flag(1, 2) != _flag(1, 1, 2)


def test_equal_values_hash_equal():
    pairs = [
        (mat([[1, 2], [3, 4]]), Matrix([[Scalar(1), 2], [3, Scalar(4)]])),
        (Subspace.from_rows(2, [[1, 1]]), Subspace.from_rows(2, [[2, 2]])),
        (Alphabet([("a", 1, 2)]), Alphabet([("a", 1, 2)])),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == 3


def _nested(x):
    """x and every value inside it, depth first, in field order."""
    if isinstance(x, Value):
        yield x
        x = [getattr(x, f) for f in x.__slots__]
    elif isinstance(x, dict):
        x = [y for item in x.items() for y in item]
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _nested(y)


def _made_from_fixtures():
    """Every value the pipeline makes of the shipped fixtures and of the
    lie tables at N = 4, built afresh on each call."""
    out = [PolygonalPath(TRIANGLE), universal_log_pexp.__wrapped__(4)]
    for name in sorted(os.listdir(fixture_dir())):
        with open(os.path.join(fixture_dir(), name)) as fh:
            obj = parse(json.load(fh))
        out.append(obj)
        try:
            C = cli._connection(obj)
        except (ValueError, cli.Violation):
            continue  # not an opposed structure
        out += [C, normalize_fock_schwinger(C), invariant_complex(C)]
        if not isinstance(obj, EquivariantConnection):
            delta = cli._delta(obj)
            phi = rees_patching(delta)
            out += [delta, phi, restrict_to_line(phi, (Scalar(2), Scalar(3)))]
    return list(_nested(out))


def test_values_made_from_the_fixtures_that_are_equal_hash_equal():
    # no value class opts out of hashing: a TypeError from hash() fails here
    first, second = _made_from_fixtures(), _made_from_fixtures()
    assert [type(v) for v in first] == [type(v) for v in second]
    for a, b in zip(first, second):
        assert a == b
        assert hash(a) == hash(b)
    assert {type(v) for v in first} == set(SAMPLES)
