import json
import os

import pytest

from conftest import fixture_dir
from hodgegauge import documents
from hodgegauge.documents import (
    DocumentError,
    _filtration_in,
    _matrix_in,
    _scalar_in,
    parse,
    serialize,
)
from hodgegauge.fixtures import (
    kummer,
    kummer_delta,
    named_corpus,
    real_corpus,
    real_kummer,
    t3_delta,
)
from hodgegauge.mhs import FiltrationError, RealMHS
from hodgegauge.connection import connection_from_delta
from hodgegauge.linalg import Matrix
from hodgegauge.scalars import FieldError, Scalar, ZERO


def test_roundtrip_named_corpus():
    for name, V in named_corpus():
        doc = serialize(V)
        # documents survive a JSON encode/decode cycle unchanged
        doc = json.loads(json.dumps(doc))
        assert parse(doc) == V


def test_roundtrip_real_documents():
    for name, V in real_corpus():
        doc = json.loads(json.dumps(serialize(V)))
        back = parse(doc)
        assert back.W == V.W and back.F == V.F


def test_roundtrip_delta_and_connection():
    d = t3_delta(2, 5)
    assert parse(serialize(d)) == d
    C = connection_from_delta(d)
    assert parse(serialize(C)) == C


def test_field_restriction():
    doc = serialize(kummer(Scalar(2, 1)))
    parse(doc, "Qi")
    with pytest.raises(FieldError):
        parse(doc, "Q")
    assert parse(serialize(kummer(3)), "Q") == kummer(3)


def test_malformed_documents():
    with pytest.raises(DocumentError):
        parse({"no": "type"})
    with pytest.raises(DocumentError):
        parse({"type": "widget"})
    doc = serialize(kummer(1))
    del doc["W"]
    with pytest.raises(DocumentError):
        parse(doc)
    bad = serialize(kummer(1))
    bad["Fp"]["steps"]["0"] = [["not-a-scalar", "0/1"]]
    with pytest.raises(DocumentError):
        parse(bad)


def test_shipped_corpus_parses():
    d = fixture_dir()
    files = sorted(os.listdir(d))
    assert len(files) >= 20
    for name in files:
        with open(os.path.join(d, name)) as fh:
            doc = json.load(fh)
        obj = parse(doc)
        assert json.loads(json.dumps(serialize(obj))) == serialize(obj)


def test_matrix_parses_each_distinct_string_once(monkeypatch):
    parsed = []
    real = documents.parse_parts

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(documents, "parse_parts", counting)
    rows = [["1/1", "0/1", "0/1"], ["0/1", "1/1", "2/4"], ["0/1", "0/1", "1/1"]]
    m = _matrix_in(rows)
    assert sorted(parsed) == ["0/1", "1/1", "2/4"]
    assert m.rows[0][1] is m.rows[2][0] and m.rows[0][1] == ZERO
    assert m.rows[1][2] == Scalar.parse("1/2")
    # the cache lives for one matrix only
    _matrix_in(rows)
    assert len(parsed) == 2 * 3


@pytest.mark.parametrize("bad, field", [
    ("x", None), ("1/0", None), (1, None), (None, None), ("0+1/1*i", "Q"),
])
def test_matrix_raises_at_its_first_bad_entry(bad, field):
    # the same error as the entry alone, also after repeated good strings
    with pytest.raises((DocumentError, FieldError)) as alone:
        _scalar_in(bad, field)
    rows = [["0/1", "1/1"], ["1/1", bad], ["0/1", "1/0"]]
    with pytest.raises(type(alone.value)) as exc:
        _matrix_in(rows, field)
    assert str(exc.value) == str(alone.value)


def test_filtration_builds_one_matrix_per_step(monkeypatch):
    doc = serialize(kummer(Scalar(2, 1)))["Fpp"]
    built = []
    real = documents._rows_in

    def counting(rows, field, make, seen):
        built.append(real(rows, field, make, seen))
        return built[-1]

    monkeypatch.setattr(documents, "_rows_in", counting)
    F = _filtration_in(doc)
    # steps -1 and 0 have rows; step 1 is empty and builds none
    assert len(built) == sum(1 for s in F.steps.values() if s.dim) == 2


def test_parsing_coerces_no_entry_twice(monkeypatch):
    # _matrix_in parses every entry to a Scalar, so no Matrix is built by
    # the coercing constructor while the shipped documents are read
    built = []
    real = Matrix.__init__

    def counting(self, rows):
        built.append(self)
        real(self, rows)

    monkeypatch.setattr(Matrix, "__init__", counting)
    d = fixture_dir()
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name)) as fh:
            parse(json.load(fh))
    assert built == []


@pytest.mark.parametrize("rows, reason", [
    ([["1/1"]], "bad filtration: rows of length 1 in K^2"),
    ([[]], "bad filtration: rows of length 0 in K^2"),
    ([["1/1", "0/1"], ["1/1"]], "bad filtration: ragged rows"),
])
def test_step_of_the_wrong_width_is_malformed(rows, reason):
    with pytest.raises(DocumentError) as exc:
        _filtration_in({"direction": "dec", "n": 2, "steps": {"0": rows}})
    assert str(exc.value) == reason


@pytest.mark.parametrize("key, canonical", [
    ("-1", True), ("00", False), ("+1", False), (" 1", False), ("1_0", False),
    ("-0", False),
])
def test_step_keys_must_be_canonical(key, canonical):
    # int() reads each of these; only the canonical form names its index
    doc = {"direction": "dec", "n": 1, "steps": {key: [["1/1"]], "2": []}}
    if canonical:
        assert _filtration_in(doc).jumps() == [int(key), 2]
        return
    with pytest.raises(DocumentError) as exc:
        _filtration_in(doc)
    assert str(exc.value) == "bad filtration: index key %r is not canonical" % key


@pytest.mark.parametrize("key, canonical", [
    ("-1,-1", True), ("00,0", False), ("0, 0", False), ("+0,0", False),
    ("0,-0", False),
])
def test_hodge_keys_must_be_canonical(key, canonical):
    # "00,0" beside "0,0" once collapsed silently into h^{0,0} = 1
    doc = {"type": "delta", "hodge": {"0,0": 1, key: 1},
           "matrix": [["1/1", "0/1"], ["0/1", "1/1"]]}
    if canonical:
        assert parse(doc).hodge.dim == 2
        return
    with pytest.raises(DocumentError) as exc:
        parse(doc)
    assert str(exc.value) == "bad hodge numbers: index key %r is not canonical" % key


def _set_entry(key, value):
    def edit(doc):
        doc[key]["steps"]["0"][0][1] = value
    return edit


def _add_short_row(doc):
    doc["Fpp"]["steps"]["0"].append(["1/1"])


@pytest.mark.parametrize("edit, real, flags, code, status, error", [
    (_set_entry("Fpp", "1/0"), False, (), 2, "malformed",
     "bad filtration: zero denominator in scalar '1/0'"),
    (_set_entry("Fpp", "7" * 4301), False, (), 2, "malformed",
     "bad filtration: scalar has a numerator or denominator of more than "
     "4300 digits"),
    (_set_entry("Fpp", "7" * 4300), False, (), 0, "ok", None),
    (_set_entry("Fpp", "1/2x"), False, (), 2, "malformed",
     "bad filtration: not a scalar: '1/2x'"),
    (_set_entry("Fpp", 1), False, (), 2, "malformed",
     "bad filtration: expected string or bytes-like object, got 'int'"),
    (_set_entry("Fpp", None), False, (), 2, "malformed",
     "bad filtration: expected string or bytes-like object, got 'NoneType'"),
    (_set_entry("Fpp", "1/2+3/4*i"), False, ("--field", "Q"), 1, "violation",
     "scalar 1/2+3/4*i outside field Q"),
    (_set_entry("W", "0/1+1/1*i"), True, (), 1, "violation",
     "scalar 0/1+1/1*i outside field Q"),
    (_add_short_row, False, (), 2, "malformed", "bad filtration: ragged rows"),
], ids=["zero-denominator", "digits", "digits-at-the-bound", "not-a-scalar",
        "int-entry", "null-entry", "field-Q", "real-W", "ragged"])
def test_step_entry_errors_keep_their_text_and_status(
        tmp_path, edit, real, flags, code, status, error):
    # a step is read straight into integer rows; each error of an entry
    # reads as it did when steps were read into Scalars
    from hodgegauge import cli

    doc = serialize(real_kummer(2) if real else kummer(1))
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", *flags, str(path)]
    entry, got = cli._process_one("validate", str(path),
                                  cli.build_parser().parse_args(argv))
    assert (got, entry["status"], entry.get("error")) == (code, status, error)


def test_a_gaussian_weight_filtration_is_not_real():
    # --field Q stops a Gaussian W at parse; a W read over Q(i) reaches the
    # check on the integer rows of its steps
    W = {"direction": "inc", "n": 2,
         "steps": {"-2": [["1/1", "0/1+1/1*i"]], "0": [["1/1", "0/1"], ["0/1", "1/1"]]}}
    V = real_kummer(2)
    with pytest.raises(FiltrationError, match="^weight filtration must be rational$"):
        RealMHS(2, _filtration_in(W), V.F)
    assert RealMHS(2, _filtration_in(serialize(V)["W"]), V.F) == V
