"""Fuzzed structure, delta and connection documents through the CLI's
per-input path: whatever the document, each of the seven commands ends in a
defined status (ok, violation or malformed) with its exit code, never in an
internal error.  Hostile --path and --point values end the same way, or as
usage errors (exit 2)."""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_dir
from hodgegauge import cli
from hodgegauge.connection import connection_from_delta
from hodgegauge.documents import serialize
from hodgegauge.fixtures import corrupt_weight_step, random_delta, random_mhs

CODES = {"ok": 0, "violation": 1, "malformed": 2}
COMMANDS = ("validate", "split", "connect", "holonomy", "roundtrip", "rees", "ext")
SCALARS = ["0", "1", "-1", "2", "1/2", "-3/2", "0+1*i", "1+1*i", "1/2-1*i"]
# mostly scalars, sometimes a zero denominator, a bad string or no string
entries = st.sampled_from(SCALARS * 3 + ["1/0", "i", "x", "", 1, None])


def mostly(value, *others):
    return st.sampled_from([value] * 6 + list(others))


@st.composite
def filtrations(draw, n, direction):
    width = draw(mostly(n, n + 1, max(n - 1, 0)))
    steps = {}
    for k in draw(st.lists(st.integers(-3, 3), max_size=4, unique=True)):
        rows = draw(st.lists(
            st.lists(entries, min_size=width, max_size=width)
            | st.lists(entries, max_size=5),  # ragged
            max_size=n + 1,
        ))
        steps[draw(mostly(str(k), "k"))] = rows
    doc = {
        "direction": draw(mostly(direction, "inc", "dec", "up")),
        "n": draw(mostly(n, n + 1, -1, "two")),
        "steps": draw(mostly(steps, [], None)),
    }
    if not draw(st.integers(0, 7)):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def raw_documents(draw):
    n = draw(st.integers(0, 4))
    kind = draw(mostly("complex_mhs", "real_mhs", "delta", None))
    keys = ("W", "F") if kind == "real_mhs" else ("W", "Fp", "Fpp")
    doc = {"type": kind, "n": draw(mostly(n, n + 1, -1, "x"))}
    for key in keys:
        if draw(st.integers(0, 7)):
            doc[key] = draw(filtrations(n, "inc" if key == "W" else "dec"))
    return doc


@st.composite
def damaged_structures(draw):
    # a valid structure (dim <= 4), or one with a weight step moved, with
    # one entry, row, step or direction of one filtration changed
    rng = random.Random(draw(st.integers(0, 2**16)))
    V = random_mhs(rng, max_dim=4, weight_lo=-3, weight_hi=3)
    if draw(st.booleans()):
        V = corrupt_weight_step(V, rng)
    doc = serialize(V)
    filt = doc[draw(st.sampled_from(["W", "Fp", "Fpp"]))]
    steps = filt["steps"]
    key = draw(st.sampled_from(sorted(steps)))
    change = draw(st.sampled_from(
        ["none", "entry", "row", "drop", "direction", "step"]
    ))
    if change == "entry" and steps[key] and steps[key][0]:
        steps[key][0][draw(st.integers(0, len(steps[key][0]) - 1))] = draw(entries)
    elif change == "row" and steps[key]:
        steps[key][draw(st.integers(0, len(steps[key]) - 1))].append("1")
    elif change == "drop":
        del steps[key]
    elif change == "direction":
        filt["direction"] = "inc" if filt["direction"] == "dec" else "dec"
    elif change == "step":
        steps[str(draw(st.integers(-5, 5)))] = draw(
            st.lists(st.lists(st.sampled_from(SCALARS), min_size=doc["n"],
                              max_size=doc["n"]), max_size=doc["n"])
        )
    return doc


@st.composite
def damaged_deltas(draw):
    # a valid delta (dim <= 4) with one entry, row, Hodge number or key
    # changed, or one of its two parts dropped
    rng = random.Random(draw(st.integers(0, 2**16)))
    doc = serialize(random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3))
    rows, hodge = doc["matrix"], doc["hodge"]
    i = draw(st.integers(0, len(rows) - 1))
    key = draw(st.sampled_from(sorted(hodge)))
    change = draw(st.sampled_from(
        ["none", "entry", "row", "count", "key", "drop"]
    ))
    if change == "entry":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(entries)
    elif change == "row" and draw(st.booleans()):
        rows[i].append("0/1")
    elif change == "row":
        del rows[i]
    elif change == "count":
        hodge[key] = draw(st.sampled_from([0, -1, 3, "1", "x", None]))
    elif change == "key":
        hodge[draw(st.sampled_from(["0,0", "1", "a,b", "9,-9", "70,0"]))] = (
            hodge.pop(key)
        )
    elif change == "drop":
        del doc[draw(st.sampled_from(["hodge", "matrix"]))]
    return doc


@st.composite
def damaged_connections(draw):
    # a canonical connection (dim <= 4) with one entry, block, key, p or q,
    # or Hodge number changed or dropped
    rng = random.Random(draw(st.integers(0, 2**16)))
    doc = serialize(connection_from_delta(
        random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3)
    ))
    hodge, blocks = doc["hodge"], doc["blocks"]
    change = draw(st.sampled_from(
        ["none", "entry", "block", "key", "pq", "count", "drop"]
    ))
    if blocks and change in ("entry", "block", "key", "pq"):
        block = blocks[draw(st.integers(0, len(blocks) - 1))]
        side = draw(st.sampled_from(sorted(set(block) & {"A", "B"})))
        rows = block[side]
        if change == "entry":
            i = draw(st.integers(0, len(rows) - 1))
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(entries)
        elif change == "block":
            block[side] = draw(st.sampled_from(
                [rows[1:], [r[1:] for r in rows], [], None, "x"]
            ))
        elif change == "key":
            block[draw(st.sampled_from(["C", "a"]))] = block.pop(side)
        else:
            which = draw(st.sampled_from(["p", "q"]))
            block[which] = draw(st.sampled_from(
                [block[which] + 1, 0, -1, 99, "1", "x", None]
            ))
            if draw(st.booleans()):
                del block[which]
    elif change == "count":
        key = draw(st.sampled_from(sorted(hodge)))
        hodge[key] = draw(st.sampled_from([0, -1, 3, "1", "x", None]))
    elif change == "drop":
        del doc[draw(st.sampled_from(["hodge", "blocks"]))]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _outcomes(doc, workdir):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    parser = cli.build_parser()
    for command in COMMANDS:
        flags = parser.parse_args([command, str(path)])
        entry, code = cli._process_one(command, str(path), flags)
        yield command, entry, code


@given(doc=st.one_of(
    raw_documents(), damaged_structures(), damaged_deltas(), damaged_connections()
))
def test_fuzzed_documents_end_in_a_defined_status(doc, workdir):
    for command, entry, code in _outcomes(doc, workdir):
        assert entry["status"] in CODES, (command, entry)
        assert code == CODES[entry["status"]], (command, entry)


@pytest.mark.parametrize("key, steps", [("Fp", None), ("W", [])])
def test_steps_that_are_not_a_map_are_malformed(key, steps, workdir):
    # were internal errors (AttributeError)
    with open(os.path.join(fixture_dir(), "kummer_3.json")) as fh:
        doc = json.load(fh)
    doc[key]["steps"] = steps
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("malformed", 2), (command, entry)


def test_negative_dimension_is_malformed(workdir):
    # was "ok", with no Hodge numbers and a 0 x 0 delta
    def filt(direction):
        return {"direction": direction, "n": -1, "steps": {"0": []}}

    doc = {"type": "complex_mhs", "n": -1, "W": filt("inc"), "Fp": filt("dec"),
           "Fpp": filt("dec")}
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("malformed", 2), (command, entry)


@pytest.mark.parametrize("name", ["kummer_3.json", "real_kummer_2.json"])
@pytest.mark.parametrize("n", ["x", 3])
def test_bad_document_dimension_is_malformed(name, n, workdir):
    # an n that is no integer, or that the filtrations (n = 2) do not
    # share, was a violation
    with open(os.path.join(fixture_dir(), name)) as fh:
        doc = json.load(fh)
    doc["n"] = n
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("malformed", 2), (command, entry)


def _fixture(name):
    with open(os.path.join(fixture_dir(), name)) as fh:
        return json.load(fh)


def _set(doc, path, value):
    # path is a list of keys and indices down to the field to replace
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("name, path, value", [
    ("connection_t3_2_5.json", ["blocks", 0, "p"], "x"),
    ("connection_t3_2_5.json", ["blocks", 0, "p"], 1.5),
    ("connection_t3_2_5.json", ["blocks", 0, "p"], True),
    ("connection_t3_2_5.json", ["blocks", 1, "q"], 2.0),
    ("connection_t3_2_5.json", ["hodge", "0,0"], 1.5),
    ("delta_t3_2_5.json", ["hodge", "0,0"], 1.5),
    ("delta_t3_2_5.json", ["hodge", "0,0"], "1"),
    ("delta_t3_2_5.json", ["hodge", "-1,-1"], True),
    ("kummer_3.json", ["n"], 2.0),
    ("kummer_3.json", ["Fp", "n"], 2.0),
    ("real_kummer_2.json", ["n"], 2.0),
    ("real_kummer_2.json", ["W", "n"], "2"),
])
def test_integer_fields_take_only_json_integers(name, path, value, workdir):
    # int() truncated 1.5 and read "1" and True, and "x" was a violation
    doc = _fixture(name)
    _set(doc, path, value)
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("malformed", 2), (command, entry)
        assert "must be an integer" in entry["error"], (command, entry)


@pytest.mark.parametrize("name, path, value", [
    ("delta_t3_2_5.json", ["matrix", 1], ["0/1", "1/1"]),
    ("connection_t3_2_5.json", ["blocks", 0, "A", 2], ["0/1"]),
    # all zero, so from_blocks would drop it unchecked
    ("connection_t3_2_5.json", ["blocks", 1, "B"], [["0/1", "0/1"]] * 2),
    ("connection_t3_2_5.json", ["blocks", 1, "A"], []),
])
def test_ragged_and_misshaped_matrices_are_malformed(name, path, value, workdir):
    # ragged ones were violations, and a zero block of the wrong shape ok
    doc = _fixture(name)
    _set(doc, path, value)
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("malformed", 2), (command, entry)


def _main(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _defined(argv):
    code, out = _main(argv)
    assert code in (0, 1, 2), (argv, code)
    if out:
        for entry in json.loads(out)["inputs"]:
            assert entry["status"] in CODES, (argv, entry)
            assert code >= CODES[entry["status"]], (argv, entry)
    return code


AT_CAP = "9" * 4300  # scalars.MAX_DIGITS
OVER_CAP = "9" * 4301


def _points(k):
    return ";".join("%d,%d" % (i, i * i - 3) for i in range(k))


@pytest.mark.parametrize("path, code", [
    (_points(16), 0),
    (_points(17), 2),
    ("%s,1;1,%s;-%s,3" % (AT_CAP, AT_CAP, AT_CAP), 2),  # result too large
    ("%s,1;1,1" % OVER_CAP, 2),
    ("1/%s,1;1,1" % AT_CAP, 2),
    ("0,0;1,1;0,0;1,1;0,0", 0),  # repeated, never consecutive
    ("0,0;0,0", 2),
    ("0,0;1,1;1,1", 2),
    ("", 2),
    (";", 2),
    ("0,0;", 2),
    ("0,0;;1,1", 2),
    (",1;1,", 2),
    ("0,0;1", 2),
    ("x,1;1,y", 2),
    ("1/0,1;2,2", 2),
    ("nan,inf;1,1", 2),
    ("1.5,2;3,4", 2),
], ids=["16-points", "17-points", "digits-at-cap", "digits-over-cap",
        "denominator-at-cap", "repeated", "repeated-consecutive",
        "repeated-last", "empty", "empty-parts", "empty-last", "empty-middle",
        "empty-coordinates", "one-coordinate", "non-numeric", "zero-denominator",
        "nan", "decimal"])
def test_hostile_paths_end_in_a_defined_status(path, code):
    argv = ["holonomy", os.path.join(fixture_dir(), "delta_t3_2_5.json"),
            "--path=" + path]
    assert _defined(argv) == code


@pytest.mark.parametrize("points, code", [
    (["%s,1" % AT_CAP], 0),
    (["%s,1" % OVER_CAP], 2),
    (["1,1"] * 16, 0),
    (["2,3", "-1,0", "2,3"], 0),
    ([""], 2),
    ([","], 2),
    (["1,"], 2),
    (["1,2,3"], 2),
    (["a,b"], 2),
    (["1/0,0"], 2),
], ids=["digits-at-cap", "digits-over-cap", "16-equal", "repeated", "empty",
        "empty-parts", "one-coordinate", "three-coordinates", "non-numeric",
        "zero-denominator"])
def test_hostile_points_end_in_a_defined_status(points, code):
    argv = ["rees", os.path.join(fixture_dir(), "kummer_3.json")]
    for point in points:
        argv.append("--point=" + point)
    assert _defined(argv) == code


chunks = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/7", "0+1*i", "1/0",
                          "", " ", "x", "1.5", "--1", AT_CAP, OVER_CAP, "-" + AT_CAP])
vertices = st.one_of(st.tuples(chunks, chunks).map(",".join), chunks)


@settings(max_examples=40)
@given(path=st.lists(vertices, max_size=18).map(";".join),
       points=st.lists(vertices, max_size=4))
def test_fuzzed_paths_and_points_end_in_a_defined_status(path, points):
    _defined(["holonomy", os.path.join(fixture_dir(), "delta_t3_2_5.json"),
              "--path=" + path])
    argv = ["rees", os.path.join(fixture_dir(), "kummer_3.json")]
    for point in points:
        argv.append("--point=" + point)
    _defined(argv)


def test_a_zero_dimensional_structure_is_ok(workdir):
    # roundtrip read the lowest Hodge index of an empty list: an internal error
    def filt(direction):
        return {"direction": direction, "n": 0, "steps": {}}

    doc = {"type": "complex_mhs", "n": 0, "W": filt("inc"), "Fp": filt("dec"),
           "Fpp": filt("dec")}
    for command, entry, code in _outcomes(doc, workdir):
        assert (entry["status"], code) == ("ok", 0), (command, entry)


@pytest.mark.parametrize("name, cells, command", [
    # delta[0][1] delta[1][2] has 8,600 digits, and so does the connection
    ("delta_t3_2_5.json", [(["matrix", 0, 1], AT_CAP), (["matrix", 1, 2], AT_CAP)],
     "connect"),
    ("connection_t3_2_5.json", [
        (["blocks", 0, side, i, j], sign + AT_CAP)
        for side, sign in (("A", "-"), ("B", "")) for i, j in ((0, 1), (1, 2))
    ], "holonomy"),
], ids=["delta", "connection"])
def test_a_product_over_the_digit_cap_is_malformed(name, cells, command, workdir):
    doc = _fixture(name)
    for path, value in cells:
        _set(doc, path, value)
    for each, entry, code in _outcomes(doc, workdir):
        assert entry["status"] in CODES, (each, entry)
        assert code == CODES[entry["status"]], (each, entry)
        if each == command:
            assert (entry["status"], code) == ("malformed", 2), entry


large = st.sampled_from([AT_CAP, "-" + AT_CAP, "1/" + AT_CAP, "-1/" + AT_CAP,
                         AT_CAP + "+" + AT_CAP + "*i", "1/2-" + AT_CAP + "*i"])


@st.composite
def large_digit_documents(draw):
    # a valid delta or canonical connection (dim <= 4) with one to three of
    # its nonzero off-diagonal entries moved to the digit cap
    rng = random.Random(draw(st.integers(0, 2**16)))
    delta = random_delta(rng, max_dim=4, weight_lo=-3, weight_hi=3)
    doc = serialize(connection_from_delta(delta))
    matrices = [b[side] for b in doc["blocks"] for side in ("A", "B")]
    if not matrices or draw(st.booleans()):
        doc = serialize(delta)
        matrices = [doc["matrix"]]
    cells = [(rows, i, j) for rows in matrices for i, row in enumerate(rows)
             for j, x in enumerate(row) if i != j and x != "0/1"]
    for rows, i, j in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)
                           if cells else st.just([])):
        rows[i][j] = draw(large)
    return doc


@settings(max_examples=40)
@given(doc=large_digit_documents())
def test_large_digit_documents_end_in_a_defined_status(doc, workdir):
    for command, entry, code in _outcomes(doc, workdir):
        assert entry["status"] in CODES, (command, entry)
        assert code == CODES[entry["status"]], (command, entry)
