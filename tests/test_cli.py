import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from conftest import chain_delta, fixture_dir, unchecked_delta
import gendocs
from hodgegauge import cli
from hodgegauge.documents import MAX_DIM, MAX_SPAN, _matrix_out, serialize
from hodgegauge.fixtures import t3_delta
from hodgegauge.freelie import TT_ALPHABET, LiePolynomial, format_rational
from hodgegauge.holonomy import triangle_delta
from hodgegauge.linalg import Matrix
from hodgegauge.scalars import Scalar
from hodgegauge.splitting import delta_to_mhs


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def fx(name):
    return os.path.join(fixture_dir(), name)


def test_validate_pure():
    code, out = run(["validate", fx("pure_0_0.json")])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "validate"
    entry = report["inputs"][0]
    assert entry["status"] == "ok"
    assert entry["result"]["hodge"] == {"0,0": 1}


def test_validate_multiple_inputs_keeps_order():
    code, out = run(
        ["validate", fx("kummer_1.json"), fx("pure_m1_m1.json")]
    )
    assert code == 0
    report = json.loads(out)
    paths = [e["path"] for e in report["inputs"]]
    assert paths == [fx("kummer_1.json"), fx("pure_m1_m1.json")]


def test_roundtrip_kummer_gaussian():
    code, out = run(["roundtrip", fx("kummer_2_plus_i.json")])
    assert code == 0
    report = json.loads(out)
    entry = report["inputs"][0]
    assert all(c["pass"] for c in entry["checks"])
    assert entry["result"]["delta"][0][1] == "-2/1-1/1*i"


def test_split_reports_log_components():
    code, out = run(["split", fx("t3_2_5.json")])
    assert code == 0
    comps = json.loads(out)["inputs"][0]["result"]["log_components"]
    assert set(comps) == {"1,1", "2,2"}


def test_rees_line_types():
    code, out = run(["rees", fx("kummer_3.json"), "--point", "2,3"])
    assert code == 0
    entry = json.loads(out)["inputs"][0]
    assert entry["result"]["w_line_type"] == [0, 0]
    assert entry["result"]["point_types"]["2/1,3/1"] == [0, 0]


def test_rees_reports_each_distinct_point_once():
    # 4/2,3 parses to the point 2,3: it was reported with two checks
    argv = ["rees", fx("kummer_3.json"), "--point", "2,3", "--point=-1,0",
            "--point", "4/2,3", "--point=-1/1,0"]
    code, out = run(argv)
    assert code == 0
    entry = json.loads(out)["inputs"][0]
    assert sorted(entry["result"]["point_types"]) == ["-1/1,0/1", "2/1,3/1"]
    assert [c["name"] for c in entry["checks"]] == [
        "patching_at_ones_is_delta", "w_line_trivial",
        "line_trivial_at_2/1,3/1", "line_trivial_at_-1/1,0/1",
    ]


def test_ext_real_tate():
    code, out = run(["ext", fx("real_tate_1.json")])
    assert code == 0
    result = json.loads(out)["inputs"][0]["result"]
    assert result == {"ext0_rational": 0, "ext1_rational": 1}


def test_holonomy_explicit_path():
    code, out = run(
        ["holonomy", fx("delta_kummer_2_plus_i.json"), "--path=-1,0;0,-1"]
    )
    assert code == 0
    T = json.loads(out)["inputs"][0]["result"]["transport"]
    assert T[0][1] == "-2/1-1/1*i"


def test_lie_tables():
    code, out = run(["lie", "--truncation", "5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert "z1,1 = -1*[a1,1]" in result["z_in_alpha"]
    assert "z2,1 = 1/2*[a2,1]" in result["z_in_alpha"]
    assert "a2,1 = 2*[z2,1]" in result["alpha_in_z"]
    rows = {r["bidegree"]: r for r in result["leading_coefficient_comparison"]}
    assert rows["1,1"]["integral"] == "-1"
    assert rows["1,1"]["stated_binomial"] == "2"
    assert rows["1,1"]["agree"] is False


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    return captured.err


def test_lie_truncation_cap(capsys):
    _usage_error(["lie", "--truncation", "13"], capsys)


@pytest.mark.parametrize(
    "flags",
    [
        ["--truncation", "-3"],
        ["--truncation", "0"],
        ["--truncation", "1"],
        ["--truncation", "x"],
        # lie reads no documents, so it takes no --field or --jobs
        ["--field", "Q"],
        ["--jobs", "2"],
    ],
)
def test_lie_bad_flags_are_usage_errors(flags, capsys):
    _usage_error(["lie"] + flags, capsys)


def test_lie_lowest_truncation():
    code, out = run(["lie", "--truncation", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["truncation"] == 2
    assert result["z_in_alpha"] == ["z1,1 = -1*[a1,1]"]
    assert result["alpha_in_z"] == ["a1,1 = -1*[z1,1]"]


@pytest.mark.parametrize("N", [8, 9, 10, 11])
def test_lie_stdout_matches_benchmark_reference(N):
    path = os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "reference",
        "lie-tables.json",
    )
    with open(path) as fh:
        want = json.load(fh)["fixed"]["lie:%d" % N]
    code, out = run(["lie", "--truncation", str(N)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


# sha256 of `lie --truncation N` stdout for the truncations that
# perfbench/reference does not pin, recorded before the tables moved onto
# Scalar coefficients and the package's Poly
@pytest.mark.parametrize("N, want", [
    (2, "ae5d192fc6b8b7dd7b2a3f62d86ca34b8a5c0f4e5a3f51d04bc1d347a469aca7"),
    (3, "8ae7f00e4f6b8c3958717fd08f26a955c8502c262523fdf277cfcc3386cf4dbb"),
    (4, "e1208a6942f501aec94b39e6be59a3af5f69cf084f00887dfb85b91d2a350d29"),
    (5, "e8366a5120ccd55e34de43a1a394ee9c727b5078b34bda0e84ed883dd2a206d6"),
    (6, "93705f8189675bfa6fa76f224bee0f3aade9c73305a8948046268a02ffd7d56b"),
    (7, "8aa1a2524d11600f33a06bbb8159f9fbf69db67c9269df6b12d5a0e1d60a99b4"),
    (12, "15e1a3d2dc09b1f510f5d4c1d7d97f115e9efc77906ef877f54457b9be2a0f46"),
])
def test_lie_stdout_is_pinned(N, want):
    code, out = run(["lie", "--truncation", str(N)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("c, text", [
    (Scalar(0), "0"),
    (Scalar(2), "2"),
    (Scalar(10), "10"),
    (Scalar(-3), "-3"),
    (Scalar.parse("1/2"), "1/2"),
    (Scalar.parse("-7/12"), "-7/12"),
    (Scalar.parse("1/11"), "1/11"),
    (Scalar.parse("-5/21"), "-5/21"),
])
def test_lie_coefficients_print_as_fractions(c, text):
    assert format_rational(c) == text


def test_rees_restricts_and_reduces_no_line(monkeypatch):
    # every line type is read off the one certificate of delta's shape,
    # with no patching matrix built
    from hodgegauge import rees

    monkeypatch.chdir(fixture_dir())
    batches = [["rees"] + _fixture_names("all") + points for points in ([], _POINTS)]
    want = [run(argv) for argv in batches]
    calls = []
    for name in ("rees_patching", "unipotent_line_type", "restrict_to_line",
                 "_column_reduce"):
        fn = getattr(rees, name)
        monkeypatch.setattr(rees, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert [run(argv) for argv in batches] == want
    assert calls == []


def test_rees_on_a_phi_of_another_shape_is_an_internal_error(monkeypatch):
    # a transposed delta, past DeltaObject's checks, makes Phi lower triangular
    delta = cli._delta
    monkeypatch.setattr(cli, "_delta", lambda obj: unchecked_delta(
        delta(obj).hodge, delta(obj).delta.transpose()))
    code, out = run(["rees", fx("kummer_3.json")])
    entry = json.loads(out)["inputs"][0]
    assert (code, entry["status"]) == (3, "error")
    assert entry["error"].startswith("InvariantError: ")


def test_lie_polynomial_format():
    x = LiePolynomial(
        TT_ALPHABET, {(0, 1): Scalar.parse("-1/2"), (1,): Scalar(2)}
    )
    assert str(x) == "2*[t2] + -1/2*[t1][t2]"
    assert repr(x) == "LiePolynomial(2*[t2] + -1/2*[t1][t2])"
    assert str(LiePolynomial.zero(TT_ALPHABET)) == "0"


def _fixture_names(which):
    names = sorted(f for f in os.listdir(fixture_dir()) if f.endswith(".json"))
    if which == "all":
        return names
    comparison = which == "delta and connection"
    return [
        n for n in names if n.startswith(("delta_", "connection_")) == comparison
    ]


# sha256 of stdout of one batch over the shipped fixtures, named relative to
# the fixture directory so that the digest does not depend on the checkout's
# location; recorded before transport moved onto the weight-ordered walk,
# (ext) before real cohomology moved onto Galois descent, (split) before
# delta was read off the echelon bases of the splitting pieces, and
# (validate, connect, rees) before the block bidegrees moved into HodgeNumbers
_POINTS = ["--point", "2,3", "--point=-1,0", "--point", "2,3", "--point", "0+1*i,1"]


@pytest.mark.parametrize("argv, which, want_code, want", [
    (["validate"], "structure", 0,
     "ed2a44383494420e978cfb024d0cdb76b145d700ac3da81eec3e3fb7ab88fae2"),
    (["split"], "structure", 0,
     "a43ac0472a312a24659b85b58a5b1c95651857886173afe0b3a8b482f8d59779"),
    (["connect"], "all", 0,
     "fb523aec0c595222f25e69a282d5d4b7d9023a170d29bdd026933ee8d8c1add2"),
    (["holonomy"], "all", 0,
     "bb3fe02124d230fd0f4e768b9ea824143e0906b8ca4a5813f5c61210bcad9dd4"),
    (["holonomy", "--path=-1,0;0,-1;2,3"], "delta and connection", 0,
     "689cd977da6b0ffd8e271afc953d6cd3df5a048d91026f49779dfa10676f2f07"),
    (["roundtrip"], "structure", 0,
     "6aedbec96bf6227c91733504edb2b0da81de002574f3a759802d18a2000391e1"),
    # a connection document is malformed for rees
    (["rees"] + _POINTS, "all", 2,
     "5de71b714ba77ffc32eff82559b710aedfe180a8e4c91828bbec7cf2b0c757fa"),
    (["ext"], "structure", 0,
     "4d63ba390303ea791b33756571fbe62ff5cea82cf40167bc0784b10e3cfb63e6"),
], ids=["validate", "split", "connect", "holonomy", "holonomy-path", "roundtrip",
        "rees-points", "ext"])
def test_transport_stdout_is_pinned(argv, which, want_code, want, monkeypatch):
    monkeypatch.chdir(fixture_dir())
    names = _fixture_names(which)
    assert len(names) == {"all": 27, "delta and connection": 3, "structure": 24}[which]
    code, out = run(argv + names)
    assert code == want_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


def test_roundtrip_stdout_on_the_chain_is_pinned(tmp_path, monkeypatch):
    # its F'' is nested and dense, so delta_to_mhs spans every step of it
    # from rows that are not unit rows; recorded with the digests above
    monkeypatch.chdir(tmp_path)
    with open("chain_16.json", "w") as fh:
        json.dump(serialize(delta_to_mhs(chain_delta(16))), fh)
    code, out = run(["roundtrip", "chain_16.json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "e2fe227432700a0e2eeb46416f68e8e1586ee4d8573d6328c7be3e729fc5d2a7"


def test_lie_at_the_cap():
    N = cli.TRUNCATION_CAP
    code, out = run(["lie", "--truncation", str(N)])
    assert code == 0
    result = json.loads(out)["result"]
    entries = N * (N - 1) // 2
    assert entries == 66
    assert len(result["z_in_alpha"]) == entries
    assert len(result["alpha_in_z"]) == entries


def test_orientation_selftest_flag():
    code, out = run(
        ["validate", fx("pure_0_0.json"), "--orientation-selftest"]
    )
    assert code == 0
    assert json.loads(out)["orientation_selftest"] == "pass"


def test_field_flag_rejects_gaussian_entries():
    code, out = run(["validate", fx("kummer_2_plus_i.json"), "--field", "Q"])
    assert code == 1
    assert json.loads(out)["inputs"][0]["status"] == "violation"


def test_malformed_input(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code, out = run(["validate", str(bad)])
    assert code == 2
    assert json.loads(out)["inputs"][0]["status"] == "malformed"


def test_deeply_nested_json_is_malformed(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out = run(["validate", str(deep), fx("pure_0_0.json")])
    assert code == 2
    first, second = json.loads(out)["inputs"]
    assert first["status"] == "malformed"
    assert "recursion" in first["error"]
    assert second["status"] == "ok"


def test_missing_file():
    code, out = run(["validate", "/nonexistent/thing.json"])
    assert code == 2


def test_invalid_structure_is_violation(tmp_path):
    import hodgegauge.documents as documents
    from hodgegauge.fixtures import kummer
    from hodgegauge.mhs import Filtration
    from hodgegauge.linalg import Subspace

    V = kummer(1)
    doc = documents.serialize(V)
    # drop the weight step: well-formed document, invalid structure
    doc["W"]["steps"] = {"0": doc["W"]["steps"]["0"]}
    p = tmp_path / "bad_structure.json"
    p.write_text(json.dumps(doc))
    code, out = run(["validate", str(p)])
    assert code == 1
    entry = json.loads(out)["inputs"][0]
    assert entry["status"] == "violation"
    assert "opposedness" in entry["error"]


def test_parallel_matches_serial():
    inputs = [fx(n) for n in ("pure_0_0.json", "kummer_1.json", "t3_1_1.json")]
    _, serial = run(["validate"] + inputs)
    _, parallel = run(["validate"] + inputs + ["--jobs", "3"])
    assert serial == parallel


def _kummer_doc(tmp_path, name, edit):
    import hodgegauge.documents as documents
    from hodgegauge.fixtures import kummer

    doc = documents.serialize(kummer(1))
    edit(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_zero_denominator_is_malformed(tmp_path):
    def edit(doc):
        doc["Fpp"]["steps"]["0"][0][1] = "1/0"

    code, out = run(["validate", _kummer_doc(tmp_path, "div0.json", edit)])
    assert code == 2
    entry = json.loads(out)["inputs"][0]
    assert entry["status"] == "malformed"
    assert "zero denominator" in entry["error"]


@pytest.mark.parametrize("digits, status", [(4300, "ok"), (4301, "malformed")])
def test_scalar_digits_are_bounded(tmp_path, digits, status):
    with open(fx("delta_kummer_2_plus_i.json")) as fh:
        doc = json.load(fh)
    doc["matrix"][0][1] = "7" * digits
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    flags = cli.build_parser().parse_args(["connect", str(path)])
    entry, code = cli._process_one("connect", str(path), flags)
    assert (entry["status"], code) == (status, {"ok": 0, "malformed": 2}[status])
    if status == "malformed":
        assert entry["error"] == (
            "scalar has a numerator or denominator of more than 4300 digits"
        )


def _status(command, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flags = cli.build_parser().parse_args([command, str(path)])
    entry, code = cli._process_one(command, str(path), flags)
    return entry["status"], code, entry.get("error")


@pytest.mark.parametrize("span, status", [(MAX_SPAN, "ok"), (MAX_SPAN + 1, "malformed")])
def test_filtration_index_span_is_capped(tmp_path, span, status):
    # a decreasing filtration is the full space below its stored range, so
    # an explicit full step further down states the same structure
    with open(fx("kummer_3.json")) as fh:
        doc = json.load(fh)
    steps = doc["Fp"]["steps"]
    top = max(int(k) for k in steps)
    steps[str(top - span)] = steps[min(steps, key=int)]
    got = _status("validate", tmp_path, doc)
    if status == "ok":
        assert got == ("ok", 0, None)
    else:
        assert got == (
            "malformed", 2, "bad filtration: indices span 65, more than 64"
        )


@pytest.mark.parametrize("span, status", [(MAX_SPAN, "ok"), (MAX_SPAN + 1, "malformed")])
def test_hodge_weight_span_is_capped(tmp_path, span, status):
    low = "-%d,-%d" % (span - span // 2, span // 2)
    doc = {"type": "delta", "hodge": {low: 1, "0,0": 1},
           "matrix": [["1", "1"], ["0", "1"]]}
    got = _status("connect", tmp_path, doc)
    if status == "ok":
        assert got == ("ok", 0, None)
    else:
        assert got == (
            "malformed", 2, "bad hodge numbers: weights span 65, more than 64"
        )


def _unit_rows(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _pure_structure(n):
    def filt(direction, steps):
        return {"direction": direction, "n": n, "steps": steps}

    dec = filt("dec", {"0": _unit_rows(n), "1": []})
    return {"type": "complex_mhs", "n": n, "W": filt("inc", {"0": _unit_rows(n)}),
            "Fp": dec, "Fpp": dec}


@pytest.mark.parametrize(
    "command, make, reason",
    [
        ("validate", _pure_structure, "dimension %d, more than %d"),
        ("connect", lambda n: {"type": "delta", "hodge": {"0,0": n},
                               "matrix": _unit_rows(n)},
         "bad hodge numbers: dimension %d, more than %d"),
        ("connect", lambda n: {"type": "connection", "hodge": {"0,0": n},
                               "blocks": []},
         "bad hodge numbers: dimension %d, more than %d"),
    ],
    ids=["structure", "delta", "connection"],
)
def test_document_dimension_is_capped(tmp_path, command, make, reason):
    assert _status(command, tmp_path, make(MAX_DIM)) == ("ok", 0, None)
    assert _status(command, tmp_path, make(MAX_DIM + 1)) == (
        "malformed", 2, reason % (MAX_DIM + 1, MAX_DIM)
    )


def test_a_huge_hodge_number_ends_before_the_block_shape(tmp_path):
    # HodgeNumbers builds its n x n bidegree table at construction, so the
    # dimension bound runs before it: a block of dimension 10^9 ends at once
    doc = {"type": "connection", "hodge": {"0,0": 10 ** 9}, "blocks": []}
    start = time.process_time()
    assert _status("connect", tmp_path, doc) == (
        "malformed", 2, "bad hodge numbers: dimension 1000000000, more than 32")
    assert time.process_time() - start < 1


def test_a_filtration_above_the_dimension_cap_is_malformed(tmp_path):
    doc = _pure_structure(2)
    doc["Fp"] = {"direction": "dec", "n": MAX_DIM + 1, "steps": {"1": []}}
    assert _status("validate", tmp_path, doc) == (
        "malformed", 2,
        "bad filtration: dimension %d, more than %d" % (MAX_DIM + 1, MAX_DIM),
    )


def test_far_apart_weights_are_malformed_before_any_stage(tmp_path):
    # spread 8,000: `rees` overflowed the stack substituting a power this
    # high, and `holonomy` ran for minutes
    doc = {"type": "delta", "hodge": {"-4000,-4000": 1, "0,0": 1},
           "matrix": [["1", "1"], ["0", "1"]]}
    for command in ("rees", "holonomy"):
        assert _status(command, tmp_path, doc)[:2] == ("malformed", 2)


def _empty_fp(doc):
    doc["Fp"]["steps"] = {}


def _decreasing_w(doc):
    doc["W"]["direction"] = "dec"


def _w_short_of_the_space(doc):
    del doc["W"]["steps"]["0"]


def _fpp_not_separated(doc):
    del doc["Fpp"]["steps"]["1"]


def _fp_crossing_once(doc):
    # F'^0 = <e0> does not hold F'^1 = <e1>; every other pair nests
    doc["Fp"]["steps"].update({"1": [["0", "1"]], "2": []})


def _fp_crossing_twice(doc):
    # F'^-1 = <e1> misses F'^0 and F'^0 misses F'^1: the innermost pair is
    # named
    doc["Fp"]["steps"].update({"-1": [["0", "1"]], "1": [["0", "1"]], "2": []})


@pytest.mark.parametrize(
    "edit, error",
    [
        # found by validation inside the handler
        (_empty_fp, "empty filtration on nonzero space"),
        (_w_short_of_the_space, "increasing filtration does not exhaust"),
        (_fpp_not_separated, "decreasing filtration is not separated"),
        (_fp_crossing_once, "not decreasing at 0 -> 1"),
        (_fp_crossing_twice, "not decreasing at 0 -> 1"),
        # found while the document is parsed
        (_decreasing_w, "wrong filtration direction"),
    ],
)
def test_filtration_errors_are_malformed(tmp_path, edit, error):
    path = _kummer_doc(tmp_path, "bad.json", edit)
    for command in ("validate", "split", "ext"):
        code, out = run([command, path])
        assert code == 2
        entry = json.loads(out)["inputs"][0]
        assert entry["status"] == "malformed"
        assert entry["error"] == error


@pytest.mark.parametrize("row", [{"1/1": 7}, "1"], ids=["object", "string"])
def test_matrix_rows_must_be_lists(tmp_path, row):
    # an object row was read as its keys and a string row as its characters
    doc = {"type": "delta", "hodge": {"0,0": 1}, "matrix": [["1/1"]]}
    assert _status("rees", tmp_path, doc) == ("ok", 0, None)
    doc["matrix"] = [row]
    assert _status("rees", tmp_path, doc) == (
        "malformed", 2, "matrix must be a list of rows, each a list"
    )


@pytest.mark.parametrize("step", [0, "", {}, None])
def test_a_filtration_step_must_be_a_list(tmp_path, step):
    # [] is the zero step that serialize writes; any other falsy step was
    # read as one too
    with open(fx("pure_0_0.json")) as fh:
        doc = json.load(fh)
    doc["W"]["steps"]["-1"] = []
    assert _status("split", tmp_path, doc) == ("ok", 0, None)
    doc["W"]["steps"]["-1"] = step
    assert _status("split", tmp_path, doc) == (
        "malformed", 2,
        "bad filtration: matrix must be a list of rows, each a list",
    )


def test_a_repeated_connection_block_is_malformed(tmp_path):
    # the last copy of a block once replaced the first, silently
    with open(fx("connection_t3_2_5.json")) as fh:
        doc = json.load(fh)
    assert _status("connect", tmp_path, doc) == ("ok", 0, None)
    doc["blocks"].append(dict(doc["blocks"][0]))
    assert _status("connect", tmp_path, doc) == (
        "malformed", 2, "repeated block at (1, 1)"
    )


def test_a_connection_off_fock_schwinger(tmp_path, monkeypatch):
    # a gauge change of the shipped connection has A + B != 0: connect
    # reports the violation, and holonomy transports its own A and B
    G = gendocs.gauged_connection()
    assert any(G.B.get(pq) != -M for pq, M in G.A.items())
    monkeypatch.chdir(tmp_path)
    gendocs.main(["gauged"])
    code, out = run(["connect", "gauged_t3_2_5.json"])
    (entry,) = json.loads(out)["inputs"]
    assert (code, entry["status"]) == (1, "violation")
    assert entry["checks"] == [{"name": "fock_schwinger", "pass": False}]
    assert entry["result"] == serialize(G)
    code, out = run(["holonomy", "gauged_t3_2_5.json"])
    (entry,) = json.loads(out)["inputs"]
    assert (code, entry["status"]) == (0, "ok")
    assert entry["result"]["triangle_delta"] == _matrix_out(triangle_delta(G).delta)
    # the gauge is 1 on both axes, so the holonomy is still delta of t3_2_5
    assert entry["result"]["triangle_delta"] == _matrix_out(t3_delta(2, 5).delta)


def test_rees_on_connection_is_malformed():
    code, out = run(["rees", fx("connection_t3_2_5.json")])
    assert code == 2
    entry = json.loads(out)["inputs"][0]
    assert entry["status"] == "malformed"
    assert "EquivariantConnection" in entry["error"]


def test_structure_commands_on_comparison_documents_are_violations():
    for name in ("delta_t3_2_5.json", "connection_t3_2_5.json"):
        for command in ("validate", "split", "roundtrip", "ext"):
            code, out = run([command, fx(name)])
            assert code == 1
            entry = json.loads(out)["inputs"][0]
            assert entry["status"] == "violation"
            assert entry["error"].startswith("expected a structure document")


@pytest.mark.parametrize(
    "argv",
    [
        ["holonomy", "delta_kummer_2_plus_i.json", "--path", "0,0;1"],
        ["holonomy", "delta_kummer_2_plus_i.json", "--path", "0,0;1/0,1"],
        ["holonomy", "delta_kummer_2_plus_i.json", "--path", "0,0;0,0"],
        ["rees", "kummer_3.json", "--point", "x,1"],
        ["rees", "kummer_3.json", "--point", "1,2,3"],
    ],
)
def test_bad_point_flags_are_usage_errors(argv, capsys):
    _usage_error([argv[0], fx(argv[1])] + argv[2:], capsys)


@pytest.mark.parametrize("path, reason", [
    ("--path=0,0", "a path needs at least two points"),
    ("--path=0,0;0,0", "consecutive path points coincide"),
])
def test_a_degenerate_path_is_a_usage_error_that_says_why(path, reason, capsys):
    err = _usage_error(["holonomy", fx("delta_t3_2_5.json"), path], capsys)
    assert "argument --path: %s\n" % reason in err


def test_a_path_over_the_cap_is_a_usage_error(capsys):
    # 16 points run (tests/test_fuzz.py); one more is refused by argparse
    k = cli.MAX_PATH_POINTS + 1
    path = "--path=" + ";".join("%d,%d" % (i, i * i) for i in range(k))
    with pytest.raises(SystemExit) as exc:
        cli.main(["holonomy", fx("delta_t3_2_5.json"), path])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "--path: a path has at most 16 points, got 17" in captured.err


def test_path_help_names_the_equals_form(capsys):
    # after a space, argparse reads "-1,0;0,1" as an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["holonomy", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert "or --path=-1,0;0,1 when the first x is negative" in help_text
    doc = fx("delta_t3_2_5.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["holonomy", doc, "--path", "-1,0;0,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert run(["holonomy", doc, "--path=-1,0;0,1"])[0] == 0


def test_no_command_multiplies_or_inverts_a_matrix(monkeypatch):
    # every handler on every shipped fixture, and a path through a Gaussian
    # vertex, with the dense product and inverse refused: paths compose in
    # the walk, real descent swaps indices, the model solves for delta^-1
    def refuse(*args):
        raise AssertionError("a command multiplied or inverted a matrix")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    parser = cli.build_parser()
    names = _fixture_names("all")
    assert len(names) == 27
    runs = [[command] for command in sorted(cli._HANDLERS)]
    for argv in runs + [["holonomy", "--path=-1,0;1/2+1*i,-1;0,-1"]]:
        for name in names:
            flags = parser.parse_args(argv + [fx(name)])
            entry, _ = cli._process_one(argv[0], fx(name), flags)
            assert entry["status"] != "error", (argv, name, entry["error"])


def test_each_structure_input_is_validated_once(monkeypatch):
    # Validation is the only place where a structure's graded charts are
    # built, and every subcommand validates each structure input once;
    # roundtrip also validates the model it rebuilds from delta.  Every
    # W-adapted basis of a run is built by one of these validations, and
    # charts each weight of its structure once, with one relative-position
    # elimination; a violation stops at the first weight that fails.  Each
    # side of a splitting cuts the pieces of each weight from one more.
    from hodgegauge import mhs, splitting
    from hodgegauge.documents import parse
    from hodgegauge.fixtures import corrupt_weight_step

    built = []
    adapted = []
    positions = []
    sides = []
    gr_init = mhs.GrStructure.__init__
    adapted_init = mhs.AdaptedTriple.__init__
    real_position = splitting._position
    real_pieces = splitting._adapted_pieces

    def counting_gr(self, V, *rest):
        start = len(positions)
        built.append((V, self, positions))
        try:
            gr_init(self, V, *rest)
        finally:
            built[-1] = (V, self, positions[start:])

    def counting_adapted(self, V):
        adapted.append((V, self))
        adapted_init(self, V)

    def counting_position(levels, f):
        positions.append(len(levels))
        return real_position(levels, f)

    def counting_pieces(gr, side):
        start = len(positions)
        out = real_pieces(gr, side)
        sides.append((gr, side, positions[start:]))
        return out

    monkeypatch.setattr(mhs.GrStructure, "__init__", counting_gr)
    monkeypatch.setattr(mhs.AdaptedTriple, "__init__", counting_adapted)
    monkeypatch.setattr(mhs, "_position", counting_position)
    monkeypatch.setattr(splitting, "_position", counting_position)
    monkeypatch.setattr(splitting, "_adapted_pieces", counting_pieces)
    parser = cli.build_parser()
    structures = []
    split = 0
    for name in sorted(os.listdir(fixture_dir())):
        with open(fx(name)) as fh:
            doc = json.load(fh)
        structure = doc["type"] in ("complex_mhs", "real_mhs")
        if structure:
            obj = parse(doc)
            structures.append(obj if doc["type"] == "complex_mhs"
                              else mhs.realize_real(obj))
        for command in sorted(cli._HANDLERS):
            del built[:], adapted[:], sides[:]
            flags = parser.parse_args([command, fx(name)])
            entry, code = cli._process_one(command, fx(name), flags)
            want = (2 if command == "roundtrip" else 1) if structure else 0
            assert len(built) == want, (command, name, len(built))
            assert len(adapted) == want, (command, name)
            assert all(
                a is g and U is V for (U, a), (V, g, _) in zip(adapted, built)
            ), (command, name)
            for _, gr, charted in built:
                ws = gr.hodge.weights()
                assert len(gr.cols) == len(ws), (command, name)
                assert charted == [gr.cols[n][1] - gr.cols[n][0] for n in ws]
            # delta_operator cuts F' pieces, then F'' pieces, of one gr
            assert [side for _, side, _ in sides] == ["Fp", "Fpp"] * (len(sides) // 2)
            for gr, _, cut in sides:
                assert any(gr is g for _, g, _ in built), (command, name)
                assert cut == [gr.V.n - gr.cols[n][0] for n in gr.hodge.weights()]
            split += len(sides)
    assert split
    rng = random.Random(43)
    stopped_early = 0
    for V in structures:
        del built[:]
        with pytest.raises(mhs.OpposednessViolation) as exc:
            mhs.GrStructure(corrupt_weight_step(V, rng))
        (_, gr, charted), = built
        reached = sorted(gr.cols).index(exc.value.weight) + 1
        assert len(charted) == reached
        stopped_early += reached < len(gr.cols)
    assert stopped_early


@pytest.mark.parametrize("name", ["pure_0_0.json", "kummer_3.json"])
def test_sparse_decreasing_filtrations_validate(name, tmp_path):
    # a decreasing filtration is the full space below its stored range, so
    # dropping the leading full steps of F' and F'' keeps the structure
    with open(fx(name)) as fh:
        doc = json.load(fh)
    for key in ("Fp", "Fpp"):
        steps = doc[key]["steps"]
        del steps[min(steps, key=int)]
    sparse = tmp_path / name
    sparse.write_text(json.dumps(doc))
    code, out = run(["validate", str(sparse)])
    assert code == 0
    _, explicit = run(["validate", fx(name)])
    assert json.loads(out)["inputs"][0]["result"] == json.loads(explicit)["inputs"][0]["result"]


# the package modules each command loads, run on a structure document;
# reading any document takes _DOCUMENT, a delta takes splitting, and a walk
# on delta (log delta, the connection) takes upoly
_DOCUMENT = {"cli", "scalars", "linalg", "mhs", "documents"}
_CONNECTION = _DOCUMENT | {"splitting", "connection", "upoly"}
_HOLONOMY = _CONNECTION | {"holonomy"}
_MODULES = {
    "lie": (["lie", "--truncation", "3"], {"cli", "scalars", "freelie", "upoly"}),
    "validate": (["validate"], _DOCUMENT),
    "split": (["split"], _DOCUMENT | {"splitting", "upoly"}),
    "connect": (["connect"], _CONNECTION),
    "holonomy": (["holonomy"], _HOLONOMY),
    "roundtrip": (["roundtrip"], _HOLONOMY),
    "rees": (["rees"], _DOCUMENT | {"splitting"}),
    "ext": (["ext"], _CONNECTION | {"hodgecoh"}),
    "orientation-selftest": (["validate", "--orientation-selftest"], _HOLONOMY),
}


@pytest.mark.parametrize("name", list(_MODULES))
def test_each_command_loads_only_its_modules(name):
    # every fresh process compiles what it imports, so a command loads only
    # the layers it reaches; and inputs run serially, with no thread pool
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from hodgegauge import cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    argv, modules = _MODULES[name]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    runs = [argv]
    if argv[0] != "lie":
        runs = [argv + [fx("t3_2_5.json")] + jobs for jobs in ([], ["--jobs", "2"])]
    for args in runs:
        proc = subprocess.run(
            [sys.executable, "-c", script] + args,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0, args
        assert {m[len("hodgegauge."):] for m in loaded
                if m.startswith("hodgegauge.")} == modules, args
        # no command builds the patching matrix Phi or any PolyMatrix
        assert not {"hodgegauge.poly", "hodgegauge.rees"} & set(loaded), args
        assert "concurrent.futures" not in loaded, args
        # Scalars are int pairs; Fractions, and the decimal and numbers
        # modules behind them, load only where one is converted or read
        assert not {"fractions", "decimal"} & set(loaded), args
        if argv[0] == "lie":  # hashlib and OpenSSL load only to hash inputs
            assert not {"hashlib", "_hashlib"} & set(loaded), args


def test_jobs_is_an_integer_option(capsys):
    _usage_error(["validate", fx("pure_0_0.json"), "--jobs", "x"], capsys)
    code, out = run(["validate", fx("pure_0_0.json"), "--jobs", "0"])
    assert (code, json.loads(out)["inputs"][0]["status"]) == (0, "ok")


@pytest.mark.parametrize("limit", [None, 0, 640])
@pytest.mark.parametrize("command", ["connect", "holonomy"])
def test_results_too_large_to_print_are_malformed(command, limit, tmp_path):
    if command == "connect":
        # the entries 5 and 2 of the delta fixture as 2,200-digit integers:
        # the connection holds their product
        with open(fx("delta_t3_2_5.json")) as fh:
            doc = json.load(fh)
        doc["matrix"][0][1] = doc["matrix"][1][2] = "7" * 2200
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        argv = ["connect", str(big)]
    else:
        b = "7" * 1500
        argv = ["holonomy", fx("delta_t3_2_5.json"), "--path=%s,1;1,%s;-%s,3" % (b, b, b)]
    # the bound is MAX_DIGITS whatever the interpreter's own limit
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        code, out = run(argv)
    finally:
        sys.set_int_max_str_digits(saved)
    entry = json.loads(out)["inputs"][0]
    assert (code, entry["status"]) == (2, "malformed")
    assert entry["error"] == (
        "%s: result has a numerator or denominator of more than 4300 digits"
        % command
    )


def test_closed_stdout_exits_quietly():
    # the reading end is closed before the report is written, as when
    # `hodgegauge lie --truncation 8 | head -c 100` has read its bytes
    read, write = os.pipe()
    os.close(read)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hodgegauge.cli", "lie", "--truncation", "8"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == cli.CLOSED_STDOUT == 141


def _process(argv):
    # a fresh interpreter on this tree's src, with stdout and stderr
    # buffered, as an installed script runs
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable] + argv, capture_output=True, env=env)


def test_a_process_writes_the_whole_report(monkeypatch):
    # more than a 64 KiB pipe buffer of report must all reach the reader
    # before the process ends without teardown; one pass over the fixtures
    # reports about 30 KB, so they are given three times
    monkeypatch.chdir(fixture_dir())
    argv = ["connect"] + _fixture_names("all") * 3
    proc = _process(["-m", "hodgegauge.cli"] + argv)
    code, out = run(argv)
    assert len(proc.stdout) > 65536
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")
    assert code == 0


def test_a_process_with_an_internal_error_keeps_its_traceback():
    script = (
        "from hodgegauge import cli\n"
        "from hodgegauge.splitting import DeltaObject\n"
        "delta = cli._delta\n"
        "def transposed(obj):\n"
        "    d = object.__new__(DeltaObject)\n"
        "    object.__setattr__(d, 'hodge', delta(obj).hodge)\n"
        "    object.__setattr__(d, 'delta', delta(obj).delta.transpose())\n"
        "    return d\n"
        "cli._delta = transposed\n"
        "cli.run()\n"
    )
    proc = _process(["-c", script, "rees", fx("kummer_3.json")])
    entry = json.loads(proc.stdout)["inputs"][0]
    assert (proc.returncode, entry["status"]) == (3, "error")
    assert entry["error"].startswith("InvariantError: ")
    err = proc.stderr.decode()
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.splitlines()[-1] == "hodgegauge.linalg." + entry["error"]


def test_a_process_ends_normally_on_a_usage_error_and_on_version():
    proc = _process(["-m", "hodgegauge.cli", "lie", "--truncation", "13"])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"usage: hodgegauge lie")
    proc = _process(["-m", "hodgegauge.cli", "--version"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0.1.0\n", b"")


def test_the_installed_script_is_the_process_entry():
    # the script a package installer writes calls sys.exit(target()), so it
    # must be the function that `python -m hodgegauge.cli` calls
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml")) as fh:
        target = re.search(r'^\[project\.scripts\]\nhodgegauge = "hodgegauge\.cli:(\w+)"$',
                           fh.read(), re.M).group(1)
    with open(cli.__file__) as fh:
        entry = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z',
                          fh.read(), re.M).group(1)
    assert target == entry == "run"


def test_rees_on_empty_delta(tmp_path):
    p = tmp_path / "empty_delta.json"
    p.write_text(json.dumps({"type": "delta", "hodge": {}, "matrix": []}))
    code, out = run(["rees", str(p)])
    assert code == 0
    entry = json.loads(out)["inputs"][0]
    assert entry["status"] == "ok"
    assert entry["result"]["w_line_type"] == []
    assert entry["result"]["point_types"]
    assert all(t == [] for t in entry["result"]["point_types"].values())


def test_internal_error_is_reported_and_the_batch_goes_on(monkeypatch, capsys):
    from hodgegauge.linalg import InvariantError

    validate = cli._HANDLERS["validate"]
    calls = []

    def failing_once(obj, flags):
        calls.append(obj)
        if len(calls) == 1:
            raise InvariantError("forced")
        return validate(obj, flags)

    monkeypatch.setitem(cli._HANDLERS, "validate", failing_once)
    code, out = run(["validate", fx("kummer_1.json"), fx("pure_0_0.json")])
    assert code == 3
    first, second = json.loads(out)["inputs"]
    assert first["status"] == "error"
    assert first["error"] == "InvariantError: forced"
    assert "result" not in first
    assert second["status"] == "ok"
    assert second["result"]["hodge"] == {"0,0": 1}
    assert "InvariantError: forced" in capsys.readouterr().err
