import io
import json
import os
from contextlib import redirect_stdout

import pytest

from conftest import fixture_dir
from hodgegauge import cli


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


def test_lie_truncation_cap():
    code, _ = run(["lie", "--truncation", "13"])
    assert code == 2


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


def _empty_fp(doc):
    doc["Fp"]["steps"] = {}


def _decreasing_w(doc):
    doc["W"]["direction"] = "dec"


@pytest.mark.parametrize(
    "edit, error",
    [
        # found by validation inside the handler
        (_empty_fp, "empty filtration on nonzero space"),
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
    argv = [argv[0], fx(argv[1])] + argv[2:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_each_structure_input_is_validated_once(monkeypatch):
    # Validation is the only place where a structure's weight charts are
    # built, and every subcommand validates each structure input once;
    # roundtrip also validates the model it rebuilds from delta.
    from hodgegauge import linalg, mhs

    built = []
    charts = []
    gr_init = mhs.GrStructure.__init__
    quotient_init = linalg.Quotient.__init__

    def counting_gr(self, V, *rest):
        built.append((V, self))
        gr_init(self, V, *rest)

    def counting_quotient(self, S, T):
        charts.append(S)
        quotient_init(self, S, T)

    monkeypatch.setattr(mhs.GrStructure, "__init__", counting_gr)
    monkeypatch.setattr(linalg.Quotient, "__init__", counting_quotient)
    parser = cli.build_parser()
    for name in sorted(os.listdir(fixture_dir())):
        with open(fx(name)) as fh:
            structure = json.load(fh)["type"] in ("complex_mhs", "real_mhs")
        for command in sorted(cli._HANDLERS):
            del built[:], charts[:]
            flags = parser.parse_args([command, fx(name)])
            entry, code = cli._process_one(command, fx(name), flags)
            want = (2 if command == "roundtrip" else 1) if structure else 0
            assert len(built) == want, (command, name, len(built))
            # a weight chart is a quotient of a stored W step
            steps = [s for V, _ in built for s in V.W.steps.values()]
            weight_charts = [S for S in charts if any(S is s for s in steps)]
            weights = sum(len(gr.hodge.weights()) for _, gr in built)
            assert len(weight_charts) == weights, (command, name)
