"""The shipped fixture documents are regenerated from their source.

Every fixture built by ``hodgegauge.fixtures`` must serialize to exactly the
shipped ``fixtures/<name>.json``, so the corpus cannot drift from the code
that defines it.  ``random_0.json`` .. ``random_3.json`` are left out: they
come from no recorded seed (no ``random_mhs(random.Random(k))`` with
k < 200 reproduces any of them), so there is no source to compare with.
"""

import hashlib
import json
import os

import pytest

from conftest import fixture_dir
import gendocs
from hodgegauge.connection import connection_from_delta
from hodgegauge.documents import serialize
from hodgegauge.fixtures import kummer_delta, named_corpus, real_corpus, t3_delta
from hodgegauge.scalars import Scalar

UNSOURCED = {"random_0", "random_1", "random_2", "random_3"}


def sourced():
    return named_corpus() + real_corpus() + [
        ("delta_t3_2_5", t3_delta(2, 5)),
        ("delta_kummer_2_plus_i", kummer_delta(Scalar(2, 1))),
        ("connection_t3_2_5", connection_from_delta(t3_delta(2, 5))),
    ]


@pytest.mark.parametrize("name, obj", sourced(), ids=[name for name, _ in sourced()])
def test_shipped_fixture_matches_its_source(name, obj):
    with open(os.path.join(fixture_dir(), name + ".json")) as fh:
        shipped = json.load(fh)
    assert serialize(obj) == shipped


def test_every_shipped_fixture_has_a_source():
    shipped = {f[: -len(".json")] for f in os.listdir(fixture_dir()) if f.endswith(".json")}
    names = [name for name, _ in sourced()]
    assert len(names) == len(set(names)) == 23
    assert shipped == set(names) | UNSOURCED


# the sha256 of each document that gendocs writes below; the Gaussian caps'
# models take 2 s (16ci) or are oversize (16cu), so their deltas stand alone
DIGESTS = {
    "chain_16_structure.json": "250ec0d2bc1981fa6e6736ddb90086f58a6b843b522ace11239b0726a3b6b296",
    "chain_16_delta.json": "03a0528ba9e9441fa2b468c917849dc26ce5e8cefe0e5ff2377972935f182d3c",
    "gchain_16_structure.json": "cfa782b86d759ed98e26adb33761293233b085e451a81c5895cd16063884a6d9",
    "gchain_16_delta.json": "0905d57e19ceca504525befeeedc3c3f6f14d5ba48f12428c84a7bb6936c62f9",
    "uchain_16_structure.json": "4b2b67908a5472e359a8a7550fc84b4d733b7f36c083ef18f85139cddae36bd5",
    "uchain_16_delta.json": "e7ef2fbca4bd3335b16b270707eb3cbf732f30a4c3f9d896afa30dcf29fbaea3",
    "cap_chain_16_structure.json": "809b685b62f733834545d6343961252e2f64abeecac87158f6fe6a7b82a0578c",
    "cap_chain_16_delta.json": "6eecd4f78711fcabb1eda7fda1876182f2eb3c2d738bceb347fff52308e43434",
    "cap_gchain_16_delta.json": "27c7f267297cd924da145f854600e78ed0d9eeecd8085b3dba25683a8cc25a3a",
    "cap_uchain_16_delta.json": "45035e71ab4d7b3a4b6b728a5740f15161eda495482541d30d7d1fbb15929fe0",
    "gauged_t3_2_5.json": "ad2111add59df43d5f7a42fea4c2cc737ad5ee4274c7defb3bbf42a08ffc412f",
}


def test_generated_documents_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gendocs.main(["16", "16i", "16u", "16c", "16cid", "16cud", "gauged"])
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == DIGESTS
