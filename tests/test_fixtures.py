"""The shipped fixture documents are regenerated from their source.

Every fixture built by ``hodgegauge.fixtures`` must serialize to exactly the
shipped ``fixtures/<name>.json``, so the corpus cannot drift from the code
that defines it.  ``random_0.json`` .. ``random_3.json`` are left out: they
come from no recorded seed (no ``random_mhs(random.Random(k))`` with
k < 200 reproduces any of them), so there is no source to compare with.
"""

import json
import os

import pytest

from conftest import fixture_dir
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
