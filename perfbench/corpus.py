"""Seeded document corpus for the benchmark workloads.

Every document is built from the library's public constructors and written
with ``serialize`` under a stable relative path (the CLI embeds the input
path in its report, so paths must not depend on where the checkout lives).
The manifest records each document's sha256 and its known answer.

Random structures draw their Hodge numbers, the positions and kinds
(rational or Gaussian) of their nonzero comparison entries, and their
corruptions from a fixed stream; only the nonzero entry values come from the
seed.  The seed therefore changes the numbers the kernels see but not the
work they do, which keeps the cost of a pass close to the same from seed to
seed.

Usage: ``python3 corpus.py WORKLOAD SEED``, in the directory to fill, with
the checkout's ``src`` on ``PYTHONPATH``; run.py does so in a child process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
from fractions import Fraction

from hodgegauge import fixtures
from hodgegauge.documents import serialize
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import tensor_mhs
from hodgegauge.scalars import ONE, ZERO, Scalar
from hodgegauge.splitting import DeltaObject, delta_to_mhs

FIXTURE_DIR = os.path.join(os.path.dirname(fixtures.__file__), "fixtures")

# The shipped fixtures whose document type is not a structure: on them the
# structure-only commands report "violation", the others "ok".
DELTA_OK = {"connect", "holonomy", "rees"}
CONNECTION_OK = {"connect", "holonomy"}

PIPELINE_RANDOM = 24
PIPELINE_CORRUPT_EVERY = 8
WIDE_T3T3 = 2
WIDE_RANDOM = 3

# identity delta of weight spread 14: `connect` builds the N = 14 tables
SPREAD14_DELTA = {
    "type": "delta",
    "hodge": {"-7,-7": 1, "0,0": 1},
    "matrix": [["1", "0"], ["0", "1"]],
}


def _scalar(rng, gaussian):
    re = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    return Scalar(re, rng.choice((-2, -1, 1, 2)) if gaussian else 0)


def _shape(pattern_rng, weight_lo, weight_hi, max_dim, spreads):
    while True:
        hodge = fixtures.random_delta(
            pattern_rng, max_dim, weight_lo, weight_hi, gaussian=False
        ).hodge
        ws = hodge.weights()
        if ws[-1] - ws[0] in spreads:
            return hodge


def _fill(hodge, pattern_rng, value_rng):
    """A comparison matrix for ``hodge``: which entries are nonzero, and
    which are Gaussian, comes from ``pattern_rng``; their values from
    ``value_rng``.  The densities are those of ``fixtures.random_delta``."""
    owner = []
    for pq, _, h in hodge.blocks():
        owner.extend([pq] * h)
    n = len(owner)
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            (pa, qa), (pb, qb) = owner[a], owner[b]
            if a == b:
                row.append(ONE)
            elif pa < pb and qa < qb and pattern_rng.random() < 0.7:
                row.append(_scalar(value_rng, pattern_rng.random() < 0.4))
            else:
                row.append(ZERO)
        rows.append(row)
    return DeltaObject(hodge, Matrix(rows))


def _rows(m):
    return [[str(x) for x in row] for row in m.rows]


class Corpus:
    """Writes documents below ``root`` and keeps their manifest entries."""

    def __init__(self, root):
        self.root = root
        self.docs = []
        shutil.rmtree(os.path.join(root, "docs"), ignore_errors=True)
        os.makedirs(os.path.join(root, "docs"))

    def add(self, name, doc, kind, ok_commands, **extra):
        data = json.dumps(doc, sort_keys=True, indent=1).encode()
        self.add_bytes(name, data, kind, ok_commands, **extra)

    def add_bytes(self, name, data, kind, ok_commands, **extra):
        path = "docs/%s.json" % name
        with open(os.path.join(self.root, path), "wb") as fh:
            fh.write(data)
        entry = {
            "id": name,
            "path": path,
            "kind": kind,
            "sha256": hashlib.sha256(data).hexdigest(),
            "ok": sorted(ok_commands),
        }
        entry.update(extra)
        self.docs.append(entry)

    def write_manifest(self, seed):
        with open(os.path.join(self.root, "manifest.json"), "w") as fh:
            json.dump({"seed": seed, "docs": self.docs}, fh, indent=1)


ALL = {"validate", "split", "connect", "holonomy", "roundtrip", "rees", "ext"}


def _fixture_docs(corpus):
    for fname in sorted(os.listdir(FIXTURE_DIR)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(FIXTURE_DIR, fname), "rb") as fh:
            data = fh.read()
        kind = json.loads(data)["type"]
        ok = {"delta": DELTA_OK, "connection": CONNECTION_OK}.get(kind, ALL)
        name = "fx_" + fname[: -len(".json")]
        if kind == "connection":
            # `rees` on a connection document crashes at the seed commit; it
            # runs as its own hostile item instead of inside the batch
            corpus.add_bytes(name, data, "fixture", ok, skip=["rees"])
            corpus.add_bytes(
                "hostile_rees_connection", data, "hostile", (),
                command="rees",
            )
        else:
            corpus.add_bytes(name, data, "fixture", ok)


def _random_structures(corpus, seed, prefix, count, weights, max_dim, spreads,
                       corrupt_every=None):
    # everything but the entry values comes from a stream fixed per workload
    pattern_rng = random.Random("%s-pattern" % prefix)
    for i in range(count):
        hodge = _shape(pattern_rng, weights[0], weights[1], max_dim, spreads)
        dobj = _fill(hodge, pattern_rng,
                     random.Random("%s-%d-%d" % (prefix, seed, i)))
        V = delta_to_mhs(dobj)
        name = "%s_%02d" % (prefix, i)
        if corrupt_every and i % corrupt_every == corrupt_every - 1:
            V = fixtures.corrupt_weight_step(V, pattern_rng)
            corpus.add(name, serialize(V), "corrupt", ())
        else:
            corpus.add(name, serialize(V), "random", ALL, delta=_rows(dobj.delta))


def _hostile_structure_docs(corpus):
    base = serialize(fixtures.kummer(1))
    div0 = json.loads(json.dumps(base))
    div0["Fpp"]["steps"]["0"][0][1] = "1/0"
    corpus.add("hostile_div0", div0, "hostile", (), command="validate")
    empty = json.loads(json.dumps(base))
    empty["Fp"]["steps"] = {}
    corpus.add("hostile_empty_filtration", empty, "hostile", (),
               command="validate")


def build_pipeline_mix(root, seed):
    corpus = Corpus(root)
    _fixture_docs(corpus)
    _random_structures(
        corpus, seed, "mix", PIPELINE_RANDOM, (-4, 4), 8, range(0, 9),
        corrupt_every=PIPELINE_CORRUPT_EVERY,
    )
    _hostile_structure_docs(corpus)
    corpus.write_manifest(seed)
    return corpus.docs


def build_wide_spread(root, seed):
    corpus = Corpus(root)
    big = tensor_mhs(tensor_mhs(fixtures.t3(1, 2), fixtures.t3(3, 4)),
                     fixtures.kummer(5))
    # about 6 s per command, so only `connect` runs it: that is the
    # substitution-bound connection this workload is for
    corpus.add("t3_1_2_x_t3_3_4_x_kummer_5", serialize(big), "fixed", ALL,
               skip=["holonomy", "roundtrip", "ext"])
    rng = random.Random("t3t3-%d" % seed)
    for i in range(WIDE_T3T3):
        a, b, c, d = (rng.choice((1, 2, 3, -1, Fraction(1, 2))) for _ in range(4))
        V = tensor_mhs(fixtures.t3(a, b), fixtures.t3(c, d))
        corpus.add("t3t3_%d" % i, serialize(V), "random", ALL)
    _random_structures(corpus, seed, "wide", WIDE_RANDOM, (-5, 5), 5,
                       range(8, 11))
    corpus.add("hostile_spread14", SPREAD14_DELTA, "hostile", (),
               command="connect", expect="ok")
    corpus.write_manifest(seed)
    return corpus.docs


GENERATORS = {
    "pipeline-mix": build_pipeline_mix,
    "wide-spread": build_wide_spread,
    "lie-tables": lambda root, seed: Corpus(root).docs,
}


def main(argv):
    """Build one workload's corpus in the current directory and print its
    manifest entries as JSON."""
    workload, seed = argv
    json.dump(GENERATORS[workload](os.getcwd(), int(seed)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
