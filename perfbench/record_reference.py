"""Record the reference stdout digests the benchmark checks against.

Usage (from the root of a checkout): ``python3 perfbench/record_reference.py 0 10``
records seeds 0..10 of every workload into perfbench/reference/.

Run it only on a commit whose output is the one to pin: every later run
fails an item whose report differs.  Items that fail any other check are not
recorded, so a crash at recording time is never pinned as the answer.
Documents that do not depend on the seed (the shipped fixtures, the fixed
tensor product, the ``lie`` tables) go under ``fixed``, one digest per item
and per invocation; a seeded invocation's stdout digest goes under its seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads

SEED_KINDS = ("random", "corrupt")


def _put(table, key, digest):
    if table.setdefault(key, digest) != digest:
        raise SystemExit("%s: output differs between runs" % key)


def record(workload, seeds):
    fixed, by_seed = {}, {}
    for seed in seeds:
        workdir, plan = run.prepare(workload, seed)
        timed = [inv for inv in plan if not inv.probe]
        with run.calibrate.Sampler(run.CPUS[:1]) as sampler:
            results, _ = run.run_pass(timed, workdir, 0, sampler)
        mine = by_seed.setdefault(str(seed), {})
        for inv, res in zip(timed, results):
            if workloads.check(inv, res, {}):
                continue
            digest = hashlib.sha256(res["stdout"]).hexdigest()
            seeded = any(d["kind"] in SEED_KINDS for d in inv.docs)
            _put(mine if seeded else fixed, inv.ident, digest)
            entries = {e["path"]: e for e in
                       json.loads(res["stdout"]).get("inputs", [])}
            for key, doc in zip(inv.item_keys(), inv.docs):
                if doc["kind"] not in SEED_KINDS:
                    _put(fixed, key, workloads.entry_digest(entries[doc["path"]]))
        if not any(d["kind"] in SEED_KINDS for inv in timed for d in inv.docs):
            break
    path = os.path.join(run.HERE, "reference", workload + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fixed": fixed,
                   "seeds": {s: d for s, d in by_seed.items() if d}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    lo, hi = (int(x) for x in argv)
    for workload in run.WORKLOADS:
        record(workload, range(lo, hi + 1))
        print("recorded", workload, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
