"""Invocation plans for each workload and the checks on their reports.

An invocation is one fresh ``hodgegauge`` process.  An item is one
(invocation, document) pair, or the invocation itself for ``lie``.  Timed
invocations run in every pass; probes (documents known to crash or hang at
the seed commit) run once per run under a time limit, outside the timed
passes, so a crash costs only its own item and a hang cannot stretch a pass.
"""

from __future__ import annotations

import hashlib
import json
import os

STATUS_CODE = {"ok": 0, "violation": 1, "malformed": 2}

PIPELINE_COMMANDS = ("validate", "split", "connect", "holonomy", "roundtrip",
                     "rees", "ext")
WIDE_COMMANDS = ("connect", "holonomy", "ext", "roundtrip")
LIE_TRUNCATIONS = (8, 9, 10, 11)

TIMED_LIMIT_S = 150.0
HOSTILE_LIMIT_S = 30.0
# the spread-14 `connect` hangs at the seed commit; a fixed limit keeps the
# probe's cost to a run constant
SPREAD14_LIMIT_S = 3.0


class Invocation:
    def __init__(self, ident, argv, docs, limit_s, probe=None):
        # probe: None for a timed invocation, else "crash" or "hang"
        self.ident = ident
        self.argv = list(argv)
        self.docs = list(docs)
        self.limit_s = limit_s
        self.probe = probe

    @property
    def command(self):
        return self.argv[0]

    def item_keys(self):
        if not self.docs:
            return [self.ident]
        return ["%s:%s" % (self.command, d["id"]) for d in self.docs]


def expected_status(command, doc):
    if doc["kind"] == "hostile":
        return doc.get("expect", "malformed")
    return "ok" if command in doc["ok"] else "violation"


def jobs():
    return min(2, os.cpu_count() or 1)


def plan(workload, docs):
    if workload == "lie-tables":
        return [
            Invocation("lie:%d" % n, ["lie", "--truncation", str(n)], [],
                       TIMED_LIMIT_S)
            for n in LIE_TRUNCATIONS
        ]
    if workload == "pipeline-mix":
        commands, extra = PIPELINE_COMMANDS, []
    else:
        commands, extra = WIDE_COMMANDS, ["--jobs", str(jobs())]
    out = []
    for command in commands:
        batch = [
            d for d in docs
            if d["kind"] != "hostile" and command not in d.get("skip", ())
        ]
        out.append(Invocation(
            command, [command] + extra + [d["path"] for d in batch], batch,
            TIMED_LIMIT_S,
        ))
    for d in docs:
        if d["kind"] == "hostile":
            hang = d.get("expect") == "ok"
            out.append(Invocation(
                "%s:%s" % (d["command"], d["id"]), [d["command"], d["path"]],
                [d], SPREAD14_LIMIT_S if hang else HOSTILE_LIMIT_S,
                probe="hang" if hang else "crash",
            ))
    return out


def entry_digest(entry):
    return hashlib.sha256(
        json.dumps(entry, sort_keys=True, indent=2).encode()
    ).hexdigest()


def check(inv, result, reference):
    """Failed item keys of one finished invocation, each with its reason.

    ``result`` has ``stdout`` (bytes), ``code`` and ``timed_out``;
    ``reference`` maps item keys and invocation ids to recorded sha256
    digests (empty where nothing was recorded).
    """
    keys = inv.item_keys()
    if result["timed_out"]:
        return {k: "time limit %.0f s" % inv.limit_s for k in keys}
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return {k: "no JSON report (exit %d)" % result["code"] for k in keys}
    if not inv.docs:
        return _check_lie(inv, report, result, reference)
    failed = {}
    entries = {e.get("path"): e for e in report.get("inputs", [])}
    want_code = 0
    for key, doc in zip(keys, inv.docs):
        want = expected_status(inv.command, doc)
        want_code = max(want_code, STATUS_CODE[want])
        entry = entries.get(doc["path"])
        why = None
        if entry is None:
            why = "missing from report"
        elif entry.get("status") != want:
            why = "status %s, want %s" % (entry.get("status"), want)
        elif entry.get("sha256") != doc["sha256"]:
            why = "input digest differs"
        elif any(not c["pass"] for c in entry.get("checks", ())):
            why = "a check failed"
        elif inv.command == "split" and "delta" in doc and \
                entry["result"]["delta"] != doc["delta"]:
            why = "split delta differs from the generating delta"
        elif key in reference and entry_digest(entry) != reference[key]:
            why = "report entry differs from the reference digest"
        if why:
            failed[key] = why
    if result["code"] != want_code:
        for key in keys:
            failed.setdefault(key, "exit %d, want %d" % (result["code"], want_code))
    stdout_digest = hashlib.sha256(result["stdout"]).hexdigest()
    if inv.ident in reference and stdout_digest != reference[inv.ident]:
        for key in keys:
            failed.setdefault(key, "stdout differs from the reference digest")
    return failed


def _check_lie(inv, report, result, reference):
    key = inv.ident
    n = int(inv.argv[-1])
    res = report.get("result", {})
    ncomp = n * (n - 1) // 2
    if result["code"] != 0:
        return {key: "exit %d" % result["code"]}
    if res.get("truncation") != n or len(res.get("z_in_alpha", ())) != ncomp \
            or len(res.get("alpha_in_z", ())) != ncomp:
        return {key: "incomplete tables"}
    digest = hashlib.sha256(result["stdout"]).hexdigest()
    if key in reference and digest != reference[key]:
        return {key: "stdout differs from the reference digest"}
    return {}
