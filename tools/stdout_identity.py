"""Compare stdout, exit codes and stderr of the CLI between two source trees.

Usage: ``python3 tools/stdout_identity.py PARENT_SRC CHANGE_SRC [SEED ...]``

Each invocation runs once under each tree, as a fresh
``python -m hodgegauge.cli`` process with only that tree on PYTHONPATH, on
the same documents in the same working directory:

- the seven commands, and ``rees`` at each set of line base points (a
  repeated point written two ways, ``--point 2,3 --point 4/2,3``, a
  negative first coordinate, ``--point=-1,0``, and a Gaussian point,
  ``--point 1/2-3*i,-2``), on the shipped fixtures and on each of
  ``CHAIN_SETS``, the chains that ``tools/gendocs.py`` writes;
- ``lie --truncation N`` for N = 2..12;
- every invocation of the pipeline-mix and wide-spread plans of
  ``perfbench/workloads.py``, probes included, on the corpora that
  ``perfbench/corpus.py`` builds at each SEED (default 7);
- ``split`` on every non-hostile document of the wide-spread corpus at each
  SEED, which its plan does not run: the 18-dim tensor product, the 9-dim
  ``t3 x t3`` products and the spread 8-10 structures, whose blocks are
  multi-dimensional;
- ``holonomy --path`` with 5 rational points and with a Gaussian vertex
  (``--path=-1,0;1/2+1*i,-1;0,-1``) on the fixtures, the n = 16 Gaussian
  chain and the n = 16 cap chain deltas, rational and Gaussian, and with
  the 5 points on the n = 24 chain: segments off the axes and the
  hypotenuse, where both coefficients of a pulled-back entry, c0 + c1 s,
  are nonzero;
- ``connect``, ``holonomy`` and both paths on the generator's
  gauge-changed ``connection_t3_2_5``, whose A + B != 0;
- the seven commands on each of ``SHAPE_FAULTS`` written into the shipped
  ``delta_t3_2_5`` matrix and into the A and into the B of the first block
  of ``connection_t3_2_5`` (n = 3), one fault a document: the error path
  of a misshaped matrix.

Stderr is compared by whether it is empty and by its last line, which
names no path (an exception's text or argparse's error), so a lost
traceback or warning counts as a difference.  The invocations read the
documents built under the parent tree; every document is also read or
built under the change tree, and one whose bytes differ is reported.
Prints one line per difference and a summary; exits 1 when anything
differs, else 0.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

GENDOCS = os.path.join(ROOT, "tools", "gendocs.py")
COMMANDS = ("validate", "split", "connect", "holonomy", "roundtrip", "rees", "ext")
# the gendocs arguments of each set: 16u's parts have unrelated
# denominators, so printing reduces each part over its own; 16cu's model
# is oversize, and 5cu is the largest such cap with a structure document
CHAIN_SETS = (("chains", "16 24 32"), ("Gaussian chains", "16i 24i"),
              ("a/3 + b/5*i chain", "16u"), ("cap chains", "16c 24c"),
              ("caps over unrelated denominators", "5cu 16cud"))
CHAIN_LIMIT_S = 300
PATH_5 = "--path=-1,0;0,-1;2,3;1/2,-1/3;1,1"
PATHS = (PATH_5, "--path=-1,0;1/2+1*i,-1;0,-1")
REES_POINTS = (["--point", "2,3", "--point", "4/2,3"], ["--point=-1,0"],
               ["--point", "1/2-3*i,-2"])
# each fault as the widths of the rows that replace an n = 3 matrix
SHAPE_FAULTS = (("ragged", (4, 3, 3)), ("1x4", (4,)), ("3x4", (4, 4, 4)),
                ("4x3", (3, 3, 3, 3)), ("2x2", (2, 2)))
SHAPED = (("delta_t3_2_5", ["matrix"]), ("connection_t3_2_5", ["blocks", 0, "A"]),
          ("connection_t3_2_5", ["blocks", 0, "B"]))


def _env(src):
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def _run(src, argv, cwd, limit):
    try:
        proc = subprocess.run([sys.executable, "-m", "hodgegauge.cli"] + argv,
                              cwd=cwd, env=_env(src), capture_output=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return "timeout after %.0f s" % limit, b"", "not read"
    err = proc.stderr.splitlines()
    return ("exit %d" % proc.returncode, proc.stdout,
            "ends %r" % err[-1].decode(errors="replace") if err else "empty")


class Comparison:
    def __init__(self, parent, change):
        self.srcs = (parent, change)
        self.count = 0
        self.diffs = []

    def differ(self, label, why):
        self.diffs.append(label)
        print("DIFF %s: %s" % (label, why), flush=True)

    def invocation(self, label, argv, cwd, limit=workloads.TIMED_LIMIT_S):
        self.count += 1
        (code_a, out_a, err_a), (code_b, out_b, err_b) = (
            _run(src, argv, cwd, limit) for src in self.srcs)
        why = []
        if code_a != code_b:
            why.append("%s -> %s" % (code_a, code_b))
        elif out_a != out_b:
            lines = zip(out_a.splitlines(), out_b.splitlines())
            k = next((k for k, (a, b) in enumerate(lines) if a != b),
                     min(out_a.count(b"\n"), out_b.count(b"\n")))
            why.append("stdout differs from line %d" % (k + 1))
        if err_a != err_b:
            why.append("stderr %s -> %s" % (err_a, err_b))
        if why:
            self.differ(label, "; ".join(why))


def _same_bytes(cmp, dirs, names, what):
    _, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
    for name in mismatch + errors:
        cmp.differ("%s %s" % (what, name), "bytes differ or missing in the change")


def _build(cmp, argv, dirs, label, names):
    # runs a document builder under each tree, each in its own directory,
    # and returns its stdout under the parent, names(stdout) the documents.
    # A failure under the parent ends the comparison; a document that the
    # change fails to build, or builds differently, is reported
    procs = []
    for src, cwd in zip(cmp.srcs, dirs):
        os.makedirs(cwd, exist_ok=True)
        procs.append(subprocess.run([sys.executable] + argv, cwd=cwd,
                                    env=_env(src), capture_output=True))
    if procs[0].returncode:
        raise SystemExit("building documents under %s failed:\n%s" % (
            cmp.srcs[0], procs[0].stderr.decode(errors="replace")))
    out = procs[0].stdout.decode()
    if procs[1].returncode:
        cmp.differ(label, "the change fails to build it")
    else:
        _same_bytes(cmp, dirs, names(out), label)
    return out


def _commands(cmp, label, docs, cwd, limit=workloads.TIMED_LIMIT_S):
    for argv in [[c] for c in COMMANDS] + [["rees"] + p for p in REES_POINTS]:
        cmp.invocation("%s on the %s" % (" ".join(argv), label), argv + docs,
                       cwd, limit)


def fixtures(cmp, work):
    dirs = [os.path.join(src, "hodgegauge", "fixtures") for src in cmp.srcs]
    names = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".json"))
    _same_bytes(cmp, dirs, names, "fixture")
    cwd = os.path.join(work, "fixtures")
    shutil.copytree(dirs[0], cwd)
    _commands(cmp, "fixtures", names, cwd)
    for path in PATHS:
        cmp.invocation("holonomy %s on the fixtures" % path,
                       ["holonomy", path] + names, cwd)
    for n in range(2, 13):
        cmp.invocation("lie --truncation %d" % n, ["lie", "--truncation", str(n)],
                       cwd)


def corpora(cmp, work, seed):
    for workload in ("pipeline-mix", "wide-spread"):
        label = "%s seed %d" % (workload, seed)
        argv = [os.path.join(ROOT, "perfbench", "corpus.py"), workload, str(seed)]
        dirs = [os.path.join(work, side, label.replace(" ", "-"))
                for side in ("parent", "change")]
        docs = json.loads(_build(cmp, argv, dirs, label + " corpus",
                                 lambda out: [d["path"] for d in json.loads(out)]))
        for inv in workloads.plan(workload, docs):
            cmp.invocation("%s %s" % (label, inv.ident), inv.argv, dirs[0],
                           inv.limit_s)
        if workload == "wide-spread":
            cmp.invocation(label + " split", ["split"] + [
                d["path"] for d in docs if d["kind"] != "hostile"], dirs[0])


def chains(cmp, work):
    dirs = [os.path.join(work, side, "chains") for side in ("parent", "change")]
    cwd = dirs[0]
    for label, args in CHAIN_SETS:
        docs = _build(cmp, [GENDOCS] + args.split(), dirs, label, str.split)
        _commands(cmp, label, docs.split(), cwd, CHAIN_LIMIT_S)
    _build(cmp, [GENDOCS, "16cid", "gauged"], dirs, "path documents", str.split)
    for path, docs in [(PATH_5, "chain_24_structure.json chain_24_delta.json")] + [
            (path, docs) for path in PATHS for docs in (
                "gchain_16_structure.json gchain_16_delta.json",
                "cap_chain_16_delta.json", "cap_gchain_16_delta.json")]:
        cmp.invocation("holonomy %s on %s" % (path, docs),
                       ["holonomy", path] + docs.split(), cwd, CHAIN_LIMIT_S)
    for argv in (["connect"], ["holonomy"]) + tuple(["holonomy", p] for p in PATHS):
        cmp.invocation("%s on the gauge-changed connection" % " ".join(argv),
                       argv + ["gauged_t3_2_5.json"], cwd)


def shape_faults(cmp, work):
    cwd = os.path.join(work, "shape-faults")
    os.makedirs(cwd)
    for fixture, path in SHAPED:
        for fault, widths in SHAPE_FAULTS:
            with open(os.path.join(cmp.srcs[0], "hodgegauge", "fixtures",
                                   fixture + ".json")) as fh:
                doc = json.load(fh)
            matrix = doc
            for key in path[:-1]:
                matrix = matrix[key]
            matrix[path[-1]] = [["1/1"] * width for width in widths]
            name = "%s_%s_%s.json" % (fixture, path[-1], fault)
            with open(os.path.join(cwd, name), "w") as fh:
                json.dump(doc, fh)
            for command in COMMANDS:
                cmp.invocation("%s on %s" % (command, name), [command, name], cwd)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cmp = Comparison(argv[0], argv[1])
    seeds = [int(s) for s in argv[2:]] or [7]
    work = tempfile.mkdtemp(prefix="stdout-identity-")
    try:
        fixtures(cmp, work)
        for seed in seeds:
            corpora(cmp, work, seed)
        chains(cmp, work)
        shape_faults(cmp, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d invocations compared, %d differ in stdout, exit code or stderr"
          % (cmp.count, len(cmp.diffs)))
    return 1 if cmp.diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
