"""Compare stdout, exit codes and stderr of the CLI between two source trees.

Usage: ``python3 tools/stdout_identity.py PARENT_SRC CHANGE_SRC [SEED ...]``

Each invocation runs once under each tree, as a fresh
``python -m hodgegauge.cli`` process with only that tree on PYTHONPATH, on
the same documents in the same working directory:

- the seven commands on the shipped fixtures, and ``lie --truncation N``
  for N = 2..12;
- ``rees`` with line base points on the fixtures and on all the chains
  below: a repeated point written two ways (``--point 2,3 --point 4/2,3``),
  a negative first coordinate (``--point=-1,0``) and a Gaussian point
  (``--point 1/2-3*i,-2``), one invocation each;
- every invocation of the pipeline-mix and wide-spread plans of
  ``perfbench/workloads.py``, probes included, on the corpora that
  ``perfbench/corpus.py`` builds at each SEED (default 7);
- ``split`` on every non-hostile document of the wide-spread corpus at each
  SEED, which its plan does not run: the 18-dim tensor product, the 9-dim
  ``t3 x t3`` products and the spread 8-10 structures, whose blocks are
  multi-dimensional;
- the seven commands on the one-dimension-per-weight chains at n = 16, 24
  and 32 (entries in -3..3 seeded by n), as structure and as delta
  documents, and ``holonomy --path`` with 5 rational points on the n = 24
  chain;
- the same on the Gaussian chains at n = 16 and 24 (entries a + b*i, a and
  b in -3..3 seeded by n);
- the seven commands and the ``rees`` base points on the cap chains at
  n = 16 and 24, as structure and as delta documents: entries uniform in
  +-10^100 from ``random.Random(30)``, the documents of
  ``tests/conftest.py``'s ``cap_chain_delta``;
- ``holonomy --path`` on the fixtures, on the n = 16 Gaussian chain and
  on the n = 16 cap chain delta documents, rational and Gaussian (those of
  ``cap_chain_delta(16)`` and ``cap_chain_delta(16, gaussian=True)``), once
  with the 5 rational points and once with a Gaussian vertex
  (``--path=-1,0;1/2+1*i,-1;0,-1``): segments off the axes and the
  hypotenuse, where both coefficients of a pulled-back entry, c0 + c1 s,
  are nonzero;
- ``connect``, ``holonomy`` and the two ``holonomy --path`` runs on a
  connection document with A + B != 0: the shipped ``connection_t3_2_5``
  changed by the unipotent gauge 1 + E t1 t2, E = 2 e01 - e12.  Its A and
  B blocks, computed once by ``apply_gauge``, are written out as a literal
  connection document and passed through ``documents.parse`` and
  ``serialize``, which both trees share.

Stderr is compared by whether it is empty and by its last line, which
names no path (an exception's text or argparse's error), so a lost
traceback or warning counts as a difference.  The documents are built
under the parent tree, the chains included.  The fixtures, corpora and
the gauge-changed connection are also read or built under the change
tree, and a document whose bytes differ is reported.
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

COMMANDS = ("validate", "split", "connect", "holonomy", "roundtrip", "rees", "ext")
CHAINS = (16, 24, 32)
GAUSSIAN_CHAINS = (16, 24)
CAP_CHAINS = (16, 24)
CHAIN_LIMIT_S = 300
PATH_5 = "--path=-1,0;0,-1;2,3;1/2,-1/3;1,1"
PATHS = (PATH_5, "--path=-1,0;1/2+1*i,-1;0,-1")
REES_POINTS = (["--point", "2,3", "--point", "4/2,3"], ["--point=-1,0"],
               ["--point", "1/2-3*i,-2"])

# writes chain_<n>_structure.json and chain_<n>_delta.json to the cwd, or
# gchain_<n>_... for an argument "<n>i", whose entries are Gaussian, or
# cap_chain_<n>_... for an argument "<n>c", whose entries are those of
# tests/conftest.py's cap_chain_delta(n): uniform in +-10^100 from
# random.Random(30) (cap_gchain_<n>_... for "<n>ci")
CHAIN_SCRIPT = """
import json, random, sys
from hodgegauge.documents import serialize
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import HodgeNumbers
from hodgegauge.scalars import ONE, ZERO, Scalar
from hodgegauge.splitting import DeltaObject, delta_to_mhs

for arg in sys.argv[1:]:
    n, gaussian, cap = int(arg.rstrip("ic")), "i" in arg, "c" in arg
    rng = random.Random(30 if cap else n)
    bound = 10 ** 100 if cap else 3

    def entry():
        if gaussian:
            return Scalar(rng.randint(-bound, bound), rng.randint(-bound, bound))
        return Scalar(rng.randint(-bound, bound))

    d = DeltaObject(HodgeNumbers({(-k, -k): 1 for k in range(n)}), Matrix([
        [ONE if i == j else entry() if i < j else ZERO
         for j in range(n)] for i in range(n)]))
    for kind, obj in (("structure", delta_to_mhs(d)), ("delta", d)):
        with open("%s%schain_%d_%s.json" % ("cap_" * cap, "g" * gaussian, n, kind),
                  "w") as fh:
            json.dump(serialize(obj), fh)
"""


# writes gauged_t3_2_5.json to the cwd: connection_from_delta(t3_delta(2, 5))
# under the gauge 1 + E t1 t2, E = 2 e01 - e12, so that A + B != 0; the
# blocks are apply_gauge's, written out as a literal connection document
GAUGED_SCRIPT = """
import json
from hodgegauge.documents import parse, serialize


def corner(x, y, z):
    return [["0", x, z], ["0", "0", y], ["0", "0", "0"]]


doc = {"type": "connection", "hodge": {"-2,-2": 1, "-1,-1": 1, "0,0": 1},
       "blocks": [{"p": 1, "q": 1, "A": corner("-7", "-1", "0"),
                   "B": corner("3", "3", "0")},
                  {"p": 2, "q": 2, "A": corner("0", "0", "37"),
                   "B": corner("0", "0", "-41")}]}
with open("gauged_t3_2_5.json", "w") as fh:
    json.dump(serialize(parse(doc)), fh)
"""


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


def _child(src, argv, cwd, fatal=True):
    # builds documents; a failure under the parent tree ends the comparison
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, env=_env(src),
                          capture_output=True)
    if proc.returncode and fatal:
        raise SystemExit("building documents under %s failed:\n%s"
                         % (src, proc.stderr.decode(errors="replace")))
    return None if proc.returncode else proc.stdout


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


def fixtures(cmp, work):
    dirs = [os.path.join(src, "hodgegauge", "fixtures") for src in cmp.srcs]
    names = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".json"))
    _, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
    for name in mismatch + errors:
        cmp.differ("fixture " + name, "bytes differ or missing in the change")
    cwd = os.path.join(work, "fixtures")
    shutil.copytree(dirs[0], cwd)
    for command in COMMANDS:
        cmp.invocation("%s on the fixtures" % command, [command] + names, cwd)
    for points in REES_POINTS:
        cmp.invocation("rees %s on the fixtures" % " ".join(points),
                       ["rees"] + points + names, cwd)
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
        for cwd in dirs:
            os.makedirs(cwd)
        docs = json.loads(_child(cmp.srcs[0], argv, dirs[0]))
        out = _child(cmp.srcs[1], argv, dirs[1], fatal=False)
        if out is None:
            cmp.differ(label + " corpus", "the change fails to build it")
        else:
            want, got = ({d["id"]: d["sha256"] for d in ds}
                         for ds in (docs, json.loads(out)))
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    cmp.differ("%s document %s" % (label, name),
                               "built differently by the change")
        for inv in workloads.plan(workload, docs):
            cmp.invocation("%s %s" % (label, inv.ident), inv.argv, dirs[0],
                           inv.limit_s)
        if workload == "wide-spread":
            cmp.invocation(label + " split", ["split"] + [
                d["path"] for d in docs if d["kind"] != "hostile"], dirs[0])


def chains(cmp, work):
    cwd = os.path.join(work, "chains")
    os.makedirs(cwd)
    _child(cmp.srcs[0], ["-c", CHAIN_SCRIPT] + [str(n) for n in CHAINS]
           + ["%di" % n for n in GAUSSIAN_CHAINS]
           + ["%dc" % n for n in CAP_CHAINS] + ["16ci"], cwd)
    for label, prefix, sizes in (("chains", "", CHAINS),
                                 ("Gaussian chains", "g", GAUSSIAN_CHAINS),
                                 ("cap chains", "cap_", CAP_CHAINS)):
        docs = ["%schain_%d_%s.json" % (prefix, n, kind) for n in sizes
                for kind in ("structure", "delta")]
        for command in COMMANDS:
            cmp.invocation("%s on the %s" % (command, label), [command] + docs,
                           cwd, CHAIN_LIMIT_S)
        for points in REES_POINTS:
            cmp.invocation("rees %s on the %s" % (" ".join(points), label),
                           ["rees"] + points + docs, cwd, CHAIN_LIMIT_S)
    cmp.invocation("holonomy %s on the n = 24 chain" % PATH_5,
                   ["holonomy", PATH_5, "chain_24_structure.json",
                    "chain_24_delta.json"], cwd, CHAIN_LIMIT_S)
    for path in PATHS:
        cmp.invocation("holonomy %s on the n = 16 Gaussian chain" % path,
                       ["holonomy", path, "gchain_16_structure.json",
                        "gchain_16_delta.json"], cwd, CHAIN_LIMIT_S)
        for doc in ("cap_chain_16_delta.json", "cap_gchain_16_delta.json"):
            cmp.invocation("holonomy %s on %s" % (path, doc),
                           ["holonomy", path, doc], cwd, CHAIN_LIMIT_S)
    _child(cmp.srcs[0], ["-c", GAUGED_SCRIPT], cwd)
    other = os.path.join(work, "gauged-change")
    os.makedirs(other)
    if _child(cmp.srcs[1], ["-c", GAUGED_SCRIPT], other, fatal=False) is None:
        cmp.differ("gauge-changed connection", "the change fails to build it")
    elif not filecmp.cmp(*(os.path.join(d, "gauged_t3_2_5.json") for d in (cwd, other)),
                         shallow=False):
        cmp.differ("gauge-changed connection", "built differently by the change")
    for argv in (["connect"], ["holonomy"]) + tuple(["holonomy", p] for p in PATHS):
        cmp.invocation("%s on the gauge-changed connection" % " ".join(argv),
                       argv + ["gauged_t3_2_5.json"], cwd)


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
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d invocations compared, %d differ in stdout, exit code or stderr"
          % (cmp.count, len(cmp.diffs)))
    return 1 if cmp.diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
