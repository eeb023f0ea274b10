"""Seeded documents that the tests and tools build instead of shipping.

``PYTHONPATH=SRC python3 tools/gendocs.py ARG ...`` imports ``hodgegauge``
from the tree SRC and writes each document to the working directory,
printing its file name.  ARG ``<n>[c][i|u][d]`` writes
``[cap_][g|u]chain_<n>_structure.json`` and ``..._delta.json``: the chain
``[cap_]chain_delta(n)``, Gaussian (i) or over unrelated denominators (u),
and its ``delta_to_mhs`` model, or with ``d`` the delta only.  The
Gaussian caps have no structure document at n >= 24, nor the ``cu`` caps
at n >= 6: ``serialize`` raises ``OversizeResult`` on their models, which
take minutes to build at 16cu.  ARG ``gauged`` writes
``gauged_t3_2_5.json``.
"""

import json
import random
import sys
from fractions import Fraction

from hodgegauge.documents import parse, serialize
from hodgegauge.linalg import Matrix
from hodgegauge.mhs import HodgeNumbers
from hodgegauge.scalars import ONE, ZERO, Scalar
from hodgegauge.splitting import DeltaObject, delta_to_mhs


def _chain(n, part, over, gaussian, unrelated):
    # one dimension per weight, (-k, -k) for k < n, so that delta has an
    # entry at every drop of weight; the entries above the diagonal are
    # drawn row by row, a real part before its imaginary part, and
    # over(part, k) sets an unrelated part over its denominator
    def entry():
        if unrelated:
            return Scalar(over(part(), 3), over(part(), 5))
        return Scalar(part(), part()) if gaussian else Scalar(part())

    return DeltaObject(HodgeNumbers({(-k, -k): 1 for k in range(n)}), Matrix([
        [ONE if i == j else entry() if i < j else ZERO for j in range(n)]
        for i in range(n)
    ]))


def chain_delta(n, gaussian=False, unrelated=False):
    """The chain with entries a, a + b*i (gaussian) or a/3 + b/5*i
    (unrelated), a and b in -3..3 from ``random.Random(n)``."""
    rng = random.Random(n)
    return _chain(n, lambda: rng.randint(-3, 3), Fraction, gaussian, unrelated)


def cap_chain_delta(n, gaussian=False, unrelated=False):
    """The chain at the cap in bits, whatever n: parts uniform in
    +-10^100 from ``random.Random(30)``; with unrelated, each part over its
    own denominator, drawn after it, uniform among the 100-digit ints."""
    rng = random.Random(30)

    def over(part, _):
        return Fraction(part, rng.randint(10 ** 99, 10 ** 100 - 1))

    return _chain(n, lambda: rng.randint(-10 ** 100, 10 ** 100), over,
                  gaussian, unrelated)


def gauged_connection():
    """``connection_from_delta(t3_delta(2, 5))`` under the unipotent gauge
    1 + E t1 t2, E = 2 e01 - e12, so that A + B != 0: the blocks of
    ``apply_gauge``, written out as a literal connection document."""
    def corner(x, y, z):
        return [["0", x, z], ["0", "0", y], ["0", "0", "0"]]

    return parse({
        "type": "connection", "hodge": {"-2,-2": 1, "-1,-1": 1, "0,0": 1},
        "blocks": [{"p": 1, "q": 1, "A": corner("-7", "-1", "0"),
                    "B": corner("3", "3", "0")},
                   {"p": 2, "q": 2, "A": corner("0", "0", "37"),
                    "B": corner("0", "0", "-41")}]})


def _write(name, obj):
    data = json.dumps(serialize(obj)).encode()
    with open(name, "wb") as fh:
        fh.write(data)
    print(name)


def main(args):
    for arg in args:
        if arg == "gauged":
            _write("gauged_t3_2_5.json", gauged_connection())
            continue
        n, cap, gaussian, unrelated = (int(arg.rstrip("ciud")), "c" in arg,
                                       "i" in arg, "u" in arg)
        d = (cap_chain_delta if cap else chain_delta)(n, gaussian, unrelated)
        stem = "%s%s%schain_%d_" % ("cap_" * cap, "g" * gaussian, "u" * unrelated, n)
        if not arg.endswith("d"):
            _write(stem + "structure.json", delta_to_mhs(d))
        _write(stem + "delta.json", d)


if __name__ == "__main__":
    main(sys.argv[1:])
