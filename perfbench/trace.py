"""Traced run of one ``hodgegauge`` CLI invocation, in this fresh interpreter.

Usage: ``python3 perfbench/trace.py --out SPANS.json -- <cli arguments>``

Wraps the public functions of each ``hodgegauge`` module, then runs
``hodgegauge.cli.main`` on the given arguments exactly as the installed
command would, so its stdout is the CLI's report.  Wrappers exist only in
this process; the untraced runs never load this file.

Layer functions are recorded as spans (name, start, end, parent span,
document id), kept in memory and written to ``--out`` at exit.  The hot
kernel methods (``Matrix`` products and eliminations, ``Scalar.parse``,
``LiePolynomial.substitute``, ``PolyMatrix`` products) are too frequent to
record one by one; for them only counts and self time are kept, with the
same stack accounting, so every recorded span's self time still excludes
them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback

from hodgegauge import (cli, connection, documents, freelie, hodgecoh,
                        holonomy, linalg, mhs, poly, rees, scalars, splitting)

# exceptions the CLI maps to a status; anything else escaping a layer is an
# error of that layer
DOCUMENTED = (cli.Violation, mhs.OpposednessViolation, scalars.FieldError,
              documents.DocumentError)

SPANS = [
    (cli, "main"), (cli, "_process_one"), (cli, "_lie_report"),
    (documents, "parse"), (documents, "serialize"),
    (mhs, "validate_mhs"), (mhs, "realize_real"),
    (splitting, "delta_operator"), (splitting, "log_delta_components"),
    (splitting, "delta_to_mhs"),
    (connection, "connection_from_delta"), (connection, "connection_form"),
    (connection, "curvature"),
    (holonomy, "triangle_delta"), (holonomy, "holonomy_path"),
    (holonomy, "convention_selftest"),
    (rees, "rees_patching"), (rees, "restrict_to_line"),
    (rees, "splitting_type"),
    (hodgecoh, "absolute_cohomology"), (hodgecoh, "real_absolute_cohomology"),
    (hodgecoh, "invariant_complex"),
    (freelie, "universal_log_pexp"), (freelie, "invert_generator_change"),
    (freelie, "generator_change_table"),
]

COUNTED = [
    (linalg.Matrix, "__matmul__", "linalg.matmul"),
    (linalg.Matrix, "rref", "linalg.rref"),
    (linalg.Matrix, "inverse", "linalg.inverse"),
    (linalg.Matrix, "det", "linalg.det"),
    (scalars.Scalar, "parse", "scalars.parse"),
    (freelie.LiePolynomial, "substitute", "freelie.substitute"),
    (poly.PolyMatrix, "__matmul__", "poly.matmul"),
    (poly.PolyMatrix, "integrate", "poly.integrate"),
]

RECOMPUTED = ("mhs.validate_mhs", "splitting.delta_operator",
              "connection.connection_from_delta")


def _bits(x):
    return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
               x.im.numerator.bit_length(), x.im.denominator.bit_length())


def _matrix_bits(m):
    return max((_bits(x) for row in m.rows for x in row), default=0)


def _spread(hodge):
    ws = hodge.weights()
    return ws[-1] - ws[0] if ws else 0


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, doc]
        self.stats = {}        # name -> [calls, inclusive s, self s]
        self.errors = {}       # layer -> count
        self.max_bits = 0
        self.doc = None
        self._frames = []      # [start, child time, span index or None]
        self._active = {}
        self._raised = []
        self._spreads = set()

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name, fn, record):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = self._enter(name, args)
            index = None
            if record:
                parent = next((f[2] for f in reversed(self._frames)
                               if f[2] is not None), None)
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.doc])
            frame = [0.0, 0.0, index]
            self._frames.append(frame)
            self._active[name] = self._active.get(name, 0) + 1
            frame[0] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not isinstance(exc, DOCUMENTED) and \
                        not any(e is exc for e in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                self._frames.pop()
                self._active[name] -= 1
                dur = end - start
                stat = self._stat(name)
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not self._active[name]:
                    stat[1] += dur
                    if extra:
                        self._stat(extra)[1] += dur
                if self._frames:
                    self._frames[-1][1] += dur
                if index is not None:
                    self.spans[index][1:3] = [start, end]
            self._leave(name, result)
            return result

        return wrapper

    def _enter(self, name, args):
        """Per-call bookkeeping; returns an extra stat name to charge."""
        if name == "cli._process_one":
            self.doc = args[1]
        elif name == "connection.connection_from_delta":
            spread = _spread(args[0].hodge)
            cold = spread not in self._spreads
            self._spreads.add(spread)
            return "connection.from_delta_%s" % ("cold" if cold else "warm")
        elif name in ("freelie.universal_log_pexp",
                      "freelie.invert_generator_change"):
            return "%s.n%d" % (name, args[0])
        return None

    def _leave(self, name, result):
        if name == "splitting.delta_operator":
            self.max_bits = max(self.max_bits, _matrix_bits(result.delta))
        elif name == "connection.connection_from_delta":
            for m in list(result.A.values()) + list(result.B.values()):
                self.max_bits = max(self.max_bits, _matrix_bits(m))

    def install(self):
        loaded = [m for n, m in sys.modules.items()
                  if n == "hodgegauge" or n.startswith("hodgegauge.")]
        for module, attr in SPANS:
            orig = getattr(module, attr)
            name = "%s.%s" % (module.__name__.split(".")[-1], attr)
            wrapped = self.wrap(name, orig, record=True)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for command, handler in list(cli._HANDLERS.items()):
            cli._HANDLERS[command] = self.wrap("cli." + command, handler, True)
        for cls, attr, name in COUNTED:
            orig = cls.__dict__[attr]
            fn = orig.__func__ if isinstance(orig, classmethod) else orig
            wrapped = self.wrap(name, fn, record=False)
            setattr(cls, attr,
                    classmethod(wrapped) if isinstance(orig, classmethod)
                    else wrapped)

    def ext_recomputed_s(self):
        """Time in validate/delta/connection spans directly under an `ext`
        handler span: the work ``ext`` repeats from earlier stages."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in RECOMPUTED:
                continue
            while parent is not None and self.spans[parent][0] not in RECOMPUTED \
                    and self.spans[parent][0] != "cli.ext":
                parent = self.spans[parent][3]
            if parent is not None and self.spans[parent][0] == "cli.ext":
                total += end - start
        return total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "stats": self.stats,
                "errors": self.errors,
                "max_bits": self.max_bits,
                "ext_recomputed_s": self.ext_recomputed_s(),
            }, fh)


def main(argv):
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: trace.py --out SPANS.json -- <cli arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
