"""Command line front end.

Reads structure documents (JSON), runs the requested pipeline on each, and
prints a single deterministic JSON report.  Exit code 0 means every check
passed, 1 means a mathematical violation or failed check, 2 means a
malformed input or a result too large to print, 3 means an internal error
(an entry with status "error", its traceback on stderr; the other inputs
are still reported), and 141 means stdout was closed before the report was
written.  `main` returns the code in process; `run` ends the process with
it by os._exit once stdout and stderr are flushed, with no teardown.
Reports never contain timestamps, so identical inputs produce
byte-identical output.  Inputs run one after another, in input order, on
the calling thread; --jobs is accepted and has no effect.  Handlers import
the layers they reach, so a command loads (and compiles) only those: `lie`
loads scalars, freelie and upoly, with neither poly nor linalg; `validate`
of a structure loads no connection or splitting (of a delta, splitting; of
a connection, connection, splitting and upoly); no command loads `poly` or
`rees`; and hashlib (with OpenSSL) loads only to hash an input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import __version__
from .scalars import MAX_DIGITS, FieldError, Scalar

TRUNCATION_CAP = 12
# a segment pulls each entry back to degree up to the spread: 3 rational
# segments on a 32-dim chain take 0.8 s of CPU, 7 s with 100-digit entries
MAX_PATH_POINTS = 16
CLOSED_STDOUT = 141  # 128 + SIGPIPE


class Violation(Exception):
    """Mathematically invalid input, carrying the first failing witness."""


# one converter per artifact of the chain structure -> graded -> delta ->
# connection; each accepts anything upstream and computes each link once
def _graded(obj):
    """Validated graded structure of a structure document."""
    from .mhs import ComplexMHS, GrStructure, RealMHS, realize_real

    if isinstance(obj, RealMHS):
        obj = realize_real(obj)
    if not isinstance(obj, ComplexMHS):
        raise Violation("expected a structure document, got %s" % type(obj).__name__)
    return GrStructure(obj)


def _delta(obj):
    """Delta of a structure or delta document, or of a graded structure."""
    from .documents import DocumentError
    from .mhs import ComplexMHS, GrStructure, RealMHS
    from .splitting import DeltaObject, delta_operator

    if isinstance(obj, DeltaObject):
        return obj
    if isinstance(obj, (ComplexMHS, RealMHS)):
        obj = _graded(obj)
    if not isinstance(obj, GrStructure):  # a connection document
        raise DocumentError(
            "expected a structure or delta document, got %s" % type(obj).__name__
        )
    return delta_operator(obj)


def _connection(obj):
    """Canonical connection of any document, or of an upstream artifact."""
    from .connection import EquivariantConnection, connection_from_delta

    if isinstance(obj, EquivariantConnection):
        return obj
    return connection_from_delta(_delta(obj))


def _validate(obj, flags):
    from .documents import _hodge_out
    from .mhs import OpposednessViolation

    try:
        gr = _graded(obj)
    except OpposednessViolation as exc:
        raise Violation(
            "opposedness fails at weight %d, (p, q) = (%d, %d)"
            % (exc.weight, exc.p, exc.q)
        )
    return {"hodge": _hodge_out(gr.hodge)}, []


def _split(obj, flags):
    from .documents import _matrix_out
    from .splitting import log_delta_components

    dobj = _delta(_graded(obj))
    comps = log_delta_components(dobj)
    return {
        "delta": _matrix_out(dobj.delta),
        "log_components": {
            "%d,%d" % k: _matrix_out(m) for k, m in sorted(comps.items())
        },
    }, []


def _connect(obj, flags):
    from .documents import serialize

    C = _connection(obj)
    checks = [("fock_schwinger", C.Q == -C.P)]
    return serialize(C), checks


def _holonomy(obj, flags):
    from .documents import _matrix_out
    from .holonomy import holonomy_path, triangle_delta

    C = _connection(obj)
    if flags.path:
        T = holonomy_path(C, flags.path)
        return {"transport": _matrix_out(T)}, []
    dobj = triangle_delta(C)
    return {"triangle_delta": _matrix_out(dobj.delta)}, []


def _roundtrip(obj, flags):
    from .documents import _hodge_out, _matrix_out
    from .holonomy import triangle_delta
    from .linalg import Matrix
    from .splitting import delta_to_mhs

    gr = _graded(obj)
    dobj = _delta(gr)
    C = _connection(dobj)
    checks = [("triangle_holonomy_equals_delta", triangle_delta(C) == dobj)]
    model = delta_to_mhs(dobj, check=False)
    checks.append(("model_delta_equals_delta", _delta(_graded(model)) == dobj))
    flat = C.is_zero()  # flat iff zero for Fock-Schwinger: see curvature
    split = dobj.delta == Matrix.identity(gr.hodge.dim)
    checks.append(("flat_iff_split", flat == split))
    return {
        "hodge": _hodge_out(gr.hodge),
        "delta": _matrix_out(dobj.delta),
    }, checks


def _rees(obj, flags):
    from .splitting import delta_line_type

    # the type of every line; Phi(1, 1) = delta holds by rees_patching's form
    line_type = list(delta_line_type(_delta(obj)))
    trivial = not any(line_type)
    points = flags.point or [
        (Scalar(-1), Scalar(0)), (Scalar(2), Scalar(3)), (Scalar(0, 1), Scalar(-1))
    ]
    names = ["%s,%s" % T for T in dict.fromkeys(points)]  # each point once, in order
    checks = [("patching_at_ones_is_delta", True), ("w_line_trivial", trivial)]
    checks += [("line_trivial_at_" + name, trivial) for name in names]
    result = {"w_line_type": line_type, "point_types": dict.fromkeys(names, line_type)}
    return result, checks


def _ext(obj, flags):
    from .hodgecoh import absolute_cohomology, real_absolute_cohomology
    from .mhs import RealMHS

    if isinstance(obj, RealMHS):
        e0, e1 = real_absolute_cohomology(obj)
        return {"ext0_rational": e0, "ext1_rational": e1}, []
    gr = _graded(obj)
    e0, e1 = absolute_cohomology(gr)
    hodge = gr.hodge
    euler = hodge.counts.get((0, 0), 0) - sum(
        v for (p, q), v in hodge.counts.items() if p <= -1 and q <= -1
    )
    return {"ext0": e0, "ext1": e1}, [("euler_characteristic", e0 - e1 == euler)]


def _lie_report(N):
    from .freelie import (
        abelianized_coefficient,
        format_rational,
        generator_change_table,
        universal_log_pexp,
    )

    ztab = universal_log_pexp(N)
    atab = generator_change_table(N)
    z_lines = []
    a_lines = []
    comparison = []
    for d in range(2, N + 1):
        for p in range(1, d):
            q = d - p
            z_lines.append("z%d,%d = %s" % (p, q, ztab[(p, q)]))
            a_lines.append("a%d,%d = %s" % (p, q, atab[(p, q)]))
            integral = abelianized_coefficient(p, q)
            stated = (-1) ** (p + q) * comb(p + q, p)
            comparison.append(
                {
                    "bidegree": "%d,%d" % (p, q),
                    "integral": format_rational(integral),
                    "stated_binomial": str(stated),
                    "agree": integral == Scalar(stated),
                }
            )
    return {
        "truncation": N,
        "z_in_alpha": z_lines,
        "alpha_in_z": a_lines,
        "leading_coefficient_comparison": comparison,
        "comparison_note": (
            "the integral column is the implemented ground truth; the "
            "binomial column is a stated closed form recorded for "
            "comparison, and the disagreement is a known documented "
            "discrepancy, not a failure"
        ),
    }


_HANDLERS = {
    "validate": _validate,
    "split": _split,
    "connect": _connect,
    "holonomy": _holonomy,
    "roundtrip": _roundtrip,
    "rees": _rees,
    "ext": _ext,
}


def _failed(entry, status, exc):
    entry["status"] = status
    entry["error"] = str(exc)
    return entry


def _process_one(command, path, flags):
    import hashlib

    from .documents import DocumentError, OversizeResult, parse
    from .mhs import FiltrationError, OpposednessViolation

    entry = {"path": path}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        doc = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder can follow
        return _failed(entry, "malformed", exc), 2
    try:
        try:
            obj = parse(doc, flags.field if flags.field != "Qi" else None)
        except ValueError as exc:
            if isinstance(exc, (DocumentError, FiltrationError)):
                raise
            # well-formed document describing a mathematically invalid object
            raise Violation(str(exc))
        result, checks = _HANDLERS[command](obj, flags)
    except OversizeResult as exc:
        return _failed(entry, "malformed", "%s: %s" % (command, exc)), 2
    except (DocumentError, FiltrationError) as exc:
        return _failed(entry, "malformed", exc), 2
    except (Violation, OpposednessViolation, FieldError) as exc:
        return _failed(entry, "violation", exc), 1
    except Exception as exc:
        # a defect of the program: report it, leave the traceback on
        # stderr, and go on with the batch; traceback costs ~5 ms to import,
        # so only this branch loads it
        import traceback

        traceback.print_exc()
        return _failed(entry, "error", "%s: %s" % (type(exc).__name__, exc)), 3
    entry["result"] = result
    entry["checks"] = [{"name": name, "pass": bool(ok)} for name, ok in checks]
    if all(c["pass"] for c in entry["checks"]):
        entry["status"] = "ok"
        return entry, 0
    entry["status"] = "violation"
    return entry, 1


def _point(text):
    """An 'x,y' flag value as a pair of scalars."""
    try:
        x, y = text.split(",")
        return (Scalar.parse(x.strip()), Scalar.parse(y.strip()))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a point x,y, got %r" % (text,))


def _path(text):
    """At most MAX_PATH_POINTS ';'-separated 'x,y' points as a polygonal path."""
    from .holonomy import PathError, PolygonalPath

    chunks = text.split(";")
    if len(chunks) > MAX_PATH_POINTS:
        raise argparse.ArgumentTypeError("a path has at most %d points, got %d"
                                          % (MAX_PATH_POINTS, len(chunks)))
    try:
        return PolygonalPath([_point(chunk) for chunk in chunks])
    except PathError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hodgegauge",
        description="exact computations on mixed Hodge structures and "
        "their equivariant connections",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_inputs=True):
        if with_inputs:
            sp.add_argument("inputs", nargs="+", help="document files")
            sp.add_argument("--field", choices=("Q", "Qi"), default="Qi")
            sp.add_argument("--jobs", type=int, default=1, help="has no effect: "
                            "inputs run one after another, in input order")
        sp.add_argument(
            "--orientation-selftest",
            action="store_true",
            help="re-derive the transport convention pin before running",
        )

    for name, helptext in (
        ("validate", "check opposedness and report hodge numbers"),
        ("split", "comparison operator and its log components"),
        ("connect", "canonical gauge connection"),
        ("roundtrip", "structure -> delta -> connection -> holonomy checks"),
        ("rees", "patching function and splitting types on lines"),
        ("ext", "absolute cohomology dimensions"),
    ):
        sp = sub.add_parser(name, help=helptext)
        common(sp)
        if name == "rees":
            sp.add_argument(
                "--point", action="append", type=_point, help="line base point "
                "as 'x,y', or --point=-1,0 when x is negative; repeatable, each "
                "distinct point reported once")
    sp = sub.add_parser("holonomy", help="triangle or explicit path transport")
    common(sp)
    sp.add_argument(
        "--path", default=None, type=_path, help="semicolon-separated x,y "
        "points, or --path=-1,0;0,1 when the first x is negative"
    )
    sp = sub.add_parser("lie", help="universal generator-change tables")
    common(sp, with_inputs=False)
    sp.add_argument(
        "--truncation",
        type=int,
        choices=range(2, TRUNCATION_CAP + 1),
        default=5,
        metavar="N",
        help="table weight, 2..%d" % TRUNCATION_CAP,
    )
    return ap


def main(argv=None):
    # a result is printed only up to the digits a parsed scalar may have:
    # documents._matrix_out relies on str() refusing longer integers
    sys.set_int_max_str_digits(MAX_DIGITS)
    ap = build_parser()
    flags = ap.parse_args(argv)
    report = {"command": flags.command, "version": __version__}
    worst = 0
    if flags.orientation_selftest:
        from .holonomy import convention_selftest

        convention_selftest()
        report["orientation_selftest"] = "pass"
    if flags.command == "lie":
        report["result"] = _lie_report(flags.truncation)
    else:
        outs = [_process_one(flags.command, p, flags) for p in flags.inputs]
        report["inputs"] = [entry for entry, _ in outs]
        worst = max((code for _, code in outs), default=0)
    try:
        # one write: json.dump writes each encoder chunk on its own, and an
        # unbuffered stdout passes every one of them to the OS
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (`... | head`): end quietly with the status a
        # shell gives a process killed by SIGPIPE; stdout now points at
        # devnull, so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    return worst


def run():
    """The process entry; argparse's SystemExit or an error exits normally."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
