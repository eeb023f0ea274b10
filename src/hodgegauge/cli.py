"""Command line front end.

Reads structure documents (JSON), runs the requested pipeline on each, and
prints a single deterministic JSON report.  Exit code 0 means every check
passed, 1 means a mathematical violation or failed check, 2 means a
malformed input.  Reports never contain timestamps, so identical inputs
produce byte-identical output, including under --jobs parallelism (results
are merged in input order).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import __version__
from .connection import (
    EquivariantConnection,
    connection_form,
    connection_from_delta,
    curvature,
)
from .documents import DocumentError, _hodge_out, _matrix_out, parse, serialize
from .linalg import Matrix
from .freelie import (
    abelianized_coefficient,
    generator_change_table,
    universal_log_pexp,
)
from .hodgecoh import absolute_cohomology, real_absolute_cohomology
from .holonomy import (
    PolygonalPath,
    convention_selftest,
    holonomy_path,
    triangle_delta,
)
from .mhs import (
    ComplexMHS,
    FiltrationError,
    GrStructure,
    OpposednessViolation,
    RealMHS,
    realize_real,
)
from .rees import W_LINE, rees_patching, restrict_to_line, splitting_type
from .scalars import FieldError, Scalar
from .splitting import (
    DeltaObject,
    delta_operator,
    delta_to_mhs,
    log_delta_components,
)

TRUNCATION_CAP = 12


class Violation(Exception):
    """Mathematically invalid input, carrying the first failing witness."""


def _digest(data):
    return hashlib.sha256(data).hexdigest()


# one converter per artifact of the chain structure -> graded -> delta ->
# connection; each accepts anything upstream and computes each link once
def _graded(obj):
    """Validated graded structure of a structure document."""
    if isinstance(obj, RealMHS):
        obj = realize_real(obj)
    if not isinstance(obj, ComplexMHS):
        raise Violation("expected a structure document, got %s" % type(obj).__name__)
    return GrStructure(obj)


def _delta(obj):
    """Delta of a structure or delta document, or of a graded structure."""
    if isinstance(obj, DeltaObject):
        return obj
    if isinstance(obj, EquivariantConnection):
        raise DocumentError(
            "expected a structure or delta document, got %s" % type(obj).__name__
        )
    if not isinstance(obj, GrStructure):
        obj = _graded(obj)
    return delta_operator(obj)


def _connection(obj):
    """Canonical connection of any document, or of an upstream artifact."""
    if isinstance(obj, EquivariantConnection):
        return obj
    return connection_from_delta(_delta(obj))


def _validate(obj, flags):
    try:
        gr = _graded(obj)
    except OpposednessViolation as exc:
        raise Violation(
            "opposedness fails at weight %d, (p, q) = (%d, %d)"
            % (exc.weight, exc.p, exc.q)
        )
    return {"hodge": _hodge_out(gr.hodge)}, []


def _split(obj, flags):
    dobj = _delta(_graded(obj))
    comps = log_delta_components(dobj)
    return {
        "delta": _matrix_out(dobj.delta),
        "log_components": {
            "%d,%d" % k: _matrix_out(m) for k, m in sorted(comps.items())
        },
    }, []


def _connect(obj, flags):
    C = _connection(obj)
    checks = [("fock_schwinger", all(
        (C.B.get(k) == -v) for k, v in C.A.items()
    ) and set(C.A) == set(C.B))]
    return serialize(C), checks


def _holonomy(obj, flags):
    C = _connection(obj)
    if flags.path:
        T = holonomy_path(connection_form(C), flags.path)
        return {"transport": _matrix_out(T)}, []
    dobj = triangle_delta(C)
    return {"triangle_delta": _matrix_out(dobj.delta)}, []


def _roundtrip(obj, flags):
    gr = _graded(obj)
    dobj = _delta(gr)
    C = _connection(dobj)
    checks = [("triangle_holonomy_equals_delta", triangle_delta(C) == dobj)]
    model = delta_to_mhs(dobj, check=False)
    checks.append(("model_delta_equals_delta", _delta(_graded(model)) == dobj))
    flat = curvature(C).is_zero()
    split = dobj.delta == Matrix.identity(gr.hodge.dim)
    checks.append(("flat_iff_split", flat == split))
    return {
        "hodge": _hodge_out(gr.hodge),
        "delta": _matrix_out(dobj.delta),
    }, checks


def _rees(obj, flags):
    dobj = _delta(obj)
    phi = rees_patching(dobj)
    checks = [
        (
            "patching_at_ones_is_delta",
            phi.eval((Scalar(1), Scalar(1))) == dobj.delta,
        )
    ]
    result = {"w_line_type": None, "point_types": {}}
    GW = restrict_to_line(phi, W_LINE)
    tW = splitting_type(GW)
    result["w_line_type"] = list(tW)
    checks.append(("w_line_trivial", all(a == 0 for a in tW)))
    points = flags.point or [
        (Scalar(-1), Scalar(0)), (Scalar(2), Scalar(3)), (Scalar(0, 1), Scalar(-1))
    ]
    for (x, y) in points:
        t = splitting_type(restrict_to_line(phi, (x, y)))
        result["point_types"]["%s,%s" % (x, y)] = list(t)
        checks.append(("line_trivial_at_%s,%s" % (x, y), all(a == 0 for a in t)))
    return result, checks


def _ext(obj, flags):
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


def _format_lie(alphabet, poly):
    parts = []
    for w in sorted(poly.coords, key=lambda u: (len(u), u)):
        labels = "".join("[%s]" % alphabet.letters[i][0] for i in w)
        parts.append("%s*%s" % (poly.coords[w], labels))
    return " + ".join(parts) if parts else "0"


def _lie_report(N):
    from .freelie import alpha_alphabet, z_alphabet

    ztab = universal_log_pexp(N)
    atab = generator_change_table(N)
    A = alpha_alphabet(N)
    Z = z_alphabet(N)
    z_lines = []
    a_lines = []
    comparison = []
    from math import comb

    for d in range(2, N + 1):
        for p in range(1, d):
            q = d - p
            z_lines.append(
                "z%d,%d = %s" % (p, q, _format_lie(A, ztab[(p, q)]))
            )
            a_lines.append(
                "a%d,%d = %s" % (p, q, _format_lie(Z, atab[(p, q)]))
            )
            integral = abelianized_coefficient(p, q)
            stated = Fraction((-1) ** (p + q) * comb(p + q, p))
            comparison.append(
                {
                    "bidegree": "%d,%d" % (p, q),
                    "integral": str(integral),
                    "stated_binomial": str(stated),
                    "agree": integral == stated,
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


def _parse(doc, flags):
    try:
        return parse(doc, flags.field if flags.field != "Qi" else None)
    except (DocumentError, FiltrationError):
        raise
    except ValueError as exc:
        # well-formed document describing a mathematically invalid object
        raise Violation(str(exc))


def _failed(entry, status, exc):
    entry["status"] = status
    entry["error"] = str(exc)
    return entry


def _process_one(command, path, flags):
    entry = {"path": path}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        entry["sha256"] = _digest(data)
        doc = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        return _failed(entry, "malformed", exc), 2
    try:
        result, checks = _HANDLERS[command](_parse(doc, flags), flags)
    except (DocumentError, FiltrationError) as exc:
        return _failed(entry, "malformed", exc), 2
    except (Violation, OpposednessViolation, FieldError) as exc:
        return _failed(entry, "violation", exc), 1
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
    """A ';'-separated list of 'x,y' points as a polygonal path."""
    return PolygonalPath([_point(chunk) for chunk in text.split(";")])


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
        sp.add_argument("--jobs", type=int, default=1)
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
                "--point",
                action="append",
                default=None,
                type=_point,
                help="line base point as 'x,y'; repeatable",
            )
    sp = sub.add_parser("holonomy", help="triangle or explicit path transport")
    common(sp)
    sp.add_argument(
        "--path", default=None, type=_path, help="semicolon-separated x,y points"
    )
    sp = sub.add_parser("lie", help="universal generator-change tables")
    common(sp, with_inputs=False)
    sp.add_argument("--truncation", type=int, default=None)
    return ap


def main(argv=None):
    ap = build_parser()
    flags = ap.parse_args(argv)
    report = {"command": flags.command, "version": __version__}
    worst = 0
    if flags.orientation_selftest:
        convention_selftest()
        report["orientation_selftest"] = "pass"
    if flags.command == "lie":
        N = flags.truncation if flags.truncation is not None else 5
        if N > TRUNCATION_CAP:
            print("truncation exceeds the cap of %d" % TRUNCATION_CAP, file=sys.stderr)
            return 2
        report["result"] = _lie_report(N)
    else:
        inputs = flags.inputs
        if flags.jobs and flags.jobs > 1:
            with ThreadPoolExecutor(max_workers=flags.jobs) as pool:
                outs = list(
                    pool.map(
                        lambda p: _process_one(flags.command, p, flags), inputs
                    )
                )
        else:
            outs = [_process_one(flags.command, p, flags) for p in inputs]
        report["inputs"] = [entry for entry, _ in outs]
        worst = max((code for _, code in outs), default=0)
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
