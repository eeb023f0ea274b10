"""Serialization of structures, comparison data, and connections.

One JSON-compatible document format is used by the command line tool and
the shipped corpus.  Scalars are canonical strings ("a/b" or "a/b+c/d*i"),
matrices are row lists, filtrations map stringified indices to basis rows.
Parsing and serialization are exact inverses on canonical documents.
"""

from __future__ import annotations

from .connection import EquivariantConnection
from .linalg import Matrix, Subspace
from .mhs import ComplexMHS, Filtration, HodgeNumbers, RealMHS
from .scalars import FieldError, Scalar
from .splitting import DeltaObject


class DocumentError(ValueError):
    """Malformed input document."""


def _scalar_out(x):
    return str(x)


def _scalar_in(text, field=None):
    try:
        x = Scalar.parse(text)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc))
    except ZeroDivisionError:
        raise DocumentError("zero denominator in scalar %r" % (text,))
    if field is not None and not x.in_field(field):
        raise FieldError("scalar %s outside field %s" % (x, field))
    return x


def _matrix_out(m):
    return [[_scalar_out(x) for x in row] for row in m.rows]


def _matrix_in(rows, field=None):
    if not isinstance(rows, list):
        raise DocumentError("matrix must be a list of rows")
    return Matrix([[_scalar_in(x, field) for x in row] for row in rows])


def _filtration_out(f):
    return {
        "direction": f.direction,
        "n": f.n,
        "steps": {
            str(k): _matrix_out(sub.basis) for k, sub in sorted(f.steps.items())
        },
    }


def _filtration_in(doc, field=None):
    try:
        direction = doc["direction"]
        n = int(doc["n"])
        steps = {}
        for key, rows in doc["steps"].items():
            basis = _matrix_in(rows, field) if rows else Matrix.zeros(0, n)
            steps[int(key)] = Subspace.from_rows(n, basis.rows)
        return Filtration(direction, n, steps)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FieldError):
            raise
        raise DocumentError("bad filtration: %s" % (exc,))


def _hodge_out(h):
    return {"%d,%d" % pq: v for pq, v in sorted(h.counts.items())}


def _hodge_in(doc):
    try:
        counts = {}
        for key, v in doc.items():
            p, q = (int(x) for x in key.split(","))
            counts[(p, q)] = int(v)
        return HodgeNumbers(counts)
    except (AttributeError, TypeError, ValueError) as exc:
        raise DocumentError("bad hodge numbers: %s" % (exc,))


def serialize(obj):
    if isinstance(obj, ComplexMHS):
        return {
            "type": "complex_mhs",
            "n": obj.n,
            "W": _filtration_out(obj.W),
            "Fp": _filtration_out(obj.Fp),
            "Fpp": _filtration_out(obj.Fpp),
        }
    if isinstance(obj, RealMHS):
        return {
            "type": "real_mhs",
            "n": obj.n,
            "W": _filtration_out(obj.W),
            "F": _filtration_out(obj.F),
        }
    if isinstance(obj, DeltaObject):
        return {
            "type": "delta",
            "hodge": _hodge_out(obj.hodge),
            "matrix": _matrix_out(obj.delta),
        }
    if isinstance(obj, EquivariantConnection):
        blocks = []
        for (p, q) in sorted(set(obj.A) | set(obj.B)):
            n = obj.hodge.dim
            entry = {"p": p, "q": q}
            if (p, q) in obj.A:
                entry["A"] = _matrix_out(obj.A[(p, q)])
            if (p, q) in obj.B:
                entry["B"] = _matrix_out(obj.B[(p, q)])
            blocks.append(entry)
        return {
            "type": "connection",
            "hodge": _hodge_out(obj.hodge),
            "blocks": blocks,
        }
    raise TypeError("cannot serialize %r" % (type(obj),))


def parse(doc, field=None):
    if not isinstance(doc, dict) or "type" not in doc:
        raise DocumentError("document must be an object with a 'type' key")
    kind = doc["type"]
    try:
        if kind == "complex_mhs":
            return ComplexMHS(
                int(doc["n"]),
                _filtration_in(doc["W"], field),
                _filtration_in(doc["Fp"], field),
                _filtration_in(doc["Fpp"], field),
            )
        if kind == "real_mhs":
            return RealMHS(
                int(doc["n"]),
                _filtration_in(doc["W"], "Q"),
                _filtration_in(doc["F"], field),
            )
        if kind == "delta":
            return DeltaObject(
                _hodge_in(doc["hodge"]), _matrix_in(doc["matrix"], field)
            )
        if kind == "connection":
            hodge = _hodge_in(doc["hodge"])
            A = {}
            B = {}
            for entry in doc["blocks"]:
                p, q = int(entry["p"]), int(entry["q"])
                if "A" in entry:
                    A[(p, q)] = _matrix_in(entry["A"], field)
                if "B" in entry:
                    B[(p, q)] = _matrix_in(entry["B"], field)
            return EquivariantConnection(hodge, A, B)
    except (KeyError, TypeError) as exc:
        raise DocumentError("bad %s document: %s" % (kind, exc))
    raise DocumentError("unknown document type %r" % (kind,))
