"""Serialization of structures, comparison data, and connections.

One JSON-compatible document format is used by the command line tool and
the shipped corpus.  Scalars are canonical strings ("a/b" or "a/b+c/d*i"),
matrices are row lists, filtrations map stringified indices to basis rows.
Parsing and serialization are exact inverses on canonical documents.
A document whose filtration indices, or Hodge weights, span more than
MAX_SPAN, or whose dimension is more than MAX_DIM, is malformed: the cost
of every stage grows with both.
Index keys must be canonical ("k" or "p,q", each part str(int(part))).  A
matrix row or a filtration step that is not a list ([] is the zero step),
or a (p, q) block that a connection document repeats, is malformed.
A filtration step is read straight into integer rows (``linalg._ints`` of
the parsed parts), so no Scalar is made of it; the matrices of delta and
connection documents are read into Scalars.
"""

from __future__ import annotations

from .linalg import DimensionMismatch, Matrix, Subspace, _ints
from .mhs import ComplexMHS, Filtration, HodgeNumbers, RealMHS
from .scalars import MAX_DIGITS, FieldError, _fast, parse_parts


# the widest range of indices one filtration, or of weights one set of
# Hodge numbers, may span
MAX_SPAN = 64
# the largest dimension of a structure, or sum of Hodge numbers
MAX_DIM = 32


class DocumentError(ValueError):
    """Malformed input document."""


class OversizeResult(DocumentError):
    """A result holds a scalar too long to print."""


def _check_span(values, what):
    if values and max(values) - min(values) > MAX_SPAN:
        raise DocumentError(
            "%s span %d, more than %d"
            % (what, max(values) - min(values), MAX_SPAN)
        )


def _check_dim(n):
    if n > MAX_DIM:
        raise DocumentError("dimension %d, more than %d" % (n, MAX_DIM))


def _canonical(key, text):
    # int() also reads "00", "+1", " 1" and "1_0"
    if key != text:
        raise DocumentError("index key %r is not canonical" % (key,))


def _integer_in(x, what):
    # a JSON integer only: int() would truncate 1.5 and read "1", and a bool
    # is an int to Python
    if type(x) is not int:
        raise DocumentError("%s must be an integer, not %r" % (what, x))
    return x


def _scalar_in(text, field=None):
    # the parts (rn, rd, in, id) of one entry
    try:
        parts = parse_parts(text)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc))
    except ZeroDivisionError:
        raise DocumentError("zero denominator in scalar %r" % (text,))
    if field is not None and not _fast(*parts).in_field(field):
        raise FieldError("scalar %s outside field %s" % (_fast(*parts), field))
    return parts


def _matrix_out(m):
    try:
        return [[str(x) for x in row] for row in m.rows]
    except ValueError:  # past the int-to-str limit, which cli.main pins
        raise OversizeResult("result has a numerator or denominator of more "
                             "than %d digits" % MAX_DIGITS)


def _lists_in(rows):
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise DocumentError("matrix must be a list of rows, each a list")


def _rows_in(rows, field, make, seen):
    # the rows of a matrix as make(parts) of each entry, and their width;
    # nearly every entry is "0/1" or "1/1", so seen keeps make(parts) of each
    # distinct string
    _lists_in(rows)

    def entry(x):
        if type(x) is not str:
            return _scalar_in(x, field)
        seen[x] = make(_scalar_in(x, field))
        return seen[x]

    rows = [[seen[x] if type(x) is str and x in seen else entry(x) for x in row]
            for row in rows]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DocumentError("ragged rows")
    return rows, width


def _matrix_in(rows, field=None):
    # every entry is a Scalar, so the matrix needs no second coercion
    rows, width = _rows_in(rows, field, lambda parts: _fast(*parts), {})
    return Matrix._of(tuple(map(tuple, rows)), width)


def _filtration_out(f):
    return {
        "direction": f.direction,
        "n": f.n,
        "steps": {
            str(k): _matrix_out(sub.basis) for k, sub in sorted(f.steps.items())
        },
    }


def _step_in(rows, n, field, seen):
    # the span of the rows of a step; seen keeps, for one document and field,
    # the parts of each entry string and the step of each list of rows
    _lists_in(rows)
    try:
        return seen[n, tuple(map(tuple, rows))]
    except (KeyError, TypeError):  # new, or an entry is not a string
        pass
    parts, width = _rows_in(rows, field, tuple, seen)
    if width != n:
        raise DimensionMismatch("rows of length %d in K^%d" % (width, n))
    # the entries are parts already, and _span makes each row primitive
    seen[n, tuple(map(tuple, rows))] = step = Subspace._span(
        n, [_ints(r, tuple)[:2] for r in parts])
    return step


def _filtration_in(doc, field=None, seen=None):
    seen = {} if seen is None else seen
    try:
        direction = doc["direction"]
        n = _integer_in(doc["n"], "n")
        if n < 0:
            raise DocumentError("negative dimension %d" % n)
        _check_dim(n)
        steps = {}
        for key, rows in doc["steps"].items():
            # [] is the zero step; any other step is a list of rows
            step = Subspace.zero(n) if rows == [] else _step_in(rows, n, field, seen)
            k = int(key)
            _canonical(key, str(k))
            steps[k] = step
        _check_span(steps, "indices")
        return Filtration(direction, n, steps)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FieldError):
            raise
        raise DocumentError("bad filtration: %s" % (exc,))


def _structure_in(doc, cls, keys, fields):
    """A structure document: the filtrations under keys, each read in its
    field, on the document's dimension n, which they must all share."""
    n = _integer_in(doc["n"], "dimension")
    _check_dim(n)
    seen = {}
    filtrations = [_filtration_in(doc[k], f, seen.setdefault(f, {}))
                   for k, f in zip(keys, fields)]
    if any(f.n != n for f in filtrations):
        raise DocumentError("filtrations are not on the document's n = %d" % n)
    return cls(n, *filtrations)


def _hodge_out(h):
    return {"%d,%d" % pq: v for pq, v in sorted(h.counts.items())}


def _hodge_in(doc):
    try:
        counts = {}
        for key, v in doc.items():
            p, q = (int(x) for x in key.split(","))
            _canonical(key, "%d,%d" % (p, q))
            counts[(p, q)] = _integer_in(v, "hodge number")
        _check_span([p + q for p, q in counts], "weights")
        _check_dim(sum(counts.values()))
        return HodgeNumbers(counts)
    except (AttributeError, TypeError, ValueError) as exc:
        raise DocumentError("bad hodge numbers: %s" % (exc,))


def serialize(obj):
    # here and in parse: a command that builds neither never loads them
    from .connection import EquivariantConnection
    from .splitting import DeltaObject

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
        A, B, blocks = obj.A, obj.B, []
        for (p, q) in sorted(set(A) | set(B)):
            entry = {"p": p, "q": q}
            if (p, q) in A:
                entry["A"] = _matrix_out(A[(p, q)])
            if (p, q) in B:
                entry["B"] = _matrix_out(B[(p, q)])
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
            return _structure_in(
                doc, ComplexMHS, ("W", "Fp", "Fpp"), (field, field, field)
            )
        if kind == "real_mhs":
            return _structure_in(doc, RealMHS, ("W", "F"), ("Q", field))
        if kind == "delta":
            from .splitting import DeltaObject

            return DeltaObject(
                _hodge_in(doc["hodge"]), _matrix_in(doc["matrix"], field)
            )
        if kind == "connection":
            from .connection import from_blocks

            hodge = _hodge_in(doc["hodge"])
            A = {}
            B = {}
            seen = set()
            for entry in doc["blocks"]:
                p, q = _integer_in(entry["p"], "p"), _integer_in(entry["q"], "q")
                if (p, q) in seen:
                    raise DocumentError("repeated block at (%d, %d)" % (p, q))
                seen.add((p, q))
                for side, coeffs in (("A", A), ("B", B)):
                    if side not in entry:
                        continue
                    M = coeffs[(p, q)] = _matrix_in(entry[side], field)
                    # checked here, as from_blocks drops zero blocks
                    if M.shape != (hodge.dim, hodge.dim):
                        raise DocumentError("%s block at (%d, %d) has shape %r"
                                            % (side, p, q, M.shape))
            return from_blocks(hodge, A, B)
    except (KeyError, TypeError) as exc:
        raise DocumentError("bad %s document: %s" % (kind, exc))
    raise DocumentError("unknown document type %r" % (kind,))
