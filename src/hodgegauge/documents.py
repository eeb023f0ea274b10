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
One reader, ``_rows_in``, reads the entries of every matrix: filtration
steps, the delta matrix and each connection block.  It measures the matrix
before it reads an entry (rows of one width, the dimension n, and n rows
for the delta matrix and the blocks), so a misshaped matrix is malformed at
the cost of its length, not of its parse.  Every entry is read into a
Scalar, each distinct string once per matrix, or once per document and
field in filtration steps; a step is the span of ``scalars._ints`` of its
rows.  A filtration of a structure is checked to be on the document's n
before its steps are read.
"""

from __future__ import annotations

from .linalg import DimensionMismatch, Matrix, Subspace
from .mhs import ComplexMHS, Filtration, HodgeNumbers, RealMHS
from .scalars import MAX_DIGITS, FieldError, _fast, _ints, parse_parts


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
    try:
        x = _fast(*parse_parts(text))
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc))
    except ZeroDivisionError:
        raise DocumentError("zero denominator in scalar %r" % (text,))
    if field is not None and not x.in_field(field):
        raise FieldError("scalar %s outside field %s" % (x, field))
    return x


def _matrix_out(m):
    try:
        return [[str(x) for x in row] for row in m.rows]
    except ValueError:  # past the int-to-str limit, which cli.main pins
        raise OversizeResult("result has a numerator or denominator of more "
                             "than %d digits" % MAX_DIGITS)


def _rows_in(rows, field, seen, build, n=None, what=None):
    # build(rows of Scalars, width): the one reader of matrix entries.  The
    # rows are measured before any entry is read: lists of one width, n
    # where n is given, and n of them where `what` names an n x n matrix.
    # seen keeps the Scalar of each distinct entry string (nearly every
    # entry is "0/1" or "1/1") and the result of each distinct list of rows
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise DocumentError("matrix must be a list of rows, each a list")
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DocumentError("ragged rows")
    if what is not None and (len(rows), width) != (n, n):
        raise DocumentError("%s has shape %r" % (what, (len(rows), width)))
    if n is not None and width != n:
        raise DimensionMismatch("rows of length %d in K^%d" % (width, n))
    key = n, tuple(map(tuple, rows))
    try:
        return seen[key]
    except (KeyError, TypeError):  # new, or an entry is not a string
        pass

    def entry(x):
        if type(x) is not str:
            return _scalar_in(x, field)
        seen[x] = _scalar_in(x, field)
        return seen[x]

    seen[key] = built = build(tuple([
        tuple([seen[x] if type(x) is str and x in seen else entry(x) for x in row])
        for row in rows]), width)
    return built


def _matrix_in(rows, field=None, n=None, what=None):
    # every entry is a Scalar, so the matrix needs no second coercion
    return _rows_in(rows, field, {}, Matrix._of, n, what)


def _filtration_out(f):
    return {
        "direction": f.direction,
        "n": f.n,
        "steps": {
            str(k): _matrix_out(sub.basis) for k, sub in sorted(f.steps.items())
        },
    }


def _step_in(rows, n, field, seen):
    # the span of the rows of a step, seen kept for one document and field;
    # _span makes each row primitive
    return _rows_in(rows, field, seen, lambda scalars, _: Subspace._span(
        n, [_ints(r)[:2] for r in scalars]), n)


def _filtration_in(doc, field=None, seen=None, dim=None):
    # a filtration on dimension dim, where it is given, is checked to be on
    # it before any step is read
    seen = {} if seen is None else seen
    try:
        direction = doc["direction"]
        n = _integer_in(doc["n"], "n")
        if n < 0:
            raise DocumentError("negative dimension %d" % n)
        _check_dim(n)
        if dim in (None, n):
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
    raise DocumentError("filtrations are not on the document's n = %d" % dim)


def _structure_in(doc, cls, keys, fields):
    """A structure document: the filtrations under keys, each read in its
    field, on the document's dimension n, which they must all share."""
    n = _integer_in(doc["n"], "dimension")
    _check_dim(n)
    seen = {}
    return cls(n, *[_filtration_in(doc[k], f, seen.setdefault(f, {}), n)
                    for k, f in zip(keys, fields)])


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

            hodge = _hodge_in(doc["hodge"])
            return DeltaObject(hodge, _matrix_in(doc["matrix"], field, hodge.dim,
                                                 "delta matrix"))
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
                    # shaped here, as from_blocks drops zero blocks
                    if side in entry:
                        coeffs[p, q] = _matrix_in(
                            entry[side], field, hodge.dim,
                            "%s block at (%d, %d)" % (side, p, q))
            return from_blocks(hodge, A, B)
    except (KeyError, TypeError) as exc:
        raise DocumentError("bad %s document: %s" % (kind, exc))
    raise DocumentError("unknown document type %r" % (kind,))
