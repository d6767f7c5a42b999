"""Instance files: JSON with decimal/rational scalar strings.

One wire format for every kind ("higgs", "rep", "algebra", "twist"), all
versioned with "format": 1.  Scalars serialise as "v:u" (valuation, unit
part) or plain decimal integers or rationals "a/b" with b coprime to p;
each file carries one global precision.  Canonical dumps are byte-stable:
sorted keys, fixed separators, trailing newline.  One writer serves
every kind, from the parts of Rows (_row_strings); reading parses.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import FinAlgebra
from .context import PrimeContext
from .errors import PadicError, ParseError
from .higgs import HiggsModule, SmallRep
from .matrix import PadicMatrix
from .scalar import PadicScalar

FORMAT = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def file_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_matrix(ctx, grid, what, n):
    """The n x n matrix of scalar strings `grid`; anything else is a
    ParseError naming `what`."""
    if not (isinstance(grid, list) and len(grid) == n
            and all(isinstance(row, list) and len(row) == n for row in grid)):
        raise ParseError("%s is not a %d x %d matrix" % (what, n, n))
    try:
        return PadicMatrix.from_rows(
            ctx, [[PadicScalar.parse(ctx, s) for s in row] for row in grid]
        )
    except (ValueError, TypeError, PadicError) as exc:
        raise ParseError("bad scalar in %s: %s" % (what, exc))


def _context_from(obj, precision=None) -> PrimeContext:
    """The file's context; `precision` overrides its working precision.
    The file's p and precision must be JSON integers: a float, a bool or
    a string is refused, not truncated or converted."""
    for name in ("p", "precision") if precision is None else ("p",):
        if name not in obj:
            raise ParseError("missing field %r" % name)
        if type(obj[name]) is not int:
            raise ParseError("field %s must be an integer, got %s" % (name, json.dumps(obj[name])))
    try:
        return PrimeContext(obj["p"], obj["precision"] if precision is None else int(precision))
    except (ValueError, TypeError) as exc:
        raise ParseError("bad p or precision: %s" % exc)


def _base_header(kind, ctx, metadata):
    out = {
        "format": FORMAT,
        "kind": kind,
        "p": ctx.p,
        "precision": ctx.default_precision,
    }
    if metadata:
        out["metadata"] = metadata
    return out


def _check_header(obj, kind):
    if not isinstance(obj, dict):
        raise ParseError("instance file must hold a JSON object")
    if obj.get("format") != FORMAT:
        raise ParseError("unsupported format %r" % obj.get("format"))
    if kind is not None and obj.get("kind") != kind:
        raise ParseError("expected a %r file, found %r" % (kind, obj.get("kind")))


def _side_to_json(X, metadata):
    out = _base_header(X.kind, X.ctx, metadata)
    out["d"] = X.d
    out["rank"] = X.rank
    out[X.matrix_field] = [_cut(_row_strings(m.grid), m.nrows, m.ncols) for m in X.matrices]
    return out


def _side_from_json(cls, obj, precision, noun):
    """A Higgs module or representation from its file; every matrix must
    be square of one size, and d and rank must match the declared ones."""
    _check_header(obj, cls.kind)
    ctx = _context_from(obj, precision)
    field = cls.matrix_field
    grids = obj.get(field)
    if not isinstance(grids, list):
        raise ParseError("missing or malformed field %r" % field)
    n = len(grids[0]) if grids and isinstance(grids[0], list) else 0
    X = cls.create(ctx, [_parse_matrix(ctx, g, "%s[%d]" % (field, i), n)
                         for i, g in enumerate(grids)])
    if X.d != obj.get("d") or X.rank != obj.get("rank"):
        raise ParseError("declared d/rank disagree with the %s matrices" % noun)
    return X


def higgs_to_json(H: HiggsModule, metadata=None):
    return _side_to_json(H, metadata)


def higgs_from_json(obj, precision=None) -> HiggsModule:
    return _side_from_json(HiggsModule, obj, precision, "component")


def rep_to_json(V: SmallRep, metadata=None):
    return _side_to_json(V, metadata)


def rep_from_json(obj, precision=None) -> SmallRep:
    return _side_from_json(SmallRep, obj, precision, "generator")


def _row_strings(row) -> list:
    """The entries of a linalg.Row as PadicScalar.to_string writes them,
    read off its parts: "v:u", or "0" for a zero marker."""
    text = []
    for k in range(len(row)):
        v, u, _, _ = row.parts(k)
        text.append("%d:%d" % (v, u) if u else "0")
    return text


def _cut(items, count, size) -> list:
    """The count rows, of size items each, of the row-major grid items."""
    return [items[i * size:(i + 1) * size] for i in range(count)]


def _tensor_to_json(A: FinAlgebra):
    m = A.dim
    return {
        "dim": m,
        "mul": _cut(_cut(_row_strings(A.tensor), m * m, m), m, m),
        "one": _row_strings(A.one),
    }


def _tensor_from_json(ctx, obj, what, exact_structure) -> FinAlgebra:
    """FinAlgebra.create on the "mul" and "one" of obj; a missing field, a
    bad scalar or a list of the wrong length (mul is dim x dim x dim and
    one has dim entries, dim = len(mul)) is a ParseError naming `what`
    or the field, while a tensor that is not an algebra raises what FinAlgebra.create
    raises."""
    try:
        mul = [
            [[PadicScalar.parse(ctx, s) for s in row] for row in plane]
            for plane in obj["mul"]
        ]
        one = [PadicScalar.parse(ctx, s) for s in obj["one"]]
    except (KeyError, ValueError, TypeError, PadicError) as exc:
        raise ParseError("bad %s: %s" % (what, exc))
    m = len(mul)
    lengths = [("one", len(one))]
    for i, plane in enumerate(mul):
        lengths.append(("mul[%d]" % i, len(plane)))
        lengths += [("mul[%d][%d]" % (i, j), len(row)) for j, row in enumerate(plane)]
    for name, n in lengths:
        if n != m:
            raise ParseError("tensor field %s holds %d entries, expected %d" % (name, n, m))
    return FinAlgebra.create(ctx, mul, one, exact_structure=exact_structure)


def algebra_to_json(A: FinAlgebra, metadata=None):
    out = _base_header("algebra", A.ctx, metadata)
    out.update(_tensor_to_json(A))
    return out


def algebra_from_json(obj, precision=None) -> FinAlgebra:
    _check_header(obj, "algebra")
    return _tensor_from_json(_context_from(obj, precision), obj, "scalar in algebra", True)


def twist_to_json(B: FinAlgebra, tau, units=None, metadata=None):
    out = _base_header("twist", B.ctx, metadata)
    out["algebra"] = _tensor_to_json(B)
    out["tau"] = [_row_strings(t.row) for t in tau]
    if units is not None:
        out["units"] = [_row_strings(u.row) for u in units]
    return out


def twist_from_json(obj, precision=None):
    _check_header(obj, "twist")
    ctx = _context_from(obj, precision)
    # a twist's tensor was solved for (spectral_algebra), so it only
    # approximates the true structure constants
    B = _tensor_from_json(ctx, obj.get("algebra", {}), "twist payload", False)
    try:
        tau = [[PadicScalar.parse(ctx, s) for s in t] for t in obj["tau"]]
    except (KeyError, ValueError, TypeError, PadicError) as exc:
        raise ParseError("bad twist payload: %s" % exc)
    for i, t in enumerate(tau):
        if len(t) != B.dim:
            raise ParseError("twist field tau[%d] holds %d entries, expected %d"
                             % (i, len(t), B.dim))
    return B, [B.element(t) for t in tau]


def load_instance(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
        obj = json.loads(text)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc))
    _check_header(obj, None)
    return obj, text


def write_instance(path: str, obj):
    """Write obj to path in canonical form; a path that cannot be written
    is refused with PadicError, as load_instance refuses one it cannot
    read, so the CLI exits 2 rather than with a traceback."""
    text = canonical_dumps(obj)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PadicError("cannot write %s: %s" % (path, exc))
    return text
