"""Output checks that do not trust the library's own comparisons.

A p-adic value is handled here as a triple (v, u, prec): the value p^v * u
known modulo p^prec, with v = None for a value whose known digits all
vanish.  PadicScalar.agrees compares at the smaller of the tolerance and
the operands' precisions, so it passes vacuously on a result that carries
too few digits; compare() below reports such a pair as "short" instead.
"""

from __future__ import annotations

import hashlib
import json


def triple(s):
    """The (v, u, prec) triple of a PadicScalar."""
    return (s.v, s.u, s.prec)


def compare(a, b, t, p):
    """Return "ok" when both values carry at least t digits and a = b mod
    p^t, "short" when either carries fewer, "wrong" when the digits differ."""
    if a[2] < t or b[2] < t:
        return "short"
    va = t if a[0] is None else a[0]
    vb = t if b[0] is None else b[0]
    m = min(va, vb, t)
    if m >= t:
        return "ok"
    xa = 0 if a[0] is None else a[1] * p ** (va - m)
    xb = 0 if b[0] is None else b[1] * p ** (vb - m)
    return "ok" if (xa - xb) % p ** (t - m) == 0 else "wrong"


def compare_all(results, refs, p, tol, what):
    """Problems found comparing each result with its reference, as
    (kind, message) pairs.  With tol None each result is compared at every
    digit it claims, so the reference must carry at least as many."""
    kinds = [compare(a, b, a[2] if tol is None else tol, p) for a, b in zip(results, refs)]
    out = []
    if "wrong" in kinds:
        out.append(("wrong", "%s: %d values differ" % (what, kinds.count("wrong"))))
    if "short" in kinds:
        out.append(("short", "%s: %d values lack the digits compared"
                    % (what, kinds.count("short"))))
    return out


def matrix_triples(m):
    return [triple(x) for row in m.entries for x in row]


def element_triples(x):
    return [triple(c) for c in x.coords]


def tensor_triples(A):
    return [triple(c) for plane in A.mul for row in plane for c in row]


def digest(records):
    """SHA-256 of the canonical JSON of the per-op records."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def drop_digits(values, keep):
    """The same values claiming only `keep` digits (for the gate self-check)."""
    out = []
    for v, u, prec in values:
        if v is None or v >= keep:
            out.append((None, 0, keep))
        else:
            out.append((v, u, keep))
    return out


def flip_digit(values, p, at=None):
    """The same values with digit p^at (default: the lowest claimed one) of
    the first value changed."""
    v, u, prec = values[0]
    at = prec - 1 if at is None else at
    if v is None:
        flipped = (at, 1, prec)
    elif at >= v:
        flipped = (v, u + p ** (at - v), prec)
    else:
        flipped = (at, 1 + u * p ** (v - at), prec)
    return [flipped] + list(values[1:])
