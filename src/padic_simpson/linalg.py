"""Exact elimination over Q_p with explicit precision accounting.

Pivots are chosen as the entry of minimal valuation in the remaining
submatrix (the p-adic analogue of full pivoting), so every elimination
factor is a p-adic integer and precision degrades no faster than the
ledger predicts.  An entry is treated as zero only when it is
zero-to-precision; if such a zero-decision rests on fewer than
``min_margin`` vanishing digits the computation aborts with
PrecisionExhausted instead of guessing a rank.

Elimination works on integers.  Every row is a Row: parallel lists of
residues scaled to one base valuation, absolute precisions and
valuations, one entry per column, in one context whose ambient precision
N caps every product.  Precision is kept per entry, as in the model of
Caruso, Roe and Vaccon (p-adic stability in linear algebra, ISSAC 2015);
the context is kept per Row, and an input that would put two contexts
into one Row is refused with ContextMismatch (Row.of, transpose).  Rows
of one computation may still lie in different contexts: a pivot row and
a right-hand side, the factors of a product.  A row operation x - f*y is
one pass over those lists with the ledger of the scalar expression
x + (-(f*y)) (see scalar.py), and a pivot row is scaled by the pivot
inverse with the ledger of the scalar product (scalar._times and
_inverse, the bodies of PadicScalar * and inv); each has one body on
the lists (_sub_mul, _scaled), which Row.sub_mul and Row.scaled wrap,
eliminate runs on the pivot row's lists, and the replay of a kept
elimination and the span of higgs.spectral_algebra run on directly,
building no Row per step (_parts reads an entry's parts off the lists).  Valuations are
recomputed only where the pivot search, a margin or a later step reads
them.  eliminate, Elimination.solve and triangular_lattice_rows take
rows (or columns) of PadicScalars or Rows.  Elimination.solve_rows hands
the solutions back as Rows, one per unknown across the right-hand sides,
and solve_row one solution as a Row, replaying its column as one-entry
lists with no transpose; every caller in the package stays on them.
PadicScalars are built at the surface alone, in normal form: by parsing
(io_json) and by the public accessors, Elimination.solve, kernel_basis
and invert here, entries and coords of matrices and elements.  Row.key
is the hashable form of a row's values, whatever its base.  Row.slices
cuts the rows or the columns of a grid at once, sharing among them the
list of precisions when it holds one value.

Row is the one integer form of a row of scalars in the package: a
PadicMatrix is one Row of its entries in row-major order (matrix.py), a
FinAlgebra one Row of its structure constants and one of its unit, and an
AlgElement one Row of its coordinates (algebra.py).  The grid operations
of matrices and elements have one body each, here: combined (+, -),
negated, times, rehomed, reduced, agrees, min_valuation and congruent
(==).  Row.dot is the one product kernel of matrices: PadicMatrix @,
multiplication operators, morphism images, spectral embeddings and the
trace-form Gram matrix are dot products of rows with column Rows on one
base, into the one context the caller gives, each output entry one
integer pass with the ledger of the scalar fold over every term, zero
markers included.  That ledger's halves, the least prec a + v b and the
least prec b + v a over the terms, are read from the operands'
descriptors whenever that side has one precision P, for min(P + v b) is
P + min(v b) exactly; only a row or column of mixed precisions pays the
per-term pass.  A descriptor (Row.descriptor: the lists, N, the least
valuation, and the one precision when all entries share it) is built
when a Row first enters a product and kept with it, so the columns a
FinAlgebra, a Morphism, a SpectralAlgebra or a matrix keeps are
described once, not on every product.  Element products read the
operands and the tensor as Rows too, with the same ledger over every
term (algebra._product).  Both kernels rebase their output (_rebased).
Row.lifted is the one exact lift of residues into a wider context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import add, mul

from . import _series
from .context import DEFAULT_SLACK, PrimeContext
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    IntegralStructureFailure,
    PrecisionExhausted,
)
from .scalar import PadicScalar, _inverse, _powers, _times


class Row:
    """A row of p-adic entries of one context as parallel integer lists.

    Entry k is res[k] * p^base known modulo p^prec[k], with res[k] reduced
    modulo p^(prec[k] - base), so res[k] is 0 exactly for a zero marker.
    vals() holds each entry's valuation, a zero marker's being its
    precision.  Every entry lies in the one context ctx, whose ambient
    precision N caps the ledger of every product an entry enters; the
    precisions stay per entry.  Two Rows may lie in different contexts
    (an element and its algebra, the factors of a product, a pivot row
    and its right-hand side), but no input that would put two contexts
    into one Row is taken: Row.of, transpose and matrix.PadicMatrix.stack
    refuse it with ContextMismatch.  An empty Row lies in the context its
    caller gives.  A row is never changed after construction; its
    valuations, its key and its descriptor for Row.dot are computed when
    first read and kept, the valuations unless the operation that made
    the row knew them.  The passes over a row are plain loops: rows
    are often short, and one loop costs less per call than a
    comprehension per list.
    """

    __slots__ = ("pw", "base", "res", "prec", "ctx", "N", "_val", "_key", "_desc")

    def __init__(self, pw, base, res, prec, ctx, val=None):
        self.pw = pw  # the powers of p
        self.base = base
        self.res = res
        self.prec = prec
        self.ctx = ctx
        self.N = None if ctx is None else ctx.default_precision
        self._val = val
        self._key = None
        self._desc = None

    def __len__(self):
        return len(self.res)

    def __iter__(self):
        """The entries as PadicScalars, built on demand."""
        return iter(self.scalars())

    @staticmethod
    def of(entries, ctx: PrimeContext | None = None) -> "Row":
        """The row of the scalars entries, all of one context and of ctx's
        prime when ctx is given; an empty row lies in ctx.  A Row is its
        own row."""
        if isinstance(entries, Row):
            if ctx is not None and entries.pw is not None and entries.pw.p != ctx.p:
                raise ContextMismatch("mixed primes %d and %d" % (ctx.p, entries.pw.p))
            return entries
        res, prec, val = [], [], []
        base = last = None
        pw = _powers(ctx.p) if ctx is not None else None
        for e in entries:
            c = e.ctx
            if c is not last:
                if last is not None and c != last:
                    raise ContextMismatch(_mixed(last, c))
                if pw is None:
                    pw = _powers(c.p)
                elif c.p != pw.p:
                    raise ContextMismatch("mixed primes %d and %d" % (pw.p, c.p))
                last = c
            v, q = e.v, e.prec
            prec.append(q)
            if v is None:
                res.append(0)
                val.append(q)
                continue
            if base is None:
                base = v
            elif v < base:  # rebase the residues so far
                s = pw[base - v]
                res = [r * s for r in res]
                base = v
            res.append(e.u * pw[v - base])
            val.append(v)
        return Row(pw, 0 if base is None else base, res, prec, ctx if last is None else last, val)

    @staticmethod
    def unit(ctx: PrimeContext, n: int, k: int) -> "Row":
        """Row k of the n x n identity matrix of ctx."""
        N = ctx.default_precision
        return Row(_powers(ctx.p), 0, [int(j == k) for j in range(n)], [N] * n, ctx,
                   [0 if j == k else N for j in range(n)])

    @staticmethod
    def of_ints(ctx: PrimeContext, xs, prec=None) -> "Row":
        """The integers xs known modulo p^prec (by default N) in ctx."""
        pw = _powers(ctx.p)
        q = ctx.default_precision if prec is None else prec
        mod = pw[q]
        return Row(pw, 0, [x % mod for x in xs], [q] * len(xs), ctx)

    @staticmethod
    def zeros(ctx: PrimeContext, n: int) -> "Row":
        """n zero markers O(p^N) of ctx."""
        N = ctx.default_precision
        return Row(_powers(ctx.p), 0, [0] * n, [N] * n, ctx, [N] * n)

    def slice(self, start, stop=None, step=1) -> "Row":
        """The entries start, start + step, .. before stop, as a Row on the
        same base: a row or a column of a grid."""
        val = self._val
        return Row(self.pw, self.base, self.res[start:stop:step], self.prec[start:stop:step],
                   self.ctx, None if val is None else val[start:stop:step])

    def slices(self, starts, size, step=1) -> tuple:
        """The Rows of the size entries start, start + step, .. for each
        start in starts, on this row's base: the rows or the columns of a
        grid.  When this row has one precision, every slice shares one
        list of it, so the views a matrix or an algebra keeps cost little
        more than their residues and valuations."""
        pw, base, res, prec, ctx = self.pw, self.base, self.res, self.prec, self.ctx
        val = self._val or self.vals()
        span = (size - 1) * step + 1 if size else 0
        one_prec = prec and prec.count(prec[0]) == len(prec)
        q = prec[:size]
        out = []
        for s in starts:
            e = s + span
            if not one_prec:
                q = prec[s:e:step]
            out.append(Row(pw, base, res[s:e:step], q, ctx, val[s:e:step]))
        return tuple(out)

    def vals(self) -> list:
        if self._val is None:
            self._val = _vals(self.pw, self.base, self.res, self.prec)
        return self._val

    def val_at(self, k) -> int:
        if self._val is not None:
            return self._val[k]
        r, q = self.res[k], self.prec[k]
        if not r:
            return q
        pw = self.pw
        if r % pw.p:
            return self.base
        return self.base + pw.logs[gcd(r, pw[q - self.base])]

    def descriptor(self) -> tuple:
        """What Row.dot reads of this row or column: (residues,
        precisions, valuations, N, least valuation, the one precision of
        every entry or None when the precisions differ), a zero marker's
        valuation counting as its precision, and both minima None for an
        empty row.  Computed when first read, and kept, so the columns an
        algebra, a morphism or a matrix keeps are described once."""
        desc = self._desc
        if desc is None:
            prec, val = self.prec, self._val or self.vals()
            least = same = None
            if prec:
                least, same = min(val), prec[0]
                if prec.count(same) != len(prec):
                    same = None
            desc = self._desc = (self.res, prec, val, self.N, least, same)
        return desc

    def key(self) -> tuple:
        """The entries' values as one hashable tuple: the residues rebased
        to the least valuation of a nonzero entry (_rebased; the base is
        None when every entry is a zero marker), the precisions and the
        context.  Two Rows have equal keys exactly when they lie in one
        context and each entry has the same parts(), whatever their bases.
        Computed when first read, and kept."""
        key = self._key
        if key is None:
            res = self.res
            base = None
            if any(res):
                base, res = _rebased(self.pw, self.base, res, self.prec)
            key = self._key = (base, tuple(res), tuple(self.prec), self.ctx)
        return key

    def parts(self, k):
        """(valuation, unit, precision, N) of entry k, valuation and
        precision alike and unit 0 for a zero marker."""
        v = self.val_at(k)
        r = self.res[k]
        return v, r // self.pw[v - self.base] if r else 0, self.prec[k], self.N

    def scalar(self, k) -> PadicScalar:
        return PadicScalar.from_parts(self.ctx, self.parts(k))

    def scalars(self) -> list:
        pw, base, c = self.pw, self.base, self.ctx
        out = []
        for r, v, q in zip(self.res, self._val or self.vals(), self.prec):
            out.append(PadicScalar(c, v, r // pw[v - base], q) if r
                       else PadicScalar(c, None, 0, q))
        return out

    def lifted(self, ctx: PrimeContext) -> "Row":
        """The exact lift of every entry's residue into ctx, known modulo
        its p^N: a zero marker lifts to O(p^N)."""
        pw, base, N = self.pw, self.base, ctx.default_precision
        mod = pw[N - base]
        return Row(pw, base, [r % mod for r in self.res], [N] * len(self.res), ctx)

    def sub_mul(self, f, y: "Row") -> "Row":
        """self - f*y entry by entry, for f = (v, u, prec, N) as parts()
        gives them: the value, precision and context of x + (-(f * y)),
        whose ledger is min(prec_x, prec_f + v_y, prec_y + v_f, N_f, N_y)
        (_sub_mul)."""
        pw = self.pw
        if y.pw is not pw:
            raise ContextMismatch("mixed primes %d and %d" % (pw.p, y.pw.p))
        base, res, prec = _sub_mul(pw, self.base, self.res, self.prec, f,
                                   y.base, y.res, y.prec, y._val or y.vals(), y.N)
        return Row(pw, base, res, prec, self.ctx)

    def scaled(self, s, ctx: PrimeContext | None = None) -> "Row":
        """Every entry times the scalar s = (v, u, prec, N) as parts()
        gives it (a zero marker's valuation its precision), with the
        ledger of _times (_scaled); the products lie in ctx when it is
        given (s * x, s of ctx), else in this row's context (x * s)."""
        base, res, prec, val = _scaled(self.pw, self.base, self.res, self.prec,
                                       self._val or self.vals(), s, self.N)
        return Row(self.pw, base, res, prec, self.ctx if ctx is None else ctx, val)

    def times(self, c: PadicScalar) -> "Row":
        """c * x for every entry x, with the ledger of PadicScalar * in c's
        context; a scalar of another prime is refused."""
        if c.ctx.p != self.pw.p:
            raise ContextMismatch("mixed primes %d and %d" % (c.ctx.p, self.pw.p))
        return self.scaled(c.parts(), c.ctx)

    def combined(self, other: "Row", sign: int) -> "Row":
        """self + sign * other entry by entry, with the ledger of
        PadicScalar + (and of -, which adds the negation): precision
        min(prec a, prec b), in self's context."""
        pw = self.pw
        base = min(self.base, other.base)
        s, t = pw[self.base - base], sign * pw[other.base - base]
        res, prec = [], []
        for r, q, x, w in zip(self.res, self.prec, other.res, other.prec):
            if w < q:
                q = w
            prec.append(q)
            res.append((r * s + x * t) % pw[q - base])
        return Row(pw, base, res, prec, self.ctx)

    def negated(self) -> "Row":
        pw, base = self.pw, self.base
        res = [(-r) % pw[q - base] for r, q in zip(self.res, self.prec)]
        return Row(pw, base, res, self.prec, self.ctx, self._val)

    def rehomed(self, ctx: PrimeContext) -> "Row":
        """Every entry as a scalar of ctx: reduced to its N."""
        out = self.reduced(ctx.default_precision)
        return Row(out.pw, out.base, out.res, out.prec, ctx)

    def reduced(self, prec: int) -> "Row":
        """Every entry with the digits beyond p^prec forgotten."""
        pw, base = self.pw, self.base
        res, precs = [], []
        for r, q in zip(self.res, self.prec):
            if prec < q:
                q = prec
                r %= pw[q - base]
            res.append(r)
            precs.append(q)
        return Row(pw, base, res, precs, self.ctx)

    def agrees(self, other: "Row", prec: int) -> bool:
        """Entrywise equality mod p^prec, False unless every entry of both
        is known mod p^prec; False on mixed lengths or primes, as
        congruent decides them."""
        res = self.res
        if len(res) != len(other.res):
            return False
        if not res:
            return True
        pw = self.pw
        if other.pw is not pw:
            return False
        base = min(self.base, other.base)
        s, t, mod = pw[self.base - base], pw[other.base - base], pw[prec - base]
        for r, q, x, w in zip(res, self.prec, other.res, other.prec):
            if q < prec or w < prec or (r * s - x * t) % mod:
                return False
        return True

    def min_valuation(self) -> int | None:
        """Least valuation of a nonzero entry: the base plus the valuation
        of the gcd of the residues, each reduced below its precision; None
        when every entry is a zero marker."""
        g = gcd(*self.res)
        if not g:
            return None
        p = self.pw.p
        return self.base if g % p else self.base + _series.int_valuation(g, p)

    @staticmethod
    def dot(rows, columns, ctx: PrimeContext) -> "Row":
        """The dot products of each Row of rows, nonempty and on one base,
        with each Row of columns, on one base, of the rows' length and of
        the rows' prime, as one rebased Row of ctx in row-major order: the
        value and precision of adding the products a*b one by one to a
        zero marker of ctx.  That precision is the least of ctx's N and,
        over the terms, min(prec a + v b, prec b + v a, N a, N b), a zero
        marker's valuation counting as its precision; each product is
        exact modulo its own precision, so the exact sum of the scaled
        residues, reduced mod p^(precision - base), has the digits of the
        fold.

        The ledger is taken in halves, min over the terms of prec a + v b
        and of prec b + v a.  When every entry of the row has one
        precision P, min(P + v b) is P + min(v b) exactly, and likewise
        for a column of one precision, so that half is read from the
        operands' descriptors (Row.descriptor, kept per Row) instead of a
        pass over the terms; a column the caller keeps is described on
        its first product only."""
        pw = rows[0].pw
        if columns and columns[0].pw is not pw:
            raise ContextMismatch("mixed primes %d and %d" % (pw.p, columns[0].pw.p))
        base = rows[0].base + (columns[0].base if columns else 0)
        N = ctx.default_precision
        out_res, out_prec = [], []
        for row in rows:
            res, prec, vals, cap, least, same = row._desc or row.descriptor()
            if N < cap:
                cap = N
            for col in columns:
                cres, cprec, cvals, ccap, cleast, csame = col._desc or col.descriptor()
                q = same + cleast if same is not None else min(map(add, prec, cvals))
                w = csame + least if csame is not None else min(map(add, cprec, vals))
                if w < q:
                    q = w
                if ccap < q:
                    q = ccap
                if cap < q:
                    q = cap
                out_prec.append(q)
                out_res.append(sum(map(mul, res, cres)) % pw[q - base])
        base, out_res = _rebased(pw, base, out_res, out_prec)
        return Row(pw, base, out_res, out_prec, ctx)


def _vals(pw, base, res, prec) -> list:
    """The valuation of each entry res[k] * p^base known mod p^prec[k], a
    zero marker's being its precision."""
    p, logs = pw.p, pw.logs
    val = []
    for r, q in zip(res, prec):
        val.append(q if not r else base if r % p else base + logs[gcd(r, pw[q - base])])
    return val


def _parts(pw, base, r, q, N):
    """(valuation, unit, precision, N) of the entry r * p^base known mod
    p^q, r reduced mod p^(q - base), of a context of ambient precision N:
    Row.parts on the lists of a row."""
    if not r:
        return q, 0, q, N
    if r % pw.p:
        return base, r, q, N
    t = pw.logs[gcd(r, pw[q - base])]
    return base + t, r // pw[t], q, N


def _sub_mul(pw, base, res, prec, f, ybase, yres, yprec, yval, ycap):
    """(base, residues, precisions) of x - f*y entry by entry, x and y
    given by their lists on their bases, y with its valuations and the N
    of its context: the one body of a row operation (Row.sub_mul and the
    replay of Elimination)."""
    fv, fu, fprec, cap = f
    if ycap < cap:
        cap = ycap
    if fu:
        out = min(base, fv + ybase)
        s, g = pw[base - out], fu * pw[fv + ybase - out]
        base = out
    else:  # f * y vanishes to the ledger's precision
        s, g = 1, 0
    out_res, out_prec = [], []
    for a, r, b, c, t in zip(prec, res, yval, yprec, yres):
        q = fprec + b
        c += fv
        if c < q:
            q = c
        if a < q:
            q = a
        if cap < q:
            q = cap
        out_prec.append(q)
        out_res.append((r * s - g * t) % pw[q - base])
    return base, out_res, out_prec


def _scaled(pw, base, res, prec, val, s, cap):
    """(base, residues, precisions, valuations) of every entry times the
    scalar s = (v, u, prec, N), for a row given by its lists, its
    valuations and the N of its context: the one body of a pivot scaling
    (Row.scaled and the replay of Elimination), with the ledger of
    _times."""
    sv, su, sprec, scap = s
    if scap < cap:
        cap = scap
    base += sv
    out_res, out_prec, out_val = [], [], []
    for r, v, q in zip(res, val, prec):
        w = v + sprec
        q += sv
        if w < q:
            q = w
        if cap < q:
            q = cap
        out_prec.append(q)
        out_res.append((su * r) % pw[q - base])
        # a unit multiple keeps the valuation, shifted by sv, unless the
        # product vanishes to its precision
        v += sv
        out_val.append(v if r and v < q else q)
    return base, out_res, out_prec, out_val


def _mixed(a: PrimeContext, b: PrimeContext) -> str:
    """The refusal of the contexts a and b in one Row."""
    if a.p != b.p:
        return "mixed primes %d and %d" % (a.p, b.p)
    return "mixed contexts %r and %r in one row" % (a, b)


def one_context(rows) -> PrimeContext:
    """The one context of the Rows rows (nonempty), refusing Rows of two
    contexts, which would have to share one Row."""
    ctx = rows[0].ctx
    for r in rows:
        if r.ctx is not ctx and r.ctx != ctx:
            raise ContextMismatch(_mixed(ctx, r.ctx))
    return ctx


def _rebased(pw, base, res, prec):
    """(base, res) moved to the least valuation of the nonzero entries, or
    to the least precision when there is none, in the product kernels: a
    product's base is the sum of its operands', so repeated products would
    push it down."""
    g = gcd(*res)
    if not g:
        return min(prec, default=base), res
    if g % pw.p:
        return base, res
    t = _series.int_valuation(g, pw.p)
    s = pw[t]
    return base + t, [r // s for r in res]


def congruent(a: Row, b: Row) -> bool:
    """Whether every entry of a equals the same entry of b modulo the
    lesser of their precisions, as PadicScalar equality decides it; False
    on mixed primes or lengths (Row.agrees decides equality modulo one
    given precision)."""
    if len(a.res) != len(b.res):
        return False
    if not a.res:
        return True
    pw = a.pw
    if b.pw is not pw:
        return False
    base = min(a.base, b.base)
    s, t = pw[a.base - base], pw[b.base - base]
    for r, q, x, w in zip(a.res, a.prec, b.res, b.prec):
        if w < q:
            q = w
        if (r * s - x * t) % pw[q - base]:
            return False
    return True


def transpose(cols) -> list:
    """The Rows across the Rows cols, all of one context and one length:
    row t holds entry t of every column, rescaled to the least base among
    them."""
    if not cols:
        return []
    ctx = one_context(cols)
    pw = cols[0].pw
    base = min(c.base for c in cols)
    res = [c.res if c.base == base else [r * pw[c.base - base] for r in c.res] for c in cols]
    known = all(c._val is not None for c in cols)
    return [Row(pw, base, [r[t] for r in res], [c.prec[t] for c in cols], ctx,
                [c._val[t] for c in cols] if known else None)
            for t in range(len(cols[0].res))]


@dataclass
class Elimination:
    """Row echelon data for a PadicScalar matrix, held as integer Rows.

    A reduced elimination (reduce_above=True) also keeps its row
    operations, so solve() can apply them to any number of right-hand sides
    without eliminating the matrix again.
    """

    int_rows: list  # worked matrix as Rows (row echelon, possibly reduced)
    pivots: list  # [(row, col)] in elimination order
    margin: int | None  # smallest confidence gap behind any rank decision
    nrows: int
    ncols: int
    min_margin: int  # evidence required of every zero decision
    ctx: PrimeContext | None  # context of the first row; None when empty
    # per pivot step (pivot row, [(target row, factor parts)], the parts
    # of the pivot inverse); None unless the elimination was reduced
    steps: list | None
    pivot_of_col: dict = field(repr=False)  # pivot column -> its row
    free_rows: list = field(repr=False)  # rows without a pivot, in order

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rhs_cols):
        """Solve mat @ X = rhs for each right-hand-side column (a list of
        PadicScalars or a Row); returns the solution columns as
        PadicScalars, or None if the system is inconsistent to precision:
        the scalar view of solve_rows."""
        rhs_cols = list(rhs_cols)
        rows = self.solve_rows(rhs_cols)
        if rows is None:
            return None
        if not self.ncols:
            return [[] for _ in rhs_cols]
        return list(map(list, zip(*(r.scalars() for r in rows))))

    def solve_rows(self, rhs_cols):
        """Solve mat @ X = rhs for one or more right-hand-side columns (lists
        of PadicScalars or Rows): per unknown, one Row of its values across
        the columns, or None if the system is inconsistent to precision.

        The columns go through the recorded row operations, which is the
        arithmetic they would see as extra columns of the elimination, and
        are then checked as such: row by row, each row across all columns.
        """
        cols = self._right_hand_sides(rhs_cols)
        if not cols:
            return [Row.zeros(self.ctx, 0) for _ in range(self.ncols)]
        # one row per matrix row, across the columns, so every recorded
        # operation is a row operation
        return self._solved(transpose(cols))

    def solve_row(self, col) -> Row | None:
        """The solution of mat @ x = col for one column col (a Row, or a
        list of PadicScalars) of length nrows, as one Row over the
        unknowns (ncols >= 1), or None when the system is inconsistent to
        precision: what solve_rows gives on [col], read across the
        unknowns.  The column is replayed as nrows one-entry lists, with
        no Row built per step and no transpose; the unknowns' entries are
        put on their least base, and unknowns in two contexts are refused
        with ContextMismatch, as transpose refuses them."""
        (col,) = self._right_hand_sides([col])
        n = self.nrows
        rows = ([col.base] * n, [[r] for r in col.res], [[q] for q in col.prec],
                [None] * n if col._val is None else [[v] for v in col._val], [col.ctx] * n)
        if not self._replay(col.pw, *rows):
            return None
        bases, res, prec, val, ctxs = rows
        pw, ctx, N = col.pw, None, self.ctx.default_precision
        out_base, out_res, out_prec, out_val = [], [], [], []
        for j in range(self.ncols):
            i = self.pivot_of_col.get(j)
            if i is None:  # a free unknown: the zero marker O(p^N) of the elimination
                c, b, r, q, v = self.ctx, 0, 0, N, N
            else:
                c, b, r, q, v = ctxs[i], bases[i], res[i][0], prec[i][0], val[i] and val[i][0]
            if ctx is None:
                ctx = c
            elif c is not ctx and c != ctx:
                raise ContextMismatch(_mixed(ctx, c))
            out_base.append(b)
            out_res.append(r)
            out_prec.append(q)
            out_val.append(v)
        base = min(out_base)
        for k, b in enumerate(out_base):
            if b != base:
                out_res[k] *= pw[b - base]
        return Row(pw, base, out_res, out_prec, ctx, None if None in out_val else out_val)

    def inverse(self):
        """The rows of the inverse of the eliminated square matrix as Rows:
        solve() on the identity columns; None when the matrix is singular
        to precision."""
        n = self.nrows
        return self._solved([Row.unit(self.ctx, n, i) for i in range(n)])

    def _right_hand_sides(self, cols) -> list:
        """The columns cols as Rows, refused unless the elimination kept
        its steps and each column has nrows entries."""
        if self.steps is None:
            raise ValueError("solve needs a reduced elimination (reduce_above=True)")
        for col in cols:
            if len(col) != self.nrows:
                raise DimensionMismatch(
                    "right-hand side of length %d for a system of %d rows"
                    % (len(col), self.nrows)
                )
        return [Row.of(c, self.ctx) for c in cols]

    def _solved(self, rows):
        """Per unknown, a Row of its values across the Rows rows (one per
        matrix row) after the replay: the pivot row of its column, or
        zeros for a free unknown; None when the system is inconsistent."""
        lists = ([r.base for r in rows], [r.res for r in rows], [r.prec for r in rows],
                 [r._val for r in rows], [r.ctx for r in rows])
        pw = rows[0].pw if rows else None
        if not self._replay(pw, *lists):
            return None
        bases, res, prec, val, ctxs = lists
        count = len(rows[0].res) if rows else 0
        out = []
        for j in range(self.ncols):
            i = self.pivot_of_col.get(j)
            out.append(Row.zeros(self.ctx, count) if i is None
                       else Row(pw, bases[i], res[i], prec[i], ctxs[i], val[i]))
        return out

    def _replay(self, pw, bases, res, prec, val, ctxs) -> bool:
        """Rows of the prime pw, given as parallel lists of their bases,
        residues, precisions, valuations (or None) and contexts, through
        the recorded row operations, in place, with the bodies of
        Row.sub_mul and Row.scaled; False when a row without a pivot keeps
        a nonzero entry."""
        int_rows = self.int_rows
        for pi, targets, pinv in self.steps:
            ybase, yres, yprec = bases[pi], res[pi], prec[pi]
            yval = val[pi] or _vals(pw, ybase, yres, yprec)
            ycap = ctxs[pi].default_precision
            for i, f in targets:
                bases[i], res[i], prec[i] = _sub_mul(pw, bases[i], res[i], prec[i], f,
                                                     ybase, yres, yprec, yval, ycap)
                val[i] = None
            # into the pivot's context, which its worked row keeps
            bases[pi], res[pi], prec[pi], val[pi] = _scaled(pw, ybase, yres, yprec, yval,
                                                            pinv, ycap)
            ctxs[pi] = int_rows[pi].ctx
        # consistency: non-pivot rows must have vanishing right-hand sides
        for i in self.free_rows:
            for r, q in zip(res[i], prec[i]):
                if r:
                    return False
                if q < self.min_margin:
                    raise PrecisionExhausted(
                        "consistency of a linear system decided on %d digits "
                        "(< %d)" % (q, self.min_margin)
                    )
        return True


def reduce_vector(vec: Row, pivot_rows) -> Row:
    """vec reduced by each (pivot column j, Row) in turn: where vec[j] is
    nonzero, vec - (vec[j] / row[j]) * row, one exact-ledger row operation."""
    for j, row in pivot_rows:
        if vec.res[j]:
            pw = vec.pw
            vec = vec.sub_mul(_times(pw, vec.parts(j), _inverse(pw, row.parts(j))), row)
    return vec


def _min_margin_update(margin, value):
    return value if margin is None else min(margin, value)


def eliminate(mat, reduce_above=False, min_margin=DEFAULT_SLACK):
    """Gaussian elimination with minimal-valuation pivoting.

    reduce_above additionally clears pivot columns upwards and normalises
    pivots to 1, yielding a reduced echelon form, and records the row
    operations for Elimination.solve.  mat is a list of rows, each a
    list of PadicScalars or a Row.
    """
    work = []
    for row in mat:
        work.append(Row.of(row, work[0].ctx if work else None))
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    ctx, pw = (work[0].ctx, work[0].pw) if ncols else (None, None)
    free_rows = list(range(nrows))
    free_cols = list(range(ncols))
    pivots = []
    pivot_of_col = {}
    done = []  # pivot rows of the steps so far
    steps = [] if reduce_above else None
    margin = None

    while free_rows and free_cols:
        # the least (valuation, row, column) of a nonzero entry: rows and
        # columns are scanned in increasing order
        best = None
        for i in free_rows:
            vals, prec = work[i].vals(), work[i].prec
            for j in free_cols:
                v = vals[j]
                if v < prec[j] and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        y = work[pi]
        pivot = y.parts(pj)
        margin = _min_margin_update(margin, pivot[2] - pivot[0])
        pivots.append((pi, pj))
        pivot_of_col[pj] = pi
        free_rows.remove(pi)
        free_cols.remove(pj)
        targets = free_rows + done if reduce_above else free_rows
        done.append(pi)
        pivot_inv = None  # _inverse refuses only once it is used
        updated = []
        # every row is of pw's prime (Row.of), so the steps run the list
        # bodies of Row.sub_mul and Row.scaled on the pivot row's lists,
        # whose valuations the search has just read
        for i in targets:
            x = work[i]
            if not x.res[pj]:
                continue
            if pivot_inv is None:
                pivot_inv = _inverse(pw, pivot)
            f = _times(pw, x.parts(pj), pivot_inv)
            base, res, prec = _sub_mul(pw, x.base, x.res, x.prec, f,
                                       y.base, y.res, y.prec, y._val, y.N)
            work[i] = Row(pw, base, res, prec, x.ctx)
            updated.append((i, f))
        if reduce_above:
            if pivot_inv is None:
                pivot_inv = _inverse(pw, pivot)
            base, res, prec, val = _scaled(pw, y.base, y.res, y.prec, y._val, pivot_inv, y.N)
            work[pi] = Row(pw, base, res, prec, y.ctx, val)
            steps.append((pi, updated, pivot_inv))

    # every remaining candidate entry vanished to precision; record how
    # confidently, and refuse to decide on thin evidence
    for i in free_rows:
        row = work[i]
        for j in free_cols:
            if row.res[j]:  # unreachable unless the loop broke early
                raise AssertionError("nonzero entry left after elimination")
            prec = row.prec[j]
            margin = _min_margin_update(margin, prec)
            if prec < min_margin:
                raise PrecisionExhausted(
                    "rank decision at (%d,%d) rests on a value vanishing only "
                    "mod p^%d (< required margin %d); raise the working "
                    "precision" % (i, j, prec, min_margin)
                )
    return Elimination(work, pivots, margin, nrows, ncols, min_margin, ctx, steps,
                       pivot_of_col, free_rows)


def rank_with_margin(mat, min_margin=DEFAULT_SLACK):
    if not mat or not mat[0]:
        return 0, None
    e = eliminate(mat, min_margin=min_margin)
    return e.rank, e.margin


def kernel_basis(mat, min_margin=DEFAULT_SLACK):
    """Basis of {x : mat @ x = 0} (right kernel), via reduced echelon form."""
    if not mat:
        return []
    e = eliminate(mat, reduce_above=True, min_margin=min_margin)
    ncols, ctx = e.ncols, e.ctx
    pivot_of_col = e.pivot_of_col
    free = [j for j in range(ncols) if j not in pivot_of_col]
    basis = []
    for f in free:
        vec = [None] * ncols
        for j in range(ncols):
            if j == f:
                vec[j] = PadicScalar.from_int(ctx, 1)
            elif j in pivot_of_col:
                vec[j] = -e.int_rows[pivot_of_col[j]].scalar(f)
            else:
                vec[j] = PadicScalar.zero(ctx)
        basis.append(vec)
    return basis


def solve(mat, rhs_cols, min_margin=DEFAULT_SLACK):
    """Solve mat @ X = rhs for each right-hand-side column; returns the
    solution columns, or None if the system is inconsistent to precision.

    mat: m x n rows of PadicScalar; rhs_cols: list of length-m columns.
    To solve against one matrix repeatedly, eliminate it once and call
    Elimination.solve instead.
    """
    return eliminate(mat, reduce_above=True, min_margin=min_margin).solve(rhs_cols)


def invert(mat, min_margin=DEFAULT_SLACK):
    """Matrix inverse via the reduced elimination applied to the identity,
    as rows of PadicScalars; None when the matrix is singular to
    precision."""
    rows = eliminate(mat, reduce_above=True, min_margin=min_margin).inverse()
    return None if rows is None else [r.scalars() for r in rows]


def triangular_lattice_rows(cols) -> list:
    """Hermite-style column reduction of generating columns to a
    triangular basis of the Z_p-lattice they span, using only unimodular
    operations over Z_p (scaling by units, subtracting p-power multiples):
    column r of the result vanishes to precision above row r and holds the
    pure power p^v at row r.  Each column is a list of PadicScalars or a
    Row; the basis columns are Rows.

    This is the order saturation of components, whose lattice coordinates
    keep their ledger: its PrecisionExhausted refusals read it.  The Krylov
    basis of algebra exp/log takes the same pivot rule on plain integers
    (_series.krylov_basis), as its basis is then taken as exact."""
    cols = [Row.of(c) for c in cols]
    out = []
    for row in range(len(cols[0].res)):
        best = None
        for ci, col in enumerate(cols):
            if not col.res[row]:
                continue
            v = col.val_at(row)
            if best is None or v < best_v:
                best, best_v = ci, v
        if best is None:
            raise IntegralStructureFailure("lattice generators do not span")
        col = cols.pop(best)
        pw = col.pw
        v, u, prec, N = col.parts(row)
        # the pivot becomes the pure power p^v
        col = col.scaled(_inverse(pw, (0, u, prec - v, N)))
        pivot_inv = None
        for ci, other in enumerate(cols):
            if not other.res[row]:
                continue
            if pivot_inv is None:
                pivot_inv = _inverse(pw, col.parts(row))
            # integral since the pivot has minimal valuation
            cols[ci] = other.sub_mul(_times(pw, other.parts(row), pivot_inv), col)
        out.append(col)
    return out
