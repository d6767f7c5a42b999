"""Matrices of p-adic scalars, and the matrix exponential/logarithm.

A PadicMatrix is one integer grid in the layout of linalg.Row: its shape
(nrows x ncols) and a Row of the nrows * ncols entries in row-major order,
on one base valuation and in one context, with per entry a residue, a
precision and a valuation (computed when first read).  One precision is
kept per entry, not per matrix, as in the per-entry-precision linear
algebra of Caruso, Roe and Vaccon (p-adic stability in linear algebra,
ISSAC 2015); the context, and so the ambient precision N, is one per
grid, and from_rows, stack and block_diag refuse input that would mix
two (ContextMismatch).  Rows and columns are slices of the grid
(int_rows, int_columns), so elimination and the product kernel read them
without building scalars; each view is made once per matrix, on first
read, and kept as a tuple, so a matrix that enters many products is
sliced once and no caller can grow a kept view.  The slices share the
list of precisions when it is one value throughout the grid
(Row.slices), and a view lives as long as its matrix: a check on
matrices a caller holds takes its products on fresh matrices over the
same grids (higgs._detached).

Arithmetic works on the grid, each entry with the ledger of the scalar
expression it replaces (scalar.py): + and - that of PadicScalar + and -
(in the left operand's context), scale and kron that of the products
c*a and a*b, and @ that of summing the entry products a*b one by one,
each output entry one dot product of a row and a column (Row.dot), in
the context of the left factor's grid; the two factors may lie in
different contexts.  ==, agrees and the precision queries decide on
residues as PadicScalar ==, agrees, is_zero and v do.  +, -, negation, scale, rehomed, reduced,
agrees and min_valuation are the bodies on Row that algebra elements
share (linalg.py).  The scalars of entries, m[i, j] and rows() are built
on demand, in the normal form of scalar._scaled_residue.

Matrix exp/log are the workhorses of the local correspondence, so they lift
entries to integer residues and run the exact mod-p^W kernels rather than
summing PadicScalar terms; the wrappers re-wrap results at the precision the
input supports (exp and log preserve absolute precision on their domains),
and refuse with PrecisionExhausted an input known to no digit.

PadicMatrix, like PadicScalar, is a plain slotted class whose fields are
never written to after construction (checked over the sources by
tests/test_values.py; only the two kept views are filled in later) and is
unhashable, its equality being precision-relative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from . import _series, linalg
from .context import PrimeContext
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    PadicError,
    PrecisionExhausted,
)
from .scalar import PadicScalar, power


@dataclass(slots=True)
class PadicMatrix:
    ctx: PrimeContext
    nrows: int
    ncols: int
    grid: linalg.Row  # the entries in row-major order
    # the rows and columns as Rows, made on first read and kept
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_rows(ctx: PrimeContext, rows) -> "PadicMatrix":
        """The matrix of rows of PadicScalars, all of one context of ctx's
        prime (ctx for an empty matrix)."""
        n, m, flat = _row_major(rows)
        return PadicMatrix(ctx, n, m, linalg.Row.of(flat, ctx))

    @staticmethod
    def from_ints(ctx: PrimeContext, rows, prec: int | None = None) -> "PadicMatrix":
        """The matrix of integers known mod p^prec (default N) in ctx."""
        n, m, flat = _row_major(rows)
        return PadicMatrix(ctx, n, m, linalg.Row.of_ints(ctx, flat, prec))

    @staticmethod
    def identity(ctx: PrimeContext, n: int) -> "PadicMatrix":
        return PadicMatrix.from_ints(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ctx: PrimeContext, n: int, m: int | None = None) -> "PadicMatrix":
        m = n if m is None else m
        return PadicMatrix(ctx, n, m, linalg.Row.zeros(ctx, n * m))

    def _like(self, grid: linalg.Row) -> "PadicMatrix":
        return PadicMatrix(self.ctx, self.nrows, self.ncols, grid)

    # -- the scalar surface and the integer views ---------------------------

    @property
    def entries(self) -> tuple:
        """The entries as a tuple of rows of PadicScalars, built on each
        read."""
        flat, m = self.grid.scalars(), self.ncols
        return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(self.nrows))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry (%d, %d) of a %d x %d matrix"
                             % (i, j, self.nrows, self.ncols))
        return self.grid.scalar(i * self.ncols + j)

    def rows(self):
        return [list(r) for r in self.entries]

    def int_rows(self) -> tuple:
        """The rows as Rows, slices of the grid, made on first read and
        kept."""
        rows = self._rows
        if rows is None:
            m = self.ncols
            rows = self._rows = self.grid.slices([i * m for i in range(self.nrows)], m)
        return rows

    def int_columns(self) -> tuple:
        """The columns as Rows, slices of the grid, made on first read and
        kept."""
        cols = self._columns
        if cols is None:
            m = self.ncols
            cols = self._columns = self.grid.slices(range(m), self.nrows, m)
        return cols

    def __repr__(self):
        body = "; ".join(" ".join(x.to_string() for x in row) for row in self.entries)
        return "PadicMatrix[%s]" % body

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "PadicMatrix"):
        if self.ctx.p != other.ctx.p:
            raise ContextMismatch("mixed primes %d, %d" % (self.ctx.p, other.ctx.p))

    def _check_shape(self, other: "PadicMatrix", op: str):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("%s of a %d x %d and a %d x %d matrix"
                                    % (op, self.nrows, self.ncols, other.nrows, other.ncols))

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_shape(other, "sum")
        return self._like(self.grid.combined(other.grid, 1))

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_shape(other, "difference")
        return self._like(self.grid.combined(other.grid, -1))

    def __neg__(self) -> "PadicMatrix":
        return self._like(self.grid.negated())

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        """Product with the precision ledger of summing the entry products
        a*b one by one: one dot product per row of self and column of
        other, in the context of self's grid, as the fold's result is;
        with no terms, zero markers O(p^N) of self.ctx."""
        self._check(other)
        n, k, m = self.nrows, self.ncols, other.ncols
        if k != other.nrows:
            raise DimensionMismatch("product of a %d x %d and a %d x %d matrix"
                                    % (n, k, other.nrows, m))
        if not (n and k):
            return PadicMatrix.zeros(self.ctx, n, m)
        return PadicMatrix(self.ctx, n, m, linalg.Row.dot(
            self.int_rows(), other.int_columns(), self.grid.ctx))

    def scale(self, c: PadicScalar) -> "PadicMatrix":
        """c * a for every entry a, with the ledger of PadicScalar * in
        c's context."""
        return self._like(self.grid.times(c))

    def transpose(self) -> "PadicMatrix":
        return PadicMatrix.stack(self.ctx, self.int_columns(), self.nrows)

    def trace(self) -> PadicScalar:
        acc = self[0, 0]
        for i in range(1, self.nrows):
            acc = acc + self[i, i]
        return acc

    def __pow__(self, k: int) -> "PadicMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, PadicMatrix.identity(self.ctx, self.nrows), operator.matmul)

    def inverse(self) -> "PadicMatrix":
        rows = linalg.eliminate(self.int_rows(), reduce_above=True).inverse()
        if rows is None:
            raise NotAUnit("matrix is singular to precision")
        return PadicMatrix.stack(self.ctx, rows, self.ncols)

    @staticmethod
    def stack(ctx: PrimeContext, rows, ncols: int) -> "PadicMatrix":
        """The matrix of the Rows rows, each of ncols entries and all of
        one context, on their least base."""
        if not rows:
            return PadicMatrix.zeros(ctx, 0, ncols)
        grid_ctx = linalg.one_context(rows)
        pw = rows[0].pw
        base = min(r.base for r in rows)
        res, prec = [], []
        for r in rows:
            res += r.res if r.base == base else [x * pw[r.base - base] for x in r.res]
            prec += r.prec
        return PadicMatrix(ctx, len(rows), ncols, linalg.Row(pw, base, res, prec, grid_ctx))

    def kron(self, other: "PadicMatrix") -> "PadicMatrix":
        """Kronecker product (tensor of operators in the standard basis),
        each entry a*b with the ledger of PadicScalar * in a's context:
        row k of other scaled by each entry a of row i of self, in turn,
        makes row (i, k) of the product."""
        self._check(other)
        a, m, rows = self.grid, self.ncols, other.int_rows()
        pieces = [row.scaled(a.parts(j), a.ctx) for i in range(self.nrows)
                  for row in rows for j in range(i * m, (i + 1) * m)]
        grid = PadicMatrix.stack(self.ctx, pieces, other.ncols).grid
        return PadicMatrix(self.ctx, self.nrows * other.nrows, m * other.ncols, grid)

    @staticmethod
    def block_diag(a: "PadicMatrix", b: "PadicMatrix") -> "PadicMatrix":
        """The block matrix with a top left, b bottom right and zero markers
        O(p^N) elsewhere, in the one context of a's and b's grids."""
        a._check(b)
        ctx = linalg.one_context((a.grid, b.grid))
        pw = a.grid.pw
        base = min(a.grid.base, b.grid.base)
        N, k, m = ctx.default_precision, a.ncols, b.ncols
        res, prec = [], []
        for x, left, right in ((a, 0, m), (b, k, 0)):
            g, w = x.grid, x.ncols
            s = pw[g.base - base]
            for i in range(x.nrows):
                cut = slice(i * w, (i + 1) * w)
                res += [0] * left + [r * s for r in g.res[cut]] + [0] * right
                prec += [N] * left + g.prec[cut] + [N] * right
        return PadicMatrix(a.ctx, a.nrows + b.nrows, k + m, linalg.Row(pw, base, res, prec, ctx))

    def rehomed(self, ctx: PrimeContext) -> "PadicMatrix":
        """Every entry as a scalar of ctx, capped at its N."""
        return PadicMatrix(ctx, self.nrows, self.ncols, self.grid.rehomed(ctx))

    # -- precision and comparisons ----------------------------------------

    def min_precision(self) -> int:
        return min(self.grid.prec)

    def min_valuation(self) -> int | None:
        """Smallest entry valuation; None when the whole matrix vanishes to
        precision."""
        return self.grid.min_valuation()

    def is_zero_to_precision(self) -> bool:
        return not any(self.grid.res)

    def agrees(self, other: "PadicMatrix", prec: int) -> bool:
        """Entrywise equality mod p^prec; False on a shape mismatch."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.grid.agrees(other.grid, prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return linalg.congruent(self.grid, other.grid)

    __hash__ = None

    def commutes_with(self, other: "PadicMatrix") -> bool:
        return (self @ other - other @ self).is_zero_to_precision()

    def residues(self, prec: int):
        """Integer residue grid mod p^prec (entries must be integral)."""
        g = self.grid
        pw, base = g.pw, g.base
        flat = []
        for r, q, v in zip(g.res, g.prec, g._val or g.vals()):
            if not r:
                flat.append(0)
            elif v < 0:
                raise PadicError("value with valuation %d has no integer residue" % v)
            else:
                k = q if q < prec else prec
                flat.append((r * pw[base] if base >= 0 else r // pw[-base]) % pw[k])
        m = self.ncols
        return [flat[i * m:(i + 1) * m] for i in range(self.nrows)]

    def reduced(self, prec: int) -> "PadicMatrix":
        return self._like(self.grid.reduced(prec))


def _row_major(rows):
    """(rows, columns, entries in row-major order) of a list of rows,
    refusing rows of different lengths."""
    rows = [list(r) for r in rows]
    m = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != m:
            raise DimensionMismatch("rows of lengths %d and %d" % (m, len(r)))
    return len(rows), m, [x for r in rows for x in r]


def mat_exp(m: PadicMatrix) -> PadicMatrix:
    """exp of a square matrix with all entries of valuation >= e0.

    Exact when the matrix is nilpotent: its characteristic polynomial is
    x^n, and the engine (_series._poly_eval) reduces the series modulo the
    characteristic polynomial exactly, so the sum is that of the terms
    below t^n and no term is cut off that could survive; in general
    truncated once the term valuation passes the working precision.
    """
    ctx = m.ctx
    e0 = ctx.e0
    v = m.min_valuation()
    if v is not None and v < e0:
        raise OutsideExpDomain(
            "matrix exp needs entry valuations >= %d at p = %d; found %d"
            % (e0, ctx.p, v)
        )
    prec = min(m.min_precision(), ctx.default_precision)
    if v is None:  # zero to precision: exp = 1 + O(p^prec)
        return PadicMatrix.identity(ctx, m.nrows).reduced(prec)
    return _run_kernel(_series.exp_matrix, m, e0, prec)


def mat_log(m: PadicMatrix) -> PadicMatrix:
    """log of a square matrix congruent to the identity mod p.

    Converges for val(m - 1) >= 1; inverts mat_exp exactly to precision on
    the domain val(m - 1) >= e0.
    """
    ctx = m.ctx
    t = m - PadicMatrix.identity(ctx, m.nrows)
    v = t.min_valuation()
    prec = min(m.min_precision(), ctx.default_precision)
    if v is None:
        return PadicMatrix.zeros(ctx, m.nrows).reduced(prec)
    if v < 1:
        raise OutsideLogDomain(
            "matrix log needs m = 1 mod p; found valuation %d" % v
        )
    return _run_kernel(_series.log_matrix, m, v, prec)


def expm1_quotient(m: PadicMatrix) -> PadicMatrix:
    """The unit u with exp(m) - 1 = m * u (so u = sum m^k/(k+1)!).

    u is congruent to the identity mod p, hence invertible, and commutes
    with m; it witnesses the unit-scaling comparison between the Koszul
    complexes of m and of exp(m) - 1.
    """
    ctx = m.ctx
    e0 = ctx.e0
    v = m.min_valuation()
    if v is not None and v < e0:
        raise OutsideExpDomain(
            "series needs entry valuations >= %d; found %d" % (e0, v)
        )
    prec = min(m.min_precision(), ctx.default_precision)
    return _run_kernel(_series.expm1_quotient_matrix, m, e0, prec)


def _run_kernel(kernel, m, e, prec):
    """kernel(residues of m, p, e, prec) re-wrapped at prec; no digit of an
    entry is known when prec <= 0."""
    ctx = m.ctx
    if prec <= 0:
        raise PrecisionExhausted("matrix series on entries known only mod %d^%d" % (ctx.p, prec))
    return PadicMatrix.from_ints(ctx, kernel(m.residues(prec), ctx.p, e, prec), prec)
