"""Matrices of p-adic scalars, and the matrix exponential/logarithm.

Matrix exp/log are the workhorses of the local correspondence, so they lift
entries to integer residues and run the exact mod-p^W kernels rather than
summing PadicScalar terms; the wrappers re-wrap results at the precision the
input supports (exp and log preserve absolute precision on their domains),
and refuse with PrecisionExhausted an input known to no digit.

PadicMatrix @, multiplication operators and morphism images (algebra.py)
share one product kernel, linalg.Row.dot: each output entry is the dot
product of two integer Rows, with the ledger of the scalar fold.

PadicMatrix, like PadicScalar, is a plain slotted class that is never
written to after construction (checked over the sources by
tests/test_values.py) and is unhashable, its equality being
precision-relative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _series, linalg
from .context import PrimeContext
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    PrecisionExhausted,
)
from .scalar import PadicScalar


@dataclass(slots=True)
class PadicMatrix:
    ctx: PrimeContext
    entries: tuple  # tuple of tuples of PadicScalar

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_rows(ctx: PrimeContext, rows) -> "PadicMatrix":
        return PadicMatrix(ctx, tuple(tuple(r) for r in rows))

    @staticmethod
    def from_ints(ctx: PrimeContext, rows, prec: int | None = None) -> "PadicMatrix":
        return PadicMatrix.from_rows(
            ctx, [[PadicScalar.from_int(ctx, x, prec) for x in r] for r in rows]
        )

    @staticmethod
    def identity(ctx: PrimeContext, n: int) -> "PadicMatrix":
        return PadicMatrix.from_ints(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ctx: PrimeContext, n: int, m: int | None = None) -> "PadicMatrix":
        m = n if m is None else m
        return PadicMatrix.from_rows(
            ctx, [[PadicScalar.zero(ctx) for _ in range(m)] for _ in range(n)]
        )

    # -- shape -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def rows(self):
        return [list(r) for r in self.entries]

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
        return PadicMatrix.from_rows(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check_shape(other, "difference")
        return PadicMatrix.from_rows(
            self.ctx,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix.from_rows(self.ctx, [[-a for a in r] for r in self.entries])

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        """Product with the precision ledger of summing the entry products
        a*b one by one: one Row.dot per row of self against the columns of
        other, entry (i, j) in the context of row i's first entry, as the
        fold's result is."""
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("product of a %d x %d and a %d x %d matrix"
                                    % (self.nrows, self.ncols, other.nrows, other.ncols))
        p = self.ctx.p
        columns = [linalg.Row.of(col, p) for col in zip(*other.entries)]
        return PadicMatrix.from_rows(self.ctx, [linalg.Row.of(row, p).dot(row[0].ctx, columns)
                                                for row in self.entries])

    def scale(self, c: PadicScalar) -> "PadicMatrix":
        return PadicMatrix.from_rows(self.ctx, [[c * a for a in r] for r in self.entries])

    def transpose(self) -> "PadicMatrix":
        return PadicMatrix.from_rows(self.ctx, zip(*self.entries))

    def trace(self) -> PadicScalar:
        acc = self.entries[0][0]
        for i in range(1, self.nrows):
            acc = acc + self.entries[i][i]
        return acc

    def __pow__(self, k: int) -> "PadicMatrix":
        if k < 0:
            inv = self.inverse()
            return inv ** (-k)
        out = PadicMatrix.identity(self.ctx, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def inverse(self) -> "PadicMatrix":
        rows = linalg.invert(self.rows())
        if rows is None:
            raise NotAUnit("matrix is singular to precision")
        return PadicMatrix.from_rows(self.ctx, rows)

    def kron(self, other: "PadicMatrix") -> "PadicMatrix":
        """Kronecker product (tensor of operators in the standard basis)."""
        self._check(other)
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append([a * b for a in ra for b in rb])
        return PadicMatrix.from_rows(self.ctx, out)

    @staticmethod
    def block_diag(a: "PadicMatrix", b: "PadicMatrix") -> "PadicMatrix":
        a._check(b)
        n, m = a.nrows, b.nrows
        z = PadicScalar.zero(a.ctx)
        out = []
        for i in range(n):
            out.append(list(a.entries[i]) + [z] * m)
        for i in range(m):
            out.append([z] * n + list(b.entries[i]))
        return PadicMatrix.from_rows(a.ctx, out)

    # -- precision and comparisons ----------------------------------------

    def min_precision(self) -> int:
        return min(x.prec for row in self.entries for x in row)

    def min_valuation(self) -> int | None:
        """Smallest entry valuation; None when the whole matrix vanishes to
        precision."""
        vals = [x.v for row in self.entries for x in row if not x.is_zero]
        return min(vals) if vals else None

    def is_zero_to_precision(self) -> bool:
        return all(x.is_zero for row in self.entries for x in row)

    def agrees(self, other: "PadicMatrix", prec: int) -> bool:
        """Entrywise equality mod p^prec; False on a shape mismatch."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a.agrees(b, prec)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a == b
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    __hash__ = None

    def commutes_with(self, other: "PadicMatrix") -> bool:
        return (self @ other - other @ self).is_zero_to_precision()

    def residues(self, prec: int):
        """Integer residue grid mod p^prec (entries must be integral)."""
        return [[x.residue(min(prec, x.prec)) for x in row] for row in self.entries]

    def reduced(self, prec: int) -> "PadicMatrix":
        return PadicMatrix.from_rows(self.ctx, [[x.reduce(prec) for x in row] for row in self.entries])


def mat_exp(m: PadicMatrix) -> PadicMatrix:
    """exp of a square matrix with all entries of valuation >= e0.

    Exact when the matrix is nilpotent (the series terminates before the
    truncation bound); in general truncated once the term valuation passes
    the working precision.
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
    grid = kernel(m.residues(prec), ctx.p, e, prec)
    return PadicMatrix.from_rows(
        ctx, [[PadicScalar.from_residue(ctx, x, prec) for x in row] for row in grid])
