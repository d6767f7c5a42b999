"""Matrices of p-adic scalars, and the matrix exponential/logarithm.

Matrix exp/log are the workhorses of the local correspondence, so they lift
entries to integer residues and run the exact mod-p^W kernels rather than
summing PadicScalar terms; the wrappers re-wrap results at the precision the
input supports (exp and log preserve absolute precision on their domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

from . import _series, linalg
from .context import PrimeContext
from .errors import (
    ContextMismatch,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
)
from .scalar import PadicScalar


@dataclass(frozen=True)
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

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check(other)
        return PadicMatrix.from_rows(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check(other)
        return PadicMatrix.from_rows(
            self.ctx,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix.from_rows(self.ctx, [[-a for a in r] for r in self.entries])

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        """Product with the precision ledger of summing the entry products
        a*b one by one, computed in one integer pass per entry.

        Entry (i, j) is known modulo p^prec with prec the least over t of
        min(prec a + v b, prec b + v a, N a, N b), a zero marker's valuation
        counting as its precision.  Each product is exact modulo its own
        precision, so the exact sum of the unit products, reduced mod
        p^prec, has the digits of the scalar fold; it carries the context
        of the row's first entry, as the fold's result does.
        """
        self._check(other)
        p = self.ctx.p
        left = [_Lane(row, p) for row in self.entries]
        right = [_Lane(col, p) for col in zip(*other.entries)]
        out = []
        for a, row in zip(left, self.entries):
            ctx = row[0].ctx
            out_row = []
            for b in right:
                prec = min(min(map(add, a.precs, b.vals)), min(map(add, b.precs, a.vals)),
                           a.cap, b.cap)
                out_row.append(_scaled_residue(ctx, p, sum(map(mul, a.scaled, b.scaled)),
                                               a.base + b.base, prec))
            out.append(out_row)
        return PadicMatrix.from_rows(self.ctx, out)

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
    grid = _series.exp_matrix(m.residues(prec), ctx.p, e0, prec)
    return _from_grid(ctx, grid, prec)


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
    grid = _series.log_matrix(m.residues(prec), ctx.p, v, prec)
    return _from_grid(ctx, grid, prec)


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
    grid = _series.expm1_quotient_matrix(m.residues(prec), ctx.p, e0, prec)
    return _from_grid(ctx, grid, prec)


class _Lane:
    """One row or column of a product's operand as integers: precisions,
    valuations (a zero marker's is its precision), ambient precisions and
    their least value, and each value as scaled * p^base with base the
    least valuation of a nonzero entry unless given (scaled = 0 for zero
    markers; a given base must not exceed any entry's valuation)."""

    __slots__ = ("precs", "vals", "caps", "cap", "scaled", "base")

    def __init__(self, entries, p, base=None):
        self.precs = [x.prec for x in entries]
        self.vals = [x.prec if x.v is None else x.v for x in entries]
        self.caps = [x.ctx.default_precision for x in entries]
        self.cap = min(self.caps)
        if base is None:
            base = _least_valuation(entries)
        self.base = base
        self.scaled = [0 if x.v is None else x.u * p ** (x.v - base) for x in entries]


def _least_valuation(entries):
    """The least valuation of a nonzero entry; 0 when all are zero markers."""
    nonzero = [x.v for x in entries if x.v is not None]
    return min(nonzero) if nonzero else 0


def _scaled_residue(ctx, p, r, base, prec):
    """The scalar r * p^base known modulo p^prec, normalised as
    PadicScalar arithmetic leaves it."""
    if base >= prec:
        return PadicScalar(ctx, None, 0, prec)
    r %= p ** (prec - base)
    if r == 0:
        return PadicScalar(ctx, None, 0, prec)
    t = _series.int_valuation(r, p)
    return PadicScalar(ctx, base + t, r // p ** t, prec)


def _from_grid(ctx, grid, prec):
    return PadicMatrix.from_rows(
        ctx, [[PadicScalar.from_residue(ctx, x, prec) for x in row] for row in grid]
    )
