"""Exact elimination over Q_p with explicit precision accounting.

Pivots are chosen as the entry of minimal valuation in the remaining
submatrix (the p-adic analogue of full pivoting), so every elimination
factor is a p-adic integer and precision degrades no faster than the
ledger predicts.  An entry is treated as zero only when it is
zero-to-precision; if such a zero-decision rests on fewer than
``min_margin`` vanishing digits the computation aborts with
PrecisionExhausted instead of guessing a rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import DEFAULT_SLACK, PrimeContext
from .errors import IntegralStructureFailure, PrecisionExhausted
from .scalar import PadicScalar, sub_mul_row


@dataclass
class Elimination:
    """Row echelon data for a PadicScalar matrix.

    A reduced elimination (reduce_above=True) also keeps its row
    operations, so solve() can apply them to any number of right-hand sides
    without eliminating the matrix again.
    """

    rows: list  # worked matrix (row echelon, possibly reduced)
    pivots: list  # [(row, col)] in elimination order
    margin: int | None  # smallest confidence gap behind any rank decision
    nrows: int
    ncols: int
    min_margin: int  # evidence required of every zero decision
    ctx: PrimeContext | None  # context of the first entry; None when empty
    # per pivot step (pivot row, [(target row, factor)], pivot inverse);
    # None unless the elimination was reduced
    steps: list | None
    pivot_of_col: dict = field(init=False, repr=False)  # pivot column -> its row
    free_rows: list = field(init=False, repr=False)  # rows without a pivot, in order

    def __post_init__(self):
        self.pivot_of_col = {j: i for (i, j) in self.pivots}
        pivot_rows = set(self.pivot_of_col.values())
        self.free_rows = [i for i in range(self.nrows) if i not in pivot_rows]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rhs_cols):
        """Solve mat @ X = rhs for each right-hand-side column; returns the
        solution columns, or None if the system is inconsistent to precision.

        The columns go through the recorded row operations, which is the
        arithmetic they would see as extra columns of the elimination, and
        are then checked as such: row by row, each row across all columns.
        """
        if self.steps is None:
            raise ValueError("solve needs a reduced elimination (reduce_above=True)")
        rhs_cols = list(rhs_cols)
        if not rhs_cols:
            return []
        # one list per matrix row, across the columns, so every recorded
        # operation is a row operation
        rows = [list(r) for r in zip(*rhs_cols)]
        for pi, targets, pinv in self.steps:
            y = rows[pi]
            for i, f in targets:
                rows[i] = sub_mul_row(rows[i], f, y)
            rows[pi] = [pinv * x for x in y]
        # consistency: non-pivot rows must have vanishing right-hand sides
        for i in self.free_rows:
            for entry in rows[i]:
                if not entry.is_zero:
                    return None
                if entry.prec < self.min_margin:
                    raise PrecisionExhausted(
                        "consistency of a linear system decided on %d digits "
                        "(< %d)" % (entry.prec, self.min_margin)
                    )
        pivot_of_col = self.pivot_of_col
        return [[rows[pivot_of_col[j]][c] if j in pivot_of_col else PadicScalar.zero(self.ctx)
                 for j in range(self.ncols)] for c in range(len(rhs_cols))]

    def inverse(self):
        """Rows of the inverse of the eliminated square matrix: solve() on
        the identity columns; None when the matrix is singular to
        precision."""
        n = self.nrows
        one, zero = PadicScalar.from_int(self.ctx, 1), PadicScalar.zero(self.ctx)
        sols = self.solve([[one if i == j else zero for i in range(n)] for j in range(n)])
        if sols is None:
            return None
        return [list(row) for row in zip(*sols)]


def reduce_vector(vec, pivot_rows):
    """vec reduced by each (pivot column j, row) in turn: where vec[j] is
    nonzero, vec - (vec[j] / row[j]) * row, one exact-ledger row operation.
    Returns a new list."""
    vec = list(vec)
    for j, row in pivot_rows:
        e = vec[j]
        if e.is_zero:
            continue
        vec = sub_mul_row(vec, e / row[j], row)
    return vec


def _min_margin_update(margin, value):
    return value if margin is None else min(margin, value)


def eliminate(mat, reduce_above=False, min_margin=DEFAULT_SLACK):
    """Gaussian elimination with minimal-valuation pivoting.

    reduce_above additionally clears pivot columns upwards and normalises
    pivots to 1, yielding a reduced echelon form, and records the row
    operations for Elimination.solve.
    """
    work = [list(row) for row in mat]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    ctx = work[0][0].ctx if nrows and ncols else None
    free_rows = list(range(nrows))
    free_cols = list(range(ncols))
    pivots = []
    steps = [] if reduce_above else None
    margin = None

    while free_rows and free_cols:
        best = None
        for i in free_rows:
            for j in free_cols:
                e = work[i][j]
                if e.is_zero:
                    continue
                key = (e.v, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        pivot = work[pi][pj]
        margin = _min_margin_update(margin, pivot.prec - pivot.v)
        pivots.append((pi, pj))
        targets = [i for i in free_rows if i != pi]
        if reduce_above:
            targets += [i for (i, _) in pivots[:-1]]
        updated = []
        for i in targets:
            a = work[i][pj]
            if a.is_zero:
                continue
            f = a / pivot
            work[i] = sub_mul_row(work[i], f, work[pi])
            updated.append((i, f))
        if reduce_above:
            pinv = pivot.inv()
            work[pi] = [pinv * x for x in work[pi]]
            steps.append((pi, updated, pinv))
        free_rows.remove(pi)
        free_cols.remove(pj)

    # every remaining candidate entry vanished to precision; record how
    # confidently, and refuse to decide on thin evidence
    for i in free_rows:
        for j in free_cols:
            e = work[i][j]
            if not e.is_zero:  # unreachable unless the loop broke early
                raise AssertionError("nonzero entry left after elimination")
            margin = _min_margin_update(margin, e.prec)
            if e.prec < min_margin:
                raise PrecisionExhausted(
                    "rank decision at (%d,%d) rests on a value vanishing only "
                    "mod p^%d (< required margin %d); raise the working "
                    "precision" % (i, j, e.prec, min_margin)
                )
    return Elimination(work, pivots, margin, nrows, ncols, min_margin, ctx, steps)


def rank_with_margin(mat, min_margin=DEFAULT_SLACK):
    if not mat or not mat[0]:
        return 0, None
    e = eliminate(mat, min_margin=min_margin)
    return e.rank, e.margin


def kernel_basis(mat, min_margin=DEFAULT_SLACK):
    """Basis of {x : mat @ x = 0} (right kernel), via reduced echelon form."""
    if not mat:
        return []
    ncols = len(mat[0])
    e = eliminate(mat, reduce_above=True, min_margin=min_margin)
    pivot_of_col = e.pivot_of_col
    free = [j for j in range(ncols) if j not in pivot_of_col]
    basis = []
    for f in free:
        vec = [None] * ncols
        for j in range(ncols):
            if j == f:
                vec[j] = _one_like(mat[0][0])
            elif j in pivot_of_col:
                vec[j] = -e.rows[pivot_of_col[j]][f]
            else:
                vec[j] = _zero_like(mat[0][0])
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
    """Matrix inverse via the reduced elimination applied to the identity;
    None when the matrix is singular to precision."""
    return eliminate(mat, reduce_above=True, min_margin=min_margin).inverse()


def triangular_lattice_basis(cols):
    """Hermite-style column reduction of generating columns to a
    triangular basis of the Z_p-lattice they span, using only unimodular
    operations over Z_p (scaling by units, subtracting p-power multiples):
    column r of the result vanishes to precision above row r and holds the
    pure power p^v at row r."""
    cols = [list(c) for c in cols]
    out = []
    for row in range(len(cols[0])):
        best = None
        for ci, col in enumerate(cols):
            e = col[row]
            if e.is_zero:
                continue
            if best is None or e.v < cols[best][row].v:
                best = ci
        if best is None:
            raise IntegralStructureFailure("lattice generators do not span")
        col = cols.pop(best)
        pivot = col[row]
        unit_inv = PadicScalar(pivot.ctx, 0, pivot.u, pivot.prec - pivot.v).inv()
        col = [x * unit_inv for x in col]  # pivot becomes the pure power p^v
        for other in cols:
            e = other[row]
            if e.is_zero:
                continue
            f = e * col[row].inv()  # integral since the pivot has minimal valuation
            other[:] = sub_mul_row(other, f, col)
        out.append(col)
    return out


def _one_like(s: PadicScalar) -> PadicScalar:
    return PadicScalar.from_int(s.ctx, 1)


def _zero_like(s: PadicScalar) -> PadicScalar:
    return PadicScalar.zero(s.ctx)
