"""Factor-once solves against the augmented elimination they replace, and
the integer row engine against the per-scalar row operations it replaces.

The reference functions below are the augmented-system solver and the
identity-augmented inverse as they stood before Elimination.solve existed:
the right-hand sides ride along as extra columns of one elimination whose
pivot search is confined to the coefficient columns.  Elimination.solve
replays the recorded row operations on the columns instead, so every
solution entry, every None and every PrecisionExhausted must match the
reference, both for a batch of columns and for columns solved one at a
time on one factorisation.

The unreduced elimination behind rank_with_margin, reduce_vector,
quotient_by_ideal, the triangular lattice basis and the index valuation
of components._Order are kept below as they stood before their rows
became integer Rows, each row entry computed as x - f * y from
PadicScalars; ranks, margins, the rows kept, every output entry and
every refusal must match.  The incremental span of spectral_algebra is
checked the same way against RefCoordSpan, its rule per scalar, which
applies the factor of every pivot, a zero marker's included, and returns
coordinates; RefSpan keeps the rule it replaced, which skipped a
zero-marker factor, and the two may decide differently only where
RefSpan read a digit the full ledger does not keep.  The rows drawn mix
ambient precisions, one context per row, with zero markers down to one
digit and valuations from -1 up.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padic_simpson import linalg
from padic_simpson.algebra import _FULL_CHECK_DIM, FinAlgebra, Morphism, quotient_by_ideal
from padic_simpson.components import _Order
from padic_simpson.context import DEFAULT_SLACK, PrimeContext
from padic_simpson.errors import (
    ContextMismatch,
    DimensionMismatch,
    IntegralStructureFailure,
    PadicError,
    PrecisionExhausted,
)
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import _IncrementalSpan, direct_sum
from padic_simpson.linalg import Row
from padic_simpson.matrix import PadicMatrix
from padic_simpson.scalar import PadicScalar
from test_scalar import ledger_operands

CONTEXTS = {p: PrimeContext(p, 8) for p in (2, 3, 5)}


# -- reference: the augmented elimination -------------------------------


def _ref_eliminate(mat, pivot_cols, min_margin, pivot_log=None):
    work = [list(row) for row in mat]
    nrows = len(work)
    free_rows = list(range(nrows))
    free_cols = list(range(pivot_cols))
    pivots = []
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
        pivots.append((pi, pj))
        if pivot_log is not None:
            pivot_log.append(pivot)
        targets = [i for i in free_rows if i != pi] + [i for (i, _) in pivots[:-1]]
        for i in targets:
            a = work[i][pj]
            if a.is_zero:
                continue
            f = a / pivot
            work[i] = [x - f * y for x, y in zip(work[i], work[pi])]
        pinv = pivot.inv()
        work[pi] = [pinv * x for x in work[pi]]
        free_rows.remove(pi)
        free_cols.remove(pj)
    for i in free_rows:
        for j in free_cols:
            e = work[i][j]
            if e.prec < min_margin:
                raise PrecisionExhausted(
                    "rank decision at (%d,%d) rests on a value vanishing only "
                    "mod p^%d (< required margin %d); raise the working "
                    "precision" % (i, j, e.prec, min_margin)
                )
    return work, pivots


def ref_rank_with_margin(mat, min_margin=DEFAULT_SLACK):
    """The reduce_above=False path of eliminate, margin included; returns
    the rank, the margin and the worked rows."""
    work = [list(row) for row in mat]
    free_rows = list(range(len(work)))
    free_cols = list(range(len(work[0])))
    rank, margin = 0, None
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
        gap = pivot.prec - pivot.v
        margin = gap if margin is None else min(margin, gap)
        rank += 1
        for i in free_rows:
            a = work[i][pj]
            if i == pi or a.is_zero:
                continue
            f = a / pivot
            work[i] = [x - f * y for x, y in zip(work[i], work[pi])]
        free_rows.remove(pi)
        free_cols.remove(pj)
    for i in free_rows:
        for j in free_cols:
            e = work[i][j]
            margin = e.prec if margin is None else min(margin, e.prec)
            if e.prec < min_margin:
                raise PrecisionExhausted(
                    "rank decision at (%d,%d) rests on a value vanishing only "
                    "mod p^%d (< required margin %d); raise the working "
                    "precision" % (i, j, e.prec, min_margin)
                )
    return rank, margin, work


class RefSpan:
    """higgs._IncrementalSpan's decisions as they stood, with their
    per-scalar row operation: a pivot whose entry is a zero marker is
    skipped, as linalg.reduce_vector skips it.  Frozen as the old rule,
    which RefCoordSpan replaced."""

    def __init__(self, min_margin=4):
        self.min_margin = min_margin
        self.rows = []

    def reduce(self, vec) -> list:
        vec = list(vec)
        for (piv, row) in self.rows:
            e = vec[piv]
            if e.is_zero:
                continue
            f = e / row[piv]
            vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        vec = self.reduce(vec)
        best = _least_nonzero(vec)
        if best is None:
            _check_margin(vec, self.min_margin)
            return False
        self.rows.append((best, vec))
        return True


class RefCoordSpan:
    """higgs._IncrementalSpan per scalar: every pivot's factor f applied
    as x - f * y, a zero marker's included, to the vector and, over the
    entries T_r has, to the coordinates; a new vector b_k keeps T_k = e_k
    - sum f_r T_r and is e_k, a dependent one is sum f_r T_r."""

    def __init__(self, min_margin=4):
        self.min_margin = min_margin
        self.rows = []  # (pivot, reduced row, T_r)

    def reduce(self, vec) -> tuple:
        """(remainder, -sum f_r T_r)."""
        vec = list(vec)
        ctx = vec[0].ctx
        acc = []
        for (piv, row, t) in self.rows:
            f = vec[piv] / row[piv]
            vec = [a - f * b for a, b in zip(vec, row)]
            acc = [a - f * b for a, b in zip(acc + [PadicScalar.zero(ctx)], t)]
        return vec, acc

    def add(self, vec) -> tuple:
        vec, acc = self.reduce(vec)
        ctx = vec[0].ctx
        best = _least_nonzero(vec)
        if best is None:
            _check_margin(vec, self.min_margin)
            return False, [-a for a in acc]
        k = len(self.rows)
        self.rows.append((best, vec, acc + [PadicScalar.from_int(ctx, 1)]))
        return True, [PadicScalar.zero(ctx)] * k + [PadicScalar.from_int(ctx, 1)]


def _least_nonzero(vec):
    """The first entry of least valuation that does not vanish, or None."""
    best = None
    for i, e in enumerate(vec):
        if e.is_zero:
            continue
        if best is None or e.v < vec[best].v:
            best = i
    return best


def _check_margin(vec, min_margin):
    thinnest = min(e.prec for e in vec)
    if thinnest < min_margin:
        raise PrecisionExhausted(
            "span dependence decided on %d digits (< %d)" % (thinnest, min_margin)
        )


def ref_solve(mat, rhs_cols, min_margin=DEFAULT_SLACK):
    m, n = len(mat), len(mat[0])
    aug = [list(mat[i]) + [col[i] for col in rhs_cols] for i in range(m)]
    rows, pivots = _ref_eliminate(aug, n, min_margin)
    pivot_of_col = {j: i for (i, j) in pivots}
    pivot_rows = {i for (i, _) in pivots}
    for i in range(m):
        if i in pivot_rows:
            continue
        for k in range(len(rhs_cols)):
            entry = rows[i][n + k]
            if not entry.is_zero:
                return None
            if entry.prec < min_margin:
                raise PrecisionExhausted(
                    "consistency of a linear system decided on %d digits "
                    "(< %d)" % (entry.prec, min_margin)
                )
    zero = PadicScalar.zero(mat[0][0].ctx)
    return [[rows[pivot_of_col[j]][n + k] if j in pivot_of_col else zero for j in range(n)]
            for k in range(len(rhs_cols))]


def ref_invert(mat, min_margin=DEFAULT_SLACK):
    n = len(mat)
    ctx = mat[0][0].ctx
    ident = [[PadicScalar.from_int(ctx, 1) if i == j else PadicScalar.zero(ctx)
              for i in range(n)] for j in range(n)]
    sols = ref_solve(mat, ident, min_margin)
    if sols is None:
        return None
    return [[sols[j][i] for j in range(n)] for i in range(n)]


def ref_kernel_basis(mat, min_margin=DEFAULT_SLACK):
    rows, pivots = _ref_eliminate(mat, len(mat[0]), min_margin)
    pivot_of_col = {j: i for (i, j) in pivots}
    ctx = mat[0][0].ctx
    return [[PadicScalar.from_int(ctx, 1) if j == f
             else -rows[pivot_of_col[j]][f] if j in pivot_of_col
             else PadicScalar.zero(ctx)
             for j in range(len(mat[0]))]
            for f in range(len(mat[0])) if f not in pivot_of_col]


def ledger(row):
    return [(x.v, x.u, x.prec, x.ctx) for x in row]


def outcome(fn, *args):
    """A comparable record of a call: its entries with their contexts, None,
    or the exception it raised."""
    try:
        result = fn(*args)
    except PadicError as exc:
        return (type(exc).__name__, str(exc))
    if result is None:
        return None
    return [[(x.v, x.u, x.prec, x.ctx) for x in col] for col in result]


# -- draws ---------------------------------------------------------------


@st.composite
def contexts(draw, ctx):
    """The one context of an operand: ctx, or ctx widened by up to 3
    digits half the time."""
    if draw(st.booleans()):
        ctx = ctx.widen(draw(st.integers(1, 3)))
    return ctx


@st.composite
def scalars(draw, ctx):
    """A scalar of ctx: zero markers, thin (down to one digit) and full
    precisions, valuations from -1 up."""
    p, top = ctx.p, ctx.default_precision
    prec = draw(st.sampled_from([top, top, draw(st.integers(1, top)), draw(st.integers(1, 3))]))
    if draw(st.integers(0, 3)) == 0:
        return PadicScalar.zero(ctx, prec)
    v = draw(st.integers(-1, min(2, prec - 1)))
    rel = prec - v
    u = draw(st.integers(0, p ** (rel - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicScalar(ctx, v, u, prec)


@st.composite
def lines(draw, ctx, n):
    """n scalars of one context drawn by contexts(ctx): a row or a column."""
    line_ctx = draw(contexts(ctx))
    return [draw(scalars(line_ctx)) for _ in range(n)]


def _combination(mat, coeffs):
    """mat @ coeffs summed scalar by scalar (a right-hand side in the
    span), each product c * a in the context of the coefficients."""
    out = []
    for row in mat:
        acc = coeffs[0] * row[0]
        for a, c in zip(row[1:], coeffs[1:]):
            acc = acc + c * a
        out.append(acc)
    return out


@st.composite
def systems(draw):
    """A matrix, each row in a context of its own (or all in one, when it
    is a product through a narrower space), and right-hand-side columns
    in one context of their own."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        mat = [draw(lines(ctx, n)) for _ in range(m)]
    else:  # rank deficient and thin: a product through a narrower space
        r = draw(st.integers(1, 2))
        left = [draw(lines(ctx, r)) for _ in range(m)]
        entry = scalars(draw(contexts(ctx)))
        right = [[draw(entry) for _ in range(r)] for _ in range(n)]
        mat = [_combination(left, col) for col in right]
        mat = [list(row) for row in zip(*mat)]
    entry = scalars(draw(contexts(ctx)))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cols.append(_combination(mat, [draw(entry) for _ in range(n)]))
        else:
            cols.append([draw(entry) for _ in range(m)])
    min_margin = draw(st.integers(1, 6))
    return mat, cols, min_margin


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- properties ----------------------------------------------------------


def _factored(mat, cols, min_margin):
    return linalg.eliminate(mat, reduce_above=True, min_margin=min_margin).solve(cols)


def _column_by_column(solve_one, mat, cols, min_margin):
    sols = []
    for col in cols:
        one = solve_one(mat, [col], min_margin)
        if one is None:
            return None
        sols += one
    return sols


def _reused_column_by_column(mat, cols, min_margin):
    elim = linalg.eliminate(mat, reduce_above=True, min_margin=min_margin)
    return _column_by_column(lambda _, col, __: elim.solve(col), mat, cols, min_margin)


@SETTINGS
@given(systems())
def test_factored_solve_matches_augmented_solve(system):
    mat, cols, min_margin = system
    expected = outcome(ref_solve, mat, cols, min_margin)
    assert outcome(_factored, mat, cols, min_margin) == expected
    assert outcome(linalg.solve, mat, cols, min_margin) == expected
    one_at_a_time = outcome(_column_by_column, ref_solve, mat, cols, min_margin)
    assert outcome(_reused_column_by_column, mat, cols, min_margin) == one_at_a_time


@SETTINGS
@given(systems())
def test_invert_and_kernel_unchanged(system):
    mat, _, min_margin = system
    n = min(len(mat), len(mat[0]))
    square = [row[:n] for row in mat[:n]]
    assert outcome(linalg.invert, square, min_margin) == outcome(ref_invert, square, min_margin)
    assert (outcome(linalg.kernel_basis, mat, min_margin)
            == outcome(ref_kernel_basis, mat, min_margin))


def test_solve_reuses_one_factorisation():
    ctx = CONTEXTS[5]
    mat = [[PadicScalar.from_int(ctx, x) for x in row] for row in ([1, 2], [3, 4], [5, 6])]
    elim = linalg.eliminate(mat, reduce_above=True)
    inside = [PadicScalar.from_int(ctx, x) for x in (5, 11, 17)]  # 1*col0 + 2*col1
    outside = [PadicScalar.from_int(ctx, x) for x in (1, 0, 0)]
    (x,) = elim.solve([inside])
    assert [s.residue() for s in x] == [1, 2]
    assert elim.solve([inside, outside]) is None
    assert elim.solve([]) == []


def test_batch_consistency_is_checked_row_by_row():
    # a singular matrix whose right-hand sides vanish on thin evidence in
    # one free row, after a nonzero entry in an earlier free row: the batch
    # is inconsistent (None), as the identity-augmented inverse found it,
    # although the first column alone could not be decided
    ctx = PrimeContext(2, 8)

    def s(v, u, prec):
        return PadicScalar(ctx, v, u, prec) if v is not None else PadicScalar.zero(ctx, prec)

    mat = [
        [s(None, 0, 6), s(4, 1, 5), s(None, 0, 5), s(None, 0, 6)],
        [s(None, 0, 6), s(5, 3, 7), s(None, 0, 6), s(6, 1, 8)],
        [s(None, 0, 8), s(None, 0, 6), s(None, 0, 7), s(None, 0, 8)],
        [s(None, 0, 7), s(6, 1, 8), s(None, 0, 7), s(7, 1, 8)],
    ]
    assert linalg.invert(mat, min_margin=5) is None
    assert ref_invert(mat, min_margin=5) is None
    first = [PadicScalar.from_int(ctx, 1)] + [PadicScalar.zero(ctx)] * 3
    elim = linalg.eliminate(mat, reduce_above=True, min_margin=5)
    with pytest.raises(PrecisionExhausted):
        elim.solve([first])


# -- one-column solves and kept descriptors ------------------------------


def _ref_replay(elim, rows):
    """Elimination._replay as it stood before it ran on lists: every step
    a Row.sub_mul or a Row.scaled building a Row."""
    for pi, targets, pinv in elim.steps:
        y = rows[pi]
        for i, f in targets:
            rows[i] = rows[i].sub_mul(f, y)
        rows[pi] = y.scaled(pinv, elim.int_rows[pi].ctx)
    for i in elim.free_rows:
        for r, q in zip(rows[i].res, rows[i].prec):
            if r:
                return None
            if q < elim.min_margin:
                raise PrecisionExhausted("consistency of a linear system decided on %d digits "
                                         "(< %d)" % (q, elim.min_margin))
    return rows


def _ref_unknowns(elim, rows, count):
    return [rows[elim.pivot_of_col[j]] if j in elim.pivot_of_col
            else Row.zeros(elim.ctx, count) for j in range(elim.ncols)]


def ref_solve_rows(elim, rhs_cols):
    """Elimination.solve_rows as it stood: the columns transposed into
    Rows, one per matrix row, and replayed Row by Row."""
    if elim.steps is None:
        raise ValueError("solve needs a reduced elimination (reduce_above=True)")
    if not rhs_cols:
        return [Row.zeros(elim.ctx, 0) for _ in range(elim.ncols)]
    for col in rhs_cols:
        if len(col) != elim.nrows:
            raise DimensionMismatch("right-hand side of length %d for a system of %d rows"
                                    % (len(col), elim.nrows))
    rows = _ref_replay(elim, linalg.transpose([Row.of(c, elim.ctx) for c in rhs_cols]))
    return None if rows is None else _ref_unknowns(elim, rows, len(rhs_cols))


def ref_solve_row(elim, col):
    """Elimination.solve_row as it stood: solve_rows on [col], the
    unknowns transposed back into one Row."""
    rows = ref_solve_rows(elim, [col])
    return None if rows is None else linalg.transpose(rows)[0]


def ref_inverse(elim):
    """Elimination.inverse as it stood: the identity rows replayed."""
    n = elim.nrows
    rows = _ref_replay(elim, [Row.unit(elim.ctx, n, i) for i in range(n)])
    return None if rows is None else _ref_unknowns(elim, rows, n)


def row_outcome(fn, *args):
    """A comparable record of a call returning one Row: per entry its
    parts and context, and the base and residues it is held on; None; or
    the exception it raised."""
    try:
        row = fn(*args)
    except (PadicError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    if row is None:
        return None
    return ([(row.parts(k), row.ctx) for k in range(len(row))], row.base, row.res)


@st.composite
def one_column_systems(draw):
    """An elimination of a matrix up to 5 x 5 over p in 2, 3, 5, 7, each
    row in a context of its own (so pivot rows, and the unknowns, may lie
    in two), and one column in a context of its own, as a Row or as
    scalars; now and then an unreduced elimination or a column of another
    length."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5, 7])), 8)
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mat = [draw(lines(ctx, n)) for _ in range(m)]
    min_margin = draw(st.integers(1, 6))
    reduced = draw(st.integers(0, 15)) > 0
    entry = scalars(draw(contexts(ctx)))
    if draw(st.booleans()):
        col = _combination(mat, [draw(entry) for _ in range(n)])
    else:
        col = [draw(entry) for _ in range(m + (draw(st.integers(0, 15)) == 0))]
    if draw(st.booleans()):
        col = Row.of(col)
    return _eliminated(mat, min_margin, reduced), col


def _eliminated(mat, min_margin, reduced=True):
    """The elimination of mat at min_margin, or with no margin required
    where a rank decision is too thin for it."""
    try:
        return linalg.eliminate(mat, reduce_above=reduced, min_margin=min_margin)
    except PrecisionExhausted:
        return linalg.eliminate(mat, reduce_above=reduced, min_margin=0)


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(one_column_systems())
def test_solve_row_matches_the_transposing_path(system):
    elim, col = system
    assert row_outcome(elim.solve_row, col) == row_outcome(ref_solve_row, elim, col)


def test_solve_row_refuses_unknowns_in_two_contexts():
    # pivot rows of N = 32 and N = 40 put the unknowns into two contexts,
    # which one Row cannot hold
    C32, C40 = PrimeContext(5, 32), PrimeContext(5, 40)
    mat = [Row.of_ints(C32, [1, 0]), Row.of_ints(C40, [0, 1])]
    elim = linalg.eliminate(mat, reduce_above=True)
    with pytest.raises(ContextMismatch, match="mixed contexts"):
        elim.solve_row(Row.of_ints(C32, [1, 2]))
    assert row_outcome(elim.solve_row, Row.of_ints(C32, [1, 2])) == row_outcome(
        ref_solve_row, elim, Row.of_ints(C32, [1, 2]))
    with pytest.raises(ValueError, match="reduced elimination"):
        linalg.eliminate(mat).solve_row(Row.of_ints(C32, [1, 2]))


def _described(row):
    """The descriptor of a fresh Row of row's lists."""
    return Row(row.pw, row.base, row.res, row.prec, row.ctx).descriptor()


@SETTINGS
@given(st.data())
def test_kept_descriptors_equal_fresh_ones(data):
    # the descriptors the kept rows and columns of two matrices carry
    # after a product are the ones fresh Rows of their lists would build,
    # and a second product reads them, unchanged
    ctx = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)))]
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        c = data.draw(contexts(ctx))
        return PadicMatrix.from_rows(c, [[data.draw(scalars(c)) for _ in range(cols)]
                                         for _ in range(rows)])

    a, b = matrix(m, k), matrix(k, n)
    first = a @ b
    views = a.int_rows() + b.int_columns()
    kept = [v.descriptor() for v in views]
    assert (a @ b).grid.key() == first.grid.key()
    assert all(v.descriptor() is d for v, d in zip(views, kept))
    assert kept == [_described(v) for v in views]


def test_kept_descriptors_of_an_algebra_and_a_morphism():
    # the columns FinAlgebra._columns and Morphism._columns keep are
    # described on their first product and read from then on
    ctx = PrimeContext(3, 16)
    A = FinAlgebra.from_power_relation(ctx, [3, 0, 9])
    x = A.from_ints([1, 2, 3])
    first = A.mult_operator(x)
    kept = [c.descriptor() for c in A._columns]
    assert A.mult_operator(x) == first
    assert all(c.descriptor() is d for c, d in zip(A._columns, kept))
    assert kept == [_described(c) for c in A._columns]
    f = Morphism.create(A, A, [A.element(Row.unit(ctx, 3, i)) for i in range(3)])
    assert f.apply(x) == f.apply(x) == x
    assert [c.descriptor() for c in f._columns] == [_described(c) for c in f._columns]


@SETTINGS
@given(systems())
def test_solve_rows_and_inverse_unchanged(system):
    # the list replay against the Row replay it replaces, on every
    # column at once and on the identity, down to the base and residues
    mat, cols, min_margin = system

    def rows_of(fn, *args):
        try:
            rows = fn(*args)
        except PadicError as exc:
            return (type(exc).__name__, str(exc))
        return None if rows is None else [(_entries(r), r.base, r.res) for r in rows]

    elim = _eliminated(mat, min_margin)
    assert rows_of(elim.solve_rows, cols) == rows_of(ref_solve_rows, elim, cols)
    assert rows_of(elim.solve_rows, []) == rows_of(ref_solve_rows, elim, [])
    n = min(len(mat), len(mat[0]))
    square = _eliminated([r[:n] for r in mat[:n]], min_margin)
    assert rows_of(square.inverse) == rows_of(ref_inverse, square)


# -- the fused row kernel against the per-scalar row operations ----------


def _rank_outcome(fn, mat, min_margin):
    try:
        return fn(mat, min_margin)
    except PrecisionExhausted as exc:
        return "PrecisionExhausted", str(exc)


def _rank_and_rows(mat, min_margin):
    e = linalg.eliminate(mat, min_margin=min_margin)
    assert (e.rank, e.margin) == linalg.rank_with_margin(mat, min_margin)
    return e.rank, e.margin, [ledger(r.scalars()) for r in e.int_rows]


def _ref_rank_and_rows(mat, min_margin):
    rank, margin, rows = ref_rank_with_margin(mat, min_margin)
    return rank, margin, [ledger(row) for row in rows]


@SETTINGS
@given(systems())
def test_rank_with_margin_unchanged(system):
    mat, _, min_margin = system
    assert (_rank_outcome(_rank_and_rows, mat, min_margin)
            == _rank_outcome(_ref_rank_and_rows, mat, min_margin))


def test_rank_decision_message_unchanged():
    # the unreduced path refuses a rank decision on 3 vanishing digits
    ctx = CONTEXTS[2]
    mat = [[PadicScalar.from_int(ctx, 1), PadicScalar.from_int(ctx, 3)],
           [PadicScalar.from_int(ctx, 1), PadicScalar.from_int(ctx, 3 + 8).reduce(3)]]
    expected = _rank_outcome(_ref_rank_and_rows, mat, 4)
    assert expected == ("PrecisionExhausted",
                        "rank decision at (1,1) rests on a value vanishing only mod p^3 "
                        "(< required margin 4); raise the working precision")
    assert _rank_outcome(_rank_and_rows, mat, 4) == expected
    with pytest.raises(PrecisionExhausted, match=r"mod p\^3 "):
        linalg.rank_with_margin(mat, 4)
    assert _rank_outcome(_rank_and_rows, mat, 3)[:2] == (1, 3)


@st.composite
def span_streams(draw):
    """Vectors added to one span: drawn ones, and combinations of earlier
    ones (dependent up to the precision they carry)."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    width = draw(st.integers(1, 4))
    vecs = []
    for _ in range(draw(st.integers(1, 6))):
        if vecs and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3))
            mat = [list(col) for col in zip(*picks)]
            vecs.append(_combination(mat, draw(lines(ctx, len(picks)))))
        else:
            vecs.append(draw(lines(ctx, width)))
    return vecs, draw(st.integers(1, 6))


def _span_decisions(cls, vecs, min_margin):
    """What a span of the rule cls decides on each vector, with the
    coordinates it returns, then the rows it keeps with their T_r; up to
    the first refusal."""
    span = cls(min_margin)
    decisions = []
    for vec in vecs:
        try:
            new, coords = span.add(vec)
        except PrecisionExhausted as exc:
            decisions.append(("PrecisionExhausted", str(exc)))
            break
        decisions.append((new, ledger(coords)))
        decisions.append([(row[0], ledger(row[1]), ledger(row[-1])) for row in span.rows])
    return decisions


@SETTINGS
@given(span_streams())
def test_incremental_span_matches_the_full_ledger_reference(stream):
    vecs, min_margin = stream
    assert (_span_decisions(_IncrementalSpan, vecs, min_margin)
            == _span_decisions(RefCoordSpan, vecs, min_margin))


def _decision(span, vec):
    """span.add(vec) as a comparable decision: dependent, the pivot of a
    new row, or the refusal."""
    try:
        new = span.add(vec)
    except PrecisionExhausted as exc:
        return str(exc)
    if isinstance(new, tuple):
        new = new[0]
    return span.rows[-1][0] if new else False


def _over_read(old, full):
    """The entries at which the old rule's remainder old read a digit that
    the full ledger's remainder full does not keep: a nonzero entry at a
    valuation at least its full-ledger precision, or vanishing digits
    beyond that precision."""
    return [k for k, (a, b) in enumerate(zip(old, full))
            if (not a.is_zero and a.v >= b.prec) or (a.is_zero and a.prec > b.prec)]


def _stream_of(ctx, parts):
    """Vectors of ctx from (v, u, prec) per entry, v None for a zero marker."""
    return [[PadicScalar(ctx, v, u, prec) for v, u, prec in vec] for vec in parts]


# the rules part at the third vector: its entry 1 is O(2), so the first
# row's factor is the zero marker O(2) and caps entry 2, 2 + O(2^8), at
# O(2).  The old rule skips that factor and takes the vector as new, on
# pivot 2; the full ledger finds it dependent on one vanishing digit
PARTING_STREAM = (_stream_of(CONTEXTS[2], [
    [(None, 0, 8)] * 3,
    [(None, 0, 8), (0, 1, 1), (0, 1, 8)],
    [(None, 0, 8), (None, 0, 1), (1, 1, 8)],
]), 1)


def test_the_rules_part_on_a_zero_marker_factor():
    vecs, min_margin = PARTING_STREAM
    old, full = RefSpan(min_margin), RefCoordSpan(min_margin)
    assert [_decision(old, vec) for vec in vecs] == [False, 1, 2]
    assert [_decision(full, vec) for vec in vecs] == [False, 1, False]


@SETTINGS
@given(span_streams())
@example(PARTING_STREAM)
def test_where_the_rules_part_the_old_rule_read_digits_it_did_not_keep(stream):
    # the full ledger decides differently from the old rule only where the
    # old rule's remainder claims a digit beyond the full ledger's
    # precision; before that, the two decide alike
    vecs, min_margin = stream
    old, full = RefSpan(min_margin), RefCoordSpan(min_margin)
    for vec in vecs:
        old_rem, (full_rem, _) = old.reduce(vec), full.reduce(vec)
        a, b = _decision(old, vec), _decision(full, vec)
        if a != b:
            assert _over_read(old_rem, full_rem)
            return
        if isinstance(a, str):
            return


# -- the row operation against the scalar expression ---------------------


def _parts(s):
    """The scalar s as Row.parts gives an entry: a row operation's factor."""
    return (s.prec if s.v is None else s.v), s.u, s.prec, s.ctx.default_precision


@st.composite
def operand_lines(draw, p, n):
    """n ledger_operands in the one context of the first, which is of
    another prime now and then."""
    first = draw(ledger_operands(p))
    return [first] + [draw(ledger_operands(p, first.ctx)) for _ in range(n - 1)]


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fused_row_operation_matches_scalar_ops(data):
    # Row.sub_mul is x + (-(f * y)) entry by entry, to the last digit of
    # the ledger, context included.  The engine takes its factors from
    # the entries of its own rows, each of one context, so it meets mixed
    # primes only across two rows, and refuses them there
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    f = data.draw(ledger_operands(p))
    n = data.draw(st.integers(1, 4))
    xs, ys = data.draw(operand_lines(p, n)), data.draw(operand_lines(p, n))
    primes = {s.ctx.p for s in xs + ys}
    if len(primes) > 1:
        with pytest.raises(ContextMismatch):
            Row.of(xs).sub_mul(_parts(f), Row.of(ys))
        return
    if primes != {f.ctx.p}:
        return
    expected = [ledger([a + (-(f * b))]) for a, b in zip(xs, ys)]
    got = Row.of(xs).sub_mul(_parts(f), Row.of(ys))
    assert [ledger([got.scalar(k)]) for k in range(len(xs))] == expected
    assert ledger(got.scalars()) == [e[0] for e in expected]


# -- reduce_vector, quotients, lattices and orders -----------------------


def ref_reduce_vector(vec, pivot_rows):
    vec = list(vec)
    for j, row in pivot_rows:
        e = vec[j]
        if e.is_zero:
            continue
        f = e / row[j]
        vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def _reduce_vector(vec, pivot_rows):
    rows = [(j, Row.of(row)) for j, row in pivot_rows]
    return linalg.reduce_vector(Row.of(vec), rows).scalars()


@st.composite
def reductions(draw):
    """A vector and pivot rows to reduce it by: the reduced rows of an
    elimination, or drawn rows with drawn pivot columns."""
    mat, cols, min_margin = draw(systems())
    n = len(mat[0])
    vec = draw(st.sampled_from(mat + [[c[0]] * n for c in cols]))
    if draw(st.booleans()):
        try:
            work, pivots = _ref_eliminate(mat, n, min_margin)
        except PadicError:
            work, pivots = [], []
        pivot_rows = sorted((j, work[i]) for (i, j) in pivots)
    else:
        js = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        pivot_rows = [(j, draw(lines(CONTEXTS[mat[0][0].ctx.p], n))) for j in js]
    return [draw(st.sampled_from([x, x.reduce(1)])) for x in vec], pivot_rows


@SETTINGS
@given(reductions())
def test_reduce_vector_unchanged(case):
    vec, pivot_rows = case
    assert (outcome(lambda: [_reduce_vector(vec, pivot_rows)])
            == outcome(lambda: [ref_reduce_vector(vec, pivot_rows)]))


def ref_quotient_by_ideal(A, ideal_basis):
    """quotient_by_ideal's structure constants, unit and projection images."""
    m = A.dim
    rows = [list(x.coords) for x in ideal_basis]
    work, pivots = _ref_eliminate(rows, m, DEFAULT_SLACK)
    pivot_rows = sorted((j, work[i]) for (i, j) in pivots)
    free_cols = [j for j in range(m) if j not in {j for _, j in pivots}]
    s = len(free_cols)
    if s == 0:
        raise PadicError("quotient by the unit ideal")

    def project(coords):
        reduced = ref_reduce_vector(coords, pivot_rows)
        return [reduced[j] for j in free_cols]

    reps = [A.basis_element(j) for j in free_cols]
    mul = [[project((reps[i] * reps[j]).coords) for j in range(s)] for i in range(s)]
    S = FinAlgebra.create(A.ctx, mul, project(A.one), validate=(s <= _FULL_CHECK_DIM),
                          exact_structure=False)
    return S, [project(A.basis_element(i).coords) for i in range(m)]


def _quotient(A, ideal_basis):
    S, proj, _ = quotient_by_ideal(A, ideal_basis)
    return S, [list(x.coords) for x in proj.images]


def _quotient_ledger(fn, A, ideal_basis):
    def record():
        S, images = fn(A, ideal_basis)
        return [c for plane in S.mul for c in plane] + [list(S.one)] + images
    return outcome(record)


@st.composite
def ideals(draw):
    """A = K[x]/(g) for g = x^m - sum rel_i x^i with rel_0 = 0, over a
    context of N = 8, and a spanning set of the ideal of one or two drawn
    elements of (x), a proper ideal."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    m = draw(st.integers(1, 4))
    rel = [0] + [draw(st.integers(0, ctx.p ** 2)) * draw(st.sampled_from([1, ctx.p]))
                 for _ in range(m - 1)]
    A = FinAlgebra.from_power_relation(ctx, rel)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        gen_ctx = draw(contexts(ctx))
        gens.append(A.element([PadicScalar.zero(gen_ctx)]
                              + [draw(scalars(gen_ctx)) for _ in range(m - 1)]))
    return A, [g * A.basis_element(i) for g in gens for i in range(m)]


@SETTINGS
@given(ideals())
def test_quotient_by_ideal_unchanged(case):
    A, ideal_basis = case
    assert (_quotient_ledger(_quotient, A, ideal_basis)
            == _quotient_ledger(ref_quotient_by_ideal, A, ideal_basis))


def ref_triangular_lattice_basis(cols):
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
        col = [x * unit_inv for x in col]
        for other in cols:
            e = other[row]
            if e.is_zero:
                continue
            f = e * col[row].inv()
            other[:] = [a - f * b for a, b in zip(other, col)]
        out.append(col)
    return out


@st.composite
def lattice_generators(draw):
    """Generating columns of length m: drawn ones, with the columns of a
    scaled identity among them now and then, so that they span."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    m = draw(st.integers(1, 4))
    cols = [draw(lines(ctx, m)) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        scale = PadicScalar.from_int(ctx, ctx.p ** draw(st.integers(0, 2)))
        cols += [[scale if i == j else PadicScalar.zero(ctx) for i in range(m)]
                 for j in range(m)]
    return draw(st.permutations(cols))


@SETTINGS
@given(lattice_generators())
def test_triangular_lattice_basis_unchanged(cols):
    assert (outcome(lambda cs: [c.scalars() for c in linalg.triangular_lattice_rows(cs)], cols)
            == outcome(ref_triangular_lattice_basis, cols))


def ref_order(S, basis):
    """_Order's index valuation and inverse basis matrix."""
    m = S.dim
    mat = [[b.coords[i] for b in basis] for i in range(m)]
    pivots = []
    _ref_eliminate(mat, m, DEFAULT_SLACK, pivots)
    inverse = ref_invert(mat)
    if inverse is None:
        raise IntegralStructureFailure("lattice basis is singular to precision")
    return -sum(pivot.inv().v for pivot in pivots), PadicMatrix.from_rows(S.ctx, inverse)


def _order(S, basis):
    order = _Order(S, basis)
    return order.index_valuation, order._inverse


def _order_outcome(fn, S, basis):
    try:
        index, inverse = fn(S, basis)
    except PadicError as exc:
        return type(exc).__name__, str(exc)
    return index, [ledger(row) for row in inverse.entries]


@SETTINGS
@given(ideals(), st.data())
def test_order_index_valuation_unchanged(case, data):
    A, _ = case
    m = A.dim
    entry = scalars(A.ctx)
    basis = [A.element([data.draw(entry) for _ in range(m)]) for _ in range(m)]
    assert _order_outcome(_order, A, basis) == _order_outcome(ref_order, A, basis)


# -- shapes ----------------------------------------------------------------


def test_solve_refuses_a_right_hand_side_of_another_length():
    ctx = PrimeContext(3, 32)
    elim = linalg.eliminate(PadicMatrix.identity(ctx, 2).rows(), reduce_above=True)
    for col in ([1, 2, 5], [1]):
        with pytest.raises(DimensionMismatch, match="length %d .* 2 rows" % len(col)):
            elim.solve([[PadicScalar.from_int(ctx, x) for x in col]])
    (x,) = elim.solve([[PadicScalar.from_int(ctx, x) for x in (1, 2)]])
    assert [s.residue() for s in x] == [1, 2]


def test_empty_system_inverts_to_the_empty_matrix():
    ctx = PrimeContext(3, 32)
    assert linalg.invert([]) == []
    inverse = PadicMatrix.from_rows(ctx, []).inverse()
    assert (inverse.nrows, inverse.ncols) == (0, 0)


def test_dot_refuses_columns_of_another_prime():
    # as sub_mul refuses a row of another prime, the product kernel
    # refuses columns of one, whatever the row and the columns hold
    C3, C5 = PrimeContext(3, 8), PrimeContext(5, 8)
    row = Row.of_ints(C3, [1, 2])
    for column in (Row.of_ints(C5, [1, 2]), Row.zeros(C5, 2)):
        with pytest.raises(ContextMismatch):
            Row.dot([row], [column], C3)
    assert Row.dot([row], [Row.of_ints(C3, [1, 2])], C3).scalars() == [
        PadicScalar.from_int(C3, 5)]


def test_one_context_per_row():
    # contexts of one prime with N = 32 and N = 40 never share a Row:
    # every input that would put both into one is refused, as mixed
    # primes are; Rows in different contexts still meet in a product, a
    # scalar product and a morphism image, each in its own output context
    C32, C40 = PrimeContext(5, 32), PrimeContext(5, 40)
    one32, one40 = PadicScalar.from_int(C32, 1), PadicScalar.from_int(C40, 1)
    zero32, zero40 = PadicScalar.zero(C32), PadicScalar.zero(C40)
    refusals = [
        lambda: Row.of([one32, one40]),
        lambda: PadicMatrix.from_rows(C32, [[one32], [one40]]),
        lambda: PadicMatrix.stack(C32, [Row.of_ints(C32, [1]), Row.of_ints(C40, [1])], 1),
        lambda: linalg.transpose([Row.of_ints(C32, [1, 2]), Row.of_ints(C40, [3, 4])]),
        lambda: FinAlgebra.create(C32, [[[one32, zero32], [zero32, one32]],
                                        [[zero40, one40], [zero40, zero40]]],
                                  [one32, zero32], validate=False),
        lambda: direct_sum(gen_higgs(5, 1, 2, seed=0), gen_higgs(5, 1, 2, seed=0, precision=40)),
    ]
    for refused in refusals:
        with pytest.raises(ContextMismatch, match="mixed contexts"):
            refused()

    a = PadicMatrix.from_ints(C32, [[1, 2], [3, 4]])
    b = PadicMatrix.from_ints(C40, [[5, 6], [7, 8]], 36)
    ab = a @ b
    assert ab.grid.ctx is C32 and ab == PadicMatrix.from_ints(C32, [[19, 22], [43, 50]])
    assert [x.prec for row in ab.entries for x in row] == [32] * 4
    A = FinAlgebra.from_power_relation(C32, [0, 0])
    x = A.from_ints([3, 5]) * PadicScalar.from_int(C40, 2)
    assert [(c.ctx, c.residue(), c.prec) for c in x.coords] == [(C40, 6, 32), (C40, 10, 32)]
    K = FinAlgebra.field(C40)
    image = Morphism.create(A, K, [K.unit(), K.zero()]).apply(A.from_ints([3, 5]))
    assert image.algebra is K
    assert [(c.ctx, c.residue(), c.prec) for c in image.coords] == [(C40, 3, 32)]


# -- Row.key --------------------------------------------------------------


def _entries(row):
    """Per entry, the (parts, context) that Row.key stands for."""
    return [(row.parts(k), row.ctx) for k in range(len(row))]


def _moved(row, s):
    """row on a base s lower: the same entries, residues scaled by p^s."""
    pw = row.pw
    return Row(pw, row.base - s, [r * pw[s] for r in row.res], row.prec, row.ctx)


@st.composite
def key_rows(draw):
    """Rows of one prime made several ways from one draw of scalars of one
    context: by Row.of, moved to a lower base, as a rebased product with
    1, with one entry changed in value or precision (zero markers
    included), and with every entry moved into a wider context."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    p = ctx.p
    xs = draw(lines(ctx, draw(st.integers(1, 4))))
    ctx = xs[0].ctx
    row = Row.of(xs)
    rows = [row, _moved(row, draw(st.integers(1, 3))), Row.of(list(xs))]
    one = Row.of([PadicScalar.from_int(ctx.widen(8), 1)])
    rows.append(Row.dot([one], [row.slice(k, k + 1) for k in range(len(xs))], ctx))
    k = draw(st.integers(0, len(xs) - 1))
    x = xs[k]
    changed = draw(st.sampled_from([
        PadicScalar.zero(x.ctx, max(1, x.prec - 1)),
        PadicScalar.zero(x.ctx, x.prec),
        x + PadicScalar.from_val_unit(x.ctx, max(x.prec - 1, -1), 1),
        x.reduce(x.prec - 1),
    ]))
    other = Row.of(xs[:k] + [changed] + xs[k + 1:])
    rows += [other, _moved(other, 2)]
    rows.append(Row.of([PadicScalar(ctx.widen(1), x.v, x.u, x.prec) for x in xs]))
    # every nonzero entry at one valuation higher, same unit and precision
    # where that fits: the rebased residues may agree, the values do not
    rows.append(Row.of([PadicScalar(x.ctx, x.v + 1, x.u, x.prec)
                        if x.v is not None and x.u < p ** (x.prec - x.v - 1) else x
                        for x in xs]))
    assert all(r.pw.p == p for r in rows)
    return rows


@SETTINGS
@given(key_rows())
def test_row_key_is_the_entries_values(rows):
    # equal keys exactly where every entry has equal parts and context,
    # whatever the base; the key is kept and hashable
    for a in rows:
        assert a.key() is a.key()
        hash(a.key())
        for b in rows:
            assert (a.key() == b.key()) == (_entries(a) == _entries(b))
    assert rows[0].key() == rows[1].key() == rows[2].key()


def test_row_key_keeps_the_base_of_values_only():
    # 3 * [1, 2] and [1, 2] rebase to the same residues on different
    # bases; zero markers have no base to keep
    ctx = PrimeContext(3, 8)
    assert Row.of_ints(ctx, [3, 6]).key() != Row.of_ints(ctx, [1, 2]).key()
    zeros = Row.zeros(ctx, 2)
    assert _moved(zeros, 3).key() == zeros.key() != Row.of_ints(ctx, [0, 0], 7).key()
    assert Row.zeros(PrimeContext(3, 9), 2).key() != zeros.key()


@SETTINGS
@given(key_rows(), st.integers(-1, 10))
def test_agrees_and_min_valuation_match_the_scalars(rows, prec):
    # Row.agrees and Row.min_valuation against the scalar decisions they
    # stand for, whatever the base: equality mod p^prec of entries both
    # known mod p^prec (False on mixed lengths), and the least valuation
    # of a nonzero entry
    for a in rows:
        xs = a.scalars()
        vals = [x.v for x in xs if not x.is_zero]
        assert a.min_valuation() == (min(vals) if vals else None)
        for b in rows + [a.slice(1)]:
            ys = b.scalars()
            want = len(xs) == len(ys) and all(x.agrees(y, prec) for x, y in zip(xs, ys))
            assert a.agrees(b, prec) == want
