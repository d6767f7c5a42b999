"""Factor-once solves against the augmented elimination they replace.

The reference functions below are the augmented-system solver and the
identity-augmented inverse as they stood before Elimination.solve existed:
the right-hand sides ride along as extra columns of one elimination whose
pivot search is confined to the coefficient columns.  Elimination.solve
replays the recorded row operations on the columns instead, so every
solution entry, every None and every PrecisionExhausted must match the
reference, both for a batch of columns and for columns solved one at a
time on one factorisation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson import linalg
from padic_simpson.context import DEFAULT_SLACK, PrimeContext
from padic_simpson.errors import PrecisionExhausted
from padic_simpson.scalar import PadicScalar

CONTEXTS = {p: PrimeContext(p, 8) for p in (2, 3, 5)}


# -- reference: the augmented elimination -------------------------------


def _ref_eliminate(mat, pivot_cols, min_margin):
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


def outcome(fn, *args):
    """A comparable record of a call: its entries with their contexts, None,
    or the exception it raised."""
    try:
        result = fn(*args)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))
    if result is None:
        return None
    return [[(x.v, x.u, x.prec, x.ctx) for x in col] for col in result]


# -- draws ---------------------------------------------------------------


@st.composite
def scalars(draw, ctx):
    """A scalar of ctx or of a widened ctx: zero markers, thin and full
    precisions, valuations from -1 up."""
    if draw(st.booleans()):
        ctx = ctx.widen(draw(st.integers(1, 3)))
    p, top = ctx.p, ctx.default_precision
    prec = draw(st.sampled_from([top, top, draw(st.integers(1, top))]))
    if draw(st.integers(0, 3)) == 0:
        return PadicScalar.zero(ctx, prec)
    v = draw(st.integers(-1, min(2, prec - 1)))
    rel = prec - v
    u = draw(st.integers(0, p ** (rel - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicScalar(ctx, v, u, prec)


def _combination(mat, coeffs):
    """mat @ coeffs summed scalar by scalar (a right-hand side in the span)."""
    out = []
    for row in mat:
        acc = row[0] * coeffs[0]
        for a, c in zip(row[1:], coeffs[1:]):
            acc = acc + a * c
        out.append(acc)
    return out


@st.composite
def systems(draw):
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = scalars(ctx)
    if draw(st.booleans()):
        mat = [[draw(entry) for _ in range(n)] for _ in range(m)]
    else:  # rank deficient and thin: a product through a narrower space
        r = draw(st.integers(1, 2))
        left = [[draw(entry) for _ in range(r)] for _ in range(m)]
        right = [[draw(entry) for _ in range(r)] for _ in range(n)]
        mat = [_combination(left, col) for col in right]
        mat = [list(row) for row in zip(*mat)]
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
