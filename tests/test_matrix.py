"""Matrix layer and elimination engine.

Rank oracle: exact Fraction-based Gaussian elimination (valid because the
fixtures have exact rational entries).  Matrix exp oracle: exact Fraction
series summed past the truncation bound, then reduced mod p^N.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson.context import PrimeContext
from padic_simpson.errors import (
    DimensionMismatch,
    OutsideExpDomain,
    PadicError,
    OutsideLogDomain,
    PrecisionExhausted,
)
from padic_simpson import _series, linalg
from padic_simpson.matrix import PadicMatrix, expm1_quotient, mat_exp, mat_log
from padic_simpson.scalar import PadicScalar

C5 = PrimeContext(5, 32)
C3 = PrimeContext(3, 32)
C2 = PrimeContext(2, 32)


def fraction_rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        rank += 1
    return rank


def fraction_mat_exp(rows, p, e0, prec):
    n = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [r[:] for r in ident]
    power = [r[:] for r in ident]
    k = 1
    while True:
        power = [
            [sum(power[i][t] * Fraction(rows[t][j]) for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        fk = 1
        for t in range(2, k + 1):
            fk *= t
        acc = [[acc[i][j] + power[i][j] / fk for j in range(n)] for i in range(n)]
        fv = 0
        m = k
        while m:
            m //= p
            fv += m
        if k * e0 - fv >= prec + 4:
            break
        k += 1
    mod = p ** prec
    return [
        [q.numerator * pow(q.denominator, -1, mod) % mod for q in row]
        for row in acc
    ]


def pm(ctx, rows):
    return PadicMatrix.from_ints(ctx, rows)


class TestElimination:
    def test_rank_against_fraction_oracle(self):
        rng = random.Random(3)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-20, 20) * 5 ** rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
            a = pm(C5, rows)
            rank, margin = linalg.rank_with_margin(a.rows())
            assert rank == fraction_rank(rows), rows

    def test_kernel_is_null_space(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 5, 5]]
        a = pm(C5, rows)
        basis = linalg.kernel_basis(a.rows())
        assert len(basis) == 3 - fraction_rank(rows)
        for vec in basis:
            for row in a.rows():
                acc = row[0] * vec[0]
                for x, y in zip(row[1:], vec[1:]):
                    acc = acc + x * y
                assert acc.is_zero

    def test_solve_and_inverse(self):
        a = pm(C5, [[2, 1], [1, 1]])
        inv = a.inverse()
        assert (a @ inv).agrees(PadicMatrix.identity(C5, 2), 30)

    def test_precision_exhausted_on_thin_zero(self):
        # an entry vanishing to only 2 digits cannot support a rank decision
        thin = PadicScalar.zero(C5, 2)
        row = [[thin]]
        with pytest.raises(PrecisionExhausted):
            linalg.rank_with_margin(row, min_margin=4)

    def test_margin_reported(self):
        rank, margin = linalg.rank_with_margin(pm(C5, [[5, 0], [0, 1]]).rows())
        assert rank == 2
        assert margin is not None and margin > 0


class TestMatrixOps:
    def test_matmul_identity(self):
        a = pm(C5, [[1, 2], [3, 4]])
        assert a @ PadicMatrix.identity(C5, 2) == a

    def test_kron_shape_and_values(self):
        a = pm(C5, [[1, 2], [0, 1]])
        b = pm(C5, [[3]])
        k = a.kron(b)
        assert k.nrows == 2 and k[0, 1].residue(5) == 6

    def test_block_diag(self):
        a = pm(C5, [[1]])
        b = pm(C5, [[2, 0], [0, 3]])
        d = PadicMatrix.block_diag(a, b)
        assert d.nrows == 3
        assert d[0, 0] == PadicScalar.from_int(C5, 1)
        assert d[1, 2].is_zero

    def test_pow_inverse(self):
        a = pm(C5, [[1, 5], [0, 1]])
        assert (a ** -1 @ a).agrees(PadicMatrix.identity(C5, 2), 30)


class TestMatExpLog:
    def test_exp_zero_is_identity(self):
        z = PadicMatrix.zeros(C5, 3)
        assert mat_exp(z) == PadicMatrix.identity(C5, 3)

    def test_nilpotent_exp_exact(self):
        # theta^2 = 0 forces exp = 1 + theta
        t = pm(C5, [[0, 5], [0, 0]])
        assert mat_exp(t) == pm(C5, [[1, 5], [0, 1]])

    def test_nilpotent_log_exact(self):
        r = pm(C5, [[1, 5], [0, 1]])
        assert mat_log(r) == pm(C5, [[0, 5], [0, 0]])

    def test_exp_against_fraction_oracle(self):
        rng = random.Random(5)
        for ctx in (C3, C5, C2):
            e0 = ctx.e0
            for _ in range(6):
                n = rng.randint(1, 3)
                rows = [
                    [ctx.p ** e0 * rng.randint(0, ctx.p ** 3) for _ in range(n)]
                    for _ in range(n)
                ]
                expected = fraction_mat_exp(rows, ctx.p, e0, 32)
                got = mat_exp(pm(ctx, rows))
                assert got.residues(32) == expected, (ctx.p, rows)

    def test_domain_errors(self):
        with pytest.raises(OutsideExpDomain):
            mat_exp(pm(C5, [[1]]))
        with pytest.raises(OutsideExpDomain):
            mat_exp(pm(C2, [[2]]))
        with pytest.raises(OutsideLogDomain):
            mat_log(pm(C5, [[2]]))

    def test_entry_known_to_no_digit_is_refused(self):
        # c = 5^-10 known to relative precision 2: c - c is O(5^-8), and a
        # series on it has no digit to work on
        c = PadicScalar.from_int(C5, 5 ** 10).reduce(12).inv()
        hole = c - c
        five, zero = PadicScalar.from_int(C5, 5), PadicScalar.zero(C5)
        t = PadicMatrix.from_rows(C5, [[hole, five], [zero, five]])
        u = PadicMatrix.from_rows(C5, [[PadicScalar.from_int(C5, 1) + hole, five],
                                       [zero, PadicScalar.from_int(C5, 1)]])
        for fn, m in ((mat_exp, t), (expm1_quotient, t), (mat_log, u),
                      (expm1_quotient, PadicMatrix.from_rows(C5, [[hole]]))):
            with pytest.raises(PrecisionExhausted, match="known only mod 5\\^-8"):
                fn(m)

    def test_round_trip_random_commuting(self):
        rng = random.Random(17)
        for ctx in (C3, C5):
            for _ in range(10):
                n = rng.randint(1, 4)
                d = [[ctx.p * rng.randint(0, ctx.p ** 4) if i <= j else 0 for j in range(n)] for i in range(n)]
                t = pm(ctx, d)
                assert mat_log(mat_exp(t)).agrees(t, 28)

    def test_expm1_quotient_witness(self):
        for ctx in (C3, C5, C2):
            t = pm(ctx, [[ctx.p ** ctx.e0 * 2, ctx.p ** ctx.e0], [0, ctx.p ** ctx.e0 * 3]])
            u = expm1_quotient(t)
            lhs = mat_exp(t) - PadicMatrix.identity(ctx, 2)
            assert lhs.agrees(t @ u, 30)
            assert u.commutes_with(t)
            # u = 1 mod p, hence a unit
            diff = u - PadicMatrix.identity(ctx, 2)
            assert diff.min_valuation() is None or diff.min_valuation() >= 1


def series_kernel_digest(p):
    """sha256 prefix of the residues exp_matrix and expm1_quotient_matrix
    return on seeded integer matrices with entries divisible by p^e0:
    N in {8, 13, 20, 40}, sizes 1-5, three dense matrices, one with entries
    of valuation >= e0 + 2, one strictly upper triangular (nilpotent) and
    the zero matrix per (N, size)."""
    e0 = 1 if p > 2 else 2
    rng = random.Random("series-kernels:%d" % p)
    digest = hashlib.sha256()
    for prec in (8, 13, 20, 40):
        for n in range(1, 6):
            def draw(scale, keep=lambda i, j: True):
                return [[scale * rng.randrange(p ** prec) if keep(i, j) else 0
                         for j in range(n)] for i in range(n)]
            mats = [draw(p ** e0) for _ in range(3)]
            mats += [draw(p ** (e0 + 2)), draw(p ** e0, lambda i, j: i < j), draw(0)]
            for t in mats:
                digest.update(repr(_series.exp_matrix(t, p, e0, prec)).encode())
                digest.update(repr(_series.expm1_quotient_matrix(t, p, e0, prec)).encode())
    return digest.hexdigest()[:16]


# series_kernel_digest per p, recorded when exp and the expm1 quotient had
# separate kernels; 2, 3 and 5 re-pinned when the term count stopped at the
# first vanishing term (expm1 at p = 2, N = 8 and exp at p = 3, 5, N = 20 kept
# a surviving later term out), each changed residue checked against an
# exact term-by-term sum
SERIES_KERNELS = {2: "8f1b1a315e60759c", 3: "881b4a2b80872255", 5: "a7bdd35b738366fc",
                  7: "c6a187eac76a74e6"}


@pytest.mark.parametrize("p", sorted(SERIES_KERNELS))
def test_series_kernels_pinned(p):
    assert series_kernel_digest(p) == SERIES_KERNELS[p]


def log_kernel_digest(p):
    """sha256 prefix of the residues log_matrix returns on 1 + t for the
    grid of series_kernel_digest (its own seeded draws), with v_min = e0."""
    e0 = 1 if p > 2 else 2
    rng = random.Random("log-kernel:%d" % p)
    digest = hashlib.sha256()
    for prec in (8, 13, 20, 40):
        for n in range(1, 6):
            def draw(scale, keep=lambda i, j: True):
                return [[scale * rng.randrange(p ** prec) if keep(i, j) else 0
                         for j in range(n)] for i in range(n)]
            mats = [draw(p ** e0) for _ in range(3)]
            mats += [draw(p ** (e0 + 2)), draw(p ** e0, lambda i, j: i < j), draw(0)]
            for t in mats:
                u = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
                digest.update(repr(_series.log_matrix(u, p, e0, prec)).encode())
    return digest.hexdigest()[:16]


# log_kernel_digest per p, recorded when log_matrix summed its series term
# by term, dividing each t^k by k
LOG_KERNELS = {2: "b7dee2577bab88ab", 3: "2f9628ac0fd73467", 5: "91d4d3fc42fa0fa0",
               7: "9cfdfe49d0144c04"}


@pytest.mark.parametrize("p", sorted(LOG_KERNELS))
def test_log_kernel_pinned(p):
    assert log_kernel_digest(p) == LOG_KERNELS[p]


def fold_matmul(a: PadicMatrix, b: PadicMatrix) -> PadicMatrix:
    """The product summed scalar by scalar, acc = acc + a*b: the reference
    for the residue kernel behind PadicMatrix @."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.entries[i][0] * b.entries[0][j]
            for t in range(1, a.ncols):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        out.append(row)
    return PadicMatrix.from_rows(a.ctx, out)


@st.composite
def ledger_contexts(draw, ctx):
    """The one context of an operand: ctx, or ctx widened by up to 4
    digits half the time."""
    if draw(st.booleans()):
        ctx = ctx.widen(draw(st.integers(1, 4)))
    return ctx


@st.composite
def ledger_scalars(draw, ctx, prec=None):
    """Scalars of ctx: zero markers, valuations from -3 up, and any
    precision up to ctx's N, or prec when it is given."""
    if prec is None:
        prec = draw(st.integers(-2, ctx.default_precision))
    p = ctx.p
    if draw(st.integers(0, 3)) == 0:
        return PadicScalar.zero(ctx, prec)
    v = draw(st.integers(-3, prec - 1))
    rel = prec - v
    u = draw(st.integers(0, p ** (rel - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicScalar(ctx, v, u, prec)


@st.composite
def ledger_lines(draw, ctx, n):
    """n ledger_scalars of ctx, half the time all at one drawn precision:
    a row or column whose ledger half Row.dot reads from its minima rather
    than term by term."""
    prec = draw(st.integers(-2, ctx.default_precision)) if draw(st.booleans()) else None
    return [draw(ledger_scalars(ctx, prec)) for _ in range(n)]


@st.composite
def matmul_operands(draw):
    """a (n x k) and b (k x m), each in a context of its own drawn by
    ledger_contexts, each row of a and each column of b at one precision
    about half the time."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(8, 12)))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a_ctx, b_ctx = draw(ledger_contexts(ctx)), draw(ledger_contexts(ctx))
    a = PadicMatrix.from_rows(ctx, [draw(ledger_lines(a_ctx, k)) for _ in range(n)])
    cols = [draw(ledger_lines(b_ctx, k)) for _ in range(m)]
    b = PadicMatrix.from_rows(ctx, [[col[t] for col in cols] for t in range(k)])
    return a, b


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matmul_operands())
def test_matmul_kernel_matches_scalar_fold(operands):
    a, b = operands
    got, want = a @ b, fold_matmul(a, b)
    assert [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in got.entries] == \
        [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in want.entries]


def test_sum_and_difference_check_shape():
    ctx = PrimeContext(5, 8)
    two, three = PadicMatrix.identity(ctx, 2), PadicMatrix.identity(ctx, 3)
    wide = PadicMatrix.from_ints(ctx, [[1, 2, 3], [4, 5, 6]])
    for a, b in ((two, three), (three, two), (wide, three), (wide, wide.transpose())):
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b
    assert (wide + wide) - wide == wide


def test_matmul_checks_inner_dimension():
    ctx = PrimeContext(5, 8)
    two, three = PadicMatrix.identity(ctx, 2), PadicMatrix.identity(ctx, 3)
    for a, b in ((two, three), (three, two)):
        with pytest.raises(DimensionMismatch):
            a @ b
    wide = PadicMatrix.from_ints(ctx, [[1, 2, 3], [4, 5, 6]])
    assert (wide @ wide.transpose()).entries == PadicMatrix.from_ints(
        ctx, [[14, 32], [32, 77]]).entries


def test_empty_shapes_are_kept():
    # an n x 0 by 0 x m product is the fold of no terms: zero markers
    # O(p^N) of the left factor's context
    c = PrimeContext(3, 8)
    tall = PadicMatrix.from_rows(c, [[], []])
    assert (tall.nrows, tall.ncols) == (2, 0)
    square = tall @ PadicMatrix.from_rows(c, [])
    assert (square.nrows, square.ncols, square.entries) == (2, 0, ((), ()))
    wide = PadicMatrix.zeros(c, 0, 3)
    assert (wide.nrows, wide.ncols) == (0, 3)
    assert (tall.transpose().nrows, tall.transpose().ncols) == (0, 2)
    product = tall @ wide
    assert [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in product.entries] == \
        [[(None, 0, 8, c)] * 3] * 2
    with pytest.raises(DimensionMismatch):
        wide @ tall


def test_views_are_kept_tuples():
    # a matrix slices its rows and its columns once, on first read, and
    # hands out the same tuples from then on
    c = PrimeContext(5, 8)
    m = PadicMatrix.from_ints(c, [[1, 2, 3], [4, 5, 6]])
    rows, cols = m.int_rows(), m.int_columns()
    assert type(rows) is tuple and type(cols) is tuple
    assert m.int_rows() is rows and m.int_columns() is cols
    assert [r.scalars() for r in rows] == [list(r) for r in m.entries]
    assert [col.scalars() for col in cols] == [list(r) for r in m.transpose().entries]
    # a product reads the views it keeps, and the operands' views stay
    product = m @ m.transpose()
    assert m.int_rows() is rows and m.int_columns() is cols
    assert product.int_rows() is product.int_rows()


# -- the integer grid against the scalar tuples it replaced ------------------
#
# Each reference below is the operation as it stood when a PadicMatrix held
# a tuple of tuples of PadicScalars: one scalar expression per entry.


def ledger_rows(rows):
    return [[(x.v, x.u, x.prec, x.ctx) for x in row] for row in rows]


def ledger_of(m: PadicMatrix):
    return (m.nrows, m.ncols, ledger_rows(m.entries))


def ref_matrix(rows, ncols):
    rows = [list(r) for r in rows]
    return (len(rows), ncols, ledger_rows(rows))


def ref_add(a, b):
    return ref_matrix([[x + y for x, y in zip(ra, rb)]
                       for ra, rb in zip(a.entries, b.entries)], a.ncols)


def ref_sub(a, b):
    return ref_matrix([[x - y for x, y in zip(ra, rb)]
                       for ra, rb in zip(a.entries, b.entries)], a.ncols)


def ref_neg(a):
    return ref_matrix([[-x for x in r] for r in a.entries], a.ncols)


def ref_scale(a, c):
    return ref_matrix([[c * x for x in r] for r in a.entries], a.ncols)


def ref_transpose(a):
    return ref_matrix(zip(*a.entries), a.nrows)


def ref_kron(a, b):
    out = []
    for ra in a.entries:
        for rb in b.entries:
            out.append([x * y for x in ra for y in rb])
    return ref_matrix(out, a.ncols * b.ncols)


def ref_block_diag(a, b):
    n, m = a.nrows, b.nrows
    z = PadicScalar.zero(a.ctx)
    out = [list(a.entries[i]) + [z] * m for i in range(n)]
    out += [[z] * n + list(b.entries[i]) for i in range(m)]
    return ref_matrix(out, n + m)


def ref_eq(a, b):
    return all(x == y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


def ref_agrees(a, b, prec):
    return all(x.agrees(y, prec) for ra, rb in zip(a.entries, b.entries)
               for x, y in zip(ra, rb))


def ref_is_zero(rows):
    return all(x.is_zero for row in rows for x in row)


def ref_min_valuation(a):
    vals = [x.v for row in a.entries for x in row if not x.is_zero]
    return min(vals) if vals else None


def ref_min_precision(a):
    return min(x.prec for row in a.entries for x in row)


def ref_commutes(a, b):
    ab, ba = fold_matmul(a, b).entries, fold_matmul(b, a).entries
    return ref_is_zero([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)])


def ref_residues(a, prec):
    return [[x.residue(min(prec, x.prec)) for x in row] for row in a.entries]


def ref_reduced(a, prec):
    return ref_matrix([[x.reduce(prec) for x in row] for row in a.entries], a.ncols)


def outcome(fn, *args):
    try:
        return fn(*args)
    except PadicError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def near(draw, x, ctx):
    """x itself, x known to fewer digits, x plus a zero marker, or a fresh
    draw: so that equalities and agreements hold as often as they fail."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return x
    if kind == 1:
        return x.reduce(draw(st.integers(-2, ctx.default_precision)))
    if kind == 2:
        return x + PadicScalar.zero(ctx, draw(st.integers(-2, ctx.default_precision)))
    return draw(ledger_scalars(ctx))


@st.composite
def grid_operands(draw, square=False):
    """Two matrices of one shape (always square with square, else half
    the time) in one context drawn by ledger_contexts, the second near the
    first, a scalar of a context of its own and a precision."""
    base = PrimeContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(8, 12)))
    ctx = draw(ledger_contexts(base))
    n = draw(st.integers(1, 4))
    m = n if square or draw(st.booleans()) else draw(st.integers(1, 4))
    entry = ledger_scalars(ctx)
    a = PadicMatrix.from_rows(ctx, [[draw(entry) for _ in range(m)] for _ in range(n)])
    b = PadicMatrix.from_rows(ctx, [[draw(near(x, ctx)) for x in row] for row in a.entries])
    c = draw(ledger_scalars(draw(ledger_contexts(base))))
    return a, b, c, draw(st.integers(-2, base.default_precision + 2))


GRID_SETTINGS = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@GRID_SETTINGS
@given(grid_operands())
def test_entrywise_arithmetic_matches_scalar_tuples(operands):
    a, b, c, _ = operands
    assert ledger_of(a + b) == ref_add(a, b)
    assert ledger_of(a - b) == ref_sub(a, b)
    assert ledger_of(-a) == ref_neg(a)
    assert ledger_of(a.scale(c)) == ref_scale(a, c)
    assert ledger_of(a.transpose()) == ref_transpose(a)
    assert ledger_of(a.kron(b.transpose())) == ref_kron(a, b.transpose())


@GRID_SETTINGS
@given(grid_operands(square=True))
def test_block_diag_matches_scalar_tuples(operands):
    a, b, _, _ = operands
    for x, y in ((a, b), (a.kron(b), a), (a, a.kron(b))):
        assert ledger_of(PadicMatrix.block_diag(x, y)) == ref_block_diag(x, y)


@GRID_SETTINGS
@given(grid_operands())
def test_comparisons_match_scalar_tuples(operands):
    a, b, _, prec = operands
    assert (a == b) == ref_eq(a, b)
    assert (b == a) == ref_eq(b, a)
    assert a.agrees(b, prec) == ref_agrees(a, b, prec)
    for m in (a, b, a - b, a.reduced(prec)):
        assert m.is_zero_to_precision() == ref_is_zero(m.entries)
        assert m.min_valuation() == ref_min_valuation(m)
        assert m.min_precision() == ref_min_precision(m)
    if a.nrows == a.ncols:
        for other in (b, a @ a, a.scale(b[0, 0])):
            assert a.commutes_with(other) == ref_commutes(a, other)


@GRID_SETTINGS
@given(grid_operands())
def test_residues_and_reduction_match_scalar_tuples(operands):
    a, b, _, prec = operands
    # a residue mod p^k for k < 0 is no request the library makes, and
    # PadicScalar.residue answers it with a float
    k = max(prec, 0)
    # a difference or a reduction can vanish where its base was set
    for m in (a, b, a - b, a.reduced(prec)):
        assert outcome(m.residues, k) == outcome(ref_residues, m, k)
        assert ledger_of(m.reduced(prec)) == ref_reduced(m, prec)


def test_hot_paths_build_no_scalars(monkeypatch):
    # @, commutes_with, == and - on 6 x 6 matrices, a Koszul complex, the
    # validation of a spectral tensor, element products, sums, scalar
    # products and morphism images in a 4-dimensional algebra, the writers
    # of every kind, both cohomologies of a module with a nonzero joint
    # kernel, component quotients and a quotient by the nilradical work on
    # integer grids alone; reading entries builds one scalar per entry
    from padic_simpson.algebra import FinAlgebra, Morphism, nilradical, quotient_by_ideal
    from padic_simpson.components import component_quotient, idempotents
    from padic_simpson.generate import gen_higgs
    from padic_simpson.higgs import HiggsModule, higgs_to_rep, spectral_algebra
    from padic_simpson.io_json import higgs_to_json, rep_to_json, twist_to_json
    from padic_simpson.koszul import KoszulComplex, compare_cohomology

    ctx = PrimeContext(5, 32)
    rng = random.Random(18)
    a, b = (PadicMatrix.from_ints(ctx, [[rng.randrange(5 ** 6) for _ in range(6)]
                                        for _ in range(6)]) for _ in range(2))
    H = gen_higgs(3, 2, 4, 0.6, seed=11)
    S = spectral_algebra(H)
    B = FinAlgebra.create(S.algebra.ctx, S.algebra.mul, S.algebra.one, validate=False,
                          exact_structure=False)
    A = FinAlgebra.from_power_relation(ctx, [1, 5, 2, 3])
    x, y = (A.from_ints([rng.randrange(5 ** 6) for _ in range(4)]) for _ in range(2))
    c = PadicScalar.from_fraction(ctx, Fraction(2, 5))
    f = Morphism(A, A, (A.unit(), y, x, x * y))
    T = HiggsModule.trivial(ctx, 2, 3)
    V = higgs_to_rep(T)
    split = FinAlgebra.from_power_relation(ctx, [0, 1, 0])
    idems = idempotents(split)
    nil = FinAlgebra.from_power_relation(ctx, [0, 0, 1])
    radical = nilradical(nil)
    built = []
    init = PadicScalar.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(PadicScalar, "__init__", counting)
    product = a @ b
    a.commutes_with(b)
    assert not a == b
    a - b
    KoszulComplex(H.theta)
    B._validate()
    x * y
    x + y
    x * c
    f.apply(x)
    higgs_to_json(T)
    rep_to_json(V)
    twist_to_json(S.algebra, S.tau)
    assert compare_cohomology(T).ok
    for e in idems:
        component_quotient(split, e)
    quotient_by_ideal(nil, radical)
    assert built == []
    product.entries
    assert len(built) == 36


def test_repeated_squaring_keeps_the_base():
    # E = [[1, 3^-1], [0, 0]] is idempotent: each X @ X adds the bases of
    # its factors, and the product is rebased to its least valuation, so
    # sixteen squarings leave the base at -1 (not -2^16) and take no time
    ctx = PrimeContext(3, 12)
    third = PadicScalar.from_fraction(ctx, Fraction(1, 3))
    zero = PadicScalar.zero(ctx)
    E = PadicMatrix.from_rows(ctx, [[PadicScalar.from_int(ctx, 1), third], [zero, zero]])
    X = E
    for _ in range(16):
        X = X @ X
    assert X == E
    assert X.grid.base == X.min_valuation() == -1
    # a product that vanishes to precision is based at its least precision
    Z = PadicMatrix.from_rows(ctx, [[zero, third], [zero, zero]])
    for _ in range(16):
        Z = Z @ Z
    assert Z.is_zero_to_precision() and Z.grid.base == Z.min_precision()
