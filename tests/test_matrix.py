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
def ledger_scalars(draw, ctx):
    """Zero markers, valuations from -3 up, any precision up to the
    context's, and entries of contexts widened by up to 4 digits."""
    if draw(st.booleans()):
        ctx = ctx.widen(draw(st.integers(1, 4)))
    p, top = ctx.p, ctx.default_precision
    prec = draw(st.integers(-2, top))
    if draw(st.integers(0, 3)) == 0:
        return PadicScalar.zero(ctx, prec)
    v = draw(st.integers(-3, prec - 1))
    rel = prec - v
    u = draw(st.integers(0, p ** (rel - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicScalar(ctx, v, u, prec)


@st.composite
def matmul_operands(draw):
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(8, 12)))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    entry = ledger_scalars(ctx)
    a = PadicMatrix.from_rows(ctx, [[draw(entry) for _ in range(k)] for _ in range(n)])
    b = PadicMatrix.from_rows(ctx, [[draw(entry) for _ in range(m)] for _ in range(k)])
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
