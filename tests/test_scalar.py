"""padic-core: arithmetic, precision ledger, exp/log/Teichmuller.

Oracles are independent of the package kernels: exact Fraction partial sums
reduced mod p^N for the series, extended Euclid via pow(-1) for inversion,
and the x -> x^p iteration for Teichmuller lifts.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from padic_simpson.algebra import FinAlgebra
from padic_simpson.context import PrimeContext
from padic_simpson.errors import (
    ContextMismatch,
    DivisionByZeroToPrecision,
    OutsideExpDomain,
    OutsideLogDomain,
    OutsideRepresentableDomain,
    PadicError,
    ZeroResidue,
)
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import higgs_to_rep
from padic_simpson.matrix import PadicMatrix
from padic_simpson.scalar import (
    PadicScalar,
    big_exp,
    exp_scalar,
    log_scalar,
    teichmuller,
    val,
)


def series_exp_oracle(x: int, p: int, e0: int, prec: int) -> int:
    """Truncated-series oracle with term-by-term valuation bookkeeping:
    sum x^n/n! as an exact Fraction until the term valuation bound passes
    prec, then one modular reduction."""
    total = Fraction(0)
    n = 0
    term_val = 0
    while term_val < prec + 4:
        total += Fraction(x) ** n / Fraction(_factorial(n))
        n += 1
        fv = 0
        m = n
        while m:
            m //= p
            fv += m
        term_val = n * e0 - fv
    assert total.denominator % p != 0
    mod = p ** prec
    return total.numerator * pow(total.denominator, -1, mod) % mod


def series_log_oracle(u: int, p: int, prec: int) -> int:
    t = Fraction(u - 1)
    v = 0
    x = u - 1
    while x % p == 0:
        x //= p
        v += 1
    total = Fraction(0)
    n = 1
    while True:
        import math

        if n * v - int(math.log(n, p)) - 1 >= prec + 4:
            break
        total += Fraction((-1) ** (n + 1)) * t ** n / n
        n += 1
    assert total.denominator % p != 0
    mod = p ** prec
    return total.numerator * pow(total.denominator, -1, mod) % mod


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


C5 = PrimeContext(5, 32)
C3 = PrimeContext(3, 32)
C7 = PrimeContext(7, 32)
C2 = PrimeContext(2, 32)


def s(ctx, x):
    return PadicScalar.from_int(ctx, x)


class TestContext:
    def test_primality_checked(self):
        with pytest.raises(PadicError):
            PrimeContext(6, 32)

    def test_minimum_precision(self):
        with pytest.raises(PadicError):
            PrimeContext(5, 4)

    def test_exp_domain_exponent_rule(self):
        assert C5.e0 == 1
        assert C3.e0 == 1
        assert C2.e0 == 2


class TestArithmetic:
    def test_add_trivial(self):
        # 3 + 2 -> 5, valuation 1
        r = s(C5, 3) + s(C5, 2)
        assert r.valuation == 1
        assert r == s(C5, 5)

    def test_add_identity(self):
        x = s(C5, 1234)
        assert x + PadicScalar.zero(C5) == x

    def test_add_cancellation_to_marker(self):
        # 5^9*u + 5^9*w with u+w = 0 mod 5: derived from integer arithmetic
        # mod 5^10 at precision 10
        a = PadicScalar.from_int(C5, 5 ** 9 * 2).reduce(10)
        b = PadicScalar.from_int(C5, 5 ** 9 * 3).reduce(10)
        r = a + b
        assert r.is_zero
        assert r.precision == 10
        assert val(r) is None

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            s(C5, 1) + s(C7, 1)

    def test_val_trivial(self):
        assert val(s(C5, 50)) == 2  # 50 = 2 * 5^2

    def test_inv_identity(self):
        one = s(C7, 1)
        assert one.inv() == one

    def test_inv_against_euclid_oracle(self):
        # extended-Euclid oracle mod 7^N
        N = 32
        expected = pow(3, -1, 7 ** N)
        r = s(C7, 3).inv()
        assert r.residue(N) == expected
        assert (s(C7, 3) * r) == s(C7, 1)

    def test_inv_zero_marker(self):
        with pytest.raises(DivisionByZeroToPrecision):
            PadicScalar.zero(C5).inv()

    def test_inv_precision_ledger(self):
        # inversion loses 2*val digits
        x = s(C5, 25 * 3)
        assert x.inv().precision == 32 - 4

    def test_val_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(1, 5 ** 12)
            b = rng.randrange(1, 5 ** 12)
            x, y = s(C5, a), s(C5, b)
            assert (x * y).valuation == x.valuation + y.valuation
            z = x + y
            if x.valuation != y.valuation:
                assert z.valuation == min(x.valuation, y.valuation)
            elif not z.is_zero:
                assert z.valuation >= min(x.valuation, y.valuation)

    def test_mul_valuation_precision(self):
        x = s(C5, 5)
        y = s(C5, 7)
        assert (x * y).valuation == 1
        assert (x * y).precision == 32

    def test_equality_is_mod_min_precision(self):
        a = s(C5, 2)
        b = s(C5, 2 + 5 ** 10).reduce(10)
        assert a == b  # agree mod 5^10
        assert not a == s(C5, 2 + 5 ** 10)

    def test_parse_round_trip(self):
        for text in ["0", "7", "-3", "2:13", "4/7"]:
            x = PadicScalar.parse(C5, text)
            y = PadicScalar.parse(C5, x.to_string())
            assert x == y

    def test_parse_rational_oracle(self):
        # 4/7 mod 5^32 via modular inverse
        x = PadicScalar.parse(C5, "4/7")
        assert x.residue(32) == 4 * pow(7, -1, 5 ** 32) % 5 ** 32

    def test_parse_bad_denominator(self):
        with pytest.raises(PadicError):
            PadicScalar.parse(C5, "1/10")

    def test_pow_matches_repeated_mul(self):
        x = s(C5, 12)
        assert x ** 5 == x * x * x * x * x
        assert (x ** -2) * x * x == s(C5, 1)


class TestAgrees:
    """A tolerance check at prec holds only when both operands are known
    modulo p^prec; a thinner operand fails it instead of passing on the
    digits it has."""

    full = s(C5, 2 + 5 ** 15)  # known mod 5^32
    thin = full.reduce(10)  # the same value known mod 5^10

    def test_scalar(self):
        assert self.thin.agrees(self.full, 10)
        assert self.full.agrees(self.full, 20)
        assert not self.thin.agrees(self.full, 20)
        assert not self.full.agrees(self.thin, 20)
        assert not self.full.agrees(s(C5, 2), 20)

    def test_zero_markers(self):
        assert PadicScalar.zero(C5, 10).agrees(PadicScalar.zero(C5), 10)
        assert not PadicScalar.zero(C5, 10).agrees(PadicScalar.zero(C5), 20)

    def test_algebra_element(self):
        A = FinAlgebra.from_power_relation(C5, [0, 0])
        x = A.element([self.thin, self.full])
        y = A.element([self.full, self.full])
        assert x.agrees(y, 10)
        assert not x.agrees(y, 20)
        assert not y.agrees(x, 20)

    def test_matrix(self):
        a = PadicMatrix.from_rows(C5, [[self.full, self.thin], [self.full, self.full]])
        b = PadicMatrix.from_rows(C5, [[self.full, self.full], [self.full, self.full]])
        assert a.agrees(b, 10)
        assert not a.agrees(b, 20)
        assert not b.agrees(a, 20)

    def test_shape_mismatch(self):
        # an operand with fewer entries, coordinates or components is not a
        # truncated copy that agrees on the ones it has
        ident = PadicMatrix.identity(C5, 2)
        corner = PadicMatrix.from_rows(C5, [[s(C5, 1)]])
        assert not ident.agrees(corner, 10) and not corner.agrees(ident, 10)
        A3 = FinAlgebra.from_power_relation(C5, [0, 0, 0])
        A2 = FinAlgebra.from_power_relation(C5, [0, 0])
        x3, x2 = A3.from_ints([1, 5, 7]), A2.from_ints([1, 5])
        assert not x3 == x2 and not x2 == x3
        assert not x3.agrees(x2, 10) and not x2.agrees(x3, 10)
        H = gen_higgs(5, 2, 3, seed=1)
        for a in (H, higgs_to_rep(H)):
            field = "theta" if a is H else "rho"
            cut = dataclasses.replace(a, **{field: getattr(a, field)[:1]})
            assert a.agrees(a, 20)
            assert not a.agrees(cut, 20) and not cut.agrees(a, 20)
            assert not a == cut and not cut == a


class TestExpLog:
    def test_exp_zero(self):
        assert exp_scalar(PadicScalar.zero(C5)) == s(C5, 1)

    def test_exp_outside_domain(self):
        with pytest.raises(OutsideExpDomain):
            exp_scalar(s(C5, 2))

    def test_exp_p2_domain_is_4Z2(self):
        # at p = 2 the domain is valuation >= 2
        with pytest.raises(OutsideExpDomain):
            exp_scalar(s(C2, 2))
        exp_scalar(s(C2, 4))  # fine

    def test_exp_against_series_oracle(self):
        for ctx, x in [(C5, 5), (C5, 35), (C3, 3), (C3, 18), (C7, 7), (C2, 4), (C2, 12)]:
            expected = series_exp_oracle(x, ctx.p, ctx.e0, 32)
            got = exp_scalar(s(ctx, x))
            assert got.residue(32) == expected, (ctx.p, x)

    def test_exp_congruent_one_mod_pe0(self):
        e = exp_scalar(s(C2, 4))
        assert (e - s(C2, 1)).valuation >= 2

    def test_log_identity(self):
        assert log_scalar(s(C5, 1)).is_zero

    def test_log_outside_domain(self):
        with pytest.raises(OutsideLogDomain):
            log_scalar(s(C5, 3))

    def test_log_against_series_oracle(self):
        for ctx, u in [(C5, 26), (C5, 1 + 5), (C3, 1 + 9), (C7, 1 + 49)]:
            expected = series_log_oracle(u, ctx.p, 32)
            got = log_scalar(s(ctx, u))
            assert got.residue(32) == expected, (ctx.p, u)

    def test_log_exp_round_trip_example(self):
        # (p=5) log(exp(5)) = 5
        assert log_scalar(exp_scalar(s(C5, 5))) == s(C5, 5)

    def test_exp_log_round_trip_example(self):
        # (p=5) exp(log(1+25)) = 1+25
        assert exp_scalar(log_scalar(s(C5, 26))) == s(C5, 26)

    def test_log_homomorphism(self):
        # log(uw) = log(u) + log(w) for u = 1+3, w = 1+9 at p = 3
        u, w = s(C3, 4), s(C3, 10)
        assert log_scalar(u * w) == log_scalar(u) + log_scalar(w)

    def test_exp_homomorphism_random(self):
        rng = random.Random(11)
        for ctx in (C3, C5, C7):
            for _ in range(25):
                a = ctx.p * rng.randrange(1, ctx.p ** 10)
                b = ctx.p * rng.randrange(1, ctx.p ** 10)
                lhs = exp_scalar(s(ctx, a + b))
                rhs = exp_scalar(s(ctx, a)) * exp_scalar(s(ctx, b))
                assert lhs.agrees(rhs, 30)

    def test_bijection_property(self):
        # exp/log mutually inverse between p^e0 Z_p and 1 + p^e0 Z_p
        rng = random.Random(13)
        for ctx in (C3, C5, C7, C2):
            e0 = ctx.e0
            for _ in range(250):
                x = s(ctx, ctx.p ** e0 * rng.randrange(0, ctx.p ** 20))
                assert log_scalar(exp_scalar(x)).agrees(x, 28)
                u = s(ctx, 1 + ctx.p ** e0 * rng.randrange(0, ctx.p ** 20))
                assert exp_scalar(log_scalar(u)).agrees(u, 28)


class TestTeichmuller:
    def test_identity(self):
        assert teichmuller(C5, 1) == s(C5, 1)

    def test_zero_residue(self):
        with pytest.raises(ZeroResidue):
            teichmuller(C5, 10)

    def test_fixed_point_oracle(self):
        # independent iteration of x -> x^5 mod 5^32
        x = 2
        for _ in range(40):
            x = pow(x, 5, 5 ** 32)
        t = teichmuller(C5, 2)
        assert t.residue(32) == x
        assert (t ** 4) == s(C5, 1)

    def test_minus_one(self):
        # the square root of 1 congruent to 4 mod 5 is -1
        assert teichmuller(C5, 4) == s(C5, -1)

    def test_congruence_and_torsion(self):
        for ctx in (C3, C5, C7):
            for a in range(1, ctx.p):
                t = teichmuller(ctx, a)
                assert t.residue(1) == a
                assert t ** (ctx.p - 1) == s(ctx, 1)


class TestBigExp:
    def test_zero(self):
        assert big_exp(PadicScalar.zero(C5)) == s(C5, 1)

    def test_restricts_to_exp(self):
        assert big_exp(s(C5, 5)) == exp_scalar(s(C5, 5))

    def test_outside_representable_domain(self):
        with pytest.raises(OutsideRepresentableDomain):
            big_exp(s(C5, 1))

    def test_splits_log(self):
        for x in [5, 10, 75]:
            assert log_scalar(big_exp(s(C5, x))) == s(C5, x)


class TestPrecisionRefinement:
    def test_rerun_at_higher_precision_agrees(self):
        lo = PrimeContext(5, 32)
        hi = PrimeContext(5, 48)
        a = exp_scalar(PadicScalar.from_int(lo, 35))
        b = exp_scalar(PadicScalar.from_int(hi, 35))
        assert b.residue(32) == a.residue(32)
