"""Exact p-adic scalars with tracked absolute precision.

A nonzero-to-precision value is stored as p^v * u with u a unit residue mod
p^(prec - v); "prec" is the absolute precision: the value is known modulo
p^prec.  A value all of whose known digits vanish is a distinguished
zero-to-precision marker (valuation None), never silently an exact zero.

Precision rules (the documented ledger):
  add       min(prec_a, prec_b)
  mul       min(prec_a + v_b, prec_b + v_a), capped at N
  inv       prec - 2*val  (relative precision is preserved, so the absolute
            precision drops by twice the valuation)
  sub_mul   x - f*y in one integer pass, with the ledger of x + (-(f*y)):
            min(prec_x, prec_f + v_y, prec_y + v_f, N_f, N_y)
  exp/log   preserved on their domains (isometries; the series kernels work
            at a widened internal modulus so no digits are lost)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _series
from .context import PrimeContext
from .errors import (
    ContextMismatch,
    DivisionByZeroToPrecision,
    OutsideExpDomain,
    OutsideLogDomain,
    OutsideRepresentableDomain,
    PadicError,
    ZeroResidue,
)


@dataclass(frozen=True, slots=True)
class PadicScalar:
    ctx: PrimeContext
    v: int | None  # valuation; None marks zero-to-precision
    u: int  # unit residue in [1, p^(prec-v)), coprime to p; 0 for the marker
    prec: int  # absolute precision

    @property
    def valuation(self) -> int | None:
        return self.v

    @property
    def precision(self) -> int:
        return self.prec

    @property
    def is_zero(self) -> bool:
        """Zero to precision: every known digit vanishes."""
        return self.v is None

    # -- construction ----------------------------------------------------

    @staticmethod
    def zero(ctx: PrimeContext, prec: int | None = None) -> "PadicScalar":
        return PadicScalar(ctx, None, 0, ctx.default_precision if prec is None else prec)

    @staticmethod
    def from_residue(ctx: PrimeContext, r: int, prec: int) -> "PadicScalar":
        """The value r known modulo p^prec (r need not be reduced)."""
        r %= ctx.p ** prec
        if r == 0:
            return PadicScalar(ctx, None, 0, prec)
        v = _series.int_valuation(r, ctx.p)
        return PadicScalar(ctx, v, (r // ctx.p ** v) % ctx.p ** (prec - v), prec)

    @staticmethod
    def from_int(ctx: PrimeContext, n: int, prec: int | None = None) -> "PadicScalar":
        return PadicScalar.from_residue(
            ctx, n, ctx.default_precision if prec is None else prec
        )

    @staticmethod
    def from_fraction(ctx: PrimeContext, q: Fraction, prec: int | None = None) -> "PadicScalar":
        prec = ctx.default_precision if prec is None else prec
        if q == 0:
            return PadicScalar.zero(ctx, prec)
        num, den = q.numerator, q.denominator
        vn = _series.int_valuation(num, ctx.p)
        vd = _series.int_valuation(den, ctx.p)
        v = vn - vd
        rel = prec - v
        if rel <= 0:
            return PadicScalar(ctx, None, 0, prec)
        mod = ctx.p ** rel
        unit = (num // ctx.p ** vn) * pow(den // ctx.p ** vd, -1, mod) % mod
        return PadicScalar(ctx, v, unit, prec)

    @staticmethod
    def from_val_unit(ctx: PrimeContext, v: int, u: int, prec: int | None = None) -> "PadicScalar":
        prec = ctx.default_precision if prec is None else prec
        if u % ctx.p == 0:
            raise PadicError("unit part %d is divisible by p = %d" % (u, ctx.p))
        if prec - v <= 0:
            return PadicScalar(ctx, None, 0, prec)
        return PadicScalar(ctx, v, u % ctx.p ** (prec - v), prec)

    @staticmethod
    def parse(ctx: PrimeContext, text: str, prec: int | None = None) -> "PadicScalar":
        """Accepts "v:u" (valuation, decimal unit part), plain decimal
        integers, and rationals "a/b" with b coprime to p."""
        text = text.strip()
        if ":" in text:
            vs, us = text.split(":", 1)
            return PadicScalar.from_val_unit(ctx, int(vs), int(us), prec)
        if "/" in text:
            a, b = text.split("/", 1)
            q = Fraction(int(a), int(b))
            if q.denominator % ctx.p == 0:
                raise PadicError("denominator of %s is divisible by p" % text)
            return PadicScalar.from_fraction(ctx, q, prec)
        return PadicScalar.from_int(ctx, int(text), prec)

    # -- representation --------------------------------------------------

    def residue(self, k: int | None = None) -> int:
        """Integer representative of the value mod p^k (k <= prec).
        Only defined for integral values."""
        k = self.prec if k is None else k
        if k > self.prec:
            raise PadicError("residue mod p^%d requested at precision %d" % (k, self.prec))
        if self.is_zero:
            return 0
        if self.v < 0:
            raise PadicError("value with valuation %d has no integer residue" % self.v)
        return (self.u * self.ctx.p ** self.v) % self.ctx.p ** k

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        return "%d:%d" % (self.v, self.u)

    def __repr__(self):
        if self.is_zero:
            return "O(%d^%d)" % (self.ctx.p, self.prec)
        return "%d^%d*%d + O(%d^%d)" % (self.ctx.p, self.v, self.u, self.ctx.p, self.prec)

    def reduce(self, prec: int) -> "PadicScalar":
        """Forget digits beyond p^prec."""
        if prec >= self.prec:
            return self
        if self.is_zero or self.v >= prec:
            return PadicScalar(self.ctx, None, 0, prec)
        return PadicScalar(self.ctx, self.v, self.u % self.ctx.p ** (prec - self.v), prec)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "PadicScalar"):
        if self.ctx.p != other.ctx.p:
            raise ContextMismatch(
                "mixed primes %d and %d" % (self.ctx.p, other.ctx.p)
            )

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        p = self.ctx.p
        prec = min(self.prec, other.prec)
        va = self.prec if self.is_zero else self.v
        vb = other.prec if other.is_zero else other.v
        m = min(va, vb, prec)
        if m >= prec:
            return PadicScalar(self.ctx, None, 0, prec)
        mod = p ** (prec - m)
        ra = 0 if self.is_zero else (self.u * p ** (self.v - m)) % mod
        rb = 0 if other.is_zero else (other.u * p ** (other.v - m)) % mod
        r = (ra + rb) % mod
        if r == 0:
            return PadicScalar(self.ctx, None, 0, prec)
        t = _series.int_valuation(r, p)
        return PadicScalar(self.ctx, m + t, (r // p ** t) % p ** (prec - m - t), prec)

    def __neg__(self) -> "PadicScalar":
        if self.is_zero:
            return self
        return PadicScalar(self.ctx, self.v, (-self.u) % self.ctx.p ** (self.prec - self.v), self.prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        cap = min(self.ctx.default_precision, other.ctx.default_precision)
        va = self.prec if self.is_zero else self.v
        vb = other.prec if other.is_zero else other.v
        prec = min(self.prec + vb, other.prec + va, cap)
        if self.is_zero or other.is_zero or va + vb >= prec:
            return PadicScalar(self.ctx, None, 0, prec)
        v = va + vb
        rel = prec - v
        return PadicScalar(self.ctx, v, (self.u * other.u) % self.ctx.p ** rel, prec)

    def inv(self) -> "PadicScalar":
        if self.is_zero:
            raise DivisionByZeroToPrecision(
                "inverse of O(%d^%d)" % (self.ctx.p, self.prec)
            )
        prec = min(self.prec - 2 * self.v, self.ctx.default_precision)
        rel = prec + self.v  # relative precision of the inverse
        if rel <= 0:
            raise DivisionByZeroToPrecision(
                "inverse at valuation %d loses all %d known digits" % (self.v, self.prec)
            )
        return PadicScalar(self.ctx, -self.v, pow(self.u, -1, self.ctx.p ** rel), prec)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inv()

    def __pow__(self, k: int) -> "PadicScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = PadicScalar.from_int(self.ctx, 1, self.prec if not self.is_zero else self.ctx.default_precision)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        """Equality modulo p^min(precisions)."""
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if self.ctx.p != other.ctx.p:
            return False
        prec = min(self.prec, other.prec)
        a, b = self.reduce(prec), other.reduce(prec)
        return (a.v, a.u) == (b.v, b.u)

    __hash__ = None  # equality is precision-relative; not hashable

    def agrees(self, other: "PadicScalar", prec: int) -> bool:
        """Equality modulo p^prec; False unless both operands are known
        modulo p^prec."""
        if self.prec < prec or other.prec < prec:
            return False
        return self.reduce(prec) == other.reduce(prec)


def sub_mul(x: PadicScalar, f: PadicScalar, y: PadicScalar) -> PadicScalar:
    """x - f*y in one integer pass: the value, precision, normalisation,
    context and exceptions of x + (-(f * y))."""
    return sub_mul_row((x,), f, (y,))[0]


def sub_mul_row(xs, f: PadicScalar, ys) -> list:
    """[sub_mul(x, f, y) for x, y in zip(xs, ys)], the row operation of an
    elimination step, with f decomposed once per row."""
    fctx, fu, fprec = f.ctx, f.u, f.prec
    fv = fprec if f.v is None else f.v
    return [_sub_mul(x, y, fctx, fv, fu, fprec) for x, y in zip(xs, ys)]


def _sub_mul(x, y, fctx, fv, fu, fprec):
    # f = p^fv * fu known mod p^fprec, with fu == 0 and fv == fprec for a
    # zero marker; the prime checks run in the order of f * y, then x + ...
    p = fctx.p
    if y.ctx.p != p:
        raise ContextMismatch("mixed primes %d and %d" % (p, y.ctx.p))
    xctx = x.ctx
    if xctx.p != p:
        raise ContextMismatch("mixed primes %d and %d" % (xctx.p, p))
    # the product's ledger: min(prec_f + v_y, prec_y + v_f, N_f, N_y)
    yv, yprec = y.v, y.prec
    vy = yprec if yv is None else yv
    pm = min(fprec + vy, yprec + fv, fctx.default_precision, y.ctx.default_precision)
    # the product's valuation, or its precision when it is a zero marker
    vb = pm if (fu == 0 or yv is None or fv + vy >= pm) else fv + vy
    xv, xprec = x.v, x.prec
    prec = xprec if xprec < pm else pm
    va = xprec if xv is None else xv
    m = min(va, vb, prec)
    if m >= prec:
        return PadicScalar(xctx, None, 0, prec)
    r = 0 if xv is None else x.u * p ** (xv - m)
    if vb < pm:
        r -= fu * y.u * p ** (vb - m)
    r %= p ** (prec - m)
    if r == 0:
        return PadicScalar(xctx, None, 0, prec)
    t = _series.int_valuation(r, p)
    return PadicScalar(xctx, m + t, r // p ** t, prec)


def val(a: PadicScalar) -> int | None:
    """Valuation, or None to signal zero-to-precision."""
    return a.v


def exp_scalar(x: PadicScalar) -> PadicScalar:
    """The p-adic exponential sum x^n/n!, defined for val(x) >= e0.

    Truncated past the last term that survives mod p^precision
    (_series.exp_terms_needed); the result is congruent to 1 mod p^e0 and
    carries the argument's precision.
    """
    ctx = x.ctx
    e0 = ctx.e0
    if x.is_zero:
        return PadicScalar.from_int(ctx, 1, x.prec)
    if x.v < e0:
        raise OutsideExpDomain(
            "exp needs valuation >= %d at p = %d; got %d" % (e0, ctx.p, x.v)
        )
    prec = x.prec
    r = _series.exp_residue(x.residue(prec), ctx.p, e0, prec)
    return PadicScalar.from_residue(ctx, r, prec)


def log_scalar(u: PadicScalar) -> PadicScalar:
    """The p-adic logarithm sum (-1)^(n+1) (u-1)^n / n, defined for
    val(u - 1) >= 1 (its radius of convergence exceeds the exp-domain).
    Inverts exp_scalar exactly to precision on val(u - 1) >= e0.
    """
    ctx = u.ctx
    one = PadicScalar.from_int(ctx, 1, u.prec)
    t = u - one
    if t.is_zero:
        return PadicScalar.zero(ctx, t.prec)
    if t.v < 1:
        raise OutsideLogDomain(
            "log needs an argument congruent to 1 mod p; val(u-1) = %s" % t.v
        )
    prec = t.prec
    r = _series.log_residue(u.residue(prec), ctx.p, t.v, prec)
    return PadicScalar.from_residue(ctx, r, prec)


def teichmuller(ctx: PrimeContext, a: int) -> PadicScalar:
    """The unique (p-1)-st root of unity congruent to a mod p."""
    if a % ctx.p == 0:
        raise ZeroResidue("no Teichmuller lift of the zero residue")
    r = _series.teichmuller_residue(a, ctx.p, ctx.default_precision)
    return PadicScalar.from_residue(ctx, r, ctx.default_precision)


def big_exp(x: PadicScalar) -> PadicScalar:
    """The global exponential restricted to its representable domain.

    A splitting of log on all of K exists only over an algebraically closed
    field; over Q_p the maximal domain carrying a computable section is the
    exp-domain val >= e0, where it restricts to exp_scalar.
    """
    if x.is_zero or x.v >= x.ctx.e0:
        return exp_scalar(x)
    raise OutsideRepresentableDomain(
        "Exp at valuation %d < e0 = %d requires an algebraically closed "
        "base field and is not representable over Q_p" % (x.v, x.ctx.e0)
    )
