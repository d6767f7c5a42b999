"""Exact p-adic scalars with tracked absolute precision.

A nonzero-to-precision value is stored as p^v * u with u a unit residue mod
p^(prec - v); "prec" is the absolute precision: the value is known modulo
p^prec.  A value all of whose known digits vanish is a distinguished
zero-to-precision marker (valuation None), never silently an exact zero.

Precision rules (the documented ledger):
  add       min(prec_a, prec_b)
  mul       min(prec_a + v_b, prec_b + v_a), capped at N          (_times)
  inv       prec - 2*val  (relative precision is preserved, so the absolute
            precision drops by twice the valuation)             (_inverse)
  row op    x - f*y (elimination, linalg.Row.sub_mul), with the ledger of
            x + (-(f*y)): min(prec_x, prec_f + v_y, prec_y + v_f, N_f, N_y)
  exp/log   preserved on their domains (isometries; the series kernels work
            at a widened internal modulus so no digits are lost)

The per-entry kernels live here: _times and _inverse are the one body of
the product and of the inverse, on parts (v, u, prec, N; a zero marker's
v is its prec and its u 0), and * and inv are their one-entry calls.
The loops of linalg.Row, the integer rows that matrices, elements and
elimination work on, are their vector forms, each Row in one context, so
its loops take N once per row; __add__ keeps its own body, the per-entry
reference for Row.combined.  Every other value made from
an integer residue r * p^base known mod p^prec (from_residue,
from_fraction, from_val_unit, reduce, add) ends in one normaliser,
_scaled_residue, so a scalar has one normal form whatever made it.
Scalars are built at the surface: by parsing, and per entry read.

PadicScalar is a plain slotted class: a reader builds one per entry, so
construction is kept to setting four slots, with no frozen-field
guard.  A scalar is never written to after construction;
tests/test_values.py checks the sources for such writes.  Equality is
precision-relative, so scalars are unhashable.
"""

from __future__ import annotations

import operator
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


@dataclass(slots=True)
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
        """The value r known modulo p^prec (r need not be reduced); a zero
        marker when prec <= 0."""
        return _scaled_residue(ctx, r, 0, prec)

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
        mod = ctx.p ** max(prec - v, 0)
        return _scaled_residue(ctx, (num // ctx.p ** vn) * pow(den // ctx.p ** vd, -1, mod),
                               v, prec)

    @staticmethod
    def from_val_unit(ctx: PrimeContext, v: int, u: int, prec: int | None = None) -> "PadicScalar":
        prec = ctx.default_precision if prec is None else prec
        if u % ctx.p == 0:
            raise PadicError("unit part %d is divisible by p = %d" % (u, ctx.p))
        return _scaled_residue(ctx, u, v, prec)

    @staticmethod
    def from_parts(ctx: PrimeContext, parts) -> "PadicScalar":
        """The scalar of ctx with the parts (v, u, prec, amb) of a kernel
        or of Row.parts, in normal form; u = 0 is the marker O(p^prec)."""
        v, u, prec, _ = parts
        return PadicScalar(ctx, v if u else None, u, prec)

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
        """Integer representative of the value mod p^k (k <= prec), 0 for
        k <= 0.  Only defined for integral values."""
        k = self.prec if k is None else k
        if k > self.prec:
            raise PadicError("residue mod p^%d requested at precision %d" % (k, self.prec))
        if self.is_zero:
            return 0
        if self.v < 0:
            raise PadicError("value with valuation %d has no integer residue" % self.v)
        if k <= 0:  # every integer is 0 mod p^k
            return 0
        return (self.u * self.ctx.p ** self.v) % self.ctx.p ** k

    def parts(self) -> tuple:
        """(valuation, unit, precision, ambient precision), a zero marker's
        valuation being its precision: the operand of the kernels."""
        v = self.prec if self.v is None else self.v
        return v, self.u, self.prec, self.ctx.default_precision

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
        return _scaled_residue(self.ctx, self.u, self.prec if self.v is None else self.v, prec)

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
        ra = 0 if self.is_zero else self.u * p ** (self.v - m)
        rb = 0 if other.is_zero else other.u * p ** (other.v - m)
        return _scaled_residue(self.ctx, ra + rb, m, prec)

    def __neg__(self) -> "PadicScalar":
        if self.is_zero:
            return self
        return PadicScalar(self.ctx, self.v, (-self.u) % self.ctx.p ** (self.prec - self.v), self.prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return PadicScalar.from_parts(self.ctx,
                                      _times(_powers(self.ctx.p), self.parts(), other.parts()))

    def inv(self) -> "PadicScalar":
        return PadicScalar.from_parts(self.ctx, _inverse(_powers(self.ctx.p), self.parts()))

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inv()

    def __pow__(self, k: int) -> "PadicScalar":
        if k < 0:
            return self.inv() ** (-k)
        N = self.ctx.default_precision
        return power(self, k, PadicScalar.from_int(self.ctx, 1, N if self.is_zero else self.prec))

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


def power(x, k, one, mul=operator.mul):
    """x^k for k >= 0 by square and multiply with the product mul: the
    one power of scalars, algebra elements, matrices and the F_p
    Frobenius of components.  The product starts from the square x^(2^j)
    of the lowest set bit of k, not from one * x, so x^1 is x itself and
    no product by one is made; one is returned only for k = 0.  Every
    later product is out * x^(2^j), as from one."""
    if not k:
        return one
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    out = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
        k >>= 1
    return out


class _Powers(dict):
    """p^k by exponent k; 1 for k <= 0, so that r % pw[k] is 0 whenever
    nothing is known below p^k.  logs maps a power p^k back to k.  Both
    tables only ever gain entries, each a function of its key alone."""

    def __init__(self, p):
        super().__init__()
        self.p = p
        self.logs = _Logs(p)

    def __missing__(self, k):
        value = self[k] = self.p ** k if k > 0 else 1
        return value


class _Logs(dict):
    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, power):
        value = self[power] = _series.int_valuation(power, self.p)
        return value


_POWERS = {}


def _powers(p) -> _Powers:
    pw = _POWERS.get(p)
    if pw is None:
        pw = _POWERS[p] = _Powers(p)
    return pw


def _times(pw, a, b):
    """Parts of a * b for the parts a and b of entries of the prime pw.p:
    precision min(prec a + v b, prec b + v a, N a, N b), a zero marker
    when every known digit vanishes; the product lies in a's context."""
    av, au, aprec, aamb = a
    bv, bu, bprec, bamb = b
    prec = min(aprec + bv, bprec + av, aamb, bamb)
    v = av + bv
    if v >= prec:
        return prec, 0, prec, aamb
    return v, (au * bu) % pw[prec - v], prec, aamb


def _inverse(pw, b):
    """Parts of the inverse of the entry b = (v, u, prec, amb) of the prime
    pw.p, at precision min(prec - 2v, N); the inverse lies in b's context.
    A zero marker, or an inverse that keeps no digit, is refused."""
    v, u, prec, amb = b
    if not u:
        raise DivisionByZeroToPrecision("inverse of O(%d^%d)" % (pw.p, prec))
    iprec = min(prec - 2 * v, amb)
    rel = iprec + v
    if rel <= 0:
        raise DivisionByZeroToPrecision(
            "inverse at valuation %d loses all %d known digits" % (v, prec)
        )
    return -v, pow(u, -1, pw[rel]), iprec, amb


def _scaled_residue(ctx, r, base, prec):
    """The scalar r * p^base of ctx known modulo p^prec, in normal form:
    a zero marker when every known digit vanishes (always when
    base >= prec), else p^v * u with u a unit reduced mod p^(prec - v).
    Every construction from an integer residue ends here."""
    if base >= prec:
        return PadicScalar(ctx, None, 0, prec)
    p = ctx.p
    r %= p ** (prec - base)
    if r % p:
        return PadicScalar(ctx, base, r, prec)
    if r == 0:
        return PadicScalar(ctx, None, 0, prec)
    t = _series.int_valuation(r, p)
    return PadicScalar(ctx, base + t, r // p ** t, prec)


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
