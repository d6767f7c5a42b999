"""Exact integer kernels for the p-adic exponential and logarithm.

All functions work on residues mod p^W with plain Python integers; callers
lift tracked values to residues, and wrap results back.  The kernels widen
the working modulus by exactly the p-adic size of the denominators they
divide by, so the returned residues are correct to the full requested
precision: exp and log are isometries on their domains and lose no digits.

Truncation bounds come from Legendre's formula
    val_p(n!) = (n - s_p(n)) / (p - 1)
so a term x^n/n! with val(x) >= e0 has valuation >= n*e0 - val_p(n!), and a
term (u-1)^n/n with val(u-1) >= v has valuation >= n*v - floor(log_p n).

The three matrix series (exp, the expm1 quotient and log) are one integer
polynomial in t over one common denominator, evaluated by one engine and
divided once (_divided_sum).  The exp series sum_k t^k/(k+s)! uses (M+s)!,
with coefficients (M+s)!/(k+s)!; log(1+t) uses lcm(1..M), with
coefficients +-lcm(1..M)/k.  The p-part of the denominator is the modulus
headroom: val_p((M+s)!) digits for exp, floor(log_p M) for log.  Each
series' table (its coefficients reduced mod p^(prec + headroom), the
headroom and the inverse of the denominator's unit part) is built once per
(kind, p, valuation, prec, s) and kept (_table).  An n x n argument with
n >= 2 is evaluated by Paterson-Stockmeyer (_poly_eval, about 2*sqrt(M)
matrix products for M terms), which builds the powers of t only up to
the first that vanishes mod the working modulus and then sums the terms
below it: the same residues, and a nilpotent argument costs at most
n - 1 products, whatever M is.  A 1 x 1 argument, where that saves no
product worth saving, is evaluated by Horner on its one integer.
"""

from functools import cache
from math import factorial, isqrt, lcm
from operator import mul


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def factorial_valuation(n: int, p: int) -> int:
    """Legendre: val_p(n!) = (n - s_p(n)) / (p - 1)."""
    return (n - digit_sum(n, p)) // (p - 1)


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of exact zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def floor_log(n: int, p: int) -> int:
    k = 0
    while n >= p:
        n //= p
        k += 1
    return k


@cache
def log_terms_needed(v: int, p: int, prec: int) -> int:
    """Least M with M*v - floor(log_p M) >= prec; kept per argument tuple."""
    n = 1
    while n * v - floor_log(n, p) < prec:
        n += 1
    return n


def mat_mul(a, b, mod):
    """a @ b for integer matrices, each entry summed exactly and reduced
    mod `mod` once."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


def _poly_eval(t, coefs, mod):
    """sum_k coefs[k] * t^k mod `mod` for a square integer matrix t, by
    Paterson-Stockmeyer: with b = ceil(sqrt(len(coefs))) baby steps
    t^0..t^(b-1) and the giant step t^b, Horner in t^b runs over blocks of
    b coefficients, so about 2*sqrt(len(coefs)) matrix products are made
    instead of one per term.  Each block entry is summed exactly and
    reduced once.

    The powers t^1..t^b are built in turn and the building stops at the
    first t^z that vanishes mod `mod`: every later power, a multiple of
    it, vanishes too, so the sum is the one of coefs[:z] over the powers
    built.  A nilpotent n x n argument vanishes from t^n on, so its
    series costs at most n - 1 products and is exact whatever its
    length."""
    n = len(t)
    b = isqrt(len(coefs) - 1) + 1  # ceil(sqrt(len(coefs)))
    top = b if len(coefs) > b else b - 1  # the highest power used
    lift = [[x % mod for x in row] for row in t]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], lift]
    while len(powers) <= top and any(map(any, powers[-1])):
        powers.append(mat_mul(powers[-1], lift, mod))
    if not any(map(any, powers[-1])):  # t^z, z = len(powers) - 1, vanishes
        b = len(powers) - 1
        coefs = coefs[:b]
    # stack[i][j] holds entry (i, j) of t^0..t^(b-1)
    stack = [list(zip(*rows)) for rows in zip(*powers[:b])]
    giant = powers[b] if len(coefs) > b else None
    acc = [[0] * n for _ in range(n)]
    for start in reversed(range(0, len(coefs), b)):
        if start + b < len(coefs):
            acc = mat_mul(acc, giant, mod)
        block = coefs[start:start + b]
        acc = [[(a + sum(map(mul, block, e))) % mod for a, e in zip(arow, srow)]
               for arow, srow in zip(acc, stack)]
    return acc


@cache
def _table(kind: str, p: int, e: int, prec: int, s: int):
    """(coefficients mod p^(prec + w), p^w, p^prec, the inverse mod p^prec
    of the denominator's unit part) for one series, w = val_p(denominator);
    kept per argument tuple.

    kind "exp" is sum_{k>=0} t^k/(k+s)! for t divisible by p^e: from
    M = exp_terms_needed(e, p, prec, s) on every term vanishes mod p^prec,
    and over the common denominator (M+s)! the coefficient of t^k is the
    integer (M+s)!/(k+s)!.  kind "log" is log(1+t) for t divisible by p^e
    (s = 0): with M = log_terms_needed(e, p, prec) and the common
    denominator D = lcm(1..M), the coefficient of t^k is the integer +-D/k;
    val_p(D) = floor(log_p M), and every term is divisible by p^val_p(D)
    since k*e > val_p(k).
    """
    if kind == "log":
        m_terms = log_terms_needed(e, p, prec)
        denom = lcm(*range(1, m_terms + 1))
        coefs = [0] + [(denom if k % 2 else -denom) // k for k in range(1, m_terms + 1)]
    else:
        coefs = [1]
        for k in range(exp_terms_needed(e, p, prec, s) + s, s, -1):
            coefs.append(coefs[-1] * k)
        coefs.reverse()
        denom = coefs[0] * factorial(s)
    pw = p ** int_valuation(denom, p)
    target = p ** prec
    mod = target * pw
    return tuple(c % mod for c in coefs), pw, target, pow(denom // pw, -1, target)


def _divided_sum(t, table):
    """sum_k coefs[k] * t^k / denom mod p^prec for the series of table
    (_table), whose sum is an integer matrix divisible by p^w.

    The sum is evaluated mod p^(prec + w), divided exactly by p^w and
    multiplied by the inverse of denom's unit part.
    """
    coefs, pw, target, unit_inv = table
    mod = target * pw
    if len(t) == 1:
        x, acc = t[0][0] % mod, 0
        for c in reversed(coefs):
            acc = (acc * x + c) % mod
        sums = [[acc]]
    else:
        sums = _poly_eval(t, coefs, mod)
    out = []
    for row in sums:
        orow = []
        for x in row:
            q, r = divmod(x, pw)
            if r:
                raise AssertionError("series sum not divisible by p^val(denominator)")
            orow.append(q * unit_inv % target)
        out.append(orow)
    return out


def exp_matrix(t, p: int, e0: int, prec: int):
    """exp of a square integer matrix with all entries divisible by p^e0,
    as residues mod p^prec."""
    return _divided_sum(t, _table("exp", p, e0, prec, 0))


def expm1_quotient_matrix(t, p: int, e0: int, prec: int):
    """The unit u with exp(t) - 1 = t*u, i.e. u = sum_{k>=0} t^k/(k+1)!,
    for an integer matrix t with entries divisible by p^e0.

    This is the matrix form of log(T+1)/T being a unit: u is congruent to
    the identity mod p and commutes with t.
    """
    return _divided_sum(t, _table("exp", p, e0, prec, 1))


@cache
def exp_terms_needed(e0: int, p: int, prec: int, s: int = 0) -> int:
    """Least M >= 1 with k*e0 - val_p((k+s)!) >= prec for every k >= M, so
    that every term t^k/(k+s)! from M on vanishes mod p^prec; kept per
    argument tuple.

    The term valuation dips where k + s gains a high power of p (term 9 of
    exp(3) at p = 3 has valuation 5, term 8 has 6), so the first index
    that reaches prec is not enough.  Legendre's val_p(n!) <= (n-1)/(p-1)
    settles every k from ceil((prec*(p-1) + s - 1) / (e0*(p-1) - 1)) on;
    the indices before it are scanned."""
    m = 1
    for k in range(1, -(-(prec * (p - 1) + s - 1) // (e0 * (p - 1) - 1))):
        if k * e0 - factorial_valuation(k + s, p) < prec:
            m = k + 1
    return m


def log_matrix(u, p: int, v_min: int, prec: int):
    """log of a square integer matrix congruent to 1 mod p^v_min, as
    residues mod p^prec.  The series converges for every v_min >= 1, for
    p = 2 as well."""
    n = len(u)
    t = [[u[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return _divided_sum(t, _table("log", p, v_min, prec, 0))


def exp_residue(t: int, p: int, e0: int, prec: int) -> int:
    return exp_matrix([[t]], p, e0, prec)[0][0]


def log_residue(u: int, p: int, v_min: int, prec: int) -> int:
    return log_matrix([[u]], p, v_min, prec)[0][0]


def teichmuller_residue(a: int, p: int, prec: int) -> int:
    """The unique (p-1)-st root of unity congruent to the unit a mod p, mod
    p^prec (prec >= 1): a^(p^(prec-1)).  Write a = w * e with w that root
    and e = 1 mod p; w^p = w, and e^(p^(prec-1)) = 1 mod p^prec."""
    return pow(a, p ** (prec - 1), p ** prec)
