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
n >= 2 is evaluated by Cayley-Hamilton (_poly_eval): the coefficients are
reduced modulo the characteristic polynomial of t, computed without
division by Berkowitz's algorithm (_charpoly), and the remainder of degree
below n is evaluated at t with n - 2 matrix products, whatever M is.  The
characteristic polynomial vanishes at t over every commutative ring, so
the residues are exactly those of the full sum, and a nilpotent argument
is summed exactly however long its series.  A 1 x 1 argument is evaluated
by Horner on its one integer, which is that same division by x - a without
the bookkeeping.

The lattice algebra exp/log conjugate into, sum over k < n of
(p^s t)^k Z_p^n, has its triangular basis computed here too
(krylov_basis): scaled by p^d to be integral, it holds p^(prec + d) Z_p^n,
so its Hermite-style reduction runs on residues modulo that power, with
no precision to track.
"""

from functools import cache
from math import factorial, lcm
from operator import mul

from .errors import IntegralStructureFailure


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


def krylov_basis(t, p, s, prec):
    """(d, columns): a triangular basis of the lattice L = sum over k < n
    of (p^s t)^k Z_p^n, for an n x n integer matrix t and s < 0, as n
    integer columns over p^d, d = (n - 1)(-s), each entry over p^d known
    modulo p^prec.

    p^d L is spanned by the columns of p^(d + k s) t^k for k < n and holds
    p^d Z_p^n, so it holds p^(prec + d) Z_p^n and is computed modulo
    p^(prec + d) on plain integers (Domich, Kannan and Trotter, Hermite
    normal form computation using modulo determinant arithmetic, 1987).
    The generators are reduced by the pivot rule of
    linalg.triangular_lattice_rows: row by row, the first column of least
    valuation at that row is the pivot, scaled to the pure power p^v, and
    every other column is cleared at that row; column r of the result
    vanishes above row r.  Once row r is done only the rows below it are
    kept of the other columns, and a column vanishing on all of them is
    dropped, as no later row can pick it."""
    n = len(t)
    d = (n - 1) * -s
    mod = p ** (prec + d)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = []
    for k in range(n):
        if k:
            power = mat_mul(t, power, mod)
        scale = p ** (d + k * s)
        for col in zip(*power):
            col = [scale * x % mod for x in col]
            if any(col):
                cols.append(col)
    out = []
    for row in range(n):
        best = None
        for ci, col in enumerate(cols):
            x = col[0]
            # x has less valuation than the pivot so far iff p^v does not divide it
            if x and (best is None or x % pv):
                best, pv = ci, p ** int_valuation(x, p)
                if pv == 1:
                    break
        if best is None:
            raise IntegralStructureFailure("lattice generators do not span")
        col = cols.pop(best)
        # the pivot becomes the pure power p^v
        w = pow(col[0] // pv, -1, mod)
        tail = [x * w % mod for x in col[1:]]
        out.append([0] * row + [pv] + tail)
        kept = []
        for other in cols:
            f = other[0] // pv  # integral since the pivot has least valuation
            rest = [(x - f * y) % mod for x, y in zip(other[1:], tail)] if f else other[1:]
            if any(rest):
                kept.append(rest)
        cols = kept
    return d, out


def _charpoly(t, mod):
    """det(x - t) mod `mod` for a square integer matrix t, as its
    coefficients c_0..c_n (c_k of x^k, c_n = 1), by Berkowitz: no
    division, so it holds over Z/mod for any modulus.

    With B the leading k x k block of t, a = t[k][k], r the row t[k][:k]
    and c the column t[:k][k], det(x - t_(k+1)) = (x - a) det(x - B)
    - r adj(x - B) c, and adj(x - B) = sum_i x^(k-1-i) sum_(j<=i)
    b_(i-j) B^j, where b_0 = 1, b_1, .. are the coefficients of
    det(x - B) from the top.  So the coefficients of det(x - t_(k+1))
    from the top are those of det(x - B) times the Toeplitz matrix of
    1, -a, -r c, -r B c, .., -r B^(k-1) c; the scalars r B^j c take
    k - 1 matrix-vector products, O(n^4) work in all."""
    poly = [1]  # det(x - B), highest degree first
    for k, trow in enumerate(t):
        rows = t[:k]
        v = [row[k] for row in rows]  # B^j c; a product stops at B's k columns
        toeplitz = [trow[k]]  # a, r c, r B c, ..
        for j in range(k):
            if j:
                v = [sum(map(mul, row, v)) % mod for row in rows]
            toeplitz.append(sum(map(mul, trow, v)))
        poly = [1] + [(b - sum(map(mul, poly[m::-1], toeplitz))) % mod
                      for m, b in enumerate(poly[1:] + [0])]
    poly.reverse()
    return poly


def _poly_eval(t, coefs, mod):
    """sum_k coefs[k] * t^k mod `mod` for an n x n integer matrix t,
    n >= 2, by Cayley-Hamilton: the characteristic polynomial chi of t
    (_charpoly) vanishes at t over every commutative ring, so the sum
    equals r(t) for the remainder r of the coefficients modulo the monic
    chi, taken by synthetic division.  r has n coefficients, and Horner
    from r_(n-1) t + r_(n-2) evaluates it with n - 2 matrix products,
    whatever the number of terms."""
    n = len(t)
    lift = [[x % mod for x in row] for row in t]
    chi = _charpoly(lift, mod)
    rem = list(coefs) + [0] * (n - len(coefs))
    neg = [-c for c in chi[:n]]
    for d in range(len(rem) - 1, n - 1, -1):
        q = rem[d] % mod
        if q:
            for i, c in enumerate(neg, d - n):
                rem[i] += q * c
    top = rem[n - 1] % mod
    acc = [[top * x % mod for x in row] for row in lift]
    for k in range(n - 2, -1, -1):
        c = rem[k] % mod
        for i, row in enumerate(acc):
            row[i] += c
        if k:
            acc = mat_mul(acc, lift, mod)
    return [[x % mod for x in row] for row in acc]


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
