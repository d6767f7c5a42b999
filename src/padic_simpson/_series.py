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
"""


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


def log_terms_needed(v: int, p: int, prec: int) -> int:
    """Least M with M*v - floor(log_p M) >= prec."""
    n = 1
    while n * v - floor_log(n, p) < prec:
        n += 1
    return n


def mat_mul(a, b, mod):
    """a @ b for integer matrices, entries reduced mod `mod`."""
    n = len(a)
    k = len(b)
    m = len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] = (oi[j] + c * bt[j]) % mod
    return out


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def exp_matrix(t, p: int, e0: int, prec: int):
    """exp of a square integer matrix with all entries divisible by p^e0,
    as residues mod p^prec."""
    return _factorial_series(t, p, e0, prec, 0)


def expm1_quotient_matrix(t, p: int, e0: int, prec: int):
    """The unit u with exp(t) - 1 = t*u, i.e. u = sum_{k>=0} t^k/(k+1)!,
    for an integer matrix t with entries divisible by p^e0.

    This is the matrix form of log(T+1)/T being a unit: u is congruent to
    the identity mod p and commutes with t.
    """
    return _factorial_series(t, p, e0, prec, 1)


def _factorial_series(t, p: int, e0: int, prec: int, s: int):
    """sum_{k>=0} t^k/(k+s)! mod p^prec, for an integer matrix t with all
    entries divisible by p^e0.

    M is the least M >= 1 with M*e0 - val_p((M+s)!) >= prec; past it every
    term vanishes mod p^prec.  With the common denominator (M+s)!,
    S = sum_{k<=M} t^k * ((M+s)!/(k+s)!) is an integer matrix, exactly
    divisible by p^val((M+s)!), and the sum is S / (M+s)!.
    """
    n = len(t)
    m_terms = 1
    while m_terms * e0 - factorial_valuation(m_terms + s, p) < prec:
        m_terms += 1
    w = factorial_valuation(m_terms + s, p)
    mod = p ** (prec + w)
    fact = 1
    for k in range(2, m_terms + s + 1):
        fact *= k
    tlift = [[x % mod for x in row] for row in t]
    coef = fact  # (M+s)!/(k+s)! once divided below
    power = _identity(n)
    acc = [[0] * n for _ in range(n)]
    for k in range(m_terms + 1):
        if k:
            power = mat_mul(power, tlift, mod)
        coef //= max(k + s, 1)
        c = coef % mod
        for i in range(n):
            pi = power[i]
            ai = acc[i]
            for j in range(n):
                ai[j] = (ai[j] + c * pi[j]) % mod
    pw = p ** w
    funit = fact // pw
    funit_inv = pow(funit, -1, p ** prec)
    out = []
    for row in acc:
        orow = []
        for x in row:
            if x % pw:
                raise AssertionError("series accumulator not divisible by p^val((M+s)!)")
            orow.append(((x // pw) * funit_inv) % (p ** prec))
        out.append(orow)
    return out


def log_matrix(u, p: int, v_min: int, prec: int):
    """log of a square integer matrix congruent to 1 mod p^v_min (v_min >= 1,
    and >= 2 when p = 2 is not required: the log series converges on v >= 1),
    as residues mod p^prec.

    Terms t^n/n are divided exactly one at a time; the working modulus has
    floor(log_p M) digits of headroom so no precision is lost.
    """
    n = len(u)
    m_terms = log_terms_needed(v_min, p, prec)
    w = floor_log(m_terms, p)
    mod = p ** (prec + w)
    t = [[(u[i][j] - (1 if i == j else 0)) % mod for j in range(n)] for i in range(n)]
    power = _identity(n)
    acc = [[0] * n for _ in range(n)]
    target = p ** prec
    for k in range(1, m_terms + 1):
        power = mat_mul(power, t, mod)
        vk = int_valuation(k, p) if k % p == 0 else 0
        q = k // (p ** vk)
        qinv = pow(q, -1, mod)
        pk = p ** vk
        sign = 1 if k % 2 == 1 else -1
        for i in range(n):
            pi = power[i]
            ai = acc[i]
            for j in range(n):
                x = pi[j]
                if x % pk:
                    raise AssertionError("log term not divisible by p^val(n)")
                ai[j] = (ai[j] + sign * (x // pk) * qinv) % mod
    return [[x % target for x in row] for row in acc]


def exp_residue(t: int, p: int, e0: int, prec: int) -> int:
    return exp_matrix([[t]], p, e0, prec)[0][0]


def log_residue(u: int, p: int, v_min: int, prec: int) -> int:
    return log_matrix([[u]], p, v_min, prec)[0][0]


def teichmuller_residue(a: int, p: int, prec: int) -> int:
    """The unique (p-1)-st root of unity congruent to a mod p, via iterating
    x -> x^p (each step gains a digit; the map contracts on units)."""
    mod = p ** prec
    x = a % mod
    for _ in range(prec + 1):
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return x
