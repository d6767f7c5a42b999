"""The integer series kernels: the Paterson-Stockmeyer engine behind exp,
the expm1 quotient and log against the term-by-term sums it replaced, and
its matrix-product count."""

from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_simpson import _series


# -- frozen reference: the term-by-term kernels, one product per term ------

def ref_mat_mul(a, b, mod):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                for j in range(m):
                    out[i][j] = (out[i][j] + c * b[t][j]) % mod
    return out


def ref_factorial_series(t, p, e0, prec, s):
    """sum_k t^k/(k+s)! over the common denominator (M+s)!, one term at a
    time; M is one past the last index whose term can survive mod p^prec,
    scanned past Legendre's closed-form index."""
    n = len(t)
    m_terms = 1 + max((k for k in range(1, 4 * prec + 8)
                       if k * e0 - _series.factorial_valuation(k + s, p) < prec), default=0)
    w = _series.factorial_valuation(m_terms + s, p)
    mod = p ** (prec + w)
    fact = 1
    for k in range(2, m_terms + s + 1):
        fact *= k
    tlift = [[x % mod for x in row] for row in t]
    coef = fact
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [[0] * n for _ in range(n)]
    for k in range(m_terms + 1):
        if k:
            power = ref_mat_mul(power, tlift, mod)
        coef //= max(k + s, 1)
        for i in range(n):
            for j in range(n):
                acc[i][j] = (acc[i][j] + coef % mod * power[i][j]) % mod
    pw = p ** w
    funit_inv = pow(fact // pw, -1, p ** prec)
    assert all(x % pw == 0 for row in acc for x in row)
    return [[(x // pw) * funit_inv % p ** prec for x in row] for row in acc]


def ref_log_matrix(u, p, v_min, prec):
    """sum_k (-1)^(k+1) t^k/k with t = u - 1, each term divided by k on
    its own."""
    n = len(u)
    m_terms = _series.log_terms_needed(v_min, p, prec)
    mod = p ** (prec + _series.floor_log(m_terms, p))
    t = [[(u[i][j] - int(i == j)) % mod for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [[0] * n for _ in range(n)]
    for k in range(1, m_terms + 1):
        power = ref_mat_mul(power, t, mod)
        vk = _series.int_valuation(k, p) if k % p == 0 else 0
        pk = p ** vk
        qinv = pow(k // pk, -1, mod)
        sign = 1 if k % 2 else -1
        for i in range(n):
            for j in range(n):
                assert power[i][j] % pk == 0
                acc[i][j] = (acc[i][j] + sign * (power[i][j] // pk) * qinv) % mod
    return [[x % p ** prec for x in row] for row in acc]


# -- differential -----------------------------------------------------------

@st.composite
def series_inputs(draw):
    """A prime, a precision, a declared valuation e (the least the series
    allow for exp: 1, or 2 when p = 2; log takes any e >= 1) and an n x n
    integer matrix with entries divisible by p^e: dense, with entries of
    higher valuation, strictly upper triangular (nilpotent) or zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    prec = draw(st.integers(8, 48))
    n = draw(st.integers(1, 7))
    e = draw(st.integers(2 if p == 2 else 1, 3))
    shape = draw(st.sampled_from(["dense", "shifted", "nilpotent", "zero"]))
    scale = p ** (e + (draw(st.integers(1, 3)) if shape == "shifted" else 0))
    entry = st.integers(0, p ** prec - 1)
    t = [[scale * draw(entry) if shape != "zero" and (shape != "nilpotent" or i < j) else 0
          for j in range(n)] for i in range(n)]
    return p, prec, e, t


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(series_inputs(), st.booleans())
def test_kernels_match_term_by_term_sums(inputs, log_at_one):
    p, prec, e, t = inputs
    assert _series.exp_matrix(t, p, e, prec) == ref_factorial_series(t, p, e, prec, 0)
    assert _series.expm1_quotient_matrix(t, p, e, prec) == ref_factorial_series(t, p, e, prec, 1)
    # log converges on 1 + p*Z_p for p = 2 as well
    v = 1 if log_at_one else e
    u = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    assert _series.log_matrix(u, p, v, prec) == ref_log_matrix(u, p, v, prec)


@pytest.mark.parametrize("p, t, prec", [
    (3, 3, 6), (3, 3, 11), (3, 3, 29), (3, 3, 30), (2, 4, 10), (2, 4, 18), (5, 5, 20), (7, 7, 42),
])
def test_exp_keeps_the_terms_past_a_valuation_dip(p, t, prec):
    # at these precisions the first term to vanish mod p^prec is followed
    # by one that does not (term 9 of exp(3) at p = 3 has valuation 5), so
    # exp and the expm1 quotient must run past it; the oracle sums exactly
    e0 = 2 if p == 2 else 1
    mod = p ** prec
    for s, kernel in ((0, _series.exp_matrix), (1, _series.expm1_quotient_matrix)):
        exact = sum(Fraction(t ** k, factorial(k + s)) for k in range(8 * prec))
        want = exact.numerator * pow(exact.denominator, -1, mod) % mod
        assert kernel([[t]], p, e0, prec) == [[want]], (s, p, prec)


# -- work count ---------------------------------------------------------------

@pytest.mark.parametrize("kernel, terms", [
    (_series.exp_matrix, _series.exp_terms_needed(1, 3, 32)),
    (_series.expm1_quotient_matrix, _series.exp_terms_needed(1, 3, 32, 1)),
    (_series.log_matrix, _series.log_terms_needed(1, 3, 32)),
])
def test_series_products_grow_like_sqrt_of_terms(monkeypatch, kernel, terms):
    """At p = 3, N = 32 and valuation 1 the series run M = 59, 60 and 35
    terms; each makes at most 2*ceil(sqrt(M+1)) matrix products."""
    calls = []
    inner = _series.mat_mul

    def counted(a, b, mod):
        calls.append(len(a))
        return inner(a, b, mod)

    monkeypatch.setattr(_series, "mat_mul", counted)
    t = [[3 * (5 * i + 7 * j + 1) for j in range(4)] for i in range(4)]
    if kernel is _series.log_matrix:
        t = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    kernel(t, 3, 1, 32)
    assert 0 < len(calls) <= 2 * (isqrt(terms) + 1) < terms
