"""The integer series kernels: the Cayley-Hamilton engine behind exp, the
expm1 quotient and log against the term-by-term sums and the
Paterson-Stockmeyer evaluations it replaced, Berkowitz's characteristic
polynomial against its defining properties, and the engine's
matrix-product count."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, isqrt
from operator import mul

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


def test_kept_tables_are_keyed_on_every_argument():
    # calls that differ in the kind, p, e, prec or s alone are interleaved,
    # each seen twice, so a coefficient table kept under too few of these
    # arguments is read for another series; 1 x 1 and 2 x 2 arguments read
    # the same tables
    rng = random.Random(25)
    cases = [(kind, p, e, prec) for kind in ("exp", "expm1", "log") for p in (2, 3, 5)
             for e in (1, 2) for prec in (8, 9, 21) if kind == "log" or (p, e) != (2, 1)]
    rng.shuffle(cases)
    for kind, p, e, prec in cases * 2:
        for n in (1, 2):
            t = [[p ** e * rng.randrange(p ** prec) for _ in range(n)] for _ in range(n)]
            if kind == "log":
                u = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
                assert _series.log_matrix(u, p, e, prec) == ref_log_matrix(u, p, e, prec)
            else:
                s = int(kind == "expm1")
                kernel = _series.expm1_quotient_matrix if s else _series.exp_matrix
                assert kernel(t, p, e, prec) == ref_factorial_series(t, p, e, prec, s)


# -- the characteristic polynomial ------------------------------------------

def leibniz_det(t):
    """det t by the sum over permutations, exactly."""
    n = len(t)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= t[i][perm[i]]
        total += term
    return total


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 6), st.integers(1, 40),
       st.sampled_from(["zero", "nilpotent", "scaled", "general"]), st.integers(0, 2 ** 32))
def test_charpoly_is_monic_and_vanishes_at_its_argument(p, n, k, shape, seed):
    # chi = det(x - t) mod p^k: monic, c_(n-1) = -tr t, c_0 = (-1)^n det t,
    # and chi(t) = 0 (Cayley-Hamilton), summed by Horner in t
    rng = random.Random(seed)
    mod = p ** k
    scale = p ** rng.randint(1, 8) if shape == "scaled" else 1
    t = [[0 if shape == "zero" or (shape == "nilpotent" and j <= i)
          else scale * rng.randrange(-mod, mod) for j in range(n)] for i in range(n)]
    chi = _series._charpoly([[x % mod for x in row] for row in t], mod)
    assert len(chi) == n + 1 and chi[n] == 1
    assert all(0 <= c < mod for c in chi[:n])
    assert chi[n - 1] == -sum(t[i][i] for i in range(n)) % mod
    if n <= 4:
        assert chi[0] == (-1) ** n * leibniz_det(t) % mod
    if shape in ("zero", "nilpotent"):
        assert chi[:n] == [0] * n
    acc = [[0] * n for _ in range(n)]
    for c in reversed(chi):
        acc = ref_mat_mul(acc, t, mod)
        for i in range(n):
            acc[i][i] = (acc[i][i] + c) % mod
    assert not any(map(any, acc))


# -- the engine against the Paterson-Stockmeyer evaluations -----------------

def ps_poly_eval(t, coefs, mod):
    """_poly_eval by Paterson-Stockmeyer, as it stood before the
    Cayley-Hamilton reduction: baby steps t^0..t^(b-1), b =
    ceil(sqrt(len(coefs))), built only up to the first power that vanishes
    mod `mod`, and Horner in the giant step t^b over the blocks of
    coefficients below it."""
    n = len(t)
    b = isqrt(len(coefs) - 1) + 1
    top = b if len(coefs) > b else b - 1
    lift = [[x % mod for x in row] for row in t]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], lift]
    while len(powers) <= top and any(map(any, powers[-1])):
        powers.append(_series.mat_mul(powers[-1], lift, mod))
    if not any(map(any, powers[-1])):
        b = len(powers) - 1
        coefs = coefs[:b]
    stack = [list(zip(*rows)) for rows in zip(*powers[:b])]
    giant = powers[b] if len(coefs) > b else None
    acc = [[0] * n for _ in range(n)]
    for start in reversed(range(0, len(coefs), b)):
        if start + b < len(coefs):
            acc = _series.mat_mul(acc, giant, mod)
        block = coefs[start:start + b]
        acc = [[(a + sum(map(mul, block, e))) % mod for a, e in zip(arow, srow)]
               for arow, srow in zip(acc, stack)]
    return acc


def ref_poly_eval(t, coefs, mod):
    """_poly_eval by the full Paterson-Stockmeyer evaluation: every baby
    step t^0..t^(b-1) and the giant step t^b built, and Horner in t^b over
    every block of coefficients, whether or not a power of t vanishes."""
    n = len(t)
    b = isqrt(len(coefs) - 1) + 1
    lift = [[x % mod for x in row] for row in t]
    baby = [[[int(i == j) for j in range(n)] for i in range(n)], lift]
    while len(baby) < b:
        baby.append(_series.mat_mul(baby[-1], lift, mod))
    stack = [list(zip(*rows)) for rows in zip(*baby[:b])]
    giant = _series.mat_mul(baby[-1], lift, mod) if len(coefs) > b else None
    acc = [[0] * n for _ in range(n)]
    for start in reversed(range(0, len(coefs), b)):
        if start + b < len(coefs):
            acc = _series.mat_mul(acc, giant, mod)
        block = coefs[start:start + b]
        acc = [[(a + sum(e * c for e, c in zip(block, col))) % mod for a, col in zip(arow, srow)]
               for arow, srow in zip(acc, stack)]
    return acc


def unimodular(rng, n, mod):
    """An integer matrix and its inverse mod `mod`: the product of a unit
    lower and a unit upper triangular matrix, each drawn at random."""
    lower = [[int(i == j) or (rng.randrange(mod) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) or (rng.randrange(mod) if j > i else 0) for j in range(n)]
             for i in range(n)]

    def inverse(tri, below):
        # unit triangular: solve column by column, exactly mod `mod`
        inv = [[int(i == j) for j in range(n)] for i in range(n)]
        order = range(n) if below else reversed(range(n))
        for i in order:
            others = range(i) if below else range(i + 1, n)
            for j in range(n):
                inv[i][j] = (inv[i][j] - sum(tri[i][k] * inv[k][j] for k in others)) % mod
        return inv

    m = _series.mat_mul(lower, upper, mod)
    return m, _series.mat_mul(inverse(upper, False), inverse(lower, True), mod)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 6), st.integers(1, 40),
       st.sampled_from(["nilpotent", "scaled nilpotent", "general", "divisible"]),
       st.integers(0, 2 ** 32))
def test_poly_eval_matches_full_evaluation(p, n, terms, shape, seed):
    # nilpotent arguments P U P^-1 (U strictly upper triangular, P
    # unimodular) vanish from t^n on, or sooner when U is scaled by p;
    # general and p-divisible arguments have no vanishing power, or one
    # only mod `mod`: the residues are those of both Paterson-Stockmeyer
    # evaluations, the full one and the one that stops at a vanishing power
    rng = random.Random(seed)
    mod = p ** rng.randint(4, 40)
    if shape.endswith("nilpotent"):
        scale = p ** rng.randint(1, 12) if shape.startswith("scaled") else 1
        u = [[scale * rng.randrange(mod) if j > i else 0 for j in range(n)] for i in range(n)]
        m, m_inv = unimodular(rng, n, mod)
        t = _series.mat_mul(_series.mat_mul(m, u, mod), m_inv, mod)
        power = t
        for _ in range(n - 1):
            power = _series.mat_mul(power, t, mod)
        assert not any(map(any, power))
    else:
        scale = p ** rng.randint(1, 8) if shape == "divisible" else 1
        t = [[scale * rng.randrange(-mod, mod) for _ in range(n)] for _ in range(n)]
    coefs = [rng.randrange(-mod, mod) for _ in range(terms)]
    got = _series._poly_eval(t, coefs, mod)
    assert got == ref_poly_eval(t, coefs, mod)
    assert got == ps_poly_eval(t, coefs, mod)


# -- work count ---------------------------------------------------------------

def counted_products(monkeypatch):
    """The sizes of the matrices _series.mat_mul is called on, from now."""
    calls = []
    inner = _series.mat_mul

    def counted(a, b, mod):
        calls.append(len(a))
        return inner(a, b, mod)

    monkeypatch.setattr(_series, "mat_mul", counted)
    return calls


@pytest.mark.parametrize("kernel, terms", [
    (_series.exp_matrix, _series.exp_terms_needed(1, 3, 32)),
    (_series.expm1_quotient_matrix, _series.exp_terms_needed(1, 3, 32, 1)),
    (_series.log_matrix, _series.log_terms_needed(1, 3, 32)),
])
def test_series_products_grow_like_sqrt_of_terms(monkeypatch, kernel, terms):
    """At p = 3, N = 32 and valuation 1 the series run M = 59, 60 and 35
    terms; on a 4 x 4 argument each makes n - 2 = 2 matrix products,
    whatever M is."""
    calls = counted_products(monkeypatch)
    t = [[3 * (5 * i + 7 * j + 1) for j in range(4)] for i in range(4)]
    if kernel is _series.log_matrix:
        t = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    kernel(t, 3, 1, 32)
    assert calls == [4, 4] and len(calls) < terms


@pytest.mark.parametrize("kernel", [
    _series.exp_matrix, _series.expm1_quotient_matrix, _series.log_matrix,
])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_nilpotent_argument_stops_at_its_vanishing_power(monkeypatch, kernel, n):
    # a strictly upper triangular n x n argument has characteristic
    # polynomial x^n: the series of 59, 60 and 35 terms reduce to their
    # terms below t^n, evaluated with n - 2 products
    calls = counted_products(monkeypatch)
    t = [[3 * (5 * i + 7 * j + 1) if j > i else 0 for j in range(n)] for i in range(n)]
    if kernel is _series.log_matrix:
        t = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    kernel(t, 3, 1, 32)
    assert len(calls) == n - 2


@pytest.mark.parametrize("kernel", [
    _series.exp_matrix, _series.expm1_quotient_matrix, _series.log_matrix,
])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("shape", ["general", "zero"])
def test_every_square_argument_costs_n_minus_two_products(monkeypatch, kernel, n, shape):
    # the count depends on n alone: not on the entries, the number of
    # terms, or whether a power of t vanishes
    calls = counted_products(monkeypatch)
    t = [[3 * (5 * i + 7 * j + 1) if shape == "general" else 0 for j in range(n)]
         for i in range(n)]
    if kernel is _series.log_matrix:
        t = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    kernel(t, 3, 1, 32)
    assert calls == [n] * (n - 2)


@pytest.mark.parametrize("kernel", [
    _series.exp_matrix, _series.expm1_quotient_matrix, _series.log_matrix,
])
def test_one_by_one_argument_makes_no_matrix_product(monkeypatch, kernel):
    # a 1 x 1 argument is summed by Horner on its one integer, on the same
    # 59, 60 and 35 terms
    calls = counted_products(monkeypatch)
    kernel([[3 * 12345 + (kernel is _series.log_matrix)]], 3, 1, 32)
    assert not calls


# -- Teichmuller residues --------------------------------------------------------

def ref_teichmuller_residue(a, p, prec):
    """The kernel as it stood: x -> x^p iterated from a mod p^prec until it
    stops moving, at most prec + 1 times."""
    mod = p ** prec
    x = a % mod
    for _ in range(prec + 1):
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return x


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_teichmuller_residue_matches_iteration(p):
    # every unit residue class a mod p, lifted by a few multiples of p so
    # that a is not already a root of unity, at every precision 1..70
    for prec in range(1, 71):
        for a in range(1, p):
            for lift in (a, a + p, a + 7 * p, a + p ** 2 * 11):
                got = _series.teichmuller_residue(lift, p, prec)
                assert got == ref_teichmuller_residue(lift, p, prec), (lift, prec)
                assert pow(got, p, p ** prec) == got and (got - a) % p == 0
