"""Deterministic generation of valid small instances.

Commuting tuples of matrices are vanishingly rare under rejection sampling,
so validity is forced by construction: the components are built blockwise
as lambda_i * 1 + q_i(N) for one shared strictly upper-triangular nilpotent
N per block and random polynomials q_i without constant term (hence
simultaneously upper-triangular and commuting in a common basis), then the
whole family is conjugated by one random unimodular integral matrix.
Density 0 yields the zero Higgs field; a density is a probability, so one
outside [0, 1] (or NaN) is refused rather than read as the nearest law
under another seed.

All draws go through random.Random seeded with a string (hashed with
sha512 by the stdlib), so results are stable across processes and runs.
"""

from __future__ import annotations

import random

from ._series import mat_mul
from .context import PrimeContext
from .errors import PadicError
from .higgs import HiggsModule, SmallRep, higgs_to_rep
from .matrix import PadicMatrix
from .scalar import PadicScalar


def _rng(tag: str, *params) -> random.Random:
    return random.Random(tag + ":" + ":".join(str(x) for x in params))


def _random_unimodular(rng, n, p, mod):
    """L @ U with unit diagonals, mod `mod`: integral, determinant 1,
    integral inverse."""
    lower = [[1 if i == j else (rng.randrange(p ** 2) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randrange(p ** 2) if i < j else 0) for j in range(n)] for i in range(n)]
    return mat_mul(lower, upper, mod)


def _block_sizes(rng, n):
    out = []
    left = n
    while left:
        s = rng.randint(1, min(3, left))
        out.append(s)
        left -= s
    return out


def gen_higgs(p, d, rank, density=0.6, seed=0, precision=32) -> HiggsModule:
    """A valid Higgs module: d commuting small rank x rank matrices,
    deterministic in (p, d, rank, density, seed, precision)."""
    ctx = PrimeContext(p, precision)
    if not 0 <= density <= 1:  # NaN included
        raise PadicError("the density must lie in [0, 1], got %r" % density)
    if rank < 1:
        raise PadicError("the rank must be at least 1, got %d" % rank)
    e0 = ctx.e0
    # precision is deliberately not part of the seed: the same seed at a
    # higher precision is a refinement of the same instance
    rng = _rng("higgs", p, d, rank, repr(density), seed)
    # every integer matrix below is read mod p^precision by from_ints
    mod = p ** precision
    sizes = _block_sizes(rng, rank)
    coeff_bound = p ** 3
    blocks_per_i = [[] for _ in range(d)]
    for s in sizes:
        shared_nil = [
            [p ** e0 * rng.randrange(coeff_bound) if (j > i and rng.random() < density) else 0
             for j in range(s)]
            for i in range(s)
        ]
        nil_powers = [None, shared_nil]
        for k in range(2, s):
            nil_powers.append(mat_mul(nil_powers[-1], shared_nil, mod))
        for i in range(d):
            lam = p ** e0 * rng.randrange(coeff_bound) if rng.random() < density else 0
            block = [[lam if a == b else 0 for b in range(s)] for a in range(s)]
            for k in range(1, s):
                if rng.random() < density:
                    c = rng.randrange(1, coeff_bound)
                    pw = nil_powers[k]
                    for a in range(s):
                        for b in range(s):
                            block[a][b] += c * pw[a][b]
            blocks_per_i[i].append(block)
    conj = _random_unimodular(rng, rank, p, mod)
    conj_mat = PadicMatrix.from_ints(ctx, conj, precision)
    conj_inv = conj_mat.inverse()
    theta = []
    for i in range(d):
        full = [[0] * rank for _ in range(rank)]
        pos = 0
        for block in blocks_per_i[i]:
            s = len(block)
            for a in range(s):
                for b in range(s):
                    full[pos + a][pos + b] = block[a][b]
            pos += s
        t = PadicMatrix.from_ints(ctx, full, precision)
        theta.append(conj_mat @ t @ conj_inv)
    return HiggsModule.create(ctx, theta)


def gen_rep(p, d, rank, density=0.6, seed=0, precision=32) -> SmallRep:
    """A valid small representation (the exponential of a generated Higgs
    module, so the pair is a known correspondence instance)."""
    return higgs_to_rep(gen_higgs(p, d, rank, density, seed, precision))


def gen_commuting_units(operators, seed=0):
    """Invertible matrices commuting with the given commuting operators and
    with each other: scalar units times unit-valued polynomials in the
    operators."""
    if not operators:
        return []
    ctx = operators[0].ctx
    p = ctx.p
    n = operators[0].nrows
    rng = _rng("units", p, n, len(operators), seed)
    ident = PadicMatrix.identity(ctx, n)
    units = []
    for op in operators:
        c = rng.randrange(1, p)  # unit scalar mod p
        scalar = PadicScalar.from_int(ctx, c + p * rng.randrange(p ** 2))
        u = ident.scale(scalar)
        # add p * (polynomial in all operators): still commutes, still a unit
        power = ident
        for _ in range(rng.randint(0, 2)):
            power = power @ operators[rng.randrange(len(operators))]
            coeff = PadicScalar.from_int(ctx, p * rng.randrange(p ** 2))
            u = u + power.scale(coeff)
        units.append(u)
    return units
